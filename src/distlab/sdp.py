"""Small dense SDP engine for completeness-constrained cone programs.

Solves problems of the form

    maximize   sum_i Re tr(C_i M_i)
    subject to sum_i M_i = F,
               M_i PSD, and optionally PT_cut(M_i) PSD per block,

which is exactly the feasible set of a (PPT) measurement.  The method is a
consensus variant of ADMM: one copy of each block per cone constraint, cone
projections by eigenvalue clipping, and an affine projection onto the sum
constraint that is available in closed form (Boyd et al. 2011, "Distributed
Optimization and Statistical Learning via ADMM", section 7.1).  Iterates are
tracked by their combined residual and the best one seen is returned, so the
recorded residual trail never regresses.

``SdpProblem`` holds the C_i as one ``(blocks, side, side)`` stack (a list of
blocks is stacked, a complex stack is kept without a copy), and all its PT
cones share one ``dims``.

``solve`` first looks for the smallest *-algebra A that holds I, the C_i and
F and whose partial transpose on every cut of the problem is an algebra too,
and for each cut's frame of A: blocks M_{n_j} (x) I_{m_j}
(``frames.reduction``; de Klerk, Pasechnik & Schrijver 2007; Murota et al.
2010).  Every iterate then lies in A.  Where A is too large, or a frame fails
its checks, ``solve`` runs unreduced.  No option selects any of it.

The iteration runs on stacks of coordinates: real coordinates in an
orthonormal basis of A's Hermitian part, or, unreduced, the matrices
themselves.  All copies live in one ``(copies, ...)`` array, held cut by cut
so that each cone group is one contiguous slice, and each block's ``x`` is
one reduction over its copies in cone order.  The cone step is one stacked
projection per iteration, in the calling process: over-relaxation, each
group's cone frames (in A, a matrix product that gives each copy's
n_j x n_j blocks, one row per copy; unreduced, a partial transpose through an
index map made once per cut, then the Hermitian part), one batched ``eigh``
per block size with clipping and reconstruction of only the blocks that had
a negative eigenvalue, the way back, and the dual update, all in place.
Residuals, stopping and the returned matrices are computed on full
``(side, side)`` matrices at checkpoints, each cut through its full-matrix
frame, the one the infeasibility screen and the projections use.  When every
objective block and the target have an identically zero imaginary part, the
iteration runs in float64 instead of complex128, with a real basis and real
frames; the input alone decides this, no option selects it.  The returned
matrices are one complex128 ``(blocks, side, side)`` stack either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frames import MatrixFrame, coordinates, matrices, reduction
from .linalg import (
    HERMITIAN_TOL,
    as_matrix,
    as_stack,
    bipartition,
    check_dims,
    dagger,
    hermitian_part,
    hermiticity_defect,
    matrices_from_json,
    matrix_from_json,
    matrix_to_json,
    partial_transpose,
    strict_object,
)

PROBLEM_HERMITIAN_TOL = 1e-12
# ADMM penalty rho, over-relaxation weight alpha, and iterations between residual checkpoints
PENALTY = 1.0
OVER_RELAXATION = 1.6
CHECK_EVERY = 25


@dataclass(frozen=True)
class PtCone:
    """PSD-after-partial-transposition constraint on one block."""

    dims: tuple[int, ...]
    parties: tuple[int, ...]

    def __init__(self, dims, parties):
        dims = check_dims(dims)
        parties = bipartition(dims, tuple(parties))  # a cone takes a party list, never a bare index
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "parties", parties)


@dataclass(frozen=True)
class SdpProblem:
    """Block-diagonal conic program with a single completeness constraint."""

    objective: np.ndarray
    target: np.ndarray
    pt_cones: tuple[tuple[PtCone, ...], ...]

    def __init__(self, objective, target, pt_cones=None):
        objective = as_stack(objective)
        target = as_matrix(target)
        side = target.shape[0]
        if objective.shape[1:] != (side, side):
            raise ValueError(f"objective shape {objective.shape} is not (blocks, {side}, {side})")
        if not len(objective):
            raise ValueError("need at least one block")
        if not np.isfinite(objective).all():
            raise ValueError("objective blocks must be finite, not NaN or Infinity")
        if not np.isfinite(target).all():
            raise ValueError("constraint target must be finite, not NaN or Infinity")
        if np.max(hermiticity_defect(objective)) > PROBLEM_HERMITIAN_TOL:
            raise ValueError("objective blocks must be Hermitian")
        if hermiticity_defect(target) > PROBLEM_HERMITIAN_TOL:
            raise ValueError("constraint target must be Hermitian")
        if pt_cones is None:
            pt_cones = tuple(() for _ in objective)
        pt_cones = tuple(tuple(cs) for cs in pt_cones)
        if len(pt_cones) != len(objective):
            raise ValueError("one cone list per block required")
        dims = {cone.dims for cs in pt_cones for cone in cs}
        if len(dims) > 1:
            raise ValueError(f"the PT cones of one problem share one dims, got {sorted(dims)}")
        for d in dims:
            check_dims(d, side)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "pt_cones", pt_cones)

    @property
    def n_blocks(self) -> int:
        return len(self.objective)

    @property
    def side(self) -> int:
        return self.target.shape[0]


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6
    max_iter: int = 50000

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a finite number above 0, got {self.tol}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class SdpSolution:
    matrices: np.ndarray  # (blocks, side, side), complex
    objective_value: float
    status: str  # optimal | max-iterations | infeasible-evidence
    residuals: dict
    iterations: int
    history: tuple[dict, ...]


def _frame(cut, side: int) -> MatrixFrame:
    """The cone of ``cut`` on full ``(side, side)`` matrices: the PSD cone for None, else the cone of matrices whose
    partial transpose on ``cut``, any ``(dims, parties)`` that ``partial_transpose`` takes, is PSD."""
    if cut is None:
        return MatrixFrame(None, side)
    square = np.arange(side * side, dtype=float).reshape(side, side)
    return MatrixFrame(partial_transpose(square, *cut).ravel().astype(np.intp), side)


def _negative_parts(mats: np.ndarray, frame: MatrixFrame) -> np.ndarray:
    """Per matrix of the stack ``mats``, how far it sits outside the cone of ``frame``: max(0, -lambda_min)."""
    held, spare = np.empty((2, *mats.shape), mats.dtype)
    frame.into(mats, spare, held)
    return np.maximum(0.0, -np.linalg.eigvalsh(held)[:, 0])


def _clip(h: np.ndarray) -> None:
    """Replace each Hermitian matrix of ``h`` by its Frobenius-nearest PSD matrix: clip negative eigenvalues (of a
    1 x 1 matrix, its positive part, with no eigensolver)."""
    if h.shape[-1] == 1:
        np.maximum(h.real, 0.0, out=h.real)
        return
    w, v = np.linalg.eigh(h)
    neg = w[..., 0] < 0.0
    if neg.any():
        vn = v[neg]
        h[neg] = hermitian_part((vn * np.maximum(w[neg], 0.0)[:, None, :]) @ dagger(vn))


def _as_slice(idx: np.ndarray):
    """``idx`` as a slice where it is a run of consecutive integers, which indexes a stack without a copy."""
    lo = int(idx[0])
    return slice(lo, lo + len(idx)) if np.array_equal(idx, np.arange(lo, lo + len(idx))) else idx


def _project(m, cut) -> np.ndarray:
    """The Frobenius-nearest point of the cone of ``cut`` to the Hermitian matrix ``m``: clip negative eigenvalues
    in the cone's frame."""
    m = as_matrix(m)
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"projection needs Hermitian input (defect {defect:.3e})")
    frame = _frame(cut, len(m))
    held, out = np.empty((2, 1, *m.shape), complex)
    frame.into(m[None], out, held)
    _clip(held)
    frame.back(held, out)  # a clipped frame is exactly Hermitian, and so is its partial transpose
    return out[0]


def project_psd(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues."""
    return _project(m, None)


def project_ppt(m: np.ndarray, dims: Sequence[int], cut: int | Sequence[int]) -> np.ndarray:
    """Frobenius-nearest matrix whose partial transpose is PSD."""
    return _project(m, (dims, cut))


def _objective_value(c: np.ndarray, x: np.ndarray) -> float:
    return float(np.einsum("iab,iba->", c, x).real)


def _cone_violation(x: np.ndarray, owner: np.ndarray, groups, cones: dict) -> float:
    return max(float(np.max(_negative_parts(x[owner[at]], cones[cut]))) for cut, at in groups)


def solve(problem: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Run the splitting iteration until the residuals settle below tolerance.

    The returned matrices satisfy the completeness constraint to machine
    precision (they come out of the affine projection); the cone residual
    reports how far they sit outside the PSD / transposed-PSD cones.
    """
    opts = opts or SolveOptions()
    n = problem.n_blocks
    side = problem.side
    c = problem.objective
    f = problem.target
    if not (np.any(c.imag) or np.any(f.imag)):  # real data: iterate in float64
        c, f = np.ascontiguousarray(c.real), np.ascontiguousarray(f.real)
    # block i owns one copy for the PSD cone and one per PT cone; the copies are held cut by cut,
    # block by block within a cut, so each distinct cut's group of copies is one contiguous slice
    cuts = [[None, *((cone.dims, cone.parties) for cone in cs)] for cs in problem.pt_cones]
    counts = np.array([len(cs) for cs in cuts])
    starts = np.cumsum(counts) - counts
    by_cut: dict = {}
    for k, cut in enumerate(cut for cs in cuts for cut in cs):
        by_cut.setdefault(cut, []).append(k)
    held = np.concatenate([np.array(ks) for ks in by_cut.values()])  # the copy held at each place, block by block
    order = np.argsort(held)  # the place of each copy, block by block
    owner = np.repeat(np.arange(n), counts)[held]
    ends = np.cumsum([len(ks) for ks in by_cut.values()]).tolist()
    groups = [(cut, slice(end - len(ks), end)) for (cut, ks), end in zip(by_cut.items(), ends)]
    cones = {cut: _frame(cut, side) for cut in by_cut}  # each distinct cut's cone on full matrices
    m = counts[:, None, None]
    inv_m_sum = sum(1.0 / mi for mi in counts.tolist())
    rho, alpha = PENALTY, OVER_RELAXATION

    # per cone rank j >= 1, the blocks that have a j-th copy and the places of those copies
    ranks = []
    for j in range(1, counts.max()):
        has = counts > j
        ranks.append((_as_slice(np.flatnonzero(has)), _as_slice(order[starts[has] + j])))

    def block_sums(stack: np.ndarray) -> np.ndarray:
        """Each block's copies summed in its cone order, as ``linalg.group_sums`` sums them."""
        total = stack[:n].copy()  # the PSD group comes first: one copy per block, in block order
        for blocks, places in ranks:
            total[blocks] += stack[places]
        return total

    evidence = _infeasibility_evidence(problem, cones)
    if evidence is not None:
        x = hermitian_part(np.repeat((f / n)[None], n, axis=0))
        return SdpSolution(
            matrices=x.astype(complex),
            objective_value=_objective_value(c, x),
            status="infeasible-evidence",
            residuals={
                "affine": 0.0,
                "cone": _cone_violation(x, owner, groups, cones),
                "gap_estimate": float("nan"),
                "evidence": evidence,
            },
            iterations=0,
            history=(),
        )

    # the iteration's coordinates: the matrices themselves, or, where the data's *-algebra is small, real
    # coordinates in an orthonormal basis of its Hermitian part; each cut's cone is a frame on them
    reduced = reduction(c, f, {cut: cone.perm for cut, cone in cones.items()})
    if reduced is None:
        basis, shape, frames = None, (side, side), cones
        cs, fs, weights, hermitian = c, f, m, hermitian_part
    else:
        basis, frames = reduced
        shape = (len(basis),)
        cs, fs = coordinates(c, basis), coordinates(f[None], basis)[0]
        weights, hermitian = counts[:, None], lambda a, out: np.copyto(out, a)

    def full(stack: np.ndarray) -> np.ndarray:
        """The matrices of a stack of coordinates, exactly Hermitian."""
        return stack if basis is None else matrices(stack, basis)

    dtype = c.dtype if basis is None else np.dtype(np.float64)
    z, u, xhat, work = np.zeros((4, len(owner), *shape), dtype)
    x = np.zeros((n, *shape), dtype)
    z[...] = fs / n
    shift = cs / (rho * weights)
    best = best_x = None
    history: list[dict] = []
    prev_obj = None
    # per group: its frame, its copies, and a stack for their frames
    pieces = [(frames[cut], at, np.empty((at.stop - at.start, *frames[cut].shape), c.dtype)) for cut, at in groups]

    np.subtract(z, u, out=work)
    for it in range(1, opts.max_iter + 1):
        checkpoint = it % CHECK_EVERY == 0 or it == opts.max_iter
        z_prev = z.copy() if checkpoint else None

        # affine step: weighted projection of the shifted consensus targets, work holding z - u
        v = block_sums(work) / weights + shift
        excess = (v.sum(axis=0) - fs) / inv_m_sum
        hermitian(v - excess / weights, out=x)

        # cone steps, one stacked projection of every copy, in place: over-relaxation, the cone frames (for full
        # matrices a partial transpose, then the Hermitian part), clipping, the way back into z, and the dual update
        np.take(x, owner, axis=0, out=xhat)
        xhat *= alpha
        np.multiply(z, 1 - alpha, out=work)
        xhat += work
        np.add(xhat, u, out=work)
        for frame, at, held in pieces:  # z is free until the way back, and holds the transposed copies
            frame.into(work[at], z[at], held)
            for stack in frame.views(held):
                _clip(stack)
            frame.back(held, z[at])  # a clipped frame is exactly Hermitian, and so is its partial transpose
        u += xhat
        u -= z
        np.subtract(z, u, out=work)  # the next affine step's input

        if not checkpoint:
            continue

        # residuals on the matrices
        xf = full(x)  # the differences are taken on the coordinates: full() is linear
        affine = float(np.max(np.abs(xf.sum(axis=0) - f)))
        cone = _cone_violation(xf, owner, groups, cones)
        consensus = float(np.max(np.abs(full(x[owner] - z))))
        dual = rho * float(np.max(np.abs(full(z - z_prev))))
        obj = _objective_value(c, xf)
        zbar = full(block_sums(z) / weights)
        gap = abs(obj - _objective_value(c, zbar))
        obj_change = abs(obj - prev_obj) if prev_obj is not None else float("inf")
        prev_obj = obj
        combined = max(affine, cone, consensus, dual, gap)

        if best is None or combined < best["combined"]:
            best = {"combined": combined, "affine": affine, "cone": cone, "gap_estimate": gap}
            best_x = xf.copy()
        history.append({"iteration": it, **best})
        if combined <= opts.tol and obj_change <= opts.tol * max(1.0, abs(obj)):
            break

    status = "optimal" if best["combined"] <= opts.tol else "max-iterations"
    if status != "optimal" and best["combined"] > np.sqrt(opts.tol) and len(history) >= 8:
        # a residual plateau far above tolerance is the strongest evidence
        # of an empty feasible set this first-order scheme can produce
        halfway = history[len(history) // 2]["combined"]
        if best["combined"] > 0.95 * halfway:
            status = "infeasible-evidence"
    return SdpSolution(
        matrices=best_x.astype(complex),
        objective_value=_objective_value(c, best_x),
        status=status,
        residuals={k: best[k] for k in ("affine", "cone", "gap_estimate")},
        iterations=it,  # the last checkpoint: every run ends at one, it == max_iter being one
        history=tuple(history),
    )


def _infeasibility_evidence(problem: SdpProblem, cones: dict) -> str | None:
    """Necessary-condition screen: the target must lie in the PSD cone and every shared cut's cone (``cones`` maps
    each cut to its frame)."""
    shared = set(problem.pt_cones[0]).intersection(*problem.pt_cones[1:])
    for cut in [None, *((cone.dims, cone.parties) for cone in shared)]:
        neg = _negative_parts(problem.target[None], cones[cut])[0]
        if neg > 1e-9:
            where = "constraint target" if cut is None else f"target transposed on {cut[1]}"
            return f"{where} has negative eigenvalue {-neg:.3e}"
    return None


def problem_to_json(problem: SdpProblem) -> dict:
    dims = next((cs[0].dims for cs in problem.pt_cones if cs), None)
    return {
        "target": matrix_to_json(problem.target),
        "dims": list(dims) if dims else [problem.side],
        "blocks": [
            {
                "objective": matrix_to_json(c),
                "pt_cuts": [list(cone.parties) for cone in problem.pt_cones[i]],
            }
            for i, c in enumerate(problem.objective)
        ],
    }


def problem_from_json(obj: dict) -> SdpProblem:
    strict_object(obj, "SDP problem", ("target", "dims", "blocks"))
    target = matrix_from_json(obj["target"])
    dims = check_dims(obj["dims"], target.shape[0])  # whether or not a block has pt_cuts
    objective = []
    pt_cones = []
    for block in obj["blocks"]:
        strict_object(block, "SDP block", ("objective",), ("pt_cuts",))
        objective.append(matrix_from_json(block["objective"]))
        pt_cones.append(tuple(PtCone(dims, cut) for cut in block.get("pt_cuts", [])))
    return SdpProblem(objective, target, pt_cones)


def solution_to_json(sol: SdpSolution) -> dict:
    return {
        "matrices": [matrix_to_json(m) for m in sol.matrices],
        "objective_value": sol.objective_value,
        "status": sol.status,
        "residuals": {k: v for k, v in sol.residuals.items()},
        "iterations": sol.iterations,
        "history": list(sol.history),
    }


def solution_from_json(obj: dict) -> SdpSolution:
    strict_object(
        obj, "SDP solution", ("matrices", "objective_value", "status", "residuals", "iterations", "history")
    )
    return SdpSolution(
        matrices=matrices_from_json(obj["matrices"], "SDP solution"),
        objective_value=float(obj["objective_value"]),
        status=str(obj["status"]),
        residuals=dict(obj["residuals"]),
        iterations=int(obj["iterations"]),
        history=tuple(dict(h) for h in obj["history"]),
    )
