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
blocks is stacked, a complex stack is kept without a copy), the system's one
``dims``, and per block its PT cuts, party tuples on that ``dims``.

``solve`` first looks for the smallest *-algebra A that holds I, the C_i and
F and whose partial transpose on every cut of the problem is an algebra too,
and for each cut's frame of A: blocks M_{n_j} (x) I_{m_j}
(``frames.reduction``; de Klerk, Pasechnik & Schrijver 2007; Murota et al.
2010).  Every iterate then lies in A.  Where A is too large, or a frame fails
its checks, ``solve`` runs unreduced.  No option selects any of it.

The iteration runs on stacks of coordinates: real coordinates in an
orthonormal basis of A's Hermitian part, or, unreduced, the matrices
themselves.  The copies z and the scaled duals u live in one
``(2 * copies, ...)`` array, held cut by cut so that each cone group is one
contiguous slice.  The affine projection, the over-relaxation and the dual
update are linear in ``[z; u]``, so one step is one precomputed matrix product
plus a constant, ``pre = step @ [z; u] + offset``, on rows of real numbers;
then each group's cone frames (in A, a matrix product that gives each copy's
n_j x n_j blocks, one row per copy; unreduced, a partial transpose through an
index map made once per cut, then the Hermitian part), one batched ``eigh``
per block size with clipping, and the way back into z, all through views made
once before the loop; and ``u = pre - z``.  The affine iterate x itself is
formed only at checkpoints, where residuals, stopping and the returned
matrices are computed on full ``(side, side)`` matrices, each cut through its
full-matrix frame, the one the infeasibility screen and the projections use.
An eigensolver that does not converge ends the solve with the status
``solver-failure`` and the best checkpoint so far.  When every objective block
and the target have an identically zero imaginary part, the iteration runs in
float64 instead of complex128, with a real basis and real frames; the input
alone decides this, no option selects it.  The returned matrices are one
complex128 ``(blocks, side, side)`` stack either way.
"""

from __future__ import annotations

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
    is_integer,
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

STATUSES = ("optimal", "max-iterations", "infeasible-evidence", "solver-failure")  # how a solve ends


class SdpProblem:
    """Block-diagonal conic program with a single completeness constraint: a ``(blocks, side, side)`` stack
    ``objective``, the ``target`` the blocks sum to, the ``dims`` of the system (``(side,)`` by default), and per
    block a tuple of cuts (``pt_cuts``), each the sorted party tuple of one side of a cut of ``dims``."""

    def __init__(self, objective, target, dims=None, pt_cuts=None):
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
        dims = check_dims((side,) if dims is None else dims, side)
        if pt_cuts is None:
            pt_cuts = [()] * len(objective)
        # a cut is a party list, never a bare index
        pt_cuts = tuple(tuple(bipartition(dims, tuple(cut)) for cut in cuts) for cuts in pt_cuts)
        if len(pt_cuts) != len(objective):
            raise ValueError("one cone list per block required")
        self.objective, self.target, self.dims, self.pt_cuts = objective, target, dims, pt_cuts

    @property
    def n_blocks(self) -> int:
        return len(self.objective)

    @property
    def side(self) -> int:
        return self.target.shape[0]


class SolveOptions:
    def __init__(self, tol: float = 1e-6, max_iter: int = 50000):
        if not (np.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be a finite number above 0, got {tol}")
        if not is_integer(max_iter) or max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
        self.tol, self.max_iter = tol, max_iter


class SdpSolution:
    """A solve's result: ``matrices`` is the complex ``(blocks, side, side)`` stack, and ``status`` is optimal,
    max-iterations, infeasible-evidence or solver-failure (an eigensolver did not converge)."""

    def __init__(self, matrices: np.ndarray, objective_value: float, status: str, residuals: dict, iterations: int,
                 history: tuple[dict, ...]):
        if status not in STATUSES:
            raise ValueError(f"unknown solve status {status!r}")
        if not (is_integer(iterations) and iterations >= 0):
            raise ValueError(f"iterations must be a non-negative integer, got {iterations!r}")
        self.matrices, self.objective_value, self.status = matrices, objective_value, status
        self.residuals, self.iterations, self.history = residuals, iterations, history


def _frame(dims: tuple[int, ...], cut) -> MatrixFrame:
    """The cone of ``cut`` on full matrices of side prod(dims): the PSD cone for None, else the cone of matrices
    whose partial transpose on the parties ``cut`` of ``dims`` is PSD."""
    side = int(np.prod(dims))
    if cut is None:
        return MatrixFrame(None, side)
    square = np.arange(side * side, dtype=float).reshape(side, side)
    return MatrixFrame(partial_transpose(square, dims, cut).ravel().astype(np.intp), side)


def _negative_parts(mats: np.ndarray, frame: MatrixFrame) -> np.ndarray:
    """Per matrix of the stack ``mats``, how far it sits outside the cone of ``frame``: max(0, -lambda_min)."""
    into, (held,), _ = frame.plan(mats, np.empty_like(mats))
    into()
    return np.maximum(0.0, -np.linalg.eigvalsh(held)[:, 0])


def _clip(h: np.ndarray) -> None:
    """Replace each Hermitian matrix of ``h`` by its Frobenius-nearest PSD matrix: clip negative eigenvalues (of a
    1 x 1 matrix, its positive part, with no eigensolver).  A stack whose ``eigh`` does not converge is redone once
    by ``svd``: with H = U diag(s) V^H, |H| = V diag(s) V^H, and the PSD part is (H + |H|) / 2."""
    if h.shape[-1] == 1:
        np.maximum(h.real, 0.0, out=h.real)
        return
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError:  # an error of the SVD too reaches solve, which ends as a solver failure
        _, s, vh = np.linalg.svd(h)
        np.copyto(h, hermitian_part(h + (dagger(vh) * s[..., None, :]) @ vh) / 2)
        return
    # every matrix is rebuilt, and only those with a negative eigenvalue are replaced
    np.copyto(h, hermitian_part((v * np.maximum(w, 0.0)[..., None, :]) @ dagger(v)), where=w[..., :1, None] < 0.0)


def _project(m, dims, cut) -> np.ndarray:
    """The Frobenius-nearest point of the cone of ``cut`` on ``dims`` (``(side,)`` for None) to the Hermitian matrix
    ``m``: clip negative eigenvalues in the cone's frame."""
    m = as_matrix(m)
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"projection needs Hermitian input (defect {defect:.3e})")
    dims = check_dims((len(m),) if dims is None else dims, len(m))
    out = np.empty((1, *m.shape), complex)
    into, stacks, back = _frame(dims, cut).plan(m[None], out)
    into()
    for stack in stacks:
        _clip(stack)
    back()  # a clipped frame is exactly Hermitian, and so is its partial transpose
    return out[0]


def project_psd(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues."""
    return _project(m, None, None)


def project_ppt(m: np.ndarray, dims: Sequence[int], cut: int | Sequence[int]) -> np.ndarray:
    """Frobenius-nearest matrix whose partial transpose is PSD."""
    return _project(m, dims, cut)


def _objective_value(c: np.ndarray, x: np.ndarray) -> float:
    return float(np.einsum("iab,iba->", c, x).real)


def _cone_violation(x: np.ndarray, owner: np.ndarray, groups, cones: dict) -> float:
    return max(float(np.max(_negative_parts(x[owner[at]], cones[cut]))) for cut, at in groups)


def _rows(a: np.ndarray) -> np.ndarray:
    """A stack as a matrix of real numbers, one row per member (a complex entry gives its real and imaginary parts):
    a view of a contiguous stack."""
    return np.ascontiguousarray(a).view(np.float64).reshape(len(a), -1)


def solve(problem: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Run the splitting iteration until the residuals settle below tolerance.

    The returned matrices satisfy the completeness constraint to machine
    precision (they come out of the affine projection); the cone residual
    reports how far they sit outside the PSD / transposed-PSD cones.  An
    eigensolver that does not converge ends the solve with the status
    ``solver-failure`` and the best checkpoint so far (the start F/n, with
    its residuals, if there is none yet).
    """
    opts = opts or SolveOptions()
    n = problem.n_blocks
    side = problem.side
    c = problem.objective
    f = problem.target
    if not (np.any(c.imag) or np.any(f.imag)):  # real data: iterate in float64
        c, f = np.ascontiguousarray(c.real), np.ascontiguousarray(f.real)
    # block i owns one copy for the PSD cone (the cut None) and one per PT cut; the copies are held cut by cut,
    # block by block within a cut, so each distinct cut's group of copies is one contiguous slice
    by_cut: dict = {}
    for i, cuts in enumerate(problem.pt_cuts):
        for cut in [None, *cuts]:
            by_cut.setdefault(cut, []).append(i)
    owner = np.concatenate([np.array(blocks) for blocks in by_cut.values()])  # the block of each copy
    ends = np.cumsum([len(blocks) for blocks in by_cut.values()]).tolist()
    groups = [(cut, slice(end - len(blocks), end)) for (cut, blocks), end in zip(by_cut.items(), ends)]
    cones = {cut: _frame(problem.dims, cut) for cut in by_cut}  # each distinct cut's cone on full matrices
    copies = len(owner)
    rho, alpha = PENALTY, OVER_RELAXATION

    def start(status: str, **residuals) -> SdpSolution:
        """F/n for every block, with its residuals."""
        x = hermitian_part(np.repeat((f / n)[None], n, axis=0))
        return SdpSolution(
            matrices=x.astype(complex),
            objective_value=_objective_value(c, x),
            status=status,
            residuals={
                "affine": 0.0,
                "cone": _cone_violation(x, owner, groups, cones),
                "gap_estimate": float("nan"),
                **residuals,
            },
            iterations=0,
            history=(),
        )

    evidence = _infeasibility_evidence(problem, cones)
    if evidence is not None:
        return start("infeasible-evidence", evidence=evidence)

    # the iteration's coordinates: the matrices themselves, or, where the data's *-algebra is small, real
    # coordinates in an orthonormal basis of its Hermitian part; each cut's cone is a frame on them
    reduced = reduction(c, f, {cut: cone.perm for cut, cone in cones.items()})
    if reduced is None:
        basis, shape, frames = None, (side, side), cones
        cs, fs = c, f
    else:
        basis, frames = reduced
        shape = (len(basis),)
        cs, fs = coordinates(c, basis), coordinates(f[None], basis)[0]

    def full(coords: np.ndarray) -> np.ndarray:
        """The matrices of a stack of coordinates, exactly Hermitian."""
        return coords if basis is None else matrices(coords, basis)

    def stack(rows: np.ndarray) -> np.ndarray:
        """The stack of coordinates whose rows of real numbers are ``rows``."""
        return rows.view(dtype).reshape(len(rows), *shape)

    # The affine step is x = lin (z - u) + const, the projection of the shifted consensus targets weighted by each
    # block's copy count w: lin = (I - (1/w) 1^T / sum(1/w)) diag(1/w) S, S the (blocks x copies) 0/1 sum matrix.
    # With over-relaxation and the dual update, one step is pre = step [z; u] + offset, the next z is the cone
    # projection of pre and the next u is pre - z: step = [alpha lin[owner] + (1 - alpha) I, I - alpha lin[owner]]
    # and offset = alpha const[owner].  All of them act on rows of real numbers.
    w = np.bincount(owner).astype(float)
    means = (owner == np.arange(n)[:, None]) / w[:, None]  # diag(1/w) S
    spread = np.eye(n) - np.outer(1 / w, np.ones(n)) / np.sum(1 / w)
    lin = spread @ means
    const = spread @ (_rows(cs) / (rho * w[:, None])) + np.outer(1 / w, _rows(fs[None])) / np.sum(1 / w)
    step = np.hstack([alpha * lin[owner] + (1 - alpha) * np.eye(copies), np.eye(copies) - alpha * lin[owner]])
    offset = alpha * const[owner]

    dtype = c.dtype if basis is None else np.dtype(np.float64)
    zu, pre = np.zeros((2 * copies, *shape), dtype), np.empty((copies, *shape), dtype)
    z, u = zu[:copies], zu[copies:]
    z[...] = fs / n
    zu_rows, pre_rows = _rows(zu), _rows(pre)
    # per group, its cone step from pre into z, with its views made once: z is free until the way back
    pieces = [frames[cut].plan(pre[at], z[at]) for cut, at in groups]
    best = best_x = None
    history: list[dict] = []
    prev_obj = None
    failed = False

    for it in range(1, opts.max_iter + 1):
        checkpoint = it % CHECK_EVERY == 0 or it == opts.max_iter
        if checkpoint:  # this step's x, and the z it starts from
            z_prev = z.copy()
            x = stack(lin @ _rows(z - u) + const)
            if basis is None:
                x = hermitian_part(x)

        np.matmul(step, zu_rows, out=pre_rows)
        pre_rows += offset
        try:
            for into, stacks, back in pieces:
                into()
                for held in stacks:
                    _clip(held)
                back()  # a clipped frame is exactly Hermitian, and so is its partial transpose
            if checkpoint:  # how far x sits outside the cones, on the matrices
                xf = full(x)  # the differences below are taken on the coordinates: full() is linear
                cone = _cone_violation(xf, owner, groups, cones)
        except np.linalg.LinAlgError:  # an eigensolver that did not converge, in the cone step or the checkpoint
            failed = True
            break
        np.subtract(pre, z, out=u)

        if not checkpoint:
            continue

        # the other residuals on the matrices
        affine = float(np.max(np.abs(xf.sum(axis=0) - f)))
        consensus = float(np.max(np.abs(full(x[owner] - z))))
        dual = rho * float(np.max(np.abs(full(z - z_prev))))
        obj = _objective_value(c, xf)
        zbar = full(stack(means @ _rows(z)))
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

    if best is None:  # an eigensolver failed before the first checkpoint was recorded
        return start("solver-failure")
    status = "optimal" if best["combined"] <= opts.tol else "max-iterations"
    if failed:
        status = "solver-failure"
    elif status != "optimal" and best["combined"] > np.sqrt(opts.tol) and len(history) >= 8:
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
        iterations=history[-1]["iteration"],  # the last checkpoint: a run that does not fail ends at one
        history=tuple(history),
    )


def _infeasibility_evidence(problem: SdpProblem, cones: dict) -> str | None:
    """Necessary-condition screen: the target must lie in the PSD cone and every shared cut's cone (``cones`` maps
    each cut to its frame)."""
    shared = [cut for cut in problem.pt_cuts[0] if all(cut in cuts for cuts in problem.pt_cuts[1:])]
    for cut in [None, *shared]:  # in block 0's order
        neg = _negative_parts(problem.target[None], cones[cut])[0]
        if neg > 1e-9:
            where = "constraint target" if cut is None else f"target transposed on {cut}"
            return f"{where} has negative eigenvalue {-neg:.3e}"
    return None


def problem_to_json(problem: SdpProblem) -> dict:
    return {
        "target": matrix_to_json(problem.target),
        "dims": list(problem.dims),
        "blocks": [
            {"objective": matrix_to_json(c), "pt_cuts": [list(cut) for cut in cuts]}
            for c, cuts in zip(problem.objective, problem.pt_cuts)
        ],
    }


def problem_from_json(obj: dict) -> SdpProblem:
    strict_object(obj, "SDP problem", {"target": dict, "dims": [int], "blocks": [dict]})
    for block in obj["blocks"]:
        strict_object(block, "SDP block", {"objective": dict}, {"pt_cuts": [list]})
    objective = matrices_from_json([block["objective"] for block in obj["blocks"]], "SDP problem")
    pt_cuts = [block.get("pt_cuts", []) for block in obj["blocks"]]
    return SdpProblem(objective, matrix_from_json(obj["target"]), obj["dims"], pt_cuts)


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
    strict_object(obj, "SDP solution", {"matrices": [dict], "objective_value": float, "status": str,
                                        "residuals": dict, "iterations": int, "history": [dict]})
    return SdpSolution(
        matrices=matrices_from_json(obj["matrices"], "SDP solution"),
        objective_value=obj["objective_value"],
        status=obj["status"],
        residuals=dict(obj["residuals"]),
        iterations=obj["iterations"],
        history=tuple(dict(h) for h in obj["history"]),
    )
