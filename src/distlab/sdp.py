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

The iteration runs on stacks: all copies live in one ``(copies, side, side)``
array, and each block's ``x`` is one reduction over its copies.  The cone step
is one stacked projection per iteration: every copy goes into its cone's frame
(partially transposed for a PT cone) in a second such array, cut by cut; that
array is split into W contiguous shares, and each share gets one batched
``eigh``, clipping, and reconstruction of only the matrices that had a negative
eigenvalue, in place; then each cut's copies are transposed back.  Share 0 runs
in the calling thread, the others on W - 1 helper threads that live for one
``solve`` (numpy's ``eigh`` releases the GIL).  W is
``linalg.worker_count(copies)`` once the eigen work per iteration reaches
``THREAD_WORK``, else 1.  Every matrix meets the same operations whatever W
is, so the iterates do not depend on it.  When every objective block and the
target have an identically zero imaginary part, the iteration runs in float64
instead of complex128; the input alone decides this, no option selects it.
Returned matrices are complex128 either way.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    as_matrix,
    as_stack,
    bipartition,
    check_dims,
    dagger,
    group_sums,
    hermiticity_defect,
    matrix_from_json,
    matrix_to_json,
    partial_transpose,
    strict_object,
    worker_count,
)

PROBLEM_HERMITIAN_TOL = 1e-12
# ADMM penalty rho, over-relaxation weight alpha, and iterations between residual checkpoints
PENALTY = 1.0
OVER_RELAXATION = 1.6
CHECK_EVERY = 25
# The cone step shares its projection with helper threads only from this much work per iteration on:
# the sum of side**3 over the copies, a complex copy counted 4 times (its eigh costs about that much more).
# A hand-off costs about 0.3 ms per iteration; on two CPUs threads paid from about 130,000 complex and
# 600,000 real (README, "Layout").
THREAD_WORK = 600_000


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
    matrices: tuple[np.ndarray, ...]
    objective_value: float
    status: str  # optimal | max-iterations | infeasible-evidence
    residuals: dict
    iterations: int
    history: tuple[dict, ...]


# A cut is None for the plain PSD cone, else the (dims, parties) of a
# partial transposition; every helper below works on (count, side, side) stacks.


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2


def _transposed(mats: np.ndarray, cut) -> np.ndarray:
    return mats if cut is None else partial_transpose(mats, *cut)


def _in_frame(mats: np.ndarray, cut) -> np.ndarray:
    """The Hermitian parts of ``mats`` in the cone's frame, where the cone is the PSD cone."""
    return _sym(_transposed(mats, cut))


def _negative_parts(mats: np.ndarray, cut) -> np.ndarray:
    """Per matrix, how far it sits outside the cone: max(0, -lambda_min)."""
    w = np.linalg.eigvalsh(_in_frame(mats, cut))
    return np.maximum(0.0, -w[:, 0])


def _clip(h: np.ndarray) -> None:
    """Replace each Hermitian matrix of ``h`` by its Frobenius-nearest PSD matrix: clip negative eigenvalues."""
    w, v = np.linalg.eigh(h)
    neg = w[:, 0] < 0.0
    if neg.any():
        vn = v[neg]
        h[neg] = _sym((vn * np.maximum(w[neg], 0.0)[:, None, :]) @ dagger(vn))


class _Shares:
    """Runs :func:`_clip` on W contiguous shares of one stack, each call on the stack's current contents.

    Share 0 runs in the calling thread, share w > 0 on helper thread w, started here and stopped by
    :meth:`close`.  A call hands helper w its share with one release of its ``go`` lock and takes it
    back with one acquire of its ``done`` lock, so between calls every helper waits on ``go``.
    """

    def __init__(self, stack: np.ndarray, workers: int):
        bounds = [len(stack) * w // workers for w in range(workers + 1)]
        self.shares = [stack[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self.errors: list[BaseException | None] = [None] * workers
        self.locks = [(threading.Lock(), threading.Lock()) for _ in range(1, workers)]
        self.stopping = False
        self.threads: list[threading.Thread] = []
        for go, done in self.locks:
            go.acquire()
            done.acquire()
        try:
            for w in range(1, workers):
                thread = threading.Thread(target=self._helper, args=(w,))
                thread.start()
                self.threads.append(thread)
        except BaseException:
            self.close()
            raise

    def _helper(self, w: int) -> None:
        go, done = self.locks[w - 1]
        while True:
            go.acquire()
            if self.stopping:
                return
            try:
                _clip(self.shares[w])
            except BaseException as exc:  # handed to the caller of __call__, which raises it
                self.errors[w] = exc
            done.release()

    def __call__(self) -> None:
        for go, _ in self.locks:
            go.release()
        try:
            _clip(self.shares[0])
        finally:
            for _, done in self.locks:
                done.acquire()
        error = next((e for e in self.errors if e is not None), None)
        if error is not None:
            raise error

    def close(self) -> None:
        """Stop and join the helpers.  A helper holds its ``go`` lock from one call to the next; a free one
        belongs to a helper about to take it, which then sees ``stopping`` without a release from here."""
        self.stopping = True
        for go, _ in self.locks[: len(self.threads)]:
            if go.locked():
                go.release()
        for thread in self.threads:
            thread.join()


def _project(mats: np.ndarray, cut) -> np.ndarray:
    """Frobenius-nearest cone points: clip negative eigenvalues in the cone's frame."""
    h = _in_frame(mats, cut)
    _clip(h)
    # h is exactly Hermitian, and so is its partial transpose
    return _transposed(h, cut)


def _checked_hermitian(m) -> np.ndarray:
    m = as_matrix(m)
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_TOL:
        raise ValueError(f"projection needs Hermitian input (defect {defect:.3e})")
    return m


def project_psd(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues."""
    return _project(_checked_hermitian(m)[None], None)[0]


def project_ppt(m: np.ndarray, dims: Sequence[int], cut: int | Sequence[int]) -> np.ndarray:
    """Frobenius-nearest matrix whose partial transpose is PSD."""
    return _project(_checked_hermitian(m)[None], (check_dims(dims), cut))[0]


def _objective_value(c: np.ndarray, x: np.ndarray) -> float:
    return float(np.einsum("iab,iba->", c, x).real)


def _cone_violation(x: np.ndarray, owner: np.ndarray, groups) -> float:
    return max(float(np.max(_negative_parts(x[owner[idx]], cut))) for cut, idx in groups)


def solve(problem: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Run the splitting iteration until the residuals settle below tolerance.

    The returned matrices satisfy the completeness constraint to machine
    precision (they come out of the affine projection); the cone residual
    reports how far they sit outside the PSD / transposed-PSD cones.
    """
    opts = opts or SolveOptions()
    n = problem.n_blocks
    c = problem.objective
    f = problem.target
    if not (np.any(c.imag) or np.any(f.imag)):  # real data: iterate in float64
        c, f = np.ascontiguousarray(c.real), np.ascontiguousarray(f.real)
    # copies run block by block: block i owns one copy for the PSD cone and
    # one per PT cone; each distinct cut is projected as one group of copies
    cuts = [[None, *((cone.dims, cone.parties) for cone in cs)] for cs in problem.pt_cones]
    counts = np.array([len(cs) for cs in cuts])
    owner = np.repeat(np.arange(n), counts)
    starts = np.cumsum(counts) - counts
    by_cut: dict = {}
    for k, cut in enumerate(cut for cs in cuts for cut in cs):
        by_cut.setdefault(cut, []).append(k)
    groups = [(cut, np.array(idx)) for cut, idx in by_cut.items()]
    m = counts[:, None, None]
    inv_m_sum = sum(1.0 / mi for mi in counts.tolist())
    rho, alpha = PENALTY, OVER_RELAXATION

    evidence = _infeasibility_evidence(problem)
    if evidence is not None:
        x = _sym(np.repeat((f / n)[None], n, axis=0))
        return SdpSolution(
            matrices=tuple(xi.astype(complex) for xi in x),
            objective_value=_objective_value(c, x),
            status="infeasible-evidence",
            residuals={
                "affine": 0.0,
                "cone": _cone_violation(x, owner, groups),
                "gap_estimate": float("nan"),
                "evidence": evidence,
            },
            iterations=0,
            history=(),
        )

    z = np.repeat((f / n)[None], len(owner), axis=0)
    u = np.zeros_like(z)
    xhat = np.empty_like(z)
    work = np.empty_like(z)
    frame = np.empty_like(z)  # the cone step's stack: the copies cut by cut, each group at its slice
    ends = np.cumsum([len(idx) for _, idx in groups]).tolist()
    slices = [slice(end - len(idx), end) for (_, idx), end in zip(groups, ends)]
    shift = c / (rho * m)
    best = best_x = None
    history: list[dict] = []
    prev_obj = None

    eigen_work = len(owner) * problem.side**3 * (4 if np.iscomplexobj(c) else 1)
    workers = worker_count(len(owner)) if eigen_work >= THREAD_WORK else 1
    project = _Shares(frame, workers)
    try:
        for it in range(1, opts.max_iter + 1):
            checkpoint = it % CHECK_EVERY == 0 or it == opts.max_iter
            z_prev = z.copy() if checkpoint else None

            # affine step: weighted projection of the shifted consensus targets
            np.subtract(z, u, out=work)
            v = group_sums(work, starts, counts) / m + shift
            excess = (v.sum(axis=0) - f) / inv_m_sum
            x = _sym(v - excess / m)

            # cone steps with over-relaxation, one stacked projection of every copy
            np.take(x, owner, axis=0, out=xhat)
            xhat *= alpha
            np.multiply(z, 1 - alpha, out=work)
            xhat += work
            np.add(xhat, u, out=work)
            for (cut, idx), at in zip(groups, slices):
                frame[at] = _in_frame(work[idx], cut)
            project()
            for (cut, idx), at in zip(groups, slices):
                z[idx] = _transposed(frame[at], cut)
            u += xhat
            u -= z

            if not checkpoint:
                continue

            affine = float(np.max(np.abs(x.sum(axis=0) - f)))
            cone = _cone_violation(x, owner, groups)
            consensus = float(np.max(np.abs(x[owner] - z)))
            dual = rho * float(np.max(np.abs(z - z_prev)))
            obj = _objective_value(c, x)
            zbar = group_sums(z, starts, counts) / m
            gap = abs(obj - _objective_value(c, zbar))
            obj_change = abs(obj - prev_obj) if prev_obj is not None else float("inf")
            prev_obj = obj
            combined = max(affine, cone, consensus, dual, gap)

            if best is None or combined < best["combined"]:
                best = {"combined": combined, "affine": affine, "cone": cone, "gap_estimate": gap}
                best_x = x
            history.append({"iteration": it, **best})
            if combined <= opts.tol and obj_change <= opts.tol * max(1.0, abs(obj)):
                break
    finally:
        project.close()

    status = "optimal" if best["combined"] <= opts.tol else "max-iterations"
    if status != "optimal" and best["combined"] > np.sqrt(opts.tol) and len(history) >= 8:
        # a residual plateau far above tolerance is the strongest evidence
        # of an empty feasible set this first-order scheme can produce
        halfway = history[len(history) // 2]["combined"]
        if best["combined"] > 0.95 * halfway:
            status = "infeasible-evidence"
    return SdpSolution(
        matrices=tuple(xi.astype(complex) for xi in best_x),
        objective_value=_objective_value(c, best_x),
        status=status,
        residuals={k: best[k] for k in ("affine", "cone", "gap_estimate")},
        iterations=it,  # the last checkpoint: every run ends at one, it == max_iter being one
        history=tuple(history),
    )


def _infeasibility_evidence(problem: SdpProblem) -> str | None:
    """Necessary-condition screen: the target must lie in every shared cone."""
    target = problem.target[None]
    neg = _negative_parts(target, None)[0]
    if neg > 1e-9:
        return f"constraint target has negative eigenvalue {-neg:.3e}"
    shared = set(problem.pt_cones[0]).intersection(*problem.pt_cones[1:])
    for cone in shared:
        neg = _negative_parts(target, (cone.dims, cone.parties))[0]
        if neg > 1e-9:
            return (
                f"target transposed on {cone.parties} has negative eigenvalue {-neg:.3e}"
            )
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
    dims = check_dims(obj["dims"])
    target = matrix_from_json(obj["target"])
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
        matrices=tuple(matrix_from_json(m) for m in obj["matrices"]),
        objective_value=float(obj["objective_value"]),
        status=str(obj["status"]),
        residuals=dict(obj["residuals"]),
        iterations=int(obj["iterations"]),
        history=tuple(dict(h) for h in obj["history"]),
    )
