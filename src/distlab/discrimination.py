"""Distinguishability checks: perfect, unambiguous, global, and PPT-optimal.

The perfect criterion is the operational one a hit table makes testable: no
outcome may fire on two different states, and every state must be recovered
with certainty.  Unambiguous discrimination designates some outcomes as
inconclusive; the conclusive ones must never err and every state needs a
conclusive detection with positive probability.

PPT distinguishability is decided exactly (up to solver tolerance) by a
semidefinite program over PPT POVMs.  The dimension-independence harnesses
compare a state set against its zero-padded embedding: restricting a POVM of
the larger system reproduces the exact hit table, so distinguishability
cannot be gained by enlarging local dimensions.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .linalg import ALGEBRA_TOL, BLOCK_BYTES, DEFAULT_TOL, dagger, embed_matrix, matrix_from_json, matrix_to_json
from .linalg import restrict_matrix, strict_object, trace_products
from .povm import (
    Locc1Tree,
    Povm,
    canonical_cuts,
    check_kind,
    flatten_locc1,
    is_valid,
    ppt_min_eigenvalue,
    random_locc1,
    random_povm,
    random_ppt_povm,
    random_sep_povm,
    require_valid,
    restrict_locc1,
    restrict_povm,
    take_batch,
    tree_povm,
    verify_locc1,
    verify_povm,
)
from .states import StateSet, embed_set, mutually_orthogonal

if TYPE_CHECKING:  # the PPT functions import sdp when they run, so the other checks never load it
    from .sdp import SdpProblem, SdpSolution, SolveOptions

# a state set counts as PPT-distinguishable when the optimal average success
# probability reaches 1 - 1e-4
DISTINGUISHABLE_MARGIN = 1e-4

# the kinds local_global_fuzz samples (see _sample_of_kind): POVMs of four
# elements, and trees of two outcomes per family
FUZZ_KINDS = ("general", "ppt", "sep", "locc1")
FUZZ_ELEMENTS = 4
FUZZ_BRANCHING = 2


@dataclass(frozen=True)
class DiscriminationVerdict:
    """Hit-table analysis of one POVM against one state set."""

    mode: str  # perfect | unambiguous
    povm_kind: str
    passes: bool
    hit_table: np.ndarray  # p(j|i) = tr(M_j rho_i), row per state
    success_probability: float
    violations: tuple[dict, ...]
    tol: float


@dataclass(frozen=True)
class GlobalVerdict:
    distinguishable: bool
    witness: Povm | None


@dataclass(frozen=True)
class PptResult:
    optimum: float
    distinguishable: bool
    povm: Povm
    solution: SdpSolution


@dataclass(frozen=True)
class Theorem1Result:
    opt_small: float
    opt_big: float
    delta: float
    small: PptResult
    big: PptResult


@dataclass(frozen=True)
class HarnessReport:
    trials: int
    seed: int
    kinds: tuple[str, ...]
    dims: tuple[int, ...]
    sub_dims: tuple[int, ...]
    failures: tuple[dict, ...]

    @property
    def passes(self) -> bool:
        return not self.failures


def hit_table(povm: Povm, states: StateSet) -> np.ndarray:
    """p(j|i) = tr(M_j rho_i); rows are states, columns outcomes (one table per member of a batch)."""
    if povm.dims != states.dims:
        raise ValueError(f"POVM dims {povm.dims} do not match state dims {states.dims}")
    e = povm.elements
    table = trace_products(states.rhos, e.reshape((-1,) + e.shape[-2:])).real
    return np.moveaxis(table.reshape((len(states),) + e.shape[:-2]), 0, -2)


def _assign_hits(povm: Povm, states: StateSet, skip: Sequence[int], tol: float):
    """Hit table of POVMs already known to be valid (any batch axes lead), the hits
    above ``tol`` of each outcome outside ``skip``, the outcomes hitting several
    states, and each state's total probability from the outcomes that hit it alone,
    summed outcome by outcome.  Null outcomes are allowed in a POVM and skipped."""
    table = hit_table(povm, states)
    live = np.trace(povm.elements, axis1=-2, axis2=-1).real > tol
    live &= ~np.isin(np.arange(live.shape[-1]), list(skip))
    hits = (table > tol) & live[..., None, :]
    count = hits.sum(axis=-2)
    alone = np.where(hits & (count == 1)[..., None, :], table, 0.0)
    return table, hits, count > 1, np.cumsum(alone, axis=-1)[..., -1]


def check_perfect(povm: Povm, states: StateSet, tol: float = DEFAULT_TOL) -> DiscriminationVerdict:
    """Perfect discrimination: outcomes fire on at most one state, states are certain.

    An outcome is assigned to the single state it hits above ``tol``; every
    state must collect total assigned probability 1 within ``tol``.
    """
    require_valid(povm, tol)
    table, hits, ambiguous, totals = _assign_hits(povm, states, (), tol)
    violations = _violations(hits, ambiguous, "outcome-hits-multiple-states")
    for i in np.flatnonzero(np.abs(totals - 1.0) > tol).tolist():
        violations.append({"kind": "state-not-identified", "state": i, "probability": float(totals[i])})
    return DiscriminationVerdict(
        mode="perfect",
        povm_kind=povm.kind,
        passes=not violations,
        hit_table=table,
        success_probability=float(np.mean(totals)),
        violations=tuple(violations),
        tol=tol,
    )


def check_unambiguous(
    povm: Povm,
    states: StateSet,
    inconclusive: Iterable[int] = (),
    tol: float = DEFAULT_TOL,
) -> DiscriminationVerdict:
    """Unambiguous discrimination: conclusive outcomes never err.

    Every conclusive outcome may hit at most one state and every state needs
    conclusive detection probability above ``tol``; the reported success
    probability is the worst conclusive probability over the states.  Each
    index in ``inconclusive`` must name an outcome of ``povm``.
    """
    inconclusive = set(int(j) for j in inconclusive)
    for j in sorted(inconclusive):
        if not 0 <= j < len(povm):
            raise ValueError(f"inconclusive outcome {j} is not an outcome of a {len(povm)}-outcome POVM")
    if not set(range(len(povm))) - inconclusive:
        raise ValueError("at least one outcome must be conclusive")
    require_valid(povm, tol)
    table, hits, ambiguous, totals = _assign_hits(povm, states, sorted(inconclusive), tol)
    violations = _violations(hits, ambiguous, "conclusive-outcome-ambiguous")
    for i in np.flatnonzero(totals <= tol).tolist():
        violations.append({"kind": "state-never-detected", "state": i, "probability": float(totals[i])})
    return DiscriminationVerdict(
        mode="unambiguous",
        povm_kind=povm.kind,
        passes=not violations,
        hit_table=table,
        success_probability=float(np.min(totals)),
        violations=tuple(violations),
        tol=tol,
    )


def _violations(hits: np.ndarray, ambiguous: np.ndarray, kind: str) -> list[dict]:
    """One ``kind`` violation per outcome of one POVM hitting several states, naming them."""
    return [
        {"kind": kind, "outcome": j, "states": np.flatnonzero(hits[:, j]).tolist()}
        for j in np.flatnonzero(ambiguous).tolist()
    ]


def global_distinguishable(states: StateSet, tol: float = DEFAULT_TOL) -> GlobalVerdict:
    """Orthogonality decides global distinguishability; orthogonal sets get a witness.

    The witness measures the support projector of each state plus the
    complement of their joint support.
    """
    if not mutually_orthogonal(states, tol):
        return GlobalVerdict(False, None)
    w, v = np.linalg.eigh(states.rhos)
    keep = v * (w > max(tol, 1e-12))[:, None, :]  # zero the eigenvectors outside each support
    p = keep @ dagger(keep)
    projectors = (p + dagger(p)) / 2
    complement = np.eye(states.rhos.shape[-1]) - projectors.sum(axis=0)
    witness = Povm(np.concatenate([projectors, complement[None]]), states.dims, kind="projective")
    return GlobalVerdict(True, witness)


def ppt_discrimination_problem(states: StateSet) -> SdpProblem:
    """Average-success-probability SDP over POVMs PPT on every cut."""
    from .sdp import PtCone, SdpProblem

    n = len(states)
    cones = tuple(PtCone(states.dims, c) for c in canonical_cuts(states.dims))
    return SdpProblem(states.rhos / n, np.eye(states.rhos.shape[-1]), (cones,) * n)


def ppt_distinguishability(states: StateSet, opts: SolveOptions | None = None) -> PptResult:
    """Maximize the average success probability over PPT POVMs.

    The returned POVM is the optimizer; ``distinguishable`` holds when the
    optimum reaches 1 within the decision margin and the solver converged.
    """
    from .sdp import SolveOptions, solve

    problem = ppt_discrimination_problem(states)
    solution = solve(problem, opts or SolveOptions(tol=1e-7))
    povm = Povm(solution.matrices, states.dims, kind="ppt")
    return PptResult(
        optimum=solution.objective_value,
        distinguishable=_distinguishable(solution),
        povm=povm,
        solution=solution,
    )


def _distinguishable(solution: SdpSolution) -> bool:
    return solution.status == "optimal" and solution.objective_value >= 1 - DISTINGUISHABLE_MARGIN


def theorem1_trace_identity(states: StateSet, povm_big: Povm, sub_dims: Sequence[int]):
    """Max residual between tr(restrict(M_j) rho_i) and tr(M_j embed(rho_i)), a float
    (for a batch of POVMs, an array over its members).

    Both sides are computed through independent routes; they agree exactly in
    exact arithmetic because the embedded state is supported on the in-range
    block.
    """
    sub_dims = tuple(int(d) for d in sub_dims)
    if states.dims != sub_dims:
        raise ValueError(f"states live in {states.dims}, expected {sub_dims}")
    e = povm_big.elements
    small = restrict_matrix(e, povm_big.dims, sub_dims)
    lhs = trace_products(states.rhos, small.reshape((-1,) + small.shape[-2:]))
    rhs = trace_products(embed_matrix(states.rhos, sub_dims, povm_big.dims), e.reshape((-1,) + e.shape[-2:]))
    worst = np.max(np.abs(lhs - rhs).reshape((len(states),) + e.shape[:-3] + (-1,)), axis=(0, -1))
    return worst if worst.ndim else float(worst)


def _transfer(small: PptResult, embedded: StateSet, tol: float) -> PptResult:
    """Pad the small optimum into the dims of ``embedded`` and verify it again there.

    Element i becomes E(M_i) + (I - E(I))/n.  Its completeness residual, its
    eigenvalues, its partial transposes on every cut and its objective on the
    embedded states are all computed in the enlarged space; the status is the
    small one, downgraded from optimal when either enlarged residual exceeds ``tol``.
    """
    from .sdp import SdpSolution

    n, dims, new_dims = len(embedded), small.povm.dims, embedded.dims
    pi = embed_matrix(np.eye(small.povm.side), dims, new_dims)
    elements = embed_matrix(small.povm.elements, dims, new_dims) + (np.eye(len(pi)) - pi) / n
    povm = Povm(elements, new_dims, kind="ppt")
    report = verify_povm(povm)
    cuts = canonical_cuts(new_dims)
    worst = min(min(report.element_min_eigs), ppt_min_eigenvalue(povm, cuts) if cuts else np.inf)
    residuals = {
        "affine": report.completeness_residual,
        "cone": max(0.0, -worst),
        "gap_estimate": small.solution.residuals["gap_estimate"],
    }
    status = small.solution.status
    if status == "optimal" and max(residuals["affine"], residuals["cone"]) > tol:
        status = "max-iterations"
    objective = float(np.einsum("iab,iba->", embedded.rhos, elements).real) / n
    solution = SdpSolution(tuple(elements), objective, status, residuals, iterations=0, history=())
    return PptResult(objective, _distinguishable(solution), povm, solution)


def theorem1_ppt_invariance(
    states: StateSet,
    new_dims: Sequence[int],
    opts: SolveOptions | None = None,
) -> Theorem1Result:
    """PPT optimum before and after embedding; the two must agree.

    The optimum cannot grow (restriction maps the larger feasible set into
    the smaller one preserving the objective) and cannot shrink (padding an
    optimal POVM with the complement projector is feasible above).

    Only the small problem is solved.  The enlarged result is that optimum
    transferred, M_i -> E(M_i) + (I - Pi)/n with Pi = E(I), and checked again
    in the enlarged space: completeness, element eigenvalues, partial
    transposes on every cut of ``new_dims`` and the objective on the embedded
    states.  The transfer is what a second solve would return: that solve
    starts at I/n = E(I_small/n) + (I - Pi)/n, the block (I - Pi)/n is real,
    diagonal, PSD and fixed by every partial transpose, and E commutes with
    partial transposition on every cut, so each of its iterates is the padded
    small iterate.  Hence ``big.solution`` reports ``iterations == 0``, an
    empty history, the enlarged ``affine`` and ``cone`` residuals and the
    small run's ``gap_estimate``; its status is the small status, downgraded
    from ``optimal`` to ``max-iterations`` when an enlarged residual exceeds
    the solve tolerance.
    """
    from .sdp import SolveOptions

    opts = opts or SolveOptions(tol=1e-7)
    embedded = embed_set(states, new_dims)  # rejects bad new_dims before the solve
    small = ppt_distinguishability(states, opts=opts)
    big = _transfer(small, embedded, opts.tol)
    return Theorem1Result(
        opt_small=small.optimum,
        opt_big=big.optimum,
        delta=big.optimum - small.optimum,
        small=small,
        big=big,
    )


def _trial_seed(seed: int, kind_index: int, offset: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(kind_index, offset))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _sample_of_kind(kind: str, dims, seed):
    """One sample of ``kind`` for an int seed, a batch of them for a sequence of seeds."""
    if kind == "general":
        return random_povm(dims, FUZZ_ELEMENTS, seed)
    if kind == "ppt":
        return random_ppt_povm(dims, FUZZ_ELEMENTS, seed)
    if kind == "sep":
        return random_sep_povm(dims, FUZZ_ELEMENTS, seed)
    if kind == "locc1":
        return random_locc1(dims, FUZZ_BRANCHING, seed)
    raise ValueError(f"no sampler for kind {kind!r}")


def _sample_bytes(kind: str, dims: tuple[int, ...]) -> int:
    """Bytes of the POVM elements of one sample of ``kind`` on ``dims`` (a tree's once flattened)."""
    outcomes = FUZZ_BRANCHING ** len(dims) if kind == "locc1" else FUZZ_ELEMENTS
    return outcomes * int(np.prod(dims)) ** 2 * np.dtype(complex).itemsize


def _perfect_passes(povm: Povm, states: StateSet, tol: float) -> np.ndarray:
    """Per member of a batch of valid POVMs: whether it passes :func:`check_perfect` on ``states``."""
    _, _, ambiguous, totals = _assign_hits(povm, states, (), tol)
    return ~(ambiguous.any(axis=-1) | (np.abs(totals - 1.0) > tol).any(axis=-1))


def _fuzz_block(big: Povm | Locc1Tree, kind: str, states: StateSet, embedded: StateSet, tol: float) -> dict:
    """The first failed check of each trial in a batch of samples, as ``{position: (check, residual)}``.

    Each check runs once for the block, on the trials that passed every check
    before it in one trial's chain: the restriction's kind checks, the trace
    identity, the two perfect-discrimination verdicts.  The sample's own
    validity (its families, then its POVM, decided by :func:`verify_locc1` and
    :func:`is_valid`) is an error rather than a failure, raised for the first
    trial whose chain reaches an invalid sample.
    """
    tree = isinstance(big, Locc1Tree)
    checks, small = check_kind((restrict_locc1 if tree else restrict_povm)(big, states.dims), kind, tol)
    found: dict[int, tuple[str, float]] = {}
    for name, residual, ok in checks:
        for p in np.flatnonzero(~ok).tolist():
            found.setdefault(p, (name, float(residual[p])))
    alive = np.ones(len(checks[0][2]), dtype=bool)  # the trials that passed their kind checks
    alive[list(found)] = False
    if not alive.any():
        return found
    positions = np.flatnonzero(alive)
    sample = take_batch(big, alive)
    families = verify_locc1(sample, tol) if tree else np.ones(len(positions), dtype=bool)
    flat = tree_povm(sample) if tree else sample
    residual = np.full(len(positions), np.nan)  # the trace identity needs complete families
    if families.any():
        residual[families] = theorem1_trace_identity(states, take_batch(flat, families), states.dims)
    broken = residual > ALGEBRA_TOL
    for p, value in zip(positions[broken].tolist(), residual[broken].tolist()):
        found[p] = ("trace-identity", value)
    valid = families & is_valid(flat, tol)
    if not np.all(valid | broken):  # raise the error a lone trial on the first invalid sample raises
        first = take_batch(big, positions[~(valid | broken)][0])
        require_valid(flatten_locc1(first, tol) if tree else first, tol)
    keep = valid & ~broken
    alive[positions[~keep]] = False
    if keep.any():
        small, flat = take_batch(small, alive), take_batch(flat, keep)
        gained = _perfect_passes(small, states, tol) & ~_perfect_passes(flat, embedded, tol)
        for p in positions[keep][gained].tolist():
            found[p] = ("discrimination-gained", float("nan"))
    return found


def _worker_count(blocks: int) -> int:
    """Processes that run ``blocks`` fuzz blocks: one per CPU this process may run on, at most one per block.

    One where the platform has no ``os.fork`` or ``os.sched_getaffinity``, or where another thread runs:
    a forked child would hold that thread's locks in whatever state the fork caught them.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), blocks))


def _in_workers(run_block, blocks: int) -> dict:
    """``{g: run_block(g)}`` over the blocks g < ``blocks`` whose result is not empty.

    The blocks run in W = :func:`_worker_count` processes, process w running the blocks g ≡ w (mod W):
    share 0 runs in the calling process, each other share in a child forked for it, which pickles its
    results, or its first exception with its g, into a pipe and leaves by ``os._exit`` (so it never flushes
    the inherited stdio or runs exit handlers).  The exception raised is that of the smallest failing g, the
    one a loop over the blocks raises first.  Every child is killed if still running and reaped before this
    returns or raises; a child that ends without a result raises a ``RuntimeError`` naming its exit status.
    With W = 1 nothing is forked.
    """
    workers = _worker_count(blocks)

    def share(w):  # (results, None), or (results so far, (g, exception)) at the first block that raised
        results = {}
        for g in range(w, blocks, workers):
            try:
                found = run_block(g)
            except Exception as exc:
                return results, (g, exc)
            if found:
                results[g] = found
        return results, None

    pipes: dict[int, int | None] = {}  # child pid -> read end of its pipe (None once closed), until reaped
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child: never returns into the caller
                code = 1
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(share(w), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            pipes[pid] = read
        results, error = share(0)
        errors = [error] if error else []
        for pid in list(pipes):
            with os.fdopen(pipes[pid], "rb") as pipe:
                pipes[pid] = None
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pipes[pid]
            if status:
                how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
                raise RuntimeError(f"fuzz worker process {pid} {how} without a result")
            found, error = pickle.loads(data)  # written by the child above
            results.update(found)
            errors += [error] if error else []
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        return results
    finally:
        if pipes:  # only after an error: the signal module is loaded here, not on every import
            from signal import SIGKILL

            for pid, read in pipes.items():
                os.kill(pid, SIGKILL)
                if read is not None:
                    os.close(read)
                os.waitpid(pid, 0)


def local_global_fuzz(
    states: StateSet,
    kinds: Sequence[str],
    new_dims: Sequence[int],
    trials: int,
    seed: int,
    tol: float = DEFAULT_TOL,
) -> HarnessReport:
    """Sampled evidence for the local-global indistinguishability property.

    Each trial draws a POVM (or measurement tree) of the given kind on the
    enlarged system, restricts it, and checks that (a) the restriction keeps
    its kind, (b) the hit-table trace identity holds to 1e-12, and (c) the
    restriction never discriminates the set when the original fails to
    discriminate the embedded set.  Failures are data, not exceptions; each
    trial records its first failed check.  The kinds are those of
    ``FUZZ_KINDS``, each at most once, and are checked before any trial.

    Trials run in blocks: a block holds as many trials as it takes for their
    POVM elements to fill ``BLOCK_BYTES``.  Each trial draws from its own
    seed, so its sample does not depend on the blocks; the block's samples
    are drawn in one sampler call, which normalizes them as one batch, and
    every check runs once for the whole block.

    The blocks, numbered kind by kind and then by first trial, run in up to
    W processes on POSIX (see :func:`_in_workers`), W the number of CPUs
    this process may run on: block g runs in process g mod W, the calling
    process and W - 1 forked children.  Since each block depends only on its
    seeds, the report, and the error raised for an invalid sample, are those
    of a one-process run.  There is no option; on Python 3.12 and later with
    a multi-threaded BLAS, the interpreter may warn (``DeprecationWarning``)
    that it forks a process that has threads.
    """
    new_dims = tuple(int(d) for d in new_dims)
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in FUZZ_KINDS:
            raise ValueError(f"no sampler for kind {kind!r}; the fuzz samples {', '.join(FUZZ_KINDS)}")
    if len(set(kinds)) != len(kinds):
        raise ValueError(f"each kind may be fuzzed once, got {', '.join(kinds)}")
    if "ppt" in kinds and len(new_dims) < 2:
        raise ValueError("PPT needs at least two parties")
    embedded = embed_set(states, new_dims)
    sizes = [-(-BLOCK_BYTES // _sample_bytes(kind, new_dims)) for kind in kinds]  # trials per block
    counts = [-(-trials // size) for size in sizes]  # blocks per kind

    def block(g):  # the failure records of block g
        kind_index = 0
        while g >= counts[kind_index]:
            g -= counts[kind_index]
            kind_index += 1
        kind, size = kinds[kind_index], sizes[kind_index]
        start = g * size
        seeds = [_trial_seed(seed, kind_index, offset) for offset in range(start, min(start + size, trials))]
        found = _fuzz_block(_sample_of_kind(kind, new_dims, seeds), kind, states, embedded, tol)
        return [
            {"seed_offset": start + position, "kind": kind, "check": check, "residual": residual}
            for position, (check, residual) in found.items()
        ]

    failures = [f for found in _in_workers(block, sum(counts)).values() for f in found]
    return HarnessReport(
        trials=trials,
        seed=seed,
        kinds=kinds,
        dims=new_dims,
        sub_dims=states.dims,
        failures=tuple(sorted(failures, key=lambda f: (f["kind"], f["seed_offset"]))),
    )


def verdict_to_json(v: DiscriminationVerdict) -> dict:
    return {
        "mode": v.mode,
        "povm_kind": v.povm_kind,
        "passes": v.passes,
        "hit_table": matrix_to_json(v.hit_table.astype(complex)),
        "success_probability": v.success_probability,
        "violations": [dict(x) for x in v.violations],
        "tol": v.tol,
    }


def verdict_from_json(obj: dict) -> DiscriminationVerdict:
    strict_object(
        obj, "verdict", ("mode", "povm_kind", "passes", "hit_table", "success_probability", "violations", "tol")
    )
    return DiscriminationVerdict(
        mode=str(obj["mode"]),
        povm_kind=str(obj["povm_kind"]),
        passes=bool(obj["passes"]),
        hit_table=matrix_from_json(obj["hit_table"]).real,
        success_probability=float(obj["success_probability"]),
        violations=tuple(dict(x) for x in obj["violations"]),
        tol=float(obj["tol"]),
    )


def harness_to_json(r: HarnessReport) -> dict:
    return {
        "trials": r.trials,
        "seed": r.seed,
        "kinds": list(r.kinds),
        "dims": list(r.dims),
        "sub_dims": list(r.sub_dims),
        "failures": [dict(f) for f in r.failures],
        "passes": r.passes,
    }


def harness_from_json(obj: dict) -> HarnessReport:
    strict_object(obj, "harness", ("trials", "seed", "kinds", "dims", "sub_dims", "failures", "passes"))
    report = HarnessReport(
        trials=int(obj["trials"]),
        seed=int(obj["seed"]),
        kinds=tuple(obj["kinds"]),
        dims=tuple(obj["dims"]),
        sub_dims=tuple(obj["sub_dims"]),
        failures=tuple(dict(f) for f in obj["failures"]),
    )
    if report.passes != bool(obj["passes"]):
        raise ValueError("harness pass flag disagrees with failure list")
    return report
