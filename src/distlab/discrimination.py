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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import ALGEBRA_TOL, DEFAULT_TOL, dagger, embed_matrix, matrix_from_json, matrix_to_json
from .linalg import restrict_matrix, strict_object, trace_products
from .povm import (
    Locc1Tree,
    Povm,
    canonical_cuts,
    check_kind,
    flatten_locc1,
    ppt_min_eigenvalue,
    random_locc1,
    random_povm,
    random_ppt_povm,
    random_sep_povm,
    require_valid,
    restrict_locc1,
    restrict_povm,
    verify_povm,
)
from .sdp import PtCone, SdpProblem, SdpSolution, SolveOptions, solve
from .states import StateSet, embed_set, mutually_orthogonal

# a state set counts as PPT-distinguishable when the optimal average success
# probability reaches 1 - 1e-4
DISTINGUISHABLE_MARGIN = 1e-4


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
    """p(j|i) = tr(M_j rho_i); rows are states, columns outcomes."""
    if povm.dims != states.dims:
        raise ValueError(f"POVM dims {povm.dims} do not match state dims {states.dims}")
    return trace_products(states.rhos, povm.elements).real


def _assign_hits(povm: Povm, states: StateSet, skip: set[int], ambiguous: str, tol: float):
    """Hit table of a POVM already known to be valid, and each state's total probability
    from the outcomes outside ``skip`` that hit it alone; an outcome hitting several
    states is an ``ambiguous`` violation.  Null outcomes are allowed in a POVM and skipped."""
    table = hit_table(povm, states)
    live = np.trace(povm.elements, axis1=1, axis2=2).real > tol
    totals = np.zeros(table.shape[0])
    violations: list[dict] = []
    for j in np.flatnonzero(live).tolist():
        if j in skip:
            continue
        hits = [i for i in range(table.shape[0]) if table[i, j] > tol]
        if len(hits) > 1:
            violations.append({"kind": ambiguous, "outcome": j, "states": hits})
        elif len(hits) == 1:
            totals[hits[0]] += table[hits[0], j]
    return table, totals, violations


def check_perfect(povm: Povm, states: StateSet, tol: float = DEFAULT_TOL) -> DiscriminationVerdict:
    """Perfect discrimination: outcomes fire on at most one state, states are certain.

    An outcome is assigned to the single state it hits above ``tol``; every
    state must collect total assigned probability 1 within ``tol``.
    """
    require_valid(povm, tol)
    return _perfect(povm, states, tol)


def _perfect(povm: Povm, states: StateSet, tol: float) -> DiscriminationVerdict:
    """:func:`check_perfect` of a POVM already known to be valid."""
    table, totals, violations = _assign_hits(povm, states, set(), "outcome-hits-multiple-states", tol)
    for i, total in enumerate(totals):
        if abs(total - 1.0) > tol:
            violations.append({"kind": "state-not-identified", "state": i, "probability": float(total)})
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
    probability is the worst conclusive probability over the states.
    """
    inconclusive = set(int(j) for j in inconclusive)
    if not set(range(len(povm))) - inconclusive:
        raise ValueError("at least one outcome must be conclusive")
    require_valid(povm, tol)
    table, totals, violations = _assign_hits(povm, states, inconclusive, "conclusive-outcome-ambiguous", tol)
    for i, total in enumerate(totals):
        if total <= tol:
            violations.append({"kind": "state-never-detected", "state": i, "probability": float(total)})
    return DiscriminationVerdict(
        mode="unambiguous",
        povm_kind=povm.kind,
        passes=not violations,
        hit_table=table,
        success_probability=float(np.min(totals)),
        violations=tuple(violations),
        tol=tol,
    )


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
    n = len(states)
    cones = tuple(PtCone(states.dims, c) for c in canonical_cuts(states.dims))
    return SdpProblem(states.rhos / n, np.eye(states.rhos.shape[-1]), (cones,) * n)


def ppt_distinguishability(states: StateSet, opts: SolveOptions | None = None) -> PptResult:
    """Maximize the average success probability over PPT POVMs.

    The returned POVM is the optimizer; ``distinguishable`` holds when the
    optimum reaches 1 within the decision margin and the solver converged.
    """
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


def theorem1_trace_identity(states: StateSet, povm_big: Povm, sub_dims: Sequence[int]) -> float:
    """Max residual between tr(restrict(M_j) rho_i) and tr(M_j embed(rho_i)).

    Both sides are computed through independent routes; they agree exactly in
    exact arithmetic because the embedded state is supported on the in-range
    block.
    """
    sub_dims = tuple(int(d) for d in sub_dims)
    if states.dims != sub_dims:
        raise ValueError(f"states live in {states.dims}, expected {sub_dims}")
    lhs = trace_products(states.rhos, restrict_matrix(povm_big.elements, povm_big.dims, sub_dims))
    rhs = trace_products(embed_matrix(states.rhos, sub_dims, povm_big.dims), povm_big.elements)
    return float(np.max(np.abs(lhs - rhs)))


def _transfer(small: PptResult, embedded: StateSet, tol: float) -> PptResult:
    """Pad the small optimum into the dims of ``embedded`` and verify it again there.

    Element i becomes E(M_i) + (I - E(I))/n.  Its completeness residual, its
    eigenvalues, its partial transposes on every cut and its objective on the
    embedded states are all computed in the enlarged space; the status is the
    small one, downgraded from optimal when either enlarged residual exceeds ``tol``.
    """
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


def _sample_of_kind(kind: str, dims, seed: int):
    if kind == "general":
        return random_povm(dims, 4, seed)
    if kind == "ppt":
        return random_ppt_povm(dims, 4, seed)
    if kind == "sep":
        return random_sep_povm(dims, 4, seed)
    if kind == "locc1":
        return random_locc1(dims, 2, seed)
    raise ValueError(f"no sampler for kind {kind!r}")


def _first_failure(obj, kind: str, states: StateSet, embedded: StateSet, tol: float):
    """One fuzz trial on the sample ``obj``: its first failed check as ``(check, residual)``, or None."""
    tree = isinstance(obj, Locc1Tree)
    checks, small_povm = check_kind((restrict_locc1 if tree else restrict_povm)(obj, states.dims), kind, tol)
    failed = [(name, residual) for name, residual, ok in checks if not ok]
    if failed:
        return failed[0]
    big_povm = flatten_locc1(obj, tol) if tree else obj
    residual = theorem1_trace_identity(states, big_povm, states.dims)
    if residual > ALGEBRA_TOL:
        return "trace-identity", residual
    big_verdict = check_perfect(big_povm, embedded, tol)  # the sample's one validity check
    if _perfect(small_povm, states, tol).passes and not big_verdict.passes:
        return "discrimination-gained", float("nan")
    return None


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
    discriminate the embedded set.  Failures are data, not exceptions.
    """
    new_dims = tuple(int(d) for d in new_dims)
    embedded = embed_set(states, new_dims)
    failures: list[dict] = []
    for kind_index, kind in enumerate(kinds):
        for offset in range(trials):
            obj = _sample_of_kind(kind, new_dims, _trial_seed(seed, kind_index, offset))
            failed = _first_failure(obj, kind, states, embedded, tol)
            if failed is not None:
                failures.append({"seed_offset": offset, "kind": kind, "check": failed[0], "residual": failed[1]})
    return HarnessReport(
        trials=trials,
        seed=seed,
        kinds=tuple(kinds),
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
