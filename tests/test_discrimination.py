"""Tests for the distinguishability semantics layer."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import bell_pair_three_party, maximally_mixed
from fuzz_reference import reference_fuzz

import distlab.discrimination
import distlab.linalg
from distlab.cli import _pieces
from distlab.linalg import BLOCK_BYTES
from distlab.povm import Locc1Tree, Povm, random_povm, verify_povm
from distlab.sdp import SolveOptions
from distlab.states import (
    StateSet,
    bell_states,
    domino_states,
    embed_set,
    generalized_bell_states,
    pure_state,
)
from distlab.discrimination import (
    PptResult,
    check_perfect,
    check_unambiguous,
    global_distinguishable,
    harness_from_json,
    harness_to_json,
    hit_table,
    local_global_fuzz,
    ppt_distinguishability,
    theorem1_ppt_invariance,
    theorem1_trace_identity,
    verdict_from_json,
    verdict_to_json,
)

KET01 = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


def computational_povm(d):
    return Povm([np.diag([float(i == j) for i in range(d)]).astype(complex) for j in range(d)], (d,))


def idp_povm(u, w):
    """Textbook 3-outcome unambiguous POVM for two pure state vectors."""
    s = abs(np.vdot(u, w))
    a = 1.0 / (1.0 + s)

    def perp(v):
        # second left singular vector of the rank-1 projector spans the complement
        basis = np.linalg.svd(np.outer(v, v.conj()))[0]
        return basis[:, 1]

    e_u = a * np.outer(perp(w), perp(w).conj())
    e_w = a * np.outer(perp(u), perp(u).conj())
    e_inc = np.eye(len(u)) - e_u - e_w
    return Povm([e_u, e_w, e_inc], (len(u),))


def test_check_perfect_computational():
    povm = Povm(KET01, (2,))
    states = StateSet([pure_state([1, 0], (2,)), pure_state([0, 1], (2,))])
    verdict = check_perfect(povm, states)
    assert verdict.passes
    assert verdict.success_probability == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(verdict.hit_table - np.eye(2))) <= 1e-12


def test_check_perfect_identity_fails_on_two_states():
    povm = Povm([np.eye(2)], (2,))
    states = StateSet([pure_state([1, 0], (2,)), pure_state([0, 1], (2,))])
    verdict = check_perfect(povm, states)
    assert not verdict.passes
    assert any(v["kind"] == "outcome-hits-multiple-states" for v in verdict.violations)


def test_check_perfect_domino_projectors():
    dominoes = domino_states()
    projectors = Povm([s.rho for s in dominoes], (3, 3), kind="projective")
    verdict = check_perfect(projectors, dominoes, tol=1e-9)
    assert verdict.passes
    # the hit table is the Gram matrix of the orthonormal product basis
    assert np.max(np.abs(verdict.hit_table - np.eye(9))) <= 1e-12


def test_check_perfect_dimension_mismatch():
    povm = Povm([np.eye(2)], (2,))
    states = StateSet([pure_state([1, 0, 0], (3,))])
    with pytest.raises(ValueError):
        check_perfect(povm, states)


def test_check_perfect_rejects_invalid_povm():
    bad = Povm([0.6 * np.eye(2), 0.6 * np.eye(2)], (2,))
    states = StateSet([pure_state([1, 0], (2,))])
    with pytest.raises(ValueError):
        check_perfect(bad, states)


def test_check_perfect_monotone_in_tol():
    dominoes = domino_states()
    projectors = Povm([s.rho for s in dominoes], (3, 3))
    for tol in (1e-12, 1e-9, 1e-6):
        assert check_perfect(projectors, dominoes, tol=tol).passes


def test_hit_table_rows_sum_to_one():
    rng_states = StateSet(
        [pure_state([1, 0, 0, 1], (2, 2)), maximally_mixed((2, 2))]
    )
    povm = random_povm((2, 2), 5, seed=3)
    table = hit_table(povm, rng_states)
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-9


def test_check_unambiguous_perfect_is_unambiguous():
    povm = Povm(KET01, (2,))
    states = StateSet([pure_state([1, 0], (2,)), pure_state([0, 1], (2,))])
    verdict = check_unambiguous(povm, states, inconclusive=())
    assert verdict.passes
    assert verdict.success_probability == pytest.approx(1.0, abs=1e-12)


def test_check_unambiguous_requires_a_conclusive_outcome():
    povm = Povm([np.eye(2)], (2,))
    states = StateSet([pure_state([1, 0], (2,)), pure_state([1, 1], (2,))])
    with pytest.raises(ValueError):
        check_unambiguous(povm, states, inconclusive={0})


@pytest.mark.parametrize("index", [7, -1, 2])
def test_check_unambiguous_rejects_an_inconclusive_index_that_is_no_outcome(index):
    p = bell_states().rhos[0]
    povm = Povm([p, np.eye(4) - p], (2, 2))
    states = bell_states().subset([0, 3])
    with pytest.raises(ValueError, match=f"inconclusive outcome {index} "):
        check_unambiguous(povm, states, inconclusive=[index])
    with pytest.raises(ValueError, match=f"inconclusive outcome {index} "):
        check_unambiguous(povm, states, inconclusive=[1, index])


def test_check_unambiguous_fails_without_detection():
    # conclusive outcome is null, everything lands in the inconclusive one
    povm = Povm([np.zeros((2, 2), dtype=complex), np.eye(2)], (2,))
    states = StateSet([pure_state([1, 0], (2,)), pure_state([1, 1], (2,))])
    verdict = check_unambiguous(povm, states, inconclusive={1})
    assert not verdict.passes
    assert all(v["kind"] == "state-never-detected" for v in verdict.violations)


def test_check_unambiguous_idp_half_overlap():
    # inner-product overlap 1/2: optimal conclusive probability 1 - s = 1/2
    u = np.array([1, 0], dtype=complex)
    w = np.array([0.5, np.sqrt(3) / 2], dtype=complex)
    povm = idp_povm(u, w)
    assert verify_povm(povm, 1e-9).passed
    states = StateSet([pure_state(u, (2,)), pure_state(w, (2,))])
    verdict = check_unambiguous(povm, states, inconclusive={2})
    assert verdict.passes
    assert verdict.success_probability == pytest.approx(0.5, abs=1e-12)


def test_check_unambiguous_idp_zero_plus():
    # |0> vs |+>: s = 1/sqrt(2), optimal conclusive probability 1 - 1/sqrt(2)
    u = np.array([1, 0], dtype=complex)
    w = np.array([1, 1], dtype=complex) / np.sqrt(2)
    povm = idp_povm(u, w)
    assert verify_povm(povm, 1e-9).passed
    states = StateSet([pure_state(u, (2,)), pure_state(w, (2,))])
    verdict = check_unambiguous(povm, states, inconclusive={2})
    assert verdict.passes
    assert verdict.success_probability == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-12)


def test_global_distinguishable_bell_states():
    verdict = global_distinguishable(bell_states())
    assert verdict.distinguishable
    assert len(verdict.witness) == 5  # four projectors plus a null complement
    assert check_perfect(verdict.witness, bell_states()).passes


def test_global_distinguishable_three_bell_states():
    three = bell_states().subset([0, 1, 2])
    verdict = global_distinguishable(three)
    assert verdict.distinguishable
    # complement projector catches the unused Bell direction
    assert np.trace(verdict.witness.elements[-1]).real == pytest.approx(1.0, abs=1e-9)
    assert check_perfect(verdict.witness, three).passes


def test_global_distinguishable_rejects_overlap():
    overlap = StateSet([pure_state([1, 0], (2,)), pure_state([1, 1], (2,))])
    verdict = global_distinguishable(overlap)
    assert not verdict.distinguishable
    assert verdict.witness is None


def test_ppt_two_bell_states_distinguishable():
    two = bell_states().subset([0, 2])
    result = ppt_distinguishability(two)
    assert result.solution.status == "optimal"
    # frozen from an independent convex-programming run: optimum 1
    assert result.optimum == pytest.approx(1.0, abs=1e-4)
    assert result.distinguishable
    assert verify_povm(result.povm, 1e-6).passed


def test_ppt_three_bell_states_value_two_thirds():
    three = bell_states().subset([0, 1, 2])
    result = ppt_distinguishability(three)
    # frozen from an independent convex-programming run: optimum 2/3
    assert result.optimum == pytest.approx(2 / 3, abs=1e-3)
    assert not result.distinguishable
    from distlab.povm import is_ppt_povm

    assert is_ppt_povm(result.povm, tol=1e-6)


def test_ppt_single_state_trivial():
    single = StateSet([pure_state([1, 0, 0, 1], (2, 2))])
    result = ppt_distinguishability(single)
    assert result.optimum == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(result.povm.elements[0] - np.eye(4))) <= 1e-5


def test_ppt_optimum_invariant_under_relabeling():
    three = bell_states().subset([0, 1, 2])
    permuted = three.subset([2, 0, 1])
    a = ppt_distinguishability(three).optimum
    b = ppt_distinguishability(permuted).optimum
    assert abs(a - b) <= 1e-6


def test_trace_identity_random_povm():
    two = bell_states().subset([0, 2])
    povm = random_povm((3, 3), 5, seed=7)
    assert theorem1_trace_identity(two, povm, (2, 2)) <= 1e-12


def test_trace_identity_trivial_cases():
    two = bell_states().subset([0, 2])
    same_dims = random_povm((2, 2), 3, seed=1)
    assert theorem1_trace_identity(two, same_dims, (2, 2)) == 0.0
    single = Povm([np.eye(9)], (3, 3))
    table_residual = theorem1_trace_identity(two, single, (2, 2))
    assert table_residual <= 1e-12
    for s in two:
        assert np.trace(np.eye(4) @ s.rho).real == pytest.approx(1.0, abs=1e-12)


def test_theorem1_ppt_invariance_three_bell():
    three = bell_states().subset([0, 1, 2])
    result = theorem1_ppt_invariance(three, (3, 3))
    assert result.opt_small == pytest.approx(2 / 3, abs=2e-3)
    assert result.opt_big == pytest.approx(2 / 3, abs=2e-3)
    assert abs(result.delta) <= 2e-3


def test_theorem1_ppt_invariance_two_bell_wide():
    two = bell_states().subset([0, 2])
    result = theorem1_ppt_invariance(two, (4, 3))
    assert result.opt_small == pytest.approx(1.0, abs=1e-4)
    assert result.opt_big == pytest.approx(1.0, abs=1e-4)


def test_theorem1_ppt_invariance_trivial_embedding():
    two = bell_states().subset([0, 2])
    result = theorem1_ppt_invariance(two, (2, 2))
    assert result.delta == 0.0


def test_transfer_downgrades_a_small_optimum_that_fails_in_the_enlarged_space():
    from distlab.discrimination import _transfer

    pair = bell_states().subset([0, 2])
    small = ppt_distinguishability(pair)
    assert small.solution.status == "optimal"
    # completeness off by 1e-3 while the status still reads optimal
    scaled = Povm(small.povm.elements * (1 + 1e-3), pair.dims, kind="ppt")
    doctored = PptResult(small.optimum, small.distinguishable, scaled, small.solution)
    big = _transfer(doctored, embed_set(pair, (3, 3)), tol=1e-7)
    assert big.solution.status == "max-iterations"
    assert not big.distinguishable
    assert big.solution.residuals["affine"] == pytest.approx(1e-3, rel=1e-6)


def test_theorem1_rejects_bad_new_dims_before_solving(monkeypatch):
    import distlab.sdp

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the new dims were checked")

    monkeypatch.setattr(distlab.sdp, "solve", no_solve)  # the PPT functions import it when they run
    with pytest.raises(ValueError, match="must dominate"):
        theorem1_ppt_invariance(domino_states(), (2, 2))
    with pytest.raises(ValueError, match="party count mismatch"):
        theorem1_ppt_invariance(domino_states(), (4, 4, 1))


def random_orthogonal_triple(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    q, _ = np.linalg.qr(g)
    return StateSet([pure_state(q[:, i], (2, 2), label=f"rand{i}") for i in range(3)])


@pytest.mark.parametrize(
    "states,new_dims",
    [
        (bell_states().subset([0, 2]), (3, 3)),
        (bell_states().subset([0, 1, 2]), (3, 3)),
        (bell_states(), (3, 3)),
        (domino_states(), (4, 4)),
        (random_orthogonal_triple(1), (3, 3)),
        (random_orthogonal_triple(2), (3, 3)),
    ],
    ids=["bell2", "bell3", "bell4", "domino", "rand3a", "rand3b"],
)
def test_theorem1_delta_within_twice_solver_tol(states, new_dims):
    tol = 1e-7
    result = theorem1_ppt_invariance(states, new_dims, SolveOptions(tol=tol))
    assert result.small.solution.status == "optimal"
    assert result.big.solution.status == "optimal"
    assert abs(result.delta) <= 2 * tol
    # independent oracle: a cold second solve on the embedded set
    cold = ppt_distinguishability(embed_set(states, new_dims), opts=SolveOptions(tol=tol))
    assert result.big.solution.status == cold.solution.status
    assert abs(result.opt_big - cold.optimum) <= 1e-9


@pytest.mark.parametrize("max_iter", [50000, 25], ids=["converged", "capped"])
@pytest.mark.parametrize(
    "states,new_dims",
    [
        (bell_pair_three_party(), (3, 2, 3)),
        (generalized_bell_states(3).subset([0, 1, 2, 3]), (4, 4)),
        (bell_states().subset([0, 1, 2]), (3, 3)),
    ],
    ids=["bell2-ket0-multicut", "gbell3x4-complex", "bell3"],
)
def test_theorem1_transfer_matches_cold_big_solve(states, new_dims, max_iter):
    opts = SolveOptions(tol=1e-7, max_iter=max_iter)
    result = theorem1_ppt_invariance(states, new_dims, opts)
    cold_result = ppt_distinguishability(embed_set(states, new_dims), opts=opts)
    big, cold = result.big.solution, cold_result.solution
    assert big.status == cold.status
    if max_iter == 25:
        assert big.status != "optimal"
        assert not result.big.distinguishable
    assert result.big.distinguishable == cold_result.distinguishable
    assert abs(result.opt_big - cold.objective_value) <= 1e-9
    # residuals measured in the enlarged space, as the cold solve measures them
    assert abs(big.residuals["affine"] - cold.residuals["affine"]) <= 1e-9
    assert abs(big.residuals["cone"] - cold.residuals["cone"]) <= 1e-9
    assert max(np.max(np.abs(a - b)) for a, b in zip(big.matrices, cold.matrices)) <= 1e-8
    # no ADMM step ran in the enlarged space
    assert big.iterations == 0
    assert big.history == ()
    assert cold.iterations == result.small.solution.iterations


def test_local_global_fuzz_bell_locc1():
    three = bell_states().subset([0, 1, 2])
    report = local_global_fuzz(three, ["locc1"], (3, 3), trials=500, seed=42)
    assert report.passes
    assert report.trials == 500


def _scaled_root(tree):  # the root family's first element times 1.01: the family no longer sums to I
    root = tree.levels[0].copy()
    root[..., 0, :, :] *= 1.01
    return Locc1Tree(tree.dims, tree.party_order, [root, *tree.levels[1:]], tree.parents)


def test_local_global_fuzz_records_a_broken_restricted_tree(monkeypatch):
    restrict = distlab.discrimination.restrict_locc1
    monkeypatch.setattr(distlab.discrimination, "restrict_locc1", lambda tree, sub: _scaled_root(restrict(tree, sub)))
    three = bell_states().subset([0, 1, 2])
    report = local_global_fuzz(three, ["general", "locc1"], (3, 3), trials=6, seed=4)
    assert [(f["kind"], f["seed_offset"], f["check"]) for f in report.failures] == [
        ("locc1", offset, "locc1-tree") for offset in range(6)
    ]
    assert all(np.isnan(f["residual"]) for f in report.failures)


def _bell_projector_povm():
    phi = np.zeros((4, 4), dtype=complex)
    phi[np.ix_([0, 3], [0, 3])] = 0.5
    return Povm([phi, np.eye(4) - phi], (2, 2), kind="ppt")


# Faults of a restricted POVM, trial by trial: each takes one POVM or a batch of them.


def _each(p, elements):  # ``elements`` in place of every POVM of ``p``
    return Povm(np.broadcast_to(elements, p.elements.shape[:-3] + elements.shape), p.dims, p.kind)


def _scaled(p):  # every element times 1.01: the elements sum to 1.01 I
    return Povm(1.01 * p.elements, p.dims, p.kind, p.witness)


def _shifted(p):  # 2|0><0| moves from element 1 to element 0: still complete, element 1 not PSD
    e = p.elements.copy()
    e[..., 0, 0, 0] += 2
    e[..., 1, 0, 0] -= 2
    return Povm(e, p.dims, p.kind, p.witness)


def _reversed(p):  # elements in reverse order under the old witness
    return Povm(p.elements[..., ::-1, :, :].copy(), p.dims, p.kind, p.witness)


RESTRICTION_FAULTS = [
    ("general", _scaled, "completeness", lambda e: np.max(np.abs(e.sum(axis=0) - np.eye(e.shape[-1])))),
    ("general", _shifted, "element-psd", lambda e: np.min(np.linalg.eigvalsh(e))),
    ("general", lambda p: _shifted(_scaled(p)), "completeness", lambda e: 0.01),  # both fail: the first counts
    ("ppt", lambda p: _each(p, _bell_projector_povm().elements), "ppt", lambda e: -0.5),
    ("sep", _reversed, "sep-witness", lambda e: np.nan),
]


@pytest.mark.parametrize("kind, breaks, check, expected_residual", RESTRICTION_FAULTS)
def test_local_global_fuzz_records_each_broken_restriction(monkeypatch, kind, breaks, check, expected_residual):
    restrict = distlab.discrimination.restrict_povm
    returned = []

    def broken_restrict(p, sub_dims):
        returned.append(breaks(restrict(p, sub_dims)))
        return returned[-1]

    monkeypatch.setattr(distlab.discrimination, "restrict_povm", broken_restrict)
    three = bell_states().subset([0, 1, 2])
    report = local_global_fuzz(three, [kind], (3, 3), trials=3, seed=11)
    assert [(f["kind"], f["seed_offset"], f["check"]) for f in report.failures] == [(kind, k, check) for k in range(3)]
    smalls = [e for small in returned for e in small.elements]  # each trial's restriction
    assert len(smalls) == 3
    for failure, small in zip(report.failures, smalls):
        np.testing.assert_allclose(failure["residual"], expected_residual(small), rtol=0, atol=1e-12)


def test_local_global_fuzz_records_a_broken_trace_identity(monkeypatch):
    # the restricted POVM does not enter the identity, so the restriction of its left side is broken
    restrict = distlab.discrimination.restrict_matrix
    monkeypatch.setattr(
        distlab.discrimination, "restrict_matrix", lambda m, dims, sub: restrict(m, dims, sub) + 1e-6 * np.eye(4)
    )
    three = bell_states().subset([0, 1, 2])
    report = local_global_fuzz(three, ["general", "sep"], (3, 3), trials=2, seed=11)
    assert [f["kind"] for f in report.failures] == ["general", "general", "sep", "sep"]
    assert {f["check"] for f in report.failures} == {"trace-identity"}
    for failure in report.failures:
        assert failure["residual"] == pytest.approx(1e-6, abs=1e-12)


def _pin_workers(monkeypatch, workers):
    """Run the blocks of ``in_workers`` in ``workers`` processes, whatever the CPU count; 1 keeps every call in this one."""
    monkeypatch.setattr(distlab.linalg, "worker_count", lambda blocks: workers)


def _count_calls(monkeypatch, names):
    """Count calls of the povm functions and numpy eigensolvers in ``names`` made outside the fuzz's sampler."""
    import distlab.povm

    calls = dict.fromkeys(names, 0)
    sampling = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += not sampling
            return f(*args, **kwargs)

        return wrapper

    def sample(*args):
        sampling.append(True)
        try:
            return sample_of_kind(*args)
        finally:
            sampling.pop()

    sample_of_kind = distlab.discrimination._sample_of_kind
    monkeypatch.setattr(distlab.discrimination, "_sample_of_kind", sample)
    for name in names:
        if name in ("eigvalsh", "eigh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        else:
            wrapper = counted(name, getattr(distlab.povm, name))
            monkeypatch.setattr(distlab.povm, name, wrapper)
            monkeypatch.setattr(distlab.discrimination, name, wrapper, raising=False)
    return calls


@pytest.mark.parametrize("kind, positivity_calls", [("general", 2), ("ppt", 4), ("sep", 4), ("locc1", 6)])
def test_local_global_fuzz_verifies_each_povm_once(monkeypatch, kind, positivity_calls):
    """One trial decides the sample's validity once and measures its restriction once (for a tree: the
    tree's families first, each once).  Of its positivity checks, those that only decide (the sample's,
    the witness factors and tree levels of the restriction) are Cholesky certificates; the rest, whose
    values are reported or used (the ppt sampler's mixing weight), are eigvalsh calls."""
    cholesky_calls = {"general": 1, "ppt": 1, "sep": 3, "locc1": 5}[kind]
    import distlab.povm

    three = bell_states().subset([0, 1, 2])
    calls = {"_report": 0, "is_valid": 0, "verify_locc1": 0, "eigvalsh": 0, "cholesky": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for name in ("_report", "is_valid", "verify_locc1"):  # _report: the measurement of verify_povm and check_kind
        wrapper = counted(name, getattr(distlab.povm, name))
        monkeypatch.setattr(distlab.povm, name, wrapper)
        monkeypatch.setattr(distlab.discrimination, name, wrapper, raising=False)
    for name in ("eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    _pin_workers(monkeypatch, 1)  # calls made in a forked child are not counted here
    report = local_global_fuzz(three, [kind], (3, 3), trials=1, seed=7)
    assert report.passes
    assert calls["_report"] == 1  # the restriction
    assert calls["is_valid"] == 1  # the sample
    assert calls["verify_locc1"] == (2 if kind == "locc1" else 0)  # the restricted tree, then the sample
    assert calls["eigvalsh"] == positivity_calls - cholesky_calls
    assert calls["cholesky"] == cholesky_calls + 1  # one more for the embedded state set


@pytest.mark.parametrize("kind", ["general", "ppt", "sep", "locc1"])
def test_local_global_fuzz_checks_once_per_block(monkeypatch, kind):
    """Outside the sampler, a block of 30 trials makes the calls one trial makes; three blocks, three times as many."""
    three = bell_states().subset([0, 1, 2])
    names = ("_report", "is_valid", "verify_locc1", "eigvalsh", "eigh", "cholesky")
    _pin_workers(monkeypatch, 1)  # calls made in a forked child are not counted here

    def counts(trials):
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, names)
            assert local_global_fuzz(three, [kind], (3, 3), trials=trials, seed=7).passes
        return calls

    one = counts(1)
    assert (one["_report"], one["is_valid"]) == (1, 1)  # the restriction measured, the sample
    assert counts(30) == one
    trial_bytes = 4 * 9 * 9 * 16  # every sample here has four outcomes on (3, 3)
    monkeypatch.setattr(distlab.discrimination, "BLOCK_BYTES", 10 * trial_bytes)
    once = {"cholesky": 1}  # the embedded state set's check
    assert counts(30) == {name: once.get(name, 0) + 3 * (one[name] - once.get(name, 0)) for name in names}


def _fuzz_in_workers(monkeypatch, *args):
    """The fuzz's report with its blocks in one, two and three processes; the three must print the same."""
    reports = []
    for workers in (1, 2, 3):
        _pin_workers(monkeypatch, workers)
        reports.append(local_global_fuzz(*args))
    printed = [json.dumps(harness_to_json(r)) for r in reports]
    assert printed[1:] == printed[:1] * 2
    return reports[0]


def _assert_matches_reference(monkeypatch, states, kinds, new_dims, trials, seed):
    report = _fuzz_in_workers(monkeypatch, states, kinds, new_dims, trials, seed)
    expected = reference_fuzz(states, kinds, new_dims, trials, seed)
    assert [(f["kind"], f["seed_offset"], f["check"]) for f in report.failures] == [
        (f["kind"], f["seed_offset"], f["check"]) for f in expected
    ]
    got = [f["residual"] for f in report.failures]
    np.testing.assert_allclose(got, [f["residual"] for f in expected], rtol=0, atol=1e-12)  # NaN matches NaN
    printed = json.loads("".join(_pieces(harness_to_json(report), [])))  # as the CLI prints it: null for NaN
    assert harness_to_json(harness_from_json(printed)) == printed
    return report


def test_local_global_fuzz_matches_the_per_trial_loop_across_blocks(monkeypatch):
    report = _assert_matches_reference(monkeypatch, domino_states(), ["general", "ppt", "sep", "locc1"], (6, 6), 120, 5)
    assert report.passes
    assert 120 * 4 * 36 * 36 * 16 > 2 * BLOCK_BYTES  # each kind spans at least three blocks


def _scaled_some(p):  # every member whose first element starts above 1/4 is scaled by 1.01
    factor = np.where(p.elements[..., 0, 0, 0].real > 0.25, 1.01, 1.0)
    return Povm(p.elements * factor[..., None, None, None], p.dims, p.kind, p.witness)


def _scaled_some_roots(tree):  # every member whose root family starts above 1/2 is scaled by 1.01
    factor = np.where(tree.levels[0][..., 0, 0, 0].real > 0.5, 1.01, 1.0)
    root = tree.levels[0] * factor[..., None, None, None]
    return Locc1Tree(tree.dims, tree.party_order, [root, *tree.levels[1:]], tree.parents)


def _bell_basis_for_some(p):  # members whose first element starts above 1/4 measure the Bell basis instead
    some = (p.elements[..., 0, 0, 0].real > 0.25)[..., None, None, None]
    return Povm(np.where(some, bell_states().rhos, p.elements), p.dims, p.kind, p.witness)


def _perturbed_outside(sample_of_kind):
    """``sample_of_kind`` whose samples with an even seed are no longer valid outside the (2, 2) block of (3, 3);
    for a sequence of seeds, the members of the batch with an even seed."""

    def sample(kind, dims, seed):
        obj = sample_of_kind(kind, dims, seed)
        even = [s % 2 == 0 for s in ([seed] if np.ndim(seed) == 0 else seed)]
        if isinstance(obj, Locc1Tree):  # the root family no longer sums to I on party 0's third level
            root = obj.levels[0].copy()
            root.reshape((-1,) + root.shape[-3:])[even, 0, 2, 2] += 0.5
            return Locc1Tree(obj.dims, obj.party_order, [root, *obj.levels[1:]], obj.parents)
        e = obj.elements.copy()
        members = e.reshape((-1,) + e.shape[-3:])
        members[even, 0, -1, -1] += 1.0  # complete still, but element 1 is no longer PSD
        members[even, 1, -1, -1] -= 1.0
        return Povm(e, obj.dims, obj.kind, obj.witness)

    return sample


def _breaking(breaks):  # restrict_povm or restrict_locc1 made faulty by ``breaks``
    return lambda restrict: lambda m, sub_dims: breaks(restrict(m, sub_dims))


FUZZ_FAULTS = {
    **{
        f"{kind}-{check}-{k}": ("restrict_povm", _breaking(breaks), [kind])
        for k, (kind, breaks, check, _) in enumerate(RESTRICTION_FAULTS)
    },
    "scaled-root": ("restrict_locc1", _breaking(_scaled_root), ["general", "locc1"]),
    "trace-identity": (
        "restrict_matrix",
        lambda restrict: lambda m, dims, sub: restrict(m, dims, sub) + 1e-6 * np.eye(4),
        ["general", "sep"],
    ),
    "some-scaled": ("restrict_povm", _breaking(_scaled_some), ["general", "ppt", "sep"]),
    "some-roots-scaled": ("restrict_locc1", _breaking(_scaled_some_roots), ["locc1"]),
    "some-gain-discrimination": ("restrict_povm", _breaking(_bell_basis_for_some), ["general"]),
}


@pytest.mark.parametrize("fault", sorted(FUZZ_FAULTS))
def test_local_global_fuzz_matches_the_per_trial_loop_under_each_fault(monkeypatch, fault):
    name, wrap, kinds = FUZZ_FAULTS[fault]
    monkeypatch.setattr(distlab.discrimination, name, wrap(getattr(distlab.discrimination, name)))
    monkeypatch.setattr(distlab.discrimination, "BLOCK_BYTES", 7 * 4 * 9 * 9 * 16)  # blocks of 7 trials
    report = _assert_matches_reference(monkeypatch, bell_states().subset([0, 1, 2]), kinds, (3, 3), 20, 11)
    assert report.failures
    if fault.startswith("some-"):  # these break some trials of a block, not all
        assert len(report.failures) < 20 * len(kinds)
    if fault == "some-gain-discrimination":
        assert {f["check"] for f in report.failures} == {"discrimination-gained"}


@pytest.mark.parametrize("kinds", [["general"], ["ppt", "sep"], ["locc1"]])
def test_local_global_fuzz_raises_for_the_first_invalid_sample_it_reaches(monkeypatch, kinds):
    fuzz = distlab.discrimination
    monkeypatch.setattr(fuzz, "_sample_of_kind", _perturbed_outside(fuzz._sample_of_kind))
    monkeypatch.setattr(fuzz, "restrict_povm", _breaking(_scaled_some)(fuzz.restrict_povm))
    monkeypatch.setattr(fuzz, "restrict_locc1", _breaking(_scaled_some_roots)(fuzz.restrict_locc1))
    monkeypatch.setattr(fuzz, "BLOCK_BYTES", 7 * 4 * 9 * 9 * 16)
    three = bell_states().subset([0, 1, 2])
    with pytest.raises(ValueError) as expected:
        reference_fuzz(three, kinds, (3, 3), 20, 11)
    assert str(expected.value).startswith("incomplete conditional family" if kinds == ["locc1"] else "invalid POVM")
    for workers in (1, 2, 3):
        _pin_workers(monkeypatch, workers)
        with pytest.raises(ValueError) as raised:
            local_global_fuzz(three, kinds, (3, 3), 20, 11)
        assert str(raised.value) == str(expected.value), workers


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # no child of this process, running or a zombie
        os.waitpid(-1, os.WNOHANG)


def test_local_global_fuzz_leaves_no_process_behind(monkeypatch):
    """A run that passes, one that raises at an invalid sample, one whose block raises only in a child and
    one whose child is killed while another hangs: none leaves a child process behind, and an error raised
    in a child reaches the caller with its type and message."""
    fuzz = distlab.discrimination
    monkeypatch.setattr(fuzz, "BLOCK_BYTES", 7 * 4 * 9 * 9 * 16)  # blocks of 7 trials: three per kind
    three = bell_states().subset([0, 1, 2])
    _pin_workers(monkeypatch, 3)
    _assert_no_child_left()
    assert local_global_fuzz(three, ["general", "sep"], (3, 3), 20, 11).passes
    _assert_no_child_left()

    with monkeypatch.context() as patch:
        patch.setattr(fuzz, "_sample_of_kind", _perturbed_outside(fuzz._sample_of_kind))
        with pytest.raises(ValueError, match="^invalid POVM"):
            local_global_fuzz(three, ["general"], (3, 3), 20, 11)
    _assert_no_child_left()

    parent, fuzz_block = os.getpid(), fuzz._fuzz_block

    def raising_in_a_child(big, kind, *args):
        if os.getpid() != parent and kind == "sep":
            raise ArithmeticError(f"{kind} block raised in a child")
        return fuzz_block(big, kind, *args)

    with monkeypatch.context() as patch:
        patch.setattr(fuzz, "_fuzz_block", raising_in_a_child)
        with pytest.raises(ArithmeticError, match="^sep block raised in a child$"):
            local_global_fuzz(three, ["general", "sep"], (3, 3), 20, 11)
    _assert_no_child_left()

    # of the general blocks 0, 1 and 2 (trials 0, 7 and 14 on), the first child runs 1 and the second 2
    fates = {fuzz._trial_seed(11, 0, 7): "killed", fuzz._trial_seed(11, 0, 14): "hangs"}
    sample_of_kind = fuzz._sample_of_kind

    def killed_or_hung_in_a_child(kind, dims, seeds):
        fate = fates.get(seeds[0]) if os.getpid() != parent else None
        if fate == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if fate == "hangs":
            time.sleep(60)
        return sample_of_kind(kind, dims, seeds)

    with monkeypatch.context() as patch:
        patch.setattr(fuzz, "_sample_of_kind", killed_or_hung_in_a_child)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=f"killed by signal {signal.SIGKILL.value} without a result"):
            local_global_fuzz(three, ["general"], (3, 3), 20, 11)
        assert time.monotonic() - started < 30  # the hung child was killed, not waited for
    _assert_no_child_left()


def test_the_fuzz_runs_a_process_per_cpu_but_one_beside_another_thread():
    count = distlab.linalg.worker_count
    cpus = len(os.sched_getaffinity(0))
    assert [count(1), count(2), count(1000)] == [1, min(2, cpus), cpus]
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert count(1000) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


FORK_SPY = """
import os, sys
import distlab.linalg
from distlab.discrimination import local_global_fuzz
from distlab.states import bell_states

loaded, fork = [], os.fork

def spied():
    loaded.append("numpy.random" in sys.modules)
    return fork()

os.fork = spied
distlab.linalg.worker_count = lambda blocks: 2
assert local_global_fuzz(bell_states().subset([0, 1, 2]), ["general", "sep"], (3, 3), 2, 11).passes
print(loaded)
"""


def test_the_fuzz_loads_numpy_random_before_it_forks():
    """In a fresh interpreter, where nothing has loaded ``numpy.random`` yet, it is loaded when the fuzz forks,
    so its workers do not each load it again."""
    env = dict(os.environ, PYTHONPATH=str(Path(distlab.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", FORK_SPY], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[True]"]


def test_local_global_fuzz_forks_nothing_in_one_worker(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    three = bell_states().subset([0, 1, 2])
    assert local_global_fuzz(three, ["general"], (3, 3), 20, 11).passes  # one block, so one worker
    _pin_workers(monkeypatch, 1)
    monkeypatch.setattr(distlab.discrimination, "BLOCK_BYTES", 7 * 4 * 9 * 9 * 16)  # three blocks
    assert local_global_fuzz(three, ["general", "sep"], (3, 3), 20, 11).passes


def test_local_global_fuzz_memory_grows_by_a_few_blocks_at_most(monkeypatch):
    dominoes = domino_states()
    _pin_workers(monkeypatch, 1)  # tracemalloc sees only this process, so every block runs here

    def peak(trials):
        tracemalloc.start()
        try:
            assert local_global_fuzz(dominoes, ["sep"], (6, 6), trials, 3).passes
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 400 samples' elements take 400 * 4 * 36**2 * 16 bytes, 33 MB, per kind
    assert peak(400) - peak(1) <= 4 * BLOCK_BYTES


def _no_sample(kind, dims, seed):
    raise AssertionError("a trial ran")


def test_local_global_fuzz_rejects_unknown_and_repeated_kinds_before_any_trial(monkeypatch):
    monkeypatch.setattr(distlab.discrimination, "_sample_of_kind", _no_sample)
    three = bell_states().subset([0, 1, 2])
    for kinds in (["general", "projective"], ["general", "general"], ["sep", "magic", "sep"]):
        with pytest.raises(ValueError):
            local_global_fuzz(three, kinds, (3, 3), trials=5, seed=1)


def test_local_global_fuzz_rejects_ppt_on_one_party_before_any_trial(monkeypatch):
    monkeypatch.setattr(distlab.discrimination, "_sample_of_kind", _no_sample)
    two = StateSet([pure_state([1, 0], (2,)), pure_state([0, 1], (2,))])
    for kinds in (["general", "ppt"], ["ppt"], ["locc1", "sep", "ppt"]):
        with pytest.raises(ValueError, match="PPT needs at least two parties"):
            local_global_fuzz(two, kinds, (3,), trials=5, seed=1)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"trials": -5}, "trials must be an integer of at least 1, got -5"),
        ({"trials": 0}, "trials must be an integer of at least 1, got 0"),
        ({"trials": 2.0}, "trials must be an integer of at least 1, got 2.0"),
        ({"trials": True}, "trials must be an integer of at least 1, got True"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
        ({"kinds": []}, "at least one kind required"),
    ],
    ids=["negative-trials", "zero-trials", "float-trials", "bool-trials", "negative-seed", "float-seed", "no-kind"],
)
@pytest.mark.parametrize("read", [False, True], ids=["fuzz", "report"])
def test_local_global_fuzz_rejects_bad_trials_seeds_and_kind_lists_before_any_trial(
    monkeypatch, changes, message, read
):
    # 0 or -5 trials and an empty kind list each gave a passing report; a negative seed failed in numpy's draw.
    # harness_from_json parsed such reports; it checks JSON kinds first, so 2.0, true and 1.5 fail there
    monkeypatch.setattr(distlab.discrimination, "_sample_of_kind", _no_sample)
    arguments = {"kinds": ["general"], "new_dims": (3, 3), "trials": 2, "seed": 1, **changes}
    ((name, value),) = changes.items()
    if read and not isinstance(value, list) and not distlab.linalg.is_integer(value):
        message = f"harness field '{name}' must be a JSON integer"
    with pytest.raises(ValueError, match=f"^{message}$"):
        if read:
            fields = {k: arguments[k] for k in ("trials", "seed", "kinds")}
            harness_from_json({**fields, "dims": [3, 3], "sub_dims": [2, 2], "failures": [], "passes": True})
        else:
            local_global_fuzz(bell_states().subset([0, 2]), **arguments)


def test_local_global_fuzz_rejects_new_dims_below_the_states_dims_before_any_trial(monkeypatch):
    monkeypatch.setattr(distlab.discrimination, "_sample_of_kind", _no_sample)
    with pytest.raises(ValueError, match=r"^sub_dims \(2, 2\) must not exceed dims \(3, 1\)$"):
        local_global_fuzz(bell_states(), ["general"], (3, 1), trials=2, seed=1)


@pytest.mark.parametrize("bad", [3.9, "3", True], ids=["float", "str", "bool"])
def test_local_global_fuzz_takes_integer_dims_only(monkeypatch, bad):
    # int() truncated them: (3.9, 3) ran the trials on (3, 3) and reported dims (3, 3)
    monkeypatch.setattr(distlab.discrimination, "_sample_of_kind", _no_sample)
    with pytest.raises(ValueError, match=r"^local dimension .+ is not an integer$"):
        local_global_fuzz(bell_states().subset([0, 2]), ["general"], (bad, 3), trials=2, seed=1)


@pytest.mark.parametrize("bad", [2.7, "2", True], ids=["float", "str", "bool"])
def test_the_trace_identity_takes_integer_sub_dims_only(bad):
    # int() truncated them: sub_dims (2.7, 2.2) were read as (2, 2) and the residual came back 0.0
    with pytest.raises(ValueError, match=r"^local dimension .+ is not an integer$"):
        theorem1_trace_identity(bell_states(), random_povm((3, 3), 4, 1), (bad, 2))


def test_the_trace_identity_takes_states_of_the_sub_dims_only():
    with pytest.raises(ValueError, match=r"^states live in \(2, 2\), expected \(3, 2\)$"):
        theorem1_trace_identity(bell_states(), random_povm((3, 3), 4, 1), (3, 2))


def test_the_fuzz_draws_a_block_per_call_and_its_reference_a_trial_per_call(monkeypatch):
    drawn = []
    sample_of_kind = distlab.discrimination._sample_of_kind

    def recorded(kind, dims, seed):
        drawn.append(seed)
        return sample_of_kind(kind, dims, seed)

    monkeypatch.setattr(distlab.discrimination, "_sample_of_kind", recorded)
    monkeypatch.setattr(distlab.discrimination, "BLOCK_BYTES", 7 * 4 * 9 * 9 * 16)  # blocks of 7 trials
    _pin_workers(monkeypatch, 1)  # draws made in a forked child are not recorded here
    three = bell_states().subset([0, 1, 2])
    reference_fuzz(three, ["general", "locc1"], (3, 3), 20, 11)
    assert len(drawn) == 40 and all(isinstance(seed, int) for seed in drawn)
    reference_seeds, drawn[:] = drawn[:], []
    local_global_fuzz(three, ["general", "locc1"], (3, 3), 20, 11)
    assert [len(seeds) for seeds in drawn] == [7, 7, 6, 7, 7, 6]
    assert [seed for seeds in drawn for seed in seeds] == reference_seeds


def test_local_global_fuzz_domino_sep():
    report = local_global_fuzz(domino_states(), ["sep"], (4, 4), trials=500, seed=42)
    assert report.passes


def test_verdict_json_roundtrip():
    povm = Povm(KET01, (2,))
    states = StateSet([pure_state([1, 0], (2,)), pure_state([0, 1], (2,))])
    verdict = check_perfect(povm, states)
    back = verdict_from_json(verdict_to_json(verdict))
    assert back.passes == verdict.passes
    assert back.mode == "perfect"
    assert np.max(np.abs(back.hit_table - verdict.hit_table)) == 0.0
    with pytest.raises(ValueError):
        verdict_from_json({**verdict_to_json(verdict), "surprise": 1})
    # the passing verdict has no violations: a false flag, or a violation beside a true one, contradicts it
    violation = {"kind": "state-not-identified", "state": 0, "probability": 0.5}
    for changes in ({"passes": False}, {"violations": [violation]}):
        with pytest.raises(ValueError, match="^verdict pass flag disagrees with violation list$"):
            verdict_from_json({**verdict_to_json(verdict), **changes})


def test_harness_json_roundtrip():
    three = bell_states().subset([0, 1, 2])
    report = local_global_fuzz(three, ["general"], (3, 3), trials=5, seed=1)
    back = harness_from_json(harness_to_json(report))
    assert vars(back) == vars(report)


def test_hit_table_matches_per_pair_sums_on_three_parties():
    dims = (3, 2, 3)
    povm = random_povm(dims, 5, seed=11)
    rng = np.random.default_rng(13)
    pure = [pure_state(rng.standard_normal(18) + 1j * rng.standard_normal(18), dims) for _ in range(3)]
    states = StateSet(pure + [maximally_mixed(dims)])
    # independent oracle: tr(M rho) = sum_ab M_ab rho_ba, one pair at a time
    expected = np.array([[np.sum(m * s.rho.T).real for m in povm.elements] for s in states])
    table = hit_table(povm, states)
    assert table.shape == (4, 5)
    assert np.max(np.abs(table - expected)) <= 1e-12
