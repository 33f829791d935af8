"""Acceptance suite: one test per criterion, each at its stated tolerance.

The terminal summary prints one CRITERION line per test (see conftest).
"""

import json
import time

import numpy as np
import pytest
from conftest import FUZZ_DIM_CONFIGS, bell_pair_three_party, criterion, restriction_defects

from distlab.cli import run
from distlab.discrimination import (
    _sample_of_kind,
    check_perfect,
    global_distinguishable,
    ppt_distinguishability,
    theorem1_ppt_invariance,
    theorem1_trace_identity,
)
from distlab.povm import (
    counterexample_c4,
    flatten_locc1,
    is_projective,
    restrict_povm,
    verify_povm,
)
from distlab.sdp import project_psd
from distlab.states import (
    StateSet,
    bell_states,
    domino_states,
    embed_set,
    extended_domino_basis,
    mutually_orthogonal,
    pairwise_overlaps,
    pure_state,
    schmidt_rank,
    state_vector,
)

KINDS = ["general", "ppt", "sep", "locc1"]
TRIALS_PER_KIND = 200


def bell_pair():
    return bell_states().subset([0, 2])


def test_criterion_1_counterexample_regression():
    with criterion(1, "projective POVM loses projectivity under 3x3 restriction"):
        start = time.monotonic()
        p = counterexample_c4()
        for m in p.elements:
            assert np.all(np.abs(m.real) == 0.25) and np.all(m.imag == 0)
        assert verify_povm(p).passed
        assert is_projective(p, 1e-12)
        b = restrict_povm(p, (3,))
        assert verify_povm(b, 1e-12).passed
        assert not is_projective(b, 1e-9)
        w = np.linalg.eigvalsh(b.elements[0])
        assert np.max(np.abs(w - np.array([0.0, 0.0, 0.75]))) <= 1e-12
        assert time.monotonic() - start < 1.0


def test_criterion_2_kind_preservation_fuzz():
    with criterion(2, f"restriction preserves every kind, {TRIALS_PER_KIND} seeds x 4 kinds x 3 dims"):
        start = time.monotonic()
        failures = []
        for kind in KINDS:
            for big, sub in FUZZ_DIM_CONFIGS:
                for seed in range(TRIALS_PER_KIND):
                    defects = restriction_defects(kind, big, sub, seed, tol=1e-9)
                    if defects:
                        failures.append((kind, big, sub, seed, defects))
        assert failures == []
        assert time.monotonic() - start < 60.0


def test_criterion_3_trace_identity_over_corpus():
    with criterion(3, "restriction/embedding trace identity <= 1e-12 over the fuzz corpus"):
        from distlab.povm import Locc1Tree

        pair = bell_pair()
        pair3 = bell_pair_three_party()
        dominoes = domino_states()
        corpus = [
            ((3, 3), pair),
            ((4, 2), pair),
            ((3, 2, 3), pair3),
            ((4, 4), dominoes),
        ]
        worst = 0.0
        for big_dims, states in corpus:
            for kind in KINDS:
                for seed in range(TRIALS_PER_KIND):
                    obj = _sample_of_kind(kind, big_dims, seed)
                    povm = flatten_locc1(obj) if isinstance(obj, Locc1Tree) else obj
                    worst = max(worst, theorem1_trace_identity(states, povm, states.dims))
        assert worst <= 1e-12


def test_criterion_4_ppt_invariance():
    with criterion(4, "PPT optimum invariant under embedding: 3 Bell 2/3, 2 Bell 1"):
        start = time.monotonic()
        three = theorem1_ppt_invariance(bell_states().subset([0, 1, 2]), (3, 3))
        assert three.small.solution.status == "optimal"
        assert three.big.solution.status == "optimal"
        assert three.opt_small == pytest.approx(2 / 3, abs=1e-3)
        assert three.opt_big == pytest.approx(2 / 3, abs=1e-3)
        assert abs(three.delta) <= 2e-3
        two = theorem1_ppt_invariance(bell_pair(), (4, 3))
        assert two.opt_small == pytest.approx(1.0, abs=1e-4)
        assert two.opt_big == pytest.approx(1.0, abs=1e-4)
        # independent oracle: a cold second solve on each embedded set
        oracles = [(three, bell_states().subset([0, 1, 2]), (3, 3)), (two, bell_pair(), (4, 3))]
        for result, states, new_dims in oracles:
            cold = ppt_distinguishability(embed_set(states, new_dims))
            assert result.big.solution.status == cold.solution.status
            assert abs(result.opt_big - cold.optimum) <= 1e-9
        assert time.monotonic() - start < 120.0


def test_criterion_5_domino_and_extension():
    with criterion(5, "Domino basis orthonormal and completed into (4,4)"):
        dominoes = domino_states()
        assert np.max(np.abs(pairwise_overlaps(dominoes) - np.eye(9))) <= 1e-12
        big = extended_domino_basis(4, 4)
        assert len(big) == 16
        vectors = np.column_stack([state_vector(s) for s in big])
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(16))) <= 1e-9
        for s in list(dominoes) + list(big):
            assert schmidt_rank(s) == 1


def global_corpus():
    """20 deterministic cases: 10 orthogonal, 10 with trace overlap near 1e-3."""
    cases = []
    cases.append(("bell-pair", bell_pair(), True))
    cases.append(("bell-three", bell_states().subset([0, 1, 2]), True))
    cases.append(("bell-four", bell_states(), True))
    cases.append(("domino", domino_states(), True))
    cases.append(("domino-ext-3x4", extended_domino_basis(3, 4), True))
    comp = StateSet(
        [pure_state(np.eye(4)[:, i], (2, 2), label=f"|{i}>") for i in range(4)]
    )
    cases.append(("computational", comp, True))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        q, _ = np.linalg.qr(g)
        cases.append(
            (f"random-orthonormal-{seed}", StateSet([pure_state(q[:, i], (2, 2)) for i in range(3)]), True)
        )
    eps = np.sqrt(1e-3)
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(g)
        tilted = q[:, 1] + eps * q[:, 0]
        cases.append(
            (
                f"perturbed-{seed}",
                StateSet([pure_state(q[:, 0], (2, 2)), pure_state(tilted, (2, 2))]),
                False,
            )
        )
    return cases


def test_criterion_6_global_distinguishability_corpus():
    with criterion(6, "global distinguishability <=> orthogonality on 20 cases"):
        tol = 1e-6
        cases = global_corpus()
        assert len(cases) == 20
        for name, states, expect in cases:
            orthogonal = mutually_orthogonal(states, tol)
            verdict = global_distinguishable(states, tol)
            assert orthogonal == expect, name
            assert verdict.distinguishable == orthogonal, name
            if expect:
                assert check_perfect(verdict.witness, states, tol).passes, name
            else:
                overlaps = pairwise_overlaps(states)
                np.fill_diagonal(overlaps, 0.0)
                assert np.max(overlaps) > tol
                assert verdict.witness is None


def test_criterion_7_sdp_soundness():
    with criterion(7, "SDP objective re-evaluates, projections behave, 2 Bell optimum 1"):
        two = bell_pair()
        result = ppt_distinguishability(two)
        assert result.solution.status == "optimal"
        assert result.optimum == pytest.approx(1.0, abs=1e-4)
        re_evaluated = sum(
            np.trace(s.rho @ m).real / len(two)
            for s, m in zip(two, result.solution.matrices)
        )
        assert abs(re_evaluated - result.solution.objective_value) <= 1e-10
        rng = np.random.default_rng(99)
        for _ in range(100):
            g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            a = (g + g.conj().T) / 2
            g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            b = (g + g.conj().T) / 2
            pa, pb = project_psd(a), project_psd(b)
            assert np.max(np.abs(project_psd(pa) - pa)) <= 1e-12
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_criterion_8_deterministic_reports(tmp_path, capsys, monkeypatch):
    with criterion(8, "identical seeds give byte-identical CLI reports"):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        from distlab.states import state_set_to_json

        states_path = tmp_path / "bell2.json"
        states_path.write_text(json.dumps(state_set_to_json(bell_pair())))
        commands = [
            ["counterexample"],
            ["gen", "--family", "domino"],
            ["fuzz", "--kinds", "general,sep", "--trials", "5", "--seed", "42"],
            ["theorem1", "--states", str(states_path), "--new-dims", "3,3"],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                code = run(argv)
                captured = capsys.readouterr()
                assert code == 0, argv
                outputs.append(captured.out.encode())
            assert outputs[0] == outputs[1], argv
