"""Tests for the splitting SDP engine."""

import json
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import bell_pair_three_party
from sdp_reference import _cone_violation, _project_cone, reference_solve

import distlab.frames
import distlab.sdp
from distlab.cli import parse_report, run
from distlab.discrimination import local_global_fuzz, ppt_discrimination_problem, theorem1_ppt_invariance
from distlab.linalg import BLOCK_BYTES, matrix_to_json, partial_transpose, worker_count
from distlab.sdp import (
    SdpProblem,
    SdpSolution,
    SolveOptions,
    problem_from_json,
    problem_to_json,
    project_ppt,
    project_psd,
    solution_from_json,
    solution_to_json,
    solve,
)
from distlab.states import (
    bell_states,
    domino_states,
    embed_set,
    generalized_bell_states,
    pure_state,
    state_set_to_json,
)

PHI_PLUS = np.zeros((4, 4), dtype=complex)
PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5
PSI_PLUS = np.zeros((4, 4), dtype=complex)
PSI_PLUS[np.ix_([1, 2], [1, 2])] = 0.5
PHI_MINUS = np.zeros((4, 4), dtype=complex)
PHI_MINUS[np.ix_([0, 3], [0, 3])] = [[0.5, -0.5], [-0.5, 0.5]]


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def operator_interval_problem(rho):
    # maximize tr(M rho) over 0 <= M <= I via the slack block M' = I - M
    zero = np.zeros_like(rho)
    return SdpProblem([rho, zero], np.eye(rho.shape[0]))


def test_solve_operator_interval():
    rho = np.diag([0.7, 0.3]).astype(complex)
    sol = solve(operator_interval_problem(rho))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-5)
    assert np.max(np.abs(sol.matrices[0] - np.eye(2))) <= 1e-4


def test_solve_fully_pinned_block():
    c = np.eye(4) / 4
    sol = solve(SdpProblem([c], np.eye(4)))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(sol.matrices[0] - np.eye(4))) <= 1e-8


def test_solve_ppt_discrimination_two_bell_states():
    # frozen from an independent convex-programming run: optimum 1.0
    states = [PHI_PLUS, PSI_PLUS]
    problem = SdpProblem([s / 2 for s in states], np.eye(4), (2, 2), [[(0,)], [(0,)]])
    sol = solve(problem, SolveOptions(tol=1e-7))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-5)
    for m in sol.matrices:
        assert np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)) >= -1e-6


def test_solution_objective_reproducible():
    rho = np.diag([0.7, 0.3]).astype(complex)
    problem = operator_interval_problem(rho)
    sol = solve(problem)
    re_evaluated = sum(
        np.trace(c @ m).real for c, m in zip(problem.objective, sol.matrices)
    )
    assert abs(re_evaluated - sol.objective_value) <= 1e-10


def test_residual_tail_monotone():
    states = [PHI_PLUS, PSI_PLUS, np.eye(4) / 4]
    problem = SdpProblem([s / 3 for s in states], np.eye(4), (2, 2), [[(0,)]] * 3)
    sol = solve(problem, SolveOptions(tol=1e-9, max_iter=2000))
    tail = [h["combined"] for h in sol.history[-10:]]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_objective_scaling():
    rho = np.diag([0.7, 0.3]).astype(complex)
    base = solve(operator_interval_problem(rho), SolveOptions(tol=1e-8))
    scaled = solve(operator_interval_problem(3.5 * rho), SolveOptions(tol=1e-8))
    assert scaled.objective_value == pytest.approx(3.5 * base.objective_value, abs=1e-5)
    for a, b in zip(base.matrices, scaled.matrices):
        assert np.max(np.abs(a - b)) <= 1e-4


def test_affine_constraint_exact_on_returned_matrices():
    states = [PHI_PLUS, PSI_PLUS]
    problem = SdpProblem([s / 2 for s in states], np.eye(4), (2, 2), [[(0,)], [(0,)]])
    sol = solve(problem)
    assert np.max(np.abs(sum(sol.matrices) - np.eye(4))) <= 1e-12


def test_infeasible_target_detected():
    sol = solve(SdpProblem([np.eye(2)], np.diag([1.0, -1.0])))
    assert sol.status == "infeasible-evidence"
    assert "negative eigenvalue" in sol.residuals["evidence"]


def test_infeasible_transposed_target_detected():
    sol = solve(SdpProblem([PHI_PLUS / 2], PHI_PLUS, (2, 2), [[(0,)]]))
    assert sol.status == "infeasible-evidence"


def test_equal_cones_of_different_blocks_are_one_shared_cut():
    # one cut, given as a list on one block and as a tuple on the other: the screen shares the cut by its parties
    problem = SdpProblem([PHI_PLUS / 2, PHI_PLUS / 2], PHI_PLUS, (2, 2), [[[0]], [(0,)]])
    sol = solve(problem)
    assert (sol.status, sol.iterations) == ("infeasible-evidence", 0)
    assert sol.residuals["evidence"].startswith("target transposed on (0,) has negative eigenvalue")
    assert reference_solve(problem).residuals["evidence"] == sol.residuals["evidence"]


def ghz_plateau_problem():
    # GHZ projector split between two blocks with different transposition
    # cuts: any PSD decomposition of a rank-1 projector is a scalar split,
    # and the GHZ projector violates PPT on every single-party cut, so the
    # feasible set is empty although the target passes the shared-cone screen.
    ghz = np.zeros((8, 8), dtype=complex)
    ghz[np.ix_([0, 7], [0, 7])] = 0.5
    return SdpProblem([ghz / 2, ghz / 2], ghz, (2, 2, 2), [[(0,)], [(1,)]])


@pytest.mark.parametrize("rotation", range(3))
def test_the_screen_names_the_first_failing_shared_cut_in_block_0s_order(rotation):
    # the GHZ projector fails PPT on every cut; the shared cuts were visited in a set's order, which named (0, 1)
    # for every rotation of block 0's list
    ghz = ghz_plateau_problem().target
    cuts = [(0,), (1,), (0, 1)]
    first = cuts[rotation:] + cuts[:rotation]
    problem = SdpProblem([ghz / 2, ghz / 2], ghz, (2, 2, 2), [first, cuts])
    sol = solve(problem)
    assert (sol.status, sol.iterations) == ("infeasible-evidence", 0)
    assert sol.residuals["evidence"].startswith(f"target transposed on {first[0]} has negative eigenvalue")
    assert reference_solve(problem).residuals["evidence"] == sol.residuals["evidence"]


def test_infeasible_plateau_detected():
    sol = solve(ghz_plateau_problem(), SolveOptions(tol=1e-7, max_iter=3000))
    assert sol.status == "infeasible-evidence"
    assert sol.residuals["cone"] > 0.1


def test_max_iterations_reported_honestly():
    states = [PHI_PLUS, PSI_PLUS]
    problem = SdpProblem([s / 2 for s in states], np.eye(4), (2, 2), [[(0,)], [(0,)]])
    sol = solve(problem, SolveOptions(tol=1e-12, max_iter=50))
    assert sol.status != "optimal"
    assert sol.iterations <= 50


def test_solve_deterministic():
    states = [PHI_PLUS, PSI_PLUS]
    problem = SdpProblem([s / 2 for s in states], np.eye(4), (2, 2), [[(0,)], [(0,)]])
    a = solve(problem, SolveOptions(max_iter=500))
    b = solve(problem, SolveOptions(max_iter=500))
    assert a.objective_value == b.objective_value
    for x, y in zip(a.matrices, b.matrices):
        assert np.array_equal(x, y)


def test_problem_validation():
    with pytest.raises(ValueError):
        SdpProblem([], np.eye(2))
    with pytest.raises(ValueError):
        SdpProblem([np.eye(3)], np.eye(2))
    with pytest.raises(ValueError):
        SdpProblem([np.array([[0, 1], [0, 0]], dtype=complex)], np.eye(2))
    with pytest.raises(ValueError, match="leaves one side"):
        SdpProblem([np.eye(4)], np.eye(4), (2, 2), [[(0, 1)]])
    with pytest.raises(ValueError, match="do not factor"):
        SdpProblem([np.eye(4)], np.eye(4), (2, 3), [[(0,)]])


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["objective", "target"])
def test_problem_rejects_non_finite_data(where, value, part):
    # unchecked, a NaN passed the Hermiticity checks (NaN > tol is false) and solve returned objective nan
    objective, target = np.zeros((2, 2, 2), dtype=complex), np.eye(2, dtype=complex)
    m = objective[1] if where == "objective" else target
    if part == "re":
        m[1, 1] = value
    else:
        m[0, 1] = complex(0.0, value)
    what = "objective blocks" if where == "objective" else "constraint target"
    with pytest.raises(ValueError, match=f"^{what} must be finite, not NaN or Infinity$"):
        SdpProblem(objective, target)


def test_a_list_of_blocks_and_the_equal_stack_give_equal_problems_and_solutions():
    blocks = [PHI_PLUS / 3, PSI_PLUS / 3, PHI_MINUS / 3]
    cuts = [[], [(0,)], [(0,)]]
    from_list = SdpProblem(blocks, np.eye(4), (2, 2), cuts)
    from_stack = SdpProblem(np.stack(blocks), np.eye(4), (2, 2), cuts)
    assert from_list.objective.shape == (3, 4, 4) and from_list.n_blocks == 3
    assert np.array_equal(from_list.objective, from_stack.objective)
    assert np.array_equal(from_list.target, from_stack.target) and from_list.pt_cuts == from_stack.pt_cuts
    a, b = (solve(p, SolveOptions(tol=1e-7)) for p in (from_list, from_stack))
    assert (a.status, a.iterations, a.objective_value) == (b.status, b.iterations, b.objective_value)
    assert a.history == b.history and a.residuals == b.residuals
    assert len(a.matrices) == len(b.matrices) == 3
    for x, y in zip(a.matrices, b.matrices):
        assert np.array_equal(x, y)


def test_a_complex_stack_is_kept_without_a_copy():
    stack = np.stack([PHI_PLUS / 2, PSI_PLUS / 2])
    problem = SdpProblem(stack, np.eye(4))
    assert np.shares_memory(problem.objective, stack)
    real = SdpProblem(stack.real, np.eye(4))  # other data is converted to complex
    assert real.objective.dtype == complex and np.array_equal(real.objective, stack)


def test_project_psd():
    assert np.allclose(project_psd(np.diag([2.0, -1.0])), np.diag([2.0, 0.0]), atol=1e-15)
    rng = np.random.default_rng(6)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = g @ g.conj().T
    assert np.max(np.abs(project_psd(psd) - psd)) <= 1e-12
    with pytest.raises(ValueError):
        project_psd(np.array([[0, 1], [0, 0]], dtype=complex))


def test_project_psd_matches_bruteforce_clip():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = random_hermitian(rng, 6)
        w, v = np.linalg.eigh(m)
        expected = v @ np.diag(np.maximum(w, 0.0)) @ v.conj().T
        assert np.max(np.abs(project_psd(m) - expected)) <= 1e-12


def test_project_psd_idempotent_nonexpansive():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        pa, pb = project_psd(a), project_psd(b)
        assert np.max(np.abs(project_psd(pa) - pa)) <= 1e-12
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_project_ppt():
    pt_cone_fixed = project_ppt(PHI_PLUS, (2, 2), (0,))
    # the projection output has PSD partial transpose
    from distlab.linalg import partial_transpose

    w = np.linalg.eigvalsh(partial_transpose(pt_cone_fixed, (2, 2), (0,)))
    assert w[0] >= -1e-12


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(
    "dims, parties",
    [((2, 3), None), ((2, 3), (0,)), ((2, 3), (1,)), ((2, 2, 2), (0, 2))],
    ids=["psd", "2x3-cut0", "2x3-cut1", "2x2x2-cut02"],
)
def test_projections_match_the_per_matrix_reference(dims, parties, dtype):
    # the reference transposes through linalg.partial_transpose, not through the solver's index maps
    rng = np.random.default_rng(24)
    for _ in range(10):
        m = random_hermitian(rng, int(np.prod(dims)))
        m = m.real if dtype is float else m
        got = project_psd(m) if parties is None else project_ppt(m, dims, parties)
        assert np.max(np.abs(got - _project_cone(m, dims, parties))) <= 1e-12


def test_problem_and_solution_json_roundtrip():
    problem = SdpProblem([PHI_PLUS / 2, PSI_PLUS / 2], np.eye(4), (2, 2), [[(0,)], [(0,)]])
    back = problem_from_json(problem_to_json(problem))
    assert back.n_blocks == 2
    assert (back.dims, back.pt_cuts) == ((2, 2), (((0,),), ((0,),)))
    for a, b in zip(problem.objective, back.objective):
        assert np.array_equal(a, b)
    sol = solve(problem, SolveOptions(max_iter=200))
    sol2 = solution_from_json(solution_to_json(sol))
    assert isinstance(sol2, SdpSolution)
    assert sol2.objective_value == sol.objective_value
    assert sol2.status == sol.status
    for a, b in zip(sol.matrices, sol2.matrices):
        assert np.array_equal(a, b)


def test_a_problem_without_cuts_keeps_its_dims_through_json():
    # the dims were recovered from the first cone, so a problem with no cut was written back on dims [4]
    obj = {"target": matrix_to_json(np.eye(4)), "dims": [2, 2], "blocks": [{"objective": matrix_to_json(PHI_PLUS)}]}
    problem = problem_from_json(obj)
    assert (problem.dims, problem.pt_cuts) == ((2, 2), ((),))
    assert problem_to_json(problem)["dims"] == [2, 2]
    assert SdpProblem([PHI_PLUS], np.eye(4)).dims == (4,)


def test_problem_from_json_names_the_block_of_another_side():
    # the blocks were stacked by numpy, whose message spoke of an inhomogeneous shape
    blocks = [{"objective": matrix_to_json(np.eye(2) / 2)}, {"objective": matrix_to_json(np.eye(3) / 2)}]
    obj = {"target": matrix_to_json(np.eye(2)), "dims": [2], "blocks": blocks}
    with pytest.raises(ValueError, match=r"^SDP problem matrix 1 has shape \(3, 3\), expected \(2, 2\)$"):
        problem_from_json(obj)


@pytest.mark.parametrize("matrices", [[], [np.eye(2), np.eye(3)]], ids=["empty", "mixed-shapes"])
def test_solution_from_json_rejects_an_empty_or_ragged_matrix_list(matrices):
    obj = solution_to_json(solve(operator_interval_problem(np.diag([0.7, 0.3])), SolveOptions(max_iter=25)))
    obj["matrices"] = [matrix_to_json(m) for m in matrices]
    with pytest.raises(ValueError, match="^SDP solution "):
        solution_from_json(obj)


def test_solve_options_reject_empty_iteration():
    with pytest.raises(ValueError, match="max_iter"):
        SolveOptions(max_iter=0)


@pytest.mark.parametrize("max_iter", [2.5, True, "3", 0], ids=["float", "bool", "str", "zero"])
def test_solve_options_reject_a_max_iter_that_is_not_a_positive_integer(max_iter):
    # unchecked, 2.5 raised TypeError from range, True ran one iteration and "3" raised TypeError from <
    with pytest.raises(ValueError, match="^max_iter must be an integer of at least 1, got "):
        SolveOptions(max_iter=max_iter)


def test_solve_options_take_a_numpy_integer_max_iter():
    sol = solve(operator_interval_problem(np.diag([0.7, 0.3])), SolveOptions(max_iter=np.int64(3)))
    assert (sol.iterations, len(sol.history), sol.history[-1]["iteration"]) == (3, 1, 3)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0], ids=["nan", "negative", "zero"])
def test_solve_options_reject_a_tol_that_is_not_finite_and_positive(tol):
    # unchecked, nan ran to max_iter, -1 reached np.sqrt(tol), and 0 called a feasible problem infeasible
    with pytest.raises(ValueError, match="^tol must be a finite number above 0, got "):
        SolveOptions(tol=tol)


def unequal_cones_problem():
    # block 0 is PSD-only, the other two also carry the PT cone
    states = [PHI_PLUS, PSI_PLUS, PHI_MINUS]
    return SdpProblem([s / 3 for s in states], np.eye(4), (2, 2), [[], [(0,)], [(0,)]])


def tripartite_two_cut_problem():
    dims = (2, 2, 2)
    kets = [[1, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, -1], [0, 1, 1, 0, 1, 0, 0, 0]]
    rhos = [pure_state(k, dims).rho for k in kets]
    return SdpProblem([r / 3 for r in rhos], np.eye(8), dims, [[(0,), (1,)]] * 3)


def mixed_cone_order_problem():
    # the blocks list their cones in different orders, and one has none: the copies of a cone rank
    # are not contiguous, and each block's copies are still summed in its own cone order
    a, b, c = (0,), (1,), (2,)
    return SdpProblem(tripartite_two_cut_problem().objective, np.eye(8), (2, 2, 2), [(a, b), (b, a, c), ()])


REFERENCE_CORPUS = {
    "operator-interval": (lambda: operator_interval_problem(np.diag([0.7, 0.3])), SolveOptions()),
    "bell-pair": (
        lambda: ppt_discrimination_problem(bell_states().subset([0, 2])),
        SolveOptions(tol=1e-7),
    ),
    "ghz-plateau": (ghz_plateau_problem, SolveOptions(tol=1e-7, max_iter=3000)),
    "unequal-cones": (unequal_cones_problem, SolveOptions(tol=1e-7)),
    "tripartite-two-cuts": (tripartite_two_cut_problem, SolveOptions(tol=1e-7)),
    "mixed-cone-order": (mixed_cone_order_problem, SolveOptions(tol=1e-7)),
    "gbell3-first-four": (
        lambda: ppt_discrimination_problem(generalized_bell_states(3).subset([0, 1, 2, 3])),
        SolveOptions(tol=1e-7),
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CORPUS))
def test_stacked_solve_matches_per_matrix_reference(name):
    build, opts = REFERENCE_CORPUS[name]
    problem = build()
    got = solve(problem, opts)
    want = reference_solve(problem, opts)
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert len(got.history) == len(want.history)
    assert abs(got.objective_value - want.objective_value) <= 1e-9
    for a, b in zip(got.matrices, want.matrices, strict=True):
        assert np.max(np.abs(a - b)) <= 1e-8


@pytest.mark.parametrize("name", sorted(REFERENCE_CORPUS))
def test_the_residual_trail_matches_the_per_matrix_reference(name):
    build, opts = REFERENCE_CORPUS[name]
    problem = build()
    got, want = solve(problem, opts), reference_solve(problem, opts)
    assert [h["iteration"] for h in got.history] == [h["iteration"] for h in want.history]
    for a, b in zip(got.history, want.history, strict=True):
        for key in ("combined", "affine", "cone", "gap_estimate"):
            assert abs(a[key] - b[key]) <= 1e-12, (a["iteration"], key)


def local_phase_unitary(dims, seed):
    rng = np.random.default_rng(seed)
    diag = np.ones(1, dtype=complex)
    for d in dims:
        diag = np.kron(diag, np.exp(2j * np.pi * rng.random(d)))
    return np.diag(diag)


@pytest.mark.parametrize(
    "states", [domino_states(), bell_states().subset([0, 2])], ids=["domino", "bell-pair"]
)
def test_real_problem_matches_its_complex_phase_conjugate(states):
    # D_A (x) D_B maps the PT cone onto itself, so the optimum is unchanged,
    # but the conjugated data is complex and takes the complex path
    real = ppt_discrimination_problem(states)
    d = local_phase_unitary(states.dims, seed=5)
    conj = SdpProblem(
        [d @ c @ d.conj().T for c in real.objective],
        d @ real.target @ d.conj().T,
        real.dims,
        real.pt_cuts,
    )
    assert any(np.any(c.imag) for c in conj.objective)
    opts = SolveOptions(tol=1e-7)
    a, b = solve(real, opts), solve(conj, opts)
    assert abs(a.objective_value - b.objective_value) <= 1e-9
    assert a.iterations == b.iterations
    for sol in (a, b):
        for mat in sol.matrices:
            assert mat.dtype == np.complex128 and mat.ndim == 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: ppt_discrimination_problem(domino_states()),  # real data, iterated in float64
        lambda: ppt_discrimination_problem(generalized_bell_states(3).subset(range(4))),
        lambda: SdpProblem([PHI_PLUS / 2], PHI_PLUS, (2, 2), [[(0,)]]),  # fails the screen
    ],
    ids=["real", "complex", "screened"],
)
def test_a_solution_holds_its_matrices_as_one_complex_stack(build):
    problem = build()
    sol = solve(problem, SolveOptions(max_iter=50))
    assert type(sol.matrices) is np.ndarray and sol.matrices.dtype == np.complex128
    assert sol.matrices.shape == (problem.n_blocks, problem.side, problem.side)


def test_the_ppt_povms_adopt_their_solution_stacks():
    result = theorem1_ppt_invariance(bell_states().subset([0, 2]), (3, 2))
    for ppt in (result.small, result.big):
        assert ppt.povm.elements is ppt.solution.matrices


def no_thread(*args, **kwargs):
    raise AssertionError("started a thread")


def no_fork():
    raise AssertionError("forked")


def counted_forks(monkeypatch):
    """The pids that ``os.fork`` returns in this process from now on."""
    forked, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forked


def turned_bell2_ket0():
    """The Bell pair with a third party, the third qubit of its first block turned by a random unitary."""
    problem = ppt_discrimination_problem(bell_pair_three_party())
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((2, 2, 2)) @ [1, 1j])
    turn = np.kron(np.eye(4), q)
    objective = problem.objective.copy()
    objective[0] = turn @ objective[0] @ turn.conj().T
    return SdpProblem(objective, problem.target, problem.dims, problem.pt_cuts)


# the name is kept from the helper-thread solver, whose tests it was made for: the five ppt-sdp problems of the
# benchmark, the Bell pair with a third party (two blocks of four copies, held as one group of two per cone), blocks
# with their cones in different orders, a PSD-only problem, and three whose frames have blocks larger than 1 x 1
THREADED_CORPUS = {
    "bell3": (lambda: ppt_discrimination_problem(bell_states().subset([0, 1, 2])), SolveOptions(tol=1e-7)),
    "bell2": (lambda: ppt_discrimination_problem(bell_states().subset([0, 2])), SolveOptions(tol=1e-7)),
    "gbell3-first-four": (
        lambda: ppt_discrimination_problem(generalized_bell_states(3).subset([0, 1, 2, 3])),
        SolveOptions(tol=1e-7),
    ),
    "domino": (lambda: ppt_discrimination_problem(domino_states()), SolveOptions(tol=1e-7)),
    # the benchmark runs it to 1,225 iterations; 200 keep the test short
    "gbell5-first-six": (
        lambda: ppt_discrimination_problem(generalized_bell_states(5).subset(range(6))),
        SolveOptions(max_iter=200),
    ),
    "bell2-ket0": (lambda: ppt_discrimination_problem(bell_pair_three_party()), SolveOptions(tol=1e-7)),
    "mixed-cone-order": (mixed_cone_order_problem, SolveOptions(tol=1e-7)),
    "psd-only": (lambda: operator_interval_problem(np.diag([0.7, 0.3])), SolveOptions()),
    "gbell4-first-five": (
        lambda: ppt_discrimination_problem(generalized_bell_states(4).subset(range(5))),
        SolveOptions(max_iter=200),
    ),
    "bell2-ket0-turned": (turned_bell2_ket0, SolveOptions(tol=1e-7)),
    # theorem1's enlarged problem, solved cold: one cut's frame has blocks of two sizes, 1 x 1 and 3 x 3
    "gbell3-first-four-in-4x4": (
        lambda: ppt_discrimination_problem(embed_set(generalized_bell_states(3).subset(range(4)), (4, 4))),
        SolveOptions(max_iter=200),
    ),
}


def assert_same_solution(got, want):
    assert (got.status, got.iterations, got.objective_value) == (want.status, want.iterations, want.objective_value)
    assert [list(h) for h in got.history] == [list(h) for h in want.history]  # the key order too
    assert got.history == want.history and got.residuals == want.residuals
    assert len(got.matrices) == len(want.matrices)
    for a, b in zip(got.matrices, want.matrices):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def clip_failing_at(monkeypatch, call):
    """From now on, the ``call``-th ``sdp._clip`` call raises LAPACK's error for an eigensolver that did not
    converge; the others clip as before.  Returns the list of the calls so far, the shape of each one's stack."""
    calls, clip = [], distlab.sdp._clip

    def failing(h):
        calls.append(h.shape)
        if len(calls) == call:
            eigh_that_fails()
        clip(h)

    monkeypatch.setattr(distlab.sdp, "_clip", failing)
    return calls


@pytest.mark.parametrize("call", [1, 60])
def test_an_error_in_the_cone_step_ends_the_solve_as_a_solver_failure(monkeypatch, call):
    build, opts = REFERENCE_CORPUS["bell-pair"]
    want = solve(build(), opts)
    calls = clip_failing_at(monkeypatch, 0)
    solve(build(), SolveOptions(max_iter=1))
    per_iteration = len(calls)
    failed_in = -(-call // per_iteration)  # the iteration whose cone step fails
    checkpoint = (failed_in - 1) // distlab.sdp.CHECK_EVERY * distlab.sdp.CHECK_EVERY  # the last one it reached
    assert 0 < failed_in < want.iterations
    clip_failing_at(monkeypatch, call)
    assert_failed_at_checkpoint(solve(build(), opts), build, opts, want, checkpoint)


def assert_failed_at_checkpoint(got, build, opts, want, checkpoint):
    """``got`` is the solver failure of ``build()`` that returns the last checkpoint it reached, ``checkpoint`` (0
    for none), as an unfailed run that stops there returns it; ``want`` is the unfailed solve."""
    assert (got.status, got.iterations) == ("solver-failure", checkpoint)
    if checkpoint:  # the best checkpoint so far, as a run that stops there returns it
        unfailed = solve(build(), SolveOptions(tol=opts.tol, max_iter=checkpoint))
        assert got.history == want.history[: len(got.history)] == unfailed.history
        assert got.history[-1]["iteration"] == checkpoint
        assert got.residuals == unfailed.residuals and got.objective_value == unfailed.objective_value
        assert np.array_equal(got.matrices, unfailed.matrices)
    else:  # the start F/n, with its residuals
        problem = build()
        assert got.history == ()
        assert np.array_equal(got.matrices, np.repeat(problem.target[None] / problem.n_blocks, problem.n_blocks, 0))
        assert got.residuals["affine"] == 0.0 and np.isnan(got.residuals["gap_estimate"])


def negative_parts_failing_at(monkeypatch, call):
    """From now on, the ``call``-th ``sdp._negative_parts`` call raises LAPACK's error for an eigensolver that did
    not converge; the others measure as before.  Returns the list of the calls so far, the shape of each one's
    stack."""
    calls, negative_parts = [], distlab.sdp._negative_parts

    def failing(mats, frame):
        calls.append(mats.shape)
        if len(calls) == call:
            eigh_that_fails()
        return negative_parts(mats, frame)

    monkeypatch.setattr(distlab.sdp, "_negative_parts", failing)
    return calls


@pytest.mark.parametrize("call", [3, 8])
def test_an_error_in_a_checkpoint_ends_the_solve_as_a_solver_failure(monkeypatch, call):
    build, opts = REFERENCE_CORPUS["bell-pair"]
    want = solve(build(), opts)
    every = distlab.sdp.CHECK_EVERY
    calls = negative_parts_failing_at(monkeypatch, 0)
    solve(build(), SolveOptions(max_iter=every))
    once = len(calls)  # the infeasibility screen's calls and one checkpoint's
    solve(build(), SolveOptions(max_iter=2 * every))
    per_checkpoint = len(calls) - 2 * once
    screen = once - per_checkpoint
    failed_in = -(-(call - screen) // per_checkpoint)  # the checkpoint whose cone residual fails, from 1
    assert 0 < failed_in * every < want.iterations
    negative_parts_failing_at(monkeypatch, call)
    assert_failed_at_checkpoint(solve(build(), opts), build, opts, want, (failed_in - 1) * every)


@pytest.mark.parametrize("dtype", [float, complex])
def test_a_stack_whose_eigh_fails_is_clipped_alike_by_svd(monkeypatch, dtype):
    rng = np.random.default_rng(27)
    stacks = []
    for _ in range(100):
        side, count = rng.integers(2, 9), rng.integers(1, 6)
        a = rng.normal(size=(count, side, side))
        if dtype is complex:
            a = a + 1j * rng.normal(size=(count, side, side))
        stacks.append(a + np.swapaxes(a.conj(), -1, -2))
    wanted = [h.copy() for h in stacks]
    for want in wanted:
        distlab.sdp._clip(want)
    monkeypatch.setattr(np.linalg, "eigh", eigh_that_fails)
    for got, want in zip(stacks, wanted):
        distlab.sdp._clip(got)
        assert got.dtype == want.dtype
        assert np.array_equal(got, np.swapaxes(got.conj(), -1, -2))  # exactly Hermitian
        assert np.max(np.abs(got - want)) <= 1e-12


def eigh_failing_once_in_clip(monkeypatch, call):
    """From now on, the ``call``-th ``np.linalg.eigh`` call made by ``sdp._clip`` raises LAPACK's error for an
    eigensolver that did not converge, once.  Returns the list of those calls so far, the shape of each one's
    stack."""
    calls, clip, eigh = [], distlab.sdp._clip, np.linalg.eigh

    def counted(h):
        calls.append(h.shape)
        if len(calls) == call:
            eigh_that_fails()
        return eigh(h)

    def clip_counted(h):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigh", counted)
            clip(h)

    monkeypatch.setattr(distlab.sdp, "_clip", clip_counted)
    return calls


@pytest.mark.parametrize("name", ["tripartite-two-cuts", "gbell3-first-four"])  # real and complex, with eigh
@pytest.mark.parametrize("call", [1, 60])
def test_a_one_time_eigh_failure_in_the_cone_step_is_redone_by_svd(monkeypatch, name, call):
    build, opts = REFERENCE_CORPUS[name]
    want = solve(build(), opts)
    calls = eigh_failing_once_in_clip(monkeypatch, call)
    got = solve(build(), opts)
    assert len(calls) > call  # the failing call was made, and the solve went on
    assert (got.status, got.iterations) == (want.status, want.iterations) and got.status == "optimal"
    assert abs(got.objective_value - want.objective_value) <= 1e-12


@pytest.mark.parametrize("command", ["sdp", "theorem1"])
def test_a_solver_failure_exits_1_with_a_parseable_report(monkeypatch, tmp_path, capsys, command):
    states = bell_states().subset([0, 2])
    if command == "sdp":
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem_to_json(ppt_discrimination_problem(states))))
        argv = ["sdp", "--problem", str(path), "--tol", "1e-7"]
    else:
        path = tmp_path / "states.json"
        path.write_text(json.dumps(state_set_to_json(states)))
        argv = ["theorem1", "--states", str(path), "--new-dims", "3,2"]
    clip_failing_at(monkeypatch, 60)  # in iteration 30, after the checkpoint at 25
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in err
    kind, payload = parse_report(json.loads(out))
    if command == "sdp":
        assert (kind, payload.status, payload.iterations) == ("sdp_solution", "solver-failure", 25)
    else:
        assert kind == "theorem1" and payload["status_small"] == payload["status_big"] == "solver-failure"
        assert payload["distinguishable_small"] is payload["distinguishable_big"] is False


def test_a_checkpoint_solver_failure_exits_1_with_a_parseable_report(monkeypatch, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_to_json(ppt_discrimination_problem(bell_states().subset([0, 2])))))
    negative_parts_failing_at(monkeypatch, 8)  # at the checkpoint at 75: the screen makes 2 calls, each checkpoint 2
    code = run(["sdp", "--problem", str(path), "--tol", "1e-7"])
    out, err = capsys.readouterr()
    assert code == 1 and err.startswith("SDP: ") and "Traceback" not in err
    kind, payload = parse_report(json.loads(out))
    assert (kind, payload.status, payload.iterations) == ("sdp_solution", "solver-failure", 50)


def test_the_theorem1_problems_start_no_thread(monkeypatch):
    # and fork nothing, although the package's worker count is 2, as on two CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert worker_count(12) == 2
    monkeypatch.setattr(threading, "Thread", no_thread)
    monkeypatch.setattr(os, "fork", no_fork)
    # the benchmark's theorem1 jobs: each solves the small problem and transfers its optimum
    for states, new_dims in [
        (bell_states().subset([0, 1, 2]), (3, 3)),
        (bell_states().subset([0, 2]), (4, 3)),
        (generalized_bell_states(3).subset([0, 1, 2, 3]), (4, 4)),
        (domino_states(), (8, 8)),
    ]:
        assert theorem1_ppt_invariance(states, new_dims).small.solution.status == "optimal"
    # the benchmark's sdp job, which runs in its data's algebra: per iteration 6 copies of 25 scalars and 6 of one
    # 5 x 5 block
    assert solve(THREADED_CORPUS["gbell5-first-six"][0](), SolveOptions(max_iter=1)).iterations == 1
    # and a problem with no symmetry to reduce: 12 copies of a complex 25 x 25 matrix per iteration
    assert solve(random_mixed_problem((5, 5), 6, seed=3), SolveOptions(max_iter=1)).iterations == 1


def test_a_fuzz_after_a_threaded_solve_still_forks_as_on_two_cpus(monkeypatch):
    # the name is kept from the helper-thread solver: the solve before the fuzz forks nothing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    build, opts = THREADED_CORPUS["bell2"]
    forked = counted_forks(monkeypatch)
    solve(build(), opts)
    assert forked == []
    assert local_global_fuzz(bell_states().subset([0, 1, 2]), ["general", "sep"], (3, 3), 2, 11).passes
    assert len(forked) == 1


def random_mixed_problem(dims, count, seed):
    """PPT discrimination of ``count`` random rank-2 states on ``dims``: data with no symmetry to reduce."""
    rng = np.random.default_rng(seed)
    side = int(np.prod(dims))
    kets = rng.standard_normal((count, side, 2)) + 1j * rng.standard_normal((count, side, 2))
    rhos = kets @ kets.conj().transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    return SdpProblem(rhos / count, np.eye(side), dims, [[(0,)]] * count)


def found_algebras(monkeypatch):
    """Per solve from now on: the dimension of the algebra it runs in (None where it runs unreduced), each cut's
    frame blocks (n_j, m_j), and the seconds spent finding them."""
    found, find = [], distlab.sdp.reduction

    def timed(c, f, maps):
        start = time.perf_counter()
        reduced = find(c, f, maps)
        seconds = time.perf_counter() - start
        if reduced is None:
            found.append((None, None, seconds))
        else:
            found.append((len(reduced[0]), {cut: frame.blocks for cut, frame in reduced[1].items()}, seconds))
        return reduced

    monkeypatch.setattr(distlab.sdp, "reduction", timed)
    return found


def unreduced(monkeypatch):
    """Run every solve from now on on full matrices, as before the reduction."""
    monkeypatch.setattr(distlab.sdp, "reduction", lambda c, f, maps: None)


# the dimension of the algebra each corpus problem runs in; the others run unreduced (their algebra passes a quarter
# of side**2)
REDUCED = {
    "bell-pair": 3,
    "ghz-plateau": 5,
    "unequal-cones": 4,
    "gbell3-first-four": 9,
    "bell3": 4,
    "bell2": 3,
    "domino": 9,
    "gbell5-first-six": 25,
    "bell2-ket0": 4,
    "gbell4-first-five": 16,
    "bell2-ket0-turned": 12,
    "gbell3-first-four-in-4x4": 10,
}
CORPORA = [("reference", name) for name in sorted(REFERENCE_CORPUS)] + [("threaded", name) for name in THREADED_CORPUS]


@pytest.mark.parametrize("corpus, name", CORPORA, ids=[f"{c}-{n}" for c, n in CORPORA])
def test_reduced_solve_agrees_with_the_unreduced_one(monkeypatch, corpus, name):
    build, opts = (REFERENCE_CORPUS if corpus == "reference" else THREADED_CORPUS)[name]
    found = found_algebras(monkeypatch)
    got = solve(build(), opts)
    assert [dim for dim, _, _ in found] == [REDUCED.get(name)]
    unreduced(monkeypatch)
    want = solve(build(), opts)
    assert (got.status, got.iterations, len(got.history)) == (want.status, want.iterations, len(want.history))
    assert abs(got.objective_value - want.objective_value) <= 1e-12
    for a, b in zip(got.matrices, want.matrices, strict=True):
        assert a.dtype == np.complex128 and np.max(np.abs(a - b)) <= 1e-9


@pytest.mark.parametrize(
    "build, opts, algebras",
    [
        (*REFERENCE_CORPUS["gbell3-first-four"], [9]),
        (*REFERENCE_CORPUS["mixed-cone-order"], [None]),  # blocks with different cone lists
        (lambda: SdpProblem([PHI_PLUS / 2], PHI_PLUS, (2, 2), [[(0,)]]), SolveOptions(), []),
    ],
    ids=["reduced", "unreduced", "screened"],
)
def test_the_cone_residual_is_the_reference_violation_of_the_returned_matrices(monkeypatch, build, opts, algebras):
    # measured on full matrices, whatever the iteration ran in, and checked through linalg.partial_transpose
    problem = build()
    found = found_algebras(monkeypatch)
    sol = solve(problem, opts)
    assert [dim for dim, _, _ in found] == algebras
    want = max(
        _cone_violation(m, problem.dims, [None, *cuts]) for m, cuts in zip(sol.matrices, problem.pt_cuts, strict=True)
    )
    assert abs(sol.residuals["cone"] - want) <= 1e-12


def test_gbell3_first_four_in_4x4_mixes_block_sizes(monkeypatch):
    found = found_algebras(monkeypatch)
    solve(THREADED_CORPUS["gbell3-first-four-in-4x4"][0](), SolveOptions(max_iter=1))
    [(dim, blocks, _)] = found
    assert dim == 10
    assert sorted(blocks[(0,)]) == [(1, 7), (3, 3)]  # the embedded M_3 (x) I_3, and 7 scalars beside it


def test_gbell4_first_five_runs_in_four_two_by_two_blocks(monkeypatch):
    found = found_algebras(monkeypatch)
    solve(THREADED_CORPUS["gbell4-first-five"][0](), SolveOptions(max_iter=1))
    [(dim, blocks, _)] = found
    assert dim == 16
    assert blocks[None] == ((1, 1),) * 16  # the algebra is diagonal in the Bell basis
    assert blocks[(0,)] == ((2, 2),) * 4  # and its partial transpose is four M_2 (x) I_2


def test_a_turned_block_reduces_less_and_still_agrees(monkeypatch):
    found = found_algebras(monkeypatch)
    solve(THREADED_CORPUS["bell2-ket0"][0](), SolveOptions(max_iter=1))
    solve(turned_bell2_ket0(), SolveOptions(max_iter=1))
    (plain, plain_blocks, _), (turned, turned_blocks, _) = found
    assert (plain, turned) == (4, 12)
    assert {tuple(sorted(blocks)) for blocks in plain_blocks.values()} == {((1, 1), (1, 1), (1, 2), (1, 4))}
    # the turned qubit joins the Bell pair's scalars into 2 x 2 blocks, on every cut
    assert {tuple(sorted(blocks)) for blocks in turned_blocks.values()} == {((2, 1), (2, 1), (2, 2))}
    # and its agreement with the unreduced solve is in test_reduced_solve_agrees_with_the_unreduced_one


def test_a_random_mixed_triple_stays_unreduced_and_finding_that_is_quick(monkeypatch):
    problem = random_mixed_problem((3, 3), 3, seed=17)
    found = found_algebras(monkeypatch)
    for _ in range(5):
        solve(problem, SolveOptions(max_iter=1))
    assert [dim for dim, _, _ in found] == [None] * 5
    assert min(seconds for _, _, seconds in found) <= 0.005  # the best of five, as the machine may be busy


def eigh_that_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("failing", ["coordinates", "frame", "eigensolver"])
def test_a_failed_check_leaves_the_solve_unreduced(monkeypatch, failing):
    build, opts = THREADED_CORPUS["gbell3-first-four"]
    if failing == "coordinates":
        monkeypatch.setattr(distlab.frames, "FRAME_TOL", 0.0)  # the data's coordinates, or the frames, miss by more
    elif failing == "frame":
        monkeypatch.setattr(distlab.frames, "_algebra_frame", lambda v, perm: None)
    else:
        find = distlab.sdp.reduction

        def without_eigh(c, f, maps):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np.linalg, "eigh", eigh_that_fails)
                return find(c, f, maps)

        monkeypatch.setattr(distlab.sdp, "reduction", without_eigh)
    found = found_algebras(monkeypatch)
    got = solve(build(), opts)
    assert [dim for dim, _, _ in found] == [None]
    unreduced(monkeypatch)
    assert_same_solution(got, solve(build(), opts))


@pytest.mark.parametrize(
    "span",
    [
        np.diag([1.0, -1.0])[None],  # one Hermitian matrix, not an algebra: two 1 x 1 blocks, dimension 2
        np.stack([np.eye(3), np.diag([1.0, 2.0, 4.0])]) / np.sqrt([[[3.0]], [[21.0]]]),  # polynomials need degree 2
    ],
    ids=["sign", "degree"],
)
def test_a_span_that_is_no_algebra_has_no_frame(span):
    assert distlab.frames._algebra_frame(span) is None


def index_maps(problem):
    """Per cut of ``problem``, the partial transpose's index map (None for the PSD cone), as ``solve`` makes them."""
    square = np.arange(problem.side**2, dtype=float).reshape(problem.side, problem.side)
    cuts = {cut for cuts in problem.pt_cuts for cut in cuts}
    return {None: None, **{cut: partial_transpose(square, problem.dims, cut).ravel().astype(np.intp) for cut in cuts}}


def test_data_with_no_symmetry_is_given_up_within_the_byte_budget():
    # at side 64 a quarter of side**2 is 1,024 members of 64 KiB; the basis stops at ALGEBRA_BYTES, 16 members
    problem = random_mixed_problem((8, 8), 4, seed=5)
    maps = index_maps(problem)
    tracemalloc.start()
    try:
        assert distlab.frames.reduction(problem.objective, problem.target, maps) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * BLOCK_BYTES  # the basis, ALGEBRA_BYTES, and the temporaries of one product at a time


@pytest.mark.parametrize("dtype", [float, complex])
def test_one_by_one_blocks_are_clipped_to_their_positive_part_without_eigh(monkeypatch, dtype):
    values = np.array([-2.0, -0.0, 0.0, 3.5, -1e-300])
    blocks = values.astype(dtype).reshape(1, 5, 1, 1)
    monkeypatch.setattr(np.linalg, "eigh", eigh_that_fails)
    distlab.sdp._clip(blocks)
    assert blocks.dtype == dtype
    assert np.array_equal(blocks.ravel(), np.maximum(values, 0.0))
