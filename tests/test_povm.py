"""Tests for POVM verification, restriction, and the random generators."""

import json

import conftest
import numpy as np
import pytest
from conftest import FUZZ_DIM_CONFIGS, restriction_defects, with_scaled_root
from hypothesis import example, given, settings
from hypothesis import strategies as st
from projective_reference import reference_is_projective
from sampler_reference import (
    ReferenceNode,
    reference_flatten_locc1,
    reference_node_to_json,
    reference_random_locc1,
    reference_random_povm,
    reference_random_ppt_povm,
    reference_random_sep_povm,
    reference_sep_elements,
)

import distlab.povm
from distlab.discrimination import _trial_seed
from distlab.linalg import BLOCK_BYTES, matrix_to_json, tensor
from distlab.povm import (
    Locc1Tree,
    Povm,
    SepDecomposition,
    canonical_cuts,
    check_kind,
    counterexample_c4,
    flatten_locc1,
    is_ppt_povm,
    is_projective,
    locc1_from_json,
    locc1_to_json,
    povm_from_json,
    povm_to_json,
    random_locc1,
    random_povm,
    random_ppt_povm,
    random_sep_povm,
    restrict_locc1,
    restrict_povm,
    stack_batch,
    verify_locc1,
    verify_povm,
    verify_sep,
)
from distlab.states import extended_domino_basis

PHI_PLUS = np.zeros((4, 4), dtype=complex)
PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5

KET01 = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


def unconditional_tree(dims, local_povms, party_order=None):
    """Every party measures its fixed local POVM whatever came before."""
    order = tuple(party_order) if party_order is not None else tuple(range(len(dims)))
    levels, parents, above = [], [], 1
    for party in order:
        family = np.asarray(local_povms[party], dtype=complex)
        levels.append(np.concatenate([family] * above))
        parents.append(np.repeat(np.arange(above), len(family)))
        above *= len(family)
    return Locc1Tree(dims, order, levels, parents)


def test_verify_povm_pass_and_fail():
    assert verify_povm(Povm([np.eye(4)], (2, 2))).passed
    bad = Povm([0.6 * np.eye(2), 0.6 * np.eye(2)], (2,))
    report = verify_povm(bad, 1e-9)
    assert not report.passed
    assert report.completeness_residual == pytest.approx(0.2, abs=1e-12)


def test_povm_shape_validation():
    with pytest.raises(ValueError):
        Povm([np.eye(4), np.eye(3)], (2, 2))
    with pytest.raises(ValueError):
        Povm([], (2,))
    with pytest.raises(ValueError):
        Povm([np.eye(2)], (2,), kind="magic")


def test_counterexample_matrices_exact():
    p = counterexample_c4()
    assert p.dims == (4,)
    assert len(p) == 4
    assert np.array_equal(p.elements[0], np.full((4, 4), 0.25).astype(complex))
    for m in p.elements:
        assert np.all(np.abs(m.real) == 0.25)
        assert np.all(m.imag == 0)
        # exact rank-1 idempotents: entries are dyadic rationals
        assert np.array_equal(m @ m, m)
        assert np.linalg.matrix_rank(m) == 1
    assert np.array_equal(sum(p.elements), np.eye(4).astype(complex))
    assert verify_povm(p).passed
    assert is_projective(p, 1e-12)


def test_counterexample_restriction_not_projective():
    p = counterexample_c4()
    b = restrict_povm(p, (3,))
    assert len(b) == 4
    assert np.array_equal(b.elements[0], np.full((3, 3), 0.25).astype(complex))
    assert verify_povm(b, 1e-12).passed
    assert not is_projective(b, 1e-9)
    w = np.linalg.eigvalsh(b.elements[0])
    assert np.max(np.abs(w - np.array([0.0, 0.0, 0.75]))) <= 1e-12


def test_counterexample_bipartite_witness():
    p = counterexample_c4(bipartite=True)
    assert p.dims == (2, 2)
    assert verify_sep(p, 1e-12)
    # independent expansion: Hadamard-basis projectors from outer products
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    vecs = [np.kron(h[:, a], h[:, b]) for a in range(2) for b in range(2)]
    for m, v in zip(p.elements, vecs):
        assert np.max(np.abs(m - np.outer(v, v.conj()))) <= 1e-15
    assert is_ppt_povm(p, tol=1e-9)


def test_is_projective_cases():
    comp = Povm(KET01, (2,))
    assert is_projective(comp, 1e-12)
    halves = Povm([np.eye(2) / 2, np.eye(2) / 2], (2,))
    assert not is_projective(halves, 1e-9)
    with pytest.raises(ValueError):
        is_projective(Povm([np.eye(2) * 0.5], (2,)), 1e-9)


def agrees_with_reference(p, tol):
    """Assert ``is_projective`` answers as the pairwise oracle (or both reject the POVM); return the answer."""
    try:
        expected = reference_is_projective(p, tol)
    except ValueError:
        with pytest.raises(ValueError, match="invalid POVM"):
            is_projective(p, tol)
        return None
    assert is_projective(p, tol) is expected
    return expected


@pytest.fixture
def exact_pairs(monkeypatch):
    """The (j, k) pairs ``is_projective`` multiplies out, one list per call."""
    seen = []
    exact = distlab.povm._cross_products_vanish

    def spy(e, j, k, tol):
        seen.append(list(zip(j.tolist(), k.tolist())))
        return exact(e, j, k, tol)

    monkeypatch.setattr(distlab.povm, "_cross_products_vanish", spy)
    return seen


def rotated_pair(product, alpha=0.3):
    """Rank-1 projectors onto u and v = c u + s u_perp (u at angle alpha) plus |2><2| on C^3,
    with c chosen so that max|P_u P_v| is about ``product``.  At alpha = 0.3 the completeness
    residual is about 0.9 times the product, so the POVM stays valid a little past the point
    where the pair fails."""
    u = np.array([np.cos(alpha), np.sin(alpha), 0.0])
    u_perp = np.array([-np.sin(alpha), np.cos(alpha), 0.0])
    c = product / np.max(np.abs(np.outer(u, u_perp)))  # P_u P_v = c |u><v|, to first order in c
    v = c * u + np.sqrt(1 - c * c) * u_perp
    return Povm([np.outer(u, u), np.outer(v, v), np.diag([0.0, 0.0, 1.0])], (3,))


def test_certified_domino_ext_takes_no_exact_product(exact_pairs):
    p = Povm(extended_domino_basis(10, 10).rhos, (10, 10))
    assert agrees_with_reference(p, 1e-9) is True
    assert exact_pairs == [[]]


def test_counterexample_and_its_restriction_agree_with_reference(exact_pairs):
    p = counterexample_c4()
    for povm in (p, restrict_povm(p, (3,))):
        for tol in (1e-12, 1e-9):
            agrees_with_reference(povm, tol)
    assert is_projective(p, 1e-12) and not is_projective(restrict_povm(p, (3,)), 1e-9)
    assert exact_pairs[0] == []  # the exact dyadic projectors are certified at 1e-12


def test_idempotent_but_not_orthogonal_falls_back_and_fails(exact_pairs):
    tol = 1e-9
    p = rotated_pair(1.05 * tol)
    assert verify_povm(p, tol).passed
    assert np.max(np.abs(p.elements @ p.elements - p.elements)) <= tol
    assert agrees_with_reference(p, tol) is False
    assert exact_pairs[-1] == [(0, 1)]


def test_rotated_pair_sweep_across_the_tolerance():
    tol = 1e-9
    answers = [agrees_with_reference(rotated_pair(f * tol), tol) for f in np.geomspace(1 / 8, 2, 33)]
    assert {True, False, None} <= set(answers)  # certified and exact passes, fallback failures, invalid POVMs


@pytest.mark.parametrize("seed", range(6))
def test_cross_product_bound_holds_for_any_stack(seed):
    """The bound behind ``is_projective`` holds for matrices far from projectors, where every term counts."""
    rng = np.random.default_rng(seed)
    n, side = rng.integers(2, 6), rng.integers(1, 9)
    g = rng.standard_normal((n, side, side)) + 1j * rng.standard_normal((n, side, side)) * (seed % 2)
    e = g @ np.conj(np.swapaxes(g, 1, 2)) / side + 0.05 * rng.standard_normal((n, side, side))
    products = np.max(np.abs(e[:, None] @ e[None, :]), axis=(2, 3))
    assert np.all(products <= distlab.povm._cross_product_bounds(e.astype(complex)))


def random_projective(rng, dims, ranks, real):
    """Projectors onto consecutive column blocks (of the given sizes) of a random orthogonal or unitary matrix."""
    side = int(np.prod(dims))
    g = rng.standard_normal((side, side))
    if not real:
        g = g + 1j * rng.standard_normal((side, side))
    q = np.linalg.qr(g)[0]
    edges = np.concatenate([[0], np.cumsum(ranks)])
    return [q[:, a:b] @ q[:, a:b].conj().T for a, b in zip(edges[:-1], edges[1:])]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    dims=st.sampled_from([(1,), (2,), (5,), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2), (4, 4)]),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
    noise=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
    cuts=st.lists(st.integers(0, 100), max_size=11),
)
@example(dims=(2, 2, 2), real=False, seed=1, tol=1e-9, noise=0.0, cuts=[])
@example(dims=(2, 3, 2), real=True, seed=2, tol=1e-9, noise=0.0, cuts=[0, 3, 3, 7])
@example(dims=(10, 10), real=False, seed=3, tol=1e-9, noise=0.0, cuts=[1, 2, 40, 40, 41, 99])
def test_random_projective_povms_agree_with_reference(dims, real, seed, tol, noise, cuts):
    side = int(np.prod(dims))
    cuts = [c % (side + 1) for c in cuts]
    ranks = np.diff(np.sort([0, *cuts, side]))  # ragged, zeros allowed; one element when cuts is empty
    rng = np.random.default_rng(seed)
    elements = np.array(random_projective(rng, dims, ranks, real), dtype=complex)
    if noise:
        kick = rng.standard_normal(elements.shape) + 1j * rng.standard_normal(elements.shape)
        elements += noise * tol * kick / np.max(np.abs(kick))
    answer = agrees_with_reference(Povm(elements, dims), tol)
    if not noise:
        assert answer is True


def test_is_ppt_povm():
    bell = Povm([PHI_PLUS, np.eye(4) - PHI_PLUS], (2, 2))
    assert not is_ppt_povm(bell, tol=1e-9)
    assert is_ppt_povm(Povm([np.eye(4)], (2, 2)), tol=1e-9)
    sep = random_sep_povm((3, 3), 4, seed=5)
    assert verify_sep(sep)
    for cut in [(0,), (1,)]:
        assert is_ppt_povm(sep, partition=cut)
    with pytest.raises(ValueError):
        is_ppt_povm(Povm([np.eye(4)], (2, 2)), partition=(0, 1))


def test_canonical_cuts():
    assert canonical_cuts((2, 2)) == [(0,)]
    assert sorted(canonical_cuts((2, 2, 2))) == [(0,), (0, 1), (1,)]
    assert canonical_cuts((4,)) == []


def test_verify_sep_witness_required_and_checked():
    with pytest.raises(ValueError):
        verify_sep(Povm([np.eye(4)], (2, 2)))
    # a witness with a negative local factor fails
    neg = SepDecomposition([[np.diag([1.0, -1.0])], [np.eye(2)]], [0])
    p = Povm([tensor(np.diag([1.0, -1.0]), np.eye(2))], (2, 2), witness=neg)
    assert not verify_sep(p)
    # a witness that does not reconstruct the element fails
    wrong = SepDecomposition([[np.eye(2) / 2], [np.eye(2)]], [0])
    p = Povm([np.eye(4)], (2, 2), witness=wrong)
    assert not verify_sep(p)


def test_flatten_single_party_tree():
    tree = Locc1Tree((2,), (0,), [KET01], [[0, 0]])
    p = flatten_locc1(tree)
    assert len(p) == 2
    assert np.array_equal(p.elements[0], KET01[0])
    assert verify_sep(p)


def test_flatten_unconditional_computational_tree():
    tree = unconditional_tree((2, 2), {0: KET01, 1: KET01})
    p = flatten_locc1(tree)
    assert len(p) == 4
    expected = [tensor(a, b) for a in KET01 for b in KET01]
    for got, want in zip(p.elements, expected):
        assert np.array_equal(got, want)
    assert verify_povm(p).passed
    assert is_ppt_povm(p)


def test_flatten_conditional_tree_and_order():
    # party 1 measures computational or Hadamard depending on party 0's outcome
    h0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    h1 = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    tree = Locc1Tree((2, 2), (0, 1), [KET01, KET01 + [h0, h1]], [[0, 0], [0, 0, 1, 1]])
    assert verify_locc1(tree)
    p = flatten_locc1(tree)
    assert len(p) == 4
    assert np.array_equal(p.elements[3], tensor(KET01[1], h1))
    assert verify_povm(p).passed


def test_flatten_respects_party_order():
    # party 1 measures first; factors must still be arranged by party index
    tree = unconditional_tree((2, 3), {0: KET01, 1: [np.eye(3) / 3 * i for i in (1, 2)]}, party_order=(1, 0))
    p = flatten_locc1(tree)
    assert p.elements[0].shape == (6, 6)
    assert np.array_equal(p.elements[0], tensor(KET01[0], np.eye(3) / 3))


def test_flatten_rejects_incomplete_family():
    bad = Locc1Tree((2,), (0,), [[np.diag([1.0, 0.0])]], [[0]])
    with pytest.raises(ValueError):
        flatten_locc1(bad)


def test_check_kind_runs_the_checks_in_order_and_stops_at_an_invalid_povm():
    def summary(measurement, kind, **kwargs):
        checks, povm = check_kind(measurement, kind, **kwargs)
        return [(name, ok) for name, _, ok in checks], povm

    bell = Povm([PHI_PLUS, np.eye(4) - PHI_PLUS], (2, 2))
    checks, povm = check_kind(bell, "ppt")
    assert povm is bell
    assert [(name, ok) for name, _, ok in checks] == [("completeness", True), ("element-psd", True), ("ppt", False)]
    assert checks[2][1] == pytest.approx(-0.5, abs=1e-12)
    assert summary(bell, "ppt", partition=1)[0][2] == ("ppt", False)
    assert summary(counterexample_c4(), "projective")[0][2] == ("projective", True)
    assert summary(counterexample_c4(bipartite=True), "sep")[0][2] == ("sep-witness", True)
    assert summary(Povm(1.01 * bell.elements, (2, 2)), "ppt")[0] == [("completeness", False), ("element-psd", True)]
    skew = bell.elements.copy()
    skew[:, [0, 1], [1, 0]] += [[1e-3, -1e-3], [-1e-3, 1e-3]]  # complete, same Hermitian parts, not Hermitian
    assert summary(Povm(skew, (2, 2)), "sep")[0] == [("completeness", True), ("element-psd", False)]

    tree = unconditional_tree((2, 2), {0: KET01, 1: KET01})
    names, povm = summary(tree, "locc1")
    assert names == [("locc1-tree", True), ("completeness", True), ("element-psd", True)]
    assert np.array_equal(povm.elements, flatten_locc1(tree).elements)
    incomplete = Locc1Tree((2,), (0,), [[np.diag([1.0, 0.0])]], [[0]])
    assert summary(incomplete, "locc1") == ([("locc1-tree", False)], None)

    invalid = Povm(1.01 * bell.elements, (2, 2))
    for measurement, kind, partition in [
        (tree, "general", None),
        (bell, "locc1", None),
        (bell, "magic", None),
        (invalid, "ppt", (0, 1)),
        (invalid, "ppt", 2),
        (invalid, "ppt", (0, 0)),
        (invalid, "ppt", ()),
    ]:
        with pytest.raises(ValueError):
            check_kind(measurement, kind, partition=partition)


def test_check_kind_of_a_mixed_batch_masks_the_checks_after_a_failure():
    # member 0 is incomplete, member 1 (the Bell pair) is not PPT, member 2 (a product POVM) passes
    product = np.array([np.kron(k, np.eye(2)) for k in KET01])
    bell = np.array([PHI_PLUS, np.eye(4) - PHI_PLUS])
    checks, povm = check_kind(Povm(np.stack([1.01 * product, bell, product]), (2, 2)), "ppt")
    assert povm.elements.shape == (3, 2, 4, 4)
    assert [name for name, _, _ in checks] == ["completeness", "element-psd", "ppt"]
    (_, residual, complete), (_, worst, psd), (_, worst_pt, ppt) = checks
    np.testing.assert_allclose(residual, [0.01, 0.0, 0.0], rtol=0, atol=1e-12)
    assert complete.tolist() == [False, True, True]
    np.testing.assert_allclose(worst, [0.0, 0.0, 0.0], rtol=0, atol=1e-12)  # completeness does not mask it
    assert psd.tolist() == [True, True, True]
    assert np.isnan(worst_pt[0]) and not np.isnan(worst_pt[1:]).any()  # member 0 failed before ppt
    np.testing.assert_allclose(worst_pt[1:], [-0.5, 0.0], rtol=0, atol=1e-12)
    assert ppt.tolist() == [True, False, True]


def test_locc1_structure_validation():
    two_levels = [KET01, KET01 + KET01]
    assert Locc1Tree((2, 2), (0, 1), two_levels, [[0, 0], [0, 0, 1, 1]]).parents[1].tolist() == [0, 0, 1, 1]
    with pytest.raises(ValueError):  # repeated party
        Locc1Tree((2, 2), (0, 0), two_levels, [[0, 0], [0, 0, 1, 1]])
    with pytest.raises(ValueError):  # wrong first party: its level has the other party's dimension
        Locc1Tree((2, 3), (0, 1), [np.eye(3)[None], KET01], [[0], [0, 0]])
    swapped = {"party": 0, "outcomes": [{"element": matrix_to_json(np.eye(2))}]}
    root = {"party": 1, "outcomes": [{"element": matrix_to_json(np.eye(2)), "children": swapped}]}
    with pytest.raises(ValueError):  # wrong first party, as read from JSON
        locc1_from_json({"dims": [2, 2], "party_order": [0, 1], "root": root})
    assert locc1_from_json({"dims": [2, 2], "party_order": [1, 0], "root": root}).party_order == (1, 0)
    with pytest.raises(ValueError):  # missing level below the root
        Locc1Tree((2, 2), (0, 1), [KET01], [[0, 0]])
    with pytest.raises(ValueError):  # missing family under root outcome 1
        Locc1Tree((2, 2), (0, 1), [KET01, KET01], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):  # empty family
        Locc1Tree((2, 2), (0, 1), [KET01, np.zeros((0, 2, 2))], [[0, 0], []])
    empty = {"party": 1, "outcomes": []}
    root = {"party": 0, "outcomes": [{"element": matrix_to_json(np.eye(2)), "children": empty}]}
    with pytest.raises(ValueError):  # empty family, as read from JSON
        locc1_from_json({"dims": [2, 2], "party_order": [0, 1], "root": root})
    with pytest.raises(ValueError):  # parents out of order
        Locc1Tree((2, 2), (0, 1), two_levels, [[0, 0], [1, 1, 0, 0]])
    with pytest.raises(ValueError):  # one parent index per outcome
        Locc1Tree((2, 2), (0, 1), two_levels, [[0, 0], [0, 0, 1]])


def test_sep_witness_structure_validation():
    assert len(SepDecomposition([KET01 + KET01, KET01 + KET01], [0, 0, 1, 1])) == 2
    with pytest.raises(ValueError):  # owner out of order
        SepDecomposition([KET01 + KET01, KET01 + KET01], [1, 1, 0, 0])
    with pytest.raises(ValueError):  # owner skips element 1
        SepDecomposition([KET01, KET01], [0, 2])
    with pytest.raises(ValueError):  # a party with fewer terms than the others
        SepDecomposition([KET01 + KET01, KET01], [0, 0, 1, 1])
    with pytest.raises(ValueError):  # no party at all
        SepDecomposition([], [0])


def test_restrict_povm_identity_cases():
    assert np.array_equal(
        restrict_povm(Povm([np.eye(9)], (3, 3)), (2, 2)).elements[0], np.eye(4).astype(complex)
    )
    p = random_povm((3, 3), 4, seed=1)
    same = restrict_povm(p, (3, 3))
    for a, b in zip(same.elements, p.elements):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        restrict_povm(p, (4, 3))


def test_restrict_locc1_identity_and_computational():
    tree = random_locc1((3, 3), 2, seed=2)
    same = restrict_locc1(tree, (3, 3))
    assert verify_locc1(same)
    comp3 = [np.diag([float(i == j) for i in range(3)]).astype(complex) for j in range(3)]
    tree = unconditional_tree((3, 3), {0: comp3, 1: comp3})
    small = restrict_locc1(tree, (2, 2))
    flat = flatten_locc1(small)
    # restricted computational projectors: |0><0|, |1><1| and a zero outcome
    assert np.array_equal(flat.elements[0], tensor(KET01[0], KET01[0]))
    assert np.max(np.abs(flat.elements[-1])) == 0.0
    assert verify_povm(flat).passed


def test_restrict_flatten_commutation_fuzz():
    worst = 0.0
    for seed in range(500):
        tree = random_locc1((3, 3), 2, seed=seed)
        a = flatten_locc1(restrict_locc1(tree, (2, 2)))
        b = restrict_povm(flatten_locc1(tree), (2, 2))
        worst = max(
            worst,
            max(float(np.max(np.abs(x - y))) for x, y in zip(a.elements, b.elements)),
        )
    assert worst <= 1e-12


def test_random_povm_properties():
    p = random_povm((3, 3), 5, seed=42)
    assert verify_povm(p, 1e-9).passed
    q = random_povm((3, 3), 5, seed=42)
    for a, b in zip(p.elements, q.elements):
        assert np.array_equal(a, b)
    single = random_povm((2, 2), 1, seed=0)
    assert np.max(np.abs(single.elements[0] - np.eye(4))) <= 1e-12
    with pytest.raises(ValueError):
        random_povm((2, 2), 0, seed=0)


def test_random_ppt_povm_is_ppt():
    p = random_ppt_povm((3, 3), 4, seed=9)
    assert verify_povm(p, 1e-9).passed
    assert is_ppt_povm(p, tol=1e-9)


def test_random_sep_povm_has_multiterm_witness():
    p = random_sep_povm((3, 3), 4, seed=11)
    assert verify_povm(p, 1e-9).passed
    assert verify_sep(p, 1e-9)
    assert isinstance(p.witness, SepDecomposition)
    assert len(p.witness.owner) > len(p)


def test_random_locc1_flatten_is_sep_and_ppt():
    for seed in (0, 1, 2):
        tree = random_locc1((3, 2, 3), 2, seed=seed)
        assert verify_locc1(tree, 1e-9)
        p = flatten_locc1(tree)
        assert verify_povm(p, 1e-9).passed
        assert verify_sep(p, 1e-9)
        assert is_ppt_povm(p, tol=1e-9)


@pytest.mark.parametrize("kind", ["general", "ppt", "sep", "locc1"])
@pytest.mark.parametrize("big,sub", FUZZ_DIM_CONFIGS)
def test_restriction_kind_preservation_smoke(kind, big, sub):
    for seed in range(25):
        assert restriction_defects(kind, big, sub, seed) == []


def test_restriction_defects_reports_a_broken_restricted_tree(monkeypatch):
    monkeypatch.setattr(conftest, "restrict_locc1", with_scaled_root(conftest.restrict_locc1))
    for big, sub in FUZZ_DIM_CONFIGS:
        defects = restriction_defects("locc1", big, sub, seed=0)
        assert [name for name, _ in defects] == ["locc1-tree-validity"]
        assert np.isnan(defects[0][1])


def test_povm_json_roundtrip():
    p = random_sep_povm((2, 2), 3, seed=4)
    back = povm_from_json(povm_to_json(p))
    assert back.kind == "sep"
    for a, b in zip(p.elements, back.elements):
        assert np.array_equal(a, b)
    assert verify_sep(back)
    with pytest.raises(ValueError):
        povm_from_json({"dims": [2], "elements": [], "kind": "general", "bogus": 1})


def test_locc1_json_roundtrip():
    tree = random_locc1((2, 3), 2, seed=8)
    back = locc1_from_json(locc1_to_json(tree))
    assert back.dims == tree.dims
    assert back.party_order == tree.party_order
    a = flatten_locc1(tree)
    b = flatten_locc1(back)
    for x, y in zip(a.elements, b.elements):
        assert np.array_equal(x, y)


def test_povm_with_tree_witness_verifies_sep():
    tree = random_locc1((2, 2), 2, seed=3)
    flat = flatten_locc1(tree)
    p = Povm(flat.elements, (2, 2), kind="locc1", witness=tree)
    assert verify_sep(p)


def reference_levels(root):
    """The conditional families of a recursive tree, level by level, and each family's parent outcome."""
    levels, parents, nodes = [], [], [root]
    while nodes:
        levels.append(np.concatenate([node.elements for node in nodes]))
        parents.append(np.repeat(np.arange(len(nodes)), [len(node.elements) for node in nodes]))
        nodes = [child for node in nodes for child in node.children or ()]
    return levels, parents


def assert_tree_matches_reference(tree, root):
    levels, parents = reference_levels(root)
    for got, want in zip(tree.levels, levels, strict=True):
        assert np.array_equal(got, want)
    for got, want in zip(tree.parents, parents, strict=True):
        assert np.array_equal(got, want)
    flat = flatten_locc1(tree)
    elements, terms = reference_flatten_locc1(root, len(tree.dims))
    assert np.array_equal(flat.elements, np.array(elements))
    assert np.array_equal(flat.witness.owner, np.arange(len(terms)))
    for k, factor in enumerate(flat.witness.factors):
        assert np.array_equal(factor, np.array([term[0][k] for term in terms]))
    reference_json = {"dims": list(tree.dims), "party_order": list(tree.party_order)}
    reference_json["root"] = reference_node_to_json(root)
    assert json.dumps(locc1_to_json(tree)) == json.dumps(reference_json)


@pytest.mark.parametrize("dims", [(3, 3), (4, 2), (3, 2, 3)])
@pytest.mark.parametrize("seed", [0, 7, 301, 2024])
def test_samplers_reproduce_the_per_element_reference_stream(dims, seed):
    # bit for bit: a seeded sample, and so every fuzz report, must not change
    assert np.array_equal(random_povm(dims, 4, seed).elements, reference_random_povm(dims, 4, seed))
    assert np.array_equal(random_ppt_povm(dims, 4, seed).elements, reference_random_ppt_povm(dims, 4, seed))
    sep = random_sep_povm(dims, 4, seed)
    elements, groups = reference_random_sep_povm(dims, 4, seed)
    assert np.array_equal(sep.elements, np.array(elements))
    terms = [term for group in groups for term in group]
    assert sep.witness.owner.tolist() == [g for g, group in enumerate(groups) for _ in group]
    for k, factor in enumerate(sep.witness.factors):
        assert np.array_equal(factor, np.array([term[k] for term in terms]))
    # the flat witness, regrouped per element, rebuilds the elements by the original running sums
    owner, factors = sep.witness.owner, sep.witness.factors
    nested = [[tuple(f[t] for f in factors) for t in np.flatnonzero(owner == e)] for e in range(4)]
    assert np.array_equal(np.array(reference_sep_elements(nested, sep.elements)), sep.elements)
    order = tuple(reversed(range(len(dims))))
    for party_order in (None, order):
        tree = random_locc1(dims, 2, seed, party_order)
        assert_tree_matches_reference(tree, reference_random_locc1(dims, 2, seed, party_order))


SAMPLERS = {
    "general": lambda dims, seed: random_povm(dims, 4, seed),
    "ppt": lambda dims, seed: random_ppt_povm(dims, 4, seed),
    "sep": lambda dims, seed: random_sep_povm(dims, 4, seed),
    "locc1": lambda dims, seed: random_locc1(dims, 2, seed),
}


def assert_block_matches_reference(block, kind, dims, seeds):
    """``block`` is the oracle's samples of ``seeds``, one after another, bit for bit."""
    if kind in ("general", "ppt"):
        reference = reference_random_povm if kind == "general" else reference_random_ppt_povm
        assert np.array_equal(block.elements, np.array([reference(dims, 4, seed) for seed in seeds]))
    elif kind == "sep":
        samples = [reference_random_sep_povm(dims, 4, seed) for seed in seeds]
        assert np.array_equal(block.elements, np.array([elements for elements, _ in samples]))
        # member b's element g owns witness terms as element 4 b + g of the block
        groups = [(b, g, group) for b, (_, sample) in enumerate(samples) for g, group in enumerate(sample)]
        terms = [(4 * b + g, term) for b, g, group in groups for term in group]
        assert block.witness.owner.tolist() == [owner for owner, _ in terms]
        for k, factor in enumerate(block.witness.factors):
            assert np.array_equal(factor, np.array([term[k] for _, term in terms]))
    else:
        trees = [reference_levels(reference_random_locc1(dims, 2, seed)) for seed in seeds]
        for depth, level in enumerate(block.levels):
            assert np.array_equal(level, np.array([levels[depth] for levels, _ in trees]))
        for depth, parents in enumerate(block.parents):
            assert np.array_equal(parents, trees[0][1][depth])


def fuzz_block_size(kind, dims):
    """Trials in one of the fuzz's blocks: their elements (a tree's once flattened) fill BLOCK_BYTES."""
    outcomes = 2 ** len(dims) if kind == "locc1" else 4
    return -(-BLOCK_BYTES // (outcomes * int(np.prod(dims)) ** 2 * 16))


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
@pytest.mark.parametrize("dims", [(3, 3), (3, 2, 3), (6, 6)])
@pytest.mark.parametrize("size", [1, 7, "fuzz"])
def test_sampler_blocks_reproduce_the_per_element_reference(kind, dims, size):
    size = fuzz_block_size(kind, dims) if size == "fuzz" else size
    seeds = [_trial_seed(9, 2, offset) for offset in range(size)]
    block = SAMPLERS[kind](dims, seeds)
    assert_block_matches_reference(block, kind, dims, seeds)
    alone = stack_batch([SAMPLERS[kind](dims, seed) for seed in seeds])
    for got, want in zip(*(tree.levels if kind == "locc1" else (tree.elements,) for tree in (block, alone))):
        assert np.array_equal(got, want)


class _ZeroDraws:
    """A generator whose normal draws all come out 0, so they cannot be normalized; it draws the rest as given."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, size):
        return np.zeros_like(self.rng.standard_normal(size))

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _singular_for(monkeypatch, keys):
    """Make the generators of ``keys`` (a seed for attempt 0, ``(seed, attempt)`` after it) draw zeros."""
    default_rng = np.random.default_rng

    def rng(key):
        return _ZeroDraws(default_rng(key)) if (key if np.ndim(key) == 0 else tuple(key)) in keys else default_rng(key)

    monkeypatch.setattr(np.random, "default_rng", rng)


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
@pytest.mark.parametrize("attempts", [1, 3])
def test_a_singular_member_alone_draws_again(monkeypatch, kind, attempts):
    dims, seeds = (3, 2, 3), [_trial_seed(4, 0, offset) for offset in range(7)]
    before = SAMPLERS[kind](dims, seeds)
    bad = seeds[3]
    _singular_for(monkeypatch, {bad} | {(bad, attempt) for attempt in range(1, attempts)})
    block = SAMPLERS[kind](dims, seeds)
    assert_block_matches_reference(block, kind, dims, seeds)
    # the other members keep their samples, member 3 has a new one
    for got, was in zip(*(b.levels if kind == "locc1" else (b.elements,) for b in (block, before))):
        assert np.array_equal(np.delete(got, 3, axis=0), np.delete(was, 3, axis=0))
        assert not np.array_equal(got[3], was[3])


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
def test_a_member_out_of_retries_raises_as_one_sample_does(monkeypatch, kind):
    dims, seeds = (3, 3), [_trial_seed(4, 1, offset) for offset in range(7)]
    _singular_for(monkeypatch, {seeds[5]} | {(seeds[5], attempt) for attempt in range(1, 4)})
    reference = {
        "general": reference_random_povm,
        "ppt": reference_random_ppt_povm,
        "sep": reference_random_sep_povm,
        "locc1": reference_random_locc1,
    }[kind]
    with pytest.raises(ValueError) as expected:
        reference(dims, 2 if kind == "locc1" else 4, seeds[5])
    with pytest.raises(ValueError) as raised:
        SAMPLERS[kind](dims, seeds)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) == "random generation failed after 3 retries: singular normalization"


def test_a_degenerate_ppt_weight_raises_for_the_first_member_it_occurs_in(monkeypatch):
    dims, seeds = (3, 3), list(range(20, 27))
    c = np.trace(random_povm(dims, 4, seeds).elements, axis1=-2, axis2=-1).real / 9
    # a margin at the second least trace of the members after member 0: two members weigh at least 1, member 0 less
    margin = float(np.sort(c[1:].min(axis=1))[1])
    assert c[0].min() > margin
    monkeypatch.setattr(distlab.povm, "PPT_MARGIN", margin)
    errors = []
    for seed in seeds:
        try:
            random_ppt_povm(dims, 4, seed)
            errors.append(None)
        except ValueError as exc:
            errors.append(str(exc))
    raised_by = [error for error in errors if error]
    assert errors[0] is None and len(set(raised_by)) >= 2
    first = raised_by[0]
    assert first.startswith("degenerate mixing weight")
    with pytest.raises(ValueError) as raised:
        random_ppt_povm(dims, 4, seeds)
    assert str(raised.value) == first


def test_ragged_tree_matches_the_recursive_reference():
    # families of 1, 2 and 3 outcomes on (2, 3, 2)
    comp3 = np.eye(3)[:, :, None] * np.eye(3)[:, None, :]
    h0 = np.array([[0.5, 0.5], [0.5, 0.5]])
    root = ReferenceNode(
        0,
        KET01,
        [
            ReferenceNode(1, [np.eye(3)], [ReferenceNode(2, KET01)]),
            ReferenceNode(
                1,
                comp3,
                [ReferenceNode(2, [np.eye(2)]), ReferenceNode(2, [h0, np.eye(2) - h0]), ReferenceNode(2, KET01)],
            ),
        ],
    )
    obj = {"dims": [2, 3, 2], "party_order": [0, 1, 2], "root": reference_node_to_json(root)}
    tree = locc1_from_json(json.loads(json.dumps(obj)))
    assert [len(level) for level in tree.levels] == [2, 4, 7]
    assert tree.parents[2].tolist() == [0, 0, 1, 2, 2, 3, 3]
    assert verify_locc1(tree)
    assert_tree_matches_reference(tree, root)
    assert verify_povm(flatten_locc1(tree)).passed
    small = restrict_locc1(tree, (2, 2, 2))
    assert [len(level) for level in small.levels] == [2, 4, 7]
    assert verify_locc1(small)  # restriction keeps every family complete
    assert np.array_equal(flatten_locc1(small).elements, restrict_povm(flatten_locc1(tree), (2, 2, 2)).elements)


def test_noisy_projective_povms_are_certified_without_exact_products(exact_pairs):
    """Random projective POVMs on sides up to 100 with entrywise noise of 1e-3 tol: every pair
    is cleared by the spectral-norm bound (Frobenius norms of E_j, R_j and M_j left 21 of them
    with pairs to multiply), and every verdict is the pairwise one."""
    systems = [(2,), (3, 3), (2, 3, 2), (4, 4), (5, 5), (6, 6), (8, 8), (10, 10)]
    for seed in range(100):
        rng = np.random.default_rng([14, seed])
        dims, real, tol = systems[seed % 8], bool(seed % 2), [1e-12, 1e-9, 1e-6][seed % 3]
        side = int(np.prod(dims))
        n = int(rng.integers(1, min(side, 10) + 1))  # at most 10 elements keep the noisy sum complete
        ranks = np.diff(np.sort(np.concatenate([[0, side], rng.integers(0, side + 1, n - 1)])))
        elements = np.array(random_projective(rng, dims, ranks, real), dtype=complex)
        kick = rng.standard_normal(elements.shape) + 1j * rng.standard_normal(elements.shape)
        elements += 1e-3 * tol * kick / np.max(np.abs(kick))
        assert agrees_with_reference(Povm(elements, dims), tol) is True
        assert exact_pairs.pop() == []
    assert exact_pairs == []
