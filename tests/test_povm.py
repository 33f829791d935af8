"""Tests for POVM verification, restriction, and the random generators."""

import numpy as np
import pytest
from conftest import FUZZ_DIM_CONFIGS, restriction_defects
from sampler_reference import reference_povm_elements, reference_random_povm, reference_random_ppt_povm

import distlab.povm
from distlab.linalg import tensor
from distlab.povm import (
    Locc1Tree,
    LoccNode,
    Povm,
    SepDecomposition,
    canonical_cuts,
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
    verify_locc1,
    verify_povm,
    verify_sep,
)

PHI_PLUS = np.zeros((4, 4), dtype=complex)
PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5

KET01 = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


def unconditional_tree(dims, local_povms, party_order=None):
    order = tuple(party_order) if party_order is not None else tuple(range(len(dims)))

    def node(depth):
        party = order[depth]
        children = None
        if depth + 1 < len(dims):
            children = [node(depth + 1) for _ in local_povms[party]]
        return LoccNode(party, local_povms[party], children)

    return Locc1Tree(dims, order, node(0))


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
    neg = SepDecomposition([(((np.diag([1.0, -1.0])), np.eye(2)),)])
    p = Povm([tensor(np.diag([1.0, -1.0]), np.eye(2))], (2, 2), witness=neg)
    assert not verify_sep(p)
    # a witness that does not reconstruct the element fails
    wrong = SepDecomposition([((np.eye(2) / 2, np.eye(2)),)])
    p = Povm([np.eye(4)], (2, 2), witness=wrong)
    assert not verify_sep(p)


def test_flatten_single_party_tree():
    tree = Locc1Tree((2,), (0,), LoccNode(0, KET01))
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
    root = LoccNode(
        0,
        KET01,
        [LoccNode(1, KET01), LoccNode(1, [h0, h1])],
    )
    tree = Locc1Tree((2, 2), (0, 1), root)
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
    bad = Locc1Tree((2,), (0,), LoccNode(0, [np.diag([1.0, 0.0])]))
    with pytest.raises(ValueError):
        flatten_locc1(bad)


def test_locc1_structure_validation():
    with pytest.raises(ValueError):
        Locc1Tree((2, 2), (0, 0), LoccNode(0, KET01))
    with pytest.raises(ValueError):
        Locc1Tree((2, 2), (0, 1), LoccNode(1, KET01))
    with pytest.raises(ValueError):
        Locc1Tree((2, 2), (0, 1), LoccNode(0, KET01))  # missing children
    with pytest.raises(ValueError):
        LoccNode(0, KET01, [])


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
    assert sum(len(et) for et in p.witness.terms) > len(p)


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


def tree_elements(node):
    """Every conditional family of a tree, depth first in outcome order."""
    yield node.elements
    for child in node.children or ():
        yield from tree_elements(child)


@pytest.mark.parametrize("dims", [(3, 3), (4, 2), (3, 2, 3)])
@pytest.mark.parametrize("seed", [0, 7, 301, 2024])
def test_samplers_reproduce_the_per_element_reference_stream(dims, seed, monkeypatch):
    # bit for bit: a seeded sample, and so every fuzz report, must not change
    assert np.array_equal(random_povm(dims, 4, seed).elements, reference_random_povm(dims, 4, seed))
    assert np.array_equal(random_ppt_povm(dims, 4, seed).elements, reference_random_ppt_povm(dims, 4, seed))
    sep, tree = random_sep_povm(dims, 4, seed), random_locc1(dims, 2, seed)
    monkeypatch.setattr(distlab.povm, "_random_povm_elements", reference_povm_elements)
    ref_sep, ref_tree = random_sep_povm(dims, 4, seed), random_locc1(dims, 2, seed)
    assert np.array_equal(sep.elements, np.array(ref_sep.elements))
    for terms, ref_terms in zip(sep.witness.terms, ref_sep.witness.terms, strict=True):
        for term, ref_term in zip(terms, ref_terms, strict=True):
            assert all(np.array_equal(f, g) for f, g in zip(term, ref_term, strict=True))
    for family, ref_family in zip(tree_elements(tree.root), tree_elements(ref_tree.root), strict=True):
        assert np.array_equal(family, ref_family)
