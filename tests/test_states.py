"""Tests for the state family constructors."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import maximally_mixed

import distlab.states as states_module
from distlab.states import (
    State,
    StateSet,
    bell_states,
    domino_states,
    embed_set,
    embed_state,
    extended_domino_basis,
    generalized_bell_states,
    mutually_orthogonal,
    pairwise_overlaps,
    pure_state,
    schmidt_rank,
    state_set_from_json,
    state_set_to_json,
    state_vector,
)


def stacked_vectors(states):
    return np.column_stack([state_vector(s) for s in states])


def test_pure_state_basics():
    s = pure_state([1, 0, 0, 0], (2, 2))
    assert np.array_equal(s.rho, np.diag([1.0, 0, 0, 0]).astype(complex))
    # auto-normalization: unnormalized (1,1) gives the |+><+| projector
    s = pure_state([1, 1], (2,))
    assert np.max(np.abs(s.rho - np.full((2, 2), 0.5))) <= 1e-15
    phi = pure_state([1, 0, 0, 1], (2, 2))
    assert phi.rho[0, 0] == pytest.approx(0.5)
    assert phi.rho[0, 3] == pytest.approx(0.5)
    assert phi.rho[3, 3] == pytest.approx(0.5)


def test_pure_state_rejects_zero_and_mismatch():
    with pytest.raises(ValueError):
        pure_state([0, 0, 0, 0], (2, 2))
    with pytest.raises(ValueError):
        pure_state([1, 0, 0], (2, 2))


def test_state_invariants_enforced():
    with pytest.raises(ValueError):
        State(np.diag([0.5, 0.6]).astype(complex), (2,))
    with pytest.raises(ValueError):
        State(np.diag([1.5, -0.5]).astype(complex), (2,))
    with pytest.raises(ValueError):
        State(np.array([[1, 1], [0, 0]], dtype=complex), (2,))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_state_rejects_a_nan_or_infinite_entry(entry, where):
    # tier-1 turns a RuntimeWarning (inf - inf on the way) into a failure
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[where] = entry
    with pytest.raises(ValueError, match="^state 'x' has a NaN or Infinity entry$"):
        State(rho, (2,), label="x")


def test_bell_states_orthonormal():
    s = bell_states()
    assert len(s) == 4
    g = pairwise_overlaps(s)
    assert np.max(np.abs(g - np.eye(4))) <= 1e-12
    # element (0,0) is |Phi+>
    expected = np.zeros((4, 4), dtype=complex)
    expected[np.ix_([0, 3], [0, 3])] = 0.5
    assert np.max(np.abs(s[0].rho - expected)) <= 1e-15
    assert not s.rhos.imag.any()  # exact phases +-1: every Bell problem built from them is real


def test_generalized_bell_maximally_mixed_marginals():
    s = generalized_bell_states(3)
    assert len(s) == 9
    assert np.max(np.abs(pairwise_overlaps(s) - np.eye(9))) <= 1e-12
    for st_ in s:
        t = st_.rho.reshape(3, 3, 3, 3)  # (a, b, a', b')
        for marg in (np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)):
            assert np.max(np.abs(marg - np.eye(3) / 3)) <= 1e-12


def test_generalized_bell_rejects_small_dimension():
    with pytest.raises(ValueError):
        generalized_bell_states(1)


def test_domino_states_form_orthonormal_product_basis():
    s = domino_states()
    assert len(s) == 9
    assert np.max(np.abs(pairwise_overlaps(s) - np.eye(9))) <= 1e-12
    for st_ in s:
        assert schmidt_rank(st_) == 1
    # |1>|1> is the single diagonal entry at multi-index (1,1)
    center = [st_ for st_ in s if st_.label == "|1>|1>"][0]
    expected = np.zeros((9, 9), dtype=complex)
    expected[4, 4] = 1.0
    assert np.array_equal(center.rho, expected)


def test_extended_domino_basis_cases():
    assert len(extended_domino_basis(3, 3)) == 9
    big = extended_domino_basis(4, 4)
    assert len(big) == 16
    assert np.max(np.abs(pairwise_overlaps(big) - np.eye(16))) <= 1e-12
    v = stacked_vectors(big)
    assert np.max(np.abs(v.conj().T @ v - np.eye(16))) <= 1e-9
    rect = extended_domino_basis(3, 4)
    assert len(rect) == 12
    for st_ in rect:
        assert schmidt_rank(st_) == 1
    with pytest.raises(ValueError):
        extended_domino_basis(2, 4)


def reference_projectors(vectors) -> np.ndarray:
    """One state at a time: the vector over its ``np.linalg.norm``, and ``np.outer`` with its conjugate."""
    out = []
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        v = v / np.linalg.norm(v)
        out.append(np.outer(v, v.conj()))
    return np.array(out)


def reference_power(k: int, d: int):
    """omega^k for omega = exp(2 pi i / d): exactly 1, i, -1 or -i at the quarter turns."""
    k %= d
    quarter = Fraction(4 * k, d)
    if quarter.denominator == 1:
        return [1, 1j, -1, -1j][int(quarter)]
    return np.exp(2j * np.pi * np.arange(d) / d)[k]


def reference_gbell_vectors(d):
    out = []
    for a in range(d):
        for b in range(d):
            v = np.zeros(d * d, dtype=complex)
            for m in range(d):
                v[m * d + (m + a) % d] = reference_power(m * b, d) / np.sqrt(d)
            out.append(v)
    return out


H = 1 / np.sqrt(2)
# The Domino kets |x>|y> in the order and with the labels of domino_states.
REFERENCE_DOMINO = [
    ((1, 0, 0), (H, H, 0), "|0>|0+1>"),
    ((1, 0, 0), (H, -H, 0), "|0>|0-1>"),
    ((H, H, 0), (0, 0, 1), "|0+1>|2>"),
    ((H, -H, 0), (0, 0, 1), "|0-1>|2>"),
    ((0, 0, 1), (0, H, H), "|2>|1+2>"),
    ((0, 0, 1), (0, H, -H), "|2>|1-2>"),
    ((0, H, H), (1, 0, 0), "|1+2>|0>"),
    ((0, H, -H), (1, 0, 0), "|1-2>|0>"),
    ((0, 1, 0), (0, 1, 0), "|1>|1>"),
]


def reference_domino_projectors():
    kets = [(np.array(x, dtype=complex), np.array(y, dtype=complex)) for x, y, _ in REFERENCE_DOMINO]
    return reference_projectors([np.kron(x, y) for x, y in kets])


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 10])
def test_generalized_bell_stack_is_the_per_state_construction_bit_for_bit(d):
    family = generalized_bell_states(d)
    assert_same_bits(family.rhos, reference_projectors(reference_gbell_vectors(d)))
    assert family.labels == tuple(f"bell[{a},{b}]" for a in range(d) for b in range(d))
    assert (family.dims, family.label) == ((d, d), f"gbell(d={d})")


def test_domino_stack_is_the_per_state_construction_bit_for_bit():
    family = domino_states()
    assert_same_bits(family.rhos, reference_domino_projectors())
    assert family.labels == tuple(label for _, _, label in REFERENCE_DOMINO)
    assert (family.dims, family.label) == ((3, 3), "domino")


@pytest.mark.parametrize("m,n", [(3, 3), (4, 5), (10, 10)])
def test_extended_domino_stack_is_the_per_state_construction_bit_for_bit(m, n):
    inside = [i * n + j for i in range(3) for j in range(3)]
    rhos = []
    for small in reference_domino_projectors():
        big = np.zeros((m * n, m * n), dtype=complex)
        big[np.ix_(inside, inside)] = small
        rhos.append(big)
    rest = [(i, j) for i in range(m) for j in range(n) if i >= 3 or j >= 3]
    rhos.extend(reference_projectors(np.eye(m * n)[[i * n + j for i, j in rest]]))
    family = extended_domino_basis(m, n)
    assert_same_bits(family.rhos, np.array(rhos))
    assert family.labels == tuple(label for _, _, label in REFERENCE_DOMINO) + tuple(f"|{i}>|{j}>" for i, j in rest)
    assert (family.dims, family.label) == ((m, n), f"domino-ext({m},{n})")


@pytest.mark.parametrize("length", [1, 2, 9, 17, 100])
def test_pure_state_is_np_outer_of_the_normalized_vector_bit_for_bit(length):
    rng = np.random.default_rng(length)
    v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    v[::3] = 0
    v[-1] = 0.5 - 2j
    assert_same_bits(pure_state(v, (length,), label="v").rho, reference_projectors([v])[0])


def test_embed_state_preserves_spectrum_and_label():
    phi = pure_state([1, 0, 0, 1], (2, 2), label="phi+")
    same = embed_state(phi, (2, 2))
    assert np.array_equal(same.rho, phi.rho)
    big = embed_state(phi, (3, 3))
    assert big.label == "phi+"
    assert np.trace(big.rho).real == pytest.approx(1.0, abs=1e-12)
    w_small = np.sort(np.linalg.eigvalsh(phi.rho))
    w_big = np.sort(np.linalg.eigvalsh(big.rho))
    assert np.max(np.abs(w_big[-4:] - w_small)) <= 1e-12
    assert np.max(np.abs(w_big[:-4])) <= 1e-12


def test_embed_commutes_with_mixing_exactly():
    a = pure_state([1, 0, 0, 1], (2, 2))
    b = pure_state([0, 1, 1, 0], (2, 2))
    p = 0.3
    lhs = embed_state(State(p * a.rho + (1 - p) * b.rho, (2, 2)), (3, 3)).rho
    rhs = p * embed_state(a, (3, 3)).rho + (1 - p) * embed_state(b, (3, 3)).rho
    assert np.array_equal(lhs, rhs)


def test_schmidt_rank():
    assert schmidt_rank(pure_state([1, 0, 0, 0], (2, 2))) == 1
    phi = pure_state([1, 0, 0, 1], (2, 2))
    assert schmidt_rank(phi) == 2
    embedded = embed_state(phi, (3, 3))
    assert schmidt_rank(embedded) == 2
    # independent check: rank of the reshaped amplitude matrix
    psi = state_vector(embedded)
    assert np.linalg.matrix_rank(psi.reshape(3, 3), tol=1e-9) == 2


def test_schmidt_rank_rejects_mixed_input():
    with pytest.raises(ValueError):
        schmidt_rank(maximally_mixed((2, 2)))


def test_schmidt_rank_cut_validation():
    ghz = pure_state([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
    assert schmidt_rank(ghz, cut=(0,)) == 2
    assert schmidt_rank(ghz, cut=(0, 1)) == 2
    with pytest.raises(ValueError):
        schmidt_rank(ghz, cut=())
    with pytest.raises(ValueError):
        schmidt_rank(ghz, cut=(0, 1, 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5))
def test_schmidt_rank_invariant_under_embedding(seed, d):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    s = pure_state(v, (2, 2))
    assert schmidt_rank(embed_state(s, (d, d))) == schmidt_rank(s)


def test_mutually_orthogonal():
    assert mutually_orthogonal(domino_states(), 1e-12)
    zero_plus = StateSet([pure_state([1, 0], (2,)), pure_state([1, 1], (2,))])
    assert not mutually_orthogonal(zero_plus, 1e-9)
    assert mutually_orthogonal(StateSet([pure_state([1, 1], (2,))]), 1e-12)


def test_state_set_json_roundtrip():
    s = domino_states()
    obj = state_set_to_json(s)
    back = state_set_from_json(obj)
    assert back.dims == (3, 3)
    assert len(back) == 9
    for a, b in zip(s, back):
        assert a.label == b.label
        assert np.array_equal(a.rho, b.rho)
    with pytest.raises(ValueError):
        state_set_from_json({"dims": [3, 3], "states": [], "extra": 1})


def test_state_set_requires_common_dims():
    with pytest.raises(ValueError):
        StateSet([pure_state([1, 0], (2,)), pure_state([1, 0, 0], (3,))])
    with pytest.raises(ValueError):
        StateSet([])


def test_embed_set():
    small = bell_states()
    big = embed_set(small, (3, 3))
    assert big.dims == (3, 3)
    assert len(big) == 4


@pytest.mark.parametrize(
    "bad,message",
    [
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "is not Hermitian"),
        (np.eye(2), "has trace 2.0, expected 1"),
        (np.diag([1.5, -0.5]), "has negative eigenvalue"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "has a NaN or Infinity entry"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "has a NaN or Infinity entry"),
    ],
)
def test_stack_constructor_rejects_with_the_state_message(bad, message):
    stack = np.stack([np.diag([1.0, 0.0]), bad])
    with pytest.raises(ValueError, match=f"state 'second' {message}"):
        StateSet.from_stack(stack, (2,), ["first", "second"])


def per_state_error(stack, dims, labels):
    """The message of the first ``State`` that rejects its matrix, checking one matrix at a time."""
    for rho, lab in zip(stack, labels):
        try:
            State(rho, dims, label=lab)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("block_bytes", [None, 2 * 16 * 4 * 4], ids=["one-block", "two-per-block"])
@pytest.mark.parametrize("position", [0, 3, 6], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "bad",
    [
        np.diag([0.5, 0.5, 0, 0]) + 1e-9 * np.eye(4, k=1),
        np.diag([0.5, 0.5, 0.5, 0]),
        np.diag([0.5 + 1e-7, 0.5, 0, -1e-7]),
        np.diag([0.5, 0.5, np.nan, 0]),
    ],
    ids=["non-hermitian", "wrong-trace", "negative-eigenvalue", "nan-entry"],
)
def test_stack_constructor_raises_the_per_state_error(monkeypatch, bad, position, block_bytes):
    if block_bytes:
        monkeypatch.setattr(states_module, "BLOCK_BYTES", block_bytes)
    good = [np.diag(np.roll([1.0, 0, 0, 0], k)) for k in range(7)]
    labels = [f"s{k}" for k in range(7)]
    stack = np.array(good[:position] + [bad] + good[position + 1 :], dtype=complex)
    expected = per_state_error(stack, (2, 2), labels)
    assert expected is not None and expected.startswith(f"state 's{position}' ")
    with pytest.raises(ValueError) as exc:
        StateSet.from_stack(stack, (2, 2), labels)
    assert str(exc.value) == expected
    if position < 6:  # a later failure of another kind does not mask the first one
        stack[6] = np.eye(4)
        with pytest.raises(ValueError) as exc:
            StateSet.from_stack(stack, (2, 2), labels)
        assert str(exc.value) == expected


def test_stack_constructor_adopts_the_stack():
    stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    s = StateSet.from_stack(stack, (2,), ["zero", "one"], label="basis")
    assert s.rhos is stack
    assert (s.dims, s.labels, s.label, len(s)) == ((2,), ("zero", "one"), "basis", 2)
    assert [t.label for t in s] == ["zero", "one"]
    assert np.array_equal(StateSet(list(s)).rhos, stack)
    with pytest.raises(ValueError):
        StateSet.from_stack(stack, (2,), ["zero"])


def test_members_and_subsets_are_not_checked_again(monkeypatch):
    dominoes = domino_states()

    def no_eigen_call(*args, **kwargs):
        raise AssertionError("a member of a checked set was checked again")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigen_call)
    monkeypatch.setattr(np.linalg, "eigh", no_eigen_call)
    members = list(dominoes)
    part = dominoes.subset([8, 0, 3])
    monkeypatch.undo()
    assert [s.label for s in members] == list(dominoes.labels)
    for k, s in enumerate(members):
        assert np.array_equal(s.rho, dominoes.rhos[k])
        assert s.dims == dominoes.dims
    assert np.array_equal(part.rhos, dominoes.rhos[[8, 0, 3]])
    assert part.labels == tuple(dominoes.labels[k] for k in (8, 0, 3))


@pytest.mark.parametrize("lam", [-1.01e-9, -2e-9, -0.3])
def test_negative_state_reports_its_eigvalsh_minimum(lam):
    rng = np.random.default_rng(14)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    rho = (u * np.array([1 - lam, lam, 0, 0])) @ u.conj().T
    expected = f"state 'neg' has negative eigenvalue {np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]:.3e}"
    with pytest.raises(ValueError) as exc:
        State(rho, (2, 2), label="neg")
    assert str(exc.value) == expected
    with pytest.raises(ValueError) as exc:
        StateSet.from_stack([np.eye(4) / 4, rho, np.eye(4) / 4], (2, 2), ["mixed", "neg", "mixed"])
    assert str(exc.value) == expected


def test_valid_states_are_certified_without_an_eigensolver(monkeypatch):
    dominoes, phi = domino_states(), pure_state([1, 0, 0, 1], (2, 2)).rho

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("a valid state was checked by an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    assert State(phi, (2, 2)).side == 4
    assert len(StateSet.from_stack(dominoes.rhos, (3, 3), dominoes.labels)) == 9
    assert embed_set(dominoes, (5, 4)).dims == (5, 4)
