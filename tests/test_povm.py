"""Tests for POVM verification, restriction, and the random generators."""

import json

import conftest
import numpy as np
import pytest
from conftest import FUZZ_DIM_CONFIGS, hadamard_sep_povm, restriction_defects, with_scaled_root
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
from distlab.discrimination import _trial_seed, check_perfect, check_unambiguous
from distlab.linalg import BLOCK_BYTES, matrix_to_json, psd_certified, tensor
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
    is_valid,
    locc1_from_json,
    locc1_to_json,
    povm_from_json,
    povm_to_json,
    ppt_min_eigenvalue,
    random_locc1,
    random_povm,
    random_ppt_povm,
    random_sep_povm,
    restrict_locc1,
    restrict_povm,
    tree_povm,
    verify_locc1,
    verify_povm,
    verify_sep,
)
from distlab.states import StateSet, bell_states, extended_domino_basis

PHI_PLUS = np.zeros((4, 4), dtype=complex)
PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5

KET01 = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
EYE2 = matrix_to_json(np.eye(2))


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
    with pytest.raises(ValueError, match=r"^element stack shape \(1, 3, 3\) does not match system side 4$"):
        Povm([np.eye(3)], (2, 2))


def malformed_witnesses():
    """(elements, witness, message) of a witness of the Hadamard SEP POVM on (2, 2) that no POVM may hold."""
    good = hadamard_sep_povm()
    first, second = good.witness.factors
    return {
        "too-few-elements": (good.elements, SepDecomposition([first[:3], second[:3]], np.arange(3)),
                             "witness covers 3 elements, POVM has 4"),
        "batch-of-two": (np.stack([good.elements] * 2), good.witness, "witness covers 4 elements, POVM has 8"),
        "too-few-factor-stacks": (good.elements, SepDecomposition([first], np.arange(4)),
                                  "witness term does not have one factor per party"),
        "factor-of-the-wrong-side": (good.elements, SepDecomposition([first, np.ones((4, 3, 3))], np.arange(4)),
                                     r"witness factor shape \(3, 3\) mismatches party 1"),
        "tree-on-other-dims": (good.elements, random_locc1((2, 3), 2, seed=1),
                               r"witness factor shape \(3, 3\) mismatches party 1"),
        "not-a-witness": (good.elements, [first, second], "a witness is a SepDecomposition, a Locc1Tree or None"),
    }


@pytest.mark.parametrize("case", sorted(malformed_witnesses()))
def test_a_malformed_witness_raises_where_the_povm_is_built(case):
    elements, witness, message = malformed_witnesses()[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        Povm(elements, (2, 2), kind="sep", witness=witness)


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
    p = hadamard_sep_povm()
    assert p.dims == (2, 2)
    assert np.array_equal(p.elements, counterexample_c4().elements)
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


@pytest.mark.parametrize("seed", range(6))
def test_cross_product_bound_holds_for_float64_stacks(seed):
    """The same bound on real stacks kept in float64, as ``is_projective`` takes a real POVM: a real ``eigh``."""
    rng = np.random.default_rng([seed, 64])
    n, side = rng.integers(2, 6), rng.integers(1, 13)
    g = rng.standard_normal((n, side, side))
    e = g @ np.swapaxes(g, 1, 2) / side + 0.05 * rng.standard_normal((n, side, side))
    products = np.max(np.abs(e[:, None] @ e[None, :]), axis=(2, 3))
    bounds = distlab.povm._cross_product_bounds(e)
    assert e.dtype == bounds.dtype == np.float64
    assert np.all(products <= bounds)


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


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    dims=st.sampled_from([(1,), (2,), (5,), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2), (4, 4)]),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
    noise=st.sampled_from([0.1, 0.5, 1.0, 2.0, 10.0]),
    symmetric=st.booleans(),
    cuts=st.lists(st.integers(0, 100), max_size=11),
)
@example(dims=(10, 10), seed=4, tol=1e-9, noise=0.5, symmetric=True, cuts=[1, 2, 40, 40, 41, 99])
def test_random_projective_povms_with_real_noise_agree_with_reference(dims, seed, tol, noise, symmetric, cuts):
    """Real projective POVMs kicked by real noise stay real, so they are checked in float64, and their
    residuals land on both sides of ``tol``: every verdict is the pairwise one of the complex oracle."""
    side = int(np.prod(dims))
    cuts = [c % (side + 1) for c in cuts]
    ranks = np.diff(np.sort([0, *cuts, side]))
    rng = np.random.default_rng(seed)
    elements = np.array(random_projective(rng, dims, ranks, True))
    kick = rng.standard_normal(elements.shape)
    if symmetric:  # Hermitian noise leaves more POVMs valid, so more reach the projectivity test
        kick += np.swapaxes(kick, 1, 2)
    elements += noise * tol * kick / np.max(np.abs(kick))
    p = Povm(elements, dims)
    assert not np.any(p.elements.imag)
    agrees_with_reference(p, tol)


def local_phases(dims, seed=None):
    """The diagonal of a local diagonal unitary D = D_1 (x) ... (x) D_k: random phases for a seed, else the
    quarter turns by which a real number moves exactly onto an axis: i**j at index j of the last party with more
    than one level, (-1)**j of the others."""
    diag = np.ones(1, dtype=complex)
    rng = np.random.default_rng(seed)
    last = max(k for k, d in enumerate(dims) if d > 1)
    for k, d in enumerate(dims):
        if seed is None:
            local = np.array([1, 1j, -1, -1j])[np.arange(d) * (1 if k == last else 2) % 4]
        else:
            local = np.exp(2j * np.pi * rng.random(d))
        diag = (diag[:, None] * local[None, :]).ravel()
    return diag


def phase_twin(stack, phases):
    """D M D^H of every matrix M of ``stack``: complex data with the spectra and the products of the real one."""
    twin = phases[:, None] * np.asarray(stack, dtype=complex) * phases.conj()[None, :]
    assert np.any(twin.imag)
    return twin


def real_povm_cases(tol):
    """Real POVMs (name, elements, dims): valid and projective, valid and not, and invalid ones."""
    c4 = hadamard_sep_povm()
    rng = np.random.default_rng(23)
    noisy = np.array(random_projective(rng, (3, 3), [2, 3, 4], True))
    kick = rng.standard_normal(noisy.shape)
    noisy += 0.5 * tol * (kick + np.swapaxes(kick, 1, 2)) / np.max(np.abs(kick))
    negative = np.zeros((4, 4))
    negative[np.ix_([1, 2], [1, 2])] = [[0.5, 0.25], [0.25, 0.25]]
    negative += np.diag([-2 * tol, 0.0, 0.0, 0.5])
    negative = np.array([negative, np.eye(4) - negative])
    return [
        ("domino-ext", extended_domino_basis(4, 4).rhos, (4, 4)),
        ("c4", c4.elements, c4.dims),
        ("c4-restricted", restrict_povm(c4, (2, 1)).elements, (2, 1)),
        ("rotated-pair-passes", rotated_pair(0.5 * tol).elements, (3,)),
        ("rotated-pair-fails", rotated_pair(1.05 * tol).elements, (3,)),
        ("noisy", noisy, (3, 3)),
        ("incomplete", 1.01 * extended_domino_basis(3, 4).rhos, (3, 4)),
        ("not-psd", negative, (2, 2)),
    ]


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
def test_real_verdicts_match_their_complex_phase_twins(tol):
    """A real POVM is checked in float64, its phase twin D M D^H in complex arithmetic: the same verdicts
    from is_valid, psd_certified and is_projective, and the verdict of the pairwise oracle."""
    for name, elements, dims in real_povm_cases(tol):
        real = Povm(elements, dims)
        twins = [Povm(phase_twin(elements, local_phases(dims, seed)), dims) for seed in (5, None)]
        valid = is_valid(real, tol)
        psd = psd_certified(np.ascontiguousarray(real.elements.real), tol)
        assert psd.dtype == bool and np.array_equal(psd, psd_certified(real.elements, tol)), name
        answer = agrees_with_reference(real, tol)
        assert valid is (answer is not None), name
        for twin in twins:
            assert is_valid(twin, tol) is valid, name
            assert np.array_equal(psd_certified(twin.elements, tol), psd), name
            assert agrees_with_reference(twin, tol) is answer, name


def exact_boundary_povms(t):
    """POVMs on (2, 2) whose dyadic entries make every product and sum exact in either arithmetic, each with one
    deciding quantity and the others far inside: projective exactly when the cross product s - s^2 <= tol, and
    valid exactly when the smallest eigenvalue, the Hermiticity defect or the completeness residual, each
    ``t``, is at most tol (``t`` a multiple of 2^-52).  A coupled 2x2 block gives each a complex phase twin."""
    block = np.zeros((4, 4))
    block[np.ix_([1, 2], [1, 2])] = [[0.5, 0.25], [0.25, 0.25]]
    s = 2.0**-20  # the products of s and 1 - s span at most 41 bits
    idempotent = np.zeros((4, 4))
    idempotent[np.ix_([0, 1], [0, 1])] = 0.5
    first = {
        "cross-product": idempotent + np.diag([0.0, 0.0, s, 0.0]),
        "eigenvalue": block + np.diag([-t, 0.0, 0.0, 0.5]),
        "hermiticity": block + np.diag([0.0, 0.0, 0.0, 0.5]),
        "completeness": block + np.diag([0.0, 0.0, 0.0, 0.5]),
    }
    first["hermiticity"][1, 2] += t  # and so I - M has the same defect
    povms = {name: np.array([m, np.eye(4) - m]) for name, m in first.items()}
    povms["completeness"][1, 3, 3] += t
    return povms, {"cross-product": s - s * s, "eigenvalue": t, "hermiticity": t, "completeness": t}


@pytest.mark.parametrize("ulps", range(-3, 4))
def test_real_and_twin_verdicts_agree_a_few_ulps_from_tol(ulps):
    """At tol a few ulps either side of the deciding quantity, the real POVM (float64), its quarter-turn twin
    (complex, the same numbers on the imaginary axis) and the pairwise oracle give one verdict."""
    t = np.ldexp(round(1.1e-9 * 2**52), -52)
    povms, quantity = exact_boundary_povms(t)
    for name, elements in povms.items():
        tol = quantity[name]
        for _ in range(abs(ulps)):
            tol = np.nextafter(tol, np.inf if ulps > 0 else -np.inf)
        expected = bool(quantity[name] <= tol)
        real = Povm(elements, (2, 2))
        twin = Povm(phase_twin(elements, local_phases((2, 2))), (2, 2))
        answer = agrees_with_reference(real, tol)
        if name == "cross-product":
            assert answer is expected, name  # the test data is where it should be
        else:
            assert (answer is not None) is expected, name
        assert is_valid(real, tol) is is_valid(twin, tol) is (answer is not None), name
        assert agrees_with_reference(twin, tol) is answer, name
        if name == "eigenvalue":
            psd = psd_certified(np.ascontiguousarray(real.elements.real), tol)
            assert psd.tolist() == psd_certified(twin.elements, tol).tolist() == [expected, True]
            assert verify_povm(real, tol).element_min_eigs[0] == verify_povm(twin, tol).element_min_eigs[0] == -t


def state_cases():
    """Real state stacks (name, rhos): a basis, and stacks whose fifth state fails one check by about 2e-9."""
    rhos = extended_domino_basis(3, 4).rhos.real.copy()
    mixed = np.eye(12) / 12
    mixed[2, 3] = mixed[3, 2] = 1 / 48
    changes = {"negative": [(0, 0, -1 / 12 - 2e-9), (1, 1, 1 / 12 + 2e-9)], "trace": [(0, 0, 2e-9)],
               "hermiticity": [(0, 1, 2e-9)]}
    cases = [("basis", rhos)]
    for name, entries in changes.items():
        bad = rhos.copy()
        bad[4] = mixed
        for i, j, amount in entries:
            bad[4, i, j] += amount
        cases.append((name, bad))
    return cases


def test_real_state_checks_match_their_complex_phase_twins():
    """StateSet.from_stack of a real stack (checked in float64) and of its phase twins (complex) accept the same
    stacks and reject the same state for the same reason."""
    labels = [f"s{i}" for i in range(12)]
    for name, rhos in state_cases():
        reasons = []
        for stack in [rhos] + [phase_twin(rhos, local_phases((3, 4), seed)) for seed in (7, None)]:
            try:
                StateSet.from_stack(stack, (3, 4), labels)
                reasons.append(None)
            except ValueError as exc:
                reasons.append(str(exc).split()[:4])  # "state 's4' has trace", without the value
        expected = {"basis": None, "negative": "has negative", "trace": "has trace", "hermiticity": "is not"}[name]
        assert reasons[0] == (expected and ["state", "'s4'", *expected.split()]), name
        assert reasons == reasons[:1] * 3, name


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims", [(3, 4), (10, 10)])
def test_real_inputs_report_the_numbers_of_complex_arithmetic(dims):
    """A real POVM is checked in float64, but the numbers a report prints are those of complex arithmetic, bit
    for bit: the eigenvalues of the complex Hermitian parts, the complex residuals, and the complex hit table."""
    states = extended_domino_basis(*dims)
    rng = np.random.default_rng(list(dims))
    kick = rng.standard_normal(states.rhos.shape)
    elements = states.rhos + 1e-12 * (kick + np.swapaxes(kick, 1, 2))  # real, with nonzero eigenvalues
    p = Povm(elements, dims)
    assert p.elements.dtype == np.complex128 and not np.any(p.elements.imag)
    e = p.elements
    report = verify_povm(p, 1e-9)
    hermitian = (e + np.conj(np.swapaxes(e, -1, -2))) / 2
    assert same_bits(np.array(report.element_min_eigs), np.linalg.eigvalsh(hermitian)[:, 0])
    assert same_bits(report.completeness_residual, np.max(np.abs(e.sum(axis=0) - np.eye(e.shape[-1]))))
    assert same_bits(report.hermiticity_defect, np.max(np.abs(e - np.conj(np.swapaxes(e, -1, -2)))))
    verdict = check_perfect(p, states)
    n, side = len(e), e.shape[-1]
    products = e.reshape(n, -1) @ np.ascontiguousarray(states.rhos.transpose(2, 1, 0)).reshape(-1, n)
    assert products.dtype == np.complex128
    assert same_bits(verdict.hit_table, products.T.real)  # tr(M_j rho_i) as trace_products forms it


@pytest.mark.parametrize("ulps", range(-3, 4))
def test_real_and_twin_states_agree_a_few_ulps_from_the_state_tolerance(ulps):
    """A state whose smallest eigenvalue is -STATE_TOL moved by a few ulps is rejected, real or as its
    quarter-turn twin, exactly when that eigenvalue is below -STATE_TOL; both messages print the same value."""
    from distlab.states import STATE_TOL

    x = -STATE_TOL
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    rho = np.zeros((4, 4))
    rho[np.ix_([1, 2], [1, 2])] = [[0.5, 0.125], [0.125, 0.25]]
    rho[0, 0], rho[3, 3] = x, 0.25 - x
    messages = []
    for stack in (rho[None], phase_twin(rho[None], local_phases((2, 2)))):
        try:
            StateSet.from_stack(stack, (2, 2), ["edge"])
            messages.append(None)
        except ValueError as exc:
            messages.append(str(exc))
    expected = None if x >= -STATE_TOL else f"state 'edge' has negative eigenvalue {x:.3e}"
    assert messages == [expected, expected]


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
    for check in (is_ppt_povm, ppt_min_eigenvalue):  # one party has no cut
        with pytest.raises(ValueError, match="^PPT needs a nontrivial bipartition$"):
            check(Povm([np.eye(2)], (2,)))


def isotropic_povm(t):
    """{M, I - M} with M = t Phi+ + (1 - t) I / 4 on (2, 2): PPT exactly when t <= 1/3, since M's partial
    transpose t F / 2 + (1 - t) I / 4 (F the swap) has smallest eigenvalue (1 - 3t) / 4 and that of I - M is
    (3 - t) / 4."""
    m = t * PHI_PLUS.real + (1 - t) * np.eye(4) / 4
    return np.array([m, np.eye(4) - m])


@pytest.mark.parametrize("partition", [None, 0, [1]])
def test_is_ppt_povm_of_a_real_povm_matches_its_phase_twin(partition, monkeypatch):
    """A real POVM is transposed and certified in float64, its phase twin (D_A (x) D_B) M (D_A (x) D_B)^H in
    complex arithmetic; the twin's partial transposes are unitarily equivalent to the real ones, so the
    verdicts agree, on PPT POVMs and on POVMs that are not PPT."""
    certified = []

    def recorded(m, tol):
        certified.append(m.dtype)
        return psd_certified(m, tol)

    monkeypatch.setattr(distlab.povm, "psd_certified", recorded)
    cases = [
        ("domino-ext", extended_domino_basis(3, 4).rhos, (3, 4), True),
        ("isotropic-0.3", isotropic_povm(0.3), (2, 2), True),
        ("isotropic-0.4", isotropic_povm(0.4), (2, 2), False),
        ("bell", isotropic_povm(1.0), (2, 2), False),
    ]
    for name, elements, dims, ppt in cases:
        certified.clear()
        assert is_ppt_povm(Povm(elements, dims), partition) is ppt, name
        assert set(certified) == {np.dtype(np.float64)}, name
        for seed in (5, None):
            twin = Povm(phase_twin(elements, local_phases(dims, seed)), dims)
            assert is_ppt_povm(twin, partition) is ppt, name


@pytest.mark.parametrize("seeds", [[1, 2, 3], [1]])
def test_single_povm_checks_reject_a_batch(seeds):
    batch = random_povm((2, 2), 4, seeds)
    checks = [
        lambda: check_perfect(batch, bell_states()),
        lambda: check_unambiguous(batch, bell_states()),
        lambda: is_projective(batch),
        lambda: is_ppt_povm(batch),
    ]
    for check in checks:
        with pytest.raises(ValueError, match=f"^expected one POVM, got a batch of {len(seeds)}$"):
            check()


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
    assert summary(hadamard_sep_povm(), "sep")[0][2] == ("sep-witness", True)
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


@pytest.mark.parametrize(
    "sub_dims, message",
    [((4, 2), r"sub_dims \(4, 2\) must not exceed dims \(3, 3\)"), ((2, 2, 2), "party count mismatch: 2 vs 3")],
    ids=["larger", "more-parties"],
)
def test_restrict_locc1_rejects_sub_dims_that_no_restriction_has(sub_dims, message):
    # the rule restrict_matrix applies, with its message; the tree's own copy read "cannot restrict dims ..."
    with pytest.raises(ValueError, match=f"^{message}$"):
        restrict_locc1(random_locc1((3, 3), 2, seed=2), sub_dims)


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
    # the tree is held as its leaves' product terms
    assert isinstance(p.witness, SepDecomposition)
    assert np.array_equal(p.witness.owner, tree_povm(tree).witness.owner)
    for got, want in zip(p.witness.factors, tree_povm(tree).witness.factors, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "sample, message",
    [
        (lambda: random_povm((2, 2), 2, []), "need at least one seed"),
        (lambda: random_ppt_povm((4,), 2, 0), "PPT needs at least two parties"),
        (lambda: random_sep_povm((2, 2), 0, 0), "need at least one element"),
        (lambda: random_locc1((2, 2), 0, 0), "branching must be at least 1"),
    ],
    ids=["no-seeds", "ppt-on-one-party", "sep-without-elements", "locc1-without-branches"],
)
def test_samplers_reject_arguments_no_sample_has(sample, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample()


@pytest.mark.parametrize(
    "witness, message",
    [
        ({"type": "tree"}, r'witness must be \{"type": "sep", "terms"\} or \{"type": "locc1", "tree"\}'),
        ({"type": "sep", "terms": [[[EYE2, EYE2]], [[EYE2]]]}, "every sep witness term needs one factor per party"),
    ],
    ids=["unknown-type", "unequal-factor-counts"],
)
def test_povm_from_json_rejects_a_witness_of_no_known_form(witness, message):
    obj = {**povm_to_json(Povm([np.eye(4) / 2] * 2, (2, 2))), "witness": witness}
    with pytest.raises(ValueError, match=f"^{message}$"):
        povm_from_json(obj)


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
    alone = [SAMPLERS[kind](dims, seed) for seed in seeds]
    for got, *want in zip(*(m.levels if kind == "locc1" else (m.elements,) for m in (block, *alone))):
        assert np.array_equal(got, np.stack(want))


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
