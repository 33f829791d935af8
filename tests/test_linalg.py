"""Tests for the multipartite matrix operations."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distlab.linalg
from distlab.linalg import (
    _inrange_indices,
    as_matrix,
    bipartition,
    embed_matrix,
    hermiticity_defect,
    matrices_from_json,
    matrix_from_json,
    matrix_json_text,
    matrix_to_json,
    min_eigenvalue,
    partial_transpose,
    psd_certified,
    read_json,
    restrict_matrix,
    strict_object,
    tensor,
    trace_products,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)

# |Phi+><Phi+| in (2,2): corners 1/2 on the |00>,|11> subspace.
PHI_PLUS = np.zeros((4, 4), dtype=complex)
PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_psd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T


def test_tensor_identities():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))
    got = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tensor(), "tensor of zero factors is undefined"),
        (lambda: as_matrix(np.zeros((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
        (lambda: partial_transpose(np.zeros((2, 3)), (2,), 0),
         r"expected a square matrix or a stack of them, got shape \(2, 3\)"),
    ],
    ids=["tensor-of-nothing", "non-square-matrix", "non-square-partial-transpose"],
)
def test_matrix_functions_reject_input_without_a_square_matrix(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_tensor_sigma_x_pair_matches_hand_expansion():
    # Hand expansion of sigma_x (x) sigma_x: ones on the anti-diagonal.
    expected = np.zeros((4, 4), dtype=complex)
    for (a, b), (c, d) in itertools.product(
        itertools.product(range(2), range(2)), repeat=2
    ):
        expected[a * 2 + b, c * 2 + d] = SX[a, c] * SX[b, d]
    got = tensor(SX, SX)
    assert np.array_equal(got, expected)
    # anchor entry: row multi-index (0,0), column multi-index (1,1)
    assert got[0, 3] == 1


def test_tensor_associative_and_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        c = random_hermitian(rng, 2)
        assert np.max(np.abs(tensor(tensor(a, b), c) - tensor(a, tensor(b, c)))) <= 1e-12
        s, t = rng.standard_normal(2)
        lhs = tensor(s * a + t * c, b)
        rhs = s * tensor(a, b) + t * tensor(c, b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_partial_transpose_identity_invariant():
    assert np.array_equal(partial_transpose(np.eye(4), (2, 2), 0), np.eye(4))


def test_partial_transpose_phi_plus_is_swap_over_two():
    # PT on either party maps |Phi+><Phi+| to SWAP/2, eigenvalues (-1/2, 1/2, 1/2, 1/2).
    swap = np.zeros((4, 4), dtype=complex)
    for i, j in itertools.product(range(2), range(2)):
        swap[i * 2 + j, j * 2 + i] = 1
    for party in (0, 1):
        pt = partial_transpose(PHI_PLUS, (2, 2), party)
        assert np.max(np.abs(pt - swap / 2)) <= 1e-15
        w = np.linalg.eigvalsh(pt)
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert min_eigenvalue(pt) == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_involutive_trace_hermiticity():
    rng = np.random.default_rng(11)
    for dims in [(2, 2), (2, 3), (3, 2, 2)]:
        n = int(np.prod(dims))
        m = random_hermitian(rng, n)
        for party in range(len(dims)):
            pt = partial_transpose(m, dims, party)
            assert np.trace(pt) == pytest.approx(np.trace(m).real, abs=1e-12)
            assert hermiticity_defect(pt) <= 1e-12
            assert np.max(np.abs(partial_transpose(pt, dims, party) - m)) <= 1e-15


def test_partial_transpose_party_subset():
    rng = np.random.default_rng(12)
    dims = (2, 2, 2)
    m = random_hermitian(rng, 8)
    both = partial_transpose(m, dims, (0, 2))
    chained = partial_transpose(partial_transpose(m, dims, 0), dims, 2)
    assert np.array_equal(both, chained)
    # transposing every party equals the full transpose
    assert np.max(np.abs(partial_transpose(m, dims, (0, 1, 2)) - m.T)) == 0.0


def test_bipartition():
    assert bipartition((2, 3), 1) == (1,)
    assert bipartition((2, 3, 2), np.int64(0)) == (0,)
    assert bipartition((2, 3, 2), [2, 0]) == (0, 2)
    for dims, cut in [
        ((2, 2), (0, 1)), ((2, 2), ()), ((2,), 0), ((2, 2), 2), ((2, 2), -1), ((2, 2, 2), (1, 1)),
        ((2, 2), (0.7,)), ((2, 2), True), ((2, 2, 2), [np.True_]),  # a party is an integer, never a float or bool
    ]:
        with pytest.raises(ValueError):
            bipartition(dims, cut)


def test_partial_transpose_rejects_a_party_that_is_not_an_integer():
    m = np.arange(16.0).reshape(4, 4)
    for party in (0.5, 1.0, (0, 0.5), False):
        with pytest.raises(ValueError, match="is not an integer"):
            partial_transpose(m, (2, 2), party)


def test_embed_matrix_identity_and_trace():
    rng = np.random.default_rng(23)
    rho = random_psd(rng, 4)
    rho /= np.trace(rho)
    assert np.array_equal(embed_matrix(rho, (2, 2), (2, 2)), rho)
    big = embed_matrix(rho, (2, 2), (3, 3))
    assert np.trace(big) == pytest.approx(1.0, abs=1e-12)


def test_embed_matrix_scatter_positions():
    # independent oracle: enumerate the multi-index map explicitly
    big = embed_matrix(PHI_PLUS, (2, 2), (3, 3))
    expected = np.zeros((9, 9), dtype=complex)
    for (a, b), (c, d) in itertools.product(
        itertools.product(range(2), range(2)), repeat=2
    ):
        expected[a * 3 + b, c * 3 + d] = PHI_PLUS[a * 2 + b, c * 2 + d]
    assert np.array_equal(big, expected)
    nz = {(i, j) for i, j in zip(*np.nonzero(big))}
    assert nz == {(0, 0), (0, 4), (4, 0), (4, 4)}
    assert np.allclose(big[big != 0], 0.5)


def test_embed_matrix_rejects_shrink_and_party_mismatch():
    with pytest.raises(ValueError):
        embed_matrix(np.eye(4), (2, 2), (1, 2))
    with pytest.raises(ValueError):
        embed_matrix(np.eye(4), (2, 2), (2, 2, 2))


def test_restrict_embed_roundtrip_and_identity():
    rng = np.random.default_rng(29)
    m = random_hermitian(rng, 4)
    assert np.array_equal(restrict_matrix(embed_matrix(m, (2, 2), (3, 4)), (3, 4), (2, 2)), m)
    assert np.array_equal(restrict_matrix(np.eye(9), (3, 3), (2, 2)), np.eye(4))


def test_restrict_of_psd_is_psd():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = random_psd(rng, 9)
        sub = restrict_matrix(m, (3, 3), (2, 2))
        assert min_eigenvalue(sub) >= -1e-12


def test_restrict_factorizes_over_tensor():
    # structural heart of the block-restriction argument:
    # restriction of a product is the product of local restrictions
    rng = np.random.default_rng(37)
    for _ in range(200):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = restrict_matrix(tensor(a, b), (3, 4), (2, 2))
        rhs = tensor(a[:2, :2], b[:2, :2])
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_restrict_embed_trace_adjoint_identity():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m = random_hermitian(rng, 9)
        rho = random_psd(rng, 4)
        rho /= np.trace(rho)
        lhs = np.trace(restrict_matrix(m, (3, 3), (2, 2)) @ rho)
        rhs = np.trace(m @ embed_matrix(rho, (2, 2), (3, 3)))
        assert abs(lhs - rhs) <= 1e-12


def enumerated_map(m, dims, out_dims):
    """Independent oracle: copy entry (a, b) of every matrix of ``m``, for each pair
    of multi-indices a, b in range of both systems, from ``dims`` to ``out_dims``."""
    common = [range(min(d, e)) for d, e in zip(dims, out_dims)]
    side = int(np.prod(out_dims))
    out = np.zeros(m.shape[:-2] + (side, side), dtype=complex)
    for a, b in itertools.product(itertools.product(*common), repeat=2):
        src = np.ravel_multi_index(a, dims), np.ravel_multi_index(b, dims)
        dst = np.ravel_multi_index(a, out_dims), np.ravel_multi_index(b, out_dims)
        out[..., dst[0], dst[1]] = m[..., src[0], src[1]]
    return out


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
@pytest.mark.parametrize("small,big", [((2, 2), (3, 3)), ((2, 2), (3, 4)), ((1, 3), (2, 3)), ((2, 2, 2), (3, 2, 3))])
def test_embed_and_restrict_stacks_match_enumerated_multi_indices(small, big, lead):
    rng = np.random.default_rng(47)
    s, b = int(np.prod(small)), int(np.prod(big))
    m = rng.standard_normal(lead + (s, s)) + 1j * rng.standard_normal(lead + (s, s))
    big_m = rng.standard_normal(lead + (b, b)) + 1j * rng.standard_normal(lead + (b, b))
    embedded = embed_matrix(m, small, big)
    restricted = restrict_matrix(big_m, big, small)
    assert np.array_equal(embedded, enumerated_map(m, small, big))
    assert np.array_equal(restricted, enumerated_map(big_m, big, small))
    for i in np.ndindex(*lead):
        assert np.array_equal(embedded[i], embed_matrix(m[i], small, big))
        assert np.array_equal(restricted[i], restrict_matrix(big_m[i], big, small))


def test_cached_index_map_is_read_only():
    idx = _inrange_indices((3, 3), (2, 2))
    assert idx is _inrange_indices((3, 3), (2, 2))
    with pytest.raises(ValueError):
        idx[0] = 1
    assert idx.tolist() == [0, 1, 3, 4]


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(43)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m[0, 1] = -0.0 + 0.5j
    m[2, 0] = 1.5 - 0.0j
    obj = matrix_to_json(m)
    assert obj["rows"] == obj["cols"] == 3
    # the same Python floats as the per-entry float(x), signed zeros included
    for part, entries in (("re", m.real.ravel()), ("im", m.imag.ravel())):
        assert all(type(x) is float for x in obj[part])
        assert [(x, np.signbit(x)) for x in obj[part]] == [(float(x), np.signbit(x)) for x in entries]
    back = matrix_from_json(obj)
    assert np.array_equal(back, m)
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "re": [0] * 4, "im": [0] * 4, "oops": 1})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "re": [0] * 3, "im": [0] * 4})
    for rows, cols in ((-2, -2), (-1, 0), (0, -3)):  # products that match the entry count, before any reshape
        with pytest.raises(ValueError, match=f"negative, got {rows}x{cols}$"):
            matrix_from_json({"rows": rows, "cols": cols, "re": [0] * (rows * cols), "im": [0] * (rows * cols)})
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            matrix_from_json({"rows": 1, "cols": 1, "re": [bad], "im": [0.0]})
        with pytest.raises(ValueError, match="finite"):
            matrix_from_json({"rows": 1, "cols": 1, "re": [0.0], "im": [bad]})


def _wire_cases():
    rng = np.random.default_rng(44)
    runs = np.zeros((4, 5), dtype=complex)
    runs[1, 2], runs[2, 0] = 0.25 - 3j, -7.5  # +0.0 runs at the start and the end of both parts
    signed = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 1.0]]) + 1j * np.array([[0.0, -0.0, -0.0], [-0.0, 0.0, 0.0]])
    return {
        "dense-real": rng.standard_normal((3, 3)),
        "dense-complex": rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)),
        "all-zero": np.zeros((4, 4)),
        "zero-runs-at-both-ends": runs,
        "negative-zero": signed,
        "subnormal": np.array([[5e-324, 0.0], [-2.2250738585072e-310, 0.0]]) * (1 - 1j),
        "huge": np.array([[1e300, 0.0, -1e300]]) + 1j * np.array([[0.0, -1e300, 0.0]]),
        "one-by-one": np.array([[0.5]]),
        "one-by-one-zero": np.zeros((1, 1)),
        "one-entry-late": np.eye(1, 30, 29),
    }


@pytest.mark.parametrize("case", sorted(_wire_cases()))
def test_matrix_text_is_the_json_text_of_its_wire_object(case):
    m = _wire_cases()[case]
    assert matrix_json_text(m) == json.dumps(matrix_to_json(m), separators=(",", ":"), allow_nan=False)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_matrix_text_rejects_a_non_finite_entry_as_the_strict_encoder_does(bad):
    for m in (np.array([[0.0, bad]]), np.array([[0.0, 1j * bad]]), np.array([[bad + 0j, 0.0]])):
        with pytest.raises(ValueError):
            matrix_json_text(m)
    with pytest.raises(ValueError):
        matrix_json_text(np.zeros(4))


def decoded(load, raw: bytes):
    """What ``load(raw)`` gives, comparable across decoders: each value with its type, each float by its bits
    (``float.hex``, so -0.0 differs from 0.0 and NaN equals NaN), each object's items in order; or the type
    and message of the exception it raises."""

    def canon(x):
        if isinstance(x, dict):
            return "dict", [(k, canon(v)) for k, v in x.items()]
        if isinstance(x, list):
            return "list", [canon(v) for v in x]
        return type(x).__name__, x.hex() if isinstance(x, float) else x

    try:
        return canon(load(raw))
    except Exception as exc:
        return type(exc), str(exc)


JSON_WS = st.sampled_from(["", "", "", " ", "\n", "\t ", "\r\n"])
# every token kind the reader may meet: zeros as written, other numbers, constants, literals, strings that hold
# the characters the flat-array test looks for, and foreign text
JSON_SCALARS = st.one_of(
    st.sampled_from(["0.0"] * 6 + ["-0.0", "0", "00", "0.00", "0.0e0", "10.0", "1", "-2", "1.5", "1e400", "-2.5E-3"]),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "true", "false", "null", "nan", "+1", ".5", "1.", "0x1"]),
    st.sampled_from(['"[0.0,"', '"]"', '"{"', '"a"', '""', '"0.0,]{"', "'a'", "}", ":", "\x0c"]),
    st.floats(allow_nan=False).map(json.dumps),
    st.integers().map(str),
)
# flat arrays of mostly 0.0, the reader's bulk case, with a token now and then that is not exactly 0.0 or is empty
ZERO_ARRAYS = st.lists(
    st.sampled_from(["0.0"] * 20 + ["-0.0", "0.5", "NaN", "-Infinity", "true", "null", " 0.0", "0.0 ", ""]), min_size=5
)
JSON_KEYS = st.sampled_from(['"a"', '"a"', '"b"', '"[0.0,"', '"]"'])  # repeated keys too


@st.composite
def json_container(draw, values):
    """Array or object text, mostly well-formed: a separator may be doubled or missing, a comma may trail."""
    n = draw(st.integers(0, 12))
    seps = draw(st.lists(st.sampled_from([","] * 12 + [",,", ""]), min_size=n, max_size=n))
    trailing = draw(st.sampled_from(["", "", "", "", ","]))
    items = []
    is_object = draw(st.integers(0, 3)) == 0
    for sep in seps:
        key = draw(JSON_KEYS) + draw(JSON_WS) + ":" if is_object else ""
        items.append(draw(JSON_WS) + key + draw(JSON_WS) + draw(values) + draw(JSON_WS) + sep)
    text = "".join(items)
    text = text[: len(text) - len(seps[-1])] + trailing if seps else draw(JSON_WS)
    return ("{%s}" if is_object else "[%s]") % text


JSON_TEXTS = st.tuples(
    st.recursive(JSON_SCALARS | ZERO_ARRAYS.map(lambda t: "[%s]" % ",".join(t)), json_container, max_leaves=40),
    JSON_WS,
    st.sampled_from([None] * 6 + [1, 3, -1, -2]),
).map(lambda t: (t[1] + t[0] + t[1])[: t[2]])  # some texts cut short


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(JSON_TEXTS)
def test_read_json_returns_and_raises_what_json_loads_does(text):
    raw = text.encode()
    assert decoded(read_json, raw) == decoded(json.loads, raw)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(ZERO_ARRAYS, st.sampled_from(["[%s]", '{"re":[%s],"im":[0.0,0.0,0.0,0.0,0.0,1]}', '{"re":[%s],"re":[%s]}']))
def test_read_json_takes_mostly_zero_arrays_as_json_loads_does(tokens, form):
    raw = (form % ((",".join(tokens),) * form.count("%s"))).encode()
    assert decoded(read_json, raw) == decoded(json.loads, raw)


@pytest.mark.parametrize(
    "raw",
    [
        '{"é": [0.0, 0.0, 0.0, 1]}'.encode(),
        "[0.0,0.0,0.0,0.0,0.0,0.0,1\u0661]".encode(),  # an Arabic-Indic digit, a number to the Python scanner
        '[0.0,0.0,0.0,0.0,0.0,"\u2603"]'.encode(),
        b"[0.0,0.0,0.0,0.0,0.0,\xff]",
        "\ufeff[0.0,0.0,0.0,0.0,0.0,1]".encode(),  # a UTF-8 BOM
        "\ufeff\ufeff[0.0]".encode(),  # a second BOM is text
        "[0.0,0.0,0.0,0.0,0.0,-0.0]".encode("utf-16"),
        '{"re":[0.0,0.0,0.0,0.0,0.0,2.5]}'.encode("utf-16-le"),
        "[0.0,0.0,0.0,0.0,0.0]".encode("utf-32"),
    ],
)
def test_read_json_takes_bytes_as_json_loads_does(raw):
    assert decoded(read_json, raw) == decoded(json.loads, raw)


def test_read_json_makes_one_float_for_the_zeros_of_a_flat_array():
    text = "[%s]" % ",".join(["0.0"] * 5 + ["-0.0"] + ["0.0"] * 5 + ["1"])
    values = read_json(b'{"re":%s}' % text.encode())["re"]
    assert decoded(lambda raw: values, b"") == decoded(json.loads, text.encode())
    assert len({id(v) for v in values}) == 3 and type(values[-1]) is int


@pytest.mark.parametrize(
    "field,value",
    [
        ("re", ["1.5", 0.0, 0.0, 0.0]),
        ("im", [0.0, 0.0, "0", 0.0]),
        ("re", [None, 0.0, 0.0, 0.0]),
        ("re", [[1.0], 0.0, 0.0, 0.0]),
        ("re", "1.5"),
        ("re", [10**400, 0, 0, 0]),
        ("rows", True),
        ("rows", "2"),
        ("cols", 2.9),
        ("cols", 2.0),
        ("rows", None),
    ],
)
def test_matrix_json_takes_json_numbers_and_integer_sizes_only(field, value):
    obj = {"rows": 2, "cols": 2, "re": [1, 0, 0.0, 0], "im": [0.0, 0.0, 0, -0.0]}
    assert np.array_equal(matrix_from_json(obj), np.diag([1.0, 0.0]))
    bad = {**obj, field: value}
    with pytest.raises(ValueError):
        matrix_from_json(bad)
    with pytest.raises(ValueError):
        matrices_from_json([obj, bad], "test")


# (kind, a value of that kind, a value not of it, the kind's name in the message)
KINDS = {
    "int": (int, -3, True, "integer"),
    "int-not-a-whole-float": (int, 2, 2.0, "integer"),
    "float": (float, 0.5, True, "number"),
    "float-takes-an-integer": (float, 1, "1", "number"),
    "str": (str, "", 5, "string"),
    "bool": (bool, False, 0, "boolean"),
    "list": (list, [], {}, "list"),
    "dict": (dict, {}, [], "object"),
    "list-of-int": ([int], [], [1, "2"], "list of integers"),
    "list-of-int-not-bool": ([int], [0, 1], [0, True], "list of integers"),
    "list-of-list-of-list": ([[list]], [[[]], []], [[[]], [5]], "list of lists of lists"),
    "number-or-null": ((float, type(None)), None, "1", "number or null"),
    "number-or-null-takes-a-number": ((float, type(None)), 0.5, [None], "number or null"),
}


@pytest.mark.parametrize("case", sorted(KINDS))
def test_strict_object_checks_each_field_kind(case):
    kind, good, bad, name = KINDS[case]
    assert strict_object({"f": good}, "thing", {"f": kind})["f"] == good
    assert strict_object({"f": good}, "thing", {}, {"f": kind}) == {"f": good}
    message = f"^thing field 'f' must be a JSON {name}$"
    with pytest.raises(ValueError, match=message):
        strict_object({"f": bad}, "thing", {"f": kind})
    with pytest.raises(ValueError, match=message):
        strict_object({"f": bad}, "thing", {}, {"f": kind})


def test_strict_object_takes_any_value_of_kind_object_and_keeps_its_field_messages():
    for value in (None, True, "x", 1.5, [None], {"a": []}):
        assert strict_object({"f": value}, "thing", {"f": object}) == {"f": value}
    assert strict_object({}, "thing", {}, {"f": int}) == {}
    with pytest.raises(ValueError, match=r"^thing JSON must be an object$"):
        strict_object([("f", 1)], "thing", {"f": int})
    with pytest.raises(ValueError, match=r"^thing JSON lacks fields \['g'\]$"):
        strict_object({"f": 1}, "thing", {"f": int, "g": str})
    with pytest.raises(ValueError, match=r"^unknown thing fields \['z'\]$"):
        strict_object({"f": 1, "z": "1"}, "thing", {"f": int}, {"g": str})


def random_stack(rng, n, side, real):
    g = rng.standard_normal((n, side, side))
    return g if real else g + 1j * rng.standard_normal((n, side, side))


@pytest.mark.parametrize("n,m,side", [(1, 1, 2), (4, 3, 9), (3, 5, 6), (2, 2, 25)])
@pytest.mark.parametrize("real_a,real_b", [(True, True), (False, False), (True, False), (False, True)])
def test_trace_products_match_the_planned_einsum_bit_for_bit(n, m, side, real_a, real_b):
    rng = np.random.default_rng(side * 100 + n * 10 + m)
    a = random_stack(rng, n, side, real_a)
    b = random_stack(rng, m, side, real_b)
    got = trace_products(a, b)
    want = np.einsum("iab,jba->ij", a, b, optimize=True)
    assert got.shape == (n, m) and got.dtype == want.dtype
    assert np.array_equal(got, want)


def hermitian_with_spectrum(rng, spectrum, real):
    """U diag(spectrum) U^H for a random unitary U (orthogonal when ``real``)."""
    n = len(spectrum)
    g = rng.standard_normal((n, n)) if real else rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u = np.linalg.qr(g)[0]
    return (u * np.asarray(spectrum)) @ u.conj().T


def eigvalsh_verdict(stack, tol):
    """The oracle: numpy's smallest eigenvalue of each Hermitian part, as a complex matrix, is at least -tol."""
    stack = np.asarray(stack, dtype=complex)
    h = (stack + np.swapaxes(stack.conj(), -1, -2)) / 2
    return np.linalg.eigvalsh(h)[..., 0] >= -tol


def boundary_stack(rng, side, real, tol):
    """lambda_min = -1.01 tol, -0.99 tol and 0 (other eigenvalues in (0, 1]), then a rank-deficient projector."""
    members = [hermitian_with_spectrum(rng, [f * tol, 1.0, *rng.uniform(0, 1, side - 2)], real) for f in (-1.01, -0.99, 0)]
    members.append(hermitian_with_spectrum(rng, np.arange(side) % 2, real))
    return np.array(members, dtype=complex), np.array([False, True, True, True])


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("side", [2, 3, 9, 36, 100])
def test_psd_certificate_agrees_with_eigvalsh(tol, real, side):
    rng = np.random.default_rng([side, real, int(-np.log10(tol))])
    stack, expected = boundary_stack(rng, side, real, tol)
    assert np.array_equal(eigvalsh_verdict(stack, tol), expected)  # the test data is where it should be
    for m, ok in zip(stack, expected):
        assert psd_certified(m, tol) is bool(ok)
    assert np.array_equal(psd_certified(stack, tol), expected)  # one member fails: the batch falls back
    assert np.array_equal(psd_certified(stack[1:], tol), expected[1:])
    assert np.array_equal(psd_certified(stack[None, :, :, :], tol), expected[None])


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("side", [2, 9, 36])
def test_psd_certificate_accepts_without_an_eigensolver(monkeypatch, real, side):
    def no_eigensolver(*args, **kwargs):
        raise AssertionError("the certificate fell back to eigvalsh")

    rng = np.random.default_rng([side, real])
    for tol in (1e-9, 1e-6):
        stack = boundary_stack(rng, side, real, tol)[0][1:]
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", no_eigensolver)
            assert psd_certified(stack, tol).all()


def test_psd_certificate_falls_back_for_the_block_that_fails(monkeypatch):
    rng = np.random.default_rng(14)
    tol = 1e-9
    stack = np.array([hermitian_with_spectrum(rng, [f * tol, *rng.uniform(0, 1, 8)], False) for f in [0.5] * 7 + [-1.01]])
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(len(h)) or eigvalsh(h))
    monkeypatch.setattr(distlab.linalg, "BLOCK_BYTES", 2 * stack[0].nbytes)
    got = psd_certified(stack, tol)
    assert got.tolist() == [True] * 7 + [False]
    assert calls == [2]  # four blocks of 2: only the last is decided by eigvalsh, and for both its members
    monkeypatch.setattr(distlab.linalg, "BLOCK_BYTES", 3 * stack[0].nbytes)
    calls.clear()
    assert psd_certified(stack, tol).tolist() == [True] * 7 + [False]
    assert calls == [4]  # 8 matrices over a budget of 3 make two blocks of 4, not 3, 3 and 2
    monkeypatch.setattr(distlab.linalg, "BLOCK_BYTES", 1 << 18)
    expected = eigvalsh_verdict(stack, tol)
    calls.clear()
    assert np.array_equal(psd_certified(stack, tol), expected)
    assert calls == [8]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(1, 1), (0, 2)], ids=["diagonal", "off-diagonal"])
def test_psd_certificate_of_non_finite_entries_is_the_eigvalsh_answer(value, entry):
    m = np.eye(3, dtype=complex)
    m[entry] = m[entry[::-1]] = value
    stack = np.array([np.eye(3), m, np.eye(3)], dtype=complex)
    try:
        expected = min_eigenvalue(stack) >= -1e-9
    except np.linalg.LinAlgError as exc:
        with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
            psd_certified(stack, 1e-9)
    else:
        assert np.array_equal(psd_certified(stack, 1e-9), expected)
        assert not expected[1]


def exactly_positive_definite(h, shift):
    """Whether h + shift I is positive definite, by an LDL^T factorization in exact rationals."""
    n = len(h)
    a = [[Fraction(float(h[i, j].real)) + (Fraction(shift) if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, i + 1):
                a[i][j] -= f * a[j][k]
    return True


def test_psd_certificate_accepts_only_what_eigvalsh_or_exact_arithmetic_accepts():
    # real matrices whose lambda_min lies within rounding of -tol, with a large spread of the spectrum
    rng = np.random.default_rng(2)
    tol = 1e-6
    for _ in range(600):
        spectrum = np.concatenate([[0.0], rng.uniform(0.5, 1, 2) * 1e4])
        spectrum[0] = -tol - rng.uniform(-1, 1) * 3 * np.finfo(float).eps / 2 * spectrum.max()
        h = hermitian_with_spectrum(rng, spectrum, real=True)
        h = (h + h.T) / 2
        got, oracle = psd_certified(h, tol), bool(eigvalsh_verdict(h, tol))
        if got != oracle:  # only a pass that exact arithmetic confirms may differ from eigvalsh
            assert got and exactly_positive_definite(h, tol)
