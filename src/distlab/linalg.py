"""Dense complex matrix algebra with multipartite index operations.

Matrices are plain ``numpy`` arrays of ``complex128`` in row-major layout.
A composite system is described by a tuple of local dimensions ``dims``;
global indices are lexicographic multi-indices with party 0 slowest-varying,
which is exactly the ordering produced by ``numpy.kron``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

# Positivity / completeness checks default to 1e-9, exact algebraic
# identities to 1e-12.  Both are overridable per call.
DEFAULT_TOL = 1e-9
ALGEBRA_TOL = 1e-12
HERMITIAN_TOL = 1e-10
# Batched checks take their stacks in blocks of about this many bytes, which bounds
# their temporaries: StateSet.from_stack, and the fuzz per block of samples.
BLOCK_BYTES = 1 << 18


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix without copying when possible."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_stack(m) -> np.ndarray:
    """Coerce input to a square complex matrix or a ``(..., side, side)`` stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def check_dims(dims: Sequence[int], side: int | None = None) -> tuple[int, ...]:
    """Validate a tuple of per-party local dimensions."""
    t = tuple(int(d) for d in dims)
    if len(t) < 1 or any(d < 1 for d in t):
        raise ValueError(f"invalid local dimensions {t}")
    if side is not None and int(np.prod(t)) != side:
        raise ValueError(f"dims {t} do not factor matrix side {side}")
    return t


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of one matrix or of each matrix of a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def hermiticity_defect(m: np.ndarray):
    """Max entrywise |M - M^dagger|: a float for one matrix, an array of shape
    ``m.shape[:-2]`` for a stack (one defect per matrix)."""
    m = as_stack(m)
    defect = np.max(np.abs(m - dagger(m)), axis=(-2, -1), initial=0.0)
    return float(defect) if m.ndim == 2 else defect


def tensor(*matrices: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor slowest-varying.

    Each factor is one matrix or a ``(..., d, d)`` stack; stacks multiply
    matrix by matrix (leading axes broadcast), entry for entry as ``np.kron``.
    """
    if not matrices:
        raise ValueError("tensor of zero factors is undefined")
    out = as_stack(matrices[0])
    for m in matrices[1:]:
        m = as_stack(m)
        lead = np.broadcast_shapes(out.shape[:-2], m.shape[:-2])
        side = out.shape[-1] * m.shape[-1]
        out = (out[..., :, None, :, None] * m[..., None, :, None, :]).reshape(lead + (side, side))
    return out


def _party_list(dims: tuple[int, ...], party: int | Iterable[int]) -> list[int]:
    parties = list(party) if isinstance(party, Iterable) else [party]
    for p in parties:
        if isinstance(p, (bool, np.bool_)) or not isinstance(p, (int, np.integer)):
            raise ValueError(f"party {p!r} is not an integer")
        if not 0 <= p < len(dims):
            raise ValueError(f"party {p} out of range for {len(dims)} parties")
    if len(set(parties)) != len(parties):
        raise ValueError(f"repeated party in {parties}")
    return [int(p) for p in parties]


def bipartition(dims: tuple[int, ...], party: int | Iterable[int]) -> tuple[int, ...]:
    """The parties of one side of a cut of ``dims``, sorted: each in range, none
    repeated, and at least one party left on each side."""
    parties = _party_list(dims, party)
    if not 0 < len(parties) < len(dims):
        raise ValueError(f"cut {parties} leaves one side of the {len(dims)} parties empty")
    return tuple(sorted(parties))


def partial_transpose(m: np.ndarray, dims: Sequence[int], party: int | Iterable[int]) -> np.ndarray:
    """Transpose the indices of the chosen party (or parties) only.

    Involutive and trace-preserving; accepts a single party index or an
    iterable of them (transpositions on distinct parties commute).  ``m`` is
    one matrix or a stack of shape ``(..., side, side)``, transposed matrix
    by matrix; float64 input stays float64, anything else becomes complex.
    """
    m = np.asarray(m)
    if m.dtype != np.float64:
        m = m.astype(complex, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    dims = check_dims(dims, m.shape[-1])
    parties = _party_list(dims, party)
    k, lead = len(dims), m.ndim - 2
    axes = list(range(lead + 2 * k))
    for p in parties:
        axes[lead + p], axes[lead + k + p] = axes[lead + k + p], axes[lead + p]
    return m.reshape(m.shape[:lead] + dims + dims).transpose(axes).reshape(m.shape)


def min_eigenvalue(m: np.ndarray):
    """Smallest eigenvalue of the Hermitian part of ``m``: a float for one matrix,
    an array of shape ``m.shape[:-2]`` for a stack (one batched ``eigvalsh``)."""
    m = as_stack(m)
    with np.errstate(invalid="ignore"):  # complex arithmetic on an infinite entry makes NaNs, left to eigvalsh
        h = m + dagger(m)
        h /= 2  # in place: one stack-sized temporary fewer
    w = np.linalg.eigvalsh(h)[..., 0]
    return float(w) if m.ndim == 2 else w


def psd_certified(m: np.ndarray, tol: float):
    """Whether ``min_eigenvalue(m) >= -tol``: a bool for one matrix, an array of
    shape ``m.shape[:-2]`` for a stack, decided in blocks of one to two ``BLOCK_BYTES``
    (a stack just over the budget, such as a block of fuzz samples, stays one block).

    A block is first given one batched Cholesky factorization of H + (tol - c) I,
    H the Hermitian part as in :func:`min_eigenvalue` and, per matrix,
    c = 4 gamma_{n+1} (sum_i |h_ii| + n tol) + n eta, with gamma_k = k u / (1 - k u),
    u the unit roundoff and eta the smallest normal float.  When it completes,
    the rounding bound of a completed Cholesky (Demmel 1989; Rump, BIT 46, 2006)
    proves lambda_min(H) >= -tol for every member.  Otherwise (a member that
    fails or lies near the bound, or a non-finite entry) the block is decided by
    ``min_eigenvalue(block) >= -tol``.  The two answers can differ only on a
    matrix whose exact lambda_min lies within about n eps ||H|| above -tol.
    """
    m = as_stack(m)
    side = m.shape[-1]
    flat = m.reshape((-1, side, side))
    ok, idx = np.empty(len(flat), dtype=bool), np.arange(side)
    u = np.finfo(float).eps / 2
    gamma = (side + 1) * u / (1 - (side + 1) * u)
    step = -(-len(flat) // max(1, flat.nbytes // BLOCK_BYTES))
    for lo in range(0, len(flat), step):
        block = flat[lo : lo + step]
        with np.errstate(invalid="ignore"):  # a block with a non-finite entry is left to min_eigenvalue below
            h = block + dagger(block)
            h /= 2
            c = 4 * gamma * (np.abs(h[:, idx, idx]).sum(axis=-1) + side * tol) + side * np.finfo(float).tiny
            h[:, idx, idx] += (tol - c)[:, None]
        if np.isfinite(h).all():  # numpy's Cholesky can complete on NaN entries
            try:
                np.linalg.cholesky(h)
                ok[lo : lo + step] = True
                continue
            except np.linalg.LinAlgError:
                pass
        ok[lo : lo + step] = min_eigenvalue(block) >= -tol
    return ok.reshape(m.shape[:-2]) if m.ndim > 2 else bool(ok[0])


@lru_cache(maxsize=64)
def _inrange_indices(dims: tuple[int, ...], sub_dims: tuple[int, ...]) -> np.ndarray:
    """Global indices in a ``dims`` system whose multi-index is componentwise < sub_dims.

    Returned in lexicographic multi-index order, so position ``s`` corresponds
    to global index ``s`` of the ``sub_dims`` system.  Cached per argument pair
    and shared by every caller, so the array is read-only.
    """
    idx = np.zeros(1, dtype=np.intp)
    for d, ds in zip(dims, sub_dims):
        idx = (idx[:, None] * d + np.arange(ds, dtype=np.intp)[None, :]).ravel()
    idx.flags.writeable = False
    return idx


def embed_matrix(m: np.ndarray, dims: Sequence[int], new_dims: Sequence[int]) -> np.ndarray:
    """Zero-pad each local dimension: scatter ``m`` onto the in-range multi-indices.

    For a single party this is the familiar top-left block; for two or more
    parties the in-range multi-indices are not contiguous in lexicographic
    ordering, so the entries are scattered onto that sub-lattice instead.
    ``m`` is one matrix or a ``(..., side, side)`` stack; both maps work matrix by matrix.
    """
    m = as_stack(m)
    dims = check_dims(dims, m.shape[-1])
    new_dims = check_dims(new_dims)
    if len(new_dims) != len(dims):
        raise ValueError(f"party count mismatch: {len(dims)} vs {len(new_dims)}")
    if any(n < d for d, n in zip(dims, new_dims)):
        raise ValueError(f"new_dims {new_dims} must dominate dims {dims} componentwise")
    side = int(np.prod(new_dims, dtype=np.int64))
    out = np.zeros(m.shape[:-2] + (side, side), dtype=complex)
    idx = _inrange_indices(new_dims, dims)
    out[..., idx[:, None], idx] = m
    return out


def restrict_matrix(m: np.ndarray, dims: Sequence[int], sub_dims: Sequence[int]) -> np.ndarray:
    """Exact adjoint of :func:`embed_matrix`: keep rows/columns with in-range multi-indices."""
    m = as_stack(m)
    dims = check_dims(dims, m.shape[-1])
    sub_dims = check_dims(sub_dims)
    if len(sub_dims) != len(dims):
        raise ValueError(f"party count mismatch: {len(dims)} vs {len(sub_dims)}")
    if any(s > d for d, s in zip(dims, sub_dims)):
        raise ValueError(f"sub_dims {sub_dims} must not exceed dims {dims}")
    idx = _inrange_indices(dims, sub_dims)
    return m[..., idx[:, None], idx]


def group_sums(stack: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum consecutive groups of ``stack``: group ``g`` is the ``counts[g] >= 1`` members
    from ``starts[g]`` on, summed from its first member in stack order."""
    total = stack[starts]
    for j in range(1, int(counts.max())):
        has = counts > j
        total[has] += stack[starts[has] + j]
    return total


def trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs tr(A_i B_j) of two ``(n, side, side)`` stacks, as an ``(n, m)`` array."""
    n, m = len(a), len(b)
    return (b.reshape(m, -1) @ np.ascontiguousarray(a.transpose(2, 1, 0)).reshape(-1, n)).T


def matrix_to_json(m: np.ndarray) -> dict:
    """Wire format shared by every tool: row-major real/imaginary parts."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def strict_object(obj, what: str, required: Sequence[str], optional: Sequence[str] = ()) -> dict:
    """Return ``obj`` if it is a JSON object that has every ``required`` field and no
    field outside ``required`` and ``optional``; raise ``ValueError`` otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object")
    unknown = set(obj).difference(required, optional)
    if unknown:
        raise ValueError(f"unknown {what} fields {sorted(unknown)}")
    missing = [f for f in required if f not in obj]
    if missing:
        raise ValueError(f"{what} JSON lacks fields {missing}")
    return obj


def matrix_from_json(obj: dict) -> np.ndarray:
    strict_object(obj, "matrix", ("rows", "cols", "re", "im"))
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(f"matrix entries do not match {rows}x{cols}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite numbers, not NaN or Infinity")
    return (re + 1j * im).reshape(rows, cols)


def matrices_from_json(objs, what: str) -> np.ndarray:
    """Parse a nonempty list of equal-shape matrix objects straight into one ``(n, rows, cols)`` stack."""
    if not isinstance(objs, list) or not objs:
        raise ValueError(f"{what} JSON needs a nonempty list of matrices")
    out = None
    for k, obj in enumerate(objs):
        m = matrix_from_json(obj)
        if out is None:
            out = np.empty((len(objs),) + m.shape, dtype=complex)
        elif m.shape != out.shape[1:]:
            raise ValueError(f"{what} matrix {k} has shape {m.shape}, expected {out.shape[1:]}")
        out[k] = m
    return out
