"""Dense complex matrix algebra with multipartite index operations.

Matrices are plain ``numpy`` arrays of ``complex128`` in row-major layout;
the checks that answer yes or no also take the float64 copy of a real stack
(see :func:`real_if_zero_imag`).
A composite system is described by a tuple of local dimensions ``dims``;
global indices are lexicographic multi-indices with party 0 slowest-varying,
which is exactly the ordering produced by ``numpy.kron``.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import threading
from functools import lru_cache
from json.decoder import JSONArray
from json.scanner import py_make_scanner
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


def _checked_stack(m) -> np.ndarray:
    """``m`` as a square matrix or a ``(..., side, side)`` stack of them: float64 input stays float64, anything
    else becomes complex."""
    m = np.asarray(m)
    if m.dtype != np.float64:
        m = m.astype(complex, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def real_if_zero_imag(m: np.ndarray) -> np.ndarray:
    """A contiguous float64 copy of the real part of the complex array ``m`` when its imaginary part is identically
    zero, else ``m`` itself.

    It is taken once per stack.  The checks that answer yes or no run on it, and so do the residuals that come
    out the same in either arithmetic, because a zero imaginary part adds only zeros: the completeness residual
    and :func:`hermiticity_defect`.  In float64 those checks cost a half to a seventh of the complex arithmetic.
    The eigenvalues and products a report prints are still taken from ``m``.
    """
    return m if m.imag.any() else np.ascontiguousarray(m.real)


def is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, (bool, np.bool_))


def check_dims(dims: Sequence[int], side: int | None = None) -> tuple[int, ...]:
    """Validate a tuple of per-party local dimensions, each an integer (see :func:`is_integer`)."""
    t = tuple(dims)
    for d in t:
        if not is_integer(d):
            raise ValueError(f"local dimension {d!r} is not an integer")
    t = tuple(int(d) for d in t)
    if len(t) < 1 or any(d < 1 for d in t):
        raise ValueError(f"invalid local dimensions {t}")
    if side is not None and int(np.prod(t)) != side:
        raise ValueError(f"dims {t} do not factor matrix side {side}")
    return t


def check_sub_dims(dims: tuple[int, ...], sub_dims: Sequence[int]) -> tuple[int, ...]:
    """Validate ``sub_dims`` as a subsystem of the checked ``dims``: as many parties, none larger."""
    sub_dims = check_dims(sub_dims)
    if len(sub_dims) != len(dims):
        raise ValueError(f"party count mismatch: {len(dims)} vs {len(sub_dims)}")
    if any(s > d for d, s in zip(dims, sub_dims)):
        raise ValueError(f"sub_dims {sub_dims} must not exceed dims {dims}")
    return sub_dims


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of one matrix or of each matrix of a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def hermitian_part(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(M + M^H) / 2 for each matrix M of the stack ``m``, into ``out`` if given."""
    out = np.add(m, dagger(m), out=out)
    out /= 2
    return out


def hermiticity_defect(m: np.ndarray):
    """Max entrywise |M - M^dagger|: a float for one matrix, an array of shape
    ``m.shape[:-2]`` for a stack (one defect per matrix).

    A float64 ``m`` is checked in float64 (see :func:`real_if_zero_imag`): its defect is the same
    number as that of the complex matrix with a zero imaginary part, bit for bit."""
    m = _checked_stack(m)
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
        if not is_integer(p):
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
    m = _checked_stack(m)
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
        h = hermitian_part(m)
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

    A float64 ``m`` (a real stack, see :func:`real_if_zero_imag`) is factored in float64, where the same
    bound holds, under the same rule; a block it does not certify gets the complex ``min_eigenvalue`` of
    its matrices, so the eigenvalues tested are those of the complex matrices.
    """
    m = _checked_stack(m)
    side = m.shape[-1]
    flat = m.reshape((-1, side, side))
    ok, idx = np.empty(len(flat), dtype=bool), np.arange(side)
    u = np.finfo(float).eps / 2
    gamma = (side + 1) * u / (1 - (side + 1) * u)
    step = -(-len(flat) // max(1, flat.nbytes // BLOCK_BYTES))
    for lo in range(0, len(flat), step):
        block = flat[lo : lo + step]
        with np.errstate(invalid="ignore"):  # a block with a non-finite entry is left to min_eigenvalue below
            h = hermitian_part(block)
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
    idx = _inrange_indices(dims, check_sub_dims(dims, sub_dims))
    return m[..., idx[:, None], idx]


def trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs tr(A_i B_j) of two ``(n, side, side)`` stacks, as an ``(n, m)`` array."""
    n, m = len(a), len(b)
    return (b.reshape(m, -1) @ np.ascontiguousarray(a.transpose(2, 1, 0)).reshape(-1, n)).T


def _as_wire_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return a


def matrix_to_json(m: np.ndarray) -> dict:
    """Wire format shared by every tool: row-major real/imaginary parts."""
    a = _as_wire_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


_encode_strict = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _entries_text(part: np.ndarray) -> str:
    kept = np.flatnonzero((part != 0) | np.signbit(part))  # every entry but +0.0: -0.0, NaN and the numbers
    values = part[kept]
    numbers = np.full(len(kept), "-0.0", dtype=object)
    nonzero = values != 0
    if nonzero.any():
        numbers[nonzero] = _encode_strict(values[nonzero].tolist())[1:-1].split(",")
    runs = np.diff(kept, prepend=-1, append=len(part)) - 1  # the +0.0 entries before each kept one, and after the last
    text = "".join(["0.0," * run + number + "," for run, number in zip(runs.tolist(), numbers.tolist())])
    return "[" + (text + "0.0," * int(runs[-1]))[:-1] + "]"


def matrix_json_text(m: np.ndarray) -> str:
    """The text of ``json.dumps(matrix_to_json(m), separators=(",", ":"), allow_nan=False)``, byte for byte.

    Of each part, real and imaginary, the entries other than ±0.0 go through the strict stdlib encoder in
    one call, each -0.0 is written as ``-0.0`` and each run of +0.0 entries as repeated ``0.0,`` text, so
    no Python float is made for a zero.  A non-finite entry raises the encoder's ``ValueError``.
    """
    a = _as_wire_matrix(m)
    re, im = _entries_text(a.real.ravel()), _entries_text(a.imag.ravel())
    return '{"rows":%d,"cols":%d,"re":%s,"im":%s}' % (*a.shape, re, im)


def _flat_values(text: str) -> list:
    """``json.loads("[" + text + "]")`` for the ASCII inside of a flat array; ``ValueError`` where a token is not
    one JSON value.

    Where more than four in five tokens are exactly ``0.0``, found from the commas in the bytes, each of them is
    the one float of ``[0.0] * n`` and only the other tokens are decoded, in one call.  Below that share, decoding
    a zero costs less than finding it.  An array with that share averages under 9 bytes a token with its comma (a
    float as Python writes it has at most 24 characters), so one averaging more is decoded whole, without the pass.
    """
    b = np.frombuffer(text.encode("ascii") + b",  ", dtype=np.uint8)  # a comma ends the last token, two bytes pad
    comma = b == ord(",")
    if len(b) < 9 * np.count_nonzero(comma):
        ends = np.flatnonzero(comma)
        starts = np.concatenate(([0], ends[:-1] + 1))  # token k is text[starts[k]:ends[k]]
        zero = ends - starts == 3
        zero &= (b[starts] == ord("0")) & (b[starts + 1] == ord(".")) & (b[starts + 2] == ord("0"))
        keep = np.flatnonzero(~zero)
        if 5 * len(keep) < len(zero):
            kept = [text[i:j] for i, j in zip(starts[keep].tolist(), ends[keep].tolist())]
            values = json.loads("[" + ",".join(kept) + "]")
            if len(values) != len(keep):  # an empty token: "[0.0,]"
                raise ValueError("a token is not one value")
            out = [0.0] * len(zero)
            for k, v in zip(keep.tolist(), values):
                out[k] = v
            return out
    return json.loads("[" + text + "]")


def _array(s_and_end: tuple[str, int], scan_once):
    """The stdlib's ``JSONArray``, but an array whose text up to the next ``]`` holds no ``"``, ``[`` or ``{`` is
    decoded by :func:`_flat_values`; where that fails, ``JSONArray`` decodes the array or raises its error."""
    s, end = s_and_end
    close = s.find("]", end)
    text = s[end:close]
    if close >= 0 and '"' not in text and "[" not in text and "{" not in text:
        try:
            return _flat_values(text), close + 1
        except ValueError:
            pass
    return JSONArray(s_and_end, scan_once)


class _Decoder(json.JSONDecoder):
    """The default decoder, with the stdlib's Python scanner calling :func:`_array` for each array."""

    def __init__(self):
        super().__init__()
        self.parse_array = _array
        self.scan_once = py_make_scanner(self)

    def decode(self, s: str):
        # the Python scanner reads any Unicode digit in a number, the C one 0-9 only
        return super().decode(s) if s.isascii() else json.JSONDecoder().decode(s)


def read_json(raw: bytes):
    """``json.loads(raw)``, with the same values, exceptions and messages, but no Python float made for each
    ``0.0`` of a flat number array that is mostly such tokens (see :func:`_flat_values`).

    The one difference is depth: ASCII text is scanned by the stdlib's Python scanner, which raises
    ``RecursionError`` for arrays and objects nested a few hundred deep, where the C scanner of ``json.loads``
    raises it at about a thousand.
    """
    return json.loads(raw, cls=_Decoder)


def _has_kind(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_has_kind(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_kind(v, kind[0]) for v in value)
    if kind is int:
        return is_integer(value)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, kind)


def _kind_name(kind, plural: str = "") -> str:
    if isinstance(kind, tuple):
        return " or ".join(_kind_name(k, plural) for k in kind)
    if isinstance(kind, list):
        return f"list{plural} of {_kind_name(kind[0], 's')}"
    names = {int: "integer", float: "number", str: "string", bool: "boolean", list: "list", dict: "object",
             type(None): "null"}
    return names[kind] + plural


def strict_object(obj, what: str, required: dict, optional: dict = {}) -> dict:
    """Return ``obj`` if it is a JSON object with every ``required`` field, no field outside ``required`` and
    ``optional``, and in each field a value of the JSON kind they map it to; raise ``ValueError`` otherwise.

    A kind is ``int`` (a JSON integer, not ``true``, ``2.0`` or ``"2"``), ``float`` (a JSON number, not a
    boolean or text), ``str``, ``bool``, ``list``, ``dict`` (an object), ``type(None)`` (null), ``object`` (any
    value), ``[kind]`` (a list whose every entry has that kind) or a tuple of kinds (a value of any of them).  The
    readers check values, such as dims, after it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object")
    kinds = {**required, **optional}
    unknown = set(obj).difference(kinds)
    if unknown:
        raise ValueError(f"unknown {what} fields {sorted(unknown)}")
    missing = [f for f in required if f not in obj]
    if missing:
        raise ValueError(f"{what} JSON lacks fields {missing}")
    for name, value in obj.items():
        if not _has_kind(value, kinds[name]):
            raise ValueError(f"{what} field {name!r} must be a JSON {_kind_name(kinds[name])}")
    return obj


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse a matrix object strictly: ``rows`` and ``cols`` must be nonnegative JSON integers and every entry a
    finite JSON number; any defect raises ``ValueError``."""
    strict_object(obj, "matrix", {"rows": int, "cols": int, "re": list, "im": list})
    rows, cols = obj["rows"], obj["cols"]
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix rows and cols must not be negative, got {rows}x{cols}")
    try:  # struct packs numbers only ("1.5", null and lists fail; true is an int to it), twice as fast as np.asarray
        re, im = (np.frombuffer(struct.pack(f"{len(obj[part])}d", *obj[part])) for part in ("re", "im"))
    except (TypeError, struct.error) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(f"matrix entries do not match {rows}x{cols}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite numbers, not NaN or Infinity")
    return (re + 1j * im).reshape(rows, cols)


def matrices_from_json(objs, what: str) -> np.ndarray:
    """Parse a nonempty list of equal-shape matrix objects straight into one ``(n, rows, cols)`` stack."""
    if not objs:
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


class WorkerLost(RuntimeError):
    """A worker process ended without a result, for example killed by a signal."""


def worker_count(blocks: int) -> int:
    """Workers that run ``blocks`` blocks of work: one per CPU this process may run on, at most one per block.
    :func:`in_workers` forks them as processes.

    One where the platform has no ``os.fork`` or ``os.sched_getaffinity``, or where another thread runs:
    a forked child would hold that thread's locks in whatever state the fork caught them.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), blocks))


def in_workers(run_block, blocks: int) -> dict:
    """``{g: run_block(g)}`` over the blocks g < ``blocks`` whose result is not empty.

    The blocks run in W = :func:`worker_count` processes, process w running the blocks g ≡ w (mod W): share 0
    runs in the calling process, each other share in a child forked for it, which pickles its results, or its
    first exception with its g, into a pipe and leaves by ``os._exit`` (so it never flushes the inherited stdio
    or runs exit handlers).  The exception raised is that of the smallest failing g, the one a loop over the
    blocks raises first.  Every child is killed if still running and reaped before this returns or raises; a
    child that ends without a result raises a :class:`WorkerLost` naming its exit status.  With W = 1 nothing
    is forked.
    """
    workers = worker_count(blocks)

    def share(w):  # (results, None), or (results so far, (g, exception)) at the first block that raised
        results = {}
        for g in range(w, blocks, workers):
            try:
                found = run_block(g)
            except Exception as exc:
                return results, (g, exc)
            if found:
                results[g] = found
        return results, None

    pipes: dict[int, int | None] = {}  # child pid -> read end of its pipe (None once closed), until reaped
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child: never returns into the caller
                code = 1
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(share(w), pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            pipes[pid] = read
        results, error = share(0)
        errors = [error] if error else []
        for pid in list(pipes):
            with os.fdopen(pipes[pid], "rb") as pipe:
                pipes[pid] = None
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pipes[pid]
            if status:  # below 0: killed by a signal
                how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
                raise WorkerLost(f"worker process {pid} {how} without a result")
            found, error = pickle.loads(data)  # written by the child above
            results.update(found)
            errors += [error] if error else []
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        return results
    finally:
        if pipes:  # only after an error: the signal module is loaded here, not on every import
            from signal import SIGKILL

            for pid, read in pipes.items():
                os.kill(pid, SIGKILL)
                if read is not None:
                    os.close(read)
                os.waitpid(pid, 0)
