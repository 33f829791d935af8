"""The cone frames of the PPT SDP iteration, and the smallest *-algebra that holds the problem's data.

``sdp.solve`` iterates on stacks of coordinates, one row per copy of a block, and each cut's cone sees a copy through
a frame: a map from its coordinates to Hermitian blocks that are clipped to PSD, and back.  A :class:`MatrixFrame`
works on full matrices, with the partial transpose of its cut as an index map.  An :class:`AlgebraFrame` works on
real coordinates in an orthonormal basis of the Hermitian part of a *-algebra A and maps them to blocks
M_{n_j} (x) I_{m_j}.

:func:`reduction` looks for the smallest *-algebra A that holds I, the objective blocks and the target and whose
partial transpose on every cut of the problem is an algebra too (de Klerk, Pasechnik & Schrijver 2007; Murota et al.
2010).  Every ADMM iterate then lies in A: the affine step combines members of A, and clipping is a function of a
member of a cone's frame of A.  A is grown by products of its members, the temporaries of a chunk of products within
``linalg.BLOCK_BYTES``, and given up once its dimension passes ``ALGEBRA_SHARE`` of side**2 or its basis passes
``ALGEBRA_BYTES``.  Each cut's frame of A is split into blocks by the eigenspaces of a generic member, and kept only
if it passes its checks (sum m_j n_j = side, sum n_j**2 = dim A, and the coordinates rebuild every member and are an
isometry under the weights m_j, all to ``FRAME_TOL``); otherwise the solve runs unreduced.  For real data A, its
basis and its frames are real.

The module is apart from ``sdp`` so that, without a bytecode cache, a process that loads ``sdp`` compiles two modules
in turn, not one of their joint size: the compiler's peak memory grows with the module.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .linalg import BLOCK_BYTES, dagger, hermitian_part

# The data's *-algebra is given up once its dimension passes ALGEBRA_SHARE of side**2 (an algebra of just that
# dimension is kept) or its basis would pass ALGEBRA_BYTES.  Both bound the cost of finding it: on data with no symmetry
# giving up took 2-24 ms at sides 9 to 25 (1% to 3% of the unreduced solve) and 9-14 ms at side 64, while finding a
# larger algebra grows about as dim A**3 side**2 (0.36 s for dim A 108 at side 18).  Past a quarter the reduced
# iteration was measured both slower and faster than the unreduced one; at a quarter, on bell3, faster (README,
# "Layout").
ALGEBRA_SHARE = 0.25
ALGEBRA_BYTES = 4 * BLOCK_BYTES
# Seeds the generic members that split each algebra into blocks (see _algebra_frame), so every interpreter finds the
# same frames.
ALGEBRA_SEED = 2007
# A product of unit basis elements adds a direction to the algebra when its residual off the span exceeds SPAN_TOL,
# at once when the residual exceeds NEW_SHARE (normalizing a smaller one magnifies its rounding); a frame, and the
# data's coordinates, must rebuild their matrices to FRAME_TOL.
SPAN_TOL = 1e-9
NEW_SHARE = 1e-2
FRAME_TOL = 1e-12


def _moved(src: np.ndarray, perm, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the matrices of ``src``, each with its entries taken at the flat positions ``perm``
    (a partial transpose's index map), or unmoved for ``perm`` None; both stacks are contiguous."""
    if perm is None:
        out[...] = src
    else:
        np.take(src.reshape(len(src), -1), perm, axis=1, out=out.reshape(len(out), -1))
    return out


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(B_j^H A_i) for the matrices A_i of the rows of ``a`` and B_j of the rows of ``b``, one row per A_i: the
    matrix products stay complex for complex rows and real for real ones."""
    return (a.conj() @ b.T).conj()


def _parts(m: np.ndarray) -> np.ndarray:
    """The Hermitian parts (M + M^H)/2 of a stack of matrices M, then (M - M^H)/2i (for real M: (M - M^T)/2)."""
    h = dagger(m)
    return np.concatenate([m + h, (m - h) / (1j if np.iscomplexobj(m) else 1)]) / 2


def _real(a: np.ndarray) -> np.ndarray:
    """A contiguous array as real numbers, a view: a complex entry becomes its real and imaginary parts."""
    return a.view(np.float64) if np.iscomplexobj(a) else a


def coordinates(mats: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Re tr(B_k^H M) for each matrix M of the stack ``mats`` (a row) and each member B_k of ``basis`` (a column)."""
    return _inner(mats.reshape(len(mats), -1), basis.reshape(len(basis), -1)).real


def matrices(coords: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The Hermitian parts of sum_k a_k B_k, one matrix per row a of real ``coords``, for the Hermitian members B_k
    of the contiguous ``basis``: exactly Hermitian, as the sum is to rounding.  The product is taken on real
    numbers, the basis members' real and imaginary parts."""
    sums = coords @ _real(basis.reshape(len(basis), -1))
    return hermitian_part(sums.view(basis.dtype).reshape(len(coords), *basis.shape[1:]))


class MatrixFrame:
    """The cone of one cut on full-matrix coordinates: a copy's frame is the Hermitian part of its matrix (``perm``
    None) or of its partial transpose through the index map ``perm``, one block of the full side."""

    def __init__(self, perm, side: int):
        self.perm, self.shape = perm, (side, side)

    def plan(self, src: np.ndarray, out: np.ndarray):
        """``(into, stacks, back)`` for the contiguous stacks ``src`` and ``out``, their views made once: ``into()``
        puts the frames of ``src`` in ``stacks``, to be clipped in place, and ``back()`` takes them into ``out``.  The
        PSD cone's frames are ``out`` itself; a PT cut's are a stack of their own, and ``into`` uses ``out`` as
        scratch."""
        if self.perm is None:
            return (lambda: hermitian_part(src, out=out)), [out], (lambda: None)
        frames = np.empty_like(out)
        s, o, f = (a.reshape(len(a), -1) for a in (src, out, frames))

        def into():
            np.take(s, self.perm, axis=1, out=o)
            hermitian_part(out, out=frames)

        return into, [frames], lambda: np.take(f, self.perm, axis=1, out=o)


class AlgebraFrame:
    """The cone of one cut on algebra coordinates a: in a unitary frame a copy's matrix is the block sum of
    I_{m_j} (x) X_j, each n_j x n_j block X_j = sum_k a_k T_jk.  ``blocks`` lists the (n_j, m_j), smallest n_j first,
    and ``sizes`` per block size how many blocks have it.  A copy's frame is one row of its blocks' entries, of
    ``dtype``; ``fwd`` takes a row of coordinates to it and ``bwd``, weighted by the m_j, back: both multiply row by
    row, so a copy's frame does not depend on the rows it is stacked with."""

    def __init__(self, blocks: tuple, fwd: np.ndarray, bwd: np.ndarray, dtype):
        self.blocks, self.fwd, self.bwd, self.dtype = blocks, fwd, bwd, dtype
        self.sizes = tuple(sorted(Counter(n for n, _ in blocks).items()))
        self.shape = (sum(k * n * n for n, k in self.sizes),)

    def plan(self, src: np.ndarray, out: np.ndarray):
        """``(into, stacks, back)`` for the coordinate stacks ``src`` and ``out``, their views made once: ``into()``
        puts the frames of ``src`` in a stack of their own, ``stacks`` views its blocks of each size n, shaped
        (copies, count, n, n), to be clipped in place, and ``back()`` takes them into ``out``."""
        frames = np.empty((len(src), *self.shape), self.dtype)
        ends = np.cumsum([k * n * n for n, k in self.sizes])
        stacks = [frames[:, end - k * n * n : end].reshape(len(frames), k, n, n) for (n, k), end in zip(self.sizes, ends)]
        a, f, o = src[:, None], _real(frames)[:, None], out[:, None]
        return (lambda: np.matmul(a, self.fwd, out=f)), stacks, lambda: np.matmul(f, self.bwd, out=o)


def _extended(basis: np.ndarray, d: int, rows: np.ndarray, limit: int, floor: float):
    """Extend the orthonormal basis[:d] by the directions the Hermitian (for real data: symmetric or antisymmetric)
    ``rows``, one matrix's entries each, add to its span, the largest residual first, while one exceeds ``floor``.
    Returns the new d, None once it would pass ``limit``, and the rows whose residual is left between SPAN_TOL and
    ``floor``, orthogonal to the new span."""
    q = basis[:d].reshape(d, rows.shape[1])
    rows -= _inner(rows, q).real @ q
    rows = rows[np.linalg.norm(rows, axis=1) > SPAN_TOL]
    rows -= _inner(rows, q).real @ q  # twice is enough for orthogonality
    norms = np.linalg.norm(rows, axis=1)
    while len(rows) and norms.max() > floor:
        if d == limit:
            return None, rows
        new = basis[d].reshape(-1)
        new[...] = rows[np.argmax(norms)] / norms.max()
        rows -= _inner(rows, new[None]).real * new
        norms = np.linalg.norm(rows, axis=1)
        d += 1
    return d, rows[norms > SPAN_TOL]


def _algebra(gens: np.ndarray, maps: list, limit: int) -> np.ndarray | None:
    """An orthonormal basis of the smallest *-algebra A that holds I and the Hermitian ``gens`` and whose image under
    each index map is an algebra too: of A's Hermitian part for complex data, of A itself for real data (symmetric and
    antisymmetric members).  None once dim A would pass ``limit``, or its basis ALGEBRA_BYTES.

    Each member a is multiplied, under every map P, with every member b before it, as P(P(a) P(b)), a chunk of
    products at a time: a chunk's buffers and the temporaries of its membership test stay within ``BLOCK_BYTES``.  A
    product is in A when its residual off A's complex span is below SPAN_TOL (the one test covers both Hermitian
    parts (ab + ba)/2 and (ab - ba)/2i, whose coefficients are the real and imaginary parts of the product's).  The
    Hermitian (for real data: symmetric and antisymmetric) parts of a residual are the candidate new directions.  A
    candidate adds its direction at once only where its residual exceeds NEW_SHARE; a smaller one waits until the
    pass over the products ends, by when another candidate has often brought the same direction with less
    rounding."""
    side = gens.shape[-1]
    member = side * side * gens.itemsize
    limit = min(limit, ALGEBRA_BYTES // member)
    basis = np.empty((limit, side, side), gens.dtype)  # ALGEBRA_BYTES at most; only the pages of d members are used
    d, _ = _extended(basis, 0, np.concatenate([np.eye(side, dtype=gens.dtype)[None], gens]).reshape(len(gens) + 1, -1),
                     limit, SPAN_TOL)
    done = [0] * len(maps)  # per map, the members whose products are in the span
    chunk = max(1, BLOCK_BYTES // (8 * member))  # products per chunk: 5 * chunk members of buffers, 2 of temporaries
    pairs, moved = np.empty((2, 2 * chunk, side, side), gens.dtype)  # the buffers every chunk reuses
    prods = np.empty((chunk, side, side), gens.dtype)
    while d is not None and min(done) < d:
        k = done.index(min(done))
        perm, lo, done[k] = maps[k], done[k], d
        i, j = np.tril_indices(d)
        i, j = i[i >= lo], j[i >= lo]
        waiting = np.empty((0, side * side), gens.dtype)
        for at in range(0, len(i), chunk):
            n = len(i[at : at + chunk])
            np.take(basis, np.concatenate([i[at : at + n], j[at : at + n]]), axis=0, out=pairs[: 2 * n])
            src = pairs[: 2 * n] if perm is None else _moved(pairs[: 2 * n], perm, moved[: 2 * n])
            p = np.matmul(src[:n], src[n:], out=prods[:n])
            rows = (p if perm is None else _moved(p, perm, pairs[:n])).reshape(n, -1)
            q = basis[:d].reshape(d, -1)
            rows -= _inner(rows, q) @ q
            off = rows[np.linalg.norm(rows, axis=1) > SPAN_TOL].reshape(-1, side, side)  # the products outside A
            if len(off):
                d, rest = _extended(basis, d, _parts(off).reshape(2 * len(off), -1), limit, NEW_SHARE)
                waiting = np.concatenate([waiting, rest])
            if d is not None and (waiting.nbytes > BLOCK_BYTES // 4 or at + chunk >= len(i)):
                d, waiting = _extended(basis, d, waiting, limit, SPAN_TOL)
            if d is None:
                break
    return None if d is None else basis[:d]


def _algebra_frame(v: np.ndarray, perm=None) -> AlgebraFrame | None:
    """The frame of the algebra whose Hermitian (for real data: symmetric) part has the orthonormal basis ``v``, each
    member taken through the index map ``perm`` unless it is None, or None where a check fails.

    Two generic members G and Y, with the coefficients sin(ALGEBRA_SEED * k), k = 1, 2, ... (the same in every
    interpreter, and no ``numpy.random`` to load), split the algebra.  G's eigenspaces are the weight spaces of its
    simple blocks: each distinct eigenvalue of a block M_{n_j} (x) I_{m_j} has multiplicity m_j.  Y links the n_j
    eigenspaces of one block and no others, and its compressions E_a^H Y E_0, scaled to unitaries, align each
    eigenspace's basis with the block's first one (Murota et al. 2010).  In that frame U every member is the block sum
    of I_{m_j} (x) X_j.  The frame is kept only if U is unitary, sum m_j n_j is the side, the blocks' Hermitian
    (symmetric) parts have the dimension of the algebra's, rebuilding every basis member from its blocks misses by at
    most FRAME_TOL, and so does the isometry of the coordinates under the weights m_j."""
    dim, side = v.shape[:2]
    generic = np.sin(ALGEBRA_SEED * np.arange(1.0, 2 * dim + 1)).reshape(2, dim) @ v.reshape(dim, -1)
    g, y = _moved(generic.reshape(2, side, side), perm, np.empty((2, side, side), v.dtype))
    w, e = np.linalg.eigh(g)
    label = np.concatenate([[0], np.cumsum(np.diff(w) > 1e-8 * max(1.0, np.abs(w).max()))])  # eigenspace per column
    yt = dagger(e) @ y @ e
    linked = np.zeros((label[-1] + 1,) * 2, bool)
    np.logical_or.at(linked, (label[:, None], label[None, :]), np.abs(yt) > 1e-8)
    firsts = np.argmax(linked, axis=1)  # per eigenspace, the first one it links: its block's first
    heads = np.flatnonzero(firsts == np.arange(len(firsts)))
    block_of, sizes = np.searchsorted(heads, firsts), np.bincount(label)
    if not (np.array_equal(linked, block_of[:, None] == block_of[None, :]) and np.all(sizes == sizes[firsts])):
        return None  # the links do not partition the eigenspaces into blocks of equal multiplicity
    cols, blocks = [], []
    for first in heads:
        m, at = sizes[first], label == first
        aligned = [e[:, at]]
        for a in np.flatnonzero(linked[first])[1:]:
            link = yt[np.ix_(label == a, at)]
            aligned.append(e[:, label == a] @ (link * (np.sqrt(m) / np.linalg.norm(link))))
        cols.append(np.stack(aligned, axis=2).reshape(side, -1))  # column t * n + a: copy t of basis vector a
        blocks.append((len(aligned), int(m)))
    u = np.concatenate(cols, axis=1)
    if (
        np.max(np.abs(dagger(u) @ u - np.eye(side))) > FRAME_TOL
        or sum(n * m for n, m in blocks) != side
        or sum(n * n if np.iscomplexobj(v) else n * (n + 1) // 2 for n, _ in blocks) != dim
    ):
        return None
    # per block, its offset and its matrices X_jk, exactly Hermitian; members are rebuilt in chunks of BLOCK_BYTES
    offsets = np.cumsum([0] + [n * m for n, m in blocks])
    parts = [np.empty((dim, n, n), v.dtype) for n, _ in blocks]
    step = max(1, BLOCK_BYTES // (8 * side * side * v.itemsize))
    moved = None if perm is None else np.empty((min(step, dim), side, side), v.dtype)
    for lo in range(0, dim, step):
        t = v[lo : lo + step]
        t = dagger(u) @ (t if perm is None else _moved(t, perm, moved[: len(t)])) @ u
        for (n, m), o, part in zip(blocks, offsets, parts):
            hermitian_part(t[:, o : o + n, o : o + n], out=part[lo : lo + step])
            for c in range(o, o + n * m, n):
                t[:, c : c + n, c : c + n] -= part[lo : lo + step]
        if np.max(np.abs(t)) > FRAME_TOL:  # what the blocks do not rebuild
            return None
    order = sorted(range(len(blocks)), key=lambda k: blocks[k][0])
    fwd = np.concatenate([_real(parts[k].reshape(dim, -1)) for k in order], axis=1)
    weights = np.concatenate([np.full(_real(parts[k].reshape(dim, -1)).shape[1], float(blocks[k][1])) for k in order])
    frame = AlgebraFrame(tuple(blocks[k] for k in order), fwd, np.ascontiguousarray((fwd * weights).T), v.dtype)
    rebuilt = np.empty((dim, dim))
    into, _, back = frame.plan(np.eye(dim), rebuilt)
    into()
    back()  # the isometry, by the frame's own maps
    return frame if np.max(np.abs(rebuilt - np.eye(dim))) <= FRAME_TOL else None


def reduction(c: np.ndarray, f: np.ndarray, maps: dict):
    """``(basis, frames)`` for a problem whose data's *-algebra A is small, else None.

    A is the smallest *-algebra holding I, the objective blocks ``c`` and the target ``f`` whose image under every
    cut's partial transposition (``maps``, None for the PSD cone) is an algebra too.  Then every ADMM iterate lies in
    A: the affine step combines members, clipping is a function of a member, and each cone's frame of A is an algebra.
    ``basis`` is an orthonormal basis of the iterates' space, A's Hermitian part (symmetric part for real data), and
    ``frames`` maps each cut to its :class:`AlgebraFrame`.  None where dim A passes ALGEBRA_SHARE of side**2 or its
    basis ALGEBRA_BYTES, where a frame or the data's coordinates fail their checks, or where an eigensolver fails: the
    caller then runs unreduced."""
    side = f.shape[0]
    data = np.concatenate([c, f[None]])
    algebra = _algebra(data, list(maps.values()), int(ALGEBRA_SHARE * side * side))
    if algebra is None:
        return None
    kept = 0
    for a in algebra:  # made exactly Hermitian, as they are to rounding; for real data the symmetric members only,
        if np.iscomplexobj(a) or np.vdot(a, a.T) > 0.5:  # the antisymmetric ones were only there to multiply
            hermitian_part(a, out=algebra[kept])
            kept += 1
    algebra = algebra[:kept]
    missed = np.max(np.abs(matrices(coordinates(data, algebra), algebra) - data))  # what the data's coordinates miss
    if missed > FRAME_TOL * max(1.0, np.max(np.abs(data))):
        return None
    frames = {}
    for cut, perm in maps.items():
        try:
            frames[cut] = _algebra_frame(algebra, perm)
        except np.linalg.LinAlgError:  # an eigensolver that did not converge: no frame
            return None
        if frames[cut] is None:
            return None
    return algebra, frames
