"""POVM classes, their verification, and the block restriction between systems.

A POVM is a list of PSD matrices summing to the identity.  Beyond the general
kind, this module models projective POVMs, PPT POVMs (every element stays PSD
under partial transposition), SEP POVMs (elements are sums of tensor products
of local PSD factors, certified by an explicit witness), and one-round local
measurement trees whose leaves are tensor products along outcome paths.

Restriction extracts the sub-block supported on the in-range local indices of
a smaller system; it maps each class to itself, which is the numerical surface
the fuzz tests exercise.  Projectivity is the documented exception.

A POVM or a tree may also hold a batch of measurements of one shape along a
leading axis, as the samplers draw them for a sequence of seeds; verification,
restriction and :func:`check_kind` then run once for the whole batch and answer
per member.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    as_stack,
    bipartition,
    check_dims,
    dagger,
    hermitian_part,
    hermiticity_defect,
    matrices_from_json,
    matrix_to_json,
    min_eigenvalue,
    partial_transpose,
    psd_certified,
    real_if_zero_imag,
    restrict_matrix,
    strict_object,
    tensor,
)

POVM_KINDS = ("general", "projective", "ppt", "sep", "locc1")
PPT_MARGIN = 1e-8  # smallest transposed eigenvalue of a random_ppt_povm element


def _segment_index(index, what: str) -> np.ndarray:
    """``index`` as a nonempty integer array that starts at group 0 and is
    nondecreasing in steps of 0 or 1, so it names groups ``0..index[-1]`` in order."""
    index = np.asarray(index)
    if index.ndim != 1 or not len(index) or not np.issubdtype(index.dtype, np.integer):
        raise ValueError(f"{what} must be a nonempty 1-d integer index")
    steps = np.diff(index)
    if index[0] != 0 or np.any((steps != 0) & (steps != 1)):
        raise ValueError(f"{what} must be nondecreasing and name every group from 0 in order")
    return index


def _group_sums(member, index: np.ndarray) -> np.ndarray:
    """Sum the groups a :func:`_segment_index` names, where ``member(positions)`` stacks
    the members at ``positions``: each group starts from its first member and adds the
    rest in order, one rank of members at a time, so at most one member per group is
    held besides the sums."""
    counts = np.bincount(index)
    starts = np.cumsum(counts) - counts
    total = member(starts)
    for j in range(1, int(counts.max())):
        has = counts > j
        total[has] += member(starts[has] + j)
    return total


class SepDecomposition:
    """Separability witness as flat stacks: term ``t`` is the product of
    ``factors[k][t]`` over the parties ``k`` and belongs to element ``owner[t]``.

    ``factors`` holds one ``(terms, d_k, d_k)`` stack per party; ``owner`` is
    nondecreasing and names every element, so each element has a term.
    """

    def __init__(self, factors, owner):
        self.owner = _segment_index(owner, "witness owner")
        self.factors = tuple(as_stack(f) for f in factors)
        if not self.factors or any(f.ndim != 3 or len(f) != len(self.owner) for f in self.factors):
            raise ValueError("a witness needs one (terms, d, d) factor stack per party, one term per owner")

    def __len__(self) -> int:
        return int(self.owner[-1]) + 1


class Locc1Tree:
    """One-round protocol: parties measure in a fixed order, conditioning on prior outcomes.

    ``levels[l]`` is the ``(N_l, d, d)`` stack of every outcome measured at
    depth ``l`` (by party ``party_order[l]``); ``parents[l][j]`` is the outcome
    of level ``l - 1`` whose conditional family holds outcome ``j``.  Level 0
    is one family, so ``parents[0]`` is all zeros.  Each ``parents[l]`` is
    nondecreasing and covers every outcome of the level above, so families
    are contiguous and may differ in size.  Levels of shape ``(b, N_l, d, d)``
    hold a batch of ``b`` trees sharing ``parents``.
    """

    def __init__(self, dims, party_order, levels, parents):
        dims = check_dims(dims)
        party_order = tuple(int(p) for p in party_order)
        if sorted(party_order) != list(range(len(dims))):
            raise ValueError(f"party_order {party_order} is not a permutation of the parties")
        levels = tuple(as_stack(level) for level in levels)
        if len(levels) != len(dims) or len(parents) != len(dims):
            raise ValueError(f"a tree on {len(dims)} parties needs {len(dims)} levels and parent indices")
        checked = []
        for depth, (level, party) in enumerate(zip(levels, party_order)):
            d = dims[party]
            if level.ndim not in (3, 4) or level.shape[-2:] != (d, d) or level.shape[:-3] != levels[0].shape[:-3]:
                raise ValueError(f"level {depth} has shape {level.shape}, expected ([batch,] outcomes, {d}, {d})")
            parent = _segment_index(parents[depth], f"parents of level {depth}")
            above = levels[depth - 1].shape[-3] if depth else 1
            if len(parent) != level.shape[-3] or parent[-1] != above - 1:
                raise ValueError(f"level {depth} needs a parent per outcome and a family under all {above}")
            checked.append(parent)
        self.dims, self.party_order, self.levels, self.parents = dims, party_order, levels, tuple(checked)


class Povm:
    """Measurement given by PSD elements summing to the identity, held as one
    ``(n, side, side)`` complex stack (a stack passed in is not copied).

    A ``(b, n, side, side)`` stack holds a batch of ``b`` POVMs; a separability
    witness of a batch covers its ``b * n`` elements in order.  ``kind`` is one of
    ``POVM_KINDS``; ``witness`` is a ``SepDecomposition``, a ``Locc1Tree`` or None.
    """

    def __init__(self, elements, dims, kind="general", witness=None):
        elements = np.asarray(elements, dtype=complex)
        if not elements.size:
            raise ValueError("a POVM needs at least one element")
        dims = check_dims(dims)
        side = int(np.prod(dims))
        if elements.ndim not in (3, 4) or elements.shape[-2:] != (side, side):
            raise ValueError(f"element stack shape {elements.shape} does not match system side {side}")
        if kind not in POVM_KINDS:
            raise ValueError(f"unknown POVM kind {kind!r}")
        self.elements, self.dims, self.kind, self.witness = elements, dims, kind, witness

    def __len__(self) -> int:
        return self.elements.shape[-3]

    @property
    def side(self) -> int:
        return self.elements.shape[-1]


class PovmReport:
    """Outcome of completeness/positivity verification; for a batch, every field
    is an array over the batch (``element_min_eigs`` one row per member)."""

    def __init__(self, completeness_residual: float | np.ndarray, element_min_eigs: tuple[float, ...] | np.ndarray,
                 hermiticity_defect: float | np.ndarray, tol: float):
        self.completeness_residual, self.element_min_eigs = completeness_residual, element_min_eigs
        self.hermiticity_defect, self.tol = hermiticity_defect, tol

    @property
    def passed(self):
        ok = (
            (np.asarray(self.completeness_residual) <= self.tol)
            & (np.asarray(self.hermiticity_defect) <= self.tol)
            & np.all(np.asarray(self.element_min_eigs) >= -self.tol, axis=-1)
        )
        return ok if ok.ndim else bool(ok)


def _completeness_residual(e: np.ndarray) -> np.ndarray:
    return np.max(np.abs(e.sum(axis=-3) - np.eye(e.shape[-1])), axis=(-2, -1))


def verify_povm(p: Povm, tol: float = DEFAULT_TOL) -> PovmReport:
    """Measure completeness residual and per-element minimum eigenvalues (per member of a batch).

    Of a real stack, the residual and the Hermiticity defect are read off its float64 copy
    (:func:`~distlab.linalg.real_if_zero_imag`), where they come out bit for bit the same; the
    eigenvalues are always those of the complex elements."""
    return _report(p.elements, real_if_zero_imag(p.elements), tol)


def _report(e: np.ndarray, checked: np.ndarray, tol: float) -> PovmReport:
    """:func:`verify_povm` of the elements ``e``, given ``checked = real_if_zero_imag(e)``."""
    residual = _completeness_residual(checked)
    min_eigs, defect = min_eigenvalue(e), np.max(hermiticity_defect(checked), axis=-1)
    if e.ndim == 3:
        return PovmReport(float(residual), tuple(min_eigs.tolist()), float(defect), tol)
    return PovmReport(residual, min_eigs, defect, tol)


def _valid(e: np.ndarray, tol: float) -> np.ndarray:
    """:func:`is_valid` of a stack of elements, real or complex, as an array over the batch."""
    return (
        (_completeness_residual(e) <= tol)
        & (np.max(hermiticity_defect(e), axis=-1) <= tol)
        & np.all(psd_certified(e, tol), axis=-1)
    )


def is_valid(p: Povm, tol: float = DEFAULT_TOL):
    """``verify_povm(p, tol).passed`` (per member of a batch), with each element's
    positivity decided by :func:`~distlab.linalg.psd_certified` instead of measured.
    A real stack is checked in float64 (:func:`~distlab.linalg.real_if_zero_imag`)."""
    ok = _valid(real_if_zero_imag(p.elements), tol)
    return ok if ok.ndim else bool(ok)


def require_valid(p: Povm, tol: float) -> np.ndarray:
    """Raise ``ValueError`` unless ``p`` is one POVM, not a batch, and :func:`is_valid`
    passes it; only then is :func:`verify_povm` run, for the values the message reports.
    Returns the stack the check ran on, ``real_if_zero_imag(p.elements)``."""
    if p.elements.ndim != 3:
        raise ValueError(f"expected one POVM, got a batch of {len(p.elements)}")
    checked = real_if_zero_imag(p.elements)
    if not _valid(checked, tol):
        report = _report(p.elements, checked, tol)
        raise ValueError(
            f"invalid POVM: completeness residual {report.completeness_residual:.3e}, "
            f"min eigenvalue {min(report.element_min_eigs):.3e}"
        )
    return checked


def is_projective(p: Povm, tol: float = DEFAULT_TOL) -> bool:
    """True iff all elements are idempotent and mutually annihilating:
    ``max|M_j M_j - M_j| <= tol`` and ``max|M_j M_k| <= tol`` for every j < k.

    The cross products are not all formed.  One batched ``eigh`` gives
    M_j = V_j W_j V_j^H + D_j.  With R_j the columns of V_j whose eigenvalue
    exceeds 1/2, E_j = M_j - R_j R_j^H and G = R^H R the Gram matrix of every
    R_j side by side (blocks G_jk = R_j^H R_k),

        max|M_j M_k| <= ||M_j M_k||_2
                     <= ||R_j|| ||G_jk||_F ||R_k|| + ||R_j||^2 ||E_k|| + ||E_j|| ||M_k||

    in spectral norms, each bounded from the ``eigh``: with
    s_j = 1 + ||V_j^H V_j - I||_F >= ||V_j||^2, ||R_j||^2 <= s_j,
    ||E_j|| <= s_j max_i |w_i - [w_i > 1/2]| + ||D_j||_F and
    ||M_j|| <= s_j max_i |w_i| + ||D_j||_F.  Add side * eps * ||M_j|| ||M_k||
    for the rounding of the product the exact test would form.  A pair whose bound is
    at most tol/2 passes (the other half of tol covers the rounding of R, G and
    E); only the other pairs are multiplied out and tested against tol, so the
    answer is that of testing every pair.

    A real stack is tested in float64 (:func:`~distlab.linalg.real_if_zero_imag`): the
    products, the ``eigh`` and the bound are real, and the rule above is unchanged.
    """
    return _projective(require_valid(p, tol), tol)


def _projective(e: np.ndarray, tol: float) -> bool:
    """:func:`is_projective` on a stack, real or complex, already known to be a valid POVM."""
    if np.max(np.abs(e @ e - e)) > tol:
        return False
    j, k = np.nonzero(np.triu(_cross_product_bounds(e) > tol / 2, 1))
    return _cross_products_vanish(e, j, k, tol)


def _cross_product_bounds(e: np.ndarray) -> np.ndarray:
    """(n, n) table of the bound on max|M_j M_k| stated in :func:`is_projective`."""
    w, v = np.linalg.eigh(e)
    keep, vh = w > 0.5, dagger(v)
    residual = (v * w[:, None, :]) @ vh
    residual = np.linalg.norm(np.subtract(e, residual, out=residual), axis=(1, 2))  # ||D_j||_F
    gram = vh @ v
    gram -= np.eye(e.shape[-1])
    square = 1 + np.linalg.norm(gram, axis=(1, 2))  # s_j
    norm_e = square * np.max(np.abs(w - keep), axis=1) + residual
    norm_m = square * np.max(np.abs(w), axis=1) + residual
    norm_r = np.sqrt(square) * keep.any(axis=1)
    v *= keep[:, None, :]  # the columns of v[j] left nonzero are R_j
    cols = np.swapaxes(v, 1, 2)[keep]  # every R_j's columns as rows, element by element
    owner = np.eye(len(e))[np.nonzero(keep)[0]]  # (columns, n): which element each column is from
    norm_g = np.sqrt(owner.T @ np.abs(cols.conj() @ cols.T) ** 2 @ owner)
    rounding = e.shape[-1] * np.finfo(float).eps * np.outer(norm_m, norm_m)
    return np.outer(norm_r, norm_r) * norm_g + np.outer(norm_r**2, norm_e) + np.outer(norm_e, norm_m) + rounding


def _cross_products_vanish(e: np.ndarray, j: np.ndarray, k: np.ndarray, tol: float) -> bool:
    """Exact test ``max|M_j M_k| <= tol`` of the listed pairs, one batched product per j."""
    return all(np.max(np.abs(e[a] @ e[k[j == a]])) <= tol for a in np.unique(j))


def canonical_cuts(dims: Sequence[int]) -> list[tuple[int, ...]]:
    """Nontrivial bipartitions modulo complementation (spectra agree on complements)."""
    k = len(check_dims(dims))
    if k < 2:
        return []
    cuts: list[tuple[int, ...]] = []
    for mask in range(1, 2 ** (k - 1)):
        cuts.append(tuple(p for p in range(k - 1) if mask >> p & 1))
    return cuts


def _pt_min_eigenvalues(elements: np.ndarray, dims: tuple[int, ...], cuts) -> np.ndarray:
    """(cuts, ..., n) table: smallest eigenvalue of each element transposed on each cut."""
    return np.array([min_eigenvalue(partial_transpose(elements, dims, cut)) for cut in cuts])


def ppt_min_eigenvalue(p: Povm, cuts: Iterable[tuple[int, ...]] | None = None):
    """Smallest eigenvalue over all elements and partial-transposition cuts
    (for a batch, an array over its members)."""
    cuts = canonical_cuts(p.dims) if cuts is None else [tuple(c) for c in cuts]
    if not cuts:
        raise ValueError("PPT needs a nontrivial bipartition")
    worst = np.min(_pt_min_eigenvalues(p.elements, p.dims, cuts), axis=(0, -1))
    return worst if worst.ndim else float(worst)


def is_ppt_povm(
    p: Povm,
    partition: int | Iterable[int] | None = None,
    tol: float = DEFAULT_TOL,
) -> bool:
    """True iff every element stays PSD after partial transposition, each
    transposed element decided by :func:`~distlab.linalg.psd_certified`.

    ``partition`` selects one bipartition (a party index or a party subset);
    when omitted, every nontrivial bipartition is required.  A real stack is
    transposed and certified in float64 (:func:`~distlab.linalg.real_if_zero_imag`).
    """
    checked = require_valid(p, tol)
    cuts = canonical_cuts(p.dims) if partition is None else [bipartition(p.dims, partition)]
    if not cuts:
        raise ValueError("PPT needs a nontrivial bipartition")
    return all(np.all(psd_certified(partial_transpose(checked, p.dims, cut), tol)) for cut in cuts)


def _sep_witness(p: Povm) -> SepDecomposition:
    w = p.witness
    if isinstance(w, Locc1Tree):  # the leaves' product terms: whether the families are complete says nothing here
        w = tree_povm(w).witness
    if not isinstance(w, SepDecomposition):
        raise ValueError("POVM carries no separability witness")
    elements = int(np.prod(p.elements.shape[:-2]))
    if len(w) != elements:
        raise ValueError(f"witness covers {len(w)} elements, POVM has {elements}")
    return w


def verify_sep(p: Povm, tol: float = DEFAULT_TOL):
    """Check the separability witness: Hermitian local factors whose PSD-ness
    :func:`~distlab.linalg.psd_certified` decides, reconstructing each element
    within ``tol`` (for a batch, one answer per member)."""
    witness = _sep_witness(p)
    if len(witness.factors) != len(p.dims):
        raise ValueError("witness term does not have one factor per party")
    member = witness.owner // len(p)  # the batch member of each term
    bad = np.zeros(len(member), dtype=bool)
    for k, f in enumerate(witness.factors):
        if f.shape[1:] != (p.dims[k], p.dims[k]):
            raise ValueError(f"witness factor shape {f.shape[1:]} mismatches party {k}")
        bad |= (hermiticity_defect(f) > tol) | ~psd_certified(f, tol)
    recon = _group_sums(lambda t: tensor(*(f[t] for f in witness.factors)), witness.owner)
    recon = recon.reshape(-1, len(p), p.side, p.side)
    ok = np.max(np.abs(recon - p.elements.reshape(recon.shape)), axis=(1, 2, 3)) <= tol
    ok &= np.bincount(member[bad], minlength=len(ok)) == 0
    return ok if p.elements.ndim == 4 else bool(ok[0])


def verify_locc1(tree: Locc1Tree, tol: float = DEFAULT_TOL):
    """True iff every conditional family is a complete local POVM on its party
    (for a batch, one answer per tree): each sums to I within ``tol``, and each
    element is Hermitian within ``tol`` and PSD as :func:`~distlab.linalg.psd_certified`
    decides."""
    ok = True
    for level, parents in zip(tree.levels, tree.parents):
        outcomes = np.moveaxis(level, -3, 0)
        sums = _group_sums(lambda j: outcomes[j], parents)  # (families, [batch,] d, d)
        residual = np.max(np.abs(sums - np.eye(level.shape[-1])), axis=(0, -2, -1))
        defect, psd = np.max(hermiticity_defect(level), axis=-1), np.all(psd_certified(level, tol), axis=-1)
        ok = ok & (residual <= tol) & (defect <= tol) & psd
    return ok if ok.ndim else bool(ok)


def flatten_locc1(tree: Locc1Tree, tol: float = DEFAULT_TOL) -> Povm:
    """Expand a measurement tree into its effective POVM.

    Leaf elements are tensor products of the local operators along each
    outcome path (factors arranged by party index, not measurement order);
    the returned POVM carries the induced single-term separability witness.
    """
    if not verify_locc1(tree, tol):
        raise ValueError("incomplete conditional family in measurement tree")
    return tree_povm(tree)


def tree_povm(tree: Locc1Tree) -> Povm:
    """:func:`flatten_locc1` without the check of the families (a batch of trees
    gives a batch of POVMs)."""
    factors: list = [None] * len(tree.dims)
    path = np.arange(tree.levels[-1].shape[-3])  # each leaf's outcome at the current depth
    for depth in reversed(range(len(tree.levels))):
        factors[tree.party_order[depth]] = tree.levels[depth][..., path, :, :]
        path = tree.parents[depth][path]
    flat = [f.reshape((-1,) + f.shape[-2:]) for f in factors]  # a batch's leaves one after another
    witness = SepDecomposition(flat, np.arange(len(flat[0])))
    return Povm(tensor(*factors), tree.dims, kind="locc1", witness=witness)


def check_kind(
    measurement: Povm | Locc1Tree,
    kind: str,
    tol: float = DEFAULT_TOL,
    partition: int | Iterable[int] | None = None,
) -> tuple[list, Povm | None]:
    """Check that ``measurement`` is of ``kind``, running each check once.

    Returns the checks that ran, in order, as ``(name, residual, ok)``, and the
    POVM they checked (None when a tree fails).  A tree (kind locc1) gets
    ``locc1-tree`` and, when valid, is flattened; a POVM gets ``completeness``
    and ``element-psd`` (which a non-Hermitian element fails), then, if valid,
    its kind's ``projective``, ``ppt`` (on the cut ``partition`` names, else on
    every cut) or ``sep-witness``.  ``partition`` is checked first.

    A batch is checked as a whole: each check runs once, on every member, as
    soon as any member has passed every check before it.  Its residual and ok
    are arrays over the batch, masked to NaN and True for the members an earlier
    check failed (``completeness`` and ``element-psd`` come from one
    :func:`verify_povm` and are not masked by each other); a check is listed
    when any member reached it, and the POVM returned is the whole batch, every
    tree flattened.  One measurement is checked as a batch of one.
    """
    if kind not in POVM_KINDS:
        raise ValueError(f"unknown POVM kind {kind!r}")
    tree = isinstance(measurement, Locc1Tree)
    if (kind == "locc1") != tree:
        raise ValueError("kind locc1 takes a measurement tree, every other kind a POVM")
    cuts = None if partition is None else [bipartition(measurement.dims, partition)]
    if (measurement.levels[0] if tree else measurement.elements).ndim == 4:
        return _check_batch(measurement, kind, tol, cuts)
    m = measurement  # checked as a batch of one that views its stacks, under the same parents or witness
    if tree:
        one = Locc1Tree(m.dims, m.party_order, [level[None] for level in m.levels], m.parents)
    else:
        one = Povm(m.elements[None], m.dims, m.kind, m.witness)
    checks, povm = _check_batch(one, kind, tol, cuts)
    checks = [(name, float(residual[0]), bool(ok[0])) for name, residual, ok in checks]
    if tree:
        return checks, take_batch(povm, 0) if checks[0][2] else None
    return checks, measurement


def _check_batch(batch: Povm | Locc1Tree, kind: str, tol: float, cuts) -> tuple[list, Povm]:
    """:func:`check_kind` of a batch."""
    size = len(batch.levels[0]) if isinstance(batch, Locc1Tree) else len(batch.elements)
    alive = np.ones(size, dtype=bool)  # the members every check so far has passed
    checks: list = []

    def record(name, residual, ok):  # a check of every member, masked where an earlier check failed
        checks.append((name, np.where(alive, residual, np.nan), np.where(alive, ok, True)))

    povm = batch
    if isinstance(batch, Locc1Tree):
        record("locc1-tree", np.nan, verify_locc1(batch, tol))
        alive &= checks[-1][2]
        povm = tree_povm(batch)
    checked = real_if_zero_imag(povm.elements)  # the completeness, positivity and projectivity checks run on it
    if alive.any():
        report = _report(povm.elements, checked, tol)
        worst = np.min(report.element_min_eigs, axis=-1)
        record("completeness", report.completeness_residual, report.completeness_residual <= tol)
        record("element-psd", worst, (worst >= -tol) & (report.hermiticity_defect <= tol))
        alive &= report.passed
    if alive.any() and kind in ("projective", "ppt", "sep"):
        if kind == "projective":
            record("projective", np.nan, [_projective(e, tol) for e in checked])
        elif kind == "ppt":
            worst_pt = ppt_min_eigenvalue(povm, cuts)
            record("ppt", worst_pt, worst_pt >= -tol)
        else:
            record("sep-witness", np.nan, verify_sep(povm, tol))
    return checks, povm


def take_batch(batch: Povm | Locc1Tree, index: int) -> Povm | Locc1Tree:
    """Member ``index`` (0 to b - 1) of a batch, as one measurement."""
    if isinstance(batch, Locc1Tree):
        return Locc1Tree(batch.dims, batch.party_order, [level[index] for level in batch.levels], batch.parents)
    witness, n = batch.witness, len(batch)
    if isinstance(witness, SepDecomposition):
        terms = witness.owner // n == index
        witness = SepDecomposition([f[terms] for f in witness.factors], witness.owner[terms] - index * n)
    return Povm(batch.elements[index], batch.dims, batch.kind, witness)


def restrict_povm(p: Povm, sub_dims: Sequence[int]) -> Povm:
    """Extract the sub-block of every element on the in-range local indices.

    Element count and order are preserved; a separability witness restricts
    factor by factor, a tree witness level by level.
    """
    sub_dims = check_dims(sub_dims)
    elements = restrict_matrix(p.elements, p.dims, sub_dims)
    witness = p.witness
    if isinstance(witness, SepDecomposition):
        factors = [f[:, :d, :d] for f, d in zip(witness.factors, sub_dims, strict=True)]
        witness = SepDecomposition(factors, witness.owner)
    elif isinstance(witness, Locc1Tree):
        witness = restrict_locc1(witness, sub_dims)
    return Povm(elements, sub_dims, kind=p.kind, witness=witness)


def restrict_locc1(tree: Locc1Tree, sub_dims: Sequence[int]) -> Locc1Tree:
    """Restrict every conditional local element to its party's smaller dimension."""
    sub_dims = check_dims(sub_dims)
    if len(sub_dims) != len(tree.dims) or any(s > d for s, d in zip(sub_dims, tree.dims)):
        raise ValueError(f"cannot restrict dims {tree.dims} to {sub_dims}")
    levels = [level[..., : sub_dims[p], : sub_dims[p]] for level, p in zip(tree.levels, tree.party_order)]
    return Locc1Tree(sub_dims, tree.party_order, levels, tree.parents)


def _normalized(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Families of Gram matrices normalized symmetrically into complete POVMs.

    ``raw`` is ``(..., n, 2, d, d)``: the real then the imaginary part of each
    of a family's n complex draws G_j.  Returns the ``(..., n, d, d)`` stack of
    S G_j G_j^H S, S the inverse square root of the family's sum, and whether
    each family's sum is singular (such a family holds no POVM and is drawn again).
    """
    g = raw[..., 0, :, :].astype(complex)
    g.imag = raw[..., 1, :, :]
    gram = g @ dagger(g)
    total = gram.sum(axis=-3)
    w, v = np.linalg.eigh(hermitian_part(total))
    singular = w[..., 0] <= g.shape[-1] * 1e-12 * np.maximum(w[..., -1], 1.0)
    w[singular] = 1.0  # keeps the arithmetic finite until those families are drawn again
    inv_sqrt = ((v * w[..., None, :] ** -0.5) @ dagger(v))[..., None, :, :]
    # S G S and then its Hermitian part reuse the buffers of g and gram: a block's sampling holds fewer stacks
    m = np.matmul(inv_sqrt @ gram, inv_sqrt, out=g)
    out = np.conjugate(np.swapaxes(m, -1, -2), out=gram)
    out += m
    out /= 2
    return out, singular


def _sample(seed, draw, families: int) -> list[np.ndarray]:
    """The arrays a batch of samples is built from, one member per seed of ``seed``
    (an int seed is a batch of one), each stacked over the batch.

    ``draw(rng)`` makes one member's draws from its own generator,
    ``default_rng(seed)``: first ``families`` arrays of raw families for
    :func:`_normalized`, which normalizes each over the whole batch at once,
    then any other draws, returned as drawn.  A member with a singular family
    draws again alone, from ``default_rng((seed, attempt))``, up to three times.
    """
    seeds = [int(s) for s in ([seed] if np.ndim(seed) == 0 else seed)]
    if not seeds:
        raise ValueError("need at least one seed")

    def normalized(rngs):
        stacked = [np.stack(a) for a in zip(*(draw(rng) for rng in rngs))]
        done = [_normalized(raw) for raw in stacked[:families]]
        singular = np.logical_or.reduce([s.reshape(len(s), -1).any(axis=1) for _, s in done])
        return [m for m, _ in done] + stacked[families:], singular

    arrays, singular = normalized(np.random.default_rng(s) for s in seeds)
    for attempt in range(1, 4):
        again = np.flatnonzero(singular)
        if not len(again):
            break
        redrawn, singular[again] = normalized(np.random.default_rng((seeds[i], attempt)) for i in again)
        for array, new in zip(arrays, redrawn):
            array[again] = new
    if singular.any():
        raise ValueError("random generation failed after 3 retries: singular normalization")
    return arrays


def _one_or_batch(seed, batch: Povm | Locc1Tree) -> Povm | Locc1Tree:
    """``batch`` for a sequence of seeds, its one member for an int seed."""
    return take_batch(batch, 0) if np.ndim(seed) == 0 else batch


def random_povm(dims: Sequence[int], n_elements: int, seed) -> Povm:
    """Seeded random POVM: normalized complex Wishart matrices.

    ``seed`` is an int, or a sequence of them for a batch whose members equal
    the samples of each seed.  Every sampler takes its seeds so: each member
    draws from its own generator in the order of one sample, and the batch is
    normalized at once.
    """
    dims = check_dims(dims)
    if n_elements < 1:
        raise ValueError("need at least one element")
    side = int(np.prod(dims))
    # element by element, the real part is drawn before the imaginary part
    (elements,) = _sample(seed, lambda rng: (rng.standard_normal((n_elements, 2, side, side)),), 1)
    return _one_or_batch(seed, Povm(elements, dims, kind="general"))


def random_ppt_povm(dims: Sequence[int], n_elements: int, seed) -> Povm:
    """Seeded random POVM whose every element is PPT on every cut (a batch for a
    sequence of seeds, as in :func:`random_povm`).

    A random POVM is mixed toward the trace-matched multiple of the identity;
    partial transposition fixes the identity, so the exact mixing weight that
    lifts the most negative transposed eigenvalue to ``PPT_MARGIN`` is available
    in closed form.  A degenerate weight raises for the first member it occurs in.
    """
    dims = check_dims(dims)
    if len(dims) < 2:
        raise ValueError("PPT needs at least two parties")
    base = random_povm(dims, n_elements, [seed] if np.ndim(seed) == 0 else seed).elements
    side = base.shape[-1]
    c = np.trace(base, axis1=-2, axis2=-1).real / side
    mu = _pt_min_eigenvalues(base, dims, canonical_cuts(dims))
    lam = np.max(np.where(mu < PPT_MARGIN, (PPT_MARGIN - mu) / (c - mu), 0.0), axis=(0, -1))
    bad = ~((lam >= 0.0) & (lam < 1.0))
    if bad.any():
        raise ValueError(f"degenerate mixing weight {float(lam[np.argmax(bad)])}")
    elements = (1 - lam)[:, None, None, None] * base + (lam[:, None] * c)[..., None, None] * np.eye(side)
    return _one_or_batch(seed, Povm(elements, dims, kind="ppt"))


def random_sep_povm(dims: Sequence[int], n_elements: int, seed) -> Povm:
    """Seeded random SEP POVM with witness: a coarse-grained product POVM (a batch
    for a sequence of seeds, as in :func:`random_povm`).

    Tensor products of local random POVMs are partitioned into ``n_elements``
    groups and summed; sums of product PSD terms stay separable and the
    grouped terms are the witness.
    """
    dims = check_dims(dims)
    if n_elements < 1:
        raise ValueError("need at least one element")
    k, side = len(dims), int(np.prod(dims))
    n_local = max(2, int(np.ceil((2 * n_elements) ** (1 / k))))
    n_products = n_local**k  # products enumerated with party 0's outcome slowest

    def draw(rng: np.random.Generator):  # every party's local draws, then the grouping
        normals = [rng.standard_normal((n_local, 2, d, d)) for d in dims]
        return (*normals, rng.permutation(n_products), rng.integers(n_elements, size=n_products - n_elements))

    *locals_, order, drawn = _sample(seed, draw, k)  # one normalization per party
    member = np.arange(len(order))[:, None]
    # the first n_elements positions seed every group, the remainder lands at random
    group = np.concatenate([np.broadcast_to(np.arange(n_elements), (len(order), n_elements)), drawn], axis=1)
    terms = np.argsort(group, axis=1, kind="stable")  # positions grouped, in draw order within a group
    outcomes = np.unravel_index(np.take_along_axis(order, terms, axis=1), (n_local,) * k)
    factors = [lp[member, i].reshape((-1,) + lp.shape[-2:]) for lp, i in zip(locals_, outcomes)]
    owner = np.ravel(np.take_along_axis(group, terms, axis=1) + n_elements * member)
    elements = _group_sums(lambda t: tensor(*(f[t] for f in factors)), owner).reshape(-1, n_elements, side, side)
    return _one_or_batch(seed, Povm(elements, dims, kind="sep", witness=SepDecomposition(factors, owner)))


def random_locc1(
    dims: Sequence[int],
    branching: int,
    seed,
    party_order: Sequence[int] | None = None,
) -> Locc1Tree:
    """Seeded random one-round tree: fresh conditional local POVMs per prefix (a
    batch for a sequence of seeds, as in :func:`random_povm`)."""
    dims = check_dims(dims)
    if branching < 1:
        raise ValueError("branching must be at least 1")
    order = tuple(range(len(dims))) if party_order is None else tuple(party_order)

    def draw(rng: np.random.Generator):  # each level's families, left to right
        levels: list[list[np.ndarray]] = [[] for _ in dims]

        def visit(depth: int):  # preorder: a family, then the subtree below each of its outcomes
            d = dims[order[depth]]
            levels[depth].append(rng.standard_normal((branching, 2, d, d)))
            if depth + 1 < len(dims):
                for _ in range(branching):
                    visit(depth + 1)

        visit(0)
        return tuple(np.stack(families) for families in levels)

    levels = _sample(seed, draw, len(dims))  # one normalization per level
    levels = [level.reshape((len(level), -1) + level.shape[-2:]) for level in levels]
    parents = [np.arange(branching ** (depth + 1)) // branching for depth in range(len(dims))]
    return _one_or_batch(seed, Locc1Tree(dims, order, levels, parents))


def counterexample_c4() -> Povm:
    """Projective rank-1 POVM with entries +-1/4 whose 3x3 restriction is not projective.

    The four elements project onto the Hadamard product vectors; restricting
    to the top-left 3x3 block keeps them a POVM but breaks idempotence.
    """
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    elements = tensor(np.array([plus, plus, minus, minus]), np.array([plus, minus, plus, minus]))
    return Povm(elements, (4,), kind="projective")


def povm_to_json(p: Povm) -> dict:
    obj = {
        "dims": list(p.dims),
        "elements": [matrix_to_json(m) for m in p.elements],
        "kind": p.kind,
    }
    if isinstance(p.witness, SepDecomposition):
        terms: list[list] = [[] for _ in range(len(p.witness))]
        for t, element in enumerate(p.witness.owner):
            terms[element].append([matrix_to_json(f[t]) for f in p.witness.factors])
        obj["witness"] = {"type": "sep", "terms": terms}
    elif isinstance(p.witness, Locc1Tree):
        obj["witness"] = {"type": "locc1", "tree": locc1_to_json(p.witness)}
    return obj


def _sep_from_json(terms: list) -> SepDecomposition:
    """The witness of ``{"terms": [per element: [per term: [per party: matrix]]]}``."""
    if not terms or not all(terms):
        raise ValueError("sep witness terms must give every element a nonempty list of product terms")
    flat = [term for et in terms for term in et]
    if not all(len(term) == len(flat[0]) for term in flat):
        raise ValueError("every sep witness term needs one factor per party")
    factors = [matrices_from_json([term[k] for term in flat], "sep witness") for k in range(len(flat[0]))]
    return SepDecomposition(factors, [element for element, et in enumerate(terms) for _ in et])


def povm_from_json(obj: dict) -> Povm:
    strict_object(obj, "POVM", {"dims": [int], "elements": [dict]}, {"kind": str, "witness": dict})
    dims = check_dims(obj["dims"])
    elements = matrices_from_json(obj["elements"], "POVM")
    w = obj.get("witness")
    if w is None:
        witness = None
    elif w.get("type") == "sep":
        witness = _sep_from_json(strict_object(w, "sep witness", {"type": str, "terms": [[list]]})["terms"])
    elif w.get("type") == "locc1":
        witness = locc1_from_json(strict_object(w, "locc1 witness", {"type": str, "tree": dict})["tree"])
    else:
        raise ValueError('witness must be {"type": "sep", "terms"} or {"type": "locc1", "tree"}')
    return Povm(elements, dims, kind=obj.get("kind", "general"), witness=witness)


def locc1_to_json(tree: Locc1Tree) -> dict:
    """Nested ``{"party", "outcomes": [{"element", "children"?}]}`` nodes, built from the deepest level."""
    below = None  # the node under each outcome of the current level
    for depth in reversed(range(len(tree.levels))):
        outcomes = [{"element": matrix_to_json(e)} for e in tree.levels[depth]]
        for entry, child in zip(outcomes, below or ()):
            entry["children"] = child
        party, families = tree.party_order[depth], int(tree.parents[depth][-1]) + 1
        below = [{"party": party, "outcomes": []} for _ in range(families)]
        for entry, parent in zip(outcomes, tree.parents[depth]):
            below[parent]["outcomes"].append(entry)
    return {"dims": list(tree.dims), "party_order": list(tree.party_order), "root": below[0]}


def locc1_from_json(obj: dict) -> Locc1Tree:
    strict_object(obj, "tree", {"dims": [int], "party_order": [int], "root": dict})
    order = obj["party_order"]
    levels, parents = [], []
    nodes = [obj["root"]]  # the families of one level, one per outcome of the level above
    while nodes:
        depth = len(levels)
        outcomes, parent = [], []
        for j, node in enumerate(nodes):
            strict_object(node, "tree-node", {"party": int, "outcomes": [dict]})
            if depth >= len(order) or node["party"] != order[depth]:
                raise ValueError(f"node at depth {depth} measures party {node['party']}, not as in {order}")
            family = node["outcomes"]
            if not family:
                raise ValueError("a tree node needs a nonempty list of outcomes")
            outcomes += [strict_object(entry, "outcome", {"element": dict}, {"children": dict}) for entry in family]
            parent += [j] * len(family)
        levels.append(matrices_from_json([entry["element"] for entry in outcomes], "tree-node"))
        parents.append(parent)
        nodes = [entry["children"] for entry in outcomes if "children" in entry]
        if nodes and len(nodes) != len(outcomes):
            raise ValueError("either all outcomes of a level or none may carry children")
    return Locc1Tree(obj["dims"], order, levels, parents)
