"""POVM classes, their verification, and the block restriction between systems.

A POVM is a list of PSD matrices summing to the identity.  Beyond the general
kind, this module models projective POVMs, PPT POVMs (every element stays PSD
under partial transposition), SEP POVMs (elements are sums of tensor products
of local PSD factors, certified by an explicit witness), and one-round local
measurement trees whose leaves are tensor products along outcome paths.

Restriction extracts the sub-block supported on the in-range local indices of
a smaller system; it maps each class to itself, which is the numerical surface
the fuzz tests exercise.  Projectivity is the documented exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    as_stack,
    check_dims,
    dagger,
    hermiticity_defect,
    matrices_from_json,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    partial_transpose,
    restrict_matrix,
    strict_object,
    tensor,
)

POVM_KINDS = ("general", "projective", "ppt", "sep", "locc1")


@dataclass(frozen=True)
class SepDecomposition:
    """Per element: a list of terms, each a tuple of per-party PSD factors."""

    terms: tuple[tuple[tuple[np.ndarray, ...], ...], ...]

    def __init__(self, terms):
        frozen = tuple(
            tuple(tuple(as_matrix(f) for f in term) for term in element_terms)
            for element_terms in terms
        )
        if not frozen or any(not et for et in frozen):
            raise ValueError("every element needs at least one product term")
        object.__setattr__(self, "terms", frozen)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class LoccNode:
    """One conditional local measurement: the POVM a party applies given the prefix."""

    party: int
    elements: np.ndarray  # (outcomes, d, d)
    children: tuple["LoccNode", ...] | None = None

    def __init__(self, party, elements, children=None):
        elements = as_stack(elements)
        if elements.ndim != 3 or not len(elements):
            raise ValueError("a node needs at least one outcome")
        children = tuple(children) if children is not None else None
        if children is not None and len(children) != len(elements):
            raise ValueError("one child per outcome required")
        object.__setattr__(self, "party", int(party))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "children", children)


@dataclass(frozen=True)
class Locc1Tree:
    """One-round protocol: parties measure in a fixed order, conditioning on prior outcomes."""

    dims: tuple[int, ...]
    party_order: tuple[int, ...]
    root: LoccNode

    def __init__(self, dims, party_order, root):
        dims = check_dims(dims)
        party_order = tuple(int(p) for p in party_order)
        if sorted(party_order) != list(range(len(dims))):
            raise ValueError(f"party_order {party_order} is not a permutation of the parties")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "party_order", party_order)
        object.__setattr__(self, "root", root)
        self._check_structure(root, 0)

    def _check_structure(self, node: LoccNode, depth: int):
        k = len(self.dims)
        expected = self.party_order[depth]
        if node.party != expected:
            raise ValueError(f"node at depth {depth} measures party {node.party}, expected {expected}")
        d = self.dims[node.party]
        if node.elements.shape[1:] != (d, d):
            raise ValueError(f"local element shape {node.elements.shape[1:]} does not match dimension {d}")
        if depth == k - 1:
            if node.children is not None:
                raise ValueError("deepest level must not have children")
        else:
            if node.children is None:
                raise ValueError(f"missing conditional measurements below depth {depth}")
            for child in node.children:
                self._check_structure(child, depth + 1)


@dataclass(frozen=True)
class Povm:
    """Measurement given by PSD elements summing to the identity, held as one
    ``(n, side, side)`` complex stack (a stack passed in is not copied)."""

    elements: np.ndarray
    dims: tuple[int, ...]
    kind: str = "general"
    witness: SepDecomposition | Locc1Tree | None = None

    def __init__(self, elements, dims, kind="general", witness=None):
        elements = np.asarray(elements, dtype=complex)
        if not len(elements):
            raise ValueError("a POVM needs at least one element")
        dims = check_dims(dims)
        side = int(np.prod(dims))
        if elements.shape[1:] != (side, side):
            raise ValueError(f"element shape {elements.shape[1:]} does not match system side {side}")
        if kind not in POVM_KINDS:
            raise ValueError(f"unknown POVM kind {kind!r}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def side(self) -> int:
        return self.elements.shape[-1]


@dataclass(frozen=True)
class PovmReport:
    """Outcome of completeness/positivity verification."""

    completeness_residual: float
    element_min_eigs: tuple[float, ...]
    hermiticity_defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.completeness_residual <= self.tol
            and self.hermiticity_defect <= self.tol
            and all(w >= -self.tol for w in self.element_min_eigs)
        )


def verify_povm(p: Povm, tol: float = DEFAULT_TOL) -> PovmReport:
    """Measure completeness residual and per-element minimum eigenvalues."""
    residual = float(np.max(np.abs(p.elements.sum(axis=0) - np.eye(p.side))))
    min_eigs = tuple(min_eigenvalue(p.elements).tolist())
    return PovmReport(residual, min_eigs, hermiticity_defect(p.elements), tol)


def _require_valid(p: Povm, tol: float):
    report = verify_povm(p, tol)
    if not report.passed:
        raise ValueError(
            f"invalid POVM: completeness residual {report.completeness_residual:.3e}, "
            f"min eigenvalue {min(report.element_min_eigs):.3e}"
        )


def is_projective(p: Povm, tol: float = DEFAULT_TOL) -> bool:
    """True iff all elements are idempotent and mutually annihilating."""
    _require_valid(p, tol)
    e = p.elements
    if np.max(np.abs(e @ e - e)) > tol:
        return False
    return all(np.max(np.abs(e[j] @ e[j + 1 :])) <= tol for j in range(len(e) - 1))


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
    """(cuts, n) table: smallest eigenvalue of each element transposed on each cut."""
    return np.array([min_eigenvalue(partial_transpose(elements, dims, cut)) for cut in cuts])


def ppt_min_eigenvalue(p: Povm, cuts: Iterable[tuple[int, ...]] | None = None) -> float:
    """Smallest eigenvalue over all elements and partial-transposition cuts."""
    cuts = canonical_cuts(p.dims) if cuts is None else [tuple(c) for c in cuts]
    if not cuts:
        raise ValueError("PPT needs a nontrivial bipartition")
    return float(np.min(_pt_min_eigenvalues(p.elements, p.dims, cuts)))


def is_ppt_povm(
    p: Povm,
    partition: int | Iterable[int] | None = None,
    tol: float = DEFAULT_TOL,
) -> bool:
    """True iff every element stays PSD after partial transposition.

    ``partition`` selects one bipartition (a party index or a party subset);
    when omitted, every nontrivial bipartition is required.
    """
    _require_valid(p, tol)
    if partition is None:
        cuts = None
    else:
        cut = (partition,) if isinstance(partition, (int, np.integer)) else tuple(partition)
        if not 0 < len(set(cut)) < len(p.dims):
            raise ValueError(f"partition {cut} is trivial for {len(p.dims)} parties")
        cuts = [cut]
    return ppt_min_eigenvalue(p, cuts) >= -tol


def _sep_witness(p: Povm) -> SepDecomposition:
    w = p.witness
    if isinstance(w, Locc1Tree):
        w = flatten_locc1(w).witness
    if not isinstance(w, SepDecomposition):
        raise ValueError("POVM carries no separability witness")
    if len(w) != len(p.elements):
        raise ValueError(f"witness covers {len(w)} elements, POVM has {len(p.elements)}")
    return w


def verify_sep(p: Povm, tol: float = DEFAULT_TOL) -> bool:
    """Check the separability witness: PSD local factors reconstructing each element."""
    witness = _sep_witness(p)
    for m, element_terms in zip(p.elements, witness.terms):
        recon = np.zeros_like(m)
        for term in element_terms:
            if len(term) != len(p.dims):
                raise ValueError("witness term does not have one factor per party")
            for k, f in enumerate(term):
                if f.shape != (p.dims[k], p.dims[k]):
                    raise ValueError(f"witness factor shape {f.shape} mismatches party {k}")
                if hermiticity_defect(f) > tol or min_eigenvalue(f) < -tol:
                    return False
            recon = recon + tensor(*term)
        if np.max(np.abs(recon - m)) > tol:
            return False
    return True


def _iter_leaves(tree: Locc1Tree):
    """Yield (outcome path, {party: local element}) over leaves in outcome order."""

    def rec(node: LoccNode, path, ops):
        for j, e in enumerate(node.elements):
            ops2 = dict(ops)
            ops2[node.party] = e
            if node.children is None:
                yield path + (j,), ops2
            else:
                yield from rec(node.children[j], path + (j,), ops2)

    yield from rec(tree.root, (), {})


def verify_locc1(tree: Locc1Tree, tol: float = DEFAULT_TOL) -> bool:
    """True iff every conditional family is a complete local POVM on its party."""

    def node_ok(node: LoccNode) -> bool:
        if not verify_povm(Povm(node.elements, (tree.dims[node.party],)), tol).passed:
            return False
        return node.children is None or all(node_ok(c) for c in node.children)

    return node_ok(tree.root)


def flatten_locc1(tree: Locc1Tree, tol: float = DEFAULT_TOL) -> Povm:
    """Expand a measurement tree into its effective POVM.

    Leaf elements are tensor products of the local operators along each
    outcome path (factors arranged by party index, not measurement order);
    the returned POVM carries the induced single-term separability witness.
    """
    if not verify_locc1(tree, tol):
        raise ValueError("incomplete conditional family in measurement tree")
    elements = []
    terms = []
    for _path, ops in _iter_leaves(tree):
        factors = tuple(ops[party] for party in range(len(tree.dims)))
        elements.append(tensor(*factors))
        terms.append((factors,))
    return Povm(elements, tree.dims, kind="locc1", witness=SepDecomposition(terms))


def restrict_povm(p: Povm, sub_dims: Sequence[int]) -> Povm:
    """Extract the sub-block of every element on the in-range local indices.

    Element count and order are preserved; a separability witness restricts
    factor by factor, a tree witness level by level.
    """
    sub_dims = check_dims(sub_dims)
    elements = restrict_matrix(p.elements, p.dims, sub_dims)
    witness = p.witness
    if isinstance(witness, SepDecomposition):
        witness = SepDecomposition(
            tuple(
                tuple(tuple(f[: sub_dims[k], : sub_dims[k]] for k, f in enumerate(term)) for term in et)
                for et in witness.terms
            )
        )
    elif isinstance(witness, Locc1Tree):
        witness = restrict_locc1(witness, sub_dims)
    return Povm(elements, sub_dims, kind=p.kind, witness=witness)


def restrict_locc1(tree: Locc1Tree, sub_dims: Sequence[int]) -> Locc1Tree:
    """Restrict every conditional local element to its party's smaller dimension."""
    sub_dims = check_dims(sub_dims)
    if len(sub_dims) != len(tree.dims) or any(s > d for s, d in zip(sub_dims, tree.dims)):
        raise ValueError(f"cannot restrict dims {tree.dims} to {sub_dims}")

    def rec(node: LoccNode) -> LoccNode:
        d = sub_dims[node.party]
        elements = node.elements[:, :d, :d]
        children = None if node.children is None else [rec(c) for c in node.children]
        return LoccNode(node.party, elements, children)

    return Locc1Tree(sub_dims, tree.party_order, rec(tree.root))


def _random_povm_elements(rng: np.random.Generator, side: int, n: int) -> np.ndarray:
    """(n, side, side) PSD matrices normalized symmetrically into a complete POVM;
    element by element, the real part is drawn from ``rng`` before the imaginary part."""
    g = rng.standard_normal((n, 2, side, side))
    g = g[:, 0] + 1j * g[:, 1]
    gram = g @ dagger(g)
    total = gram.sum(axis=0)
    w, v = np.linalg.eigh((total + total.conj().T) / 2)
    if w[0] <= side * 1e-12 * max(w[-1], 1.0):
        raise ArithmeticError("singular normalization")
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    m = inv_sqrt @ gram @ inv_sqrt
    return (m + dagger(m)) / 2


def _rng_with_retries(seed: int, build):
    last = None
    for attempt in range(4):
        rng = np.random.default_rng((int(seed), attempt) if attempt else int(seed))
        try:
            return build(rng)
        except ArithmeticError as exc:
            last = exc
    raise ValueError(f"random generation failed after 3 retries: {last}")


def random_povm(dims: Sequence[int], n_elements: int, seed: int) -> Povm:
    """Seeded random POVM: normalized complex Wishart matrices."""
    dims = check_dims(dims)
    if n_elements < 1:
        raise ValueError("need at least one element")
    side = int(np.prod(dims))
    elements = _rng_with_retries(seed, lambda rng: _random_povm_elements(rng, side, n_elements))
    return Povm(elements, dims, kind="general")


def random_ppt_povm(dims: Sequence[int], n_elements: int, seed: int, margin: float = 1e-8) -> Povm:
    """Seeded random POVM whose every element is PPT on every cut.

    A random POVM is mixed toward the trace-matched multiple of the identity;
    partial transposition fixes the identity, so the exact mixing weight that
    lifts the most negative transposed eigenvalue to ``margin`` is available
    in closed form.
    """
    dims = check_dims(dims)
    if len(dims) < 2:
        raise ValueError("PPT needs at least two parties")
    base = random_povm(dims, n_elements, seed)
    side = base.side
    c = np.trace(base.elements, axis1=1, axis2=2).real / side
    mu = _pt_min_eigenvalues(base.elements, dims, canonical_cuts(dims))
    lam = float(np.max(((margin - mu) / (c - mu))[mu < margin], initial=0.0))
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"degenerate mixing weight {lam}")
    elements = (1 - lam) * base.elements + (lam * c)[:, None, None] * np.eye(side)
    return Povm(elements, dims, kind="ppt")


def random_sep_povm(dims: Sequence[int], n_elements: int, seed: int) -> Povm:
    """Seeded random SEP POVM with witness: a coarse-grained product POVM.

    Tensor products of local random POVMs are partitioned into ``n_elements``
    groups and summed; sums of product PSD terms stay separable and the
    grouped terms are the witness.
    """
    dims = check_dims(dims)
    if n_elements < 1:
        raise ValueError("need at least one element")
    k = len(dims)
    n_local = max(2, int(np.ceil((2 * n_elements) ** (1 / k))))

    def build(rng: np.random.Generator) -> Povm:
        locals_ = [_random_povm_elements(rng, d, n_local) for d in dims]
        products: list[tuple[np.ndarray, ...]] = [()]
        for lp in locals_:
            products = [term + (e,) for term in products for e in lp]
        if len(products) < n_elements:
            raise ArithmeticError("not enough product terms to fill the groups")
        order = rng.permutation(len(products))
        groups: list[list[tuple[np.ndarray, ...]]] = [[] for _ in range(n_elements)]
        for pos, idx in enumerate(order):
            # first pass seeds every group, the remainder lands at random
            g = pos if pos < n_elements else int(rng.integers(n_elements))
            groups[g].append(products[idx])
        elements = [sum(tensor(*term) for term in g) for g in groups]
        return Povm(elements, dims, kind="sep", witness=SepDecomposition([tuple(g) for g in groups]))

    return _rng_with_retries(seed, build)


def random_locc1(
    dims: Sequence[int],
    branching: int,
    seed: int,
    party_order: Sequence[int] | None = None,
) -> Locc1Tree:
    """Seeded random one-round tree: fresh conditional local POVMs per prefix."""
    dims = check_dims(dims)
    if branching < 1:
        raise ValueError("branching must be at least 1")
    order = tuple(range(len(dims))) if party_order is None else tuple(party_order)

    def build(rng: np.random.Generator) -> Locc1Tree:
        def node(depth: int) -> LoccNode:
            party = order[depth]
            elements = _random_povm_elements(rng, dims[party], branching)
            children = None
            if depth + 1 < len(dims):
                children = [node(depth + 1) for _ in elements]
            return LoccNode(party, elements, children)

        return Locc1Tree(dims, order, node(0))

    return _rng_with_retries(seed, build)


def counterexample_c4(bipartite: bool = False) -> Povm:
    """Projective rank-1 POVM with entries +-1/4 whose 3x3 restriction is not projective.

    The four elements project onto the Hadamard product vectors; restricting
    to the top-left 3x3 block keeps them a POVM but breaks idempotence.
    With ``bipartite=True`` the same matrices are tagged on (2,2) and carry
    the product witness |+-><+-| (x) |+-><+->.
    """
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    locals_ = [(plus, plus), (plus, minus), (minus, plus), (minus, minus)]
    elements = [tensor(a, b) for a, b in locals_]
    if bipartite:
        witness = SepDecomposition([((a, b),) for a, b in locals_])
        return Povm(elements, (2, 2), kind="sep", witness=witness)
    return Povm(elements, (4,), kind="projective")


def povm_to_json(p: Povm) -> dict:
    obj = {
        "dims": list(p.dims),
        "elements": [matrix_to_json(m) for m in p.elements],
        "kind": p.kind,
    }
    if isinstance(p.witness, SepDecomposition):
        obj["witness"] = {
            "type": "sep",
            "terms": [
                [[matrix_to_json(f) for f in term] for term in et] for et in p.witness.terms
            ],
        }
    elif isinstance(p.witness, Locc1Tree):
        obj["witness"] = {"type": "locc1", "tree": locc1_to_json(p.witness)}
    return obj


def povm_from_json(obj: dict) -> Povm:
    strict_object(obj, "POVM", ("dims", "elements"), ("kind", "witness"))
    dims = check_dims(obj["dims"])
    elements = matrices_from_json(obj["elements"], "POVM")
    w = obj.get("witness")
    if w is None:
        witness = None
    elif isinstance(w, dict) and w.get("type") == "sep":
        witness = SepDecomposition(
            [
                tuple(tuple(matrix_from_json(f) for f in term) for term in et)
                for et in strict_object(w, "sep witness", ("type", "terms"))["terms"]
            ]
        )
    elif isinstance(w, dict) and w.get("type") == "locc1":
        witness = locc1_from_json(strict_object(w, "locc1 witness", ("type", "tree"))["tree"])
    else:
        raise ValueError('witness must be {"type": "sep", "terms"} or {"type": "locc1", "tree"}')
    return Povm(elements, dims, kind=obj.get("kind", "general"), witness=witness)


def _node_to_json(node: LoccNode) -> dict:
    outcomes = []
    for j, e in enumerate(node.elements):
        entry = {"element": matrix_to_json(e)}
        if node.children is not None:
            entry["children"] = _node_to_json(node.children[j])
        outcomes.append(entry)
    return {"party": node.party, "outcomes": outcomes}


def _node_from_json(obj: dict) -> LoccNode:
    strict_object(obj, "tree-node", ("party", "outcomes"))
    outcomes = obj["outcomes"]
    for entry in outcomes:
        strict_object(entry, "outcome", ("element",), ("children",))
    elements = matrices_from_json([entry["element"] for entry in outcomes], "tree-node")
    children = [entry.get("children") for entry in outcomes]
    if all(c is None for c in children):
        return LoccNode(obj["party"], elements, None)
    if any(c is None for c in children):
        raise ValueError("either all outcomes or none may carry children")
    return LoccNode(obj["party"], elements, [_node_from_json(c) for c in children])


def locc1_to_json(tree: Locc1Tree) -> dict:
    return {
        "dims": list(tree.dims),
        "party_order": list(tree.party_order),
        "root": _node_to_json(tree.root),
    }


def locc1_from_json(obj: dict) -> Locc1Tree:
    strict_object(obj, "tree", ("dims", "party_order", "root"))
    return Locc1Tree(obj["dims"], obj["party_order"], _node_from_json(obj["root"]))
