"""The original per-element samplers and nested witnesses, kept as the test oracle for the stacked ones.

``reference_povm_elements`` is the original ``povm._random_povm_elements``
loop verbatim: one element at a time, its real part drawn before its
imaginary part, and a list of matrices returned.  ``_rng_with_retries`` is
the original retry loop verbatim: a fresh generator per attempt, the sample
of the first attempt whose draws normalize.  ``reference_random_povm``
and ``reference_random_ppt_povm`` are the original ``random_povm`` and
``random_ppt_povm`` on top of it, with the per-(element, cut) mixing-weight
loop; they return lists of matrices.  The stacked samplers must reproduce
these streams bit for bit, one seed at a time or a block of seeds at once,
so every seeded sample and fuzz report stays the same.

The nested witnesses are the original ones too: ``ReferenceNode`` is the
recursive tree node, a separability witness is a list per element of
product terms (tuples of per-party factors), and ``reference_tensor`` is the
``np.kron`` chain.  ``reference_random_sep_povm`` and
``reference_random_locc1`` are the original samplers on top of
``reference_povm_elements``; ``reference_sep_elements`` is the element
reconstruction of the original ``verify_sep``; ``reference_flatten_locc1``
and ``reference_node_to_json`` are the original leaf walk and tree writer.
"""

from dataclasses import dataclass

import numpy as np

from distlab.linalg import as_matrix, as_stack, matrix_to_json, partial_transpose
from distlab.povm import canonical_cuts


def _rng_with_retries(seed: int, build):
    last = None
    for attempt in range(4):
        rng = np.random.default_rng((int(seed), attempt) if attempt else int(seed))
        try:
            return build(rng)
        except ArithmeticError as exc:
            last = exc
    raise ValueError(f"random generation failed after 3 retries: {last}")


def reference_povm_elements(rng: np.random.Generator, side: int, n: int) -> list[np.ndarray]:
    """n PSD matrices normalized symmetrically into a complete POVM."""
    gram = []
    for _ in range(n):
        g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        gram.append(g @ g.conj().T)
    total = sum(gram)
    w, v = np.linalg.eigh((total + total.conj().T) / 2)
    if w[0] <= side * 1e-12 * max(w[-1], 1.0):
        raise ArithmeticError("singular normalization")
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    out = []
    for g in gram:
        m = inv_sqrt @ g @ inv_sqrt
        out.append((m + m.conj().T) / 2)
    return out


def reference_random_povm(dims, n_elements: int, seed: int) -> list[np.ndarray]:
    side = int(np.prod(dims))
    return _rng_with_retries(seed, lambda rng: reference_povm_elements(rng, side, n_elements))


def reference_random_ppt_povm(dims, n_elements: int, seed: int, margin: float = 1e-8) -> list[np.ndarray]:
    base = reference_random_povm(dims, n_elements, seed)
    side = base[0].shape[0]
    lam = 0.0
    for m in base:
        c = np.trace(m).real / side
        for cut in canonical_cuts(dims):
            pt = partial_transpose(m, dims, cut)
            mu = float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])
            if mu < margin:
                lam = max(lam, (margin - mu) / (c - mu))
    return [(1 - lam) * m + lam * (np.trace(m).real / side) * np.eye(side) for m in base]


def reference_tensor(*matrices):
    """Kronecker product, first factor slowest-varying."""
    out = as_matrix(matrices[0])
    for m in matrices[1:]:
        out = np.kron(out, as_matrix(m))
    return out


@dataclass(frozen=True)
class ReferenceNode:
    """One conditional local measurement: the POVM a party applies given the prefix."""

    party: int
    elements: np.ndarray  # (outcomes, d, d)
    children: tuple["ReferenceNode", ...] | None = None

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


def reference_sep_elements(terms, like):
    """Each element rebuilt as the running sum of its product terms."""
    out = []
    for m, element_terms in zip(like, terms):
        recon = np.zeros_like(m)
        for term in element_terms:
            recon = recon + reference_tensor(*term)
        out.append(recon)
    return out


def reference_random_sep_povm(dims, n_elements: int, seed: int):
    """(elements, groups): a coarse-grained product POVM and its per-element product terms."""
    k = len(dims)
    n_local = max(2, int(np.ceil((2 * n_elements) ** (1 / k))))

    def build(rng):
        locals_ = [reference_povm_elements(rng, d, n_local) for d in dims]
        products = [()]
        for lp in locals_:
            products = [term + (e,) for term in products for e in lp]
        if len(products) < n_elements:
            raise ArithmeticError("not enough product terms to fill the groups")
        order = rng.permutation(len(products))
        groups = [[] for _ in range(n_elements)]
        for pos, idx in enumerate(order):
            # first pass seeds every group, the remainder lands at random
            g = pos if pos < n_elements else int(rng.integers(n_elements))
            groups[g].append(products[idx])
        elements = [sum(reference_tensor(*term) for term in g) for g in groups]
        return elements, [tuple(g) for g in groups]

    return _rng_with_retries(seed, build)


def reference_random_locc1(dims, branching: int, seed: int, party_order=None) -> ReferenceNode:
    """The root of a seeded random one-round tree: fresh conditional local POVMs per prefix."""
    order = tuple(range(len(dims))) if party_order is None else tuple(party_order)

    def build(rng):
        def node(depth):
            party = order[depth]
            elements = reference_povm_elements(rng, dims[party], branching)
            children = None
            if depth + 1 < len(dims):
                children = [node(depth + 1) for _ in elements]
            return ReferenceNode(party, elements, children)

        return node(0)

    return _rng_with_retries(seed, build)


def reference_iter_leaves(root: ReferenceNode):
    """Yield (outcome path, {party: local element}) over leaves in outcome order."""

    def rec(node, path, ops):
        for j, e in enumerate(node.elements):
            ops2 = dict(ops)
            ops2[node.party] = e
            if node.children is None:
                yield path + (j,), ops2
            else:
                yield from rec(node.children[j], path + (j,), ops2)

    yield from rec(root, (), {})


def reference_flatten_locc1(root: ReferenceNode, n_parties: int):
    """(elements, terms): leaf products in outcome order, factors by party index."""
    elements = []
    terms = []
    for _path, ops in reference_iter_leaves(root):
        factors = tuple(ops[party] for party in range(n_parties))
        elements.append(reference_tensor(*factors))
        terms.append((factors,))
    return elements, terms


def reference_node_to_json(node: ReferenceNode) -> dict:
    outcomes = []
    for j, e in enumerate(node.elements):
        entry = {"element": matrix_to_json(e)}
        if node.children is not None:
            entry["children"] = reference_node_to_json(node.children[j])
        outcomes.append(entry)
    return {"party": node.party, "outcomes": outcomes}
