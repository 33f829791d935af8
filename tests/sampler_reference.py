"""The original per-element random POVM sampler, kept as the test oracle for the stacked one.

``reference_povm_elements`` is the original ``povm._random_povm_elements``
loop verbatim: one element at a time, its real part drawn before its
imaginary part, and a list of matrices returned.  ``reference_random_povm``
and ``reference_random_ppt_povm`` are the original ``random_povm`` and
``random_ppt_povm`` on top of it, with the per-(element, cut) mixing-weight
loop; they return lists of matrices.  The stacked samplers must reproduce
these streams bit for bit, so every seeded sample and fuzz report stays the
same.
"""

import numpy as np

from distlab.linalg import partial_transpose
from distlab.povm import _rng_with_retries, canonical_cuts


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
