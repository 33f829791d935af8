"""The pairwise projectivity test that ``distlab.povm.is_projective`` replaced, kept as its oracle.

It validates the POVM, checks idempotence, and then forms every cross
product M_j M_k.  ``is_projective`` now multiplies out only the pairs its
eigenvector bound cannot clear; ``tests/test_povm.py`` asserts that both give
the same answer, or both reject the POVM as invalid.
"""

import numpy as np


def reference_is_projective(p, tol: float) -> bool:
    """True iff the POVM is valid within ``tol`` and every M_j M_j - M_j and M_j M_k (j < k)
    is within ``tol`` of zero entrywise; ``ValueError`` for an invalid POVM."""
    e = np.asarray(p.elements, dtype=complex)
    hermitian_parts = [(m + m.conj().T) / 2 for m in e]
    residual = np.max(np.abs(e.sum(axis=0) - np.eye(e.shape[-1])))
    defect = np.max(np.abs(e - np.conj(np.swapaxes(e, 1, 2))))
    min_eig = min(np.linalg.eigvalsh(h)[0] for h in hermitian_parts)
    if not (residual <= tol and defect <= tol and min_eig >= -tol):
        raise ValueError(f"invalid POVM: completeness residual {residual:.3e}, min eigenvalue {min_eig:.3e}")
    if np.max(np.abs(e @ e - e)) > tol:
        return False
    return all(np.max(np.abs(e[j] @ e[j + 1 :])) <= tol for j in range(len(e) - 1))
