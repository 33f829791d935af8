"""State families for discrimination experiments.

Provides density-matrix states over a composite system, the generalized Bell
family, the nine Domino product states on (3,3), their completion to an
orthogonal product basis of any (m,n) with m,n >= 3, and the zero-padding
embedding of states into larger local dimensions.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    BLOCK_BYTES,
    DEFAULT_TOL,
    HERMITIAN_TOL,
    as_matrix,
    bipartition,
    check_dims,
    embed_matrix,
    hermiticity_defect,
    matrices_from_json,
    matrix_to_json,
    min_eigenvalue,
    psd_certified,
    real_if_zero_imag,
    strict_object,
    trace_products,
)

STATE_TOL = 1e-9


def _check_states(rhos: np.ndarray, labels: Sequence[str]) -> None:
    """Raise for the first matrix of the stack ``rhos`` that is not a state, with the message of its first failing
    check: finite entries, Hermitian within ``HERMITIAN_TOL``, trace 1 within ``STATE_TOL``, then
    lambda_min >= -STATE_TOL, decided by :func:`~distlab.linalg.psd_certified`.  A real stack is checked on its
    float64 copy (:func:`~distlab.linalg.real_if_zero_imag`), but the traces and the eigenvalue a message
    reports are those of the complex ``rhos``.  The checks run a block of ``BLOCK_BYTES`` of the stack they
    check at a time; finiteness and the eigenvalue itself are looked at only for a state that fails."""
    checked = real_if_zero_imag(rhos)
    step = max(1, BLOCK_BYTES // checked[0].nbytes)
    for lo in range(0, len(rhos), step):
        block = checked[lo : lo + step]
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN or infinite entry makes the defect NaN or infinite
            defect, tr = hermiticity_defect(block), np.trace(rhos[lo : lo + step], axis1=1, axis2=2).real
        bad = ~(defect <= HERMITIAN_TOL) | ~(np.abs(tr - 1.0) <= STATE_TOL)
        if not bad.all():  # the eigensolver sees only matrices that passed, so no non-finite one
            bad[~bad] = ~psd_certified(block[~bad] if bad.any() else block, STATE_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            label = labels[lo + i]
            if not np.isfinite(block[i]).all():
                raise ValueError(f"state {label!r} has a NaN or Infinity entry")
            if defect[i] > HERMITIAN_TOL:
                raise ValueError(f"state {label!r} is not Hermitian (defect {defect[i]:.3e})")
            if abs(tr[i] - 1.0) > STATE_TOL:
                raise ValueError(f"state {label!r} has trace {tr[i]}, expected 1")
            raise ValueError(f"state {label!r} has negative eigenvalue {min_eigenvalue(rhos[lo + i]):.3e}")


class State:
    """Unit-trace PSD matrix over a composite system, checked as a stack of one by
    :func:`_check_states`."""

    def __init__(self, rho, dims: Sequence[int], label: str = ""):
        self.rho = as_matrix(rho)
        self.dims = check_dims(dims, self.rho.shape[0])
        self.label = label
        _check_states(self.rho[None], [label])

    @property
    def side(self) -> int:
        return self.rho.shape[0]


class StateSet:
    """Finite list of states sharing one dimension vector, held as one
    ``(n, side, side)`` complex stack ``rhos`` with a label per state (``labels``).
    Indexing (and so iteration) yields each member as a ``State`` viewing its stack
    entry; the members were checked when the set was built, so they are not checked again."""

    def __init__(self, states: Iterable[State], label: str = ""):
        states = tuple(states)
        if not states:
            raise ValueError("a state set needs at least one state")
        dims = states[0].dims
        for s in states:
            if s.dims != dims:
                raise ValueError(f"mixed dimension vectors {dims} vs {s.dims}")
        self.rhos, self.dims = np.stack([s.rho for s in states]), dims
        self.labels, self.label = tuple(s.label for s in states), label

    @classmethod
    def from_stack(cls, rhos, dims: Sequence[int], labels: Sequence[str], label: str = "") -> "StateSet":
        """Adopt a stack without copying it; every matrix must pass ``State``'s checks,
        which raise ``State``'s error for the first matrix that fails."""
        rhos, labels = np.asarray(rhos, dtype=complex), tuple(str(x) for x in labels)
        if rhos.ndim != 3 or not len(rhos) or len(labels) != len(rhos):
            raise ValueError(f"bad state stack: shape {rhos.shape} with {len(labels)} labels")
        dims = check_dims(dims, rhos.shape[-1])
        _check_states(rhos, labels)
        out = cls.__new__(cls)
        out.rhos, out.dims, out.labels, out.label = rhos, dims, labels, label
        return out

    def __len__(self) -> int:
        return len(self.rhos)

    def __getitem__(self, i) -> State:
        i = operator.index(i)
        member = State.__new__(State)
        member.rho, member.dims, member.label = self.rhos[i], self.dims, self.labels[i]
        return member

    def subset(self, indices: Sequence[int]) -> "StateSet":
        return StateSet([self[i] for i in indices], label=self.label)


def _pure_states(vectors, dims: Sequence[int], labels: Sequence[str], label: str = "") -> StateSet:
    """Normalize each row of ``vectors`` and adopt the stack of their rank-1 projectors, formed in one
    broadcast product.  Each norm is the real part's dot product plus the imaginary part's, as
    ``np.linalg.norm`` computes it, so each projector is bit for bit ``np.outer`` of the normalized row."""
    v = np.asarray(vectors, dtype=complex)
    re, im = v.real, v.imag
    norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, :, 0]  # one dot product each
    if not norms.all():
        raise ValueError("cannot normalize the zero vector")
    v = v / norms
    return StateSet.from_stack(v[:, :, None] * v.conj()[:, None, :], dims, labels, label=label)


def pure_state(amplitudes: Sequence[complex], dims: Sequence[int], label: str = "") -> State:
    """Normalize an amplitude vector and form its rank-1 projector."""
    return _pure_states(np.reshape(amplitudes, (1, -1)), dims, [label])[0]


def _ket(d: int, *indices_and_weights) -> np.ndarray:
    """Unnormalized superposition of computational basis kets of C^d."""
    v = np.zeros(d, dtype=complex)
    for idx, w in indices_and_weights:
        v[idx] = w
    return v


def generalized_bell_states(d: int) -> StateSet:
    """The d^2 shift-and-phase maximally entangled states of (d,d).

    Element (a,b) has amplitudes omega^(m b mod d)/sqrt(d) on |m>|m+a mod d>,
    omega = exp(2 pi i / d); (0,0) is the uniform |Phi+>.  The powers at the
    quarter turns are exactly 1, i, -1 and -i, so for d = 2 the states are real.
    """
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    k = np.arange(d)
    powers = np.exp(2j * np.pi * k / d)  # omega^k
    quarter = 4 * k % d == 0
    powers[quarter] = np.array([1, 1j, -1, -1j])[4 * k[quarter] // d]
    rows = np.arange(d * d)[:, None]  # element a*d + b
    a, b = np.divmod(rows, d)
    v = np.zeros((d * d, d * d), dtype=complex)
    v[rows, k * d + (k + a) % d] = powers[k * b % d] / np.sqrt(d)
    labels = [f"bell[{i},{j}]" for i in range(d) for j in range(d)]
    return _pure_states(v, (d, d), labels, label=f"gbell(d={d})")


def bell_states() -> StateSet:
    """The four Bell states of (2,2)."""
    return generalized_bell_states(2)


def domino_states() -> StateSet:
    """The nine orthogonal product states tiling (3,3) like dominoes."""
    plus, minus = 1 / np.sqrt(2), -1 / np.sqrt(2)
    kets = [
        (_ket(3, (0, 1)), _ket(3, (0, plus), (1, plus)), "|0>|0+1>"),
        (_ket(3, (0, 1)), _ket(3, (0, plus), (1, minus)), "|0>|0-1>"),
        (_ket(3, (0, plus), (1, plus)), _ket(3, (2, 1)), "|0+1>|2>"),
        (_ket(3, (0, plus), (1, minus)), _ket(3, (2, 1)), "|0-1>|2>"),
        (_ket(3, (2, 1)), _ket(3, (1, plus), (2, plus)), "|2>|1+2>"),
        (_ket(3, (2, 1)), _ket(3, (1, plus), (2, minus)), "|2>|1-2>"),
        (_ket(3, (1, plus), (2, plus)), _ket(3, (0, 1)), "|1+2>|0>"),
        (_ket(3, (1, plus), (2, minus)), _ket(3, (0, 1)), "|1-2>|0>"),
        (_ket(3, (1, 1)), _ket(3, (1, 1)), "|1>|1>"),
    ]
    first, second, labels = zip(*kets)
    vectors = (np.array(first)[:, :, None] * np.array(second)[:, None, :]).reshape(len(kets), 9)  # np.kron of each pair
    return _pure_states(vectors, (3, 3), labels, label="domino")


def extended_domino_basis(m: int, n: int) -> StateSet:
    """Complete orthogonal product basis of (m,n) extending the Domino states.

    The nine Domino states are zero-padded into (m,n) and completed with the
    computational product states |i>|j> for every index pair with i >= 3 or
    j >= 3, giving m*n mutually orthogonal product states in total.

    A multipartite variant follows by tensoring each basis state with the
    members of an orthonormal basis of the remaining parties; no dedicated
    constructor is provided for that.
    """
    if m < 3 or n < 3:
        raise ValueError("both local dimensions must be at least 3")
    dominoes = domino_states()
    i, j = np.divmod(np.arange(m * n), n)
    rest = np.flatnonzero((i >= 3) | (j >= 3))  # |i>|j> is the basis ket i*n + j
    rhos = np.zeros((m * n, m * n, m * n), dtype=complex)
    # the projectors are padded, not the vectors: a padded vector's products would leave -0.0 in the padding
    rhos[: len(dominoes)] = embed_matrix(dominoes.rhos, (3, 3), (m, n))
    rhos[len(dominoes) + np.arange(len(rest)), rest, rest] = 1
    labels = dominoes.labels + tuple(f"|{k // n}>|{k % n}>" for k in rest)
    return StateSet.from_stack(rhos, (m, n), labels, label=f"domino-ext({m},{n})")


def embed_state(s: State, new_dims: Sequence[int]) -> State:
    """View a state in enlarged local dimensions by zero padding."""
    new_dims = check_dims(new_dims)
    return State(embed_matrix(s.rho, s.dims, new_dims), new_dims, label=s.label)


def embed_set(states: StateSet, new_dims: Sequence[int]) -> StateSet:
    """Zero-pad the whole stack at once; labels and the set label carry over."""
    rhos = embed_matrix(states.rhos, states.dims, new_dims)
    return StateSet.from_stack(rhos, new_dims, states.labels, label=states.label)


def state_vector(s: State) -> np.ndarray:
    """Amplitude vector of a pure state; rejects mixed input."""
    w, v = np.linalg.eigh(s.rho)
    if w[-1] < 1 - STATE_TOL or (s.side > 1 and w[-2] > STATE_TOL):
        raise ValueError(f"state {s.label!r} is not pure within tol {STATE_TOL:g}")
    return v[:, -1]


def schmidt_rank(s: State, cut: Iterable[int] = (0,)) -> int:
    """Number of Schmidt coefficients of a pure state across a bipartition.

    ``cut`` lists the parties forming one side; singular values of the
    reshaped amplitude vector above 1e-9 are counted.
    """
    cut = bipartition(s.dims, cut)
    psi = state_vector(s)
    rest = tuple(p for p in range(len(s.dims)) if p not in cut)
    t = psi.reshape(s.dims).transpose(cut + rest)
    a = t.reshape(int(np.prod([s.dims[p] for p in cut])), -1)
    return int(np.sum(np.linalg.svd(a, compute_uv=False) > 1e-9))


def pairwise_overlaps(states: StateSet) -> np.ndarray:
    """Matrix of trace(rho_i rho_j) products."""
    return trace_products(states.rhos, states.rhos).real


def mutually_orthogonal(states: StateSet, tol: float = DEFAULT_TOL) -> bool:
    """True iff trace(rho_i rho_j) <= tol for every pair i != j.

    For PSD matrices trace(rho sigma) = 0 is equivalent to disjoint supports,
    so this one-scalar test is support orthogonality.
    """
    g = pairwise_overlaps(states)
    np.fill_diagonal(g, 0.0)
    return bool(np.max(g) <= tol) if len(states) > 1 else True


def state_set_to_json(states: StateSet, matrix=matrix_to_json) -> dict:
    """The state-set object; ``matrix`` gives each density matrix's value, by default its wire-format
    object.  The report writer of ``distlab.cli`` takes the matrix itself (``matrix=np.asarray``) and
    writes it as that object."""
    return {
        "dims": list(states.dims),
        "states": [{"label": lab, "matrix": matrix(rho)} for rho, lab in zip(states.rhos, states.labels)],
    }


def state_set_from_json(obj: dict) -> StateSet:
    strict_object(obj, "state set", {"dims": [int], "states": [dict]})
    dims = check_dims(obj["dims"])
    entries = obj["states"]
    for e in entries:
        strict_object(e, "state", {"matrix": dict}, {"label": str})
    rhos = matrices_from_json([e["matrix"] for e in entries], "state set")
    return StateSet.from_stack(rhos, dims, [e.get("label", "") for e in entries])
