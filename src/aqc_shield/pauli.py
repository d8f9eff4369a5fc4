"""Phased Pauli strings and their multiplicative algebra.

A Pauli string is a phase from {+1, +i, -1, -i} times a tensor product of
single-qubit letters drawn from {I, X, Y, Z}, one letter per qubit.  Letter
index 0 is the leftmost tensor factor, i.e. the most significant bit of a
computational-basis index; dense matrices follow the same kron ordering.

The phase is tracked explicitly because identities such as
(sigma^x sigma^z)^(tensor n) = (-i)^n (sigma^y)^(tensor n) carry
n-dependent signs.  Conjugation-style uses (group averaging, commutation
checks) are insensitive to the phase by construction; eigenvalue-style uses
(penalty Hamiltonians, stabilizer conditions) are not, which is why both
views live on the same object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LETTERS = "IXYZ"

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

# Single-qubit products a*b = phase * c, keyed by (a, b).
_SINGLE_PRODUCT = {
    ("I", "I"): ("I", 1 + 0j),
    ("I", "X"): ("X", 1 + 0j),
    ("I", "Y"): ("Y", 1 + 0j),
    ("I", "Z"): ("Z", 1 + 0j),
    ("X", "I"): ("X", 1 + 0j),
    ("Y", "I"): ("Y", 1 + 0j),
    ("Z", "I"): ("Z", 1 + 0j),
    ("X", "X"): ("I", 1 + 0j),
    ("Y", "Y"): ("I", 1 + 0j),
    ("Z", "Z"): ("I", 1 + 0j),
    ("X", "Y"): ("Z", 1j),
    ("Y", "X"): ("Z", -1j),
    ("Y", "Z"): ("X", 1j),
    ("Z", "Y"): ("X", -1j),
    ("Z", "X"): ("Y", 1j),
    ("X", "Z"): ("Y", -1j),
}

# Cap on dense conversion: 2^12 x 2^12 is the largest matrix the dense
# kernel is meant to produce.
MAX_DENSE_QUBITS = 12

_PHASE_LABEL = {1 + 0j: "+", 1j: "+i", -1 + 0j: "-", -1j: "-i"}


@dataclass(frozen=True)
class PauliString:
    """Phase times a tensor product of single-qubit Pauli letters."""

    phase: complex
    letters: str

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of +1, +i, -1, -i, got {self.phase!r}")
        if not self.letters or any(c not in LETTERS for c in self.letters):
            raise ValueError(f"letters must be a nonempty string over 'IXYZ', got {self.letters!r}")

    @property
    def n(self) -> int:
        """Number of qubits."""
        return len(self.letters)

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return sum(1 for c in self.letters if c != "I")

    def is_identity(self) -> bool:
        return self.weight == 0

    def dagger(self) -> "PauliString":
        """Hermitian conjugate: letters are self-adjoint, the phase conjugates."""
        return PauliString(self.phase.conjugate(), self.letters)

    def canonical(self) -> "PauliString":
        """Same letters with phase reset to +1."""
        return PauliString(1 + 0j, self.letters)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_mul(self, other)

    def __str__(self) -> str:
        return _PHASE_LABEL[self.phase] + self.letters

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(1 + 0j, "I" * n)

    @classmethod
    def from_letters(cls, letters: str) -> "PauliString":
        return cls(1 + 0j, letters)

    @classmethod
    def single(cls, n: int, site: int, letter: str) -> "PauliString":
        """One non-identity letter at ``site`` (0-based) on an n-qubit register."""
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        return cls(1 + 0j, "I" * site + letter + "I" * (n - site - 1))

    @classmethod
    def global_string(cls, n: int, letter: str) -> "PauliString":
        """The same letter on every qubit, phase +1."""
        return cls(1 + 0j, letter * n)


def pauli_mul(a: PauliString, b: PauliString) -> PauliString:
    """Phased product a*b of two equal-length Pauli strings."""
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    phase = a.phase * b.phase
    out = []
    for la, lb in zip(a.letters, b.letters):
        lc, p = _SINGLE_PRODUCT[la, lb]
        out.append(lc)
        phase *= p
    return PauliString(phase, "".join(out))


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff ab = ba.  Phase-insensitive.

    Two strings commute exactly when the number of sites where both letters
    are non-identity and different is even.
    """
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    odd = 0
    for la, lb in zip(a.letters, b.letters):
        if la != "I" and lb != "I" and la != lb:
            odd ^= 1
    return odd == 0


def signed_permutation(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) with ``p @ x == phase[:, None] * x[perm]``: row i of
    ``p``'s dense matrix holds its one nonzero entry phase[i] in column
    perm[i].

    X and Y letters flip bits of the basis index; Y and Z letters contribute
    signs, and each Y a factor of i.  This is the one place that derives a
    Pauli string's permutation and phases.
    """
    n = p.n
    flip = 0
    sign_mask = 0
    n_y = 0
    for site, c in enumerate(p.letters):
        bit = 1 << (n - 1 - site)
        if c in ("X", "Y"):
            flip |= bit
        if c in ("Y", "Z"):
            sign_mask |= bit
        if c == "Y":
            n_y += 1
    perm = np.arange(1 << n) ^ flip
    parity = np.zeros(perm.size, dtype=np.int64)
    masked = perm & sign_mask
    while np.any(masked):
        parity ^= masked & 1
        masked >>= 1
    phase = p.phase * (1j) ** n_y * np.where(parity, -1.0, 1.0)
    return perm, phase


def conjugate(p: PauliString, a: np.ndarray) -> np.ndarray:
    """(P (x) I_b) a (P (x) I_b)^dag for ``a`` of dimension 2^n b, gathered
    on the system axes of a's (2^n, b, 2^n, b) view: with P's
    :func:`signed_permutation`, the (i, k) block is phase[i] conj(phase[k])
    times a's (perm[i], perm[k]) block.  A dimension that 2^n does not
    divide raises ``ValueError``.
    """
    dim = 1 << p.n
    if a.shape[0] % dim:
        raise ValueError(f"dimension {a.shape[0]} is not a multiple of 2^{p.n}")
    perm, phase = signed_permutation(p)
    view = a.reshape(dim, a.shape[0] // dim, dim, -1)
    signs = np.outer(phase, phase.conj())[:, None, :, None]
    return (signs * view[perm][:, :, perm]).reshape(a.shape)


def to_dense(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of ``p`` (phase included), written directly
    from :func:`signed_permutation` rather than by a kron chain."""
    if p.n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense conversion of {p.n} qubits exceeds the cap of {MAX_DENSE_QUBITS}")
    perm, phase = signed_permutation(p)
    mat = np.zeros((perm.size, perm.size), dtype=complex)
    mat[np.arange(perm.size), perm] = phase
    return mat


def apply_pauli(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """Apply ``p`` to a state vector, or to every row of a (..., 2^n) stack of
    them, as the gather of :func:`signed_permutation` on the last axis,
    without forming the dense matrix.  The result is complex."""
    dim = 1 << p.n
    if vec.ndim < 1 or vec.shape[-1] != dim:
        raise ValueError(f"state dimension {vec.shape} does not match 2^{p.n}")
    perm, phase = signed_permutation(p)
    return phase * vec[..., perm]
