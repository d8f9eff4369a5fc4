"""Decoupling groups, stabilizer codes, and the machinery connecting them.

The central objects are a decoupling group G of Pauli strings with its
group-average projector, and the [[n, n-2, 2]] stabilizer code whose
stabilizer coincides with the global universal decoupling group
{I, X, Y, Z}, X = (sigma^x)^(tensor n) etc.  Codewords are the even-weight
superpositions (|x> + |not x>)/sqrt(2); encoded single-qubit operators are
the 2-local Xbar_j = sigma^x_1 sigma^x_{j+1} and
Zbar_j = sigma^z_{j+1} sigma^z_n (1-based site convention in this docstring,
0-based in code).

Phase bookkeeping: group elements are stored with explicit phases, and
conjugation-style operations ignore them.  Eigenvalue-style uses (penalty
Hamiltonians, stabilizer membership) canonicalize phases to +1 and are only
meaningful when the canonicalized set is closed as a genuine group.  For
the universal group on n = 2 (mod 4) qubits it is not --
(sigma^x sigma^z)^(tensor n) = -(sigma^y)^(tensor n) there -- so those
operations refuse such inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import real_if_exact
from .model import dense_terms
from .pauli import PauliString, apply_pauli, commutes, conjugate, pauli_mul, to_dense


@dataclass(frozen=True)
class DecouplingGroup:
    """Ordered set of Pauli strings, closed under multiplication up to phase.

    The first element must be the identity string.
    """

    elements: tuple[PauliString, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("group needs at least the identity element")
        n = self.elements[0].n
        if any(g.n != n for g in self.elements):
            raise ValueError("group elements act on different register sizes")
        if not self.elements[0].is_identity():
            raise ValueError("first group element must be the identity string")
        letters = {g.letters for g in self.elements}
        if len(letters) != len(self.elements):
            raise ValueError("group elements must be distinct up to phase")
        for a in self.elements:
            for b in self.elements:
                if pauli_mul(a, b).letters not in letters:
                    raise ValueError(
                        f"not closed up to phase: {a} * {b} leaves the element set"
                    )

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def n(self) -> int:
        return self.elements[0].n


@dataclass(frozen=True)
class StabilizerCode:
    """[[n, k]] stabilizer code with explicit codewords.

    ``codewords`` has one row per logical basis state, ordered by label
    index; ``labels`` are the k-bit label strings in the same order.
    """

    n: int
    generators: tuple[PauliString, ...]
    codewords: np.ndarray
    labels: tuple[str, ...]

    @property
    def k(self) -> int:
        return self.n - len(self.generators)

    def basis_matrix(self) -> np.ndarray:
        """2^n x 2^k matrix whose columns are the codewords, in their dtype:
        float64 for the real codewords of :func:`code_from_universal_group`."""
        return self.codewords.T.copy()


@dataclass(frozen=True)
class LogicalOperatorSet:
    """Encoded single-qubit operators, one (Xbar, Zbar) pair per logical qubit."""

    xbars: tuple[PauliString, ...]
    zbars: tuple[PauliString, ...]


@dataclass(frozen=True)
class SyndromeSector:
    """Simultaneous eigenspace of the stabilizer generators."""

    label: tuple[int, ...]
    projector: np.ndarray


def universal_group(n: int) -> DecouplingGroup:
    """The universal decoupling group {I, X, Y, Z} of global strings on n qubits."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"universal group needs an even n >= 2, got {n}")
    return DecouplingGroup(
        tuple(PauliString.global_string(n, c) for c in "IXYZ")
    )


def global_x_group(n: int) -> DecouplingGroup:
    """Two-element group {I, X} of global strings; decouples Y and Z couplings only."""
    return DecouplingGroup(
        (PauliString.identity(n), PauliString.global_string(n, "X"))
    )


def trivial_group(n: int) -> DecouplingGroup:
    """The one-element group {I}: no decoupling at all."""
    return DecouplingGroup((PauliString.identity(n),))


def group_average(group: DecouplingGroup, a: np.ndarray) -> np.ndarray:
    """Conjugation average (1/K) sum_k G_k^dag A G_k.

    This is the first-order effect of a full decoupling cycle, the leading
    Magnus term; it projects onto the commutant of the group algebra.  An
    operator on system (x) bath, of dimension 2^n times the bath's b, is
    averaged with every element lifted as G (x) I_b.  A Pauli string is
    Hermitian up to its phase, so G^dag A G = G A G^dag, which
    :func:`~aqc_shield.pauli.conjugate` gathers; a dimension that 2^n does
    not divide raises ``ValueError``.
    """
    return sum(conjugate(g, a) for g in group.elements) / group.order


def _is_phase_closed(elements: tuple[PauliString, ...]) -> bool:
    """True when the phase-canonicalized elements close with phase exactly +1."""
    canon = {g.letters: g.canonical() for g in elements}
    for a in canon.values():
        for b in canon.values():
            prod = pauli_mul(a, b)
            if prod.letters not in canon or prod.phase != 1:
                return False
    return True


def code_from_universal_group(n: int) -> tuple[StabilizerCode, LogicalOperatorSet]:
    """The [[n, n-2, 2]] code stabilized by the global X and Z strings.

    Codewords are (|x> + |not x>)/sqrt(2) over even-weight bitstrings x.
    Labels follow the convention that label bit j records the action of
    Xbar_j on the all-zero logical state, so for n=4 the labels come out
    in the order 00, 10, 01, 11.  The codewords are built by doubling: rows
    [2^j, 2^(j+1)) are Xbar_j applied to rows [0, 2^j).  They are real, and
    stored as float64.
    """
    k = n - 2
    logical = _logical_operators(n)
    generators = (
        PauliString.global_string(n, "X"),
        PauliString.global_string(n, "Z"),
    )
    dim = 1 << n
    codewords = np.zeros((1 << k, dim), dtype=complex)
    codewords[0, [0, dim - 1]] = 1 / np.sqrt(2)
    for j, xbar in enumerate(logical.xbars):
        codewords[1 << j:2 << j] = apply_pauli(xbar, codewords[:1 << j])
    labels = tuple("".join(str((m >> j) & 1) for j in range(k)) for m in range(1 << k))
    code = StabilizerCode(n, generators, real_if_exact(codewords), labels)
    _validate_code(code)
    return code, logical


def _logical_operators(n: int) -> LogicalOperatorSet:
    """Xbar_j = sigma^x_0 sigma^x_{j+1} and Zbar_j = sigma^z_{j+1} sigma^z_{n-1}."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"the even-weight code needs an even n >= 2, got {n}")
    k = n - 2
    xbars = tuple(
        pauli_mul(PauliString.single(n, 0, "X"), PauliString.single(n, j + 1, "X"))
        for j in range(k)
    )
    zbars = tuple(
        pauli_mul(PauliString.single(n, j + 1, "Z"), PauliString.single(n, n - 1, "Z"))
        for j in range(k)
    )
    return LogicalOperatorSet(xbars, zbars)


def _validate_code(code: StabilizerCode) -> None:
    for a, b in itertools.combinations(code.generators, 2):
        if not commutes(a, b):
            raise ValueError(f"stabilizer generators {a} and {b} do not commute")
    gram = code.codewords.conj() @ code.codewords.T
    if np.max(np.abs(gram - np.eye(len(code.labels)))) > 1e-12:
        raise ValueError("codewords are not orthonormal")
    for g in code.generators:
        if np.max(np.abs(apply_pauli(g, code.codewords) - code.codewords)) > 1e-12:
            raise ValueError(f"codeword is not a +1 eigenvector of {g}")


def encode_hamiltonian(
    terms: list[tuple[float, PauliString]], n: int
) -> list[tuple[float, PauliString]]:
    """Replace logical X/Z terms by their encoded partners on n physical qubits.

    Accepts single-site X or Z terms and two-site XX or ZZ terms on k = n-2
    logical qubits (0-based logical site j maps to Xbar_j / Zbar_j).  Pair
    terms simplify automatically: Xbar_i Xbar_j has support only on physical
    sites i+1 and j+1 because the shared sigma^x_0 factors cancel.  Only
    the logical operators are built, not the codewords.
    """
    k = n - 2
    logical = _logical_operators(n)
    out = []
    for coeff, term in terms:
        if term.n != k:
            raise ValueError(f"logical term {term} does not act on {k} qubits")
        if term.phase != 1:
            raise ValueError(f"logical term {term} must carry phase +1")
        sites = [(i, c) for i, c in enumerate(term.letters) if c != "I"]
        if not sites or len(sites) > 2:
            raise ValueError(f"unsupported logical term {term}: weight must be 1 or 2")
        letters_used = {c for _, c in sites}
        if letters_used == {"X"}:
            bars = [logical.xbars[i] for i, _ in sites]
        elif letters_used == {"Z"}:
            bars = [logical.zbars[i] for i, _ in sites]
        else:
            raise ValueError(
                f"unsupported logical term {term}: only X, Z, XX, ZZ terms have "
                "2-local encodings"
            )
        encoded = bars[0]
        for b in bars[1:]:
            encoded = pauli_mul(encoded, b)
        out.append((coeff, encoded))
    return out


def penalty_hamiltonian(group: DecouplingGroup, ep: float) -> np.ndarray:
    """Dense energy-penalty term -E_P * sum of the non-identity group elements.

    Elements enter with phase canonicalized to +1, so the result is
    Hermitian, and through :func:`~aqc_shield.model.dense_terms`, so it is
    float64 when every element is real.  The canonicalized set must itself
    be a genuine (phase +1) group, otherwise the code space is not the
    bottom of the spectrum and the penalty semantics are wrong; the
    universal group on n = 2 (mod 4) qubits fails this and is rejected.
    """
    if ep < 0:
        raise ValueError(f"penalty strength must be nonnegative, got {ep}")
    if ep == 0:
        return np.zeros((1 << group.n,) * 2, dtype=complex)
    if not _is_phase_closed(group.elements):
        raise ValueError(
            "phase-canonicalized elements do not form a stabilizer group; "
            "penalty term is only defined for genuine stabilizer groups "
            "(for global-string groups this requires n = 0 mod 4)"
        )
    return dense_terms([(-ep, g.canonical()) for g in group.elements[1:]], group.n)


def erred_state_energy(group: DecouplingGroup, error: PauliString) -> tuple[float, int]:
    """Predicted penalty eigenvalue -E_P(K-1-2a) per unit E_P for an erred state.

    ``a`` counts the group elements that anticommute with the error; it is
    returned alongside for reporting.  This is the brute-force-checkable
    value; see the tests for the direct diagonalization oracle.
    """
    a = sum(1 for g in group.elements[1:] if not commutes(g, error))
    return -(group.order - 1 - 2 * a), a


def syndrome_sectors(code: StabilizerCode) -> list[SyndromeSector]:
    """Projectors onto the 2^(n-k) simultaneous eigenspaces of the generators.

    Each sector has rank 2^k; the projectors are orthogonal and sum to the
    identity.  Requires the canonicalized generator set to generate a
    genuine stabilizer group (same phase caveat as the penalty term).
    """
    for a, b in itertools.combinations(code.generators, 2):
        if not commutes(a, b):
            raise ValueError("stabilizer generators must commute")
    dim = 1 << code.n
    eye = np.eye(dim, dtype=complex)
    dense_gens = [to_dense(g.canonical()) for g in code.generators]
    sectors = []
    for signs in itertools.product((1, -1), repeat=len(dense_gens)):
        proj = eye
        for sign, g in zip(signs, dense_gens):
            proj = proj @ ((eye + sign * g) / 2)
        sectors.append(SyndromeSector(tuple(signs), proj))
    return sectors


def format_code(code: StabilizerCode, logical: LogicalOperatorSet) -> str:
    """Stable text rendering of codewords and logical operators."""
    lines = [f"[[{code.n},{code.k},2]] code, stabilizer generators: "
             + ", ".join(str(g) for g in code.generators)]
    n = code.n
    for label, vec in zip(code.labels, code.codewords):
        hits = np.nonzero(np.abs(vec) > 1e-12)[0]
        bits = sorted(format(i, f"0{n}b") for i in hits)
        shown = label if label else "-"
        lines.append(f"{shown}: (|{bits[0]}⟩+|{bits[1]}⟩)/√2")
    for j, (xb, zb) in enumerate(zip(logical.xbars, logical.zbars), start=1):
        lines.append(f"Xbar[{j}] = {_support_string(xb)}")
        lines.append(f"Zbar[{j}] = {_support_string(zb)}")
    return "\n".join(lines)


def _support_string(p: PauliString) -> str:
    parts = [f"{c}{i + 1}" for i, c in enumerate(p.letters) if c != "I"]
    return " ".join(parts) if parts else "I"
