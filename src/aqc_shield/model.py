"""Hamiltonian construction: interpolation schedules, the 2-local universal
AQC family, the linear-decoherence system-bath model, and spectral gaps.

Conventions: s = t/T is dimensionless time, H(s) = (1-f(s)) H0 + f(s) H1,
and term lists are ``(coefficient, PauliString)`` pairs with real
coefficients.  All energies are expressed in units of the base scale
delta0 = 1 unless stated otherwise.

Dtypes: a dense Hamiltonian built from a term list is float64 when its Pauli
terms are real (X and Z letters, or an even number of Y letters per string)
and complex otherwise, so real models reach the real symmetric eigensolver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .pauli import MAX_DENSE_QUBITS, PauliString, dense_entries, to_dense
from .linalg import op_norm, real_if_exact, require_hermitian

_TWO_PI = 2 * math.pi

# (f, f', f'') of each schedule kind on s in [0, 1], with ``math`` on floats.
_SCHEDULE_FORMULAS: dict[str, tuple[Callable[[float], float], ...]] = {
    "linear": (lambda s: s, lambda s: 1.0, lambda s: 0.0),
    "smooth-endpoint": (
        lambda s: s - math.sin(_TWO_PI * s) / _TWO_PI,
        lambda s: 1.0 - math.cos(_TWO_PI * s),
        lambda s: _TWO_PI * math.sin(_TWO_PI * s),
    ),
    "polynomial-smooth": (
        lambda s: s * s * (3 - 2 * s),
        lambda s: 6 * s * (1 - s),
        lambda s: 6 - 12 * s,
    ),
}
SCHEDULE_KINDS = tuple(_SCHEDULE_FORMULAS)

TermList = list[tuple[float, PauliString]]


@dataclass(frozen=True)
class Schedule:
    """Interpolation schedule f with f(0)=0, f(1)=1.

    The smooth kinds additionally have f'(0) = f'(1) = 0, which is the
    endpoint-flatness hypothesis the closed-system error estimates need.
    """

    kind: str = "smooth-endpoint"

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; choose from {SCHEDULE_KINDS}")

    def __call__(self, s: float) -> float:
        """f(s) alone; :func:`schedule_eval` also gives the derivatives."""
        return _schedule_formulas(self.kind, s)[0](s)


def schedule_eval(kind: str, s: float) -> tuple[float, float, float]:
    """(f, f', f'') at s in [0, 1]."""
    return tuple(formula(s) for formula in _schedule_formulas(kind, s))


def _schedule_formulas(kind: str, s: float) -> tuple[Callable[[float], float], ...]:
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s = {s} outside [0, 1]")
    try:
        return _SCHEDULE_FORMULAS[kind]
    except KeyError:
        raise ValueError(f"unknown schedule kind {kind!r}") from None


@dataclass(frozen=True)
class AdiabaticSpec:
    """Interpolating system Hamiltonian plus run bookkeeping.

    ``code_basis``, when given, is a 2^n x 2^k isometry whose columns span
    the code space; ground states, spectra and the closed run are then
    taken inside that subspace (encoded operation).  ``penalty`` is the dense
    E_P H_P of the protected runs, off in pulse windows unless ``penalty_during_pulse``.
    """

    n: int
    h0_terms: TermList
    h1_terms: TermList
    schedule: Schedule = Schedule()
    total_time: float = 1.0
    code_basis: np.ndarray | None = None
    penalty: np.ndarray | None = None
    penalty_during_pulse: bool = True

    def __post_init__(self):
        for coeff, term in self.h0_terms + self.h1_terms:
            if term.n != self.n:
                raise ValueError(f"term {term} does not act on {self.n} qubits")
            if abs(complex(coeff).imag) > 0:
                raise ValueError(f"coefficient {coeff} must be real")
        if self.penalty is not None and self.penalty.shape != (1 << self.n, 1 << self.n):
            raise ValueError("penalty operator dimension mismatch")

    @cached_property
    def H0(self) -> np.ndarray:
        """Dense H0, built on first use and shared read-only (as is H1)."""
        return _read_only(dense_terms(self.h0_terms, self.n))

    @cached_property
    def H1(self) -> np.ndarray:
        return _read_only(dense_terms(self.h1_terms, self.n))

    @cached_property
    def code_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(V^dag H0 V, V^dag H1 V) on the code space spanned by the columns
        of V = ``code_basis``, or (H0, H1) when the spec is unencoded."""
        v = self.code_basis
        if v is None:
            return self.H0, self.H1
        return tuple(_read_only(v.conj().T @ h @ v) for h in (self.H0, self.H1))

    def interpolate(self, s: float, h0=None, h1=None) -> np.ndarray:
        """Dense H(s) = (1 - f(s)) H0 + f(s) H1, with ``h0``/``h1`` standing
        in for the dense pair when given."""
        f = self.schedule(s)
        return (1 - f) * (self.H0 if h0 is None else h0) + f * (self.H1 if h1 is None else h1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def dense_terms(terms: TermList, n: int) -> np.ndarray:
    """Dense sum of a coefficient/Pauli term list on n qubits.

    Each term's :func:`dense_entries` are added into one accumulator, with
    no dense temporary per term.  The result is float64 when its imaginary
    part is exactly zero and complex otherwise.
    """
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense conversion of {n} qubits exceeds the cap of {MAX_DENSE_QUBITS}")
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for coeff, term in terms:
        if term.n != n:
            raise ValueError(f"term {term} does not act on {n} qubits")
        rows, cols, values = dense_entries(term)
        h[rows, cols] += coeff * values
    return real_if_exact(h)


def universal_aqc_terms(
    h_coeffs: dict[tuple[int, str], float],
    j_coeffs: dict[tuple[int, int, str], float],
    n: int,
) -> TermList:
    """Terms of the 2-local universal family sum h_i^a sigma_i^a + sum J_ij^a sigma_i^a sigma_j^a.

    Only a in {x, z} is allowed; transverse single-site fields and
    same-letter two-site couplings are exactly the interactions that stay
    2-local after encoding.
    """
    terms: TermList = []
    for (i, alpha), coeff in h_coeffs.items():
        letter = _validate_alpha(alpha)
        value = float(coeff)
        if value != 0.0:
            terms.append((value, PauliString.single(n, i, letter)))
    for (i, j, alpha), coeff in j_coeffs.items():
        letter = _validate_alpha(alpha)
        if i == j:
            raise ValueError(f"two-site coupling needs distinct sites, got ({i}, {j})")
        value = float(coeff)
        if value != 0.0:
            pair = PauliString.single(n, i, letter) * PauliString.single(n, j, letter)
            terms.append((value, pair))
    return terms


def _validate_alpha(alpha: str) -> str:
    if alpha not in ("x", "z"):
        raise ValueError(f"only x and z couplings are 2-local encodable, got {alpha!r}")
    return alpha.upper()


@dataclass(frozen=True)
class SystemBathSpec:
    """Linear-decoherence coupling sum_j,a sigma_j^a (x) B_j^a plus a bath Hamiltonian.

    ``h_sb`` is the assembled dense coupling on the joint system (x) bath
    space, rescaled so its operator norm equals ``j_coupling``.
    """

    n: int
    n_b: int
    couplings: tuple[tuple[PauliString, np.ndarray], ...]
    h_b: np.ndarray
    h_sb: np.ndarray
    j_coupling: float
    beta_b: float
    seed: int

    @property
    def bath_dim(self) -> int:
        return 1 << self.n_b


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def _random_two_local(rng: np.random.Generator, n_b: int) -> np.ndarray:
    """Random Hermitian built from 1- and 2-site Pauli terms with Gaussian weights."""
    dim = 1 << n_b
    h = np.zeros((dim, dim), dtype=complex)
    for site in range(n_b):
        for letter in "XYZ":
            h += rng.standard_normal() * to_dense(PauliString.single(n_b, site, letter))
    for a, b in itertools.combinations(range(n_b), 2):
        for la in "XYZ":
            for lb in "XYZ":
                pair = PauliString.single(n_b, a, la) * PauliString.single(n_b, b, lb)
                h += rng.standard_normal() * to_dense(pair)
    return h


def linear_decoherence(
    n: int, n_b: int, j_coupling: float, seed: int, beta_b: float = 1.0
) -> SystemBathSpec:
    """Seeded linear-decoherence model with 3n coupling terms.

    Every system qubit couples through each of sigma^x, sigma^y, sigma^z to
    its own random Hermitian bath factor; the assembled coupling is globally
    rescaled so its operator norm is exactly ``j_coupling``.  The bath
    Hamiltonian is a random 2-local Hermitian rescaled to ``beta_b``.
    ``j_coupling = 0`` yields identically zero coupling factors.
    """
    if n < 1 or n_b < 1:
        raise ValueError("need at least one system and one bath qubit")
    if j_coupling < 0:
        raise ValueError(f"coupling strength must be nonnegative, got {j_coupling}")
    if beta_b < 0:
        raise ValueError(f"bath norm must be nonnegative, got {beta_b}")
    rng = np.random.default_rng(seed)
    bath_dim = 1 << n_b
    factors = []
    for alpha in "xyz":
        for site in range(n):
            factors.append(
                (PauliString.single(n, site, alpha.upper()), _random_hermitian(rng, bath_dim))
            )
    h_b = _random_two_local(rng, n_b)
    norm_b = op_norm(h_b)
    if norm_b > 0:
        h_b = h_b * (beta_b / norm_b)
    joint_dim = (1 << n) * bath_dim
    h_sb = np.zeros((joint_dim, joint_dim), dtype=complex)
    for term, factor in factors:
        h_sb += np.kron(to_dense(term), factor)
    raw_norm = op_norm(h_sb)
    scale = j_coupling / raw_norm if raw_norm > 0 else 0.0
    couplings = tuple((term, factor * scale) for term, factor in factors)
    return SystemBathSpec(
        n=n,
        n_b=n_b,
        couplings=couplings,
        h_b=h_b,
        h_sb=h_sb * scale,
        j_coupling=j_coupling,
        beta_b=beta_b,
        seed=seed,
    )


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum of H(s) on a grid, with the minimal gap above the ground level."""

    s_grid: np.ndarray
    energies: np.ndarray
    gap: float
    s_star: float
    degenerate: bool = False


def min_gap(spec: AdiabaticSpec, grid_points: int = 101) -> SpectralReport:
    """Minimal gap E1(s) - E0(s) over s in [0, 1].

    Dense Hermitian solves on a uniform grid, then a golden-section
    refinement of the gap around the coarse minimum.  When
    the ground level is degenerate (gap below 1e-12) somewhere, the report
    carries ``degenerate=True`` and the gap 0 at that point.
    """
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    s_grid = np.linspace(0.0, 1.0, grid_points)

    def levels(s: float) -> np.ndarray:
        return np.linalg.eigvalsh(spec.interpolate(s, *spec.code_pair))

    def gap_at(s: float) -> float:
        e = levels(s)
        return float(e[1] - e[0])

    energies = np.array([levels(s) for s in s_grid])
    gaps = energies[:, 1] - energies[:, 0]
    idx = int(np.argmin(gaps))
    gap = float(gaps[idx])
    s_star = float(s_grid[idx])
    if gap < 1e-12:
        return SpectralReport(s_grid, energies, 0.0, s_star, degenerate=True)
    lo = s_grid[max(idx - 1, 0)]
    hi = s_grid[min(idx + 1, grid_points - 1)]
    s_star, gap = _golden_section(gap_at, lo, hi)
    if gap < 1e-12:
        return SpectralReport(s_grid, energies, 0.0, s_star, degenerate=True)
    return SpectralReport(s_grid, energies, gap, s_star)


def _golden_section(f: Callable[[float], float], a: float, b: float, xtol: float = 1e-8):
    """Standard golden-section minimization on [a, b]."""
    inv_phi = (np.sqrt(5) - 1) / 2
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
    x = (a + b) / 2
    return float(x), float(f(x))


def beta_system_bath(spec: AdiabaticSpec, h_b: np.ndarray) -> float:
    """Exact norm of H(s) (+ penalty) (x) I + I (x) H_B, maximized over 21
    evenly spaced s in [0, 1].

    Spectra of the two commuting summands add, so the norm is the largest
    |lambda_i + mu_j| over extreme eigenvalues.
    """
    mu = np.linalg.eigvalsh(h_b)
    mu_lo, mu_hi = float(mu[0]), float(mu[-1])
    best = 0.0
    for s in np.linspace(0.0, 1.0, 21):
        h = spec.interpolate(s)
        if spec.penalty is not None:
            h = h + spec.penalty
        require_hermitian(h, 1e-9, "system Hamiltonian")
        lam = np.linalg.eigvalsh(h)
        best = max(best, abs(float(lam[-1]) + mu_hi), abs(float(lam[0]) + mu_lo))
    return best


def universal_2local_preset(k: int) -> tuple[
    dict[tuple[int, str], float], dict[tuple[int, str], float],
    dict[tuple[int, int, str], float], dict[tuple[int, int, str], float],
]:
    """Fixed coefficients for the shipped `universal-2local` instance on k qubits.

    H0 is a uniform transverse field -sum_i X_i; H1 is a frustration-free
    Ising chain with site-dependent fields, chosen to have a unique ground
    state and an O(1) minimal gap at desk scale.
    """
    if k < 1:
        raise ValueError(f"preset needs at least one logical qubit, got {k}")
    h0_fields = {(i, "x"): -1.0 for i in range(k)}
    h1_fields = {(i, "z"): -(0.8 + 0.2 * (i % 3)) for i in range(k)}
    h0_pairs: dict[tuple[int, int, str], float] = {}
    h1_pairs = {(i, i + 1, "z"): -0.5 for i in range(k - 1)}
    return h0_fields, h1_fields, h0_pairs, h1_pairs
