"""Time-ordered propagation of the protected model and its reference twins.

Every generator here is piecewise affine, H(t) = P_k + f(t) Q: Q = H1 - H0
is shared, f is the interpolation schedule, and the piece P_k holds H0 with
the penalty, bath and coupling terms and, inside a finite pulse window, that
window's pulse generator.  Each step exponentiates a sixth-order Magnus
exponent, anti-Hermitian by construction, so every propagator is unitary to
roundoff.  For an affine generator that exponent and its embedded
eighth-order companion are real combinations of 23 nested commutators
formed once per piece, so a trial step costs one linear combination and one
product.  Their difference estimates the sixth-order step's local error and
drives a per-step size controller against a tolerance in the operator norm,
the norm the trace-distance bounds use
(||U rho U^dag - V rho V^dag||_1 <= 2 ||U - V||).  The generator carries
its whole pulse schedule: the times where it switches piece (a finite pulse
window's edges) and, in the ideal-pulse limit w = 0 where the pulses are
exact unitary kicks rather than narrow windows, the kicks.  No step crosses
a switch.  Every kick is a Pauli string P (x) I, so it is applied as P's
own signed permutation gathering the leading system axis of a
(2^n, d / 2^n) view of the propagator's rows, in O(d^2) rather than as a
dense product.  When every kick commutes bitwise with the generator (an
encoded run without coupling), the kicks are applied after the last step
and bound none; otherwise every kick ends a step, and a step clipped short
by a kick is accepted on a cheaper a-priori bound when that bound fits.

Three canonical runs share one integrator and one entry, :func:`run_protected`:
the coupled run under the full Hamiltonian, the uncoupled twin with the
system-bath term deleted but identical timing and pulses, and the closed
adiabatic run with no control and no bath at all, all from one initial
state.  Only the coupled run needs the joint system (x) bath space.
Without coupling the bath Hamiltonian commutes with everything else, so
the twin is propagated on the 2^n system space and lifted as
U_sys (x) exp(-i H_B T); at zero coupling the coupled run is the twin.  The
interaction frame U_F, generated by the non-control system Hamiltonian,
lives on the system space; the bath factor, taken once, rides along.  The
Hermitian logarithm of the residual propagator gives the error phase.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .pauli import PauliString, conjugate, signed_permutation
from .linalg import (
    dagger,
    expm_antihermitian,
    expm_hermitian,
    logm_unitary,
    op_norm,
    real_combination,
    require_hermitian,
)
# ``dense_terms`` stays bound here for callers that wrap it at this module
# (the benchmark tracer does); the engine itself reads the spec's cache.
from .model import AdiabaticSpec, SystemBathSpec, dense_terms  # noqa: F401
from .protocols import PulseSchedule, pulse_generator

# The four Gauss-Legendre nodes of one step, as offsets s in [-1/2, 1/2]
# from its midpoint, and the matrix taking f at the nodes to the monomial
# coefficients g0..g3 of the cubic through them (the inverse Vandermonde
# matrix; literals from tools/derive_magnus86.py, so no solve at import).
_GAUSS_NODES = tuple(
    sign * 0.5 * math.sqrt(3 / 7 + root * (2 / 7) * math.sqrt(6 / 5))
    for sign, root in ((-1, 1), (-1, -1), (1, -1), (1, 1))
)
_NODE_TO_CUBIC = (
    (-0.09232659844072882, 0.5923265984407288, 0.5923265984407288, -0.09232659844072882),
    (0.2144296952704798, -3.4844683820901876, 3.4844683820901876, -0.2144296952704798),
    (3.195048252113469, -3.195048252113469, -3.195048252113469, 3.195048252113469),
    (-7.420540068038946, 18.79544940755506, -18.79544940755506, 7.420540068038946),
)
# Lyndon words in X < Y of the 8(6) pair, each after X and Y with the stack
# indices (u, v) of its standard bracketing [u, v].
_COMMUTATOR_WORDS = (
    ("XY", 0, 1), ("XXY", 0, 2), ("XYY", 2, 1),
    ("XXXY", 0, 3), ("XXYY", 0, 4), ("XYYY", 4, 1),
    ("XXXXY", 0, 5), ("XXXYY", 0, 6), ("XXYXY", 3, 2),
    ("XXYYY", 0, 7), ("XYXYY", 2, 4), ("XYYYY", 7, 1),
    ("XXXXXY", 0, 8), ("XXXXYY", 0, 9), ("XXXYXY", 0, 10),
    ("XXXYYY", 0, 11), ("XXYXYY", 0, 12), ("XXYYXY", 6, 2),
    ("XXYYYY", 0, 13), ("XYXYYY", 2, 7), ("XYYYYY", 13, 1),
)
# the word length of each stack entry: its coefficient carries dt^length
_WORD_LENGTHS = np.array([1, 1, *(len(w) for w, _, _ in _COMMUTATOR_WORDS)])
# the stack entries XYY .. XYYYYY, the only ones Omega8 - Omega6 reads
_TAIL = slice(4, len(_WORD_LENGTHS))
# the largest share of a kick-clipped step's certificate left to the
# Frobenius residual beyond the last product-bounded tail
_ANCHOR_SHARE = 0.5

# The largest accepted tolerance.  Above it the summed error estimate can
# fall below the true propagator error: over 60 random affine runs over
# T = 2 (d = 2, 4 or 8, f = sin(omega t), omega <= 20) it did in 3 runs at
# tol 1e-2 and in 1 at 3e-3 (by 25x), and in none at 1e-3 or 1e-4.
MAX_TOLERANCE = 1e-3

# The cap on the trial steps of one propagation, accepted and rejected together.
MAX_STEPS = 400_000

BATH_STATES = ("maximally-mixed", "ground")


class StepLimitError(RuntimeError):
    """The adaptive integrator hit its step cap before converging."""


class DegenerateGroundStateError(ValueError):
    """The ground level is degenerate within tolerance."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and guards for the adaptive propagator.

    ``tol`` is the total propagator error budget in the operator norm,
    distributed over steps proportionally to their length: a step of
    length dt is accepted once its error value is within tol * dt / T.
    ``tol`` above :data:`MAX_TOLERANCE` is refused, since the error
    estimate is not trustworthy there.
    """

    tol: float = 1e-10

    def __post_init__(self):
        if not self.tol > 0:  # also refuses NaN
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.tol > MAX_TOLERANCE:
            raise ValueError(
                f"tolerance {self.tol:g} exceeds {MAX_TOLERANCE:g}, above which the "
                "integrator's error estimate can undershoot the true error"
            )


@dataclass(frozen=True)
class AffineGenerator:
    """Piecewise-affine Hermitian generator H(t) = pieces[k] + f(t) q, with
    its pulse schedule.

    ``switches`` are (time, k) pairs with increasing times: H uses piece 0
    until the first time, then each pair's piece k from its time on
    (:func:`piece_index`).  ``kicks`` are (time, pulse) pairs: a Pauli-string
    pulse P on n qubits acts instantaneously as P (x) I, the identity
    filling the trailing d / 2^n of the dimension, once evolution reaches
    that time, in list order for coinciding times.  Switch times that do
    not increase, or a switch to a piece outside ``pieces``, raise
    ``ValueError``.  Each piece and ``q`` are checked Hermitian within 1e-8
    once, here, and replaced by their Hermitian parts.
    """

    pieces: tuple[np.ndarray, ...]
    q: np.ndarray
    f: Callable[[float], float]
    switches: tuple[tuple[float, int], ...] = ()
    kicks: tuple[tuple[float, PauliString], ...] = ()

    def __post_init__(self):
        times = [t for t, _ in self.switches]
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError(f"switch times {times} do not increase")
        for t, k in self.switches:
            if not 0 <= k < len(self.pieces):
                raise ValueError(f"switch at t={t} to piece {k} outside the "
                                 f"{len(self.pieces)} pieces")
        parts = []
        for k, a in enumerate((*self.pieces, self.q)):
            if a.shape != self.q.shape:
                raise ValueError(f"piece shape {a.shape} differs from q's {self.q.shape}")
            what = "generator q" if k == len(self.pieces) else f"generator piece {k}"
            require_hermitian(a, 1e-8, what)
            parts.append(0.5 * (a + a.conj().T))
        object.__setattr__(self, "pieces", tuple(parts[:-1]))
        object.__setattr__(self, "q", parts[-1])


def piece_index(h_of_t: AffineGenerator, t: float) -> int:
    """The index of the piece ``h_of_t`` uses at time t: that of the last
    switch at or before t, or 0 before the first."""
    i = bisect.bisect_right(h_of_t.switches, t, key=lambda switch: switch[0])
    return h_of_t.switches[i - 1][1] if i else 0


@dataclass
class RunArtifacts:
    """One propagated run: its joint propagator, final state and error phase
    (:func:`metrics.error_report` takes the marginals).

    ``diagnostics`` holds the statistics of :func:`propagate_with_stats`
    (``steps``, ``rejected``, ``segments``, ``floored``, ``error_estimate``)
    plus ``total_time``; the report files do not read it.
    ``error_estimate`` is the summed estimate of the sixth-order steps'
    local errors in the operator norm, an estimate of ||U - U_exact||.
    """

    u_total: np.ndarray
    rho_final: np.ndarray
    phi: float
    diagnostics: dict = field(default_factory=dict)


@dataclass
class ClosedRun:
    """Closed-system adiabatic run: initial state (the s = 0 ground state),
    final state, its ``target`` (the s = 1 ground state, the error report's
    one reference state), their distance and the run's
    :func:`propagate_with_stats` statistics plus ``total_time`` (the report
    reads only that)."""

    psi_initial: np.ndarray
    psi_final: np.ndarray
    target: np.ndarray
    delta_ad: float
    diagnostics: dict = field(default_factory=dict)


def propagate_with_stats(
    h_of_t: AffineGenerator,
    total_time: float,
    cfg: IntegratorConfig | None = None,
) -> tuple[np.ndarray, dict]:
    """Time-ordered propagator of a piecewise-affine Hermitian generator,
    and the integrator statistics.

    The switch times of ``h_of_t.switches`` are edges: integration steps
    are aligned so no step straddles one, and each segment between edges
    takes the piece :func:`piece_index` gives its start; a switch to the
    piece already in use only clips steps.  The kicks of ``h_of_t.kicks``
    act as :class:`AffineGenerator` describes; each distinct pulse's
    :func:`~aqc_shield.pauli.signed_permutation` (perm, phase) is taken
    once; with u's rows viewed as (2^n, d / 2^n), ``phase[:, None] *
    u_view[perm]`` equals ``(P (x) I) @ u``.  A pulse whose 2^n does not
    divide d, or a total time that is negative, infinite or NaN, raises
    ``ValueError`` before the first step.  Each distinct pulse is then
    checked once against every piece and q: it commutes when its
    :func:`~aqc_shield.pauli.conjugate` equals the matrix bitwise.  If every
    pulse commutes with the generator, it commutes with every step's
    propagator, so the kicks bound no step and are applied in time order
    after the last one.  Otherwise every kick time is an edge, and the
    kicks are applied as evolution reaches them.  The generator is read
    through its fields only.

    Each trial step forms the sixth-order Magnus exponent Omega6 and its
    embedded eighth-order companion Omega8 on the four Gauss-Legendre nodes
    (Blanes, Casas & Ros, BIT 40, 434 (2000)).  With H(t) = P + f(t) Q both
    are real combinations (:func:`_magnus86_rows`) of 23 commutators of
    X = -iP and Y = -iQ, formed once per piece (:func:`_commutator_stack`),
    so a trial costs one linear combination
    (:func:`~.linalg.real_combination`) and one product.  Omega6 is
    propagated; err >= ||Omega8 - Omega6||_2, of order dt^7, estimates its
    local error in the operator norm, since ||e^A - e^B|| <= ||A - B|| for
    anti-Hermitian A and B and Omega8 is two orders closer to the exact
    exponent.  A trial of length dt is accepted when err is within
    tol * dt / T (at least 64 eps) and then costs one exponential,
    :func:`~.linalg.expm_antihermitian` of Omega6 as it is, unchecked: it is
    a real combination of stack entries that are anti-Hermitian by
    construction.  The next step size follows err ~ dt^7 against that share
    ~ dt, the exponent 1/6.  The step size is carried across segments and
    clipped to each edge.

    A step that a kick clips short of the current step size is first tried
    on an a-priori certificate that costs no d-sized product: the last
    product-bounded tail at a kick edge of the same piece is its anchor,
    and the certificate is the anchor's bound scaled to this step's
    projection on it plus the Frobenius norm of the remainder, from the
    Gram matrix of the 19 stack entries Omega8 - Omega6 reads, formed once
    per piece (:func:`_tail_gram`, :func:`_anchored_certificate`).  It is
    at least the operator norm.  If the remainder is within
    :data:`_ANCHOR_SHARE` of the anchored part and the certificate fits
    the share, it is the step's err, Omega6 is formed from its 8 entries
    alone, and the step size is left as it was.  Otherwise the step takes
    the path above, and its tail becomes the anchor.

    ``steps`` counts the exponentials taken, one per accepted step, and
    ``rejected`` the trials retried at a smaller size, which take no
    exponential; :data:`MAX_STEPS` caps both together.  ``segments``
    counts the integrated segments.  ``floored`` counts the accepted steps
    whose share tol * dt / T fell below the 64-eps floor and was raised to
    it.  ``error_estimate`` sums err over the accepted steps, the
    certificate where it accepted the step and the product bound
    elsewhere, so it is at most ``cfg.tol`` when ``floored`` is 0; it
    estimates the propagator's operator-norm error, and it is not a strict
    bound.
    """
    cfg = cfg or IntegratorConfig()
    if not 0 <= total_time < math.inf:  # also refuses NaN
        raise ValueError(f"total time must be finite and nonnegative, got {total_time}")
    dim = h_of_t.q.shape[0]
    stats = {"steps": 0, "rejected": 0, "segments": 0, "floored": 0, "error_estimate": 0.0}
    u = np.eye(dim, dtype=complex)
    if total_time == 0:
        return u, stats
    gathers: dict[PauliString, tuple[np.ndarray, np.ndarray]] = {}
    kicks_at: dict[float, list[tuple[np.ndarray, np.ndarray]]] = {}
    for kt, pulse in h_of_t.kicks:
        if 0.0 <= kt <= total_time:
            if pulse not in gathers:
                if dim % (1 << pulse.n):
                    raise ValueError(
                        f"pulse {pulse} on {pulse.n} qubits does not divide dimension {dim}"
                    )
                gathers[pulse] = signed_permutation(pulse)
            kicks_at.setdefault(kt, []).append(gathers[pulse])
    # kicks that commute with the generator bound no step: applied after the last
    deferred = all(np.array_equal(conjugate(pulse, a), a)
                   for pulse in gathers for a in (*h_of_t.pieces, h_of_t.q))
    at_edges, after = ({}, kicks_at) if deferred else (kicks_at, {})
    edges = {0.0, total_time, *at_edges}
    edges.update(t for t, _ in h_of_t.switches if 0.0 < t < total_time)
    ordered = sorted(edges)
    floor = 64 * np.finfo(float).eps
    stacks: dict[int, np.ndarray] = {}
    grams: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    anchors: dict[int, tuple[np.ndarray, np.ndarray, float] | None] = {}

    u = _apply_kicks(u, at_edges.get(0.0, ()))
    dt = ordered[1]
    for a, b in zip(ordered[:-1], ordered[1:]):
        piece = piece_index(h_of_t, a)
        if piece not in stacks:
            stacks[piece] = _commutator_stack(h_of_t.pieces[piece], h_of_t.q)
        stack = stacks[piece]
        t = a
        while b - t > 1e-15 * max(1.0, total_time):
            if stats["steps"] + stats["rejected"] >= MAX_STEPS:
                raise StepLimitError(
                    f"step at t={t:g} of segment [{a:g}, {b:g}] needs more than "
                    f"{MAX_STEPS} trial steps to reach tolerance {cfg.tol:.2e}"
                )
            step = min(dt, b - t)
            share = cfg.tol * step / total_time
            allowed = max(share, floor)
            rows = _magnus86_rows(h_of_t.f, t, step)
            r = rows[1, _TAIL]
            anchor = anchors.get(piece) if step < dt and b in at_edges else None
            err = math.inf if anchor is None else _anchored_certificate(r, *grams[piece], *anchor)
            certified = err <= allowed
            if certified:
                omega6 = real_combination(rows[0, :8], stack[:8])
            else:
                omega6, tail = real_combination(rows, stack)
                err = _hermitian_norm_bound(tail)
                if b in at_edges:
                    if piece not in grams:
                        grams[piece] = _tail_gram(stack)
                    anchors[piece] = _anchor(r, grams[piece][0], err)
            if err <= allowed:
                u = expm_antihermitian(omega6) @ u
                stats["steps"] += 1
                if share < floor:
                    stats["floored"] += 1
                stats["error_estimate"] += err
                t = b if step == b - t else t + step
            else:
                stats["rejected"] += 1
            if not certified:
                factor = 0.9 * (allowed / err) ** (1 / 6) if err > 0 else 5.0
                dt = step * min(5.0, max(0.2, factor))
        if t > a:
            stats["segments"] += 1
        u = _apply_kicks(u, at_edges.get(b, ()))
    for kt in sorted(after):
        u = _apply_kicks(u, after[kt])
    return u, stats


def _apply_kicks(u: np.ndarray, gathers) -> np.ndarray:
    """``u`` after each (perm, phase) kick in turn, as P (x) I on its rows."""
    dim = u.shape[0]
    for perm, phase in gathers:
        u = (phase[:, None] * u.reshape(perm.size, -1)[perm]).reshape(dim, dim)
    return u


def _commutator_stack(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """X, Y and the 21 commutators of :data:`_COMMUTATOR_WORDS` for X = -iP
    and Y = -iQ, in one (23, d, d) array: 21 products, written in place.

    These are the Lyndon-basis commutators of degree <= 6 that the 8(6)
    pair reads from A(t) = X + f(t) Y.  Every entry is exactly
    anti-Hermitian: P and Q are exactly Hermitian (the generator holds
    Hermitian parts), and each commutator is formed as ab - (ab)^dag.
    """
    d = q.shape[0]
    stack = np.empty((2 + len(_COMMUTATOR_WORDS), d, d), dtype=complex)
    np.multiply(p, -1j, out=stack[0])
    np.multiply(q, -1j, out=stack[1])
    for row, (_, u, v) in enumerate(_COMMUTATOR_WORDS, start=2):
        # [a, b] for anti-Hermitian a and b, where ba = (ab)^dag: one product
        ab = stack[u] @ stack[v]
        np.subtract(ab, ab.conj().T, out=stack[row])
    return stack


def _magnus86_rows(f, t0, dt) -> np.ndarray:
    """The (2, 23) real weights of Omega6 and Omega8 - Omega6 on the stack
    entries, for one trial over [t0, t0 + dt].

    With g0..g3 the monomial coefficients of the cubic through f at the
    four Gauss-Legendre nodes (s in [-1/2, 1/2] around the midpoint), both
    are fixed polynomials in g0..g3 times dt^length on each Lyndon word;
    the even orders vanish.  Omega6 reads entries 0..7 only, Omega8 - Omega6
    entries 4..22 (:data:`_TAIL`).  ``tools/derive_magnus86.py`` derives
    every coefficient below.
    """
    f0, f1, f2, f3 = [f(t0 + (0.5 + s) * dt) for s in _GAUSS_NODES]
    g0, g1, g2, g3 = [m0 * f0 + m1 * f1 + m2 * f2 + m3 * f3 for m0, m1, m2, m3 in _NODE_TO_CUBIC]
    g00, g11 = g0 * g0, g1 * g1
    rows = np.zeros((2, len(_WORD_LENGTHS)))
    # Omega6 on X, Y, XY, XXY, XYY, XXXY, XXYY, XYYY
    rows[0, :8] = (1.0, g0 + g2 / 12, -g1 / 12 - g3 / 80, g2 / 360,
                   g11 / 240 - g0 * g2 / 360, g1 / 720, -g0 * g1 / 360, g00 * g1 / 720)
    # Omega8 - Omega6 on XYY .. XYYYYY
    rows[1, _TAIL] = (
        g1 * g3 / 840 - g2 * g2 / 6048,
        g3 / 6720,
        -g0 * g3 / 3360 - 13 * g1 * g2 / 30240,
        g00 * g3 / 6720 + 13 * g0 * g1 * g2 / 30240 - g11 * g1 / 6720,
        -g2 / 15120,
        g0 * g2 / 5040 - g11 / 10080,
        g11 / 7560 - g0 * g2 / 15120,
        g0 * g11 / 5040 - g00 * g2 / 5040,
        g0 * g11 / 4320 - g00 * g2 / 7560,
        g00 * g0 * g2 / 15120 - g00 * g11 / 10080,
        -g1 / 30240,
        g0 * g1 / 7560,
        -g0 * g1 / 10080,
        -g00 * g1 / 5040,
        -g00 * g1 / 7560,
        g00 * g1 / 6048,
        g00 * g0 * g1 / 7560,
        g00 * g0 * g1 / 6048,
        -g00 * g00 * g1 / 30240,
    )
    rows *= dt ** _WORD_LENGTHS
    return rows


def _tail_gram(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G, slack) for the stack entries S_i that Omega8 - Omega6 reads,
    formed once per piece: G[i, j] = Re tr(S_i^dag S_j), and slack[i] =
    ||S_i||_F sqrt((2 d^2 + 64) eps), which bounds the rounding of
    :func:`_gram_certificate`."""
    d = stack.shape[-1]
    entries = stack[_TAIL]
    entries = entries.reshape(len(entries), -1).view(float)
    gram = entries @ entries.T
    return gram, np.sqrt(np.diag(gram) * ((2 * d * d + 64) * np.finfo(float).eps))


def _gram_certificate(r: np.ndarray, gram: np.ndarray, slack: np.ndarray) -> float:
    """An upper bound on ||sum_i r_i S_i||_F, and so on its operator norm,
    from :func:`_tail_gram`: sqrt(r^T G r + (|r|^T slack)^2).

    ||sum_i r_i S_i||_F^2 = r^T G r for real r.  Rounding in G and in the
    quadratic form moves it by at most (2 d^2 + 64) eps (sum_i |r_i|
    ||S_i||_F)^2, the second term, so cancellation cannot take the value
    below the true norm.
    """
    rounding = float(np.abs(r) @ slack)
    return math.sqrt(max(float(r @ gram @ r), 0.0) + rounding * rounding)


def _anchor(r: np.ndarray, gram: np.ndarray, bound: float):
    """(r, G r / r^T G r, bound) for :func:`_anchored_certificate`, from a
    tail sum_i r_i S_i whose operator norm ``bound`` bounds, or None for a
    zero tail, which explains no other."""
    gr = gram @ r
    norm2 = float(r @ gr)
    return (r, gr / norm2, bound) if norm2 > 0 else None


def _anchored_certificate(r, gram, slack, anchor_r, anchor_w, anchor_bound) -> float:
    """An upper bound on ||sum_i r_i S_i||_2 from the last product-bounded
    tail (:func:`_anchor`), or inf when that tail explains too little of it.

    With alpha = r^T G r_a / r_a^T G r_a, the G-projection of r on the
    anchor's r_a, sum_i r_i S_i = alpha A_a + sum_i (r - alpha r_a)_i S_i,
    so its norm is at most |alpha| times the anchor's bound plus the
    residual's Frobenius norm (:func:`_gram_certificate`).  The residual
    alone would carry the Frobenius norm's looseness, which grows as
    sqrt(d) for a tail lifted by (x) I; it is accepted only while it is at
    most :data:`_ANCHOR_SHARE` of the anchored part, so the bound stays
    within a fixed factor of the product bound.
    """
    alpha = float(r @ anchor_w)
    anchored = abs(alpha) * anchor_bound
    residual = _gram_certificate(r - alpha * anchor_r, gram, slack)
    return anchored + residual if residual <= _ANCHOR_SHARE * anchored else math.inf


def _hermitian_norm_bound(x: np.ndarray) -> float:
    """sqrt(||x^2||_1), an upper bound on ||x||_2 for Hermitian or
    anti-Hermitian x.

    ||x||_2^2 = ||x^2||_2 <= ||x^2||_1, the largest column sum.  It costs
    one product, and it is exactly invariant under a lift x -> x (x) I:
    (x (x) I)^2 = x^2 (x) I has the same column sums.
    """
    return math.sqrt(float(np.abs(x @ x).sum(axis=0).max()))


def instantaneous_ground_state(spec: AdiabaticSpec, s: float) -> np.ndarray:
    """Ground state of H(s), inside the code space when the spec is encoded.

    A ground level split by less than 1e-12 is refused as degenerate.  The
    phase is fixed by making the largest-magnitude amplitude real and
    positive, so repeated calls are deterministic.
    """
    vec = _ground_vector(spec.interpolate(s, *spec.code_pair), f"at s={s}")
    basis = spec.code_basis
    psi = vec if basis is None else basis @ vec
    idx = int(np.argmax(np.abs(psi)))
    psi = psi * np.exp(-1j * np.angle(psi[idx]))
    return psi


def _ground_vector(h: np.ndarray, where: str) -> np.ndarray:
    """Lowest eigenvector of Hermitian ``h``; a ground level split by less
    than 1e-12 raises :class:`DegenerateGroundStateError`."""
    evals, vecs = np.linalg.eigh(h)
    if len(evals) > 1 and evals[1] - evals[0] < 1e-12:
        raise DegenerateGroundStateError(
            f"ground level degenerate {where} (splitting {evals[1] - evals[0]:.2e})"
        )
    return vecs[:, 0]


def run_closed_adiabatic(spec: AdiabaticSpec, total_time: float,
                         cfg: IntegratorConfig | None = None) -> ClosedRun:
    """Closed-system interpolation of the spec over ``total_time`` T, the
    pulse schedule's T in a protected experiment.

    Starts in the (code-space) ground state of H(0); the returned distance
    is the trace distance between the final state and the instantaneous
    ground state at s = 1, which for pure states is sqrt(1 - overlap^2).
    An encoded H(s) commutes with the stabilizers, so the run is propagated
    on the code space (``spec.code_pair``) and its final state lifted once
    by the code basis V; an initial state that V V^dag moves by more than
    1e-10 (V no isometry) raises ``ValueError`` before the propagation.
    """
    h0, h1 = spec.code_pair
    generator = AffineGenerator((h0,), h1 - h0, _schedule_fraction(spec, total_time))
    v = spec.code_basis
    psi0 = instantaneous_ground_state(spec, 0.0)
    c0 = psi0 if v is None else v.conj().T @ psi0
    if v is not None and np.linalg.norm(v @ c0 - psi0) > 1e-10:
        raise ValueError("initial state fell outside the code space")
    u, stats = propagate_with_stats(generator, total_time, cfg)
    psi = u @ c0 if v is None else v @ (u @ c0)
    target = instantaneous_ground_state(spec, 1.0)
    # For unit vectors the trace distance is sqrt(1 - |<target|psi>|^2),
    # i.e. the norm of the component of psi orthogonal to the target;
    # computing that component directly avoids cancellation near zero.
    residual = psi - target * np.vdot(target, psi)
    stats["total_time"] = total_time
    return ClosedRun(psi0, psi, target, float(np.linalg.norm(residual)), stats)


def protected_hamiltonian(
    spec: AdiabaticSpec,
    bath: SystemBathSpec,
    schedule: PulseSchedule,
    include_coupling: bool = True,
) -> AffineGenerator:
    """H(t) of one protected run variant.

    With ``include_coupling`` this is the joint H_sys(t) (x) I + I (x) H_B
    + H_SB on system (x) bath, even when H_SB is zero.  Without it (the
    uncoupled twin) it is H_sys(t) alone on the 2^n system space; the
    commuting bath factor exp(-i H_B T) is applied by the caller.
    """
    return _timed_hamiltonian(spec, schedule, True, bath if include_coupling else None)


def _schedule_fraction(spec: AdiabaticSpec, total: float) -> Callable[[float], float]:
    """t -> f(t / T), the interpolation weight of H1 - H0, clamped to [0, 1]."""
    return lambda t: spec.schedule(min(max(t / total, 0.0), 1.0))


def _timed_hamiltonian(
    spec: AdiabaticSpec,
    schedule: PulseSchedule,
    include_control: bool,
    bath: SystemBathSpec | None = None,
) -> AffineGenerator:
    """H_sys(t) on 2^n: the interpolation, the spec's (gated) penalty and, with
    ``include_control``, the pulse generators.  With ``bath`` every term is
    lifted once and the bath and coupling terms are added: the joint H(t).

    Piece 0 holds the free evolution; with finite-width windows that change
    the Hamiltonian, piece 1 + (slot mod the number of windows) holds the
    window of a slot: its pulse generator and the penalty unless gated off.
    Slot k switches to its window piece at k tau_s + tau and back to piece 0
    at (k + 1) tau_s, tau_s = tau + w the slot time; with ideal pulses and
    ``include_control``, slot k's pulse kicks at (k + 1) tau_s instead.
    """
    total = schedule.total_time
    if bath is None:
        lift, constants = (lambda a: a), ()
    else:
        lift = lambda a: np.kron(a, np.eye(bath.bath_dim))  # noqa: E731
        constants = (np.kron(np.eye(1 << spec.n), bath.h_b), bath.h_sb)
    base = lift(spec.H0)
    for term in constants:
        base = base + term
    free = base if spec.penalty is None else base + lift(spec.penalty)
    window = free if spec.penalty_during_pulse else base
    windows = []
    if schedule.w > 0 and include_control:
        windows = [window + lift(pulse_generator(p, schedule.w)) for p in schedule.pulses]
    elif schedule.w > 0 and window is not free:
        windows = [window]
    switches, kicks = [], []
    for k in range(schedule.total_pulses):
        end = (k + 1) * schedule.slot_time
        if windows:
            switches += [(k * schedule.slot_time + schedule.tau, 1 + k % len(windows)), (end, 0)]
        elif include_control:  # ideal pulses
            kicks.append((end, schedule.pulses[k % schedule.order]))
    return AffineGenerator((free, *windows), lift(spec.H1 - spec.H0),
                           _schedule_fraction(spec, total), tuple(switches), tuple(kicks))


def frame_unitary(
    spec: AdiabaticSpec,
    schedule: PulseSchedule,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """U_F on the 2^n system space, generated by the non-control Hamiltonian.

    The frame is generated by the adiabatic (plus penalty) part; on the joint
    space the bath's own factor rides along, (U_F (x) U_B)^dag U_total, which
    contains the control and whatever the coupling did.
    """
    h = _timed_hamiltonian(spec, schedule, False)
    return propagate_with_stats(h, schedule.total_time, cfg)[0]


def effective_hamiltonian(u_interaction: np.ndarray, total_time: float) -> tuple[np.ndarray, float]:
    """(H_eff, Phi) from the interaction-frame propagator.

    The global phase is first canonicalized by dividing out the phase of
    the trace (when |trace| exceeds 1e-8), so the error phase
    Phi = T ||H_eff|| is gauge independent.
    """
    if not 0 < total_time < math.inf:  # also refuses NaN
        raise ValueError(f"total time must be positive and finite, got {total_time}")
    tr = complex(np.trace(u_interaction))
    u = u_interaction
    if abs(tr) > 1e-8:
        u = u * (tr.conjugate() / abs(tr))
    h_log = logm_unitary(u)
    return h_log / total_time, float(op_norm(h_log))


def _bath_initial_state(bath: SystemBathSpec, kind: str) -> np.ndarray:
    if kind == "maximally-mixed":
        return np.eye(bath.bath_dim, dtype=complex) / bath.bath_dim
    if kind == "ground":
        v = _ground_vector(bath.h_b, "of the bath Hamiltonian")
        return np.outer(v, v.conj())
    raise ValueError(f"unknown bath state {kind!r}; choose from {BATH_STATES}")


def run_protected(
    spec: AdiabaticSpec,
    bath: SystemBathSpec,
    schedule: PulseSchedule,
    bath_state: str = "maximally-mixed",
    cfg: IntegratorConfig | None = None,
) -> tuple[RunArtifacts, RunArtifacts, ClosedRun]:
    """Coupled run, uncoupled twin and closed run (:func:`run_closed_adiabatic`).

    The closed run goes first, over the schedule's T; the others start from
    its initial state (x) the bath initial state under identical timing and
    pulses, and the twin lacks only the system-bath term.  Each carries the
    error phase of its interaction-frame effective Hamiltonian.  A
    ``"ground"`` bath state whose H_B ground level is degenerate raises
    :class:`DegenerateGroundStateError` before any propagation.
    """
    cfg = cfg or IntegratorConfig()
    n = spec.n
    if schedule.group.n != n:
        raise ValueError(f"schedule acts on {schedule.group.n} qubits, model on {n}")
    if bath.n != n:
        raise ValueError(f"bath spec is for {bath.n} system qubits, model has {n}")
    total = schedule.total_time
    rho_b0 = _bath_initial_state(bath, bath_state)
    closed = run_closed_adiabatic(spec, total, cfg)
    rho0 = np.kron(np.outer(closed.psi_initial, closed.psi_initial.conj()), rho_b0)

    u_f, u_b = frame_unitary(spec, schedule, cfg), expm_hermitian(bath.h_b, total)

    def artifacts(u_total: np.ndarray, u_interaction: np.ndarray, stats: dict) -> RunArtifacts:
        rho_final = u_total @ rho0 @ u_total.conj().T
        _, phi = effective_hamiltonian(u_interaction, total)
        stats["total_time"] = total
        return RunArtifacts(u_total, rho_final, phi, diagnostics=stats)

    # H_sys(t) (x) I + I (x) H_B has commuting parts, so the twin is U_sys (x)
    # U_B, propagated at 2^n, and its Phi is U_F^dag U_sys's: log(A (x) I) =
    # log(A) (x) I has the same norm and trace phase.
    h_sys = protected_hamiltonian(spec, bath, schedule, include_coupling=False)
    u_sys, stats = propagate_with_stats(h_sys, total, cfg)
    twin = artifacts(np.kron(u_sys, u_b), dagger(u_f) @ u_sys, stats)
    if not np.any(bath.h_sb):
        # Zero coupling: the coupled run is the twin; it propagated nothing.
        coupled_stats = dict(stats, steps=0, rejected=0, segments=0, floored=0)
        return replace(twin, diagnostics=coupled_stats), twin, closed
    h = protected_hamiltonian(spec, bath, schedule, include_coupling=True)
    u_total, stats = propagate_with_stats(h, total, cfg)
    return artifacts(u_total, dagger(np.kron(u_f, u_b)) @ u_total, stats), twin, closed
