"""Pulse scheduling for periodic dynamical decoupling.

A PDD schedule fires one pulse per slot of length tau + w: the slot is free
for tau, then the pulse generator is on for the final w.  Slot k of each
cycle implements the unitary P_k fixed by the group through
G_k = P_{K-1} ... P_{k+1} P_k with G_0 = I, i.e. P_k = G_{k+1}^dag G_k and
P_{K-1} = G_{K-1}.  The product over a full cycle telescopes to the
identity exactly, so complete cycles leave no net control action.

The control Hamiltonian H_C(t) is the slot's :func:`pulse_generator`
inside its window and zero elsewhere, so H_C(t + T_c) = H_C(t) for the
cycle time T_c.  The propagation layer adds it to the system Hamiltonian as
the window pieces of its generator (``engine.protected_hamiltonian``);
:func:`slot_index` tells a window from free evolution.  w = 0 is the
ideal-pulse limit: H_C vanishes and the pulses act as instantaneous unitary
kicks at slot ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, pauli_mul, to_dense
from .codes import DecouplingGroup


@dataclass(frozen=True)
class PulseSchedule:
    """Timing and per-slot pulses of a periodic decoupling sequence."""

    group: DecouplingGroup
    tau: float
    w: float
    cycles: int
    pulses: tuple[PauliString, ...]

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def total_pulses(self) -> int:
        return self.order * self.cycles

    @property
    def slot_time(self) -> float:
        return self.tau + self.w

    @property
    def cycle_time(self) -> float:
        return self.order * self.slot_time

    @property
    def total_time(self) -> float:
        return self.total_pulses * self.slot_time


def pdd_schedule(
    group: DecouplingGroup,
    tau: float,
    w: float,
    cycles: int,
) -> PulseSchedule:
    """Periodic schedule cycling once through the group every K slots."""
    if tau <= 0:
        raise ValueError(f"pulse interval tau must be positive, got {tau}")
    if w < 0:
        raise ValueError(f"pulse width w must be nonnegative, got {w}")
    if w >= tau:
        raise ValueError(
            f"pulse width w={w} >= interval tau={tau}: pulses would dominate the "
            "slot, which defeats the free-evolution bookkeeping"
        )
    if cycles < 1:
        raise ValueError(f"need at least one complete cycle, got {cycles}")
    elements = group.elements
    k_order = len(elements)
    pulses = []
    for k in range(k_order - 1):
        pulses.append(pauli_mul(elements[k + 1].dagger(), elements[k]))
    pulses.append(elements[k_order - 1])
    for p in pulses:
        if p.phase not in (1, -1):
            raise ValueError(
                f"pulse {p} is not an involution (phase {p.phase}); the group "
                "ordering does not yield realizable pi pulses"
            )
    return PulseSchedule(
        group=group,
        tau=tau,
        w=w,
        cycles=cycles,
        pulses=tuple(pulses),
    )


def pulse_generator(p: PauliString, w: float) -> np.ndarray:
    """Hermitian generator H with exp(-i w H) equal to the pulse exactly.

    The construction H = (pi / 2w)(I - P) needs P to be a unitary
    involution, i.e. a Pauli string with real phase.  Its spectrum is
    {0, pi/w}, so non-identity pulses cost operator norm pi/w.
    """
    if w <= 0:
        raise ValueError(f"pulse width must be positive, got {w}")
    if p.phase not in (1, -1):
        raise ValueError(f"pulse {p} is not an involution (phase {p.phase})")
    dim = 1 << p.n
    return (math.pi / (2 * w)) * (np.eye(dim) - to_dense(p))


def slot_index(schedule: PulseSchedule, t: float) -> tuple[int, bool]:
    """(slot, inside_pulse_window) for a time in [0, T].

    The window occupies the last w of each slot, half-open on the right,
    so slot boundaries and t = T report as free evolution.
    """
    total = schedule.total_time
    if not 0.0 <= t <= total * (1 + 1e-12):
        raise ValueError(f"t = {t} outside [0, {total}]")
    slot = min(int(t / schedule.slot_time), schedule.total_pulses - 1)
    local = t - slot * schedule.slot_time
    return slot, schedule.w > 0 and local >= schedule.tau and t < total


@dataclass(frozen=True)
class ScalingRule:
    """Joint AQC-DD parameter scaling in the problem size.

    tau ~ n^-(zeta + eps1)/delta0 and w ~ n^-(2 zeta + eps1 + eps2)/J make
    every term of the worst-case error-phase budget vanish with n, provided
    eps1 > 1 and eps2 > 0.  ``zeta`` is the runtime exponent; when the
    dynamical critical exponent ``z`` is supplied it must be consistent
    with zeta through zeta = 3z + 2 or zeta = 2z + 1.
    """

    zeta: float
    epsilon1: float
    epsilon2: float
    delta0: float = 1.0
    j_coupling: float = 1.0
    z: float | None = None
    c_tau: float = 1.0
    c_w: float = 1.0

    def __post_init__(self):
        if self.epsilon1 <= 1:
            raise ValueError(f"epsilon1 must exceed 1, got {self.epsilon1}")
        if self.epsilon2 <= 0:
            raise ValueError(f"epsilon2 must be positive, got {self.epsilon2}")
        if self.delta0 <= 0 or self.j_coupling <= 0:
            raise ValueError("delta0 and j_coupling must be positive")
        if self.z is not None:
            expected = (3 * self.z + 2, 2 * self.z + 1)
            if not any(abs(self.zeta - e) < 1e-12 for e in expected):
                raise ValueError(
                    f"zeta={self.zeta} inconsistent with z={self.z}: "
                    f"expected 3z+2={expected[0]} or 2z+1={expected[1]}"
                )


def scaled_parameters(rule: ScalingRule, n: int, group_order: int) -> tuple[float, float, float, int]:
    """(tau, w, T, L) for problem size n.

    T = n^zeta / delta0 is the runtime target; L is T/(tau + w) rounded,
    then rounded up to a multiple of the group order so only complete
    cycles are scheduled.
    """
    if n < 2:
        raise ValueError(f"problem size must be at least 2, got {n}")
    tau = rule.c_tau * n ** (-(rule.zeta + rule.epsilon1)) / rule.delta0
    w = rule.c_w * n ** (-(2 * rule.zeta + rule.epsilon1 + rule.epsilon2)) / rule.j_coupling
    total_time = n ** rule.zeta / rule.delta0
    raw = max(1, round(total_time / (tau + w)))
    l_pulses = int(math.ceil(raw / group_order) * group_order)
    return tau, w, total_time, l_pulses
