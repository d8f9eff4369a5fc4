"""Distances, error phases, and every bound check.

All distances are trace distances D = (1/2)||rho1 - rho2||_1.  The four
run-level distances are:

* delta_S  -- reduced system state vs the ideal adiabatic system state,
* d_D      -- coupled vs uncoupled joint state (the decoupling distance),
* delta_ad -- closed-run final state vs instantaneous target,
* d_tot    -- coupled joint state vs the ideal adiabatic joint state.

The report takes every marginal it compares (the coupled run's system
marginal, the twin's bath marginal) and the error phase Phi from the
engine.  The ideal adiabatic system state is the closed run's target, the
state delta_ad is measured against; run identifiers come from the schedule.

Bound verdicts carry signed slack (bound minus measured value, plus the
numerical allowance); nonnegative slack means the bound held.

The ``eq5`` slack evaluates the paper's printed constant,
d_D <= (e^Phi - 1)/2, which is not a theorem under these definitions (Phi
is T||H_eff|| in the operator norm): a single qubit under
diag(e^{-i Phi}, e^{i Phi}) moves |+> by sin Phi, more than (e^Phi - 1)/2
for Phi <= 0.9; the sharp bound, for phases up to pi/2, is
d_D <= sin Phi_c + sin Phi_u.  A false ``verdict_eq5``, and the exit code 2
that follows from it, therefore does not by itself mean the run is wrong.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .engine import ClosedRun, RunArtifacts
from .linalg import partial_trace
from .protocols import PulseSchedule, ScalingRule

VERDICT_SLACK = 1e-9

CSV_COLUMNS = (
    "n", "J", "tau", "w", "K", "L", "T",
    "delta_ad", "d_D", "delta_S", "d_tot", "phi",
    "slack_eq3", "slack_eq5",
)
# Every float cell of the CSV outputs: 17 significant digits round-trip a float64.
CELL_FORMAT = "%.17g"

VERDICT_NAMES = ("monotonic", "triangle", "eq3", "eq5")


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two states."""
    if a.shape != b.shape:
        raise ValueError(f"state dimensions differ: {a.shape} vs {b.shape}")
    evals = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.sum(np.abs(evals)))


@dataclass(frozen=True)
class PhiBudget:
    """Worst-case error-phase budget of one pulse schedule, per term.

    With T, tau, w, T_c and L/K the schedule's total time, interval, pulse
    width, cycle time and cycle count:
    term1 = alpha (JT)^2 / (L/K): accumulated lowest-order Magnus residual;
    term2 = JTw/(tau+w): finite pulse width;
    term3 = JT ((exp(2 beta Tc) - 1)/(2 beta Tc) - 1): frame rotation over
    a cycle.  ``third_term_ok`` and ``magnus_convergent`` flag the bound's
    validity conditions (term3 <= JT and J Tc < pi).
    """

    term1: float
    term2: float
    term3: float
    total: float
    third_term_ok: bool
    magnus_convergent: bool


def phi_budget(schedule: PulseSchedule, j_coupling: float, beta: float,
               alpha: float = 1.0) -> PhiBudget:
    """Evaluate the three-term worst-case budget for the error phase of a run
    under ``schedule`` (which gives T, tau, w, K and L) at coupling strength
    J and system-bath norm ``beta``."""
    jt = j_coupling * schedule.total_time
    t_c = schedule.cycle_time
    term1 = alpha * jt * jt / schedule.cycles
    term2 = jt * schedule.w / schedule.slot_time
    x = 2 * beta * t_c
    term3 = jt * (np.expm1(x) / x - 1.0) if x > 0 else 0.0
    return PhiBudget(
        term1=float(term1),
        term2=float(term2),
        term3=float(term3),
        total=float(term1 + term2 + term3),
        third_term_ok=bool(term3 <= jt + 1e-15),
        magnus_convergent=bool(j_coupling * t_c < math.pi),
    )


def dd_error_prediction(rule: ScalingRule, n: int) -> tuple[float, float, float, float]:
    """Predicted decoupling-distance scaling (three terms and their sum).

    (J/delta0)^2 n^-eps1 + n^-eps2 + (J/delta0) n^(1-eps1); vanishes as n
    grows whenever eps1 > 1 and eps2 > 0.
    """
    if n < 2:
        raise ValueError(f"problem size must be at least 2, got {n}")
    ratio = rule.j_coupling / rule.delta0
    t1 = ratio * ratio * n ** (-rule.epsilon1)
    t2 = n ** (-rule.epsilon2)
    t3 = ratio * n ** (1 - rule.epsilon1)
    return float(t1), float(t2), float(t3), float(t1 + t2 + t3)


@dataclass
class ErrorReport:
    """Distances, error phase, bound slacks, and optional budget breakdowns."""

    schedule: PulseSchedule
    j_coupling: float
    delta_s: float
    d_d: float
    delta_ad: float
    d_tot: float
    phi: float
    slacks: dict[str, float]
    budget6: PhiBudget | None = None
    pred8: tuple[float, float, float, float] | None = None

    @property
    def verdicts(self) -> dict[str, bool]:
        return {name: self.slacks[name] >= 0.0 for name in VERDICT_NAMES}

    @property
    def all_bounds_hold(self) -> bool:
        return all(self.verdicts.values())

    def csv_values(self) -> tuple[float, ...]:
        p = self.schedule
        return (
            p.group.n, self.j_coupling, p.tau, p.w, p.order, p.total_pulses, p.total_time,
            self.delta_ad, self.d_d, self.delta_s, self.d_tot, self.phi,
            self.slacks["eq3"], self.slacks["eq5"],
        )

    def csv_row(self) -> str:
        return ",".join(format_number(v) for v in self.csv_values())

    def json_summary(self) -> str:
        data: dict = dict(zip(CSV_COLUMNS, self.csv_values()))
        for name, ok in self.verdicts.items():
            data[f"verdict_{name}"] = ok
        return json.dumps(data, sort_keys=True, indent=2)


def format_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return CELL_FORMAT % float(x)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def error_report(
    coupled: RunArtifacts,
    uncoupled: RunArtifacts,
    closed: ClosedRun,
    schedule: PulseSchedule,
    j_coupling: float,
    budget6: PhiBudget | None = None,
    pred8: tuple[float, float, float, float] | None = None,
) -> ErrorReport:
    """Assemble all distances and bound verdicts for one paired run.

    delta_S and d_tot are measured against ``closed.target``, as delta_ad
    is.  The ideal adiabatic joint state is that target tensored with the
    bath marginal of the uncoupled run; with complete pulse cycles and the
    non-interference condition this realizes the abstract ideal state
    without constructing the control factor explicitly.  A run whose
    ``diagnostics`` record a ``total_time`` other than the schedule's T
    (relative 1e-12) raises ``ValueError``.
    """
    if coupled.rho_final.shape != uncoupled.rho_final.shape:
        raise ValueError("coupled and uncoupled runs act on different joint spaces")
    total = schedule.total_time
    for t in (run.diagnostics.get("total_time") for run in (coupled, uncoupled, closed)):
        if t is not None and abs(t - total) > 1e-12 * max(1.0, abs(total)):
            raise ValueError(f"run timing mismatch: a run over T = {t}, the schedule's is {total}")
    ideal_system = np.outer(closed.target, closed.target.conj())
    dim_s = ideal_system.shape[0]
    # a remainder fails the partial traces' shape check
    dims = (dim_s, coupled.rho_final.shape[0] // dim_s)
    rho_s_final = partial_trace(coupled.rho_final, dims, (0,))
    rho_b_final = partial_trace(uncoupled.rho_final, dims, (1,))

    delta_s = trace_distance(rho_s_final, ideal_system)
    d_d = trace_distance(coupled.rho_final, uncoupled.rho_final)
    delta_ad = closed.delta_ad
    d_tot = trace_distance(coupled.rho_final, np.kron(ideal_system, rho_b_final))
    phi = coupled.phi

    eq5_bound = min(1.0, math.expm1(phi) / 2)
    slacks = {
        "monotonic": d_tot + VERDICT_SLACK - delta_s,
        "triangle": d_d + delta_ad + VERDICT_SLACK - d_tot,
        "eq3": d_d + delta_ad + VERDICT_SLACK - delta_s,
        "eq5": eq5_bound + VERDICT_SLACK - d_d,
    }
    return ErrorReport(
        schedule=schedule,
        j_coupling=j_coupling,
        delta_s=delta_s,
        d_d=d_d,
        delta_ad=delta_ad,
        d_tot=d_tot,
        phi=phi,
        slacks=slacks,
        budget6=budget6,
        pred8=pred8,
    )
