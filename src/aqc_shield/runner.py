"""Experiment orchestration: build models from configuration, run them,
persist deterministic CSV/JSON results, and drive parameter sweeps.

Exit-code contract for ``simulate``: 0 on success with all bound verdicts
passing, 2 when any bound verdict fails, 1 on execution errors.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import codes, engine, metrics, model, protocols
from .config import ConfigError, ExperimentConfig, SweepSpec, apply_override, parse_terms

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_FAILED = 2

SWEEP_COLUMNS = ("index", "status") + metrics.CSV_COLUMNS


@dataclass
class BuiltModel:
    """All concrete objects one experiment needs."""

    spec: model.AdiabaticSpec
    bath: model.SystemBathSpec
    schedule: protocols.PulseSchedule
    penalty: np.ndarray | None
    group: codes.DecouplingGroup
    scaling_rule: protocols.ScalingRule | None


@dataclass
class ExperimentResult:
    report: metrics.ErrorReport
    coupled: engine.RunArtifacts
    uncoupled: engine.RunArtifacts
    closed: engine.ClosedRun
    built: BuiltModel

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.report.all_bounds_hold else EXIT_BOUND_FAILED


def _group_for(preset: str, n: int) -> codes.DecouplingGroup:
    if preset == "universal":
        return codes.universal_group(n)
    if preset == "global-x":
        return codes.global_x_group(n)
    if preset == "none":
        return codes.trivial_group(n)
    raise ConfigError(f"unknown group preset {preset!r}")


def _logical_terms(cfg: ExperimentConfig, k: int):
    """(h0_terms, h1_terms) on k qubits from the preset or explicit lists."""
    m = cfg.model
    if m.preset == "universal-2local":
        h0f, h1f, h0p, h1p = model.universal_2local_preset(k)
        h0 = model.universal_aqc_terms(h0f, h0p, k)
        h1 = model.universal_aqc_terms(h1f, h1p, k)
        return h0, h1
    h0 = parse_terms(m.h0, k, "model.h0")
    h1 = parse_terms(m.h1, k, "model.h1")
    return h0, h1


def build_model(cfg: ExperimentConfig) -> BuiltModel:
    """Construct every object an experiment run needs from its config."""
    m, p, r = cfg.model, cfg.protocol, cfg.run
    n = m.n
    group = _group_for(p.group, n)

    code_basis = None
    if m.code:
        code, _ = codes.code_from_universal_group(n)
        code_basis = code.basis_matrix()
        k = n - 2
    else:
        k = n
    h0, h1 = _logical_terms(cfg, k)
    if m.code:
        h0 = codes.encode_hamiltonian(h0, n)
        h1 = codes.encode_hamiltonian(h1, n)

    scaling_rule = None
    if p.uses_scaling_rule:
        scaling_rule = protocols.ScalingRule(
            zeta=p.zeta,
            epsilon1=p.epsilon1,
            epsilon2=p.epsilon2,
            delta0=m.delta0,
            j_coupling=m.j,
            z=p.z,
            c_tau=p.c_tau,
            c_w=p.c_w,
        )
        tau, w, _, l_pulses = protocols.scaled_parameters(scaling_rule, n, group.order)
        cycles = l_pulses // group.order
    else:
        tau = p.tau
        w = p.w if p.w is not None else 0.0
        if p.cycles is not None:
            cycles = p.cycles
        else:
            cycles = max(1, round(p.total_time / (group.order * (tau + w))))
    cycles *= r.r
    schedule = protocols.pdd_schedule(group, tau, w, cycles, j_coupling=m.j)

    spec = model.AdiabaticSpec(
        n=n,
        h0_terms=h0,
        h1_terms=h1,
        schedule=model.Schedule(m.schedule),
        total_time=schedule.total_time,
        delta0=m.delta0,
        code_basis=code_basis,
    )
    bath = model.linear_decoherence(n, m.n_b, m.j, m.seed, beta_b=m.beta_b)
    penalty = None
    if m.e_p > 0:
        penalty = codes.penalty_hamiltonian(group, m.e_p)
    return BuiltModel(
        spec=spec, bath=bath, schedule=schedule, penalty=penalty,
        group=group, scaling_rule=scaling_rule,
    )


def execute_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the coupled/uncoupled/closed triple and assemble the error report."""
    built = build_model(cfg)
    m, r = cfg.model, cfg.run
    icfg = engine.IntegratorConfig(tol=r.tolerance)
    coupled, uncoupled = engine.run_protected(
        built.spec,
        built.bath,
        built.schedule,
        penalty=built.penalty,
        penalty_during_pulse=m.penalty_during_pulse,
        bath_state=r.bath_state,
        cfg=icfg,
    )
    closed = engine.run_closed_adiabatic(built.spec, r=1.0, cfg=icfg)
    target = engine.instantaneous_ground_state(built.spec, 1.0)
    ideal_system = np.outer(target, target.conj())
    beta = model.beta_system_bath(built.spec, built.bath.h_b, built.penalty)
    budget = metrics.phi_budget(
        j_coupling=m.j,
        total_time=built.schedule.total_time,
        w=built.schedule.w,
        tau=built.schedule.tau,
        k_pulses=built.schedule.order,
        l_pulses=built.schedule.total_pulses,
        beta=beta,
        alpha=r.alpha,
    )
    pred = None
    if built.scaling_rule is not None:
        pred = metrics.dd_error_prediction(built.scaling_rule, m.n)
    meta = metrics.RunMeta(
        n=m.n,
        j_coupling=m.j,
        tau=built.schedule.tau,
        w=built.schedule.w,
        k_pulses=built.schedule.order,
        l_pulses=built.schedule.total_pulses,
        total_time=built.schedule.total_time,
    )
    report = metrics.error_report(
        coupled, uncoupled, closed, ideal_system,
        meta=meta, budget6=budget, pred8=pred,
    )
    return ExperimentResult(report, coupled, uncoupled, closed, built)


def resolve_out_dir(cfg: ExperimentConfig, override: str | None = None) -> str:
    env = os.environ.get("AQC_SHIELD_OUT")
    return override or env or cfg.output.out_dir


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> tuple[metrics.ErrorReport, int]:
    """Execute one configuration and write its CSV row and JSON summary."""
    result = execute_experiment(cfg)
    directory = resolve_out_dir(cfg, out_dir)
    os.makedirs(directory, exist_ok=True)
    prefix = cfg.output.prefix
    csv_path = os.path.join(directory, f"{prefix}_report.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(metrics.csv_header() + "\n")
        fh.write(result.report.csv_row() + "\n")
    json_path = os.path.join(directory, f"{prefix}_summary.json")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result.report.json_summary() + "\n")
    return result.report, result.exit_code


def sweep_points(sweep: SweepSpec) -> list[ExperimentConfig]:
    """Cross product of the sweep axes, in deterministic order (last axis fastest)."""
    configs = []
    value_lists = [values for _, values in sweep.axes]
    for combo in itertools.product(*value_lists):
        cfg = sweep.base
        for (path, _), value in zip(sweep.axes, combo):
            cfg = apply_override(cfg, path, value)
        configs.append(cfg)
    return configs


def _sweep_worker(args: tuple[int, ExperimentConfig]) -> tuple[int, str, tuple | None]:
    index, cfg = args
    try:
        result = execute_experiment(cfg)
        return index, "ok", result.report.csv_values()
    except Exception as exc:  # recorded per point; the sweep continues
        return index, f"error:{type(exc).__name__}", None


def run_sweep(
    sweep: SweepSpec, parallelism: int = 1, out_dir: str | None = None
) -> list[tuple[int, str, tuple | None]]:
    """Run every sweep point; write one CSV row per point in axis order.

    Individual failures are recorded in the status column and do not stop
    the sweep.  The output is identical for any parallelism level.
    """
    configs = sweep_points(sweep)
    jobs = list(enumerate(configs))
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(job) for job in jobs]
    rows.sort(key=lambda item: item[0])
    directory = resolve_out_dir(sweep.base, out_dir)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{sweep.base.output.prefix}_sweep.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for index, status, values in rows:
            if values is None:
                cells = [str(index), status] + [""] * len(metrics.CSV_COLUMNS)
            else:
                cells = [str(index), status] + [metrics.format_number(v) for v in values]
            fh.write(",".join(cells) + "\n")
    return rows


def write_gap_csv(cfg: ExperimentConfig, out_dir: str | None = None,
                  grid_points: int = 101) -> str:
    """Spectral sweep of the configured model: columns s, E0, E1, ..., gap."""
    built = build_model(cfg)
    report = model.min_gap(built.spec, grid_points=grid_points, refine=True)
    directory = resolve_out_dir(cfg, out_dir)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{cfg.output.prefix}_gap.csv")
    levels = report.energies.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s," + ",".join(f"E{i}" for i in range(levels)) + ",gap\n")
        for s, row in zip(report.s_grid, report.energies):
            cells = [metrics.format_number(s)]
            cells += [metrics.format_number(e) for e in row]
            cells.append(metrics.format_number(row[1] - row[0]))
            fh.write(",".join(cells) + "\n")
    print(
        f"minimal gap {report.gap:.12g} at s*={report.s_star:.12g}"
        + (" (degenerate ground level)" if report.degenerate else ""),
        file=sys.stderr,
    )
    return path
