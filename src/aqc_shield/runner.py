"""Experiment orchestration: build models from configuration, run them,
persist deterministic CSV/JSON results, and drive parameter sweeps.

Exit-code contract for ``simulate``: 0 on success with all bound verdicts
passing, 2 when any bound verdict fails, 1 on execution errors.
"""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass

from . import codes, engine, metrics, model, protocols
from .config import (ConfigError, ExperimentConfig, SweepSpec, apply_override, build_parts,
                     validate_config)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_FAILED = 2

SWEEP_COLUMNS = ("index", "status") + metrics.CSV_COLUMNS


@dataclass
class BuiltModel:
    """The system side of one experiment; ``execute_experiment`` builds the bath."""

    spec: model.AdiabaticSpec
    schedule: protocols.PulseSchedule
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


def build_model(cfg: ExperimentConfig) -> BuiltModel:
    """Construct the system side of an experiment (no bath) from its config:
    :func:`config.build_parts` plus the code basis and the penalty."""
    m = cfg.model
    h0, h1, kind, schedule, scaling_rule = build_parts(cfg)
    spec = model.AdiabaticSpec(
        n=m.n,
        h0_terms=h0,
        h1_terms=h1,
        schedule=kind,
        code_basis=codes.code_from_universal_group(m.n)[0].basis_matrix() if m.code else None,
        # the code's stabilizers, whatever group the pulses cycle through
        penalty=(codes.penalty_hamiltonian(codes.universal_group(m.n), m.e_p)
                 if m.e_p > 0 else None),
        penalty_during_pulse=m.penalty_during_pulse,
    )
    return BuiltModel(spec=spec, schedule=schedule, scaling_rule=scaling_rule)


def execute_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Build the model and its bath, run the coupled/uncoupled/closed triple
    and assemble the error report."""
    built = build_model(cfg)
    m, r = cfg.model, cfg.run
    bath = model.linear_decoherence(m.n, m.n_b, m.j, m.seed, beta_b=m.beta_b)
    icfg = engine.IntegratorConfig(tol=r.tolerance)
    coupled, uncoupled, closed = engine.run_protected(
        built.spec, bath, built.schedule, bath_state=r.bath_state, cfg=icfg,
    )
    beta = model.beta_system_bath(built.spec, bath.h_b)
    budget = metrics.phi_budget(built.schedule, m.j, beta, alpha=r.alpha)
    pred = None
    if built.scaling_rule is not None:
        pred = metrics.dd_error_prediction(built.scaling_rule, m.n)
    report = metrics.error_report(
        coupled, uncoupled, closed, built.schedule, m.j, budget6=budget, pred8=pred,
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
    """Cross product of the sweep axes, in deterministic order (last axis
    fastest).  Each point is validated once all its axis values are applied:
    an invalid one raises ``ConfigError``, naming its index and axis values."""
    configs = []
    for index, combo in enumerate(itertools.product(*(values for _, values in sweep.axes))):
        cfg = sweep.base
        for (path, _), value in zip(sweep.axes, combo):
            cfg = apply_override(cfg, path, value)
        try:
            validate_config(cfg)
        except ConfigError as exc:
            axes = ", ".join(f"{path} = {value:g}" for (path, _), value in zip(sweep.axes, combo))
            raise ConfigError(f"sweep point {index} ({axes}): {exc}") from None
        configs.append(cfg)
    return configs


def _sweep_worker(args: tuple[int, ExperimentConfig]) -> tuple[int, str, tuple | None]:
    index, cfg = args
    try:
        result = execute_experiment(cfg)
        return index, "ok", result.report.csv_values()
    except Exception as exc:  # recorded per point; the sweep continues
        print(f"sweep point {index}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return index, f"error:{type(exc).__name__}", None


def run_sweep(
    sweep: SweepSpec, parallelism: int = 1, out_dir: str | None = None
) -> list[tuple[int, str, tuple | None]]:
    """Run every sweep point; write one CSV row per point in axis order.

    A point that fails config validation stops the sweep before any point
    runs (:func:`sweep_points`).  Failures while running are recorded in
    the status column and do not stop the sweep.  The output is identical
    for any parallelism level.
    """
    configs = sweep_points(sweep)
    jobs = list(enumerate(configs))
    # the pool starts all its workers at the first submit: no more than points
    workers = min(parallelism, len(jobs))
    if workers > 1:
        # imported here, its only use: a single experiment never loads it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    """Spectral sweep of the configured model: columns s, E0, E1, ..., gap.

    Builds no bath and propagates nothing, so neither the seed nor the
    integrator tolerance can change its output.
    """
    built = build_model(cfg)
    report = model.min_gap(built.spec, grid_points=grid_points)
    directory = resolve_out_dir(cfg, out_dir)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{cfg.output.prefix}_gap.csv")
    levels = report.energies.shape[1]
    row = ",".join([metrics.CELL_FORMAT] * (levels + 2)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s," + ",".join(f"E{i}" for i in range(levels)) + ",gap\n")
        fh.writelines(row % (s, *e, e[1] - e[0])
                      for s, e in zip(report.s_grid.tolist(), report.energies.tolist()))
    print(
        f"minimal gap {report.gap:.12g} at s*={report.s_star:.12g}"
        + (" (degenerate ground level)" if report.degenerate else ""),
        file=sys.stderr,
    )
    return path
