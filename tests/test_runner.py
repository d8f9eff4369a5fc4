import json
from pathlib import Path

import numpy as np
import pytest

from aqc_shield import cli, codes, engine, metrics, model, runner, verify
from aqc_shield.config import ExperimentConfig, SweepSpec, load_config, load_sweep, loads_config

WORKLOADS = sorted((Path(__file__).parents[1] / "perfbench" / "workloads").glob("*.ini"))

QUICK = """
[model]
n = 4
n_b = 1
j = 0.1
seed = 7

[protocol]
tau = 0.25
total_time = 2.0

[run]
tolerance = 1e-8

[output]
out_dir = {out}
"""

# All four bound verdicts (including the printed phi-distance constant,
# which is tighter than what is provable; see the acceptance suite) happen
# to hold on this configuration.
ALL_PASS = """
[model]
n = 4
n_b = 2
j = 0.1

[protocol]
tau = 0.25
total_time = 6.0

[run]
tolerance = 1e-8

[output]
out_dir = {out}
"""

# The n = 8 encoded model of the benchmark's spectral sweep.
ENCODED_N8 = """
[model]
n = 8
n_b = 1
code = true
preset = universal-2local
j = 0.1

[protocol]
group = universal
tau = 0.25
w = 0
total_time = 8

[output]
out_dir = {out}
"""


def quick_cfg(out_dir, **overrides) -> ExperimentConfig:
    cfg = loads_config(QUICK.format(out=out_dir))
    for key, value in overrides.items():
        section, field = key.split("__")
        setattr(getattr(cfg, section), field, value)
    return cfg


class TestExecute:
    def test_provable_bounds_hold(self, tmp_path):
        result = runner.execute_experiment(quick_cfg(tmp_path))
        for name in ("monotonic", "triangle", "eq3"):
            assert result.report.slacks[name] >= 0
        assert result.report.schedule is result.built.schedule
        n, _, _, _, k_pulses, l_pulses = result.report.csv_values()[:6]
        assert n == 4 and k_pulses == 4
        assert l_pulses == k_pulses * result.built.schedule.cycles
        assert result.report.budget6 is not None

    def test_j_zero_decoupling_distance_is_zero(self, tmp_path):
        result = runner.execute_experiment(quick_cfg(tmp_path, model__j=0.0))
        assert result.report.d_d == 0.0

    def test_dilation_multiplies_cycles(self, tmp_path):
        base = runner.build_model(quick_cfg(tmp_path))
        dilated_cfg = quick_cfg(tmp_path)
        dilated_cfg.run.r = 2
        dilated = runner.build_model(dilated_cfg)
        assert dilated.schedule.cycles == 2 * base.schedule.cycles

    def test_dilated_schedule_times_closed_run_and_budget(self, tmp_path):
        base = runner.build_model(quick_cfg(tmp_path))
        cfg = quick_cfg(tmp_path, run__r=2)
        result = runner.execute_experiment(cfg)
        built, report = result.built, result.report
        total = report.csv_values()[metrics.CSV_COLUMNS.index("T")]
        assert total == 2 * base.schedule.total_time
        closed = engine.run_closed_adiabatic(
            built.spec, 2 * base.schedule.total_time,
            cfg=engine.IntegratorConfig(tol=cfg.run.tolerance))
        assert report.delta_ad == closed.delta_ad
        m = cfg.model
        bath = model.linear_decoherence(m.n, m.n_b, m.j, m.seed, beta_b=m.beta_b)
        beta = model.beta_system_bath(built.spec, bath.h_b)
        assert report.budget6 == metrics.phi_budget(built.schedule, m.j, beta)

    @pytest.mark.parametrize("group", ["none", "global-x"])
    def test_penalty_is_the_codes_whatever_the_group(self, tmp_path, group):
        # the penalty sums the code's stabilizers; the pulses' group is not the code
        built = runner.build_model(quick_cfg(tmp_path, model__e_p=1.0, protocol__group=group))
        expected = codes.penalty_hamiltonian(codes.universal_group(4), 1.0)
        assert built.schedule.group.order < 4
        assert np.array_equal(built.spec.penalty, expected)

    def test_encoded_build_validates_code_once(self, tmp_path, monkeypatch):
        calls = []
        original = codes._validate_code

        def counted(code):
            calls.append(code.n)
            return original(code)

        monkeypatch.setattr(codes, "_validate_code", counted)
        runner.build_model(loads_config(ENCODED_N8.format(out=tmp_path)))
        assert calls == [8]

    def test_scaling_rule_protocol(self, tmp_path):
        cfg = quick_cfg(tmp_path)
        # J = 1 keeps w below tau at this small n (w scales as 1/J)
        cfg.model.j = 1.0
        cfg.protocol.tau = None
        cfg.protocol.total_time = None
        cfg.protocol.zeta = 1.0
        cfg.protocol.epsilon1 = 1.5
        cfg.protocol.epsilon2 = 0.5
        built = runner.build_model(cfg)
        assert built.scaling_rule is not None
        assert built.schedule.total_pulses % 4 == 0
        result = runner.execute_experiment(cfg)
        assert result.report.pred8 is not None

    def test_penalty_run(self, tmp_path):
        result = runner.execute_experiment(
            quick_cfg(tmp_path, model__e_p=0.5, model__j=0.05))
        assert result.report.slacks["eq3"] >= 0


def test_one_ground_state_solve_per_endpoint(monkeypatch):
    # the three runs start from one initial state: H(0) and H(1) are each
    # diagonalized once per experiment
    calls = []
    solve = engine.instantaneous_ground_state

    def spy(spec, s):
        calls.append(s)
        return solve(spec, s)

    monkeypatch.setattr(engine, "instantaneous_ground_state", spy)
    path = next(p for p in WORKLOADS if p.stem == "simulate_nb2")
    runner.execute_experiment(load_config(str(path)))
    assert sorted(calls) == [0.0, 1.0]


def test_report_refuses_closed_run_at_another_time():
    # simulate_nb2 at n_b = 1: a closed run over 2T (delta_ad 0.0651 against
    # the schedule's 0.2639) must not be reported under the schedule's T
    cfg = load_config(str(next(p for p in WORKLOADS if p.stem == "simulate_nb2")))
    cfg.model.n_b = 1
    result = runner.execute_experiment(cfg)  # reports its own closed run
    schedule = result.built.schedule
    dilated = engine.run_closed_adiabatic(result.built.spec, 2 * schedule.total_time,
                                          engine.IntegratorConfig(tol=cfg.run.tolerance))
    with pytest.raises(ValueError, match="timing"):
        metrics.error_report(result.coupled, result.uncoupled, dilated, schedule, cfg.model.j)


@pytest.mark.parametrize("path", WORKLOADS, ids=[p.stem for p in WORKLOADS])
def test_shipped_workload_builds(path):
    # validation may only refuse what the builders refuse: every shipped
    # workload, and every point of a sweep, loads and builds
    if path.stem.startswith("sweep"):
        configs = runner.sweep_points(load_sweep(str(path)))
    else:
        configs = [load_config(str(path))]
    for cfg in configs:
        runner.build_model(cfg)


class TestOutputs:
    def test_files_written_and_deterministic(self, tmp_path):
        cfg = quick_cfg(tmp_path / "a")
        report1, code1 = runner.run_experiment(cfg)
        csv1 = (tmp_path / "a" / "run_report.csv").read_bytes()
        json1 = (tmp_path / "a" / "run_summary.json").read_bytes()
        cfg2 = quick_cfg(tmp_path / "b")
        runner.run_experiment(cfg2)
        csv2 = (tmp_path / "b" / "run_report.csv").read_bytes()
        json2 = (tmp_path / "b" / "run_summary.json").read_bytes()
        assert csv1 == csv2
        assert json1 == json2
        header, row = csv1.decode().strip().split("\n")
        assert header.startswith("n,J,tau")
        data = json.loads(json1)
        assert data["n"] == 4

    def test_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "envdir"
        monkeypatch.setenv("AQC_SHIELD_OUT", str(target))
        runner.run_experiment(quick_cfg(tmp_path / "ignored"))
        assert (target / "run_report.csv").exists()

    def test_out_dir_argument_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AQC_SHIELD_OUT", str(tmp_path / "env"))
        runner.run_experiment(quick_cfg(tmp_path / "cfg"), out_dir=str(tmp_path / "arg"))
        assert (tmp_path / "arg" / "run_report.csv").exists()

    def test_gap_csv(self, tmp_path):
        cfg = quick_cfg(tmp_path)
        path = runner.write_gap_csv(cfg, grid_points=21)
        lines = open(path).read().strip().split("\n")
        assert lines[0].startswith("s,E0,E1")
        assert lines[0].endswith(",gap")
        assert len(lines) == 22

    def test_gap_rows_are_format_number_cells(self, tmp_path):
        cfg = quick_cfg(tmp_path)
        path = runner.write_gap_csv(cfg, grid_points=21)
        report = model.min_gap(runner.build_model(cfg).spec, grid_points=21)
        rows = [
            ",".join(metrics.format_number(v) for v in (s, *row, row[1] - row[0]))
            for s, row in zip(report.s_grid, report.energies)
        ]
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read().split("\n")[1:] == rows + [""]

    def test_encoded_n8_min_gap_refines_in_few_solves(self, tmp_path, monkeypatch):
        # the 101 grid spectra, then at most 8 symmetric solves to pin s*
        spec = runner.build_model(loads_config(ENCODED_N8.format(out=tmp_path))).spec
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda h, solver=solver: calls.append(h.shape) or solver(h))
        report = model.min_gap(spec)
        assert not report.degenerate and 0.39 < report.s_star < 0.41
        assert len(calls) <= 101 + 8
        assert set(calls) == {(64, 64)}

    def test_encoded_n8_model_is_real(self, tmp_path):
        # a complex code pair would double the cost of every gap-sweep solve
        spec = runner.build_model(loads_config(ENCODED_N8.format(out=tmp_path))).spec
        assert [op.dtype for op in spec.code_pair] == [np.float64, np.float64]


class TestSweep:
    def sweep_spec(self, out_dir, taus=(0.5, 0.25, 0.125)) -> SweepSpec:
        base = quick_cfg(out_dir)
        return SweepSpec(base=base, axes=[("protocol.tau", list(taus))])

    def test_rows_ordered_and_dd_decreasing(self, tmp_path):
        rows = runner.run_sweep(self.sweep_spec(tmp_path))
        assert [r[0] for r in rows] == [0, 1, 2]
        assert all(status == "ok" for _, status, _ in rows)
        d_d_column = [values[8] for _, _, values in rows]
        assert d_d_column[0] > d_d_column[1] > d_d_column[2]

    def test_cross_product_count_and_order(self, tmp_path):
        base = quick_cfg(tmp_path)
        spec = SweepSpec(base=base, axes=[("model.j", [0.05, 0.1]),
                                          ("protocol.tau", [0.5, 0.25])])
        points = runner.sweep_points(spec)
        assert len(points) == 4
        assert [(p.model.j, p.protocol.tau) for p in points] == [
            (0.05, 0.5), (0.05, 0.25), (0.1, 0.5), (0.1, 0.25)]

    def test_parallel_matches_serial(self, tmp_path):
        spec_a = self.sweep_spec(tmp_path / "serial", taus=(0.5, 0.25))
        runner.run_sweep(spec_a, parallelism=1)
        spec_b = self.sweep_spec(tmp_path / "parallel", taus=(0.5, 0.25))
        runner.run_sweep(spec_b, parallelism=2)
        serial = (tmp_path / "serial" / "run_sweep.csv").read_bytes()
        parallel = (tmp_path / "parallel" / "run_sweep.csv").read_bytes()
        assert serial == parallel

    def test_parallel_pool_no_larger_than_sweep(self, tmp_path, monkeypatch):
        # the pool starts all its workers at once; an in-process stand-in
        # records how many were asked for and starts no process
        import concurrent.futures

        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        rows = runner.run_sweep(self.sweep_spec(tmp_path, taus=(0.5, 0.25)), parallelism=64)
        assert started == [2]
        assert [status for _, status, _ in rows] == ["ok", "ok"]
        runner.run_sweep(self.sweep_spec(tmp_path, taus=(0.5,)), parallelism=64)
        assert started == [2]

    def test_point_failure_recorded(self, tmp_path, capsys, monkeypatch):
        # a point that passes validation and fails while it runs is recorded
        original = runner.execute_experiment

        def fail_at_quarter(cfg):
            if cfg.protocol.tau == 0.25:
                raise ValueError("integration failed at tau=0.25")
            return original(cfg)

        monkeypatch.setattr(runner, "execute_experiment", fail_at_quarter)
        rows = runner.run_sweep(self.sweep_spec(tmp_path, taus=(0.5, 0.25)))
        assert rows[0][1] == "ok"
        assert rows[1] == (1, "error:ValueError", None)
        err = capsys.readouterr().err
        assert "sweep point 1: ValueError: integration failed at tau=0.25" in err
        text = (tmp_path / "run_sweep.csv").read_text().strip().split("\n")
        assert len(text) == 3


class TestCli:
    def test_code_subcommand_output(self, capsys):
        assert cli.main(["code", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "00: (|0000⟩+|1111⟩)/√2" in out
        assert "Xbar[1] = X1 X2" in out
        assert "Zbar[2] = Z3 Z4" in out

    def test_simulate_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(ALL_PASS.format(out=tmp_path / "o1"))
        assert cli.main(["simulate", str(path)]) == 0
        bad = tmp_path / "missing.cfg"
        assert cli.main(["simulate", str(bad)]) == 1

    def test_simulate_exit_two_on_failed_verdict(self, tmp_path):
        # one bath qubit at this coupling violates the printed phi-distance
        # constant (see the acceptance suite), so the bound gate trips
        path = tmp_path / "exp.cfg"
        path.write_text(QUICK.format(out=tmp_path / "o2")
                        .replace("total_time = 2.0", "total_time = 8.0"))
        assert cli.main(["simulate", str(path)]) == 2

    def test_simulate_refuses_degenerate_bath_ground(self, tmp_path, capsys, monkeypatch):
        # beta_b = 0 makes H_B = 0, so the bath has no unique ground state:
        # refused by the configuration check, before any propagation starts
        def no_propagation(*args, **kwargs):
            raise AssertionError("a propagation was started")

        monkeypatch.setattr(engine, "propagate_with_stats", no_propagation)
        path = tmp_path / "exp.cfg"
        path.write_text(QUICK.format(out=tmp_path / "out")
                        .replace("j = 0.1", "j = 0.1\nbeta_b = 0")
                        .replace("tolerance = 1e-8", "tolerance = 1e-8\nbath_state = ground"))
        assert cli.main(["simulate", str(path)]) == 1
        err = capsys.readouterr().err
        assert ("configuration error: run.bath_state = ground needs model.beta_b > 0: "
                "H_B = 0 has no unique ground state") in err
        assert not (tmp_path / "out").exists()

    def test_simulate_invalid_config(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[model]\nn = 4\n[protocol]\ntau = 0.5\n")  # no cycles
        assert cli.main(["simulate", str(path)]) == 1

    def test_tolerance_override_validated(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(QUICK.format(out=tmp_path / "out"))
        assert cli.main(["simulate", str(path), "--tolerance", "0.01"]) == 1
        assert "configuration error: run.tolerance must be at most" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_tolerance_override_refused(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(QUICK.format(out=tmp_path / "out"))
        assert cli.main(["simulate", str(path), "--tolerance", "nan"]) == 1
        assert "configuration error: run.tolerance must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_deterministic_bytes(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(QUICK.format(out=tmp_path / "out"))
        cli.main(["simulate", str(path)])
        first = (tmp_path / "out" / "run_report.csv").read_bytes()
        cli.main(["simulate", str(path)])
        second = (tmp_path / "out" / "run_report.csv").read_bytes()
        assert first == second

    def test_sweep_subcommand(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(QUICK.format(out=tmp_path / "out")
                        + "\n[sweep]\nprotocol.tau = 0.5, 0.25\n")
        assert cli.main(["sweep", str(path), "--parallel", "2"]) == 0
        lines = (tmp_path / "out" / "run_sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 3

    @pytest.mark.parametrize("axis, good, bad, message", [
        ("run.alpha", 1.0, -2.0, "run.alpha must be nonnegative"),
        ("model.beta_b", 1.0, -1.0, "model.beta_b must be nonnegative"),
        ("protocol.tau", 0.25, 0.0, "protocol.tau must be positive"),
        ("protocol.w", 0.0, 0.25, "pulse width w=0.25 >= interval tau=0.25"),
        ("model.seed", 7, -3, "model.seed must be nonnegative"),
    ], ids=["run.alpha", "model.beta_b", "protocol.tau", "protocol.w", "model.seed"])
    def test_sweep_refuses_invalid_point_before_any_runs(self, tmp_path, capsys, monkeypatch,
                                                         axis, good, bad, message):
        def no_run(cfg):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(runner, "execute_experiment", no_run)
        path = tmp_path / "sweep.cfg"
        path.write_text(QUICK.format(out=tmp_path / "out")
                        + f"\n[sweep]\nmodel.j = 0.05, 0.1\n{axis} = {good}, {bad}\n")
        assert cli.main(["sweep", str(path)]) == 1
        err = capsys.readouterr().err
        assert (f"configuration error: sweep point 1 (model.j = 0.05, {axis} = {bad:g}): "
                f"{message}") in err
        assert not (tmp_path / "out").exists()

    def test_sweep_refuses_degenerate_bath_ground_before_any_runs(self, tmp_path, capsys,
                                                                   monkeypatch):
        def no_run(cfg):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(runner, "execute_experiment", no_run)
        path = tmp_path / "sweep.cfg"
        path.write_text(QUICK.format(out=tmp_path / "out")
                        .replace("tolerance = 1e-8", "tolerance = 1e-8\nbath_state = ground")
                        + "\n[sweep]\nmodel.beta_b = 1.0, 0.0\n")
        assert cli.main(["sweep", str(path)]) == 1
        err = capsys.readouterr().err
        assert ("configuration error: sweep point 1 (model.beta_b = 0): "
                "run.bath_state = ground needs model.beta_b > 0") in err
        assert not (tmp_path / "out").exists()

    def test_gap_subcommand(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(QUICK.format(out=tmp_path / "out"))
        assert cli.main(["gap", str(path), "--grid-points", "11"]) == 0
        assert (tmp_path / "out" / "run_gap.csv").exists()

    def test_gap_builds_no_bath(self, tmp_path, monkeypatch):
        def no_bath(*args, **kwargs):
            raise AssertionError("the gap command built a bath")

        monkeypatch.setattr(model, "linear_decoherence", no_bath)
        path = tmp_path / "gap.cfg"
        path.write_text(ENCODED_N8.format(out=tmp_path / "out"))
        assert cli.main(["gap", str(path), "--grid-points", "11"]) == 0
        lines = (tmp_path / "out" / "run_gap.csv").read_text().strip().split("\n")
        assert len(lines) == 12

    @pytest.mark.parametrize("option", ["--seed", "--tolerance"])
    def test_gap_rejects_options_that_cannot_change_it(self, tmp_path, option):
        path = tmp_path / "exp.cfg"
        path.write_text(QUICK.format(out=tmp_path / "out"))
        with pytest.raises(SystemExit):
            cli.main(["gap", str(path), option, "1"])

    def test_seed_override_changes_output(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(QUICK.format(out=tmp_path / "a"))
        cli.main(["simulate", str(path), "--out-dir", str(tmp_path / "a")])
        cli.main(["simulate", str(path), "--seed", "99", "--out-dir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "run_report.csv").read_text()
        b = (tmp_path / "b" / "run_report.csv").read_text()
        assert a != b


class TestVerifySuite:
    @pytest.mark.parametrize("name", [name for name, _ in verify.ALL_CHECKS])
    def test_registered_check_passes(self, name, registry_margin):
        assert registry_margin(name) >= 0.0, name

    def test_small_experiments_run_once_per_call(self, monkeypatch):
        # the two runner checks share one run of each experiment per call,
        # and a second call runs them afresh
        runs = []
        original = runner.execute_experiment

        def counted(cfg):
            runs.append(cfg.model.j)
            return original(cfg)

        monkeypatch.setattr(runner, "execute_experiment", counted)
        monkeypatch.setattr(verify, "ALL_CHECKS",
                            [c for c in verify.ALL_CHECKS if c[0].startswith("runner.")])
        for _ in range(2):
            assert verify.verify(print_fn=lambda line: None) == 0
        assert runs == [0.05, 0.2, 0.05, 0.2]

    def test_mutation_is_caught(self, monkeypatch):
        # a sign error injected into the group average must trip the
        # projector-style checks
        original = codes.group_average

        def broken(group, a):
            return -original(group, a)

        monkeypatch.setattr(codes, "group_average", broken)
        lines = []
        failures = verify.verify(print_fn=lines.append)
        assert failures > 0
        failed = "\n".join(line for line in lines if line.startswith("FAIL"))
        assert "group_average" in failed
