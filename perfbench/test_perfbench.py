"""Self-tests of the benchmark: tracing, the reference gate, determinism.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os

import bootstrap

bootstrap.prepare()

import pytest  # noqa: E402

from aqc_shield import config, engine, model, runner  # noqa: E402

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = """
[model]
n = 4
n_b = 1
j = 0.1
seed = {seed}

[protocol]
tau = 0.25
w = 0
total_time = 2

[run]
tolerance = 1e-8

[sweep]
model.j = 0.05, 0.2
"""


@pytest.fixture
def small_cfg():
    return config.loads_config(SMALL.format(seed=7))


def _traced_steps(tracer, run_id):
    spans = [s for s in tracer.spans if s["run"] == run_id and s["name"] == "engine.propagate"]
    return {kind: sum(s["steps"] for s in spans if s["kind"] == kind)
            for kind in tracing.PROPAGATIONS}


def test_step_counts_repeat_and_match_diagnostics(small_cfg, tmp_path):
    tracer = tracing.Tracer(str(tmp_path / "spool"))
    steps, results = [], []
    with tracer.installed():
        for run_id in ("a", "b"):
            with tracer.operation(run_id):
                results.append(runner.execute_experiment(small_cfg))
            steps.append(_traced_steps(tracer, run_id))
    assert steps[0] == steps[1]
    assert all(count > 0 for count in steps[0].values())
    for run_steps, result in zip(steps, results):
        assert run_steps["coupled"] == result.coupled.diagnostics["steps"]
        assert run_steps["twin"] == result.uncoupled.diagnostics["steps"]
    assert tracing.diagnostics_mismatches(tracer.spans, "a") == []


def test_self_times_sum_to_traced_wall(small_cfg, tmp_path):
    tracer = tracing.Tracer(str(tmp_path / "spool"))
    with tracer.installed():
        with tracer.operation("op") as root:
            runner.run_experiment(small_cfg, out_dir=str(tmp_path / "out"))
    spans = [s for s in tracer.spans if s["run"] == "op"]
    assert len(spans) > 10
    wall = root["end"] - root["start"]
    assert sum(tracing.self_times(spans).values()) == pytest.approx(wall, rel=1e-9, abs=1e-9)


def test_tracer_restores_originals(tmp_path):
    before = (engine.expm_hermitian, engine.dense_terms, model.dense_terms,
              runner._sweep_worker, runner.run_sweep, config.load_config)
    with tracing.Tracer(str(tmp_path)).installed():
        assert engine.expm_hermitian is not before[0]
        assert runner._sweep_worker is not before[3]
    after = (engine.expm_hermitian, engine.dense_terms, model.dense_terms,
             runner._sweep_worker, runner.run_sweep, config.load_config)
    assert all(a is b for a, b in zip(before, after))


def test_sweep_bytes_identical_at_1_and_2_workers_with_worker_spans(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SMALL.format(seed=7))
    spec = config.load_sweep(str(path))
    tracer = tracing.Tracer(str(tmp_path / "spool"))
    runner.run_sweep(spec, parallelism=1, out_dir=str(tmp_path / "serial"))
    with tracer.installed():
        with tracer.operation("pooled"):
            rows = runner.run_sweep(spec, parallelism=2, out_dir=str(tmp_path / "pooled"))
    assert [status for _, status, _ in rows] == ["ok", "ok"]
    name = "run_sweep.csv"
    assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pooled" / name).read_bytes()
    sweep_span = next(s for s in tracer.spans if s["name"] == "runner.run_sweep")
    points = [s for s in tracer.spans if s["name"] == "runner._sweep_worker"]
    assert len(points) == 2
    assert all(s["parent"] == sweep_span["id"] and s["pid"] != os.getpid() for s in points)
    assert _traced_steps(tracer, "pooled")["coupled"] > 0
    assert not os.listdir(tmp_path / "spool")


@pytest.fixture(scope="module")
def refs():
    with open(os.path.join(workloads.HERE, "refs.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def _as_got(kind, ref):
    got = copy.deepcopy(ref)
    if kind == "sweep":
        got["returned_statuses"] = [row["status"] for row in ref["rows"]]
    return got


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_accepts_every_reference_and_rejects_1e_6(refs, name):
    kind = workloads.WORKLOADS[name].kind
    per_seed = refs[name]
    assert len(per_seed) == workloads.REF_SEEDS
    for ref in per_seed.values():
        assert gate.check(kind, _as_got(kind, ref), ref, 1e-8) == []
    ref = per_seed[str(workloads.bath_seed(0))]
    if kind == "gap":
        perturbed = ["gap", "s_star", "grid_min_gap", "gap_sum", "e0_sum"]
    else:
        values = ref["values"] if kind == "simulate" else ref["rows"][0]["values"]
        perturbed = [k for k in values if k not in gate.META_COLUMNS]
    for key in perturbed:
        got = _as_got(kind, ref)
        if kind == "gap":
            got[key] += 1e-6
        elif kind == "simulate":
            got["values"][key] += 1e-6
        else:
            got["rows"][0]["values"][key] += 1e-6
        assert gate.check(kind, got, ref, 1e-8), key


def test_gate_rejects_failed_sweep_point_and_verdict_flip(refs):
    ref = refs["sweep_nb1"][str(workloads.bath_seed(0))]
    got = _as_got("sweep", ref)
    got["rows"][3]["status"] = got["returned_statuses"][3] = "error:StepLimitError"
    assert gate.check("sweep", got, ref, 1e-8)
    ref = refs["simulate_finite_pulse"][str(workloads.bath_seed(0))]
    assert ref["verdicts"]["eq5"] is False  # the documented criterion-5 discrepancy
    got = _as_got("simulate", ref)
    got["verdicts"]["eq5"] = True
    got["exit_code"] = 0
    assert gate.check("simulate", got, ref, 1e-8)
