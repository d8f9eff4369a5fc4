"""Timed and traced runs of one workload.

The load is one closed loop in one process: an operation starts when the
previous one has returned, as long as an operation of median length still
ends within ``seconds`` (at least one operation).  The sweep's pool has at
most nproc workers.  Every operation's outputs go through the reference
gate; an exception, an ``error:*`` sweep row or a gate mismatch counts as a
failed operation.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import aqc_shield
from aqc_shield import config, runner

import bootstrap
import gate
import kernels
import tracer as tracing
import workloads

SETUP_SAMPLES = 5
LOAD_SAMPLES = 5
BENCHMARK_JSON = os.path.join(bootstrap.ROOT, "BENCHMARK.json")
REFS_JSON = os.path.join(workloads.HERE, "refs.json")


def _cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process or of any reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
        "aqc_shield": aqc_shield.__version__,
    }


class WorkloadRun:
    """One workload at one seed: its loaded config, reference and tallies."""

    def __init__(self, workload: workloads.Workload, seed: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.ini = workload.write_ini(seed, work_dir)
        self.loaded = workload.load(self.ini)
        with open(REFS_JSON, encoding="utf-8") as fh:
            refs = json.load(fh)["workloads"][workload.name]
        self.ref = refs[str(workloads.bath_seed(seed))]
        self.workers = workloads.sweep_workers() if workload.kind == "sweep" else 1
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_out_dir: str | None = None

    def operation(self, label: str) -> tuple[float, float]:
        """Run, time and gate one operation; returns (wall s, CPU s)."""
        out_dir = os.path.join(self.work_dir, "out", label)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            returned = self.workload.run(self.loaded, out_dir, self.workers)
        except Exception:  # a failed operation is counted, and the run goes on
            wall, cpu = time.perf_counter() - start, _cpu_seconds() - cpu0
            self._fail(f"{label}: {traceback.format_exc()}")
            return wall, cpu
        wall, cpu = time.perf_counter() - start, _cpu_seconds() - cpu0
        self.last_out_dir = out_dir
        try:
            got = self.workload.read_outputs(self.loaded, out_dir, returned)
            tolerance = self.workload.base_config(self.loaded).run.tolerance
            mismatches = gate.check(self.workload.kind, got, self.ref, tolerance)
        except (OSError, ValueError, KeyError) as exc:
            mismatches = [f"outputs unreadable: {exc!r}"]
        if mismatches:
            self._fail(f"{label}: " + "; ".join(mismatches))
        return wall, cpu

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"perfbench: failed operation {message}", file=sys.stderr)

    def sweep_determinism(self) -> None:
        """Re-run one sweep point serially; its CSV row must match the pooled one byte for byte."""
        if self.workload.kind != "sweep" or self.last_out_dir is None:
            return
        points = runner.sweep_points(self.loaded)
        index = self.seed % len(points)
        out_dir = os.path.join(self.work_dir, "out", "serial")
        shutil.rmtree(out_dir, ignore_errors=True)
        runner.run_sweep(config.SweepSpec(base=points[index], axes=[]), parallelism=1,
                         out_dir=out_dir)
        name = f"{self.workload.base_config(self.loaded).output.prefix}_sweep.csv"
        with open(os.path.join(out_dir, name), "rb") as fh:
            serial = fh.read().splitlines()[1].split(b",", 1)[1]
        with open(os.path.join(self.last_out_dir, name), "rb") as fh:
            pooled = fh.read().splitlines()[1 + index].split(b",", 1)[1]
        if serial != pooled:
            self.problems.append(f"sweep point {index}: serial row {serial!r} "
                                 f"differs from pooled row {pooled!r}")

    def setup_seconds(self) -> float:
        """Wall time of a fresh interpreter that imports, loads and builds."""
        cmd = [sys.executable, os.path.join(workloads.HERE, "probe.py"),
               self.workload.kind, self.ini]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=bootstrap.ROOT, stdout=subprocess.DEVNULL,
                       timeout=120)
        return time.perf_counter() - start


def _room_for_another(walls: list[float], started: float, seconds: float) -> bool:
    """Whether one more operation of median length still ends within ``seconds``."""
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def end_to_end(run: WorkloadRun, seconds: float) -> tuple[dict, dict]:
    started = time.perf_counter()
    samples = [run.operation("op0")]
    while _room_for_another([w for w, _ in samples], started, seconds):
        samples.append(run.operation(f"op{len(samples)}"))
    peak_rss = _peak_rss_mb()
    run.sweep_determinism()
    setup = [run.setup_seconds() for _ in range(SETUP_SAMPLES)]
    walls = [w for w, _ in samples]
    cpus = [c for _, c in samples]
    values = {
        "solve_s": statistics.median(walls),
        "solve_cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss,
    }
    return values, {"solve_s": walls, "solve_cpu_s": cpus, "setup_s": setup}


def per_layer(run: WorkloadRun, seconds: float) -> tuple[dict, dict]:
    started = time.perf_counter()
    untraced_wall, _ = run.operation("untraced")
    tracer = tracing.Tracer(os.path.join(run.work_dir, "spool"))
    walls, per_op = [], []
    with tracer.installed():
        for i in range(LOAD_SAMPLES):
            with tracer.operation(f"load{i}"):
                run.workload.load(run.ini)
        while not walls or _room_for_another(walls, started, seconds):
            run_id = f"op{len(walls)}"
            with tracer.operation(run_id):
                wall, _ = run.operation(f"traced{len(walls)}")
            walls.append(wall)
            per_op.append(tracing.operation_metrics(tracer.spans, tracer.counters,
                                                    run_id, run.workers))
            run.problems += tracing.diagnostics_mismatches(tracer.spans, run_id)
    tracer.dump(os.path.join(run.work_dir, "trace.jsonl"))
    run.sweep_determinism()
    values = {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
    values["config.load_s"] = statistics.median(
        s["end"] - s["start"] for s in tracer.spans
        if s["name"] in ("config.load_config", "config.load_sweep"))
    values["trace.overhead_share"] = statistics.median(walls) / untraced_wall - 1.0
    values.update(kernels.kernel_table(run.seed))
    return values, {"untraced_solve_s": [untraced_wall], "traced_solve_s": walls}


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    if workload_name not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {workload_name!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    work_dir = os.path.join(workloads.HERE, "_work",
                            f"{workload_name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = environment()
    print(json.dumps({"environment": env}), flush=True)

    run = WorkloadRun(workloads.WORKLOADS[workload_name], seed, work_dir)
    values, samples = (per_layer if trace else end_to_end)(run, seconds)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    detail = {"workload": workload_name, "seed": seed, "bath_seed": workloads.bath_seed(seed),
              "workers": run.workers, "samples": samples, "problems": run.problems}
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, **detail, "result": result}, fh, indent=1)
    print(json.dumps(detail), flush=True)
    print(json.dumps(result), flush=True)
    return 0
