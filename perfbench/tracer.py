"""Traced runs: wrap the public functions of each layer, keep spans and
counts in memory, and turn them into per-layer metrics.

A span has a name, start, end, its own id, the id of the span open when it
started (its parent), the run id of the operation and the process id.
Small calls made thousands of times per operation (the Hamiltonian
closures, the Hermitian exponential, ``dense_terms``, ``h_ad``) are counted
instead: a call count and the time inside.

Wrappers replace the module attributes that callers look up at call time.
``engine`` imports ``expm_hermitian`` and ``dense_terms`` by name, so those
are wrapped at the engine binding, and ``dense_terms`` at the model binding
as well.  Sweep points run in forked pool workers, which inherit the
wrappers, the run id and the open spans; after every point a worker
appends its spans and counts to a file of its own, and the parent merges
those files when the sweep returns.  ``installed`` restores every original
function on exit.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import inspect
import json
import os
import statistics
import time

EXPM_DIMS = (16, 32, 64)
PROPAGATIONS = ("coupled", "twin", "frame", "closed")
OPERATION = "bench.operation"


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.parent_pid = self.pid
        self.run: str | None = None
        self.spans: list[dict] = []
        self.counters: dict[tuple[str | None, str], list] = {}
        self._stack: list[tuple[str, str]] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _adopt_fork(self) -> None:
        # A forked worker starts with copies of the parent's records; keep
        # only the open-span stack and run id, so its spans link to the
        # parent's tree without duplicating what the parent will write.
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.counters = {}

    @contextlib.contextmanager
    def span(self, name: str):
        self._adopt_fork()
        self._next_id += 1
        record = {
            "name": name,
            "id": f"{self.pid}.{self._next_id}",
            "parent": self._stack[-1][0] if self._stack else None,
            "run": self.run,
            "pid": self.pid,
        }
        self._stack.append((record["id"], name))
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def count(self, name: str, seconds: float) -> None:
        self._adopt_fork()
        entry = self.counters.setdefault((self.run, name), [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    @contextlib.contextmanager
    def operation(self, run_id: str):
        """Root span of one benchmark operation; merges worker spans after it."""
        self.run = run_id
        try:
            with self.span(OPERATION) as record:
                yield record
        finally:
            self.run = None
            self.merge_spool()

    # -- worker spool --------------------------------------------------------

    def _flush_to_spool(self) -> None:
        os.makedirs(self.spool_dir, exist_ok=True)
        line = json.dumps({
            "spans": self.spans,
            "counters": [[run, name, c[0], c[1]] for (run, name), c in self.counters.items()],
        })
        with open(os.path.join(self.spool_dir, f"{self.pid}.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self.spans = []
        self.counters = {}

    def merge_spool(self) -> None:
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    chunk = json.loads(line)
                    self.spans.extend(chunk["spans"])
                    for run, name, calls, seconds in chunk["counters"]:
                        entry = self.counters.setdefault((run, name), [0, 0.0])
                        entry[0] += calls
                        entry[1] += seconds
            os.remove(path)

    def dump(self, path: str) -> None:
        """Write every span and count, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(record) + "\n")
            for (run, name), (calls, seconds) in sorted(self.counters.items(), key=str):
                fh.write(json.dumps({"counter": name, "run": run, "calls": calls,
                                     "seconds": seconds}) + "\n")

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(record, args, kwargs, out)
            return out
        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count(key(args, kwargs) if callable(key) else key,
                           time.perf_counter() - start)
        return wrapper

    def _sweep_point(self, fn):
        spanned = self._spanned("runner._sweep_worker", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return spanned(*args, **kwargs)
            finally:
                if os.getpid() != self.parent_pid:
                    self._flush_to_spool()
        return wrapper

    def _protected_hamiltonian(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            coupled = signature.bind(*args, **kwargs).arguments.get("include_coupling", True)
            closure = self._counted("engine.h_assembly", fn(*args, **kwargs))
            closure.bench_kind = "coupled" if coupled else "twin"
            return closure
        return wrapper

    def _on_propagation(self, record, args, kwargs, out):
        h_of_t = args[0] if args else kwargs["h_of_t"]
        kind = getattr(h_of_t, "bench_kind", None)
        if kind is None:
            ancestors = [name for _, name in self._stack]
            kind = "closed" if "engine.run_closed_adiabatic" in ancestors else "frame"
        record["kind"] = kind
        record["steps"] = int(out[1]["steps"])

    @staticmethod
    def _on_run_protected(record, args, kwargs, out):
        record["diag_steps"] = {"coupled": int(out[0].diagnostics["steps"]),
                                "twin": int(out[1].diagnostics["steps"])}

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers; restore the original functions on exit."""
        from aqc_shield import config, engine, metrics, model, runner

        def expm_key(args, kwargs):
            h = args[0] if args else kwargs["h"]
            return f"linalg.expm.d{h.shape[0]}"

        def spanned(module, attr, on_return=None):
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            return lambda fn: self._spanned(name, fn, on_return)

        targets = [(config, attr, spanned(config, attr)) for attr in ("load_config", "load_sweep")]
        targets += [(runner, attr, spanned(runner, attr)) for attr in (
            "build_model", "execute_experiment", "run_experiment", "run_sweep",
            "write_gap_csv", "resolve_out_dir")]
        targets += [
            (runner, "_sweep_worker", self._sweep_point),
            (model, "min_gap", spanned(model, "min_gap")),
            (model, "beta_system_bath", spanned(model, "beta_system_bath")),
            (model, "h_ad", lambda fn: self._counted("model.h_ad", fn)),
            (model, "dense_terms", lambda fn: self._counted("model.dense_terms", fn)),
            (engine, "dense_terms", lambda fn: self._counted("model.dense_terms", fn)),
            (engine, "expm_hermitian", lambda fn: self._counted(expm_key, fn)),
            (engine, "protected_hamiltonian", self._protected_hamiltonian),
            (engine, "propagate_with_stats",
             lambda fn: self._spanned("engine.propagate", fn, self._on_propagation)),
            (engine, "run_protected", spanned(engine, "run_protected", self._on_run_protected)),
        ]
        targets += [(engine, attr, spanned(engine, attr)) for attr in (
            "run_closed_adiabatic", "_frame_unitary", "instantaneous_ground_state",
            "effective_hamiltonian")]
        targets.append((metrics, "error_report", spanned(metrics, "error_report")))

        self.pid = self.parent_pid = os.getpid()
        saved = []
        try:
            for module, attr, make in targets:
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> its duration minus the union of its children's intervals."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def operation_metrics(spans: list[dict], counters: dict, run_id: str, workers: int) -> dict:
    """Per-layer metrics of one traced operation.

    Times are seconds of busy time summed over the operation (over every
    sweep point on the sweep); ``runner.build_model_s`` is per call.
    """
    mine = [s for s in spans if s["run"] == run_id]
    by_id = {s["id"]: s for s in mine}

    def total(name):
        return sum(s["end"] - s["start"] for s in mine if s["name"] == name)

    def counter(name):
        return counters.get((run_id, name), [0, 0.0])

    out = {
        "runner.build_model_s": statistics.median(
            [s["end"] - s["start"] for s in mine if s["name"] == "runner.build_model"] or [0.0]),
        "runner.execute_experiment_s": total("runner.execute_experiment"),
        # Writing starts when the runner resolves the output directory and
        # ends when the runner function that called it returns.
        "runner.write_s": sum(by_id[s["parent"]]["end"] - s["start"] for s in mine
                              if s["name"] == "runner.resolve_out_dir" and s["parent"] in by_id),
        "runner.sweep.busy_share": 0.0,
        "engine.ground_state_s": total("engine.instantaneous_ground_state"),
        "engine.effective_hamiltonian_s": total("engine.effective_hamiltonian"),
        "model.min_gap_s": total("model.min_gap"),
        "model.beta_s": total("model.beta_system_bath"),
        "metrics.error_report_s": total("metrics.error_report"),
    }
    sweep_wall = total("runner.run_sweep")
    if sweep_wall > 0:
        out["runner.sweep.busy_share"] = total("runner._sweep_worker") / (workers * sweep_wall)
    propagations = [s for s in mine if s["name"] == "engine.propagate"]
    for kind in PROPAGATIONS:
        of_kind = [s for s in propagations if s["kind"] == kind]
        out[f"engine.{kind}_s"] = sum(s["end"] - s["start"] for s in of_kind)
        out[f"engine.{kind}.steps"] = sum(s["steps"] for s in of_kind)
    for name in ("engine.h_assembly", "model.h_ad", "model.dense_terms"):
        calls, seconds = counter(name)
        out[f"{name}.calls"] = calls
        out[f"{name}_s"] = seconds
    for d in EXPM_DIMS:
        calls, seconds = counter(f"linalg.expm.d{d}")
        out[f"linalg.expm.d{d}.calls"] = calls
        out[f"linalg.expm.d{d}.us"] = 1e6 * seconds / calls if calls else 0.0
    return out


def diagnostics_mismatches(spans: list[dict], run_id: str) -> list[str]:
    """Traced coupled/twin step counts against RunArtifacts.diagnostics."""
    mine = [s for s in spans if s["run"] == run_id]
    out = []
    for kind in ("coupled", "twin"):
        traced = sum(s["steps"] for s in mine
                     if s["name"] == "engine.propagate" and s["kind"] == kind)
        reported = sum(s["diag_steps"][kind] for s in mine if s["name"] == "engine.run_protected")
        if traced != reported:
            out.append(f"{run_id}: traced {kind} steps {traced} != diagnostics {reported}")
    return out
