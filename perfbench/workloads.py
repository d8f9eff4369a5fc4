"""The benchmark's workloads: how each one loads its INI file, runs one
operation through the public runner API, and reads back what it wrote.

An operation is one ``runner.run_experiment`` (including its CSV/JSON
write), one whole ``runner.run_sweep``, or one ``runner.write_gap_csv``.
The outputs read back here are what the reference gate compares.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import json
import os
import re
from dataclasses import dataclass

from aqc_shield import config, runner

HERE = os.path.dirname(os.path.abspath(__file__))

# ``--seed`` selects one of REF_SEEDS bath seeds, for each of which the
# reference outputs are recorded in refs.json.
REF_SEEDS = 16
BATH_SEED_BASE = 1234

_GAP_LINE = re.compile(r"minimal gap (\S+) at s\*=(\S+)")


def sweep_workers() -> int:
    """Pool size of the sweep: two workers, or fewer on a smaller machine."""
    return min(2, len(os.sched_getaffinity(0)))


def bath_seed(seed: int) -> int:
    """``model.seed`` of the run for benchmark seed ``seed``."""
    return BATH_SEED_BASE + seed % REF_SEEDS


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate", "sweep" or "gap"

    @property
    def ini_path(self) -> str:
        return os.path.join(HERE, "workloads", f"{self.name}.ini")

    def write_ini(self, seed: int, work_dir: str) -> str:
        """The workload's INI with ``model.seed`` and the output directory set."""
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read(self.ini_path, encoding="utf-8")
        parser["model"]["seed"] = str(bath_seed(seed))
        parser["output"]["out_dir"] = os.path.join(work_dir, "out")
        path = os.path.join(work_dir, f"{self.name}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        return path

    def load(self, path: str):
        """Load and validate the INI through the public config API."""
        if self.kind == "sweep":
            return config.load_sweep(path)
        return config.load_config(path)

    def run(self, loaded, out_dir: str, workers: int) -> dict:
        """One operation; returns what ``read_outputs`` needs besides the files."""
        if self.kind == "simulate":
            _, exit_code = runner.run_experiment(loaded, out_dir=out_dir)
            return {"exit_code": exit_code}
        if self.kind == "sweep":
            rows = runner.run_sweep(loaded, parallelism=workers, out_dir=out_dir)
            return {"statuses": [status for _, status, _ in rows]}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            runner.write_gap_csv(loaded, out_dir=out_dir)
        return {"stderr": err.getvalue()}

    def base_config(self, loaded):
        """The experiment config (the sweep's base config on the sweep)."""
        return loaded.base if self.kind == "sweep" else loaded

    def read_outputs(self, loaded, out_dir: str, returned: dict) -> dict:
        """The outputs the operation wrote, in the form refs.json stores."""
        prefix = self.base_config(loaded).output.prefix
        if self.kind == "simulate":
            values = _read_csv(os.path.join(out_dir, f"{prefix}_report.csv"))[0]
            with open(os.path.join(out_dir, f"{prefix}_summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            verdicts = {k[len("verdict_"):]: v for k, v in summary.items()
                        if k.startswith("verdict_")}
            return {"values": values, "verdicts": verdicts,
                    "exit_code": returned["exit_code"]}
        if self.kind == "sweep":
            rows = []
            for row in _read_csv(os.path.join(out_dir, f"{prefix}_sweep.csv"), raw=("status",)):
                status = row.pop("status")
                row.pop("index")
                rows.append({"status": status, "values": row})
            return {"rows": rows, "returned_statuses": returned["statuses"]}
        grid = _read_csv(os.path.join(out_dir, f"{prefix}_gap.csv"))
        match = _GAP_LINE.search(returned["stderr"])
        if match is None:
            raise ValueError(f"no minimal-gap line in {returned['stderr']!r}")
        gaps = [row["gap"] for row in grid]
        argmin = min(range(len(gaps)), key=gaps.__getitem__)
        return {
            "gap": float(match.group(1)),
            "s_star": float(match.group(2)),
            "grid_points": len(grid),
            "levels": sum(1 for key in grid[0] if key.startswith("E")),
            "grid_min_gap": gaps[argmin],
            "grid_argmin": argmin,
            "gap_sum": sum(gaps),
            "e0_sum": sum(row["E0"] for row in grid),
        }


def _read_csv(path: str, raw: tuple[str, ...] = ()) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: (v if k in raw else float(v) if v else None) for k, v in row.items()}
                for row in csv.DictReader(fh)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate_nb2", "simulate"),
        Workload("simulate_finite_pulse", "simulate"),
        Workload("sweep_nb1", "sweep"),
        Workload("gap_n8", "gap"),
    )
}
