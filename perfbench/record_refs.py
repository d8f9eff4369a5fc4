"""Record the reference outputs that the benchmark's gate compares against.

Run it from the repository root at the commit whose outputs define
"correct"; it rewrites perfbench/refs.json:

    python3 perfbench/record_refs.py [--workload NAME ...] [--label TEXT]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import bootstrap

bootstrap.prepare()

import aqc_shield  # noqa: E402
import workloads  # noqa: E402

REFS_PATH = os.path.join(workloads.HERE, "refs.json")


def record(workload: workloads.Workload, seed: int, work_dir: str) -> dict:
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    loaded = workload.load(workload.write_ini(seed, work_dir))
    out_dir = os.path.join(work_dir, "out")
    returned = workload.run(loaded, out_dir, workloads.sweep_workers())
    outputs = workload.read_outputs(loaded, out_dir, returned)
    outputs.pop("returned_statuses", None)
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--label", default="", help="where the references come from")
    args = parser.parse_args(argv)
    refs = {"label": args.label, "workloads": {}}
    if os.path.exists(REFS_PATH):
        with open(REFS_PATH, encoding="utf-8") as fh:
            refs = json.load(fh)
        refs["label"] = args.label or refs.get("label", "")
    refs["aqc_shield_version"] = aqc_shield.__version__
    work_root = os.path.join(workloads.HERE, "_work", "refs")
    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        per_seed = {}
        for seed in range(workloads.REF_SEEDS):
            per_seed[str(workloads.bath_seed(seed))] = record(workload, seed, work_root)
            print(f"{name} seed {seed} recorded", flush=True)
        refs["workloads"][name] = per_seed
        with open(REFS_PATH, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    shutil.rmtree(work_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
