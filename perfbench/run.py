"""Benchmark of aqc-shield: one workload, timed end to end (--trace 0) or
traced layer by layer (--trace 1).

    python3 perfbench/run.py --workload simulate_nb2 --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout; it imports the package from src/ and
needs no build.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it hold
the environment and the per-operation samples.  perfbench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys

import bootstrap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap.source_present():
        print(f"perfbench: no aqc_shield package under {bootstrap.SRC}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    bootstrap.prepare()
    import measure

    return measure.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
