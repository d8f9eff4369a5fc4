"""Set-up probe: import aqc_shield, load and validate one workload's INI,
and build the first model.  The caller times this fresh interpreter from
start to exit.

    python3 perfbench/probe.py simulate|sweep|gap path/to/workload.ini
"""

from __future__ import annotations

import sys

import bootstrap

bootstrap.prepare()

from aqc_shield import config, runner  # noqa: E402


def main(argv: list[str]) -> int:
    kind, path = argv
    if kind == "sweep":
        runner.build_model(runner.sweep_points(config.load_sweep(path))[0])
    else:
        runner.build_model(config.load_config(path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
