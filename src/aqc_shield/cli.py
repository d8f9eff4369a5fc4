"""Command-line interface.

Subcommands: ``simulate <cfg>``, ``sweep <cfg>``, ``gap <cfg>``,
``code --n <n>``, ``verify``.  Data goes to files under the output
directory (or stdout for ``code`` and ``verify`` reports); logs go to
standard error.  The ``AQC_SHIELD_OUT`` environment variable overrides the
configured output directory; ``--out-dir`` overrides both.
``simulate`` and ``sweep`` also take ``--seed`` and ``--tolerance``; ``gap``
does not, since it builds no bath and propagates nothing, so neither value
could change its output.
"""

from __future__ import annotations

import argparse
import sys

from . import codes, runner, verify
from .config import ConfigError, load_config, load_sweep, validate_config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the model seed")
    parser.add_argument("--out-dir", default=None, help="override the output directory")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the integrator tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqc-shield",
        description="Decoupling-protected adiabatic evolution: simulate, sweep, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configuration")
    p_sim.add_argument("config")
    _add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="run the [sweep] axes of a configuration")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--parallel", type=int, default=1, help="worker pool size")
    _add_common(p_sweep)

    p_gap = sub.add_parser("gap", help="emit the spectral-gap CSV for a configuration")
    p_gap.add_argument("config")
    p_gap.add_argument("--grid-points", type=int, default=101)
    p_gap.add_argument("--out-dir", default=None, help="override the output directory")

    p_code = sub.add_parser("code", help="print codewords and logical operators")
    p_code.add_argument("--n", type=int, required=True, help="physical qubits (even)")

    sub.add_parser("verify", help="run the property suite")
    return parser


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg.model.seed = args.seed
    if args.tolerance is not None:
        cfg.run.tolerance = args.tolerance
    validate_config(cfg)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = _apply_overrides(load_config(args.config), args)
            report, code = runner.run_experiment(cfg, out_dir=args.out_dir)
            print(f"simulate: bounds {'pass' if code == 0 else 'FAIL'} "
                  f"(delta_S={report.delta_s:.3e}, d_D={report.d_d:.3e}, "
                  f"phi={report.phi:.3e})", file=sys.stderr)
            return code
        if args.command == "sweep":
            sweep = load_sweep(args.config)
            _apply_overrides(sweep.base, args)
            rows = runner.run_sweep(sweep, parallelism=max(1, args.parallel),
                                    out_dir=args.out_dir)
            bad = sum(1 for _, status, _ in rows if status != "ok")
            print(f"sweep: {len(rows)} points, {bad} failed", file=sys.stderr)
            return runner.EXIT_OK if bad == 0 else runner.EXIT_ERROR
        if args.command == "gap":
            cfg = load_config(args.config)
            path = runner.write_gap_csv(cfg, out_dir=args.out_dir,
                                        grid_points=args.grid_points)
            print(f"gap table written to {path}", file=sys.stderr)
            return runner.EXIT_OK
        if args.command == "code":
            code_obj, logical = codes.code_from_universal_group(args.n)
            print(codes.format_code(code_obj, logical))
            return runner.EXIT_OK
        if args.command == "verify":
            failures = verify.verify()
            return runner.EXIT_OK if failures == 0 else runner.EXIT_ERROR
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return runner.EXIT_ERROR
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return runner.EXIT_ERROR
    return runner.EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
