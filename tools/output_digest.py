"""SHA-256 of every output the benchmark workloads produce, one line per file.

Usage, from the repository root:

    python tools/output_digest.py > digests.txt

Each ``perfbench/workloads/*.ini``, and ``SCALING_RULE`` below as
``simulate_scaling_rule``, runs at bath seeds 1234, 1241 and 1248 in a
temporary directory, through the CLI: ``simulate`` for the ``simulate_*``
configurations (report CSV and JSON), ``sweep`` for ``sweep_nb1`` (sweep
CSV) and ``gap`` for ``gap_n8`` (gap CSV).  No workload sets a scaling rule,
so ``SCALING_RULE`` is the one run whose ``pred8`` is not ``None``; its
finite pulse width also makes the budget's ``term2`` nonzero.  Each simulate
configuration is also run through ``runner.execute_experiment``, and its
coupled and twin ``u_total`` and its closed final state are saved as ``.npy``
files, with the bath Hamiltonian ``h_b`` and the coupling ``h_sb`` that
``model.linear_decoherence`` builds from the configuration.  After the
digests, each ``gap`` run's summary line (``minimal gap ... at s*=...``),
which goes to standard error and into no file, is printed as it stands, and
then the margin of every check in ``verify.ALL_CHECKS`` with ``repr``, one
line per check (the runtime budget, which is no margin, is left out), and
last each simulate run's ``report.budget6`` (the three Phi-budget terms,
their total and both flags), ``report.pred8`` and the twin's error phase
``uncoupled.phi``, with ``repr``; these reach no file.  A refactor that claims byte-identical outputs is checked by one
``diff`` of the listings of the two commits.  Logs go to standard error;
nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import configparser
import contextlib
import glob
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from aqc_shield import cli, config, model, runner, verify  # noqa: E402

BATH_SEEDS = (1234, 1241, 1248)

# tau = 1/32, w = 1/256 and L = 116 at n = 4, so T = 4.078125
SCALING_RULE = """\
[model]
n = 4
n_b = 1
j = 1

[protocol]
zeta = 1
epsilon1 = 1.5
epsilon2 = 0.5

[run]
tolerance = 1e-8

[output]
prefix = simulate_scaling_rule
"""


def _command(name: str) -> str:
    for prefix in ("sweep", "gap"):
        if name.startswith(prefix):
            return prefix
    return "simulate"


def _write_ini(source: str, seed: int, out_dir: str) -> str:
    """``source`` with ``model.seed`` and the output directory set."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(source, encoding="utf-8")
    parser["model"]["seed"] = str(seed)
    parser["output"]["out_dir"] = out_dir
    path = out_dir + ".ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def _save_run_states(path: str, out_dir: str) -> list[str]:
    """Save the run's states and return its ``budget6``, ``pred8`` and twin
    Phi lines."""
    cfg = config.load_config(path)
    result = runner.execute_experiment(cfg)
    m = cfg.model
    bath = model.linear_decoherence(m.n, m.n_b, m.j, m.seed, beta_b=m.beta_b)
    arrays = {
        "coupled_u_total": result.coupled.u_total,
        "twin_u_total": result.uncoupled.u_total,
        "closed_psi_final": result.closed.psi_final,
        "h_b": bath.h_b,
        "h_sb": bath.h_sb,
    }
    for label, array in arrays.items():
        np.save(os.path.join(out_dir, f"{label}.npy"), array)
    report = result.report
    return [f"budget6: {report.budget6!r}", f"pred8: {report.pred8!r}",
            f"twin phi: {result.uncoupled.phi!r}"]


def _margins() -> list[str]:
    """``name: repr(margin)`` for every check of ``verify.ALL_CHECKS``, run as
    ``verify.verify`` runs them."""
    reports: dict = {}
    return [f"margin {name}: {verify.run_check(check, reports)!r}"
            for name, check in verify.ALL_CHECKS]


def main() -> int:
    summaries, budgets = [], []
    with tempfile.TemporaryDirectory() as tmp:
        scaling = os.path.join(tmp, "simulate_scaling_rule.ini")
        with open(scaling, "w", encoding="utf-8") as fh:
            fh.write(SCALING_RULE)
        workloads = sorted(glob.glob(os.path.join(ROOT, "perfbench", "workloads", "*.ini")))
        for source in workloads + [scaling]:
            name = os.path.splitext(os.path.basename(source))[0]
            command = _command(name)
            for seed in BATH_SEEDS:
                out_dir = os.path.join(tmp, f"{name}-{seed}")
                path = _write_ini(source, seed, out_dir)
                log = io.StringIO()
                with contextlib.redirect_stderr(log):
                    code = cli.main([command, path])
                sys.stderr.write(log.getvalue())
                print(f"{name} seed {seed}: {command} exit {code}", file=sys.stderr)
                if command == "simulate":
                    budgets += [f"{name}-{seed}: {line}"
                                for line in _save_run_states(path, out_dir)]
                if command == "gap":
                    summaries += [f"{name}-{seed}: {line}" for line in log.getvalue().splitlines()
                                  if line.startswith("minimal gap")]
        for path in sorted(glob.glob(os.path.join(tmp, "*", "*"))):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {os.path.relpath(path, tmp)}")
    for line in summaries + _margins() + budgets:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
