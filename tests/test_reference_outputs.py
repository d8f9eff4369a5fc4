"""The shipped benchmark workloads against their recorded reference outputs.

Each case writes a workload's INI at bath seed 1234 (benchmark seed 0), runs
one operation through ``perfbench/workloads.py`` and passes what it wrote
through the reference gate of ``perfbench/gate.py``, which allows every
propagated value to move by 10 x the run tolerance.  One more case checks
that every coupled exponent of ``simulate_nb2`` is anti-Hermitian and needs
no squaring.  Nothing under ``perfbench/`` is written.
"""

import json
import os
import sys

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import gate  # noqa: E402
import workloads  # noqa: E402
from aqc_shield import engine, linalg, runner  # noqa: E402

SEED = 0


@pytest.mark.parametrize("name", ["simulate_nb2", "simulate_finite_pulse", "gap_n8"])
def test_workload_matches_reference(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    assert workloads.bath_seed(SEED) == 1234
    with open(os.path.join(PERFBENCH, "refs.json"), encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"][name][str(workloads.bath_seed(SEED))]
    loaded = workload.load(workload.write_ini(SEED, str(tmp_path)))
    out_dir = str(tmp_path / "out")
    returned = workload.run(loaded, out_dir, workers=1)
    got = workload.read_outputs(loaded, out_dir, returned)
    tolerance = workload.base_config(loaded).run.tolerance
    assert gate.check(workload.kind, got, ref, tolerance) == []


def test_simulate_nb2_coupled_exponentials_need_no_squaring(tmp_path, monkeypatch):
    # Bath seed 1235 gives the largest theta = sqrt(||A^2||_1) of any coupled
    # step over the benchmark's 16 seeds (0.1204); at or below
    # EXPM8_THETA each d = 64 exponential takes three products and no squaring.
    # The step hands its exponents over unchecked; each must be anti-Hermitian
    # within 1e-9, the tolerance a per-step check would apply.
    workload = workloads.WORKLOADS["simulate_nb2"]
    assert workloads.bath_seed(1) == 1235
    cfg = workload.load(workload.write_ini(1, str(tmp_path)))
    thetas, deviations = [], []
    expm = engine.expm_antihermitian

    def spy(a):
        if a.shape[0] == 64:
            thetas.append(engine._hermitian_norm_bound(a))
            deviations.append(float(np.max(np.abs(a + a.conj().T))))
        return expm(a)

    monkeypatch.setattr(engine, "expm_antihermitian", spy)
    runner.execute_experiment(cfg)
    assert len(thetas) == 256
    assert max(thetas) <= linalg.EXPM8_THETA
    assert max(deviations) <= 1e-9
