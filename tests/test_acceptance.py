"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and asserts
its criterion at the stated tolerance.  Criteria 1, 2, 3, 8 and 9 assert
the margins of checks registered in ``aqc_shield.verify.ALL_CHECKS``, read
from the session memo ``registry_margin`` (tests/conftest.py), so no check
runs twice in one session.  The sweep criteria share one module-scoped
batch of paired runs: n = 4 encoded, one or two bath qubits, coupling
strengths {0.05, 0.1, 0.2}, and a pulse-interval halving ladder at fixed
total time.

Criterion 5 asserts the sharp phi-distance bound
d_D <= sin(Phi_c) + sin(Phi_u) (each phase capped at pi/2, the sum at 1)
and that the report's eq5 slack and verdict evaluate the printed form
d_D <= (e^Phi - 1)/2.  The printed constant itself is only reported, not
asserted: with Phi = T||H_eff|| in the operator norm it is not a theorem
(a single qubit under diag(e^{-i Phi}, e^{i Phi}) moves |+> by sin Phi,
more than (e^Phi - 1)/2 for Phi <= 0.9; see the two-level test in
test_metrics), and the one-bath-qubit runs exceed it by ~14%.
"""

import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from aqc_shield import cli, runner
from aqc_shield.codes import erred_state_energy, universal_group
from aqc_shield.config import ExperimentConfig
from aqc_shield.engine import run_closed_adiabatic
from aqc_shield.metrics import VERDICT_SLACK
from aqc_shield.model import AdiabaticSpec, Schedule
from aqc_shield.pauli import PauliString

SWEEP_TOTAL_TIME = 8.0
SWEEP_J = (0.05, 0.1, 0.2)
SWEEP_N_B = (1, 2)
SWEEP_TAU = (0.25, 0.125, 0.0625, 0.03125)


def sweep_config(j, n_b, tau, group="universal", total_time=SWEEP_TOTAL_TIME):
    cfg = ExperimentConfig()
    cfg.model.j = j
    cfg.model.n_b = n_b
    cfg.protocol.group = group
    cfg.protocol.tau = tau
    cfg.protocol.total_time = total_time
    cfg.run.tolerance = 1e-8
    return cfg


@pytest.fixture(scope="module")
def sweep_results():
    configs = [
        sweep_config(j, n_b, tau)
        for j, n_b, tau in itertools.product(SWEEP_J, SWEEP_N_B, SWEEP_TAU)
    ]
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(runner.execute_experiment, configs))
    return list(zip(configs, results))


@pytest.fixture(scope="module")
def tau_ladder(sweep_results):
    # criterion 6: one more halving level above the sweep ladder, plus the
    # free-evolution baseline, all at fixed total time and J = 0.1; the
    # ladder's own levels are the sweep's J = 0.1, n_b = 1 runs
    taus = (0.5,) + SWEEP_TAU
    swept = {cfg.protocol.tau: result for cfg, result in sweep_results
             if cfg.model.j == 0.1 and cfg.model.n_b == 1}
    results = [runner.execute_experiment(sweep_config(0.1, 1, taus[0]))]
    results += [swept[tau] for tau in SWEEP_TAU]
    baseline = runner.execute_experiment(sweep_config(0.1, 1, 0.25, group="none"))
    return taus, results, baseline


def report_line(ok, text):
    print(("PASS " if ok else "FAIL ") + text)
    return ok


def test_criterion_1_codeword_golden(registry_margin, capsys):
    expected = {
        "00": ("0000", "1111"),
        "10": ("0011", "1100"),
        "01": ("0101", "1010"),
        "11": ("1001", "0110"),
    }
    # the fidelities to this table are asserted by verify.check_codeword_golden
    margin = registry_margin("codes.codeword_golden_n4")
    assert cli.main(["code", "--n", "4"]) == 0
    out = capsys.readouterr().out
    for label, (a, b) in expected.items():
        first, second = sorted((a, b))
        assert f"{label}: (|{first}⟩+|{second}⟩)/√2" in out
    with capsys.disabled():
        assert report_line(margin >= 0, f"criterion 1: codeword table exact "
                                        f"(worst fidelity defect {1e-12 - margin:.2e})")


def test_criterion_2_decoupling_annihilation(registry_margin, capsys):
    # verify.check_universal_annihilation: n = 2, 4 and bath seeds 0-9
    margin = registry_margin("codes.universal_annihilation")
    with capsys.disabled():
        assert report_line(margin >= 0,
                           f"criterion 2: group average annihilates the linear coupling "
                           f"(worst norm {1e-12 - margin:.2e})")


def test_criterion_3_non_interference(registry_margin, capsys):
    # verify.check_noninterference: 20 sampled s on the encoded preset
    margin = registry_margin("codes.noninterference_encoded")
    with capsys.disabled():
        assert report_line(margin >= 0,
                           f"criterion 3: encoded Hamiltonian commutes with every pulse "
                           f"generator (worst commutator {1e-12 - margin:.2e})")


def test_criterion_4_bound_chain(sweep_results, capsys):
    assert len(sweep_results) >= 20
    worst_eq3 = min(r.report.slacks["eq3"] for _, r in sweep_results)
    worst_tri = min(r.report.slacks["triangle"] for _, r in sweep_results)
    ok = worst_eq3 >= 0 and worst_tri >= 0
    with capsys.disabled():
        assert report_line(ok,
                           f"criterion 4: bound chain on {len(sweep_results)} runs "
                           f"(min eq3 slack {worst_eq3:.2e}, min triangle slack {worst_tri:.2e})")


def test_criterion_5_phi_distance_as_printed(sweep_results, capsys):
    # Sharp bound.  Both runs are F W rho W^dag F^dag with the same frame F;
    # after the global phase is divided out, the eigenphases of the
    # interaction-frame unitary W lie in [-Phi, Phi].  For Phi <= pi/2 and a
    # pure state, |<psi|W|psi>| >= cos Phi, so D(W psi W^dag, psi) <= sin Phi;
    # convexity of the trace distance extends this to mixed rho.  Then
    # d_D = D(W_c rho W_c^dag, W_u rho W_u^dag)
    #     <= D(W_c rho W_c^dag, rho) + D(rho, W_u rho W_u^dag)
    #     <= sin Phi_c + sin Phi_u.
    checked = 0
    worst_sharp = 0.0
    violations = 0
    worst_printed = 0.0
    for _, result in sweep_results:
        rep = result.report
        phi_c = result.coupled.phi
        phi_u = result.uncoupled.phi
        sharp = min(1.0, math.sin(min(phi_c, math.pi / 2))
                    + math.sin(min(phi_u, math.pi / 2)))
        assert rep.d_d <= sharp + VERDICT_SLACK
        worst_sharp = max(worst_sharp, rep.d_d / sharp)

        # the report evaluates the printed form at the coupled run's phase
        assert rep.phi == phi_c
        printed = min(1.0, math.expm1(phi_c) / 2)
        slack = rep.slacks["eq5"]
        assert slack == pytest.approx(printed + VERDICT_SLACK - rep.d_d, rel=0, abs=1e-15)
        assert rep.verdicts["eq5"] == (slack >= 0)
        if rep.d_d > printed + VERDICT_SLACK:
            violations += 1
        worst_printed = max(worst_printed, rep.d_d / printed)
        checked += 1
    assert checked == len(sweep_results) == len(SWEEP_J) * len(SWEEP_N_B) * len(SWEEP_TAU)
    with capsys.disabled():
        report_line(True,
                    f"criterion 5: d_D <= sin(Phi_c) + sin(Phi_u) on {checked} runs "
                    f"(max ratio {worst_sharp:.3f}); eq5 slack and verdict match the "
                    f"printed form")
        print(f"  printed form d_D <= (e^Phi - 1)/2: {violations} of {checked} runs "
              f"violate it, worst ratio {worst_printed:.3f} (not asserted)")


def test_criterion_5_companion_forms(sweep_results, capsys):
    # the two provable forms of the same chain, asserted at the same slack
    ok = True
    for _, result in sweep_results:
        rep = result.report
        if rep.phi <= 1.0:
            ok &= rep.d_d <= math.expm1(2 * rep.phi) / 2 + VERDICT_SLACK
            ok &= rep.d_d <= rep.phi + VERDICT_SLACK
    with capsys.disabled():
        assert report_line(ok, "criterion 5 (companions): Dyson form and d_D <= Phi hold "
                               "on every run")


def test_criterion_6_dd_suppression(tau_ladder, capsys):
    taus, results, baseline = tau_ladder
    d_ds = [r.report.d_d for r in results]
    phis = [r.report.phi for r in results]
    slope = float(np.polyfit(np.log(taus), np.log(d_ds), 1)[0])
    ratio = baseline.report.d_d / d_ds[-1]
    monotone_phi = all(a > b for a, b in zip(phis, phis[1:]))
    ok = 0.8 <= slope <= 2.2 and ratio >= 5.0 and monotone_phi
    with capsys.disabled():
        assert report_line(ok,
                           f"criterion 6: ideal-pulse suppression slope {slope:.3f} in "
                           f"[0.8, 2.2], smallest-tau d_D is 1/{ratio:.0f} of the "
                           f"free-evolution baseline, Phi monotone in tau")


def test_criterion_7_adiabatic_scaling(capsys):
    h0 = [(-1.0, PauliString.from_letters("XI")), (-1.0, PauliString.from_letters("IX"))]
    h1 = [(-1.0, PauliString.from_letters("ZI")), (-1.0, PauliString.from_letters("IZ")),
          (-0.5, PauliString.from_letters("ZZ"))]
    spec = AdiabaticSpec(n=2, h0_terms=h0, h1_terms=h1, schedule=Schedule("smooth-endpoint"))
    dilations = (1, 2, 4, 8)
    deltas = [run_closed_adiabatic(spec, r * 8.0).delta_ad for r in dilations]
    slope = float(np.polyfit(np.log(dilations), np.log(deltas), 1)[0])
    below_quadratic = all(d < r ** -2.0 for d, r in zip(deltas, dilations))
    ok = slope <= -1.5 and below_quadratic
    with capsys.disabled():
        assert report_line(ok,
                           f"criterion 7: closed-run error slope {slope:.2f} <= -1.5 with "
                           f"delta_ad < r^-2 at every dilation")


def test_criterion_8_penalty_spectrum(registry_margin, capsys):
    # verify.check_penalty_spectrum: H_P on the codeword and 12 erred states
    margin = registry_margin("codes.penalty_spectrum_oracle")
    ep = 0.7
    group = universal_group(4)
    k = group.order
    lines = []
    for site in range(4):
        for letter in "XYZ":
            per_ep, a = erred_state_energy(group, PauliString.single(4, site, letter))
            lines.append(
                f"  error {letter}{site + 1}: a={a}, eigenvalue {per_ep * ep:+.3f}, "
                f"gap 2aE_P={2 * a * ep:.3f} (printed closed form a(K-1)E_P="
                f"{a * (k - 1) * ep:.3f}, not asserted)"
            )
    with capsys.disabled():
        ok = report_line(margin >= 0,
                         f"criterion 8: penalty spectrum oracle over 12 single-qubit errors "
                         f"(worst residual {1e-12 - margin:.2e})")
        for line in lines[:3] + ["  ..."]:
            print(line)
        assert ok


def test_criterion_9_budget_evaluators_and_alpha(sweep_results, registry_margin, capsys):
    # frozen examples of phi_budget and dd_error_prediction
    eval_ok = (registry_margin("metrics.budget_values") >= 0
               and registry_margin("metrics.prediction_values") >= 0)

    # alpha calibration: smallest constant making the first budget term
    # cover the measured phase left over after the other two terms
    alpha = 0.0
    for _, result in sweep_results:
        b = result.report.budget6
        residual = result.report.phi - b.term2 - b.term3
        if residual > 0 and b.term1 > 0:
            alpha = max(alpha, residual / b.term1)
    ok = eval_ok and alpha <= 10.0
    with capsys.disabled():
        assert report_line(ok,
                           f"criterion 9: budget evaluators exact to 1e-12; calibrated "
                           f"alpha = {alpha:.3f} <= 10")


def test_criterion_10_determinism(tmp_path, capsys):
    cfg_text = (
        "[model]\nn = 4\nj = 0.1\n\n"
        "[protocol]\ntau = 0.25\ntotal_time = 2.0\n\n"
        "[run]\ntolerance = 1e-8\n\n"
        f"[output]\nout_dir = {tmp_path / 'out'}\n"
    )
    path = tmp_path / "exp.cfg"
    path.write_text(cfg_text)
    cli.main(["simulate", str(path)])
    first_csv = (tmp_path / "out" / "run_report.csv").read_bytes()
    first_json = (tmp_path / "out" / "run_summary.json").read_bytes()
    cli.main(["simulate", str(path)])
    ok = ((tmp_path / "out" / "run_report.csv").read_bytes() == first_csv
          and (tmp_path / "out" / "run_summary.json").read_bytes() == first_json)

    sweep_text = cfg_text + "\n[sweep]\nprotocol.tau = 0.5, 0.25\n"
    sweep_path = tmp_path / "sweep.cfg"
    sweep_path.write_text(sweep_text)
    cli.main(["sweep", str(sweep_path), "--parallel", "1",
              "--out-dir", str(tmp_path / "s1")])
    cli.main(["sweep", str(sweep_path), "--parallel", "2",
              "--out-dir", str(tmp_path / "s2")])
    ok &= ((tmp_path / "s1" / "run_sweep.csv").read_bytes()
           == (tmp_path / "s2" / "run_sweep.csv").read_bytes())
    json.loads(first_json)  # summary stays valid JSON
    with capsys.disabled():
        assert report_line(ok, "criterion 10: byte-identical reruns and "
                               "parallelism-independent sweep output")
