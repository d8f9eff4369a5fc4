import json
import math

import numpy as np
import pytest

from conftest import random_density
from aqc_shield.linalg import partial_trace
from aqc_shield.metrics import (
    CSV_COLUMNS,
    RunMeta,
    csv_header,
    dd_error_prediction,
    error_report,
    format_number,
    phi_budget,
    trace_distance,
)
from aqc_shield.protocols import ScalingRule

# Frozen by direct evaluation of the third budget term at
# 2*beta*Tc = 0.08: JT * ((e^0.08 - 1)/0.08 - 1) with JT = 1.
BUDGET_TERM3 = 0.04108834593698243


class TestTraceDistance:
    def test_identical(self, rng):
        rho = random_density(rng, 4)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-14)

    def test_zero_vs_plus(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert trace_distance(zero, plus) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            trace_distance(np.eye(2, dtype=complex), np.eye(4, dtype=complex))

    def test_partial_trace_monotone(self, rng):
        for _ in range(20):
            rho = random_density(rng, 8)
            sigma = random_density(rng, 8)
            full = trace_distance(rho, sigma)
            reduced = trace_distance(
                partial_trace(rho, (2, 4), (0,)),
                partial_trace(sigma, (2, 4), (0,)),
            )
            assert reduced <= full + 1e-12


class TestPhiBudget:
    def test_frozen_example(self):
        b = phi_budget(j_coupling=0.1, total_time=10.0, w=0.0, tau=0.01,
                       k_pulses=4, l_pulses=400, beta=1.0)
        assert b.term1 == pytest.approx(0.01, abs=1e-12)
        assert b.term2 == 0.0
        assert b.term3 == pytest.approx(BUDGET_TERM3, abs=1e-12)
        assert b.total == pytest.approx(b.term1 + b.term2 + b.term3, abs=1e-15)
        assert b.third_term_ok and b.magnus_convergent

    def test_zero_width_kills_second_term(self):
        b = phi_budget(0.2, 5.0, 0.0, 0.05, 4, 100, beta=2.0)
        assert b.term2 == 0.0

    def test_finite_width_second_term(self):
        b = phi_budget(0.2, 5.0, 0.01, 0.04, 4, 100, beta=2.0)
        assert b.term2 == pytest.approx(0.2 * 5.0 * 0.01 / 0.05, rel=1e-12)

    def test_term1_halves_when_l_doubles(self):
        b1 = phi_budget(0.1, 10.0, 0.0, 0.01, 4, 400, beta=1.0)
        b2 = phi_budget(0.1, 10.0, 0.0, 0.005, 4, 800, beta=1.0)
        assert b2.term1 == pytest.approx(b1.term1 / 2, rel=1e-12)

    def test_validity_flags(self):
        # large beta*Tc makes the third term exceed JT and breaks convergence
        b = phi_budget(2.0, 10.0, 0.0, 0.5, 4, 80, beta=5.0)
        assert not b.third_term_ok
        assert not b.magnus_convergent


class TestPrediction:
    def test_frozen_example(self):
        rule = ScalingRule(zeta=1.0, epsilon1=1.5, epsilon2=0.5)
        t1, t2, t3, total = dd_error_prediction(rule, 4)
        assert t1 == pytest.approx(0.125, abs=1e-15)
        assert t2 == pytest.approx(0.5, abs=1e-15)
        assert t3 == pytest.approx(0.5, abs=1e-15)
        assert total == pytest.approx(1.125, abs=1e-15)

    def test_monotone_decrease(self):
        rule = ScalingRule(zeta=1.0, epsilon1=1.5, epsilon2=0.5)
        totals = [dd_error_prediction(rule, n)[3] for n in (2, 4, 8, 16, 64)]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_doubling_eps2_squares_middle_ratio(self):
        a = ScalingRule(zeta=1.0, epsilon1=1.5, epsilon2=0.5)
        b = ScalingRule(zeta=1.0, epsilon1=1.5, epsilon2=1.0)
        n = 9
        mid_a = dd_error_prediction(a, n)[1]
        mid_b = dd_error_prediction(b, n)[1]
        assert mid_b == pytest.approx(mid_a ** 2, rel=1e-12)

    def test_small_n_rejected(self):
        rule = ScalingRule(zeta=1.0, epsilon1=1.5, epsilon2=0.5)
        with pytest.raises(ValueError, match="at least 2"):
            dd_error_prediction(rule, 1)


class TestSerialization:
    def test_header(self):
        assert csv_header() == ("n,J,tau,w,K,L,T,delta_ad,d_D,delta_S,d_tot,"
                                "phi,slack_eq3,slack_eq5")

    def test_number_format_roundtrip(self):
        for x in (0.1, 1 / 3, 2 ** -37, 1234.5678901234567):
            assert float(format_number(x)) == x
        assert format_number(7) == "7"

    def test_report_row_and_json(self):
        from aqc_shield.engine import ClosedRun, RunArtifacts

        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        art = RunArtifacts(
            u_total=np.eye(4, dtype=complex), rho_final=rho,
            rho_s_final=partial_trace(rho, (2, 2), (0,)),
            phi=0.0,
            diagnostics={"total_time": 1.0},
        )
        closed = ClosedRun(psi_final=np.array([1.0, 0.0]), delta_ad=0.0)
        ideal = np.diag([1.0, 0.0]).astype(complex)
        meta = RunMeta(n=1, j_coupling=0.0, tau=0.25, w=0.0, k_pulses=4,
                       l_pulses=4, total_time=1.0)
        report = error_report(art, art, closed, ideal, meta=meta)
        row = report.csv_row().split(",")
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == "1" and row[2] == "0.25"
        data = json.loads(report.json_summary())
        assert set(CSV_COLUMNS) <= set(data)
        for name in ("monotonic", "triangle", "eq3", "eq5"):
            assert data[f"verdict_{name}"] is True
        assert report.all_bounds_hold


class TestErrorReport:
    def test_j_zero_distances(self):
        # identical twins: d_D is exactly zero and delta_S tracks delta_ad
        from aqc_shield.config import ExperimentConfig
        from aqc_shield.runner import execute_experiment

        cfg = ExperimentConfig()
        cfg.model.j = 0.0
        cfg.protocol.tau = 0.25
        cfg.protocol.total_time = 2.0
        cfg.run.tolerance = 1e-10
        result = execute_experiment(cfg)
        assert result.report.d_d == 0.0
        assert abs(result.report.delta_s - result.report.delta_ad) <= 1e-9
        assert result.report.slacks["eq3"] >= 0
        assert result.report.slacks["monotonic"] >= 0
        assert result.report.slacks["triangle"] >= 0

    def test_provenance_mismatch_rejected(self):
        from aqc_shield.engine import ClosedRun, RunArtifacts

        def art(total_time):
            rho = np.eye(4, dtype=complex) / 4
            return RunArtifacts(
                u_total=np.eye(4, dtype=complex), rho_final=rho,
                rho_s_final=np.eye(2, dtype=complex) / 2,
                phi=0.0,
                diagnostics={"total_time": total_time},
            )

        closed = ClosedRun(psi_final=np.array([1.0, 0.0]), delta_ad=0.0)
        ideal = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError, match="timing"):
            error_report(art(1.0), art(2.0), closed, ideal)


class TestPrintedPhiConstant:
    # The printed phi-distance relation d_D <= (e^Phi - 1)/2 is not a theorem
    # for Phi = T||H_eff|| (operator norm) and D = (1/2)||rho1 - rho2||_1: a
    # single qubit under U = diag(e^{-i Phi}, e^{i Phi}) moves |+> by exactly
    # sin Phi, which exceeds (e^Phi - 1)/2 for 0 < Phi <= 0.9.
    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9])
    def test_two_level_counterexample(self, phi):
        from aqc_shield.engine import effective_hamiltonian

        u = np.diag([np.exp(-1j * phi), np.exp(1j * phi)])
        _, measured_phi = effective_hamiltonian(u, 1.0)
        assert measured_phi == pytest.approx(phi, abs=1e-12)

        plus = np.full((2, 2), 0.5, dtype=complex)
        distance = trace_distance(u @ plus @ u.conj().T, plus)
        assert distance == pytest.approx(math.sin(phi), abs=1e-12)
        assert distance > math.expm1(phi) / 2
