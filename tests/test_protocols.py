import math

import numpy as np
import pytest

from aqc_shield.codes import global_x_group, trivial_group, universal_group
from aqc_shield.engine import piece_index, protected_hamiltonian
from aqc_shield.linalg import expm_hermitian, op_norm
from aqc_shield.model import AdiabaticSpec, linear_decoherence
from aqc_shield.pauli import PauliString, to_dense
from aqc_shield.protocols import (
    ScalingRule,
    pdd_schedule,
    pulse_generator,
    scaled_parameters,
)


def control_generator(schedule):
    """The generator the integrator propagates for the uncoupled twin of a
    2-qubit model under ``schedule``; H_C(t) is its piece at t minus piece 0."""
    spec = AdiabaticSpec(
        n=2,
        h0_terms=[(-1.0, PauliString.from_letters("XI")), (-1.0, PauliString.from_letters("IX"))],
        h1_terms=[(-0.5, PauliString.from_letters("ZZ"))],
    )
    bath = linear_decoherence(2, 1, 0.1, seed=5)
    return protected_hamiltonian(spec, bath, schedule, include_coupling=False)


def control_at(gen, t):
    return gen.pieces[piece_index(gen, t)] - gen.pieces[0]


class TestPddSchedule:
    def test_universal_cycle_is_identity(self):
        for n in (2, 4):
            schedule = pdd_schedule(universal_group(n), 0.1, 0.0, 1)
            assert len(schedule.pulses) == 4
            prod = np.eye(1 << n, dtype=complex)
            for p in schedule.pulses:
                prod = to_dense(p) @ prod
            # telescoping product is exactly the identity, no global phase
            assert np.max(np.abs(prod - np.eye(1 << n))) <= 1e-12

    def test_total_time(self):
        schedule = pdd_schedule(universal_group(2), 0.3, 0.05, 5)
        assert schedule.total_pulses == 20
        assert schedule.total_time == pytest.approx(20 * 0.35)
        assert schedule.cycle_time == pytest.approx(4 * 0.35)

    def test_ideal_limit_has_zero_control(self):
        # w = 0: no window pieces, so the generator carries no control
        gen = control_generator(pdd_schedule(universal_group(2), 0.2, 0.0, 2))
        assert len(gen.pieces) == 1 and gen.switches == ()

    def test_pulse_widths_validated(self):
        g = universal_group(2)
        with pytest.raises(ValueError, match="positive"):
            pdd_schedule(g, 0.0, 0.0, 1)
        with pytest.raises(ValueError, match="w="):
            pdd_schedule(g, 0.1, 0.1, 1)
        with pytest.raises(ValueError, match="cycle"):
            pdd_schedule(g, 0.1, 0.0, 0)

    def test_trivial_group_schedules_free_evolution(self):
        schedule = pdd_schedule(trivial_group(2), 0.5, 0.0, 3)
        assert schedule.total_pulses == 3
        assert all(p.is_identity() for p in schedule.pulses)


class TestPulseGenerator:
    def test_identity_pulse(self):
        gen = pulse_generator(PauliString.identity(2), 0.1)
        assert np.count_nonzero(gen) == 0

    def test_exponentiates_to_pulse(self):
        p = PauliString.from_letters("X")
        gen = pulse_generator(p, 0.1)
        assert np.max(np.abs(expm_hermitian(gen, 0.1) - to_dense(p))) <= 1e-12

    def test_negative_phase_pulse(self):
        p = PauliString(-1 + 0j, "XX")
        gen = pulse_generator(p, 0.05)
        assert np.max(np.abs(expm_hermitian(gen, 0.05) - to_dense(p))) <= 1e-12

    def test_norm_is_pi_over_w(self):
        for w in (0.1, 0.02):
            gen = pulse_generator(PauliString.from_letters("ZZ"), w)
            assert op_norm(gen) == pytest.approx(math.pi / w, rel=1e-12)

    def test_rejects_imaginary_phase(self):
        with pytest.raises(ValueError, match="involution"):
            pulse_generator(PauliString(1j, "X"), 0.1)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError, match="positive"):
            pulse_generator(PauliString.from_letters("X"), 0.0)


class TestControlHamiltonian:
    def test_free_interval_is_zero(self):
        gen = control_generator(pdd_schedule(universal_group(2), 0.2, 0.05, 2))
        assert np.count_nonzero(control_at(gen, 0.1)) == 0

    def test_window_matches_slot_generator(self):
        schedule = pdd_schedule(universal_group(2), 0.2, 0.05, 2)
        gen = control_generator(schedule)
        for k, p in enumerate(schedule.pulses):
            t = k * schedule.slot_time + 0.22
            expected = pulse_generator(p, 0.05)
            assert np.max(np.abs(control_at(gen, t) - expected)) <= 1e-12

    def test_periodicity(self, rng):
        schedule = pdd_schedule(universal_group(2), 0.2, 0.05, 4)
        gen = control_generator(schedule)
        t_c = schedule.cycle_time
        for _ in range(100):
            t = float(rng.uniform(0, schedule.total_time - t_c))
            assert np.array_equal(control_at(gen, t), control_at(gen, t + t_c))

    def test_piece_index_window_edges(self):
        # each window is half-open on the right: slot k's window piece
        # 1 + k mod 2 from k tau_s + tau, piece 0 again from (k + 1) tau_s
        schedule = pdd_schedule(global_x_group(2), 0.2, 0.05, 2)
        gen = control_generator(schedule)
        assert piece_index(gen, 0.0) == 0
        assert piece_index(gen, 0.2) == piece_index(gen, 0.21) == 1
        assert piece_index(gen, 0.25) == 0
        assert piece_index(gen, 0.46) == 2
        # the final instant reports free evolution
        assert piece_index(gen, schedule.total_time) == 0


class TestScalingRule:
    def test_frozen_example(self):
        rule = ScalingRule(zeta=1.0, epsilon1=1.5, epsilon2=0.5)
        tau, w, total, l_pulses = scaled_parameters(rule, 2, group_order=4)
        assert tau == pytest.approx(2 ** -2.5, abs=1e-15)
        assert w == pytest.approx(2 ** -4.0, abs=1e-15)
        assert total == pytest.approx(2.0)
        assert l_pulses % 4 == 0

    def test_tau_power_law(self):
        rule = ScalingRule(zeta=1.0, epsilon1=1.5, epsilon2=0.5)
        tau2 = scaled_parameters(rule, 2, group_order=4)[0]
        tau4 = scaled_parameters(rule, 4, group_order=4)[0]
        assert tau4 / tau2 == pytest.approx(2 ** -2.5, rel=1e-12)

    def test_l_multiple_of_group_order(self):
        rule = ScalingRule(zeta=2.0, epsilon1=1.2, epsilon2=0.3)
        for n in (2, 3, 5, 8):
            l_pulses = scaled_parameters(rule, n, group_order=4)[3]
            assert l_pulses % 4 == 0 and l_pulses >= 4

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon1"):
            ScalingRule(zeta=1.0, epsilon1=1.0, epsilon2=0.5)
        with pytest.raises(ValueError, match="epsilon2"):
            ScalingRule(zeta=1.0, epsilon1=1.5, epsilon2=0.0)

    def test_zeta_z_consistency(self):
        ScalingRule(zeta=5.0, epsilon1=1.5, epsilon2=0.5, z=1.0)   # 3z+2
        ScalingRule(zeta=3.0, epsilon1=1.5, epsilon2=0.5, z=1.0)   # 2z+1
        with pytest.raises(ValueError, match="inconsistent"):
            ScalingRule(zeta=4.0, epsilon1=1.5, epsilon2=0.5, z=1.0)

    def test_small_n_rejected(self):
        rule = ScalingRule(zeta=1.0, epsilon1=1.5, epsilon2=0.5)
        with pytest.raises(ValueError, match="at least 2"):
            scaled_parameters(rule, 1, group_order=4)
