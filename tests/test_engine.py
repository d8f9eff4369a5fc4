import math

import numpy as np
import pytest

from conftest import random_hermitian
from aqc_shield import engine
from aqc_shield.codes import (
    code_from_universal_group,
    global_x_group,
    trivial_group,
    universal_group,
)
from aqc_shield.engine import (
    ClosedRun,
    DegenerateGroundStateError,
    IntegratorConfig,
    effective_hamiltonian,
    instantaneous_ground_state,
    interaction_frame,
    magnus_first_order,
    propagate,
    protected_hamiltonian,
    run_closed_adiabatic,
    run_protected,
    schedule_breakpoints,
    schedule_kicks,
)
from aqc_shield.linalg import expm_hermitian, op_norm, partial_trace
from aqc_shield.metrics import trace_distance
from aqc_shield.model import AdiabaticSpec, Schedule, SystemBathSpec, h_ad, linear_decoherence
from aqc_shield.pauli import PauliString, to_dense
from aqc_shield.protocols import pdd_schedule, pulse_generator, slot_index


def one_qubit_spec(total_time=10.0, kind="smooth-endpoint"):
    return AdiabaticSpec(
        n=1,
        h0_terms=[(-1.0, PauliString.from_letters("X"))],
        h1_terms=[(-1.0, PauliString.from_letters("Z"))],
        schedule=Schedule(kind),
        total_time=total_time,
    )


def encoded_spec(total_time, e_terms=None):
    code, _ = code_from_universal_group(4)
    h0 = [(-1.0, PauliString.from_letters("XXII")), (-1.0, PauliString.from_letters("XIXI"))]
    h1 = [(-1.0, PauliString.from_letters("IZIZ")), (-0.8, PauliString.from_letters("IIZZ")),
          (-0.5, PauliString.from_letters("IZZI"))]
    return AdiabaticSpec(
        n=4, h0_terms=h0, h1_terms=h1, schedule=Schedule("smooth-endpoint"),
        total_time=total_time, code_basis=code.basis_matrix(),
    )


class TestPropagate:
    def test_constant_matches_expm(self, rng):
        h = random_hermitian(rng, 8)
        u = propagate(lambda t: h, 0.9)
        assert op_norm(u - expm_hermitian(h, 0.9)) <= 1e-10

    def test_unitarity_time_dependent(self, rng):
        a = random_hermitian(rng, 16)
        b = random_hermitian(rng, 16)
        u = propagate(lambda t: a + math.sin(3 * t) * b, 2.0)
        assert op_norm(u.conj().T @ u - np.eye(16)) <= 1e-9

    def test_self_convergence_under_tolerance_halving(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        h = lambda t: a + math.cos(2 * t) * b
        coarse = propagate(h, 1.5, IntegratorConfig(tol=1e-6))
        fine = propagate(h, 1.5, IntegratorConfig(tol=5e-7))
        assert op_norm(fine - coarse) < 1e-6

    def test_step_count_invariant_under_bath_lift(self, rng):
        # h(t) (x) I_4 has the propagator differences of h(t) lifted, with
        # equal operator norms but Frobenius norms twice as large: an
        # operator-norm acceptance test takes the same steps on both.
        a = random_hermitian(rng, 16) / 4
        b = random_hermitian(rng, 16) / 4
        eye = np.eye(4)
        h = lambda t: a + math.sin(3 * t) * b
        lifted = lambda t: np.kron(h(t), eye)
        total, tol = 2.0, 1e-6
        bp = tuple(total * k / 32 for k in range(1, 32))
        ref = propagate(h, total, IntegratorConfig(tol=1e-11), bp)
        u, stats = engine.propagate_with_stats(h, total, IntegratorConfig(tol=tol), bp)
        u_lift, stats_lift = engine.propagate_with_stats(
            lifted, total, IntegratorConfig(tol=tol), bp)
        assert stats_lift["steps"] == stats["steps"]
        assert op_norm(u - ref) <= tol
        assert op_norm(u_lift - np.kron(ref, eye)) <= tol

    def test_kicks_applied_in_order(self):
        x = to_dense(PauliString.from_letters("X"))
        z = to_dense(PauliString.from_letters("Z"))
        zero = np.zeros((2, 2))
        u = propagate(lambda t: zero, 1.0, kicks=((0.5, x), (1.0, z)))
        assert np.allclose(u, z @ x)

    def test_zero_time(self):
        u = propagate(lambda t: np.eye(2, dtype=complex), 0.0)
        assert np.array_equal(u, np.eye(2))

    def test_non_hermitian_sample_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="non-Hermitian sample"):
            propagate(lambda t: bad, 1.0)

    def test_step_cap(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        cfg = IntegratorConfig(tol=1e-14, max_steps=8)
        with pytest.raises(engine.StepLimitError):
            propagate(lambda t: a + math.sin(40 * t) * b, 5.0, cfg)


class TestOpNormAtMost:
    tol = 1e-6

    @staticmethod
    def counting_op_norm(monkeypatch):
        calls = []

        def spy(a):
            calls.append(a.shape)
            return op_norm(a)

        monkeypatch.setattr(engine, "op_norm", spy)
        return calls

    def test_frobenius_within_tol_accepted_without_svd(self, monkeypatch):
        calls = self.counting_op_norm(monkeypatch)
        a = np.full((4, 4), 0.2 * self.tol)  # ||a||_F = 0.8 tol
        assert engine._op_norm_at_most(a, self.tol) == pytest.approx(0.8 * self.tol)
        assert calls == []

    def test_operator_norm_within_tol_accepted_through_svd(self, monkeypatch):
        calls = self.counting_op_norm(monkeypatch)
        a = 0.9 * self.tol * np.eye(64)  # ||a||_F = 7.2 tol, ||a||_2 = 0.9 tol
        assert engine._op_norm_at_most(a, self.tol) == pytest.approx(0.9 * self.tol)
        assert calls == [(64, 64)]

    def test_operator_norm_just_above_tol_rejected(self):
        a = np.zeros((64, 64))
        a[0, 0] = self.tol * (1 + 1e-9)
        a[1, 1] = 0.5 * self.tol  # ||a||_F / sqrt(64) < tol < ||a||_F
        assert engine._op_norm_at_most(a, self.tol) is None

    def test_far_above_tol_rejected_without_svd(self, monkeypatch):
        calls = self.counting_op_norm(monkeypatch)
        a = 1.01 * self.tol * np.eye(64)  # ||a||_F > sqrt(64) tol
        assert engine._op_norm_at_most(a, self.tol) is None
        assert calls == []


class TestGroundState:
    def test_transverse_field(self):
        spec = one_qubit_spec()
        psi = instantaneous_ground_state(spec, 0.0)
        assert np.allclose(psi, np.array([1, 1]) / math.sqrt(2), atol=1e-12)

    def test_eigen_residual(self):
        spec = encoded_spec(total_time=1.0)
        from aqc_shield.model import h_ad
        for s in (0.0, 0.3, 1.0):
            psi = instantaneous_ground_state(spec, s)
            h = h_ad(spec, s)
            e = np.vdot(psi, h @ psi).real
            assert np.linalg.norm(h @ psi - e * psi) <= 1e-10

    def test_deterministic_phase(self):
        spec = encoded_spec(total_time=1.0)
        a = instantaneous_ground_state(spec, 0.4)
        b = instantaneous_ground_state(spec, 0.4)
        assert np.array_equal(a, b)
        idx = int(np.argmax(np.abs(a)))
        assert a[idx].real > 0 and abs(a[idx].imag) <= 1e-14

    def test_degenerate_rejected(self):
        spec = AdiabaticSpec(
            n=2,
            h0_terms=[(1.0, PauliString.from_letters("ZZ"))],
            h1_terms=[(1.0, PauliString.from_letters("ZZ"))],
            total_time=1.0,
        )
        with pytest.raises(DegenerateGroundStateError):
            instantaneous_ground_state(spec, 0.0)

    def test_code_restriction_lifts_full_space_degeneracy(self):
        # encoded H0 is degenerate on the full space (syndrome copies) but
        # unique inside the code space
        spec = encoded_spec(total_time=1.0)
        psi = instantaneous_ground_state(spec, 0.0)
        v = spec.code_basis
        assert np.linalg.norm(v @ (v.conj().T @ psi) - psi) <= 1e-12


class TestClosedAdiabatic:
    def test_long_run_tracks_ground_state(self):
        run = run_closed_adiabatic(one_qubit_spec(total_time=60.0))
        assert run.delta_ad < 1e-3

    def test_dilation_improves(self):
        spec = one_qubit_spec(total_time=6.0)
        slow = run_closed_adiabatic(spec, r=2.0)
        fast = run_closed_adiabatic(spec, r=1.0)
        assert slow.delta_ad < fast.delta_ad

    def test_constant_hamiltonian_stays_put(self):
        spec = AdiabaticSpec(
            n=1,
            h0_terms=[(-1.0, PauliString.from_letters("X"))],
            h1_terms=[(-1.0, PauliString.from_letters("X"))],
            total_time=3.0,
        )
        run = run_closed_adiabatic(spec)
        assert run.delta_ad <= 1e-9

    def test_dilation_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            run_closed_adiabatic(one_qubit_spec(), r=0.5)


def transverse_field_spec(total_time):
    """Unencoded 4-qubit model: its terms do not commute with the pulses."""
    h0 = [(-1.0, PauliString.single(4, i, "X")) for i in range(4)]
    h1 = [(-(0.8 + 0.1 * i), PauliString.single(4, i, "Z")) for i in range(4)]
    h1 += [(-0.5, PauliString.single(4, i, "Z") * PauliString.single(4, i + 1, "Z"))
           for i in range(3)]
    return AdiabaticSpec(n=4, h0_terms=h0, h1_terms=h1, total_time=total_time)


def quick_protected(j=0.1, total_time=2.0, tau=0.25, w=0.0, tol=1e-9, group=None,
                    penalty=None, penalty_during_pulse=True, seed=11, n_b=1,
                    spec_fn=encoded_spec):
    spec = spec_fn(total_time)
    grp = group or universal_group(4)
    cycles = max(1, round(total_time / (grp.order * (tau + w))))
    schedule = pdd_schedule(grp, tau, w, cycles, j_coupling=j)
    spec = AdiabaticSpec(
        n=spec.n, h0_terms=spec.h0_terms, h1_terms=spec.h1_terms,
        schedule=spec.schedule, total_time=schedule.total_time,
        code_basis=spec.code_basis,
    )
    bath = linear_decoherence(4, n_b, j, seed=seed)
    coupled, uncoupled = run_protected(
        spec, bath, schedule, penalty=penalty,
        penalty_during_pulse=penalty_during_pulse,
        cfg=IntegratorConfig(tol=tol),
    )
    return spec, bath, schedule, coupled, uncoupled


def joint_twin_propagator(spec, bath, schedule, penalty, penalty_during_pulse, tol):
    """The uncoupled twin propagated on the joint space: H_sys(t) (x) I +
    I (x) H_B with joint kicks, H_sys built here from h_ad, the gated
    penalty and the pulse generators."""
    total = schedule.total_time
    gens = [pulse_generator(p, schedule.w) for p in schedule.pulses] if schedule.w > 0 else None
    eye_b = np.eye(bath.bath_dim)
    h_b = np.kron(np.eye(1 << spec.n), bath.h_b)

    def h(t):
        h_sys = h_ad(spec, min(max(t / total, 0.0), 1.0))
        slot, in_window = slot_index(schedule, min(t, total))
        if penalty is not None and (penalty_during_pulse or not in_window):
            h_sys = h_sys + penalty
        if gens is not None and in_window:
            h_sys = h_sys + gens[slot % schedule.order]
        return np.kron(h_sys, eye_b) + h_b

    return propagate(h, total, IntegratorConfig(tol=tol),
                     breakpoints=schedule_breakpoints(schedule),
                     kicks=schedule_kicks(schedule, bath.bath_dim))


class TestRunProtected:
    def test_zero_coupling_twins_identical(self):
        _, _, _, coupled, uncoupled = quick_protected(j=0.0)
        assert np.array_equal(coupled.rho_final, uncoupled.rho_final)
        assert trace_distance(coupled.rho_final, uncoupled.rho_final) == 0.0

    def test_zero_coupling_twins_identical_two_bath_qubits(self):
        _, _, _, coupled, uncoupled = quick_protected(j=0.0, n_b=2)
        assert coupled.rho_final.shape == (64, 64)
        assert np.array_equal(coupled.rho_final, uncoupled.rho_final)
        assert trace_distance(coupled.rho_final, uncoupled.rho_final) == 0.0
        # the coupled run is the twin and propagated nothing itself
        assert coupled.diagnostics["steps"] == 0 and coupled.diagnostics["coupled"]
        assert uncoupled.diagnostics["steps"] > 0
        assert coupled.diagnostics["error_estimate"] == uncoupled.diagnostics["error_estimate"]

    def test_error_estimate_within_budget(self):
        # T = 2 over 8 slots: each segment's share tol/8 is far above 64 eps
        tol = 1e-9
        _, _, _, coupled, uncoupled = quick_protected(j=0.1, tol=tol)
        for art in (coupled, uncoupled):
            assert 0.0 < art.diagnostics["error_estimate"] <= tol

    @pytest.mark.parametrize("n_b, w, gated_penalty", [(2, 0.0, False), (1, 0.05, True)])
    def test_factorized_twin_matches_joint_propagation(self, n_b, w, gated_penalty):
        # unencoded terms, so the pulses and the penalty gating act on the result
        from aqc_shield.codes import penalty_hamiltonian
        tol = 1e-9
        pen = penalty_hamiltonian(universal_group(4), 0.4) if gated_penalty else None
        spec, bath, schedule, _, uncoupled = quick_protected(
            j=0.1, total_time=2.4 if w else 2.0, w=w, tol=tol, n_b=n_b,
            penalty=pen, penalty_during_pulse=not gated_penalty,
            spec_fn=transverse_field_spec,
        )
        reference = joint_twin_propagator(spec, bath, schedule, pen, not gated_penalty, tol)
        assert uncoupled.u_total.shape == reference.shape == (16 << n_b, 16 << n_b)
        assert op_norm(uncoupled.u_total - reference) <= 10 * tol

    def test_traces_preserved(self):
        _, _, _, coupled, uncoupled = quick_protected(j=0.15)
        for art in (coupled, uncoupled):
            assert abs(np.trace(art.rho_final) - 1.0) <= 1e-10
            assert abs(np.trace(art.rho_s_final) - 1.0) <= 1e-10

    def test_propagators_unitary(self):
        _, _, _, coupled, uncoupled = quick_protected(j=0.15)
        d = coupled.u_total.shape[0]
        for art in (coupled, uncoupled):
            assert op_norm(art.u_total.conj().T @ art.u_total - np.eye(d)) <= 1e-9

    def test_uncoupled_reduced_state_matches_closed_run(self):
        spec, _, _, _, uncoupled = quick_protected(j=0.0, tol=1e-11)
        closed = run_closed_adiabatic(spec, cfg=IntegratorConfig(tol=1e-11))
        rho_closed = np.outer(closed.psi_final, closed.psi_final.conj())
        assert trace_distance(uncoupled.rho_s_final, rho_closed) <= 1e-9

    def test_uncoupled_error_phase_vanishes(self):
        _, _, _, _, uncoupled = quick_protected(j=0.2)
        assert uncoupled.phi <= 1e-8

    def test_dd_beats_free_evolution(self):
        # same total time, same coupling: universal-group PDD vs no pulses
        _, _, _, dd, _ = quick_protected(j=0.1, total_time=4.0, tau=0.25)
        _, _, _, free, _ = quick_protected(j=0.1, total_time=4.0, tau=0.25,
                                           group=trivial_group(4))
        d = trace_distance  # noqa: F841  (imported for parity with metrics use)
        assert dd.phi < free.phi

    def test_penalty_on_code_space_is_global_phase(self):
        from aqc_shield.codes import penalty_hamiltonian
        pen = penalty_hamiltonian(universal_group(4), 0.5)
        _, _, _, plain, _ = quick_protected(j=0.0, tol=1e-10)
        _, _, _, with_pen, _ = quick_protected(j=0.0, tol=1e-10, penalty=pen)
        assert trace_distance(plain.rho_final, with_pen.rho_final) <= 1e-9

    def test_finite_width_pulses_cancel_over_complete_cycles(self):
        _, _, _, _, uncoupled = quick_protected(j=0.1, total_time=2.4,
                                                tau=0.25, w=0.05)
        assert uncoupled.phi <= 1e-8

    def test_gated_penalty_with_finite_width(self):
        from aqc_shield.codes import penalty_hamiltonian
        pen = penalty_hamiltonian(universal_group(4), 0.4)
        _, _, _, _, uncoupled = quick_protected(
            j=0.05, total_time=2.4, tau=0.25, w=0.05,
            penalty=pen, penalty_during_pulse=False,
        )
        assert uncoupled.phi <= 1e-8

    def test_dimension_mismatch_rejected(self):
        spec = encoded_spec(2.0)
        schedule = pdd_schedule(universal_group(2), 0.25, 0.0, 2)
        bath = linear_decoherence(4, 1, 0.1, seed=0)
        with pytest.raises(ValueError, match="qubits"):
            run_protected(spec, bath, schedule)

    def test_timing_mismatch_rejected(self):
        spec = encoded_spec(3.0)
        schedule = pdd_schedule(universal_group(4), 0.25, 0.0, 2)  # T = 2
        bath = linear_decoherence(4, 1, 0.1, seed=0)
        with pytest.raises(ValueError, match="total time"):
            run_protected(spec, bath, schedule)


class TestInteractionFrame:
    def test_identity_without_coupling_or_control(self):
        spec = one_qubit_spec(total_time=2.0)
        schedule = pdd_schedule(trivial_group(1), 0.5, 0.0, 4)
        bath = linear_decoherence(1, 1, 0.0, seed=2)
        h = protected_hamiltonian(spec, bath, schedule)
        u_total = propagate(h, 2.0, breakpoints=schedule_breakpoints(schedule),
                            kicks=schedule_kicks(schedule, 2))
        u_tilde = interaction_frame(u_total, spec, bath, schedule)
        assert op_norm(u_tilde - np.eye(4)) <= 1e-9

    def test_control_only_gives_pulse_product(self):
        # no coupling, finite-width pulses, stop after the first slot:
        # the residual is exactly the first pulse (lifted over the bath)
        group = global_x_group(1)
        schedule = pdd_schedule(group, 0.4, 0.1, 1)
        spec = AdiabaticSpec(n=1, h0_terms=[], h1_terms=[],
                             total_time=schedule.total_time)
        bath = linear_decoherence(1, 1, 0.0, seed=4)
        t_slot = schedule.slot_time
        h = protected_hamiltonian(spec, bath, schedule)
        u_total = propagate(h, t_slot, breakpoints=schedule_breakpoints(schedule, t_slot))
        u_tilde = interaction_frame(u_total, spec, bath, schedule, total_time=t_slot)
        expected = np.kron(to_dense(schedule.pulses[0]), np.eye(2))
        assert op_norm(u_tilde - expected) <= 1e-8

    def test_unitarity(self):
        _, _, _, coupled, _ = quick_protected(j=0.1)
        d = coupled.u_total.shape[0]
        assert op_norm(coupled.u_total.conj().T @ coupled.u_total - np.eye(d)) <= 1e-9


class TestEffectiveHamiltonian:
    def test_identity_gives_zero_phase(self):
        h_eff, phi = effective_hamiltonian(np.eye(4, dtype=complex), 2.0)
        assert phi <= 1e-14
        assert np.max(np.abs(h_eff)) <= 1e-14

    def test_recovers_generator(self):
        a = np.kron(to_dense(PauliString.from_letters("Z")),
                    to_dense(PauliString.from_letters("X")))
        u = expm_hermitian(0.2 * a, 1.0)
        h_eff, phi = effective_hamiltonian(u, 1.0)
        assert phi == pytest.approx(0.2, abs=1e-12)
        assert np.max(np.abs(h_eff - 0.2 * a)) <= 1e-12

    def test_global_phase_invariance(self):
        a = 0.3 * np.diag([1.0, -1.0]).astype(complex)
        u = expm_hermitian(a, 1.0)
        _, phi1 = effective_hamiltonian(u, 1.0)
        _, phi2 = effective_hamiltonian(np.exp(0.7j) * u, 1.0)
        assert phi1 == pytest.approx(phi2, abs=1e-12)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError, match="positive"):
            effective_hamiltonian(np.eye(2, dtype=complex), 0.0)


class TestMagnusFirstOrder:
    def test_annihilates_linear_coupling(self):
        bath = linear_decoherence(2, 1, 1.0, seed=9)
        avg = magnus_first_order(universal_group(2), bath.h_sb)
        assert op_norm(avg) <= 1e-12

    def test_trivial_group_is_identity_map(self, rng):
        a = random_hermitian(rng, 8)
        assert np.allclose(magnus_first_order(trivial_group(2), a), a)

    def test_dimension_check(self, rng):
        with pytest.raises(ValueError, match="multiple"):
            magnus_first_order(universal_group(2), random_hermitian(rng, 6))

    def test_effective_hamiltonian_converges_to_group_average(self):
        # one ideal-pulse cycle with a static interaction and no adiabatic
        # or bath Hamiltonian: the exact effective Hamiltonian approaches
        # the group average linearly in tau
        group = global_x_group(2)
        bath = linear_decoherence(2, 1, 0.5, seed=3)
        silent_bath = SystemBathSpec(
            n=2, n_b=1, couplings=bath.couplings,
            h_b=np.zeros_like(bath.h_b), h_sb=bath.h_sb,
            j_coupling=bath.j_coupling, beta_b=0.0, seed=bath.seed,
        )
        target = magnus_first_order(group, bath.h_sb)
        errors = []
        for tau in (0.2, 0.1, 0.05):
            schedule = pdd_schedule(group, tau, 0.0, 1)
            spec = AdiabaticSpec(n=2, h0_terms=[], h1_terms=[],
                                 total_time=schedule.total_time)
            h = protected_hamiltonian(spec, silent_bath, schedule)
            u_total = propagate(h, schedule.total_time,
                                kicks=schedule_kicks(schedule, 2))
            u_tilde = interaction_frame(u_total, spec, silent_bath, schedule)
            h_eff, _ = effective_hamiltonian(u_tilde, schedule.total_time)
            errors.append(op_norm(h_eff - target))
        assert errors[0] > errors[1] > errors[2]
        for a, b in zip(errors, errors[1:]):
            assert 1.5 <= a / b <= 3.0
