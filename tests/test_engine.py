import dataclasses
import functools
import math

import numpy as np
import pytest

from conftest import random_hermitian
from aqc_shield import engine
from aqc_shield.codes import (
    code_from_universal_group,
    global_x_group,
    group_average,
    trivial_group,
    universal_group,
)
from aqc_shield.engine import (
    AffineGenerator,
    DegenerateGroundStateError,
    IntegratorConfig,
    effective_hamiltonian,
    frame_unitary,
    instantaneous_ground_state,
    propagate_with_stats,
    protected_hamiltonian,
    run_closed_adiabatic,
    run_protected,
    schedule_breakpoints,
    schedule_kicks,
)
from aqc_shield.linalg import dagger, expm_hermitian, op_norm
from aqc_shield.metrics import trace_distance
from aqc_shield.model import AdiabaticSpec, Schedule, linear_decoherence
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


def affine(a, b=None, g=None):
    """The one-piece generator t -> a + g(t) b (constant a without b)."""
    if b is None:
        return AffineGenerator((a,), np.zeros_like(a), lambda t: 0.0)
    return AffineGenerator((a,), b, g)


def sin3(t):
    return math.sin(3 * t)


class TestPropagate:
    def test_constant_matches_expm(self, rng):
        h = random_hermitian(rng, 8)
        u = propagate_with_stats(affine(h), 0.9)[0]
        assert op_norm(u - expm_hermitian(h, 0.9)) <= 1e-10

    def test_unitarity_time_dependent(self, rng):
        a = random_hermitian(rng, 16)
        b = random_hermitian(rng, 16)
        u = propagate_with_stats(affine(a, b, sin3), 2.0)[0]
        assert op_norm(u.conj().T @ u - np.eye(16)) <= 1e-9

    def test_self_convergence_under_tolerance_halving(self, rng):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        h = affine(a, b, lambda t: math.cos(2 * t))
        coarse = propagate_with_stats(h, 1.5, IntegratorConfig(tol=1e-6))[0]
        fine = propagate_with_stats(h, 1.5, IntegratorConfig(tol=5e-7))[0]
        assert op_norm(fine - coarse) < 1e-6

    def test_step_count_invariant_under_bath_lift(self, rng):
        # h(t) (x) I_4 has the propagator differences of h(t) lifted, with
        # equal operator norms but Frobenius norms twice as large: an
        # operator-norm acceptance test takes the same steps on both.
        a = random_hermitian(rng, 16) / 4
        b = random_hermitian(rng, 16) / 4
        eye = np.eye(4)
        h = affine(a, b, sin3)
        lifted = affine(np.kron(a, eye), np.kron(b, eye), sin3)
        total, tol = 2.0, 1e-6
        bp = tuple(total * k / 32 for k in range(1, 32))
        ref = propagate_with_stats(h, total, IntegratorConfig(tol=1e-11), bp)[0]
        u, stats = propagate_with_stats(h, total, IntegratorConfig(tol=tol), bp)
        u_lift, stats_lift = propagate_with_stats(
            lifted, total, IntegratorConfig(tol=tol), bp)
        assert stats_lift["steps"] == stats["steps"]
        assert op_norm(u - ref) <= tol
        assert op_norm(u_lift - np.kron(ref, eye)) <= tol

    def test_kicks_applied_in_order(self):
        x = to_dense(PauliString.from_letters("X"))
        z = to_dense(PauliString.from_letters("Z"))
        zero = np.zeros((2, 2))
        u = propagate_with_stats(affine(zero), 1.0, kicks=((0.5, x), (1.0, z)))[0]
        assert np.allclose(u, z @ x)

    def test_coinciding_kicks_applied_in_list_order(self):
        x = to_dense(PauliString.from_letters("X"))
        y = to_dense(PauliString.from_letters("Y"))
        z = to_dense(PauliString.from_letters("Z"))
        zero = np.zeros((2, 2))
        kicks = ((0.5, x), (1.0, y), (0.5, z))
        u = propagate_with_stats(affine(zero), 1.0, kicks=kicks)[0]
        assert np.allclose(u, y @ z @ x)

    def test_lifted_pulse_kicks_equal_dense_products(self, rng):
        # every kick of a d = 64 run (n = 4 system (x) n_b = 2 bath), gathered
        schedule = pdd_schedule(universal_group(4), 0.25, 0.0, 1)
        kicks = schedule_kicks(schedule, 4)
        for _, kick in kicks:
            perm, phase = engine._monomial_gather(kick)
            u = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
            assert np.array_equal(phase[:, None] * u[perm], kick @ u)
        zero = np.zeros((64, 64))
        generator = AffineGenerator((zero,), zero, lambda t: 0.0)
        u = propagate_with_stats(generator, schedule.total_time, kicks=kicks)[0]
        expected = np.eye(64, dtype=complex)
        for _, kick in kicks:
            expected = kick @ expected
        assert np.array_equal(u, expected)

    def test_non_monomial_kick_refused_before_any_step(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a trial step was taken")

        monkeypatch.setattr(engine, "_magnus86_trial", no_step)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        with pytest.raises(ValueError, match="monomial"):
            propagate_with_stats(affine(np.eye(2)), 1.0, kicks=((0.5, hadamard),))

    def test_zero_time(self):
        u = propagate_with_stats(affine(np.eye(2, dtype=complex)), 0.0)[0]
        assert np.array_equal(u, np.eye(2))

    def test_non_hermitian_piece_or_q_rejected(self):
        # the generator refuses at construction, before any step is taken
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        good = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="generator piece 1 is not Hermitian"):
            AffineGenerator((good, bad), good, sin3, lambda t: 1)
        with pytest.raises(ValueError, match="generator q is not Hermitian"):
            AffineGenerator((good,), bad, sin3)

    def test_wrapped_generator_propagates_bitwise_equal(self, rng):
        # a functools.wraps wrapper carries a copy of the fields in its
        # __dict__; the propagator reads nothing else
        a, b, c = (random_hermitian(rng, 4) for _ in range(3))
        gen = AffineGenerator((a, a + c), b, sin3, lambda t: int(t > 0.5))

        @functools.wraps(gen)
        def wrapper(*args, **kwargs):
            raise AssertionError("the propagator never calls the generator")

        wrapper.bench_kind = "twin"
        u, stats = propagate_with_stats(gen, 1.0, breakpoints=(0.5,))
        u_wrapped, stats_wrapped = propagate_with_stats(wrapper, 1.0, breakpoints=(0.5,))
        assert np.array_equal(u_wrapped, u)
        assert stats_wrapped == stats and stats["segments"] == 2

    def test_floored_steps_counted(self, rng):
        # at tol = 1e-14 every share tol * dt / T is below the 64-eps floor
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        h = affine(a, b, sin3)
        _, tight = propagate_with_stats(h, 1.0, IntegratorConfig(tol=1e-14))
        _, loose = propagate_with_stats(h, 1.0, IntegratorConfig(tol=1e-8))
        assert 0 < tight["floored"] <= tight["steps"]
        assert loose["floored"] == 0 and loose["error_estimate"] <= 1e-8

    def test_step_cap(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        cfg = IntegratorConfig(tol=1e-14, max_steps=8)
        with pytest.raises(engine.StepLimitError):
            propagate_with_stats(affine(a, b, lambda t: math.sin(40 * t)), 5.0, cfg)


class TestMagnus6:
    @staticmethod
    def counting_expm(monkeypatch):
        calls = []

        def spy(h, *args, **kwargs):
            calls.append(h.shape)
            return expm_hermitian(h, *args, **kwargs)

        monkeypatch.setattr(engine, "expm_hermitian", spy)
        return calls

    def test_single_step_orders(self, rng):
        # local error O(dt^7) for the sixth-order step, and the embedded
        # pair's gap ||Omega8 - Omega6|| = O(dt^7) bounding it from above
        a = random_hermitian(rng, 8)
        b = random_hermitian(rng, 8)
        stack = engine._commutator_stack(a, b)
        t0 = 0.3
        errors, gaps = [], []
        for dt in (0.1, 0.05):
            omega6, tail = engine._magnus86_trial(stack, sin3, t0, dt)
            shifted = affine(a, b, lambda t: sin3(t0 + t))
            ref, _ = propagate_with_stats(shifted, dt, IntegratorConfig(tol=1e-13))
            errors.append(op_norm(expm_hermitian(1j * omega6, 1.0) - ref))
            gaps.append(engine._hermitian_norm_bound(1j * tail))
            assert gaps[-1] >= errors[-1]
        assert errors[0] / errors[1] >= 2 ** 6.5
        assert gaps[0] / gaps[1] >= 2 ** 6.5

    def test_literal_tables(self):
        # the node matrix inverts the Vandermonde matrix of the nodes, and
        # each stack word is the concatenation of its bracket's factors
        vander = np.array([[s**j for j in range(4)] for s in engine._GAUSS_NODES])
        assert np.allclose(np.array(engine._NODE_TO_CUBIC) @ vander, np.eye(4), atol=1e-14)
        words = ["X", "Y"]
        for word, u, v in engine._COMMUTATOR_WORDS:
            assert word == words[u] + words[v]
            words.append(word)
        assert list(engine._WORD_LENGTHS) == [len(w) for w in words]

    def test_tolerance_above_trusted_range_refused(self):
        assert IntegratorConfig(tol=engine.MAX_TOLERANCE).tol == 1e-3
        with pytest.raises(ValueError, match="exceeds 0.001, above which"):
            IntegratorConfig(tol=2e-3)

    def test_one_exponential_per_accepted_step(self, rng, monkeypatch):
        a = random_hermitian(rng, 16)
        b = random_hermitian(rng, 16)
        calls = self.counting_expm(monkeypatch)
        _, stats = propagate_with_stats(affine(a, b, sin3), 2.0)
        assert stats["rejected"] > 0
        assert len(calls) == stats["steps"]

    def test_rejections_count_towards_step_cap(self, rng, monkeypatch):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        calls = self.counting_expm(monkeypatch)
        cfg = IntegratorConfig(tol=1e-14, max_steps=3)
        with pytest.raises(engine.StepLimitError):
            propagate_with_stats(affine(a, b, lambda t: math.sin(40 * t)), 5.0, cfg)
        assert calls == []


class TestHermitianNormBound:
    def test_bounds_operator_norm(self, rng):
        for dim in (2, 8, 32):
            x = random_hermitian(rng, dim)
            assert engine._hermitian_norm_bound(x) >= op_norm(x)

    def test_exact_on_diagonal(self):
        x = np.diag([0.3, -1.7, 0.9, 1.2]).astype(complex)
        assert engine._hermitian_norm_bound(x) == pytest.approx(op_norm(x), rel=1e-15)

    def test_invariant_under_lift(self, rng):
        x = random_hermitian(rng, 16)
        lifted = np.kron(x, np.eye(4))
        assert engine._hermitian_norm_bound(lifted) == engine._hermitian_norm_bound(x)


class TestGroundState:
    def test_transverse_field(self):
        spec = one_qubit_spec()
        psi = instantaneous_ground_state(spec, 0.0)
        assert np.allclose(psi, np.array([1, 1]) / math.sqrt(2), atol=1e-12)

    def test_eigen_residual(self):
        spec = encoded_spec(total_time=1.0)
        for s in (0.0, 0.3, 1.0):
            psi = instantaneous_ground_state(spec, s)
            h = spec.interpolate(s)
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
        slow = run_closed_adiabatic(dataclasses.replace(spec, total_time=2.0 * 6.0))
        fast = run_closed_adiabatic(spec)
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
    schedule = pdd_schedule(grp, tau, w, cycles)
    spec = dataclasses.replace(spec, total_time=schedule.total_time, penalty=penalty,
                               penalty_during_pulse=penalty_during_pulse)
    bath = linear_decoherence(4, n_b, j, seed=seed)
    coupled, uncoupled = run_protected(spec, bath, schedule, cfg=IntegratorConfig(tol=tol))
    return spec, bath, schedule, coupled, uncoupled


def joint_twin_propagator(spec, bath, schedule, tol):
    """The uncoupled twin propagated on the joint space: H_sys(t) (x) I +
    I (x) H_B with joint kicks, H_sys built here from spec.interpolate, the
    spec's gated penalty and the pulse generators, one piece per free
    interval and window."""
    total = schedule.total_time
    eye_b = np.eye(bath.bath_dim)
    h_b = np.kron(np.eye(1 << spec.n), bath.h_b)
    h_start = spec.interpolate(0.0)  # f(0) = 0 and f(1) = 1 for every schedule
    pen = 0 if spec.penalty is None else spec.penalty
    free = h_start + pen
    windows = []
    if schedule.w > 0:
        window = free if spec.penalty_during_pulse else h_start
        windows = [window + pulse_generator(p, schedule.w) for p in schedule.pulses]

    def piece_at(t):
        slot, in_window = slot_index(schedule, min(t, total))
        return 1 + slot % schedule.order if in_window else 0

    gen = AffineGenerator(
        tuple(np.kron(h, eye_b) + h_b for h in (free, *windows)),
        np.kron(spec.interpolate(1.0) - h_start, eye_b),
        lambda t: spec.schedule(min(max(t / total, 0.0), 1.0)),
        piece_at,
    )
    u, _ = propagate_with_stats(gen, total, IntegratorConfig(tol=tol),
                                breakpoints=schedule_breakpoints(schedule),
                                kicks=schedule_kicks(schedule, bath.bath_dim))
    return u


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
        assert coupled.diagnostics["floored"] == 0
        assert coupled.diagnostics["rejected"] == 0
        assert uncoupled.diagnostics["steps"] > 0
        assert coupled.diagnostics["error_estimate"] == uncoupled.diagnostics["error_estimate"]

    def test_error_estimate_within_budget(self):
        # T = 2 over 8 slots: each segment's share tol/8 is far above 64 eps
        tol = 1e-9
        _, _, _, coupled, uncoupled = quick_protected(j=0.1, tol=tol)
        for art in (coupled, uncoupled):
            assert 0.0 < art.diagnostics["error_estimate"] <= tol
            assert art.diagnostics["floored"] == 0

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    @pytest.mark.parametrize("total_time, w", [(2.0, 0.0), (2.4, 0.05)])
    def test_error_estimate_tracks_true_error(self, total_time, w, tol):
        # the summed estimate of each propagation against its true
        # operator-norm error, measured on a tol = 1e-12 run: never below
        # it, and at most 50 times above
        def runs(t):
            spec, bath, schedule, coupled, twin = quick_protected(
                j=0.1, total_time=total_time, w=w, tol=t)
            h_sys = engine._timed_hamiltonian(spec, schedule, False)
            bp = schedule_breakpoints(schedule) if len(h_sys.pieces) > 1 else ()
            frame = propagate_with_stats(h_sys, schedule.total_time,
                                         IntegratorConfig(tol=t), breakpoints=bp)
            return [(coupled.u_total, coupled.diagnostics), (twin.u_total, twin.diagnostics),
                    frame]

        for (u, stats), (u_ref, _) in zip(runs(tol), runs(1e-12)):
            ratio = stats["error_estimate"] / op_norm(u - u_ref)
            assert 1.0 <= ratio <= 50.0

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
        reference = joint_twin_propagator(spec, bath, schedule, tol)
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
        u_total, _ = propagate_with_stats(h, 2.0, breakpoints=schedule_breakpoints(schedule),
                                          kicks=schedule_kicks(schedule, 2))
        u_tilde = dagger(frame_unitary(spec, bath, schedule)) @ u_total
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
        bp = schedule_breakpoints(schedule, t_slot)
        u_total, _ = propagate_with_stats(h, t_slot, breakpoints=bp)
        u_tilde = dagger(frame_unitary(spec, bath, schedule, total_time=t_slot)) @ u_total
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
    def test_trivial_group_is_identity_map(self, rng):
        a = random_hermitian(rng, 8)
        assert np.allclose(group_average(trivial_group(2), a), a)

    def test_dimension_check(self, rng):
        with pytest.raises(ValueError, match="multiple"):
            group_average(universal_group(2), random_hermitian(rng, 6))
