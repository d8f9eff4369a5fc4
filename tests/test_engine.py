import dataclasses
import functools
import math

import numpy as np
import pytest

from conftest import random_hermitian
from aqc_shield import engine, linalg
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
)
from aqc_shield.linalg import dagger, expm_antihermitian, expm_hermitian, op_norm, partial_trace
from aqc_shield.metrics import trace_distance
from aqc_shield.model import AdiabaticSpec, Schedule, linear_decoherence
from aqc_shield.pauli import PauliString, to_dense
from aqc_shield.protocols import pdd_schedule, pulse_generator


def one_qubit_spec(kind="smooth-endpoint"):
    return AdiabaticSpec(
        n=1,
        h0_terms=[(-1.0, PauliString.from_letters("X"))],
        h1_terms=[(-1.0, PauliString.from_letters("Z"))],
        schedule=Schedule(kind),
    )


def encoded_spec():
    code, _ = code_from_universal_group(4)
    h0 = [(-1.0, PauliString.from_letters("XXII")), (-1.0, PauliString.from_letters("XIXI"))]
    h1 = [(-1.0, PauliString.from_letters("IZIZ")), (-0.8, PauliString.from_letters("IIZZ")),
          (-0.5, PauliString.from_letters("IZZI"))]
    return AdiabaticSpec(
        n=4, h0_terms=h0, h1_terms=h1, schedule=Schedule("smooth-endpoint"),
        code_basis=code.basis_matrix(),
    )


def affine(a, b=None, g=None, kicks=()):
    """The one-piece generator t -> a + g(t) b (constant a without b),
    with ``kicks``."""
    if b is None:
        return AffineGenerator((a,), np.zeros_like(a), lambda t: 0.0, kicks=kicks)
    return AffineGenerator((a,), b, g, kicks=kicks)


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
        total, tol = 2.0, 1e-6
        # same-piece switches: 32 segments, no change of generator
        switches = tuple((total * k / 32, 0) for k in range(1, 32))
        h = AffineGenerator((a,), b, sin3, switches)
        lifted = AffineGenerator((np.kron(a, eye),), np.kron(b, eye), sin3, switches)
        ref = propagate_with_stats(h, total, IntegratorConfig(tol=1e-11))[0]
        u, stats = propagate_with_stats(h, total, IntegratorConfig(tol=tol))
        u_lift, stats_lift = propagate_with_stats(lifted, total, IntegratorConfig(tol=tol))
        assert stats_lift["steps"] == stats["steps"]
        assert op_norm(u - ref) <= tol
        assert op_norm(u_lift - np.kron(ref, eye)) <= tol

    def test_kicks_applied_in_order(self):
        x, z = (PauliString.from_letters(c) for c in "XZ")
        zero = np.zeros((2, 2))
        u = propagate_with_stats(affine(zero, kicks=((0.5, x), (1.0, z))), 1.0)[0]
        assert np.allclose(u, to_dense(z) @ to_dense(x))

    def test_coinciding_kicks_applied_in_list_order(self):
        x, y, z = (PauliString.from_letters(c) for c in "XYZ")
        zero = np.zeros((2, 2))
        kicks = ((0.5, x), (1.0, y), (0.5, z))
        u = propagate_with_stats(affine(zero, kicks=kicks), 1.0)[0]
        assert np.allclose(u, to_dense(y) @ to_dense(z) @ to_dense(x))

    def test_lifted_pulse_kicks_equal_dense_products(self):
        # every pulse of a d = 64 run (n = 4 system (x) n_b = 2 bath), as
        # one kick of a zero generator and over the whole schedule, against
        # its dense lift P (x) I_4
        schedule = pdd_schedule(universal_group(4), 0.25, 0.0, 1)
        kicks = engine._timed_hamiltonian(encoded_spec(), schedule, True).kicks
        lifted = {p: np.kron(to_dense(p), np.eye(4)) for _, p in kicks}
        zero = np.zeros((64, 64))
        for pulse, dense in lifted.items():
            u = propagate_with_stats(affine(zero, kicks=((0.0, pulse),)), 1.0)[0]
            assert np.array_equal(u, dense)
        u = propagate_with_stats(affine(zero, kicks=kicks), schedule.total_time)[0]
        expected = np.eye(64, dtype=complex)
        for _, pulse in kicks:
            expected = lifted[pulse] @ expected
        assert np.array_equal(u, expected)

    def test_commuting_kicks_deferred(self):
        # X commutes with this generator: its kick bounds no step, and it is
        # applied after the last one
        x = PauliString.from_letters("X")
        h = np.array([[1.0, 0.5], [0.5, 1.0]])
        u, stats = propagate_with_stats(affine(h, kicks=((0.5, x),)), 1.0)
        assert stats["segments"] == 1
        assert op_norm(u - to_dense(x) @ expm_hermitian(h, 1.0)) <= 1e-12

    def test_kick_failing_commutation_on_one_entry_not_deferred(self):
        # one diagonal entry one ulp off: P h P^dag differs from h bitwise,
        # so the kick splits the run as before
        x = PauliString.from_letters("X")
        h = np.array([[1.0, 0.5], [0.5, np.nextafter(1.0, 2.0)]])
        u, stats = propagate_with_stats(affine(h, kicks=((0.5, x),)), 1.0)
        assert stats["segments"] == 2
        half = expm_hermitian(h, 0.5)
        assert op_norm(u - half @ to_dense(x) @ half) <= 1e-12

    def test_indivisible_pulse_refused_before_any_step(self, monkeypatch):
        # a 1-qubit pulse cannot act on a d = 3 generator as P (x) I
        def no_step(*args, **kwargs):
            raise AssertionError("a trial step was taken")

        monkeypatch.setattr(engine, "_magnus86_rows", no_step)
        kicks = ((0.5, PauliString.from_letters("X")),)
        with pytest.raises(ValueError, match="does not divide dimension 3"):
            propagate_with_stats(affine(np.eye(3), kicks=kicks), 1.0)

    def test_zero_time(self):
        u = propagate_with_stats(affine(np.eye(2, dtype=complex)), 0.0)[0]
        assert np.array_equal(u, np.eye(2))

    @pytest.mark.parametrize("total_time", [math.nan, math.inf])
    def test_non_finite_time_refused_before_any_step(self, monkeypatch, total_time):
        # the step loop never reaches a NaN or infinite end, and would return
        # the identity with steps = 0
        def no_step(*args, **kwargs):
            raise AssertionError("a trial step was taken")

        monkeypatch.setattr(engine, "_magnus86_rows", no_step)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            propagate_with_stats(affine(np.eye(2), np.diag([1.0, -1.0]), sin3), total_time)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            run_closed_adiabatic(one_qubit_spec(), total_time)

    def test_non_hermitian_piece_or_q_rejected(self):
        # the generator refuses at construction, before any step is taken
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        good = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="generator piece 1 is not Hermitian"):
            AffineGenerator((good, bad), good, sin3, ((0.5, 1),))
        with pytest.raises(ValueError, match="generator q is not Hermitian"):
            AffineGenerator((good,), bad, sin3)

    @pytest.mark.parametrize("switches, match", [
        pytest.param(((0.5, 1), (0.5, 0)), "do not increase", id="repeated-time"),
        pytest.param(((0.5, 1), (0.25, 0)), "do not increase", id="decreasing-time"),
        pytest.param(((0.5, 2),), "piece 2 outside the 2 pieces", id="past-last-piece"),
        pytest.param(((0.5, -1),), "piece -1 outside the 2 pieces", id="negative-piece"),
    ])
    def test_invalid_switches_rejected(self, switches, match):
        good = np.eye(2)
        with pytest.raises(ValueError, match=match):
            AffineGenerator((good, 2 * good), good, sin3, switches)

    def test_wrapped_generator_propagates_bitwise_equal(self, rng):
        # a functools.wraps wrapper carries a copy of the fields, switches
        # and kicks included, in its __dict__; the propagator reads nothing
        # else
        a, b, c = (random_hermitian(rng, 4) for _ in range(3))
        kick = PauliString.from_letters("XI")
        gen = AffineGenerator((a, a + c), b, sin3, ((0.5, 1),), ((0.75, kick),))

        @functools.wraps(gen)
        def wrapper(*args, **kwargs):
            raise AssertionError("the propagator never calls the generator")

        wrapper.bench_kind = "twin"
        u, stats = propagate_with_stats(gen, 1.0)
        u_wrapped, stats_wrapped = propagate_with_stats(wrapper, 1.0)
        assert np.array_equal(u_wrapped, u)
        assert stats_wrapped == stats and stats["segments"] == 3

    def test_floored_steps_counted(self, rng):
        # at tol = 1e-14 every share tol * dt / T is below the 64-eps floor
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        h = affine(a, b, sin3)
        _, tight = propagate_with_stats(h, 1.0, IntegratorConfig(tol=1e-14))
        _, loose = propagate_with_stats(h, 1.0, IntegratorConfig(tol=1e-8))
        assert 0 < tight["floored"] <= tight["steps"]
        assert loose["floored"] == 0 and loose["error_estimate"] <= 1e-8

    def test_step_cap(self, rng, monkeypatch):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        monkeypatch.setattr(engine, "MAX_STEPS", 8)
        cfg = IntegratorConfig(tol=1e-14)
        with pytest.raises(engine.StepLimitError):
            propagate_with_stats(affine(a, b, lambda t: math.sin(40 * t)), 5.0, cfg)


class TestMagnus6:
    @staticmethod
    def counting_expm(monkeypatch):
        calls = []

        def spy(a):
            calls.append(a.shape)
            return expm_antihermitian(a)

        monkeypatch.setattr(engine, "expm_antihermitian", spy)
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
            omega6, tail = linalg.real_combination(engine._magnus86_rows(sin3, t0, dt), stack)
            shifted = affine(a, b, lambda t: sin3(t0 + t))
            ref, _ = propagate_with_stats(shifted, dt, IntegratorConfig(tol=1e-13))
            errors.append(op_norm(expm_antihermitian(omega6) - ref))
            gaps.append(engine._hermitian_norm_bound(1j * tail))
            assert gaps[-1] >= errors[-1]
        assert errors[0] / errors[1] >= 2 ** 6.5
        assert gaps[0] / gaps[1] >= 2 ** 6.5

    @pytest.mark.parametrize("d", [8, 16])
    def test_commutator_stack_is_exactly_antihermitian(self, rng, d):
        # the step exponentiates real combinations of these entries unchecked
        stack = engine._commutator_stack(random_hermitian(rng, d), random_hermitian(rng, d))
        for s in stack:
            assert np.array_equal(s, -s.conj().T)

    def test_gram_certificate_bounds_tail(self, rng):
        # sqrt(r^T G r) is the tail's Frobenius norm, which is at least its
        # operator norm; the rounding allowance only adds to it
        a = random_hermitian(rng, 8)
        b = random_hermitian(rng, 8)
        stack = engine._commutator_stack(a, b)
        gram = engine._tail_gram(stack)
        for dt in (0.3, 0.1, 0.02):
            rows = engine._magnus86_rows(sin3, 0.3, dt)
            _, tail = linalg.real_combination(rows, stack)
            cert = engine._gram_certificate(rows[1, engine._TAIL], *gram)
            frobenius = np.linalg.norm(tail)
            assert cert >= frobenius >= op_norm(tail)
            assert cert == pytest.approx(frobenius, rel=1e-6)

    def test_anchored_certificate_bounds_tail(self, rng):
        # lifted by (x) I_4, the Frobenius certificate doubles; the anchored
        # one keeps near the anchor's product bound, stays above the
        # operator norm, and declines far from the anchor
        eye = np.eye(4)
        a = np.kron(random_hermitian(rng, 8), eye)
        b = np.kron(random_hermitian(rng, 8), eye)
        stack = engine._commutator_stack(a, b)
        gram, slack = engine._tail_gram(stack)

        def tail_at(t0):
            rows = engine._magnus86_rows(sin3, t0, 0.05)
            return rows[1, engine._TAIL], linalg.real_combination(rows, stack)[1]

        r0, tail0 = tail_at(0.3)
        anchor = engine._anchor(r0, gram, engine._hermitian_norm_bound(tail0))
        for t0 in (0.3, 0.31, 0.32):
            r, tail = tail_at(t0)
            cert = engine._anchored_certificate(r, gram, slack, *anchor)
            assert op_norm(tail) <= cert < engine._gram_certificate(r, gram, slack) / 1.5
        r, _ = tail_at(1.3)
        assert engine._anchored_certificate(r, gram, slack, *anchor) == math.inf
        assert engine._anchor(0 * r0, gram, 0.0) is None

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

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_nonpositive_or_nan_tolerance_refused(self, tol):
        # NaN fails both bound comparisons; read as positive it would
        # reject every trial step until the step cap
        with pytest.raises(ValueError, match="tolerance must be positive"):
            IntegratorConfig(tol=tol)

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
        monkeypatch.setattr(engine, "MAX_STEPS", 3)
        cfg = IntegratorConfig(tol=1e-14)
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
        spec = encoded_spec()
        for s in (0.0, 0.3, 1.0):
            psi = instantaneous_ground_state(spec, s)
            h = spec.interpolate(s)
            e = np.vdot(psi, h @ psi).real
            assert np.linalg.norm(h @ psi - e * psi) <= 1e-10

    def test_deterministic_phase(self):
        spec = encoded_spec()
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
        )
        with pytest.raises(DegenerateGroundStateError):
            instantaneous_ground_state(spec, 0.0)

    def test_code_restriction_lifts_full_space_degeneracy(self):
        # encoded H0 is degenerate on the full space (syndrome copies) but
        # unique inside the code space
        spec = encoded_spec()
        psi = instantaneous_ground_state(spec, 0.0)
        v = spec.code_basis
        assert np.linalg.norm(v @ (v.conj().T @ psi) - psi) <= 1e-12


class TestClosedAdiabatic:
    def test_long_run_tracks_ground_state(self):
        run = run_closed_adiabatic(one_qubit_spec(), 60.0)
        assert run.delta_ad < 1e-3

    def test_dilation_improves(self):
        spec = one_qubit_spec()
        slow = run_closed_adiabatic(spec, 2.0 * 6.0)
        fast = run_closed_adiabatic(spec, 6.0)
        assert slow.delta_ad < fast.delta_ad

    def test_constant_hamiltonian_stays_put(self):
        spec = AdiabaticSpec(
            n=1,
            h0_terms=[(-1.0, PauliString.from_letters("X"))],
            h1_terms=[(-1.0, PauliString.from_letters("X"))],
        )
        run = run_closed_adiabatic(spec, 3.0)
        assert run.delta_ad <= 1e-9

    def test_code_basis_off_isometry_refused_before_propagation(self, monkeypatch):
        # with V -> 2V, V^dag psi0 drops part of psi0: the projection the run
        # starts from would not be the ground state it reports
        def no_propagation(*args, **kwargs):
            raise AssertionError("a propagation was started")

        spec = encoded_spec()
        spec = dataclasses.replace(spec, code_basis=2 * spec.code_basis)
        schedule = pdd_schedule(universal_group(4), 0.25, 0.0, 1)
        bath = linear_decoherence(4, 1, 0.1, seed=7)
        monkeypatch.setattr(engine, "propagate_with_stats", no_propagation)
        with pytest.raises(ValueError, match="outside the code space"):
            run_closed_adiabatic(spec, 1.0)
        with pytest.raises(ValueError, match="outside the code space"):
            run_protected(spec, bath, schedule)

    def test_diagnostics_are_the_propagation_statistics(self):
        spec = encoded_spec()
        cfg = IntegratorConfig(tol=1e-9)
        run = run_closed_adiabatic(spec, 6.0, cfg)
        h0, h1 = spec.code_pair
        generator = AffineGenerator((h0,), h1 - h0, engine._schedule_fraction(spec, 6.0))
        _, stats = propagate_with_stats(generator, 6.0, cfg)
        assert run.diagnostics["steps"] == stats["steps"] > 0
        assert run.diagnostics["error_estimate"] == stats["error_estimate"]


def transverse_field_spec():
    """Unencoded 4-qubit model: its terms do not commute with the pulses."""
    h0 = [(-1.0, PauliString.single(4, i, "X")) for i in range(4)]
    h1 = [(-(0.8 + 0.1 * i), PauliString.single(4, i, "Z")) for i in range(4)]
    h1 += [(-0.5, PauliString.single(4, i, "Z") * PauliString.single(4, i + 1, "Z"))
           for i in range(3)]
    return AdiabaticSpec(n=4, h0_terms=h0, h1_terms=h1)


def quick_protected(j=0.1, total_time=2.0, tau=0.25, w=0.0, tol=1e-9, group=None,
                    penalty=None, penalty_during_pulse=True, seed=11, n_b=1,
                    spec_fn=encoded_spec):
    grp = group or universal_group(4)
    cycles = max(1, round(total_time / (grp.order * (tau + w))))
    schedule = pdd_schedule(grp, tau, w, cycles)
    spec = dataclasses.replace(spec_fn(), penalty=penalty,
                               penalty_during_pulse=penalty_during_pulse)
    bath = linear_decoherence(4, n_b, j, seed=seed)
    coupled, uncoupled, _ = run_protected(spec, bath, schedule, cfg=IntegratorConfig(tol=tol))
    return spec, bath, schedule, coupled, uncoupled


def protected_propagators(total_time, w, tau, n_b, tol):
    """(u, stats) of the coupled, twin and frame propagations of the J = 0.1
    quick_protected run at tolerance ``tol``."""
    spec, bath, schedule, coupled, twin = quick_protected(
        j=0.1, total_time=total_time, tau=tau, w=w, tol=tol, n_b=n_b)
    h_sys = engine._timed_hamiltonian(spec, schedule, False)
    frame = propagate_with_stats(h_sys, schedule.total_time, IntegratorConfig(tol=tol))
    return [(coupled.u_total, coupled.diagnostics), (twin.u_total, twin.diagnostics), frame]


@functools.cache
def reference_propagators(total_time, w, tau, n_b):
    """:func:`protected_propagators` at tol = 1e-12, computed once per
    configuration for all the tolerances checked against it."""
    return protected_propagators(total_time, w, tau, n_b, 1e-12)


def joint_twin_propagator(spec, bath, schedule, tol):
    """The uncoupled twin propagated on the joint space: H_sys(t) (x) I +
    I (x) H_B with joint kicks, H_sys built here from spec.interpolate, the
    spec's gated penalty and the pulse generators, one piece per free
    interval and window, switched and kicked on the twin generator's
    schedule."""
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

    timing = protected_hamiltonian(spec, bath, schedule, include_coupling=False)
    gen = AffineGenerator(
        tuple(np.kron(h, eye_b) + h_b for h in (free, *windows)),
        np.kron(spec.interpolate(1.0) - h_start, eye_b),
        lambda t: spec.schedule(min(max(t / total, 0.0), 1.0)),
        timing.switches,
        timing.kicks,
    )
    u, _ = propagate_with_stats(gen, total, IntegratorConfig(tol=tol))
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
        assert coupled.diagnostics["steps"] == 0
        assert coupled.diagnostics["floored"] == 0
        assert coupled.diagnostics["rejected"] == 0
        assert uncoupled.diagnostics["steps"] > 0
        assert coupled.diagnostics["error_estimate"] == uncoupled.diagnostics["error_estimate"]

    def test_degenerate_ground_bath_refused_before_any_propagation(self, monkeypatch):
        # beta_b = 0 makes H_B = 0, so the bath has no unique ground state
        def no_propagation(*args, **kwargs):
            raise AssertionError("a propagation was started")

        spec = encoded_spec()
        schedule = pdd_schedule(universal_group(4), 0.25, 0.0, 1)
        bath = linear_decoherence(4, 1, 0.1, seed=7, beta_b=0.0)
        monkeypatch.setattr(engine, "propagate_with_stats", no_propagation)
        with pytest.raises(DegenerateGroundStateError, match="ground level degenerate of the bath"):
            run_protected(spec, bath, schedule, bath_state="ground")

    @pytest.mark.parametrize("spec_fn, j", [
        pytest.param(encoded_spec, 0.1, id="encoded"),
        pytest.param(transverse_field_spec, 0.1, id="unencoded"),
        pytest.param(encoded_spec, 0.0, id="zero-coupling"),
    ])
    def test_closed_run_is_the_direct_closed_run(self, spec_fn, j):
        spec = spec_fn()
        schedule = pdd_schedule(universal_group(4), 0.25, 0.0, 2)
        bath = linear_decoherence(4, 1, j, seed=11)
        cfg = IntegratorConfig(tol=1e-9)
        _, _, closed = run_protected(spec, bath, schedule, cfg=cfg)
        direct = run_closed_adiabatic(spec, schedule.total_time, cfg)
        for name in ("psi_initial", "psi_final", "target"):
            assert np.array_equal(getattr(closed, name), getattr(direct, name))
        assert closed.delta_ad == direct.delta_ad
        assert closed.diagnostics == direct.diagnostics
        assert closed.diagnostics["steps"] > 0

    def test_ground_bath_state_is_lowest_eigenvector(self):
        spec, bath, schedule, _, _ = quick_protected(j=0.0, n_b=2)
        _, twin, _ = run_protected(spec, bath, schedule, bath_state="ground",
                                   cfg=IntegratorConfig(tol=1e-9))
        u = twin.u_total
        rho_b0 = partial_trace(dagger(u) @ twin.rho_final @ u, (16, 4), (1,))
        v = np.linalg.eigh(bath.h_b)[1][:, 0]
        assert np.max(np.abs(rho_b0 - np.outer(v, v.conj()))) <= 1e-12

    def test_error_estimate_within_budget(self):
        # T = 2 over 8 slots: each segment's share tol/8 is far above 64 eps
        tol = 1e-9
        _, _, _, coupled, uncoupled = quick_protected(j=0.1, tol=tol)
        for art in (coupled, uncoupled):
            assert 0.0 < art.diagnostics["error_estimate"] <= tol
            assert art.diagnostics["floored"] == 0

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    @pytest.mark.parametrize("total_time, w, tau, n_b", [
        pytest.param(2.0, 0.0, 0.25, 1, id="2.0-0.0"),
        pytest.param(2.4, 0.05, 0.25, 1, id="2.4-0.05"),
        # every coupled step is clipped by a kick, most accepted on the
        # anchored certificate
        pytest.param(2.0, 0.0, 1 / 16, 1, id="kick-limited"),
        # the same at d = 64 over 256 slots, where a Frobenius norm alone
        # read 44 times the true error
        pytest.param(8.0, 0.0, 1 / 32, 2, id="kick-limited-d64"),
    ])
    def test_error_estimate_tracks_true_error(self, total_time, w, tau, n_b, tol):
        # the summed estimate of each propagation against its true
        # operator-norm error, measured on a tol = 1e-12 run: never below
        # it, and at most 50 times above
        runs = protected_propagators(total_time, w, tau, n_b, tol)
        for (u, stats), (u_ref, _) in zip(runs, reference_propagators(total_time, w, tau, n_b)):
            ratio = stats["error_estimate"] / op_norm(u - u_ref)
            assert 1.0 <= ratio <= 50.0

    def test_encoded_twin_defers_its_kicks(self):
        # every pulse commutes with the encoded generator, so the twin takes
        # the frame's adaptive steps and matches the kick-bounded propagation
        tol = 1e-9
        spec, bath, schedule, _, twin = quick_protected(j=0.1, tol=tol)
        h_sys = engine._timed_hamiltonian(spec, schedule, False)
        total = schedule.total_time
        _, frame_stats = propagate_with_stats(h_sys, total, IntegratorConfig(tol=tol))
        assert twin.diagnostics["steps"] == frame_stats["steps"]
        assert twin.diagnostics["segments"] == 1
        # kick-bounded reference: one propagation per slot, then its kick
        reference = np.eye(16, dtype=complex)
        slot = schedule.slot_time
        kicks = protected_hamiltonian(spec, bath, schedule, include_coupling=False).kicks
        for k, (_, pulse) in enumerate(kicks):
            shifted = AffineGenerator(h_sys.pieces, h_sys.q,
                                      lambda t, t0=k * slot: h_sys.f(t0 + t))
            part, _ = propagate_with_stats(shifted, slot,
                                           IntegratorConfig(tol=tol * slot / total))
            reference = to_dense(pulse) @ part @ reference
        reference = np.kron(reference, expm_hermitian(bath.h_b, total))
        assert op_norm(twin.u_total - reference) <= 10 * tol

    def test_kick_clipped_steps_accept_on_certificate(self, monkeypatch):
        # tau = 1/16 over T = 8: every coupled step is clipped by a kick, and
        # at most one in four pays a product bound; the rest are accepted on
        # the anchored certificate
        spec, bath, schedule, coupled, _ = quick_protected(
            j=0.1, total_time=8.0, tau=1 / 16, tol=1e-8)
        calls = []
        product_bound = engine._hermitian_norm_bound
        monkeypatch.setattr(engine, "_hermitian_norm_bound",
                            lambda x: calls.append(x.shape) or product_bound(x))
        h = protected_hamiltonian(spec, bath, schedule)
        u, stats = propagate_with_stats(h, schedule.total_time, IntegratorConfig(tol=1e-8))
        assert stats["steps"] == schedule.total_pulses == 128 and stats["rejected"] == 0
        assert 1 <= len(calls) <= 128 // 4
        assert 0.0 < stats["error_estimate"] <= 1e-8
        assert np.array_equal(u, coupled.u_total)

    def test_noncommuting_twin_keeps_kick_bounded_steps(self):
        # unencoded terms do not commute with the pulses: every kick still
        # ends a segment, so the twin integrates one segment per slot
        _, _, schedule, _, twin = quick_protected(j=0.1, spec_fn=transverse_field_spec)
        assert twin.diagnostics["segments"] == schedule.total_pulses == 8
        assert twin.diagnostics["steps"] >= schedule.total_pulses

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
        _, bath, _, coupled, uncoupled = quick_protected(j=0.15)
        for art in (coupled, uncoupled):
            rho_s = partial_trace(art.rho_final, (16, bath.bath_dim), (0,))
            assert abs(np.trace(art.rho_final) - 1.0) <= 1e-10
            assert abs(np.trace(rho_s) - 1.0) <= 1e-10

    def test_propagators_unitary(self):
        _, _, _, coupled, uncoupled = quick_protected(j=0.15)
        d = coupled.u_total.shape[0]
        for art in (coupled, uncoupled):
            assert op_norm(art.u_total.conj().T @ art.u_total - np.eye(d)) <= 1e-9

    def test_uncoupled_reduced_state_matches_closed_run(self):
        schedule = pdd_schedule(universal_group(4), 0.25, 0.0, 2)
        bath = linear_decoherence(4, 1, 0.0, seed=11)
        _, uncoupled, closed = run_protected(encoded_spec(), bath, schedule,
                                             cfg=IntegratorConfig(tol=1e-11))
        rho_closed = np.outer(closed.psi_final, closed.psi_final.conj())
        rho_s = partial_trace(uncoupled.rho_final, (16, bath.bath_dim), (0,))
        assert trace_distance(rho_s, rho_closed) <= 1e-9

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

    def test_one_bath_exponential_per_experiment(self, monkeypatch):
        calls = []

        def counting_expm(h, t, *args):
            calls.append((h, t))
            return expm_hermitian(h, t, *args)

        monkeypatch.setattr(engine, "expm_hermitian", counting_expm)
        spec, bath, schedule, _, _ = quick_protected(j=0.1)
        assert len(calls) == 1
        assert calls[0][0] is bath.h_b and calls[0][1] == schedule.total_time

    def test_twin_error_phase_does_not_see_the_bath(self):
        # simulate_finite_pulse's shape: finite pulses, penalty gated off in
        # the windows; the twin's Phi is taken on the system space alone
        from aqc_shield.codes import penalty_hamiltonian
        pen = penalty_hamiltonian(universal_group(4), 1.0)
        phis = [quick_protected(j=0.1, total_time=2.4, tau=0.25, w=0.05, tol=1e-8,
                                penalty=pen, penalty_during_pulse=False, seed=seed)[4].phi
                for seed in (1234, 1241, 1248)]
        assert phis[0] == phis[1] == phis[2]

    def test_dimension_mismatch_rejected(self):
        spec = encoded_spec()
        schedule = pdd_schedule(universal_group(2), 0.25, 0.0, 2)
        bath = linear_decoherence(4, 1, 0.1, seed=0)
        with pytest.raises(ValueError, match="qubits"):
            run_protected(spec, bath, schedule)


class TestInteractionFrame:
    def test_identity_without_coupling_or_control(self):
        spec = one_qubit_spec()
        schedule = pdd_schedule(trivial_group(1), 0.5, 0.0, 4)
        bath = linear_decoherence(1, 1, 0.0, seed=2)
        h = protected_hamiltonian(spec, bath, schedule)
        u_total, _ = propagate_with_stats(h, 2.0)
        u_frame = np.kron(frame_unitary(spec, schedule), expm_hermitian(bath.h_b, 2.0))
        u_tilde = dagger(u_frame) @ u_total
        assert op_norm(u_tilde - np.eye(4)) <= 1e-9

    def test_control_only_gives_pulse_product(self):
        # no coupling, finite-width pulses, stop after the first slot:
        # the residual is exactly the first pulse (lifted over the bath)
        group = global_x_group(1)
        schedule = pdd_schedule(group, 0.4, 0.1, 1)
        spec = AdiabaticSpec(n=1, h0_terms=[], h1_terms=[])
        bath = linear_decoherence(1, 1, 0.0, seed=4)
        t_slot = schedule.slot_time
        h = protected_hamiltonian(spec, bath, schedule)
        u_total, _ = propagate_with_stats(h, t_slot)
        u_sys, _ = propagate_with_stats(engine._timed_hamiltonian(spec, schedule, False), t_slot)
        u_frame = np.kron(u_sys, expm_hermitian(bath.h_b, t_slot))
        u_tilde = dagger(u_frame) @ u_total
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

    @pytest.mark.parametrize("total_time", [math.nan, math.inf])
    def test_rejects_non_finite_time_before_the_logarithm(self, monkeypatch, total_time):
        # NaN passes a `<= 0` test and would give an all-NaN H_eff with Phi = 0
        def no_log(*args, **kwargs):
            raise AssertionError("the logarithm was taken")

        monkeypatch.setattr(engine, "logm_unitary", no_log)
        with pytest.raises(ValueError, match="positive and finite"):
            effective_hamiltonian(np.eye(2, dtype=complex), total_time)


class TestMagnusFirstOrder:
    def test_trivial_group_is_identity_map(self, rng):
        a = random_hermitian(rng, 8)
        assert np.allclose(group_average(trivial_group(2), a), a)

    def test_dimension_check(self, rng):
        with pytest.raises(ValueError, match="multiple"):
            group_average(universal_group(2), random_hermitian(rng, 6))
