import math

import numpy as np
import pytest

from aqc_shield import model
from aqc_shield.linalg import op_norm
from aqc_shield.model import (
    AdiabaticSpec,
    Schedule,
    beta_system_bath,
    dense_terms,
    h_ad,
    linear_decoherence,
    min_gap,
    schedule_eval,
    universal_aqc_terms,
    universal_2local_preset,
)
from aqc_shield.pauli import PauliString, to_dense


def two_level_spec(kind="linear"):
    return AdiabaticSpec(
        n=1,
        h0_terms=[(1.0, PauliString.from_letters("X"))],
        h1_terms=[(1.0, PauliString.from_letters("Z"))],
        schedule=Schedule(kind),
        total_time=1.0,
    )


class TestSchedules:
    @pytest.mark.parametrize("kind", model.SCHEDULE_KINDS)
    def test_endpoints(self, kind):
        assert schedule_eval(kind, 0.0)[0] == pytest.approx(0.0, abs=1e-15)
        assert schedule_eval(kind, 1.0)[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("kind", ["smooth-endpoint", "polynomial-smooth"])
    def test_flat_endpoint_derivative(self, kind):
        assert schedule_eval(kind, 0.0)[1] == pytest.approx(0.0, abs=1e-12)
        assert schedule_eval(kind, 1.0)[1] == pytest.approx(0.0, abs=1e-12)

    def test_smooth_midpoint(self):
        f, fp, _ = schedule_eval("smooth-endpoint", 0.5)
        assert f == pytest.approx(0.5, abs=1e-15)
        assert fp == pytest.approx(2.0, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            schedule_eval("linear", 1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Schedule("cubic")

    @pytest.mark.parametrize("kind", model.SCHEDULE_KINDS)
    def test_derivative_matches_finite_difference(self, kind):
        h = 1e-5
        for s in np.linspace(0.02, 0.98, 50):
            f_m = schedule_eval(kind, s - h)[0]
            f_p = schedule_eval(kind, s + h)[0]
            fp = schedule_eval(kind, s)[1]
            assert abs(fp - (f_p - f_m) / (2 * h)) <= 1e-6
            fpp = schedule_eval(kind, s)[2]
            f_0 = schedule_eval(kind, s)[0]
            assert abs(fpp - (f_p - 2 * f_0 + f_m) / h ** 2) <= 1e-4


class TestHAd:
    def test_endpoints(self):
        spec = two_level_spec()
        assert np.allclose(h_ad(spec, 0.0), to_dense(PauliString.from_letters("X")))
        assert np.allclose(h_ad(spec, 1.0), to_dense(PauliString.from_letters("Z")))

    def test_hermitian_along_path(self, rng):
        spec = two_level_spec("smooth-endpoint")
        for s in rng.uniform(0, 1, 20):
            h = h_ad(spec, float(s))
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_norm_triangle(self, rng):
        spec = two_level_spec()
        n0 = op_norm(dense_terms(spec.h0_terms, 1))
        n1 = op_norm(dense_terms(spec.h1_terms, 1))
        for s in rng.uniform(0, 1, 10):
            f = schedule_eval("linear", float(s))[0]
            assert op_norm(h_ad(spec, float(s))) <= (1 - f) * n0 + f * n1 + 1e-12

    def test_term_length_validated(self):
        with pytest.raises(ValueError, match="qubits"):
            AdiabaticSpec(n=2, h0_terms=[(1.0, PauliString.from_letters("X"))],
                          h1_terms=[])


def encoded_preset_spec(n=6):
    """The shipped universal-2local preset on n - 2 logical qubits, encoded."""
    from aqc_shield.codes import code_from_universal_group, encode_hamiltonian
    h0f, h1f, h0p, h1p = universal_2local_preset(n - 2)
    code, _ = code_from_universal_group(n)
    return AdiabaticSpec(
        n=n,
        h0_terms=encode_hamiltonian(universal_aqc_terms(h0f, h0p, n - 2), n),
        h1_terms=encode_hamiltonian(universal_aqc_terms(h1f, h1p, n - 2), n),
        schedule=Schedule("smooth-endpoint"),
        total_time=1.0,
        code_basis=code.basis_matrix(),
    )


def per_call_interpolate(spec, s, h0=None, h1=None):
    """The interpolation as built before the cache: dense H0 and H1 from
    the term lists on every call."""
    f = schedule_eval(spec.schedule.kind, s)[0]
    h0 = dense_terms(spec.h0_terms, spec.n) if h0 is None else h0
    h1 = dense_terms(spec.h1_terms, spec.n) if h1 is None else h1
    return (1 - f) * h0 + f * h1


class TestCompiledModel:
    S_POINTS = (0.0, 0.17, 0.5, 0.83, 1.0)

    def test_h_ad_equals_per_call_build(self):
        spec = encoded_preset_spec()
        for s in self.S_POINTS:
            assert np.array_equal(h_ad(spec, s), per_call_interpolate(spec, s))

    def test_spectra_and_ground_states_equal_per_call_build(self, monkeypatch):
        from aqc_shield.engine import instantaneous_ground_state
        spec = encoded_preset_spec()
        with monkeypatch.context() as patched:
            patched.setattr(AdiabaticSpec, "interpolate", per_call_interpolate)
            ref_gap = min_gap(spec)
            ref_states = [instantaneous_ground_state(spec, s) for s in self.S_POINTS]
        gap = min_gap(spec)
        assert np.array_equal(gap.energies, ref_gap.energies)
        assert (gap.gap, gap.s_star, gap.degenerate) == (
            ref_gap.gap, ref_gap.s_star, ref_gap.degenerate)
        for s, ref in zip(self.S_POINTS, ref_states):
            assert np.array_equal(instantaneous_ground_state(spec, s), ref)

    def test_dense_operators_built_once_and_read_only(self):
        spec = encoded_preset_spec()
        assert spec.H0 is spec.H0 and spec.H1 is spec.H1
        for op in (spec.H0, spec.H1):
            assert not op.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                op[0, 0] = 1.0
        assert np.array_equal(spec.H0, dense_terms(spec.h0_terms, spec.n))
        assert np.array_equal(spec.H1, dense_terms(spec.h1_terms, spec.n))


class TestUniversalTerms:
    def test_empty(self):
        assert universal_aqc_terms({}, {}, 2) == []
        assert universal_aqc_terms({(0, "x"): 0.0}, {}, 2) == []

    def test_single_zz_coupling(self):
        terms = universal_aqc_terms({}, {(0, 1, "z"): 1.0}, 2)
        assert terms == [(1.0, PauliString.from_letters("ZZ"))]

    def test_rejects_y(self):
        with pytest.raises(ValueError, match="x and z"):
            universal_aqc_terms({(0, "y"): 1.0}, {}, 2)

    def test_diagonal_instance_norm_is_coefficient_sum(self):
        # all-z terms commute; with positive coefficients the extreme
        # eigenvalue is the coefficient sum
        h = {(0, "z"): 0.5, (1, "z"): 1.5}
        j = {(0, 1, "z"): 0.25}
        dense = dense_terms(universal_aqc_terms(h, j, 2), 2)
        assert op_norm(dense) == pytest.approx(0.5 + 1.5 + 0.25, abs=1e-12)

    def test_callable_coefficients(self):
        terms = universal_aqc_terms({(0, "x"): lambda s: 2 * s}, {}, 1, s=0.25)
        assert terms == [(0.5, PauliString.from_letters("X"))]

    def test_preset_shapes(self):
        h0f, h1f, h0p, h1p = universal_2local_preset(2)
        assert set(h0f) == {(0, "x"), (1, "x")}
        assert set(h1p) == {(0, 1, "z")}


class TestLinearDecoherence:
    def test_term_count_n1(self):
        bath = linear_decoherence(1, 1, 0.5, seed=0)
        assert len(bath.couplings) == 3
        letters = {term.letters for term, _ in bath.couplings}
        assert letters == {"X", "Y", "Z"}

    def test_norm_rescaled_to_j(self):
        for j in (0.05, 1.0, 3.0):
            bath = linear_decoherence(2, 2, j, seed=1)
            assert op_norm(bath.h_sb) == pytest.approx(j, abs=1e-10)

    def test_deterministic(self):
        a = linear_decoherence(2, 1, 0.3, seed=42)
        b = linear_decoherence(2, 1, 0.3, seed=42)
        assert np.array_equal(a.h_sb, b.h_sb)
        assert np.array_equal(a.h_b, b.h_b)
        for (ta, fa), (tb, fb) in zip(a.couplings, b.couplings):
            assert ta == tb and np.array_equal(fa, fb)

    def test_zero_coupling(self):
        bath = linear_decoherence(2, 1, 0.0, seed=0)
        assert np.count_nonzero(bath.h_sb) == 0

    def test_bath_norm(self):
        bath = linear_decoherence(1, 2, 0.1, seed=3, beta_b=2.5)
        assert op_norm(bath.h_b) == pytest.approx(2.5, abs=1e-10)

    def test_beta_inequality(self):
        spec = two_level_spec()
        bath = linear_decoherence(1, 1, 0.1, seed=7)
        beta = beta_system_bath(spec, bath.h_b)
        beta_s = max(op_norm(h_ad(spec, s)) for s in np.linspace(0, 1, 21))
        assert beta <= beta_s + op_norm(bath.h_b) + 1e-12


class TestMinGap:
    def test_two_level_closed_form(self):
        report = min_gap(two_level_spec("linear"), grid_points=51)
        assert report.gap == pytest.approx(math.sqrt(2), abs=1e-7)
        assert report.s_star == pytest.approx(0.5, abs=1e-6)
        # closed form gap(s) = 2 sqrt((1-s)^2 + s^2) on the grid
        for s, row in zip(report.s_grid, report.energies):
            assert row[1] - row[0] == pytest.approx(
                2 * math.sqrt((1 - s) ** 2 + s ** 2), abs=1e-12)

    def test_constant_hamiltonian(self):
        spec = AdiabaticSpec(
            n=1,
            h0_terms=[(1.0, PauliString.from_letters("Z"))],
            h1_terms=[(1.0, PauliString.from_letters("Z"))],
            total_time=1.0,
        )
        report = min_gap(spec, grid_points=11)
        assert report.gap == pytest.approx(2.0, abs=1e-10)

    def test_grid_convergence(self):
        coarse = min_gap(two_level_spec("smooth-endpoint"), grid_points=51)
        fine = min_gap(two_level_spec("smooth-endpoint"), grid_points=101)
        assert abs(coarse.gap - fine.gap) < 1e-6

    def test_degenerate_flagged(self):
        spec = AdiabaticSpec(
            n=2,
            h0_terms=[(1.0, PauliString.from_letters("ZZ"))],
            h1_terms=[(1.0, PauliString.from_letters("ZZ"))],
            total_time=1.0,
        )
        report = min_gap(spec, grid_points=11)
        assert report.degenerate
        assert report.gap == 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two grid points"):
            min_gap(two_level_spec(), grid_points=1)
