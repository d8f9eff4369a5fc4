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
        with pytest.raises(ValueError, match="outside"):
            Schedule("smooth-endpoint")(-0.1)

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
        assert np.allclose(spec.interpolate(0.0), to_dense(PauliString.from_letters("X")))
        assert np.allclose(spec.interpolate(1.0), to_dense(PauliString.from_letters("Z")))

    def test_hermitian_along_path(self, rng):
        spec = two_level_spec("smooth-endpoint")
        for s in rng.uniform(0, 1, 20):
            h = spec.interpolate(float(s))
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_norm_triangle(self, rng):
        spec = two_level_spec()
        n0 = op_norm(dense_terms(spec.h0_terms, 1))
        n1 = op_norm(dense_terms(spec.h1_terms, 1))
        for s in rng.uniform(0, 1, 10):
            f = schedule_eval("linear", float(s))[0]
            assert op_norm(spec.interpolate(float(s))) <= (1 - f) * n0 + f * n1 + 1e-12

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


def per_call_code_pair(spec):
    """The projected pair V^dag H V as built before the cache, per access."""
    v = spec.code_basis
    return tuple(v.conj().T @ dense_terms(t, spec.n) @ v for t in (spec.h0_terms, spec.h1_terms))


class TestCompiledModel:
    S_POINTS = (0.0, 0.17, 0.5, 0.83, 1.0)

    def test_h_ad_equals_per_call_build(self):
        spec = encoded_preset_spec()
        for s in self.S_POINTS:
            assert np.array_equal(spec.interpolate(s), per_call_interpolate(spec, s))

    def test_spectra_and_ground_states_equal_per_call_build(self, monkeypatch):
        from aqc_shield.engine import instantaneous_ground_state
        spec = encoded_preset_spec()
        with monkeypatch.context() as patched:
            patched.setattr(AdiabaticSpec, "interpolate", per_call_interpolate)
            patched.setattr(AdiabaticSpec, "code_pair", property(per_call_code_pair))
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
        assert spec.code_pair is spec.code_pair
        for op in (spec.H0, spec.H1, *spec.code_pair):
            assert not op.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                op[0, 0] = 1.0
        assert np.array_equal(spec.H0, dense_terms(spec.h0_terms, spec.n))
        assert np.array_equal(spec.H1, dense_terms(spec.h1_terms, spec.n))
        v = spec.code_basis
        for projected, h in zip(spec.code_pair, (spec.H0, spec.H1)):
            assert np.array_equal(projected, v.conj().T @ h @ v)

    def test_unencoded_code_pair_is_the_dense_pair(self):
        spec = two_level_spec()
        assert spec.code_pair[0] is spec.H0 and spec.code_pair[1] is spec.H1

    def test_penalty_shape_validated(self):
        with pytest.raises(ValueError, match="penalty operator dimension"):
            AdiabaticSpec(n=2, h0_terms=[], h1_terms=[], penalty=np.eye(2))


def random_terms(rng, n, letters="IXYZ", count=6):
    return [
        (float(rng.standard_normal()),
         PauliString.from_letters("".join(rng.choice(list(letters), size=n))))
        for _ in range(count)
    ]


class TestDenseTerms:
    def test_equals_sum_of_dense_strings(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 6))
            terms = random_terms(rng, n)
            ref = np.zeros((1 << n, 1 << n), dtype=complex)
            for coeff, term in terms:
                ref += coeff * to_dense(term)
            assert np.array_equal(dense_terms(terms, n), ref)

    def test_float64_exactly_when_the_terms_are_real(self, rng):
        for n in (1, 3, 5):
            assert dense_terms(random_terms(rng, n, "IXZ"), n).dtype == np.float64
        assert dense_terms([], 2).dtype == np.float64
        even_y = [(0.5, PauliString.from_letters("YY")), (-1.0, PauliString.from_letters("XZ"))]
        assert dense_terms(even_y, 2).dtype == np.float64
        odd_y = [(0.5, PauliString.from_letters("YZ")), (-1.0, PauliString.from_letters("XX"))]
        assert dense_terms(odd_y, 2).dtype == np.complex128

    def test_term_register_and_cap_checked(self):
        with pytest.raises(ValueError, match="does not act on 3 qubits"):
            dense_terms([(1.0, PauliString.from_letters("XX"))], 3)
        with pytest.raises(ValueError, match="cap"):
            dense_terms([], 13)


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
        beta_s = max(op_norm(spec.interpolate(s)) for s in np.linspace(0, 1, 21))
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

    def test_complex_model_matches_dense_reference(self):
        # an odd number of Y letters keeps H1 complex
        h0 = [(-1.0, PauliString.from_letters("XII")), (-1.0, PauliString.from_letters("IXI")),
              (-1.0, PauliString.from_letters("IIX"))]
        h1 = [(0.7, PauliString.from_letters("YZI")), (-0.5, PauliString.from_letters("ZZI")),
              (0.4, PauliString.from_letters("IYX")), (-0.9, PauliString.from_letters("IIZ")),
              (-0.6, PauliString.from_letters("ZII")), (-0.8, PauliString.from_letters("IZI"))]
        spec = AdiabaticSpec(n=3, h0_terms=h0, h1_terms=h1, total_time=1.0)
        assert spec.H1.dtype == np.complex128
        dense0, dense1 = (sum(c * to_dense(p) for c, p in terms) for terms in (h0, h1))

        def reference(s):
            f = spec.schedule(s)
            return np.linalg.eigvalsh((1 - f) * dense0 + f * dense1)

        report = min_gap(spec, grid_points=41)
        for s, row in zip(report.s_grid, report.energies):
            assert np.max(np.abs(row - reference(float(s)))) <= 1e-12
        e = reference(report.s_star)
        assert not report.degenerate and 0 < report.s_star < 1
        assert report.gap == pytest.approx(e[1] - e[0], abs=1e-12)
