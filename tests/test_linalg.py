import math
import os
from fractions import Fraction
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_density, random_hermitian
import aqc_shield
from aqc_shield import linalg
from aqc_shield.engine import AffineGenerator, propagate_with_stats
from aqc_shield.linalg import (
    BranchCutError,
    expm_antihermitian,
    expm_hermitian,
    logm_unitary,
    op_norm,
    partial_trace,
    trace_norm,
)
from aqc_shield.pauli import PauliString, to_dense


class TestNorms:
    def test_pauli_dense_has_unit_op_norm(self, rng):
        for letters in ("X", "ZZ", "XYZ"):
            assert op_norm(to_dense(PauliString.from_letters(letters))) == pytest.approx(1.0)

    def test_density_matrix_trace_norm(self, rng):
        rho = random_density(rng, 6)
        assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        a = np.diag([3.0, -1.0]).astype(complex)
        assert op_norm(a) == pytest.approx(3.0)
        assert trace_norm(a) == pytest.approx(4.0)



class TestExpm:
    def test_euler_formula(self):
        u = expm_hermitian(to_dense(PauliString.from_letters("X")), math.pi / 2)
        assert np.allclose(u, -1j * to_dense(PauliString.from_letters("X")), atol=1e-12)

    def test_zero_time(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        assert np.allclose(expm_hermitian(h, 0.0), np.eye(2))

    def test_random_unitarity_and_roundtrip(self, rng):
        h = random_hermitian(rng, 8)
        u = expm_hermitian(h, 0.7)
        assert op_norm(u.conj().T @ u - np.eye(8)) <= 1e-12
        evals, vecs = np.linalg.eigh(h)
        rebuilt = (vecs * np.exp(-1j * 0.7 * evals)) @ vecs.conj().T
        assert np.allclose(u, rebuilt, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_rejects_complex_non_hermitian(self, rng):
        h = random_hermitian(rng, 4)
        h[0, 1] += 1e-6j
        with pytest.raises(ValueError, match="exponent is not Hermitian within 1e-10"):
            expm_hermitian(h, 1.0)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 2, 2)])
    def test_rejects_non_square_exponent(self, shape):
        # A vector equals its own transpose, so only the shape refuses it.
        with pytest.raises(ValueError, match=r"exponent is not a square matrix \(shape"):
            expm_hermitian(np.ones(shape), 1.0)

    def test_polynomial_within_unit_roundoff_on_its_segment(self):
        # Sastre's formula expanded exactly from the stored constants: the
        # (A^0..A^4) coefficients of its two factors, plus f + e0 y0.
        c4, c3, d2, d1, e2, e0, f2, f1, f0 = (Fraction(c) for c in linalg.EXPM8_CONSTANTS)
        b = [Fraction(0)] * 9
        for i, u in enumerate((0, d1, d2, c3, c4)):
            for j, v in enumerate((0, 0, e2, c3, c4)):
                b[i + j] += u * v
        for k, c in enumerate((f0, f1, f2, e0 * c3, e0 * c4)):
            b[k] += c
        assert b[8] == c4 * c4 > 0
        # e(x) = p(ix) - e^{ix} = sum_k s_k (ix)^k with e^{ix} to degree 24;
        # Re e takes the even k and Im e the odd k, with sign (-1)^(k // 2).
        s = [(b[k] if k < 9 else 0) - Fraction(1, math.factorial(k)) for k in range(25)]
        theta = Fraction(linalg.EXPM8_THETA)
        h = theta / 200  # the 401-point grid on [-theta, theta]; |e| is even
        worst = 0.0
        for j in range(201):
            x = j * h
            re, im = (sum(s[k] * (-1) ** (k // 2) * x**k for k in range(r, 25, 2))
                      for r in (0, 1))
            worst = max(worst, math.hypot(float(re), float(im)))
        # Between grid points e is within max |e''| h^2 / 8 of its chord,
        # which is no larger than e at an end; the Taylor tails of e and
        # e'' are below 2 theta^25 / 25! and 2 theta^23 / 23!.
        curvature = sum(k * (k - 1) * abs(s[k]) * theta ** (k - 2) for k in range(2, 25))
        curvature += 2 * theta**23 / math.factorial(23)
        bound = worst + float(curvature * h**2 / 8 + 2 * theta**25 / math.factorial(25))
        assert bound <= 2.0**-53

    def test_zero_exponent_is_exact_identity(self, rng):
        assert np.array_equal(expm_hermitian(np.zeros((4, 4)), 1.0), np.eye(4))
        assert np.array_equal(expm_hermitian(random_hermitian(rng, 4), 0.0), np.eye(4))
        assert np.array_equal(expm_antihermitian(np.zeros((4, 4), dtype=complex)), np.eye(4))

    def test_inverse_is_negative_time(self, rng):
        h = random_hermitian(rng, 8)
        for t in (0.05, 0.7, 40.0):
            u = expm_hermitian(h, -t) @ expm_hermitian(h, t)
            assert np.max(np.abs(u - np.eye(8))) <= 1e-12

    def test_dimension_one(self):
        u = expm_hermitian(np.array([[2.5]]), 0.3)
        assert u.shape == (1, 1)
        assert u[0, 0] == pytest.approx(np.exp(-0.75j), abs=1e-15)

    @pytest.mark.parametrize("t", [0.0, 0.01, 0.3, 5.0, 60.0])
    def test_antihermitian_entry_is_the_checked_entry(self, rng, t):
        # the checked entry hands its exponent on as -i t h: bitwise equal,
        # from no squaring (t <= 0.01 here) to several
        h = random_hermitian(rng, 8)
        assert np.array_equal(expm_antihermitian(-1j * t * h), expm_hermitian(h, t))

    @pytest.mark.parametrize("t", [0.01, 0.3, 5.0])
    def test_antihermitian_entry_is_unitary(self, rng, t):
        # up to 8 squarings; each squaring can double the rounding
        u = expm_antihermitian(-1j * t * random_hermitian(rng, 8))
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-13

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_antihermitian_non_finite_exponent_refused(self, bad):
        a = np.zeros((4, 4), dtype=complex)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite norm"), np.errstate(invalid="ignore"):
            expm_antihermitian(a)

    def test_step_path_takes_no_eigendecomposition(self, rng, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called on the step path")

        monkeypatch.setattr(linalg.np.linalg, "eigh", no_eigh)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        generator = AffineGenerator((a,), b, lambda t: math.sin(2 * t))
        u, stats = propagate_with_stats(generator, 1.0)
        assert stats["steps"] > 0
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


class TestLogm:
    def test_identity(self):
        assert np.allclose(logm_unitary(np.eye(4, dtype=complex)), 0.0)

    def test_recover_generator(self):
        h = 0.3 * to_dense(PauliString.from_letters("Z"))
        assert np.max(np.abs(logm_unitary(expm_hermitian(h, 1.0)) - h)) <= 1e-12

    def test_branch_error_at_pi(self):
        with pytest.raises(BranchCutError):
            logm_unitary(-np.eye(2, dtype=complex))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            logm_unitary(np.diag([1.0, 2.0]).astype(complex))


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 4)
        joint = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, (2, 4), (0,)), rho_a, atol=1e-12)
        assert np.allclose(partial_trace(joint, (2, 4), (1,)), rho_b, atol=1e-12)

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace(rho, (2, 2), (0,)), np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 12)
        reduced = partial_trace(rho, (3, 4), (1,))
        assert abs(np.trace(reduced) - np.trace(rho)) <= 1e-14

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dims"):
            partial_trace(np.eye(6, dtype=complex), (2, 4), (0,))

    def test_marginals_are_sums_over_the_traced_index(self, rng):
        rho = random_density(rng, 12)
        # rho[i * 4 + a, j * 4 + b] for factors (3, 4)
        first = sum(rho[a::4, a::4] for a in range(4))
        second = sum(rho[4 * i:4 * i + 4, 4 * i:4 * i + 4] for i in range(3))
        assert np.allclose(partial_trace(rho, (3, 4), (0,)), first, rtol=0, atol=1e-15)
        assert np.allclose(partial_trace(rho, (3, 4), (1,)), second, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dims, keep", [((2, 2, 2), (0,)), ((2, 4), (0, 1))],
                             ids=["three-factors", "keep-both"])
    def test_only_one_of_two_factors_kept(self, dims, keep):
        with pytest.raises(ValueError, match="two factors"):
            partial_trace(np.eye(8, dtype=complex) / 8, dims, keep)


def test_import_loads_no_scipy():
    # SciPy's import alone costs more than half of ``import aqc_shield``
    src = os.path.dirname(os.path.dirname(os.path.abspath(aqc_shield.__file__)))
    code = "import sys, aqc_shield; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
