import itertools
from functools import reduce

import numpy as np
import pytest

from aqc_shield.pauli import (
    PHASES,
    PauliString,
    apply_pauli,
    commutes,
    conjugate,
    pauli_mul,
    signed_permutation,
    to_dense,
)


def rand_pauli(rng, n):
    letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    phase = [1, 1j, -1, -1j][int(rng.integers(0, 4))]
    return PauliString(phase, letters)


class TestMultiplication:
    def test_single_qubit_table(self):
        x = PauliString.from_letters("X")
        y = PauliString.from_letters("Y")
        z = PauliString.from_letters("Z")
        assert pauli_mul(x, y) == PauliString(1j, "Z")
        assert pauli_mul(y, x) == PauliString(-1j, "Z")
        assert pauli_mul(y, z) == PauliString(1j, "X")
        assert pauli_mul(z, x) == PauliString(1j, "Y")
        assert pauli_mul(x, x) == PauliString.identity(1)

    def test_identity_leaves_phase(self):
        p = PauliString(-1j, "XZYI")
        assert pauli_mul(PauliString.identity(4), p) == p
        assert pauli_mul(p, PauliString.identity(4)) == p

    def test_two_qubit_example(self):
        # site-wise: (X·Z) ⊗ (Z·X) = (-iY) ⊗ (+iY) = +1 · YY
        a = PauliString.from_letters("XZ")
        b = PauliString.from_letters("ZX")
        assert pauli_mul(a, b) == PauliString(1 + 0j, "YY")

    def test_square_is_identity_letters(self, rng):
        for _ in range(30):
            p = rand_pauli(rng, int(rng.integers(1, 6)))
            sq = pauli_mul(p, p)
            assert sq.letters == "I" * p.n
            assert sq.phase in (1, -1)

    def test_associativity(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            a, b, c = (rand_pauli(rng, n) for _ in range(3))
            assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pauli_mul(PauliString.from_letters("X"), PauliString.from_letters("XX"))


class TestCommutation:
    def test_examples(self):
        assert not commutes(PauliString.from_letters("X"), PauliString.from_letters("Y"))
        assert commutes(PauliString.from_letters("XX"), PauliString.from_letters("ZZ"))
        # one differing non-identity site
        assert not commutes(PauliString.from_letters("XI"), PauliString.from_letters("YY"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            commutes(PauliString.from_letters("X"), PauliString.from_letters("XX"))


class TestDense:
    def test_x(self):
        assert np.array_equal(to_dense(PauliString.from_letters("X")),
                              np.array([[0, 1], [1, 0]], dtype=complex))

    def test_phased_z(self):
        assert np.allclose(to_dense(PauliString(1j, "Z")),
                           np.array([[1j, 0], [0, -1j]]))

    def test_tensor_order(self):
        # letter 0 is the leftmost (most significant) factor
        xi = to_dense(PauliString.from_letters("XI"))
        expected = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        assert np.array_equal(xi, expected.astype(complex))
        assert xi.shape == (4, 4)

    def test_equals_kron_chain_on_every_short_string(self):
        # and the signed permutation's gather p @ x = phase[:, None] * x[perm]
        # at x = I gives the same matrix
        single = {
            "I": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        for n in (1, 2, 3):
            for letters in itertools.product("IXYZ", repeat=n):
                kron = reduce(np.kron, (single[c] for c in letters))
                for phase in (1, 1j, -1, -1j):
                    p = PauliString(phase, "".join(letters))
                    assert np.array_equal(to_dense(p), phase * kron), str(p)
                    perm, signs = signed_permutation(p)
                    gathered = signs[:, None] * np.eye(1 << n)[perm]
                    assert np.array_equal(gathered, to_dense(p)), str(p)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            to_dense(PauliString.identity(13))

    def test_apply_matches_dense(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            p = rand_pauli(rng, n)
            v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            assert np.allclose(apply_pauli(p, v), to_dense(p) @ v, atol=1e-12)

    def test_apply_to_a_stack_equals_row_by_row(self, rng):
        for n in (1, 3, 5):
            p = rand_pauli(rng, n)
            stack = rng.standard_normal((3, 4, 1 << n)) + 1j * rng.standard_normal((3, 4, 1 << n))
            out = apply_pauli(p, stack)
            assert out.shape == stack.shape
            for idx in np.ndindex(3, 4):
                assert np.array_equal(out[idx], apply_pauli(p, stack[idx]))

    def test_conjugate_equals_dense_lifted_conjugation(self, rng):
        # every phase, on random strings lifted by I_b: the gather is exact
        for n in (1, 2, 3):
            for b in (1, 2, 4):
                d = (1 << n) * b
                for phase in PHASES:
                    p = PauliString(phase, rand_pauli(rng, n).letters)
                    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    lift = np.kron(to_dense(p), np.eye(b))
                    assert np.array_equal(conjugate(p, a), lift @ a @ lift.conj().T), str(p)

    def test_conjugate_rejects_indivisible_dimension(self):
        p = PauliString.from_letters("XZ")
        for d in (2, 6):
            with pytest.raises(ValueError, match=f"dimension {d} is not a multiple of 2\\^2"):
                conjugate(p, np.eye(d))

    def test_apply_rejects_wrong_dimension(self):
        p = PauliString.from_letters("XZ")
        for bad in (np.ones(8), np.ones((2, 3)), np.ones((4, 2)), np.ones(())):
            with pytest.raises(ValueError, match="does not match 2\\^2"):
                apply_pauli(p, bad)


class TestValidation:
    def test_bad_phase(self):
        with pytest.raises(ValueError, match="phase"):
            PauliString(2.0, "X")

    def test_bad_letters(self):
        with pytest.raises(ValueError, match="letters"):
            PauliString(1, "XQ")
        with pytest.raises(ValueError, match="letters"):
            PauliString(1, "")

    def test_dagger_conjugates_phase(self):
        p = PauliString(1j, "XY")
        assert p.dagger() == PauliString(-1j, "XY")
        assert pauli_mul(p, p.dagger()) == PauliString.identity(2)

    def test_str(self):
        assert str(PauliString(-1j, "XZ")) == "-iXZ"
        assert str(PauliString.from_letters("Y")) == "+Y"
