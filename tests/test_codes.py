import itertools
import math

import numpy as np
import pytest

from dataclasses import replace

from aqc_shield.codes import (
    DecouplingGroup,
    _validate_code,
    code_from_universal_group,
    encode_hamiltonian,
    erred_state_energy,
    format_code,
    global_x_group,
    group_average,
    penalty_hamiltonian,
    syndrome_sectors,
    trivial_group,
    universal_group,
)
from aqc_shield.pauli import PauliString, apply_pauli, commutes, to_dense

class TestUniversalGroup:
    def test_n2_elements(self):
        g = universal_group(2)
        assert [el.letters for el in g.elements] == ["II", "XX", "YY", "ZZ"]
        assert g.order == 4
        assert all(el.phase == 1 for el in g.elements)

    def test_n4_weights(self):
        g = universal_group(4)
        assert [el.weight for el in g.elements] == [0, 4, 4, 4]

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            universal_group(3)

    def test_abelian(self):
        g = universal_group(4)
        for a, b in itertools.combinations(g.elements, 2):
            assert commutes(a, b)

    def test_group_closure_validated(self):
        with pytest.raises(ValueError, match="closed"):
            DecouplingGroup((PauliString.identity(1), PauliString.from_letters("X"),
                             PauliString.from_letters("Y")))

    def test_identity_first_enforced(self):
        with pytest.raises(ValueError, match="identity"):
            DecouplingGroup((PauliString.from_letters("X"), PauliString.identity(1)))


class TestGroupAverage:
    def test_annihilates_single_site_x(self):
        g = universal_group(2)
        avg = group_average(g, to_dense(PauliString.single(2, 0, "X")))
        assert np.max(np.abs(avg)) <= 1e-12

    def test_fixes_identity(self):
        g = universal_group(2)
        assert np.allclose(group_average(g, np.eye(4, dtype=complex)), np.eye(4))

    def test_fixes_commuting_operator(self):
        g = universal_group(2)
        zz = to_dense(PauliString.from_letters("ZZ"))
        assert np.allclose(group_average(g, zz), zz, atol=1e-12)

    def test_equals_dense_kron_reference(self, rng):
        # each element lifted densely as G (x) I_b and conjugated by products
        for n in (2, 4):
            for b in (1, 2, 4):
                d = (1 << n) * b
                a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for group in (universal_group(n), global_x_group(n), trivial_group(n)):
                    ref = np.zeros((d, d), dtype=complex)
                    for g in group.elements:
                        lift = np.kron(to_dense(g), np.eye(b))
                        ref += lift.conj().T @ a @ lift
                    assert np.array_equal(group_average(group, a), ref / group.order)


class TestCodeConstruction:
    def test_golden_codewords_n4(self):
        code, _ = code_from_universal_group(4)
        assert code.labels == ("00", "10", "01", "11")

    def test_xbar_action_relabels(self):
        code, logical = code_from_universal_group(4)
        moved = apply_pauli(logical.xbars[0], code.codewords[0])
        # Xbar on the first logical qubit sends |00>_L to |10>_L
        target = code.codewords[code.labels.index("10")]
        assert abs(np.vdot(target, moved)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_n2_single_codeword(self):
        code, logical = code_from_universal_group(2)
        assert code.k == 0
        assert len(code.labels) == 1
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        assert np.allclose(code.codewords[0], expected, atol=1e-12)
        assert logical.xbars == () and logical.zbars == ()

    def test_stabilized_and_orthonormal(self):
        code, _ = code_from_universal_group(6)
        gram = code.codewords.conj() @ code.codewords.T
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-12
        for gen in code.generators:
            for vec in code.codewords:
                assert np.max(np.abs(apply_pauli(gen, vec) - vec)) <= 1e-12

    def test_logical_pair_algebra(self):
        _, logical = code_from_universal_group(6)
        for i, xb in enumerate(logical.xbars):
            for j, zb in enumerate(logical.zbars):
                dx, dz = to_dense(xb), to_dense(zb)
                if i == j:
                    assert np.max(np.abs(dx @ dz + dz @ dx)) <= 1e-12
                else:
                    assert np.max(np.abs(dx @ dz - dz @ dx)) <= 1e-12

    def test_logicals_commute_with_stabilizer(self):
        code, logical = code_from_universal_group(4)
        for bar in logical.xbars + logical.zbars:
            for gen in code.generators:
                assert commutes(bar, gen)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            code_from_universal_group(5)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_doubling_build_equals_per_label_loop(self, n):
        code, logical = code_from_universal_group(n)
        k = n - 2
        base = np.zeros(1 << n, dtype=complex)
        base[0] = base[-1] = 1 / np.sqrt(2)
        for m in range(1 << k):
            vec = base
            for j in range(k):
                if (m >> j) & 1:
                    vec = apply_pauli(logical.xbars[j], vec)
            assert np.array_equal(code.codewords[m], vec)
            assert code.labels[m] == "".join(str((m >> j) & 1) for j in range(k))
        assert len(code.labels) == len(code.codewords) == 1 << k

    def test_basis_matrix_is_real(self):
        code, _ = code_from_universal_group(6)
        v = code.basis_matrix()
        assert v.dtype == np.float64 and v.shape == (64, 16)
        assert np.array_equal(v, code.codewords.T)

    def test_corrupted_codewords_rejected(self):
        code, _ = code_from_universal_group(4)
        scaled = code.codewords.copy()
        scaled[2] *= 1.01
        with pytest.raises(ValueError, match="not orthonormal"):
            _validate_code(replace(code, codewords=scaled))
        # (|0000> - |1111>)/sqrt(2) is orthogonal to the other codewords but
        # a -1 eigenvector of the global X string
        flipped = code.codewords.copy()
        flipped[0, -1] *= -1
        with pytest.raises(ValueError, match="not a \\+1 eigenvector of \\+XXXX"):
            _validate_code(replace(code, codewords=flipped))


class TestEncoding:
    def test_single_x(self):
        out = encode_hamiltonian([(1.0, PauliString.from_letters("XI"))], 4)
        assert out == [(1.0, PauliString.from_letters("XXII"))]

    def test_single_z(self):
        out = encode_hamiltonian([(0.5, PauliString.from_letters("ZI"))], 4)
        assert out == [(0.5, PauliString.from_letters("IZIZ"))]

    def test_xx_pair_simplifies(self):
        # shared sigma^x on physical site 0 cancels
        out = encode_hamiltonian([(1.0, PauliString.from_letters("XX"))], 4)
        assert out == [(1.0, PauliString.from_letters("IXXI"))]

    def test_zz_pair_simplifies(self):
        out = encode_hamiltonian([(1.0, PauliString.from_letters("ZZ"))], 4)
        assert out == [(1.0, PauliString.from_letters("IZZI"))]

    def test_empty(self):
        assert encode_hamiltonian([], 4) == []

    def test_rejects_logical_y(self):
        with pytest.raises(ValueError, match="unsupported"):
            encode_hamiltonian([(1.0, PauliString.from_letters("YI"))], 4)

    def test_rejects_mixed_pair(self):
        with pytest.raises(ValueError, match="unsupported"):
            encode_hamiltonian([(1.0, PauliString.from_letters("XZ"))], 4)

    def test_encoded_terms_commute_with_group(self):
        # the non-interference condition at the algebra level
        g = universal_group(4)
        terms = [(1.0, PauliString.from_letters("XI")),
                 (1.0, PauliString.from_letters("IZ")),
                 (1.0, PauliString.from_letters("XX")),
                 (1.0, PauliString.from_letters("ZZ"))]
        for _, enc in encode_hamiltonian(terms, 4):
            for el in g.elements:
                assert commutes(enc, el)


class TestPenalty:
    def test_erred_states_all_single_qubit_errors(self):
        # the eigenvalue -E_P(K-1-2a) of each erred state is asserted by the
        # oracle in verify.check_penalty_spectrum
        ep = 0.7
        g = universal_group(4)
        for site in range(4):
            for letter in "XYZ":
                eig_per_ep, a = erred_state_energy(g, PauliString.single(4, site, letter))
                assert a == 2
                # gap above the code space is 2a E_P
                assert eig_per_ep * ep - (-3 * ep) == pytest.approx(2 * a * ep)

    def test_zero_penalty(self):
        assert np.count_nonzero(penalty_hamiltonian(universal_group(4), 0.0)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            penalty_hamiltonian(universal_group(4), -1.0)

    def test_projective_group_rejected(self):
        # on n = 2 (mod 4) the canonicalized universal group is not closed
        # with phase +1, so penalty semantics are refused
        with pytest.raises(ValueError, match="stabilizer"):
            penalty_hamiltonian(universal_group(2), 1.0)

    def test_two_element_group_allowed(self):
        h_p = penalty_hamiltonian(global_x_group(2), 0.5)
        assert np.allclose(h_p, -0.5 * to_dense(PauliString.from_letters("XX")))

    def test_real_and_equal_to_the_per_element_sum(self):
        # the universal group on n = 4 has real canonical elements
        ep, group = 0.7, universal_group(4)
        ref = np.zeros((16, 16), dtype=complex)
        for g in group.elements[1:]:
            ref -= ep * to_dense(g.canonical())
        h_p = penalty_hamiltonian(group, ep)
        assert h_p.dtype == np.float64
        assert np.array_equal(h_p, ref)


class TestSyndromeSectors:
    def test_completeness_and_orthogonality(self):
        code, _ = code_from_universal_group(4)
        sectors = syndrome_sectors(code)
        assert len(sectors) == 4
        total = sum(s.projector for s in sectors)
        assert np.max(np.abs(total - np.eye(16))) <= 1e-12
        for a, b in itertools.combinations(sectors, 2):
            assert np.max(np.abs(a.projector @ b.projector)) <= 1e-12

    def test_ranks(self):
        code, _ = code_from_universal_group(4)
        for sector in syndrome_sectors(code):
            assert np.trace(sector.projector).real == pytest.approx(4.0, abs=1e-12)

    def test_code_space_is_all_plus_sector(self):
        code, _ = code_from_universal_group(4)
        sectors = {s.label: s.projector for s in syndrome_sectors(code)}
        proj = sectors[(1, 1)]
        for vec in code.codewords:
            assert np.allclose(proj @ vec, vec, atol=1e-12)


class TestFormatting:
    def test_format_code_n4(self):
        code, logical = code_from_universal_group(4)
        text = format_code(code, logical)
        lines = text.splitlines()
        # kets are printed lexicographically within each superposition
        assert lines[1] == "00: (|0000⟩+|1111⟩)/√2"
        assert lines[2] == "10: (|0011⟩+|1100⟩)/√2"
        assert lines[3] == "01: (|0101⟩+|1010⟩)/√2"
        assert lines[4] == "11: (|0110⟩+|1001⟩)/√2"
        assert "Xbar[1] = X1 X2" in text
        assert "Zbar[1] = Z2 Z4" in text

    def test_trivial_group(self):
        g = trivial_group(3)
        assert g.order == 1
