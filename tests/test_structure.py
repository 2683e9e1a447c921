import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structdiag import (
    NotLagrangianFrame,
    NotStructured,
    build_unitary_automorphism,
    classify,
    euclidean_form,
    perplectic_form,
    random_automorphism,
    random_lagrangian_frame,
    random_structured,
    rel_residual,
    solve_linear,
    symplectic_form,
)
from structdiag.core import fro, herm_transpose
from structdiag.forms import flip, symplectic_j

from conftest import gaussian_matrix, random_skew_hermitian


class TestClassify:
    def test_j_is_hamiltonian_and_symplectic(self):
        form = symplectic_form(2)
        report = classify(form.matrix, form)
        assert report.skewadjoint.ok
        assert report.automorphism.ok
        assert not report.selfadjoint.ok
        assert "hamiltonian" in report.true_names()
        assert "symplectic" in report.true_names()

    def test_r_is_per_hermitian_and_perplectic(self):
        form = perplectic_form(2)
        report = classify(form.matrix, form)
        assert report.selfadjoint.ok
        assert report.automorphism.ok
        assert "per-hermitian" in report.true_names()
        assert "perplectic" in report.true_names()

    def test_identity_selfadjoint_automorphism(self):
        for form in (symplectic_form(2), perplectic_form(2)):
            report = classify(np.eye(4, dtype=complex), form)
            assert report.selfadjoint.ok
            assert report.automorphism.ok
            assert not report.skewadjoint.ok

    def test_block_form_is_skew_hamiltonian(self):
        # [[A1, A2], [A3, A1^H]] with skew-Hermitian A2, A3.
        n = 3
        a1 = gaussian_matrix(n, n, 21)
        a2 = random_skew_hermitian(n, 22)
        a3 = random_skew_hermitian(n, 23)
        a = np.block([[a1, a2], [a3, herm_transpose(a1)]])
        report = classify(a, symplectic_form(n))
        assert report.selfadjoint.ok

    def test_selfadjoint_and_skewadjoint_only_for_zero(self):
        form = symplectic_form(1)
        z = np.zeros((2, 2), dtype=complex)
        report = classify(z, form)
        assert report.selfadjoint.ok and report.skewadjoint.ok
        nonzero = random_structured("skew-hamiltonian", 1, 3)
        report = classify(nonzero, form)
        assert not (report.selfadjoint.ok and report.skewadjoint.ok)

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_automorphism_similarity_preserves_structure(self, seed):
        n = 2
        form = symplectic_form(n)
        a = random_structured("skew-hamiltonian", n, seed)
        g = random_automorphism(form, n, seed + 1)
        conj = solve_linear(g, a @ g)
        assert classify(conj, form).selfadjoint.ok
        rform = perplectic_form(n)
        c = random_structured("perskew-hermitian", n, seed + 2)
        g = random_automorphism(rform, n, seed + 3)
        conj = solve_linear(g, c @ g)
        assert classify(conj, rform).skewadjoint.ok


class TestBuildUnitarySymplectic:
    def test_identity_frame(self):
        n = 3
        v = np.eye(2 * n, dtype=complex)[:, :n]
        q = build_unitary_automorphism(v, symplectic_form(n))
        j = symplectic_j(n)
        assert np.array_equal(q, np.hstack([v, j.T @ v]))
        assert rel_residual(herm_transpose(q) @ j @ q, j) <= 1e-9
        assert rel_residual(herm_transpose(q) @ q, np.eye(2 * n)) <= 1e-9

    def test_non_neutral_frame_rejected(self):
        v = np.eye(4, dtype=complex)[:, [0, 2]]  # e1, e3: not neutral for J4
        with pytest.raises(NotLagrangianFrame) as err:
            build_unitary_automorphism(v, symplectic_form(2))
        assert err.value.failed == "neutrality"

    def test_non_orthonormal_frame_rejected(self):
        v = 2.0 * np.eye(4, dtype=complex)[:, :2]
        with pytest.raises(NotLagrangianFrame) as err:
            build_unitary_automorphism(v, symplectic_form(2))
        assert err.value.failed == "orthonormality"

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_random_frames_give_unitary_symplectic(self, seed):
        form = symplectic_form(3)
        v = random_lagrangian_frame(form, seed)
        q = build_unitary_automorphism(v, form)
        assert rel_residual(herm_transpose(q) @ form.matrix @ q,
                            form.matrix) <= 1e-9
        assert rel_residual(herm_transpose(q) @ q, np.eye(6)) <= 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_second_block_determined_by_first(self, seed):
        # Any unitary-symplectic Q = [Q1 Q2] satisfies Q2 = J^T Q1.
        n = 2
        form = symplectic_form(n)
        q = random_automorphism(form, n, seed)
        q1, q2 = q[:, :n], q[:, n:]
        assert fro(q2 - symplectic_j(n).T @ q1) <= 1e-9


class TestBuildUnitaryAutomorphism:
    def test_frame_of_wrong_dimension_rejected(self):
        v = np.eye(6, dtype=complex)[:, :3]
        with pytest.raises(NotLagrangianFrame) as err:
            build_unitary_automorphism(v, symplectic_form(2))
        assert err.value.failed == "shape"

    def test_euclidean_form_rejected(self):
        with pytest.raises(NotStructured):
            build_unitary_automorphism(np.eye(4, dtype=complex)[:, :2],
                                       euclidean_form(4))


class TestBuildUnitaryPerplectic:
    def test_scalar_frame_with_phase(self):
        # v = (e1 + i e2)/sqrt(2): both Gram conditions vanish by hand.
        v = np.array([[1.0], [1j]], dtype=complex) / np.sqrt(2)
        q = build_unitary_automorphism(v, perplectic_form(1))
        r2 = flip(2)
        assert rel_residual(herm_transpose(q) @ r2 @ q, r2) <= 1e-9
        assert rel_residual(herm_transpose(q) @ q, np.eye(2)) <= 1e-9

    def test_basis_vector_frame(self):
        v = np.array([[1.0], [0.0]], dtype=complex)
        q = build_unitary_automorphism(v, perplectic_form(1))
        assert np.allclose(q, np.eye(2))

    def test_bad_orthonormality_rejected(self):
        v = np.array([[2.0], [0.0]], dtype=complex)
        with pytest.raises(NotLagrangianFrame):
            build_unitary_automorphism(v, perplectic_form(1))

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_partner_layout(self, seed):
        # [V, R_2n V R_n]: the partner of column j sits at 2n + 1 - j.
        n = 3
        form = perplectic_form(n)
        v = random_lagrangian_frame(form, seed)
        q = build_unitary_automorphism(v, form)
        assert np.array_equal(q, np.hstack([v, flip(2 * n) @ v @ flip(n)]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_centrosymmetry(self, seed):
        # Unitary-perplectic matrices commute with the flip.
        n = 2
        form = perplectic_form(n)
        q = random_automorphism(form, n, seed)
        r2n = flip(2 * n)
        assert rel_residual(q @ r2n, r2n @ q) <= 1e-9
