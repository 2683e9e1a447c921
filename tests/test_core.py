import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structdiag import (
    DimensionMismatch,
    RankDeficient,
    SingularMatrix,
    TolerancePolicy,
    herm_transpose,
    orthonormalize_columns,
    rel_residual,
    solve_linear,
)
from structdiag.core import as_matrix, fro

from conftest import gaussian_matrix, random_unitary


class TestHermTranspose:
    def test_identity(self):
        eye = np.eye(3, dtype=complex)
        assert np.array_equal(herm_transpose(eye), eye)

    def test_scalar_conjugation(self):
        assert herm_transpose(np.array([[1j]]))[0, 0] == -1j

    def test_double_application_recovers_input(self):
        a = gaussian_matrix(4, 3, 7)
        assert np.array_equal(herm_transpose(herm_transpose(a)), a)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_involution_property(self, seed):
        a = gaussian_matrix(5, 5, seed)
        assert np.array_equal(herm_transpose(herm_transpose(a)), a)


class TestSolveLinear:
    def test_identity_solve(self):
        b = gaussian_matrix(4, 2, 1)
        x = solve_linear(np.eye(4, dtype=complex), b)
        assert rel_residual(x, b) < 1e-14

    def test_scalar_scaling(self):
        x = solve_linear(2 * np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        assert np.allclose(x, 0.5 * np.eye(2))

    def test_multiply_then_solve_round_trip(self):
        a = gaussian_matrix(8, 8, 3) + 4 * np.eye(8)
        x0 = gaussian_matrix(8, 8, 4)
        x = solve_linear(a, a @ x0)
        assert fro(x - x0) <= 1e-10 * fro(x0)

    def test_residual_postcondition(self):
        a = gaussian_matrix(6, 6, 5) + 3 * np.eye(6)
        b = gaussian_matrix(6, 6, 6)
        x = solve_linear(a, b)
        assert fro(a @ x - b) <= 1e-12 * max(1.0, fro(a) * fro(x))

    def test_singular_matrix_rejected(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = a[1, 1] = 1.0
        with pytest.raises(SingularMatrix):
            solve_linear(a, np.eye(3, dtype=complex))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_linear(np.eye(3, dtype=complex), np.eye(4, dtype=complex))


class TestRelResidual:
    def test_equal_matrices(self):
        a = gaussian_matrix(3, 3, 9)
        assert rel_residual(a, a) == 0.0

    def test_zero_matrices(self):
        z = np.zeros((4, 4), dtype=complex)
        assert rel_residual(z, z) == 0.0

    def test_hand_value(self):
        # ||I - 2I||_F = sqrt(2), max(1, ||I||_F) = sqrt(2), ratio 1.
        eye = np.eye(2, dtype=complex)
        assert rel_residual(eye, 2 * eye) == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rel_residual(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


class TestOrthonormalize:
    def test_orthonormal_input_is_fixed_point(self):
        v = random_unitary(6, 11)[:, :3]
        w = orthonormalize_columns(v)
        assert fro(herm_transpose(w) @ w - np.eye(3)) <= 1e-12
        assert fro(w - v) <= 1e-12

    def test_single_column_normalization(self):
        v = np.array([[2.0], [0.0]], dtype=complex)
        w = orthonormalize_columns(v)
        assert np.allclose(np.abs(w), [[1.0], [0.0]])

    def test_projector_comparison(self):
        v = gaussian_matrix(8, 3, 13)
        w = orthonormalize_columns(v)
        assert fro(herm_transpose(w) @ w - np.eye(3)) <= 1e-12
        proj = v @ np.linalg.solve(herm_transpose(v) @ v, herm_transpose(v))
        assert fro(w @ herm_transpose(w) - proj) <= 1e-10

    def test_polar_factor_of_a_positive_definite_mixing(self):
        # V = Q P with P Hermitian positive definite: the polar factor of
        # V is Q itself, not merely a basis of its span.
        q = random_unitary(7, 12)[:, :4]
        g = gaussian_matrix(4, 4, 14)
        p = herm_transpose(g) @ g + np.eye(4)
        assert fro(orthonormalize_columns(q @ p) - q) <= 1e-12

    def test_rank_deficient_rejected(self):
        v = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankDeficient):
            orthonormalize_columns(v)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_output_always_orthonormal(self, seed):
        v = gaussian_matrix(7, 4, seed)
        w = orthonormalize_columns(v)
        assert fro(herm_transpose(w) @ w - np.eye(4)) <= 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_frobenius_submultiplicative(seed):
    a = gaussian_matrix(4, 5, seed)
    b = gaussian_matrix(5, 3, seed + 1)
    assert fro(a @ b) <= fro(a) * fro(b) + 1e-12


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf],
                         ids=["negative", "nan", "inf"])
def test_tolerance_policy_rejects_out_of_range(value):
    with pytest.raises(ValueError):
        TolerancePolicy(structure_tol=value)
