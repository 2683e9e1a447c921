import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structdiag import (
    FormKind,
    FormTag,
    InertiaMismatch,
    InnerProduct,
    NotStructured,
    adjoint,
    congruence_to,
    euclidean_form,
    gram,
    inertia,
    perplectic_form,
    rel_residual,
    symplectic_form,
    sylvester_canonical,
)
from structdiag.core import fro, herm_transpose, numerical_rank, solve_linear
from structdiag.forms import (_form_times, _times_form, perplectic_r,
                              symplectic_j)

from conftest import (
    gaussian_matrix,
    random_hermitian,
    random_skew_hermitian,
    random_unitary,
)


class TestMakeForm:
    def test_symplectic_n1(self):
        form = symplectic_form(1)
        assert np.array_equal(form.matrix, np.array([[0, 1], [-1, 0]]))
        assert form.kind is FormKind.SKEW_HERMITIAN

    def test_perplectic_n1(self):
        form = perplectic_form(1)
        assert np.array_equal(form.matrix, np.array([[0, 1], [1, 0]]))
        assert form.kind is FormKind.HERMITIAN

    def test_euclidean(self):
        form = euclidean_form(3)
        assert np.array_equal(form.matrix, np.eye(3))
        assert form.kind is FormKind.HERMITIAN

    def test_exact_entries(self):
        for n in (1, 2, 5):
            j = symplectic_form(n).matrix
            r = perplectic_form(n).matrix
            assert set(np.unique(j.real)) <= {-1.0, 0.0, 1.0}
            assert np.array_equal(r, np.fliplr(np.eye(2 * n)))


class TestAdjoint:
    def test_euclidean_reduces_to_hermitian_transpose(self):
        a = gaussian_matrix(4, 4, 2)
        form = euclidean_form(4)
        assert rel_residual(adjoint(a, form), herm_transpose(a)) < 1e-14

    def test_identity_is_selfadjoint(self):
        for form in (symplectic_form(2), perplectic_form(2)):
            eye = np.eye(4, dtype=complex)
            assert rel_residual(adjoint(eye, form), eye) < 1e-14

    def test_j_is_skewadjoint(self):
        form = symplectic_form(1)
        assert rel_residual(adjoint(form.matrix, form), -form.matrix) < 1e-14

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_involution(self, seed):
        a = gaussian_matrix(4, 4, seed)
        for form in (symplectic_form(2), perplectic_form(2)):
            assert rel_residual(adjoint(adjoint(a, form), form), a) <= 1e-10

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_defining_property(self, seed):
        # [Ax, y] = [x, A*y] for all x, y means A^H B = B A*.
        a = gaussian_matrix(4, 4, seed)
        for form in (symplectic_form(2), perplectic_form(2)):
            lhs = herm_transpose(a) @ form.matrix
            rhs = form.matrix @ adjoint(a, form)
            assert rel_residual(lhs, rhs) <= 1e-10

    @pytest.mark.parametrize("formf", [symplectic_form, perplectic_form])
    def test_closed_form_equals_lu_solve(self, formf):
        for n in range(1, 9):
            form = formf(n)
            b = form.matrix
            a = gaussian_matrix(2 * n, 2 * n, 60 + n)
            assert np.array_equal(adjoint(a, form),
                                  solve_linear(b, herm_transpose(a) @ b))


class TestGram:
    def test_full_basis_gram_is_form_matrix(self):
        form = symplectic_form(2)
        assert np.array_equal(gram(np.eye(4, dtype=complex), form),
                              form.matrix)

    def test_lagrangian_span_has_zero_gram(self):
        form = symplectic_form(3)
        v = np.eye(6, dtype=complex)[:, :3]
        assert fro(gram(v, form)) == 0.0

    def test_perplectic_first_basis_vector(self):
        form = perplectic_form(1)
        v = np.array([[1.0], [0.0]], dtype=complex)
        assert gram(v, form)[0, 0] == 0.0


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("formf", [symplectic_form, perplectic_form,
                                   lambda n: euclidean_form(2 * n)])
def test_form_products_are_signed_permutations(formf, n):
    # Entry for entry the dense products, on a full, a tall and a wide
    # operand, also on a transposed (Fortran-ordered) one.
    form = formf(n)
    b = form.matrix
    for cols in (1, n, 2 * n + 1):
        x = gaussian_matrix(2 * n, cols, seed=10 * n + cols)
        assert np.array_equal(_times_form(form, x), b @ x)
        assert np.array_equal(_form_times(form, x.T), x.T @ b)
        assert np.array_equal(_form_times(form, herm_transpose(x)),
                              herm_transpose(x) @ b)


def _gram_rank(v, form):
    return numerical_rank(gram(v, form))


class TestNeutralNondegenerate:
    """A frame is neutral when its Gram vanishes and nondegenerate when
    its Gram has full rank."""

    def test_lagrangian_span_neutral(self):
        for n in (1, 2, 4):
            form = symplectic_form(n)
            v = np.eye(2 * n, dtype=complex)[:, :n]
            assert fro(gram(v, form)) == 0.0
            assert _gram_rank(v, form) < n

    def test_full_basis_not_neutral(self):
        form = symplectic_form(2)
        eye = np.eye(4, dtype=complex)
        assert fro(gram(eye, form)) > 1.0
        assert _gram_rank(eye, form) == 4

    def test_definite_form_has_no_neutral_vectors(self):
        form = euclidean_form(3)
        v = np.eye(3, dtype=complex)[:, :1]
        assert fro(gram(v, form)) == 1.0

    def test_two_lagrangian_directions_degenerate(self):
        form = symplectic_form(2)
        v = np.eye(4, dtype=complex)[:, :2]
        assert _gram_rank(v, form) < 2


class TestInertia:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_perplectic_form_balanced(self, n):
        got = inertia(perplectic_form(n).matrix, FormKind.HERMITIAN)
        assert got.counts == (n, n, 0)
        assert got.alpha == 1.0

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_symplectic_form_balanced(self, n):
        got = inertia(symplectic_form(n).matrix, FormKind.SKEW_HERMITIAN)
        assert got.counts == (n, n, 0)
        assert got.alpha == 1j

    def test_zero_matrix(self):
        got = inertia(np.zeros((5, 5), dtype=complex), FormKind.HERMITIAN)
        assert got.counts == (0, 0, 5)

    def test_not_structured_rejected(self):
        with pytest.raises(NotStructured):
            inertia(gaussian_matrix(3, 3, 1), FormKind.HERMITIAN)

    @pytest.mark.parametrize("kind", list(FormKind))
    def test_nan_matrix_rejected(self, kind):
        with pytest.raises(NotStructured):
            inertia(np.full((3, 3), np.nan, dtype=complex), kind)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_congruence_invariance(self, seed):
        m = 4 + seed % 5
        h = random_hermitian(m, seed)
        k = random_skew_hermitian(m, seed + 1)
        s = gaussian_matrix(m, m, seed + 2) + 2 * np.eye(m)
        assert (inertia(herm_transpose(s) @ h @ s, FormKind.HERMITIAN).counts
                == inertia(h, FormKind.HERMITIAN).counts)
        assert (inertia(herm_transpose(s) @ k @ s,
                        FormKind.SKEW_HERMITIAN).counts
                == inertia(k, FormKind.SKEW_HERMITIAN).counts)


class TestSylvesterCanonical:
    def test_hand_scaled_diagonal(self):
        h = np.diag([4.0, -9.0]).astype(complex)
        u, inert = sylvester_canonical(h, FormKind.HERMITIAN)
        assert inert.counts == (1, 1, 0)
        got = herm_transpose(u) @ h @ u
        assert rel_residual(got, np.diag([-1.0, 1.0]).astype(complex)) < 1e-12

    def test_identity_already_canonical(self):
        u, inert = sylvester_canonical(np.eye(3, dtype=complex),
                                       FormKind.HERMITIAN)
        assert inert.counts == (0, 3, 0)
        assert rel_residual(herm_transpose(u) @ u, np.eye(3)) < 1e-12

    def test_skew_hermitian_j(self):
        j = symplectic_form(1).matrix
        u, inert = sylvester_canonical(j, FormKind.SKEW_HERMITIAN)
        assert inert.counts == (1, 1, 0)
        got = herm_transpose(u) @ j @ u
        assert rel_residual(got, np.diag([-1j, 1j])) < 1e-12

    def test_canonical_matches_inertia_matrix(self):
        h = random_hermitian(5, 3)
        u, inert = sylvester_canonical(h, FormKind.HERMITIAN)
        got = herm_transpose(u) @ h @ u
        want = np.diag([-1.0] * inert.p + [1.0] * inert.q + [0.0] * inert.r)
        assert rel_residual(got, want) < 1e-10

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_counts_are_basis_independent(self, seed):
        h = random_hermitian(5, seed)
        q = random_unitary(5, seed + 1)
        _, a = sylvester_canonical(h, FormKind.HERMITIAN)
        _, b = sylvester_canonical(herm_transpose(q) @ h @ q,
                                   FormKind.HERMITIAN)
        assert a.counts == b.counts


class TestCongruence:
    def test_same_matrix(self):
        h = random_hermitian(4, 8)
        s = congruence_to(h, h, FormKind.HERMITIAN)
        assert rel_residual(herm_transpose(s) @ h @ s, h) <= 1e-8

    def test_hand_scaling(self):
        h = np.diag([2.0, -2.0]).astype(complex)
        c = np.diag([1.0, -1.0]).astype(complex)
        s = congruence_to(h, c, FormKind.HERMITIAN)
        assert rel_residual(herm_transpose(s) @ h @ s, c) <= 1e-12
        assert np.allclose(s, np.diag([1 / np.sqrt(2)] * 2))

    def test_skew_gram_to_j(self):
        # A balanced skew-Hermitian Gram maps onto the canonical block form.
        j = symplectic_form(2).matrix
        t = gaussian_matrix(4, 4, 5) + 2 * np.eye(4)
        g = herm_transpose(t) @ j @ t
        s = congruence_to(g, j, FormKind.SKEW_HERMITIAN)
        assert rel_residual(herm_transpose(s) @ g @ s, j) <= 1e-8

    def test_inertia_mismatch_rejected(self):
        with pytest.raises(InertiaMismatch):
            congruence_to(np.eye(2, dtype=complex),
                          np.diag([1.0, -1.0]).astype(complex),
                          FormKind.HERMITIAN)


class TestFormValidation:
    def test_singular_form_rejected(self):
        with pytest.raises(NotStructured):
            InnerProduct(np.zeros((2, 2)), FormTag.PERPLECTIC_R)

    def test_wrong_symmetry_rejected(self):
        with pytest.raises(NotStructured):
            InnerProduct(gaussian_matrix(3, 3, 4), FormTag.EUCLIDEAN)

    def test_tag_requires_its_canonical_matrix_and_kind(self):
        # An indefinite matrix under the Euclidean tag would make adjoint
        # return A^H, which is not B^{-1} A^H B for it.
        with pytest.raises(NotStructured):
            InnerProduct(np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex),
                         FormTag.EUCLIDEAN)
        with pytest.raises(NotStructured):
            InnerProduct(perplectic_r(2), FormTag.SYMPLECTIC_J)
        with pytest.raises(NotStructured):
            InnerProduct(symplectic_j(2), FormTag.PERPLECTIC_R)
        # The tag fixes the kind.
        assert (InnerProduct(symplectic_j(2), FormTag.SYMPLECTIC_J).kind
                is FormKind.SKEW_HERMITIAN)
        assert (InnerProduct(perplectic_r(2), FormTag.PERPLECTIC_R).kind
                is FormKind.HERMITIAN)

    def test_neutral_frame_bounded_by_half_dimension(self):
        # Any neutral frame under J or R has at most n columns; a frame
        # with n+1 independent columns cannot stay neutral.
        form = symplectic_form(2)
        v = np.eye(4, dtype=complex)[:, :3]
        assert numerical_rank(v) == 3
        assert fro(gram(v, form)) > 1.0
