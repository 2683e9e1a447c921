import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structdiag import (
    STRUCTURE_KINDS,
    AdditiveDecomposition,
    DimensionMismatch,
    NumericalBreakdown,
    RankDeficient,
    Sign,
    SingularMatrix,
    StructDiagError,
    TolerancePolicy,
    Variant,
    assemble_core_diagonal,
    classify,
    counterexample_unbalanced,
    decompose_additive,
    diagonalizability_report,
    form_for_kind,
    herm_transpose,
    orthonormalize_columns,
    perplectic_form,
    random_automorphism,
    random_structured,
    random_structured_diagonalizable,
    reconstruct_from_normal_factor,
    rel_residual,
    solve_linear,
    structured_diagonalize,
    symplectic_form,
    unitary_refine,
    variant_for_kind,
    verify_decomposition,
)
from structdiag.core import FACTOR_GUARANTEE, _ratio, fro
from structdiag.decompose import _decomposition_bounds
from structdiag.diagonalize import _frame_certificate, certify, factor_residuals

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


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf],
                         ids=["negative", "nan", "inf"])
def test_tolerance_policy_rejects_out_of_range(value):
    with pytest.raises(ValueError):
        TolerancePolicy(structure_tol=value)


class TestRatio:
    """core._ratio, the one division of every relative residual: no
    floor, 0 for 0/0, NaN for any other scale not finite and positive."""

    def test_values(self):
        assert _ratio(1.0, 4.0) == 0.25
        assert _ratio(3e-20, 1e-10) == pytest.approx(3e-10, rel=1e-15)
        assert _ratio(0.0, 0.0) == 0.0
        assert _ratio(0.0, 2.0) == 0.0
        for num, scale in [(1.0, 0.0), (0.0, math.inf), (1.0, math.inf),
                           (1.0, math.nan), (1.0, -1.0), (0.0, -1.0)]:
            assert math.isnan(_ratio(num, scale)), (num, scale)

    def test_rel_residual_has_no_floor(self):
        eye = np.eye(2, dtype=complex)
        assert rel_residual(1e-12 * eye, 2e-12 * eye) == pytest.approx(
            1.0, rel=1e-15)
        assert math.isnan(rel_residual(0 * eye, eye))


def _bits(*values):
    """Exact float identity, NaN included."""
    return tuple(float(v).hex() for v in values)


def _with_factor(a, form, variant):
    """A with a unitary automorphism S of partner form, a core for it (the
    first half of the diagonal of S^{-1} A S) and N = V diag(core) V^H
    over S's first half V."""
    s = random_automorphism(form, 4, 3)
    core = np.diagonal(np.linalg.solve(s, a @ s))[:4].copy()
    v = s[:, :4]
    return a, form, variant, s, core, (v * core) @ herm_transpose(v)


def _scale_inputs():
    """(A, form, variant, S, core, N) on both forms: planted normal (with
    the planted transform and core, and decompose_additive's N), random
    structured, the unbalanced counterexample and an unstructured
    Gaussian."""
    cases = []
    for seed, kind in enumerate(STRUCTURE_KINDS):
        form, variant = form_for_kind(kind, 4), variant_for_kind(kind)
        inst = random_structured_diagonalizable(kind, 4, 11 + seed)
        cases.append((inst.matrix, form, variant, inst.transform, inst.core,
                      decompose_additive(inst.matrix, form).normal_factor))
        cases.append(_with_factor(random_structured(kind, 4, 21 + seed),
                                  form, variant))
    cases.append(_with_factor(counterexample_unbalanced(4, 5),
                              symplectic_form(4), Variant.SELFADJOINT))
    for formf in (symplectic_form, perplectic_form):
        cases.append(_with_factor(gaussian_matrix(8, 8, 31), formf(4),
                                  Variant.SELFADJOINT))
    return cases


# Unitarity and the automorphism group are not closed under scaling
# (2 A is neither), so their two flags are left out; every other class
# the package tests is a cone.
_CONE_FLAGS = ("hermitian", "skew_hermitian", "euclidean_normal",
               "selfadjoint", "skewadjoint", "b_normal")


def _certify_outcome(a, s, core, form, variant):
    try:
        d = certify(a, s, core, form, variant, unitary=True)
    except NumericalBreakdown as exc:
        return str(exc)
    return _bits(d.residual_automorphism, d.residual_similarity), d.unitary


class TestScale:
    """Every residual is relative to its own scale with no floor, so s A
    reads as A: exactly for s = 2^k, where every product and norm scales
    exactly, and truthfully for any s > 0."""

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_power_of_two_scaling_keeps_every_residual(self, k):
        t = 2.0 ** k
        for a, form, variant, s, core, n_mat in _scale_inputs():
            sign = Sign.PLUS if variant is Variant.SELFADJOINT else Sign.MINUS
            diagonal = assemble_core_diagonal(core, form.tag, variant)
            # A second S with ||S* S - I||_F > sqrt(eps) takes the
            # similarity bound's second regime.
            shear = s @ (np.eye(8) + 1e-4 * gaussian_matrix(8, 8, 5))
            seen = []
            for scale in (1.0, t):
                sa = scale * a
                cls = classify(sa, form)
                dec = AdditiveDecomposition(scale * n_mat, sign, form.tag)
                report = verify_decomposition(sa, dec, form)
                frame = _frame_certificate(sa, s, form, scale * diagonal)
                seen.append((
                    _bits(*(getattr(cls, f).residual for f in _CONE_FLAGS)),
                    _bits(*factor_residuals(sa, s, form, scale * diagonal)),
                    _bits(*factor_residuals(sa, shear, form)),
                    _bits(*factor_residuals(sa, shear, form,
                                            scale * diagonal)),
                    _certify_outcome(sa, s, scale * core, form, variant),
                    _bits(*frame.residuals),
                    _bits(*report.residuals.to_dict().values(),
                          report.structure_residual,
                          report.normality_a_residual),
                    report.rank_ok,
                    _bits(*_decomposition_bounds(frame.frame_error,
                                                 scale * core, form))))
            assert seen[0] == seen[1], (form.tag, variant)

    @staticmethod
    def _true_error(a, factor, form):
        x = np.linalg.solve(factor.transform, a @ factor.transform)
        d = assemble_core_diagonal(factor.core, form.tag, factor.variant)
        return fro(x - np.diag(d)) / fro(x)

    @pytest.mark.parametrize("s", [1e-12, 1e-6, 1.0, 1e6])
    def test_no_constructor_certifies_a_false_factor(self, s):
        # Each constructor certifies a factor whose similarity error,
        # measured with an LU solve, is within the guarantee, or raises.
        cases = []
        for seed, kind in enumerate(STRUCTURE_KINDS):
            form = form_for_kind(kind, 4)
            inst = random_structured_diagonalizable(kind, 4, 9 + seed)
            cases += [(inst.matrix, form, kind, seed),
                      (random_structured(kind, 4, 2 + seed), form, kind,
                       seed)]
        cases.append((counterexample_unbalanced(4, 5), symplectic_form(4),
                      "skew-hamiltonian", 0))
        certified = 0
        for a, form, kind, seed in cases:
            a = s * a
            factors = []
            for entry in (structured_diagonalize, unitary_refine):
                try:
                    factors.append((a, entry(a, form)))
                except StructDiagError:
                    pass
            try:
                factors.append((a, decompose_additive(a, form).factor))
            except StructDiagError:
                pass
            inst = random_structured_diagonalizable(kind, 4, 9 + seed)
            v = inst.transform[:, :4]
            sign = (Sign.PLUS if variant_for_kind(kind) is Variant.SELFADJOINT
                    else Sign.MINUS)
            try:
                factors.append(reconstruct_from_normal_factor(
                    s * ((v * inst.core) @ herm_transpose(v)), sign, form))
            except StructDiagError:
                pass
            for matrix, factor in factors:
                certified += 1
                assert self._true_error(matrix, factor, form) \
                    <= FACTOR_GUARANTEE, (s, kind)
        assert certified

    def test_tiny_non_normal_input_keeps_its_classes(self):
        # ||A||_F ~ 1e-11, so every residual of it taken absolutely lies
        # below structure_tol; relative ones read it as at scale 1: not
        # Hermitian, skew-Hermitian or normal.
        a = random_structured("hamiltonian", 4, 2)
        form = symplectic_form(4)
        assert classify(1e-11 * a, form).true_names() == \
            classify(a, form).true_names() == ["hamiltonian", "b-normal"]
        with pytest.raises(StructDiagError):
            unitary_refine(1e-11 * a, form)

    @pytest.mark.parametrize("formf", [symplectic_form, perplectic_form])
    def test_tiny_gaussian_has_no_structure(self, formf):
        a = 1e-11 * gaussian_matrix(8, 8, 3)
        assert classify(a, formf(4)).true_names() == []

    def test_overflowing_scale_reads_nan(self):
        # ||A^H A||_F overflows although A^H A does not: the normality
        # residual is NaN, never a passing 0.0.
        form = symplectic_form(4)
        a = 1e77 * random_structured_diagonalizable("hamiltonian", 4,
                                                    3).matrix
        with np.errstate(over="ignore"):
            cls = classify(a, form)
        assert math.isnan(cls.euclidean_normal.residual)
        assert not cls.euclidean_normal.ok

    @pytest.mark.xfail(strict=True, raises=NumericalBreakdown,
                       reason="the cluster radius keeps its floor at 1, so "
                              "below norm 1 the whole spectrum merges into "
                              "one group (ROADMAP item 11)")
    def test_tiny_normal_input_certifies(self):
        inst = random_structured_diagonalizable("skew-hamiltonian", 4, 9)
        a, form = 1e-11 * inst.matrix, symplectic_form(4)
        assert diagonalizability_report(a, form).decision
        factor = structured_diagonalize(a, form)
        assert self._true_error(a, factor, form) <= FACTOR_GUARANTEE
