import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structdiag import (
    DEFAULT_TOL,
    AdditiveDecomposition,
    DimensionMismatch,
    NotAnnihilating,
    NotNeutralRange,
    NotNormal,
    NotStructured,
    NotStructuredDiagonalizable,
    NumericalBreakdown,
    Sign,
    SingularInput,
    TolerancePolicy,
    adjoint,
    classify,
    decompose_additive,
    diagonalizability_report,
    gram,
    orthonormalize_columns,
    perplectic_form,
    random_lagrangian_frame,
    random_structured_diagonalizable,
    reconstruct_from_normal_factor,
    rel_residual,
    split_normal,
    spectrum,
    structured_exp,
    structured_root,
    symplectic_form,
    verify_decomposition,
)
from structdiag.core import (FACTOR_GUARANTEE, FRAME_GUARANTEE,
                             FRAME_INPUT_TOL, RANK_TOL, fro, herm_transpose)
from structdiag.decompose import _decomposition_residuals, _exp_normal

from conftest import gaussian_matrix, random_unitary


def make_factor(form, seed, rank=None):
    """Random valid N = V D V^H over a Lagrangian frame, given rank."""
    n = form.half
    rank = n if rank is None else rank
    v = random_lagrangian_frame(form, seed)
    rng = np.linspace(0.6, 1.9, n)
    phases = np.exp(2j * np.pi * (np.arange(n) * 0.37 + seed % 7 / 7.0))
    d = rng * phases
    d[rank:] = 0.0
    return v @ np.diag(d) @ herm_transpose(v), d[:rank]


def near_neutral_factor(form, seed, neutrality):
    """N = V D V^H over n/2 orthonormal columns V = QR(V0 + eps E), V0
    from a Lagrangian frame and E a unit complex Gaussian direction; eps
    is scaled (to first order) so that ||V^H B V||_F = neutrality."""
    v0 = random_lagrangian_frame(form, 1000 + seed)[:, :form.half // 2]
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(v0.shape) + 1j * rng.standard_normal(v0.shape)
    e /= fro(e)

    def frame(eps):
        return np.linalg.qr(v0 + eps * e)[0]

    trial = 1e-10
    v = frame(trial * neutrality / fro(gram(frame(trial), form)))
    k = v.shape[1]
    d = np.linspace(0.6, 1.9, k) * np.exp(2j * np.pi * 0.37 * np.arange(k))
    return v @ np.diag(d) @ herm_transpose(v), v


class TestSplitNormal:
    def test_identity(self):
        e, f = split_normal(np.eye(2, dtype=complex))
        assert rel_residual(e + f, np.eye(2)) <= 1e-9
        assert fro(e @ f) <= 1e-9

    def test_diagonal_disjoint_support(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        e, f = split_normal(a)
        assert fro(e @ f) <= 1e-12
        assert fro(f @ e) <= 1e-12
        assert rel_residual(e + f, a) <= 1e-12
        assert np.allclose(e, np.diag(np.diag(e)))
        assert np.allclose(f, np.diag(np.diag(f)))

    def test_random_normal(self):
        q = random_unitary(6, 61)
        d = np.diag(gaussian_matrix(1, 6, 62)[0])
        a = q @ d @ herm_transpose(q)
        e, f = split_normal(a)
        for lhs, rhs in ((e + f, a),):
            assert rel_residual(lhs, rhs) <= 1e-9
        assert fro(e @ f) <= 1e-9
        assert fro(f @ e) <= 1e-9
        assert rel_residual(herm_transpose(e) @ e, e @ herm_transpose(e)) <= 1e-9

    def test_non_normal_rejected(self):
        with pytest.raises(NotNormal):
            split_normal(np.array([[0, 1], [0, 0]], dtype=complex))


class TestDecompose:
    def test_identity_decomposition(self):
        n = 3
        form = symplectic_form(n)
        dec = decompose_additive(np.eye(2 * n, dtype=complex), form)
        assert dec.sign is Sign.PLUS
        n_star = adjoint(dec.normal_factor, form)
        assert rel_residual(dec.normal_factor + n_star,
                            np.eye(2 * n)) <= 1e-8

    @pytest.mark.parametrize("kind,formf,sign", [
        ("skew-hamiltonian", symplectic_form, Sign.PLUS),
        ("hamiltonian", symplectic_form, Sign.MINUS),
        ("per-hermitian", perplectic_form, Sign.PLUS),
        ("perskew-hermitian", perplectic_form, Sign.MINUS),
    ])
    def test_signs_and_residuals(self, kind, formf, sign):
        n = 2
        inst = random_structured_diagonalizable(kind, n, 29)
        form = formf(n)
        dec = decompose_additive(inst.matrix, form)
        assert dec.sign is sign
        assert dec.residuals.worst <= 1e-8

    def test_rank_bounded_by_half_dimension(self):
        n = 3
        inst = random_structured_diagonalizable("skew-hamiltonian", n, 31)
        dec = decompose_additive(inst.matrix, symplectic_form(n))
        s = np.linalg.svd(dec.normal_factor, compute_uv=False)
        assert np.count_nonzero(s > 1e-10 * s[0]) <= n

    def test_range_of_n_is_neutral(self):
        n = 3
        form = symplectic_form(n)
        inst = random_structured_diagonalizable("skew-hamiltonian", n, 37)
        dec = decompose_additive(inst.matrix, form)
        basis = orthonormalize_columns(
            np.linalg.svd(dec.normal_factor)[0][:, :n])
        assert fro(gram(basis, form)) <= (
            DEFAULT_TOL.structure_tol * fro(basis) ** 2 * fro(form.matrix))

    @pytest.mark.parametrize("kind,sgn", [("hamiltonian", -1.0),
                                          ("skew-hamiltonian", 1.0)])
    def test_invariance_identity(self, kind, sgn):
        # A N = N^2 and A N* = sgn (N*)^2: both ranges are A-invariant.
        n = 2
        form = symplectic_form(n)
        inst = random_structured_diagonalizable(kind, n, 41)
        dec = decompose_additive(inst.matrix, form)
        nm = dec.normal_factor
        ns = adjoint(nm, form)
        scale = max(1.0, fro(inst.matrix) * fro(nm))
        assert fro(inst.matrix @ nm - nm @ nm) <= 1e-8 * scale
        assert fro(inst.matrix @ ns - sgn * ns @ ns) <= 1e-8 * scale

    def test_unbalanced_input_rejected(self):
        form = symplectic_form(1)
        with pytest.raises(NotStructuredDiagonalizable):
            decompose_additive(form.matrix, form)

    @given(st.integers(0, 10**5))
    @settings(max_examples=10, deadline=None)
    def test_forward_equivalence(self, seed):
        # Balanced normal instances always decompose.
        n = 2
        form = symplectic_form(n)
        inst = random_structured_diagonalizable("skew-hamiltonian", n, seed)
        assert diagonalizability_report(inst.matrix, form).decision
        dec = decompose_additive(inst.matrix, form)
        assert dec.residuals.worst <= 1e-8


class TestReconstruct:
    def test_zero_factor(self):
        form = symplectic_form(2)
        z = np.zeros((4, 4), dtype=complex)
        a, diag = reconstruct_from_normal_factor(z, Sign.PLUS, form)
        assert np.array_equal(a, z)
        assert diag.residual_automorphism <= 1e-8
        assert diag.residual_similarity <= 1e-8

    @pytest.mark.parametrize("formf,sign", [
        (symplectic_form, Sign.MINUS),
        (symplectic_form, Sign.PLUS),
        (perplectic_form, Sign.MINUS),
        (perplectic_form, Sign.PLUS),
    ])
    def test_full_rank_round_trip(self, formf, sign):
        form = formf(3)
        n_mat, core = make_factor(form, seed=43)
        a, diag = reconstruct_from_normal_factor(n_mat, sign, form)
        assert diag.residual_automorphism <= 1e-8
        assert diag.residual_similarity <= 1e-8
        report = diagonalizability_report(a, form)
        assert report.decision
        # Planted nonzero spectrum of N survives inside A.
        found = spectrum(a)
        for value in core:
            assert np.min(np.abs(found - value)) <= 1e-8

    @pytest.mark.parametrize("rank", [2, 1])
    def test_rank_deficient_uses_completion(self, rank):
        form = symplectic_form(3)
        n_mat, core = make_factor(form, seed=47, rank=rank)
        a, diag = reconstruct_from_normal_factor(n_mat, Sign.MINUS, form)
        assert diag.residual_automorphism <= 1e-8
        assert diag.residual_similarity <= 1e-8
        assert diagonalizability_report(a, form).decision

    def test_full_rank_makes_a_nonsingular(self):
        form = perplectic_form(2)
        n_mat, _ = make_factor(form, seed=53)
        a, _ = reconstruct_from_normal_factor(n_mat, Sign.PLUS, form)
        s = np.linalg.svd(a, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]

    def test_non_annihilating_rejected(self):
        form = symplectic_form(2)
        q = random_unitary(4, 57)
        n_mat = q @ np.diag([1.0, 2.0, 0, 0]) @ herm_transpose(q)
        with pytest.raises(NotAnnihilating):
            reconstruct_from_normal_factor(n_mat, Sign.PLUS, form)

    def test_non_normal_rejected(self):
        form = symplectic_form(1)
        with pytest.raises(NotNormal):
            reconstruct_from_normal_factor(
                np.array([[0, 1], [0, 0]], dtype=complex), Sign.PLUS, form)

    @pytest.mark.parametrize("formf", [symplectic_form, perplectic_form])
    @pytest.mark.parametrize("two_n,neutrality,frame_threshold", [
        (16, 2e-10, FRAME_INPUT_TOL),
        (100, 2e-9, FRAME_GUARANTEE),
    ])
    def test_near_neutral_range_is_certified(self, formf, two_n, neutrality,
                                             frame_threshold):
        # The eigenbasis of N is as neutral as the frame N was built on,
        # which misses a frame threshold while N passes every input check;
        # only the certificate of what is built from it decides.
        form = formf(two_n // 2)
        n_mat, v = near_neutral_factor(form, 3, neutrality)
        assert fro(gram(v, form)) > frame_threshold
        n_star = adjoint(n_mat, form)
        res = _decomposition_residuals(n_mat + n_star, n_mat, n_star,
                                       Sign.PLUS)
        assert max(res.annihilation_left, res.annihilation_right) \
            <= DEFAULT_TOL.structure_tol
        _, diag = reconstruct_from_normal_factor(n_mat, Sign.PLUS, form)
        assert diag.unitary
        assert max(diag.residual_automorphism,
                   diag.residual_similarity) <= FACTOR_GUARANTEE

    @pytest.mark.parametrize("values", [[1.0, 2.0, 0, 0], [1.0, 2.0, 3.0, 0]])
    def test_non_neutral_range_rejected(self, values):
        # A loose tolerance lets the non-annihilating factor through the
        # input checks; its range is not neutral (rank 2) or too large
        # to be (rank 3 > n).
        form = symplectic_form(2)
        q = random_unitary(4, 57)
        n_mat = q @ np.diag(values) @ herm_transpose(q)
        with pytest.raises(NotNeutralRange):
            reconstruct_from_normal_factor(n_mat, Sign.PLUS, form,
                                           TolerancePolicy(structure_tol=1.0))

    # One core modulus of a rank-3 factor at t RANK_TOL max|core|, t
    # log-spaced over [0.1, 10] (never exactly 1): it is dropped iff t < 1.
    # Kept, it lies ~t 1e-10 from N's zero singular values, so roundoff of
    # ~eps ||N|| turns its eigenvector ~1e-6/t off N's range, which the
    # unweighted neutrality check of the range rejects (NotNeutralRange)
    # or the certificate does (NumericalBreakdown) up to t ~ 50.
    @pytest.mark.parametrize("formf", [symplectic_form, perplectic_form])
    @pytest.mark.parametrize("t", [
        pytest.param(t, id=f"t={t:.3g}", marks=() if t < 1.0 else
                     pytest.mark.xfail(
                         raises=(NotNeutralRange, NumericalBreakdown),
                         reason="a kept modulus this close to the cut has "
                                "an inaccurate eigenvector"))
        for t in np.logspace(-1.0, 1.0, 8)] + ["zero", "full"])
    def test_rank_cut_sweep(self, formf, t):
        form = formf(3)
        v = random_lagrangian_frame(form, 61)
        d = np.array([0.7, -1.3j, 1.9 * np.exp(0.4j)])
        if t == "zero":
            d[:], rank = 0.0, 0
        elif t == "full":
            rank = 3
        else:
            d[1] = t * RANK_TOL * np.abs(d).max() * 1j
            rank = 3 if t > 1.0 else 2
        n_mat = v @ np.diag(d) @ herm_transpose(v)
        a, diag = reconstruct_from_normal_factor(n_mat, Sign.PLUS, form)
        assert np.count_nonzero(diag.core) == rank
        assert diag.unitary
        assert max(diag.residual_automorphism,
                   diag.residual_similarity) <= FACTOR_GUARANTEE

    def test_factor_of_wrong_dimension_rejected(self):
        # The mistake verify_decomposition reports the same way (exit 2),
        # not a mathematical negative about the factor.
        with pytest.raises(DimensionMismatch):
            reconstruct_from_normal_factor(np.eye(4, dtype=complex),
                                           Sign.PLUS, symplectic_form(3))


class TestVerify:
    def _decomposition(self, seed=59):
        n = 2
        form = symplectic_form(n)
        inst = random_structured_diagonalizable("hamiltonian", n, seed)
        return inst.matrix, decompose_additive(inst.matrix, form), form

    def test_round_trip_passes(self):
        a, dec, form = self._decomposition()
        assert verify_decomposition(a, dec, form).passed

    def test_shifted_factor_fails_annihilation(self):
        a, dec, form = self._decomposition()
        bad = AdditiveDecomposition(
            normal_factor=dec.normal_factor + 1e-3 * np.eye(4),
            sign=dec.sign, form_tag=dec.form_tag)
        report = verify_decomposition(a, bad, form)
        assert not report.passed
        assert report.residuals.annihilation_left > 1e-8

    def test_flipped_sign_fails_reconstruction(self):
        a, dec, form = self._decomposition()
        flipped = AdditiveDecomposition(
            normal_factor=dec.normal_factor, sign=Sign.PLUS,
            form_tag=dec.form_tag)
        report = verify_decomposition(a, flipped, form)
        assert not report.passed
        assert report.residuals.reconstruction > 1e-8

    def test_factor_of_wrong_dimension_raises(self):
        a, dec, form = self._decomposition()
        small = AdditiveDecomposition(normal_factor=np.zeros((2, 2)),
                                      sign=dec.sign, form_tag=dec.form_tag)
        with pytest.raises(DimensionMismatch):
            verify_decomposition(a, small, form)


    def test_factor_for_another_form_raises(self):
        a, dec, form = self._decomposition()
        with pytest.raises(NotStructured):
            verify_decomposition(a, dec, perplectic_form(form.half))


class TestStructuredExp:
    def test_zero_factor(self):
        form = symplectic_form(2)
        dec = AdditiveDecomposition(
            normal_factor=np.zeros((4, 4), dtype=complex), sign=Sign.MINUS,
            form_tag=form.tag)
        exp_a, s = structured_exp(dec, form)
        assert rel_residual(exp_a, np.eye(4)) <= 1e-12
        assert rel_residual(s, np.eye(4)) <= 1e-12

    def test_hamiltonian_exponential_is_symplectic(self):
        n = 2
        form = symplectic_form(n)
        inst = random_structured_diagonalizable("hamiltonian", n, 61)
        dec = decompose_additive(inst.matrix, form)
        exp_a, _ = structured_exp(dec, form)
        assert rel_residual(exp_a, _exp_normal(inst.matrix)) <= 1e-8
        report = classify(exp_a, form)
        assert report.automorphism.ok
        assert report.euclidean_normal.ok

    def test_skew_hamiltonian_plus_branch(self):
        n = 2
        form = symplectic_form(n)
        inst = random_structured_diagonalizable("skew-hamiltonian", n, 67)
        dec = decompose_additive(inst.matrix, form)
        exp_a, s = structured_exp(dec, form)
        assert dec.sign is Sign.PLUS
        assert rel_residual(exp_a, _exp_normal(inst.matrix)) <= 1e-8
        # The factor S = exp(N) of a normal N stays normal.
        assert rel_residual(herm_transpose(s) @ s,
                            s @ herm_transpose(s)) <= 1e-9


    def test_factor_for_another_form_raises(self):
        inst = random_structured_diagonalizable("hamiltonian", 3, 1)
        dec = decompose_additive(inst.matrix, symplectic_form(3))
        with pytest.raises(NotStructured):
            structured_exp(dec, perplectic_form(3))


class TestStructuredRoot:
    def test_identity_square_root(self):
        n = 2
        form = symplectic_form(n)
        x = structured_root(np.eye(2 * n, dtype=complex), 2, form)
        assert rel_residual(x @ x, np.eye(2 * n)) <= 1e-7
        report = classify(x, form)
        assert report.selfadjoint.ok
        assert report.euclidean_normal.ok

    def test_scaled_identity(self):
        n = 2
        form = symplectic_form(n)
        a = 4.0 * np.eye(2 * n, dtype=complex)
        x = structured_root(a, 2, form)
        assert rel_residual(x @ x, a) <= 1e-7

    @pytest.mark.parametrize("kind,formf,p", [
        ("skew-hamiltonian", symplectic_form, 2),
        ("skew-hamiltonian", symplectic_form, 3),
        ("per-hermitian", perplectic_form, 3),
    ])
    def test_random_roots(self, kind, formf, p):
        n = 2
        form = formf(n)
        inst = random_structured_diagonalizable(kind, n, 71)
        x = structured_root(inst.matrix, p, form)
        assert fro(np.linalg.matrix_power(x, p) - inst.matrix) \
            <= 1e-7 * fro(inst.matrix)
        report = classify(x, form)
        assert report.selfadjoint.ok
        assert report.euclidean_normal.ok
        assert diagonalizability_report(x, form).decision

    def test_singular_input_rejected(self):
        form = symplectic_form(1)
        with pytest.raises(SingularInput):
            structured_root(np.zeros((2, 2), dtype=complex), 2, form)

    @pytest.mark.parametrize("p", [2.5, 2.0, "2"])
    def test_non_integer_order_rejected_before_any_work(self, p):
        # A matrix of the wrong size would raise DimensionMismatch.
        with pytest.raises(ValueError, match="integer"):
            structured_root(np.eye(3, dtype=complex), p, symplectic_form(2))

    def test_root_spectrum_containment(self):
        n = 2
        form = symplectic_form(n)
        inst = random_structured_diagonalizable("skew-hamiltonian", n, 73)
        dec = decompose_additive(inst.matrix, form)
        values = spectrum(dec.normal_factor)
        found = spectrum(inst.matrix)
        for v in values[np.abs(values) > 1e-8]:
            assert np.min(np.abs(found - v)) <= 1e-8
