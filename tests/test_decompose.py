import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from structdiag import (
    DEFAULT_TOL,
    STRUCTURE_KINDS,
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
    Variant,
    adjoint,
    assemble_core_diagonal,
    classify,
    decompose_additive,
    diagonalizability_report,
    form_for_kind,
    gram,
    orthonormalize_columns,
    perplectic_form,
    random_lagrangian_frame,
    random_structured_diagonalizable,
    reconstruct_from_normal_factor,
    rel_residual,
    structured_exp,
    structured_root,
    symplectic_form,
    unitary_refine,
    variant_for_kind,
    verify_decomposition,
)
from structdiag.core import (FACTOR_GUARANTEE, FRAME_GUARANTEE,
                             FRAME_INPUT_TOL, RANK_TOL, fro, herm_transpose)
from structdiag.decompose import _annihilation, _decomposition_residuals
from structdiag.diagonalize import _frame_certificate
from structdiag.forms import _halves
from structdiag.spectral import _MIX, eigen, eigenvalues_match
from structdiag.structure import _with_partners, frame_residuals

from conftest import random_unitary


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
        found = np.linalg.eigvals(a)
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

    @pytest.mark.parametrize("formf", [symplectic_form, perplectic_form])
    @pytest.mark.parametrize("n", [4, 8, 50])
    def test_near_neutral_factors_certify_at_a_loose_tolerance(self, formf,
                                                               n):
        # Neutrality 1e-8 passes the input checks at structure_tol 1e-6.
        # The half block's eigenvalues are then the core's halves only to
        # about 1e-8; the Rayleigh-Ritz step on N's range reads the core
        # exactly, and every seed certifies.
        form = formf(n)
        for seed in range(8):
            n_mat, v = near_neutral_factor(form, seed, 1e-8)
            _, diag = reconstruct_from_normal_factor(
                n_mat, Sign.PLUS, form, TolerancePolicy(structure_tol=1e-6))
            assert np.count_nonzero(diag.core) == v.shape[1]
            assert diag.unitary
            assert max(diag.residual_automorphism,
                       diag.residual_similarity) <= FACTOR_GUARANTEE

    @pytest.mark.parametrize("formf", [symplectic_form, perplectic_form])
    @pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
    @pytest.mark.parametrize("rank", [0, 1])
    def test_round_trip_at_n_1(self, formf, sign, rank):
        # 2n = 2: the half block P is 1 x 1, and a rank-0 frame is all
        # completion.
        form = formf(1)
        n_mat, core = make_factor(form, seed=67, rank=rank)
        a, diag = reconstruct_from_normal_factor(n_mat, sign, form)
        assert np.array_equal(a, n_mat + sign.factor * adjoint(n_mat, form))
        assert np.count_nonzero(diag.core) == rank
        assert eigenvalues_match(diag.core[:rank], core, 1e-12)
        assert max(frame_residuals(diag.transform[:, :1], form)) \
            <= FRAME_GUARANTEE
        assert diag.unitary
        assert max(diag.residual_automorphism,
                   diag.residual_similarity) <= FACTOR_GUARANTEE

    @pytest.mark.parametrize("kind", ["skew-hamiltonian", "hamiltonian",
                                      "per-hermitian", "perskew-hermitian"])
    @pytest.mark.parametrize("rank", [0, 1, 3, 4])
    def test_completion_inside_the_null_columns(self, kind, rank):
        # n = 4, ranks 0, 1, n - 1 and n: the frame completed inside the
        # SVD's null columns of N is orthonormal and neutral, and the
        # factor built on it certifies unitary.
        form = form_for_kind(kind, 4)
        n_mat, _ = make_factor(form, seed=59, rank=rank)
        sign = (Sign.PLUS if variant_for_kind(kind) is Variant.SELFADJOINT
                else Sign.MINUS)
        _, diag = reconstruct_from_normal_factor(n_mat, sign, form)
        assert np.count_nonzero(diag.core) == rank
        assert max(frame_residuals(diag.transform[:, :4], form)) \
            <= FRAME_GUARANTEE
        assert diag.unitary
        assert max(diag.residual_automorphism,
                   diag.residual_similarity) <= FACTOR_GUARANTEE

    @pytest.mark.parametrize("formf", [symplectic_form, perplectic_form])
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_completion_of_a_barely_annihilating_factor(self, formf, seed):
        # Annihilation residual ~5e-11, inside structure_tol: N's range
        # is neutral only to as much, and the graph completion, orthogonal
        # to V0 in both senses whatever V0's neutrality, still gives a
        # factor that certifies.
        form = formf(4)
        n_mat, _ = near_neutral_factor(form, seed, 1e-10)
        left, right = _annihilation(n_mat, adjoint(n_mat, form))
        assert 2e-11 <= max(left, right) <= DEFAULT_TOL.structure_tol
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

    # A core value lambda with mu = Re lambda + c Im lambda = 0, c the
    # irrational of spectral.eigen's Hermitian combination, shares mu with
    # the zero eigenvalues of N's half block P = U+^H N U+ (eigenvalues
    # d_j / 2 and zeros); two equal-mu values share it with each other.
    # Either sends eigen of P to LAPACK's eig, whose vectors of one
    # eigenvalue need not be orthogonal: reconstruct orthonormalizes them
    # by one QR.
    _C = -2.0 * _MIX.imag

    @staticmethod
    def _general_route_factor(form, seed, rank, pair):
        v = random_lagrangian_frame(form, seed)[:, :rank]
        d = np.linspace(0.6, 1.9, rank) * np.exp(
            2j * np.pi * (np.arange(rank) * 0.37 + seed % 7 / 7.0))
        d[:2] = pair
        n_mat = v @ np.diag(d) @ herm_transpose(v)
        n_plus = herm_transpose(_halves(herm_transpose(n_mat), form)[0])
        assert not eigen(_halves(n_plus, form)[0]).hermitian
        return n_mat, d

    def _assert_general_route_certifies(self, form, seed, rank, pair):
        n_mat, d = self._general_route_factor(form, seed, rank, pair)
        _, diag = reconstruct_from_normal_factor(n_mat, Sign.PLUS, form)
        assert np.count_nonzero(diag.core) == rank
        assert eigenvalues_match(diag.core[:rank], d, 1e-8)
        assert diag.unitary
        assert max(diag.residual_automorphism,
                   diag.residual_similarity) <= FACTOR_GUARANTEE

    @pytest.mark.parametrize("formf", [symplectic_form, perplectic_form])
    @pytest.mark.parametrize("n,rank", [(50, 38), (50, 5), (8, 3)])
    def test_general_route_with_null_collision(self, formf, n, rank):
        # c - i and 2(c - i), at mu = 0 with N's null space.
        form = formf(n)
        for seed in range(100, 106):
            self._assert_general_route_certifies(
                form, seed, rank, [self._C - 1j, 2 * (self._C - 1j)])

    @pytest.mark.parametrize("formf", [symplectic_form, perplectic_form])
    def test_general_route_with_equal_mu_pair(self, formf):
        # 1 and 1 - c + i, both at mu = 1.
        self._assert_general_route_certifies(
            formf(8), 100, 3, [1.0, 1.0 - self._C + 1j])

    def test_factor_of_wrong_dimension_rejected(self):
        # The mistake verify_decomposition reports the same way (exit 2),
        # not a mathematical negative about the factor.
        with pytest.raises(DimensionMismatch):
            reconstruct_from_normal_factor(np.eye(4, dtype=complex),
                                           Sign.PLUS, symplectic_form(3))


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e-9])
def test_annihilation_does_not_depend_on_scale(scale):
    # Q diag(1, 2, 0, 0) Q^H is normal and its rank-2 range is not neutral
    # under J: relative to ||N|| ||N*||, N N* reads 0.35 at every scale, so
    # verify fails and reconstruct raises NotAnnihilating at each.
    form = symplectic_form(2)
    q = random_unitary(4, 57)
    n_mat = scale * q @ np.diag([1.0, 2.0, 0, 0]) @ herm_transpose(q)
    dec = AdditiveDecomposition(n_mat, Sign.PLUS, form.tag)
    report = verify_decomposition(n_mat + adjoint(n_mat, form), dec, form)
    assert not report.passed
    assert report.residuals.annihilation_left == pytest.approx(0.3528,
                                                               rel=1e-3)
    with pytest.raises(NotAnnihilating):
        reconstruct_from_normal_factor(n_mat, Sign.PLUS, form)


def _planted(kind, n, seed, zeros=0):
    """A planted normal instance whose core's first ``zeros`` entries
    are 0 (N of rank n - zeros): A, its planted frame, the core and the
    form."""
    inst = random_structured_diagonalizable(kind, n, seed, critical_share=0.5)
    form = form_for_kind(kind, n)
    core = inst.core.copy()
    core[:zeros] = 0.0
    full = assemble_core_diagonal(core, form.tag, variant_for_kind(kind))
    q = inst.transform
    return q @ np.diag(full) @ herm_transpose(q), q[:, :n], core, form


@pytest.mark.parametrize("kind", STRUCTURE_KINDS)
@pytest.mark.parametrize("n", [8, 50])
def test_every_unitary_factor_is_of_partner_form(kind, n):
    # S[:, n:] is the routed B^T S[:, :n] bit for bit, so the frame
    # certificate applies: the automorphism residual is the unitarity
    # residual, which the explicit S^H S - I confirms.
    a, v, core, form = _planted(kind, n, 3, zeros=n // 4)
    sign = (Sign.PLUS if variant_for_kind(kind) is Variant.SELFADJOINT
            else Sign.MINUS)
    factors = [unitary_refine(a, form), decompose_additive(a, form).factor,
               reconstruct_from_normal_factor(
                   v @ np.diag(core) @ herm_transpose(v), sign, form)[1]]
    for d in factors:
        s = d.transform
        assert np.array_equal(s, _with_partners(s[:, :n], form))
        res_auto, _, res_unit = _frame_certificate(
            a, s, form, d.full_diagonal).residuals
        assert res_auto == res_unit == d.residual_automorphism
        unitarity = rel_residual(herm_transpose(s) @ s, np.eye(2 * n))
        assert abs(unitarity - res_unit) <= 1e-14


@pytest.mark.parametrize("kind", STRUCTURE_KINDS)
@pytest.mark.parametrize("n", [2, 8, 50])
def test_decomposition_bounds_dominate_the_explicit_residuals(kind, n):
    # decompose_additive bounds N's normality and annihilation from its
    # frame's Grams, with a rounding term for forming N; each bound is at
    # least what verify_decomposition measures on the returned N with
    # 2n x 2n products, and still far inside the guarantee. Odd seeds zero
    # a quarter of the core (at least one entry).
    for seed in range(6):
        a, _, _, form = _planted(kind, n, seed,
                                 zeros=(seed % 2) * max(1, n // 4))
        dec = decompose_additive(a, form)
        explicit = verify_decomposition(a, dec, form).residuals
        for name in ("normality_n", "annihilation_left",
                     "annihilation_right"):
            bound = getattr(dec.residuals, name)
            assert getattr(explicit, name) <= bound <= 1e-12, (seed, name)
        assert explicit.reconstruction == dec.residuals.reconstruction


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

    @pytest.mark.parametrize("kind", STRUCTURE_KINDS)
    def test_matches_expm(self, kind):
        # Ten decompositions per kind at n = 4..8 and one at n = 50:
        # S = exp(N) and, for a minus decomposition, (S*)^{-1} = exp(-N)*,
        # both read off the decomposition's certified unitary factor with
        # no factorization.
        inputs = [(seed, 4 + seed % 5) for seed in range(10)] + [(10, 50)]
        for seed, n in inputs:
            form = form_for_kind(kind, n)
            a = random_structured_diagonalizable(kind, n, seed).matrix
            exp_a, _ = structured_exp(decompose_additive(a, form), form)
            ref = scipy.linalg.expm(a)
            assert fro(exp_a - ref) <= 1e-12 * fro(ref)

    def test_hamiltonian_exponential_is_symplectic(self):
        n = 2
        form = symplectic_form(n)
        inst = random_structured_diagonalizable("hamiltonian", n, 61)
        dec = decompose_additive(inst.matrix, form)
        exp_a, _ = structured_exp(dec, form)
        assert rel_residual(exp_a, scipy.linalg.expm(inst.matrix)) <= 1e-8
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
        assert rel_residual(exp_a, scipy.linalg.expm(inst.matrix)) <= 1e-8
        # The factor S = exp(N) of a normal N stays normal.
        assert rel_residual(herm_transpose(s) @ s,
                            s @ herm_transpose(s)) <= 1e-9

    @staticmethod
    def _hand_built(case):
        if case == "non-normal":
            return np.array([[0, 1], [0, 0]], dtype=complex), \
                Sign.PLUS, symplectic_form(1)
        if case == "shifted":
            _, dec, form = TestVerify()._decomposition()
            return dec.normal_factor + 1e-3 * np.eye(4), dec.sign, form
        # Normal, with a rank-2 range that is not neutral: at 1e-6 its
        # annihilation residual, relative to ||N|| ||N*||, reads as it does
        # at scale 1.
        q = random_unitary(4, 57)
        n_mat = 1e-6 * q @ np.diag([1.0, 2.0, 0, 0]) @ herm_transpose(q)
        return n_mat, Sign.PLUS, symplectic_form(2)

    @pytest.mark.parametrize("case,error", [
        ("non-normal", NotNormal), ("shifted", NotAnnihilating),
        ("non-neutral", NotAnnihilating)])
    def test_hand_built_non_decomposition_raises(self, case, error):
        # A decomposition that carries no factor is certified through
        # reconstruct_from_normal_factor, which rejects each of these.
        n_mat, sign, form = self._hand_built(case)
        dec = AdditiveDecomposition(n_mat, sign, form.tag)
        with pytest.raises(error):
            structured_exp(dec, form)


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
        values = np.linalg.eigvals(dec.normal_factor)
        found = np.linalg.eigvals(inst.matrix)
        for v in values[np.abs(values) > 1e-8]:
            assert np.min(np.abs(found - v)) <= 1e-8
