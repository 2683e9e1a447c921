"""Additive decomposition A = N +/- N* with N normal and N N* = N* N = 0,
which keeps the certified unitary factor [V, B^T V] it reads N = V D V^H
from and bounds N's normality and annihilation from V's two Grams (read
off the factor's certificate), with no 2n x 2n product; its inverse
construction (N factored on the form's half: one spectral.eigen of the
n x n block U+^H N U+ and one k x k Rayleigh-Ritz step on N's range,
the frame completed as a graph over the eigenspaces of R or iJ and
certified), the verification that measures every residual with 2n x 2n
products, and the structured matrix exponential (taken through that
factor, with no factorization) and p-th root.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from dataclasses import astuple, dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    FACTOR_GUARANTEE,
    ROOT_GUARANTEE,
    TolerancePolicy,
    _check,
    _rank,
    _ratio,
    _within,
    fro,
    herm_transpose,
    numerical_rank,
    rel_residual,
)
from .diagonalize import (
    StructuredDiagonalization,
    Variant,
    _certified,
    _lagrangian_completion,
    _record,
    _store,
    _variant,
    _with_normality,
    certify,
)
from .errors import (
    DimensionMismatch,
    NotAnnihilating,
    NotNeutralRange,
    NotNormal,
    NotStructured,
    NumericalBreakdown,
    SingularInput,
)
from .forms import (FormTag, InnerProduct, _halves, _require_j_or_r,
                    adjoint, gram)
from .spectral import EigenDecomposition, eigen
from .structure import _normal_check, _with_partners


class Sign(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def factor(self) -> float:
        return 1.0 if self is Sign.PLUS else -1.0


# Selfadjoint A = N + N*, skewadjoint A = N - N*: the one map between
# Variant and Sign, and its inverse.
_SIGNS = {Variant.SELFADJOINT: Sign.PLUS, Variant.SKEWADJOINT: Sign.MINUS}
_VARIANTS = {sign: variant for variant, sign in _SIGNS.items()}


@dataclass(frozen=True)
class DecompositionResiduals:
    normality_n: float
    annihilation_left: float
    annihilation_right: float
    reconstruction: float

    @property
    def worst(self) -> float:
        """The largest residual; NaN if any is."""
        return float(np.max(astuple(self)))

    def to_dict(self) -> dict:
        return {
            "normality_N": self.normality_n,
            "annihilation_left": self.annihilation_left,
            "annihilation_right": self.annihilation_right,
            "reconstruction": self.reconstruction,
        }


@dataclass(frozen=True)
class AdditiveDecomposition:
    normal_factor: np.ndarray
    sign: Sign
    form_tag: FormTag
    # None for factors loaded from disk; the verifier recomputes them.
    residuals: DecompositionResiduals | None = None
    # The certified unitary factor N = V D V^H is read from; None, like
    # residuals, if hand-built or loaded (structured_exp then certifies one).
    factor: StructuredDiagonalization | None = None


def _annihilation(n_mat: np.ndarray,
                  n_star: np.ndarray) -> tuple[float, float]:
    """The residuals of N N* = 0 and N* N = 0, relative to ||N||_F ||N*||_F
    (core._ratio) so that they do not depend on N's scale; both 0 for
    N = 0."""
    scale = fro(n_mat) * fro(n_star)
    return (_ratio(fro(n_mat @ n_star), scale),
            _ratio(fro(n_star @ n_mat), scale))


def _decomposition_residuals(a: np.ndarray, n_mat: np.ndarray,
                             n_star: np.ndarray,
                             sign: Sign) -> DecompositionResiduals:
    """The residuals of A = N +/- N* for N and its form adjoint N*."""
    return DecompositionResiduals(
        _normal_check(n_mat).residual, *_annihilation(n_mat, n_star),
        reconstruction=rel_residual(n_mat + sign.factor * n_star, a))


def decompose_additive(a: np.ndarray, form: InnerProduct,
                       tol: TolerancePolicy = DEFAULT_TOL
                       ) -> AdditiveDecomposition:
    """Additive decomposition of a normal structured diagonalizable matrix.

    N = V D V^H from the first half V of unitary_refine's factor, kept
    as its factor; the neutrality of span(V) makes both products N N* and
    N* N vanish. N's normality and annihilation residuals are bounded
    from V's Grams V^H V - I and V^H B V, read off the first n rows of
    S^H S - I the factor S was certified with (_decomposition_bounds),
    with no 2n x 2n product; the reconstruction residual of A = N +/- N*
    is measured.
    """
    a = np.asarray(a, dtype=np.complex128)
    diag, plan = _certified(_record(a, form), a, form, tol, unitary=True)
    v = diag.transform[:, :form.half]
    n_mat = (v * diag.core) @ herm_transpose(v)
    sign = _SIGNS[diag.variant]
    residuals = DecompositionResiduals(
        *_decomposition_bounds(plan.factors[True].frame_error, diag.core,
                               form),
        reconstruction=rel_residual(n_mat + sign.factor * adjoint(n_mat, form),
                                    a))
    if not _within(FACTOR_GUARANTEE, *astuple(residuals)):
        raise NumericalBreakdown(
            f"decomposition residuals too large ({residuals.to_dict()})")
    return AdditiveDecomposition(n_mat, sign, form.tag, residuals, diag)


def _decomposition_bounds(frame_error: np.ndarray, core: np.ndarray,
                          form: InnerProduct) -> tuple[float, float, float]:
    """Bounds on the normality and both annihilation residuals of
    N = V D V^H (_decomposition_residuals) as decompose_additive forms it,
    from the first n rows [C - I, V^H B^T V] of S^H S - I for its factor
    S = [V, B^T V] (diagonalize._frame_certificate), C = V^H V, and the
    core d, with no 2n x 2n product.

    In exact arithmetic N^H N - N N^H = V K V^H with
    K = D^H C D - D C D^H, whose entries (conj(d_i) d_j - d_i conj(d_j))
    (C - I)_ij vanish on the diagonal; N N* = V D (-/+G) D^H V^H B and
    N* N = B^{-1} V D^H G D V^H, G = V^H B V, whose middle factors have
    the same Frobenius norm as the elementwise product |d_i| |d_j| |G_ij|,
    and V^H B^T V is -G under J and G F under R (F the n x n flip). With
    delta >= ||C - I||_F, ||V M V^H||_F <= (1 + delta) ||M||_F, and
    ||N^H N||_F >= (1 - delta) ||D^H C D||_F, ||N||_F^2 >= (1 - delta)
    ||V D||_F^2. Rounding (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 3.5 and 3.6): every product here has an
    inner dimension of at most 2n, so with gamma = gamma_{2n+4}
    (k u/(1 - k u), u = eps/2, the 4 covering complex arithmetic) the
    Grams are off by at most gamma |V|^H |V|, N as formed is off
    V D V^H by at most gamma |V| |D| |V|^H, whose norm is at most
    nu = gamma ||V D||_F ||V||_F, and each product of N the residuals
    take is off by at most gamma ||N||_F^2. Each bound adds these terms,
    so it bounds the residual of the returned N as the verifier
    (verify_decomposition) computes it. Each bound divides by its lower
    bound on the residual's scale through core._ratio, with no floor: 0
    for a zero core, NaN where that lower bound is not positive.
    """
    n = core.size
    k = (2 * n + 4) * sys.float_info.epsilon / 2
    gamma = k / (1.0 - k)
    # Squared moduli of [C - I, V^H B^T V] and of d, and the diagonal of
    # C - I: every norm below is a sum or a quadratic form of them.
    sq = (frame_error * frame_error.conj()).real
    conj = core.conj()
    mod2 = (core * conj).real
    diag_cm = frame_error.diagonal().real
    trace_c = n + float(diag_cm.sum())
    delta = float(sq[:, :n].sum()) ** 0.5 + gamma * trace_c
    hi, lo = 1.0 + delta, 1.0 - delta
    # ||V D||_F^2 = sum_j |d_j|^2 C_jj, and ||N - V D V^H||_F <= nu.
    vd2 = float(mod2.sum()) + float(mod2 @ diag_cm)
    nu = gamma * (vd2 * trace_c) ** 0.5
    n_hi = (hi * vd2) ** 0.5 + nu          # ||N||_F at most
    n_lo = (max(0.0, lo) * vd2) ** 0.5 - nu
    # ||N^H N - (V D V^H)^H (V D V^H)||_F and its rounding, per product.
    spread = 2.0 * hi * float(mod2.max()) ** 0.5 * nu + nu * nu
    per_product = spread + gamma * n_hi * n_hi
    # ||D^H (C - I) D||_F^2 and ||D G D^H||_F^2, G's columns in d's order.
    weighted = mod2 @ sq
    cm_d = float(weighted[:n] @ mod2) ** 0.5
    g_d = float(weighted[n:] @ (mod2 if form.tag is FormTag.SYMPLECTIC_J
                                else mod2[::-1])) ** 0.5
    # |K_ij| = 2 |Im(conj(d_i) d_j)| |C - I|_ij.
    skew = (conj[:, None] * core).imag
    k_norm = 2.0 * float((skew * skew * sq[:, :n]).sum()) ** 0.5
    normality = hi * (k_norm + 2.0 * gamma * vd2) + 2.0 * per_product
    # ||D^H C D||_F >= || |d|^2 ||_2 - ||D^H (C - I) D||_F.
    size = (lo * (float(mod2 @ mod2) ** 0.5 - cm_d - gamma * vd2)
            - per_product)
    normality = _ratio((1.0 + gamma) * normality, (1.0 - gamma) * size)
    if lo <= 0.0:
        normality = math.inf
    # Both annihilation residuals are relative to ||N||_F ||N*||_F =
    # ||N||_F^2.
    annihilation = _ratio(
        (1.0 + gamma) * (hi * (g_d + gamma * vd2) + per_product),
        (1.0 - gamma) * max(0.0, n_lo) ** 2)
    return normality, annihilation, annihilation


def reconstruct_from_normal_factor(
        n_mat: np.ndarray, sign: Sign, form: InnerProduct,
        tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[np.ndarray, StructuredDiagonalization]:
    """A = N +/- N* together with a certified unitary diagonalization.

    N is factored on the form's half. U+ and U- are orthonormal bases of
    the +1 and -1 eigenspaces of R or iJ (forms._halves). A neutral range
    is a graph over U+: N = V D V^H with V = (U+ X + U- Y)/sqrt 2, X and Y
    unitary, so the n x n block P = U+^H N U+ = X D X^H / 2, formed by
    slicing, is normal with eigenvalues d_j / 2. One spectral.eigen of P
    gives the rank (core._rank of its moduli), at most n, and the
    eigenvectors X_k of the kept values, whose images
    N U+ X_k = V_k D_k / sqrt 2 span N's range and are orthogonal.
    Normalized and taken one Newton-Schulz step towards orthonormal
    (their Gram is I up to the range's neutrality error), they are a basis
    W of the range, and one k x k Rayleigh-Ritz step, spectral.eigen of
    W^H N W, reads N's core values and eigenvectors V0 on it, largest
    first: exact on the range whether or not the range is exactly
    neutral, which 2 eig(P) is not. W's columns are already nearly
    eigenvectors, so W^H N W is nearly diagonal and its eigen runs no
    eigh unless the first-order test fails. On eigen's general route
    (eig, taken when two eigenvalues share mu, as a core value c - i does
    with P's zeros), vectors of one eigenvalue need not be orthogonal,
    and one QR (n x k or k x k) orthonormalizes them; for a normal matrix
    its columns are still eigenvectors, in order (_leading_eigenpairs).
    V0 must span a neutral subspace (NotNeutralRange); when k < n it is
    extended to a Lagrangian frame V (the core zero-padded) by the graph
    completion complete_to_lagrangian uses
    (diagonalize._lagrangian_completion). N is judged on input; what is
    built from it, the unitary automorphism [V, B^T V]
    (structure._with_partners), once, by certify, from V
    (diagonalize._frame_certificate).
    """
    _require_j_or_r(form.tag)
    n_mat = np.asarray(n_mat, dtype=np.complex128)
    if n_mat.shape[0] != form.dim:
        raise DimensionMismatch("factor dimension does not match the form")
    n = form.half
    n_star = adjoint(n_mat, form)
    normal = _normal_check(n_mat, tol)
    if not normal.ok:
        raise NotNormal(f"factor is not normal (residual {normal.residual:.3e})")
    left, right = _annihilation(n_mat, n_star)
    if not (_check(left, tol).ok and _check(right, tol).ok):
        raise NotAnnihilating(
            f"N N* or N* N does not vanish ({left:.3e} / {right:.3e})")
    # A is built from N, so it reconstructs exactly: no residual to judge.
    a = n_mat + sign.factor * n_star

    # N U+ = (U+^H N^H)^H and P = U+^H N U+, by slicing.
    n_plus = herm_transpose(_halves(herm_transpose(n_mat), form)[0])
    half = eigen(_halves(n_plus, form)[0])
    rank = int(_rank(np.abs(half.values)))
    # The range basis W and the Rayleigh-Ritz step on it.
    w = n_plus @ _leading_eigenpairs(half, rank)[1]
    w /= np.linalg.norm(w, axis=0)
    w = 1.5 * w - 0.5 * w @ (herm_transpose(w) @ w)
    values, z = _leading_eigenpairs(
        eigen(herm_transpose(w) @ (n_mat @ w), nearly_diagonal=True), rank)
    v0 = w @ z
    if rank and not _within(FACTOR_GUARANTEE * fro(form.matrix),
                            fro(gram(v0, form))):
        raise NotNeutralRange("column space of N is not neutral")
    frame = _lagrangian_completion(v0, form)
    core = np.concatenate([values, np.zeros(n - rank, complex)])
    return a, certify(a, _with_partners(frame, form), core, form,
                      _VARIANTS[sign], unitary=True)


def _leading_eigenpairs(dec: EigenDecomposition, count: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` eigenvalues of largest modulus, largest first (ties
    in eigen's order), and their eigenvectors, orthonormalized by one QR
    on eigen's general route, where vectors of one eigenvalue need not be
    orthogonal."""
    order = np.argsort(-np.abs(dec.values), kind="stable")[:count]
    vectors = dec.vectors[:, order]
    if not dec.hermitian:
        vectors = np.linalg.qr(vectors)[0]
    return dec.values[order], vectors


def _check_form_tag(dec: AdditiveDecomposition, form: InnerProduct) -> None:
    if dec.form_tag is not form.tag:
        raise NotStructured(
            f"decomposition is for the {dec.form_tag.value} form, "
            f"not {form.tag.value}")


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    residuals: DecompositionResiduals
    structure_residual: float
    normality_a_residual: float
    rank_ok: bool

    def to_dict(self) -> dict:
        d = self.residuals.to_dict()
        d.update({
            "structure": self.structure_residual,
            "normality_A": self.normality_a_residual,
            "rank_ok": self.rank_ok,
            "passed": self.passed,
        })
        return d


def verify_decomposition(a: np.ndarray, dec: AdditiveDecomposition,
                         form: InnerProduct) -> VerificationReport:
    """Recompute every residual; pass iff N is finite with rank at most n
    and every residual is within FACTOR_GUARANTEE (a NaN one never is).
    A non-finite N fails the rank test with no SVD. A's structure
    residual (of the variant dec.sign stands for) and normality residual
    come from its record, which is stored."""
    _check_form_tag(dec, form)
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != dec.normal_factor.shape:
        raise DimensionMismatch("matrix and factor dimensions differ")
    record = _with_normality(_record(a, form), a)
    _store(record)
    n_mat = dec.normal_factor
    residuals = _decomposition_residuals(a, n_mat, adjoint(n_mat, form),
                                         dec.sign)
    structure_res = (record.selfadjoint
                     if _VARIANTS[dec.sign] is Variant.SELFADJOINT
                     else record.skewadjoint)
    rank_ok = bool(np.isfinite(n_mat).all()
                   and numerical_rank(n_mat) <= form.half)
    passed = rank_ok and _within(FACTOR_GUARANTEE, *astuple(residuals),
                                 structure_res, record.normal)
    return VerificationReport(passed, residuals, structure_res,
                              record.normal, rank_ok)


def structured_exp(dec: AdditiveDecomposition, form: InnerProduct
                   ) -> tuple[np.ndarray, np.ndarray]:
    """exp(A) written through S = exp(N).

    Returns (exp A, S) with exp A = S (S*)^{-1} for a minus
    decomposition and S S* for a plus decomposition. N = V D V^H over the
    orthonormal first half V of the decomposition's certified unitary
    factor, or, if it carries none, of the one reconstruct_from_normal_factor
    certifies (or raises its typed error for). So S = I + V (e^D - I) V^H and
    (S*)^{-1} = (I + V (e^{-D} - I) V^H)* with no factorization (Higham,
    Functions of Matrices, 2008, ch. 1).
    """
    _check_form_tag(dec, form)
    factor = dec.factor or reconstruct_from_normal_factor(
        dec.normal_factor, dec.sign, form)[1]
    v = factor.transform[:, :form.half]
    vh = herm_transpose(v)
    eye = np.eye(form.dim, dtype=np.complex128)
    s = eye + (v * np.expm1(factor.core)) @ vh
    if dec.sign is Sign.MINUS:
        exp_a = s @ adjoint(eye + (v * np.expm1(-factor.core)) @ vh, form)
    else:
        exp_a = s @ adjoint(s, form)
    return exp_a, s


def structured_root(a: np.ndarray, p: int, form: InnerProduct,
                    tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Structured p-th root of a nonsingular normal selfadjoint matrix.

    X = M + M* with M = V D^{1/p} V^H over the first half V of A's unitary
    structured diagonalization, the principal branch per core value;
    X^p = A because the annihilation kills every mixed product.
    """
    try:
        p = operator.index(p)
    except TypeError:
        raise ValueError("root order p must be an integer") from None
    if p < 2:
        raise ValueError("root order p must be >= 2")
    a = np.asarray(a, dtype=np.complex128)
    record = _record(a, form)
    _require_j_or_r(form.tag)
    if _variant(record, tol) is not Variant.SELFADJOINT:
        raise NotStructured(
            "structured roots require a selfadjoint matrix "
            f"(residual {record.selfadjoint:.3e})")
    diag, _ = _certified(record, a, form, tol, unitary=True)
    # The singular values of normal A are |core| and their mirror images.
    mags = np.abs(diag.core)
    if _rank(mags) < mags.size:
        raise SingularInput("matrix roots here require a nonsingular input")
    v = diag.transform[:, :form.half]
    m_root = (v * np.power(diag.core, 1.0 / p)) @ herm_transpose(v)
    x = m_root + adjoint(m_root, form)
    res = rel_residual(np.linalg.matrix_power(x, p), a)
    if not _within(ROOT_GUARANTEE, res):
        raise NumericalBreakdown(
            f"root residual {res:.3e} exceeds {ROOT_GUARANTEE:g}")
    return x
