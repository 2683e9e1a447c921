"""Additive decomposition A = N +/- N* with N normal and N N* = N* N = 0,
its inverse construction, verification, and the structured matrix
exponential and p-th root built on top of it.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import astuple, dataclass

import numpy as np
import scipy.linalg

from .core import (
    DEFAULT_TOL,
    FACTOR_GUARANTEE,
    FRAME_GUARANTEE,
    RANK_TOL,
    ROOT_GUARANTEE,
    TolerancePolicy,
    _check,
    _within,
    fro,
    herm_transpose,
    inverse,
    numerical_rank,
    rel_residual,
)
from .diagonalize import (
    StructuredDiagonalization,
    Variant,
    _complete,
    _construct,
    certify,
    unitary_refine,
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
from .forms import FormTag, InnerProduct, _form_times, adjoint, gram
from .structure import _adjoint_checks, _normal_check, _route_partners


class Sign(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def factor(self) -> float:
        return 1.0 if self is Sign.PLUS else -1.0


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


def _unitary_eigh_normal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary diagonalization of a (numerically) normal matrix: a 2n x 2n
    one in split_normal and _exp_normal, the k x k compression of N to its
    range in reconstruct_from_normal_factor.

    The complex Schur form of a normal matrix is diagonal, so the Schur
    vectors are an orthonormal eigenbasis.
    """
    t, z = scipy.linalg.schur(np.asarray(a, dtype=np.complex128),
                              output="complex")
    return np.diag(t).copy(), z


def split_normal(a: np.ndarray,
                 tol: TolerancePolicy = DEFAULT_TOL
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Split a normal 2n x 2n matrix as A = E + F with EF = FE = 0.

    E and F are built from complementary halves of a unitary
    eigendecomposition and are normal themselves.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[0] % 2 != 0:
        raise NotStructured("split requires an even dimension")
    normal = _normal_check(a, tol)
    if not normal.ok:
        raise NotNormal(f"matrix is not normal (residual {normal.residual:.3e})")
    n = a.shape[0] // 2
    values, z = _unitary_eigh_normal(a)
    e = (z[:, :n] * values[:n]) @ herm_transpose(z[:, :n])
    f = (z[:, n:] * values[n:]) @ herm_transpose(z[:, n:])
    checks = (
        rel_residual(e + f, a),
        fro(e @ f) / max(1.0, fro(e) * fro(f)),
        fro(f @ e) / max(1.0, fro(e) * fro(f)),
        _normal_check(e).residual,
        _normal_check(f).residual,
    )
    if not _within(FRAME_GUARANTEE, *checks):
        raise NumericalBreakdown(f"split residuals exceed {FRAME_GUARANTEE:g}")
    return e, f


def _decomposition_residuals(a: np.ndarray, n_mat: np.ndarray,
                             n_star: np.ndarray,
                             sign: Sign) -> DecompositionResiduals:
    """The residuals of A = N +/- N* for N and its form adjoint N*."""
    scale = max(1.0, fro(n_mat) * fro(n_star))
    return DecompositionResiduals(
        normality_n=_normal_check(n_mat).residual,
        annihilation_left=fro(n_mat @ n_star) / scale,
        annihilation_right=fro(n_star @ n_mat) / scale,
        reconstruction=rel_residual(n_mat + sign.factor * n_star, a),
    )


def decompose_additive(a: np.ndarray, form: InnerProduct,
                       tol: TolerancePolicy = DEFAULT_TOL
                       ) -> AdditiveDecomposition:
    """Additive decomposition of a normal structured diagonalizable matrix.

    N = V D V^H from the first half of a unitary structured
    diagonalization; the neutrality of span(V) makes both products
    N N* and N* N vanish.
    """
    a = np.asarray(a, dtype=np.complex128)
    diag = unitary_refine(a, form, tol)
    n = form.half
    v = diag.transform[:, :n]
    # A product with diag(core), not v * core: numpy's elementwise complex
    # product rounds differently from OpenBLAS's GEMM, and would move every
    # factor N in its last bits.
    n_mat = v @ np.diag(diag.core) @ herm_transpose(v)
    # Skewadjoint structures decompose with a minus, selfadjoint with a plus.
    sign = Sign.PLUS if diag.variant is Variant.SELFADJOINT else Sign.MINUS
    residuals = _decomposition_residuals(a, n_mat, adjoint(n_mat, form), sign)
    if not _within(FACTOR_GUARANTEE, *astuple(residuals)):
        raise NumericalBreakdown(
            f"decomposition residuals too large ({residuals.to_dict()})")
    return AdditiveDecomposition(n_mat, sign, form.tag, residuals)


def reconstruct_from_normal_factor(
        n_mat: np.ndarray, sign: Sign, form: InnerProduct,
        tol: TolerancePolicy = DEFAULT_TOL
) -> tuple[np.ndarray, StructuredDiagonalization]:
    """A = N +/- N* together with a certified unitary diagonalization.

    Only N's range is factored. One SVD of N gives an orthonormal basis Q
    of it, the left singular vectors above RANK_TOL times the largest
    singular value (for normal N these are its |eigenvalues|). N maps its
    range to itself, so N = Q M Q^H with M = Q^H N Q normal and k x k; the
    Schur vectors Z of M give N's rank-k eigenbasis Q Z (Rayleigh-Ritz on
    an invariant subspace; Golub & Van Loan, Matrix Computations, 7.6 and
    8.1). It spans a neutral subspace, extended to a Lagrangian frame when
    k < n (zero-padding the core). N is judged on input; what is built
    from it, once, by certify.
    """
    n_mat = np.asarray(n_mat, dtype=np.complex128)
    if n_mat.shape[0] != form.dim:
        raise DimensionMismatch("factor dimension does not match the form")
    n = form.half
    n_star = adjoint(n_mat, form)
    a = n_mat + sign.factor * n_star
    res = _decomposition_residuals(a, n_mat, n_star, sign)
    if not _check(res.normality_n, tol).ok:
        raise NotNormal(f"factor is not normal (residual {res.normality_n:.3e})")
    if not (_check(res.annihilation_left, tol).ok
            and _check(res.annihilation_right, tol).ok):
        raise NotAnnihilating(
            f"N N* or N* N does not vanish ({res.annihilation_left:.3e} / "
            f"{res.annihilation_right:.3e})")

    u, s, _ = np.linalg.svd(n_mat)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    if rank > n:
        raise NotNeutralRange(
            f"rank {rank} exceeds the maximal neutral dimension {n}")
    q = u[:, :rank]
    values, z = _unitary_eigh_normal(herm_transpose(q) @ n_mat @ q)
    v0 = q @ z
    if rank and not _within(FACTOR_GUARANTEE * max(1.0, fro(form.matrix)),
                            fro(gram(v0, form))):
        raise NotNeutralRange("column space of N is not neutral")
    frame = _complete(v0, form)
    core = np.concatenate([values, np.zeros(n - rank, complex)])

    variant = (Variant.SELFADJOINT if sign is Sign.PLUS
               else Variant.SKEWADJOINT)
    # Partner columns B^T V = (V^T B)^T.
    transform = _route_partners(frame, _form_times(form, frame.T).T, form.tag)
    return a, certify(a, transform, core, form, variant, unitary=True)


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
    """Recompute every residual; pass iff N's rank is at most n and every
    residual is within FACTOR_GUARANTEE (a NaN one never is)."""
    _check_form_tag(dec, form)
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != dec.normal_factor.shape:
        raise DimensionMismatch("matrix and factor dimensions differ")
    n_mat = dec.normal_factor
    residuals = _decomposition_residuals(a, n_mat, adjoint(n_mat, form),
                                         dec.sign)
    checks = _adjoint_checks(a, form)
    structure_res = (checks.selfadjoint if dec.sign is Sign.PLUS
                     else checks.skewadjoint).residual
    normal_res = _normal_check(a).residual
    rank_ok = numerical_rank(n_mat) <= form.half
    passed = rank_ok and _within(FACTOR_GUARANTEE, *astuple(residuals),
                                 structure_res, normal_res)
    return VerificationReport(passed, residuals, structure_res, normal_res,
                              rank_ok)


def _exp_normal(a: np.ndarray) -> np.ndarray:
    """exp of a normal matrix through its unitary eigendecomposition."""
    values, z = _unitary_eigh_normal(a)
    return (z * np.exp(values)) @ herm_transpose(z)


def structured_exp(dec: AdditiveDecomposition, form: InnerProduct
                   ) -> tuple[np.ndarray, np.ndarray]:
    """exp(A) written through S = exp(N).

    Returns (exp A, S) with exp A = S (S*)^{-1} for a minus
    decomposition and S S* for a plus decomposition.
    """
    _check_form_tag(dec, form)
    s = _exp_normal(dec.normal_factor)
    s_star = adjoint(s, form)
    if dec.sign is Sign.MINUS:
        exp_a = s @ inverse(s_star)
    else:
        exp_a = s @ s_star
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
    checks = _adjoint_checks(a, form, tol)
    if not checks.selfadjoint.ok:
        raise NotStructured(
            "structured roots require a selfadjoint matrix "
            f"(residual {checks.selfadjoint.residual:.3e})")
    diag = _construct(a, form, tol, checks, unitary=True)
    # The singular values of normal A are |core| and their mirror images.
    mags = np.abs(diag.core)
    if mags.min() <= RANK_TOL * mags.max():
        raise SingularInput("matrix roots here require a nonsingular input")
    v = diag.transform[:, :form.half]
    m_root = (v * np.power(diag.core, 1.0 / p)) @ herm_transpose(v)
    x = m_root + adjoint(m_root, form)
    res = rel_residual(np.linalg.matrix_power(x, p), a)
    if not _within(ROOT_GUARANTEE, res):
        raise NumericalBreakdown(
            f"root residual {res:.3e} exceeds {ROOT_GUARANTEE:g}")
    return x
