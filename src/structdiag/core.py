"""Dense complex matrix primitives shared by every other module, the
table of pinned thresholds and the one judge of residuals against them.

Matrices are plain ``numpy.ndarray`` values with dtype complex128 and
C-contiguous (row-major) layout; all functions here are pure. _within
makes every comparison of a residual with structure_tol (through _check)
or a guarantee of the table, and a NaN residual never passes it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, RankDeficient, SingularMatrix


@dataclass(frozen=True)
class TolerancePolicy:
    """The one settable tolerance, structure_tol: the Frobenius-scaled
    residual threshold of every structure test on an input (the flags of
    classify, the (skew-)Hermitian check before an inertia, the normality
    and annihilation checks of the decomposition routines). Every other
    cutoff is pinned in the table below.
    """

    structure_tol: float = 1e-10

    def __post_init__(self):
        # Also rejects NaN, for which every comparison is false.
        if not 0.0 <= self.structure_tol < math.inf:
            raise ValueError("structure_tol must be finite and nonnegative")


DEFAULT_TOL = TolerancePolicy()

# Pinned guarantees and cutoffs, all in this one table. They are not
# TolerancePolicy knobs: a factor that misses its guarantee raises
# instead of returning.
FACTOR_GUARANTEE = 1e-8   # diagonalization and decomposition residuals
FRAME_GUARANTEE = 1e-9    # Lagrangian frames (completion), split_normal
ROOT_GUARANTEE = 1e-7     # X^p = A for structured_root
FRAME_INPUT_TOL = 1e-10   # frames accepted by build_unitary_automorphism
CLUSTER_TOL = 1e-8        # radius r of every spectral decision, relative
GRAM_ZERO_TOL = 1e-8      # zero cut of Gram inertia, times ||Gram||_F
RANK_TOL = 1e-10          # singular-value and LU-pivot cutoff, relative


def _within(bound: float, *residuals: float) -> bool:
    """Whether every residual is at most bound: the one comparison of a
    residual with structure_tol or a guarantee above. A NaN residual
    (from an overflow, say) compares false, so it never lies within."""
    return all(res <= bound for res in residuals)


class Check(NamedTuple):
    ok: bool
    residual: float


def _check(residual: float, tol: TolerancePolicy) -> Check:
    """A structure test on an input: its residual, within structure_tol
    or not."""
    return Check(_within(tol.structure_tol, residual), residual)


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array (copying if needed)."""
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def herm_transpose(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(a).T


def fro(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a, "fro"))


def rel_residual(a: np.ndarray, b: np.ndarray) -> float:
    """|| a - b ||_F / max(1, || a ||_F)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return fro(a - b) / max(1.0, fro(a))


def numerical_rank(a: np.ndarray) -> int:
    """Number of singular values above RANK_TOL times the largest."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def solve_linear(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a X = rhs by partially pivoted LU.

    The pivot magnitudes double as the singularity detector: the solve is
    rejected when the smallest |U_ii| drops below RANK_TOL times the largest.
    """
    a = np.asarray(a, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("coefficient matrix must be square")
    if rhs.shape[0] != a.shape[0]:
        raise DimensionMismatch("right-hand side has incompatible row count")
    if a.shape[0] == 0:
        return rhs.copy()
    with warnings.catch_warnings():
        # Exact singularity is detected below through the pivots.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    d = np.abs(np.diag(lu))
    if d.min() <= RANK_TOL * max(d.max(), np.finfo(float).tiny):
        raise SingularMatrix(
            f"pivot ratio {d.min():.3e}/{d.max():.3e} below rank tolerance")
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def inverse(a: np.ndarray) -> np.ndarray:
    """Matrix inverse through solve_linear."""
    return solve_linear(a, np.eye(a.shape[0], dtype=np.complex128))


def orthonormalize_columns(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, via Householder QR.

    Requires full column rank; the R diagonal is rotated to be real
    positive so an already orthonormal input is reproduced (up to
    roundoff) instead of being re-phased.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2:
        raise DimensionMismatch("expected a 2-D matrix")
    if v.shape[1] == 0:
        return v.copy()
    if v.shape[1] > v.shape[0]:
        raise RankDeficient("more columns than rows cannot be independent")
    if numerical_rank(v) < v.shape[1]:
        raise RankDeficient("columns are numerically dependent")
    q, r = np.linalg.qr(v, mode="reduced")
    d = np.diag(r).copy()
    d[np.abs(d) == 0] = 1.0
    return q * (d / np.abs(d))

