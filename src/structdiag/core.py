"""Dense complex matrix primitives shared by every other module, the
table of pinned thresholds and the one judge of residuals against them.

Matrices are plain ``numpy.ndarray`` values with dtype complex128 and
C-contiguous (row-major) layout; all functions here are pure. _ratio is
the one division of every relative residual by its scale, and _within
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
    """The one settable tolerance, structure_tol: the threshold of every
    structure test on an input (the flags of classify, the (skew-)Hermitian
    check before an inertia, the normality and annihilation checks of the
    decomposition routines), each a residual relative to its own Frobenius
    scale with no floor (_ratio), so that a test of a class closed under
    positive scaling reads the same on A as on s A. Every other cutoff is
    pinned in the table below.
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
FRAME_GUARANTEE = 1e-9    # Lagrangian frames (completion)
ROOT_GUARANTEE = 1e-7     # X^p = A for structured_root
FRAME_INPUT_TOL = 1e-10   # frames accepted by build_unitary_automorphism
CLUSTER_TOL = 1e-8        # radius r of every spectral decision, relative
GRAM_ZERO_TOL = 1e-8      # zero cut of Gram inertia, times ||Gram||_F
RANK_TOL = 1e-10          # singular-value and LU-pivot cutoff, relative


def _ratio(num: float, scale: float) -> float:
    """num / scale, the one division of every relative residual by its
    Frobenius scale, with no floor: 0 when num and scale are both 0 (a
    zero measured against zero), and NaN for any other scale that is not
    finite and positive (a zero scale under a nonzero difference, or an
    overflowed one), which _within never admits."""
    if 0.0 < scale < math.inf:
        return num / scale
    return 0.0 if num == 0.0 and scale == 0.0 else math.nan


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


def herm_transpose(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return np.conj(a).swapaxes(-1, -2)


def fro(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a, "fro"))


def rel_residual(a: np.ndarray, b: np.ndarray) -> float:
    """|| a - b ||_F / || a ||_F, through _ratio: 0 for a = b = 0, NaN
    for a = 0 != b or an overflowed || a ||_F."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return _ratio(fro(a - b), fro(a))


def _rank(s: np.ndarray) -> int | np.ndarray:
    """Count of singular values s above RANK_TOL times the largest, of
    each row of a stack (g, k) of them."""
    return (s > RANK_TOL * s.max(axis=-1, keepdims=True, initial=0.0)
            ).sum(axis=-1)


def numerical_rank(a: np.ndarray) -> int:
    """Number of singular values above RANK_TOL times the largest."""
    if a.size == 0:
        return 0
    return int(_rank(np.linalg.svd(a, compute_uv=False)))


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


def orthonormalize_columns(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span: the polar factor U W^H of one
    thin SVD V = U Sigma W^H, whose singular values also give the rank.

    Requires full column rank. U W^H is the orthonormal matrix nearest to
    V (Higham, Computing the polar decomposition, 1986), so an already
    orthonormal input is reproduced up to roundoff.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2:
        raise DimensionMismatch("expected a 2-D matrix")
    if v.shape[1] == 0:
        return v.copy()
    if v.shape[1] > v.shape[0]:
        raise RankDeficient("more columns than rows cannot be independent")
    u, s, wh = np.linalg.svd(v, full_matrices=False)
    if _rank(s) < v.shape[1]:
        raise RankDeficient("columns are numerically dependent")
    return u @ wh
