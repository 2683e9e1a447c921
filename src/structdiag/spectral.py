"""Unstructured spectral substrate: eigendecomposition, clustering,
conjugate pairing, and the diagonalizability test.

One grouping pass (group_eigenvalues) clusters the eigenvalues, builds
each cluster's orthonormal basis and tests the cluster for defectiveness
on that basis; every caller that needs any of the three goes through it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    TolerancePolicy,
    fro,
    herm_transpose,
    orthonormalize_columns,
)
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotDiagonalizable,
    RankDeficient,
    SpectrumNotConjugateSymmetric,
)


class AxisClass(enum.Enum):
    REAL = "real"
    PURELY_IMAGINARY = "purely-imaginary"
    BOTH = "both"
    GENERIC = "generic"


@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray       # (m,) complex
    vectors: np.ndarray      # (m, m), unit columns aligned with values
    matrix: np.ndarray       # (m, m) complex, the decomposed A


@dataclass(frozen=True)
class EigenGroup:
    value: complex           # cluster mean
    multiplicity: int
    basis: np.ndarray        # orthonormal columns spanning the eigenspace
    axis_class: AxisClass


def eigen(a: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition with unit-norm eigenvector columns."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("eigendecomposition requires a square matrix")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    norms = np.linalg.norm(vectors, axis=0)
    norms[norms == 0] = 1.0
    return EigenDecomposition(values, vectors / norms, a)


def classify_axis(value: complex, class_tol: float) -> AxisClass:
    """Real / purely-imaginary classification with a relative threshold.

    A value near zero satisfies both conditions and is classified BOTH.
    """
    cut = class_tol * (1.0 + abs(value))
    near_real = abs(value.imag) <= cut
    near_imag = abs(value.real) <= cut
    if near_real and near_imag:
        return AxisClass.BOTH
    if near_real:
        return AxisClass.REAL
    if near_imag:
        return AxisClass.PURELY_IMAGINARY
    return AxisClass.GENERIC


def cluster_radius(values: np.ndarray, tol: TolerancePolicy) -> float:
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    return tol.cluster_tol * scale


def _cluster_indices(values: np.ndarray, radius: float) -> list[list[int]]:
    """Single-linkage clusters (union-find) of complex values.

    Each cluster lists its indices ascending; clusters come in the order
    of their smallest index.
    """
    m = values.shape[0]
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    close = np.abs(values[:, None] - values[None, :]) <= radius
    # np.nonzero walks the upper triangle row by row, i < j.
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(np.triu(close, 1)))):
        parent[find(i)] = find(j)

    clusters: dict[int, list[int]] = {}
    for i in range(m):
        clusters.setdefault(find(i), []).append(i)
    return list(clusters.values())


def group_eigenvalues(dec: EigenDecomposition,
                      tol: TolerancePolicy = DEFAULT_TOL) -> list[EigenGroup]:
    """Single-linkage clustering of eigenvalues; orthonormal group bases.

    A one-member cluster's basis is its unit eigenvector. A multi-member
    cluster's eigenvectors are orthonormalized into Q, and the cluster is
    defective (NotDiagonalizable) when they are dependent or when
    ||(A - value I) Q||_2 exceeds rank_tol * max(1, ||A||_F). By min-max,
    this norm bounds the k-th smallest singular value of A - value I
    from above for any orthonormal Q with k columns, so the test on Q
    settles what a rank SVD of A - value I settles, at O(m^2 k) cost.

    Groups are returned sorted by (Re, Im) of the cluster mean.
    """
    m = dec.values.shape[0]
    if m == 0:
        return []
    # Cutoff anchored to the scale of A itself: anchoring to the shifted
    # matrix would read roundoff as a defect when A - value I ~ 0.
    cutoff = tol.rank_tol * max(1.0, fro(dec.matrix))
    groups = []
    for members in _cluster_indices(dec.values,
                                    cluster_radius(dec.values, tol)):
        if len(members) == 1:
            value = complex(dec.values[members[0]])
            basis = dec.vectors[:, members]
        else:
            value = complex(np.mean(dec.values[members]))
            basis = _cluster_basis(dec.matrix, dec.vectors[:, members],
                                   value, cutoff, tol)
        groups.append(EigenGroup(
            value=value,
            multiplicity=len(members),
            basis=basis,
            axis_class=classify_axis(value, tol.class_tol),
        ))
    groups.sort(key=lambda g: (g.value.real, g.value.imag))
    return groups


def _cluster_basis(a: np.ndarray, vectors: np.ndarray, value: complex,
                   cutoff: float, tol: TolerancePolicy) -> np.ndarray:
    """Orthonormal Q spanning a cluster's eigenvectors; NotDiagonalizable
    unless they are independent and ||(A - value I) Q||_2 <= cutoff."""
    try:
        q = orthonormalize_columns(vectors, tol)
    except RankDeficient as exc:
        raise NotDiagonalizable(
            f"eigenvalue {value:.6g} has a deficient eigenspace") from exc
    r = a @ q - value * q
    # ||R||_2 <= ||R||_F, so the top eigenvalue of R^H R is needed only
    # when the Frobenius norm is past the cutoff.
    if (fro(r) > cutoff
            and np.linalg.eigvalsh(herm_transpose(r) @ r)[-1] > cutoff ** 2):
        raise NotDiagonalizable(
            f"eigenvalue {value:.6g} has a deficient eigenspace")
    return q


@dataclass(frozen=True)
class ConjugatePairing:
    """Partition of group indices into conjugate pairs and self-conjugate
    singletons. In each pair the first index holds the eigenvalue with the
    smaller imaginary part. The real parts of a conjugate pair agree in
    exact arithmetic, so ordering by them would let roundoff decide.
    """

    pairs: tuple[tuple[int, int], ...]
    selfconjugate: tuple[int, ...]


def pair_conjugates(groups: list[EigenGroup],
                    tol: TolerancePolicy = DEFAULT_TOL) -> ConjugatePairing:
    """Match each group with the group holding its conjugate eigenvalue."""
    if not groups:
        return ConjugatePairing((), ())
    values = np.array([g.value for g in groups])
    radius = cluster_radius(values, tol)
    used = np.zeros(len(groups), dtype=bool)
    pairs = []
    singles = []
    for i in np.lexsort((values.imag, values.real)).tolist():
        if used[i]:
            continue
        used[i] = True
        v = values[i]
        if abs(v - np.conj(v)) <= 2 * radius:
            singles.append(i)
            continue
        dist = np.where(used, np.inf, np.abs(values - np.conj(v)))
        # argmin takes the first of equal distances.
        best = int(np.argmin(dist))
        if dist[best] > 2 * radius:
            raise SpectrumNotConjugateSymmetric(
                f"eigenvalue {v:.6g} has no conjugate partner")
        if groups[i].multiplicity != groups[best].multiplicity:
            raise SpectrumNotConjugateSymmetric(
                f"conjugate eigenvalues {v:.6g} and {values[best]:.6g} "
                f"have multiplicities {groups[i].multiplicity} != "
                f"{groups[best].multiplicity}")
        used[best] = True
        lo, hi = ((i, best) if values[i].imag <= values[best].imag
                  else (best, i))
        pairs.append((lo, hi))
    return ConjugatePairing(tuple(pairs), tuple(singles))


def is_diagonalizable(a: np.ndarray,
                      tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Geometric multiplicity equals algebraic multiplicity for every
    eigenvalue cluster, measured by the residual of A - value I on the
    cluster's orthonormal eigenvector basis (see group_eigenvalues).

    Clusters with one member are skipped: a simple eigenvalue is never
    defective.
    """
    try:
        group_eigenvalues(eigen(a), tol)
    except NotDiagonalizable:
        return False
    return True


def eigenvalues_match(found: np.ndarray, planted: np.ndarray,
                      rtol: float) -> bool:
    """Multiset comparison of two spectra by greedy nearest matching.

    Sorting near-coincident values lexicographically is unstable under
    roundoff, so each planted value greedily claims its closest unused
    partner instead.
    """
    found = np.asarray(found).ravel()
    planted = np.asarray(planted).ravel()
    if found.shape != planted.shape:
        return False
    if found.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(planted))))
    unused = list(range(found.size))
    for p in planted:
        dists = [abs(found[i] - p) for i in unused]
        k = int(np.argmin(dists))
        if dists[k] > rtol * scale:
            return False
        unused.pop(k)
    return True


def spectrum(a: np.ndarray) -> np.ndarray:
    """Eigenvalues only."""
    a = np.asarray(a, dtype=np.complex128)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
