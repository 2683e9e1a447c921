"""Unstructured spectral substrate: eigendecomposition, clustering,
conjugate pairing, and the diagonalizability test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, TolerancePolicy, fro, orthonormalize_columns
from .errors import DimensionMismatch, NoConvergence, SpectrumNotConjugateSymmetric


class AxisClass(enum.Enum):
    REAL = "real"
    PURELY_IMAGINARY = "purely-imaginary"
    BOTH = "both"
    GENERIC = "generic"


@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray       # (m,) complex
    vectors: np.ndarray      # (m, m), unit columns aligned with values


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
    return EigenDecomposition(values, vectors / norms)


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
    """Single-linkage clusters (union-find) of complex values."""
    m = values.shape[0]
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= radius:
                parent[find(i)] = find(j)

    clusters: dict[int, list[int]] = {}
    for i in range(m):
        clusters.setdefault(find(i), []).append(i)
    return list(clusters.values())


def group_eigenvalues(dec: EigenDecomposition,
                      tol: TolerancePolicy = DEFAULT_TOL) -> list[EigenGroup]:
    """Single-linkage clustering of eigenvalues; orthonormal group bases.

    Groups are returned sorted by (Re, Im) of the cluster mean.
    """
    m = dec.values.shape[0]
    if m == 0:
        return []
    radius = cluster_radius(dec.values, tol)
    groups = []
    for members in _cluster_indices(dec.values, radius):
        idx = np.array(sorted(members))
        value = complex(np.mean(dec.values[idx]))
        basis = orthonormalize_columns(dec.vectors[:, idx], tol)
        groups.append(EigenGroup(
            value=value,
            multiplicity=len(members),
            basis=basis,
            axis_class=classify_axis(value, tol.class_tol),
        ))
    groups.sort(key=lambda g: (g.value.real, g.value.imag))
    return groups


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
    used = [False] * len(groups)
    pairs = []
    singles = []
    order = sorted(range(len(groups)),
                   key=lambda i: (values[i].real, values[i].imag))
    for i in order:
        if used[i]:
            continue
        v = values[i]
        if abs(v - np.conj(v)) <= 2 * radius:
            used[i] = True
            singles.append(i)
            continue
        best, best_dist = -1, np.inf
        for j in range(len(groups)):
            if used[j] or j == i:
                continue
            d = abs(values[j] - np.conj(v))
            if d < best_dist:
                best, best_dist = j, d
        if best < 0 or best_dist > 2 * radius:
            raise SpectrumNotConjugateSymmetric(
                f"eigenvalue {v:.6g} has no conjugate partner")
        if groups[i].multiplicity != groups[best].multiplicity:
            raise SpectrumNotConjugateSymmetric(
                f"conjugate eigenvalues {v:.6g} and {values[best]:.6g} "
                f"have multiplicities {groups[i].multiplicity} != "
                f"{groups[best].multiplicity}")
        used[i] = used[best] = True
        lo, hi = ((i, best) if values[i].imag <= values[best].imag
                  else (best, i))
        pairs.append((lo, hi))
    return ConjugatePairing(tuple(pairs), tuple(singles))


def is_diagonalizable(a: np.ndarray,
                      tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Geometric multiplicity equals algebraic multiplicity for every
    eigenvalue cluster, measured through singular values of A - value I.

    Clusters with one member are skipped: a simple eigenvalue is never
    defective.
    """
    a = np.asarray(a, dtype=np.complex128)
    return not has_defective_cluster(a, eigen(a), tol)


def has_defective_cluster(a: np.ndarray, dec: EigenDecomposition,
                          tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Rank test of A - value I for each multi-member cluster of dec,
    the eigendecomposition of A."""
    m = a.shape[0]
    radius = cluster_radius(dec.values, tol)
    eye = np.eye(m, dtype=np.complex128)
    # Rank cutoff anchored to the scale of A itself: anchoring to the
    # shifted matrix would count roundoff as rank when A - value I ~ 0.
    cutoff = tol.rank_tol * max(1.0, fro(a))
    # Bases are not needed for the rank test, so cluster indices directly.
    for members in _cluster_indices(dec.values, radius):
        if len(members) == 1:
            continue
        value = complex(np.mean(dec.values[np.array(members)]))
        s = np.linalg.svd(a - value * eye, compute_uv=False)
        rank = int(np.count_nonzero(s > cutoff))
        if rank != m - len(members):
            return True
    return False


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
