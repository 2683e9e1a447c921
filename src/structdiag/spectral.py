"""Unstructured spectral substrate: eigendecomposition, clustering,
conjugate pairing, and the diagonalizability test.

eigen, the one eigendecomposition every caller goes through,
diagonalizes a normal A through one Hermitian eigh. A normal
A = U diag(lambda) U^H commutes with the Hermitian
M = W A + conj(W) A^H = U diag(mu) U^H, mu = Re(lambda) + c Im(lambda),
so M's eigenvectors Q diagonalize A wherever mu separates A's
eigenvalues: the random-combination idea of He & Kressner, Randomized
joint diagonalization of symmetric matrices (SIAM J. Matrix Anal. Appl.,
2024), with one fixed irrational c. One first-order correction of Q from
T = Q^H A Q, in the manner of Ogita & Aishima, Iterative refinement for
symmetric eigenvalue decomposition (Japan J. Indust. Appl. Math., 2018),
brings the vectors to eig's accuracy. An a-posteriori test on the
correction alone picks the route: when its neglected second-order term
would exceed unit roundoff (A not normal enough, or two eigenvalues with
nearly one mu), eigen runs LAPACK's general eig instead. No tolerance of
the input is read. The decomposition records the route it took, since
eig's vectors of one eigenvalue need not be orthogonal.

One grouping pass (group_eigenvalues) clusters the eigenvalues, builds
each cluster's orthonormal basis and tests the cluster for defectiveness
on that basis, the clusters of one size in one stacked SVD; every caller
that needs any of the three goes through it.

Every spectral decision is made on one radius r = cluster_radius: two
eigenvalues within r share a cluster, a cluster whose spread lies within
r is not defective, and a group within r of its own conjugate is
self-conjugate (pair_conjugates), which is the one test of criticality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CLUSTER_TOL, RANK_TOL, _rank, fro, herm_transpose
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotDiagonalizable,
    SpectrumNotConjugateSymmetric,
)


@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray       # (m,) complex
    vectors: np.ndarray      # (m, m), unit columns aligned with values
    matrix: np.ndarray       # (m, m) complex, the decomposed A
    # The route taken: the eigh of M (vectors orthonormal up to their
    # first-order correction) or, if False, LAPACK's general eig (vectors
    # of one eigenvalue need not be orthogonal).
    hermitian: bool


@dataclass(frozen=True)
class EigenGroup:
    value: complex           # cluster mean
    multiplicity: int
    basis: np.ndarray        # orthonormal columns spanning the eigenspace


# W of eigen's Hermitian combination M = W A + conj(W) A^H, W = (1 - ic)/2.
# M's eigenvalues are mu = Re(lambda) + c Im(lambda) for normal A; the
# irrational c, neither 0 nor +/-1, keeps the mirror images lambda-bar and
# -lambda-bar of a value off the axes from sharing its mu.
_MIX = (1.0 - 0.6180339887498949j) / 2.0


def eigen(a: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition with unit-norm eigenvector columns.

    Tries _hermitian_eigen first: one eigh of M = W A + conj(W) A^H and a
    first-order correction, which a normal A passes unless two of its
    eigenvalues (nearly) share mu. Any A that fails that test goes to
    LAPACK's general eig, as does every A whose eigh does not converge.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("eigendecomposition requires a square matrix")
    dec = _hermitian_eigen(a)
    if dec is not None:
        return dec
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    norms = np.linalg.norm(vectors, axis=0)
    norms[norms == 0] = 1.0
    return EigenDecomposition(values, vectors / norms, a, hermitian=False)


def _hermitian_eigen(a: np.ndarray) -> EigenDecomposition | None:
    """A's eigenpairs from Q = eigh(M), M = W A + conj(W) A^H, or None.

    With T = Q^H A Q the values are lambda = diag T, and the vectors
    V = Q (I + G), G_ij = T_ij / (lambda_j - lambda_i), solve A V = V
    diag(lambda) up to the second-order term T G. G is zero within the
    cluster radius r, where eigenvalues share a group anyway and the
    group's defectiveness test judges the coupling. The route is taken
    only when max |G|^2 <= eps, so that the neglected term lies below
    unit roundoff; otherwise (a NaN included) None. Accepting on a small
    off-diagonal T instead would keep Q, which on near-normal input
    (non-normal part N) sits ||N||/gap off the eigenvectors.
    """
    try:
        q = np.linalg.eigh(_MIX * a + np.conj(_MIX) * herm_transpose(a))[1]
    except np.linalg.LinAlgError:
        return None
    t = herm_transpose(q) @ (a @ q)
    values = np.diag(t).copy()
    gap = values[None, :] - values[:, None]
    g = np.divide(t, gap, out=np.zeros_like(t),
                  where=np.abs(gap) > cluster_radius(values))
    if not np.max(np.abs(g), initial=0.0) ** 2 <= np.finfo(float).eps:
        return None
    v = q + q @ g
    return EigenDecomposition(values, v / np.linalg.norm(v, axis=0), a,
                              hermitian=True)


def cluster_radius(values: np.ndarray) -> float:
    """r = CLUSTER_TOL * max(1, max |value|), the radius of every decision."""
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    return CLUSTER_TOL * scale


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


def group_eigenvalues(dec: EigenDecomposition) -> list[EigenGroup]:
    """Single-linkage clustering of eigenvalues at the radius r
    (cluster_radius); orthonormal group bases.

    A one-member cluster's basis is its unit eigenvector. A multi-member
    cluster's eigenvectors are orthonormalized into Q, their polar factor
    U W^H from a thin SVD whose singular values also give their rank, and
    the cluster is defective (NotDiagonalizable) when they are dependent or
    when ||(A - value I) Q||_2 exceeds RANK_TOL * max(1, ||A||_F) +
    max(r, s), s the largest distance of a member from the mean: a normal
    cluster's residual is s, which a chain of values each within r of the
    next can carry past r. By min-max, this norm bounds the k-th smallest
    singular value of A - value I from above for any orthonormal Q with k
    columns, so the test on Q settles what a rank SVD of A - value I
    settles. The clusters of one size share one stacked SVD and one
    stacked product (A - value I) Q; the first defective cluster, in the
    order of their smallest index, raises.

    Groups are returned sorted by (Re, Im) of the cluster mean.
    """
    m = dec.values.shape[0]
    if m == 0:
        return []
    radius = cluster_radius(dec.values)
    clusters = _cluster_indices(dec.values, radius)
    groups = [EigenGroup(complex(dec.values[c[0]]), 1, dec.vectors[:, c])
              for c in clusters if len(c) == 1]
    groups += _cluster_groups(dec, [c for c in clusters if len(c) > 1],
                              radius)
    groups.sort(key=lambda g: (g.value.real, g.value.imag))
    return groups


def _cluster_groups(dec: EigenDecomposition, clusters: list[list[int]],
                    radius: float) -> list[EigenGroup]:
    """The groups of the multi-member clusters, in order, for
    group_eigenvalues; NotDiagonalizable at the first defective one."""
    # Roundoff on the scale of A itself: on the scale of the shifted
    # matrix, roundoff would read as a defect when A - value I ~ 0.
    roundoff = RANK_TOL * max(1.0, fro(dec.matrix))
    values = [complex(np.mean(dec.values[c])) for c in clusters]
    by_size: dict[int, list[int]] = {}
    for k, members in enumerate(clusters):
        by_size.setdefault(len(members), []).append(k)
    parts = {}
    for ks in by_size.values():
        # (clusters, rows, members): each cluster's eigenvectors.
        vectors = np.moveaxis(dec.vectors[:, [clusters[k] for k in ks]], 1, 0)
        u, s, wh = np.linalg.svd(vectors, full_matrices=False)
        q = u @ wh
        shifts = np.array([values[k] for k in ks])[:, None, None]
        parts.update(zip(ks, zip(q, s, dec.matrix @ q - shifts * q)))
    out = []
    for k, members in enumerate(clusters):
        value, (q, s, r) = values[k], parts[k]
        spread = float(np.max(np.abs(dec.values[members] - value)))
        cutoff = roundoff + max(radius, spread)
        # ||R||_2 <= ||R||_F, so the top eigenvalue of R^H R is needed only
        # when the Frobenius norm is past the cutoff.
        if _rank(s) < s.size or (
                fro(r) > cutoff
                and np.linalg.eigvalsh(herm_transpose(r) @ r)[-1]
                > cutoff ** 2):
            raise NotDiagonalizable(
                f"eigenvalue {value:.6g} has a deficient eigenspace")
        out.append(EigenGroup(value, s.size, q))
    return out


@dataclass(frozen=True)
class ConjugatePairing:
    """Partition of group indices into conjugate pairs and self-conjugate
    singletons, decided at ``radius``. In each pair the first index holds
    the eigenvalue with the smaller imaginary part. The real parts of a
    conjugate pair agree in exact arithmetic, so ordering by them would
    let roundoff decide.
    """

    pairs: tuple[tuple[int, int], ...]
    selfconjugate: tuple[int, ...]
    radius: float


def pair_conjugates(groups: list[EigenGroup]) -> ConjugatePairing:
    """Match each group with the group holding its conjugate eigenvalue.

    A group within the cluster radius r of its own conjugate is
    self-conjugate; any other needs a partner of equal multiplicity
    within r of its conjugate, else SpectrumNotConjugateSymmetric.
    """
    values = np.array([g.value for g in groups])
    radius = cluster_radius(values)
    # distance[i, j] = |value_j - conj(value_i)|, formed once.
    distance = np.abs(values[None, :] - np.conj(values)[:, None])
    used = np.zeros(len(groups), dtype=bool)
    pairs = []
    singles = []
    for i in np.lexsort((values.imag, values.real)).tolist():
        if used[i]:
            continue
        used[i] = True
        v = values[i]
        if distance[i, i] <= radius:
            singles.append(i)
            continue
        dist = np.where(used, np.inf, distance[i])
        # argmin takes the first of equal distances.
        best = int(np.argmin(dist))
        if dist[best] > radius:
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
    return ConjugatePairing(tuple(pairs), tuple(singles), radius)


def is_diagonalizable(a: np.ndarray) -> bool:
    """Geometric multiplicity equals algebraic multiplicity for every
    eigenvalue cluster, measured by the residual of A - value I on the
    cluster's orthonormal eigenvector basis (see group_eigenvalues).

    Clusters with one member are skipped: a simple eigenvalue is never
    defective.
    """
    try:
        group_eigenvalues(eigen(a))
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
