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
on that basis; every caller that needs any of the three goes through it.
It returns arrays (EigenGroups): the groups' values and sizes and one
basis matrix holding their bases as column blocks. Two values within r
have real parts within r, so clustering and pair_conjugates take their
close pairs from one sort of the real parts (_close_pairs).

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
class EigenGroups:
    """The eigenvalue groups of one decomposition as arrays, ascending by
    (Re, Im) of their values: each group's value (its cluster mean) and
    size, and one m x m basis whose consecutive column blocks are the
    groups' orthonormal bases, in group order."""

    values: np.ndarray       # (g,) complex
    sizes: np.ndarray        # (g,) int
    basis: np.ndarray        # (m, m) complex

    def columns(self, which: np.ndarray) -> np.ndarray:
        """The basis columns of the groups ``which``, block after block."""
        return _ranges((self.sizes.cumsum() - self.sizes)[which],
                       self.sizes[which])


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges starts[i] ... starts[i] + sizes[i] - 1, concatenated."""
    return (np.arange(sizes.sum())
            + (starts - sizes.cumsum() + sizes).repeat(sizes))


# W of eigen's Hermitian combination M = W A + conj(W) A^H, W = (1 - ic)/2.
# M's eigenvalues are mu = Re(lambda) + c Im(lambda) for normal A; the
# irrational c, neither 0 nor +/-1, keeps the mirror images lambda-bar and
# -lambda-bar of a value off the axes from sharing its mu.
_MIX = (1.0 - 0.6180339887498949j) / 2.0


def eigen(a: np.ndarray, nearly_diagonal: bool = False
          ) -> EigenDecomposition:
    """Full eigendecomposition with unit-norm eigenvector columns.

    Tries _hermitian_eigen first: one eigh of M = W A + conj(W) A^H and a
    first-order correction, which a normal A passes unless two of its
    eigenvalues (nearly) share mu. Any A that fails that test goes to
    LAPACK's general eig, as does every A whose eigh does not converge.
    A ``nearly_diagonal`` A, such as the Rayleigh-Ritz matrix of a basis
    that is already nearly an eigenbasis, is first given the same test
    with Q = I, which runs no eigh.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("eigendecomposition requires a square matrix")
    dec = _hermitian_eigen(a, nearly_diagonal) if nearly_diagonal else None
    if dec is None:
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


def _hermitian_eigen(a: np.ndarray, nearly_diagonal: bool = False
                     ) -> EigenDecomposition | None:
    """A's eigenpairs from Q = eigh(M), M = W A + conj(W) A^H, or from
    Q = I when A is ``nearly_diagonal``, or None.

    With T = Q^H A Q the values are lambda = diag T, and the vectors
    V = Q (I + G), G_ij = T_ij / (lambda_j - lambda_i), solve A V = V
    diag(lambda) up to the second-order term T G. G is zero within the
    cluster radius r, where eigenvalues share a group anyway and the
    group's defectiveness test judges the coupling. The route is taken
    only when max |G|^2 <= eps, so that the neglected term lies below
    unit roundoff, and no off-diagonal |T_ij| within r exceeds r itself;
    otherwise (a NaN included) None. Accepting on a small off-diagonal T
    instead would keep Q, which on near-normal input (non-normal part N)
    sits ||N||/gap off the eigenvectors. A larger coupling within r is
    that of two eigenvalues that share mu and which eigh's degenerate
    basis has mixed, so that diag T reads both as their mean.
    """
    if nearly_diagonal:
        q, t = None, a.copy()
    else:
        try:
            q = np.linalg.eigh(_MIX * a + np.conj(_MIX) * herm_transpose(a))[1]
        except np.linalg.LinAlgError:
            return None
        t = herm_transpose(q) @ (a @ q)
    values = t.diagonal().copy()
    gap = values[None, :] - values[:, None]
    radius = cluster_radius(values)
    far = np.abs(gap) > radius
    g = np.divide(t, gap, out=np.zeros_like(t), where=far)
    if not np.abs(g).max(initial=0.0) ** 2 <= np.finfo(float).eps:
        return None
    # Off-diagonal pairs within r, if any: T's diagonal always is.
    if np.count_nonzero(far) < values.size * (values.size - 1):
        np.fill_diagonal(t, 0.0)
        if not np.abs(t[~far]).max() <= radius:
            return None
    if q is None:
        np.fill_diagonal(g, 1.0)  # V = I + G: G's diagonal is zero.
        v = g
    else:
        v = q + q @ g
    return EigenDecomposition(values, v / np.linalg.norm(v, axis=0), a,
                              hermitian=True)


def cluster_radius(values: np.ndarray) -> float:
    """r = CLUSTER_TOL * max(1, max |value|), the radius of every decision."""
    return CLUSTER_TOL * max(1.0, float(np.abs(values).max(initial=0.0)))


def _close_pairs(values: np.ndarray, radius: float, conjugate: bool
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (i, j), i != j, both ways, with d = |value_i - value_j|
    (or |value_i - conj(value_j)|) at most radius, and d. Their real
    parts lie within the radius too, so the pairs come from one sweep of
    the sorted real parts (at twice the radius, so that no rounding drops
    one)."""
    order = values.real.argsort(kind="stable")
    ascending = values.real[order]
    after = np.arange(1, values.size + 1)
    # Sorted position p is swept with p + 1 ... p + reach[p].
    reach = (ascending.searchsorted(ascending + 2.0 * radius, side="right")
             - after)
    i = order[(after - 1).repeat(reach)]
    j = order[_ranges(after, reach)]
    d = np.abs(values[i] - (values[j].conj() if conjugate else values[j]))
    close = d <= radius
    i, j, d = i[close], j[close], d[close]
    both = np.concatenate
    return both([i, j]), both([j, i]), both([d, d])


def _cluster_indices(values: np.ndarray, radius: float) -> np.ndarray:
    """Single-linkage clusters of complex values at radius: each value's
    cluster, numbered in the order of the clusters' smallest indices. Each
    value takes the least label of itself and its close partners
    (_close_pairs), then that label's label, until no label moves: each
    cluster's is then its smallest index."""
    i, j, _ = _close_pairs(values, radius, conjugate=False)
    labels = np.arange(values.shape[0])
    while True:
        low = labels.copy()
        np.minimum.at(low, i, labels[j])
        low = low[low]
        if (low == labels).all():
            return ((labels == np.arange(labels.size)).cumsum() - 1)[labels]
        labels = low


def group_eigenvalues(dec: EigenDecomposition) -> EigenGroups:
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
    settles. The clusters of one size share one stacked SVD, and all
    multi-member clusters one product A [Q_1 ... Q_c]; the first defective
    cluster, in the order of their smallest index, raises.

    Groups are sorted by (Re, Im) of the cluster mean.
    """
    radius = cluster_radius(dec.values)
    labels = _cluster_indices(dec.values, radius)
    sizes = np.bincount(labels)
    starts = sizes.cumsum() - sizes
    members = labels.argsort(kind="stable")
    values = dec.values[members[starts]]
    # Each size k's merged clusters, their (clusters, k) eigenvalues, mean.
    stacks = []
    for k in sorted(set(sizes.tolist()) - {1}):
        of_size = (sizes == k).nonzero()[0]
        idx = members[starts[of_size, None] + np.arange(k)]
        values[of_size] = dec.values[idx].sum(axis=1) / k
        stacks.append((of_size, idx))
    order = np.lexsort((values.imag, values.real))
    # The eigenvectors by group, ascending within one.
    gather = members[_ranges(starts[order], sizes[order])]
    basis = dec.vectors[:, gather]
    if not stacks:
        return EigenGroups(values[order], sizes[order], basis)
    column = gather.argsort()
    deficient = np.zeros(sizes.size, dtype=bool)
    for of_size, idx in stacks:
        # (clusters, rows, k): each cluster's eigenvectors.
        u, s, wh = np.linalg.svd(dec.vectors[:, idx].transpose(1, 0, 2),
                                 full_matrices=False)
        basis[:, column[idx]] = (u @ wh).transpose(1, 0, 2)
        deficient[of_size] = _rank(s) < idx.shape[1]
    # R = (A - value I) Q of every merged cluster, a block of columns each,
    # its Frobenius norm and the spread of its values about the mean.
    merged = (sizes > 1).nonzero()[0]
    first = sizes[merged].cumsum() - sizes[merged]
    each = members[_ranges(starts[merged], sizes[merged])]
    shift = values[labels[each]]
    q = basis[:, column[each]]
    r = dec.matrix @ q - shift * q
    norms = np.sqrt(np.add.reduceat((r.conj() * r).real, first,
                                    axis=1).sum(axis=0))
    spread = np.maximum.reduceat(abs(dec.values[each] - shift), first)
    # Roundoff on the scale of A itself: on the scale of the shifted
    # matrix, roundoff would read as a defect when A - value I ~ 0.
    cutoff = (RANK_TOL * max(1.0, fro(dec.matrix))
              + np.maximum(radius, spread))
    # ||R||_2 <= ||R||_F, so the top eigenvalue of R^H R is needed only
    # where the Frobenius norm is past the cutoff.
    for t in (deficient[merged] | (norms > cutoff)).nonzero()[0].tolist():
        block = r[:, first[t]:first[t] + sizes[merged[t]]]
        if deficient[merged[t]] or (np.linalg.eigvalsh(
                herm_transpose(block) @ block)[-1] > cutoff[t] ** 2):
            raise NotDiagonalizable(
                f"eigenvalue {complex(values[merged[t]]):.6g} has a "
                "deficient eigenspace")
    return EigenGroups(values[order], sizes[order], basis)


@dataclass(frozen=True)
class ConjugatePairing:
    """Partition of group indices into conjugate pairs (the rows of
    ``pairs``) and self-conjugate singletons, decided at ``radius``. In
    each pair the first index holds the eigenvalue with the smaller
    imaginary part. The real parts of a conjugate pair agree in exact
    arithmetic, so ordering by them would let roundoff decide.
    """

    pairs: np.ndarray            # (p, 2) int
    selfconjugate: np.ndarray    # (c,) int
    radius: float


def pair_conjugates(groups: EigenGroups) -> ConjugatePairing:
    """Match each group with the group holding its conjugate eigenvalue.

    A group within the cluster radius r of its own conjugate is
    self-conjugate; any other needs a partner of equal size within r of
    its conjugate, else SpectrumNotConjugateSymmetric. Groups are taken
    ascending by (Re, Im), each with the nearest partner not yet taken
    (the first of equal distances) among its close pairs (_close_pairs).
    """
    values = groups.values
    radius = cluster_radius(values)
    ascending = np.lexsort((values.imag, values.real))
    # |value - conj(value)| = 2 |Im value|: with no group off the real
    # axis, every group is self-conjugate and no partner is looked for.
    selfconjugate = 2.0 * np.abs(values.imag) <= radius
    if selfconjugate.all():
        return ConjugatePairing(np.empty((0, 2), dtype=np.intp), ascending,
                                radius)
    candidates: dict[int, list[tuple[float, int]]] = {}
    for a, b, d in zip(*(x.tolist() for x in _close_pairs(
            values, radius, conjugate=True))):
        candidates.setdefault(a, []).append((d, b))
    sizes, imag = groups.sizes.tolist(), values.imag.tolist()
    single = selfconjugate.tolist()
    used = [False] * len(sizes)
    pairs, singles = [], []
    for a in ascending.tolist():
        if used[a]:
            continue
        used[a] = True
        if single[a]:
            singles.append(a)
            continue
        _, b = min(((d, b) for d, b in candidates.get(a, ()) if not used[b]),
                   default=(None, None))
        if b is None:
            raise SpectrumNotConjugateSymmetric(
                f"eigenvalue {values[a]:.6g} has no conjugate partner")
        if sizes[a] != sizes[b]:
            raise SpectrumNotConjugateSymmetric(
                f"conjugate eigenvalues {values[a]:.6g} and "
                f"{values[b]:.6g} have multiplicities {sizes[a]} != "
                f"{sizes[b]}")
        used[b] = True
        pairs.append((a, b) if imag[a] <= imag[b] else (b, a))
    return ConjugatePairing(np.array(pairs, dtype=np.intp).reshape(-1, 2),
                            np.array(singles, dtype=np.intp), radius)


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
