import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structdiag import (
    DEFAULT_TOL,
    EigenDecomposition,
    EigenGroups,
    NotDiagonalizable,
    NumericalBreakdown,
    SpectrumNotConjugateSymmetric,
    StructDiagError,
    assemble_core_diagonal,
    diagonalizability_report,
    eigen,
    form_for_kind,
    gram,
    group_eigenvalues,
    is_diagonalizable,
    pair_conjugates,
    random_structured,
    random_structured_diagonalizable,
    symplectic_form,
    variant_for_kind,
)
from structdiag.core import RANK_TOL, fro, herm_transpose, numerical_rank
from structdiag.spectral import (
    _MIX,
    _cluster_indices,
    cluster_radius,
    eigenvalues_match,
)

from conftest import (
    agreed_report,
    gaussian_matrix,
    near_normal_defective,
    random_hermitian,
    random_unitary,
)


class TestEigen:
    def test_diagonal_input(self):
        dec = eigen(np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert sorted(dec.values.real) == pytest.approx([1.0, 2.0, 3.0])
        assert np.allclose(np.abs(dec.vectors), np.eye(3))

    def test_j2_spectrum(self):
        # Characteristic polynomial z^2 + 1 by hand.
        j = symplectic_form(1).matrix
        dec = eigen(j)
        assert eigenvalues_match(dec.values, np.array([1j, -1j]), 1e-12)

    def test_construct_then_decompose(self):
        d = np.array([0.3 + 1j, -2.0, 4.5 - 0.7j, 1.1j])
        q = random_unitary(4, 31)
        a = q @ np.diag(d) @ herm_transpose(q)
        dec = eigen(a)
        assert eigenvalues_match(dec.values, d, 1e-9)

    def test_residual_invariant(self):
        a = gaussian_matrix(6, 6, 32)
        dec = eigen(a)
        res = fro(a @ dec.vectors - dec.vectors @ np.diag(dec.values))
        assert res <= 1e-8 * fro(a)
        assert np.allclose(np.linalg.norm(dec.vectors, axis=0), 1.0)


class TestHermitianRoute:
    """eigen diagonalizes a normal A through one eigh of the Hermitian
    M = W A + conj(W) A^H and a first-order correction, and anything that
    fails the correction's test through one general eig."""

    @staticmethod
    def _count(monkeypatch):
        counts = {"eig": 0, "eigh": 0}
        for name in counts:
            fn = getattr(np.linalg, name)

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, wrapper)
        return counts

    @staticmethod
    def _assert_eigenpairs(a, dec):
        assert eigenvalues_match(dec.values, np.linalg.eigvals(a), 1e-12)
        assert np.allclose(np.linalg.norm(dec.vectors, axis=0), 1.0)
        res = np.linalg.norm(a @ dec.vectors - dec.vectors * dec.values,
                             axis=0)
        assert res.max() <= 20 * np.finfo(float).eps * fro(a)

    @pytest.mark.parametrize("kind", ["skew-hamiltonian", "per-hermitian",
                                      "hamiltonian", "perskew-hermitian"])
    @pytest.mark.parametrize("n", [2, 8, 25])
    def test_normal_input_takes_one_eigh(self, monkeypatch, kind, n):
        a = random_structured_diagonalizable(kind, n, 3 + n).matrix
        counts = self._count(monkeypatch)
        dec = eigen(a)
        assert counts == {"eig": 0, "eigh": 1}
        self._assert_eigenpairs(a, dec)

    def test_non_normal_input_falls_back_to_eig(self, monkeypatch):
        a = gaussian_matrix(6, 6, 32)
        counts = self._count(monkeypatch)
        dec = eigen(a)
        assert counts == {"eig": 1, "eigh": 1}
        self._assert_eigenpairs(a, dec)

    def test_values_sharing_one_mu_fall_back_to_eig(self, monkeypatch):
        # lambda_2 = lambda_1 + t (c - i) has the same
        # mu = Re(lambda) + c Im(lambda), so M cannot tell the two
        # eigenvectors apart.
        c = -2.0 * _MIX.imag
        first = 0.3 + 0.2j
        d = np.array([first, first + 0.5 * (c - 1j), 1.7 - 0.4j, -0.9 + 1.1j])
        q = random_unitary(4, 31)
        a = q @ np.diag(d) @ herm_transpose(q)
        counts = self._count(monkeypatch)
        dec = eigen(a)
        assert counts == {"eig": 1, "eigh": 1}
        self._assert_eigenpairs(a, dec)
        assert eigenvalues_match(dec.values, d, 1e-12)


class TestGrouping:
    def test_merges_within_tolerance(self):
        a = np.diag([1.0, 1.0 + 1e-12, 5.0]).astype(complex)
        groups = group_eigenvalues(eigen(a))
        assert groups.sizes.tolist() == [2, 1]
        assert groups.basis.shape == (3, 3)

    def test_separated_values_stay_apart(self):
        groups = group_eigenvalues(eigen(np.diag([1.0, 2.0]).astype(complex)))
        assert groups.sizes.tolist() == [1, 1]

    def test_scalar_matrix_single_group(self):
        groups = group_eigenvalues(eigen(np.eye(4, dtype=complex)))
        assert groups.sizes.tolist() == [4]
        basis = groups.basis
        assert fro(herm_transpose(basis) @ basis - np.eye(4)) <= 1e-12


def _cluster_indices_loop(values, radius):
    """The pairwise double loop that _cluster_indices replaces: clusters as
    index lists, ascending, in the order of their smallest index."""
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
    clusters = {}
    for i in range(m):
        clusters.setdefault(find(i), []).append(i)
    return list(clusters.values())


def _groups_loop(dec):
    """group_eigenvalues one cluster at a time, as a list of (value,
    basis) sorted by (Re, Im), or the message of the first defective
    cluster in the order of their smallest index."""
    radius = cluster_radius(dec.values)
    roundoff = RANK_TOL * max(1.0, fro(dec.matrix))
    groups = []
    for members in _cluster_indices_loop(dec.values, radius):
        value = complex(np.mean(dec.values[members]))
        q = dec.vectors[:, members]
        if len(members) > 1:
            u, s, wh = np.linalg.svd(q, full_matrices=False)
            q = u @ wh
            spread = np.max(np.abs(dec.values[members] - value))
            if (np.count_nonzero(s > RANK_TOL * s.max()) < len(members)
                    or np.linalg.norm(dec.matrix @ q - value * q, 2)
                    > roundoff + max(radius, spread)):
                return f"eigenvalue {value:.6g} has a deficient eigenspace"
        groups.append((value, q))
    return sorted(groups, key=lambda g: (g[0].real, g[0].imag))


def _pairing_loop(values, sizes):
    """pair_conjugates with the full matrix of distances
    |value_j - conj(value_i)| and one masked argmin per group: (pairs,
    self-conjugate) or the message of the failed match."""
    radius = cluster_radius(values)
    distance = np.abs(values[None, :] - np.conj(values)[:, None])
    used = np.zeros(len(values), dtype=bool)
    pairs, singles = [], []
    for i in np.lexsort((values.imag, values.real)).tolist():
        if used[i]:
            continue
        used[i] = True
        if distance[i, i] <= radius:
            singles.append(i)
            continue
        dist = np.where(used, np.inf, distance[i])
        best = int(np.argmin(dist))
        if dist[best] > radius:
            return f"eigenvalue {values[i]:.6g} has no conjugate partner"
        if sizes[i] != sizes[best]:
            return (f"conjugate eigenvalues {values[i]:.6g} and "
                    f"{values[best]:.6g} have multiplicities {sizes[i]} != "
                    f"{sizes[best]}")
        used[best] = True
        pairs.append([i, best] if values[i].imag <= values[best].imag
                     else [best, i])
    return pairs, singles


def _chain_values(chains, angle, rnd, radius):
    """Chains of values, each step just under (True) or just over (False)
    the radius, so that single linkage can span far more than the radius;
    shuffled."""
    step = np.exp(1j * angle)
    values = []
    for c, under in enumerate(chains):
        v = complex(0.5 * c, -0.3 * c)
        values.append(v)
        for u in under:
            v += step * radius * (1 - 1e-6 if u else 1 + 1e-6)
            values.append(v)
    rnd.shuffle(values)
    return np.array(values, dtype=complex)


def _bases(groups):
    """Each group's block of columns of the basis."""
    return np.split(groups.basis, groups.sizes.cumsum()[:-1], axis=1)


_CHAINS = (st.lists(st.lists(st.booleans(), max_size=6), min_size=1,
                    max_size=4),
           st.floats(0.0, 2 * np.pi), st.randoms(use_true_random=False))


class TestClusterIndices:
    @given(*_CHAINS)
    @settings(max_examples=60, deadline=None)
    def test_chains_match_the_pairwise_loop(self, chains, angle, rnd):
        radius = cluster_radius(np.array([2.0]))
        values = _chain_values(chains, angle, rnd, radius)
        labels = _cluster_indices(values, radius)
        assert [np.flatnonzero(labels == c).tolist()
                for c in range(labels.max() + 1)
                ] == _cluster_indices_loop(values, radius)


class TestArrayGrouping:
    """The grouping and the pairing, which work on arrays, against the
    plain loops they replace."""

    @given(*_CHAINS, st.lists(st.booleans(), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_grouping_matches_the_cluster_loop(self, chains, angle, rnd,
                                               defective):
        # The radius of the chain starts, which the steps move by far
        # less than their 1e-6 margin.
        starts = [complex(0.5 * c, -0.3 * c) for c in range(len(chains))]
        values = _chain_values(chains, angle, rnd,
                               cluster_radius(np.array(starts)))
        vectors = random_unitary(values.size, rnd.randrange(1000))
        matrix = (vectors * values) @ herm_transpose(vectors)
        # Copies of one eigenvector make a merged cluster defective.
        merged = [c for c in _cluster_indices_loop(
            values, cluster_radius(values)) if len(c) > 1]
        for members, bad in zip(merged, defective):
            if bad:
                vectors[:, members] = vectors[:, members[:1]]
        dec = EigenDecomposition(values, vectors, matrix, hermitian=False)
        expected = _groups_loop(dec)
        if isinstance(expected, str):
            with pytest.raises(NotDiagonalizable) as raised:
                group_eigenvalues(dec)
            assert str(raised.value) == expected
            return
        groups = group_eigenvalues(dec)
        assert groups.values.tolist() == [v for v, _ in expected]
        assert groups.sizes.tolist() == [q.shape[1] for _, q in expected]
        for basis, (_, q) in zip(_bases(groups), expected):
            assert np.array_equal(basis, q)

    @given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2),
                              st.integers(1, 3), st.booleans()),
                    max_size=6),
           st.booleans(), st.lists(st.integers(0, 20), max_size=2),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_pairing_matches_the_greedy_loop(self, points, skew, drop, rnd):
        # A spectrum of A_hat closed under conjugation, with each value
        # repeated to its multiplicity, minus a few values so that some
        # partners go missing or lose a member. A doubled point is v and
        # v + 1.1 r with the partners conj(v + (0.5 + 0.75i) r) and
        # conj(v + (0.6 - 0.75i) r): four groups, each with both of the
        # other side as candidates (0.90 r and 0.96 r away).
        r = cluster_radius(np.array([complex(x, y) for x, y, _, _ in points]))
        spectrum = []
        for x, y, k, doubled in points:
            v = complex(x, y)
            group = [v, v.conjugate()]
            if doubled:
                group = [v, v + 1.1 * r, (v + (0.5 + 0.75j) * r).conjugate(),
                         (v + (0.6 - 0.75j) * r).conjugate()]
            spectrum += group * k
        for d in drop:
            if spectrum:
                spectrum.pop(d % len(spectrum))
        rnd.shuffle(spectrum)
        hat = np.array(spectrum, dtype=complex)
        # A skewadjoint A has the spectrum of A_hat = i A divided by i.
        values = hat / 1j if skew else hat
        dec = EigenDecomposition(values, np.eye(values.size, dtype=complex),
                                 np.diag(values), hermitian=False)
        groups = group_eigenvalues(dec)
        expected = [v for v, _ in _groups_loop(dec)]
        if skew:
            # The relabel of the plan: one multiply, as value by value.
            groups = dataclasses.replace(groups, values=1j * groups.values)
            expected = [1j * v for v in expected]
        assert groups.values.tolist() == expected
        pairing = _pairing_loop(groups.values, groups.sizes)
        if isinstance(pairing, str):
            with pytest.raises(SpectrumNotConjugateSymmetric) as raised:
                pair_conjugates(groups)
            assert str(raised.value) == pairing
            return
        found = pair_conjugates(groups)
        assert found.pairs.tolist() == pairing[0]
        assert found.selfconjugate.tolist() == pairing[1]


class TestPairing:
    def test_pair_and_singleton(self):
        a = np.diag([1 + 2j, 1 - 2j, 3.0, 3.0]).astype(complex)
        groups = group_eigenvalues(eigen(a))
        pairing = pair_conjugates(groups)
        assert len(pairing.pairs) == 1
        assert len(pairing.selfconjugate) == 1
        lo, hi = pairing.pairs[0]
        assert groups.values[lo].imag < 0 < groups.values[hi].imag

    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    def test_lower_member_ignores_real_part_roundoff(self, direction):
        # The real parts of a conjugate pair agree only up to roundoff: one
        # ulp either way must leave the member below the real axis first.
        groups = EigenGroups(
            np.array([complex(np.nextafter(0.7, direction), 0.4),
                      complex(0.7, -0.4)]),
            np.array([1, 1]), np.eye(2, dtype=complex))
        ((lo, hi),) = pair_conjugates(groups).pairs
        assert groups.values[lo].imag < 0 < groups.values[hi].imag

    def test_missing_partner_rejected(self):
        groups = group_eigenvalues(eigen(np.diag([1j]).astype(complex)))
        with pytest.raises(SpectrumNotConjugateSymmetric):
            pair_conjugates(groups)

    def test_multiplicity_mismatch_rejected(self):
        a = np.diag([1j, 1j, -1j]).astype(complex)
        groups = group_eigenvalues(eigen(a))
        with pytest.raises(SpectrumNotConjugateSymmetric):
            pair_conjugates(groups)

    @given(st.integers(0, 10**5))
    @settings(max_examples=15, deadline=None)
    def test_selfadjoint_spectrum_always_pairs(self, seed):
        a = random_structured("skew-hamiltonian", 2, seed)
        pairing = pair_conjugates(group_eigenvalues(eigen(a)))
        total = 2 * len(pairing.pairs) + len(pairing.selfconjugate)
        assert total == len(group_eigenvalues(eigen(a)).sizes)


class TestDiagonalizable:
    def test_jordan_block(self):
        assert not is_diagonalizable(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_hermitian_always(self):
        assert is_diagonalizable(random_hermitian(5, 41))

    def test_constructed_similarity(self):
        s = gaussian_matrix(5, 5, 42) + 2 * np.eye(5)
        d = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
        a = s @ d @ np.linalg.inv(s)
        assert is_diagonalizable(a)

    def test_scalar_matrix(self):
        assert is_diagonalizable(3.0 * np.eye(4, dtype=complex))

    def test_larger_jordan_structure(self):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1] = 1.0
        a[2, 2] = a[3, 3] = 2.0
        assert not is_diagonalizable(a)


def _rank_test_every_cluster(a):
    """The defectiveness test with singleton clusters included: a rank SVD
    of A - value I for every eigenvalue cluster."""
    m = a.shape[0]
    dec = eigen(a)
    cutoff = RANK_TOL * max(1.0, fro(a))
    labels = _cluster_indices(dec.values, cluster_radius(dec.values))
    for c in range(labels.max() + 1):
        value = complex(np.mean(dec.values[labels == c]))
        s = np.linalg.svd(a - value * np.eye(m), compute_uv=False)
        if int(np.count_nonzero(s > cutoff)) != m - np.sum(labels == c):
            return False
    return True


class TestSingletonSkip:
    def test_simple_spectrum_runs_no_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert is_diagonalizable(gaussian_matrix(16, 16, 7))
        assert calls == []

    @staticmethod
    def _agree(a, form=None):
        """is_diagonalizable, and the report on structured input, give the
        verdict of the every-cluster rank test."""
        expected = _rank_test_every_cluster(a)
        assert is_diagonalizable(a) == expected
        if form is not None:
            try:
                diagonalizability_report(a, form)
            except NotDiagonalizable:
                assert not expected
            else:
                assert expected
        return expected

    def test_same_verdict_as_every_cluster_rank_test(self):
        jordan = np.array([[0, 1], [0, 0]], dtype=complex)
        larger = np.zeros((4, 4), dtype=complex)
        larger[0, 1] = 1.0
        larger[2, 2] = larger[3, 3] = 2.0
        cases = [(jordan, symplectic_form(1)), (larger, None),
                 (near_normal_defective(), symplectic_form(2)),
                 (3.0 * np.eye(4, dtype=complex), symplectic_form(2)),
                 (random_hermitian(5, 41), None)]
        kinds = ("skew-hamiltonian", "per-hermitian", "hamiltonian",
                 "perskew-hermitian")
        cases += [(random_structured(kinds[seed % 4], 3, seed),
                   form_for_kind(kinds[seed % 4], 3)) for seed in range(50)]
        # Critical eigenvalues come with even multiplicity.
        cases += [(random_structured_diagonalizable(
                       kinds[seed % 4], 3, seed, critical_share=share).matrix,
                   form_for_kind(kinds[seed % 4], 3))
                  for share in (0.5, 0.9) for seed in range(20)]
        verdicts = [self._agree(a, form) for a, form in cases]
        assert not any(verdicts[:3])

    @pytest.mark.parametrize("kind", ["skew-hamiltonian", "per-hermitian",
                                      "hamiltonian", "perskew-hermitian"])
    def test_spread_sweep_across_the_cutoff(self, kind):
        # Normal 2n = 8 input whose two merged core values lie a spread s
        # apart, s on a log grid from 1e-3 to 1e3 times the rank cutoff.
        # Normal input is diagonalizable at every spread, also where the
        # every-cluster rank test reads a spread between its cutoff and
        # the cluster radius as a defect.
        inst = random_structured_diagonalizable(kind, 4, 11,
                                                critical_share=0.0)
        form = form_for_kind(kind, 4)
        q, base = inst.transform, inst.core
        cutoff = RANK_TOL * max(1.0, fro(inst.matrix))
        for spread in cutoff * np.logspace(-3, 3, 125):
            core = base.copy()
            core[1] = core[0] + spread
            full = assemble_core_diagonal(core, form.tag,
                                          variant_for_kind(kind))
            a = q @ np.diag(full) @ herm_transpose(q)
            assert is_diagonalizable(a)
            # Never "no" or NotDiagonalizable; a spread the certificate
            # sees raises NumericalBreakdown from the report as from the
            # construction.
            report = agreed_report(a, form)
            if isinstance(report, StructDiagError):
                assert isinstance(report, NumericalBreakdown), report
            else:
                assert report.decision, report.reason


class TestStructuredSpectralFacts:
    @given(st.integers(0, 10**5))
    @settings(max_examples=10, deadline=None)
    def test_eigenvector_form_orthogonality(self, seed):
        # [x, y] = 0 for eigenvectors of a selfadjoint matrix unless the
        # eigenvalues are conjugate.
        n = 2
        form = symplectic_form(n)
        a = random_structured("skew-hamiltonian", n, seed)
        groups = group_eigenvalues(eigen(a))
        values = groups.values
        bases = _bases(groups)
        scale = max(1.0, np.abs(values).max())
        for vi, bi in zip(values, bases):
            for vj, bj in zip(values, bases):
                if abs(np.conj(vi) - vj) > 1e-6 * scale:
                    cross = herm_transpose(bi) @ form.matrix @ bj
                    assert fro(cross) <= 1e-8 * scale

    @given(st.integers(0, 10**5))
    @settings(max_examples=10, deadline=None)
    def test_nonreal_eigenspaces_neutral(self, seed):
        n = 2
        form = symplectic_form(n)
        a = random_structured("skew-hamiltonian", n, seed)
        groups = group_eigenvalues(eigen(a))
        for value, basis in zip(groups.values, _bases(groups)):
            if abs(value.imag) > 1e-6:
                assert fro(gram(basis, form)) <= (
                    DEFAULT_TOL.structure_tol * fro(basis) ** 2
                    * fro(form.matrix))

    def test_conjugate_pair_gram_block_shape(self):
        # The stacked conjugate-pair basis has a nondegenerate Gram with
        # zero diagonal blocks and nonsingular antidiagonal blocks.
        n = 3
        form = symplectic_form(n)
        inst = random_structured_diagonalizable("skew-hamiltonian", n, 77,
                                                critical_share=0.0)
        groups = group_eigenvalues(eigen(inst.matrix))
        pairing = pair_conjugates(groups)
        assert len(pairing.pairs)
        for lo, hi in pairing.pairs:
            stacked = groups.basis[:, groups.columns([lo, hi])]
            g = gram(stacked, form)
            m = groups.sizes[lo]
            assert numerical_rank(g) == 2 * m
            assert fro(g[:m, :m]) <= 1e-9
            assert fro(g[m:, m:]) <= 1e-9
            cross = g[:m, m:]
            assert np.linalg.matrix_rank(cross) == m
            assert fro(g[m:, :m] + herm_transpose(cross)) <= 1e-9
