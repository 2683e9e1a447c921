import dataclasses
import pickle
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from structdiag import (
    AdditiveDecomposition,
    AxisClass,
    DimensionMismatch,
    FormTag,
    FrameTooLarge,
    NotDiagonalizable,
    NotNeutral,
    NotNormal,
    NotStructured,
    NotStructuredDiagonalizable,
    NumericalBreakdown,
    Sign,
    SpectrumNotConjugateSymmetric,
    StructDiagError,
    TolerancePolicy,
    Variant,
    adjoint,
    assemble_core_diagonal,
    build_unitary_automorphism,
    complete_to_lagrangian,
    congruence_to,
    counterexample_unbalanced,
    decompose_additive,
    diagonalizability_report,
    eigen,
    euclidean_form,
    form_for_kind,
    gram,
    group_eigenvalues,
    inertia,
    pair_conjugates,
    perplectic_form,
    random_automorphism,
    random_lagrangian_frame,
    random_structured,
    random_structured_diagonalizable,
    reconstruct_from_normal_factor,
    rel_residual,
    structured_diagonalize,
    structured_exp,
    structured_root,
    sylvester_canonical,
    symplectic_form,
    unitary_refine,
    variant_for_kind,
)
from structdiag import cli
from structdiag.core import (DEFAULT_TOL, FACTOR_GUARANTEE, fro,
                             herm_transpose, solve_linear)
import structdiag.diagonalize as diagonalize_module
from structdiag.diagonalize import (
    _balanced_pairs,
    _frame_certificate,
    _lagrangian_completion,
    certify,
    factor_residuals,
)
from structdiag.forms import _sylvester
from structdiag.structure import _with_partners
from structdiag.spectral import (
    _MIX,
    _cluster_indices,
    cluster_radius,
    eigenvalues_match,
)
from structdiag.structure import classify

from conftest import (
    agreed_report,
    chain_probe,
    gaussian_matrix,
    near_normal_defective,
    skew_block_instance,
)


class TestReport:
    def test_identity_is_balanced(self):
        for n in (1, 2, 4):
            form = symplectic_form(n)
            report = diagonalizability_report(np.eye(2 * n, dtype=complex),
                                              form)
            assert report.decision
            assert report.variant is Variant.SELFADJOINT
            (entry,) = report.per_eigenvalue
            assert entry.multiplicity == 2 * n
            assert entry.gram_inertia.counts == (n, n, 0)

    def test_j2_is_unbalanced(self):
        form = symplectic_form(1)
        report = diagonalizability_report(form.matrix, form)
        assert not report.decision
        assert report.variant is Variant.SKEWADJOINT
        counts = sorted(e.gram_inertia.counts for e in report.per_eigenvalue)
        assert counts == [(0, 1, 0), (1, 0, 0)]
        assert "unbalanced" in report.reason

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_skew_block_example_is_balanced(self, n):
        # [[A, B], [B, -A]] with skew-Hermitian blocks: skew-Hamiltonian
        # and skew-Hermitian, so no real eigenvalues once nonsingular.
        m = skew_block_instance(n, seed=5)
        form = symplectic_form(n)
        report = diagonalizability_report(m, form)
        assert report.decision
        assert not report.per_eigenvalue

    def test_non_diagonalizable_rejected(self):
        form = symplectic_form(1)
        # Hamiltonian Jordan block: [[0, 1], [0, 0]] is Hamiltonian for J2.
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotDiagonalizable):
            diagonalizability_report(a, form)

    def test_unstructured_rejected(self):
        form = symplectic_form(2)
        with pytest.raises(NotStructured):
            diagonalizability_report(gaussian_matrix(4, 4, 1), form)

    def test_unpaired_spectrum_raises_like_the_construction(self):
        # Structured at the loosened tolerance, yet the 1e-6 perturbation
        # leaves an eigenvalue without a conjugate partner: the report
        # says so, as the construction does, instead of deciding.
        a = random_structured("skew-hamiltonian", 2, 11)
        a[0, 0] += 1e-6
        form, tol = symplectic_form(2), TolerancePolicy(structure_tol=1e-4)
        for entry in (diagonalizability_report, structured_diagonalize):
            with pytest.raises(SpectrumNotConjugateSymmetric):
                entry(a, form, tol)

    @pytest.mark.parametrize("kind", ["skew-hamiltonian", "per-hermitian",
                                      "hamiltonian", "perskew-hermitian"])
    def test_axis_class_labels(self, kind):
        # Critical eigenvalues lie on the variant's axis: the real one for
        # selfadjoint A, the imaginary one for skewadjoint A; zero lies on
        # both. The value 1 + i is not critical for either variant.
        form, variant = form_for_kind(kind, 3), variant_for_kind(kind)
        selfadjoint = variant is Variant.SELFADJOINT
        axis = 1.0 if selfadjoint else 1j
        core = np.array([2.0 * axis, 0.0, 1.0 + 1.0j])
        a = np.diag(assemble_core_diagonal(core, form.tag, variant))
        report = diagonalizability_report(a, form)
        assert [(e.value, e.multiplicity, e.axis_class)
                for e in report.per_eigenvalue] == [
            (0.0, 2, AxisClass.BOTH),
            (2.0 * axis, 2,
             AxisClass.REAL if selfadjoint else AxisClass.PURELY_IMAGINARY)]
        assert [e["axis_class"] for e in report.to_dict()["per_eigenvalue"]
                ] == ["both", "real" if selfadjoint else "purely-imaginary"]

    def test_balance_flags_are_basis_independent(self):
        form = symplectic_form(2)
        a = np.eye(4, dtype=complex)
        groups = group_eigenvalues(eigen(a))
        assert groups.sizes.tolist() == [4]
        base = inertia(gram(groups.basis, form), form.kind)
        for seed in range(5):
            mix = gaussian_matrix(4, 4, seed) + 2 * np.eye(4)
            mixed = inertia(gram(groups.basis @ mix, form), form.kind)
            assert mixed.counts == base.counts

    def test_unbalanced_flags_survive_basis_recombination(self):
        # The counterexample's definite eigenspace Grams keep their
        # (unbalanced) inertia under any invertible recombination.
        from structdiag import counterexample_unbalanced
        n = 3
        form = symplectic_form(n)
        a = counterexample_unbalanced(n, 4)
        groups = group_eigenvalues(eigen(a))
        for basis in np.split(groups.basis, groups.sizes.cumsum()[:-1],
                              axis=1):
            base = inertia(gram(basis, form), form.kind)
            assert not base.balanced
            for seed in range(3):
                k = basis.shape[1]
                mix = gaussian_matrix(k, k, 100 + seed) + 2 * np.eye(k)
                mixed = inertia(gram(basis @ mix, form), form.kind)
                assert mixed.counts == base.counts


class TestStructuredDiagonalize:
    def test_identity(self):
        form = symplectic_form(2)
        d = structured_diagonalize(np.eye(4, dtype=complex), form)
        assert np.allclose(d.core, np.ones(2))
        assert d.residual_automorphism <= 1e-8
        assert d.residual_similarity <= 1e-8

    @pytest.mark.parametrize("seed", range(40))
    def test_core_order_survives_roundoff(self, seed):
        # A and Q A Q^H (Q a unitary automorphism) have one spectrum and
        # differ by roundoff; the imaginary critical values of skewadjoint
        # input have real parts 0 in exact arithmetic, so their order must
        # not follow the sign of that roundoff.
        kind = ("hamiltonian", "perskew-hermitian")[seed % 2]
        n = 6
        form = form_for_kind(kind, n)
        a = random_structured_diagonalizable(kind, n, seed,
                                             critical_share=0.6).matrix
        q = random_automorphism(form, n, seed)
        moved = q @ a @ herm_transpose(q)
        core = structured_diagonalize(a, form).core
        assert np.max(np.abs(
            structured_diagonalize(moved, form).core - core)) <= 1e-10

    # J2 and R2 are normal, so the unitary routes reach the same decision.
    _CONSTRUCTORS = pytest.mark.parametrize(
        "construct", [structured_diagonalize, unitary_refine,
                      decompose_additive])

    @_CONSTRUCTORS
    def test_j2_raises_with_report(self, construct):
        form = symplectic_form(1)
        with pytest.raises(NotStructuredDiagonalizable) as err:
            construct(form.matrix, form)
        assert err.value.report is not None
        assert not err.value.report.decision

    @_CONSTRUCTORS
    def test_r2_per_hermitian_unbalanced(self, construct):
        # R2 has real eigenvalues +1 and -1 with definite 1-dim Grams.
        form = perplectic_form(1)
        with pytest.raises(NotStructuredDiagonalizable) as err:
            construct(form.matrix, form)
        assert err.value.report is not None
        assert not err.value.report.decision

    @pytest.mark.parametrize("kind,formf", [
        ("skew-hamiltonian", symplectic_form),
        ("hamiltonian", symplectic_form),
        ("per-hermitian", perplectic_form),
        ("perskew-hermitian", perplectic_form),
    ])
    def test_planted_round_trip(self, kind, formf):
        n = 3
        inst = random_structured_diagonalizable(kind, n, 17)
        form = formf(n)
        d = structured_diagonalize(inst.matrix, form)
        assert d.residual_automorphism <= 1e-8
        assert d.residual_similarity <= 1e-8
        assert eigenvalues_match(d.full_diagonal, inst.full_diagonal, 1e-8)

    def test_canonical_pattern_shapes(self):
        n = 2
        core = np.array([1 + 2j, 3 - 1j])
        d = assemble_core_diagonal(core, symplectic_form(n).tag,
                                   Variant.SELFADJOINT)
        assert np.array_equal(d[n:], np.conj(core))
        d = assemble_core_diagonal(core, symplectic_form(n).tag,
                                   Variant.SKEWADJOINT)
        assert np.array_equal(d[n:], -np.conj(core))
        d = assemble_core_diagonal(core, perplectic_form(n).tag,
                                   Variant.SELFADJOINT)
        assert np.array_equal(d[n:], np.conj(core)[::-1])
        d = assemble_core_diagonal(core, perplectic_form(n).tag,
                                   Variant.SKEWADJOINT)
        assert np.array_equal(d[n:], -np.conj(core)[::-1])

    def test_critical_eigenvalues_have_even_multiplicity(self):
        inst = random_structured_diagonalizable("skew-hamiltonian", 4, 3,
                                                critical_share=0.9)
        form = symplectic_form(4)
        report = diagonalizability_report(inst.matrix, form)
        assert report.decision
        assert report.per_eigenvalue  # critical values were planted
        for entry in report.per_eigenvalue:
            assert entry.multiplicity % 2 == 0

    @given(st.integers(0, 10**5))
    @settings(max_examples=10, deadline=None)
    def test_skewadjoint_reduction_consistency(self, seed):
        # Cores of A (skewadjoint) and iA (selfadjoint) differ by i.
        n = 2
        form = symplectic_form(n)
        inst = random_structured_diagonalizable("hamiltonian", n, seed)
        d_skew = structured_diagonalize(inst.matrix, form)
        d_self = structured_diagonalize(1j * inst.matrix, form)
        assert eigenvalues_match(d_skew.core, -1j * d_self.core, 1e-8)

    def test_skew_block_instance_diagonalizes(self):
        m = skew_block_instance(2, seed=8)
        form = symplectic_form(2)
        d = structured_diagonalize(m, form)
        assert d.residual_automorphism <= 1e-8
        assert d.residual_similarity <= 1e-8
        # Skew-Hermitian input: purely imaginary spectrum.
        assert np.max(np.abs(d.full_diagonal.real)) <= 1e-8

    @staticmethod
    def _near_normal(kind, gap, size):
        """A = Q (D~ + N) Q^H with N = E +/- E* (E = size e_0 e_1^T), so N
        is structured and strictly triangular within each diagonal block,
        and two core values gap apart: A's eigenvectors are ~size/gap from
        orthogonal."""
        n = 4
        inst = random_structured_diagonalizable(kind, n, 5)
        form = form_for_kind(kind, n)
        variant = variant_for_kind(kind)
        core = inst.core.copy()
        core[1] = core[0] + gap
        e = np.zeros((2 * n, 2 * n), dtype=complex)
        e[0, 1] = size
        sign = 1 if variant is Variant.SELFADJOINT else -1
        nil = e + sign * np.linalg.solve(form.matrix,
                                         herm_transpose(e) @ form.matrix)
        full = assemble_core_diagonal(core, form.tag, variant)
        q = inst.transform
        return q @ (np.diag(full) + nil) @ herm_transpose(q), form

    @pytest.mark.parametrize("kind", ["skew-hamiltonian", "hamiltonian",
                                      "per-hermitian", "perskew-hermitian"])
    def test_near_normal_input_keeps_its_eigenvectors(self, kind):
        # size 5e-8, gap 1e-3: A counts as normal at the default tolerance
        # (commutator residual ~1e-11), yet its eigenvectors are
        # ~N/gap = 5e-5 from orthogonal. The automorphism keeps them; a
        # step towards the unitary polar factor would cost the similarity
        # ~N/2 = 2.5e-8. No unitary automorphism diagonalizes A within
        # the guarantee.
        a, form = self._near_normal(kind, 1e-3, 5e-8)
        assert classify(a, form).euclidean_normal.ok
        d = structured_diagonalize(a, form)
        assert d.residual_automorphism <= 1e-12
        assert d.residual_similarity <= 1e-12
        with pytest.raises(NumericalBreakdown):
            unitary_refine(a, form)

    @pytest.mark.parametrize("kind", ["skew-hamiltonian", "hamiltonian",
                                      "per-hermitian", "perskew-hermitian"])
    @pytest.mark.parametrize("gap", [1e-3, 1e-6])
    @pytest.mark.parametrize("size", np.logspace(-15, -8, 8).tolist())
    def test_near_normal_sweep_certifies(self, kind, gap, size):
        # eigen's Hermitian route must not keep M's orthonormal
        # eigenvectors, which lie ~size/gap off A's: its first-order
        # correction (or the fallback to eig) recovers them, so every
        # constructor certifies as it does with eig alone. Accepting the
        # route on a small off-diagonal Q^H A Q instead fails here.
        a, form = self._near_normal(kind, gap, size)
        structured_diagonalize(a, form)
        if gap == 1e-3:
            unitary_refine(a, form)
            decompose_additive(a, form)


def test_certify_rejects_a_non_finite_transform():
    # NaN compares false against every bound, so it must fail, not pass.
    s = np.eye(4, dtype=complex)
    s[0, 0] = np.nan
    with pytest.raises(NumericalBreakdown):
        certify(np.eye(4, dtype=complex), s, np.ones(2), symplectic_form(2),
                Variant.SELFADJOINT)


class TestUnitaryRefine:
    def test_identity_admits_unitary(self):
        form = symplectic_form(2)
        d = unitary_refine(np.eye(4, dtype=complex), form)
        assert d.unitary
        assert d.residual_automorphism <= 1e-8

    @pytest.mark.parametrize("kind,formf", [
        ("skew-hamiltonian", symplectic_form),
        ("per-hermitian", perplectic_form),
    ])
    def test_recovers_unitary_transform(self, kind, formf):
        n = 3
        inst = random_structured_diagonalizable(kind, n, 23)
        form = formf(n)
        d = unitary_refine(inst.matrix, form)
        q = d.transform
        eye = np.eye(2 * n)
        assert rel_residual(herm_transpose(q) @ q, eye) <= 1e-8
        assert rel_residual(herm_transpose(q) @ form.matrix @ q,
                            form.matrix) <= 1e-8
        assert rel_residual(herm_transpose(q) @ inst.matrix @ q,
                            d.diagonal_matrix) <= 1e-8

    @pytest.mark.parametrize("kind,formf", [
        ("skew-hamiltonian", symplectic_form),
        ("hamiltonian", symplectic_form),
        ("per-hermitian", perplectic_form),
        ("perskew-hermitian", perplectic_form),
    ])
    def test_core_equals_structured_core(self, kind, formf):
        n = 4
        inst = random_structured_diagonalizable(kind, n, 31,
                                                critical_share=0.5)
        form = formf(n)
        unitary = unitary_refine(inst.matrix, form)
        structured = structured_diagonalize(inst.matrix, form)
        # One construction: unitary_refine adds only one Newton-Schulz
        # step on the frame X = S0[:, :n], routes [X, B^T X] and certifies
        # unitarity too.
        assert np.array_equal(unitary.core, structured.core)
        x = structured.transform[:, :n]
        step = 1.5 * x - 0.5 * x @ (herm_transpose(x) @ x)
        assert np.array_equal(unitary.transform, _with_partners(step, form))

    def test_non_normal_rejected(self):
        # Skew-Hamiltonian but not Euclidean-normal.
        n = 2
        a1 = gaussian_matrix(n, n, 51)
        a = np.block([[a1, np.zeros((n, n))],
                      [np.zeros((n, n)), herm_transpose(a1)]])
        form = symplectic_form(n)
        with pytest.raises(NotNormal):
            unitary_refine(a, form)


class TestCompleteToLagrangian:
    @pytest.mark.parametrize("formf", [symplectic_form, perplectic_form])
    def test_from_empty(self, formf):
        form = formf(3)
        v = complete_to_lagrangian(None, form)
        assert v.shape == (6, 3)
        assert fro(gram(v, form)) <= 1e-9
        assert fro(herm_transpose(v) @ v - np.eye(3)) <= 1e-9

    def test_fixed_point(self):
        form = symplectic_form(3)
        v = np.eye(6, dtype=complex)[:, :3]
        out = complete_to_lagrangian(v, form)
        assert np.array_equal(out, v)

    def test_single_vector_under_j4(self):
        form = symplectic_form(2)
        v = np.eye(4, dtype=complex)[:, :1]
        out = complete_to_lagrangian(v, form)
        assert out.shape == (4, 2)
        assert np.array_equal(out[:, :1], v)
        assert fro(gram(out, form)) <= 1e-9
        assert fro(herm_transpose(out) @ out - np.eye(2)) <= 1e-9

    def test_too_many_columns_rejected(self):
        form = symplectic_form(2)
        v = np.eye(4, dtype=complex)[:, :3]
        with pytest.raises(FrameTooLarge):
            complete_to_lagrangian(v, form)

    def test_non_neutral_rejected(self):
        form = symplectic_form(2)
        v = np.eye(4, dtype=complex)[:, [0, 2]]
        with pytest.raises(NotNeutral):
            complete_to_lagrangian(v, form)

    def test_nan_frame_rejected(self):
        v = np.full((4, 1), np.nan, dtype=complex)
        with pytest.raises(NotNeutral):
            complete_to_lagrangian(v, symplectic_form(2))

    @given(st.integers(0, 10**5), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_always_produces_lagrangian(self, seed, k):
        for formf in (symplectic_form, perplectic_form):
            form = formf(3)
            v = random_lagrangian_frame(form, seed)[:, :k]
            out = complete_to_lagrangian(v, form)
            assert out.shape == (6, 3)
            assert np.array_equal(out[:, :k], v)
            assert fro(gram(out, form)) <= 1e-9
            assert fro(herm_transpose(out) @ out - np.eye(3)) <= 1e-9


def test_normal_input_with_two_values_at_one_mu():
    # A = sum lambda x x^H + conj(lambda) (R x)(R x)^H over
    # x = (e_1 +/- e_2)/sqrt 2 is normal and per-Hermitian, and
    # lambda_2 = lambda_1 - c + i shares mu = Re lambda + c Im lambda with
    # lambda_1, c the irrational of spectral.eigen's Hermitian
    # combination: eigen must not read the two as their mean, which made
    # every entry point raise NotDiagonalizable.
    form = perplectic_form(2)
    c = -2.0 * _MIX.imag
    first = 1.0 + 0.5j
    e = np.eye(4, dtype=complex)
    a = np.zeros((4, 4), dtype=complex)
    for value, x in ((first, (e[0] + e[1]) / np.sqrt(2.0)),
                     (first - c + 1j, (e[0] - e[1]) / np.sqrt(2.0))):
        rx = form.matrix @ x
        a += (value * np.outer(x, x.conj())
              + np.conj(value) * np.outer(rx, rx.conj()))
    assert classify(a, form).euclidean_normal.ok
    assert diagonalizability_report(a, form).decision
    for entry in (structured_diagonalize, unitary_refine):
        diag = entry(a, form)
        assert max(diag.residual_automorphism,
                   diag.residual_similarity) <= FACTOR_GUARANTEE
    assert decompose_additive(a, form).residuals.worst <= FACTOR_GUARANTEE


@pytest.mark.parametrize("entry", [diagonalizability_report,
                                   structured_diagonalize, unitary_refine,
                                   decompose_additive])
def test_near_normal_defective_is_not_diagonalizable(entry):
    # Passing the normality check does not make the input diagonalizable,
    # so normal input does not skip the defectiveness test.
    a, form = near_normal_defective(), symplectic_form(2)
    assert classify(a, form).euclidean_normal.ok
    with pytest.raises(NotDiagonalizable):
        entry(a, form)


_KIND_FORMS = [
    ("skew-hamiltonian", symplectic_form),
    ("hamiltonian", symplectic_form),
    ("per-hermitian", perplectic_form),
    ("perskew-hermitian", perplectic_form),
]


def structured_square_root(a, form):
    return structured_root(a, 2, form)


# Every public entry point that exists only for the J and R forms, as a
# call on a 4 x 4 form: on a normal (Hermitian) and a non-normal matrix
# for those that take one, on N = 0 for the reconstruction.
_ZERO = np.zeros((4, 4), dtype=complex)
_J_OR_R_ONLY = {
    **{f"{entry.__name__}-{name}": (lambda form, a=a, entry=entry:
                                    entry(a, form))
       for entry in (diagonalizability_report, structured_diagonalize,
                     unitary_refine, decompose_additive,
                     structured_square_root)
       for name, a in (("hermitian", gaussian_matrix(4, 4, 5)
                        + gaussian_matrix(4, 4, 5).conj().T),
                       ("general", gaussian_matrix(4, 4, 6)))},
    "reconstruct_from_normal_factor": lambda form: (
        reconstruct_from_normal_factor(_ZERO, Sign.PLUS, form)),
    "structured_exp": lambda form: structured_exp(
        AdditiveDecomposition(_ZERO, Sign.MINUS, form.tag), form),
    "complete_to_lagrangian": lambda form: complete_to_lagrangian(None, form),
    "build_unitary_automorphism": lambda form: build_unitary_automorphism(
        np.eye(4, dtype=complex)[:, :2], form),
    "random_lagrangian_frame": lambda form: random_lagrangian_frame(form, 3),
    "assemble_core_diagonal": lambda form: assemble_core_diagonal(
        np.ones(2), form.tag, Variant.SELFADJOINT),
}


class TestOneSpectralPass:
    """Each entry point runs no full classify (it checks only the flags it
    reads), eigendecomposes once, clusters and pairs once, solves with
    neither J nor R and runs one stacked (g x 2n x k) SVD per size k of
    its g multi-member eigenvalue groups, which gives both their rank
    tests and their orthonormal bases, and, its conjugate pairs being
    simple here, no other SVD and no QR. Each counted call starts on a
    cold plan slot (TestPlanMemo covers the warm one). The one
    eigendecomposition is one 2n x 2n eigh of a Hermitian
    combination of A and A^H for normal A, with no eig; a non-normal A
    takes that eigh and one eig. Every entry point factors the critical
    eigenspace Grams with one stacked (smaller) eigh per multiplicity,
    shared by the balance test and the pairing, runs no eigvalsh, Schur
    or null_space and never reaches congruence_to or sylvester_canonical.
    structured_root counts over the selfadjoint kinds, the only ones it
    accepts. reconstruct_from_normal_factor factors N with one eigen."""

    @staticmethod
    def _count(monkeypatch, form):
        counts = {"eigen": 0, "eig": 0, "eigvalsh": 0, "qr": 0,
                  "null_space": 0, "classify": 0, "cluster": 0, "pair": 0,
                  "congruence": 0, "sylvester": 0, "lu_on_form": 0,
                  "eigh_shapes": [], "svd_shapes": [], "schur_shapes": []}

        def counted(key, fn, on_form=False):
            def wrapper(*args, **kwargs):
                counts[key] += (np.array_equal(args[0], form.matrix)
                                if on_form else 1)
                return fn(*args, **kwargs)
            return wrapper

        def shaped(key, fn):
            def wrapper(*args, **kwargs):
                counts[key].append(np.shape(args[0]))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eig",
                            counted("eig", np.linalg.eig))
        monkeypatch.setattr(np.linalg, "eigh",
                            shaped("eigh_shapes", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        monkeypatch.setattr(np.linalg, "svd",
                            shaped("svd_shapes", np.linalg.svd))
        monkeypatch.setattr(scipy.linalg, "schur",
                            shaped("schur_shapes", scipy.linalg.schur))
        monkeypatch.setattr(scipy.linalg, "null_space",
                            counted("null_space", scipy.linalg.null_space))
        monkeypatch.setattr(scipy.linalg, "lu_factor",
                            counted("lu_on_form", scipy.linalg.lu_factor,
                                    on_form=True))
        # Modules import these by name: patch every reference.
        for key, fn in (("eigen", eigen), ("classify", classify),
                        ("cluster", _cluster_indices),
                        ("pair", pair_conjugates),
                        ("congruence", congruence_to),
                        ("sylvester", sylvester_canonical)):
            wrapper = counted(key, fn)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "structdiag":
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, attr, wrapper)
        return counts

    @pytest.mark.parametrize("kind,formf,entry", [
        (kind, formf, entry) for kind, formf in _KIND_FORMS
        for entry in (diagonalizability_report, structured_diagonalize,
                      unitary_refine, decompose_additive)
    ] + [(kind, formf, structured_square_root)
         for kind, formf in _KIND_FORMS[::2]])
    def test_counts(self, monkeypatch, entry, kind, formf):
        inst = random_structured_diagonalizable(kind, 8, 41,
                                                critical_share=0.5)
        self._assert_counts(monkeypatch, entry, inst.matrix, formf(8),
                            eig=0)

    @pytest.mark.parametrize("kind,formf", _KIND_FORMS[:2])
    @pytest.mark.parametrize("entry", [diagonalizability_report,
                                       structured_diagonalize])
    def test_non_normal_counts(self, monkeypatch, entry, kind, formf):
        # A = S D~ S^{-1} with a shear automorphism S: diagonalizable, not
        # normal, so eigen falls back to one eig.
        inst = random_structured_diagonalizable(kind, 8, 41,
                                                critical_share=0.5)
        form = formf(8)
        s = TestConditioning._shear(form, 10.0, 41) @ inst.transform
        a = s @ np.diag(inst.full_diagonal) @ np.linalg.inv(s)
        assert not classify(a, form).euclidean_normal.ok
        self._assert_counts(monkeypatch, entry, a, form, eig=1)

    def _assert_counts(self, monkeypatch, entry, a, form, eig):
        multi = [k for k in group_eigenvalues(eigen(a)).sizes.tolist()
                 if k > 1]
        critical = [e.multiplicity for e in
                    diagonalizability_report(a, form).per_eigenvalue]
        # Several groups of one size, so that a stack holds more than one.
        assert len(multi) > len(set(multi))
        assert len(critical) > len(set(critical))
        monkeypatch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        counts = self._count(monkeypatch, form)
        entry(a, form)
        shapes = counts.pop("svd_shapes")
        eigh_shapes = counts.pop("eigh_shapes")
        assert counts == {"eigen": 1, "eig": eig, "eigvalsh": 0, "qr": 0,
                          "null_space": 0, "classify": 0, "cluster": 1,
                          "pair": 1, "congruence": 0, "sylvester": 0,
                          "lu_on_form": 0, "schur_shapes": []}
        assert eigh_shapes[0] == (16, 16)
        assert sorted(eigh_shapes[1:]) == sorted(
            (groups, m, m) for m, groups in Counter(critical).items())
        assert sorted(shapes) == sorted(
            (groups, 16, k) for k, groups in Counter(multi).items())

    # What reconstruct_from_normal_factor runs on a rank-5 factor at
    # 2n = 16: one eigen of the n x n half block P (its one n x n eigh)
    # gives the rank and a basis of the range, one eigen of the 5 x 5
    # Rayleigh-Ritz matrix, nearly diagonal in that basis (no eigh), the
    # eigenbasis on it, with no 2n x 2n eigh or eig, SVD or Schur, and
    # the graph completion's one stacked QR of two n x 5 matrices
    # replaces null_space.
    _RECONSTRUCT_COUNTS = {"eigen": 2, "eig": 0, "eigvalsh": 0, "qr": 1,
                           "null_space": 0, "classify": 0, "cluster": 0,
                           "pair": 0, "congruence": 0, "sylvester": 0,
                           "lu_on_form": 0,
                           "eigh_shapes": [(8, 8)],
                           "svd_shapes": [], "schur_shapes": []}

    @staticmethod
    def _rank5_factor(kind, formf):
        inst = random_structured_diagonalizable(kind, 8, 41)
        form = formf(8)
        diag = unitary_refine(inst.matrix, form)
        v, core = diag.transform[:, :8], diag.core.copy()
        core[:3] = 0.0
        n_mat = v @ np.diag(core) @ herm_transpose(v)
        sign = (Sign.PLUS if variant_for_kind(kind) is Variant.SELFADJOINT
                else Sign.MINUS)
        return n_mat, sign, form

    @pytest.mark.parametrize("kind,formf", _KIND_FORMS)
    def test_reconstruct_counts(self, monkeypatch, kind, formf):
        # The completion's one stacked complete QR is of the n x 5
        # coordinates U+^H V0 and U-^H V0 of the range's eigenbasis V0: no
        # QR has more than n rows.
        n_mat, sign, form = self._rank5_factor(kind, formf)
        counts = self._count(monkeypatch, form)
        qr_shapes, counted_qr = [], np.linalg.qr

        def shaped_qr(x, *args, **kwargs):
            qr_shapes.append(np.shape(x))
            return counted_qr(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", shaped_qr)
        reconstruct_from_normal_factor(n_mat, sign, form)
        assert qr_shapes == [(2, 8, 5)]
        assert counts == self._RECONSTRUCT_COUNTS

    @pytest.mark.parametrize("kind,formf", _KIND_FORMS)
    def test_structured_exp_counts(self, monkeypatch, kind, formf):
        # A decomposition that carries its factor takes exp through it with
        # no factorization; a hand-built one certifies its factor through
        # reconstruct_from_normal_factor and runs exactly what that runs.
        inst = random_structured_diagonalizable(kind, 8, 41)
        form = formf(8)
        dec = decompose_additive(inst.matrix, form)
        n_mat, sign, _ = self._rank5_factor(kind, formf)
        counts = self._count(monkeypatch, form)
        idle = {key: type(value)() for key, value in counts.items()}
        structured_exp(dec, form)
        assert counts == idle
        structured_exp(AdditiveDecomposition(n_mat, sign, form.tag), form)
        assert counts == self._RECONSTRUCT_COUNTS

    @pytest.mark.parametrize("name", sorted(_J_OR_R_ONLY))
    def test_euclidean_form_is_rejected_before_any_factorization(
            self, monkeypatch, name):
        # One error, the form's, before every other test of the input
        # (normality included) and before any factorization.
        form = euclidean_form(4)
        monkeypatch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        counts = self._count(monkeypatch, form)
        with pytest.raises(NotStructured) as err:
            _J_OR_R_ONLY[name](form)
        assert str(err.value) == ("the J or R form is required, not the "
                                  "euclidean form")
        assert (counts["eigen"], counts["eig"], counts["qr"],
                counts["eigh_shapes"], counts["svd_shapes"]) == (
                    0, 0, 0, [], [])


_ENTRY_POINTS = [diagonalizability_report, structured_diagonalize,
                 unitary_refine, decompose_additive]


class TestPlanMemo:
    """The one record slot: calls on the same A back to back form A*, the
    normality products, the spectral plan, S0, the unitary factor and each
    certificate once, while other bytes or another form start a new
    record and another variant builds a new plan. Every call judges the
    stored residuals at its own tolerance, so a hit raises and returns
    what a call on a cold slot does, and it returns its own copies."""

    @staticmethod
    def _instance(kind="hamiltonian"):
        inst = random_structured_diagonalizable(kind, 8, 41,
                                                critical_share=0.5)
        return inst.matrix, form_for_kind(kind, 8)

    @staticmethod
    def _builds(counts):
        return counts["eigen"], counts["cluster"], counts["pair"]

    @pytest.mark.parametrize("kind,formf", _KIND_FORMS)
    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_second_call_builds_nothing(self, monkeypatch, entry, kind,
                                        formf):
        a, form = self._instance(kind)
        diagonalizability_report(a, form)
        counts = TestOneSpectralPass._count(monkeypatch, form)
        entry(a, form)
        assert self._builds(counts) == (0, 0, 0)

    # Each returns the first call's arguments and a function that gives
    # the second call's, run after the first call.
    @staticmethod
    def _entry_changed_in_place():
        a, form = TestPlanMemo._instance()

        def change():
            a[0, 0] = np.nextafter(a[0, 0].real, np.inf) + 1j * a[0, 0].imag
            return a, form, DEFAULT_TOL
        return (a, form, DEFAULT_TOL), change

    @staticmethod
    def _other_form():
        # Real diag(d, d) with palindromic d is selfadjoint for J and R.
        a = np.diag([1.0, 2.0, 2.0, 1.0] * 2).astype(complex)
        return (a, symplectic_form(4), DEFAULT_TOL), \
            lambda: (a, perplectic_form(4), DEFAULT_TOL)

    @staticmethod
    def _other_variant():
        # A normal Hamiltonian with spectrum {i, i, -i, -i} and balanced
        # eigenspace Grams. Relative residuals give r_self + r_skew >= 2
        # for any nonzero A; here r_self = 2 and r_skew ~ eps, so a
        # tolerance between the two reads it as skewadjoint, and one above
        # both as selfadjoint: i and -i then form a conjugate pair and no
        # group is critical, so the plan is balanced, but their cross Gram
        # vanishes, so that reading's S0 misses the guarantee and its
        # report raises as its construction does.
        form = symplectic_form(2)
        q = random_automorphism(form, 2, 0)
        a = q @ np.diag([1j, -1j, 1j, -1j]) @ herm_transpose(q)
        cls = classify(a, form)
        r_self, r_skew = cls.selfadjoint.residual, cls.skewadjoint.residual
        assert r_skew < 1e-15 < r_self
        return (a, form, TolerancePolicy(2 * r_self)), \
            lambda: (a, form, TolerancePolicy(np.sqrt(r_self * r_skew)))

    @pytest.mark.parametrize("pair", ["entry_changed_in_place", "other_form",
                                      "other_variant"])
    def test_other_input_builds_again(self, monkeypatch, pair):
        first, change = getattr(self, f"_{pair}")()
        if pair == "other_variant":
            with pytest.raises(NumericalBreakdown):
                diagonalizability_report(*first)
        else:
            assert diagonalizability_report(*first).decision
        held = diagonalize_module._PLAN_SLOT.plan
        second = change()
        counts = TestOneSpectralPass._count(monkeypatch, second[1])
        rebuilt = diagonalizability_report(*second)
        assert self._builds(counts) == (1, 1, 1)
        assert rebuilt.decision
        if pair == "other_variant":
            assert (held.variant, rebuilt.variant) == (
                Variant.SELFADJOINT, Variant.SKEWADJOINT)
        monkeypatch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        assert diagonalizability_report(*second) == rebuilt

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_tight_tolerance_raises_on_a_held_plan(self, monkeypatch, entry):
        # A real shift keeps A normal and moves it off the Hamiltonian
        # class by a residual the default tolerance accepts.
        a, form = self._instance()
        a = a + 1e-12 * np.eye(16)
        diagonalizability_report(a, form)
        cls = classify(a, form)
        held = diagonalize_module._PLAN_SLOT
        assert held is not None and held.plan is not None
        tight = TolerancePolicy(cls.skewadjoint.residual / 2)
        assert cls.euclidean_normal.residual < tight.structure_tol
        with pytest.raises(NotStructured) as hit:
            entry(a, form, tight)
        assert diagonalize_module._PLAN_SLOT is held
        monkeypatch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        with pytest.raises(NotStructured) as cold:
            entry(a, form, tight)
        assert str(hit.value) == str(cold.value)

    @pytest.mark.parametrize("entry", [unitary_refine, decompose_additive])
    def test_tight_tolerance_raises_not_normal_on_a_held_record(
            self, monkeypatch, entry):
        a, form = self._instance()
        unitary_refine(a, form)
        held = diagonalize_module._PLAN_SLOT
        assert held.normal > 0.0 and held.plan.factors
        tight = TolerancePolicy(held.normal / 2)
        with pytest.raises(NotNormal) as hit:
            entry(a, form, tight)
        assert diagonalize_module._PLAN_SLOT is held
        monkeypatch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        with pytest.raises(NotNormal) as cold:
            entry(a, form, tight)
        assert str(hit.value) == str(cold.value)

    @pytest.mark.parametrize("kind,formf", _KIND_FORMS)
    def test_chain_measures_the_input_once(self, monkeypatch, kind, formf):
        # classify, a report, both constructions and the decomposition
        # form A* and A^H A, A A^H once, build the unitary factor once and
        # certify S0 (in full) and the unitary factor (from its frame)
        # once each.
        a, form = self._instance(kind)
        calls = {"adjoint of A": 0, "normality of A": 0, "unitary factor": 0,
                 "certificate": 0, "frame certificate": 0}

        def counted(key, fn, of_a):
            def wrapper(x, *args, **kwargs):
                calls[key] += np.array_equal(x, a) if of_a else 1
                return fn(*(x,) + args, **kwargs)
            return wrapper

        for key, fn, of_a in (
                ("adjoint of A", diagonalize_module.adjoint, True),
                ("normality of A", diagonalize_module._normal_check, True),
                ("unitary factor", diagonalize_module._unitary_factor,
                 False),
                ("certificate", diagonalize_module.factor_residuals, False),
                ("frame certificate", diagonalize_module._frame_certificate,
                 False)):
            wrapper = counted(key, fn, of_a)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "structdiag":
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, attr, wrapper)
        monkeypatch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        for entry in [classify] + _ENTRY_POINTS:
            entry(a, form)
        assert calls == {"adjoint of A": 1, "normality of A": 1,
                         "unitary factor": 1, "certificate": 1,
                         "frame certificate": 1}

    @pytest.mark.parametrize("entry", [structured_diagonalize,
                                       unitary_refine])
    def test_writes_into_returned_arrays_stay_the_callers(self, monkeypatch,
                                                          entry):
        a, form = self._instance()
        first = entry(a, form)
        first.transform[:] = 0.0
        first.core[:] = 0.0
        hit = pickle.dumps(entry(a, form))
        monkeypatch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        assert pickle.dumps(entry(a, form)) == hit

    def test_variant_flip_keeps_the_residuals(self, monkeypatch):
        first, change = self._other_variant()
        # The selfadjoint reading raises, and its record is stored.
        with pytest.raises(NumericalBreakdown):
            diagonalizability_report(*first)
        held = diagonalize_module._PLAN_SLOT
        second = change()
        counts = TestOneSpectralPass._count(monkeypatch, second[1])
        diagonalizability_report(*second)
        record = diagonalize_module._PLAN_SLOT
        assert self._builds(counts) == (1, 1, 1)
        assert record.a_star is held.a_star
        assert (record.selfadjoint, record.skewadjoint, record.normal) == (
            held.selfadjoint, held.skewadjoint, held.normal)
        assert (held.plan.variant, record.plan.variant) == (
            Variant.SELFADJOINT, Variant.SKEWADJOINT)

    def test_a_call_that_raises_stores_nothing(self):
        a, form = self._instance()
        diagonalizability_report(a, form)
        held = diagonalize_module._PLAN_SLOT
        with pytest.raises(NotDiagonalizable):
            diagonalizability_report(near_normal_defective(),
                                     symplectic_form(2))
        assert diagonalize_module._PLAN_SLOT is held

    @pytest.mark.parametrize("kind,formf", _KIND_FORMS)
    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_hit_returns_what_a_cold_call_returns(self, monkeypatch, entry,
                                                  kind, formf):
        a, form = self._instance(kind)
        diagonalizability_report(a, form)
        hit = pickle.dumps(entry(a, form))
        monkeypatch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        assert pickle.dumps(entry(a, form)) == hit

    def test_plan_is_read_only(self):
        a, form = self._instance()
        diagonalizability_report(a, form)
        plan = diagonalize_module._PLAN_SLOT.plan
        diagonalizability_report(a, form)
        assert diagonalize_module._PLAN_SLOT.plan is plan
        arrays = ([getattr(plan.groups, f.name)
                   for f in dataclasses.fields(plan.groups)]
                  + [plan.pairing.pairs, plan.pairing.selfconjugate]
                  + [u for u, _ in plan.critical.values()]
                  + [plan.core, plan.factors[False].transform])
        assert plan.critical and len(plan.pairing.pairs)
        for array in arrays:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0


class TestPlanTransform:
    """A balanced plan carries its certified S0: the call that builds the
    plan, a report included, routes and certifies it, later calls on the
    same plan copy it (or the unitary factor built from its frame once),
    and no caller's array aliases it."""

    @staticmethod
    def _count_routes(monkeypatch):
        routes = []
        route = diagonalize_module._route

        def counted(plan, form):
            routes.append(plan)
            return route(plan, form)
        monkeypatch.setattr(diagonalize_module, "_route", counted)
        monkeypatch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        return routes

    @staticmethod
    def _slot_plan():
        return diagonalize_module._PLAN_SLOT.plan

    @pytest.mark.parametrize("kind,formf", _KIND_FORMS)
    def test_chain_routes_once(self, monkeypatch, kind, formf):
        a, form = TestPlanMemo._instance(kind)
        routes = self._count_routes(monkeypatch)
        diagonalizability_report(a, form)
        structured_diagonalize(a, form)
        unitary_refine(a, form)
        decompose_additive(a, form)
        assert len(routes) == 1
        plan = self._slot_plan()
        for array in (plan.factors[False].transform,
                      plan.factors[True].transform, plan.core):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_report_alone_routes_and_certifies_once(self, monkeypatch):
        a, form = TestPlanMemo._instance()
        routes = self._count_routes(monkeypatch)
        first = diagonalizability_report(a, form)
        assert diagonalizability_report(a, form) == first
        assert first.decision and len(routes) == 1
        # S0 alone: the unitary factor waits for a unitary call.
        plan = self._slot_plan()
        assert list(plan.factors) == [False] and plan.core is not None

    def test_unbalanced_input_stores_no_transform(self, monkeypatch):
        a, form = counterexample_unbalanced(3, 5), symplectic_form(3)
        routes = self._count_routes(monkeypatch)
        assert not diagonalizability_report(a, form).decision
        for entry in (structured_diagonalize, unitary_refine):
            with pytest.raises(NotStructuredDiagonalizable):
                entry(a, form)
        assert not routes
        assert not self._slot_plan().factors
        assert self._slot_plan().core is None

    def test_returned_factors_are_the_callers(self, monkeypatch):
        a, form = TestPlanMemo._instance()
        first = structured_diagonalize(a, form)
        first.transform[:] = 0.0
        first.core[:] = 0.0
        warm = [pickle.dumps(entry(a, form)) for entry in
                (structured_diagonalize, unitary_refine, decompose_additive)]
        monkeypatch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        cold = [pickle.dumps(entry(a, form)) for entry in
                (structured_diagonalize, unitary_refine, decompose_additive)]
        assert warm == cold

    def test_variant_flip_routes_again(self, monkeypatch):
        first, change = TestPlanMemo._other_variant()
        routes = self._count_routes(monkeypatch)
        with pytest.raises(NumericalBreakdown):
            structured_diagonalize(*first)
        second = change()
        skewadjoint = structured_diagonalize(*second)
        assert [plan.variant for plan in routes] == [Variant.SELFADJOINT,
                                                     Variant.SKEWADJOINT]
        assert skewadjoint.variant is Variant.SKEWADJOINT
        monkeypatch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        assert pickle.dumps(structured_diagonalize(*second)) == \
            pickle.dumps(skewadjoint)


class TestCertificate:
    """factor_residuals reads S^{-1} off the form adjoint, through
    S* A S - D - E D = (I + E)(S^{-1} A S - D), and agrees with an LU
    solve of S^{-1} A S where S is certifiable, for a given diagonal and
    for S^{-1} A S's own."""

    @staticmethod
    def _assert_matches_lu(a, s, form, diagonal):
        new = factor_residuals(a, s, form, diagonal)[1]
        reference = rel_residual(solve_linear(s, a @ s), np.diag(diagonal))
        assert abs(new - reference) <= 1e-12, (new, reference)
        # verify --mode diag's path: no diagonal given, so the certificate
        # takes X = S^{-1} A S's own, and the reference is X off its
        # diagonal.
        new = factor_residuals(a, s, form)[1]
        x = np.linalg.solve(s, a @ s)
        reference = rel_residual(x, np.diag(np.diag(x)))
        assert abs(new - reference) <= 1e-12, (new, reference)

    @pytest.mark.parametrize("t", [10.0, 1e2, 1e3])
    def test_conditioning_draw_matches_lu(self, t):
        # The planted S and, where it certifies, the built one.
        for seed in range(12):
            kind = _KIND_FORMS[seed % 4][0]
            inst = random_structured_diagonalizable(kind, 8, seed,
                                                    critical_share=0.5)
            form = form_for_kind(kind, 8)
            s = TestConditioning._shear(form, t, seed) @ inst.transform
            full = assemble_core_diagonal(inst.core, form.tag,
                                          variant_for_kind(kind))
            a = s @ np.diag(full) @ np.linalg.inv(s)
            self._assert_matches_lu(a, s, form, full)
            try:
                d = structured_diagonalize(a, form)
            except StructDiagError:
                continue
            self._assert_matches_lu(a, d.transform, form, d.full_diagonal)

    @pytest.mark.parametrize("kind", ["skew-hamiltonian", "hamiltonian",
                                      "per-hermitian", "perskew-hermitian"])
    @pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-6, 1e-7])
    def test_near_normal_family_matches_lu(self, kind, gap):
        for size in np.logspace(-15, -7, 9):
            a, form = TestStructuredDiagonalize._near_normal(kind, gap, size)
            for entry in (structured_diagonalize, unitary_refine):
                try:
                    d = entry(a, form)
                except StructDiagError:
                    continue
                self._assert_matches_lu(a, d.transform, form,
                                        d.full_diagonal)

    @pytest.mark.parametrize("kind", ["skew-hamiltonian", "hamiltonian",
                                      "per-hermitian", "perskew-hermitian"])
    def test_both_regimes_bound_an_lu_solve_tightly(self, kind):
        # e on both sides of sqrt(eps): at or below it the certificate
        # takes (I + E)^{-1} Z as Z with slack e, above it forms E Z with
        # slack e^2. Either way the residual bounds the LU one, up to the
        # roundoff of forming S* A S (10 eps absolute, on residuals
        # relative to max(1, ||X||_F)), and is within 1% of it.
        form = form_for_kind(kind, 4)
        sides = set()
        for seed in range(10):
            inst = random_structured_diagonalizable(kind, 4, seed)
            full = inst.full_diagonal
            rng = np.random.default_rng(seed)
            for eps in (1e-12, 1e-10, 1e-8, 1e-6):
                p = gaussian_matrix(8, 8, seed=int(rng.integers(10**6)))
                s = inst.transform @ (np.eye(8) + eps * p / fro(p))
                e = fro(herm_transpose(s) @ form.matrix @ s - form.matrix)
                sides.add(e * e <= np.finfo(float).eps)
                res = factor_residuals(inst.matrix, s, form, full)[1]
                x = np.linalg.solve(s, inst.matrix @ s)
                reference = rel_residual(x, np.diag(full))
                assert (reference - 10 * np.finfo(float).eps <= res
                        <= 1.01 * reference), (eps, res, reference)
        assert sides == {True, False}

    @pytest.mark.parametrize("kind", ["skew-hamiltonian", "hamiltonian",
                                      "per-hermitian", "perskew-hermitian"])
    def test_residual_bounds_that_of_an_lu_solve(self, kind):
        # S off the automorphism group by up to 0.3 in norm: Z - E Z
        # alone misses S^{-1} A S - D by ~e^2 ||Z||, and the bound on it
        # keeps the residual above the LU one; tight when S is close to
        # an automorphism.
        form = form_for_kind(kind, 4)
        for seed in range(10):
            inst = random_structured_diagonalizable(kind, 4, seed)
            full = inst.full_diagonal
            rng = np.random.default_rng(seed)
            for eps in (1e-3, 1e-2, 0.1, 0.3):
                p = gaussian_matrix(8, 8, seed=int(rng.integers(10**6)))
                s = inst.transform @ (np.eye(8) + eps * p / fro(p))
                res = factor_residuals(inst.matrix, s, form, full)[1]
                reference = rel_residual(solve_linear(s, inst.matrix @ s),
                                         np.diag(full))
                assert reference <= res < np.inf
                if eps <= 1e-2:
                    assert res <= 1.01 * reference

    # e = ||S^H B S - B||_F for the frame moved by eps: at or below
    # sqrt(eps) up to 1e-9, above it (and below 1) at 1e-6, past 1 at 0.8.
    _E_SIDE = {0.0: "small", 1e-12: "small", 1e-9: "small", 1e-6: "large",
               0.8: "singular"}

    @pytest.mark.parametrize("kind", ["skew-hamiltonian", "hamiltonian",
                                      "per-hermitian", "perskew-hermitian"])
    @pytest.mark.parametrize("eps", sorted(_E_SIDE))
    def test_frame_certificate_matches_the_full_one(self, kind, eps):
        # S = [X, B^T X] routed, X the planted frame moved by eps in norm:
        # the frame certificate reads off the first n rows of S^H S - I
        # what factor_residuals forms from 2n x 2n products.
        n = 8
        form = form_for_kind(kind, n)
        inst = random_structured_diagonalizable(kind, n, 5,
                                                critical_share=0.5)
        p = gaussian_matrix(2 * n, n, seed=7)
        x = inst.transform[:, :n] + eps * p / fro(p)
        s = _with_partners(x, form)
        full = inst.full_diagonal
        frame = _frame_certificate(inst.matrix, s, form, full).residuals
        reference = factor_residuals(inst.matrix, s, form, full)
        ulp = np.finfo(float).eps
        assert frame[0] == frame[2]
        for res, ref in ((frame[0], reference[0]), (frame[2], reference[2])):
            assert abs(res - ref) <= 4 * ulp * max(1.0, ref), (res, ref)
        e = fro(herm_transpose(s) @ form.matrix @ s - form.matrix)
        side = ("singular" if e >= 1.0 else
                "small" if e * e <= ulp else "large")
        assert side == self._E_SIDE[eps]
        if side == "singular":
            assert frame[1] == reference[1] == np.inf
        else:
            assert abs(frame[1] - reference[1]) <= (1e-12 * reference[1]
                                                    + 4 * ulp)

    @pytest.mark.parametrize("formf", [symplectic_form, perplectic_form])
    def test_singular_transform_is_rejected(self, formf):
        # S^* S = I + E is singular with S, so ||E||_F >= 1 and nothing
        # bounds the similarity: its residual is inf.
        form = formf(2)
        s = np.eye(4, dtype=complex)
        s[:, 3] = s[:, 0]
        res_auto, res_sim, _ = factor_residuals(np.eye(4, dtype=complex), s,
                                                form)
        assert res_auto >= 1e-8
        assert res_sim == np.inf
        with pytest.raises(NumericalBreakdown):
            certify(np.eye(4, dtype=complex), s, np.ones(2), form,
                    Variant.SELFADJOINT)


@pytest.mark.parametrize("entry", [
    diagonalizability_report, structured_diagonalize, unitary_refine,
    decompose_additive, structured_square_root])
@pytest.mark.parametrize("shape", [(6, 6), (4, 3)])
def test_wrong_shape_is_reported_before_structure(entry, shape):
    # A non-normal, unstructured matrix of the wrong shape is a usage
    # mistake (DimensionMismatch, exit 2), not a mathematical negative
    # about the matrix (NotNormal or NotStructured, exit 1).
    a = gaussian_matrix(*shape, seed=71)
    with pytest.raises(DimensionMismatch):
        entry(a, symplectic_form(2))


@pytest.mark.parametrize("kind", ["skew-hamiltonian", "hamiltonian",
                                  "per-hermitian", "perskew-hermitian"])
def test_tight_tolerance_judges_only_the_input(kind):
    # structure_tol judges the input, never a Gram the package builds:
    # just above the input's own classify residuals, every entry point
    # accepts what classify accepts.
    n = 6
    form = form_for_kind(kind, n)
    selfadjoint = variant_for_kind(kind) is Variant.SELFADJOINT
    for seed in range(10):
        a = random_structured_diagonalizable(kind, n, seed,
                                             critical_share=0.5).matrix
        cls = classify(a, form)
        structure = cls.selfadjoint if selfadjoint else cls.skewadjoint
        tol = TolerancePolicy(1.5 * structure.residual)
        tight = classify(a, form, tol)
        assert (tight.selfadjoint if selfadjoint else tight.skewadjoint).ok
        assert diagonalizability_report(a, form, tol).decision, seed
        structured_diagonalize(a, form, tol)
        # unitary_refine also checks normality at the tolerance.
        unitary_refine(a, form, TolerancePolicy(
            1.5 * max(structure.residual, cls.euclidean_normal.residual)))


class TestBalancedPairs:
    """The one pairing of a balanced Gram's negative and positive
    directions behind every critical eigenspace, and the graph completion
    of a neutral frame."""

    @given(st.integers(1, 4), st.booleans(), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_pairs_are_neutral_and_dual(self, m, use_j, seed):
        form = symplectic_form(m) if use_j else perplectic_form(m)
        t = gaussian_matrix(2 * m, 2 * m, seed) + 3 * np.eye(2 * m)
        u, t_inertia = _sylvester(gram(t, form), form.kind)
        assert t_inertia.counts == (m, m, 0)
        x, y = _balanced_pairs(u, form)
        assert x.shape == y.shape == (2 * m, m)
        wx, wy = t @ x, t @ y
        assert fro(gram(wx, form)) <= 1e-10
        assert fro(gram(wy, form)) <= 1e-10
        assert fro(herm_transpose(wx) @ form.matrix @ wy - np.eye(m)) <= 1e-10

        # The graph completion of k < m leading columns of W x,
        # orthonormalized: the m - k columns it appends are orthonormal,
        # neutral and orthogonal to them in both senses.
        k = seed % m
        v = np.linalg.qr(wx)[0][:, :k]
        out = _lagrangian_completion(v, form)
        assert out.shape == (2 * m, m)
        assert np.array_equal(out[:, :k], v)
        new = out[:, k:]
        assert fro(herm_transpose(new) @ new - np.eye(m - k)) <= 1e-12
        assert fro(gram(new, form)) <= 1e-12
        assert fro(herm_transpose(v) @ new) <= 1e-12
        assert fro(herm_transpose(v) @ form.matrix @ new) <= 1e-12


class TestNearCriticalSweep:
    """Normal input, so unitarily structure-diagonalizable, near the
    critical axis and with clusters that single linkage chains together:
    criticality, clustering and defectiveness are decided on one radius,
    and the report agrees with the construction (agreed_report)."""

    @given(kind=st.sampled_from(["skew-hamiltonian", "per-hermitian",
                                 "hamiltonian", "perskew-hermitian"]),
           seed=st.integers(0, 10**4), log_delta=st.floats(-10.0, -4.0),
           sign=st.sampled_from([-1.0, 1.0]), critical=st.sampled_from([2, 4]),
           steps=st.lists(st.floats(0.05, 0.99), max_size=3),
           on_axis=st.booleans(), angle=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_report_and_construction_agree(self, kind, seed, log_delta, sign,
                                           critical, steps, on_axis, angle):
        n = 8
        inst = random_structured_diagonalizable(kind, n, seed,
                                                critical_share=0.0)
        form, variant = form_for_kind(kind, n), variant_for_kind(kind)
        axis = 1.0 if variant is Variant.SELFADJOINT else 1j
        delta = 10.0 ** log_delta
        core = inst.core.copy()
        # One value at distance delta from the critical axis.
        core[0] = axis * complex(np.sqrt(0.09 - delta ** 2), sign * delta)
        # A critical eigenvalue: each core entry on the axis appears twice.
        start = 1 + critical // 2
        core[1:start] = 0.2 * axis
        # A chain of values each within r of the next, on the axis (a
        # critical cluster) or off it (a cluster and its conjugate). The
        # planted values left over fix r; the new ones are all below 1.
        r = cluster_radius(core[start + len(steps) + 1:])
        direction = axis if on_axis else np.exp(1j * angle)
        first = 0.4 * axis if on_axis else axis * complex(0.4, 0.25)
        core[start:start + len(steps) + 1] = first + direction * r * np.cumsum(
            [0.0] + steps)
        full = assemble_core_diagonal(core, form.tag, variant)
        a = inst.transform @ np.diag(full) @ herm_transpose(inst.transform)

        # A typed exit-3 error only for a chain merged into one cluster,
        # whose spread the certificate sees; the near-conjugate pair
        # always certifies, and normal input never reads "no" or
        # NotDiagonalizable.
        report = agreed_report(a, form)
        if isinstance(report, StructDiagError):
            assert isinstance(report, NumericalBreakdown) and steps, report
        else:
            assert report.decision, report.reason
        for construct in (unitary_refine, decompose_additive):
            try:
                construct(a, form)
            except NumericalBreakdown:
                assert len(steps) > 0


class TestOnePath:
    """Seeded inputs whose balance test reads yes while structured_diagonalize
    raises NumericalBreakdown: the report agrees with the construction
    (agreed_report), so it never says yes where S0 misses the guarantee."""

    @pytest.mark.parametrize("seed", [2, 6, 10, 11, 14, 19, 26, 27, 30, 34,
                                      38, 39])
    def test_merged_chain(self, seed):
        agreed_report(*chain_probe(seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_loose_tolerance(self, seed):
        # A planted input of each kind plus a Gaussian of relative size
        # eps = 1e-8, read at structure_tol 1e-7.
        kind = ("skew-hamiltonian", "per-hermitian", "hamiltonian",
                "perskew-hermitian")[seed]
        a = random_structured_diagonalizable(kind, 8, seed).matrix
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a = a + 1e-8 * np.linalg.norm(a) * g / np.linalg.norm(g)
        agreed_report(a, form_for_kind(kind, 8), TolerancePolicy(1e-7))

    @pytest.mark.parametrize("seed", [2, 3])
    def test_rotated_nilpotent(self, seed):
        # 1e-3 Q (E - E*) Q^H under R, E strictly upper triangular: roundoff
        # splits its Jordan block into simple eigenvalues in conjugate pairs.
        form = perplectic_form(2)
        rng = np.random.default_rng(seed)
        e = np.triu(rng.standard_normal((4, 4))
                    + 1j * rng.standard_normal((4, 4)), 1)
        q = random_automorphism(form, 2, 2)
        agreed_report(1e-3 * q @ (e - adjoint(e, form)) @ herm_transpose(q),
                      form)


class TestConditioning:
    """Non-normal input with a known structured diagonalizer S, a shear
    automorphism times a unitary one: A = S D~ S^{-1}."""

    @staticmethod
    def _shear(form, t, seed):
        n = form.half
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if form.tag is FormTag.SYMPLECTIC_J:
            top = t * (g + herm_transpose(g)) / 2
        else:
            top = t * np.flipud(np.eye(n)) @ (g - herm_transpose(g)) / 2
        return np.block([[np.eye(n), top], [np.zeros((n, n)), np.eye(n)]])

    @given(kind=st.sampled_from(["skew-hamiltonian", "per-hermitian",
                                 "hamiltonian", "perskew-hermitian"]),
           seed=st.integers(0, 10**4), log_t=st.floats(0.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_built_transform_is_no_worse_conditioned(self, kind, seed,
                                                     log_t):
        n = 8
        inst = random_structured_diagonalizable(kind, n, seed,
                                                critical_share=0.5)
        form = form_for_kind(kind, n)
        # The shear is an automorphism: t H Hermitian under J, and
        # F t G with G skew-Hermitian under R.
        s = self._shear(form, 10.0 ** log_t, seed) @ inst.transform
        full = assemble_core_diagonal(inst.core, form.tag,
                                      variant_for_kind(kind))
        a = s @ np.diag(full) @ np.linalg.inv(s)
        try:
            report = diagonalizability_report(a, form)
        except StructDiagError as exc:
            with pytest.raises(type(exc)):
                structured_diagonalize(a, form)
            return
        if not report.decision:
            with pytest.raises(NotStructuredDiagonalizable):
                structured_diagonalize(a, form)
            return
        try:
            built = structured_diagonalize(a, form).transform
        except cli._NUMERICAL_ERRORS:
            return
        assert np.linalg.cond(built) <= 10 * np.linalg.cond(s)
