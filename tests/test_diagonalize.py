import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from structdiag import (
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
    assemble_core_diagonal,
    complete_to_lagrangian,
    congruence_to,
    decompose_additive,
    diagonalizability_report,
    eigen,
    form_for_kind,
    gram,
    group_eigenvalues,
    inertia,
    pair_conjugates,
    perplectic_form,
    random_lagrangian_frame,
    random_structured,
    random_structured_diagonalizable,
    reconstruct_from_normal_factor,
    rel_residual,
    structured_diagonalize,
    structured_root,
    sylvester_canonical,
    symplectic_form,
    unitary_refine,
    variant_for_kind,
)
from structdiag import cli
from structdiag.core import fro, herm_transpose
from structdiag.diagonalize import (
    _balanced_pairs,
    _neutral_half,
    _polar_step,
    certify,
)
from structdiag.forms import _sylvester
from structdiag.spectral import (
    _cluster_indices,
    cluster_radius,
    eigenvalues_match,
)
from structdiag.structure import classify

from conftest import (
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
        (g,) = groups
        base = inertia(gram(g.basis, form), form.kind)
        for seed in range(5):
            mix = gaussian_matrix(4, 4, seed) + 2 * np.eye(4)
            mixed = inertia(gram(g.basis @ mix, form), form.kind)
            assert mixed.counts == base.counts

    def test_unbalanced_flags_survive_basis_recombination(self):
        # The counterexample's definite eigenspace Grams keep their
        # (unbalanced) inertia under any invertible recombination.
        from structdiag import counterexample_unbalanced
        n = 3
        form = symplectic_form(n)
        a = counterexample_unbalanced(n, 4)
        for g in group_eigenvalues(eigen(a)):
            base = inertia(gram(g.basis, form), form.kind)
            assert not base.balanced
            for seed in range(3):
                k = g.multiplicity
                mix = gaussian_matrix(k, k, 100 + seed) + 2 * np.eye(k)
                mixed = inertia(gram(g.basis @ mix, form), form.kind)
                assert mixed.counts == base.counts


class TestStructuredDiagonalize:
    def test_identity(self):
        form = symplectic_form(2)
        d = structured_diagonalize(np.eye(4, dtype=complex), form)
        assert np.allclose(d.core, np.ones(2))
        assert d.residual_automorphism <= 1e-8
        assert d.residual_similarity <= 1e-8

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

    @pytest.mark.parametrize("kind", ["skew-hamiltonian", "hamiltonian",
                                      "per-hermitian", "perskew-hermitian"])
    def test_near_normal_input_keeps_its_eigenvectors(self, kind):
        # A = Q (D~ + N) Q^H with N = E +/- E* (E = 5e-8 e_0 e_1^T), so N
        # is structured and strictly triangular within each diagonal
        # block, and two core values 1e-3 apart: A counts as normal at
        # the default tolerance (commutator residual ~1e-11), yet its
        # eigenvectors are ~N/gap = 5e-5 from orthogonal. The automorphism
        # keeps them; a step towards the unitary polar factor would cost
        # the similarity ~N/2 = 2.5e-8. No unitary automorphism
        # diagonalizes A within the guarantee.
        n = 4
        inst = random_structured_diagonalizable(kind, n, 5)
        form = form_for_kind(kind, n)
        variant = variant_for_kind(kind)
        core = inst.core.copy()
        core[1] = core[0] + 1e-3
        e = np.zeros((2 * n, 2 * n), dtype=complex)
        e[0, 1] = 5e-8
        sign = 1 if variant is Variant.SELFADJOINT else -1
        nil = e + sign * np.linalg.solve(form.matrix,
                                         herm_transpose(e) @ form.matrix)
        full = assemble_core_diagonal(core, form.tag, variant)
        q = inst.transform
        a = q @ (np.diag(full) + nil) @ herm_transpose(q)
        assert classify(a, form).euclidean_normal.ok
        d = structured_diagonalize(a, form)
        assert d.residual_automorphism <= 1e-12
        assert d.residual_similarity <= 1e-12
        with pytest.raises(NumericalBreakdown):
            unitary_refine(a, form)


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
        # One construction: unitary_refine adds only the polar step and
        # the unitarity certificate.
        assert np.array_equal(unitary.core, structured.core)
        assert np.array_equal(unitary.transform,
                              _polar_step(structured.transform))

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


class TestOneSpectralPass:
    """Each entry point runs no full classify (it checks only the flags it
    reads), runs one eig, clusters and pairs once, solves with neither J
    nor R and runs one (2n x k) rank SVD per multi-member eigenvalue group
    and, its conjugate pairs being simple here, no other SVD. Every entry
    point factors each critical eigenspace Gram with one eigh, shared by
    the balance test and the pairing, runs no eigvalsh, Schur or
    null_space and never reaches congruence_to or sylvester_canonical.
    structured_root counts over the selfadjoint kinds, the only ones it
    accepts. reconstruct_from_normal_factor factors only N's range."""

    @staticmethod
    def _count(monkeypatch, form):
        counts = {"eigen": 0, "eig": 0, "eigh": 0, "eigvalsh": 0,
                  "null_space": 0, "classify": 0, "cluster": 0, "pair": 0,
                  "congruence": 0, "sylvester": 0, "lu_on_form": 0,
                  "svd_shapes": [], "schur_shapes": []}

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
                            counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counted("eigvalsh", np.linalg.eigvalsh))
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
        form = formf(8)
        multi = sum(g.multiplicity > 1
                    for g in group_eigenvalues(eigen(inst.matrix)))
        assert multi > 0
        critical = len(diagonalizability_report(inst.matrix,
                                                form).per_eigenvalue)
        assert critical > 0
        counts = self._count(monkeypatch, form)
        entry(inst.matrix, form)
        shapes = counts.pop("svd_shapes")
        assert counts == {"eigen": 1, "eig": 1, "eigh": critical,
                          "eigvalsh": 0, "null_space": 0, "classify": 0,
                          "cluster": 1, "pair": 1, "congruence": 0,
                          "sylvester": 0, "lu_on_form": 0,
                          "schur_shapes": []}
        assert all(shape[1] < 16 for shape in shapes)
        assert len(shapes) == multi

    @pytest.mark.parametrize("kind,formf", _KIND_FORMS)
    def test_reconstruct_counts(self, monkeypatch, kind, formf):
        # A rank-5 factor: one 2n x 2n SVD finds the range, one 5 x 5
        # Schur its eigenbasis, and the completion's QR and one eigh of
        # the complement Gram replace null_space.
        inst = random_structured_diagonalizable(kind, 8, 41)
        form = formf(8)
        diag = unitary_refine(inst.matrix, form)
        v, core = diag.transform[:, :8], diag.core.copy()
        core[:3] = 0.0
        n_mat = v @ np.diag(core) @ herm_transpose(v)
        sign = (Sign.PLUS if variant_for_kind(kind) is Variant.SELFADJOINT
                else Sign.MINUS)
        counts = self._count(monkeypatch, form)
        reconstruct_from_normal_factor(n_mat, sign, form)
        assert counts == {"eigen": 0, "eig": 0, "eigh": 1, "eigvalsh": 0,
                          "null_space": 0, "classify": 0, "cluster": 0,
                          "pair": 0, "congruence": 0, "sylvester": 0,
                          "lu_on_form": 0, "svd_shapes": [(16, 16)],
                          "schur_shapes": [(5, 5)]}


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
    directions behind every critical eigenspace and completion."""

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

        w = np.linalg.qr(t)[0]
        v = _neutral_half(w, form)
        assert v.shape == (2 * m, m)
        assert fro(herm_transpose(v) @ v - np.eye(m)) <= 1e-12
        assert fro(gram(v, form)) <= 1e-12


class TestNearCriticalSweep:
    """Normal input, so unitarily structure-diagonalizable, near the
    critical axis and with clusters that single linkage chains together:
    criticality, clustering and defectiveness are decided on one radius."""

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

        report = diagonalizability_report(a, form)
        assert report.decision, report.reason
        for construct in (structured_diagonalize, unitary_refine,
                          decompose_additive):
            try:
                construct(a, form)
            except NumericalBreakdown:
                # A typed exit-3 error only for a chain merged into one
                # cluster, whose spread the certificate sees; the
                # near-conjugate pair always certifies.
                assert len(steps) > 0


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
