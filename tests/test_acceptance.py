"""Acceptance suite.

One test per criterion; each prints a single pass line when it
succeeds (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Tolerances are pinned here and nowhere loosened.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg

from structdiag import (
    FormKind,
    STRUCTURE_KINDS,
    Sign,
    Variant,
    classify,
    complete_to_lagrangian,
    counterexample_unbalanced,
    decompose_additive,
    diagonalizability_report,
    form_for_kind,
    gram,
    inertia,
    is_diagonalizable,
    perplectic_form,
    random_lagrangian_frame,
    random_structured_diagonalizable,
    read_matrix,
    reconstruct_from_normal_factor,
    rel_residual,
    structured_diagonalize,
    structured_exp,
    structured_root,
    symplectic_form,
    unitary_refine,
    variant_for_kind,
    write_matrix,
)
from structdiag.core import fro, herm_transpose
from structdiag.errors import NotStructuredDiagonalizable
from structdiag.spectral import eigenvalues_match

from conftest import gaussian_matrix, random_hermitian, random_skew_hermitian, skew_block_instance
from conftest import run_structdiag as _run

SIZES = (1, 2, 4, 8)
SEEDS = range(50)


def _criterion_instances():
    for kind in STRUCTURE_KINDS:
        for n in SIZES:
            for seed in SEEDS:
                yield kind, n, seed


def test_criterion_01_round_trip_diagonalization():
    slowest = 0.0
    for kind, n, seed in _criterion_instances():
        inst = random_structured_diagonalizable(kind, n, seed)
        form = form_for_kind(kind, n)
        started = time.perf_counter()
        d = structured_diagonalize(inst.matrix, form)
        slowest = max(slowest, time.perf_counter() - started)
        assert d.residual_automorphism <= 1e-8, (kind, n, seed)
        assert d.residual_similarity <= 1e-8, (kind, n, seed)
        # Canonical pattern is structural: the mirror half is exactly
        # the sign-and-reversal image of the core.
        full = d.full_diagonal
        mirror = np.conj(d.core)
        if variant_for_kind(kind) is Variant.SKEWADJOINT:
            mirror = -mirror
        if form.tag.value == "perplectic":
            mirror = mirror[::-1]
        assert np.array_equal(full[n:], mirror), (kind, n, seed)
        assert eigenvalues_match(full, inst.full_diagonal, 1e-8), \
            (kind, n, seed)
        assert slowest < 1.0
    print(f"criterion 1: PASS - 800 round trips, slowest {slowest:.3f}s")


def test_criterion_02_negative_decisions():
    for n in (2, 3, 4):
        for seed in range(20):
            a = counterexample_unbalanced(n, seed)
            form = symplectic_form(n)
            report = classify(a, form)
            assert report.selfadjoint.residual <= 1e-9, (n, seed)
            assert is_diagonalizable(a), (n, seed)
            decision = diagonalizability_report(a, form)
            assert not decision.decision, (n, seed)
            with pytest.raises(NotStructuredDiagonalizable):
                structured_diagonalize(a, form)
    j2 = symplectic_form(1)
    assert not diagonalizability_report(j2.matrix, j2).decision
    print("criterion 2: PASS - 60 counterexamples refused, J2 unbalanced")


def test_criterion_03_skew_block_family():
    checked = 0
    for n in (1, 2, 4):
        for seed in range(10):
            m = skew_block_instance(n, seed)
            form = symplectic_form(n)
            report = diagonalizability_report(m, form)
            assert report.decision, (n, seed)
            d = structured_diagonalize(m, form)
            assert d.residual_automorphism <= 1e-8
            assert d.residual_similarity <= 1e-8
            values = np.linalg.eigvals(m)
            scale = max(1.0, np.max(np.abs(values)))
            assert np.max(np.abs(values.real)) <= 1e-8 * scale
            checked += 1
    print(f"criterion 3: PASS - {checked} skew-Hermitian block instances "
          "diagonalized, spectra purely imaginary")


def test_criterion_04_sylvester_invariance():
    for seed in range(100):
        m = 1 + seed % 12
        h = random_hermitian(m, seed)
        k = random_skew_hermitian(m, 10_000 + seed)
        base_h = inertia(h, FormKind.HERMITIAN).counts
        base_k = inertia(k, FormKind.SKEW_HERMITIAN).counts
        for trial in range(5):
            s = gaussian_matrix(m, m, 777 + 5 * seed + trial) \
                + 2 * np.eye(m)
            assert inertia(herm_transpose(s) @ h @ s,
                           FormKind.HERMITIAN).counts == base_h
            assert inertia(herm_transpose(s) @ k @ s,
                           FormKind.SKEW_HERMITIAN).counts == base_k
    for n in (1, 2, 4, 8):
        assert inertia(symplectic_form(n).matrix,
                       FormKind.SKEW_HERMITIAN).counts == (n, n, 0)
        assert inertia(perplectic_form(n).matrix,
                       FormKind.HERMITIAN).counts == (n, n, 0)
    print("criterion 4: PASS - inertia invariant under 1000 congruences")


def test_criterion_05_unitary_refinement():
    for kind, n, seed in _criterion_instances():
        inst = random_structured_diagonalizable(kind, n, seed)
        form = form_for_kind(kind, n)
        d = unitary_refine(inst.matrix, form)
        q = d.transform
        assert rel_residual(herm_transpose(q) @ q,
                            np.eye(2 * n)) <= 1e-8, (kind, n, seed)
        assert d.residual_automorphism <= 1e-8, (kind, n, seed)
        assert d.residual_similarity <= 1e-8, (kind, n, seed)
        assert d.unitary
    print("criterion 5: PASS - 800 unitary refinements within 1e-8")


def _reverse_factors():
    """50 valid N per form, cycling ranks (full, n-1, 1) and both signs."""
    n = 4
    for formf in (symplectic_form, perplectic_form):
        form = formf(n)
        for seed in range(50):
            rank = (n, n - 1, 1)[seed % 3]
            sign = (Sign.MINUS, Sign.PLUS)[seed % 2]
            v = random_lagrangian_frame(form, 31_000 + seed)
            moduli = 0.6 + 1.2 * np.arange(n) / max(1, n - 1)
            phases = np.exp(2j * np.pi * ((np.arange(n) + 1) * (seed + 1)
                                          * 0.137 % 1.0))
            d = moduli * phases
            d[rank:] = 0.0
            n_mat = v @ np.diag(d) @ herm_transpose(v)
            yield form, n_mat, d[:rank], sign, rank, seed


def test_criterion_06_additive_decomposition_equivalence():
    # Forward direction over the criterion-1 family.
    for kind, n, seed in _criterion_instances():
        inst = random_structured_diagonalizable(kind, n, seed)
        form = form_for_kind(kind, n)
        dec = decompose_additive(inst.matrix, form)
        want = (Sign.PLUS if variant_for_kind(kind) is Variant.SELFADJOINT
                else Sign.MINUS)
        assert dec.sign is want, (kind, n, seed)
        assert dec.residuals.worst <= 1e-8, (kind, n, seed)
    # Reverse direction with rank-deficient cases.
    count = 0
    for form, n_mat, _, sign, rank, seed in _reverse_factors():
        a, diag = reconstruct_from_normal_factor(n_mat, sign, form)
        assert diag.residual_automorphism <= 1e-8, (form.tag, seed)
        assert diag.residual_similarity <= 1e-8, (form.tag, seed)
        report = diagonalizability_report(a, form)
        assert report.decision, (form.tag, seed)
        count += 1
    print(f"criterion 6: PASS - 800 forward decompositions, {count} "
          "reconstructions incl. rank-deficient")


def test_criterion_07_spectrum_containment():
    for form, n_mat, core, sign, rank, seed in _reverse_factors():
        a, _ = reconstruct_from_normal_factor(n_mat, sign, form)
        found = np.linalg.eigvals(a)
        scale = max(1.0, np.max(np.abs(found)))
        for value in core:
            assert np.min(np.abs(found - value)) <= 1e-8 * scale, \
                (form.tag, seed)
        if rank == form.half:
            s = np.linalg.svd(a, compute_uv=False)
            assert s[-1] > 1e-10 * s[0], (form.tag, seed)
    print("criterion 7: PASS - planted spectra contained, full-rank "
          "reconstructions nonsingular")


def test_criterion_08_structured_functions():
    for kind in STRUCTURE_KINDS:
        form = form_for_kind(kind, 2)
        for seed in range(10):
            inst = random_structured_diagonalizable(kind, 2, seed)
            dec = decompose_additive(inst.matrix, form)
            exp_a, _ = structured_exp(dec, form)
            assert rel_residual(exp_a, scipy.linalg.expm(inst.matrix)) <= 1e-8, \
                (kind, seed)
            if variant_for_kind(kind) is Variant.SKEWADJOINT:
                assert classify(exp_a, form).automorphism.residual <= 1e-8, \
                    (kind, seed)
    for kind in ("skew-hamiltonian", "per-hermitian"):
        form = form_for_kind(kind, 2)
        for p in (2, 3):
            for seed in range(10):
                inst = random_structured_diagonalizable(kind, 2, seed)
                x = structured_root(inst.matrix, p, form)
                assert fro(np.linalg.matrix_power(x, p) - inst.matrix) \
                    <= 1e-7 * fro(inst.matrix), (kind, p, seed)
                report = classify(x, form)
                assert report.selfadjoint.ok, (kind, p, seed)
                assert report.euclidean_normal.ok, (kind, p, seed)
    print("criterion 8: PASS - exponentials match the oracle, roots "
          "power back within 1e-7")


def test_criterion_09_lagrangian_completion():
    for formf in (symplectic_form, perplectic_form):
        for n in (2, 4):
            form = formf(n)
            for k in range(n + 1):
                for seed in range(100):
                    v = random_lagrangian_frame(form, 91_000 + seed)[:, :k]
                    out = complete_to_lagrangian(v, form)
                    assert out.shape == (2 * n, n)
                    assert np.array_equal(out[:, :k], v)
                    assert fro(herm_transpose(out) @ out
                               - np.eye(n)) <= 1e-9, (form.tag, n, k, seed)
                    assert fro(gram(out, form)) <= 1e-9, (form.tag, n, k,
                                                          seed)
    print("criterion 9: PASS - 2800 completions orthonormal, neutral, "
          "inputs preserved exactly")


def test_criterion_10_cli_pipeline(tmp_path):
    started = time.perf_counter()
    # Positive instance: every stage exits 0 in its own process.
    code, _, err = _run("generate", "--kind",
                        "skew-hamiltonian-diagonalizable", "--n", 4,
                        "--seed", 7, "good.mtx", cwd=tmp_path)
    assert code == 0, err
    code, _, err = _run("analyze", "--form", "symplectic", "--expect",
                        "structure-diagonalizable", "good.mtx", cwd=tmp_path)
    assert code == 0, err
    code, out, err = _run("diagonalize", "--form", "symplectic", "--out",
                          "fac", "good.mtx", cwd=tmp_path)
    assert code == 0, err
    assert json.loads(out)["residuals"]["automorphism"] <= 1e-8
    code, _, err = _run("verify", "--mode", "diag", "--form", "symplectic",
                        "good.mtx", "fac.S.mtx", cwd=tmp_path)
    assert code == 0, err
    code, _, err = _run("decompose", "--form", "symplectic", "--out", "fac",
                        "good.mtx", cwd=tmp_path)
    assert code == 0, err
    code, _, err = _run("verify", "--mode", "decomp", "--form", "symplectic",
                        "good.mtx", "fac.N.mtx", cwd=tmp_path)
    assert code == 0, err
    # Counterexample: flagged at the analyze and diagonalize stages.
    code, _, err = _run("generate", "--kind", "counterexample", "--n", 2,
                        "--seed", 3, "cx.mtx", cwd=tmp_path)
    assert code == 0, err
    code, _, err = _run("analyze", "--form", "symplectic", "--expect",
                        "structure-diagonalizable", "cx.mtx", cwd=tmp_path)
    assert code == 1, err
    code, _, err = _run("diagonalize", "--form", "symplectic", "--out", "cxf",
                        "cx.mtx", cwd=tmp_path)
    assert code == 1, err
    # Bit-identical file round trip.
    a = read_matrix(tmp_path / "good.mtx")
    write_matrix(tmp_path / "copy.mtx", a)
    assert (tmp_path / "good.mtx").read_bytes() \
        == (tmp_path / "copy.mtx").read_bytes()
    elapsed = time.perf_counter() - started
    print(f"criterion 10: PASS - pipeline exit codes and byte round trip "
          f"({elapsed:.1f}s)")
