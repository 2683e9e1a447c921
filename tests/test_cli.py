"""CLI behavior, including fresh-process verification of written factors."""

import json
import sys
from concurrent.futures import Future

import numpy as np
import pytest

from structdiag import (
    Variant,
    assemble_core_diagonal,
    decompose_additive,
    random_structured,
    random_structured_diagonalizable,
    read_matrix,
    symplectic_form,
    write_matrix,
)
from structdiag import cli, diagonalize, forms
from structdiag.cli import main
from structdiag.structure import classify

from conftest import chain_probe, gaussian_matrix, near_normal_defective
from conftest import run_structdiag as run_cli


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.mtx"
    b = tmp_path / "b.mtx"
    code1, out1, _ = run_cli("generate", "--kind", "skew-hamiltonian",
                             "--n", 2, "--seed", 9, a)
    code2, out2, _ = run_cli("generate", "--kind", "skew-hamiltonian",
                             "--n", 2, "--seed", 9, b)
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    assert out1 == out2  # digest printed

def test_generate_prints_digest(tmp_path):
    out = tmp_path / "a.mtx"
    code, stdout, _ = run_cli("generate", "--kind", "hamiltonian",
                              "--n", 1, "--seed", 0, out)
    assert code == 0
    digest = stdout.strip()
    assert len(digest) == 64
    import hashlib
    assert digest == hashlib.sha256(out.read_bytes()).hexdigest()


def test_analyze_identity(tmp_path):
    path = tmp_path / "i4.mtx"
    write_matrix(path, np.eye(4, dtype=complex))
    code = main(["analyze", "--form", "symplectic", str(path)])
    assert code == 0


def test_analyze_reports_decision(tmp_path, capsys):
    path = tmp_path / "i4.mtx"
    write_matrix(path, np.eye(4, dtype=complex))
    code = main(["analyze", "--form", "symplectic", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["tool_version"]
    assert "skew-hamiltonian" in doc["payload"]["classification"]["structures"]
    assert doc["payload"]["diagonalizability"]["decision"] is True
    assert doc["residuals"]


def test_analyze_j2_decision_false(tmp_path, capsys):
    path = tmp_path / "j2.mtx"
    write_matrix(path, np.array([[0, 1], [-1, 0]], dtype=complex))
    code = main(["analyze", "--form", "symplectic", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "hamiltonian" in doc["payload"]["classification"]["structures"]
    assert doc["payload"]["diagonalizability"]["decision"] is False


def test_analyze_near_normal_defective(tmp_path, capsys):
    path = tmp_path / "defective.mtx"
    write_matrix(path, near_normal_defective())
    code = main(["analyze", "--form", "symplectic", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "normal" in doc["payload"]["classification"]["structures"]
    assert doc["payload"]["diagonalizability"]["diagonalizable"] is False


def test_analyze_classifies_each_file_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return classify(*args, **kwargs)

    # Modules import classify by name: patch every reference.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "structdiag":
            for attr, value in list(vars(module).items()):
                if value is classify:
                    monkeypatch.setattr(module, attr, counted)
    matrices = [np.eye(4, dtype=complex), near_normal_defective(),
                np.array([[0, 1], [-1, 0]], dtype=complex),
                symplectic_form(2).matrix @ gaussian_matrix(4, 4, 3)]
    files = []
    for k, a in enumerate(matrices):
        files.append(str(tmp_path / f"a{k}.mtx"))
        write_matrix(files[-1], a)
    assert main(["analyze", "--form", "symplectic", *files]) == 0
    docs = [json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()]
    # Decided, not diagonalizable, unbalanced, unstructured.
    assert [d["payload"]["diagonalizability"]["decision"] for d in docs] == [
        True, None, False, None]
    assert calls == [a.shape for a in matrices]


def test_analyze_parse_error(tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_text("not a matrix\n")
    code, _, err = run_cli("analyze", "--form", "symplectic", path)
    assert code == 2
    assert "error" in err


def test_analyze_expect_failure(tmp_path):
    path = tmp_path / "j2.mtx"
    write_matrix(path, np.array([[0, 1], [-1, 0]], dtype=complex))
    assert main(["analyze", "--form", "symplectic",
                 "--expect", "hamiltonian", str(path)]) == 0
    assert main(["analyze", "--form", "symplectic",
                 "--expect", "skew-hamiltonian", str(path)]) == 1
    assert main(["analyze", "--form", "symplectic",
                 "--expect", "structure-diagonalizable", str(path)]) == 1


def test_analyze_jobs_batch(tmp_path, capsys):
    files = []
    for seed in range(3):
        path = tmp_path / f"a{seed}.mtx"
        main(["generate", "--kind", "skew-hamiltonian-diagonalizable",
              "--n", "2", "--seed", str(seed), str(path)])
        files.append(str(path))
    capsys.readouterr()
    code = main(["analyze", "--form", "symplectic", "--jobs", "2", *files])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 3
    for line in out:
        doc = json.loads(line)
        assert doc["payload"]["diagonalizability"]["decision"] is True


def test_analyze_jobs_capped_at_file_count(tmp_path, capsys, monkeypatch):
    # ProcessPoolExecutor forks all max_workers at once; a recorder in its
    # place runs every job in this process and starts none.
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    files = []
    for seed in range(2):
        files.append(str(tmp_path / f"a{seed}.mtx"))
        write_matrix(files[-1], random_structured("hamiltonian", 2, seed))
    assert main(["analyze", "--form", "symplectic", "--jobs", "64",
                 *files]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
    assert workers == [2]


def test_diagonalize_writes_factors_and_verifies(tmp_path):
    a = tmp_path / "a.mtx"
    run_cli("generate", "--kind", "per-hermitian-diagonalizable",
            "--n", 2, "--seed", 4, a)
    code, stdout, _ = run_cli("diagonalize", "--form", "perplectic",
                              "--out", tmp_path / "fac", a)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["residuals"]["automorphism"] <= 1e-8
    assert doc["residuals"]["similarity"] <= 1e-8
    # Fresh process, no shared state.
    code, _, _ = run_cli("verify", "--mode", "diag", "--form", "perplectic",
                         a, tmp_path / "fac.S.mtx")
    assert code == 0


def test_diagonalize_counterexample_exit_one(tmp_path):
    a = tmp_path / "cx.mtx"
    run_cli("generate", "--kind", "counterexample", "--n", 2, "--seed", 1, a)
    code, stdout, _ = run_cli("diagonalize", "--form", "symplectic",
                              "--out", tmp_path / "fac", a)
    assert code == 1
    doc = json.loads(stdout)
    table = doc["payload"]["diagonalizability"]["per_eigenvalue"]
    assert any(not entry["balanced"] for entry in table)


def test_diagonalize_unitary_flag_guards_normality(tmp_path):
    n = 2
    a1 = gaussian_matrix(n, n, 3)
    block = np.block([[a1, np.zeros((n, n))],
                      [np.zeros((n, n)), a1.conj().T]])
    path = tmp_path / "nn.mtx"
    write_matrix(path, block)
    code, stdout, _ = run_cli("diagonalize", "--form", "symplectic",
                              "--unitary", "--out", tmp_path / "fac", path)
    assert code == 1
    assert "NotNormal" in json.loads(stdout)["payload"]["error"]


def test_decompose_and_verify(tmp_path):
    a = tmp_path / "a.mtx"
    run_cli("generate", "--kind", "hamiltonian-diagonalizable",
            "--n", 2, "--seed", 6, a)
    code, stdout, _ = run_cli("decompose", "--form", "symplectic",
                              "--out", tmp_path / "fac", a)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["payload"]["sign"] == "minus"
    assert max(doc["residuals"].values()) <= 1e-8
    code, _, _ = run_cli("verify", "--mode", "decomp", "--form", "symplectic",
                         a, tmp_path / "fac.N.mtx")
    assert code == 0


def test_decompose_identity_plus_sign(tmp_path):
    path = tmp_path / "i4.mtx"
    write_matrix(path, np.eye(4, dtype=complex))
    code, stdout, _ = run_cli("decompose", "--form", "symplectic",
                              "--out", tmp_path / "fac", path)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["payload"]["sign"] == "plus"
    n_mat = read_matrix(tmp_path / "fac.N.mtx")
    from structdiag import adjoint, symplectic_form
    form = symplectic_form(2)
    assert np.linalg.norm(n_mat + adjoint(n_mat, form) - np.eye(4)) <= 1e-8


def test_verify_rejects_scaled_transform(tmp_path):
    a = tmp_path / "a.mtx"
    run_cli("generate", "--kind", "skew-hamiltonian-diagonalizable",
            "--n", 2, "--seed", 2, a)
    run_cli("diagonalize", "--form", "symplectic", "--out", tmp_path / "fac",
            a)
    s = read_matrix(tmp_path / "fac.S.mtx")
    write_matrix(tmp_path / "bad.S.mtx", s * (1 + 1e-3))
    code, stdout, _ = run_cli("verify", "--mode", "diag", "--form",
                              "symplectic", a, tmp_path / "bad.S.mtx")
    assert code == 1
    doc = json.loads(stdout)
    assert doc["residuals"]["automorphism"] > 1e-8


def test_tolerance_env_override(tmp_path):
    # A lightly perturbed structured matrix fails the default gate but
    # passes once STRUCTDIAG_TOL loosens it; --tol wins over the env var.
    from structdiag import random_structured
    a = random_structured("skew-hamiltonian", 2, 11)
    a[0, 0] += 1e-6
    path = tmp_path / "p.mtx"
    write_matrix(path, a)
    args = ("analyze", "--form", "symplectic", "--expect", "skew-hamiltonian",
            path)
    assert run_cli(*args)[0] == 1
    assert run_cli(*args, env={"STRUCTDIAG_TOL": "1e-4"})[0] == 0
    code, _, _ = run_cli("analyze", "--form", "symplectic", "--tol", "1e-12",
                         "--expect", "skew-hamiltonian", path,
                         env={"STRUCTDIAG_TOL": "1e-4"})
    assert code == 1


def test_out_of_range_tolerance_exits_two(tmp_path):
    # NaN would make every structure flag false, and inf every flag true.
    path = tmp_path / "h.mtx"
    write_matrix(path, random_structured("hamiltonian", 2, 3))
    cases = [(("--tol", "nan"), None), (("--tol", "inf"), None),
             (("--tol=-1e-3",), None), ((), {"STRUCTDIAG_TOL": "nan"})]
    for tol_args, env in cases:
        code, stdout, stderr = run_cli("analyze", "--form", "symplectic",
                                       *tol_args, path, env=env)
        assert (code, stdout) == (2, ""), (tol_args, env)
        assert "structure_tol" in stderr


@pytest.mark.parametrize("structured", [True, False])
@pytest.mark.parametrize("mode", ["diag", "decomp"])
def test_verify_factor_of_wrong_dimension_exits_two(tmp_path, mode,
                                                    structured):
    a = tmp_path / "a.mtx"
    factor = tmp_path / "f.mtx"
    write_matrix(a, random_structured("hamiltonian", 3, 5) if structured
                 else gaussian_matrix(6, 6, 5))
    write_matrix(factor, np.eye(4, dtype=complex))
    code, _, stderr = run_cli("verify", "--mode", mode, "--form",
                              "symplectic", a, factor)
    assert code == 2
    assert "dimensions differ" in stderr


def test_matrix_files_round_trip_bit_identically(tmp_path):
    a = tmp_path / "a.mtx"
    run_cli("generate", "--kind", "perskew-hermitian", "--n", 3, "--seed",
            13, a)
    b = tmp_path / "b.mtx"
    write_matrix(b, read_matrix(a))
    assert a.read_bytes() == b.read_bytes()


def test_analyze_euclidean_form_classification_only(tmp_path, capsys):
    path = tmp_path / "h.mtx"
    h = gaussian_matrix(3, 3, 21)
    write_matrix(path, (h + h.conj().T) / 2.0)
    code = main(["analyze", "--form", "euclidean", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "hermitian" in doc["payload"]["classification"]["structures"]
    assert doc["payload"]["diagonalizability"] is None


@pytest.mark.parametrize("args", [("diagonalize", "--out", "x"),
                                  ("decompose", "--out", "x"),
                                  ("verify", "--mode", "diag")])
def test_structured_subcommands_reject_the_euclidean_form(args, capsys):
    files = ["a.mtx", "f.mtx"] if args[0] == "verify" else ["a.mtx"]
    with pytest.raises(SystemExit) as exit_:
        main([*args, "--form", "euclidean", *files])
    assert exit_.value.code == 2
    assert "invalid choice: 'euclidean'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_verify_fails_an_overflowing_residual(tmp_path, capsys):
    # ||A||_F overflows, so the similarity residual is inf/inf = NaN.
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1] = a[1, 0] = 1e200
    write_matrix(tmp_path / "a.mtx", a)
    write_matrix(tmp_path / "s.mtx", np.eye(4, dtype=complex))
    code = main(["verify", "--mode", "diag", "--form", "symplectic",
                 str(tmp_path / "a.mtx"), str(tmp_path / "s.mtx")])
    doc = json.loads(capsys.readouterr().out)
    assert doc["residuals"]["similarity_diagonal"] is None
    assert (code, doc["payload"]["passed"]) == (1, False)


def test_verify_fails_a_singular_transform(tmp_path, capsys):
    # The certificate solves no system: a singular S leaves the similarity
    # unbounded, an infinite residual written as null, and exits 1.
    a = random_structured_diagonalizable("hamiltonian", 2, 3).matrix
    s = np.eye(4, dtype=complex)
    s[:, 3] = s[:, 0]
    write_matrix(tmp_path / "a.mtx", a)
    write_matrix(tmp_path / "s.mtx", s)
    code = main(["verify", "--mode", "diag", "--form", "symplectic",
                 str(tmp_path / "a.mtx"), str(tmp_path / "s.mtx")])
    doc = json.loads(capsys.readouterr().out)
    assert doc["residuals"]["similarity_diagonal"] is None
    assert (code, doc["payload"]["passed"]) == (1, False)


def test_verify_decomp_forms_the_adjoint_of_a_once(tmp_path, monkeypatch,
                                                   capsys):
    # The CLI picks the sign from A's record and the verification reads
    # A* from it, forming only N* itself. A verify process starts with an
    # empty slot; the warm-up above left A's record in this one.
    inst = random_structured_diagonalizable("hamiltonian", 3, 4)
    form = symplectic_form(3)
    dec = decompose_additive(inst.matrix, form)
    write_matrix(tmp_path / "a.mtx", inst.matrix)
    write_matrix(tmp_path / "n.mtx", dec.normal_factor)
    a = read_matrix(tmp_path / "a.mtx")
    on_a = []
    adjoint = forms.adjoint

    def counted(x, f):
        on_a.append(np.array_equal(x, a))
        return adjoint(x, f)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "structdiag":
            for attr, value in list(vars(module).items()):
                if value is adjoint:
                    monkeypatch.setattr(module, attr, counted)
    monkeypatch.setattr(diagonalize, "_PLAN_SLOT", None)
    code = main(["verify", "--mode", "decomp", "--form", "symplectic",
                 str(tmp_path / "a.mtx"), str(tmp_path / "n.mtx")])
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["payload"]["passed"]) == (0, True)
    assert sum(on_a) == 1
    assert len(on_a) == 2  # A* once, N* once


def test_odd_dimension_rejected_for_form(tmp_path):
    path = tmp_path / "odd.mtx"
    write_matrix(path, np.eye(3, dtype=complex))
    code, _, err = run_cli("analyze", "--form", "symplectic", path)
    assert code == 2
    assert "even" in err


def test_version_flag():
    code, out, _ = run_cli("--version")
    assert code == 0
    assert out.strip()


def test_every_error_type_has_one_exit_code():
    from structdiag import cli, errors
    tables = (cli._IO_ERRORS, cli._NEGATIVE_ERRORS, cli._NUMERICAL_ERRORS)
    types = [t for t in vars(errors).values()
             if isinstance(t, type) and issubclass(t, errors.StructDiagError)
             and t is not errors.StructDiagError]
    for t in types:
        assert sum(issubclass(t, table) for table in tables) == 1, t.__name__


def _near_critical_file(path):
    """2n = 16 skew-Hamiltonian normal input with the core value
    0.3 + 1.3e-8 i, so 0.3 -/+ 1.3e-8 i are eigenvalues: two simple
    eigenvalues more than the cluster radius apart, neither critical."""
    inst = random_structured_diagonalizable("skew-hamiltonian", 8, 32,
                                            critical_share=0.0)
    core = inst.core.copy()
    core[0] = complex(0.3, 1.3e-8)
    full = assemble_core_diagonal(core, symplectic_form(8).tag,
                                  Variant.SELFADJOINT)
    q = inst.transform
    write_matrix(path, q @ np.diag(full) @ q.conj().T)


def _near_conjugate_pair_file(path):
    """2n = 16 Hamiltonian normal input with the core value -1e-8 - 0.3 i
    (up to roundoff in its modulus 0.3): -1e-8 -/+ 0.3 i are eigenvalues
    2e-8 apart, just outside the cluster radius, whose eigenvectors are
    only ~eps/2e-8 neutral. Splitting the cross Gram by an LU left an
    automorphism residual of ~1e-8 here, and diagonalize and decompose
    exited 3."""
    inst = random_structured_diagonalizable("hamiltonian", 8, 34)
    core = inst.core.copy()
    core[1] = complex(-1e-8, -np.sqrt(0.09 - 1e-16))
    full = assemble_core_diagonal(core, symplectic_form(8).tag,
                                  Variant.SKEWADJOINT)
    q = inst.transform
    write_matrix(path, q @ np.diag(full) @ q.conj().T)


def test_near_critical_analyze_and_diagonalize_agree(tmp_path):
    for build in (_near_critical_file, _near_conjugate_pair_file):
        path = tmp_path / f"{build.__name__}.mtx"
        build(path)
        code, out, _ = run_cli("analyze", "--form", "symplectic", path)
        assert code == 0
        assert (json.loads(out)["payload"]["diagonalizability"]["decision"]
                is True)
        for args in (("diagonalize",), ("diagonalize", "--unitary"),
                     ("decompose",)):
            code, _, err = run_cli(*args, "--form", "symplectic", "--out",
                                   tmp_path / "near", path)
            assert code == 0, (build.__name__, args, err)


@pytest.mark.parametrize("tols", [("-1e-3",), ("-inf",),
                                  ("1e-4", "-1e-3")])
def test_negative_tolerance_reaches_the_range_check(tmp_path, capsys, tols):
    # Plain argparse reads "-1e-3" and "-inf" as options, not as values;
    # of a repeated --tol the last one wins.
    path = tmp_path / "h.mtx"
    write_matrix(path, random_structured("hamiltonian", 2, 3))
    tol_args = [arg for tol in tols for arg in ("--tol", tol)]
    code = main(["analyze", "--form", "symplectic", *tol_args, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "structure_tol must be finite and nonnegative" in captured.err


def test_analyze_reports_a_spectrum_without_conjugate_pairs(tmp_path):
    # Structured at the loosened tolerance, but the 1e-6 perturbation
    # leaves an eigenvalue without a conjugate partner: no decision.
    a = random_structured("skew-hamiltonian", 2, 11)
    a[0, 0] += 1e-6
    path = tmp_path / "p.mtx"
    write_matrix(path, a)
    code, out, _ = run_cli("analyze", "--form", "symplectic", "--tol", "1e-4",
                           path)
    assert code == 0
    diag = json.loads(out)["payload"]["diagonalizability"]
    assert diag["decision"] is None
    # A selfadjoint spectrum pairs in exact arithmetic, so a failed
    # pairing is no evidence that A is diagonalizable.
    assert diag["diagonalizable"] is None
    assert "conjugate" in diag["reason"]
    code, out, _ = run_cli("analyze", "--form", "symplectic", "--tol", "1e-4",
                           "--expect", "diagonalizable", path)
    assert code == 1
    assert json.loads(out)["payload"]["expect_failed"] == "diagonalizable"


def test_analyze_exits_as_diagonalize_does_on_a_merged_chain(tmp_path):
    # The balance test reads yes, but S0 misses the guarantee: analyze
    # raises the construction's NumericalBreakdown rather than say yes.
    a, form = chain_probe(2)
    path = tmp_path / "chain.mtx"
    write_matrix(path, a)
    analyzed = run_cli("analyze", "--form", "symplectic", path)
    built = run_cli("diagonalize", "--form", "symplectic", "--out",
                    tmp_path / "out", path)
    assert analyzed[0] == built[0] == 3, (analyzed[2], built[2])
    # The same line, which analyze, taking several files, prefixes with
    # the file's name.
    label, reason = built[2].splitlines()[-1].split(": ", 1)
    assert analyzed[2].splitlines()[-1] == f"{label}: {path}: {reason}"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("middle,code,error", [
    ("bad", 2, "ParseError"), ("chain", 3, "NumericalBreakdown")])
def test_analyze_keeps_every_file_when_one_fails(tmp_path, capsys, jobs,
                                                 middle, code, error):
    # One document per file, in file order, an error document for the
    # failed one; its stderr line names it, and the exit code is the
    # failed file's.
    good = str(tmp_path / "good.mtx")
    main(["generate", "--kind", "skew-hamiltonian-diagonalizable", "--n",
          "2", "--seed", "1", good])
    failed = str(tmp_path / f"{middle}.mtx")
    if middle == "bad":
        (tmp_path / "bad.mtx").write_text("not a matrix\n")
    else:
        write_matrix(failed, chain_probe(2)[0])
    capsys.readouterr()
    assert main(["analyze", "--form", "symplectic", "--jobs", jobs,
                 good, failed, good]) == code
    out, err = capsys.readouterr()
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert [d["payload"]["file"] for d in docs] == [good, failed, good]
    assert [d["payload"]["diagonalizability"]["decision"]
            for d in docs[::2]] == [True, True]
    assert docs[1]["payload"]["error"] == error
    assert docs[1]["payload"]["reason"]
    (line,) = err.strip().splitlines()
    assert failed in line and docs[1]["payload"]["reason"] in line


def test_tight_tolerance_analyze_and_diagonalize_accept_the_input(tmp_path):
    # --tol judges the input only: just above the file's own structure
    # residual, classify calls it skew-Hamiltonian, and no Gram the
    # package builds from it may turn that into a negative result.
    path = tmp_path / "a.mtx"
    assert run_cli("generate", "--kind", "skew-hamiltonian-diagonalizable",
                   "--n", 8, "--seed", 1, path)[0] == 0
    residual = classify(read_matrix(path),
                        symplectic_form(8)).selfadjoint.residual
    tol = f"--tol={1.5 * residual!r}"
    code, out, err = run_cli("analyze", "--form", "symplectic", tol, path)
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert "skew-hamiltonian" in payload["classification"]["structures"]
    assert payload["diagonalizability"]["decision"] is True
    code, _, err = run_cli("diagonalize", "--form", "symplectic", tol,
                           "--out", tmp_path / "fac", path)
    assert code == 0, err


def test_analyze_expect_accepts_only_names_it_can_match(tmp_path, capsys):
    # A misspelt name is a usage error (exit 2), not an expect miss.
    path = tmp_path / "m.mtx"
    write_matrix(path, np.eye(4, dtype=complex))
    code, out, err = run_cli("analyze", "--expect", "nonsense", path)
    assert (code, out) == (2, "")
    assert "invalid choice" in err
    # Every name a report lists, and each decision name, is accepted.
    for scale in (1.0, 1j):
        write_matrix(path, scale * np.eye(4, dtype=complex))
        for form in ("symplectic", "perplectic"):
            assert main(["analyze", "--form", form, str(path)]) == 0
            doc = json.loads(capsys.readouterr().out)
            names = doc["payload"]["classification"]["structures"]
            for name in names + ["structure-diagonalizable",
                                 f"{form}-diagonalizable", "diagonalizable"]:
                assert main(["analyze", "--form", form, "--expect", name,
                             str(path)]) == 0, (scale, form, name)
            capsys.readouterr()
