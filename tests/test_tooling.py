"""The repository's benchmark declaration, scripts and tolerance contract
against the package."""

import ast
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

from conftest import run_python

REPO = Path(__file__).resolve().parents[1]

# Per-layer metrics named <module>.<function>.calls|self_ms; the lapack
# and layer prefixes are the harness's kernel and per-module totals.
_TRACED = re.compile(r"^(\w+)\.(\w+)\.(?:calls|self_ms)$")
_NOT_PACKAGE = ("lapack", "layer")


def test_benchmark_traced_names_are_public_package_functions():
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    names = {(m.group(1), m.group(2))
             for m in (_TRACED.match(metric["name"])
                       for metric in declared["per_layer"])
             if m and m.group(1) not in _NOT_PACKAGE}
    assert names
    for module_name, function_name in sorted(names):
        module = importlib.import_module(f"structdiag.{module_name}")
        fn = getattr(module, function_name, None)
        assert inspect.isfunction(fn), (module_name, function_name)
        assert not function_name.startswith("_")
        assert fn.__module__ == module.__name__, (module_name, function_name)


def test_scripts_run():
    for script, args in [("residual_sweep.py", ("--sizes", 1, 2, "--seeds", 1)),
                         ("decomposition_demo.py", ("--n", 2, "--seed", 7)),
                         ("bench_pairs.py", ("--help",))]:
        code, _, stderr = run_python(REPO / "scripts" / script, *args)
        assert code == 0, (script, stderr)


# The only places that read TolerancePolicy.structure_tol: the policy's
# own validation, core._check, which judges every structure test on an
# input (the flags of classify and the entry points, the (skew-)Hermitian
# check of sylvester_canonical, the normality and annihilation checks of
# reconstruct_from_normal_factor), and the CLI help text. Keyed by module
# and top-level definition.
_STRUCTURE_TOL_READERS = {
    ("core", "TolerancePolicy"),
    ("core", "_check"),
    ("cli", "_build_parser"),
}
# Functions that run that check on the matrix they are given.
_CHECKED = {"inertia", "sylvester_canonical", "congruence_to"}


def _package_nodes():
    """(module, top-level definition name, node) for every AST node."""
    for path in sorted((REPO / "src" / "structdiag").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                yield path.stem, getattr(top, "name", None), node


def test_structure_tol_is_read_only_by_input_checks():
    readers, checked_callers = set(), set()
    for module, top, node in _package_nodes():
        if isinstance(node, ast.Attribute) and node.attr == "structure_tol":
            readers.add((module, top))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _CHECKED):
            checked_callers.add((module, top))
    assert readers == _STRUCTURE_TOL_READERS
    # The Grams the package builds go straight to forms._sylvester; the
    # checked functions see only caller-supplied matrices.
    assert checked_callers == {("forms", "inertia"),
                               ("forms", "congruence_to")}


# structure_tol and the pinned guarantees; a residual is compared with
# them only by core._within, which a NaN residual never passes.
_BOUNDS = {"structure_tol", "FACTOR_GUARANTEE", "FRAME_GUARANTEE",
           "FRAME_INPUT_TOL", "ROOT_GUARANTEE"}


def test_residual_bounds_are_compared_only_by_the_judge():
    comparers = set()
    for module, top, node in _package_nodes():
        if isinstance(node, ast.Compare) and any(
                getattr(n, "id", getattr(n, "attr", None)) in _BOUNDS
                for n in ast.walk(node)):
            comparers.add((module, top))
    # TolerancePolicy compares structure_tol only to validate it.
    assert comparers <= {("core", "_within"), ("core", "TolerancePolicy")}


def test_general_eigensolver_is_reached_only_through_eigen():
    # Every entry point eigendecomposes through spectral.eigen, so every
    # one takes its Hermitian route for normal input: the general LAPACK
    # eig (numpy's or scipy's) appears nowhere else in the package.
    users = {(module, top) for module, top, node in _package_nodes()
             if isinstance(node, ast.Attribute) and node.attr == "eig"}
    assert users == {("spectral", "eigen")}


def _attribute_users(names):
    return {(module, top) for module, top, node in _package_nodes()
            if isinstance(node, ast.Attribute) and node.attr in names}


def test_no_module_calls_schur():
    # reconstruct_from_normal_factor factors N through spectral.eigen and
    # structured_exp reads exp(N) off the decomposition's certified factor,
    # so no package module names a Schur factorization, by attribute,
    # name or import.
    assert not {(module, top) for module, top, node in _package_nodes()
                if "schur" in (getattr(node, "attr", None),
                               getattr(node, "id", None),
                               getattr(node, "name", None))}


def test_lu_runs_only_in_the_public_solver():
    # Every matrix the package inverts has a closed-form inverse (unitary
    # eigenbases, Sylvester factors with orthogonal columns, exp(-N)), and
    # the certificate reads S^{-1} off the form adjoint of S, so LU runs
    # only in the public utility solve_linear, which no package function
    # calls, and no inverse is formed or system solved anywhere else.
    assert _attribute_users({"lu_factor", "lu_solve"}) == {
        ("core", "solve_linear")}
    assert not _attribute_users({"inv", "pinv", "inverse", "solve",
                                 "solve_linear"})
    assert not {(module, top) for module, top, node in _package_nodes()
                if isinstance(node, ast.Name) and node.id == "solve_linear"}


def test_rank_cut_is_written_once():
    # core._rank is the one comparison of singular values with RANK_TOL
    # (numerical_rank, orthonormalize_columns,
    # reconstruct_from_normal_factor and structured_root share it);
    # solve_linear compares LU pivots with it.
    comparers = {(module, top) for module, top, node in _package_nodes()
                 if isinstance(node, ast.Compare) and any(
                     getattr(n, "id", None) == "RANK_TOL"
                     for n in ast.walk(node))}
    assert comparers == {("core", "_rank"), ("core", "solve_linear")}


_CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def test_plan_slot_is_the_only_module_state():
    # diagonalize._PLAN_SLOT, the one per-input record kept between
    # calls, is the only name a function rebinds at module level, and no
    # functools cache keeps anything else between calls.
    rebound = {(module, top, name) for module, top, node in _package_nodes()
               if isinstance(node, ast.Global)
               for name in node.names}
    assert rebound == {("diagonalize", "_store", "_PLAN_SLOT")}
    cached = set()
    for module, top, node in _package_nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            cached |= {(module, alias.name) for alias in node.names
                       if alias.name in _CACHE_DECORATORS}
        for decorator in getattr(node, "decorator_list", ()):
            target = getattr(decorator, "func", decorator)
            name = getattr(target, "id", getattr(target, "attr", None))
            if name in _CACHE_DECORATORS:
                cached.add((module, top))
    assert not cached


def _callers(name):
    """(module, top-level definition) of every call of ``name`` by name."""
    return [(module, top) for module, top, node in _package_nodes()
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == name]


def test_each_factor_is_built_and_certified_in_one_place():
    # The unitary factor is built only where a unitary call adds it to
    # the plan; every [V, B^T V] goes through the one
    # partner-routing helper; factor_residuals runs only where a
    # non-unitary factor the package built is certified (the record's
    # fill and certify share _certificate) and where verify --mode diag
    # checks a given one, and a unitary factor is certified from its
    # frame's Grams in that same place. The 2n x 2n decomposition
    # residuals are formed only by the independent verifier.
    assert _callers("_unitary_factor") == [("diagonalize", "_certified")]
    assert sorted(_callers("_with_partners")) == [
        ("decompose", "reconstruct_from_normal_factor"),
        ("diagonalize", "_unitary_factor"),
        ("structure", "build_unitary_automorphism")]
    assert sorted(_callers("_route_partners")) == [
        ("diagonalize", "_route"), ("structure", "_with_partners")]
    assert sorted(_callers("factor_residuals")) == [
        ("cli", "_verify_diag"), ("diagonalize", "_certificate")]
    assert _callers("_frame_certificate") == [("diagonalize", "_certificate")]
    assert sorted(_callers("_certificate")) == [
        ("diagonalize", "_factored"), ("diagonalize", "certify")]
    assert _callers("_decomposition_residuals") == [
        ("decompose", "verify_decomposition")]


def test_report_and_constructors_take_one_path():
    # S0 is routed and certified only where a plan is built, and a plan is
    # built only on the path every entry point takes, the report included,
    # so the report's yes is S0's certificate; no report-only plan exists.
    assert _callers("_route") == [("diagonalize", "_planned")]
    assert _callers("_planned") == [("diagonalize", "_certified")]
    assert sorted(_callers("_certified")) == [
        ("decompose", "decompose_additive"),
        ("decompose", "structured_root"),
        ("diagonalize", "diagonalizability_report"),
        ("diagonalize", "structured_diagonalize"),
        ("diagonalize", "unitary_refine")]
    assert not {(module, top) for module, top, node in _package_nodes()
                if "_spectral_plan" in (getattr(node, "id", None),
                                        getattr(node, "attr", None),
                                        getattr(node, "name", None))}


def test_only_the_spectral_cuts_keep_a_unit_floor():
    # Every relative residual divides by its own scale through core._ratio,
    # with no floor at 1, so that a residual of s A reads as that of A. A
    # max(1, .) floor is left only in the spectral cuts (the cluster
    # radius and the defect roundoff of merged clusters) and in the
    # spectrum comparison the benchmark checks planted spectra with.
    floored = set()
    for module, top, node in _package_nodes():
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                == "max" and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 1):
            floored.add((module, top))
    # The CLI's worker count is a clamp, not a scale.
    assert floored - {("cli", "cmd_analyze")} == {
        ("spectral", "cluster_radius"), ("spectral", "group_eigenvalues"),
        ("spectral", "eigenvalues_match")}
    assert sorted(set(_callers("_ratio"))) == [
        ("core", "rel_residual"), ("decompose", "_annihilation"),
        ("decompose", "_decomposition_bounds"),
        ("diagonalize", "_frame_certificate"),
        ("diagonalize", "_similarity"), ("diagonalize", "factor_residuals")]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_scales_each_step_by_its_runs_yardstick(tmp_path):
    bench_pairs = _bench_pairs()
    out = tmp_path / "bench" / "out"
    out.mkdir(parents=True)
    metrics = {"yardstick_ms.p50": 4.0, "classify_ms.p50": 2.0,
               "chain_ms.p50": 10.0, "classify_ms.p90": 3.0,
               "setup_s": 0.5}
    (out / "small-mixed-seed7-trace0.json").write_text(json.dumps(
        {"metrics": {name: {"value": value}
                     for name, value in metrics.items()}}))
    medians = bench_pairs.step_medians(tmp_path, "small-mixed", 7)
    assert medians == {"yardstick_ms.p50": 4.0, "classify_ms.p50": 2.0,
                       "chain_ms.p50": 10.0}
    # A machine twice as slow doubles every step and the yardstick alike.
    for speed in (1.0, 2.0):
        assert bench_pairs.yardstick_scaled(
            {name: speed * value for name, value in medians.items()}) == {
            "yardstick_ms.p50": speed * 4.0,
            "classify_ms.p50/yardstick": 0.5,
            "chain_ms.p50/yardstick": 2.5}


def test_bench_pairs_prints_both_sides_of_the_traced_layers():
    bench_pairs = _bench_pairs()

    def summary(**values):
        return {"failed": 0, "metrics": {
            name.replace("__", "."): {"value": value, "unit": "ms"}
            for name, value in values.items()}}

    base = bench_pairs.traced_metrics(summary(
        layer__spectral__self_ms=2.0, spectral__pair_conjugates__self_ms=0.5,
        lapack__eig__calls=1.0, lapack__eig__ms=3.0,
        spectral__eigen__calls=4.0, forms__adjoint__calls=6.0,
        trace__self_sum_ms=9.0))
    # Self times, kernel calls and eigen calls; not kernel times, other
    # call counts or the trace's own totals.
    assert base == {"layer.spectral.self_ms": 2.0,
                    "spectral.pair_conjugates.self_ms": 0.5,
                    "lapack.eig.calls": 1.0, "spectral.eigen.calls": 4.0}
    change = bench_pairs.traced_metrics(summary(
        layer__spectral__self_ms=1.5, spectral__pair_conjugates__self_ms=0.0,
        lapack__eig__calls=1.0, spectral__eigen__calls=4.0,
        layer__bench__self_ms=1.0))
    assert bench_pairs.traced_lines(base, change) == [
        "lapack.eig.calls: 1 -> 1, +0.0%",
        "layer.spectral.self_ms: 2 -> 1.5, -25.0%",
        "spectral.eigen.calls: 4 -> 4, +0.0%",
        "spectral.pair_conjugates.self_ms: 0.5 -> 0, -100.0%"]
    assert bench_pairs.traced_lines({"lapack.qr.calls": 0.0},
                                    {"lapack.qr.calls": 2.0}) == [
        "lapack.qr.calls: 0 -> 2"]
