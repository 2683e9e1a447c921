"""The repository's benchmark declaration, scripts and tolerance contract
against the package."""

import ast
import importlib
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
# split_normal and reconstruct_from_normal_factor), and the CLI help
# text. Keyed by module and top-level definition.
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
    # checked functions see only caller-supplied matrices and the exact
    # form constants of the counterexample.
    assert checked_callers == {("forms", "inertia"),
                               ("forms", "congruence_to"),
                               ("generators", "counterexample_unbalanced")}


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
