"""The repository's benchmark declaration and scripts against the package."""

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
                         ("decomposition_demo.py", ("--n", 2, "--seed", 7))]:
        code, _, stderr = run_python(REPO / "scripts" / script, *args)
        assert code == 0, (script, stderr)
