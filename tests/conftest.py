import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import structdiag
import structdiag.diagonalize as diagonalize_module
from structdiag import (
    DiagonalizabilityReport,
    NotStructuredDiagonalizable,
    PortableRng,
    StructDiagError,
    StructuredDiagonalization,
    assemble_core_diagonal,
    diagonalizability_report,
    form_for_kind,
    random_structured_diagonalizable,
    structured_diagonalize,
    variant_for_kind,
)
from structdiag.core import DEFAULT_TOL

# The directory holding the structdiag package this test run imported.
PACKAGE_PARENT = Path(structdiag.__file__).resolve().parents[1]


def run_python(*args, cwd=None, env=None):
    """Run ``python *args`` in a fresh process.

    Returns (exit code, stdout, stderr). The child imports the same
    structdiag as the test run, whatever ``cwd`` is: PYTHONPATH starts
    with the absolute PACKAGE_PARENT, then any inherited entries. An
    inherited STRUCTDIAG_TOL is dropped, so the CLI sees its own
    default unless the caller passes one in ``env``.
    """
    child_env = dict(os.environ)
    child_env.pop("STRUCTDIAG_TOL", None)
    child_env.update(env or {})
    inherited = child_env.get("PYTHONPATH")
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_PARENT)] + ([inherited] if inherited else []))
    proc = subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=child_env)
    return proc.returncode, proc.stdout, proc.stderr


def run_structdiag(*args, cwd=None, env=None):
    """Run ``python -m structdiag *args`` in a fresh process (run_python)."""
    return run_python("-m", "structdiag", *args, cwd=cwd, env=env)


def gaussian_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    return PortableRng(seed).complex_matrix(rows, cols)


def random_unitary(m: int, seed: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian_matrix(m, m, seed))
    d = np.diag(r).copy()
    d[np.abs(d) == 0] = 1.0
    return q * (d / np.abs(d))


def random_hermitian(m: int, seed: int) -> np.ndarray:
    g = gaussian_matrix(m, m, seed)
    return (g + g.conj().T) / 2.0


def random_skew_hermitian(m: int, seed: int) -> np.ndarray:
    g = gaussian_matrix(m, m, seed)
    return (g - g.conj().T) / 2.0


def skew_block_instance(n: int, seed: int, min_sv: float = 1e-6) -> np.ndarray:
    """[[A, B], [B, -A]] with skew-Hermitian A, B, retried until the
    smallest singular value clears min_sv.
    """
    for attempt in range(64):
        a = random_skew_hermitian(n, seed * 1000 + 2 * attempt)
        b = random_skew_hermitian(n, seed * 1000 + 2 * attempt + 1)
        m = np.block([[a, b], [b, -a]])
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > min_sv * s[0]:
            return m
    raise AssertionError("could not draw a well-conditioned instance")


def near_normal_defective() -> np.ndarray:
    """diag(M, M^H) with M = [[1, 5e-6], [0, 1]]: skew-Hamiltonian for J4,
    normal at the default 1e-10 structure tolerance, and defective."""
    m = np.array([[1.0, 5e-6], [0.0, 1.0]], dtype=complex)
    return np.block([[m, np.zeros((2, 2))], [np.zeros((2, 2)), m.conj().T]])


def chain_probe(seed: int):
    """(A, form): the planted normal 2n = 16 input of the seed, skew-
    Hamiltonian for even seeds and per-Hermitian for odd ones, with its
    first L = 2 + seed % 4 core values set to 0.3 + 0.9 r j (j < L),
    r = 1e-8 max(1, max |full diagonal|): a chain each within the cluster
    radius of the next, merged into one cluster."""
    kind = ("skew-hamiltonian", "per-hermitian")[seed % 2]
    inst = random_structured_diagonalizable(kind, 8, seed)
    form = form_for_kind(kind, 8)
    r = 1e-8 * max(1.0, np.max(np.abs(inst.full_diagonal)))
    core = inst.core.copy()
    core[:2 + seed % 4] = 0.3 + 0.9 * r * np.arange(2 + seed % 4)
    full = assemble_core_diagonal(core, form.tag, variant_for_kind(kind))
    q = inst.transform
    return q @ np.diag(full) @ q.conj().T, form


def _cold(call, *args):
    """call(*args) on an empty plan slot: what it returns or raises."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagonalize_module, "_PLAN_SLOT", None)
        try:
            return call(*args)
        except StructDiagError as exc:
            return exc


def agreed_report(a, form, tol=DEFAULT_TOL):
    """The cold diagonalizability_report of A (or the error it raises),
    checked against a cold structured_diagonalize on the one-path rule: a
    yes means that it certifies, a no that it raises
    NotStructuredDiagonalizable, and an error that it raises the same
    type."""
    report = _cold(diagonalizability_report, a, form, tol)
    built = _cold(structured_diagonalize, a, form, tol)
    if isinstance(report, DiagonalizabilityReport):
        said = (StructuredDiagonalization if report.decision
                else NotStructuredDiagonalizable)
    else:
        said = type(report)
    assert type(built) is said, (report, built)
    return report


@pytest.fixture
def rng():
    return PortableRng(12345)
