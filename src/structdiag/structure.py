"""Structure classification and unitary automorphism construction.

classify() measures every structure flag as a Frobenius-scaled residual,
through _check; the entry points, which read at most two flags, call its
_adjoint_checks and _normal_check alone. build_unitary_automorphism
assembles a unitary automorphism from an orthonormal Lagrangian frame,
with the partner layout the constructive diagonalization uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (DEFAULT_TOL, FRAME_INPUT_TOL, TolerancePolicy, fro,
                   herm_transpose, rel_residual)
from .errors import DimensionMismatch, NotLagrangianFrame, NotStructured
from .forms import FormTag, InnerProduct, _form_times, adjoint


class Check(NamedTuple):
    ok: bool
    residual: float


# Form-specific display names for the three adjoint-relative structures.
_NAMES = {
    FormTag.SYMPLECTIC_J: {
        "selfadjoint": "skew-hamiltonian",
        "skewadjoint": "hamiltonian",
        "automorphism": "symplectic",
    },
    FormTag.PERPLECTIC_R: {
        "selfadjoint": "per-hermitian",
        "skewadjoint": "perskew-hermitian",
        "automorphism": "perplectic",
    },
    FormTag.EUCLIDEAN: {
        "selfadjoint": "hermitian",
        "skewadjoint": "skew-hermitian",
        "automorphism": "unitary",
    },
}
# Every name StructureReport.true_names can return, under any form.
STRUCTURE_NAMES = frozenset({"normal", "b-normal"}.union(
    *(names.values() for names in _NAMES.values())))


@dataclass(frozen=True)
class StructureReport:
    hermitian: Check
    skew_hermitian: Check
    unitary: Check
    euclidean_normal: Check
    selfadjoint: Check
    skewadjoint: Check
    automorphism: Check
    b_normal: Check
    form_tag: FormTag

    def true_names(self) -> list[str]:
        """Form-specific names of all satisfied structures."""
        names = []
        if self.hermitian.ok:
            names.append("hermitian")
        if self.skew_hermitian.ok:
            names.append("skew-hermitian")
        if self.unitary.ok:
            names.append("unitary")
        if self.euclidean_normal.ok:
            names.append("normal")
        local = _NAMES[self.form_tag]
        if self.form_tag is not FormTag.EUCLIDEAN:
            if self.selfadjoint.ok:
                names.append(local["selfadjoint"])
            if self.skewadjoint.ok:
                names.append(local["skewadjoint"])
            if self.automorphism.ok:
                names.append(local["automorphism"])
            if self.b_normal.ok:
                names.append("b-normal")
        return names

    def to_dict(self) -> dict:
        d = {}
        for field in ("hermitian", "skew_hermitian", "unitary",
                      "euclidean_normal", "selfadjoint", "skewadjoint",
                      "automorphism", "b_normal"):
            c = getattr(self, field)
            d[field] = {"ok": c.ok, "residual": c.residual}
        d["form"] = self.form_tag.value
        d["structures"] = self.true_names()
        return d


def _check(x: np.ndarray, y: np.ndarray, tol: TolerancePolicy) -> Check:
    """One structure flag: the residual of x against y, within
    structure_tol or not."""
    res = rel_residual(x, y)
    return Check(res <= tol.structure_tol, res)


def _check_square(a: np.ndarray, form: InnerProduct) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("classification requires a square matrix")
    if a.shape[0] != form.dim:
        raise DimensionMismatch("matrix dimension does not match the form")


class _AdjointChecks(NamedTuple):
    selfadjoint: Check
    skewadjoint: Check


def _adjoint_checks(a: np.ndarray, form: InnerProduct,
                    tol: TolerancePolicy) -> _AdjointChecks:
    """classify's selfadjoint and skewadjoint flags, and nothing else, for
    the entry points that read only these two."""
    a = np.asarray(a, dtype=np.complex128)
    _check_square(a, form)
    a_star = adjoint(a, form)
    return _AdjointChecks(_check(a_star, a, tol), _check(a_star, -a, tol))


def _normal_check(a: np.ndarray, tol: TolerancePolicy) -> Check:
    """classify's euclidean_normal flag of a square matrix."""
    ah = herm_transpose(a)
    return _check(ah @ a, a @ ah, tol)


def classify(a: np.ndarray, form: InnerProduct,
             tol: TolerancePolicy = DEFAULT_TOL) -> StructureReport:
    """Residual-based structure report of a square matrix against a form."""
    a = np.asarray(a, dtype=np.complex128)
    selfadjoint, skewadjoint = _adjoint_checks(a, form, tol)
    ah = herm_transpose(a)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    a_star = adjoint(a, form)
    star_a = a_star @ a
    return StructureReport(
        hermitian=_check(a, ah, tol),
        skew_hermitian=_check(a, -ah, tol),
        unitary=_check(ah @ a, eye, tol),
        euclidean_normal=_normal_check(a, tol),
        selfadjoint=selfadjoint,
        skewadjoint=skewadjoint,
        automorphism=_check(star_a, eye, tol),
        b_normal=_check(a @ a_star, star_a, tol),
        form_tag=form.tag,
    )


def frame_residuals(v: np.ndarray, form: InnerProduct) -> tuple[float, float]:
    """Orthonormality ||V^H V - I||_F and neutrality ||(V^H B) V||_F."""
    vh = herm_transpose(v)
    return fro(vh @ v - np.eye(v.shape[1])), fro(_form_times(form, vh) @ v)


def _check_frame(v: np.ndarray, form: InnerProduct) -> None:
    two_n, n = v.shape[0], v.shape[1]
    if two_n != 2 * n:
        raise NotLagrangianFrame(
            f"frame must be 2n x n, got {two_n} x {n}", failed="shape")
    res_orth, res_neut = frame_residuals(v, form)
    if res_orth > FRAME_INPUT_TOL:
        raise NotLagrangianFrame(
            f"frame columns not orthonormal (residual {res_orth:.3e})",
            failed="orthonormality", residual=res_orth)
    if res_neut > FRAME_INPUT_TOL:
        raise NotLagrangianFrame(
            f"frame span not neutral (residual {res_neut:.3e})",
            failed="neutrality", residual=res_neut)


def _route_partners(x_cols: np.ndarray, y_cols: np.ndarray,
                    form_tag: FormTag) -> np.ndarray:
    """Place partner columns at (j, n+j) for J and (j, 2n+1-j) for R."""
    if form_tag is FormTag.SYMPLECTIC_J:
        return np.hstack([x_cols, y_cols])
    return np.hstack([x_cols, y_cols[:, ::-1]])


def build_unitary_automorphism(v: np.ndarray, form: InnerProduct) -> np.ndarray:
    """Unitary automorphism of the J or R form whose first n columns are
    the orthonormal Lagrangian frame V: each column v_j is partnered with
    B^T v_j, giving [V, J^T V] and [V, R V R_n]."""
    if form.tag not in (FormTag.SYMPLECTIC_J, FormTag.PERPLECTIC_R):
        raise NotStructured(
            "unitary automorphism frames require the J or R form")
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] != form.dim or v.shape[1] == 0:
        raise NotLagrangianFrame(
            f"frame must be a nonempty {form.dim} x n matrix", failed="shape")
    _check_frame(v, form)
    # B^T V = (V^T B)^T.
    return _route_partners(v, _form_times(form, v.T).T, form.tag)
