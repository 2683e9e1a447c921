"""Structure classification and unitary automorphism construction.

classify() measures every structure flag as a Frobenius-scaled residual
and judges it with core._check, whose Check it re-exports. A* with its
selfadjoint and skewadjoint residuals, and the normality residual, go
into the per-input record the entry points share (diagonalize._record),
so classify and the entry points after it on the same A form them once;
_normal_check also judges the matrices the decomposition routines build.
build_unitary_automorphism assembles a unitary automorphism from an
orthonormal Lagrangian frame V: [V, B^T V] in the partner layout the
constructive diagonalization uses (_with_partners, which the unitary
constructions share).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOL, FRAME_INPUT_TOL, Check, TolerancePolicy,
                   _check, _within, fro, herm_transpose, rel_residual)
from .errors import DimensionMismatch, NotLagrangianFrame, NotStructured
from .forms import FormTag, InnerProduct, _form_times, _inverse_times

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
# The eight flags of a StructureReport, in report order.
FLAG_NAMES = ("hermitian", "skew_hermitian", "unitary", "euclidean_normal",
              "selfadjoint", "skewadjoint", "automorphism", "b_normal")
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
        names = {"hermitian": "hermitian", "skew_hermitian": "skew-hermitian",
                 "unitary": "unitary", "euclidean_normal": "normal"}
        if self.form_tag is not FormTag.EUCLIDEAN:
            names.update(_NAMES[self.form_tag], b_normal="b-normal")
        return [name for flag, name in names.items() if getattr(self, flag).ok]

    def to_dict(self) -> dict:
        d = {field: getattr(self, field)._asdict() for field in FLAG_NAMES}
        d["form"] = self.form_tag.value
        d["structures"] = self.true_names()
        return d


def _check_square(a: np.ndarray, form: InnerProduct) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("classification requires a square matrix")
    if a.shape[0] != form.dim:
        raise DimensionMismatch("matrix dimension does not match the form")


def _normal_check(a: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL,
                  aha: np.ndarray | None = None) -> Check:
    """classify's euclidean_normal flag of a square matrix, the residual
    of A^H A (``aha`` when the caller has formed it) against A A^H."""
    ah = herm_transpose(a)
    return _check(rel_residual(ah @ a if aha is None else aha, a @ ah), tol)


def classify(a: np.ndarray, form: InnerProduct,
             tol: TolerancePolicy = DEFAULT_TOL) -> StructureReport:
    """Residual-based structure report of a square matrix against a form.

    A*, its residuals against A and -A and the normality residual come
    from A's record, which classify fills and stores for the entry points
    that follow it on the same A.
    """
    # diagonalize builds on this module, so it is imported when called.
    from .diagonalize import _record, _store, _with_normality
    a = np.asarray(a, dtype=np.complex128)
    record = _record(a, form)
    ah = herm_transpose(a)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    aha = ah @ a
    record = _with_normality(record, a, aha)
    _store(record)
    a_star = record.a_star
    star_a = a_star @ a
    return StructureReport(
        hermitian=_check(rel_residual(a, ah), tol),
        skew_hermitian=_check(rel_residual(a, -ah), tol),
        unitary=_check(rel_residual(aha, eye), tol),
        euclidean_normal=_check(record.normal, tol),
        selfadjoint=_check(record.selfadjoint, tol),
        skewadjoint=_check(record.skewadjoint, tol),
        automorphism=_check(rel_residual(star_a, eye), tol),
        b_normal=_check(rel_residual(a @ a_star, star_a), tol),
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
    if not _within(FRAME_INPUT_TOL, res_orth):
        raise NotLagrangianFrame(
            f"frame columns not orthonormal (residual {res_orth:.3e})",
            failed="orthonormality", residual=res_orth)
    if not _within(FRAME_INPUT_TOL, res_neut):
        raise NotLagrangianFrame(
            f"frame span not neutral (residual {res_neut:.3e})",
            failed="neutrality", residual=res_neut)


def _route_partners(x_cols: np.ndarray, y_cols: np.ndarray,
                    form_tag: FormTag) -> np.ndarray:
    """Place partner columns at (j, n+j) for J and (j, 2n+1-j) for R."""
    if form_tag is FormTag.PERPLECTIC_R:
        y_cols = y_cols[:, ::-1]
    return np.concatenate([x_cols, y_cols], axis=1)


def _with_partners(v: np.ndarray, form: InnerProduct) -> np.ndarray:
    """[V, B^T V] in partner positions: each column v_j of V partnered with
    B^T v_j, B^T = B^{-1} (a signed row permutation) for J and R."""
    return _route_partners(v, _inverse_times(form, v), form.tag)


def build_unitary_automorphism(v: np.ndarray, form: InnerProduct) -> np.ndarray:
    """Unitary automorphism of the J or R form whose first n columns are
    the orthonormal Lagrangian frame V: each column v_j is partnered with
    B^T v_j, giving [V, J^T V] and [V, R V R_n] (_with_partners)."""
    if form.tag not in (FormTag.SYMPLECTIC_J, FormTag.PERPLECTIC_R):
        raise NotStructured(
            "unitary automorphism frames require the J or R form")
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] != form.dim or v.shape[1] == 0:
        raise NotLagrangianFrame(
            f"frame must be a nonempty {form.dim} x n matrix", failed="shape")
    _check_frame(v, form)
    return _with_partners(v, form)
