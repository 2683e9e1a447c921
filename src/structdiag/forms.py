"""Indefinite inner products [x, y] = x^H B y and their basic calculus.

Covers the canonical symplectic (J), perplectic (R) and Euclidean forms:
adjoints, Gram matrices, inertia, and constructive congruence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    GRAM_ZERO_TOL,
    TolerancePolicy,
    _check,
    fro,
    herm_transpose,
    rel_residual,
)
from .errors import (
    DimensionMismatch,
    InertiaMismatch,
    InvalidSize,
    NotStructured,
)


class FormKind(enum.Enum):
    HERMITIAN = "hermitian"
    SKEW_HERMITIAN = "skew-hermitian"


class FormTag(enum.Enum):
    EUCLIDEAN = "euclidean"
    SYMPLECTIC_J = "symplectic"
    PERPLECTIC_R = "perplectic"


def symplectic_j(n: int) -> np.ndarray:
    """[[0, I_n], [-I_n, 0]], the canonical skew-Hermitian form matrix."""
    if n < 1:
        raise InvalidSize("n must be >= 1")
    j = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def flip(m: int) -> np.ndarray:
    """Anti-identity (exchange) matrix of size m."""
    if m < 1:
        raise InvalidSize("m must be >= 1")
    return np.fliplr(np.eye(m, dtype=np.complex128))


def perplectic_r(n: int) -> np.ndarray:
    """The 2n x 2n exchange matrix, a Hermitian involution."""
    return flip(2 * n)


@dataclass(frozen=True, eq=False)
class InnerProduct:
    """The form [x, y] = x^H B y of a tag: B is exactly J, R or I."""

    matrix: np.ndarray
    tag: FormTag

    def __post_init__(self):
        b = self.matrix
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise DimensionMismatch("form matrix must be square")
        if self.tag is FormTag.SYMPLECTIC_J:
            canonical = symplectic_j(b.shape[0] // 2)
        elif self.tag is FormTag.PERPLECTIC_R:
            canonical = perplectic_r(b.shape[0] // 2)
        else:
            canonical = np.eye(b.shape[0])
        if not np.array_equal(b, canonical):
            raise NotStructured(f"the {self.tag.value} tag requires its "
                                f"canonical {self.kind.value} matrix")

    @property
    def kind(self) -> FormKind:
        """J is skew-Hermitian; R and I are Hermitian."""
        return (FormKind.SKEW_HERMITIAN if self.tag is FormTag.SYMPLECTIC_J
                else FormKind.HERMITIAN)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def half(self) -> int:
        """n for a 2n-dimensional J or R form."""
        return self.dim // 2


def symplectic_form(n: int) -> InnerProduct:
    return InnerProduct(symplectic_j(n), FormTag.SYMPLECTIC_J)


def perplectic_form(n: int) -> InnerProduct:
    return InnerProduct(perplectic_r(n), FormTag.PERPLECTIC_R)


def euclidean_form(m: int) -> InnerProduct:
    if m < 1:
        raise InvalidSize("m must be >= 1")
    return InnerProduct(np.eye(m, dtype=np.complex128), FormTag.EUCLIDEAN)


def _require_j_or_r(tag: FormTag) -> None:
    """NotStructured unless the tag is J or R: the package's criteria,
    frames and canonical diagonals exist for those two forms alone."""
    if tag not in (FormTag.SYMPLECTIC_J, FormTag.PERPLECTIC_R):
        raise NotStructured(f"the J or R form is required, not the "
                            f"{tag.value} form")


def _check_dim(a: np.ndarray, form: InnerProduct):
    if a.shape[0] != form.dim:
        raise DimensionMismatch(
            f"matrix rows {a.shape[0]} do not match form dimension {form.dim}")


def adjoint(a: np.ndarray, form: InnerProduct) -> np.ndarray:
    """Form adjoint B^{-1} A^H B.

    J^{-1} = -J and R^{-1} = R, so for them it is a signed block swap
    (two signed permutations of A^H) and a double flip of A^H, equal to
    the LU solve entry for entry.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("adjoint requires a square matrix")
    _check_dim(a, form)
    ah = herm_transpose(a)
    if form.tag is FormTag.EUCLIDEAN:
        return ah
    if form.tag is FormTag.PERPLECTIC_R:
        return ah[::-1, ::-1]
    return _inverse_times(form, _form_times(form, ah))


def _times_form(form: InnerProduct, x: np.ndarray) -> np.ndarray:
    """B x for a 2-D x, entry for entry equal to form.matrix @ x: J and R
    act as signed row permutations, I returns x itself. The result is
    C-contiguous, so a product with it goes to the same BLAS kernel."""
    if form.tag is FormTag.PERPLECTIC_R:
        return np.ascontiguousarray(x[::-1])
    if form.tag is FormTag.SYMPLECTIC_J:
        n = form.half
        return np.concatenate([x[n:], -x[:n]])
    return x


def _inverse_times(form: InnerProduct, x: np.ndarray) -> np.ndarray:
    """B^{-1} x for a 2-D x: B^{-1} is -J for J and B itself for R and I,
    so it too acts as a signed row permutation, entry for entry exact."""
    if form.tag is FormTag.SYMPLECTIC_J:
        n = form.half
        return np.concatenate([-x[n:], x[:n]])
    return _times_form(form, x)


def _form_times(form: InnerProduct, x: np.ndarray) -> np.ndarray:
    """x B for a 2-D x (or each matrix of a stack), entry for entry equal
    to x @ form.matrix: J and R act as signed column permutations, I
    returns x itself."""
    if form.tag is FormTag.PERPLECTIC_R:
        return np.ascontiguousarray(x[..., ::-1])
    if form.tag is FormTag.SYMPLECTIC_J:
        n = form.half
        return np.concatenate([-x[..., n:], x[..., :n]], axis=-1)
    return x


def _halves(x: np.ndarray, form: InnerProduct
            ) -> tuple[np.ndarray, np.ndarray]:
    """(U+^H x, U-^H x) for a 2n-row x, U+ and U- orthonormal bases of the
    +1 and -1 eigenspaces of the Hermitian involution R or iJ:
    U+/- = [F; +/-I]/sqrt 2 under R (F the n x n flip) and
    [I; -/+iI]/sqrt 2 under J, applied by slicing, a flip and a sign."""
    n = form.half
    top, bottom = x[:n], x[n:]
    if form.tag is FormTag.PERPLECTIC_R:
        top = top[::-1]
    else:
        bottom = 1j * bottom
    return (top + bottom) / np.sqrt(2.0), (top - bottom) / np.sqrt(2.0)


def _graph(x: np.ndarray, y: np.ndarray, form: InnerProduct) -> np.ndarray:
    """(U+ x + U- y)/sqrt 2 (see _halves) for n-row x and y. Its Gram
    under R or iJ is (x^H x - y^H y)/2 and its own is (x^H x + y^H y)/2,
    so it is orthonormal and neutral whenever x and y are orthonormal."""
    top, bottom = (x + y) / 2.0, (x - y) / 2.0
    if form.tag is FormTag.PERPLECTIC_R:
        top = top[::-1]
    else:
        bottom = -1j * bottom
    return np.concatenate([top, bottom])


def gram(v: np.ndarray, form: InnerProduct) -> np.ndarray:
    """Gram matrix (V^H B) V of a column frame."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2:
        raise DimensionMismatch("frame must be 2-D")
    _check_dim(v, form)
    return _form_times(form, herm_transpose(v)) @ v


@dataclass(frozen=True)
class Inertia:
    """Counts (p, q, r) of negative, positive, and zero eigenvalues.

    For skew-Hermitian input the counts refer to the imaginary parts and
    alpha is i; for Hermitian input alpha is 1.
    """

    p: int
    q: int
    r: int
    alpha: complex

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    @property
    def balanced(self) -> bool:
        return self.p == self.q and self.r == 0


def _sylvester(h: np.ndarray, kind: FormKind
               ) -> tuple[np.ndarray, Inertia] | list[tuple[np.ndarray,
                                                          Inertia]]:
    """Nonsingular U with U^H H U = diag(-alpha I_p, alpha I_q, 0_r), and
    the inertia, from one eigh of the Hermitian part of H (or -iH).

    Eigenvalues within GRAM_ZERO_TOL ||H||_F of 0 are zeros; columns for
    the others are scaled by 1/sqrt(|eigenvalue|); the order is negatives,
    then positives (each ascending), then zeros. H is not checked: the
    package's own Grams are (skew-)Hermitian up to roundoff. A stack
    (g, m, m) of such H takes one stacked eigh and gives the list of each
    slice's (U, inertia), equal byte for byte to the calls slice by
    slice; a single H is its one-slice case.
    """
    if h.ndim == 2:
        return _sylvester(h[None], kind)[0]
    hh = herm_transpose(h)
    if kind is FormKind.HERMITIAN:
        w, u = np.linalg.eigh((h + hh) / 2.0)
    else:
        w, u = np.linalg.eigh(-1j * (h - hh) / 2.0)
    alpha = 1.0 if kind is FormKind.HERMITIAN else 1j
    zero_cut = GRAM_ZERO_TOL * np.array([fro(h_k) for h_k in h])[:, None]
    # 0 negative, 1 positive, 2 zero: a stable sort keeps each class
    # ascending.
    zero = np.abs(w) <= zero_cut
    key = (w > zero_cut) + 2 * zero
    order = key.argsort(axis=-1, kind="stable")
    u = u * (1.0 / np.sqrt(np.where(zero, 1.0, np.abs(w))))[:, None, :]
    return [(u_k[:, o_k], Inertia(k.count(0), k.count(1), k.count(2), alpha))
            for u_k, o_k, k in zip(u, order, key.tolist())]


def inertia(h: np.ndarray, kind: FormKind,
            tol: TolerancePolicy = DEFAULT_TOL) -> Inertia:
    """Sylvester inertia of a (skew-)Hermitian matrix."""
    return sylvester_canonical(h, kind, tol)[1]


def sylvester_canonical(h: np.ndarray, kind: FormKind,
                        tol: TolerancePolicy = DEFAULT_TOL
                        ) -> tuple[np.ndarray, Inertia]:
    """_sylvester of a caller's matrix; NotStructured unless it is
    Hermitian (skew-Hermitian for that kind) to structure_tol."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch("inertia requires a square matrix")
    sign, name = ((1.0, "Hermitian") if kind is FormKind.HERMITIAN
                  else (-1.0, "skew-Hermitian"))
    check = _check(rel_residual(h, sign * herm_transpose(h)), tol)
    if not check.ok:
        raise NotStructured(f"matrix is not {name}", check.residual)
    return _sylvester(h, kind)


def congruence_to(h: np.ndarray, c: np.ndarray, kind: FormKind,
                  tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Nonsingular S with S^H H S = C, provided H and C share their inertia.

    Both sides are routed through sylvester_canonical; the shared
    negatives/positives/zeros ordering makes the alignment permutation the
    identity. S = U_h U_c^{-1}, and the columns u_j of a Sylvester factor
    are orthogonal, so U_c^{-1} = diag(1/||u_j||^2) U_c^H.
    """
    h = np.asarray(h, dtype=np.complex128)
    c = np.asarray(c, dtype=np.complex128)
    if h.shape != c.shape:
        raise DimensionMismatch("congruent matrices must share dimensions")
    u_h, in_h = sylvester_canonical(h, kind, tol)
    u_c, in_c = sylvester_canonical(c, kind, tol)
    if in_h.counts != in_c.counts:
        raise InertiaMismatch(
            f"inertia {in_h.counts} differs from target {in_c.counts}")
    u_c_inv = herm_transpose(u_c) / np.linalg.norm(u_c, axis=0)[:, None] ** 2
    return u_h @ u_c_inv
