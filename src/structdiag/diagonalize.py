"""Structure-preserving diagonalization for the J and R forms.

An eigenvalue is critical when its group of the selfadjoint A_hat = A
or i A is self-conjugate in the one conjugate pairing of A_hat's groups
(spectral.pair_conjugates); see Gohberg, Lancaster & Rodman, Indefinite
Linear Algebra and Applications (2005), ch. 5. The decision procedure
tests, per critical eigenvalue, whether the eigenspace Gram has balanced
inertia. The constructive routine then splits the cross Gram of every
conjugate pair of eigenbases evenly between its two sides (van der
Sluis's column equilibration, limited to the scalings the form allows),
so that it becomes the identity, pairs the negative with the positive
Gram directions of each critical eigenspace into partner columns,
corrects all partner columns at once for neutrality to first order, and
routes them into the positions that reproduce the form matrix. On
normal input the eigenspace bases are orthonormal, so the automorphism
is unitary up to the eigenvector error; unitary_refine runs the same
construction, then one Newton-Schulz step towards the unitary polar
factor, which for the unitary J and R is an automorphism too (Higham,
Mackey, Mackey & Tisseur, SIAM J. Matrix Anal. Appl. 2005), and
certifies unitarity as well. The same pairing (_balanced_pairs) gives
the neutral half of the complement Gram in Lagrangian completion.

Every entry point checks only the structure it reads (selfadjoint or
skewadjoint, and normality on the unitary routes), then eigendecomposes,
groups, pairs and factors each critical Gram once, in one spectral plan
that the decision and the construction share. J and R enter every
product as signed permutations (forms._times_form, forms._form_times),
never as dense matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_TOL,
    FACTOR_GUARANTEE,
    FRAME_GUARANTEE,
    TolerancePolicy,
    _within,
    herm_transpose,
    rel_residual,
    solve_linear,
)
from .errors import (
    FrameTooLarge,
    NotNeutral,
    NotNormal,
    NotStructured,
    NotStructuredDiagonalizable,
    NumericalBreakdown,
)
from .forms import (
    FormKind,
    FormTag,
    Inertia,
    InnerProduct,
    _form_times,
    _sylvester,
    _times_form,
    gram,
)
from .spectral import (
    ConjugatePairing,
    EigenGroup,
    eigen,
    group_eigenvalues,
    pair_conjugates,
)
from .structure import (
    StructureReport,
    _AdjointChecks,
    _adjoint_checks,
    _check_square,
    _normal_check,
    _route_partners,
    frame_residuals,
)


class Variant(enum.Enum):
    SELFADJOINT = "selfadjoint"
    SKEWADJOINT = "skewadjoint"


class AxisClass(enum.Enum):
    """Axis of a critical eigenvalue; BOTH within the cluster radius of 0."""

    REAL = "real"
    PURELY_IMAGINARY = "purely-imaginary"
    BOTH = "both"


@dataclass(frozen=True)
class EigenvalueBalance:
    value: complex
    axis_class: AxisClass
    multiplicity: int
    gram_inertia: Inertia
    balanced: bool


@dataclass(frozen=True)
class DiagonalizabilityReport:
    decision: bool
    variant: Variant
    per_eigenvalue: tuple[EigenvalueBalance, ...]
    reason: str

    def to_dict(self) -> dict:
        return {
            "decision": self.decision,
            "variant": self.variant.value,
            "per_eigenvalue": [
                {
                    "value": [e.value.real, e.value.imag],
                    "axis_class": e.axis_class.value,
                    "multiplicity": e.multiplicity,
                    "gram_inertia": list(e.gram_inertia.counts),
                    "balanced": e.balanced,
                }
                for e in self.per_eigenvalue
            ],
            "reason": self.reason,
        }


@dataclass(frozen=True)
class StructuredDiagonalization:
    """Automorphism S with S^{-1} A S equal to the canonical diagonal.

    ``core`` holds the first-half diagonal d_1..d_n; the full diagonal
    follows the variant's mirror pattern (see assemble_core_diagonal).
    """

    transform: np.ndarray
    core: np.ndarray
    form_tag: FormTag
    variant: Variant
    residual_automorphism: float
    residual_similarity: float
    unitary: bool

    @property
    def full_diagonal(self) -> np.ndarray:
        return assemble_core_diagonal(self.core, self.form_tag, self.variant)

    @property
    def diagonal_matrix(self) -> np.ndarray:
        return np.diag(self.full_diagonal)


def assemble_core_diagonal(core: np.ndarray, form_tag: FormTag,
                           variant: Variant) -> np.ndarray:
    """Mirror the core d into the canonical structured diagonal.

    J form:  diag(d, +conj d) selfadjoint, diag(d, -conj d) skewadjoint.
    R form:  second half reversed, diag(d, +/- conj d reversed).
    """
    core = np.asarray(core, dtype=np.complex128)
    sign = 1.0 if variant is Variant.SELFADJOINT else -1.0
    mirror = sign * np.conj(core)
    if form_tag is FormTag.PERPLECTIC_R:
        mirror = mirror[::-1]
    elif form_tag is not FormTag.SYMPLECTIC_J:
        raise NotStructured("canonical diagonals exist for the J and R forms")
    return np.concatenate([core, mirror])


@dataclass(frozen=True)
class _SpectralPlan:
    """What one call learns about A once: its variant, the eigenvalue
    groups of A_hat = A or i A (clustered, with orthonormal bases), their
    conjugate pairing and, by group index, the Sylvester factor and
    inertia of each self-conjugate (critical) group's Gram."""

    variant: Variant
    groups: list[EigenGroup]
    pairing: ConjugatePairing
    critical: dict[int, tuple[np.ndarray, Inertia]]


def _core_values(values: np.ndarray, variant: Variant) -> np.ndarray:
    """Eigenvalues of A from those of A_hat: divided by i if skewadjoint."""
    return values / 1j if variant is Variant.SKEWADJOINT else values


def _spectral_plan(a: np.ndarray, form: InnerProduct, tol: TolerancePolicy,
                   structure: StructureReport | _AdjointChecks | None = None
                   ) -> _SpectralPlan:
    """Check A selfadjoint or skewadjoint (unless ``structure`` gives the
    two flags), decompose and group A, pair the groups of A_hat and factor
    the Gram of each critical group.

    Raises NotStructured off the J and R forms or for a matrix that is
    neither selfadjoint nor skewadjoint, NotDiagonalizable (from
    group_eigenvalues) when an eigenvalue cluster is defective, and
    SpectrumNotConjugateSymmetric (from pair_conjugates) when A_hat's
    spectrum is not closed under conjugation.
    """
    if form.tag not in (FormTag.SYMPLECTIC_J, FormTag.PERPLECTIC_R):
        raise NotStructured("diagonalizability analysis targets J or R forms")
    if structure is None:
        structure = _adjoint_checks(a, form, tol)
    if structure.selfadjoint.ok:
        variant = Variant.SELFADJOINT
    elif structure.skewadjoint.ok:
        variant = Variant.SKEWADJOINT
    else:
        raise NotStructured(
            "matrix is neither selfadjoint nor skewadjoint for this form "
            f"(residuals {structure.selfadjoint.residual:.3e} / "
            f"{structure.skewadjoint.residual:.3e})",
            min(structure.selfadjoint.residual,
                structure.skewadjoint.residual))
    groups = group_eigenvalues(eigen(a))
    if variant is Variant.SKEWADJOINT:
        # i A has the eigenvectors of A; clustering sees only distances,
        # so the groups of i A are those of A with every value times i.
        groups = [replace(g, value=1j * g.value) for g in groups]
    pairing = pair_conjugates(groups)
    critical = {i: _sylvester(gram(groups[i].basis, form), form.kind)
                for i in pairing.selfconjugate}
    return _SpectralPlan(variant, groups, pairing, critical)


def diagonalizability_report(a: np.ndarray, form: InnerProduct,
                             tol: TolerancePolicy = DEFAULT_TOL
                             ) -> DiagonalizabilityReport:
    """Balance test of every critical eigenspace Gram.

    An eigenvalue is critical when its group of A_hat = A or i A is
    self-conjugate (the plan's pairing): real eigenvalues for selfadjoint
    A, purely imaginary ones for skewadjoint A, zero for both. The
    decision is the conjunction of the balance flags.
    """
    a = np.asarray(a, dtype=np.complex128)
    return _report(_spectral_plan(a, form, tol))


def _report(plan: _SpectralPlan) -> DiagonalizabilityReport:
    # Group order, which is ascending by A's eigenvalues.
    critical = sorted(plan.critical.items())
    values = _core_values(
        np.array([plan.groups[i].value for i, _ in critical]), plan.variant)
    axis = (AxisClass.REAL if plan.variant is Variant.SELFADJOINT
            else AxisClass.PURELY_IMAGINARY)
    entries = []
    for (i, (_, g_inertia)), value in zip(critical, values.tolist()):
        entries.append(EigenvalueBalance(
            value=value,
            axis_class=(AxisClass.BOTH if abs(value) <= plan.pairing.radius
                        else axis),
            multiplicity=plan.groups[i].multiplicity,
            gram_inertia=g_inertia,
            balanced=g_inertia.balanced,
        ))
    decision = all(e.balanced for e in entries)
    if decision:
        reason = ("no critical-axis eigenvalues" if not entries
                  else "all critical-axis eigenspace Grams are balanced")
    else:
        listed = ", ".join(f"{e.value:.6g}" for e in entries
                           if not e.balanced)
        reason = f"unbalanced eigenspace Gram at eigenvalue(s) {listed}"
    return DiagonalizabilityReport(decision, plan.variant, tuple(entries),
                                   reason)


def factor_residuals(a: np.ndarray, s: np.ndarray, form: InnerProduct,
                     diagonal: np.ndarray | None = None
                     ) -> tuple[float, float, float]:
    """Relative residuals of S^H B S vs B, S^{-1} A S vs diag(diagonal)
    (its own diagonal when none is given) and S^H S vs I."""
    sh = herm_transpose(s)
    x = solve_linear(s, a @ s)
    target = np.diag(np.diag(x) if diagonal is None else diagonal)
    return (rel_residual(_form_times(form, sh) @ s, form.matrix),
            rel_residual(x, target),
            rel_residual(sh @ s, np.eye(s.shape[1], dtype=np.complex128)))


def certify(a: np.ndarray, s: np.ndarray, core: np.ndarray,
            form: InnerProduct, variant: Variant,
            unitary: bool = False) -> StructuredDiagonalization:
    """S as a diagonalization of A; NumericalBreakdown unless its residuals
    (unitarity too, with ``unitary``) meet FACTOR_GUARANTEE, which a
    non-finite S never does."""
    res_auto, res_sim, res_unit = factor_residuals(
        a, s, form, assemble_core_diagonal(core, form.tag, variant))
    is_unitary = _within(FACTOR_GUARANTEE, res_unit)
    if (not _within(FACTOR_GUARANTEE, res_auto, res_sim)
            or (unitary and not is_unitary)):
        raise NumericalBreakdown(
            f"diagonalization residuals too large (automorphism "
            f"{res_auto:.3e}, similarity {res_sim:.3e}, unitary "
            f"{res_unit:.3e})")
    return StructuredDiagonalization(
        transform=s, core=core, form_tag=form.tag, variant=variant,
        residual_automorphism=res_auto, residual_similarity=res_sim,
        unitary=is_unitary)


def _construct(a: np.ndarray, form: InnerProduct, tol: TolerancePolicy,
               structure: _AdjointChecks | None = None,
               unitary: bool = False) -> StructuredDiagonalization:
    """Decide, then build and certify the automorphism every constructor uses.

    The spectrum of the selfadjoint A_hat = A or i A splits into conjugate
    pairs (lower group, partner) and critical groups, ascending by their
    core value: the lower eigenvalue, divided by i for skewadjoint A.
    Raises NotStructuredDiagonalizable (report attached) if a critical
    Gram is unbalanced, which includes every critical group of odd
    multiplicity. With ``unitary``: NotNormal unless A is normal (a
    matrix of the wrong shape raises DimensionMismatch first), and the
    automorphism takes _polar_step before it is certified.
    """
    a = np.asarray(a, dtype=np.complex128)
    if unitary:
        _check_square(a, form)
        normal = _normal_check(a, tol)
        if not normal.ok:
            raise NotNormal(
                f"matrix is not normal (residual {normal.residual:.3e})")
    plan = _spectral_plan(a, form, tol, structure)
    report = _report(plan)
    if not report.decision:
        raise NotStructuredDiagonalizable(report.reason, report)
    groups = plan.groups
    # (primary group, partner group, critical Sylvester factor or None); a
    # critical group is its own partner.
    blocks = [(groups[gi], groups[gj], None) for gi, gj in plan.pairing.pairs]
    blocks += [(groups[gi], groups[gi], plan.critical[gi][0])
               for gi in plan.pairing.selfconjugate]
    values = _core_values(np.array([g.value for g, _, _ in blocks]),
                          plan.variant)
    order = np.lexsort((values.imag, values.real))
    blocks = [blocks[k] for k in order]
    # Partner columns x = V L (first half) and y = W R (second half), with
    # the bases stacked in V and W and block-diagonal coefficients L and R.
    v = np.hstack([g.basis for g, _, _ in blocks])
    w = np.hstack([p.basis for _, p, _ in blocks])
    k = np.array([g.multiplicity for g, _, _ in blocks])
    width = np.array([m // 2 if u is not None else m for m, (_, _, u)
                      in zip(k, blocks)])
    row0, col0 = np.cumsum(k) - k, np.cumsum(width) - width
    c = herm_transpose(v) @ _times_form(form, w)
    l = np.zeros((v.shape[1], form.half), dtype=np.complex128)
    r = np.zeros_like(l)
    # Balanced split of each pair's cross Gram, so that [x, y] = I: a
    # scalar c as c/|c|^{3/2} and 1/|c|^{1/2}, a larger block
    # C = U Sigma Z^H as U Sigma^{-1/2} and Z Sigma^{-1/2}. Critical
    # groups have even multiplicity, so every 1 x 1 block is a pair's.
    one = k == 1
    d = c[row0[one], row0[one]]
    l[row0[one], col0[one]] = d / np.abs(d) ** 1.5
    r[row0[one], col0[one]] = np.abs(d) ** -0.5
    for (_, _, u), m, n_x, i, j in zip(blocks, k, width, row0, col0):
        if m == 1:
            continue
        rows, cols = slice(i, i + m), slice(j, j + n_x)
        if u is not None:
            l[rows, cols], r[rows, cols] = _balanced_pairs(u, form)
        else:
            uu, sigma, zh = np.linalg.svd(c[rows, rows])
            l[rows, cols] = uu / np.sqrt(sigma)
            r[rows, cols] = herm_transpose(zh) / np.sqrt(sigma)
    x, y = v @ l, w @ r
    # First-order neutrality correction over all columns at once: with
    # [x, y] = I it zeroes [x, x] and [y, y] up to second order.
    sign = 1.0 if form.kind is FormKind.SKEW_HERMITIAN else -1.0
    x, y = (x - y @ (herm_transpose(x) @ _times_form(form, x)) / 2,
            y + sign * x @ (herm_transpose(y) @ _times_form(form, y)) / 2)
    s = _route_partners(x, y, form.tag)
    if unitary:
        s = _polar_step(s)
    core = np.repeat(values[order], width)
    return certify(a, s, core, form, plan.variant, unitary)


def _polar_step(s: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step S (3I - S^H S)/2 towards the unitary polar
    factor of S, which for the unitary J and R is an automorphism when S
    is one; the step itself keeps S an automorphism only up to second
    order in ||S^H S - I||. It moves the columns of S off their
    eigenvectors by (S^H S - I)/2, which costs the similarity only
    roundoff when A is normal (its eigenvectors are orthogonal) and the
    non-normal part of A otherwise, so only the unitary constructors
    take it."""
    return 1.5 * s - 0.5 * s @ (herm_transpose(s) @ s)


def structured_diagonalize(a: np.ndarray, form: InnerProduct,
                           tol: TolerancePolicy = DEFAULT_TOL
                           ) -> StructuredDiagonalization:
    """Diagonalize by an automorphism of the J or R form.

    Skewadjoint input is handled through the selfadjoint core applied to
    i A, with the core diagonal divided by i afterwards. The selfadjoint
    core works per eigenvalue group:

    (a) for a conjugate pair with bases V and W, split the cross Gram
        C = V^H B W between the two sides: x = V c/|c|^{3/2} and
        y = W/|c|^{1/2} for a scalar c, x = V U Sigma^{-1/2} and
        y = W Z Sigma^{-1/2} for C = U Sigma Z^H, so that [x, y] = I;
        all pairs in one pass, C formed once;
    (b) for a critical-axis eigenvalue, pair the negative with the
        positive directions of the eigenspace Gram (_balanced_pairs);
    (c) correct all partner columns for neutrality to first order,
        x <- x - y [x, x]/2 and y <- y -/+ x [y, y]/2 (- under R, + under
        J), which moves each column along its partner by the eigenvector
        error and costs the similarity only roundoff;
    (d) route partner columns into form positions, ascending by the
        final core eigenvalue.
    """
    return _construct(a, form, tol)


def unitary_refine(a: np.ndarray, form: InnerProduct,
                   tol: TolerancePolicy = DEFAULT_TOL
                   ) -> StructuredDiagonalization:
    """Unitary automorphism diagonalizing a normal structured matrix.

    The construction is structured_diagonalize's plus one polar step,
    certified unitary too. Normality makes the eigenspaces of A_hat = A
    or i A mutually orthogonal and their bases orthonormal, so every
    conjugate-pair cross Gram is unitary and the Hermitian part of every
    critical Gram is an involution (eigenvalues +/-1): the balanced split
    and the neutrality correction give an automorphism that is unitary up
    to the eigenvector error. One Newton-Schulz step S (3I - S^H S)/2
    (_polar_step) moves it towards its unitary polar factor, which
    removes that error to first order and keeps S an automorphism up to
    second order in it.
    """
    return _construct(a, form, tol, unitary=True)


def _balanced_pairs(u: np.ndarray, form: InnerProduct
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients x, y (2m x m) with [Wx, Wx] = [Wy, Wy] = 0 and
    [Wx, Wy] = I, from the _sylvester factor U of a frame W's balanced
    Gram: x = (a + b)/sqrt 2 and y = (b - a)/sqrt 2 for U's negative
    columns a and positive ones b, the most negative with the least
    positive; y times -i under J, whose Gram is i times its Hermitian part.
    """
    half = u.shape[1] // 2
    a, b = u[:, :half], u[:, half:]
    x, y = (a + b) / np.sqrt(2.0), (b - a) / np.sqrt(2.0)
    if form.kind is FormKind.SKEW_HERMITIAN:
        y = -1j * y
    return x, y


def _neutral_half(w: np.ndarray, form: InnerProduct) -> np.ndarray:
    """m orthonormal neutral columns in the span of 2m orthonormal W: the
    normalized Wx of _balanced_pairs. Distinct pairs stay orthogonal in
    both senses. NumericalBreakdown unless W's Gram is balanced.
    """
    u, w_inertia = _sylvester(gram(w, form), form.kind)
    if not w_inertia.balanced:
        raise NumericalBreakdown(f"complement Gram inertia {w_inertia.counts}")
    x = w @ _balanced_pairs(u, form)[0]
    return x / np.linalg.norm(x, axis=0)


def _complete(v: np.ndarray, form: InnerProduct) -> np.ndarray:
    """complete_to_lagrangian's construction, without its checks.

    V is orthonormal and neutral (both callers check it), so V and BV are
    orthogonal and [V, BV] is orthonormal: the trailing 2(n - k) columns
    of its complete QR are an orthonormal basis of the complement.
    """
    n, k = form.half, v.shape[1]
    if k == n:
        return v.copy()
    if k:
        w = np.linalg.qr(np.hstack([v, _times_form(form, v)]),
                         mode="complete")[0][:, 2 * k:]
    else:
        w = np.eye(2 * n, dtype=np.complex128)
    return np.hstack([v, _neutral_half(w, form)])


def complete_to_lagrangian(v: np.ndarray | None,
                           form: InnerProduct) -> np.ndarray:
    """Extend an orthonormal neutral frame to an orthonormal Lagrangian one.

    The completion lives in the Euclidean orthogonal complement of
    span(V) and span(BV), whose Gram is balanced; its neutral half (see
    _neutral_half) supplies the new columns. The input columns are
    returned unchanged in the leading positions.
    """
    if form.tag not in (FormTag.SYMPLECTIC_J, FormTag.PERPLECTIC_R):
        raise NotStructured("Lagrangian completion targets the J or R forms")
    n = form.half
    if v is None:
        v = np.zeros((2 * n, 0), dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] != 2 * n:
        raise NotStructured(f"frame must have {2 * n} rows")
    k = v.shape[1]
    if k > n:
        raise FrameTooLarge(
            f"a neutral frame in dimension {2 * n} has at most {n} columns")
    if k:
        res_orth, res_neut = frame_residuals(v, form)
        if not _within(FRAME_GUARANTEE, res_orth):
            raise NotNeutral(
                f"frame columns are not orthonormal (residual {res_orth:.3e})")
        if not _within(FRAME_GUARANTEE, res_neut):
            raise NotNeutral(
                f"frame span is not neutral (residual {res_neut:.3e})")
    out = _complete(v, form)
    res_orth, res_neut = frame_residuals(out, form)
    if not _within(FRAME_GUARANTEE, res_orth, res_neut):
        raise NumericalBreakdown(
            f"completion residuals too large (orthonormality {res_orth:.3e}, "
            f"neutrality {res_neut:.3e})")
    return out
