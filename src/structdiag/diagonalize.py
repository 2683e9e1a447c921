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
is unitary up to the eigenvector error. A unitary automorphism of J or R
is [V, B^T V] for an orthonormal Lagrangian frame V (Paige & Van Loan,
Linear Algebra Appl. 1981, for J), and every unitary factor is built,
certified and decomposed from its frame: unitary_refine runs the same
construction, takes its frame one Newton-Schulz step towards the unitary
polar factor and routes [X, B^T X] (_unitary_factor), and certifies it,
unitarity too, from the first n rows of S^H S - I, which hold X's two
n x n Grams (_frame_certificate).

Every entry point, the report included, takes one path (_certified): it
checks the form first (J or R, forms._require_j_or_r), then only the
structure it reads (normality on the unitary routes, then selfadjoint or
skewadjoint, _variant), and then eigendecomposes, groups, pairs and
factors each critical Gram once, in one spectral plan that the decision
and the construction share, and on a balanced plan routes S0 and
certifies it in the same step (_planned). The plan's groups are arrays
(spectral.EigenGroups): the critical Grams (_critical_factors, one
stacked product and eigh per multiplicity) and S0 (_route) gather their
bases from its one basis matrix by one index. So the report's yes means
that S0 met FACTOR_GUARANTEE, and it raises NumericalBreakdown wherever
structured_diagonalize does. What the calls measure of A is kept in one
per-input record (_Record) in one slot, keyed by A's exact bytes and the
form tag: A* with its selfadjoint and skewadjoint residuals, the
normality residual, the plan of the last variant decided with its core,
and each factor a route certifies (S0, and the _unitary_factor of its
frame on the unitary routes) with its residuals, the unitary one with
the first n rows of S^H S - I, which the decomposition reads. So
consecutive calls on the same A (classify, a report, both constructions
and the decomposition built on them) form each of these once. Every call
still judges the stored residuals against its own tolerance and
FACTOR_GUARANTEE, in a cold call's order, so it raises what a cold call
raises, and returns its own copies of S and the core.
The certificate reads S^{-1} off the form: the form adjoint S* of S is
(I + E) S^{-1} with E the automorphism error, so S* A S - D - E D is
(I + E) times the similarity residual exactly (_similarity). It solves no
linear system; factor_residuals forms E from S^H B S, while for a unitary
factor of partner form E is assembled from its first n rows. Lagrangian
completion (_lagrangian_completion, which complete_to_lagrangian and
decompose.reconstruct_from_normal_factor share) appends to a neutral V
the graph (U+ X + U- Y)/sqrt 2 over the two n-dimensional eigenspaces
U+ and U- of R or iJ (forms._halves, forms._graph), X and Y the
complements of V's coordinates U+^H V and U-^H V from one stacked
complete QR of the two n x k matrices. J and R enter every product as
signed permutations (forms._times_form, forms._form_times,
forms._inverse_times), and U+ and U- as slices, flips and signs, never
as dense matrices.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    FACTOR_GUARANTEE,
    FRAME_GUARANTEE,
    TolerancePolicy,
    _check,
    _ratio,
    _within,
    fro,
    herm_transpose,
    rel_residual,
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
    _graph,
    _halves,
    _inverse_times,
    _require_j_or_r,
    _sylvester,
    _times_form,
    adjoint,
)
from .spectral import (
    ConjugatePairing,
    EigenGroups,
    eigen,
    group_eigenvalues,
    pair_conjugates,
)
from .structure import (
    _check_square,
    _normal_check,
    _route_partners,
    _with_partners,
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
    _require_j_or_r(form_tag)
    core = np.asarray(core, dtype=np.complex128)
    sign = 1.0 if variant is Variant.SELFADJOINT else -1.0
    mirror = sign * np.conj(core)
    if form_tag is FormTag.PERPLECTIC_R:
        mirror = mirror[::-1]
    return np.concatenate([core, mirror])


class _Factor(NamedTuple):
    """A route's automorphism S and its certificate (_certificate): for a
    unitary S of partner form, also the first n rows of S^H S - I that the
    certificate was read from and the decomposition bounds N with."""

    transform: np.ndarray
    residuals: tuple[float, float, float]
    frame_error: np.ndarray | None = None


@dataclass(frozen=True)
class _SpectralPlan:
    """What the calls learn about A's spectrum once: its variant, the
    eigenvalue groups of A_hat = A or i A (clustered, with orthonormal
    bases, as arrays), their conjugate pairing and, by group index, the
    Sylvester factor and inertia of each self-conjugate (critical) group's
    Gram.
    An unbalanced plan holds nothing more. A balanced one holds the core
    and, keyed by ``unitary``, the certified factor of each route: the
    routed automorphism S0 (_route), certified when the plan is built,
    and the _unitary_factor of S0's frame, added by the first unitary
    call. Its arrays are read-only, since one plan may serve several
    calls."""

    variant: Variant
    groups: EigenGroups
    pairing: ConjugatePairing
    critical: dict[int, tuple[np.ndarray, Inertia]]
    core: np.ndarray | None = None
    factors: dict[bool, _Factor] = field(default_factory=dict)

    @property
    def balanced(self) -> bool:
        """Whether every critical Gram is balanced: the report's decision."""
        return all(g.balanced for _, g in self.critical.values())


@dataclass(frozen=True)
class _Record:
    """What the calls measure of one input A under one form: A*
    (read-only) with the residuals of A* against A and -A, the residual
    of A^H A against A A^H once classify or a unitary route forms them,
    and the spectral plan of the last variant decided. It keeps
    residuals, not decisions: each call judges them at its own
    tolerance."""

    key: tuple
    a_star: np.ndarray
    selfadjoint: float
    skewadjoint: float
    normal: float | None = None
    plan: _SpectralPlan | None = None


# The record of the last input, or None. One slot serves the same A back
# to back, as in a chain of entry points on one matrix, and holds no
# memory for inputs that do not come back.
_PLAN_SLOT: _Record | None = None


def _record(a: np.ndarray, form: InnerProduct) -> _Record:
    """The slot's record of the complex128 A under form if it holds one,
    keyed by A's shape and exact bytes and the form tag, or else a new
    record with A* and its two residuals; DimensionMismatch unless A is
    square of the form's dimension. It stores nothing (_store does)."""
    _check_square(a, form)
    key = (a.shape, form.tag, a.tobytes())
    held = _PLAN_SLOT
    if held is not None and held.key == key:
        return held
    a_star = adjoint(a, form)
    a_star.flags.writeable = False
    return _Record(key, a_star, rel_residual(a_star, a),
                   rel_residual(a_star, -a))


def _store(record: _Record) -> None:
    """Keep record in the slot. A call stores once its checks have passed
    and its plan is built, so a call that raises before then stores
    nothing."""
    global _PLAN_SLOT
    _PLAN_SLOT = record


def _with_normality(record: _Record, a: np.ndarray,
                    aha: np.ndarray | None = None) -> _Record:
    """record with A's normality residual, formed (from ``aha`` = A^H A
    when the caller has it) unless the record holds it."""
    if record.normal is not None:
        return record
    return replace(record, normal=_normal_check(a, aha=aha).residual)


def _variant(record: _Record, tol: TolerancePolicy) -> Variant:
    """The variant of A at tol, the one place it is decided: selfadjoint
    if A* is within tol of A, else skewadjoint if it is within tol of -A;
    NotStructured if neither."""
    if _check(record.selfadjoint, tol).ok:
        return Variant.SELFADJOINT
    if _check(record.skewadjoint, tol).ok:
        return Variant.SKEWADJOINT
    raise NotStructured(
        "matrix is neither selfadjoint nor skewadjoint for this form "
        f"(residuals {record.selfadjoint:.3e} / {record.skewadjoint:.3e})",
        min(record.selfadjoint, record.skewadjoint))


def _core_values(values: np.ndarray, variant: Variant) -> np.ndarray:
    """Eigenvalues of A from those of A_hat: divided by i if skewadjoint."""
    return values / 1j if variant is Variant.SKEWADJOINT else values


def _planned(record: _Record, a: np.ndarray, form: InnerProduct,
             tol: TolerancePolicy) -> _Record:
    """record with the plan of A's variant at tol (_variant): decompose
    and group A, pair the groups of A_hat, factor the Gram of each
    critical group and, if every one is balanced, route S0 and certify
    it, unless the record holds the plan of that variant already. The
    certificate is kept whether or not it meets the guarantee, so that
    every call on the plan judges it alike. The tolerance reaches the
    plan only through the variant, so a tolerance that flips it rebuilds
    the plan alone.

    Raises _variant's NotStructured, NotDiagonalizable (from
    group_eigenvalues) when an eigenvalue cluster is defective, and
    SpectrumNotConjugateSymmetric (from pair_conjugates) when A_hat's
    spectrum is not closed under conjugation.
    """
    variant = _variant(record, tol)
    if record.plan is not None and record.plan.variant is variant:
        return record
    groups = group_eigenvalues(eigen(a))
    if variant is Variant.SKEWADJOINT:
        # i A has the eigenvectors of A; clustering sees only
        # distances, so the groups of i A are those of A with every
        # value times i.
        groups = replace(groups, values=1j * groups.values)
    pairing = pair_conjugates(groups)
    critical = _critical_factors(groups, pairing.selfconjugate, form)
    for array in (groups.values, groups.sizes, groups.basis, pairing.pairs,
                  pairing.selfconjugate,
                  *(u for u, _ in critical.values())):
        array.flags.writeable = False
    plan = _SpectralPlan(variant, groups, pairing, critical)
    if plan.balanced:
        s0, core = _route(plan, form)
        core.flags.writeable = False
        plan = _factored(replace(plan, core=core), a, form, s0, False)
    return replace(record, plan=plan)


def _critical_factors(groups: EigenGroups, selfconjugate: np.ndarray,
                      form: InnerProduct
                      ) -> dict[int, tuple[np.ndarray, Inertia]]:
    """The _sylvester factor and inertia of each critical group's Gram
    (V^H B) V, by group index: per multiplicity, one stack of bases
    gathered by one index, one stacked product and one stacked eigh."""
    sizes = groups.sizes[selfconjugate]
    factors = {}
    for k in sorted(set(sizes.tolist())):
        members = selfconjugate[sizes == k]
        bases = groups.basis[:, groups.columns(members)].reshape(
            -1, members.size, k).transpose(1, 0, 2)
        grams = _form_times(form, herm_transpose(bases)) @ bases
        factors.update(zip(members.tolist(), _sylvester(grams, form.kind)))
    return factors


def diagonalizability_report(a: np.ndarray, form: InnerProduct,
                             tol: TolerancePolicy = DEFAULT_TOL
                             ) -> DiagonalizabilityReport:
    """Balance test of every critical eigenspace Gram, whose yes is a
    certificate.

    An eigenvalue is critical when its group of A_hat = A or i A is
    self-conjugate (the plan's pairing): real eigenvalues for selfadjoint
    A, purely imaginary ones for skewadjoint A, zero for both. The
    decision is the conjunction of the balance flags. The report takes
    the constructors' one path (_certified): on a balanced plan it
    judges the routed S0 before it says yes, so it raises
    NumericalBreakdown wherever structured_diagonalize does, and its yes
    means S0 met FACTOR_GUARANTEE.
    """
    a = np.asarray(a, dtype=np.complex128)
    try:
        plan = _certified(_record(a, form), a, form, tol, unitary=False)[1]
    except NotStructuredDiagonalizable as exc:
        return exc.report
    return _report(plan)


def _report(plan: _SpectralPlan) -> DiagonalizabilityReport:
    # Group order, which is ascending by A's eigenvalues.
    critical = sorted(plan.critical.items())
    values = _core_values(plan.groups.values[[i for i, _ in critical]],
                          plan.variant)
    axis = (AxisClass.REAL if plan.variant is Variant.SELFADJOINT
            else AxisClass.PURELY_IMAGINARY)
    entries = []
    for (i, (_, g_inertia)), value in zip(critical, values.tolist()):
        entries.append(EigenvalueBalance(
            value=value,
            axis_class=(AxisClass.BOTH if abs(value) <= plan.pairing.radius
                        else axis),
            multiplicity=int(plan.groups.sizes[i]),
            gram_inertia=g_inertia,
            balanced=g_inertia.balanced,
        ))
    decision = plan.balanced
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
    """Relative residuals of S^H B S vs B, S^{-1} A S vs D = diag(diagonal)
    and S^H S vs I, from four dense products: S^H B S, A S, S* (A S) and
    S^H S.

    S^{-1} is read off the form, with no solve. The form adjoint
    S* = B^{-1} S^H B is a signed permutation of S^H, and
    E = S* S - I = B^{-1} (S^H B S - B) a signed row permutation of the
    automorphism residual's difference, so e = ||E||_F = ||S^H B S - B||_F,
    and the automorphism residual is e / ||S^H B S||_F (core._ratio, as
    every residual here). The similarity residual is _similarity's bound
    given E.
    """
    sh = herm_transpose(s)
    sbs = _form_times(form, sh) @ s
    diff = sbs - form.matrix
    e = fro(diff)
    return (_ratio(e, fro(sbs)),
            _similarity(a, s, form, e, _inverse_times(form, diff), diagonal),
            rel_residual(sh @ s, np.eye(s.shape[1], dtype=np.complex128)))


def _frame_certificate(a: np.ndarray, s: np.ndarray, form: InnerProduct,
                       diagonal: np.ndarray) -> _Factor:
    """factor_residuals of an S = [X, B^T X] of partner form
    (structure._with_partners), read off the first n rows of
    E = S^H S - I, [X^H X - I, X^H B^T X]: one n x 2n by 2n x 2n product.

    With C = X^H X and G = X^H B X, E is [[C - I, -G], [G, C - I]] under
    J and [[C - I, G F], [F G, F (C - I) F]] under R (F the n x n flip),
    so its last n rows are its first n taken times J, or flipped both
    ways under R, and S^H B S - B = B E holds the same blocks. So the
    automorphism and unitarity residuals are one number,
    sqrt 2 ||[C - I, G]||_F over sqrt 2 ||[C, G]||_F = ||S^H S||_F, where
    2 ||[C, G]||_F^2 = e^2 + 4 Re tr(C - I) + 2n, E is assembled with no
    product, and the similarity residual is _similarity's, as in
    factor_residuals. The factor keeps the first n rows of E.
    """
    n = form.half
    top = herm_transpose(s[:, :n]) @ s
    top.reshape(-1)[::2 * n + 1] -= 1.0
    e = 2.0 ** 0.5 * fro(top)
    scale = max(0.0, e * e + 4.0 * float(top.trace().real) + 2 * n) ** 0.5
    bottom = (_form_times(form, top) if form.tag is FormTag.SYMPLECTIC_J
              else top[::-1, ::-1])
    res = _ratio(e, scale)
    sim = _similarity(a, s, form, e, np.concatenate([top, bottom]), diagonal)
    return _Factor(s, (res, sim, res), top)


def _similarity(a: np.ndarray, s: np.ndarray, form: InnerProduct, e: float,
                e_mat: np.ndarray, diagonal: np.ndarray | None) -> float:
    """The similarity residual of S given E = S* S - I and e = ||E||_F,
    from two dense products, A S and S* (A S).

    For e < 1, I + E is nonsingular, hence so is S, and S* = (I + E) S^{-1}.
    With X = S^{-1} A S and Y = S* (A S) = (I + E) X this gives exactly
    Z = Y - D - E D = (I + E)(X - D), where E D scales E's columns by the
    diagonal and costs no product. So ||X - D||_F <= ||Z||_F / (1 - e) and
    ||X||_F >= ||Y||_F / (1 + e), and the residual is
    (||Z||_F / (1 - e)) / (||Y||_F / (1 + e)), a bound on the
    residual of X in exact arithmetic up to the roundoff of forming Y. It
    is larger than X's own by a factor of at most about 1 + 4e, which for
    e <= sqrt(eps), eps the machine epsilon, is below the digits a
    guarantee reads; a well-conditioned factor the package builds has e
    near 1e-13. So only a larger e takes one more product:
    (I + E)^{-1} Z = Z - E Z + R with ||R||_F <= e^2/(1 - e) ||Z||_F, so
    ||X - D||_F <= ||Z - E Z||_F + ||R||_F and
    ||X||_F >= ||D + Z - E Z||_F - ||R||_F. Both quotients are taken by
    core._ratio: 0 for A = D = 0, NaN where the lower bound on ||X||_F is
    not positive or has overflowed. For e >= 1 nothing shows S
    nonsingular, and the residual is inf.

    With no diagonal given, D is X's own diagonal up to second order in
    E: diag(Y) - diag(E Y), one row-by-column dot.
    """
    if e >= 1.0:
        return math.inf
    y = adjoint(s, form) @ (a @ s)
    if diagonal is None:
        diagonal = np.diagonal(y) - np.einsum("ij,ji->i", e_mat, y)
    step = y.shape[0] + 1
    z = y - e_mat * diagonal
    z.flat[::step] -= diagonal
    if e * e <= sys.float_info.epsilon:
        return _ratio(fro(z) / (1.0 - e), fro(y) / (1.0 + e))
    w = z - e_mat @ z
    rest = e * e / (1.0 - e) * fro(z)
    bound = fro(w) + rest
    w.flat[::step] += diagonal
    return _ratio(bound, fro(w) - rest)


def certify(a: np.ndarray, s: np.ndarray, core: np.ndarray,
            form: InnerProduct, variant: Variant,
            unitary: bool = False) -> StructuredDiagonalization:
    """S as a diagonalization of A; NumericalBreakdown unless its residuals
    (unitarity too, with ``unitary``) meet FACTOR_GUARANTEE, which a
    non-finite S never does. With ``unitary``, S must be of partner form
    [V, B^T V] (structure._with_partners): it is certified from V."""
    return _judged(s, core, form.tag, variant,
                   _certificate(a, s, core, form, variant, unitary).residuals,
                   unitary)


def _certificate(a: np.ndarray, s: np.ndarray, core: np.ndarray,
                 form: InnerProduct, variant: Variant,
                 unitary: bool) -> _Factor:
    """S with its residuals against the structured diagonal of core: the
    one place the package certifies a factor it built. A unitary factor
    is of partner form and certified from the first n rows of
    S^H S - I (_frame_certificate), which it keeps; any other by
    factor_residuals."""
    diagonal = assemble_core_diagonal(core, form.tag, variant)
    if unitary:
        return _frame_certificate(a, s, form, diagonal)
    return _Factor(s, factor_residuals(a, s, form, diagonal))


def _judged(s: np.ndarray, core: np.ndarray, form_tag: FormTag,
            variant: Variant, residuals: tuple[float, float, float],
            unitary: bool) -> StructuredDiagonalization:
    """certify's verdict on residuals S has been certified with."""
    res_auto, res_sim, res_unit = residuals
    is_unitary = _within(FACTOR_GUARANTEE, res_unit)
    if (not _within(FACTOR_GUARANTEE, res_auto, res_sim)
            or (unitary and not is_unitary)):
        raise NumericalBreakdown(
            f"diagonalization residuals too large (automorphism "
            f"{res_auto:.3e}, similarity {res_sim:.3e}, unitary "
            f"{res_unit:.3e})")
    return StructuredDiagonalization(
        transform=s, core=core, form_tag=form_tag, variant=variant,
        residual_automorphism=res_auto, residual_similarity=res_sim,
        unitary=is_unitary)


def _certified(record: _Record, a: np.ndarray, form: InnerProduct,
               tol: TolerancePolicy, unitary: bool
               ) -> tuple[StructuredDiagonalization, _SpectralPlan]:
    """Decide, then judge the automorphism every constructor uses: the
    plan's certified S0 (see _planned), or with ``unitary`` the
    _unitary_factor of its frame, certified once per plan (_factored).
    It is returned as a copy, with a copy of the core, next to the plan,
    which holds the read-only factor.

    The checks come in this order: NotStructured off the J and R forms
    (forms._require_j_or_r), before any other test of A; with
    ``unitary``, NotNormal unless A is normal; then _planned's errors.
    Raises NotStructuredDiagonalizable (report attached) if a critical
    Gram is unbalanced, which includes every critical group of odd
    multiplicity.
    """
    _require_j_or_r(form.tag)
    if unitary:
        record = _with_normality(record, a)
        normal = _check(record.normal, tol)
        if not normal.ok:
            raise NotNormal(
                f"matrix is not normal (residual {normal.residual:.3e})")
    record = _planned(record, a, form, tol)
    plan = record.plan
    if plan.balanced and unitary not in plan.factors:
        plan = _factored(plan, a, form, _unitary_factor(
            plan.factors[False].transform, form), True)
        record = replace(record, plan=plan)
    _store(record)
    if not plan.balanced:
        report = _report(plan)
        raise NotStructuredDiagonalizable(report.reason, report)
    factor = plan.factors[unitary]
    return _judged(factor.transform.copy(), plan.core.copy(), form.tag,
                   plan.variant, factor.residuals, unitary), plan


def _factored(plan: _SpectralPlan, a: np.ndarray, form: InnerProduct,
              s: np.ndarray, unitary: bool) -> _SpectralPlan:
    """The balanced plan with S certified as its route's factor, S0 or
    with ``unitary`` the _unitary_factor of S0's frame, whether or not
    the certificate meets the guarantee."""
    factor = _certificate(a, s, plan.core, form, plan.variant, unitary)
    for array in (s, factor.frame_error):
        if array is not None:
            array.flags.writeable = False
    return replace(plan, factors={**plan.factors, unitary: factor})


def _route(plan: _SpectralPlan, form: InnerProduct
           ) -> tuple[np.ndarray, np.ndarray]:
    """The automorphism S0 of a balanced plan and its core.

    The spectrum of the selfadjoint A_hat = A or i A splits into conjugate
    pairs (lower group, partner) and critical groups, ascending by their
    core value (the lower eigenvalue, divided by i for skewadjoint A),
    its real part rounded to the cluster radius.
    """
    groups, pairing = plan.groups, plan.pairing
    # Each block's group and its partner, the pairs first; a critical
    # group is its own partner.
    first = np.concatenate([pairing.pairs[:, 0], pairing.selfconjugate])
    partner = np.concatenate([pairing.pairs[:, 1], pairing.selfconjugate])
    values = _core_values(groups.values[first], plan.variant)
    # Rounded, real parts equal in exact arithmetic (0 for imaginary
    # values) tie, so roundoff never decides the order.
    order = np.lexsort((values.imag,
                        np.round(values.real / pairing.radius)))
    first, partner = first[order], partner[order]
    critical = order >= len(pairing.pairs)
    # Partner columns x = V L (first half) and y = W R (second half): V and
    # W gather the bases, L and R are block-diagonal coefficients.
    v = groups.basis[:, groups.columns(first)]
    w = groups.basis[:, groups.columns(partner)]
    k = groups.sizes[first]
    width = np.where(critical, k // 2, k)
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
    for b in (k > 1).nonzero()[0].tolist():
        rows = slice(row0[b], row0[b] + k[b])
        cols = slice(col0[b], col0[b] + width[b])
        if critical[b]:
            l[rows, cols], r[rows, cols] = _balanced_pairs(
                plan.critical[first[b]][0], form)
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
    return _route_partners(x, y, form.tag), np.repeat(values[order], width)


def _unitary_factor(s0: np.ndarray, form: InnerProduct) -> np.ndarray:
    """The unitary automorphism [X, B^T X] (structure._with_partners) of
    S0's frame X = S0[:, :n] taken one Newton-Schulz step X (3I - X^H X)/2
    towards its unitary polar factor, an n x n Gram and one 2n x n product.
    A unitary automorphism of J or R is [V, B^T V] for an orthonormal
    Lagrangian frame V (Paige & Van Loan, Linear Algebra Appl. 1981, for
    J), and on normal input S0 is one up to the eigenvector error: its
    second half is B^T X up to that error, and X is that far from
    orthonormal, which the step removes to first order. The step moves X
    off its eigenvectors by (X^H X - I)/2, which costs the similarity only
    roundoff when A is normal (its eigenvectors are orthogonal) and the
    non-normal part of A otherwise, so only the unitary constructors take
    it."""
    x = s0[:, :form.half]
    return _with_partners(1.5 * x - 0.5 * x @ (herm_transpose(x) @ x), form)


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
        final core eigenvalue, its real part rounded to the cluster radius.
    """
    a = np.asarray(a, dtype=np.complex128)
    return _certified(_record(a, form), a, form, tol, unitary=False)[0]


def unitary_refine(a: np.ndarray, form: InnerProduct,
                   tol: TolerancePolicy = DEFAULT_TOL
                   ) -> StructuredDiagonalization:
    """Unitary automorphism diagonalizing a normal structured matrix.

    The construction is structured_diagonalize's, then one polar step
    on its frame, certified unitary too. Normality makes the eigenspaces
    of A_hat = A or i A mutually orthogonal and their bases orthonormal,
    so every conjugate-pair cross Gram is unitary and the Hermitian part
    of every critical Gram is an involution (eigenvalues +/-1): the
    balanced split and the neutrality correction give an automorphism S0
    that is unitary up to the eigenvector error, whose second half is
    B^T X up to that error, X = S0[:, :n]. One Newton-Schulz step
    X (3I - X^H X)/2 moves X towards its unitary polar factor, which
    removes that error to first order, and the result is
    S = [X, B^T X] (_unitary_factor), an automorphism and unitary up to
    second order in it. S is certified from the first n rows of
    S^H S - I, which hold X's Grams X^H X - I and X^H B X
    (_frame_certificate): its automorphism and unitarity residuals are
    one number.
    """
    a = np.asarray(a, dtype=np.complex128)
    return _certified(_record(a, form), a, form, tol, unitary=True)[0]


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


def _lagrangian_completion(v: np.ndarray, form: InnerProduct
                           ) -> np.ndarray:
    """complete_to_lagrangian's construction, without its checks: V with
    n - k columns appended, from one stacked complete QR of two n x k
    matrices.

    Every Lagrangian subspace of R or iJ is the graph
    {U+ x + U- Phi x} of a unitary Phi between their two n-dimensional
    eigenspaces (Gohberg, Lancaster & Rodman, Indefinite Linear Algebra
    and Applications, 2005); forms._halves gives V's coordinates
    U+^H V and U-^H V in them. The trailing columns X and Y of the
    complete QRs of these two n x k matrices are orthonormal and
    orthogonal to them, so the new columns (U+ X + U- Y)/sqrt 2
    (forms._graph) are orthonormal and neutral, and orthogonal to V in
    both senses, exactly in exact arithmetic, whether or not V is
    itself exactly neutral.
    """
    k = v.shape[1]
    if k == form.half:
        return v.copy()
    x, y = np.linalg.qr(np.stack(_halves(v, form)),
                        mode="complete")[0][..., k:]
    return np.hstack([v, _graph(x, y, form)])


def complete_to_lagrangian(v: np.ndarray | None,
                           form: InnerProduct) -> np.ndarray:
    """Extend an orthonormal neutral frame to an orthonormal Lagrangian one.

    The new columns are the graph (U+ X + U- Y)/sqrt 2 of the
    complements X and Y of V's coordinates in the two eigenspaces of R or
    iJ (_lagrangian_completion). The input columns are returned unchanged
    in the leading positions.
    """
    _require_j_or_r(form.tag)
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
    out = _lagrangian_completion(v, form)
    res_orth, res_neut = frame_residuals(out, form)
    if not _within(FRAME_GUARANTEE, res_orth, res_neut):
        raise NumericalBreakdown(
            f"completion residuals too large (orthonormality {res_orth:.3e}, "
            f"neutrality {res_neut:.3e})")
    return out
