"""Seeded constructors for structured matrices, known-answer instances,
and the unbalanced counterexample family.

Randomness comes from a self-contained xoshiro256** stream (seeded via
splitmix64) with Box-Muller Gaussians, so identical seeds reproduce
identical matrices on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import herm_transpose
from .diagonalize import Variant, assemble_core_diagonal
from .errors import InvalidSize, NotStructured
from .forms import (
    FormTag,
    InnerProduct,
    adjoint,
    flip,
    perplectic_form,
    symplectic_form,
)
from .structure import build_unitary_automorphism

_MASK64 = (1 << 64) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class PortableRng:
    """xoshiro256** seeded through splitmix64; 53-bit uniforms."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            s.append(z ^ (z >> 31))
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal_pair(self) -> tuple[float, float]:
        """Two independent standard Gaussians (Box-Muller)."""
        u1 = 1.0 - self.uniform()  # (0, 1], keeps the log finite
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        return radius * math.cos(angle), radius * math.sin(angle)

    def complex_normal(self) -> complex:
        re, im = self.normal_pair()
        return complex(re, im) / math.sqrt(2.0)

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        out = np.empty((rows, cols), dtype=np.complex128)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = self.complex_normal()
        return out


_KIND_FORM = {
    "skew-hamiltonian": (FormTag.SYMPLECTIC_J, Variant.SELFADJOINT),
    "hamiltonian": (FormTag.SYMPLECTIC_J, Variant.SKEWADJOINT),
    "per-hermitian": (FormTag.PERPLECTIC_R, Variant.SELFADJOINT),
    "perskew-hermitian": (FormTag.PERPLECTIC_R, Variant.SKEWADJOINT),
}

STRUCTURE_KINDS = tuple(_KIND_FORM)


def form_for_kind(kind: str, n: int) -> InnerProduct:
    tag, _ = _kind_info(kind)
    return (symplectic_form(n) if tag is FormTag.SYMPLECTIC_J
            else perplectic_form(n))


def variant_for_kind(kind: str) -> Variant:
    return _kind_info(kind)[1]


def _kind_info(kind: str) -> tuple[FormTag, Variant]:
    try:
        return _KIND_FORM[kind]
    except KeyError:
        raise NotStructured(
            f"unknown structure kind {kind!r}; expected one of "
            f"{sorted(_KIND_FORM)}") from None


def random_structured(kind: str, n: int, seed: int) -> np.ndarray:
    """Random member of the selfadjoint or skewadjoint class.

    Projects an i.i.d. complex Gaussian draw M to (M + M*)/2 or
    (M - M*)/2; the adjoint is an involution, so the projection lands
    exactly in the class.
    """
    if n < 1:
        raise InvalidSize("n must be >= 1")
    form = form_for_kind(kind, n)
    variant = variant_for_kind(kind)
    rng = PortableRng(seed)
    m = rng.complex_matrix(2 * n, 2 * n)
    m_star = adjoint(m, form)
    if variant is Variant.SELFADJOINT:
        return (m + m_star) / 2.0
    return (m - m_star) / 2.0


def random_lagrangian_frame(form: InnerProduct, seed: int) -> np.ndarray:
    """Random orthonormal Lagrangian frame from a graph parameterization.

    For the symplectic form the frames [I; Z] with Hermitian Z span the
    generic Lagrangian subspaces; for the perplectic form Z = R_n K with
    skew-Hermitian K plays the same role. QR keeps the span.
    """
    n = form.half
    rng = PortableRng(seed)
    g = rng.complex_matrix(n, n)
    if form.tag is FormTag.SYMPLECTIC_J:
        z = (g + herm_transpose(g)) / 2.0
    elif form.tag is FormTag.PERPLECTIC_R:
        z = flip(n) @ ((g - herm_transpose(g)) / 2.0)
    else:
        raise NotStructured("Lagrangian frames require the J or R form")
    raw = np.vstack([np.eye(n, dtype=np.complex128), z])
    q, r = np.linalg.qr(raw)
    d = np.diag(r).copy()
    d[np.abs(d) == 0] = 1.0
    return q * (d / np.abs(d))


def random_automorphism(form: InnerProduct, n: int, seed: int) -> np.ndarray:
    """Random unitary automorphism of the J or R form."""
    if n < 1:
        raise InvalidSize("n must be >= 1")
    if form.half != n:
        raise InvalidSize("form dimension does not match n")
    frame = random_lagrangian_frame(form, seed)
    return build_unitary_automorphism(frame, form)


def _mirror_value(value: complex, variant: Variant) -> complex:
    conj = np.conj(value)
    return complex(conj if variant is Variant.SELFADJOINT else -conj)


def _draw_core(rng: PortableRng, n: int, variant: Variant,
               critical_share: float, separation: float) -> np.ndarray:
    """Core diagonal with moduli in [0.5, 2], all induced eigenvalues
    pairwise separated (except exact critical-axis coincidences).
    """
    taken: list[complex] = []
    core = np.empty(n, dtype=np.complex128)
    for j in range(n):
        while True:
            on_axis = rng.uniform() < critical_share
            radius = 0.5 + 1.5 * rng.uniform()
            if on_axis:
                sign = 1.0 if rng.uniform() < 0.5 else -1.0
                # Critical axis: real for selfadjoint, imaginary otherwise.
                cand = complex(sign * radius, 0.0)
                if variant is Variant.SKEWADJOINT:
                    cand = complex(0.0, sign * radius)
            else:
                angle = 2.0 * math.pi * rng.uniform()
                cand = radius * complex(math.cos(angle), math.sin(angle))
                axis_dist = (abs(cand.imag)
                             if variant is Variant.SELFADJOINT
                             else abs(cand.real))
                if axis_dist < separation / 2.0:
                    continue
            induced = {cand, _mirror_value(cand, variant)}
            if all(abs(v - w) >= separation
                   for v in induced for w in taken if v != w):
                taken.extend(induced)
                core[j] = cand
                break
    return core


@dataclass(frozen=True)
class PlantedInstance:
    """A structured matrix with its planted diagonalization."""

    matrix: np.ndarray
    transform: np.ndarray
    core: np.ndarray
    kind: str

    @property
    def full_diagonal(self) -> np.ndarray:
        tag, variant = _KIND_FORM[self.kind]
        return assemble_core_diagonal(self.core, tag, variant)


def random_structured_diagonalizable(kind: str, n: int, seed: int,
                                     critical_share: float = 0.25
                                     ) -> PlantedInstance:
    """Normal, structured, unitary-diagonalizable instance by construction.

    A = Q D~ Q^H for a random unitary automorphism Q and a canonical
    structured diagonal D~. A fraction of the core entries is planted
    exactly on the critical axis (even multiplicity arises from the
    mirror half), the rest stays clear of it; all distinct eigenvalues
    are separated by at least 0.05.
    """
    if n < 1:
        raise InvalidSize("n must be >= 1")
    tag, variant = _kind_info(kind)
    form = form_for_kind(kind, n)
    rng = PortableRng(seed)
    core = _draw_core(rng, n, variant, critical_share, separation=0.05)
    q = random_automorphism(form, n, rng.next_u64())
    full = assemble_core_diagonal(core, tag, variant)
    a = q @ np.diag(full) @ herm_transpose(q)
    return PlantedInstance(matrix=a, transform=q, core=core, kind=kind)


def _witness(n: int) -> np.ndarray:
    """The unitary W = [[I, I], [iI, -iI]]/sqrt 2, with W^H J W equal to
    G = i I_n (+) -i I_n."""
    eye = np.eye(n, dtype=np.complex128)
    return np.block([[eye, eye], [1j * eye, -1j * eye]]) / np.sqrt(2.0)


def counterexample_unbalanced(n: int, seed: int) -> np.ndarray:
    """Skew-Hamiltonian, diagonalizable, NOT symplectic diagonalizable.

    The unitary witness W (_witness) turns J into G = i I_n (+) -i I_n; G
    commutes with diag(mu1 I, mu2 I), so A = W diag W^H stays
    selfadjoint while the mu1 eigenspace Gram is definite, hence
    unbalanced. A random unitary automorphism in front adds variety
    without touching any of these properties, and keeps A Hermitian.
    """
    if n < 2:
        raise InvalidSize("the counterexample needs n >= 2")
    rng = PortableRng(seed)
    mu1 = 0.5 + 1.5 * rng.uniform()
    mu2 = -(0.5 + 1.5 * rng.uniform())
    q = random_automorphism(symplectic_form(n), n, rng.next_u64())
    w = q @ _witness(n)
    delta = np.concatenate([mu1 * np.ones(n), mu2 * np.ones(n)])
    return (w * delta) @ herm_transpose(w)
