#!/usr/bin/env python3
"""Residual sweep over random structured-diagonalizable instances.

For each structure kind and size, draws seeded instances, runs the
automorphic diagonalization (structured_diagonalize), the unitary one
built from orthonormal eigenspaces (unitary_refine), the additive
decomposition, the reconstruction from the planted normal factor
N = V diag(core) V^H (V the first half of the planted transform, the
first n // 4 core entries zeroed, so that the frame is completed) and,
for the selfadjoint kinds, the structured square root, and prints
worst-case residuals. A quick way to eyeball numerical headroom against
FACTOR_GUARANTEE (1e-8) and, in the root column, ROOT_GUARANTEE (1e-7).

A second table reconstructs near-neutral factors: N = V D V^H over n // 2
orthonormal columns V perturbed off a Lagrangian frame so that
||V^H B V||_F = delta, judged at structure_tol 1e-6, and counts the
outcomes (certified, or the error raised) per delta over both forms, the
sizes n of NEAR_SIZES and seeds 0-7.

Usage:
    python scripts/residual_sweep.py --sizes 1 2 4 8 --seeds 25
"""

import argparse
import time
from collections import Counter

import numpy as np

from structdiag import (
    STRUCTURE_KINDS,
    Sign,
    StructDiagError,
    TolerancePolicy,
    Variant,
    decompose_additive,
    form_for_kind,
    gram,
    perplectic_form,
    random_lagrangian_frame,
    random_structured_diagonalizable,
    reconstruct_from_normal_factor,
    rel_residual,
    structured_diagonalize,
    structured_root,
    symplectic_form,
    unitary_refine,
    variant_for_kind,
)
from structdiag.core import fro, herm_transpose

NEAR_DELTAS = (1e-12, 1e-10, 1e-9, 1e-8, 1e-7)
NEAR_SIZES = (4, 8, 50)
NEAR_SEEDS = 8
NEAR_TOL = TolerancePolicy(structure_tol=1e-6)


def sweep(kinds, sizes, seeds, critical_share):
    header = f"{'kind':<20} {'n':>3} {'diag':>10} {'unitary':>10} " \
             f"{'decomp':>10} {'reconstruct':>11} {'root':>10} " \
             f"{'sec/inst':>9}"
    print(header)
    print("-" * len(header))
    for kind in kinds:
        selfadjoint = variant_for_kind(kind) is Variant.SELFADJOINT
        sign = Sign.PLUS if selfadjoint else Sign.MINUS
        for n in sizes:
            worst_diag = worst_unit = worst_dec = worst_rec = worst_root = 0.0
            started = time.perf_counter()
            for seed in range(seeds):
                inst = random_structured_diagonalizable(
                    kind, n, seed, critical_share=critical_share)
                form = form_for_kind(kind, n)
                d = structured_diagonalize(inst.matrix, form)
                u = unitary_refine(inst.matrix, form)
                dec = decompose_additive(inst.matrix, form)
                v = inst.transform[:, :n]
                core = inst.core.copy()
                core[:n // 4] = 0.0
                n_mat = v @ np.diag(core) @ herm_transpose(v)
                _, r = reconstruct_from_normal_factor(n_mat, sign, form)
                worst_diag = max(worst_diag, d.residual_automorphism,
                                 d.residual_similarity)
                worst_unit = max(worst_unit, u.residual_automorphism,
                                 u.residual_similarity)
                worst_dec = max(worst_dec, dec.residuals.worst)
                worst_rec = max(worst_rec, r.residual_automorphism,
                                r.residual_similarity)
                if selfadjoint:
                    x = structured_root(inst.matrix, 2, form)
                    worst_root = max(worst_root,
                                     rel_residual(x @ x, inst.matrix))
            per_inst = (time.perf_counter() - started) / max(1, seeds)
            root = f"{worst_root:>10.2e}" if selfadjoint else f"{'-':>10}"
            print(f"{kind:<20} {n:>3} {worst_diag:>10.2e} "
                  f"{worst_unit:>10.2e} {worst_dec:>10.2e} "
                  f"{worst_rec:>11.2e} {root} {per_inst:>9.4f}")


def near_neutral_factor(form, seed, neutrality):
    """N = V D V^H over n // 2 orthonormal columns V = QR(V0 + eps E), V0
    from a Lagrangian frame and E a unit complex Gaussian direction, eps
    scaled (to first order) so that ||V^H B V||_F = neutrality."""
    v0 = random_lagrangian_frame(form, 1000 + seed)[:, :form.half // 2]
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(v0.shape) + 1j * rng.standard_normal(v0.shape)
    e /= fro(e)

    def frame(eps):
        return np.linalg.qr(v0 + eps * e)[0]

    trial = 1e-10
    v = frame(trial * neutrality / fro(gram(frame(trial), form)))
    k = v.shape[1]
    d = np.linspace(0.6, 1.9, k) * np.exp(2j * np.pi * 0.37 * np.arange(k))
    return v @ np.diag(d) @ herm_transpose(v)


def near_neutral_outcomes(delta):
    """Outcome counts of reconstruct_from_normal_factor over the
    near-neutral family at one delta: "certified" or the error's name."""
    outcomes = Counter()
    for formf in (symplectic_form, perplectic_form):
        for n in NEAR_SIZES:
            form = formf(n)
            for seed in range(NEAR_SEEDS):
                n_mat = near_neutral_factor(form, seed, delta)
                try:
                    reconstruct_from_normal_factor(n_mat, Sign.PLUS, form,
                                                   NEAR_TOL)
                    outcomes["certified"] += 1
                except StructDiagError as exc:
                    outcomes[type(exc).__name__] += 1
    return outcomes


def near_neutral_sweep():
    print(f"\nnear-neutral reconstruction, structure_tol "
          f"{NEAR_TOL.structure_tol:g}, n in {NEAR_SIZES}, both forms, "
          f"seeds 0-{NEAR_SEEDS - 1}")
    header = f"{'delta':>8}  outcomes"
    print(header)
    print("-" * len(header))
    for delta in NEAR_DELTAS:
        counts = near_neutral_outcomes(delta)
        listed = ", ".join(f"{name} {count}"
                           for name, count in sorted(counts.items()))
        print(f"{delta:>8.0e}  {listed}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--seeds", type=int, default=25)
    parser.add_argument("--kinds", nargs="+", default=list(STRUCTURE_KINDS))
    parser.add_argument("--critical-share", type=float, default=0.25,
                        help="fraction of core entries planted on the "
                             "critical axis")
    args = parser.parse_args()
    np.set_printoptions(precision=3)
    sweep(args.kinds, args.sizes, args.seeds, args.critical_share)
    near_neutral_sweep()


if __name__ == "__main__":
    main()
