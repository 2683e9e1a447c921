#!/usr/bin/env python3
"""Residual sweep over random structured-diagonalizable instances.

For each structure kind and size, draws seeded instances, runs the
automorphic diagonalization (structured_diagonalize), the unitary one
built from orthonormal eigenspaces (unitary_refine), the additive
decomposition, the reconstruction from the planted normal factor
N = V diag(core) V^H (V the first half of the planted transform) and,
for the selfadjoint kinds, the structured square root, and prints
worst-case residuals. A quick way to eyeball numerical headroom against
FACTOR_GUARANTEE (1e-8) and, in the root column, ROOT_GUARANTEE (1e-7).

Usage:
    python scripts/residual_sweep.py --sizes 1 2 4 8 --seeds 25
"""

import argparse
import time

import numpy as np

from structdiag import (
    STRUCTURE_KINDS,
    Sign,
    Variant,
    decompose_additive,
    form_for_kind,
    random_structured_diagonalizable,
    reconstruct_from_normal_factor,
    rel_residual,
    structured_diagonalize,
    structured_root,
    unitary_refine,
    variant_for_kind,
)
from structdiag.core import herm_transpose


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
                n_mat = v @ np.diag(inst.core) @ herm_transpose(v)
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


if __name__ == "__main__":
    main()
