#!/usr/bin/env python3
"""Residual sweep over random structured-diagonalizable instances.

For each structure kind and size, draws seeded instances, runs the
automorphic diagonalization (structured_diagonalize), the unitary one
built from orthonormal eigenspaces (unitary_refine), and the additive
decomposition, and prints worst-case residuals. A quick way to eyeball
numerical headroom against FACTOR_GUARANTEE (1e-8).

Usage:
    python scripts/residual_sweep.py --sizes 1 2 4 8 --seeds 25
"""

import argparse
import time

import numpy as np

from structdiag import (
    STRUCTURE_KINDS,
    decompose_additive,
    form_for_kind,
    random_structured_diagonalizable,
    structured_diagonalize,
    unitary_refine,
)


def sweep(kinds, sizes, seeds, critical_share):
    header = f"{'kind':<20} {'n':>3} {'diag':>10} {'unitary':>10} " \
             f"{'decomp':>10} {'sec/inst':>9}"
    print(header)
    print("-" * len(header))
    for kind in kinds:
        for n in sizes:
            worst_diag = worst_unit = worst_dec = 0.0
            started = time.perf_counter()
            for seed in range(seeds):
                inst = random_structured_diagonalizable(
                    kind, n, seed, critical_share=critical_share)
                form = form_for_kind(kind, n)
                d = structured_diagonalize(inst.matrix, form)
                u = unitary_refine(inst.matrix, form)
                dec = decompose_additive(inst.matrix, form)
                worst_diag = max(worst_diag, d.residual_automorphism,
                                 d.residual_similarity)
                worst_unit = max(worst_unit, u.residual_automorphism,
                                 u.residual_similarity)
                worst_dec = max(worst_dec, dec.residuals.worst)
            per_inst = (time.perf_counter() - started) / max(1, seeds)
            print(f"{kind:<20} {n:>3} {worst_diag:>10.2e} "
                  f"{worst_unit:>10.2e} {worst_dec:>10.2e} {per_inst:>9.4f}")


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
