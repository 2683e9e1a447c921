#!/usr/bin/env python3
"""Walk one matrix through the whole toolchain and print every artifact.

Draws a random normal Hamiltonian instance, shows its classification,
the balance report, the unitary-symplectic diagonalization, the
additive decomposition A = N - N*, and the structured exponential
checked against scipy's expm.

Usage:
    python scripts/decomposition_demo.py --n 2 --seed 7
"""

import argparse

import numpy as np
import scipy.linalg

from structdiag import (
    classify,
    decompose_additive,
    diagonalizability_report,
    random_structured_diagonalizable,
    rel_residual,
    structured_exp,
    symplectic_form,
    unitary_refine,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    np.set_printoptions(precision=4, suppress=True, linewidth=120)

    form = symplectic_form(args.n)
    inst = random_structured_diagonalizable("hamiltonian", args.n, args.seed)
    a = inst.matrix
    print("A =")
    print(a)
    print("\nstructures:", classify(a, form).true_names())

    report = diagonalizability_report(a, form)
    print("\nbalance decision:", report.decision, "|", report.reason)
    for entry in report.per_eigenvalue:
        print(f"  eigenvalue {entry.value:.4g}: multiplicity "
              f"{entry.multiplicity}, Gram inertia {entry.gram_inertia.counts}")

    diag = unitary_refine(a, form)
    print("\nunitary-symplectic diagonalization:")
    print("  core:", np.round(diag.core, 4))
    print(f"  automorphism residual: {diag.residual_automorphism:.2e}")
    print(f"  similarity residual:   {diag.residual_similarity:.2e}")

    dec = decompose_additive(a, form)
    print(f"\nadditive decomposition, sign {dec.sign.value}:")
    for name, value in dec.residuals.to_dict().items():
        print(f"  {name}: {value:.2e}")

    exp_a, _ = structured_exp(dec, form)
    oracle = scipy.linalg.expm(a)
    print(f"\nexp(A) through the factors vs scipy expm: "
          f"{rel_residual(exp_a, oracle):.2e}")
    print("exp(A) is symplectic:",
          classify(exp_a, form).automorphism.ok)


if __name__ == "__main__":
    main()
