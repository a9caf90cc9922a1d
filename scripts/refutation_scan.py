#!/usr/bin/env python3
"""Sweep seeded generic 4-level instances and tabulate the two residuals.

The product form W = G D holds at the integrator error level on every
instance, while the forward-ordered holonomic x dynamical split fails by
orders of magnitude more, which is the point: the product form is an
identity, not a separation.
"""

import argparse

from holosplit.holonomy import decompose
from holosplit.instances import refutation_instance
from holosplit.sections import InPhaseViolation, PhaseAnchored, SectionError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=12, help="number of seeds to try")
    parser.add_argument("--first-seed", type=int, default=7)
    args = parser.parse_args()

    print(f"{'seed':>6} {'product_residual':>18} {'separation_residual':>20} "
          f"{'max_commutator':>16} {'class':>15}")
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        spec, psi0 = refutation_instance(seed)
        try:
            _, rep = decompose(spec, psi0, PhaseAnchored(), spec.grid)
        except (SectionError, InPhaseViolation) as exc:
            print(f"{seed:>6} {'-':>18} {'-':>20} {'-':>16} section invalid: {exc}")
            continue
        print(f"{seed:>6} {rep.product_residual:>18.3e} "
              f"{rep.separation_residual:>20.3e} {rep.max_commutator:>16.3e} "
              f"{rep.classification:>15}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
