#!/usr/bin/env python3
"""Time the entrywise kernel of linalg.products against numpy's matmul.

For each (r, k, c) shape and each stack size n, prints the time of the
entrywise sums over the time of one batched matmul for a complex
(n, r, k) @ (n, k, c) product, on one BLAS thread and best of --repeats.
Below 1 the entrywise sums win. products sums entry by entry when k <= 4
and r c <= 8; rerun this on other hardware to check that rule.
"""

import os

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import timeit

import numpy as np

from holosplit.linalg import _entrywise_products

SHAPES = ((2, 2, 2), (3, 2, 2), (3, 3, 2), (4, 4, 2), (4, 4, 4))


def best_time(fn, number: int, repeats: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=repeats)) / number


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batches", type=int, nargs="+", default=[2048, 16384],
                        help="stack sizes n to time")
    parser.add_argument("--repeats", type=int, default=7, help="timings per kernel, best kept")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(f"{'r, k, c':>9} " + " ".join(f"{f'n={n}':>9}" for n in args.batches))
    for r, k, c in SHAPES:
        ratios = []
        for n in args.batches:
            a = rng.standard_normal((n, r, k)) + 1j * rng.standard_normal((n, r, k))
            b = rng.standard_normal((n, k, c)) + 1j * rng.standard_normal((n, k, c))
            if not np.allclose(_entrywise_products(a, b), a @ b, rtol=0.0, atol=1e-12):
                raise AssertionError(f"entrywise and matmul products differ at {(r, k, c)}")
            # about 4096 matrices per timing, so small stacks are not all overhead
            number = max(1, 4096 // n)
            entrywise = best_time(lambda: _entrywise_products(a, b), number, args.repeats)
            matmul = best_time(lambda: a @ b, number, args.repeats)
            ratios.append(entrywise / matmul)
        print(f"{f'{r}, {k}, {c}':>9} " + " ".join(f"{x:>9.2f}" for x in ratios))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
