#!/usr/bin/env python3
"""Time the two stepping kernels of a Sampled propagation against each other.

For each level count N and subspace size M, steps an M-column frame through
a cosine drive H(t) = H0 + cos(t) H1 (random H0, H1 of spectral norm about
1, sampled on the propagation grid) over --steps steps of tau = 1, chunk by
chunk as dynamics._propagate does, and prints the time of
dynamics._slice_march (prefix products of linalg.unitary_stack slices) over
that of dynamics._taylor_march (Taylor action on the frame), on one BLAS
thread and best of --repeats. Each kernel is timed as propagate_frame runs
it, midpoint sampling included: the slice kernel samples each chunk's
midpoint H as one stack, the Taylor kernel forms each step's H right before
its products and plans from the spec's per-sample norms, which the first,
untimed run caches as a spec's first propagation does. Below 1 the slice
kernel wins. dynamics._propagate takes the slice kernel below N = 20; rerun
this on other hardware to check that rule.
"""

import os

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import timeit

import numpy as np

from holosplit.dynamics import TimeGrid, _chunks, _Midpoints, _slice_march, _taylor_march
from holosplit.instances import cosine_drive, random_frame, random_hermitian

SUBSPACES = (2, 4)


def best_time(fn, repeats: int) -> float:
    return min(timeit.repeat(fn, number=1, repeat=repeats))


def march(kernel, spec, mids: np.ndarray, dts: np.ndarray, out: np.ndarray) -> None:
    for sl in _chunks(dts.size, out.shape[1]):
        kernel(_Midpoints(spec, mids[sl]), dts[sl], out[sl.start : sl.stop + 1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[4, 6, 8, 10, 12, 16, 24],
                        help="level counts N to time")
    parser.add_argument("--steps", type=int, default=1024, help="steps over tau = 1")
    parser.add_argument("--repeats", type=int, default=5, help="timings per kernel, best kept")
    args = parser.parse_args()

    grid = TimeGrid.uniform(1.0, args.steps)
    dts = np.diff(grid.times)
    mids = 0.5 * (grid.times[:-1] + grid.times[1:])
    print(f"{'N':>4} " + " ".join(f"{f'M={m}':>7}" for m in SUBSPACES))
    for n in args.dims:
        rng = np.random.default_rng(n)
        scale = 1.0 / np.sqrt(n)
        spec = cosine_drive(random_hermitian(n, rng, scale), random_hermitian(n, rng, scale), grid)
        ratios = []
        for m in SUBSPACES:
            if m > n:
                ratios.append(float("nan"))
                continue
            a, b = (np.empty((grid.times.size, n, m), dtype=complex) for _ in range(2))
            a[0] = b[0] = random_frame(n, m, rng)
            march(_slice_march, spec, mids, dts, a)
            march(_taylor_march, spec, mids, dts, b)
            if not np.allclose(a, b, rtol=0.0, atol=1e-12):
                raise AssertionError(f"slice and Taylor marches differ at N = {n}, M = {m}")
            ratios.append(best_time(lambda: march(_slice_march, spec, mids, dts, a), args.repeats)
                          / best_time(lambda: march(_taylor_march, spec, mids, dts, b), args.repeats))
        print(f"{n:>4} " + " ".join(f"{x:>7.2f}" for x in ratios))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
