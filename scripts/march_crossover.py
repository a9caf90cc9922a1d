#!/usr/bin/env python3
"""Time the stepping kernels of a Sampled propagation against each other.

For each level count N and subspace size M, steps an M-column frame through
a cosine drive H(t) = H0 + cos(t) H1 (random H0, H1 of spectral norm about
1, sampled on the propagation grid) over --steps steps of tau = 1, chunk by
chunk as dynamics._propagate does, and prints the time of
dynamics._slice_march (prefix products of full N x N slices) over that of
dynamics._taylor_march (Taylor action on the frame), on one BLAS thread and
best of --repeats. Each kernel is timed as propagate_frame runs it,
reading H from the Sampled spec: the slice kernel gets each chunk's
midpoint H as one hamiltonian_path stack, the Taylor kernel takes the spec
and the chunk's midpoint times, forms each step's H right before its
products and plans from the spec's per-sample norms, which the first,
untimed run caches as a spec's first propagation does. Below 1 the slice
kernel wins. dynamics._propagate takes the slice kernel below N = 20.

The last column is the slice kernel's time with 2N x 2N real slices over
its time with complex N x N ones (linalg.unitary_stack) at M = 2, each
route forced through dynamics._REAL_SLICES and chunked as
dynamics._propagate chunks it, at every N given. Below 1 the real slices
win; dynamics._REAL_SLICES takes them from N = 3 to 5, where they won in
every run measured. Every pair of kernels timed must agree to 1e-12. Rerun
this on other hardware to check both rules.
"""

import os

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import timeit

import numpy as np

from holosplit import dynamics
from holosplit.dynamics import TimeGrid, _chunks, _slice_march, _taylor_march, hamiltonian_path
from holosplit.instances import cosine_drive, random_frame, random_hermitian

SUBSPACES = (2, 4)


def best_time(fn, repeats: int) -> float:
    return min(timeit.repeat(fn, number=1, repeat=repeats))


def march(taylor: bool, spec, mids: np.ndarray, dts: np.ndarray, out: np.ndarray) -> None:
    """Step out[0] over the run by the Taylor (True) or the slice kernel,
    chunk by chunk as dynamics._propagate does."""
    n = out.shape[1]
    for sl in _chunks(dts.size, 2 * n if n in dynamics._REAL_SLICES else n):
        frames = out[sl.start : sl.stop + 1]
        if taylor:
            _taylor_march(spec, mids[sl], dts[sl], frames)
        else:
            _slice_march(hamiltonian_path(spec, mids[sl]), dts[sl], frames)


def forced_march(real: bool, spec, mids: np.ndarray, dts: np.ndarray, out: np.ndarray) -> None:
    """march of the slice kernel with real (True) or complex slices."""
    saved = dynamics._REAL_SLICES
    dynamics._REAL_SLICES = range(out.shape[1], out.shape[1] + 1) if real else range(0)
    try:
        march(False, spec, mids, dts, out)
    finally:
        dynamics._REAL_SLICES = saved


def timed_pair(first, second, out: np.ndarray, n: int, m: int, repeats: int) -> float:
    """The time of first over that of second, each run once untimed into
    its half of out and checked against the other to 1e-12."""
    first()
    second()
    if not np.allclose(out[0], out[1], rtol=0.0, atol=1e-12):
        raise AssertionError(f"the kernels differ at N = {n}, M = {m}")
    return best_time(first, repeats) / best_time(second, repeats)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 6, 8, 10, 12, 16, 24],
                        help="level counts N to time")
    parser.add_argument("--steps", type=int, default=1024, help="steps over tau = 1")
    parser.add_argument("--repeats", type=int, default=5, help="timings per kernel, best kept")
    args = parser.parse_args()
    if min(args.dims) < SUBSPACES[0]:
        parser.error(f"every N must be at least {SUBSPACES[0]}")

    grid = TimeGrid.uniform(1.0, args.steps)
    dts = np.diff(grid.times)
    mids = 0.5 * (grid.times[:-1] + grid.times[1:])
    print(f"{'N':>4} " + " ".join(f"{f'M={m}':>7}" for m in SUBSPACES) + f" {'real':>7}")
    for n in args.dims:
        rng = np.random.default_rng(n)
        scale = 1.0 / np.sqrt(n)
        spec = cosine_drive(random_hermitian(n, rng, scale), random_hermitian(n, rng, scale), grid)
        ratios = []
        for m in SUBSPACES:
            if m > n:
                ratios.append(float("nan"))
                continue
            out = np.empty((2, grid.times.size, n, m), dtype=complex)
            out[:, 0] = random_frame(n, m, rng)
            ratios.append(timed_pair(lambda: march(False, spec, mids, dts, out[0]),
                                     lambda: march(True, spec, mids, dts, out[1]),
                                     out, n, m, args.repeats))
            if m == SUBSPACES[0]:
                real = timed_pair(lambda: forced_march(True, spec, mids, dts, out[0]),
                                  lambda: forced_march(False, spec, mids, dts, out[1]),
                                  out, n, m, args.repeats)
        print(f"{n:>4} " + " ".join(f"{x:>7.2f}" for x in [*ratios, real]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
