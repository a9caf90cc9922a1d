#!/usr/bin/env python3
"""Print the memory of each stage of a decompose, as tracemalloc sees it.

Runs the three stages of holonomy.decompose on a cosine drive H(t) = H0 +
cos(t) H1 of two seeded random N x N Hermitians (scale 0.7 / sqrt(N), as
the benchmark's wide_drive workload has them), sampled on the uniform grid
of --steps steps over tau = 1, from a seeded random N x M frame, with a
phase-anchored section. For each stage it prints its tracemalloc peak above
the bytes live before it and the bytes live after it, in MB and as a
multiple of the frame path's T N M 16 bytes; a last row gives the whole
decompose, its peak above the bytes live before the first stage. The
defaults are wide_drive's 512-step decompose (N = 64, M = 4).
"""

import argparse
import tracemalloc

import numpy as np

from holosplit.dynamics import TimeGrid, propagate_frame
from holosplit.holonomy import separability_report
from holosplit.instances import cosine_drive, random_frame, random_hermitian
from holosplit.sections import PhaseAnchored, build_section


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=64, help="levels N")
    parser.add_argument("--m", type=int, default=4, help="subspace dimension M")
    parser.add_argument("--steps", type=int, default=512, help="grid steps")
    parser.add_argument("--seed", type=int, default=1, help="seed of H0, H1 and the frame")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    scale = 0.7 / np.sqrt(args.n)
    h0, h1 = random_hermitian(args.n, rng, scale), random_hermitian(args.n, rng, scale)
    psi0 = random_frame(args.n, args.m, rng)
    grid = TimeGrid.uniform(1.0, args.steps)
    spec = cosine_drive(h0, h1, grid)
    path_bytes = len(grid) * args.n * args.m * 16

    held = []  # each stage's result, for the stages after it
    stages = (
        ("propagate_frame", lambda: propagate_frame(spec, psi0, grid)),
        ("build_section", lambda: build_section(PhaseAnchored(), held[0], spec)),
        ("separability_report", lambda: separability_report(held[1], held[0], spec)),
    )
    print(f"frame path {path_bytes / 1e6:.3f} MB: {len(grid)} x {args.n} x {args.m} complex")
    print(f"{'stage':>20} {'peak MB':>8} {'x path':>7} {'live MB':>8} {'x path':>7}")

    def row(name: str, peak: int, live: int) -> None:
        print(f"{name:>20} {peak / 1e6:>8.3f} {peak / path_bytes:>7.2f} "
              f"{live / 1e6:>8.3f} {live / path_bytes:>7.2f}")

    tracemalloc.start()
    try:
        start = top = tracemalloc.get_traced_memory()[0]
        for name, run in stages:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            held.append(run())
            live, peak = tracemalloc.get_traced_memory()
            top = max(top, peak)
            row(name, peak - base, live - start)
        row("decompose", top - start, live - start)
    finally:
        tracemalloc.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
