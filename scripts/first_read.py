#!/usr/bin/env python3
"""Time and size the first read of a sampled-Hamiltonian file.

For each STEPSxN in --files, writes the cosine drive H(t) = H0 + cos(t) H1
of two seeded random N x N Hermitians on STEPS + 1 times over tau = 2 with
config.write_sampled_hamiltonian; at N = 4 this is refutation instance 7's
Hamiltonian. Then prints, best of --repeats: the first read (a parse, and
the cache entry written; the entry is deleted before each read), its
tracemalloc peak as a multiple of the file's size, a cache hit, and np.load
of the same arrays from an uncompressed .npz file. Every read must give the
written arrays bit for bit. The defaults are the 2.6 MB refutation-7 file
(4097 x 4 x 4) and a 64-level drive (513 x 64 x 64) whose every matrix is
longer than the slice the flat route parses at a time.
"""

import argparse
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from holosplit import config
from holosplit.dynamics import TimeGrid
from holosplit.instances import cosine_drive, random_hermitian


def best_time(fn, repeats: int, before=lambda: None) -> float:
    """The shortest of repeats timed calls of fn, each after an untimed before()."""
    best = np.inf
    for _ in range(repeats):
        before()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check(got, times: np.ndarray, samples: np.ndarray, what: str) -> None:
    if got[0].tobytes() != times.tobytes() or got[1].tobytes() != samples.tobytes():
        raise AssertionError(f"{what} does not give the written arrays")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--files", nargs="+", default=["4096x4", "512x64"],
                        help="STEPSxN: the drive's grid steps and dimension")
    parser.add_argument("--repeats", type=int, default=15, help="timings per read, best kept")
    args = parser.parse_args()

    print(f"{'file':>12} {'MB':>6} {'first ms':>9} {'peak/file':>9} {'hit ms':>7} {'npz ms':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        for spec in args.files:
            steps, n = (int(x) for x in spec.split("x"))
            rng = np.random.default_rng(7)
            h0, h1 = random_hermitian(n, rng, scale=0.45), random_hermitian(n, rng, scale=0.45)
            ham = cosine_drive(h0, h1, TimeGrid.uniform(2.0, steps))
            times, samples = ham.grid.times, ham.samples
            path, npz = Path(tmp) / f"{spec}.json", Path(tmp) / f"{spec}.npz"
            config.write_sampled_hamiltonian(path, times, samples)
            np.savez(npz, times=times, matrices=samples)
            entry = path.parent / "__holosplit_cache__" / f"{path.name}.entry"

            def read():
                return config._read_matrix_file(path, "sampled Hamiltonian")

            def load():
                with np.load(npz) as z:
                    return z["times"], z["matrices"]

            def forget():
                entry.unlink(missing_ok=True)

            tracemalloc.start()
            try:
                got = read()
                peak = tracemalloc.get_traced_memory()[1] / path.stat().st_size
            finally:
                tracemalloc.stop()
            check(got, times, samples, "a first read")
            check(read(), times, samples, "a cache hit")
            check(load(), times, samples, "np.load")
            # the last timed first read leaves the entry for the hits
            first = best_time(read, args.repeats, forget)
            hit, npz_load = best_time(read, args.repeats), best_time(load, args.repeats)
            print(f"{'x'.join(map(str, samples.shape)):>12} {path.stat().st_size / 1e6:>6.3g} "
                  f"{first * 1e3:>9.2f} {peak:>9.2f} {hit * 1e3:>7.2f} {npz_load * 1e3:>7.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
