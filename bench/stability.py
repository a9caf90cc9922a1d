#!/usr/bin/env python3
"""Repeat each workload with fresh seeds and print the spread of every
end-to-end metric against the bounds in BENCHMARK.json.

    python3 bench/stability.py --runs 10 [--sets 2] [--workload wide_drive]

For each metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median. A spread above a third of the
metric's bound is flagged; setup_s is exempt, since only its median is
compared. With --sets 2 it also prints how far the second set's median
moved from the first, in the metric's worse direction, and whether the
share of failed operations is identical in both sets. Raw results go to
.bench_out/stability.json. Exits 1 if any check is not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to repeat (default: all); may be given twice")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    raw: dict[str, list[list[dict]]] = {}
    ok = True
    for name in workloads:
        sets = []
        for k in range(args.sets):
            seeds = range(args.first_seed + k * args.runs, args.first_seed + (k + 1) * args.runs)
            sets.append([run_once(name, s, bench["run_seconds"]) for s in seeds])
        raw[name] = sets
        print(f"== {name}: {args.sets} set(s) of {args.runs} runs, {bench['run_seconds']} s each")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        print(f"   failed share per set: {', '.join(f'{s:.6f}' for s in shares)}")
        ok &= len(set(shares)) == 1
        for metric, spec in metrics.items():
            meds = []
            for runs in sets:
                med, q1, q3, sp = spread([r["metrics"][metric]["value"] for r in runs])
                meds.append(med)
                flag = ""
                if metric != "setup_s" and sp > spec["bound"] / 3:
                    flag, ok = "  SPREAD ABOVE BOUND/3", False
                print(f"   {metric:<20} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {sp:.4f} (bound {spec['bound']}){flag}")
            for first, later in zip(meds, meds[1:]):
                worse = (later - first) / first
                worse = worse if spec["better"] == "lower" else -worse
                flag = ""
                if worse > spec["bound"]:
                    flag, ok = "  MEDIAN MOVED BEYOND BOUND", False
                print(f"   {metric:<20} second-set median worse by {worse:+.4f}{flag}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "stability.json").write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
