#!/usr/bin/env python3
"""Steadiness check of the benchmark itself.

    python3 bench/steady.py --workloads cli,plan,validate --seeds 10 \\
        --sets 2 [--seconds S]

Runs ``bench/run.py --trace 0`` once per seed (1..N) and workload, ``--sets``
times over; every run also runs the correctness gate, and an incorrect run
or a failed operation stops the check.  For each end-to-end metric it
prints the median with its unit; the spread, the distance between the first
and third quartile of the runs as a share of their median; and, with two
sets, how far the second median moved from the first, in either
direction.  A metric passes when its spread and its move both stay within
the bound in ``BENCHMARK.json``.  The spread of ``setup_s`` is printed but
not judged: it is a few sub-second interpreter starts, which on a shared
host swing by tens of percent from one set-up to the next within a run, so
only the move of its median over the runs is held to its bound.  Exits 1
if any metric fails.
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
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed ops")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="cli,plan,validate")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    report = {}
    for workload in args.workloads.split(","):
        sets = [[run_once(workload, seed, seconds)
                 for seed in range(1, args.seeds + 1)]
                for _ in range(args.sets)]
        report[workload] = sets
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            firsts = [r[name] for r in sets[0]]
            s = spread(firsts)
            line = (f"{workload:9s} {name:16s} median "
                    f"{statistics.median(firsts):<12.6g} {metric['unit']:9s}"
                    f" spread {s:7.4f} (bound {bound})")
            good = name == "setup_s" or s <= bound
            if args.sets == 2:
                again = [r[name] for r in sets[1]]
                moved = worse_by(statistics.median(firsts),
                                 statistics.median(again),
                                 metric["better"])
                line += f" second-set worse by {moved:+.4f}"
                good = good and abs(moved) <= bound
            ok = ok and good
            print(line + ("" if good else "  FAIL"), flush=True)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
