"""Steadiness check: run each workload several times and print the
median and quartiles of every end-to-end metric against its bound.

    python3 perfbench/steady.py --runs 10 [--workloads fulltable_cold,...]
        [--first-seed 1 | --same-seed N] [--seconds N]

Runs take seeds first-seed, first-seed + 1, ... so the spread holds both
what the seed changes and the host's noise; with --same-seed every run
takes one seed, so the spread is the host's noise alone. A spread is
(third quartile - first quartile) / median over the runs, the statistic
the bounds in BENCHMARK.json are set against; a spread under a third of
the bound is steady. Exits 1 if any run fails or is incorrect, or if any
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--first-seed", type=int, default=1)
    seeds.add_argument("--same-seed", type=int)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for run in range(args.runs):
            seed = args.first_seed + run if args.same_seed is None else args.same_seed
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            context = json.loads(lines[-2])["context"]
            unscaled = json.loads(lines[-3])["unscaled"]
            print(f"  seed {seed} ({time.perf_counter() - started:.0f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + " unscaled " + " ".join(f"{k}={v:.4g}" for k, v in unscaled.items()),
                flush=True)
            ok &= result["correct"]
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, failed/attempted {sorted(shares)}")
        for metric in spec["end_to_end"]:
            series = values.get(metric["name"], [])
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            flag = "ok" if spread <= metric["bound"] / 3 else (
                "within bound" if spread <= metric["bound"] else "OVER BOUND")
            ok &= spread <= metric["bound"]
            print(f"  {metric['name']:20s} median {median:12.6g} {metric['unit']:6s}"
                  f" q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}"
                  f" bound {metric['bound']:.0%}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
