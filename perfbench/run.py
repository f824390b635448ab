"""End-to-end benchmark of the model-free verification pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload fulltable_cold --seed 1 --seconds 30 --trace 0

Each workload runs in its own process (``workload.py``) against the
program in ``src/``. Set-up is timed from process start to the child's
``READY`` line, several times per run (fresh probe processes plus the
measuring one), and reported as the median. Every reported time is
scaled to a reference host speed by the probe in ``speed.py``. The last
stdout line is the result JSON; the line before it records host context
(steal ticks over the run, the probe loop timed at start and end, the
unscaled set-up samples) so a run on a slow host can be recognised.
Exits non-zero without a result when the workload fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fulltable_cold", "mesh_cold", "churn_service")
# Set-up samples per run: set-up is cheap on the cold workloads and
# includes a baseline convergence on churn_service.
SETUP_SAMPLES = {"fulltable_cold": 9, "mesh_cold": 7, "churn_service": 5}
# Allowance beyond --seconds for the set-up probes and the operation
# running when the measuring window closes.
SLACK_S = 120.0


def steal_ticks() -> int:
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def launch(args, probe: bool, deadline: float):
    """Start one workload process; returns (set-up seconds, lines, rc)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MFV_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--probe"] if probe else [])
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    setup, lines = None, []
    try:
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = time.perf_counter() - started
            else:
                lines.append(line.rstrip("\n"))
        rc = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    return setup, lines, rc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + args.seconds + SLACK_S
    steal = steal_ticks()
    loop_start = speed.probe()

    # Set-up samples: fresh probe processes that exit at READY, then the
    # measuring one. Each is scaled by host-speed probes around it; the
    # measuring process runs on after READY, so only its first probe is
    # adjacent.
    setups, scaled = [], []
    samples = SETUP_SAMPLES[args.workload]
    for sample in range(samples):
        measuring = sample == samples - 1
        before = speed.probe()
        setup, lines, rc = launch(args, not measuring, deadline)
        if rc != 0 or setup is None:
            print(f"workload failed (exit {rc})", file=sys.stderr)
            return 1
        after = before if measuring else speed.probe()
        setups.append(setup)
        scaled.append(setup / speed.factor(before, after))
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("workload printed no result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    print(json.dumps({"context": {
        "steal_ticks": steal_ticks() - steal if steal >= 0 else None,
        "reference_loop_s": [loop_start, speed.probe()],
        "setup_samples_s": setups,
        "cpus": os.cpu_count(),
    }}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
