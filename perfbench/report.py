#!/usr/bin/env python3
"""Run every workload untraced and traced, and print each run's metrics.

Usage, from the repository root:

    python3 perfbench/report.py [--seed N] [--seconds S]

Prints every end-to-end metric (trace 0) and every per-layer metric with
the tracing overhead (trace 1) by name and unit, for all four workloads.
Exits non-zero if any run failed a check.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description="Run every workload and print its metrics.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
            print(f"== {name}, trace {trace}: exit {done.returncode}")
            print("\n".join(done.stdout.splitlines()[:-1]))
            if done.returncode != 0:
                status = 1
                print(done.stderr, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
