"""Median wall time per check of ``pocgraph selftest`` over repeated runs.

    python3 perfbench/selftest_medians.py --scale quick --runs 3

Each run is a fresh interpreter running ``python3 -m pocgraph.cli selftest``
on ./src; the table gives each check's median and the median total.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import subprocess
import sys

from loading import ROOT, SRC


def one_run(scale: str) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "pocgraph.cli", "selftest", "--scale", scale],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"selftest failed:\n{proc.stdout}{proc.stderr}")
    times = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "check":
            times[parts[1]] = float(parts[3].removesuffix("ms")) / 1000.0
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=("quick", "full"), default="quick")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args()
    runs = [one_run(args.scale) for _ in range(args.runs)]
    print(f"selftest --scale {args.scale}: median of {args.runs} runs, "
          f"Python {platform.python_version()}, {os.cpu_count()} cores")
    for name in runs[0]:
        values = [r[name] for r in runs]
        print(f"| {name} | {statistics.median(values):.3f} s | {min(values):.3f}-{max(values):.3f} s |")
    totals = [sum(r.values()) for r in runs]
    print(f"| total | {statistics.median(totals):.1f} s | {min(totals):.1f}-{max(totals):.1f} s |")


if __name__ == "__main__":
    main()
