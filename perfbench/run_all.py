#!/usr/bin/env python3
"""Run every workload of the pipeline benchmark once and print its metrics.

Run from the repository root:

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Prints one row per workload and metric, with its unit, and exits non-zero
if any workload's artifacts were wrong or a stage run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, item in result["metrics"].items():
            value = "null" if item["value"] is None else f"{item['value']:.6g}"
            print(f"  {metric:<48} {value:>14} {item['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
