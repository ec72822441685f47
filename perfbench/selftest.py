#!/usr/bin/env python3
"""Self-test of the pipeline benchmark on golden-26.

Runs one untraced and one traced pass and checks that:
- both complete with correct artifacts and no failed stage run;
- every printed metric is declared, with the same unit, in BENCHMARK.json,
  and every declared metric is printed;
- in the written spans, each stage's descendants' self times sum to no
  more than the stage span.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tracing import stage_accounting_errors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "golden-26",
         "--seed", "1", "--seconds", "3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        meta, result = run(trace)
        label = f"--trace {trace}"
        if not result["correct"] or result["failed"]:
            failures.append(f"{label}: run not correct: {meta['errors']}")
        units = {m["name"]: m["unit"] for m in declared[section]}
        for name, metric in result["metrics"].items():
            if units.get(name) != metric["unit"]:
                failures.append(f"{label}: {name} [{metric['unit']}] not declared in {section}")
        for name in sorted(set(units) - set(result["metrics"])):
            failures.append(f"{label}: declared metric {name} not printed")
        if trace:
            with open(ROOT / meta["trace_file"], encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh]
            spans = [[r["name"], r["start"], r["end"], r["parent"], r["stage"], r["counts"]]
                     for r in rows]
            stages = {s[4] for s in spans if s[0] == "stage"}
            if len(stages) != 5:
                failures.append(f"{label}: stage spans for {sorted(stages)} only")
            failures += [f"{label}: {e}" for e in stage_accounting_errors(spans)]
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
