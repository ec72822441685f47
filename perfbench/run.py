#!/usr/bin/env python3
"""Pipeline benchmark for the nextday CLI.

Run from the repository root:

    python3 perfbench/run.py --workload full-150 --seed 1 --seconds 55 --trace 0

Workloads (see workloads.py): full-150 and golden-26. The
seed picks the generated corpus; golden-26 always uses the committed one.

--trace 0 runs each stage (ingest-check, associate, features, evaluate,
report) as its own `python -m nextday.cli` process, closed loop, one at a
time, timed from outside. After one full pass it runs rounds of
ingest-check plus whichever other stage has the fewest samples and still
fits in the remaining --seconds, so the set-up samples spread over the
whole run. The host's speed drifts in phases of minutes, so a fixed
interpreter loop (calibration.py) is timed before and after every stage
process, and each stage sample is scaled to the loop's reference speed:
wall * CALIBRATION_REF_S / (mean of the two loop times). Each time metric
is the median of its stage's scaled samples; the raw wall-time medians are
in the meta line. Every run's
artifacts are hashed and compared with the committed reference digests when
the inputs match the reference inputs, and otherwise with the first run in
this invocation; golden-26 is also checked against its oracle files. A run
fails if it exits non-zero or its bytes differ.

--trace 1 calls nextday.cli.main in-process for each stage, once without
and then once with timing wrappers around each layer (see tracing.py), and
reports per-layer metrics. The spans are written to .bench_work/traces/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The line before it describes the inputs and the machine. Each run
is also appended to .bench_work/results.jsonl.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from calibration import CALIBRATION_REF_S, calibrate
from tracing import Tracer, association_counts, layer_metrics, stage_accounting_errors
from workloads import (
    DEFAULT_SEED,
    INPUTS,
    STAGES,
    WORKLOADS,
    config_args,
    line_count,
    oracle_errors,
    prepare_inputs,
    required_files,
    sha256_file,
    stage_argv,
    stage_artifacts,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 5
STAGE_TIMEOUT_S = 150.0


class Checker:
    """Counts stage runs and compares their artifacts with the expected bytes."""

    def __init__(self, workload, out_dir: Path, expected: dict | None):
        self.workload = workload
        self.out_dir = out_dir
        self.expected = dict(expected or {})
        self.first = {}  # digests of the first run, the fallback expectation
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, stage: str, code: int, log: str = "") -> bool:
        self.attempted += 1
        errors = [f"{stage} exited with code {code}: {log[-400:]}"] if code != 0 else []
        for name in stage_artifacts(self.workload, stage) if code == 0 else ():
            path = self.out_dir / name
            if not path.exists():
                errors.append(f"{stage} left no {name}")
                continue
            digest = sha256_file(path)
            self.first.setdefault(name, digest)
            want = self.expected.get(name, self.first[name])
            if digest != want:
                errors.append(f"{stage}: {name} sha256 {digest[:12]} != expected {want[:12]}")
            if self.workload.articles is None:
                errors += oracle_errors(ROOT, self.out_dir, name)
        if errors:
            self.failed += 1
            self.errors += errors
        return not errors


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_stage_process(argv: list[str], env: dict, log_path: Path) -> tuple[float, float, int]:
    """Wall seconds, max RSS in MB and exit code of one `nextday` stage process."""
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "nextday.cli", *argv],
            cwd=ROOT, env=env, stdout=log, stderr=log,
        )
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_untraced(workload, common: list[str], checker: Checker, seconds: int, work: Path):
    env = child_env()
    samples = {stage: [] for stage in STAGES}  # wall seconds at the reference speed
    walls = {stage: [] for stage in STAGES}
    peak_rss = []
    log_path = work / "stage.log"
    calibration = [calibrate()]

    def attempt(stage: str) -> bool:
        wall, rss, code = run_stage_process(stage_argv(workload, stage, common), env, log_path)
        calibration.append(calibrate())
        peak_rss.append(rss)
        ok = checker.record(stage, code, log_path.read_text(errors="replace"))
        if ok:
            walls[stage].append(wall)
            samples[stage].append(wall * CALIBRATION_REF_S / statistics.mean(calibration[-2:]))
        return ok

    # One full pass, then rounds of ingest-check plus the stage with the fewest
    # samples that still fits, so set-up samples spread over the whole run.
    deadline = time.perf_counter() + seconds
    healthy = all(attempt(stage) for stage in STAGES)
    while healthy:
        remaining = deadline - time.perf_counter() - statistics.median(walls[STAGES[0]])
        fits = [s for s in STAGES[1:] if statistics.median(walls[s]) <= remaining]
        if not fits and len(samples[STAGES[0]]) >= SETUP_SAMPLES:
            break
        healthy = attempt(STAGES[0])
        if healthy and fits:
            healthy = attempt(min(fits, key=lambda s: len(samples[s])))

    med = {s: statistics.median(v) if v else None for s, v in samples.items()}
    pipeline = sum(med.values()) if all(v is not None for v in med.values()) else None
    metrics = {
        "setup_s": (med["ingest-check"], "s"),
        "associate_s": (med["associate"], "s"),
        "features_s": (med["features"], "s"),
        "evaluate_s": (med["evaluate"], "s"),
        "pipeline_s": (pipeline, "s"),
        "peak_rss_mb": (max(peak_rss), "MB"),
        "ok_ops_share": ((checker.attempted - checker.failed) / checker.attempted, "share"),
    }
    wall_medians = {s: statistics.median(v) if v else None for s, v in walls.items()}
    return metrics, {"samples": samples, "wall_medians": wall_medians, "calibration_s": calibration}


def run_traced(workload, common: list[str], checker: Checker, trace_path: Path):
    import nextday.cli

    def call(stage: str) -> tuple[int, str]:
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                code = nextday.cli.main(stage_argv(workload, stage, common))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, sink.getvalue()

    # Each stage runs untraced and then traced back to back, so the overhead
    # comparison is not skewed by the machine's speed drifting between passes.
    tracer = Tracer()
    untraced = {}
    for stage in STAGES:
        started = time.perf_counter()
        code, log = call(stage)
        untraced[stage] = time.perf_counter() - started
        checker.record(stage, code, log)
        tracer.install()
        try:
            checker.record(stage, *tracer.run_stage(stage, lambda: call(stage)))
        finally:
            tracer.uninstall()
    tracer.write(trace_path)
    for note in tracer.notes:
        print(f"note: {note}", file=sys.stderr)
    checker.errors += stage_accounting_errors(tracer.spans)

    traced_total = sum(s[2] - s[1] for s in tracer.spans if s[0] == "stage")
    overhead = traced_total / sum(untraced.values()) - 1.0
    assoc_path = checker.out_dir / "associations.jsonl"
    assoc = association_counts(assoc_path) if assoc_path.exists() else {}
    extra = {"untraced_in_process_s": untraced, "spans": len(tracer.spans),
             "trace_file": str(trace_path.relative_to(ROOT)), "notes": tracer.notes}
    return layer_metrics(tracer, assoc, overhead), extra


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # benchmark checkouts are plain file trees
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def describe(workload, seed: int, inputs: Path) -> dict:
    """Inputs and environment recorded with every result.

    Importing the package here also compiles its bytecode, so no timed
    stage process pays for that.
    """
    import numpy

    try:
        import nextday.cli  # noqa: F401
        from nextday.learn import kernels
        backend = kernels.active_backend() if hasattr(kernels, "active_backend") else None
    except ImportError:
        backend = None
    return {
        "workload": workload.name,
        "seed": seed if workload.articles is not None else None,
        "inputs": {name: sha256_file(inputs / name) for name in INPUTS},
        "counts": {name.split(".")[0]: line_count(inputs / name) for name in INPUTS},
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "split_backend": backend,
    }


def load_reference(workload, inputs: dict) -> dict | None:
    """Committed artifact digests, when this run's inputs are the reference inputs."""
    entry = json.loads(REFERENCE.read_text()).get(workload.name) if REFERENCE.exists() else None
    if entry and entry["inputs"] == inputs:
        return entry["artifacts"]
    return None


def save_reference(workload, meta: dict, artifacts: dict) -> None:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs[workload.name] = {"seed": meta["seed"], "inputs": meta["inputs"],
                           "artifacts": dict(sorted(artifacts.items()))}
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's artifact digests as the workload's reference")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    missing = [str(p) for p in required_files(workload) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a nextday checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # a terminated benchmark still kills and reaps the stage process it waits on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(ROOT / "src"))
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        inputs = prepare_inputs(ROOT, workload, args.seed, work / "corpus")
        meta = describe(workload, args.seed, inputs)
        reference = None if args.record_reference else load_reference(workload, meta["inputs"])
        meta["artifacts_checked_against"] = "reference" if reference else "first run"
        out_dir = work / "out"
        checker = Checker(workload, out_dir, reference)
        common = config_args(workload, inputs, out_dir)
        if args.trace:
            trace_path = WORK / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
            metrics, extra = run_traced(workload, common, checker, trace_path)
        else:
            metrics, extra = run_untraced(workload, common, checker, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in checker.errors:
        print(f"error: {error}", file=sys.stderr)
    if args.record_reference and not checker.errors and not args.trace:
        save_reference(workload, meta, checker.first)
    result = {
        "correct": not checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    meta.update(extra, trace=args.trace, errors=checker.errors)
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
