"""The benchmark's workloads: the corpus each one feeds the CLI and the stages it runs.

Every stage is invoked only with `--config`, `--set` and `--scheme`, so the
benchmark keeps working when other CLI flags or environment switches go away.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path

ALL_SCHEMES = (
    "proposed",
    "article_polarity",
    "article_content_polarity",
    "title_polarity",
    "title_content_polarity",
    "event_importance",
)
STAGES = ("ingest-check", "associate", "features", "evaluate", "report")
INPUTS = ("articles.jsonl", "tweets.jsonl", "users.jsonl")
CONFIG = "config.example.json"
GOLDEN_DIR = Path("tests/data/golden")
ORACLE_FEATURES = GOLDEN_DIR / "expected_features_proposed.csv"
ORACLE_ASSOCIATIONS = GOLDEN_DIR / "expected_associations.jsonl"
GENERATOR = Path("tests/signal_corpus.py")
# The generator's own default seed; reference digests are committed for it.
DEFAULT_SEED = 20160803


@dataclass(frozen=True)
class Workload:
    name: str
    articles: int | None  # None: the committed golden corpus, whatever the seed


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's experiment on a generated corpus; the learn layer
        # dominates. Half the ROADMAP's 300-article baseline, so that each
        # stage runs four or more times in a run: single samples of the
        # 300-article stages spread too widely on a shared host.
        Workload("full-150", 150),
        # 26 articles: interpreter start, imports and corpus loading dominate.
        Workload("golden-26", None),
    )
}


def required_files(workload: Workload) -> list[Path]:
    """Files of the repository the workload reads besides the package itself."""
    files = [Path("src/nextday/cli.py"), Path(CONFIG)]
    if workload.articles is None:
        files += [GOLDEN_DIR / name for name in INPUTS] + [ORACLE_FEATURES, ORACLE_ASSOCIATIONS]
    else:
        files.append(GENERATOR)
    return files


def prepare_inputs(root: Path, workload: Workload, seed: int, corpus_dir: Path) -> Path:
    """Directory holding the workload's three input files for `seed`."""
    if workload.articles is None:
        return root / GOLDEN_DIR
    spec = importlib.util.spec_from_file_location("signal_corpus", root / GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.write_signal_corpus(corpus_dir, n_articles=workload.articles, seed=seed)
    return corpus_dir


def config_args(workload: Workload, inputs: Path, out_dir: Path) -> list[str]:
    args = ["--config", CONFIG]
    overrides = {"output_dir": str(out_dir)}
    if workload.articles is not None:
        overrides.update({name.split(".")[0]: str(inputs / name) for name in INPUTS})
    for key, value in overrides.items():
        args += ["--set", f"paths.{key}={json.dumps(value)}"]
    return args


def stage_argv(workload: Workload, stage: str, common: list[str]) -> list[str]:
    argv = [stage, *common]
    if stage in ("features", "evaluate"):
        argv += ["--scheme", "all"]
    return argv


def stage_artifacts(workload: Workload, stage: str) -> list[str]:
    """Artifact files whose bytes are checked after each run of `stage`."""
    if stage == "associate":
        return ["associations.jsonl"]
    if stage == "features":
        return [f"features_{scheme}.csv" for scheme in ALL_SCHEMES]
    if stage in ("evaluate", "report"):
        return ["report.json"]
    return []


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def oracle_errors(root: Path, out_dir: Path, artifact: str) -> list[str]:
    """Differences between a golden-26 artifact and its independent oracle file."""
    produced = out_dir / artifact
    if artifact == "features_proposed.csv":
        if produced.read_bytes() != (root / ORACLE_FEATURES).read_bytes():
            return [f"features_proposed.csv differs from {ORACLE_FEATURES.name}"]
    elif artifact == "associations.jsonl":
        lines = {}
        for line in produced.read_text(encoding="utf-8").splitlines():
            if line.strip():
                lines[json.loads(line)["article_id"]] = line
        oracle = (root / ORACLE_ASSOCIATIONS).read_text(encoding="utf-8")
        errors = []
        for line in oracle.splitlines():
            article_id = json.loads(line)["article_id"]
            if lines.get(article_id) != line:
                errors.append(f"associations.jsonl line for {article_id} differs from "
                              f"{ORACLE_ASSOCIATIONS.name}")
        return errors
    return []
