"""Pipeline command line: ingest-check, associate, features, evaluate, report.

Each subcommand reads a JSON config (overridable with --set key=value),
writes its stage artifact into the configured output directory, and is
re-runnable: identical inputs give byte-identical artifacts. Run metadata
(timestamps, effective config) goes to run_meta.json, never into the
artifacts themselves.

Exit codes: 0 success, 2 usage/config error, 3 data/statistical error.

Each command imports its stage modules (`relevance`, `features` and
`lexicons`, or numpy and `nextday.learn`) on its first call, so a stage
process loads only what it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from datetime import datetime, timezone
from typing import TYPE_CHECKING

from nextday import __version__
from nextday.config import (
    ALL_SCHEMES,
    SCHEME_EVENT,
    SCHEME_PROPOSED,
    ConfigError,
    PipelineConfig,
    config_dict,
    load_config,
)
from nextday.corpus import (
    CorpusError,
    DatasetError,
    LexiconError,
    atomic_write,
    build_corpus,
    emit_diagnostics,
    emit_event,
    load_articles,
    load_corpus,
)

if TYPE_CHECKING:
    from nextday.lexicons import Lexicons

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

# `paths` entries that replace a bundled lexicon when set
LEXICON_KEYS = ("sentiment_lexicon", "emotion_lexicon", "negators", "boosters")

CLASSIFIER_ORDER = ("random_forest", "linear_svm", "cart")
CLASSIFIER_DISPLAY = {"random_forest": "RFC", "linear_svm": "SVM", "cart": "CART"}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_text(path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _write_run_meta(
    config: PipelineConfig, command: str, argv: list[str], started: str, extra: dict
) -> None:
    out = config.output_dir()
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "command": command,
        "argv": argv,
        "started_at": started,
        "finished_at": _now(),
        "version": __version__,
        "effective_config": config_dict(config),
        **extra,
    }
    _write_text(out / "run_meta.json", json.dumps(meta, indent=2) + "\n")


def _load_lexicons(config: PipelineConfig) -> Lexicons:
    from nextday.lexicons import lexicons_from_paths

    paths = config.paths
    config.require_files(*(key for key in LEXICON_KEYS if getattr(paths, key)))
    return lexicons_from_paths(
        sentiment=paths.sentiment_lexicon,
        emotions=paths.emotion_lexicon,
        negators=paths.negators,
        boosters=paths.boosters,
    )


def _resolve_schemes(requested: str) -> list[str]:
    if requested == "all":
        return list(ALL_SCHEMES)
    if requested not in ALL_SCHEMES:
        raise ConfigError(
            f"unknown scheme '{requested}' (valid: {', '.join(ALL_SCHEMES)}, all)"
        )
    return [requested]


def cmd_ingest_check(config: PipelineConfig, args) -> int:
    config.require_files("articles", "tweets", "users")
    corpus = load_corpus(config.paths.articles, config.paths.tweets, config.paths.users)
    emit_diagnostics(corpus)
    print(
        f"articles={len(corpus.articles)} tweets={len(corpus.tweets)} "
        f"users={len(corpus.users)} unresolved_users={len(corpus.diagnostics)}"
    )
    return EXIT_OK


def associate_all(corpus, params, stream=None):
    """`nextday.relevance.associate_all`, imported on the first call."""
    from nextday.relevance import associate_all as run

    return run(corpus, params, stream)


def assemble_matrix(corpus, associations, scheme, memo, params):
    """`nextday.features.assemble_matrix`, imported on the first call."""
    from nextday.features import assemble_matrix as run

    return run(corpus, associations, scheme, memo, params)


def cmd_associate(config: PipelineConfig, args) -> int:
    from nextday.relevance import write_associations

    config.require_files("articles", "tweets", "users")
    corpus = load_corpus(config.paths.articles, config.paths.tweets, config.paths.users)
    emit_diagnostics(corpus)
    associations = associate_all(corpus, config.relevance)
    out = config.output_dir()
    out.mkdir(parents=True, exist_ok=True)
    write_associations(out / "associations.jsonl", associations)
    total = sum(len(a.expanded_tweet_ids) for a in associations)
    mean_iter = (
        sum(a.iterations_run for a in associations) / len(associations)
        if associations
        else 0.0
    )
    print(
        f"articles={len(associations)} associated_tweets={total} "
        f"mean_iterations={mean_iter:.2f}"
    )
    return EXIT_OK


def cmd_features(config: PipelineConfig, args) -> int:
    from nextday.features import TextMemo, write_feature_csv

    schemes = _resolve_schemes(args.scheme)
    # event_importance scores no text, so a run of it alone loads no lexicon
    reads_text = any(scheme != SCHEME_EVENT for scheme in schemes)
    memo = TextMemo(_load_lexicons(config) if reads_text else None)
    out = config.output_dir()
    out.mkdir(parents=True, exist_ok=True)

    needs_tweets = any(s == SCHEME_PROPOSED for s in schemes)
    if needs_tweets:
        from nextday.relevance import load_associations

        config.require_files("articles", "tweets", "users")
        corpus = load_corpus(config.paths.articles, config.paths.tweets, config.paths.users)
        assoc_path = out / "associations.jsonl"
        if not assoc_path.exists():
            raise ConfigError(
                f"{assoc_path} not found; run 'nextday associate' before the proposed scheme"
            )
        associations = load_associations(assoc_path)
    else:
        config.require_files("articles")
        corpus = build_corpus(load_articles(config.paths.articles), [], [])
        associations = []

    for scheme in schemes:
        columns, rows = assemble_matrix(corpus, associations, scheme, memo, config.features)
        path = out / f"features_{scheme}.csv"
        write_feature_csv(columns, rows, path)
        print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def kfold_cv(data, classifier_cfgs: dict, plans):
    """`nextday.learn.cv.kfold_cv`, imported on the first call.

    Only `evaluate` calls it, so the other subcommands never load numpy
    or the learn package.
    """
    from nextday.learn.cv import kfold_cv as run

    return run(data, classifier_cfgs, plans)


# A pool worker's copy of the parent's (data, cfgs, plans) jobs.
# The parent never sets it: each forked worker gets the list from
# `_set_worker_jobs`, so only job indices and results cross the pipe.
_worker_jobs: list[tuple] = []


def _set_worker_jobs(jobs: list[tuple]) -> None:
    _worker_jobs[:] = jobs


def _run_worker_job(index: int):
    return kfold_cv(*_worker_jobs[index])


# The least work, in dataset rows summed over the jobs, for which
# `_run_jobs` forks a pool when the fits run in the compiled helper; see
# its docstring for the measurements.
POOL_MIN_WORK = 1_200


def _run_jobs(jobs: list[tuple], parallel: bool) -> tuple[list, dict]:
    """`kfold_cv` over the jobs, in job order, and how they ran, for run
    metadata: {"path": "serial" or "pool", "workers": k, "work": w}.

    The work w is the jobs' dataset rows summed: every fit's cost grows
    with its rows. With `parallel` and more than one job and CPU, the jobs
    run on a fork pool of one worker per CPU when the fits take the Python
    path (`native.HELPER` is None), or when they take the compiled one and
    the work is at least `POOL_MIN_WORK`; otherwise one after another in
    this process. Fork, not spawn, lets the workers inherit the loaded
    datasets and imports; `main` has started OpenBLAS on one thread, so
    the parent has no other thread when it forks. `map` keeps the job
    order, so callers see the same results either way, and an error
    raised in a worker is re-raised here.

    The rule comes from `evaluate --scheme all` run as a process on a
    shared 2-vCPU host, pool against one process (medians of alternating
    runs; in how many runs one process was faster). Compiled fits:

        26 articles (work 156)     0.302 s against 0.252 s  (17 of 21)
        150 articles (900)         0.245 s against 0.244 s  (12 of 21)
        300 articles (1,800)       0.326 s against 0.363 s  (6 of 15)
        600 articles (3,600)       0.412 s against 0.503 s  (0 of 11)
        3,000 articles (18,000)    1.19 s against 1.80 s    (0 of 5)

    A pool costs some 20 ms to import and start (5–7 ms for `import
    multiprocessing` and 12–18 ms for a `Pool(2)` of trivial jobs), while
    the six schemes' compiled fits take 26 ms in one process at 26
    articles and 49 ms at 150, so a second worker saves at most about
    half of that. At 150 articles the pool also used more CPU (0.286 s
    against 0.243 s). The threshold lies between the last size where one
    process held its own (900) and the first where the pool won (1,800).
    Python fits cost far more than a pool's start (one process took 0.607 s
    at 26 articles against 0.252 s compiled), so on that path the pool won
    at every size measured, for at most 5% more CPU:

        26 articles (work 156)     0.442 s against 0.607 s  (0 of 7)
        150 articles (900)         0.689 s against 1.011 s  (0 of 7)
    """
    from nextday.learn import native

    work = sum(len(data.y) for data, _, _ in jobs)
    workers = 1
    if parallel and (native.HELPER is None or work >= POOL_MIN_WORK):
        workers = min(len(os.sched_getaffinity(0)), len(jobs))
    record = {"path": "pool" if workers > 1 else "serial", "workers": workers, "work": work}
    if workers == 1:
        return [kfold_cv(*job) for job in jobs], record
    import multiprocessing

    context = multiprocessing.get_context("fork")
    with context.Pool(workers, initializer=_set_worker_jobs, initargs=(jobs,)) as pool:
        return pool.map(_run_worker_job, range(len(jobs)), chunksize=1), record


def cmd_evaluate(config: PipelineConfig, args) -> int:
    from nextday.learn.cv import Dataset, build_report, fold_plans
    from nextday.learn import native

    # "compiled", or "python" with the reason the helper is not used: SVM
    # epochs and tree growth take the same path; "jobs" says whether the
    # cross-validations ran on a pool
    args.run_meta = {"svm_epochs": native.EPOCH_PATH}

    schemes = _resolve_schemes(args.scheme)
    out = config.output_dir()
    repeats = config.learn.repeats
    seeds = [config.learn.seed + r for r in range(repeats)]

    cfgs = {
        "random_forest": config.learn.forest,
        "linear_svm": config.learn.svm,
        "cart": config.learn.cart,
    }
    datasets = []
    for scheme in schemes:
        path = out / f"features_{scheme}.csv"
        if not path.exists():
            raise ConfigError(f"{path} not found; run 'nextday features' first")
        data = Dataset.from_csv(path, scheme=scheme)
        if datasets:
            first_path, first = datasets[0]
            if data.article_ids != first.article_ids:
                raise DatasetError(f"{path}: article ids differ from those of {first_path}")
            if (data.y != first.y).any():
                raise DatasetError(f"{path}: labels differ from those of {first_path}")
        datasets.append((path, data))
    # the folds and random draws depend only on the labels, which every file
    # shares, so each repeat's plans are built once and used by every scheme
    plans = {seed: fold_plans(datasets[0][1].y, config.learn.k, cfgs, seed) for seed in seeds}
    jobs = [(data, cfgs, plans[seed]) for _, data in datasets for seed in seeds]
    results, args.run_meta["jobs"] = _run_jobs(jobs, args.parallel)
    runs = {
        scheme: results[i * repeats : (i + 1) * repeats] for i, scheme in enumerate(schemes)
    }
    # one event per scheme and set of SVM columns standardized to zero,
    # written here so that a pool's workers cannot reorder them
    for (_, data), (scheme, scheme_runs) in zip(datasets, runs.items()):
        folds = [cols for run in scheme_runs for cols in run["linear_svm"]["zero_variance"]]
        for columns, fits in Counter(filter(None, folds)).items():
            names = [data.feature_names[j] for j in columns]
            event = {"kind": "zero_variance_columns", "scheme": scheme, "columns": names}
            emit_event({**event, "fits": fits})

    # paths are machine-specific run metadata (present in run_meta.json);
    # keeping them out makes report.json location-independent
    snapshot = {k: v for k, v in config_dict(config).items() if k != "paths"}
    report = build_report(runs, config.learn.k, seeds, snapshot)
    _write_text(out / "report.json", json.dumps(report, indent=2) + "\n")
    markdown = render_report_md(report)
    _write_text(out / "report.md", markdown + "\n")
    print(markdown)
    return EXIT_OK


def render_report_md(report: dict) -> str:
    """One metrics table per scheme: rows P/R/F, columns RFC/SVM/CART."""
    lines = ["# Evaluation report", ""]
    lines.append(f"Folds: {report['k']}; seeds: {', '.join(str(s) for s in report['seeds'])}")
    lines.append("")
    for scheme, block in report["schemes"].items():
        names = [n for n in CLASSIFIER_ORDER if n in block["classifiers"]]
        names += [n for n in block["classifiers"] if n not in names]
        lines.append(f"## {scheme}")
        lines.append("")
        lines.append("| | " + " | ".join(CLASSIFIER_DISPLAY.get(n, n) for n in names) + " |")
        lines.append("|---" * (len(names) + 1) + "|")
        for metric, label in (
            ("precision", "Precision"),
            ("recall", "Recall"),
            ("f_score", "F-score"),
        ):
            cells = [f"{block['classifiers'][n][metric]['mean']:.1f}" for n in names]
            lines.append(f"| {label} | " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)


def cmd_report(config: PipelineConfig, args) -> int:
    path = config.output_dir() / "report.json"
    if not path.exists():
        raise ConfigError(f"{path} not found; run 'nextday evaluate' first")
    try:
        report = json.loads(path.read_bytes())
        markdown = render_report_md(report)
    except KeyError as exc:
        raise DatasetError(f"{path}: incomplete report, missing field {exc.args[0]!r}") from None
    except (ValueError, TypeError, AttributeError):  # cut JSON, bad UTF-8, wrong shape
        raise DatasetError(f"{path}: truncated or invalid report") from None
    _write_text(config.output_dir() / "report.md", markdown + "\n")
    print(markdown)
    return EXIT_OK


COMMANDS = {
    "ingest-check": cmd_ingest_check,
    "associate": cmd_associate,
    "features": cmd_features,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nextday",
        description="Predict next-day follow-up coverage from same-day tweets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            default=[],
            help="override a config value (dotted key, JSON value)",
        )

    common(sub.add_parser("ingest-check", help="validate corpus files"))

    common(sub.add_parser("associate", help="link tweets to articles"))

    p_feat = sub.add_parser("features", help="emit feature CSVs")
    common(p_feat)
    p_feat.add_argument("--scheme", default="all", help="scheme name or 'all'")

    p_eval = sub.add_parser("evaluate", help="cross-validate classifiers")
    common(p_eval)
    p_eval.add_argument("--scheme", default="all", help="scheme name or 'all'")
    p_eval.add_argument(
        "--repeats", type=int, default=None, help="re-run count; sets learn.repeats"
    )

    common(sub.add_parser("report", help="re-render report.md from report.json"))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; return its exit code.

    With no `argv`, as from the `nextday` script or `python -m
    nextday.cli`, the command line is `sys.argv` and `evaluate` may run
    its cross-validations on a process pool (see `_run_jobs`). A caller that passes an
    `argv` list gets every fit run one after another in the calling
    process, so in-process instrumentation sees them all. Both give the
    same artifacts.

    With no `argv`, `main` owns the process, and it sets
    `OPENBLAS_NUM_THREADS=1` (over any value the caller set) before any
    command runs. OpenBLAS reads it once, when `evaluate` first imports
    numpy, and then starts no thread pool: no fit uses one, and starting
    it costs each `evaluate` process tens of milliseconds. A caller that
    passes `argv` keeps its environment as it was.
    """
    parallel = argv is None
    if parallel:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.parallel = parallel
    started = _now()
    overrides = list(args.set)
    if getattr(args, "repeats", None) is not None:  # evaluate's --repeats N
        overrides.append(f"learn.repeats={args.repeats}")
    try:
        config = load_config(args.config, overrides)
        code = COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, DatasetError, LexiconError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    _write_run_meta(config, args.command, argv, started, getattr(args, "run_meta", {}))
    return code


if __name__ == "__main__":
    sys.exit(main())
