"""Span tracing around the public functions of each nextday layer.

A traced run calls `nextday.cli.main` in-process with timing wrappers
installed at the names their callers resolve (for example
`nextday.learn.tree.best_split`, which the tree grower calls, rather than
the kernel module's own name). Each span records its name, start, end,
parent span and stage, plus a few counts taken from the call's arguments
or result. Spans stay in memory until the run ends; all per-layer metrics
are computed from them afterwards.

A function that no longer exists is skipped with a note and its metrics
come out as null, so a refactor that removes a layer does not break the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

from workloads import ALL_SCHEMES, STAGES


def _bound(signature, args, kwargs) -> dict:
    return signature.bind_partial(*args, **kwargs).arguments


def _corpus_counts(sig, args, kwargs, result) -> dict:
    return {key: len(getattr(result, key, ())) for key in ("articles", "tweets", "users")}


def _seed_counts(sig, args, kwargs, result) -> dict:
    return {"candidates": len(_bound(sig, args, kwargs).get("tweets", ())), "selected": len(result)}


def _history_empty(sig, args, kwargs, result) -> dict:
    return {"empty": bool(getattr(result, "empty", False))}


def _scheme_arg(sig, args, kwargs, result) -> dict:
    return {"scheme": _bound(sig, args, kwargs).get("scheme")}


def _dataset_scheme(sig, args, kwargs, result) -> dict:
    return {"scheme": getattr(_bound(sig, args, kwargs).get("data"), "scheme", None)}


def _cluster_pairs(sig, args, kwargs, result) -> dict:
    n = len(_bound(sig, args, kwargs).get("all_articles", ()))
    return {"pairs": n * (n - 1) // 2}


def _svm_steps(sig, args, kwargs, result) -> dict:
    bound = _bound(sig, args, kwargs)
    epochs = getattr(bound.get("cfg"), "epochs", None)
    if epochs is None:
        epochs = len(getattr(result, "objective_history", ()))
    return {"steps": epochs * len(bound.get("x", ()))}


def _split_none(sig, args, kwargs, result) -> dict:
    return {"none": result is None}


# (module, attribute the caller resolves, span name, counts taken per call)
PATCHES = (
    ("nextday.cli", "load_corpus", "corpus.load_corpus", _corpus_counts),
    ("nextday.cli", "associate_all", "relevance.associate_all", None),
    ("nextday.relevance", "tfidf_keywords", "relevance.tfidf_keywords", None),
    ("nextday.relevance", "seed_tweets", "relevance.seed_tweets", _seed_counts),
    ("nextday.relevance", "build_history", "relevance.build_history", _history_empty),
    ("nextday.relevance", "expand_association", "relevance.expand_association", None),
    ("nextday.relevance", "classify_hashtags", "relevance.classify_hashtags", None),
    ("nextday.cli", "assemble_matrix", "features.assemble_matrix", _scheme_arg),
    ("nextday.features", "involvement_indices", "features.involvement_indices", None),
    ("nextday.features", "reaction_indices", "features.reaction_indices", None),
    ("nextday.features", "score_sentiment", "lexicons.score_sentiment", None),
    ("nextday.features", "tag_emotions", "lexicons.tag_emotions", None),
    ("nextday.features", "build_event_clusters", "features.build_event_clusters", _cluster_pairs),
    ("nextday.cli", "kfold_cv", "learn.kfold_cv", _dataset_scheme),
    ("nextday.learn.cv", "train_svm", "learn.train_svm", _svm_steps),
    ("nextday.learn.cv", "train_forest", "learn.train_forest", None),
    ("nextday.learn.cv", "train_cart", "learn.train_cart", None),
    ("nextday.learn.tree", "best_split", "learn.best_split", _split_none),
)


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, stage, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.stage: str | None = None
        self.notes: list[str] = []
        self.missing: set[str] = set()
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        for module_name, attr, name, counts in PATCHES:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                self.notes.append(f"{module_name}.{attr} not found; {name} metrics are null")
                continue
            self._patches.append((module, attr, original, self.wrap(name, original, counts)))

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.stage, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def run_stage(self, stage: str, call):
        """Run `call()` inside a root span for `stage`; returns its result."""
        self.stage = stage
        span = self._open("stage")
        try:
            return call()
        finally:
            self._close(span)
            self.stage = None

    def wrap(self, name: str, fn, counts):
        signature = inspect.signature(fn) if counts is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span[5] = counts(signature, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, stage, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "stage": stage, "counts": counts,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_time[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - child_time[i] for i, span in enumerate(spans)]


def stage_accounting_errors(spans) -> list[str]:
    """Stages whose descendants' self times add up to more than the stage span."""
    selfs = self_times(spans)
    root = []
    covered = defaultdict(float)
    for i, span in enumerate(spans):
        root.append(i if span[3] is None else root[span[3]])
        if span[3] is not None:
            covered[root[i]] += selfs[i]
    return [
        f"stage {spans[r][4]}: child self time {covered[r]:.6f}s exceeds span {spans[r][2] - spans[r][1]:.6f}s"
        for r in covered
        if covered[r] > spans[r][2] - spans[r][1]
    ]


def association_counts(path) -> dict:
    """Association sizes read from the associations.jsonl artifact."""
    totals = dict.fromkeys(
        ("linked_tweets", "specific_hashtags", "generic_hashtags", "zero_seed_articles"), 0
    )
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            totals["linked_tweets"] += len(row["expanded_tweet_ids"])
            totals["specific_hashtags"] += len(row["article_specific_hashtags"])
            totals["generic_hashtags"] += len(row["generic_hashtags"])
            totals["zero_seed_articles"] += not row["seed_tweet_ids"]
    return totals


def layer_metrics(tracer: Tracer, assoc: dict, overhead_share: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}; null where a layer is gone."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def gone(name):
        return name in tracer.missing

    def calls(name):
        return None if gone(name) else len(by_name[name])

    def total(name, when=lambda i: True):
        if gone(name):
            return None
        return sum(spans[i][2] - spans[i][1] for i in by_name[name] if when(i))

    def self_s(name):
        return None if gone(name) else sum(selfs[i] for i in by_name[name])

    def count(name, key):
        if gone(name):
            return None
        return sum((spans[i][5] or {}).get(key, 0) for i in by_name[name])

    def scheme_is(scheme):
        return lambda i: (spans[i][5] or {}).get("scheme") == scheme

    m = {}
    loads = by_name["corpus.load_corpus"]
    last_load = (spans[loads[-1]][5] or {}) if loads else {}
    m["corpus.load_corpus.calls"] = (calls("corpus.load_corpus"), "count")
    m["corpus.load_corpus.s"] = (total("corpus.load_corpus"), "s")
    for key in ("articles", "tweets", "users"):
        m[f"corpus.{key}"] = (None if gone("corpus.load_corpus") else last_load.get(key, 0), "count")

    m["relevance.associate_all.s"] = (total("relevance.associate_all"), "s")
    for fn in ("tfidf_keywords", "seed_tweets", "build_history", "expand_association",
               "classify_hashtags"):
        m[f"relevance.{fn}.calls"] = (calls(f"relevance.{fn}"), "count")
        m[f"relevance.{fn}.self_s"] = (self_s(f"relevance.{fn}"), "s")
    m["relevance.seed_tweets.candidates"] = (count("relevance.seed_tweets", "candidates"), "count")
    m["relevance.seed_tweets.selected"] = (count("relevance.seed_tweets", "selected"), "count")
    m["relevance.build_history.empty_windows"] = (count("relevance.build_history", "empty"), "count")
    for key, value in assoc.items():
        m[f"relevance.{key}"] = (value, "count")

    for scheme in ALL_SCHEMES:
        m[f"features.assemble_matrix.{scheme}.s"] = (
            total("features.assemble_matrix", scheme_is(scheme)), "s")
    for fn in ("involvement_indices", "reaction_indices"):
        m[f"features.{fn}.self_s"] = (self_s(f"features.{fn}"), "s")
    for fn in ("score_sentiment", "tag_emotions"):
        m[f"lexicons.{fn}.calls"] = (calls(f"lexicons.{fn}"), "count")
        m[f"lexicons.{fn}.self_s"] = (self_s(f"lexicons.{fn}"), "s")
    m["features.build_event_clusters.s"] = (total("features.build_event_clusters"), "s")
    m["features.build_event_clusters.pairs"] = (count("features.build_event_clusters", "pairs"), "count")

    for scheme in ALL_SCHEMES:
        m[f"learn.kfold_cv.{scheme}.s"] = (total("learn.kfold_cv", scheme_is(scheme)), "s")
    for fn in ("train_svm", "train_forest", "train_cart"):
        m[f"learn.{fn}.calls"] = (calls(f"learn.{fn}"), "count")
        m[f"learn.{fn}.self_s"] = (self_s(f"learn.{fn}"), "s")
    m["learn.svm.steps"] = (count("learn.train_svm", "steps"), "count")
    split_calls = calls("learn.best_split")
    m["learn.best_split.calls"] = (split_calls, "count")
    m["learn.best_split.self_s"] = (self_s("learn.best_split"), "s")
    m["learn.best_split.none_share"] = (
        None if split_calls is None else count("learn.best_split", "none") / max(split_calls, 1),
        "share",
    )

    stage_spans = by_name["stage"]
    for stage in STAGES:
        m[f"stage.{stage}.s"] = (
            sum(spans[i][2] - spans[i][1] for i in stage_spans if spans[i][4] == stage), "s")
    m["trace.overhead_share"] = (overhead_share, "share")
    return m
