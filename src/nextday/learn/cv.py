"""Stratified k-fold cross-validation and precision/recall/F reporting."""

from __future__ import annotations

import csv
import io
import math
import random
import re
from typing import NamedTuple

import numpy as np

from nextday.corpus import DatasetError
from nextday.learn.svm import epoch_orders, train_svm
from nextday.learn.tree import train_cart, train_forest, tree_draws
from nextday.text import decode_utf8


# A feature cell is a plain decimal and a label cell plain digits, in ASCII:
# `float()` alone would also read `1_0`, ` 1`, `1e3`, `nan` or other digits.
_FEATURE_CELL = re.compile(r"-?[0-9]+(\.[0-9]+)?")
_LABEL_CELL = re.compile(r"[0-9]+")


class Dataset(NamedTuple):
    scheme: str
    feature_names: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    article_ids: tuple[str, ...]

    @classmethod
    def from_csv(cls, path, scheme: str = "") -> "Dataset":
        with open(path, "rb") as fh:
            text = decode_utf8(fh.read(), path, DatasetError)
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty feature file") from None
        if len(header) < 3 or header[0] != "article_id" or header[-1] != "label":
            raise DatasetError(f"{path}: expected header article_id,<features...>,label")
        names = tuple(header[1:-1])
        first_line: dict[str, int] = {}
        rows = []
        labels = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DatasetError(f"{path}:{line_no}: wrong column count")
            if row[0] in first_line:
                raise DatasetError(
                    f"{path}:{line_no}: article id {row[0]!r} repeats line {first_line[row[0]]}"
                )
            first_line[row[0]] = line_no
            cells = row[1:-1]
            if not all(map(_FEATURE_CELL.fullmatch, cells)) or not _LABEL_CELL.fullmatch(row[-1]):
                raise DatasetError(f"{path}:{line_no}: non-numeric cell")
            label = int(row[-1])
            if label not in (0, 1):
                raise DatasetError(f"{path}:{line_no}: labels must be 0 or 1")
            values = [float(v) for v in cells]
            # a plain decimal above the largest float reads as inf
            if not all(map(math.isfinite, values)):
                raise DatasetError(f"{path}:{line_no}: non-finite cell")
            rows.append(values)
            labels.append(label)
        x = np.asarray(rows, dtype=np.float64).reshape(len(first_line), len(names))
        y = np.asarray(labels, dtype=np.int8)
        if x.shape != (len(first_line), len(names)):
            raise DatasetError("feature matrix shape does not match names/rows")
        if y.shape != (len(first_line),):
            raise DatasetError("label vector length does not match rows")
        if y.size and not np.isin(y, (0, 1)).all():
            raise DatasetError("labels must be 0 or 1")
        if not np.isfinite(x).all():
            raise DatasetError("feature values must be finite")
        return cls(scheme, names, x, y, tuple(first_line))


def f_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """(precision, recall, F) as percentages for the positive class."""
    if min(tp, fp, fn) < 0:
        raise ValueError("counts must be non-negative")
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    return precision, recall, f_score(precision, recall)


def stratified_folds(y, k: int, seed: int) -> list[list[int]]:
    """Per class, shuffle indices by seed and deal them round-robin.

    Every class must have at least k members.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    labels = np.asarray(y)
    rng = random.Random(f"folds:{seed}")
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        indices = [int(i) for i in np.nonzero(labels == cls)[0]]
        if len(indices) < k:
            raise DatasetError(
                f"insufficient class support for {k} folds "
                f"(class {cls} has {len(indices)} rows)"
            )
        rng.shuffle(indices)
        for position, index in enumerate(indices):
            folds[position % k].append(index)
    return [sorted(fold) for fold in folds]


def _draw(name: str, cfg, n: int, seed: int):
    """The random draws classifier `name` makes when fitting n rows."""
    if name == "cart":
        return None
    if name == "random_forest":
        return tree_draws(n, cfg, seed)
    if name == "linear_svm":
        return epoch_orders(n, cfg.epochs, seed)
    raise ValueError(f"unknown classifier {name!r}")


class FoldPlan(NamedTuple):
    """One fold: ascending `train` and `test` row indices, the seed of its
    fits, and each classifier's random draws for fitting the train rows."""

    train: np.ndarray
    test: np.ndarray
    seed: int
    draws: dict


def fold_plans(y, k: int, classifier_cfgs: dict, seed: int) -> list[FoldPlan]:
    """One plan per fold of `stratified_folds(y, k, seed)`; fold f's seed is
    `seed * 1000 + f`.

    The draws depend on the labels only through the fold sizes, so every
    feature matrix over the same labels can share one list of plans.
    """
    plans = []
    for fold, holdout in enumerate(stratified_folds(y, k, seed)):
        test = np.array(holdout, dtype=np.intp)
        # a mask, not np.setdiff1d: its `unique` imports numpy.ma, some
        # 10 ms of every evaluate process
        held = np.zeros(len(y), dtype=bool)
        held[test] = True
        train = np.flatnonzero(~held)
        fold_seed = seed * 1000 + fold
        draws = {name: _draw(name, c, len(train), fold_seed) for name, c in classifier_cfgs.items()}
        plans.append(FoldPlan(train, test, fold_seed, draws))
    return plans


def _train(name: str, cfg, x, y, seed: int, draws):
    if name == "cart":
        return train_cart(x, y, cfg)
    if name == "random_forest":
        return train_forest(x, y, cfg, seed, draws)
    if name == "linear_svm":
        return train_svm(x, y, cfg, seed, draws)
    raise ValueError(f"unknown classifier {name!r}")


def _confusion(y_true: np.ndarray, y_pred: np.ndarray) -> dict[str, int]:
    """Counts of each (true, predicted) pair of 0/1 labels."""
    tn, fp, fn, tp = np.bincount(2 * y_true.astype(np.intp) + y_pred, minlength=4).tolist()
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


def _with_metrics(counts: dict[str, int]) -> dict:
    precision, recall, f = metrics(counts["tp"], counts["fp"], counts["fn"])
    return {**counts, "precision": precision, "recall": recall, "f_score": f}


def _round_tree(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {key: _round_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_round_tree(item) for item in value]
    return value


def kfold_cv(data: Dataset, classifier_cfgs: dict, plans: list[FoldPlan]) -> dict[str, dict]:
    """Cross-validate each classifier of `classifier_cfgs` on the folds of
    `plans`, a `fold_plans` list over `data.y`. Per classifier: the
    confusion matrix pooled over folds with its metrics (the headline
    numbers), each fold's, and their mean; for the SVM also each fold's
    zero-variance columns (`SvmModel.zero_variance`), which the report
    leaves out."""
    n = len(data.y)
    if not plans or sorted(i for plan in plans for i in plan.test.tolist()) != list(range(n)):
        raise ValueError(f"the fold plans' test rows do not partition the {n} rows")
    results: dict[str, dict] = {}
    for name, cfg in classifier_cfgs.items():
        counts = []
        zero_variance = []
        for plan in plans:
            model = _train(
                name, cfg, data.x[plan.train], data.y[plan.train], plan.seed, plan.draws[name]
            )
            counts.append(_confusion(data.y[plan.test], model.predict(data.x[plan.test])))
            if name == "linear_svm":
                zero_variance.append(model.zero_variance)
        folds = [{"fold": fold, **_with_metrics(c)} for fold, c in enumerate(counts)]
        results[name] = {
            "pooled": _with_metrics({key: sum(c[key] for c in counts) for key in counts[0]}),
            "folds": folds,
            "fold_mean": {
                metric: sum(row[metric] for row in folds) / len(folds)
                for metric in ("precision", "recall", "f_score")
            },
        }
        if name == "linear_svm":
            results[name]["zero_variance"] = zero_variance
    return results


def _spread(values: list[float]) -> dict:
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return {
        "mean": mean,
        "std": math.sqrt(variance),
        "min": min(values),
        "max": max(values),
        "values": list(values),
    }


def build_report(
    runs: dict[str, list[dict]],
    k: int,
    seeds: list[int],
    config_snapshot: dict,
) -> dict:
    """Merge per-scheme, per-repeat `kfold_cv` results into the report.json tree."""
    schemes = {}
    for scheme, results in runs.items():
        classifiers = {}
        for name, first in results[0].items():
            stats = {
                metric: _spread([result[name]["pooled"][metric] for result in results])
                for metric in ("precision", "recall", "f_score")
            }
            classifiers[name] = _round_tree(
                {
                    **stats,
                    "pooled_counts": {
                        key: first["pooled"][key] for key in ("tp", "fp", "fn", "tn")
                    },
                    "folds": first["folds"],
                    "fold_mean": first["fold_mean"],
                }
            )
        schemes[scheme] = {"classifiers": classifiers}
    return {
        "k": k,
        "seeds": list(seeds),
        "repeats": len(seeds),
        "config": config_snapshot,
        "schemes": schemes,
    }
