"""Stratified k-fold cross-validation and precision/recall/F reporting."""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

import numpy as np

from nextday.corpus import DatasetError
from nextday.learn.svm import epoch_orders, train_svm
from nextday.learn.tree import train_cart, train_forest, tree_draws
from nextday.text import decode_utf8


@dataclass(frozen=True)
class Dataset:
    scheme: str
    feature_names: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    article_ids: tuple[str, ...]

    def __post_init__(self):
        if self.x.shape != (len(self.article_ids), len(self.feature_names)):
            raise DatasetError("feature matrix shape does not match names/rows")
        if self.y.shape != (len(self.article_ids),):
            raise DatasetError("label vector length does not match rows")
        if self.y.size and not np.isin(self.y, (0, 1)).all():
            raise DatasetError("labels must be 0 or 1")
        if not np.isfinite(self.x).all():
            raise DatasetError("feature values must be finite")

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
            try:
                rows.append([float(v) for v in row[1:-1]])
                labels.append(int(row[-1]))
            except ValueError:
                raise DatasetError(f"{path}:{line_no}: non-numeric cell") from None
        x = np.asarray(rows, dtype=np.float64).reshape(len(first_line), len(names))
        y = np.asarray(labels, dtype=np.int8)
        return cls(scheme=scheme, feature_names=names, x=x, y=y, article_ids=tuple(first_line))


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


def _fold_seed(seed: int, fold: int) -> int:
    return seed * 1000 + fold


def _draw(name: str, cfg, n: int, seed: int):
    """The random draws classifier `name` makes when fitting n rows."""
    if name == "cart":
        return None
    if name == "random_forest":
        return tree_draws(n, cfg, seed)
    if name == "linear_svm":
        return epoch_orders(n, cfg.epochs, seed)
    raise ValueError(f"unknown classifier {name!r}")


def fold_plans(y, k: int, classifier_cfgs: dict, seed: int) -> list[dict]:
    """Per fold of `stratified_folds(y, k, seed)`, each classifier's draws.

    The draws depend on the labels only through the fold sizes, so every
    feature matrix over the same labels can share one list of plans.
    """
    n = len(y)
    return [
        {
            name: _draw(name, cfg, n - len(holdout), _fold_seed(seed, fold_index))
            for name, cfg in classifier_cfgs.items()
        }
        for fold_index, holdout in enumerate(stratified_folds(y, k, seed))
    ]


def _train(name: str, cfg, x, y, feature_names, seed: int, plan):
    if name == "cart":
        return train_cart(x, y, cfg, feature_names)
    if name == "random_forest":
        return train_forest(x, y, cfg, feature_names, seed, plan)
    if name == "linear_svm":
        return train_svm(x, y, cfg, feature_names, seed, plan)
    raise ValueError(f"unknown classifier {name!r}")


def _confusion(y_true: np.ndarray, y_pred: np.ndarray) -> dict[str, int]:
    true = np.asarray(y_true).astype(np.int8)
    pred = np.asarray(y_pred).astype(np.int8)
    return {
        "tp": int(((true == 1) & (pred == 1)).sum()),
        "fp": int(((true == 0) & (pred == 1)).sum()),
        "fn": int(((true == 1) & (pred == 0)).sum()),
        "tn": int(((true == 0) & (pred == 0)).sum()),
    }


def _with_metrics(counts: dict[str, int]) -> dict:
    precision, recall, f = metrics(counts["tp"], counts["fp"], counts["fn"])
    return {**counts, "precision": precision, "recall": recall, "f_score": f}


@dataclass(frozen=True)
class EvalReport:
    scheme: str
    k: int
    seed: int
    folds: tuple[tuple[int, ...], ...]
    classifiers: dict[str, dict]

    def pooled(self, name: str) -> dict:
        return self.classifiers[name]["pooled"]

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "k": self.k,
            "seed": self.seed,
            "classifiers": {
                name: _round_tree(block) for name, block in self.classifiers.items()
            },
        }


def _round_tree(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {key: _round_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_round_tree(item) for item in value]
    return value


def kfold_cv(
    data: Dataset, k: int, classifier_cfgs: dict, seed: int, plans: list[dict] | None = None
) -> EvalReport:
    """Stratified k-fold evaluation of every configured classifier.

    All classifiers see the same fold assignment; the forest and the SVM
    on fold f are seeded `seed * 1000 + f`. Headline metrics come
    from the confusion matrix pooled over folds; per-fold numbers and
    their mean are reported alongside.

    `plans` is `fold_plans(data.y, k, classifier_cfgs, seed)`, built here
    when not given.
    """
    if plans is None:
        plans = fold_plans(data.y, k, classifier_cfgs, seed)
    folds = stratified_folds(data.y, k, seed)
    if len(plans) != len(folds):
        raise ValueError(f"{len(plans)} fold plans for {len(folds)} folds")
    all_indices = np.arange(len(data.y))
    results: dict[str, dict] = {}
    for name in classifier_cfgs:
        pooled = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        fold_rows = []
        for fold_index, holdout in enumerate(folds):
            test_mask = np.isin(all_indices, holdout)
            x_train, y_train = data.x[~test_mask], data.y[~test_mask]
            x_test, y_test = data.x[test_mask], data.y[test_mask]
            model = _train(
                name, classifier_cfgs[name], x_train, y_train, data.feature_names,
                _fold_seed(seed, fold_index), plans[fold_index][name],
            )
            counts = _confusion(y_test, model.predict(x_test))
            for key in pooled:
                pooled[key] += counts[key]
            fold_rows.append({"fold": fold_index, **_with_metrics(counts)})
        fold_mean = {
            metric: sum(row[metric] for row in fold_rows) / len(fold_rows)
            for metric in ("precision", "recall", "f_score")
        }
        results[name] = {
            "pooled": _with_metrics(pooled),
            "folds": fold_rows,
            "fold_mean": fold_mean,
        }
    return EvalReport(
        scheme=data.scheme,
        k=k,
        seed=seed,
        folds=tuple(tuple(f) for f in folds),
        classifiers=results,
    )


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
    runs: dict[str, list[EvalReport]],
    k: int,
    seeds: list[int],
    config_snapshot: dict,
) -> dict:
    """Merge per-scheme, per-repeat EvalReports into the report.json tree."""
    schemes = {}
    for scheme, reports in runs.items():
        classifiers = {}
        for name in reports[0].classifiers:
            stats = {
                metric: _spread([r.pooled(name)[metric] for r in reports])
                for metric in ("precision", "recall", "f_score")
            }
            classifiers[name] = _round_tree(
                {
                    **stats,
                    "pooled_counts": {
                        key: reports[0].pooled(name)[key] for key in ("tp", "fp", "fn", "tn")
                    },
                    "folds": reports[0].classifiers[name]["folds"],
                    "fold_mean": reports[0].classifiers[name]["fold_mean"],
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
