"""CART decision tree and the bagged random forest built on top of it.

Growing a tree spends most of its time in `best_split`, the Gini split
search. `_grow` looks that name up in this module on every call, so
instrumentation that wraps `nextday.learn.tree.best_split` sees every
split search.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from nextday.config import CartConfig, ForestConfig


def best_split(
    x: np.ndarray, y: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Best (column, threshold, score) over all columns of `x`, or None.

    Candidate thresholds are midpoints between consecutive distinct
    sorted values leaving at least `min_leaf` samples on each side. The
    score is the split quality sum((l0^2+l1^2)/l, (r0^2+r1^2)/r), which
    orders splits exactly like Gini impurity decrease; exact ties keep
    the earliest candidate (lower column, then lower threshold).

    Every column is sorted and swept at once, so a node costs the same
    handful of numpy calls whatever its column count. Ties between equal
    values may sort either way; the class counts at a boundary between
    distinct values do not depend on that order.
    """
    n, m = x.shape
    if n < 2 or m == 0 or n < 2 * min_leaf:
        return None
    columns = np.arange(m)
    order = np.argsort(x, axis=0)
    sorted_values = x[order, columns]
    left_ones = np.cumsum(y[order], axis=0, dtype=np.int64)
    n1 = int(left_ones[-1, 0])
    left_ones = left_ones[:-1]
    # left[k] rows go left when splitting after sorted position k
    left = np.arange(1, n, dtype=np.int64)[:, np.newaxis]
    right = n - left
    edge = (left >= min_leaf) & (right >= min_leaf)
    valid = (sorted_values[1:] > sorted_values[:-1]) & edge
    left_zeros = left - left_ones
    right_ones = n1 - left_ones
    right_zeros = right - right_ones
    quality = (left_zeros * left_zeros + left_ones * left_ones) / left + (
        right_zeros * right_zeros + right_ones * right_ones
    ) / right
    quality = np.where(valid, quality, -np.inf)
    # first maximum per column (lowest threshold), then across columns
    # (lowest column): the order in which the per-column scan kept ties
    split_at = quality.argmax(axis=0)
    column_best = quality[split_at, columns]
    col = int(column_best.argmax())
    score = float(column_best[col])
    if score == -np.inf:
        return None
    k = int(split_at[col])
    threshold = float((sorted_values[k, col] + sorted_values[k + 1, col]) / 2.0)
    return col, threshold, score


def parent_score(n0: int, n1: int) -> float:
    """No-split quality on the same scale as `best_split` scores."""
    n = n0 + n1
    if n == 0:
        return 0.0
    return (n0 * n0 + n1 * n1) / n


@dataclass
class Node:
    """Internal split node or leaf; leaves carry the training class counts."""

    feature: int = -1
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None
    counts: tuple[int, int] = (0, 0)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def prediction(self) -> int:
        return 1 if self.counts[1] > self.counts[0] else 0

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"counts": list(self.counts)}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "counts": list(self.counts),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


def _grow(
    x: np.ndarray,
    y: np.ndarray,
    depth: int,
    cfg: CartConfig | ForestConfig,
    rng: random.Random | None,
    max_features: int | None,
) -> Node:
    n = x.shape[0]
    n1 = int(y.sum())
    n0 = n - n1
    counts = (n0, n1)
    if depth >= cfg.max_depth or n0 == 0 or n1 == 0 or n < 2 * cfg.min_samples_leaf:
        return Node(counts=counts)

    d = x.shape[1]
    if max_features is not None and max_features < d and rng is not None:
        columns = sorted(rng.sample(range(d), max_features))
        found = best_split(np.ascontiguousarray(x[:, columns]), y, cfg.min_samples_leaf)
        if found is not None:
            found = (columns[found[0]], found[1], found[2])
    else:
        found = best_split(x, y, cfg.min_samples_leaf)

    if found is None or found[2] <= parent_score(n0, n1):
        return Node(counts=counts)
    feature, threshold, _ = found
    mask = x[:, feature] <= threshold
    if not mask.any() or mask.all():  # degenerate midpoint rounding
        return Node(counts=counts)
    left = _grow(
        np.ascontiguousarray(x[mask]), y[mask], depth + 1, cfg, rng, max_features
    )
    right = _grow(
        np.ascontiguousarray(x[~mask]), y[~mask], depth + 1, cfg, rng, max_features
    )
    return Node(feature=feature, threshold=threshold, left=left, right=right, counts=counts)


def _predict_node(node: Node, row: np.ndarray) -> int:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.prediction


def _as_matrix(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _as_labels(y) -> np.ndarray:
    labels = np.asarray(y, dtype=np.int8)
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return labels


@dataclass
class CartModel:
    config: CartConfig
    root: Node
    feature_names: tuple[str, ...] = ()

    def predict(self, x) -> np.ndarray:
        matrix = _as_matrix(x)
        return np.array([_predict_node(self.root, row) for row in matrix], dtype=np.int8)


@dataclass
class ForestModel:
    config: ForestConfig
    roots: list[Node]
    feature_names: tuple[str, ...] = ()

    def predict_row(self, row) -> int:
        values = np.asarray(row, dtype=np.float64)
        votes = sum(_predict_node(root, values) for root in self.roots)
        return 1 if 2 * votes > len(self.roots) else 0

    def predict(self, x) -> np.ndarray:
        matrix = _as_matrix(x)
        return np.array([self.predict_row(row) for row in matrix], dtype=np.int8)

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "feature_names": list(self.feature_names),
            "trees": [root.to_dict() for root in self.roots],
        }


def train_cart(x, y, cfg: CartConfig | None = None, feature_names=()) -> CartModel:
    """Grow a CART tree by greedy Gini-impurity reduction.

    Single-class data produces a depth-0 majority leaf; prediction ties
    resolve to class 0.
    """
    cfg = cfg or CartConfig()
    matrix = _as_matrix(x)
    labels = _as_labels(y)
    if matrix.shape[0] == 0:
        raise ValueError("cannot train on an empty dataset")
    root = _grow(matrix, labels, 0, cfg, rng=None, max_features=None)
    return CartModel(config=cfg, root=root, feature_names=tuple(feature_names))


def bootstrap_rows(rng: random.Random, n: int) -> tuple[np.ndarray, int]:
    """`[rng.randrange(n) for _ in range(n)]` as int32, and the words it used.

    Each `randrange(n)` takes one 32-bit Mersenne Twister word, keeps its
    top `n.bit_length()` bits and rejects values >= n. Here one
    `getrandbits` call draws the words for all n at once; they come out
    as the little-endian 32-bit limbs of the result, in draw order. `rng`
    is left where the `randrange` loop would leave it: the state is put
    back and advanced by exactly the words used.
    """
    bits = n.bit_length()
    state = rng.getstate()
    # n draws need 2**bits words on average; the margin is some four
    # standard deviations, so a second draw is rare
    words = (1 << bits) + 4 * math.isqrt(1 << bits) + 8
    while True:
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        values = np.frombuffer(raw, dtype="<u4") >> (32 - bits)
        kept = np.flatnonzero(values < n)
        if len(kept) >= n:
            break
        rng.setstate(state)
        words *= 2
    used = int(kept[n - 1]) + 1
    rng.setstate(state)
    rng.getrandbits(32 * used)
    return values[kept[:n]].astype(np.int32), used


def tree_draws(n: int, cfg: ForestConfig, seed: int) -> tuple[np.ndarray, list[int]] | None:
    """Every tree's bootstrap rows and the RNG words each bootstrap used.

    Tree i's rows are row i of an (n_trees, n) int32 array, drawn from
    `random.Random(f"tree:{seed}:{i}")`. They depend only on (n, cfg,
    seed), so fits of several feature matrices with the same labels and
    fold can share them. None when `cfg.bootstrap` is off.
    """
    if not cfg.bootstrap:
        return None
    rows = np.empty((cfg.n_trees, n), dtype=np.int32)
    used = []
    for index in range(cfg.n_trees):
        rows[index], words = bootstrap_rows(random.Random(f"tree:{seed}:{index}"), n)
        used.append(words)
    return rows, used


def train_forest(
    x, y, cfg: ForestConfig | None = None, feature_names=(), seed: int = 0, draws=None
) -> ForestModel:
    """Bagged CART ensemble with per-node feature subsampling.

    Each node searches `cfg.max_features` columns drawn at random (capped
    at d), or ceil(sqrt(d)) when it is None. Each tree's RNG is derived
    from (seed, tree index) only, so training is reproducible and trees
    could be grown in any order.

    `draws` is `tree_draws(n, cfg, seed)`, built here when not given. A
    tree's RNG is advanced past its bootstrap's words before it grows,
    so its column samples are those that followed the bootstrap.
    """
    cfg = cfg or ForestConfig()
    matrix = _as_matrix(x)
    labels = _as_labels(y)
    n, d = matrix.shape
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if draws is None:
        draws = tree_draws(n, cfg, seed)
    shape = None if draws is None else draws[0].shape
    if shape != ((cfg.n_trees, n) if cfg.bootstrap else None):
        raise ValueError(f"bootstrap draws do not fit {cfg.n_trees} trees on {n} rows")
    max_features = cfg.max_features
    if max_features is None:
        max_features = math.isqrt(d)
        if max_features * max_features < d:  # ceil(sqrt(d))
            max_features += 1
    max_features = min(max_features, d)

    roots = []
    for index in range(cfg.n_trees):
        rng = random.Random(f"tree:{seed}:{index}")
        if draws is None:
            sample_x, sample_y = matrix, labels
        else:
            rows, used = draws
            rng.getrandbits(32 * used[index])
            sample_x, sample_y = matrix[rows[index]], labels[rows[index]]
        roots.append(
            _grow(sample_x, sample_y, 0, cfg, rng=rng, max_features=max_features)
        )
    return ForestModel(config=cfg, roots=roots, feature_names=tuple(feature_names))
