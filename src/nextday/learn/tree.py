"""CART decision tree and the bagged random forest built on top of it.

One grower builds every tree of a fit, CART's single tree and each tree
of a forest alike. It ranks each column's values once per fit, as SLIQ's
presorted attribute lists do (Mehta, Agrawal & Rissanen, EDBT 1996), and
then grows the trees one after another, each depth first and left child
first. A forest tree draws a node's columns when it takes the node off
its stack, so its draws are those of a recursive grower.

A forest tree's random draws, its bootstrap rows and then its node
columns, come from one generator, `random.Random(f"tree:{seed}:{i}")`.
`tree_draws` makes the bootstrap and keeps each generator's state after
it, and a fit resumes each tree from a copy of that state.

When the compiled helper has loaded (`nextday.learn.native`), it seeds
and runs those generators itself, and its `grow_trees` grows the trees
and writes the same node arrays bit for bit. Otherwise `_grow_python`
does, on `random.Random`, one `best_split` call per searched node; it
looks that name up in this module on every call, so instrumentation that
wraps `nextday.learn.tree.best_split` sees every split search. The
Python grower is the compiled grower's test oracle.

Both write each node straight into flat arrays, one set for all trees of
a fit, as scikit-learn's `Tree` does (see `TreeModel` for the layout).
Prediction moves every (row, tree) pair one level down per pass, in a
fixed set of numpy calls.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from nextday.config import CartConfig, ForestConfig
from nextday.learn import grow, native


def rank_columns(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's code `2 * rank + label`, and each column's values by rank.

    A value's rank is the number of distinct smaller values in its
    column, so equal values share a rank. The codes are int32 with the
    shape of `x`; `values[col, rank]` is the value of that rank (a
    column's ranks past its own count of distinct values are 0.0).
    """
    n, d = x.shape
    order = np.argsort(x, axis=0)
    sorted_values = np.take_along_axis(x, order, axis=0)
    steps = np.zeros((n, d), dtype=np.int32)
    steps[1:] = sorted_values[1:] > sorted_values[:-1]
    sorted_ranks = np.cumsum(steps, axis=0, dtype=np.int32)
    values = np.zeros((d, int(sorted_ranks.max(initial=0)) + 1))
    values[np.arange(d), sorted_ranks] = sorted_values
    codes = np.empty((n, d), dtype=np.int32)
    np.put_along_axis(codes, order, 2 * sorted_ranks, axis=0)
    codes += y[:, np.newaxis]
    return codes, values


def best_split(
    codes: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    columns: np.ndarray,
    min_leaf: int,
) -> tuple[int, float, float] | None:
    """The best (column, threshold, score) of one node, or None.

    `codes` and `values` are `rank_columns(x, y)`. The node holds the
    rows `rows` of `x` (a row may repeat) and searches the columns
    `columns`, in ascending order. Candidate thresholds are midpoints
    between consecutive distinct values of a column within the node
    leaving at least `min_leaf` rows on each side. The score is the split
    quality sum((l0^2+l1^2)/l, (r0^2+r1^2)/r), which orders splits exactly
    like Gini impurity decrease; exact ties keep the earliest candidate
    (lower column, then lower threshold).

    One sort orders every searched column's codes at once. The labels
    ride in the codes' low bit, so one cumulative sum counts the ones
    left of every boundary. Ties between equal values sort zeros first;
    the class counts at a boundary between distinct values do not depend
    on that order.
    """
    n = len(rows)
    min_leaf = max(min_leaf, 1)
    if n < 2 * min_leaf or not len(columns):
        return None
    code = np.sort(codes[rows[:, np.newaxis], columns], axis=0)
    ones = np.cumsum(code & 1, axis=0, dtype=np.int64)
    rank = code >> 1
    # a boundary after sorted position i leaves i + 1 rows on the left
    low = rank[min_leaf - 1 : n - min_leaf]
    high = rank[min_leaf : n - min_leaf + 1]
    left_ones = ones[min_leaf - 1 : n - min_leaf]
    left = np.arange(min_leaf, n - min_leaf + 1, dtype=np.int64)[:, np.newaxis]
    right = n - left
    left_zeros = left - left_ones
    right_ones = ones[-1] - left_ones
    right_zeros = right - right_ones
    quality = (left_zeros * left_zeros + left_ones * left_ones) / left + (
        right_zeros * right_zeros + right_ones * right_ones
    ) / right
    quality[high == low] = -math.inf
    # argmax of the (column, boundary) view: the earliest best candidate
    at, k = divmod(int(quality.T.argmax()), len(quality))
    score = float(quality[k, at])
    if score == -math.inf:
        return None
    col = int(columns[at])
    threshold = (values[col, low[k, at]] + values[col, high[k, at]]) / 2.0
    return col, float(threshold), score


def parent_score(n0: int, n1: int) -> float:
    """No-split quality on the same scale as `best_split` scores."""
    n = n0 + n1
    if n == 0:
        return 0.0
    return (n0 * n0 + n1 * n1) / n


def _grow_trees(
    x: np.ndarray,
    y: np.ndarray,
    cfg: CartConfig | ForestConfig,
    samples: np.ndarray,
    states: np.ndarray | None,
    width: int,
) -> dict:
    """One tree per row of `samples` (rows of `x` in range(n)): grown by the
    compiled helper when it has loaded, else by `_grow_python`. `states`
    is None or each tree's generator state (see `tree_draws`). Returns
    the `TreeModel` fields but `config`."""
    helper = native.HELPER
    if helper is None:
        return _grow_python(x, y, cfg, samples, states, width)
    return grow.grow_compiled(helper, x, y, *rank_columns(x, y), cfg, samples, states, width)


def _grow_python(
    x: np.ndarray,
    y: np.ndarray,
    cfg: CartConfig | ForestConfig,
    samples: np.ndarray,
    states: np.ndarray | None,
    width: int,
) -> dict:
    """One tree per row of `samples`, each grown alone from an explicit
    stack: depth first, left child first.

    A node is searched when it is shallower than `cfg.max_depth`, holds
    both classes and at least `2 * cfg.min_samples_leaf` rows, which its
    class counts tell without a look at its labels. It splits when the
    best split beats `parent_score` and sends rows both ways. With
    `states` and `width < d`, a tree searches `sorted(rng.sample(range(d),
    width))` columns, drawn when the node is taken off the stack from a
    `random.Random` set to the tree's state; any other tree searches
    every column.

    Returns the `TreeModel` fields but `config`.
    """
    d = x.shape[1]
    codes, values = rank_columns(x, y)
    is_one = y.astype(bool)
    all_columns = np.arange(d)
    min_leaf = cfg.min_samples_leaf
    roots: list[int] = []
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []  # the right child is always left + 1
    counts: list[tuple[int, int]] = []

    def add(n0: int, n1: int) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        counts.append((n0, n1))
        return len(counts) - 1

    def push(stack: list, node: int, depth: int, rows: np.ndarray) -> None:
        n0, n1 = counts[node]
        if depth < cfg.max_depth and n0 > 0 and n1 > 0 and n0 + n1 >= 2 * min_leaf:
            stack.append((node, depth, rows))

    sampling = states is not None and width < d
    rng = random.Random()
    for index, rows in enumerate(samples):
        if sampling:
            rng.setstate((3, tuple(states[index].tolist()), None))
        n1 = int(np.count_nonzero(is_one[rows]))
        roots.append(len(counts))
        stack: list = []
        push(stack, add(len(rows) - n1, n1), 0, rows)
        while stack:
            node, depth, rows = stack.pop()
            columns = np.array(sorted(rng.sample(range(d), width))) if sampling else all_columns
            found = best_split(codes, values, rows, columns, min_leaf)
            if found is None or found[2] <= parent_score(*counts[node]):
                continue
            col, cut, _ = found
            goes_left = x[rows, col] <= cut
            left_rows, right_rows = rows[goes_left], rows[~goes_left]
            if not len(left_rows) or not len(right_rows):  # degenerate midpoint rounding
                continue
            n0, n1 = counts[node]
            ones = int(np.count_nonzero(is_one[left_rows]))
            feature[node], threshold[node] = col, cut
            left[node] = add(len(left_rows) - ones, ones)
            right = add(n0 - len(left_rows) + ones, n1 - ones)
            # the left child on top, so it is searched first
            push(stack, right, depth + 1, right_rows)
            push(stack, left[node], depth + 1, left_rows)
    left_child = np.array(left, dtype=np.int32)
    return {
        "roots": np.array(roots, dtype=np.int32),
        "feature": np.array(feature, dtype=np.int32),
        "threshold": np.array(threshold),
        "left": left_child,
        "right": np.where(left_child < 0, left_child, left_child + 1),
        "counts": np.array(counts, dtype=np.int32).reshape(-1, 2),
    }


def _as_matrix(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _training_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    """The matrix and int8 labels of a fit, checked before any compiled
    code indexes them: rows present, one label per row, finite values.
    Every trainer takes only 0 and 1 (or booleans) as labels, checked
    before the cast, which would read 0.5 as 0."""
    matrix = _as_matrix(x)
    labels = np.asarray(y)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    n = matrix.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if labels.shape != (n,):
        raise ValueError(f"labels {labels.shape} do not fit {n} rows")
    if not np.isfinite(matrix).all():
        raise ValueError("feature values must be finite")
    return matrix, labels.astype(np.int8, copy=False)


class TreeModel(NamedTuple):
    """A fit's trees as parallel node arrays, as in scikit-learn's `Tree`.

    Node i sends a row to node `left[i]` when `row[feature[i]] <=
    threshold[i]` and to `right[i] = left[i] + 1` otherwise; both are -1
    at a leaf. `counts[i]` holds the class 0 and class 1 training rows
    that reached node i. Each tree's nodes are contiguous: tree t owns
    the nodes from `roots[t]` up to `roots[t + 1]` (the last tree up to
    the end), its root first, and its k-th split in depth-first order
    (0-based) makes the nodes `roots[t] + 2k + 1` and `roots[t] + 2k + 2`.
    """

    config: CartConfig | ForestConfig
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    def predict(self, x) -> np.ndarray:
        """The trees' majority vote on each row of `x`, a tie going to 0. Each
        pass moves every (row, tree) pair still at a split one level down."""
        matrix = _as_matrix(x)
        n_trees = len(self.roots)
        rows = np.repeat(np.arange(len(matrix)), n_trees)
        node = np.tile(self.roots, len(matrix))
        walking = np.flatnonzero(self.left[node] >= 0)
        while len(walking):
            at = node[walking]
            goes_left = matrix[rows[walking], self.feature[at]] <= self.threshold[at]
            at = np.where(goes_left, self.left[at], self.right[at])
            node[walking] = at
            walking = walking[self.left[at] >= 0]
        ones = (self.counts[:, 1] > self.counts[:, 0])[node]
        votes = ones.reshape(len(matrix), n_trees).sum(axis=1)
        return (2 * votes > n_trees).astype(np.int8)


def train_cart(x, y, cfg: CartConfig | None = None) -> TreeModel:
    """Grow a CART tree by greedy Gini-impurity reduction.

    Single-class data produces a depth-0 majority leaf; prediction ties
    resolve to class 0.
    """
    cfg = cfg or CartConfig()
    matrix, labels = _training_data(x, y)
    n, d = matrix.shape
    trees = _grow_trees(matrix, labels, cfg, np.arange(n, dtype=np.int32)[np.newaxis], None, d)
    return TreeModel(config=cfg, **trees)


def tree_draws(n: int, cfg: ForestConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Every tree's bootstrap rows and its generator's state after them.

    Tree i's generator is `random.Random(f"tree:{seed}:{i}")`; its rows
    are row i of an (n_trees, n) int32 array, `[rng.randrange(n) for _ in
    range(n)]`, and its state is row i of an (n_trees, 625) uint32 array,
    `rng.getstate()[1]` after those draws. With `cfg.bootstrap` off,
    every tree's rows are range(n) and its state is the seeded one. The
    draws depend only on (n, cfg, seed), so fits of several feature
    matrices with the same labels and fold can share them.

    The compiled helper seeds the generators and draws the rows in C;
    without it, `random.Random` does.
    """
    seeds = [f"tree:{seed}:{index}" for index in range(cfg.n_trees)]
    helper = native.HELPER
    if helper is not None:
        states = native.seeded_states(helper, seeds)
        if not cfg.bootstrap:
            return np.broadcast_to(np.arange(n, dtype=np.int32), (cfg.n_trees, n)), states
        rows = np.empty((cfg.n_trees, n), dtype=np.int32)
        helper.lib.bootstrap_rows(states.ctypes.data, cfg.n_trees, n, rows.ctypes.data)
        return rows, states
    rows = np.empty((cfg.n_trees, n), dtype=np.int32)
    states = np.empty((cfg.n_trees, native.STATE_WORDS), dtype=np.uint32)
    for index, name in enumerate(seeds):
        rng = random.Random(name)
        rows[index] = [rng.randrange(n) for _ in range(n)] if cfg.bootstrap else range(n)
        states[index] = rng.getstate()[1]
    return rows, states


def train_forest(x, y, cfg: ForestConfig | None = None, seed: int = 0, draws=None) -> TreeModel:
    """Bagged CART ensemble with per-node feature subsampling.

    Each node searches `cfg.max_features` columns drawn at random (capped
    at d), or ceil(sqrt(d)) when it is None. Each tree's RNG is derived
    from (seed, tree index) only, so training is reproducible and trees
    could be grown in any order.

    `draws` is `tree_draws(n, cfg, seed)`, built here when not given.
    Each tree resumes from a copy of its state there, so its column
    samples are those that followed its bootstrap, and the draws can
    serve any number of fits. Draws of another shape, states that are not
    uint32 with an index in 0..624, and rows outside range(n) are
    rejected before any tree grows.
    """
    cfg = cfg or ForestConfig()
    matrix, labels = _training_data(x, y)
    n, d = matrix.shape
    rows, states = tree_draws(n, cfg, seed) if draws is None else draws
    rows, states = np.asarray(rows), np.asarray(states)
    if (
        rows.shape != (cfg.n_trees, n)
        or states.shape != (cfg.n_trees, native.STATE_WORDS)
        # without a bootstrap, every tree's rows are range(n)
        or not (cfg.bootstrap or (rows == np.arange(n)).all())
    ):
        raise ValueError(f"bootstrap draws do not fit {cfg.n_trees} trees on {n} rows")
    # the compiled code indexes by the rows and by each state's last word
    if rows.dtype.kind not in "iu" or (rows.size and (rows.min() < 0 or rows.max() >= n)):
        raise ValueError(f"bootstrap rows must be integer rows in range({n})")
    if states.dtype != np.uint32 or (states.size and states[:, -1].max() > 624):
        raise ValueError("generator states must be uint32 with an index in 0..624")
    max_features = cfg.max_features
    if max_features is None:
        max_features = math.isqrt(d)
        if max_features * max_features < d:  # ceil(sqrt(d))
            max_features += 1
    max_features = min(max_features, d)
    trees = _grow_trees(matrix, labels, cfg, rows, np.ascontiguousarray(states), max_features)
    return TreeModel(config=cfg, **trees)
