"""CART decision tree and the bagged random forest built on top of it.

One grower builds every tree of a fit, CART's single tree and each tree
of a forest alike. It ranks each column's values once per fit, as SLIQ's
presorted attribute lists do (Mehta, Agrawal & Rissanen, EDBT 1996), and
then grows all trees in lockstep. Each round takes the next node to
search from every tree and scores them all in one call of `best_split`
(a round too large to hold at once takes several), so a round costs a
fixed set of numpy calls however many nodes it holds. The grower looks
that name up in this module on every call, so instrumentation that
wraps `nextday.learn.tree.best_split` sees every split search.

The grower writes each node straight into flat arrays, one set for all
trees of a fit, as scikit-learn's `Tree` does. Prediction moves every
(row, tree) pair one level down per pass, in a fixed set of numpy calls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from nextday.config import CartConfig, ForestConfig


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
    bounds: np.ndarray,
    columns: np.ndarray,
    min_leaf: int,
) -> list[tuple[int, float, float] | None]:
    """Best (column, threshold, score) of each node of a round, or None.

    `codes` and `values` are `rank_columns(x, y)`. Node i holds the rows
    `rows[bounds[i]:bounds[i + 1]]` of `x` (a row may repeat) and
    searches the columns `columns[i]`, in ascending order. Candidate
    thresholds are midpoints between consecutive distinct values of a
    column within the node leaving at least `min_leaf` rows on each side.
    The score is the split quality sum((l0^2+l1^2)/l, (r0^2+r1^2)/r),
    which orders splits exactly like Gini impurity decrease; exact ties
    keep the earliest candidate (lower column, then lower threshold).

    Every (node, column) pair is a segment of one integer key
    `segment * 2 * stride + code`, and one sort of the keys orders every
    segment by value at once. The labels ride in the key's low bit, so
    one cumulative sum, less each segment's base, counts the ones left
    of every boundary. Ties between equal values sort zeros first; the
    class counts at a boundary between distinct values do not depend on
    that order.
    """
    nodes, width = columns.shape
    stride = values.shape[1]
    min_leaf = max(min_leaf, 1)
    lengths = np.diff(bounds)
    # node i's segments are w contiguous runs of lengths[i] sorted keys
    segment_length = np.repeat(lengths, width)
    segment_start = (
        width * bounds[:-1, np.newaxis] + lengths[:, np.newaxis] * np.arange(width)
    ).ravel()
    dtype = np.int32 if 2 * nodes * width * stride < 2**31 else np.int64
    node_of = np.repeat(np.arange(nodes, dtype=dtype), lengths)
    segment = node_of[:, np.newaxis] * width + np.arange(width, dtype=dtype)
    key = segment * (2 * stride) + codes[rows[:, np.newaxis], columns[node_of]]
    key = np.sort(key, axis=None)
    ones = np.zeros(len(key) + 1, dtype=np.int64)
    np.cumsum(key & 1, out=ones[1:])
    key >>= 1  # segment * stride + rank
    # split after sorted position p when the next key in its segment is larger
    at = np.flatnonzero(key[1:] > key[:-1])
    segment = key[at] // stride
    start = segment_start[segment]
    length = segment_length[segment]
    left = at + 1 - start
    right = length - left
    keep = (left >= min_leaf) & (right >= min_leaf)
    at, segment, start, length, left, right = (
        a[keep] for a in (at, segment, start, length, left, right)
    )
    base = ones[start]
    left_ones = ones[at + 1] - base
    right_ones = ones[start + length] - base - left_ones
    left_zeros = left - left_ones
    right_zeros = right - right_ones
    quality = (left_zeros * left_zeros + left_ones * left_ones) / left + (
        right_zeros * right_zeros + right_ones * right_ones
    ) / right
    found: list[tuple[int, float, float] | None] = [None] * nodes
    if not len(quality):
        return found
    # candidates run in (node, column, threshold) order: the first maximum
    # of each node's run is its earliest best candidate
    node = segment // width
    first = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
    best = np.maximum.reduceat(quality, first)
    hits = np.flatnonzero(quality == np.repeat(best, np.diff(first, append=len(quality))))
    win = hits[np.searchsorted(hits, first)]
    winner = node[first]
    col = columns[winner, segment[win] % width]
    low = key[at[win]] % stride
    high = key[at[win] + 1] % stride
    threshold = (values[col, low] + values[col, high]) / 2.0
    for i, c, t, s in zip(winner.tolist(), col.tolist(), threshold.tolist(), best.tolist()):
        found[i] = (c, t, s)
    return found


def parent_score(n0: int, n1: int) -> float:
    """No-split quality on the same scale as `best_split` scores."""
    n = n0 + n1
    if n == 0:
        return 0.0
    return (n0 * n0 + n1 * n1) / n


# `best_split` holds some 60 bytes per (row, column) pair of its nodes at
# once. A round with more pairs than this is searched in several calls,
# which caps that near 8 MB and changes no tree.
_SEARCH_PAIRS = 1 << 17


def _grow_trees(
    x: np.ndarray,
    y: np.ndarray,
    cfg: CartConfig | ForestConfig,
    samples: list[np.ndarray],
    rngs: list[random.Random | None],
    width: int,
) -> dict:
    """One tree per entry of `samples` (int32 rows of `x`), grown in lockstep.

    A node is searched when it is shallower than `cfg.max_depth`, holds
    both classes and at least `2 * cfg.min_samples_leaf` rows, which its
    class counts tell without a look at its labels. It splits when the
    best split beats `parent_score` and sends rows both ways. One
    comparison partitions every node of a round, and each child's rows
    are a slice of the round's left-going or right-going rows.

    Each tree keeps a depth-first stack of node indices. A tree with an
    RNG and `width < d` searches `sorted(rng.sample(range(d), width))`
    columns at each node and gives one node per round, so it draws in
    the order a recursive grower would. Any other tree draws nothing,
    searches every column and gives every node on its stack.

    Returns the `TreeModel` fields but `config`; node t is tree t's root.
    """
    d = x.shape[1]
    codes, values = rank_columns(x, y)
    is_one = y.astype(bool)
    all_columns = list(range(d))
    min_leaf = cfg.min_samples_leaf
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

    def push(stack: list, tree: int, node: int, depth: int, rows: np.ndarray) -> None:
        n0, n1 = counts[node]
        if depth < cfg.max_depth and n0 > 0 and n1 > 0 and n0 + n1 >= 2 * min_leaf:
            stack.append((tree, node, depth, rows))

    def search(batch: list, columns: list) -> None:
        """One `best_split` call over `batch`, then its nodes' splits."""
        lengths = [len(entry[3]) for entry in batch]
        offsets = list(accumulate(lengths, initial=0))
        bounds = np.array(offsets)
        rows = np.concatenate([entry[3] for entry in batch])
        found = best_split(
            codes, values, rows, bounds, np.array(columns, dtype=np.intp), min_leaf
        )
        split = [
            i
            for i, (best, entry) in enumerate(zip(found, batch))
            if best is not None and best[2] > parent_score(*counts[entry[1]])
        ]
        if split:
            features = [0] * len(batch)
            thresholds = [-math.inf] * len(batch)  # sends no row of an unsplit node left
            for i in split:
                features[i], thresholds[i], _ = found[i]
            node_of = np.repeat(np.arange(len(batch)), lengths)
            goes_left = x[rows, np.array(features)[node_of]] <= np.array(thresholds)[node_of]
            left_n = np.add.reduceat(goes_left, bounds[:-1]).tolist()
            left_ones = np.add.reduceat(goes_left & is_one[rows], bounds[:-1]).tolist()
            left_rows = rows[goes_left]
            right_rows = rows[~goes_left]
            left_at = list(accumulate(left_n, initial=0))
            for i in split:
                tree, node, depth, _ = batch[i]
                n_left = left_n[i]
                n_right = lengths[i] - n_left
                if n_left == 0 or n_right == 0:  # degenerate midpoint rounding
                    continue
                n0, n1 = counts[node]
                ones = left_ones[i]
                feature[node], threshold[node] = features[i], thresholds[i]
                left[node] = add(n_left - ones, ones)
                right = add(n0 - n_left + ones, n1 - ones)
                # the left child on top: each tree grows depth first, left first
                a = left_at[i]
                b = offsets[i] - a
                push(stacks[tree], tree, right, depth + 1, right_rows[b : b + n_right])
                push(stacks[tree], tree, left[node], depth + 1, left_rows[a : a + n_left])

    stacks: list[list] = []
    for tree, rows in enumerate(samples):
        n1 = int(np.count_nonzero(is_one[rows]))
        stacks.append([])
        push(stacks[tree], tree, add(len(rows) - n1, n1), 0, rows)
    samples_columns = [rng is not None and width < d for rng in rngs]
    live = [tree for tree, stack in enumerate(stacks) if stack]
    while live:
        batch = []
        columns = []
        for tree in live:
            stack = stacks[tree]
            if samples_columns[tree]:
                batch.append(stack.pop())
                columns.append(sorted(rngs[tree].sample(all_columns, width)))
            else:
                batch += stack
                columns += [all_columns] * len(stack)
                stack.clear()
        start = pairs = 0
        for i, entry in enumerate(batch):
            if pairs and pairs + len(entry[3]) * len(columns[i]) > _SEARCH_PAIRS:
                search(batch[start:i], columns[start:i])
                start, pairs = i, 0
            pairs += len(entry[3]) * len(columns[i])
        search(batch[start:], columns[start:])
        live = [tree for tree in live if stacks[tree]]
    left_child = np.array(left, dtype=np.int32)
    return {
        "n_trees": len(samples),
        "feature": np.array(feature, dtype=np.int32),
        "threshold": np.array(threshold),
        "left": left_child,
        "right": np.where(left_child < 0, left_child, left_child + 1),
        "counts": np.array(counts, dtype=np.int32),
    }


def _as_matrix(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def as_labels(y) -> np.ndarray:
    """The labels of a fit as int8. Every trainer takes only 0 and 1 (or
    booleans), checked before the cast, which would read 0.5 as 0."""
    labels = np.asarray(y)
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return labels.astype(np.int8, copy=False)


def _training_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    matrix = _as_matrix(x)
    labels = as_labels(y)
    if matrix.shape[0] == 0:
        raise ValueError("cannot train on an empty dataset")
    if not np.isfinite(matrix).all():
        raise ValueError("feature values must be finite")
    return matrix, labels


@dataclass
class TreeModel:
    """A fit's trees as parallel node arrays, as in scikit-learn's `Tree`.

    Node i sends a row to node `left[i]` when `row[feature[i]] <=
    threshold[i]` and to `right[i]` otherwise; both are -1 at a leaf.
    `counts[i]` holds the class 0 and class 1 training rows that reached
    node i. Nodes 0 to `n_trees - 1` are the trees' roots.
    """

    config: CartConfig | ForestConfig
    n_trees: int
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    def predict(self, x) -> np.ndarray:
        """The trees' majority vote on each row of `x`, a tie going to 0. Each
        pass moves every (row, tree) pair still at a split one level down."""
        matrix = _as_matrix(x)
        rows = np.repeat(np.arange(len(matrix)), self.n_trees)
        node = np.tile(np.arange(self.n_trees, dtype=np.int32), len(matrix))
        walking = np.flatnonzero(self.left[node] >= 0)
        while len(walking):
            at = node[walking]
            goes_left = matrix[rows[walking], self.feature[at]] <= self.threshold[at]
            at = np.where(goes_left, self.left[at], self.right[at])
            node[walking] = at
            walking = walking[self.left[at] >= 0]
        ones = (self.counts[:, 1] > self.counts[:, 0])[node]
        votes = ones.reshape(len(matrix), self.n_trees).sum(axis=1)
        return (2 * votes > self.n_trees).astype(np.int8)


@dataclass
class CartModel(TreeModel):
    config: CartConfig


@dataclass
class ForestModel(TreeModel):
    config: ForestConfig


def train_cart(x, y, cfg: CartConfig | None = None) -> CartModel:
    """Grow a CART tree by greedy Gini-impurity reduction.

    Single-class data produces a depth-0 majority leaf; prediction ties
    resolve to class 0.
    """
    cfg = cfg or CartConfig()
    matrix, labels = _training_data(x, y)
    n, d = matrix.shape
    trees = _grow_trees(matrix, labels, cfg, [np.arange(n, dtype=np.int32)], [None], d)
    return CartModel(config=cfg, **trees)


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


def tree_draws(n: int, cfg: ForestConfig, seed: int) -> tuple[np.ndarray, list[int]]:
    """Every tree's bootstrap rows and the RNG words each bootstrap used.

    Tree i's rows are row i of an (n_trees, n) int32 array, drawn from
    `random.Random(f"tree:{seed}:{i}")`. They depend only on (n, cfg,
    seed), so fits of several feature matrices with the same labels and
    fold can share them. With `cfg.bootstrap` off, every tree's rows are
    range(n) and use no words.
    """
    if not cfg.bootstrap:
        rows = np.broadcast_to(np.arange(n, dtype=np.int32), (cfg.n_trees, n))
        return rows, [0] * cfg.n_trees
    rows = np.empty((cfg.n_trees, n), dtype=np.int32)
    used = []
    for index in range(cfg.n_trees):
        rows[index], words = bootstrap_rows(random.Random(f"tree:{seed}:{index}"), n)
        used.append(words)
    return rows, used


def train_forest(x, y, cfg: ForestConfig | None = None, seed: int = 0, draws=None) -> ForestModel:
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
    matrix, labels = _training_data(x, y)
    n, d = matrix.shape
    rows, used = tree_draws(n, cfg, seed) if draws is None else draws
    if rows.shape != (cfg.n_trees, n) or any((words > 0) != cfg.bootstrap for words in used):
        raise ValueError(f"bootstrap draws do not fit {cfg.n_trees} trees on {n} rows")
    max_features = cfg.max_features
    if max_features is None:
        max_features = math.isqrt(d)
        if max_features * max_features < d:  # ceil(sqrt(d))
            max_features += 1
    max_features = min(max_features, d)

    rngs = [random.Random(f"tree:{seed}:{index}") for index in range(cfg.n_trees)]
    for rng, words in zip(rngs, used):
        rng.getrandbits(32 * words)
    trees = _grow_trees(matrix, labels, cfg, list(rows), rngs, max_features)
    return ForestModel(config=cfg, **trees)
