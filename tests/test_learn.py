import json
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextday.config import (
    ALL_SCHEMES,
    CartConfig,
    FeatureParams,
    ForestConfig,
    RelevanceParams,
    SvmConfig,
)
from nextday.corpus import DatasetError, load_corpus
from nextday.features import TextMemo, assemble_matrix, write_feature_csv
from nextday.learn import (
    Dataset,
    f_score,
    kfold_cv,
    metrics,
    stratified_folds,
    train_cart,
    train_forest,
    train_svm,
)
from nextday.learn.cv import fold_plans
from nextday.learn import grow, native, svm
from nextday.learn.svm import SvmModel, epoch_orders
from nextday.learn.tree import (
    TreeModel,
    best_split,
    bootstrap_rows,
    parent_score,
    rank_columns,
    tree_draws,
)
from nextday.lexicons import lexicons_from_paths
from nextday.relevance import associate_all
from signal_corpus import write_signal_corpus
from util import child_env

def on_each_grower(monkeypatch):
    """Yields "compiled" and then "python" with `native.HELPER` set to match,
    so that a tree oracle test checks both growers under its own name."""
    helper = native.HELPER
    assert helper is not None  # a C compiler is part of the test environment
    for path in ("compiled", "python"):
        monkeypatch.setattr(native, "HELPER", helper if path == "compiled" else None)
        yield path
    monkeypatch.setattr(native, "HELPER", helper)



# two features, eight rows; the second feature separates cleanly at 3.5
EIGHT_ROWS = [
    (2.0, 7.0, 0),
    (3.0, 6.0, 0),
    (4.0, 9.0, 1),
    (5.0, 1.0, 1),
    (6.0, 8.0, 0),
    (7.0, 2.0, 1),
    (8.0, 3.0, 1),
    (9.0, 4.0, 0),
]
EIGHT_X = np.array([[r[0], r[1]] for r in EIGHT_ROWS])
EIGHT_Y = np.array([r[2] for r in EIGHT_ROWS])


def exact_split_table(rows, feature, min_leaf=1):
    """Exact-arithmetic Gini impurity decrease per candidate threshold.

    Each row holds its feature values followed by its 0/1 label.
    """

    def gini(labels):
        n = len(labels)
        if n == 0:
            return Fraction(0)
        ones = sum(labels)
        return 1 - Fraction(n - ones, n) ** 2 - Fraction(ones, n) ** 2

    parent = gini([r[-1] for r in rows])
    values = sorted({r[feature] for r in rows})
    table = []
    for low, high in zip(values, values[1:]):
        threshold = (low + high) / 2
        left = [r[-1] for r in rows if r[feature] <= threshold]
        right = [r[-1] for r in rows if r[feature] > threshold]
        if len(left) < min_leaf or len(right) < min_leaf:
            continue
        weighted = (
            Fraction(len(left), len(rows)) * gini(left)
            + Fraction(len(right), len(rows)) * gini(right)
        )
        table.append((feature, threshold, parent - weighted))
    return table


def reference_best_split(x, y, min_leaf):
    """The per-column loop the one-pass `best_split` replaced, kept as an oracle."""
    n = x.shape[0]
    if n < 2 * min_leaf:
        return None
    y64 = y.astype(np.int64)
    n1 = int(y64.sum())
    best = None
    positions = np.arange(1, n, dtype=np.int64)
    for col in range(x.shape[1]):
        values = x[:, col]
        order = np.argsort(values)
        sorted_values = values[order]
        cum_ones = np.cumsum(y64[order])
        valid = (
            (sorted_values[1:] > sorted_values[:-1])
            & (positions >= min_leaf)
            & (n - positions >= min_leaf)
        )
        candidates = np.nonzero(valid)[0]
        if candidates.size == 0:
            continue
        left = candidates + 1
        left_ones = cum_ones[candidates]
        left_zeros = left - left_ones
        right = n - left
        right_ones = n1 - left_ones
        right_zeros = right - right_ones
        quality = (left_zeros * left_zeros + left_ones * left_ones) / left + (
            right_zeros * right_zeros + right_ones * right_ones
        ) / right
        pos = int(np.argmax(quality))
        score = float(quality[pos])
        if best is None or score > best[0]:
            split_at = int(candidates[pos])
            threshold = float((sorted_values[split_at] + sorted_values[split_at + 1]) / 2.0)
            best = (score, col, threshold)
    if best is None:
        return None
    return best[1], best[2], best[0]


def reference_node_split(x, y, min_leaf):
    """The per-node one-pass split search `best_split` batched, kept as an
    oracle: every column of one node sorted and swept at once."""
    n, m = x.shape
    if n < 2 or m == 0 or n < 2 * min_leaf:
        return None
    columns = np.arange(m)
    order = np.argsort(x, axis=0)
    sorted_values = x[order, columns]
    left_ones = np.cumsum(y[order], axis=0, dtype=np.int64)
    n1 = int(left_ones[-1, 0])
    left_ones = left_ones[:-1]
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
    split_at = quality.argmax(axis=0)
    column_best = quality[split_at, columns]
    col = int(column_best.argmax())
    score = float(column_best[col])
    if score == -np.inf:
        return None
    k = int(split_at[col])
    threshold = float((sorted_values[k, col] + sorted_values[k + 1, col]) / 2.0)
    return col, threshold, score


def reference_grow(x, y, depth, cfg, rng, max_features):
    """The recursive grower the lockstep one replaced, kept as an oracle.

    A leaf is {"counts": [n0, n1]}; a split node adds "feature",
    "threshold", "left" and "right"."""
    n = x.shape[0]
    n1 = int(y.sum())
    n0 = n - n1
    leaf = {"counts": [n0, n1]}
    if depth >= cfg.max_depth or n0 == 0 or n1 == 0 or n < 2 * cfg.min_samples_leaf:
        return leaf
    d = x.shape[1]
    if max_features is not None and max_features < d and rng is not None:
        columns = sorted(rng.sample(range(d), max_features))
        found = reference_node_split(
            np.ascontiguousarray(x[:, columns]), y, cfg.min_samples_leaf
        )
        if found is not None:
            found = (columns[found[0]], found[1], found[2])
    else:
        found = reference_node_split(x, y, cfg.min_samples_leaf)
    if found is None or found[2] <= parent_score(n0, n1):
        return leaf
    feature, threshold, _ = found
    mask = x[:, feature] <= threshold
    if not mask.any() or mask.all():
        return leaf
    left = reference_grow(x[mask], y[mask], depth + 1, cfg, rng, max_features)
    right = reference_grow(x[~mask], y[~mask], depth + 1, cfg, rng, max_features)
    return {"feature": feature, "threshold": threshold, **leaf, "left": left, "right": right}


def tree_dicts(model: TreeModel) -> list[dict]:
    """Each tree of a fit in `reference_grow`'s nested-dict shape."""

    def node(i):
        leaf = {"counts": model.counts[i].tolist()}
        if model.left[i] < 0:
            return leaf
        return {
            "feature": int(model.feature[i]),
            "threshold": float(model.threshold[i]),
            **leaf,
            "left": node(model.left[i]),
            "right": node(model.right[i]),
        }

    return [node(root) for root in range(model.n_trees)]


def reference_votes(trees: list[dict], x) -> list[int]:
    """Each row of `x` walked through each nested-dict tree: the number
    of trees whose leaf holds more ones than zeros."""
    votes = []
    for row in np.asarray(x, dtype=np.float64):
        ones = 0
        for tree in trees:
            while "left" in tree:
                tree = tree["left"] if row[tree["feature"]] <= tree["threshold"] else tree["right"]
            n0, n1 = tree["counts"]
            ones += n1 > n0
        votes.append(ones)
    return votes


def split_nodes(tree: dict):
    """The split nodes of a nested-dict tree, depth first."""
    if "left" in tree:
        yield tree
        yield from split_nodes(tree["left"])
        yield from split_nodes(tree["right"])


def fuzz_split_cases(seed, count=300):
    """Small grids with many ties, constant columns and duplicated columns."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 6))
        grid = rng.choice([0.0, 1.0, 2.5, -3.0, 0.5], size=(n, m))
        for col in range(m):
            kind = rng.integers(0, 4)
            if kind == 0:  # constant column: never a candidate
                grid[:, col] = grid[0, col]
            elif kind == 1 and col > 0:  # copy: equal scores across columns
                grid[:, col] = grid[:, int(rng.integers(0, col))]
        y = rng.integers(0, 2, size=n).astype(np.int8)
        yield np.ascontiguousarray(grid), y, int(rng.integers(1, 4))


def batched_split(cases, min_leaf):
    """`best_split` over the (x, y) cases of one width, one node each.

    The cases' rows are stacked into one matrix, ranked together, and
    handed over in a shuffled order within each node.
    """
    x = np.vstack([case_x for case_x, _ in cases])
    y = np.concatenate([case_y for _, case_y in cases])
    codes, values = rank_columns(x, y)
    bounds = np.cumsum([0] + [len(case_y) for _, case_y in cases])
    rng = np.random.default_rng(0)
    rows = np.concatenate(
        [rng.permutation(np.arange(a, b, dtype=np.int32)) for a, b in zip(bounds, bounds[1:])]
    )
    columns = np.tile(np.arange(x.shape[1]), (len(cases), 1))
    return best_split(codes, values, rows, bounds, columns, min_leaf)


def each_split_alone_and_joined(cases):
    """(case, split found for it alone, split found with its group joined),
    joining the cases of each (width, min_leaf) into one call."""
    groups = {}
    for x, y, min_leaf in cases:
        groups.setdefault((x.shape[1], min_leaf), []).append((x, y))
    for (_, min_leaf), group in groups.items():
        joined = batched_split(group, min_leaf)
        assert len(joined) == len(group)
        for (x, y), found in zip(group, joined):
            yield x, y, min_leaf, batched_split([(x, y)], min_leaf)[0], found


class TestKernels:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_pass_matches_column_loop(self, seed):
        cases = list(fuzz_split_cases(seed))
        for x, y, min_leaf, alone, joined in each_split_alone_and_joined(cases):
            want = reference_best_split(x, y, min_leaf)
            assert alone == joined == want
            assert reference_node_split(x, y, min_leaf) == want

    def test_one_pass_matches_exact_oracle(self):
        cases = list(fuzz_split_cases(3, count=150))
        for x, y, min_leaf, alone, joined in each_split_alone_and_joined(cases):
            rows = [(*row, label) for row, label in zip(x.tolist(), y.tolist())]
            table = [
                entry
                for col in range(x.shape[1])
                for entry in exact_split_table(rows, col, min_leaf)
            ]
            assert alone == joined
            if not table:
                assert alone is None
                continue
            best_decrease = max(d for _, _, d in table)
            winners = [(f, t) for f, t, d in table if d == best_decrease]
            assert alone is not None and (alone[0], alone[1]) == min(winners)

    def test_no_split_when_node_too_small(self):
        x = np.ascontiguousarray([[0.0], [1.0]])
        y = np.array([0, 1], dtype=np.int8)
        assert batched_split([(x, y)], 2) == [None]

    def test_constant_feature_yields_none(self):
        x = np.ascontiguousarray([[1.0], [1.0], [1.0], [1.0]])
        y = np.array([0, 1, 0, 1], dtype=np.int8)
        assert batched_split([(x, y)], 1) == [None]


class TestCart:
    def test_separable_pair(self):
        model = train_cart([[0.0], [1.0]], [0, 1], CartConfig(min_samples_leaf=1))
        assert model.feature[0] == 0
        assert model.threshold[0] == 0.5
        assert list(model.predict([[0.0], [1.0]])) == [0, 1]

    def test_identical_rows_majority_leaf(self):
        model = train_cart([[1.0, 2.0]] * 4, [0, 1, 1, 1], CartConfig())
        assert tree_dicts(model) == [{"counts": [1, 3]}]
        assert list(model.predict([[1.0, 2.0], [0.0, 9.0]])) == [1, 1]

    def test_majority_tie_predicts_zero(self):
        model = train_cart([[1.0]] * 4, [0, 0, 1, 1], CartConfig())
        assert tree_dicts(model) == [{"counts": [2, 2]}]
        assert list(model.predict([[1.0], [3.0]])) == [0, 0]

    def test_single_class_depth_zero(self):
        model = train_cart([[0.0], [1.0], [2.0]], [1, 1, 1], CartConfig())
        assert tree_dicts(model) == [{"counts": [0, 3]}]
        assert list(model.predict([[0.0], [5.0]])) == [1, 1]

    def test_eight_row_gini_table(self):
        table = exact_split_table(EIGHT_ROWS, 0) + exact_split_table(EIGHT_ROWS, 1)
        frozen = {
            (0, 2.5): Fraction(1, 14),
            (0, 3.5): Fraction(1, 6),
            (0, 4.5): Fraction(1, 30),
            (0, 5.5): Fraction(0),
            (0, 6.5): Fraction(1, 30),
            (0, 7.5): Fraction(0),
            (0, 8.5): Fraction(1, 14),
            (1, 1.5): Fraction(1, 14),
            (1, 2.5): Fraction(1, 6),
            (1, 3.5): Fraction(3, 10),
            (1, 5.0): Fraction(1, 8),
            (1, 6.5): Fraction(1, 30),
            (1, 7.5): Fraction(0),
            (1, 8.5): Fraction(1, 14),
        }
        assert {(f, t): d for f, t, d in table} == frozen
        best = max(table, key=lambda row: row[2])
        assert (best[0], best[1]) == (1, 3.5)

    def test_eight_row_tree_structure(self, monkeypatch):
        for _ in on_each_grower(monkeypatch):
            self.check_eight_row_tree()

    @staticmethod
    def check_eight_row_tree():
        model = train_cart(EIGHT_X, EIGHT_Y, CartConfig(max_depth=3, min_samples_leaf=1))
        (tree,) = tree_dicts(model)
        assert tree == {
            "feature": 1,
            "threshold": 3.5,
            "counts": [4, 4],
            "left": {"counts": [0, 3]},
            "right": {
                "feature": 1,
                "threshold": 8.5,
                "counts": [4, 1],
                "left": {"counts": [4, 0]},
                "right": {"counts": [0, 1]},
            },
        }
        assert list(model.predict(EIGHT_X)) == list(EIGHT_Y)
        # a value equal to a threshold goes left
        assert list(model.predict([[0.0, 3.5], [0.0, 8.5]])) == [1, 0]

    def test_split_sequence_matches_exact_oracle(self, monkeypatch):
        # every internal node's split must be the exact-arithmetic argmax
        models = [
            train_cart(EIGHT_X, EIGHT_Y, CartConfig(max_depth=3, min_samples_leaf=1))
            for _ in on_each_grower(monkeypatch)
        ]

        def check(node, rows):
            if "left" not in node:
                return
            table = exact_split_table(rows, 0) + exact_split_table(rows, 1)
            best_decrease = max(d for _, _, d in table)
            winners = [(f, t) for f, t, d in table if d == best_decrease]
            feature, threshold = node["feature"], node["threshold"]
            assert (feature, threshold) == min(winners)
            check(node["left"], [r for r in rows if r[feature] <= threshold])
            check(node["right"], [r for r in rows if r[feature] > threshold])

        for model in models:
            check(tree_dicts(model)[0], EIGHT_ROWS)

    def test_partition_impurity_decreases_at_every_split(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 4))
        y = (x[:, 0] + rng.normal(scale=0.7, size=120) > 0).astype(int)
        model = train_cart(x, y, CartConfig(max_depth=6, min_samples_leaf=2))

        def gini(counts):
            n = counts[0] + counts[1]
            if n == 0:
                return 0.0
            return 1.0 - (counts[0] / n) ** 2 - (counts[1] / n) ** 2

        def check(node):
            if "left" not in node:
                return
            left, right = node["left"], node["right"]
            n = sum(node["counts"])
            left_n = sum(left["counts"])
            right_n = sum(right["counts"])
            weighted = (left_n / n) * gini(left["counts"]) + (right_n / n) * gini(right["counts"])
            assert weighted < gini(node["counts"])
            check(left)
            check(right)

        check(tree_dicts(model)[0])


class TestForest:
    def test_degenerate_forest_equals_cart(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 5))
        y = (x[:, 1] > 0.2).astype(int)
        cart = train_cart(x, y, CartConfig())
        forest = train_forest(
            x, y, ForestConfig(n_trees=1, bootstrap=False, max_features=5), seed=3
        )
        probe = rng.normal(size=(1000, 5))
        assert np.array_equal(cart.predict(probe), forest.predict(probe))
        assert tree_dicts(forest) == tree_dicts(cart)

    def test_same_seed_identical_serialization(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        a = train_forest(x, y, ForestConfig(n_trees=5), seed=42)
        b = train_forest(x, y, ForestConfig(n_trees=5), seed=42)
        assert json.dumps(tree_dicts(a)) == json.dumps(tree_dicts(b))
        c = train_forest(x, y, ForestConfig(n_trees=5), seed=43)
        assert json.dumps(tree_dicts(a)) != json.dumps(tree_dicts(c))

    @pytest.mark.parametrize("max_features", range(1, 9))
    def test_each_node_searches_max_features_columns(self, monkeypatch, max_features):
        # the Python grower calls `best_split`; the compiled one does not
        monkeypatch.setattr(native, "HELPER", None)
        widths = []

        def counting(codes, values, rows, bounds, columns, min_leaf):
            widths.append(columns.shape[1])
            return best_split(codes, values, rows, bounds, columns, min_leaf)

        monkeypatch.setattr("nextday.learn.tree.best_split", counting)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 8))
        y = (x[:, 0] + x[:, 3] > 0).astype(int)
        train_forest(x, y, ForestConfig(n_trees=3, max_features=max_features))
        assert widths and set(widths) == {max_features}

    def test_walk_matches_per_row_oracle(self, monkeypatch):
        for _ in on_each_grower(monkeypatch):
            self.check_walk_matches_per_row_oracle()

    @staticmethod
    def check_walk_matches_per_row_oracle():
        ties = outvoted = 0
        for case, (x, y, leaf, depth, rng) in enumerate(fuzz_fit_cases(24, 200)):
            if case % 5 == 0:  # every column constant: each tree is one leaf
                x = np.full_like(x, x[0, 0])
            n, d = x.shape
            cfg = ForestConfig(
                n_trees=2 + case % 4,  # even counts can tie
                max_features=int(rng.integers(1, d + 1)),
                max_depth=depth,
                min_samples_leaf=leaf,
            )
            cart_cfg = CartConfig(max_depth=depth, min_samples_leaf=leaf)
            seed = int(rng.integers(0, 1000))
            forest_trees = reference_forest(x, y, cfg, seed)
            cart_tree = reference_grow(x, np.asarray(y, dtype=np.int8), 0, cart_cfg, None, None)
            # the fit's rows, rows on every threshold (they go left), fresh rows
            on_threshold = []
            for tree in [cart_tree, *forest_trees]:
                for node in split_nodes(tree):
                    row = x[len(on_threshold) % n].copy()
                    row[node["feature"]] = node["threshold"]
                    on_threshold.append(row)
            probe = np.vstack([x, *on_threshold, 2.0 * rng.normal(size=(10, d))])
            for model, trees in (
                (train_forest(x, y, cfg, seed=seed), forest_trees),
                (train_cart(x, y, cart_cfg), [cart_tree]),
            ):
                assert tree_dicts(model) == trees
                votes = reference_votes(trees, probe)
                want = [int(2 * v > len(trees)) for v in votes]
                assert model.predict(probe).tolist() == want
                assert model.predict(np.empty((0, d))).shape == (0,)
                ties += sum(2 * v == len(trees) for v in votes)
                outvoted += sum(len(trees) > v > len(trees) / 2 for v in votes)
            if case % 5 == 0:
                assert all("left" not in tree for tree in [cart_tree, *forest_trees])
        assert ties and outvoted

    @staticmethod
    def leaf_forest(counts):
        """A forest of single-leaf trees, one per (n0, n1) in `counts`."""
        from nextday.learn.tree import ForestModel

        n = len(counts)
        return ForestModel(
            config=ForestConfig(n_trees=n),
            n_trees=n,
            feature=np.full(n, -1, dtype=np.int32),
            threshold=np.zeros(n),
            left=np.full(n, -1, dtype=np.int32),
            right=np.full(n, -1, dtype=np.int32),
            counts=np.array(counts, dtype=np.int32),
        )

    def test_majority_vote(self):
        model = self.leaf_forest([(0, 5), (0, 5), (5, 0)])
        assert model.predict([[0.0]]).tolist() == [1]

    def test_tie_votes_zero(self):
        model = self.leaf_forest([(0, 5), (5, 0)])
        assert model.predict([[0.0]]).tolist() == [0]


FOUR_X = np.array([[-2.0, -1.0], [-2.0, 1.0], [2.0, -1.0], [2.0, 1.0]])
FOUR_Y = np.array([0, 0, 1, 1])


class TestSvm:
    def test_separable_four_points(self):
        model = train_svm(FOUR_X, FOUR_Y, SvmConfig())
        assert np.array_equal(model.predict(FOUR_X), FOUR_Y)

    def test_label_flip_complements_predictions(self):
        model = train_svm(FOUR_X, FOUR_Y, SvmConfig())
        flipped = train_svm(FOUR_X, 1 - FOUR_Y, SvmConfig())
        assert np.array_equal(flipped.weights, -model.weights)
        assert flipped.bias == -model.bias
        assert np.array_equal(flipped.predict(FOUR_X), 1 - model.predict(FOUR_X))

    def test_objective_decreases_first_to_last(self):
        history = objective_history(FOUR_X, FOUR_Y, SvmConfig(), 0)
        assert history[-1] < history[0]

    def test_objective_non_increasing_last_half(self):
        for seed, (x, y) in enumerate([(FOUR_X, FOUR_Y)]):
            history = objective_history(x, y, SvmConfig(), seed)
            tail = history[len(history) // 2 :]
            assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_zero_variance_feature_diagnostic(self, caplog):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        y = np.array([0, 0, 1, 1])
        with caplog.at_level("WARNING"):
            model = train_svm(x, y, SvmConfig())
        assert "zero-variance" in caplog.text
        assert np.array_equal(model.predict(x), y)

    def test_determinism(self):
        a = train_svm(FOUR_X, FOUR_Y, SvmConfig(), seed=5)
        b = train_svm(FOUR_X, FOUR_Y, SvmConfig(), seed=5)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert objective_history(FOUR_X, FOUR_Y, SvmConfig(), 5) == objective_history(
            FOUR_X, FOUR_Y, SvmConfig(), 5
        )

    def test_zero_epochs_gives_zero_model(self):
        model = train_svm(FOUR_X, FOUR_Y, SvmConfig(epochs=0))
        assert np.array_equal(model.weights, np.zeros(2))
        assert model.bias == 0.0
        assert objective_history(FOUR_X, FOUR_Y, SvmConfig(epochs=0), 0) == ()


TRAINERS = {
    "cart": lambda x, y: train_cart(x, y, CartConfig()),
    "forest": lambda x, y: train_forest(x, y, ForestConfig(n_trees=2)),
    "svm-compiled": lambda x, y: train_svm(x, y, SvmConfig(epochs=3)),
    "svm-python": lambda x, y: train_svm(x, y, SvmConfig(epochs=3)),
}


class TestTrainerLabels:
    """Every trainer takes labels 0 and 1 only, by one rule."""

    @pytest.fixture(params=sorted(TRAINERS))
    def trainer(self, request, monkeypatch):
        if request.param == "svm-python":
            monkeypatch.setattr(native, "HELPER", None)
        return TRAINERS[request.param]

    @pytest.mark.parametrize(
        "labels",
        [[0, 1, 1, 2], [0, 1, 1, 0.5], [0, 1, 1, -1], [0, 1, 1, 256], [0, 2, 0, 2]],
        ids=["2", "0.5", "-1", "256", "zero-and-two"],
    )
    def test_other_labels_rejected(self, trainer, labels):
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            trainer(FOUR_X, np.array(labels))

    @pytest.mark.parametrize(
        "labels", [FOUR_Y.astype(bool), FOUR_Y.astype(np.int8), FOUR_Y.tolist()],
        ids=["bool", "int8", "list"],
    )
    def test_bool_and_integer_labels_fit_alike(self, trainer, labels):
        want = trainer(FOUR_X, FOUR_Y).predict(FOUR_X)
        assert np.array_equal(trainer(FOUR_X, labels).predict(FOUR_X), want)


def hinge_objective(weights: np.ndarray, bias: float, x: np.ndarray, signs: np.ndarray, c: float) -> float:
    """0.5*||w||^2 + C * sum of hinge losses on (x, signs)."""
    margins = signs * (x @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * float(weights @ weights) + c * float(hinge.sum())


def objective_history(x, y, cfg: SvmConfig, seed: int) -> tuple[float, ...]:
    """The objective of `train_svm`'s averaged iterate after each epoch.

    A fit of e epochs over the first e epoch orders stops in the state
    that the full fit has after epoch e, so epoch e's objective is that
    of the e-epoch fit on its standardized rows.
    """
    matrix = np.asarray(x, dtype=np.float64)
    signs = np.where(np.asarray(y) == 1, 1.0, -1.0)
    orders = epoch_orders(len(matrix), cfg.epochs, seed)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        fit = SvmConfig(c=cfg.c, epochs=epoch)
        model = train_svm(matrix, y, fit, seed=seed, orders=orders[:epoch])
        standardized = model._standardize(matrix)
        history.append(hinge_objective(model.weights, model.bias, standardized, signs, cfg.c))
    return tuple(history)


def reference_train_svm(x, y, cfg: SvmConfig, seed: int) -> tuple[SvmModel, tuple[float, ...]]:
    """The per-sample loop `train_svm` replaced, kept as an oracle: the
    model and the objective after each epoch.

    It rescales the whole weight vector and updates the running average
    of the iterates at every step.
    """
    matrix = np.asarray(x, dtype=np.float64)
    n, d = matrix.shape
    signs = np.where(np.asarray(y) == 1, 1.0, -1.0)
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    scale = np.where(std == 0.0, 1.0, std)
    standardized = (matrix - mean) / scale

    lam = 1.0 / (cfg.c * n)
    weights = np.zeros(d)
    bias = 0.0
    avg_weights = np.zeros(d)
    avg_bias = 0.0
    rng = random.Random(f"svm:{seed}")
    history = []
    step = 0
    for _ in range(cfg.epochs):
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            step += 1
            eta = 1.0 / (lam * step)
            margin = signs[i] * (standardized[i] @ weights + bias)
            weights *= 1.0 - 1.0 / step
            if margin < 1.0:
                weights += (eta * signs[i]) * standardized[i]
                bias += eta * signs[i]
            avg_weights += (weights - avg_weights) / step
            avg_bias += (bias - avg_bias) / step
        history.append(hinge_objective(avg_weights, avg_bias, standardized, signs, cfg.c))
    model = SvmModel(config=cfg, weights=avg_weights, bias=avg_bias, mean=mean, scale=scale)
    return model, tuple(history)


# title_polarity and event_importance train on constant columns only
SIGNAL_SCHEMES = ("proposed", "article_content_polarity", "title_polarity", "event_importance")


@pytest.fixture(scope="module")
def signal_features(tmp_path_factory):
    """Feature matrices of small generated signal corpora, read back from CSV."""
    lexicons = lexicons_from_paths()
    matrices = {}
    for seed in (1, 2, 3):
        root = tmp_path_factory.mktemp(f"signal{seed}")
        write_signal_corpus(root, n_articles=60, seed=seed)
        corpus = load_corpus(
            root / "articles.jsonl", root / "tweets.jsonl", root / "users.jsonl"
        )
        associations = associate_all(corpus, RelevanceParams())
        memo = TextMemo(lexicons)
        for scheme in SIGNAL_SCHEMES:
            path = root / f"features_{scheme}.csv"
            write_feature_csv(
                assemble_matrix(corpus, associations, scheme, memo, FeatureParams()), path
            )
            data = Dataset.from_csv(path, scheme)
            matrices[(seed, scheme)] = (data.x, data.y)
    return matrices


class TestSvmMatchesReferenceLoop:
    def assert_same_fit(self, x, y, cfg, seed):
        got = train_svm(x, y, cfg, seed=seed)
        got_history = objective_history(x, y, cfg, seed)
        want, want_history = reference_train_svm(x, y, cfg, seed)
        assert np.array_equal(got.predict(x), want.predict(x))
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-9)
        np.testing.assert_allclose(got.bias, want.bias, rtol=1e-9)
        np.testing.assert_allclose(got_history, want_history, rtol=1e-9)
        if (np.asarray(x).std(axis=0) == 0.0).all():
            # only the bias moves, along the same recurrence in both loops
            assert got.bias == want.bias
            assert (got.weights == 0.0).all()
            assert got_history == want_history

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_four_points(self, seed):
        self.assert_same_fit(FOUR_X, FOUR_Y, SvmConfig(), seed)

    def test_zero_variance_column(self):
        x = np.array([[1.0, 5.0, 0.3], [2.0, 5.0, -1.2], [3.0, 5.0, 0.7], [4.0, 5.0, 0.1]])
        self.assert_same_fit(x, np.array([0, 0, 1, 1]), SvmConfig(), 3)

    def test_single_feature(self):
        x = np.array([[0.5], [1.5], [-0.25], [2.0], [-1.0], [0.75]])
        self.assert_same_fit(x, np.array([1, 1, 0, 1, 0, 0]), SvmConfig(c=0.5), 2)

    def test_two_rows(self):
        x = np.array([[1.0, -3.0, 2.0], [0.0, 4.0, 2.5]])
        self.assert_same_fit(x, np.array([1, 0]), SvmConfig(epochs=50), 7)

    @pytest.mark.parametrize("labels", [[0, 1, 1, 0, 1, 1, 1], [1, 1, 0, 0, 0, 0, 0]])
    def test_all_constant_columns(self, labels):
        x = np.array([[0.25, -4.0, 3.0]] * len(labels))
        self.assert_same_fit(x, np.array(labels), SvmConfig(), 4)

    def test_rows_at_column_means(self):
        # column means are (2, 3, 0); rows 2, 4 and 6 standardize to zero
        x = np.array(
            [
                [1.0, 2.0, -1.0],
                [2.0, 3.0, 0.0],
                [3.0, 5.0, 2.0],
                [2.0, 3.0, 0.0],
                [0.0, 1.0, 1.0],
                [2.0, 3.0, 0.0],
                [4.0, 4.0, -2.0],
            ]
        )
        assert not ((x - x.mean(axis=0)) / x.std(axis=0))[[1, 3, 5]].any()
        self.assert_same_fit(x, np.array([0, 1, 1, 0, 0, 1, 1]), SvmConfig(), 6)

    @pytest.mark.parametrize("corpus_seed", [1, 2, 3])
    @pytest.mark.parametrize("scheme", SIGNAL_SCHEMES)
    def test_signal_corpus_features(self, signal_features, corpus_seed, scheme):
        x, y = signal_features[(corpus_seed, scheme)]
        assert 0 < y.sum() < len(y)
        self.assert_same_fit(x, y, SvmConfig(), corpus_seed)


class TestMetrics:
    def test_reported_pairs_consistent(self):
        assert f_score(94.6, 83.33) == pytest.approx(88.6, abs=0.1)
        assert f_score(91.4, 84.2) == pytest.approx(87.6, abs=0.1)

    def test_degenerate_zero(self):
        assert metrics(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_f_zero_iff_no_true_positives(self):
        for tp in range(0, 4):
            for fp in range(0, 4):
                for fn in range(0, 4):
                    _, _, f = metrics(tp, fp, fn)
                    assert (f == 0.0) == (tp == 0)

    def test_balanced_errors_collapse(self):
        for tp in (1, 5, 9):
            for err in (0, 2, 7):
                p, r, f = metrics(tp, err, err)
                assert p == r == f

    def test_percentages(self):
        p, r, f = metrics(tp=8, fp=2, fn=8)
        assert p == 80.0
        assert r == 50.0
        assert f == pytest.approx(2 * 80 * 50 / 130)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            metrics(-1, 0, 0)


def toy_dataset(n=300, ones=120, seed=0, separable=True) -> Dataset:
    rng = random.Random(seed)
    rows = []
    labels = [1] * ones + [0] * (n - ones)
    rng.shuffle(labels)
    for label in labels:
        if separable:
            base = 5.0 if label else -5.0
        else:
            base = 0.0
        rows.append([base + rng.random(), rng.random()])
    return Dataset(
        scheme="toy",
        feature_names=("f0", "f1"),
        x=np.array(rows),
        y=np.array(labels, dtype=np.int8),
        article_ids=tuple(f"r{i}" for i in range(n)),
    )


class TestFolds:
    def test_exact_thirty_per_fold(self):
        data = toy_dataset(n=300, ones=120)
        folds = stratified_folds(data.y, 10, seed=1)
        assert [len(f) for f in folds] == [30] * 10
        union = sorted(i for fold in folds for i in fold)
        assert union == list(range(300))
        for fold in folds:
            ones = sum(1 for i in fold if data.y[i] == 1)
            assert abs(ones - 12) <= 1

    def test_disjoint_and_complete(self):
        data = toy_dataset(n=97, ones=41)
        folds = stratified_folds(data.y, 7, seed=3)
        seen = set()
        for fold in folds:
            assert seen.isdisjoint(fold)
            seen.update(fold)
        assert seen == set(range(97))

    def test_insufficient_class_support(self):
        y = np.array([1] * 50 + [0] * 3, dtype=np.int8)
        with pytest.raises(DatasetError, match="insufficient class support"):
            stratified_folds(y, 5, seed=0)

    def test_same_seed_same_folds(self):
        data = toy_dataset()
        assert stratified_folds(data.y, 10, 7) == stratified_folds(data.y, 10, 7)
        assert stratified_folds(data.y, 10, 7) != stratified_folds(data.y, 10, 8)


def cross_validate(data, k, cfgs, seed):
    return kfold_cv(data, cfgs, fold_plans(data.y, k, cfgs, seed))


class TestKfoldCv:
    def test_perfectly_learnable_data_scores_hundred(self):
        data = toy_dataset(n=60, ones=30)
        cfgs = {"random_forest": ForestConfig(), "linear_svm": SvmConfig(), "cart": CartConfig()}
        results = cross_validate(data, 2, cfgs, seed=1)
        assert any(block["pooled"]["f_score"] == 100.0 for block in results.values())
        assert results["cart"]["pooled"]["f_score"] == 100.0

    def test_report_deterministic(self):
        data = toy_dataset(n=80, ones=40)
        cfgs = {"cart": CartConfig(), "random_forest": ForestConfig(n_trees=5)}
        a = cross_validate(data, 4, cfgs, seed=9)
        b = cross_validate(data, 4, cfgs, seed=9)
        assert json.dumps(a) == json.dumps(b)

    def test_pooled_counts_cover_all_rows(self):
        data = toy_dataset(n=90, ones=45, separable=False)
        pooled = cross_validate(data, 3, {"cart": CartConfig()}, seed=4)["cart"]["pooled"]
        assert pooled["tp"] + pooled["fp"] + pooled["fn"] + pooled["tn"] == 90

    def test_insufficient_support_propagates(self):
        data = toy_dataset(n=20, ones=3)
        with pytest.raises(DatasetError):
            cross_validate(data, 5, {"cart": CartConfig()}, seed=1)

    def test_plans_fold_train_and_seed(self):
        data = toy_dataset(n=50, ones=20)
        plans = fold_plans(data.y, 5, {"cart": CartConfig()}, 3)
        for fold, (plan, holdout) in enumerate(zip(plans, stratified_folds(data.y, 5, 3))):
            assert plan.test.tolist() == holdout
            assert plan.train.tolist() == sorted(set(range(50)) - set(holdout))
            assert plan.seed == 3000 + fold

    @pytest.mark.parametrize(
        "change",
        [
            lambda plans: plans[1:],
            lambda plans: plans + plans[:1],
            lambda plans: [replace(plans[0], test=plans[0].test[1:]), *plans[1:]],
            lambda plans: [],
        ],
        ids=["fold-missing", "fold-repeated", "row-missing", "no-plans"],
    )
    def test_plans_must_partition_the_rows(self, change):
        data = toy_dataset(n=40, ones=20)
        cfgs = {"cart": CartConfig()}
        plans = change(fold_plans(data.y, 4, cfgs, 2))
        with pytest.raises(ValueError, match="do not partition the 40 rows"):
            kfold_cv(data, cfgs, plans)
        other = toy_dataset(n=44, ones=20)
        with pytest.raises(ValueError, match="do not partition the 44 rows"):
            kfold_cv(other, cfgs, fold_plans(data.y, 4, cfgs, 2))


class TestDataset:
    def test_from_csv_round_trip(self, tmp_path):
        path = tmp_path / "features_toy.csv"
        path.write_text(
            "article_id,f0,f1,label\n"
            "a1,0.500000,1.000000,1\n"
            "a2,-0.250000,2.000000,0\n"
        )
        data = Dataset.from_csv(path, scheme="toy")
        assert data.feature_names == ("f0", "f1")
        assert data.article_ids == ("a1", "a2")
        assert data.x[1, 0] == -0.25
        assert list(data.y) == [1, 0]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f0,label\na,0,1\n")
        with pytest.raises(DatasetError, match="expected header"):
            Dataset.from_csv(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("article_id,f0,label\na,0.0,2\n")
        with pytest.raises(DatasetError, match="labels must be 0 or 1"):
            Dataset.from_csv(path)

    @pytest.mark.parametrize(
        "feature, label",
        [
            ("1_0", "1"), ("1e3", "1"), (" 1.5", "1"), ("1.5 ", "1"), ("+1.5", "1"),
            (".5", "1"), ("5.", "1"), ("nan", "1"), ("inf", "1"), ("", "1"),
            ("\u0661.5", "1"), ("0.5", " 1"), ("0.5", "1.0"), ("0.5", "-0"), ("0.5", "1_0"),
            ("0.5", "\u0661"), ("0.5", ""),
        ],
    )
    def test_non_numeric_cell(self, tmp_path, feature, label):
        path = tmp_path / "f.csv"
        path.write_text(f"article_id,f0,label\na,-0.25,0\nb,{feature},{label}\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="f.csv:3: non-numeric cell"):
            Dataset.from_csv(path)

    @pytest.mark.parametrize("feature", ["1" * 400, "-" + "9" * 310 + ".5"])
    def test_overflowing_cell(self, tmp_path, feature):
        path = tmp_path / "f.csv"
        path.write_text(f"article_id,f0,label\na,-0.25,0\nb,{feature},1\n")
        with pytest.raises(DatasetError, match="f.csv:3: non-finite cell"):
            Dataset.from_csv(path)

    @pytest.mark.parametrize("label", ["2", "128", "300", "1" * 25])
    def test_label_out_of_range(self, tmp_path, label):
        path = tmp_path / "f.csv"
        path.write_text(f"article_id,f0,label\na,-0.25,0\nb,0.5,{label}\n")
        with pytest.raises(DatasetError, match="f.csv:3: labels must be 0 or 1"):
            Dataset.from_csv(path)

    def test_plain_cells_read(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("article_id,f0,f1,label\na,-0.000000,12,01\nb,3.250000,-7,0\n")
        data = Dataset.from_csv(path)
        assert data.x.tolist() == [[0.0, 12.0], [3.25, -7.0]]
        assert data.y.tolist() == [1, 0]

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("article_id,f0,f1,label\na,0.0,1\n")
        with pytest.raises(DatasetError, match="wrong column count"):
            Dataset.from_csv(path)


def bit_identical_svm(a: SvmModel, b: SvmModel) -> bool:
    return (
        a.weights.tobytes() == b.weights.tobytes()
        and np.float64(a.bias).tobytes() == np.float64(b.bias).tobytes()
    )


def reference_forest(x, y, cfg: ForestConfig, seed: int) -> list[dict]:
    """Each tree grown from a bootstrap of n `randrange(n)` calls, the draws
    `train_forest` made one at a time before they could be shared."""
    n = len(y)
    labels = np.asarray(y, dtype=np.int8)
    trees = []
    for index in range(cfg.n_trees):
        rng = random.Random(f"tree:{seed}:{index}")
        chosen = [rng.randrange(n) for _ in range(n)] if cfg.bootstrap else list(range(n))
        trees.append(
            reference_grow(
                np.ascontiguousarray(x[chosen]), labels[chosen], 0, cfg, rng, cfg.max_features
            )
        )
    return trees


@pytest.fixture(scope="module")
def golden_datasets(tmp_path_factory, golden_corpus, golden_associations, lexicons):
    """The six golden feature CSVs, read back as datasets."""
    root = tmp_path_factory.mktemp("golden_csv")
    memo = TextMemo(lexicons)
    datasets = []
    for scheme in ALL_SCHEMES:
        path = root / f"features_{scheme}.csv"
        matrix = assemble_matrix(golden_corpus, golden_associations, scheme, memo, FeatureParams())
        write_feature_csv(matrix, path)
        datasets.append(Dataset.from_csv(path, scheme))
    return datasets


class TestSharedDraws:
    """The random draws of a fit, built once and passed in, change no bit of it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 2399, 2400, 4096, 4097])
    def test_bulk_bootstrap_is_the_randrange_loop(self, n):
        for index in range(3):
            loop = random.Random(f"tree:7:{index}")
            bulk = random.Random(f"tree:7:{index}")
            want = [loop.randrange(n) for _ in range(n)]
            rows, used = bootstrap_rows(bulk, n)
            assert rows.dtype == np.int32
            assert rows.tolist() == want
            assert bulk.getstate() == loop.getstate()
            assert used >= n

    def test_epoch_orders_are_the_shuffle_loop(self):
        rng = random.Random("svm:5")
        orders = epoch_orders(9, 4, 5)
        assert orders.dtype == np.int32 and orders.shape == (4, 9)
        for row in orders:
            order = list(range(9))
            rng.shuffle(order)
            assert row.tolist() == order

    @pytest.mark.parametrize(
        "x, y",
        [(FOUR_X, FOUR_Y), (np.array([[0.25, -4.0, 3.0]] * 7), np.array([0, 1, 1, 0, 1, 1, 1]))],
        ids=["four-points", "all-constant"],
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_svm_orders_change_nothing(self, x, y, seed):
        cfg = SvmConfig()
        given = train_svm(x, y, cfg, seed=seed, orders=epoch_orders(len(y), cfg.epochs, seed))
        assert bit_identical_svm(given, train_svm(x, y, cfg, seed=seed))

    @pytest.mark.parametrize("corpus_seed", [1, 2, 3])
    @pytest.mark.parametrize("scheme", SIGNAL_SCHEMES)
    def test_svm_orders_change_nothing_on_signal_corpus(self, signal_features, corpus_seed, scheme):
        x, y = signal_features[(corpus_seed, scheme)]
        cfg = SvmConfig()
        orders = epoch_orders(len(y), cfg.epochs, corpus_seed)
        given = train_svm(x, y, cfg, seed=corpus_seed, orders=orders)
        assert bit_identical_svm(given, train_svm(x, y, cfg, seed=corpus_seed))

    @pytest.mark.parametrize("bootstrap", [True, False], ids=["bootstrap", "no-bootstrap"])
    def test_forest_draws_change_nothing(self, bootstrap):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(70, 6))
        x[:, 2] = 1.5  # a constant column
        y = (x[:, 0] - x[:, 4] > 0.1).astype(int)
        cfg = ForestConfig(n_trees=12, bootstrap=bootstrap, max_features=2)
        draws = tree_draws(70, cfg, 8)
        rows, used = draws
        assert rows.shape == (12, 70)
        assert (sum(used) == 0) is not bootstrap
        if not bootstrap:
            assert (rows == np.arange(70)).all()
        given = train_forest(x, y, cfg, seed=8, draws=draws)
        assert tree_dicts(given) == tree_dicts(train_forest(x, y, cfg, seed=8))
        assert tree_dicts(given) == reference_forest(x, y, cfg, 8)

    def test_draws_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="epoch orders"):
            train_svm(FOUR_X, FOUR_Y, SvmConfig(), orders=epoch_orders(3, 200, 0))
        x = np.arange(20.0).reshape(10, 2)
        y = np.array([0, 1] * 5)
        cfg = ForestConfig(n_trees=2)
        with pytest.raises(ValueError, match="bootstrap draws"):
            train_forest(x, y, cfg, draws=tree_draws(9, cfg, 0))
        with pytest.raises(ValueError, match="bootstrap draws"):
            train_forest(x, y, ForestConfig(n_trees=2, bootstrap=False), draws=tree_draws(10, cfg, 0))

    def test_one_plan_list_serves_every_golden_scheme(self, golden_datasets):
        cfgs = {
            "random_forest": ForestConfig(n_trees=10),
            "linear_svm": SvmConfig(),
            "cart": CartConfig(),
        }
        plans = fold_plans(golden_datasets[0].y, 5, cfgs, 2016)
        assert [sorted(plan.draws) for plan in plans] == [sorted(cfgs)] * 5
        for data in golden_datasets:
            own = kfold_cv(data, cfgs, fold_plans(data.y, 5, cfgs, 2016))
            assert kfold_cv(data, cfgs, plans) == own, data.scheme


def python_shuffles(n, epochs, seed):
    rng = random.Random(f"svm:{seed}")
    orders = []
    for _ in range(epochs):
        order = list(range(n))
        rng.shuffle(order)
        orders.append(order)
    return orders


def svm_fuzz_cases(seed, count):
    """Fits of 1-90 rows by 1-40 columns (across ddot's blocks of 16 and
    32): normal draws, rounded grids, constant columns and rows at the
    column means, with c in {0.1, 1, 7} and 0-30 epochs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 91))
        d = int(rng.integers(1, 41))
        kind = rng.integers(0, 3)
        if kind == 0:
            x = rng.normal(size=(n, d))
        elif kind == 1:
            x = np.round(rng.normal(size=(n, d)), 1)
        else:
            # each row x, its mirror 2m - x and m itself: the column means
            # are exactly m, so the last row standardizes to all zeros
            half = rng.integers(-3, 4, size=((n - 1) // 2, d)).astype(float)
            middle = rng.integers(-3, 4, size=(1, d)).astype(float)
            x = np.vstack([half, 2 * middle - half, middle])
        x[:, rng.random(d) < 0.2] = x[0, 0]
        y = rng.integers(0, 2, size=len(x))
        cfg = SvmConfig(c=float(rng.choice([0.1, 1.0, 7.0])), epochs=int(rng.integers(0, 31)))
        yield x, y, cfg, int(rng.integers(0, 1000))


def final_state(x, y, cfg: SvmConfig, seed: int) -> bytes:
    """The bytes of `_descend`'s final state in `train_svm`'s fit of (x, y),
    on the path `native.HELPER` selects."""
    matrix = np.asarray(x, dtype=np.float64)
    std = matrix.std(axis=0)
    standardized = (matrix - matrix.mean(axis=0)) / np.where(std == 0.0, 1.0, std)
    signs = np.where(np.asarray(y) == 1, 1.0, -1.0)
    orders = epoch_orders(len(matrix), cfg.epochs, seed)
    lam = 1.0 / (cfg.c * len(matrix))
    return np.hstack(svm._descend(native.HELPER, standardized, signs, orders, lam)).tobytes()


class TestCompiledEpochs:
    """The compiled shuffle and step loop give the Python loops' bits."""

    def test_built_here(self):
        # a C compiler is part of the test environment, so both paths run
        assert native.EPOCH_PATH == {"path": "compiled"}
        assert native.HELPER is not None

    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 2399, 2400, 4096, 4097])
    def test_shuffle_replays_random_shuffle(self, n):
        for seed, epochs in ((0, 1), (5, 3), (20160803, 2), (9, 0)):
            orders = epoch_orders(n, epochs, seed)
            assert orders.dtype == np.int32 and orders.shape == (epochs, n)
            assert orders.tolist() == python_shuffles(n, epochs, seed)

    def test_shuffle_draws_again_when_words_run_out(self, monkeypatch):
        words = np.zeros(1, dtype=np.uint32)
        orders = np.empty((1, 3), dtype=np.int32)
        assert native.HELPER.lib.shuffle_orders(words.ctypes.data, 1, orders.ctypes.data, 3, 1) == -1
        monkeypatch.setattr(svm, "_shuffle_words", lambda n, epochs: 1)
        for n, epochs in ((3, 1), (129, 4), (2400, 2)):
            assert epoch_orders(n, epochs, 11).tolist() == python_shuffles(n, epochs, 11)

    @pytest.mark.parametrize("path", ["compiled", "python", "redraw"])
    def test_orders_of_fewer_epochs_are_a_prefix(self, monkeypatch, path):
        # the test-side objective history fits e epochs over orders[:e]
        if path == "python":
            monkeypatch.setattr(native, "HELPER", None)
        elif path == "redraw":
            monkeypatch.setattr(svm, "_shuffle_words", lambda n, epochs: 1)
        for n, seed, epochs in ((1, 0, 5), (2, 3, 6), (129, 20160803, 6), (2400, 7, 4)):
            full = epoch_orders(n, epochs, seed)
            for e in range(epochs + 1):
                assert epoch_orders(n, e, seed).tobytes() == full[:e].tobytes(), (n, seed, e)

    def test_step_loop_matches_python_loop(self, monkeypatch):
        cases = list(svm_fuzz_cases(31, 300))
        rng = np.random.default_rng(32)
        cases.append((rng.normal(size=(12, 5)), np.arange(12) % 2, SvmConfig(epochs=0), 4))
        cases.append((rng.normal(size=(1, 7)), np.array([1]), SvmConfig(epochs=9), 5))
        compiled = [
            (train_svm(x, y, cfg, seed=seed), final_state(x, y, cfg, seed))
            for x, y, cfg, seed in cases
        ]
        monkeypatch.setattr(native, "HELPER", None)
        for (x, y, cfg, seed), (model, state) in zip(cases, compiled):
            assert bit_identical_svm(model, train_svm(x, y, cfg, seed=seed)), (x.shape, cfg, seed)
            assert state == final_state(x, y, cfg, seed), (x.shape, cfg, seed)

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    @pytest.mark.parametrize(
        "index, value, dtype",
        [((1, 2), 4, np.int32), ((0, 0), -1, np.int64), (None, None, float), (None, None, bool)],
        ids=["out-of-range", "negative", "float", "bool"],
    )
    def test_bad_orders_rejected(self, monkeypatch, compiled, index, value, dtype):
        if not compiled:
            monkeypatch.setattr(native, "HELPER", None)
        orders = epoch_orders(4, 3, 0).astype(dtype)
        if index is not None:
            orders[index] = value
        with pytest.raises(ValueError, match=r"integer rows in range\(4\)"):
            train_svm(FOUR_X, FOUR_Y, SvmConfig(epochs=3), orders=orders)

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    def test_labels_of_another_length_rejected(self, monkeypatch, compiled):
        if not compiled:
            monkeypatch.setattr(native, "HELPER", None)
        with pytest.raises(ValueError, match=r"labels \(3,\) do not fit 4 rows"):
            train_svm(FOUR_X, FOUR_Y[:3], SvmConfig(epochs=3))

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, monkeypatch, compiled, bad):
        if not compiled:
            monkeypatch.setattr(native, "HELPER", None)
        x = FOUR_X.copy()
        x[2, 1] = bad
        with pytest.raises(ValueError, match="^feature values must be finite$"):
            train_svm(x, FOUR_Y, SvmConfig(epochs=3))

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    def test_model_keeps_no_epoch_state(self, monkeypatch, compiled):
        if not compiled:
            monkeypatch.setattr(native, "HELPER", None)
        model = train_svm(FOUR_X, FOUR_Y, SvmConfig(epochs=7), seed=3)
        assert list(vars(model)) == ["config", "weights", "bias", "mean", "scale"]

    def test_source_compiles_without_warnings(self):
        # a build's diagnostics are captured and dropped, so check them here
        result = subprocess.run(
            [*native._BUILD, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(native._SOURCE)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr


# Loads the helper from the build directory argv[1] with `cc` and every
# subprocess made to fail, so only a cached library can load; then checks
# one fit against the Python loop and prints the recorded epoch path.
CACHED_LOAD_PROBE = """
import json, shutil, subprocess, sys
from pathlib import Path
import numpy as np
from nextday.learn import native, svm

def no_build(*args, **kwargs):
    raise AssertionError("cc ran")

subprocess.run = no_build
shutil.which = lambda name: None
helper, record = native.load_helper(Path(sys.argv[1]))
x, y = np.arange(40.0).reshape(10, 4) % 7, np.arange(10) % 2
fits = [svm._descend(h, x, np.where(y == 1, 1.0, -1.0), svm.epoch_orders(10, 5, 3), 0.1) for h in (helper, None)]
same = np.hstack(fits[0]).tobytes() == np.hstack(fits[1]).tobytes()
print(json.dumps({"record": record, "same": same}))
"""


class TestEpochHelperBuild:
    """Building, caching and falling back from the compiled epoch helper."""

    def cached_load(self, build_dir):
        result = subprocess.run(
            [sys.executable, "-c", CACHED_LOAD_PROBE, str(build_dir)],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout), result.stderr

    def test_no_compiler_falls_back_to_the_same_bits(self, monkeypatch, caplog, tmp_path):
        x = np.round(np.random.default_rng(4).normal(size=(30, 18)), 1)
        y = np.arange(30) % 3 == 0
        cfg = SvmConfig(epochs=12)
        compiled = train_svm(x, y, cfg, seed=2), epoch_orders(50, 6, 2)
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        with caplog.at_level("WARNING", logger="nextday.learn.native"):
            helper, record = native.load_helper(tmp_path / "build")
        assert helper is None
        assert record == {"path": "python", "reason": "no C compiler 'cc' on PATH"}
        assert [r.getMessage() for r in caplog.records] == [
            "SVM epochs and tree growth run in Python: no C compiler 'cc' on PATH"
        ]
        monkeypatch.setattr(native, "HELPER", helper)
        assert bit_identical_svm(compiled[0], train_svm(x, y, cfg, seed=2))
        assert epoch_orders(50, 6, 2).tobytes() == compiled[1].tobytes()

    def test_failed_build_falls_back(self, monkeypatch, caplog, tmp_path):
        monkeypatch.setattr(native, "_BUILD", ["false", *native._BUILD[1:]])
        with caplog.at_level("WARNING", logger="nextday.learn.native"):
            helper, record = native.load_helper(tmp_path)
        assert helper is None and record["reason"].startswith("build failed")
        assert len(caplog.records) == 1
        assert list(tmp_path.iterdir()) == []  # no temporary file left behind

    def test_missing_ddot_falls_back(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "_DDOT", "no_such_ddot")
        helper, record = native.load_helper(tmp_path)
        assert helper is None and record["reason"] == "numpy's BLAS has no no_such_ddot"

    def test_unwritable_build_dir_falls_back(self, tmp_path):
        (tmp_path / "file").write_text("")
        helper, record = native.load_helper(tmp_path / "file" / "build")
        assert helper is None and record["reason"].startswith("cannot write")

    def test_cached_library_reused_without_cc(self, tmp_path):
        helper, record = native.load_helper(tmp_path)
        assert helper is not None and record == {"path": "compiled"}
        (library,) = tmp_path.iterdir()
        stamp = library.stat().st_mtime_ns
        assert self.cached_load(tmp_path)[0] == {"record": {"path": "compiled"}, "same": True}
        assert library.stat().st_mtime_ns == stamp

    def test_stale_libraries_removed_after_a_build(self, tmp_path):
        stale = tmp_path / "_epoch-deadbeef.so"
        stale.write_bytes(b"an earlier build")
        building = tmp_path / "_epoch-deadbeef-x1y2.tmp"  # another build in progress
        building.write_bytes(b"")
        library = native._library(tmp_path)
        assert sorted(tmp_path.iterdir()) == sorted([library, building])
        # a cached library is only read: nothing else is removed
        stale.write_bytes(b"an earlier build")
        assert native._library(tmp_path) == library
        assert stale.exists()

    @pytest.mark.parametrize("damage", ["truncated", "overwritten"])
    def test_damaged_cache_is_rebuilt(self, tmp_path, damage):
        # only child processes map the library: a mapped file damaged in
        # place would fault in the process that maps it
        library = native._library(tmp_path)
        good = library.read_bytes()
        if damage == "truncated":
            library.write_bytes(good[: len(good) // 2])
        else:
            library.write_bytes(good[:4000] + bytes(100) + good[4100:])
        # without cc the damaged copy is not loaded: the probe falls back
        probe, err = self.cached_load(tmp_path)
        assert probe == {"record": {"path": "python", "reason": "no C compiler 'cc' on PATH"}, "same": True}
        assert "SVM epochs and tree growth run in Python" in err
        assert native._library(tmp_path) == library
        assert library.read_bytes() == good
        assert self.cached_load(tmp_path)[0] == {"record": {"path": "compiled"}, "same": True}


def fuzz_fit_cases(seed, count):
    """Fits of 1-80 rows: normal draws, tied grids (with -0.0) and small
    integers, some constant columns, some single-class labels."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 81))
        d = int(rng.integers(1, 7))
        kind = rng.integers(0, 3)
        if kind == 0:
            x = rng.normal(size=(n, d))
        elif kind == 1:
            x = rng.choice([0.0, -0.0, 1.0, 2.5, -3.0, 0.5], size=(n, d))
        else:
            x = rng.integers(0, 3, size=(n, d)).astype(float)
        x[:, rng.random(d) < 0.2] = x[0, 0]
        y = rng.integers(0, 2, size=n)
        if rng.random() < 0.1:
            y[:] = y[0]
        yield x, y, int(rng.integers(1, 4)), int(rng.integers(0, 9)), rng


def searched_nodes(tree: dict, cfg, depth: int = 0) -> int:
    """Nodes of a `tree_dicts` tree that passed the grower's stopping rules."""
    n0, n1 = tree["counts"]
    here = depth < cfg.max_depth and n0 > 0 and n1 > 0 and n0 + n1 >= 2 * cfg.min_samples_leaf
    if "left" not in tree:
        return int(here)
    return 1 + searched_nodes(tree["left"], cfg, depth + 1) + searched_nodes(
        tree["right"], cfg, depth + 1
    )


class TestLockstepGrower:
    """Trees grown in lockstep equal the recursive grower's, node for node."""

    def test_cart_matches_recursion(self, monkeypatch):
        for x, y, leaf, depth, _ in fuzz_fit_cases(21, 400):
            cfg = CartConfig(max_depth=depth, min_samples_leaf=leaf)
            want = reference_grow(x, np.asarray(y, dtype=np.int8), 0, cfg, None, None)
            for path in on_each_grower(monkeypatch):
                assert tree_dicts(train_cart(x, y, cfg)) == [want], path

    def test_forest_matches_recursion(self, monkeypatch):
        for x, y, leaf, depth, rng in fuzz_fit_cases(22, 150):
            cfg = ForestConfig(
                n_trees=int(rng.integers(1, 7)),
                bootstrap=bool(rng.integers(0, 2)),
                max_features=int(rng.integers(1, x.shape[1] + 1)),
                max_depth=depth,
                min_samples_leaf=leaf,
            )
            seed = int(rng.integers(0, 1000))
            want = reference_forest(x, y, cfg, seed)
            for path in on_each_grower(monkeypatch):
                assert tree_dicts(train_forest(x, y, cfg, seed=seed)) == want, path

    def test_rounds_searched_in_several_calls(self, monkeypatch):
        # only the Python grower searches in `best_split` calls
        monkeypatch.setattr(native, "HELPER", None)
        monkeypatch.setattr("nextday.learn.tree._SEARCH_PAIRS", 40)
        for x, y, leaf, depth, rng in fuzz_fit_cases(23, 60):
            cart = CartConfig(max_depth=depth, min_samples_leaf=leaf)
            want = reference_grow(x, np.asarray(y, dtype=np.int8), 0, cart, None, None)
            assert tree_dicts(train_cart(x, y, cart)) == [want]
            forest = ForestConfig(n_trees=5, max_features=1, max_depth=depth, min_samples_leaf=leaf)
            assert tree_dicts(train_forest(x, y, forest, seed=4)) == reference_forest(
                x, y, forest, 4
            )

    def test_empty_fit_rejected(self):
        empty = np.empty((0, 3))
        with pytest.raises(ValueError, match="empty"):
            train_cart(empty, [])
        with pytest.raises(ValueError, match="empty"):
            train_forest(empty, [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        x = np.arange(12.0).reshape(6, 2)
        x[4, 1] = bad
        y = [0, 1, 0, 1, 0, 1]
        with pytest.raises(ValueError, match="finite"):
            train_cart(x, y)
        with pytest.raises(ValueError, match="finite"):
            train_forest(x, y, ForestConfig(n_trees=2))

    def test_golden_run_searches_2010_nodes(self, golden_datasets, monkeypatch):
        # the traced golden run's fits: 6 schemes x 5 folds, 25 trees, CART
        import nextday.learn.cv as cv

        fitted = []
        for name in ("train_forest", "train_cart"):
            fit = getattr(cv, name)
            monkeypatch.setattr(
                cv, name, lambda *args, fit=fit: fitted.append(fit(*args)) or fitted[-1]
            )
        cfgs = {"random_forest": ForestConfig(n_trees=25), "cart": CartConfig()}
        plans = fold_plans(golden_datasets[0].y, 5, cfgs, 2016)
        for data in golden_datasets:
            kfold_cv(data, cfgs, plans)
        assert len(fitted) == 60
        searched = 0
        for model in fitted:
            searched += sum(searched_nodes(tree, model.config) for tree in tree_dicts(model))
        assert searched == 2_010

    def test_golden_run_takes_220_rounds_in_python(self, golden_datasets, monkeypatch):
        # the traced golden run's fits, grown in Python: one `best_split`
        # call per lockstep round
        monkeypatch.setattr(native, "HELPER", None)
        rounds = []

        def counting(*args):
            rounds.append(len(args[3]) - 1)
            return best_split(*args)

        monkeypatch.setattr("nextday.learn.tree.best_split", counting)
        cfgs = {"random_forest": ForestConfig(n_trees=25), "cart": CartConfig()}
        plans = fold_plans(golden_datasets[0].y, 5, cfgs, 2016)
        for data in golden_datasets:
            kfold_cv(data, cfgs, plans)
        assert len(rounds) == 220
        assert sum(rounds) == 2_010

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    @pytest.mark.parametrize(
        "index, value, dtype",
        [((0, 3), -3, np.int32), ((1, 0), -10, np.int64), ((0, 9), 10, np.int32), (None, None, float)],
        ids=["minus-3", "minus-10", "n", "float"],
    )
    def test_bad_bootstrap_rows_rejected(self, monkeypatch, compiled, index, value, dtype):
        if not compiled:
            monkeypatch.setattr(native, "HELPER", None)
        grown = []
        monkeypatch.setattr(
            "nextday.learn.tree._grow_trees", lambda *args: grown.append(args)
        )
        x = np.arange(20.0).reshape(10, 2)
        y = np.array([0, 1] * 5)
        cfg = ForestConfig(n_trees=2)
        rows, used = tree_draws(10, cfg, 0)
        rows = rows.astype(dtype)
        if index is not None:
            rows[index] = value
        with pytest.raises(ValueError, match=r"^bootstrap rows must be integer rows in range\(10\)$"):
            train_forest(x, y, cfg, draws=(rows, used))
        assert grown == []


# (BELOW_ONE + 1.0) / 2.0 rounds onto 1.0, so a split between them sends
# every row left and leaves the node a leaf
BELOW_ONE = float(np.nextafter(1.0, 0.0))
GROWER_VALUES = [-0.0, 0.0, BELOW_ONE, 1.0, 2.5, -3.0]


@st.composite
def grower_cases(draw):
    """A fit for both growers: tied, signed-zero and adjacent values, some
    constant columns, sometimes one class, any min_samples_leaf up to n,
    depths from 0, widths up to d + 1, and word blocks of 1 or 64."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 5))
    cell = st.sampled_from(GROWER_VALUES) | st.floats(-4.0, 4.0, allow_subnormal=False)
    x = np.array(draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n)))
    for col, constant in enumerate(draw(st.lists(st.booleans(), min_size=d, max_size=d))):
        if constant:
            x[:, col] = x[0, col]
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        y[:] = y[0]
    depth = draw(st.integers(0, 6))
    leaf = draw(st.integers(1, n))
    forest = ForestConfig(
        n_trees=draw(st.integers(1, 4)),
        bootstrap=draw(st.booleans()),
        max_features=draw(st.integers(1, d + 1)),
        max_depth=depth,
        min_samples_leaf=leaf,
    )
    cart = CartConfig(max_depth=depth, min_samples_leaf=leaf)
    return x, y, forest, cart, draw(st.integers(0, 999)), draw(st.sampled_from([1, 64]))


def node_arrays(model: TreeModel) -> list[np.ndarray]:
    return [model.feature, model.threshold, model.left, model.right, model.counts]


def tree_depth(model: TreeModel) -> int:
    """The depth of the deepest leaf of any tree of `model`."""
    level, depth = list(range(model.n_trees)), 0
    while True:
        level = [child for node in level if model.left[node] >= 0
                 for child in (model.left[node], model.right[node])]
        if not level:
            return depth
        depth += 1


def assert_same_nodes(compiled: TreeModel, python: TreeModel) -> None:
    assert compiled.n_trees == python.n_trees
    for a, b in zip(node_arrays(compiled), node_arrays(python)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()  # signed zeros too


class TestCompiledGrower:
    """The compiled grower writes the Python lockstep grower's node arrays."""

    @settings(max_examples=300, deadline=None)
    @given(grower_cases())
    def test_node_arrays_match_python(self, case):
        x, y, forest, cart, seed, block = case
        helper, first_block = native.HELPER, grow._FIRST_BLOCK
        fits = []
        try:
            grow._FIRST_BLOCK = block
            for path in (helper, None):
                native.HELPER = path
                fits.append((train_forest(x, y, forest, seed=seed), train_cart(x, y, cart)))
        finally:
            native.HELPER, grow._FIRST_BLOCK = helper, first_block
        for compiled, python in zip(*fits):
            assert_same_nodes(compiled, python)

    def test_deep_chain_matches_python(self, monkeypatch):
        # alternating labels on 0..99 (twice, for the forest's column
        # draws): every split cuts off an end row, so each tree is a chain
        # 99 levels deep
        x = np.column_stack([np.arange(100.0), np.arange(100.0)])
        y = np.arange(100) % 2
        cart = CartConfig(max_depth=100, min_samples_leaf=1)
        forest = ForestConfig(
            n_trees=2, bootstrap=False, max_features=1, max_depth=1000, min_samples_leaf=1
        )
        fits = []
        for path in (native.HELPER, None):
            monkeypatch.setattr(native, "HELPER", path)
            fits.append((train_cart(x, y, cart), train_forest(x, y, forest, seed=1)))
        for compiled, python in zip(*fits):
            assert_same_nodes(compiled, python)
        assert [tree_depth(model) for model in fits[0]] == [99, 99]

    def test_words_of_a_block_of_one_are_redrawn(self, monkeypatch):
        # every column-sampling tree runs out at once and takes the same words
        x = np.round(np.random.default_rng(6).normal(size=(90, 9)), 1)
        y = (x[:, 0] + x[:, 5] > 0).astype(int)
        cfg = ForestConfig(n_trees=7, max_features=3)
        want = tree_dicts(train_forest(x, y, cfg, seed=3))
        monkeypatch.setattr(grow, "_FIRST_BLOCK", 1)
        assert tree_dicts(train_forest(x, y, cfg, seed=3)) == want
        assert want == reference_forest(x, y, cfg, 3)

    def test_set_branch_of_sample(self):
        # 30 columns and a width of 2 take `Random.sample`'s set branch
        x = np.round(np.random.default_rng(8).normal(size=(60, 30)), 1)
        y = (x[:, 4] - x[:, 17] > 0).astype(int)
        cfg = ForestConfig(n_trees=4, max_features=2)
        assert tree_dicts(train_forest(x, y, cfg, seed=5)) == reference_forest(x, y, cfg, 5)

    def test_best_split_not_called(self, monkeypatch):
        def fail(*args):
            raise AssertionError("best_split called")

        monkeypatch.setattr("nextday.learn.tree.best_split", fail)
        train_forest(EIGHT_X, EIGHT_Y, ForestConfig(n_trees=3, max_features=1))
        train_cart(EIGHT_X, EIGHT_Y)


# Loads the helper built with sanitizers from argv[1] and checks each entry
# point against its Python oracle on short cases; the caller preloads ASan.
SANITIZED_PROBE = """
import sys
from pathlib import Path
import numpy as np
from nextday.config import CartConfig, ForestConfig, SvmConfig
from nextday.learn import grow, native, svm, tree

native._BUILD = [*native._BUILD, *sys.argv[2:]]
helper, record = native.load_helper(Path(sys.argv[1]))
assert record == {"path": "compiled"}, record
svm._shuffle_words = lambda n, epochs: 7  # some shuffles run out and draw again
grow._FIRST_BLOCK = 1  # every sampling tree runs out and is grown again
rng = np.random.default_rng(0)
for case in range(40):
    n, d = int(rng.integers(1, 40)), int(rng.integers(1, 12))
    x = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
    y = rng.integers(0, 2, size=n)
    forest = ForestConfig(n_trees=3, bootstrap=bool(case % 2), min_samples_leaf=1 + case % 3)
    fits = []
    for path in (helper, None):
        native.HELPER = path
        fits.append((
            svm.epoch_orders(n, 3, case).tobytes(),
            svm.train_svm(x, y, SvmConfig(epochs=3), seed=case).weights.tobytes(),
            [a.tobytes() for a in tree.train_forest(x, y, forest, seed=case).__dict__.values()
             if isinstance(a, np.ndarray)],
            [a.tobytes() for a in tree.train_cart(x, y, CartConfig()).__dict__.values()
             if isinstance(a, np.ndarray)],
        ))
    assert fits[0] == fits[1], case
print("ok")
"""

SANITIZE = ["-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]


def test_helper_runs_clean_under_sanitizers(monkeypatch, tmp_path):
    """Every entry point of `_epoch.c`, built with ASan and UBSan, matches
    its Python oracle on short cases without a sanitizer report."""
    runtime = subprocess.run(
        ["cc", "-print-file-name=libasan.so"], capture_output=True, text=True, timeout=60
    ).stdout.strip()
    if not runtime.startswith("/"):
        pytest.skip("the compiler ships no ASan runtime")
    monkeypatch.setattr(native, "_BUILD", [*native._BUILD, *SANITIZE])
    native._library(tmp_path)
    env = child_env()
    env.update(LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0")
    result = subprocess.run(
        [sys.executable, "-c", SANITIZED_PROBE, str(tmp_path), *SANITIZE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-3000:]
    assert result.stdout == "ok\n"
    assert "Sanitizer" not in result.stderr and "runtime error" not in result.stderr
