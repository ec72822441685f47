"""Split-search kernel with compiled and pure implementations.

Growing the forest spends nearly all of its time scanning sorted feature
columns for the best Gini split, so that scan ships as a Cython extension
with a numpy fallback chosen at import time. Both implementations score
every candidate with the identical float64 operations and break ties the
same way, so the selected split (and therefore every tree) is bit-for-bit
the same.

Set NEXTDAY_PURE_SPLIT=1 to force the pure path even when the extension
is available. `benchmarks/bench_split.py` sets it to time the two
backends against each other and a test checks the override; `perfbench`
never sets it, so it times whichever backend is built.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from nextday.learn import _gini_fast
except ImportError:  # extension not built; the fallback covers everything
    _gini_fast = None

_FORCE_PURE_ENV = "NEXTDAY_PURE_SPLIT"


def compiled_available() -> bool:
    return _gini_fast is not None


def active_backend() -> str:
    if compiled_available() and not os.environ.get(_FORCE_PURE_ENV):
        return "compiled"
    return "pure"


def best_split(
    x: np.ndarray, y: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Best (column, threshold, score) over all columns of `x`, or None.

    Candidate thresholds are midpoints between consecutive distinct
    sorted values leaving at least `min_leaf` samples on each side. The
    score is the split quality sum((l0^2+l1^2)/l, (r0^2+r1^2)/r), which
    orders splits exactly like Gini impurity decrease; exact ties keep
    the earliest candidate (lower column, then lower threshold).
    """
    if active_backend() == "compiled":
        return _gini_fast.best_split(x, y, min_leaf)
    return best_split_py(x, y, min_leaf)


def best_split_py(
    x: np.ndarray, y: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Numpy implementation of `best_split`: one sorted pass over all columns.

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
