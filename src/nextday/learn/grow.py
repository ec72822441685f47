"""The Python side of the compiled tree grower, `grow_trees` in `_epoch.c`.

`nextday.learn.tree` calls it when the helper has loaded. The helper
grows the trees one after another, each depth first and left child
first, and writes `tree._grow_python`'s node arrays and `roots`. A
column-sampling tree draws its node columns in C from a copy of its
generator state (`tree.tree_draws`), so a fit seeds no generator. It is
a module of its own because CPython's compiler needs memory in
proportion to the module it compiles: a process that imports the package without a
bytecode cache compiled one larger `tree.py` at a higher peak RSS.
"""

from __future__ import annotations

import math

import numpy as np

from nextday.config import CartConfig, ForestConfig
from nextday.learn import native


def grow_compiled(
    helper: native.Helper,
    x: np.ndarray,
    y: np.ndarray,
    codes: np.ndarray,
    values: np.ndarray,
    cfg: CartConfig | ForestConfig,
    samples: np.ndarray,
    states: np.ndarray | None,
    width: int,
) -> dict:
    """`tree._grow_python`'s trees from the helper's `grow_trees`; `codes`
    and `values` are `tree.rank_columns(x, y)`, and `states` is None or a
    C-contiguous (trees, 625) uint32 array of each tree's generator, which
    the helper copies and leaves as it was."""
    n, d = x.shape
    samples = np.ascontiguousarray(samples, dtype=np.int32)
    trees, m = samples.shape
    # no tree is deeper than m - 1, and none has more than 2m - 1 nodes
    max_depth = min(cfg.max_depth, m)
    per_tree = min(2 * m - 1, (1 << (max_depth + 1)) - 1)
    sampling = width < d and states is not None
    # `Random.sample`'s choice between its pool and its set branch
    setsize = 21
    if width > 5:
        setsize += 4 ** math.ceil(math.log(width * 3, 4))
    roots = np.empty(trees, dtype=np.int32)
    capacity = trees * per_tree  # only the pages written become resident
    feature = np.empty(capacity, dtype=np.int32)
    threshold = np.empty(capacity)
    left = np.empty(capacity, dtype=np.int32)
    counts = np.empty((capacity, 2), dtype=np.int32)
    labels = np.ascontiguousarray(y, dtype=np.uint8)
    total = helper.lib.grow_trees(
        n, d, codes.ctypes.data, labels.ctypes.data, values.ctypes.data, values.shape[1],
        x.ctypes.data, trees, m, samples.ctypes.data,
        states.ctypes.data if sampling else None, d > setsize, width,
        min(max(cfg.min_samples_leaf, 1), m + 1), max_depth, per_tree, roots.ctypes.data,
        feature.ctypes.data, threshold.ctypes.data, left.ctypes.data, counts.ctypes.data,
    )
    if total < 0:
        raise MemoryError("cannot grow the trees")
    left_child = left[:total].copy()
    return {
        "roots": roots,
        "feature": feature[:total].copy(),
        "threshold": threshold[:total].copy(),
        "left": left_child,
        "right": np.where(left_child < 0, left_child, left_child + 1),
        "counts": counts[:total].copy(),
    }
