"""The Python side of the compiled tree grower, `grow_trees` in `_epoch.c`.

`nextday.learn.tree` calls it when the helper has loaded. It is a module
of its own because CPython's compiler needs memory in proportion to the
module it compiles: a process that imports the package without a
bytecode cache compiled one larger `tree.py` at a higher peak RSS.
"""

from __future__ import annotations

import math
import random

import numpy as np

from nextday.config import CartConfig, ForestConfig
from nextday.learn import native


def _column_words(rngs: list[random.Random], block: int) -> np.ndarray:
    """The next `block` 32-bit words of each generator, one row each: the
    little-endian limbs of one `getrandbits` call, in draw order."""
    raw = b"".join(rng.getrandbits(32 * block).to_bytes(4 * block, "little") for rng in rngs)
    return np.frombuffer(raw, dtype="<u4").astype(np.uint32, copy=False).reshape(len(rngs), block)


# Words drawn at first for each column-sampling tree: enough for most
# trees of a small fit. A tree that runs out is grown again with its block,
# and every later tree's, extended by the streams' next words.
_FIRST_BLOCK = 64


def grow_compiled(
    helper: native.Helper,
    x: np.ndarray,
    y: np.ndarray,
    codes: np.ndarray,
    values: np.ndarray,
    cfg: CartConfig | ForestConfig,
    samples: np.ndarray,
    rngs: list[random.Random | None],
    width: int,
) -> dict:
    """`tree._grow_lockstep`'s trees from the helper's `grow_trees`; `codes`
    and `values` are `tree.rank_columns(x, y)`. Each column-sampling
    tree's `rng.sample` draws are replayed there from a block of its
    generator's next words. The words a tree reads do not depend on the
    block size, so neither does the tree."""
    n, d = x.shape
    samples = np.ascontiguousarray(samples, dtype=np.int32)
    trees, m = samples.shape
    # no tree is deeper than m - 1, and none has more than 2m - 1 nodes
    max_depth = min(cfg.max_depth, m)
    per_tree = min(2 * m - 1, (1 << (max_depth + 1)) - 1)
    sampling = width < d and None not in rngs
    block = _FIRST_BLOCK if sampling else 0
    words = _column_words(rngs, block) if sampling else np.zeros((trees, 0), dtype=np.uint32)
    # `Random.sample`'s choice between its pool and its set branch
    setsize = 21
    if width > 5:
        setsize += 4 ** math.ceil(math.log(width * 3, 4))
    progress = np.zeros(3, dtype=np.int64)
    splits = np.zeros(trees, dtype=np.int64)
    capacity = trees * per_tree  # only the pages written become resident
    rounds = np.empty(capacity // 2 + 1, dtype=np.int32)
    feature = np.empty(capacity, dtype=np.int32)
    threshold = np.empty(capacity)
    left = np.empty(capacity, dtype=np.int32)
    counts = np.empty((capacity, 2), dtype=np.int32)
    labels = np.ascontiguousarray(y, dtype=np.uint8)
    while True:
        total = helper.lib.grow_trees(
            n, d, codes.ctypes.data, labels.ctypes.data, values.ctypes.data, values.shape[1],
            x.ctypes.data, trees, m, samples.ctypes.data,
            words.ctypes.data if sampling else None, block, d > setsize, width,
            min(max(cfg.min_samples_leaf, 1), m + 1), max_depth, per_tree,
            progress.ctypes.data, splits.ctypes.data, rounds.ctypes.data,
            feature.ctypes.data, threshold.ctypes.data, left.ctypes.data, counts.ctypes.data,
        )
        if total >= 0:
            break
        if total != -1:
            raise MemoryError("cannot grow the trees")
        # tree progress[0]'s words ran out: extend its block and every later one
        more = np.zeros((trees, block), dtype=np.uint32)
        more[progress[0]:] = _column_words(rngs[progress[0]:], block)
        words = np.hstack([words, more])
        block *= 2
    left_child = left[:total].copy()
    return {
        "n_trees": trees,
        "feature": feature[:total].copy(),
        "threshold": threshold[:total].copy(),
        "left": left_child,
        "right": np.where(left_child < 0, left_child, left_child + 1),
        "counts": counts[:total].copy(),
    }
