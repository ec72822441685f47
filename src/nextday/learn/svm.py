"""Linear SVM trained by deterministic primal sub-gradient descent.

The epoch shuffles and the whole step loop of a fit run in the compiled
helper (`nextday.learn.native`) when it has loaded. The dot product
there is the `cblas_ddot` that `ndarray.dot` itself calls, so a fit gives
the same bits on either path. Without the helper the Python loops below
run instead; they are also the compiled path's test oracles.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from nextday.config import SvmConfig
from nextday.learn import native
from nextday.learn.tree import _training_data


class SvmModel(NamedTuple):
    config: SvmConfig
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    scale: np.ndarray
    # the training columns of zero variance, which standardize to zero
    zero_variance: tuple[int, ...]

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.scale

    def decision(self, x) -> np.ndarray:
        matrix = np.asarray(x, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix[np.newaxis, :]
        return self._standardize(matrix) @ self.weights + self.bias

    def predict(self, x) -> np.ndarray:
        return (self.decision(x) > 0.0).astype(np.int8)


def epoch_orders(n: int, epochs: int, seed: int) -> np.ndarray:
    """The row visiting order of every epoch, as an (epochs, n) int32 array.

    Epoch e's order is `random.Random(f"svm:{seed}")`'s e-th shuffle of
    range(n). The orders depend only on (n, epochs, seed), so fits of
    several feature matrices with the same labels and fold can share them.
    The compiled helper seeds that generator and shuffles in C; without
    it, `random.Random` shuffles.
    """
    orders = np.empty((epochs, n), dtype=np.int32)
    helper = native.HELPER
    if helper is None:
        rng = random.Random(f"svm:{seed}")
        for epoch in range(epochs):
            order = list(range(n))
            rng.shuffle(order)
            orders[epoch] = order
        return orders
    state = native.seeded_states(helper, [f"svm:{seed}"])
    helper.lib.shuffle_orders(state.ctypes.data, orders.ctypes.data, n, epochs)
    return orders


def train_svm(x, y, cfg: SvmConfig | None = None, seed: int = 0, orders=None) -> SvmModel:
    """Hinge-loss sub-gradient descent with a 1/(lambda*t) step schedule.

    Features are standardized from the training data itself (zero
    variance columns are left at zero rather than divided; the model
    lists them). Labels map {0 -> -1, 1 -> +1}; the bias is not
    regularized.

    The fitted parameters are the running average of the iterates: the
    raw iterate oscillates around the optimum by construction of the
    step schedule, while the averaged one settles, so its objective
    decreases cleanly once past the early noisy epochs.

    `orders` is `epoch_orders(n, cfg.epochs, seed)`, built here when not
    given; any integer (epochs, n) array of rows in range(n) is accepted.
    """
    cfg = cfg or SvmConfig()
    matrix, labels = _training_data(x, y)
    n, d = matrix.shape
    orders = epoch_orders(n, cfg.epochs, seed) if orders is None else np.asarray(orders)
    if orders.shape != (cfg.epochs, n):
        raise ValueError(f"epoch orders {orders.shape} do not fit {cfg.epochs} epochs of {n} rows")
    # the compiled loop indexes rows by these values
    if orders.dtype.kind not in "iu" or (orders.size and (orders.min() < 0 or orders.max() >= n)):
        raise ValueError(f"epoch orders must be integer rows in range({n})")
    signs = np.where(labels == 1, 1.0, -1.0)

    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    flat = std == 0.0
    scale = np.where(flat, 1.0, std)
    standardized = np.ascontiguousarray((matrix - mean) / scale)
    lam = 1.0 / (cfg.c * n)
    orders = np.ascontiguousarray(orders, dtype=np.int32)
    if cfg.epochs:
        scaled_sum, harmonic_sums, bias, harmonic = _descend(native.HELPER, standardized, signs, orders, lam)
        folded = (signs * harmonic_sums) @ standardized
        weights = (harmonic * scaled_sum - folded) / (lam * (cfg.epochs * n))
    else:
        weights, bias = np.zeros(d), 0.0
    zero_variance = tuple(np.flatnonzero(flat).tolist())
    return SvmModel(cfg, weights, bias, mean, scale, zero_variance)


def _descend(helper: native.Helper | None, standardized, signs, orders, lam: float):
    """The state after all epochs of `orders` over the standardized rows:
    (scaled_sum, harmonic_sums, avg_bias, H). `orders` is a C-contiguous
    int32 (epochs, n) array of rows in range(n): the compiled loop reads
    it, and the matrix, by address.

    Step t visits row x with sign s and updates
    w_t = (1 - 1/t) * w_{t-1} + [s * (x.w_{t-1} + b) < 1] * s * x / (lambda*t),
    so v_t = t * w_t is the plain sum of the increments
    delta_k = s_k * x_k / lambda over the violating steps k <= t. The loop
    keeps lambda * v_t and reads w_{t-1} = v_{t-1} / (t-1) off it, which
    makes a step one dot product plus, on a violation, one vector add.
    The average of w_1..w_T is then, with H the harmonic numbers,

        (1/T) * sum_t v_t / t = (H_T * v_T - sum_k delta_k * H_{k-1}) / T,

    and sum_k delta_k * H_{k-1} is kept as one coefficient per training
    row (the sum of H_{k-1} over that row's violating steps), which
    `train_svm` folds in with one product against the matrix.
    """
    n, d = standardized.shape
    # scaled_sum = lambda * v_T, the sum of sign * row over the violating
    # steps; harmonic_sums[i] is the sum of H_{k-1} over row i's violating steps k
    scaled_sum = np.zeros(d)
    harmonic_sums = np.zeros(n)
    # A row that standardizes to all zeros (every row of an all-constant
    # matrix) adds exactly +0.0 to the dot product, the weight sum and the
    # folded harmonic term, so its step only reads and moves the bias.
    if helper is None:
        rows = [row if row.any() else None for row in standardized]
        sums = [0.0] * n
        avg_bias, harmonic = _python_fit(rows, signs.tolist(), orders, lam, scaled_sum, sums)
        harmonic_sums[:] = sums
    else:
        zero_rows = (~standardized.any(axis=1)).astype(np.uint8)
        last = np.zeros(2)
        helper.lib.svm_fit(
            helper.ddot, n, d, *[a.ctypes.data for a in (standardized, signs, zero_rows, orders)],
            len(orders), lam, *[a.ctypes.data for a in (scaled_sum, harmonic_sums, last)],
        )
        avg_bias, harmonic = last.tolist()
    return scaled_sum, harmonic_sums, avg_bias, harmonic


def _python_fit(rows, row_signs, orders, lam, scaled_sum, harmonic_sums):
    """Every epoch of steps of the compiled `svm_fit`; `rows[i]` is None for
    an all-zero row. eta = 1 / (lambda * step), so w_step = eta * scaled_sum
    (w_0 = 0). Updates scaled_sum and harmonic_sums in place and returns
    the bias's running average and H of the last step."""
    eta = bias = avg_bias = harmonic = 0.0
    step = 0
    for i in orders.ravel().tolist():
        sign = row_signs[i]
        row = rows[i]
        if row is None:
            margin = sign * bias
        else:
            margin = sign * (eta * float(row.dot(scaled_sum)) + bias)
        step += 1
        eta = 1.0 / (lam * step)
        if margin < 1.0:
            bias += eta * sign
            if row is not None:
                if sign > 0.0:
                    scaled_sum += row
                else:
                    scaled_sum -= row
                harmonic_sums[i] += harmonic
        avg_bias += (bias - avg_bias) / step
        harmonic += 1.0 / step
    return avg_bias, harmonic
