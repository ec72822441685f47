"""Linear SVM trained by deterministic primal sub-gradient descent."""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

import numpy as np

from nextday.config import SvmConfig

log = logging.getLogger(__name__)


@dataclass
class SvmModel:
    config: SvmConfig
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    scale: np.ndarray
    feature_names: tuple[str, ...] = ()
    objective_history: tuple[float, ...] = ()

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.scale

    def decision(self, x) -> np.ndarray:
        matrix = np.asarray(x, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix[np.newaxis, :]
        return self._standardize(matrix) @ self.weights + self.bias

    def predict(self, x) -> np.ndarray:
        return (self.decision(x) > 0.0).astype(np.int8)


def hinge_objective(weights: np.ndarray, bias: float, x: np.ndarray, signs: np.ndarray, c: float) -> float:
    """0.5*||w||^2 + C * sum of hinge losses on (x, signs)."""
    margins = signs * (x @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * float(weights @ weights) + c * float(hinge.sum())


def epoch_orders(n: int, epochs: int, seed: int) -> np.ndarray:
    """The row visiting order of every epoch, as an (epochs, n) int32 array.

    Epoch e's order is `random.Random(f"svm:{seed}")`'s e-th shuffle of
    range(n). The orders depend only on (n, epochs, seed), so fits of
    several feature matrices with the same labels and fold can share them.
    """
    rng = random.Random(f"svm:{seed}")
    orders = np.empty((epochs, n), dtype=np.int32)
    for epoch in range(epochs):
        order = list(range(n))
        rng.shuffle(order)
        orders[epoch] = order
    return orders


def train_svm(
    x, y, cfg: SvmConfig | None = None, feature_names=(), seed: int = 0, orders=None
) -> SvmModel:
    """Hinge-loss sub-gradient descent with a 1/(lambda*t) step schedule.

    Features are standardized from the training data itself (zero
    variance columns are left at zero rather than divided). Labels map
    {0 -> -1, 1 -> +1}; the bias is not regularized.

    The fitted parameters are the running average of the iterates: the
    raw iterate oscillates around the optimum by construction of the
    step schedule, while the averaged one settles, so its objective
    (recorded per epoch on the model) decreases cleanly once past the
    early noisy epochs.

    Step t visits row x with sign s and updates
    w_t = (1 - 1/t) * w_{t-1} + [s * (x.w_{t-1} + b) < 1] * s * x / (lambda*t),
    so v_t = t * w_t is the plain sum of the increments
    delta_k = s_k * x_k / lambda over the violating steps k <= t. The loop
    keeps lambda * v_t and reads w_{t-1} = v_{t-1} / (t-1) off it, which
    makes a step one dot product plus, on a violation, one vector add.
    The average of w_1..w_T is then, with H the harmonic numbers,

        (1/T) * sum_t v_t / t = (H_T * v_T - sum_k delta_k * H_{k-1}) / T,

    and sum_k delta_k * H_{k-1} is kept as one coefficient per training
    row (the sum of H_{k-1} over that row's violating steps) and folded
    in with one product against the matrix per epoch.

    `orders` is `epoch_orders(n, cfg.epochs, seed)`, built here when not
    given.
    """
    cfg = cfg or SvmConfig()
    matrix = np.asarray(x, dtype=np.float64)
    labels = np.asarray(y)
    n, d = matrix.shape
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if orders is None:
        orders = epoch_orders(n, cfg.epochs, seed)
    if orders.shape != (cfg.epochs, n):
        raise ValueError(f"epoch orders {orders.shape} do not fit {cfg.epochs} epochs of {n} rows")
    signs = np.where(labels == 1, 1.0, -1.0)

    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    flat = std == 0.0
    if flat.any():
        log.warning("zero-variance features standardized to zero: %s", np.nonzero(flat)[0].tolist())
    scale = np.where(flat, 1.0, std)
    standardized = (matrix - mean) / scale

    lam = 1.0 / (cfg.c * n)
    # a row that standardizes to all zeros (every row of an all-constant
    # matrix) adds exactly +0.0 to the dot product, the weight sum and the
    # folded harmonic term, so its step only reads and moves the bias
    rows = [row if row.any() else None for row in standardized]
    row_signs = signs.tolist()
    # scaled_sum = lambda * v_step, the sum of sign * row over the violating
    # steps; harmonic_sums[i] is the sum of H_{k-1} over row i's violating steps k
    scaled_sum = np.zeros(d)
    harmonic_sums = [0.0] * n
    harmonic = 0.0  # H_step
    eta = 0.0  # 1 / (lambda * step), so w_step = eta * scaled_sum (w_0 = 0)
    bias = 0.0
    avg_weights = np.zeros(d)
    avg_bias = 0.0
    history = []
    step = 0
    for order in orders:
        for i in order.tolist():
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
        folded = (signs * np.asarray(harmonic_sums)) @ standardized
        avg_weights = (harmonic * scaled_sum - folded) / (lam * step)
        history.append(hinge_objective(avg_weights, avg_bias, standardized, signs, cfg.c))

    return SvmModel(
        config=cfg,
        weights=avg_weights,
        bias=avg_bias,
        mean=mean,
        scale=scale,
        feature_names=tuple(feature_names),
        objective_history=tuple(history),
    )
