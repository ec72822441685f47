"""Linear SVM trained by deterministic primal sub-gradient descent.

The epoch shuffles and the whole step loop of a fit run in `_epoch.c`
when it can be built: importing this module compiles it with `cc` into
`__pycache__/` on first use and loads it with ctypes. The dot product
there is the `cblas_ddot` that `ndarray.dot` itself calls, so a fit gives
the same bits on either path. When the library cannot be built or
loaded, one warning says why and the Python loops below run instead;
they are also the compiled path's test oracles.
"""

from __future__ import annotations

import ctypes
import logging
import os
import random
import shutil
import sysconfig
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nextday.config import SvmConfig
from nextday.learn.tree import as_labels

log = logging.getLogger(__name__)


@dataclass
class SvmModel:
    config: SvmConfig
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    scale: np.ndarray

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
    """
    return _orders(_HELPER, n, epochs, seed)


def _shuffle_words(n: int, epochs: int) -> int:
    """Words drawn up front for `epochs` shuffles of n rows: a shuffle takes
    fewer than 2 per row on average, so running out is rare."""
    return 2 * n * epochs + 64


def _orders(helper: _Helper | None, n: int, epochs: int, seed: int) -> np.ndarray:
    orders = np.empty((epochs, n), dtype=np.int32)
    if helper is None:
        rng = random.Random(f"svm:{seed}")
        for epoch in range(epochs):
            order = list(range(n))
            rng.shuffle(order)
            orders[epoch] = order
        return orders
    # the shuffles' words are the little-endian 32-bit limbs of one bulk
    # draw, in draw order; if they run out, draw again from the same seed
    words = _shuffle_words(n, epochs)
    while True:
        raw = random.Random(f"svm:{seed}").getrandbits(32 * words).to_bytes(4 * words, "little")
        drawn = np.frombuffer(raw, dtype="<u4").astype(np.uint32, copy=False)
        if helper.lib.shuffle_orders(drawn.ctypes.data, words, orders.ctypes.data, n, epochs) >= 0:
            return orders
        words *= 2


def train_svm(x, y, cfg: SvmConfig | None = None, seed: int = 0, orders=None) -> SvmModel:
    """Hinge-loss sub-gradient descent with a 1/(lambda*t) step schedule.

    Features are standardized from the training data itself (zero
    variance columns are left at zero rather than divided). Labels map
    {0 -> -1, 1 -> +1}; the bias is not regularized.

    The fitted parameters are the running average of the iterates: the
    raw iterate oscillates around the optimum by construction of the
    step schedule, while the averaged one settles, so its objective
    decreases cleanly once past the early noisy epochs.

    `orders` is `epoch_orders(n, cfg.epochs, seed)`, built here when not
    given; any integer (epochs, n) array of rows in range(n) is accepted.
    """
    cfg = cfg or SvmConfig()
    matrix = np.asarray(x, dtype=np.float64)
    n, d = matrix.shape
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    labels = as_labels(y)
    if labels.shape != (n,):
        raise ValueError(f"labels {labels.shape} do not fit {n} rows")
    if not np.isfinite(matrix).all():
        raise ValueError("feature values must be finite")
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
    if flat.any():
        log.warning("zero-variance features standardized to zero: %s", np.nonzero(flat)[0].tolist())
    scale = np.where(flat, 1.0, std)
    standardized = np.ascontiguousarray((matrix - mean) / scale)
    lam = 1.0 / (cfg.c * n)
    orders = np.ascontiguousarray(orders, dtype=np.int32)
    if cfg.epochs:
        scaled_sum, harmonic_sums, bias, harmonic = _descend(_HELPER, standardized, signs, orders, lam)
        folded = (signs * harmonic_sums) @ standardized
        weights = (harmonic * scaled_sum - folded) / (lam * (cfg.epochs * n))
    else:
        weights, bias = np.zeros(d), 0.0
    return SvmModel(config=cfg, weights=weights, bias=bias, mean=mean, scale=scale)


def _descend(helper: _Helper | None, standardized, signs, orders, lam: float):
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


# The compiled epoch helper: building, caching and loading it.

_SOURCE = Path(__file__).with_name("_epoch.c")
_BUILD = ["cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC"]
_BUILD_TIMEOUT_S = 120
_DDOT = "scipy_cblas_ddot64_"  # numpy's bundled OpenBLAS, 64-bit ints


class _Unavailable(Exception):
    """Why the compiled epoch helper cannot be used."""


@dataclass(frozen=True)
class _Helper:
    lib: ctypes.CDLL
    ddot: int  # the address of numpy's ddot


def _library(build_dir: Path) -> Path:
    """The cached library of this source, build command and platform in
    `build_dir`, built first if it is missing or fails its checksum.

    The file is the library's bytes followed by their CRC-32, so a cut or
    damaged copy is rebuilt rather than mapped. A build writes a temporary
    file and renames it into place, so concurrent builds are safe. (CRC-32
    rather than hashlib's sha256: hashlib would load OpenSSL into every
    `evaluate` process, some 3.5 MB of resident memory.)
    """
    key = _SOURCE.read_bytes() + "\0".join([*_BUILD, sysconfig.get_platform()]).encode()
    path = build_dir / f"_epoch-{zlib.crc32(key):08x}.so"
    try:
        data = path.read_bytes()
        if len(data) > 4 and data[-4:] == zlib.crc32(data[:-4]).to_bytes(4, "little"):
            return path
    except OSError:
        pass
    compiler = shutil.which(_BUILD[0])
    if compiler is None:
        raise _Unavailable(f"no C compiler {_BUILD[0]!r} on PATH")
    try:
        build_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{path.stem}-", suffix=".tmp", dir=build_dir)
        os.close(fd)
    except OSError as exc:
        raise _Unavailable(f"cannot write {build_dir}: {exc}") from None
    import subprocess  # only a build needs it

    try:
        try:
            subprocess.run(
                [compiler, *_BUILD[1:], "-o", tmp, str(_SOURCE)],
                check=True, capture_output=True, timeout=_BUILD_TIMEOUT_S,
            )
        except subprocess.CalledProcessError as exc:
            detail = exc.stderr.decode(errors="replace").strip().splitlines()
            raise _Unavailable(f"build failed: {detail[-1] if detail else exc}") from None
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise _Unavailable(f"build failed: {exc}") from None
        data = Path(tmp).read_bytes()
        Path(tmp).write_bytes(data + zlib.crc32(data).to_bytes(4, "little"))
        os.replace(tmp, path)
    except OSError as exc:
        raise _Unavailable(f"cannot write {path}: {exc}") from None
    finally:
        Path(tmp).unlink(missing_ok=True)
    # the libraries of earlier sources or build commands are never loaded
    # again; another build's temporary file is left to that build
    for stale in build_dir.glob("_epoch-*.so"):
        if stale != path:
            try:
                stale.unlink()
            except OSError:
                pass
    return path


def _numpy_ddot() -> int:
    """The address of the `cblas_ddot` that numpy's `DOUBLE_dot` calls,
    looked up from numpy's core extension and the libraries it links."""
    try:
        from numpy._core import _multiarray_umath

        function = getattr(ctypes.CDLL(_multiarray_umath.__file__), _DDOT)
    except (ImportError, OSError, AttributeError):
        raise _Unavailable(f"numpy's BLAS has no {_DDOT}") from None
    return ctypes.cast(function, ctypes.c_void_p).value


def load_helper(build_dir: Path) -> tuple[_Helper | None, dict]:
    """The compiled helper from `build_dir`, or None after one warning;
    and a record of the path the epochs take, for run metadata."""
    try:
        try:
            lib = ctypes.CDLL(str(_library(build_dir)))
        except OSError as exc:
            raise _Unavailable(f"cannot load the library: {exc}") from None
        pointer, count = ctypes.c_void_p, ctypes.c_int64
        lib.shuffle_orders.restype = count
        lib.shuffle_orders.argtypes = [pointer, count, pointer, count, count]
        lib.svm_fit.restype = None
        lib.svm_fit.argtypes = [
            pointer, count, count, pointer, pointer, pointer, pointer,
            count, ctypes.c_double, pointer, pointer, pointer,
        ]
        helper = _Helper(lib, _numpy_ddot())
    except _Unavailable as exc:
        log.warning("SVM epochs run in Python: %s", exc)
        return None, {"path": "python", "reason": str(exc)}
    return helper, {"path": "compiled"}


_HELPER, EPOCH_PATH = load_helper(Path(__file__).parent / "__pycache__")
