"""The compiled helper `_epoch.c`: building, caching and loading it, and
keying its random generator.

It runs the SVM's epoch shuffles and step loop (`nextday.learn.svm`) and
grows the trees of a CART or forest fit (`nextday.learn.tree`), one after
another and each depth first, into the node arrays and `roots` that the
Python grower writes. It also owns their random draws: it holds CPython's
Mersenne Twister, seeded as `random.Random(seed)` seeds it for a `str`
seed (`seeded_states`), and draws every shuffle, bootstrap row and node
column sample from it, so no `random.Random` is built on the compiled
path. Importing this module compiles the helper with `cc` into
`__pycache__/` on first use and loads it with ctypes. When the library
cannot be built or loaded, one `compiled_helper_unavailable` event says
why and both trainers run their Python code instead, on `random.Random`;
it gives the same bits and serves as the compiled code's test oracle.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import sysconfig
import tempfile
import zlib
from pathlib import Path
# random's own SHA-512: hashlib would load OpenSSL into every `evaluate`
# process, some 3.5 MB of resident memory
from random import _sha512
from typing import NamedTuple

import numpy as np

from nextday.corpus import emit_event

_SOURCE = Path(__file__).with_name("_epoch.c")
_BUILD = ["cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC"]
_BUILD_TIMEOUT_S = 120
_DDOT = "scipy_cblas_ddot64_"  # numpy's bundled OpenBLAS, 64-bit ints
# A generator's state: 624 Mersenne Twister words and the index of the
# next one, as in the second item of `random.Random.getstate()`.
STATE_WORDS = 625


class _Unavailable(Exception):
    """Why the compiled helper cannot be used."""


class Helper(NamedTuple):
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


def load_helper(build_dir: Path) -> tuple[Helper | None, dict]:
    """The compiled helper from `build_dir`, or None after one
    `compiled_helper_unavailable` event on stderr; and a record of the
    path the SVM epochs and tree growth take, for run metadata."""
    try:
        try:
            lib = ctypes.CDLL(str(_library(build_dir)))
        except OSError as exc:
            raise _Unavailable(f"cannot load the library: {exc}") from None
        pointer, count = ctypes.c_void_p, ctypes.c_int64
        lib.seed_states.restype = None
        lib.seed_states.argtypes = [pointer, pointer, count, pointer]
        lib.bootstrap_rows.restype = None
        lib.bootstrap_rows.argtypes = [pointer, count, count, pointer]
        lib.shuffle_orders.restype = None
        lib.shuffle_orders.argtypes = [pointer, pointer, count, count]
        lib.svm_fit.restype = None
        lib.svm_fit.argtypes = [
            pointer, count, count, pointer, pointer, pointer, pointer,
            count, ctypes.c_double, pointer, pointer, pointer,
        ]
        lib.grow_trees.restype = count
        lib.grow_trees.argtypes = [
            count, count, pointer, pointer, pointer, count, pointer, count, count, pointer,
            pointer, count, count, count, count, count, *[pointer] * 5,
        ]
        helper = Helper(lib, _numpy_ddot())
    except _Unavailable as exc:
        emit_event({"kind": "compiled_helper_unavailable", "reason": str(exc)})
        return None, {"path": "python", "reason": str(exc)}
    return helper, {"path": "compiled"}


def seed_key(seed: str) -> bytes:
    """The key `random.Random(seed)` hands to `init_by_array`, as
    little-endian 32-bit words.

    Version 2 seeding turns a `str` into the big-endian integer of its
    UTF-8 bytes followed by their SHA-512; CPython then cuts the integer
    into 32-bit words from the least significant end and drops the
    leading zero words (keeping at least one).
    """
    data = seed.encode()
    value = int.from_bytes(data + _sha512(data).digest(), "big")
    return value.to_bytes(4 * max(1, (value.bit_length() + 31) // 32), "little")


def seeded_states(helper: Helper, seeds: list[str]) -> np.ndarray:
    """One helper generator per seed, as a (len(seeds), STATE_WORDS) uint32
    array: row i is `random.Random(seeds[i]).getstate()[1]`."""
    keys = [seed_key(seed) for seed in seeds]
    ends = np.cumsum([len(key) // 4 for key in keys], dtype=np.int64)
    words = np.frombuffer(b"".join(keys), dtype="<u4").astype(np.uint32, copy=False)
    states = np.empty((len(seeds), STATE_WORDS), dtype=np.uint32)
    helper.lib.seed_states(words.ctypes.data, ends.ctypes.data, len(seeds), states.ctypes.data)
    return states


# Both trainers read HELPER when they run, so setting it to None switches
# SVM epochs and tree growth to Python at once.
HELPER, EPOCH_PATH = load_helper(Path(__file__).parent / "__pycache__")
