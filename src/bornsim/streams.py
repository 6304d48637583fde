"""Counter-based per-trial random streams.

Every uniform consumed by trial ``t`` of a run is a pure function of
``(master_seed, t, draw_index)``:

    state(t)   = mix64(master_seed XOR mix64((t + 1) * GOLDEN))
    draw(t, k) = mix64(state(t) + (k + 1) * GOLDEN) -> 53-bit uniform in [0, 1)

where ``mix64`` is the SplitMix64 finalizer (Steele/Lea/Flood; the mixer
behind ``java.util.SplittableRandom``) and GOLDEN is the 64-bit golden-ratio
increment. Because no draw depends on any other trial, results are identical
for any worker count or scheduling order, and the scalar and vectorized
paths below produce bit-identical values.

The numpy fill computes the same formula on uint64 arrays (which wrap mod
2**64, as SplitMix64 needs), one sub-block of ``_BLOCK`` trials at a time.

``trial_uniforms`` runs a native body, ``_splitmix.c``, when it can: one
C call per chunk fills the whole array, in 4096-trial blocks, and ctypes
releases the GIL for the call, so the runner's worker threads draw in
parallel. It is exact for the same reasons as the numpy path: the mixing is
integer arithmetic mod 2**64, the 53-bit word converts to float64 exactly,
and scaling by 2**-53 (a power of two) is exact; the library is built
without -ffast-math. The first call compiles it with the system ``cc`` (or
``gcc``) into ``$XDG_CACHE_HOME/bornsim`` (``~/.cache/bornsim``), under a
name keyed by a hash of the source, flags, compiler path and machine; later
processes load the cached file. Without a compiler, or if the build or the
load fails, the process uses the numpy fill, which stays as the reference
the tests compare the native fill with.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
import threading
from pathlib import Path

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on python ints (mod 2**64)."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _M1) & _MASK
    z ^= z >> 27
    z = (z * _M2) & _MASK
    return z ^ (z >> 31)


def trial_state(master_seed: int, trial: int) -> int:
    """64-bit base state of the stream for one trial."""
    return mix64((master_seed & _MASK) ^ mix64(((trial + 1) * GOLDEN) & _MASK))


class TrialStream:
    """Scalar stream for one trial; ``random()`` yields draw 0, 1, 2, ..."""

    def __init__(self, master_seed: int, trial: int):
        self._state = trial_state(master_seed, trial)
        self._k = 0

    def random(self) -> float:
        z = mix64((self._state + (self._k + 1) * GOLDEN) & _MASK)
        self._k += 1
        return (z >> 11) * _INV_2_53


# trials per sub-block of the numpy fill, and per slice that ``run_trials``
# passes a model kernel, so that their temporaries stay in L2 cache
_BLOCK = 1 << 16


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` on a uint64 array, in place; returns ``z``."""
    z ^= z >> 30
    z *= _M1
    z ^= z >> 27
    z *= _M2
    z ^= z >> 31
    return z


def trial_uniforms(master_seed: int, start: int, stop: int, ndraws: int) -> np.ndarray:
    """Uniform draws for trials [start, stop), shape (ndraws, stop - start).

    Row k holds draw k of each trial, bit-identical to the TrialStream path.
    One native call fills the array when the C library is available, and
    ``_numpy_uniforms`` otherwise.
    """
    fill = _native_fill()
    if fill is None:
        return _numpy_uniforms(master_seed, start, stop, ndraws)
    n = stop - start
    out = np.empty((ndraws, n), dtype=float)  # C-contiguous; rejects n < 0
    fill(out.ctypes.data, master_seed & _MASK, (start + 1) * GOLDEN & _MASK, n, ndraws)
    return out


def _numpy_uniforms(master_seed: int, start: int, stop: int, ndraws: int) -> np.ndarray:
    """The numpy body of ``trial_uniforms``: its fallback and its test oracle.

    The module formula, applied to one sub-block of ``_BLOCK`` trials at a time.
    """
    n = stop - start
    out = np.empty((ndraws, n), dtype=float)
    seed = master_seed & _MASK
    # trial t = start + a + i of the block at a: (t + 1) * GOLDEN is
    # (start + a + 1) * GOLDEN + offsets[i] (mod 2**64)
    offsets = np.arange(min(n, _BLOCK), dtype=np.uint64) * GOLDEN
    for a in range(0, n, _BLOCK):
        m = min(_BLOCK, n - a)
        state = _mix64_array(_mix64_array(offsets[:m] + ((start + a + 1) * GOLDEN & _MASK)) ^ seed)
        for k in range(ndraws):
            # the draw's word is below 2**53: int64 -> float64 converts it
            # exactly, and faster; no name keeps it alive into the next draw
            np.multiply((_mix64_array(state + ((k + 1) * GOLDEN & _MASK)) >> 11).view(np.int64),
                        _INV_2_53, out=out[k, a : a + m])
    return out


_SOURCE = Path(__file__).with_name("_splitmix.c")
_CFLAGS = ("-O3", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 120
_native_lock = threading.Lock()


def _native_fill():
    """The C ``trial_uniforms``, or None; built or loaded once per process."""
    with _native_lock:
        return _load_native()


@functools.cache
def _load_native():
    # imported on first use, not with the module: ``analytic`` never draws
    import subprocess

    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None or os.name != "posix":
        return None
    try:
        source = _SOURCE.read_bytes()
        name = f"splitmix-{_build_key(source, cc)}.so"
        directory = _cache_dir()
        if directory is not None:
            fill = _build_and_open(cc, source, directory / name)
        else:
            # a loaded library stays mapped after its file is removed
            with tempfile.TemporaryDirectory(prefix="bornsim-") as private:
                fill = _build_and_open(cc, source, Path(private) / name)
    except (OSError, subprocess.SubprocessError):
        return None
    fill.argtypes = (ctypes.c_void_p, ctypes.c_uint64, ctypes.c_uint64,
                     ctypes.c_int64, ctypes.c_int64)
    fill.restype = None
    return fill


def _build_key(source: bytes, cc: str) -> str:
    """Hash of what the library is built from: source, flags, compiler and machine.

    The machine is there for home directories shared between architectures.
    """
    import hashlib

    parts = [source, " ".join(_CFLAGS).encode(), cc.encode(), os.uname().machine.encode()]
    return hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]


def _build_and_open(cc: str, source: bytes, lib: Path):
    """The C function from ``lib``, compiled from ``source`` first if ``lib`` is missing."""
    import subprocess

    if not lib.exists():
        # build under a temporary name, then rename: no reader sees half a file
        fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".tmp")
        os.close(fd)
        try:
            subprocess.run([cc, *_CFLAGS, "-x", "c", "-", "-o", tmp], input=source,
                           capture_output=True, timeout=_BUILD_TIMEOUT_S, check=True)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(lib)).trial_uniforms


def _cache_dir() -> Path | None:
    """The per-user cache directory, or None if it is not ours alone to write."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(root) / "bornsim"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return None
    # another user could plant a library in a directory they can write
    if st.st_uid != os.getuid() or st.st_mode & 0o022 or not os.access(path, os.W_OK):
        return None
    return path

