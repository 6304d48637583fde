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

``trial_uniforms`` runs a native body, in ``_native.c``, when the
package's C extension module (``native.LIBRARY``) loads: one C call per
chunk fills the whole array, in 4096-trial blocks, and releases the GIL
while it does, so the runner's worker threads draw in parallel. It is exact
for the same reasons as the numpy path: the mixing is integer arithmetic
mod 2**64, the 53-bit word converts to float64 exactly, and scaling by
2**-53 (a power of two) is exact; the module is built without -ffast-math.
Where the module does not load, the process uses the numpy fill, which
stays as the reference the tests compare the native fill with.
"""

from __future__ import annotations

import numpy as np

from . import native

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
    lib = native.LIBRARY.load()
    if lib is None:
        return _numpy_uniforms(master_seed, start, stop, ndraws)
    n = stop - start
    out = np.empty((ndraws, n), dtype=float)  # C-contiguous; rejects n < 0
    lib.trial_uniforms(out, master_seed & _MASK, (start + 1) * GOLDEN & _MASK)
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
