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

The vectorized path fills its output in sub-blocks of 2**16 trials. Every
block reuses the same uint64 buffers and mixes them in place (uint64
arithmetic wraps mod 2**64, which is the SplitMix64 arithmetic), so the
working set stays in cache and no step allocates a temporary. Blocking
changes only the order of the work: every draw is the same bits as the
scalar stream's.
"""

from __future__ import annotations

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


# trials per sub-block of the counting kernels (here and in rod), so that
# their buffers and temporaries stay in L2 cache
_BLOCK = 1 << 16
_U_GOLDEN = np.uint64(GOLDEN)
_U_M1 = np.uint64(_M1)
_U_M2 = np.uint64(_M2)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer on z in place (mod 2**64).

    ``tmp`` is a work buffer of z's shape.
    """
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _U_M1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _U_M2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp


def trial_uniforms(master_seed: int, start: int, stop: int, ndraws: int) -> np.ndarray:
    """Uniform draws for trials [start, stop), shape (ndraws, stop - start).

    Row k holds draw k of each trial, bit-identical to the TrialStream path.
    The trials are filled in sub-blocks of ``_BLOCK``, reusing three uint64
    buffers (trial states, draw, mixer work space) and mixing in place, so no
    step allocates; each draw is written straight into its row of the result.
    """
    n = stop - start
    out = np.empty((ndraws, n), dtype=float)
    size = min(n, _BLOCK)
    # trial t = start + a + i of the block at a: (t + 1) * GOLDEN is
    # (start + a + 1) * GOLDEN + offsets[i] (mod 2**64)
    offsets = np.arange(size, dtype=np.uint64)
    offsets *= _U_GOLDEN
    state, z, tmp = (np.empty(size, dtype=np.uint64) for _ in range(3))
    seed = np.uint64(master_seed & _MASK)
    steps = [np.uint64((k + 1) * GOLDEN & _MASK) for k in range(ndraws)]
    for a in range(0, n, _BLOCK):
        m = min(_BLOCK, n - a)
        s, zm, tm = state[:m], z[:m], tmp[:m]
        np.add(offsets[:m], np.uint64((start + a + 1) * GOLDEN & _MASK), out=s)
        _mix64_inplace(s, tm)
        s ^= seed
        _mix64_inplace(s, tm)
        for k, step in enumerate(steps):
            np.add(s, step, out=zm)
            _mix64_inplace(zm, tm)
            zm >>= _S11
            # z < 2**53 now: int64 -> float64 converts it exactly, and faster
            np.multiply(zm.view(np.int64), _INV_2_53, out=out[k, a : a + m])
    return out
