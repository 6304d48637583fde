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


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def trial_uniforms(master_seed: int, start: int, stop: int, ndraws: int) -> np.ndarray:
    """Uniform draws for trials [start, stop), shape (ndraws, stop - start).

    Row k holds draw k of each trial, bit-identical to the TrialStream path.
    """
    with np.errstate(over="ignore"):
        t = np.arange(start, stop, dtype=np.uint64)
        states = _mix64_np((t + np.uint64(1)) * np.uint64(GOLDEN))
        states ^= np.uint64(master_seed & _MASK)
        states = _mix64_np(states)
        out = np.empty((ndraws, stop - start), dtype=float)
        for k in range(ndraws):
            z = _mix64_np(states + np.uint64((k + 1) * GOLDEN & _MASK))
            out[k] = (z >> np.uint64(11)) * _INV_2_53
    return out
