"""Seed-stable finite-shot emulation of the measurement statistics.

The uniform source is counter-based splitmix64: draw k of a stream seeded
with s is mix64((s + (k+1) * GAMMA) mod 2^64), where GAMMA is the canonical
Weyl increment 0x9E3779B97F4A7C15 and mix64 the standard xor-shift/multiply
finalizer (constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts
30/27/31).  The top 53 bits of each draw give a double in [0, 1).  This
reproduces the splitmix64 reference output stream exactly, is trivially
vectorized, and makes every sample reproducible from (seed, draw index)
alone, independent of platform or library version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import probability_vector

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
SAMPLE_CHUNK = 1 << 15  # draws per chunk; sample_outcomes' three 256 KiB buffers stay in L2
# Up to this many outcomes a chunk is counted by one compare pass per
# threshold, above it by sorting the chunk once.  On a 2-vCPU AVX-512 Xeon a
# pass costs about 0.6 ns per draw and the sort about 6.4 ns, and the two
# routes break even at 14 to 16 outcomes.
_COMPARE_MAX_OUTCOMES = 14


def _mix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer, computed in place in ``z``."""
    scratch = np.empty_like(z) if scratch is None else scratch
    for shift, multiplier in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=scratch)
        z *= multiplier
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def uniform_stream(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Doubles in [0, 1) for draw indices offset .. offset+count-1."""
    counters = np.uint64(seed & _MASK64) + np.arange(
        offset + 1, offset + count + 1, dtype=np.uint64
    ) * _GAMMA
    return (_mix64(counters) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def derive_subseed(seed: int, index: int) -> int:
    """Decorrelated child seed for grid point `index` of a sweep."""
    # 1-element arrays: numpy warns on scalar uint64 overflow, not on arrays
    base = np.array([seed & _MASK64], dtype=np.uint64)
    salt = _mix64(np.array([(index + 1) & _MASK64], dtype=np.uint64) * _GAMMA)
    return int(_mix64(base ^ salt)[0])


@dataclass(frozen=True)
class ShotRecord:
    """Outcome counts of a finite measurement run."""

    counts: tuple[int, ...]
    shots: int
    seed: int

    def __post_init__(self):
        if sum(self.counts) != self.shots:
            raise DimensionMismatchError("counts do not sum to the shot total")

    def frequencies(self) -> np.ndarray:
        return probability_vector(np.asarray(self.counts, dtype=float) / self.shots)


def sample_outcomes(p, shots: int, seed: int) -> ShotRecord:
    """Multinomial draw from an outcome distribution, deterministic in seed.

    Draw k of uniform_stream(seed) goes to the first outcome i with
    u_k < e_i, where e = cumsum(p); the last outcome takes the draws no edge
    catches.  With u = m 2^-53 for the integer m = word >> 11, e_i <= u holds
    exactly when m >= ceil(e_i 2^53), so the draws are counted against these
    integer thresholds and never converted to floats.  Chunks of
    SAMPLE_CHUNK draws walk one counter stream in buffers allocated once, so
    the counts do not depend on the chunk size and memory does not grow
    with shots."""
    if shots < 1:
        raise ValueError(f"shot count {shots} must be at least 1")
    p = probability_vector(p)
    thresholds = np.ceil(np.cumsum(p[:-1]) * 2.0**53).astype(np.uint64)
    below = np.zeros(thresholds.size, dtype=np.int64)  # draws with m < threshold
    size = min(SAMPLE_CHUNK, shots)
    steps = np.arange(1, size + 1, dtype=np.uint64) * _GAMMA
    words, scratch = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    flags = np.empty(size, dtype=bool)
    for offset in range(0, shots, size):
        n = min(size, shots - offset)
        m = words[:n]
        # counters seed + (k+1) GAMMA mod 2^64 for k = offset .. offset+n-1
        np.add(steps[:n], np.uint64((seed + offset * int(_GAMMA)) & _MASK64), out=m)
        _mix64(m, scratch[:n])
        m >>= np.uint64(11)
        if p.size <= _COMPARE_MAX_OUTCOMES:
            for j, threshold in enumerate(thresholds):
                below[j] += np.count_nonzero(np.less(m, threshold, out=flags[:n]))
        else:
            m.sort()
            below += np.searchsorted(m, thresholds)
    counts = np.diff(below, prepend=0, append=shots)
    return ShotRecord(tuple(int(c) for c in counts), shots, seed)
