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
SAMPLE_CHUNK = 1 << 18  # draws per chunk; bounds sampling memory at a few MB


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


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
    Chunks of SAMPLE_CHUNK draws walk one counter stream, so the counts do
    not depend on the chunk size and memory does not grow with shots."""
    if shots < 1:
        raise ValueError(f"shot count {shots} must be at least 1")
    p = probability_vector(p)
    edges = np.cumsum(p)
    counts = np.zeros(p.size, dtype=np.int64)
    for offset in range(0, shots, SAMPLE_CHUNK):
        draws = uniform_stream(seed, min(SAMPLE_CHUNK, shots - offset), offset)
        idx = np.minimum(np.searchsorted(edges, draws, side="right"), p.size - 1)
        counts += np.bincount(idx, minlength=p.size)
    return ShotRecord(tuple(int(c) for c in counts), shots, seed)
