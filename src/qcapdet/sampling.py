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

from .errors import DimensionMismatchError, InvalidStateError
from .linalg import probability_vector

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
SAMPLE_CHUNK = 1 << 15  # draws per chunk; sample_outcomes' three 256 KiB buffers and 128 KiB keys stay in L2
# Up to this many outcomes a chunk is counted by one compare pass of the raw
# words per threshold, above it by sorting the chunk's 32-bit keys once.  On
# a 2-vCPU AVX-512 Xeon, with the words drawn at about 3 ns each, a pass
# costs about 0.5 ns per draw and cutting and sorting the keys about 4.4 ns,
# so the routes break even between 9 and 10 outcomes.
_COMPARE_MAX_OUTCOMES = 9


def _mix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer, computed in place in ``z``."""
    scratch = np.empty_like(z) if scratch is None else scratch
    for shift, multiplier in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=scratch)
        z *= multiplier
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _steps(count: int) -> np.ndarray:
    """Counter increments (1 .. count) * GAMMA mod 2^64."""
    return np.arange(1, count + 1, dtype=np.uint64) * _GAMMA


def _stream_words(seed: int, offset: int, steps: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Raw splitmix64 words of draws offset .. offset+len(steps)-1 of the
    stream seeded with ``seed``, where ``steps = _steps(len(steps))``: the
    counters seed + (k+1) GAMMA mod 2^64, each through mix64."""
    out = np.add(steps, np.uint64((seed + offset * int(_GAMMA)) & _MASK64), out=out)
    return _mix64(out, scratch)


def uniform_stream(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Doubles in [0, 1) for draw indices offset .. offset+count-1."""
    words = _stream_words(seed, offset, _steps(count))
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def derive_subseed(seed: int, index: int) -> int:
    """Decorrelated child seed for grid point `index` of a sweep."""
    # 1-element arrays: numpy warns on scalar uint64 overflow, not on arrays
    base = np.array([seed & _MASK64], dtype=np.uint64)
    salt = _mix64(np.array([(index + 1) & _MASK64], dtype=np.uint64) * _GAMMA)
    return int(_mix64(base ^ salt)[0])


@dataclass(frozen=True)
class ShotRecord:
    """Outcome counts of a finite measurement run, checked when built."""

    counts: tuple[int, ...]
    shots: int
    seed: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shot count {self.shots} must be at least 1")
        if min(self.counts, default=0) < 0:
            raise InvalidStateError(f"negative outcome count {min(self.counts)}")
        if sum(self.counts) != self.shots:
            raise DimensionMismatchError("counts do not sum to the shot total")

    def frequencies(self) -> np.ndarray:
        return probability_vector(np.asarray(self.counts, dtype=float) / self.shots)


def sample_outcomes(p, shots: int, seed: int) -> ShotRecord:
    """Multinomial draw from an outcome distribution, deterministic in seed.

    Draw k of uniform_stream(seed) goes to the first outcome i with
    u_k < e_i, where e = cumsum(p); the last outcome takes the draws no edge
    catches.  With u = m 2^-53 for the integer m = word >> 11, e_i <= u holds
    exactly when m >= K_i = ceil(e_i 2^53), that is when the raw 64-bit word
    is at least K_i 2^11, so the words are counted against these integer
    thresholds and never shifted or converted to floats.  An edge with
    K_i >= 2^53 lies above every draw and catches all of them.  Chunks of
    SAMPLE_CHUNK draws walk one counter stream in buffers allocated once, so
    the counts do not depend on the chunk size and memory does not grow
    with shots.

    Above _COMPARE_MAX_OUTCOMES outcomes a chunk is counted from its words'
    top 32 bits, sorted as uint32 keys, with each threshold's top 32 bits
    placed by binary search.  That count is exact for a threshold no key
    equals; a threshold some key equals is recounted by the 64-bit compare."""
    if shots < 1:
        raise ValueError(f"shot count {shots} must be at least 1")
    p = probability_vector(p)
    thresholds = np.ceil(np.cumsum(p[:-1]) * 2.0**53)
    inside = np.count_nonzero(thresholds < 2.0**53)  # cumsum never falls, so these lead
    edges = thresholds[:inside].astype(np.uint64) << np.uint64(11)
    below = np.zeros(inside, dtype=np.int64)  # draws with word < edge
    size = min(SAMPLE_CHUNK, shots)
    steps = _steps(size)
    words, scratch = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    compare = p.size <= _COMPARE_MAX_OUTCOMES
    if compare:
        flags = np.empty(size, dtype=bool)
    else:
        keys = np.empty(size, dtype=np.uint32)
        tops = (edges >> np.uint64(32)).astype(np.uint32)
    for offset in range(0, shots, size):
        n = min(size, shots - offset)
        w = _stream_words(seed, offset, steps[:n], words[:n], scratch[:n])
        if compare:
            for j, edge in enumerate(edges):
                below[j] += np.count_nonzero(np.less(w, edge, out=flags[:n]))
        else:
            k = keys[:n]
            np.copyto(k, np.right_shift(w, np.uint64(32), out=scratch[:n]), casting="unsafe")
            k.sort()
            placed = np.searchsorted(k, tops)  # keys below each top
            # a top past every key is clipped onto the last key, which is below it
            for j in np.flatnonzero(k.take(placed, mode="clip") == tops):
                placed[j] = np.count_nonzero(w < edges[j])
            below += placed
    cumulative = np.concatenate([below, np.full(p.size - inside, shots)])
    counts = np.diff(cumulative, prepend=0)
    return ShotRecord(tuple(int(c) for c in counts), shots, seed)
