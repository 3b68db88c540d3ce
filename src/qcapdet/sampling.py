"""Seed-stable finite-shot emulation of the measurement statistics.

The uniform source is counter-based splitmix64: word j of a stream seeded
with s is mix64((s + (j+1) * GAMMA) mod 2^64), where GAMMA is the canonical
Weyl increment 0x9E3779B97F4A7C15 and mix64 the standard xor-shift/multiply
finalizer (constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts
30/27/31).  This reproduces the splitmix64 reference output stream exactly.
A shot is a 32-bit draw: draw 2j is the low 32 bits of word j and draw
2j+1 its high 32 bits, so one finalizer serves two shots.  The draws are
taken as integers, not through the machine's byte order, so every sample
is reproducible from (seed, draw index) alone, independent of platform or
library version.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError
from .linalg import probability_vector

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_LOW32 = np.uint64(0xFFFFFFFF)
_DRAW_BITS = np.uint64(32)
SAMPLE_CHUNK = 1 << 15  # draws per chunk, even; sample_outcomes' two 128 KiB word buffers stay in L2
# Up to this many outcomes a chunk is counted by one compare pass of its
# draws per threshold, above it by sorting the draws once.  On a 2-vCPU
# AVX-512 Xeon, with the draws made at about 1.6 ns each, a pass costs about
# 0.2 ns per draw and sorting about 3.4 ns, so the routes break even at
# about 17 outcomes.
_COMPARE_MAX_OUTCOMES = 16


def _mix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer, computed in place in ``z``."""
    scratch = np.empty_like(z) if scratch is None else scratch
    for shift, multiplier in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=scratch)
        z *= multiplier
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _seed(seed) -> int:
    """The one seed rule: an int of any size, taken mod 2^64 by the stream, or an integral float, read as int."""
    if isinstance(seed, numbers.Integral) or (isinstance(seed, numbers.Real) and float(seed).is_integer()):
        return int(seed)
    raise ValueError(f"seed {seed} must be an integer")


def _shot_count(shots) -> int:
    """The one shot-count rule: an integer of at least 1, or an integral float, read as int."""
    if not shots >= 1:
        raise ValueError(f"shot count {shots} must be at least 1")
    if not (isinstance(shots, int) or float(shots).is_integer()):  # an int of any size, without converting it
        raise ValueError(f"shot count {shots} must be an integer")
    return int(shots)


def _steps(count: int) -> np.ndarray:
    """Counter increments (1 .. count) * GAMMA mod 2^64."""
    return np.arange(1, count + 1, dtype=np.uint64) * _GAMMA


def _stream_words(seed: int, offset: int, steps: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Raw splitmix64 words offset .. offset+len(steps)-1 of the stream
    seeded with ``seed``, where ``steps = _steps(len(steps))``: the counters
    seed + (j+1) GAMMA mod 2^64, each through mix64."""
    out = np.add(steps, np.uint64((seed + offset * int(_GAMMA)) & _MASK64), out=out)
    return _mix64(out, scratch)


def uniform_stream(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Draws offset .. offset+count-1 as doubles m 2^-32 in [0, 1), m the
    draw's 32 bits: the low half of word k // 2 for an even draw index k,
    the high half for an odd one."""
    seed = _seed(seed)
    first = offset // 2
    words = _stream_words(seed, first, _steps((offset + count + 1) // 2 - first))
    draws = np.stack([words & _LOW32, words >> _DRAW_BITS], axis=-1).reshape(-1)
    return draws[offset % 2 : offset % 2 + count].astype(np.float64) * 2.0**-32


def derive_subseed(seed: int, index: int) -> int:
    """Decorrelated child seed for grid point `index` of a sweep."""
    seed = _seed(seed)
    # 1-element arrays: numpy warns on scalar uint64 overflow, not on arrays
    base = np.array([seed & _MASK64], dtype=np.uint64)
    salt = _mix64(np.array([(index + 1) & _MASK64], dtype=np.uint64) * _GAMMA)
    return int(_mix64(base ^ salt)[0])


@dataclass(frozen=True)
class ShotRecord:
    """Outcome counts of a finite measurement run, checked when built; the
    shot count and seed by sample_outcomes' rules, and recorded as ints."""

    counts: tuple[int, ...]
    shots: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "shots", _shot_count(self.shots))
        object.__setattr__(self, "seed", _seed(self.seed))
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
    catches.  With u = m 2^-32 for the draw's 32 bits m, e_i <= u holds
    exactly when m >= K_i = ceil(e_i 2^32), so the draws are counted as
    uint32 against these integer thresholds and never converted to floats.
    An edge with K_i >= 2^32, within 2^-32 of 1 or above it, lies above
    every draw and catches all of them.  Chunks of SAMPLE_CHUNK draws walk
    one counter stream in buffers allocated once, so memory does not grow
    with shots.

    A chunk's draws are its words' two halves in the machine's order; the
    counts do not depend on that order, nor on the chunk size.  For an odd
    shot count the last word's high half is no draw: it is counted with its
    chunk and then taken back.  Above _COMPARE_MAX_OUTCOMES outcomes a chunk
    is counted by sorting its draws in place and placing each threshold
    among them by binary search, which counts the same draws exactly.

    A shot count below 1, NaN included, or not an integer is refused, and
    so is a seed that is not an integer; an integral float such as 10.0
    passes either and is recorded as an int."""
    shots, seed = _shot_count(shots), _seed(seed)
    p = probability_vector(p)
    thresholds = np.ceil(np.cumsum(p[:-1]) * 2.0**32)
    inside = np.count_nonzero(thresholds < 2.0**32)  # cumsum never falls, so these lead
    edges = thresholds[:inside].astype(np.uint32)
    below = np.zeros(inside, dtype=np.int64)  # draws m < K_i
    total = (shots + 1) // 2  # words
    size = min(SAMPLE_CHUNK // 2, total)
    steps = _steps(size)
    words, scratch = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    compare = p.size <= _COMPARE_MAX_OUTCOMES
    if compare:
        flags = np.empty(2 * size, dtype=bool)
    surplus = None
    for offset in range(0, total, size):
        n = min(size, total - offset)
        w = _stream_words(seed, offset, steps[:n], words[:n], scratch[:n])
        if shots % 2 and offset + n == total:
            surplus = w[-1] >> _DRAW_BITS
        draws = w.view(np.uint32)
        if compare:
            for j, edge in enumerate(edges):
                below[j] += np.count_nonzero(np.less(draws, edge, out=flags[: 2 * n]))
        else:
            draws.sort()
            below += np.searchsorted(draws, edges)
    if surplus is not None:
        below -= surplus < edges
    cumulative = np.concatenate([below, np.full(p.size - inside, shots)])
    counts = np.diff(cumulative, prepend=0)
    return ShotRecord(tuple(int(c) for c in counts), shots, seed)
