import tracemalloc

import numpy as np
import pytest

from qcapdet import sampling
from qcapdet.errors import InvalidStateError
from qcapdet.sampling import (
    SAMPLE_CHUNK,
    ShotRecord,
    derive_subseed,
    sample_outcomes,
    uniform_stream,
)


def unchunked_counts(p, shots, seed):
    """Counts from one draw of the whole stream, the unchunked reference."""
    edges = np.cumsum(p)
    idx = np.minimum(np.searchsorted(edges, uniform_stream(seed, shots), side="right"), len(p) - 1)
    return tuple(int(c) for c in np.bincount(idx, minlength=len(p)))


def reference_counts(p, shots, seed):
    """Counts taken draw by draw in pure Python: each splitmix64 word split
    into its low and high 32 bits by integer arithmetic, so that the counts
    cannot depend on byte order, and each draw m given to the first outcome
    i with m 2^-32 < e_i."""
    words = [int(w) for w in sampling._stream_words(seed, 0, sampling._steps((shots + 1) // 2))]
    draws = [half for w in words for half in (w & 0xFFFFFFFF, w >> 32)][:shots]
    edges = np.cumsum(p).tolist()
    counts = [0] * len(edges)
    for m in draws:
        counts[next((i for i, e in enumerate(edges) if m * 2.0**-32 < e), len(edges) - 1)] += 1
    return tuple(counts)


class TestUniformStream:
    def test_reproduces_reference_outputs(self):
        # the first outputs of the splitmix64 reference sequence for seed 0,
        # each giving its low half as one draw and its high half as the next
        words = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        halves = [half for w in words for half in (w & 0xFFFFFFFF, w >> 32)]
        assert halves[:2] == [0x7B1DCDAF, 0xE220A839]
        draws = uniform_stream(0, 6) * 2.0**32
        assert draws.tolist() == [float(h) for h in halves]

    def test_draws_are_the_words_halves(self):
        words = sampling._stream_words(77, 0, sampling._steps(500))
        draws = (uniform_stream(77, 1000) * 2.0**32).astype(np.uint64)
        assert np.array_equal(draws[0::2], words & np.uint64(0xFFFFFFFF))
        assert np.array_equal(draws[1::2], words >> np.uint64(32))

    def test_offset_continues_stream(self):
        whole = uniform_stream(123, 10)
        assert np.array_equal(whole[4:], uniform_stream(123, 6, offset=4))

    @pytest.mark.parametrize("offset", [1, 4, 7])
    @pytest.mark.parametrize("count", [1, 2, 5, 6])
    def test_offset_on_either_half(self, offset, count):
        # an odd offset starts on a word's high half, an odd end stops on a low half
        whole = uniform_stream(123, 20)
        assert np.array_equal(whole[offset : offset + count], uniform_stream(123, count, offset=offset))

    def test_range(self):
        u = uniform_stream(99, 10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_seed_wraps_to_64_bits(self):
        assert np.array_equal(uniform_stream(2**64 + 5, 4), uniform_stream(5, 4))


class TestSampleOutcomes:
    def test_deterministic_distribution(self):
        rec = sample_outcomes([1.0, 0.0], 500, 7)
        assert rec.counts == (500, 0)

    def test_seed_determinism(self):
        a = sample_outcomes([0.2, 0.3, 0.5], 10000, 42)
        b = sample_outcomes([0.2, 0.3, 0.5], 10000, 42)
        assert a.counts == b.counts
        c = sample_outcomes([0.2, 0.3, 0.5], 10000, 43)
        assert a.counts != c.counts

    def test_concentration_at_large_shots(self):
        # pinned: seed 42 lands within 0.005 of 1/2 at a million shots
        rec = sample_outcomes([0.5, 0.5], 10**6, 42)
        freq = rec.frequencies()
        assert abs(freq[0] - 0.5) < 0.005
        assert abs(freq[1] - 0.5) < 0.005

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            p = rng.random(5)
            p /= p.sum()
            shots = int(rng.integers(1, 5000))
            rec = sample_outcomes(p, shots, int(rng.integers(0, 2**63)))
            assert sum(rec.counts) == shots == rec.shots

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            sample_outcomes([0.5, 0.5], 0, 1)

    @pytest.mark.parametrize(
        "shots",
        [SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1]
        + [8 * SAMPLE_CHUNK - 1, 8 * SAMPLE_CHUNK, 8 * SAMPLE_CHUNK + 1, 16 * SAMPLE_CHUNK + 12345],
    )
    def test_chunked_counts_equal_unchunked_reference(self, shots):
        p = np.array([0.1, 0.25, 0.05, 0.6])
        assert sample_outcomes(p, shots, 2024).counts == unchunked_counts(p, shots, 2024)

    def test_peak_memory_bounded_in_shots(self):
        p = np.full(16, 1.0 / 16)
        tracemalloc.start()
        try:
            record = sample_outcomes(p, 4 * 10**6, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.shots == 4 * 10**6
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_record_invariant(self):
        with pytest.raises(Exception):
            ShotRecord((3, 4), 8, 0)

    def test_record_needs_a_shot(self):
        # (0, 0) of 0 shots would reach frequencies() and divide 0 by 0
        with pytest.raises(ValueError, match=r"^shot count 0 must be at least 1$"):
            ShotRecord((0, 0), 0, 0)

    def test_record_refuses_a_negative_count(self):
        # the counts sum to the shots, so only the count check catches it
        with pytest.raises(InvalidStateError, match=r"^negative outcome count -1$"):
            ShotRecord((5, -1), 4, 0)

    @pytest.mark.parametrize(
        "shots, message",
        [
            (10.5, "shot count 10.5 must be an integer"),
            (float("inf"), "shot count inf must be an integer"),
            (float("nan"), "shot count nan must be at least 1"),
            (0.5, "shot count 0.5 must be at least 1"),
        ],
    )
    def test_a_fractional_or_non_finite_count_is_refused(self, shots, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_outcomes([0.5, 0.5], shots, 1)

    @pytest.mark.parametrize("shots", [10.0, np.float64(11.0), np.int64(11)])
    def test_an_integral_count_is_recorded_as_an_int(self, shots):
        record = sample_outcomes([0.5, 0.5], shots, 1)
        assert type(record.shots) is int and record.shots == shots
        assert record == sample_outcomes([0.5, 0.5], int(shots), 1)


SEEDED = {
    "ShotRecord": lambda seed: ShotRecord((5, 5), 10, seed),
    "sample_outcomes": lambda seed: sample_outcomes([0.3, 0.7], 10, seed),
    "uniform_stream": lambda seed: uniform_stream(seed, 4).tolist(),
    "derive_subseed": lambda seed: derive_subseed(seed, 0),
}


class TestSeedRule:
    """One seed rule wherever a seed is taken: an int of any size, which
    the stream takes mod 2^64, or an integral float, read as an int;
    anything else is a ValueError."""

    @pytest.mark.parametrize("where", sorted(SEEDED))
    @pytest.mark.parametrize(
        "seed, shown",
        [(1.5, "1.5"), (float("nan"), "nan"), (float("inf"), "inf"), ("7", "7"), (None, "None"), ([7], r"\[7\]")],
    )
    def test_a_seed_that_is_not_an_integer_is_refused(self, where, seed, shown):
        with pytest.raises(ValueError, match=f"^seed {shown} must be an integer$"):
            SEEDED[where](seed)

    @pytest.mark.parametrize("where", sorted(SEEDED))
    @pytest.mark.parametrize("seed", [7.0, np.float64(7.0), np.int64(7), np.uint64(7)])
    def test_an_integral_seed_is_read_as_an_int(self, where, seed):
        assert SEEDED[where](seed) == SEEDED[where](7)

    @pytest.mark.parametrize("where", ["ShotRecord", "sample_outcomes"])
    def test_a_record_keeps_the_seed_as_an_int(self, where):
        record = SEEDED[where](7.0)
        assert type(record.seed) is int and record.seed == 7
        assert SEEDED[where](2**64 + 7).seed == 2**64 + 7  # recorded as given

    @pytest.mark.parametrize("where", ["sample_outcomes", "uniform_stream", "derive_subseed"])
    def test_an_int_of_any_size_is_taken_mod_2_64(self, where):
        draw = lambda seed: getattr(SEEDED[where](seed), "counts", SEEDED[where](seed))
        assert draw(2**64 + 7) == draw(7) and draw(-1) == draw(2**64 - 1) and draw(7 - 2**200) == draw(7)

    def test_a_float_seed_no_longer_builds_a_record(self):
        with pytest.raises(ValueError, match="^seed 1.5 must be an integer$"):
            ShotRecord((5, 5), 10.0, 1.5)

    @pytest.mark.parametrize(
        "shots, message",
        [
            (10.5, "shot count 10.5 must be an integer"),
            (float("inf"), "shot count inf must be an integer"),
            (float("nan"), "shot count nan must be at least 1"),
            (0.5, "shot count 0.5 must be at least 1"),
        ],
    )
    def test_a_record_takes_the_shot_count_rule(self, shots, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ShotRecord((5, 5), shots, 1)

    @pytest.mark.parametrize("shots", [10.0, np.float64(10.0), np.int64(10)])
    def test_a_record_keeps_an_integral_count_as_an_int(self, shots):
        record = ShotRecord((5, 5), shots, 1)
        assert type(record.shots) is int and record == ShotRecord((5, 5), 10, 1)


def random_distribution(rng, n, zeros=0):
    p = rng.random(n) ** 3
    p[rng.choice(n, size=zeros, replace=False)] = 0.0
    return p / p.sum()


class TestEquivalenceWithReference:
    """sample_outcomes against unchunked_counts: the same stream and the same
    outcome rule must give the same counts, whatever the chunking and
    whichever counting route the outcome count selects."""

    @pytest.mark.parametrize("chunk", [1 << 10, SAMPLE_CHUNK])
    def test_outcome_counts_2_to_272(self, chunk, monkeypatch):
        monkeypatch.setattr(sampling, "SAMPLE_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for n in range(2, 273):
            p = random_distribution(rng, n, zeros=n // 7)
            shots, seed = int(rng.integers(1, 3000)), int(rng.integers(0, 2**63))
            assert sample_outcomes(p, shots, seed).counts == unchunked_counts(p, shots, seed), n

    @pytest.mark.parametrize("n", [3, 40])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_zero_probability_outcomes(self, n, where):
        p = np.full(n, 1.0)
        p[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = 0.0
        p /= p.sum()
        counts = sample_outcomes(p, 20000, 11).counts
        assert counts == unchunked_counts(p, 20000, 11)
        assert counts[np.flatnonzero(p == 0.0)[0]] == 0

    @pytest.mark.parametrize("n", [4, 40])
    @pytest.mark.parametrize("ulps", [-3, -2, -1, 0, 1, 2, 3])
    def test_edges_a_few_ulps_around_one(self, n, ulps):
        # the last outcome has zero probability, so cumsum(p) ends on the
        # last threshold, placed `ulps` doubles away from 1
        target = 1.0
        for _ in range(abs(ulps)):
            target = np.nextafter(target, 2.0 if ulps > 0 else 0.0)
        head = np.full(n - 2, 1.0 / n)
        partial = np.cumsum(head)[-1]
        x = target - partial
        while partial + x < target:
            x = np.nextafter(x, 2.0)
        while partial + x > target:
            x = np.nextafter(x, 0.0)
        p = np.append(head, [x, 0.0])
        assert np.cumsum(p)[-1] == target
        assert sample_outcomes(p, 5000, n + ulps).counts == unchunked_counts(p, 5000, n + ulps)

    @pytest.mark.parametrize("n", [2, 20])
    def test_edges_placed_on_draws(self, n):
        # a draw equal to an edge belongs to the outcome after it, the draw
        # one ulp below the edge to the outcome before
        u = uniform_stream(5, 2000)
        for k in (0, 17, 1999):
            for edge, first in ((u[k], 0), (np.nextafter(u[k], 1.0), 1)):
                p = [edge] + [(1.0 - edge) / (n - 1)] * (n - 1)
                counts = sample_outcomes(p, 2000, 5).counts
                assert counts == unchunked_counts(p, 2000, 5)
                assert counts[0] == np.count_nonzero(u < edge) and counts[0] == np.count_nonzero(u < u[k]) + first

    # the counter seed + (j+1) GAMMA passes 2^64 at the first word, at word 2
    # (it reads 0 there), and for the negative seeds, read modulo 2^64
    @pytest.mark.parametrize("seed", [2**64 - 1, (-3 * 0x9E3779B97F4A7C15) % 2**64, 2**64 + 7, -1, -(2**63)])
    def test_seeds_where_the_counter_wraps(self, seed, monkeypatch):
        monkeypatch.setattr(sampling, "SAMPLE_CHUNK", 1 << 10)
        for p in (np.full(4, 0.25), np.full(30, 1.0 / 30)):
            assert sample_outcomes(p, 5000, seed).counts == unchunked_counts(p, 5000, seed)

    @pytest.mark.parametrize("chunk", [1000, 1 << 10, 1 << 15, 1 << 18])
    def test_chunk_boundaries(self, chunk, monkeypatch):
        monkeypatch.setattr(sampling, "SAMPLE_CHUNK", chunk)
        p_small, p_large = np.array([0.1, 0.25, 0.05, 0.6]), np.full(64, 1.0 / 64)
        for shots in (chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, 2 * chunk + 1):
            for p in (p_small, p_large):
                assert sample_outcomes(p, shots, 2024).counts == unchunked_counts(p, shots, 2024)

    def test_single_outcome(self):
        assert sample_outcomes([1.0], 70000, 3).counts == (70000,)


ROUTES = {"compare": 10**6, "sort": 1}  # _COMPARE_MAX_OUTCOMES that forces each route


class TestCountingRoutes:
    """Each counting route against the float rule u < e_i on uniform_stream
    and against the draw-by-draw reference, at the edges where the integer
    form of the rule could slip: a threshold equal to a draw, edges within
    2^-32 of 1 or above it, an odd shot count's unused last half word, chunk
    boundaries and the break-even between the routes."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("n", [2, 16, 40])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_edges_on_a_draw(self, n, delta, route, monkeypatch):
        # K = m + delta for the 32-bit m of a real draw, on a low half, on a
        # high half, at chunk boundaries and on the unused half that follows
        # the last draw of an odd shot count, which no outcome may take
        monkeypatch.setattr(sampling, "SAMPLE_CHUNK", 1 << 10)
        monkeypatch.setattr(sampling, "_COMPARE_MAX_OUTCOMES", ROUTES[route])
        shots, seed = 4999, 31
        u = uniform_stream(seed, shots + 1)
        for k in (0, 1, 17, (1 << 10) - 1, 1 << 10, shots - 1, shots):
            m = int(u[k] * 2.0**32)
            edge = (m + delta) * 2.0**-32
            zeros = min(2, n - 2)  # leading zero edges, K = 0, sit before it
            p = np.array([0.0] * zeros + [edge] + [(1.0 - edge) / (n - zeros - 1)] * (n - zeros - 1))
            assert np.cumsum(p)[zeros] == edge
            counts = sample_outcomes(p, shots, seed).counts
            assert counts == unchunked_counts(p, shots, seed)
            assert counts[zeros] == np.count_nonzero(u[:shots] < edge)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("n", [3, 12, 40])
    @pytest.mark.parametrize("excess", [0.0, 2.0**-52, 1e-12, 5e-10])
    def test_thresholds_at_or_above_two_to_53(self, n, excess, route, monkeypatch):
        # the tail outcomes have zero probability and the head, dyadic so
        # that it sums exactly, to 1 + excess: every edge from the head's
        # last on is at or above 1 (ceil(e 2^53) >= 2^53) and has K = 2^32
        # or more, above every draw
        monkeypatch.setattr(sampling, "_COMPARE_MAX_OUTCOMES", ROUTES[route])
        tail = n // 3
        head = 2.0 ** -np.arange(1, n - tail + 1)
        head[-1] = 2.0 * head[-1] + excess
        p = np.append(head, np.zeros(tail))
        assert np.ceil(np.cumsum(p)[n - tail - 1] * 2.0**53) >= 2.0**53
        counts = sample_outcomes(p, 40000, n).counts
        assert counts == unchunked_counts(p, 40000, n)
        assert not any(counts[n - tail :])

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("n", [3, 40])
    @pytest.mark.parametrize("shortfall", [2.0**-53, 1e-12, 2.0**-33, 2.0**-32])
    def test_edges_just_below_one(self, n, shortfall, route, monkeypatch):
        # the head sums to 1 - shortfall and the tail has zero probability:
        # within 2^-32 of 1 the last head edge has K = 2^32 and catches every
        # draw; at 2^-32 below 1 it has K = 2^32 - 1 and the draws m = 2^32 - 1
        # pass it, here none of 40000
        monkeypatch.setattr(sampling, "_COMPARE_MAX_OUTCOMES", ROUTES[route])
        tail = n // 3
        head = 2.0 ** -np.arange(1, n - tail + 1)
        head[-1] = 2.0 * head[-1] - shortfall
        p = np.append(head, np.zeros(tail))
        assert np.cumsum(p)[n - tail - 1] == 1.0 - shortfall
        counts = sample_outcomes(p, 40000, n).counts
        assert counts == unchunked_counts(p, 40000, n)
        assert not any(counts[n - tail :])

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("n", [5, 40])
    def test_draw_by_draw_reference(self, n, route, monkeypatch):
        # odd and even shot counts around one and two chunks of 1 << 10
        monkeypatch.setattr(sampling, "SAMPLE_CHUNK", 1 << 10)
        monkeypatch.setattr(sampling, "_COMPARE_MAX_OUTCOMES", ROUTES[route])
        rng = np.random.default_rng(n)
        for shots in (1, 2, 3, 1023, 1024, 1025, 2047, 2048, 2049):
            p = random_distribution(rng, n, zeros=n // 5)
            seed = int(rng.integers(0, 2**64, dtype=np.uint64))
            assert sample_outcomes(p, shots, seed).counts == reference_counts(p, shots, seed), shots

    @pytest.mark.parametrize("route", ROUTES)
    def test_goodness_of_fit_over_seeds(self, route, monkeypatch):
        # one chi-square statistic per seed, each with n - 1 degrees of
        # freedom; their sum over S = 200 seeds has mean S (n - 1) and variance
        # 2 S (n - 1), and lands within 5 standard deviations of the mean
        monkeypatch.setattr(sampling, "_COMPARE_MAX_OUTCOMES", ROUTES[route])
        p = np.maximum(random_distribution(np.random.default_rng(2014), 24), 0.01)
        p /= p.sum()  # every expected count well above 5
        shots, seeds = 2000, 200
        expected = shots * p
        counts = np.array([sample_outcomes(p, shots, seed).counts for seed in range(seeds)])
        chi2 = (((counts - expected) ** 2) / expected).sum()
        dof = seeds * (p.size - 1)
        assert abs(chi2 - dof) < 5.0 * np.sqrt(2.0 * dof)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_break_even_neighbours_on_both_routes(self, offset, monkeypatch):
        break_even = sampling._COMPARE_MAX_OUTCOMES
        n = break_even + offset
        rng = np.random.default_rng(n)
        shots = 3 * SAMPLE_CHUNK + 77
        for trial in range(3):
            p = random_distribution(rng, n, zeros=trial)
            seed = int(rng.integers(0, 2**63))
            expected = unchunked_counts(p, shots, seed)
            for limit in (break_even, *ROUTES.values()):
                monkeypatch.setattr(sampling, "_COMPARE_MAX_OUTCOMES", limit)
                assert sample_outcomes(p, shots, seed).counts == expected, limit


class TestSubseeds:
    def test_deterministic_and_distinct(self):
        seeds = [derive_subseed(42, i) for i in range(100)]
        assert seeds == [derive_subseed(42, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_depends_on_parent(self):
        assert derive_subseed(1, 0) != derive_subseed(2, 0)


def test_error_shrinks_with_shots():
    p = np.array([0.3, 0.2, 0.5])
    small, large = [], []
    for seed in range(20):
        small.append(np.abs(sample_outcomes(p, 10, seed).frequencies() - p).max())
        large.append(np.abs(sample_outcomes(p, 10**5, seed).frequencies() - p).max())
    assert np.mean(large) < np.mean(small)
