"""The vectorized outcome-grouping search against the per-candidate search it
replaced, and its acceptance and tie rule."""

import math

import numpy as np
import pytest
from randinst import random_channel, random_povm, random_probe

from qcapdet import (
    Detector,
    Povm,
    bell_povm,
    depolarizing_channel,
    isotropic_probe,
    max_entangled_probe,
    pauli_channel,
    sample_outcomes,
)
from qcapdet.certify import (
    EXHAUSTIVE_GROUPING_LIMIT,
    GROUPING_TOL,
    _best_grouping,
    grouped_bound,
    qdet_from_statistics,
)
from qcapdet.errors import DegenerateMeasurementError, DimensionMismatchError, InvalidStateError
from qcapdet.linalg import probability_vector, probability_vectors, shannon_entropy
from qcapdet.measurement import coarse_grain, iter_partitions


def reference_grouping(p: np.ndarray, t: np.ndarray, output_entropy: float):
    """Per-candidate search, one coarse_grain and qdet_from_statistics call
    each: the implementation the vectorized search replaced."""
    n = p.size
    singletons = tuple((i,) for i in range(n))
    best = (qdet_from_statistics(p, t, output_entropy), singletons)
    if n <= EXHAUSTIVE_GROUPING_LIMIT:
        for groups in iter_partitions(n):
            pm, tm = coarse_grain(p, t, groups)
            val = qdet_from_statistics(pm, tm, output_entropy)
            if val > best[0]:
                best = (val, groups)
        return best
    groups = [list(g) for g in singletons]
    while len(groups) > 1:
        gain = None
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                trial = [g for k, g in enumerate(groups) if k not in (a, b)]
                trial.append(groups[a] + groups[b])
                pm, tm = coarse_grain(p, t, trial)
                val = qdet_from_statistics(pm, tm, output_entropy)
                if val > best[0] and (gain is None or val > gain[0]):
                    gain = (val, a, b)
        if gain is None:
            break
        val, a, b = gain
        merged = groups[a] + groups[b]
        groups = [g for k, g in enumerate(groups) if k not in (a, b)] + [merged]
        best = (val, tuple(tuple(g) for g in groups))
    return best


def statistics(probe, channel, povm):
    """Outcome distribution, outcome weights and output entropy of one point."""
    detector = Detector(probe, povm)
    raw = detector.certify(channel)
    return raw.probabilities, detector.t, raw.output_entropy, raw.qdet


@pytest.mark.parametrize("optimize", [False, True])
def test_every_bound_is_the_grouped_bound_of_its_statistics(optimize):
    # the result's bound and its two statistics terms are grouped_bound of
    # the result's own p, t, S[E(rho)] and grouping, bit for bit: no channel needed
    merged = 0
    for n in range(2, 11):
        for seed in range(6):
            rng = np.random.default_rng([n, seed, 7])
            d = int(rng.integers(2, 4))
            probe, channel, povm = random_probe(rng, d), random_channel(rng, d), random_povm(rng, d * d, n)
            r = Detector(probe, povm).certify(channel, optimize)
            got = grouped_bound(r.probabilities, r.weights, r.output_entropy, r.grouping)
            assert got == (r.qdet, r.prob_entropy, r.log_tp), (n, seed)
            merged += len(r.grouping) < n
    assert (merged > 10) == optimize  # optimized instances include real merges


OUTCOME_COUNTS = range(2, 17)  # exhaustive up to EXHAUSTIVE_GROUPING_LIMIT, greedy beyond


def test_matches_reference_on_random_instances():
    merged = 0
    for n in OUTCOME_COUNTS:
        for seed in range(34):
            rng = np.random.default_rng([n, seed])
            p, t, entropy, _ = statistics(random_probe(rng, 2), random_channel(rng, 2), random_povm(rng, 4, n))
            want_qdet, want_grouping = reference_grouping(p, t, entropy)
            grouping = _best_grouping(p, t)
            qdet, _, _ = grouped_bound(p, t, entropy, grouping)
            assert grouping == want_grouping, (n, seed)
            assert qdet == want_qdet, (n, seed)
            merged += len(grouping) < n
    assert merged > 200  # the comparison covers real merges, not only trivial groupings


def test_merge_on_rounding_noise_is_not_taken():
    # d=3 Weyl channel, U_00 with weight 3/4 and U_11 with 1/4, perfect
    # probe: the per-candidate search merges outcomes 1 and 2, both of
    # probability 0, for a gain of about 1e-16.
    grid = np.zeros((3, 3))
    grid[0, 0], grid[1, 1] = 0.75, 0.25
    p, t, entropy, raw_qdet = statistics(max_entangled_probe(3), pauli_channel(grid), bell_povm(3))
    old_qdet, old_grouping = reference_grouping(p, t, entropy)
    assert len(old_grouping) < p.size and 0.0 < old_qdet - raw_qdet < GROUPING_TOL
    grouping = _best_grouping(p, t)
    assert grouping == tuple((i,) for i in range(p.size))
    assert grouped_bound(p, t, entropy, grouping)[0] == raw_qdet


def split_bell_povm() -> Povm:
    """d=2 Bell projectors with Bell 0 split 1/3 : 2/3, Bell 1 split 1/4 : 3/4
    and Bell 2 halved: seven outcomes, so the greedy branch runs."""
    phi = bell_povm(2).elements
    return Povm(4, (phi[0] / 3, 2 * phi[0] / 3, phi[1] / 4, 3 * phi[1] / 4, phi[2] / 2, phi[2] / 2, phi[3]))


def test_exact_ties_go_to_the_first_candidate():
    # Depolarizing noise gives Bell 1, 2 and 3 equal probabilities, so several
    # merges gain exactly the same; the old search let rounding noise choose
    # among them (here it returned 3;6;0+1;5+2+4).
    p, t, entropy, _ = statistics(isotropic_probe(2, 0.95), depolarizing_channel(2, 0.05), split_bell_povm())
    old_qdet, _ = reference_grouping(p, t, entropy)
    grouping = _best_grouping(p, t)
    assert grouping == ((6,), (0, 1), (2, 4), (3, 5))
    assert grouped_bound(p, t, entropy, grouping)[0] == pytest.approx(old_qdet, abs=1e-12)


def test_exhaustive_tie_goes_to_the_first_partition():
    # Outcomes 0-3 are identical, so which of them pair up does not change the bound.
    p = np.array([0.15, 0.15, 0.15, 0.15, 0.4])
    t = np.array([0.5, 0.5, 0.5, 0.5, 1.0])
    values = [qdet_from_statistics(*coarse_grain(p, t, g), 1.0) for g in iter_partitions(5)]
    ties = [g for g, v in zip(iter_partitions(5), values) if v >= max(values) - GROUPING_TOL]
    grouping = _best_grouping(p, t)
    assert len(ties) > 1 and grouping == ties[0]


@pytest.mark.parametrize("n", range(1, 17))
def test_every_grouping_partitions_the_outcomes(n):
    # grouped_bound merges the search's grouping without checking it, so every
    # grouping _best_grouping returns, exhaustive (n <= 6) or greedy, must
    # partition range(n), and the bound must be what the checked merge gives.
    rng = np.random.default_rng(n)
    for trial in range(40):
        p = rng.dirichlet(np.full(n, 0.3 if trial % 2 else 3.0))
        if trial % 4 == 3:
            p[rng.random(n) < 0.3] = 0.0  # outcomes that never occur
            p = p / p.sum() if p.sum() > 0 else np.eye(n)[0]
        t = rng.uniform(0.0, 2.0, n) if trial % 3 else np.ones(n)
        entropy = rng.uniform(0.5, 3.0)
        grouping = _best_grouping(p, t)
        members = sorted(i for g in grouping for i in g)
        assert members == list(range(n)) and all(grouping), (n, trial, grouping)
        want_p, want_t = coarse_grain(p, t, grouping)
        want = (qdet_from_statistics(want_p, want_t, entropy), shannon_entropy(want_p), math.log2(want_t @ want_p))
        assert grouped_bound(p, t, entropy, grouping) == want


def random_partition(rng, n: int):
    """A random partition of range(n) into nonempty groups, in order of first member."""
    owner = rng.integers(0, rng.integers(1, n + 1), n)
    return tuple(tuple(int(i) for i in np.flatnonzero(owner == g)) for g in dict.fromkeys(owner.tolist()))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 12, 16, 17, 20, 33])
def test_stacked_bound_is_each_rows_own(n):
    # numpy and BLAS sum a vector in blocks that depend on its length, so a
    # merged row padded with zero outcomes inside a stack must still give
    # bit for bit what grouped_bound gives for that row alone
    rng = np.random.default_rng([n, 11])
    rows = 24
    p = rng.dirichlet(np.full(n, 0.5), rows)
    p[rng.random((rows, n)) < 0.25] = 0.0  # outcomes that never occur
    p[p.sum(axis=1) == 0.0, 0] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    t = rng.uniform(0.1, 2.0, (rows, n))
    t[rng.random((rows, n)) < 0.1] = 0.0  # outcomes of zero weight
    t[(t * p).sum(axis=1) == 0.0] += 1.0
    entropy = rng.uniform(0.5, 3.0, rows)
    singletons = tuple((i,) for i in range(n))
    groupings = [
        (singletons, _best_grouping(p[k], t[k]), random_partition(rng, n))[k % 3] for k in range(rows)
    ]
    assert len({len(g) for g in groupings}) > 1  # real merges: rows of several widths in one stack
    for weights in (t, t[0]):  # one weight row per point, or one shared by all
        stacked = grouped_bound(p, weights, entropy, groupings)
        qdet = qdet_from_statistics(p, weights, entropy)
        for k in range(rows):
            w = weights if weights.ndim == 1 else weights[k]
            one = grouped_bound(p[k], w, entropy[k], groupings[k])
            assert tuple(x[k] for x in stacked) == one, (n, k)
            assert qdet[k] == qdet_from_statistics(p[k], w, entropy[k]), (n, k)


def test_stacked_degenerate_row_is_named_by_index():
    p = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5], [0.0, 0.0, 1.0]])
    t = np.array([1.0, 1.0, 0.0])
    with pytest.raises(DegenerateMeasurementError, match=r"^t \. p = 0\.0 is not positive$") as raised:
        grouped_bound(p, t, np.ones(4), [tuple((i,) for i in range(3))] * 4)
    assert raised.value.row == 1
    with pytest.raises(DegenerateMeasurementError, match=r"^t \. p = 0\.0 is not positive$") as raised:
        qdet_from_statistics(p[1], t, 1.0)
    assert raised.value.row == 0


@pytest.mark.parametrize(
    "p, message",
    [
        ([0.6, 0.6], r"^probabilities sum to 1\.2, not 1$"),
        ([1.2, -0.2], r"^probability entries outside \[0,1\]: min=-0\.2, max=1\.2$"),
    ],
)
def test_statistics_outside_the_simplex_are_refused(p, message):
    # a distribution from outside the program is checked, never bounded
    with pytest.raises(InvalidStateError, match=message) as raised:
        qdet_from_statistics(p, [1.0, 1.0], 1.0)
    assert raised.value.row == 0
    stack = np.array([[0.5, 0.5], [0.25, 0.75], p])
    with pytest.raises(InvalidStateError, match=message) as raised:
        qdet_from_statistics(stack, [1.0, 1.0], np.ones(3))
    assert raised.value.row == 2
    with pytest.raises(InvalidStateError, match=message):
        grouped_bound(np.asarray(p), np.ones(2), 1.0, ((0,), (1,)))


@pytest.mark.parametrize("p, t", [([math.nan, 1.0], [1.0, 1.0]), ([0.5, 0.5], [1.0, math.nan])])
def test_nan_statistics_are_refused(p, t):
    # NaN fails every comparison, so each check must be one that NaN fails
    with pytest.raises(DegenerateMeasurementError, match=r"^t \. p = nan is not positive$") as raised:
        qdet_from_statistics(p, t, 1.0)
    assert raised.value.row == 0
    with pytest.raises(DegenerateMeasurementError, match=r"^t \. p = nan is not positive$") as raised:
        qdet_from_statistics(np.array([[0.5, 0.5], [0.25, 0.75], p]), np.array([[1.0, 1.0]] * 2 + [t]), np.ones(3))
    assert raised.value.row == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: coarse_grain([math.nan, 1.0], [1.0, 1.0], ((0,), (1,))),
        lambda: probability_vector([0.5, math.nan]),
        lambda: sample_outcomes([math.nan, 1.0], 10, 0),
    ],
)
def test_nan_distribution_is_refused(call):
    with pytest.raises(InvalidStateError, match=r"^probability entries outside \[0,1\]: min=nan, max=nan$"):
        call()


def test_nan_row_of_a_stack_is_named_by_index():
    with pytest.raises(InvalidStateError, match=r"^b: probability entries outside") as raised:
        probability_vectors(np.array([[0.5, 0.5], [math.nan, 1.0], [0.7, 0.7]]), ["a", "b", "c"])
    assert raised.value.row == 1


def test_weights_of_another_row_count_are_refused():
    with pytest.raises(DimensionMismatchError, match=r"^2 weight rows for 1 probability rows$"):
        qdet_from_statistics([0.5, 0.5], [[1.0, 1.0], [1.0, 1.0]], 1.0)
    with pytest.raises(DimensionMismatchError, match=r"^2 weight rows for 3 probability rows$"):
        grouped_bound(np.full((3, 2), 0.5), np.ones((2, 2)), np.ones(3), [((0,), (1,))] * 3)


@pytest.mark.parametrize(
    "p, t, output_entropy, message",
    [
        (np.zeros((0, 2)), [1.0, 1.0], np.ones(0), r"^probabilities of shape \(0, 2\) are not one row"),
        (0.5, 1.0, 1.0, r"^probabilities of shape \(\) are not one row"),
        ([0.5, 0.5], 1.0, 1.0, r"^probability and weight vectors differ in length$"),
        ([0.5, 0.5], [1.0, 1.0], [1.0, 2.0], r"^output entropies of shape \(2,\) for probabilities of shape \(2,\)$"),
        (np.full((2, 2), 0.5), [1.0, 1.0], np.ones((2, 1)), r"^output entropies of shape \(2, 1\) for probabilities"),
    ],
    ids=["stack_without_rows", "scalar_p", "scalar_t", "two_entropies_for_a_row", "entropy_column"],
)
def test_statistics_of_another_shape_are_refused(p, t, output_entropy, message):
    with pytest.raises(DimensionMismatchError, match=message):
        qdet_from_statistics(p, t, output_entropy)


def test_non_finite_output_entropy_is_refused():
    with pytest.raises(InvalidStateError, match=r"^output entropy nan is not finite$") as raised:
        qdet_from_statistics([0.5, 0.5], [1.0, 1.0], math.nan)
    assert raised.value.row == 0
    with pytest.raises(InvalidStateError, match=r"^output entropy inf is not finite$") as raised:
        qdet_from_statistics(np.full((3, 2), 0.5), [1.0, 1.0], [1.0, 1.0, math.inf])
    assert raised.value.row == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: qdet_from_statistics([], [], 1.0),
        lambda: grouped_bound(np.zeros((2, 0)), np.zeros(0), np.ones(2), [()] * 2),
        lambda: probability_vector([]),
        lambda: sample_outcomes([], 10, 0),
    ],
)
def test_rows_without_entries_are_refused(call):
    with pytest.raises(InvalidStateError, match=r"^probability vector has no entries$"):
        call()
