import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcapdet import (
    Povm,
    bell_diagonal_probe,
    bell_povm,
    coarse_grain,
    custom_probe,
    depolarizing_channel,
    erasure_channel,
    erasure_povm,
    isotropic_probe,
    max_entangled_probe,
    outcome_probabilities,
    pauli_bell_convolution,
    pauli_channel,
    reduced_system_state,
    t_vector,
    weyl_unitary,
)
from qcapdet.errors import DimensionMismatchError, InvalidStateError
from qcapdet.linalg import double_ket, partial_trace_system, psd_rank
from qcapdet.measurement import iter_partitions, outcome_weights
from randinst import random_channel, random_povm, random_probe, random_unitary


def brute_force_convolution(p, q):
    """O(d^4) double loop, written directly from the index rule."""
    d = p.shape[0]
    out = np.zeros((d, d))
    for m in range(d):
        for n in range(d):
            for l in range(d):
                for s in range(d):
                    out[m, n] += p[l, s] * q[(m - l) % d, (n + s) % d]
    return out.reshape(-1)


class TestBellPovm:
    def test_qubit_elements_are_bell_projectors(self):
        povm = bell_povm(2)
        assert len(povm) == 4
        phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert_allclose(povm.elements[0], np.outer(phi_plus, phi_plus), atol=1e-12)

    def test_orthogonality(self):
        povm = bell_povm(2)
        for i, a in enumerate(povm.elements):
            for j, b in enumerate(povm.elements):
                expected = a if i == j else np.zeros_like(a)
                assert np.max(np.abs(a @ b - expected)) < 1e-12

    def test_completeness(self):
        for d in (2, 3):
            total = sum(bell_povm(d).elements)
            assert np.max(np.abs(total - np.eye(d * d))) < 1e-10

    @pytest.mark.parametrize("d", range(2, 9))
    def test_local_expansion_identity(self, d):
        # Pi_mn = d^-2 sum_pq exp(2 pi i (n p - m q) / d) U_pq x conj(U_pq),
        # with (m, n) and (p, q) both enumerated in bell_povm order
        m, n = np.repeat(np.arange(d), d), np.tile(np.arange(d), d)
        products = np.array([np.kron(u, u.conj()) for u in (weyl_unitary(d, a, b) for a, b in zip(m, n))])
        phases = np.exp(2j * np.pi * (np.outer(n, m) - np.outer(m, n)) / d)
        local = np.tensordot(phases, products, axes=1) / d**2
        assert np.max(np.abs(local - np.array(bell_povm(d).elements))) < 1e-10


class TestErasurePovm:
    def test_element_count(self):
        assert len(erasure_povm(2)) == 6
        assert len(erasure_povm(3)) == 12

    def test_completeness(self):
        for d in (2, 3):
            total = sum(erasure_povm(d).elements)
            assert np.max(np.abs(total - np.eye(d * (d + 1)))) < 1e-10

    def test_labels(self):
        povm = erasure_povm(2)
        assert povm.labels[0] == "bell_0_0"
        assert povm.labels[-1] == "flag_1"


class TestPovmValidation:
    def test_rejects_incomplete(self):
        with pytest.raises(InvalidStateError):
            Povm(2, (np.eye(2) * 0.5,))

    def test_rejects_non_psd(self):
        half = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvalidStateError):
            Povm(2, (half, np.eye(2) - half))


class TestOutcomeProbabilities:
    def test_bell_state_in_bell_basis(self):
        p = outcome_probabilities(
            max_entangled_probe(2),
            pauli_channel(np.array([[1.0, 0.0], [0.0, 0.0]])),
            bell_povm(2),
        )
        assert_allclose(p, [1, 0, 0, 0], atol=1e-12)

    def test_depolarizing_weights(self):
        for d in (2, 3):
            for p_noise in (0.1, 0.4):
                p = outcome_probabilities(
                    max_entangled_probe(d), depolarizing_channel(d, p_noise), bell_povm(d)
                )
                expected = np.full(d * d, p_noise / (d * d - 1))
                expected[0] = 1 - p_noise
                assert_allclose(p, expected, atol=1e-12)

    def test_erasure_with_isotropic_probe(self):
        d, p_noise, fid = 2, 0.3, 0.9
        p = outcome_probabilities(
            isotropic_probe(d, fid), erasure_channel(d, p_noise), erasure_povm(d)
        )
        assert p[0] == pytest.approx((1 - p_noise) * fid, abs=1e-12)
        for k in range(1, d * d):
            assert p[k] == pytest.approx((1 - p_noise) * (1 - fid) / (d * d - 1), abs=1e-12)
        for k in range(d * d, d * d + d):
            assert p[k] == pytest.approx(p_noise / d, abs=1e-12)

    def test_random_instances_give_valid_distributions(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            ch = random_channel(rng, d)
            probe = random_probe(rng, d)
            povm = random_povm(rng, d * ch.dim_out)
            p = outcome_probabilities(probe, ch, povm)
            assert p.min() >= 0.0 and abs(p.sum() - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            outcome_probabilities(max_entangled_probe(2), erasure_channel(2, 0.1), bell_povm(2))


class TestConvolution:
    def test_delta_probe_recovers_channel_grid_qubit(self):
        rng = np.random.default_rng(42)
        delta = np.zeros((2, 2))
        delta[0, 0] = 1.0
        for _ in range(10):
            p = rng.random((2, 2))
            p /= p.sum()
            assert_allclose(pauli_bell_convolution(p, delta), p.reshape(-1), atol=1e-14)

    def test_delta_probe_higher_dimension_relabels(self):
        # for d > 2 the recovery holds up to the n -> -n outcome relabeling,
        # which leaves every entropy-derived quantity unchanged
        rng = np.random.default_rng(43)
        d = 3
        delta = np.zeros((d, d))
        delta[0, 0] = 1.0
        p = rng.random((d, d))
        p /= p.sum()
        out = pauli_bell_convolution(p, delta).reshape(d, d)
        assert_allclose(out, p[:, (-np.arange(d)) % d], atol=1e-14)
        assert out[0, 0] == pytest.approx(p[0, 0], abs=1e-14)

    def test_depolarizing_isotropic_top_entry(self):
        d, p_noise, fid = 2, 0.15, 0.9
        grid = np.full((d, d), p_noise / (d * d - 1))
        grid[0, 0] = 1 - p_noise
        q = np.full((d, d), (1 - fid) / (d * d - 1))
        q[0, 0] = fid
        out = pauli_bell_convolution(grid, q)
        expected = (1 - p_noise) * fid + p_noise * (1 - fid) / (d * d - 1)
        assert out[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(44)
        for d in (2, 3, 4):
            for _ in range(10):
                p = rng.random((d, d))
                p /= p.sum()
                q = rng.random((d, d))
                q /= q.sum()
                assert_allclose(
                    pauli_bell_convolution(p, q), brute_force_convolution(p, q), atol=1e-12
                )

    def test_matches_pipeline(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            p = rng.random((d, d))
            p /= p.sum()
            q = rng.random((d, d))
            q /= q.sum()
            pipeline = outcome_probabilities(
                bell_diagonal_probe(q), pauli_channel(p), bell_povm(d)
            )
            assert np.max(np.abs(pipeline - pauli_bell_convolution(p, q))) < 1e-10


class TestTVector:
    def test_invertible_pure_probe_gives_element_traces(self):
        rng = np.random.default_rng(46)
        d = 3
        a = random_unitary(rng, d) @ np.diag(rng.uniform(0.5, 1.5, size=d)).astype(complex)
        a /= np.sqrt(np.trace(a.conj().T @ a).real)
        probe = custom_probe([1.0], [a])
        povm = random_povm(rng, d * d)
        t = t_vector(probe, povm)
        traces = np.array([np.trace(e).real for e in povm.elements])
        assert_allclose(t, traces, atol=1e-9)

    def test_bell_diagonal_probe_bell_povm_unit_weights(self):
        rng = np.random.default_rng(47)
        for d in (2, 3):
            q = rng.random((d, d))
            q /= q.sum()
            t = t_vector(bell_diagonal_probe(q), bell_povm(d))
            assert_allclose(t, np.ones(d * d), atol=1e-9)

    def test_max_entangled_projector_element_weight(self):
        # rank-one maximally entangled POVM element picks up rank(rho)/d
        rng = np.random.default_rng(48)
        d = 2
        for rank in (1, 2):
            probe = random_probe(rng, d, rank=rank)
            u = random_unitary(rng, d)
            v = double_ket(u) / np.sqrt(d)
            el = np.outer(v, v.conj())
            povm = Povm(d * d, (el, np.eye(d * d) - el))
            t = t_vector(probe, povm)
            assert t[0] == pytest.approx(psd_rank(reduced_system_state(probe)) / d, abs=1e-9)

    def test_maximally_mixed_reduced_state_formula(self):
        # rho = I/d: t_i = d * Tr[Tr_S(sigma) Tr_S(Pi_i)]
        rng = np.random.default_rng(49)
        d = 2
        q = rng.random((d, d))
        q /= q.sum()
        probe = bell_diagonal_probe(q)
        povm = random_povm(rng, d * d)
        t = t_vector(probe, povm)
        ref_sigma = partial_trace_system(probe.sigma, d, d)
        for i, el in enumerate(povm.elements):
            expected = d * np.trace(ref_sigma @ partial_trace_system(el, d, d)).real
            assert t[i] == pytest.approx(expected, abs=1e-9)

    def test_bell_diagonal_any_povm_gives_traces(self):
        rng = np.random.default_rng(50)
        d = 3
        q = rng.random((d, d))
        q /= q.sum()
        probe = bell_diagonal_probe(q)
        povm = random_povm(rng, d * d)
        t = t_vector(probe, povm)
        traces = np.array([np.trace(e).real for e in povm.elements])
        assert_allclose(t, traces, atol=1e-9)

    def test_constant_traces_give_constant_log_term(self):
        # t_i = Tr[Pi_i] = k constant implies t.p = k for every distribution
        rng = np.random.default_rng(51)
        d = 2
        probe = bell_diagonal_probe(np.full((d, d), 1 / d**2))
        povm = bell_povm(d)
        t = t_vector(probe, povm)
        k = d * d / len(povm)
        assert_allclose(t, np.full(len(povm), k), atol=1e-9)
        ch = random_channel(rng, d, d)
        p = outcome_probabilities(probe, ch, povm)
        assert float(t @ p) == pytest.approx(k, abs=1e-9)

    def test_erasure_isotropic_all_unit(self):
        t = t_vector(isotropic_probe(2, 0.85), erasure_povm(2))
        assert_allclose(t, np.ones(6), atol=1e-9)
        # hence the log correction term vanishes for any channel output
        p = outcome_probabilities(isotropic_probe(2, 0.85), erasure_channel(2, 0.25), erasure_povm(2))
        assert np.log2(float(t @ p)) == pytest.approx(0.0, abs=1e-9)

    def test_sum_rule_random_instances(self):
        rng = np.random.default_rng(52)
        for trial in range(100):
            d = int(rng.integers(2, 4))
            rank = int(rng.integers(1, d + 1)) if trial % 3 == 0 else None
            probe = random_probe(rng, d, rank=rank)
            povm = random_povm(rng, d * d)
            t = t_vector(probe, povm)
            expected = d * psd_rank(reduced_system_state(probe))
            assert t.sum() == pytest.approx(expected, abs=1e-8)


class TestCoarseGrain:
    def test_trivial_partition(self):
        p = np.array([0.5, 0.3, 0.2])
        t = np.array([1.0, 2.0, 3.0])
        pm, tm = coarse_grain(p, t, [(0,), (1,), (2,)])
        assert_allclose(pm, p)
        assert_allclose(tm, t)

    def test_single_group(self):
        p = np.array([0.5, 0.3, 0.2])
        t = np.array([1.0, 2.0, 3.0])
        pm, tm = coarse_grain(p, t, [(0, 1, 2)])
        assert_allclose(pm, [1.0])
        assert_allclose(tm, [6.0])

    def test_merge_depolarizing_tail(self):
        d, p_noise = 2, 0.2
        probe = max_entangled_probe(d)
        povm = bell_povm(d)
        p = outcome_probabilities(probe, depolarizing_channel(d, p_noise), povm)
        t = t_vector(probe, povm)
        pm, tm = coarse_grain(p, t, [(0,), (1, 2, 3)])
        assert_allclose(pm, [1 - p_noise, p_noise], atol=1e-12)
        assert_allclose(tm, [1.0, 3.0], atol=1e-9)

    def test_invalid_partitions(self):
        p = np.array([0.5, 0.5])
        t = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            coarse_grain(p, t, [(0,)])
        with pytest.raises(ValueError):
            coarse_grain(p, t, [(0, 1), (1,)])
        with pytest.raises(ValueError):
            coarse_grain(p, t, [(0, 1), ()])


def test_partition_enumeration_counts():
    # Bell numbers 1, 2, 5, 15, 52, 203
    for n, count in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        parts = list(iter_partitions(n))
        assert len(parts) == count
        seen = {tuple(sorted(tuple(sorted(g)) for g in p)) for p in parts}
        assert len(seen) == count


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Povm(2, ()), InvalidStateError, "POVM needs at least one element"),
        (lambda: Povm(2, (np.eye(3),)), DimensionMismatchError, "POVM element shape (3, 3) != (2, 2)"),
        (
            lambda: outcome_probabilities(max_entangled_probe(3), depolarizing_channel(2, 0.1), bell_povm(2)),
            DimensionMismatchError,
            "channel input dim 2 != probe dim 3",
        ),
        (
            lambda: pauli_bell_convolution(np.full((2, 2), 0.25), np.full((3, 3), 1.0 / 9.0)),
            DimensionMismatchError,
            "incompatible grids (2, 2) and (3, 3)",
        ),
        (
            lambda: outcome_weights(max_entangled_probe(2).sigma, Povm(3, (np.eye(3),)), np.eye(2), 2),
            DimensionMismatchError,
            "POVM dim 3 not divisible by probe dim 2",
        ),
    ],
    ids=["no elements", "element shape", "channel input dim", "convolution grids", "POVM dim not divisible"],
)
def test_shape_checks_keep_their_messages(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
