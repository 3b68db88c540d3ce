import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcapdet import (
    Detector,
    QuantumChannel,
    apply_channel,
    apply_extended_channel,
    bell_povm,
    depolarizing_channel,
    erasure_channel,
    isotropic_probe,
    pauli_channel,
    weyl_unitary,
)
from qcapdet.channels import (
    _channels,
    _depolarizing_channels,
    _erasure_channels,
    _pauli_channels,
    apply_transfers,
    transfer_input,
    weyl_unitaries,
)
from qcapdet.errors import DimensionMismatchError, InvalidStateError
from qcapdet.linalg import partial_trace_system
from randinst import random_channel, random_density, random_probe

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def brute_force_apply(kraus, rho):
    out = np.zeros((kraus[0].shape[0],) * 2, dtype=complex)
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


class TestWeyl:
    def test_identity(self):
        assert_allclose(weyl_unitary(2, 0, 0), np.eye(2))

    def test_qubit_pauli(self):
        assert_allclose(weyl_unitary(2, 1, 0), Z, atol=1e-15)
        assert_allclose(weyl_unitary(2, 0, 1), X, atol=1e-15)

    def test_unitarity(self):
        for d in (2, 3, 5):
            for m in range(d):
                for n in range(d):
                    u = weyl_unitary(d, m, n)
                    assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-12

    def test_orthogonality_d3(self):
        d = 3
        for m in range(d):
            for n in range(d):
                for mp in range(d):
                    for np_ in range(d):
                        tr = np.trace(weyl_unitary(d, m, n).conj().T @ weyl_unitary(d, mp, np_))
                        expected = d if (m, n) == (mp, np_) else 0.0
                        assert abs(tr - expected) < 1e-12

    @pytest.mark.parametrize("d", range(2, 17))
    def test_stack_equals_the_per_index_formula(self, d):
        # The one-(m, n)-at-a-time construction the stack replaced, bit for bit.
        stack = weyl_unitaries(d)
        assert stack.shape == (d * d, d, d)
        k = np.arange(d)
        for m in range(d):
            for n in range(d):
                u = np.zeros((d, d), dtype=complex)
                u[k, (k + n) % d] = np.exp(2j * np.pi * m * k / d)
                assert np.array_equal(stack[m * d + n], u)
                assert np.array_equal(weyl_unitary(d, m, n), u)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_stack_is_built_once_and_read_only(self, d):
        stack = weyl_unitaries(d)
        assert weyl_unitaries(d) is stack
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 2.0

    def test_single_unitary_is_a_writable_copy(self):
        u = weyl_unitary(3, 1, 2)
        assert u.flags.writeable and u.base is None
        u[:] = 0.0
        assert np.array_equal(weyl_unitary(3, 1, 2), weyl_unitaries(3)[5])
        assert np.abs(weyl_unitaries(3)[5]).sum() == 3.0

    def test_index_range(self):
        with pytest.raises(ValueError):
            weyl_unitary(2, 2, 0)
        with pytest.raises(ValueError):
            weyl_unitary(2, 0, -1)


class TestPauliChannel:
    def test_identity_weights(self):
        grid = np.zeros((2, 2))
        grid[0, 0] = 1.0
        ch = pauli_channel(grid)
        rho = random_density(np.random.default_rng(1), 2)
        assert_allclose(apply_channel(ch, rho), rho, atol=1e-12)

    def test_uniform_is_completely_depolarizing(self):
        ch = pauli_channel(np.full((2, 2), 0.25))
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density(rng, 2)
            assert_allclose(apply_channel(ch, rho), np.eye(2) / 2, atol=1e-12)

    def test_invalid_grids(self):
        with pytest.raises(InvalidStateError):
            pauli_channel(np.array([[0.5, 0.6], [0.0, 0.0]]))
        with pytest.raises(InvalidStateError):
            pauli_channel(np.array([[1.5, -0.5], [0.0, 0.0]]))

    def test_non_square_grid(self):
        with pytest.raises(InvalidStateError, match=r"^probability grid must be square, got shape \(1, 2\)$"):
            pauli_channel([[0.5, 0.5]])


class TestDepolarizing:
    def test_p_zero_identity(self):
        ch = depolarizing_channel(3, 0.0)
        rho = random_density(np.random.default_rng(3), 3)
        assert_allclose(apply_channel(ch, rho), rho, atol=1e-12)

    def test_p_one_is_cptp_pauli_mix(self):
        ch = depolarizing_channel(2, 1.0)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert_allclose(total, np.eye(2), atol=1e-12)
        rho = np.diag([1.0, 0.0]).astype(complex)
        expected = (X @ rho @ X + Z @ rho @ Z + (X @ Z) @ rho @ (X @ Z).conj().T) / 3
        assert_allclose(apply_channel(ch, rho), expected, atol=1e-12)

    def test_three_quarters_fully_mixes_qubit(self):
        ch = depolarizing_channel(2, 0.75)
        rng = np.random.default_rng(4)
        for _ in range(10):
            assert_allclose(apply_channel(ch, random_density(rng, 2)), np.eye(2) / 2, atol=1e-12)

    def test_pure_state_output(self):
        # brute-force Kraus application oracle for diag(1 - 2p/3, 2p/3)
        for p in (0.1, 0.35, 0.8):
            ch = depolarizing_channel(2, p)
            rho = np.diag([1.0, 0.0]).astype(complex)
            assert_allclose(
                brute_force_apply(ch.kraus, rho), np.diag([1 - 2 * p / 3, 2 * p / 3]), atol=1e-12
            )
            assert_allclose(apply_channel(ch, rho), np.diag([1 - 2 * p / 3, 2 * p / 3]), atol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            depolarizing_channel(2, -0.1)
        with pytest.raises(ValueError):
            depolarizing_channel(2, 1.1)


class TestErasure:
    def test_p_zero_embeds(self):
        ch = erasure_channel(2, 0.0)
        rho = random_density(np.random.default_rng(5), 2)
        out = apply_channel(ch, rho)
        assert_allclose(out[:2, :2], rho, atol=1e-12)
        assert abs(out[2, 2]) < 1e-12

    def test_p_one_flags_everything(self):
        ch = erasure_channel(2, 1.0)
        rho = random_density(np.random.default_rng(6), 2)
        out = apply_channel(ch, rho)
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        assert_allclose(out, expected, atol=1e-12)

    def test_flag_population(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.uniform(0, 1)
            d = int(rng.integers(2, 4))
            out = apply_channel(erasure_channel(d, p), random_density(rng, d))
            assert out[d, d].real == pytest.approx(p, abs=1e-12)

    def test_maximally_mixed_output(self):
        out = apply_channel(erasure_channel(2, 0.2), np.eye(2) / 2)
        assert_allclose(out, np.diag([0.4, 0.4, 0.2]), atol=1e-12)

    def test_output_dimension(self):
        ch = erasure_channel(3, 0.5)
        assert ch.dim_in == 3 and ch.dim_out == 4


class TestApply:
    def test_cptp_preserved_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            ch = random_channel(rng, d, d + int(rng.integers(0, 2)))
            out = apply_channel(ch, random_density(rng, d))
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out).min() > -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_channel(depolarizing_channel(2, 0.1), np.eye(3) / 3)

    def test_non_tp_kraus_rejected(self):
        with pytest.raises(InvalidStateError):
            QuantumChannel(2, 2, (np.eye(2) * 0.9,))
        with pytest.raises(InvalidStateError):
            QuantumChannel(2, 2, ())


class TestKrausArray:
    """Kraus operators may come as one (n, dim_out, dim_in) array."""

    def test_array_equals_the_sequence(self):
        kraus = depolarizing_channel(2, 0.3).kraus
        ch = QuantumChannel(2, 2, np.array(kraus), "array")
        assert isinstance(ch.kraus, tuple) and len(ch.kraus) == 4
        assert np.array_equal(ch.kraus, kraus)
        assert np.array_equal(ch.transfer, QuantumChannel(2, 2, kraus).transfer)

    def test_identity_array(self):
        ch = QuantumChannel(2, 2, np.array([np.eye(2)]))
        rho = random_density(np.random.default_rng(9), 2)
        assert_allclose(apply_channel(ch, rho), rho, atol=1e-15)

    @pytest.mark.parametrize("empty", [np.zeros((0, 2, 2)), np.zeros(0), [], ()])
    def test_empty_stack_is_refused(self, empty):
        with pytest.raises(InvalidStateError, match="^channel needs at least one Kraus operator$"):
            QuantumChannel(2, 2, empty)

    def test_checks_keep_their_messages(self):
        with pytest.raises(DimensionMismatchError, match=r"^Kraus operator shape \(2, 3\) != \(2, 2\)$"):
            QuantumChannel(2, 2, np.zeros((1, 2, 3)))
        with pytest.raises(InvalidStateError, match="^Kraus operators contain non-finite entries$"):
            QuantumChannel(2, 2, np.array([[[np.nan, 0], [0, 1]]]))
        with pytest.raises(InvalidStateError, match="^Kraus operators are not trace preserving$"):
            QuantumChannel(2, 2, np.array([0.9 * np.eye(2)]))
        with pytest.raises(InvalidStateError, match="^Kraus operators are not trace preserving$"):
            QuantumChannel(2, 2, np.array([[[1e308, 0], [0, 1]]]))


def _blocks(values, size):
    return [values[i : i + size] for i in range(0, len(values), size)]


def _same_channel(a, b):
    return (
        (a.dim_in, a.dim_out, a.label) == (b.dim_in, b.dim_out, b.label)
        and np.array_equal(a.kraus, b.kraus)
        and np.array_equal(a.transfer, b.transfer)
    )


class TestStackedBuild:
    """A family builder given N parameters builds N channels as one checked
    stack with transfer matrices from one batched product; each equals,
    bit for bit, the channel its one-point call builds."""

    @pytest.mark.parametrize("size", [1, 3, 1024])
    @pytest.mark.parametrize("d", range(2, 17))
    @pytest.mark.parametrize(
        "stacked, one",
        [(_depolarizing_channels, depolarizing_channel), (_erasure_channels, erasure_channel)],
        ids=["depolarizing", "erasure"],
    )
    def test_noise_families_equal_their_one_point_builds(self, stacked, one, d, size):
        rng = np.random.default_rng(d)
        ps = [float(p) for p in rng.permutation(np.concatenate([[0.0, 1.0], rng.random(5)]))]
        channels = [ch for block in _blocks(ps, size) for ch in stacked(d, block)]
        assert len(channels) == len(ps)
        assert all(_same_channel(ch, one(d, p)) for ch, p in zip(channels, ps))

    @pytest.mark.parametrize("size", [1, 3, 1024])
    @pytest.mark.parametrize("d", range(2, 17))
    def test_pauli_grids_equal_their_one_point_builds(self, d, size):
        rng = np.random.default_rng(100 + d)
        grids = rng.random((5, d, d))
        grids /= grids.sum(axis=(1, 2), keepdims=True)
        grids[1] = 0.0
        grids[1, 0, 0] = 1.0  # the identity channel
        channels = [ch for block in _blocks(grids, size) for ch in _pauli_channels(block)]
        assert all(_same_channel(ch, pauli_channel(grid)) for ch, grid in zip(channels, grids))

    def test_a_lone_channel_forms_its_transfer_on_first_use(self):
        (lone,) = _depolarizing_channels(2, [0.1])
        assert "transfer" not in vars(lone)
        pair = _depolarizing_channels(2, [0.1, 0.2])
        assert all("transfer" in vars(ch) for ch in pair)

    def test_a_corrupted_stack_names_its_first_failing_channel(self):
        stack = np.array([np.array(depolarizing_channel(2, p).kraus) for p in (0.0, 0.1, 0.2, 0.3, 0.4)])
        labels = [f"ch{k}" for k in range(5)]
        bad = stack.copy()
        bad[2] *= 1.1
        bad[4, 0, 0, 0] = np.nan
        with pytest.raises(InvalidStateError, match="^Kraus operators are not trace preserving$") as raised:
            _channels(2, 2, bad, labels)
        assert raised.value.row == 2
        bad[1, 0, 0, 0] = np.inf
        with pytest.raises(InvalidStateError, match="^Kraus operators contain non-finite entries$") as raised:
            _channels(2, 2, bad, labels)
        assert raised.value.row == 1
        bad = stack.copy()
        bad[3, 0, 0, 0] = 1e308  # fails before sum_k K^dagger K could overflow
        with pytest.raises(InvalidStateError, match="^Kraus operators are not trace preserving$") as raised:
            _channels(2, 2, bad, labels)
        assert raised.value.row == 3
        with pytest.raises(DimensionMismatchError, match=r"^Kraus operator shape \(2, 2\) != \(3, 2\)$"):
            _channels(2, 3, stack, labels)

    def test_a_bad_grid_names_its_first_failing_grid(self):
        grids = np.full((4, 2, 2), 0.25)
        grids[2, 0] = [0.5, 0.6]
        grids[3, 0] = [1.5, -0.5]
        with pytest.raises(InvalidStateError, match="^Weyl weights sum to 1.6, not 1$") as raised:
            _pauli_channels(grids)
        assert raised.value.row == 2
        grids[1, 0] = [0.75, -0.25]
        with pytest.raises(InvalidStateError, match="^negative Weyl weight -0.25$") as raised:
            _pauli_channels(grids)
        assert raised.value.row == 1

    @pytest.mark.parametrize(
        "stacked, noise",
        [(_depolarizing_channels, "depolarizing strength"), (_erasure_channels, "erasure probability")],
    )
    def test_the_first_value_outside_the_domain_is_named(self, stacked, noise):
        with pytest.raises(ValueError, match=rf"^{noise} 1.5 outside \[0, 1\]$"):
            stacked(2, [0.0, 0.5, 1.5, -1.0])


class TestExtended:
    def test_identity_channel(self):
        rng = np.random.default_rng(9)
        sigma = random_density(rng, 6)
        ch = QuantumChannel(3, 3, (np.eye(3, dtype=complex),), label="identity")
        assert_allclose(apply_extended_channel(ch, sigma, 2), sigma, atol=1e-12)

    def test_erasure_block_structure(self):
        # isotropic input: top block keeps weight 1-p, flag block carries p
        from qcapdet import isotropic_probe

        d, p, fid = 2, 0.3, 0.9
        probe = isotropic_probe(d, fid)
        out = apply_extended_channel(erasure_channel(d, p), probe.sigma, d)
        kept = out.reshape(d, d + 1, d, d + 1)[:, :d, :, :d].reshape(d * d, d * d)
        assert np.trace(kept).real == pytest.approx(1 - p, abs=1e-12)
        assert_allclose(kept, (1 - p) * probe.sigma, atol=1e-12)
        flag = out.reshape(d, d + 1, d, d + 1)[:, d, :, d]
        assert_allclose(flag, p * np.eye(d) / d, atol=1e-12)

    def test_reference_marginal_unchanged(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            probe = random_probe(rng, d)
            ch = random_channel(rng, d, d + int(rng.integers(0, 2)))
            out = apply_extended_channel(ch, probe.sigma, d)
            before = partial_trace_system(probe.sigma, d, d)
            after = partial_trace_system(out, d, ch.dim_out)
            assert np.max(np.abs(before - after)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_extended_channel(depolarizing_channel(2, 0.1), np.eye(6) / 6, 2)

    def test_one_transfer_broadcasts_over_a_stack_of_inputs(self):
        rng = np.random.default_rng(11)
        for d, d_out in ((2, 2), (2, 3), (3, 4)):
            ch = random_channel(rng, d, d_out)
            sigmas = np.array([random_probe(rng, d).sigma for _ in range(5)])
            pairs = transfer_input(sigmas, d, d)
            assert pairs.shape == (5, d * d, d * d)
            stacked = apply_transfers(ch.transfer, pairs, d)
            assert stacked.shape == (5, d * d_out, d * d_out)
            for sigma, pair, out in zip(sigmas, pairs, stacked):
                assert np.array_equal(pair, transfer_input(sigma, d, d))
                assert np.array_equal(out, apply_transfers(ch.transfer, pair, d))  # the same product per input
                assert_allclose(out, apply_extended_channel(ch, sigma, d), atol=1e-12)


def corrupted_at_one(corrupt):
    """Three d = 2 depolarizing channels, built one by one so that each forms
    its transfer matrix on first use, with channel 1's Kraus operators
    replaced by corrupt(K) after construction."""
    channels = [depolarizing_channel(2, p) for p in (0.1, 0.2, 0.3)]
    object.__setattr__(channels[1], "kraus", tuple(corrupt(k) for k in channels[1].kraus))  # bypass construction
    return channels


class TestApplySequence:
    """apply_channel and apply_extended_channel over a sequence of channels
    sharing (dim_in, dim_out): one product of the stacked transfer matrices,
    checked as one stack, each output as the channel alone gives it."""

    def families(self, rng, d):
        """Channels of each family at input dim d, grouped by (dim_in, dim_out)."""
        grids = rng.random((3, d, d))
        return [
            _depolarizing_channels(d, [0.0, 0.3, 1.0]),
            _erasure_channels(d, [0.0, 0.25, 1.0]),
            _pauli_channels(grids / grids.sum(axis=(1, 2), keepdims=True)),
            [pauli_channel(grid / grid.sum()) for grid in grids],  # transfer matrices formed on first use
            [random_channel(rng, d, d + 1) for _ in range(3)],
        ]

    @pytest.mark.parametrize("d", range(2, 9))
    def test_the_stack_equals_the_outputs_one_by_one(self, d):
        rng = np.random.default_rng(40 + d)
        rho, sigma = random_density(rng, d), random_probe(rng, d).sigma
        for channels in self.families(rng, d):
            stacked = apply_channel(channels, rho)
            assert stacked.shape == (len(channels), channels[0].dim_out, channels[0].dim_out)
            assert all(np.array_equal(out, apply_channel(ch, rho)) for out, ch in zip(stacked, channels))
            extended = apply_extended_channel(iter(channels), sigma, d)  # any iterable
            assert extended.shape == (len(channels), d * channels[0].dim_out, d * channels[0].dim_out)
            assert all(np.array_equal(out, apply_extended_channel(ch, sigma, d)) for out, ch in zip(extended, channels))

    def test_one_channel_gives_its_matrix_and_a_list_of_one_a_stack(self):
        ch, rho = erasure_channel(3, 0.2), random_density(np.random.default_rng(12), 3)
        assert apply_channel(ch, rho).shape == (4, 4)
        assert np.array_equal(apply_channel([ch], rho), apply_channel(ch, rho)[None])

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_n_channels_make_two_decompositions(self, monkeypatch, n):
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        apply_channel(_depolarizing_channels(3, np.linspace(0.0, 1.0, n)), np.eye(3) / 3)
        assert calls == ["eigvalsh", "eigvalsh"]  # the state, then the stack of outputs

    def test_mixed_dims_are_refused_with_the_first_row(self):
        channels = [depolarizing_channel(2, 0.1), depolarizing_channel(2, 0.2), erasure_channel(2, 0.1)]
        message = r"^channel \(dim_in, dim_out\) = \(2, 3\) != \(2, 2\) of channel 0$"
        with pytest.raises(DimensionMismatchError, match=message) as raised:
            apply_channel(channels, np.eye(2) / 2)
        assert raised.value.row == 2

    def test_an_empty_sequence_is_refused(self):
        with pytest.raises(DimensionMismatchError, match="^no channels to apply$") as raised:
            apply_channel([], np.eye(2) / 2)
        assert raised.value.row == 0

    def test_the_state_is_checked_first(self):
        with pytest.raises(InvalidStateError, match="^density matrix trace"):
            apply_channel(corrupted_at_one(lambda k: 1.1 * k), np.eye(2))

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda k: 1.1 * k, r"density matrix trace \(1.2100000000000002\+0j\) differs from 1"),
            (lambda k: np.full_like(k, np.nan), "matrix contains non-finite entries"),
        ],
        ids=["scaled", "nan"],
    )
    def test_a_corrupted_channel_is_named_by_its_row(self, corrupt, message):
        channels = corrupted_at_one(corrupt)
        with pytest.raises(InvalidStateError, match=f"^{message}$") as raised:
            apply_channel(channels, np.eye(2) / 2)
        assert raised.value.row == 1
        with pytest.raises(InvalidStateError, match=f"^{message}$"):  # the message the channel alone gives
            apply_channel(channels[1], np.eye(2) / 2)

    def test_a_non_finite_row_is_named_after_an_earlier_failing_row(self):
        channels = corrupted_at_one(lambda k: 1.1 * k)
        object.__setattr__(channels[2], "kraus", tuple(np.full_like(k, np.nan) for k in channels[2].kraus))
        with pytest.raises(InvalidStateError, match="^density matrix trace") as raised:
            apply_channel(channels, np.eye(2) / 2)
        assert raised.value.row == 1

    def test_the_detector_names_a_non_finite_output(self):
        detector = Detector(isotropic_probe(2, 0.95), bell_povm(2))
        message = r"^channel 1 \(depolarizing\(d=2, p=0.2\)\): matrix contains non-finite entries$"
        with pytest.raises(InvalidStateError, match=message) as raised:
            list(detector.certify_many(corrupted_at_one(lambda k: np.full_like(k, np.nan))))
        assert raised.value.row == 1


class TestIdentity:
    """Channels compare and hash by identity: == on equal-valued channels is
    False instead of an ndarray truth-value error."""

    def test_equal_values_are_distinct(self):
        a, b = depolarizing_channel(2, 0.1), depolarizing_channel(2, 0.1)
        assert (a == b) is False
        assert a == a and a != b

    def test_dict_key(self):
        a, b = depolarizing_channel(2, 0.1), depolarizing_channel(2, 0.1)
        table = {a: "a", b: "b"}
        assert table[a] == "a" and table[b] == "b" and len(table) == 2
