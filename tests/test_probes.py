import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcapdet import (
    BipartiteProbeState,
    Detector,
    bell_diagonal_probe,
    bell_povm,
    custom_probe,
    depolarizing_channel,
    isotropic_probe,
    max_entangled_probe,
    reduced_system_state,
    weyl_unitary,
)
from qcapdet.errors import DimensionMismatchError, InvalidStateError
from qcapdet.linalg import double_ket
from randinst import isotropic_terms, random_probe, random_terms

from test_linalg import brute_force_partial_trace


class TestConstructor:
    """The probe is its density matrix: d is derived from sigma, a bare sigma
    is checked as a density matrix, and custom_probe checks its terms.  Each
    check raises when the probe is built."""

    def test_derives_d_and_sigma(self):
        w, ops = isotropic_terms(2, 0.9)
        sigma = custom_probe(w, ops).sigma
        assert np.array_equal(sigma, isotropic_probe(2, 0.9).sigma)
        probe = BipartiteProbeState(sigma, "measured")
        assert probe.d == 2 and probe.label == "measured"
        assert np.array_equal(probe.sigma, sigma)
        assert probe.sigma.shape == (4, 4)

    @pytest.mark.parametrize(
        "sigma, error, match",
        [
            (np.eye(3) / 3, DimensionMismatchError, "not \\(d\\^2, d\\^2\\)"),
            (np.ones((4, 2)) / 4, DimensionMismatchError, "not \\(d\\^2, d\\^2\\)"),
            (np.zeros((0, 0)), DimensionMismatchError, "not \\(d\\^2, d\\^2\\)"),
            (np.eye(4), InvalidStateError, "trace"),
            (np.diag([0.6, 0.6, 0.1, -0.3]), InvalidStateError, "negative eigenvalue"),
            (np.eye(4) / 4 + 0.1 * np.eye(4, k=1), InvalidStateError, "Hermitian"),
            (np.full((4, 4), np.nan), InvalidStateError, "non-finite"),
        ],
        ids=["3 x 3", "not square", "empty", "trace 4", "negative", "not Hermitian", "nan"],
    )
    def test_bare_sigma_is_checked(self, sigma, error, match):
        with pytest.raises(error, match=match):
            BipartiteProbeState(sigma)

    def test_ragged_stack(self):
        with pytest.raises(DimensionMismatchError, match="do not stack"):
            custom_probe([0.5, 0.5], [np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(3)])

    @pytest.mark.parametrize(
        "operators",
        [[np.ones((2, 3)) / np.sqrt(6)], np.eye(2) / np.sqrt(2), []],
        ids=["non-square", "one matrix, not a stack", "empty"],
    )
    def test_stack_shape(self, operators):
        with pytest.raises(DimensionMismatchError, match="operator stack shape"):
            custom_probe([1.0], operators)

    def test_lengths_agree(self):
        w, ops = isotropic_terms(2, 0.9)
        with pytest.raises(DimensionMismatchError, match="disagree in length"):
            custom_probe(w[:-1], ops)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator(self, bad):
        w, ops = isotropic_terms(2, 0.9)
        ops[1, 0, 1] = bad
        with pytest.raises(InvalidStateError, match="non-finite"):
            custom_probe(w, ops)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight(self, bad):
        w, ops = isotropic_terms(2, 0.9)
        w[1] = bad
        with pytest.raises(InvalidStateError, match="non-finite"):
            custom_probe(w, ops)

    def test_nan_never_reaches_a_bound(self):
        # with NaN passing the comparisons, Detector(...).certify(...) gave qdet = nan
        w, ops = isotropic_terms(2, 0.9)
        ops[1, 0, 1] = np.nan
        with pytest.raises(InvalidStateError):
            Detector(custom_probe(w, ops), bell_povm(2)).certify(depolarizing_channel(2, 0.1))

    def test_negative_weight(self):
        w, ops = isotropic_terms(2, 0.9)
        w[0], w[1] = w[0] + 2 * w[1], -w[1]  # the sum stays 1
        with pytest.raises(InvalidStateError, match="negative"):
            custom_probe(w, ops)

    def test_normalization(self):
        w, ops = isotropic_terms(2, 0.9)
        with pytest.raises(InvalidStateError, match="normalization"):
            custom_probe(1.01 * w, ops)


class TestMaxEntangled:
    def test_qubit_is_bell_projector(self):
        probe = max_entangled_probe(2)
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert_allclose(probe.sigma, np.outer(v, v), atol=1e-12)

    def test_self_fidelity(self):
        probe = max_entangled_probe(3)
        v = double_ket(np.eye(3)) / np.sqrt(3)
        assert (v.conj() @ probe.sigma @ v).real == pytest.approx(1.0, abs=1e-12)

    def test_reduced_state(self):
        for d in (2, 3, 4):
            assert_allclose(reduced_system_state(max_entangled_probe(d)), np.eye(d) / d, atol=1e-12)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            max_entangled_probe(1)


class TestBellDiagonal:
    def test_delta_weights_recover_max_entangled(self):
        q = np.zeros((2, 2))
        q[0, 0] = 1.0
        assert_allclose(bell_diagonal_probe(q).sigma, max_entangled_probe(2).sigma, atol=1e-12)

    def test_uniform_weights_give_white_noise(self):
        for d in (2, 3):
            q = np.full((d, d), 1.0 / d**2)
            expected = sum(
                np.outer(v, v.conj())
                for m in range(d)
                for n in range(d)
                for v in [double_ket(weyl_unitary(d, m, n)) / np.sqrt(d)]
            ) / d**2
            probe = bell_diagonal_probe(q)
            assert_allclose(probe.sigma, expected, atol=1e-12)
            assert_allclose(probe.sigma, np.eye(d * d) / d**2, atol=1e-12)

    def test_reduced_state_always_maximally_mixed(self):
        rng = np.random.default_rng(31)
        for d in (2, 3):
            q = rng.random((d, d))
            q /= q.sum()
            assert_allclose(reduced_system_state(bell_diagonal_probe(q)), np.eye(d) / d, atol=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidStateError):
            bell_diagonal_probe(np.array([[0.9, 0.3], [0.0, 0.0]]))
        with pytest.raises(InvalidStateError):
            bell_diagonal_probe(np.array([[1.2, -0.2], [0.0, 0.0]]))

    def test_rejects_non_square_grid(self):
        with pytest.raises(InvalidStateError, match=r"^Bell weight grid must be square, got \(1, 3\)$"):
            bell_diagonal_probe([[1.0, 0.0, 0.0]])


class TestIsotropic:
    def test_perfect_fidelity(self):
        assert_allclose(isotropic_probe(2, 1.0).sigma, max_entangled_probe(2).sigma, atol=1e-12)

    def test_minimal_fidelity_is_white_noise(self):
        d = 2
        assert_allclose(isotropic_probe(d, 1.0 / d**2).sigma, np.eye(d * d) / d**2, atol=1e-12)

    def test_fidelity_expectation(self):
        for d in (2, 3):
            for fid in (0.5, 0.75, 0.9, 1.0):
                if fid < 1.0 / d**2:
                    continue
                probe = isotropic_probe(d, fid)
                v = double_ket(np.eye(d)) / np.sqrt(d)
                assert (v.conj() @ probe.sigma @ v).real == pytest.approx(fid, abs=1e-10)

    def test_fidelity_domain(self):
        with pytest.raises(ValueError):
            isotropic_probe(2, 0.2)  # below 1/d^2
        with pytest.raises(ValueError):
            isotropic_probe(2, 1.01)


class TestCustom:
    def test_single_pure_term(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        a /= np.sqrt(np.trace(a.conj().T @ a).real)
        probe = custom_probe([1.0], [a])
        v = double_ket(a)
        assert_allclose(probe.sigma, np.outer(v, v.conj()), atol=1e-12)

    def test_two_weyl_terms(self):
        d = 2
        ops = [weyl_unitary(d, 0, 0) / np.sqrt(d), weyl_unitary(d, 0, 1) / np.sqrt(d)]
        probe = custom_probe([0.5, 0.5], ops)
        assert np.linalg.matrix_rank(probe.sigma) == 2
        assert_allclose(reduced_system_state(probe), np.eye(d) / d, atol=1e-12)

    def test_spectral_reassembly_of_isotropic(self):
        # sigma's eigenvectors, folded into operators, are another decomposition of it
        probe = isotropic_probe(2, 0.9)
        evals, evecs = np.linalg.eigh(probe.sigma)
        rebuilt = custom_probe(evals, evecs.T.reshape(-1, 2, 2))
        assert_allclose(rebuilt.sigma, probe.sigma, atol=1e-10)
        assert_allclose(reduced_system_state(rebuilt), reduced_system_state(probe), atol=1e-10)

    def test_normalization_enforced(self):
        with pytest.raises(InvalidStateError):
            custom_probe([1.0], [np.eye(2)])  # trace 2, not normalized


class TestIdentity:
    """Probes compare and hash by identity: == on equal-valued probes is
    False instead of an ndarray truth-value error."""

    def test_equal_values_are_distinct(self):
        a, b = isotropic_probe(2, 0.9), isotropic_probe(2, 0.9)
        assert (a == b) is False
        assert a == a and a != b

    def test_dict_key(self):
        a, b = isotropic_probe(2, 0.9), isotropic_probe(2, 0.9)
        table = {a: "a", b: "b"}
        assert table[a] == "a" and table[b] == "b" and len(table) == 2


class TestReducedState:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            probe = random_probe(rng, d)
            direct = brute_force_partial_trace(probe.sigma, d, d, "reference")
            assert np.max(np.abs(reduced_system_state(probe) - direct)) < 1e-10

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(33)

        def max_entangled(d):
            return max_entangled_probe(d), ([1.0], [np.eye(d) / np.sqrt(d)])

        def isotropic(fidelity):
            return isotropic_probe(2, fidelity), isotropic_terms(2, fidelity)

        def random(d):
            terms = random_terms(rng, d)
            return custom_probe(*terms), terms

        makers = [
            lambda: max_entangled(int(rng.integers(2, 5))),
            lambda: isotropic(rng.uniform(0.25, 1.0)),
            lambda: random(int(rng.integers(2, 4))),
        ]
        for _ in range(30):
            probe, terms = makers[int(rng.integers(0, len(makers)))]()
            rebuilt = sum(a * np.outer(double_ket(op), double_ket(op).conj()) for a, op in zip(*terms))
            assert np.max(np.abs(probe.sigma - rebuilt)) < 1e-10
