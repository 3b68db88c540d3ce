"""Stacked constructors and products against the per-term loops they replaced.

The loops below are kept verbatim as the reference.  Quantities that are
public (t, the marginal, coarse-grained statistics, probes built from a
density matrix, the erasure Kraus operators, channel outputs) are compared
directly; the probe's loops run over three decompositions of its sigma (see
randinst.decompositions).  The sums that only feed a construction check
(trace preservation, the probe's normalization, the density check of a
sigma from outside) are compared through their check: with its tolerance
set 1e-12 below the reference residual the check must fire, and 1e-12 above
it must pass.
"""

import importlib
import json
from itertools import chain

import numpy as np
import pytest

from qcapdet import (
    BipartiteProbeState,
    Detector,
    QuantumChannel,
    bell_povm,
    coarse_grain,
    depolarizing_channel,
    erasure_channel,
    erasure_povm,
    isotropic_probe,
)
from qcapdet.channels import apply_transfers, transfer_input
from qcapdet.cli import main
from qcapdet.errors import DimensionMismatchError, InvalidStateError
from qcapdet.linalg import (
    PINV_CUTOFF,
    hermitian_eigen,
    hermitian_part,
    pseudo_inverse,
    psd_rank,
    validate_density_matrix,
)
from qcapdet.measurement import outcome_weights
from qcapdet.probes import custom_probe, reduced_system_state
from randinst import decompositions, isotropic_terms, random_channel, random_povm, random_probe, random_terms

channels_module = importlib.import_module("qcapdet.channels")
linalg_module = importlib.import_module("qcapdet.linalg")
probes_module = importlib.import_module("qcapdet.probes")

STEP = 1e-12  # how far a tolerance is set from the reference residual
DIMS = range(2, 7)


# --- the replaced loops, verbatim ------------------------------------------


def tp_sum_reference(kraus):
    return sum(k.conj().T @ k for k in kraus)


def normalization_reference(w, ops):
    return float(sum(a * np.trace(op.conj().T @ op).real for a, op in zip(w, ops)))


def from_terms_reference(w, ops):
    return sum(a * (op.conj().T @ op) for a, op in zip(w, ops)).T


def t_reference(w, ops, povm, rho_t_pinv):
    dim_out = povm.dim // ops.shape[1]
    left = sum(a * (op @ rho_t_pinv @ op.conj().T) for a, op in zip(w, ops))
    t = povm.traces(np.kron(left, np.eye(dim_out)))
    return np.where((t < 0.0) & (t > -1e-10), 0.0, t)


def coarse_grain_reference(p, t, groups):
    p_merged = np.array([p[list(g)].sum() for g in groups])
    t_merged = np.array([t[list(g)].sum() for g in groups])
    return p_merged, t_merged


def probe_from_density_reference(sigma):
    sigma = validate_density_matrix(sigma)
    d = int(round(np.sqrt(sigma.shape[0])))
    evals, evecs = hermitian_eigen(sigma)
    cutoff = PINV_CUTOFF * max(evals.max(), 0.0)
    keep = evals > cutoff
    weights = evals[keep]
    ops = np.asarray([evecs[:, j].reshape(d, d) for j in np.nonzero(keep)[0]])
    weights = weights / weights.sum()
    return d, weights, ops


def erasure_kraus_reference(d, p):
    embed = np.zeros((d + 1, d), dtype=complex)
    embed[:d, :] = np.eye(d)
    kraus = [np.sqrt(1.0 - p) * embed]
    for i in range(d):
        flip = np.zeros((d + 1, d), dtype=complex)
        flip[d, i] = np.sqrt(p)
        kraus.append(flip)
    return kraus


# --- instances ---------------------------------------------------------------


def named_channels():
    """Random Kraus sets (some dimension-changing), Bell-diagonal and erasure."""
    rng = np.random.default_rng(8)
    out = [random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)), n_kraus=4) for _ in range(12)]
    for d in DIMS:
        out += [depolarizing_channel(d, 0.1), erasure_channel(d, 0.3)]
    return out


def named_terms():
    """Decomposition terms of random probes (full and reduced rank) and of isotropic probes."""
    rng = np.random.default_rng(9)
    out = [random_terms(rng, int(rng.integers(2, 5))) for _ in range(8)]
    out += [random_terms(rng, 4, rank=2), random_terms(rng, 3, n_terms=6, rank=1)]
    return out + [isotropic_terms(d, 0.93) for d in DIMS]


def bracket(build, module, name, residual, error, monkeypatch, match=None):
    """The check on ``module.name`` fires 1e-12 below ``residual`` and passes 1e-12 above."""
    monkeypatch.setattr(module, name, residual - STEP)
    with pytest.raises(error, match=match):
        build()
    monkeypatch.setattr(module, name, residual + STEP)
    build()


class TestChannelStack:
    @pytest.mark.parametrize("index", range(len(named_channels())))
    def test_tp_residual_matches_the_loop(self, index, monkeypatch):
        ch = named_channels()[index]
        rng = np.random.default_rng(index)
        distort = np.eye(ch.dim_out) + 0.05 * rng.normal(size=(ch.dim_out, ch.dim_out))
        kraus = [distort @ k for k in ch.kraus[:1]] + [1.02 * k for k in ch.kraus[1:]]
        residual = np.max(np.abs(tp_sum_reference(kraus) - np.eye(ch.dim_in)))
        assert residual > 1e-3
        build = lambda: QuantumChannel(ch.dim_in, ch.dim_out, tuple(kraus))
        bracket(build, channels_module, "TP_TOL", residual, InvalidStateError, monkeypatch)

    @pytest.mark.parametrize("index", range(len(named_channels())))
    def test_transfer_matrix_and_outputs(self, index):
        ch = named_channels()[index]
        o, i = ch.dim_out, ch.dim_in
        # sum_a T[(a, a), (b, e)] is conj(sum_k K^dagger K)[b, e]
        traced = np.einsum("aabe->be", ch.transfer.reshape(o, o, i, i)).conj()
        np.testing.assert_allclose(traced, tp_sum_reference(ch.kraus), atol=1e-12, rtol=0)
        rng = np.random.default_rng(index)
        for dim_ref in (1, 2):
            g = rng.normal(size=(dim_ref * i,) * 2) + 1j * rng.normal(size=(dim_ref * i,) * 2)
            state = g @ g.conj().T
            brute = sum(np.kron(np.eye(dim_ref), k) @ state @ np.kron(np.eye(dim_ref), k).conj().T for k in ch.kraus)
            output = apply_transfers(ch.transfer, transfer_input(state, dim_ref, i), dim_ref)
            np.testing.assert_allclose(output, brute, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_erasure_operators_are_the_loop_ones(self, d, p):
        ch = erasure_channel(d, p)
        reference = erasure_kraus_reference(d, p)
        assert len(ch.kraus) == len(reference)
        for new, old in zip(ch.kraus, reference):
            assert np.array_equal(new, old)

    def test_bad_kraus_lists_raise_the_same_types(self):
        eye = np.eye(2)
        with pytest.raises(DimensionMismatchError):  # ragged
            QuantumChannel(2, 2, (eye, np.eye(3)))
        with pytest.raises(DimensionMismatchError):  # ragged rows
            QuantumChannel(2, 2, ([[1.0, 0.0], [0.0]],))
        with pytest.raises(DimensionMismatchError):  # every operator the wrong shape
            QuantumChannel(2, 2, (np.eye(3, 2),))
        with pytest.raises(DimensionMismatchError):  # not a matrix
            QuantumChannel(2, 2, (np.ones(4),))
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidStateError):
                QuantumChannel(2, 2, (np.array([[1.0, 0.0], [0.0, bad]]),))
        with pytest.raises(InvalidStateError):  # not trace preserving
            QuantumChannel(2, 2, (0.9 * eye,))
        with pytest.raises(InvalidStateError):  # empty
            QuantumChannel(2, 2, ())

    @pytest.mark.parametrize(
        "kraus, dim_out",
        [
            ([[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]], 2),  # ragged
            ([[[1, 0], [0, 1], [0, 0]]], 2),  # mis-shaped
            ([[[0.9, 0], [0, 0.9]]], 2),  # not trace preserving
            ([[[1, 0], [0, 1], [0, 0]], [[0, 0], [0, 0]]], 3),  # ragged, dimension-changing
        ],
    )
    def test_bad_kraus_lists_exit_2(self, kraus, dim_out, tmp_path, capsys):
        doc = {
            "channel": {"type": "kraus", "dim_in": 2, "dim_out": dim_out, "kraus": kraus},
            "probe": {"type": "max_entangled", "d": 2},
            "povm": {"type": "bell"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["certify", "--config", str(path)]) == 2
        assert "invalid channel spec" in capsys.readouterr().err

    def test_non_finite_kraus_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"channel": {"type": "kraus", "dim_in": 2, "dim_out": 2, "kraus": [[[NaN, 0], [0, 1]]]},'
            ' "probe": {"type": "max_entangled", "d": 2}, "povm": {"type": "bell"}}'
        )
        assert main(["certify", "--config", str(path)]) == 2


class TestProbeStack:
    @pytest.mark.parametrize("index", range(len(named_terms())))
    def test_normalization_matches_the_loop(self, index, monkeypatch):
        weights, ops = named_terms()[index]
        weights = 1.01 * weights
        residual = abs(normalization_reference(weights, ops) - 1.0)
        build = lambda: custom_probe(weights, ops)
        bracket(build, probes_module, "PROB_TOL", residual, InvalidStateError, monkeypatch, "normalization")

    @pytest.mark.parametrize("index", range(len(named_terms())))
    def test_marginal_routes_match_the_loop(self, index):
        # the detector's one route, the partial trace of sigma, against the
        # loop over each of three decompositions of sigma
        terms = named_terms()[index]
        probe = custom_probe(*terms)
        rho = Detector(probe, bell_povm(probe.d)).rho
        for w, ops in decompositions(np.random.default_rng(index), terms, probe.sigma):
            np.testing.assert_allclose(rho, from_terms_reference(w, ops), atol=1e-12, rtol=0)

    def test_probe_from_density_checks_its_input(self, monkeypatch):
        # an eigenvalue of -5e-11 passes the density check (PSD_TOL is 1e-10) and is stored as given
        rng = np.random.default_rng(12)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        basis, _ = np.linalg.qr(g)
        evals = np.array([0.5, 0.3, 0.2 + 5e-11, -5e-11])
        sigma = (basis * evals) @ basis.conj().T
        sigma = (sigma + sigma.conj().T) / 2
        residual = -np.linalg.eigvalsh(hermitian_part(sigma)).min()
        assert 1e-11 < residual < 1e-10
        build = lambda: BipartiteProbeState(sigma)
        bracket(build, linalg_module, "PSD_TOL", residual, InvalidStateError, monkeypatch, "negative eigenvalue")
        assert np.array_equal(build().sigma, sigma)

    @pytest.mark.parametrize("index", range(len(named_terms())))
    def test_probe_from_density_matches_the_loop(self, index):
        # a probe from a bare sigma keeps it as given; its t matches the loop over sigma's spectral terms
        sigma = custom_probe(*named_terms()[index]).sigma
        d, weights, ops = probe_from_density_reference(sigma)
        probe = BipartiteProbeState(sigma)
        assert probe.d == d
        assert np.array_equal(probe.sigma, sigma)
        detector = Detector(probe, bell_povm(d))
        pinv = pseudo_inverse(detector.rho.T)
        np.testing.assert_allclose(detector.t, t_reference(weights, ops, bell_povm(d), pinv), atol=1e-12, rtol=0)


def weight_cases():
    """(probe, its terms, POVM): random dense POVMs, Bell, and erasure-adapted (kron route)."""
    rng = np.random.default_rng(10)
    cases = []
    for terms in named_terms()[:10]:
        dim_out = int(rng.integers(1, 4))
        cases.append((custom_probe(*terms), terms, random_povm(rng, terms[1].shape[1] * dim_out)))
    for d in DIMS:
        probe, terms = isotropic_probe(d, 0.93), isotropic_terms(d, 0.93)
        cases += [(probe, terms, bell_povm(d)), (probe, terms, erasure_povm(d))]
    return cases


class TestWeights:
    @pytest.mark.parametrize("index", range(len(weight_cases())))
    def test_t_matches_the_kron_loop(self, index):
        probe, terms, povm = weight_cases()[index]
        rho = reduced_system_state(probe)
        pinv = pseudo_inverse(rho.T)
        t = outcome_weights(probe.sigma, povm, pinv, psd_rank(rho))
        for w, ops in decompositions(np.random.default_rng(index), terms, probe.sigma):
            np.testing.assert_allclose(t, t_reference(w, ops, povm, pinv), atol=1e-12, rtol=0)


def shuffled_partition(rng, n):
    """A random partition of range(n) whose groups list their members in shuffled order."""
    labels = rng.integers(0, max(1, n // 3), size=n)
    order = rng.permutation(n)
    return tuple(tuple(int(i) for i in order if labels[i] == g) for g in np.unique(labels))


GREEDY_UNORDERED = ((8, 21), (13, 27), (14, 32))  # (outcomes, seed) whose greedy grouping is out of order


def greedy_case(n, seed):
    rng = np.random.default_rng([n, seed])
    detector = Detector(random_probe(rng, 2), random_povm(rng, 4, n))
    result = detector.certify(random_channel(rng, 2), optimize=True)
    return result.probabilities, detector.t, result.grouping


def grouping_cases():
    """(p, t, grouping): random vectors and Bell and erasure statistics at
    d = 2..6 under shuffled partitions, and random instances under the
    groupings the greedy search picks."""
    rng = np.random.default_rng(11)
    cases = []
    for n in (1, 3, 8, 20, 40):
        cases.append((rng.dirichlet(np.ones(n)), rng.random(n) * 3, shuffled_partition(rng, n)))
    for d in DIMS:
        for povm, ch in ((bell_povm(d), depolarizing_channel(d, 0.3)), (erasure_povm(d), erasure_channel(d, 0.4))):
            detector = Detector(isotropic_probe(d, 0.8), povm)
            p = detector.certify(ch).probabilities
            cases.append((p, detector.t, shuffled_partition(rng, p.size)))
    return cases + [greedy_case(n, seed) for n, seed in GREEDY_UNORDERED]


class TestCoarseGrain:
    @pytest.mark.parametrize("n, seed", GREEDY_UNORDERED)
    def test_greedy_grouping_is_out_of_order(self, n, seed):
        _, _, grouping = greedy_case(n, seed)
        assert any(list(group) != sorted(group) for group in grouping)

    @pytest.mark.parametrize("index", range(len(grouping_cases())))
    def test_groupwise_sums_match_the_loop(self, index):
        p, t, groups = grouping_cases()[index]
        assert sorted(chain.from_iterable(groups)) == list(range(p.size))
        p_merged, t_merged = coarse_grain(p, t, groups)
        p_ref, t_ref = coarse_grain_reference(p, t, groups)
        np.testing.assert_allclose(p_merged, np.clip(p_ref, 0.0, 1.0), atol=1e-12, rtol=0)
        np.testing.assert_allclose(t_merged, t_ref, atol=1e-12, rtol=0)


class TestDecompositionCount:
    """Each decomposition runs once: building a probe makes none; Detector
    makes one eigh of rho^T; a certify call makes the two checks inside
    apply_channel (the state, then its output), S[E(rho)], the joint output
    check and the purified oracle.  certify_many of N channels in one chunk
    makes the same five: one apply_channel call takes every E(rho), and
    each other decomposition is one stacked eigvalsh."""

    @pytest.fixture
    def count(self, monkeypatch):
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        return calls

    def test_detector_decomposes_rho_once(self, count):
        probe, povm = isotropic_probe(3, 0.9), bell_povm(3)
        count.clear()
        Detector(probe, povm)
        assert count == ["eigh"]

    def test_probe_makes_none(self, count):
        isotropic_probe(3, 0.9)
        assert count == []

    def test_certify_makes_five(self, count):
        detector = Detector(isotropic_probe(3, 0.9), bell_povm(3))
        ch = depolarizing_channel(3, 0.1)
        count.clear()
        detector.certify(ch)
        assert len(count) == 5

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_certify_many_makes_five_per_chunk(self, count, n):
        detector = Detector(isotropic_probe(3, 0.9), bell_povm(3))
        channels = [depolarizing_channel(3, 0.1 * k) for k in range(n)]
        count.clear()
        list(detector.certify_many(channels))
        assert len(count) == 5
