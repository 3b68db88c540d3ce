import importlib
import json
import math

import numpy as np
import pytest

from qcapdet import (
    Detector,
    QuantumChannel,
    bell_povm,
    certify,
    custom_probe,
    depolarizing_channel,
    erasure_channel,
    erasure_povm,
    isotropic_probe,
    max_entangled_probe,
    reduced_system_state,
)
from qcapdet.cli import main
from qcapdet.errors import DimensionMismatchError, InternalConsistencyError, InvalidStateError
from qcapdet.linalg import pseudo_inverse, psd_rank, shannon_entropy, von_neumann_entropy
from randinst import decompositions, random_channel, random_povm, random_probe, random_terms

certify_module = importlib.import_module("qcapdet.certify")


def extended_output(ch, state, dim_ref):
    """(I x E)(state) with one np.kron per Kraus operator."""
    out = 0
    for k in ch.kraus:
        ext = np.kron(np.eye(dim_ref), k)
        out = out + ext @ state @ ext.conj().T
    return out


def reference(probe, terms, ch, povm):
    """Every result field by the per-element route: one np.trace per POVM
    element on the extended output and on (left x I_out), with left summed
    over the decomposition ``terms`` of the probe's sigma."""
    d = probe.d
    rho = reduced_system_state(probe)
    p = np.array([np.trace(extended_output(ch, probe.sigma, d) @ e).real for e in povm.elements])
    left = sum(a * (op @ pseudo_inverse(rho.T) @ op.conj().T) for a, op in zip(*terms))
    big = np.kron(left, np.eye(ch.dim_out))
    t = np.array([np.trace(big @ e).real for e in povm.elements])
    output_entropy = von_neumann_entropy(extended_output(ch, rho, 1))
    prob_entropy = shannon_entropy(p)
    log_tp = math.log2(float(t @ p))
    qdet = output_entropy - prob_entropy - log_tp
    input_entropy = von_neumann_entropy(rho)
    assert abs(t.sum() - ch.dim_out * psd_rank(rho)) < 1e-8
    return {
        "qdet": qdet,
        "output_entropy": output_entropy,
        "prob_entropy": prob_entropy,
        "log_tp": log_tp,
        "input_entropy": input_entropy,
        "private_lower": qdet,
        "ea_classical_lower": input_entropy + qdet,
        "probabilities": p,
        "t": t,
    }


def random_triples(seed, count):
    rng = np.random.default_rng(seed)
    for trial in range(count):
        d = int(rng.integers(2, 4))
        kind = trial % 4
        if kind == 0:
            ch, povm = random_channel(rng, d, d_out=d + 1), None  # dimension-changing Kraus channel
        elif kind == 1:
            ch, povm = erasure_channel(d, float(rng.uniform(0.0, 0.5))), erasure_povm(d)
        elif kind == 2:
            ch, povm = random_channel(rng, d), bell_povm(d)
        else:
            ch, povm = random_channel(rng, d), None
        povm = povm or random_povm(rng, d * ch.dim_out)
        rank = int(rng.integers(1, d)) if trial % 3 == 0 else None
        terms = random_terms(rng, d, n_terms=int(rng.integers(2, 5)), rank=rank)
        yield custom_probe(*terms), terms, ch, povm


@pytest.mark.parametrize("seed", range(4))
def test_fields_match_per_element_reference(seed):
    # t depends on sigma alone: the reference agrees from the terms the probe
    # was built from, from those terms rotated, and from sigma's eigenvectors
    rng = np.random.default_rng(400 + seed)
    for probe, terms, ch, povm in random_triples(100 + seed, 12):
        detector = Detector(probe, povm)
        result = detector.certify(ch)
        for decomposition in decompositions(rng, terms, probe.sigma):
            want = reference(probe, decomposition, ch, povm)
            assert np.max(np.abs(detector.t - want.pop("t"))) < 1e-12
            assert np.max(np.abs(result.probabilities - want.pop("probabilities"))) < 1e-12
            for name, value in want.items():
                assert abs(getattr(result, name) - value) < 1e-12, name
        assert result.grouping == tuple((i,) for i in range(len(povm)))


def test_reused_detector_equals_fresh_ones():
    rng = np.random.default_rng(7)
    probe = random_probe(rng, 3, n_terms=3)
    povm = random_povm(rng, 9)
    detector = Detector(probe, povm)
    for _ in range(20):
        ch = random_channel(rng, 3)
        for optimize in (False, True):
            reused = detector.certify(ch, optimize=optimize)
            fresh = Detector(probe, povm).certify(ch, optimize=optimize)
            assert reused == fresh
            assert np.array_equal(reused.probabilities, fresh.probabilities)
            assert reused == certify(probe, ch, povm, optimize=optimize)


class TestChecksStillFire:
    def test_non_trace_preserving_kraus_set(self):
        with pytest.raises(InvalidStateError):
            QuantumChannel(2, 2, (0.9 * np.eye(2),))
        ch = depolarizing_channel(2, 0.1)
        object.__setattr__(ch, "kraus", tuple(1.1 * k for k in ch.kraus))  # bypass construction
        with pytest.raises(InvalidStateError):
            Detector(max_entangled_probe(2), bell_povm(2)).certify(ch)

    @pytest.mark.parametrize("corrupted", ["probe output", "purified output"])
    def test_each_joint_output_is_checked(self, corrupted, monkeypatch):
        # A real antisymmetric part breaks Hermiticity but leaves every
        # Tr[out Pi_i].real unchanged, so only the output check can see it.
        real = certify_module.apply_transfers
        seen = []

        def corrupting(transfers, pairs, dim_ref):
            out = real(transfers, pairs, dim_ref)
            seen.append(pairs is detector.probe_pairs)
            if seen[-1] == (corrupted == "probe output"):
                out = out + 1e-3 * (np.eye(out.shape[-1], k=1) - np.eye(out.shape[-1], k=-1))
            return out

        detector = Detector(isotropic_probe(2, 0.9), bell_povm(2))
        monkeypatch.setattr(certify_module, "apply_transfers", corrupting)
        with pytest.raises(InvalidStateError):
            detector.certify(depolarizing_channel(2, 0.1))
        assert seen[-1] == (corrupted == "probe output")  # raised at the corrupted output

    def test_povm_channel_dimension_mismatch(self, tmp_path, capsys):
        detector = Detector(max_entangled_probe(2), bell_povm(2))
        with pytest.raises(DimensionMismatchError):
            detector.certify(erasure_channel(2, 0.1))
        with pytest.raises(DimensionMismatchError):
            detector.certify(depolarizing_channel(3, 0.1))
        config = {
            "channel": {"type": "erasure", "d": 2, "p": 0.1},
            "probe": {"type": "isotropic", "d": 2, "F": 0.95},
            "povm": {"type": "bell"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["certify", "--config", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_sum_rule(self):
        povm = bell_povm(2)
        object.__setattr__(povm, "factors", np.sqrt(1.1) * povm.factors)  # every element scaled by 1.1
        with pytest.raises(InternalConsistencyError):
            Detector(isotropic_probe(2, 0.9), povm)

    def test_probability_vector_on_every_call(self):
        povm = bell_povm(2)
        detector = Detector(isotropic_probe(2, 0.9), povm)
        detector.certify(depolarizing_channel(2, 0.1))
        object.__setattr__(povm, "factors", np.sqrt(1.1) * povm.factors)
        with pytest.raises(InvalidStateError):
            detector.certify(depolarizing_channel(2, 0.1))

    def test_chain_check(self, monkeypatch):
        detector = Detector(max_entangled_probe(2), bell_povm(2))
        detector.certify(depolarizing_channel(2, 0.05))
        monkeypatch.setattr(certify_module, "CHAIN_TOL", -1.0)
        with pytest.raises(InternalConsistencyError):
            detector.certify(depolarizing_channel(2, 0.05))


def same_result(batched, single):
    assert batched == single
    assert batched.channel_label == single.channel_label
    assert np.array_equal(batched.probabilities, single.probabilities)


def channel_stacks(seed):
    """(probe, POVM, channels sharing their dimensions) on randinst instances:
    dimension-changing Kraus channels, erasure and same-dimension Kraus channels."""
    rng = np.random.default_rng(seed)
    for d in (2, 3):
        probe = random_probe(rng, d, n_terms=3, rank=d - 1 if seed % 2 else None)
        yield probe, random_povm(rng, d * (d + 1)), [random_channel(rng, d, d_out=d + 1) for _ in range(5)]
        yield probe, erasure_povm(d), [erasure_channel(d, float(p)) for p in rng.uniform(0.0, 0.6, 5)]
        yield probe, random_povm(rng, d * d), [random_channel(rng, d) for _ in range(5)]


class TestCertifyMany:
    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_per_channel_certify(self, seed, optimize):
        for probe, povm, channels in channel_stacks(200 + seed):
            detector = Detector(probe, povm)
            batched = list(detector.certify_many(channels, optimize=optimize))
            assert len(batched) == len(channels)
            for result, ch in zip(batched, channels):
                same_result(result, detector.certify(ch, optimize=optimize))
                same_result(result, Detector(probe, povm).certify(ch, optimize=optimize))

    def test_empty_and_generator_input(self):
        detector = Detector(isotropic_probe(2, 0.9), bell_povm(2))
        assert list(detector.certify_many([])) == []
        channels = [depolarizing_channel(2, p) for p in (0.0, 0.1)]
        assert list(detector.certify_many(ch for ch in channels)) == list(detector.certify_many(channels))

    def test_mixed_dimensions(self):
        detector = Detector(isotropic_probe(2, 0.9), bell_povm(2))
        with pytest.raises(DimensionMismatchError):
            list(detector.certify_many([depolarizing_channel(2, 0.1), erasure_channel(2, 0.1)]))
        with pytest.raises(DimensionMismatchError):
            list(detector.certify_many([depolarizing_channel(3, 0.1), depolarizing_channel(3, 0.2)]))

    def test_corrupted_channel_in_the_middle(self):
        channels = [depolarizing_channel(2, p) for p in (0.0, 0.05, 0.1, 0.15, 0.2)]
        object.__setattr__(channels[2], "kraus", tuple(1.1 * k for k in channels[2].kraus))  # bypass construction
        detector = Detector(isotropic_probe(2, 0.9), bell_povm(2))
        list(detector.certify_many(channels[:2] + channels[3:]))
        with pytest.raises(InvalidStateError, match=r"^channel 2 \(depolarizing\(d=2, p=0.1\)\): "):
            list(detector.certify_many(channels))

    @pytest.mark.parametrize("corrupted", ["probe output", "purified output"])
    def test_stacked_output_check_names_the_channel(self, corrupted, monkeypatch):
        real = certify_module.apply_transfers

        def corrupting(transfers, pairs, dim_ref):
            out = real(transfers, pairs, dim_ref)
            if (pairs is detector.probe_pairs) == (corrupted == "probe output"):
                out[3] += 1e-3 * (np.eye(out.shape[-1], k=1) - np.eye(out.shape[-1], k=-1))
            return out

        detector = Detector(isotropic_probe(2, 0.9), bell_povm(2))
        channels = [depolarizing_channel(2, p) for p in (0.0, 0.05, 0.1, 0.15, 0.2)]
        monkeypatch.setattr(certify_module, "apply_transfers", corrupting)
        with pytest.raises(InvalidStateError, match=r"^channel 3 \(depolarizing\(d=2, p=0.15\)\): .*not Hermitian"):
            list(detector.certify_many(channels))

    def test_statistics_checks_name_the_channel(self, monkeypatch):
        povm = bell_povm(2)
        detector = Detector(isotropic_probe(2, 0.9), povm)
        channels = [depolarizing_channel(2, p) for p in (0.0, 0.1)]
        monkeypatch.setattr(certify_module, "CHAIN_TOL", -1.0)
        with pytest.raises(InternalConsistencyError, match=r"^channel 0 \(depolarizing\(d=2, p=0\)\): detected bound"):
            list(detector.certify_many(channels))
        monkeypatch.undo()
        object.__setattr__(povm, "factors", np.sqrt(1.1) * povm.factors)
        with pytest.raises(InvalidStateError, match=r"^channel 0 .*sum to"):
            list(detector.certify_many(channels))


class TestLazyChunks:
    """certify_many and certify_probes pull their input one chunk at a time:
    the first result comes before the second chunk is taken."""

    @staticmethod
    def counting(items, pulled: list):
        for item in items:
            pulled.append(item)
            yield item

    def test_channels(self, monkeypatch):
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", 3 * 16)  # 3 points of a d = 2 Bell detector
        detector = Detector(isotropic_probe(2, 0.9), bell_povm(2))
        pulled = []
        channels = (depolarizing_channel(2, 0.02 * k) for k in range(8))
        results = detector.certify_many(self.counting(channels, pulled))
        assert pulled == []
        first = next(results)
        assert len(pulled) == 3
        assert len([first, *results]) == len(pulled) == 8
        assert list(detector.certify_many([])) == []

    def test_probes(self, monkeypatch):
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", 3 * 16)
        detector = Detector(isotropic_probe(2, 0.9), bell_povm(2))
        ch = depolarizing_channel(2, 0.1)
        pulled = []
        probes = (isotropic_probe(2, 0.9 + 0.01 * k) for k in range(8))
        results = detector.certify_probes(self.counting(probes, pulled), ch)
        assert pulled == []
        first = next(results)
        assert len(pulled) == 3
        assert len([first, *results]) == len(pulled) == 8
        assert list(detector.certify_probes(iter([]), ch)) == []
