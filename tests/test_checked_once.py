"""Checked once, read-only after: every array a probe, POVM, detector or
result holds is its own read-only copy (channels: tests/test_channels.py::
TestFrozen), the probe decomposition check is one stacked check for every
builder, a range check takes an array, and a zero entropy is +0.0."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcapdet import (
    BipartiteProbeState,
    Detector,
    Povm,
    bell_diagonal_probe,
    bell_povm,
    binary_entropy,
    certify,
    custom_probe,
    depolarizing_channel,
    erasure_povm,
    isotropic_probe,
    max_entangled_probe,
    shannon_entropy,
    von_neumann_entropy,
)
from qcapdet.channels import weyl_unitaries
from qcapdet.cli import main
from qcapdet.errors import InvalidStateError
from qcapdet.harness import build_channel, build_povm, build_probe
from qcapdet.linalg import check_within, probability_entropies
from qcapdet.probes import _bell_diagonal_probes, _isotropic_probes
from randinst import random_povm_elements, random_probe, random_terms

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted(ROOT.glob("configs/*.json"))


def assert_read_only(array):
    """An in-place write to the array, a row of it or all of it is refused."""
    for write in (
        lambda: array.__setitem__((0,) * array.ndim, 5.0),
        lambda: array[:1].__setitem__(Ellipsis, 0.0),
        lambda: array.__iadd__(1),
    ):
        with pytest.raises(ValueError, match="read-only"):
            write()


def held_arrays(obj):
    """Every array among an object's fields, by name."""
    return {name: value for name, value in vars(obj).items() if isinstance(value, np.ndarray)}


def probe_builders():
    rng = np.random.default_rng(3)
    q = rng.random((3, 3))
    return [
        ("sigma", lambda: BipartiteProbeState(np.eye(4) / 4)),
        ("custom", lambda: custom_probe(*random_terms(rng, 3))),
        ("max_entangled", lambda: max_entangled_probe(3)),
        ("bell_diagonal", lambda: bell_diagonal_probe(q / q.sum())),
        ("isotropic", lambda: isotropic_probe(3, 0.9)),
        ("isotropic-block", lambda: _isotropic_probes(3, [0.5, 0.9, 1.0])[1]),
    ]


def povm_builders():
    rng = np.random.default_rng(4)
    kets = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    return [
        ("bell", lambda: bell_povm(2)),
        ("erasure", lambda: erasure_povm(2)),
        ("dense", lambda: Povm(4, random_povm_elements(rng, 4, 5))),
        ("from_kets", lambda: Povm.from_kets(4, kets)),
    ]


class TestProbesAreReadOnly:
    @pytest.mark.parametrize("build", [b for _, b in probe_builders()], ids=[n for n, _ in probe_builders()])
    def test_in_place_writes_are_refused(self, build):
        probe = build()
        assert_read_only(probe.sigma)
        assert list(held_arrays(probe)) == ["sigma"]

    def test_the_constructor_keeps_its_own_copy(self):
        sigma = np.eye(4, dtype=complex) / 4
        probe = BipartiteProbeState(sigma)
        sigma[0, 0] = 5.0  # the caller's array stays writable, and the probe does not see the write
        assert np.array_equal(probe.sigma, np.eye(4) / 4)
        assert probe.sigma.trace() == 1.0

    def test_custom_terms_stay_the_callers(self):
        rng = np.random.default_rng(5)
        w, ops = random_terms(rng, 2)
        probe = custom_probe(w, ops)
        before = probe.sigma.copy()
        w[0], ops[0] = 7.0, 0.0
        assert np.array_equal(probe.sigma, before)


class TestPovmsAreReadOnly:
    @pytest.mark.parametrize("build", [b for _, b in povm_builders()], ids=[n for n, _ in povm_builders()])
    def test_in_place_writes_are_refused(self, build):
        povm = build()
        assert set(held_arrays(povm)) == {"factors", "owner"}
        for array in held_arrays(povm).values():
            assert_read_only(array)
        for element in povm.elements:  # built on first use, read-only too
            assert_read_only(element)
        assert povm.elements is povm.elements

    def test_the_callers_kets_and_elements_stay_the_callers(self):
        kets = np.eye(4, dtype=complex)
        povm = Povm.from_kets(4, kets)
        kets[0, 0] = 5.0  # writable still, and not seen by the POVM
        assert np.array_equal(povm.factors, np.eye(4))
        elements = [np.diag(row).astype(complex) for row in np.eye(4)]
        dense = Povm(4, elements)
        elements[0][0, 0] = 5.0
        assert np.array_equal(np.array(dense.elements), np.array([np.diag(row) for row in np.eye(4)]))


class TestDetectorAndResultsAreReadOnly:
    def test_the_cached_half_is_read_only(self):
        detector = Detector(random_probe(np.random.default_rng(6), 2), bell_povm(2))
        held = held_arrays(detector)
        assert set(held) == {"rho", "rho_t_pinv", "t", "purification_pairs", "probe_pairs"}
        for array in held.values():
            assert_read_only(array)

    def test_certify_many_results(self):
        detector = Detector(isotropic_probe(2, 0.95), bell_povm(2))
        channels = [depolarizing_channel(2, p) for p in (0.0, 0.05, 0.1)]
        for result in detector.certify_many(channels):
            assert_read_only(result.probabilities)
            assert_read_only(result.weights)

    def test_certify_probes_results(self):
        detector = Detector(isotropic_probe(3, 0.95), bell_povm(3))
        probes = _isotropic_probes(3, [0.8, 0.9, 1.0])
        for result in detector.certify_probes(probes, depolarizing_channel(3, 0.05)):
            assert_read_only(result.probabilities)
            assert_read_only(result.weights)

    def test_a_result_cannot_lower_the_next_bound(self):
        probe, channel, povm = isotropic_probe(2, 0.95), depolarizing_channel(2, 0.05), bell_povm(2)
        detector = Detector(probe, povm)
        first = detector.certify(channel)
        with pytest.raises(ValueError, match="read-only"):
            first.weights[:] = [2.0, 0.7, 0.7, 0.6]
        again = detector.certify(channel)
        assert again.qdet == first.qdet == certify(probe, channel, povm).qdet
        assert np.array_equal(detector.t, Detector(probe, povm).t)


def built_sections(doc):
    """The channel, probe and POVM of a config document, the swept field set to the sweep's start."""
    sections = {key: dict(doc[key]) for key in ("channel", "probe", "povm")}
    if "sweep" in doc:
        variable = doc["sweep"]["variable"]
        sections["channel" if variable == "p" else "probe"][variable] = doc["sweep"]["start"]
    probe = build_probe(sections["probe"])
    return {"channel": build_channel(sections["channel"]), "probe": probe, "povm": build_povm(sections["povm"], probe.d)}


@pytest.mark.parametrize("path", CONFIGS, ids=[path.name for path in CONFIGS])
def test_no_bundled_config_builds_a_writable_array(path):
    built = built_sections(json.loads(path.read_text(encoding="utf-8")))
    for section, obj in built.items():
        held = held_arrays(obj)
        assert held, section
        assert not [name for name, array in held.items() if array.flags.writeable], section


class TestOneProbeCheck:
    """custom_probe and the Bell-diagonal builders check and form their
    terms through one stacked function."""

    @pytest.mark.parametrize("d", range(2, 17))
    def test_custom_and_bell_diagonal_agree_bit_for_bit(self, d):
        w = np.random.default_rng(d).random(d * d)
        w /= w.sum()
        custom = custom_probe(w, weyl_unitaries(d) / np.sqrt(d))
        assert np.array_equal(custom.sigma, bell_diagonal_probe(w.reshape(d, d)).sigma)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda w: w.__setitem__(1, -0.25), r"^negative decomposition weight -0.25$"),
            (lambda w: w.__setitem__(1, np.nan), r"^decomposition contains non-finite entries$"),
            (lambda w: w.__imul__(1.01), r"^decomposition normalization 1.0\d+ differs from 1$"),
            (lambda w: w.__setitem__(slice(2), 1e308), r"^decomposition normalization inf differs from 1$"),
        ],
        ids=["negative", "nan", "not normalized", "overflow"],
    )
    def test_both_callers_give_the_same_message(self, corrupt, message):
        w = np.full(4, 0.25)
        corrupt(w)
        raised = []
        for build in (lambda: custom_probe(w, weyl_unitaries(2) / np.sqrt(2)), lambda: bell_diagonal_probe(w.reshape(2, 2))):
            with pytest.raises(InvalidStateError, match=message) as error:
                build()  # a huge weight overflows the normalization quietly: no RuntimeWarning under -W error
            raised.append(str(error.value))
        assert raised[0] == raised[1]

    def test_a_stack_names_its_first_failing_row(self):
        grids = np.full((6, 2, 2), 0.25)
        grids[3, 0, 1] = -0.5
        grids[5, 0, 0] = np.nan
        with pytest.raises(InvalidStateError, match="^negative decomposition weight -0.5$") as error:
            _bell_diagonal_probes(grids)
        assert error.value.row == 3


class TestRangeCheck:
    def test_a_scalar_keeps_its_message(self):
        with pytest.raises(ValueError, match=r"^fidelity 2 outside \[0.25, 1\]$"):
            check_within("fidelity", 2, 0.25, 1)
        with pytest.raises(ValueError, match=r"^x nan outside \[0, 1\]$"):
            check_within("x", math.nan, 0, 1)
        with pytest.raises(ValueError, match=r"^x 1{401} outside \[0, 1\]$"):
            check_within("x", int("1" * 401), 0, 1)  # beyond the float range, quoted as given

    def test_an_array_is_checked_in_order(self):
        check_within("x", np.linspace(0.0, 1.0, 11), 0, 1)
        check_within("x", [], 0, 1)
        with pytest.raises(ValueError, match=r"^x 1.5 outside \[0, 1\]$"):
            check_within("x", [0.5, 1.5, -1.0, math.nan], 0, 1)
        with pytest.raises(ValueError, match=r"^x nan outside \[0, 1\]$"):
            check_within("x", np.array([[0.5, 0.25], [math.nan, 2.0]]), 0, 1)

    def test_a_complex_value_is_refused(self):
        for value in (0.5 + 0j, [0.5, 0.5 + 0j], np.array([0.5, 0.5 + 0j])):
            with pytest.raises(TypeError):
                check_within("x", value, 0, 1)
        with pytest.raises(TypeError):
            isotropic_probe(2, 0.9 + 0j)


class TestZeroEntropyIsPositiveZero:
    def test_scalar_entropies(self):
        for value in (
            shannon_entropy([1.0, 0.0]),
            binary_entropy(0.0),
            binary_entropy(1.0),
            von_neumann_entropy(np.diag([1.0, 0.0])),
        ):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_nonzero_entropies_keep_their_bits(self):
        rng = np.random.default_rng(8)
        rows = rng.random((1000, 6)) * (rng.random((1000, 6)) < 0.7)
        rows[rows.sum(axis=1) == 0.0, 0] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        entropies = probability_entropies(rows)
        for row, h in zip(rows, entropies):
            x = row[row > 0.0]
            reference = -(x * np.log2(x)).sum()
            assert h == reference
            assert math.copysign(1.0, h) == 1.0

    def test_a_one_level_config_prints_no_negative_zero(self, tmp_path, capsys):
        doc = {
            "channel": {"type": "pauli", "probs": [[1.0]]},
            "probe": {"type": "custom", "terms": [{"weight": 1.0, "op": [[1.0]]}]},
            "povm": {"type": "custom", "elements": [[[1.0]]]},
        }
        path = tmp_path / "d1.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["certify", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        header, row = out.splitlines()[:2]
        cells = dict(zip(header.split(","), row.split(",")))
        assert [cells[c] for c in ("output_entropy", "prob_entropy", "input_entropy")] == ["0", "0", "0"]
        assert "-0" not in out
