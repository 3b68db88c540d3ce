"""A sweep by columns: stacked probe builds, closed-form columns, one-step results.

An 'F' sweep builds its isotropic probes one chunk-aligned block at a time,
each block as one checked Bell-diagonal stack, and both kinds of sweep take
their closed-form columns (``qdet_closed``, ``q_exact``) with one call over
the whole grid.  The per-probe and per-row routes these replaced are kept
below verbatim as the reference: the stacked builders must give the same
``sigma`` and the array closed forms the same floats, bit for bit.
"""

import dataclasses
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcapdet.harness as harness
from qcapdet import (
    CertificationResult,
    Detector,
    SweepSpec,
    bell_diagonal_probe,
    bell_povm,
    depolarizing_isotropic_qdet,
    erasure_exact_capacity,
    erasure_qdet_closed_form,
    erasure_povm,
    isotropic_probe,
    run_sweep,
    threshold_fidelity,
)
from qcapdet.channels import _depolarizing_channels, _erasure_channels, weyl_unitaries
from qcapdet.cli import main
from qcapdet.errors import InvalidStateError
from qcapdet.linalg import binary_entropy
from qcapdet.probes import _bell_diagonal_probes, _isotropic_probes

certify_module = importlib.import_module("qcapdet.certify")
ROOT = Path(__file__).resolve().parent.parent
DIMS = (2, 3, 4, 8, 16)


# --- the replaced routes, verbatim ------------------------------------------


def custom_sigma_reference(weights, operators):
    """sigma as custom_probe assembles it from checked terms."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    ops = np.asarray(operators, dtype=complex)
    kets = ops.reshape(len(ops), -1)
    return (kets.T * w) @ kets.conj()


def bell_diagonal_sigma_reference(q):
    q = np.asarray(q, dtype=float)
    d = q.shape[0]
    return custom_sigma_reference(q.reshape(-1), weyl_unitaries(d) / np.sqrt(d))


def isotropic_sigma_reference(d, fidelity):
    q = np.full((d, d), (1.0 - fidelity) / (d * d - 1))
    q[0, 0] = fidelity
    return bell_diagonal_sigma_reference(q)


def depolarizing_qdet_reference(d, p, fidelity):
    p_eff = (d * d * (1.0 - fidelity * (1.0 - p)) + fidelity - p - 1.0) / (d * d - 1.0)
    p_eff = min(max(p_eff, 0.0), 1.0)
    return math.log2(d) - binary_entropy(p_eff) - p_eff * math.log2(d * d - 1)


def erasure_qdet_reference(d, p, fidelity):
    penalty = binary_entropy(fidelity) + (1.0 - fidelity) * math.log2(d * d - 1)
    return (1.0 - 2.0 * p) * math.log2(d) - (1.0 - p) * penalty


def erasure_capacity_reference(d, p):
    return max(0.0, (1.0 - 2.0 * p)) * math.log2(d)


def threshold_reference(closed, d):
    best_at = lambda f: max(closed(d, 0.0, f), closed(d, 1.0, f))
    lo, hi = 1.0 / d**2, 1.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if best_at(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def fidelities(d):
    """37 fidelities over the isotropic range, its two ends included exactly."""
    return [1.0 / d**2, *np.linspace(1.0 / d**2, 1.0, 37)[1:-1].tolist(), 1.0]


# --- stacked probe builders ---------------------------------------------------


class TestStackedProbes:
    @pytest.mark.parametrize("d", DIMS)
    def test_isotropic_stack_is_bit_identical(self, d):
        grid = fidelities(d)
        stack = _isotropic_probes(d, grid)
        assert [probe.label for probe in stack] == [f"isotropic(d={d}, F={f:g})" for f in grid]
        for f, probe in zip(grid, stack):
            reference = isotropic_sigma_reference(d, f)
            assert probe.d == d
            assert np.array_equal(probe.sigma, reference)
            assert np.array_equal(isotropic_probe(d, f).sigma, reference)

    @pytest.mark.parametrize("d", DIMS)
    def test_bell_diagonal_stack_is_bit_identical(self, d):
        rng = np.random.default_rng(d)
        grids = rng.random((9, d, d))
        grids /= grids.sum(axis=(1, 2), keepdims=True)
        grids[0] = 0.0
        grids[0, 0, 0] = 1.0  # a pure Bell state, with zero weights
        labels = [f"grid {k}" for k in range(len(grids))]
        stack = _bell_diagonal_probes(grids, labels)
        assert [probe.label for probe in stack] == labels
        for q, probe in zip(grids, stack):
            assert np.array_equal(probe.sigma, bell_diagonal_sigma_reference(q))
            assert np.array_equal(bell_diagonal_probe(q).sigma, probe.sigma)
        assert [probe.label for probe in _bell_diagonal_probes(grids[:2])] == [f"bell_diagonal(d={d})"] * 2

    def test_empty_stack(self):
        assert _isotropic_probes(3, []) == []
        assert _bell_diagonal_probes(np.zeros((0, 2, 2)), []) == []

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda q: q.__setitem__((0, 1), -0.25), r"negative decomposition weight -0.25$"),
            (lambda q: q.__setitem__((0, 1), np.nan), r"decomposition contains non-finite entries$"),
            (lambda q: q.__setitem__((0, 1), np.inf), r"decomposition contains non-finite entries$"),
            (lambda q: q.__imul__(1.01), r"decomposition normalization 1.0\d+ differs from 1$"),
        ],
        ids=["negative", "nan", "inf", "not normalized"],
    )
    def test_a_bad_grid_in_the_middle_is_named_by_its_row(self, corrupt, message):
        grids = np.full((5, 2, 2), 0.25)
        corrupt(grids[2])
        corrupt(grids[4])  # a later failing row is not the one reported
        with pytest.raises(InvalidStateError, match="^" + message) as raised:
            _bell_diagonal_probes(grids)
        assert raised.value.row == 2

    def test_one_grid_errors_keep_their_messages(self):
        with pytest.raises(InvalidStateError, match=r"^Bell weight grid must be square, got \(2, 3\)$"):
            _bell_diagonal_probes(np.full((4, 2, 3), 1 / 6))
        with pytest.raises(InvalidStateError, match=r"^negative decomposition weight -0.2$") as raised:
            bell_diagonal_probe([[1.2, -0.2], [0.0, 0.0]])
        assert raised.value.row == 0

    def test_fidelities_are_checked_in_order(self):
        with pytest.raises(ValueError, match=r"^fidelity 1.25 outside \[0.25, 1\]$"):
            _isotropic_probes(2, [0.5, 1.25, 0.1])
        with pytest.raises(ValueError, match=r"^dimension 1 must be at least 2$"):
            _isotropic_probes(1, [1.0])


class TestFSweepBuildsStacks:
    def test_one_build_per_chunk_aligned_block(self, monkeypatch):
        build = harness._STACKS["isotropic"]
        sizes = []

        def building(d, values):
            sizes.append(len(values))
            return build(d, values)

        monkeypatch.setitem(harness._STACKS, "isotropic", building)
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", 3 * 16)  # three d = 2 Bell points per chunk
        spec = SweepSpec(
            {"type": "depolarizing", "d": 2, "p": 0.05}, {"type": "isotropic", "d": 2}, {"type": "bell"}, "F", 0.5, 1.0, 8
        )
        rows = run_sweep(spec)
        assert sizes == [1, 2, 3, 2]  # the first point alone, then the rest of each chunk
        assert [row["F"] for row in rows] == np.linspace(0.5, 1.0, 8).tolist()

    def test_out_of_range_stop_exits_2_naming_the_first_failing_value(self, tmp_path, capsys):
        doc = {
            "channel": {"type": "depolarizing", "d": 2, "p": 0.05},
            "probe": {"type": "isotropic", "d": 2},
            "povm": {"type": "bell"},
            "sweep": {"variable": "F", "start": 0.5, "stop": 1.5, "steps": 5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid probe spec: fidelity 1.25 outside [0.25, 1]" in captured.err


# --- closed-form columns -------------------------------------------------------


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestClosedFormColumns:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_arrays_match_the_scalar_forms_bit_for_bit(self, d):
        p, f = np.meshgrid(np.linspace(0.0, 1.0, 21), np.linspace(1.0 / d**2, 1.0, 21))
        for array_form, reference in [
            (depolarizing_isotropic_qdet, depolarizing_qdet_reference),
            (erasure_qdet_closed_form, erasure_qdet_reference),
        ]:
            column = array_form(d, p, f)
            expected = [reference(d, a, b) for a, b in zip(p.ravel().tolist(), f.ravel().tolist())]
            assert column.shape == p.shape
            assert np.array_equal(bits(column.ravel()), bits(expected))
            scalar = array_form(d, float(p[3, 5]), float(f[3, 5]))
            assert type(scalar) is float and scalar == column[3, 5]
        capacity = erasure_exact_capacity(d, p[0])
        assert np.array_equal(bits(capacity), bits([erasure_capacity_reference(d, x) for x in p[0].tolist()]))
        assert type(erasure_exact_capacity(d, 0.3)) is float

    def test_a_scalar_broadcasts_against_a_column(self):
        grid = np.linspace(0.5, 1.0, 7)
        column = depolarizing_isotropic_qdet(3, 0.1, grid)
        assert np.array_equal(column, [depolarizing_isotropic_qdet(3, 0.1, f) for f in grid.tolist()])

    @pytest.mark.parametrize("form", [depolarizing_isotropic_qdet, erasure_qdet_closed_form])
    def test_huge_dimension_is_a_value_error(self, form):
        with pytest.raises(ValueError, match="too large"):
            form(10**200, np.array([0.1, 0.2]), np.array([0.5, 0.9]))
        with pytest.raises(ValueError, match="too large"):
            erasure_exact_capacity(10**200, np.array([0.1, 0.2]))

    def test_each_entry_is_checked_in_order(self):
        with pytest.raises(ValueError, match=r"^depolarizing strength 1.5 outside \[0, 1\]$"):
            depolarizing_isotropic_qdet(2, np.array([0.1, 1.5, -1.0]), 0.9)
        with pytest.raises(ValueError, match=r"^fidelity nan outside \[0.25, 1\]$"):
            erasure_qdet_closed_form(2, 0.1, np.array([0.9, np.nan]))

    @pytest.mark.parametrize("d", range(2, 17))
    @pytest.mark.parametrize("family", ["depolarizing", "erasure"])
    def test_threshold_fidelity_unchanged(self, family, d):
        reference = {"depolarizing": depolarizing_qdet_reference, "erasure": erasure_qdet_reference}[family]
        assert threshold_fidelity(family, d) == threshold_reference(reference, d)

    @pytest.mark.parametrize(
        "channel, povm, variable, start, stop",
        [
            ({"type": "depolarizing", "d": 3, "p": 0.05}, "bell", "F", 0.7, 1.0),
            ({"type": "depolarizing", "d": 2}, "bell", "p", 0.0, 0.3),
            ({"type": "erasure", "d": 3, "p": 0.2}, "erasure_adapted", "F", 0.8, 1.0),
            ({"type": "erasure", "d": 2}, "erasure_adapted", "p", 0.0, 0.6),
        ],
    )
    def test_sweep_columns_match_per_row_calls(self, channel, povm, variable, start, stop):
        probe = {"type": "isotropic", "d": channel["d"], "F": 0.9}
        rows = run_sweep(SweepSpec(channel, probe, {"type": povm}, variable, start, stop, 13))
        d = channel["d"]
        for row in rows:
            p, f = row.get("p", channel.get("p")), row.get("F", probe["F"])
            closed = {"depolarizing": depolarizing_qdet_reference, "erasure": erasure_qdet_reference}[channel["type"]]
            assert row["qdet_closed"] == closed(d, p, f)
            assert type(row["qdet_closed"]) is float
            if channel["type"] == "erasure":
                assert row["q_exact"] == erasure_capacity_reference(d, p)
            else:
                assert "q_exact" not in row
            assert abs(row["qdet"] - row["qdet_closed"]) < 1e-10
        assert list(rows[0]) == [variable, "qdet", "qdet_closed"] + (["q_exact"] if channel["type"] == "erasure" else [])


# --- results built in one step ---------------------------------------------------


class TestResultsBuiltInOneStep:
    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize(
        "detector, channels",
        [
            (lambda: Detector(isotropic_probe(2, 0.9), bell_povm(2)), lambda: _depolarizing_channels(2, [0.0, 0.1, 0.3])),
            (lambda: Detector(isotropic_probe(3, 0.95), erasure_povm(3)), lambda: _erasure_channels(3, [0.0, 0.2, 0.4])),
        ],
        ids=["depolarizing", "erasure"],
    )
    def test_equal_to_constructed_results(self, detector, channels, optimize):
        for result in detector().certify_many(channels(), optimize):
            fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(CertificationResult)}
            constructed = CertificationResult(**fields)
            assert result == constructed and hash(result) == hash(constructed)
            assert repr(result) == repr(constructed)
            assert vars(result).keys() == vars(constructed).keys()
            with pytest.raises(dataclasses.FrozenInstanceError):
                result.qdet = 0.0


# --- numpy.ma stays unloaded ---------------------------------------------------


def test_no_command_imports_numpy_ma(tmp_path):
    """An erasure d = 3 'p' sweep (rows whose entropies reduce by count) and
    every recorded CLI run over configs/, in one fresh interpreter, leave
    numpy.ma unimported: its first import costs 14-17 ms."""
    config = tmp_path / "erasure_p.json"
    config.write_text(
        json.dumps(
            {
                "channel": {"type": "erasure", "d": 3},
                "probe": {"type": "isotropic", "d": 3, "F": 0.95},
                "povm": {"type": "erasure_adapted"},
                "sweep": {"variable": "p", "start": 0.0, "stop": 0.5, "steps": 30},
            }
        )
    )
    script = """
import contextlib, io, json, sys
sys.path.insert(0, "tools")
from cli_outputs import runs
from qcapdet.cli import main
todo = [["sweep", "--config", sys.argv[1]]] + [args for _, args in runs() if "--help" not in args]
for args in todo:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    assert code in (0, 2), (args, code)
    assert "numpy.ma" not in sys.modules, args
print(len(todo))
"""
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    done = subprocess.run([sys.executable, "-c", script, str(config)], cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 40
