"""An F sweep certified against one marginal half and one channel half,
in stacked chunks of probes.

Along an isotropic F sweep the probe's marginal is I/d at every point, so
run_sweep builds one Detector on the first point, which decomposes the
marginal once, and passes every point's probe to one
Detector.certify_probes call.  That call evaluates the channel's half of
the bound (S[E(rho)] and the oracle I_c) once, before it takes the first
probe, then certifies the probes in chunks of CERTIFY_CHUNK joint-output
entries, one stacked pass each, which still runs every point's own checks.
These tests compare the sweep with a fresh Detector per point, within one
chunk and across several, check that a marginal which does not agree is
refused, that each per-point check still fires at a later point and names
its grid index, and count the decompositions.
"""

import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qcapdet.harness as harness
from qcapdet import (
    BipartiteProbeState,
    Detector,
    SweepSpec,
    bell_povm,
    build_channel,
    build_povm,
    build_probe,
    certify,
    depolarizing_channel,
    isotropic_probe,
    run_point,
    run_sweep,
)
from qcapdet.errors import (
    DegenerateMeasurementError,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidStateError,
)
from qcapdet.harness import read
from qcapdet.sampling import derive_subseed

from randinst import random_channel, random_density, random_povm, random_povm_elements

certify_module = importlib.import_module("qcapdet.certify")

ROOT = Path(__file__).resolve().parents[1]


def matrix_spec(m) -> list:
    """A complex matrix as a config's [re, im] rows."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def kraus_spec(ch) -> dict:
    return {"type": "kraus", "dim_in": ch.dim_in, "dim_out": ch.dim_out, "kraus": [matrix_spec(k) for k in ch.kraus]}


def sweep_cases(seed: int):
    """(channel, POVM) config sections at d = 2..5: random Kraus channels,
    two of them dimension-changing, under Bell, erasure-adapted and custom POVMs."""
    rng = np.random.default_rng(seed)
    yield 2, kraus_spec(random_channel(rng, 2)), {"type": "bell"}
    yield 2, kraus_spec(random_channel(rng, 2, d_out=3)), {"type": "erasure_adapted"}
    yield 3, kraus_spec(random_channel(rng, 3, d_out=4)), {
        "type": "custom",
        "elements": [matrix_spec(e) for e in random_povm_elements(rng, 12, 4)],
    }
    yield 4, kraus_spec(random_channel(rng, 4)), {
        "type": "custom",
        "elements": [matrix_spec(e) for e in random_povm_elements(rng, 16, 3)],
    }
    yield 5, kraus_spec(random_channel(rng, 5, n_kraus=2)), {"type": "bell"}


def fresh_rows(spec: SweepSpec) -> list[dict]:
    """The rows of an isotropic F sweep with a fresh Detector, so a fresh
    marginal and channel half, at every point."""
    channel = build_channel(spec.channel)
    rows = []
    for i, fidelity in enumerate(np.linspace(spec.start, spec.stop, spec.steps)):
        probe = isotropic_probe(spec.probe["d"], float(fidelity))
        seed = derive_subseed(spec.seed, i) if spec.shots > 0 else 0
        result, estimate, _ = run_point(probe, channel, build_povm(spec.povm, probe.d), spec.optimize, spec.shots, seed)
        row = {"F": float(fidelity), "qdet": result.qdet}
        if spec.shots > 0:
            row |= {"qdet_estimate": estimate, "shots": spec.shots}
        rows.append(row)
    return rows


def f_sweep(channel: dict, d: int, povm: dict, steps: int = 4, start: float = 0.85, **run) -> SweepSpec:
    return SweepSpec(channel, {"type": "isotropic", "d": d}, povm, "F", start, 1.0, steps, **run)


def p_sweep(channel: dict, probe: dict, steps: int, **run) -> SweepSpec:
    return SweepSpec(channel, probe, {"type": "bell"}, "p", 0.0, 0.1, steps, **run)


class TestSweepMatchesFreshDetectors:
    @pytest.mark.parametrize("shots", [0, 3000])
    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    def test_rows(self, seed, optimize, shots):
        for d, channel, povm in sweep_cases(300 + seed):
            spec = f_sweep(channel, d, povm, shots=shots, seed=seed + 5, optimize=optimize)
            swept, fresh = run_sweep(spec), fresh_rows(spec)
            assert [row.keys() for row in swept] == [row.keys() for row in fresh]
            for got, want in zip(swept, fresh):
                # the shared marginal is the first point's I/d, a fresh one
                # its own: t, so qdet, may differ by rounding alone
                assert got == pytest.approx(want, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("family", ["depolarizing", "erasure"])
    def test_closed_form_sweeps(self, family):
        channel = {"type": family, "d": 3, "p": 0.1}
        povm = {"type": "bell" if family == "depolarizing" else "erasure_adapted"}
        for optimize in (False, True):
            rows = run_sweep(f_sweep(channel, 3, povm, steps=7, start=0.8, optimize=optimize))
            for row in rows:
                assert row["qdet"] == pytest.approx(row["qdet_closed"], rel=0.0, abs=1e-12)


class TestAcrossChunks:
    """8-point sweeps certified in chunks of 3 points, so each spans three."""

    @pytest.mark.parametrize("shots", [0, 3000])
    @pytest.mark.parametrize("optimize", [False, True])
    def test_rows(self, monkeypatch, optimize, shots):
        passes = []
        real = Detector._certify_stack

        def counting(self, transfers, pairs, points, optimize):
            passes.append(len(points))
            return real(self, transfers, pairs, points, optimize)

        for d, channel, povm in list(sweep_cases(310))[:3]:
            monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", 3 * (d * channel["dim_out"]) ** 2)
            spec = f_sweep(channel, d, povm, steps=8, shots=shots, seed=9, optimize=optimize)
            with monkeypatch.context() as sweeping:  # the fresh detectors' passes are not counted
                sweeping.setattr(Detector, "_certify_stack", counting)
                swept = run_sweep(spec)
            fresh = fresh_rows(spec)
            assert [row.keys() for row in swept] == [row.keys() for row in fresh]
            for got, want in zip(swept, fresh):
                assert got == pytest.approx(want, rel=0.0, abs=1e-12)
        assert passes == [3, 3, 2] * 3

    def test_error_names_the_grid_index(self, monkeypatch):
        # at F = 1, grid point 7 and point 1 of the third chunk, the bound
        # meets the oracle; a negative tolerance makes the chain check fire there
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", 3 * 16)
        monkeypatch.setattr(certify_module, "CHAIN_TOL", -1e-6)
        spec = f_sweep({"type": "depolarizing", "d": 2, "p": 0.05}, 2, {"type": "bell"}, steps=8, start=0.9)
        with pytest.raises(InternalConsistencyError, match=r"^probe 7 \(isotropic\(d=2, F=1\)\): detected bound"):
            run_sweep(spec)

    def test_p_sweep_error_names_the_grid_index(self, monkeypatch):
        # the oracle of grid point 7, point 1 of the third chunk, is lowered
        # far below its bound, so the chain check fires there and nowhere else
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", 3 * 16)
        real = Detector._halves

        def lowering(self, channels, names):
            transfers, halves = real(self, channels, names)
            return transfers, [(ch, s, i_c - (name.startswith("channel 7 ") and 1.0)) for name, (ch, s, i_c) in zip(names, halves)]

        monkeypatch.setattr(Detector, "_halves", lowering)
        spec = p_sweep({"type": "depolarizing", "d": 2}, {"type": "isotropic", "d": 2, "F": 0.95}, 8)
        with pytest.raises(InternalConsistencyError, match=r"^channel 7 \(depolarizing\(d=2, p=0.1\)\): detected bound"):
            run_sweep(spec)

    def test_degenerate_statistics_name_the_grid_index(self, monkeypatch):
        # probe 7's weights are zeroed after their sum rule passed, so only
        # the stacked t . p > 0 check of the third chunk can see it
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", 3 * 16)
        real = Detector._probe_stack

        def zeroing(self, probes, names):
            weights, pairs = real(self, probes, names)
            return np.where([[name.startswith("probe 7 ")] for name in names], 0.0, weights), pairs

        monkeypatch.setattr(Detector, "_probe_stack", zeroing)
        spec = f_sweep({"type": "depolarizing", "d": 2, "p": 0.05}, 2, {"type": "bell"}, steps=8, start=0.9)
        with pytest.raises(DegenerateMeasurementError, match=r"^probe 7 \(isotropic\(d=2, F=1\)\): t \. p = 0\.0 is not positive"):
            run_sweep(spec)


    @pytest.mark.parametrize("chain, zeroed", [(0, 2), (2, 0)])
    def test_earlier_of_chain_and_degenerate_failures_is_named(self, monkeypatch, chain, zeroed):
        # in one chunk, probe `chain` (F = 1, at the oracle exactly) fails the
        # tightened chain check and probe `zeroed` has its weights zeroed after
        # their sum rule passed; the earlier of the two is reported
        monkeypatch.setattr(certify_module, "CHAIN_TOL", -1e-6)
        real = Detector._probe_stack

        def zeroing(self, probes, names):
            weights, pairs = real(self, probes, names)
            return np.where([[name.startswith(f"probe {zeroed} ")] for name in names], 0.0, weights), pairs

        monkeypatch.setattr(Detector, "_probe_stack", zeroing)
        fidelities = [0.9, 0.95, 0.9]
        fidelities[chain] = 1.0
        probes = [isotropic_probe(3, f) for f in fidelities]
        detector = Detector(probes[0], bell_povm(3))
        error = InternalConsistencyError if chain < zeroed else DegenerateMeasurementError
        label = f"probe {min(chain, zeroed)} \\(isotropic\\(d=3, F={fidelities[min(chain, zeroed)]:g}\\)\\): "
        with pytest.raises(error, match="^" + label):
            list(detector.certify_probes(probes, depolarizing_channel(3, 0.05)))


class TestProbeStack:
    """Detector.certify_probes on a stack of probes sharing one marginal."""

    def stack(self, d=3, fidelities=(0.8, 0.85, 0.9, 0.95, 1.0)):
        return [isotropic_probe(d, f) for f in fidelities]

    def reference_varied(self, d=3):
        """Probes (1-w) |Phi><Phi| + w R x I/d: every system marginal is I/d,
        but the reference marginals differ, and so, under a POVM whose
        elements' reference marginals are not all I/d, do the weights t."""
        rng = np.random.default_rng(17)
        phi = isotropic_probe(d, 1.0).sigma
        return [
            BipartiteProbeState((1 - w) * phi + w * np.kron(random_density(rng, d), np.eye(d) / d), f"mixed(w={w})")
            for w in (0.1, 0.3, 0.5, 0.7)
        ]

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("family", ["isotropic", "reference_varied"])
    def test_matches_fresh_detectors(self, family, optimize):
        rng = np.random.default_rng(5)
        if family == "isotropic":
            probes, povm = self.stack(), bell_povm(3)
        else:
            probes, povm = self.reference_varied(), random_povm(rng, 9, 6)
        ch = random_channel(rng, 3)
        first = Detector(probes[0], povm)
        results = list(first.certify_probes(probes, ch, optimize))
        if family == "reference_varied":  # each result carries its own probe's t
            assert min(np.abs(a.weights - b.weights).max() for a, b in zip(results, results[1:])) > 1e-3
        for probe, got in zip(probes, results):
            fresh = Detector(probe, povm)
            want = fresh.certify(ch, optimize)
            assert got.probe_label == probe.label and got.grouping == want.grouping
            assert got.qdet == pytest.approx(want.qdet, rel=0.0, abs=1e-12)
            np.testing.assert_allclose(got.weights, fresh.t, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(got.probabilities, want.probabilities, rtol=0.0, atol=1e-12)

    def test_one_marginal_off_by_2e_9(self):
        probes = self.stack()
        first = Detector(probes[0], bell_povm(3))
        object.__setattr__(probes[2], "sigma", probes[2].sigma + 2e-9 * np.eye(9))  # bypass construction
        with pytest.raises(InvalidStateError, match=r"^probe 2 \(isotropic\(d=3, F=0.9\)\): marginal differs"):
            list(first.certify_probes(probes, depolarizing_channel(3, 0.1)))

    def test_sum_rule_names_the_probe(self):
        # the marginal moves by 9e-10 (within RECON_TOL), sum_i t_i by about 2.4e-8
        probes = self.stack()
        first = Detector(probes[0], bell_povm(3))
        object.__setattr__(probes[3], "sigma", probes[3].sigma + 3e-10 * np.eye(9))
        with pytest.raises(InternalConsistencyError, match=r"^probe 3 \(isotropic\(d=3, F=0.95\)\): t-vector"):
            list(first.certify_probes(probes, depolarizing_channel(3, 0.1)))

    def test_wrong_dimensions_and_halves(self):
        first = Detector(isotropic_probe(2, 0.9), bell_povm(2))
        ch = depolarizing_channel(2, 0.1)
        with pytest.raises(DimensionMismatchError):
            list(first.certify_probes(self.stack(d=3), depolarizing_channel(3, 0.1)))
        with pytest.raises(DimensionMismatchError):
            list(first.certify_probes(self.stack(d=2), depolarizing_channel(3, 0.1)))
        assert list(first.certify_probes([], ch)) == []


class TestSharedMarginal:
    def test_marginal_beyond_tolerance(self):
        with open(ROOT / "configs" / "custom_partial_rank.json", encoding="utf-8") as fh:
            partial = build_probe(read(json.load(fh), "probe", harness.json_object))
        first = Detector(isotropic_probe(3, 0.9), bell_povm(3))
        ch = depolarizing_channel(3, 0.1)
        with pytest.raises(InvalidStateError, match="differs from the shared marginal"):
            list(first.certify_probes([partial], ch))
        # a marginal off by more than RECON_TOL in one entry
        probe = isotropic_probe(3, 0.9)
        object.__setattr__(probe, "sigma", probe.sigma + 2e-9 * np.eye(9))  # bypass construction
        with pytest.raises(InvalidStateError):
            list(first.certify_probes([probe], ch))

    def test_dimension_mismatch(self):
        first = Detector(isotropic_probe(2, 0.9), bell_povm(2))
        with pytest.raises(DimensionMismatchError):
            list(first.certify_probes([isotropic_probe(3, 0.9)], depolarizing_channel(2, 0.1)))


class TestPerPointChecksAtALaterPoint:
    """A fault in point 3's probe alone is caught at point 3."""

    STEPS = 5

    def corrupt_point_3(self, monkeypatch, corrupt):
        make, fields = harness._PROBES["isotropic"]
        built = []

        def building(d, fidelity):
            probe = make(d, fidelity)
            built.append(probe)
            if len(built) == 4:
                object.__setattr__(probe, "sigma", corrupt(probe.sigma))  # bypass construction
            return probe

        monkeypatch.setitem(harness._PROBES, "isotropic", (building, fields))
        return built

    def sweep(self):
        return f_sweep({"type": "depolarizing", "d": 3, "p": 0.05}, 3, {"type": "bell"}, steps=self.STEPS, start=0.9)

    def test_unchanged_sweep_passes(self, monkeypatch):
        built = self.corrupt_point_3(monkeypatch, lambda sigma: sigma)
        assert len(run_sweep(self.sweep())) == self.STEPS == len(built)

    # The sweep is one chunk: all its probes are built before any is checked.

    def test_joint_output_check(self, monkeypatch):
        # a real antisymmetric part on |00><11| breaks Hermiticity but leaves
        # the marginal and every t_i unchanged, so only the joint check sees it
        flip = np.zeros((9, 9))
        flip[0, 4], flip[4, 0] = 1e-3, -1e-3
        built = self.corrupt_point_3(monkeypatch, lambda sigma: sigma + flip)
        with pytest.raises(InvalidStateError, match=r"^probe 3 \(isotropic\(d=3, F=0.975\)\): .*not Hermitian"):
            run_sweep(self.sweep())
        assert len(built) == self.STEPS

    def test_sum_rule(self, monkeypatch):
        # the marginal moves by 9e-10 (within RECON_TOL) and sum_i t_i by
        # about 2.4e-8, beyond the sum rule's 1e-8
        built = self.corrupt_point_3(monkeypatch, lambda sigma: sigma + 3e-10 * np.eye(9))
        with pytest.raises(InternalConsistencyError, match=r"^probe 3 \(isotropic\(d=3, F=0.975\)\): .*sum rule"):
            run_sweep(self.sweep())
        assert len(built) == self.STEPS

    def test_chain_check(self, monkeypatch):
        # at F = 1 the bound meets the oracle; a negative tolerance makes
        # the chain check fire there and nowhere else on this grid
        monkeypatch.setattr(certify_module, "CHAIN_TOL", -1e-6)
        spec = f_sweep({"type": "depolarizing", "d": 3, "p": 0.05}, 3, {"type": "bell"}, steps=4, start=0.9)
        halves, bounds = [], []
        real_stack, real_bound = Detector._certify_stack, certify_module.grouped_bound

        def stacking(self, transfers, pairs, points, optimize):
            halves.extend(half for _, _, half, _ in points)
            return real_stack(self, transfers, pairs, points, optimize)

        def bounding(*args):
            bound = real_bound(*args)
            bounds.append(bound[0])
            return bound

        monkeypatch.setattr(Detector, "_certify_stack", stacking)
        monkeypatch.setattr(certify_module, "grouped_bound", bounding)
        with pytest.raises(InternalConsistencyError, match=r"^probe 3 \(isotropic\(d=3, F=1\)\): detected bound"):
            run_sweep(spec)
        assert len(halves) == 4 and len({id(half) for half in halves}) == 1  # all against the first point's channel half
        (qdet,) = bounds
        oracle = halves[0][2]
        assert (qdet[:3] <= oracle - 1e-6).all() and qdet[3] > oracle - 1e-6  # points 0-2 passed, point 3 raised


class TestSweepDecompositionCount:
    """An n-point F sweep in chunks of c points makes 4 + ceil(n/c)
    decompositions: the first point's Detector (1) and channel half (3), and
    one stacked joint-output check per chunk.  A fresh Detector per point
    makes 5 per point."""

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

    @pytest.mark.parametrize("n", [2, 10])
    def test_sweep_makes_4_plus_chunks(self, count, n):
        spec = f_sweep({"type": "depolarizing", "d": 3, "p": 0.05}, 3, {"type": "bell"}, steps=n)
        run_sweep(spec)
        assert len(count) == 4 + 1  # c = CERTIFY_CHUNK // 81 = 202 points per chunk at d = 3

    @pytest.mark.parametrize("c", [1, 3, 4])
    def test_one_decomposition_per_chunk(self, count, monkeypatch, c):
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", c * 81)  # c points of a d = 3 Bell sweep
        spec = f_sweep({"type": "depolarizing", "d": 3, "p": 0.05}, 3, {"type": "bell"}, steps=10)
        run_sweep(spec)
        assert len(count) == 4 + math.ceil(10 / c)

    @pytest.mark.parametrize("n", [2, 10])
    def test_fresh_detectors_make_5n(self, count, n):
        spec = f_sweep({"type": "depolarizing", "d": 3, "p": 0.05}, 3, {"type": "bell"}, steps=n)
        fresh_rows(spec)
        assert len(count) == 5 * n

    def test_erasure_sweep_makes_4_plus_chunks(self, count):
        spec = f_sweep({"type": "erasure", "d": 2, "p": 0.2}, 2, {"type": "erasure_adapted"}, steps=6, optimize=True)
        run_sweep(spec)
        assert len(count) == 4 + 1


class TestNoiseSweepDecompositionCount:
    """An n-point p sweep in chunks of c points makes 1 + 4 ceil(n/c)
    decompositions: the Detector's one, then per chunk the state checked
    inside its one apply_channel call, the stacked E(rho) checked and
    decomposed once for S[E(rho)], the purified oracle and the joint-output
    check."""

    count = TestSweepDecompositionCount.count  # the same eigh and eigvalsh counter

    @pytest.mark.parametrize("family, povm, dim", [("depolarizing", "bell", 9), ("erasure", "erasure_adapted", 12)])
    @pytest.mark.parametrize("c", [1, 3, 4])
    def test_four_per_chunk(self, count, monkeypatch, family, povm, dim, c):
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", c * dim * dim)  # c points of a d = 3 sweep
        probe = {"type": "isotropic", "d": 3, "F": 0.95}
        run_sweep(SweepSpec({"type": family, "d": 3}, probe, {"type": povm}, "p", 0.0, 0.1, 10))
        assert len(count) == 1 + 4 * math.ceil(10 / c)


class TestOneStatisticsPassPerChunk:
    """Each certified chunk takes all its bounds with one
    qdet_from_statistics call: one per certify(), ceil(n/c) for an n-point
    sweep in chunks of c points, where a bound per point would make n."""

    @pytest.fixture
    def rows(self, monkeypatch):
        calls = []
        real = certify_module.qdet_from_statistics

        def counting(p, t, output_entropy):
            calls.append(len(np.atleast_2d(p)))
            return real(p, t, output_entropy)

        monkeypatch.setattr(certify_module, "qdet_from_statistics", counting)
        return calls

    @pytest.mark.parametrize("optimize", [False, True])
    def test_certify_makes_one(self, rows, optimize):
        certify(isotropic_probe(3, 0.95), depolarizing_channel(3, 0.05), bell_povm(3), optimize)
        assert rows == [1]

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("c", [1, 3, 4, 10])
    def test_p_sweep_makes_one_per_chunk(self, rows, monkeypatch, c, optimize):
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", c * 81)  # c points of a d = 3 Bell sweep
        spec = p_sweep({"type": "depolarizing", "d": 3}, {"type": "isotropic", "d": 3, "F": 0.95}, 10, optimize=optimize)
        run_sweep(spec)
        assert len(rows) == math.ceil(10 / c) and sum(rows) == 10

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("c", [1, 3, 4, 10])
    def test_f_sweep_makes_one_per_chunk(self, rows, monkeypatch, c, optimize):
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", c * 81)
        spec = f_sweep({"type": "depolarizing", "d": 3, "p": 0.05}, 3, {"type": "bell"}, steps=10, optimize=optimize)
        run_sweep(spec)
        assert len(rows) == math.ceil(10 / c) and sum(rows) == 10
