import importlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcapdet import (
    bell_povm,
    depolarizing_channel,
    depolarizing_isotropic_qdet,
    erasure_qdet_closed_form,
    estimate_qdet,
    hashing_bound,
    max_entangled_probe,
    outcome_probabilities,
    t_vector,
)
from qcapdet import harness
from qcapdet.certify import FAMILIES
from qcapdet.errors import ConfigError, DimensionMismatchError, InvalidStateError
from qcapdet.harness import (
    MAX_SHOTS,
    SweepSpec,
    build_channel,
    build_povm,
    build_probe,
    figure_rows,
    parse_sweep,
    read_run,
    run_point,
    run_sweep,
    write_csv,
)
from qcapdet.sampling import derive_subseed, sample_outcomes

certify_module = importlib.import_module("qcapdet.certify")

ROOT = Path(__file__).resolve().parents[1]


class TestBuilders:
    def test_channel_types(self):
        assert build_channel({"type": "depolarizing", "d": 2, "p": 0.1}).dim_out == 2
        assert build_channel({"type": "erasure", "d": 2, "p": 0.1}).dim_out == 3
        assert build_channel({"type": "pauli", "probs": [[1.0, 0.0], [0.0, 0.0]]}).dim_in == 2
        # identity channel written with explicit [re, im] entries
        kraus = {
            "type": "kraus",
            "dim_in": 2,
            "dim_out": 2,
            "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
        }
        ch = build_channel(kraus)
        assert ch.dim_in == ch.dim_out == 2

    def test_probe_types(self):
        assert build_probe({"type": "max_entangled", "d": 3}).d == 3
        assert build_probe({"type": "isotropic", "d": 2, "F": 0.9}).d == 2
        assert build_probe({"type": "bell_diagonal", "q": [[0.7, 0.1], [0.1, 0.1]]}).d == 2
        custom = {
            "type": "custom",
            "terms": [{"weight": 1.0, "op": [[[0.70710678118654752, 0], [0, 0]], [[0, 0], [0.70710678118654752, 0]]]}],
        }
        assert build_probe(custom).d == 2

    def test_povm_types(self):
        assert len(build_povm({"type": "bell"}, 2)) == 4
        assert len(build_povm({"type": "erasure_adapted"}, 2)) == 6
        custom = {"type": "custom", "elements": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
        assert len(build_povm(custom, 2)) == 2

    def test_bad_specs_raise_config_error(self):
        with pytest.raises(ConfigError):
            build_channel({"type": "smooth"})
        with pytest.raises(ConfigError):
            build_channel({"type": "depolarizing", "d": 2})
        with pytest.raises(ConfigError):
            build_channel({"type": "depolarizing", "d": 2, "p": 1.7})
        with pytest.raises(ConfigError):
            build_probe({"type": "isotropic", "d": 2, "F": 0.1})
        with pytest.raises(ConfigError):
            build_povm({"type": "custom", "elements": [[[1, 0], [0, 0]]]}, 2)


class TestEstimator:
    def test_exact_frequencies_reproduce_exact_bound(self):
        from qcapdet.sampling import ShotRecord

        probe = max_entangled_probe(2)
        ch = depolarizing_channel(2, 0.15)
        povm = bell_povm(2)
        p = outcome_probabilities(probe, ch, povm)
        t = t_vector(probe, povm)
        # counts exactly proportional to p: (68, 4, 4, 4) out of 80
        counts = tuple(int(round(x * 80)) for x in p)
        record = ShotRecord(counts, 80, seed=0)
        got = estimate_qdet(record, t, 1.0)
        assert got == pytest.approx(hashing_bound(2, 0.15), abs=1e-12)

    def test_pinned_million_shot_run(self):
        probe = max_entangled_probe(2)
        ch = depolarizing_channel(2, 0.05)
        povm = bell_povm(2)
        _, estimate, record = run_point(probe, ch, povm, shots=10**6, seed=42)
        assert abs(estimate - hashing_bound(2, 0.05)) < 0.01
        assert record.shots == 10**6

    def test_optimized_estimate_tracks_the_reported_bound(self):
        # optimize_split5 merges outcomes 0 and 1: qdet 0.186 against 0.136
        # ungrouped, so an estimate of the ungrouped bound misses by 0.05
        with open(ROOT / "configs" / "optimize_split5.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        probe = build_probe(doc["probe"])
        channel, povm = build_channel(doc["channel"]), build_povm(doc["povm"], probe.d)
        result, estimate, record = run_point(probe, channel, povm, optimize=True, shots=10**6, seed=0)
        assert result.grouping == ((0, 1), (2,), (3,), (4,))
        assert abs(estimate - result.qdet) < 0.01
        assert estimate == estimate_qdet(record, t_vector(probe, povm), result.output_entropy, result.grouping)
        ungrouped = estimate_qdet(record, t_vector(probe, povm), result.output_entropy)
        assert abs(ungrouped - run_point(probe, channel, povm)[0].qdet) < 0.01

    def test_checks_the_grouping_and_the_weights_length(self):
        from qcapdet.sampling import ShotRecord

        record = ShotRecord((5, 3, 2), 10, seed=0)
        for grouping in (((0, 1), (1, 2)), ((0,), (2,))):  # outcome 1 twice, outcome 1 missing
            with pytest.raises(ValueError, match="not a partition"):
                estimate_qdet(record, np.ones(3), 1.0, grouping)
        for grouping in (None, ((0, 1), (2,))):
            with pytest.raises(DimensionMismatchError):
                estimate_qdet(record, np.ones(4), 1.0, grouping)

    def test_error_shrinks_with_shots(self):
        probe = max_entangled_probe(2)
        ch = depolarizing_channel(2, 0.05)
        povm = bell_povm(2)
        p = outcome_probabilities(probe, ch, povm)
        t = t_vector(probe, povm)
        target = hashing_bound(2, 0.05)
        small, large = [], []
        for seed in range(20):
            small.append(abs(estimate_qdet(sample_outcomes(p, 10**3, seed), t, 1.0) - target))
            large.append(abs(estimate_qdet(sample_outcomes(p, 10**6, seed), t, 1.0) - target))
        assert np.mean(large) < np.mean(small)


def basis_povm(n):
    """A custom POVM config of the n computational-basis projectors."""
    return {"type": "custom", "elements": [np.diag(np.eye(n)[i]).tolist() for i in range(n)]}


DEPOL_SWEEP = {
    "channel": {"type": "depolarizing", "d": 2, "p": 0.0},
    "probe": {"type": "isotropic", "d": 2, "F": 0.95},
    "povm": {"type": "bell"},
    "sweep": {"variable": "p", "start": 0.0, "stop": 0.25, "steps": 6},
    "seed": 5,
}


class TestSweep:
    def test_two_point_grid(self):
        doc = dict(DEPOL_SWEEP)
        doc["sweep"] = {"variable": "p", "start": 0.0, "stop": 0.1, "steps": 2}
        rows = run_sweep(parse_sweep(doc))
        assert len(rows) == 2
        assert rows[0]["p"] == 0.0 and rows[1]["p"] == 0.1

    def test_exact_rows_match_closed_form(self):
        rows = run_sweep(parse_sweep(DEPOL_SWEEP))
        for row in rows:
            assert abs(row["qdet"] - row["qdet_closed"]) < 1e-10
            assert abs(row["qdet"] - depolarizing_isotropic_qdet(2, row["p"], 0.95)) < 1e-10

    def test_fidelity_sweep(self):
        doc = {
            "channel": {"type": "erasure", "d": 2, "p": 0.1},
            "probe": {"type": "isotropic", "d": 2, "F": 1.0},
            "povm": {"type": "erasure_adapted"},
            "sweep": {"variable": "F", "start": 0.85, "stop": 1.0, "steps": 4},
        }
        rows = run_sweep(parse_sweep(doc))
        for row in rows:
            assert abs(row["qdet"] - erasure_qdet_closed_form(2, 0.1, row["F"])) < 1e-10
            assert row["q_exact"] == pytest.approx(0.8, abs=1e-12)

    def test_finite_shot_column(self):
        doc = dict(DEPOL_SWEEP)
        doc["sweep"] = {"variable": "p", "start": 0.0, "stop": 0.1, "steps": 3}
        doc["shots"] = 2000
        rows = run_sweep(parse_sweep(doc))
        for row in rows:
            assert "qdet_estimate" in row and row["shots"] == 2000

    def test_exact_sweep_derives_no_subseed(self, monkeypatch):
        def refuse(seed, index):
            raise AssertionError("an exact sweep point derived a sampling seed")

        monkeypatch.setattr(harness, "derive_subseed", refuse)
        rows = run_sweep(parse_sweep(DEPOL_SWEEP))
        assert len(rows) == 6 and all("qdet_estimate" not in row for row in rows)
        with pytest.raises(AssertionError):
            run_sweep(parse_sweep(dict(DEPOL_SWEEP, shots=10)))

    def test_determinism(self):
        doc = dict(DEPOL_SWEEP)
        doc["shots"] = 1000
        a = run_sweep(parse_sweep(doc))
        b = run_sweep(parse_sweep(doc))
        assert write_csv(a) == write_csv(b)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec({}, {}, {}, "x", 0.0, 1.0, 5)
        with pytest.raises(ConfigError):
            SweepSpec({}, {}, {}, "p", 0.0, 1.0, 1)
        with pytest.raises(ConfigError):
            SweepSpec({}, {}, {}, "p", 0.5, 0.1, 5)
        assert SweepSpec({}, {}, {}, "p", 0.0, 1.0, 2, shots=MAX_SHOTS // 2).shots == MAX_SHOTS // 2
        with pytest.raises(ConfigError):
            SweepSpec({}, {}, {}, "p", 0.0, 1.0, 2, shots=MAX_SHOTS // 2 + 1)
        with pytest.raises(ConfigError):
            SweepSpec({}, {}, {}, "p", 0.0, 1.0, 2, shots=-1)
        with pytest.raises(ConfigError):
            parse_sweep({"channel": {}, "probe": {}, "povm": {}})

    def test_shot_cap_is_inclusive(self):
        assert read_run({"shots": MAX_SHOTS})["shots"] == MAX_SHOTS
        assert read_run({"shots": float(MAX_SHOTS)})["shots"] == MAX_SHOTS
        with pytest.raises(ConfigError):
            read_run({"shots": MAX_SHOTS + 1})

    def test_variable_requires_matching_family(self):
        doc = dict(DEPOL_SWEEP)
        doc["channel"] = {"type": "pauli", "probs": [[1.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(ConfigError):
            run_sweep(parse_sweep(doc))

    @pytest.mark.parametrize(
        "channel, probe, povm, columns",
        [
            ("depolarizing", {"type": "isotropic", "d": 2, "F": 0.95}, basis_povm(4), ["p", "qdet"]),
            (
                "depolarizing",
                {"type": "bell_diagonal", "q": [[0.9, 0.05], [0.03, 0.02]]},
                {"type": "bell"},
                ["p", "qdet"],
            ),
            ("erasure", {"type": "isotropic", "d": 2, "F": 0.95}, basis_povm(6), ["p", "qdet", "q_exact"]),
            (
                "erasure",
                {"type": "max_entangled", "d": 3},
                {"type": "erasure_adapted"},
                ["p", "qdet", "qdet_closed", "q_exact"],
            ),
        ],
    )
    def test_closed_form_and_capacity_columns(self, channel, probe, povm, columns):
        """qdet_closed needs the family's POVM and an isotropic or
        max_entangled probe; q_exact needs a family with a known capacity."""
        doc = {
            "channel": {"type": channel, "d": probe.get("d", 2)},
            "probe": probe,
            "povm": povm,
            "sweep": {"variable": "p", "start": 0.0, "stop": 0.2, "steps": 3},
        }
        assert [list(row) for row in run_sweep(parse_sweep(doc))] == [columns] * 3


class TestFamilyTable:
    """Sweeps report each family's closed form and capacity from certify.FAMILIES."""

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("variable, start, stop", [("p", 0.0, 0.3), ("F", 0.9, 1.0)])
    def test_sweeps_report_the_tables_closed_form_and_capacity(self, family, d, variable, start, stop):
        povm_type, _, capacity, _ = FAMILIES[family]
        doc = {
            "channel": {"type": family, "d": d, "p": 0.1},
            "probe": {"type": "isotropic", "d": d, "F": 0.95},
            "povm": {"type": povm_type},
            "sweep": {"variable": variable, "start": start, "stop": stop, "steps": 4},
        }
        for row in run_sweep(parse_sweep(doc)):
            assert abs(row["qdet_closed"] - row["qdet"]) < 1e-10
            assert ("q_exact" in row) == (capacity is not None)
            if capacity is not None:
                assert row["q_exact"] == capacity(d, row.get("p", 0.1))


class TestSweepErrorOrder:
    """Of two bad sections, a sweep reports the first it meets: reading goes
    channel, probe, POVM, then the swept field; building goes channel,
    probe, POVM.  ``swept`` and ``fixed`` name the variable's own section
    and the other one; a None field is removed."""

    SECTIONS = {"p": ("channel", "probe"), "F": ("probe", "channel")}  # (swept, fixed)
    BASE = {
        "p": {"channel": {"type": "depolarizing", "d": 2}, "probe": {"type": "isotropic", "d": 2, "F": 0.95}},
        "F": {"channel": {"type": "depolarizing", "d": 2, "p": 0.1}, "probe": {"type": "isotropic", "d": 2}},
    }
    GRID = {"p": (0.0, 0.2), "F": (0.9, 1.0)}
    NO_FIELD = {"p": {"type": "pauli", "probs": [[1.0, 0.0], [0.0, 0.0]]}, "F": {"type": "max_entangled"}}  # no p / F field

    @pytest.mark.parametrize("variable", ["p", "F"])
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"channel": {"type": None}, "probe": {"type": None}}, "channel.type is missing"),
            ({"probe": {"type": None}, "povm": {"type": None}}, "probe.type is missing"),
            ({"channel": {"d": 1}, "probe": {"type": None}}, "probe.type is missing"),
            ({"povm": {"type": "nope"}, "swept": "no field"}, "unknown povm type 'nope'; pick one of bell, erasure_adapted, custom"),
            ({"fixed": {"type": None}, "swept": "no field"}, "{fixed}.type is missing"),
            ({"fixed": {"d": 1}, "swept": "no field"}, "sweeping '{variable}' needs a {swept} type with a '{variable}' field"),
            ({"channel": {"d": 1}, "probe": {"d": 1}}, "invalid channel spec: dimension 1 must be at least 2"),
            (
                {"probe": {"d": 1}, "povm": {"type": "custom", "elements": [[[1, 0], [0, 0]]]}},
                "invalid probe spec: dimension 1 must be at least 2",
            ),
        ],
    )
    def test_first_bad_section_is_reported(self, variable, changes, message):
        swept, fixed = self.SECTIONS[variable]
        doc = {**self.BASE[variable], "povm": {"type": "bell"}}
        for section, change in changes.items():
            section = {"swept": swept, "fixed": fixed}.get(section, section)
            change = self.NO_FIELD[variable] if change == "no field" else change
            merged = {**doc[section], **change}
            doc[section] = {key: value for key, value in merged.items() if value is not None}
        start, stop = self.GRID[variable]
        spec = SweepSpec(doc["channel"], doc["probe"], doc["povm"], variable, start, stop, 3)
        expected = message.format(variable=variable, swept=swept, fixed=fixed)
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            run_sweep(spec)


def per_point_rows(doc):
    """A 'p' sweep's rows the way a loop over run_point computes them: one
    detector and channel per grid point, shots seeded by derive_subseed."""
    spec = parse_sweep(doc)
    rows = []
    for i, p in enumerate(np.linspace(spec.start, spec.stop, spec.steps)):
        probe = build_probe(spec.probe)
        channel = build_channel({**spec.channel, "p": float(p)})
        seed = derive_subseed(spec.seed, i) if spec.shots > 0 else 0
        result, estimate, _ = run_point(probe, channel, build_povm(spec.povm, probe.d), spec.optimize, spec.shots, seed)
        rows.append((float(p), result.qdet, estimate))
    return rows


class TestChunkedSweep:
    """A 'p' sweep certifies its channels in chunks of CERTIFY_CHUNK joint
    output entries; where the chunks fall changes no row."""

    @pytest.mark.parametrize("chunk", [16, 48, 16 * 7, certify_module.CERTIFY_CHUNK])
    @pytest.mark.parametrize("shots, optimize", [(0, False), (0, True), (1000, False)])
    def test_rows_do_not_depend_on_chunk_size(self, monkeypatch, chunk, shots, optimize):
        doc = {**DEPOL_SWEEP, "sweep": {**DEPOL_SWEEP["sweep"], "steps": 11}, "shots": shots, "optimize": optimize}
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", chunk)  # d = 2 Bell: 16 entries per point
        rows = run_sweep(parse_sweep(doc))
        assert [(r["p"], r["qdet"], r.get("qdet_estimate")) for r in rows] == per_point_rows(doc)

    def test_erasure_chunks_across_the_grid(self, monkeypatch):
        doc = {
            "channel": {"type": "erasure", "d": 3},
            "probe": {"type": "isotropic", "d": 3, "F": 0.9},
            "povm": {"type": "erasure_adapted"},
            "sweep": {"variable": "p", "start": 0.0, "stop": 0.5, "steps": 9},
        }
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", 2 * 144)  # two points of 12 x 12 per chunk
        rows = run_sweep(parse_sweep(doc))
        assert [(r["p"], r["qdet"], None) for r in rows] == per_point_rows(doc)
        for row in rows:
            assert abs(row["qdet"] - row["qdet_closed"]) < 1e-10

    def test_error_names_the_grid_index(self, monkeypatch):
        # chunks of 3 points, so grid point 7 is point 1 of the third chunk;
        # the stacked build forms its transfer matrix, so that is corrupted
        build = harness._STACKS["depolarizing"]
        built = []

        def building(d, ps):
            channels = build(d, ps)
            built.extend(channels)
            if len(built) == 8:  # the last block, points 6 and 7
                vars(built[7])["transfer"] = 1.1**2 * built[7].transfer  # bypass construction
            return channels

        monkeypatch.setitem(harness._STACKS, "depolarizing", building)
        monkeypatch.setattr(certify_module, "CERTIFY_CHUNK", 3 * 16)
        doc = {**DEPOL_SWEEP, "sweep": {**DEPOL_SWEEP["sweep"], "steps": 8}}
        with pytest.raises(InvalidStateError, match=r"^channel 7 \(depolarizing\(d=2, p=0.25\)\): "):
            run_sweep(parse_sweep(doc))
        assert len(built) == 8

    def test_peak_memory_of_a_d8_sweep(self):
        # The chunks bound the memory: this sweep peaks at about 2.5 MiB,
        # and certifying all 200 channels in one stack at about 96 MiB.
        doc = {
            "channel": {"type": "depolarizing", "d": 8},
            "probe": {"type": "isotropic", "d": 8, "F": 0.95},
            "povm": {"type": "bell"},
            "sweep": {"variable": "p", "start": 0.0, "stop": 0.1, "steps": 200},
        }
        spec = parse_sweep(doc)
        run_sweep(parse_sweep({**doc, "sweep": {**doc["sweep"], "steps": 2}}))  # caches outside the measurement
        tracemalloc.start()
        try:
            rows = run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 200
        assert peak < 6 * 2**20


class TestFigures:
    def test_figure1_monotone_in_fidelity(self):
        columns, rows = figure_rows(1, steps=26)
        assert columns[0] == "p"
        for row in rows:
            assert row["qdet_F1.00"] >= row["qdet_F0.98"] - 1e-12
            assert row["qdet_F0.98"] >= row["qdet_F0.95"] - 1e-12
            assert row["qdet_F0.95"] >= row["qdet_F0.90"] - 1e-12

    def test_figure1_f1_is_hashing(self):
        _, rows = figure_rows(1, steps=11)
        for row in rows:
            assert abs(row["qdet_F1.00"] - hashing_bound(2, row["p"])) < 1e-10

    def test_figure2_f1_is_linear_law(self):
        _, rows = figure_rows(2, steps=11)
        for row in rows:
            assert abs(row["qdet_F1.00"] - (1 - 2 * row["p"])) < 1e-10
            assert row["q_exact"] == pytest.approx(max(0.0, 1 - 2 * row["p"]), abs=1e-12)

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            figure_rows(3)

    def test_figure_needs_a_step(self):
        with pytest.raises(ConfigError, match=r"^figure needs at least 1 step, got 0$"):
            figure_rows(1, steps=0)
        columns, rows = figure_rows(1, steps=1)
        assert [row["p"] for row in rows] == [0.0] and columns[0] == "p"


class TestCsv:
    def test_format(self):
        rows = [{"a": 1.0 / 3.0, "b": 2, "c": "x,y"}, {"a": 1e-13, "b": 0, "c": "z"}]
        text = write_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "a,b,c"
        assert lines[1] == '0.333333333333,2,"x,y"'
        assert lines[2] == "1e-13,0,z"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_missing_cells_blank(self):
        text = write_csv([{"a": 1.0}, {"a": 2.0, "b": 3.0}])
        assert text.split("\n")[1] == "1,"
