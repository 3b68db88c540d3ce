import csv
import io
import json
from pathlib import Path

import pytest

from qcapdet.certify import FAMILIES
from qcapdet.cli import main
from qcapdet.harness import MAX_SHOTS


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return header, [dict(zip(header, row)) for row in rows[1:]]


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "channel": {"type": "depolarizing", "d": 2, "p": 0.05},
    "probe": {"type": "max_entangled", "d": 2},
    "povm": {"type": "bell"},
    "seed": 42,
}


class TestCertifyCommand:
    def test_smoke(self, tmp_path, capsys):
        code = main(["certify", "--config", write_config(tmp_path, BASE)])
        captured = capsys.readouterr()
        assert code == 0
        header, rows = parse_csv(captured.out)
        assert "qdet" in header and len(rows) == 1
        assert float(rows[0]["qdet"]) == pytest.approx(0.634354917848, abs=1e-9)
        assert "qdet" in captured.err

    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        code = main(["certify", "--config", write_config(tmp_path, BASE), "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("probe,")

    def test_shots_flag_adds_estimate(self, tmp_path, capsys):
        code = main(["certify", "--config", write_config(tmp_path, BASE), "--shots", "5000"])
        captured = capsys.readouterr()
        assert code == 0
        assert "qdet_estimate" in captured.out.split("\n")[0]


class TestSweepCommand:
    def test_smoke(self, tmp_path, capsys):
        doc = dict(BASE)
        doc["probe"] = {"type": "isotropic", "d": 2, "F": 0.95}
        doc["sweep"] = {"variable": "p", "start": 0.0, "stop": 0.2, "steps": 5}
        code = main(["sweep", "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert lines[0].startswith("p,qdet")
        assert len(lines) == 6

    def test_byte_identical_reruns(self, tmp_path, capsys):
        doc = dict(BASE)
        doc["probe"] = {"type": "isotropic", "d": 2, "F": 0.95}
        doc["sweep"] = {"variable": "p", "start": 0.0, "stop": 0.2, "steps": 4}
        doc["shots"] = 3000
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "--config", cfg]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestFigureCommand:
    def test_figure1_columns(self, capsys):
        assert main(["figure", "--which", "1"]) == 0
        out = capsys.readouterr().out
        assert out.split("\n")[0] == "p,qdet_F1.00,qdet_F0.98,qdet_F0.95,qdet_F0.90"
        assert len(out.strip().split("\n")) == 102

    def test_figure2_columns(self, capsys):
        assert main(["figure", "--which", "2"]) == 0
        header = capsys.readouterr().out.split("\n")[0]
        assert header == "p,q_exact,qdet_F1.00,qdet_F0.98,qdet_F0.95,qdet_F0.90"


class TestThresholdCommand:
    def test_erasure(self, capsys):
        assert main(["threshold", "--family", "erasure"]) == 0
        out = capsys.readouterr()
        header, row = out.out.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        assert 0.810 <= float(values["computed_threshold"]) <= 0.812
        assert float(values["reference_threshold"]) == 0.811

    def test_depolarizing_reports_both_values(self, capsys):
        assert main(["threshold", "--family", "depolarizing"]) == 0
        out = capsys.readouterr()
        header, row = out.out.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
        assert 0.805 <= float(values["computed_threshold"]) <= 0.825
        assert float(values["reference_threshold"]) == 0.818
        assert "differs" in out.err

    def test_families_are_the_tables(self, capsys):
        with pytest.raises(SystemExit):
            main(["threshold", "--help"])
        assert "--family {" + ",".join(FAMILIES) + "}" in capsys.readouterr().out
        for family, (*_, reference) in FAMILIES.items():
            assert main(["threshold", "--family", family]) == 0
            header, row = capsys.readouterr().out.split()
            assert float(dict(zip(header.split(","), row.split(",")))["reference_threshold"]) == reference


class TestSampleCommand:
    def test_smoke(self, tmp_path, capsys):
        doc = dict(BASE)
        doc["shots"] = 1000
        code = main(["sample", "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == "outcome,probability,count,frequency"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 1000

    def test_requires_shots(self, tmp_path, capsys):
        code = main(["sample", "--config", write_config(tmp_path, BASE)])
        assert code == 2

    def test_applies_the_configs_optimize(self, tmp_path, capsys):
        # certify reports qdet 0.185953 and estimate 0.186978 for this config;
        # the ungrouped bound, 0.136040, is what sample reported without optimize
        config = Path(__file__).resolve().parents[1] / "configs" / "optimize_split5.json"
        args = ["--config", str(config), "--shots", "1000000", "--seed", "0", "--out", str(tmp_path / "out.csv")]
        assert main(["sample", *args]) == 0
        assert "estimate 0.186978 bits (exact 0.185953)" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["certify", "--config", "/nonexistent/cfg.json"]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["certify", "--config", str(path)]) == 2

    def test_unknown_channel_type(self, tmp_path, capsys):
        doc = dict(BASE)
        doc["channel"] = {"type": "smooth"}
        assert main(["certify", "--config", write_config(tmp_path, doc)]) == 2

    def test_runtime_dimension_mismatch_is_numerical_failure(self, tmp_path, capsys):
        doc = dict(BASE)
        doc["channel"] = {"type": "erasure", "d": 2, "p": 0.1}  # bell POVM will not fit
        assert main(["certify", "--config", write_config(tmp_path, doc)]) == 3

    def test_povm_dim_not_divisible_by_probe_dim_is_numerical_failure(self, tmp_path, capsys):
        # a valid 3 x 3 POVM: only the detector, at run time, checks it against the d = 2 probe
        doc = dict(BASE, povm={"type": "custom", "elements": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]})
        assert main(["certify", "--config", write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err == "numerical failure: POVM dim 3 not divisible by probe dim 2\n"

    def test_bad_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--which", "7"])
        assert exc.value.code == 2


SWEEP = dict(BASE, sweep={"variable": "p", "start": 0.0, "stop": 0.2, "steps": 3})
BAD_CONFIGS = {
    "sweep-depolarizing-d1": ("sweep", dict(SWEEP, channel={"type": "depolarizing", "d": 1, "p": 0.1})),
    "certify-erasure-d1": ("certify", dict(BASE, channel={"type": "erasure", "d": 1, "p": 0.1})),
    "certify-empty-povm": ("certify", dict(BASE, povm={"type": "custom", "elements": []})),
    "sweep-shots-text": ("sweep", dict(SWEEP, shots="x")),
    "certify-shots-text": ("certify", dict(BASE, shots="x")),
    "sample-shots-text": ("sample", dict(BASE, shots="x")),
    "sample-seed-fraction": ("sample", dict(BASE, shots=10, seed=1.5)),
    "sweep-steps-fraction": ("sweep", dict(SWEEP, sweep=dict(SWEEP["sweep"], steps=2.5))),
    "certify-d-bool": ("certify", dict(BASE, channel={"type": "depolarizing", "d": True, "p": 0.1})),
    "certify-d-fraction": ("certify", dict(BASE, probe={"type": "max_entangled", "d": 2.7})),
    "certify-dim-in-text": (
        "certify",
        dict(BASE, channel={"type": "kraus", "dim_in": "2", "dim_out": 2, "kraus": [[[1, 0], [0, 1]]]}),
    ),
    "sweep-start-text": ("sweep", dict(SWEEP, sweep=dict(SWEEP["sweep"], start="x"))),
    "sweep-stop-nan": ("sweep", dict(SWEEP, sweep=dict(SWEEP["sweep"], stop=float("nan")))),
    "sweep-not-object": ("sweep", dict(SWEEP, sweep=5)),
    "sweep-channel-not-object": ("sweep", dict(SWEEP, channel=[1, 2])),
    "certify-probe-not-object": ("certify", dict(BASE, probe=5)),
    "certify-povm-not-object": ("certify", dict(BASE, povm="bell")),
    "certify-p-text": ("certify", dict(BASE, channel={"type": "depolarizing", "d": 2, "p": "0.1"})),
    "certify-p-bool": ("certify", dict(BASE, channel={"type": "erasure", "d": 2, "p": False})),
    "certify-p-infinite": ("certify", dict(BASE, channel={"type": "depolarizing", "d": 2, "p": float("inf")})),
    "certify-F-text": ("certify", dict(BASE, probe={"type": "isotropic", "d": 2, "F": "0.9"})),
    "certify-weight-text": (
        "certify",
        dict(BASE, probe={"type": "custom", "terms": [{"weight": "0.5", "op": [[1, 0], [0, 1]]}]}),
    ),
    "certify-optimize-text": ("certify", dict(BASE, optimize="false")),
    "sweep-optimize-text": ("sweep", dict(SWEEP, optimize="false")),
    "certify-probs-text": ("certify", dict(BASE, channel={"type": "pauli", "probs": [["0.9", "0.05"], ["0.03", "0.02"]]})),
    "certify-probs-not-square": ("certify", dict(BASE, channel={"type": "pauli", "probs": [[0.5, 0.5]]})),
    "certify-q-not-square": ("certify", dict(BASE, probe={"type": "bell_diagonal", "q": [[1, 0, 0]]})),
    "certify-povm-element-shapes-differ": (
        "certify",
        dict(BASE, povm={"type": "custom", "elements": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [[1, 0], [0, 1]]]}),
    ),
    "certify-probs-bool": ("certify", dict(BASE, channel={"type": "pauli", "probs": [[True, 0], [0, 0]]})),
    "certify-q-text": ("certify", dict(BASE, probe={"type": "bell_diagonal", "q": [["0.7", 0.1], [0.1, 0.1]]})),
    "certify-q-bool": ("certify", dict(BASE, probe={"type": "bell_diagonal", "q": [[True, 0], [0, 0]]})),
    "certify-kraus-text": (
        "certify",
        dict(BASE, channel={"type": "kraus", "dim_in": 2, "dim_out": 2, "kraus": [[["1", 0], [0, 1]]]}),
    ),
    "certify-kraus-bool": (
        "certify",
        dict(BASE, channel={"type": "kraus", "dim_in": 2, "dim_out": 2, "kraus": [[[True, 0], [0, True]]]}),
    ),
    "certify-kraus-pair-text": (
        "certify",
        dict(BASE, channel={"type": "kraus", "dim_in": 2, "dim_out": 2, "kraus": [[[[1, "0"], 0], [0, 1]]]}),
    ),
    "certify-shots-negative": ("certify", dict(BASE, shots=-5)),
    "certify-label-not-text": (
        "certify",
        dict(BASE, channel={"type": "kraus", "dim_in": 2, "dim_out": 2, "kraus": [[[1, 0], [0, 1]]], "label": 5}),
    ),
    "certify-labels-not-text": (
        "certify",
        dict(BASE, povm={"type": "custom", "elements": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "labels": [0, 1]}),
    ),
    "certify-channel-type-list": ("certify", dict(BASE, channel={"type": [], "d": 2, "p": 0.1})),
    "certify-probe-type-list": ("certify", dict(BASE, probe={"type": [], "d": 2})),
    "sweep-povm-type-list": ("sweep", dict(SWEEP, povm={"type": []})),
    "certify-isotropic-d-huge": ("certify", dict(BASE, probe={"type": "isotropic", "d": 1000000, "F": 0.9})),
    "certify-erasure-d-huge": ("certify", dict(BASE, channel={"type": "erasure", "d": 1000000, "p": 0.1})),
    "sweep-steps-huge": ("sweep", dict(SWEEP, sweep=dict(SWEEP["sweep"], steps=1e308))),
    "certify-kraus-near-max": (
        "certify",
        dict(BASE, channel={"type": "kraus", "dim_in": 2, "dim_out": 2, "kraus": [[[1e308, 0], [0, 1e308]]]}),
    ),
    "certify-probs-near-max": ("certify", dict(BASE, channel={"type": "pauli", "probs": [[1e308, 1e308]] * 2})),
    "certify-povm-near-max-diagonal": (
        "certify",
        dict(BASE, povm={"type": "custom", "elements": [[[1e308, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]}),
    ),
    "certify-povm-near-max-off-diagonal": (
        "certify",
        dict(BASE, povm={"type": "custom", "elements": [[[1, 1e308, 0, 0], [1e308, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]}),
    ),
    "certify-povm-near-max-antisymmetric": (
        "certify",
        dict(BASE, povm={"type": "custom", "elements": [[[1, 1e308, 0, 0], [-1e308, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]}),
    ),
    "certify-povm-near-max-complex": (
        "certify",
        dict(BASE, povm={"type": "custom", "elements": [[[[1, 1e308], 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]}),
    ),
    "sweep-F-range-overflows": (
        "sweep",
        dict(
            SWEEP,
            channel={"type": "depolarizing", "d": 2, "p": 0.1},
            probe={"type": "isotropic", "d": 2},
            sweep={"variable": "F", "start": -1e308, "stop": 1e308, "steps": 3},
        ),
    ),
    "sweep-p-range-overflows": (
        "sweep",
        dict(
            SWEEP,
            channel={"type": "depolarizing", "d": 2},
            probe={"type": "isotropic", "d": 2, "F": 0.9},
            sweep={"variable": "p", "start": -1.7e308, "stop": 1.7e308, "steps": 3},
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_invalid_config_exits_2_without_traceback(name, tmp_path, capsys):
    command, doc = BAD_CONFIGS[name]
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_negative_shots_option_exits_2(tmp_path, capsys):
    assert main(["certify", "--config", write_config(tmp_path, BASE), "--shots", "-5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("source", ["config", "option"])
@pytest.mark.parametrize("command", ["certify", "sample", "sweep"])
def test_shots_above_cap_exit_2_without_drawing(command, source, tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("sampled although the shot count is above the cap")

    monkeypatch.setattr("qcapdet.harness.sample_outcomes", refuse)
    shots = MAX_SHOTS + 1
    doc = SWEEP if command == "sweep" else BASE
    if source == "config":
        args = ["--config", write_config(tmp_path, dict(doc, shots=shots))]
    else:
        args = ["--config", write_config(tmp_path, doc), "--shots", str(shots)]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(MAX_SHOTS) in err and "Traceback" not in err


def test_sweep_total_draws_above_cap_exit_2(tmp_path, capsys):
    # 3 steps of MAX_SHOTS // 2 shots each: every point is under the cap, the sweep is not
    doc = dict(SWEEP, shots=MAX_SHOTS // 2)
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "steps x shots" in err


@pytest.mark.parametrize(
    "channel, povm, noise",
    [("depolarizing", "bell", "depolarizing strength"), ("erasure", "erasure_adapted", "erasure probability")],
)
def test_p_sweep_stopping_outside_the_domain_exits_2(channel, povm, noise, tmp_path, capsys):
    # the grid 0, 0.5, 1, 1.5: its first point builds, its first block holds the bad one
    doc = dict(
        BASE,
        channel={"type": channel, "d": 2},
        probe={"type": "isotropic", "d": 2, "F": 0.95},
        povm={"type": povm},
        sweep={"variable": "p", "start": 0.0, "stop": 1.5, "steps": 4},
    )
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"config error: invalid channel spec: {noise} 1.5 outside [0, 1]\n"


@pytest.mark.parametrize("d", ["1", "0", "-3", "1" + "0" * 200])
def test_threshold_dimension_out_of_range_exits_2(d, capsys):
    assert main(["threshold", "--family", "erasure", "--d", d]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["certify", "threshold"])
def test_unwritable_out_exits_2(command, target, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv" if target == "missing-directory" else tmp_path
    args = ["--config", write_config(tmp_path, BASE)] if command == "certify" else ["--family", "erasure"]
    assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err and "Traceback" not in err


def test_integral_float_counts_as_integer(tmp_path, capsys):
    doc = dict(BASE, shots=1000.0, channel={"type": "depolarizing", "d": 2.0, "p": 0.05})
    assert main(["sample", "--config", write_config(tmp_path, doc)]) == 0
    counts = [int(line.split(",")[2]) for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert sum(counts) == 1000


def test_fields_a_config_does_not_use_are_ignored(tmp_path, capsys):
    doc = dict(
        BASE,
        channel={"type": "pauli", "probs": [[0.9, 0.05], [0.03, 0.02]], "p": "x"},
        probe={"type": "isotropic", "d": 2, "F": 0.9},
        sweep={"variable": "F", "start": 0.8, "stop": 0.9, "steps": 3},
    )
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
    doc = dict(SWEEP, probe={"type": "max_entangled", "d": 2, "F": "x"})
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
