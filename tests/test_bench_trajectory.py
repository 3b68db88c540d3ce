"""tools/bench_trajectory.py on small, made-up result files."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trajectory)

NAMES = [m["name"] for m in bench_trajectory.end_to_end()]
PARENT = "0123456789abcdef0123456789abcdef01234567"


def rev_parse(monkeypatch, returncode, stdout="", stderr=""):
    """Answer the tool's ``git rev-parse`` without git, so the tests also run
    in an export of the tree that is not a checkout."""
    answer = lambda argv, **kwargs: subprocess.CompletedProcess(argv, returncode, stdout, stderr)
    monkeypatch.setattr(bench_trajectory, "subprocess", SimpleNamespace(run=answer))


def result(tmp_path, side, workload, seed, points_per_s, rss):
    values = dict.fromkeys(NAMES, 1.0) | {"points_per_s": points_per_s, "peak_rss_mb": rss}
    doc = {
        "workload": workload,
        "seed": seed,
        "seconds": 40.0,
        "trace": 0,
        "smoke": False,
        "correct": True,
        "attempted": 100 + seed,
        "failed": 0,
        "metrics": {name: {"name": name, "value": value} for name, value in values.items()},
    }
    path = tmp_path / side / f"result-{workload}-seed{seed}-trace0.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc))
    return str(path)


def test_summary_keeps_every_run_and_pairs_by_seed(tmp_path, monkeypatch):
    rev_parse(monkeypatch, 0, PARENT + "\n")
    base = [result(tmp_path, "base", "sweep_small", s, 100.0 + s, 50.0) for s in (1, 2, 3, 4)]
    change = [result(tmp_path, "change", "sweep_small", s, v, 51.0) for s, v in zip((4, 3, 2, 1), (90.0, 120, 130, 140))]
    out = tmp_path / "bench.json"
    assert bench_trajectory.main(["--parent", "HEAD", "--base", *base, "--change", *change, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    entry = report["workloads"]["sweep_small"]
    assert entry["base"]["metrics"]["points_per_s"] | {"values": None} == {
        "median": 102.5,
        "q1": 101.75,
        "q3": 103.25,
        "values": None,
    }
    assert entry["change"]["metrics"]["points_per_s"]["values"] == [90.0, 120, 130, 140]  # in the order given
    assert entry["paired"]["points_per_s"] == {"pairs": 4, "change_wins": 3, "change_losses": 1}
    assert entry["paired"]["peak_rss_mb"] == {"pairs": 4, "change_wins": 0, "change_losses": 4}  # lower is better
    assert entry["paired"]["setup_s"] == {"pairs": 4, "change_wins": 0, "change_losses": 0}  # ties count for neither
    assert [run["attempted"] for run in entry["base"]["runs"]] == [101, 102, 103, 104]
    assert len(report["parent_commit"]) == 40 and set(report["metrics"]) == set(NAMES)


def test_one_run_per_side_and_bad_input(tmp_path, monkeypatch):
    rev_parse(monkeypatch, 0, PARENT + "\n")
    one = result(tmp_path, "base", "sample_shots", 7, 10.0, 40.0)
    out = tmp_path / "bench.json"
    assert bench_trajectory.main(["--parent", "HEAD", "--base", one, "--change", one, "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["workloads"]["sample_shots"]["change"]["metrics"]["points_per_s"]
    assert summary == {"median": 10.0, "q1": 10.0, "q3": 10.0, "values": [10.0]}
    (tmp_path / "junk.json").write_text("[]")
    with pytest.raises(SystemExit, match="not a perfbench result file"):
        bench_trajectory.main(["--parent", "HEAD", "--base", str(tmp_path / "junk.json"), "--change", one, "--out", str(out)])


def test_unknown_commit_exits_2(tmp_path, monkeypatch, capsys):
    rev_parse(monkeypatch, 128, stderr="fatal: ambiguous argument 'nope'\n")
    one = result(tmp_path, "base", "sample_shots", 7, 10.0, 40.0)
    out = tmp_path / "bench.json"
    assert bench_trajectory.main(["--parent", "nope", "--base", one, "--change", one, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "unknown commit 'nope': fatal: ambiguous argument 'nope'\n"
    assert not out.exists()
