"""Tests of the benchmark itself: metric names, output checks, failure modes."""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        assert f"  {name} " in proc.stdout  # the human-readable report names it too


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep_small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_requests_depend_only_on_the_seed():
    a, b = workloads.build("sample_shots", 7), workloads.build("sample_shots", 7)
    assert a == b
    assert a.pool != workloads.build("sample_shots", 8).pool


# --- the output checks reject corrupted output ------------------------------


@pytest.fixture(scope="module")
def qcapdet():
    return worker.import_qcapdet()


def first_output(qcapdet, tmp_path, name):
    request = workloads.build(name, 11).pool[0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(request.config))
    out = tmp_path / "out.csv"
    assert qcapdet.cli.main([request.command, "--config", str(config), "--out", str(out)]) == 0
    return request, out.read_text()


def replace_cell(text, column, row, transform):
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row + 1][col] = transform(rows[row + 1][col])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


CORRUPTIONS = [
    ("sweep_small", "qdet", 0, lambda v: repr(float(v) + 1e-6)),
    ("sweep_small", "qdet_closed", 1, lambda v: repr(float(v) - 1e-6)),
    ("optimize_large", "qdet", 0, lambda v: repr(float(v) + 10.0)),  # above any coherent information here
    ("optimize_large", "qdet", 0, lambda v: repr(float(v) - 0.05)),
    ("sample_shots", "count", 0, lambda v: str(int(v) + 1)),
    ("sample_shots", "frequency", 1, lambda v: repr(float(v) * 1.01)),
    ("sample_shots", "probability", 0, lambda v: repr(float(v) * 0.5)),
]


@pytest.mark.parametrize("name, column, row, transform", CORRUPTIONS)
def test_corrupted_output_fails(qcapdet, tmp_path, name, column, row, transform):
    request, text = first_output(qcapdet, tmp_path, name)
    check = workloads.Checker(qcapdet)
    assert check(request, text) is None
    assert check(request, replace_cell(text, column, row, transform)) is not None
    assert check(request, text.splitlines()[0] + "\n") is not None  # rows missing


def test_sample_counts_beyond_six_sigma_fail(qcapdet, tmp_path):
    request, text = first_output(qcapdet, tmp_path, "sample_shots")
    shots = request.config["shots"]
    moved = shots // 10  # far beyond 6 sigma, sum unchanged
    text = replace_cell(text, "count", 0, lambda v: str(int(v) + moved))
    text = replace_cell(text, "count", 1, lambda v: str(int(v) - moved))
    assert workloads.Checker(qcapdet)(request, text) is not None


def test_failed_and_unrepeatable_requests_count(qcapdet, tmp_path):
    request, text = first_output(qcapdet, tmp_path, "sample_shots")
    outcomes = worker.Outcomes(workloads.Checker(qcapdet), (request,))
    outcomes.add(0, 0, text)
    outcomes.add(0, 0, text)
    assert outcomes.check() == 0
    outcomes.add(0, 0, replace_cell(text, "outcome", 0, lambda v: v + "x"))  # differs from the first run
    outcomes.add(0, 3, "")  # nonzero exit code
    outcomes.failures.clear()
    assert outcomes.check() == 2 and len(outcomes.failures) == 2


def test_tracer_records_nested_spans_and_restores(qcapdet):
    module = sys.modules["qcapdet.certify"]  # the package re-exports certify(), hiding the module
    original = module.apply_channel
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert module.apply_channel is not original
        probe = qcapdet.isotropic_probe(2, 0.95)
        qcapdet.certify(probe, qcapdet.depolarizing_channel(2, 0.1), qcapdet.bell_povm(2))
    finally:
        tracer.uninstall()
    assert module.apply_channel is original
    stats = tracer.self_times()
    calls, total, self_s = stats["certify.certify"]
    assert calls == 1 and 0.0 < self_s < total
    assert stats["channels.apply_channel"][0] >= 1 and tracer.eig_calls > 0
    assert tracer.grouping_candidates() == 0 and tracer.groupings == [(4, 4)]
