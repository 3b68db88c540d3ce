"""CLI output against stored golden CSV files.

The fixtures in ``fixtures/golden`` hold the output of each CLI command on
the bundled configs.  A refactor may move a numeric cell by rounding noise in
its 12th significant digit, so numeric cells must match byte for byte or lie
within GOLDEN_TOL of the stored value; every other cell must match exactly.
"""

import csv
import io
from pathlib import Path

import pytest

from qcapdet.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "fixtures" / "golden"
GOLDEN_TOL = 1e-10

CASES = {
    "certify_depolarizing_hashing": ["certify", "--config", "configs/depolarizing_hashing.json"],
    "certify_optimize_split5": ["certify", "--config", "configs/optimize_split5.json"],
    "certify_optimize_split7": ["certify", "--config", "configs/optimize_split7.json"],
    "certify_kraus_custom_probe": ["certify", "--config", "configs/kraus_custom_probe.json"],
    "certify_custom_partial_rank": ["certify", "--config", "configs/custom_partial_rank.json"],
    "sample_bell_diagonal_sample": ["sample", "--config", "configs/bell_diagonal_sample.json"],
    "sweep_depolarizing_F_sweep": ["sweep", "--config", "configs/depolarizing_F_sweep.json"],
    "sample_depolarizing_hashing": ["sample", "--config", "configs/depolarizing_hashing.json"],
    "sweep_erasure": ["sweep", "--config", "configs/erasure_sweep.json"],
    "sweep_erasure_shots": ["sweep", "--config", "configs/erasure_sweep.json", "--shots", "2000"],
    "sweep_d8_p_shots": ["sweep", "--config", "configs/sweep_d8_p.json", "--shots", "2000"],
    "sweep_d16_p": ["sweep", "--config", "configs/sweep_d16_p.json"],
    "sweep_F_erasure_optimize": ["sweep", "--config", "configs/sweep_F_erasure_optimize.json"],
    "sweep_F_amplitude_damping": ["sweep", "--config", "configs/sweep_F_amplitude_damping.json"],
    "sweep_F_d4_chunks": ["sweep", "--config", "configs/sweep_F_d4_chunks.json"],
    "figure_1": ["figure", "--which", "1"],
    "figure_2": ["figure", "--which", "2"],
    "threshold_depolarizing": ["threshold", "--family", "depolarizing"],
    "threshold_erasure": ["threshold", "--family", "erasure"],
}


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def cell_mismatches(expected: str, actual: str) -> list[str]:
    """Describe every cell where ``actual`` departs from ``expected``."""
    want = list(csv.reader(io.StringIO(expected)))
    got = list(csv.reader(io.StringIO(actual)))
    if len(want) != len(got):
        return [f"{len(got)} lines, expected {len(want)}"]
    problems = []
    for r, (want_row, got_row) in enumerate(zip(want, got)):
        if len(want_row) != len(got_row):
            problems.append(f"line {r}: {len(got_row)} cells, expected {len(want_row)}")
            continue
        for c, (a, b) in enumerate(zip(want_row, got_row)):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None or not abs(x - y) <= GOLDEN_TOL:
                problems.append(f"line {r} column {want[0][c]}: {b!r}, expected {a!r}")
    return problems


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out.csv"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    assert cell_mismatches(expected, out.read_text(encoding="utf-8")) == []


def test_comparison_flags_moved_and_changed_cells():
    golden = "a,b\nx,0.5\n"
    assert cell_mismatches(golden, "a,b\nx,0.50000000000001\n") == []
    assert cell_mismatches(golden, "a,b\nx,0.5000001\n") != []
    assert cell_mismatches(golden, "a,b\ny,0.5\n") != []
    assert cell_mismatches(golden, "a,b\nx,0.5\nx,0.5\n") != []
