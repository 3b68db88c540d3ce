"""Summarize paired benchmark runs of a parent commit and a change.

Usage: python tools/bench_trajectory.py --parent COMMIT --base RESULT... --change RESULT... [--out PATH]

Each RESULT is a ``result-<workload>-seed<s>-trace<t>.json`` file that
``perfbench/run.py`` wrote.  ``run.py`` overwrites that file on the next run
with the same workload, seed and trace, so copy each run's file aside before
the next run.  ``--base`` takes the parent's runs, ``--change`` the change's.

For each workload and each end-to-end metric that ``BENCHMARK.json`` names,
the output holds each side's median, quartiles and every run's value, and
how many seed-paired runs the change won (ties count for neither side).  It
also holds each run's seed, ``--seconds``, ``attempted`` and ``failed``
counts, and the parent commit.  Every file given is used: no run is dropped
and none is re-run.  The output goes to ``BENCH_<short parent>.json`` at the
repository root unless ``--out`` names another path.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def end_to_end() -> list[dict]:
    """The end-to-end metrics the benchmark declares, with their direction and bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def load(paths: list[str]) -> list[dict]:
    runs = []
    for path in paths:
        try:
            result = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"{path}: {exc}") from exc
        if not isinstance(result, dict) or "workload" not in result or "metrics" not in result:
            raise SystemExit(f"{path}: not a perfbench result file")
        runs.append(result | {"file": Path(path).name})
    return runs


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, so one run gives its own value three times)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def change_wins(metric: dict, base: list[dict], change: list[dict]) -> dict:
    """Seed-paired comparison of one metric: runs are paired by seed, in the
    order given where a seed repeats."""
    by_seed = {}
    for run in base:
        by_seed.setdefault(run["seed"], []).append(run)
    wins = losses = pairs = 0
    for run in change:
        if not by_seed.get(run["seed"]):
            continue
        other = by_seed[run["seed"]].pop(0)
        a, b = other["metrics"][metric["name"]]["value"], run["metrics"][metric["name"]]["value"]
        pairs += 1
        better, worse = (b > a, b < a) if metric["better"] == "higher" else (b < a, b > a)
        wins, losses = wins + better, losses + worse
    return {"pairs": pairs, "change_wins": wins, "change_losses": losses}


def summarize(parent: str, sides: dict[str, list[dict]]) -> dict:
    metrics = end_to_end()
    workloads = sorted({run["workload"] for runs in sides.values() for run in runs})
    out = {"parent_commit": parent, "sides": {"base": "parent commit", "change": "the change"}, "workloads": {}}
    for workload in workloads:
        runs = {side: [r for r in sides[side] if r["workload"] == workload] for side in SIDES}
        entry = {
            side: {
                "runs": [
                    {key: run[key] for key in ("file", "seed", "seconds", "trace", "smoke", "attempted", "failed", "correct")}
                    for run in runs[side]
                ],
                "metrics": {},
            }
            for side in SIDES
        }
        for metric in metrics:
            for side in SIDES:
                values = [run["metrics"][metric["name"]]["value"] for run in runs[side]]
                if values:
                    entry[side]["metrics"][metric["name"]] = quartiles(values) | {"values": values}
            entry.setdefault("paired", {})[metric["name"]] = change_wins(metric, runs["base"], runs["change"])
        out["workloads"][workload] = entry
    out["metrics"] = {m["name"]: {k: m[k] for k in ("unit", "better", "bound")} for m in metrics}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="the parent commit the change is measured against")
    parser.add_argument("--base", nargs="+", required=True, help="result files of the parent's runs")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change's runs")
    parser.add_argument("--out", help="output path (default: BENCH_<short parent>.json at the repository root)")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True, text=True)
    if rev.returncode != 0:
        print(f"unknown commit {args.parent!r}: {rev.stderr.strip()}", file=sys.stderr)
        return 2
    parent = rev.stdout.strip()
    report = summarize(parent, {"base": load(args.base), "change": load(args.change)})
    out = Path(args.out) if args.out else ROOT / f"BENCH_{parent[:7]}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"{sum(len(w[s]['runs']) for w in report['workloads'].values() for s in SIDES)} runs summarized in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
