"""qcapdet benchmark: closed-loop CLI workloads with correctness checks.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 [--trace 1]

Every measurement runs in a fresh worker process (worker.py).  With
``--trace 0`` set-up is measured in several processes and its median is
reported next to the end-to-end metrics of one timed loop; with ``--trace 1``
one process reports the per-layer metrics.  Each run writes a result file,
with the environment, under perfbench/out/.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OUT = HERE / "out"
SPEC_FILE = HERE.parent / "BENCHMARK.json"  # names, units and bounds of every metric
# A --trace 0 run measures set-up in the timed worker and in set-up-only
# workers before and after it, so the samples come from both ends of the run.
SETUPS_BEFORE, SETUPS_AFTER = 1, 2
RUN_BUDGET_S = 170.0  # every worker of one run must end within this

# One-thread BLAS keeps the loop a single client with no extra threads.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchmarkError(RuntimeError):
    pass


def spawn(args, deadline: float, log: Path, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its JSON result."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(OUT),
    ]
    argv += ["--setup-only"] * setup_only + ["--smoke"] * args.smoke
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    with open(log, "a", encoding="utf-8") as err:
        try:
            proc = subprocess.run(
                argv + ["--started", repr(time.monotonic())],
                stdout=subprocess.PIPE, stderr=err, text=True, timeout=timeout,
                env={**os.environ, **WORKER_ENV}, cwd=HERE.parent,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchmarkError(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}; see {log}")
    return json.loads(lines[-1])


def run_one(args) -> dict:
    """Measure one workload; returns the result record written to disk."""
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log = OUT / f"{stem}.stderr.log"
    log.write_text("", encoding="utf-8")
    deadline = time.monotonic() + RUN_BUDGET_S
    repeat_setup = not args.trace and not args.smoke

    def setup_only(count):
        return [spawn(args, deadline, log, setup_only=True)["setup_s"] for _ in range(count if repeat_setup else 0)]

    before = setup_only(SETUPS_BEFORE)
    result = spawn(args, deadline, log)
    if not args.trace:
        setups = before + [result["metrics"]["setup_s"]] + setup_only(SETUPS_AFTER)
        result["metrics"]["setup_s"] = statistics.median(setups)
        table = "end_to_end"
        n = result["extra"]["requests_per_pass"]
        samples = {"setup_s": len(setups), "request_ms_p50": n, "request_ms_p90": n}
        result["extra"]["setup_samples_s"] = setups
    else:
        table = "per_layer"
        samples = {"untraced_wall_s": result["extra"]["passes"], "trace_overhead_ratio": result["extra"]["passes"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {**m, "value": result["metrics"][m["name"]], "samples": samples.get(m["name"])}
            for m in json.loads(SPEC_FILE.read_text(encoding="utf-8"))[table]
        },
        "extra": result["extra"],
        "failures": result["failures"],
        "environment": result["environment"],
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> None:
    """Print every metric by name, unit and sample count."""
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}): "
          f"{record['attempted']} requests, {record['failed']} failed")
    for name, m in record["metrics"].items():
        n = f"  (n={m['samples']})" if m["samples"] else ""
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}{n}")
    if not record["trace"]:
        extra = record["extra"]
        print(f"  {'fail_ratio':52s} {extra['fail_ratio']:.6g} 1  (n={record['attempted']})")
        if extra["shots_per_pass"]:
            print(f"  {'shots_per_s':52s} {extra['shots_per_s']:.6g} 1/s  (n={extra['requests_per_pass']})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=workloads.WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few requests per workload, one set-up")
    args = parser.parse_args(argv)

    try:
        if args.all:
            records = []
            for trace in sorted({0, args.trace}):
                for name in workloads.WORKLOADS:
                    records.append(run_one(argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})))
                    report(records[-1])
            summary = {r["workload"] + ("-trace" if r["trace"] else ""): _line(r) for r in records}
            print(json.dumps({"correct": all(r["correct"] for r in records), "runs": summary}))
            return 0 if all(r["correct"] for r in records) else 1
        record = run_one(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(record)
    print(json.dumps(_line(record)))
    return 0


def _line(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }


if __name__ == "__main__":
    sys.exit(main())
