"""One benchmark process: set up, run the closed request loop, check outputs.

run.py starts this script in a fresh interpreter for every measurement, so
set-up time includes interpreter start and ``import qcapdet``.  The loop has
one client and no extra threads: it calls ``qcapdet.cli.main(argv)``
in-process, one request after another, with each request's CSV sent to a
scratch file.  Only ``cli.main`` is inside the clock; writing configs,
reading outputs back and checking them are not.  The result is printed as
one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
CPUS = sorted(os.sched_getaffinity(0))
MIN_PASSES = 2
SMOKE_REQUESTS = 3
TRACE_BLOCKS = 2  # the traced request set is the first blocks of the pool


def pin_for_pass(k: int) -> None:
    """Pin this process to one allowed CPU for pass ``k``, taking the CPUs in
    turn, so every request is timed on each of them.  On a shared VM each
    virtual CPU is slowed by other tenants on its own schedule, and a
    request's fastest pass then comes from whichever CPU was least loaded."""
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def import_qcapdet():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qcapdet
    from qcapdet import cli  # noqa: F401  (loaded before the first request)

    if Path(qcapdet.__file__).resolve().parent != (src / "qcapdet").resolve():
        raise ImportError(f"qcapdet imported from {qcapdet.__file__}, not from {src}")
    return qcapdet


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, when it can be asked."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "seed": seed,
    }


class Client:
    """Issues CLI requests from pre-written config files."""

    def __init__(self, cli, scratch: Path, requests, prefix: str):
        self.cli = cli
        self.out = scratch / "out.csv"
        self.configs = []
        for i, request in enumerate(requests):
            path = scratch / f"{prefix}-{i}.json"
            path.write_text(json.dumps(request.config), encoding="utf-8")
            self.configs.append(str(path))

    def issue(self, index: int, command: str) -> tuple[float, object, str]:
        """(seconds inside cli.main, exit code, CSV text) of one request."""
        if self.out.exists():
            self.out.unlink()
        argv = [command, "--config", self.configs[index], "--out", str(self.out)]
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed request; keep the traceback
            code = "exception"
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        text = self.out.read_text(encoding="utf-8") if code == 0 and self.out.exists() else ""
        return elapsed, code, text


class Outcomes:
    """Every request issued in the measured phase, checked afterwards."""

    def __init__(self, checker, pool):
        self.checker, self.pool = checker, pool
        self.issued: list[tuple[int, object, str]] = []  # (pool index, exit code, text)
        self.failures: list[str] = []

    def add(self, index: int, code, text: str) -> None:
        self.issued.append((index, code, text))

    def check(self) -> int:
        """Number of failed requests.  The first output of each pool entry is
        checked; every repeat of that entry must reproduce it byte for byte."""
        first: dict[int, str] = {}
        verdict: dict[int, str | None] = {}
        failed = 0
        for n, (index, code, text) in enumerate(self.issued):
            if code != 0:
                reason = f"exit code {code}"
            elif index not in first:
                first[index] = text
                reason = verdict[index] = self.checker(self.pool[index], text)
            elif text != first[index]:
                reason = "the same request repeated gave different CSV"
            else:
                reason = verdict[index]
            if reason is not None:
                failed += 1
                self.failures.append(f"request {n} ({self.pool[index].label}): {reason}")
        return failed


def timed_loop(client, requests, seconds: float, smoke: bool, outcomes) -> list[list[float]]:
    """Latencies of each request over repeated passes through all of them.

    Pass k runs on CPU k mod the number of CPUs.  The loop stops once ``seconds`` have
    passed, mid-pass if need be, but not before MIN_PASSES whole passes; a
    smoke run makes one pass.
    """
    latencies: list[list[float]] = [[] for _ in requests]
    start = time.perf_counter()
    n = 0
    while True:
        index = n % len(requests)
        if index == 0:
            pin_for_pass(n // len(requests))
        elapsed, code, text = client.issue(index, requests[index].command)
        latencies[index].append(elapsed)
        outcomes.add(index, code, text)
        n += 1
        if smoke and n == len(requests):
            return latencies
        if n >= MIN_PASSES * len(requests) and time.perf_counter() - start >= seconds:
            return latencies


def end_to_end(args, work, client, outcomes) -> dict:
    requests = work.pool[:SMOKE_REQUESTS] if args.smoke else work.pool
    latencies = timed_loop(client, requests, args.seconds, args.smoke, outcomes)
    failed = outcomes.check()
    # A request's latency is its fastest pass: contention from other
    # processes on a shared machine only ever adds time.
    best = np.array([min(samples) for samples in latencies])
    busy = float(best.sum())
    points = sum(r.points for r in requests)
    shots = sum(r.shots for r in requests)
    attempted = len(outcomes.issued)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "points_per_s": points / busy,
            "request_ms_p50": float(np.percentile(best, 50)) * 1e3,
            "request_ms_p90": float(np.percentile(best, 90)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "pass_ratio": (attempted - failed) / attempted,
        },
        "extra": {
            "shots_per_s": shots / busy,
            "fail_ratio": failed / attempted,
            "passes": attempted / len(requests),
            "pass_wall_s": [sum(samples[k] for samples in latencies) for k in range(min(map(len, latencies)))],
            "requests_per_pass": len(requests),
            "points_per_pass": points,
            "shots_per_pass": shots,
            "requests_by_class": dict(sorted(Counter(r.label for r in requests).items())),
        },
    }


def per_layer(args, work, client, outcomes, spans_path: Path) -> dict:
    """Alternate untraced and traced passes over a fixed request set."""
    count = SMOKE_REQUESTS if args.smoke else TRACE_BLOCKS * work.block
    requests = work.pool[:count]
    tracer = tracing.Tracer()

    def one_pass(traced: bool, k: int) -> float:
        wall = 0.0
        pin_for_pass(k)
        if traced:
            tracer.install()
        try:
            for index, request in enumerate(requests):
                tracer.request = index
                elapsed, code, text = client.issue(index, request.command)
                wall += elapsed
                outcomes.add(index, code, text)
        finally:
            tracer.uninstall()
        return wall

    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or (not args.smoke and time.perf_counter() - start < args.seconds):
        # Pass k runs on the same CPU traced and untraced.
        untraced.append(one_pass(False, len(traced)))
        last_pass = len(tracer.spans)
        traced.append(one_pass(True, len(traced)))
    failed = outcomes.check()
    tracer.write_spans(spans_path, first=last_pass)
    metrics = tracer.layer_metrics(len(traced), sum(r.points for r in requests), len(requests))
    metrics["untraced_wall_s"] = statistics.median(untraced)
    metrics["trace_overhead_ratio"] = statistics.median(traced) / metrics["untraced_wall_s"]
    attempted = len(outcomes.issued)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": {
            "passes": len(traced),
            "traced_wall_s": statistics.median(traced),
            "trace_requests": len(requests),
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() when the process was spawned")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    qcapdet = import_qcapdet()
    scratch = Path(args.out_dir) / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        work = workloads.build(args.workload, args.seed)
        warmup = Client(qcapdet.cli, scratch, work.warmup, "warm")
        client = Client(qcapdet.cli, scratch, work.pool, "req")
        for i, request in enumerate(work.warmup):
            warmup.issue(i, request.command)
        setup_s = time.monotonic() - args.started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        outcomes = Outcomes(workloads.Checker(qcapdet), work.pool)
        if args.trace:
            spans = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.csv"
            result = per_layer(args, work, client, outcomes, spans)
        else:
            result = end_to_end(args, work, client, outcomes)
            result["metrics"]["setup_s"] = setup_s
        result["failures"] = outcomes.failures[:20]
        result["environment"] = environment(args.seed)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
