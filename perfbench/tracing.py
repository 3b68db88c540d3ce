"""In-memory spans around the public functions of each ``qcapdet`` module.

The tracer replaces every public function of the listed modules, and every
alias other modules imported under the same name (for example
``qcapdet.certify.apply_channel``), with a wrapper that records a span:
name, start, end, parent span and request id.  ``numpy.linalg.eigh`` and
``eigvalsh`` are counted, not spanned.  ``uninstall`` puts the originals back.
Nothing inside ``qcapdet`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODULES = ("linalg", "channels", "probes", "measurement", "certify", "sampling", "harness", "cli")

# Spans are lists [name, start, end, parent index, request id].
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1  # id stamped on new spans
        self.eig_calls = 0
        self.groupings: list[tuple[int, int]] = []  # (outcomes, groups) per certify call
        self.allocations: list[tuple[int, int]] = []  # (shots, peak bytes) per sample_outcomes call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def _observe_certify(self, wrapped):
        @functools.wraps(wrapped)
        def wrapper(probe, ch, povm, *args, **kwargs):
            result = wrapped(probe, ch, povm, *args, **kwargs)
            self.groupings.append((len(povm), len(result.grouping)))
            return result

        return wrapper

    def _observe_allocations(self, wrapped):
        # tracemalloc runs only around sampling, outside the span's own clock
        # reads, so it does not slow the other layers.
        @functools.wraps(wrapped)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                record = wrapped(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.allocations.append((record.shots, peak))
            return record

        return wrapper

    def _counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.eig_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("qcapdet")
        modules = [importlib.import_module(f"qcapdet.{m}") for m in MODULES]
        replacement = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrapper = self._span(f"{short}.{attr}", obj)
                if (short, attr) == ("certify", "certify"):
                    wrapper = self._observe_certify(wrapper)
                elif attr == "sample_outcomes":
                    wrapper = self._observe_allocations(wrapper)
                replacement[obj] = wrapper
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    self._patch(module, attr, replacement[obj])
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self._counter(getattr(np.linalg, attr)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span, covered in zip(self.spans, child):
            entry = out[span[NAME]]
            duration = span[END] - span[START]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered
        return {k: tuple(v) for k, v in out.items()}

    def grouping_candidates(self) -> int:
        """Calls to qdet_from_statistics inside certify beyond the one every
        certify makes, i.e. coarse-grainings the grouping search tried."""
        calls = 0
        for span in self.spans:
            if span[NAME] != "certify.qdet_from_statistics":
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != "certify.certify":
                parent = self.spans[parent][PARENT]
            calls += parent >= 0
        certifies = sum(1 for span in self.spans if span[NAME] == "certify.certify")
        return calls - certifies

    def layer_metrics(self, passes: int, points: int, requests: int) -> dict[str, float]:
        """Per-layer metrics over ``passes`` traced passes of one request set
        holding ``points`` certified points in ``requests`` requests.  Times
        and counts are per pass; ``*_per_point`` and ``*_per_request`` divide
        further."""
        stats = self.self_times()

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0] / passes

        def self_s(*names):
            return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names) / passes

        def module_self_s(module):
            return self_s(*(n for n in stats if n.startswith(module + ".")))

        candidates = self.grouping_candidates()
        merges = sum(n - g for n, g in self.groupings)
        shots = sum(s for s, _ in self.allocations)
        sample_total = stats.get("sampling.sample_outcomes", (0, 0.0, 0.0))[1]
        return {
            "linalg.validate_density_matrix.calls_per_point": calls("linalg.validate_density_matrix") / points,
            "linalg.eig_calls_per_point": self.eig_calls / passes / points,
            "linalg.self_s": module_self_s("linalg"),
            "channels.apply_channel.calls_per_point": calls("channels.apply_channel") / points,
            "channels.apply_extended_channel.calls_per_point": calls("channels.apply_extended_channel") / points,
            "channels.self_s": module_self_s("channels"),
            "probes.reduced_system_state.calls_per_point": calls("probes.reduced_system_state") / points,
            "probes.self_s": module_self_s("probes"),
            "measurement.t_vector.calls_per_point": calls("measurement.t_vector") / points,
            "measurement.outcome_probabilities.calls_per_point": calls("measurement.outcome_probabilities") / points,
            "measurement.povm_build_s": self_s("measurement.bell_povm", "measurement.erasure_povm"),
            "measurement.coarse_grain.calls": calls("measurement.coarse_grain"),
            "measurement.coarse_grain.self_s": self_s("measurement.coarse_grain"),
            "certify.certify.self_s": self_s("certify.certify"),
            "certify.coherent_information.self_s": self_s("certify.coherent_information"),
            "certify.grouping_candidates_per_request": candidates / passes / requests,
            "certify.grouping_merge_ratio": merges / candidates if candidates else 0.0,
            "sampling.sample_outcomes.self_s": self_s("sampling.sample_outcomes"),
            "sampling.uniform_stream.self_s": self_s("sampling.uniform_stream"),
            "sampling.ns_per_shot": sample_total / shots * 1e9 if shots else 0.0,
            "sampling.peak_alloc_bytes_per_shot": sum(b for _, b in self.allocations) / shots if shots else 0.0,
            "harness.build.self_s": self_s("harness.build_channel", "harness.build_probe", "harness.build_povm"),
            "harness.run_sweep.self_s": self_s("harness.run_sweep"),
            "harness.write_csv.self_s": self_s("harness.write_csv"),
            "cli.self_s": module_self_s("cli"),
        }

    def write_spans(self, path, first: int = 0) -> None:
        """Write spans[first:] as CSV; parent is an index into all spans."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,request\n")
            for index in range(first, len(self.spans)):
                name, start, end, parent, request = self.spans[index]
                fh.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{request}\n")
