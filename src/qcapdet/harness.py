"""Experiment emulation: config ingestion, sweeps and CSV emission.

A run is described by one JSON document with keys ``channel``, ``probe``,
``povm`` and optionally ``sweep``, ``shots``, ``seed``, ``optimize``; the
schema is documented in the README.  Finite-shot mode perturbs only the
outcome distribution: the outcome weights and the output entropy stay
analytic, so estimator noise reflects counting statistics alone.
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certify import (
    CertificationResult,
    Detector,
    depolarizing_isotropic_qdet,
    erasure_exact_capacity,
    erasure_qdet_closed_form,
    qdet_from_statistics,
)
from .channels import (
    QuantumChannel,
    depolarizing_channel,
    erasure_channel,
    pauli_channel,
)
from .errors import CertificationError, ConfigError
from .measurement import Povm, bell_povm, erasure_povm
from .probes import (
    BipartiteProbeState,
    bell_diagonal_probe,
    custom_probe,
    isotropic_probe,
    max_entangled_probe,
)
from .sampling import ShotRecord, derive_subseed, sample_outcomes


def matrix_from_json(data) -> np.ndarray:
    """Parse a matrix whose entries are numbers or [re, im] pairs."""
    try:
        rows = []
        for row in data:
            parsed = []
            for entry in row:
                if isinstance(entry, (int, float)):
                    parsed.append(complex(entry))
                else:
                    re, im = entry
                    parsed.append(complex(re, im))
            rows.append(parsed)
        return np.asarray(rows, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed matrix entry: {exc}") from exc


def _require(spec: dict, key: str, kind: str):
    if key not in spec:
        raise ConfigError(f"{kind} spec is missing the {key!r} key")
    return spec[key]


def read_int(spec: dict, key: str, kind: str, default: int | None = None) -> int:
    """Integer field of a config section; booleans and fractions are rejected."""
    value = spec.get(key, default) if default is not None else _require(spec, key, kind)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{kind} field {key!r} must be an integer, got {value!r}")
    return value


def read_float(spec: dict, key: str, kind: str) -> float:
    """Finite real field of a config section; text, booleans and non-finite
    values are rejected."""
    value = _require(spec, key, kind)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{kind} field {key!r} must be a finite number, got {value!r}")
    return float(value)


def read_section(doc: dict, key: str) -> dict:
    """A top-level config section, which must be a JSON object."""
    section = _require(doc, key, "config")
    if not isinstance(section, dict):
        raise ConfigError(f"config section {key!r} must be a JSON object, got {section!r}")
    return section


def build_channel(spec: dict) -> QuantumChannel:
    kind = _require(spec, "type", "channel")
    try:
        if kind == "pauli":
            return pauli_channel(np.asarray(_require(spec, "probs", "channel"), dtype=float))
        if kind == "depolarizing":
            return depolarizing_channel(read_int(spec, "d", "channel"), read_float(spec, "p", "channel"))
        if kind == "erasure":
            return erasure_channel(read_int(spec, "d", "channel"), read_float(spec, "p", "channel"))
        if kind == "kraus":
            ops = [matrix_from_json(k) for k in _require(spec, "kraus", "channel")]
            return QuantumChannel(
                read_int(spec, "dim_in", "channel"),
                read_int(spec, "dim_out", "channel"),
                tuple(ops),
                label=spec.get("label", "kraus"),
            )
    except (CertificationError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid channel spec: {exc}") from exc
    raise ConfigError(f"unknown channel type {kind!r}")


def build_probe(spec: dict) -> BipartiteProbeState:
    kind = _require(spec, "type", "probe")
    try:
        if kind == "max_entangled":
            return max_entangled_probe(read_int(spec, "d", "probe"))
        if kind == "isotropic":
            return isotropic_probe(read_int(spec, "d", "probe"), read_float(spec, "F", "probe"))
        if kind == "bell_diagonal":
            return bell_diagonal_probe(np.asarray(_require(spec, "q", "probe"), dtype=float))
        if kind == "custom":
            terms = _require(spec, "terms", "probe")
            weights = [read_float(t, "weight", "probe term") for t in terms]
            ops = [matrix_from_json(_require(t, "op", "probe term")) for t in terms]
            return custom_probe(weights, ops)
    except (CertificationError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid probe spec: {exc}") from exc
    raise ConfigError(f"unknown probe type {kind!r}")


def build_povm(spec: dict, d: int) -> Povm:
    kind = _require(spec, "type", "povm")
    try:
        if kind == "bell":
            return bell_povm(d)
        if kind == "erasure_adapted":
            return erasure_povm(d)
        if kind == "custom":
            elements = [matrix_from_json(e) for e in _require(spec, "elements", "povm")]
            if not elements:
                raise ConfigError("custom povm spec needs at least one element")
            labels = tuple(spec.get("labels", ()))
            return Povm(elements[0].shape[0], tuple(elements), labels, name="custom")
    except (CertificationError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid povm spec: {exc}") from exc
    raise ConfigError(f"unknown povm type {kind!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One-variable grid over a channel/probe family."""

    channel: dict
    probe: dict
    povm: dict
    variable: str  # "p" (channel noise) or "F" (probe fidelity)
    start: float
    stop: float
    steps: int
    shots: int = 0
    seed: int = 0
    optimize: bool = False

    def __post_init__(self):
        if self.variable not in ("p", "F"):
            raise ConfigError(f"sweep variable must be 'p' or 'F', got {self.variable!r}")
        if self.steps < 2:
            raise ConfigError(f"sweep needs at least 2 steps, got {self.steps}")
        if not self.start < self.stop:
            raise ConfigError(f"sweep start {self.start} must be below stop {self.stop}")
        if self.shots < 0:
            raise ConfigError(f"shot count {self.shots} must be nonnegative")


def parse_sweep(doc: dict) -> SweepSpec:
    sweep = read_section(doc, "sweep")
    return SweepSpec(
        channel=read_section(doc, "channel"),
        probe=read_section(doc, "probe"),
        povm=read_section(doc, "povm"),
        variable=_require(sweep, "variable", "sweep"),
        start=read_float(sweep, "start", "sweep"),
        stop=read_float(sweep, "stop", "sweep"),
        steps=read_int(sweep, "steps", "sweep"),
        shots=read_int(doc, "shots", "config", default=0),
        seed=read_int(doc, "seed", "config", default=0),
        optimize=bool(doc.get("optimize", False)),
    )


def _substitute(spec: SweepSpec, value: float) -> tuple[dict, dict]:
    channel = dict(spec.channel)
    probe = dict(spec.probe)
    if spec.variable == "p":
        if channel.get("type") not in ("depolarizing", "erasure"):
            raise ConfigError("sweeping 'p' needs a depolarizing or erasure channel")
        channel["p"] = value
    else:
        if probe.get("type") != "isotropic":
            raise ConfigError("sweeping 'F' needs an isotropic probe")
        probe["F"] = value
    return channel, probe


def _closed_form_family(channel: dict, probe: dict, povm: dict) -> str | None:
    """Name of the applicable closed form, if any."""
    probe_ok = probe.get("type") in ("isotropic", "max_entangled")
    if channel.get("type") == "depolarizing" and probe_ok and povm.get("type") == "bell":
        return "depolarizing"
    if channel.get("type") == "erasure" and probe_ok and povm.get("type") == "erasure_adapted":
        return "erasure"
    return None


def estimate_qdet(record: ShotRecord, t, output_entropy: float) -> float:
    """Plug-in bound from empirical frequencies.

    The plug-in entropy underestimates the true outcome entropy, so this
    estimate is biased upward at finite shots; report it together with the
    shot count.
    """
    if record.shots < 1:
        raise ValueError("shot record is empty")
    return qdet_from_statistics(record.frequencies(), t, output_entropy)


def run_point(
    probe: BipartiteProbeState,
    channel: QuantumChannel,
    povm: Povm,
    optimize: bool = False,
    shots: int = 0,
    seed: int = 0,
) -> tuple[CertificationResult, float | None, ShotRecord | None]:
    """Certify one configuration, optionally with a finite-shot estimate."""
    return _evaluate(Detector(probe, povm), channel, optimize, shots, seed)


def _evaluate(detector: Detector, channel: QuantumChannel, optimize: bool, shots: int, seed: int):
    result = detector.certify(channel, optimize=optimize)
    if shots <= 0:
        return result, None, None
    record = sample_outcomes(result.probabilities, shots, seed)
    return result, estimate_qdet(record, detector.t, result.output_entropy), record


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One certification row per grid point, in grid order.  A 'p' sweep
    keeps one detector; an 'F' sweep keeps one channel."""
    rows = []
    grid = np.linspace(spec.start, spec.stop, spec.steps)
    detector: Detector | None = None
    for i, value in enumerate(grid):
        channel_spec, probe_spec = _substitute(spec, float(value))
        if detector is None or spec.variable == "p":
            channel = build_channel(channel_spec)
        if detector is None or spec.variable == "F":
            probe = build_probe(probe_spec)
            povm = build_povm(spec.povm, probe.d) if detector is None else detector.povm
            detector = Detector(probe, povm)
        d = detector.probe.d
        result, estimate, _ = _evaluate(
            detector, channel, spec.optimize, spec.shots, derive_subseed(spec.seed, i)
        )
        row: dict = {spec.variable: float(value), "qdet": result.qdet}
        family = _closed_form_family(channel_spec, probe_spec, spec.povm)
        fidelity = float(probe_spec["F"]) if probe_spec["type"] == "isotropic" else 1.0
        noise = float(channel_spec["p"]) if channel_spec["type"] in ("depolarizing", "erasure") else 0.0
        if family == "depolarizing":
            row["qdet_closed"] = depolarizing_isotropic_qdet(d, noise, fidelity)
        elif family == "erasure":
            row["qdet_closed"] = erasure_qdet_closed_form(d, noise, fidelity)
        if channel_spec.get("type") == "erasure":
            row["q_exact"] = erasure_exact_capacity(d, noise)
        if spec.shots > 0:
            row["qdet_estimate"] = estimate
            row["shots"] = spec.shots
        rows.append(row)
    return rows


FIGURE_FIDELITIES = (1.0, 0.98, 0.95, 0.90)


def figure_rows(which: int, steps: int = 101) -> tuple[list[str], list[dict]]:
    """Grid data behind the two reference plots (depolarizing and erasure)."""
    if which == 1:
        grid = np.linspace(0.0, 0.25, steps)
        povm = bell_povm(2)
        make_channel = lambda p: depolarizing_channel(2, p)
        columns = ["p"] + [f"qdet_F{f:.2f}" for f in FIGURE_FIDELITIES]
    elif which == 2:
        grid = np.linspace(0.0, 0.5, steps)
        povm = erasure_povm(2)
        make_channel = lambda p: erasure_channel(2, p)
        columns = ["p", "q_exact"] + [f"qdet_F{f:.2f}" for f in FIGURE_FIDELITIES]
    else:
        raise ConfigError(f"unknown figure {which}; pick 1 or 2")
    detectors = {f: Detector(isotropic_probe(2, f), povm) for f in FIGURE_FIDELITIES}
    rows = []
    for p in grid:
        row: dict = {"p": float(p)}
        if which == 2:
            row["q_exact"] = erasure_exact_capacity(2, float(p))
        channel = make_channel(float(p))
        for f, detector in detectors.items():
            row[f"qdet_F{f:.2f}"] = detector.certify(channel).qdet
        rows.append(row)
    return columns, rows


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def write_csv(rows: Sequence[dict], columns: Sequence[str] | None = None) -> str:
    """Render rows as CSV: header line, 12 significant digits, LF endings."""
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_cell(row.get(c)) for c in columns])
    return buf.getvalue()
