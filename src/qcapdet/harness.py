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
import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .certify import FAMILIES, CertificationResult, Detector, grouped_bound
from .channels import (
    QuantumChannel,
    _depolarizing_channels,
    _erasure_channels,
    depolarizing_channel,
    erasure_channel,
    pauli_channel,
)
from .errors import CertificationError, ConfigError
from .measurement import Povm, bell_povm, coarse_grain, erasure_povm
from .probes import (
    BipartiteProbeState,
    bell_diagonal_probe,
    custom_probe,
    isotropic_probe,
    max_entangled_probe,
)
from .sampling import ShotRecord, derive_subseed, sample_outcomes


MAX_DIM = 16  # largest `d` a config may ask for; linalg's tolerances hold below ~16
MAX_STEPS = 10**6  # largest sweep grid
MAX_SHOTS = 10**9  # most draws one command may ask for; 2.3-5.6 s of sampling at 4-272 outcomes


def _reader(accepts, expected: str, convert=lambda value: value):
    """Field reader: checks one JSON value, named by its path in the config
    document, and returns it in the form the constructors take."""

    def reader(value, where: str):
        if not accepts(value):
            raise ConfigError(f"{where} must be {expected}, got {value!r}")
        return convert(value)

    return reader


def _number(value) -> bool:
    """A JSON number; booleans are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integral(value) -> bool:
    return _number(value) and (isinstance(value, int) or value.is_integer())


integer = _reader(_integral, "an integer", int)  # 2.0 reads as 2
shot_count = _reader(lambda v: _integral(v) and 0 <= v <= MAX_SHOTS, f"an integer from 0 to {MAX_SHOTS}", int)
dimension = _reader(lambda v: _integral(v) and v <= MAX_DIM, f"an integer of at most {MAX_DIM}", int)
# NaN, infinities and integers beyond the float range are not finite numbers.
real = _reader(lambda v: _number(v) and abs(v) <= sys.float_info.max, "a finite number", float)
boolean = _reader(lambda v: isinstance(v, bool), "true or false")
text = _reader(lambda v: isinstance(v, str), "text")
json_object = _reader(lambda v: isinstance(v, dict), "a JSON object")


def listed(reader, allow_empty: bool = False):
    """Reader of a JSON list whose items are each checked by ``reader``."""

    def read_list(value, where: str) -> tuple:
        if not isinstance(value, list) or not (value or allow_empty):
            raise ConfigError(f"{where} must be a {'list' if allow_empty else 'non-empty list'}, got {value!r}")
        return tuple(reader(item, f"{where}[{i}]") for i, item in enumerate(value))

    return read_list


def _entry(value, where: str) -> complex:
    pair = value if isinstance(value, list) else [value, 0.0]
    if len(pair) != 2:
        raise ConfigError(f"{where} must be a number or an [re, im] pair, got {value!r}")
    return complex(real(pair[0], where), real(pair[1], where))


# Grids are lists of rows; the constructors reject rows of unequal length.
real_grid = listed(listed(real))
complex_matrix = listed(listed(_entry))  # entries are numbers or [re, im] pairs


def _term(value, where: str) -> tuple[float, tuple]:
    term = json_object(value, where)
    return read(term, "weight", real, where), read(term, "op", complex_matrix, where)


# Spec tables: type -> (constructor, fields).  A field is (name, reader) or
# (name, reader, default); the constructor takes the fields in this order,
# and a POVM constructor takes the probe dimension first.
_CHANNELS = {
    "pauli": (pauli_channel, [("probs", real_grid)]),
    "depolarizing": (depolarizing_channel, [("d", dimension), ("p", real)]),
    "erasure": (erasure_channel, [("d", dimension), ("p", real)]),
    "kraus": (
        QuantumChannel,
        [("dim_in", integer), ("dim_out", integer), ("kraus", listed(complex_matrix)), ("label", text, "kraus")],
    ),
}
# The stacked builder of each channel type with a 'p' field: its channels at a
# list of p, built and checked as one stack.
_CHANNEL_STACKS = {"depolarizing": _depolarizing_channels, "erasure": _erasure_channels}
_PROBES = {
    "max_entangled": (max_entangled_probe, [("d", dimension)]),
    "isotropic": (isotropic_probe, [("d", dimension), ("F", real)]),
    "bell_diagonal": (bell_diagonal_probe, [("q", real_grid)]),
    "custom": (lambda terms: custom_probe(*zip(*terms)), [("terms", listed(_term))]),
}
_POVMS = {
    "bell": (bell_povm, []),
    "erasure_adapted": (erasure_povm, []),
    "custom": (
        lambda d, elements, labels: Povm(len(elements[0]), elements, labels, name="custom"),
        [("elements", listed(complex_matrix)), ("labels", listed(text, allow_empty=True), ())],
    ),
}
# Run settings of a config document, read the same way by every command.
_RUN = [("shots", shot_count, 0), ("seed", integer, 0), ("optimize", boolean, False)]
_SWEEP = [("variable", text), ("start", real), ("stop", real), ("steps", integer)]
# Each sweep variable: the config section it is a field of, and the value a
# row reports for it when that section's type has no such field.
_SWEEP_VARIABLES = {"p": ("channel", 0.0), "F": ("probe", 1.0)}


def read(spec: dict, key: str, reader, where: str = "", default=None):
    """Field ``key`` of a config section, checked by ``reader``; ``default``
    stands in for a missing field, and without one a missing field is an error."""
    path = f"{where}.{key}" if where else key
    if key in spec:
        return reader(spec[key], path)
    if default is None:
        raise ConfigError(f"{path} is missing")
    return default


def _read_fields(spec: dict, fields, where: str) -> dict:
    return {name: read(spec, name, reader, where, *default) for name, reader, *default in fields}


def read_spec(table: dict, spec: dict, where: str):
    """The constructor for the type of section ``spec`` and its checked arguments by field name."""
    kind = read(spec, "type", text, where)
    if kind not in table:
        raise ConfigError(f"unknown {where} type {kind!r}; pick one of {', '.join(table)}")
    make, fields = table[kind]
    return make, _read_fields(spec, fields, where)


def read_run(doc: dict) -> dict:
    """Shot count (0 to MAX_SHOTS), seed and the ``optimize`` switch of a config document."""
    return _read_fields(doc, _RUN, "")


def _make(where: str, make, args: dict, *lead):
    """Call a spec constructor; the values it rejects are config errors."""
    try:
        return make(*lead, *args.values())
    except (CertificationError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where} spec: {exc}") from exc


def build_channel(spec: dict) -> QuantumChannel:
    return _make("channel", *read_spec(_CHANNELS, spec, "channel"))


def build_probe(spec: dict) -> BipartiteProbeState:
    return _make("probe", *read_spec(_PROBES, spec, "probe"))


def build_povm(spec: dict, d: int) -> Povm:
    return _make("povm", *read_spec(_POVMS, spec, "povm"), d)


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
        if self.variable not in _SWEEP_VARIABLES:
            raise ConfigError(f"sweep variable must be {' or '.join(map(repr, _SWEEP_VARIABLES))}, got {self.variable!r}")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ConfigError(f"sweep needs 2 to {MAX_STEPS} steps, got {self.steps}")
        if not self.start < self.stop:
            raise ConfigError(f"sweep start {self.start} must be below stop {self.stop}")
        if not math.isfinite(self.stop - self.start):  # the grid's step would overflow
            raise ConfigError(f"sweep range from {self.start} to {self.stop} is wider than a float holds")
        if not 0 <= self.shots * self.steps <= MAX_SHOTS:
            raise ConfigError(f"sweep needs 0 to {MAX_SHOTS} draws (steps x shots), got {self.steps} x {self.shots}")


def parse_sweep(doc: dict) -> SweepSpec:
    sections = {key: read(doc, key, json_object) for key in ("channel", "probe", "povm")}
    sweep = _read_fields(read(doc, "sweep", json_object), _SWEEP, "sweep")
    return SweepSpec(**sections, **sweep, **read_run(doc))


def estimate_qdet(record: ShotRecord, t, output_entropy: float, grouping=None) -> float:
    """Plug-in bound from empirical frequencies, merged by ``grouping``
    (a partition of the outcomes, as a certified result reports it) when
    one is given.

    The plug-in entropy underestimates the true outcome entropy, so this
    estimate is biased upward at finite shots; report it together with the
    shot count.
    """
    p, t = record.frequencies(), np.asarray(t, dtype=float).reshape(-1)
    grouping = tuple((i,) for i in range(p.size)) if grouping is None else grouping
    coarse_grain(p, t, grouping)  # raises unless grouping partitions the outcomes and t is as long as p
    return grouped_bound(p, t, output_entropy, grouping)[0]


def run_point(
    probe: BipartiteProbeState,
    channel: QuantumChannel,
    povm: Povm,
    optimize: bool = False,
    shots: int = 0,
    seed: int = 0,
) -> tuple[CertificationResult, float | None, ShotRecord | None]:
    """Certify one configuration, optionally with a finite-shot estimate."""
    result = Detector(probe, povm).certify(channel, optimize=optimize)
    return (result, *_estimate(result, shots, seed))


def _estimate(result: CertificationResult, shots: int, seed: int):
    """Finite-shot estimate and record of a certified point, with the
    point's own t; none without shots."""
    if shots <= 0:
        return None, None
    record = sample_outcomes(result.probabilities, shots, seed)
    return grouped_bound(record.frequencies(), result.weights, result.output_entropy, result.grouping)[0], record


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One certification row per grid point, in grid order.  Sections are
    read, then built, in the order channel, probe, POVM; the swept one is
    read with the variable at the grid's start, so its field needs no value
    in the config but must be a field of its type.  The swept section is
    built at the grid's first value alone, then in blocks that end where
    the detector's chunks end, each when its chunk is pulled, so that no
    more than a chunk's points are built ahead: a 'p' sweep's block as one
    checked stack by the family's stacked builder, an 'F' sweep's probes
    one by one.  One detector on the built probe and POVM certifies every
    point in one call: certify_many of the channels for a 'p' sweep,
    certify_probes of the probes on the one channel for an 'F' sweep, which
    checks every probe's marginal against the first's.  Row i's finite-shot
    estimate uses its own point's t and draws with derive_subseed(seed, i)."""
    grid = [float(value) for value in np.linspace(spec.start, spec.stop, spec.steps)]
    swept = _SWEEP_VARIABLES[spec.variable][0]
    sections = {"channel": (_CHANNELS, spec.channel), "probe": (_PROBES, spec.probe), "povm": (_POVMS, spec.povm)}
    read = {
        where: read_spec(table, {**section, spec.variable: spec.start} if where == swept else section, where)
        for where, (table, section) in sections.items()
    }
    if spec.variable not in read[swept][1]:
        raise ConfigError(f"sweeping {spec.variable!r} needs a {swept} type with a {spec.variable!r} field")
    fixed = {variable: read[where][1].get(variable, value) for variable, (where, value) in _SWEEP_VARIABLES.items()}
    family = FAMILIES.get(spec.channel["type"])
    isotropic = spec.probe["type"] in ("isotropic", "max_entangled")
    closed_form = family.closed_form if family and family.povm == spec.povm["type"] and isotropic else None
    capacity = family.capacity if family else None
    make, args = read[swept]
    if spec.variable == "p":
        build = lambda values: _make(swept, _CHANNEL_STACKS[spec.channel["type"]], {**args, "p": values})
    else:
        build = lambda values: [_make(swept, make, {**args, "F": value}) for value in values]
    built = {where: build(grid[:1])[0] if where == swept else _make(where, *read[where]) for where in ("channel", "probe")}
    d = built["probe"].d
    detector = Detector(built["probe"], _make("povm", *read["povm"], d))
    size = detector.chunk_size  # the first chunk holds the first point, built above, and the first block
    blocks = (grid[max(i, 1) : i + size] for i in range(0, len(grid), size))
    points = chain([built[swept]], chain.from_iterable(build(block) for block in blocks if block))
    if spec.variable == "p":
        results = detector.certify_many(points, spec.optimize)
    else:
        results = detector.certify_probes(points, built["channel"], spec.optimize)
    rows = []
    for i, (value, result) in enumerate(zip(grid, results)):
        seed = derive_subseed(spec.seed, i) if spec.shots > 0 else 0  # exact points draw nothing
        estimate, _ = _estimate(result, spec.shots, seed)
        at = {**fixed, spec.variable: value}  # the row's noise p and fidelity F
        row = {spec.variable: value, "qdet": result.qdet}
        if closed_form is not None:
            row["qdet_closed"] = closed_form(d, at["p"], at["F"])
        if capacity is not None:
            row["q_exact"] = capacity(d, at["p"])
        if spec.shots > 0:
            row |= {"qdet_estimate": estimate, "shots": spec.shots}
        rows.append(row)
    return rows


FIGURE_FIDELITIES = (1.0, 0.98, 0.95, 0.90)
# The two reference plots: (channel family, largest p) of a qubit p grid from 0.
FIGURES = {1: ("depolarizing", 0.25), 2: ("erasure", 0.5)}


def figure_rows(which: int, steps: int = 101) -> tuple[list[str], list[dict]]:
    """Grid data behind a reference plot: the family's qubit channels, built
    once, as one stack, by the family's stacked builder, certified by one
    certify_many call per fidelity's detector, with the family's POVM; its
    exact capacity too, where known."""
    if which not in FIGURES:
        raise ConfigError(f"unknown figure {which}; pick 1 or 2")
    if steps < 1:
        raise ConfigError(f"figure needs at least 1 step, got {steps}")
    family, stop = FIGURES[which]
    capacity = FAMILIES[family].capacity
    grid = [float(p) for p in np.linspace(0.0, stop, steps)]
    channels = _CHANNEL_STACKS[family](2, grid)
    povm = _POVMS[FAMILIES[family].povm][0](2)
    rows = [{"p": p} | ({"q_exact": capacity(2, p)} if capacity else {}) for p in grid]
    for f in FIGURE_FIDELITIES:
        for row, result in zip(rows, Detector(isotropic_probe(2, f), povm).certify_many(channels)):
            row[f"qdet_F{f:.2f}"] = result.qdet
    return list(rows[0]), rows


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
