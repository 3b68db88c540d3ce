"""Request streams and output checks for the benchmark workloads.

A workload is a pool of ``qcapdet`` CLI requests built from a seed, plus a
few warm-up requests.  The pool is made of blocks.  Every block holds each
request class (channel family and dimension) of the workload in a
seed-dependent order.  The size that sets a request's cost is stratified
over the pool: every sweep family and dimension gets every step count
equally often, and shot counts take one draw from each of as many equal
strata of log(shots) as the pool has requests, spread evenly over the
sample classes.  Two seeds therefore load the program the same way
while every input differs, which keeps medians comparable across seeds.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("sweep_small", "optimize_large", "sample_shots")

# Two halves of the step counts 8, 11, ..., 32 with equal sums.
SWEEP_HALVES = ((8, 18, 22, 32), (11, 15, 25, 29))
SHOTS_MIN = 10_000
SHOTS_MAX = 4_000_000

QDET_TOL = 1e-9  # CSV cells carry 12 significant digits
SIGMA_LIMIT = 6.0  # binomial standard deviations allowed per outcome count


@dataclass(frozen=True)
class Request:
    """One CLI call: ``qcapdet <command> --config <config as JSON>``."""

    command: str
    config: dict
    label: str  # request class, e.g. "bell-d6"
    points: int  # certified (probe, channel, POVM) points in the output
    shots: int  # shots drawn; 0 for exact statistics


@dataclass(frozen=True)
class Workload:
    warmup: tuple[Request, ...]
    pool: tuple[Request, ...]  # whole blocks; a timed pass issues all of them
    block: int  # requests per block


def _isotropic(d: int, fidelity: float) -> dict:
    return {"type": "isotropic", "d": d, "F": float(fidelity)}


def _weyl_mixing(rng: np.random.Generator, d: int) -> dict:
    """Random Weyl-mixing channel close to the identity."""
    error = rng.uniform(0.02, 0.2)
    rest = rng.dirichlet(np.ones(d * d - 1)) * error
    probs = np.concatenate([[1.0 - error], rest]).reshape(d, d)
    return {"type": "pauli", "probs": probs.tolist()}


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


# --- sweep_small: exact sweeps in the paper's figure regime ----------------

SWEEP_CLASSES = tuple(
    (family, d, variable)
    for d in (2, 3)
    for family in ("depolarizing", "erasure")
    for variable in ("p", "F")
)


def _sweep_request(rng, family: str, d: int, variable: str, steps: int) -> Request:
    if variable == "p":
        start = rng.uniform(0.0, 0.05)
        stop = start + rng.uniform(0.1, 0.3)
        noise, fidelity = start, rng.uniform(0.85, 1.0)
    else:
        start = rng.uniform(0.70, 0.85)
        stop = rng.uniform(0.90, 1.0)
        noise, fidelity = rng.uniform(0.0, 0.2), start
    config = {
        "channel": {"type": family, "d": d, "p": float(noise)},
        "probe": _isotropic(d, fidelity),
        "povm": {"type": "bell" if family == "depolarizing" else "erasure_adapted"},
        "sweep": {"variable": variable, "start": float(start), "stop": float(stop), "steps": int(steps)},
        "shots": 0,
        "seed": _seed(rng),
    }
    return Request("sweep", config, f"{family}-d{d}-{variable}", int(steps), 0)


def _sweep_pool(rng, blocks: int) -> list[Request]:
    # Per len(SWEEP_HALVES[0]) blocks, each (family, d) sweeps every step
    # count once: its p sweeps take one half of the counts and its F sweeps
    # the other, shuffled over the blocks.  Which half a class takes does not
    # depend on the seed, so the longest requests, which set p90, are the same
    # on every seed (at d=3, 32 steps take 81-122 ms depending on the class).
    n, m = len(SWEEP_CLASSES), len(SWEEP_HALVES[0])
    pool = []
    for b in range(blocks):
        if b % m == 0:
            steps = [
                rng.permutation(SWEEP_HALVES[(family == "erasure") ^ (variable == "F")])
                for family, _, variable in SWEEP_CLASSES
            ]
        for k in rng.permutation(n):
            pool.append(_sweep_request(rng, *SWEEP_CLASSES[k], steps[k][b % m]))
    return pool


def _sweep_warmup(rng) -> list[Request]:
    return [_sweep_request(rng, *cls, min(SWEEP_HALVES[0])) for cls in SWEEP_CLASSES]


# --- optimize_large: certify with the grouping search ----------------------

# Bell d=4 appears twice so that the median request falls inside one class
# rather than on the gap between two; the 90th percentile lands in d=6.
OPTIMIZE_CLASSES = (
    ("bell", 3), ("bell", 4), ("bell", 4), ("bell", 5), ("bell", 6),
    ("erasure", 2), ("erasure", 3),
)


def _optimize_request(rng, kind: str, d: int) -> Request:
    if kind == "bell":
        channel, povm = _weyl_mixing(rng, d), {"type": "bell"}
    else:
        channel = {"type": "erasure", "d": d, "p": float(rng.uniform(0.02, 0.3))}
        povm = {"type": "erasure_adapted"}
    config = {
        "channel": channel,
        "probe": _isotropic(d, rng.uniform(0.9, 1.0)),
        "povm": povm,
        "shots": 0,
        "seed": _seed(rng),
        "optimize": True,
    }
    return Request("certify", config, f"{kind}-d{d}", 1, 0)


def _optimize_pool(rng, blocks: int) -> list[Request]:
    n = len(OPTIMIZE_CLASSES)
    return [_optimize_request(rng, *OPTIMIZE_CLASSES[k]) for _ in range(blocks) for k in rng.permutation(n)]


def _optimize_warmup(rng) -> list[Request]:
    return [_optimize_request(rng, *cls) for cls in dict.fromkeys(OPTIMIZE_CLASSES)]


# --- sample_shots: finite-shot counts -------------------------------------

SAMPLE_CLASSES = (
    ("depolarizing", 2), ("depolarizing", 3), ("depolarizing", 4),
    ("pauli", 2), ("pauli", 3), ("pauli", 4),
    ("erasure", 2),
)


def _sample_request(rng, family: str, d: int, shots: int) -> Request:
    if family == "pauli":
        channel = _weyl_mixing(rng, d)
    else:
        high = 0.2 if family == "depolarizing" else 0.3
        channel = {"type": family, "d": d, "p": float(rng.uniform(0.01, high))}
    config = {
        "channel": channel,
        "probe": _isotropic(d, rng.uniform(0.9, 1.0)),
        "povm": {"type": "erasure_adapted" if family == "erasure" else "bell"},
        "shots": int(shots),
        "seed": _seed(rng),
    }
    return Request("sample", config, f"{family}-d{d}", 1, int(shots))


def _log_uniform_shots(rng, n: int) -> list[int]:
    """n shot counts, one from each of n equal strata of log(shots)."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return [int(round(SHOTS_MIN * (SHOTS_MAX / SHOTS_MIN) ** x)) for x in u]


def _sample_pool(rng, blocks: int) -> list[Request]:
    # The n * blocks strata form `blocks` runs of n consecutive strata.  In
    # run c class k takes stratum (k + c) mod n, so each class covers the
    # whole range of shot counts, and the classes near the top, which set
    # p90 (a 2e6-shot request takes 66-103 ms depending on its class), are
    # the same on every seed.
    n = len(SAMPLE_CLASSES)
    runs = np.reshape(_log_uniform_shots(rng, blocks * n), (blocks, n))
    by_class = [rng.permutation([run[(k + c) % n] for c, run in enumerate(runs)]) for k in range(n)]
    return [
        _sample_request(rng, *SAMPLE_CLASSES[k], int(by_class[k][b])) for b in range(blocks) for k in rng.permutation(n)
    ]


def _sample_warmup(rng) -> list[Request]:
    # The largest request runs during set-up, so peak RSS does not depend on
    # which shot counts the seed happens to draw.
    warm = [_sample_request(rng, *cls, SHOTS_MIN) for cls in SAMPLE_CLASSES]
    return warm + [_sample_request(rng, *SAMPLE_CLASSES[0], SHOTS_MAX)]


_SPECS = {
    # name: (pool builder, warm-up builder, blocks, requests per block).  A
    # pass over a pool takes 1.5-3 s, so a 40 s run times every request 14-24
    # times; a pool three times larger gets a third as many timings, which doubled
    # the run-to-run spread on a shared VM.
    "sweep_small": (_sweep_pool, _sweep_warmup, 4, len(SWEEP_CLASSES)),
    "optimize_large": (_optimize_pool, _optimize_warmup, 5, len(OPTIMIZE_CLASSES)),
    "sample_shots": (_sample_pool, _sample_warmup, 8, len(SAMPLE_CLASSES)),
}


def build(name: str, seed: int) -> Workload:
    """The workload's warm-up requests and request pool for one seed."""
    if name not in _SPECS:
        raise ValueError(f"unknown workload {name!r}; pick one of {', '.join(WORKLOADS)}")
    make_pool, make_warmup, blocks, block = _SPECS[name]
    warm_seq, pool_seq = np.random.SeedSequence([seed & (2**64 - 1), WORKLOADS.index(name)]).spawn(2)
    warmup = make_warmup(np.random.default_rng(warm_seq))
    pool = make_pool(np.random.default_rng(pool_seq), blocks)
    return Workload(tuple(warmup), tuple(pool), block)


# --- output checks ---------------------------------------------------------


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class Checker:
    """Checks one request's CSV output against values computed here.

    Bounds come from public ``qcapdet`` functions that the request itself
    does not use for that number (closed forms, the unoptimized bound, the
    coherent-information oracle), so a wrong output cell is caught.
    """

    def __init__(self, qcapdet):
        self.q = qcapdet
        self._povms: dict = {}

    def __call__(self, request: Request, text: str) -> str | None:
        """None when the output is correct, else the reason it is not."""
        try:
            return getattr(self, "_check_" + request.command)(request.config, _rows(text))
        except (KeyError, ValueError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def _povm(self, spec: dict, d: int):
        key = (spec["type"], d)
        if key not in self._povms:
            self._povms[key] = self.q.build_povm(spec, d)
        return self._povms[key]

    def _check_sweep(self, config: dict, rows: list[dict]) -> str | None:
        sweep, channel, probe = config["sweep"], config["channel"], config["probe"]
        if len(rows) != sweep["steps"]:
            return f"{len(rows)} rows, expected {sweep['steps']}"
        closed_form = (
            self.q.depolarizing_isotropic_qdet
            if channel["type"] == "depolarizing"
            else self.q.erasure_qdet_closed_form
        )
        grid = np.linspace(sweep["start"], sweep["stop"], sweep["steps"])
        variable = sweep["variable"]
        for row, x in zip(rows, grid):
            if not abs(float(row[variable]) - x) <= QDET_TOL:
                return f"grid value {row[variable]} != {x}"
            noise = x if variable == "p" else channel["p"]
            fidelity = x if variable == "F" else probe["F"]
            expected = closed_form(channel["d"], noise, fidelity)
            qdet = float(row["qdet"])
            if not abs(qdet - expected) <= QDET_TOL:
                return f"qdet {qdet} at {variable}={x} differs from the closed form {expected}"
            if not abs(qdet - float(row["qdet_closed"])) <= QDET_TOL:
                return f"qdet {qdet} differs from its qdet_closed cell {row['qdet_closed']}"
        return None

    def _check_certify(self, config: dict, rows: list[dict]) -> str | None:
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        q = self.q
        probe = q.build_probe(config["probe"])
        channel = q.build_channel(config["channel"])
        povm = self._povm(config["povm"], probe.d)
        lower = q.certify(probe, channel, povm).qdet
        upper = q.coherent_information(q.reduced_system_state(probe), channel)
        qdet = float(rows[0]["qdet"])
        if not lower - QDET_TOL <= qdet <= upper + QDET_TOL:
            return f"qdet {qdet} outside [unoptimized {lower}, coherent information {upper}]"
        return None

    def _check_sample(self, config: dict, rows: list[dict]) -> str | None:
        shots = config["shots"]
        d = config["probe"]["d"]
        outcomes = d * d + (d if config["povm"]["type"] == "erasure_adapted" else 0)
        if len(rows) != outcomes:
            return f"{len(rows)} rows, expected {outcomes}"
        counts = [int(row["count"]) for row in rows]
        if sum(counts) != shots:
            return f"counts sum to {sum(counts)}, not {shots}"
        probs = [float(row["probability"]) for row in rows]
        if not abs(sum(probs) - 1.0) <= QDET_TOL:
            return f"probabilities sum to {sum(probs)}"
        for row, count, p in zip(rows, counts, probs):
            if not abs(float(row["frequency"]) - count / shots) <= QDET_TOL:
                return f"frequency {row['frequency']} != {count}/{shots}"
            sigma = math.sqrt(shots * p * (1.0 - p)) if 0.0 < p < 1.0 else 0.0
            if not abs(count - shots * p) <= SIGMA_LIMIT * sigma + 1e-6:
                return f"count {count} of {row['outcome']} is beyond {SIGMA_LIMIT:g} sigma of p={p}"
        return None
