"""Bipartite probe states.

A probe is a density operator sigma on reference x system (equal dimensions d).
The channel-independent outcome weights depend on sigma alone, so sigma is
all a probe stores.  A convex pure-state decomposition
sigma = sum_l a_l |A_l>><<A_l|, with |A>> the double-ket of the d x d operator
A, remains an input form: :func:`custom_probe` assembles sigma from one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channels import weyl_unitaries
from .errors import DimensionMismatchError, InvalidStateError
from .linalg import PROB_TOL, as_complex_matrix, partial_trace_reference, validate_density_matrix
from .linalg import _frozen, check_dimension, check_rows, check_within


@dataclass(frozen=True, init=False, eq=False)
class BipartiteProbeState:
    """Probe on a d x d bipartite space given by its density matrix sigma.

    A sigma from outside the program is copied and checked as a d^2 x d^2
    density matrix when the probe is built, and d is derived from its shape.
    :func:`custom_probe` and the Bell-diagonal builders assemble a sigma
    that is a density matrix by construction and store it unchecked.  Either
    way sigma is the probe's own read-only array.  Probes compare and hash
    by identity.
    """

    sigma: np.ndarray = field(repr=False)
    label: str
    d: int

    def __init__(self, sigma, label: str = "probe"):
        sigma = as_complex_matrix(sigma).copy()  # the caller's array stays the caller's
        d = math.isqrt(sigma.shape[0])
        if d < 1 or sigma.shape != (d * d, d * d):
            raise DimensionMismatchError(f"sigma shape {sigma.shape} is not (d^2, d^2)")
        _frozen(self, sigma=validate_density_matrix(sigma), label=label, d=d)


def _probes(w: np.ndarray, kets: np.ndarray, norms: np.ndarray, labels: list[str]) -> list[BipartiteProbeState]:
    """A labelled probe per row a of a weight stack (N, L) over terms A_l, given
    by their double-kets |A_l>> as rows (L, d^2) and each Tr[A_l^dagger A_l]:
    each row checked finite, nonnegative and sum_l a_l Tr[A_l^dagger A_l] = 1,
    the first failing one named by its index as ``row``, which makes each
    sigma = sum_l a_l |A_l>><<A_l|, from one batched product, a density matrix."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite weights give inf or nan, which fail below
        norm = w @ norms  # sum_l a_l Tr[A_l^dagger A_l]
    messages = (
        lambda k: "decomposition contains non-finite entries",
        lambda k: f"negative decomposition weight {w[k].min()}",
        lambda k: f"decomposition normalization {norm[k]} differs from 1",
    )
    faults = ~np.isfinite(w).all(axis=1), (w < 0.0).any(axis=1), abs(norm - 1.0) > PROB_TOL
    check_rows(InvalidStateError, faults, messages)
    sigmas = (kets.T * w[:, None, :]) @ kets.conj()
    d = math.isqrt(kets.shape[1])
    return [_frozen(object.__new__(BipartiteProbeState), sigma=s, label=label, d=d) for s, label in zip(sigmas, labels)]


def custom_probe(weights, operators, label: str = "custom") -> BipartiteProbeState:
    """Assemble sigma = sum_l a_l |A_l>><<A_l| from decomposition terms (a_l, A_l).

    The operators are checked to stack as (L, d, d), agree with the weights
    in length and be finite, then the weights as :func:`_probes` checks them;
    so sigma is a density matrix by construction and not checked again.
    """
    w = np.asarray(weights, dtype=float).reshape(1, -1)
    try:
        ops = np.asarray(operators, dtype=complex)
    except ValueError as exc:  # ragged: the operators differ in shape
        raise DimensionMismatchError(f"decomposition operators do not stack: {exc}") from exc
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise DimensionMismatchError(f"operator stack shape {ops.shape} is not (L, d, d)")
    if w.shape[1] != ops.shape[0]:
        raise DimensionMismatchError("weights and operators disagree in length")
    if not np.isfinite(ops).all():  # the weights' finiteness is checked with their other checks
        raise InvalidStateError("decomposition contains non-finite entries")
    norms = np.einsum("lij,lij->l", ops.conj(), ops).real
    return _probes(w, ops.reshape(len(ops), -1), norms, [label])[0]


def max_entangled_probe(d: int) -> BipartiteProbeState:
    """Pure probe |I/sqrt(d)>>, the maximally entangled state."""
    check_dimension(d)
    op = np.eye(d, dtype=complex) / np.sqrt(d)
    return custom_probe([1.0], [op], f"max_entangled(d={d})")


def _bell_diagonal_probes(grids, labels: list[str] | None = None) -> list[BipartiteProbeState]:
    """Bell-diagonal probes, one per weight grid of a stack (N, d, d), each
    with its label: the terms U_mn / sqrt(d), each grid checked and its
    sigma formed by :func:`_probes`, as :func:`custom_probe` checks and forms
    its terms', bit for bit."""
    q = np.asarray(grids, dtype=float)
    if q.ndim != 3 or q.shape[1] != q.shape[2]:
        raise InvalidStateError(f"Bell weight grid must be square, got {q.shape[1:]}")
    d = q.shape[1]
    return _probes(q.reshape(len(q), d * d), *_bell_terms(d), labels or [f"bell_diagonal(d={d})"] * len(q))


@lru_cache(maxsize=None)
def _bell_terms(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The double-kets |U_mn / sqrt(d)>> as rows (d^2, d^2), and each term's
    Tr[A^dagger A], as custom_probe forms them; built once per d, read-only."""
    ops = weyl_unitaries(d) / np.sqrt(d)
    norms = np.einsum("lij,lij->l", ops.conj(), ops).real
    kets = ops.reshape(len(ops), -1)
    kets.setflags(write=False)
    norms.setflags(write=False)
    return kets, norms


def bell_diagonal_probe(q, label: str | None = None) -> BipartiteProbeState:
    """Probe diagonal in the generalized Bell basis with weights q[m, n]:
    the terms U_mn / sqrt(d), with Tr[U^dagger U] / d = 1, so the checks of
    :func:`custom_probe` are exactly that q is nonnegative and sums to 1."""
    return _bell_diagonal_probes(np.asarray(q, dtype=float)[None], label and [label])[0]


def _isotropic_probes(d: int, fidelities) -> list[BipartiteProbeState]:
    """The isotropic probe at each fidelity of ``fidelities``, each checked
    in order, through its Bell grid: fidelity at the identity and
    (1-fidelity)/(d^2-1) elsewhere."""
    check_dimension(d)
    check_within("fidelity", fidelities, 1.0 / d**2, 1)
    f = np.array(fidelities, dtype=float)
    grids = np.repeat((1.0 - f) / (d * d - 1), d * d).reshape(-1, d, d)
    grids[:, 0, 0] = f
    return _bell_diagonal_probes(grids, [f"isotropic(d={d}, F={fidelity:g})" for fidelity in fidelities])


def isotropic_probe(d: int, fidelity: float) -> BipartiteProbeState:
    """Maximally entangled state mixed with white noise.

    The Bell-basis weights are q[0,0] = fidelity and (1-fidelity)/(d^2-1)
    elsewhere; fidelity must lie in [1/d^2, 1] for positivity.
    """
    return _isotropic_probes(d, [fidelity])[0]


def reduced_system_state(probe: BipartiteProbeState) -> np.ndarray:
    """System marginal rho = Tr_ref[sigma], checked as a density matrix."""
    return validate_density_matrix(partial_trace_reference(probe.sigma, probe.d, probe.d))
