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
from .linalg import check_dimension, check_rows, check_within


@dataclass(frozen=True, init=False, eq=False)
class BipartiteProbeState:
    """Probe on a d x d bipartite space given by its density matrix sigma.

    A sigma from outside the program is checked as a d^2 x d^2 density
    matrix when the probe is built, and d is derived from its shape.
    :func:`custom_probe` and the Bell-diagonal builders assemble a sigma
    that is a density matrix by construction and store it unchecked.
    Probes compare and hash by identity.
    """

    sigma: np.ndarray = field(repr=False)
    label: str
    d: int

    def __init__(self, sigma, label: str = "probe"):
        sigma = as_complex_matrix(sigma)
        d = math.isqrt(sigma.shape[0])
        if d < 1 or sigma.shape != (d * d, d * d):
            raise DimensionMismatchError(f"sigma shape {sigma.shape} is not (d^2, d^2)")
        self._store(validate_density_matrix(sigma), label)

    def _store(self, sigma: np.ndarray, label: str):
        self.__dict__.update(sigma=sigma, label=label, d=math.isqrt(sigma.shape[0]))


def custom_probe(weights, operators, label: str = "custom") -> BipartiteProbeState:
    """Assemble sigma = sum_l a_l |A_l>><<A_l| from decomposition terms (a_l, A_l).

    The terms are checked: the operators stack as (L, d, d), weights and
    operators agree in length and are finite, the weights are nonnegative and
    sum_l a_l Tr[A_l^dagger A_l] = 1.  These make sigma positive, Hermitian
    and of unit trace, so sigma itself is not checked again.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    try:
        ops = np.asarray(operators, dtype=complex)
    except ValueError as exc:  # ragged: the operators differ in shape
        raise DimensionMismatchError(f"decomposition operators do not stack: {exc}") from exc
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise DimensionMismatchError(f"operator stack shape {ops.shape} is not (L, d, d)")
    if w.shape[0] != ops.shape[0]:
        raise DimensionMismatchError("weights and operators disagree in length")
    if not (np.isfinite(w).all() and np.isfinite(ops).all()):
        raise InvalidStateError("decomposition contains non-finite entries")
    if (w < 0.0).any():
        raise InvalidStateError(f"negative decomposition weight {w.min()}")
    norm = float(np.einsum("l,lij,lij->", w, ops.conj(), ops).real)  # sum_l a_l Tr[A_l^dagger A_l]
    if abs(norm - 1.0) > PROB_TOL:
        raise InvalidStateError(f"decomposition normalization {norm} differs from 1")
    kets = ops.reshape(len(ops), -1)  # the double-kets |A_l>>
    probe = BipartiteProbeState.__new__(BipartiteProbeState)
    probe._store((kets.T * w) @ kets.conj(), label)
    return probe


def max_entangled_probe(d: int) -> BipartiteProbeState:
    """Pure probe |I/sqrt(d)>>, the maximally entangled state."""
    check_dimension(d)
    op = np.eye(d, dtype=complex) / np.sqrt(d)
    return custom_probe([1.0], [op], f"max_entangled(d={d})")


def _bell_diagonal_probes(grids, labels: list[str] | None = None) -> list[BipartiteProbeState]:
    """Bell-diagonal probes, one per weight grid of a stack (N, d, d), each
    with its label.  The terms are U_mn / sqrt(d); each grid is checked as
    :func:`custom_probe` checks its weights, the first failing one named by
    its index as ``row``: finite, nonnegative, and
    sum_l a_l Tr[A_l^dagger A_l] = 1.  Every sigma comes from one batched
    product, row by row the one custom_probe forms, and is stored unchecked."""
    q = np.asarray(grids, dtype=float)
    if q.ndim != 3 or q.shape[1] != q.shape[2]:
        raise InvalidStateError(f"Bell weight grid must be square, got {q.shape[1:]}")
    d = q.shape[1]
    w = q.reshape(len(q), d * d)
    kets, norms = _bell_terms(d)
    finite = np.isfinite(w).all(axis=1)
    negative = (w < 0.0).any(axis=1)
    norm = w @ norms  # sum_l a_l Tr[A_l^dagger A_l]
    messages = (
        lambda k: "decomposition contains non-finite entries",
        lambda k: f"negative decomposition weight {w[k].min()}",
        lambda k: f"decomposition normalization {norm[k]} differs from 1",
    )
    check_rows(InvalidStateError, (~finite, negative, abs(norm - 1.0) > PROB_TOL), messages)
    sigmas = (kets.T * w[:, None, :]) @ kets.conj()
    probes = []
    for sigma, label in zip(sigmas, labels or [f"bell_diagonal(d={d})"] * len(q)):
        probe = BipartiteProbeState.__new__(BipartiteProbeState)  # checked above, as one stack
        probe._store(sigma, label)
        probes.append(probe)
    return probes


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
    for fidelity in fidelities:
        check_within("fidelity", fidelity, 1.0 / d**2, 1)
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
