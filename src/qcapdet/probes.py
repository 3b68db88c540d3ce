"""Bipartite probe states with explicit convex pure-state decompositions.

A probe is a density operator sigma on reference x system (equal dimensions d)
written as sum_l a_l |A_l>><<A_l| where |A>> is the double-ket of the d x d
operator A.  The decomposition is what makes the channel-independent outcome
weights computable, so every constructor stores one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InternalConsistencyError, InvalidStateError
from .linalg import (
    PINV_CUTOFF,
    PROB_TOL,
    RECON_TOL,
    as_complex_matrix,
    density_eigen,
    partial_trace_reference,
    validate_density_matrix,
)


def _assemble_sigma(weights: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """sum_l a_l |A_l>><<A_l| from the stacked double-kets of the A_l."""
    kets = operators.reshape(len(operators), -1)
    return (kets.T * weights) @ kets.conj()


@dataclass(frozen=True)
class BipartiteProbeState:
    """Probe sigma on a d x d bipartite space plus its pure decomposition."""

    d: int
    sigma: np.ndarray
    weights: np.ndarray  # shape (L,), nonnegative
    operators: np.ndarray  # shape (L, d, d)
    label: str = field(default="probe", compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[1:] != (self.d, self.d):
            raise DimensionMismatchError(f"operator stack shape {ops.shape} != (L, {self.d}, {self.d})")
        if w.shape[0] != ops.shape[0]:
            raise DimensionMismatchError("weights and operators disagree in length")
        if w.min() < 0.0:
            raise InvalidStateError(f"negative decomposition weight {w.min()}")
        norm = float(np.einsum("l,lij,lij->", w, ops.conj(), ops).real)  # sum_l a_l Tr[A_l^dagger A_l]
        if abs(norm - 1.0) > PROB_TOL:
            raise InvalidStateError(f"decomposition normalization {norm} differs from 1")
        sigma = validate_density_matrix(self.sigma)
        if sigma.shape[0] != self.d * self.d:
            raise DimensionMismatchError(f"sigma dim {sigma.shape[0]} != d^2 = {self.d * self.d}")
        if np.max(np.abs(sigma - _assemble_sigma(w, ops))) > RECON_TOL:
            raise InvalidStateError("sigma does not match its pure decomposition")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "operators", ops)


def custom_probe(weights, operators, label: str = "custom") -> BipartiteProbeState:
    """Assemble a probe from decomposition terms (a_l, A_l)."""
    ops = np.asarray([as_complex_matrix(op) for op in operators], dtype=complex)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise DimensionMismatchError("decomposition operators must be square and equal-sized")
    sigma = _assemble_sigma(w, ops)
    return BipartiteProbeState(ops.shape[1], sigma, w, ops, label)


def max_entangled_probe(d: int) -> BipartiteProbeState:
    """Pure probe |I/sqrt(d)>>, the maximally entangled state."""
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    op = np.eye(d, dtype=complex) / np.sqrt(d)
    return custom_probe([1.0], [op], label=f"max_entangled(d={d})")


def bell_diagonal_probe(q, label: str | None = None) -> BipartiteProbeState:
    """Probe diagonal in the generalized Bell basis with weights q[m, n]."""
    from .channels import weyl_unitaries  # local import avoids a cycle

    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise InvalidStateError(f"Bell weight grid must be square, got {q.shape}")
    d = q.shape[0]
    if q.min() < 0.0:
        raise InvalidStateError(f"negative Bell weight {q.min()}")
    if abs(q.sum() - 1.0) > PROB_TOL:
        raise InvalidStateError(f"Bell weights sum to {q.sum()}, not 1")
    ops = weyl_unitaries(d) / np.sqrt(d)
    return BipartiteProbeState(
        d,
        _assemble_sigma(q.reshape(-1), ops),
        q.reshape(-1),
        ops,
        label or f"bell_diagonal(d={d})",
    )


def isotropic_probe(d: int, fidelity: float) -> BipartiteProbeState:
    """Maximally entangled state mixed with white noise.

    The Bell-basis weights are q[0,0] = fidelity and (1-fidelity)/(d^2-1)
    elsewhere; fidelity must lie in [1/d^2, 1] for positivity.
    """
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    if not 1.0 / d**2 <= fidelity <= 1.0:
        raise ValueError(f"fidelity {fidelity} outside [{1.0 / d ** 2}, 1]")
    q = np.full((d, d), (1.0 - fidelity) / (d * d - 1))
    q[0, 0] = fidelity
    return bell_diagonal_probe(q, label=f"isotropic(d={d}, F={fidelity:g})")


def probe_from_density(sigma, label: str = "spectral") -> BipartiteProbeState:
    """Build a probe from a bare density matrix via its spectral decomposition."""
    sigma = as_complex_matrix(sigma)
    evals, evecs = density_eigen(sigma)
    d = int(round(np.sqrt(sigma.shape[0])))
    if d * d != sigma.shape[0]:
        raise DimensionMismatchError(f"sigma dim {sigma.shape[0]} is not a perfect square")
    keep = evals > PINV_CUTOFF * max(evals.max(), 0.0)
    ops = evecs[:, keep].T.reshape(-1, d, d)  # eigenvector j folded as operator_from_double_ket does
    weights = evals[keep] / evals[keep].sum()  # re-true the trace after dropping dust
    return BipartiteProbeState(d, sigma, weights, ops, label)


def system_marginal(probe: BipartiteProbeState) -> np.ndarray:
    """System marginal of the probe, cross-checked between two routes.

    Route one traces out the reference from sigma; route two evaluates
    (sum_l a_l A_l^dagger A_l)^T from the decomposition, as one product B^dagger B
    of the stacked terms B = [sqrt(a_l) A_l].  Disagreement signals a corrupted
    probe.  Unlike :func:`reduced_system_state`, no density-matrix check.
    """
    direct = partial_trace_reference(probe.sigma, probe.d, probe.d)
    terms = (np.sqrt(probe.weights)[:, None, None] * probe.operators).reshape(-1, probe.d)
    if np.max(np.abs(direct - (terms.conj().T @ terms).T)) > RECON_TOL:
        raise InternalConsistencyError("partial trace and decomposition routes disagree")
    return direct


def reduced_system_state(probe: BipartiteProbeState) -> np.ndarray:
    """:func:`system_marginal`, checked as a density matrix."""
    return validate_density_matrix(system_marginal(probe))
