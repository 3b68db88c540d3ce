"""Bipartite probe states with explicit convex pure-state decompositions.

A probe is a density operator sigma on reference x system (equal dimensions d)
written as sum_l a_l |A_l>><<A_l| where |A>> is the double-ket of the d x d
operator A.  The decomposition is what makes the channel-independent outcome
weights computable, so a probe is built from one and sigma follows from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InternalConsistencyError, InvalidStateError
from .linalg import (
    PROB_TOL,
    RECON_TOL,
    as_complex_matrix,
    density_eigen,
    partial_trace_reference,
    rank_cutoff,
    validate_density_matrix,
)


@dataclass(frozen=True, eq=False)
class BipartiteProbeState:
    """Probe on a d x d bipartite space given by its pure decomposition.

    d and sigma = sum_l a_l |A_l>><<A_l| are derived when the probe is built.
    Nonnegative weights and a unit normalization make sigma positive,
    Hermitian and of unit trace, so sigma itself is not checked again.
    Probes compare and hash by identity.
    """

    weights: np.ndarray  # shape (L,), nonnegative
    operators: np.ndarray  # shape (L, d, d)
    label: str = "probe"
    d: int = field(init=False)
    sigma: np.ndarray = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        try:
            ops = np.asarray(self.operators, dtype=complex)
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
        object.__setattr__(self, "d", ops.shape[1])
        object.__setattr__(self, "sigma", (kets.T * w) @ kets.conj())
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "operators", ops)


def custom_probe(weights, operators, label: str = "custom") -> BipartiteProbeState:
    """Assemble a probe from decomposition terms (a_l, A_l)."""
    return BipartiteProbeState(weights, operators, label)


def max_entangled_probe(d: int) -> BipartiteProbeState:
    """Pure probe |I/sqrt(d)>>, the maximally entangled state."""
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    op = np.eye(d, dtype=complex) / np.sqrt(d)
    return BipartiteProbeState([1.0], [op], f"max_entangled(d={d})")


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
    return BipartiteProbeState(q.reshape(-1), ops, label or f"bell_diagonal(d={d})")


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
    """Build a probe from a bare density matrix via its spectral decomposition.

    sigma comes from outside the program, so it is checked as a density
    matrix and against the probe assembled from its kept terms.
    """
    sigma = as_complex_matrix(sigma)
    evals, evecs = density_eigen(sigma)
    d = int(round(np.sqrt(sigma.shape[0])))
    if d * d != sigma.shape[0]:
        raise DimensionMismatchError(f"sigma dim {sigma.shape[0]} is not a perfect square")
    keep, _ = rank_cutoff(evals)
    ops = evecs[:, keep].T.reshape(-1, d, d)  # eigenvector j folded as operator_from_double_ket does
    weights = evals[keep] / evals[keep].sum()  # re-true the trace after dropping dust
    probe = BipartiteProbeState(weights, ops, label)
    if np.max(np.abs(sigma - probe.sigma)) > RECON_TOL:
        raise InvalidStateError("sigma does not match its pure decomposition")
    return probe


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
