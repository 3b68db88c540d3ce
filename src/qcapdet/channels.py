"""Quantum channel construction and application.

Channels are stored as Kraus operator lists and validated to be trace
preserving at construction.  The erasure channel enlarges the output space by
one level; the flag state sits at index ``d`` of the output basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError
from .linalg import PROB_TOL, TP_TOL, check_dimension, check_within, validate_density_matrix


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive trace-preserving map given by Kraus operators,
    checked as one (n, dim_out, dim_in) stack when built.  Channels compare
    and hash by identity."""

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]
    label: str = "channel"

    def __post_init__(self):
        if not self.kraus:
            raise InvalidStateError("channel needs at least one Kraus operator")
        try:
            stack = np.asarray(self.kraus, dtype=complex)
        except ValueError as exc:  # ragged: the operators differ in shape
            raise DimensionMismatchError(f"Kraus operators do not stack: {exc}") from exc
        if stack.ndim != 3 or stack.shape[1:] != (self.dim_out, self.dim_in):
            raise DimensionMismatchError(f"Kraus operator shape {stack.shape[1:]} != ({self.dim_out}, {self.dim_in})")
        if not np.isfinite(largest := np.abs(stack).max()):
            raise InvalidStateError("Kraus operators contain non-finite entries")
        object.__setattr__(self, "kraus", tuple(stack))
        flat = stack.reshape(-1, self.dim_in)  # sum_k K^dagger K is one product
        # Trace preservation bounds every |K_ij| by 1, so an entry above 2 fails before the product could overflow.
        if largest > 2 or np.max(np.abs(flat.conj().T @ flat - np.eye(self.dim_in))) > TP_TOL:
            raise InvalidStateError("Kraus operators are not trace preserving")

    @cached_property
    def transfer(self) -> np.ndarray:
        """sum_k K x conj(K) as a (dim_out^2, dim_in^2) matrix, formed on first use."""
        kraus = np.stack(self.kraus, axis=-1)  # (dim_out, dim_in, n)
        o, i, n = kraus.shape
        flat = kraus.reshape(o * i, n)
        return (flat @ flat.conj().T).reshape(o, i, o, i).transpose(0, 2, 1, 3).reshape(o * o, i * i)


@lru_cache(maxsize=None)
def weyl_unitaries(d: int) -> np.ndarray:
    """All d^2 shift-and-phase unitaries U_mn = sum_k exp(2 pi i k m / d)
    |k><(k+n) mod d|, stacked in (m, n) order: entry m * d + n is U_mn.
    Built once per d and returned read-only."""
    k = np.arange(d)
    m, n = np.divmod(np.arange(d * d), d)
    u = np.zeros((d * d, d, d), dtype=complex)
    u[np.arange(d * d)[:, None], k, (k + n[:, None]) % d] = np.exp(2j * np.pi * m[:, None] * k / d)
    u.setflags(write=False)
    return u


def weyl_unitary(d: int, m: int, n: int) -> np.ndarray:
    """The unitary U_mn of :func:`weyl_unitaries`."""
    if not (0 <= m < d and 0 <= n < d):
        raise ValueError(f"Weyl indices ({m}, {n}) out of range for d={d}")
    return weyl_unitaries(d)[m * d + n].copy()  # not a view that keeps all d^2 alive


def pauli_channel(probs, label: str | None = None) -> QuantumChannel:
    """Random-unitary channel mixing the d^2 Weyl unitaries with weights probs[m, n]."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise InvalidStateError(f"probability grid must be square, got shape {p.shape}")
    d = p.shape[0]
    if p.min() < 0.0:
        raise InvalidStateError(f"negative Weyl weight {p.min()}")
    with np.errstate(over="ignore"):  # near-max weights sum to inf, which fails below
        total = p.sum()
    if abs(total - 1.0) > PROB_TOL:
        raise InvalidStateError(f"Weyl weights sum to {total}, not 1")
    kraus = np.sqrt(p).reshape(-1, 1, 1) * weyl_unitaries(d)
    return QuantumChannel(d, d, tuple(kraus), label or f"pauli(d={d})")


def depolarizing_channel(d: int, p: float) -> QuantumChannel:
    """Identity with weight 1-p, all other Weyl unitaries with weight p/(d^2-1)."""
    check_dimension(d)
    check_within("depolarizing strength", p, 0, 1)
    grid = np.full((d, d), p / (d * d - 1))
    grid[0, 0] = 1.0 - p
    return pauli_channel(grid, label=f"depolarizing(d={d}, p={p:g})")


def erasure_channel(d: int, p: float) -> QuantumChannel:
    """Replace the input with an orthogonal flag state with probability p.

    Output dimension is d+1; the flag is the output basis state at index d.
    """
    check_dimension(d)
    check_within("erasure probability", p, 0, 1)
    kraus = np.zeros((d + 1, d + 1, d), dtype=complex)  # the embedding, then one flag operator per input level
    kraus[0, :d] = np.sqrt(1.0 - p) * np.eye(d)
    kraus[1 + np.arange(d), d, np.arange(d)] = np.sqrt(p)
    return QuantumChannel(d, d + 1, tuple(kraus), label=f"erasure(d={d}, p={p:g})")


def transfer_input(state: np.ndarray, dim_ref: int, dim_in: int) -> np.ndarray:
    """A state on reference x input, or each of a stack (N, ...) of them, as
    the (dim_in^2, dim_ref^2) matrix that transfer matrices act on;
    channel-independent, so form it once per state."""
    pairs = state.reshape(-1, dim_ref, dim_in, dim_ref, dim_in).transpose(0, 2, 4, 1, 3)
    return pairs.reshape(state.shape[:-2] + (dim_in**2, dim_ref**2))


def apply_transfers(transfers: np.ndarray, pairs: np.ndarray, dim_ref: int) -> np.ndarray:
    """Unchecked (I_ref x E)(state) in one product, for a transfer matrix
    (dim_out^2, dim_in^2) or a stack (N, dim_out^2, dim_in^2) of them, on a
    state given by :func:`transfer_input` or a stack (N, dim_in^2, dim_ref^2)
    of them; the two stacks broadcast.  No I_ref x K is formed."""
    o = math.isqrt(transfers.shape[-2])
    product = transfers @ pairs
    out = product.reshape(-1, o, o, dim_ref, dim_ref).transpose(0, 3, 1, 4, 2)
    return out.reshape(product.shape[:-2] + (dim_ref * o, dim_ref * o))


def apply_channel(ch: QuantumChannel, rho) -> np.ndarray:
    """sum_k K rho K^dagger: the extended channel with a one-level reference."""
    return apply_extended_channel(ch, rho, 1)


def apply_extended_channel(ch: QuantumChannel, sigma, dim_ref: int) -> np.ndarray:
    """Apply identity-on-reference tensor the channel to a bipartite state;
    the input and the output are validated as density matrices."""
    sigma = validate_density_matrix(sigma)
    if sigma.shape[0] != dim_ref * ch.dim_in:
        raise DimensionMismatchError(
            f"state dim {sigma.shape[0]} != reference x channel input dim = {dim_ref} x {ch.dim_in}"
        )
    return validate_density_matrix(apply_transfers(ch.transfer, transfer_input(sigma, dim_ref, ch.dim_in), dim_ref))
