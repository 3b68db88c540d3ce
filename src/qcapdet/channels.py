"""Quantum channel construction and application.

Channels are stored as Kraus operator lists and validated to be trace
preserving at construction; the family builders build a list of channels as
one checked stack.  The erasure channel enlarges the output space by
one level; the flag state sits at index ``d`` of the output basis.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatchError, InvalidStateError
from .linalg import PROB_TOL, TP_TOL, check_dimension, check_rows, check_within
from .linalg import validate_density_matrices, validate_density_matrix


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive trace-preserving map given by Kraus operators, a
    sequence of matrices or an (n, dim_out, dim_in) array, checked when built
    as a stack of one channel by _check_kraus.  The transfer matrix is formed
    on first use by _kraus_transfers, as a stack of one; a family builder's
    channels, when it builds several, carry theirs from its one batched
    product.  Channels compare and hash by identity."""

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]
    label: str = "channel"

    def __post_init__(self):
        try:
            stack = np.asarray(self.kraus, dtype=complex)
        except ValueError as exc:  # ragged: the operators differ in shape
            raise DimensionMismatchError(f"Kraus operators do not stack: {exc}") from exc
        _check_kraus(stack[None], self.dim_in, self.dim_out)
        object.__setattr__(self, "kraus", tuple(stack))

    @cached_property
    def transfer(self) -> np.ndarray:
        """sum_k K x conj(K) as a (dim_out^2, dim_in^2) matrix, formed on first use."""
        return _kraus_transfers(np.array(self.kraus)[None])[0]


def _check_kraus(stack: np.ndarray, dim_in: int, dim_out: int) -> None:
    """Check a stack (N, n, dim_out, dim_in) of Kraus sets, one per channel:
    at least one operator each and the shape, then, channel by channel, the
    entries finite and the set trace preserving within TP_TOL, from one
    batched product sum_k K^dagger K.  A failure names the first failing
    channel's index as ``row``."""
    if stack.shape[1:2] == (0,):
        raise InvalidStateError("channel needs at least one Kraus operator")
    if stack.ndim != 4 or stack.shape[2:] != (dim_out, dim_in):
        raise DimensionMismatchError(f"Kraus operator shape {stack.shape[2:]} != ({dim_out}, {dim_in})")
    largest = np.abs(stack).max(axis=(1, 2, 3))
    flat = stack.reshape(len(stack), -1, dim_in)  # sum_k K^dagger K is one product per set
    # Trace preservation bounds every |K_ij| by 1, so a set whose largest entry is above 2 or not finite is
    # zeroed before the product could overflow: its residual is then 1, so it fails the one check below.
    if not largest.max() <= 2.0:
        flat = np.where((largest <= 2.0)[:, None, None], flat, 0.0)
    residual = np.abs(flat.conj().swapaxes(-1, -2) @ flat - np.eye(dim_in)).max(axis=(-2, -1))
    message = lambda k: (
        "Kraus operators are not trace preserving"
        if np.isfinite(largest[k])
        else "Kraus operators contain non-finite entries"
    )
    check_rows(InvalidStateError, residual > TP_TOL, (message,))


def _kraus_transfers(stack: np.ndarray) -> np.ndarray:
    """sum_k K x conj(K) of each Kraus set of a stack (N, n, dim_out, dim_in),
    as (N, dim_out^2, dim_in^2) transfer matrices, from one batched product."""
    count, n, o, i = stack.shape
    flat = stack.transpose(0, 2, 3, 1).reshape(count, o * i, n)
    gram = flat @ flat.conj().swapaxes(-1, -2)
    return gram.reshape(count, o, i, o, i).transpose(0, 1, 3, 2, 4).reshape(count, o * o, i * i)


def _channels(dim_in: int, dim_out: int, stack: np.ndarray, labels: list[str]) -> list[QuantumChannel]:
    """One channel per Kraus set of a family's stack (N, n, dim_out, dim_in),
    each with its label.  A lone channel is QuantumChannel's own case, its
    transfer matrix formed on first use from its Kraus operators; a stack of
    several is checked by one _check_kraus call, and each channel is given
    its transfer matrix from one _kraus_transfers call."""
    if len(stack) == 1:
        return [QuantumChannel(dim_in, dim_out, stack[0], labels[0])]
    _check_kraus(stack, dim_in, dim_out)
    channels = []
    for kraus, transfer, label in zip(stack, _kraus_transfers(stack), labels):
        ch = object.__new__(QuantumChannel)  # checked above, as one stack
        vars(ch).update(dim_in=dim_in, dim_out=dim_out, kraus=tuple(kraus), label=label, transfer=transfer)
        channels.append(ch)
    return channels


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


def _pauli_channels(grids, labels: list[str] | None = None) -> list[QuantumChannel]:
    """Random-unitary channels, one per grid of a stack (N, d, d), each
    mixing the d^2 Weyl unitaries with weights grid[m, n]; each grid is
    checked, the first failing one named by its index as ``row``."""
    p = np.asarray(grids, dtype=float)
    if p.ndim != 3 or p.shape[1] != p.shape[2]:
        raise InvalidStateError(f"probability grid must be square, got shape {p.shape[1:]}")
    d = p.shape[1]
    rows = p.reshape(len(p), -1)
    low = rows.min(axis=1)
    with np.errstate(over="ignore"):  # near-max weights sum to inf, which fails below
        total = rows.sum(axis=1)
    message = lambda k: f"negative Weyl weight {low[k]}" if low[k] < 0.0 else f"Weyl weights sum to {total[k]}, not 1"
    check_rows(InvalidStateError, (low < 0.0) | (abs(total - 1.0) > PROB_TOL), (message,))
    kraus = np.sqrt(rows)[:, :, None, None] * weyl_unitaries(d)
    return _channels(d, d, kraus, labels or [f"pauli(d={d})"] * len(p))


def pauli_channel(probs, label: str | None = None) -> QuantumChannel:
    """Random-unitary channel mixing the d^2 Weyl unitaries with weights probs[m, n]."""
    return _pauli_channels(np.asarray(probs, dtype=float)[None], label and [label])[0]


def _depolarizing_channels(d: int, ps) -> list[QuantumChannel]:
    """The depolarizing channel at each strength of ``ps``, through its
    Weyl grid: the identity with weight 1-p, every other Weyl unitary with
    weight p/(d^2-1)."""
    check_dimension(d)
    for p in ps:
        check_within("depolarizing strength", p, 0, 1)
    strengths = np.array(ps, dtype=float)
    grids = np.repeat(strengths / (d * d - 1), d * d).reshape(-1, d, d)
    grids[:, 0, 0] = 1.0 - strengths
    return _pauli_channels(grids, [f"depolarizing(d={d}, p={p:g})" for p in ps])


def depolarizing_channel(d: int, p: float) -> QuantumChannel:
    """Identity with weight 1-p, all other Weyl unitaries with weight p/(d^2-1)."""
    return _depolarizing_channels(d, [p])[0]


def _erasure_channels(d: int, ps) -> list[QuantumChannel]:
    """The erasure channel at each probability of ``ps``: the input
    replaced with an orthogonal flag state with probability p.  The output
    dimension is d+1; the flag is the output basis state at index d."""
    check_dimension(d)
    for p in ps:
        check_within("erasure probability", p, 0, 1)
    erased = np.array(ps, dtype=float)
    # Per channel: the embedding, then one flag operator per input level.
    kraus = np.zeros((len(erased), d + 1, d + 1, d), dtype=complex)
    kraus[:, 0, :d] = np.sqrt(1.0 - erased)[:, None, None] * np.eye(d)
    kraus[:, 1 + np.arange(d), d, np.arange(d)] = np.sqrt(erased)[:, None]
    return _channels(d, d + 1, kraus, [f"erasure(d={d}, p={p:g})" for p in ps])


def erasure_channel(d: int, p: float) -> QuantumChannel:
    """Replace the input with an orthogonal flag state with probability p.

    Output dimension is d+1; the flag is the output basis state at index d.
    """
    return _erasure_channels(d, [p])[0]


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


def apply_channel(ch: QuantumChannel | Iterable[QuantumChannel], rho) -> np.ndarray:
    """sum_k K rho K^dagger, for one channel or each of a sequence: the
    extended channel with a one-level reference."""
    return apply_extended_channel(ch, rho, 1)


def apply_extended_channel(ch: QuantumChannel | Iterable[QuantumChannel], sigma, dim_ref: int) -> np.ndarray:
    """Apply identity-on-reference tensor the channel to a bipartite state,
    for one QuantumChannel or each of a non-empty sequence of channels that
    share (dim_in, dim_out).  The state is checked once as a density matrix.
    A sequence's outputs are one product of its stacked transfer matrices,
    returned as a stack (N, dim_ref * dim_out, dim_ref * dim_out); one
    channel's output is its matrix.  The outputs are checked as one stack
    by validate_density_matrices; a failure, and a channel whose dims
    differ from the first's, gives its index as ``row``."""
    sigma = validate_density_matrix(sigma)
    single = isinstance(ch, QuantumChannel)
    channels = [ch] if single else list(ch)
    if not channels:
        exc = DimensionMismatchError("no channels to apply")
        exc.row = 0
        raise exc
    dims = [(c.dim_in, c.dim_out) for c in channels]
    message = lambda k: f"channel (dim_in, dim_out) = {dims[k]} != {dims[0]} of channel 0"
    check_rows(DimensionMismatchError, [dim != dims[0] for dim in dims], (message,))
    dim_in = dims[0][0]
    if sigma.shape[0] != dim_ref * dim_in:
        raise DimensionMismatchError(
            f"state dim {sigma.shape[0]} != reference x channel input dim = {dim_ref} x {dim_in}"
        )
    transfers = ch.transfer if single else np.array([c.transfer for c in channels])
    outputs = apply_transfers(transfers, transfer_input(sigma, dim_ref, dim_in), dim_ref)
    validate_density_matrices(outputs.reshape((-1,) + outputs.shape[-2:]))
    return outputs
