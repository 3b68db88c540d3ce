"""POVMs, outcome statistics and classical post-processing.

The outcome weights t_i of :func:`outcome_weights` depend only on the probe
state sigma and the POVM, never on the channel.  They obey the sum rule
sum_i t_i = dim_out * rank(rho), which reduces to d * rank(rho) whenever the
channel preserves the system dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .channels import QuantumChannel, apply_extended_channel, weyl_unitaries
from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidStateError,
)
from .linalg import (
    HERMITIAN_TOL,
    PSD_TOL,
    SUM_RULE_TOL,
    TP_TOL,
    _frozen,
    as_complex_matrix,
    check_dimension,
    check_rows,
    probability_vector,
    probability_vectors,
)
from .probes import BipartiteProbeState


@dataclass(frozen=True, init=False, eq=False)
class Povm:
    """Finite list of positive operators summing to the identity.

    Each element is stored as a factor, Pi_i = B_i B_i^dagger: B_i is made of
    the columns j of ``factors`` with ``owner[j] == i``.  Dense elements are
    checked Hermitian and positive semidefinite, and the eigendecomposition
    of that check gives their factors; :meth:`from_kets` takes rank-one
    elements directly, from its own copy.  Either way, completeness is
    checked once, as B B^dagger = I; the factors and owners are read-only.
    """

    dim: int
    factors: np.ndarray = field(repr=False)  # (dim, R)
    owner: np.ndarray = field(repr=False)  # (R,), the element of each factor column
    labels: tuple[str, ...]
    name: str

    def __init__(self, dim: int, elements, labels: Sequence[str] = (), name: str = "povm"):
        if len(elements) == 0:
            raise InvalidStateError("POVM needs at least one element")
        ops = [as_complex_matrix(e) for e in elements]
        for e in ops:
            if e.shape != (dim, dim):
                raise DimensionMismatchError(f"POVM element shape {e.shape} != ({dim}, {dim})")
        stack = np.array(ops)
        adjoint = stack.conj().transpose(0, 2, 1)
        with np.errstate(over="ignore", invalid="ignore"):  # a near-max entry overflows to inf, which a check refuses
            if np.max(np.abs(stack - adjoint)) > HERMITIAN_TOL:
                raise InvalidStateError("POVM element is not Hermitian")
            evals, evecs = np.linalg.eigh((stack + adjoint) / 2.0)
        if evals.min() < -PSD_TOL:
            raise InvalidStateError("POVM element is not positive semidefinite")
        # Numerical rank, as numpy's matrix_rank counts it: eigenvalues at
        # rounding level of an element's largest one carry no weight.
        cutoff = np.clip(evals.max(axis=1, keepdims=True), 0.0, None) * dim * np.finfo(float).eps
        owner, column = np.nonzero(evals > cutoff)
        factors = (evecs[owner, :, column] * np.sqrt(evals[owner, column])[:, None]).T
        self._store(dim, factors, owner, len(ops), labels, name)

    @classmethod
    def from_kets(cls, dim: int, kets, labels: Sequence[str] = (), name: str = "povm") -> "Povm":
        """The rank-one POVM |k_i><k_i| over the rows k_i of ``kets``; such
        elements are Hermitian and positive by construction."""
        kets = np.array(kets, dtype=complex)  # the caller's array stays the caller's
        if kets.ndim != 2 or kets.shape[1] != dim:
            raise DimensionMismatchError(f"ket stack shape {kets.shape} != (n, {dim})")
        povm = cls.__new__(cls)
        povm._store(dim, kets.T, np.arange(len(kets)), len(kets), labels, name)
        return povm

    def _store(self, dim: int, factors: np.ndarray, owner: np.ndarray, count: int, labels, name: str):
        if not np.isfinite(factors).all():
            raise InvalidStateError("POVM factors contain non-finite entries")
        if np.max(np.abs(factors @ factors.conj().T - np.eye(dim))) > TP_TOL:
            raise InvalidStateError("POVM elements do not sum to the identity")
        labels = tuple(labels) or tuple(f"outcome_{i}" for i in range(count))
        if len(labels) != count:
            raise DimensionMismatchError("label count differs from element count")
        _frozen(self, dim=dim, factors=factors, owner=owner, labels=labels, name=name)

    def __len__(self) -> int:
        return len(self.labels)

    def traces(self, op: np.ndarray) -> np.ndarray:
        """Re Tr[op Pi_i] for every element, as sum_j b_j^dagger op b_j over
        the columns b_j of B_i, for an op or a stack (..., k, k) of them in
        one product.  An op of side k < dim is read as op x I_(dim/k),
        through a reshape of the factors."""
        k = op.shape[-1]
        applied = (op @ self.factors.reshape(k, -1)).reshape(op.shape[:-2] + self.factors.shape)
        columns = np.einsum("aj,...aj->...j", self.factors.conj(), applied).real
        rows = columns.size // len(self.owner)  # one owner sum for all rows, their bins offset by row
        bins = self.owner if rows == 1 else (self.owner + len(self) * np.arange(rows)[:, None]).reshape(-1)
        sums = np.bincount(bins, weights=columns.reshape(-1), minlength=rows * len(self))
        return sums.reshape(op.shape[:-2] + (len(self),))

    def probabilities(self, state: np.ndarray, names: Sequence[str] = ()) -> np.ndarray:
        """Outcome distribution Tr[state Pi_i] of a state, or of each state
        of a stack, checked as probability vectors; see probability_vectors."""
        return probability_vectors(self.traces(state), names)

    @cached_property
    def elements(self) -> tuple[np.ndarray, ...]:
        """The dense elements Pi_i, built from the factors on first use, as
        read-only views of one stack the POVM keeps."""
        columns = self.factors.T
        stack = np.zeros((len(self), self.dim, self.dim), dtype=complex)
        np.add.at(stack, self.owner, columns[:, :, None] * columns[:, None, :].conj())
        return tuple(_frozen(self, element_stack=stack).element_stack)


def bell_povm(d: int) -> Povm:
    """The d^2 projectors onto generalized Bell states, in (m, n) order."""
    check_dimension(d)
    labels = tuple(f"bell_{m}_{n}" for m in range(d) for n in range(d))
    kets = weyl_unitaries(d).reshape(d * d, -1) / np.sqrt(d)  # |U_mn>>/sqrt(d)
    return Povm.from_kets(d * d, kets, labels, name=f"bell(d={d})")


def erasure_povm(d: int) -> Povm:
    """Flag-adapted basis on reference x (system + flag): the d^2 Bell states
    on reference x system followed by the d flagged states |i>|e>."""
    check_dimension(d)
    kets = np.zeros((d * d + d, d, d + 1), dtype=complex)  # (outcome, reference, system + flag)
    kets[: d * d, :, :d] = weyl_unitaries(d) / np.sqrt(d)
    kets[d * d + np.arange(d), np.arange(d), d] = 1.0
    labels = [f"bell_{m}_{n}" for m in range(d) for n in range(d)] + [f"flag_{i}" for i in range(d)]
    return Povm.from_kets(d * (d + 1), kets.reshape(d * d + d, -1), labels, name=f"erasure_adapted(d={d})")


def outcome_probabilities(
    probe: BipartiteProbeState, ch: QuantumChannel, povm: Povm
) -> np.ndarray:
    """Outcome distribution of the POVM on the channel output of the probe."""
    if ch.dim_in != probe.d:
        raise DimensionMismatchError(f"channel input dim {ch.dim_in} != probe dim {probe.d}")
    if povm.dim != probe.d * ch.dim_out:
        raise DimensionMismatchError(
            f"POVM dim {povm.dim} != reference x output = {probe.d * ch.dim_out}"
        )
    return povm.probabilities(apply_extended_channel(ch, probe.sigma, probe.d))


def pauli_bell_convolution(channel_probs, probe_weights) -> np.ndarray:
    """Bell-measurement outcome grid for a Weyl-mixing channel acting on a
    Bell-diagonal probe: out[m, n] = sum_{l,s} p[l, s] q[m-l, n+s] (indices
    mod d), flattened in (m, n) order to match :func:`bell_povm`."""
    p = np.asarray(channel_probs, dtype=float)
    q = np.asarray(probe_weights, dtype=float)
    if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionMismatchError(f"incompatible grids {p.shape} and {q.shape}")
    d = p.shape[0]
    out = np.zeros((d, d))
    for l in range(d):
        for s in range(d):
            out += p[l, s] * np.roll(np.roll(q, l, axis=0), -s, axis=1)
    return probability_vector(out.reshape(-1))


def outcome_weights(sigma: np.ndarray, povm: Povm, rho_t_pinv, rank: int, names: Sequence[str] = ()) -> np.ndarray:
    """Channel-independent outcome weights of a probe state sigma, or of each
    state of a stack (..., d^2, d^2) sharing one marginal, from a
    precomputed pinv(rho^T) and rank(rho) of that marginal:

    t_i = Tr[(left x I_out) Pi_i],  left = sum_l a_l A_l pinv(rho^T) A_l^dagger,

    for any decomposition sigma = sum_l a_l |A_l>><<A_l|; with the double-ket
    convention this is one contraction of the sigma stack, whatever
    decomposition made it.  The identity factor on the channel output covers
    dimension-changing channels.  Each row is checked against the sum rule
    sum_i t_i = dim_out * rank; an error names the first failing row by
    ``names`` and gives its index as ``row``.
    """
    d = math.isqrt(sigma.shape[-1])
    if povm.dim % d != 0:
        raise DimensionMismatchError(f"POVM dim {povm.dim} not divisible by probe dim {d}")
    dim_out = povm.dim // d
    left = np.einsum("...nmNM,mM->...nN", sigma.reshape(sigma.shape[:-2] + (d, d, d, d)), rho_t_pinv)
    t = povm.traces(left)  # Tr[(left x I_out) Pi_i]
    t = np.where((t < 0.0) & (t > -PSD_TOL), 0.0, t)
    expected = dim_out * rank
    sums = t.sum(axis=-1).reshape(-1)
    message = lambda k: f"t-vector sum {sums[k]} violates the sum rule (expected {expected})"
    check_rows(InternalConsistencyError, np.abs(sums - expected) > SUM_RULE_TOL, (message,), names)
    return t


def _validate_partition(grouping: Sequence[Iterable[int]], n: int) -> tuple[tuple[int, ...], ...]:
    groups = tuple(tuple(int(i) for i in g) for g in grouping)
    seen = [i for g in groups for i in g]
    if sorted(seen) != list(range(n)) or any(len(g) == 0 for g in groups):
        raise ValueError(f"grouping {groups} is not a partition of 0..{n - 1}")
    return groups


def coarse_grain(p, t, grouping: Sequence[Iterable[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Merge outcomes by summing probabilities and weights groupwise; the
    grouping is checked to partition the outcomes."""
    p = np.asarray(p, dtype=float).reshape(-1)
    t = np.asarray(t, dtype=float).reshape(-1)
    if p.shape != t.shape:
        raise DimensionMismatchError("probability and weight vectors differ in length")
    p_merged, t_merged = merge_groups(p, t, _validate_partition(grouping, p.size))
    return probability_vector(p_merged), t_merged


def merge_groups(p: np.ndarray, t: np.ndarray, groups: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked groupwise sums of two equal-length vectors, for groups
    known to partition their entries."""
    members = np.fromiter((i for g in groups for i in g), dtype=int, count=p.size)
    owner = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return tuple(np.bincount(owner, weights=x[members], minlength=len(groups)) for x in (p, t))


def iter_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of range(n), starting from the all-singletons one."""
    yield tuple((i,) for i in range(n))
    for parts in _partitions_rec(list(range(n))):
        if len(parts) != n:  # skip the singleton partition already yielded
            yield tuple(tuple(g) for g in parts)


def _partitions_rec(items: list[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in _partitions_rec(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[head] + sub[k]] + sub[k + 1 :]
        yield [[head]] + sub
