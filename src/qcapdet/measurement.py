"""POVMs, outcome statistics and classical post-processing.

The outcome weights t_i returned by :func:`t_vector` depend only on the probe
decomposition and the POVM, never on the channel.  They obey the sum rule
sum_i t_i = dim_out * rank(rho), which reduces to d * rank(rho) whenever the
channel preserves the system dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .channels import QuantumChannel, apply_extended_channel, weyl_unitary
from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidStateError,
)
from .linalg import (
    PSD_TOL,
    TP_TOL,
    as_complex_matrix,
    double_ket,
    hermitian_part,
    is_hermitian,
    probability_vector,
    pseudo_inverse,
    psd_rank,
)
from .probes import BipartiteProbeState, reduced_system_state


@dataclass(frozen=True)
class Povm:
    """Finite list of positive operators summing to the identity."""

    dim: int
    elements: tuple[np.ndarray, ...]  # or one (n, dim, dim) array, used without a copy
    labels: tuple[str, ...] = field(default=(), compare=False)
    name: str = field(default="povm", compare=False)
    # Row i is Pi_i flattened, so matrix @ X.T.reshape(-1) gives Tr[X Pi_i];
    # the elements are views into the same array.
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.elements) == 0:
            raise InvalidStateError("POVM needs at least one element")
        ops = tuple(as_complex_matrix(e) for e in self.elements)
        for e in ops:
            if e.shape != (self.dim, self.dim):
                raise DimensionMismatchError(f"POVM element shape {e.shape} != ({self.dim}, {self.dim})")
            if not is_hermitian(e):
                raise InvalidStateError("POVM element is not Hermitian")
            if np.linalg.eigvalsh(hermitian_part(e)).min() < -PSD_TOL:
                raise InvalidStateError("POVM element is not positive semidefinite")
        total = sum(ops)
        if np.max(np.abs(total - np.eye(self.dim))) > TP_TOL:
            raise InvalidStateError("POVM elements do not sum to the identity")
        labels = self.labels or tuple(f"outcome_{i}" for i in range(len(ops)))
        if len(labels) != len(ops):
            raise DimensionMismatchError("label count differs from element count")
        stack = np.asarray(self.elements, dtype=complex)
        object.__setattr__(self, "elements", tuple(stack))
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "matrix", stack.reshape(len(ops), -1))

    def __len__(self) -> int:
        return len(self.elements)

    def probabilities(self, state: np.ndarray) -> np.ndarray:
        """Outcome distribution Tr[state Pi_i], checked as a probability vector."""
        return probability_vector((self.matrix @ state.T.reshape(-1)).real)


def _bell_projectors(d: int) -> np.ndarray:
    """The d^2 generalized Bell projectors stacked in (m, n) order."""
    vecs = np.array([double_ket(weyl_unitary(d, m, n)) for m in range(d) for n in range(d)])
    vecs /= np.sqrt(d)
    return vecs[:, :, None] * vecs[:, None, :].conj()


def bell_povm(d: int) -> Povm:
    """The d^2 projectors onto generalized Bell states, in (m, n) order."""
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    labels = tuple(f"bell_{m}_{n}" for m in range(d) for n in range(d))
    return Povm(d * d, _bell_projectors(d), labels, name=f"bell(d={d})")


def erasure_povm(d: int) -> Povm:
    """Flag-adapted basis on reference x (system + flag): d^2 embedded Bell
    projectors followed by the d flag projectors |i><i| x |e><e|."""
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    embed = np.zeros((d + 1, d), dtype=complex)
    embed[:d, :] = np.eye(d)
    lift = np.kron(np.eye(d), embed)  # reference x first-d-levels isometry
    elements = list(lift @ _bell_projectors(d) @ lift.conj().T)
    labels = [f"bell_{m}_{n}" for m in range(d) for n in range(d)]
    flag = np.zeros((d + 1, d + 1), dtype=complex)
    flag[d, d] = 1.0
    for i in range(d):
        ref = np.zeros((d, d), dtype=complex)
        ref[i, i] = 1.0
        elements.append(np.kron(ref, flag))
        labels.append(f"flag_{i}")
    return Povm(d * (d + 1), tuple(elements), tuple(labels), name=f"erasure_adapted(d={d})")


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


def t_vector(probe: BipartiteProbeState, povm: Povm) -> np.ndarray:
    """Channel-independent outcome weights from the probe decomposition.

    t_i = Tr[(sum_l a_l A_l pinv(rho^T) A_l^dagger x I_out) Pi_i], with the
    identity factor on the channel output space so dimension-changing
    channels are covered.
    """
    rho = reduced_system_state(probe)
    return outcome_weights(probe, povm, pseudo_inverse(rho.T), psd_rank(rho))


def outcome_weights(probe: BipartiteProbeState, povm: Povm, rho_t_pinv, rank: int) -> np.ndarray:
    """The weights of :func:`t_vector` from a precomputed pinv(rho^T) and
    rank(rho), checked against the sum rule sum_i t_i = dim_out * rank."""
    if povm.dim % probe.d != 0:
        raise DimensionMismatchError(f"POVM dim {povm.dim} not divisible by probe dim {probe.d}")
    dim_out = povm.dim // probe.d
    left = sum(
        a * (op @ rho_t_pinv @ op.conj().T)
        for a, op in zip(probe.weights, probe.operators)
    )
    t = (povm.matrix @ np.kron(left.T, np.eye(dim_out)).reshape(-1)).real
    t = np.where((t < 0.0) & (t > -PSD_TOL), 0.0, t)
    expected = dim_out * rank
    if abs(t.sum() - expected) > 1e-8:
        raise InternalConsistencyError(
            f"t-vector sum {t.sum()} violates the sum rule (expected {expected})"
        )
    return t


def _validate_partition(grouping: Sequence[Iterable[int]], n: int) -> tuple[tuple[int, ...], ...]:
    groups = tuple(tuple(int(i) for i in g) for g in grouping)
    seen = [i for g in groups for i in g]
    if sorted(seen) != list(range(n)) or any(len(g) == 0 for g in groups):
        raise ValueError(f"grouping {groups} is not a partition of 0..{n - 1}")
    return groups


def coarse_grain(p, t, grouping: Sequence[Iterable[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Merge outcomes by summing probabilities and weights groupwise."""
    p = np.asarray(p, dtype=float).reshape(-1)
    t = np.asarray(t, dtype=float).reshape(-1)
    if p.shape != t.shape:
        raise DimensionMismatchError("probability and weight vectors differ in length")
    groups = _validate_partition(grouping, p.size)
    p_merged = np.array([p[list(g)].sum() for g in groups])
    t_merged = np.array([t[list(g)].sum() for g in groups])
    return probability_vector(p_merged), t_merged


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
