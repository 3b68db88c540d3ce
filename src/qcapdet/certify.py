"""Detectable capacity bound, exact oracles and closed forms.

The measured lower bound is

    qdet = S[E(rho)] - H(p) - log2(t . p)

with p the POVM outcome distribution, t the channel-independent outcome
weights, and S[E(rho)] the output entropy of the reduced probe state.  It
never exceeds the single-use coherent information of the channel at the same
input, which :func:`certify` verifies against the exact oracle on every call.
The same number lower-bounds the private information, and adding the input
entropy S(rho) gives a lower bound on the entanglement-assisted classical
capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channels import QuantumChannel, apply_channel, apply_extended_channel, apply_transfers, transfer_input
from .errors import (
    CertificationError,
    DegenerateMeasurementError,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidStateError,
)
from .linalg import (
    RECON_TOL,
    binary_entropy,
    checked_state_entropies,
    density_eigen,
    density_spectra,
    double_ket,
    matrix_sqrt,
    partial_trace_reference,
    rank_cutoff,
    shannon_entropy,
    spectral_entropies,
    validate_density_matrix,
    von_neumann_entropy,
)
from .measurement import Povm, iter_partitions, merge_groups, outcome_weights
from .probes import BipartiteProbeState

CHAIN_TOL = 1e-9
EXHAUSTIVE_GROUPING_LIMIT = 6  # enumerate all partitions up to this many outcomes
GROUPING_TOL = 1e-12  # a grouping step must gain more than this; near-ties go to the first candidate


@dataclass(frozen=True)
class CertificationResult:
    """Detected capacity bound and every ingredient that produced it."""

    qdet: float
    output_entropy: float  # S[E(rho)], bits
    prob_entropy: float  # H(p) after grouping, bits
    log_tp: float  # log2(t . p) after grouping, bits
    input_entropy: float  # S(rho), bits
    private_lower: float  # lower bound on the private information
    ea_classical_lower: float  # lower bound on the entanglement-assisted capacity
    grouping: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray = field(repr=False, compare=False)  # outcome distribution before grouping
    weights: np.ndarray = field(repr=False, compare=False)  # the probe's outcome weights t before grouping
    probe_label: str = field(default="", compare=False)
    channel_label: str = field(default="", compare=False)
    povm_label: str = field(default="povm", compare=False)


def entropy_exchange(rho, ch: QuantumChannel, purification: np.ndarray | None = None) -> float:
    """Entropy of the joint reference/output state of a purified input.

    The purification double-ket is built from the PSD square root of rho^T,
    optionally rotated by a unitary on the purifying reference; the result is
    independent of that choice.
    """
    rho = validate_density_matrix(rho)
    if rho.shape[0] != ch.dim_in:
        raise DimensionMismatchError(f"state dim {rho.shape[0]} != channel input dim {ch.dim_in}")
    amp = matrix_sqrt(rho.T)
    if purification is not None:
        v = np.asarray(purification, dtype=complex)
        if v.shape != rho.shape:
            raise DimensionMismatchError(f"purification unitary shape {v.shape} != {rho.shape}")
        if np.max(np.abs(v @ v.conj().T - np.eye(v.shape[0]))) > RECON_TOL:
            raise InvalidStateError("purification rotation is not unitary")
        amp = v @ amp
    psi = double_ket(amp)
    joint = apply_extended_channel(ch, np.outer(psi, psi.conj()), rho.shape[0])
    return von_neumann_entropy(joint)


def coherent_information(rho, ch: QuantumChannel) -> float:
    """S[E(rho)] - S_e(rho, E); may be negative."""
    rho = validate_density_matrix(rho)
    return von_neumann_entropy(apply_channel(ch, rho)) - entropy_exchange(rho, ch)


def qdet_from_statistics(p, t, output_entropy: float) -> float:
    """Detected bound from an outcome distribution and its weights."""
    p = np.asarray(p, dtype=float).reshape(-1)
    t = np.asarray(t, dtype=float).reshape(-1)
    if p.shape != t.shape:
        raise DimensionMismatchError("probability and weight vectors differ in length")
    tp = float(t @ p)
    if tp <= 0.0:
        raise DegenerateMeasurementError(f"t . p = {tp} is not positive")
    return output_entropy - shannon_entropy(p) - math.log2(tp)


@lru_cache(maxsize=None)
def _membership(n: int) -> tuple[tuple, np.ndarray]:
    """Partitions of range(n) in iter_partitions order; m[k, g, i] = 1 if i is in group g of partition k."""
    parts = tuple(iter_partitions(n))
    padded = (part + ((),) * (n - len(part)) for part in parts)
    return parts, np.array([[[i in g for i in range(n)] for g in part] for part in padded], dtype=float)


def _best_grouping(p: np.ndarray, t: np.ndarray, output_entropy: float):
    """Largest detected bound over coarse-grainings: all set partitions for
    small POVMs, greedy pairwise merging beyond, each step scoring all its
    candidates in one pass.  The bound and the merged p, t returned for the
    chosen grouping (possibly the trivial one) are computed exactly."""
    xlogx = lambda x: x * np.log2(np.where(x > 0.0, x, 1.0))
    pick = lambda g: int(np.argmax(g >= g.max() - GROUPING_TOL)) if g.max() > GROUPING_TOL else None
    if p.size <= EXHAUSTIVE_GROUPING_LIMIT:
        parts, m = _membership(p.size)
        pm, tm = m @ p, m @ t
        score = xlogx(pm).sum(axis=1) - np.log2((tm * pm).sum(axis=1))  # -H(p') - log2(t' . p')
        grouping = parts[pick(score - score[0]) or 0]
    else:
        groups, pm, tm = [(i,) for i in range(p.size)], p, t
        while len(groups) > 1:
            a, b = np.triu_indices(len(groups), 1)  # merge candidates in double-loop order
            cross = tm[a] * pm[b] + tm[b] * pm[a]  # t' . p' - t . p; the gain is H - H' - log2(t' . p' / t . p)
            gain = xlogx(pm[a] + pm[b]) - xlogx(pm[a]) - xlogx(pm[b]) - np.log2(1.0 + cross / (tm @ pm))
            if (k := pick(gain)) is None:
                break
            a, b = a[k], b[k]
            groups = [g for j, g in enumerate(groups) if j not in (a, b)] + [groups[a] + groups[b]]
            pm, tm = (np.append(np.delete(x, (a, b)), x[a] + x[b]) for x in (pm, tm))
        grouping = tuple(groups)
    pm, tm = merge_groups(p, t, grouping)  # a partition by construction, so merged unchecked
    pm = pm.clip(0.0, 1.0)  # as coarse_grain's probability check clamps it
    return qdet_from_statistics(pm, tm, output_entropy), grouping, pm, tm


@dataclass(frozen=True, eq=False)
class MarginalHalf:
    """What the bound takes from a probe's marginal rho = Tr_ref[sigma] alone,
    all from one eigendecomposition of rho^T, which also checks rho as a
    density matrix.  Every probe with this marginal shares it."""

    rho: np.ndarray
    input_entropy: float  # S(rho), bits
    root: np.ndarray  # sqrt(rho^T)
    purification: np.ndarray  # |sqrt(rho^T)>><<sqrt(rho^T)|
    purification_pairs: np.ndarray  # the purification as every channel's transfer matrix reads it
    rho_t_pinv: np.ndarray  # pinv(rho^T)
    rank: int

    @classmethod
    def of(cls, rho: np.ndarray) -> "MarginalHalf":
        d = rho.shape[0]
        evals, evecs = density_eigen(rho.T)  # checks rho^T, so rho, as a density matrix
        spectrum = np.clip(evals, 0.0, None)
        keep, inverse = rank_cutoff(evals)
        root = (evecs * np.sqrt(spectrum)) @ evecs.conj().T
        psi = double_ket(root)
        purification = np.outer(psi, psi.conj())
        pairs = transfer_input(purification, d, d)
        pinv = (evecs * inverse) @ evecs.conj().T
        return cls(rho, shannon_entropy(spectrum), root, purification, pairs, pinv, int(keep.sum()))

    def check_agrees(self, rho: np.ndarray, names: Sequence[str] = ()) -> None:
        """Raise unless another probe's marginal, or each of a stack of them,
        equals this one entrywise within RECON_TOL.  An error names the first
        failing marginal of a stack by ``names``."""
        if rho.shape[-2:] != self.rho.shape:
            raise DimensionMismatchError(f"marginal shape {rho.shape} != shared marginal shape {self.rho.shape}")
        gaps = np.abs(rho - self.rho).max(axis=(-2, -1)).reshape(-1)
        if gaps.max() > RECON_TOL:
            k = int(np.argmax(gaps > RECON_TOL))
            prefix = f"{names[k]}: " if names else ""
            raise InvalidStateError(f"{prefix}marginal differs from the shared marginal by {gaps[k]}")


@dataclass(frozen=True, eq=False)
class ChannelHalf:
    """What the bound takes from one channel at one marginal, each part
    checked: the output entropy and the exact oracle."""

    channel: QuantumChannel
    marginal: MarginalHalf
    output_entropy: float  # S[E(rho)], bits
    oracle: float  # coherent information I_c = S[E(rho)] - S_e, bits


class Detector:
    """The channel-independent half of the bound for one probe and POVM.

    Built and checked once, from the probe's sigma alone: the marginal
    rho = Tr_ref[sigma] and its :class:`MarginalHalf`, and t, one
    contraction of sigma with pinv(rho^T), with its sum rule.  Given the
    marginal half of another detector, it checks that its own marginal
    agrees within RECON_TOL and reuses that half, decomposing nothing.
    :meth:`certify_many` evaluates a stack of channels on this probe, and
    :meth:`certify_probes` a stack of probes sharing its marginal half on
    one channel; both check every joint output, outcome distribution and
    the chain qdet <= I_c against the exact oracle.
    """

    def __init__(self, probe: BipartiteProbeState, povm: Povm, marginal: MarginalHalf | None = None):
        d = probe.d
        rho = partial_trace_reference(probe.sigma, d, d)
        if marginal is None:
            marginal = MarginalHalf.of(rho)
        else:
            marginal.check_agrees(rho)
        self.probe = probe
        self.povm = povm
        self.marginal = marginal
        self.t = outcome_weights(probe.sigma, povm, marginal.rho_t_pinv, marginal.rank)
        self.probe_pairs = transfer_input(probe.sigma, d, d)  # sigma as every channel's transfer matrix reads it

    def certify(self, ch: QuantumChannel, optimize: bool = False, half: ChannelHalf | None = None) -> CertificationResult:
        """Bound for one channel; ``optimize`` searches outcome coarse-grainings."""
        return self.certify_many([ch], optimize, None if half is None else [half])[0]

    def _channel_names(self, channels: tuple) -> tuple[list[str], int]:
        """Each channel's name for errors, and the output dim they share,
        checked against the probe's input."""
        d = self.probe.d
        dims = {(ch.dim_in, ch.dim_out) for ch in channels}
        if len(dims) > 1:
            raise DimensionMismatchError(f"channels differ in (dim_in, dim_out): {sorted(dims)}")
        ((dim_in, dim_out),) = dims
        if dim_in != d:
            raise DimensionMismatchError(f"channel input dim {dim_in} != probe dim {d}")
        return [f"channel {i} ({ch.label})" for i, ch in enumerate(channels)], dim_out

    def _check_povm(self, dim_out: int) -> None:
        if self.povm.dim != self.probe.d * dim_out:
            raise DimensionMismatchError(
                f"POVM dim {self.povm.dim} != reference x output = {self.probe.d * dim_out}"
            )

    def channel_halves(self, channels: Sequence[QuantumChannel]) -> list[ChannelHalf]:
        """The channel half of each of a sequence of channels sharing
        (dim_in, dim_out) at this detector's marginal: E(rho) through
        apply_channel with its check, S[E(rho)], and the purified output,
        formed and checked as one stack, giving S_e and I_c.  Any detector
        sharing the marginal half can certify with them."""
        channels = tuple(channels)
        if not channels:
            return []
        names, _ = self._channel_names(channels)
        return self._halves(channels, names, np.array([ch.transfer for ch in channels]))

    def _halves(self, channels: tuple, names: list[str], transfers: np.ndarray, given=None) -> list[ChannelHalf]:
        """The channels' halves: ``given``, once checked to be theirs at this
        marginal, or else computed as :meth:`channel_halves` describes."""
        marginal = self.marginal
        if given is not None:
            if tuple(h.channel for h in given) != channels or any(h.marginal is not marginal for h in given):
                raise ValueError("channel halves belong to other channels or to another marginal")
            return list(given)
        # apply_channel checks each E(rho)
        outputs = [_named(name, apply_channel, ch, marginal.rho) for name, ch in zip(names, channels)]
        output_entropies = checked_state_entropies(np.array(outputs))
        purified = apply_transfers(transfers, marginal.purification_pairs, self.probe.d)
        exchange_entropies = spectral_entropies(density_spectra(purified, names))
        rows = zip(channels, output_entropies, exchange_entropies)
        return [ChannelHalf(ch, marginal, s, s - s_e) for ch, s, s_e in rows]

    def certify_many(
        self,
        channels: Sequence[QuantumChannel],
        optimize: bool = False,
        halves: Sequence[ChannelHalf] | None = None,
    ) -> list[CertificationResult]:
        """Bound for each of a sequence of channels sharing (dim_in, dim_out),
        their joint outputs formed and checked as one stack.  ``halves``, the
        channels' :meth:`channel_halves` from a detector with this marginal
        half, stand in for computing them again.  An error names the index
        and label of the first failing channel."""
        channels = tuple(channels)
        if not channels:
            return []
        names, dim_out = self._channel_names(channels)
        self._check_povm(dim_out)
        transfers = np.array([ch.transfer for ch in channels])
        halves = self._halves(channels, names, transfers, halves)
        points = [(name, self.probe, half, self.t) for name, half in zip(names, halves)]
        return self._certify_stack(transfers, self.probe_pairs, points, optimize)

    def certify_probes(
        self,
        probes: Sequence[BipartiteProbeState],
        ch: QuantumChannel,
        optimize: bool = False,
        half: ChannelHalf | None = None,
    ) -> list[CertificationResult]:
        """Bound for each of a sequence of probes on one channel, in one
        stacked pass on this detector's marginal half and POVM: every probe's
        marginal is checked to agree with that half entrywise within
        RECON_TOL, and their weights t (each with its sum rule), joint
        outputs and outcome distributions are formed and checked as stacks.
        ``half`` is the channel's :meth:`channel_halves` at this marginal.
        Each result carries its own probe's t.  An error names the index and
        label of the first failing probe."""
        probes = tuple(probes)
        if not probes:
            return []
        d = self.probe.d
        if any(probe.d != d for probe in probes):
            dims = sorted({probe.d for probe in probes})
            raise DimensionMismatchError(f"probe dims {dims} != detector probe dim {d}")
        channel_names, dim_out = self._channel_names((ch,))
        self._check_povm(dim_out)
        (half,) = self._halves((ch,), channel_names, ch.transfer[None], None if half is None else [half])
        names = [f"probe {i} ({probe.label})" for i, probe in enumerate(probes)]
        weights, pairs = self._probe_stack(probes, names)
        points = [(name, probe, half, t) for name, probe, t in zip(names, probes, weights)]
        return self._certify_stack(ch.transfer, pairs, points, optimize)

    def _probe_stack(self, probes: tuple, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Each probe's t, with its sum rule, and its transfer input, from one
        stack of their sigmas, once each marginal is checked against this
        detector's.  The stack is freed on return, before the joint outputs
        are formed: holding it, and a stacked copy of the transfer matrix,
        through the joint pass nearly tripled a d = 16 point's page faults."""
        d = self.probe.d
        sigmas = np.array([probe.sigma for probe in probes])
        marginal = self.marginal
        marginal.check_agrees(np.einsum("kiaib->kab", sigmas.reshape(-1, d, d, d, d)), names)
        weights = outcome_weights(sigmas, self.povm, marginal.rho_t_pinv, marginal.rank, names)
        return weights, transfer_input(sigmas, d, d)

    def _certify_stack(self, transfers: np.ndarray, pairs: np.ndarray, points: list, optimize: bool):
        """Results of a stack of (name, probe, channel half, t) points whose
        joint outputs are one product of ``transfers`` and ``pairs``: the
        outputs checked with one density_spectra call and their outcome
        distributions with one probabilities call, then each point's bound
        on its own."""
        names = [name for name, *_ in points]
        joint = apply_transfers(transfers, pairs, self.probe.d)
        density_spectra(joint, names)
        probabilities = self.povm.probabilities(joint, names)
        rows = zip(points, probabilities)
        return [_named(name, self._result, probe, half, t, p, optimize) for (name, probe, half, t), p in rows]

    def _result(self, probe: BipartiteProbeState, half: ChannelHalf, t, p, optimize: bool) -> CertificationResult:
        """The bound from one point's checked statistics, checked against its oracle."""
        output_entropy, input_entropy = half.output_entropy, self.marginal.input_entropy
        if optimize:
            qdet, grouping, pm, tm = _best_grouping(p, t, output_entropy)
        else:
            grouping = tuple((i,) for i in range(p.size))
            qdet = qdet_from_statistics(p, t, output_entropy)
            pm, tm = p, t
        # t . p > 0 was checked by qdet_from_statistics; merging keeps t . p
        prob_entropy, log_tp = shannon_entropy(pm), math.log2(float(tm @ pm))
        if qdet > half.oracle + CHAIN_TOL:
            raise InternalConsistencyError(f"detected bound {qdet} exceeds the coherent information {half.oracle}")
        return CertificationResult(
            qdet=qdet,
            output_entropy=output_entropy,
            prob_entropy=prob_entropy,
            log_tp=log_tp,
            input_entropy=input_entropy,
            private_lower=qdet,
            ea_classical_lower=input_entropy + qdet,
            grouping=grouping,
            probabilities=p,
            weights=t,
            probe_label=probe.label,
            channel_label=half.channel.label,
            povm_label=self.povm.name,
        )


def _named(name: str, fn, *args):
    """fn(*args), a CertificationError it raises prefixed by a channel's name, keeping its type."""
    try:
        return fn(*args)
    except CertificationError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def certify(
    probe: BipartiteProbeState,
    ch: QuantumChannel,
    povm: Povm,
    optimize: bool = False,
) -> CertificationResult:
    """Run the full detection pipeline for one probe/channel/POVM triple.

    Equivalent to ``Detector(probe, povm).certify(ch, optimize)``; build the
    detector once to evaluate several channels.
    """
    return Detector(probe, povm).certify(ch, optimize)


def t_vector(probe: BipartiteProbeState, povm: Povm) -> np.ndarray:
    """Channel-independent outcome weights of a probe and POVM, as
    ``Detector(probe, povm).t``; see :func:`outcome_weights`."""
    return Detector(probe, povm).t


def hashing_bound(d: int, p: float) -> float:
    """Detected bound for a depolarizing channel probed with a perfect
    maximally entangled state: log2 d - H2(p) - p log2(d^2 - 1)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength {p} outside [0, 1]")
    return math.log2(d) - binary_entropy(p) - p * math.log2(d * d - 1)


def depolarizing_isotropic_qdet(d: int, p: float, fidelity: float) -> float:
    """Closed form for a depolarizing channel with an isotropic probe.

    The Bell statistics see an effective error weight
    p_eff = (d^2 [1 - F(1-p)] + F - p - 1) / (d^2 - 1), which reduces to p at
    perfect fidelity.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength {p} outside [0, 1]")
    if not 1.0 / d**2 <= fidelity <= 1.0:
        raise ValueError(f"fidelity {fidelity} outside [{1.0 / d ** 2}, 1]")
    p_eff = (d * d * (1.0 - fidelity * (1.0 - p)) + fidelity - p - 1.0) / (d * d - 1.0)
    p_eff = min(max(p_eff, 0.0), 1.0)
    return math.log2(d) - binary_entropy(p_eff) - p_eff * math.log2(d * d - 1)


def erasure_qdet_closed_form(d: int, p: float, fidelity: float) -> float:
    """Closed form for an erasure channel with an isotropic probe and the
    flag-adapted measurement; equals the exact capacity expression at F = 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} outside [0, 1]")
    if not 1.0 / d**2 <= fidelity <= 1.0:
        raise ValueError(f"fidelity {fidelity} outside [{1.0 / d ** 2}, 1]")
    penalty = binary_entropy(fidelity) + (1.0 - fidelity) * math.log2(d * d - 1)
    return (1.0 - 2.0 * p) * math.log2(d) - (1.0 - p) * penalty


def erasure_exact_capacity(d: int, p: float) -> float:
    """(1 - 2p) log2 d for p <= 1/2, zero beyond."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} outside [0, 1]")
    return max(0.0, (1.0 - 2.0 * p)) * math.log2(d)


# Closed form qdet(d, p, F) of each channel family whose fidelity threshold
# the CLI reports.
THRESHOLD_FAMILIES = {
    "depolarizing": depolarizing_isotropic_qdet,
    "erasure": erasure_qdet_closed_form,
}


def threshold_fidelity(channel_family: str, d: int) -> float:
    """Largest probe fidelity at which no noise level yields a positive
    detected bound, located by bisection on the closed forms.

    The maximum over the noise p in [0, 1] is taken at p = 0 or p = 1, because
    both closed forms are convex in p.  The erasure form is affine in p.  The
    depolarizing form is log2 d - h(x) - x log2(d^2 - 1) with -h convex and
    x = p_eff affine in p; for F >= 1/d^2, x stays in [0, 1] over the whole
    range, so its clip only guards rounding.
    """
    if channel_family not in THRESHOLD_FAMILIES:
        raise ValueError(f"unsupported channel family {channel_family!r}")
    if d < 2:
        raise ValueError(f"dimension {d} must be at least 2")
    closed = THRESHOLD_FAMILIES[channel_family]
    best_at = lambda f: max(closed(d, 0.0, f), closed(d, 1.0, f))
    lo, hi = 1.0 / d**2, 1.0
    if best_at(lo) > 0.0:
        raise InternalConsistencyError("detected bound positive even at minimal fidelity")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if best_at(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo

