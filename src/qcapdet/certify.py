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
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .channels import QuantumChannel, apply_channel, apply_extended_channel, apply_transfers, transfer_input
from .errors import (
    DegenerateMeasurementError,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidStateError,
)
from .linalg import (
    RECON_TOL,
    binary_entropy,
    check_dimension,
    check_rows,
    check_within,
    density_spectra,
    double_ket,
    matrix_sqrt,
    partial_trace_reference,
    probability_entropies,
    probability_vectors,
    rank_cutoff,
    reduce_rows,
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
CERTIFY_CHUNK = 1 << 14  # complex entries of one stacked pass's joint output


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
    """S[E(rho)] - S_e(rho, E); may be negative.  apply_channel checks rho."""
    return von_neumann_entropy(apply_channel(ch, rho)) - entropy_exchange(rho, ch)


def qdet_from_statistics(p, t, output_entropy):
    """Detected bound from outcome distributions and their weights: one row
    p (n,) with one output entropy, or a stack (N, n) with one per row,
    taken in one pass; t is one row, or one per row of p.  Each row is
    reduced as it would be alone: H(p) over its positive entries, t . p up
    to its last entry where p or t is nonzero.  So neither the stack nor
    zero outcomes padding a row change its bound.  Checks the shapes and
    that every output entropy is finite, then every t . p > 0, then every
    row of p as a probability vector, each check over the whole stack; an
    error gives its first failing row's index as ``row``."""
    rows, t, entropy = _statistics(p, t, output_entropy)
    log_tp = _log_totals(rows, t)
    qdet = entropy - probability_entropies(probability_vectors(rows)) - log_tp
    return float(qdet[0]) if np.ndim(p) == 1 else qdet


def _statistics(p, t, output_entropy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p as a stack (N, n), N >= 1, t as one too, broadcast if it is one
    row, and the output entropies as (N,): one for a row p, one per row of
    a stack, each finite; a non-finite one gives its index as ``row``."""
    p, t = np.asarray(p, dtype=float), np.asarray(t, dtype=float)
    entropy = np.asarray(output_entropy, dtype=float)
    if p.ndim not in (1, 2) or 0 in p.shape[:-1]:
        raise DimensionMismatchError(f"probabilities of shape {p.shape} are not one row (n,) or a stack (N, n), N >= 1")
    if t.ndim not in (1, 2) or (n := p.shape[-1]) != t.shape[-1]:
        raise DimensionMismatchError("probability and weight vectors differ in length")
    if n == 0:
        raise InvalidStateError("probability vector has no entries")
    if entropy.shape != p.shape[:-1]:
        raise DimensionMismatchError(f"output entropies of shape {entropy.shape} for probabilities of shape {p.shape}")
    p, t, entropy = p.reshape(-1, n), t.reshape(-1, n), entropy.reshape(-1)
    if len(t) not in (1, len(p)):
        raise DimensionMismatchError(f"{len(t)} weight rows for {len(p)} probability rows")
    check_rows(InvalidStateError, ~np.isfinite(entropy), (lambda k: f"output entropy {entropy[k]} is not finite",))
    return p, (t if len(t) == len(p) else np.broadcast_to(t, p.shape)), entropy


def _log_totals(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log2(t . p) of each row of a stack, each t . p checked positive; a
    BLAS dot per row, over the row's support as in qdet_from_statistics."""
    dot = lambda w, t, p: np.matmul(t[:, None, :w], p[:, :w, None])[:, 0, 0]
    if t[:, -1].all():  # every row's support reaches its last outcome; finding the supports costs more than the dot
        tp = dot(p.shape[-1], t, p)
    else:
        support = (p != 0.0) | (t != 0.0)
        tp = reduce_rows(dot, p.shape[-1] - np.argmax(support[:, ::-1], axis=-1), t, p)
    message = lambda k: f"t . p = {float(tp[k])} is not positive"
    check_rows(DegenerateMeasurementError, ~(tp > 0.0), (message,))  # a NaN fails too
    return np.array([math.log2(x) for x in tp.tolist()])  # libm's; numpy's log2 can differ in the last bit


@lru_cache(maxsize=None)
def _membership(n: int) -> tuple[tuple, np.ndarray]:
    """Partitions of range(n) in iter_partitions order; m[k, g, i] = 1 if i is in group g of partition k."""
    parts = tuple(iter_partitions(n))
    padded = (part + ((),) * (n - len(part)) for part in parts)
    return parts, np.array([[[i in g for i in range(n)] for g in part] for part in padded], dtype=float)


def _best_grouping(p: np.ndarray, t: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The outcome coarse-graining with the largest detected bound, from p, t
    alone (S[E(rho)] adds the same to every candidate): the best of all set
    partitions for small POVMs, greedy pairwise merging beyond, each step
    scoring all its candidates in one pass; a partition by construction."""
    xlogx = lambda x: x * np.log2(np.where(x > 0.0, x, 1.0))
    pick = lambda g: int(np.argmax(g >= g.max() - GROUPING_TOL)) if g.max() > GROUPING_TOL else None
    if p.size <= EXHAUSTIVE_GROUPING_LIMIT:
        parts, m = _membership(p.size)
        pm, tm = m @ p, m @ t
        score = xlogx(pm).sum(axis=1) - np.log2((tm * pm).sum(axis=1))  # -H(p') - log2(t' . p')
        return parts[pick(score - score[0]) or 0]
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
    return tuple(groups)


def grouped_bound(p, t, output_entropy, grouping):
    """(qdet, H(p'), log2(t' . p')) of checked statistics p, t merged into
    p', t' by ``grouping``: one row p (n,) with one output entropy and
    grouping, or a stack (N, n) with one of each per row; t is one row, or
    one per row of p.  A grouping is trusted to partition the outcomes:
    merged unchecked, only if some group holds several, into a row padded
    with zero outcomes to the widest row, which qdet_from_statistics never
    sees.  qdet comes from one qdet_from_statistics call for the whole
    stack, H(p') and log2(t' . p') from one more pass each.  Needs no
    channel; every bound the package reports, exact or finite-shot, is
    taken here."""
    if np.ndim(p) == 1:
        return tuple(float(x[0]) for x in grouped_bound(np.reshape(p, (1, -1)), t, [output_entropy], [grouping]))
    rows, weights, _ = _statistics(p, t, output_entropy)
    if merged := [k for k, groups in enumerate(grouping) if len(groups) < rows.shape[1]]:
        width = max(map(len, grouping))  # the widest row; narrower merged rows are padded
        p, t = np.array(rows[:, :width]), np.array(weights[:, :width])  # the caller's rows stay as measured
        for k in merged:
            p_merged, t_merged = merge_groups(rows[k], weights[k], grouping[k])
            p[k], t[k] = 0.0, 0.0
            p[k, : p_merged.size] = p_merged.clip(0.0, 1.0)  # as coarse_grain's probability check clamps it
            t[k, : t_merged.size] = t_merged
    else:
        p, t = rows, weights
    qdet = qdet_from_statistics(p, t, output_entropy)  # checks every t . p > 0 for the log2 below
    return qdet, probability_entropies(p), _log_totals(p, t)


class Detector:
    """The channel-independent half of the bound for one probe and POVM.

    Built and checked once, from the probe's sigma alone: the marginal
    rho = Tr_ref[sigma]; S(rho), the rank and pseudo-inverse of rho^T and the
    purification |sqrt(rho^T)>>, all from one eigendecomposition of rho^T that
    checks rho; and t, one contraction of sigma with pinv(rho^T), with its sum rule.
    :meth:`certify_many` evaluates channels on this probe, and
    :meth:`certify_probes` probes sharing its marginal on one channel.
    Both take any iterable and yield results lazily, one chunk at a time:
    each chunk is pulled in full, so a lazy input builds all its items
    first, then certified in one stacked pass that checks every joint
    output, outcome distribution and the chain qdet <= I_c against the
    exact oracle; a chunk of channels gets every E(rho) from one
    apply_channel call, checked and decomposed once.  An error names the
    index, in the whole input, and label of the first failing item.
    """

    def __init__(self, probe: BipartiteProbeState, povm: Povm):
        d = probe.d
        self.probe = probe
        self.povm = povm
        self.rho = partial_trace_reference(probe.sigma, d, d)
        evals, evecs = density_spectra(self.rho.T, vectors=True)  # checks rho^T, so rho, as a density matrix
        spectrum = np.clip(evals, 0.0, None)
        keep, inverse = rank_cutoff(evals)
        self.input_entropy = shannon_entropy(spectrum)  # S(rho), bits
        self.rank = int(keep.sum())
        self.rho_t_pinv = (evecs * inverse) @ evecs.conj().T
        psi = double_ket((evecs * np.sqrt(spectrum)) @ evecs.conj().T)  # |sqrt(rho^T)>>
        self.purification_pairs = transfer_input(np.outer(psi, psi.conj()), d, d)  # as transfer matrices read it
        self.t = outcome_weights(probe.sigma, povm, self.rho_t_pinv, self.rank)
        self.probe_pairs = transfer_input(probe.sigma, d, d)  # sigma as every channel's transfer matrix reads it

    def certify(self, ch: QuantumChannel, optimize: bool = False) -> CertificationResult:
        """Bound for one channel; ``optimize`` searches outcome coarse-grainings."""
        return next(self.certify_many([ch], optimize))

    @property
    def chunk_size(self) -> int:
        """Points per stacked pass: as many as keep its joint output,
        povm.dim x povm.dim per point, near CERTIFY_CHUNK entries; at least one."""
        return max(1, CERTIFY_CHUNK // self.povm.dim**2)

    def _chunks(self, items: Iterable, kind: str):
        """Consecutive chunks of ``items``, chunk_size points each but the
        last, each pulled in full as a list with its items' error names."""
        size = self.chunk_size
        items, start = iter(items), 0
        while chunk := list(islice(items, size)):
            yield chunk, [f"{kind} {start + i} ({item.label})" for i, item in enumerate(chunk)]
            start += len(chunk)

    def _halves(self, channels: list, names: list[str]) -> tuple[np.ndarray, list[tuple]]:
        """The channel half of the bound, formed only here: checks each
        channel's input dim against the probe's and reference x output against
        the POVM's, stacks their transfer matrices, and returns the stack with
        each channel's (channel, S[E(rho)], I_c) at this detector's marginal:
        every E(rho) from one apply_channel call, then the purified outputs,
        each stack checked as one by the density_spectra call that gives its
        entropies, S[E(rho)] and S_e."""
        d, dim = self.probe.d, self.povm.dim
        message = lambda k: (
            f"(dim_in, dim_out) = ({channels[k].dim_in}, {channels[k].dim_out}) does not fit probe dim {d}"
            f" and POVM dim {dim} = reference x output"
        )
        faults = [ch.dim_in != d or d * ch.dim_out != dim for ch in channels]
        check_rows(DimensionMismatchError, faults, (message,), names)
        outputs = apply_channel(channels, self.rho)
        output_entropies = spectral_entropies(density_spectra(outputs, names))
        transfers = np.array([ch.transfer for ch in channels])
        purified = apply_transfers(transfers, self.purification_pairs, d)
        exchange_entropies = spectral_entropies(density_spectra(purified, names))
        return transfers, [(ch, s, s - s_e) for ch, s, s_e in zip(channels, output_entropies, exchange_entropies)]

    def certify_many(self, channels: Iterable[QuantumChannel], optimize: bool = False) -> Iterator[CertificationResult]:
        """Bound for each channel, in order, every channel's input and output
        dims checked against the probe and POVM.  Each chunk's halves and
        joint outputs are formed and checked as stacks."""
        for chunk, names in self._chunks(channels, "channel"):
            transfers, halves = self._halves(chunk, names)
            points = [(name, self.probe, half, self.t) for name, half in zip(names, halves)]
            yield from self._certify_stack(transfers, self.probe_pairs, points, optimize)

    def certify_probes(
        self, probes: Iterable[BipartiteProbeState], ch: QuantumChannel, optimize: bool = False
    ) -> Iterator[CertificationResult]:
        """Bound for each probe, in order, on one channel, whose half is
        computed once, before the first probe is taken.  In each chunk every
        probe's marginal is checked to agree with this detector's entrywise
        within RECON_TOL, and their weights t (each with its sum rule), joint
        outputs and outcome distributions are formed and checked as stacks.
        Each result carries its own probe's t."""
        _, (half,) = self._halves([ch], [f"channel 0 ({ch.label})"])
        d = self.probe.d
        for chunk, names in self._chunks(probes, "probe"):
            if dims := sorted({probe.d for probe in chunk} - {d}):
                raise DimensionMismatchError(f"probe dims {dims} != detector probe dim {d}")
            weights, pairs = self._probe_stack(chunk, names)
            points = [(name, probe, half, t) for name, probe, t in zip(names, chunk, weights)]
            yield from self._certify_stack(ch.transfer, pairs, points, optimize)

    def _probe_stack(self, probes: list, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Each probe's t, with its sum rule, and its transfer input, from one
        stack of their sigmas, once each marginal is checked against this
        detector's.  The stack is freed on return, before the joint outputs
        are formed: holding it, and a stacked copy of the transfer matrix,
        through the joint pass nearly tripled a d = 16 point's page faults."""
        d = self.probe.d
        sigmas = np.array([probe.sigma for probe in probes])
        gaps = np.abs(np.einsum("kiaib->kab", sigmas.reshape(-1, d, d, d, d)) - self.rho).max(axis=(-2, -1))
        message = lambda k: f"marginal differs from the shared marginal by {gaps[k]}"
        check_rows(InvalidStateError, gaps > RECON_TOL, (message,), names)
        weights = outcome_weights(sigmas, self.povm, self.rho_t_pinv, self.rank, names)
        return weights, transfer_input(sigmas, d, d)

    def _certify_stack(self, transfers: np.ndarray, pairs: np.ndarray, points: list, optimize: bool):
        """Results of a stack of (name, probe, channel half, t) points, a
        half being (channel, S[E(rho)], I_c), whose joint outputs are one
        product of ``transfers`` and ``pairs``: the outputs checked with one
        density_spectra call, their outcome distributions with one
        probabilities call, and their bounds taken with one grouped_bound
        call, each row's grouping searched on its own, then checked against
        their oracles, qdet <= I_c, as one stack.  Of a t . p > 0 failure and
        a chain failure, the one at the earlier point is reported."""
        names = [name for name, *_ in points]
        joint = apply_transfers(transfers, pairs, self.probe.d)
        density_spectra(joint, names)
        probabilities = self.povm.probabilities(joint, names)
        weights = np.array([t for *_, t in points])
        output_entropy, oracle = np.array([half[1:] for _, _, half, _ in points]).T
        if optimize:
            groupings = [_best_grouping(p, t) for p, t in zip(probabilities, weights)]
        else:
            groupings = [tuple((i,) for i in range(probabilities.shape[1]))] * len(points)
        try:
            qdet, prob_entropy, log_tp = grouped_bound(probabilities, weights, output_entropy, groupings)
        except DegenerateMeasurementError as exc:
            if k := exc.row:  # a chain failure at an earlier point is reported first, as point by point
                bounds = grouped_bound(probabilities[:k], weights[:k], output_entropy[:k], groupings[:k])
                _check_chain(names, bounds[0], oracle[:k])
            renamed = DegenerateMeasurementError(f"{names[k]}: {exc}")  # named as the stacked checks name a row
            renamed.row = k
            raise renamed from exc
        _check_chain(names, qdet, oracle)
        rows = zip(points, qdet.tolist(), prob_entropy.tolist(), log_tp.tolist(), groupings, probabilities)
        results = []
        for (_, probe, half, t), q, h, log, grouping, p in rows:
            result = object.__new__(CertificationResult)  # the fields in one step, not one frozen setattr each
            vars(result).update(
                qdet=q,
                output_entropy=half[1],
                prob_entropy=h,
                log_tp=log,
                input_entropy=self.input_entropy,
                private_lower=q,
                ea_classical_lower=self.input_entropy + q,
                grouping=grouping,
                probabilities=p,
                weights=t,
                probe_label=probe.label,
                channel_label=half[0].label,
                povm_label=self.povm.name,
            )
            results.append(result)
        return results


def _check_chain(names: list[str], qdet: np.ndarray, oracle: np.ndarray) -> None:
    """qdet <= I_c + CHAIN_TOL at every point, else an error naming the first that fails."""
    message = lambda k: f"detected bound {qdet[k].tolist()} exceeds the coherent information {oracle[k].tolist()}"
    check_rows(InternalConsistencyError, qdet > oracle + CHAIN_TOL, (message,), names)


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
    check_dimension(d)
    check_within("depolarizing strength", p, 0, 1)
    return math.log2(d) - binary_entropy(p) - p * math.log2(d * d - 1)


def _checked(what: str, values, low, high) -> np.ndarray:
    """A value, or an array of them, each checked in order by check_within,
    as a float array."""
    for value in np.ravel(values).tolist():
        check_within(what, value, low, high)
    return np.asarray(values, dtype=float)


def _binary_entropies(x: np.ndarray) -> np.ndarray:
    """binary_entropy of each entry of an array of checked arguments in [0, 1]."""
    return probability_entropies(np.stack([x, 1.0 - x], axis=-1).reshape(-1, 2)).reshape(x.shape)


def _value(x: np.ndarray):
    """A float for a 0-d result, the array otherwise."""
    return float(x) if x.ndim == 0 else x


def depolarizing_isotropic_qdet(d: int, p, fidelity):
    """Closed form for a depolarizing channel with an isotropic probe, at
    one (p, fidelity) or at each pair of two arrays that broadcast: a float
    for scalars, an array otherwise, each entry as for its pair alone.

    The Bell statistics see an effective error weight
    p_eff = (d^2 [1 - F(1-p)] + F - p - 1) / (d^2 - 1), which reduces to p at
    perfect fidelity.
    """
    check_dimension(d)
    p = _checked("depolarizing strength", p, 0, 1)
    fidelity = _checked("fidelity", fidelity, 1.0 / d**2, 1)
    p_eff = (d * d * (1.0 - fidelity * (1.0 - p)) + fidelity - p - 1.0) / (d * d - 1.0)
    p_eff = np.minimum(np.maximum(p_eff, 0.0), 1.0)
    return _value(math.log2(d) - _binary_entropies(p_eff) - p_eff * math.log2(d * d - 1))


def erasure_qdet_closed_form(d: int, p, fidelity):
    """Closed form for an erasure channel with an isotropic probe and the
    flag-adapted measurement, at one (p, fidelity) or at each pair of two
    arrays that broadcast, as :func:`depolarizing_isotropic_qdet`; equals
    the exact capacity expression at F = 1."""
    check_dimension(d)
    p = _checked("erasure probability", p, 0, 1)
    fidelity = _checked("fidelity", fidelity, 1.0 / d**2, 1)
    penalty = _binary_entropies(fidelity) + (1.0 - fidelity) * math.log2(d * d - 1)
    return _value((1.0 - 2.0 * p) * math.log2(d) - (1.0 - p) * penalty)


def erasure_exact_capacity(d: int, p):
    """(1 - 2p) log2 d for p <= 1/2, zero beyond; at one p, as a float, or
    at each entry of an array."""
    check_dimension(d)
    p = _checked("erasure probability", p, 0, 1)
    return _value(np.maximum(0.0, (1.0 - 2.0 * p)) * math.log2(d))


class _Family(NamedTuple):
    """What is known of a channel family."""

    povm: str  # the POVM type its closed form holds for, with an isotropic probe
    closed_form: Callable  # qdet(d, p, F), at one (p, F) or at arrays of them
    capacity: Callable | None  # exact Q(d, p), at one p or an array of them, where known
    threshold: float  # published fidelity threshold


# Each channel family, by its channel config type.  The depolarizing root of
# the closed form lands near 0.811 instead of the quoted 0.818 (see README),
# so the CLI reports both.
FAMILIES = {
    "depolarizing": _Family("bell", depolarizing_isotropic_qdet, None, 0.818),
    "erasure": _Family("erasure_adapted", erasure_qdet_closed_form, erasure_exact_capacity, 0.811),
}


def threshold_fidelity(channel_family: str, d: int) -> float:
    """Largest probe fidelity at which no noise level yields a positive
    detected bound, located by bisection on the closed forms.

    The maximum over the noise p in [0, 1] is taken at p = 0 or p = 1, because
    every closed form in FAMILIES is convex in p.  The erasure form is affine
    in p.  The depolarizing form is log2 d - h(x) - x log2(d^2 - 1) with -h
    convex and x = p_eff affine in p; for F >= 1/d^2, x stays in [0, 1] over
    the whole range, so its clip only guards rounding.
    """
    if channel_family not in FAMILIES:
        raise ValueError(f"unsupported channel family {channel_family!r}")
    check_dimension(d)
    closed = FAMILIES[channel_family].closed_form
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

