"""Every stacked check reports its first failing row the same way.

Each case fails one check site at row 2 of a 3-row stack (channel or probe 2
of 3 for the detector's checks), with rows 0 and 1 passing.  The error keeps
the site's type and message, prefixed by the row's name where the site is
given names, and carries the row's index as ``row``.  At the two sites that
run several checks, a row failing two of them reports the first.
"""

import importlib

import numpy as np
import pytest

from qcapdet import BipartiteProbeState, Detector, Povm, bell_povm, depolarizing_channel, erasure_channel
from qcapdet.errors import (
    DegenerateMeasurementError,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidStateError,
)
from qcapdet.linalg import density_spectra, probability_vectors
from qcapdet.measurement import outcome_weights

certify_module = importlib.import_module("qcapdet.certify")

NAMES = ["a", "b", "c"]
HALF = np.eye(2) / 2
BELL = np.zeros((4, 4))  # |Phi+><Phi+| with exact entries, so every number below is exact
BELL[np.ix_([0, 3], [0, 3])] = 0.5


def density_stack(last):
    return np.array([HALF, HALF, last], dtype=complex)


def bell_detector():
    return Detector(BipartiteProbeState(BELL), bell_povm(2))


def probes_with_a_product_last():
    product = BipartiteProbeState(np.diag([1.0, 0.0, 0.0, 0.0]), "product")  # marginal diag(1, 0), not I/2
    return [BipartiteProbeState(BELL), BipartiteProbeState(BELL), product]


def bell_weights_with_a_doubled_last():
    """The computational-basis t of BELL, BELL and 2 BELL, with the marginal's
    pinv(rho^T) = 2 I and rank 2, so the sum rule expects 2 x 2."""
    return outcome_weights(np.array([BELL, BELL, 2 * BELL]), Povm.from_kets(4, np.eye(4)), 2 * np.eye(2), 2, NAMES)


def channels_with_an_erasure_last():
    return [depolarizing_channel(2, 0.1), depolarizing_channel(2, 0.2), erasure_channel(2, 0.1)]


def channels_with_a_corrupted_last():
    """Three depolarizing channels, the last with its transfer matrix
    swapped after construction for that of its Kraus operators scaled by
    1.1, so that only the check of the chunk's stacked E(rho) sees it."""
    channels = [depolarizing_channel(2, p) for p in (0.1, 0.2, 0.3)]
    object.__setattr__(channels[2], "transfer", 1.1**2 * channels[2].transfer)  # bypass construction
    return channels


def totals_with_a_degenerate_last():
    """log2(t . p) of three rows, the last with t . p = 0."""
    p = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
    t = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    return certify_module._log_totals(p, t)


CASES = {
    "density_spectra-hermitian": (
        lambda: density_spectra(density_stack([[0.5, 0.1], [0.0, 0.5]]), NAMES),
        InvalidStateError,
        "c: density matrix is not Hermitian within tolerance",
    ),
    "density_spectra-trace-before-psd": (
        lambda: density_spectra(density_stack(np.diag([2.0, -0.5])), NAMES),
        InvalidStateError,
        "c: density matrix trace (1.5+0j) differs from 1",
    ),
    "density_spectra-psd": (
        lambda: density_spectra(density_stack(np.diag([1.5, -0.5])), NAMES),
        InvalidStateError,
        "c: density matrix has negative eigenvalue -0.5",
    ),
    "probability_vectors-range-before-sum": (
        lambda: probability_vectors(np.array([[0.5, 0.5], [1.0, 0.0], [1.25, 0.5]]), NAMES),
        InvalidStateError,
        "c: probability entries outside [0,1]: min=0.5, max=1.25",
    ),
    "probability_vectors-sum": (
        lambda: probability_vectors(np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.5]]), NAMES),
        InvalidStateError,
        "c: probabilities sum to 0.75, not 1",
    ),
    "outcome_weights": (
        bell_weights_with_a_doubled_last,
        InternalConsistencyError,
        "c: t-vector sum 8.0 violates the sum rule (expected 4)",
    ),
    "statistics": (
        lambda: certify_module._statistics(np.full((3, 2), 0.5), [1.0, 1.0], [1.0, 1.0, np.nan]),
        InvalidStateError,
        "output entropy nan is not finite",
    ),
    "log_totals": (
        totals_with_a_degenerate_last,
        DegenerateMeasurementError,
        "t . p = 0.0 is not positive",
    ),
    "check_chain": (
        lambda: certify_module._check_chain(NAMES, np.array([0.5, 0.5, 1.5]), np.ones(3)),
        InternalConsistencyError,
        "c: detected bound 1.5 exceeds the coherent information 1.0",
    ),
    "probe_stack": (
        lambda: list(bell_detector().certify_probes(probes_with_a_product_last(), depolarizing_channel(2, 0.1))),
        InvalidStateError,
        "probe 2 (product): marginal differs from the shared marginal by 0.5",
    ),
    "halves": (
        lambda: list(bell_detector().certify_many(channels_with_a_corrupted_last())),
        InvalidStateError,
        "channel 2 (depolarizing(d=2, p=0.3)): density matrix trace (1.2100000000000002+0j) differs from 1",
    ),
    "check_dims": (
        lambda: list(bell_detector().certify_many(channels_with_an_erasure_last())),
        DimensionMismatchError,
        "channel 2 (erasure(d=2, p=0.1)): (dim_in, dim_out) = (2, 3) does not fit probe dim 2"
        " and POVM dim 4 = reference x output",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_first_failing_row_is_named_with_its_index(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
    assert raised.value.row == 2


def test_degenerate_row_renamed_by_the_detector_keeps_its_index(monkeypatch):
    # probe 2's weights are zeroed after their sum rule passed, so only the
    # stacked t . p > 0 check sees it, and the detector renames its error
    real = Detector._probe_stack

    def zeroing(self, probes, names):
        weights, pairs = real(self, probes, names)
        return np.where([[k == 2] for k in range(len(names))], 0.0, weights), pairs

    monkeypatch.setattr(Detector, "_probe_stack", zeroing)
    probes = [BipartiteProbeState(BELL, label) for label in NAMES]
    with pytest.raises(DegenerateMeasurementError) as raised:
        list(bell_detector().certify_probes(probes, depolarizing_channel(2, 0.1)))
    assert type(raised.value) is DegenerateMeasurementError
    assert str(raised.value) == "probe 2 (c): t . p = 0.0 is not positive"
    assert raised.value.row == 2
