"""POVMs stored as factors against the dense construction they replaced.

``bell_povm`` and ``erasure_povm`` store rank-one kets, and a dense custom POVM
is stored as the factors of the eigendecomposition its positivity check runs.
The dense Bell and erasure constructions are kept here verbatim as the
reference, and the dense route reads p and t from one (n, D^2) matrix of the
elements as given.
"""

import time
import tracemalloc

import numpy as np
import pytest

from qcapdet import (
    Detector,
    Povm,
    apply_extended_channel,
    bell_povm,
    certify,
    custom_probe,
    depolarizing_channel,
    erasure_channel,
    erasure_povm,
    isotropic_probe,
    reduced_system_state,
    t_vector,
    weyl_unitary,
)
from qcapdet.errors import DimensionMismatchError, InvalidStateError
from qcapdet.linalg import double_ket, pseudo_inverse
from randinst import decompositions, random_channel, random_povm_elements, random_terms


def _bell_projectors(d: int) -> np.ndarray:
    """The d^2 generalized Bell projectors stacked in (m, n) order."""
    vecs = np.array([double_ket(weyl_unitary(d, m, n)) for m in range(d) for n in range(d)])
    vecs /= np.sqrt(d)
    return vecs[:, :, None] * vecs[:, None, :].conj()


def dense_erasure_elements(d: int):
    """Flag-adapted basis on reference x (system + flag): d^2 embedded Bell
    projectors followed by the d flag projectors |i><i| x |e><e|."""
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
    return tuple(elements), tuple(labels)


def dense_route(elements, probe, terms, ch):
    """p and t from the flattened dense elements, one matrix-vector product
    each, with t's left factor summed over the decomposition ``terms`` of sigma."""
    matrix = np.array(elements).reshape(len(elements), -1)
    joint = apply_extended_channel(ch, probe.sigma, probe.d)
    rho = reduced_system_state(probe)
    left = sum(a * (op @ pseudo_inverse(rho.T) @ op.conj().T) for a, op in zip(*terms))
    p = (matrix @ joint.T.reshape(-1)).real
    t = (matrix @ np.kron(left.T, np.eye(ch.dim_out)).reshape(-1)).real
    return p, t


@pytest.mark.parametrize("d", range(2, 9))
def test_elements_match_the_dense_construction(d):
    assert np.array_equal(np.array(bell_povm(d).elements), _bell_projectors(d))
    elements, labels = dense_erasure_elements(d)
    povm = erasure_povm(d)
    assert povm.labels == labels
    assert np.max(np.abs(np.array(povm.elements) - np.array(elements))) < 1e-12
    dense = Povm(d * (d + 1), elements, labels)
    assert np.max(np.abs(np.array(dense.elements) - np.array(elements))) < 1e-12


def random_cases(seed, count):
    """(probe, its terms, channel, factored POVM, dense elements), over four kinds."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        d = int(rng.integers(2, 4))
        kind = trial % 4
        if kind == 0:
            ch = random_channel(rng, d, d_out=d + 1)
            elements = random_povm_elements(rng, d * (d + 1))
            povm = Povm(d * (d + 1), elements)
        elif kind == 1:
            ch, povm = erasure_channel(d, float(rng.uniform(0.0, 0.5))), erasure_povm(d)
            elements, _ = dense_erasure_elements(d)
        elif kind == 2:
            ch, povm, elements = random_channel(rng, d), bell_povm(d), _bell_projectors(d)
        else:
            ch, elements = random_channel(rng, d), random_povm_elements(rng, d * d)
            povm = Povm(d * d, elements)
        rank = int(rng.integers(1, d)) if trial % 3 == 0 else None
        terms = random_terms(rng, d, n_terms=int(rng.integers(2, 5)), rank=rank)
        yield custom_probe(*terms), terms, ch, povm, elements


@pytest.mark.parametrize("seed", range(4))
def test_p_and_t_match_the_dense_route(seed):
    rng = np.random.default_rng(300 + seed)
    for probe, terms, ch, povm, elements in random_cases(200 + seed, 16):
        joint = apply_extended_channel(ch, probe.sigma, probe.d)
        factored = povm.probabilities(joint), Detector(probe, povm).t, t_vector(probe, povm)
        for decomposition in decompositions(rng, terms, probe.sigma):
            p, t = dense_route(elements, probe, decomposition, ch)
            assert np.max(np.abs(factored[0] - p)) < 1e-12
            assert np.max(np.abs(factored[1] - t)) < 1e-12
            assert np.max(np.abs(factored[2] - t)) < 1e-12
        assert np.max(np.abs(np.array(povm.elements) - np.array(elements))) < 1e-12


def test_dense_element_keeps_its_rank_and_a_zero_element_its_outcome():
    rng = np.random.default_rng(9)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    low = u[:, :2] @ u[:, :2].conj().T  # rank 2
    dust = -1e-18 * np.eye(4)  # negative within PSD_TOL: no outcome weight, no factor column
    povm = Povm(4, (low, dust, np.eye(4) - low - dust))
    assert len(povm) == 3 and povm.factors.shape == (4, 4)
    assert list(np.bincount(povm.owner, minlength=3)) == [2, 0, 2]
    p = povm.probabilities(np.eye(4) / 4)
    assert p[1] == 0.0 and abs(p[0] - 0.5) < 1e-12


class TestKetChecks:
    def test_kets_must_sum_to_the_identity(self):
        kets = bell_povm(2).factors.T
        with pytest.raises(InvalidStateError):
            Povm.from_kets(4, kets[:3])
        with pytest.raises(InvalidStateError):
            Povm.from_kets(4, np.sqrt(1.1) * kets)
        assert len(Povm.from_kets(4, kets)) == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_ket(self, bad):
        kets = np.eye(2, dtype=complex)
        kets[1, 0] = bad
        with pytest.raises(InvalidStateError):
            Povm.from_kets(2, kets)

    def test_shapes_and_labels(self):
        with pytest.raises(DimensionMismatchError):
            Povm.from_kets(3, np.eye(2))
        with pytest.raises(DimensionMismatchError):
            Povm.from_kets(2, np.ones(2))
        with pytest.raises(DimensionMismatchError):
            Povm.from_kets(2, np.eye(2), labels=("only",))


def test_d16_bell_certify_stays_small():
    # The dense (n, D^2) stack alone was 268 MB at d = 16; the factors are 1 MiB.
    tracemalloc.start()
    try:
        certify(isotropic_probe(16, 0.97), depolarizing_channel(16, 0.1), bell_povm(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_d16_bell_povm_builds_fast():
    fastest = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        bell_povm(16)
        fastest = min(fastest, time.perf_counter() - start)
    assert fastest < 0.2
