"""The detected bound does not depend on the frames it is written in.

qdet = S[E(rho)] - H(p) - log2(t . p) is unchanged when

- the channel output is rotated by a unitary V and the POVM by I x V;
- the reference is rotated by a unitary U, in the probe's operators
  A -> U A and in the POVM, by U x I;
- the input is rotated by a unitary W that the channel undoes,
  E -> E o Ad(W^dagger), with the probe's operators taken to A W^T, so
  that sigma -> (I x W) sigma (I x W)^dagger;
- the POVM's outcomes are permuted.

Each instance is certified through Detector.certify_many on several
channels, so the stacked route is the one compared.
"""

import numpy as np
import pytest

from qcapdet import Detector, Povm, QuantumChannel, custom_probe

from randinst import random_channel, random_povm_elements, random_terms, random_unitary

TOL = 1e-12
INSTANCES = range(48)


def instance(seed: int):
    """A random probe's terms, three channels sharing (d, d_out) and a
    5-element POVM on reference x output: d = 2, 3 and d_out = 2..4."""
    rng = np.random.default_rng(7000 + seed)
    d, d_out = 2 + seed % 2, 2 + (seed // 2) % 3
    channels = [random_channel(rng, d, d_out, n_kraus=2) for _ in range(3)]  # d_out * n_kraus >= d
    return rng, d, d_out, random_terms(rng, d), channels, random_povm_elements(rng, d * d_out, 5)


def bounds(terms, channels, elements) -> np.ndarray:
    probe = custom_probe(*terms)
    povm = Povm(len(elements[0]), elements)
    return np.array([result.qdet for result in Detector(probe, povm).certify_many(channels)])


def kraus_map(channels, f) -> list[QuantumChannel]:
    """Each channel with every Kraus operator K replaced by f(K)."""
    return [QuantumChannel(ch.dim_in, ch.dim_out, [f(k) for k in ch.kraus], ch.label) for ch in channels]


def rotated(elements, u) -> list[np.ndarray]:
    return [u @ e @ u.conj().T for e in elements]


@pytest.mark.parametrize("seed", INSTANCES)
def test_output_unitary(seed):
    rng, d, d_out, terms, channels, elements = instance(seed)
    v = random_unitary(rng, d_out)
    moved = bounds(terms, kraus_map(channels, lambda k: v @ k), rotated(elements, np.kron(np.eye(d), v)))
    np.testing.assert_allclose(moved, bounds(terms, channels, elements), rtol=0.0, atol=TOL)


@pytest.mark.parametrize("seed", INSTANCES)
def test_reference_unitary(seed):
    rng, d, d_out, (weights, ops), channels, elements = instance(seed)
    u = random_unitary(rng, d)
    moved = bounds((weights, u @ ops), channels, rotated(elements, np.kron(u, np.eye(d_out))))
    np.testing.assert_allclose(moved, bounds((weights, ops), channels, elements), rtol=0.0, atol=TOL)


@pytest.mark.parametrize("seed", INSTANCES)
def test_input_unitary_undone_by_the_channel(seed):
    rng, d, d_out, (weights, ops), channels, elements = instance(seed)
    w = random_unitary(rng, d)
    moved = bounds((weights, ops @ w.T), kraus_map(channels, lambda k: k @ w.conj().T), elements)
    np.testing.assert_allclose(moved, bounds((weights, ops), channels, elements), rtol=0.0, atol=TOL)


@pytest.mark.parametrize("seed", INSTANCES)
def test_outcome_permutation(seed):
    rng, d, d_out, terms, channels, elements = instance(seed)
    permuted = [elements[i] for i in rng.permutation(len(elements))]
    np.testing.assert_allclose(bounds(terms, channels, permuted), bounds(terms, channels, elements), rtol=0.0, atol=TOL)


def test_a_conjugation_slip_is_caught():
    # V^T in place of V on the POVM side moves qdet: the comparison above has teeth
    rng, d, d_out, terms, channels, elements = instance(1)
    v = random_unitary(rng, d_out)
    slipped = bounds(terms, kraus_map(channels, lambda k: v @ k), rotated(elements, np.kron(np.eye(d), v.T)))
    assert np.abs(slipped - bounds(terms, channels, elements)).max() > 1e-6
