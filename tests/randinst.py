"""Random instance generators shared by the property suites."""

import numpy as np

from qcapdet import Povm, QuantumChannel, custom_probe
from qcapdet.channels import weyl_unitaries
from qcapdet.linalg import matrix_sqrt, pseudo_inverse


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, r = np.linalg.qr(g)
    return u * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d, rank=None):
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_channel(rng, d_in, d_out=None, n_kraus=None, label="random"):
    """Kraus set sliced from a Haar-ish random isometry; TP by construction."""
    d_out = d_out or d_in
    n_kraus = n_kraus or int(rng.integers(1, 5))
    g = rng.normal(size=(d_out * n_kraus, d_in)) + 1j * rng.normal(size=(d_out * n_kraus, d_in))
    iso, _ = np.linalg.qr(g)
    ops = tuple(iso[k * d_out : (k + 1) * d_out, :] for k in range(n_kraus))
    return QuantumChannel(d_in, d_out, ops, label=label)


def random_povm_elements(rng, dim, n_elements=None):
    """Random positive operators squeezed to completeness by S^-1/2 G S^-1/2."""
    n_elements = n_elements or int(rng.integers(2, 7))
    gs = []
    for _ in range(n_elements):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gs.append(x @ x.conj().T)
    shrink = pseudo_inverse(matrix_sqrt(sum(gs)))
    return tuple(shrink @ g @ shrink for g in gs)


def random_povm(rng, dim, n_elements=None):
    """Povm of :func:`random_povm_elements`."""
    return Povm(dim, random_povm_elements(rng, dim, n_elements))


def random_terms(rng, d, n_terms=None, rank=None):
    """Random decomposition terms (a_l, A_l) with sum_l a_l Tr[A_l^dagger A_l] = 1;
    `rank` forces a rank-deficient reduced state by right-multiplying every
    term with a fixed projector."""
    n_terms = n_terms or int(rng.integers(1, 5))
    w = rng.random(n_terms) + 0.1
    ops = rng.normal(size=(n_terms, d, d)) + 1j * rng.normal(size=(n_terms, d, d))
    if rank is not None and rank < d:
        proj = np.zeros((d, d))
        proj[:rank, :rank] = np.eye(rank)
        ops = ops @ proj
    norm = sum(a * np.trace(op.conj().T @ op).real for a, op in zip(w, ops))
    return w / norm, ops


def random_probe(rng, d, n_terms=None, rank=None):
    """Probe assembled from :func:`random_terms`."""
    return custom_probe(*random_terms(rng, d, n_terms, rank))


def isotropic_terms(d, fidelity):
    """The Bell-diagonal terms (q, U_mn / sqrt(d)) isotropic_probe(d, fidelity) is assembled from."""
    q = np.full(d * d, (1.0 - fidelity) / (d * d - 1))
    q[0] = fidelity
    return q, weyl_unitaries(d) / np.sqrt(d)


def decompositions(rng, terms, sigma):
    """Three decompositions (a_l, A_l) of the same sigma = sum_l a_l |A_l>><<A_l|:
    the given terms; those terms rotated, sqrt(a_k) A_k -> sum_l u_kl sqrt(a_l) A_l
    for a random L x L unitary u, with unit weights; and sigma's own
    eigendecomposition, eigenvector j folded into a d x d operator."""
    weights, ops = terms
    rotated = np.einsum("kl,lij->kij", random_unitary(rng, len(weights)), np.sqrt(weights)[:, None, None] * ops)
    evals, evecs = np.linalg.eigh(sigma)
    d = ops.shape[1]
    return [(weights, ops), (np.ones(len(rotated)), rotated), (evals, evecs.T.reshape(-1, d, d))]
