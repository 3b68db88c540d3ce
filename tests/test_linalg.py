import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcapdet.errors import DimensionMismatchError, InvalidStateError
from qcapdet.linalg import (
    as_complex_matrix,
    binary_entropy,
    density_spectra,
    double_ket,
    hermitian_eigen,
    matrix_sqrt,
    partial_trace_reference,
    partial_trace_system,
    probability_vector,
    pseudo_inverse,
    psd_rank,
    shannon_entropy,
    validate_density_matrix,
    von_neumann_entropy,
)
from randinst import random_density, random_unitary


def double_ket_inner(a, b) -> complex:
    """Inner product of two double-kets; equals Tr[A^dagger B]."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a.reshape(-1), b.reshape(-1)))


def brute_force_partial_trace(m, d_ref, d_sys, over):
    """Index-contraction oracle, independent of the einsum implementation."""
    m = np.asarray(m, dtype=complex)
    if over == "reference":
        out = np.zeros((d_sys, d_sys), dtype=complex)
        for a in range(d_sys):
            for b in range(d_sys):
                for i in range(d_ref):
                    out[a, b] += m[i * d_sys + a, i * d_sys + b]
    else:
        out = np.zeros((d_ref, d_ref), dtype=complex)
        for i in range(d_ref):
            for j in range(d_ref):
                for a in range(d_sys):
                    out[i, j] += m[i * d_sys + a, j * d_sys + a]
    return out


class TestEntropies:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_projector(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        assert von_neumann_entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_biased_qubit(self):
        # high-precision scalar evaluation of -0.9 log2 0.9 - 0.1 log2 0.1
        assert von_neumann_entropy(np.diag([0.9, 0.1])) == pytest.approx(
            0.46899559358928122, abs=1e-12
        )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density(rng, d)
            u = random_unitary(rng, d)
            assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-10
            )

    def test_entropy_range(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            s = von_neumann_entropy(random_density(rng, d))
            assert -1e-12 <= s <= np.log2(d) + 1e-12

    def test_invalid_states_rejected(self):
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(np.array([[1.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(np.diag([1.5, -0.5]))
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(np.diag([0.7, 0.7]))

    def test_shannon_deterministic(self):
        assert shannon_entropy([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_shannon_uniform(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_shannon_binary(self):
        assert shannon_entropy([0.75, 0.25]) == pytest.approx(0.81127812445913286, abs=1e-12)

    def test_binary_entropy_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.1892) == pytest.approx(0.69979491890667418, abs=1e-12)

    def test_binary_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestProbabilityVector:
    def test_clamps_float_dust(self):
        p = probability_vector([1.0 + 5e-10, -5e-10])
        assert p[0] == 1.0 and p[1] == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidStateError):
            probability_vector([0.6, 0.6])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidStateError):
            probability_vector([1.2, -0.2])


class TestDoubleKet:
    def test_identity_unfolding(self):
        assert_allclose(double_ket(np.eye(2)), [1, 0, 0, 1])

    def test_single_entry(self):
        op = np.zeros((2, 2))
        op[0, 1] = 1.0
        assert_allclose(double_ket(op), [0, 1, 0, 0])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            double_ket(np.zeros((2, 3)))

    def test_inner_product_normalized(self):
        a = np.eye(2) / np.sqrt(2)
        assert double_ket_inner(a, a) == pytest.approx(1.0, abs=1e-15)

    def test_inner_product_orthogonal_weyl(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert double_ket_inner(np.eye(2), x) == pytest.approx(0.0, abs=1e-15)

    def test_inner_product_matches_trace(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            direct = sum(a[i, j].conjugate() * b[i, j] for i in range(d) for j in range(d))
            assert double_ket_inner(a, b) == pytest.approx(direct, abs=1e-10)

    def test_product_action_identity(self):
        # A (x) B |C>> = |A C B^T>>
        rng = np.random.default_rng(15)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            a, b, c = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3))
            lhs = np.kron(a, b) @ double_ket(c)
            rhs = double_ket(a @ c @ b.T)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(16)
        rho = random_density(rng, 3)
        joint = np.kron(np.eye(2) / 2, rho)
        assert_allclose(partial_trace_reference(joint, 2, 3), rho, atol=1e-12)
        assert_allclose(partial_trace_system(joint, 2, 3), np.eye(2) / 2, atol=1e-12)

    def test_bell_marginal(self):
        d = 3
        v = double_ket(np.eye(d)) / np.sqrt(d)
        bell = np.outer(v, v.conj())
        assert_allclose(partial_trace_reference(bell, d, d), np.eye(d) / d, atol=1e-12)

    def test_double_ket_marginal_formula(self):
        # Tr_R |A>><<A| = (A^dag A)^T
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            v = double_ket(a)
            proj = np.outer(v, v.conj())
            assert np.max(np.abs(partial_trace_reference(proj, d, d) - (a.conj().T @ a).T)) < 1e-10

    def test_matches_brute_force(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            d_ref, d_sys = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            n = d_ref * d_sys
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert_allclose(
                partial_trace_reference(m, d_ref, d_sys),
                brute_force_partial_trace(m, d_ref, d_sys, "reference"),
                atol=1e-12,
            )
            assert_allclose(
                partial_trace_system(m, d_ref, d_sys),
                brute_force_partial_trace(m, d_ref, d_sys, "system"),
                atol=1e-12,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_reference(np.eye(5), 2, 2)


class TestSpectral:
    def test_diagonal(self):
        dec = hermitian_eigen(np.diag([1.0, 3.0]))
        assert_allclose(dec.eigenvalues, [3.0, 1.0])

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        dec = hermitian_eigen(x)
        assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)
        plus = dec.eigenvectors[:, 0]
        assert abs(abs(plus[0]) - 1 / np.sqrt(2)) < 1e-12

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = g + g.conj().T
            vals, vecs = hermitian_eigen(h)
            assert np.all(np.diff(vals) <= 1e-12)
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) < 1e-10
            assert np.max(np.abs((vecs * vals) @ vecs.conj().T - h)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixSqrt:
    def test_identity(self):
        assert_allclose(matrix_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        assert_allclose(matrix_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-12)

    def test_square_reconstructs(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = random_density(rng, d) * rng.uniform(0.5, 3.0)
            root = matrix_sqrt(m)
            assert np.max(np.abs(root @ root - m)) < 1e-10

    def test_rejects_negative(self):
        with pytest.raises(InvalidStateError):
            matrix_sqrt(np.diag([1.0, -1e-6]))


class TestPseudoInverse:
    def test_identity(self):
        assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-12)

    def test_rank_deficient_diagonal(self):
        assert_allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12)

    def test_penrose_identities(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(3, 7))
            r = int(rng.integers(1, d))
            m = random_density(rng, d, rank=r)
            plus = pseudo_inverse(m)
            assert np.max(np.abs(m @ plus @ m - m)) < 1e-9
            assert np.max(np.abs(plus @ m @ plus - plus)) < 1e-9
            assert np.max(np.abs((m @ plus).conj().T - m @ plus)) < 1e-9
            assert np.max(np.abs((plus @ m).conj().T - plus @ m)) < 1e-9
            assert psd_rank(m) == r


def test_density_validation_accepts_valid():
    rng = np.random.default_rng(22)
    for _ in range(10):
        validate_density_matrix(random_density(rng, int(rng.integers(2, 6))))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: as_complex_matrix(np.zeros(3)), DimensionMismatchError, "expected a matrix, got ndim=1"),
        (
            lambda: density_spectra(np.zeros((2, 3), dtype=complex)),
            DimensionMismatchError,
            "density matrix must be square, got (2, 3)",
        ),
        (lambda: partial_trace_system(np.eye(5), 2, 2), DimensionMismatchError, "matrix shape (5, 5) does not factor as 2x2"),
        (lambda: pseudo_inverse(np.diag([1.0, -1e-6])), InvalidStateError, "pseudo_inverse: negative eigenvalue -1e-06"),
    ],
    ids=["as_complex_matrix ndim", "density_spectra not square", "partial_trace_system shape", "pseudo_inverse negative"],
)
def test_shape_and_sign_checks_keep_their_messages(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
