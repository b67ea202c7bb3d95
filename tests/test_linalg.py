import numpy as np
import pytest

from sbqs.errors import CapacityError, MatrixDomainError, NonHermitianError
from sbqs.linalg import (
    RegisterLayout,
    check_density_matrix,
    embed_operator,
    frobenius_norm,
    hermitian_eig,
    kron,
    operator_norm,
    qubit_layout,
    sqrt_psd,
)

from oracles import random_hermitian

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
ZERO = np.diag([1.0, 0.0]).astype(complex)


class TestLayout:
    def test_basics(self):
        layout = RegisterLayout((("c", 2), ("S", 4)))
        assert layout.dim == 8
        assert layout.labels == ("c", "S")
        assert layout.index("S") == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RegisterLayout((("a", 2), ("a", 2)))

    def test_unknown_label(self):
        with pytest.raises(KeyError, match="unknown"):
            qubit_layout(2).index("q7")


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_x_on_first_qubit(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1
        assert np.array_equal(kron(X, I2), expected)

    def test_rank_one_projector(self):
        # oracle: explicit outer product of |0> ⊗ |+>
        v = np.kron(np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2))
        expected = np.outer(v, v.conj())
        got = kron(ZERO, PLUS)
        assert np.allclose(got, expected, atol=1e-15)
        assert np.linalg.matrix_rank(got) == 1

    def test_capacity(self):
        with pytest.raises(CapacityError):
            kron(np.eye(64), np.eye(128), cap=4096)

    def test_associativity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
            assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


class TestEmbed:
    def test_matches_kron_on_contiguous_support(self):
        layout = qubit_layout(3)
        assert np.allclose(embed_operator(X, layout, ["q0"]), np.kron(X, np.eye(4)))
        assert np.allclose(embed_operator(X, layout, ["q2"]), np.kron(np.eye(4), X))

    def test_permuted_two_site_support(self):
        rng = np.random.default_rng(5)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        layout = qubit_layout(2)
        straight = embed_operator(op, layout, ["q0", "q1"])
        swapped = embed_operator(op, layout, ["q1", "q0"])
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1
        assert np.allclose(straight, op)
        assert np.allclose(swapped, swap @ op @ swap, atol=1e-12)


class TestHermitianEig:
    def test_pauli_spectra(self):
        vals_z, _ = hermitian_eig(Z)
        assert np.allclose(vals_z, [-1, 1])
        vals_x, vecs_x = hermitian_eig(X)
        assert np.allclose(vals_x, [-1, 1])
        minus = np.array([1, -1]) / np.sqrt(2)
        assert abs(abs(minus @ vecs_x[:, 0]) - 1) < 1e-12

    def test_ising_two_site_spectrum(self):
        h = -np.kron(X, X)
        vals, _ = hermitian_eig(h)
        assert np.allclose(vals, [-1, -1, 1, 1], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            h = random_hermitian(rng, 6, scale=3.0)
            vals, vecs = hermitian_eig(h)
            assert np.all(np.diff(vals) >= 0)
            recon = (vecs * vals) @ vecs.conj().T
            assert np.linalg.norm(recon - h) <= 1e-9 * np.linalg.norm(h)
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(6))) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestHermitianFunc:
    """Functions of a Hermitian matrix through its spectrum: the PSD square root."""

    def test_domain_error(self):
        with pytest.raises(MatrixDomainError):
            sqrt_psd(np.diag([-1.0, 1.0]))

    def test_sqrt_scalar_case(self):
        assert np.allclose(sqrt_psd(np.eye(2) / 2), np.eye(2) / np.sqrt(2))

    def test_sqrt_clamps_tiny_negatives(self):
        out = sqrt_psd(np.diag([-5e-11, 4.0]))
        assert np.allclose(out, np.diag([0.0, 2.0]))


class TestNorms:
    def test_pauli_values(self):
        assert operator_norm(Z) == pytest.approx(1.0)
        assert frobenius_norm(Z) == pytest.approx(np.sqrt(2))

    def test_frobenius_equals_eigenvalue_sum(self):
        h = -np.kron(X, X) - np.kron(Z, I2) - np.kron(I2, Z)
        vals, _ = hermitian_eig(h)
        assert frobenius_norm(h) == pytest.approx(np.sqrt(np.sum(vals**2)), abs=1e-10)


def test_check_density_matrix():
    check_density_matrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))  # trace 2 vs recorded 1
