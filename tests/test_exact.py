import numpy as np
import pytest

from sbqs.errors import ExtinctionError
from sbqs.exact import (
    bures_distance,
    energy,
    exact_ite,
    fidelity,
    ground,
    ground_basis,
)
from sbqs.hamiltonian import IsingParams, build_ising, densify

from oracles import exact_ite as oracle_exact_ite
from oracles import random_density, random_hermitian, random_pure_density, random_unit_vector

Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


def ket(*amplitudes: float) -> np.ndarray:
    v = np.array(amplitudes, dtype=complex)
    return v / np.linalg.norm(v)


class TestExactIte:
    def test_beta_zero_returns_input(self):
        rng = np.random.default_rng(0)
        psi = random_unit_vector(rng, 4)
        assert np.array_equal(exact_ite(ground(random_hermitian(rng, 4)), psi, 0.0), psi)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.5])
    def test_single_qubit_closed_form(self, beta):
        # fidelity of the evolved |+> with |1> is 1/(1 + exp(-4 beta))
        state = exact_ite(ground(Z), ket(1, 1), beta)
        assert fidelity(KET1, state) == pytest.approx(1 / (1 + np.exp(-4 * beta)), abs=1e-12)

    def test_asymptotic_ground_state(self):
        state = exact_ite(ground(Z), ket(1, 1), 20.0)
        assert np.max(np.abs(state - ket(0, 1))) <= 1e-10

    def test_semigroup(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            spectral = ground(random_hermitian(rng, 4))
            psi = random_unit_vector(rng, 4)
            once = exact_ite(spectral, psi, 0.9)
            twice = exact_ite(spectral, exact_ite(spectral, psi, 0.4), 0.5)
            assert np.max(np.abs(once - twice)) <= 1e-9

    def test_energy_monotone_along_trajectory(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            h = random_hermitian(rng, 4)
            spectral = ground(h)
            psi = random_unit_vector(rng, 4)
            energies = [float(np.vdot(phi, h @ phi).real)
                        for phi in (exact_ite(spectral, psi, b) for b in np.linspace(0, 4, 20))]
            assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(energies, energies[1:]))

    def test_extinction(self):
        with pytest.raises(ExtinctionError):
            exact_ite(ground(Z), ket(1, 0), 400.0)  # support only on the excited state

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            exact_ite(ground(Z), ket(1, 1), -1.0)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="norm"):
            exact_ite(ground(Z), np.array([1.0, 1.0]), 1.0)


class TestExactIteMatchesDenseOracle:
    """The state-vector reference against the dense e^{-bH} rho e^{-bH} / Tr."""

    @staticmethod
    def assert_matches(h, psi, beta):
        phi = exact_ite(ground(h), psi, beta)
        dense = oracle_exact_ite(h, np.outer(psi, psi.conj()), beta)
        assert np.max(np.abs(np.outer(phi, phi.conj()) - dense)) <= 1e-12

    def test_random_hamiltonians(self):
        rng = np.random.default_rng(12)
        for dim in (2, 4, 8, 16):
            for _ in range(5):
                h = random_hermitian(rng, dim, scale=2.0)
                psi = random_unit_vector(rng, dim)
                for beta in (0.0, 0.3, 1.0, 5.0):  # beta = 0 returns the input in both
                    self.assert_matches(h, psi, beta)

    def test_degenerate_ground_space(self):
        h = densify(build_ising(IsingParams(3, 1.0, 0.0, "periodic")))
        assert ground(h).degenerate
        psi = np.full(8, 8 ** -0.5, dtype=complex)
        for beta in (0.5, 2.0, 30.0):
            self.assert_matches(h, psi, beta)

    def test_extinction_in_both(self):
        with pytest.raises(ExtinctionError):
            exact_ite(ground(Z), ket(1, 0), 400.0)
        with pytest.raises(ExtinctionError):
            oracle_exact_ite(Z, KET0, 400.0)


class TestGround:
    def test_single_qubit(self):
        data = ground(Z)
        assert data.ground_energy == pytest.approx(-1.0)
        assert np.allclose(data.ground_vector, [0, 1])
        assert data.gap == pytest.approx(2.0)
        assert not data.degenerate

    def test_degenerate_ising(self):
        data = ground(densify(build_ising(IsingParams(2, 1.0, 0.0, "open"))))
        assert data.ground_energy == pytest.approx(-1.0)
        assert data.degenerate

    def test_figure_configuration_gapped(self):
        data = ground(densify(build_ising(IsingParams(4, 1.0, 5.0, "periodic"))))
        assert data.gap > 1.0
        assert not data.degenerate

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 4)
        a, b = ground(h), ground(h)
        assert np.array_equal(a.ground_vector, b.ground_vector)
        k = np.argmax(np.abs(a.ground_vector))
        assert a.ground_vector[k].imag == pytest.approx(0.0, abs=1e-15)
        assert a.ground_vector[k].real > 0

    def test_projector_rank_tracks_tolerance(self):
        h = densify(build_ising(IsingParams(4, 1.0, 0.1, "periodic")))
        spectral = ground(h)
        assert ground_basis(spectral, tol=1e-10).shape == (16, 1)
        assert ground_basis(spectral, tol=0.05).shape == (16, 2)
        assert np.array_equal(ground_basis(spectral, tol=0.05), spectral.eigenvectors[:, :2])


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_and_overlapping(self):
        assert fidelity(KET0, KET1) == pytest.approx(0.0, abs=1e-12)
        assert fidelity(KET0, PLUS) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b = random_density(rng, 4), random_density(rng, 4)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_pure_target_reduces_to_expectation(self):
        rng = np.random.default_rng(6)
        a = random_density(rng, 4)
        b = random_pure_density(rng, 4)
        v = np.real(np.trace(b @ a))
        assert fidelity(a, b) == pytest.approx(v, abs=1e-9)

    def test_vector_argument_is_the_expectation_value(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a = random_density(rng, 4)
            psi = random_unit_vector(rng, 4)
            expected = fidelity(a, np.outer(psi, psi.conj()))
            assert fidelity(a, psi) == pytest.approx(expected, abs=1e-12)
            assert bures_distance(a, psi) == pytest.approx(
                bures_distance(a, np.outer(psi, psi.conj())), abs=1e-12)

    def test_vector_argument_is_checked(self):
        with pytest.raises(ValueError, match="norm"):
            fidelity(KET0, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            fidelity(np.eye(2), ket(1, 0))  # the matrix is still checked

    def test_pure_pure_is_squared_overlap(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = random_pure_density(rng, 4)
            b = random_pure_density(rng, 4)
            assert fidelity(a, b) == pytest.approx(np.real(np.trace(a @ b)), abs=1e-10)


class TestBures:
    def test_zero_and_max(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 4)
        assert bures_distance(rho, rho) == pytest.approx(0.0, abs=1e-7)
        assert bures_distance(KET0, KET1) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b, c = (random_density(rng, 2) for _ in range(3))
            assert bures_distance(a, c) <= bures_distance(a, b) + bures_distance(b, c) + 1e-9


class TestEnergy:
    def test_basics(self):
        assert energy(Z, KET0) == pytest.approx(1.0)

    def test_eigenstate_energy(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 4)
        data = ground(h)
        proj = np.outer(data.ground_vector, data.ground_vector.conj())
        assert energy(h, proj) == pytest.approx(data.ground_energy, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            energy(Z, np.eye(4) / 4)
        with pytest.raises(ValueError):
            energy(np.ones((1, 2)), np.ones((1, 2)))


def test_near_degenerate_chain_converges_more_slowly():
    # the B=0.1 chain starts with most of its weight already in the
    # quasi-degenerate ground doublet and gains fidelity far more slowly
    # than the strongly gapped B=5 chain
    psi0 = np.full(16, 0.25, dtype=complex)
    gains = {}
    for field in (5.0, 0.1):
        spectral = ground(densify(build_ising(IsingParams(4, 1.0, field, "periodic"))))
        basis = ground_basis(spectral, tol=0.05)
        start = np.sum(np.abs(basis.conj().T @ psi0) ** 2)
        phi = exact_ite(spectral, psi0, 2.0)
        end = np.sum(np.abs(basis.conj().T @ phi) ** 2)
        gains[field] = end - start
    assert 0 < gains[0.1] < gains[5.0]


def test_fidelity_monotone_toward_ground():
    rng = np.random.default_rng(11)
    for _ in range(5):
        h = random_hermitian(rng, 4)
        data = ground(h)
        if data.degenerate:
            continue
        rho = random_density(rng, 4)
        target = np.outer(data.ground_vector, data.ground_vector.conj())
        values = [fidelity(oracle_exact_ite(h, rho, b), target) for b in np.linspace(0, 3, 16)]
        assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(values, values[1:]))
