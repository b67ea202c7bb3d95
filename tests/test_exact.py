import numpy as np
import pytest

from sbqs.errors import ExtinctionError
from sbqs.exact import (
    bures_distance,
    energy,
    exact_ite,
    fidelity,
    ground,
    ground_projector,
)
from sbqs.hamiltonian import IsingParams, build_ising, densify

from oracles import random_density, random_hermitian, random_pure_density

Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


class TestExactIte:
    def test_beta_zero_returns_input(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 4)
        assert np.array_equal(exact_ite(random_hermitian(rng, 4), rho, 0.0), rho)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.5])
    def test_single_qubit_closed_form(self, beta):
        # fidelity of the evolved |+> with |1> is 1/(1 + exp(-4 beta))
        state = exact_ite(Z, PLUS, beta)
        assert fidelity(state, KET1) == pytest.approx(1 / (1 + np.exp(-4 * beta)), abs=1e-12)

    def test_asymptotic_ground_state(self):
        state = exact_ite(Z, PLUS, 20.0)
        assert np.max(np.abs(state - KET1)) <= 1e-10

    def test_semigroup(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            h = random_hermitian(rng, 4)
            rho = random_density(rng, 4)
            once = exact_ite(h, rho, 0.9)
            twice = exact_ite(h, exact_ite(h, rho, 0.4), 0.5)
            assert np.max(np.abs(once - twice)) <= 1e-9

    def test_energy_monotone_along_trajectory(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            h = random_hermitian(rng, 4)
            rho = random_density(rng, 4)
            energies = [energy(h, exact_ite(h, rho, b)) for b in np.linspace(0, 4, 20)]
            assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(energies, energies[1:]))

    def test_extinction(self):
        with pytest.raises(ExtinctionError):
            exact_ite(Z, KET0, 400.0)  # support only on the excited state

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            exact_ite(Z, PLUS, -1.0)


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
        assert np.trace(ground_projector(ground(h), tol=1e-10)).real == pytest.approx(1.0)
        assert np.trace(ground_projector(ground(h), tol=0.05)).real == pytest.approx(2.0)


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


def test_near_degenerate_chain_converges_more_slowly():
    # the B=0.1 chain starts with most of its weight already in the
    # quasi-degenerate ground doublet and gains fidelity far more slowly
    # than the strongly gapped B=5 chain
    sigma0 = np.full((16, 16), 1 / 16, dtype=complex)
    gains = {}
    for field in (5.0, 0.1):
        h = densify(build_ising(IsingParams(4, 1.0, field, "periodic")))
        proj = ground_projector(ground(h), tol=0.05)
        start = np.trace(proj @ sigma0).real
        end = np.trace(proj @ exact_ite(h, sigma0, 2.0)).real
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
        values = [fidelity(exact_ite(h, rho, b), target) for b in np.linspace(0, 3, 16)]
        assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(values, values[1:]))
