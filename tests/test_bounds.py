import math

import numpy as np
import pytest

from sbqs.bounds import (
    beta_star,
    bures_distance_sm,
    build_bounds_report,
    distance_upper_bound,
    error_budget,
    expansion_error_report,
    fidelity_lower_bound,
    n_star,
    p_star,
    product_error_report,
    sim_distance_bound,
    strategy_b_probability,
    trotter_error,
)
from sbqs.exact import exact_ite, fidelity, ground, populations
from sbqs.hamiltonian import IsingParams, build_ising, decompose_ising_local, densify, shift_to_positive
from sbqs.engine import make_plan, run
from sbqs.experiment import uniform_state

from oracles import (
    dagger,
    random_hermitian,
    random_unit_vector,
    random_unitary,
    unitary_from_hermitian,
)

KET0 = np.diag([1.0, 0.0]).astype(complex)


class TestScalingFormulas:
    def test_trotter_error_values(self):
        assert trotter_error(2, 1.0, 1.0, 100) == pytest.approx(0.04)
        assert trotter_error(2, 1.0, 1.0, 200) == pytest.approx(0.02)
        assert trotter_error(2, 0.0, 1.0, 100) == 0.0

    def test_sim_distance_values(self):
        assert sim_distance_bound(2, 1.0, 1.0, 100) == pytest.approx(0.08)
        assert sim_distance_bound(4, 1.0, 1.0, 100) == pytest.approx(4 * 0.08)
        assert sim_distance_bound(2, 1.0, 1.0, 10**9) < 1e-8

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ell = int(rng.integers(1, 10))
            beta, h = rng.uniform(0.1, 3), rng.uniform(0.1, 5)
            n = int(rng.integers(1, 1000))
            base = trotter_error(ell, beta, h, n)
            assert trotter_error(ell, beta, h, 2 * n) < base
            assert trotter_error(ell + 1, beta, h, n) > base
            assert trotter_error(ell, beta * 1.5, h, n) > base
            assert trotter_error(ell, beta, h * 1.5, n) > base


class TestFidelityBounds:
    def test_f0_one_saturates(self):
        for beta in (0.0, 0.5, 3.0):
            assert fidelity_lower_bound(beta, 1.0, 1.0, variant="sm") == pytest.approx(1.0)

    def test_beta_zero_collapses_to_f0(self):
        for f0 in (0.2, 0.5, 0.9):
            assert fidelity_lower_bound(0.0, 1.3, f0, variant="sm") == pytest.approx(f0)

    def test_sm_dominates_main_on_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            beta = rng.uniform(0, 4)
            gap = rng.uniform(0, 5)
            f0 = rng.uniform(1e-3, 1)
            dim = int(rng.integers(2, 64))
            main = fidelity_lower_bound(beta, gap, f0, dim, "main")
            sm = fidelity_lower_bound(beta, gap, f0, dim, "sm")
            assert sm >= main - 1e-15

    def test_monotone_in_beta_and_f0(self):
        assert fidelity_lower_bound(2.0, 1.0, 0.5) > fidelity_lower_bound(1.0, 1.0, 0.5)
        assert fidelity_lower_bound(1.0, 1.0, 0.7) > fidelity_lower_bound(1.0, 1.0, 0.5)

    def test_exact_ite_respects_sm_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            h = random_hermitian(rng, 4, scale=1.5)
            data = ground(h)
            psi0 = random_unit_vector(rng, 4)
            target = np.outer(data.ground_vector, data.ground_vector.conj())
            f0 = fidelity(target, psi0)
            if f0 < 1e-8:
                continue
            for beta in (0.5, 1.0, 2.0):
                f = fidelity(target, exact_ite(data, psi0, beta))
                assert f >= fidelity_lower_bound(beta, data.gap, f0, variant="sm") - 1e-9

    def test_f0_zero_undefined(self):
        with pytest.raises(ValueError):
            fidelity_lower_bound(1.0, 1.0, 0.0)


class TestBudget:
    def test_f0_one_kills_second_addend(self):
        assert distance_upper_bound(1.0, 2.0, 1.0) == 0.0

    def test_vanishes_in_joint_limit(self):
        assert error_budget(2, 50.0, 1.0, 10**12, 1.0, 0.5) < 1e-6

    def test_addends_nonnegative(self):
        assert distance_upper_bound(0.3, 0.8, 0.4) >= 0
        assert error_budget(3, 1.0, 2.0, 100, 0.8, 0.4) >= 0


class TestBetaNStar:
    def test_worked_value(self):
        assert beta_star(1.0, 0.5, 0.1) == pytest.approx(0.5 * math.log(399), abs=1e-12)

    def test_clamped_at_zero(self):
        assert beta_star(1.0, 0.5, 1.999999) == 0.0
        assert beta_star(1.0, 1 - 1e-9, 0.5) == 0.0

    def test_degenerate_and_boundary_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            beta_star(0.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            beta_star(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            beta_star(1.0, 0.5, 2.5)

    def test_n_star_positive(self):
        assert n_star(4.0, 1.0, 0.5, 0.2) > 0

    def test_sufficiency_property(self):
        # exact evolution at beta_star lands within eps/2 of the ground state
        # in the bound chain's own distance convention
        rng = np.random.default_rng(3)
        eps = 0.2
        done = 0
        while done < 100:
            h, _ = shift_to_positive(random_hermitian(rng, 4, scale=1.0))
            data = ground(h)
            if data.gap <= 0.1:
                continue
            f0 = float(rng.uniform(0.2, 0.9))
            perp = rng.normal(size=4) + 1j * rng.normal(size=4)
            perp -= data.ground_vector * np.vdot(data.ground_vector, perp)
            perp /= np.linalg.norm(perp)
            v = math.sqrt(f0) * data.ground_vector + math.sqrt(1 - f0) * perp
            bs = beta_star(data.gap, f0, eps)
            evolved = exact_ite(data, v, bs)
            target = np.outer(data.ground_vector, data.ground_vector.conj())
            assert bures_distance_sm(target, evolved) <= eps / 2 + 1e-9
            done += 1


def uniform_vector(n: int) -> np.ndarray:
    return np.full(2**n, 2 ** (-n / 2), dtype=complex)


class TestProbabilities:
    def test_strategy_b_beta_zero(self):
        pops = np.full(2, 0.5)
        assert strategy_b_probability(np.zeros(2), pops, 0.0, 7, 3) == pytest.approx(4.0**-7)
        assert strategy_b_probability(np.zeros(2), pops, 0.0, 1, 1) == pytest.approx(0.5)

    def test_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            value = strategy_b_probability(np.full(2, -5.0), np.full(2, 0.5), 1.0, 1, 1)
        assert value == 1.0

    def test_p_star_in_unit_interval(self):
        params = IsingParams(2, 1.0, 1.0, "open")
        data = ground(densify(build_ising(params)))
        value = p_star(data.spectrum, populations(data, uniform_vector(2)), 1.0, 20.0, 5)
        assert 0.0 <= value <= 1.0

    def test_effective_ledger_telescopes_to_a_chain(self):
        params = IsingParams(2, 1.0, 1.0, "open")
        dec = decompose_ising_local(params)
        sigma0 = uniform_state(2)
        beta, n_steps = 0.5, 50
        traj = run(make_plan(dec, beta, n_steps, "B-global", "effective"), sigma0)
        from sbqs.hamiltonian import protocol_operator

        a_op = np.eye(4, dtype=complex) - (beta / n_steps) * protocol_operator(dec)
        chain = np.linalg.matrix_power(a_op, n_steps)
        expected = np.trace(chain @ sigma0 @ dagger(chain)).real / (dec.ell + 1) ** n_steps
        assert traj.ledger.cumulative("paper-formula") == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mode", ["effective", "faithful"])
    def test_ledger_approaches_formula_first_order(self, mode):
        # the gap between the ledger product and the exponential-trace formula
        # is O(delta^2) per step, i.e. O(1/N) overall: doubling N halves it
        params = IsingParams(2, 1.0, 1.0, "open")
        dec = decompose_ising_local(params)
        sigma0 = uniform_state(2)
        from sbqs.hamiltonian import protocol_operator

        data = ground(protocol_operator(dec))
        pops = populations(data, uniform_vector(2))
        beta = 0.5
        deviations = {}
        for n_steps in (50, 100):
            traj = run(make_plan(dec, beta, n_steps, "B-global", mode), sigma0)
            formula = strategy_b_probability(data.spectrum, pops, beta, n_steps, dec.ell)
            # compare in log space: the raw products underflow for large N
            log_ledger = traj.ledger.log_cumulative("paper-formula")
            deviations[n_steps] = abs(log_ledger - math.log(formula))
        assert deviations[50] / deviations[100] == pytest.approx(2.0, rel=0.25)


class TestChainPredicates:
    def test_exact_match_gives_zero_error(self):
        rng = np.random.default_rng(4)
        ops = [random_unitary(rng, 4) for _ in range(4)]
        report = product_error_report(ops, [u.copy() for u in ops])
        assert report.lhs == pytest.approx(0.0, abs=1e-14)
        assert report.inputs_unitary and report.unitary_holds and report.nonunitary_holds

    def test_perturbed_unitaries(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            ops = [random_unitary(rng, 4) for _ in range(k)]
            primes = []
            for u in ops:
                h = random_hermitian(rng, 4)
                h /= np.linalg.norm(h, 2)  # ||U - U'|| <= 1e-3
                primes.append(u @ unitary_from_hermitian(h, 1e-3))
            report = product_error_report(ops, primes)
            assert report.inputs_unitary
            assert report.unitary_holds
            assert report.lhs <= k * 1e-3 * (1 + 1e-6)

    def test_nonunitary_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            ops = [random_hermitian(rng, 4, scale=0.6) for _ in range(k)]
            primes = [m + 1e-3 * random_hermitian(rng, 4, 0.5) for m in ops]
            report = product_error_report(ops, primes)
            assert not report.inputs_unitary
            assert report.nonunitary_holds

    def test_expansion_predicate(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ops = []
            for _ in range(3):
                m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                a = m @ dagger(m)
                a /= np.linalg.norm(a, 2)  # PSD with norm 1
                ops.append(a)
            report = expansion_error_report([0.05] * 3, ops)
            assert report.holds
            assert report.rhs == pytest.approx(3 * 0.05**2)


def test_bures_sm_convention():
    ket1 = np.diag([0.0, 1.0]).astype(complex)
    assert bures_distance_sm(KET0, ket1) == pytest.approx(1.0)


def test_report_assembly():
    params = IsingParams(2, 1.0, 1.0, "open")
    dec = decompose_ising_local(params)
    spectral = ground(densify(build_ising(params)))
    report = build_bounds_report(
        spectral=spectral,
        shift=-dec.identity_offset,
        populations=populations(spectral, uniform_vector(2)),
        ell=dec.ell,
        h_max=dec.h_max,
        beta=1.0,
        n_steps=100,
        eps=0.2,
    )
    assert report.ell == dec.ell
    assert report.trotter_eps == pytest.approx(trotter_error(dec.ell, 1.0, dec.h_max, 100))
    assert 0 <= report.fidelity_bound_sm <= 1
    assert report.fidelity_bound_sm >= report.fidelity_bound_main
    assert math.isfinite(report.beta_star)
    assert any("convention" in note for note in report.notes)
    as_dict = report.to_dict()
    assert as_dict["dim"] == 4 and isinstance(as_dict["notes"], list)
