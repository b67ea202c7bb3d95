import numpy as np
import pytest

from sbqs.engine import (
    ProbabilityLedger,
    cswap_channel,
    make_plan,
    run,
    sample_run,
    step_strategy_a,
    step_strategy_b,
)
from sbqs.errors import ExtinctionError, PlanError
from sbqs.exact import bures_distance, exact_ite, ground
from sbqs.hamiltonian import (
    RHO_X,
    RHO_Z,
    IsingParams,
    ResourceDecomposition,
    ResourceTerm,
    build_ising,
    decompose_ising_local,
    densify,
)
from sbqs.linalg import dag

from oracles import (
    control_state,
    cswap_reference_state,
    cswap_unitary,
    deferred_cswap_state,
    random_density,
    random_pure_density,
    single_site_swap,
    trace_distance,
)

PLUS = np.full((2, 2), 0.5, dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)


def toy_decomposition(ell: int, seed: int = 0) -> ResourceDecomposition:
    """ell random pure single-qubit resources with unit weights on a 1-qubit register."""
    rng = np.random.default_rng(seed)
    terms = tuple(
        ResourceTerm(1.0, random_pure_density(rng, 2), (0,), f"t{i}") for i in range(ell)
    )
    return ResourceDecomposition(1, terms, 0.0, "pauli-generic")


class TestControlState:
    def test_zero(self):
        assert np.array_equal(control_state(0.0), [1, 0])

    def test_worked_values(self):
        assert np.allclose(control_state(0.1), [0.99504, -0.09950], atol=1e-5)
        assert np.allclose(control_state(-0.1), [0.99504, +0.09950], atol=1e-5)

    def test_out_of_range(self):
        with pytest.raises(PlanError):
            control_state(1.0)


class TestCswapChannel:
    def test_kraus_counts(self):
        assert len(cswap_channel(KET0, (0,), 1)) == 2  # rank-1 resource
        assert len(cswap_channel(np.eye(2, dtype=complex) / 2, (0,), 1)) == 4

    def test_completeness(self):
        rng = np.random.default_rng(1)
        for support, n in [((0,), 1), ((0,), 2), ((0, 1), 2), ((1, 0), 2)]:
            rho = random_density(rng, 2 ** len(support))
            ks = cswap_channel(rho, support, n)
            total = sum(dag(k) @ k for k in ks)
            assert np.max(np.abs(total - np.eye(2 ** (n + 1)))) <= 1e-12

    def test_control_off_leaves_simulator_untouched(self):
        rng = np.random.default_rng(2)
        sigma = random_density(rng, 2)
        ks = cswap_channel(np.eye(2, dtype=complex) / 2, (0,), 1)
        joint = np.kron(KET0, sigma)
        out = sum(k @ joint @ dag(k) for k in ks)
        assert np.max(np.abs(out - joint)) <= 1e-12

    @pytest.mark.parametrize("support,n", [((0,), 1), ((1,), 2), ((0, 1), 2), ((1, 0), 2)])
    def test_matches_explicit_unitary_oracle(self, support, n):
        rng = np.random.default_rng(hash((support, n)) % 2**32)
        for _ in range(5):
            rho = random_density(rng, 2 ** len(support))
            sigma = random_density(rng, 2**n)
            psi = control_state(float(rng.uniform(-0.2, 0.2)))
            ks = cswap_channel(rho, support, n)
            got = sum(k @ np.kron(np.outer(psi, psi.conj()), sigma) @ dag(k) for k in ks)
            want = cswap_reference_state(rho, support, n, psi, sigma)
            assert trace_distance(got, want) <= 1e-12

    def test_bond_swap_is_product_of_single_swaps(self):
        # the 2-qubit controlled swap equals two consecutive per-site swaps
        u = cswap_unitary((0, 1), 2)
        s0 = single_site_swap(0, 0, 2, 2)
        s1 = single_site_swap(1, 1, 2, 2)
        p0 = np.kron(np.diag([1.0, 0.0]), np.eye(16))
        p1 = np.kron(np.diag([0.0, 1.0]), np.eye(16))
        composed = p0 + p1 @ np.kron(np.eye(2), s1 @ s0)
        assert np.array_equal(u, composed)

    def test_support_mismatch(self):
        with pytest.raises(ValueError, match="support"):
            cswap_channel(np.eye(4, dtype=complex) / 4, (0,), 1)


class TestStepA:
    def test_worked_example_effective(self):
        term = ResourceTerm(1.0, RHO_Z, (0,), "z")
        res = step_strategy_a(PLUS, term, 0.1, mode="effective")
        assert res.probability == pytest.approx(0.4525, abs=1e-15)
        v = np.array([0.9, 1.0]) / np.sqrt(1.81)
        assert np.allclose(res.state, np.outer(v, v), atol=1e-12)

    def test_delta_zero(self):
        term = ResourceTerm(1.0, RHO_Z, (0,), "z")
        res = step_strategy_a(PLUS, term, 0.0, mode="effective")
        assert res.probability == pytest.approx(0.5)
        assert np.allclose(res.state, PLUS)

    def test_faithful_closed_form_pure_resource(self):
        # unnormalized faithful output times 2(1+d^2) is s - d{r,s} + d^2 Tr[s] r
        rng = np.random.default_rng(3)
        term = ResourceTerm(1.0, RHO_Z, (0,), "z")
        for d in (0.1, -0.15, 0.02):
            sigma = random_density(rng, 2)
            res = step_strategy_a(sigma, term, d, mode="faithful")
            raw = res.state * res.probability * 2 * (1 + d * d)
            want = sigma - d * (RHO_Z @ sigma + sigma @ RHO_Z) + d * d * RHO_Z
            assert np.max(np.abs(raw - want)) <= 1e-12

    def test_faithful_effective_quadratic_gap(self):
        term = ResourceTerm(1.0, RHO_Z, (0,), "z")
        gaps = []
        for d in (0.1, 0.05):
            f = step_strategy_a(PLUS, term, d, mode="faithful")
            e = step_strategy_a(PLUS, term, d, mode="effective")
            gaps.append(trace_distance(f.state, e.state))
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5

    def test_extinction(self):
        sigma = np.diag([0.0, 1.0]).astype(complex)
        term = ResourceTerm(1.0, np.diag([0.0, 1.0]).astype(complex), (0,), "p1")
        with pytest.raises(ExtinctionError):
            step_strategy_a(sigma, term, 1 - 1e-8, mode="effective")


class TestStepB:
    def test_single_term_degenerates_to_strategy_a(self):
        term = ResourceTerm(1.0, RHO_Z, (0,), "z")
        a = step_strategy_a(PLUS, term, 0.07, mode="faithful")
        b = step_strategy_b(PLUS, [(term, 0.07)], "global", "faithful")
        assert np.max(np.abs(a.state - b.state)) <= 1e-14
        assert a.probability == pytest.approx(b.probability, abs=1e-14)

    def test_all_deltas_zero(self):
        for ell in (2, 3):
            terms = [(t, 0.0) for t in toy_decomposition(ell).terms]
            res = step_strategy_b(PLUS, terms, "global", "faithful")
            assert res.probability == pytest.approx(1 / (ell + 1), abs=1e-12)
            assert np.allclose(res.state, PLUS, atol=1e-12)

    def test_worked_two_term_example(self):
        terms = [
            (ResourceTerm(1.0, RHO_Z, (0,), "z"), 0.1),
            (ResourceTerm(1.0, RHO_X, (0,), "x"), 0.1),
        ]
        g = step_strategy_b(PLUS, terms, "global", "faithful")
        loc = step_strategy_b(PLUS, terms, "local", "faithful")
        assert trace_distance(g.state, loc.state) <= 5 * 0.1**2
        ratio = g.probability / loc.probability
        assert ratio == pytest.approx(4 / 3, rel=2 * 0.1**2)

    def test_effective_matches_formula(self):
        terms = [(t, 0.03) for t in toy_decomposition(3, seed=5).terms]
        res = step_strategy_b(PLUS, terms, "global", "effective")
        a = np.eye(2, dtype=complex)
        for t, d in terms:
            a = a - d * t.rho
        out = a @ PLUS @ a
        assert res.probability == pytest.approx(np.trace(out).real / 4, abs=1e-14)

    @pytest.mark.parametrize("measurement", ["global", "local"])
    def test_faithful_matches_kraus_composition(self, measurement):
        # random terms on n <= 2 qubits with overlapping supports and resources
        # of every rank, against the multi-control Kraus route
        rng = np.random.default_rng(12 if measurement == "global" else 13)
        worst_state = worst_p = 0.0
        for _ in range(40):
            n = int(rng.integers(1, 3))
            terms = []
            for i in range(int(rng.integers(1, 5))):
                k = int(rng.integers(1, n + 1))
                support = tuple(int(s) for s in rng.permutation(n)[:k])
                shape = (2**k, int(rng.integers(1, 2**k + 1)))  # the rank
                g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                rho = g @ dag(g) / np.trace(g @ dag(g)).real
                terms.append((ResourceTerm(1.0, rho, support, f"t{i}"), float(rng.uniform(-0.2, 0.2))))
            sigma = random_density(rng, 2**n)
            res = step_strategy_b(sigma, terms, measurement, "faithful")
            want = deferred_cswap_state(sigma, terms, measurement)
            worst_state = max(worst_state, np.max(np.abs(res.state * res.probability - want)))
            worst_p = max(worst_p, abs(res.probability - np.trace(want).real))
        assert worst_state <= 1e-12
        assert worst_p <= 1e-12


class TestMakePlan:
    def test_ising_deltas(self):
        # weights (-4, +2, +2) at beta=1, N=100; exact reconstruction forces
        # the +2J edge weights, see decompose_ising_local
        dec = decompose_ising_local(IsingParams(2, 1.0, 0.0, "open"))
        plan = make_plan(dec, 1.0, 100)
        assert plan.deltas == (-0.04, 0.02, 0.02)

    def test_doubling_n_halves_deltas(self):
        dec = decompose_ising_local(IsingParams(2, 1.0, 1.0, "open"))
        d1 = make_plan(dec, 1.0, 100).deltas
        d2 = make_plan(dec, 1.0, 200).deltas
        assert np.allclose(np.array(d1) / 2, d2)

    def test_beta_zero(self):
        dec = decompose_ising_local(IsingParams(2, 1.0, 1.0, "open"))
        assert all(d == 0 for d in make_plan(dec, 0.0, 10).deltas)

    def test_rejects_large_delta(self):
        dec = decompose_ising_local(IsingParams(2, 1.0, 0.0, "open"))
        with pytest.raises(PlanError):
            make_plan(dec, 100.0, 10)

    def test_warns_above_threshold(self):
        dec = decompose_ising_local(IsingParams(2, 1.0, 0.0, "open"))
        with pytest.warns(UserWarning, match="delta"):
            make_plan(dec, 10.0, 100)

    def test_validation(self):
        dec = decompose_ising_local(IsingParams(2, 1.0, 1.0, "open"))
        with pytest.raises(PlanError):
            make_plan(dec, 1.0, 0)
        with pytest.raises(PlanError):
            make_plan(dec, 1.0, 10, strategy="C")
        with pytest.raises(PlanError):
            make_plan(dec, 1.0, 10, mode="approximate")


class TestRun:
    def test_single_step_matches_step_function(self):
        dec = toy_decomposition(1, seed=7)
        plan = make_plan(dec, 0.05, 1, "A", "faithful")
        traj = run(plan, PLUS)
        direct = step_strategy_a(PLUS, dec.terms[0], plan.deltas[0], mode="faithful")
        assert np.max(np.abs(traj.final_state - direct.state)) <= 1e-14
        assert traj.ledger.probabilities("faithful-exact")[0] == pytest.approx(
            direct.probability
        )

    def test_final_state_normalized(self):
        dec = decompose_ising_local(IsingParams(2, 1.0, 1.0, "open"))
        traj = run(make_plan(dec, 0.1, 5, "A", "faithful"), np.eye(4, dtype=complex) / 4)
        assert not hasattr(traj, "snapshots")
        assert np.trace(traj.final_state).real == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.isfinite(traj.final_state))

    def test_ledger_product_consistency(self):
        dec = decompose_ising_local(IsingParams(2, 1.0, 1.0, "open"))
        traj = run(make_plan(dec, 0.1, 4, "A", "faithful"), np.eye(4, dtype=complex) / 4)
        for source in ("faithful-exact", "paper-formula"):
            ps = traj.ledger.probabilities(source)
            assert len(ps) == 4 * dec.ell
            manual = float(np.prod(ps))
            assert traj.ledger.cumulative(source) == pytest.approx(manual, rel=1e-12)

    def test_strategy_b_measures_every_trotter_step(self):
        dec = toy_decomposition(2, seed=8)
        traj = run(make_plan(dec, 0.1, 6, "B-global", "faithful"), PLUS)
        assert len(traj.ledger.probabilities("faithful-exact")) == 6

    def test_strategy_b_local_through_run(self):
        dec = toy_decomposition(2, seed=8)
        traj = run(make_plan(dec, 0.1, 3, "B-local", "faithful"), PLUS)
        steps = [(t, d) for t, (_, d) in zip(dec.terms, traj.plan.sub_steps)]
        sigma, expected = PLUS, []
        for _ in range(3):
            res = step_strategy_b(sigma, steps, "local", "faithful")
            sigma = res.state
            expected.append(res.probability)
        assert np.allclose(traj.ledger.probabilities("faithful-exact"), expected)
        assert np.max(np.abs(traj.final_state - sigma)) <= 1e-14

    def test_faithful_tracks_exact_ite(self):
        params = IsingParams(2, 1.0, 1.0, "open")
        dec = decompose_ising_local(params)
        spectral = ground(densify(build_ising(params)))
        sigma0 = np.full((4, 4), 0.25, dtype=complex)
        traj = run(make_plan(dec, 1.0, 200, "A", "faithful"), sigma0)
        ref = exact_ite(spectral, np.full(4, 0.5, dtype=complex), 1.0)
        assert bures_distance(traj.final_state, ref) < 0.06

    def test_first_order_convergence_measured_in_matching_metrics(self):
        # the faithful channel leaks O(delta^2) incoherent weight per sub-step,
        # so 1/N convergence shows in trace distance (faithful) and in Bures
        # distance for the purity-preserving effective mode
        params = IsingParams(2, 1.0, 1.0, "open")
        dec = decompose_ising_local(params)
        spectral = ground(densify(build_ising(params)))
        sigma0 = np.full((4, 4), 0.25, dtype=complex)
        phi = exact_ite(spectral, np.full(4, 0.5, dtype=complex), 1.0)
        ref = np.outer(phi, phi.conj())
        tdists, bures_eff = {}, {}
        for n_steps in (100, 200):
            faithful = run(make_plan(dec, 1.0, n_steps, "A", "faithful"), sigma0)
            effective = run(make_plan(dec, 1.0, n_steps, "A", "effective"), sigma0)
            tdists[n_steps] = trace_distance(faithful.final_state, ref)
            bures_eff[n_steps] = bures_distance(effective.final_state, ref)
        assert 1.6 <= tdists[100] / tdists[200] <= 2.4
        assert 1.6 <= bures_eff[100] / bures_eff[200] <= 2.4


class TestLedger:
    def test_sources_tracked_independently(self):
        ledger = ProbabilityLedger()
        ledger.record("1", 0.5, "faithful-exact")
        ledger.record("1", 0.6, "paper-formula")
        ledger.record("2", 0.5, "faithful-exact")
        assert ledger.cumulative("faithful-exact") == pytest.approx(0.25)
        assert ledger.cumulative("paper-formula") == pytest.approx(0.6)

    def test_formula_clamped_with_note(self):
        ledger = ProbabilityLedger()
        ledger.record("1", 1.3, "paper-formula")
        assert ledger.cumulative("paper-formula") == 1.0
        assert any("clamped" in note for note in ledger.notes)

    def test_exact_above_one_rejected(self):
        ledger = ProbabilityLedger()
        with pytest.raises(ValueError):
            ledger.record("1", 1.1, "faithful-exact")

    def test_log_cumulative_survives_underflow(self):
        ledger = ProbabilityLedger()
        for i in range(3000):
            ledger.record(str(i), 0.5, "faithful-exact")
        assert ledger.cumulative("faithful-exact") == 0.0  # double underflow
        assert ledger.log_cumulative("faithful-exact") == pytest.approx(3000 * np.log(0.5))


class TestSampleRun:
    def test_coin_flip_degeneration(self):
        dec = toy_decomposition(2, seed=9)
        plan = make_plan(dec, 0.0, 3, "A", "sampled")  # 6 sub-steps at p = 1/2
        result = sample_run(plan, PLUS, trials=20000, seed=42)
        p = 0.5**6
        sigma = np.sqrt(p * (1 - p) / 20000)
        assert abs(result.frequency - p) <= 3 * sigma

    def test_worked_example_frequency(self):
        dec = ResourceDecomposition(1, (ResourceTerm(1.0, RHO_Z, (0,), "z"),), 0.0, "pauli-generic")
        plan = make_plan(dec, 0.1, 1, "A", "sampled")
        result = sample_run(plan, PLUS, trials=100_000, seed=7)
        sigma = np.sqrt(0.4525 * 0.5475 / 100_000)
        assert abs(result.frequency - 0.4525) <= 3 * sigma
        assert np.allclose(result.accepted_average, result.trajectory.final_state)

    def test_seed_determinism(self):
        dec = toy_decomposition(2, seed=10)
        plan = make_plan(dec, 0.05, 2, "A", "sampled")
        a = sample_run(plan, PLUS, trials=500, seed=3)
        b = sample_run(plan, PLUS, trials=500, seed=3)
        assert np.array_equal(a.accepted, b.accepted)
        assert a.frequency == b.frequency

    def test_zero_successes_reported(self):
        dec = toy_decomposition(3, seed=11)
        plan = make_plan(dec, 0.0, 5, "B-local", "sampled")  # p = 2^-15 per trial
        result = sample_run(plan, PLUS, trials=50, seed=0)
        assert result.successes == 0
        assert result.frequency == 0.0
        assert result.accepted_average is None
