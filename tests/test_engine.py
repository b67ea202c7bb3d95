import math
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbqs.config import load_config
from sbqs.engine import (
    DELTA_WARN,
    LEDGER_SOURCES,
    MODES,
    STRATEGIES,
    ProbabilityLedger,
    StepResult,
    cswap_channel,
    make_plan,
    run,
    run_rows,
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
    decompose_pauli_generic,
    densify,
)
from sbqs.linalg import dag, embed_operator, qubit_layout

from oracles import (
    control_state,
    cswap_reference_state,
    cswap_unitary,
    deferred_cswap_state,
    effective_b_closed_form,
    faithful_invariants,
    faithful_transfer,
    random_density,
    random_pure_density,
    random_resource_terms,
    random_unit_vector,
    replaced_support,
    single_site_swap,
    trace_distance,
)

#: An n = 4 Pauli model with Y strings, also run by CI through the installed script.
PAULI_Y4 = Path(__file__).parent / "data" / "pauli_y4.json"

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
    @pytest.mark.parametrize("measurement", ["global", "local"])
    @pytest.mark.parametrize("mode", ["faithful", "effective"])
    def test_single_term_degenerates_to_strategy_a(self, mode, measurement):
        # l = 1: the global projection is onto |+> and both denominators are
        # 2, so faithful strategy A's chain kernel equals B-global's dense step
        # plus its leak kernel.  A one-qubit term on |+>, and every term of the
        # n = 4 chain (the kernel's matrix form) and of pauli_y4 (full-register
        # terms, its block form) on a vector, a d x d state and a stack with
        # per-row deltas
        rng = np.random.default_rng(160)
        states = [(random_unit_vector(rng, 16), 0.07), (random_density(rng, 16), -0.05),
                  (np.stack([random_density(rng, 16) for _ in range(3)]),
                   np.array([0.03, -0.06, 0.09]))]
        terms = [*decompose_ising_local(IsingParams(4, 1.0, 0.7, "periodic")).terms,
                 *decompose_pauli_generic(load_config(PAULI_Y4).model).terms]
        cases = [(ResourceTerm(1.0, RHO_Z, (0,), "z"), PLUS, 0.07)]
        cases += [(term, state, delta) for term in terms for state, delta in states]
        for term, state, delta in cases:
            a = step_strategy_a(state, term, delta, mode=mode)
            b = step_strategy_b(state, [(term, delta)], measurement, mode)
            assert b.state.shape == a.state.shape
            assert np.max(np.abs(a.state - b.state)) <= 1e-14
            assert np.max(np.abs(np.subtract(a.probability, b.probability))) <= 1e-14
            assert np.max(np.abs(np.subtract(a.formula_probability,
                                             b.formula_probability))) <= 1e-14

    def test_a_b_local_stack_reads_each_rows_formula_probability(self):
        # a one-step B-local chain on a stack with per-row deltas reads each
        # row's formula probability through its own B, off the half stack,
        # whose off-diagonal blocks count twice: the dense Tr[A sigma A] / 2^l
        rng = np.random.default_rng(170)
        n, deltas = 3, np.array([0.02, -0.05, 0.09])
        terms = [(ResourceTerm(1.0, random_density(rng, 4), (2, 0), "a"), deltas),
                 (ResourceTerm(1.0, random_density(rng, 2), (1,), "b"), deltas)]
        stack = np.stack([random_density(rng, 8) for _ in deltas])
        got = step_strategy_b(stack, terms, "local", "faithful").formula_probability
        embs = sum(embed_operator(t.rho, qubit_layout(n), [f"q{s}" for s in t.support]) for t, _ in terms)
        for p, sigma, delta in zip(got, stack, deltas):
            a = np.eye(8) - delta * embs
            assert p == pytest.approx(np.trace(a @ sigma @ a).real / 4, abs=1e-14)

    def test_a_probability_above_one_is_reported_and_a_ledger_rejects_it(self, monkeypatch):
        # B ten times too large on W's ground state: the faithful B-global
        # trace outgrows its scale, and the step reports p > 1 as it is, the
        # update's trace over (l + 1) prod_i (1 + delta_i^2), formed densely
        # here; in a run, the ledger rejects it and names the step
        import sbqs.engine as engine_mod

        dec = decompose_ising_local(IsingParams(2, 1.0, 1.0, "open"))
        scale = np.array([0.02, 0.04, 0.06])
        terms = [(t, t.weight * scale) for t in dec.terms]
        ground = dec.eigensystem[1][:, 0]
        sigma = np.outer(ground, ground.conj())
        res = step_strategy_b(np.stack([sigma] * 3), terms, "global", "faithful",
                              b_op=10 * np.multiply.outer(scale, dec.operator))
        for row, s in enumerate(scale):
            a = np.eye(4) - 10 * s * dec.operator
            raw = a @ sigma @ a
            for t, delta in terms:
                emb = embed_operator(t.rho, qubit_layout(2), [f"q{q}" for q in t.support])
                raw = raw + delta[row] ** 2 * (replaced_support(sigma, t.rho, t.support, 2)
                                               - emb @ sigma @ emb)
            want = np.trace(raw).real / np.prod(1 + np.square([d[row] for _, d in terms]),
                                                initial=len(terms) + 1.0)
            assert res.probability[row] == pytest.approx(want, rel=1e-12)
        assert res.probability[-1] > 1.25
        real = engine_mod._global_step
        monkeypatch.setattr(engine_mod, "_global_step",
                            lambda terms, n, b_op, denom: real(terms, n, 10 * b_op, denom))
        with pytest.warns(UserWarning, match="delta"):
            plan = make_plan(dec, 0.6, 10, "B-global")
        with pytest.raises(ValueError, match=r"exact probability .* > 1 at 1$"):
            run(plan, ground)

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
        # effective A, B-local and B-global against the dense first-order
        # update A sigma A / denom with A = I - sum_i delta_i rho_i, on the
        # random terms of the Kraus comparison below; faithful B-local reports
        # the same formula probability
        rng = np.random.default_rng(14)
        worst_state = worst_p = 0.0
        for _ in range(40):
            n = int(rng.integers(1, 3))
            terms = random_resource_terms(rng, n)
            sigma = random_density(rng, 2**n)

            def dense(group, denom):
                a = np.eye(2**n, dtype=complex) - sum(
                    d * embed_operator(t.rho, qubit_layout(n), [f"q{s}" for s in t.support])
                    for t, d in group
                )
                out = a @ sigma @ dag(a)
                return out / np.trace(out).real, np.trace(out).real / denom

            cases = [
                (step_strategy_a(sigma, *terms[0], mode="effective"), terms[:1], 2),
                (step_strategy_b(sigma, terms, "local", "effective"), terms, 2 ** len(terms)),
                (step_strategy_b(sigma, terms, "global", "effective"), terms, len(terms) + 1),
            ]
            for res, group, denom in cases:
                state, p = dense(group, denom)
                worst_state = max(worst_state, np.max(np.abs(res.state - state)))
                worst_p = max(worst_p, abs(res.probability - p), abs(res.formula_probability - p))
            faithful = step_strategy_b(sigma, terms, "local", "faithful")
            worst_p = max(worst_p, abs(faithful.formula_probability - dense(terms, 2 ** len(terms))[1]))
        assert worst_state <= 1e-12
        assert worst_p <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_real_inputs_match_complex(self, mode):
        # a float sigma, float resources and a float B give a float state, the
        # same inputs cast to complex a complex one, equal to rounding, for A,
        # B-local and B-global
        rng = np.random.default_rng(15)
        g = rng.normal(size=(4, 4))
        sigma = g @ g.T / np.trace(g @ g.T)
        terms = [(ResourceTerm(1.0, RHO_X, (1,), "x"), 0.08),
                 (ResourceTerm(1.0, np.kron(RHO_Z, RHO_X), (0, 1), "zx"), -0.05)]
        cterms = [(ResourceTerm(1.0, t.rho.astype(complex), t.support, t.label), d)
                  for t, d in terms]
        embs = [embed_operator(t.rho, qubit_layout(2), [f"q{s}" for s in t.support])
                for t, _ in terms]
        b_real = 0.08 * embs[0] - 0.05 * embs[1]
        pairs = [(step_strategy_a(sigma, *terms[0], mode=mode, rho_emb=embs[0]),
                  step_strategy_a(sigma.astype(complex), *cterms[0], mode=mode))]
        for measurement in ("local", "global"):
            pairs.append((step_strategy_b(sigma, terms, measurement, mode, b_op=b_real),
                          step_strategy_b(sigma.astype(complex), cterms, measurement, mode)))
        for real, cplx in pairs:
            assert (real.state.dtype, cplx.state.dtype) == (np.float64, np.complex128)
            assert np.max(np.abs(real.state - cplx.state)) <= 1e-15
            assert real.probability == pytest.approx(cplx.probability, rel=1e-14)
            assert real.formula_probability == pytest.approx(cplx.formula_probability, rel=1e-14)
        # a float start in a model with Y strings: its rho are complex and span
        # the n = 4 register (the kernel's block form), so every state turns
        # complex, the same as from a complex start, through run and run_rows
        dec = decompose_pauli_generic(load_config(PAULI_Y4).model)
        psi = np.full(16, 0.25)
        for strategy in STRATEGIES:
            plans = [make_plan(dec, beta, 20, strategy, mode) for beta in (0.1, 0.2)]
            pairs = [(run(plans[1], psi), run(plans[1], psi.astype(complex))),
                     *zip(run_rows(plans, psi), run_rows(plans, psi.astype(complex)))]
            for real, cplx in pairs:
                assert real.final_state.dtype == cplx.final_state.dtype == np.complex128
                assert np.max(np.abs(real.final_state - cplx.final_state)) <= 1e-15
                for source in LEDGER_SOURCES:
                    assert np.allclose(real.ledger.probabilities(source),
                                       cplx.ledger.probabilities(source), rtol=1e-14, atol=0)

    def test_faithful_global_takes_the_dtype_of_its_complex_resources(self):
        # rho = |+i><+i| and |-i><-i| on one site, with one delta, sum to the
        # real B = delta I: a float sigma and that float B give a complex
        # state, as B-local does, equal to the step with B cast to complex
        rng = np.random.default_rng(16)
        g = rng.normal(size=(4, 4))
        sigma, delta = g @ g.T / np.trace(g @ g.T), 0.07
        plus_i = np.array([1.0, 1j]) / math.sqrt(2)
        terms = [(ResourceTerm(1.0, np.outer(v, v.conj()), (1,), label), delta)
                 for v, label in ((plus_i, "+i"), (plus_i.conj(), "-i"))]
        b_real = delta * np.eye(4)
        real = step_strategy_b(sigma, terms, "global", "faithful", b_op=b_real)
        cplx = step_strategy_b(sigma, terms, "global", "faithful", b_op=b_real.astype(complex))
        assert real.state.dtype == np.complex128
        assert np.max(np.abs(real.state - cplx.state)) <= 1e-15
        assert real.probability == pytest.approx(cplx.probability, rel=1e-15)
        assert real.formula_probability == pytest.approx(cplx.formula_probability, rel=1e-15)

    @pytest.mark.parametrize("measurement", ["global", "local"])
    def test_faithful_matches_kraus_composition(self, measurement):
        # random terms on n <= 2 qubits with overlapping supports and resources
        # of every rank, against the multi-control Kraus route
        rng = np.random.default_rng(12 if measurement == "global" else 13)
        worst_state = worst_p = 0.0
        for _ in range(40):
            n = int(rng.integers(1, 3))
            terms = random_resource_terms(rng, n)
            sigma = random_density(rng, 2**n)
            res = step_strategy_b(sigma, terms, measurement, "faithful")
            want = deferred_cswap_state(sigma, terms, measurement)
            worst_state = max(worst_state, np.max(np.abs(res.state * res.probability - want)))
            worst_p = max(worst_p, abs(res.probability - np.trace(want).real))
        assert worst_state <= 1e-12
        assert worst_p <= 1e-12

    def test_faithful_global_formula_is_the_paper_formula(self):
        # Tr[A sigma A] / (l + 1) with A = I - sum_i delta_i rho_i, formed
        # densely here, on one state and on a stack with per-row deltas
        rng = np.random.default_rng(15)
        factors = np.array([1.0, -0.5, 2.0])
        worst = 0.0
        for _ in range(10):
            n = int(rng.integers(1, 4))
            terms = random_resource_terms(rng, n)
            sigmas = [random_density(rng, 2**n) for _ in range(3)]
            a_ops = [np.eye(2**n) - sum(f * delta * embed_operator(t.rho, qubit_layout(n),
                                                                  [f"q{s}" for s in t.support])
                                        for t, delta in terms)
                     for f in factors]
            want = [np.trace(a @ sigma @ a).real / (len(terms) + 1)
                    for a, sigma in zip(a_ops, sigmas)]
            one = step_strategy_b(sigmas[0], terms, "global", "faithful").formula_probability
            stack = step_strategy_b(np.stack(sigmas), [(t, delta * factors) for t, delta in terms],
                                    "global", "faithful").formula_probability
            worst = max(worst, abs(one / want[0] - 1), *np.abs(stack / want - 1))
        assert worst <= 1e-14

    @pytest.mark.parametrize("mode", ["effective", "sampled"])
    def test_a_stack_step_outside_faithful_mode_skips_the_formula(self, mode):
        # no leak: both probabilities are the one trace of A sigma A over the
        # denominator, so they are equal bit for bit, and so are two calls
        rng = np.random.default_rng(14)
        terms = [(term, delta * np.array([1.0, -0.5, 2.0]))
                 for term, delta in random_resource_terms(rng, 3)]
        stack = np.stack([random_density(rng, 8) for _ in range(3)])
        steps = [partial(step_strategy_a, stack, *terms[0], mode),
                 partial(step_strategy_b, stack, terms, "local", mode),
                 partial(step_strategy_b, stack, terms, "global", mode)]
        for step in steps:
            got, again = step(), step()
            assert np.array_equal(got.probability, got.formula_probability)
            for a, b in zip(got, again):
                assert np.array_equal(a, b)


class TestSupportKernel:
    """The faithful one-term update, applied by a superoperator on the term's
    support, against the dense closed form and the controlled-SWAP unitary."""

    @staticmethod
    def cases(n):
        pairs = [(2, 0), (0, 2)] if n >= 3 else [(1, 0)]
        return [(0,), (n - 1,), *pairs, tuple(range(n))[::-1]]

    @staticmethod
    def closed_form(sigma, rho, support, n, delta):
        """2 (1 + delta^2) p times the post-selected state, from dense products."""
        emb = embed_operator(rho, qubit_layout(n), [f"q{s}" for s in support])
        return (sigma - delta * (emb @ sigma + sigma @ emb)
                + delta**2 * replaced_support(sigma, rho, support, n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_term_step_matches_closed_form_and_unitary(self, n):
        # supports on the first and last site, a reversed and a non-adjacent
        # pair, and the whole register reversed, which at n >= 4 takes the
        # block-product form; every resource is mixed (rank > 1)
        rng = np.random.default_rng(30 + n)
        plus = np.full(2, 2**-0.5, dtype=complex)
        worst = 0.0
        for support in self.cases(n):
            rho = random_density(rng, 2 ** len(support))
            assert np.linalg.matrix_rank(rho) > 1
            term = ResourceTerm(1.0, rho, support, "r")
            sigma = random_density(rng, 2**n)
            delta = float(rng.uniform(-0.2, 0.2))
            res = step_strategy_a(sigma, term, delta, "faithful")
            raw = res.state * res.probability
            want = self.closed_form(sigma, rho, support, n, delta) / (2 * (1 + delta**2))
            worst = max(worst, np.max(np.abs(raw - want)), abs(res.probability - np.trace(want).real))
            a = np.eye(2**n) - delta * embed_operator(rho, qubit_layout(n), [f"q{s}" for s in support])
            assert res.formula_probability == pytest.approx(np.trace(a @ sigma @ a).real / 2, abs=1e-12)
            if 2 * 2 ** (len(support) + n) <= 512:
                joint = cswap_reference_state(rho, support, n, control_state(delta), sigma)
                projected = np.einsum("a,aibj,b->ij", plus, joint.reshape(2, 2**n, 2, 2**n), plus)
                worst = max(worst, np.max(np.abs(raw - projected)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_per_row_deltas_on_a_stack_match_each_row_alone(self, n):
        rng = np.random.default_rng(40 + n)
        deltas = np.array([0.0, 0.13, -0.07, 0.19])
        for support in self.cases(n):
            term = ResourceTerm(1.0, random_density(rng, 2 ** len(support)), support, "r")
            stack = np.stack([random_density(rng, 2**n) for _ in deltas])
            res = step_strategy_a(stack, term, deltas, "faithful")
            for row, (sigma, delta) in enumerate(zip(stack, deltas)):
                alone = step_strategy_a(sigma, term, float(delta), "faithful")
                want = self.closed_form(sigma, term.rho, support, n, delta) / (2 * (1 + delta**2))
                assert np.max(np.abs(res.state[row] * res.probability[row] - want)) <= 1e-12
                assert np.max(np.abs(res.state[row] - alone.state)) <= 1e-12
                assert res.probability[row] == pytest.approx(alone.probability, abs=1e-14)
                assert res.formula_probability[row] == pytest.approx(alone.formula_probability,
                                                                     abs=1e-14)

    def test_matrix_and_block_products_agree(self, monkeypatch):
        # every term of the kernel map, with per-row coefficients, in both
        # forms, on the Hermitian half stack: entered, applied and left
        import sbqs.kernels as kernels_mod

        rng = np.random.default_rng(50)
        n, support = 4, (3, 1)
        rho = random_density(rng, 4)
        coefs = [rng.normal(size=3) for _ in range(4)]
        stack = np.stack([random_density(rng, 16) for _ in range(3)])
        matrix = kernels_mod._Kernel(rho, support, n, coefs)
        monkeypatch.setattr(kernels_mod, "_MATRIX_QUBITS", 0)
        blocks = kernels_mod._Kernel(rho, support, n, coefs)
        assert matrix.matrix is not None and blocks.matrix is None
        emb = embed_operator(rho, qubit_layout(n), [f"q{s}" for s in support])
        want = [c0 * s + c1 * (emb @ s + s @ emb) + c2 * replaced_support(s, rho, support, n)
                + c3 * emb @ s @ emb for s, c0, c1, c2, c3 in zip(stack, *coefs)]
        for kernel in (matrix, blocks):
            assert np.max(np.abs(kernel.leave(kernel.apply(kernel.enter(stack))) - want)) <= 1e-14

    def test_a_layout_map_stays_inside_its_source_and_reads_every_entry(self, monkeypatch):
        # a kernel's map from the half stack of the window before: corrupted
        # to an index past the source, or so that an entry of an off-diagonal
        # block (whose mirror the source does not hold) is never read, it
        # raises, naming both supports
        import sbqs.kernels as kernels_mod

        real = kernels_mod._read

        def corrupted(how):
            def read(stored, wanted, n):
                index, mirrored = real(stored, wanted, n)
                index = index.copy()
                if how == "outside":
                    index[5] = stored.size
                else:
                    index[index == stored.size - 1] = 0
                return index, mirrored
            return read

        for how, message in (("outside", "an index outside the source's 160 entries"),
                             ("unread", "a source entry and its mirror are never read")):
            kernel = kernels_mod._swap_kernel(ResourceTerm(1.0, PLUS.real, (1,), "x"), 4, 0.1)
            kernel.source = (0, 2)
            kernels_mod._map.cache_clear()  # a map is checked when it is built
            monkeypatch.setattr(kernels_mod, "_read", corrupted(how))
            with pytest.raises(ValueError, match=rf"from \(0, 2\) to \(1,\): {message}"):
                kernel.index
            monkeypatch.setattr(kernels_mod, "_read", real)
            assert kernel.index.size == 36 * 4  # r = 8 rest blocks: 36 on the half stack

    @pytest.mark.parametrize("measurement", ["local", "global"])
    def test_strategy_b_steps_agree_in_both_forms(self, monkeypatch, measurement):
        # full-register terms at n = 4: chained swap kernels (B-local) and leak
        # kernels (B-global) as block products against their matrices
        import sbqs.kernels as kernels_mod

        rng = np.random.default_rng(60)
        n, deltas = 4, np.array([0.02, -0.05, 0.09])
        terms = [(ResourceTerm(1.0, random_density(rng, 16), tuple(range(n))[::-1], "r"), deltas)
                 for _ in range(2)]
        stack = np.stack([random_density(rng, 16) for _ in deltas])
        blocks = step_strategy_b(stack, terms, measurement, "faithful")
        monkeypatch.setattr(kernels_mod, "_MATRIX_QUBITS", n)
        matrix = step_strategy_b(stack, terms, measurement, "faithful")
        assert np.max(np.abs(blocks.state - matrix.state)) <= 1e-14
        assert np.max(np.abs(blocks.probability - matrix.probability)) <= 1e-14

    def test_probe_is_shared_by_the_rows_and_kernels_serve_b_global(self, monkeypatch):
        # a swap kernel builds one probe for all its rows, in a strategy-A and
        # in a B-local step, each a one-step chain of its own; a faithful
        # B-global run builds its l leak kernels once, not once per step
        import sbqs.kernels as kernels_mod

        rng = np.random.default_rng(70)
        term = ResourceTerm(1.0, random_density(rng, 4), (2, 0), "r")
        deltas = np.array([0.01, 0.03, -0.02, 0.05])
        stack = np.stack([random_density(rng, 8) for _ in deltas])
        terms = [(term, deltas)]
        built, real = [], kernels_mod._swap_kernel
        monkeypatch.setattr(kernels_mod, "_swap_kernel", lambda *args: built.append(real(*args))
                            or built[-1])
        local = step_strategy_b(stack, terms, "local", "faithful")
        assert len(built) == 1 and vars(built[0])["probe"].shape == (16, 3)
        assert np.array_equal(local.state, step_strategy_b(stack, terms, "local", "faithful").state)
        step_strategy_a(stack, term, deltas, "faithful")
        assert len(built) == 3 and vars(built[2])["probe"].shape == (16, 3)
        leaks, real_leak = [], kernels_mod._leak_kernel
        monkeypatch.setattr(kernels_mod, "_leak_kernel", lambda *args: leaks.append(args)
                            or real_leak(*args))
        dec = decompose_ising_local(IsingParams(3, 1.0, 0.7, "periodic"))
        plans = [make_plan(dec, beta, 50, "B-global") for beta in (0.5, 1.0)]
        run_rows(plans, np.full(8, 8**-0.5))
        assert [args[0] for args in leaks] == list(dec.terms)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_kernels_of_one_state_share_its_read_only_parts(self, dtype):
        # a matrix-form kernel sums its coefficients times four parts of its
        # state, cached per process: two swap kernels and a leak kernel of one
        # state on different supports build them once, read-only, and each
        # kernel's matrix is bit for bit the sum over a fresh build
        import sbqs.kernels as kernels_mod
        from sbqs.linalg import kron

        rng = np.random.default_rng(75)
        rho = random_density(rng, 4)
        rho = rho.real if dtype is float else rho
        deltas = np.array([0.01, -0.03, 0.05])
        terms = [ResourceTerm(1.0, rho, (0, 2), "a"), ResourceTerm(1.0, rho.copy(), (3, 1), "b")]
        kernels_mod._parts.cache_clear()
        built = [kernels_mod._swap_kernel(t, 4, deltas) for t in terms]
        built.append(kernels_mod._leak_kernel(terms[0], 4, deltas))
        info = kernels_mod._parts.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        parts = kernels_mod._parts(rho.tobytes(), rho.dtype.str, 4)
        eye = np.eye(4)
        fresh = (np.eye(16), kron(rho.T, eye) + kron(eye, rho), np.outer(eye.ravel(), rho.ravel()),
                 kron(rho.T, rho))
        for part, want in zip(parts, fresh):
            assert not part.flags.writeable and np.array_equal(part, want)
        for kernel in built:
            want = sum(c * m for c, m in zip(kernel.coefs, fresh) if c is not None)
            assert kernel.matrix.dtype == dtype and np.array_equal(kernel.matrix, want)

    @staticmethod
    def chain_only(monkeypatch, strategy):
        """Two faithful rows of the periodic n = 4 chain, 50 steps, run again
        with every embedding, dense update and public step function refused:
        the rows must come out bit for bit the same.  The count of the
        ``_as_stack`` calls, of the kernels' enter and leave calls and of the
        chain's step calls, the count of windows per Trotter step and the rows."""
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod
        import sbqs.linalg as linalg_mod

        dec = decompose_ising_local(IsingParams(4, 1.0, 0.7, "periodic"))
        plans = [make_plan(dec, beta, 50, strategy) for beta in (0.5, 1.0)]
        psi = np.full(16, 0.25, dtype=complex)
        want = run_rows(plans, psi)

        def refuse(*args, **kwargs):
            raise AssertionError(f"dense resource or update, or canonical step, in a {strategy} run")

        for module, name in ((linalg_mod, "embed_operator"), (engine_mod, "embed_operator"),
                             (engine_mod, "_embed"), (engine_mod, "_measure"),
                             (engine_mod, "step_strategy_a"), (engine_mod, "step_strategy_b")):
            monkeypatch.setattr(module, name, refuse)
        calls = Counter()
        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        # the stack is built once, at the start of the run
        monkeypatch.setattr(engine_mod, "_as_stack", counting("_as_stack", engine_mod._as_stack))
        for cls, name in ((kernels_mod._Kernel, "enter"), (kernels_mod._Kernel, "leave"),
                          (kernels_mod._Chain, "step")):
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
        got = run_rows(plans, psi)
        for a, b in zip(got, want):
            assert np.array_equal(a.final_state, b.final_state)
            assert np.array_equal(a.ledger.exact, b.ledger.exact)
            assert np.array_equal(a.ledger.formula, b.ledger.formula)
        return calls, len(kernels_mod._windows(list(dec.terms))), got

    def test_faithful_a_sweep_embeds_nothing_and_skips_the_dense_update(self, monkeypatch):
        # a faithful strategy-A run reads each term's kernel only: no embedded
        # resource, no pass through the d x d post-selection and no public step
        # function, which would map every measurement back to the canonical
        # layout; the stack is built once, enters the kernels' chain once,
        # runs its 8 windows in one chain step call per Trotter step and
        # leaves once
        calls, windows, _ = self.chain_only(monkeypatch, "A")
        assert windows == 8
        assert calls == {"_as_stack": 1, "enter": 1, "step": 50, "leave": 1}

    def test_faithful_b_local_sweep_is_strategy_a_chain_without_sigma_b(self, monkeypatch):
        # faithful B-local runs the same chain with one ledger entry per Trotter
        # step, and reads its formula probability through W's functional: no
        # sigma B, no dense update and no public step function
        calls, windows, got = self.chain_only(monkeypatch, "B-local")
        assert calls == {"_as_stack": 1, "enter": 1, "step": 50, "leave": 1}
        assert [len(t.ledger.exact) for t in got] == [50, 50]


class TestChain:
    """A faithful run keeps its stack in the layout of the last kernel applied
    and maps it back once; every result must match a loop of the public step
    functions, each of which starts and ends in the canonical layout."""

    @staticmethod
    def decomposition(n, seed):
        """Mixed resources on the first and last site, a reversed pair, a
        non-adjacent pair and the whole register reversed (the block form at
        n >= 4), alternately complex and real."""
        rng = np.random.default_rng(seed)
        supports = [(0,), (n - 1,), (1, 0), *([(0, 2), (n - 1, 1)] if n >= 3 else []),
                    tuple(range(n))[::-1]]
        terms = []
        for i, support in enumerate(supports):
            rho = random_density(rng, 2 ** len(support))
            terms.append(ResourceTerm(float(rng.uniform(0.5, 1.5)), rho if i % 2 else rho.real,
                                      support, f"t{i}"))
        return ResourceDecomposition(n, tuple(terms), 0.0, "pauli-generic")

    @staticmethod
    def reference(plan, psi):
        """One row through public step-function calls: its final state and its
        (exact, formula) probability per measurement."""
        sigma, ledger = np.outer(psi, psi.conj()), []
        terms = list(zip(plan.decomposition.terms, plan.deltas))
        for _ in range(plan.n_steps):
            for group in ([[t] for t in terms] if plan.strategy == "A" else [terms]):
                res = (step_strategy_a(sigma, *group[0], "faithful") if plan.strategy == "A"
                       else step_strategy_b(sigma, group, plan.strategy[2:], "faithful"))
                sigma = res.state
                ledger.append((res.probability, res.formula_probability))
        return sigma, np.array(ledger)

    @staticmethod
    def assert_matches(trajectory, want):
        sigma, ledger = want
        assert np.max(np.abs(trajectory.final_state - sigma)) <= 1e-12
        got = np.stack([trajectory.ledger.exact, trajectory.ledger.formula], axis=1)
        assert np.max(np.abs(got - ledger) / ledger) <= 1e-12

    @pytest.mark.parametrize("strategy", ["A", "B-local", "B-global"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_run_rows_matches_the_step_functions(self, n, strategy):
        dec = self.decomposition(n, 80 + n)
        plans = [make_plan(dec, beta, 6, strategy) for beta in (0.0, 0.2, 0.4)]
        psi = random_unit_vector(np.random.default_rng(90 + n), 2**n)
        for trajectory, plan in zip(run_rows(plans, psi), plans):
            assert trajectory.final_state.dtype == np.complex128
            self.assert_matches(trajectory, self.reference(plan, psi))

    def test_a_trotter_step_folded_between_windows_matches_the_step_functions(self):
        # the periodic n = 8 chain: 24 terms in 16 merged windows, so each
        # Trotter step folds after term 21, where a window ends, and again at
        # its end.  Strategy A must match the per-term step loop; B-local its
        # states, with ln p per Trotter step the sum of the loop's per term.
        # Each row must be bit for bit the same alone and in either order
        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(8, 1.0, 5.0, "periodic"))
        windows = kernels_mod._windows(list(dec.terms))
        assert (dec.ell, len(windows), kernels_mod._FOLD_EVERY) == (24, 16, 21)
        assert [19, 20] in windows and [21, 22] in windows  # the fold ends a merged window
        psi = random_unit_vector(np.random.default_rng(140), 2**dec.n)
        with pytest.warns(UserWarning, match="delta"):  # max |delta| = 0.4
            plans = {s: [make_plan(dec, beta, 3, s) for beta in (0.04, 0.12)] for s in ("A", "B-local")}
        wants = [self.reference(plan, psi) for plan in plans["A"]]
        for strategy, rows in plans.items():
            full = run_rows(rows, psi)
            for trajectory, (sigma, ledger) in zip(full, wants):
                if strategy == "A":
                    self.assert_matches(trajectory, (sigma, ledger))
                    continue
                assert np.max(np.abs(trajectory.final_state - sigma)) <= 1e-12
                want = np.log(ledger[:, 0]).reshape(3, dec.ell).sum(axis=1)
                assert np.max(np.abs(np.log(trajectory.ledger.exact) - want)) <= 1e-12
            for chunk in ([0], [1], [1, 0]):
                for row, t in zip(chunk, run_rows([rows[i] for i in chunk], psi)):
                    assert np.array_equal(t.final_state, full[row].final_state)
                    assert np.array_equal(t.ledger.exact, full[row].ledger.exact)
                    assert np.array_equal(t.ledger.formula, full[row].ledger.formula)

    @pytest.mark.parametrize("strategy", ["A", "B-local", "B-global"])
    def test_a_complex_pauli_model_matches_the_step_functions(self, strategy):
        # full-register Y strings: complex resources in the block form, from
        # the real start |+>^n
        dec = decompose_pauli_generic(load_config(PAULI_Y4).model)
        plans = [make_plan(dec, beta, 8, strategy) for beta in (0.05, 0.1)]
        psi = np.full(16, 0.25)
        for trajectory, plan in zip(run_rows(plans, psi), plans):
            self.assert_matches(trajectory, self.reference(plan, psi))

    @pytest.mark.parametrize("strategy", ["A", "B-local", "B-global"])
    @pytest.mark.parametrize("model", ["random", "pauli_y4"])
    def test_a_row_is_the_same_alone_in_chunks_and_in_the_stack(self, model, strategy):
        dec = (self.decomposition(3, 99) if model == "random"
               else decompose_pauli_generic(load_config(PAULI_Y4).model))
        plans = [make_plan(dec, beta, 8, strategy) for beta in (0.0, 0.02, 0.05, 0.08, 0.1)]
        psi = np.full(2**dec.n, 2 ** (-dec.n / 2))
        full = run_rows(plans, psi)
        for chunk in ([0], [3], [0, 1], [2, 3, 4], [4, 1]):
            for row, t in zip(chunk, run_rows([plans[i] for i in chunk], psi)):
                assert np.array_equal(t.final_state, full[row].final_state)
                assert np.array_equal(t.ledger.exact, full[row].ledger.exact)
                assert np.array_equal(t.ledger.formula, full[row].ledger.formula)

    @pytest.mark.parametrize("model", [2, 3, 4, 5, "pauli_y4"])
    def test_b_local_is_strategy_a_with_one_entry_per_step(self, model):
        # B-local shares strategy A's chain, so the step-function loop above
        # is no independent reference for it: check it against strategy A
        # (states, and ln p per Trotter step against the sum of A's per-term
        # ln p) and its formula probability against a dense Tr[A sigma A] /
        # 2^l, with A = I - (beta / N) W, along A's step-function loop
        dec = (decompose_pauli_generic(load_config(PAULI_Y4).model) if model == "pauli_y4"
               else self.decomposition(model, 80 + model))
        n_steps, betas = 16, (0.0, 0.1, 0.2)
        psi = random_unit_vector(np.random.default_rng(90 + dec.n), 2**dec.n)
        a_rows = run_rows([make_plan(dec, beta, n_steps, "A") for beta in betas], psi)
        b_rows = run_rows([make_plan(dec, beta, n_steps, "B-local") for beta in betas], psi)
        for beta, a, b in zip(betas, a_rows, b_rows):
            assert np.max(np.abs(b.final_state - a.final_state)) <= 1e-12
            ln_a = np.log(a.ledger.exact).reshape(n_steps, dec.ell).sum(axis=1)
            assert np.max(np.abs(np.log(b.ledger.exact) - ln_a)) <= 1e-12
            a_op = np.eye(2**dec.n) - beta / n_steps * dec.operator
            sigma = np.outer(psi, psi.conj())
            for got in b.ledger.formula:
                want = np.trace(a_op @ sigma @ a_op).real / 2**dec.ell
                assert abs(got - want) <= 1e-12 * want
                for term, delta in zip(dec.terms, a.plan.deltas):
                    sigma = step_strategy_a(sigma, term, delta, "faithful").state

    @pytest.mark.parametrize("strategy", ["A", "B-local", "B-global"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_run_rows_matches_the_transfer_matrices(self, n, strategy):
        # the one faithful reference that shares no code with the engine, over
        # a long run: N = 400 steps, every ledger entry
        dec = self.decomposition(n, 110 + n)
        plans = [make_plan(dec, beta, 400, strategy) for beta in (0.5, 2.0)]
        psi = random_unit_vector(np.random.default_rng(120 + n), 2**n)
        for trajectory, plan in zip(run_rows(plans, psi), plans):
            self.assert_matches(trajectory, faithful_transfer(plan, psi))

    @pytest.mark.parametrize("strategy", ["A", "B-local"])
    def test_block_form_windows_of_many_rest_blocks_match_the_transfer_matrices(self, monkeypatch,
                                                                               strategy):
        # with one qubit the widest matrix form, every pair term is a block-form
        # window of r = 4 rest blocks, 10 of them on the half stack, diagonal
        # and off-diagonal blocks each mapped on its own; the random model's
        # complex resources conjugate the mirrored entries of every gather
        import sbqs.kernels as kernels_mod

        monkeypatch.setattr(kernels_mod, "_MATRIX_QUBITS", 1)
        dec = self.decomposition(4, 114)
        plans = [make_plan(dec, beta, 40, strategy) for beta in (0.5, 2.0)]
        chain = kernels_mod._Chain(list(zip(dec.terms, plans[0].deltas)), 4, np.zeros((1, 16, 16), complex))
        widths = {len(w.support) for w in chain.windows if w.matrix is None}
        assert widths == {2, 4} and chain.windows[2].index.size == 10 * 16
        psi = random_unit_vector(np.random.default_rng(124), 16)
        for trajectory, plan in zip(run_rows(plans, psi), plans):
            self.assert_matches(trajectory, faithful_transfer(plan, psi))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("model", ["fig2_left", "pauli_y4", "random"])
    def test_a_final_state_is_hermitian_bit_for_bit(self, model, strategy):
        # the half stack holds each entry or its mirror, and the way back to
        # the canonical layout reads an entry and its mirror off one number:
        # the real fig2_left chain, the complex pauli_y4 model (bglobal_y4's)
        # in the block form and a random model whose complex resources take
        # the matrix form.  B-global's leaks are summed on the half stack
        # with its A sigma A, which leaves it once per Trotter step
        if model == "fig2_left":
            dec = decompose_ising_local(IsingParams(4, 1.0, 5.0, "periodic"))
            betas, n_steps = np.linspace(0.0, 2.0, 9), 400
        else:
            dec = (decompose_pauli_generic(load_config(PAULI_Y4).model) if model == "pauli_y4"
                   else self.decomposition(3, 83))
            betas, n_steps = (0.0, 0.5, 1.0), 100
        psi = np.full(2**dec.n, 2 ** (-dec.n / 2))
        for t in run_rows([make_plan(dec, beta, n_steps, strategy) for beta in betas], psi):
            assert np.array_equal(t.final_state, t.final_state.conj().T)

    def test_a_b_global_runs_map_lookups_do_not_grow_with_its_steps(self):
        # the run binds its leaks' maps when it builds its step, once
        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(4, 1.0, 0.7, "periodic"))
        lookups = []
        for n_steps in (5, 10):
            before = kernels_mod._map.cache_info()
            run_rows([make_plan(dec, beta, n_steps, "B-global") for beta in (0.05, 0.1)],
                     np.full(16, 0.25))
            after = kernels_mod._map.cache_info()
            lookups.append(after.hits + after.misses - before.hits - before.misses)
        assert lookups[0] == lookups[1] > 0

    def test_a_b_global_step_builds_no_layout(self, monkeypatch):
        # with every map built by the run, no Trotter step of it calls _layout
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod

        stepping, layouts = [], []
        real_layout, real_measure = kernels_mod._layout, engine_mod._measure

        def layout(*args):
            layouts.append(bool(stepping))
            return real_layout(*args)

        def measure(*args, **kwargs):
            stepping.append(True)
            try:
                return real_measure(*args, **kwargs)
            finally:
                stepping.pop()

        monkeypatch.setattr(kernels_mod, "_layout", layout)
        monkeypatch.setattr(engine_mod, "_measure", measure)
        kernels_mod._map.cache_clear()  # the run builds its maps
        dec = decompose_ising_local(IsingParams(4, 1.0, 0.7, "periodic"))
        run_rows([make_plan(dec, beta, 5, "B-global") for beta in (0.05, 0.1)], np.full(16, 0.25))
        assert layouts and not any(layouts)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(5, 7), boundary=st.sampled_from(["open", "periodic"]),
           J=st.floats(-2.0, 2.0).filter(lambda x: abs(x) >= 0.1),
           B=st.floats(-2.0, 2.0).filter(lambda x: abs(x) >= 0.1),
           n_steps=st.integers(2, 4), share=st.floats(0.1, 0.95))
    def test_small_local_chains_keep_their_faithful_invariants(self, n, boundary, J, B, n_steps, share):
        # random local models at n = 5-7, a few Trotter steps of each faithful
        # strategy, every |delta| below make_plan's warning, against the
        # effective row of its plan (strategy A's for B-local)
        dec = decompose_ising_local(IsingParams(n, J, B, boundary))
        beta = share * DELTA_WARN * n_steps / max(abs(term.weight) for term in dec.terms)
        psi = np.full(2**n, 2 ** (-n / 2))
        for strategy in ("A", "B-local", "B-global"):
            (row,) = run_rows([make_plan(dec, beta, n_steps, strategy)], psi)
            plan = replace(row.plan, strategy="A" if strategy == "B-local" else strategy, mode="effective")
            faithful_invariants(row, run(plan, psi))

    def test_faithful_runs_at_n8_keep_their_invariants(self):
        # where no transfer matrix reaches: the periodic n = 8 chain with
        # every |delta| <= 0.1, each faithful row against its effective row
        # (strategy A's for B-local), through oracles.faithful_invariants
        dec = decompose_ising_local(IsingParams(8, 1.0, 1.0, "periodic"))
        psi = np.full(256, 1 / 16)
        for strategy, n_steps, betas in (("A", 80, (0.5, 2.0)), ("B-local", 80, (0.5, 2.0)),
                                         ("B-global", 20, (0.25, 0.5))):
            rows = run_rows([make_plan(dec, beta, n_steps, strategy) for beta in betas], psi)
            for row in rows:
                plan = replace(row.plan, strategy="A" if strategy == "B-local" else strategy,
                               mode="effective")
                faithful_invariants(row, run(plan, psi))

    def test_a_row_extinct_mid_chain_leaves_the_others_on_the_reference(self, monkeypatch):
        # the doomed row dies inside a Trotter step, with its stack in a
        # kernel's layout and unnormalized: it stays zeroed, and the survivors
        # still come back in the canonical layout, on the step-function loop.
        # The chain normalizes once per Trotter step and the step functions on
        # every call, so the doomed row's ledger is bit for bit that of an
        # unforced run and within 1e-12 of the loop
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(3, 1.0, 0.7, "periodic"))
        plans = [make_plan(dec, beta, 60) for beta in (0.0, 0.5, 1.0)]
        psi = np.full(8, 8**-0.5)
        unforced = run_rows(plans, psi)
        wants = [self.reference(plan, psi) for plan in plans]
        lows = [ledger[:, 0].min() for _, ledger in wants]
        doomed = int(np.argmin(lows))
        level = (lows[doomed] + min(low for i, low in enumerate(lows) if i != doomed)) / 2
        dies_at = int(np.argmax(wants[doomed][1][:, 0] <= level))
        assert 0 < dies_at and dies_at % dec.ell != dec.ell - 1
        for module in (engine_mod, kernels_mod):  # both layers read it
            monkeypatch.setattr(module, "EXTINCTION_P", level)
        batch = run_rows(plans, psi)
        assert batch[doomed].final_state is None
        step_id = batch[doomed].ledger.step_id(dies_at)
        assert batch[doomed].extinction.endswith(f" at step {step_id}")
        got = batch[doomed].ledger.exact
        assert np.array_equal(got, unforced[doomed].ledger.exact[:dies_at])
        want = wants[doomed][1][:dies_at, 0]
        assert np.max(np.abs(got - want) / want) <= 1e-12
        for i, (t, want) in enumerate(zip(batch, wants)):
            if i != doomed:
                self.assert_matches(t, want)

    def test_a_row_extinct_before_a_mid_step_fold_ends_where_it_did(self, monkeypatch):
        # the periodic n = 8 chain from |1...1>: 24 terms, so each Trotter step
        # folds after term 21 as well as at its end.  Forced to its lowest
        # probability, the beta = 0.3 row dies at x(0), the 9th term of the
        # 4th step, before that fold.  It must end at the entry, probability
        # and step id that per-step division gave (4.9, 0.37069672458577013),
        # its ledger its unforced one up to there, and the survivors must not
        # move
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(8, 1.0, 0.7, "periodic"))
        assert dec.ell > kernels_mod._FOLD_EVERY
        with pytest.warns(UserWarning, match="delta"):
            plans = [make_plan(dec, beta, 6) for beta in (0.0, 0.15, 0.3)]
        psi = np.eye(256)[255]
        unforced = run_rows(plans, psi)
        level = unforced[2].ledger.exact.min()
        dies_at = int(np.argmax(unforced[2].ledger.exact <= level))
        assert dies_at == 3 * dec.ell + 8 and dec.terms[8].label == "x(0)"
        assert min(t.ledger.exact.min() for t in unforced[:2]) > level
        for module in (engine_mod, kernels_mod):  # both layers read it
            monkeypatch.setattr(module, "EXTINCTION_P", level)
        batch = run_rows(plans, psi)
        assert batch[2].final_state is None
        assert batch[2].extinction == "post-selection probability 3.707e-01 at step 4.9"
        assert batch[2].extinction_probability == level
        assert level == pytest.approx(0.37069672458577013, rel=1e-12)
        assert np.array_equal(batch[2].ledger.exact, unforced[2].ledger.exact[:dies_at])
        assert np.array_equal(batch[2].ledger.formula, unforced[2].ledger.formula[:dies_at])
        with pytest.raises(ExtinctionError) as err:
            run(plans[2], psi)
        assert err.value.probability == level and str(err.value) == batch[2].extinction
        for t, ref in zip(batch[:2], unforced):
            assert t.extinction is None
            assert np.array_equal(t.final_state, ref.final_state)
            assert np.array_equal(t.ledger.exact, ref.ledger.exact)
            assert np.array_equal(t.ledger.formula, ref.ledger.formula)

    def test_a_b_local_row_extinct_mid_step_reports_the_step_probability(self, monkeypatch):
        # the doomed row's first measurement of its second Trotter step (a
        # term that penalizes |1> at delta = 0.9, after one that favours it)
        # falls to the raised extinction level, which leaves its running
        # trace as it was for the second measurement: the step's probability
        # must still be the product of the two true ones, which a product of
        # ratios to that trace would count the first of twice
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod

        one = np.diag([0.0, 1.0])
        dec = ResourceDecomposition(2, (ResourceTerm(1.0, one, (0,), "pen"),
                                        ResourceTerm(-1.0, one, (0,), "fav")), 0.0, "pauli-generic")
        with pytest.warns(UserWarning, match="delta"):
            plans = [make_plan(dec, beta, 30, "B-local") for beta in (0.0, 6.0, 27.0)]
            per_term = faithful_transfer(make_plan(dec, 27.0, 30, "A"), np.eye(4)[0])[1][:, 0]
        psi = np.eye(4)[0]
        unforced = run_rows(plans, psi)
        want = faithful_transfer(plans[2], psi)[1][:, 0]
        dies_at, level = 1, per_term[2] * (1 + 1e-9)  # at or above the engine's value
        assert want[0] > level and min(t.ledger.exact.min() for t in unforced[:2]) > level
        for module in (engine_mod, kernels_mod):  # both layers read it
            monkeypatch.setattr(module, "EXTINCTION_P", level)
        batch = run_rows(plans, psi)
        assert batch[2].final_state is None
        assert batch[2].extinction == f"post-selection probability {want[dies_at]:.3e} at step 2"
        assert np.array_equal(batch[2].ledger.exact, unforced[2].ledger.exact[:dies_at])
        with pytest.raises(ExtinctionError) as err:
            run(plans[2], psi)
        assert abs(err.value.probability - want[dies_at]) <= 1e-12 * want[dies_at]
        for t, ref in zip(batch[:2], unforced):
            assert t.extinction is None
            assert np.array_equal(t.final_state, ref.final_state)
            assert np.array_equal(t.ledger.exact, ref.ledger.exact)
            assert np.array_equal(t.ledger.formula, ref.ledger.formula)

    @pytest.mark.parametrize("strategy", ["A", "B-local", "B-global"])
    def test_an_extinct_row_keeps_the_probability_a_run_raises(self, monkeypatch, strategy):
        # a row forced extinct in a stack carries the probability that ended
        # it, bit for bit the one ExtinctionError carries for its plan alone
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(3, 1.0, 0.7, "periodic"))
        plans = [make_plan(dec, beta, 60, strategy) for beta in (0.0, 0.5, 1.0)]
        psi = np.full(8, 8**-0.5)
        lows = [t.ledger.exact.min() for t in run_rows(plans, psi)]
        doomed = int(np.argmin(lows))
        level = (lows[doomed] + min(low for i, low in enumerate(lows) if i != doomed)) / 2
        for module in (engine_mod, kernels_mod):  # both layers read it
            monkeypatch.setattr(module, "EXTINCTION_P", level)
        batch = run_rows(plans, psi)
        with pytest.raises(ExtinctionError) as err:
            run(plans[doomed], psi)
        p = batch[doomed].extinction_probability
        assert type(p) is float and p == err.value.probability and p <= level
        assert batch[doomed].extinction == str(err.value)
        assert [t.extinction_probability for t in batch].count(None) == 2

    @pytest.mark.parametrize("support", [(2,), (2, 0), (3, 1, 0), (3, 1, 0, 2)])
    def test_a_standalone_a_step_is_one_step_of_a_run(self, support):
        # a public faithful strategy-A step runs the one-step chain a run
        # makes: the state and both probabilities bit for bit, on one state
        # and on a stack, for terms in the matrix form (a real one on one
        # site) and a full-register term in the block form
        rng = np.random.default_rng(130 + len(support))
        rho, sigma = random_density(rng, 2 ** len(support)), random_density(rng, 16)
        if len(support) == 1:
            rho, sigma = rho.real, sigma.real
        term = ResourceTerm(1.0, rho, support, "t")
        dec = ResourceDecomposition(4, (term,), 0.0, "pauli-generic")
        plans = [make_plan(dec, beta, 1) for beta in (0.03, 0.06, 0.09)]
        deltas = np.array([plan.deltas[0] for plan in plans])
        stacked = step_strategy_a(np.repeat(sigma[None], 3, axis=0), term, deltas, "faithful")
        for i, (plan, t) in enumerate(zip(plans, run_rows(plans, sigma))):
            alone = step_strategy_a(sigma, term, plan.deltas[0], "faithful")
            assert t.final_state.dtype == (float if len(support) == 1 else complex)
            for got in (alone, StepResult(*(field[i] for field in stacked))):
                assert np.array_equal(got.state, t.final_state)
                assert got.probability == t.ledger.exact[0]
                assert got.formula_probability == t.ledger.formula[0]

    def test_windows_merge_consecutive_terms_no_wider_than_the_widest_matrix_term(self):
        # a window is a maximal run of consecutive terms of one Trotter step,
        # in order, whose union support is no wider than the widest term in the
        # matrix form; a block-form term stands alone
        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(4, 1.0, 5.0, "periodic"))
        labels = [[dec.terms[k].label for k in window]
                  for window in kernels_mod._windows(list(dec.terms))]
        assert labels == [["xx(0,1)"], ["xx(1,2)"], ["xx(2,3)"], ["xx(3,0)", "x(0)"],
                          ["x(1)", "x(2)"], ["x(3)", "z(0)"], ["z(1)", "z(2)"], ["z(3)"]]
        models = [self.decomposition(n, 80 + n) for n in (2, 3, 4, 5)]
        models.append(decompose_pauli_generic(load_config(PAULI_Y4).model))
        for dec in models:
            terms = list(dec.terms)
            windows = kernels_mod._windows(terms)
            assert [k for window in windows for k in window] == list(range(len(terms)))
            widest = max((len(t.support) for t in terms
                          if len(t.support) <= kernels_mod._MATRIX_QUBITS), default=0)
            for window in windows:
                union = {q for k in window for q in terms[k].support}
                assert len(window) == 1 or len(union) <= widest
            if dec.n == 3:  # the full-register term takes the matrix form
                assert windows == [list(range(len(terms)))]
            for k, term in enumerate(terms):
                if len(term.support) > kernels_mod._MATRIX_QUBITS:
                    assert [k] in windows

    def test_rows_extinct_in_one_trotter_step_end_at_their_own_first_entry(self, monkeypatch):
        # from |11>, each term |1><1| leaves the state as it is, with p = (1 -
        # delta)^2 / (2 (1 + delta^2)), falling with delta = beta w / N.  At a
        # raised extinction level, three rows die in the first Trotter step at
        # its second, third and fourth measurement: the first two in one
        # window, the third in the next, and the first two stay at or below
        # the level after.  Extinction is checked once per step: each ledger must end at
        # its row's first entry at or below the level, with the probability a
        # run of its plan alone raises, and the survivors must not move
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod

        one, zero = np.diag([0.0, 1.0]), np.diag([1.0, 0.0])
        dec = ResourceDecomposition(2, (ResourceTerm(1.0, zero, (1,), "lead"),
                                        ResourceTerm(1.0, one, (0,), "a"),
                                        ResourceTerm(2.0, one, (0,), "b"),
                                        ResourceTerm(3.0, one, (1,), "c")), 0.0, "pauli-generic")
        assert kernels_mod._windows(list(dec.terms)) == [[0], [1, 2], [3]]
        with pytest.warns(UserWarning, match="delta"):
            plans = [make_plan(dec, beta, 10) for beta in (0.0, 0.5, 0.7, 1.0, 2.0)]
        psi = np.eye(4)[3]
        unforced = run_rows(plans, psi)
        level = 0.32
        for module in (engine_mod, kernels_mod):  # both layers read it
            monkeypatch.setattr(module, "EXTINCTION_P", level)
        batch = run_rows(plans, psi)
        dies_at = {2: 3, 3: 2, 4: 1}
        for row, (t, ref, plan) in enumerate(zip(batch, unforced, plans)):
            if row not in dies_at:
                assert t.extinction is None and ref.ledger.exact.min() > level
                assert np.array_equal(t.final_state, ref.final_state)
                assert np.array_equal(t.ledger.exact, ref.ledger.exact)
                assert np.array_equal(t.ledger.formula, ref.ledger.formula)
                continue
            at = dies_at[row]
            assert (ref.ledger.exact[:at] > level).all() and ref.ledger.exact[at] <= level
            assert t.final_state is None
            assert np.array_equal(t.ledger.exact, ref.ledger.exact[:at])
            assert np.array_equal(t.ledger.formula, ref.ledger.formula[:at])
            assert t.extinction.endswith(f" at step 1.{at + 1}")
            with pytest.raises(ExtinctionError) as err:
                run(plan, psi)
            assert t.extinction_probability == err.value.probability == ref.ledger.exact[at]
            assert t.extinction == str(err.value)
        assert (unforced[4].ledger.exact[2:4] <= level).all() and unforced[3].ledger.exact[3] <= level

    def test_a_b_local_step_of_two_folds_ends_where_only_their_product_is_extinct(self):
        # 42 terms rho = I/2 at delta = 0.99: every p is 1/4, so each fold of
        # 21 terms reads q = 4^-21 = 2.3e-13, above 2 EXTINCTION_P, while the
        # step's one B-local entry, their product, is 5e-26: its folds must be
        # held to the square root of that bar, and the row ends at step 1
        terms = tuple(ResourceTerm(0.99, np.eye(2) / 2, (0,), f"t{i}") for i in range(42))
        dec = ResourceDecomposition(1, terms, 0.0, "pauli-generic")
        with pytest.warns(UserWarning, match="delta"):
            plan = make_plan(dec, 2.0, 2, "B-local")
        (t,) = run_rows([plan], np.array([0.6, 0.8]))
        assert t.extinction.endswith(" at step 1") and len(t.ledger.exact) == 0
        assert t.extinction_probability == pytest.approx(0.25**42, rel=1e-12)

    @staticmethod
    def fig2_left_chain(psi):
        """fig2_left's 9-row chain (n = 4, N = 400) with ``psi`` entered."""
        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(4, 1.0, 5.0, "periodic"))
        deltas = np.array([make_plan(dec, beta, 400).deltas for beta in np.linspace(0.0, 2.0, 9)]).T
        stack = np.repeat(np.outer(psi, psi.conj())[None], 9, axis=0)
        chain = kernels_mod._Chain(list(zip(dec.terms, deltas)), dec.n, stack)
        chain.last.enter(stack, out=chain.state)
        return dec, chain

    def test_a_windows_traces_are_its_per_block_products_summed(self):
        # a window reads its terms' traces of Tr_rest sigma in one product of
        # its r diagonal blocks, end to end, with its functional tiled over
        # them: after one step they must equal the products of each diagonal
        # block with the functional, summed over the blocks, read off the half
        # stack each window gathers
        import sbqs.kernels as kernels_mod

        psi = random_unit_vector(np.random.default_rng(150), 16).real
        dec, chain = self.fig2_left_chain(psi / np.linalg.norm(psi))
        gathered = []
        for call in chain.calls:  # one step, with each window's gathered half stack kept
            call()
            if call.func.__name__ == "take":
                gathered.append(call.args[2].copy())
        want = np.zeros_like(chain.sums)
        windows = kernels_mod._windows(list(dec.terms))
        assert len(gathered) == len(windows) == len(chain.windows) == 8
        for x, g, window in zip(gathered, windows, chain.windows):
            r, s2 = 2 ** (dec.n - len(window.support)), 4 ** len(window.support)
            blocks = x.reshape(9, -1, s2)[:, :r] @ window.functional
            want[:, 2 * g[0] + 1:2 * g[-1] + 3] = blocks.sum(axis=1)
        traces = chain.sums[:, 1:]
        assert np.max(np.abs(traces - want[:, 1:]) / np.abs(want[:, 1:])) <= 1e-15

    def test_a_strategy_a_fold_is_one_compare_and_one_divide(self):
        # fig2_left's step: 8 windows of a take, a trace product and a GEMM,
        # and at its one fold a compare with the two bars and one divide of
        # the window's matrix by q, with no reduce, fill or reciprocal
        dec, chain = self.fig2_left_chain(np.full(16, 0.25))
        names = [call.func.__name__ for call in chain.calls]
        assert dec.ell <= 21 and len(chain.folds) == 1
        assert len(names) == 3 * 8 + 2
        assert Counter(names) == {"take": 8, "matmul": 16, "greater_equal": 1, "divide": 1}

    def test_a_row_zeroed_in_extinct3s_stack_raises_no_float_error(self, monkeypatch):
        # extinct3's stack over 5 Trotter steps: the row at delta = 1 - 1e-7
        # dies at its x(0) term in the first, and from then on its q is 0, so
        # each fold's divide skips it and it keeps its last, finite K/q.
        # With every float error raised, its zeroed row stays finite, and the
        # other rows are bit for bit themselves run alone and in chunks
        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(3, 1.0, 1.0, "periodic"))
        with pytest.warns(UserWarning, match="delta"):
            plans = [make_plan(dec, beta, 5) for beta in (0.0, 0.025, 0.05, 1.249999875)]
        assert 1 - max(plans[3].deltas) == pytest.approx(1e-7, rel=1e-8)
        psi = np.full(8, 8**-0.5)
        doomed, real = [], kernels_mod._Chain.step
        monkeypatch.setattr(kernels_mod._Chain, "step", lambda chain, traces: (
            real(chain, traces), doomed.append(chain.state[-1].copy()))[0])
        with np.errstate(all="raise"):
            full = run_rows(plans, psi)
            assert len(doomed) == 5 and np.isfinite(doomed).all() and not np.any(doomed[1:])
            assert full[3].final_state is None and full[3].extinction.endswith(" at step 1.4")
            for chunk in ([0], [2], [1, 2], [2, 0, 1], [0, 3], [3, 1]):
                for row, t in zip(chunk, run_rows([plans[i] for i in chunk], psi)):
                    if row == 3:
                        assert t.extinction == full[3].extinction
                        assert np.array_equal(t.ledger.exact, full[3].ledger.exact)
                        continue
                    assert t.extinction is None
                    assert np.array_equal(t.final_state, full[row].final_state)
                    assert np.array_equal(t.ledger.exact, full[row].ledger.exact)
                    assert np.array_equal(t.ledger.formula, full[row].ledger.formula)

    def test_a_step_allocates_nothing_the_size_of_a_map(self):
        # a chain's step replays numpy calls bound once to its buffers: the
        # index maps are intp, which take reads without a converted copy (an
        # n = 8 half map of 33,280 entries, 260 KiB), and the fold writes its
        # q, guard and scaled matrices into buffers of its own
        import tracemalloc

        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(8, 1.0, 0.7, "periodic"))
        deltas = np.array([make_plan(dec, beta, 400).deltas for beta in (0.5, 1.0, 2.0)]).T
        stack = np.full((3, 256, 256), 1 / 256)
        chain = kernels_mod._Chain(list(zip(dec.terms, deltas)), 8, stack)
        chain.last.enter(stack, out=chain.state)
        traces = np.zeros((3, 2 * dec.ell + 1))
        for _ in range(2):
            chain.step(traces)
        tracemalloc.start()
        try:
            for _ in range(3):
                chain.step(traces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


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

    @pytest.mark.parametrize("strategy", ["A", "B-global"])
    def test_a_replaced_step_count_is_a_plan_of_its_own(self, strategy):
        # the deltas derive from beta and N, and every plan is checked: a plan
        # with N replaced runs as make_plan's bit for bit, and one whose max
        # |delta| reaches 1 (10 at N = 2) is refused
        dec = decompose_ising_local(IsingParams(4, 1.0, 5.0, "periodic"))
        with pytest.warns(UserWarning, match="delta"):
            replaced = replace(make_plan(dec, 2.0, 400, strategy), n_steps=40)
        with pytest.warns(UserWarning, match="delta"):
            built = make_plan(dec, 2.0, 40, strategy)
        assert replaced.deltas == built.deltas
        psi = np.full(16, 0.25)
        (got,), (want,) = run_rows([replaced], psi), run_rows([built], psi)
        assert np.array_equal(got.ledger.exact, want.ledger.exact)
        assert np.array_equal(got.ledger.formula, want.ledger.formula)
        assert np.array_equal(got.final_state, want.final_state)
        with pytest.raises(PlanError, match="= 10 >= 1"):
            replace(built, n_steps=2)

    def test_validation(self):
        dec = decompose_ising_local(IsingParams(2, 1.0, 1.0, "open"))
        with pytest.raises(PlanError):
            make_plan(dec, 1.0, 0)
        with pytest.raises(PlanError):
            make_plan(dec, 1.0, 10, strategy="C")
        with pytest.raises(PlanError):
            make_plan(dec, 1.0, 10, mode="approximate")
        for beta in (np.nan, np.inf):
            with pytest.raises(PlanError, match="beta"):
                make_plan(dec, beta, 10)
        # 10.5 would size delta with N = 10.5 but run 10 steps
        for n_steps in (10.5, 10.0, True):
            with pytest.raises(PlanError, match="integer"):
                make_plan(dec, 0.1, n_steps)


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

    def test_run_rows_needs_plans_that_differ_only_in_beta(self):
        dec = toy_decomposition(2, seed=8)
        plan = make_plan(dec, 0.1, 3, "A", "faithful")
        assert run_rows([], PLUS) == []
        for other in (make_plan(dec, 0.2, 4, "A", "faithful"),
                      make_plan(dec, 0.2, 3, "B-global", "faithful"),
                      make_plan(dec, 0.2, 3, "A", "effective"),
                      make_plan(toy_decomposition(2, seed=8), 0.2, 3, "A", "faithful")):
            with pytest.raises(ValueError, match="run_rows"):
                run_rows([plan, other], PLUS)
        with pytest.raises(ValueError, match="shape"):
            run_rows([plan], np.eye(4, dtype=complex) / 4)

    def test_an_extinct_row_keeps_its_kernels_and_the_others_go_on(self, monkeypatch):
        # one row of three falls below a raised extinction level mid-run: it
        # stays in the stack, zeroed at the end of that Trotter step, so each
        # term's kernel is built once (not again for the survivors), and the
        # survivors' bits do not move
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(3, 1.0, 0.7, "periodic"))
        plans = [make_plan(dec, beta, 60, "A", "faithful") for beta in (0.0, 0.5, 1.0)]
        psi = np.full(8, 8**-0.5, dtype=complex)
        unforced = run_rows(plans, psi)
        lows = [t.ledger.exact.min() for t in unforced]
        doomed = int(np.argmin(lows))
        level = (lows[doomed] + min(low for i, low in enumerate(lows) if i != doomed)) / 2
        dies_at = int(np.argmax(unforced[doomed].ledger.exact <= level))
        assert 0 < dies_at < len(unforced[doomed].ledger.exact) - 1
        for module in (engine_mod, kernels_mod):  # both layers read it
            monkeypatch.setattr(module, "EXTINCTION_P", level)
        built, doomed_size = [], []  # doomed_size[j]: max |entry| of its row entering step j
        real_kernel, real_step = kernels_mod._swap_kernel, kernels_mod._Chain.step
        monkeypatch.setattr(kernels_mod, "_swap_kernel",
                            lambda *args: built.append(1) or real_kernel(*args))
        monkeypatch.setattr(kernels_mod._Chain, "step", lambda chain, traces: (
            doomed_size.append(np.abs(chain.state[doomed]).max()) or real_step(chain, traces)))

        batch = run_rows(plans, psi)
        assert len(built) == dec.ell
        assert len(doomed_size) == len(unforced[0].ledger.exact) // dec.ell
        ends = dies_at // dec.ell + 1  # the Trotter steps through the one it dies in
        assert ends < len(doomed_size)
        assert doomed_size[ends - 1] > 0 and max(doomed_size[ends:]) == 0
        assert batch[doomed].final_state is None
        assert len(batch[doomed].ledger.exact) == dies_at
        step_id = batch[doomed].ledger.step_id(dies_at)
        assert batch[doomed].extinction.endswith(f" at step {step_id}")
        for i, (t, ref) in enumerate(zip(batch, unforced)):
            if i != doomed:
                assert t.extinction is None
                assert np.array_equal(t.final_state, ref.final_state)
                assert np.array_equal(t.ledger.exact, ref.ledger.exact)

    def test_the_extinction_branch_runs_only_in_the_step_a_row_dies(self, monkeypatch):
        # a zeroed row reads p = 0 at every later measurement: the check skips
        # it, so of 60 Trotter steps only the first, where one row of three
        # dies, takes the branch, and the survivors do not move
        import sys

        import sbqs.engine as engine_mod

        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(3, 1.0, 0.7, "periodic"))
        plans = [make_plan(dec, beta, 60, "A", "faithful") for beta in (0.0, 0.5, 1.0)]
        psi = np.full(8, 8**-0.5)
        unforced = run_rows(plans, psi)
        first = [t.ledger.exact[:dec.ell].min() for t in unforced]
        doomed = int(np.argmin(first))
        others = min(t.ledger.exact.min() for i, t in enumerate(unforced) if i != doomed)
        assert first[doomed] < others
        for module in (engine_mod, kernels_mod):  # both layers read it
            monkeypatch.setattr(module, "EXTINCTION_P", (first[doomed] + others) / 2)
        branch, real = [], np.flatnonzero

        def counting(*args, **kwargs):
            if sys._getframe(1).f_code is engine_mod._advance.__code__:
                branch.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "flatnonzero", counting)
        batch = run_rows(plans, psi)
        assert len(branch) == 1
        assert batch[doomed].final_state is None and len(batch[doomed].ledger.exact) < dec.ell
        for i, (t, ref) in enumerate(zip(batch, unforced)):
            if i != doomed:
                assert t.extinction is None
                assert np.array_equal(t.final_state, ref.final_state)
                assert np.array_equal(t.ledger.exact, ref.ledger.exact)
                assert np.array_equal(t.ledger.formula, ref.ledger.formula)

    def test_a_chain_reads_a_steps_ratios_only_where_a_live_row_may_be_extinct(self, monkeypatch):
        # every faithful p < 1, so no entry of a row whose Trotter step's
        # trace is above twice EXTINCTION_P is at or below it: a run divides
        # its raw traces once, at its end, and before that only in a step in
        # which a live row's trace is that low.  At delta = 1 - 1e-7 the x(0)
        # term, aligned with |+>, ends a row in the first step at the real
        # EXTINCTION_P; its zeroed row must not make a later step read them
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(3, 1.0, 1.0, "periodic"))
        with pytest.warns(UserWarning, match="delta"):
            plans = [make_plan(dec, beta, 100) for beta in (0.5, 24.9999975)]
        psi = np.full(8, 8**-0.5)
        (alone,) = run_rows(plans[:1], psi)
        steps, real = [], kernels_mod._Chain.ratios
        monkeypatch.setattr(kernels_mod._Chain, "ratios",
                            lambda chain, record, *out: steps.append(len(record)) or real(chain, record, *out))
        survivor, extinct = run_rows(plans, psi)
        assert steps == [1, 100]
        assert extinct.extinction.endswith(" at step 1.4") and extinct.final_state is None
        assert 0.0 < extinct.extinction_probability <= engine_mod.EXTINCTION_P
        assert survivor.extinction is None
        assert np.array_equal(survivor.final_state, alone.final_state)
        assert np.array_equal(survivor.ledger.exact, alone.ledger.exact)
        assert np.array_equal(survivor.ledger.formula, alone.ledger.formula)

    def test_a_one_row_run_stops_at_its_extinct_measurement(self, monkeypatch):
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod

        dec = decompose_ising_local(IsingParams(3, 1.0, 0.7, "periodic"))
        plan = make_plan(dec, 1.0, 60, "A", "faithful")
        psi = np.full(8, 8**-0.5, dtype=complex)
        ledger = run(plan, psi).ledger
        exact = ledger.exact
        j = int(np.argmin(exact[:len(exact) // 2]))  # all earlier measurements are above it
        assert j > 0
        for module in (engine_mod, kernels_mod):  # both layers read it
            monkeypatch.setattr(module, "EXTINCTION_P", exact[j])
        calls = []
        real = kernels_mod._Chain.step
        monkeypatch.setattr(kernels_mod._Chain, "step",
                            lambda *args: calls.append(1) or real(*args))
        with pytest.raises(ExtinctionError) as err:
            run(plan, psi)
        # extinction is checked once per Trotter step, which one chain step call runs
        assert len(calls) == j // dec.ell + 1
        assert err.value.probability == exact[j]
        assert str(err.value).endswith(f" at step {ledger.step_id(j)}")

    def test_a_long_trotter_step_normalizes_before_its_trace_underflows(self):
        # 600 terms rho = I/2 on one qubit: every measurement has p = (1 - delta
        # + delta^2) / (2 (1 + delta^2)) and Tr[A sigma A] / 2 = (1 - delta/2)^2
        # / 2 whatever the state, 0.25 at delta = 0.99, whose product over one
        # Trotter step (1e-361) is below the smallest float
        rho = np.eye(2) / 2
        terms = tuple(ResourceTerm(0.99, rho, (0,), f"t{i}") for i in range(600))
        dec = ResourceDecomposition(1, terms, 0.0, "pauli-generic")
        with pytest.warns(UserWarning, match="delta"):
            plans = [make_plan(dec, beta, 2) for beta in (2.0, 0.2)]
        psi = np.array([0.6, 0.8])
        full = run_rows(plans, psi)
        for row, (t, plan) in enumerate(zip(full, plans)):
            delta = plan.deltas[0]
            assert t.extinction is None and len(t.ledger.exact) == 1200
            p = (1 - delta + delta**2) / (2 * (1 + delta**2))
            assert np.max(np.abs(t.ledger.exact - p)) <= 1e-15
            assert np.max(np.abs(t.ledger.formula - (1 - delta / 2) ** 2 / 2)) <= 1e-15
            (alone,) = run_rows([plan], psi)
            assert np.array_equal(alone.final_state, t.final_state)
            assert np.array_equal(alone.ledger.exact, t.ledger.exact)
            assert np.array_equal(alone.ledger.formula, t.ledger.formula)

    def test_strategy_b_measures_every_trotter_step(self):
        dec = toy_decomposition(2, seed=8)
        traj = run(make_plan(dec, 0.1, 6, "B-global", "faithful"), PLUS)
        assert len(traj.ledger.probabilities("faithful-exact")) == 6

    def test_strategy_b_local_through_run(self):
        dec = toy_decomposition(2, seed=8)
        traj = run(make_plan(dec, 0.1, 3, "B-local", "faithful"), PLUS)
        steps = list(zip(dec.terms, traj.plan.deltas))
        sigma, expected = PLUS, []
        for _ in range(3):
            res = step_strategy_b(sigma, steps, "local", "faithful")
            sigma = res.state
            expected.append(res.probability)
        got = traj.ledger.exact
        assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-12
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


class TestVectorPath:
    """Effective and sampled modes evolve a state vector; every result must
    match the density-matrix path started from |psi><psi|."""

    @pytest.mark.parametrize("mode", ["effective", "sampled"])
    def test_step_functions_match_density_matrix(self, mode):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(1, 4))
            terms = random_resource_terms(rng, n)
            psi = random_unit_vector(rng, 2**n)
            sigma = np.outer(psi, psi.conj())
            pairs = [
                (step_strategy_a(psi, *terms[0], mode=mode),
                 step_strategy_a(sigma, *terms[0], mode=mode)),
                (step_strategy_b(psi, terms, "local", mode), step_strategy_b(sigma, terms, "local", mode)),
                (step_strategy_b(psi, terms, "global", mode), step_strategy_b(sigma, terms, "global", mode)),
            ]
            for vec, mat in pairs:
                assert vec.state.shape == (2**n,)
                worst = max(
                    worst,
                    np.max(np.abs(np.outer(vec.state, vec.state.conj()) - mat.state)),
                    abs(vec.probability - mat.probability),
                    abs(vec.formula_probability - mat.formula_probability),
                )
        assert worst <= 1e-12

    @pytest.mark.parametrize("mode", ["effective", "sampled"])
    def test_vector_steps_are_their_arithmetic(self, mode):
        # psi - B psi, its squared norm over the denominator and psi scaled by
        # 1 / |psi - B psi|, written out here: the state and both
        # probabilities to 1e-15, and mode and measurement still checked
        rng = np.random.default_rng(160)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            terms = random_resource_terms(rng, n)
            psi = random_unit_vector(rng, 2**n)
            embs = [embed_operator(t.rho, qubit_layout(n), [f"q{s}" for s in t.support])
                    for t, _ in terms]
            b_op = sum(delta * emb for (_, delta), emb in zip(terms, embs))
            diagonal = rng.uniform(-0.2, 0.2, 2**n)
            cases = [
                (step_strategy_a(psi, *terms[0], mode=mode), terms[0][1] * embs[0], 2.0),
                (step_strategy_b(psi, terms, "local", mode), b_op, 2.0 ** len(terms)),
                (step_strategy_b(psi, terms, "global", mode), b_op, len(terms) + 1.0),
                (step_strategy_b(psi, terms, "global", mode, b_op=diagonal), np.diag(diagonal),
                 len(terms) + 1.0),
            ]
            for got, b, denom in cases:
                out = psi - b @ psi
                norm2 = np.vdot(out, out).real
                assert isinstance(got, StepResult) and got.state.shape == psi.shape
                assert np.max(np.abs(got.state - out / np.sqrt(norm2))) <= 1e-15
                assert abs(got.formula_probability - norm2 / denom) <= 1e-15
                assert abs(got.probability - min(norm2 / denom, 1.0)) <= 1e-15
        with pytest.raises(ValueError, match="unknown mode"):
            step_strategy_a(psi, *terms[0], mode="exact")
        with pytest.raises(ValueError, match="unknown mode"):
            step_strategy_b(psi, terms, "global", "exact")
        with pytest.raises(ValueError, match="measurement must be"):
            step_strategy_b(psi, terms, "joint", mode)

    def test_a_vector_run_allocates_no_square_array(self):
        # an effective B-global row at n = 8 ends in its vector, not
        # |psi><psi|: once W's eigensystem is cached, a run's traced peak stays
        # below one d x d float array (512 KiB)
        import tracemalloc

        dec = decompose_ising_local(IsingParams(8, 1.0, 0.7, "periodic"))
        plan = make_plan(dec, 1.0, 100, "B-global", "effective")
        psi = np.full(256, 1 / 16)
        run(plan, psi)
        tracemalloc.start()
        try:
            final = run(plan, psi).final_state
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert final.shape == (256,)
        assert peak < 256 * 256 * 8

    @pytest.mark.parametrize("strategy", ["A", "B-local", "B-global"])
    @pytest.mark.parametrize("mode", ["effective", "sampled"])
    def test_run_matches_density_matrix(self, strategy, mode):
        dec = decompose_ising_local(IsingParams(3, 1.0, 0.7, "periodic"))
        plan = make_plan(dec, 1.0, 100, strategy, mode)
        psi = np.full(8, 8**-0.5, dtype=complex)
        vec = run(plan, psi)
        mat = run(plan, np.outer(psi, psi.conj()))
        # a vector run ends in its vector, a density-matrix run in a density matrix
        assert vec.final_state.shape == (8,) and mat.final_state.shape == (8, 8)
        assert np.max(np.abs(np.outer(vec.final_state, vec.final_state.conj())
                             - mat.final_state)) <= 1e-12
        for source in ("faithful-exact", "paper-formula"):
            assert vec.ledger.cumulative(source) == pytest.approx(
                mat.ledger.cumulative(source), rel=1e-12)

    @pytest.mark.parametrize("mode", ["effective", "sampled"])
    @pytest.mark.parametrize("strategy", ["B-global", "B-local"])
    @pytest.mark.parametrize("model", [2, 3, 4, 5, "pauli_y4"])
    def test_strategy_b_steps_in_the_eigenbasis_as_the_dense_steps(self, model, strategy, mode):
        # a strategy-B vector run evolves V^dagger psi in W's eigenbasis; the
        # reference is a loop of public steps with the d x d B = (beta / N) W
        # in the canonical basis.  pauli_y4's W is complex, so a rotation by
        # V^T in place of V^dagger would show
        dec = (decompose_pauli_generic(load_config(PAULI_Y4).model) if model == "pauli_y4"
               else decompose_ising_local(IsingParams(model, 1.0, 0.7, "open")))
        psi = random_unit_vector(np.random.default_rng(140 + dec.n), 2**dec.n)
        terms = list(dec.terms)
        for beta in (0.5, 1.0):
            plan = make_plan(dec, beta, 80, strategy, mode)
            b_op = beta / plan.n_steps * dec.operator
            state, want = psi, []
            for _ in range(plan.n_steps):
                res = step_strategy_b(state, list(zip(terms, plan.deltas)), strategy[2:], mode,
                                      b_op=b_op)
                state = res.state
                want.append((res.probability, res.formula_probability))
            got = run(plan, psi)
            final = got.final_state
            assert np.max(np.abs(np.outer(final, final.conj()) - np.outer(state, state.conj()))) <= 1e-12
            ledger = np.stack([got.ledger.exact, got.ledger.formula], axis=1)
            assert np.max(np.abs(ledger / np.array(want) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("measurement", ["local", "global"])
    def test_a_1d_b_op_is_its_diagonal_matrix(self, measurement, mode):
        rng = np.random.default_rng(150)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            terms = random_resource_terms(rng, n)
            diagonal = rng.uniform(-0.2, 0.2, 2**n)
            psi = random_unit_vector(rng, 2**n)
            for state in (psi, np.outer(psi, psi.conj())):
                got, want = (step_strategy_b(state, terms, measurement, mode, b_op=b)
                             for b in (diagonal, np.diag(diagonal)))
                assert got.state.shape == want.state.shape
                assert np.max(np.abs(got.state - want.state)) <= 1e-15
                assert abs(got.probability - want.probability) <= 1e-15
                assert abs(got.formula_probability - want.formula_probability) <= 1e-15

    @pytest.mark.parametrize("strategy", ["A", "B-local", "B-global"])
    def test_faithful_run_promotes_vector_exactly(self, strategy):
        dec = decompose_ising_local(IsingParams(3, 1.0, 0.7, "periodic"))
        plan = make_plan(dec, 0.5, 20, strategy, "faithful")
        psi = np.full(8, 8**-0.5, dtype=complex)
        vec = run(plan, psi)
        mat = run(plan, np.outer(psi, psi.conj()))
        assert np.array_equal(vec.final_state, mat.final_state)
        for source in ("faithful-exact", "paper-formula"):
            assert vec.ledger.probabilities(source) == mat.ledger.probabilities(source)

    @pytest.mark.parametrize("strategy", ["A", "B-global"])
    @pytest.mark.parametrize("mode", ["faithful", "effective", "sampled"])
    def test_extinction_names_the_step_for_a_vector(self, strategy, mode):
        # one |0><0| term at delta = 1 - 1e-8 leaves |0> with p ~ 5e-17 at the
        # first measurement (2.5e-17 faithful): a vector start names it as a
        # density-matrix start does, and the error carries p.  |0> promotes
        # to |0><0| bit for bit; |+> would not (2^-0.5 squared rounds above
        # 0.5), and faithful A reads p as a difference of two numbers near
        # 0.5, so its message would show that last bit
        import sbqs.engine as engine_mod

        dec = ResourceDecomposition(1, (ResourceTerm(1.0, KET0, (0,), "z"),), 0.0, "pauli-generic")
        with pytest.warns(UserWarning, match="delta"):
            plan = make_plan(dec, 1 - 1e-8, 1, strategy, mode)
        messages = []
        for state in (np.array([1.0, 0.0], dtype=complex), KET0):
            with pytest.raises(ExtinctionError) as err:
                run(plan, state)
            messages.append(str(err.value))
            assert err.value.probability is not None
            assert 0.0 <= err.value.probability <= engine_mod.EXTINCTION_P
        assert messages[0] == messages[1]
        assert messages[0].endswith(" at step 1.1" if strategy == "A" else " at step 1")

    @pytest.mark.parametrize("mode", ["effective", "sampled"])
    def test_a_first_order_probability_above_one_is_noted_on_both_paths(self, mode):
        # the fig2_left model as strategy A at beta = 2, N = 40 (max |delta| =
        # 0.5): |A psi|^2 / 2 passes 1 from step 3.10 on.  A vector and a
        # density-matrix run both clamp the exact column to 1 and pass the
        # formula one on, so their ledgers agree and note the same entries
        dec = decompose_ising_local(IsingParams(4, 1.0, 5.0, "periodic"))
        with pytest.warns(UserWarning, match="delta"):
            plan = make_plan(dec, 2.0, 40, "A", mode)
        psi = np.full(16, 0.25)
        vector, density = run(plan, psi), run(plan, np.outer(psi, psi))
        assert vector.ledger.notes[0] == "3.10: formula probability 1.00103 clamped to 1"
        assert vector.ledger.notes == density.ledger.notes and len(vector.ledger.notes) == 151
        assert vector.ledger.exact.max() == density.ledger.exact.max() == 1.0
        for column in ("exact", "formula"):
            got, want = getattr(vector.ledger, column), getattr(density.ledger, column)
            assert np.max(np.abs(got - want)) <= 1e-12
        psi = vector.final_state
        assert np.max(np.abs(np.outer(psi, psi.conj()) - density.final_state)) <= 1e-12

    def test_run_rejects_vector_off_unit_norm(self):
        plan = make_plan(toy_decomposition(2), 0.1, 2, "A", "effective")
        psi = np.full(2, 2**-0.5, dtype=complex)
        with pytest.raises(ValueError, match="norm"):
            run(plan, 1.01 * psi)
        with pytest.raises(ValueError, match="shape"):
            run(plan, np.full(4, 0.5, dtype=complex))


class TestEffectiveFilter:
    """Effective strategy B applies A = I - (beta/N) W with W = H + c I in
    every Trotter step, so its rows are checked against the closed form of
    ``oracles.effective_b_closed_form`` on the spectrum of the Pauli model's
    H from numpy's own ``eigh``, which never calls the engine."""

    @pytest.fixture(scope="class")
    def chains(self):
        out = {}
        for n in (4, 6, 8):
            params = IsingParams(n, 1.344422, 2.515909, "periodic")
            out[n] = (params, decompose_ising_local(params), densify(build_ising(params)))
        return out

    @pytest.mark.parametrize("n", [6, 8])
    def test_operator_matches_the_pauli_path(self, chains, n):
        _, dec, h = chains[n]
        assert np.max(np.abs(dec.operator - (h - dec.identity_offset * np.eye(2**n)))) <= 1e-12

    @pytest.mark.parametrize("mode", ["effective", "sampled"])
    @pytest.mark.parametrize("strategy", ["B-global", "B-local"])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_rows_match_the_filter(self, chains, n, strategy, mode):
        _, dec, h = chains[n]
        psi0 = np.full(2**n, 2 ** (-n / 2), dtype=complex)
        denom = dec.ell + 1 if strategy == "B-global" else 2.0**dec.ell
        vals, vecs = np.linalg.eigh(h)
        for beta in (0.5, 1.0, 2.0):
            traj = run(make_plan(dec, beta, 400, strategy, mode), psi0)
            psi, probabilities = effective_b_closed_form(
                vals - dec.identity_offset, vecs, psi0, beta / 400, 400, denom)
            got = traj.final_state
            assert np.max(np.abs(np.outer(got, got.conj()) - np.outer(psi, psi.conj()))) <= 2e-14
            for column in (traj.ledger.exact, traj.ledger.formula):
                assert np.max(np.abs(column / probabilities - 1.0)) <= 1e-12
            for source in LEDGER_SOURCES:
                assert traj.ledger.log_cumulative(source) == pytest.approx(
                    np.sum(np.log(probabilities)), rel=1e-12)


class TestLedger:
    def test_sources_tracked_independently(self):
        ledger = ProbabilityLedger([0.5, 0.5], [0.6, 1.0])
        assert ledger.cumulative("faithful-exact") == pytest.approx(0.25)
        assert ledger.cumulative("paper-formula") == pytest.approx(0.6)
        # two entries per measurement: the benchmark counts them
        assert [e.source for e in ledger.entries] == ["faithful-exact", "paper-formula"] * 2
        assert [e.step_id for e in ledger.entries] == ["1", "1", "2", "2"]

    def test_empty_ledger(self):
        for ledger in (ProbabilityLedger(), ProbabilityLedger([], [], suffixes=())):
            assert ledger.entries == [] and ledger.notes == []
            assert ledger.exact.shape == ledger.formula.shape == (0,)
            for source in LEDGER_SOURCES:
                assert ledger.probabilities(source) == []
                assert ledger.cumulative(source) == 1.0
                assert ledger.log_cumulative(source) == 0.0

    def test_unknown_source_rejected(self):
        ledger = ProbabilityLedger([0.5], [0.5])
        for read in (ledger.probabilities, ledger.cumulative, ledger.log_cumulative):
            with pytest.raises(ValueError, match="unknown source"):
                read("faithful")

    def test_formula_clamped_with_note(self):
        ledger = ProbabilityLedger([0.5], [1.3])
        assert ledger.cumulative("paper-formula") == 1.0
        assert ledger.cumulative("faithful-exact") == 0.5
        assert any("clamped" in note for note in ledger.notes)

    def test_every_clamped_formula_entry_noted_with_its_step(self):
        ledger = ProbabilityLedger([0.5] * 6, [0.5, 1.3, 0.5, 0.5, 1.0 + 1e-13, 1.2],
                                   suffixes=(".1", ".2", ".3"))
        assert ledger.notes == ["1.2: formula probability 1.3 clamped to 1",
                                "2.3: formula probability 1.2 clamped to 1"]
        assert ledger.probabilities("paper-formula") == [0.5, 1.0, 0.5, 0.5, 1.0, 1.0]

    def test_rounding_above_one_clamped_silently(self):
        ledger = ProbabilityLedger([1.0 + 1e-13], [1.0 + 1e-13])
        assert ledger.probabilities("faithful-exact") == ledger.probabilities("paper-formula") == [1.0]
        assert ledger.notes == []

    def test_exact_above_one_rejected(self):
        with pytest.raises(ValueError, match="> 1"):
            ProbabilityLedger([1.1], [0.5])

    @pytest.mark.parametrize("exact, formula", [(-0.1, 0.5), (0.5, -0.1), (np.nan, 0.5), (0.5, np.nan)])
    def test_negative_or_nan_rejected(self, exact, formula):
        with pytest.raises(ValueError, match="negative or NaN"):
            ProbabilityLedger([exact], [formula])

    @pytest.mark.parametrize("exact, formula, message", [
        (1.0 + 2e-12, 0.5, "exact probability 1.000000000002 > 1 at 3.2"),
        (-0.1, 0.5, "probabilities -0.1, 0.5 at 3.2: negative or NaN"),
        (0.5, np.nan, "probabilities 0.5, nan at 3.2: negative or NaN"),
    ])
    def test_rejection_names_the_first_offending_step(self, exact, formula, message):
        # entry 5 of a two-measurement step is step 3, measurement 2; entry 6 is bad too
        exacts, formulas = [0.5] * 7, [0.5] * 7
        exacts[5], formulas[5] = exact, formula
        exacts[6] = np.nan
        with pytest.raises(ValueError) as err:
            ProbabilityLedger(exacts, formulas, suffixes=(".1", ".2"))
        assert str(err.value) == message

    def test_columns_must_match(self):
        for exact, formula, suffixes in (([0.5], [0.5, 0.5], ("",)), ([[0.5]], [[0.5]], ("",)),
                                         ([0.5], [0.5], ())):
            with pytest.raises(ValueError, match="ledger columns"):
                ProbabilityLedger(exact, formula, suffixes)

    def test_entries_agree_with_the_arrays(self):
        rng = np.random.default_rng(5)
        exact, formula = rng.uniform(0.1, 1.0, 12), rng.uniform(0.1, 1.2, 12)
        ledger = ProbabilityLedger(exact, formula, suffixes=(".1", ".2", ".3"))
        entries = ledger.entries
        assert len(entries) == 24
        assert [e.probability for e in entries[0::2]] == ledger.exact.tolist() == exact.tolist()
        assert [e.probability for e in entries[1::2]] == ledger.formula.tolist()
        assert ledger.formula.tolist() == np.minimum(formula, 1.0).tolist()
        assert {e.source for e in entries[0::2]} == {"faithful-exact"}
        assert {e.source for e in entries[1::2]} == {"paper-formula"}
        assert [e.step_id for e in entries[0::2]] == [
            f"{step}.{k}" for step in range(1, 5) for k in range(1, 4)]
        assert [e.step_id for e in entries] == [ledger.step_id(i // 2) for i in range(24)]
        # the arrays are the ledger's own: neither the input nor the entries write to them
        exact[0] = 0.0
        entries[0] = None
        assert ledger.exact[0] > 0.0 and ledger.entries[0] is not None
        with pytest.raises(ValueError):
            ledger.exact[0] = 0.0

    def test_log_cumulative_survives_underflow(self):
        ledger = ProbabilityLedger([0.5] * 3000, [0.5] * 3000)
        assert ledger.cumulative("faithful-exact") == 0.0  # double underflow
        assert ledger.log_cumulative("faithful-exact") == pytest.approx(3000 * np.log(0.5))

    def test_cumulative_is_math_prod_bit_for_bit(self):
        # the product is read in measurement order from 1.0, as math.prod: on a
        # long ledger, on one whose product underflows to 0 and on an empty one
        rng = np.random.default_rng(11)
        long = rng.uniform(0.99, 1.0, 4800)  # the product stays a normal float
        tiny = np.concatenate([rng.uniform(0.2, 0.6, 1000), rng.uniform(0.9, 1.0, 50)])
        ledgers = [ProbabilityLedger(long, long[::-1]), ProbabilityLedger(tiny, tiny),
                   ProbabilityLedger()]
        assert math.prod(tiny) == 0.0
        for ledger in ledgers:
            for source in LEDGER_SOURCES:
                got = ledger.cumulative(source)
                assert type(got) is float
                assert got == math.prod(ledger.probabilities(source), start=1.0)
        assert ledgers[2].cumulative() == 1.0


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
