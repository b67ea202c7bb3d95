"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; captured
output is shown automatically for failing criteria.

Criterion 3 is implemented exactly as stated and is expected to FAIL: the
faithful channel's per-sub-step O(delta^2) incoherent leakage makes the
Bures distance to the pure exact-evolution state scale as 1/sqrt(N), not
1/N (the 1/N law holds in trace distance, in squared Bures distance, and in
Bures distance for the purity-preserving effective mode; all three are
printed as diagnostics).  See the test docstring and decisions ledger.
"""

import json
import math
import time

import numpy as np

import sbqs
from sbqs.bounds import bures_distance_sm, expansion_error_report, product_error_report
from sbqs.cli import main
from sbqs.config import validate_config
from sbqs.engine import (
    make_plan,
    replace_support,
    run,
    sample_run,
    step_strategy_a,
    step_strategy_b,
)
from sbqs.exact import bures_distance, exact_ite, fidelity, ground
from sbqs.experiment import run_experiment, uniform_state
from sbqs.hamiltonian import (
    RHO_Z,
    IsingParams,
    PauliString,
    PauliSum,
    ResourceDecomposition,
    ResourceTerm,
    build_ising,
    decompose_ising_local,
    decompose_pauli_generic,
    densify,
    shift_to_positive,
)
from sbqs.linalg import dag, embed_operator, hermitian_eig, qubit_layout

from oracles import (
    control_state,
    cswap_reference_state,
    random_density,
    random_hermitian,
    random_pure_density,
    random_unit_vector,
    random_unitary,
    trace_distance,
    unitary_from_hermitian,
)


def report(number: int, name: str, ok: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded budget {budget}s"
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_channel_exactness():
    """The joint control ⊗ simulator state the engine's closed form rests on,
    [[sigma, -delta sigma rho], [-delta rho sigma, delta^2 rho ⊗ Tr_S sigma]] / (1 + delta^2),
    with the engine's own support replacement, against the explicit
    controlled-SWAP unitary with the resource traced out; and the engine's
    faithful strategy-A output against that reference projected onto |+>."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, n + 1))
        support = tuple(int(s) for s in rng.permutation(n)[:k])
        rho = random_density(rng, 2**k)
        sigma = random_density(rng, 2**n)
        delta = float(rng.uniform(-0.2, 0.2))
        psi = control_state(delta)
        rho_emb = embed_operator(rho, qubit_layout(n), [f"q{s}" for s in support])
        block = np.block([
            [sigma, -delta * sigma @ rho_emb],
            [-delta * rho_emb @ sigma, delta**2 * replace_support(sigma, rho, support)],
        ]) / (1 + delta**2)
        via_unitary = cswap_reference_state(rho, support, n, psi, sigma)
        projected = np.einsum("a,aibj,b->ij", plus, via_unitary.reshape(2, 2**n, 2, 2**n), plus)
        step = step_strategy_a(sigma, ResourceTerm(1.0, rho, support, "r"), delta, "faithful")
        worst = max(worst, trace_distance(block, via_unitary),
                    trace_distance(step.state * step.probability, projected))
    report(1, "channel-exactness", worst <= 1e-12, t0, 10.0,
           f"worst trace distance {worst:.2e} over 100 triples")


def test_criterion_2_decomposition_reconstruction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    min_generic_weight = math.inf
    for _ in range(50):
        n = int(rng.integers(2, 6))
        boundary = "periodic" if (n >= 3 and rng.random() < 0.5) else "open"
        params = IsingParams(n, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), boundary)
        dec = decompose_ising_local(params)
        diff = densify(dec) - densify(build_ising(params))
        c = np.trace(diff).real / diff.shape[0]
        worst = max(worst, float(np.max(np.abs(diff - c * np.eye(diff.shape[0])))))
    letters = ["XX", "ZZ", "XZ", "ZX", "XI", "IZ", "YY", "XY", "ZI", "IY"]
    for _ in range(50):
        picks = rng.choice(len(letters), size=int(rng.integers(1, 6)), replace=False)
        ham = PauliSum(2, tuple(PauliString(letters[i], float(rng.uniform(-3, 3))) for i in picks))
        dec = decompose_pauli_generic(ham)
        if dec.terms:
            min_generic_weight = min(min_generic_weight, min(t.weight for t in dec.terms))
        diff = densify(dec) - densify(ham)
        c = np.trace(diff).real / 4
        worst = max(worst, float(np.max(np.abs(diff - c * np.eye(4)))))
    ok = worst <= 1e-10 and min_generic_weight > 0
    report(2, "decomposition-reconstruction", ok, t0, 10.0,
           f"worst identity residual {worst:.2e}, min generic weight {min_generic_weight:.3g}")


def test_criterion_3_first_order_convergence():
    """Implemented verbatim; expected red.

    The faithful post-selected channel (criterion 1 pins it to the explicit
    controlled-SWAP unitary at 1e-12) leaks O(delta^2) incoherent weight per
    sub-step, so the deviation from the pure exact-evolution state has an
    O(1/N) incoherent component, and the Bures distance, which scales as the
    square root of that component, halves only per quadrupling of N.  The
    first-order law the criterion targets holds in trace distance and for
    effective mode; both are printed below.
    """
    t0 = time.perf_counter()
    params = IsingParams(2, 1.0, 1.0, "open")
    dec = decompose_ising_local(params)
    spectral = ground(densify(build_ising(params)))
    sigma0 = uniform_state(2)
    phi = exact_ite(spectral, np.full(4, 0.5, dtype=complex), 1.0)
    reference = np.outer(phi, phi.conj())
    bures, tdist, bures_eff = {}, {}, {}
    for n_steps in (50, 100, 200, 400):
        final = run(make_plan(dec, 1.0, n_steps, "A", "faithful"), sigma0).final_state
        bures[n_steps] = bures_distance(final, reference)
        tdist[n_steps] = trace_distance(final, reference)
        eff = run(make_plan(dec, 1.0, n_steps, "A", "effective"), sigma0).final_state
        bures_eff[n_steps] = bures_distance(eff, reference)
    ratios = [bures[n] / bures[2 * n] for n in (50, 100, 200)]
    diag_t = [tdist[n] / tdist[2 * n] for n in (50, 100, 200)]
    diag_b2 = [(bures[n] / bures[2 * n]) ** 2 for n in (50, 100, 200)]
    diag_e = [bures_eff[n] / bures_eff[2 * n] for n in (50, 100, 200)]
    print("  criterion-3 diagnostics (first-order law in matching metrics):")
    print(f"    faithful trace-distance ratios {[f'{r:.3f}' for r in diag_t]}")
    print(f"    faithful squared-Bures ratios  {[f'{r:.3f}' for r in diag_b2]}")
    print(f"    effective Bures ratios         {[f'{r:.3f}' for r in diag_e]}")
    ok = all(1.6 <= r <= 2.4 for r in ratios)
    report(3, "first-order-convergence", ok, t0, 60.0,
           f"faithful Bures ratios {[f'{r:.3f}' for r in ratios]} (required within [1.6, 2.4])")


def _figure_sweep(field_b: float, degeneracy_tol: float):
    config = validate_config(
        {
            "model": {"model": "ising", "n": 4, "J": 1.0, "B": field_b, "boundary": "periodic"},
            "beta_grid": [0.25 * i for i in range(9)],
            "n_steps": 400,
            "strategy": "A",
            "mode": "faithful",
            "degeneracy_tol": degeneracy_tol,
        }
    )
    return run_experiment(config)


def test_criterion_4_figure_reproduction():
    t0 = time.perf_counter()
    rows_b5, report_b5 = _figure_sweep(5.0, 1e-10)
    rows_b01, _ = _figure_sweep(0.1, 0.05)  # splitting 6.2e-5 vs next gap 3.7

    gaps = [abs(r.fidelity_sbqs_vs_ground - r.fidelity_exact_ite_vs_ground) for r in rows_b5]
    gaps += [abs(r.fidelity_sbqs_vs_ground - r.fidelity_exact_ite_vs_ground) for r in rows_b01]
    agree = max(gaps) <= 0.05
    endpoint = rows_b5[-1].fidelity_exact_ite_vs_ground >= 0.99
    exact_b01 = [r.fidelity_exact_ite_vs_ground for r in rows_b01]
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(exact_b01, exact_b01[1:]))
    at_beta_1 = {round(r.beta, 3): r for r in rows_b5}[1.0]
    at_beta_1_b01 = {round(r.beta, 3): r for r in rows_b01}[1.0]
    below = at_beta_1_b01.fidelity_exact_ite_vs_ground < at_beta_1.fidelity_exact_ite_vs_ground
    # the combined error budget at the sweep endpoint dominates the measured distance
    budget = sbqs.error_budget(report_b5.ell, 2.0, report_b5.h_max, 400,
                               report_b5.gap, report_b5.f0)
    dominated = budget > max(r.bures_sbqs_vs_exact_ite for r in rows_b5)
    ok = agree and endpoint and nondecreasing and below and dominated
    report(4, "figure-reproduction", ok, t0, 600.0,
           f"max |F_sbqs - F_exact| = {max(gaps):.2e}; F_exact(2.0) = "
           f"{rows_b5[-1].fidelity_exact_ite_vs_ground:.6f}; B=0.1 projector curve "
           f"non-decreasing = {nondecreasing}; below B=5 at beta=1 = {below}")


def test_criterion_5_probability_bookkeeping():
    t0 = time.perf_counter()
    term = ResourceTerm(1.0, RHO_Z, (0,), "z")
    sigma0 = uniform_state(1)
    effective = step_strategy_a(sigma0, term, 0.1, mode="effective")
    exact_ok = abs(effective.probability - 0.4525) < 1e-15
    dec = ResourceDecomposition(1, (term,), 0.0, "pauli-generic")
    plan = make_plan(dec, 0.1, 1, "A", "sampled")
    result = sample_run(plan, sigma0, trials=100_000, seed=55)
    sigma = math.sqrt(0.4525 * (1 - 0.4525) / 100_000)
    sampled_ok = abs(result.frequency - 0.4525) <= 3 * sigma
    report(5, "probability-bookkeeping", exact_ok and sampled_ok, t0, 30.0,
           f"effective p = {effective.probability}; sampled {result.frequency:.5f} "
           f"(3 sigma = {3 * sigma:.5f})")


def test_criterion_6_strategy_b_advantage():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    sigma0 = uniform_state(1)
    ratio_err = 0.0
    state_gap = 0.0
    for ell in (2, 3, 4):
        terms = tuple(
            ResourceTerm(1.0, random_pure_density(rng, 2), (0,), f"t{i}") for i in range(ell)
        )
        zero = [(t, 0.0) for t in terms]
        g0 = step_strategy_b(sigma0, zero, "global", "faithful")
        l0 = step_strategy_b(sigma0, zero, "local", "faithful")
        ratio_err = max(ratio_err, abs(g0.probability / l0.probability - 2**ell / (ell + 1)))
        small = [(t, 0.05) for t in terms]
        g = step_strategy_b(sigma0, small, "global", "faithful")
        loc = step_strategy_b(sigma0, small, "local", "faithful")
        state_gap = max(state_gap, trace_distance(g.state, loc.state))
    ok = ratio_err <= 1e-9 and state_gap <= 5 * 0.05**2
    report(6, "strategy-b-advantage", ok, t0, 60.0,
           f"worst ratio error {ratio_err:.2e}; worst state gap {state_gap:.2e} "
           f"(allowed {5 * 0.05**2})")


def test_criterion_7_bound_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)

    sm_ok = True
    for _ in range(100):
        h = random_hermitian(rng, 4, scale=1.5)
        data = ground(h)
        psi0 = random_unit_vector(rng, 4)
        target = np.outer(data.ground_vector, data.ground_vector.conj())
        f0 = fidelity(target, psi0)
        if f0 < 1e-8:
            continue
        for beta in (0.5, 1.0, 2.0):
            bound = sbqs.fidelity_lower_bound(beta, data.gap, f0, variant="sm")
            sm_ok &= fidelity(target, exact_ite(data, psi0, beta)) >= bound - 1e-9

    sufficiency_ok = True
    eps = 0.2
    done = 0
    while done < 100:
        h, _ = shift_to_positive(random_hermitian(rng, 4))
        data = ground(h)
        if data.gap <= 0.1:
            continue
        f0 = float(rng.uniform(0.2, 0.9))
        perp = rng.normal(size=4) + 1j * rng.normal(size=4)
        perp -= data.ground_vector * np.vdot(data.ground_vector, perp)
        perp /= np.linalg.norm(perp)
        v = math.sqrt(f0) * data.ground_vector + math.sqrt(1 - f0) * perp
        evolved = exact_ite(data, v, sbqs.beta_star(data.gap, f0, eps))
        target = np.outer(data.ground_vector, data.ground_vector.conj())
        sufficiency_ok &= bures_distance_sm(target, evolved) <= eps / 2 + 1e-9
        done += 1

    chain_ok = True
    for i in range(1000):
        k = int(rng.integers(2, 5))
        if i % 2 == 0:
            ops = [random_unitary(rng, 4) for _ in range(k)]
            primes = []
            for u in ops:
                pert = random_hermitian(rng, 4)
                pert /= np.linalg.norm(pert, 2)
                primes.append(u @ unitary_from_hermitian(pert, 1e-3))
            rep = product_error_report(ops, primes)
            chain_ok &= rep.inputs_unitary and rep.unitary_holds and rep.nonunitary_holds
        else:
            ops = [random_hermitian(rng, 4, scale=0.5) for _ in range(k)]
            primes = [m + 1e-3 * random_hermitian(rng, 4, 0.5) for m in ops]
            chain_ok &= product_error_report(ops, primes).nonunitary_holds

    expansion_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        ops = []
        for _ in range(n):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = m @ dag(m)
            a /= np.linalg.norm(a, 2)
            ops.append(a)
        deltas = [float(rng.uniform(-0.05, 0.05)) for _ in range(n)]
        expansion_ok &= expansion_error_report(deltas, ops).holds

    ok = sm_ok and sufficiency_ok and chain_ok and expansion_ok
    report(7, "bound-suite", ok, t0, 120.0,
           f"sm-bound {sm_ok}, beta*-sufficiency {sufficiency_ok}, "
           f"chain x1000 {chain_ok}, expansion x1000 {expansion_ok}")


def test_criterion_8_positivity_shift():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    min_eig = math.inf
    worst_overlap = 1.0
    for _ in range(100):
        h = random_hermitian(rng, 8, scale=2.0)
        vals_in, vecs_in = hermitian_eig(h)
        shifted, _ = shift_to_positive(h)
        vals_out, vecs_out = hermitian_eig(shifted)
        min_eig = min(min_eig, float(vals_out[0]))
        if vals_in[1] - vals_in[0] > 1e-6:  # non-degenerate instances only
            worst_overlap = min(worst_overlap, abs(np.vdot(vecs_in[:, 0], vecs_out[:, 0])))
    ok = min_eig >= -1e-10 and abs(worst_overlap - 1.0) <= 1e-9
    report(8, "positivity-shift", ok, t0, 30.0,
           f"min shifted eigenvalue {min_eig:.2e}; worst ground overlap deviation "
           f"{abs(worst_overlap - 1):.2e}")


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    config = {
        "model": {"model": "ising", "n": 3, "J": 1.0, "B": 1.0, "boundary": "periodic"},
        "n_steps": 100,
        "mode": "effective",
        "seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outs = [tmp_path / name for name in ("a", "b", "par")]
    assert main(["run", str(path), "--out", str(outs[0])]) == 0
    assert main(["run", str(path), "--out", str(outs[1])]) == 0
    assert main(["run", str(path), "--out", str(outs[2]), "--parallel", "4"]) == 0
    payloads = [(o / "results.csv").read_bytes() for o in outs]
    repeat_ok = payloads[0] == payloads[1]
    parallel_ok = payloads[0] == payloads[2]
    report(9, "determinism", repeat_ok and parallel_ok, t0, 60.0,
           f"repeat byte-identical {repeat_ok}; parallel(4) == serial {parallel_ok}")
