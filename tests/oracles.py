"""Independent reference constructions used to check the library.

Everything here is deliberately built from first principles (permutation
unitaries, explicit einsum traces, power series) or from references pinned to
them, rather than through the code paths under test.  ``exact_ite`` is the
dense density-matrix evolution, with its own eigendecomposition, that the
library's state-vector reference is checked against and that tests of mixed
states use.  ``effective_b_closed_form`` is effective strategy B in closed
form, in log space, from a given spectrum.  ``faithful_transfer`` runs a
faithful row of any strategy by dense transfer matrices, with no engine code.
``faithful_invariants`` checks a faithful row where no transfer matrix
reaches (n = 8-10) against the effective row of the same plan.
"""

from __future__ import annotations

import math

import numpy as np

from sbqs.engine import cswap_channel
from sbqs.errors import ExtinctionError, PlanError
from sbqs.exact import TRACE_FLOOR
from sbqs.hamiltonian import ResourceDecomposition, ResourceTerm, densify
from sbqs.linalg import (
    RegisterLayout,
    check_density_matrix,
    dag,
    embed_operator,
    qubit_layout,
)


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = (a - b + dagger(a - b)) / 2
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + dagger(m)) / 2


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ dagger(m)
    return rho / np.trace(rho).real


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_pure_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = random_unit_vector(rng, dim)
    return np.outer(v, v.conj())


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitary_from_hermitian(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(i * scale * h), built by direct eigendecomposition."""
    vals, vecs = np.linalg.eigh((h + dagger(h)) / 2)
    return (vecs * np.exp(1j * scale * vals)) @ dagger(vecs)


def random_resource_terms(rng: np.random.Generator, n: int) -> list[tuple[ResourceTerm, float]]:
    """One to four (term, delta) pairs on ``n`` qubits with random, overlapping
    supports, resources of every rank and |delta| <= 0.2."""
    terms = []
    for i in range(int(rng.integers(1, 5))):
        k = int(rng.integers(1, n + 1))
        support = tuple(int(s) for s in rng.permutation(n)[:k])
        shape = (2**k, int(rng.integers(1, 2**k + 1)))  # the rank
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho = g @ dagger(g) / np.trace(g @ dagger(g)).real
        terms.append((ResourceTerm(1.0, rho, support, f"t{i}"), float(rng.uniform(-0.2, 0.2))))
    return terms


def protocol_operator(d: ResourceDecomposition) -> np.ndarray:
    """sum_i weight_i * embed(rho_i) without the identity offset, built densely.

    This is the operator the protocol actually simulates (the offset only
    rescales unnormalized states), so probability formulas must use it.
    """
    return densify(d) - d.identity_offset * np.eye(2**d.n, dtype=complex)


def replaced_support(sigma: np.ndarray, rho: np.ndarray, support: tuple[int, ...],
                     n: int) -> np.ndarray:
    """rho ⊗ Tr_S sigma with dense matrices: a basis permutation P puts the
    support qubits first, so that the replacement is kron(rho, Tr_1 P sigma P^T)."""
    order = [*support, *(q for q in range(n) if q not in support)]
    perm = np.eye(2**n).reshape((2,) * n + (2**n,)).transpose(order + [n]).reshape(2**n, 2**n)
    s, r = len(rho), 2**n // len(rho)
    rest = np.einsum("iaib->ab", (perm @ sigma @ perm.T).reshape(s, r, s, r))
    return perm.T @ np.kron(rho, rest) @ perm


def superoperator(f, d: int) -> np.ndarray:
    """The d^2 x d^2 matrix of a linear map ``f`` of d x d matrices on
    row-major vec: its column k is vec f(E_k) of the k-th matrix unit."""
    return np.stack([f(e).ravel() for e in np.eye(d * d).reshape(d * d, d, d)], axis=1)


def faithful_transfer(plan, psi0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One faithful row by transfer matrices: the final state and the
    (exact, formula) probability of every ledger entry.

    Before normalization a faithful measurement is linear in sigma, so each
    group of (term, delta) pairs is one d^2 x d^2 matrix L, built from the
    dense closed form through :func:`superoperator`, and the state steps as
    v <- L v / Tr(L v), whose trace is the exact probability.  A one-term
    map is (sigma - delta {rho, sigma} + delta^2 rho ⊗ Tr_S sigma) /
    (2 (1 + delta^2)) with rho embedded; strategy A measures each term,
    B-local the product of a step's one-term maps, and B-global the map
    (A sigma A + sum_i delta_i^2 (rho_i ⊗ Tr_Si sigma - rho_i sigma rho_i)) /
    ((l + 1) prod_i (1 + delta_i^2)) with A = I - sum_i delta_i rho_i.  The
    formula probability is Tr[A sigma A] / denom over the group.
    """
    dec, n = plan.decomposition, plan.decomposition.n
    d = 2**n
    terms = [(t, delta, embed_operator(t.rho, qubit_layout(n), [f"q{s}" for s in t.support]))
             for t, delta in zip(dec.terms, plan.deltas)]

    def formula(group, denom):  # Tr[A sigma A] = vec((A^2)^T) . vec(sigma)
        a = np.eye(d) - sum(delta * emb for _, delta, emb in group)
        return (a @ a).T.ravel() / denom

    def swap(t, delta, emb):
        return superoperator(lambda s: (s - delta * (emb @ s + s @ emb) + delta**2
                                        * replaced_support(s, t.rho, t.support, n))
                             / (2 * (1 + delta**2)), d)

    def global_step(s):
        out = a @ s @ a
        for t, delta, emb in terms:
            out = out + delta**2 * (replaced_support(s, t.rho, t.support, n) - emb @ s @ emb)
        return out / scale

    if plan.strategy == "A":
        groups = [(swap(*term), formula([term], 2)) for term in terms]
    elif plan.strategy == "B-local":
        step = np.eye(d * d)
        for term in terms:
            step = swap(*term) @ step
        groups = [(step, formula(terms, 2 ** len(terms)))]
    else:
        a = np.eye(d) - sum(delta * emb for _, delta, emb in terms)
        scale = (len(terms) + 1) * math.prod(1 + delta**2 for _, delta, _ in terms)
        groups = [(superoperator(global_step, d), formula(terms, len(terms) + 1))]
    trace = np.eye(d).ravel()
    v = np.outer(psi0, psi0.conj()).ravel()
    ledger = []
    for _ in range(plan.n_steps):
        for step, f in groups:
            p_formula = (f @ v).real
            v = step @ v
            p = (trace @ v).real
            v = v / p
            ledger.append((p, p_formula))
    return v.reshape(d, d), np.array(ledger)


def faithful_invariants(faithful, effective) -> tuple[float, float]:
    """Check what a faithful row must satisfy against the effective row of
    its plan (strategy A's for B-local, whose chain is strategy A's), and
    return its infidelity 1 - <psi_E|sigma_F|psi_E> and that bound.

    A faithful measurement's unnormalized output is [E(sigma) + L(sigma)] /
    (denom c), with E(sigma) = A sigma A the effective update, a completely
    positive leak L of trace sum_i delta_i^2 (1 - Tr rho_i^2 sigma), and c
    = 1 + delta^2 per strategy-A term or prod_i (1 + delta_i^2) per B-global
    step.  So per entry 0 <= p_exact c - p_formula <= sum_i delta_i^2 /
    denom (to 1e-13), and the faithful row's unnormalized state is at least
    the effective one's over the product of all c: 1 - <psi_E|sigma_F|psi_E>
    <= 1 - exp(log P_E - log P_F - N sum_i log(1 + delta_i^2)).  The final
    sigma_F must be Hermitian bit for bit, of unit trace and positive
    semidefinite, both to 1e-12.
    """
    plan, ledger = faithful.plan, faithful.ledger
    d2 = np.square(plan.deltas)
    if plan.strategy != "B-local":
        if plan.strategy == "A":
            c, leak = np.tile(1 + d2, plan.n_steps), np.tile(d2, plan.n_steps) / 2
        else:
            c, leak = np.prod(1 + d2), np.sum(d2) / (len(d2) + 1)
        excess = ledger.exact * c - ledger.formula
        assert excess.min() >= -1e-13, f"p_exact c below p_formula by {-excess.min():.3e}"
        assert np.max(excess - leak) <= 1e-13, f"a leak above delta^2 by {np.max(excess - leak):.3e}"
    sigma, psi = faithful.final_state, effective.final_state
    assert np.array_equal(sigma, sigma.conj().T), "final state not Hermitian bit for bit"
    assert abs(np.trace(sigma).real - 1) <= 1e-12, f"final trace {np.trace(sigma).real!r}"
    assert np.linalg.eigvalsh(sigma)[0] >= -1e-12, "final state not positive semidefinite"
    infidelity = 1 - (psi.conj() @ sigma @ psi).real
    bound = -math.expm1(effective.ledger.log_cumulative() - ledger.log_cumulative()
                        - plan.n_steps * np.sum(np.log1p(d2)))
    assert infidelity <= bound, f"infidelity {infidelity:.6g} above its bound {bound:.6g}"
    return infidelity, bound


def control_state(delta: float) -> np.ndarray:
    """Exactly normalized control qubit (|0> - delta |1>)/sqrt(1 + delta^2)."""
    if not abs(delta) < 1.0:
        raise PlanError(f"|delta| = {abs(delta)} >= 1; increase the step count")
    v = np.array([1.0, -delta], dtype=complex)
    return v / np.sqrt(1.0 + delta * delta)


def exact_ite(h: np.ndarray, rho0: np.ndarray, beta: float) -> np.ndarray:
    """Normalized imaginary-time evolution e^{-beta h} rho0 e^{-beta h} / trace.

    Computed on a spectrum shifted to start at zero, which leaves the
    normalized output unchanged while avoiding overflow at large beta.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    check_density_matrix(rho0, trace_atol=1e-8)
    if beta == 0:
        return np.array(rho0, dtype=complex)
    vals, vecs = np.linalg.eigh((h + dagger(h)) / 2)
    weights = np.exp(-beta * (vals - vals[0]))
    propagator = (vecs * weights) @ dag(vecs)
    out = propagator @ rho0 @ propagator
    tr = float(np.trace(out).real)
    if not tr > TRACE_FLOOR:
        raise ExtinctionError(
            f"normalization trace {tr:.3e} vanished at beta={beta}"
        )
    return out / tr


def effective_b_closed_form(vals: np.ndarray, vecs: np.ndarray, psi0: np.ndarray, s: float,
                            n_steps: int, denom: float) -> tuple[np.ndarray, np.ndarray]:
    """Effective strategy B read off W's spectrum (``vals``, ``vecs``) alone,
    with no step loop.

    With a_j = 1 - s lambda_j, s = beta / N, and c_0 = V^dagger psi0, write
    m_k = sum_j |c_0j|^2 a_j^{2k}.  Trotter step k has probability
    m_k / (m_{k-1} denom), and the final state is V (a^N ∘ c_0) / sqrt(m_N).
    Every log m_k is a log-sum-exp over j, so no moment underflows at any N.
    Returns the final state vector and the N probabilities.
    """
    a = 1.0 - s * np.asarray(vals)
    c0 = dagger(vecs) @ psi0
    with np.errstate(divide="ignore"):  # a zero population is log 0 = -inf
        log_pi, log_a = np.log(np.abs(c0) ** 2), np.log(np.abs(a))
    grid = log_pi + 2.0 * np.arange(n_steps + 1)[:, None] * log_a  # (N + 1, d)
    top = grid.max(axis=1)
    log_m = top + np.log(np.exp(grid - top[:, None]).sum(axis=1))
    probabilities = np.exp(np.diff(log_m) - math.log(denom))
    amplitudes = np.sign(a) ** n_steps * c0 * np.exp(n_steps * log_a - log_m[-1] / 2)
    return vecs @ amplitudes, probabilities


def cswap_unitary(support: tuple[int, ...], n: int) -> np.ndarray:
    """Permutation matrix of the controlled-SWAP on (control, resource, sim).

    Basis order is control ⊗ resource ⊗ simulator; when the control bit is 1
    the resource qubits are exchanged with the simulator qubits listed in
    ``support`` (resource factor k pairs with support site k), which for a
    multi-qubit resource is the product of the per-site swaps.
    """
    k = len(support)
    d_r, d = 2**k, 2**n
    dim = 2 * d_r * d
    u = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        c, rest = divmod(idx, d_r * d)
        r, s = divmod(rest, d)
        if c == 0:
            u[idx, idx] = 1.0
            continue
        r_bits = [(r >> (k - 1 - m)) & 1 for m in range(k)]
        s_bits = [(s >> (n - 1 - q)) & 1 for q in range(n)]
        new_r = [s_bits[q] for q in support]
        new_s = list(s_bits)
        for m, q in enumerate(support):
            new_s[q] = r_bits[m]
        r2 = sum(bit << (k - 1 - m) for m, bit in enumerate(new_r))
        s2 = sum(bit << (n - 1 - q) for q, bit in enumerate(new_s))
        u[d_r * d + r2 * d + s2, idx] = 1.0
    return u


def single_site_swap(resource_index: int, site: int, k: int, n: int) -> np.ndarray:
    """Swap of one resource qubit with one simulator site, on resource ⊗ sim."""
    d_r, d = 2**k, 2**n
    u = np.zeros((d_r * d, d_r * d), dtype=complex)
    for idx in range(d_r * d):
        r, s = divmod(idx, d)
        r_bits = [(r >> (k - 1 - m)) & 1 for m in range(k)]
        s_bits = [(s >> (n - 1 - q)) & 1 for q in range(n)]
        r_bits[resource_index], s_bits[site] = s_bits[site], r_bits[resource_index]
        r2 = sum(bit << (k - 1 - m) for m, bit in enumerate(r_bits))
        s2 = sum(bit << (n - 1 - q) for q, bit in enumerate(s_bits))
        u[r2 * d + s2, idx] = 1.0
    return u


def cswap_reference_state(
    rho: np.ndarray,
    support: tuple[int, ...],
    n: int,
    control: np.ndarray,
    sigma: np.ndarray,
) -> np.ndarray:
    """Tr_resource[U (control ⊗ rho ⊗ sigma) U†] on (control ⊗ simulator)."""
    d_r = rho.shape[0]
    d = sigma.shape[0]
    u = cswap_unitary(support, n)
    state = np.kron(np.outer(control, control.conj()), np.kron(rho, sigma))
    out = u @ state @ dagger(u)
    tensor = out.reshape(2, d_r, d, 2, d_r, d)
    return np.einsum("aribrj->aibj", tensor).reshape(2 * d, 2 * d)


def deferred_cswap_state(sigma: np.ndarray, terms, measurement: str) -> np.ndarray:
    """Unnormalized simulator state after one deferred-measurement step, by
    the Kraus route.

    One control per (term, delta) starts in (|0> - delta |1>)/sqrt(1 + delta^2);
    each term's controlled-SWAP Kraus set (``cswap_channel``, which the engine
    tests pin to :func:`cswap_unitary`) is embedded on its control and the
    simulator and applied in term order; the control register is then
    projected onto |+>^l ("local") or onto the uniform superposition over the
    all-zeros and one-hot states ("global").
    """
    ell = len(terms)
    d = sigma.shape[0]
    n = d.bit_length() - 1
    layout = RegisterLayout(tuple((f"c{i}", 2) for i in range(ell)) + (("S", d),))
    controls = np.array([1.0], dtype=complex)
    for _, delta in terms:
        controls = np.kron(controls, np.array([1.0, -delta]) / np.sqrt(1.0 + delta * delta))
    state = np.kron(np.outer(controls, controls.conj()), sigma)
    for i, (term, _) in enumerate(terms):
        kraus = [embed_operator(k, layout, [f"c{i}", "S"])
                 for k in cswap_channel(term.rho, term.support, n)]
        state = sum(k @ state @ dagger(k) for k in kraus)
    c_dim = 2**ell
    if measurement == "local":
        w = np.ones(c_dim, dtype=complex)
    else:
        w = np.zeros(c_dim, dtype=complex)
        w[0] = 1.0
        for i in range(ell):
            w[2 ** (ell - 1 - i)] = 1.0  # control i set, all others zero
    w /= np.linalg.norm(w)
    return np.einsum("a,aibj,b->ij", w.conj(), state.reshape(c_dim, d, c_dim, d), w)
