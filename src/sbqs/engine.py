"""Protocol engine: post-selected controlled-SWAP steps in closed form.

A Hamiltonian decomposition drives a Trotterized nonunitary update of the
simulator state.  Every step is one primitive: a control qubit
(|0> - delta |1>)/sqrt(1 + delta^2) per (term, delta) pair, a controlled-SWAP
of a fresh resource state rho into the simulator on each, the resources
traced out, and one post-selected measurement of the controls.  The
strategies differ only in which pairs one measurement reads:

- strategy "A" measures every term on its own (l = 1, projection onto |+>);
- strategies "B-local" / "B-global" defer the measurement to the end of each
  Trotter step and read all l terms, projecting the control register onto
  |+>^l or onto the uniform superposition over {all-zeros, one-hots}.
  Measurements are never deferred across Trotter steps.

With B = sum_i delta_i rho_i = I - A over the pairs read, the post-selected
state is (sigma - (sigma B + B sigma) + second) / scale, a polynomial in the
deltas of a few products of sigma with the embedded resources:

- "effective" has second = B sigma B, which gives the first-order update
  A sigma A;
- "faithful" keeps what the circuit produces: each delta_i^2 rho_i sigma rho_i
  of B sigma B becomes delta_i^2 rho_i ⊗ Tr_Si sigma (the support qubits of
  sigma replaced by rho_i), and the normalization gains prod_i (1 + delta_i^2).
  This delta^2 leak is the one known from density-matrix exponentiation.
  The |+>^l projection of "B-local" acts on each control alone, so faithful
  B-local is the l one-term updates in term order, renormalized once;
- "sampled" evolves like "effective" and leaves the accept/reject randomness
  to :func:`sample_run`.

The effective update A sigma A maps a pure state to a pure state, so
"effective" and "sampled" evolve a state vector as a vector: psi <- A psi / |A psi|,
one matrix-vector product per measurement, with probability |A psi|^2 / denom.
Only "faithful" needs a density matrix, because its delta^2 leak mixes the
state; its first step promotes a vector to |psi><psi|.

:func:`run` applies a row's measurements, one per term (strategy A) or per
Trotter step (strategy B), in a single loop; :class:`ProbabilityLedger` stores
each probability once and reads the success products from its entries.

No control register or Kraus operator is built, so faithful strategy B runs
at any size the dense simulator state allows.  :func:`cswap_channel` keeps
the Kraus form of one controlled-SWAP as a reference for tests.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ExtinctionError, PlanError
from .hamiltonian import ResourceDecomposition, ResourceTerm
from .linalg import (
    check_density_matrix,
    check_unit_vector,
    dag,
    embed_operator,
    hermitian_eig,
    qubit_layout,
)

STRATEGIES = ("A", "B-local", "B-global")
MODES = ("faithful", "effective", "sampled")

#: Post-selection probabilities at or below this end the protocol branch.
EXTINCTION_P = 1e-14

#: make_plan warns when any |delta| exceeds this.
DELTA_WARN = 0.1

_EIG_DROP = 1e-15


def cswap_channel(rho: np.ndarray, support: tuple[int, ...], n_sites: int) -> list[np.ndarray]:
    """Kraus operators on (control ⊗ simulator) for one controlled-SWAP with
    resource state ``rho``, after the resource register is traced out.

    From the eigendecomposition rho = sum_j lam_j |e_j><e_j|, the set is
    K_{k,j} = sqrt(lam_j) (delta_{kj} |0><0| ⊗ I + |1><1| ⊗ |e_j><e_k|),
    with the simulator factor embedded on the support sites.  Zero modes of
    the resource are dropped; completeness sum K†K = I is preserved to 1e-12.
    """
    rho = np.asarray(rho, dtype=complex)
    if len(set(support)) != len(support):
        raise ValueError(f"support sites must be distinct, got {support}")
    if any(s < 0 or s >= n_sites for s in support):
        raise ValueError(f"support {support} outside [0, {n_sites})")
    d_r = 2 ** len(support)
    if rho.shape != (d_r, d_r):
        raise ValueError(f"resource dim {rho.shape[0]} does not match support {support}")
    check_density_matrix(rho)

    vals, vecs = hermitian_eig(rho)
    layout = qubit_layout(n_sites)
    labels = [f"q{s}" for s in support]
    dim = 2**n_sites
    p0 = np.zeros((2, 2), dtype=complex)
    p0[0, 0] = 1.0
    p1 = np.zeros((2, 2), dtype=complex)
    p1[1, 1] = 1.0
    identity_block = np.kron(p0, np.eye(dim, dtype=complex))

    kraus = []
    for j in range(d_r):
        lam = float(vals[j])
        if lam <= _EIG_DROP:
            continue
        root = math.sqrt(lam)
        for k in range(d_r):
            jk = np.outer(vecs[:, j], vecs[:, k].conj())
            op = np.kron(p1, embed_operator(jk, layout, labels))
            if k == j:
                op = op + identity_block
            kraus.append(root * op)
    return kraus


def replace_support(sigma: np.ndarray, rho: np.ndarray, support: tuple[int, ...]) -> np.ndarray:
    """rho ⊗ Tr_S sigma: the ``support`` qubits of ``sigma`` traced out and
    replaced by ``rho``, whose qubit m sits on site ``support[m]``.

    This is what a controlled-SWAP with its control set leaves on the
    simulator once the resource is traced out.  The trace and the product are
    taken on the 2n-axis qubit tensor, so no operator on the full register is
    built.
    """
    dim = sigma.shape[0]
    n = dim.bit_length() - 1
    k = len(support)
    tied = list(range(2 * n))
    for q in support:
        tied[n + q] = q  # one label on the row and column axes of q sums its diagonal
    kept = [q for q in range(n) if q not in support]
    rest = np.einsum(sigma.reshape((2,) * 2 * n), tied, kept + [n + q for q in kept])
    # both factors broadcast onto all 2n axes, with size 1 where the other one lives
    order = sorted(range(k), key=support.__getitem__)
    rho_t = rho.reshape((2,) * 2 * k).transpose(order + [k + m for m in order])
    on_support = [2 if q in support else 1 for q in range(n)] * 2
    off_support = [1 if q in support else 2 for q in range(n)] * 2
    return (rho_t.reshape(on_support) * rest.reshape(off_support)).reshape(dim, dim)


def _embed(term: ResourceTerm, n_sites: int) -> np.ndarray:
    return embed_operator(term.rho, qubit_layout(n_sites), [f"q{s}" for s in term.support])


def _b_operator(
    terms: list[tuple[ResourceTerm, float]], n_sites: int, rho_embs: list[np.ndarray] | None
) -> np.ndarray:
    """B = sum_i delta_i rho_i on the full register.  Without ``rho_embs`` each
    embedding is built, added and dropped in turn, so only one is held."""
    embs = rho_embs if rho_embs is not None else (_embed(t, n_sites) for t, _ in terms)
    b_op = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for (_, delta), emb in zip(terms, embs):
        b_op += delta * emb
    return b_op


def _density(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def _check_probability(p: float, step_id: str) -> float:
    if p <= EXTINCTION_P:
        raise ExtinctionError(f"post-selection probability {p:.3e} at step {step_id}")
    return min(p, 1.0)


def _formula_probability(sigma: np.ndarray, sb: np.ndarray, b_op: np.ndarray, denom: float) -> float:
    """Tr[A sigma A] / denom with A = I - B, read from ``sb`` = sigma B alone."""
    return float(sigma.trace().real - 2 * sb.trace().real + np.vdot(b_op, sb).real) / denom


def _post_select(
    sigma: np.ndarray,
    group: list[tuple[ResourceTerm, float]],
    embs: list[np.ndarray],
    b_op: np.ndarray,
    denom: float,
    faithful: bool,
) -> tuple[np.ndarray, float, float]:
    """One measurement post-selected over the (term, delta) pairs of ``group``,
    whose resources embedded on the full register are ``embs``, with
    ``b_op`` = B = sum_i delta_i rho_i = I - A.

    Returns the unnormalized state (sigma - (sigma B + B sigma) + second) / scale,
    its trace (the post-selection probability) and the paper-formula
    probability Tr[A sigma A] / denom.  Effective: second = B sigma B and
    scale = denom, so the two probabilities agree.  Faithful:
    second = sum_i delta_i^2 rho_i ⊗ Tr_Si sigma + [B sigma B - sum_i delta_i^2 rho_i sigma rho_i]
    and scale = denom prod_i (1 + delta_i^2); the bracket holds the cross
    terms i != j, so a one-term group skips it and B sigma B alike.  Linear
    in ``sigma``, which need not have unit trace.
    """
    sb = sigma @ b_op
    p_formula = _formula_probability(sigma, sb, b_op, denom)
    if faithful and len(group) == 1:
        raw = sigma - (sb + dag(sb))  # B sigma = (sigma B)^dagger for Hermitian B and sigma
    else:
        # A sigma A = sigma A - B sigma A, in the buffer of sigma B: this skips
        # the strided sum with (sigma B)^dagger, which is slow at large d
        raw = np.subtract(sigma, sb, out=sb)
        raw -= b_op @ raw
        if faithful:
            for (_, delta), emb in zip(group, embs):
                raw -= (delta * delta) * (emb @ sigma @ emb)
    scale = denom
    if faithful:
        for term, delta in group:
            raw += (delta * delta) * replace_support(sigma, term.rho, term.support)
            scale *= 1 + delta * delta
    raw *= 1 / scale
    return raw, float(raw.trace().real), p_formula


@dataclass(frozen=True)
class StepResult:
    state: np.ndarray
    probability: float
    formula_probability: float


def _pure_step(psi: np.ndarray, b_psi: np.ndarray, denom: float, step_id: str) -> StepResult:
    """The effective measurement on a state vector: A psi / |A psi| with
    A psi = psi - ``b_psi``.  Its probability |A psi|^2 / denom is the formula
    probability too, as Tr[A sigma A] / denom is for sigma = |psi><psi|."""
    out = psi - b_psi
    norm2 = float(np.vdot(out, out).real)
    p = _check_probability(norm2 / denom, step_id)
    return StepResult(out * (1 / math.sqrt(norm2)), p, p)


def step_strategy_a(
    sigma: np.ndarray,
    term: ResourceTerm,
    delta: float,
    mode: str = "faithful",
    kraus: list[np.ndarray] | None = None,
    rho_emb: np.ndarray | None = None,
) -> StepResult:
    """One measured sub-step: the one-term group of :func:`_post_select`, whose
    control is projected onto |+> (denominator 2).

    The probability is the trace of the unnormalized post-selected state; the
    state is renormalized.  The formula probability
    Tr[(I - delta rho) sigma (I - delta rho)] / 2 is reported in both modes
    and equals the probability in effective mode.  ``rho_emb`` is
    ``term.rho`` embedded on the full register, built here when not given.
    A 1-D ``sigma`` is a state vector: effective and sampled modes return the
    updated vector, faithful mode works on |sigma><sigma|.
    ``kraus`` is ignored: the closed form needs no Kraus operators, and the
    keyword stays only for callers written against the earlier Kraus engine.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if rho_emb is None:
        rho_emb = _embed(term, sigma.shape[0].bit_length() - 1)
    faithful = mode == "faithful"
    if sigma.ndim == 1:
        if not faithful:
            return _pure_step(sigma, delta * (rho_emb @ sigma), 2.0, "sub-step")
        sigma = _density(sigma)
    raw, trace, p_formula = _post_select(
        sigma, [(term, delta)], [rho_emb], delta * rho_emb, 2.0, faithful
    )
    p = _check_probability(trace, "sub-step")
    return StepResult(raw * (1 / trace), p, p_formula if faithful else p)


def step_strategy_b(
    sigma: np.ndarray,
    terms: list[tuple[ResourceTerm, float]],
    measurement: str = "global",
    mode: str = "faithful",
    embedded_kraus: list[list[np.ndarray]] | None = None,
    rho_embs: list[np.ndarray] | None = None,
    b_op: np.ndarray | None = None,
) -> StepResult:
    """One deferred-measurement Trotter step over all ``terms``: the full group
    of :func:`_post_select`, with denominator l+1 ("global", the uniform
    superposition over the all-zeros and one-hot control states) or 2^l
    ("local", |+>^l).

    Faithful "local" is the one-term faithful updates in term order,
    renormalized only at the end, because |+>^l projects each control on its
    own; its formula probability Tr[A sigma A] / 2^l still comes from the
    full group.  ``b_op`` = sum_i delta_i rho_i is built here when not given,
    and so are ``rho_embs``, which only faithful mode reads.  A 1-D ``sigma``
    is handled as in :func:`step_strategy_a`.  ``embedded_kraus`` is ignored,
    like ``kraus`` there.
    """
    if measurement not in ("local", "global"):
        raise ValueError(f"measurement must be 'local' or 'global', got {measurement!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n_sites = sigma.shape[0].bit_length() - 1
    faithful = mode == "faithful"
    if faithful and rho_embs is None:
        rho_embs = [_embed(t, n_sites) for t, _ in terms]
    if b_op is None:
        b_op = _b_operator(terms, n_sites, rho_embs)
    ell = len(terms)
    denom = float(ell + 1) if measurement == "global" else float(2**ell)
    if sigma.ndim == 1:
        if not faithful:
            return _pure_step(sigma, b_op @ sigma, denom, "step")
        sigma = _density(sigma)
    if faithful and measurement == "local":
        p_formula = _formula_probability(sigma, sigma @ b_op, b_op, denom)
        raw = sigma
        for (term, delta), emb in zip(terms, rho_embs):
            raw = _post_select(raw, [(term, delta)], [emb], delta * emb, 2.0, faithful=True)[0]
        trace = float(raw.trace().real)
    else:
        raw, trace, p_formula = _post_select(sigma, terms, rho_embs, b_op, denom, faithful)
    p = _check_probability(trace, "step")
    return StepResult(raw * (1 / trace), p, p_formula if faithful else p)


@dataclass(frozen=True)
class TrotterPlan:
    """Schedule of sub-steps delta_i = beta * h_i / N, one per decomposition term."""

    decomposition: ResourceDecomposition
    beta: float
    n_steps: int
    deltas: tuple[float, ...]
    strategy: str
    mode: str


def make_plan(
    decomposition: ResourceDecomposition,
    beta: float,
    n_steps: int,
    strategy: str = "A",
    mode: str = "faithful",
) -> TrotterPlan:
    """Build the Trotter schedule, rejecting |delta| >= 1 and warning above 0.1."""
    if strategy not in STRATEGIES:
        raise PlanError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if mode not in MODES:
        raise PlanError(f"mode must be one of {MODES}, got {mode!r}")
    if isinstance(n_steps, bool) or not isinstance(n_steps, int) or n_steps < 1:
        raise PlanError(f"step count must be an integer >= 1, got {n_steps!r}")
    if not (math.isfinite(beta) and beta >= 0):
        raise PlanError(f"beta must be finite and >= 0, got {beta}")
    deltas = tuple(beta * t.weight / n_steps for t in decomposition.terms)
    worst = max(map(abs, deltas), default=0.0)
    if worst >= 1.0:
        raise PlanError(f"max |delta| = {worst:.4g} >= 1 at N = {n_steps}; increase the step count")
    if worst > DELTA_WARN:
        warnings.warn(f"max |delta| = {worst:.4g} > {DELTA_WARN}; first-order error may be large",
                      stacklevel=2)
    return TrotterPlan(decomposition, float(beta), n_steps, deltas, strategy, mode)


LEDGER_SOURCES = ("faithful-exact", "paper-formula")


@dataclass(frozen=True)
class LedgerEntry:
    step_id: str
    probability: float
    source: str


class ProbabilityLedger:
    """Per-measurement post-selection probabilities, each stored once.

    Every measurement records the exactly computed probability
    ("faithful-exact") and the paper-convention value ("paper-formula"); in
    effective mode the two coincide.  An exact one above 1 + 1e-12 raises, a
    formula one is clamped to 1 with a note, and a negative or NaN one raises.
    Products are read from the entries, also in log space so that long runs
    whose product underflows double precision stay inspectable.
    """

    def __init__(self):
        self.entries: list[LedgerEntry] = []
        self.notes: list[str] = []

    def record(self, step_id: str, exact: float, formula: float) -> None:
        exact, formula = float(exact), float(formula)
        if not (exact >= 0.0 and formula >= 0.0):
            raise ValueError(f"probabilities {exact}, {formula} at {step_id}: negative or NaN")
        if exact > 1.0 + 1e-12:
            raise ValueError(f"exact probability {exact} > 1 at {step_id}")
        if formula > 1.0 + 1e-12:
            self.notes.append(f"{step_id}: formula probability {formula:.6g} clamped to 1")
        self.entries.append(LedgerEntry(step_id, min(exact, 1.0), "faithful-exact"))
        self.entries.append(LedgerEntry(step_id, min(formula, 1.0), "paper-formula"))

    def probabilities(self, source: str = "faithful-exact") -> list[float]:
        if source not in LEDGER_SOURCES:
            raise ValueError(f"unknown source {source!r}")
        return [e.probability for e in self.entries if e.source == source]

    def cumulative(self, source: str = "faithful-exact") -> float:
        return math.prod(self.probabilities(source), start=1.0)

    def log_cumulative(self, source: str = "faithful-exact") -> float:
        total = 0.0  # summed in order, not with sum(), which compensates on newer Pythons
        for p in self.probabilities(source):
            total += math.log(p) if p > 0.0 else -math.inf
        return total


@dataclass(frozen=True)
class Trajectory:
    """The normalized simulator state after the last Trotter step, plus
    bookkeeping.  Intermediate states are not kept: the ledger records every
    post-selection probability along the way."""

    plan: TrotterPlan
    final_state: np.ndarray  # a density matrix in every mode
    ledger: ProbabilityLedger
    wall_time_s: float


def run(plan: TrotterPlan, state: np.ndarray) -> Trajectory:
    """Execute the plan on the initial ``state``, a unit vector or a density
    matrix.

    Every Trotter step applies the row's measurements in turn, strategy A one
    :func:`step_strategy_a` per term (step id ``<step>.<k>``), strategy B one
    :func:`step_strategy_b` over all terms (``<step>``), and the ledger
    records each.  Effective and sampled modes keep a vector a vector; faithful
    mode promotes it to |psi><psi| at its first step.  Deterministic: the
    post-selected branch has no randomness, which :func:`sample_run` adds.
    """
    t0 = time.perf_counter()
    dec = plan.decomposition
    dim = 2**dec.n
    sigma = np.array(state, dtype=complex)
    if sigma.shape == (dim,):
        check_unit_vector(sigma)
    elif sigma.shape == (dim, dim):
        check_density_matrix(sigma, trace_atol=1e-8)
    else:
        raise ValueError(f"state shape {sigma.shape} does not match {dec.n} sites")

    terms = list(zip(dec.terms, plan.deltas))
    # the embedded resources are read by strategy A and by faithful mode; the
    # rest of strategy B reads only B = sum_i delta_i rho_i, fixed by the row's deltas
    embedded = plan.strategy == "A" or plan.mode == "faithful"
    rho_embs = [_embed(t, dec.n) for t, _ in terms] if embedded else None
    # (step id suffix, step function read from the module now, as a tracer may wrap it)
    measurements = []
    if plan.strategy == "A":
        measurements = [
            (f".{k}", partial(step_strategy_a, term=term, delta=delta, mode=plan.mode, rho_emb=emb))
            for k, ((term, delta), emb) in enumerate(zip(terms, rho_embs), start=1)
        ]
    elif terms:
        measurement = "local" if plan.strategy == "B-local" else "global"
        b_op = _b_operator(terms, dec.n, rho_embs)
        measurements = [("", partial(step_strategy_b, terms=terms, measurement=measurement,
                                     mode=plan.mode, rho_embs=rho_embs, b_op=b_op))]

    ledger = ProbabilityLedger()
    for step in range(1, plan.n_steps + 1):
        for suffix, measure in measurements:
            res = measure(sigma)
            sigma = res.state
            ledger.record(f"{step}{suffix}", res.probability, res.formula_probability)
    final = _density(sigma) if sigma.ndim == 1 else sigma
    return Trajectory(plan, final, ledger, time.perf_counter() - t0)


@dataclass(frozen=True)
class SampleResult:
    """Outcome of Monte Carlo post-selection sampling."""

    frequency: float
    successes: int
    trials: int
    accepted: np.ndarray = field(repr=False)
    accepted_average: np.ndarray | None
    trajectory: Trajectory


def sample_run(
    plan: TrotterPlan,
    state: np.ndarray,
    trials: int,
    seed: int = 0,
) -> SampleResult:
    """Sample every post-selection measurement over ``trials`` repetitions.

    The post-selected trajectory is deterministic, so the engine runs once and
    the RNG only decides, per trial and per measurement, whether the trial
    survives.  A trial aborts at its first failed post-selection.  Zero
    successes are reported, not raised.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    trajectory = run(plan, state)
    probabilities = trajectory.ledger.probabilities("faithful-exact")
    rng = np.random.default_rng(seed)
    alive = np.ones(trials, dtype=bool)
    for p in probabilities:
        n_alive = int(alive.sum())
        if n_alive == 0:
            break
        draws = rng.random(n_alive)
        survivors = draws < p
        alive[np.flatnonzero(alive)] = survivors
    successes = int(alive.sum())
    average = trajectory.final_state.copy() if successes else None
    return SampleResult(
        frequency=successes / trials,
        successes=successes,
        trials=trials,
        accepted=alive,
        accepted_average=average,
        trajectory=trajectory,
    )
