"""Protocol engine: post-selected controlled-SWAP steps in closed form.

A Hamiltonian decomposition drives a Trotterized nonunitary update of the
simulator state.  Each sub-step prepares a control qubit
(|0> - delta |1>)/sqrt(1 + delta^2), swaps a fresh resource state rho into
the simulator when the control is set, traces the resource out, and
post-selects a control measurement:

- strategy "A" measures after every sub-step;
- strategies "B-local" / "B-global" defer the measurement to the end of each
  Trotter step, projecting the whole control register onto |+>^l or onto the
  uniform superposition over {all-zeros, one-hots}.  Measurements are never
  deferred across Trotter steps.

After the trace-out the control ⊗ simulator state has the blocks
[[sigma, -delta sigma rho], [-delta rho sigma, delta^2 rho ⊗ Tr_S sigma]] / (1 + delta^2),
so every post-selected state is a polynomial in delta of a few products of
sigma with the embedded resource, and the engine computes it directly:

- "faithful" keeps the term rho ⊗ Tr_S sigma (the support qubits of sigma
  replaced by rho), which is what the circuit produces;
- "effective" puts rho sigma rho in its place, which gives the first-order
  update (I - delta rho) sigma (I - delta rho);
- "sampled" evolves like "effective" and leaves the accept/reject randomness
  to :func:`sample_run`.

No control register or Kraus operator is built, so faithful strategy B runs
at any size the dense simulator state allows.  :func:`cswap_channel` keeps
the Kraus form of one controlled-SWAP as a reference for tests.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ExtinctionError, PlanError
from .hamiltonian import ResourceDecomposition, ResourceTerm
from .linalg import (
    check_density_matrix,
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


def control_state(delta: float) -> np.ndarray:
    """Exactly normalized control qubit (|0> - delta |1>)/sqrt(1 + delta^2)."""
    if not abs(delta) < 1.0:
        raise PlanError(f"|delta| = {abs(delta)} >= 1; increase the step count")
    v = np.array([1.0, -delta], dtype=complex)
    return v / np.sqrt(1.0 + delta * delta)


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


def _check_probability(p: float, step_id: str) -> float:
    if p <= EXTINCTION_P:
        raise ExtinctionError(f"post-selection probability {p:.3e} at step {step_id}")
    return min(p, 1.0)


def _sub_step(
    sigma: np.ndarray, term: ResourceTerm, delta: float, rho_emb: np.ndarray, faithful: bool
) -> tuple[np.ndarray, float, float]:
    """Unnormalized state after one sub-step post-selected on |+>, its trace
    (the post-selection probability), and the paper-formula probability
    Tr[(I - delta rho) sigma (I - delta rho)] / 2.

    Faithful: (sigma - delta {rho, sigma} + delta^2 rho ⊗ Tr_S sigma) / (2 (1 + delta^2)),
    whose trace has Tr sigma in the delta^2 term.
    Effective: (sigma - delta {rho, sigma} + delta^2 rho sigma rho) / 2, whose
    trace is the formula probability.  Both are linear in ``sigma``, which
    need not have unit trace.
    """
    sr = sigma @ rho_emb
    tr_s, tr_sr = sigma.trace().real, sr.trace().real
    tr_rsr = np.vdot(rho_emb, sr).real  # Tr rho sigma rho
    if faithful:
        second, tr_second = replace_support(sigma, term.rho, term.support), tr_s
        scale = 2 * (1 + delta * delta)
    else:
        second, tr_second, scale = rho_emb @ sr, tr_rsr, 2.0
    # rho sigma = (sigma rho)^dagger for Hermitian rho and sigma
    raw = (sigma - delta * (sr + dag(sr)) + (delta * delta) * second) / scale
    p = float(tr_s - 2 * delta * tr_sr + delta * delta * tr_second) / scale
    p_formula = float(tr_s - 2 * delta * tr_sr + delta * delta * tr_rsr) / 2
    return raw, p, p_formula


@dataclass(frozen=True)
class StepResult:
    state: np.ndarray
    probability: float
    formula_probability: float


def step_strategy_a(
    sigma: np.ndarray,
    term: ResourceTerm,
    delta: float,
    mode: str = "faithful",
    kraus: list[np.ndarray] | None = None,
    rho_emb: np.ndarray | None = None,
) -> StepResult:
    """One measured sub-step with a single resource term.

    The probability is the trace of the unnormalized post-selected state
    (see :func:`_sub_step`); the state is renormalized.  The formula
    probability (the Tr/2 convention) is reported in both modes and equals
    the probability in effective mode.  ``rho_emb`` is ``term.rho`` embedded
    on the full register, built here when not given.  ``kraus`` is ignored:
    the closed form needs no Kraus operators, and the keyword stays only for
    callers written against the earlier Kraus engine.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if rho_emb is None:
        rho_emb = _embed(term, sigma.shape[0].bit_length() - 1)
    faithful = mode == "faithful"
    raw, trace, p_formula = _sub_step(sigma, term, delta, rho_emb, faithful)
    p = _check_probability(trace, "sub-step")
    return StepResult(raw / trace, p, p_formula if faithful else p)


def _coherent_operator(
    dim: int, terms: list[tuple[ResourceTerm, float]], rho_embs: list[np.ndarray]
) -> np.ndarray:
    """A = I - sum_i delta_i rho_i on the full register."""
    a_op = np.eye(dim, dtype=complex)
    for (_, delta), emb in zip(terms, rho_embs):
        a_op = a_op - delta * emb
    return a_op


def step_strategy_b(
    sigma: np.ndarray,
    terms: list[tuple[ResourceTerm, float]],
    measurement: str = "global",
    mode: str = "faithful",
    embedded_kraus: list[list[np.ndarray]] | None = None,
    rho_embs: list[np.ndarray] | None = None,
    a_op: np.ndarray | None = None,
) -> StepResult:
    """One deferred-measurement Trotter step over all ``terms``.

    Effective mode applies A sigma A with A = I - sum_i delta_i rho_i and
    probability Tr/(l+1) (global) or Tr/2^l (local); that is also the
    reported formula probability in faithful mode.  Faithful mode gives the
    state after one control per term, every controlled-SWAP, and the
    projection of the control register onto the uniform superposition over
    the all-zeros and one-hot states ("global"):
    (A sigma A + sum_i delta_i^2 (rho_i ⊗ Tr_Si sigma - rho_i sigma rho_i))
    / ((l+1) prod_i (1 + delta_i^2)); or onto |+>^l ("local"): the faithful
    strategy-A sub-steps in term order, renormalized only at the end.

    ``rho_embs`` and ``a_op`` are built here when not given.
    ``embedded_kraus`` is ignored, like ``kraus`` in :func:`step_strategy_a`.
    """
    if measurement not in ("local", "global"):
        raise ValueError(f"measurement must be 'local' or 'global', got {measurement!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    ell = len(terms)
    if rho_embs is None:
        n_sites = sigma.shape[0].bit_length() - 1
        rho_embs = [_embed(t, n_sites) for t, _ in terms]
    if a_op is None:
        a_op = _coherent_operator(sigma.shape[0], terms, rho_embs)
    contracted = a_op @ sigma @ dag(a_op)
    denom = float(ell + 1) if measurement == "global" else float(2**ell)
    trace = float(np.trace(contracted).real)
    p_formula = trace / denom

    if mode != "faithful":
        p = _check_probability(p_formula, "step")
        return StepResult(contracted / trace, p, p)

    if measurement == "local":
        raw = sigma
        for (term, delta), emb in zip(terms, rho_embs):
            raw = _sub_step(raw, term, delta, emb, faithful=True)[0]
    else:
        raw = contracted
        for (term, delta), emb in zip(terms, rho_embs):
            leak = replace_support(sigma, term.rho, term.support) - emb @ sigma @ emb
            raw = raw + (delta * delta) * leak
        raw = raw / (denom * math.prod(1 + delta * delta for _, delta in terms))
    trace = float(np.trace(raw).real)
    return StepResult(raw / trace, _check_probability(trace, "step"), p_formula)


@dataclass(frozen=True)
class TrotterPlan:
    """Schedule of sub-steps delta_i = beta * h_i / N over a decomposition."""

    decomposition: ResourceDecomposition
    beta: float
    n_steps: int
    sub_steps: tuple[tuple[int, float], ...]
    strategy: str
    mode: str

    @property
    def ell(self) -> int:
        return len(self.sub_steps)

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(d for _, d in self.sub_steps)


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
    if n_steps < 1:
        raise PlanError(f"step count must be >= 1, got {n_steps}")
    if beta < 0:
        raise PlanError(f"beta must be >= 0, got {beta}")
    sub_steps = tuple(
        (i, beta * t.weight / n_steps) for i, t in enumerate(decomposition.terms)
    )
    if sub_steps:
        worst = max(abs(d) for _, d in sub_steps)
        if worst >= 1.0:
            raise PlanError(
                f"max |delta| = {worst:.4g} >= 1 at N = {n_steps}; increase the step count"
            )
        if worst > DELTA_WARN:
            warnings.warn(
                f"max |delta| = {worst:.4g} > {DELTA_WARN}; first-order error may be large",
                stacklevel=2,
            )
    return TrotterPlan(decomposition, float(beta), int(n_steps), sub_steps, strategy, mode)


LEDGER_SOURCES = ("faithful-exact", "paper-formula")


@dataclass(frozen=True)
class LedgerEntry:
    step_id: str
    probability: float
    source: str


class ProbabilityLedger:
    """Per-step post-selection probabilities and their running products.

    Each step records the exactly computed probability ("faithful-exact") and
    the paper-convention value ("paper-formula"); in effective mode the two
    coincide.  Products are also tracked in log space so that long runs whose
    product underflows double precision stay inspectable.
    """

    def __init__(self):
        self.entries: list[LedgerEntry] = []
        self.notes: list[str] = []
        self._product = dict.fromkeys(LEDGER_SOURCES, 1.0)
        self._log_sum = dict.fromkeys(LEDGER_SOURCES, 0.0)

    def record(self, step_id: str, probability: float, source: str) -> None:
        if source not in LEDGER_SOURCES:
            raise ValueError(f"unknown source {source!r}")
        p = float(probability)
        if p > 1.0:
            if source == "faithful-exact" and p > 1.0 + 1e-12:
                raise ValueError(f"exact probability {p} > 1 at {step_id}")
            if source == "paper-formula" and p > 1.0 + 1e-12:
                self.notes.append(f"{step_id}: formula probability {p:.6g} clamped to 1")
            p = 1.0
        if p < 0.0:
            raise ValueError(f"negative probability {p} at {step_id}")
        self.entries.append(LedgerEntry(step_id, p, source))
        self._product[source] *= p
        self._log_sum[source] += math.log(p) if p > 0.0 else -math.inf

    def probabilities(self, source: str = "faithful-exact") -> list[float]:
        return [e.probability for e in self.entries if e.source == source]

    def cumulative(self, source: str = "faithful-exact") -> float:
        return self._product[source]

    def log_cumulative(self, source: str = "faithful-exact") -> float:
        return self._log_sum[source]


@dataclass(frozen=True)
class Trajectory:
    """The normalized simulator state after the last Trotter step, plus
    bookkeeping.  Intermediate states are not kept: the ledger records every
    post-selection probability along the way."""

    plan: TrotterPlan
    initial_state: np.ndarray
    final_state: np.ndarray
    ledger: ProbabilityLedger
    wall_time_s: float


def run(plan: TrotterPlan, sigma0: np.ndarray) -> Trajectory:
    """Execute the plan on initial state ``sigma0``.

    Strategy B applies its measurement at the end of every Trotter step; the
    ledger records faithful-exact and paper-formula probabilities for each
    measurement.  Deterministic: the post-selected branch has no randomness,
    which :func:`sample_run` adds on top.
    """
    t0 = time.perf_counter()
    dec = plan.decomposition
    dim = 2**dec.n
    sigma0 = np.asarray(sigma0, dtype=complex)
    if sigma0.shape != (dim, dim):
        raise ValueError(f"state shape {sigma0.shape} does not match {dec.n} sites")
    check_density_matrix(sigma0, trace=1.0, trace_atol=1e-8)

    steps = [(dec.terms[i], delta) for i, delta in plan.sub_steps]
    rho_embs = [_embed(t, dec.n) for t, _ in steps]
    # strategy B's coherent operator only depends on the row's deltas
    a_op = _coherent_operator(dim, steps, rho_embs) if plan.strategy != "A" else None

    sigma = sigma0.copy()
    ledger = ProbabilityLedger()
    measurement = "local" if plan.strategy == "B-local" else "global"
    for step in range(plan.n_steps):
        if plan.strategy == "A":
            for k, ((term, delta), emb) in enumerate(zip(steps, rho_embs)):
                res = step_strategy_a(sigma, term, delta, mode=plan.mode, rho_emb=emb)
                sigma = res.state
                step_id = f"{step + 1}.{k + 1}"
                ledger.record(step_id, res.probability, "faithful-exact")
                ledger.record(step_id, res.formula_probability, "paper-formula")
        elif steps:
            res = step_strategy_b(
                sigma,
                steps,
                measurement=measurement,
                mode=plan.mode,
                rho_embs=rho_embs,
                a_op=a_op,
            )
            sigma = res.state
            ledger.record(f"{step + 1}", res.probability, "faithful-exact")
            ledger.record(f"{step + 1}", res.formula_probability, "paper-formula")
    return Trajectory(plan, sigma0, sigma, ledger, time.perf_counter() - t0)


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
    sigma0: np.ndarray,
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
    trajectory = run(plan, sigma0)
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
