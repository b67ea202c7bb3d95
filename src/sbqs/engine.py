"""Protocol engine: post-selected controlled-SWAP steps in closed form.

A Hamiltonian decomposition drives a Trotterized nonunitary update of the
simulator state.  Every measurement is one primitive: a control qubit
(|0> - delta |1>)/sqrt(1 + delta^2) per (term, delta) pair, a controlled-SWAP
of a fresh resource state rho into the simulator on each, the resources
traced out, and one post-selection of the controls.  One kernel,
:func:`_measure`, computes it for a group of pairs; the strategies differ
only in the group:

- strategy "A" is the one-term group, each term measured on its own (|+>,
  denominator 2);
- "B-local" / "B-global" are the group of all l terms of a Trotter step,
  projected onto |+>^l (2^l) or onto the uniform superposition over
  {all-zeros, one-hots} (l + 1).  Measurements are never deferred across
  Trotter steps.

With B = sum_i delta_i rho_i = I - A over the group, the post-selected state
is (sigma - (sigma B + B sigma) + second) / scale.  "Effective" has second =
B sigma B, the first-order update A sigma A.  "Faithful" keeps what the
circuit produces: each delta_i^2 rho_i sigma rho_i of B sigma B becomes
delta_i^2 rho_i ⊗ Tr_Si sigma (the support qubits of sigma replaced by
rho_i), and scale gains prod_i (1 + delta_i^2); this delta^2 leak is the one
known from density-matrix exponentiation.  "Sampled" evolves like
"effective" and leaves the accept/reject randomness to :func:`sample_run`.
Since delta_i = beta w_i / N, a run's strategy-B B is (beta / N) W, with W =
sum_i w_i rho_i the decomposition's operator, built once per decomposition;
strategy A's B is delta rho.

A sigma A maps a pure state to a pure state, so effective and sampled rows
evolve a state vector as a vector, psi <- A psi / |A psi|, one
matrix-vector product per measurement in :func:`run`'s own loop.  Running
vectors as one-row stacks instead measured 2.9x slower per step at d = 16
and 3.3x on an effective-A row at n = 4, so vectors keep their 1-D path.
Only "faithful" needs a density matrix; its first step promotes a vector to
|psi><psi|.  The rows of a faithful beta sweep differ only in their deltas,
so :func:`run_rows` advances them as one (rows, d, d) stack with the deltas
broadcast per row, one step call per measurement for the whole stack; a
single d×d state is a one-row stack.  Every operation acts on each row on
its own, so a row comes out bit for bit the same alone or in any stack, and
a row whose probability reaches ``EXTINCTION_P`` leaves the stack while the
others go on.  :class:`ProbabilityLedger` keeps each row's probabilities as
two float arrays and reads the success products from them.

No control register or Kraus operator is built.  :func:`cswap_channel` keeps
the Kraus form of one controlled-SWAP as a reference for tests.
"""

from __future__ import annotations

import math
import time
import warnings
from collections.abc import Callable
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


def _support_plan(rho: np.ndarray, support: tuple[int, ...], n: int) -> Callable[[np.ndarray], np.ndarray]:
    """sigma -> rho ⊗ Tr_S sigma for one resource term on ``n`` qubits, with
    the einsum labels of the partial trace and rho reshaped and transposed
    onto the qubit tensor built once, for every call to reuse.

    The function takes a d×d state or a (rows, d, d) stack of them.  The
    support qubits of sigma are traced out and replaced by rho, whose qubit m
    sits on site ``support[m]``.  This is what a controlled-SWAP with its
    control set leaves on the simulator once the resource is traced out.  The
    trace and the product are taken on the 2n-axis qubit tensor, so no
    operator on the full register is built.
    """
    k = len(support)
    tied = [..., *range(2 * n)]
    for q in support:
        tied[1 + n + q] = q  # one label on the row and column axes of q sums its diagonal
    kept = [q for q in range(n) if q not in support]
    kept = [..., *kept, *(n + q for q in kept)]
    # both factors broadcast onto all 2n axes, with size 1 where the other one lives
    order = sorted(range(k), key=support.__getitem__)
    on_support = [2 if q in support else 1 for q in range(n)] * 2
    rho_t = rho.reshape((2,) * 2 * k).transpose(order + [k + m for m in order]).reshape(on_support)
    off_support = tuple([1 if q in support else 2 for q in range(n)] * 2)

    def replace(sigma: np.ndarray) -> np.ndarray:
        lead = sigma.shape[:-2]
        rest = np.einsum(sigma.reshape(lead + (2,) * 2 * n), tied, kept)
        return (rho_t * rest.reshape(lead + off_support)).reshape(sigma.shape)

    return replace


def replace_support(sigma: np.ndarray, rho: np.ndarray, support: tuple[int, ...]) -> np.ndarray:
    """rho ⊗ Tr_S sigma for a state or a stack of states ``sigma``; see
    :func:`_support_plan`, which a run builds once per term."""
    return _support_plan(rho, support, sigma.shape[-1].bit_length() - 1)(sigma)


def _embed(term: ResourceTerm, n_sites: int) -> np.ndarray:
    return embed_operator(term.rho, qubit_layout(n_sites), [f"q{s}" for s in term.support])


def _per_row(delta):
    """A scalar or (rows,) delta shaped (rows, 1, 1), to broadcast over a stack of states."""
    return np.reshape(delta, (-1, 1, 1))


def _density(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def _trace(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of each matrix in a stack."""
    return m.trace(0, -2, -1).real


def _extinction(p: float, step_id: str) -> str:
    return f"post-selection probability {p:.3e} at step {step_id}"


def _check_probability(p: float, step_id: str) -> float:
    if p <= EXTINCTION_P:
        raise ExtinctionError(_extinction(p, step_id), p)
    return min(p, 1.0)


def _formula_probability(sigma: np.ndarray, sb: np.ndarray, b_op: np.ndarray, denom: float):
    """Tr[A sigma A] / denom with A = I - B, read from ``sb`` = sigma B alone,
    per row of a stack."""
    # Re Tr[B sigma B] = Re sum conj(B) * (sigma B), a real dot product of the float views
    b_re, sb_re = (np.ascontiguousarray(m, dtype=complex).view(float) for m in (b_op, sb))
    bsb = np.einsum("...ij,...ij->...", b_re, sb_re)
    return (_trace(sigma) - 2 * _trace(sb) + bsb) / denom


def _post_select(
    sigma: np.ndarray,
    group: list[tuple[np.ndarray, np.ndarray, Callable | None]],
    b_op: np.ndarray,
    denom: float,
    faithful: bool,
):
    """One measurement post-selected over the (delta, embedded resource,
    support plan) triples of ``group``, with ``b_op`` = B = I - A, on a
    (rows, d, d) stack ``sigma`` with deltas shaped (rows, 1, 1) and B one
    d×d matrix or one per row.

    Returns the unnormalized state (sigma - (sigma B + B sigma) + second) / scale,
    its trace (the post-selection probability) and the paper-formula
    probability Tr[A sigma A] / denom, each per row.  Faithful second =
    sum_i delta_i^2 rho_i ⊗ Tr_Si sigma + [B sigma B - sum_i delta_i^2 rho_i sigma rho_i]:
    the bracket holds the cross terms i != j, so a one-term group skips it
    and B sigma B alike.  Linear in ``sigma``, which need not have unit trace.
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
            for delta, emb, _ in group:
                raw -= (delta * delta) * (emb @ sigma @ emb)
    scale = denom
    if faithful:
        for delta, _, support in group:
            raw += (delta * delta) * support(sigma)
            scale = scale * (1 + delta * delta)
    raw *= 1 / scale
    return raw, _trace(raw), p_formula


@dataclass(frozen=True)
class StepResult:
    """The normalized state after one measurement and its probabilities.
    For a stack of states, ``probability`` and ``formula_probability`` are
    (rows,) arrays, and a row whose probability is at or below
    ``EXTINCTION_P`` keeps its unnormalized state."""

    state: np.ndarray
    probability: float | np.ndarray
    formula_probability: float | np.ndarray


def _measure(sigma, group, denom: float, mode: str, step_id: str, b_op=None,
             local: bool = False) -> StepResult:
    """One measurement over the (delta, embedded resource, support plan)
    triples of ``group`` with denominator ``denom``: the kernel of both step
    functions.  ``b_op`` is B = sum_i delta_i rho_i, or None for the one-term
    group's delta rho.  ``sigma`` and a given B are cast to complex here.

    A 1-D ``sigma`` is a state vector, which effective and sampled modes
    update as psi <- A psi / |A psi| with probability |A psi|^2 / denom (the
    formula probability too); faithful mode promotes it to |psi><psi|.
    Density matrices run as a (rows, d, d) stack through :func:`_post_select`,
    each row divided by its trace unless that is at or below ``EXTINCTION_P``;
    a single d×d state is a one-row stack, unwrapped after, and raises
    :class:`ExtinctionError` instead.  ``local`` marks faithful B-local, whose
    |+>^l projection acts on each control alone: the one-term updates chain
    in term order and renormalize once, and the formula probability
    Tr[A sigma A] / denom reads the whole group.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    faithful = mode == "faithful"
    sigma = np.asarray(sigma, dtype=complex)
    b_op = None if b_op is None else np.asarray(b_op, dtype=complex)
    if sigma.ndim == 1 and not faithful:
        out = sigma - (group[0][0] * (group[0][1] @ sigma) if b_op is None else b_op @ sigma)
        norm2 = float(np.vdot(out, out).real)
        p = _check_probability(norm2 / denom, step_id)
        return StepResult(out * (1 / math.sqrt(norm2)), p, p)
    stack = sigma if sigma.ndim == 3 else (_density(sigma) if sigma.ndim == 1 else sigma)[None]
    group = [(_per_row(delta), emb, support) for delta, emb, support in group]
    if b_op is None:
        b_op = group[0][0] * group[0][1]
    if faithful and local:
        p_formula = _formula_probability(stack, stack @ b_op, b_op, denom)
        raw = stack
        for delta, emb, support in group:
            raw = _post_select(raw, [(delta, emb, support)], delta * emb, 2.0, faithful=True)[0]
        trace = _trace(raw)
    else:
        raw, trace, p_formula = _post_select(stack, group, b_op, denom, faithful)
    p = np.minimum(trace, 1.0)
    state = raw * (1 / np.where(trace > EXTINCTION_P, trace, 1.0))[:, None, None]
    if sigma.ndim == 3:
        return StepResult(state, p, p_formula if faithful else p)
    p = _check_probability(float(p[0]), step_id)
    return StepResult(state[0], p, float(p_formula[0]) if faithful else p)


def step_strategy_a(
    sigma: np.ndarray,
    term: ResourceTerm,
    delta: float | np.ndarray,
    mode: str = "faithful",
    kraus: list[np.ndarray] | None = None,
    rho_emb: np.ndarray | None = None,
    support: Callable | None = None,
) -> StepResult:
    """One measured sub-step: the one-term group of :func:`_measure`, whose
    control is projected onto |+> (denominator 2).

    The probability is the trace of the unnormalized post-selected state, and
    the formula probability Tr[(I - delta rho) sigma (I - delta rho)] / 2
    equals it in effective mode.  ``sigma`` is a state vector or a d×d state
    with a scalar ``delta``, or a (rows, d, d) stack with one delta per row.
    ``rho_emb`` is ``term.rho`` embedded on the full register and ``support``
    its :func:`_support_plan`, each built here when not given.  ``kraus`` is
    ignored; it stays for callers written against the earlier Kraus engine.
    """
    n_sites = np.shape(sigma)[-1].bit_length() - 1
    if rho_emb is None:
        rho_emb = _embed(term, n_sites)
    if support is None and mode == "faithful":
        support = _support_plan(term.rho, term.support, n_sites)
    return _measure(sigma, [(delta, rho_emb, support)], 2.0, mode, "sub-step")


def step_strategy_b(
    sigma: np.ndarray,
    terms: list[tuple[ResourceTerm, float | np.ndarray]],
    measurement: str = "global",
    mode: str = "faithful",
    embedded_kraus: list[list[np.ndarray]] | None = None,
    rho_embs: list[np.ndarray] | None = None,
    b_op: np.ndarray | None = None,
    supports: list[Callable] | None = None,
) -> StepResult:
    """One deferred-measurement Trotter step: the group of all ``terms`` in
    :func:`_measure`, with denominator l+1 ("global", the uniform
    superposition over the all-zeros and one-hot control states) or 2^l
    ("local", |+>^l).  ``sigma`` and the deltas are as in
    :func:`step_strategy_a`.

    ``b_op`` = sum_i delta_i rho_i is summed from ``rho_embs`` when not given
    (a run passes (beta/N) W); ``rho_embs`` and ``supports`` are built when
    needed and not given.  ``embedded_kraus`` is ignored, like ``kraus``.
    """
    if measurement not in ("local", "global"):
        raise ValueError(f"measurement must be 'local' or 'global', got {measurement!r}")
    n_sites = np.shape(sigma)[-1].bit_length() - 1
    faithful = mode == "faithful"
    if rho_embs is None and (faithful or b_op is None):
        rho_embs = [_embed(t, n_sites) for t, _ in terms]
    if b_op is None:
        b_op = sum((np.multiply.outer(delta, emb) for (_, delta), emb in zip(terms, rho_embs)),
                   np.zeros((2**n_sites,) * 2, dtype=complex))
    if faithful and supports is None:
        supports = [_support_plan(t.rho, t.support, n_sites) for t, _ in terms]
    group = list(zip((delta for _, delta in terms), rho_embs, supports)) if faithful else []
    denom = float(len(terms) + 1) if measurement == "global" else float(2 ** len(terms))
    return _measure(sigma, group, denom, mode, "step", b_op, local=measurement == "local")


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
    """Per-measurement post-selection probabilities, kept as two float arrays.

    ``exact`` holds the exactly computed probability of every measurement
    ("faithful-exact") and ``formula`` the paper-convention value
    ("paper-formula"); in effective mode the two coincide.  Measurement i has
    step id ``<i // m + 1><suffixes[i % m]>`` for the m ``suffixes`` of a
    Trotter step.  The arrays are checked when the ledger is built, and every
    message names the step: an exact probability above 1 + 1e-12 raises, a
    formula one is clamped to 1 with one note per entry, and a negative or
    NaN one raises.  Products are read from the arrays in measurement order,
    also in log space so that long runs whose product underflows double
    precision stay inspectable.
    """

    def __init__(self, exact=(), formula=(), suffixes: tuple[str, ...] = ("",)):
        exact = np.array(exact, dtype=float)
        formula = np.array(formula, dtype=float)
        self.suffixes = tuple(suffixes)
        if exact.ndim != 1 or exact.shape != formula.shape or (exact.size and not self.suffixes):
            raise ValueError(f"ledger columns of shapes {exact.shape} and {formula.shape} "
                             f"for {len(self.suffixes)} measurements per step")
        invalid = ~((exact >= 0.0) & (formula >= 0.0))
        bad = np.flatnonzero(invalid | (exact > 1.0 + 1e-12))
        if bad.size:
            i = int(bad[0])
            if invalid[i]:
                raise ValueError(f"probabilities {exact[i]}, {formula[i]} at {self.step_id(i)}: "
                                 "negative or NaN")
            raise ValueError(f"exact probability {exact[i]} > 1 at {self.step_id(i)}")
        self.notes = [f"{self.step_id(i)}: formula probability {formula[i]:.6g} clamped to 1"
                      for i in np.flatnonzero(formula > 1.0 + 1e-12)]
        self.exact = np.minimum(exact, 1.0)
        self.formula = np.minimum(formula, 1.0)
        self.exact.flags.writeable = self.formula.flags.writeable = False

    def step_id(self, i: int) -> str:
        step, k = divmod(i, len(self.suffixes))
        return f"{step + 1}{self.suffixes[k]}"

    @property
    def entries(self) -> list[LedgerEntry]:
        """Both probabilities of every measurement, in order, built from the
        arrays on each read."""
        return [
            LedgerEntry(self.step_id(i), p, source)
            for i, pair in enumerate(zip(self.exact.tolist(), self.formula.tolist()))
            for p, source in zip(pair, LEDGER_SOURCES)
        ]

    def probabilities(self, source: str = "faithful-exact") -> list[float]:
        if source not in LEDGER_SOURCES:
            raise ValueError(f"unknown source {source!r}")
        return (self.exact if source == "faithful-exact" else self.formula).tolist()

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
    post-selection probability along the way.

    A row that went extinct in :func:`run_rows` has no final state;
    ``extinction`` says where, and its ledger ends before that measurement.
    """

    plan: TrotterPlan
    final_state: np.ndarray | None  # a density matrix in every mode
    ledger: ProbabilityLedger
    wall_time_s: float
    extinction: str | None = None


def _initial_state(state: np.ndarray, n_sites: int) -> np.ndarray:
    """``state`` as a complex array, checked as a unit vector or a density matrix."""
    dim = 2**n_sites
    state = np.array(state, dtype=complex)
    if state.shape == (dim,):
        check_unit_vector(state)
    elif state.shape == (dim, dim):
        check_density_matrix(state, trace_atol=1e-8)
    else:
        raise ValueError(f"state shape {state.shape} does not match {n_sites} sites")
    return state


def _measurements(plan: TrotterPlan, deltas, scale) -> list[tuple[str, partial]]:
    """(step id suffix, step function) for each measurement of one Trotter
    step of ``plan``: one :func:`step_strategy_a` per term for strategy A,
    one :func:`step_strategy_b` over all terms for strategy B, whose B is
    ``scale`` * W.  ``deltas`` (one per term) and ``scale`` = beta / N are
    scalars for one row or (rows,) arrays for a stack.  Embedded resources
    are built for strategy A and faithful mode, support plans for faithful
    mode.  The step functions are read from the module now, as a tracer may
    wrap them."""
    dec = plan.decomposition
    faithful = plan.mode == "faithful"
    embs = [_embed(t, dec.n) for t in dec.terms] if plan.strategy == "A" or faithful else None
    supports = [_support_plan(t.rho, t.support, dec.n) if faithful else None for t in dec.terms]
    if plan.strategy == "A":
        return [
            (f".{k}", partial(step_strategy_a, term=term, delta=delta, mode=plan.mode,
                              rho_emb=emb, support=support))
            for k, (term, delta, emb, support)
            in enumerate(zip(dec.terms, deltas, embs, supports), start=1)
        ]
    if not dec.terms:
        return []
    measurement = "local" if plan.strategy == "B-local" else "global"
    return [("", partial(step_strategy_b, terms=list(zip(dec.terms, deltas)),
                         measurement=measurement, mode=plan.mode, rho_embs=embs,
                         b_op=np.multiply.outer(scale, dec.operator),
                         supports=supports if faithful else None))]


def run_rows(plans: list[TrotterPlan], state: np.ndarray) -> list[Trajectory]:
    """Execute ``plans`` on the same initial ``state`` as one stacked
    (rows, d, d) state, one row per plan; a vector state is promoted to
    |psi><psi|.

    The plans must come from one decomposition and share their step count,
    strategy and mode, so that they differ only in beta.  Each measurement of
    :func:`run` is one step call for the whole stack and fills one column of
    every row's ledger arrays.  A row whose probability is at or below
    ``EXTINCTION_P`` leaves the stack: its trajectory has no final state and
    its ``extinction`` names the step.  A row comes out bit for bit the same
    alone or with any other rows.  ``wall_time_s`` is the whole stack's.
    """
    if not plans:
        return []
    t0 = time.perf_counter()
    first = plans[0]
    dec = first.decomposition
    shared = (first.n_steps, first.strategy, first.mode)
    if any(p.decomposition is not dec or (p.n_steps, p.strategy, p.mode) != shared for p in plans):
        raise ValueError("run_rows needs plans of one decomposition, step count, strategy and mode")
    state = _initial_state(state, dec.n)
    sigma = np.repeat((_density(state) if state.ndim == 1 else state)[None], len(plans), axis=0)
    rows = np.arange(len(plans))  # the rows still in the stack, in plan order
    deltas = np.array([p.deltas for p in plans], dtype=float).T  # (terms, rows)
    scales = np.array([p.beta / p.n_steps for p in plans])
    measurements = _measurements(first, deltas, scales)
    suffixes = tuple(suffix for suffix, _ in measurements)
    count = first.n_steps * len(measurements)
    exact, formula = np.empty((len(plans), count)), np.empty((len(plans), count))
    ends = [count] * len(plans)
    extinctions: list[str | None] = [None] * len(plans)
    for j in range(count):
        step, k = divmod(j, len(measurements))
        res = measurements[k][1](sigma)
        exact[rows, j] = res.probability
        formula[rows, j] = res.formula_probability
        sigma = res.state
        extinct = res.probability <= EXTINCTION_P
        if extinct.any():
            for row, p in zip(rows[extinct].tolist(), res.probability[extinct].tolist()):
                ends[row] = j
                extinctions[row] = _extinction(p, f"{step + 1}{suffixes[k]}")
            kept = ~extinct
            rows, sigma, deltas, scales = rows[kept], sigma[kept], deltas[:, kept], scales[kept]
            if not rows.size:
                break
            measurements = _measurements(first, deltas, scales)
    wall = time.perf_counter() - t0
    final = dict(zip(rows.tolist(), sigma))
    return [
        Trajectory(plan, final.get(row),
                   ProbabilityLedger(exact[row, :ends[row]], formula[row, :ends[row]], suffixes),
                   wall, extinctions[row])
        for row, plan in enumerate(plans)
    ]


def run(plan: TrotterPlan, state: np.ndarray) -> Trajectory:
    """Execute the plan on the initial ``state``, a unit vector or a density
    matrix.

    Every Trotter step applies the row's measurements in turn, strategy A one
    :func:`step_strategy_a` per term (step id ``<step>.<k>``), strategy B one
    :func:`step_strategy_b` over all terms (``<step>``), and the ledger
    records each.  Faithful mode, and any density-matrix state, runs as the
    one row of :func:`run_rows`, which promotes a vector to |psi><psi|.
    Effective and sampled modes keep a vector a vector, in a loop of their
    own.  Extinction raises :class:`ExtinctionError` naming the step id in
    either case.  Deterministic: the post-selected branch has no randomness,
    which :func:`sample_run` adds.
    """
    if plan.mode == "faithful" or np.ndim(state) != 1:
        (trajectory,) = run_rows([plan], state)
        if trajectory.extinction is not None:
            raise ExtinctionError(trajectory.extinction)
        return trajectory
    t0 = time.perf_counter()
    psi = _initial_state(state, plan.decomposition.n)
    measurements = _measurements(plan, plan.deltas, plan.beta / plan.n_steps)
    count = plan.n_steps * len(measurements)
    exact, formula = np.empty(count), np.empty(count)
    for j in range(count):
        step, k = divmod(j, len(measurements))
        try:
            res = measurements[k][1](psi)
        except ExtinctionError as err:  # a step function cannot know the step id
            raise ExtinctionError(_extinction(err.probability, f"{step + 1}{measurements[k][0]}"),
                                  err.probability) from None
        psi = res.state
        exact[j], formula[j] = res.probability, res.formula_probability
    ledger = ProbabilityLedger(exact, formula, tuple(suffix for suffix, _ in measurements))
    return Trajectory(plan, _density(psi), ledger, time.perf_counter() - t0)


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
