"""Protocol engine: post-selected controlled-SWAP steps in closed form.

A Hamiltonian decomposition drives a Trotterized nonunitary update of the
simulator state.  Every measurement is one primitive: a control qubit
(|0> - delta |1>)/sqrt(1 + delta^2) per (term, delta) pair, a controlled-SWAP
of a fresh resource state rho into the simulator on each, the resources
traced out, and one post-selection of the controls.  The strategies differ
only in the group of pairs measured together:

- strategy "A" measures each term on its own (|+>, denominator 2);
- "B-local" / "B-global" measure all l terms of a Trotter step, projected
  onto |+>^l (2^l) or onto the uniform superposition over {all-zeros,
  one-hots} (l + 1).  Measurements are never deferred across Trotter steps.

With B = sum_i delta_i rho_i = I - A over the group, the post-selected state
is (sigma - (sigma B + B sigma) + second) / scale.  "Effective" has second =
B sigma B, the first-order update A sigma A.  "Faithful" keeps what the
circuit produces: each delta_i^2 rho_i sigma rho_i of B sigma B becomes
delta_i^2 rho_i ⊗ Tr_Si sigma (the support qubits of sigma replaced by
rho_i), and scale gains prod_i (1 + delta_i^2); this delta^2 leak is the one
known from density-matrix exponentiation.  "Sampled" evolves like
"effective" and leaves the accept/reject randomness to :func:`sample_run`.
A plan derives delta_i = beta w_i / N, so a run's strategy-B B is (beta / N)
W, with W = sum_i w_i rho_i the decomposition's operator, built once.

Faithful updates act on each term's support alone, through the kernel
layer in :mod:`sbqs.kernels`: a faithful strategy-A or B-local run steps one
``kernels._Chain`` of the terms' swap kernels on the Hermitian half stack,
and a public faithful strategy-A or B-local step is a one-step chain.
B-local keeps one ledger entry per Trotter step, the product of its terms'
probabilities.  Faithful B-global forms the dense A sigma A of W plus each
term's leak delta^2 (rho ⊗ Tr_S sigma - rho sigma rho) and reads both
probabilities as traces of that update, before and after the leaks, in one
step a run builds once with its leak kernels (:func:`_global_step`).

A sigma A maps a pure state to a pure state, so effective and sampled rows
evolve a state vector, psi <- A psi / |A psi|, one matrix-vector product per
strategy-A measurement (2.9-3.3x faster than a one-row stack at d = 16).
Strategy B's A = I - (beta / N) W is diagonal in W's eigenbasis, cached with
the decomposition (``eigensystem``): its vector rows evolve c = V^dagger psi,
one elementwise product per Trotter step, and rotate in and out once per
run.  A vector step costs about its vector operations: its step function is
bound once per run, goes straight to A psi, normalized in place, and stores
its two probabilities by one flat index each; the run ends in the vector.
Only "faithful" needs a density matrix; its first step promotes a vector to
|psi><psi|.  The rows of a beta sweep differ only in their deltas,
so :func:`run_rows` advances them as one (rows, d, d) stack; every operation
acts on each row on its own (a batched GEMM is one BLAS call per row), so a
row comes out bit for bit the same alone or in any stack.  :func:`run` and
:func:`run_rows` share one loop (:func:`_advance`), which fills each row's
:class:`ProbabilityLedger` and checks a stack for extinction once per Trotter
step: a row whose probability reached ``EXTINCTION_P`` ends at that entry,
is zeroed and stays in the stack while the others go on.

No control register or Kraus operator is built.  :func:`cswap_channel` keeps
the Kraus form of one controlled-SWAP as a reference for tests.
"""

from __future__ import annotations

import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .errors import ExtinctionError, PlanError
from .hamiltonian import ResourceDecomposition, ResourceTerm
from .kernels import _FOLD_EVERY, EXTINCTION_P  # re-exported
from .linalg import check_density_matrix, check_unit_vector, embed_operator, hermitian_eig, qubit_layout

STRATEGIES = ("A", "B-local", "B-global")
MODES = ("faithful", "effective", "sampled")


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


def _embed(term: ResourceTerm, n_sites: int) -> np.ndarray:
    return embed_operator(term.rho, qubit_layout(n_sites), [f"q{s}" for s in term.support])


def _sites(sigma) -> int:
    """The qubit count of a state vector, a d×d state or a (rows, d, d) stack."""
    return np.shape(sigma)[-1].bit_length() - 1


def _as_stack(sigma, *operands) -> np.ndarray:
    """A (rows, d, d) stack in the dtype of ``sigma`` and ``operands``, not
    copied if it is one: a d×d state as one row, a vector as |psi><psi|."""
    sigma = np.asarray(sigma)
    stack = sigma if sigma.ndim == 3 else (np.outer(sigma, sigma.conj()) if sigma.ndim == 1 else sigma)[None]
    return stack.astype(np.result_type(stack, *operands), copy=False)


def _trace(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of each matrix in a stack."""
    return m.trace(0, -2, -1).real


def _extinction(p: float) -> str:
    """The message of an extinct measurement; a run appends its step id."""
    return f"post-selection probability {p:.3e}"


def _check_probability(p: float) -> float:
    if p <= EXTINCTION_P:
        raise ExtinctionError(_extinction(p), p)
    return p


class StepResult(NamedTuple):
    """The normalized state after one measurement and its probabilities.
    For a stack of states, ``probability`` and ``formula_probability`` are
    (rows,) arrays, and a row whose probability is at or below
    ``EXTINCTION_P`` keeps its unnormalized state."""

    state: np.ndarray
    probability: float | np.ndarray
    formula_probability: float | np.ndarray


def _result(ndim: int, state: np.ndarray, p: np.ndarray, p_formula: np.ndarray) -> StepResult:
    """The result for a ``state`` stack from a state of ``ndim`` dimensions: a
    stack as it is, or one state unwrapped, raising :class:`ExtinctionError` at
    or below ``EXTINCTION_P``.  Only rounding above 1 (1e-12) is clamped."""
    p = np.where(p > 1.0 + 1e-12, p, np.minimum(p, 1.0))
    if ndim == 3:
        return StepResult(state, p, p_formula)
    return StepResult(state[0], _check_probability(float(p[0])), float(p_formula[0]))


def _chain_step(sigma, terms: list, b_op=None, denom: float = 2.0) -> StepResult:
    """One faithful step of ``terms`` on a canonical state, a one-step
    ``kernels._Chain`` that the state enters and leaves: strategy A's without
    ``b_op``, else B-local's, whose formula probability reads B = ``b_op``."""
    stack = _as_stack(sigma, *(t.rho for t, _ in terms), *([] if b_op is None else [b_op]))
    chain = kernels._Chain(terms, _sites(sigma), stack,
                           local=None if b_op is None else (b_op, np.array([1.0, -2.0, 1.0]) / denom))
    record = np.zeros((1, len(stack), 2 * len(terms) + 1), stack.dtype)
    chain.last.enter(stack, out=chain.state)
    chain.step(record[0])
    p, p_formula = chain.ratios(record)[:, 0, 0]
    return _result(np.ndim(sigma), chain.last.leave(chain.state), p, p_formula)


def _effective_step(sigma, b_op, denom: float, mode: str, delta=None) -> StepResult:
    """An effective or sampled step with B as in :func:`_measure`: a state vector
    goes straight to psi <- A psi / |A psi|, with probability |A psi|^2 / denom,
    which can pass 1 at first order (only its exact column is clamped, so the
    ledger notes the formula one); anything else runs through :func:`_measure`."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    sigma, b_op = np.asarray(sigma), np.asarray(b_op)
    if sigma.ndim != 1:
        return _measure(sigma, b_op, denom, mode, delta)
    b_psi = b_op * sigma if b_op.ndim == 1 else b_op @ sigma
    out = sigma - (b_psi if delta is None else delta * b_psi)
    norm2 = float(np.vdot(out, out).real)
    p = norm2 / denom  # first order: above 1 at large delta
    if p <= EXTINCTION_P:
        raise ExtinctionError(_extinction(p), p)
    out *= 1 / math.sqrt(norm2)  # a fresh array
    return tuple.__new__(StepResult, (out, 1.0 if p > 1.0 else p, p))  # skips a Python-level __new__


def _measure(sigma, b_op, denom: float, mode: str, delta=None,
             leaks: list[kernels._Kernel] = (), scale=None) -> StepResult:
    """One measurement of a d×d state or a (rows, d, d) stack (a vector as
    |psi><psi|) with B = I - A: ``b_op``, one d×d matrix or one per row, or
    ``delta`` times the d×d ``b_op``; a 1-D ``b_op`` is B's diagonal.  The
    state takes the wider dtype of ``sigma`` and B: real for real inputs.

    The update is A sigma A + sum_k leak_k(sigma), with one
    ``kernels._leak_kernel`` per term for faithful B-global and none
    otherwise.  Both probabilities are traces of that update: the formula
    probability Tr[A sigma A] / denom is read before the leaks are added,
    and the probability after, as the trace over ``scale`` (``denom`` if
    None), so the two are one expression without leaks.  Each row is
    divided by its trace unless its probability is at or below ``EXTINCTION_P``.
    """
    b_op = np.asarray(b_op)
    # in the dtype of the result, as the block form writes into its input
    stack = _as_stack(sigma, b_op)
    if b_op.ndim == 1:
        b_op = np.diag(b_op)
    if delta is not None:
        b_op = np.reshape(delta, (-1, 1, 1)) * b_op  # one delta per row
    # A sigma A = sigma A - B sigma A, in the buffer of sigma B: this skips
    # the strided sum with (sigma B)^dagger, which is slow at large d
    sb = stack @ b_op
    raw = np.subtract(stack, sb, out=sb)
    raw -= b_op @ raw
    p_formula = _trace(raw) / denom
    for leak in leaks:
        raw += leak(stack)
    trace = _trace(raw)
    p = trace / (denom if scale is None else scale)
    if mode != "faithful":
        p = np.minimum(p, 1.0)
    state = raw * (1 / np.where(p > EXTINCTION_P, trace, 1.0))[:, None, None]
    return _result(np.ndim(sigma), state, p, p_formula)


def _global_step(terms: list, n: int, b_op: np.ndarray, denom: float) -> partial:
    """Faithful B-global's step: :func:`_measure` with B = ``b_op``, one
    ``kernels._leak_kernel`` per term and the scale ``denom`` prod_i (1 + delta_i^2)."""
    leaks = [kernels._leak_kernel(term, n, delta) for term, delta in terms]
    scale = math.prod((1 + np.square(delta) for _, delta in terms), start=denom)
    return partial(_measure, b_op=b_op, denom=denom, mode="faithful", leaks=leaks, scale=scale)


def step_strategy_a(
    sigma: np.ndarray,
    term: ResourceTerm,
    delta: float | np.ndarray,
    mode: str = "faithful",
    kraus: list[np.ndarray] | None = None,
    rho_emb: np.ndarray | None = None,
) -> StepResult:
    """One measured sub-step: the one-term group, whose control is projected
    onto |+> (denominator 2).

    The probability is the trace of the unnormalized post-selected state, and
    the formula probability Tr[(I - delta rho) sigma (I - delta rho)] / 2
    equals it in effective mode.  ``sigma`` is a state vector or a d×d state
    with a scalar ``delta``, or a (rows, d, d) stack with one delta per row.
    Faithful mode runs the term's one-step ``kernels._Chain``, as a run does;
    effective and sampled modes apply B = delta rho_emb, with ``rho_emb`` =
    ``term.rho`` embedded on the full register, here if not given.  ``kraus``
    is ignored, and ``rho_emb`` in faithful mode; they stay for callers
    written against earlier engines.
    """
    if mode == "faithful":
        return _chain_step(sigma, [(term, delta)])
    if rho_emb is None:
        rho_emb = _embed(term, _sites(sigma))
    return _effective_step(sigma, rho_emb, 2.0, mode, delta)


def step_strategy_b(
    sigma: np.ndarray,
    terms: list[tuple[ResourceTerm, float | np.ndarray]],
    measurement: str = "global",
    mode: str = "faithful",
    embedded_kraus: list[list[np.ndarray]] | None = None,
    rho_embs: list[np.ndarray] | None = None,
    b_op: np.ndarray | None = None,
) -> StepResult:
    """One deferred-measurement Trotter step over all ``terms``, with
    denominator l+1 ("global", the uniform superposition over the all-zeros
    and one-hot control states) or 2^l ("local", |+>^l).  ``sigma`` and the
    deltas are as in :func:`step_strategy_a`.

    B = sum_i delta_i rho_i is ``b_op`` if given, else summed from
    ``rho_embs``, embedded here if not given either.  A 1-D ``b_op`` is the
    diagonal of a B diagonal in the basis of ``sigma`` (a run's strategy-B
    vectors step in W's eigenbasis): an effective or sampled vector step takes
    it elementwise, any other step as ``np.diag(b_op)``.  Faithful "local"
    runs the one-step ``kernels._Chain`` of ``terms``, as faithful strategy A
    does, and reads B for the formula probability alone; faithful "global"
    also applies one ``kernels._leak_kernel`` per term, built here.  The state
    comes back in the canonical layout.  ``embedded_kraus`` is ignored, like
    ``kraus``.
    """
    if measurement not in ("local", "global"):
        raise ValueError(f"measurement must be 'local' or 'global', got {measurement!r}")
    if b_op is None:
        n_sites = _sites(sigma)
        if rho_embs is None:
            rho_embs = [_embed(t, n_sites) for t, _ in terms]
        b_op = sum((np.multiply.outer(delta, emb) for (_, delta), emb in zip(terms, rho_embs)),
                   np.zeros((2**n_sites,) * 2))
    denom = 2.0 ** len(terms) if measurement == "local" else len(terms) + 1.0
    if mode != "faithful":
        return _effective_step(sigma, b_op, denom, mode)
    if measurement == "global" or not terms:  # without terms, either step is sigma itself
        return _global_step(terms, _sites(sigma), b_op, denom)(sigma)
    return _chain_step(sigma, terms, b_op, denom)


@dataclass(frozen=True)
class TrotterPlan:
    """Schedule delta_i = beta w_i / N per term, derived on each read; checked when built."""

    decomposition: ResourceDecomposition
    beta: float
    n_steps: int
    strategy: str
    mode: str

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise PlanError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.mode not in MODES:
            raise PlanError(f"mode must be one of {MODES}, got {self.mode!r}")
        n = self.n_steps
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise PlanError(f"step count must be an integer >= 1, got {n!r}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise PlanError(f"beta must be finite and >= 0, got {self.beta}")
        worst = max(map(abs, self.deltas), default=0.0)
        if worst >= 1.0:
            raise PlanError(f"max |delta| = {worst:.4g} >= 1 at N = {n}; increase the step count")
        if worst > DELTA_WARN:
            frame, level = sys._getframe(), 1  # to the first caller past engine and dataclasses
            while frame.f_globals.get("__name__") in (__name__, "dataclasses"):
                frame, level = frame.f_back, level + 1
            warnings.warn(f"max |delta| = {worst:.4g} > {DELTA_WARN}; first-order error may be large",
                          stacklevel=level)

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(self.beta * t.weight / self.n_steps for t in self.decomposition.terms)


def make_plan(decomposition: ResourceDecomposition, beta: float, n_steps: int,
              strategy: str = "A", mode: str = "faithful") -> TrotterPlan:
    """The Trotter schedule: raises at |delta| >= 1, warns the caller above ``DELTA_WARN``."""
    return TrotterPlan(decomposition, float(beta), n_steps, strategy, mode)


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

    def _column(self, source: str) -> np.ndarray:
        if source not in LEDGER_SOURCES:
            raise ValueError(f"unknown source {source!r}")
        return self.exact if source == "faithful-exact" else self.formula

    def probabilities(self, source: str = "faithful-exact") -> list[float]:
        return self._column(source).tolist()

    def cumulative(self, source: str = "faithful-exact") -> float:
        # in order from 1.0, as math.prod: a reduce may multiply out of order
        return float(np.multiply.accumulate(np.append(1.0, self._column(source)))[-1])

    def log_cumulative(self, source: str = "faithful-exact") -> float:
        total = 0.0  # summed in order, not with sum(), which compensates on newer Pythons
        for p in self.probabilities(source):
            total += math.log(p) if p > 0.0 else -math.inf
        return total


@dataclass(frozen=True)
class Trajectory:
    """The normalized simulator state after the last Trotter step (a vector
    run's unit vector, else a density matrix), plus bookkeeping.  Intermediate
    states are not kept: the ledger records every post-selection probability.

    A row that went extinct in :func:`run_rows` has no final state;
    ``extinction`` says where, ``extinction_probability`` is the probability
    that ended it, and its ledger ends before that measurement.
    """

    plan: TrotterPlan
    final_state: np.ndarray | None
    ledger: ProbabilityLedger
    wall_time_s: float
    extinction: str | None = None
    extinction_probability: float | None = None


def _initial_state(state: np.ndarray, n_sites: int) -> np.ndarray:
    """A copy of ``state``, at least float, checked as a unit vector or a density matrix."""
    dim = 2**n_sites
    state = np.asarray(state)
    state = state.astype(np.promote_types(state.dtype, float))
    if state.shape == (dim,):
        check_unit_vector(state)
    elif state.shape == (dim, dim):
        check_density_matrix(state, trace_atol=1e-8)
    else:
        raise ValueError(f"state shape {state.shape} does not match {n_sites} sites")
    return state


def _measurements(plan: TrotterPlan, deltas, scale, stack: np.ndarray | None = None,
                  ) -> tuple[list[tuple[tuple[str, ...], Callable]], kernels._Chain | None]:
    """(step id suffixes, step function) for each measurement of one Trotter
    step of ``plan``, and the ``kernels._Chain`` of a faithful strategy-A or
    B-local ``stack`` (None: the stack rests in the canonical layout).
    ``deltas`` (one per term) and ``scale`` = beta / N are scalars for one row
    or (rows,) arrays for a stack.  Each step function maps a state to (state,
    probability, formula probability), except a chain's Trotter step: one
    measurement with no step function, one suffix per term for strategy A
    and one for B-local, whose chain reads its formula probability with W
    and per-row weights (1, -2 scale, scale^2) / 2^l.
    Faithful B-global is one :func:`_global_step`, built once per run.
    Otherwise strategy A is one :func:`step_strategy_a` per term, each term
    embedded, and strategy B one :func:`step_strategy_b` over all terms, whose
    B is ``scale`` * W; on a vector (no ``stack``), which steps in W's
    eigenbasis, ``scale`` times W's eigenvalues.  Each is bound once, its
    arguments after the state passed positionally, so a call merges no
    keywords; the step functions are read from the module now, as a tracer
    may wrap them."""
    dec = plan.decomposition
    terms = list(zip(dec.terms, deltas))
    if not terms:
        return [], None
    faithful = plan.mode == "faithful"
    if faithful and plan.strategy != "B-global":
        local = None if plan.strategy == "A" else (
            dec.operator, np.stack([np.ones_like(scale), -2 * scale, scale * scale], axis=1) / 2**dec.ell)
        chain = kernels._Chain(terms, dec.n, stack, local=local)
        return [(("",) if local else tuple(f".{k}" for k in range(1, dec.ell + 1)), None)], chain
    mode = plan.mode
    if plan.strategy == "A":
        step = step_strategy_a
        return [((f".{k}",), lambda sigma, term=term, delta=delta, emb=_embed(term, dec.n):
                 step(sigma, term, delta, mode, None, emb))
                for k, (term, delta) in enumerate(terms, start=1)], None
    b_op = np.multiply.outer(scale, dec.eigensystem[0] if stack is None else dec.operator)
    if faithful:
        return [(("",), _global_step(terms, dec.n, b_op, len(terms) + 1.0))], None
    step, measurement = step_strategy_b, plan.strategy[2:]
    return [(("",), lambda sigma: step(sigma, terms, measurement, mode, None, None, b_op))], None


def _advance(plans: list[TrotterPlan], state: np.ndarray, vector: bool) -> list[Trajectory]:
    """The one loop over a run's measurements, for :func:`run` and
    :func:`run_rows`: each row's trajectory.  With ``vector`` the one plan
    evolves a state vector, whose step function raises
    :class:`ExtinctionError`; a strategy-B vector is rotated into W's
    eigenbasis once at the start and back once at the end.  Otherwise the rows
    advance as one stack in the dtype of the state and the resources, and
    extinction is checked once per Trotter step on the rows still live: a row
    with a ledger entry at or below ``EXTINCTION_P`` in the step ends at its
    first such entry, and is zeroed and stays, so that every kernel is built
    once; the loop stops once no row is left.  A faithful strategy-A or
    B-local stack enters its chain once at the start and goes back to the
    canonical layout once at the end, and its ledger is read off its raw
    traces then, and in a step only where a live row may be extinct."""
    t0 = time.perf_counter()
    first = plans[0]
    dec = first.decomposition
    state = _initial_state(state, dec.n)
    if vector:
        sigma, deltas, scales = state, first.deltas, first.beta / first.n_steps
    else:
        sigma = np.repeat(_as_stack(state, *(t.rho for t in dec.terms)), len(plans), axis=0)
        deltas = np.array([p.deltas for p in plans], dtype=float).T  # (terms, rows)
        scales = np.array([p.beta / p.n_steps for p in plans])
    eigenbasis = vector and first.strategy != "A"
    if eigenbasis:
        vecs = dec.eigensystem[1]
        sigma = (sigma.conj() @ vecs).conj()  # V^dagger psi, without copying V^dagger
    measurements, chain = _measurements(first, deltas, scales, None if vector else sigma)
    if chain is not None:
        sigma = chain.last.enter(sigma, out=chain.state)  # the chain steps it in place
        record = np.zeros((first.n_steps, len(plans), 2 * dec.ell + 1), sigma.dtype)
    suffixes = tuple(suffix for group, _ in measurements for suffix in group)
    exact, formula = columns = np.zeros((2, first.n_steps, len(suffixes), len(plans)))
    flat_exact, flat_formula = columns.reshape((2, -1) if vector else (2, -1, len(plans)))
    i = 0  # the next measurement's flat index: a vector's probabilities are scalars, a stack's rows
    lost: dict[int, tuple[int, float]] = {}  # extinct row -> (measurement, probability)
    live = np.ones(len(plans), dtype=bool)
    for step in range(first.n_steps):
        if chain is not None:
            if not chain.step(record[step]):  # every fold's q at its bar: no p at EXTINCTION_P
                continue
            chain.ratios(record[step:step + 1], columns[:, step:step + 1])
        else:
            try:
                for _, measure in measurements:  # one entry each
                    sigma, flat_exact[i], flat_formula[i] = measure(sigma)
                    i += 1
            except ExtinctionError as err:  # only a vector step raises
                lost[0] = (i, err.probability)
                break
        if vector or not (extinct := exact[step] <= EXTINCTION_P).any():
            continue
        extinct &= live  # a zeroed row reads p = 0 from then on
        if extinct.any():
            rows = np.flatnonzero(extinct.any(axis=0))
            sigma[rows] = 0.0
            live[rows] = False
            if chain is not None:
                chain.bar[rows] = -1.0  # a zeroed row's q are 0
            for row, at in zip(rows.tolist(), extinct.argmax(axis=0)[rows].tolist()):
                lost[row] = (step * len(suffixes) + at, float(exact[step, at, row]))
            if not live.any():
                break
    if chain is not None:
        chain.ratios(record, columns)  # the run's ratios, divided once
        sigma = chain.last.leave(sigma)
        del chain, record  # the record is freed before the rows copy their ledgers
    if eigenbasis:
        sigma = vecs @ sigma
    wall = time.perf_counter() - t0
    exact, formula = exact.reshape(-1, len(plans)), formula.reshape(-1, len(plans))
    out = []
    for row, plan in enumerate(plans):
        end, p = lost.get(row, (len(exact), None))
        ledger = ProbabilityLedger(exact[:end, row], formula[:end, row], suffixes)
        extinction = None if p is None else f"{_extinction(p)} at step {ledger.step_id(end)}"
        final = None if extinction else sigma if vector else sigma[row]
        out.append(Trajectory(plan, final, ledger, wall, extinction, p))
    return out


def run_rows(plans: list[TrotterPlan], state: np.ndarray) -> list[Trajectory]:
    """Execute ``plans`` on the same initial ``state`` as one stacked
    (rows, d, d) state, one row per plan; a vector state is promoted to
    |psi><psi|.

    The plans must come from one decomposition and share their step count,
    strategy and mode, so that they differ only in beta.  Each measurement of
    :func:`run` is one step call for the whole stack.  An extinct row is
    zeroed and stays in the stack while the others go on; its trajectory has
    no final state and its ``extinction`` names the step.  A row comes out bit
    for bit the same alone or with any other rows.  ``wall_time_s`` is the
    whole stack's.
    """
    if not plans:
        return []
    if len({(id(p.decomposition), p.n_steps, p.strategy, p.mode) for p in plans}) > 1:
        raise ValueError("run_rows needs plans of one decomposition, step count, strategy and mode")
    return _advance(plans, state, vector=False)


def run(plan: TrotterPlan, state: np.ndarray) -> Trajectory:
    """Execute the plan on the initial ``state``, a unit vector or a density
    matrix.

    Every Trotter step applies the row's measurements in turn, strategy A one
    per term (step id ``<step>.<k>``), strategy B one over all terms
    (``<step>``), and the ledger records each.  Faithful mode, and any
    density-matrix state, runs as the one row of a stack, as in
    :func:`run_rows`, which promotes a vector to |psi><psi|; effective and
    sampled modes keep a vector a vector, final state included.  Extinction raises
    :class:`ExtinctionError` naming the step id and carrying the
    measurement's probability.  Deterministic: the post-selected branch has
    no randomness, which :func:`sample_run` adds.
    """
    vector = plan.mode != "faithful" and np.ndim(state) == 1
    (trajectory,) = _advance([plan], state, vector)
    if trajectory.extinction is not None:
        raise ExtinctionError(trajectory.extinction, trajectory.extinction_probability)
    return trajectory


@dataclass(frozen=True)
class SampleResult:
    """Outcome of Monte Carlo post-selection sampling."""

    frequency: float
    successes: int
    trials: int
    accepted: np.ndarray = field(repr=False)
    accepted_average: np.ndarray | None  # the final state: a vector for a vector run
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
        live = np.flatnonzero(alive)
        if not live.size:
            break
        alive[live] = rng.random(live.size) < p
    successes = int(alive.sum())
    average = trajectory.final_state.copy() if successes else None
    return SampleResult(frequency=successes / trials, successes=successes, trials=trials,
                        accepted=alive, accepted_average=average, trajectory=trajectory)
