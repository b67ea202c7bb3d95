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

Faithful updates act on each term's support alone.  Moving the k support
qubits of a (rows, d, d) stack last makes it (rows, d_R^2, d_S^2), one
vec(X) per d_S x d_S block X, and the one-term update is one d_S^2 x d_S^2
matrix on those rows, K = (I - delta (rho ⊗ I + I ⊗ rho^T)
+ delta^2 vec(rho) vec(I)^T) / (2 (1 + delta^2)): the k-qubit superoperator
kernel of density-matrix simulators (Jones et al., QuEST, Sci. Rep. 9, 10736
(2019)), built once per term and row (:class:`_Kernel`).  Both probabilities
are linear in X = Tr_rest sigma, read through one (rows, d_S^2, 2)
functional.  Past ``_MATRIX_QUBITS`` support qubits (a pauli-generic term
spans the register) the same map is applied as block products.

A faithful strategy-A or B-local run merges consecutive terms into windows
(:func:`_windows`), each no wider than the widest matrix-form term, and
composes each window's kernels into one matrix per row (:class:`_Window`).
The kernels act blockwise, so every term's traces are read off Tr_rest sigma
at the window's start, through the product of the kernels before it.  The
kernels also map X^dagger to K(X)^dagger, and sigma is Hermitian, so the
stack stays flat as the Hermitian half stack in the layout of the last
window applied (:func:`_stored`): the rest blocks X_ab with a <= b, the
diagonal ones first, r (r + 1) / 2 of the r^2.  An intp index map leads
from the half stack before each window to its own, reading each entry as
itself or as its mirror, conjugated in a complex stack (:func:`_map`).  A
run's :class:`_Chain` steps a whole Trotter step per call, as a list of
numpy calls it binds once to the buffers it owns: a window is one take into
its spare stack, one product that reads its terms' traces off the diagonal
blocks of the rest (or their sum) and one batched GEMM into its state
stack.  Within a Trotter step the stack is not normalized: term k's raw
trace q_k is relative to the step's start, and 1/q is folded into K at the
step's last window and at least every 21 terms, so that no live trace
underflows; the fold also tells whether a p of the step may be extinct.
The run keeps the raw traces and
divides them once, term k's over q_{k-1}, at its end.  The stack enters the
chain once and goes back to the canonical layout once, the only maps
between the canonical and a half stack, so a final state is Hermitian bit
for bit; a public faithful strategy-A or B-local step is a one-step chain.
B-local keeps one ledger entry per Trotter step, the product of its terms'
probabilities, and reads its formula probability through a functional of W
folded onto the half stack.  Faithful B-global forms the dense A sigma A of W plus each
term's leak delta^2 (rho ⊗ Tr_S sigma - rho sigma rho) and reads both
probabilities as traces of that update, before and after the leaks, in one
step a run builds once with its leak kernels (:func:`_global_step`), which
map the full canonical stack.

A sigma A maps a pure state to a pure state, so effective and sampled rows
evolve a state vector, psi <- A psi / |A psi|, one matrix-vector product per
strategy-A measurement (2.9-3.3x faster than a one-row stack at d = 16).
Strategy B's A = I - (beta / N) W is diagonal in W's eigenbasis, cached with
the decomposition (``eigensystem``): its vector rows evolve c = V^dagger psi,
one elementwise product per Trotter step, and rotate in and out once per
run.  A vector step costs about its vector operations: its step function is
bound once per run, the fresh A psi is normalized in place, and its two
probabilities go into the ledger's columns by scalar index.  Only
"faithful" needs a density matrix; its first step promotes a
vector to |psi><psi|.  The rows of a beta sweep differ only in their deltas,
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
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ExtinctionError, PlanError
from .hamiltonian import ResourceDecomposition, ResourceTerm
from .linalg import (
    check_density_matrix,
    check_unit_vector,
    dag,
    embed_operator,
    hermitian_eig,
    kron,
    qubit_layout,
)

STRATEGIES = ("A", "B-local", "B-global")
MODES = ("faithful", "effective", "sampled")

#: Post-selection probabilities at or below this end the protocol branch.
EXTINCTION_P = 1e-14

#: How many probabilities above ``EXTINCTION_P`` multiply to a normal float
#: (21): a chain folds its raw traces into K at least this often.
_FOLD_EVERY = math.floor(math.log(sys.float_info.min) / math.log(EXTINCTION_P))

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


#: A kernel on at most this many support qubits applies its d_S^2 x d_S^2
#: matrix (d_S^2 multiply-adds per entry, one GEMM); on more, block products
#: (d_S per entry plus a few passes), where the matrix would outgrow the state.
#: A 9-row float64 measurement, matrix / blocks: k = 3 at n = 4, 8: 75 / 80 us,
#: 4.0 / 6.9 ms; k = 4 at n = 4, 8: 0.83 / 0.07 ms, 10.6 / 7.0 ms.
_MATRIX_QUBITS = 3


def _layout(support: tuple[int, ...], n: int) -> np.ndarray:
    """The canonical flat index of every entry of a flat (d^2,) state laid out
    for ``support``: the rest qubits first, bra then ket, and the support
    qubits last, so that the state reads (d_R^2, d_S^2), one row-major vec(X)
    per d_S x d_S block X of the rest."""
    rest = [q for q in range(n) if q not in support]
    axes = (*rest, *(n + q for q in rest), *support, *(n + q for q in support))
    return np.arange(4**n, dtype=np.int32).reshape((2,) * 2 * n).transpose(axes).ravel()


def _inverse(order: np.ndarray) -> np.ndarray:
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size, dtype=order.dtype)
    return inverse


def _stored(support: tuple[int, ...] | None, n: int) -> np.ndarray:
    """The canonical flat index of every entry a flat stack holds: all d^2 in
    the canonical order for None, else the half stack of ``support``, the
    blocks X_ab of its :func:`_layout` with a <= b, the r diagonal blocks
    first and then the others row-major, each a row-major vec(X_ab)."""
    if support is None:
        return np.arange(4**n, dtype=np.int32)
    r = 2 ** (n - len(support))
    blocks = np.arange(r * r).reshape(r, r)
    upper = np.less.outer(np.arange(r), np.arange(r))
    return _layout(support, n).reshape(r * r, -1)[np.concatenate([blocks.diagonal(), blocks[upper]])].ravel()


def _read(stored: np.ndarray, wanted: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The map that gathers the canonical entries ``wanted`` from a flat stack
    holding ``stored``: each one's position there, and whether it is read as
    its mirror (sigma[u, v] as sigma[v, u], to be conjugated).  An entry is
    read as itself unless only its mirror is held, or both are and u > v, so
    that an entry and its mirror always read the same number."""
    at = np.full(4**n, -1, dtype=np.int32)
    at[stored] = np.arange(stored.size, dtype=np.int32)
    u, v = wanted >> n, wanted & (2**n - 1)  # row and column
    own, other = at[wanted], at[(v << n) | u]
    mirrored = (own < 0) | ((other >= 0) & (u > v))
    return np.where(mirrored, other, own), mirrored


@lru_cache(maxsize=64)
def _map(source: tuple[int, ...] | None, target: tuple[int, ...] | None, n: int,
         ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_read` from the flat stack of ``source`` to that of ``target``
    (:func:`_stored`), checked and cached: a run's chain builds each of its
    maps once, and public faithful steps on one support share theirs.  Only
    ``mirrored`` is read-only: take copies an index that is not a writeable
    intp array on every call, so the index is one, converted once built (in
    int32), and nothing writes it.  take's mode "wrap" writes into out=
    directly ("raise" buffers it) but would wrap a bad index silently: every
    index must lie inside the source, and every source entry must be read,
    as itself or through its mirror in the source.  A half stack holds both
    entries of a pair only in its diagonal blocks, so a map between two of
    them reads some entries twice and leaves the mirror of some others
    unread."""
    stored = _stored(source, n)
    index, mirrored = _read(stored, _stored(target, n), n)
    where = f"layout map from {source or 'the canonical layout'} to {target or 'the canonical layout'}"
    if index.size and not 0 <= index.min() <= index.max() < stored.size:
        raise ValueError(f"{where}: an index outside the source's {stored.size} entries")
    read = np.zeros(4**n, dtype=bool)
    read[stored[index]] = True
    if not (read | read.reshape(2**n, -1).T.ravel()).all():
        raise ValueError(f"{where}: a source entry and its mirror are never read")
    mirrored.flags.writeable = False
    return index.astype(np.intp), mirrored


def _gather(flat: np.ndarray, index: np.ndarray, mirrored: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """The flat stack ``flat`` through the map (``index``, ``mirrored``) of
    :func:`_map`, into ``out`` if given: a complex stack conjugates its
    mirrored entries after the take, a real one has nothing to conjugate."""
    out = flat.take(index, axis=1, out=out, mode="wrap")
    if out.dtype.kind == "c":
        np.conjugate(out, out=out, where=mirrored)
    return out


class _Kernel:
    """X -> c0 X + c1 (rho X + X rho) + c2 rho Tr X + c3 rho X rho on every
    d_S x d_S block X of a (rows, d, d) stack that its support qubits index,
    with real coefficients per row (or one for every row); ``rho``'s qubit m
    sits on site ``support[m]``.

    A chain's kernel reads a flat half stack (:func:`_stored`) in the layout
    of ``source``, a support, and ``index`` gathers its own half stack from
    it, (rows, r (r + 1) / 2, d_S^2) for the r = d_R rest blocks: each block
    X_ab with a <= b, as X_ba = X_ab^dagger and the map takes X^dagger to
    K(X)^dagger.  There the map is one d_S^2 x d_S^2 matrix, the transpose
    of c0 I + c1 (rho ⊗ I + I ⊗ rho^T) + c2 vec(rho) vec(I)^T + c3 rho ⊗
    rho^T: one batched GEMM, one BLAS call per row, so a row comes out bit
    for bit the same in any stack.  Past ``_MATRIX_QUBITS`` qubits it is
    applied as block products, on any set of blocks.  Called on a canonical
    (rows, d, d) stack (faithful B-global's leak kernels), it maps the full
    stack, all r^2 blocks.
    """

    def __init__(self, rho: np.ndarray, support: tuple[int, ...], n: int, coefs):
        self.n, self.rho, self.support, self.source = n, rho, support, None
        # coefficients shaped (rows, 1, 1); None drops a term
        self.coefs = [None if c is None else np.reshape(c, (-1, 1, 1)) for c in coefs]
        s = len(rho)
        self.matrix = None
        if len(support) <= _MATRIX_QUBITS:
            eye = np.eye(s)
            parts = (np.eye(s * s), kron(rho.T, eye) + kron(eye, rho),
                     np.outer(eye.ravel(), rho.ravel()), kron(rho.T, rho))
            self.matrix = sum(c * m for c, m in zip(self.coefs, parts) if c is not None)

    @cached_property
    def index(self) -> np.ndarray:
        """The map from ``source``'s half stack to this kernel's, with its
        ``mirrored`` entries, from :func:`_map` on first read: a kernel
        merged into a window reads none."""
        index, self.mirrored = _map(self.source, self.support, self.n)
        return index

    def enter(self, stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A canonical (rows, d, d) stack, as this kernel's flat half stack."""
        return _gather(stack.reshape(len(stack), -1), *_map(None, self.support, self.n), out)

    def leave(self, flat: np.ndarray) -> np.ndarray:
        """A flat half stack in this kernel's layout, as a canonical (rows, d,
        d) stack: an entry and its mirror read one number, so it is Hermitian
        bit for bit."""
        d = 2**self.n
        out = _gather(flat, *_map(self.support, None, self.n))
        if out.dtype.kind == "c":  # a diagonal entry is its own mirror: its imaginary part is rounding
            out[:, :: d + 1].imag = 0.0
        return out.reshape(len(flat), d, d)

    def apply(self, v: np.ndarray, scale=None, out: np.ndarray | None = None) -> np.ndarray:
        """The map on the flat rows ``v``, blocks of this kernel's layout,
        times the (rows,) ``scale`` if given, written into ``out`` if given.
        ``v`` has the dtype of the result, and the block form overwrites it."""
        rows = len(v)
        if self.matrix is not None:
            m = self.matrix if scale is None else self.matrix * scale[:, None, None]
            s2 = m.shape[-1]
            y = np.matmul(v.reshape(rows, -1, s2), m,
                          out=None if out is None else out.reshape(rows, -1, s2))
            return y.reshape(rows, -1)
        c0, c1, c2, c3 = (None if c is None else (c if scale is None else c * scale[:, None, None])[..., None]
                          for c in self.coefs)  # (rows, 1, 1, 1), for (rows, blocks, s, s)
        s = len(self.rho)
        x = v.reshape(rows, -1, s, s)  # every block; a lone one (r = 1) is Hermitian
        lone = x.shape[1] == 1
        blocks = v.reshape(rows, -1, s)  # the rows of every block, for X M as one GEMM per row
        out = np.empty_like(v) if out is None else out
        o = out.reshape(x.shape)
        # the products that read X come first: its buffer then holds the terms
        trace = None if c2 is None else (c2[..., 0, 0] * np.einsum("...ii->...", x))[..., None, None]
        leak = None
        if c3 is not None:  # rho X rho, (X rho)^dagger rho on a lone block: two GEMMs per row
            xr = (blocks @ self.rho).reshape(x.shape)
            leak = c3 * ((dag(xr) @ self.rho) if lone else self.rho @ xr)
        # c0 X + c1 (rho X + X rho) = Y + Y' with Y = c1 X rho + c0 X / 2, one
        # GEMM per row with the shared rho, and Y' = c1 rho X + c0 X / 2: on
        # a lone block Y^dagger, else its own product
        rx = None if lone or c1 is None else c1 * (self.rho @ x)
        if c1 is None:
            o.fill(0)
        else:
            np.matmul(blocks, self.rho, out=o.reshape(blocks.shape))
            o *= c1
        if c0 is not None:
            x *= c0 / 2
            o += x
        if lone:
            o += np.conjugate(o.swapaxes(-1, -2), out=x)
        else:
            if c0 is not None:
                o += x
            if rx is not None:
                o += rx
        if trace is not None:
            o += np.multiply(trace, self.rho, out=x)
        if leak is not None:
            o += leak
        return out

    @cached_property
    def full(self) -> tuple[np.ndarray, np.ndarray]:
        """The maps to this kernel's full layout (:func:`_layout`) and back."""
        order = _layout(self.support, self.n)
        return order, _inverse(order)

    def __call__(self, sigma: np.ndarray) -> np.ndarray:
        """The map on a canonical (rows, d, d) stack, through the full layout."""
        order, home = self.full
        flat = self.apply(sigma.reshape(len(sigma), -1).take(order, axis=1))
        return flat.take(home, axis=1).reshape(sigma.shape)

    @cached_property
    def probe(self) -> np.ndarray:
        """(d_S^2, 3): Tr X, Tr rho X and Tr rho^2 X of a row-major vec(X), as
        Tr(M X) = vec(M^T) . vec(X) and rho^T = conj(rho); shared by the rows."""
        conj = self.rho.conj()
        return np.stack([np.eye(len(conj)).ravel(), conj.ravel(), (conj @ conj).ravel()], axis=1)

    @cached_property
    def functional(self) -> np.ndarray | None:
        """``probe`` @ ``weights``, (rows, d_S^2, 2): a swap kernel's two
        traces of a vec(X) in one product; None in the block form."""
        return None if self.matrix is None else self.probe @ self.weights


def _swap_kernel(term: ResourceTerm, n: int, delta) -> _Kernel:
    """K_delta of one faithful one-term measurement, sigma ->
    (sigma - delta {rho, sigma} + delta^2 rho ⊗ Tr_S sigma) / (2 (1 + delta^2)),
    for a scalar or (rows,) ``delta``.  ``weights`` (rows, 3, 2) turns Tr X,
    Tr rho X and Tr rho^2 X of an X into the paper's Tr[A X A] / 2 = Tr X / 2
    - delta Tr rho X + delta^2 Tr rho^2 X / 2, with A = I - delta rho, and
    Tr K(X) = Tr X / 2 - delta Tr rho X / (1 + delta^2): of X = Tr_rest sigma,
    the formula and the exact probability."""
    delta = np.reshape(delta, (-1, 1, 1))
    norm = 2 * (1 + delta * delta)
    kernel = _Kernel(term.rho, term.support, n,
                     (1 / norm, -delta / norm, delta * delta / norm, None))
    # columns formula, exact; rows Tr X, Tr rho X, Tr rho^2 X; the probe's dtype: no cast per call
    w = kernel.weights = np.zeros((len(delta), 3, 2), term.rho.dtype)
    w[:, 0] = 0.5
    w[:, 1:, :1], w[:, 1:2, 1:] = np.concatenate([-delta, delta * delta / 2], axis=1), -2 * delta / norm
    return kernel


def _leak_kernel(term: ResourceTerm, n: int, delta) -> _Kernel:
    """sigma -> delta^2 (rho ⊗ Tr_S sigma - rho sigma rho): what faithful mode
    has in place of one term's delta^2 rho sigma rho of B sigma B."""
    d2 = np.square(delta)
    return _Kernel(term.rho, term.support, n, (None, None, d2, -d2))


def _embed(term: ResourceTerm, n_sites: int) -> np.ndarray:
    return embed_operator(term.rho, qubit_layout(n_sites), [f"q{s}" for s in term.support])


def _sites(sigma) -> int:
    """The qubit count of a state vector, a d×d state or a (rows, d, d) stack."""
    return np.shape(sigma)[-1].bit_length() - 1


def _density(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def _as_stack(sigma, *operands) -> np.ndarray:
    """A (rows, d, d) stack in the dtype of ``sigma`` and ``operands``, not
    copied if it is one: a d×d state as one row, a vector as |psi><psi|."""
    sigma = np.asarray(sigma)
    stack = sigma if sigma.ndim == 3 else (_density(sigma) if sigma.ndim == 1 else sigma)[None]
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


def _windows(terms: list[ResourceTerm]) -> list[list[int]]:
    """A Trotter step's terms as windows of term indices: maximal runs of
    consecutive terms, in order, whose union support is no wider than the
    widest matrix-form term, cut after every ``_FOLD_EVERY`` terms.  A
    block-form term is wider than that, so it is a window of its own."""
    widest = max((len(t.support) for t in terms if len(t.support) <= _MATRIX_QUBITS), default=0)
    windows, support = [], ()
    for k, term in enumerate(terms):
        union = (*support, *(q for q in term.support if q not in support))
        if k % _FOLD_EVERY and len(union) <= widest:
            windows[-1].append(k)
            support = union
        else:
            windows.append([k])
            support = term.support
    return windows


class _Window(_Kernel):
    """Consecutive matrix-form swap kernels as one on their union support:
    the product of their maps on vec(X) of an X on that support, K_1 first,
    and a (rows, D, 2m) functional whose columns read each term's formula,
    then exact trace off Tr_rest sigma at the window's start, term k's through
    the product of the k - 1 maps before it: the kernels act blockwise."""

    def __init__(self, kernels: list[_Kernel], n: int):
        self.n, self.rho, self.source = n, None, None
        self.support = tuple(dict.fromkeys(q for kernel in kernels for q in kernel.support))
        d2 = 4 ** len(self.support)
        product, columns = np.eye(d2)[None], []
        for kernel in kernels:
            order = _layout(tuple(map(self.support.index, kernel.support)), len(self.support))
            r = 2 ** (len(self.support) - len(kernel.support))
            # each row of the product in the kernel's layout, (rows, d2, d_R^2, d_S^2)
            x = product[..., order].reshape(len(product), d2, r * r, -1)
            columns.append(x[:, :, ::r + 1].sum(axis=2) @ kernel.functional)
            product = (x.reshape(len(x), -1, x.shape[-1]) @ kernel.matrix).reshape(-1, d2, d2)
            product = product[..., _inverse(order)]
        self.matrix = np.ascontiguousarray(product)  # the indexing leaves it strided
        self.functional = np.concatenate(columns, axis=-1)


class _Chain:
    """A Trotter step's faithful swap kernels merged into :func:`_windows`,
    the buffers a run owns and ``calls``, the numpy calls of one step bound
    to them, all built here.  :meth:`step` runs the windows in turn on the
    Hermitian half stack (:func:`_stored`), each gathering its own from the
    layout the one before leaves, the first from the last one's, into a
    prefix of one spare buffer, and writing a prefix of one state buffer, the
    last window's ``state``: a stack enters and leaves it through ``last``,
    the only maps between the canonical and a half stack.  Term k's
    unnormalized formula and exact traces go into columns 2k and 2k + 1 of
    ``part``, (rows, r, 2l), one row per diagonal block of the rest.  K is
    scaled by 1/q at the step's last window and at each window ending after
    ``_FOLD_EVERY`` terms, where ``part``'s columns since the fold before are
    summed into the step's raw traces ``sums``, q in column ``folds``.  Every
    p < 1, so no p of a strategy-A fold whose q reaches ``bar`` = 2
    ``EXTINCTION_P`` is extinct, nor that of a B-local step whose F folds'
    q each reach its F-th root.  B-local's, with ``local`` = (B, weights),
    first reads its formula probability into column 0 through a functional
    on the last window's half stack, off-diagonal blocks counted twice."""

    def __init__(self, terms: list[tuple[ResourceTerm, object]], n: int, stack: np.ndarray,
                 local: tuple | None = None):
        kernels = [_swap_kernel(term, n, delta) for term, delta in terms]
        groups = _windows([term for term, _ in terms])
        self.windows = [kernels[g[0]] if len(g) == 1 else _Window([kernels[k] for k in g], n)
                        for g in groups]
        for w, window in enumerate(self.windows):
            window.source = self.windows[w - 1].support
        rows, self.last, dtype = len(stack), self.windows[-1], stack.dtype
        # one state and one spare buffer, each window's half stack a prefix
        state, spare = np.empty((2, rows * max(w.index.size for w in self.windows)), dtype)
        views = [[buf[:rows * w.index.size].reshape(rows, -1) for buf in (spare, state)]
                 for w in self.windows]
        self.state = views[-1][1]
        most = 2 ** (n - min(len(w.support) for w in self.windows))  # rest blocks of the widest rest
        self.part = np.zeros((rows, most, 2 * len(terms)), dtype)
        self.sums = np.zeros((rows, 2 * len(terms) + 1), dtype)
        self.folds = [2 * g[-1] + 2 for g in groups
                      if g is groups[-1] or (g[-1] + 1) % _FOLD_EVERY == 0]
        self.calls, self.local = [], local is not None
        bar = (2 * EXTINCTION_P) ** (1 / len(self.folds) if self.local else 1)
        # per fold and row, whether q reaches (the smallest normal, bar): 1/q is safe, no p is extinct
        flags = np.empty((len(self.folds), rows, 2), dtype=bool)
        bounds = np.tile([sys.float_info.min, bar], (rows, 1))
        self.bar, self.safe, inv = bounds[:, 1], flags[..., 1], np.empty(rows)

        def bind(f, *args, **kwargs):
            self.calls.append(partial(f, *args, **kwargs))
        if self.local:
            functional = _formula_functional(local[0], _stored(self.last.support, n))
            functional[..., 2 ** (n + len(self.last.support)):, :] *= 2  # past the diagonal blocks
            read = np.empty((rows, 1, 3), np.result_type(dtype, functional))
            weighed = np.empty((rows, 3))
            bind(np.matmul, self.state[:, None], functional, read)
            bind(np.multiply, read[:, 0].real, local[1], weighed)
            bind(np.add.reduce, weighed, -1, None, self.sums[:, 0].real)
        start = 0
        for (x, y), (_, source), g, window in zip(views, views[-1:] + views, groups, self.windows):
            r, s2, end = 2 ** (n - len(window.support)), 4 ** len(window.support), 2 * g[-1] + 2
            vecs = x.reshape(rows, -1, s2)  # vec(X) of each rest block
            part = self.part[:, :r, 2 * g[0]:end]
            bind(source.take, window.index, 1, x, "wrap")
            if dtype.kind == "c":
                bind(np.conjugate, x, x, where=window.mirrored)
            if window.matrix is None:  # read through the probe and the weights
                probed = np.empty((rows, r, 3), np.result_type(x, window.probe))
                bind(np.matmul, vecs[:, :r], window.probe, probed)
                bind(np.matmul, probed, window.weights, part)
            else:
                bind(np.matmul, vecs[:, :r], window.functional, part)
            scale, matrix = None, window.matrix
            if end in self.folds:  # q is below the smallest normal only if extinct
                q, flag = self.sums[:, end].real, flags[self.folds.index(end)]
                bind(np.add.reduce, self.part[..., start:end], 1, None, self.sums[:, start + 1:end + 1])
                bind(np.greater_equal, q[:, None], bounds, flag)
                bind(inv.fill, 1.0)
                bind(np.reciprocal, q, inv, where=flag[:, 0])
                scale, start = inv, end
                if matrix is not None:
                    matrix = np.empty(np.broadcast_shapes(matrix.shape, (rows, 1, 1)), matrix.dtype)
                    bind(np.multiply, window.matrix, inv[:, None, None], matrix)
            if matrix is None:
                bind(window.apply, x, scale, y)
            else:
                bind(np.matmul, vecs, matrix, y.reshape(rows, -1, s2))
        self.after = [0, *(fold // 2 for fold in self.folds[:-1])]  # terms with q_{k-1} = 1

    def step(self, traces: np.ndarray) -> bool:
        """One Trotter step of ``state``, the flat half stack in the last
        window's layout, in place.  The step's raw traces go into ``traces``,
        (rows, 2l + 1); True if a live row may have a p at or below
        ``EXTINCTION_P``, as a fold's q fell below its ``bar``."""
        for call in self.calls:
            call()
        np.copyto(traces, self.sums)
        return np.count_nonzero(self.safe) < self.safe.size

    def ratios(self, record: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Both probabilities of every term, (2, steps, l, rows), from raw traces
        (steps, rows, 2l + 1) into ``out`` (zeros): q_k / q_{k-1}, or q_k at the
        step's start and after a fold, 0 for q_{k-1} = 0 (a zeroed row); B-local's
        (2, steps, 1, rows): the step's trace, its terms' ratios telescoped, and
        column 0."""
        q = record.real
        if out is None:
            out = np.zeros((2, len(q), 1 if self.local else q.shape[2] // 2, q.shape[1]))
        if self.local:
            out[0, :, 0], out[1, :, 0] = q[..., self.folds].prod(axis=-1), q[..., 0]
            return out
        den = q[..., 2:-1:2]
        dead = ~(den > 0)
        for ratio, num in zip(out.swapaxes(2, 3), (q[..., 2::2], q[..., 1::2])):
            with np.errstate(divide="ignore", invalid="ignore"):  # unmasked: twice as fast
                np.divide(num[..., 1:], den, out=ratio[..., 1:])
            if dead.any():
                np.copyto(ratio[..., 1:], 0.0, where=dead)
            ratio[..., self.after] = num[..., self.after]
        # p <= 1/2 + |delta| / (1 + delta^2) < 1 for |delta| < 1: nothing to clamp
        return out


def _formula_functional(b_op: np.ndarray, order: np.ndarray) -> np.ndarray:
    """(entries, 3), or (rows, entries, 3) for one B per row: the terms of Tr
    sigma, Tr B sigma and Tr B^2 sigma, vec(M^T) . vec(sigma), at the flat
    sigma's canonical entries ``order`` (:func:`_stored`); a 1-D ``b_op`` is
    B's diagonal."""
    if b_op.ndim == 1:
        b_op = np.diag(b_op)
    eye = np.broadcast_to(np.eye(b_op.shape[-1], dtype=b_op.dtype), b_op.shape)
    columns = [np.swapaxes(m, -1, -2).reshape(*b_op.shape[:-2], -1) for m in (eye, b_op, b_op @ b_op)]
    return np.stack([c[..., order] for c in columns], axis=-1)


def _chain_step(sigma, terms: list, b_op=None, denom: float = 2.0) -> StepResult:
    """One faithful step of ``terms`` on a canonical state, a one-step
    :class:`_Chain` that the state enters and leaves: strategy A's without
    ``b_op``, else B-local's, whose formula probability reads B = ``b_op``."""
    stack = _as_stack(sigma, *(t.rho for t, _ in terms), *([] if b_op is None else [b_op]))
    chain = _Chain(terms, _sites(sigma), stack,
                   local=None if b_op is None else (b_op, np.array([1.0, -2.0, 1.0]) / denom))
    record = np.zeros((1, len(stack), 2 * len(terms) + 1), stack.dtype)
    chain.last.enter(stack, out=chain.state)
    chain.step(record[0])
    p, p_formula = chain.ratios(record)[:, 0, 0]
    return _result(np.ndim(sigma), chain.last.leave(chain.state), p, p_formula)


def _measure(sigma, b_op, denom: float, mode: str, delta=None,
             kernels: list[_Kernel] = (), scale=None) -> StepResult:
    """One measurement with B = I - A: ``b_op``, one d×d matrix or one per
    row, or ``delta`` times the d×d ``b_op``.  The state takes the wider dtype
    of ``sigma`` and B: real for real inputs.

    Effective and sampled modes update a 1-D ``sigma`` as a vector, psi <-
    A psi / |A psi| with probability |A psi|^2 / denom; in these modes that
    first-order probability can pass 1, and only its exact column is clamped
    to 1, so that the ledger notes the formula one.  Anything else runs
    as a (rows, d, d) stack (a faithful vector as |psi><psi|), whose update
    is A sigma A + sum_k kernel_k(sigma), with one :func:`_leak_kernel` per
    term for faithful B-global and none otherwise.  Both probabilities are
    traces of that update: the formula probability Tr[A sigma A] / denom is
    read before the kernels are added, and the probability after, as the
    trace over ``scale`` (``denom`` if None), so the two are one expression
    without kernels.  Each row is divided by its trace unless its probability
    is at or below ``EXTINCTION_P``.  A 1-D ``b_op`` is B's diagonal, as in
    :func:`step_strategy_b`.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    sigma = np.asarray(sigma)
    b_op = np.asarray(b_op)
    if sigma.ndim == 1 and mode != "faithful":
        b_psi = b_op * sigma if b_op.ndim == 1 else b_op @ sigma
        out = sigma - (b_psi if delta is None else delta * b_psi)
        norm2 = float(np.vdot(out, out).real)
        p = norm2 / denom  # first order: above 1 at large delta
        if p <= EXTINCTION_P:
            raise ExtinctionError(_extinction(p), p)
        out *= 1 / math.sqrt(norm2)  # a fresh array
        return StepResult(out, min(p, 1.0), p)
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
    for kernel in kernels:
        raw += kernel(stack)
    trace = _trace(raw)
    p = trace / (denom if scale is None else scale)
    if mode != "faithful":
        p = np.minimum(p, 1.0)
    state = raw * (1 / np.where(p > EXTINCTION_P, trace, 1.0))[:, None, None]
    return _result(sigma.ndim, state, p, p_formula)


def _global_step(terms: list, n: int, b_op: np.ndarray, denom: float) -> partial:
    """Faithful B-global's step: :func:`_measure` with B = ``b_op``, one
    :func:`_leak_kernel` per term and the scale ``denom`` prod_i (1 + delta_i^2)."""
    kernels = [_leak_kernel(term, n, delta) for term, delta in terms]
    scale = math.prod((1 + np.square(delta) for _, delta in terms), start=denom)
    return partial(_measure, b_op=b_op, denom=denom, mode="faithful", kernels=kernels, scale=scale)


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
    Faithful mode runs the term's one-step :class:`_Chain`, as a run does;
    effective and sampled modes apply B = delta rho_emb, with ``rho_emb`` =
    ``term.rho`` embedded on the full register, here if not given.  ``kraus``
    is ignored, and ``rho_emb`` in faithful mode; they stay for callers
    written against earlier engines.
    """
    if mode == "faithful":
        return _chain_step(sigma, [(term, delta)])
    if rho_emb is None:
        rho_emb = _embed(term, _sites(sigma))
    return _measure(sigma, rho_emb, 2.0, mode, delta=delta)


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
    runs the one-step :class:`_Chain` of ``terms``, as faithful strategy A
    does, and reads B for the formula probability alone; faithful "global"
    also applies one :func:`_leak_kernel` per term, built here.  The state
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
    denom = float(2 ** len(terms)) if measurement == "local" else float(len(terms) + 1)
    if mode != "faithful":
        return _measure(sigma, b_op, denom, mode)
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
    """The normalized simulator state after the last Trotter step, plus
    bookkeeping.  Intermediate states are not kept: the ledger records every
    post-selection probability along the way.

    A row that went extinct in :func:`run_rows` has no final state;
    ``extinction`` says where, ``extinction_probability`` is the probability
    that ended it, and its ledger ends before that measurement.
    """

    plan: TrotterPlan
    final_state: np.ndarray | None  # a density matrix in every mode
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
                  ) -> tuple[list[tuple[tuple[str, ...], Callable]], _Chain | None]:
    """(step id suffixes, step function) for each measurement of one Trotter
    step of ``plan``, and the :class:`_Chain` of a faithful strategy-A or
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
        chain = _Chain(terms, dec.n, stack, local=local)
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
    every = 0 if vector else slice(None)  # the rows' probabilities; a vector's are scalars
    lost: dict[int, tuple[int, float]] = {}  # extinct row -> (measurement, probability)
    live = np.ones(len(plans), dtype=bool)
    for step in range(first.n_steps):
        if chain is not None:
            if not chain.step(record[step]):  # every fold's q at its bar: no p at EXTINCTION_P
                continue
            chain.ratios(record[step:step + 1], columns[:, step:step + 1])
        else:
            try:
                for key, (_, measure) in enumerate(measurements):  # one entry each
                    sigma, exact[step, key, every], formula[step, key, every] = measure(sigma)
            except ExtinctionError as err:  # only a vector step raises
                lost[0] = (step * len(suffixes) + key, err.probability)
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
        final = None if extinction else _density(sigma) if vector else sigma[row]
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
    sampled modes keep a vector a vector.  Extinction raises
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
        live = np.flatnonzero(alive)
        if not live.size:
            break
        alive[live] = rng.random(live.size) < p
    successes = int(alive.sum())
    average = trajectory.final_state.copy() if successes else None
    return SampleResult(frequency=successes / trials, successes=successes, trials=trials,
                        accepted=alive, accepted_average=average, trajectory=trajectory)
