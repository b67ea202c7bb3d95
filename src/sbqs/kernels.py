"""Faithful kernel layer: post-selected controlled-SWAP updates on each
term's support, as index maps, kernels, windows and the chain a run steps.

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
at the window's start, the sum of its diagonal rest blocks, through the
product of the kernels before it.  They also map X^dagger to K(X)^dagger,
and sigma is Hermitian, so a stack stays flat as the Hermitian half stack of
a support (:func:`_stored`): the rest blocks X_ab with a <= b, the diagonal
ones first, r (r + 1) / 2 of the r^2.  An intp index map leads from one
half stack to another, reading each entry as itself or as its mirror,
conjugated in a complex stack (:func:`_map`).  A run's :class:`_Chain`
steps a whole Trotter step per call, as numpy calls it binds once to the
buffers it owns: a window is one take into its spare stack, one product of
its diagonal rest blocks, end to end, with its functional tiled over them,
which writes its terms' traces straight into the step's, and one batched
GEMM into its state stack.  Within a Trotter step the stack is not
normalized: 1/q is folded into K at the step's last window and at least
every 21 terms, and the run divides its raw traces once, at its end.  The
stack enters the chain once and leaves it once, so a final state is
Hermitian bit for bit.  A B-local chain reads its formula probability
through a functional of W folded onto the half stack
(:func:`_formula_functional`).  Faithful B-global sums its leak kernels on
the last one's half stack, through maps bound once per run, and that sum
leaves once per step (:func:`_leak_sum`).
This module does not import :mod:`sbqs.engine`, which builds and steps these.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, lru_cache, partial

import numpy as np

from .hamiltonian import ResourceTerm
from .linalg import dag, kron

#: Post-selection probabilities at or below this end the protocol branch.
EXTINCTION_P = 1e-14

#: How many probabilities above ``EXTINCTION_P`` multiply to a normal float
#: (21): a chain folds its raw traces into K at least this often.
_FOLD_EVERY = math.floor(math.log(sys.float_info.min) / math.log(EXTINCTION_P))


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


@lru_cache(maxsize=64)
def _parts(data: bytes, dtype: str, s: int) -> tuple[np.ndarray, ...]:
    """The four d_S^2 x d_S^2 parts of a matrix-form kernel of the s x s state
    with these bytes: I, rho ⊗ I + I ⊗ rho^T, vec(rho) vec(I)^T and rho ⊗ rho^T,
    transposed, cached read-only, as the terms of a model share few states."""
    rho = np.frombuffer(data, dtype).reshape(s, s)
    eye = np.eye(s)
    parts = (np.eye(s * s), kron(rho.T, eye) + kron(eye, rho),
             np.outer(eye.ravel(), rho.ravel()), kron(rho.T, rho))
    for part in parts:
        part.flags.writeable = False
    return parts


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
    applied as block products, on any set of blocks.
    """

    def __init__(self, rho: np.ndarray, support: tuple[int, ...], n: int, coefs):
        self.n, self.rho, self.support, self.source = n, rho, support, None
        # coefficients shaped (rows, 1, 1); None drops a term
        self.coefs = [None if c is None else np.reshape(c, (-1, 1, 1)) for c in coefs]
        self.matrix = None
        if len(support) <= _MATRIX_QUBITS:
            parts = _parts(rho.tobytes(), rho.dtype.str, len(rho))
            self.matrix = sum(c * m for c, m in zip(self.coefs, parts) if c is not None)

    @cached_property
    def index(self) -> np.ndarray:
        """The map from ``source``'s half stack to this kernel's, with its
        ``mirrored`` entries, from :func:`_map` on first read: a kernel
        merged into a window reads none."""
        index, self.mirrored = _map(self.source, self.support, self.n)
        return index

    @cached_property
    def home(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The maps from the canonical layout to this half stack and back."""
        return _map(None, self.support, self.n), _map(self.support, None, self.n)

    def enter(self, stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A canonical (rows, d, d) stack, as this kernel's flat half stack."""
        return _gather(stack.reshape(len(stack), -1), *self.home[0], out)

    def leave(self, flat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A flat half stack in this kernel's layout, as a canonical (rows, d,
        d) stack, into ``out`` if given: an entry and its mirror read one
        number, so it is Hermitian bit for bit."""
        d = 2**self.n
        out = _gather(flat, *self.home[1], out)
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


def _leak_kernel(term: ResourceTerm, n: int, delta, source=None) -> _Kernel:
    """sigma -> delta^2 (rho ⊗ Tr_S sigma - rho sigma rho): what faithful mode
    has in place of one term's delta^2 rho sigma rho of B sigma B.  ``maps``,
    bound here, lead from ``source``'s half stack and back (``home`` for None)."""
    d2 = np.square(delta)
    kernel = _Kernel(term.rho, term.support, n, (None, None, d2, -d2))
    kernel.maps = kernel.home if source is None else (_map(source, term.support, n), _map(term.support, source, n))
    return kernel


def _leak_sum(leaks: list[_Kernel], stack: np.ndarray, start: np.ndarray) -> np.ndarray:
    """``start`` plus every leak of the canonical (rows, d, d) ``stack``, on the
    last leak's half stack: sigma and ``start`` enter it, each other leak maps
    its own from sigma's and its output back, and the sum leaves into ``start``."""
    *rest, last = leaks
    sigma, total = last.enter(stack), last.enter(start)
    for leak in rest:
        total += _gather(leak.apply(_gather(sigma, *leak.maps[0])), *leak.maps[1])
    total += last.apply(sigma)  # last, as the block form overwrites sigma
    return last.leave(total, start.reshape(len(start), -1))


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
    the only maps between the canonical and a half stack.  A window's
    functional is tiled over its r diagonal rest blocks, which lead its half
    stack, so one product reads term k's unnormalized formula and exact
    traces of Tr_rest sigma straight into columns 2k + 1 and 2k + 2 of the
    step's raw traces ``sums``.  K is scaled by 1/q at the step's last window
    and at each window ending after ``_FOLD_EVERY`` terms, q in column
    ``folds``: one compare with the two bars and one divide of the window's
    matrix (of 1 by q in the block form, whose ``apply`` scales), where q
    reaches the smallest normal; a row short of it keeps its last, finite
    K/q.  Every p < 1, so no p of a strategy-A fold whose q reaches ``bar``
    = 2 ``EXTINCTION_P`` is extinct, nor that of a B-local step whose F
    folds' q each reach its F-th root.  B-local's, with ``local`` = (B,
    weights), first reads its formula probability into column 0 through a
    functional on the last window's half stack, off-diagonal blocks counted
    twice."""

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
        self.sums = np.zeros((rows, 2 * len(terms) + 1), dtype)
        self.folds = [2 * g[-1] + 2 for g in groups
                      if g is groups[-1] or (g[-1] + 1) % _FOLD_EVERY == 0]
        self.calls, self.local = [], local is not None
        bar = (2 * EXTINCTION_P) ** (1 / len(self.folds) if self.local else 1)
        # per fold and row, whether q reaches (the smallest normal, bar): 1/q is safe, no p is extinct
        flags = np.empty((len(self.folds), rows, 2), dtype=bool)
        bounds = np.tile([sys.float_info.min, bar], (rows, 1))
        self.bar, self.safe = bounds[:, 1], flags[..., 1]

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
        for (x, y), (_, source), g, window in zip(views, views[-1:] + views, groups, self.windows):
            r, s2, end = 2 ** (n - len(window.support)), 4 ** len(window.support), 2 * g[-1] + 2
            diagonal = x[:, :r * s2, None]  # the diagonal blocks' vec(X), end to end, as a column
            sums = self.sums[:, 2 * g[0] + 1:end + 1, None]
            bind(source.take, window.index, 1, x, "wrap")
            if dtype.kind == "c":
                bind(np.conjugate, x, x, where=window.mirrored)
            if window.matrix is None:  # read through the probe and the weights
                probed = np.empty((rows, 3, 1), np.result_type(x, window.probe))
                bind(np.matmul, np.tile(window.probe.T, r), diagonal, probed)
                bind(np.matmul, window.weights.transpose(0, 2, 1), probed, sums)
            else:  # the functional's rows, each tiled r times: contiguous rows for the GEMV
                bind(np.matmul, np.tile(window.functional.transpose(0, 2, 1), r), diagonal, sums)
            scale, matrix = None, window.matrix
            if end in self.folds:  # q is below the smallest normal only if extinct
                q, flag = self.sums[:, end].real, flags[self.folds.index(end)]
                bind(np.greater_equal, q[:, None], bounds, flag)
                if matrix is None:
                    scale = np.ones(rows)
                    bind(np.divide, 1.0, q, scale, where=flag[:, 0])
                else:  # K until a row's first 1/q
                    matrix = np.array(np.broadcast_to(matrix, (rows, *matrix.shape[1:])))
                    bind(np.divide, window.matrix, q[:, None, None], matrix, where=flag[:, :1, None])
            if matrix is None:
                bind(window.apply, x, scale, y)
            else:
                bind(np.matmul, x.reshape(rows, -1, s2), matrix, y.reshape(rows, -1, s2))
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

