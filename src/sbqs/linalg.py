"""Dense linear algebra: Kronecker products, operator embedding on labeled
tensor-product registers, Hermitian eigendecomposition, norms, and the
state-vector and density-matrix checks.

All operators are plain ``numpy`` arrays in row-major order, real or complex
as the data that built them: every function keeps its inputs' dtype.
Subsystem structure is carried explicitly by :class:`RegisterLayout`, so
operator embedding never relies on an implicit qubit-ordering convention.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NonHermitianError

#: Hard ceiling on the dimension produced by tensor operations.  Everything
#: in this package is desk scale; beyond this, dense storage stops making sense.
DEFAULT_DIM_CAP = 4096

#: Tolerance below which a matrix counts as Hermitian (max-abs entry of m - m†).
HERMITICITY_ATOL = 1e-10

#: Columns of h - h† per band in :func:`hermitian_eig`: a band's transposed
#: read walks as many rows of h.  Symmetrizing a real d = 1024 matrix took
#: 8.4 ms in one band, 8.0 ms in bands of 512 and 5.2 ms in bands of 256
#: (2-vCPU host, one BLAS thread).
_BAND = 256


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered (label, local dimension) pairs describing a tensor register."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.subsystems]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {labels}")
        for label, d in self.subsystems:
            if d < 1:
                raise ValueError(f"subsystem {label!r} has non-positive dimension {d}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def index(self, label: str) -> int:
        for i, (name, _) in enumerate(self.subsystems):
            if name == label:
                return i
        raise KeyError(f"unknown subsystem {label!r}; layout has {list(self.labels)}")


def qubit_layout(n: int) -> RegisterLayout:
    """Layout of ``n`` qubits labeled ``q0 .. q{n-1}``."""
    return RegisterLayout(tuple((f"q{i}", 2) for i in range(n)))


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, with a capacity guard on the
    resulting dimension.  As one outer product it takes 8 us at 4 x 4,
    np.kron 30 us (2-vCPU host), which was most of building a kernel."""
    a = np.asarray(a)
    b = np.asarray(b)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    if (dim := max(rows, cols)) > DEFAULT_DIM_CAP:
        raise CapacityError(f"kron would produce dimension {dim} > cap {DEFAULT_DIM_CAP}")
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(rows, cols)


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - dag(m))) <= HERMITICITY_ATOL


def embed_operator(op: np.ndarray, layout: RegisterLayout, targets: Iterable[str],
                   out: np.ndarray | None = None) -> np.ndarray:
    """Embed an operator acting on ``targets`` (in the given order) into the
    full register, with identity on every other subsystem, added into the
    C-contiguous matrix ``out`` if given (a fresh zero matrix if not), which
    is returned."""
    op = np.asarray(op)
    targets = list(targets)
    t_idx = [layout.index(label) for label in targets]
    if len(set(t_idx)) != len(t_idx):
        raise ValueError(f"repeated target labels {targets}")
    dims = layout.dims
    d_t = math.prod(dims[i] for i in t_idx)
    if op.shape != (d_t, d_t):
        raise ValueError(f"operator shape {op.shape} does not match target dims product {d_t}")
    if layout.dim > DEFAULT_DIM_CAP:
        raise CapacityError(f"embedding into dimension {layout.dim} > cap {DEFAULT_DIM_CAP}")
    if out is None:
        out = np.zeros((layout.dim, layout.dim), dtype=np.result_type(op, float))
    elif out.shape != (layout.dim, layout.dim) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {layout.dim} x {layout.dim} matrix")

    # a view of out's entries that are diagonal on the rest: an axis of the
    # rest shares its label between the bra and the ket side
    k = len(dims)
    rest = [i for i in range(k) if i not in t_idx]
    bra = list(range(k))
    ket = [k + i if i in t_idx else i for i in range(k)]
    view = np.einsum(out.reshape(dims * 2), bra + ket, t_idx + [k + i for i in t_idx] + rest)
    view += op.reshape(tuple(dims[i] for i in t_idx) * 2 + (1,) * len(rest))
    return out


def _components(linked: np.ndarray) -> np.ndarray:
    """Each vertex's component label in the undirected graph whose edges are
    the True entries below the diagonal of the square matrix ``linked``: the
    smallest vertex of its connected component.

    Min-label hooking with pointer jumping, with no loop per vertex or per
    component: every label is a vertex of its own component that labels
    itself.  While an edge has two labels, the larger of them is hooked onto
    the smallest label met across its edges, and every label is then
    replaced by its label's label until none moves.  Labels only fall, so
    this ends, and it ends with one label per component."""
    d = len(linked)
    rows, cols = np.divmod(np.flatnonzero(linked), d)
    below = rows > cols
    edges = np.stack([rows[below], cols[below]])
    label = np.arange(d)
    while True:
        ends = label[edges]
        high, low = ends.max(axis=0), ends.min(axis=0)
        if np.array_equal(high, low):
            return label
        np.minimum.at(label, high, low)
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, one ``eigh`` per decoupled
    block.

    The input is symmetrized as (h + h†)/2 before decomposition; deviations
    beyond ``HERMITICITY_ATOL`` raise instead of being silently averaged away.
    The blocks are the connected components of the graph of the nonzero
    entries below the diagonal of the symmetrized matrix, the triangle that
    ``eigh`` reads, so the split is exact: every entry it reads between two
    blocks is an exact zero.  Blocks of one size are diagonalised in one
    batched ``eigh``.  Returns eigenvalues ascending (a stable sort, so equal
    eigenvalues of different blocks keep the blocks' order) and orthonormal
    eigenvector columns, C-contiguous in the symmetrized matrix's dtype, each
    of them zero outside its block.
    """
    h = np.asarray(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    d = len(h)
    # h - h† once, for the check, then turned in place into h - (h - h†)/2:
    # that is (h + h†)/2, and h itself, bit for bit, when h is exactly
    # Hermitian; an integer h gets a float difference, halved in place
    sym = np.empty(h.shape, np.result_type(h, 0.5))
    for j in range(0, d, _BAND):
        np.subtract(h[:, j:j + _BAND], dag(h[j:j + _BAND]), out=sym[:, j:j + _BAND], dtype=sym.dtype)
    # the largest real or imaginary part m of an entry bounds its modulus,
    # m <= |z| <= sqrt(2) m: |h - h†| itself is formed only if m cannot decide
    parts = sym.view(sym.real.dtype)
    drift = max(parts.max(), -parts.min()) if h.size else 0.0
    if sym.dtype.kind == "c" and not 1.5 * drift <= HERMITICITY_ATOL:
        drift = np.max(np.abs(sym))
    if drift > HERMITICITY_ATOL:
        raise NonHermitianError(
            f"matrix deviates from Hermitian by {drift:.3e} > {HERMITICITY_ATOL:.0e}")
    sym *= -0.5
    sym += h

    # vertices ordered by their block's size, then by block, then by index
    label = _components(sym != 0)
    size = np.bincount(label, minlength=d)[label]
    order = np.argsort(size * d + label, kind="stable")
    per_size = np.bincount(size)  # vertices in blocks of each size
    vals = np.empty(d, dtype=sym.real.dtype)
    groups = []
    start = 0
    for s in np.flatnonzero(per_size):
        count = per_size[s]
        idx = order[start:start + count].reshape(-1, s)
        block_vals, block_vecs = np.linalg.eigh(sym[idx[:, :, None], idx[:, None, :]])
        vals[start:start + count] = block_vals.ravel()
        groups.append((start, idx, block_vecs))
        start += count

    ascending = np.argsort(vals, kind="stable")
    column = np.empty(d, dtype=np.intp)
    column[ascending] = np.arange(d)
    vecs = np.zeros((d, d), dtype=sym.dtype)
    for start, idx, block_vecs in groups:
        vecs[idx[:, :, None], column[start:start + idx.size].reshape(idx.shape)[:, None, :]] = block_vecs
    return vals[ascending], vecs


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    m = np.asarray(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(np.linalg.norm(m, 2))


def frobenius_norm(m: np.ndarray) -> float:
    """Schatten-2 norm, sqrt(sum |entries|^2)."""
    m = np.asarray(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(np.linalg.norm(m))


def check_unit_vector(psi: np.ndarray) -> None:
    """Raise unless the state vector ``psi`` has norm 1 to within 1e-8."""
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-8:
        raise ValueError(f"state vector has norm {np.linalg.norm(psi)}, expected 1")


def check_density_matrix(rho: np.ndarray, trace_atol: float = 1e-10) -> None:
    """Raise unless ``rho`` is Hermitian, PSD, and has trace 1 to within ``trace_atol``."""
    rho = np.asarray(rho)
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    if not is_hermitian(rho):
        raise NonHermitianError("density matrix is not Hermitian within tolerance")
    vals = np.linalg.eigvalsh((rho + dag(rho)) / 2)
    if vals.min() < -1e-10:
        raise ValueError(f"density matrix has eigenvalue {vals.min():.3e} < -1e-10")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > trace_atol:
        raise ValueError(f"trace {tr} differs from 1 by more than {trace_atol:.0e}")
