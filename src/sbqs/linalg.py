"""Dense complex linear algebra: Kronecker products, operator embedding on
labeled tensor-product registers, Hermitian eigendecomposition, the PSD
square root, norms, and the density-matrix check.

All operators are plain ``numpy`` complex arrays in row-major order.
Subsystem structure is carried explicitly by :class:`RegisterLayout`, so
operator embedding never relies on an implicit qubit-ordering convention.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, MatrixDomainError, NonHermitianError

#: Hard ceiling on the dimension produced by tensor operations.  Everything
#: in this package is desk scale; beyond this, dense storage stops making sense.
DEFAULT_DIM_CAP = 4096

#: Tolerance below which a matrix counts as Hermitian (max-abs entry of m - m†).
HERMITICITY_ATOL = 1e-10


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


def qubit_layout(n: int, prefix: str = "q") -> RegisterLayout:
    """Layout of ``n`` qubits labeled ``q0 .. q{n-1}``."""
    return RegisterLayout(tuple((f"{prefix}{i}", 2) for i in range(n)))


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def kron(a: np.ndarray, b: np.ndarray, cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Kronecker product with a capacity guard on the resulting dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out_dim = max(a.shape[0] * b.shape[0], a.shape[-1] * b.shape[-1])
    if out_dim > cap:
        raise CapacityError(
            f"kron would produce dimension {out_dim} > cap {cap}"
        )
    return np.kron(a, b)


def is_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - dag(m))) <= atol


def embed_operator(op: np.ndarray, layout: RegisterLayout, targets: Iterable[str]) -> np.ndarray:
    """Embed an operator acting on ``targets`` (in the given order) into the
    full register, with identity on every other subsystem."""
    op = np.asarray(op, dtype=complex)
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

    rest = [i for i in range(len(dims)) if i not in t_idx]
    d_rest = math.prod(dims[i] for i in rest) if rest else 1
    full = np.kron(op, np.eye(d_rest, dtype=complex))

    # full is ordered (targets..., rest...) on rows and columns; permute back.
    order = t_idx + rest
    k = len(dims)
    perm = [order.index(i) for i in range(k)]
    tensor = full.reshape(tuple(dims[i] for i in order) * 2)
    tensor = tensor.transpose(perm + [p + k for p in perm])
    return tensor.reshape(layout.dim, layout.dim)


def hermitian_eig(h: np.ndarray, atol: float = HERMITICITY_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (h + h†)/2 before decomposition; deviations
    beyond ``atol`` raise instead of being silently averaged away.  Returns
    eigenvalues ascending and orthonormal eigenvector columns.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    drift = np.max(np.abs(h - dag(h))) if h.size else 0.0
    if drift > atol:
        raise NonHermitianError(f"matrix deviates from Hermitian by {drift:.3e} > {atol:.0e}")
    vals, vecs = np.linalg.eigh((h + dag(h)) / 2)
    return vals, vecs


def sqrt_psd(m: np.ndarray, neg_atol: float = 1e-10) -> np.ndarray:
    """Matrix square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in [-neg_atol, 0) are clamped to zero; anything more negative
    is a genuine domain violation.
    """
    vals, vecs = hermitian_eig(m)
    if np.any(vals < -neg_atol):
        raise MatrixDomainError(f"matrix has eigenvalue {vals.min():.3e} < -{neg_atol:.0e}")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ dag(vecs)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(np.linalg.norm(m, 2))


def frobenius_norm(m: np.ndarray) -> float:
    """Schatten-2 norm, sqrt(sum |entries|^2)."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(np.linalg.norm(m))


def check_density_matrix(
    rho: np.ndarray,
    trace: float = 1.0,
    herm_atol: float = HERMITICITY_ATOL,
    eig_atol: float = 1e-10,
    trace_atol: float = 1e-10,
) -> None:
    """Raise unless ``rho`` is Hermitian, PSD, and has the recorded trace."""
    rho = np.asarray(rho)
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    if not is_hermitian(rho, herm_atol):
        raise NonHermitianError("density matrix is not Hermitian within tolerance")
    vals = np.linalg.eigvalsh((rho + dag(rho)) / 2)
    if vals.min() < -eig_atol:
        raise ValueError(f"density matrix has eigenvalue {vals.min():.3e} < -{eig_atol:.0e}")
    tr = float(np.trace(rho).real)
    if abs(tr - trace) > trace_atol:
        raise ValueError(f"trace {tr} differs from recorded {trace} by more than {trace_atol:.0e}")
