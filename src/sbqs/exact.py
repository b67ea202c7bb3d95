"""Exact references: ground-state data, imaginary-time evolution of a state
vector read from that same eigendecomposition, Uhlmann fidelity, Bures
distance, and energy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtinctionError
from .linalg import check_density_matrix, check_unit_vector, hermitian_eig

#: Gap below which a ground space counts as exactly degenerate.
DEGENERACY_ATOL = 1e-10

#: Normalization traces below this are treated as numerical extinction.
TRACE_FLOOR = 1e-300


@dataclass(frozen=True)
class SpectralData:
    """Ground-state summary of a Hermitian operator, with the eigenvectors
    (columns, in ascending order of ``spectrum``) it was read from."""

    ground_energy: float
    ground_vector: np.ndarray
    gap: float
    spectrum: np.ndarray
    degenerate: bool
    eigenvectors: np.ndarray


def ground(h: np.ndarray | tuple[np.ndarray, np.ndarray]) -> SpectralData:
    """Ground energy, vector, and gap of a Hermitian matrix, or of its
    (eigenvalues, eigenvectors), whose arrays the result then shares, with a
    deterministic phase convention (largest-magnitude amplitude made real positive)."""
    vals, vecs = h if isinstance(h, tuple) else hermitian_eig(h)
    v = vecs[:, 0]
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    v = v * phase.conjugate()
    gap = float(vals[1] - vals[0]) if len(vals) > 1 else 0.0
    return SpectralData(
        ground_energy=float(vals[0]),
        ground_vector=v,
        gap=gap,
        spectrum=vals,
        degenerate=gap < DEGENERACY_ATOL,
        eigenvectors=vecs,
    )


def ground_basis(spectral: SpectralData, tol: float = DEGENERACY_ATOL) -> np.ndarray:
    """The eigenvectors within ``tol`` of the ground energy, as the d x k
    matrix G whose columns span the ground space; its projector is G G^dagger.

    G is a C-contiguous copy, not a strided view of the eigenvectors: a pool
    worker unpickles it contiguous, and BLAS may round sigma @ G differently
    on the two layouts, so a row's fidelity would depend on the pool."""
    vals = spectral.spectrum
    return np.ascontiguousarray(spectral.eigenvectors[:, : int(np.sum(vals - vals[0] < tol))])


def populations(spectral: SpectralData, psi: np.ndarray) -> np.ndarray:
    """Weights |<v_k|psi>|^2 of a unit vector, capped at 1 against rounding.  Summed
    by einsum: a real GEMV's fused multiply-adds leave 2e-17 of an overlap that
    cancels exactly (f0 of H = X), at 22 ms instead of 8 ms at d = 4096."""
    return np.minimum(np.abs(np.einsum("i,ij->j", psi.conj(), spectral.eigenvectors)) ** 2, 1.0)


def exact_ite(spectral: SpectralData, psi0: np.ndarray, beta: float) -> np.ndarray:
    """Normalized imaginary-time evolution e^{-beta h} |psi0> / norm, read
    from the eigenvectors and eigenvalues of h in ``spectral``.

    Computed on a spectrum shifted to start at zero, which leaves the
    normalized output unchanged while avoiding overflow at large beta.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    psi0 = np.asarray(psi0)
    check_unit_vector(psi0)
    if beta == 0:
        return psi0
    vals, vecs = spectral.spectrum, spectral.eigenvectors
    weights = np.exp(-beta * (vals - vals[0]))
    # the overlaps V^dagger psi0, without copying the d x d V^dagger
    out = vecs @ (weights * (psi0.conj() @ vecs).conj())
    norm2 = float(np.vdot(out, out).real)
    if not norm2 > TRACE_FLOOR:
        raise ExtinctionError(f"normalization trace {norm2:.3e} vanished at beta={beta}")
    return out / np.sqrt(norm2)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, clamped into [0, 1],
    from one closed form per case.

    ``b`` may be a unit state vector |phi>, for which F = <phi|a|phi>.  When
    either matrix is pure (Tr m^2 = sum |m_ij|^2 within 1e-12 of 1), F = Tr ab,
    one O(d^2) sum.  Otherwise ab has the spectrum of sqrt(a) b sqrt(a)
    (Jozsa 1994), so F = (sum_k sqrt(lambda_k(ab)))^2; ab and ba share their
    spectrum, so the result is symmetric.  The square roots of near-zero
    eigenvalues turn their 1e-16 noise floor into 1e-8.
    """
    check_density_matrix(a, trace_atol=1e-8)
    b = np.asarray(b)
    if b.ndim == 1:
        check_unit_vector(b)
        return _vector_fidelity(a, b)[0]
    check_density_matrix(b, trace_atol=1e-8)
    if any(abs(float(np.vdot(m, m).real) - 1.0) <= 1e-12 for m in (a, b)):
        f = float(np.vdot(a, b).real)  # Tr ab = sum_ij conj(a_ij) b_ij, a Hermitian
    else:
        f = float(np.sum(np.sqrt(np.maximum(np.linalg.eigvals(a @ b).real, 0.0))) ** 2)
    return min(max(f, 0.0), 1.0)


def _vector_fidelity(a: np.ndarray, phi: np.ndarray) -> tuple[float, float]:
    """F = <phi|a|phi> clamped into [0, 1], and the deficit 1 - F as a's
    weight off phi, Tr a - <phi|a|phi> clamped at 0, which a's trace, 1 up to
    rounding, does not enter.  Unchecked: the public functions check both
    arguments first, a sweep's rows pass states the engine built."""
    overlap = float(np.vdot(phi, a @ phi).real)
    return min(max(overlap, 0.0), 1.0), max(float(np.trace(a).real) - overlap, 0.0)


def _bures(f: float, deficit: float) -> float:
    # 1 - sqrt(f) as (1 - f) / (1 + sqrt(f)), 1 - f read as ``deficit``: no digits cancel near f = 1
    return math.sqrt(2.0 * deficit / (1.0 + math.sqrt(f)))


def bures_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Bures distance in the D^2 = 2(1 - sqrt(F)) convention; ``b`` may be a
    state vector, as in :func:`fidelity`, against which 1 - F is read as a's
    weight off it (:func:`_vector_fidelity`)."""
    f = fidelity(a, b)  # checks both
    return _bures(*_vector_fidelity(a, b)) if np.ndim(b) == 1 else _bures(f, 1.0 - f)


def energy(h: np.ndarray, rho: np.ndarray) -> float:
    """Tr[h rho] as a real number, summed as sum_ij h_ij rho_ji in O(d^2)
    without forming the product h rho."""
    h = np.asanyarray(h)
    rho = np.asanyarray(rho)
    if h.shape != rho.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"dimension mismatch: {h.shape} vs {rho.shape}")
    val = complex(np.einsum("ij,ji->", h, rho))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"energy has imaginary part {val.imag:.3e}")
    return float(val.real)
