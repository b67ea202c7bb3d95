"""Exact references: ground-state data, imaginary-time evolution of a state
vector read from that same eigendecomposition, Uhlmann fidelity, Bures
distance, and energy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExtinctionError
from .linalg import check_density_matrix, check_unit_vector, dag, hermitian_eig, sqrt_psd

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


def ground(h: np.ndarray) -> SpectralData:
    """Ground energy, vector, and gap, with a deterministic phase convention
    (largest-magnitude amplitude made real positive)."""
    vals, vecs = hermitian_eig(h)
    v = vecs[:, 0].copy()
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    v = v * phase.conjugate()
    gap = float(vals[1] - vals[0]) if len(vals) > 1 else 0.0
    return SpectralData(
        ground_energy=float(vals[0]),
        ground_vector=v,
        gap=gap,
        spectrum=vals.copy(),
        degenerate=gap < DEGENERACY_ATOL,
        eigenvectors=vecs,
    )


def ground_basis(spectral: SpectralData, tol: float = DEGENERACY_ATOL) -> np.ndarray:
    """The eigenvectors within ``tol`` of the ground energy, as the d x k
    matrix G whose columns span the ground space; its projector is G G^dagger."""
    vals = spectral.spectrum
    return spectral.eigenvectors[:, : int(np.sum(vals - vals[0] < tol))]


def populations(spectral: SpectralData, psi: np.ndarray) -> np.ndarray:
    """Weights |<v_k|psi>|^2 of a unit vector, capped at 1 against rounding."""
    return np.minimum(np.abs(psi.conj() @ spectral.eigenvectors) ** 2, 1.0)


def exact_ite(spectral: SpectralData, psi0: np.ndarray, beta: float) -> np.ndarray:
    """Normalized imaginary-time evolution e^{-beta h} |psi0> / norm, read
    from the eigenvectors and eigenvalues of h in ``spectral``.

    Computed on a spectrum shifted to start at zero, which leaves the
    normalized output unchanged while avoiding overflow at large beta.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    psi0 = np.asarray(psi0, dtype=complex)
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


def _principal_vector(rho: np.ndarray) -> np.ndarray | None:
    """Eigenvector of a numerically pure state, else None."""
    if abs(float(np.trace(rho @ rho).real) - 1.0) > 1e-12:
        return None
    vals, vecs = hermitian_eig(rho)
    return vecs[:, -1]


def _directed_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    sa = sqrt_psd(a)
    inner = sa @ b @ sa
    vals = np.linalg.eigvalsh((inner + dag(inner)) / 2)
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, clamped into [0, 1].

    ``b`` may be a unit state vector |phi>, for which F = <phi|a|phi> with
    no decomposition.  Pure density matrices take the same expectation-value
    path (the general formula takes square roots of near-zero eigenvalues,
    turning their 1e-16 noise floor into 1e-8); the general case averages the
    two evaluation orders, which agree in exact arithmetic, so the result is
    symmetric by construction.
    """
    check_density_matrix(a, trace_atol=1e-8)
    b = np.asarray(b)
    if b.ndim == 1:
        check_unit_vector(b)
        return _vector_fidelity(a, b)
    check_density_matrix(b, trace_atol=1e-8)
    for first, second in ((a, b), (b, a)):
        v = _principal_vector(second)
        if v is not None:
            f = float(np.real(v.conj() @ first @ v))
            return min(max(f, 0.0), 1.0)
    f = 0.5 * (_directed_fidelity(a, b) + _directed_fidelity(b, a))
    return min(max(f, 0.0), 1.0)


def _vector_fidelity(a: np.ndarray, phi: np.ndarray) -> float:
    """<phi|a|phi> clamped into [0, 1], unchecked: :func:`fidelity` checks
    both arguments first, a sweep's rows pass states the engine built."""
    return min(max(float(np.vdot(phi, a @ phi).real), 0.0), 1.0)


def _bures(f: float) -> float:
    return float(np.sqrt(2.0 * max(0.0, 1.0 - np.sqrt(f))))


def bures_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Bures distance in the D^2 = 2(1 - sqrt(F)) convention; ``b`` may be a
    state vector, as in :func:`fidelity`."""
    return _bures(fidelity(a, b))


def energy(h: np.ndarray, rho: np.ndarray) -> float:
    """Tr[h rho] as a real number, summed as sum_ij h_ij rho_ji in O(d^2)
    without forming the product h rho."""
    h = np.asanyarray(h, dtype=complex)
    rho = np.asanyarray(rho, dtype=complex)
    if h.shape != rho.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"dimension mismatch: {h.shape} vs {rho.shape}")
    val = complex(np.einsum("ij,ji->", h, rho))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"energy has imaginary part {val.imag:.3e}")
    return float(val.real)
