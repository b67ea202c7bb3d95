"""Independent reference constructions used to check the library.

Everything here is deliberately built from first principles (permutation
unitaries, explicit einsum traces, power series) or from references pinned to
them, rather than through the code paths under test.
"""

from __future__ import annotations

import numpy as np

from sbqs.engine import cswap_channel
from sbqs.linalg import RegisterLayout, embed_operator


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = (a - b + dagger(a - b)) / 2
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + dagger(m)) / 2


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ dagger(m)
    return rho / np.trace(rho).real


def random_pure_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitary_from_hermitian(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(i * scale * h), built by direct eigendecomposition."""
    vals, vecs = np.linalg.eigh((h + dagger(h)) / 2)
    return (vecs * np.exp(1j * scale * vals)) @ dagger(vecs)


def cswap_unitary(support: tuple[int, ...], n: int) -> np.ndarray:
    """Permutation matrix of the controlled-SWAP on (control, resource, sim).

    Basis order is control ⊗ resource ⊗ simulator; when the control bit is 1
    the resource qubits are exchanged with the simulator qubits listed in
    ``support`` (resource factor k pairs with support site k), which for a
    multi-qubit resource is the product of the per-site swaps.
    """
    k = len(support)
    d_r, d = 2**k, 2**n
    dim = 2 * d_r * d
    u = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        c, rest = divmod(idx, d_r * d)
        r, s = divmod(rest, d)
        if c == 0:
            u[idx, idx] = 1.0
            continue
        r_bits = [(r >> (k - 1 - m)) & 1 for m in range(k)]
        s_bits = [(s >> (n - 1 - q)) & 1 for q in range(n)]
        new_r = [s_bits[q] for q in support]
        new_s = list(s_bits)
        for m, q in enumerate(support):
            new_s[q] = r_bits[m]
        r2 = sum(bit << (k - 1 - m) for m, bit in enumerate(new_r))
        s2 = sum(bit << (n - 1 - q) for q, bit in enumerate(new_s))
        u[d_r * d + r2 * d + s2, idx] = 1.0
    return u


def single_site_swap(resource_index: int, site: int, k: int, n: int) -> np.ndarray:
    """Swap of one resource qubit with one simulator site, on resource ⊗ sim."""
    d_r, d = 2**k, 2**n
    u = np.zeros((d_r * d, d_r * d), dtype=complex)
    for idx in range(d_r * d):
        r, s = divmod(idx, d)
        r_bits = [(r >> (k - 1 - m)) & 1 for m in range(k)]
        s_bits = [(s >> (n - 1 - q)) & 1 for q in range(n)]
        r_bits[resource_index], s_bits[site] = s_bits[site], r_bits[resource_index]
        r2 = sum(bit << (k - 1 - m) for m, bit in enumerate(r_bits))
        s2 = sum(bit << (n - 1 - q) for q, bit in enumerate(s_bits))
        u[r2 * d + s2, idx] = 1.0
    return u


def cswap_reference_state(
    rho: np.ndarray,
    support: tuple[int, ...],
    n: int,
    control: np.ndarray,
    sigma: np.ndarray,
) -> np.ndarray:
    """Tr_resource[U (control ⊗ rho ⊗ sigma) U†] on (control ⊗ simulator)."""
    d_r = rho.shape[0]
    d = sigma.shape[0]
    u = cswap_unitary(support, n)
    state = np.kron(np.outer(control, control.conj()), np.kron(rho, sigma))
    out = u @ state @ dagger(u)
    tensor = out.reshape(2, d_r, d, 2, d_r, d)
    return np.einsum("aribrj->aibj", tensor).reshape(2 * d, 2 * d)


def deferred_cswap_state(sigma: np.ndarray, terms, measurement: str) -> np.ndarray:
    """Unnormalized simulator state after one deferred-measurement step, by
    the Kraus route.

    One control per (term, delta) starts in (|0> - delta |1>)/sqrt(1 + delta^2);
    each term's controlled-SWAP Kraus set (``cswap_channel``, which the engine
    tests pin to :func:`cswap_unitary`) is embedded on its control and the
    simulator and applied in term order; the control register is then
    projected onto |+>^l ("local") or onto the uniform superposition over the
    all-zeros and one-hot states ("global").
    """
    ell = len(terms)
    d = sigma.shape[0]
    n = d.bit_length() - 1
    layout = RegisterLayout(tuple((f"c{i}", 2) for i in range(ell)) + (("S", d),))
    controls = np.array([1.0], dtype=complex)
    for _, delta in terms:
        controls = np.kron(controls, np.array([1.0, -delta]) / np.sqrt(1.0 + delta * delta))
    state = np.kron(np.outer(controls, controls.conj()), sigma)
    for i, (term, _) in enumerate(terms):
        kraus = [embed_operator(k, layout, [f"c{i}", "S"])
                 for k in cswap_channel(term.rho, term.support, n)]
        state = sum(k @ state @ dagger(k) for k in kraus)
    c_dim = 2**ell
    if measurement == "local":
        w = np.ones(c_dim, dtype=complex)
    else:
        w = np.zeros(c_dim, dtype=complex)
        w[0] = 1.0
        for i in range(ell):
            w[2 ** (ell - 1 - i)] = 1.0  # control i set, all others zero
    w /= np.linalg.norm(w)
    return np.einsum("a,aibj,b->ij", w.conj(), state.reshape(c_dim, d, c_dim, d), w)


def exp_series(h: np.ndarray, terms: int) -> np.ndarray:
    """Partial sum of the matrix exponential power series."""
    out = np.eye(h.shape[0], dtype=complex)
    power = np.eye(h.shape[0], dtype=complex)
    fact = 1.0
    for j in range(1, terms + 1):
        power = power @ h
        fact *= j
        out = out + power / fact
    return out
