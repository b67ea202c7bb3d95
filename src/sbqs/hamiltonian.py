"""Pauli-sum Hamiltonians and their decomposition into resource states.

Covers the transverse-field Ising chain, the positivity shift, and two
decompositions of a Hamiltonian into weighted density matrices: a
site-local one specific to the Ising model and a generic one that maps
every Pauli string onto a full-register state.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import DEFAULT_DIM_CAP, check_density_matrix, frobenius_norm, kron, qubit_layout

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),  # the one complex input: the rest stays real
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}

#: Y = i [[0, -1], [1, 0]]: a string with k Y letters is i^k times a real
#: matrix, and i^k is a real sign for even k.
_REAL_Y = np.array([[0.0, -1.0], [1.0, 0.0]])

#: Single-qubit resource states: (I+X)/2 = |+><+| and (I+Z)/2 = |0><0|.
RHO_X = np.array([[0.5, 0.5], [0.5, 0.5]])
RHO_Z = np.array([[1.0, 0.0], [0.0, 0.0]])


@dataclass(frozen=True)
class PauliString:
    """A tensor product of Pauli letters with a real coefficient."""

    letters: str
    coefficient: float

    def __post_init__(self):
        bad = set(self.letters) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli letters {sorted(bad)} in {self.letters!r}")
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return set(self.letters) <= {"I"}

    def dense(self) -> np.ndarray:
        """The matrix, real unless the string has an odd number of Y letters."""
        out = np.array([[float(self.coefficient)]])
        for letter in self.letters:
            out = kron(out, _REAL_Y if letter == "Y" else PAULI[letter])
        k = self.letters.count("Y")
        return out * (-1) ** (k // 2) * (1j if k % 2 else 1)


@dataclass(frozen=True)
class PauliSum:
    """Hermitian operator given as a sum of Pauli strings plus c * identity."""

    n: int
    terms: tuple[PauliString, ...]
    identity_offset: float = 0.0

    def __post_init__(self):
        for t in self.terms:
            if t.n != self.n:
                raise ValueError(f"term {t.letters!r} has length {t.n}, expected {self.n}")


@dataclass(frozen=True)
class IsingParams:
    """Transverse-field Ising chain: -J sum X_i X_{i+1} - B sum Z_i."""

    n: int
    J: float
    B: float
    boundary: str = "open"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 sites, got {self.n}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")
        if self.boundary == "periodic" and self.n < 3:
            raise ValueError("periodic boundary needs n >= 3 (n = 2 would duplicate the bond)")
        if not (np.isfinite(self.J) and np.isfinite(self.B)):
            raise ValueError("J and B must be finite")

    def bonds(self) -> list[tuple[int, int]]:
        pairs = [(i, i + 1) for i in range(self.n - 1)]
        if self.boundary == "periodic":
            pairs.append((self.n - 1, 0))
        return pairs


def _refreeze(obj, state: dict) -> None:
    """``__setstate__`` that freezes every array again, also in a cached
    tuple: numpy does not pickle the write flag."""
    for value in state.values():
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
    obj.__dict__.update(state)


#: The resource states this module has checked and frozen, by identity.
_CHECKED: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def _checked(rho: np.ndarray) -> np.ndarray:
    """``rho`` as a frozen float array checked as a density matrix: ``rho``
    itself if this module checked and froze it, else a checked copy that
    later terms given it share.  Looked up by identity, never by contents."""
    if _CHECKED.get(id(rho)) is rho and not rho.flags.writeable:
        return rho
    own = np.array(rho, dtype=np.result_type(rho, float))
    own.setflags(write=False)
    check_density_matrix(own)
    _CHECKED[id(own)] = own
    return own


#: The ising-local XX, X and Z, checked once per process: held, the registry keeps them.
_ISING_STATES = tuple(map(_checked, (kron(RHO_X, RHO_X), RHO_X, RHO_Z)))


@dataclass(frozen=True)
class ResourceTerm:
    """One weighted density matrix in a Hamiltonian decomposition."""

    weight: float
    rho: np.ndarray
    support: tuple[int, ...]
    label: str

    def __post_init__(self):
        if len(set(self.support)) != len(self.support):
            raise ValueError(f"support sites must be distinct, got {self.support}")
        d = self.rho.shape[0]
        if d != 2 ** len(self.support):
            raise ValueError(f"state dim {d} does not match {len(self.support)} qubit support")
        # terms are shared across plans and worker processes: hold a frozen,
        # checked array, shared with the terms given the same one
        object.__setattr__(self, "rho", _checked(self.rho))

    __setstate__ = _refreeze


@dataclass(frozen=True)
class ResourceDecomposition:
    """H = sum_i weight_i * embed(rho_i) + identity_offset * I on n qubits."""

    n: int
    terms: tuple[ResourceTerm, ...]
    identity_offset: float
    provenance: str

    def __post_init__(self):
        for t in self.terms:
            if any(s < 0 or s >= self.n for s in t.support):
                raise ValueError(f"term {t.label} has support {t.support} outside [0, {self.n})")

    __setstate__ = _refreeze

    @property
    def ell(self) -> int:
        return len(self.terms)

    @property
    def h_max(self) -> float:
        return max((abs(t.weight) for t in self.terms), default=0.0)

    @cached_property
    def operator(self) -> np.ndarray:
        """W = sum_i weight_i * embed(rho_i) on the full register, without the
        identity offset: the operator the protocol simulates.  Built on first
        read, once per decomposition, each distinct support embedded once in
        place, read-only, and pickled with the decomposition (the cache is its
        ``__dict__`` entry)."""
        local = {}  # support -> sum of its terms' weight * rho
        for t in self.terms:
            local[t.support] = local.get(t.support, 0) + t.weight * t.rho
        w = np.zeros((2**self.n, 2**self.n), dtype=np.result_type(float, *local.values()))
        layout = qubit_layout(self.n)
        for support, op in local.items():
            linalg.embed_operator(op, layout, [f"q{s}" for s in support], w)
        w.flags.writeable = False
        return w

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """W's eigenvalues, ascending, and its orthonormal eigenvector columns
        V: the one eigendecomposition of W, cached, read-only and pickled as
        :attr:`operator` is.  The exact reference, the bounds report and the
        engine's strategy-B vector steps all read it."""
        vals, vecs = linalg.hermitian_eig(self.operator)
        vals.flags.writeable = vecs.flags.writeable = False
        return vals, vecs


def build_ising(p: IsingParams) -> PauliSum:
    """Pauli-sum form of the transverse-field Ising chain."""
    terms = []
    for (i, j) in p.bonds():
        letters = "".join("X" if k in (i, j) else "I" for k in range(p.n))
        terms.append(PauliString(letters, -p.J))
    for i in range(p.n):
        letters = "".join("Z" if k == i else "I" for k in range(p.n))
        terms.append(PauliString(letters, -p.B))
    return PauliSum(p.n, tuple(terms))


def densify(obj: PauliSum | ResourceDecomposition) -> np.ndarray:
    """Full 2^n x 2^n matrix, including the identity offset; for a
    decomposition, the offset plus its cached :attr:`ResourceDecomposition.operator`."""
    if not isinstance(obj, (PauliSum, ResourceDecomposition)):
        raise TypeError(f"cannot densify {type(obj).__name__}")
    dim = 2**obj.n
    if dim > DEFAULT_DIM_CAP:
        raise linalg.CapacityError(f"dense form has dimension {dim} > cap {DEFAULT_DIM_CAP}")
    out = obj.identity_offset * np.eye(dim)
    if isinstance(obj, ResourceDecomposition):
        return out + obj.operator
    return sum((t.dense() for t in obj.terms), out)


def shift_to_positive(h: PauliSum | np.ndarray) -> tuple[PauliSum | np.ndarray, float]:
    """Add ||h||_2 * I (Schatten-2 norm), making the operator positive while
    leaving every eigenvector, in particular the ground state, unchanged."""
    if isinstance(h, PauliSum):
        shift = frobenius_norm(densify(h))
        return replace(h, identity_offset=h.identity_offset + shift), shift
    h = np.asarray(h)
    if not linalg.is_hermitian(h):
        raise linalg.NonHermitianError("positivity shift needs a Hermitian input")
    shift = frobenius_norm(h)
    return h + shift * np.eye(h.shape[0]), shift


def decompose_pauli_generic(h: PauliSum) -> ResourceDecomposition:
    """Map every Pauli string c*P onto the full-register state (I + sign(c) P)/2^n.

    The resulting weight |c|*2^n is always positive; each term leaves -|c|
    behind in the identity offset.  Identity strings fold into the offset
    directly.
    """
    dim = 2**h.n
    eye = np.eye(dim)
    offset = h.identity_offset
    terms = []
    support = tuple(range(h.n))
    for t in h.terms:
        if t.coefficient == 0.0:
            continue
        if t.is_identity:
            offset += t.coefficient
            continue
        sign = 1.0 if t.coefficient > 0 else -1.0
        p_dense = PauliString(t.letters, 1.0).dense()
        rho = (eye + sign * p_dense) / dim
        terms.append(
            ResourceTerm(abs(t.coefficient) * dim, rho, support, f"({t.letters})")
        )
        offset -= abs(t.coefficient)
    return ResourceDecomposition(h.n, tuple(terms), offset, "pauli-generic")


def decompose_ising_local(p: IsingParams) -> ResourceDecomposition:
    """Site-local resource decomposition of the Ising chain.

    Bond terms carry weight -4J on |+><+| x |+><+|; each single-site X term
    carries +2J per bond touching the site (+4J in the bulk and on periodic
    chains, +2J on open-chain edges, which is what exact reconstruction
    requires); Z terms carry -2B on |0><0|.  Weights stay signed.  Every
    term of a kind shares one resource state, checked once per process.
    """
    bonds = p.bonds()
    xx, x, z = _ISING_STATES
    terms: list[ResourceTerm] = []
    if p.J != 0.0:
        for (i, j) in bonds:
            terms.append(ResourceTerm(-4 * p.J, xx, (i, j), f"xx({i},{j})"))
        bond_count = [0] * p.n
        for (i, j) in bonds:
            bond_count[i] += 1
            bond_count[j] += 1
        for i in range(p.n):
            if bond_count[i]:
                terms.append(ResourceTerm(2 * p.J * bond_count[i], x, (i,), f"x({i})"))
    if p.B != 0.0:
        for i in range(p.n):
            terms.append(ResourceTerm(-2 * p.B, z, (i,), f"z({i})"))
    offset = -p.J * len(bonds) + p.B * p.n
    return ResourceDecomposition(p.n, tuple(terms), offset, "ising-local")
