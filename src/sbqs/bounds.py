"""Analytic error and probability bounds, evaluated with constant 1.

All big-O bounds are treated as scaling laws: the evaluators return the
expression with unit constant, and the test suite checks ratios rather than
absolute guarantees.  Two Bures conventions coexist in the source material;
this module owns the D^2 = 1 - sqrt(F) variant used by the bound chain,
while the rest of the package uses D^2 = 2(1 - sqrt(F)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import exact
from .linalg import dag, operator_norm

CONVENTION_NOTE = (
    "distance_upper_bound and beta_star/n_star use the D^2 = 1 - sqrt(F) "
    "convention; bures distances elsewhere use D^2 = 2(1 - sqrt(F))"
)


def trotter_error(ell: int, beta: float, h: float, n_steps: int) -> float:
    """First-order product-formula error scale, l^2 beta^2 h^2 / N."""
    if n_steps < 1:
        raise ValueError(f"step count must be >= 1, got {n_steps}")
    return (ell * beta * h) ** 2 / n_steps


def sim_distance_bound(ell: int, beta: float, h: float, n_steps: int) -> float:
    """Distance scale between the protocol output and exact evolution: 2 l^2 b^2 h^2 / N."""
    return 2.0 * trotter_error(ell, beta, h, n_steps)


def _check_gap_f0(gap: float, f0: float, allow_f0_one: bool) -> None:
    if gap < 0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    if f0 <= 0.0:
        raise ValueError(f"initial fidelity {f0} leaves the bound undefined")
    if f0 > 1.0 or (f0 == 1.0 and not allow_f0_one):
        raise ValueError(f"initial fidelity must be in (0, 1), got {f0}")


def fidelity_lower_bound(
    beta: float, gap: float, f0: float, dim: int = 2, variant: str = "sm"
) -> float:
    """Lower bound on fidelity of exact evolution with the ground state.

    variant "main": 1/(1 + dim e^{-2 beta gap} / f0); variant "sm" (sharper,
    dimension-free): 1/(1 + e^{-2 beta gap} (1 - f0)/f0), which equals 1 for
    f0 = 1 at any beta.
    """
    _check_gap_f0(gap, f0, allow_f0_one=True)
    damping = math.exp(-2.0 * beta * gap)
    if variant == "main":
        if dim < 2:
            raise ValueError(f"dimension must be >= 2, got {dim}")
        return 1.0 / (1.0 + dim * damping / f0)
    if variant == "sm":
        return 1.0 / (1.0 + damping * (1.0 - f0) / f0)
    raise ValueError(f"variant must be 'main' or 'sm', got {variant!r}")


def distance_upper_bound(beta: float, gap: float, f0: float) -> float:
    """Upper bound on the D^2 = 1 - sqrt(F) distance of exact evolution to ground."""
    f_bound = fidelity_lower_bound(beta, gap, f0, variant="sm")
    return math.sqrt(max(0.0, 1.0 - f_bound))


def error_budget(
    ell: int, beta: float, h: float, n_steps: int, gap: float, f0: float
) -> float:
    """Protocol-error scale plus the finite-beta distance bound."""
    return sim_distance_bound(ell, beta, h, n_steps) + distance_upper_bound(beta, gap, f0)


def _log_target(f0: float, eps: float) -> float:
    if not 0.0 < eps < 2.0:
        raise ValueError(f"target error must be in (0, 2), got {eps}")
    return math.log((1.0 - f0) * (4.0 - eps * eps) / (f0 * eps * eps))


def beta_star(gap: float, f0: float, eps: float) -> float:
    """Imaginary time sufficient to push the distance bound below eps/2.

    Clamped below at 0: a negative value means the target is already met.
    """
    if gap <= 0.0:
        raise ValueError(f"degenerate gap {gap}; beta_star is undefined")
    _check_gap_f0(gap, f0, allow_f0_one=False)
    return max(0.0, _log_target(f0, eps) / (2.0 * gap))


def n_star(norm_h: float, gap: float, f0: float, eps: float) -> float:
    """Step count sufficient for the first-order error at beta_star."""
    if gap <= 0.0:
        raise ValueError(f"degenerate gap {gap}; n_star is undefined")
    _check_gap_f0(gap, f0, allow_f0_one=False)
    return (norm_h**2 / (eps * gap**2)) * _log_target(f0, eps) ** 2


def _log_ite_trace(spectrum: np.ndarray, populations: np.ndarray, beta: float) -> float:
    """log Tr[e^{-beta h} sigma0 e^{-beta h}] from the ascending spectrum of h
    and the populations of sigma0 on its eigenvectors, stably in log space."""
    if populations.sum() <= 0.0:
        raise ValueError("state has no support on the spectrum")
    shifted = -2.0 * beta * (spectrum - spectrum[0])
    with np.errstate(divide="ignore"):  # total underflow -> log 0 -> -inf is fine
        bulk = float(np.log(np.sum(np.exp(shifted) * populations)))
    return -2.0 * beta * float(spectrum[0]) + bulk


def _clamped_probability(log_p: float, label: str) -> float:
    if log_p > 0.0:
        warnings.warn(f"{label} formula exceeds 1 (log {log_p:.4g}); clamped", stacklevel=3)
        return 1.0
    return math.exp(log_p)


def p_star(
    spectrum: np.ndarray, populations: np.ndarray, beta_star_val: float, n_star_val: float, ell: int
) -> float:
    """Success-probability scale 2^{-N* l} Tr[e^{-b* H} sigma0 e^{-b* H}], in [0, 1], from
    the ascending spectrum of H and the populations of sigma0 on its eigenvectors."""
    log_p = -n_star_val * ell * math.log(2.0) + _log_ite_trace(spectrum, populations, beta_star_val)
    return _clamped_probability(log_p, "p_star")


def strategy_b_probability(
    spectrum: np.ndarray, populations: np.ndarray, beta: float, n_steps: int, ell: int
) -> float:
    """Deferred-measurement success probability (l+1)^{-N} Tr[e^{-bH} s0 e^{-bH}],
    with H and s0 given as in :func:`p_star`."""
    log_p = -n_steps * math.log(ell + 1.0) + _log_ite_trace(spectrum, populations, beta)
    return _clamped_probability(log_p, "strategy-B probability")


def bures_distance_sm(a: np.ndarray, b: np.ndarray) -> float:
    """Bures distance in the bound chain's D^2 = 1 - sqrt(F) convention."""
    return exact.bures_distance(a, b) / math.sqrt(2.0)


@dataclass(frozen=True)
class ChainErrorReport:
    """Both sides of the operator-product error inequalities."""

    lhs: float
    unitary_rhs: float
    nonunitary_rhs: float
    inputs_unitary: bool
    unitary_holds: bool
    nonunitary_holds: bool


def product_error_report(
    operators: list[np.ndarray], approximants: list[np.ndarray]
) -> ChainErrorReport:
    """Evaluate ||prod U_k - prod U'_k|| against its chain bounds.

    The unitary bound sum ||U_k - U'_k|| only applies when every operator in
    both lists is unitary; the general bound K M^{K-1} max_k ||U_k - U'_k||
    with M = max norm applies always.
    """
    if len(operators) != len(approximants) or not operators:
        raise ValueError("need equally many operators and approximants, at least one each")
    k = len(operators)
    prod_a = np.eye(operators[0].shape[0])
    prod_b = prod_a.copy()
    for u, v in zip(operators, approximants):
        prod_a = u @ prod_a
        prod_b = v @ prod_b
    lhs = operator_norm(prod_a - prod_b)
    diffs = [operator_norm(u - v) for u, v in zip(operators, approximants)]
    unitary_rhs = float(sum(diffs))
    norms = [operator_norm(m) for m in operators] + [operator_norm(m) for m in approximants]
    big_m = max(norms)
    nonunitary_rhs = k * big_m ** (k - 1) * max(diffs)
    eye = np.eye(operators[0].shape[0])
    inputs_unitary = all(
        np.max(np.abs(dag(m) @ m - eye)) < 1e-10 for m in operators + approximants
    )
    slack = 1e-9 * max(1.0, big_m**k)
    return ChainErrorReport(
        lhs=lhs,
        unitary_rhs=unitary_rhs,
        nonunitary_rhs=nonunitary_rhs,
        inputs_unitary=inputs_unitary,
        unitary_holds=(not inputs_unitary) or lhs <= unitary_rhs + slack,
        nonunitary_holds=lhs <= nonunitary_rhs + slack,
    )


@dataclass(frozen=True)
class ExpansionErrorReport:
    """Error of prod (I - delta_i A_i) against I - sum delta_i A_i."""

    lhs: float
    rhs: float
    holds: bool


def expansion_error_report(
    deltas: list[float], operators: list[np.ndarray]
) -> ExpansionErrorReport:
    """Evaluate ||prod (I - d_i A_i) - (I - sum d_i A_i)|| <= C(n,2) |d|^2 max ||A||^2."""
    if len(deltas) != len(operators) or not operators:
        raise ValueError("need equally many deltas and operators, at least one each")
    n = len(operators)
    dim = operators[0].shape[0]
    eye = np.eye(dim)
    prod = eye.copy()
    linear = eye.copy()
    for d, a in zip(deltas, operators):
        prod = prod @ (eye - d * a)
        linear = linear - d * a
    lhs = operator_norm(prod - linear)
    delta_max = max(abs(d) for d in deltas)
    a_max = max(operator_norm(a) for a in operators)
    rhs = math.comb(n, 2) * delta_max**2 * a_max**2
    return ExpansionErrorReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-12)


@dataclass(frozen=True)
class BoundsReport:
    """Every bound evaluated for one experiment configuration."""

    ell: int
    beta: float
    n_steps: int
    h_max: float
    dim: int
    gap: float
    f0: float
    trotter_eps: float
    sim_distance: float
    fidelity_bound_main: float
    fidelity_bound_sm: float
    distance_bound: float
    beta_star: float
    n_star: float
    p_star: float
    strategy_b_probability: float
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "notes"}
        out["notes"] = list(self.notes)
        return out


def build_bounds_report(
    spectral: exact.SpectralData,
    populations: np.ndarray,
    ell: int,
    h_max: float,
    beta: float,
    n_steps: int,
    eps: float,
) -> BoundsReport:
    """Assemble the report; boundary cases land as NaN with a note instead of raising.

    ``spectral`` describes the protocol operator W = sum_i w_i rho_i, and f0 is
    ``populations[0]`` (see :func:`sbqs.exact.populations`)."""
    notes = [CONVENTION_NOTE]
    spectrum = spectral.spectrum
    dim = len(spectrum)
    f0 = float(populations[0])
    gap = spectral.gap

    def guarded(fn, label):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return fn()
        except (ValueError, ZeroDivisionError) as err:
            notes.append(f"{label}: {err}")
            return math.nan

    fid_main = guarded(lambda: fidelity_lower_bound(beta, gap, f0, dim, "main"), "fidelity_bound_main")
    fid_sm = guarded(lambda: fidelity_lower_bound(beta, gap, f0, variant="sm"), "fidelity_bound_sm")
    dist = guarded(lambda: distance_upper_bound(beta, gap, f0), "distance_bound")
    b_star = guarded(lambda: beta_star(gap, f0, eps), "beta_star")
    norm_h = max(abs(float(spectrum[0])), abs(float(spectrum[-1])))
    n_star_val = guarded(lambda: n_star(norm_h, gap, f0, eps), "n_star")
    if math.isfinite(b_star) and math.isfinite(n_star_val):
        p_star_val = guarded(
            lambda: p_star(spectrum, populations, b_star, n_star_val, ell), "p_star"
        )
    else:
        p_star_val = math.nan
    sb_prob = guarded(
        lambda: strategy_b_probability(spectrum, populations, beta, n_steps, ell),
        "strategy_b_probability",
    )
    local_log = -n_steps * ell * math.log(2.0)
    notes.append(
        "strategy-B local post-selection: log10 p = "
        f"{(local_log + _log_ite_trace(spectrum, populations, beta)) / math.log(10):.4g} "
        f"under the 1/2^l convention; the 1/2^(l+1) variant is {-n_steps * math.log10(2):.4g} lower"
    )
    return BoundsReport(
        ell=ell,
        beta=beta,
        n_steps=n_steps,
        h_max=h_max,
        dim=dim,
        gap=gap,
        f0=f0,
        trotter_eps=trotter_error(ell, beta, h_max, n_steps),
        sim_distance=sim_distance_bound(ell, beta, h_max, n_steps),
        fidelity_bound_main=fid_main,
        fidelity_bound_sm=fid_sm,
        distance_bound=dist,
        beta_star=b_star,
        n_star=n_star_val,
        p_star=p_star_val,
        strategy_b_probability=sb_prob,
        notes=tuple(notes),
    )
