"""Experiment orchestration: beta sweeps, result rows, CSV and SVG output."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import exact
from .config import ExperimentConfig
from .engine import ProbabilityLedger, Trajectory, make_plan, run, run_rows, sample_run
from .errors import ExtinctionError
from .hamiltonian import (
    IsingParams,
    PauliSum,
    ResourceDecomposition,
    build_ising,
    decompose_ising_local,
    decompose_pauli_generic,
)
from .linalg import dag


@dataclass(frozen=True)
class ResultRow:
    """One beta point of a sweep.  Field order fixes the CSV header."""

    beta: float
    fidelity_sbqs_vs_ground: float
    fidelity_exact_ite_vs_ground: float
    bures_sbqs_vs_exact_ite: float
    success_prob_formula: float
    success_prob_faithful: float
    success_prob_empirical: float | None
    energy_sbqs: float
    bound_eq15: float
    fidelity_bound_sm: float
    ground_space_dim: int = 1


CSV_FIELDS = [f.name for f in fields(ResultRow)]


def uniform_state(n: int) -> np.ndarray:
    """|+>^n as a density matrix."""
    dim = 2**n
    v = np.full(dim, 1.0 / math.sqrt(dim))
    return np.outer(v, v)


@dataclass(frozen=True)
class _Setup:
    """What a sweep computes once from its config and shares with every row,
    serial or in a pool worker, and with the bounds report.

    ``spectral`` reads the sweep's only eigendecomposition, of the
    protocol's W = ``decomposition.operator``, cached in the decomposition
    (``eigensystem``): its arrays are the cache's, so they are pickled once
    with it.  ``ground_basis`` is the d x k matrix of the eigenvectors within
    ``degeneracy_tol`` of the ground energy (k: the ground-space dimension).
    ``psi0`` is |+>^n as a vector, every row's start state; ``populations[0]``
    is f0."""

    decomposition: ResourceDecomposition
    psi0: np.ndarray
    ground_basis: np.ndarray
    spectral: exact.SpectralData
    populations: np.ndarray


def _pauli(config: ExperimentConfig) -> PauliSum:
    """The config's model as a Pauli sum: what ``sbqs decompose`` checks the
    decomposition against, and what a pauli-generic one decomposes."""
    return build_ising(config.model) if isinstance(config.model, IsingParams) else config.model


def _model(config: ExperimentConfig) -> tuple[ResourceDecomposition, np.ndarray]:
    """The decomposition and |+>^n as a vector: all that ``sbqs sample``
    reads, with no spectrum."""
    if config.decomposition == "ising-local":
        dec = decompose_ising_local(config.model)
    else:
        dec = decompose_pauli_generic(_pauli(config))
    psi0 = np.full(2**dec.n, 1.0 / math.sqrt(2**dec.n))
    return dec, psi0


def _prepare(config: ExperimentConfig) -> _Setup:
    dec, psi0 = _model(config)
    spectral = exact.ground(dec.eigensystem)
    return _Setup(
        decomposition=dec,
        psi0=psi0,
        ground_basis=exact.ground_basis(spectral, tol=config.degeneracy_tol),
        spectral=spectral,
        populations=exact.populations(spectral, psi0),
    )


def _vector_run(plan, setup: _Setup, config: ExperimentConfig, index: int):
    """(trajectory, empirical frequency) of an effective or sampled row, which
    evolves |+>^n as a vector; an extinct row comes back without a final state."""
    try:
        if config.mode == "sampled":  # sample_run runs the engine once for both
            sampled = sample_run(plan, setup.psi0, config.trials, seed=config.seed + index)
            return sampled.trajectory, sampled.frequency
        return run(plan, setup.psi0), None
    except ExtinctionError as err:
        return Trajectory(plan, None, ProbabilityLedger(), 0.0, str(err), err.probability), None


def _result_row(setup: _Setup, trajectory: Trajectory, empirical: float | None) -> ResultRow:
    dec = setup.decomposition
    basis = setup.ground_basis
    plan = trajectory.plan
    beta = plan.beta
    bound = bounds_mod.sim_distance_bound(dec.ell, beta, dec.h_max, plan.n_steps)
    try:
        fid_sm = bounds_mod.fidelity_lower_bound(
            beta, setup.spectral.gap, float(setup.populations[0]), variant="sm"
        )
    except ValueError:
        fid_sm = math.nan
    nan = math.nan
    extinct = ResultRow(beta, nan, nan, nan, nan, nan, None, nan, bound, fid_sm,
                        basis.shape[1])
    state = trajectory.final_state
    if state is None:
        return extinct
    try:
        phi = exact.exact_ite(setup.spectral, setup.psi0, beta)
    except ExtinctionError:
        return extinct
    if state.ndim == 1:  # a vector row's psi: 1 - F = |psi - phi <phi|psi>|^2 cancels no digits
        overlap = np.vdot(phi, state)
        fidelity, f = np.sum(np.abs(dag(basis) @ state) ** 2), float(abs(overlap) ** 2)
        deficit = float(np.sum(np.abs(state - overlap * phi) ** 2))
    else:  # the engine's own density matrix sigma: no eigvalsh check per row
        fidelity, (f, deficit) = np.vdot(basis, state @ basis).real, exact._vector_fidelity(state, phi)
    # every metric is O(d^2): the ground projector G G^dagger is never formed
    return ResultRow(
        beta=beta,
        # fidelities clamped into [0, 1] against rounding, as exact.fidelity does
        fidelity_sbqs_vs_ground=min(max(float(fidelity), 0.0), 1.0),
        fidelity_exact_ite_vs_ground=min(float(np.sum(np.abs(dag(basis) @ phi) ** 2)), 1.0),
        bures_sbqs_vs_exact_ite=exact._bures(f, deficit),
        success_prob_formula=trajectory.ledger.cumulative("paper-formula"),
        success_prob_faithful=trajectory.ledger.cumulative("faithful-exact"),
        success_prob_empirical=empirical,
        energy_sbqs=_energy(dec, state),
        bound_eq15=bound,
        fidelity_bound_sm=fid_sm,
        ground_space_dim=basis.shape[1],
    )


def _energy(dec: ResourceDecomposition, state: np.ndarray) -> float:
    """Tr(H sigma) = Tr(W sigma) + offset, as <psi|W psi> + offset for a state vector."""
    w = dec.operator
    value = np.vdot(state, w @ state) if state.ndim == 1 else np.vdot(state, w)
    return float(value.real) + dec.identity_offset


def _compute_rows(
    setup: _Setup, config: ExperimentConfig, betas: list[float], first: int
) -> list[ResultRow]:
    """The rows of ``betas``, grid points ``first``, ``first + 1``, ...

    Faithful rows advance together as one stacked state (``run_rows``);
    effective and sampled rows run one at a time, each as a state vector.
    An extinct row is all NaN but for its bounds."""
    plans = [make_plan(setup.decomposition, beta, config.n_steps, config.strategy, config.mode)
             for beta in betas]
    if config.mode == "faithful":
        return [_result_row(setup, trajectory, None) for trajectory in run_rows(plans, setup.psi0)]
    # each row's state is dropped once its result row is read from it
    return [_result_row(setup, *_vector_run(plan, setup, config, first + i))
            for i, plan in enumerate(plans)]


def _bounds_report(config: ExperimentConfig, setup: _Setup) -> bounds_mod.BoundsReport:
    """The bounds report at the grid's largest beta."""
    return bounds_mod.build_bounds_report(
        spectral=setup.spectral,
        populations=setup.populations,
        ell=setup.decomposition.ell,
        h_max=setup.decomposition.h_max,
        beta=max(config.beta_grid),
        n_steps=config.n_steps,
        eps=config.epsilon,
    )


def run_experiment(config: ExperimentConfig) -> tuple[list[ResultRow], bounds_mod.BoundsReport]:
    """One row per beta grid point, plus the bounds report at the endpoint.

    The set-up is computed once and shared by every row.  With parallel
    width > 1 the grid is cut into one contiguous chunk per worker, at most
    one worker per row and per CPU, each chunk is computed in a process pool
    and the chunks are re-assembled in grid order.  A row comes out bit for
    bit the same in any chunk, so the output is identical to a serial sweep.
    """
    setup = _prepare(config)
    betas = config.beta_grid
    workers = min(config.parallel, len(betas), os.cpu_count() or 1)
    cuts = [len(betas) * w // workers for w in range(workers + 1)]
    jobs = (repeat(setup), repeat(config), [betas[a:b] for a, b in zip(cuts, cuts[1:])], cuts)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial sweep skips this import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_compute_rows, *jobs))
    else:
        chunks = list(map(_compute_rows, *jobs))
    return [row for chunk in chunks for row in chunk], _bounds_report(config, setup)


def _format(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".12g")


def emit_csv(rows: list[ResultRow], path: str | Path) -> Path:
    """Canonical CSV: header in field order, 12 significant digits, LF endings.

    The ground_space_dim column only appears when some row actually used a
    higher-dimensional ground-space projector.
    """
    if not rows:
        raise ValueError("no rows to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fieldnames = list(CSV_FIELDS)
    if all(r.ground_space_dim == 1 for r in rows):
        fieldnames.remove("ground_space_dim")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_format(getattr(row, name)) for name in fieldnames])
    return path


#: Readers of the CSV fields that are not plain floats.
_PARSE = {"success_prob_empirical": lambda text: float(text) if text else None,
          "ground_space_dim": int}


def parse_csv(path: str | Path) -> list[ResultRow]:
    """Inverse of :func:`emit_csv` (used for round-trip checks); a missing
    ``ground_space_dim`` column keeps the field's default."""
    with open(path, newline="") as fh:
        return [ResultRow(**{name: _PARSE.get(name, float)(text) for name, text in record.items()})
                for record in csv.DictReader(fh)]


_SVG_SIZE = (640, 440)
_SVG_MARGIN = (60, 20, 30, 40)  # left, right, top, bottom


def emit_svg(rows: list[ResultRow], path: str | Path) -> Path:
    """Minimal line chart of both fidelity series vs beta.

    Exactly two <polyline> elements (protocol in green, exact reference in
    red), each through the rows whose value is finite; axes and ticks are
    drawn with <line>/<text>.
    """
    if not rows:
        raise ValueError("no rows to plot")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width, height = _SVG_SIZE
    left, right, top, bottom = _SVG_MARGIN
    x0, x1 = rows[0].beta, rows[-1].beta
    span = (x1 - x0) or 1.0

    def sx(beta: float) -> float:
        return left + (beta - x0) / span * (width - left - right)

    def sy(f: float) -> float:
        return top + (1.0 - min(max(f, 0.0), 1.0)) * (height - top - bottom)

    def points(values: list[float]) -> str:  # an extinct row's NaN is left out
        return " ".join(f"{sx(r.beta):.2f},{sy(v):.2f}"
                        for r, v in zip(rows, values) if math.isfinite(v))

    sbqs = points([r.fidelity_sbqs_vs_ground for r in rows])
    ref = points([r.fidelity_exact_ite_vs_ground for r in rows])
    ticks = []
    for r in rows:
        x = sx(r.beta)
        ticks.append(f'<line x1="{x:.2f}" y1="{height - bottom}" x2="{x:.2f}" y2="{height - bottom + 5}" stroke="black"/>')
        ticks.append(f'<text x="{x:.2f}" y="{height - bottom + 18}" font-size="10" text-anchor="middle">{r.beta:g}</text>')
    for f in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(f)
        ticks.append(f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="black"/>')
        ticks.append(f'<text x="{left - 8}" y="{y + 3:.2f}" font-size="10" text-anchor="end">{f:g}</text>')
    body = "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
            f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" stroke="black"/>',
            f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
            *ticks,
            f'<polyline fill="none" stroke="#2ca02c" stroke-width="1.5" points="{sbqs}"/>',
            f'<polyline fill="none" stroke="#d62728" stroke-width="1.5" stroke-dasharray="4 3" points="{ref}"/>',
            f'<text x="{(left + width - right) / 2}" y="{height - 5}" font-size="12" text-anchor="middle">imaginary time</text>',
            f'<text x="15" y="{(top + height - bottom) / 2}" font-size="12" text-anchor="middle" transform="rotate(-90 15 {(top + height - bottom) / 2})">fidelity to ground</text>',
            "</svg>",
        ]
    )
    path.write_text(body + "\n")
    return path
