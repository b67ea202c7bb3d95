"""Experiment configuration: JSON schema, defaults, and validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .engine import MODES, STRATEGIES
from .errors import ConfigError
from .hamiltonian import IsingParams, PauliSum, parse_model

DEFAULT_BETA_GRID = tuple(i * 0.25 for i in range(9))  # 0.0 .. 2.0

_FIELDS = {
    "model",
    "decomposition",
    "shift_positive",
    "beta_grid",
    "n_steps",
    "strategy",
    "mode",
    "trials",
    "seed",
    "epsilon",
    "degeneracy_tol",
    "out_dir",
    "parallel",
}


@dataclass(frozen=True)
class ExperimentConfig:
    model: IsingParams | PauliSum
    decomposition: str
    shift_positive: bool
    beta_grid: tuple[float, ...]
    n_steps: int
    strategy: str
    mode: str
    trials: int
    seed: int
    epsilon: float
    degeneracy_tol: float
    out_dir: str
    parallel: int

    def override(self, **kwargs) -> ExperimentConfig:
        return replace(self, **kwargs)


def _integer(value, name: str, problems: list[str]) -> int | None:
    """``value`` when it is an integer (bools are not), else None and a problem."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    problems.append(f"{name} must be an integer, got {value!r}")
    return None


def _finite(value, name: str, problems: list[str]) -> float | None:
    """``value`` as a float when it is a finite number (bools are not), else
    None and a problem."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    problems.append(f"{name} must be a finite number, got {value!r}")
    return None


def validate_config(raw: dict) -> ExperimentConfig:
    """Apply defaults and enumerate every invariant violation at once."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _FIELDS
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    problems: list[str] = []

    model = None
    if "model" not in raw:
        problems.append("missing required field 'model'")
    else:
        try:
            model = parse_model(raw["model"])
        except (ValueError, KeyError, TypeError) as err:
            problems.append(f"model: {err}")

    decomposition = raw.get("decomposition")
    if decomposition is None and model is not None:
        decomposition = "ising-local" if isinstance(model, IsingParams) else "pauli-generic"
    if decomposition not in ("ising-local", "pauli-generic", None):
        problems.append(f"decomposition must be 'ising-local' or 'pauli-generic', got {decomposition!r}")
    elif decomposition == "ising-local" and model is not None and not isinstance(model, IsingParams):
        problems.append("decomposition 'ising-local' requires an ising model")

    grid = raw.get("beta_grid", list(DEFAULT_BETA_GRID))
    beta_grid: tuple[float, ...] = ()
    if not isinstance(grid, list):
        problems.append(f"beta_grid must be a list of numbers, got {grid!r}")
    elif not grid:
        problems.append("beta_grid must not be empty")
    else:
        betas = [_finite(b, "beta_grid values", problems) for b in grid]
        if None not in betas:
            beta_grid = tuple(betas)
        if any(b < 0 for b in beta_grid):
            problems.append("beta_grid values must be >= 0")
        if any(b2 <= b1 for b1, b2 in zip(beta_grid, beta_grid[1:])):
            problems.append(f"beta_grid must be strictly increasing, got {list(beta_grid)}")

    n_steps = _integer(raw.get("n_steps", 200), "n_steps", problems)
    if n_steps is not None and n_steps < 1:
        problems.append(f"n_steps must be >= 1, got {n_steps}")

    strategy = str(raw.get("strategy", "A"))
    if strategy not in STRATEGIES:
        problems.append(f"strategy must be one of {list(STRATEGIES)}, got {strategy!r}")
    mode = str(raw.get("mode", "faithful"))
    if mode not in MODES:
        problems.append(f"mode must be one of {list(MODES)}, got {mode!r}")

    trials = _integer(raw.get("trials", 10000), "trials", problems)
    if mode == "sampled" and trials is not None and trials < 1:
        problems.append(f"sampled mode needs trials >= 1, got {trials}")
    if mode == "sampled" and "seed" not in raw:
        problems.append("sampled mode needs an explicit seed")
    seed = _integer(raw.get("seed", 0), "seed", problems)
    if seed is not None and seed < 0:
        problems.append(f"seed must be >= 0, got {seed}")

    epsilon = _finite(raw.get("epsilon", 0.2), "epsilon", problems)
    if epsilon is not None and not 0.0 < epsilon < 2.0:
        problems.append(f"epsilon must be in (0, 2), got {epsilon}")

    degeneracy_tol = _finite(raw.get("degeneracy_tol", 1e-10), "degeneracy_tol", problems)
    if degeneracy_tol is not None and degeneracy_tol <= 0:
        problems.append(f"degeneracy_tol must be > 0, got {degeneracy_tol}")

    parallel = _integer(raw.get("parallel", 1), "parallel", problems)
    if parallel is not None and parallel < 1:
        problems.append(f"parallel width must be >= 1, got {parallel}")

    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(
        model=model,
        decomposition=decomposition,
        shift_positive=bool(raw.get("shift_positive", False)),
        beta_grid=beta_grid,
        n_steps=n_steps,
        strategy=strategy,
        mode=mode,
        trials=trials,
        seed=seed,
        epsilon=epsilon,
        degeneracy_tol=degeneracy_tol,
        out_dir=str(raw.get("out_dir", "out")),
        parallel=parallel,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    return validate_config(raw)
