"""Experiment configuration: JSON schema, defaults, and validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .engine import MODES, STRATEGIES
from .errors import ConfigError
from .hamiltonian import IsingParams, PauliString, PauliSum
from .linalg import DEFAULT_DIM_CAP

DEFAULT_BETA_GRID = tuple(i * 0.25 for i in range(9))  # 0.0 .. 2.0

#: Most sites whose dense 2^n x 2^n form stays within ``DEFAULT_DIM_CAP``.
MAX_SITES = DEFAULT_DIM_CAP.bit_length() - 1


@dataclass(frozen=True)
class ExperimentConfig:
    model: IsingParams | PauliSum
    decomposition: str
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


#: The JSON config's fields: one per ExperimentConfig field.
_FIELDS = {f.name for f in fields(ExperimentConfig)}


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


def _typed(value, kind: type, what: str, name: str, problems: list[str]) -> bool:
    """Whether ``value`` is a ``kind``; if not, a problem saying it must be ``what``."""
    if isinstance(value, kind):
        return True
    problems.append(f"{name} must be {what}, got {value!r}")
    return False


def parse_model(raw: dict) -> IsingParams | PauliSum:
    """Parse the JSON Hamiltonian description of a config.

    Accepts ``{"model": "ising", "n": ..., "J": ..., "B": ..., "boundary": ...}``
    or ``{"model": "pauli", "n": ..., "terms": [{"string": ..., "coeff": ...}]}``.
    Every field must have its JSON type, and ``n`` sites must fit the dense
    dimension cap; the ValueError raised names every problem found.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"model must be an object, got {type(raw).__name__}")
    kind = raw.get("model")
    allowed = {"ising": {"model", "n", "J", "B", "boundary"}, "pauli": {"model", "n", "terms"}}
    if kind not in ("ising", "pauli"):  # a tuple: kind may be unhashable
        raise ValueError(f"model must be 'ising' or 'pauli', got {kind!r}")
    unknown = set(raw) - allowed[kind]
    if unknown:
        raise ValueError(f"unknown model field(s): {sorted(unknown)}")
    problems: list[str] = []
    n = _integer(raw.get("n"), "model.n", problems)
    if n is not None and not 1 <= n <= MAX_SITES:
        problems.append(f"model.n must be in [1, {MAX_SITES}] (dimension cap "
                        f"{DEFAULT_DIM_CAP}), got {n}")
    if kind == "ising":
        j = _finite(raw.get("J", 1.0), "model.J", problems)
        b = _finite(raw.get("B", 0.0), "model.B", problems)
        boundary = raw.get("boundary", "open")
        _typed(boundary, str, "a string", "model.boundary", problems)
    else:
        terms = raw.get("terms", [])
        if not _typed(terms, list, "a list", "model.terms", problems):
            terms = []
        strings = []
        for i, term in enumerate(terms):
            name = f"model.terms[{i}]"
            if _typed(term, dict, "an object", name, problems):
                string = term.get("string")
                _typed(string, str, "a string", f"{name}.string", problems)
                strings.append((string, _finite(term.get("coeff"), f"{name}.coeff", problems)))
    if problems:
        raise ValueError("; ".join(problems))
    try:  # the values themselves, checked by the model's own types
        if kind == "ising":
            return IsingParams(n, j, b, boundary)
        return PauliSum(n, tuple(PauliString(string, coeff) for string, coeff in strings))
    except ValueError as err:
        raise ValueError(f"model: {err}") from err


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
        except ValueError as err:
            problems.append(str(err))

    decomposition = raw.get("decomposition")
    if "decomposition" not in raw:
        if model is not None:
            decomposition = "ising-local" if isinstance(model, IsingParams) else "pauli-generic"
    elif decomposition not in ("ising-local", "pauli-generic"):
        problems.append(f"decomposition must be 'ising-local' or 'pauli-generic', got {decomposition!r}")
    if decomposition == "ising-local" and model is not None and not isinstance(model, IsingParams):
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

    strategy = raw.get("strategy", "A")
    if strategy not in STRATEGIES:  # a tuple, as the JSON value may be unhashable
        problems.append(f"strategy must be one of {list(STRATEGIES)}, got {strategy!r}")
    mode = raw.get("mode", "faithful")
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

    out_dir = raw.get("out_dir", "out")
    _typed(out_dir, str, "a string", "out_dir", problems)

    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(
        model=model,
        decomposition=decomposition,
        beta_grid=beta_grid,
        n_steps=n_steps,
        strategy=strategy,
        mode=mode,
        trials=trials,
        seed=seed,
        epsilon=epsilon,
        degeneracy_tol=degeneracy_tol,
        out_dir=out_dir,
        parallel=parallel,
    )


def load_config(path: str | Path, updates: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file, set ``updates`` (the command line's values) on
    its object, and validate the result, so a field set either way is checked
    the same way and its problems are named in the same message."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except ValueError as err:  # an integer literal longer than int() converts
        raise ConfigError(f"{path}: {err}") from err
    if updates and isinstance(raw, dict):  # validate_config refuses any other value
        raw = {**raw, **updates}
    return validate_config(raw)
