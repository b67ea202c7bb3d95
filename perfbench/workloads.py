"""The benchmark's workloads: which CLI call each makes, on which input.

The seed only reaches the program through the JSON configs written here;
``fig2_left`` uses the committed config unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

NAMES = ("fig2_left", "ising8_bglobal")

#: Row processes of the fig2_left_par2 sweep that the traced fig2_left pass runs.
POOL_WIDTH = 2

#: Seed whose outputs are pinned under ``reference/seed<DEFAULT_SEED>``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    flags: tuple[str, ...]
    reference: Path | None  # expected outputs, compared to 1e-10 per field
    speed_kernel: str  # speed.KERNELS entry that does the same kind of work
    pool_twin: Workload | None = None  # same input through the row pool

    def argv(self, out_dir: Path) -> list[str]:
        return ["run", str(self.config), "--out", str(out_dir), *self.flags]


#: The committed fig2_left goldens.
FIG2_REFERENCE = ROOT / "out" / "fig2_left"


def tfim_coefficients(seed: int) -> tuple[float, float]:
    """J and B for the seeded periodic chains.

    With |J| <= 1.5 and |B| <= 3 every ising-local weight is at most 6 in
    magnitude, so max |delta| = 2 * 6 / 400 = 0.03 stays under the engine's
    0.1 warning level, and B > 0 keeps the ground state unique.
    """
    rng = random.Random(seed)
    return round(rng.uniform(0.5, 1.5), 6), round(rng.uniform(1.0, 3.0), 6)


def _write_config(path: Path, n: int, seed: int, **fields) -> Path:
    j, b = tfim_coefficients(seed)
    raw = {
        "model": {"model": "ising", "n": n, "J": j, "B": b, "boundary": "periodic"},
        "decomposition": "ising-local",
        "seed": seed,
        **fields,
    }
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return path


def make(name: str, seed: int, work_dir: Path) -> Workload:
    """Build workload ``name`` for ``seed``, writing generated configs into
    ``work_dir``."""
    fig2 = ROOT / "configs" / "fig2_left.json"
    if name == "fig2_left":
        pool = Workload("fig2_left_par2", fig2, ("--svg", "--parallel", str(POOL_WIDTH)),
                        FIG2_REFERENCE, "small")
        return Workload(name, fig2, ("--svg",), FIG2_REFERENCE, "small", pool)
    reference = BENCH_DIR / "reference" / f"seed{seed}" / name
    reference = reference if seed == DEFAULT_SEED else None
    if name == "ising8_bglobal":
        config = _write_config(
            work_dir / f"{name}.json", 8, seed, beta_grid=[1.0, 2.0],
            n_steps=400, strategy="B-global", mode="effective",
        )
        return Workload(name, config, (), reference, "blas")
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
