"""Output checks run on every sweep; any problem counts the sweep as failed."""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

#: Per-field tolerance against stored outputs: |got - want| <= TOL * max(1, |want|).
TOL = 1e-10

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

_UNIT_INTERVAL = ("fidelity_sbqs_vs_ground", "fidelity_exact_ite_vs_ground",
                  "success_prob_formula", "success_prob_faithful", "success_prob_empirical")


def compare_text(got: str, want: str, tol: float = TOL) -> str | None:
    """None when the texts agree outside numbers and every number agrees to ``tol``."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if got_parts != want_parts:
        return "text outside the numbers differs"
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        x, y = float(a), float(b)
        if not abs(x - y) <= tol * max(1.0, abs(y)):
            return f"{a} differs from the reference {b}"
    return None


def compare_to_reference(out_dir: Path, reference: Path) -> list[str]:
    problems = []
    for want in sorted(reference.iterdir()):
        got = out_dir / want.name
        if not got.is_file():
            problems.append(f"{want.name}: missing")
            continue
        diff = compare_text(got.read_text(), want.read_text())
        if diff:
            problems.append(f"{want.name}: {diff}")
    return problems


def check_results_csv(path: Path, n_rows: int) -> list[str]:
    """Every field finite; fidelities and probabilities in [0, 1]; Bures in [0, sqrt 2]."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = [] if len(rows) == n_rows else [f"{len(rows)} rows, expected {n_rows}"]
    for i, row in enumerate(rows):
        for name, text in row.items():
            if text == "" and name == "success_prob_empirical":
                continue
            try:
                value = float(text)
            except ValueError:
                problems.append(f"row {i} {name}: not a number {text!r}")
                continue
            if not math.isfinite(value):
                problems.append(f"row {i} {name}: {text}")
            elif name in _UNIT_INTERVAL and not 0.0 <= value <= 1.0:
                problems.append(f"row {i} {name} = {text} outside [0, 1]")
            elif name == "bures_sbqs_vs_exact_ite" and not 0.0 <= value <= math.sqrt(2.0):
                problems.append(f"row {i} {name} = {text} outside [0, sqrt 2]")
    return problems


def check_bounds_json(path: Path) -> list[str]:
    report = json.loads(path.read_text())
    return [f"bounds.json {key} = {value}" for key, value in report.items()
            if isinstance(value, float) and not math.isfinite(value)]


def check_sweep(workload, out_dir: Path, stderr: str,
                serial_csv: bytes | None = None) -> list[str]:
    """Problems with one sweep's outputs (an empty list means it passed)."""
    problems = []
    if "extinct" in stderr:
        problems.append(f"extinct rows: {stderr.strip()}")
    bounds = out_dir / "bounds.json"
    if not bounds.is_file():
        return problems + ["bounds.json missing"]
    problems += check_bounds_json(bounds)
    csv_path = out_dir / "results.csv"
    if not csv_path.is_file():
        return problems + ["results.csv missing"]
    n_rows = len(json.loads(Path(workload.config).read_text())["beta_grid"])
    problems += check_results_csv(csv_path, n_rows)
    if workload.reference is not None:
        problems += compare_to_reference(out_dir, workload.reference)
    if serial_csv is not None and (out_dir / "results.csv").read_bytes() != serial_csv:
        problems.append("results.csv is not byte-identical to the serial sweep")
    return problems
