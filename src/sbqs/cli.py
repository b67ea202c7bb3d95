"""Command-line entry point.

Subcommands: ``run`` (beta sweep to CSV/SVG plus bounds report), ``bounds``
(report only), ``decompose`` (resource-term summary and reconstruction
residual), ``sample`` (Monte Carlo post-selection frequencies).
Exit codes: 0 success, 2 config error, 3 numeric/extinction failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .engine import make_plan, sample_run
from .errors import CapacityError, ConfigError, ExtinctionError, PlanError
from .exact import energy
from .experiment import (
    CSV_FIELDS, _bounds_report, _model, _prepare, emit_csv, emit_svg, run_experiment,
)
from .hamiltonian import densify


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sbqs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "bounds", "decompose", "sample"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out", dest="out_dir", help="output directory (the config's out_dir)")
        p.add_argument("--svg", action="store_true", help="also emit the fidelity chart")
        p.add_argument("--seed", type=int, help="RNG seed (the config's seed)")
        p.add_argument("--parallel", type=int, help="row parallelism (the config's parallel)")
    return parser


def _cmd_run(config, args) -> int:
    rows, report = run_experiment(config)
    out = Path(config.out_dir)
    csv_path = emit_csv(rows, out / "results.csv")
    bounds_path = out / "bounds.json"
    bounds_path.parent.mkdir(parents=True, exist_ok=True)
    bounds_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    print(f"wrote {csv_path} ({len(rows)} rows) and {bounds_path}")
    if args.svg:
        svg_path = emit_svg(rows, out / "fidelity.svg")
        print(f"wrote {svg_path}")
    failed = [r.beta for r in rows if math.isnan(r.fidelity_sbqs_vs_ground)]
    if failed:
        print(f"extinct rows at beta = {failed}", file=sys.stderr)
    # NaN in a row that ran to the end comes from a bound its inputs leave
    # undefined; the bounds report notes why, under the column's name
    reasons = dict(note.split(": ", 1) for note in report.notes if ": " in note)
    for name in CSV_FIELDS:
        values = [(r.beta, getattr(r, name)) for r in rows if r.beta not in failed]
        betas = [beta for beta, v in values if isinstance(v, float) and math.isnan(v)]
        if betas:
            reason = reasons.get(name, "no reason recorded")
            print(f"warning: {name} is NaN at beta = {betas}: {reason}", file=sys.stderr)
    return 0


def _cmd_bounds(config, args) -> int:
    report = _bounds_report(config, _prepare(config))
    text = json.dumps(report.to_dict(), indent=2)
    print(text)
    if args.out_dir is not None:
        path = Path(config.out_dir) / "bounds.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
    return 0


def _cmd_decompose(config, args) -> int:
    h_model, dec, _ = _model(config)
    print(f"{dec.provenance} decomposition on {dec.n} sites: {dec.ell} terms, "
          f"identity offset {dec.identity_offset:.12g}")
    for t in dec.terms:
        print(f"  {t.label:<12} weight {t.weight:+.12g}  support {list(t.support)}")
    residual = float(np.max(np.abs(densify(dec) - h_model)))
    print(f"reconstruction residual (max abs) = {residual:.3e}")
    if dec.terms:
        print(f"min weight = {min(t.weight for t in dec.terms):+.12g}, "
              f"max |weight| = {dec.h_max:.12g}")
    return 0


def _cmd_sample(config, args) -> int:
    h_model, dec, psi0 = _model(config)
    beta = config.beta_grid[-1]
    plan = make_plan(dec, beta, config.n_steps, config.strategy, config.mode)
    result = sample_run(plan, psi0, config.trials, seed=config.seed)
    ledger = result.trajectory.ledger
    exact_p = ledger.cumulative("faithful-exact")
    sigma = math.sqrt(max(exact_p * (1 - exact_p), 1e-300) / config.trials)
    print(f"beta = {beta:g}  trials = {config.trials}")
    print(f"empirical success frequency = {result.frequency:.6g} "
          f"({result.successes}/{config.trials})")
    print(f"exact product               = {exact_p:.6g} (binomial sigma {sigma:.3g})")
    print(f"formula product             = {ledger.cumulative('paper-formula'):.6g}")
    if result.accepted_average is not None:
        print(f"accepted-state energy       = "
              f"{energy(h_model, result.accepted_average):.6g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # the flags are config fields, validated with the file's own
        flags = {name: getattr(args, name) for name in ("out_dir", "seed", "parallel")
                 if getattr(args, name) is not None}
        config = load_config(args.config, flags)
        handler = {
            "run": _cmd_run,
            "bounds": _cmd_bounds,
            "decompose": _cmd_decompose,
            "sample": _cmd_sample,
        }[args.command]
        return handler(config, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"config error: cannot write output: {err}", file=sys.stderr)
        return 2
    except (ExtinctionError, CapacityError, PlanError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
