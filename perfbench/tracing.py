"""Spans and counts recorded around the calls into each sbqs layer.

The tracer wraps the layer functions listed in ``TRACED`` in every sbqs
module that binds them (``sbqs.experiment.run`` is the binding the sweep
calls for ``engine.run``), so nothing under ``src/`` changes.  Spans are kept
in memory and written out by the benchmark when it ends.  Pool workers are
forked processes: spans they record stay in the worker and are not collected.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

#: The span name's prefix names its layer; "cli" is the root span.
LAYERS = ("cli", "config", "hamiltonian", "linalg", "engine", "exact", "bounds", "experiment")

TRACED = {
    "config": ("load_config",),
    "hamiltonian": ("build_ising", "densify", "decompose_ising_local",
                    "decompose_pauli_generic", "protocol_operator", "shift_to_positive"),
    "linalg": ("hermitian_eig", "sqrt_psd", "operator_norm", "embed_operator"),
    "engine": ("make_plan", "run", "sample_run", "cswap_channel",
               "step_strategy_a", "step_strategy_b"),
    "exact": ("ground", "ground_projector", "exact_ite", "fidelity", "bures_distance", "energy"),
    "bounds": ("build_bounds_report", "sim_distance_bound", "fidelity_lower_bound"),
    "experiment": ("run_experiment", "_prepare", "emit_csv", "emit_svg"),
}

_COMPLEX_BYTES = 16
_MIB = 2**20


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    workload: str
    repeat: int


def _count_kraus(tracer: Tracer, kraus) -> None:
    tracer.counts["engine.kraus_ops"] += len(kraus)


def _count_trajectory(tracer: Tracer, trajectory) -> None:
    tracer.counts["engine.ledger_entries"] += len(trajectory.ledger.entries)
    dim = trajectory.initial_state.shape[0]
    row_bytes = len(trajectory.snapshots) * dim * dim * _COMPLEX_BYTES
    tracer.snapshot_bytes = max(tracer.snapshot_bytes, row_bytes)


def _count_terms(tracer: Tracer, decomposition) -> None:
    tracer.counts["hamiltonian.terms"] += len(decomposition.terms)


_ON_RESULT = {
    "engine.cswap_channel": _count_kraus,
    "engine.run": _count_trajectory,
    "hamiltonian.decompose_ising_local": _count_terms,
    "hamiltonian.decompose_pauli_generic": _count_terms,
}


class Tracer:
    """Span recorder for one workload; ``repeat`` tags the sweep being traced."""

    def __init__(self, workload: str):
        self.workload = workload
        self.repeat = 0
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.snapshot_bytes = 0
        self.hook_errors: set[str] = set()  # counters the program's results no longer feed
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        """``fn`` recording a span called ``name`` on every call."""
        on_result = _ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.counts[f"{name}.raised.{type(err).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.workload, self.repeat))
            if on_result is not None:
                try:
                    on_result(self, result)
                except (AttributeError, TypeError) as err:  # the result changed shape
                    self.hook_errors.add(f"{name}: {err!r}")
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every binding of the ``TRACED`` functions; restore on exit."""
        modules = [importlib.import_module(f"sbqs.{name}") for name in LAYERS]
        by_name = dict(zip(LAYERS, modules))
        saved = []
        try:
            for layer, names in TRACED.items():
                for fname in names:
                    original = getattr(by_name[layer], fname, None)
                    if original is None:
                        continue
                    wrapper = self.wrap(f"{layer}.{fname}", original)
                    for module in modules:
                        if getattr(module, fname, None) is original:
                            saved.append((module, fname, original))
                            setattr(module, fname, wrapper)
            yield self
        finally:
            for module, fname, original in reversed(saved):
                setattr(module, fname, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    child = Counter()
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


def _outermost(spans: list[Span], names: set[str]) -> float:
    """Total duration of spans in ``names`` not nested inside another such span."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += s.end - s.start
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times (s) and counts of the spans ``tracer`` recorded."""
    spans = tracer.spans
    counts = tracer.counts
    by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.end - s.start)

    def total(*names: str) -> float:
        return sum(sum(by_name.get(n, ())) for n in names)

    steps = by_name.get("engine.step_strategy_a", []) + by_name.get("engine.step_strategy_b", [])
    steps_us = [t * 1e6 for t in steps]
    if len(steps_us) >= 2:
        cuts = statistics.quantiles(steps_us, n=100, method="inclusive")
        p50, p99 = cuts[49], cuts[98]
    else:
        p50 = p99 = steps_us[0] if steps_us else 0.0
    run_s = total("engine.run")
    metrics = {
        "engine.run_s": run_s,
        "engine.steps": len(steps),
        "engine.steps_per_s": len(steps) / run_s if run_s > 0 else 0.0,
        "engine.step_us.p50": p50,
        "engine.step_us.p99": p99,
        "engine.kraus_calls": len(by_name.get("engine.cswap_channel", ())),
        "engine.kraus_ops": counts["engine.kraus_ops"],
        "engine.kraus_build_s": total("engine.cswap_channel"),
        "engine.ledger_entries": counts["engine.ledger_entries"],
        "engine.snapshot_mb": tracer.snapshot_bytes / _MIB,
        "engine.extinct_rows": counts["engine.run.raised.ExtinctionError"],
        "linalg.eig_calls": len(by_name.get("linalg.hermitian_eig", ())),
        "linalg.eig_s": total("linalg.hermitian_eig"),
        "linalg.operator_norm_s": total("linalg.operator_norm"),
        "hamiltonian.build_s": _outermost(
            spans, {f"hamiltonian.{n}" for n in TRACED["hamiltonian"]}),
        "hamiltonian.terms": counts["hamiltonian.terms"],
        "exact.reference_s": total("exact.exact_ite"),
        "exact.metrics_s": _outermost(
            spans, {"exact.fidelity", "exact.bures_distance", "exact.energy"}),
        "bounds.report_s": _outermost(spans, {f"bounds.{n}" for n in TRACED["bounds"]}),
        "config.load_s": total("config.load_config"),
        "experiment.emit_s": total("experiment.emit_csv", "experiment.emit_svg"),
        "trace.spans": len(spans),
    }
    own = self_times(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            own[s.id] for s in spans if s.name.split(".", 1)[0] == layer)
    return metrics
