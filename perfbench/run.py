"""sbqs benchmark: drives the CLI entry point ``sbqs.cli.main`` in-process.

    python3 perfbench/run.py --workload fig2_left --seed 0 --seconds 50 --trace 0

``--trace 0`` repeats untraced sweeps for about ``--seconds`` (at least
``MIN_SWEEPS``), then times set-up in ``SETUP_PROBES`` fresh processes, and
reports the end-to-end metrics.  Their times are rescaled to a fixed host
speed by ``speed.SpeedProbe``; the wall times are printed and recorded too.
``--trace 1`` runs one untraced sweep, the workload's pool twin if it has one,
one traced sweep and the sub-step cost scan, and reports the per-layer
metrics.
Every sweep's outputs are checked.  The last line of standard output is the
JSON result; the whole record (environment, samples, problems and, when
traced, every span) is written to ``perfbench/results/`` at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from checks import check_sweep
from speed import SpeedProbe
from workloads import BENCH_DIR, DEFAULT_SEED, NAMES, POOL_WIDTH, ROOT, Workload, make

MIN_SWEEPS = 3
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _set_threads() -> None:
    """One BLAS thread: a timed sweep then loads one core, and the pool sweep
    keeps POOL_WIDTH workers x 1 thread within two cores.  A BLAS call split
    over both cores of a shared two-core host waits for the slower one.

    Must run before numpy is imported: OpenBLAS reads these once at load."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):  # numpy < 2 has no mode argument
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "commit": _git_commit(),
        "seed": seed,
    }


class Bench:
    """Sweeps of one workload, each into a fresh directory and checked."""

    def __init__(self, workload: Workload, work_dir: Path):
        from sbqs import cli  # after _set_threads: numpy reads the thread variables on load

        self.workload = workload
        self.work_dir = work_dir
        self.main = cli.main
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def sweep(self, workload: Workload | None = None, main=None,
              serial_csv: bytes | None = None,
              probe: SpeedProbe | None = None) -> tuple[float, Path]:
        """Wall seconds of one ``main(argv)`` call, and its output directory.

        With ``probe``, the call runs inside it, so ``probe.scaled()`` then
        gives its time at the reference host speed."""
        workload = workload or self.workload
        main = main or self.main
        self.attempted += 1
        out_dir = self.work_dir / f"sweep{self.attempted}"
        argv = workload.argv(out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        problems = []
        with probe or contextlib.nullcontext():
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
            except Exception:
                code = None
                problems.append(traceback.format_exc())
            seconds = perf_counter() - t0
        if code != 0:
            problems.append(f"exit code {code}: {stderr.getvalue().strip()}")
        else:
            try:
                problems += check_sweep(workload, out_dir, stderr.getvalue(), serial_csv)
            except Exception:  # unreadable output fails the sweep, not the benchmark
                problems.append(traceback.format_exc())
        if problems:
            self.failed += 1
            self.problems += [f"{workload.name} sweep {self.attempted}: {p}" for p in problems]
        return seconds, out_dir

    def timed(self, workload: Workload | None = None, main=None,
              serial_csv: bytes | None = None, probe: SpeedProbe | None = None) -> float:
        """Wall seconds of one checked sweep whose outputs are then removed."""
        seconds, out_dir = self.sweep(workload, main, serial_csv, probe)
        shutil.rmtree(out_dir, ignore_errors=True)
        return seconds

    def setup_probe(self) -> dict | None:
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT / "src"),
               str(self.workload.config)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append(f"set-up probe exceeded {PROBE_TIMEOUT_S} s")
            return None
        if done.returncode != 0:
            self.problems.append(f"set-up probe failed: {done.stderr.strip()}")
            return None
        return json.loads(done.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    """Largest ru_maxrss (KiB on Linux) of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def untraced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and the samples behind them."""
    sweeps, walls, kernels = [], [], []
    begin = perf_counter()
    # stop before a sweep that would likely end past the deadline
    while (len(walls) < MIN_SWEEPS
           or perf_counter() - begin + statistics.median(walls) <= seconds):
        probe = SpeedProbe(bench.workload.speed_kernel)
        walls.append(bench.timed(probe=probe))
        sweeps.append(probe.scaled())
        kernels.append(probe.kernel_mean())
    # read before the set-up probes, which are children too
    peak = _peak_rss_mb()
    setups = [s for s in (bench.setup_probe() for _ in range(SETUP_PROBES)) if s is not None]
    setup_s = [s["setup_s"] for s in setups]
    metrics = {
        "sweep_s": statistics.median(sweeps),
        "setup_s": statistics.median(setup_s) if setups else 0.0,  # failed probes are problems
        "peak_rss_mb": peak,
        "pass_rate": (bench.attempted - bench.failed) / bench.attempted,
    }
    samples = {"sweep_s": sweeps,
               "sweep_s.quartiles": statistics.quantiles(sweeps, n=4, method="inclusive"),
               "sweep_wall_s": walls,
               "sweep_wall_s.quartiles": statistics.quantiles(walls, n=4, method="inclusive"),
               "kernel_mean_s": kernels,
               "setup_s": setup_s,
               "setup_wall_s": [s["wall_s"] for s in setups]}
    return metrics, samples


def traced(bench: Bench) -> tuple[dict, dict]:
    """Per-layer metrics from one traced sweep, plus the sub-step cost scan."""
    from scan import scan
    from tracing import Tracer, layer_metrics

    plain, out_dir = bench.sweep()
    csv_path = out_dir / "results.csv"
    serial_csv = csv_path.read_bytes() if csv_path.is_file() else None
    shutil.rmtree(out_dir, ignore_errors=True)
    pool_s = None
    if bench.workload.pool_twin is not None:
        pool_s = bench.timed(bench.workload.pool_twin, serial_csv=serial_csv)
    tracer = Tracer(bench.workload.name)
    tracer.repeat = bench.attempted + 1  # the number the traced sweep gets
    with tracer.installed():
        sweep_s = bench.timed(main=tracer.wrap("cli.main", bench.main))
    metrics = layer_metrics(tracer)
    metrics["trace.sweep_s"] = sweep_s
    metrics["trace.overhead_s"] = sweep_s - plain
    metrics["experiment.pool_efficiency"] = plain / (POOL_WIDTH * pool_s) if pool_s else 0.0
    timed, skipped = scan()
    metrics.update(timed)
    record = {
        "counter_errors": sorted(tracer.hook_errors),
        "untraced_sweep_s": plain,
        "pool_sweep_s": pool_s,
        "counts": dict(tracer.counts),
        "scan_skipped_bytes": skipped,
        "spans": [list(s) for s in tracer.spans],
    }
    return metrics, record


def _notes(workload: Workload, trace: int) -> list[str]:
    if not trace:
        return []
    if workload.pool_twin is None:
        return ["experiment.pool_efficiency is measured on fig2_left only; "
                "0 here means not measured"]
    return ["the fig2_left_par2 pool sweep is untraced: spans inside forked pool "
            "workers would not be collected"]


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [p for p in (ROOT / "src" / "sbqs", ROOT / "configs" / "fig2_left.json")
               if not p.exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(map(str, missing))} missing", file=sys.stderr)
        return 2
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / ".work"))
    try:
        workload = make(args.workload, args.seed, work_dir)
        _set_threads()
        sys.path.insert(0, str(ROOT / "src"))
        bench = Bench(workload, work_dir)
        if args.trace:
            metrics, record = traced(bench)
        else:
            metrics, record = untraced(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = metric_units(args.trace)
    env = environment(args.seed)
    notes = _notes(workload, args.trace)
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "environment": env,
                                "result": result, "problems": bench.problems,
                                "notes": notes, **record}) + "\n")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    for note in notes:
        print(f"note: {note}")
    if not args.trace:
        for name in ("sweep_s", "sweep_wall_s"):
            q1, q2, q3 = record[f"{name}.quartiles"]
            print(f"{name} over {len(record[name])} sweeps: q1 {q1:.4f} median {q2:.4f} "
                  f"q3 {q3:.4f} s")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    if args.trace:
        share = metrics["cli.self_s"] / metrics["trace.sweep_s"]
        print(f"time no layer claims (cli.self_s): {share:.2%} of the traced sweep")
        for error in record["counter_errors"]:
            print(f"note: counter left at 0: {error}")
        for name, need in record["scan_skipped_bytes"].items():
            print(f"{name} skipped: needs {need / 2**20:.3g} MiB, over the scan budget")
    print(f"environment: {json.dumps(env)}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
