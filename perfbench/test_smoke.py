"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import scan  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import FIG2_REFERENCE, ROOT, make  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(tmp_path):
    """A Bench on the seeded workload ``name`` with its config shrunk to 3 sites
    and 120 steps, the fewest that keep max |delta| <= 0.1."""
    def build(name):
        workload = make(name, 7, tmp_path)
        raw = json.loads(workload.config.read_text())
        raw["model"]["n"], raw["n_steps"] = 3, 120
        workload.config.write_text(json.dumps(raw))
        return run.Bench(workload, tmp_path)
    return build


def test_reference_comparison_catches_a_drifted_field():
    golden = (FIG2_REFERENCE / "results.csv").read_text()
    assert checks.compare_text(golden, golden) is None
    within = golden.replace("0.943088394404", "0.943088394414")
    assert checks.compare_text(within, golden) is None
    drifted = golden.replace("0.943088394404", "0.943088395404")
    assert "differs" in checks.compare_text(drifted, golden)


def test_csv_check_flags_nan_and_out_of_range(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("beta,fidelity_sbqs_vs_ground,bures_sbqs_vs_exact_ite\n"
                    "0,nan,0\n1,0.5,1.5\n")
    problems = checks.check_results_csv(path, 2)
    assert len(problems) == 2


def test_untraced_pass_reports_every_end_to_end_metric(tiny):
    bench = tiny("ising8_bglobal")
    metrics, samples = run.untraced(bench, seconds=0.0)
    assert not bench.problems
    assert bench.attempted == run.MIN_SWEEPS and bench.failed == 0
    assert {m["name"] for m in SPEC["end_to_end"]} == set(metrics)
    assert all(v > 0 for v in metrics.values())
    assert len(samples["setup_s"]) == run.SETUP_PROBES


def test_traced_pass_accounts_for_the_sweep(tiny, monkeypatch):
    monkeypatch.setattr(scan, "SIZES", (2, 3))
    bench = tiny("ising8_bglobal")
    metrics, record = run.traced(bench)
    assert not bench.problems
    # 2 rows x 120 deferred-measurement steps, two ledger entries per step
    assert metrics["engine.steps"] == 240
    assert metrics["engine.ledger_entries"] == 480
    assert metrics["engine.kraus_calls"] == 0
    # the layers claim the sweep: the root cli.main span keeps only argument
    # parsing and the bounds.json write, about 2 ms
    assert metrics["cli.self_s"] < 0.01
    assert "engine.step_us.faithful_bglobal.n3" in record["scan_skipped_bytes"]
    listed = {m["name"] for m in SPEC["per_layer"]}
    assert {name for name in listed if ".n" not in name} <= set(metrics)


def test_tracer_restores_every_binding():
    from sbqs import experiment

    original = experiment.run
    tracer = Tracer("x")
    with tracer.installed():
        assert experiment.run is not original
    assert experiment.run is original


def test_scan_budget_skips_the_faithful_b_global_blow_up():
    assert scan.bytes_needed("faithful_bglobal", 3) > scan.BYTE_BUDGET
    assert scan.bytes_needed("faithful_a", 8) <= scan.BYTE_BUDGET
    listed = {m["name"] for m in SPEC["per_layer"]}
    for mode in scan.MODES:
        for n in scan.SIZES:
            fits = scan.bytes_needed(mode, n) <= scan.BYTE_BUDGET
            assert (scan.metric_name(mode, n) in listed) == fits


def test_speed_probe_samples_inside_the_call_and_then_disarms():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe("small", interval=0.01) as probe:
        end = perf_counter() + 0.2
        while perf_counter() < end:
            pass
    assert len(probe.in_call) >= 5
    assert len(probe.bracket) == 2 * speed.BRACKET
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    # the kernel's own time is taken out before rescaling
    own = probe.wall - sum(probe.in_call)
    assert 0 < own < probe.wall
    assert probe.scaled() == pytest.approx(own * probe.reference / probe.kernel_mean())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2_left", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_counter_whose_result_changed_shape_does_not_fail_the_call():
    tracer = Tracer("x")
    traced = tracer.wrap("engine.run", lambda: object())
    traced()
    assert tracer.counts["engine.ledger_entries"] == 0
    assert len(tracer.hook_errors) == 1
