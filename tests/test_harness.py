import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from sbqs.bounds import build_bounds_report, n_star
from sbqs.cli import main
from sbqs.config import DEFAULT_BETA_GRID, load_config, validate_config
from sbqs.errors import ConfigError
from sbqs.exact import ground, populations
from sbqs.experiment import (
    CSV_FIELDS,
    emit_csv,
    emit_svg,
    parse_csv,
    run_experiment,
)
from sbqs.hamiltonian import IsingParams, protocol_operator
from sbqs.linalg import operator_norm


ISING = {"model": "ising", "n": 3, "J": 1.0, "B": 1.0, "boundary": "periodic"}
PAULI = {"model": "pauli", "n": 2, "terms": [{"string": "ZZ", "coeff": 1.0}]}


def ising_config(**overrides) -> dict:
    raw = {
        "model": dict(ISING),
        "beta_grid": [0.0, 0.5, 1.0],
        "n_steps": 40,
        "mode": "effective",
    }
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_minimal_config_gets_defaults(self):
        config = validate_config({"model": {"model": "ising", "n": 4, "J": 1.0, "B": 5.0, "boundary": "periodic"}})
        assert config.strategy == "A"
        assert config.mode == "faithful"
        assert config.n_steps == 200
        assert config.seed == 0
        assert config.decomposition == "ising-local"
        assert config.beta_grid == DEFAULT_BETA_GRID
        assert isinstance(config.model, IsingParams)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            validate_config(ising_config(beta_grid=[1.0, 0.5]))

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="betagrid"):
            validate_config(ising_config(betagrid=[1.0]))

    def test_sampled_needs_seed_and_trials(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(ising_config(mode="sampled", trials=10))
        with pytest.raises(ConfigError, match="trials"):
            validate_config(ising_config(mode="sampled", seed=1, trials=0))

    def test_local_decomposition_needs_ising(self):
        raw = ising_config(
            model={"model": "pauli", "n": 2, "terms": [{"string": "ZZ", "coeff": 1.0}]},
            decomposition="ising-local",
        )
        with pytest.raises(ConfigError, match="ising"):
            validate_config(raw)

    def test_multiple_problems_enumerated(self):
        raw = ising_config(beta_grid=[2.0, 1.0], n_steps=0, epsilon=5.0)
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        message = str(err.value)
        assert "increasing" in message and "n_steps" in message and "epsilon" in message

    def test_largest_model_within_the_dimension_cap_is_accepted(self):
        config = validate_config(ising_config(model={**ISING, "n": 12}))
        assert config.model.n == 12

    def test_overlong_integer_literal_is_a_config_error(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"n_steps": ' + "1" * 5000 + "}")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_reports_parse_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": }')
        with pytest.raises(ConfigError, match=r":1:"):
            load_config(path)
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.json")


class TestRunExperiment:
    def test_sweep_prepares_once_and_diagonalises_once(self, monkeypatch):
        # every binding of the counted functions in every sbqs module is
        # patched, so a call through any import path is seen
        import sbqs.experiment as experiment_mod

        calls = {"_prepare": 0, "hermitian_eig": 0, "operator_norm": 0, "protocol_operator": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "sbqs"]:
            for name in calls:
                real = getattr(module, name, None)
                if real is not None:
                    monkeypatch.setattr(module, name, counting(name, real))
        config = validate_config(ising_config())
        assert config.parallel == 1
        rows, report = run_experiment(config)
        assert len(rows) == 3 and math.isfinite(report.n_star)
        assert calls == {"_prepare": 1, "hermitian_eig": 1, "operator_norm": 0,
                         "protocol_operator": 0}
        assert "h_protocol" not in {f.name for f in fields(experiment_mod._Setup)}

    @pytest.mark.parametrize("cpus, expected", [(64, 2), (1, None), (None, None)])
    def test_pool_width_capped_by_rows_and_cpus(self, monkeypatch, cpus, expected):
        import sbqs.experiment as experiment_mod

        widths = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment_mod, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiment_mod.os, "cpu_count", lambda: cpus)
        config = validate_config(ising_config(beta_grid=[0.0, 1.0], parallel=100000))
        rows, _ = run_experiment(config)
        assert widths == ([] if expected is None else [expected])
        assert [r.beta for r in rows] == [0.0, 1.0]

    @pytest.mark.parametrize("decomposition, shift", [
        ("ising-local", False), ("ising-local", True),
        ("pauli-generic", False), ("pauli-generic", True),
    ])
    def test_report_from_spectrum_matches_dense_protocol_operator(self, decomposition, shift):
        # reference: the protocol operator built densely and diagonalised on
        # its own, as the bounds report did before it read the shared spectrum
        import sbqs.experiment as experiment_mod

        terms = [("ZZI", -1.0), ("IXX", 0.7), ("YIZ", 0.4), ("XIY", 0.25), ("IZI", 0.3),
                 ("XII", 0.2), ("III", 0.3)]  # gap 0.169, so every bound is defined
        model = ISING if decomposition == "ising-local" else {
            "model": "pauli", "n": 3,
            "terms": [{"string": string, "coeff": coeff} for string, coeff in terms],
        }
        config = validate_config(ising_config(model=dict(model), decomposition=decomposition,
                                              shift_positive=shift, n_steps=20))
        setup = experiment_mod._prepare(config)
        report = experiment_mod._bounds_report(config, setup)
        dense = ground(protocol_operator(setup.decomposition))
        expected = build_bounds_report(
            spectral=dense,
            shift=0.0,
            populations=populations(dense, setup.psi0),
            ell=setup.decomposition.ell,
            h_max=setup.decomposition.h_max,
            beta=max(config.beta_grid),
            n_steps=config.n_steps,
            eps=config.epsilon,
        )
        assert math.isfinite(report.n_star) and report.strategy_b_probability > 0.0
        for name, value in report.to_dict().items():
            want = expected.to_dict()[name]
            if isinstance(value, float):
                assert abs(value - want) <= 1e-12 * max(abs(value), abs(want)), name
            else:
                assert value == want, name
        assert report.n_star == pytest.approx(
            n_star(operator_norm(protocol_operator(setup.decomposition)), report.gap,
                   report.f0, config.epsilon), rel=1e-12)

    def test_beta_zero_columns(self):
        config = validate_config(ising_config(beta_grid=[0.0], n_steps=2))
        rows, report = run_experiment(config)
        row = rows[0]
        assert row.fidelity_sbqs_vs_ground == pytest.approx(report.f0, abs=1e-12)
        assert row.fidelity_exact_ite_vs_ground == pytest.approx(report.f0, abs=1e-12)
        # strategy A at beta=0: every sub-step succeeds with probability 1/2
        expected = 0.5 ** (2 * 9)
        assert row.success_prob_formula == pytest.approx(expected, rel=1e-12)
        assert row.success_prob_faithful == pytest.approx(expected, rel=1e-12)
        assert row.success_prob_empirical is None
        assert row.bound_eq15 == 0.0

    def test_rows_follow_grid_order(self):
        config = validate_config(ising_config())
        rows, _ = run_experiment(config)
        assert [r.beta for r in rows] == [0.0, 0.5, 1.0]

    def test_parallel_matches_serial(self):
        serial, _ = run_experiment(validate_config(ising_config()))
        parallel, _ = run_experiment(validate_config(ising_config(parallel=3)))
        for a, b in zip(serial, parallel):
            assert a == b

    def test_sampled_mode_fills_empirical(self):
        config = validate_config(
            ising_config(mode="sampled", seed=5, trials=2000, beta_grid=[0.0], n_steps=1)
        )
        rows, _ = run_experiment(config)
        p = rows[0].success_prob_empirical
        expected = 0.5**9
        sigma = math.sqrt(expected * (1 - expected) / 2000)
        assert p is not None and abs(p - expected) <= 4 * sigma

    def test_extinct_row_recorded_in_row(self, monkeypatch):
        # extinction in one row must not abort the sweep
        import sbqs.experiment as experiment_mod
        from sbqs.errors import ExtinctionError

        real_run = experiment_mod.run

        def failing_run(plan, sigma0, *args, **kwargs):
            if plan.beta == 0.5:
                raise ExtinctionError("forced for test")
            return real_run(plan, sigma0, *args, **kwargs)

        monkeypatch.setattr(experiment_mod, "run", failing_run)
        rows, _ = run_experiment(validate_config(ising_config()))
        assert math.isnan(rows[1].fidelity_sbqs_vs_ground)
        assert not math.isnan(rows[0].fidelity_sbqs_vs_ground)
        assert not math.isnan(rows[2].fidelity_sbqs_vs_ground)

    def test_degenerate_flag_column(self):
        config = validate_config(
            ising_config(
                model={"model": "ising", "n": 2, "J": 1.0, "B": 0.0, "boundary": "open"},
                degeneracy_tol=1e-6,
                beta_grid=[0.0, 0.5],
                n_steps=25,
            )
        )
        rows, _ = run_experiment(config)
        assert all(r.ground_space_dim == 2 for r in rows)


class TestCsv:
    def test_three_lines_for_two_rows(self, tmp_path):
        config = validate_config(ising_config(beta_grid=[0.0, 1.0]))
        rows, _ = run_experiment(config)
        path = emit_csv(rows, tmp_path / "r.csv")
        lines = path.read_text().split("\n")
        assert len(lines) == 4 and lines[-1] == ""  # header + 2 rows + trailing LF
        assert lines[0] == ",".join(c for c in CSV_FIELDS if c != "ground_space_dim")

    def test_round_trip(self, tmp_path):
        config = validate_config(ising_config())
        rows, _ = run_experiment(config)
        parsed = parse_csv(emit_csv(rows, tmp_path / "r.csv"))
        for a, b in zip(rows, parsed):
            for name in CSV_FIELDS:
                x, y = getattr(a, name), getattr(b, name)
                if x is None:
                    assert y is None
                else:
                    assert y == pytest.approx(x, rel=1e-10, abs=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        config = validate_config(ising_config())
        rows1, _ = run_experiment(config)
        rows2, _ = run_experiment(config)
        p1 = emit_csv(rows1, tmp_path / "a.csv")
        p2 = emit_csv(rows2, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_degenerate_column_appears_when_used(self, tmp_path):
        config = validate_config(
            ising_config(
                model={"model": "ising", "n": 2, "J": 1.0, "B": 0.0, "boundary": "open"},
                degeneracy_tol=1e-6,
                beta_grid=[0.0],
                n_steps=5,
            )
        )
        rows, _ = run_experiment(config)
        text = emit_csv(rows, tmp_path / "d.csv").read_text()
        assert "ground_space_dim" in text.splitlines()[0]


class TestSvg:
    def test_exactly_two_polylines(self, tmp_path):
        config = validate_config(ising_config())
        rows, _ = run_experiment(config)
        text = emit_svg(rows, tmp_path / "f.svg").read_text()
        assert text.count("<polyline") == 2
        assert text.startswith("<svg")


class TestCli:
    def write_config(self, tmp_path, **overrides):
        raw = ising_config(**{"out_dir": str(tmp_path / "out"), **overrides})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_run_writes_artifacts(self, tmp_path):
        path = self.write_config(tmp_path)
        assert main(["run", str(path), "--svg"]) == 0
        out = tmp_path / "out"
        assert (out / "results.csv").exists()
        assert (out / "bounds.json").exists()
        assert (out / "fidelity.svg").exists()
        report = json.loads((out / "bounds.json").read_text())
        assert report["ell"] == 9

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ising_config(bogus=1)))
        assert main(["run", str(bad)]) == 2
        assert "bogus" in capsys.readouterr().err
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_numeric_error_exit_code(self, tmp_path):
        path = self.write_config(tmp_path, beta_grid=[0.0, 50.0], n_steps=5)
        assert main(["run", str(path)]) == 3

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        path = self.write_config(tmp_path, beta_grid=[0.0], n_steps=2)
        assert main(["run", str(path), "--out", "/proc/nope"]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_seed_and_parallel_overrides(self, tmp_path):
        path = self.write_config(tmp_path)
        assert main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "b"), "--parallel", "2"]) == 0
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("field,value", [
        ("n_steps", "abc"),
        ("n_steps", 2.7),
        ("n_steps", True),
        ("beta_grid", 5),
        ("beta_grid", "0.5"),
        ("beta_grid", [0.0, math.nan]),
        ("beta_grid", [0.0, math.inf]),
        ("beta_grid", [0.0, True]),
        ("beta_grid", [0.0, None]),
        ("degeneracy_tol", math.nan),
        ("epsilon", "0.2"),
        pytest.param("epsilon", 10**400, id="epsilon-beyond-float-range"),
        ("trials", 1.5),
        ("seed", True),
        ("parallel", "2"),
        ("shift_positive", "no"),
        ("out_dir", 5),
        # model fields: ``value`` is the whole model, ``field`` the name the error gives
        pytest.param("model.n", {**ISING, "n": 2.5}, id="model.n-2.5"),
        pytest.param("model.n", {**ISING, "n": True}, id="model.n-True"),
        pytest.param("model.J", {**ISING, "J": "1.5"}, id="model.J-str"),
        pytest.param("model.B", {**ISING, "B": None}, id="model.B-None"),
        pytest.param("model.boundary", {**ISING, "boundary": 1}, id="model.boundary-1"),
        pytest.param("model.n", {**PAULI, "n": "2"}, id="pauli-model.n-str"),
        pytest.param("model.terms", {**PAULI, "terms": 5}, id="model.terms-5"),
        pytest.param("model.terms[0]", {**PAULI, "terms": ["ZZ"]}, id="model.terms-item-str"),
        pytest.param("model.terms[0].string", {**PAULI, "terms": [{"string": 5, "coeff": 1.0}]},
                     id="model.terms.string-5"),
        pytest.param("model.terms[0].coeff", {**PAULI, "terms": [{"string": "ZZ", "coeff": True}]},
                     id="model.terms.coeff-True"),
    ])
    def test_mistyped_field_exits_2(self, tmp_path, monkeypatch, capsys, field, value):
        monkeypatch.chdir(tmp_path)  # a relative out_dir would land here
        override = {"model": value} if field.startswith("model.") else {field: value}
        path = self.write_config(tmp_path, **override)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("model", [{**ISING, "n": 13}, {"model": "pauli", "n": 13}],
                             ids=["ising", "pauli"])
    def test_oversized_model_exits_2(self, tmp_path, capsys, model):
        path = self.write_config(tmp_path, model=model)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "model.n" in err and "4096" in err

    def test_nan_column_named_on_stderr(self, tmp_path, capsys):
        # H = X: the ground state |-> is orthogonal to the uniform start, f0 = 0
        model = {"model": "pauli", "n": 1, "terms": [{"string": "X", "coeff": 1.0}]}
        path = self.write_config(tmp_path, model=model)
        assert main(["run", str(path)]) == 0
        header, *rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert all(row.endswith(",nan") for row in rows)
        assert header.endswith(",fidelity_bound_sm")
        err = capsys.readouterr().err
        assert "fidelity_bound_sm is NaN at beta = [0.0, 0.5, 1.0]" in err
        assert "initial fidelity" in err and "extinct" not in err

    def test_faithful_b_global_on_fig2_left(self, tmp_path):
        # 12 controls + 4 simulator qubits, beyond what the Kraus route could hold
        raw = json.loads((Path(__file__).parents[1] / "configs" / "fig2_left.json").read_text())
        raw.update(strategy="B-global", mode="faithful", n_steps=200)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = parse_csv(tmp_path / "out" / "results.csv")
        assert all(0.0 < r.fidelity_sbqs_vs_ground <= 1.0 for r in rows)

    def test_decompose_and_bounds_and_sample(self, tmp_path, capsys):
        path = self.write_config(tmp_path, mode="sampled", seed=3, trials=200,
                                 beta_grid=[0.0, 0.25], n_steps=10)
        assert main(["decompose", str(path)]) == 0
        assert "reconstruction residual" in capsys.readouterr().out
        assert main(["bounds", str(path)]) == 0
        assert '"beta_star"' in capsys.readouterr().out
        assert main(["sample", str(path)]) == 0
        assert "empirical success frequency" in capsys.readouterr().out


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")  # nan and inf stay text
_ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("name", ["fig2_left", "fig2_right"])
def test_committed_goldens_reproduce(tmp_path, name):
    """A fresh run reproduces every number of every committed output file to
    within 1e-10 relative (absolute below 1), and all the text between them."""
    goldens = sorted((_ROOT / "out" / name).iterdir())
    argv = ["run", str(_ROOT / "configs" / f"{name}.json"), "--out", str(tmp_path)]
    assert main(argv + (["--svg"] if any(p.suffix == ".svg" for p in goldens) else [])) == 0
    for golden in goldens:
        want = golden.read_text()
        got = (tmp_path / golden.name).read_text()
        assert _NUMBER.split(got) == _NUMBER.split(want), golden.name
        for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
            x, y = float(g), float(w)
            assert abs(x - y) <= 1e-10 * max(1.0, abs(y)), (golden.name, g, w)
