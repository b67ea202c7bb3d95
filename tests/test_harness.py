import copy
import importlib.util
import json
import math
import re
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from sbqs.bounds import build_bounds_report, n_star
from sbqs.cli import main
from sbqs.config import DEFAULT_BETA_GRID, ExperimentConfig, load_config, validate_config
from sbqs.engine import ProbabilityLedger, Trajectory, make_plan, run, run_rows
from sbqs.errors import ConfigError, ExtinctionError
from sbqs.exact import ground, populations
from sbqs.experiment import (
    CSV_FIELDS,
    _model,
    emit_csv,
    emit_svg,
    parse_csv,
    run_experiment,
)
from sbqs.hamiltonian import IsingParams, densify
from sbqs.linalg import operator_norm

from oracles import exact_ite as oracle_exact_ite
from oracles import protocol_operator, random_density, random_pure_density


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

    def test_config_has_no_unchecked_override(self):
        # a field set after validation would skip its checks
        assert not hasattr(ExperimentConfig, "override")

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

        calls = {"_prepare": 0, "densify": 0, "hermitian_eig": 0, "operator_norm": 0}

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
        assert calls == {"_prepare": 1, "densify": 0, "hermitian_eig": 1, "operator_norm": 0}
        assert [f.name for f in fields(experiment_mod._Setup)] == [
            "decomposition", "psi0", "ground_basis", "spectral", "populations"]

    def test_an_effective_b_sweep_diagonalises_once_and_a_pool_worker_never(self, monkeypatch):
        # the engine steps strategy-B vectors in W's eigenbasis, which the
        # set-up caches in the decomposition: a serial sweep runs one
        # eigendecomposition, and a forked --parallel 2 worker, which
        # unpickles the cache, runs none (a call there raises in the worker)
        import os

        import sbqs.experiment as experiment_mod

        calls, parent = [], os.getpid()

        def counting(real):
            def eig(*args, **kwargs):
                assert os.getpid() == parent, "eigendecomposition in a pool worker"
                calls.append(1)
                return real(*args, **kwargs)
            return eig

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "sbqs"]:
            if hasattr(module, "hermitian_eig"):
                monkeypatch.setattr(module, "hermitian_eig", counting(module.hermitian_eig))
        raw = ising_config(strategy="B-global", beta_grid=[0.5, 1.0])
        serial, _ = run_experiment(validate_config(raw))
        assert len(calls) == 1
        monkeypatch.setattr(experiment_mod.os, "cpu_count", lambda: 4)
        parallel, _ = run_experiment(validate_config({**raw, "parallel": 2}))
        assert len(calls) == 2 and parallel == serial

    @pytest.mark.parametrize("cpus, expected", [(64, 2), (1, None), (None, None)])
    def test_pool_width_capped_by_rows_and_cpus(self, monkeypatch, cpus, expected):
        import concurrent.futures

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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiment_mod.os, "cpu_count", lambda: cpus)
        config = validate_config(ising_config(beta_grid=[0.0, 1.0], parallel=100000))
        rows, _ = run_experiment(config)
        assert widths == ([] if expected is None else [expected])
        assert [r.beta for r in rows] == [0.0, 1.0]

    @pytest.mark.parametrize("decomposition", ["ising-local", "pauli-generic"])
    def test_report_from_spectrum_matches_dense_protocol_operator(self, decomposition):
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
                                              n_steps=20))
        setup = experiment_mod._prepare(config)
        report = experiment_mod._bounds_report(config, setup)
        dense = ground(protocol_operator(setup.decomposition))
        expected = build_bounds_report(
            spectral=dense,
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

    @pytest.mark.parametrize("strategy", ["A", "B-global"])
    @pytest.mark.parametrize("mode", ["effective", "sampled"])
    def test_rows_evolve_state_vectors(self, monkeypatch, mode, strategy):
        # every state run hands to a step function in an effective or sampled
        # sweep is a vector: a fallback to the density-matrix path shows here
        import sbqs.engine as engine_mod

        ndims = []

        def recording(real):
            def wrapper(sigma, *args, **kwargs):
                ndims.append(np.ndim(sigma))
                return real(sigma, *args, **kwargs)
            return wrapper

        for name in ("step_strategy_a", "step_strategy_b"):
            monkeypatch.setattr(engine_mod, name, recording(getattr(engine_mod, name)))
        config = validate_config(ising_config(mode=mode, strategy=strategy, seed=1, trials=10))
        rows, _ = run_experiment(config)
        assert all(0.0 < r.fidelity_sbqs_vs_ground <= 1.0 for r in rows)
        assert len(ndims) == 3 * config.n_steps * (9 if strategy == "A" else 1)
        assert set(ndims) == {1}

    @pytest.mark.parametrize("strategy", ["A", "B-global"])
    def test_one_step_call_and_two_ledger_entries_per_measurement(self, monkeypatch, strategy):
        # a faithful sweep's rows advance as one stack, so run_rows calls the
        # step function bound on sbqs.engine once per measurement for the whole
        # stack (strategy A's chain step once per Trotter step, B-global's
        # dense _measure, which the run builds once with its leak kernels, and
        # neither public step function), and each row's ledger gets two
        # entries per measurement.  Strategy A's chain divides the run's raw
        # traces once, at its end, and no Trotter step trips the extinction
        # check, which would read that step's ratios
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod
        import sbqs.experiment as experiment_mod

        calls, kept, trajectories = Counter(), [], []

        def counting(name, real, probabilities):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                res = real(*args, **kwargs)
                if probabilities is not None:
                    kept.append(probabilities(res))
                return res
            return wrapper

        def keeping(*args, **kwargs):
            trajectories.extend(engine_mod.run_rows(*args, **kwargs))
            return trajectories

        for name in ("step_strategy_a", "step_strategy_b", "_measure"):
            monkeypatch.setattr(engine_mod, name, counting(name, getattr(engine_mod, name),
                                                           lambda res: tuple(res)[1:]))
        monkeypatch.setattr(kernels_mod._Chain, "step", counting("step", kernels_mod._Chain.step, None))
        # (2, steps, l, rows): the exact and formula probabilities of every measurement
        monkeypatch.setattr(kernels_mod._Chain, "ratios", counting(
            "ratios", kernels_mod._Chain.ratios, lambda res: tuple(res.reshape(2, -1, res.shape[-1]))))
        monkeypatch.setattr(experiment_mod, "run_rows", keeping)
        config = validate_config(ising_config(strategy=strategy, mode="faithful", beta_grid=[0.5, 1.0]))
        run_experiment(config)
        terms = list(trajectories[0].plan.decomposition.terms)
        per_row = config.n_steps * (len(terms) if strategy == "A" else 1)
        assert calls == ({"step": config.n_steps, "ratios": 1} if strategy == "A"
                         else {"_measure": config.n_steps})
        assert [len(t.ledger.entries) for t in trajectories] == [2 * per_row] * 2
        # the products equal a running product and sum over each row's column of
        # the probabilities, bit for bit: (rows,) per strategy-B step and (rows,)
        # per measurement of strategy A's run
        assert all(np.shape(p) == np.shape(f) and np.shape(p)[-1] == 2 for p, f in kept)
        kept = [(np.reshape(p, (-1, 2)), np.reshape(f, (-1, 2))) for p, f in kept]
        assert sum(len(p) for p, _ in kept) == per_row
        for row, t in enumerate(trajectories):
            results = [(pk[row], fk[row]) for p, f in kept for pk, fk in zip(p, f)]
            for source, column in zip(("faithful-exact", "paper-formula"), zip(*results)):
                product, log_sum = 1.0, 0.0
                for p in column:
                    product *= float(p)
                    log_sum += math.log(p)
                assert 0.0 < product < 1.0
                assert t.ledger.cumulative(source) == product
                assert t.ledger.log_cumulative(source) == log_sum

    def test_effective_b_embeds_each_term_once_per_sweep(self, monkeypatch):
        # B = (beta/N) W with W built once per decomposition, one embedding per
        # distinct support: a 2-row effective B-global sweep on the 3-site
        # periodic chain embeds 6 supports for its 9 terms, not once per row
        import sbqs.engine as engine_mod
        import sbqs.experiment as experiment_mod
        import sbqs.linalg as linalg_mod

        config = validate_config(ising_config(strategy="B-global", beta_grid=[0.5, 1.0]))
        dec = experiment_mod._prepare(config).decomposition
        supports = {t.support for t in dec.terms}
        assert (len(supports), dec.ell) == (6, 9)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        real = linalg_mod.embed_operator
        for module in (linalg_mod, engine_mod):
            monkeypatch.setattr(module, "embed_operator", counting)
        rows, _ = run_experiment(config)
        assert len(rows) == 2 and all(0.0 < r.fidelity_sbqs_vs_ground <= 1.0 for r in rows)
        assert len(calls) == len(supports)

    def test_a_pool_worker_reads_the_cached_operator(self, monkeypatch):
        # the set-up reaches a pool worker pickled, with W in the
        # decomposition's cache: a worker's rows embed nothing and densify no
        # Pauli string, and equal the serial rows
        import pickle

        import sbqs.experiment as experiment_mod
        import sbqs.hamiltonian as hamiltonian_mod
        import sbqs.linalg as linalg_mod

        config = validate_config(ising_config(strategy="B-global", beta_grid=[0.5, 1.0]))
        setup = experiment_mod._prepare(config)
        worker = pickle.loads(pickle.dumps(setup))  # as run_experiment hands it over
        serial = experiment_mod._compute_rows(setup, config, config.beta_grid, 0)

        def refuse(*args, **kwargs):
            raise AssertionError("dense operator built in a worker")

        monkeypatch.setattr(linalg_mod, "embed_operator", refuse)
        monkeypatch.setattr(hamiltonian_mod.PauliString, "dense", refuse)
        assert experiment_mod._compute_rows(worker, config, config.beta_grid, 0) == serial

    def test_a_pool_worker_gets_the_shared_arrays_read_only(self):
        # numpy does not pickle the write flag: the unpickled set-up freezes
        # W, W's cached eigendecomposition and every resource state again.
        # The spectral data shares the cached arrays, so pickle writes them
        # once and the worker gets them shared
        import pickle

        import sbqs.experiment as experiment_mod

        config = load_config(Path(__file__).parents[1] / "configs" / "fig2_left.json")
        setup = experiment_mod._prepare(config)
        vals, vecs = setup.decomposition.eigensystem
        assert setup.spectral.spectrum is vals and setup.spectral.eigenvectors is vecs
        worker = pickle.loads(pickle.dumps(setup))
        dec = worker.decomposition
        assert not dec.operator.flags.writeable
        assert dec.terms and not any(t.rho.flags.writeable for t in dec.terms)
        assert "eigensystem" in vars(dec)  # unpickled, not computed again
        vals, vecs = dec.eigensystem
        assert not vals.flags.writeable and not vecs.flags.writeable
        assert worker.spectral.spectrum is vals and worker.spectral.eigenvectors is vecs

    def test_row_bures_reads_the_vector_branch_unchecked(self, monkeypatch):
        # a row's Bures distance takes fidelity's vector branch without the
        # eigvalsh check of the engine's own state; the public function keeps
        # its check and gives the same number
        import sbqs.exact as exact_mod
        import sbqs.experiment as experiment_mod

        config = validate_config(ising_config(mode="faithful", beta_grid=[0.5]))
        setup = experiment_mod._prepare(config)
        (trajectory,) = run_rows([make_plan(setup.decomposition, 0.5, config.n_steps)], setup.psi0)
        checks = []
        real = exact_mod.check_density_matrix
        monkeypatch.setattr(exact_mod, "check_density_matrix",
                            lambda *args, **kwargs: checks.append(1) or real(*args, **kwargs))
        row = experiment_mod._result_row(setup, trajectory, None)
        assert checks == []
        phi = exact_mod.exact_ite(setup.spectral, setup.psi0, 0.5)
        assert row.bures_sbqs_vs_exact_ite == exact_mod.bures_distance(trajectory.final_state, phi)
        assert checks == [1]

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

    @staticmethod
    def assert_parallel_matches_serial(monkeypatch, raw):
        import sbqs.experiment as experiment_mod

        serial, _ = run_experiment(validate_config(raw))
        # four CPUs as far as the sweep knows, so parallel = 3 cuts three chunks
        monkeypatch.setattr(experiment_mod.os, "cpu_count", lambda: 4)
        parallel, _ = run_experiment(validate_config({**raw, "parallel": 3}))
        assert parallel == serial
        return serial

    def test_parallel_matches_serial(self, monkeypatch):
        self.assert_parallel_matches_serial(monkeypatch, ising_config())

    def test_sampled_parallel_matches_serial(self, monkeypatch):
        # a sampled row draws from seed + its grid index, so a chunk at the
        # wrong offset would draw other trials: every row of sampled2 has
        # successes to tell them apart
        raw = json.loads((_ROOT / "tests" / "data" / "sampled2.json").read_text())
        serial = self.assert_parallel_matches_serial(monkeypatch, raw)
        assert all(row.success_prob_empirical > 0 for row in serial)

    @pytest.mark.parametrize("strategy", ["A", "B-global"])
    def test_faithful_rows_identical_alone_in_chunks_and_in_the_batch(self, strategy):
        # criterion 9 on the faithful path: a row's state and probabilities do
        # not depend on which other rows share its stack
        import sbqs.experiment as experiment_mod

        config = validate_config(ising_config(mode="faithful", strategy=strategy,
                                              beta_grid=[0.0, 0.25, 0.5, 0.75, 1.0]))
        setup = experiment_mod._prepare(config)
        plans = [make_plan(setup.decomposition, beta, config.n_steps, strategy, "faithful")
                 for beta in config.beta_grid]
        batch = run_rows(plans, setup.psi0)
        for size in (1, 2, 3, 4):
            chunked = [t for i in range(0, len(plans), size)
                       for t in run_rows(plans[i:i + size], setup.psi0)]
            for a, b in zip(batch, chunked):
                assert np.array_equal(a.final_state, b.final_state)
                assert np.array_equal(a.ledger.exact, b.ledger.exact)
                assert np.array_equal(a.ledger.formula, b.ledger.formula)
        for a, plan in zip(batch, plans):
            alone = run(plan, setup.psi0)
            assert np.array_equal(a.final_state, alone.final_state)
            assert a.ledger.probabilities("faithful-exact") == alone.ledger.probabilities("faithful-exact")

    def test_faithful_parallel_matches_serial(self, monkeypatch):
        import sbqs.experiment as experiment_mod

        raw = ising_config(mode="faithful", beta_grid=[0.0, 0.25, 0.5, 0.75, 1.0])
        serial, _ = run_experiment(validate_config(raw))
        # four CPUs as far as the sweep knows, so parallel = 3 cuts three chunks
        monkeypatch.setattr(experiment_mod.os, "cpu_count", lambda: 4)
        for width in (2, 3):
            parallel, _ = run_experiment(validate_config({**raw, "parallel": width}))
            assert parallel == serial

    def test_extinct_row_inside_a_faithful_batch(self, monkeypatch):
        # one row of a real batch falls below the extinction level mid-run: it
        # leaves the stack and its row is NaN, the others go on bit for bit
        import sbqs.engine as engine_mod
        import sbqs.kernels as kernels_mod
        import sbqs.experiment as experiment_mod

        raw = ising_config(mode="faithful", beta_grid=[0.0, 0.5, 1.0, 1.5], n_steps=60)
        config = validate_config(raw)
        setup = experiment_mod._prepare(config)
        plans = [make_plan(setup.decomposition, beta, config.n_steps, "A", "faithful")
                 for beta in config.beta_grid]
        alone = [run(plan, setup.psi0) for plan in plans]
        lows = [min(t.ledger.probabilities()) for t in alone]
        doomed = int(np.argmin(lows))
        level = (lows[doomed] + min(low for i, low in enumerate(lows) if i != doomed)) / 2
        dies_at = int(np.argmax(alone[doomed].ledger.exact <= level))
        assert 0 < dies_at < len(alone[doomed].ledger.exact) - 1
        for module in (engine_mod, kernels_mod):  # both layers read it
            monkeypatch.setattr(module, "EXTINCTION_P", level)

        batch = run_rows(plans, setup.psi0)
        assert batch[doomed].final_state is None
        assert len(batch[doomed].ledger.exact) == dies_at
        assert batch[doomed].ledger.step_id(dies_at) in batch[doomed].extinction
        for i, (t, ref) in enumerate(zip(batch, alone)):
            if i != doomed:
                assert t.extinction is None
                assert np.array_equal(t.final_state, ref.final_state)
                assert np.array_equal(t.ledger.exact, ref.ledger.exact)
                assert np.array_equal(t.ledger.formula, ref.ledger.formula)

        rows, _ = run_experiment(config)
        survivors = [beta for i, beta in enumerate(config.beta_grid) if i != doomed]
        without, _ = run_experiment(validate_config({**raw, "beta_grid": survivors}))
        assert math.isnan(rows[doomed].fidelity_sbqs_vs_ground)
        assert math.isnan(rows[doomed].success_prob_faithful)
        assert math.isfinite(rows[doomed].bound_eq15)
        assert [r for i, r in enumerate(rows) if i != doomed] == without

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

    def test_an_extinct_vector_row_keeps_its_probability(self, monkeypatch):
        import sbqs.experiment as experiment_mod
        from sbqs.errors import ExtinctionError

        def failing_run(plan, sigma0):
            raise ExtinctionError("forced for test", 1e-15)

        monkeypatch.setattr(experiment_mod, "run", failing_run)
        config = validate_config(ising_config())
        setup = experiment_mod._prepare(config)
        plan = make_plan(setup.decomposition, 0.5, config.n_steps, config.strategy, config.mode)
        trajectory, empirical = experiment_mod._vector_run(plan, setup, config, 0)
        assert trajectory.final_state is None and empirical is None
        assert trajectory.extinction == "forced for test"
        assert trajectory.extinction_probability == 1e-15

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


class _NoSquareProduct(np.ndarray):
    """A d x d array whose matmul with another d x d operand raises; a product
    with a vector or a d x k basis runs on the plain arrays."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and all(np.ndim(x) == 2 and np.shape(x)[0] == np.shape(x)[1]
                                      for x in inputs):
            raise AssertionError(f"d x d product of {[np.shape(x) for x in inputs]}")

        plain = [x.view(np.ndarray) if isinstance(x, _NoSquareProduct) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestRowMetrics:
    """A row's ground-fidelity and energy columns against the dense formulas
    Tr(G G^dagger sigma), <phi|G G^dagger|phi> and Tr(H sigma), with G the
    test's own k lowest eigenvectors of fig2_right's chain at n sites.

    G is read from W = ``setup.decomposition.operator``, the operator the
    set-up diagonalises, and H is ``densify(setup.decomposition)``: the
    chain's k = 1 ground vector is ill-conditioned (gap 5.4e-6 at n = 5), and
    a 5e-16 change of the matrix, such as adding the identity offset or
    summing the Pauli strings instead, moves the fidelities by more than the
    1e-13 this test holds (6e-12 for phi's at n = 4).  For the same reason G
    is read from ``np.linalg.eigh`` of W on each sector of the parity of the
    basis state's Hamming weight, which W conserves, and not of W whole:
    that ground vector puts 5.75e-12 (n = 4) and 9.5e-11 (n = 5) of its norm
    into the other sector, where the exact one has none."""

    @staticmethod
    def sector_ground(w: np.ndarray, k: int) -> np.ndarray:
        """The k lowest eigenvectors of W, each diagonalised within its
        Hamming-weight parity sector (W's entries between the sectors are
        exact zeros)."""
        d = len(w)
        parity = np.array([bin(i).count("1") % 2 for i in range(d)])
        sectors = [np.flatnonzero(parity == p) for p in (0, 1)]
        assert not np.any(w[np.ix_(sectors[0], sectors[1])])
        vals, vecs = [], []
        for idx in sectors:
            sector_vals, sector_vecs = np.linalg.eigh(w[np.ix_(idx, idx)])
            embedded = np.zeros((d, len(idx)), dtype=w.dtype)
            embedded[idx] = sector_vecs
            vals.append(sector_vals)
            vecs.append(embedded)
        return np.hstack(vecs)[:, np.argsort(np.concatenate(vals), kind="stable")[:k]]

    @staticmethod
    def chain(n: int, tol: float):
        import sbqs.experiment as experiment_mod

        model = {"model": "ising", "n": n, "J": 1.0, "B": 0.1, "boundary": "periodic"}
        config = validate_config(ising_config(model=model, degeneracy_tol=tol, beta_grid=[1.5],
                                              n_steps=100, mode="faithful"))
        return config, experiment_mod._prepare(config)

    @staticmethod
    def assert_dense_metrics(row, config, setup, sigma, k):
        w = setup.decomposition.operator
        low = TestRowMetrics.sector_ground(w, k)
        projector = low @ low.conj().T
        phi = oracle_exact_ite(w, np.outer(setup.psi0, setup.psi0.conj()), config.beta_grid[0])
        h = densify(setup.decomposition)
        assert row.ground_space_dim == k
        assert row.fidelity_sbqs_vs_ground == pytest.approx(
            np.trace(projector @ sigma).real, rel=1e-13)
        assert row.fidelity_exact_ite_vs_ground == pytest.approx(
            np.trace(projector @ phi).real, rel=1e-13)
        assert row.energy_sbqs == pytest.approx(np.trace(h @ sigma).real, rel=1e-13)

    @pytest.mark.parametrize("state", [random_density, random_pure_density], ids=["mixed", "pure"])
    @pytest.mark.parametrize("tol, k", [(1e-10, 1), (0.05, 2)])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_row_metrics_match_the_dense_formulas(self, n, tol, k, state):
        import sbqs.experiment as experiment_mod

        config, setup = self.chain(n, tol)
        sigma = state(np.random.default_rng(10 * n + k), 2**n)
        plan = make_plan(setup.decomposition, config.beta_grid[0], config.n_steps,
                         config.strategy, config.mode)
        row = experiment_mod._result_row(
            setup, Trajectory(plan, sigma, ProbabilityLedger(), 0.0), None)
        self.assert_dense_metrics(row, config, setup, sigma, k)

    def test_faithful_row_runs_no_eigendecomposition_and_no_square_product(self, monkeypatch):
        import sbqs.experiment as experiment_mod

        config, setup = self.chain(4, 0.05)
        plan = make_plan(setup.decomposition, config.beta_grid[0], config.n_steps,
                         config.strategy, config.mode)
        (trajectory,) = run_rows([plan], setup.psi0)
        sigma = trajectory.final_state.view(_NoSquareProduct)
        with pytest.raises(AssertionError, match="d x d product"):
            sigma @ sigma

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition in a row")

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "sbqs"]:
            if getattr(module, "hermitian_eig", None) is not None:
                monkeypatch.setattr(module, "hermitian_eig", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        dec = copy.copy(setup.decomposition)  # W sits in the copy's own cache
        dec.__dict__["operator"] = dec.operator.view(_NoSquareProduct)
        guarded = replace(setup, decomposition=dec)
        row = experiment_mod._result_row(guarded, replace(trajectory, final_state=sigma), None)
        monkeypatch.undo()
        self.assert_dense_metrics(row, config, setup, trajectory.final_state, 2)


    @pytest.mark.parametrize("strategy, mode", [("A", "effective"), ("B-global", "effective"),
                                                ("B-global", "sampled")])
    def test_a_vector_row_reads_as_its_density_matrix(self, strategy, mode):
        # a vector row's final state is psi: every column read from it equals
        # the density-matrix reading of |psi><psi| to 1e-12, but the Bures
        # distance D, which that reading takes from 1 - f with f near 1 and
        # so only to about 1e-16 / D (D = 1.8e-5 here); the vector's 1 - F
        # cancels nothing (test below)
        import sbqs.experiment as experiment_mod

        config, setup = self.chain(4, 0.05)
        plan = make_plan(setup.decomposition, config.beta_grid[0], config.n_steps, strategy, mode)
        trajectory, empirical = experiment_mod._vector_run(plan, setup, replace(config, mode=mode), 0)
        psi = trajectory.final_state
        assert psi.shape == (16,) and (empirical is None) == (mode == "effective")
        got = experiment_mod._result_row(setup, trajectory, empirical)
        want = experiment_mod._result_row(
            setup, replace(trajectory, final_state=np.outer(psi, psi.conj())), empirical)
        assert got.ground_space_dim == want.ground_space_dim == 2
        for name in CSV_FIELDS:
            if getattr(want, name) is not None:
                tol = 1e-15 / want.bures_sbqs_vs_exact_ite if name.startswith("bures") else 1e-12
                assert abs(getattr(got, name) - getattr(want, name)) <= tol, name

    def test_a_vector_row_reads_its_bures_deficit_without_cancellation(self):
        # psi = cos(t) phi + sin(t) phi_perp at t = 1e-9: 1 - F = sin(t)^2 is
        # 1e-18, below the rounding of F near 1, where 1 - F read off F is 0;
        # read as |psi - phi <phi|psi>|^2 the Bures distance is t
        import sbqs.experiment as experiment_mod
        from sbqs.exact import exact_ite

        config, setup = self.chain(4, 1e-10)
        phi = exact_ite(setup.spectral, setup.psi0, config.beta_grid[0])
        perp = np.random.default_rng(12).normal(size=16)
        perp -= np.vdot(phi, perp) * phi
        perp /= np.linalg.norm(perp)
        theta = 1e-9
        psi = math.cos(theta) * phi + math.sin(theta) * perp
        plan = make_plan(setup.decomposition, config.beta_grid[0], config.n_steps, "A", "effective")
        row = experiment_mod._result_row(setup, Trajectory(plan, psi, ProbabilityLedger(), 0.0), None)
        assert row.bures_sbqs_vs_exact_ite == pytest.approx(theta, rel=1e-6)

    def test_a_density_row_reads_its_bures_deficit_as_its_weight_off_phi(self):
        # sigma = (1 - e) phi phi^dagger + e chi chi^dagger, chi orthogonal to
        # phi, and sigma + 1e-13 phi phi^dagger, whose trace is off 1 by
        # 1e-13: a faithful row reads 1 - F as Tr sigma - <phi|sigma|phi> = e
        # for both, where 1 - <phi|sigma|phi> moved by 1e-13 (5e-10 of D)
        import sbqs.experiment as experiment_mod
        from sbqs.exact import exact_ite

        config, setup = self.chain(4, 1e-10)
        phi = exact_ite(setup.spectral, setup.psi0, config.beta_grid[0])
        perp = np.random.default_rng(13).normal(size=16)
        perp -= np.vdot(phi, perp) * phi
        perp /= np.linalg.norm(perp)
        e = 1e-4
        sigma = (1 - e) * np.outer(phi, phi) + e * np.outer(perp, perp)
        plan = make_plan(setup.decomposition, config.beta_grid[0], config.n_steps)
        want = math.sqrt(2 * e / (1 + math.sqrt(1 - e)))
        for state in (sigma, sigma + 1e-13 * np.outer(phi, phi)):
            row = experiment_mod._result_row(setup, Trajectory(plan, state, ProbabilityLedger(), 0.0), None)
            assert row.bures_sbqs_vs_exact_ite == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("tol, k", [(1e-10, 1), (0.05, 2)])
    def test_row_metrics_identical_with_the_setup_a_pool_worker_unpickles(self, tol, k):
        # criterion 9 by construction: a pool worker gets the set-up pickled,
        # which makes every array C-contiguous, so the ground basis must be
        # contiguous in the parent too; on a strided basis BLAS rounds
        # sigma @ G differently in about a third of the rows
        import pickle

        import sbqs.experiment as experiment_mod

        config, setup = self.chain(4, tol)
        worker = pickle.loads(pickle.dumps(setup))
        plan = make_plan(setup.decomposition, config.beta_grid[0], config.n_steps)
        rng = np.random.default_rng(9)
        for _ in range(50):
            trajectory = Trajectory(plan, random_density(rng, 16), ProbabilityLedger(), 0.0)
            serial = experiment_mod._result_row(setup, trajectory, None)
            assert serial.ground_space_dim == k
            assert serial == experiment_mod._result_row(worker, trajectory, None)


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

    def test_extinct_row_left_out_of_the_polyline(self, tmp_path):
        rows, _ = run_experiment(validate_config(ising_config(beta_grid=[0.0, 1.0])))
        nan = math.nan
        extinct = replace(rows[1], fidelity_sbqs_vs_ground=nan, fidelity_exact_ite_vs_ground=nan)
        text = emit_svg([rows[0], extinct], tmp_path / "f.svg").read_text()
        assert text.count("<polyline") == 2
        assert "nan" not in text.lower()
        polylines = re.findall(r'<polyline [^>]*points="([^"]*)"', text)
        # both series keep the beta = 0 point, at the left margin, and drop beta = 1
        assert [p.split() for p in polylines] == [[p] for p in polylines]
        assert all(p.startswith("60.00,") for p in polylines)


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

    def test_sample_with_no_trials_is_a_config_error(self, tmp_path, capsys):
        # trials < 1 is refused in every mode, not only in sampled mode:
        # `sample` reads it from a faithful config too
        raw = json.loads((Path(__file__).parents[1] / "configs" / "fig2_left.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**raw, "trials": 0, "out_dir": str(tmp_path / "out")}))
        assert main(["sample", str(path)]) == 2
        assert capsys.readouterr().err == "config error: trials must be >= 1, got 0\n"

    def test_numeric_error_exit_code(self, tmp_path):
        path = self.write_config(tmp_path, beta_grid=[0.0, 50.0], n_steps=5)
        assert main(["run", str(path)]) == 3

    @pytest.mark.parametrize("command,callee", [("run", "run_experiment"),
                                                ("sample", "sample_run")])
    def test_allocation_failure_exits_3(self, tmp_path, monkeypatch, capsys, command, callee):
        # a config whose trials or n_steps need more memory than the host has; a
        # real huge np.empty may succeed or fail with the host's overcommit policy
        import sbqs.cli as cli_mod

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 93.1 GiB for an array")

        monkeypatch.setattr(cli_mod, callee, refuse)
        path = self.write_config(tmp_path, mode="sampled", trials=10, seed=0)
        assert main([command, str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "numeric failure: out of memory: Unable to allocate 93.1 GiB for an array\n"

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
        # appended, so that the automatic ids of the cases above keep their indices
        ("strategy", 5),
        ("mode", None),
    ])
    def test_mistyped_field_exits_2(self, tmp_path, monkeypatch, capsys, field, value):
        monkeypatch.chdir(tmp_path)  # a relative out_dir would land here
        override = {"model": value} if field.startswith("model.") else {field: value}
        path = self.write_config(tmp_path, **override)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        if field in ("strategy", "mode"):
            assert f"got {value!r}" in err  # the JSON value, not its str()
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value", [True, False])
    def test_shift_positive_is_an_unknown_field(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        path = self.write_config(tmp_path, shift_positive=value)
        assert main(["run", str(path)]) == 2
        assert "unknown config field(s): ['shift_positive']" in capsys.readouterr().err
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

    @pytest.mark.parametrize("mode", ["faithful", "effective"])
    def test_no_fidelity_is_written_negative(self, tmp_path, mode):
        # the same H = X: sigma's overlap with |-> is rounding, down to -1e-13
        # in faithful rows and -6e-34 in effective ones, and is clamped at 0
        model = {"model": "pauli", "n": 1, "terms": [{"string": "X", "coeff": 1.0}]}
        path = self.write_config(tmp_path, model=model, mode=mode, n_steps=100,
                                 beta_grid=[0.0, 0.5, 1.0, 1.5, 2.0])
        assert main(["run", str(path)]) == 0
        header, *rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
        cells = [float(cell) for row in rows for cell in row.split(",") if cell]
        assert len(rows) == 5 and not any(cell < 0 for cell in cells)

    def test_faithful_b_global_on_fig2_left(self, tmp_path):
        # 12 controls + 4 simulator qubits, beyond what the Kraus route could hold
        raw = json.loads((Path(__file__).parents[1] / "configs" / "fig2_left.json").read_text())
        raw.update(strategy="B-global", mode="faithful", n_steps=200)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = parse_csv(tmp_path / "out" / "results.csv")
        assert all(0.0 < r.fidelity_sbqs_vs_ground <= 1.0 for r in rows)

    @pytest.mark.parametrize("command", ["run", "sample"])
    def test_seed_flag_is_the_explicit_seed_of_sampled_mode(self, tmp_path, capsys, command):
        sampled = dict(mode="sampled", trials=200, beta_grid=[0.0, 0.25], n_steps=10)
        flagged = self.write_config(tmp_path, **sampled)
        in_file = tmp_path / "seeded.json"
        in_file.write_text(json.dumps({**json.loads(flagged.read_text()), "seed": 5}))
        runs = []
        for argv in ([str(flagged), "--seed", "5"], [str(in_file)]):
            assert main([command, *argv]) == 0
            csv_path = tmp_path / "out" / "results.csv"
            runs.append((capsys.readouterr().out, csv_path.exists() and csv_path.read_bytes()))
            csv_path.unlink(missing_ok=True)
        assert runs[0] == runs[1]
        stdout, csv_bytes = runs[0]
        if command == "run":  # every sampled row has its empirical frequency
            assert csv_bytes.count(b"\n") == 3 and b",," not in csv_bytes
        else:
            assert "empirical success frequency" in stdout

    def test_flag_and_file_problems_in_one_message(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = self.write_config(tmp_path, n_steps="abc")
        argv = ["run", str(path), "--seed", "-1", "--parallel", "0", "--out", "flagged"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")
        for problem in ("n_steps must be an integer, got 'abc'", "seed must be >= 0, got -1",
                        "parallel width must be >= 1, got 0"):
            assert problem in err
        assert list(tmp_path.iterdir()) == [path]

    def test_array_config_with_flags_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["run", str(path), "--seed", "3", "--parallel", "2", "--out", "o"]) == 2
        err = capsys.readouterr().err
        assert "config must be a JSON object, got list" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["decompose", "sample"])
    def test_decompose_and_sample_build_no_spectrum(self, tmp_path, monkeypatch, capsys,
                                                    command):
        # n = 3: the model is 8 x 8, the ising-local resource states, whose
        # density-matrix check runs eigvalsh, are at most 4 x 4.  Strategy A
        # (the default): a strategy-B run steps in W's eigenbasis
        path = self.write_config(tmp_path, mode="sampled", seed=3, trials=200,
                                 beta_grid=[0.0, 0.25], n_steps=10)
        assert main([command, str(path)]) == 0
        unpatched = capsys.readouterr().out

        def refusing(real):
            def eig(m, *args, **kwargs):
                if np.shape(m)[-1] >= 8:
                    raise AssertionError(f"eigendecomposition of a {np.shape(m)} matrix")
                return real(m, *args, **kwargs)
            return eig

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "sbqs"]:
            if hasattr(module, "hermitian_eig"):
                monkeypatch.setattr(module, "hermitian_eig", refusing(module.hermitian_eig))
        monkeypatch.setattr(np.linalg, "eigh", refusing(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", refusing(np.linalg.eigvalsh))
        with pytest.raises(AssertionError, match="eigendecomposition"):
            main(["bounds", str(path)])  # the patch bites where a spectrum is built
        assert main([command, str(path)]) == 0
        assert capsys.readouterr().out == unpatched

    @pytest.mark.parametrize("command, flag", [
        ("bounds", ["--svg"]), ("bounds", ["--seed", "1"]), ("bounds", ["--parallel", "2"]),
        ("decompose", ["--out", "o"]), ("decompose", ["--svg"]), ("decompose", ["--seed", "1"]),
        ("decompose", ["--parallel", "2"]),
        ("sample", ["--out", "o"]), ("sample", ["--svg"]), ("sample", ["--parallel", "2"]),
    ])
    def test_a_flag_the_subcommand_does_not_read_exits_2(self, tmp_path, monkeypatch, capsys,
                                                         command, flag):
        monkeypatch.chdir(tmp_path)
        path = self.write_config(tmp_path)
        with pytest.raises(SystemExit) as err:
            main([command, str(path), *flag])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_successive_calls_parse_independently_with_one_parser(self, tmp_path, monkeypatch,
                                                                   capsys):
        # the parser is built once per process and every call parses into a
        # fresh namespace: no flag of one call reaches the next, whatever the
        # subcommand, and a flag the subcommand does not read still exits 2
        import sbqs.cli as cli_mod

        monkeypatch.chdir(tmp_path)
        path = self.write_config(tmp_path, mode="sampled", seed=3, trials=200,
                                 beta_grid=[0.0, 0.25], n_steps=10)
        flags, real = [], cli_mod.load_config
        monkeypatch.setattr(cli_mod, "load_config",
                            lambda config, updates: flags.append(updates) or real(config, updates))
        parser = cli_mod._parser()
        assert main(["run", str(path), "--out", "a", "--seed", "4", "--parallel", "1", "--svg"]) == 0
        assert main(["sample", str(path)]) == 0
        assert main(["run", str(path), "--out", "b"]) == 0
        with pytest.raises(SystemExit) as err:
            main(["decompose", str(path), "--seed", "1"])
        assert err.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert main(["bounds", str(path)]) == 0
        assert main(["sample", str(path), "--seed", "5"]) == 0
        assert flags == [{"out_dir": "a", "seed": 4, "parallel": 1}, {}, {"out_dir": "b"}, {},
                         {"seed": 5}]
        assert (tmp_path / "a" / "fidelity.svg").exists()
        assert not (tmp_path / "b" / "fidelity.svg").exists()
        assert cli_mod._parser() is parser

    def test_a_sweep_with_an_extinct_row_writes_the_same_bytes_in_a_pool(self, tmp_path, capsys):
        # tests/data/extinct3.json, which CI also runs through the script: the
        # row at delta = 1 - 1e-7 ends at its x(0) term, aligned with |+>, in
        # the first Trotter step, the others run to the end, and a serial and
        # a pooled run write the same bytes
        path = _ROOT / "tests" / "data" / "extinct3.json"
        outs = [tmp_path / "serial", tmp_path / "pool"]
        with pytest.warns(UserWarning, match="delta"):  # a pool's workers warn on their own
            assert main(["run", str(path), "--svg", "--out", str(outs[0])]) == 0
            assert main(["run", str(path), "--svg", "--out", str(outs[1]), "--parallel", "2"]) == 0
        assert capsys.readouterr().err.count("extinct rows at beta = [24.9999975]") == 2
        for name in ("results.csv", "bounds.json", "fidelity.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        *survivors, extinct = parse_csv(outs[0] / "results.csv")
        assert all(0.0 < r.fidelity_sbqs_vs_ground <= 1.0 for r in survivors)
        assert math.isnan(extinct.fidelity_sbqs_vs_ground)
        config = load_config(path)
        dec, psi0 = _model(config)
        with pytest.warns(UserWarning, match="delta"):
            plan = make_plan(dec, config.beta_grid[-1], config.n_steps)
        with pytest.raises(ExtinctionError, match=r" at step 1\.4$"):
            run(plan, psi0)

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


def _assert_reproduces(out_dir: Path, reference: Path) -> None:
    """Every number of every file in ``reference`` agrees with ``out_dir``'s
    to within 1e-10 relative (absolute below 1), and all the text between them."""
    for golden in sorted(reference.iterdir()):
        want = golden.read_text()
        got = (out_dir / golden.name).read_text()
        assert _NUMBER.split(got) == _NUMBER.split(want), golden.name
        for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
            x, y = float(g), float(w)
            assert abs(x - y) <= 1e-10 * max(1.0, abs(y)), (golden.name, g, w)


@pytest.mark.parametrize("name", ["fig2_left", "fig2_right", "chain8", "bglobal8", "bglobal_y4"])
def test_committed_goldens_reproduce(tmp_path, name):
    """A fresh run reproduces every committed output file: faithful strategy
    A (chain8 is the n = 8 periodic chain, whose 24-term Trotter steps fold
    after term 21, on r = 64 half-stack maps) and faithful B-global (the same
    chain's 24 leaks summed on a half stack, and the complex pauli_y4 model's,
    whose full-register leaks take the block form)."""
    goldens = _ROOT / "out" / name
    config = _ROOT / ("configs" if name.startswith("fig2") else "tests/data") / f"{name}.json"
    argv = ["run", str(config), "--out", str(tmp_path)]
    assert main(argv + (["--svg"] if any(p.suffix == ".svg" for p in goldens.iterdir()) else [])) == 0
    _assert_reproduces(tmp_path, goldens)


@pytest.mark.parametrize("path", sorted([*(_ROOT / "configs").glob("*.json"), *(_ROOT / "tests/data").glob("*.json")]),
                         ids=lambda p: p.stem)
def test_every_committed_config_builds_an_exactly_hermitian_w(path):
    """W is Hermitian bit for bit, so ``hermitian_eig`` decomposes it as it
    is, with no symmetrized copy, in every sweep these configs run."""
    w = _model(load_config(path))[0].operator
    assert np.array_equal(w, w.conj().T)


def test_a_sweeps_set_up_holds_no_copy_of_w():
    """The set-up of the n = 8 periodic chain peaks below what it must hold
    at once: W, its eigenvectors, W's two gathered parity blocks and one band
    of the Hermiticity check, plus d² bytes for the graph of W's nonzeros and
    the O(d) arrays.  A symmetrized d x d copy of W held through the eigh
    (1.91 MiB traced, against 1.41 MiB without it) is past that bound."""
    import tracemalloc

    import sbqs.experiment as experiment_mod
    import sbqs.linalg as linalg_mod

    config = validate_config(ising_config(model={**ISING, "n": 8}, strategy="B-global"))
    setup = experiment_mod._prepare(config)
    tracemalloc.start()
    try:
        experiment_mod._prepare(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    w, vecs = setup.decomposition.operator, setup.decomposition.eigensystem[1]
    d = len(w)
    blocks = 2 * (d // 2) ** 2 * w.itemsize
    band = d * min(d, linalg_mod._BAND) * w.itemsize
    assert peak < w.nbytes + vecs.nbytes + blocks + band + d * d


def test_benchmark_scan_calls_still_run():
    """perfbench/scan.py, loaded by path as it stands, calls the step
    functions with the names and keywords it was written against (``kraus=``,
    ``embedded_kraus=``, ``rho_emb=``, ``rho_embs=``).  One step of each of
    its four modes at n = 2 and 3 must run, but for the sizes the scan itself
    skips for their memory: faithful B-global at n = 3 would embed 6.4 GB of
    Kraus operators."""
    spec = importlib.util.spec_from_file_location("perfbench_scan", _ROOT / "perfbench" / "scan.py")
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    ran = []
    for mode in scan.MODES:
        for n in (2, 3):
            if scan.bytes_needed(mode, n) > scan.BYTE_BUDGET:
                continue
            res = scan._step(mode, n)()
            assert res.state.shape == (2**n, 2**n) and 0.0 < res.probability <= 1.0
            ran.append((mode, n))
    assert len(ran) == 7 and ("faithful_bglobal", 2) in ran


#: The seeded n = 8 periodic chain whose outputs the benchmark stores as its
#: seed-0 ``ising8_bglobal`` reference.
_ISING8_BGLOBAL = {
    "model": {"model": "ising", "n": 8, "J": 1.344422, "B": 2.515909, "boundary": "periodic"},
    "decomposition": "ising-local",
    "seed": 0,
    "beta_grid": [1.0, 2.0],
    "n_steps": 400,
    "strategy": "B-global",
    "mode": "effective",
}


def test_effective_sweep_reproduces_reference(tmp_path):
    """An effective strategy-B sweep end to end, on the benchmark's seed-0 chain."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_ISING8_BGLOBAL))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    _assert_reproduces(tmp_path / "out", _ROOT / "perfbench" / "reference" / "seed0" / "ising8_bglobal")


@pytest.mark.parametrize("name", ["fig2_left", "fig2_right", "ising8_bglobal"])
def test_decomposition_reconstructs_the_pauli_model(name):
    """A sweep diagonalises and reads energies from the decomposition's W, so
    the configs behind the goldens and the benchmark pin densify(dec) to the
    Pauli model it was decomposed from."""
    import sbqs.experiment as experiment_mod

    if name == "ising8_bglobal":
        config = validate_config(_ISING8_BGLOBAL)
    else:
        config = load_config(_ROOT / "configs" / f"{name}.json")
    dec, _ = experiment_mod._model(config)
    assert np.max(np.abs(densify(dec) - densify(experiment_mod._pauli(config)))) <= 1e-12


@pytest.mark.parametrize("name", ["fig2_left", "fig2_right", "ising8_bglobal", "pauli_y4"])
def test_the_data_sets_the_dtype(name):
    """A real model runs in float64 end to end: its resource states, W, the
    eigenvectors, |+>^n and the row's final state.  In a model with Y strings
    their resource states, W and every evolved state are complex128."""
    import sbqs.experiment as experiment_mod

    if name == "ising8_bglobal":
        config = validate_config(_ISING8_BGLOBAL)
    elif name == "pauli_y4":
        config = load_config(_ROOT / "tests" / "data" / "pauli_y4.json")
    else:
        config = load_config(_ROOT / "configs" / f"{name}.json")
    want = np.dtype(complex if name == "pauli_y4" else float)
    setup = experiment_mod._prepare(config)
    dec = setup.decomposition
    assert setup.psi0.dtype == np.float64
    assert [t.rho.dtype for t in dec.terms] == [want if "Y" in t.label else np.float64
                                                for t in dec.terms]
    assert dec.operator.dtype == setup.spectral.eigenvectors.dtype == setup.ground_basis.dtype == want
    # the sweep's own path: one stack for faithful rows, a vector otherwise
    plan = make_plan(dec, max(config.beta_grid), config.n_steps, config.strategy, config.mode)
    trajectory = (run_rows([plan], setup.psi0)[0] if config.mode == "faithful"
                  else run(plan, setup.psi0))
    assert trajectory.final_state.dtype == want
