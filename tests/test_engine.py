import dataclasses
import io
import pickle
import re

import numpy as np
import pytest

from conftest import make_positive_frame, overflow_refits_on
from predvote.accuracy import Measure
from predvote.dataset import StudyFrame
from predvote.engine import (
    RunConfig,
    _worker_count,
    config_from_dict,
    derive_stream,
    generator_label,
    run,
    simulate_errors,
)
from predvote.errors import ConfigError, DataError, FitError, SimulationError
from predvote.generators import Generator, fit_kde, gen_nonparametric, gen_parametric
from predvote.models import ModelSpec, fit
from predvote.prediction import Characteristic, PredictionStrategy, eval_characteristic, plug_in_predict


def small_config(**overrides):
    base = dict(
        generators=[ModelSpec("ols_normal")],
        strategies=[
            PredictionStrategy("ols", ModelSpec("ols_normal")),
            PredictionStrategy("null", ModelSpec("ols_normal", {"intercept_only": True})),
        ],
        characteristics=[Characteristic("total")],
        measures=[Measure("rmse")],
        iterations=50,
        master_seed=123,
    )
    base.update(overrides)
    return RunConfig(**base)


def refit_plug_in(strategy, frame, y_s, characteristics):
    """Oracle of the engine's plug-in: a fresh fit, its predictions for x_out, the composite's characteristics."""
    y_out = fit(strategy.model, frame.x_sample, y_s).predict(frame.x_out)
    composite = np.concatenate([y_s, y_out])
    return np.array([eval_characteristic(c, composite) for c in characteristics])


class TestDeriveStream:
    def test_distinct_cells_produce_distinct_draws(self):
        a = derive_stream(7, 1, 1).random(4)
        b = derive_stream(7, 1, 2).random(4)
        c = derive_stream(7, 2, 1).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(b, c)

    def test_same_cell_reproduces(self):
        assert np.array_equal(derive_stream(9, 3, 5).random(8), derive_stream(9, 3, 5).random(8))

    def test_different_master_seed_differs(self):
        assert not np.array_equal(derive_stream(1, 1, 1).random(4), derive_stream(2, 1, 1).random(4))

    def test_indices_one_based(self):
        with pytest.raises(ValueError):
            derive_stream(1, 0, 1)
        with pytest.raises(ValueError):
            derive_stream(1, 1, 0)

    @pytest.mark.parametrize("seed,nearest", [(-1, 0), (2**64, 2**64 - 1)])
    def test_seed_outside_64_bits_rejected(self, seed, nearest):
        # reducing mod 2^64 would give -1 the streams of 2^64 - 1, and 2^64 those of 0
        with pytest.raises(ValueError, match=re.escape(f"master seed must lie in [0, 2^64), got {seed}")):
            derive_stream(seed, 1, 1)
        derive_stream(nearest, 1, 1)

    @pytest.mark.parametrize(
        "args", [(1.5, 1, 1), (np.float64(1.9), 1, 1), (True, 1, 1), (1, 1.0, 1), (1, 1, 2.5), (1, 1, False)]
    )
    def test_non_integer_seed_or_index_rejected(self, args):
        # truncation would give 1.5, 1.9 and True the streams of seed 1
        with pytest.raises(TypeError, match="master seed and stream indices must be integers"):
            derive_stream(*args)

    def test_numpy_integers_give_the_python_integer_streams(self):
        expected = derive_stream(2**64 - 1, 3, 5).random(4)
        assert np.array_equal(derive_stream(np.uint64(2**64 - 1), np.int64(3), np.int32(5)).random(4), expected)

    def test_first_draw_uniformity_chi_square(self):
        # 10^6 derived streams; bucketed first draws must not reject
        # uniformity at alpha = 0.001
        scipy_stats = pytest.importorskip("scipy.stats")
        buckets = 100
        counts = np.zeros(buckets)
        draws = np.empty(1_000_000)
        i = 0
        for g in range(1, 101):
            for b in range(1, 10_001):
                draws[i] = derive_stream(2024, g, b).random()
                i += 1
        counts = np.bincount((draws * buckets).astype(int), minlength=buckets)
        expected = draws.size / buckets
        stat = float(((counts - expected) ** 2 / expected).sum())
        critical = scipy_stats.chi2.ppf(0.999, buckets - 1)
        assert stat < critical, f"chi-square {stat:.1f} exceeds {critical:.1f}"


class TestSimulateErrors:
    def test_matches_naive_reference_loop(self):
        # straight-line single-threaded reimplementation from the primitives
        frame = make_positive_frame(n=30, k=6, seed=2)
        config = small_config(
            generators=[ModelSpec("regression_tree", {"max_depth": 3, "min_leaf": 3})],
            strategies=[
                PredictionStrategy("ols", ModelSpec("ols_normal")),
                PredictionStrategy("knn", ModelSpec("knn", {"k_neighbors": 4})),
            ],
            characteristics=[Characteristic("total"), Characteristic("median")],
            iterations=200,
            master_seed=77,
        )
        tensor = simulate_errors(config, frame, workers=1)

        gen_model = fit(config.generators[0], frame.x_sample, frame.y_sample)
        kde = fit_kde(gen_model.sample_residuals)
        x_full = frame.x_full
        expected = np.zeros_like(tensor.values)
        for b in range(200):
            rng = derive_stream(77, 1, b + 1)
            y_gen = gen_nonparametric(gen_model, x_full, kde, rng).y_full
            truth = np.array([eval_characteristic(c, y_gen) for c in config.characteristics])
            for p, strategy in enumerate(config.strategies):
                predicted = refit_plug_in(strategy, frame, y_gen[: frame.n], config.characteristics)
                expected[0, b, :, p] = predicted - truth
        assert np.array_equal(tensor.values, expected)
        assert not tensor.failure_mask.any()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "generator",
        [
            ModelSpec("lognormal"),
            ModelSpec("gamma_glm_log_link"),
            ModelSpec("regression_tree", {"max_depth": 3, "min_leaf": 3}),
            ModelSpec("knn", {"k_neighbors": 4}),
        ],
        ids=lambda spec: spec.family,
    )
    def test_matches_per_cell_public_api_loop(self, generator, workers):
        # covariates on a half-unit grid repeat rows and tie distances, so the
        # once-per-run kNN neighbour index meets the lowest-row tie rule
        base = make_positive_frame(n=30, k=8, seed=12)
        frame = StudyFrame(
            x_sample=np.round(2 * base.x_sample) / 2,
            y_sample=base.y_sample,
            x_out=np.round(2 * base.x_out) / 2,
            column_names=base.column_names,
        )
        config = small_config(
            generators=[generator],
            strategies=[
                PredictionStrategy("knn", ModelSpec("knn", {"k_neighbors": 3})),
                PredictionStrategy("tree", ModelSpec("regression_tree", {"max_depth": 2, "min_leaf": 3})),
                PredictionStrategy("ols", ModelSpec("ols_normal")),
                PredictionStrategy("knn_over_n", ModelSpec("knn", {"k_neighbors": 31})),
            ],
            characteristics=[Characteristic("total"), Characteristic("median"), Characteristic("quantile", 0.9)],
            iterations=12,
            master_seed=19,
            failure_ceiling=0.5,
        )
        tensor = simulate_errors(config, frame, workers=workers)

        model = fit(generator, frame.x_sample, frame.y_sample)
        kde = None if generator.is_parametric else fit_kde(model.sample_residuals)
        expected = np.zeros_like(tensor.values)
        expected_mask = np.zeros_like(tensor.failure_mask)
        for b in range(config.iterations):
            rng = derive_stream(19, 1, b + 1)
            if kde is None:
                y_gen = gen_parametric(model, frame.x_full, rng).y_full
            else:
                y_gen = gen_nonparametric(model, frame.x_full, kde, rng).y_full
            truth = np.array([eval_characteristic(c, y_gen) for c in config.characteristics])
            for p, strategy in enumerate(config.strategies):
                try:
                    predicted = refit_plug_in(strategy, frame, y_gen[: frame.n], config.characteristics)
                except FitError:
                    expected_mask[0, b, p] = True
                    continue
                expected[0, b, :, p] = predicted - truth
        assert np.array_equal(tensor.values, expected)
        assert np.array_equal(tensor.failure_mask, expected_mask)
        # k_neighbors > n masks every cell of that strategy and no other
        assert expected_mask[0, :, 3].all() and not expected_mask[0, :, :3].any()

    def test_worker_count_does_not_change_results(self):
        frame = make_positive_frame(n=40, k=8, seed=3)
        config = small_config(
            generators=[ModelSpec("ols_normal"), ModelSpec("knn", {"k_neighbors": 5})],
            iterations=30,
        )
        t1 = simulate_errors(config, frame, workers=1)
        t8 = simulate_errors(config, frame, workers=8)
        assert np.array_equal(t1.values, t8.values)
        assert np.array_equal(t1.failure_mask, t8.failure_mask)

    @pytest.mark.parametrize("workers", [0, True, -1, 2.5])
    def test_bad_worker_count_is_config_error(self, workers):
        # the rule run applies to its workers too; 0 would fall back to the default,
        # true would run one worker, and the pool would reject -1 and 2.5 with bare errors
        frame = make_positive_frame(n=20, k=4, seed=1)
        message = f"workers: must be a positive integer or unset, got {workers!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            simulate_errors(small_config(), frame, workers=workers)

    def test_pool_never_starts_more_workers_than_tasks(self, monkeypatch):
        # G = 1 and B = 2 make two tasks, so six workers would leave four idle processes
        import concurrent.futures

        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        frame = make_positive_frame(n=20, k=4, seed=1)
        config = small_config(iterations=2)
        pooled = simulate_errors(config, frame, workers=6)
        serial = simulate_errors(config, frame, workers=1)
        assert started == [2]
        assert np.array_equal(pooled.values, serial.values)
        assert np.array_equal(pooled.failure_mask, serial.failure_mask)

    def test_metadata_records_the_workers_that_ran(self):
        # G = 1 and B = 2 make two tasks, so a request for four runs two processes
        frame = make_positive_frame(n=20, k=4, seed=1)
        config = small_config(iterations=2)
        assert run(config, frame, workers=4).metadata["workers"] == 2
        assert run(config, frame, workers=1).metadata["workers"] == 1

    def test_default_worker_count_follows_cpu_affinity(self, monkeypatch):
        # a process pinned to one CPU runs one worker, however many the machine has
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _worker_count(None) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _worker_count(None) == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(None) == 1

    def test_pool_tasks_carry_one_generator_and_no_fitted_model(self, monkeypatch):
        # a stand-in pool that ships every task through pickle, as the process pool does,
        # and runs it here; the classes each task's pickle names are recorded
        import concurrent.futures

        shipped = []

        class Recorder(pickle.Unpickler):
            def find_class(self, module, name):
                shipped[-1]["classes"].add(name)
                return super().find_class(module, name)

        class PicklingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                for args in zip(*iterables):
                    shipped.append({"classes": set()})
                    fn_copy, args_copy = Recorder(io.BytesIO(pickle.dumps((fn, args)))).load()
                    shipped[-1]["args"] = args_copy
                    yield fn_copy(*args_copy)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
        frame = make_positive_frame(n=40, k=8, seed=3)
        config = small_config(
            generators=[ModelSpec("gamma_glm_log_link"), ModelSpec("regression_tree")],
            strategies=[
                PredictionStrategy("ols", ModelSpec("ols_normal")),
                PredictionStrategy("knn", ModelSpec("knn", {"k_neighbors": 3})),
            ],
            iterations=6,
        )
        pooled = simulate_errors(config, frame, workers=2)
        serial = simulate_errors(config, frame, workers=1)
        assert np.array_equal(pooled.values, serial.values)
        assert np.array_equal(pooled.failure_mask, serial.failure_mask)
        assert len(shipped) >= 2
        for task in shipped:
            assert not task["classes"] & {"FittedModel", "_GlmState", "_TreeState", "_KnnState"}
            generator, g, b_lo, b_hi = task["args"]
            assert isinstance(generator, Generator)
            assert generator.family == config.generators[g].family
            assert 0 <= b_lo < b_hi <= config.iterations

    def test_error_identity_on_sampled_cells(self):
        frame = make_positive_frame(n=25, k=5, seed=4)
        config = small_config(iterations=40, master_seed=5)
        tensor = simulate_errors(config, frame, workers=1)
        gen_model = fit(config.generators[0], frame.x_sample, frame.y_sample)
        rng = np.random.default_rng(0)
        for _ in range(100):
            b = int(rng.integers(0, 40))
            c = 0
            p = int(rng.integers(0, 2))
            stream = derive_stream(5, 1, b + 1)
            y_gen = gen_parametric(gen_model, frame.x_full, stream).y_full
            truth = eval_characteristic(config.characteristics[c], y_gen)
            predicted = refit_plug_in(
                config.strategies[p], frame, y_gen[: frame.n], config.characteristics
            )[c]
            assert abs(tensor.values[0, b, c, p] - (predicted - truth)) < 1e-10

    def test_adding_a_strategy_never_changes_existing_errors(self):
        frame = make_positive_frame(n=30, k=6, seed=6)
        base = small_config(iterations=25)
        extended = dataclasses.replace(base, strategies=[
            *base.strategies, PredictionStrategy("tree", ModelSpec("regression_tree", {"max_depth": 2, "min_leaf": 3}))
        ])
        t_base = simulate_errors(base, frame, workers=1)
        t_ext = simulate_errors(extended, frame, workers=1)
        assert np.array_equal(t_base.values, t_ext.values[:, :, :, :2])

    def test_failure_masking_below_ceiling(self):
        # additive gaussian generator on a moderately noisy positive response:
        # some generated samples contain non-positive values, so the lognormal
        # strategy fails on those iterations only
        frame = make_positive_frame(n=30, k=5, seed=7, noise=0.55)
        config = small_config(
            strategies=[
                PredictionStrategy("ols", ModelSpec("ols_normal")),
                PredictionStrategy("lognormal", ModelSpec("lognormal")),
            ],
            iterations=60,
            failure_ceiling=0.45,
            master_seed=11,
        )
        tensor = simulate_errors(config, frame, workers=1)
        failed = tensor.failure_mask[0, :, 1].sum()
        assert 0 < failed < 60
        assert not tensor.failure_mask[0, :, 0].any()
        assert tensor.effective_iterations()[0, 1] == 60 - failed

    def test_failure_ceiling_breach_raises(self):
        frame = make_positive_frame(n=30, k=5, seed=7, noise=0.55)
        config = small_config(
            strategies=[
                PredictionStrategy("ols", ModelSpec("ols_normal")),
                PredictionStrategy("lognormal", ModelSpec("lognormal")),
            ],
            iterations=60,
            failure_ceiling=0.001,
            master_seed=11,
        )
        messages = []
        for workers in (1, 2):
            with pytest.raises(SimulationError, match="ceiling") as raised:
                simulate_errors(config, frame, workers=workers)
            messages.append(str(raised.value))
        # only the lognormal refits fail, and the message names that pair alone with its first reason
        assert re.search(
            r"worst pairs: gen1_ols_normal × lognormal \(\d+\.\d\d%: lognormal: response must be strictly positive\)$",
            messages[0],
        ), messages[0]
        assert messages[0] == messages[1]

    def test_ceiling_error_names_the_first_reason_in_iteration_order(self):
        # one IRLS step never converges and a non-positive draw fails before it, so the pair's
        # refits fail for two reasons; at this seed the rarer one comes first, and is named
        frame = make_positive_frame(n=30, k=5, seed=7, noise=0.55)
        strategy = PredictionStrategy("gamma1", ModelSpec("gamma_glm_log_link", {"max_iter": 1, "tol": 1e-300}))
        config = small_config(strategies=[small_config().strategies[0], strategy], iterations=40, master_seed=26)
        generator = Generator.from_model(fit(config.generators[0], frame.x_sample, frame.y_sample), frame.x_full)
        reasons = []
        for b in range(1, config.iterations + 1):
            y_s = generator.draw(derive_stream(config.master_seed, 1, b))[: frame.n]
            try:
                refit_plug_in(strategy, frame, y_s, config.characteristics)
            except FitError as exc:
                reasons.append(str(exc))
        assert len(reasons) == config.iterations and "IRLS" in reasons[0]
        assert sum("IRLS" in reason for reason in reasons) < config.iterations / 2
        for workers in (1, 2):
            with pytest.raises(SimulationError) as raised:
                simulate_errors(config, frame, workers=workers)
            assert str(raised.value).endswith(f"gen1_ols_normal × gamma1 (100.00%: {reasons[0]})"), raised.value

    def test_non_finite_prediction_masks_its_cell_naming_the_characteristic(self):
        # the lognormal refit extrapolates exp(1 + x) to x = 1000, which overflows, while
        # the gaussian generator's population stays finite
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, 30)
        frame = StudyFrame(
            x_sample=x[:, None],
            y_sample=np.exp(1.0 + x + 0.1 * rng.standard_normal(30)),
            x_out=np.array([[0.5], [1000.0]]),
            column_names=["x"],
        )
        config = small_config(
            strategies=[small_config().strategies[0], PredictionStrategy("lognormal", ModelSpec("lognormal"))],
            characteristics=[Characteristic("median"), Characteristic("mean")],
            iterations=6,
        )
        tensor = simulate_errors(dataclasses.replace(config, failure_ceiling=0.6), frame, workers=1)
        assert tensor.failure_mask[0, :, 1].all() and not tensor.failure_mask[0, :, 0].any()
        assert np.all(np.isfinite(tensor.values[0, :, :, 0]))
        for workers in (1, 2):
            with pytest.raises(SimulationError) as raised:
                simulate_errors(config, frame, workers=workers)
            assert str(raised.value).endswith(
                "gen1_ols_normal × lognormal (100.00%: plug-in prediction of 'mean' is not finite)"
            ), raised.value

    def test_generator_unfit_on_real_data_is_config_error(self):
        rng = np.random.default_rng(8)
        frame = StudyFrame(
            x_sample=rng.standard_normal((20, 1)),
            y_sample=rng.standard_normal(20),  # contains negatives
            x_out=rng.standard_normal((4, 1)),
            column_names=["x"],
        )
        config = small_config(generators=[ModelSpec("lognormal")])
        with pytest.raises(ConfigError, match="generator"):
            simulate_errors(config, frame, workers=1)

    def test_collapsed_silverman_bandwidth_is_config_error(self):
        # residuals near 1e-300 square to zero, so the Silverman bandwidth is 0; it once escaped as a bare ValueError
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, size=(41, 1))
        frame = StudyFrame(
            x_sample=x[:40], y_sample=1e-300 * (1.0 + x[:40, 0] + 0.1 * rng.random(40)),
            x_out=x[40:], column_names=["x"],
        )
        config = small_config(generators=[ModelSpec("knn", {"k_neighbors": 3})])
        message = "generator 'gen1_knn': residual KDE failed: bandwidth must be a finite positive number, got 0.0"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            simulate_errors(config, frame, workers=1)

    def test_gamma_generator_with_zero_mean_is_simulation_error(self):
        # the generator's location is computed once per run, before any cell
        base = make_positive_frame(n=30, k=4, seed=14)
        frame = StudyFrame(
            x_sample=base.x_sample, y_sample=base.y_sample,
            x_out=np.vstack([base.x_out, [[-1e5, 0.0]]]), column_names=base.column_names,
        )
        config = small_config(generators=[ModelSpec("gamma_glm_log_link")])
        with pytest.raises(SimulationError, match="non-positive fitted mean at row 34"):
            simulate_errors(config, frame, workers=1)

    def test_out_block_required(self):
        rng = np.random.default_rng(9)
        frame = StudyFrame(
            x_sample=rng.standard_normal((20, 1)),
            y_sample=rng.uniform(1.0, 2.0, 20),
            x_out=np.empty((0, 1)),
            column_names=["x"],
        )
        with pytest.raises(DataError, match="out-of-sample"):
            simulate_errors(small_config(), frame, workers=1)


class TestRun:
    def test_zero_error_strategy_elected_unanimously(self, linear_frame):
        config = small_config(iterations=60, master_seed=21)
        output = run(config, linear_frame, workers=1)
        for result in output.selections.values():
            assert result.winners == ("ols",)
        # the exact-fit generator leaves the matching strategy with zero error
        assert output.accuracy_matrix.entries[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert output.accuracy_matrix.entries[0, 1] > 0
        assert set(output.final_predictions) == {"ols"}

    def test_case_study_scale_dimensions(self):
        # six generators (gamma twice under different hyperparameters),
        # six strategies, two characteristics, three measures -> 36 x 6
        frame = make_positive_frame(n=60, k=10, seed=10, noise=0.08)
        families = [
            ModelSpec("ols_normal"),
            ModelSpec("lognormal"),
            ModelSpec("gamma_glm_log_link"),
            ModelSpec("gamma_glm_log_link", {"max_iter": 200, "tol": 1e-10}),
            ModelSpec("regression_tree", {"max_depth": 3, "min_leaf": 4}),
            ModelSpec("knn", {"k_neighbors": 5}),
        ]
        config = RunConfig(
            generators=families,
            strategies=[PredictionStrategy(f"strategy{i + 1}", spec) for i, spec in enumerate(families)],
            characteristics=[Characteristic("total"), Characteristic("median")],
            measures=[Measure("rmse"), Measure("qape", 0.5), Measure("qape", 0.95)],
            iterations=8,
            master_seed=31,
        )
        output = run(config, frame, workers=2)
        assert output.accuracy_matrix.shape == (36, 6)
        assert len(output.accuracy_matrix.row_labels) == 36
        assert output.w1.entries.shape == (36, 6)
        assert output.metadata["effective_iterations"] == (np.full((6, 6), 8)).tolist()

    def test_metadata_contents(self, linear_frame):
        config = small_config(iterations=20)
        output = run(config, linear_frame, workers=1)
        md = output.metadata
        assert md["iterations"] == 20
        assert md["master_seed"] == 123
        assert md["n"] == linear_frame.n and md["k"] == linear_frame.k
        assert md["generators"] == [generator_label(0, config.generators[0])]
        assert md["strategies"] == ["ols", "null"]
        assert md["measures"] == ["rmse"]
        assert md["wall_time_seconds"] > 0
        assert md["workers"] == 1

    def test_winner_refit_failure_is_simulation_error(self):
        # winner fit succeeds inside the loop oracle; simulate a failure by
        # making the real sample unusable for the would-be winner
        rng = np.random.default_rng(13)
        x = rng.uniform(0.0, 1.0, size=(25, 1))
        y = np.exp(0.4 * x[:, 0] + 0.05 * rng.standard_normal(25))
        frame = StudyFrame(x_sample=x[:20], y_sample=y[:20] - 1.0, x_out=x[20:], column_names=["x"])
        # y - 1 straddles zero: lognormal generator unusable -> config error
        config = small_config(generators=[ModelSpec("gamma_glm_log_link")])
        with pytest.raises(ConfigError):
            run(config, frame, workers=1)

    def test_each_refit_plan_is_built_once_for_cells_and_winners(self, monkeypatch):
        import predvote.engine
        import predvote.prediction

        frame = make_positive_frame(n=30, k=6, seed=6)
        strategies = [
            PredictionStrategy("ols", ModelSpec("ols_normal")),
            PredictionStrategy("knn", ModelSpec("knn", {"k_neighbors": 3})),
            PredictionStrategy("knn_wide", ModelSpec("knn", {"k_neighbors": 12})),
        ]
        config = small_config(strategies=strategies, iterations=12)
        real_plan_refit = predvote.engine.plan_refit
        planned = []

        def counting_plan_refit(strategy, frame):
            planned.append(strategy.name)
            return real_plan_refit(strategy, frame)

        for module in (predvote.engine, predvote.prediction):
            monkeypatch.setattr(module, "plan_refit", counting_plan_refit)
        output = run(config, frame, workers=1)
        assert sorted(planned) == ["knn", "knn_wide", "ols"]
        assert output.final_predictions
        for name, predicted in output.final_predictions.items():
            strategy = next(s for s in strategies if s.name == name)
            assert np.array_equal(predicted, plug_in_predict(strategy, frame, frame.y_sample, config.characteristics))

    def test_winner_refit_failure_names_the_strategy_once(self, monkeypatch):
        # the refit fails on the real sample only, not on any simulated one
        import predvote.prediction

        frame = make_positive_frame(n=30, k=6, seed=6)
        config = small_config(iterations=20)
        (winner,) = run(config, frame, workers=1).final_predictions
        real_fit = predvote.prediction.fit

        def fit_failing_on_the_real_sample(spec, x, y):
            if np.array_equal(y, frame.y_sample):
                raise FitError("lognormal: response must be strictly positive")
            return real_fit(spec, x, y)

        monkeypatch.setattr(predvote.prediction, "fit", fit_failing_on_the_real_sample)
        with pytest.raises(SimulationError) as raised:
            run(config, frame, workers=1)
        assert str(raised.value) == (
            f"a winning strategy cannot be fitted on the real sample: "
            f"strategy {winner!r}: lognormal: response must be strictly positive"
        )
        assert str(raised.value).count(repr(winner)) == 1

    def test_non_finite_winner_prediction_names_the_strategy_and_characteristic(self, monkeypatch):
        # the refit predicts inf on the real sample only, not on any simulated one
        frame = make_positive_frame(n=30, k=6, seed=6)
        config = small_config(iterations=20)
        (winner,) = run(config, frame, workers=1).final_predictions
        overflow_refits_on(monkeypatch, frame.y_sample)
        with pytest.raises(SimulationError) as raised:
            run(config, frame, workers=1)
        assert str(raised.value) == (
            f"a winning strategy cannot be fitted on the real sample: "
            f"strategy {winner!r}: plug-in prediction of 'total' is not finite"
        )


class TestConfigValidation:
    def test_single_strategy_rejected(self):
        strategies = small_config().strategies
        with pytest.raises(ConfigError, match="at least two strategies"):
            small_config(strategies=strategies[:1])

    def test_duplicate_strategy_names_rejected(self):
        strategies = small_config().strategies
        with pytest.raises(ConfigError, match="unique"):
            small_config(strategies=[strategies[0], strategies[0]])

    def test_duplicate_strategy_name_is_named(self):
        strategies = small_config().strategies
        with pytest.raises(ConfigError, match="strategies: names must be unique, 'ols' is repeated"):
            small_config(strategies=[strategies[0], strategies[1], strategies[0]])

    def test_duplicate_characteristic_names_rejected(self):
        with pytest.raises(ConfigError, match="characteristics: names must be unique, 'total' is repeated"):
            small_config(characteristics=[Characteristic("total"), Characteristic("mean", name="total")])

    def test_equal_default_characteristic_names_rejected(self):
        with pytest.raises(ConfigError, match="'q0.95' is repeated"):
            small_config(characteristics=[Characteristic("quantile", 0.95), Characteristic("quantile", 0.95)])

    @pytest.mark.parametrize(
        "measures,label",
        [([Measure("rmse"), Measure("rmse")], "rmse"), ([Measure("qape", 0.95), Measure("qape", 0.9500001)], "qape0.95")],
    )
    def test_repeated_measure_label_rejected(self, measures, label):
        # each label is one accuracy-matrix row per (generator, characteristic): a repeat would vote twice
        with pytest.raises(ConfigError, match=re.escape(f"measures: labels must be unique, {label!r} is repeated")):
            small_config(measures=measures)

    def test_iteration_floor(self):
        with pytest.raises(ConfigError, match="at least 2"):
            small_config(iterations=1)

    def test_non_integer_iterations_rejected_when_built(self):
        with pytest.raises(ConfigError, match="^iterations: "):
            RunConfig(
                generators=[ModelSpec("ols_normal")],
                strategies=small_config().strategies,
                characteristics=[Characteristic("total")],
                measures=[Measure("rmse")],
                iterations=3.9,
            )

    def test_failure_ceiling_range(self):
        with pytest.raises(ConfigError, match="failure_ceiling"):
            small_config(failure_ceiling=1.0)

    def test_empty_generators_rejected(self):
        with pytest.raises(ConfigError, match="generation model"):
            small_config(generators=[])

    @pytest.mark.parametrize("seed,nearest", [(-1, 0), (2**64, 2**64 - 1), (np.int64(-5), 0)])
    def test_seed_outside_64_bits_rejected(self, seed, nearest):
        with pytest.raises(ConfigError, match=re.escape(f"master_seed: must be an integer in [0, 2^64), got {seed!r}")):
            small_config(master_seed=seed)
        assert small_config(master_seed=nearest).master_seed == nearest

    def test_numpy_numbers_stored_as_python_values(self):
        config = small_config(iterations=np.int64(20), master_seed=np.uint64(7), failure_ceiling=np.float32(0.5))
        values = (config.iterations, config.master_seed, config.failure_ceiling)
        assert values == (20, 7, 0.5)
        assert [type(v) for v in values] == [int, int, float]
        output = run(config, make_positive_frame(n=20, k=4, seed=1), workers=np.int32(1))
        assert type(output.metadata["workers"]) is int

    def test_frozen_with_tuple_list_fields(self):
        config = small_config()
        for key in ("generators", "strategies", "characteristics", "measures"):
            assert type(getattr(config, key)) is tuple, key
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.iterations = 10
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.master_seed = 5
        assert config.iterations == 50

    def test_replace_checks_again(self):
        config = small_config()
        assert dataclasses.replace(config, master_seed=9).master_seed == 9
        with pytest.raises(ConfigError, match="^iterations: "):
            dataclasses.replace(config, iterations=1)

    @pytest.mark.parametrize("workers", [0, -2, 1.5])
    def test_bad_run_worker_count_is_config_error(self, workers):
        with pytest.raises(ConfigError, match=re.escape(f"workers: must be a positive integer or unset, got {workers!r}")):
            run(small_config(), make_positive_frame(n=20, k=4, seed=1), workers=workers)


class TestConfigFromDict:
    def good_doc(self):
        return {
            "generators": [{"family": "ols_normal"}],
            "strategies": [
                {"name": "ols", "family": "ols_normal"},
                {"name": "knn", "family": "knn", "hyperparams": {"k_neighbors": 3}},
            ],
            "characteristics": [{"kind": "total"}, {"kind": "quantile", "p": 0.9}],
            "measures": [{"kind": "rmse"}, {"kind": "qape", "p": 0.5}],
            "iterations": 10,
            "master_seed": 1,
        }

    def test_round_trip(self):
        config = config_from_dict(self.good_doc())
        assert config.iterations == 10
        assert [s.name for s in config.strategies] == ["ols", "knn"]
        assert config.characteristics[1].name == "q0.9"
        assert config.measures[1].label == "qape0.5"
        assert type(config.strategies) is tuple

    def test_minimal_document_takes_runconfig_defaults(self):
        doc = {key: self.good_doc()[key] for key in ("generators", "strategies", "characteristics", "measures")}
        config = config_from_dict(doc)
        defaults = [f for f in dataclasses.fields(RunConfig) if f.default is not dataclasses.MISSING]
        assert {f.name for f in defaults} == {
            "iterations", "master_seed", "failure_ceiling", "kde_bandwidth", "schema"
        }
        for f in defaults:
            assert getattr(config, f.name) == f.default, f.name

    def test_unknown_field_rejected(self):
        doc = self.good_doc()
        doc["tuning"] = {}
        with pytest.raises(ConfigError, match="tuning"):
            config_from_dict(doc)

    def test_missing_required_field(self):
        doc = self.good_doc()
        del doc["measures"]
        with pytest.raises(ConfigError, match="measures"):
            config_from_dict(doc)

    def test_duplicate_characteristic_name_rejected(self):
        doc = self.good_doc()
        doc["characteristics"] = [{"kind": "total"}, {"kind": "mean", "name": "total"}]
        with pytest.raises(ConfigError, match="characteristics: names must be unique, 'total' is repeated"):
            config_from_dict(doc)

    def test_bad_family_reports_position(self):
        doc = self.good_doc()
        doc["generators"][0]["family"] = "svm"
        with pytest.raises(ConfigError, match=r"generators\[0\]"):
            config_from_dict(doc)

    def test_bad_measure_order(self):
        doc = self.good_doc()
        doc["measures"][1]["p"] = 2.0
        with pytest.raises(ConfigError, match=r"measures\[1\]"):
            config_from_dict(doc)

    @pytest.mark.parametrize("key", ["generators", "strategies", "characteristics", "measures"])
    @pytest.mark.parametrize("value", [5, "ols_normal", {"family": "ols_normal"}], ids=["int", "str", "dict"])
    def test_non_list_item_field_rejected(self, key, value):
        doc = self.good_doc()
        doc[key] = value
        with pytest.raises(ConfigError, match=f"^{key}: must be a list of entries"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "where,misspell,key",
        [
            ("generators[0]", lambda doc: doc["generators"][0].update(hyperparam={"max_depth": 3}), "hyperparam"),
            ("strategies[1]", lambda doc: doc["strategies"][1].update(hyperparms={"k_neighbors": 50}), "hyperparms"),
            ("characteristics[1]", lambda doc: doc["characteristics"][1].update(nmae="x"), "nmae"),
            ("measures[0]", lambda doc: doc["measures"][0].update(foo=1), "foo"),
            ("measures[1]", lambda doc: doc["measures"][1].update(label="q"), "label"),
            ("schema", lambda doc: doc["schema"].update(sample_flg="s"), "sample_flg"),
            ("schema", lambda doc: doc["schema"]["covariates"][1].update(knd="numeric"), "knd"),
        ],
    )
    def test_misspelled_key_is_named_with_its_entry(self, where, misspell, key):
        # a key that no constructor takes was once dropped, and the entry ran with its defaults
        doc = self.good_doc()
        doc["schema"] = {
            "response": "y", "sample_flag": "s",
            "covariates": [{"name": "a", "kind": "numeric"}, {"name": "b", "kind": "categorical"}],
        }
        assert config_from_dict(doc).schema.covariates == (("a", "numeric"), ("b", "categorical"))
        misspell(doc)
        with pytest.raises(ConfigError, match=f"^{re.escape(where)}: .*unexpected keyword argument '{key}'$"):
            config_from_dict(doc)

    def test_list_hyperparams_rejected(self):
        doc = self.good_doc()
        doc["strategies"][1]["hyperparams"] = [["k_neighbors", 7]]
        with pytest.raises(ConfigError, match=re.escape("strategies[1]: knn: hyperparams must be a mapping")):
            config_from_dict(doc)

    def test_default_strategy_name_is_family(self):
        doc = self.good_doc()
        del doc["strategies"][0]["name"]
        config = config_from_dict(doc)
        assert config.strategies[0].name == "ols_normal"

    @pytest.mark.parametrize("name", [None, False, 0, []], ids=["null", "false", "zero", "empty-list"])
    def test_non_string_strategy_name_rejected(self, name):
        # only a missing or empty string takes the family as the name
        doc = self.good_doc()
        doc["strategies"][0]["name"] = name
        message = f"strategies[0]: strategy needs a non-empty name string, got {name!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(doc)
        doc["strategies"][0]["name"] = ""
        assert config_from_dict(doc).strategies[0].name == "ols_normal"

    @pytest.mark.parametrize("value", ["auto", 2, None])
    def test_parallelism_is_an_unknown_field(self, value):
        # the worker count is a machine setting, passed to run and simulate_errors, not part of the study
        doc = self.good_doc()
        doc["parallelism"] = value
        with pytest.raises(ConfigError, match=re.escape("unknown configuration field(s): ['parallelism']")):
            config_from_dict(doc)

    def assert_rejected_on_both_paths(self, key, value):
        # the JSON reader and the library's RunConfig share one check, with one message
        doc = self.good_doc()
        doc[key] = value
        with pytest.raises(ConfigError, match=key) as from_doc:
            config_from_dict(doc)
        with pytest.raises(ConfigError, match=key) as from_library:
            small_config(**{key: value})
        assert str(from_doc.value) == str(from_library.value)

    @pytest.mark.parametrize(
        "key,value",
        [("iterations", 3.9), ("master_seed", 1.7), ("master_seed", "1")],
    )
    def test_non_integer_counts_rejected(self, key, value):
        # int() would truncate 3.9 to 3 and read true as 1
        self.assert_rejected_on_both_paths(key, value)

    @pytest.mark.parametrize("value", ["0.5", False, None])
    def test_non_number_failure_ceiling_rejected(self, value):
        # float() would read "0.5" as 0.5 and false as 0.0
        self.assert_rejected_on_both_paths("failure_ceiling", value)

    def test_integer_failure_ceiling_accepted(self):
        doc = self.good_doc()
        doc["failure_ceiling"] = 0
        assert config_from_dict(doc).failure_ceiling == 0.0
