import ast
import dataclasses
import functools
import io
import json
import os
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import cell_oracle
from conftest import make_positive_frame, overflow_refits_on, write_frame_csv
from predvote.accuracy import Measure
from predvote.cli import main
from predvote.dataset import StudyFrame, load_csv, synthesize_portfolio
from predvote.engine import (
    RunConfig,
    _block,
    _fit_generators,
    _worker_count,
    config_from_dict,
    derive_stream,
    generator_label,
    run,
    simulate_errors,
)
from predvote.errors import ConfigError, DataError, FitError, SimulationError
from predvote.generators import Generator
from predvote.models import ModelSpec, _KnnState, _TreeState
from predvote.prediction import Characteristic, PredictionStrategy, plug_in_predict


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


def grid_frame():
    """Covariates on a half-unit grid: rows repeat and distances tie, so the kNN index meets its lowest-row rule."""
    base = make_positive_frame(n=30, k=8, seed=12)
    return dataclasses.replace(base, x_sample=np.round(2 * base.x_sample) / 2, x_out=np.round(2 * base.x_out) / 2)


def family_case(where, make_frame, *generators):
    """A row whose strategies are every family and the intercept-only twins."""
    strategies = [PredictionStrategy(name, ModelSpec(family, hyperparams)) for name, family, hyperparams in (
        ("ols", "ols_normal", {}), ("ols_null", "ols_normal", {"intercept_only": True}),
        ("lognormal", "lognormal", {}), ("lognormal_null", "lognormal", {"intercept_only": True}),
        ("gamma", "gamma_glm_log_link", {}), ("tree", "regression_tree", {"max_depth": 2, "min_leaf": 3}),
        ("knn", "knn", {"k_neighbors": 3}),
    )]
    characteristics = [Characteristic("total"), Characteristic("median"), Characteristic("quantile", 0.9)]
    return pytest.param(make_frame, small_config(
        generators=generators, strategies=strategies, characteristics=characteristics,
        iterations=12, master_seed=19, failure_ceiling=0.5,
    ), id="-".join([where, *(spec.family for spec in generators)]))


# one (frame, config) per row; simulate_errors must give the cell oracle's values and masks bit for bit
ENGINE_CASES = [
    *(family_case("grid", grid_frame, ModelSpec(family, hyperparams)) for family, hyperparams in (
        ("ols_normal", {}), ("lognormal", {}), ("gamma_glm_log_link", {}),
        ("regression_tree", {"max_depth": 3, "min_leaf": 3}), ("knn", {"k_neighbors": 4}),
    )),
    # the benchmark's dummy-coded categorical rows, each repeated many times
    family_case(
        "portfolio", lambda: synthesize_portfolio(60, 40, 9), ModelSpec("lognormal"), ModelSpec("regression_tree")
    ),
    pytest.param(lambda: make_positive_frame(n=30, k=6, seed=2), small_config(
        generators=[ModelSpec("regression_tree", {"max_depth": 3, "min_leaf": 3})],
        strategies=[
            PredictionStrategy("ols", ModelSpec("ols_normal")),
            PredictionStrategy("knn", ModelSpec("knn", {"k_neighbors": 4})),
        ],
        characteristics=[Characteristic("total"), Characteristic("median")], iterations=200, master_seed=77,
    ), id="regression_tree-b200"),
    pytest.param(
        lambda: make_positive_frame(n=25, k=5, seed=4), small_config(iterations=40, master_seed=5), id="ols_normal-b40"
    ),
]


@pytest.mark.parametrize("make_frame,config", ENGINE_CASES)
def test_simulate_errors_matches_the_cell_oracle(make_frame, config, monkeypatch):
    # the values equal the oracle's at every block width and worker count
    import predvote.engine

    frame = make_frame()
    values, mask, reasons = cell_oracle.simulate_errors(config, frame)
    for width in (1, 7, 8, 64):
        monkeypatch.setattr(predvote.engine, "_BLOCK_CELLS", width)
        for workers in (1, 2):
            tensor = simulate_errors(config, frame, workers=workers)
            assert np.array_equal(tensor.values, values), (width, workers)
            assert np.array_equal(tensor.failure_mask, mask), (width, workers)
    # a masked cell is a lognormal or Gamma refit refusing a simulated sample that is not strictly positive
    for p, strategy in enumerate(config.strategies):
        family = strategy.model.family
        if family in ("lognormal", "gamma_glm_log_link"):
            assert set(reasons[:, :, p].flat) <= {"", f"{family}: response must be strictly positive"}, strategy.name
        else:
            assert not mask[:, :, p].any(), strategy.name


def test_the_cell_oracle_imports_only_primitives():
    # the oracle must not share the engine's refit plans, kNN index or cell function, which a rewrite changes
    imported = set()
    for node in ast.walk(ast.parse(Path(cell_oracle.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "predvote":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names if alias.name.split(".")[0] == "predvote"}
    assert imported and imported <= {"derive_stream", "FitError", "Generator", "fit_kde", "fit", "eval_characteristics"}


def with_a_copy_of_its_first_column(frame: StudyFrame) -> StudyFrame:
    """frame with its first column (the portfolio's gender dummy) written twice: a dummy trap."""
    return StudyFrame(
        x_sample=np.column_stack([frame.x_sample, frame.x_sample[:, 0]]), y_sample=frame.y_sample,
        x_out=np.column_stack([frame.x_out, frame.x_out[:, 0]]), column_names=[*frame.column_names, "gender_copy"],
    )


# (frame, strategy, message): a strategy that no response can refit on the frame's sample design
DESIGN_REFUSALS = [
    pytest.param(
        lambda: synthesize_portfolio(50, 10, 1), {"family": "knn", "hyperparams": {"k_neighbors": 51}},
        "strategy 'knn' cannot be fitted on the sample design: knn: k_neighbors=51 exceeds the 50 training rows",
        id="knn-wider-than-the-sample",
    ),
    pytest.param(
        lambda: with_a_copy_of_its_first_column(synthesize_portfolio(50, 10, 1)), {"family": "lognormal"},
        "strategy 'lognormal' cannot be fitted on the sample design: singular design: rank 8 < 9 columns",
        id="singular-design",
    ),
    pytest.param(
        lambda: make_positive_frame(n=3, k=4, seed=1), {"family": "gamma_glm_log_link"},
        "strategy 'gamma_glm_log_link' cannot be fitted on the sample design: "
        "gamma_glm_log_link: need at least 4 rows for 3 coefficients, got 3",
        id="too-few-rows",
    ),
]


class TestSimulateErrors:
    @pytest.mark.parametrize("workers", [0, True, -1, 2.5])
    def test_bad_worker_count_is_config_error(self, workers):
        # the rule run applies to its workers too; 0 would fall back to the default,
        # true would run one worker, and the pool would reject -1 and 2.5 with bare errors
        frame = make_positive_frame(n=20, k=4, seed=1)
        message = f"workers: must be a positive integer or unset, got {workers!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            simulate_errors(small_config(), frame, workers=workers)

    def test_pool_never_starts_more_workers_than_tasks(self, monkeypatch):
        # G = 1 and B = 16 make two blocks of eight cells, so two tasks, and six workers would leave four idle
        import concurrent.futures

        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        frame = make_positive_frame(n=20, k=4, seed=1)
        config = small_config(iterations=16)
        pooled = simulate_errors(config, frame, workers=6)
        serial = simulate_errors(config, frame, workers=1)
        assert started == [2]
        assert np.array_equal(pooled.values, serial.values)
        assert np.array_equal(pooled.failure_mask, serial.failure_mask)

    def test_metadata_records_the_workers_that_ran(self):
        # G = 1 and B = 16 make two blocks of eight cells, so two tasks, and a request for four runs two processes
        frame = make_positive_frame(n=20, k=4, seed=1)
        config = small_config(iterations=16)
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

    @pytest.mark.parametrize("width", [1, 8])
    def test_pool_chunks_cover_every_cell_in_order_and_ship_no_fitted_model(self, monkeypatch, width):
        # a stand-in pool that groups the blocks of cells into chunks of chunksize and ships each chunk
        # through pickle with the function, as ProcessPoolExecutor.map does, and runs it here;
        # the classes each chunk's pickle names are recorded
        import concurrent.futures

        import predvote.engine

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

            def map(self, fn, *iterables, chunksize=1):
                args = list(zip(*iterables))
                for lo in range(0, len(args), chunksize):
                    shipped.append({"classes": set()})
                    fn_copy, chunk = Recorder(io.BytesIO(pickle.dumps((fn, args[lo : lo + chunksize])))).load()
                    shipped[-1].update(fn=fn_copy, chunk=chunk)
                    yield from [fn_copy(*arg) for arg in chunk]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
        monkeypatch.setattr(predvote.engine, "_BLOCK_CELLS", width)
        frame = make_positive_frame(n=40, k=8, seed=3)
        config = small_config(
            generators=[ModelSpec("gamma_glm_log_link"), ModelSpec("regression_tree")],
            strategies=[
                PredictionStrategy("ols", ModelSpec("ols_normal")),
                PredictionStrategy("knn", ModelSpec("knn", {"k_neighbors": 3})),
            ],
            iterations=6,
        )
        workers = 2
        pooled = simulate_errors(config, frame, workers=workers)
        serial = simulate_errors(config, frame, workers=1)
        assert np.array_equal(pooled.values, serial.values)
        assert np.array_equal(pooled.failure_mask, serial.failure_mask)
        assert 2 <= len(shipped) <= 4 * workers
        # the 12 cells are cut into blocks of width, and a task is one chunk of ceil(blocks / (4 * workers)) blocks:
        # twelve blocks of one cell make six chunks of two, and blocks of eight and four cells two chunks of one
        assert [[len(block) for (block,) in task["chunk"]] for task in shipped] == (
            [[1, 1]] * 6 if width == 1 else [[8], [4]]
        )
        assert [cell for task in shipped for (block,) in task["chunk"] for cell in block] == [
            (g, b) for g in range(2) for b in range(6)
        ]
        for task in shipped:
            assert not task["classes"] & {"FittedModel", "_GlmState", "_TreeState", "_KnnState"}
            assert isinstance(task["fn"], functools.partial) and task["fn"].func is _block
            generators = task["fn"].args[1]
            assert all(isinstance(generator, Generator) for generator in generators)
            assert [generator.family for generator in generators] == [spec.family for spec in config.generators]

    def test_adding_a_strategy_never_changes_existing_errors(self):
        frame = make_positive_frame(n=30, k=6, seed=6)
        base = small_config(iterations=25)
        extended = dataclasses.replace(base, strategies=[
            *base.strategies, PredictionStrategy("tree", ModelSpec("regression_tree", {"max_depth": 2, "min_leaf": 3}))
        ])
        t_base = simulate_errors(base, frame, workers=1)
        t_ext = simulate_errors(extended, frame, workers=1)
        assert np.array_equal(t_base.values, t_ext.values[:, :, :, :2])

    @pytest.mark.parametrize("width", [7, 8])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_extending_iterations_never_changes_an_earlier_cell(self, monkeypatch, workers, width):
        # every cell is a pure function of (seed, g, b), so B = 5 is the first five iterations of B = 12,
        # masked cells included, however the cells are chunked and cut into blocks; neither B is a multiple
        # of the block width, so a serial run's blocks end inside a generator's iterations and span two generators
        import predvote.engine

        monkeypatch.setattr(predvote.engine, "_BLOCK_CELLS", width)
        frame = make_positive_frame(n=30, k=5, seed=7, noise=0.55)
        config = small_config(
            generators=[ModelSpec("ols_normal"), ModelSpec("regression_tree")],
            strategies=[
                PredictionStrategy("ols", ModelSpec("ols_normal")),
                PredictionStrategy("lognormal", ModelSpec("lognormal")),
            ],
            iterations=5,
            failure_ceiling=0.9,
            master_seed=11,
        )
        short = simulate_errors(config, frame, workers=1)
        extended = simulate_errors(dataclasses.replace(config, iterations=12), frame, workers=workers)
        assert short.failure_mask.any()
        assert np.array_equal(short.values, extended.values[:, :5])
        assert np.array_equal(short.failure_mask, extended.failure_mask[:, :5])

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
        reasons = [reason for reason in cell_oracle.simulate_errors(config, frame)[2][0, :, 1] if reason]
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
        with pytest.raises(SimulationError, match="non-positive fitted mean on out-of-sample row 5$"):
            simulate_errors(config, frame, workers=1)

    def test_gamma_generator_whose_mean_overflows_is_named_non_finite(self):
        # exp(600 + 100 x) passes the float range at the out-of-sample row x = 1.2; numpy's overflow
        # warning stays inside the generator, and the mean is not called non-positive
        rng = np.random.default_rng(1)
        x = np.linspace(0.0, 1.0, 40)[:, None]
        frame = StudyFrame(
            x_sample=x, y_sample=np.exp(600.0 + 100.0 * x[:, 0] + rng.normal(0.0, 0.1, 40)),
            x_out=np.array([[0.5], [1.2]]), column_names=["x"],
        )
        config = small_config(
            generators=[ModelSpec("gamma_glm_log_link")],
            strategies=[
                PredictionStrategy("ols", ModelSpec("ols_normal")), PredictionStrategy("knn", ModelSpec("knn")),
            ],
        )
        message = "generator 'gen1_gamma_glm_log_link': gamma generation: non-finite fitted mean on out-of-sample row 2"
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            run(config, frame, workers=1)

    @pytest.mark.parametrize("family", ["regression_tree", "knn"])
    def test_nonparametric_generator_whose_sample_fit_overflows_is_config_error(self, family):
        # the largest response is 1.7e308, so a leaf or neighbour mean overflows; that, not the KDE, is refused
        base = synthesize_portfolio(100, 40, 1)
        frame = dataclasses.replace(base, y_sample=base.y_sample * (1.7e308 / base.y_sample.max()))
        config = small_config(generators=[ModelSpec(family)])
        message = f"generator 'gen1_{family}': the residuals of its sample fit are not finite"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            simulate_errors(config, frame, workers=1)

    @pytest.mark.parametrize("make_frame, strategy, message", DESIGN_REFUSALS)
    def test_a_design_that_no_response_can_fit_is_config_error_before_any_cell(
        self, tmp_path, monkeypatch, capsys, make_frame, strategy, message
    ):
        # every refit of such a strategy fails, so a run once simulated every cell before it breached the ceiling
        import predvote.engine

        def no_cell(*args):
            raise AssertionError("a cell was simulated")

        monkeypatch.setattr(predvote.engine, "derive_stream", no_cell)
        monkeypatch.chdir(tmp_path)
        schema = write_frame_csv(make_frame(), "data.csv")
        null = {"family": "ols_normal", "hyperparams": {"intercept_only": True}}  # fits any design of two rows or more
        doc = {
            "schema": {
                "response": schema.response, "sample_flag": schema.sample_flag,
                "covariates": [{"name": name, "kind": kind} for name, kind in schema.covariates],
            },
            "generators": [null],
            "strategies": [{"name": "null", **null}, strategy],
            "characteristics": [{"kind": "total"}],
            "measures": [{"kind": "rmse"}],
            "iterations": 4,
        }
        Path("config.json").write_text(json.dumps(doc), encoding="utf-8")
        config, frame = config_from_dict(doc), load_csv("data.csv", schema)
        for call in (simulate_errors, run):
            with pytest.raises(ConfigError) as raised:
                call(config, frame, workers=1)
            assert str(raised.value) == message, call.__name__
        code = main(["run", "--config", "config.json", "--data", "data.csv", "--out", "out", "--workers", "1"])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
        assert sorted(os.listdir()) == ["config.json", "data.csv"]

    def test_a_nonparametric_generator_predicts_its_rows_once(self, monkeypatch):
        # its location on x_full, whose first n rows are x_sample, gives its sample residuals too
        calls = []
        for cls, name in ((_KnnState, "neighbours"), (_TreeState, "predict")):
            def spy(state, x, method=getattr(cls, name)):
                calls.append((type(state).__name__, x.shape))
                return method(state, x)
            monkeypatch.setattr(cls, name, spy)
        frame = make_positive_frame(n=30, k=8, seed=3)
        specs = [ModelSpec("knn", {"k_neighbors": 3}), ModelSpec("ols_normal"), ModelSpec("regression_tree")]
        # ENGINE_CASES' grid-knn and grid-regression_tree rows check that each generator draws as
        # Generator.from_model builds it from the model's residuals
        _fit_generators(small_config(generators=specs), frame)
        assert calls == [("_KnnState", (38, 2)), ("_TreeState", (38, 2))]

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
        real_fit_glm = predvote.prediction.fit_glm

        def fit_glm_failing_on_the_real_sample(design, y, spec):
            if np.array_equal(y, frame.y_sample):
                raise FitError("lognormal: response must be strictly positive")
            return real_fit_glm(design, y, spec)

        monkeypatch.setattr(predvote.prediction, "fit_glm", fit_glm_failing_on_the_real_sample)
        with pytest.raises(SimulationError) as raised:
            run(config, frame, workers=1)
        assert str(raised.value) == (
            f"a winning strategy cannot be fitted on the real sample: "
            f"strategy {winner!r}: lognormal: response must be strictly positive"
        )
        assert str(raised.value).count(repr(winner)) == 1

    @pytest.mark.parametrize("iterations, strategies", [(2, 7), (9, 2), (9, 7)])
    def test_a_run_builds_one_fitted_model_per_generator(self, monkeypatch, iterations, strategies):
        # every refit, in the cells and for the winners, runs on its strategy's plan; fit() serves the generators
        from predvote.models import FittedModel

        built = []
        init = FittedModel.__init__

        def counting_init(model, spec, *rest):
            built.append(spec.family)
            init(model, spec, *rest)

        monkeypatch.setattr(FittedModel, "__init__", counting_init)
        make_frame, config = family_case("grid", grid_frame, ModelSpec("lognormal"), ModelSpec("knn")).values
        config = dataclasses.replace(config, iterations=iterations, strategies=config.strategies[:strategies])
        assert run(config, make_frame(), workers=1).final_predictions
        assert built == ["lognormal", "knn"]

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
    # every refusal of a configuration rule is a row of CONFIG_REFUSALS in tests/test_cli.py, checked there through
    # config_from_dict, RunConfig and `predvote run`; what stays here is library behaviour no JSON document expresses

    def test_numpy_numbers_stored_as_python_values(self):
        config = small_config(iterations=np.int64(20), master_seed=np.uint64(7), failure_ceiling=np.float32(0.5))
        values = (config.iterations, config.master_seed, config.failure_ceiling)
        assert values == (20, 7, 0.5)
        assert [type(v) for v in values] == [int, int, float]
        output = run(config, make_positive_frame(n=20, k=4, seed=1), workers=np.int32(1))
        assert type(output.metadata["workers"]) is int
        seed = np.int64(-5)
        with pytest.raises(ConfigError, match=re.escape(f"master_seed: must be an integer in [0, 2^64), got {seed!r}")):
            small_config(master_seed=seed)

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
            "schema": {
                "response": "y", "sample_flag": "s",
                "covariates": [{"name": "a", "kind": "numeric"}, {"name": "b", "kind": "categorical"}],
            },
        }

    def test_round_trip(self):
        config = config_from_dict(self.good_doc())
        assert config.iterations == 10
        assert [s.name for s in config.strategies] == ["ols", "knn"]
        assert config.characteristics[1].name == "q0.9"
        assert config.measures[1].label == "qape0.5"
        assert type(config.strategies) is tuple
        assert config.schema.covariates == (("a", "numeric"), ("b", "categorical"))

    def test_minimal_document_takes_runconfig_defaults(self):
        doc = {key: self.good_doc()[key] for key in ("generators", "strategies", "characteristics", "measures")}
        config = config_from_dict(doc)
        defaults = [f for f in dataclasses.fields(RunConfig) if f.default is not dataclasses.MISSING]
        assert {f.name for f in defaults} == {
            "iterations", "master_seed", "failure_ceiling", "kde_bandwidth", "schema"
        }
        for f in defaults:
            assert getattr(config, f.name) == f.default, f.name

    @pytest.mark.parametrize("name", [None, ""], ids=["missing", "empty"])
    def test_default_strategy_name_is_family(self, name):
        # only a missing or empty name takes the family's; any other non-string one is refused
        doc = self.good_doc()
        if name is None:
            del doc["strategies"][0]["name"]
        else:
            doc["strategies"][0]["name"] = name
        assert config_from_dict(doc).strategies[0].name == "ols_normal"

    @pytest.mark.parametrize("key,value", [("failure_ceiling", 0), ("master_seed", 0), ("master_seed", 2**64 - 1)])
    def test_values_at_the_edges_accepted(self, key, value):
        doc = self.good_doc()
        doc[key] = value
        assert getattr(config_from_dict(doc), key) == value
