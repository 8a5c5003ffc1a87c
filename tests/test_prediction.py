import dataclasses
import math
import re

import numpy as np
import pytest

from predvote.accuracy import Measure, qape, sorted_quantile
from predvote.dataset import StudyFrame, synthesize_portfolio
from predvote.errors import ConvergenceError, FitError
from predvote.models import PARAMETRIC_FAMILIES, ModelSpec, fit
from predvote.prediction import Characteristic, PredictionStrategy, eval_characteristics, plug_in_predict

MEDIAN = [Characteristic("median")]


class TestCharacteristic:
    def test_total(self):
        assert eval_characteristics([Characteristic("total")], [1.0, 2.0, 3.0, 4.0]).tolist() == [10.0]

    def test_mean(self):
        assert eval_characteristics([Characteristic("mean")], [1.0, 2.0, 3.0, 4.0]).tolist() == [2.5]

    def test_median_midpoint_convention(self):
        assert eval_characteristics(MEDIAN, [1.0, 2.0, 3.0, 4.0]).tolist() == [2.5]
        assert eval_characteristics(MEDIAN, [5.0, 1.0, 3.0]).tolist() == [3.0]

    def test_median_equals_numpy_median(self):
        rng = np.random.default_rng(17)
        for i in range(300):
            values = rng.lognormal(7.0, 0.8, size=int(rng.integers(1, 1500)))
            if i % 2:
                values = np.round(values, -2)  # ties
            assert eval_characteristics(MEDIAN, values).tolist() == [np.median(values)], i

    @pytest.mark.parametrize("values", [[1.0, np.nan, 2.0], [np.nan, 1.0], [3.0, 1.0, 2.0, np.inf, np.nan]])
    def test_median_of_nan_input_is_nan(self, values):
        assert math.isnan(eval_characteristics(MEDIAN, values)[0])

    def test_quantile_order_statistic(self):
        # ceil(0.95 * 100) = 95th order statistic
        values = np.arange(1.0, 101.0)
        np.random.default_rng(0).shuffle(values)
        assert eval_characteristics([Characteristic("quantile", 0.95)], values).tolist() == [95.0]
        # ceil(0.5 * 5) = 3rd order statistic
        assert eval_characteristics([Characteristic("quantile", 0.5)], [1.0, 2.0, 3.0, 4.0, 5.0]).tolist() == [3.0]

    def test_quantile_bruteforce_inf_definition(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(1, 40))
            p = rng.uniform(0.01, 0.99)
            candidates = np.sort(v)
            oracle = next(x for x in candidates if np.mean(v <= x) >= p)
            assert sorted_quantile(np.sort(v), p) == oracle

    def test_quantile_monotone_in_p(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(37)
        qs = [sorted_quantile(np.sort(v), p) for p in np.linspace(0.01, 0.99, 25)]
        assert np.all(np.diff(qs) >= 0)

    def test_one_sort_serves_every_order_statistic(self, monkeypatch):
        sorts = []
        sort = np.sort

        def counting_sort(*args, **kwargs):
            sorts.append(args)
            return sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        y = np.random.default_rng(5).standard_normal(101)
        order_statistics = [Characteristic("median"), Characteristic("quantile", 0.95), Characteristic("quantile", 0.5)]
        eval_characteristics(order_statistics, y)
        assert len(sorts) == 1
        sorts.clear()
        eval_characteristics([Characteristic("total"), Characteristic("mean")], y)
        assert sorts == []

    def test_vector_matches_each_characteristic_bit_for_bit(self):
        from predvote.prediction import eval_characteristic  # the one-element view is this test's subject

        chars = [
            Characteristic("total"), Characteristic("mean"), Characteristic("median"),
            Characteristic("quantile", 0.05), Characteristic("quantile", 0.5), Characteristic("quantile", 0.95),
        ]
        specials = ([], [np.inf], [-np.inf], [np.nan], [np.inf, -np.inf, np.nan])
        rng = np.random.default_rng(11)
        for i in range(200):
            y = np.round(rng.standard_normal(int(rng.integers(3, 60))), 1)  # ties
            extra = specials[i % len(specials)]
            y[rng.choice(y.size, size=len(extra), replace=False)] = extra
            with np.errstate(invalid="ignore"):  # inf - inf in the total and mean is NaN
                got = eval_characteristics(chars, y)
                want = np.array([eval_characteristic(c, y) for c in chars])
            assert got.tobytes() == want.tobytes(), i

    def test_validation(self):
        with pytest.raises(ValueError):
            Characteristic("quantile")
        with pytest.raises(ValueError):
            Characteristic("quantile", 1.0)
        with pytest.raises(ValueError):
            Characteristic("total", 0.5)
        with pytest.raises(ValueError):
            Characteristic("mode")
        assert Characteristic("quantile", 0.95).name == "q0.95"

    @pytest.mark.parametrize("p", ["0.5", True, float("nan"), [0.5]])
    def test_non_number_p_is_value_error(self, p):
        with pytest.raises(ValueError, match="quantile"):
            Characteristic("quantile", p=p)

    def test_numpy_p_stored_as_float(self):
        char = Characteristic("quantile", p=np.float64(0.9))
        assert type(char.p) is float and char.p == 0.9 and char.name == "q0.9"

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            PredictionStrategy("", ModelSpec("ols_normal"))

    @pytest.mark.parametrize("name", [5, None, ("a",)])
    def test_non_string_names_are_value_errors(self, name):
        # report.json sorts its keys, so a non-string name next to a string one cannot be written
        with pytest.raises(ValueError, match="strategy needs a non-empty name string"):
            PredictionStrategy(name, ModelSpec("ols_normal"))
        with pytest.raises(ValueError, match="characteristic name must be a string"):
            Characteristic("median", name=name)
        assert Characteristic("median", name="").name == "median"


FAMILY_SPECS = [
    ModelSpec("ols_normal"),
    ModelSpec("lognormal"),
    ModelSpec("gamma_glm_log_link"),
    ModelSpec("regression_tree", {"max_depth": 3, "min_leaf": 2}),
    ModelSpec("knn", {"k_neighbors": 3}),
]


class TestPlugIn:
    def chars(self):
        return [Characteristic("total"), Characteristic("median"), Characteristic("quantile", 0.9)]

    def test_empty_out_block_reduces_to_sample_evaluation(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(1.0, 5.0, size=12)
        frame = StudyFrame(
            x_sample=rng.standard_normal((12, 1)),
            y_sample=y,
            x_out=np.empty((0, 1)),
            column_names=["x"],
        )
        strategy = PredictionStrategy("ols", ModelSpec("ols_normal"))
        got = plug_in_predict(strategy, frame, y, self.chars())
        assert np.allclose(got, eval_characteristics(self.chars(), y))

    @pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.family)
    def test_every_family_predicts_an_empty_out_block(self, spec):
        # the composite of a k = 0 frame is y_s itself, whatever the family
        rng = np.random.default_rng(1)
        y = rng.uniform(1.0, 5.0, size=12)
        frame = StudyFrame(
            x_sample=rng.standard_normal((12, 2)), y_sample=y, x_out=np.empty((0, 2)), column_names=["a", "b"]
        )
        got = plug_in_predict(PredictionStrategy("s", spec), frame, y, self.chars())
        assert np.array_equal(got, eval_characteristics(self.chars(), y))

    def test_noiseless_linear_total_is_true_total(self, linear_frame):
        strategy = PredictionStrategy("ols", ModelSpec("ols_normal"))
        total = plug_in_predict(strategy, linear_frame, linear_frame.y_sample, [Characteristic("total")])[0]
        x_all = np.vstack([linear_frame.x_sample, linear_frame.x_out])
        assert total == pytest.approx(np.sum(2.0 + 3.0 * x_all[:, 0]), rel=1e-12)

    def test_intercept_only_total_closed_form(self, linear_frame):
        # composite total = sum(y_s) + k * mean(y_s)
        strategy = PredictionStrategy("null", ModelSpec("ols_normal", {"intercept_only": True}))
        y = linear_frame.y_sample
        total = plug_in_predict(strategy, linear_frame, y, [Characteristic("total")])[0]
        assert total == pytest.approx(y.sum() + linear_frame.k * y.mean(), rel=1e-12)

    @pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.family)
    def test_total_equals_independent_summation(self, positive_frame, spec):
        strategy = PredictionStrategy("s", spec)
        total = plug_in_predict(strategy, positive_frame, positive_frame.y_sample, [Characteristic("total")])[0]
        model = fit(spec, positive_frame.x_sample, positive_frame.y_sample)
        independent = positive_frame.y_sample.sum() + model.predict(positive_frame.x_out).sum()
        assert total == pytest.approx(independent, rel=1e-12)

    def test_composite_quantiles_monotone(self, positive_frame):
        strategy = PredictionStrategy("knn", ModelSpec("knn", {"k_neighbors": 4}))
        orders = [0.1, 0.3, 0.5, 0.7, 0.9]
        chars = [Characteristic("quantile", p) for p in orders]
        values = plug_in_predict(strategy, positive_frame, positive_frame.y_sample, chars)
        assert np.all(np.diff(values) >= 0)

    def test_y_s_never_mutated(self, positive_frame):
        y = positive_frame.y_sample.copy()
        y.setflags(write=True)
        snapshot = y.copy()
        plug_in_predict(PredictionStrategy("ols", ModelSpec("ols_normal")), positive_frame, y, self.chars())
        assert np.array_equal(y, snapshot)

    def test_fit_failure_carries_strategy_name(self, positive_frame):
        y = positive_frame.y_sample.copy()
        y.setflags(write=True)
        y[0] = -1.0
        strategy = PredictionStrategy("my_lognormal", ModelSpec("lognormal"))
        with pytest.raises(FitError, match="my_lognormal"):
            plug_in_predict(strategy, positive_frame, y, self.chars())

    def test_convergence_error_keeps_its_type_and_iterations(self, positive_frame):
        strategy = PredictionStrategy("slow_gamma", ModelSpec("gamma_glm_log_link", {"max_iter": 1, "tol": 1e-300}))
        with pytest.raises(ConvergenceError, match="^strategy 'slow_gamma': gamma_glm_log_link: IRLS") as raised:
            plug_in_predict(strategy, positive_frame, positive_frame.y_sample, self.chars())
        assert raised.value.iterations == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.family)
    def test_non_finite_sample_is_fit_error_naming_the_strategy(self, positive_frame, spec, bad):
        # knn predicts by gathering y_s, which would carry the NaN into the result unchecked
        y = positive_frame.y_sample.copy()
        y[3] = bad
        with pytest.raises(FitError, match="^strategy 'my_strategy': training data contains non-finite values$"):
            plug_in_predict(PredictionStrategy("my_strategy", spec), positive_frame, y, self.chars())

    def test_non_finite_prediction_is_fit_error_naming_strategy_and_characteristic(self):
        # the lognormal refit extrapolates exp(1 + x) to x = 1000, which overflows
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, 30)
        frame = StudyFrame(
            x_sample=x[:, None],
            y_sample=np.exp(1.0 + x + 0.1 * rng.standard_normal(30)),
            x_out=np.array([[0.5], [1000.0]]),
            column_names=["x"],
        )
        chars = [Characteristic("median"), Characteristic("mean")]
        strategy = PredictionStrategy("lognormal", ModelSpec("lognormal"))
        with pytest.raises(FitError, match="^strategy 'lognormal': plug-in prediction of 'mean' is not finite$"):
            plug_in_predict(strategy, frame, frame.y_sample, chars)

    def test_wrong_sample_length_rejected(self, positive_frame):
        with pytest.raises(ValueError, match="length"):
            plug_in_predict(
                PredictionStrategy("ols", ModelSpec("ols_normal")),
                positive_frame,
                np.ones(positive_frame.n + 1),
                self.chars(),
            )


def huge_column_frame() -> StudyFrame:
    """The 100-row portfolio with a covariate of scale 1e200, whose sample design lstsq calls rank-short unscaled."""
    base = synthesize_portfolio(100, 40, 1)
    exposure = np.random.default_rng(0).uniform(0.25, 2.25, size=140) * 1e200
    return StudyFrame(
        x_sample=np.column_stack([base.x_sample, exposure[:100]]), y_sample=base.y_sample,
        x_out=np.column_stack([base.x_out, exposure[100:]]), column_names=[*base.column_names, "exposure"],
    )


# designs the engine oracle rows do not reach: the column-scale retry, one out-of-sample row, one row repeated
PLAN_FRAMES = {
    "huge-column": huge_column_frame,
    "one-out-row": lambda: dataclasses.replace(synthesize_portfolio(100, 40, 1), x_out=[[1.0, 0, 1, 0, 0, 1, 0]]),
    "one-row-repeated": lambda: dataclasses.replace(
        synthesize_portfolio(100, 40, 1), x_out=np.repeat([[0.0, 1, 0, 1, 1, 0, 1]], 40, axis=0)
    ),
}


@pytest.mark.parametrize("where", PLAN_FRAMES)
@pytest.mark.parametrize("intercept_only", [False, True])
@pytest.mark.parametrize("family", PARAMETRIC_FAMILIES)
def test_the_parametric_plan_predicts_as_a_fresh_fit_bit_for_bit(family, intercept_only, where):
    frame, spec = PLAN_FRAMES[where](), ModelSpec(family, {"intercept_only": intercept_only})
    chars = [Characteristic("total"), Characteristic("median"), Characteristic("quantile", 0.9)]
    for y in (frame.y_sample, frame.y_sample[::-1] * 1.5):
        fresh = eval_characteristics(chars, np.concatenate([y, fit(spec, frame.x_sample, y).predict(frame.x_out)]))
        assert np.array_equal(plug_in_predict(PredictionStrategy("s", spec), frame, y, chars), fresh)


ORDERED_KINDS = [
    (lambda p: Measure("qape", p), "qape measure"),
    (lambda p: Characteristic("quantile", p), "quantile characteristic"),
    (lambda p: qape([1.0], p), "qape"),
]


@pytest.mark.parametrize("p", [None, 0.0, 1.0, -0.5, "0.5", True, float("nan"), [0.5]])
@pytest.mark.parametrize("build, what", ORDERED_KINDS)
def test_order_statistic_kinds_share_one_p_rule(build, what, p):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} needs a number p in (0, 1), got {p!r}')}$"):
        build(p)


@pytest.mark.parametrize(
    "build, message",
    [(lambda: Measure("rmse", 0.5), "rmse measure takes no order p"),
     (lambda: Characteristic("median", 0.5), "median characteristic takes no order p")],
)
def test_other_kinds_take_no_order_p(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
