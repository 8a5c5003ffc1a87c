import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import predvote

from predvote.errors import DataError, SimulationError
from predvote.generators import Generator, KdeModel, _quartiles, fit_kde
from predvote.models import ModelSpec, fit


def ols_with_sigma2(sigma2: float):
    """Exact-arithmetic construction of an OLS fit with a chosen sigma^2.

    Residuals proportional to (1, -2, 1) are orthogonal to the intercept and
    to x = (1, 2, 3), so they survive the fit untouched and RSS/(n - 2)
    equals sigma2 by construction.
    """
    x = np.array([[1.0], [2.0], [3.0]])
    c = np.sqrt(sigma2 / 6.0)
    y = (1.0 + 2.0 * x[:, 0]) + c * np.array([1.0, -2.0, 1.0])
    model = fit(ModelSpec("ols_normal"), x, y)
    assert model.error_summary["residual_variance"] == pytest.approx(sigma2, rel=1e-12)
    return model


class TestParametricGeneration:
    def test_zero_variance_reproduces_fit_exactly(self):
        # constant response under the intercept-only fit leaves sigma^2 == 0.0
        model = fit(ModelSpec("ols_normal", {"intercept_only": True}), [[1.0], [2.0], [3.0]], [5.0, 5.0, 5.0])
        assert model.error_summary["residual_variance"] == 0.0
        y = Generator.from_model(model, np.array([[1.0], [2.0], [3.0], [4.0]])).draw(np.random.default_rng(0))
        assert np.array_equal(y, [5.0, 5.0, 5.0, 5.0])

    def test_near_exact_fit_generates_near_fitted_values(self):
        model = fit(ModelSpec("ols_normal"), [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        x_full = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = Generator.from_model(model, x_full).draw(np.random.default_rng(0))
        assert np.allclose(y, model.predict(x_full), rtol=0, atol=1e-12)

    def test_ols_noise_variance_moment_check(self):
        model = ols_with_sigma2(4.0)
        rng = np.random.default_rng(1)
        generator = Generator.from_model(model, [[2.0]])
        draws = np.array([generator.draw(rng)[0] for _ in range(20000)])
        assert abs(np.var(draws) - 4.0) < 0.05 * 4.0
        assert draws.mean() == pytest.approx(model.predict([[2.0]])[0], abs=3 * 2.0 / np.sqrt(20000))

    def test_gamma_moment_identities(self):
        # fitted intercept-only gamma approximates mean 10, dispersion 0.5;
        # draws must match the *fitted* mean and dispersion moments
        rng = np.random.default_rng(2)
        y = rng.gamma(2.0, 10.0 / 2.0, size=4000)
        model = fit(ModelSpec("gamma_glm_log_link", {"intercept_only": True}), np.zeros((4000, 1)), y)
        mu = model.predict([[0.0]])[0]
        phi = model.error_summary["dispersion"]
        draws = Generator.from_model(model, np.zeros((20000, 1))).draw(np.random.default_rng(3))
        assert abs(draws.mean() - mu) < 0.02 * mu
        assert abs(np.var(draws) - phi * mu**2) < 0.05 * phi * mu**2

    def test_lognormal_draws_match_log_scale_moments(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 1.0, size=(200, 1))
        y = np.exp(1.0 + 0.5 * x[:, 0] + 0.3 * rng.standard_normal(200))
        model = fit(ModelSpec("lognormal"), x, y)
        eta = model.linear_predictor([[0.5]])[0]
        s2 = model.error_summary["log_variance"]
        draws = Generator.from_model(model, np.full((20000, 1), 0.5)).draw(np.random.default_rng(5))
        logs = np.log(draws)
        assert logs.mean() == pytest.approx(eta, abs=3 * np.sqrt(s2 / 20000))
        assert abs(np.var(logs) - s2) < 0.05 * s2

    def test_gamma_mean_underflowing_to_zero_is_simulation_error(self):
        # exp(eta) underflows to 0.0 far outside the sample range
        rng = np.random.default_rng(8)
        x = rng.uniform(0.0, 1.0, size=(50, 1))
        model = fit(ModelSpec("gamma_glm_log_link"), x, np.exp(1.0 + 0.5 * x[:, 0] + 0.1 * rng.standard_normal(50)))
        x_full = np.array([[0.5], [0.2], [-1e5]])
        with pytest.raises(SimulationError, match=r"non-positive fitted mean at x_full\[2\]$"):
            Generator.from_model(model, x_full)
        # given the sample size, the row is named by its block and its 1-based position in it
        with pytest.raises(SimulationError, match="non-positive fitted mean on out-of-sample row 2$"):
            Generator.from_model(model, x_full, n_sample=1)
        with pytest.raises(SimulationError, match="non-positive fitted mean on sample row 3$"):
            Generator.from_model(model, x_full, n_sample=3)

    def test_nonparametric_family_rejected(self):
        from predvote.generators import gen_parametric  # the wrapper is this test's subject

        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 1))
        model = fit(ModelSpec("knn", {"k_neighbors": 3}), x, rng.standard_normal(20))
        with pytest.raises(ValueError, match="not a parametric"):
            gen_parametric(model, x, rng)

    def test_deterministic_given_stream(self):
        model = ols_with_sigma2(2.0)
        x_full = np.array([[1.0], [2.0], [3.0], [4.0]])
        a = Generator.from_model(model, x_full).draw(np.random.default_rng(77))
        b = Generator.from_model(model, x_full).draw(np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_mean_convergence_over_iterations(self):
        # average of many generated vectors approaches the fitted values
        model = ols_with_sigma2(1.5)
        x_full = np.array([[1.0], [2.5], [4.0]])
        rng = np.random.default_rng(6)
        generator = Generator.from_model(model, x_full)
        total = np.zeros(3)
        b_count = 10000
        for _ in range(b_count):
            total += generator.draw(rng)
        se = np.sqrt(1.5 / b_count)
        assert np.all(np.abs(total / b_count - model.predict(x_full)) < 4 * se)


class TestKde:
    def test_silverman_bandwidth_hand_computed(self):
        kde = fit_kde(np.array([-1.0, 1.0]))
        sd = np.sqrt(2.0)  # ddof=1 standard deviation of [-1, 1]
        iqr = 1.0  # linear-interpolation quartiles of [-1, 1] are -/+ 0.5
        expected = 0.9 * min(sd, iqr / 1.34) * 2 ** (-1 / 5)
        assert kde.bandwidth == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(np.sort(kde.support_points), [-1.0, 1.0])

    def test_centering(self):
        kde = fit_kde(np.array([4.0, 5.0, 6.0]))
        assert abs(kde.support_points.mean()) < 1e-10

    def test_constant_residuals_rejected(self):
        with pytest.raises(DataError, match="constant"):
            fit_kde(np.array([2.0, 2.0, 2.0]))

    def test_needs_two_points(self):
        with pytest.raises(DataError, match="at least 2"):
            fit_kde(np.array([1.0]))

    def test_zero_iqr_falls_back_to_sd(self):
        r = np.array([0.0] * 20 + [-3.0, 3.0])
        kde = fit_kde(r)
        sd = (r - r.mean()).std(ddof=1)
        assert kde.bandwidth == pytest.approx(0.9 * sd * r.size ** (-1 / 5))

    def test_explicit_bandwidth(self):
        kde = fit_kde(np.array([-1.0, 0.0, 1.0]), rule=0.25)
        assert kde.bandwidth == 0.25

    def test_uncentred_support_rejected(self):
        with pytest.raises(ValueError, match="centred"):
            KdeModel(support_points=np.array([1.0, 2.0]), bandwidth=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_residuals_refused(self, bad):
        # a NaN residual once gave an all-NaN support, refused only at the first draw
        with pytest.raises(DataError, match="^residuals contain non-finite values$"):
            fit_kde(np.array([bad, 1.0, 2.0]), 0.5)

    @pytest.mark.parametrize("support", [[np.inf, -np.inf], [np.nan, 0.0]])
    def test_non_finite_support_refused(self, support):
        # [inf, -inf] was once accepted, after numpy's invalid-value warning from its mean
        with pytest.raises(ValueError, match="^support_points must be finite$"):
            KdeModel(support_points=np.array(support), bandwidth=1.0)

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            KdeModel(support_points=np.array([-1.0, 1.0]), bandwidth=0.0)

    @pytest.mark.parametrize("bandwidth", [float("inf"), float("nan"), True, -0.5, None])
    def test_explicit_bandwidth_refused_as_run_config_refuses_it(self, bandwidth):
        # fit_kde once returned bandwidth inf for inf, and 1.0 for True
        with pytest.raises(ValueError, match="bandwidth must be a finite positive number"):
            fit_kde(np.array([-1.0, 0.0, 1.0]), bandwidth)

    def test_bandwidth_stored_as_float(self):
        kde = KdeModel(support_points=np.array([-1.0, 1.0]), bandwidth=np.float32(0.5))
        assert type(kde.bandwidth) is float and kde.bandwidth == 0.5

    @pytest.mark.parametrize("m", [520, 600, 900])
    def test_silverman_bandwidth_scales_with_the_residuals_at_any_magnitude(self, m):
        # beyond about 1e154 the squares in the sd overflow: the bandwidth once kept IQR / 1.34, 1.29 times too
        # wide here, after numpy's overflow warning; scaling by 2^m is exact, so the bandwidth scales exactly
        r = np.random.default_rng(1).uniform(-1.0, 1.0, 200)
        assert fit_kde(r * 2.0**m).bandwidth == fit_kde(r).bandwidth * 2.0**m

    def test_silverman_bandwidth_of_residuals_past_2_to_the_1023(self):
        # the sd's overflow fallback once divided by the power of two above the peak, 2^1024, and
        # math.ldexp raised a bare OverflowError; here IQR / 1.34 is the smaller spread
        r = np.array([1.5e308, -1.5e308, 1.0, 2.0, -3.0, 0.5])
        q75, q25 = np.percentile(r - r.mean(), [75, 25])
        assert fit_kde(r).bandwidth == 0.9 * ((q75 - q25) / 1.34) * r.size ** (-1.0 / 5.0)


class TestNonparametricGeneration:
    def fit_tree(self, seed=0, n=40):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, size=(n, 1))
        y = 2.0 + x[:, 0] + 0.3 * rng.standard_normal(n)
        return fit(ModelSpec("regression_tree", {"max_depth": 3, "min_leaf": 4}), x, y), x

    def test_degenerate_bandwidth_limit_is_exact(self):
        model, x = self.fit_tree()
        kde = KdeModel(support_points=np.array([0.0]), bandwidth=1e-300)
        y = Generator.from_model(model, x, kde).draw(np.random.default_rng(1))
        assert np.array_equal(y, model.predict(x))

    def test_noise_sums_to_zero_each_iteration(self):
        model, x = self.fit_tree(seed=3)
        generator = Generator.from_model(model, x, fit_kde(model.sample_residuals))
        for b in range(25):
            noise = generator.draw(np.random.default_rng(b)) - model.predict(x)
            assert abs(noise.sum()) <= 1e-9 * x.shape[0]

    def test_noise_variance_identity(self):
        # mixture draw variance = population variance of support + bandwidth^2
        rng = np.random.default_rng(12)
        residuals = rng.standard_normal(300) * 2.0
        kde = fit_kde(residuals)
        model, _ = self.fit_tree(seed=5)
        x_big = np.full((20000, 1), 0.5)
        noise = Generator.from_model(model, x_big, kde).draw(np.random.default_rng(6)) - model.predict(x_big)
        target = kde.support_points.var() + kde.bandwidth**2
        assert abs(np.var(noise) - target) < 0.05 * target

    def test_parametric_family_rejected(self):
        from predvote.generators import gen_nonparametric  # the wrapper is this test's subject

        model = fit(ModelSpec("ols_normal"), [[1.0], [2.0], [3.0]], [1.0, 2.0, 3.5])
        kde = fit_kde(np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="not a nonparametric"):
            gen_nonparametric(model, np.array([[1.0]]), kde, np.random.default_rng(0))

    def test_deterministic_given_stream(self):
        model, x = self.fit_tree(seed=9)
        kde = fit_kde(model.sample_residuals)
        a = Generator.from_model(model, x, kde).draw(np.random.default_rng(42))
        b = Generator.from_model(model, x, kde).draw(np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestGeneratedPopulation:
    def test_non_finite_rejected(self):
        from predvote.generators import GeneratedPopulation  # the wrapper is this test's subject

        with pytest.raises(SimulationError):
            GeneratedPopulation(y_full=np.array([1.0, np.inf]))


def test_package_api_leaves_out_the_replica_only_wrappers():
    # the wrappers stay in predvote.generators and predvote.prediction for the benchmark's replica loop
    wrappers = {"gen_parametric", "gen_nonparametric", "GeneratedPopulation", "eval_characteristic"}
    assert not wrappers & (set(predvote.__all__) | set(dir(predvote)))
    assert all(hasattr(predvote, name) for name in predvote.__all__)


GENERATOR_CASES = ("ols_normal", "lognormal", "gamma_glm_log_link", "regression_tree", "knn", "gamma_zero_dispersion")


def fitted_generators():
    """({case: (model, kde)}, x_full) over GENERATOR_CASES; kde is None for a parametric model."""
    rng = np.random.default_rng(21)
    x = rng.uniform(0.0, 2.0, size=(60, 2))
    y = np.exp(1.0 + 0.5 * x[:, 0] - 0.3 * x[:, 1] + 0.2 * rng.standard_normal(60))
    cases = {}
    for family in GENERATOR_CASES[:5]:
        model = fit(ModelSpec(family), x, y)
        cases[family] = (model, None if model.spec.is_parametric else fit_kde(model.sample_residuals))
    # a constant response of 1.0 leaves the intercept-only Gamma fit with dispersion exactly 0
    flat = fit(ModelSpec("gamma_glm_log_link", {"intercept_only": True}), x, np.ones(60))
    assert flat.error_summary["dispersion"] == 0.0
    cases["gamma_zero_dispersion"] = (flat, None)
    return cases, rng.uniform(0.0, 2.0, size=(90, 2))


class TestGenerator:
    @pytest.mark.parametrize("case", GENERATOR_CASES)
    def test_draw_equals_gen_wrappers_bit_for_bit(self, case):
        from predvote.generators import gen_nonparametric, gen_parametric  # the wrappers are this test's subject

        cases, x_full = fitted_generators()
        model, kde = cases[case]
        generator = Generator.from_model(model, x_full, kde)
        for seed in range(200):
            if kde is None:
                expected = gen_parametric(model, x_full, np.random.default_rng(seed)).y_full
            else:
                expected = gen_nonparametric(model, x_full, kde, np.random.default_rng(seed)).y_full
            assert np.array_equal(generator.draw(np.random.default_rng(seed)), expected)

    def test_zero_dispersion_draw_is_a_copy_of_the_mean(self):
        cases, x_full = fitted_generators()
        model, _ = cases["gamma_zero_dispersion"]
        generator = Generator.from_model(model, x_full)
        y = generator.draw(np.random.default_rng(0))
        assert np.array_equal(y, model.predict(x_full))
        y[0] = -1.0
        assert generator.location[0] != -1.0

    def test_non_finite_draw_is_simulation_error(self):
        generator = Generator("lognormal", np.array([0.0, 800.0]), 0.1)
        with pytest.raises(SimulationError, match="non-finite"):
            generator.draw(np.random.default_rng(0))  # exp(800) overflows to inf, without a numpy warning

    def test_kde_goes_with_nonparametric_models_only(self):
        cases, x_full = fitted_generators()
        tree, tree_kde = cases["regression_tree"]
        with pytest.raises(ValueError, match="not a parametric"):
            Generator.from_model(tree, x_full)
        with pytest.raises(ValueError, match="not a nonparametric"):
            Generator.from_model(cases["ols_normal"][0], x_full, tree_kde)


class TestQuartiles:
    def test_equal_to_numpy_percentile(self):
        rng = np.random.default_rng(31)
        for i in range(1200):
            n = int(rng.integers(2, 601))
            values = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4)
            if i % 4 == 1:
                values = np.round(values, 1)  # rounded values, many ties
            elif i % 4 == 2:
                values[: n // 2] = values[0]  # a constant half
            elif i % 4 == 3:
                values = rng.integers(0, 4, n).astype(np.float64)
            centred = values - values.mean()
            assert np.array_equal(_quartiles(centred), np.percentile(centred, [75.0, 25.0])), (i, n)

    def test_tree_generator_fit_and_kde_leave_numpy_ma_unloaded(self):
        # np.percentile would import numpy.ma on its first call
        src = str(Path(predvote.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = (
            "import sys, numpy as np\n"
            "from predvote.generators import fit_kde\n"
            "from predvote.models import ModelSpec, fit\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.integers(0, 3, size=(80, 2)).astype(float)\n"
            "model = fit(ModelSpec('regression_tree'), x, x[:, 0] + rng.standard_normal(80))\n"
            "fit_kde(model.sample_residuals)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_cli_run_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.median would import numpy.ma on its first call; the medians come from np.sort
        src = str(Path(predvote.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        factors = ("gender", "district", "payment", "engine", "age_group")
        config = {
            "schema": {
                "response": "claim_amount",
                "sample_flag": "insample",
                "covariates": [{"name": name, "kind": "categorical"} for name in factors],
            },
            "generators": [{"family": "ols_normal"}, {"family": "regression_tree"}],
            "strategies": [
                {"name": "ols", "family": "ols_normal"},
                {"name": "knn", "family": "knn", "hyperparams": {"k_neighbors": 5}},
                {"name": "tree", "family": "regression_tree", "hyperparams": {"max_depth": 3}},
            ],
            "characteristics": [{"kind": "total"}, {"kind": "median"}, {"kind": "quantile", "p": 0.95}],
            "measures": [{"kind": "rmse"}, {"kind": "qape", "p": 0.95}],
            "iterations": 4,
            "master_seed": 1,
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code = (
            "import sys\n"
            "from predvote.cli import main\n"
            "from predvote.dataset import write_portfolio_csv\n"
            "write_portfolio_csv('data.csv', 80, 30, 1)\n"
            "code = main(['run', '--config', 'config.json', '--data', 'data.csv', '--out', 'out', '--workers', '1'])\n"
            "code += main(['plot-ecdf', 'out/w3.csv', '--out', 'out/ecdf.svg'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "0 False"
