import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import predvote

from predvote.errors import DataError, SimulationError
from predvote.generators import (
    GeneratedPopulation,
    Generator,
    KdeModel,
    _quartiles,
    fit_kde,
    gen_nonparametric,
    gen_parametric,
)
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
        pop = gen_parametric(model, np.array([[1.0], [2.0], [3.0], [4.0]]), np.random.default_rng(0))
        assert np.array_equal(pop.y_full, [5.0, 5.0, 5.0, 5.0])

    def test_near_exact_fit_generates_near_fitted_values(self):
        model = fit(ModelSpec("ols_normal"), [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        x_full = np.array([[1.0], [2.0], [3.0], [4.0]])
        pop = gen_parametric(model, x_full, np.random.default_rng(0))
        assert np.allclose(pop.y_full, model.predict(x_full), rtol=0, atol=1e-12)

    def test_ols_noise_variance_moment_check(self):
        model = ols_with_sigma2(4.0)
        rng = np.random.default_rng(1)
        draws = np.array(
            [gen_parametric(model, [[2.0]], rng).y_full[0] for _ in range(20000)]
        )
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
        draws = gen_parametric(model, np.zeros((20000, 1)), np.random.default_rng(3)).y_full
        assert abs(draws.mean() - mu) < 0.02 * mu
        assert abs(np.var(draws) - phi * mu**2) < 0.05 * phi * mu**2

    def test_lognormal_draws_match_log_scale_moments(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 1.0, size=(200, 1))
        y = np.exp(1.0 + 0.5 * x[:, 0] + 0.3 * rng.standard_normal(200))
        model = fit(ModelSpec("lognormal"), x, y)
        eta = model.linear_predictor([[0.5]])[0]
        s2 = model.error_summary["log_variance"]
        draws = gen_parametric(model, np.full((20000, 1), 0.5), np.random.default_rng(5)).y_full
        logs = np.log(draws)
        assert logs.mean() == pytest.approx(eta, abs=3 * np.sqrt(s2 / 20000))
        assert abs(np.var(logs) - s2) < 0.05 * s2

    def test_gamma_mean_underflowing_to_zero_is_simulation_error(self):
        # exp(eta) underflows to 0.0 far outside the sample range
        rng = np.random.default_rng(8)
        x = rng.uniform(0.0, 1.0, size=(50, 1))
        model = fit(ModelSpec("gamma_glm_log_link"), x, np.exp(1.0 + 0.5 * x[:, 0] + 0.1 * rng.standard_normal(50)))
        x_full = np.array([[0.5], [0.2], [-1e5]])
        with pytest.raises(SimulationError, match="non-positive fitted mean at row 2"):
            Generator.from_model(model, x_full)
        with pytest.raises(SimulationError, match="non-positive fitted mean at row 2"):
            gen_parametric(model, x_full, rng)

    def test_nonparametric_family_rejected(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 1))
        model = fit(ModelSpec("knn", {"k_neighbors": 3}), x, rng.standard_normal(20))
        with pytest.raises(ValueError, match="not a parametric"):
            gen_parametric(model, x, rng)

    def test_deterministic_given_stream(self):
        model = ols_with_sigma2(2.0)
        x_full = np.array([[1.0], [2.0], [3.0], [4.0]])
        a = gen_parametric(model, x_full, np.random.default_rng(77)).y_full
        b = gen_parametric(model, x_full, np.random.default_rng(77)).y_full
        assert np.array_equal(a, b)

    def test_mean_convergence_over_iterations(self):
        # average of many generated vectors approaches the fitted values
        model = ols_with_sigma2(1.5)
        x_full = np.array([[1.0], [2.5], [4.0]])
        rng = np.random.default_rng(6)
        total = np.zeros(3)
        b_count = 10000
        for _ in range(b_count):
            total += gen_parametric(model, x_full, rng).y_full
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


class TestNonparametricGeneration:
    def fit_tree(self, seed=0, n=40):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, size=(n, 1))
        y = 2.0 + x[:, 0] + 0.3 * rng.standard_normal(n)
        return fit(ModelSpec("regression_tree", {"max_depth": 3, "min_leaf": 4}), x, y), x

    def test_degenerate_bandwidth_limit_is_exact(self):
        model, x = self.fit_tree()
        kde = KdeModel(support_points=np.array([0.0]), bandwidth=1e-300)
        pop = gen_nonparametric(model, x, kde, np.random.default_rng(1))
        assert np.array_equal(pop.y_full, model.predict(x))

    def test_noise_sums_to_zero_each_iteration(self):
        model, x = self.fit_tree(seed=3)
        kde = fit_kde(model.sample_residuals)
        for b in range(25):
            pop = gen_nonparametric(model, x, kde, np.random.default_rng(b))
            noise = pop.y_full - model.predict(x)
            assert abs(noise.sum()) <= 1e-9 * x.shape[0]

    def test_noise_variance_identity(self):
        # mixture draw variance = population variance of support + bandwidth^2
        rng = np.random.default_rng(12)
        residuals = rng.standard_normal(300) * 2.0
        kde = fit_kde(residuals)
        model, _ = self.fit_tree(seed=5)
        x_big = np.full((20000, 1), 0.5)
        pop = gen_nonparametric(model, x_big, kde, np.random.default_rng(6))
        noise = pop.y_full - model.predict(x_big)
        target = kde.support_points.var() + kde.bandwidth**2
        assert abs(np.var(noise) - target) < 0.05 * target

    def test_parametric_family_rejected(self):
        model = fit(ModelSpec("ols_normal"), [[1.0], [2.0], [3.0]], [1.0, 2.0, 3.5])
        kde = fit_kde(np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="not a nonparametric"):
            gen_nonparametric(model, np.array([[1.0]]), kde, np.random.default_rng(0))

    def test_deterministic_given_stream(self):
        model, x = self.fit_tree(seed=9)
        kde = fit_kde(model.sample_residuals)
        a = gen_nonparametric(model, x, kde, np.random.default_rng(42)).y_full
        b = gen_nonparametric(model, x, kde, np.random.default_rng(42)).y_full
        assert np.array_equal(a, b)


class TestGeneratedPopulation:
    def test_non_finite_rejected(self):
        from predvote.errors import SimulationError

        with pytest.raises(SimulationError):
            GeneratedPopulation(y_full=np.array([1.0, np.inf]))


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
        with np.errstate(over="ignore"), pytest.raises(SimulationError, match="non-finite"):
            generator.draw(np.random.default_rng(0))  # exp(800) overflows to inf

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
