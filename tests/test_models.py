import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from predvote.dataset import synthesize_portfolio
from predvote.errors import ConvergenceError, FitError
from predvote.models import (
    ALL_FAMILIES,
    GAMMA_GLM,
    KNN,
    LOGNORMAL,
    OLS_NORMAL,
    REGRESSION_TREE,
    FittedModel,
    ModelSpec,
    _GlmState,
    fit,
    neighbour_index,
)


def family_specs():
    return [
        ModelSpec(OLS_NORMAL),
        ModelSpec(LOGNORMAL),
        ModelSpec(GAMMA_GLM),
        ModelSpec(REGRESSION_TREE, {"max_depth": 4, "min_leaf": 2}),
        ModelSpec(KNN, {"k_neighbors": 3}),
    ]


def positive_data(n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0, size=(n, 2))
    y = np.exp(1.0 + 0.4 * x[:, 0] - 0.2 * x[:, 1] + 0.15 * rng.standard_normal(n))
    return x, y


class TestModelSpec:
    def test_parametric_split(self):
        assert ModelSpec(OLS_NORMAL).is_parametric
        assert ModelSpec(LOGNORMAL).is_parametric
        assert ModelSpec(GAMMA_GLM).is_parametric
        assert not ModelSpec(REGRESSION_TREE).is_parametric
        assert not ModelSpec(KNN).is_parametric

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown model family"):
            ModelSpec("svm")

    @pytest.mark.parametrize(
        "family,params",
        [
            (KNN, {"k_neighbors": 0}),
            (REGRESSION_TREE, {"max_depth": 0}),
            (REGRESSION_TREE, {"min_leaf": 0}),
            (GAMMA_GLM, {"tol": 0.0}),
            (GAMMA_GLM, {"max_iter": 0}),
            (OLS_NORMAL, {"bogus": 1}),
            # bool("false") is True, int(2.5) is 2 and int(True) is 1: no casts
            (OLS_NORMAL, {"intercept_only": "false"}),
            (OLS_NORMAL, {"intercept_only": 1}),
            (REGRESSION_TREE, {"max_depth": 2.5}),
            (KNN, {"k_neighbors": True}),
            (GAMMA_GLM, {"tol": float("nan")}),
            (GAMMA_GLM, {"tol": float("inf")}),
            (GAMMA_GLM, {"tol": "1e-8"}),
            (GAMMA_GLM, {"max_iter": 100.0}),
        ],
    )
    def test_bad_hyperparams(self, family, params):
        with pytest.raises(ValueError):
            ModelSpec(family, params)

    @pytest.mark.parametrize("params", [[["k_neighbors", 7]], "k_neighbors", None], ids=["pairs", "str", "null"])
    def test_hyperparams_must_be_a_mapping(self, params):
        # dict() would read a list of pairs, and the letters of a string as keys
        with pytest.raises(ValueError, match=re.escape(f"knn: hyperparams must be a mapping, got {params!r}")):
            ModelSpec(KNN, params)

    def test_numpy_numbers_stored_as_python_values(self):
        spec = ModelSpec(GAMMA_GLM, {"max_iter": np.int64(50), "tol": np.float32(0.5), "intercept_only": True})
        assert spec.hyperparams == {"max_iter": 50, "tol": 0.5, "intercept_only": True}
        assert [type(v) for v in spec.hyperparams.values()] == [bool, int, float]

    def test_defaults_merged(self):
        spec = ModelSpec(REGRESSION_TREE, {"max_depth": 3})
        assert spec.hyperparams["max_depth"] == 3
        assert spec.hyperparams["min_leaf"] == 5


class TestOls:
    def test_exact_linear_data(self):
        model = fit(ModelSpec(OLS_NORMAL), [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        assert model.linear_predictor([[0.0]])[0] == pytest.approx(0.0, abs=1e-10)
        assert model.predict([[4.0]])[0] == pytest.approx(8.0, abs=1e-10)
        assert model.error_summary["residual_variance"] == pytest.approx(0.0, abs=1e-18)
        assert np.allclose(model.sample_residuals, 0.0, atol=1e-10)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        model = fit(ModelSpec(OLS_NORMAL), x, y)
        r = model.sample_residuals
        design = np.column_stack([np.ones(50), x])
        for col in design.T:
            assert abs(col @ r) < 1e-8 * np.linalg.norm(col) * max(np.linalg.norm(r), 1e-30)

    def test_sigma2_uses_residual_dof(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        model = fit(ModelSpec(OLS_NORMAL), x, y)
        rss = float(model.sample_residuals @ model.sample_residuals)
        assert model.error_summary["residual_variance"] == pytest.approx(rss / (40 - 3))

    def test_intercept_only_is_mean(self):
        y = np.array([1.0, 4.0, 7.0, 8.0])
        model = fit(ModelSpec(OLS_NORMAL, {"intercept_only": True}), [[10.0], [20.0], [30.0], [40.0]], y)
        assert np.allclose(model.fitted_values, y.mean())
        assert abs(model.sample_residuals.sum()) < 1e-10

    def test_rank_deficiency(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        with pytest.raises(FitError, match="singular"):
            fit(ModelSpec(OLS_NORMAL), x, [1.0, 2.0, 3.0, 4.0])

    def test_too_few_rows(self):
        with pytest.raises(FitError, match="rows"):
            fit(ModelSpec(OLS_NORMAL), [[1.0], [2.0]], [1.0, 2.0])


class TestLognormal:
    def test_positive_response_required(self):
        with pytest.raises(FitError, match="positive"):
            fit(ModelSpec(LOGNORMAL), [[1.0], [2.0], [3.0]], [1.0, -1.0, 2.0])

    def test_mean_backtransform(self):
        # predictor must be exp(eta + sigma2/2), not exp(eta)
        x, y = positive_data()
        model = fit(ModelSpec(LOGNORMAL), x, y)
        eta = model.linear_predictor(x)
        s2 = model.error_summary["log_variance"]
        assert np.allclose(model.predict(x), np.exp(eta + s2 / 2))

    def test_log_scale_ols_against_direct_solve(self):
        x, y = positive_data(seed=3)
        model = fit(ModelSpec(LOGNORMAL), x, y)
        design = np.column_stack([np.ones(len(y)), x])
        beta, *_ = np.linalg.lstsq(design, np.log(y), rcond=None)
        assert np.allclose(model.linear_predictor(x), design @ beta)

    def test_repeated_row_predicts_identically(self):
        x, y = positive_data(seed=8)
        model = fit(ModelSpec(LOGNORMAL), x, y)
        again = model.predict(x[3:4])
        assert again[0] == model.fitted_values[3]


class TestGammaGlm:
    def test_positive_response_required(self):
        with pytest.raises(FitError, match="positive"):
            fit(ModelSpec(GAMMA_GLM), [[1.0], [2.0], [3.0]], [0.0, 1.0, 2.0])

    @staticmethod
    def gamma_data():
        rng = np.random.default_rng(42)
        n = 5000
        x = rng.uniform(0.0, 2.0, size=(n, 1))
        mu = np.exp(1.0 + 0.5 * x[:, 0])
        shape = 2.0  # dispersion 0.5
        return x, rng.gamma(shape, mu / shape)

    def test_recovers_true_coefficients(self):
        # independent oracles: large-sample truth and the statsmodels IRLS
        sm = pytest.importorskip("statsmodels.api")
        x, y = self.gamma_data()
        n = y.size
        model = fit(ModelSpec(GAMMA_GLM), x, y)
        coef = model._state.coef

        design = np.column_stack([np.ones(n), x])
        glm = sm.GLM(y, design, family=sm.families.Gamma(link=sm.families.links.Log())).fit()
        assert np.allclose(coef, glm.params, rtol=1e-6, atol=1e-8)
        assert model.error_summary["dispersion"] == pytest.approx(glm.scale, rel=1e-4)
        for est, truth, se in zip(coef, [1.0, 0.5], glm.bse):
            assert abs(est - truth) < 3 * se

    def test_matches_direct_deviance_minimisation(self):
        # oracle without IRLS: a generic minimiser of the Gamma log-link deviance
        optimize = pytest.importorskip("scipy.optimize")
        x, y = self.gamma_data()
        design = np.column_stack([np.ones(y.size), x])

        def deviance(beta):
            eta = design @ beta
            return 2.0 * np.sum(eta - np.log(y) + y * np.exp(-eta) - 1.0)

        def gradient(beta):
            return 2.0 * design.T @ (1.0 - y * np.exp(-(design @ beta)))

        def hessian(beta):
            return 2.0 * (design * (y * np.exp(-(design @ beta)))[:, None]).T @ design

        oracle = optimize.minimize(
            deviance, np.zeros(2), jac=gradient, hess=hessian, method="trust-exact", options={"gtol": 1e-8}
        )
        assert oracle.success
        assert np.allclose(fit(ModelSpec(GAMMA_GLM), x, y)._state.coef, oracle.x, rtol=1e-6, atol=0.0)

    def test_deviance_nonincreasing(self):
        x, y = positive_data(seed=11)
        model = fit(ModelSpec(GAMMA_GLM), x, y)
        path = np.array(model._state.deviance_path)
        assert np.all(np.diff(path) <= 1e-9 * (1.0 + np.abs(path[:-1])))

    def test_non_convergence_carries_iteration_count(self):
        x, y = positive_data(seed=13)
        with pytest.raises(ConvergenceError) as excinfo:
            fit(ModelSpec(GAMMA_GLM, {"max_iter": 1, "tol": 1e-300}), x, y)
        assert excinfo.value.iterations == 1


# The separate OLS and Gamma fits that preceded the shared least-squares core, kept as
# the oracle of the merged fit; only the Gamma check order differs (sign before row count).


def oracle_solve_ls(design, y):
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise FitError(f"singular design: rank {rank} < {design.shape[1]} columns")
    return coef


def oracle_check_parametric_size(n, p, family):
    if n < p + 1:
        raise FitError(f"{family}: need at least {p + 1} rows for {p} coefficients, got {n}")


def oracle_fit_ols(x, y, spec, log_scale):
    state = _GlmState(coef=np.empty(0), intercept_only=spec.hyperparams["intercept_only"], log_link=log_scale)
    design = state.design(x)
    oracle_check_parametric_size(x.shape[0], design.shape[1], spec.family)
    target = y
    if log_scale:
        if np.any(y <= 0):
            raise FitError("lognormal: response must be strictly positive")
        target = np.log(y)
    state.coef = oracle_solve_ls(design, target)
    rss = float(((target - design @ state.coef) ** 2).sum())
    sigma2 = rss / (x.shape[0] - design.shape[1])
    if log_scale:
        state.mean_shift = sigma2 / 2.0
        summary = {"log_variance": sigma2}
    else:
        summary = {"residual_variance": sigma2}
    return state, summary


def oracle_gamma_deviance(y, mu):
    return float(2.0 * np.sum(-np.log(y / mu) + (y - mu) / mu))


def oracle_fit_gamma(x, y, spec):
    if np.any(y <= 0):
        raise FitError("gamma_glm_log_link: response must be strictly positive")
    max_iter, tol = spec.hyperparams["max_iter"], spec.hyperparams["tol"]
    state = _GlmState(coef=np.empty(0), intercept_only=spec.hyperparams["intercept_only"], log_link=True)
    design = state.design(x)
    oracle_check_parametric_size(x.shape[0], design.shape[1], spec.family)
    coef = oracle_solve_ls(design, np.log(y))
    eta = design @ coef
    mu = np.exp(eta)
    deviance = oracle_gamma_deviance(y, mu)
    deviance_path = [deviance]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        z = eta + (y - mu) / mu
        coef = oracle_solve_ls(design, z)
        eta = design @ coef
        with np.errstate(over="ignore"):
            mu = np.exp(eta)
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
            raise ConvergenceError(
                f"gamma_glm_log_link: fitted means diverged at iteration {iterations}", iterations
            )
        new_deviance = oracle_gamma_deviance(y, mu)
        deviance_path.append(new_deviance)
        if abs(deviance - new_deviance) < tol:
            converged = True
            deviance = new_deviance
            break
        deviance = new_deviance
    if not converged:
        raise ConvergenceError(
            f"gamma_glm_log_link: IRLS did not converge in {max_iter} iterations", max_iter
        )
    state.coef = coef
    state.deviance_path = deviance_path
    pearson = float((((y - mu) / mu) ** 2).sum())
    dispersion = pearson / (x.shape[0] - design.shape[1])
    return state, {"dispersion": dispersion}


def oracle_fit_parametric(spec, x, y):
    if spec.family == GAMMA_GLM:
        state, summary = oracle_fit_gamma(x, y, spec)
    else:
        state, summary = oracle_fit_ols(x, y, spec, log_scale=spec.family == LOGNORMAL)
    return FittedModel(spec, summary, state, x, y)


def parametric_outcome(fitter, spec, x, y, query):
    """Everything a parametric fit exposes, or its error's (type, message, iterations)."""
    try:
        model = fitter(spec, x, y)
    except FitError as exc:
        return type(exc), str(exc), getattr(exc, "iterations", None)
    return {
        "coef": model._state.coef,
        "summary": (list(model.error_summary), list(model.error_summary.values())),
        "deviance_path": model._state.deviance_path,
        "predict": model.predict(query),
        "linear_predictor": model.linear_predictor(query),
    }


def same_outcome(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):  # an error
        return a == b
    if a["summary"][0] != b["summary"][0] or (a["deviance_path"] is None) != (b["deviance_path"] is None):
        return False
    return all(
        np.array_equal(a[key], b[key], equal_nan=True)
        for key in ("coef", "predict", "linear_predictor")
    ) and np.array_equal(a["summary"][1], b["summary"][1]) and (
        a["deviance_path"] is None or np.array_equal(a["deviance_path"], b["deviance_path"])
    )


def random_parametric_case(rng, family):
    """A random (spec, x, y, query): repeated rows, collinear columns, extreme and non-positive responses."""
    params = {"intercept_only": bool(rng.integers(2))}
    if family == GAMMA_GLM:
        params["tol"] = float(10.0 ** rng.uniform(-300, 1))
        if rng.integers(2):
            params["max_iter"] = int(rng.integers(1, 6))
    n, q = int(rng.integers(1, 40)), int(rng.integers(1, 5))
    x = rng.standard_normal((n, q))
    kind = rng.integers(4)
    if kind == 1:  # a few distinct rows, each repeated
        x = x[rng.integers(0, max(1, n // 4), size=n)]
    elif kind == 2 and q > 1:  # one column a multiple of another: a singular design
        x[:, -1] = 2.0 * x[:, 0]
    elif kind == 3:  # integer covariates
        x = np.round(x)
    eta = 0.5 + x @ rng.uniform(-1.0, 1.0, size=q)
    y = np.exp(eta * rng.choice([1.0, 4.0, 40.0]) + rng.uniform(0.01, 2.0) * rng.standard_normal(n))
    if family == OLS_NORMAL and rng.integers(2):
        y = eta + rng.standard_normal(n)
    if rng.integers(5) == 0:
        y[rng.integers(n)] = rng.choice([0.0, -1.5])
    query = np.vstack([x, rng.standard_normal((int(rng.integers(0, 10)), q))])
    return ModelSpec(family, params), x, y, query


def too_few_rows(spec, x):
    return x.shape[0] < 2 + (0 if spec.hyperparams["intercept_only"] else x.shape[1])


def outcome_kind(outcome):
    if not isinstance(outcome, tuple):
        return "fitted"
    message = outcome[1]
    kinds = ("need at least", "positive", "singular", "diverged", "did not converge")
    return next(kind for kind in kinds if kind in message)


class TestParametricFitMatchesOracle:
    """The shared least-squares fit equals the separate OLS and Gamma fits it replaced, bit for bit."""

    @pytest.mark.parametrize(
        "family, kinds",
        [
            (OLS_NORMAL, {"fitted", "need at least", "singular"}),
            (LOGNORMAL, {"fitted", "need at least", "singular", "positive"}),
            (GAMMA_GLM, {"fitted", "need at least", "singular", "positive", "did not converge", "diverged"}),
        ],
    )
    def test_random_designs(self, family, kinds):
        rng = np.random.default_rng({OLS_NORMAL: 61, LOGNORMAL: 62, GAMMA_GLM: 63}[family])
        seen, reordered = set(), 0
        for case in range(1000):
            spec, x, y, query = random_parametric_case(rng, family)
            with np.errstate(all="ignore"):
                got = parametric_outcome(fit, spec, x, y, query)
                expected = parametric_outcome(oracle_fit_parametric, spec, x, y, query)
                if family == GAMMA_GLM and too_few_rows(spec, x) and np.any(y <= 0):
                    # the one departure: the oracle reported the sign, the shared fit the row count,
                    # as the oracle does for the same design with a positive response
                    assert outcome_kind(expected) == "positive"
                    expected = parametric_outcome(oracle_fit_parametric, spec, x, np.abs(y) + 1.0, query)
                    reordered += 1
            assert same_outcome(got, expected), (case, spec, got, expected)
            seen.add(outcome_kind(got))
        assert seen == kinds
        assert (reordered > 0) == (family == GAMMA_GLM)

    @pytest.mark.parametrize("family", [OLS_NORMAL, LOGNORMAL, GAMMA_GLM])
    @pytest.mark.parametrize("intercept_only", [False, True])
    def test_row_count_is_checked_before_the_response_sign(self, family, intercept_only):
        # too few rows cannot be fitted for any y, so that is the reason a fit reports
        p = 1 if intercept_only else 3
        x = np.arange(2.0 * p).reshape(p, 2)
        y = np.linspace(-1.0, 1.0, p)
        message = f"{family}: need at least {p + 1} rows for {p} coefficients, got {p}"
        with pytest.raises(FitError, match=f"^{re.escape(message)}$"):
            fit(ModelSpec(family, {"intercept_only": intercept_only}), x, y)


@dataclass
class OracleNode:
    prediction: float
    feature: int | None = None
    threshold: float | None = None
    left: "OracleNode | None" = None
    right: "OracleNode | None" = None


def grow_tree_recursive(x, y, depth, max_depth, min_leaf) -> OracleNode:
    """The earlier recursive tree, kept as an oracle: a Python loop over split positions."""
    node = OracleNode(prediction=float(y.mean()))
    n = y.shape[0]
    if depth >= max_depth or n < 2 * min_leaf or np.ptp(y) == 0.0:
        return node
    best_sse, best = np.inf, None
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs, ys = x[order, j], y[order]
        cum = np.cumsum(ys)
        cum2 = np.cumsum(ys**2)
        total, total2 = cum[-1], cum2[-1]
        for i in range(min_leaf, n - min_leaf + 1):
            if xs[i - 1] == xs[i]:
                continue
            left_sse = cum2[i - 1] - cum[i - 1] ** 2 / i
            right_sse = (total2 - cum2[i - 1]) - (total - cum[i - 1]) ** 2 / (n - i)
            sse = left_sse + right_sse
            if sse < best_sse:  # strict improvement; first (j, i) wins ties
                mid = (xs[i - 1] + xs[i]) / 2.0
                if not (xs[i - 1] <= mid < xs[i]):
                    mid = xs[i - 1]
                best_sse, best = sse, (j, mid, x[:, j] <= mid)
    if best is None:
        return node
    node.feature, node.threshold, mask = best
    node.left = grow_tree_recursive(x[mask], y[mask], depth + 1, max_depth, min_leaf)
    node.right = grow_tree_recursive(x[~mask], y[~mask], depth + 1, max_depth, min_leaf)
    return node


def tree_predict_per_row(root: OracleNode, x: np.ndarray) -> np.ndarray:
    """The earlier per-row tree predict, kept as an oracle."""
    out = np.empty(x.shape[0])
    for i, row in enumerate(x):
        node = root
        while node.feature is not None:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.prediction
    return out


def oracle_splits(root: OracleNode) -> list[tuple[int, float]]:
    pairs, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.feature is not None:
            pairs.append((node.feature, node.threshold))
            stack.extend([node.left, node.right])
    return sorted(pairs)


def tree_splits(model) -> list[tuple[int, float]]:
    """(feature, threshold) of every inner node of a fitted tree."""
    state = model._state
    inner = state.feature >= 0
    return sorted(zip(state.feature[inner].tolist(), state.threshold[inner].tolist()))


def tree_leaf_rows(model, x) -> list[np.ndarray]:
    """Row indices of x reaching each leaf, following the flat node arrays."""
    state = model._state
    leaves, stack = [], [(0, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if state.feature[node] < 0:
            leaves.append(rows)
            continue
        go_left = x[rows, state.feature[node]] <= state.threshold[node]
        stack += [(state.left[node], rows[go_left]), (state.right[node], rows[~go_left])]
    return leaves


def tree_depth(model, node=0) -> int:
    state = model._state
    if state.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(model, state.left[node]), tree_depth(model, state.right[node]))


class TestRegressionTree:
    def test_pure_leaves_reproduce_training_values(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]])
        y = np.array([1.0, 1.0, 5.0, 5.0, 9.0, 9.0])
        model = fit(ModelSpec(REGRESSION_TREE, {"max_depth": 4, "min_leaf": 1}), x, y)
        assert np.array_equal(model.predict(x), y)

    def test_root_split_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(0.0, 1.0, size=(30, 2))
        y = rng.standard_normal(30)
        model = fit(ModelSpec(REGRESSION_TREE, {"max_depth": 1, "min_leaf": 1}), x, y)
        root_feature, root_threshold = model._state.feature[0], model._state.threshold[0]

        def sse(v):
            return float(((v - v.mean()) ** 2).sum()) if v.size else 0.0

        best = (np.inf, None, None)
        for j in range(2):
            for t in np.unique(x[:, j]):
                mask = x[:, j] <= t
                if mask.all() or not mask.any():
                    continue
                total = sse(y[mask]) + sse(y[~mask])
                if total < best[0]:
                    best = (total, j, t)
        mask = x[:, root_feature] <= root_threshold
        assert root_feature == best[1]
        assert sse(y[mask]) + sse(y[~mask]) == pytest.approx(best[0])

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 1))
        y = rng.standard_normal(200)
        model = fit(ModelSpec(REGRESSION_TREE, {"max_depth": 2, "min_leaf": 1}), x, y)
        assert tree_depth(model) <= 2

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((60, 1))
        y = rng.standard_normal(60)
        model = fit(ModelSpec(REGRESSION_TREE, {"max_depth": 10, "min_leaf": 8}), x, y)
        assert min(rows.size for rows in tree_leaf_rows(model, x)) >= 8

    def test_piecewise_constant_within_leaf(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(0.0, 1.0, size=(80, 2))
        y = np.sin(3 * x[:, 0]) + rng.standard_normal(80) * 0.1
        model = fit(ModelSpec(REGRESSION_TREE, {"max_depth": 3, "min_leaf": 5}), x, y)
        thresholds = tree_splits(model)
        point = x[17].copy()
        base = model.predict([point])[0]
        for j in range(2):
            cuts = sorted(t for feat, t in thresholds if feat == j)
            lo = max([t for t in cuts if t < point[j]], default=point[j] - 0.5)
            hi = min([t for t in cuts if t >= point[j]], default=point[j] + 0.5)
            for frac in (0.25, 0.75):
                moved = point.copy()
                moved[j] = lo + frac * (hi - lo) + 1e-12
                assert model.predict([moved])[0] == base


class TestTreeMatchesRecursiveOracle:
    """The flat-array tree equals the recursive per-position tree bit for bit."""

    @staticmethod
    def assert_matches_oracle(x, y, max_depth, min_leaf, query):
        model = fit(ModelSpec(REGRESSION_TREE, {"max_depth": max_depth, "min_leaf": min_leaf}), x, y)
        with np.errstate(all="ignore"):
            root = grow_tree_recursive(x, y, 0, max_depth, min_leaf)
        assert tree_splits(model) == oracle_splits(root)
        assert np.array_equal(model.fitted_values, tree_predict_per_row(root, x))
        assert np.array_equal(model.predict(query), tree_predict_per_row(root, query))
        return model

    @pytest.mark.parametrize("kind", ["continuous", "grid", "dummy"])
    def test_random_designs(self, kind):
        # max_depth 1..10 and min_leaf 1..8, some nodes with n < 2 * min_leaf;
        # the queries add NaN and signed-zero rows to fresh and training rows
        rng = np.random.default_rng({"continuous": 51, "grid": 52, "dummy": 53}[kind])
        for case in range(80):
            q = 1 + case % 7
            n = int(rng.integers(1, 90))
            patterns = rng.integers(0, 2, size=(int(rng.integers(1, 6)), q)).astype(float)
            x = knn_design(rng, kind, n, q, patterns)
            y = rng.standard_normal(n)
            if case % 5 == 0:
                y = np.round(3 * y)  # integer responses tie SSEs
            odd = np.zeros((4, q))
            odd[0, 0], odd[1, 0], odd[3, :] = np.nan, -0.0, np.nan
            odd[2, :] = -0.0
            query = np.vstack([knn_design(rng, kind, int(rng.integers(0, 30)), q, patterns), x, odd])
            self.assert_matches_oracle(x, y, 1 + case % 10, 1 + case % 8, query)

    def test_constant_response_is_one_leaf(self):
        rng = np.random.default_rng(54)
        x = rng.standard_normal((30, 3))
        model = self.assert_matches_oracle(x, np.full(30, 2.5), 5, 1, x)
        assert model._state.feature.tolist() == [-1]

    def test_sse_tie_across_features_goes_to_the_first(self):
        # columns 1 and 2 copy column 0, so every split ties in SSE on three features
        rng = np.random.default_rng(55)
        col = rng.standard_normal(25)
        x = np.column_stack([col, col, col])
        model = self.assert_matches_oracle(x, rng.standard_normal(25), 4, 2, x)
        assert set(model._state.feature.tolist()) == {-1, 0}

    def test_only_leaves_hold_values(self):
        rng = np.random.default_rng(57)
        x = rng.standard_normal((40, 3))
        state = self.assert_matches_oracle(x, rng.standard_normal(40), 4, 3, x)._state
        leaf = state.feature == -1
        assert not leaf.all()
        assert np.isnan(state.value[~leaf]).all() and np.isfinite(state.value[leaf]).all()

    @pytest.mark.parametrize("seed", [777, 836, 2333])
    def test_mirrored_features_tie_in_the_last_bit(self, seed):
        # a column, its negation and its reversal give the same partitions, whose
        # SSEs differ only in rounding; in these designs squaring the sums with
        # x * x instead of pow() picks another feature than the oracle does
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        col = rng.standard_normal(n)
        x = np.column_stack([col, -col, col[::-1]])
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3)
        self.assert_matches_oracle(x, y, 3, 1, x)

    @pytest.mark.parametrize("lower", [1.0, float(np.nextafter(1.0, 2.0))])
    def test_adjacent_floats_split_at_the_lower_value(self, lower):
        # the midpoint of two adjacent floats rounds onto one of them: onto the
        # lower for an even last bit, onto the upper (then replaced) for an odd one
        upper = np.nextafter(lower, 2.0)
        x = np.array([[lower]] * 4 + [[upper]] * 4)
        y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        model = self.assert_matches_oracle(x, y, 3, 1, np.array([[lower], [upper], [np.nan], [-0.0]]))
        assert tree_splits(model) == [(0, lower)]
        assert np.array_equal(model.predict(x), y)

    def test_overflowing_responses_warn_nothing(self):
        # squared sums of 1e200-scaled responses overflow; those SSE candidates are
        # discarded without a RuntimeWarning
        rng = np.random.default_rng(56)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        y[rng.choice(40, size=5, replace=False)] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = self.assert_matches_oracle(x, y, 6, 2, x)
        assert model._state.feature.tolist() == [-1]


class TestKnn:
    def test_full_neighborhood_is_constant_mean(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal(20)
        model = fit(ModelSpec(KNN, {"k_neighbors": 20}), x, y)
        preds = model.predict(rng.standard_normal((10, 2)))
        assert np.allclose(preds, y.mean())

    def test_predictions_within_training_range(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        model = fit(ModelSpec(KNN, {"k_neighbors": 4}), x, y)
        preds = model.predict(rng.standard_normal((40, 3)))
        assert np.all(preds >= y.min()) and np.all(preds <= y.max())

    def test_matches_sklearn_on_standardized_space(self):
        sklearn_neighbors = pytest.importorskip("sklearn.neighbors")
        rng = np.random.default_rng(31)
        x = rng.standard_normal((60, 2))
        y = rng.standard_normal(60)
        model = fit(ModelSpec(KNN, {"k_neighbors": 5}), x, y)
        xq = rng.standard_normal((25, 2))

        mean, sd = x.mean(axis=0), x.std(axis=0)
        ref = sklearn_neighbors.KNeighborsRegressor(n_neighbors=5)
        ref.fit((x - mean) / sd, y)
        assert np.allclose(model.predict(xq), ref.predict((xq - mean) / sd))

    def test_matches_bruteforce_distance_matrix(self):
        # integer-grid covariates put many rows at equal distance, so the
        # stable tie order (lowest training row first) is part of the check
        rng = np.random.default_rng(17)
        x = rng.integers(0, 4, size=(60, 2)).astype(float)
        y = rng.standard_normal(60)
        xq = rng.integers(0, 4, size=(25, 2)).astype(float)
        k = 5
        model = fit(ModelSpec(KNN, {"k_neighbors": k}), x, y)

        mean, sd = x.mean(axis=0), x.std(axis=0)
        xs, qs = (x - mean) / sd, (xq - mean) / sd
        distances = np.sqrt(((qs[:, None, :] - xs[None, :, :]) ** 2).sum(axis=2))
        nearest = np.argsort(distances, axis=1, kind="stable")[:, :k]
        assert np.array_equal(model.predict(xq), y[nearest].mean(axis=1))

    def test_k_exceeding_sample_rejected(self):
        with pytest.raises(FitError, match="k_neighbors"):
            fit(ModelSpec(KNN, {"k_neighbors": 5}), [[1.0], [2.0]], [1.0, 2.0])

    def test_huge_covariate_keeps_its_distance(self):
        # squares of 1e200 overflow, so a plain sd of this column is inf and would drop it from every distance
        x = np.arange(1.0, 7.0)[:, None] * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit(ModelSpec(KNN, {"k_neighbors": 1}), x, np.arange(6.0))
            assert model.predict([[6e200], [1e200]]).tolist() == [5.0, 0.0]
        assert np.all(np.isfinite(model._state.x_train)) and np.isfinite(model._state.x_scale[0])


def knn_predict_per_row(model: FittedModel, x: np.ndarray) -> np.ndarray:
    """The earlier kNN predict, kept as an oracle: one full neighbour search per query row."""
    state = model._state
    xs = (np.asarray(x, dtype=np.float64) - state.x_mean) / state.x_scale
    out = np.empty(xs.shape[0])
    for i, row in enumerate(xs):
        d = np.sqrt(((state.x_train - row) ** 2).sum(axis=1))
        nearest = np.argsort(d, kind="stable")[: state.k_neighbors]
        out[i] = state.y_train[nearest].mean()
    return out


def knn_design(rng, kind: str, rows: int, q: int, patterns: np.ndarray) -> np.ndarray:
    if kind == "continuous":
        return rng.standard_normal((rows, q))
    if kind == "grid":
        return rng.integers(0, 4, size=(rows, q)).astype(float)
    return patterns[rng.integers(0, patterns.shape[0], size=rows)]


def knn_predict_distinct_rows(model: FittedModel, x: np.ndarray) -> np.ndarray:
    """The earlier distinct-row kNN predict, kept as an oracle: it averages inside the search blocks."""
    state = model._state
    xs = (np.asarray(x, dtype=np.float64) - state.x_mean) / state.x_scale
    order = np.lexsort(xs.T)
    ordered = xs[order]
    starts = np.ones(ordered.shape[0], dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(ordered.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    distinct = ordered[starts]
    out = np.empty(distinct.shape[0])
    step = max(1, 16384 // state.x_train.size)
    for lo in range(0, distinct.shape[0], step):
        block = distinct[lo : lo + step, None, :]
        d = np.sqrt(((state.x_train - block) ** 2).sum(axis=2))
        nearest = np.argsort(d, axis=1, kind="stable")[:, : state.k_neighbors]
        out[lo : lo + step] = state.y_train[nearest].mean(axis=1)
    return out[inverse]


class TestKnnDistinctRows:
    """predict and fitted_values equal the per-row and the distinct-row searches bit for bit."""

    @staticmethod
    def assert_matches_oracle(model, x_train, x_query):
        for x in (x_train, x_query):
            predicted = model.predict(x)
            assert np.array_equal(predicted, knn_predict_per_row(model, x))
            assert np.array_equal(predicted, knn_predict_distinct_rows(model, x))
        assert np.array_equal(model.fitted_values, knn_predict_per_row(model, x_train))

    @pytest.mark.parametrize("kind", ["continuous", "grid", "dummy"])
    def test_random_designs(self, kind):
        # q runs over 1..13 (numpy's pairwise summation starts at 8 terms),
        # k over 1..n with k = n in every fourth design
        rng = np.random.default_rng({"continuous": 41, "grid": 42, "dummy": 43}[kind])
        for case in range(140):
            q = 1 + case % 13
            n = int(rng.integers(1, 40))
            k = n if case % 4 == 0 else int(rng.integers(1, n + 1))
            patterns = rng.integers(0, 2, size=(int(rng.integers(1, 6)), q)).astype(float)
            x = knn_design(rng, kind, n, q, patterns)
            query = np.vstack([knn_design(rng, kind, int(rng.integers(0, 30)), q, patterns), x[::3]])
            model = fit(ModelSpec(KNN, {"k_neighbors": k}), x, rng.standard_normal(n))
            self.assert_matches_oracle(model, x, query)

    def test_single_distinct_row(self):
        rng = np.random.default_rng(44)
        x = np.full((12, 3), 2.5)
        for k in (1, 5, 12):
            model = fit(ModelSpec(KNN, {"k_neighbors": k}), x, rng.standard_normal(12))
            self.assert_matches_oracle(model, x, np.vstack([x[:4], rng.standard_normal((6, 3))]))

    def test_rows_differing_in_the_sign_of_zero(self):
        # the column means are exactly 0, so standardised rows keep their signed zeros
        x = np.array([[-1.0, 0.0], [1.0, -0.0], [0.0, 1.0], [-0.0, -1.0], [0.0, 0.0], [-0.0, -0.0]])
        y = np.arange(6.0)
        assert np.array_equal(x.mean(axis=0), [0.0, 0.0])
        query = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 1.0], [-0.0, 1.0]])
        for k in range(1, 7):
            self.assert_matches_oracle(fit(ModelSpec(KNN, {"k_neighbors": k}), x, y), x, query)

    def test_query_spanning_several_distance_blocks(self):
        # 300 distinct continuous query rows; n * q sets how many rows share one
        # distance temporary, so the search runs over many blocks of rows
        rng = np.random.default_rng(45)
        for q in (1, 2, 5, 8, 13):
            n = int(rng.integers(60, 200))
            x = rng.standard_normal((n, q))
            model = fit(ModelSpec(KNN, {"k_neighbors": int(rng.integers(1, 12))}), x, rng.standard_normal(n))
            query = np.vstack([rng.standard_normal((300, q)), x[::7]])
            self.assert_matches_oracle(model, x, query)

    def test_query_rows_with_nan_inf_and_negative_zero(self):
        rng = np.random.default_rng(46)
        for q in (1, 3, 9):
            x = rng.integers(-2, 3, size=(30, q)).astype(float)
            model = fit(ModelSpec(KNN, {"k_neighbors": 4}), x, rng.standard_normal(30))
            query = np.vstack([x[:5], rng.standard_normal((5, q))])
            query[1, 0] = np.nan
            query[2, :] = np.nan
            query[3, 0] = np.inf
            query[4, -1] = -np.inf
            query[5, :] = -0.0
            query[6, 0] = -0.0
            self.assert_matches_oracle(model, x, np.vstack([query, query[::-1]]))

    def test_synthetic_portfolio(self):
        frame = synthesize_portfolio(500, 2000, 1)
        model = fit(ModelSpec(KNN, {"k_neighbors": 5}), frame.x_sample, frame.y_sample)
        self.assert_matches_oracle(model, frame.x_sample, frame.x_out)


class TestKnnNeighbours:
    def test_shape_dtype_and_lowest_row_ties(self):
        # rows 0, 2 and 4 sit at the query, rows 1 and 3 one unit away
        x = np.array([[0.0], [1.0], [0.0], [1.0], [0.0]])
        idx = neighbour_index(ModelSpec(KNN, {"k_neighbors": 4}), x, np.array([[0.0], [1.0], [0.0]]))
        assert idx.shape == (3, 4) and idx.dtype == np.intp
        assert idx.tolist() == [[0, 2, 4, 1], [1, 3, 0, 2], [0, 2, 4, 1]]

    @pytest.mark.parametrize("kind", ["continuous", "grid", "dummy"])
    def test_matches_bruteforce_stable_argsort(self, kind):
        rng = np.random.default_rng({"continuous": 47, "grid": 48, "dummy": 49}[kind])
        for case in range(40):
            q = 1 + case % 13
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, n + 1))
            patterns = rng.integers(0, 2, size=(int(rng.integers(1, 6)), q)).astype(float)
            x = knn_design(rng, kind, n, q, patterns)
            query = np.vstack([knn_design(rng, kind, int(rng.integers(0, 30)), q, patterns), x[::3]])
            spec = ModelSpec(KNN, {"k_neighbors": k})
            state = fit(spec, x, rng.standard_normal(n))._state
            qs = (query - state.x_mean) / state.x_scale
            d = np.sqrt(((qs[:, None, :] - state.x_train[None, :, :]) ** 2).sum(axis=2))
            expected = np.argsort(d, axis=1, kind="stable")[:, :k]
            assert np.array_equal(neighbour_index(spec, x, query), expected)

    def test_k_exceeding_sample_raises_fit_error(self):
        with pytest.raises(FitError, match="k_neighbors"):
            neighbour_index(ModelSpec(KNN, {"k_neighbors": 3}), np.zeros((2, 1)), np.zeros((4, 1)))

    def test_other_families_have_no_neighbour_index(self):
        x, _ = positive_data(seed=7)
        assert neighbour_index(ModelSpec(OLS_NORMAL), x, x) is None


class TestUniformContract:
    @pytest.mark.parametrize("spec", family_specs(), ids=lambda s: s.family)
    def test_training_predictions_are_cached_fitted_values(self, spec):
        x, y = positive_data(seed=1)
        model = fit(spec, x, y)
        assert np.array_equal(model.predict(x), model.fitted_values)

    @pytest.mark.parametrize("spec", family_specs(), ids=lambda s: s.family)
    def test_fitted_values_are_lazy_and_use_the_block_as_fitted(self, spec):
        # fit does not predict its own training rows; the first access does,
        # on a copy that later changes to the caller's arrays do not reach
        x, y = positive_data(seed=4)
        model = fit(spec, x, y)
        assert "fitted_values" not in vars(model) and "sample_residuals" not in vars(model)
        expected = model.predict(x.copy())
        x[:] = 1.0
        y[:] = 1.0
        assert np.array_equal(model.fitted_values, expected)
        assert np.array_equal(model.sample_residuals, positive_data(seed=4)[1] - expected)

    @pytest.mark.parametrize("spec", family_specs(), ids=lambda s: s.family)
    def test_residual_identity(self, spec):
        x, y = positive_data(seed=2)
        model = fit(spec, x, y)
        assert np.allclose(model.sample_residuals + model.predict(x), y, atol=1e-12)
        assert model.sample_residuals.shape == y.shape

    @pytest.mark.parametrize("spec", family_specs(), ids=lambda s: s.family)
    def test_predict_rejects_column_mismatch(self, spec):
        x, y = positive_data(seed=3)
        model = fit(spec, x, y)
        with pytest.raises(ValueError, match="columns"):
            model.predict(np.ones((4, 5)))

    def test_fit_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            fit(ModelSpec(OLS_NORMAL), [[1.0], [2.0]], [1.0, 2.0, 3.0])

    def test_error_summary_presence(self):
        x, y = positive_data(seed=6)
        for spec in family_specs():
            model = fit(spec, x, y)
            if spec.is_parametric:
                assert isinstance(model.error_summary, dict) and model.error_summary
            else:
                assert model.error_summary is None

    def test_families_list_complete(self):
        assert set(ALL_FAMILIES) == {OLS_NORMAL, LOGNORMAL, GAMMA_GLM, REGRESSION_TREE, KNN}

    def test_models_pickle(self):
        import pickle

        x, y = positive_data(seed=14)
        for spec in family_specs():
            model = fit(spec, x, y)
            clone = pickle.loads(pickle.dumps(model))
            assert isinstance(clone, FittedModel)
            assert np.array_equal(clone.predict(x[:5]), model.predict(x[:5]))
