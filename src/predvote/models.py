"""Predictive model zoo with a uniform fit/predict/residual contract.

Families cover two parametric regressions on the response scale
(gaussian OLS, log-normal via OLS on the log scale) plus a Gamma GLM with
log link, and two nonparametric learners (a variance-reduction regression
tree and k-nearest neighbours). Every fit is deterministic: no random
numbers are consumed, so refitting on identical data reproduces the model
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, FitError

OLS_NORMAL = "ols_normal"
LOGNORMAL = "lognormal"
GAMMA_GLM = "gamma_glm_log_link"
REGRESSION_TREE = "regression_tree"
KNN = "knn"

PARAMETRIC_FAMILIES = (OLS_NORMAL, LOGNORMAL, GAMMA_GLM)
NONPARAMETRIC_FAMILIES = (REGRESSION_TREE, KNN)
ALL_FAMILIES = PARAMETRIC_FAMILIES + NONPARAMETRIC_FAMILIES

_DEFAULTS: dict[str, dict] = {
    OLS_NORMAL: {"intercept_only": False},
    LOGNORMAL: {"intercept_only": False},
    GAMMA_GLM: {"intercept_only": False, "max_iter": 100, "tol": 1e-8},
    REGRESSION_TREE: {"max_depth": 8, "min_leaf": 5},
    KNN: {"k_neighbors": 5},
}


@dataclass(frozen=True)
class ModelSpec:
    """A model family plus validated hyperparameters.

    Unset hyperparameters take family defaults; unknown keys are rejected.
    intercept_only drops all covariates from a parametric design, giving the
    null (location-only) member of that family.
    """

    family: str
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in ALL_FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}; choose one of {ALL_FAMILIES}")
        defaults = _DEFAULTS[self.family]
        unknown = set(self.hyperparams) - set(defaults)
        if unknown:
            raise ValueError(f"{self.family}: unknown hyperparameter(s) {sorted(unknown)}")
        merged = {**defaults, **self.hyperparams}
        if self.family == REGRESSION_TREE:
            if int(merged["max_depth"]) < 1:
                raise ValueError("regression_tree: max_depth must be >= 1")
            if int(merged["min_leaf"]) < 1:
                raise ValueError("regression_tree: min_leaf must be >= 1")
        if self.family == KNN and int(merged["k_neighbors"]) < 1:
            raise ValueError("knn: k_neighbors must be >= 1")
        if self.family == GAMMA_GLM:
            if int(merged["max_iter"]) < 1:
                raise ValueError("gamma_glm_log_link: max_iter must be >= 1")
            if float(merged["tol"]) <= 0:
                raise ValueError("gamma_glm_log_link: tol must be > 0")
        object.__setattr__(self, "hyperparams", merged)

    @property
    def is_parametric(self) -> bool:
        return self.family in PARAMETRIC_FAMILIES


# --- fitted-state carriers (plain dataclasses so models pickle cleanly) ---


@dataclass
class _GlmState:
    coef: np.ndarray          # includes the leading intercept coefficient
    intercept_only: bool
    log_link: bool            # predictions are exp(eta + mean_shift)
    mean_shift: float = 0.0
    deviance_path: list | None = None  # IRLS trajectory, gamma fits only

    def design(self, x: np.ndarray) -> np.ndarray:
        if self.intercept_only:
            return np.ones((x.shape[0], 1))
        return np.column_stack([np.ones(x.shape[0]), x])

    def linear(self, x: np.ndarray) -> np.ndarray:
        return self.design(x) @ self.coef

    def predict(self, x: np.ndarray) -> np.ndarray:
        eta = self.linear(x)
        return np.exp(eta + self.mean_shift) if self.log_link else eta


@dataclass
class _TreeNode:
    prediction: float
    feature: int | None = None
    threshold: float | None = None
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class _TreeState:
    root: _TreeNode

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[0])
        for i, row in enumerate(x):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out

    def thresholds(self) -> list[tuple[int, float]]:
        """All (feature, threshold) pairs in the tree, for diagnostics."""
        pairs, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                pairs.append((node.feature, node.threshold))
                stack.extend([node.left, node.right])
        return pairs


@dataclass
class _KnnState:
    x_mean: np.ndarray
    x_scale: np.ndarray
    x_train: np.ndarray      # standardized training covariates
    y_train: np.ndarray
    k_neighbors: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        # identical rows have identical distances, neighbour lists and means,
        # so the search runs once per distinct standardised row
        xs = (x - self.x_mean) / self.x_scale
        distinct, inverse = np.unique(xs, axis=0, return_inverse=True)
        out = np.empty(distinct.shape[0])
        for i, row in enumerate(distinct):
            d = np.sqrt(((self.x_train - row) ** 2).sum(axis=1))
            nearest = np.argsort(d, kind="stable")[: self.k_neighbors]
            out[i] = self.y_train[nearest].mean()
        return out[inverse.ravel()]


@dataclass
class FittedModel:
    """A trained model: point predictor, error summary and sample residuals.

    error_summary holds the parametric error description (residual_variance
    for OLS, log_variance for the log-normal fit, dispersion for the Gamma
    GLM) and is None for nonparametric families. sample_residuals is
    y - fitted on the training block, on the response scale.
    """

    spec: ModelSpec
    fitted_values: np.ndarray
    sample_residuals: np.ndarray
    error_summary: dict[str, float] | None
    n_features: int
    _state: object

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n_features:
            raise ValueError(f"design has {x.shape[1]} columns, model was trained on {self.n_features}")
        return self._state.predict(x)

    def linear_predictor(self, x: np.ndarray) -> np.ndarray:
        """Linear predictor eta of a parametric fit (used for generation)."""
        if not isinstance(self._state, _GlmState):
            raise ValueError(f"{self.spec.family} has no linear predictor")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n_features:
            raise ValueError(f"design has {x.shape[1]} columns, model was trained on {self.n_features}")
        return self._state.linear(x)


def _solve_ls(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise FitError(f"singular design: rank {rank} < {design.shape[1]} columns")
    return coef


def _check_parametric_size(n: int, p: int, family: str) -> None:
    # one residual degree of freedom is required for the error-scale estimate
    if n < p + 1:
        raise FitError(f"{family}: need at least {p + 1} rows for {p} coefficients, got {n}")


def _fit_ols(x: np.ndarray, y: np.ndarray, spec: ModelSpec, log_scale: bool) -> FittedModel:
    intercept_only = bool(spec.hyperparams["intercept_only"])
    state = _GlmState(coef=np.empty(0), intercept_only=intercept_only, log_link=log_scale)
    design = state.design(x)
    _check_parametric_size(x.shape[0], design.shape[1], spec.family)
    target = y
    if log_scale:
        if np.any(y <= 0):
            raise FitError("lognormal: response must be strictly positive")
        target = np.log(y)
    state.coef = _solve_ls(design, target)
    rss = float(((target - design @ state.coef) ** 2).sum())
    sigma2 = rss / (x.shape[0] - design.shape[1])
    if log_scale:
        # conditional-mean back-transform: E[Y|x] = exp(eta + sigma^2 / 2)
        state.mean_shift = sigma2 / 2.0
        summary = {"log_variance": sigma2}
    else:
        summary = {"residual_variance": sigma2}
    fitted = state.predict(x)
    return FittedModel(
        spec=spec,
        fitted_values=fitted,
        sample_residuals=y - fitted,
        error_summary=summary,
        n_features=x.shape[1],
        _state=state,
    )


def _gamma_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    return float(2.0 * np.sum(-np.log(y / mu) + (y - mu) / mu))


def _fit_gamma(x: np.ndarray, y: np.ndarray, spec: ModelSpec) -> FittedModel:
    if np.any(y <= 0):
        raise FitError("gamma_glm_log_link: response must be strictly positive")
    intercept_only = bool(spec.hyperparams["intercept_only"])
    max_iter = int(spec.hyperparams["max_iter"])
    tol = float(spec.hyperparams["tol"])
    state = _GlmState(coef=np.empty(0), intercept_only=intercept_only, log_link=True)
    design = state.design(x)
    _check_parametric_size(x.shape[0], design.shape[1], spec.family)

    # IRLS for the log link; the Gamma variance function makes the working
    # weights constant, so each step is an OLS solve on the working response.
    coef = _solve_ls(design, np.log(y))
    eta = design @ coef
    mu = np.exp(eta)
    deviance = _gamma_deviance(y, mu)
    deviance_path = [deviance]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        z = eta + (y - mu) / mu
        coef = _solve_ls(design, z)
        eta = design @ coef
        with np.errstate(over="ignore"):
            mu = np.exp(eta)
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
            raise ConvergenceError(
                f"gamma_glm_log_link: fitted means diverged at iteration {iterations}", iterations
            )
        new_deviance = _gamma_deviance(y, mu)
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
    fitted = state.predict(x)
    return FittedModel(
        spec=spec,
        fitted_values=fitted,
        sample_residuals=y - fitted,
        error_summary={"dispersion": dispersion},
        n_features=x.shape[1],
        _state=state,
    )


def _grow_tree(x: np.ndarray, y: np.ndarray, depth: int, max_depth: int, min_leaf: int) -> _TreeNode:
    node = _TreeNode(prediction=float(y.mean()))
    n = y.shape[0]
    if depth >= max_depth or n < 2 * min_leaf or np.ptp(y) == 0.0:
        return node

    best_sse = np.inf
    best: tuple[int, float, np.ndarray] | None = None
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs, ys = x[order, j], y[order]
        # candidate split after position i iff the sorted covariate changes there
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
                if not (xs[i - 1] <= mid < xs[i]):  # midpoint rounded onto a neighbour
                    mid = xs[i - 1]
                best_sse = sse
                best = (j, mid, x[:, j] <= mid)
    if best is None:
        return node

    node.feature, node.threshold, mask = best
    node.left = _grow_tree(x[mask], y[mask], depth + 1, max_depth, min_leaf)
    node.right = _grow_tree(x[~mask], y[~mask], depth + 1, max_depth, min_leaf)
    return node


def _fit_tree(x: np.ndarray, y: np.ndarray, spec: ModelSpec) -> FittedModel:
    root = _grow_tree(x, y, 0, int(spec.hyperparams["max_depth"]), int(spec.hyperparams["min_leaf"]))
    state = _TreeState(root=root)
    fitted = state.predict(x)
    return FittedModel(
        spec=spec,
        fitted_values=fitted,
        sample_residuals=y - fitted,
        error_summary=None,
        n_features=x.shape[1],
        _state=state,
    )


def _fit_knn(x: np.ndarray, y: np.ndarray, spec: ModelSpec) -> FittedModel:
    k = int(spec.hyperparams["k_neighbors"])
    if k > x.shape[0]:
        raise FitError(f"knn: k_neighbors={k} exceeds the {x.shape[0]} training rows")
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0  # constant columns carry no distance information
    state = _KnnState(
        x_mean=mean,
        x_scale=scale,
        x_train=(x - mean) / scale,
        y_train=y.copy(),
        k_neighbors=k,
    )
    fitted = state.predict(x)
    return FittedModel(
        spec=spec,
        fitted_values=fitted,
        sample_residuals=y - fitted,
        error_summary=None,
        n_features=x.shape[1],
        _state=state,
    )


def fit(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> FittedModel:
    """Fit a model family to a design matrix and response vector.

    Raises FitError for domain violations (non-positive responses under the
    positive families, singular designs) and ConvergenceError when the Gamma
    IRLS loop exhausts max_iter.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]} entries")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty sample")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise FitError("training data contains non-finite values")

    if spec.family == OLS_NORMAL:
        return _fit_ols(x, y, spec, log_scale=False)
    if spec.family == LOGNORMAL:
        return _fit_ols(x, y, spec, log_scale=True)
    if spec.family == GAMMA_GLM:
        return _fit_gamma(x, y, spec)
    if spec.family == REGRESSION_TREE:
        return _fit_tree(x, y, spec)
    return _fit_knn(x, y, spec)
