"""Predictive model zoo with a uniform fit/predict/residual contract.

Families cover two parametric regressions on the response scale
(gaussian OLS, log-normal via OLS on the log scale) plus a Gamma GLM with
log link, and two nonparametric learners (a variance-reduction regression
tree and k-nearest neighbours). Every fit is deterministic: no random
numbers are consumed, so refitting on identical data reproduces the model
bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

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


def is_integer(value) -> bool:
    """A Python or numpy integer; bool is excluded, true/false is not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A Python or numpy real number; bool is excluded, true/false is not a quantity."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def order_p(what: str, p, ordered: bool) -> float | None:
    """The order p of what: an ordered kind needs a real number in (0, 1), stored as a float; others take none."""
    if ordered and not (is_real(p) and 0.0 < p < 1.0):
        raise ValueError(f"{what} needs a number p in (0, 1), got {p!r}")
    if not ordered and p is not None:
        raise ValueError(f"{what} takes no order p")
    return float(p) if ordered else None


@dataclass(frozen=True)
class ModelSpec:
    """A model family plus validated hyperparameters.

    Unset hyperparameters take family defaults; unknown keys are rejected.
    The type of each default sets the rule for its key: a bool default takes
    a bool, an int default an integer >= 1 and a float default a finite
    number > 0. Values are stored as Python bool, int and float.
    intercept_only drops all covariates from a parametric design, giving the
    null (location-only) member of that family.
    """

    family: str
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in ALL_FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}; choose one of {ALL_FAMILIES}")
        if not isinstance(self.hyperparams, dict):
            raise ValueError(f"{self.family}: hyperparams must be a mapping, got {self.hyperparams!r}")
        defaults = _DEFAULTS[self.family]
        unknown = set(self.hyperparams) - set(defaults)
        if unknown:
            raise ValueError(f"{self.family}: unknown hyperparameter(s) {sorted(unknown)}")
        merged = {**defaults, **self.hyperparams}
        for key, default in defaults.items():
            value = merged[key]
            if isinstance(default, bool):
                valid, rule = isinstance(value, bool), "a boolean"
            elif isinstance(default, int):
                valid, rule = is_integer(value) and value >= 1, "an integer >= 1"
            else:
                valid, rule = is_real(value) and math.isfinite(value) and value > 0, "a finite number > 0"
            if not valid:
                raise ValueError(f"{self.family}: {key} must be {rule}, got {value!r}")
            merged[key] = type(default)(value)
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
class _TreeState:
    """A regression tree as flat node arrays; node 0 is the root.

    An inner node sends a row to left[i] when x[feature[i]] <= threshold[i]
    and to right[i] otherwise (NaN goes right). A leaf has feature -1 and
    predicts value[i]; an inner node's value is NaN.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        # all rows descend one level per pass; rows that reach a leaf drop out
        node = np.zeros(x.shape[0], dtype=np.intp)
        rows = np.arange(x.shape[0])
        while rows.size:
            at = node[rows]
            inner = self.feature[at] >= 0
            rows, at = rows[inner], at[inner]
            go_left = x[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        return self.value[node]


@dataclass
class _KnnState:
    x_mean: np.ndarray
    x_scale: np.ndarray
    x_train: np.ndarray      # standardized training covariates
    y_train: np.ndarray | None  # None for an index-only fit
    k_neighbors: int

    def neighbours(self, x: np.ndarray) -> np.ndarray:
        """(rows x k_neighbors) training-row indices, nearest first; distance ties go to the lowest row."""
        # identical rows have identical distances and neighbour lists, so the
        # search runs once per distinct standardised row
        xs = (x - self.x_mean) / self.x_scale
        order = np.lexsort(xs.T)
        ordered = xs[order]
        starts = np.ones(ordered.shape[0], dtype=bool)
        starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        inverse = np.empty(ordered.shape[0], dtype=np.intp)
        inverse[order] = np.cumsum(starts) - 1
        distinct = ordered[starts]
        k = self.k_neighbors
        nearest = np.empty((distinct.shape[0], k), dtype=np.intp)
        for i, row in enumerate(distinct):
            # the rows within the k-th smallest distance, in row order, hold the k nearest;
            # a NaN k-th distance keeps every row, so NaN still sorts last
            d = np.sqrt(((self.x_train - row) ** 2).sum(axis=1))
            near = np.flatnonzero(~(d > np.partition(d, k - 1)[k - 1]))
            nearest[i] = near[np.argsort(d[near], kind="stable")[:k]]
        return nearest[inverse]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.y_train[self.neighbours(x)].mean(axis=1)


@dataclass
class FittedModel:
    """A trained model: point predictor, error summary and sample residuals.

    error_summary holds the parametric error description (residual_variance
    for OLS, log_variance for the log-normal fit, dispersion for the Gamma
    GLM) and is None for nonparametric families. fitted_values and
    sample_residuals (y - fitted, on the response scale) are computed from
    the stored training block on first access.
    """

    spec: ModelSpec
    error_summary: dict[str, float] | None
    _state: object
    _x_train: np.ndarray
    _y_train: np.ndarray

    @cached_property
    def fitted_values(self) -> np.ndarray:
        return self._state.predict(self._x_train)

    @cached_property
    def sample_residuals(self) -> np.ndarray:
        return self._y_train - self.fitted_values

    def _design(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self._x_train.shape[1]:
            raise ValueError(f"design has {x.shape[1]} columns, model was trained on {self._x_train.shape[1]}")
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._state.predict(self._design(x))

    def linear_predictor(self, x: np.ndarray) -> np.ndarray:
        """Linear predictor eta of a parametric fit (used for generation)."""
        if not isinstance(self._state, _GlmState):
            raise ValueError(f"{self.spec.family} has no linear predictor")
        return self._state.linear(self._design(x))


def pow2_scale(v: np.ndarray, axis: int | None = None) -> np.ndarray:
    """The power of two at or below the peak |v| along axis, 1 where that peak is 0 (README: floating-point policy)."""
    peak = np.abs(v).max(axis=axis)
    return np.where(peak > 0, np.ldexp(1.0, np.frexp(peak)[1] - 1), 1.0)


def _fit_glm(x: np.ndarray, y: np.ndarray, spec: ModelSpec) -> tuple[_GlmState, dict]:
    """The parametric families' one fit: least squares on y for ols_normal, on log y for the log-link families.

    The Gamma GLM then runs IRLS for the log link from that start; the Gamma
    variance function makes the working weights constant, so each step is
    a least-squares solve on the working response.
    """
    log_link = spec.family != OLS_NORMAL
    state = _GlmState(coef=np.empty(0), intercept_only=spec.hyperparams["intercept_only"], log_link=log_link)
    design = state.design(x)
    n, p = design.shape
    # one residual degree of freedom is required for the error-scale estimate; the row
    # count goes before the sign check, since too few rows cannot be fitted for any y
    if n < p + 1:
        raise FitError(f"{spec.family}: need at least {p + 1} rows for {p} coefficients, got {n}")
    if log_link and np.any(y <= 0):
        raise FitError(f"{spec.family}: response must be strictly positive")
    target = np.log(y) if log_link else y
    # lstsq's rank depends on the design alone, so the first solve decides it for every IRLS step too
    solved, scale = design, 1.0
    coef, _, rank, _ = np.linalg.lstsq(solved, target, rcond=None)
    if rank < p:  # retry: each column divided by a power of two at or below its peak |value| (exact)
        scale = pow2_scale(design, axis=0)
        solved = design / scale
        coef, _, rank, _ = np.linalg.lstsq(solved, target, rcond=None)
    if rank < p:
        raise FitError(f"singular design: rank {rank} < {p} columns")
    state.coef = coef / scale
    # IRLS means that overflow are a divergence, checked below; an ols_normal or Gamma scale may overflow
    # too: a generator refuses it, and those families' predictions never read it
    if spec.family == GAMMA_GLM:
        max_iter, tol = spec.hyperparams["max_iter"], spec.hyperparams["tol"]
        state.deviance_path = []
        for iteration in range(max_iter + 1):  # iteration 0 is the start
            if iteration:
                z = eta + (y - mu) / mu
                previous, state.coef = state.coef, np.linalg.lstsq(solved, z, rcond=None)[0] / scale
            # glm2's rule (Marschner 2011): while the deviance rises by more than tol, halve the step, max_iter times
            for _ in range(max_iter + 1):
                eta = design @ state.coef
                mu = np.exp(eta)
                if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
                    raise ConvergenceError(f"{GAMMA_GLM}: fitted means diverged at iteration {iteration}", iteration)
                deviance = float(2.0 * np.sum(-np.log(y / mu) + (y - mu) / mu))
                if not (iteration and deviance > state.deviance_path[-1] + tol):
                    break
                state.coef = (state.coef + previous) / 2.0
            else:
                raise ConvergenceError(
                    f"{GAMMA_GLM}: IRLS did not converge, its deviance rose after {max_iter} step halvings", iteration
                )
            state.deviance_path.append(deviance)
            if iteration and abs(state.deviance_path[-2] - state.deviance_path[-1]) < tol:
                return state, {"dispersion": float((((y - mu) / mu) ** 2).sum()) / (n - p)}
        raise ConvergenceError(f"{GAMMA_GLM}: IRLS did not converge in {max_iter} iterations", max_iter)
    sigma2 = float(((target - design @ state.coef) ** 2).sum()) / (n - p)
    if spec.family == OLS_NORMAL:
        return state, {"residual_variance": sigma2}
    # conditional-mean back-transform: E[Y|x] = exp(eta + sigma^2 / 2)
    state.mean_shift = sigma2 / 2.0
    return state, {"log_variance": sigma2}


def _best_split(x: np.ndarray, y: np.ndarray, min_leaf: int) -> tuple[int, float] | None:
    """(feature, threshold) of the least-SSE split of one node, or None if no position is a candidate.

    One stable sort per column and cumsums along the sorted rows score every
    split position of every feature at once. A split after sorted position i
    is a candidate iff the sorted covariate changes there, and the first
    (feature, position) in feature-major order wins a tie. A node whose SSEs
    overflow, or whose squares sum below n * 2^-1022 (so that even its largest
    square may be subnormal), is scored again on y / pow2_scale(y), which is exact.
    """
    n = y.shape[0]
    order = np.argsort(x, axis=0, kind="stable")
    xs = x[order, np.arange(x.shape[1])]
    feat, pos = np.nonzero((xs[min_leaf - 1 : n - min_leaf] != xs[min_leaf : n - min_leaf + 1]).T)
    if feat.size == 0:
        return None
    i = pos + min_leaf  # rows sent left
    ys = y[order]
    cum = np.cumsum(ys, axis=0)
    cum2 = np.cumsum(ys**2, axis=0)
    left, left2 = cum[i - 1, feat], cum2[i - 1, feat]
    total, total2 = cum[-1, feat], cum2[-1, feat]
    # squares use C pow() (float_power), as numpy scalar ** does, so trees match
    # the per-position scan bit for bit; x * x differs in about 1 value in 1000
    sse = (left2 - np.float_power(left, 2) / i) + (
        (total2 - left2) - np.float_power(total - left, 2) / (n - i)
    )
    # 1 <= max |y / pow2_scale(y)| < 2, so its SSEs are finite and its largest square is normal
    if not np.all(np.isfinite(sse)) or cum2[-1, 0] < n * 2.0**-1022:
        return _best_split(x, y / pow2_scale(y), min_leaf)
    best = int(np.argmin(sse))
    j, i = int(feat[best]), int(i[best])
    lower, upper = xs[i - 1, j], xs[i, j]
    mid = (lower + upper) / 2.0
    if not (lower <= mid < upper):  # midpoint rounded onto a neighbour
        mid = lower
    return j, mid


def _fit_tree(x: np.ndarray, y: np.ndarray, spec: ModelSpec) -> _TreeState:
    max_depth, min_leaf = spec.hyperparams["max_depth"], spec.hyperparams["min_leaf"]
    # nodes are grown breadth first; each keeps its rows in training order
    nodes = [(x, y, 0)]
    table = []  # per node: feature, threshold, left, right, value
    for x_node, y_node, depth in nodes:
        split = None
        if depth < max_depth and y_node.shape[0] >= 2 * min_leaf and np.ptp(y_node) != 0.0:
            split = _best_split(x_node, y_node, min_leaf)
        if split is None:
            table.append((-1, np.nan, -1, -1, float(y_node.mean())))
            continue
        j, t = split
        mask = x_node[:, j] <= t
        table.append((j, t, len(nodes), len(nodes) + 1, np.nan))
        nodes += [(x_node[mask], y_node[mask], depth + 1), (x_node[~mask], y_node[~mask], depth + 1)]
    return _TreeState(*(np.array(column) for column in zip(*table)))


def _fit_knn(x: np.ndarray, y: np.ndarray | None, spec: ModelSpec) -> _KnnState:
    k = spec.hyperparams["k_neighbors"]
    if k > x.shape[0]:
        raise FitError(f"knn: k_neighbors={k} exceeds the {x.shape[0]} training rows")
    mean, scale = x.mean(axis=0), x.std(axis=0)
    # a column whose sum or squares overflow is standardised on x / pow2_scale(x), and the result scaled back
    for j in np.flatnonzero(~(np.isfinite(mean) & np.isfinite(scale))):
        peak = pow2_scale(x[:, j])
        mean[j], scale[j] = (x[:, j] / peak).mean() * peak, (x[:, j] / peak).std() * peak
    scale[scale == 0.0] = 1.0  # constant columns carry no distance information
    return _KnnState(x_mean=mean, x_scale=scale, x_train=(x - mean) / scale, y_train=y, k_neighbors=k)


@np.errstate(all="ignore")  # NaN distances sort last; the plug-in predictions they give are checked
def neighbour_index(spec: ModelSpec, x_train: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """The (rows x k_neighbors) x_train rows a knn fit of spec averages for each row of x; None for another family."""
    return _fit_knn(x_train, None, spec).neighbours(x) if spec.family == KNN else None


@np.errstate(all="ignore")  # a non-finite result is refused where it is used (README: floating-point policy)
def fit(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> FittedModel:
    """Fit a model family to a design matrix and response vector.

    Raises FitError for domain violations (non-positive responses under the
    positive families, singular designs) and ConvergenceError when the Gamma
    IRLS loop exhausts max_iter.
    """
    # private copies: the model keeps them for its fitted values
    x = np.array(x, dtype=np.float64, ndmin=2)
    y = np.array(y, dtype=np.float64).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]} entries")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty sample")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise FitError("training data contains non-finite values")

    summary = None
    if spec.is_parametric:
        state, summary = _fit_glm(x, y, spec)
    elif spec.family == REGRESSION_TREE:
        state = _fit_tree(x, y, spec)
    else:
        state = _fit_knn(x, y, spec)
    return FittedModel(spec, summary, state, x, y)
