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


def parametric_design(x: np.ndarray, intercept_only: bool) -> np.ndarray:
    """The one parametric design builder: a column of ones, then the columns of x unless intercept_only."""
    if intercept_only:
        return np.ones((x.shape[0], 1))
    return np.column_stack([np.ones(x.shape[0]), x])


# --- fitted-state carriers (plain dataclasses so models pickle cleanly) ---


@dataclass
class _GlmState:
    coef: np.ndarray          # includes the leading intercept coefficient
    intercept_only: bool
    log_link: bool            # predictions are exp(eta + mean_shift)
    mean_shift: float = 0.0
    deviance_path: list | None = None  # IRLS trajectory, gamma fits only

    def linear(self, x: np.ndarray) -> np.ndarray:
        return parametric_design(x, self.intercept_only) @ self.coef

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.mean(self.linear(x))

    def mean(self, eta: np.ndarray) -> np.ndarray:
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
        distinct, inverse = distinct_rows((x - self.x_mean) / self.x_scale)
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


def distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct rows of x, in the order of one lexsort, and each row's index among them).

    The one grouping of repeated rows; np.unique would load numpy.ma on its first call.
    """
    order = np.lexsort(x.T)
    ordered = x[order]
    starts = np.ones(ordered.shape[0], dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(ordered.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


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


def fit_glm(design: np.ndarray, y: np.ndarray, spec: ModelSpec) -> tuple[_GlmState, dict]:
    """The parametric families' one fit on a parametric_design: least squares on y (ols_normal) or on log y.

    The Gamma GLM then runs IRLS for the log link from that start; the Gamma
    variance function makes the working weights constant, so each step is
    a least-squares solve on the working response.
    """
    log_link = spec.family != OLS_NORMAL
    state = _GlmState(coef=np.empty(0), intercept_only=spec.hyperparams["intercept_only"], log_link=log_link)
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


_PASS_LANES = 1 << 11  # lanes one scoring pass holds (or one node's, if more), which bounds its arrays


def column_orders(x: np.ndarray) -> np.ndarray:
    """((q + 1) x n) int32: each column's stable order of the n rows of x, then the rows' own order."""
    return np.vstack([np.argsort(x, axis=0, kind="stable").T, np.arange(x.shape[0])]).astype(np.int32)


def _sse(cum: np.ndarray, cum2: np.ndarray, at: np.ndarray, i: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The SSE of the split at flat lane index at of the cumsums of y and y^2: i of a node's m sorted rows go left.

    Squares use C pow() (float_power), as numpy scalar ** does, so trees match the per-position scan bit
    for bit; x * x differs in about 1 value in 1000.
    """
    cum, cum2, end = cum.ravel(), cum2.ravel(), at - i + m - 1
    left, left2, total, total2 = cum.take(at - 1), cum2.take(at - 1), cum.take(end), cum2.take(end)
    return (left2 - np.float_power(left, 2) / i) + ((total2 - left2) - np.float_power(total - left, 2) / (m - i))


def _score_pass(
    x_entries: np.ndarray, y_flat: np.ndarray, rows: np.ndarray, start: np.ndarray, m: np.ndarray, e: int, min_leaf: int
) -> tuple[np.ndarray, np.ndarray]:
    """(feature, rows sent left) of the least-SSE split of each node of m entries from start; 0 left: no candidate.

    Each node is padded to 2^e >= m lanes, and the cumsums run along the lanes. A split after sorted
    position i is a candidate iff the sorted covariate changes there, and the first least SSE in
    (feature, position) order wins. A node whose SSEs overflow, or whose squares sum below
    m * 2^-1022 (so that even its largest square may be subnormal), is scored again on
    y / pow2_scale(y), which is exact.
    """
    q, entries = x_entries.shape
    lanes = np.arange(1 << e)
    # (q x nodes x lanes) entries, C-ordered as the flat indices below assume; lanes >= m are never read
    g = rows[:q].take(np.minimum(start[:, None] + lanes, rows.shape[1] - 1), axis=1)
    xs = x_entries.take(g + np.arange(0, q * entries, entries)[:, None, None])
    candidate = np.zeros(g.shape, dtype=bool)
    np.not_equal(xs[:, :, 1:], xs[:, :, :-1], out=candidate[:, :, 1:])
    del xs
    candidate &= (lanes >= min_leaf) & (lanes <= m[:, None] - min_leaf)
    flat = np.flatnonzero(candidate)
    del candidate
    node, i = (flat >> e) % m.size, flat & ((1 << e) - 1)  # i: rows sent left
    ys = y_flat.take(g)
    cum = np.cumsum(ys, axis=2)
    cum2 = np.cumsum(np.square(ys, out=ys), axis=2, out=ys)  # in place: ys is read no further
    sse = _sse(cum, cum2, flat, i, m[node])
    rescore = cum2[0, np.arange(m.size), m - 1] < m * 2.0**-1022
    rescore[node[~np.isfinite(sse)]] = True
    if rescore.any():
        # 1 <= max |y / pow2_scale(y)| < 2, so its SSEs are finite and its largest square is normal
        ys = y_flat.take(g[:, rescore])
        ys /= pow2_scale(np.where(lanes < m[rescore, None], ys[0], 0.0), axis=1)[:, None]
        cum[:, rescore], cum2[:, rescore] = np.cumsum(ys, axis=2), np.cumsum(ys**2, axis=2)
        again = rescore[node]
        sse[again] = _sse(cum, cum2, flat[again], i[again], m[node[again]])
    del ys, cum, cum2
    # scored per node in (feature, position) order, so one argmin finds the first least SSE
    score = np.full((m.size, q << e), np.inf)
    score.ravel()[((node * q + (flat >> e) // m.size) << e) + i] = sse
    best = score.argmin(axis=1)
    return best >> e, best & ((1 << e) - 1)


def grow_trees(spec: ModelSpec, x: np.ndarray, orders: np.ndarray, y: np.ndarray) -> list[_TreeState]:
    """The regression trees of spec on the design x (n x q), one per row of the (T x n) block y.

    orders is column_orders(x). The T trees grow together, level by level. Entry g = t * n + r is row r
    of tree t; each node holds one segment of every column's order of its entries, in its parent's
    order, so no node sorts. All nodes of a level are scored together, one pass per power-of-two
    length bin (_score_pass). Nodes are numbered breadth first, and each tree is the one its row
    grows alone, bit for bit.
    """
    max_depth, min_leaf = spec.hyperparams["max_depth"], spec.hyperparams["min_leaf"]
    trees, n = y.shape
    q = x.shape[1]
    y_flat, x_entries = y.ravel(), np.tile(x.T, trees)  # entry g: y_flat[g] and x_entries[:, g]
    rows = (orders[:, None, :] + np.arange(0, trees * n, n, dtype=np.int32)[:, None]).reshape(q + 1, -1)
    # the nodes of one level, in the order of their segments
    tree, node, size = np.arange(trees), np.zeros(trees, dtype=np.int64), np.full(trees, n)
    counts = np.ones(trees, dtype=np.int64)  # nodes numbered so far, per tree
    inner, leaves = [], []  # per level: inner-node columns, and leaf (tree, node, size, entries)
    for depth in range(max_depth + 1):
        start = np.cumsum(size) - size
        feature, n_left = np.full(size.size, -1), np.zeros(size.size, dtype=np.int64)
        if depth < max_depth:
            y_rows = y_flat.take(rows[q])
            varies = np.logical_or.reduceat(y_rows != np.repeat(y_rows[start], size), start)  # np.ptp(y) != 0
            eligible = np.flatnonzero((size >= 2 * min_leaf) & varies)
            bins = np.frexp(size[eligible] - 1)[1]  # a node of m rows takes 2^bins lanes, the least >= m
            for e in np.flatnonzero(np.bincount(bins)):
                binned = eligible[bins == e]
                step = max(1, _PASS_LANES >> e)
                for lo in range(0, binned.size, step):
                    at = binned[lo : lo + step]
                    feature[at], n_left[at] = _score_pass(x_entries, y_flat, rows, start[at], size[at], e, min_leaf)
        split, leaf = np.flatnonzero(n_left), n_left == 0
        leaves.append((tree[leaf], node[leaf], size[leaf], rows[q].compress(np.repeat(leaf, size))))
        if not split.size:
            break
        j, i, first = feature[split], n_left[split], start[split]
        lower, upper = x_entries[j, rows[j, first + i - 1]], x_entries[j, rows[j, first + i]]
        mid = (lower + upper) / 2.0
        rounded = ~((lower <= mid) & (mid < upper))  # midpoint rounded onto a neighbour
        mid[rounded] = lower[rounded]
        # children are numbered breadth first: in node order within each tree, left before right
        by_node = split[np.lexsort((node[split], tree[split]))]
        t = tree[by_node]
        left = np.empty(size.size, dtype=np.int64)
        left[by_node] = counts[t] + 2 * (np.arange(t.size) - np.searchsorted(t, t))
        counts += 2 * np.bincount(t, minlength=trees)
        inner.append((tree[split], node[split], j, mid, left[split]))
        # the first i entries of column j's order are the entries with x_j <= mid; each child keeps its
        # parent's order of every column through one stable compaction per side
        before = np.repeat(j * rows.shape[1] + first - (np.cumsum(i) - i), i) + np.arange(i.sum())
        go_left = np.zeros(trees * n, dtype=bool)
        go_left[rows.ravel().take(before)] = True
        sent = go_left.take(rows)
        sent_left = rows.ravel().compress(sent.ravel()).reshape(q + 1, -1)
        sent ^= np.repeat(n_left > 0, size)  # now: sent right
        rows = np.concatenate([sent_left, rows.ravel().compress(sent.ravel()).reshape(q + 1, -1)], axis=1)
        del sent, sent_left
        tree, node = np.concatenate([tree[split], tree[split]]), np.concatenate([left[split], left[split] + 1])
        size = np.concatenate([i, size[split] - i])

    offset = np.cumsum(counts) - counts
    length = int(counts.sum())
    table_feature, table_left = np.full(length, -1), np.full(length, -1)
    table_threshold, table_value = np.full(length, np.nan), np.full(length, np.nan)
    for t, nodes, j, mid, left in inner:
        at = offset[t] + nodes
        table_feature[at], table_threshold[at], table_left[at] = j, mid, left
    table_right = np.where(table_left >= 0, table_left + 1, -1)
    t, nodes, m, entries = (np.concatenate(column) for column in zip(*leaves))
    at, first = offset[t] + nodes, np.cumsum(m) - m
    by_size = np.argsort(m, kind="stable")
    # one mean(axis=1) per leaf length, each over its entries in row order, as np.mean of one leaf sums
    for same in np.split(by_size, np.flatnonzero(np.diff(m[by_size])) + 1):
        table_value[at[same]] = y_flat.take(entries.take(first[same, None] + np.arange(m[same[0]]))).mean(axis=1)
    columns = (table_feature, table_threshold, table_left, table_right, table_value)
    return [_TreeState(*(c[lo : lo + count] for c in columns)) for lo, count in zip(offset.tolist(), counts.tolist())]


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
        state, summary = fit_glm(parametric_design(x, spec.hyperparams["intercept_only"]), y, spec)
    elif spec.family == REGRESSION_TREE:
        (state,) = grow_trees(spec, x, column_orders(x), y[None])
    else:
        state = _fit_knn(x, y, spec)
    return FittedModel(spec, summary, state, x, y)
