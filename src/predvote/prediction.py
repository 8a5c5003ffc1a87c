"""Population characteristics and their plug-in prediction.

A characteristic is a scalar function of the full population response
vector (total, mean, median, or an order-statistic quantile). The plug-in
predictor evaluates it on the composite vector formed by the observed
sample responses followed by model-fitted out-of-sample values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accuracy import sorted_median, sorted_quantile
from .dataset import StudyFrame
from .errors import ConvergenceError, FitError
from .models import ModelSpec, fit, neighbour_index, order_p

TOTAL = "total"
MEAN = "mean"
MEDIAN = "median"
QUANTILE = "quantile"
CHARACTERISTIC_KINDS = (TOTAL, MEAN, MEDIAN, QUANTILE)


@dataclass(frozen=True)
class Characteristic:
    """A named scalar function of a full population vector.

    The median uses the midpoint convention; quantile(p) is the inf-type
    order statistic at 1-based index ceil(p * N), no interpolation. The two
    conventions are deliberately distinct.
    """

    kind: str
    p: float | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in CHARACTERISTIC_KINDS:
            raise ValueError(f"unknown characteristic kind {self.kind!r}")
        object.__setattr__(self, "p", order_p(f"{self.kind} characteristic", self.p, self.kind == QUANTILE))
        if not isinstance(self.name, str):
            raise ValueError(f"characteristic name must be a string, got {self.name!r}")
        if not self.name:
            default = f"q{self.p:g}" if self.kind == QUANTILE else self.kind
            object.__setattr__(self, "name", default)


@dataclass(frozen=True)
class PredictionStrategy:
    """A candidate: a predictive model under the plug-in prediction algorithm."""

    name: str
    model: ModelSpec

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise ValueError(f"strategy needs a non-empty name string, got {self.name!r}")


def eval_characteristics(characteristics: list[Characteristic], y: np.ndarray) -> np.ndarray:
    """Each characteristic of the population vector y, sorting y once and only if an order statistic is asked for."""
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size == 0:
        raise ValueError("cannot evaluate a characteristic on an empty vector")
    if any(c.kind in (MEDIAN, QUANTILE) for c in characteristics):
        ordered = np.sort(y)  # NaN sorts last and, as in np.median, is the median
    values = np.empty(len(characteristics))
    for i, c in enumerate(characteristics):
        if c.kind == MEDIAN:
            values[i] = ordered[-1] if np.isnan(ordered[-1]) else sorted_median(ordered)
        elif c.kind == QUANTILE:
            values[i] = sorted_quantile(ordered, c.p)
        else:
            values[i] = y.sum() if c.kind == TOTAL else y.mean()
    return values


def eval_characteristic(char: Characteristic, y: np.ndarray) -> float:
    """One characteristic of y: the one-element view of eval_characteristics."""
    return float(eval_characteristics([char], y)[0])


@dataclass(frozen=True)
class RefitPlan:
    """One strategy's refit on a fixed sample design, with the y-independent work done once.

    Built by plan_refit, it is the one plug-in path: the Monte Carlo cells,
    the winners' final predictions and plug_in_predict all run it. A knn
    refit averages y_s over the neighbours of x_out among x_sample, which
    depend on the design alone, so the plan holds that (k x k_neighbors)
    index; every other family is fitted afresh on each y_s.
    """

    strategy: PredictionStrategy
    neighbours: np.ndarray | None = None

    @np.errstate(over="ignore")  # an overflow ends in a non-finite prediction, checked below
    def plug_in(self, frame: StudyFrame, y_s: np.ndarray, characteristics: list[Characteristic]) -> np.ndarray:
        """Each characteristic's plug-in prediction from a finite float64 y_s of length frame.n.

        A failed refit, or a non-finite prediction (named by characteristic), raises FitError.
        """
        if self.neighbours is not None:
            y_out = y_s[self.neighbours].mean(axis=1)
        else:
            y_out = fit(self.strategy.model, frame.x_sample, y_s).predict(frame.x_out)
        composite = np.concatenate([y_s, y_out])
        predicted = eval_characteristics(characteristics, composite)
        bad = np.flatnonzero(~np.isfinite(predicted))
        if bad.size:
            raise FitError(f"plug-in prediction of {characteristics[bad[0]].name!r} is not finite")
        return predicted


def plan_refit(strategy: PredictionStrategy, frame: StudyFrame) -> RefitPlan:
    """The refit plan of one strategy on frame's fixed design."""
    try:
        return RefitPlan(strategy, neighbour_index(strategy.model, frame.x_sample, frame.x_out))
    except FitError:
        return RefitPlan(strategy)  # k_neighbors > n: every refit raises this FitError


def plug_in_predict(
    strategy: PredictionStrategy,
    frame: StudyFrame,
    y_s: np.ndarray,
    characteristics: list[Characteristic],
) -> np.ndarray:
    """Plug-in predictions of every characteristic under one strategy.

    Refits the strategy on (x_sample, y_s) through plan_refit, the path the
    Monte Carlo cells take, and evaluates each characteristic on
    [y_s ; predictions for x_out]. A non-finite y_s, a failed refit or a
    non-finite prediction raises FitError with the strategy name attached
    once; a ConvergenceError keeps its type and iteration count. y_s is
    never mutated.
    """
    y_s = np.asarray(y_s, dtype=np.float64).ravel()
    if y_s.size != frame.n:
        raise ValueError(f"y_s has length {y_s.size}, frame sample size is {frame.n}")
    if not np.all(np.isfinite(y_s)):
        # the knn gather would average NaN into the predictions without complaint
        raise FitError(f"strategy {strategy.name!r}: training data contains non-finite values")
    try:
        return plan_refit(strategy, frame).plug_in(frame, y_s, characteristics)
    except ConvergenceError as exc:
        raise ConvergenceError(f"strategy {strategy.name!r}: {exc}", exc.iterations) from exc
    except FitError as exc:
        raise FitError(f"strategy {strategy.name!r}: {exc}") from exc
