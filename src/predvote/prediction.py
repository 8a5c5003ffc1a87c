"""Population characteristics and their plug-in prediction.

A characteristic is a scalar function of the full population response
vector (total, mean, median, or an order-statistic quantile). The plug-in
predictor evaluates it on the composite vector formed by the observed
sample responses followed by model-fitted out-of-sample values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accuracy import order_statistic_quantile
from .dataset import StudyFrame
from .errors import ConvergenceError, FitError
from .models import ModelSpec, fit

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
        if self.kind == QUANTILE:
            if self.p is None or not 0.0 < self.p < 1.0:
                raise ValueError("quantile characteristic needs p in (0, 1)")
        elif self.p is not None:
            raise ValueError(f"{self.kind} characteristic takes no order p")
        if not self.name:
            default = f"q{self.p:g}" if self.kind == QUANTILE else self.kind
            object.__setattr__(self, "name", default)


@dataclass(frozen=True)
class PredictionStrategy:
    """A candidate: a predictive model under the plug-in prediction algorithm."""

    name: str
    model: ModelSpec

    def __post_init__(self):
        if not self.name:
            raise ValueError("strategy needs a non-empty name")


def eval_characteristic(char: Characteristic, y: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size == 0:
        raise ValueError("cannot evaluate a characteristic on an empty vector")
    if char.kind == TOTAL:
        return float(y.sum())
    if char.kind == MEAN:
        return float(y.mean())
    if char.kind == MEDIAN:
        return float(np.median(y))
    return order_statistic_quantile(y, char.p)


def plug_in_predict(
    strategy: PredictionStrategy,
    frame: StudyFrame,
    y_s: np.ndarray,
    characteristics: list[Characteristic],
) -> np.ndarray:
    """Plug-in predictions of every characteristic under one strategy.

    Fits the strategy's model on (x_sample, y_s), predicts the out-of-sample
    block, and evaluates each characteristic on [y_s ; predictions]. Fit
    failures propagate with the strategy name attached; y_s is never
    mutated.
    """
    y_s = np.asarray(y_s, dtype=np.float64).ravel()
    if y_s.size != frame.n:
        raise ValueError(f"y_s has length {y_s.size}, frame sample size is {frame.n}")
    try:
        model = fit(strategy.model, frame.x_sample, y_s)
    except ConvergenceError as exc:
        raise ConvergenceError(f"strategy {strategy.name!r}: {exc}", exc.iterations) from exc
    except FitError as exc:
        raise FitError(f"strategy {strategy.name!r}: {exc}") from exc
    if frame.k:
        composite = np.concatenate([y_s, model.predict(frame.x_out)])
    else:
        composite = y_s.copy()
    return np.array([eval_characteristic(c, composite) for c in characteristics])
