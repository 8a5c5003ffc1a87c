"""Simulation of full population response vectors under fitted models.

Parametric families draw from their fitted conditional distribution; the
gaussian family uses additive noise, while the log-normal and Gamma
families draw from the fitted positive-valued distributions directly
(additive gaussian noise would produce invalid negative responses for
them). Nonparametric families add noise sampled from a Gaussian-kernel
density estimate of the training residuals, re-centred to mean zero within
every generated vector. A draw is a location that depends on the model and
the design alone (generator_location) plus a per-draw noise step
(draw_population), so a caller drawing many populations computes the
location once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SimulationError
from .models import GAMMA_GLM, LOGNORMAL, OLS_NORMAL, FittedModel


@dataclass
class GeneratedPopulation:
    """One simulated response vector of length n + k; sample block first."""

    y_full: np.ndarray
    generator_index: int = 0
    iteration_index: int = 0

    def __post_init__(self):
        self.y_full = np.asarray(self.y_full, dtype=np.float64).ravel()
        if not np.all(np.isfinite(self.y_full)):
            raise SimulationError("generated population contains non-finite values")


@dataclass
class KdeModel:
    """Gaussian-kernel density estimate of centred residuals.

    Sampling uses the mixture representation: a uniformly chosen support
    point plus N(0, bandwidth^2) kernel noise, which is exact for the
    Gaussian-kernel estimate.
    """

    support_points: np.ndarray
    bandwidth: float

    def __post_init__(self):
        self.support_points = np.asarray(self.support_points, dtype=np.float64).ravel()
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        center = abs(float(self.support_points.mean()))
        if center > 1e-10 * max(1.0, float(np.abs(self.support_points).max())):
            raise ValueError("support_points must be centred to mean zero")


def fit_kde(residuals: np.ndarray, rule: "str | float" = "silverman") -> KdeModel:
    """Fit the residual KDE used by the nonparametric generator.

    rule is either "silverman" (0.9 * min(sd, IQR/1.34) * m^(-1/5), with sd
    as fallback when the IQR collapses to zero) or an explicit positive
    bandwidth. Residuals are centred before storage.
    """
    r = np.asarray(residuals, dtype=np.float64).ravel()
    if r.size < 2:
        raise DataError("need at least 2 residuals to fit a KDE")
    if np.ptp(r) == 0.0:
        raise DataError("residuals are constant: degenerate error distribution")
    centred = r - r.mean()
    if isinstance(rule, str):
        if rule != "silverman":
            raise ValueError(f"unknown bandwidth rule {rule!r}")
        sd = float(centred.std(ddof=1))
        q75, q25 = np.percentile(centred, [75.0, 25.0])
        spread = min(sd, (q75 - q25) / 1.34)
        if spread == 0.0:
            spread = sd
        bandwidth = 0.9 * spread * r.size ** (-1.0 / 5.0)
    else:
        bandwidth = float(rule)
        if not bandwidth > 0:
            raise ValueError("explicit bandwidth must be positive")
    return KdeModel(support_points=centred, bandwidth=bandwidth)


def generator_location(model: FittedModel, x_full: np.ndarray) -> np.ndarray:
    """The part of a draw that is the same in every draw: eta for lognormal, else the fitted mean.

    A Gamma mean must be finite and positive everywhere (SimulationError).
    """
    if model.spec.family == LOGNORMAL:
        return model.linear_predictor(x_full)
    mean = model.predict(x_full)
    if model.spec.family == GAMMA_GLM:
        bad = np.flatnonzero(~(np.isfinite(mean) & (mean > 0)))
        if bad.size:
            raise SimulationError(f"gamma generation: non-positive fitted mean at row {bad[0]}")
    return mean


def draw_population(
    model: FittedModel,
    location: np.ndarray,
    kde: KdeModel | None,
    rng: np.random.Generator,
    generator_index: int = 0,
    iteration_index: int = 0,
) -> GeneratedPopulation:
    """One draw around generator_location(model, x_full); kde is the residual KDE of a nonparametric model."""
    size = location.shape[0]
    family = model.spec.family
    if kde is not None:
        idx = rng.integers(0, kde.support_points.size, size=size)
        noise = kde.support_points[idx] + rng.normal(0.0, kde.bandwidth, size=size)
        noise -= noise.mean()
        y = location + noise
    elif family == OLS_NORMAL:
        sd = float(model.error_summary["residual_variance"]) ** 0.5
        y = location + rng.normal(0.0, sd, size=size)
    elif family == LOGNORMAL:
        sd = float(model.error_summary["log_variance"]) ** 0.5
        y = np.exp(location + rng.normal(0.0, sd, size=size))
    else:
        dispersion = float(model.error_summary["dispersion"])
        if dispersion <= 0.0:
            y = location.copy()  # zero-dispersion limit is degenerate at the mean
        else:
            y = rng.gamma(shape=1.0 / dispersion, scale=location * dispersion)
    return GeneratedPopulation(y_full=y, generator_index=generator_index, iteration_index=iteration_index)


def gen_parametric(
    model: FittedModel,
    x_full: np.ndarray,
    rng: np.random.Generator,
    generator_index: int = 0,
    iteration_index: int = 0,
) -> GeneratedPopulation:
    """Parametric bootstrap draw of the full population response vector."""
    if not model.spec.is_parametric:
        raise ValueError(f"{model.spec.family} is not a parametric family")
    location = generator_location(model, x_full)
    return draw_population(model, location, None, rng, generator_index, iteration_index)


def gen_nonparametric(
    model: FittedModel,
    x_full: np.ndarray,
    kde: KdeModel,
    rng: np.random.Generator,
    generator_index: int = 0,
    iteration_index: int = 0,
) -> GeneratedPopulation:
    """Residual-KDE bootstrap draw under a nonparametric fit.

    The caller must pass the KDE fitted from this model's own training
    residuals; the engine guarantees that pairing. The generated noise
    vector is re-centred to sum exactly to zero within each draw.
    """
    if model.spec.is_parametric:
        raise ValueError(f"{model.spec.family} is not a nonparametric family")
    location = generator_location(model, x_full)
    return draw_population(model, location, kde, rng, generator_index, iteration_index)
