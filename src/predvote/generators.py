"""Simulation of full population response vectors under fitted models.

Parametric families draw from their fitted conditional distribution; the
gaussian family uses additive noise, while the log-normal and Gamma
families draw from the fitted positive-valued distributions directly
(additive gaussian noise would produce invalid negative responses for
them). Nonparametric families add noise sampled from a Gaussian-kernel
density estimate of the training residuals, re-centred to mean zero within
every generated vector. A draw is a location that depends on the model and
the design alone plus per-draw noise; a Generator holds both, so a caller
drawing many populations builds it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, SimulationError
from .models import GAMMA_GLM, LOGNORMAL, OLS_NORMAL, FittedModel, is_real, pow2_scale


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
        if not (is_real(self.bandwidth) and math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be a finite positive number, got {self.bandwidth!r}")
        self.bandwidth = float(self.bandwidth)
        if not np.all(np.isfinite(self.support_points)):
            raise ValueError("support_points must be finite")
        center = abs(float(self.support_points.mean()))
        if center > 1e-10 * max(1.0, float(np.abs(self.support_points).max())):
            raise ValueError("support_points must be centred to mean zero")


def _quartiles(values: np.ndarray) -> tuple[float, float]:
    """(q75, q25) as np.percentile(values, [75, 25]) computes them, bit for bit, for 2 or more values.

    np.percentile would import numpy.ma (through np.unique) on its first
    call; this is numpy's linear method on one sort: the virtual index
    n*q + (1 - q) - 1 and numpy's lerp, which interpolates down from the
    upper neighbour when the weight is at least 0.5.
    """
    ordered = np.sort(values)
    quartiles = []
    for q in (0.75, 0.25):
        at = ordered.size * q + (1.0 - q) - 1
        lo = int(at)  # floor: at >= 0
        t = at - lo
        a, b = ordered[lo], ordered[lo + 1]
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return quartiles[0], quartiles[1]


@np.errstate(all="ignore")  # a bandwidth that is not finite and positive is refused by KdeModel
def fit_kde(residuals: np.ndarray, rule: "str | float" = "silverman") -> KdeModel:
    """Fit the residual KDE used by the nonparametric generator.

    rule is either "silverman" (0.9 * min(sd, IQR/1.34) * m^(-1/5), with sd
    as fallback when the IQR collapses to zero) or an explicit bandwidth, which
    KdeModel checks as RunConfig does. Residuals are centred before storage.
    """
    r = np.asarray(residuals, dtype=np.float64).ravel()
    if r.size < 2:
        raise DataError("need at least 2 residuals to fit a KDE")
    if not np.all(np.isfinite(r)):
        raise DataError("residuals contain non-finite values")
    if np.ptp(r) == 0.0:
        raise DataError("residuals are constant: degenerate error distribution")
    centred = r - r.mean()
    if isinstance(rule, str):
        if rule != "silverman":
            raise ValueError(f"unknown bandwidth rule {rule!r}")
        sd = float(centred.std(ddof=1))
        if math.isinf(sd):  # the squares overflowed: scale by a power of two at or below max |centred| (exact)
            peak = pow2_scale(centred)
            sd = float((centred / peak).std(ddof=1) * peak)
        q75, q25 = _quartiles(centred)
        spread = min(sd, (q75 - q25) / 1.34)
        if spread == 0.0:
            spread = sd
        bandwidth = 0.9 * spread * r.size ** (-1.0 / 5.0)
    else:
        bandwidth = rule
    return KdeModel(support_points=centred, bandwidth=bandwidth)


@dataclass(frozen=True)
class Generator:
    """A fitted model made ready to draw; build it once per run with from_model.

    location is eta for lognormal and the fitted mean on x_full otherwise;
    scale is the noise sd (ols_normal, lognormal) or the Gamma dispersion;
    kde is the residual KDE of a nonparametric model.
    """

    family: str
    location: np.ndarray
    scale: float = 0.0
    kde: KdeModel | None = None

    @classmethod
    @np.errstate(all="ignore")  # a mean that overflows is refused below (Gamma) or by the first draw
    def from_model(
        cls, model: FittedModel, x_full: np.ndarray, kde: KdeModel | None = None, n_sample: int | None = None
    ) -> "Generator":
        """The generator of model on x_full; kde is the residual KDE of a nonparametric model, else None.

        A Gamma mean must be finite and positive everywhere (SimulationError), whose message names the first
        bad row by its index in x_full or, given n_sample, by its block and 1-based position in that block.
        """
        family = model.spec.family
        if model.spec.is_parametric != (kde is None):
            raise ValueError(f"{family} is not a {'parametric' if kde is None else 'nonparametric'} family")
        if family == LOGNORMAL:
            return cls(family, model.linear_predictor(x_full), float(model.error_summary["log_variance"]) ** 0.5)
        mean = model.predict(x_full)
        if family == OLS_NORMAL:
            return cls(family, mean, float(model.error_summary["residual_variance"]) ** 0.5)
        if family == GAMMA_GLM:
            bad = np.flatnonzero(~(np.isfinite(mean) & (mean > 0)))
            if bad.size:
                i = int(bad[0])
                where = f"at x_full[{i}]" if n_sample is None else (
                    f"on sample row {i + 1}" if i < n_sample else f"on out-of-sample row {i - n_sample + 1}"
                )
                what = "non-positive" if np.isfinite(mean[i]) else "non-finite"
                raise SimulationError(f"gamma generation: {what} fitted mean {where}")
            return cls(family, mean, float(model.error_summary["dispersion"]))
        return cls(family, mean, kde=kde)

    @np.errstate(all="ignore")  # a non-finite draw is refused below
    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One simulated response vector of length n + k; a non-finite value is a SimulationError."""
        size = self.location.shape[0]
        if self.kde is not None:
            idx = rng.integers(0, self.kde.support_points.size, size=size)
            noise = self.kde.support_points[idx] + rng.normal(0.0, self.kde.bandwidth, size=size)
            noise -= noise.mean()
            y = self.location + noise
        elif self.family == OLS_NORMAL:
            y = self.location + rng.normal(0.0, self.scale, size=size)
        elif self.family == LOGNORMAL:
            y = np.exp(self.location + rng.normal(0.0, self.scale, size=size))
        elif self.scale <= 0.0:
            y = self.location.copy()  # zero-dispersion Gamma limit is degenerate at the mean
        else:
            y = rng.gamma(shape=1.0 / self.scale, scale=self.location * self.scale)
        if not np.all(np.isfinite(y)):
            raise SimulationError("generated population contains non-finite values")
        return y


def gen_parametric(
    model: FittedModel,
    x_full: np.ndarray,
    rng: np.random.Generator,
    generator_index: int = 0,
    iteration_index: int = 0,
) -> GeneratedPopulation:
    """Parametric bootstrap draw of the full population response vector."""
    return GeneratedPopulation(Generator.from_model(model, x_full).draw(rng), generator_index, iteration_index)


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
    return GeneratedPopulation(Generator.from_model(model, x_full, kde).draw(rng), generator_index, iteration_index)
