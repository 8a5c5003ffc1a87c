"""Reduction of simulated prediction errors into accuracy measures.

The raw output of a run is a tensor of prediction errors indexed by
(generator, iteration, characteristic, strategy). It reduces over the
iteration axis into an S x P accuracy matrix, one row per (measure,
characteristic, generator) combination and one column per strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .models import order_p, pow2_scale

RMSE = "rmse"
QAPE = "qape"
MEASURE_KINDS = (RMSE, QAPE)


@dataclass(frozen=True)
class Measure:
    """An accuracy measure specification: rmse, or qape of order p."""

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        object.__setattr__(self, "p", order_p(f"{self.kind} measure", self.p, self.kind == QAPE))

    @property
    def label(self) -> str:
        return f"qape{self.p:g}" if self.kind == QAPE else self.kind


@np.errstate(all="ignore")  # the errors are checked finite, and an rmse that overflows is rescued below
def eval_measures(measures: list[Measure], errors: np.ndarray) -> np.ndarray:
    """Each measure of one error vector, checked once; one sort of |errors| serves every qape, if any."""
    e = np.asarray(errors, dtype=np.float64).ravel()
    what = " and ".join(dict.fromkeys(m.kind for m in measures))
    if e.size == 0:
        raise ValueError(f"{what} of an empty error vector")
    if not np.all(np.isfinite(e)):
        raise ValueError(f"{what}: errors contain non-finite values")
    ordered = np.sort(np.abs(e)) if any(m.kind == QAPE for m in measures) else None
    if any(m.kind == RMSE for m in measures):
        root = float(np.sqrt(np.mean(e**2)))
        if math.isinf(root):  # e**2 or its sum overflowed: divide by a power of two at or below max |e| (exact)
            scale = pow2_scale(e)
            root = float(scale * np.sqrt(np.mean((e / scale) ** 2)))
    values = np.empty(len(measures))
    for i, m in enumerate(measures):
        values[i] = sorted_quantile(ordered, m.p) if m.kind == QAPE else root
    return values


def rmse(errors: np.ndarray) -> float:
    """Root mean square of the error vector; finite for finite errors."""
    return float(eval_measures([Measure(RMSE)], errors)[0])


def sorted_median(ordered: np.ndarray):
    """Midpoint median along axis 0 of float (as np.median, NaN aside) or Fraction values sorted along it."""
    mid = ordered.shape[0] // 2
    return ordered[mid] if ordered.shape[0] % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def sorted_quantile(ordered: np.ndarray, p: float):
    """Inf-type p-quantile along axis 0 of values sorted along it: the value at 1-based index ceil(p * N)."""
    n = ordered.shape[0]
    return ordered[min(max(math.ceil(p * n), 1), n) - 1]


def qape(errors: np.ndarray, p: float) -> float:
    """Inf-type p-quantile of |errors|: the smallest x with at least a fraction p of |errors| <= x."""
    order_p("qape", p, True)
    return float(eval_measures([Measure(QAPE, p)], errors)[0])


@dataclass
class ErrorTensor:
    """Simulated prediction errors, indexed (generator, iteration, characteristic, strategy).

    failure_mask marks (g, b, p) cells whose strategy fit failed; masked
    cells are excluded from every reduction.
    """

    values: np.ndarray
    failure_mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.failure_mask = np.asarray(self.failure_mask, dtype=bool)
        if self.values.ndim != 4:
            raise ValueError("error tensor must have 4 axes (g, b, c, p)")
        g, b, _, p = self.values.shape
        if self.failure_mask.shape != (g, b, p):
            raise ValueError("failure_mask shape must be (g, b, p)")
        unmasked = self.values[~np.broadcast_to(self.failure_mask[:, :, None, :], self.values.shape)]
        if unmasked.size and not np.all(np.isfinite(unmasked)):
            raise ValueError("unmasked error entries must be finite")

    def effective_iterations(self) -> np.ndarray:
        """Surviving iteration count per (generator, strategy)."""
        return self.values.shape[1] - self.failure_mask.sum(axis=1)


@dataclass
class AccuracyMatrix:
    """S x P matrix of accuracy values; rows are (generator, characteristic, measure) voters.

    Row order is measure-major, then characteristic, then generator, and is
    frozen so outputs stay comparable across runs. Entries are nonnegative
    by construction of the measures.
    """

    entries: np.ndarray
    row_labels: list
    col_labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.entries = np.atleast_2d(np.asarray(self.entries, dtype=np.float64))
        if len(self.row_labels) != self.entries.shape[0]:
            raise ValueError("row_labels length does not match row count")
        if len(self.col_labels) != self.entries.shape[1]:
            raise ValueError("col_labels length does not match column count")
        if not np.all(np.isfinite(self.entries)):
            raise DataError("accuracy matrix entries must be finite")
        if np.any(self.entries < 0):
            raise DataError("accuracy matrix entries must be nonnegative")

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def build_accuracy_matrix(
    tensor: ErrorTensor,
    measures: list[Measure],
    generator_labels: list[str],
    characteristic_labels: list[str],
    strategy_names: list[str],
) -> AccuracyMatrix:
    """Reduce an error tensor into the S x P accuracy matrix, S = G*C*M, with one eval_measures per error vector.

    Masked iterations are dropped per (generator, strategy); fewer than two
    surviving iterations for any such pair is an assembly error.
    """
    if not measures:
        raise ValueError("need at least one measure")
    g_count, b_count, c_count, p_count = tensor.values.shape
    if (len(generator_labels), len(characteristic_labels), len(strategy_names)) != (g_count, c_count, p_count):
        raise ValueError("label lists do not match tensor dimensions")

    entries = np.empty((len(measures), c_count, g_count, p_count))
    for g, p in np.ndindex(g_count, p_count):
        kept = tensor.values[g, ~tensor.failure_mask[g, :, p], :, p]  # (surviving iterations, C)
        if kept.shape[0] < 2:
            raise DataError(
                f"generator {generator_labels[g]!r}, strategy {strategy_names[p]!r}: "
                f"only {kept.shape[0]} of {b_count} iterations survived fit failures"
            )
        entries[:, :, g, p] = np.transpose([eval_measures(measures, errors) for errors in kept.T])
    labels = [(gen, char, m.label) for m in measures for char in characteristic_labels for gen in generator_labels]
    return AccuracyMatrix(entries=entries.reshape(-1, p_count), row_labels=labels, col_labels=list(strategy_names))
