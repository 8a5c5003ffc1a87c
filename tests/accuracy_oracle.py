"""Reference reduction of an error tensor, kept as a test oracle.

The per-entry route to what predvote.accuracy.build_accuracy_matrix
computes: one loop over (measure, characteristic, generator, strategy)
that checks, squares or sorts each surviving error vector afresh for every
measure, with its own rmse (power-of-two overflow fallback included) and inf-type qape.
"""

from __future__ import annotations

import math

import numpy as np


def rmse(e: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        value = float(np.sqrt(np.mean(e**2)))
    if math.isinf(value):  # divide by the power of two at or below max |e|, which is exact
        scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(e))))[1] - 1)
        value = float(scale * np.sqrt(np.mean((e / scale) ** 2)))
    return value


def qape(e: np.ndarray, p: float) -> float:
    ordered = np.sort(np.abs(e))
    return float(ordered[min(max(math.ceil(p * ordered.size), 1), ordered.size) - 1])


def accuracy_matrix(tensor, measures, generator_labels, characteristic_labels, strategy_names):
    """(entries, row labels) of the S x P matrix, one row per (measure, characteristic, generator)."""
    g_count, _, c_count, p_count = tensor.values.shape
    rows = np.empty((len(measures) * c_count * g_count, p_count))
    labels = []
    r = 0
    for m in measures:
        for c in range(c_count):
            for g in range(g_count):
                for p in range(p_count):
                    e = tensor.values[g, ~tensor.failure_mask[g, :, p], c, p]
                    rows[r, p] = rmse(e) if m.kind == "rmse" else qape(e, m.p)
                labels.append((generator_labels[g], characteristic_labels[c], m.label))
                r += 1
    return rows, labels
