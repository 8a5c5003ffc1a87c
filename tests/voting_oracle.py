"""Reference implementations of the voting arithmetic, kept as test oracles.

Independent routes to what predvote.voting computes from sorted columns:
a per-row midrank loop, the ECDF integral as a mean of ramps, and
stochastic dominance checked on the union grid of two columns' jump
points. Sums use math.fsum, which rounds once, so an oracle value depends
on a column's values and not on their order.
"""

from __future__ import annotations

import math

import numpy as np

from predvote.voting import ECDF_AUC, EVALUATIVE, FPTP, POSITIONAL, scale_rows


def midranks_desc(row: np.ndarray) -> np.ndarray:
    """Rank P for the smallest value down to 1 for the largest; ties get midranks."""
    p = row.size
    order = np.argsort(row, kind="stable")
    ranks = np.empty(p)
    i = 0
    while i < p:
        j = i
        while j + 1 < p and row[order[j + 1]] == row[order[i]]:
            j += 1
        # positions i..j (0-based, ascending) share the descending midrank
        ranks[order[i : j + 1]] = p - (i + j) / 2.0
        i = j + 1
    return ranks


def integrate_ecdf(values: np.ndarray, upto: float = 1.0) -> float:
    """Exact integral of the empirical CDF of `values` over [0, upto].

    Closed form for a step function: (1/n) * sum_i max(0, upto - v_i).
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    return math.fsum(np.maximum(0.0, upto - v)) / v.size


def stochastic_dominance(scores: np.ndarray, order: int = 1) -> np.ndarray:
    """[i, j] is True when column i dominates column j, checked on a grid.

    The grid holds both columns' values and 1, which are all the points
    where either ECDF (order 1) or its running integral (order 2) changes
    slope or jumps.
    """
    n_rows, p = scores.shape
    dominates = np.zeros((p, p), dtype=bool)
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            grid = np.unique(np.concatenate([scores[:, i], scores[:, j], [1.0]]))
            if order == 1:
                f_i = np.searchsorted(np.sort(scores[:, i]), grid, side="right") / n_rows
                f_j = np.searchsorted(np.sort(scores[:, j]), grid, side="right") / n_rows
            else:
                f_i = np.array([integrate_ecdf(scores[:, i], x) for x in grid])
                f_j = np.array([integrate_ecdf(scores[:, j], x) for x in grid])
            dominates[i, j] = np.all(f_i <= f_j) and np.any(f_i < f_j)
    return dominates


def criteria(matrix) -> dict[str, np.ndarray]:
    """The four systems' criteria per column, each oriented so that higher wins."""
    a = matrix.entries
    ties = a == a.min(axis=1, keepdims=True)
    votes = ties / ties.sum(axis=1, keepdims=True)
    scores = scale_rows(matrix).entries
    return {
        FPTP: np.array([math.fsum(col) for col in votes.T]),
        POSITIONAL: np.median(np.vstack([midranks_desc(row) for row in a]), axis=0),
        EVALUATIVE: np.median(scores, axis=0),
        ECDF_AUC: -np.array([integrate_ecdf(col) for col in scores.T]),
    }
