"""Reference implementations of the voting arithmetic, kept as test oracles.

Independent routes to what predvote.voting computes: a per-row midrank
loop, per-row exact scaled scores, the ECDF integral as a mean of ramps,
and stochastic dominance checked on the union grid of all columns'
values. Everything but the midranks is computed in plain Python on
fractions.Fraction, so oracle values are exact and two columns tie
exactly when their exact criteria are equal.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np

from predvote.voting import ECDF_AUC, EVALUATIVE, FPTP, POSITIONAL


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


def integrate_ecdf(values, upto=1) -> Fraction:
    """Exact integral of the empirical CDF of `values` over [0, upto].

    Closed form for a step function: (1/n) * sum_i max(0, upto - v_i).
    """
    v = [Fraction(x) for x in np.asarray(values, dtype=object).ravel()]
    return sum((max(Fraction(0), Fraction(upto) - x) for x in v), Fraction(0)) / len(v)


def exact_scaled(matrix) -> np.ndarray:
    """Row by row, 1 - (a - lo)/(hi - lo) on the exact entries; constant rows score 1."""
    rows = []
    for row in matrix.entries:
        a = [Fraction(v) for v in row]
        lo, hi = min(a), max(a)
        rows.append([Fraction(1) if hi == lo else 1 - (v - lo) / (hi - lo) for v in a])
    return np.array(rows, dtype=object)


def stochastic_dominance(scores: np.ndarray, order: int = 1) -> np.ndarray:
    """[i, j] is True when column i dominates column j, checked on a grid.

    The grid holds every column's values and 1, which are all the points
    where an ECDF (order 1) or its running integral (order 2) changes slope
    or jumps. The integral is accumulated step by step along the grid.
    Scores are taken as exact (floats or Fractions).
    """
    n_rows, p = scores.shape
    columns = [sorted(Fraction(v) for v in scores[:, j]) for j in range(p)]
    grid = sorted(set().union(*columns, [Fraction(1)]))
    curves = []
    for col in columns:
        cdf = [Fraction(bisect_right(col, x), n_rows) for x in grid]
        if order == 2:
            # below the smallest value the ECDF is 0, so the integral starts at 0
            steps = (f * (b - a) for f, a, b in zip(cdf, grid, grid[1:]))
            cdf = list(accumulate(steps, initial=Fraction(0)))
        curves.append(cdf)
    dominates = np.zeros((p, p), dtype=bool)
    for i in range(p):
        for j in range(p):
            if i != j:
                pairs = list(zip(curves[i], curves[j]))
                dominates[i, j] = all(a <= b for a, b in pairs) and any(a < b for a, b in pairs)
    return dominates


def criteria(matrix) -> dict[str, list]:
    """The four systems' exact criteria per column, each oriented so that higher wins."""
    a = matrix.entries
    votes = []
    for row in a:
        share = Fraction(1, int((row == row.min()).sum()))
        votes.append([share if v == row.min() else Fraction(0) for v in row])
    scores = exact_scaled(matrix)
    ranks = np.vstack([midranks_desc(row) for row in a])
    return {
        FPTP: [sum(col, Fraction(0)) for col in zip(*votes)],
        POSITIONAL: [statistics.median(Fraction(r) for r in col) for col in ranks.T],
        EVALUATIVE: [statistics.median(col) for col in scores.T],
        ECDF_AUC: [-integrate_ecdf(col) for col in scores.T],
    }
