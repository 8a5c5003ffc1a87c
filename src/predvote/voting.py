"""Voting systems that elect a prediction strategy from an accuracy matrix.

Rows of the accuracy matrix act as voters, columns as candidates. Four
systems are implemented, differing in how a row is transformed and how the
per-candidate criterion is reduced:

  fptp        indicator of the row minimum (ties split fractionally),
              criterion = column sums, highest wins.
  positional  ranks P (best = row minimum) down to 1, midranks on ties,
              criterion = column medians, highest wins.
  evaluative  per-row min-max scores a' = 1 - (a - min)/(max - min),
              criterion = column medians, highest wins.
  ecdf_auc    same scored matrix; criterion = area under each column's
              empirical CDF over [0, 1], smallest wins.

Winners and dominance are decided on exact rationals of the accuracy
entries (fractions.Fraction): fptp shares 1/t, the scaled scores
1 - (a - lo)/(hi - lo), and the sums, medians and partial sums of their
columns. Different columns whose exact criteria are equal therefore tie,
and the reported criterion_values are float() of those exact values.
Positional midranks and their medians are exact in floating point. The
ECDF area has the closed form AUC = 1 - column mean for values in [0, 1].
First/second-order stochastic dominance is available as a diagnostic; for
columns of one length it compares sorted columns elementwise, or their
partial sums (Levy 1992, Management Science 38(4)). Dominance implies a
better ecdf_auc value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .accuracy import AccuracyMatrix, sorted_median

FPTP = "fptp"
POSITIONAL = "positional"
EVALUATIVE = "evaluative"
ECDF_AUC = "ecdf_auc"

TRANSFORM_FPTP = "fptp"
TRANSFORM_POSITIONAL = "positional"
TRANSFORM_SCALED = "scaled"

HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"


@dataclass
class VotingMatrix:
    """A transformed accuracy matrix.

    exact holds the exact scaled scores (an object array of Fraction) when
    scale_rows built the matrix; otherwise it is None and the float entries
    are taken as exact.
    """

    entries: np.ndarray
    transform: str
    row_labels: list
    col_labels: list[str]
    exact: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.entries = np.atleast_2d(np.asarray(self.entries, dtype=np.float64))
        if self.transform not in (TRANSFORM_FPTP, TRANSFORM_POSITIONAL, TRANSFORM_SCALED):
            raise ValueError(f"unknown transform {self.transform!r}")


@dataclass
class SelectionResult:
    """Criterion values per strategy and the (possibly tied) winner set."""

    system: str
    criterion_values: np.ndarray
    winners: tuple[str, ...]
    direction: str

    def __post_init__(self):
        if not self.winners:
            raise ValueError("winner set cannot be empty")


_fractions = np.vectorize(Fraction, otypes=[object])


def _winners(values: np.ndarray, names: list[str], direction: str) -> tuple[str, ...]:
    best = values.min() if direction == LOWER_BETTER else values.max()
    return tuple(name for name, v in zip(names, values) if v == best)


def _selection(system: str, exact: np.ndarray, names: list[str], direction: str) -> SelectionResult:
    """Winners decided on exact criteria, reported as float(exact)."""
    return SelectionResult(
        system=system,
        criterion_values=exact.astype(np.float64),
        winners=_winners(exact, names, direction),
        direction=direction,
    )


def fptp_vote(matrix: AccuracyMatrix) -> tuple[VotingMatrix, SelectionResult]:
    """First-past-the-post: each row gives its full single vote to the minimum."""
    a = matrix.entries
    ties = a == a.min(axis=1, keepdims=True)
    shares = np.array([Fraction(1, int(t)) for t in ties.sum(axis=1)], dtype=object)
    exact = ties * shares[:, None]  # 1/t on each of a row's t minima, 0 elsewhere
    result = _selection(FPTP, exact.sum(axis=0), matrix.col_labels, HIGHER_BETTER)
    voting = VotingMatrix(exact.astype(np.float64), TRANSFORM_FPTP, list(matrix.row_labels), list(matrix.col_labels))
    return voting, result


def positional_vote(matrix: AccuracyMatrix) -> tuple[VotingMatrix, SelectionResult]:
    """Positional voting: rank rows, choose the highest median rank.

    Ranks run from P for a row's minimum down to 1 for its maximum; tied
    entries share the midrank #greater + (#equal + 1) / 2.
    """
    a = matrix.entries
    greater = (a[:, None, :] > a[:, :, None]).sum(axis=2)
    equal = (a[:, None, :] == a[:, :, None]).sum(axis=2)
    w = greater + (equal + 1) / 2.0
    medians = sorted_median(np.sort(w, axis=0))
    result = _selection(POSITIONAL, medians, matrix.col_labels, HIGHER_BETTER)
    voting = VotingMatrix(w, TRANSFORM_POSITIONAL, list(matrix.row_labels), list(matrix.col_labels))
    return voting, result


def scale_rows(matrix: AccuracyMatrix) -> VotingMatrix:
    """Per-row scores a' = 1 - (a - min)/(max - min); constant rows score all 1.

    A constant row cannot discriminate between strategies, and every entry
    of it is a row minimum, so all strategies receive the top score.
    """
    a = matrix.entries
    lo = a.min(axis=1, keepdims=True)
    span = a.max(axis=1, keepdims=True) - lo
    scaled = np.ones_like(a)
    ok = span[:, 0] > 0
    scaled[ok] = 1.0 - (a[ok] - lo[ok]) / span[ok]
    exact = _fractions(a)
    lo, hi = exact.min(axis=1, keepdims=True), exact.max(axis=1, keepdims=True)
    exact_scaled = np.full(a.shape, Fraction(1), dtype=object)
    exact_scaled[ok] = 1 - (exact[ok] - lo[ok]) / (hi[ok] - lo[ok])
    w3 = VotingMatrix(scaled, TRANSFORM_SCALED, list(matrix.row_labels), list(matrix.col_labels))
    w3.exact = exact_scaled
    return w3


def _exact_scores(w3: VotingMatrix) -> np.ndarray:
    if w3.transform != TRANSFORM_SCALED:
        raise TypeError(f"expected a scaled voting matrix, got transform {w3.transform!r}")
    return _fractions(w3.entries) if w3.exact is None else w3.exact


def evaluative_vote(w3: VotingMatrix) -> SelectionResult:
    """Evaluative voting: highest column median of the scaled scores wins."""
    medians = sorted_median(np.sort(_exact_scores(w3), axis=0))
    return _selection(EVALUATIVE, medians, w3.col_labels, HIGHER_BETTER)


def ecdf_auc_vote(w3: VotingMatrix) -> SelectionResult:
    """ECDF-AUC voting: smallest area under the column ECDF over [0, 1] wins.

    For values in [0, 1] the area equals 1 - column mean exactly; an all-1
    column has area 0 (best everywhere), an all-0 column area 1.
    """
    scores = _exact_scores(w3)
    if np.any(w3.entries < 0) or np.any(w3.entries > 1):
        raise ValueError("scaled scores must lie in [0, 1]")
    aucs = 1 - scores.sum(axis=0) / scores.shape[0]
    return _selection(ECDF_AUC, aucs, w3.col_labels, LOWER_BETTER)


def elect(matrix: AccuracyMatrix) -> tuple[dict[str, SelectionResult], dict[str, VotingMatrix]]:
    """Run all four voting systems on one accuracy matrix.

    Returns the selections keyed by system, in the order fptp, positional,
    evaluative, ecdf_auc, and the voting matrices keyed "w1" (fptp
    indicators), "w2" (midranks) and "w3" (scaled scores).
    """
    w1, fptp = fptp_vote(matrix)
    w2, positional = positional_vote(matrix)
    w3 = scale_rows(matrix)
    results = (fptp, positional, evaluative_vote(w3), ecdf_auc_vote(w3))
    return {r.system: r for r in results}, {"w1": w1, "w2": w2, "w3": w3}


def ecdf_steps(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jump points (x, F(x)) of the empirical CDF of a score column."""
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    xs, counts = np.unique(v, return_counts=True)
    return xs, np.cumsum(counts) / v.size


def stochastic_dominance(w3: VotingMatrix, order: int = 1) -> np.ndarray:
    """P x P boolean relation: entry [i, j] marks column i dominating column j.

    Higher scores are better. First order: F_i <= F_j everywhere with strict
    inequality somewhere. Second order: the same on the running integrals of
    the ECDFs. Columns share one length, so with s_i column i sorted
    ascending, first order holds iff s_i >= s_j elementwise and s_i != s_j,
    and second order iff the same holds for the partial sums cumsum(s_i)
    (Levy 1992). Both are compared on the exact scores, so columns holding
    the same values never dominate each other and rounding neither creates
    nor hides a dominance. The relation is irreflexive and antisymmetric.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    s = np.sort(_exact_scores(w3), axis=0)
    p = s.shape[1]
    # the partial sums of s_i - s_j are streamed and checked as they grow:
    # their denominators lengthen with every row, and comparing two long
    # partial sums would cost far more than adding one short difference
    terms = accumulate if order == 2 else iter
    weakly = np.array(
        [[all(t >= 0 for t in terms(s[:, i] - s[:, j])) for j in range(p)] for i in range(p)],
        dtype=bool,
    )
    return weakly & ~weakly.T
