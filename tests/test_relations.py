"""Whole-election relations: each compares one run with another, so none pins a bit of its own.

Every relation holds exactly for the families used here (ols_normal,
regression_tree and knn, as generators and as strategies), whatever the
summation order inside a kernel:

- scaling the sample response by a power of two scales every accuracy entry
  and every final prediction by exactly that factor and leaves the voting
  matrices and the winners unchanged (multiplying by 2^m commutes with every
  rounding step, barring overflow and underflow)
- a renamed clone of a strategy gives an identical column that ties with it
  in every voting system, and leaves the other columns unchanged
- permuting the strategies permutes the columns
- appending a generator, a characteristic and a measure leaves every shared
  row unchanged

They sit next to test_extending_iterations_never_changes_an_earlier_cell,
which is the same kind of check. Each variant runs at workers 1 and 2 and is
held to the serial base run, since a run does not depend on its worker count.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from predvote.accuracy import Measure
from predvote.dataset import StudyFrame, synthesize_portfolio
from predvote.engine import RunConfig, run
from predvote.models import ModelSpec
from predvote.prediction import Characteristic, PredictionStrategy

DESIGNS = [(500, 2000, 1), (120, 300, 5), (60, 40, 9)]  # synthesize_portfolio(n, k, seed)
KNN_COLUMN = 4
BASE = RunConfig(
    generators=[ModelSpec("ols_normal"), ModelSpec("regression_tree"), ModelSpec("knn")],
    strategies=[
        PredictionStrategy("ols", ModelSpec("ols_normal")),
        PredictionStrategy("null", ModelSpec("ols_normal", {"intercept_only": True})),
        PredictionStrategy("tree", ModelSpec("regression_tree")),
        PredictionStrategy("tree3", ModelSpec("regression_tree", {"max_depth": 3})),
        PredictionStrategy("knn", ModelSpec("knn")),
    ],
    characteristics=[Characteristic("total"), Characteristic("median"), Characteristic("quantile", 0.9)],
    measures=[Measure("rmse"), Measure("qape", 0.5), Measure("qape", 0.95)],
    iterations=20,
    master_seed=3,
)
PERMUTATION = [3, 0, 4, 1, 2]
VARIANTS = {
    "base": BASE,
    "clone": dataclasses.replace(
        BASE, strategies=BASE.strategies + (PredictionStrategy("knn_copy", BASE.strategies[KNN_COLUMN].model),)
    ),
    "permuted": dataclasses.replace(BASE, strategies=[BASE.strategies[j] for j in PERMUTATION]),
    "voters": dataclasses.replace(
        BASE,
        generators=BASE.generators + (ModelSpec("lognormal"),),
        characteristics=BASE.characteristics + (Characteristic("mean"),),
        measures=BASE.measures + (Measure("qape", 0.75),),
    ),
}
SYSTEMS = ("fptp", "positional", "evaluative", "ecdf_auc")

pytestmark = [
    pytest.mark.parametrize("design", DESIGNS, ids=lambda d: "n{}_k{}_seed{}".format(*d)),
    pytest.mark.parametrize("workers", [1, 2]),
]


@lru_cache(maxsize=None)
def scaled_frame(design: tuple, c: float) -> StudyFrame:
    frame = synthesize_portfolio(*design)
    return StudyFrame(frame.x_sample, c * frame.y_sample, frame.x_out, frame.column_names)


@lru_cache(maxsize=None)
def election(design: tuple, workers: int, variant: str = "base", c: float = 1.0):
    """The run of one variant config on one design with its sample response scaled by c; each is run once."""
    return run(VARIANTS[variant], scaled_frame(design, c), workers=workers)


def voting_entries(out, transform: str) -> np.ndarray:
    return out.accuracy_matrix.entries if transform == "accuracy" else getattr(out, transform).entries


@pytest.mark.parametrize("c", [2.0, 0.25, 1024.0])
def test_power_of_two_scaling(design, workers, c):
    base, scaled = election(design, 1), election(design, workers, c=c)
    assert np.array_equal(scaled.accuracy_matrix.entries, c * base.accuracy_matrix.entries)
    for w in ("w1", "w2", "w3"):
        assert np.array_equal(voting_entries(scaled, w), voting_entries(base, w)), w
    for system in SYSTEMS:
        assert scaled.selections[system].winners == base.selections[system].winners, system
        assert np.array_equal(scaled.selections[system].criterion_values, base.selections[system].criterion_values)
    assert scaled.final_predictions.keys() == base.final_predictions.keys()
    for name, predicted in base.final_predictions.items():
        assert np.array_equal(scaled.final_predictions[name], c * predicted), name


def test_renamed_clone_ties_in_every_system(design, workers):
    base, cloned = election(design, 1), election(design, workers, "clone")
    for transform in ("accuracy", "w1", "w2", "w3"):
        entries = voting_entries(cloned, transform)
        assert np.array_equal(entries[:, -1], entries[:, KNN_COLUMN]), transform
    # a duplicate column moves no row's minimum or maximum, so the scaled scores stay as well
    for transform in ("accuracy", "w3"):
        assert np.array_equal(voting_entries(cloned, transform)[:, :-1], voting_entries(base, transform)), transform
    for system in SYSTEMS:
        selection = cloned.selections[system]
        assert selection.criterion_values[-1] == selection.criterion_values[KNN_COLUMN], system
        assert ("knn_copy" in selection.winners) == ("knn" in selection.winners), system
    if "knn_copy" in cloned.final_predictions:
        assert np.array_equal(cloned.final_predictions["knn_copy"], cloned.final_predictions["knn"])


def test_permuting_strategies_permutes_columns(design, workers):
    base, permuted = election(design, 1), election(design, workers, "permuted")
    for transform in ("accuracy", "w1", "w2", "w3"):
        assert np.array_equal(voting_entries(permuted, transform), voting_entries(base, transform)[:, PERMUTATION])
    for system in SYSTEMS:
        assert set(permuted.selections[system].winners) == set(base.selections[system].winners), system
        assert np.array_equal(
            permuted.selections[system].criterion_values, base.selections[system].criterion_values[PERMUTATION]
        )
    assert permuted.final_predictions.keys() == base.final_predictions.keys()
    for name, predicted in base.final_predictions.items():
        assert np.array_equal(permuted.final_predictions[name], predicted), name


def test_appending_voters_leaves_every_shared_row(design, workers):
    base, extended = election(design, 1), election(design, workers, "voters")
    labels = extended.accuracy_matrix.row_labels
    # the generator labels carry the 1-based position, so the appended generator's rows are new labels
    shared = [labels.index(label) for label in base.accuracy_matrix.row_labels]
    assert len(labels) == 4 * 4 * 4 and len(shared) == 3 * 3 * 3
    for transform in ("accuracy", "w1", "w2", "w3"):
        assert np.array_equal(voting_entries(extended, transform)[shared], voting_entries(base, transform)), transform
