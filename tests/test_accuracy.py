import math
import statistics
import warnings
from fractions import Fraction

import numpy as np
import pytest

import accuracy_oracle as oracle
from predvote.accuracy import (
    AccuracyMatrix,
    ErrorTensor,
    Measure,
    build_accuracy_matrix,
    eval_measures,
    qape,
    rmse,
    sorted_median,
)
from predvote.errors import DataError


class TestSortedMedian:
    def test_equals_numpy_median_bit_for_bit(self):
        rng = np.random.default_rng(41)
        sizes = [*range(1, 1201), *rng.integers(1201, 3001, size=899).tolist(), 3000]
        for i, n in enumerate(sizes):
            values = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6)
            if i % 4 == 1:
                values = np.round(values, 1)  # rounded values, many ties
            elif i % 4 == 2:
                values[: n // 2] = values[-1]  # a constant half
            elif i % 4 == 3:
                values = rng.integers(0, 4, n).astype(np.float64)
            assert np.array_equal(sorted_median(np.sort(values)), np.median(values)), (i, n)

    def test_middle_value_or_midpoint(self):
        assert sorted_median(np.array([1.0, 2.0, 7.0])) == 2.0
        assert sorted_median(np.array([1.0, 2.0, 7.0, 9.0])) == 4.5

    def test_exact_on_fractions(self):
        rng = np.random.default_rng(43)
        for n in range(1, 40):
            column = np.array([Fraction(int(v), 8) for v in rng.integers(0, 9, n)], dtype=object)
            assert sorted_median(np.sort(column)) == statistics.median(column)


class TestRmse:
    def test_zero_errors(self):
        assert rmse([0.0, 0.0, 0.0]) == 0.0

    def test_hand_value(self):
        assert rmse([3.0, -4.0]) == pytest.approx(math.sqrt((9 + 16) / 2))

    def test_constant_error_is_magnitude(self):
        assert rmse([-2.5] * 7) == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse([])

    def test_jensen_bound_against_mean_abs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            e = rng.standard_normal(rng.integers(1, 50))
            assert rmse(e) >= np.mean(np.abs(e)) - 1e-12

    def test_direct_formula_whenever_it_is_finite(self):
        rng = np.random.default_rng(4)
        for scale in (1e-300, 1.0, 1e150):
            e = scale * rng.standard_normal(200)
            assert rmse(e) == float(np.sqrt(np.mean(e**2))), scale

    @pytest.mark.parametrize("errors", [[1e155, -1e155], [1e300, 3.0, -2e299]])
    def test_finite_when_the_squares_overflow(self, errors):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = rmse(errors)
        exact = math.sqrt(math.fsum((e / errors[0]) ** 2 for e in errors) / len(errors)) * errors[0]
        assert math.isfinite(value)
        assert value == pytest.approx(exact, rel=1e-15)

    @pytest.mark.parametrize("m", [520, 600, 900])
    def test_scales_exactly_when_the_squares_overflow(self, m):
        # the overflow fallback once divided by max |e|, which is not exact: 231 of these 600 cases were off
        rng = np.random.default_rng(0)
        for _ in range(200):
            e = rng.standard_normal(rng.integers(2, 50))
            assert rmse(e * 2.0**m) == rmse(e) * 2.0**m


class TestQape:
    def test_median_of_five(self):
        # ceil(0.5 * 5) = 3rd order statistic of |errors|
        assert qape([1.0, -2.0, 3.0, -4.0, 5.0], 0.5) == 3.0

    def test_p95_of_hundred(self):
        values = np.arange(1.0, 101.0)
        np.random.default_rng(1).shuffle(values)
        assert qape(values, 0.95) == 95.0

    def test_singleton(self):
        assert qape([-7.0], 0.5) == 7.0

    def test_bruteforce_inf_definition(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            e = rng.standard_normal(rng.integers(1, 60))
            p = rng.uniform(0.01, 0.99)
            abs_sorted = np.sort(np.abs(e))
            oracle = next(x for x in abs_sorted if np.mean(np.abs(e) <= x) >= p)
            assert qape(e, p) == oracle

    def test_monotone_in_p(self):
        rng = np.random.default_rng(3)
        e = rng.standard_normal(41)
        values = [qape(e, p) for p in np.linspace(0.05, 0.95, 19)]
        assert np.all(np.diff(values) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            qape([], 0.5)
        with pytest.raises(ValueError):
            qape([1.0], 0.0)
        with pytest.raises(ValueError):
            qape([1.0], 1.0)


class TestMeasure:
    def test_labels(self):
        assert Measure("rmse").label == "rmse"
        assert Measure("qape", 0.5).label == "qape0.5"
        assert Measure("qape", 0.95).label == "qape0.95"

    def test_validation(self):
        with pytest.raises(ValueError):
            Measure("mae")
        with pytest.raises(ValueError):
            Measure("qape")
        with pytest.raises(ValueError):
            Measure("rmse", 0.5)

    @pytest.mark.parametrize("p", ["0.5", True, float("nan"), [0.5]])
    def test_non_number_p_is_value_error(self, p):
        with pytest.raises(ValueError, match="qape"):
            Measure("qape", p)

    def test_numpy_p_stored_as_float(self):
        measure = Measure("qape", np.float64(0.95))
        assert type(measure.p) is float and measure.p == 0.95 and measure.label == "qape0.95"


def tensor_from(values, mask=None):
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.zeros((values.shape[0], values.shape[1], values.shape[3]), dtype=bool)
    return ErrorTensor(values=values, failure_mask=np.asarray(mask, dtype=bool))


def labels_for(values):
    """Generator, characteristic and strategy labels g1.., c1.., p1.. for an error tensor's shape."""
    g, _, c, p = np.shape(values)
    return [f"g{i + 1}" for i in range(g)], [f"c{i + 1}" for i in range(c)], [f"p{i + 1}" for i in range(p)]


class TestEvalMeasures:
    MEASURES = [Measure("rmse"), Measure("qape", 0.5), Measure("qape", 0.95), Measure("qape", 0.05)]

    def test_matches_the_per_entry_oracle(self):
        rng = np.random.default_rng(24)
        for i in range(60):
            g, b, c, p = (int(v) for v in rng.integers([1, 2, 1, 2], [4, 9, 4, 5]))
            values = rng.standard_normal((g, b, c, p)) * 10.0 ** rng.uniform(-3, 3)
            if i % 3 == 1:
                values = np.round(values, 0)  # many ties, zeros among them
            elif i % 3 == 2:
                values[0, :, 0, 0] = 1e155 * (-1.0) ** np.arange(b)  # the squares overflow
            mask = rng.random((g, b, p)) < 0.3
            mask[:, :2, :] = False  # at least two survivors per (generator, strategy)
            mask[:, :, 0] = False  # keeps the overflow vector whole
            values[np.broadcast_to(mask[:, :, None, :], values.shape)] = np.nan
            tensor, labels = tensor_from(values, mask), labels_for(values)
            measures = [self.MEASURES[j] for j in rng.permutation(4)[: rng.integers(1, 5)]]
            matrix = build_accuracy_matrix(tensor, measures, *labels)
            entries, row_labels = oracle.accuracy_matrix(tensor, measures, *labels)
            assert np.array_equal(matrix.entries, entries), i
            assert matrix.row_labels == row_labels and matrix.col_labels == labels[2]

    def test_one_sort_per_error_vector_and_none_without_a_qape(self, monkeypatch):
        sorts = []
        sort = np.sort

        def counting_sort(*args, **kwargs):
            sorts.append(args)
            return sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        values = np.random.default_rng(6).standard_normal((2, 7, 3, 4))
        build_accuracy_matrix(tensor_from(values), self.MEASURES, *labels_for(values))
        assert len(sorts) == 2 * 3 * 4
        sorts.clear()
        build_accuracy_matrix(tensor_from(values), [Measure("rmse")], *labels_for(values))
        assert sorts == []

    def test_rmse_and_qape_equal_their_entries_bit_for_bit(self):
        rng = np.random.default_rng(9)
        vectors = [rng.standard_normal(int(n)) * 10.0 ** rng.uniform(-5, 5) for n in rng.integers(1, 80, 100)]
        vectors += [np.array([1e155, -1e155]), np.array([1e300, 3.0, -2e299]), np.round(rng.standard_normal(50))]
        for e in vectors:
            got = eval_measures(self.MEASURES, e)
            want = [rmse(e), *(qape(e, m.p) for m in self.MEASURES[1:])]
            assert got.tobytes() == np.array(want).tobytes()

    def test_checks_the_vector_once_for_every_measure(self):
        with pytest.raises(ValueError, match="^rmse and qape of an empty error vector$"):
            eval_measures(self.MEASURES, [])
        with pytest.raises(ValueError, match="^rmse and qape: errors contain non-finite values$"):
            eval_measures(self.MEASURES, [1.0, np.inf])


class TestBuildAccuracyMatrix:
    def test_hand_example(self):
        # G=1, C=1, B=3, P=2: errors (1,1,1) and (0,0,3)
        values = np.zeros((1, 3, 1, 2))
        values[0, :, 0, 0] = [1.0, 1.0, 1.0]
        values[0, :, 0, 1] = [0.0, 0.0, 3.0]
        matrix = build_accuracy_matrix(tensor_from(values), [Measure("rmse")], *labels_for(values))
        assert np.allclose(matrix.entries, [[1.0, math.sqrt(3.0)]])

    def test_dimension_product(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((2, 5, 2, 3))
        matrix = build_accuracy_matrix(
            tensor_from(values), [Measure("rmse"), Measure("qape", 0.5), Measure("qape", 0.95)], *labels_for(values)
        )
        assert matrix.shape == (12, 3)

    def test_case_study_dimensions(self):
        # G=6, C=2, M=3 gives S=36 rows; P=6 columns
        rng = np.random.default_rng(1)
        values = rng.standard_normal((6, 8, 2, 6))
        matrix = build_accuracy_matrix(
            tensor_from(values), [Measure("rmse"), Measure("qape", 0.5), Measure("qape", 0.95)], *labels_for(values)
        )
        assert matrix.shape == (36, 6)

    def test_row_order_measure_major_then_characteristic_then_generator(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((2, 4, 2, 2))
        matrix = build_accuracy_matrix(
            tensor_from(values),
            [Measure("rmse"), Measure("qape", 0.5)],
            generator_labels=["gA", "gB"],
            characteristic_labels=["cA", "cB"],
            strategy_names=["p1", "p2"],
        )
        assert matrix.row_labels == [
            ("gA", "cA", "rmse"),
            ("gB", "cA", "rmse"),
            ("gA", "cB", "rmse"),
            ("gB", "cB", "rmse"),
            ("gA", "cA", "qape0.5"),
            ("gB", "cA", "qape0.5"),
            ("gA", "cB", "qape0.5"),
            ("gB", "cB", "qape0.5"),
        ]

    def test_iteration_permutation_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((2, 30, 2, 3))
        measures = [Measure("rmse"), Measure("qape", 0.7)]
        base = build_accuracy_matrix(tensor_from(values), measures, *labels_for(values))
        perm = rng.permutation(30)
        shuffled = build_accuracy_matrix(tensor_from(values[:, perm]), measures, *labels_for(values))
        assert np.allclose(base.entries, shuffled.entries)

    def test_scaling_errors_scales_entries(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((1, 20, 1, 2))
        measures = [Measure("rmse"), Measure("qape", 0.5)]
        base = build_accuracy_matrix(tensor_from(values), measures, *labels_for(values))
        scaled = build_accuracy_matrix(tensor_from(3.5 * values), measures, *labels_for(values))
        assert np.allclose(scaled.entries, 3.5 * base.entries)

    def test_masked_iterations_excluded(self):
        values = np.zeros((1, 4, 1, 2))
        values[0, :, 0, 0] = [1.0, 100.0, 1.0, 1.0]
        values[0, :, 0, 1] = [2.0, 2.0, 2.0, 2.0]
        mask = np.zeros((1, 4, 2), dtype=bool)
        mask[0, 1, 0] = True  # drop the 100.0 for strategy 1 only
        matrix = build_accuracy_matrix(tensor_from(values, mask), [Measure("rmse")], *labels_for(values))
        assert np.allclose(matrix.entries, [[1.0, 2.0]])

    def test_too_few_survivors_is_assembly_error(self):
        values = np.zeros((1, 3, 1, 2))
        mask = np.zeros((1, 3, 2), dtype=bool)
        mask[0, :2, 1] = True
        with pytest.raises(DataError, match=r"strategy 'p2'"):
            build_accuracy_matrix(
                tensor_from(values, mask), [Measure("rmse")],
                generator_labels=["g1"], characteristic_labels=["c1"], strategy_names=["p1", "p2"],
            )

    def test_entries_nonnegative_enforced(self):
        with pytest.raises(DataError, match="nonnegative"):
            AccuracyMatrix(entries=[[1.0, -0.5]], row_labels=["r"], col_labels=["a", "b"])

    def test_effective_iterations(self):
        mask = np.zeros((1, 5, 2), dtype=bool)
        mask[0, :3, 1] = True
        tensor = tensor_from(np.zeros((1, 5, 1, 2)), mask)
        assert tensor.effective_iterations().tolist() == [[5, 2]]

    def test_masked_nonfinite_entries_tolerated(self):
        values = np.zeros((1, 2, 1, 2))
        values[0, 0, 0, 1] = np.nan
        mask = np.zeros((1, 2, 2), dtype=bool)
        mask[0, 0, 1] = True
        tensor_from(values, mask)  # must not raise
        with pytest.raises(ValueError, match="finite"):
            tensor_from(values)  # unmasked NaN must raise
