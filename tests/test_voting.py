import numpy as np
import pytest

import reference_fixture as ref
import voting_oracle as oracle
from predvote.accuracy import AccuracyMatrix
from predvote.voting import (
    ECDF_AUC,
    EVALUATIVE,
    FPTP,
    HIGHER_BETTER,
    LOWER_BETTER,
    POSITIONAL,
    TRANSFORM_SCALED,
    VotingMatrix,
    ecdf_auc_vote,
    ecdf_steps,
    elect,
    evaluative_vote,
    fptp_vote,
    positional_vote,
    scale_rows,
    stochastic_dominance,
)


def matrix_of(entries, cols=None):
    entries = np.atleast_2d(np.asarray(entries, dtype=float))
    cols = cols or [f"s{i + 1}" for i in range(entries.shape[1])]
    return AccuracyMatrix(
        entries=entries,
        row_labels=[f"r{i + 1}" for i in range(entries.shape[0])],
        col_labels=cols,
    )


def scaled_of(entries, cols=None):
    entries = np.atleast_2d(np.asarray(entries, dtype=float))
    cols = cols or [f"s{i + 1}" for i in range(entries.shape[1])]
    return VotingMatrix(
        entries=entries,
        transform=TRANSFORM_SCALED,
        row_labels=[f"r{i + 1}" for i in range(entries.shape[0])],
        col_labels=cols,
    )


class TestReferenceRows:
    """The hand-checked reference rows must reproduce under all three transforms."""

    def reference_matrix(self):
        return AccuracyMatrix(
            entries=ref.ACCURACY_ROWS.copy(),
            row_labels=list(ref.ROW_LABELS),
            col_labels=list(ref.STRATEGIES),
        )

    def test_w1_rows_exact(self):
        w1, _ = fptp_vote(self.reference_matrix())
        assert np.array_equal(w1.entries, ref.W1_EXPECTED)

    def test_w2_rows_exact(self):
        w2, _ = positional_vote(self.reference_matrix())
        assert np.array_equal(w2.entries, ref.W2_EXPECTED)

    def test_w3_rows_within_rounding_tolerance(self):
        w3 = scale_rows(self.reference_matrix())
        assert np.max(np.abs(w3.entries - ref.W3_EXPECTED)) <= ref.W3_TOLERANCE

    def test_first_row_scaled_values(self):
        w3 = scale_rows(matrix_of(ref.ACCURACY_ROWS[0]))
        expected = [1.000, 0.000, 0.999, 0.437, 0.147, 0.406]
        assert np.allclose(w3.entries[0], expected, atol=5e-4)


class TestFptp:
    def test_single_minimum_gets_full_vote(self):
        w1, result = fptp_vote(matrix_of(ref.ACCURACY_ROWS[0], cols=ref.STRATEGIES))
        assert np.array_equal(w1.entries[0], [1, 0, 0, 0, 0, 0])
        assert result.winners == ("strategy1",)

    def test_tie_split_fractionally(self):
        w1, _ = fptp_vote(matrix_of([5.0, 5.0, 9.0]))
        assert np.array_equal(w1.entries[0], [0.5, 0.5, 0.0])

    def test_each_row_casts_exactly_one_vote(self):
        # t tied entries each hold exactly 1/t; the float row sum can sit one
        # ulp from 1 when 1/t is not a binary fraction
        rng = np.random.default_rng(0)
        entries = rng.uniform(0.0, 1.0, size=(30, 6))
        entries[5, :3] = 0.0  # three-way tie row
        entries[9, :] = 2.0  # full-row tie
        w1, _ = fptp_vote(matrix_of(entries))
        for row in w1.entries:
            t = int(np.count_nonzero(row))
            assert np.all(row[row > 0] == 1.0 / t)
            assert abs(row.sum() - 1.0) <= 4e-16

    def test_criterion_is_column_sum_and_direction(self):
        matrix = matrix_of([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]])
        _, result = fptp_vote(matrix)
        assert result.system == FPTP
        assert result.direction == HIGHER_BETTER
        assert np.array_equal(result.criterion_values, [2.0, 1.0])
        assert result.winners == ("s1",)


class TestPositional:
    def test_reference_first_row_ranks(self):
        w2, _ = positional_vote(matrix_of(ref.ACCURACY_ROWS[0]))
        assert np.array_equal(w2.entries[0], [6, 1, 5, 4, 2, 3])

    def test_midranks_on_ties(self):
        w2, _ = positional_vote(matrix_of([1.0, 1.0, 3.0]))
        assert np.array_equal(w2.entries[0], [2.5, 2.5, 1.0])

    def test_row_sum_invariant(self):
        rng = np.random.default_rng(1)
        entries = rng.integers(0, 4, size=(40, 5)).astype(float)  # plenty of ties
        w2, _ = positional_vote(matrix_of(entries))
        assert np.allclose(w2.entries.sum(axis=1), 5 * 6 / 2)

    def test_median_criterion_and_cowinners(self):
        matrix = matrix_of([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
        _, result = positional_vote(matrix)
        assert result.system == POSITIONAL
        assert np.array_equal(result.criterion_values, [2.5, 2.5, 1.0])
        assert result.winners == ("s1", "s2")

    def test_median_criterion_equals_numpy_median_of_midranks(self):
        rng = np.random.default_rng(9)
        for i in range(400):
            rows, cols = int(rng.integers(1, 41)), int(rng.integers(2, 9))
            entries = rng.integers(0, 4, size=(rows, cols)).astype(float)  # ties give half-integer midranks
            w2, result = positional_vote(matrix_of(entries))
            assert np.array_equal(result.criterion_values, np.median(w2.entries, axis=0)), i

    def test_matches_scipy_rankdata(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        for _ in range(50):
            row = rng.integers(0, 6, size=7).astype(float)
            w2, _ = positional_vote(matrix_of(row))
            expected = 7 + 1 - scipy_stats.rankdata(row, method="average")
            assert np.allclose(w2.entries[0], expected)


class TestScaleRows:
    def test_constant_row_scores_all_one(self):
        w3 = scale_rows(matrix_of([7.0, 7.0, 7.0]))
        assert np.array_equal(w3.entries[0], [1.0, 1.0, 1.0])

    def test_two_point_row(self):
        w3 = scale_rows(matrix_of([0.0, 1.0]))
        assert np.array_equal(w3.entries[0], [1.0, 0.0])

    def test_nondegenerate_rows_attain_zero_and_one(self):
        rng = np.random.default_rng(2)
        w3 = scale_rows(matrix_of(rng.uniform(1.0, 9.0, size=(25, 4))))
        assert np.all(w3.entries.max(axis=1) == 1.0)
        assert np.all(w3.entries.min(axis=1) == 0.0)
        assert np.all((w3.entries >= 0.0) & (w3.entries <= 1.0))


class TestEvaluative:
    def test_all_ones_column_wins(self):
        scores = np.column_stack([np.ones(5), np.linspace(0, 0.9, 5)])
        result = evaluative_vote(scaled_of(scores))
        assert result.system == EVALUATIVE
        assert result.winners == ("s1",)
        assert result.criterion_values[0] == 1.0

    def test_symmetric_tie(self):
        result = evaluative_vote(scaled_of([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(result.criterion_values, [0.5, 0.5])
        assert result.winners == ("s1", "s2")

    def test_transform_mismatch_rejected(self):
        w1, _ = fptp_vote(matrix_of([[1.0, 2.0]]))
        with pytest.raises(TypeError, match="scaled"):
            evaluative_vote(w1)


class TestEcdfAuc:
    def test_boundary_columns(self):
        scores = np.column_stack([np.ones(6), np.zeros(6)])
        result = ecdf_auc_vote(scaled_of(scores))
        assert result.system == ECDF_AUC
        assert result.direction == LOWER_BETTER
        assert np.array_equal(result.criterion_values, [0.0, 1.0])
        assert result.winners == ("s1",)

    def test_hand_column(self):
        result = ecdf_auc_vote(scaled_of(np.array([[0.2], [0.4], [0.9]])))
        assert result.criterion_values[0] == pytest.approx(0.5)

    def test_identity_matches_step_integration(self):
        # independent route: the exact area under the step curve of the column
        rng = np.random.default_rng(3)
        for _ in range(200):
            scores = rng.uniform(0.0, 1.0, size=(rng.integers(2, 30), 3))
            result = ecdf_auc_vote(scaled_of(scores))
            for j in range(3):
                col = scores[:, j]
                area = oracle.integrate_ecdf(col)
                assert abs(area - (1.0 - col.mean())) < 1e-12
                assert result.criterion_values[j] == float(area)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ecdf_auc_vote(scaled_of([[0.5, 1.2]]))

    def test_steps_shape(self):
        xs, cdf = ecdf_steps(np.array([0.3, 0.3, 0.7]))
        assert np.array_equal(xs, [0.3, 0.7])
        assert np.allclose(cdf, [2 / 3, 1.0])


class TestStochasticDominance:
    def test_shifted_column_dominates(self):
        rng = np.random.default_rng(4)
        base = rng.uniform(0.0, 0.8, size=20)
        scores = np.column_stack([np.minimum(base + 0.1, 1.0), base])
        dom = stochastic_dominance(scaled_of(scores), order=1)
        assert dom[0, 1] and not dom[1, 0]

    def test_identical_columns_no_dominance(self):
        rng = np.random.default_rng(5)
        col = rng.uniform(0.0, 1.0, size=15)
        dom = stochastic_dominance(scaled_of(np.column_stack([col, col])), order=1)
        assert not dom.any()

    def test_irreflexive_antisymmetric(self):
        rng = np.random.default_rng(6)
        for order in (1, 2):
            scores = rng.uniform(0.0, 1.0, size=(12, 4))
            dom = stochastic_dominance(scaled_of(scores), order=order)
            assert not dom.diagonal().any()
            assert not (dom & dom.T).any()

    def test_fsd_implies_ssd(self):
        rng = np.random.default_rng(7)
        found = 0
        for _ in range(60):
            scores = rng.uniform(0.0, 1.0, size=(6, 3))
            if rng.random() < 0.5:  # engineer likely-dominating pairs
                scores[:, 0] = np.minimum(scores[:, 1] + rng.uniform(0.0, 0.3), 1.0)
            w3 = scaled_of(scores)
            fsd = stochastic_dominance(w3, order=1)
            ssd = stochastic_dominance(w3, order=2)
            assert not (fsd & ~ssd).any()
            found += int(fsd.any())
        assert found > 0

    def test_fsd_implies_better_auc_and_weakly_better_median(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(80):
            scores = rng.uniform(0.0, 1.0, size=(8, 3))
            if rng.random() < 0.5:
                scores[:, 2] = np.minimum(scores[:, 0] + rng.uniform(0.0, 0.4), 1.0)
            w3 = scaled_of(scores)
            fsd = stochastic_dominance(w3, order=1)
            aucs = ecdf_auc_vote(w3).criterion_values
            medians = evaluative_vote(w3).criterion_values
            for i in range(3):
                for j in range(3):
                    if fsd[i, j]:
                        checked += 1
                        assert aucs[i] < aucs[j]
                        assert medians[i] >= medians[j]
        assert checked > 0


def all_winner_sets(matrix):
    _, fptp_result = fptp_vote(matrix)
    _, positional_result = positional_vote(matrix)
    w3 = scale_rows(matrix)
    return {
        FPTP: set(fptp_result.winners),
        POSITIONAL: set(positional_result.winners),
        EVALUATIVE: set(evaluative_vote(w3).winners),
        ECDF_AUC: set(ecdf_auc_vote(w3).winners),
    }


class TestInvariances:
    def test_rank_systems_invariant_under_monotone_row_transforms(self):
        rng = np.random.default_rng(9)
        entries = rng.uniform(1.0, 5.0, size=(12, 4))
        base_w1, base_f = fptp_vote(matrix_of(entries))
        base_w2, base_p = positional_vote(matrix_of(entries))

        transformed = entries.copy()
        transformed[::2] = np.exp(transformed[::2])  # strictly increasing, non-affine
        transformed[1::2] = transformed[1::2] ** 3
        w1, f = fptp_vote(matrix_of(transformed))
        w2, p = positional_vote(matrix_of(transformed))
        assert np.array_equal(base_w1.entries, w1.entries)
        assert np.array_equal(base_w2.entries, w2.entries)
        assert base_f.winners == f.winners
        assert base_p.winners == p.winners

    def test_scored_matrix_invariant_under_affine_row_transforms(self):
        rng = np.random.default_rng(10)
        entries = rng.uniform(1.0, 5.0, size=(10, 5))
        scales = rng.uniform(0.5, 3.0, size=(10, 1))
        shifts = rng.uniform(-2.0, 2.0, size=(10, 1))
        base = scale_rows(matrix_of(entries))
        transformed = scale_rows(matrix_of(entries * scales + shifts))
        assert np.allclose(base.entries, transformed.entries, atol=1e-12)
        assert all_winner_sets(matrix_of(entries)) == all_winner_sets(matrix_of(entries * scales + shifts))

    def test_row_permutation_leaves_criteria_unchanged(self):
        rng = np.random.default_rng(11)
        entries = rng.uniform(0.0, 9.0, size=(14, 4))
        perm = rng.permutation(14)
        base = matrix_of(entries)
        permuted = matrix_of(entries[perm])
        _, bf = fptp_vote(base)
        _, pf = fptp_vote(permuted)
        assert np.array_equal(bf.criterion_values, pf.criterion_values)
        _, bp = positional_vote(base)
        _, pp = positional_vote(permuted)
        assert np.array_equal(bp.criterion_values, pp.criterion_values)
        assert all_winner_sets(base) == all_winner_sets(permuted)
        # voting-matrix rows permute along
        w3_base = scale_rows(base).entries
        w3_perm = scale_rows(permuted).entries
        assert np.array_equal(w3_base[perm], w3_perm)

    def test_column_relabel_equivariance(self):
        rng = np.random.default_rng(12)
        entries = rng.uniform(0.0, 9.0, size=(9, 4))
        names = ["a", "b", "c", "d"]
        perm = [2, 0, 3, 1]
        base = matrix_of(entries, cols=names)
        permuted = matrix_of(entries[:, perm], cols=[names[j] for j in perm])
        for vote in (fptp_vote, positional_vote):
            _, rb = vote(base)
            _, rp = vote(permuted)
            assert np.allclose(rb.criterion_values[perm], rp.criterion_values)
            assert set(rb.winners) == set(rp.winners)
        assert all_winner_sets(base) == all_winner_sets(permuted)


def random_matrix(rng, k):
    """Small S x P matrix: uniform values, or multiples of 1/8 with exact ties."""
    shape = (int(rng.integers(2, 9)), int(rng.integers(2, 6)))
    if k % 2 == 0:
        return rng.uniform(0.0, 1.0, size=shape)
    return rng.integers(0, 9, size=shape) / 8.0


def exact_winners(matrix, values) -> set:
    return {name for name, v in zip(matrix.col_labels, values) if v == max(values)}


class TestOracles:
    def test_agrees_with_oracles_on_random_matrices(self):
        rng = np.random.default_rng(13)
        dominating = [0, 0]
        for k in range(2000):
            entries = random_matrix(rng, k)
            matrix = matrix_of(entries)
            selections, matrices = elect(matrix)
            expected_w2 = np.vstack([oracle.midranks_desc(row) for row in entries])
            assert np.array_equal(matrices["w2"].entries, expected_w2)
            for system, values in oracle.criteria(matrix).items():
                result = selections[system]
                sign = -1 if result.direction == LOWER_BETTER else 1
                assert np.array_equal(result.criterion_values, [float(sign * v) for v in values])
                assert set(result.winners) == exact_winners(matrix, values)
            exact_w3 = oracle.exact_scaled(matrix)
            for order in (1, 2):
                dom = stochastic_dominance(scaled_of(entries), order=order)
                assert np.array_equal(dom, oracle.stochastic_dominance(entries, order))
                dominating[order - 1] += int(dom.any())
                dom_w3 = stochastic_dominance(matrices["w3"], order=order)
                assert np.array_equal(dom_w3, oracle.stochastic_dominance(exact_w3, order))
        assert min(dominating) > 1000

    def test_exact_ties_on_eighths(self):
        # multiples of 1/8 give many different columns with equal exact
        # criteria; deciding on floats missed 3 ECDF-AUC ties and 1
        # evaluative tie in these 10,000 matrices
        rng = np.random.default_rng(15)
        distinct_ties = 0
        for k in range(10_000):
            matrix = matrix_of(random_matrix(rng, 2 * k + 1))
            selections, matrices = elect(matrix)
            for system, values in oracle.criteria(matrix).items():
                assert set(selections[system].winners) == exact_winners(matrix, values)
            w3 = np.sort(matrices["w3"].entries, axis=0)
            auc_winners = [matrix.col_labels.index(name) for name in selections[ECDF_AUC].winners]
            distinct_ties += len({tuple(w3[:, j]) for j in auc_winners}) > 1
        # ECDF-AUC winner sets that hold columns with different values
        assert distinct_ties >= 50

    def test_equal_area_columns_tie(self):
        # exact scaled columns s1 and s4 both sum to 3.85 + 2/3; their float
        # sums differ in the last bit, the exact areas do not
        entries = np.array([
            [3, 6, 6, 3, 1], [2, 0, 3, 6, 8], [6, 3, 6, 2, 0], [2, 8, 8, 1, 8],
            [5, 8, 3, 2, 8], [6, 7, 6, 8, 5], [0, 8, 7, 0, 5], [7, 5, 2, 8, 1],
        ]) / 8.0
        assert ecdf_auc_vote(scale_rows(matrix_of(entries))).winners == ("s1", "s4")


class TestRowOrder:
    """Criteria and diagnostics depend on a column's values, not on their row order."""

    def test_fptp_ties_columns_with_the_same_votes(self):
        # all three columns receive the votes 1, 1/2, 1/2, 1/3, 1/3, 0, 0, 0
        entries = [[1, 0, 2], [1, 1, 2], [0, 2, 0], [2, 1, 1], [1, 1, 1], [0, 1, 2], [2, 2, 1], [2, 2, 2]]
        w1, result = fptp_vote(matrix_of(entries))
        assert all(sorted(col) == sorted(w1.entries[:, 0]) for col in w1.entries.T)
        assert result.criterion_values[0] == result.criterion_values[1] == result.criterion_values[2]
        assert result.winners == ("s1", "s2", "s3")

    @staticmethod
    def permuted_pairs():
        rng = np.random.default_rng(14)
        for _ in range(200):
            col = rng.uniform(0.0, 1.0, size=int(rng.integers(3, 40)))
            yield scaled_of(np.column_stack([col, rng.permutation(col)]))

    def test_permuted_column_ties_under_ecdf_auc(self):
        for w3 in self.permuted_pairs():
            result = ecdf_auc_vote(w3)
            assert result.criterion_values[0] == result.criterion_values[1]
            assert result.winners == ("s1", "s2")

    def test_permuted_column_never_dominates(self):
        for w3 in self.permuted_pairs():
            for order in (1, 2):
                assert not stochastic_dominance(w3, order=order).any()
