import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevote import (
    DecisionStump,
    Dataset,
    Ensemble,
    UndefinedMetricError,
    WeightVector,
    accuracy,
    auc,
    bias_correct,
    predict_scores,
)
from sparsevote import evaluation
from sparsevote.seeding import rng_from

from oracles import (
    accuracy_by_counting,
    auc_pairwise,
    best_offset_exhaustive,
)

# Frozen 20-point instance (seed 99, scores rounded to one decimal so ties
# occur); pairwise oracle gives 0.595.
AUC_SCORES = np.array([
    0.1, -0.5, 0.1, 0.7, -1.8, 1.7, -0.5, -0.6, -1.0, 0.9,
    0.7, 1.2, 0.9, 0.3, 0.3, 0.9, -0.9, -0.0, 0.4, -0.5,
])
AUC_LABELS = np.array([
    -1, -1, -1, 1, -1, -1, 1, 1, -1, -1, -1, 1, 1, 1, 1, 1, -1, 1, -1, 1,
], dtype=np.float64)
AUC_EXPECTED = 0.595


def random_scores(seed, n, ties=False):
    rng = rng_from(seed)
    scores = rng.normal(size=n)
    if ties:
        scores = np.round(scores, 1)
    labels = rng.choice([-1.0, 1.0], size=n)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return scores, labels


class TestPredictScores:
    def test_single_stump_weight_one(self):
        data = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, -1.0, 1.0]))
        stump = DecisionStump(0, 0.5, 1)
        ens = Ensemble((stump,), WeightVector(np.array([1.0])))
        assert np.array_equal(predict_scores(ens, data), stump.predict(data.features))

    def test_opposite_stumps_cancel(self):
        data = Dataset(np.array([[1.0]]), np.array([1.0]))
        ens = Ensemble(
            (DecisionStump(0, 0.0, 1), DecisionStump(0, 0.0, -1)),
            WeightVector(np.array([0.5, 0.5])),
        )
        assert predict_scores(ens, data)[0] == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_double_loop(self, seed):
        rng = rng_from(seed)
        data = Dataset(rng.normal(size=(7, 2)), rng.choice([-1.0, 1.0], size=7))
        stumps = tuple(
            DecisionStump(int(rng.integers(0, 2)), float(rng.normal()), int(rng.choice([-1, 1])))
            for _ in range(4)
        )
        weights = rng.dirichlet(np.ones(4))
        ens = Ensemble(stumps, WeightVector(weights))
        scores = predict_scores(ens, data)
        for i in range(7):
            direct = sum(
                weights[j] * stumps[j].predict(data.features[i : i + 1])[0]
                for j in range(4)
            )
            assert scores[i] == pytest.approx(direct, abs=1e-12)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([1.0, -2.0]), np.array([1.0, -1.0])) == 1.0

    def test_negated(self):
        assert accuracy(np.array([-1.0, 2.0]), np.array([1.0, -1.0])) == 0.0

    def test_score_equal_offset_predicts_positive(self):
        assert accuracy(np.array([0.5]), np.array([1.0]), offset=0.5) == 1.0
        assert accuracy(np.array([0.5]), np.array([-1.0]), offset=0.5) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_counting_oracle(self, seed):
        scores, labels = random_scores(seed, 30, ties=seed % 2 == 0)
        offset = float(rng_from(seed + 1).normal())
        assert accuracy(scores, labels, offset) == accuracy_by_counting(
            scores, labels, offset
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            accuracy(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            accuracy(np.array([np.nan]), np.array([1.0]))


class TestBiasCorrect:
    def test_separable_midpoint(self):
        offset, acc = bias_correct(
            np.array([-2.0, -1.0, 1.0, 2.0]), np.array([-1.0, -1.0, 1.0, 1.0])
        )
        assert offset == 0.0
        assert acc == 1.0

    def test_one_sided_uses_below_min_sentinel(self):
        scores = np.array([0.3, 1.2, -0.4])
        offset, acc = bias_correct(scores, np.ones(3))
        assert offset == scores.min() - 1.0
        assert acc == 1.0

    def test_smallest_maximizer_wins(self):
        offset, acc = bias_correct(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert offset == -1.0
        assert acc == 1.0

    def test_improves_on_zero_offset(self):
        scores = np.array([0.9, 1.1, 1.5])
        labels = np.array([-1.0, 1.0, 1.0])
        offset, acc = bias_correct(scores, labels)
        assert acc == 1.0
        assert acc >= accuracy(scores, labels, 0.0)
        assert offset == 1.0  # midpoint of 0.9 and 1.1

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_oracle(self, seed):
        scores, labels = random_scores(seed + 40, 200, ties=seed % 2 == 0)
        offset, acc = bias_correct(scores, labels)
        oracle_offset, oracle_acc = best_offset_exhaustive(scores, labels)
        assert acc == oracle_acc
        assert offset == oracle_offset

    @given(st.integers(0, 10_000), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_accuracy_never_below_uncorrected(self, seed, n):
        scores, labels = random_scores(seed, n, ties=True)
        _, acc = bias_correct(scores, labels)
        assert acc >= accuracy(scores, labels, 0.0)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(np.array([0.1, 0.9, -0.5]), np.array([1.0, 1.0, -1.0])) == 1.0

    def test_reversed_ranking(self):
        assert auc(np.array([-0.1, -0.9, 0.5]), np.array([1.0, 1.0, -1.0])) == 0.0

    def test_all_tied_scores(self):
        assert auc(np.zeros(4), np.array([1.0, 1.0, -1.0, -1.0])) == 0.5

    def test_frozen_instance(self):
        assert auc(AUC_SCORES, AUC_LABELS) == pytest.approx(AUC_EXPECTED, abs=1e-12)
        assert auc_pairwise(AUC_SCORES, AUC_LABELS) == AUC_EXPECTED

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_oracle(self, seed):
        scores, labels = random_scores(seed + 80, 60, ties=seed % 2 == 0)
        assert auc(scores, labels) == pytest.approx(
            auc_pairwise(scores, labels), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_transform_invariance(self, seed):
        scores, labels = random_scores(seed + 120, 50, ties=True)
        base = auc(scores, labels)
        affine = auc(2.0 * scores + 3.0, labels)
        cubic = auc(scores**3, labels)
        assert affine == pytest.approx(base, abs=1e-12)
        assert cubic == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("seed", range(6))
    def test_midranks_equal_scipy_rankdata(self, seed):
        # The numpy midranks must reproduce scipy's average ranks bit for
        # bit, so AUC values stay identical.
        from scipy.stats import rankdata

        scores, _ = random_scores(seed + 200, 1 + 97 * seed, ties=seed % 2 == 0)
        if seed == 4:
            scores = np.round(scores)  # integer ties, with both 0.0 and -0.0
        assert np.array_equal(evaluation._midranks(scores), rankdata(scores))
