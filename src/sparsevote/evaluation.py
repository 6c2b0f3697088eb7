"""Classifier scoring, decision-offset correction, accuracy, and AUC.

The decision rule everywhere is sign(score - offset) with sign(0) := +1,
matching the stump convention. Offset correction scans every candidate
offset that can change the classification (the midpoints between
consecutive sorted scores plus one sentinel on each side) in O(n log n)
via prefix counts over the sorted scores.
"""
from __future__ import annotations

import numpy as np


class UndefinedMetricError(ValueError):
    """Raised when a metric needs both classes but the input has only one."""


def _check_scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a nonempty 1-D vector")
    if labels.shape != scores.shape:
        raise ValueError(
            f"scores and labels lengths differ: {scores.shape} vs {labels.shape}"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain non-finite values")
    if not np.all(np.abs(labels) == 1.0):
        raise ValueError("labels must be exactly +1 or -1")
    return scores, labels


def predict_scores(ensemble, dataset) -> np.ndarray:
    """Signed pre-threshold scores sum_t w_t * h_t(x_i)."""
    outputs = ensemble.hypothesis_outputs(dataset.features)
    return outputs @ ensemble.weights.values


def accuracy(scores, labels, offset: float = 0.0) -> float:
    """Fraction of points with sign(score - offset) = label."""
    scores, labels = _check_scores_labels(scores, labels)
    predictions = np.where(scores - offset >= 0.0, 1.0, -1.0)
    return float(np.mean(predictions == labels))


def bias_correct(scores, labels) -> tuple[float, float]:
    """Offset maximizing training accuracy, with that accuracy.

    Candidates are the midpoints between consecutive sorted scores plus a
    below-min and an above-max sentinel; among equally good candidates the
    smallest is returned. Prefix counts of each class over the sorted order
    give every candidate's accuracy at once.
    """
    scores, labels = _check_scores_labels(scores, labels)
    n = scores.size
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    candidates = np.concatenate(
        [
            [sorted_scores[0] - 1.0],
            (sorted_scores[:-1] + sorted_scores[1:]) / 2.0,
            [sorted_scores[-1] + 1.0],
        ]
    )
    positives_below = np.concatenate([[0], np.cumsum(labels[order] == 1.0)])
    negatives_below = np.concatenate([[0], np.cumsum(labels[order] == -1.0)])
    total_positives = positives_below[-1]
    # Points strictly below the offset are predicted -1, the rest +1.
    below = np.searchsorted(sorted_scores, candidates, side="left")
    correct = negatives_below[below] + (total_positives - positives_below[below])
    best = int(np.argmax(correct))
    return float(candidates[best]), float(correct[best]) / n


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given their average rank. Each average is
    (first + last) / 2 of two integer ranks, so every rank is exact."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative,
    ties counting one half (midrank computation)."""
    scores, labels = _check_scores_labels(scores, labels)
    positive = labels == 1.0
    n_pos = int(np.count_nonzero(positive))
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            "AUC needs at least one positive and one negative label"
        )
    ranks = _midranks(scores)
    positive_rank_sum = float(np.sum(ranks[positive]))
    return (positive_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
