"""Decision stumps, AdaBoostV, the sparsified-boosting pipeline, and the LP
oracle for the optimal minimal margin.

The pipeline trains c*T stumps with AdaBoostV, where
c = ceil(log(n)/log(2+n/T)) buys enough rounds that the boosting gap and the
sparsification error match, builds the margin matrix, normalizes the weights,
and halves the support down to T hypotheses.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .discrepancy import DEFAULT_CONFIG, ColoringConfig
from .margins import MarginMatrix, WeightVector, build_margin_matrix
from .sparsify import SparsifyReport, sparsify

EDGE_CAP = 1.0 - 1e-10


class _StumpTable(NamedTuple):
    """Per-dataset sort data for stump training, read-only once built. The
    search's buffers are not kept here but by each thread (``_buffers``).

    Features f and h + f, h = ceil(d/2), share row f of the lanes as the
    real and imaginary parts of one complex number, so one complex cumsum
    forms the prefix sums of both. Complex addition is two independent IEEE
    additions, and each lane adds its feature's signed weights in that
    feature's sort order, so every prefix sum has the bits of a cumsum over
    that feature alone. For odd d the last row's imaginary lane gathers
    point 0 and is never read.

    Candidate k puts the j smallest values of feature f = ``feature[k]``
    below ``threshold[k]``. j = 0 is the -inf sentinel, j = n the +inf
    sentinel, and interior j exist only between distinct values. Candidates
    run in feature order, thresholds ascending within a feature.
    ``prefix_index[k]`` indexes the prefix sum of candidate k in the
    flattened h x (n+1) x 2 real view of the prefix sums.
    """

    gather: np.ndarray  # h x 2n: lane f // h of row f % h sorts feature f
    prefix_index: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray


_scratch = threading.local()


def _buffers(table: _StumpTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The calling thread's lanes (h x n complex: the signed weights in sort
    order), prefix sums (h x (n+1) complex; column 0 stays zero) and edges
    (one float per candidate), sized for the last table the thread trained:
    about 0.5 MB at n=2000, d=10. A table of other shapes replaces them."""
    h, n = table.gather.shape[0], table.gather.shape[1] // 2
    shape = (h, n, table.feature.size)
    if getattr(_scratch, "shape", None) != shape:
        _scratch.buffers = (
            np.empty((h, n), dtype=np.complex128),
            np.zeros((h, n + 1), dtype=np.complex128),
            np.empty(table.feature.size),
        )
        _scratch.shape = shape
    return _scratch.buffers


@dataclass(frozen=True)
class Dataset:
    """n labeled points: features in R^d, labels exactly +-1."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.float64)
        if features.ndim != 2 or features.size == 0:
            raise ValueError("features must be a nonempty n x d matrix")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"expected {features.shape[0]} labels, got shape {labels.shape}"
            )
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("labels must be exactly +1 or -1")
        features = features.copy()
        labels = labels.copy()
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def _stump_table(self) -> _StumpTable:
        # The features are read-only, so one sort serves every boosting round.
        n, d = self.n_points, self.n_features
        h = (d + 1) // 2
        order = np.argsort(self.features.T, axis=1, kind="stable")
        gather = np.zeros((h, 2 * n), dtype=np.intp)
        prefix_index, feature, threshold = [], [], []
        for f in range(d):
            row, lane = f % h, f // h
            gather[row, lane::2] = order[f]
            sorted_vals = self.features[order[f], f]
            interior = np.flatnonzero(sorted_vals[:-1] < sorted_vals[1:]) + 1
            positions = np.concatenate([[0], interior, [n]])
            thresholds = np.empty(positions.size)
            thresholds[0] = -math.inf
            thresholds[-1] = math.inf
            thresholds[1:-1] = (sorted_vals[interior - 1] + sorted_vals[interior]) / 2.0
            prefix_index.append((row * (n + 1) + positions) * 2 + lane)
            feature.append(np.full(positions.size, f))
            threshold.append(thresholds)
        return _StumpTable(
            gather,
            np.concatenate(prefix_index),
            np.concatenate(feature),
            np.concatenate(threshold),
        )


@dataclass(frozen=True)
class DecisionStump:
    """Threshold rule on one feature: polarity * sign(x_f - threshold),
    with sign(0) := +1, so outputs are always exactly +-1."""

    feature: int
    threshold: float
    polarity: int

    def __post_init__(self):
        if self.feature < 0:
            raise ValueError("feature index must be nonnegative")
        if self.polarity not in (-1, 1):
            raise ValueError("polarity must be -1 or +1")
        if math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")

    def predict(self, features: np.ndarray) -> np.ndarray:
        column = features[:, self.feature]
        raw = np.where(column - self.threshold >= 0.0, 1.0, -1.0)
        return self.polarity * raw


@dataclass(frozen=True)
class Ensemble:
    """Weighted list of stumps; weights are nonnegative by construction."""

    hypotheses: tuple[DecisionStump, ...]
    weights: WeightVector
    stopped_early: bool = False

    def __post_init__(self):
        hypotheses = tuple(self.hypotheses)
        if not hypotheses:
            raise ValueError("ensemble must contain at least one hypothesis")
        if len(hypotheses) != len(self.weights):
            raise ValueError(
                f"{len(hypotheses)} hypotheses but {len(self.weights)} weights"
            )
        if np.any(self.weights.values < 0):
            raise ValueError("ensemble weights must be nonnegative")
        object.__setattr__(self, "hypotheses", hypotheses)

    def __len__(self) -> int:
        return len(self.hypotheses)

    def hypothesis_outputs(self, features: np.ndarray) -> np.ndarray:
        """n x T matrix of raw hypothesis outputs h_j(x_i), C-contiguous.

        Column j equals ``hypotheses[j].predict(features)`` exactly. The
        layout matters: callers multiply this matrix by weight vectors, and
        BLAS sums in a different order for an F-ordered operand. ``np.take``
        gathers the columns in C order (``features[:, feats]`` would not).
        """
        feats = np.array([h.feature for h in self.hypotheses], dtype=np.intp)
        thresholds = np.array([h.threshold for h in self.hypotheses])
        polarities = np.array([h.polarity for h in self.hypotheses], dtype=np.float64)
        columns = np.take(features, feats, axis=1)
        outputs = np.where(columns - thresholds >= 0.0, polarities, -polarities)
        return np.ascontiguousarray(outputs)


def train_stump(dataset: Dataset, sample_weights) -> DecisionStump:
    """Exhaustive weighted-edge maximization over all stumps.

    Candidate thresholds are the midpoints between consecutive distinct sorted
    feature values plus -inf/+inf sentinels. The features are sorted once per
    dataset; each call then evaluates the edge sum_i D(i) y_i h(x_i) of every
    candidate through prefix sums in one O(d*n) pass into the calling thread's
    buffers, which every call on that thread reuses until it trains a dataset
    of other shapes (they hold the last one's, about 0.5 MB at n=2000, d=10).
    The pass forms two features' prefix sums per complex addition, which rounds
    each feature's sums exactly as a cumsum over it alone would. Among stumps
    whose computed edges are exactly equal, ties go to the lowest feature
    index, then the lowest threshold, then polarity +1. Edges are compared as
    computed: the prefix sums add the weights in each feature's sort order, so
    rounding can separate edges that are mathematically equal (for instance two
    stumps that predict alike through different features, or the two
    sentinels), and the larger rounded edge wins.
    """
    weights = np.asarray(sample_weights, dtype=np.float64)
    if weights.shape != (dataset.n_points,):
        raise ValueError("sample weights must match the number of points")
    if not np.all(np.isfinite(weights)):
        raise ValueError("sample weights must be finite")
    if np.any(weights < 0):
        raise ValueError("sample weights must be nonnegative")
    total_weight = float(weights.sum())
    if total_weight <= 0.0:
        raise ValueError("sample weights sum to zero")
    if abs(total_weight - 1.0) > 1e-9:
        raise ValueError("sample weights must sum to 1")

    table = dataset._stump_table
    lanes, prefix, edge = _buffers(table)
    signed = weights * dataset.labels
    total = float(signed.sum())
    # mode="clip" writes straight into out; the default buffers a copy.
    np.take(signed, table.gather, out=lanes.view(np.float64), mode="clip")
    np.cumsum(lanes, axis=1, out=prefix[:, 1:])
    # h = sign(x - threshold): points below contribute -1, so the edge of
    # polarity +1 is total - 2 * prefix (scaling by -2 is exact, so the
    # in-place form below has the same bits) and that of -1 its negation.
    np.take(prefix.view(np.float64), table.prefix_index, out=edge, mode="clip")
    edge *= -2.0
    edge += total
    k, polarity = _best_candidate(edge)
    return DecisionStump(int(table.feature[k]), float(table.threshold[k]), polarity)


def _best_candidate(edge: np.ndarray) -> tuple[int, int]:
    """The candidate and polarity of the largest edge among edge (polarity
    +1) and -edge (polarity -1), first in the order candidate, then
    polarity +1: argmax over the two interleaved, found without building
    them. The larger of max(edge) and -min(edge) wins; on a tie (signed
    zeros compare equal) the lower interleaved index, 2 * argmax or
    2 * argmin + 1, does."""
    hi, lo = int(np.argmax(edge)), int(np.argmin(edge))
    if edge[hi] > -edge[lo] or (edge[hi] == -edge[lo] and hi <= lo):
        return hi, 1
    return lo, -1


def adaboost_v(dataset: Dataset, rounds: int) -> Ensemble:
    """AdaBoostV: margin-maximizing boosting with an adaptive target.

    Per-round update (Ratsch & Warmuth, JMLR 6, 2005, "Efficient Margin
    Maximizing with Boosting"): with edge gamma_t and adaptive estimate
    rho_t = (min_{r<=t} gamma_r) - nu, the hypothesis weight is
        alpha_t = 1/2 ln((1+gamma_t)/(1-gamma_t)) - 1/2 ln((1+rho_t)/(1-rho_t))
    and the sample distribution is scaled by exp(-alpha_t y_i h_t(x_i)).
    The accuracy parameter nu = sqrt(2 ln(n) / rounds) makes the final gap
    to the optimal margin O(sqrt(ln(n)/rounds)) for the given round budget.

    A round whose best edge is <= 0 stops training early; the rounds
    completed so far are returned with the ensemble flagged.
    """
    if rounds < 1:
        raise ValueError("need at least one boosting round")
    n = dataset.n_points
    if n < 2:
        # With one point nu = 0, so every alpha would be 0.
        raise ValueError("AdaBoostV needs at least two training points")
    nu = math.sqrt(2.0 * math.log(n) / rounds)
    distribution = np.full(n, 1.0 / n)
    cap = EDGE_CAP

    stumps: list[DecisionStump] = []
    alphas: list[float] = []
    min_edge = math.inf
    stopped = False

    for _ in range(rounds):
        stump = train_stump(dataset, distribution)
        agreement = dataset.labels * stump.predict(dataset.features)
        edge = float(distribution @ agreement)
        if edge <= 0.0:
            stopped = True
            break
        edge = min(edge, cap)
        min_edge = min(min_edge, edge)
        rho = min(max(min_edge - nu, -cap), cap)
        alpha = 0.5 * math.log((1 + edge) / (1 - edge)) - 0.5 * math.log(
            (1 + rho) / (1 - rho)
        )
        stumps.append(stump)
        alphas.append(alpha)
        distribution = distribution * np.exp(-alpha * agreement)
        distribution /= distribution.sum()

    if not stumps:
        raise ValueError("no stump with positive edge exists on this dataset")
    return Ensemble(tuple(stumps), WeightVector(np.array(alphas)), stopped_early=stopped)


def prune_ensemble(ensemble: Ensemble, weights: WeightVector) -> Ensemble:
    """The hypotheses of ``ensemble`` on which ``weights`` is nonzero, carrying
    those weights (``weights`` is indexed like ``ensemble.hypotheses``)."""
    surviving = weights.nonzero_indices()
    return Ensemble(
        tuple(ensemble.hypotheses[i] for i in surviving),
        WeightVector(weights.values[surviving]),
        stopped_early=ensemble.stopped_early,
    )


def budget_multiplier(n: int, T: int) -> int:
    """The round multiplier c = ceil(log(n)/log(2+n/T)); base-invariant ratio."""
    if n < 2:
        raise ValueError("need at least two training points")
    if T < 1:
        raise ValueError("target size must be positive")
    return math.ceil(math.log(n) / math.log(2.0 + n / T))


def sparsiboost(
    dataset: Dataset,
    T: int,
    *,
    coloring: ColoringConfig = DEFAULT_CONFIG,
    rounds: int | None = None,
) -> tuple[Ensemble, Ensemble, SparsifyReport]:
    """Train ``rounds`` stumps (default c*T), then sparsify the ensemble down
    to T of them. Training and halving are deterministic.

    Returns the full ensemble, the pruned one (the surviving hypotheses with
    their renormalized weights, summing to 1), and the halving's report.
    """
    if T < 1:
        raise ValueError("target size must be positive")
    if rounds is None:
        rounds = budget_multiplier(dataset.n_points, T) * T
    full = adaboost_v(dataset, rounds)
    U = build_margin_matrix(dataset, full)
    w = full.weights.normalized()
    target = min(T, len(full))
    sparse_w, report = sparsify(U, w, target, config=coloring)
    return full, prune_ensemble(full, sparse_w), report


def lp_optimal_margin(U: MarginMatrix) -> tuple[float, WeightVector]:
    """Optimal minimal margin over the column dictionary of U.

    Solves max rho s.t. Uw >= rho, w >= 0, sum(w) = 1 with the HiGHS
    solver; always feasible (uniform w). Returned weights are cleaned of
    solver-tolerance negatives and renormalized.
    """
    # Imported here: scipy.optimize costs about half a second to import, and
    # only this oracle needs it.
    from scipy.optimize import linprog

    n, m = U.n_points, U.n_hypotheses
    cost = np.zeros(m + 1)
    cost[-1] = -1.0
    A_ub = np.hstack([-U.values, np.ones((n, 1))])
    b_ub = np.zeros(n)
    A_eq = np.concatenate([np.ones(m), [0.0]])[None, :]
    b_eq = np.array([1.0])
    bounds = [(0.0, None)] * m + [(-1.0, 1.0)]
    result = linprog(
        cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"margin LP failed: {result.message}")
    rho = float(result.x[-1])
    weights = np.maximum(result.x[:m], 0.0)
    weights /= weights.sum()
    return rho, WeightVector(weights)
