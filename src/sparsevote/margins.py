"""Margin-matrix data model and margin arithmetic.

The central object is the n x m margin matrix U with u_ij = y_i * h_j(x_i): row i
collects how every hypothesis fares on training point i. Margins of a weighted
ensemble are the matrix-vector product Uw, and everything downstream (halving,
boosting diagnostics, evaluation) is phrased in terms of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Global numeric tolerances. L1_TOL is the package-wide tolerance for
# "this weight vector is normalized"; ENTRY_TOL absorbs float noise when
# checking that margins sit inside [-1, 1].
L1_TOL = 1e-9
ENTRY_TOL = 1e-9


def _as_float_array(values, ndim: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _checked_entries(arr: np.ndarray, name: str) -> np.ndarray:
    """The float64 array arr, checked to be a nonempty 2-D matrix of finite
    entries within ENTRY_TOL of [-1, 1]. Entries beyond [-1, 1] are clipped
    into it, in a new array of the same layout, so downstream range
    guarantees hold exactly; otherwise arr itself is returned."""
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    # Two reductions: min and max carry any NaN or infinity, and give the
    # peak magnitude with no |arr| temporary.
    low, high = float(arr.min()), float(arr.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError(f"{name} contains non-finite entries")
    peak = max(high, -low)
    if peak > 1.0 + ENTRY_TOL:
        raise ValueError(f"{name} entry out of [-1, 1]: magnitude {peak}")
    if peak > 1.0:
        return np.clip(arr, -1.0, 1.0)
    return arr


@dataclass(frozen=True)
class MarginMatrix:
    """n x m matrix of per-point, per-hypothesis margins, entries in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self):
        arr = _checked_entries(np.array(self.values, dtype=np.float64), "margin matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_hypotheses(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WeightVector:
    """Length-m vector of hypothesis weights."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.values, 1, "weight vector")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def uniform(cls, m: int) -> "WeightVector":
        if m < 1:
            raise ValueError("need at least one weight")
        return cls(np.full(m, 1.0 / m))

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def support_size(self) -> int:
        """Number of nonzero entries, the l0 "norm"."""
        return int(np.count_nonzero(self.values))

    @property
    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values)))

    def nonzero_indices(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    def is_normalized(self, tol: float = L1_TOL) -> bool:
        return abs(self.l1_norm - 1.0) <= tol

    def normalized(self) -> "WeightVector":
        """Rescale to unit l1 norm."""
        total = self.l1_norm
        if total == 0.0:
            raise ValueError("cannot normalize an all-zero weight vector")
        return WeightVector(self.values / total)


def require_normalized(w: WeightVector, tol: float = L1_TOL) -> None:
    if not w.is_normalized(tol):
        raise ValueError(f"weight vector is not normalized: l1 = {w.l1_norm!r}")


def _check_dims(U: MarginMatrix, w: WeightVector) -> None:
    if len(w) != U.n_hypotheses:
        raise ValueError(
            f"dimension mismatch: matrix has {U.n_hypotheses} columns, "
            f"weight vector has {len(w)} entries"
        )


def build_margin_matrix(dataset, ensemble) -> MarginMatrix:
    """Margin matrix with entry (i, j) = y_i * h_j(x_i).

    Accepts any dataset with ``features``/``labels`` arrays and any ensemble
    exposing ``hypothesis_outputs(features)``; outputs must lie in [-1, 1].
    """
    outputs = np.asarray(ensemble.hypothesis_outputs(dataset.features), dtype=np.float64)
    if outputs.shape[0] != dataset.labels.shape[0]:
        raise ValueError("hypothesis outputs do not match the dataset size")
    peak = float(np.max(np.abs(outputs)))
    if peak > 1.0 + ENTRY_TOL:
        raise ValueError(f"hypothesis output outside [-1, 1]: magnitude {peak}")
    return MarginMatrix(dataset.labels[:, None] * outputs)


def margins(U: MarginMatrix, w: WeightVector) -> np.ndarray:
    """Per-point margins (Uw)_i = y_i * sum_j w_j * h_j(x_i)."""
    _check_dims(U, w)
    return U.values @ w.values


def min_margin(U: MarginMatrix, w: WeightVector) -> float:
    """Minimal margin over all training points."""
    return float(np.min(margins(U, w)))


def sup_norm_diff(U: MarginMatrix, w: WeightVector, w2: WeightVector) -> float:
    """max_i |(Uw)_i - (Uw2)_i|, the margin perturbation between two weightings."""
    _check_dims(U, w)
    _check_dims(U, w2)
    return float(np.max(np.abs(U.values @ (w.values - w2.values))))


def cumulative_margin_curve(margin_values) -> list[tuple[float, float]]:
    """Empirical CDF of the margins: pair k is (k-th smallest margin, k/n).

    Ties stay distinct points, so the curve is a plottable step function with
    exactly n points and final fraction 1.0.
    """
    arr = _as_float_array(margin_values, 1, "margin vector")
    n = arr.shape[0]
    # (k + 1) / n in float64 is the correctly rounded quotient, as in Python.
    fractions = np.arange(1, n + 1) / n
    return list(zip(np.sort(arr).tolist(), fractions.tolist()))
