"""Support halving of ensemble weight vectors, plus sampling baselines.

One halving round protects the top third of the support by absolute value,
rescales the remaining free columns of the margin matrix by the largest free
weight, and twice colors the scaled columns, with a row carrying the l1 mass
and a count row of ones, to decide which half of the free support to zero
and which to double. Each coloring starts from the drift that earlier
rounds and passes left on the margins and the l1 mass, so it steers them
back toward those of the weights sparsify began from, and it moves every
margin by at most omega times its discrepancy. Repeating rounds until the
support reaches the target T yields a T-sparse weight vector whose margin
perturbation is dominated by the final round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrepancy import (
    DEFAULT_CONFIG,
    ColoringConfig,
    DiscrepancyBoundError,
    _distinct_rows,
    _row_sums,
    full_coloring,
)
from .margins import (
    MarginMatrix,
    WeightVector,
    _check_dims,
    require_normalized,
    sup_norm_diff,
)
from .seeding import rng_from

MIN_HALVING_SUPPORT = 6


@dataclass(frozen=True)
class SparsifyReport:
    """Diagnostics for one sparsify call."""

    initial_support: int
    final_support: int
    halving_rounds: int
    achieved_error: float
    per_round_errors: tuple[float, ...]
    truncated_fallback: bool = False


def _split_support(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partition the support into the protected top third (by |value|) and
    the free remainder, deterministically (ties resolved by lower index)."""
    support = np.flatnonzero(values)
    protected_count = -(-support.size // 3)
    order = np.argsort(-np.abs(values[support]), kind="stable")
    protected = support[order[:protected_count]]
    free = np.sort(support[order[protected_count:]])
    return protected, free


def _build_halving_matrix(
    U_values: np.ndarray, values: np.ndarray, columns: np.ndarray, omega: float
) -> np.ndarray:
    """The (n+2) x k coloring input: margin columns scaled by w_j/omega, an
    l1 row |w_j|/omega that makes the coloring preserve total mass too, and
    a count row of ones that keeps about half of the columns.

    It is written straight into Fortran order, full_coloring's layout, so
    the coloring copies nothing; each column of a Fortran-ordered U_values
    is read contiguously."""
    n = U_values.shape[0]
    out = np.empty((n + 2, columns.size), order="F")
    np.multiply(U_values[:, columns], values[columns] / omega, out=out[:n])
    np.divide(np.abs(values[columns]), omega, out=out[n])
    out[n + 1] = 1.0
    return out


def halve(
    U: MarginMatrix,
    w: WeightVector,
    *,
    config: ColoringConfig = DEFAULT_CONFIG,
    start: WeightVector | None = None,
) -> WeightVector:
    """One halving round: support drops to at most ceil(|support|/2) while
    every margin moves by at most O(omega * coloring discrepancy).

    Each of two passes colors the nonzero free columns' halving matrix
    from the base [U(v - start); ||v||_1 - 1; 0] / (omega * peak), the
    drift of the current weights v from start (w when None). It doubles the
    +1 columns and zeroes the rest, with the +1 columns of smallest |w_j|
    beyond floor(k/2), lower index first. The drift is taken from U once,
    then moved by omega * peak * Ax. omega is fixed per call; the doubled
    weights of the second pass can reach 2, so its margin and l1 rows are
    divided by their peak.
    """
    require_normalized(w)
    _check_dims(U, w)
    origin = w if start is None else start
    _check_dims(U, origin)
    support = w.support_size
    if support < MIN_HALVING_SUPPORT:
        raise ValueError(
            f"halving needs support >= {MIN_HALVING_SUPPORT}, got {support}"
        )

    values = w.values.copy()
    # The support is at least 6 and the protected top third ceil(s/3), so
    # at least 4 nonzero weights are free and omega is positive.
    _, free = _split_support(values)
    omega = float(np.max(np.abs(values[free])))
    drift = np.append(_row_sums(U.values, values - origin.values), 0.0)

    for _ in (0, 1):
        columns = free[values[free] != 0.0]
        if columns.size == 0:
            break
        A = _build_halving_matrix(U.values, values, columns, omega)
        # Margins lie in [-1, 1], so no scaled entry exceeds its column's
        # l1 entry (rounding is monotone) and the l1 row holds the peak.
        peak = max(1.0, float(A[-2].max()))
        if peak > 1.0:
            A[:-1] /= peak
        scale = omega * peak
        x = full_coloring(A, config=config, base=np.append(drift / scale, 0.0))
        plus = np.flatnonzero(x > 0.0)
        smallest = np.argsort(np.abs(values[columns[plus]]), kind="stable")
        x[plus[smallest[: max(plus.size - columns.size // 2, 0)]]] = -1.0
        drift += scale * _row_sums(A, x)[:-1]
        values[columns] = np.where(x > 0.0, 2.0 * values[columns], 0.0)

    total = float(np.sum(np.abs(values)))
    values /= total
    result = WeightVector(values)
    if result.support_size > -(-support // 2):
        raise RuntimeError(
            f"halving kept {result.support_size} of {support} entries; "
            "the halving bookkeeping is broken"
        )
    return result


def sparsify(
    U: MarginMatrix,
    w: WeightVector,
    T: int,
    *,
    config: ColoringConfig = DEFAULT_CONFIG,
) -> tuple[WeightVector, SparsifyReport]:
    """Repeated halving until the support is at most T.

    Each round calls halve once, with start=w, so every coloring steers the
    margins back toward w's; a round that succeeds at least halves the
    support. When a coloring misses its bound (DiscrepancyBoundError),
    halving stops; then, or when the support is still above T once halving
    can no longer run, the remainder is truncated to the top T weights and
    the report is flagged.

    The rounds halve on U's distinct rows up to sign (the first of each
    class as it stands, found once here by _distinct_rows), in Fortran
    order: rows equal up to sign are one constraint, and the coloring of a
    halving round does not depend on their repetition, so the weights are
    those that halving on U gives. Every error is still measured on U
    itself.
    """
    require_normalized(w)
    _check_dims(U, w)
    if not 1 <= T <= len(w):
        raise ValueError(f"target support T={T} must be in [1, {len(w)}]")
    distinct = MarginMatrix(np.asfortranarray(_distinct_rows(U.values)))

    current = w
    per_round: list[float] = []
    while current.support_size > max(T, MIN_HALVING_SUPPORT - 1):
        try:
            candidate = halve(distinct, current, config=config, start=w)
        except DiscrepancyBoundError:
            break
        per_round.append(sup_norm_diff(U, current, candidate))
        current = candidate

    fallback = current.support_size > T
    if fallback:
        current = truncate_top(current, T)

    report = SparsifyReport(
        initial_support=w.support_size,
        final_support=current.support_size,
        halving_rounds=len(per_round),
        achieved_error=sup_norm_diff(U, w, current),
        per_round_errors=tuple(per_round),
        truncated_fallback=fallback,
    )
    return current, report


def importance_sample(w: WeightVector, T: int, seed=None) -> WeightVector:
    """Baseline sparsifier: T draws with replacement, P(i) = |w_i|, output
    entry sign(w_i) * n_i / T. The l1 norm is 1 by the identity sum(n_i) = T."""
    require_normalized(w)
    if T < 1:
        raise ValueError("need at least one draw")
    probabilities = np.abs(w.values)
    probabilities = probabilities / probabilities.sum()
    counts = rng_from(seed).multinomial(T, probabilities)
    return WeightVector(np.sign(w.values) * counts / T)


def truncate_top(w: WeightVector, T: int) -> WeightVector:
    """Keep the T largest-|value| entries (ties to the lower index) and
    renormalize to unit l1 norm."""
    require_normalized(w)
    if T < 1:
        raise ValueError("need at least one kept entry")
    if w.support_size <= T:
        return w
    order = np.argsort(-np.abs(w.values), kind="stable")
    values = np.zeros_like(w.values)
    keep = order[:T]
    values[keep] = w.values[keep]
    values /= np.sum(np.abs(values))
    return WeightVector(values)


def halving_error_bound(n: int, support: int, constant: float) -> float:
    """Reference scale K*sqrt(log(2+n/s)/s) for one halving round at support s."""
    return constant * math.sqrt(math.log(2.0 + n / support) / support)
