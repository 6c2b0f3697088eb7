"""Support halving of ensemble weight vectors, plus sampling baselines.

One halving round protects the top third of the support by absolute value,
rescales the remaining free columns of the margin matrix by the largest free
weight, and twice colors the scaled columns (with an extra row carrying the
l1 mass) to decide which half of the free support to zero and which to
double. The minority-sign choice keeps row sums, hence every margin, within
omega times the coloring discrepancy of their pre-halving values. Repeating
rounds until the support reaches the target T yields a T-sparse weight vector
whose margin perturbation is dominated by the final round.
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
    halve_columns,
)
from .margins import (
    MarginMatrix,
    WeightVector,
    _check_dims,
    require_normalized,
    sup_norm_diff,
)
from .seeding import rng_from, split_seed

MIN_HALVING_SUPPORT = 6


@dataclass(frozen=True)
class SparsifyReport:
    """Diagnostics for one sparsify call."""

    initial_support: int
    final_support: int
    halving_rounds: int
    achieved_error: float
    per_round_errors: tuple[float, ...]
    seed: object
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
    """The (n+1) x k coloring input: margin columns scaled by w_j/omega, plus
    an l1 row |w_j|/omega that makes the coloring preserve total mass too.

    It is written straight into Fortran order, full_coloring's layout, so
    the coloring copies nothing; each column of a Fortran-ordered U_values
    is read contiguously."""
    n = U_values.shape[0]
    out = np.empty((n + 1, columns.size), order="F")
    np.multiply(U_values[:, columns], values[columns] / omega, out=out[:n])
    np.divide(np.abs(values[columns]), omega, out=out[n])
    return out


def halve(
    U: MarginMatrix,
    w: WeightVector,
    seed=None,
    config: ColoringConfig = DEFAULT_CONFIG,
) -> WeightVector:
    """One halving round: support drops to at most ceil(|support|/2) while
    every margin moves by at most O(omega * coloring discrepancy).

    The scaling weight omega is fixed once per call. After the first of the
    two color-and-zero passes the surviving weights have doubled, so the
    second pass's matrix can reach magnitude 2; the coloring input is
    rescaled into [-1, 1] (a positive rescaling changes no coloring
    decision), keeping omega's role in the update untouched.
    """
    require_normalized(w)
    _check_dims(U, w)
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

    for iteration in (0, 1):
        columns = free[values[free] != 0.0]
        if columns.size == 0:
            break
        A = _build_halving_matrix(U.values, values, columns, omega)
        # Margins lie in [-1, 1], so no scaled entry exceeds its column's
        # l1 entry (rounding is monotone) and the l1 row holds the peak.
        peak = float(A[-1].max())
        if peak > 1.0:
            A /= peak
        kept = columns[halve_columns(A, split_seed(seed, iteration), config)]
        doubled = 2.0 * values[kept]
        values[columns] = 0.0
        values[kept] = doubled

    total = float(np.sum(np.abs(values)))
    values /= total
    result = WeightVector(values)
    if result.support_size > -(-support // 2):
        raise RuntimeError(
            f"halving kept {result.support_size} of {support} entries; "
            "minority-sign bookkeeping is broken"
        )
    return result


def sparsify(
    U: MarginMatrix,
    w: WeightVector,
    T: int,
    seed=None,
    config: ColoringConfig = DEFAULT_CONFIG,
) -> tuple[WeightVector, SparsifyReport]:
    """Repeated halving until the support is at most T.

    Each round calls halve once, with seed split_seed(seed, round, 0); its
    colorings make up to RETRY_BUDGET attempts each (random signs, then a
    flip polish). A round that succeeds at least halves the support. When
    a coloring still misses its bound (DiscrepancyBoundError), halving
    stops; then, or when the support is still above T once halving can no
    longer run, the remainder is truncated to the top T weights and the
    report is flagged.

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
            candidate = halve(distinct, current, split_seed(seed, len(per_round), 0), config)
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
        seed=seed,
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
