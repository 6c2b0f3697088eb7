"""Constructive combinatorial discrepancy minimization.

Produces sign colorings x of the columns of a matrix A with entries in
[-1, 1] such that the discrepancy max_i |(Ax)_i| meets a Spencer-type bound,
plus the minority-sign column subset that inherits a row-sum sandwich from
the coloring. A coloring attempt is a sign vector in two steps:
partial_coloring draws one i.i.d. uniform +-1 sign per column, without
reading the entries, and the flip polish then makes deterministic
single-coordinate (and, for narrow matrices, opposite-pair) flips that
strictly reduce the discrepancy. On the matrices the halver colors this
reaches random-coloring quality, not Spencer's bound; full_coloring
retries an attempt with a fresh seed when it misses the Spencer-type
bound, and that check of the finished coloring is the output's guarantee.

Small instances skip the random signs: an exhaustive search over all sign
vectors is exact, fast, and deterministic up to k = 16 columns. The
exhaustive searches add a block of partial row sums over the low bits of
the sign vectors' codes, built once, to one vector per block over the high
bits, so a block of row sums stays in cache. The search first screens
every code in int16: the matrix and base are scaled by a power of two and
rounded so that a row sum's k + 1 terms add to at most 32767 and never
wrap. Each integer maximum is then within E = (k + 1) / 2 of the scaled
exact maximum, and each float64 maximum within rho = (k + 2)(eps / 2) *
scale of the exact one, so every code whose float64 maximum lies within
the tie tolerance of the smallest has an integer maximum within 2E plus
the scaled tolerance and 2 rho of the smallest integer one. Only the codes
the screen keeps are scored in float64, each with the same additions as a
float64 search over every code; they hold every code that search could
pick and its smallest maximum, so the winner and its value keep their
bits.

The flip polish first bounds every candidate by its maximum over the
BOUND_ROWS rows with the largest |row sum|, a lower bound on its maximum
over all rows, and scores on all rows only the candidates that this bound
cannot rule out; its moves are those of scoring every candidate.

Two rows equal up to sign are one constraint, since |(Ax)_i| is the same
for both, so full_coloring colors the distinct rows only: the first row of
each class of rows equal up to sign, as it stands. Its sign cannot matter:
negating a row negates each of its products and sums exactly, and every
step reads a row sum only through its magnitude. The Spencer-type bound
counts those rows. The output does not depend on the order of the rows or
on how often one repeats: the random signs do not depend on the rows, the
row sums that seed the searches are taken row by row (_row_sums), so equal
rows get equal bits wherever they sit, and the searches break near-ties by
a fixed order instead of by BLAS rounding. A candidate counts as tied with
the best when its maximum is within _tie_tolerance, 2(k + 2) * eps *
max_i(sum_j |C_ij| + |base_i|), of the smallest: twice the widest gap that
rounding, in any summation order, can open between two exactly equal
maxima of k products and a base, so every exact minimizer counts as tied.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .margins import _checked_entries
from .seeding import rng_from, split_seed

# Blocks of the exact searches and the flip polish hold 256 KiB, small
# enough that each block's passes run in cache: BLOCK_CELLS float64 row
# sums, or 4 * BLOCK_CELLS int16 ones in the exhaustive search's screen.
BLOCK_CELLS = 1 << 15
EPS = float(np.finfo(np.float64).eps)
# The flip polish bounds each candidate on this many rows, those with the
# largest |row sum|, before it scores all rows.
BOUND_ROWS = 32
# Exhaustive search colors matrices of at most BRUTEFORCE_MAX columns; it
# stays at most 20, the limit of bruteforce_min_discrepancy.
BRUTEFORCE_MAX = 16
# Attempts (random signs, then the polish) full_coloring makes before it
# gives up; sparsify adds no retry of its own, so this bounds the work of
# a failing halving round.
RETRY_BUDGET = 16
# The flip polish makes at most REFINE_SWEEPS sweeps, and tries pair flips
# on matrices of at most PAIR_REFINE_MAX columns.
REFINE_SWEEPS = 32
PAIR_REFINE_MAX = 64


class DiscrepancyBoundError(RuntimeError):
    """Raised when no attempt met the discrepancy bound within the retry budget.

    Every attempt completes a coloring, so achieved is the smallest
    discrepancy of the attempts' colorings.
    """

    def __init__(self, achieved: float, bound: float, attempts: int):
        self.achieved = achieved
        self.bound = bound
        self.attempts = attempts
        super().__init__(
            f"no coloring met the bound {bound:.6g} after {attempts} attempts; "
            f"best discrepancy achieved was {achieved:.6g}"
        )


@dataclass(frozen=True)
class ColoringConfig:
    """The coloring's one parameter: spencer_constant, the K_S of the bound
    that full_coloring enforces. It must be positive and finite: at zero or
    below no coloring meets the bound, and at inf every one does. The
    searches' and the polish's constants are module constants."""

    spencer_constant: float = 12.0

    def __post_init__(self):
        if not (math.isfinite(self.spencer_constant) and self.spencer_constant > 0):
            raise ValueError(
                f"spencer_constant must be positive and finite, got {self.spencer_constant}"
            )


DEFAULT_CONFIG = ColoringConfig()


def _validate_matrix(A) -> np.ndarray:
    """A as a Fortran-ordered float64 matrix, checked and clipped as a
    MarginMatrix's entries are; A itself when it is one already and needs
    no clipping."""
    # Fortran order, the halver's own layout: _row_sums then needs no copy,
    # and _signed_sums reads each column contiguously.
    return _checked_entries(np.asfortranarray(A, dtype=np.float64), "matrix")


def spencer_bound(n_rows: int, k: int, constant: float) -> float:
    """Target discrepancy bound: c*sqrt(k*ln(e*n/k)) for k <= n, c*sqrt(n) beyond.

    full_coloring passes the number of distinct rows up to sign as n, the
    size of the set system the bound is about; rows repeated up to sign add
    no constraint, so they do not loosen the bound.
    """
    if k <= n_rows:
        return constant * math.sqrt(k * math.log(math.e * n_rows / k))
    return constant * math.sqrt(n_rows)


def _row_sums(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x with each row's products added in column order, so equal rows
    get equal bits wherever they sit; a BLAS gemv rounds by row position
    and thread count. einsum keeps that order on a Fortran-ordered matrix,
    the layout _validate_matrix gives; others are copied into it."""
    return np.einsum("ij,j->i", np.asfortranarray(A, dtype=np.float64), x)


def discrepancy(A: np.ndarray, x: np.ndarray) -> float:
    return float(np.max(np.abs(_row_sums(A, x))))


def _tie_tolerance(k: int, scale: float) -> float:
    """Near-tie width for maxima of |sum of k products + base|: with u =
    eps / 2, any summation order puts at most (k + 1)u / (1 - (k + 1)u) *
    scale <= (k + 2)u * scale of rounding on each maximum, where scale
    bounds the rows' l1 norms plus |base|; two exactly tied maxima then
    differ by at most (k + 2) * eps * scale, half this width."""
    return 2.0 * (k + 2) * EPS * scale


@functools.lru_cache(maxsize=64)
def _key_weights(k: int) -> np.ndarray:
    weights = np.random.default_rng(k).uniform(1.0, 2.0, size=k)
    weights.setflags(write=False)
    return weights


def _row_keys(A: np.ndarray) -> np.ndarray:
    """One key per row: its sum against fixed pseudo-random weights. Equal
    rows get equal keys and negated rows negated keys; unequal rows almost
    never collide, and _row_classes checks the rows of equal keys. einsum
    adds every row's products in one order in either layout (down the
    columns on a Fortran-ordered matrix, along each row on a C-ordered
    one), so A is not copied into Fortran order as _row_sums would."""
    return np.einsum("ij,j->i", A, _key_weights(A.shape[1]))


def _canonical_rows(A: np.ndarray) -> np.ndarray:
    """A with each row negated when its first nonzero entry is negative,
    and with -0.0 entries turned into 0.0."""
    lead = np.argmax(A != 0.0, axis=1)
    flip = A[np.arange(A.shape[0]), lead] < 0.0
    out = A * np.where(flip, -1.0, 1.0)[:, None]
    out += 0.0
    return out


def _row_classes(A: np.ndarray) -> np.ndarray | None:
    """The index of the first row of each class of rows of A equal up to
    sign, in increasing order; None when no two rows are equal up to sign.

    Rows are sorted by the magnitude of their keys, and only neighbours
    with equal magnitudes are compared, entry by entry after orienting each
    by its key's sign. When every such pair holds equal rows, each run of
    equal magnitudes is one class; a pair that differs is a key collision,
    and then the rows are grouped by exact comparison of their canonical
    forms instead.
    """
    keys = _row_keys(A)
    order = np.argsort(np.abs(keys), kind="stable")
    mags = np.abs(keys[order])
    same = np.flatnonzero(mags[1:] == mags[:-1])
    if same.size == 0:
        return None
    signs = np.where(keys < 0.0, -1.0, 1.0)[:, None]
    first, second = order[same], order[same + 1]
    if (A[first] * signs[first] == A[second] * signs[second]).all():
        leads = np.ones(order.size, dtype=bool)
        leads[same + 1] = False
        return np.sort(order[leads])
    _, leads = np.unique(_canonical_rows(A), axis=0, return_index=True)
    return np.sort(leads)


def _distinct_rows(A: np.ndarray) -> np.ndarray:
    """The first row of each class of rows of A equal up to sign
    (_row_classes), as it stands and in its order in A, in Fortran order;
    A itself when no two rows are equal up to sign."""
    leads = _row_classes(A)
    if leads is None:
        return A
    return np.asfortranarray(A[leads])


def _code_signs(code: int, bits: int) -> np.ndarray:
    """The sign vector with binary code `code`: bit j of the code is
    coordinate j (1 -> +1, 0 -> -1)."""
    return np.where((code >> np.arange(bits)) & 1, 1.0, -1.0)


def _signed_sums(C: np.ndarray, start: np.ndarray) -> np.ndarray:
    """start + Cs for every sign vector s of C's columns, one row per s in
    code order (_code_signs). Built by doubling: each column adds itself to
    and subtracts itself from every row so far, one addition per cell."""
    sums = start[None, :]
    for column in C.T:
        sums = np.concatenate((sums - column, sums + column))
    return sums


def _split(n: int, cells: int) -> int:
    """Bits of the candidates' codes per block: as many as put about
    `cells` row sums in a block, and at least one."""
    return max(1, round(math.log2(cells / n)))


def _screen(C: np.ndarray, base: np.ndarray, tol: float) -> np.ndarray:
    """The codes, in increasing order, whose maximum of |(Cs)_i + base_i|
    can lie within tol of the smallest maximum as the float64 search
    computes them (_rescore).

    C and base are scaled by 2^e, a power of two that puts the largest
    entry within q = 32767 // (k + 1) and above q / 4, and rounded to int16. A candidate's
    row sum then has k + 1 terms of at most q, so every partial sum is an
    exact integer that cannot wrap, and each integer maximum is within
    E = (k + 1) / 2 of 2^e times the exact maximum. The float64 search's
    maxima are within rho = (k + 2)(eps / 2) * scale of the exact ones
    (_tie_tolerance), so a code within tol of its smallest maximum has an
    integer maximum at most the smallest plus 2E + 2^e(tol + 2 rho); the
    screen keeps those codes and one integer more for the rounding of that
    bound. The integer search runs in blocks of the float64 search's bytes,
    4 * BLOCK_CELLS cells.
    """
    n, k = C.shape
    q = 32767 // (k + 1)
    peak = max(float(np.max(np.abs(C), initial=0.0)), float(np.max(np.abs(base))))
    # 2^e * peak < 2^(bit_length(q) - 1) <= q, computed on exponents alone,
    # so a subnormal peak gives a finite scale.
    e = q.bit_length() - 1 - math.frexp(peak)[1] if peak > 0.0 else 0
    Cq = np.rint(np.ldexp(C, e)).astype(np.int16)
    bq = np.rint(np.ldexp(base, e)).astype(np.int16)
    bits = _split(n, 4 * BLOCK_CELLS)
    low = min(k, bits)
    chunk = min(k - low, bits)
    low_sums = _signed_sums(Cq[:, :low], np.zeros(n, dtype=np.int16))
    block = np.empty_like(low_sums)
    vals = np.empty((1 << (k - low), 1 << low), dtype=np.int16)
    for first in range(0, 1 << (k - low), 1 << chunk):
        top = _code_signs(first >> chunk, k - low - chunk).astype(np.int16)
        start = Cq[:, low + chunk :] @ top + bq
        highs = _signed_sums(Cq[:, low : low + chunk], start)
        for code, high in enumerate(highs, first):
            np.add(low_sums, high, out=block)
            np.abs(block, out=block)
            block.max(axis=1, out=vals[code])
    vals = vals.ravel()
    # 2 rho = tol / 2, so 2^e(tol + 2 rho) = 2^e * 1.5 tol, rounded up.
    limit = int(vals.min()) + (k + 1) + 1 + np.ceil(np.ldexp(1.5 * tol, e))
    return np.flatnonzero(vals <= limit)


def _rescore(C: np.ndarray, base: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """max_i |(Cs)_i + base_i| in float64 for each code s of `codes`, in
    increasing order, with the bits of a blocked search over every code.

    That search splits each code into low bits, as many as put about
    BLOCK_CELLS row sums in a block, and high bits: a block of low-bit
    partial sums, built once by doubling, plus one high-bit vector. The
    high vectors come in chunks of as many bits, built by doubling from the
    row sums of the remaining columns plus base. Here only the chunks that
    hold a code are built, and each code's row sums are its low-bit row
    plus its high vector, the same two floats added as in the full search.
    """
    n, k = C.shape
    bits = _split(n, BLOCK_CELLS)
    low = min(k, bits)
    chunk = min(k - low, bits)
    low_sums = _signed_sums(C[:, :low], np.zeros(n))
    width = max(1, BLOCK_CELLS // n)
    groups, starts = np.unique(codes >> (low + chunk), return_index=True)
    ends = np.append(starts[1:], codes.size)
    out = np.empty(codes.size)
    for group, lo, hi in zip(groups.tolist(), starts, ends):
        top = _code_signs(group, k - low - chunk)
        start = _row_sums(C[:, low + chunk :], top) + base
        highs = _signed_sums(C[:, low : low + chunk], start)
        for first in range(lo, hi, width):
            part = codes[first : min(first + width, hi)]
            cand = low_sums[part & ((1 << low) - 1)]
            cand += highs[(part >> low) & ((1 << chunk) - 1)]
            np.abs(cand, out=cand).max(axis=1, out=out[first : first + part.size])
    return out


def _best_signs(C: np.ndarray, base: np.ndarray) -> tuple[float, np.ndarray]:
    """A minimizer of max_i |(Cs)_i + base_i| over all 2^k sign vectors s,
    with its value.

    Each candidate's maximum is scored in float64 (_rescore), and the
    lowest binary code whose maximum is within _tie_tolerance(k,
    max_i(sum_j |C_ij| + |base_i|)) of the smallest wins, so exact ties do
    not fall to the order in which the row sums are added up. The value is
    the winner's, from _row_sums.

    Only the codes that an exact int16 search over every code keeps
    (_screen) are scored in float64. That screen keeps every code within
    the tolerance of the smallest float64 maximum, the code of that maximum
    among them, so the winner and its value are those of scoring every
    code in float64.
    """
    k = C.shape[1]
    scale = float(np.max(np.abs(C).sum(axis=1) + np.abs(base)))
    tol = _tie_tolerance(k, scale)
    codes = _screen(C, base, tol)
    vals = _rescore(C, base, codes)
    code = int(codes[np.argmax(vals <= vals.min() + tol)])
    signs = _code_signs(code, k)
    return float(np.max(np.abs(_row_sums(C, signs) + base))), signs


def bruteforce_min_discrepancy(A) -> tuple[float, np.ndarray]:
    """Exact minimum of max_i |(Ax)_i| over all sign vectors, with a minimizer.

    Negating x leaves the discrepancy unchanged, so the last coordinate is
    pinned at +1 and only 2^(k-1) candidates are scanned, in blocks of about
    BLOCK_CELLS row sums each.
    """
    arr = np.asarray(A, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    n, k = arr.shape
    if k > 20:
        raise ValueError(f"exhaustive search over 2^{k} colorings refused (k > 20)")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains non-finite entries")
    value, signs = _best_signs(arr[:, : k - 1], arr[:, k - 1])
    return value, np.append(signs, 1.0)


def minority_sign(x) -> int:
    """The sign occurring at most floor(k/2) times in x; ties return -1."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coloring must be a nonempty 1-D sign vector")
    if not np.all(np.abs(arr) == 1.0):
        raise ValueError("coloring entries must be exactly +-1")
    minus = int(np.count_nonzero(arr < 0))
    plus = arr.size - minus
    return -1 if minus <= plus else +1


def partial_coloring(A, seed=None) -> np.ndarray:
    """i.i.d. uniform +-1 signs, one per column of A, drawn from
    rng_from(seed): the first step of a coloring attempt.

    The matrix only fixes the width: only its shape is read, not its
    entries, which full_coloring has validated. The call makes no promise
    about the rows' sums: full_coloring polishes the coloring and checks it
    against the bound.
    """
    shape = np.shape(A)
    if len(shape) != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {shape}")
    return rng_from(seed).choice([-1.0, 1.0], size=shape[1])


def _top_rows(sums: np.ndarray) -> np.ndarray:
    """The BOUND_ROWS rows with the largest |row sum|, or every row when
    there are no more."""
    cut = sums.size - BOUND_ROWS
    if cut <= 0:
        return np.arange(sums.size)
    return np.argpartition(np.abs(sums), cut)[cut:]


def _pair_maxima(
    sums: np.ndarray, plus_2: np.ndarray, minus_2: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """max_i |sums_i - plus_2[a, i] + minus_2[b, i]| for each flat pair
    index a * len(minus_2) + b, in blocks of about BLOCK_CELLS row sums."""
    a, b = np.divmod(pairs, minus_2.shape[0])
    width = max(1, BLOCK_CELLS // sums.size)
    out = np.empty(pairs.size)
    for lo in range(0, pairs.size, width):
        cand = (sums - plus_2[a[lo : lo + width]]) + minus_2[b[lo : lo + width]]
        np.abs(cand, out=cand).max(axis=1, out=out[lo : lo + width])
    return out


def _refine_flips(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Deterministic local search: accept single-coordinate flips (and, for
    narrow matrices, opposite-sign pair flips) that strictly reduce the
    discrepancy. Each accepted move recomputes exact row sums, so the result
    never degrades the coloring.

    Single flips are taken first-improvement in column order. A pair flip
    takes the first (plus, minus) pair, in row-major order, whose maximum is
    within _tie_tolerance(k, max_i sum_j |A_ij|) of the best pair's, and
    only when that maximum improves on the current one by more than 1e-12.

    A candidate's maximum over a subset of the rows, with each row sum
    computed as for all rows, is a lower bound on its maximum. So every
    candidate is first bounded on the BOUND_ROWS rows with the largest
    |row sum| (_top_rows), and only the candidates whose bound does not
    rule out the move are scored on all rows, in blocks of about
    BLOCK_CELLS row sums: single flips whose bound is below the current
    maximum less 1e-12, until one improves; pairs whose bound is below it,
    which fixes the best pair's maximum, then those whose bound lies within
    the tie tolerance of that maximum, since one of them may come first.
    The moves are therefore those of a one-at-a-time scan of every
    candidate on all rows. The row sums start from _row_sums and change
    only by elementwise updates, so every move is the same whatever the
    order of the rows and however often one repeats.
    """
    x = x.copy()
    sums = _row_sums(A, x)
    current = float(np.max(np.abs(sums)))
    n, k = A.shape
    width = max(1, BLOCK_CELLS // n)
    pairs = k <= PAIR_REFINE_MAX
    if pairs:
        tolerance = _tie_tolerance(k, float(np.abs(A).sum(axis=1).max()))
    for _ in range(REFINE_SWEEPS):
        improved = False
        j = 0
        while j < k:
            limit = current - 1e-12
            stop = min(j + width, k)
            top = _top_rows(sums)
            cand = sums[top, None] - (2.0 * x[j:stop]) * A[top, j:stop]
            bound = np.abs(cand, out=cand).max(axis=0)
            candidates = j + np.flatnonzero(bound < limit)
            j = stop
            # Blocks of 1, 2, 4, ... candidates: the first one the bound
            # leaves open usually improves.
            lo = 0
            size = 1
            while lo < candidates.size:
                cols = candidates[lo : lo + size]
                lo += size
                size = min(2 * size, width)
                cand = sums[:, None] - (2.0 * x[cols]) * A[:, cols]
                vals = np.abs(cand, out=cand).max(axis=0)
                better = np.flatnonzero(vals < limit)
                if better.size:
                    j = int(cols[better[0]])
                    sums = sums - 2.0 * x[j] * A[:, j]
                    x[j] = -x[j]
                    current = float(vals[better[0]])
                    improved = True
                    j += 1
                    break
        if pairs:
            while True:
                plus = np.flatnonzero(x > 0)
                minus = np.flatnonzero(x < 0)
                if plus.size == 0 or minus.size == 0:
                    break
                plus_2 = 2.0 * A[:, plus].T
                minus_2 = 2.0 * A[:, minus].T
                limit = current - 1e-12
                top = _top_rows(sums)
                cand = (sums[top] - plus_2[:, top])[:, None, :] + minus_2[:, top]
                bound = np.abs(cand, out=cand).max(axis=2).ravel()
                scored = np.flatnonzero(bound < limit)
                maxima = _pair_maxima(sums, plus_2, minus_2, scored)
                if scored.size == 0 or maxima.min() >= limit:
                    break
                best = maxima.min()
                near = np.flatnonzero((bound >= limit) & (bound <= best + tolerance))
                if near.size:
                    scored = np.concatenate((scored, near))
                    near_maxima = _pair_maxima(sums, plus_2, minus_2, near)
                    maxima = np.concatenate((maxima, near_maxima))
                    order = np.argsort(scored)
                    scored, maxima = scored[order], maxima[order]
                pick = int(np.argmax(maxima <= best + tolerance))
                if maxima[pick] >= limit:
                    break
                a, b = divmod(int(scored[pick]), minus.size)
                sums = sums - plus_2[a] + minus_2[b]
                x[plus[a]] = -1.0
                x[minus[b]] = 1.0
                current = float(maxima[pick])
                improved = True
        if not improved:
            break
    return x


def full_coloring(
    A,
    seed=None,
    config: ColoringConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Complete sign coloring with discrepancy within the Spencer-type bound.

    Only the distinct rows up to sign are colored (_distinct_rows), the
    first of each class as it stands: a row repeated, or repeated negated,
    is the same constraint. Everything below runs on them, and n counts
    them.

    For k <= BRUTEFORCE_MAX columns the exact exhaustive optimum is
    returned (deterministic, seed unused). Otherwise an attempt is one
    partial_coloring call, a uniform +-1 sign per column, polished by local
    flips (_refine_flips). Attempts restart with a fresh derived seed until
    the bound K_S*sqrt(k*ln(e*n/k)) (k <= n; K_S*sqrt(n) otherwise) is met
    or RETRY_BUDGET attempts are spent, and then DiscrepancyBoundError
    reports the best discrepancy achieved. That check of the finished
    coloring is the only one the output passes, and its guarantee.

    Near-ties in the exhaustive searches and the pair flips go to the first
    candidate in a fixed order (see _best_signs and _refine_flips), so the
    coloring is the same bits under any order of the rows, any repetition
    or negation of them, and any BLAS thread count.
    """
    arr = _distinct_rows(_validate_matrix(A))
    n_rows, k = arr.shape
    bound = spencer_bound(n_rows, k, config.spencer_constant)

    if k <= BRUTEFORCE_MAX:
        achieved, x = bruteforce_min_discrepancy(arr)
        if achieved > bound:
            raise DiscrepancyBoundError(achieved, bound, attempts=1)
        return x

    best_val = math.inf
    for attempt in range(RETRY_BUDGET):
        x = _refine_flips(arr, partial_coloring(arr, split_seed(seed, attempt, 0)))
        val = discrepancy(arr, x)
        best_val = min(best_val, val)
        if val <= bound:
            return x
    raise DiscrepancyBoundError(best_val, bound, attempts=RETRY_BUDGET)


def halve_columns(
    A,
    seed=None,
    config: ColoringConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Indices of at most floor(k/2) of A's k columns whose row sums track
    half the full row sums to within half the coloring's discrepancy.

    Colors the columns and keeps the minority sign sigma: the kept subset's
    row sum is (full sum + sigma*(Ax)_i)/2, so the coloring's Spencer-type
    bound, halved, bounds each row's error.
    """
    x = full_coloring(A, seed, config)
    sigma = minority_sign(x)
    return np.flatnonzero(x == sigma)
