"""Constructive combinatorial discrepancy minimization.

Produces sign colorings x of the columns of a matrix A with entries in
[-1, 1] such that the discrepancy max_i |(Ax)_i| meets a Spencer-type bound,
plus the minority-sign column subset that inherits a row-sum sandwich from
the coloring. A coloring starts from a base b, the drift that earlier
colorings left on the rows or zeros when none is given, and steers the
sums b + Ax. No step takes a seed.

partial_coloring is Spencer's hyperbolic-cosine balancing game, derandomized
by Raghavan's pessimistic estimator: one pass that signs the columns in
order, x_j = -1 when sum_i sinh(s_i) * a_ij > 0 and +1 otherwise, with
s = lambda * (b + the row sums of the columns signed so far) and
lambda = sqrt(2 ln(2n) / k). For t in [-1, 1] the chord bound
e^(lambda t) <= cosh(lambda) + t sinh(lambda) shows that each choice keeps
sum_i cosh(s_i) within a factor cosh(lambda) <= e^(lambda^2 / 2) of its
value before, so from a zero base max_i |(Ax)_i| <= sqrt(2k ln(2n)).
full_coloring checks the pass's own max_i |(Ax)_i| against the
Spencer-type bound; a coloring from a nonzero base that misses it is made
once more from a zero base, and only that one's miss raises
DiscrepancyBoundError.

Small instances skip the signing: an exhaustive search over all sign
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

Two rows of [A | b] equal up to sign are one constraint, since |b_i +
(Ax)_i| is the same for both, so full_coloring colors the distinct rows
only, and the Spencer-type bound counts them. They are taken in one fixed
order, by the magnitude of a key (_row_classes), each oriented by its
key's sign, and every sum is einsum's, added in a fixed order rather than
by BLAS. So the coloring is the same bits under any order of the rows, any
repetition or negation of a row together with its base, and any BLAS
thread count. The exhaustive searches break near-ties by a fixed order: a
candidate counts as tied with the best when its maximum is within
_tie_tolerance, 2(k + 2) * eps * max_i(sum_j |C_ij| + |base_i|), of the
smallest: twice the widest gap that rounding, in any summation order, can
open between two exactly equal maxima of k products and a base, so every
exact minimizer counts as tied.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .margins import _checked_entries

# Blocks of the exact searches hold 256 KiB, small enough that each
# block's passes run in cache: BLOCK_CELLS float64 row sums, or
# 4 * BLOCK_CELLS int16 ones in the exhaustive search's screen.
BLOCK_CELLS = 1 << 15
EPS = float(np.finfo(np.float64).eps)
# Exhaustive search (_best_signs) colors matrices of at most BRUTEFORCE_MAX
# columns, 2^16 sign vectors.
BRUTEFORCE_MAX = 16


class DiscrepancyBoundError(RuntimeError):
    """A coloring from a zero base missed the bound by its discrepancy
    achieved."""

    def __init__(self, achieved: float, bound: float):
        self.achieved = achieved
        self.bound = bound
        super().__init__(
            f"no coloring met the bound {bound:.6g}; "
            f"best discrepancy achieved was {achieved:.6g}"
        )


@dataclass(frozen=True)
class ColoringConfig:
    """The coloring's one parameter: spencer_constant, the K_S of the bound
    that full_coloring enforces. It must be positive and finite: at zero or
    below no coloring meets the bound, and at inf every one does. The
    searches' constants are module constants."""

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
    # and the signing and _signed_sums read each column contiguously.
    return _checked_entries(np.asfortranarray(A, dtype=np.float64), "matrix")


def _validate_base(base, n_rows: int) -> np.ndarray:
    """base as n_rows finite floats; zeros for None."""
    if base is None:
        return np.zeros(n_rows)
    arr = np.asarray(base, dtype=np.float64)
    if arr.shape != (n_rows,) or not np.isfinite(arr).all():
        raise ValueError(f"base must be {n_rows} finite entries, got shape {arr.shape}")
    return arr


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


def _row_keys(A: np.ndarray, base: np.ndarray) -> np.ndarray:
    """One key per row of [A | base], not stacked: its sum against fixed
    pseudo-random weights. Equal rows get equal keys and negated rows
    negated keys; unequal ones can collide (bases one bit apart do), so
    _row_classes checks them. einsum adds every row's products in one order
    in either layout, so A is not copied into Fortran order."""
    k = A.shape[1]
    weights = _key_weights(k + 1)
    return np.einsum("ij,j->i", A, weights[:k]) + weights[k] * base


def _canonical_rows(A: np.ndarray) -> np.ndarray:
    """A with each row negated when its first nonzero entry is negative,
    and with -0.0 entries turned into 0.0."""
    lead = np.argmax(A != 0.0, axis=1)
    flip = A[np.arange(A.shape[0]), lead] < 0.0
    out = A * np.where(flip, -1.0, 1.0)[:, None]
    out += 0.0
    return out


def _row_classes(A: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first (lowest) row index of each class of rows of [A | base]
    equal up to sign, in the signing's order, and every row's key.

    Rows are stably sorted by |key|, and neighbours with equal |key| are
    compared after orienting each by its key's sign. A run of equal |key|
    holding two unequal neighbours, a collision, is sorted by canonical
    form (_canonical_rows) instead. So the order depends on the rows up to
    sign alone, not on where they sit.
    """
    keys = _row_keys(A, base)
    order = np.argsort(np.abs(keys), kind="stable")
    mags = np.abs(keys[order])
    tied = mags[1:] == mags[:-1]
    same = np.flatnonzero(tied)
    leads = np.ones(order.size, dtype=bool)
    if same.size:
        first, second = order[same], order[same + 1]
        flip = np.where((keys[first] < 0.0) == (keys[second] < 0.0), 1.0, -1.0)
        equal = (A[first] == flip[:, None] * A[second]).all(axis=1)
        equal &= base[first] == flip * base[second]
        run = np.concatenate(([0], np.cumsum(~tied)))
        collided = np.isin(run, run[same[~equal]])
        leads[same[~collided[same]] + 1] = False
        spots = np.flatnonzero(collided)
        if spots.size:
            rows = order[spots]
            canon = _canonical_rows(np.column_stack((A[rows], base[rows])))
            resort = np.lexsort((*canon.T[::-1], run[spots]))
            order[spots] = rows[resort]
            canon = canon[resort]
            repeat = (run[spots[1:]] == run[spots[:-1]]) & (canon[1:] == canon[:-1]).all(axis=1)
            leads[spots[1:][repeat]] = False
    return order[leads], keys


def _distinct_rows(A: np.ndarray) -> np.ndarray:
    """The first row of each class of rows of A equal up to sign
    (_row_classes), as it stands and in its order in A, in Fortran order;
    A itself when no two rows are equal up to sign."""
    leads, _ = _row_classes(A, np.zeros(A.shape[0]))
    if leads.size == A.shape[0]:
        return A
    return np.asfortranarray(A[np.sort(leads)])


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


def partial_coloring(A, *, base=None) -> np.ndarray:
    """The hyperbolic-cosine signing of A's columns from base (the module
    docstring), zeros when None.

    A decision sum within its rounding bound of zero is a tie and gives
    +1, so exact ties, frequent on Hadamard matrices, do not fall to the
    last bits of sinh or of the sum. lambda * base is clipped once to
    +-354, half the exponent range: the potential sum_i cosh(s_i) then
    starts below e^354 * n and grows at most 2n-fold, so nothing overflows.
    """
    arr = _validate_matrix(A)
    n, k = arr.shape
    b = _validate_base(base, n)
    lam = math.sqrt(2.0 * math.log(2.0 * n) / k)
    s = np.clip(lam * b, -354.0, 354.0)
    # Before column j the potential is at most phi_0 * cosh(lambda)^j and
    # a decision sum at most lambda times that, so its rounding is below
    # tie = 2(n + 2) * eps * lambda * phi_0 * cosh(lambda)^j.
    tie = 2.0 * (n + 2) * EPS * lam * float(np.cosh(s).sum())
    growth = math.cosh(lam)
    x = np.ones(k)
    sinh = np.empty(n)
    # The columns scaled by lambda > 0 once: s moves by one of them per
    # column, and the decision sums keep their signs.
    for j, column in enumerate((lam * arr).T):
        np.sinh(s, out=sinh)
        if np.einsum("i,i->", sinh, column) > tie:
            x[j] = -1.0
            s -= column
        else:
            s += column
        tie *= growth
    return x


def _color(A: np.ndarray, base: np.ndarray, config: ColoringConfig):
    """(discrepancy, bound, x) of one coloring of the distinct rows of
    [A | base], each oriented by its key's sign: the exact minimizer of
    max_i |(Ax)_i + base_i| up to BRUTEFORCE_MAX columns, else the signing."""
    leads, keys = _row_classes(A, base)
    signs = np.where(keys[leads] < 0.0, -1.0, 1.0)
    # Gathered as the rows of A.T's transpose, so C is Fortran-ordered.
    C = A.T.take(leads, axis=1)
    C *= signs
    C = C.T
    b = base[leads] * signs
    if C.shape[1] > BRUTEFORCE_MAX:
        x = partial_coloring(C, base=b)
    else:
        x = _best_signs(C, b)[1]
    return discrepancy(C, x), spencer_bound(*C.shape, config.spencer_constant), x


def full_coloring(
    A, *, config: ColoringConfig = DEFAULT_CONFIG, base=None
) -> np.ndarray:
    """Complete sign coloring with discrepancy within the Spencer-type bound.

    Colors the distinct rows of [A | base] once (_color). The pass's own
    max_i |(Ax)_i| must meet K_S*sqrt(k*ln(e*n/k)) (k <= n; K_S*sqrt(n)
    otherwise), n counting the distinct rows: that check is the output's
    guarantee. On a miss from a nonzero base the rows are colored once
    more from a zero base, and DiscrepancyBoundError reports that one's
    miss. The bits do not depend on the rows' order, repetition or
    negation with their base, nor on BLAS threads.
    """
    arr = _validate_matrix(A)
    b = _validate_base(base, arr.shape[0])
    achieved, bound, x = _color(arr, b, config)
    if achieved > bound and b.any():
        achieved, bound, x = _color(arr, np.zeros_like(b), config)
    if achieved > bound:
        raise DiscrepancyBoundError(achieved, bound)
    return x


def halve_columns(A, *, config: ColoringConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Indices of at most floor(k/2) of A's k columns whose row sums track
    half the full row sums to within half the coloring's discrepancy.

    Colors the columns and keeps the minority sign sigma: the kept subset's
    row sum is (full sum + sigma*(Ax)_i)/2, so the coloring's Spencer-type
    bound, halved, bounds each row's error.
    """
    x = full_coloring(A, config=config)
    sigma = minority_sign(x)
    return np.flatnonzero(x == sigma)
