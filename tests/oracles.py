"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (explicit loops,
exhaustive enumeration) on purpose: these are the yardsticks the fast
implementations are measured against, so they must not share code or
algorithmic shortcuts with the package.
"""
import itertools
import math

import numpy as np



def margins_double_loop(U_values, w_values):
    """Margin vector by explicit double summation."""
    n, m = U_values.shape
    out = []
    for i in range(n):
        total = 0.0
        for j in range(m):
            total += U_values[i][j] * w_values[j]
        out.append(total)
    return np.array(out)


def min_margin_sort(U_values, w_values):
    values = sorted(margins_double_loop(U_values, w_values))
    return values[0]


def sup_norm_elementwise(U_values, w_values, w2_values):
    a = margins_double_loop(U_values, w_values)
    b = margins_double_loop(U_values, w2_values)
    best = 0.0
    for x, y in zip(a, b):
        best = max(best, abs(x - y))
    return best


def curve_by_sorting(margin_values):
    ordered = sorted(float(v) for v in margin_values)
    n = len(ordered)
    return [(ordered[k], (k + 1) / n) for k in range(n)]


def min_discrepancy_exhaustive(A):
    """Minimum of max_i |(Ax)_i| over every sign vector, by direct product."""
    A = np.asarray(A, dtype=np.float64)
    k = A.shape[1]
    best = math.inf
    best_x = None
    for signs in itertools.product((-1.0, 1.0), repeat=k):
        x = np.array(signs)
        val = float(np.max(np.abs(A @ x)))
        if val < best:
            best = val
            best_x = x
    return best, best_x


def best_subset_row_sum_error(A, max_cols):
    """Smallest worst-row |subset sum - half of full sum| over all subsets
    of at most max_cols columns (exhaustive)."""
    A = np.asarray(A, dtype=np.float64)
    half = A.sum(axis=1) / 2.0
    k = A.shape[1]
    best = math.inf
    for size in range(max_cols + 1):
        for subset in itertools.combinations(range(k), size):
            if subset:
                sums = A[:, list(subset)].sum(axis=1)
            else:
                sums = np.zeros(A.shape[0])
            err = float(np.max(np.abs(sums - half)))
            best = min(best, err)
    return best


def best_stump_exhaustive(features, labels, weights):
    """Maximum-edge stump by scanning every (feature, threshold, polarity)
    in the documented tie order: lowest feature, then lowest threshold,
    then polarity +1 before -1. Returns (feature, threshold, polarity)."""
    n, d = features.shape
    best_edge = -math.inf
    best = None
    for feature in range(d):
        column = features[:, feature]
        distinct = sorted(set(float(v) for v in column))
        thresholds = [-math.inf]
        for a, b in zip(distinct[:-1], distinct[1:]):
            thresholds.append((a + b) / 2.0)
        thresholds.append(math.inf)
        for threshold in thresholds:
            for polarity in (1, -1):
                edge = 0.0
                for i in range(n):
                    h = polarity * (1.0 if column[i] - threshold >= 0 else -1.0)
                    edge += weights[i] * labels[i] * h
                if edge > best_edge + 1e-15:
                    best_edge = edge
                    best = (feature, threshold, polarity)
    return best, best_edge


def train_stump_per_feature(features, labels, weights):
    """The stump search of the per-feature kernel, one feature at a time:
    each feature's stable argsort, the cumsum of the signed weights in that
    order, the edges total - 2 * prefix at the candidate thresholds (the
    sentinels and the midpoints between distinct values), and the
    interleaved argmax. Returns ((feature, threshold, polarity), edges),
    the edges of polarity +1 in feature order, thresholds ascending."""
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    signed = np.asarray(weights, dtype=np.float64) * np.asarray(labels, dtype=np.float64)
    total = float(signed.sum())
    edges, candidates = [], []
    for f in range(d):
        order = np.argsort(features[:, f], kind="stable")
        values = features[order, f]
        prefix = np.zeros(n + 1)
        prefix[1:] = np.cumsum(signed[order])
        interior = [j for j in range(1, n) if values[j - 1] < values[j]]
        thresholds = [(values[j - 1] + values[j]) / 2.0 for j in interior]
        edge = prefix[[0] + interior + [n]]
        edge *= -2.0
        edge += total
        edges.append(edge)
        candidates.extend((f, t) for t in [-math.inf] + thresholds + [math.inf])
    edges = np.concatenate(edges)
    k, polarity = stump_pick_interleaved(edges)
    feature, threshold = candidates[k]
    return (feature, float(threshold), polarity), edges


def adaboost_v_per_feature(features, labels, rounds):
    """AdaBoostV's rounds, spelled out over train_stump_per_feature.
    Returns the stumps as (feature, threshold, polarity) and the alphas."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = features.shape[0]
    nu = math.sqrt(2.0 * math.log(n) / rounds)
    cap = 1.0 - 1e-10
    distribution = np.full(n, 1.0 / n)
    stumps, alphas = [], []
    min_edge = math.inf
    for _ in range(rounds):
        (f, t, p), _ = train_stump_per_feature(features, labels, distribution)
        predictions = p * np.where(features[:, f] - t >= 0.0, 1.0, -1.0)
        agreement = labels * predictions
        edge = float(distribution @ agreement)
        if edge <= 0.0:
            break
        edge = min(edge, cap)
        min_edge = min(min_edge, edge)
        rho = min(max(min_edge - nu, -cap), cap)
        alpha = 0.5 * math.log((1 + edge) / (1 - edge)) - 0.5 * math.log(
            (1 + rho) / (1 - rho)
        )
        stumps.append((f, t, p))
        alphas.append(alpha)
        distribution = distribution * np.exp(-alpha * agreement)
        distribution /= distribution.sum()
    return stumps, np.array(alphas)


def stump_pick_interleaved(edge):
    """(candidate, polarity) picked by argmax over the edges of both
    polarities interleaved per candidate, +1 first: the first largest in
    the order candidate, then polarity +1."""
    edge = np.asarray(edge, dtype=np.float64)
    flat = np.empty(2 * edge.size)
    flat[0::2] = edge
    flat[1::2] = -edge
    idx = int(np.argmax(flat))
    return idx // 2, 1 if idx % 2 == 0 else -1


def lp_margin_grid(U_values, resolution):
    """Best minimal margin over the simplex grid with denominator
    `resolution` (compositions of resolution into m parts)."""
    U = np.asarray(U_values, dtype=np.float64)
    m = U.shape[1]
    best = -math.inf
    for combo in itertools.combinations(range(resolution + m - 1), m - 1):
        parts = []
        prev = -1
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + m - 2 - prev)
        w = np.array(parts, dtype=np.float64) / resolution
        val = float(np.min(U @ w))
        best = max(best, val)
    return best


def best_offset_exhaustive(scores, labels):
    """Try every candidate offset (midpoints plus sentinels, same candidate
    set as the implementation is documented to use) by direct counting.
    Returns (offset, accuracy) with the smallest maximizing offset."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = scores.size
    ordered = np.sort(scores)
    candidates = [float(ordered[0]) - 1.0]
    for a, b in zip(ordered[:-1], ordered[1:]):
        candidates.append((float(a) + float(b)) / 2.0)
    candidates.append(float(ordered[-1]) + 1.0)
    best_offset = None
    best_correct = -1
    for offset in candidates:
        correct = 0
        for i in range(n):
            prediction = 1.0 if scores[i] - offset >= 0 else -1.0
            if prediction == labels[i]:
                correct += 1
        if correct > best_correct:
            best_correct = correct
            best_offset = offset
    return best_offset, best_correct / n


def best_offset_counting(scores, labels):
    """Same candidate set and tie rule as best_offset_exhaustive, with the
    per-offset count vectorized so n = 1000 instances stay affordable."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = scores.size
    ordered = np.sort(scores)
    candidates = [float(ordered[0]) - 1.0]
    for a, b in zip(ordered[:-1], ordered[1:]):
        candidates.append((float(a) + float(b)) / 2.0)
    candidates.append(float(ordered[-1]) + 1.0)
    best_offset = None
    best_correct = -1
    for offset in candidates:
        predictions = np.where(scores - offset >= 0, 1.0, -1.0)
        correct = int(np.sum(predictions == labels))
        if correct > best_correct:
            best_correct = correct
            best_offset = offset
    return best_offset, best_correct / n


def accuracy_by_counting(scores, labels, offset):
    correct = 0
    for s, y in zip(scores, labels):
        prediction = 1.0 if s - offset >= 0 else -1.0
        if prediction == y:
            correct += 1
    return correct / len(scores)


def auc_pairwise(scores, labels):
    """O(n^2) Mann-Whitney: fraction of (positive, negative) pairs ranked
    correctly, ties counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    pos = scores[labels == 1.0]
    neg = scores[labels == -1.0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def sign_patterns_all(bits):
    """All 2^bits sign vectors, row r holding the bits of r (bit j of r is
    coordinate j, 1 -> +1)."""
    codes = np.arange(1 << bits, dtype=np.uint32)
    cols = [(codes >> j) & 1 for j in range(bits)]
    return 2.0 * np.stack(cols, axis=1).astype(np.float64) - 1.0


def bruteforce_unblocked(A):
    """Exhaustive minimum discrepancy with the last sign pinned at +1, all
    2^(k-1) candidates' row sums in one block (the pre-blocking kernel)."""
    A = np.asarray(A, dtype=np.float64)
    k = A.shape[1]
    if k == 1:
        x = np.ones(1)
        return float(np.max(np.abs(A @ x))), x
    patterns = sign_patterns_all(k - 1)
    sums = patterns @ A[:, : k - 1].T + A[:, k - 1]
    vals = np.max(np.abs(sums), axis=1)
    best = int(np.argmin(vals))
    return float(vals[best]), np.concatenate([patterns[best], [1.0]])


def float_search_maxima(C, base, block_cells):
    """max_i |(Cs)_i + base_i| in float64 for every sign vector s of C's
    columns, in code order (bit j of the code is coordinate j, 1 -> +1):
    the blocked search that scored every code before the int16 screen.

    Codes split into low bits, as many as put about block_cells row sums
    in a block (at least one), and high bits, in chunks of as many bits.
    Each block is a fixed array of low-bit partial sums, built by doubling
    from zero, plus one high-bit vector, built by doubling from the row
    sums (einsum, in column order) of the remaining columns plus base.
    """
    C = np.asfortranarray(C, dtype=np.float64)
    n, k = C.shape

    def doubled(columns, start):
        sums = start[None, :]
        for column in columns.T:
            sums = np.concatenate((sums - column, sums + column))
        return sums

    def signs_of(code, bits):
        return np.array([1.0 if (code >> j) & 1 else -1.0 for j in range(bits)])

    bits = max(1, round(math.log2(block_cells / n)))
    low = min(k, bits)
    chunk = min(k - low, bits)
    low_sums = doubled(C[:, :low], np.zeros(n))
    vals = []
    for first in range(0, 1 << (k - low), 1 << chunk):
        top = signs_of(first >> chunk, k - low - chunk)
        start = np.einsum("ij,j->i", C[:, low + chunk :], top) + base
        for high in doubled(C[:, low : low + chunk], start):
            vals.extend(np.max(np.abs(low_sums + high), axis=1))
    return np.array(vals)


def best_signs_float_search(C, base, block_cells):
    """The float64 blocked search's winner: the lowest code whose maximum
    is within 2(k + 2) * eps * max_i(sum_j |C_ij| + |base_i|) of the
    smallest, with its maximum recomputed from its own row sums."""
    C = np.asfortranarray(C, dtype=np.float64)
    k = C.shape[1]
    vals = float_search_maxima(C, base, block_cells)
    scale = float(np.max(np.abs(C).sum(axis=1) + np.abs(base)))
    tolerance = 2.0 * (k + 2) * np.finfo(np.float64).eps * scale
    code = int(np.argmax(vals <= vals.min() + tolerance))
    signs = np.array([1.0 if (code >> j) & 1 else -1.0 for j in range(k)])
    value = float(np.max(np.abs(np.einsum("ij,j->i", C, signs) + base)))
    return value, signs


def bruteforce_float_search(A, block_cells):
    """best_signs_float_search with the last sign pinned at +1."""
    A = np.asarray(A, dtype=np.float64)
    value, signs = best_signs_float_search(A[:, :-1], A[:, -1], block_cells)
    return value, np.append(signs, 1.0)


def cosh_signing_decisions(A, base, x):
    """The hyperbolic-cosine signing's decision sum at every column, along
    the signs x, with its scale: before column j each row's running sum is
    s_i = base_i + sum over l < j of x_l * a_il, and the decision is
    sum_i sinh(lambda * s_i) * a_ij, lambda = sqrt(2 ln(2n) / k), added one
    row at a time in Python floats. The scale is sum_i cosh(lambda * s_i)
    * |a_ij|, which bounds how far rounding in s can move the decision."""
    A = np.asarray(A, dtype=np.float64)
    n, k = A.shape
    lam = math.sqrt(2.0 * math.log(2.0 * n) / k)
    sums = [float(b) for b in base]
    out = []
    for j in range(k):
        decision, scale = 0.0, 0.0
        for i in range(n):
            decision += math.sinh(lam * sums[i]) * float(A[i, j])
            scale += math.cosh(lam * sums[i]) * abs(float(A[i, j]))
        out.append((decision, scale))
        for i in range(n):
            sums[i] += float(x[j]) * float(A[i, j])
    return out


def class_leads_by_dict(A):
    """The index of the first row of each class of rows equal up to sign,
    found one row at a time with a dict keyed by the bytes of each row
    negated when its first nonzero entry is negative, -0.0 written as 0.0."""
    seen = {}
    for index, row in enumerate(np.asarray(A, dtype=np.float64)):
        key = row.copy()
        nonzero = np.flatnonzero(key)
        if nonzero.size and key[nonzero[0]] < 0.0:
            key = -key
        key[key == 0.0] = 0.0
        seen.setdefault(key.tobytes(), index)
    return np.array(list(seen.values()), dtype=np.intp)


def distinct_rows_by_dict(A):
    """The first row of each class of rows equal up to sign, as it stands,
    in its order in A (class_leads_by_dict)."""
    return np.asarray(A, dtype=np.float64)[class_leads_by_dict(A)]


def dataset_text_by_cells(features, labels):
    """Dataset CSV text written one cell at a time: label as an int, then
    repr of every feature."""
    lines = []
    for label, row in zip(labels, features):
        cells = [str(int(label))] + [repr(float(v)) for v in row]
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def matrix_text_by_cells(U_values, w_values):
    """Margin-matrix text written one cell at a time: "n m", the weights,
    then the rows, every value by repr."""
    n, m = U_values.shape
    lines = [f"{n} {m}\n", " ".join(repr(float(v)) for v in w_values) + "\n"]
    for row in U_values:
        lines.append(" ".join(repr(float(v)) for v in row) + "\n")
    return "".join(lines)


def curve_csv_by_rows(curve):
    """Curve CSV text written one point at a time."""
    rows = "".join(f"{float(m)!r},{float(f)!r}\n" for m, f in curve)
    return "margin,cumulative_fraction\n" + rows
