import dataclasses
import functools
import importlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevote import (
    DEFAULT_CONFIG,
    ColoringConfig,
    DiscrepancyBoundError,
    MarginMatrix,
    WeightVector,
    bruteforce_min_discrepancy,
    discrepancy,
    full_coloring,
    halve,
    halve_columns,
    minority_sign,
    partial_coloring,
    sparsify,
    spencer_bound,
)
from sparsevote.seeding import rng_from, split_seed

from oracles import (
    best_signs_float_search,
    best_subset_row_sum_error,
    bruteforce_float_search,
    bruteforce_unblocked,
    class_leads_by_dict,
    cosh_signing_decisions,
    distinct_rows_by_dict,
    float_search_maxima,
    min_discrepancy_exhaustive,
)

# The package re-exports the function `discrepancy`, which shadows the
# submodule as an attribute; import_module returns the module itself.
coloring = importlib.import_module("sparsevote.discrepancy")

# Frozen 8x8 sign matrix (seed 77) whose exhaustive optimum is 2.0.
A_8X8 = np.array([
    [-1, 1, 1, 1, 1, -1, 1, -1],
    [1, -1, -1, -1, -1, 1, -1, -1],
    [1, -1, -1, 1, 1, 1, 1, 1],
    [1, -1, 1, -1, 1, 1, -1, 1],
    [-1, 1, -1, -1, -1, 1, -1, -1],
    [-1, -1, -1, -1, -1, -1, 1, -1],
    [1, -1, 1, 1, -1, -1, 1, -1],
    [-1, -1, 1, -1, 1, -1, -1, -1],
], dtype=np.float64)
A_8X8_OPTIMUM = 2.0


def sign_matrix(seed, n, k):
    return rng_from(seed).choice([-1.0, 1.0], size=(n, k))


def box_matrix(seed, n, k):
    return rng_from(seed).uniform(-1.0, 1.0, size=(n, k))


def grid_matrix(seed, n, k):
    """Entries on a five-level grid, so row sums and candidates tie often."""
    return rng_from(seed).integers(-2, 3, size=(n, k)) / 2.0


def sylvester(order):
    """Sylvester-Hadamard sign matrix of a power-of-two order."""
    H = np.ones((1, 1))
    while H.shape[0] < order:
        H = np.block([[H, H], [H, -H]])
    return H


def fine_grid_matrix(seed, n, k):
    """Uniform entries rounded to multiples of 2^-20: ties are rare, and
    every row sum below is exact however the BLAS orders its products, so
    bit-for-bit comparisons test the search and not the platform's gemm."""
    return np.round(box_matrix(seed, n, k) * 2.0**20) / 2.0**20


KERNEL_MATRICES = {"signs": sign_matrix, "grid": grid_matrix, "fine": fine_grid_matrix}
# Row counts that split the scans unevenly: with BLOCK_CELLS = 2^15 the
# exhaustive searches take 2^15, 2^13, 64 or 16 candidates per block.
KERNEL_ROWS = [1, 3, 513, 2001]


class TestSpencerBound:
    def test_small_k_branch(self):
        assert spencer_bound(8, 4, 12.0) == pytest.approx(
            12.0 * math.sqrt(4 * math.log(math.e * 8 / 4))
        )

    def test_wide_branch(self):
        assert spencer_bound(4, 9, 12.0) == pytest.approx(12.0 * 2.0)

    def test_k_equals_n(self):
        assert spencer_bound(16, 16, 1.0) == pytest.approx(math.sqrt(16.0))


class TestBruteforce:
    def test_zero_matrix(self):
        value, x = bruteforce_min_discrepancy(np.zeros((3, 4)))
        assert value == 0.0
        assert set(np.unique(x)) <= {-1.0, 1.0}

    def test_identity(self):
        value, _ = bruteforce_min_discrepancy(np.eye(2))
        assert value == 1.0

    def test_odd_row_parity(self):
        value, _ = bruteforce_min_discrepancy(np.ones((1, 3)))
        assert value == 1.0

    def test_refuses_wide_matrices(self):
        with pytest.raises(ValueError):
            bruteforce_min_discrepancy(np.zeros((2, 21)))

    def test_frozen_instance(self):
        value, x = bruteforce_min_discrepancy(A_8X8)
        assert value == A_8X8_OPTIMUM
        assert discrepancy(A_8X8, x) == A_8X8_OPTIMUM

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle(self, seed):
        A = box_matrix(seed, 4, 7)
        value, x = bruteforce_min_discrepancy(A)
        expected, _ = min_discrepancy_exhaustive(A)
        assert value == pytest.approx(expected, abs=1e-12)
        assert discrepancy(A, x) == pytest.approx(expected, abs=1e-12)


class TestBlockedKernels:
    """The blocked exact searches pick the same candidate, with the same
    float value, as the one-block and one-column kernels they replaced."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_MATRICES))
    @pytest.mark.parametrize("n", KERNEL_ROWS)
    def test_bruteforce_matches_unblocked(self, kind, n):
        # k = 16 only on short matrices: the unblocked reference holds all
        # 2^15 row-sum vectors at once.
        for k in (1, 2, 7, 12) + ((16,) if n <= 3 else ()):
            A = KERNEL_MATRICES[kind](1000 * n + k, n, k)
            value, x = bruteforce_min_discrepancy(A)
            ref_value, ref_x = bruteforce_unblocked(A)
            assert value == ref_value
            assert np.array_equal(x, ref_x)

    @pytest.mark.parametrize("seed", range(4))
    def test_single_row_sum_blocks(self, monkeypatch, seed):
        # Blocks narrower than one row: every candidate is its own block.
        monkeypatch.setattr(coloring, "BLOCK_CELLS", 5)
        A = grid_matrix(seed + 90, 9, 24)[:, :10]
        value, x = bruteforce_min_discrepancy(A)
        ref_value, ref_x = bruteforce_unblocked(A)
        assert value == ref_value
        assert np.array_equal(x, ref_x)


def ternary_matrix(seed, n, k):
    """Entries in {-1, 0, 1}: every row sum is an exact integer, so many
    candidates tie exactly and only the tie rule tells them apart."""
    return rng_from(seed).integers(-1, 2, size=(n, k)).astype(np.float64)


SPLIT_MATRICES = {"signs": sign_matrix, "ternary": ternary_matrix, "fine": fine_grid_matrix}


def near_tie_case(m):
    """C and base whose codes 1 and 2 have maxima 0.5 + d/2 and 0.5 - d/2,
    d = m * eps, with a tie tolerance of 16 eps (k = 2, scale 2)."""
    d = m * np.finfo(np.float64).eps
    return np.array([[1.0, 1.0], [d / 2.0, 0.0]]), np.array([0.0, 0.5])


def _pinned(A):
    """A's last column as the base of the search over the others."""
    return np.asfortranarray(A[:, :-1]), A[:, -1].copy()


# (C, base) of the exhaustive search: exact ties (the zero matrix, equal
# columns, a Hadamard block with 448 codes at the minimum, a tie that
# rounding to int16 splits), sign, ternary, dyadic and real entries, a
# near-tie, one row, no columns, and more rows than the default BLOCK_CELLS.
SEARCH_CASES = {
    "zero": lambda: (np.zeros((5, 6)), np.zeros(5)),
    "equal_columns": lambda: _pinned(np.repeat(box_matrix(3, 7, 1), 9, axis=1)),
    "hadamard": lambda: _pinned(sylvester(512)[:, :16]),
    "signs": lambda: _pinned(sign_matrix(11, 40, 12)),
    "ternary": lambda: _pinned(ternary_matrix(12, 40, 12)),
    "dyadic": lambda: _pinned(grid_matrix(13, 40, 12)),
    "real": lambda: _pinned(box_matrix(14, 40, 12)),
    "near_ties": lambda: near_tie_case(16),
    # Codes 0 and 1 tie exactly at 0.3 = 2 * 0.15, on different rows;
    # scaled by 2^14 and rounded, code 0's maximum is one more than code 1's.
    "split_tie": lambda: (np.array([[-0.15], [0.0]]), np.array([0.15, 0.3])),
    "one_row": lambda: _pinned(box_matrix(15, 1, 10)),
    "no_columns": lambda: (np.zeros((3, 0)), np.array([0.5, -2.0, 1.5])),
    "tall": lambda: _pinned(ternary_matrix(16, (1 << 15) + 4093, 4)),
}
# Entries that stress the screen's scaling and the tie rule.
ADVERSARIAL_ENTRIES = [
    0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1.0 - 2.0**-53, 2.0**-30, -(2.0**-30),
    1e-300, 2.0**-1074, 1.0 / 3.0, -2.0 / 3.0,
]
# One low bit per block, the default split, and all candidates in one block.
SPLIT_CELLS = [5, coloring.BLOCK_CELLS, 1 << 22]


class TestSplitSearch:
    """_best_signs adds a block of low-bit partial sums to one high-bit
    vector per block. Whatever the split, it picks the one-block kernels'
    candidate, lowest code among exact ties, with the same float value."""

    # With the default BLOCK_CELLS, n = 1 and n = 3 have 15 and 13 low bits:
    # k - 1 at or below them leaves no high part. k = 1 leaves C no columns.
    @pytest.mark.parametrize("cells", SPLIT_CELLS)
    @pytest.mark.parametrize("kind", sorted(SPLIT_MATRICES))
    @pytest.mark.parametrize(
        "n, ks", [(1, (1, 2, 9, 16, 17)), (3, (1, 5, 14, 15)), (40, (1, 2, 9, 11)), (300, (3, 12))]
    )
    def test_bruteforce_matches_unblocked(self, monkeypatch, cells, kind, n, ks):
        monkeypatch.setattr(coloring, "BLOCK_CELLS", cells)
        for k in ks:
            A = SPLIT_MATRICES[kind](100 * n + k, n, k)
            value, x = bruteforce_min_discrepancy(A)
            ref_value, ref_x = bruteforce_unblocked(A)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            assert x.tobytes() == ref_x.tobytes()

    @pytest.mark.parametrize("kind", sorted(SPLIT_MATRICES))
    def test_rows_beyond_block_cells(self, kind):
        # More rows than BLOCK_CELLS: one low bit, and a high part for the
        # rest. The row count is odd, so no row block divides it.
        n = coloring.BLOCK_CELLS + 4093
        for k in (1, 2, 3, 7):
            A = SPLIT_MATRICES[kind](k, n, k)
            value, x = bruteforce_min_discrepancy(A)
            ref_value, ref_x = bruteforce_unblocked(A)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            assert x.tobytes() == ref_x.tobytes()

    def test_no_columns_is_the_base(self):
        base = np.array([0.5, -2.0, 1.5])
        value, signs = coloring._best_signs(np.zeros((3, 0)), base)
        assert value == 2.0 and signs.shape == (0,)
        value, x = bruteforce_min_discrepancy(base[:, None] / 2.0)
        assert value == 1.0 and np.array_equal(x, [1.0])

    @pytest.mark.parametrize("cells", SPLIT_CELLS)
    def test_ties_go_to_the_lowest_code(self, monkeypatch, cells):
        monkeypatch.setattr(coloring, "BLOCK_CELLS", cells)
        # All 64 candidates tie on a zero matrix: code 0.
        _, signs = coloring._best_signs(np.zeros((5, 6)), np.zeros(5))
        assert np.array_equal(signs, -np.ones(6))
        # Two equal columns: codes 1 (+, -) and 2 (-, +) tie at 0.
        _, signs = coloring._best_signs(np.ones((5, 2)), np.zeros(5))
        assert np.array_equal(signs, [1.0, -1.0])

    @pytest.mark.parametrize("cells", SPLIT_CELLS)
    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_matches_float_search(self, monkeypatch, cells, name):
        C, base = SEARCH_CASES[name]()
        monkeypatch.setattr(coloring, "BLOCK_CELLS", cells)
        value, signs = coloring._best_signs(C, base)
        ref_value, ref_signs = best_signs_float_search(C, base, cells)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert signs.tobytes() == ref_signs.tobytes()

    @pytest.mark.parametrize("cells", SPLIT_CELLS)
    def test_near_ties_at_the_tolerance(self, monkeypatch, cells):
        # Codes 1 and 2 score 0.5 + d/2 and 0.5 - d/2 with d = m * eps, and
        # the tolerance is 16 eps: code 1 wins up to m = 16, code 2 beyond.
        monkeypatch.setattr(coloring, "BLOCK_CELLS", cells)
        winners = set()
        for m in range(12, 21):
            C, base = near_tie_case(m)
            value, signs = coloring._best_signs(C, base)
            ref_value, ref_signs = best_signs_float_search(C, base, cells)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            assert signs.tobytes() == ref_signs.tobytes()
            winners.add((m <= 16, tuple(signs)))
        assert winners == {(True, (1.0, -1.0)), (False, (-1.0, 1.0))}

    def test_split_decides_a_near_tie(self, monkeypatch):
        # Codes 1 and 2 differ by about the tie tolerance. One low bit adds
        # c0 + (base - c1); two low bits add (c0 - c1) + base, which rounds
        # the other way across the tolerance. The search keeps each split's
        # winner, as the float64 search over every code does.
        C = np.zeros((3, 2))
        C[0] = [0.5813820962704611, 0.5813820962704599]
        base = np.array([0.17869400213255487, 0.0, 0.0])
        winners = []
        for cells in (5, coloring.BLOCK_CELLS):
            monkeypatch.setattr(coloring, "BLOCK_CELLS", cells)
            value, signs = coloring._best_signs(C, base)
            ref_value, ref_signs = best_signs_float_search(C, base, cells)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            assert signs.tobytes() == ref_signs.tobytes()
            winners.append(tuple(signs))
        assert winners == [(1.0, -1.0), (-1.0, 1.0)]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 9), st.data())
    def test_matches_float_search_on_adversarial_matrices(self, n, k, data):
        entries = st.sampled_from(ADVERSARIAL_ENTRIES) | st.floats(-1.0, 1.0)
        cells = data.draw(st.sampled_from(SPLIT_CELLS))
        A = np.array(data.draw(st.lists(entries, min_size=n * k, max_size=n * k)))
        A = A.reshape(n, k)
        saved = coloring.BLOCK_CELLS
        coloring.BLOCK_CELLS = cells
        try:
            value, x = bruteforce_min_discrepancy(A)
        finally:
            coloring.BLOCK_CELLS = saved
        ref_value, ref_x = bruteforce_float_search(A, cells)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert x.tobytes() == ref_x.tobytes()


class TestScreen:
    """_best_signs scores in float64 only the codes an exact int16 search
    keeps; the kept codes must hold every code the float64 search ties
    with its minimum."""

    @pytest.mark.parametrize(
        "name", ["hadamard", "near_ties", "real", "split_tie", "ternary", "zero"]
    )
    def test_rescored_codes_cover_the_tie_set(self, monkeypatch, name):
        C, base = SEARCH_CASES[name]()
        rescored = []
        real = coloring._rescore
        monkeypatch.setattr(
            coloring, "_rescore", lambda C, base, codes: rescored.append(codes) or real(C, base, codes)
        )
        coloring._best_signs(C, base)
        codes = rescored[0]
        assert np.all(np.diff(codes) > 0)
        vals = float_search_maxima(C, base, coloring.BLOCK_CELLS)
        scale = float(np.max(np.abs(C).sum(axis=1) + np.abs(base)))
        tol = coloring._tie_tolerance(C.shape[1], scale)
        tied = np.flatnonzero(vals <= vals.min() + tol)
        assert np.isin(tied, codes).all()
        # The screen rules out most codes, unless most of them tie.
        assert codes.size <= max(tied.size, vals.size // 4)

    @pytest.mark.parametrize("scale", [1e-300, 2.0**-1074])
    def test_tiny_peaks(self, scale):
        # A subnormal peak needs a scale of 2^1083 to reach the int16
        # range, beyond float64; the screen scales by exponent instead.
        A = ternary_matrix(7, 9, 8) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, x = bruteforce_min_discrepancy(A)
        ref_value, ref_x = bruteforce_float_search(A, coloring.BLOCK_CELLS)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert x.tobytes() == ref_x.tobytes()
        if scale == 2.0**-1074:
            # Integer multiples of 2^-1074: every sum is exact, as unscaled.
            assert np.array_equal(x, bruteforce_min_discrepancy(A / scale)[1])

    def test_int16_sums_reach_their_bound(self):
        # k = 20 leaves 19 columns and a base: 20 terms of q = 32767 // 20
        # each, and the all-plus code's first row sums to 20q = 32760.
        q = 32767 // 20
        signs = np.ones((3, 20))
        signs[1] = sign_matrix(5, 1, 20)
        signs[2, ::2] = -1.0
        A = signs * (q / 2048.0)
        value, x = bruteforce_min_discrepancy(A)
        ref_value, ref_x = bruteforce_float_search(A, coloring.BLOCK_CELLS)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert x.tobytes() == ref_x.tobytes()

    def test_rejects_non_finite_entries(self):
        for bad in (math.nan, math.inf):
            A = np.ones((2, 3))
            A[1, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                bruteforce_min_discrepancy(A)


def frozen_coloring_input(name):
    if name == "tall_bruteforce":
        return box_matrix(101, 300, 14)
    if name == "tall_pairs":
        return grid_matrix(102, 600, 40)
    if name == "square_signs":
        return sign_matrix(103, 170, 170)
    rng = rng_from(104)
    H = sylvester(128)[:, :64]
    return rng.choice([-1.0, 1.0], size=128)[:, None] * H[:, rng.permutation(64)]


# full_coloring outputs ("+" is +1): the exhaustive path (k = 14; from a
# zero base, the lowest code among the tied minimizers), and the signing on
# a tall grid matrix (k = 40), a square sign matrix (k = 170) and a Hadamard
# block (k = 64), where 10 decision sums are exact ties.
FROZEN_COLORINGS = {
    "tall_bruteforce": "-+--++-+---++-",
    "tall_pairs": "+-+--++----+-++---++-+--++-++--+-+++++--",
    "square_signs": (
        "++++--+--++++--++-+------+--+-+--+++++-+---++----+------++-+++--+-++-"
        "+--+-+-++---+-+-----+++-+----++++--+++++-+-+++---++--+-++------++-+++"
        "+--+--+-++--++++----+----++--+-+"
    ),
    "hadamard": "+++++++--+-+-+++-+-+++--++-+-+---+-+++++--+--+--++-----+++++++++",
}


class TestFrozenColorings:
    @pytest.mark.parametrize("name", sorted(FROZEN_COLORINGS))
    def test_matches_recorded(self, name):
        A = frozen_coloring_input(name)
        expected = np.array([1.0 if c == "+" else -1.0 for c in FROZEN_COLORINGS[name]])
        assert np.array_equal(full_coloring(A), expected)


class TestMinoritySign:
    def test_examples(self):
        assert minority_sign(np.array([1.0, 1.0, -1.0])) == -1
        assert minority_sign(np.array([1.0, 1.0, 1.0])) == -1
        assert minority_sign(np.array([1.0, -1.0])) == -1
        assert minority_sign(np.array([-1.0, -1.0, 1.0])) == 1

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            minority_sign(np.array([0.5, -1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            minority_sign(np.array([]))

    @given(st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_minority_occurs_at_most_half(self, signs):
        x = np.array(signs)
        sigma = minority_sign(x)
        assert np.count_nonzero(x == sigma) <= len(signs) // 2


class TestFullColoring:
    def test_zero_matrix(self):
        x = full_coloring(np.zeros((4, 4)))
        assert set(np.unique(x)) <= {-1.0, 1.0}
        assert discrepancy(np.zeros((4, 4)), x) == 0.0

    def test_single_balanced_row(self):
        A = np.ones((1, 4))
        x = full_coloring(A)
        # the exhaustive fast path finds the optimum, which is 0 here
        assert discrepancy(A, x) == 0.0

    def test_8x8_exact_on_fast_path(self):
        x = full_coloring(A_8X8)
        value = discrepancy(A_8X8, x)
        assert value == A_8X8_OPTIMUM
        assert value <= spencer_bound(8, 8, 12.0)

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            full_coloring(np.array([[2.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        A = np.array([[0.5, bad], [3.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            full_coloring(A)

    def test_entries_within_tolerance_are_clipped(self):
        A = sign_matrix(5, 20, 18)
        nudged = A.copy()
        nudged[0, 0] *= 1.0 + 1e-12
        assert np.array_equal(full_coloring(nudged), full_coloring(A))

    @pytest.mark.parametrize("seed", range(8))
    def test_walk_meets_bound_and_signs(self, seed):
        # k = 24 exceeds the exhaustive cutoff, forcing the signing
        A = sign_matrix(seed, 24, 24)
        x = full_coloring(A)
        assert x.shape == (24,)
        assert set(np.unique(x)) <= {-1.0, 1.0}
        assert discrepancy(A, x) <= spencer_bound(24, 24, 12.0)

    def test_wide_matrix_branch(self):
        A = box_matrix(9, 6, 40)
        x = full_coloring(A)
        assert discrepancy(A, x) <= spencer_bound(6, 40, 12.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_never_beats_exhaustive_optimum(self, seed):
        A = box_matrix(seed + 50, 5, 18)
        x = full_coloring(A)
        expected, _ = min_discrepancy_exhaustive(A)
        assert discrepancy(A, x) >= expected - 1e-12

    def test_impossible_bound_raises_with_diagnostics(self):
        # The error reports the coloring from a zero base, which the bound
        # does not change, also when a coloring from a base came first.
        config = ColoringConfig(spencer_constant=1e-3)
        A = sign_matrix(4, 20, 18)
        achieved = discrepancy(A, full_coloring(A))
        for base in (None, box_matrix(5, 20, 1)[:, 0]):
            with pytest.raises(DiscrepancyBoundError, match="best discrepancy") as info:
                full_coloring(A, config=config, base=base)
            err = info.value
            assert err.achieved > err.bound
            assert err.achieved == achieved
            assert err.bound == spencer_bound(20, 18, 1e-3)

    def test_a_base_past_the_bound_falls_back_to_a_zero_base(self, monkeypatch):
        # Row 0 is all ones with a base of 1000: the signing from it makes
        # every sign -1, so that row's own sum is -40, past the bound
        # 3 * sqrt(40 ln(64e/40)) = 23.0, which the signing from a zero base
        # meets (sqrt(2 * 40 ln 128) = 19.7).
        A = sign_matrix(6, 64, 40)
        A[0] = 1.0
        base = np.zeros(64)
        base[0] = 1e3
        config = ColoringConfig(spencer_constant=3.0)
        calls = []
        real = coloring.partial_coloring

        def spy(M, *, base):
            out = real(M, base=base)
            calls.append((not base.any(), discrepancy(M, out)))
            return out

        monkeypatch.setattr(coloring, "partial_coloring", spy)
        x = full_coloring(A, config=config, base=base)
        assert [zero for zero, _ in calls] == [False, True]
        assert calls[0][1] == 40.0
        assert x.tobytes() == full_coloring(A, config=config).tobytes()

    def test_one_wide_row_of_ones_is_balanced(self):
        # A single all-ones row: the signing alternates the signs, and a
        # balanced coloring has discrepancy 0.
        A = np.ones((1, 512))
        x = full_coloring(A)
        assert set(np.unique(x)) <= {-1.0, 1.0}
        assert discrepancy(A, x) == 0.0

    def test_validated_matrix_is_clipped_and_fortran_ordered(self):
        A = np.array([[1.0 + 1e-12, -0.5], [0.25, -(1.0 + 1e-12)]])
        arr = coloring._validate_matrix(A)
        assert np.array_equal(arr, [[1.0, -0.5], [0.25, -1.0]])
        assert arr.flags.f_contiguous

    @pytest.mark.parametrize("k", [12, 40])
    def test_a_zero_base_is_no_base(self, k):
        # The exhaustive search (k = 12) and the signing (k = 40) color
        # from zeros when no base is given.
        A = box_matrix(k + 60, 50, k)
        x = full_coloring(A)
        assert full_coloring(A, base=None).tobytes() == x.tobytes()
        assert full_coloring(A, base=np.zeros(50)).tobytes() == x.tobytes()

    def test_seed_determinism(self, monkeypatch):
        # The coloring takes no seed and builds no generator (the first call
        # caches the fixed row-key weights): repeated calls give the same bits.
        A = sign_matrix(12, 30, 26)
        x = full_coloring(A)

        def no_generator(*args, **kwargs):
            raise AssertionError("full_coloring built a generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for _ in range(3):
            assert full_coloring(A).tobytes() == x.tobytes()


class TestPartialColoring:
    def test_zero_matrix_freezes_every_coordinate(self):
        out = partial_coloring(np.zeros((3, 8)))
        assert out.dtype == np.float64
        assert out.shape == (8,)
        assert np.all(np.abs(out) == 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_postconditions_on_random_instance(self, seed):
        out = partial_coloring(box_matrix(seed + 20, 6, 6))
        assert out.dtype == np.float64
        assert out.shape == (6,)
        assert np.all(out ** 2 == 1.0)

    @pytest.mark.parametrize("free", [1, 13, 40, 341])
    def test_draw_freezes_every_free_coordinate(self, free):
        # Every column gets a sign, from a zero base and from a base, and
        # the same entries give the same bits.
        k = free + 7
        A = box_matrix(free, 5, k)
        for base in (None, box_matrix(free + 1, 5, 1)[:, 0]):
            out = partial_coloring(A, base=base)
            assert out.shape == (k,)
            assert np.all(np.abs(out) == 1.0)
            again = partial_coloring(A.copy(order="F"), base=base)
            assert again.tobytes() == out.tobytes()

    @pytest.mark.parametrize("k", [12, 40])
    def test_a_zero_base_is_no_base(self, k):
        A = box_matrix(k + 70, 50, k)
        x = partial_coloring(A)
        assert partial_coloring(A, base=None).tobytes() == x.tobytes()
        assert partial_coloring(A, base=np.zeros(50)).tobytes() == x.tobytes()

    @pytest.mark.parametrize("seed", [0, 3, 2**40, split_seed(5, 2, 0)])
    def test_draw_is_one_rng_choice(self, monkeypatch, seed):
        # The signing makes no rng choice at all: it builds no generator,
        # repeated calls give the same bits, and on a zero matrix every
        # decision sum is a tie, so every column gets +1.
        matrices = [sign_matrix(k, 4, k) for k in (1, 17, 300)]

        def no_generator(*args, **kwargs):
            raise AssertionError("partial_coloring built a generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for A in matrices:
            k = A.shape[1]
            out = partial_coloring(np.zeros((2, k)))
            assert out.tobytes() == np.ones(k).tobytes()
            assert partial_coloring(A).tobytes() == partial_coloring(A).tobytes()

    @pytest.mark.parametrize("kind", ["signs", "box", "grid"])
    def test_matches_stepwise_oracle(self, kind):
        # Every sign the oracle's decision sum fixes beyond rounding is the
        # one partial_coloring chose, with and without a base.
        make = {"signs": sign_matrix, "box": box_matrix, "grid": grid_matrix}[kind]
        for n, k, reach in [(24, 20, 0.0), (64, 40, 3.0), (5, 33, 1.0), (1, 17, 2.0)]:
            A = make(n * k, n, k)
            base = reach * box_matrix(n + k, n, 1)[:, 0]
            x = partial_coloring(A, base=base)
            checked = 0
            for j, (decision, scale) in enumerate(cosh_signing_decisions(A, base, x)):
                if abs(decision) > 1e-9 * scale:
                    assert x[j] == (-1.0 if decision > 0.0 else 1.0)
                    checked += 1
            assert checked >= k // 2

    def test_exact_ties_give_plus_one(self):
        # Sylvester matrices make many decision sums exactly zero, which
        # rounding leaves at about 1e-17 of their scale; each is a tie.
        for A in (sylvester(64), sylvester(128)[:, :64], hadamard_block(3, 128, 64)):
            x = partial_coloring(A)
            decisions = cosh_signing_decisions(A, np.zeros(A.shape[0]), x)
            ties = [j for j, (decision, scale) in enumerate(decisions) if abs(decision) <= 1e-12 * scale]
            assert len(ties) >= 7
            assert np.all(x[ties] == 1.0)

    @pytest.mark.parametrize("kind", ["signs", "box", "sylvester"])
    def test_zero_base_meets_the_chord_bound(self, kind):
        # max_i |(Ax)_i| <= sqrt(2k ln(2n)) from a zero base, also on wide
        # matrices and on Sylvester's worst case.
        for n, k in [(16, 64), (128, 64), (512, 200), (256, 256), (1, 31)]:
            if kind == "sylvester":
                A = sylvester(max(n, k))[:n, :k]
            else:
                A = {"signs": sign_matrix, "box": box_matrix}[kind](n + k, n, k)
            x = partial_coloring(A)
            assert discrepancy(A, x) <= math.sqrt(2.0 * k * math.log(2.0 * n))

    def test_huge_bases_do_not_overflow(self):
        # lambda * base is clipped once, so no sinh overflows and no
        # warning is raised; the rows of huge base are steered first.
        # Row 1 is row 0 negated, with its base.
        A = sign_matrix(8, 30, 40)
        A[1] = -A[0]
        base = np.zeros(30)
        base[:3] = [1e300, -1e300, 1e6]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = partial_coloring(A, base=base)
        assert x[0] == -A[0, 0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            partial_coloring(np.zeros(6))
        with pytest.raises(ValueError, match="base must be 3 finite entries"):
            partial_coloring(np.ones((3, 4)), base=np.ones(4))
        with pytest.raises(ValueError, match="base must be 3 finite entries"):
            full_coloring(np.ones((3, 4)), base=np.array([0.0, np.nan, 1.0]))


class TestHalveColumns:
    def bound(self, n, T, constant=12.0):
        return constant * math.sqrt(T * math.log(2.0 + n / T))

    def test_duplicated_columns(self):
        B = box_matrix(2, 3, 2)
        A = np.hstack([B, B])
        subset = halve_columns(A)
        assert subset.size <= 2
        half = A.sum(axis=1) / 2.0
        err = np.max(np.abs(A[:, subset].sum(axis=1) - half))
        assert err <= self.bound(3, 4)

    def test_negated_block(self):
        B = box_matrix(3, 4, 3)
        A = np.hstack([B, -B])
        subset = halve_columns(A)
        sums = A[:, subset].sum(axis=1)
        assert np.max(np.abs(sums)) <= self.bound(4, 6)

    def test_4x6_against_subset_enumeration(self):
        A = box_matrix(4, 4, 6)
        subset = halve_columns(A)
        assert subset.size <= 3
        assert np.array_equal(subset, np.sort(subset))
        half = A.sum(axis=1) / 2.0
        achieved = float(np.max(np.abs(A[:, subset].sum(axis=1) - half)))
        assert achieved <= self.bound(4, 6)
        best = best_subset_row_sum_error(A, 3)
        assert achieved >= best - 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_size_and_sandwich(self, seed):
        n, T = 16, 14
        A = sign_matrix(seed + 300, n, T)
        subset = halve_columns(A)
        assert subset.size <= (T + 1) // 2
        assert len(set(subset.tolist())) == subset.size
        half = A.sum(axis=1) / 2.0
        err = np.max(np.abs(A[:, subset].sum(axis=1) - half))
        assert err <= self.bound(n, T)


class TestColoringConfig:
    def test_default_is_valid(self):
        assert DEFAULT_CONFIG.spencer_constant == 12.0

    def test_holds_only_the_spencer_constant(self):
        assert [f.name for f in dataclasses.fields(ColoringConfig)] == ["spencer_constant"]

    @pytest.mark.parametrize("constant", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_constant_not_positive_and_finite(self, constant):
        with pytest.raises(ValueError, match="positive and finite"):
            ColoringConfig(spencer_constant=constant)

    def test_exhaustive_cutoffs_stay_enumerable(self):
        assert coloring.BRUTEFORCE_MAX <= 20


def hadamard_block(seed, n, k):
    """k Sylvester-Hadamard columns from the first half of order n, with
    random row signs and exponential column weights, as the halver scales a
    weighted ensemble: row i and row i + n/2 are equal up to sign."""
    rng = rng_from(seed)
    H = sylvester(n)[:, rng.permutation(n // 2)[:k]]
    weights = rng.exponential(size=k)
    return rng.choice([-1.0, 1.0], size=n)[:, None] * H * (weights / weights.max())


def stump_matrix(seed, n, k):
    """Margins y_i * h_j(x_i) of threshold stumps on two features with four
    values each, scaled by column weights: at most 16 distinct rows up to
    sign, as in a boosted ensemble's margin matrix."""
    rng = rng_from(seed)
    X = rng.integers(0, 4, size=(n, 2))
    y = rng.choice([-1.0, 1.0], size=n)
    feature = rng.integers(0, 2, size=k)
    threshold = rng.integers(1, 4, size=k)
    polarity = rng.choice([-1.0, 1.0], size=k)
    h = np.where(X[:, feature] >= threshold, polarity, -polarity)
    return y[:, None] * h * rng.uniform(0.25, 1.0, size=k)


INVARIANCE_MATRICES = {
    "signs": sign_matrix,
    "grid": grid_matrix,
    "box": box_matrix,
    "hadamard": hadamard_block,
    "stumps": stump_matrix,
}
# The exhaustive path, and the signing on a narrow and a wider matrix.
INVARIANCE_SHAPES = [(64, 12), (128, 40), (256, 90)]


def reordered(A, seed):
    """A's rows in a random order; A with every row once plus about as many
    drawn again, each row negated at random, in a random order; and A with
    exactly the first row of each class of rows equal up to sign negated."""
    rng = rng_from(seed)
    n = A.shape[0]
    permuted = A[rng.permutation(n)]
    rows = np.concatenate([np.arange(n), rng.integers(0, n, size=n)])
    rng.shuffle(rows)
    repeated = rng.choice([-1.0, 1.0], size=rows.size)[:, None] * A[rows]
    negated = A.copy()
    negated[class_leads_by_dict(A)] *= -1.0
    return permuted, repeated, negated


# The 13 free columns of matrix 8 of the hadamard benchmark workload at
# seed 1 (T = 16, compare seed 1000536) after four halving rounds of the
# random-sign halver, with their weights, in hexadecimal.
HADAMARD_SEED_ONE_FREE = [1, 127, 136, 147, 163, 243, 248, 277, 309, 364, 470, 473, 485]
HADAMARD_SEED_ONE_WEIGHTS = [
    "0x1.643b4d036d4b5p-5", "0x1.08ce03cec3487p-5", "0x1.ef1cc390b94d4p-6",
    "0x1.208be8015e186p-5", "0x1.7e967b830539cp-5", "0x1.325c6c2da5d7ap-5",
    "0x1.90ef97f4e8d37p-5", "0x1.ad8445cab7016p-5", "0x1.46adb6694480ap-5",
    "0x1.329138afa1030p-5", "0x1.978f793ce32d3p-5", "0x1.ffd27ccbadfaep-6",
    "0x1.f7a896720d84dp-6",
]


@functools.lru_cache(maxsize=1)
def hadamard_seed_one_search():
    """(C, base) of the 1025 x 12 exhaustive search that sparsify reached
    on matrix 8 of the hadamard benchmark workload at seed 1 under the
    random-sign halver: the margin and l1 rows of the first coloring of the
    fifth halving round, last sign pinned at +1. Its sign vectors with
    codes 4 and 8 tie exactly, and OpenBLAS rounds their maxima apart in
    one 4096-candidate block but not in 32-candidate blocks."""
    rng = np.random.default_rng([1, 3, 8])
    H = sylvester(1024)[:, :512]
    U = rng.choice([-1.0, 1.0], size=1024)[:, None] * H[:, rng.permutation(512)]
    values = np.array([float.fromhex(v) for v in HADAMARD_SEED_ONE_WEIGHTS])
    omega = float(values.max())
    A = np.vstack([U[:, HADAMARD_SEED_ONE_FREE] * (values / omega), values / omega])
    return np.asfortranarray(A[:, :-1]), A[:, -1].copy()


def exact_max(C, base, code):
    """max_i |(Cs)_i + base_i| for the sign vector s of `code`, each row sum
    correctly rounded (math.fsum)."""
    signs = np.where((code >> np.arange(C.shape[1])) & 1, 1.0, -1.0)
    return max(abs(math.fsum([*(row * signs), b])) for row, b in zip(C, base))


def best_signs_input(name):
    if name == "hadamard_seed_one":
        return hadamard_seed_one_search()
    A = INVARIANCE_MATRICES[name](31, 256, 12)
    return A[:, :-1], A[:, -1]


class TestRowInvariance:
    """Colorings depend on the set of distinct rows up to sign, not on the
    rows' order or repetition, and not on BLAS rounding."""

    @pytest.mark.parametrize("kind", sorted(INVARIANCE_MATRICES))
    @pytest.mark.parametrize("n, k", INVARIANCE_SHAPES)
    def test_full_coloring_ignores_row_order_and_repeats(self, kind, n, k):
        A = INVARIANCE_MATRICES[kind](n + k, n, k)
        x = full_coloring(A)
        for variant in reordered(A, k):
            assert full_coloring(variant).tobytes() == x.tobytes()

    @pytest.mark.parametrize("kind", sorted(INVARIANCE_MATRICES))
    @pytest.mark.parametrize("n, k", INVARIANCE_SHAPES)
    def test_full_coloring_from_a_base_ignores_row_order_repeats_and_seed(self, kind, n, k):
        # The base is a row sum of A, so rows equal up to sign get bases
        # equal up to sign; rows are repeated and negated with their bases.
        A = INVARIANCE_MATRICES[kind](n + k, n, k)
        base = coloring._row_sums(A, rng_from(n * k).uniform(-1.0, 1.0, size=k))
        x = full_coloring(A, base=base)
        rng = rng_from(k + 1)
        permuted = rng.permutation(n)
        rows = np.concatenate([np.arange(n), rng.integers(0, n, size=n)])
        rng.shuffle(rows)
        signs = rng.choice([-1.0, 1.0], size=rows.size)
        variants = [
            (A[permuted], base[permuted]),
            (signs[:, None] * A[rows], signs * base[rows]),
        ]
        for M, b in [(A, base), *variants]:
            assert full_coloring(M, base=b).tobytes() == x.tobytes()

    @pytest.mark.parametrize("kind", sorted(INVARIANCE_MATRICES))
    def test_distinct_rows_match_dict_oracle(self, monkeypatch, kind):
        A = INVARIANCE_MATRICES[kind](7, 64, 12)
        repeated = reordered(A, 3)[1]
        expected = distinct_rows_by_dict(repeated)
        got = coloring._distinct_rows(coloring._validate_matrix(repeated))
        assert got.tobytes() == expected.tobytes()
        # Every key collides: rows are merged only when they are equal.
        monkeypatch.setattr(coloring, "_row_keys", lambda M, base: np.zeros(M.shape[0]))
        got = coloring._distinct_rows(coloring._validate_matrix(repeated))
        assert got.tobytes() == expected.tobytes()
        assert full_coloring(repeated).tobytes() == full_coloring(A).tobytes()

    @pytest.mark.parametrize("k", [13, 85, 341])
    def test_row_sums_give_equal_rows_equal_bits(self, k):
        # Rows 1024-1026 repeat rows 0-2, and row i + 512 is row i up to
        # sign. OpenBLAS's gemv rounds the rows past the last multiple of
        # its row block differently, in either layout.
        block = hadamard_block(k, 1024, k)
        A = np.vstack([block, block[:3]])
        x = rng_from(k).uniform(-1.0, 1.0, size=k)
        sums = coloring._row_sums(A, x)
        assert sums[1024:].tobytes() == sums[:3].tobytes()
        signs = np.where(A[:512, 0] == A[512:1024, 0], 1.0, -1.0)
        assert sums[:512].tobytes() == (signs * sums[512:1024]).tobytes()
        assert coloring._row_sums(np.asfortranarray(A), x).tobytes() == sums.tobytes()

    def test_distinct_rows_keep_a_matrix_without_repeats(self):
        A = coloring._validate_matrix(box_matrix(8, 50, 9))
        assert coloring._distinct_rows(A) is A

    def test_distinct_rows_keep_each_first_row_as_it_stands(self):
        A = coloring._validate_matrix([[-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        got = coloring._distinct_rows(A)
        assert got.flags.f_contiguous
        assert got.tobytes() == np.array([[-1.0, 1.0], [1.0, 1.0]]).tobytes()

    @pytest.mark.parametrize("k", [12, 40])
    def test_full_coloring_colors_the_distinct_rows(self, monkeypatch, k):
        # One matrix is colored, the same bits for both variants: one row
        # per class of rows equal up to sign, each up to sign a row of the
        # variant.
        _, repeated, negated = reordered(stump_matrix(11, 200, k), 4)
        seen = []
        for name in ("_best_signs", "partial_coloring"):
            real = getattr(coloring, name)
            spy = lambda M, *args, real=real, **kwargs: seen.append(M) or real(M, *args, **kwargs)
            monkeypatch.setattr(coloring, name, spy)
        colorings, matrices = set(), set()
        for variant in (repeated, negated):
            seen.clear()
            colorings.add(full_coloring(variant).tobytes())
            assert len(seen) == 1
            matrices.add(seen[0].tobytes())
            classes = distinct_rows_by_dict(variant).shape[0]
            assert seen[0].shape[0] == classes
            assert distinct_rows_by_dict(np.vstack([seen[0], variant])).shape[0] == classes
        assert len(colorings) == len(matrices) == 1

    def test_bound_counts_distinct_rows(self):
        # One distinct row up to sign: its bound 0.5 * sqrt(1) is below the
        # optimum 1, although the bound for 40 rows, 0.5 * sqrt(3 ln(40e/3))
        # = 1.64, is not.
        A = np.tile([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]], (20, 1))
        with pytest.raises(DiscrepancyBoundError) as info:
            full_coloring(A, config=ColoringConfig(spencer_constant=0.5))
        assert info.value.achieved == 1.0
        assert info.value.bound == spencer_bound(1, 3, 0.5)

    @pytest.mark.parametrize("name", ["hadamard_seed_one", "hadamard", "box", "grid"])
    def test_best_signs_ignores_row_order_and_blocks(self, monkeypatch, name):
        C, base = best_signs_input(name)
        rows = rng_from(9).permutation(C.shape[0])
        results = set()
        for cells in (coloring.BLOCK_CELLS, 5, 1 << 22):
            monkeypatch.setattr(coloring, "BLOCK_CELLS", cells)
            for order in (slice(None), rows):
                value, signs = coloring._best_signs(C[order], base[order])
                results.add((np.float64(value).tobytes(), signs.tobytes()))
        assert len(results) == 1

    def test_hadamard_seed_one_tie_goes_to_the_lower_code(self):
        C, base = hadamard_seed_one_search()
        assert C.shape == (1025, 12)
        assert exact_max(C, base, 4) == exact_max(C, base, 8)
        _, signs = coloring._best_signs(C, base)
        assert np.array_equal(signs, np.where(np.arange(12) == 2, 1.0, -1.0))

    def test_blas_threads_do_not_change_the_search(self, tmp_path):
        # The thread count is read when OpenBLAS loads, so each count needs
        # its own process. Each process also runs the search as one block,
        # where OpenBLAS splits the tie on a 2-core x86-64 host even when
        # the thread count does not, then a 40-column coloring from a base
        # and a sparsify run, whose weights must keep their bits.
        C, base = hadamard_seed_one_search()
        np.save(tmp_path / "C.npy", C)
        np.save(tmp_path / "base.npy", base)
        script = (
            "import importlib, sys\n"
            "import numpy as np\n"
            "import sparsevote as sv\n"
            "coloring = importlib.import_module('sparsevote.discrepancy')\n"
            "C, base = np.load(sys.argv[1]), np.load(sys.argv[2])\n"
            "for cells in (coloring.BLOCK_CELLS, 1 << 22):\n"
            "    coloring.BLOCK_CELLS = cells\n"
            "    value, signs = coloring._best_signs(C, base)\n"
            "    print(np.float64(value).tobytes().hex(), signs.tobytes().hex())\n"
            "A = np.tile(C[:, :10], 4) * np.linspace(1.0, 0.25, 40)\n"
            "print(sv.full_coloring(A, base=base).tobytes().hex())\n"
            "rng = np.random.default_rng(5)\n"
            "U = sv.MarginMatrix(rng.choice([-1.0, 1.0], size=(300, 96)))\n"
            "w = sv.WeightVector(rng.exponential(size=96))\n"
            "print(sv.sparsify(U, w.normalized(), 8)[0].values.tobytes().hex())\n"
        )
        src = os.path.dirname(os.path.dirname(coloring.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2", None):
            env = dict(os.environ, PYTHONPATH=path)
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            run = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / "C.npy"), str(tmp_path / "base.npy")],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            outputs.append(run.stdout.splitlines())
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][0] == outputs[0][1]

    @pytest.mark.parametrize("kind", ["signs", "hadamard", "stumps"])
    def test_halve_and_sparsify_ignore_duplicated_points(self, kind):
        U = INVARIANCE_MATRICES[kind](21, 128, 48)
        rng = rng_from(22)
        w = WeightVector(rng.dirichlet(np.ones(48)))
        points = np.concatenate([np.arange(128), rng.integers(0, 128, size=128)])
        rng.shuffle(points)
        once, twice = MarginMatrix(U), MarginMatrix(U[points])
        assert halve(once, w).values.tobytes() == halve(twice, w).values.tobytes()
        w_once, report_once = sparsify(once, w, 8)
        w_twice, report_twice = sparsify(twice, w, 8)
        assert w_once.values.tobytes() == w_twice.values.tobytes()
        assert report_once.halving_rounds == report_twice.halving_rounds
        assert report_once.truncated_fallback == report_twice.truncated_fallback
        assert report_twice.achieved_error == pytest.approx(report_once.achieved_error, rel=1e-12)


def pair_heavy_matrix(seed, n, k):
    """Columns drawn from ten sign patterns, each scaled by a weight in
    [1/2, 1] on a 2^-20 grid: many columns repeat a pattern, and every row
    sum is exact, so ties between candidates are exact whatever the
    summation order."""
    rng = rng_from(seed)
    patterns = rng.choice([-1.0, 1.0], size=(n, 10))
    weights = np.round(rng.uniform(0.5, 1.0, size=k) * 2.0**20) / 2.0**20
    return patterns[:, rng.integers(0, 10, size=k)] * weights


PASS_MATRICES = {
    "hadamard": hadamard_block,
    "stumps": stump_matrix,
    "pairs": pair_heavy_matrix,
    "signs": sign_matrix,
}


def pass_base(seed, n, rows, reach):
    """A base that is nonzero on the first `rows` of n rows only, on a 2^-20
    grid, so that sums of grid matrices with it stay exact."""
    base = np.zeros(n)
    base[:rows] = np.round(rng_from(seed).uniform(-reach, reach, size=min(rows, n)) * 2.0**20) / 2.0**20
    return base


class TestBoundedPolish:
    """The one bounded pass that took the flip polish's place: full_coloring
    keeps its coloring from the base when that meets the bound, and colors
    from a zero base otherwise. Beyond BRUTEFORCE_MAX columns that coloring
    is the signing, whose signs must be those of the stepwise oracle, which
    adds one row at a time; up to it, it is the exhaustive search, whose tie
    rule must be that of scoring one code at a time. `bound_rows` is the
    number of rows that carry a nonzero base."""

    @pytest.mark.parametrize("bound_rows", ["default", 1, "all"])
    @pytest.mark.parametrize("kind", sorted(PASS_MATRICES))
    @pytest.mark.parametrize("n, ks", [(128, (20, 40, 64)), (256, (17, 48, 90))])
    def test_matches_one_at_a_time(self, bound_rows, kind, n, ks):
        for k in ks:
            A = coloring._distinct_rows(
                coloring._validate_matrix(PASS_MATRICES[kind](7 * n + k, n, k))
            )
            rows = {"default": 0, "all": A.shape[0]}.get(bound_rows, bound_rows)
            base = pass_base(n + k, A.shape[0], rows, math.sqrt(k))
            x = partial_coloring(A, base=base)
            decided = 0
            for j, (decision, scale) in enumerate(cosh_signing_decisions(A, base, x)):
                if abs(decision) > 1e-9 * scale:
                    assert x[j] == (-1.0 if decision > 0.0 else 1.0)
                elif abs(decision) <= 1e-12 * scale:
                    assert x[j] == 1.0
                else:
                    continue
                decided += 1
            assert decided >= k - 2
            bound = spencer_bound(*A.shape, DEFAULT_CONFIG.spencer_constant)
            expected = x if discrepancy(A, x) <= bound else partial_coloring(A)
            assert full_coloring(A, base=base).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bound_rows", [1, 32])
    @pytest.mark.parametrize("tolerance", [0.01, 0.1])
    def test_tie_rule_with_a_wide_tolerance(self, monkeypatch, bound_rows, tolerance):
        # A wide tie tolerance puts many codes within it of the smallest
        # maximum; the lowest of them must win. Row sums of these matrices
        # and bases are exact, so every code's maximum is exact as well.
        monkeypatch.setattr(coloring, "_tie_tolerance", lambda k, scale: tolerance)
        cases = [(pair_heavy_matrix, 128, 10), (fine_grid_matrix, 96, 9), (pair_heavy_matrix, 64, 12)]
        for seed, (make, n, k) in enumerate(cases):
            C = make(seed + 70, n, k)
            base = pass_base(seed + 80, n, bound_rows, 2.0)
            codes = np.arange(2**k)
            signs = np.where((codes[:, None] >> np.arange(k)) & 1, 1.0, -1.0)
            maxima = np.abs(signs @ C.T + base).max(axis=1)
            winner = int(np.argmax(maxima <= maxima.min() + tolerance))
            value, x = coloring._best_signs(C, base)
            assert x.tobytes() == signs[winner].tobytes()
            assert value == maxima[winner]


class TestRowClasses:
    """_row_classes finds the first row of each class of rows of [A | base]
    equal up to sign, on a margin matrix in either layout, in an order that
    depends on the rows up to sign alone."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("kind", ["hadamard", "stumps", "signs"])
    def test_matches_dict_oracle(self, monkeypatch, layout, kind):
        U = INVARIANCE_MATRICES[kind](13, 256, 40)
        for variant in (U, *reordered(U, 17)):
            variant = np.asarray(variant, order=layout)
            expected = distinct_rows_by_dict(variant)
            zeros = np.zeros(variant.shape[0])
            leads, _ = coloring._row_classes(variant, zeros)
            assert variant[np.sort(leads)].tobytes() == expected.tobytes()
            with monkeypatch.context() as patch:
                # Every key collides: rows are merged only when they are equal.
                patch.setattr(coloring, "_row_keys", lambda M, base: np.zeros(M.shape[0]))
                collided, _ = coloring._row_classes(variant, zeros)
            assert np.array_equal(np.sort(leads), np.sort(collided))

    @pytest.mark.parametrize("kind", ["hadamard", "stumps", "signs"])
    def test_bases_that_differ_in_the_last_bit(self, monkeypatch, kind):
        # Rows repeated, some negated with their base, and some repeats
        # given a base one bit off: such rows collide on |key| but are
        # distinct rows of [A | base].
        U = INVARIANCE_MATRICES[kind](19, 128, 24)
        rng = rng_from(20)
        rows = np.concatenate([np.arange(128), rng.integers(0, 128, size=128)])
        rng.shuffle(rows)
        signs = rng.choice([-1.0, 1.0], size=rows.size)
        A = signs[:, None] * U[rows]
        raw = rng.uniform(-1e-3, 1e-3, size=128)[rows]
        nudged = rng.random(rows.size) < 0.3
        base = signs * np.where(nudged, np.nextafter(raw, np.inf), raw)
        expected = class_leads_by_dict(np.column_stack([A, base]))
        keys = coloring._row_keys(A, base)
        assert any(
            abs(keys[i]) == abs(keys[j]) and abs(base[i]) != abs(base[j])
            for i in range(rows.size) for j in range(i) if rows[i] == rows[j]
        )
        leads, _ = coloring._row_classes(A, base)
        assert np.array_equal(np.sort(leads), np.sort(expected))
        with monkeypatch.context() as patch:
            patch.setattr(coloring, "_row_keys", lambda M, base: np.zeros(M.shape[0]))
            collided, _ = coloring._row_classes(A, base)
        assert np.array_equal(np.sort(collided), np.sort(expected))
        # The order, and so the signing, ignores where the rows sit: the
        # first rows, each oriented by its key's sign, are the same bits.
        def oriented(M, b):
            leads, keys = coloring._row_classes(M, b)
            signs = np.where(keys[leads] < 0.0, -1.0, 1.0)
            return (signs[:, None] * M[leads]).tobytes(), (signs * b[leads]).tobytes()

        permuted = rng.permutation(rows.size)
        assert oriented(A[permuted], base[permuted]) == oriented(A, base)
        x = full_coloring(np.tile(A, 2), base=base)
        assert full_coloring(np.tile(A[permuted], 2), base=base[permuted]).tobytes() == x.tobytes()

    def test_hadamard_rows_pair_up(self):
        U = hadamard_block(3, 1024, 512)
        leads, _ = coloring._row_classes(U, np.zeros(1024))
        assert np.array_equal(np.sort(leads), np.arange(512))
        assert coloring._row_classes(U[:512], np.zeros(512))[0].size == 512

    @pytest.mark.parametrize("k", [13, 85, 341])
    def test_keys_match_across_layouts(self, k):
        # Equal rows, and rows equal up to sign, get equal and negated keys
        # in either layout, wherever they sit.
        block = hadamard_block(k, 1024, k)
        A = np.vstack([block, block[:3]])
        for layout in ("C", "F"):
            keys = coloring._row_keys(np.asarray(A, order=layout), np.zeros(1027))
            assert keys[1024:].tobytes() == keys[:3].tobytes()
            signs = np.where(A[:512, 0] == A[512:1024, 0], 1.0, -1.0)
            assert keys[:512].tobytes() == (signs * keys[512:1024]).tobytes()


class TestPhaseCalls:
    """full_coloring on more than BRUTEFORCE_MAX columns makes one
    partial_coloring call, the signing, and a second one, from a zero
    base, only when a coloring from a nonzero base misses the bound; the
    exhaustive path makes none: tracing counts them there."""

    @pytest.mark.parametrize(
        "kind, k, constant",
        [
            ("signs", 60, 12.0),
            ("stumps", 40, 12.0),
            ("hadamard", 60, 1e-3),
            ("signs", 17, 1e-3),
            ("signs", 12, 12.0),
            ("hadamard", 16, 1e-3),
        ],
    )
    def test_one_partial_coloring_call_per_attempt(self, monkeypatch, kind, k, constant):
        calls = []
        real = coloring.partial_coloring

        def partial(A, *, base):
            out = real(A, base=base)
            calls.append((A.shape[1], out.shape, not base.any()))
            return out

        monkeypatch.setattr(coloring, "partial_coloring", partial)
        A = INVARIANCE_MATRICES[kind](41, 128, k)
        drift = coloring._row_sums(A, rng_from(k).uniform(-1.0, 1.0, size=k))
        for base in (None, drift):
            calls.clear()
            if constant == 12.0:
                full_coloring(A, base=base)
            else:
                with pytest.raises(DiscrepancyBoundError):
                    full_coloring(A, config=ColoringConfig(constant), base=base)
            if k <= coloring.BRUTEFORCE_MAX:
                assert calls == []
            elif base is None or constant == 12.0:
                assert calls == [(k, (k,), base is None)]
            else:
                assert calls == [(k, (k,), False), (k, (k,), True)]
