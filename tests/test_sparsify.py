import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevote import (
    ColoringConfig,
    MarginMatrix,
    SparsifyReport,
    WeightVector,
    halve,
    halving_error_bound,
    importance_sample,
    sparsify,
    sup_norm_diff,
    truncate_top,
)
from sparsevote.sparsify import MIN_HALVING_SUPPORT, _build_halving_matrix, _split_support
from sparsevote.seeding import rng_from, split_seed

from oracles import class_leads_by_dict, distinct_rows_by_dict

sparsify_module = importlib.import_module("sparsevote.sparsify")


def random_instance(seed, n, m, signed=False, uniform=False):
    rng = rng_from(seed)
    U = MarginMatrix(rng.uniform(-1.0, 1.0, size=(n, m)))
    if uniform:
        w = np.full(m, 1.0 / m)
    else:
        w = rng.dirichlet(np.ones(m))
    if signed:
        w = w * rng.choice([-1.0, 1.0], size=m)
    return U, WeightVector(w)


class TestSplitSupport:
    def test_sizes_and_disjointness(self):
        values = np.array([0.05, 0.4, 0.0, 0.2, 0.15, 0.1, 0.1])
        protected, free = _split_support(values)
        assert protected.size == 2  # ceil(6 / 3)
        assert set(protected) == {1, 3}
        assert set(free) == {0, 4, 5, 6}
        assert set(protected).isdisjoint(free)

    def test_tie_goes_to_lower_index(self):
        values = np.array([0.25, 0.25, 0.25, 0.25])
        protected, _ = _split_support(values)
        assert set(protected) == {0, 1}


class TestHalvingMatrixIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_row_sum_identity(self, seed):
        # omega * (row sums over the first n rows) must reproduce the
        # margins of w restricted to the free columns, the next row their
        # l1 mass, and the count row is all ones.
        U, w = random_instance(seed, n=7, m=12, signed=seed % 2 == 0)
        values = w.values.copy()
        _, free = _split_support(values)
        omega = float(np.max(np.abs(values[free])))
        A = _build_halving_matrix(U.values, values, free, omega)
        assert A.shape == (9, free.size)
        restricted = np.zeros_like(values)
        restricted[free] = values[free]
        expected = U.values @ restricted
        assert np.max(np.abs(omega * A[:-2].sum(axis=1) - expected)) <= 1e-10
        assert omega * A[-2].sum() == pytest.approx(
            np.sum(np.abs(values[free])), abs=1e-10
        )
        assert np.array_equal(A[-1], np.ones(free.size))

    @pytest.mark.parametrize("seed", range(6))
    def test_l1_row_holds_column_peaks(self, seed):
        # halve reads the peak it rescales by off the l1 row, also when the
        # first pass has doubled the surviving weights.
        rng = rng_from(seed + 40)
        U = MarginMatrix(rng.choice([-1.0, 1.0, 0.5, -0.0], size=(30, 24)))
        w = rng.exponential(size=24) * rng.choice([-1.0, 1.0], size=24)
        values = w / np.abs(w).sum()
        _, free = _split_support(values)
        omega = float(np.max(np.abs(values[free])))
        values[free[::2]] *= 2.0
        A = _build_halving_matrix(U.values, values, free, omega)
        assert np.abs(A[:-1]).max(axis=0).tobytes() == A[-2].tobytes()


class TestHalve:
    def test_constant_columns_zero_error(self):
        U = MarginMatrix(np.full((5, 8), 0.375))
        w = WeightVector.uniform(8)
        out = halve(U, w)
        assert sup_norm_diff(U, w, out) <= 1e-12

    def test_six_equal_entries(self):
        U, _ = random_instance(3, n=6, m=6)
        w = WeightVector.uniform(6)
        out = halve(U, w)
        assert out.support_size <= 3
        assert abs(out.l1_norm - 1.0) <= 1e-9
        assert np.all(out.values >= 0.0)

    def test_seeded_instance_meets_error_bound(self):
        rng = rng_from(7)
        U = MarginMatrix(rng.uniform(-1.0, 1.0, size=(64, 48)))
        w = WeightVector(rng.dirichlet(np.ones(48)))
        out = halve(U, w)
        bound = 24.0 * math.sqrt(math.log(2.0 + 64 / 48) / 48)
        assert sup_norm_diff(U, w, out) <= bound

    def test_rejects_small_support(self):
        U, _ = random_instance(1, n=4, m=5)
        with pytest.raises(ValueError):
            halve(U, WeightVector.uniform(5))

    def test_rejects_unnormalized(self):
        U, _ = random_instance(1, n=4, m=8)
        with pytest.raises(ValueError):
            halve(U, WeightVector(np.full(8, 0.25)))

    @pytest.mark.parametrize("seed", range(10))
    def test_support_halves_and_signs_survive(self, seed):
        m = int(rng_from(seed).integers(6, 40))
        U, w = random_instance(seed + 40, n=10, m=m, signed=True)
        out = halve(U, w)
        support = w.support_size
        assert out.support_size <= -(-support // 2)
        assert abs(out.l1_norm - 1.0) <= 1e-9
        assert set(out.nonzero_indices()) <= set(w.nonzero_indices())
        surviving = out.nonzero_indices()
        assert np.all(np.sign(out.values[surviving]) == np.sign(w.values[surviving]))


    @pytest.mark.parametrize("uniform", [False, True])
    def test_excess_plus_columns_are_dropped(self, monkeypatch, uniform):
        # Every coloring all +1: each pass keeps floor(k/2) of its k free
        # columns, those of largest |w_j|, the higher index on ties.
        seen = []

        def all_plus(A, *, config=None, base=None):
            seen.append(A.shape[1])
            return np.ones(A.shape[1])

        monkeypatch.setattr(sparsify_module, "full_coloring", all_plus)
        U, w = random_instance(31, n=12, m=30, uniform=uniform)
        protected, free = _split_support(w.values)
        out = halve(U, w)
        assert seen == [20, 10]
        ranked = sorted(free.tolist(), key=lambda j: (-abs(w.values[j]), -j))
        assert set(out.nonzero_indices().tolist()) == set(protected.tolist()) | set(ranked[:5])


class TestSparsify:
    def test_already_sparse_returns_unchanged(self):
        U, w = random_instance(5, n=6, m=10)
        out, report = sparsify(U, w, T=10)
        assert out is w
        assert report.halving_rounds == 0
        assert report.achieved_error == 0.0
        assert not report.truncated_fallback

    def test_constant_columns_error_zero(self):
        U = MarginMatrix(np.full((6, 16), -0.5))
        w = WeightVector.uniform(16)
        out, report = sparsify(U, w, T=4)
        assert out.support_size <= 4
        assert report.achieved_error <= 1e-12

    def test_target_validation(self):
        U, w = random_instance(6, n=5, m=8)
        with pytest.raises(ValueError):
            sparsify(U, w, T=0)
        with pytest.raises(ValueError):
            sparsify(U, w, T=9)

    def test_monte_carlo_median_error(self):
        n, m, T = 256, 128, 16
        bound = 24.0 * math.sqrt(math.log(2.0 + n / T) / T)
        errors = []
        for seed in range(100):
            rng = rng_from(split_seed(500, seed))
            U = MarginMatrix(rng.choice([-1.0, 1.0], size=(n, m)))
            w = WeightVector.uniform(m)
            _, report = sparsify(U, w, T)
            errors.append(report.achieved_error)
        assert float(np.median(errors)) <= bound

    def test_halver_beats_the_sampler_at_larger_targets(self):
        # The paper's claim beyond criterion 7: at T = 64 and 128 the
        # halver's median sup-norm error is at or below importance
        # sampling's, on uniform +-1 matrices (512 x 256, uniform weights)
        # and on Sylvester-Hadamard blocks with random row signs and
        # exponential weights (1024 x 512), eight of each, five sampler
        # draws per matrix.
        instances = {"uniform": [], "hadamard": []}
        for j in range(8):
            rng = rng_from(split_seed(2200, j))
            U = MarginMatrix(rng.choice([-1.0, 1.0], size=(512, 256)))
            instances["uniform"].append((U, WeightVector.uniform(256)))
            instances["hadamard"].append(sylvester_rows(split_seed(2300, j), 1024, 512))
        for kind, pairs in instances.items():
            for T in (64, 128):
                halver, sampler = [], []
                for j, (U, w) in enumerate(pairs):
                    halver.append(sparsify(U, w, T)[1].achieved_error)
                    for draw in range(5):
                        sampled = importance_sample(w, T, seed=split_seed(2400, T, draw))
                        sampler.append(sup_norm_diff(U, w, sampled))
                assert np.median(halver) <= np.median(sampler), (kind, T)

    def test_failed_coloring_truncates_after_one_halve(self, monkeypatch):
        # 21 of the 32 weights are free, too many for the exhaustive search,
        # and no coloring of them meets a bound of K_S = 1e-3: the first
        # round's coloring misses it, and sparsify truncates without trying
        # that round again.
        U, w = random_instance(10, n=64, m=32)
        calls = []
        real = sparsify_module.halve

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sparsify_module, "halve", spy)
        out, report = sparsify(U, w, T=8, config=ColoringConfig(1e-3))
        assert len(calls) == 1
        assert report.truncated_fallback
        assert report.halving_rounds == 0
        assert report.final_support <= 8
        assert out.values.tobytes() == truncate_top(w, 8).values.tobytes()

    def test_a_miss_from_the_drift_and_from_zero_truncates(self, monkeypatch):
        # Colorings meet their bound until the first one from a nonzero
        # drift, the first round's second pass; from there every coloring
        # misses, the one from the drift and the one from a zero base that
        # full_coloring makes next, and sparsify truncates.
        coloring = importlib.import_module("sparsevote.discrepancy")
        real = coloring._color
        bases = []

        def color(A, base, config):
            bases.append(not base.any())
            achieved, bound, x = real(A, base, config)
            return (math.inf if False in bases else achieved), bound, x

        monkeypatch.setattr(coloring, "_color", color)
        U, w = random_instance(12, n=40, m=48)
        out, report = sparsify(U, w, T=8)
        assert bases == [True, False, True]
        assert report.truncated_fallback
        assert report.halving_rounds == 0
        assert out.values.tobytes() == truncate_top(w, 8).values.tobytes()

    def test_wide_all_ones_matrix_halves_to_target(self):
        # Three equal rows of 1500 ones: every halving round's coloring
        # can be balanced, so sparsify halves down to T with no fallback.
        U = MarginMatrix(np.ones((3, 1500)))
        w = WeightVector.uniform(1500)
        out, report = sparsify(U, w, T=16)
        assert report.halving_rounds >= 1
        assert not report.truncated_fallback
        assert report.final_support <= 16
        assert out.support_size <= 16

    def test_report_fields(self):
        U, w = random_instance(8, n=12, m=32)
        out, report = sparsify(U, w, T=8)
        assert isinstance(report, SparsifyReport)
        assert report.initial_support == 32
        assert report.final_support == out.support_size
        assert report.final_support <= 8
        assert len(report.per_round_errors) == report.halving_rounds
        assert report.achieved_error >= 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_per_round_errors_track_support_bound(self, seed):
        n, m = 24, 64
        U, w = random_instance(seed + 60, n=n, m=m, uniform=True)
        _, report = sparsify(U, w, T=8)
        support = m
        for error in report.per_round_errors:
            assert error <= halving_error_bound(n, support, 24.0)
            support = -(-support // 2)

    def test_idempotent_at_target(self):
        U, w = random_instance(9, n=10, m=40)
        first, _ = sparsify(U, w, T=6)
        second, report = sparsify(U, first, T=6)
        assert second is first
        assert report.halving_rounds == 0

    def test_nonnegativity_preserved(self):
        for seed in range(12):
            U, w = random_instance(seed + 90, n=8, m=24)
            out, _ = sparsify(U, w, T=5)
            assert np.all(out.values >= 0.0)

    def test_signed_input_signs_preserved(self):
        for seed in range(12):
            U, w = random_instance(seed + 120, n=8, m=24, signed=True)
            out, _ = sparsify(U, w, T=5)
            surviving = out.nonzero_indices()
            assert set(surviving) <= set(w.nonzero_indices())
            assert np.all(
                np.sign(out.values[surviving]) == np.sign(w.values[surviving])
            )


def sylvester_rows(seed, n, m):
    """m columns of a Sylvester-Hadamard matrix of order n with random row
    signs and exponential weights, as in the hadamard benchmark: row i and
    row i + n/2 are equal up to sign."""
    rng = rng_from(seed)
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    U = rng.choice([-1.0, 1.0], size=n)[:, None] * H[:, rng.permutation(m)]
    weights = rng.exponential(size=m)
    return MarginMatrix(U), WeightVector(weights / weights.sum())


def stump_rows(seed, n, m):
    """Margins of threshold stumps on three features with five values each,
    points repeated: few distinct rows, as in a boosted ensemble."""
    rng = rng_from(seed)
    X = rng.integers(0, 5, size=(n, 3))
    y = rng.choice([-1.0, 1.0], size=n)
    feature = rng.integers(0, 3, size=m)
    threshold = rng.integers(1, 5, size=m)
    polarity = rng.choice([-1.0, 1.0], size=m)
    U = y[:, None] * np.where(X[:, feature] >= threshold, polarity, -polarity)
    return MarginMatrix(U), WeightVector(rng.dirichlet(np.ones(m)))


DISTINCT_ROW_INSTANCES = {
    "hadamard": lambda: sylvester_rows(1, 256, 96),
    "stumps": lambda: stump_rows(2, 300, 64),
    "uniform": lambda: random_instance(3, n=80, m=64),
}


class TestDistinctRowHalving:
    """sparsify halves on U's distinct rows up to sign, built column-major,
    and gets the weights that halving on U itself gives."""

    @pytest.mark.parametrize("kind", sorted(DISTINCT_ROW_INSTANCES))
    def test_halving_matrices_are_fortran_with_one_row_per_class(self, monkeypatch, kind):
        U, w = DISTINCT_ROW_INSTANCES[kind]()
        classes = distinct_rows_by_dict(U.values).shape[0]
        seen = []
        real = sparsify_module.full_coloring

        def spy(A, *args, **kwargs):
            seen.append((A.flags.f_contiguous, A.shape[0]))
            return real(A, *args, **kwargs)

        monkeypatch.setattr(sparsify_module, "full_coloring", spy)
        sparsify(U, w, T=8)
        assert len(seen) >= 2
        assert set(seen) == {(True, classes + 2)}
        if kind != "uniform":
            assert classes < U.n_points

    @pytest.mark.parametrize("kind", sorted(DISTINCT_ROW_INSTANCES))
    def test_halve_gets_each_first_row_as_it_stands(self, monkeypatch, kind):
        U, w = DISTINCT_ROW_INSTANCES[kind]()
        expected = distinct_rows_by_dict(U.values).tobytes()
        seen = []
        real = sparsify_module.halve

        def spy(distinct, *args, **kwargs):
            seen.append((distinct.values.flags.f_contiguous, distinct.values.tobytes()))
            return real(distinct, *args, **kwargs)

        monkeypatch.setattr(sparsify_module, "halve", spy)
        sparsify(U, w, T=8)
        assert seen and set(seen) == {(True, expected)}

    @pytest.mark.parametrize("kind", sorted(DISTINCT_ROW_INSTANCES))
    def test_negating_each_first_row_keeps_the_rounds(self, kind):
        # Rows equal up to sign are one constraint whichever sign the first
        # of them has, so the weights keep their bits. The errors do too:
        # in the same layout, a negated row's margins are negated exactly.
        U, w = DISTINCT_ROW_INSTANCES[kind]()
        negated = U.values.copy(order="K")
        negated[class_leads_by_dict(U.values)] *= -1.0
        out, report = sparsify(U, w, T=8)
        out_negated, report_negated = sparsify(MarginMatrix(negated), w, T=8)
        assert out_negated.values.tobytes() == out.values.tobytes()
        assert report_negated == report

    @pytest.mark.parametrize("kind", sorted(DISTINCT_ROW_INSTANCES))
    def test_rounds_are_halving_on_all_rows(self, kind):
        # The same rounds, each a halve call on U itself from w.
        U, w = DISTINCT_ROW_INSTANCES[kind]()
        out, report = sparsify(U, w, T=8)
        current, errors = w, []
        while current.support_size > 8:
            halved = halve(U, current, start=w)
            errors.append(sup_norm_diff(U, current, halved))
            current = halved
        assert out.values.tobytes() == current.values.tobytes()
        assert report.per_round_errors == tuple(errors)
        assert report.achieved_error == sup_norm_diff(U, w, out)

    def test_halving_matrix_matches_row_major_build(self):
        U, w = sylvester_rows(4, 64, 40)
        values = w.values.copy()
        _, free = _split_support(values)
        omega = float(np.max(np.abs(values[free])))
        scaled = U.values[:, free] * (values[free] / omega)[None, :]
        expected = np.vstack([scaled, np.abs(values[free]) / omega, np.ones(free.size)])
        for layout in (U.values, np.asfortranarray(U.values)):
            A = _build_halving_matrix(layout, values, free, omega)
            assert A.flags.f_contiguous
            assert A.tobytes(order="C") == expected.tobytes()


class TestImportanceSample:
    def test_one_hot_fixed_point(self):
        w = WeightVector(np.array([0.0, 1.0, 0.0]))
        for seed in range(20):
            out = importance_sample(w, T=13, seed=seed)
            assert np.array_equal(out.values, w.values)

    def test_count_identity_every_trial(self):
        rng = rng_from(321)
        for trial in range(200):
            m = int(rng.integers(2, 25))
            T = int(rng.integers(1, 500))
            w = WeightVector(
                rng.dirichlet(np.ones(m)) * rng.choice([-1.0, 1.0], size=m)
            )
            out = importance_sample(w, T, seed=split_seed(9, trial))
            counts = np.abs(out.values) * T
            assert np.max(np.abs(counts - np.round(counts))) < 1e-6
            assert int(np.round(counts.sum())) == T
            assert abs(out.l1_norm - 1.0) <= 1e-9
            assert out.support_size <= T
            surviving = out.nonzero_indices()
            assert np.all(
                np.sign(out.values[surviving]) == np.sign(w.values[surviving])
            )

    def test_binomial_concentration(self):
        w = WeightVector(np.array([0.5, 0.5]))
        T = 10_000
        draws = np.array(
            [importance_sample(w, T, seed=split_seed(10, s)).values for s in range(100)]
        )
        band = 3.0 * math.sqrt(0.25 / T)
        assert abs(float(draws[:, 0].mean()) - 0.5) <= band
        assert abs(float(draws[:, 1].mean()) - 0.5) <= band

    def test_rejects_bad_draw_count(self):
        with pytest.raises(ValueError):
            importance_sample(WeightVector(np.array([1.0])), T=0, seed=0)


class TestTruncateTop:
    def test_unchanged_when_already_small(self):
        w = WeightVector(np.array([0.6, 0.4, 0.0]))
        assert truncate_top(w, 2) is w

    def test_documented_arithmetic(self):
        w = WeightVector(np.array([0.5, 0.3, 0.2]))
        out = truncate_top(w, 2)
        assert out.values == pytest.approx([0.625, 0.375, 0.0], abs=1e-15)
        assert out.values[2] == 0.0

    @given(st.integers(0, 10_000), st.integers(1, 12), st.integers(2, 14))
    @settings(max_examples=60, deadline=None)
    def test_matches_sort_oracle(self, seed, T, m):
        rng = rng_from(seed)
        w = WeightVector(rng.dirichlet(np.ones(m)) * rng.choice([-1.0, 1.0], size=m))
        out = truncate_top(w, T)
        if w.support_size <= T:
            assert out is w
            return
        kept = set(out.nonzero_indices().tolist())
        ranked = sorted(range(m), key=lambda j: (-abs(w.values[j]), j))
        assert kept == set(ranked[:T])
        assert abs(out.l1_norm - 1.0) <= 1e-9


class TestHalvingErrorBound:
    def test_formula(self):
        assert halving_error_bound(64, 16, 24.0) == pytest.approx(
            24.0 * math.sqrt(math.log(2.0 + 4.0) / 16.0)
        )

    def test_decreases_in_support(self):
        values = [halving_error_bound(256, s, 24.0) for s in (16, 32, 64, 128)]
        assert values == sorted(values, reverse=True)
