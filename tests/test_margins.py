import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevote import (
    DecisionStump,
    Dataset,
    Ensemble,
    MarginMatrix,
    WeightVector,
    build_margin_matrix,
    cumulative_margin_curve,
    full_coloring,
    margins,
    min_margin,
    sup_norm_diff,
)
from sparsevote.margins import require_normalized
from sparsevote.seeding import rng_from

from oracles import (
    curve_by_sorting,
    margins_double_loop,
    min_margin_sort,
    sup_norm_elementwise,
)

# The package re-exports the function `discrepancy`, which shadows the
# submodule as an attribute; import_module returns the module itself.
coloring = importlib.import_module("sparsevote.discrepancy")

# Frozen 5x4 instance (seed 416) with oracle margins computed by explicit
# double summation.
U_5X4 = np.array([
    [-0.9955231199816856, -0.023093739187173945, -0.49732648146592795, 0.18556441709537141],
    [-0.7475229060363406, 0.5420830333082511, -0.09010053444603772, 0.5584938561272932],
    [-0.4735678682292386, -0.2953814783988611, 0.07151627396786475, 0.012466429319076155],
    [-0.842878538894007, 0.08935210009999528, -0.45213516098048334, 0.3270417116319546],
    [-0.5095701530410424, 0.26091378685542144, 0.09298031730950895, 0.8318806951051101],
])
W_5X4 = np.array([
    0.3401406210290074, 0.05695063807123894, 0.2794006366846935, 0.3235081042150602,
])
MARGINS_5X4 = np.array([
    -0.4188547982389083, -0.06788778893646652, -0.1538871490728336,
    -0.30213477827391133, 0.13663260479175532,
])


def random_case(seed, n=6, m=5, signed=False):
    rng = rng_from(seed)
    U = MarginMatrix(rng.uniform(-1.0, 1.0, size=(n, m)))
    w = rng.dirichlet(np.ones(m))
    if signed:
        w = w * rng.choice([-1.0, 1.0], size=m)
    return U, WeightVector(w)


class TestMarginMatrix:
    def test_dimensions(self):
        U = MarginMatrix(np.zeros((3, 2)))
        assert U.n_points == 3
        assert U.n_hypotheses == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MarginMatrix(np.array([[0.0, 1.5]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            MarginMatrix(np.array([[np.nan, 0.0]]))

    def test_clips_tolerance_overshoot(self):
        U = MarginMatrix(np.array([[1.0 + 1e-12, -1.0 - 1e-12]]))
        assert np.max(np.abs(U.values)) == 1.0

    def test_values_read_only(self):
        U = MarginMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            U.values[0, 0] = 1.0

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            MarginMatrix(np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_message(self, bad):
        with pytest.raises(ValueError, match="^margin matrix contains non-finite entries$"):
            MarginMatrix(np.array([[0.5, bad], [2.0, -3.0]]))

    def test_out_of_range_message_names_peak(self):
        with pytest.raises(ValueError, match=r"magnitude 1\.75$"):
            MarginMatrix(np.array([[0.5, -1.75], [1.25, 0.0]]))

    def test_values_equal_clip_of_a_private_copy(self):
        rng = rng_from(12)
        A = rng.uniform(-1, 1, size=(20, 7))
        A[0, :3] = [1.0 + 1e-10, -1.0 - 1e-10, -0.0]
        expected = np.clip(A, -1.0, 1.0)
        U = MarginMatrix(A)
        assert U.values.tobytes() == expected.tobytes()
        assert A.flags.writeable and not np.shares_memory(U.values, A)
        A[1, 1] = 0.25
        assert U.values.tobytes() == expected.tobytes()


class TestSharedEntryCheck:
    """MarginMatrix and full_coloring check a matrix's entries with one
    helper: they reject the same matrices, with the same message after
    their own name, and clip the same tolerance overshoot."""

    @pytest.mark.parametrize(
        "bad",
        [
            [[0.5, np.nan]],
            [[np.inf, 0.0]],
            [[0.0, -np.inf]],
            [[1.0 + 2e-9, 0.0]],
            [[0.0], [-(1.0 + 2e-9)]],
            [0.5, -0.5, 0.0],
            np.zeros((0, 3)),
        ],
        ids=["nan", "inf", "minus_inf", "beyond_tol", "minus_beyond_tol", "one_d", "empty"],
    )
    def test_same_rejections(self, bad):
        bad = np.array(bad, dtype=np.float64)
        with pytest.raises(ValueError) as margin_error:
            MarginMatrix(bad)
        with pytest.raises(ValueError) as coloring_error:
            full_coloring(bad)
        assert str(margin_error.value) == f"margin {coloring_error.value}"

    def test_same_clip_and_no_copy(self):
        A = np.array([[1.0 + 1e-12, -0.5], [0.25, -(1.0 + 1e-12)]])
        clipped = np.array([[1.0, -0.5], [0.25, -1.0]])
        assert MarginMatrix(A).values.tobytes() == clipped.tobytes()
        assert coloring._validate_matrix(A).tobytes() == clipped.tobytes()
        F = np.asfortranarray(rng_from(13).uniform(-1.0, 1.0, size=(9, 5)))
        F[0, :2] = [1.0, -1.0]
        assert coloring._validate_matrix(F) is F


class TestWeightVector:
    def test_uniform(self):
        w = WeightVector.uniform(4)
        assert np.allclose(w.values, 0.25)
        assert w.is_normalized()

    def test_support_and_norm(self):
        w = WeightVector(np.array([0.5, 0.0, -0.5]))
        assert w.support_size == 2
        assert w.l1_norm == 1.0
        assert list(w.nonzero_indices()) == [0, 2]
        assert len(w) == 3

    def test_normalized(self):
        w = WeightVector(np.array([2.0, -2.0])).normalized()
        assert w.l1_norm == pytest.approx(1.0, abs=0)
        assert np.array_equal(w.values, [0.5, -0.5])

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(np.zeros(3)).normalized()

    def test_require_normalized(self):
        require_normalized(WeightVector(np.array([0.7, 0.3])))
        with pytest.raises(ValueError):
            require_normalized(WeightVector(np.array([0.7, 0.7])))


class TestMargins:
    def test_basis_vector_selects_column(self):
        U, _ = random_case(1)
        e2 = np.zeros(5)
        e2[2] = 1.0
        assert np.array_equal(margins(U, WeightVector(e2)), U.values[:, 2])

    def test_constant_rows(self):
        U = MarginMatrix(np.full((4, 3), 0.25))
        got = margins(U, WeightVector.uniform(3))
        assert np.allclose(got, 0.25, atol=1e-15)

    def test_matches_double_loop_oracle_frozen(self):
        got = margins(MarginMatrix(U_5X4), WeightVector(W_5X4))
        assert np.max(np.abs(got - MARGINS_5X4)) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_double_loop_oracle_random(self, seed):
        U, w = random_case(seed, signed=seed % 2 == 1)
        expected = margins_double_loop(U.values, w.values)
        assert np.max(np.abs(margins(U, w) - expected)) <= 1e-12

    def test_dimension_mismatch(self):
        U, _ = random_case(2)
        with pytest.raises(ValueError):
            margins(U, WeightVector.uniform(3))

    @pytest.mark.parametrize("seed", range(6))
    def test_normalized_weights_keep_margins_in_unit_interval(self, seed):
        U, w = random_case(seed, n=8, m=7, signed=True)
        values = margins(U, w)
        assert np.all(np.abs(values) <= 1.0 + 1e-12)

    @given(
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b, seed):
        rng = rng_from(seed)
        U = MarginMatrix(rng.uniform(-1, 1, size=(4, 3)))
        w1 = rng.uniform(-1, 1, size=3)
        w2 = rng.uniform(-1, 1, size=3)
        lhs = U.values @ (a * w1 + b * w2)
        rhs = a * margins(U, WeightVector(w1)) + b * margins(U, WeightVector(w2))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestMinMargin:
    def test_example(self):
        U = MarginMatrix(np.array([[0.3], [-0.1], [0.5]]))
        assert min_margin(U, WeightVector(np.array([1.0]))) == -0.1

    def test_all_correct_single_stump(self):
        # a column of +1 margins with w = e_1 gives minimum margin 1
        U = MarginMatrix(np.ones((5, 2)) * np.array([1.0, -1.0]))
        w = WeightVector(np.array([1.0, 0.0]))
        assert min_margin(U, w) == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sort_oracle(self, seed):
        U, w = random_case(seed, n=9, m=4)
        assert min_margin(U, w) == pytest.approx(
            min_margin_sort(U.values, w.values), abs=1e-12
        )


class TestSupNormDiff:
    def test_identical_weights(self):
        U, w = random_case(3)
        assert sup_norm_diff(U, w, w) == 0.0

    def test_all_ones_matrix_invariant(self):
        U = MarginMatrix(np.ones((4, 6)))
        rng = rng_from(4)
        w1 = WeightVector(rng.dirichlet(np.ones(6)))
        w2 = WeightVector(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
        assert sup_norm_diff(U, w1, w2) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_elementwise_oracle(self, seed):
        U, w1 = random_case(seed, n=7, m=5)
        _, w2 = random_case(seed + 100, n=7, m=5)
        expected = sup_norm_elementwise(U.values, w1.values, w2.values)
        assert sup_norm_diff(U, w1, w2) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        U, w1 = random_case(5)
        _, w2 = random_case(6)
        assert sup_norm_diff(U, w1, w2) == sup_norm_diff(U, w2, w1)


class TestCumulativeMarginCurve:
    def test_constant_margins(self):
        assert cumulative_margin_curve([1.0, 1.0]) == [(1.0, 0.5), (1.0, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cumulative_margin_curve([])

    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_shape_and_monotonicity(self, values):
        curve = cumulative_margin_curve(values)
        assert len(curve) == len(values)
        xs = [m for m, _ in curve]
        assert xs == sorted(xs)
        assert curve[-1][1] == 1.0
        fractions = [f for _, f in curve]
        assert all(b > a for a, b in zip(fractions, fractions[1:]))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sort_oracle(self, seed):
        values = rng_from(seed).uniform(-1, 1, size=11)
        assert cumulative_margin_curve(values) == curve_by_sorting(values)

    @pytest.mark.parametrize("n", [1, 3, 7, 10, 49, 97, 1000, 2000, 4099])
    def test_fractions_are_python_quotients(self, n):
        curve = cumulative_margin_curve(np.zeros(n))
        assert [f for _, f in curve] == [(k + 1) / n for k in range(n)]
        assert all(type(m) is float and type(f) is float for m, f in curve)


class TestBuildMarginMatrix:
    def test_documented_line_example(self):
        # 3 points at x = 1, 2, 3 with labels (+1, +1, -1); the stump
        # predicting +1 below 2.5 agrees with every label.
        data = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 1.0, -1.0]))
        stump = DecisionStump(feature=0, threshold=2.5, polarity=-1)
        ensemble = Ensemble((stump,), WeightVector(np.array([1.0])))
        U = build_margin_matrix(data, ensemble)
        assert np.array_equal(U.values, [[1.0], [1.0], [1.0]])

    def test_entries_are_label_times_output(self):
        rng = rng_from(11)
        data = Dataset(rng.normal(size=(6, 2)), rng.choice([-1.0, 1.0], size=6))
        stumps = (
            DecisionStump(0, 0.0, 1),
            DecisionStump(1, -0.5, -1),
        )
        ensemble = Ensemble(stumps, WeightVector(np.array([0.5, 0.5])))
        U = build_margin_matrix(data, ensemble)
        for j, stump in enumerate(stumps):
            expected = data.labels * stump.predict(data.features)
            assert np.array_equal(U.values[:, j], expected)
