import copy
import math
import pickle
import sys
import threading

import numpy as np
import pytest

import sparsevote.boosting as boosting
from sparsevote import (
    Dataset,
    DecisionStump,
    Ensemble,
    WeightVector,
    adaboost_v,
    budget_multiplier,
    build_margin_matrix,
    lp_optimal_margin,
    margins,
    min_margin,
    sparsiboost,
    sup_norm_diff,
    train_stump,
)
from sparsevote.seeding import rng_from

from oracles import (
    adaboost_v_per_feature,
    best_stump_exhaustive,
    lp_margin_grid,
    margins_double_loop,
    stump_pick_interleaved,
    train_stump_per_feature,
)


def line_dataset(xs, labels):
    return Dataset(np.asarray(xs, dtype=float)[:, None], np.asarray(labels, dtype=float))


def random_dataset(seed, n, d, grid=None):
    rng = rng_from(seed)
    X = rng.uniform(0.0, 4.0, size=(n, d))
    if grid:
        X = np.round(X * grid) / grid
    y = rng.choice([-1.0, 1.0], size=n)
    return Dataset(X, y)


# adaboost_v(random_dataset(44, 60, 4, grid=2), 40),
# recorded before stump training moved to per-dataset presorting. The
# half-integer grid makes many thresholds and edges tie, so this pins the
# tie order as well as the arithmetic, bit for bit.
FROZEN_TIE_STUMPS = [
    (0, 0.25, -1), (0, 1.25, -1), (1, 3.75, -1), (1, 0.25, -1),
    (2, 3.75, -1), (0, 0.25, -1), (1, 3.75, -1), (3, 3.75, 1),
    (0, 0.75, 1), (2, 0.75, -1), (2, 1.75, 1), (2, 2.75, -1),
    (2, 2.75, 1), (1, 1.25, 1), (1, 1.75, -1), (0, 1.25, -1),
    (3, 0.25, 1), (0, 3.75, 1), (1, 1.25, 1), (1, 1.25, -1),
    (2, 2.75, -1), (2, 3.25, 1), (2, 3.75, -1), (0, 0.25, -1),
    (1, 3.75, -1), (2, 3.25, 1), (2, 3.75, -1), (0, 0.25, -1),
    (1, 3.75, -1), (0, 0.25, -1), (2, 0.25, 1), (2, 0.25, -1),
    (2, 0.25, 1), (2, 0.25, -1), (2, 0.25, 1), (2, 0.25, -1),
    (2, 0.25, 1), (2, 0.25, -1), (2, 0.25, 1), (2, 0.25, -1),
]
FROZEN_TIE_ALPHAS = [
    0.4831192640574602, 0.46090566032161906, 0.5849152201820553,
    0.6001576972912861, 0.5614794541959052, 0.5863836774132483,
    0.5666829429952032, 0.5601706502138291, 0.5738172137395887,
    0.5406308157483047, 0.5586131866908376, 0.6566064907039431,
    0.5263033746263817, 0.5341572593938528, 0.5979267112686224,
    0.5904993689520491, 0.5714352134276648, 0.6003804915913431,
    0.5608231496657292, 0.5263033746263814, 0.5558929419127336,
    0.5421004991532743, 0.6698372730851698, 0.57347621002307,
    0.5679792961612397, 0.5908292274563409, 0.5460603598578985,
    0.562254568902492, 0.5618252098848904, 0.546669961182078,
    0.5489066496930586, 0.5263033746263817, 0.5263033746263817,
    0.5263033746263814, 0.5263033746263817, 0.5263033746263817,
    0.5263033746263817, 0.5263033746263817, 0.5263033746263817,
    0.5263033746263817,
]


class TestDataset:
    def test_shape_properties(self):
        data = line_dataset([1, 2], [1, -1])
        assert data.n_points == 2
        assert data.n_features == 1

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([1.0, 0.5]))

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]), np.array([1.0]))

    def test_arrays_read_only(self):
        data = line_dataset([1.0], [1.0])
        with pytest.raises(ValueError):
            data.features[0, 0] = 2.0


class TestDecisionStump:
    def test_sign_zero_is_plus_one(self):
        stump = DecisionStump(feature=0, threshold=2.0, polarity=1)
        out = stump.predict(np.array([[2.0], [1.9], [2.1]]))
        assert np.array_equal(out, [1.0, -1.0, 1.0])

    def test_polarity_flip(self):
        plus = DecisionStump(0, 0.5, 1)
        minus = DecisionStump(0, 0.5, -1)
        X = np.array([[0.0], [1.0]])
        assert np.array_equal(minus.predict(X), -plus.predict(X))

    def test_infinite_thresholds_are_constant(self):
        X = np.array([[-5.0], [5.0]])
        low = DecisionStump(0, -math.inf, 1)
        high = DecisionStump(0, math.inf, 1)
        assert np.array_equal(low.predict(X), [1.0, 1.0])
        assert np.array_equal(high.predict(X), [-1.0, -1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionStump(-1, 0.0, 1)
        with pytest.raises(ValueError):
            DecisionStump(0, 0.0, 2)
        with pytest.raises(ValueError):
            DecisionStump(0, math.nan, 1)


class TestEnsemble:
    def test_outputs_are_stump_columns(self):
        data = random_dataset(1, 5, 2)
        stumps = (DecisionStump(0, 1.0, 1), DecisionStump(1, 2.0, -1))
        ens = Ensemble(stumps, WeightVector(np.array([0.5, 0.5])))
        outputs = ens.hypothesis_outputs(data.features)
        assert outputs.shape == (5, 2)
        for j, stump in enumerate(stumps):
            assert np.array_equal(outputs[:, j], stump.predict(data.features))
        assert len(ens) == 2

    def test_outputs_bitwise_equal_stacked_predictions(self):
        data = random_dataset(3, 40, 4, grid=2)
        ens = adaboost_v(data, 30)
        stumps = ens.hypotheses + (
            DecisionStump(1, -math.inf, 1),
            DecisionStump(2, math.inf, -1),
        )
        ens = Ensemble(stumps, WeightVector(np.ones(len(stumps))))
        outputs = ens.hypothesis_outputs(data.features)
        stacked = np.stack([h.predict(data.features) for h in ens.hypotheses], axis=1)
        assert outputs.dtype == stacked.dtype
        assert outputs.tobytes() == stacked.tobytes()
        # Row-major layout keeps the BLAS summation order of outputs @ w.
        assert outputs.flags.c_contiguous
        assert ens.hypothesis_outputs(np.asfortranarray(data.features)).flags.c_contiguous

    def test_validation(self):
        stump = DecisionStump(0, 0.0, 1)
        with pytest.raises(ValueError):
            Ensemble((), WeightVector(np.array([])))
        with pytest.raises(ValueError):
            Ensemble((stump,), WeightVector(np.array([0.5, 0.5])))
        with pytest.raises(ValueError):
            Ensemble((stump,), WeightVector(np.array([-1.0])))


class TestTrainStump:
    def test_separable_example(self):
        data = line_dataset([1, 2, 3, 4], [1, 1, -1, -1])
        stump = train_stump(data, np.full(4, 0.25))
        assert (stump.feature, stump.threshold, stump.polarity) == (0, 2.5, -1)
        assert np.array_equal(stump.predict(data.features), data.labels)

    def test_alternating_example(self):
        # best achievable weighted error is 0.25; the tie order picks the
        # lowest qualifying threshold, in (1, 2), predicting + below
        data = line_dataset([1, 2, 3, 4], [1, -1, 1, -1])
        stump = train_stump(data, np.full(4, 0.25))
        assert (stump.feature, stump.threshold, stump.polarity) == (0, 1.5, -1)
        agreement = data.labels * stump.predict(data.features)
        assert float(np.mean(agreement == 1.0)) == 0.75

    def test_point_mass(self):
        data = line_dataset([1, 2, 3, 4], [-1, 1, 1, 1])
        stump = train_stump(data, np.array([1.0, 0.0, 0.0, 0.0]))
        assert stump.predict(data.features)[0] == -1.0

    def test_frozen_oracle_instance(self):
        # seed 88 on a half-integer grid; the expectation comes from the
        # exhaustive scan over every (feature, threshold, polarity). The
        # weight draw shares the dataset's generator, so replay it.
        data = random_dataset(88, 12, 3, grid=2)
        rng = rng_from(88)
        rng.uniform(0, 4, size=(12, 3))
        rng.choice([-1.0, 1.0], size=12)
        weights = rng.dirichlet(np.ones(12))
        stump = train_stump(data, weights)
        assert (stump.feature, stump.threshold, stump.polarity) == (2, 1.25, 1)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_exhaustive_oracle(self, seed):
        # Several weightings on one Dataset object, as in boosting rounds,
        # so the per-dataset sort data is built once and then reused.
        n = 4 + seed
        d = 1 + seed % 3
        data = random_dataset(seed, n, d, grid=2 if seed % 2 else None)
        rng = rng_from(seed + 1000)
        for draw in range(3):
            weights = rng.dirichlet(np.ones(n))
            stump = train_stump(data, weights)
            (f, t, p), edge = best_stump_exhaustive(
                data.features, data.labels, weights
            )
            oracle = DecisionStump(f, t, p)
            if draw > 0 and stump != oracle:
                # Later draws on seeds 1, 5 and 6 hit exact ties between
                # stumps that predict alike (through another feature, or the
                # other sentinel). Their float edges differ only in summation
                # order, and that rounding decides the pick.
                assert np.array_equal(
                    stump.predict(data.features), oracle.predict(data.features)
                )
            else:
                assert stump == oracle
            got_edge = float(
                np.sum(weights * data.labels * stump.predict(data.features))
            )
            assert got_edge == pytest.approx(edge, abs=1e-12)

    def test_weight_validation(self):
        data = line_dataset([1, 2], [1, -1])
        with pytest.raises(ValueError):
            train_stump(data, np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            train_stump(data, np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            train_stump(data, np.array([0.5]))
        three = line_dataset([1, 2, 3], [1, -1, 1])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                train_stump(three, np.array([bad, 0.5, 0.5]))


def weight_draws(rng, n):
    """A spread-out weighting, one with about half its points at zero, and
    a point mass, each summing to 1."""
    yield rng.dirichlet(np.ones(n))
    weights = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.5)
    weights[rng.integers(n)] += 0.25
    yield weights / weights.sum()
    weights = np.zeros(n)
    weights[rng.integers(n)] = 1.0
    yield weights


def stump_tuple(stump):
    return (stump.feature, stump.threshold, stump.polarity)


class TestPerFeatureKernel:
    """The thread's scratch buffers and the two-lane cumsum keep the
    per-feature kernel's bits: the same edges, so the same stumps and
    alphas."""

    @pytest.mark.parametrize("n", [2, 3, 200, 2000])
    @pytest.mark.parametrize("d", [1, 2, 3, 10, 11, 31])
    def test_train_stump_matches(self, d, n):
        for grid in (None, 2):
            data = random_dataset(100 * d + n, n, d, grid=grid)
            rng = rng_from(n + d)
            for weights in weight_draws(rng, n):
                stump = train_stump(data, weights)
                expected, edges = train_stump_per_feature(
                    data.features, data.labels, weights
                )
                assert stump_tuple(stump) == expected
                edge = boosting._scratch.buffers[2]
                assert edge[: edges.size].tobytes() == edges.tobytes()

    @pytest.mark.parametrize("n, d, grid", [(300, 11, 2), (300, 10, None)])
    def test_adaboost_v_matches(self, n, d, grid):
        data = random_dataset(7 + d, n, d, grid=grid)
        ens = adaboost_v(data, 128)
        stumps, alphas = adaboost_v_per_feature(data.features, data.labels, 128)
        assert [stump_tuple(h) for h in ens.hypotheses] == stumps
        assert ens.weights.values.tobytes() == alphas.tobytes()


class TestStumpWorkspace:
    def test_threads_get_serial_results(self):
        data = random_dataset(3, 400, 7, grid=4)
        draws = [rng_from(50 + t).dirichlet(np.ones(400), size=50) for t in range(4)]
        serial = [[train_stump(data, w) for w in ws] for ws in draws]
        results = [None] * len(draws)

        def train(t):
            results[t] = [train_stump(data, w) for w in draws[t]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=train, args=(t,)) for t in range(len(draws))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == serial

    def test_one_thread_alternates_shapes(self):
        # The first two share h and n but not the candidate count; the third
        # differs in every shape, so each switch reallocates the buffers.
        datasets = [
            random_dataset(5, 400, 7, grid=4),
            random_dataset(6, 400, 7),
            random_dataset(7, 150, 3, grid=2),
        ]
        draws = [
            list(weight_draws(rng_from(60 + t), data.n_points)) * 2
            for t, data in enumerate(datasets)
        ]
        serial = [
            [train_stump(data, w) for w in ws] for data, ws in zip(datasets, draws)
        ]
        results = [[] for _ in datasets]

        def alternate():
            for step in range(len(draws[0])):
                for t, data in enumerate(datasets):
                    results[t].append(train_stump(data, draws[t][step]))

        thread = threading.Thread(target=alternate)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert results == serial

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
        ids=["deepcopy", "pickle"],
    )
    def test_trained_dataset_copies(self, clone):
        data = random_dataset(4, 120, 5, grid=2)
        weightings = list(weight_draws(rng_from(4), 120))
        before = [train_stump(data, w) for w in weightings]
        twin = clone(data)
        assert np.array_equal(twin.features, data.features)
        assert np.array_equal(twin.labels, data.labels)
        assert [train_stump(twin, w) for w in weightings] == before
        assert [train_stump(data, w) for w in weightings] == before


class TestBestCandidate:
    """train_stump's pick from the edges of polarity +1 equals argmax over
    both polarities interleaved, which sets the tie order."""

    def edge_vectors(self):
        rng = rng_from(5)
        for size in (1, 2, 3, 7, 40):
            yield rng.uniform(-1.0, 1.0, size=size)
            # Small integers: many exact ties within and across polarities.
            yield rng.integers(-3, 4, size=size).astype(np.float64)
            # Zeros of both signs only.
            yield rng.choice([0.0, -0.0], size=size)
            # A cross-polarity tie at the largest magnitude, in both orders.
            edge = rng.uniform(-0.5, 0.5, size=size)
            i, j = rng.integers(0, size, size=2)
            edge[i], edge[j] = -0.75, 0.75
            yield edge
            edge[i], edge[j] = 0.75, -0.75
            yield edge
            # Largest magnitude 0: zeros of both signs, then a tie at +-0.
            yield np.where(rng.random(size) < 0.5, 0.0, -0.0) * rng.uniform(size=size)

    def test_matches_interleaved_argmax(self):
        count = 0
        for edge in self.edge_vectors():
            assert boosting._best_candidate(edge) == stump_pick_interleaved(edge)
            count += 1
        assert count == 30

    @pytest.mark.parametrize(
        "edge, expected",
        [
            ([0.5, -0.5], (0, 1)),
            ([-0.5, 0.5], (0, -1)),
            ([0.25, -0.5, 0.5], (1, -1)),
            ([-0.0, 0.0], (0, 1)),
            ([-0.0], (0, 1)),
            ([-0.25, 0.0, 0.25], (0, -1)),
        ],
    )
    def test_tie_order(self, edge, expected):
        edge = np.array(edge)
        assert boosting._best_candidate(edge) == expected
        assert stump_pick_interleaved(edge) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_edges_keep_their_bits(self, seed):
        # total + (-2 * p) in place has the bits of total - 2 * p.
        rng = rng_from(seed)
        p = rng.uniform(-1.0, 1.0, size=500) * 2.0 ** rng.integers(-30, 2, size=500)
        total = float(rng.uniform(-1.0, 1.0))
        edge = p.copy()
        edge *= -2.0
        edge += total
        assert edge.tobytes() == (total - 2.0 * p).tobytes()


class TestAdaBoostV:
    def test_perfect_single_stump(self):
        data = line_dataset([1, 2, 3, 4], [1, 1, -1, -1])
        ens = adaboost_v(data, 1)
        assert len(ens) == 1
        U = build_margin_matrix(data, ens)
        assert min_margin(U, ens.weights.normalized()) == 1.0

    def test_weights_nonnegative_and_positive_total(self):
        data = random_dataset(5, 30, 2)
        ens = adaboost_v(data, 20)
        assert np.all(ens.weights.values >= 0.0)
        assert ens.weights.l1_norm > 0.0

    def test_contradictory_duplicates_rejected(self):
        # identical points with opposite labels leave every stump at edge 0
        data = line_dataset([1, 1], [1, -1])
        with pytest.raises(ValueError):
            adaboost_v(data, 4)

    def test_one_point_rejected(self):
        # With n = 1, nu = sqrt(2 ln(1) / rounds) = 0 makes every alpha 0.
        with pytest.raises(ValueError, match="at least two training points"):
            adaboost_v(line_dataset([1.0], [1.0]), 4)

    def test_early_stop_flag(self, monkeypatch):
        data = line_dataset([1, 2, 3, 4], [1, 1, -1, -1])
        real = boosting.train_stump
        calls = {"n": 0}

        def failing_learner(dataset, weights):
            calls["n"] += 1
            if calls["n"] >= 2:
                stump = real(dataset, weights)
                return DecisionStump(stump.feature, stump.threshold, -stump.polarity)
            return real(dataset, weights)

        monkeypatch.setattr(boosting, "train_stump", failing_learner)
        ens = adaboost_v(data, 5)
        assert ens.stopped_early
        assert len(ens) == 1

    def test_gap_rate_small_instance(self):
        xs = np.linspace(0, 1, 20)
        ys = np.where((xs > 0.3) & (xs <= 0.7), 1.0, -1.0)
        data = line_dataset(xs, ys)
        T = 64
        ens = adaboost_v(data, T)
        U = build_margin_matrix(data, ens)
        rho_T = min_margin(U, ens.weights.normalized())
        rho_star, _ = lp_optimal_margin(U)
        assert rho_star - rho_T <= 4.0 * math.sqrt(math.log(20) / T)

    def test_frozen_tie_heavy_run(self):
        data = random_dataset(44, 60, 4, grid=2)
        ens = adaboost_v(data, 40)
        assert not ens.stopped_early
        got = [(h.feature, h.threshold, h.polarity) for h in ens.hypotheses]
        assert got == FROZEN_TIE_STUMPS
        assert ens.weights.values.tolist() == FROZEN_TIE_ALPHAS

    def test_rounds_validation(self):
        data = line_dataset([1, 2, 3, 4], [1, 1, -1, -1])
        with pytest.raises(ValueError, match="at least one boosting round"):
            adaboost_v(data, 0)

    def test_margin_consistency_invariant(self):
        data = random_dataset(9, 25, 3)
        ens = adaboost_v(data, 12)
        w = ens.weights.normalized()
        U = build_margin_matrix(data, ens)
        direct = margins_double_loop(
            (data.labels[:, None] * ens.hypothesis_outputs(data.features)), w.values
        )
        assert np.max(np.abs(margins(U, w) - direct)) <= 1e-12


class TestLpOptimalMargin:
    def test_perfect_column(self):
        values = np.array([[1.0, -0.5], [1.0, 0.25], [1.0, 0.5]])
        rho, w = lp_optimal_margin(boosting.MarginMatrix(values))
        assert rho == pytest.approx(1.0, abs=1e-7)
        assert w.values[0] == pytest.approx(1.0, abs=1e-7)

    def test_symmetric_instance(self):
        U = boosting.MarginMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        rho, w = lp_optimal_margin(U)
        assert rho == pytest.approx(0.0, abs=1e-7)
        assert w.values == pytest.approx([0.5, 0.5], abs=1e-7)

    def test_matches_grid_oracle_frozen(self):
        U = boosting.MarginMatrix(rng_from(55).uniform(-1.0, 1.0, size=(6, 4)))
        rho, _ = lp_optimal_margin(U)
        grid_best = -0.11800699500857484  # simplex grid, resolution 1/200
        assert grid_best == pytest.approx(lp_margin_grid(U.values, 200), abs=1e-12)
        assert rho >= grid_best - 1e-7
        assert abs(rho - grid_best) <= 1e-2

    @pytest.mark.parametrize("seed", range(5))
    def test_upper_bounds_every_feasible_weighting(self, seed):
        rng = rng_from(seed + 70)
        U = boosting.MarginMatrix(rng.uniform(-1.0, 1.0, size=(8, 5)))
        rho, w_star = lp_optimal_margin(U)
        assert min_margin(U, w_star) >= rho - 1e-7
        for _ in range(25):
            w = WeightVector(rng.dirichlet(np.ones(5)))
            assert min_margin(U, w) <= rho + 1e-7


class TestBudgetMultiplier:
    def test_documented_value(self):
        assert budget_multiplier(1024, 32) == 2

    def test_formula_and_base_invariance(self):
        for n, T in [(200, 16), (512, 64), (10_000, 10), (2, 1)]:
            expected = math.ceil(math.log10(n) / math.log10(2.0 + n / T))
            assert budget_multiplier(n, T) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            budget_multiplier(1, 4)
        with pytest.raises(ValueError):
            budget_multiplier(16, 0)


class TestSparsiBoost:
    def test_pipeline_postconditions(self):
        data = random_dataset(21, 60, 3)
        T = 8
        full, ens, report = sparsiboost(data, T)
        assert len(ens) <= T
        assert np.all(ens.weights.values >= 0.0)
        assert abs(ens.weights.l1_norm - 1.0) <= 1e-9
        c = budget_multiplier(60, T)
        assert len(full) <= c * T
        assert report.initial_support <= c * T
        assert report.final_support == len(ens)

    def test_margin_chain_invariant(self):
        data = random_dataset(22, 80, 3)
        T = 8
        full, ens, report = sparsiboost(data, T)
        U = build_margin_matrix(data, full)
        w = full.weights.normalized()
        pruned_margin = float(
            np.min(
                data.labels
                * (ens.hypothesis_outputs(data.features) @ ens.weights.values)
            )
        )
        bound = 24.0 * math.sqrt(math.log(2.0 + 80 / T) / T)
        assert pruned_margin >= min_margin(U, w) - bound
        assert report.achieved_error <= bound

    @pytest.mark.parametrize("rounds", [None, 200])
    def test_bad_target_rejected_before_training(self, monkeypatch, rounds):
        def no_training(*args, **kwargs):
            raise AssertionError("adaboost_v ran for an invalid target")

        monkeypatch.setattr(boosting, "adaboost_v", no_training)
        with pytest.raises(ValueError, match="target size must be positive"):
            sparsiboost(random_dataset(23, 40, 3), 0, rounds=rounds)
