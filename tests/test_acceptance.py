"""Acceptance gate: twelve end-to-end criteria, one test each.

Every test prints exactly one summary line of the form

    [criterion N] PASS - detail

before asserting, so the verdict for each criterion is visible in the
pytest output (the suite runs with -rA, which echoes captured stdout
for passing tests as well as failing ones). Criteria with stated
runtime budgets enforce them on measured wall time.
"""
import json
import math
import re
import time

import numpy as np
import pytest

from oracles import auc_pairwise, best_offset_counting, min_discrepancy_exhaustive
from sparsevote import (
    Dataset,
    MarginMatrix,
    WeightVector,
    adaboost_v,
    auc,
    bias_correct,
    budget_multiplier,
    build_margin_matrix,
    full_coloring,
    halve_columns,
    importance_sample,
    lp_optimal_margin,
    min_margin,
    save_dataset,
    sparsiboost,
    sparsify,
    sup_norm_diff,
)
from sparsevote.cli import RunConfig, run_compare
from sparsevote.seeding import rng_from, split_seed


def _report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {verdict} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _boosted_benchmark(seed, n=512, d=8, rounds=256):
    """Margin matrix and weights of a trained stump ensemble on synthetic
    data; gives the sparsifier structured weights rather than a uniform
    vector, matching how the method is used."""
    rng = rng_from(split_seed(7000, seed))
    X = rng.normal(size=(n, d))
    logits = (
        X[:, 0]
        + 0.8 * X[:, 1]
        - 0.6 * X[:, 2] * X[:, 3]
        + 0.4 * np.sin(3.0 * X[:, 4])
        + 0.3 * rng.normal(size=n)
    )
    data = Dataset(X, np.where(logits >= 0, 1.0, -1.0))
    ensemble = adaboost_v(data, rounds)
    U = build_margin_matrix(data, ensemble)
    return U, ensemble.weights.normalized()


def test_criterion_01_coloring_bound():
    started = time.perf_counter()
    trials = 0
    worst_ratio = 0.0
    for n, k in ((32, 32), (128, 64), (256, 256)):
        bound = 12.0 * math.sqrt(k * math.log(math.e * n / k))
        for seed in range(50):
            rng = rng_from(split_seed(1100, n, k, seed))
            A = rng.choice([-1.0, 1.0], size=(n, k))
            x = full_coloring(A)
            assert np.all(np.abs(x) == 1.0)
            worst_ratio = max(worst_ratio, float(np.max(np.abs(A @ x))) / bound)
            trials += 1
    elapsed = time.perf_counter() - started
    ok = worst_ratio <= 1.0 and elapsed <= 60.0
    _report(
        1,
        ok,
        f"coloring bound 12*sqrt(k*ln(e*n/k)) held on {trials}/150 random "
        f"sign matrices, worst ratio {worst_ratio:.3f}, {elapsed:.1f}s <= 60s",
    )


def test_criterion_02_coloring_optimality():
    started = time.perf_counter()
    exact = 0
    trials = 0
    never_below = True
    for k in range(1, 15):
        for seed in range(20):
            rng = rng_from(split_seed(1300, k, seed))
            n = int(rng.integers(1, 21))
            A = rng.uniform(-1.0, 1.0, size=(n, k))
            x = full_coloring(A)
            achieved = float(np.max(np.abs(A @ x)))
            optimum, _ = min_discrepancy_exhaustive(A)
            never_below = never_below and achieved >= optimum - 1e-12
            if abs(achieved - optimum) <= 1e-12:
                exact += 1
            trials += 1
    elapsed = time.perf_counter() - started
    ok = never_below and exact == trials and elapsed <= 30.0
    _report(
        2,
        ok,
        f"small-instance colorings matched the exhaustive optimum on "
        f"{exact}/{trials} cases (k = 1..14), {elapsed:.1f}s <= 30s",
    )


def test_criterion_03_halving_sandwich():
    started = time.perf_counter()
    n, T = 128, 64
    bound = 12.0 * math.sqrt(T * math.log(2.0 + n / T))
    worst = 0.0
    max_size = 0
    for seed in range(50):
        rng = rng_from(split_seed(1600, seed))
        A = rng.choice([-1.0, 1.0], size=(n, T))
        kept = halve_columns(A)
        max_size = max(max_size, len(kept))
        deviation = np.abs(A[:, kept].sum(axis=1) - A.sum(axis=1) / 2.0)
        worst = max(worst, float(np.max(deviation)))
    elapsed = time.perf_counter() - started
    ok = max_size <= T // 2 and worst <= bound and elapsed <= 60.0
    _report(
        3,
        ok,
        f"50 halvings kept <= {max_size} of {T} columns with row sums "
        f"within half +- {worst:.1f} (bound {bound:.1f}), {elapsed:.1f}s <= 60s",
    )


def test_criterion_04_sparsification_rate():
    started = time.perf_counter()
    n, m = 512, 256
    medians = []
    bounds = []
    for T in (16, 32, 64, 128):
        errors = []
        for seed in range(50):
            rng = rng_from(split_seed(1200, T, seed))
            U = MarginMatrix(rng.choice([-1.0, 1.0], size=(n, m)))
            w = WeightVector.uniform(m)
            _, report = sparsify(U, w, T)
            errors.append(report.achieved_error)
        medians.append(float(np.median(errors)))
        bounds.append(24.0 * math.sqrt(math.log(2.0 + n / T) / T))
    elapsed = time.perf_counter() - started
    under = all(med <= b for med, b in zip(medians, bounds))
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    ok = under and decreasing and elapsed <= 300.0
    shown = ", ".join(
        f"T={T}: {med:.3f}<={b:.3f}"
        for T, med, b in zip((16, 32, 64, 128), medians, bounds)
    )
    _report(
        4,
        ok,
        f"median sup-norm error under 24*sqrt(ln(2+n/T)/T) and decreasing "
        f"in T ({shown}), {elapsed:.1f}s <= 300s",
    )


def test_criterion_05_structural_invariants():
    failures = 0
    trials = 0
    nonneg_trials = 0
    while trials < 1000:
        rng = rng_from(split_seed(1700, trials))
        n = int(rng.integers(1, 25))
        m = int(rng.integers(1, 21))
        T = int(rng.integers(1, m + 1))
        U = MarginMatrix(rng.uniform(-1.0, 1.0, size=(n, m)))
        raw = rng.normal(size=m)
        nonnegative = trials % 2 == 0
        if nonnegative:
            raw = np.abs(raw) + 1e-3
            nonneg_trials += 1
        w = WeightVector(raw / np.sum(np.abs(raw)))
        out, _ = sparsify(U, w, T)
        good = (
            out.support_size <= T
            and abs(out.l1_norm - 1.0) <= 1e-9
            and np.all(w.values[out.nonzero_indices()] != 0.0)
            and np.all(out.values * w.values >= 0.0)
            and (not nonnegative or np.all(out.values >= 0.0))
        )
        failures += 0 if good else 1
        trials += 1
    ok = failures == 0
    _report(
        5,
        ok,
        f"support/norm/sign/nonnegativity invariants held on all {trials} "
        f"random cases ({nonneg_trials} nonnegative), {failures} failures",
    )


def test_criterion_06_sampling_contract():
    one_hot_exact = True
    for position in range(7):
        basis = np.zeros(7)
        basis[position] = 1.0
        for T in (1, 5):
            out = importance_sample(
                WeightVector(basis), T, seed=split_seed(1800, position, T)
            )
            one_hot_exact = one_hot_exact and np.array_equal(out.values, basis)
    count_exact = True
    for trial in range(300):
        rng = rng_from(split_seed(1801, trial))
        m = int(rng.integers(1, 30))
        T = int(rng.integers(1, 40))
        raw = rng.normal(size=m)
        w = WeightVector(raw / np.sum(np.abs(raw)))
        out = importance_sample(w, T, seed=split_seed(1802, trial))
        counts = np.abs(out.values) * T
        count_exact = count_exact and (
            float(np.max(np.abs(counts - np.round(counts)))) <= 1e-6
            and int(np.round(counts).sum()) == T
            and abs(out.l1_norm - 1.0) <= 1e-12
        )
    T = 10_000
    w = WeightVector(np.array([0.5, 0.5]))
    first = [
        importance_sample(w, T, seed=split_seed(1803, s)).values[0]
        for s in range(100)
    ]
    band = 3.0 * math.sqrt(0.25 / T) / math.sqrt(100)
    deviation = abs(float(np.mean(first)) - 0.5)
    in_band = deviation <= band
    ok = one_hot_exact and count_exact and in_band
    _report(
        6,
        ok,
        f"one-hot fixed point exact, l1 norm certified exact by the integer "
        f"count identity on 300 trials, Monte-Carlo mean off by "
        f"{deviation:.5f} <= {band:.5f}",
    )


def test_criterion_07_beats_sampling():
    results = {}
    for T in (16, 64):
        halver = []
        sampler = []
        for seed in range(20):
            U, w = _boosted_benchmark(seed)
            out, report = sparsify(U, w, T)
            halver.append(report.achieved_error)
            sampled = importance_sample(w, T, seed=split_seed(7003, T, seed))
            sampler.append(sup_norm_diff(U, w, sampled))
        results[T] = (float(np.median(halver)), float(np.median(sampler)))
    ok = all(h <= s for h, s in results.values())
    shown = ", ".join(
        f"T={T}: {h:.3f} vs {s:.3f}" for T, (h, s) in results.items()
    )
    _report(
        7,
        ok,
        f"sparsifier median sup-norm error at or below the sampler's on "
        f"20-seed boosted benchmarks (n=512, m=256; {shown}), no slack",
    )


def test_criterion_08_boosting_gap_rate():
    started = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 50).reshape(-1, 1)
    labels = np.where(
        ((grid[:, 0] > 0.2) & (grid[:, 0] <= 0.55)) | (grid[:, 0] > 0.8),
        1.0,
        -1.0,
    )
    data = Dataset(grid, labels)
    gaps = []
    bounds = []
    for T in (16, 64, 256):
        ensemble = adaboost_v(data, T)
        U = build_margin_matrix(data, ensemble)
        rho = min_margin(U, ensemble.weights.normalized())
        rho_star, _ = lp_optimal_margin(U)
        gaps.append(rho_star - rho)
        bounds.append(4.0 * math.sqrt(math.log(50.0) / T))
    elapsed = time.perf_counter() - started
    ok = all(g <= b for g, b in zip(gaps, bounds)) and elapsed <= 120.0
    shown = ", ".join(
        f"T={T}: {g:.4f}<={b:.3f}" for T, g, b in zip((16, 64, 256), gaps, bounds)
    )
    _report(
        8,
        ok,
        f"margin gap to the LP optimum within 4*sqrt(ln(n)/T) on the "
        f"50-point dataset ({shown}), {elapsed:.1f}s <= 120s",
    )


def test_criterion_09_end_to_end_pipeline():
    n, T = 200, 16
    rng = rng_from(split_seed(1900, 0))
    X = rng.normal(size=(n, 4))
    y = np.where(
        X[:, 0] + 0.6 * X[:, 1] - 0.4 * X[:, 2] + 0.4 * rng.normal(size=n) >= 0,
        1.0,
        -1.0,
    )
    data = Dataset(X, y)
    dictionary, ensemble, _ = sparsiboost(data, T)
    c = budget_multiplier(n, T)
    rho_star, _ = lp_optimal_margin(build_margin_matrix(data, dictionary))
    rho = min_margin(build_margin_matrix(data, ensemble), ensemble.weights)
    gap = rho_star - rho
    bound = 30.0 * math.sqrt(math.log(2.0 + n / T) / T)
    ok = gap <= bound and len(ensemble) <= T and budget_multiplier(1024, 32) == 2
    _report(
        9,
        ok,
        f"pipeline kept {len(ensemble)} <= {T} stumps with gap {gap:.3f} <= "
        f"{bound:.3f} against the LP over the {c * T}-stump dictionary; "
        f"budget multiplier(1024, 32) == 2",
    )


def test_criterion_10_bias_correction_oracle():
    agree = 0
    trials = 100
    for trial in range(trials):
        rng = rng_from(split_seed(1500, trial))
        n = 1000
        if trial % 2 == 0:
            scores = rng.choice(np.round(np.linspace(-2, 2, 17), 3), size=n)
        else:
            scores = rng.normal(size=n)
        labels = rng.choice([-1.0, 1.0], size=n)
        _, accuracy_fast = bias_correct(scores, labels)
        _, accuracy_oracle = best_offset_counting(scores, labels)
        if accuracy_fast == accuracy_oracle:
            agree += 1
    ok = agree == trials
    _report(
        10,
        ok,
        f"sorted-scan bias correction matched the exhaustive-offset oracle's "
        f"accuracy exactly on {agree}/{trials} instances of n = 1000 "
        f"(half with heavily tied scores)",
    )


def test_criterion_11_auc_oracle():
    worst = 0.0
    invariant = True
    for trial in range(50):
        rng = rng_from(split_seed(2000, trial))
        n = int(rng.integers(20, 200))
        if trial % 2 == 0:
            scores = rng.choice(np.linspace(-1, 1, 9), size=n)
        else:
            scores = rng.normal(size=n)
        labels = rng.choice([-1.0, 1.0], size=n)
        if np.all(labels == labels[0]):
            labels[0] = -labels[0]
        ours = auc(scores, labels)
        worst = max(worst, abs(ours - auc_pairwise(scores, labels)))
        for transformed in (2.0 * scores + 3.0, scores**3):
            invariant = invariant and abs(auc(transformed, labels) - ours) <= 1e-12
    ok = worst <= 1e-12 and invariant
    _report(
        11,
        ok,
        f"rank-based AUC within {worst:.2e} of the pairwise oracle on 50 "
        f"instances and invariant under monotone transforms",
    )


def test_criterion_12_determinism(tmp_path):
    rng = rng_from(split_seed(2100, 0))
    X = rng.normal(size=(120, 4))
    y = np.where(X[:, 0] - 0.5 * X[:, 1] + 0.3 * rng.normal(size=120) >= 0, 1.0, -1.0)
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    save_dataset(train, Dataset(X[:80], y[:80]))
    save_dataset(test, Dataset(X[80:], y[80:]))
    out = tmp_path / "out"
    config = RunConfig(
        seed=5,
        target=8,
        rounds=16,
        train_path=str(train),
        test_path=str(test),
        out_path=str(out),
    )
    run_compare(config)
    mask = lambda text: re.sub(r'"timing_seconds": [0-9.e+-]+', "", text)
    first_report = mask((out / "report.json").read_text())
    first_curves = {
        name: (out / f"curve_{name}.csv").read_bytes()
        for name in ("full", "truncated", "sparsified", "sampled")
    }
    run_compare(config)
    second_report = mask((out / "report.json").read_text())
    same_curves = all(
        (out / f"curve_{name}.csv").read_bytes() == blob
        for name, blob in first_curves.items()
    )
    ok = first_report == second_report and same_curves
    _report(
        12,
        ok,
        "two compare runs with one config produced byte-identical reports "
        "(timing masked) and identical curve files",
    )
