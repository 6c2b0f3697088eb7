"""Benchmark workloads: deterministic input generation and instance lists.

Each workload writes a pool of input files from the workload seed and
returns the list of compare instances that one quality pass runs. The same
seed always yields the same files and the same list; the closed loop cycles
through the list, giving each repeated instance a fresh compare seed so no
two compares in a run share their outputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

T_CYCLE = (16, 32, 64, 128)


@dataclass(frozen=True)
class Instance:
    """One compare: the input arguments (without --seed and --out) and T."""

    args: tuple[str, ...]
    target: int


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


@dataclass(frozen=True)
class Boosted:
    """Dataset mode: a fresh train/test pair per instance, criterion-7 logits."""

    n: int = 2000
    d: int = 10
    rounds: int = 128
    target: int = 16
    datasets: int = 40
    why: str = (
        "dataset mode: the only workload that runs boosting, load_dataset "
        "and evaluation; training dominates and colorings are tall"
    )

    def sizes(self) -> dict:
        return {
            "mode": "dataset",
            "train_points": self.n,
            "test_points": self.n,
            "features": self.d,
            "rounds": self.rounds,
            "T": [self.target],
            "distinct_inputs": self.datasets,
        }

    def write_inputs(self, directory: Path, seed: int) -> list[Instance]:
        from sparsevote import Dataset, save_dataset

        instances = []
        for j in range(self.datasets):
            rng = _rng(seed, 1, j)
            X = rng.normal(size=(2 * self.n, self.d))
            logits = (
                X[:, 0]
                + 0.8 * X[:, 1]
                - 0.6 * X[:, 2] * X[:, 3]
                + 0.4 * np.sin(3.0 * X[:, 4])
                + 0.3 * rng.normal(size=2 * self.n)
            )
            y = np.where(logits >= 0, 1.0, -1.0)
            train = directory / f"train_{j}.csv"
            test = directory / f"test_{j}.csv"
            save_dataset(train, Dataset(X[: self.n], y[: self.n]))
            save_dataset(test, Dataset(X[self.n :], y[self.n :]))
            args = (
                "--train", str(train), "--test", str(test),
                "--rounds", str(self.rounds), "-T", str(self.target),
            )
            instances.append(Instance(args, self.target))
        return instances


@dataclass(frozen=True)
class Matrix:
    """Matrix mode on a pool of margin-matrix files, T cycling as in criterion 4.

    Over one pass every file runs once at every T in ``T_CYCLE``.
    """

    kind: str
    n: int
    m: int
    files: int
    why: str

    def sizes(self) -> dict:
        return {
            "mode": "matrix",
            "kind": self.kind,
            "rows": self.n,
            "columns": self.m,
            "T": list(T_CYCLE),
            "distinct_inputs": self.files,
        }

    def _matrix(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "uniform":
            U = rng.choice([-1.0, 1.0], size=(self.n, self.m))
            return U, np.full(self.m, 1.0 / self.m)
        from scipy.linalg import hadamard

        H = hadamard(self.n)[:, : self.m].astype(np.float64)
        signs = rng.choice([-1.0, 1.0], size=self.n)
        U = signs[:, None] * H[:, rng.permutation(self.m)]
        w = rng.exponential(size=self.m)
        return U, w / w.sum()

    def write_inputs(self, directory: Path, seed: int) -> list[Instance]:
        from sparsevote import MarginMatrix, WeightVector, save_margin_matrix

        tag = 2 if self.kind == "uniform" else 3
        paths = []
        for j in range(self.files):
            U, w = self._matrix(_rng(seed, tag, j))
            path = directory / f"matrix_{j}.txt"
            save_margin_matrix(path, MarginMatrix(U), WeightVector(w))
            paths.append(path)
        instances = []
        for block in range(len(T_CYCLE)):
            for j, path in enumerate(paths):
                T = T_CYCLE[(j + block) % len(T_CYCLE)]
                args = ("--matrix", str(path), "--matrix-mode", "-T", str(T))
                instances.append(Instance(args, T))
        return instances


# Each workload loads a different module most: boosted spends its time in
# boosting, uniform in the coloring walk on near-square inputs, hadamard in
# the text loader and on structured, weighted colorings.
WORKLOADS = {
    "boosted": Boosted(),
    "uniform": Matrix(
        kind="uniform",
        n=512,
        m=256,
        files=24,
        why=(
            "matrix mode, no boosting: uniform +-1 matrices put the coloring "
            "walk on near-square inputs with every column distinct"
        ),
    ),
    "hadamard": Matrix(
        kind="hadamard",
        n=1024,
        m=512,
        files=12,
        why=(
            "structured worst case for colorings, with exponential weights "
            "so the protected top third matters and a large file to load"
        ),
    ),
}
