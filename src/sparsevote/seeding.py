"""Deterministic seed derivation.

Every random choice in the package flows from one root seed through explicit
spawn keys, so any component can be rerun in isolation and reproduce.
"""
from __future__ import annotations

import numpy as np


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Wrap ``seed`` in a SeedSequence without consuming spawn state.

    A seed is a plain int, an already-derived SeedSequence, or None for
    fresh OS entropy.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def split_seed(seed, *key: int) -> np.random.SeedSequence:
    """Derive a child seed for the component addressed by ``key``.

    Statelessly extends the spawn key, so the same (seed, key) pair always
    yields the same child regardless of call order.
    """
    base = as_seed_sequence(seed)
    return np.random.SeedSequence(
        entropy=base.entropy,
        spawn_key=tuple(base.spawn_key) + tuple(int(k) for k in key),
    )


def rng_from(seed) -> np.random.Generator:
    """Build a Generator from any accepted seed form."""
    return np.random.default_rng(as_seed_sequence(seed))
