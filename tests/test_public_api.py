"""The names other code reaches the package by: the package's __all__, and
the functions bench/tracer.py wraps. A rename or deletion that leaves one
of them stale fails here, not only in a benchmark run. Also the seeds:
only the importance sampler takes one, and the deterministic colorings,
halvings and sparsiboost refuse one."""
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsevote
import sparsevote.cli  # noqa: F401  (the tracer wraps cli.main)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("sparsevote_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    assert [name for name in sparsevote.__all__ if not hasattr(sparsevote, name)] == []


def test_every_traced_name_is_callable():
    # The tracer looks each layer up in sys.modules, since the package
    # re-exports the functions sparsify and discrepancy under the modules'
    # names.
    missing = [
        f"{layer}.{name}"
        for layer, names in _load_tracer().TARGETS.items()
        for name in names
        if not callable(getattr(sys.modules[f"sparsevote.{layer}"], name, None))
    ]
    assert missing == []
    coloring = sys.modules["sparsevote.discrepancy"]
    assert callable(coloring.spencer_bound)
    assert coloring.DEFAULT_CONFIG is not None


DETERMINISTIC = (
    "partial_coloring",
    "full_coloring",
    "halve_columns",
    "halve",
    "sparsify",
    "sparsiboost",
)


def test_only_the_importance_sampler_takes_a_seed():
    takes_seed = [
        name for name in DETERMINISTIC
        if "seed" in inspect.signature(getattr(sparsevote, name)).parameters
    ]
    assert takes_seed == []
    assert "seed" in inspect.signature(sparsevote.importance_sample).parameters


def _seedless_calls():
    """Each deterministic function with its required arguments."""
    A = np.ones((3, 6))
    U = sparsevote.MarginMatrix(A)
    w = sparsevote.WeightVector.uniform(6)
    data = sparsevote.Dataset(np.arange(8.0)[:, None], np.array([1.0, -1.0] * 4))
    return {
        "partial_coloring": (A,),
        "full_coloring": (A,),
        "halve_columns": (A,),
        "halve": (U, w),
        "sparsify": (U, w, 4),
        "sparsiboost": (data, 4),
    }


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_a_seed_is_refused(name):
    # An old positional seed would otherwise bind to the next parameter.
    fn = getattr(sparsevote, name)
    args = _seedless_calls()[name]
    with pytest.raises(TypeError):
        fn(*args, 0)
    with pytest.raises(TypeError):
        fn(*args, seed=0)
