"""The names other code reaches the package by: the package's __all__, and
the functions bench/tracer.py wraps. A rename or deletion that leaves one
of them stale fails here, not only in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

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
