"""Span tracer that wraps sparsevote's public functions at module boundaries.

Wrappers are installed from outside the library: each target is looked up
through ``sys.modules["sparsevote.<module>"]`` (the package re-exports
``sparsify`` and ``discrepancy`` as functions, shadowing the modules), and
every sparsevote namespace holding the same function object, including
names bound by ``from ... import``, is rebound to the wrapper. A missing
target, or a target that should fire on a workload and never does, raises
TracerError so a renamed function cannot silently report zeros.

Spans (name, parent, request, start, end, error) stay in memory. Inputs
that per-layer counts need are kept on the span and reduced after each
compare, outside every timed interval.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

TARGETS = {
    "cli": ("main",),
    "fileio": ("load_dataset", "load_margin_matrix", "write_json_report", "write_curve_csv"),
    "boosting": ("adaboost_v", "train_stump"),
    "margins": (
        "build_margin_matrix",
        "cumulative_margin_curve",
        "margins",
        "min_margin",
        "sup_norm_diff",
    ),
    "sparsify": ("sparsify", "halve", "importance_sample", "truncate_top"),
    "discrepancy": ("full_coloring", "partial_coloring", "bruteforce_min_discrepancy"),
    "evaluation": ("predict_scores", "accuracy", "bias_correct", "auc"),
}
LAYERS = tuple(TARGETS)

# Spans whose arguments or results feed a per-layer count.
KEEP = {
    "fileio.load_dataset",
    "fileio.load_margin_matrix",
    "margins.build_margin_matrix",
    "discrepancy.full_coloring",
}

EXPECTED_ALWAYS = (
    "cli.main",
    "fileio.write_json_report",
    "fileio.write_curve_csv",
    "margins.cumulative_margin_curve",
    "margins.sup_norm_diff",
    "sparsify.sparsify",
    "sparsify.halve",
    "sparsify.importance_sample",
    "discrepancy.full_coloring",
    "discrepancy.partial_coloring",
)
EXPECTED = {
    "dataset": EXPECTED_ALWAYS + (
        "fileio.load_dataset",
        "boosting.adaboost_v",
        "boosting.train_stump",
        "margins.build_margin_matrix",
        "evaluation.predict_scores",
        "evaluation.accuracy",
        "evaluation.bias_correct",
        "evaluation.auc",
    ),
    "matrix": EXPECTED_ALWAYS + (
        "fileio.load_margin_matrix",
        "sparsify.truncate_top",
        "margins.min_margin",
        "margins.margins",
    ),
}

# Inclusive time of the named functions, per metric.
FUNCTION_TIMES = {
    "fileio.load_dataset_s": ("fileio.load_dataset",),
    "fileio.load_margin_matrix_s": ("fileio.load_margin_matrix",),
    "fileio.write_s": ("fileio.write_json_report", "fileio.write_curve_csv"),
    "boosting.adaboost_v_s": ("boosting.adaboost_v",),
    "boosting.train_stump_s": ("boosting.train_stump",),
    "margins.build_margin_matrix_s": ("margins.build_margin_matrix",),
    "margins.curve_s": ("margins.cumulative_margin_curve",),
    "sparsify.sparsify_s": ("sparsify.sparsify",),
    "sparsify.importance_sample_s": ("sparsify.importance_sample",),
    "sparsify.truncate_top_s": ("sparsify.truncate_top",),
    "discrepancy.full_coloring_s": ("discrepancy.full_coloring",),
    "evaluation.predict_scores_s": ("evaluation.predict_scores",),
    "evaluation.bias_correct_s": ("evaluation.bias_correct",),
    "evaluation.auc_s": ("evaluation.auc",),
}

CALL_COUNTS = {
    "boosting.train_stump_calls": ("boosting.train_stump", None),
    "sparsify.halve_calls": ("sparsify.halve", None),
    "sparsify.halve_retries": ("sparsify.halve", "DiscrepancyBoundError"),
    "discrepancy.full_coloring_calls": ("discrepancy.full_coloring", None),
    "discrepancy.full_coloring_failed": ("discrepancy.full_coloring", "DiscrepancyBoundError"),
    "discrepancy.partial_coloring_calls": ("discrepancy.partial_coloring", None),
    "discrepancy.phase_failures": ("discrepancy.partial_coloring", "PhaseFailureError"),
    "discrepancy.bruteforce_calls": ("discrepancy.bruteforce_min_discrepancy", None),
}

NAME, PARENT, REQUEST, START, END, ERROR, KEPT = range(7)


class TracerError(RuntimeError):
    """A wrapped name is missing or an expected wrapper never fired."""


def _distinct_column_ratio(values: np.ndarray) -> float:
    columns = np.ascontiguousarray(values.T)
    return len({column.tobytes() for column in columns}) / columns.shape[0]


class Tracer:
    """Installs wrappers, records spans, and reduces them to per-layer metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._reduced_upto = 0
        self._counts: dict[str, float] = defaultdict(float)
        self._ratio_max = 0.0
        self._distinct: list[float] = []
        self._fallbacks = 0
        self._originals: dict[str, object] = {}
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"sparsevote.{layer}")
            if module is None or not inspect.ismodule(module):
                raise TracerError(f"module sparsevote.{layer} is not loaded")
            for attr in names:
                original = getattr(module, attr, None)
                if not callable(original):
                    raise TracerError(f"sparsevote.{layer}.{attr} is missing")
                self._originals[f"{layer}.{attr}"] = original
        coloring = sys.modules["sparsevote.discrepancy"]
        self._spencer_bound = getattr(coloring, "spencer_bound", None)
        self._default_config = getattr(coloring, "DEFAULT_CONFIG", None)
        if self._spencer_bound is None or self._default_config is None:
            raise TracerError("sparsevote.discrepancy lacks spencer_bound or DEFAULT_CONFIG")
        self._full_coloring_signature = inspect.signature(
            self._originals["discrepancy.full_coloring"]
        )

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        keep = name in KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.request, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                result = exc
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                if keep:
                    span[KEPT] = (args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every sparsevote name bound to a target to its wrapper."""
        namespaces = [
            module
            for key, module in sys.modules.items()
            if key == "sparsevote" or key.startswith("sparsevote.")
        ]
        for name, original in self._originals.items():
            wrapper = self._wrap(name, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        self._restore.append((namespace, key, original))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore.clear()

    def _bind_coloring(self, args, kwargs):
        bound_args = self._full_coloring_signature.bind(*args, **kwargs)
        A = np.asarray(bound_args.arguments["A"], dtype=np.float64)
        return A, bound_args.arguments.get("config", self._default_config)

    def end_request(self, report: dict | None) -> None:
        """Reduce the kept inputs of the finished compare and drop them."""
        for span in self.spans[self._reduced_upto :]:
            kept = span[KEPT]
            if kept is None:
                continue
            span[KEPT] = None
            args, kwargs, result = kept
            name = span[NAME]
            failed = isinstance(result, BaseException)
            if name in ("fileio.load_dataset", "fileio.load_margin_matrix"):
                path = args[0] if args else next(iter(kwargs.values()))
                self._counts["fileio.bytes_read"] += os.path.getsize(path)
            if name == "discrepancy.full_coloring":
                # A failed coloring did its work too; DiscrepancyBoundError
                # carries its best attempt and the bound.
                A, config = self._bind_coloring(args, kwargs)
                n_rows, k = A.shape
                self._counts["discrepancy.coloring_cells"] += n_rows * k
                if failed:
                    ratio = getattr(result, "achieved", 0.0) / getattr(result, "bound", 1.0)
                else:
                    achieved = float(np.max(np.abs(A @ result)))
                    ratio = achieved / self._spencer_bound(n_rows, k, config.spencer_constant)
                self._ratio_max = max(self._ratio_max, ratio)
            elif failed:
                continue
            elif name == "fileio.load_margin_matrix":
                self._distinct.append(_distinct_column_ratio(result[0].values))
            elif name == "margins.build_margin_matrix":
                self._distinct.append(_distinct_column_ratio(result.values))
        self._reduced_upto = len(self.spans)
        if report is not None:
            for record in report.get("methods", []):
                if record.get("method") == "sparsified":
                    self._fallbacks += bool(record["sparsify"]["truncated_fallback"])

    def check_fired(self, mode: str) -> None:
        fired = {span[NAME] for span in self.spans}
        missing = [name for name in EXPECTED[mode] if name not in fired]
        if missing:
            raise TracerError(f"wrappers never fired on a {mode} workload: {', '.join(missing)}")

    def per_layer(self) -> tuple[dict[str, float], int]:
        """Per-compare means of every per-layer metric, and the compare count.

        ``trace.self_sum_s`` is the median over compares of the sum of all
        self times in one compare."""
        spans = self.spans
        requests = {span[REQUEST] for span in spans if span[NAME] == "cli.main"}
        count = max(len(requests), 1)
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        self_time: dict[str, float] = defaultdict(float)
        request_self_time: dict[int, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[tuple[str, str | None], int] = defaultdict(int)
        for span, children in zip(spans, child_time):
            duration = span[END] - span[START]
            self_time[span[NAME].split(".", 1)[0]] += duration - children
            request_self_time[span[REQUEST]] += duration - children
            # Nested calls of one function count once, at the outermost.
            parent = span[PARENT]
            if parent < 0 or spans[parent][NAME] != span[NAME]:
                inclusive[span[NAME]] += duration
            calls[(span[NAME], None)] += 1
            if span[ERROR] is not None:
                calls[(span[NAME], span[ERROR])] += 1

        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_time[layer] / count
        for metric, names in FUNCTION_TIMES.items():
            metrics[metric] = sum(inclusive[name] for name in names) / count
        for metric, key in CALL_COUNTS.items():
            metrics[metric] = calls[key] / count
        metrics["fileio.bytes_read"] = self._counts["fileio.bytes_read"] / count
        metrics["discrepancy.coloring_cells"] = self._counts["discrepancy.coloring_cells"] / count
        metrics["discrepancy.bound_ratio.max"] = self._ratio_max
        metrics["margins.distinct_column_ratio"] = (
            float(np.mean(self._distinct)) if self._distinct else 0.0
        )
        metrics["sparsify.fallback_ratio"] = self._fallbacks / count
        metrics["trace.self_sum_s"] = (
            statistics.median(request_self_time.values()) if request_self_time else 0.0
        )
        metrics["trace.spans"] = len(spans) / count
        return metrics, len(requests)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span[:KEPT]) + "\n")
