"""On-disk formats: dataset CSV, margin-matrix text, ensemble JSON, reports.

Floats are written with repr(), which round-trips doubles bit-exactly, so
save/load pairs reproduce arrays byte-for-byte.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .boosting import Dataset, DecisionStump, Ensemble
from .margins import L1_TOL, MarginMatrix, WeightVector


class FileFormatError(ValueError):
    """Malformed input file; the message names the offending line."""


def load_dataset(path) -> Dataset:
    """Parse a label-first CSV: first column -1/+1 (0/1 accepted, 0 mapped
    to -1), remaining columns real features. An optional header row is
    detected by a non-numeric first cell."""
    labels: list[float] = []
    rows: list[list[float]] = []
    width = None
    with open(path, newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if width is None:
                try:
                    float(row[0])
                except ValueError:
                    continue  # header row
            if len(row) < 2:
                raise FileFormatError(
                    f"{path}: line {line_no}: need a label and at least one feature"
                )
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise FileFormatError(
                    f"{path}: line {line_no}: expected {width} fields, got {len(row)}"
                )
            labels.append(_parse_label(row[0], path, line_no))
            try:
                rows.append([float(cell) for cell in row[1:]])
            except ValueError:
                raise FileFormatError(
                    f"{path}: line {line_no}: non-numeric feature value"
                ) from None
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels))


def _parse_label(cell: str, path, line_no: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise FileFormatError(
            f"{path}: line {line_no}: label {cell!r} is not numeric"
        ) from None
    if value in (1.0, -1.0):
        return value
    if value == 0.0:
        return -1.0
    raise FileFormatError(
        f"{path}: line {line_no}: label must be -1, 0, or +1, got {cell!r}"
    )


def save_dataset(path, dataset: Dataset) -> None:
    with open(path, "w", newline="") as handle:
        for label, row in zip(dataset.labels, dataset.features):
            cells = [str(int(label))] + [repr(float(v)) for v in row]
            handle.write(",".join(cells) + "\n")


def load_margin_matrix(path) -> tuple[MarginMatrix, WeightVector]:
    """Parse the margin-matrix text format.

    Line 1: "n m". Line 2: m weights, renormalized to unit l1 norm on load
    unless already within tolerance (so round-trips are bit-exact). Then n
    rows of m entries, each within [-1, 1] up to 1e-9.
    """
    with open(path) as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise FileFormatError(f"{path}: line 1: expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise FileFormatError(f"{path}: line 1: expected two integers") from None
    if n < 1 or m < 1:
        raise FileFormatError(f"{path}: line 1: dimensions must be positive")
    if len(lines) != n + 2:
        raise FileFormatError(
            f"{path}: expected {n + 2} nonempty lines for a {n} x {m} matrix, "
            f"got {len(lines)}"
        )
    weights = _parse_row(lines[1].split(), m, path, line_no=2)
    total = float(np.sum(np.abs(weights)))
    if total == 0.0:
        raise FileFormatError(f"{path}: line 2: weights are all zero")
    if abs(total - 1.0) > L1_TOL:
        weights = weights / total
    try:
        entries = np.loadtxt(lines[2:], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        entries = None
    if entries is None or entries.shape != (n, m):
        # Some row is not m plain numbers: parse row by row, so the error
        # names the first bad line unless an earlier row is out of range.
        rows = []
        for i, line in enumerate(lines[2:]):
            try:
                rows.append(_parse_row(line.split(), m, path, line_no=3 + i))
            except FileFormatError:
                _check_entry_range(np.array(rows).reshape(-1, m), path)
                raise
        entries = np.array(rows)
    _check_entry_range(entries, path)
    return MarginMatrix(entries), WeightVector(weights)


def _check_entry_range(entries: np.ndarray, path) -> None:
    """Reject the first matrix row (file line 3 onward) with an entry beyond
    [-1, 1] + 1e-9; a NaN entry passes, as MarginMatrix rejects it."""
    out_of_range = np.flatnonzero(np.max(np.abs(entries), axis=1) > 1.0 + 1e-9)
    if out_of_range.size:
        raise FileFormatError(
            f"{path}: line {3 + out_of_range[0]}: matrix entry out of [-1, 1]"
        )


def _parse_row(cells: list[str], m: int, path, line_no: int) -> np.ndarray:
    if len(cells) != m:
        raise FileFormatError(
            f"{path}: line {line_no}: expected {m} values, got {len(cells)}"
        )
    try:
        return np.array([float(cell) for cell in cells])
    except ValueError:
        raise FileFormatError(
            f"{path}: line {line_no}: non-numeric value"
        ) from None


def save_margin_matrix(path, U: MarginMatrix, w: WeightVector) -> None:
    with open(path, "w") as handle:
        handle.write(f"{U.n_points} {U.n_hypotheses}\n")
        handle.write(" ".join(repr(float(v)) for v in w.values) + "\n")
        for row in U.values:
            handle.write(" ".join(repr(float(v)) for v in row) + "\n")


def save_ensemble(path, ensemble: Ensemble) -> None:
    payload = {
        "weights": [float(v) for v in ensemble.weights.values],
        "stumps": [
            {
                "feature": stump.feature,
                "threshold": stump.threshold,
                "polarity": stump.polarity,
            }
            for stump in ensemble.hypotheses
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def load_ensemble(path) -> Ensemble:
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON: {exc}") from None
    try:
        weights = WeightVector(np.array(payload["weights"], dtype=np.float64))
        stumps = tuple(
            DecisionStump(
                feature=int(item["feature"]),
                threshold=float(item["threshold"]),
                polarity=int(item["polarity"]),
            )
            for item in payload["stumps"]
        )
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: missing or malformed field: {exc}") from None
    return Ensemble(stumps, weights)


def write_json_report(path, payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline.

    The curve of each record in ``payload["methods"]`` is rendered as text
    here: json's indenting encoder is pure Python and would otherwise walk
    every point. Each curve stands in the dump as a placeholder string that
    is spliced out together with its ``"curve": `` key, so the match is
    structural (quotes inside other strings are escaped).
    """
    stubbed = dict(payload)
    curves = []
    if "methods" in payload:
        stubbed["methods"] = []
        for record in payload["methods"]:
            if "curve" in record:
                curves.append(record["curve"])
                record = {**record, "curve": f"\x00curve{len(curves) - 1}"}
            stubbed["methods"].append(record)
    text = json.dumps(stubbed, indent=2, sort_keys=True)
    for index, curve in enumerate(curves):
        head, _, tail = text.partition('"curve": ' + json.dumps(f"\x00curve{index}"))
        line = head[head.rfind("\n") + 1 :]
        text = head + '"curve": ' + _curve_json(curve, len(line)) + tail
    with open(path, "w") as handle:
        handle.write(text)
        handle.write("\n")


def _curve_json(curve, indent: int) -> str:
    """A list of (margin, fraction) pairs as json.dumps(indent=2) renders it
    with its key indented by ``indent`` spaces."""
    if not curve:
        return "[]"
    outer = "\n" + " " * (indent + 2)
    inner = "\n" + " " * (indent + 4)
    points = [
        f"[{inner}{_json_float(margin_value)},{inner}{_json_float(fraction)}{outer}]"
        for margin_value, fraction in curve
    ]
    return "[" + outer + ("," + outer).join(points) + "\n" + " " * indent + "]"


def _json_float(value) -> str:
    value = float(value)
    return repr(value) if math.isfinite(value) else json.dumps(value)


def write_curve_csv(path, curve) -> None:
    rows = "".join(
        f"{repr(float(margin_value))},{repr(float(fraction))}\n"
        for margin_value, fraction in curve
    )
    with open(path, "w", newline="") as handle:
        handle.write("margin,cumulative_fraction\n" + rows)


def ensure_parent(path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
