"""On-disk formats: dataset CSV, margin-matrix text, ensemble JSON, reports.

Inputs are parsed in one pass of numpy's C reader (np.loadtxt). Where that
pass cannot take a file whole (a malformed or ragged row, a bad label, a
quoted cell, a whitespace-only line, an entry out of range, a non-finite
entry, weight or feature), the file is parsed again row by row. The row
parser gives the same arrays wherever both succeed; it is kept for the
error message naming the offending line, so no file it rejects is
accepted. A dataset line longer than the csv module's field size limit
(csv.field_size_limit(), 131072 characters by default) also goes to the
row parser, which rejects a longer cell with a FileFormatError naming its
line.

The entries of a margin matrix skip np.loadtxt when all of them are short
decimals: an optional "-", at most nine digits and at most one "." (1.0,
-1, 0.25, .5), separated by spaces and newlines. numpy's array operations
read such an entry's digits as one integer and divide it by a power of ten,
which gives the correctly rounded double, the one np.loadtxt returns (see
``_short_decimals``). Any other entry sends the whole file through
np.loadtxt. A +-1 matrix takes the short path whoever wrote it; a file no
reader takes whole still goes to the row parser.

Floats are written with repr(), which round-trips doubles bit-exactly, so
save/load pairs reproduce arrays byte-for-byte. Writers build each file with
one join per row, and the report and curve writers format each float column
once (see ``FloatText``).
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .boosting import Dataset, DecisionStump, Ensemble
from .margins import ENTRY_TOL, L1_TOL, MarginMatrix, WeightVector


class FileFormatError(ValueError):
    """Malformed input file; the message starts with the file's path and
    names the offending line where there is one."""


@contextlib.contextmanager
def open_text(path, newline=None):
    """``open(path, newline=newline)`` for reading, with a byte that the text
    encoding cannot decode raised as a FileFormatError naming the file."""
    with open(path, newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: {exc}") from None


def load_dataset(path) -> Dataset:
    """Parse a label-first CSV: first column -1/+1 (0/1 accepted, 0 mapped
    to -1), remaining columns real features. An optional header row is
    detected by a non-numeric first cell."""
    try:
        with open(path, newline="") as handle:
            table = _read_dataset_table(handle)
    except ValueError:  # undecodable text or a row the C pass rejects
        table = None
    if table is None:
        return _load_dataset_rows(path)
    labels = table[:, 0]
    return Dataset(table[:, 1:], np.where(labels == 0.0, -1.0, labels))


def _read_dataset_table(handle) -> np.ndarray | None:
    """The label-first table of a dataset file in one C pass, or None where
    the row parser must decide.

    The handle splits lines as the csv module does. A line longer than
    the csv field size limit may hold a cell the csv module rejects, so
    that goes to the row parser. The header test reads the first cell of
    the first nonblank line; a quote or NUL there could make the csv module
    split it otherwise, so that goes to the row parser too. In the lines
    after it, a quote, NUL, blank cell, bad label, ragged row,
    whitespace-only line or non-finite feature makes the C pass fail or
    return None.
    """
    lines = handle.readlines()
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    rest = iter(lines)
    first = _next_nonblank(rest)
    if first is None or '"' in first or "\x00" in first:
        return None
    try:
        float(first.split(",", 1)[0])
    except ValueError:  # header row
        first = _next_nonblank(rest)
        if first is None:
            return None  # np.loadtxt would warn on no data
    table = np.loadtxt(chain([first], rest), delimiter=",", comments=None, ndmin=2)
    labels = table[:, 0]
    if table.shape[1] < 2 or not np.all(
        (labels == 1.0) | (labels == -1.0) | (labels == 0.0)
    ):
        return None
    if not np.isfinite(table).all():
        return None
    return table


def _load_dataset_rows(path) -> Dataset:
    """The row-by-row dataset parser: same arrays, and the error names the
    first bad line."""
    labels: list[float] = []
    rows: list[list[float]] = []
    width = None
    with open_text(path, newline="") as handle:
        for line_no, row in enumerate(_csv_rows(handle, path), start=1):
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
                features = [float(cell) for cell in row[1:]]
            except ValueError:
                raise FileFormatError(
                    f"{path}: line {line_no}: non-numeric feature value"
                ) from None
            if not all(map(math.isfinite, features)):
                raise FileFormatError(f"{path}: line {line_no}: non-finite feature value")
            rows.append(features)
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels))


def _csv_rows(handle, path):
    """csv.reader's rows, its errors (a cell beyond the field size limit,
    for one) raised as FileFormatError naming the line."""
    reader = csv.reader(handle)
    try:
        yield from reader
    except csv.Error as exc:
        raise FileFormatError(f"{path}: line {reader.line_num}: {exc}") from None


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
    labels = map(str, map(int, dataset.labels.tolist()))
    text = "".join(
        f"{label},{','.join(row)}\n"
        for label, row in zip(labels, _repr_text(dataset.features))
    )
    with open(path, "w", newline="") as handle:
        handle.write(text)


def load_margin_matrix(path) -> tuple[MarginMatrix, WeightVector]:
    """Parse the margin-matrix text format.

    Line 1: "n m". Line 2: m weights, renormalized to unit l1 norm on load
    unless already within tolerance (so round-trips are bit-exact). Then n
    rows of m entries, each within ENTRY_TOL of [-1, 1].
    """
    try:
        with open(path) as handle:
            return _read_margin_matrix(handle)
    except ValueError:  # any fault: the row parser names it
        return _load_margin_matrix_rows(path)


def _read_margin_matrix(handle) -> tuple[MarginMatrix, WeightVector]:
    """The matrix rows in one C pass over the open file.

    Raises ValueError, with no message worth showing, wherever the row
    parser might not return the same arrays. The C pass skips exactly the
    whitespace-only lines the row parser drops, so n rows of m entries mean
    n + 2 nonblank lines.
    """
    header, weight_line, first_row = [_next_nonblank(handle) for _ in range(3)]
    if first_row is None:
        raise ValueError("too few lines")  # np.loadtxt would warn on no data
    n, m = map(int, header.split())
    weights = _parse_row(weight_line.split(), m, handle.name, line_no=2)
    rows = first_row + handle.read()
    entries = _short_decimals(rows, m)
    if entries is None:
        entries = np.loadtxt(io.StringIO(rows), dtype=np.float64, comments=None, ndmin=2)
    if n < 1 or entries.shape != (n, m):
        raise ValueError("shape")
    return MarginMatrix(entries), WeightVector(_normalized_weights(weights))


# A short decimal is an optional "-", then at most _SHORT_DIGITS digits with
# at most one "." among them: 1.0, -1, 0.25, .5, 7. Its digits read as one
# integer and the power of ten that scales them are exact doubles, so one
# IEEE division gives the correctly rounded double, the one np.loadtxt
# returns for the same text.
_SHORT_DIGITS = 9
# Divisor 2k + negative: 10**k, negated for an entry with a "-" (-0 too).
_DIVISORS = np.outer(10.0 ** np.arange(_SHORT_DIGITS + 1), [1.0, -1.0]).ravel()
# Lines are parsed in blocks of about this many bytes, so that the block's
# temporaries stay in cache.
_BLOCK_BYTES = 1 << 18


def _short_decimals(text: str, m: int) -> np.ndarray | None:
    """The rows of m entries in ``text``, or None unless every entry is a
    short decimal, spaces and newlines alone separate them and every line
    holds m entries or none (np.loadtxt skips a whitespace-only line)."""
    if m < 1 or not text.isascii():
        return None
    data = text.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"  # every block ends with a newline
    blocks = []
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        block = _short_decimal_block(np.frombuffer(data, np.uint8, end - start, start), m)
        if block is None:
            return None
        blocks.append(block)
        start = end
    return np.concatenate(blocks).reshape(-1, m)


def _short_decimal_block(text: np.ndarray, m: int) -> np.ndarray | None:
    """The entries of lines of ASCII bytes ending in a newline, flat, as
    _short_decimals."""
    newline = text == ord("\n")
    blank = newline | (text == ord(" "))
    first = ~blank
    first[1:] &= blank[:-1]
    starts = np.flatnonzero(first)
    per_line = np.diff(np.searchsorted(starts, np.flatnonzero(newline)), prepend=0)
    if np.any((per_line != 0) & (per_line != m)):
        return None
    # Column j holds byte j of every entry. Each byte that is not a space or
    # a newline lies in some entry and is checked in its column.
    negative = text.take(starts) == ord("-")
    inside = np.ones(starts.size, dtype=bool)
    mantissa = np.zeros(starts.size, dtype=np.uint32)
    digits = np.zeros(starts.size, dtype=np.uint8)
    scale = np.zeros(starts.size, dtype=np.uint8)
    dots = np.zeros(starts.size, dtype=np.uint8)
    for j in range(_SHORT_DIGITS + 3):
        chars = text[j:].take(starts, mode="clip")
        inside &= (chars != ord(" ")) & (chars != ord("\n"))
        if not inside.any():
            break
        digit = chars - np.uint8(ord("0"))
        is_digit = (digit < 10) & inside
        is_dot = (chars == ord(".")) & inside
        allowed = is_digit | is_dot
        if j == 0:
            allowed |= negative
        if (allowed ^ inside).any():
            return None
        # Booleans as bytes 0 and 1: arithmetic on one dtype is faster.
        ones = is_digit.view(np.uint8)
        digit *= ones
        # Beyond _SHORT_DIGITS digits the product wraps; such an entry is
        # refused below.
        mantissa *= ones * np.uint8(9) + np.uint8(1)
        mantissa += digit
        digits += ones
        scale += ones & (dots > 0).view(np.uint8)
        dots += is_dot.view(np.uint8)
    if inside.any() or not np.all((digits >= 1) & (digits <= _SHORT_DIGITS) & (dots <= 1)):
        return None
    scale *= np.uint8(2)
    scale += negative
    return mantissa / _DIVISORS.take(scale)


def _next_nonblank(handle) -> str | None:
    for line in handle:
        if line.strip():
            return line
    return None


def _normalized_weights(weights: np.ndarray) -> np.ndarray:
    total = float(np.sum(np.abs(weights)))
    if not math.isfinite(total):
        raise ValueError("weights are not finite or their l1 norm overflows")
    if total == 0.0:
        raise ValueError("weights are all zero")
    if abs(total - 1.0) > L1_TOL:
        return weights / total
    return weights


def _load_margin_matrix_rows(path) -> tuple[MarginMatrix, WeightVector]:
    """The row-by-row matrix parser: same arrays, and the error names the
    first bad line."""
    with open_text(path) as handle:
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
    try:
        weights = _normalized_weights(weights)
    except ValueError as exc:
        raise FileFormatError(f"{path}: line 2: {exc}") from None
    rows = []
    for i, line in enumerate(lines[2:]):
        try:
            rows.append(_parse_row(line.split(), m, path, line_no=3 + i))
        except FileFormatError:
            # An earlier row out of range is reported first.
            _check_entry_range(np.array(rows).reshape(-1, m), path)
            raise
    entries = np.array(rows)
    _check_entry_range(entries, path)
    return MarginMatrix(entries), WeightVector(weights)


def _check_entry_range(entries: np.ndarray, path) -> None:
    """Reject the first matrix row (file line 3 onward) with an entry beyond
    [-1, 1] + ENTRY_TOL or a NaN entry."""
    peaks = np.max(np.abs(entries), axis=1)
    out_of_range = np.flatnonzero(~(peaks <= 1.0 + ENTRY_TOL))
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
    rows = chain([_repr_text(w.values)], _repr_text(U.values))
    text = "".join(" ".join(row) + "\n" for row in rows)
    with open(path, "w") as handle:
        handle.write(f"{U.n_points} {U.n_hypotheses}\n" + text)


def _repr_text(array: np.ndarray) -> list:
    """repr(float(x)) of every entry, nested as array.tolist() nests, with
    each distinct value (by its bits) formatted once."""
    distinct, inverse = np.unique(array.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return text[inverse.reshape(array.shape)].tolist()


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
    with open_text(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON: {exc}") from None
    try:
        weights = WeightVector(np.array(payload["weights"], dtype=np.float64))
        stumps = tuple(
            DecisionStump(
                feature=_json_int(item, "feature"),
                threshold=float(item["threshold"]),
                polarity=_json_int(item, "polarity"),
            )
            for item in payload["stumps"]
        )
        ensemble = Ensemble(stumps, weights)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: missing or malformed field: {exc}") from None
    if not np.any(weights.values):
        raise FileFormatError(f"{path}: weights are all zero")
    return ensemble


def _json_int(item: dict, key: str) -> int:
    """The stump field ``key``, which save_ensemble writes as a JSON
    integer: a float, a bool or a string is rejected, not converted."""
    value = item[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be a JSON integer, got {json.dumps(value)}")
    return value


# A formatted column: the text of every value, and whether all are finite.
_Column = tuple[list[str], bool]


class FloatText:
    """repr() text of float columns, each distinct column formatted once.

    Pass one instance to the report writer and to every curve writer of a
    run: each method's margins are then formatted once for both files, and
    the fraction column, which every curve of n points shares, once in all.
    Columns are matched by the exact bits of their values.
    """

    def __init__(self):
        self._columns: dict[bytes, _Column] = {}

    def column(self, values) -> _Column:
        """(text, all finite) of a sequence of numbers, with text[k] =
        repr(float(values[k]))."""
        array = np.fromiter(values, dtype=np.float64)
        key = array.tobytes()
        column = self._columns.get(key)
        if column is None:
            column = (_repr_text(array), bool(np.isfinite(array).all()))
            self._columns[key] = column
        return column

    def curve(self, curve) -> tuple[_Column, _Column]:
        """The margin and fraction columns of (margin, fraction) pairs."""
        margin_values, fractions = list(zip(*curve)) or [(), ()]
        return self.column(margin_values), self.column(fractions)


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(column: _Column) -> list[str]:
    """json.dumps(value) of every value: repr, but NaN and the infinities
    spelled NaN, Infinity and -Infinity."""
    text, finite = column
    return text if finite else [_JSON_NON_FINITE.get(item, item) for item in text]


def write_json_report(path, payload: dict, text: FloatText | None = None) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline.

    The curve of each record in ``payload["methods"]`` is rendered as text
    here from its formatted columns: json's indenting encoder is pure Python
    and would otherwise walk every point. Each curve stands in the dump as a
    placeholder string that is spliced out together with its ``"curve": ``
    key, so the match is structural (quotes inside other strings are
    escaped). ``text`` shares the formatted columns with the curve writers
    of the same run.
    """
    text = FloatText() if text is None else text
    stubbed = dict(payload)
    curves = []
    if "methods" in payload:
        stubbed["methods"] = []
        for record in payload["methods"]:
            if "curve" in record:
                curves.append(record["curve"])
                record = {**record, "curve": f"\x00curve{len(curves) - 1}"}
            stubbed["methods"].append(record)
    key = '"curve": '
    pieces = []
    tail = json.dumps(stubbed, indent=2, sort_keys=True)
    for index, curve in enumerate(curves):
        head, _, tail = tail.partition(key + json.dumps(f"\x00curve{index}"))
        indent = len(head) - head.rfind("\n") - 1
        margins, fractions = text.curve(curve)
        pieces += [head, key, _curve_json(_json_text(margins), _json_text(fractions), indent)]
    with open(path, "w") as handle:
        handle.write("".join(pieces) + tail + "\n")


def _curve_json(margin_text: list[str], fraction_text: list[str], indent: int) -> str:
    """A list of [margin, fraction] pairs as json.dumps(indent=2) renders it
    with its key indented by ``indent`` spaces."""
    if not margin_text:
        return "[]"
    outer = "\n" + " " * (indent + 2)
    inner = "\n" + " " * (indent + 4)
    between_points = f"{outer}],{outer}[{inner}"
    points = between_points.join(map(("," + inner).join, zip(margin_text, fraction_text)))
    return f"[{outer}[{inner}{points}{outer}]\n{' ' * indent}]"


def write_curve_csv(path, curve, text: FloatText | None = None) -> None:
    """Write (margin, fraction) pairs as ``margin,cumulative_fraction`` rows
    of repr() text; ``text`` as for write_json_report."""
    text = FloatText() if text is None else text
    (margins, _), (fractions, _) = text.curve(curve)
    rows = map(",".join, zip(margins, fractions))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(chain(["margin,cumulative_fraction"], rows, [""])))


def ensure_parent(path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
