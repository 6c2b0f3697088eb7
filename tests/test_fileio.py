import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsevote import (
    Dataset,
    DecisionStump,
    Ensemble,
    FileFormatError,
    MarginMatrix,
    WeightVector,
    load_dataset,
    load_ensemble,
    load_margin_matrix,
    save_dataset,
    save_ensemble,
    save_margin_matrix,
    write_curve_csv,
    write_json_report,
)
from sparsevote import fileio
from sparsevote.fileio import FloatText, ensure_parent
from sparsevote.seeding import rng_from

from oracles import curve_csv_by_rows, dataset_text_by_cells, matrix_text_by_cells


class TestLoadDataset:
    def test_documented_example(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1,0.5,2.0\n-1,1.5,3.0\n")
        data = load_dataset(path)
        assert data.n_points == 2
        assert data.n_features == 2
        assert np.array_equal(data.labels, [1.0, -1.0])
        assert np.array_equal(data.features, [[0.5, 2.0], [1.5, 3.0]])

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,0.5\n")
        with pytest.raises(FileFormatError, match="line 1"):
            load_dataset(path)

    def test_zero_one_labels_remapped(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_text("0,1.0\n1,2.0\n")
        data = load_dataset(path)
        assert np.array_equal(data.labels, [-1.0, 1.0])

    def test_header_detected(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text("label,x1\n1,0.25\n-1,0.75\n")
        data = load_dataset(path)
        assert data.n_points == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("1,0.5\n\n-1,1.5\n\n")
        assert load_dataset(path).n_points == 2

    def test_ragged_row_rejected_with_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,0.5,2.0\n-1,1.5\n")
        with pytest.raises(FileFormatError, match="line 2"):
            load_dataset(path)

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("1,0.5\n-1,abc\n")
        with pytest.raises(FileFormatError, match="line 2"):
            load_dataset(path)

    def test_label_only_row_rejected(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("1\n")
        with pytest.raises(FileFormatError):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FileFormatError, match="no data rows"):
            load_dataset(path)

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"1,0.5\xff\n-1,0.25\n")
        with pytest.raises(FileFormatError) as info:
            load_dataset(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_round_trip_bit_exact(self, tmp_path):
        rng = rng_from(17)
        data = Dataset(rng.normal(size=(9, 3)), rng.choice([-1.0, 1.0], size=9))
        path = tmp_path / "roundtrip.csv"
        save_dataset(path, data)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)


class TestMarginMatrixFormat:
    def test_documented_example(self, tmp_path):
        path = tmp_path / "mini.txt"
        path.write_text("1 2\n0.5 0.5\n1 -1\n")
        U, w = load_margin_matrix(path)
        assert U.values.shape == (1, 2)
        assert np.array_equal(U.values, [[1.0, -1.0]])
        assert np.array_equal(w.values, [0.5, 0.5])

    def test_out_of_range_entry_rejected(self, tmp_path):
        path = tmp_path / "range.txt"
        path.write_text("1 2\n0.5 0.5\n1.5 0\n")
        with pytest.raises(FileFormatError, match="line 3"):
            load_margin_matrix(path)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = rng_from(23)
        U = MarginMatrix(rng.uniform(-1, 1, size=(5, 4)))
        w = WeightVector(rng.dirichlet(np.ones(4)))
        path = tmp_path / "roundtrip.txt"
        save_margin_matrix(path, U, w)
        U2, w2 = load_margin_matrix(path)
        assert np.array_equal(U2.values, U.values)
        assert np.array_equal(w2.values, w.values)

    def test_weights_normalized_on_load(self, tmp_path):
        path = tmp_path / "unnorm.txt"
        path.write_text("1 2\n3 1\n0.5 -0.5\n")
        _, w = load_margin_matrix(path)
        assert np.array_equal(w.values, [0.75, 0.25])

    def test_header_errors(self, tmp_path):
        cases = {
            "empty.txt": ("", "empty"),
            "one_field.txt": ("3\n", "line 1"),
            "non_int.txt": ("a b\n1 1\n", "line 1"),
            "negative.txt": ("0 2\n0.5 0.5\n", "positive"),
        }
        for name, (content, needle) in cases.items():
            path = tmp_path / name
            path.write_text(content)
            with pytest.raises(FileFormatError, match=needle):
                load_margin_matrix(path)

    def test_line_count_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("2 2\n0.5 0.5\n1 -1\n")
        with pytest.raises(FileFormatError, match="nonempty lines"):
            load_margin_matrix(path)

    def test_row_width_mismatch(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("1 2\n0.5 0.5\n1 -1 0\n")
        with pytest.raises(FileFormatError, match="line 3"):
            load_margin_matrix(path)

    def test_zero_weights_rejected(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("1 2\n0 0\n1 -1\n")
        with pytest.raises(FileFormatError, match="all zero"):
            load_margin_matrix(path)

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"1 2\n0.5 0.5\n1 \xff\n")
        with pytest.raises(FileFormatError) as info:
            load_margin_matrix(path)
        assert str(info.value).startswith(f"{path}: ")


def _outcome(load, path):
    """What a loader gives for a file: exact array bits, or the error."""
    try:
        result = load(path)
    except Exception as exc:  # compared by type and message
        return ("error", type(exc).__name__, str(exc))
    if isinstance(result, Dataset):
        arrays = (result.features, result.labels)
    else:
        arrays = (result[0].values, result[1].values)
    return ("ok",) + tuple((a.shape, a.tobytes()) for a in arrays)


def _write_input(tmp_path, content):
    """``content``, text or bytes, written verbatim to a file; its path."""
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(content)
    return path


def _differential(monkeypatch, tmp_path, content, fast, load, rows_name):
    """load and the row parser it falls back to agree on ``content``; when
    ``fast``, load must not need the row parser."""
    path = _write_input(tmp_path, content)
    rows = getattr(fileio, rows_name)
    expected = _outcome(rows, path)
    if fast:
        def no_fallback(path):
            raise AssertionError("the C pass fell back to the row parser")

        monkeypatch.setattr(fileio, rows_name, no_fallback)
    assert _outcome(load, path) == expected
    return expected


# content, and whether the C pass takes the file without the row parser
DATASET_FILES = {
    "plain": ("1,0.5,2.0\n-1,1.5,3.0\n", True),
    "header_row": ("label,x1,x2\n1,0.5,2.0\n-1,1.5,3.0\n", True),
    "header_then_blank": ("label,x\n\n\n1,0.5\n", True),
    "two_header_rows": ("label,x\nunit,cm\n1,0.5\n", False),
    "header_only": ("label,x\n", False),
    "zero_one_labels": ("0,0.5\n1,1.5\n0,2.5\n-0,3.5\n", True),
    "blank_lines": ("\n1,0.5\n\n-1,1.5\n\n", True),
    "whitespace_only_lines": ("  \n1,0.5\n   \n\t\n-1,1.5\n \n", False),
    "crlf": ("label,x\r\n1,0.5\r\n\r\n-1,1.5\r\n", True),
    "cr_only": ("1,0.5\r-1,1.5\r", False),
    "quoted_cells": ('"1","0.5"\n-1,"1.5"\n', False),
    "quoted_header": ('"label","x"\n1,0.5\n', False),
    "quoted_label_first_row": ('"1",0.5\n-1,1.5\n', False),
    "quoted_newline": ('label,"a\n1,2"\n-1,3\n', False),
    "spaces_around_cells": (" 1 , 0.5 ,2\n-1,  1.5,3 \n", True),
    "single_feature_column": ("1,0.5\n-1,1.5\n1,2.5\n", True),
    "label_only_rows": ("1\n-1\n", False),
    "nan_inf_features": ("1,nan\n-1,inf\n", False),
    "ragged_row": ("1,0.5,2.0\n-1,1.5\n", False),
    "trailing_comma": ("1,0.5,\n-1,1.5,\n", False),
    "bad_label_last_line": ("1,0.5\n-1,1.5\n2,2.5\n", False),
    "non_numeric_feature": ("1,0.5\n-1,abc\n", False),
    "comment_marker": ("1,0.5 # note\n-1,1.5\n", False),
    "underscore_digits": ("1,1_000\n-1,2_000\n", False),
    "nul_in_header": ("lab\x00el,x\n1,0.5\n", False),
    "undecodable_bytes": (b"1,0.5\n-1,\xff\xfe\n", False),
    "empty_file": ("", False),
    "blank_file": ("\n  \n\n", False),
    # csv.field_size_limit() is 131072 characters: a line of that length
    # (newline included) stays on the C pass, a longer one goes to the row
    # parser, which rejects a cell beyond the limit.
    "line_at_field_limit": ("1,0." + "0" * 131066 + "5\n-1,1.5\n", True),
    "cell_over_field_limit": ("1,0." + "0" * 140000 + "5\n-1,1.5\n", False),
    "quoted_cell_over_field_limit": ('1,"0.' + "0" * 140000 + '5"\n-1,1.5\n', False),
    "line_over_field_limit": ("1" + ",0.5" * 40000 + "\n-1" + ",1.5" * 40000 + "\n", False),
}


class TestDatasetFastPathMatchesRows:
    @pytest.mark.parametrize("name", sorted(DATASET_FILES))
    def test_same_arrays_or_error(self, monkeypatch, tmp_path, name):
        content, fast = DATASET_FILES[name]
        _differential(
            monkeypatch, tmp_path, content, fast, load_dataset, "_load_dataset_rows"
        )

    def test_errors_name_the_line(self, monkeypatch, tmp_path):
        content, _ = DATASET_FILES["bad_label_last_line"]
        outcome = _differential(
            monkeypatch, tmp_path, content, False, load_dataset, "_load_dataset_rows"
        )
        assert outcome[:2] == ("error", "FileFormatError") and "line 3" in outcome[2]

    def test_non_finite_feature_names_the_line(self, monkeypatch, tmp_path):
        content, _ = DATASET_FILES["nan_inf_features"]
        outcome = _differential(
            monkeypatch, tmp_path, content, False, load_dataset, "_load_dataset_rows"
        )
        assert outcome[:2] == ("error", "FileFormatError")
        assert f"{tmp_path / 'input'}: line 1: non-finite feature value" == outcome[2]

    @pytest.mark.parametrize("name", ["cell_over_field_limit", "quoted_cell_over_field_limit"])
    def test_cell_over_field_limit_names_the_line(self, monkeypatch, tmp_path, name):
        content, _ = DATASET_FILES[name]
        outcome = _differential(
            monkeypatch, tmp_path, content, False, load_dataset, "_load_dataset_rows"
        )
        assert outcome[:2] == ("error", "FileFormatError")
        assert "line 1: field larger than field limit" in outcome[2]

    def test_benchmark_shaped_file_is_bit_exact(self, monkeypatch, tmp_path):
        rng = rng_from(41)
        data = Dataset(rng.normal(size=(300, 10)) * 10.0 ** rng.integers(-8, 8, size=(300, 10)),
                       rng.choice([-1.0, 1.0], size=300))
        path = tmp_path / "data.csv"
        save_dataset(path, data)
        _differential(
            monkeypatch, tmp_path, path.read_text(), True, load_dataset, "_load_dataset_rows"
        )


MATRIX_FILES = {
    "plain": ("2 2\n0.5 0.5\n1 -1\n-1 1\n", True),
    "tabs_in_rows": ("2 2\n0.5\t0.5\n1\t-1\n-1 \t 1\n", True),
    "blank_lines": ("\n2 2\n\n0.5 0.5\n  \n1 -1\n\t\n-1 1\n\n", True),
    "crlf": ("2 2\r\n0.5 0.5\r\n1 -1\r\n-1 1\r\n", True),
    "unnormalized_weights": ("2 2\n3 1\n1 -1\n-1 1\n", True),
    "entry_within_tolerance": ("1 2\n0.5 0.5\n1.0000000001 -1\n", True),
    "entry_beyond_tolerance": ("1 2\n0.5 0.5\n1.000000002 -1\n", False),
    "short_row": ("2 2\n0.5 0.5\n1\n-1 1\n", False),
    "long_row": ("2 2\n0.5 0.5\n1 -1 0\n-1 1\n", False),
    "out_of_range_entry": ("2 2\n0.5 0.5\n1 -1\n-1 1.5\n", False),
    "out_of_range_before_bad_row": ("3 2\n0.5 0.5\n1 2\nx 1\n1 1\n", False),
    "nan_entry": ("1 2\n0.5 0.5\nnan 1\n", False),
    "nan_weight": ("1 2\n0.5 nan\n1 1\n", False),
    "inf_weight": ("1 2\n0.5 inf\n1 1\n", False),
    "non_numeric_entry": ("2 2\n0.5 0.5\n1 -1\n-1 y\n", False),
    "too_many_rows": ("1 2\n0.5 0.5\n1 -1\n-1 1\n", False),
    "too_few_rows": ("3 2\n0.5 0.5\n1 -1\n-1 1\n", False),
    "rows_missing": ("1 2\n0.5 0.5\n", False),
    "short_weights": ("1 2\n1\n1 -1\n", False),
    "zero_weights": ("1 2\n0 0\n1 -1\n", False),
    "bad_header": ("a b\n0.5 0.5\n1 -1\n", False),
    "three_field_header": ("1 2 3\n0.5 0.5\n1 -1\n", False),
    "zero_rows": ("0 2\n0.5 0.5\n1 -1\n", False),
    "comment_marker": ("1 2\n0.5 0.5\n1 -1 # note\n", False),
    "undecodable_bytes": (b"1 2\n0.5 0.5\n1 \xff\n", False),
    "empty_file": ("", False),
    # Entries near the short-decimal pass's edges (see fileio._short_decimals)
    "signed_zero_entries": ("1 2\n0.5 0.5\n-0 -0.0\n", True),
    "bare_dot_entries": ("2 2\n0.5 0.5\n.5 -1.\n-.25 1\n", True),
    "spaces_around_entries": ("2 2\n0.5 0.5\n  1    -1  \n-1 1 \n", True),
    "no_final_newline": ("2 2\n0.5 0.5\n1 -1\n-1 1", True),
    "exponent_entries": ("2 2\n0.5 0.5\n1e0 -1E0\n-1 1\n", True),
    "plus_sign_entry": ("1 2\n0.5 0.5\n+1 -1\n", True),
    "ten_digit_entry": ("1 2\n0.5 0.5\n0.123456789 -0.1234567891\n", True),
    "lone_minus_entry": ("1 2\n0.5 0.5\n- 1\n", False),
    "two_dots_entry": ("1 2\n0.5 0.5\n1.2.3 1\n", False),
}


class TestMatrixFastPathMatchesRows:
    @pytest.mark.parametrize("name", sorted(MATRIX_FILES))
    def test_same_arrays_or_error(self, monkeypatch, tmp_path, name):
        content, fast = MATRIX_FILES[name]
        _differential(
            monkeypatch, tmp_path, content, fast, load_margin_matrix,
            "_load_margin_matrix_rows",
        )

    @pytest.mark.parametrize(
        "name, line",
        [
            ("short_row", 3),
            ("out_of_range_entry", 4),
            ("out_of_range_before_bad_row", 3),
            ("entry_beyond_tolerance", 3),
            ("nan_entry", 3),
            ("nan_weight", 2),
            ("inf_weight", 2),
        ],
    )
    def test_errors_name_the_line(self, monkeypatch, tmp_path, name, line):
        content, _ = MATRIX_FILES[name]
        outcome = _differential(
            monkeypatch, tmp_path, content, False, load_margin_matrix,
            "_load_margin_matrix_rows",
        )
        assert outcome[:2] == ("error", "FileFormatError")
        assert outcome[2].startswith(f"{tmp_path / 'input'}: line {line}:")

    def test_benchmark_shaped_file_is_bit_exact(self, monkeypatch, tmp_path):
        rng = rng_from(43)
        U = MarginMatrix(rng.choice([-1.0, 1.0], size=(64, 32)) * rng.uniform(0, 1, size=32))
        w = WeightVector(rng.exponential(size=32) / 7.0)
        path = tmp_path / "matrix.txt"
        save_margin_matrix(path, U, w)
        outcome = _differential(
            monkeypatch, tmp_path, path.read_text(), True, load_margin_matrix,
            "_load_margin_matrix_rows",
        )
        assert outcome[1] == (U.values.shape, U.values.tobytes())


class TestWritersMatchCellByCell:
    def test_save_dataset_bytes(self, tmp_path):
        rng = rng_from(44)
        X = rng.normal(size=(40, 6))
        X[0, :] = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 9999999999999998.0]
        X[1, :] = X[0, :]  # repeated values are formatted once
        data = Dataset(X, rng.choice([-1.0, 1.0], size=40))
        path = tmp_path / "data.csv"
        save_dataset(path, data)
        assert path.read_bytes() == dataset_text_by_cells(X, data.labels).encode()

    def test_save_margin_matrix_bytes(self, tmp_path):
        rng = rng_from(45)
        U = rng.choice([-1.0, 1.0], size=(30, 8)) * rng.uniform(0, 1, size=(30, 8))
        U[0, :4] = [-0.0, 0.0, 5e-324, -1.0]
        w = rng.dirichlet(np.ones(8))
        path = tmp_path / "matrix.txt"
        save_margin_matrix(path, MarginMatrix(U), WeightVector(w))
        assert path.read_bytes() == matrix_text_by_cells(U, w).encode()


FLAGS = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED")


def _loaded(path):
    """What load_margin_matrix returns: dtype, shape, flags and bytes of
    both arrays."""
    U, w = load_margin_matrix(path)
    return [
        (a.dtype.str, a.shape, [a.flags[name] for name in FLAGS], a.tobytes())
        for a in (U.values, w.values)
    ]


def _without_short_decimals():
    """Patch the short-decimal pass to refuse every text, as for a miss."""
    return mock.patch.object(fileio, "_short_decimals", return_value=None)


def _is_short(cell: str) -> bool:
    """Whether ``cell`` is a short decimal as the fileio module defines it."""
    digits = sum(char.isdigit() for char in cell)
    return bool(re.fullmatch(r"-?[0-9]*\.?[0-9]*", cell)) and 1 <= digits <= 9


# Entries in the short-decimal alphabet, some of them beyond its digit limit
# or without a digit; a few other spellings of numbers besides.
TOKENS = st.one_of(
    st.from_regex(r"-?[0-9]{0,6}\.?[0-9]{0,5}", fullmatch=True).filter(
        lambda t: t not in ("", "-")
    ),
    st.sampled_from(["-0", "-0.0", ".5", "-.5", "5.", "999999999", "0.000000001", "1e0", "+1"]),
)


class TestShortDecimals:
    """The short-decimal pass returns np.loadtxt's doubles or refuses."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_doubles_as_loadtxt_or_refused(self, data):
        m = data.draw(st.integers(1, 4), label="m")
        lines = []
        for _ in range(data.draw(st.integers(1, 5), label="rows")):
            cells = data.draw(st.lists(TOKENS, min_size=m, max_size=m), label="cells")
            gap = data.draw(st.sampled_from([" ", "  "]), label="gap")
            lines.append(gap.join(cells) + data.draw(st.sampled_from(["", " "]), label="end"))
            if data.draw(st.booleans(), label="blank line"):
                lines.append(data.draw(st.sampled_from(["", "  "]), label="blank"))
        text = "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]), label="last")
        parsed = fileio._short_decimals(text, m)
        try:
            expected = np.loadtxt(io.StringIO(text), dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            assert parsed is None
            return
        assert (parsed is not None) == all(map(_is_short, text.split()))
        if parsed is not None:
            assert (parsed.dtype, parsed.shape) == (expected.dtype, expected.shape)
            assert parsed.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, m, values",
        [
            ("-0 -0.0 0\n", 3, [-0.0, -0.0, 0.0]),
            ("999999999 -.5 5.\n", 3, [999999999.0, -0.5, 5.0]),
            ("0.1 0.3 -0.7\n0.00000001 1 -1", 3, [0.1, 0.3, -0.7, 1e-8, 1.0, -1.0]),
        ],
    )
    def test_edge_entries(self, text, m, values):
        parsed = fileio._short_decimals(text, m)
        assert parsed.tobytes() == np.array(values).reshape(-1, m).tobytes()

    @pytest.mark.parametrize(
        "text",
        ["0.0000000001 1\n", "1e0 1\n", "+1 1\n", "1\t1\n", "1 1\r\n", "1.2.3 1\n",
         "1-2 1\n", "- 1\n", ". 1\n", "1 1 1\n", "nan 1\n", "1 \u00a01\n"],
    )
    def test_refused(self, text):
        assert fileio._short_decimals(text, 2) is None

    def test_blocks_split_at_line_ends(self, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK_BYTES", 5)
        text = "1.0 -1.0\n\n0.25 0.5\n-0.0 1\n"
        parsed = fileio._short_decimals(text, 2)
        assert parsed.tobytes() == np.array([[1.0, -1.0], [0.25, 0.5], [-0.0, 1.0]]).tobytes()
        assert fileio._short_decimals(text.replace("0.5", "0.5 1"), 2) is None


# Entries whose repr is a short decimal, and others whose repr is not.
SHORT_ENTRIES = st.sampled_from([-1.0, 1.0, -0.0, 0.0, 0.5, -0.25, 0.1, 0.75, -0.3])
ENTRIES = st.one_of(
    SHORT_ENTRIES, st.sampled_from([5e-324, -2.5e-310, 1e-05]), st.floats(-1.0, 1.0)
)
SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))


class TestShortDecimalLoads:
    """A load through the short-decimal pass gives the same arrays, bit for
    bit, as a load through np.loadtxt."""

    @given(
        st.one_of(
            arrays(np.float64, SHAPES, elements=SHORT_ENTRIES),
            arrays(np.float64, SHAPES, elements=ENTRIES),
        ),
        st.data(),
    )
    @example(np.array([[-0.0, 5e-324, -1.0]]), None)  # 1 x m, a subnormal
    @example(np.array([[-0.0, 0.5, -1.0]]), None)  # 1 x m
    @example(np.array([[-0.0], [0.25], [1.0]]), None)  # n x 1
    @settings(max_examples=100, deadline=None)
    def test_same_arrays_as_loadtxt(self, U, data):
        m = U.shape[1]
        if data is None:
            w = np.arange(1.0, m + 1)  # renormalized on load
        else:
            w = data.draw(arrays(np.float64, m, elements=st.floats(-4.0, 4.0)))
            if not np.abs(w).sum() > 0:
                w[0] = 3.0  # all-zero weights are a load error
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "matrix.txt"
            save_margin_matrix(path, MarginMatrix(U), WeightVector(w))
            loaded = _loaded(path)
            with _without_short_decimals():
                assert _loaded(path) == loaded

    @pytest.mark.parametrize("name", sorted(MATRIX_FILES))
    def test_same_outcome_without_warnings(self, tmp_path, name):
        path = _write_input(tmp_path, MATRIX_FILES[name][0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = _outcome(load_margin_matrix, path)
            with _without_short_decimals():
                assert _outcome(load_margin_matrix, path) == outcome


class TestShortDecimalFastPath:
    def test_short_entries_skip_loadtxt(self, monkeypatch, tmp_path):
        rng = rng_from(46)
        U = rng.choice([-1.0, 1.0], size=(40, 24))
        w = rng.exponential(size=24)
        path = tmp_path / "matrix.txt"
        save_margin_matrix(path, MarginMatrix(U), WeightVector(w / w.sum()))

        def no_parse(*args, **kwargs):
            raise AssertionError("np.loadtxt ran")

        monkeypatch.setattr(fileio.np, "loadtxt", no_parse)
        loaded, weights = load_margin_matrix(path)
        assert loaded.values.tobytes() == U.tobytes()
        assert weights.values.tobytes() == (w / w.sum()).tobytes()
        path.write_text(path.read_text().replace("-1.0", "-1e0"))
        with pytest.raises(AssertionError, match="np.loadtxt ran"):
            load_margin_matrix(path)


class TestEnsembleFormat:
    def test_round_trip_with_sentinel_thresholds(self, tmp_path):
        stumps = (
            DecisionStump(0, -math.inf, 1),
            DecisionStump(2, 0.7351234, -1),
            DecisionStump(1, math.inf, 1),
        )
        ens = Ensemble(stumps, WeightVector(np.array([0.25, 0.5, 0.25])))
        path = tmp_path / "model.json"
        save_ensemble(path, ens)
        loaded = load_ensemble(path)
        assert loaded.hypotheses == stumps
        assert np.array_equal(loaded.weights.values, ens.weights.values)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            load_ensemble(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"weights": [1.0]}))
        with pytest.raises(FileFormatError):
            load_ensemble(path)

    @pytest.mark.parametrize(
        "weights, stump, message",
        [
            ("abc", {}, "could not convert string to float"),
            ([1.0], {"feature": "x"}, 'feature must be a JSON integer, got "x"'),
            ([0.5, 0.5], {}, "1 hypotheses but 2 weights"),
            ([1.0], {"threshold": math.nan}, "threshold must not be NaN"),
            ([-1.0], {}, "ensemble weights must be nonnegative"),
            ([1.0], {"feature": 1.7}, "feature must be a JSON integer, got 1.7"),
            ([1.0], {"polarity": True}, "polarity must be a JSON integer, got true"),
            ([1.0], {"polarity": 1.0}, "polarity must be a JSON integer, got 1.0"),
            ([0.0], {}, "weights are all zero"),
        ],
    )
    def test_malformed_model_names_the_file(self, tmp_path, weights, stump, message):
        path = tmp_path / "model.json"
        item = {"feature": 0, "threshold": 0.5, "polarity": 1, **stump}
        path.write_text(json.dumps({"weights": weights, "stumps": [item]}))
        with pytest.raises(FileFormatError, match=re.escape(message)) as info:
            load_ensemble(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"weights": [1.0], \xff}')
        with pytest.raises(FileFormatError) as info:
            load_ensemble(path)
        assert str(info.value).startswith(f"{path}: ")


class TestReportAndCurves:
    def test_json_report_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "report.json"
        write_json_report(path, {"b": 1, "a": [1, 2]})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": [1, 2]}

    def test_json_report_equals_json_dumps(self, tmp_path):
        # Curves are rendered outside json.dumps; the bytes must not change,
        # whatever the points' float type or value, and strings that look
        # like the curve placeholders must pass through untouched.
        points = [(-0.5, 0.25), (np.float64(1e-300), 0.5), (math.nan, 0.75), (-math.inf, 1.0)]
        payload = {
            "config": {"out_path": "\x00curve0", "note": '"curve": "\\u0000curve1"'},
            "methods": [
                {"method": "a", "curve": [[m, f] for m, f in points], "z": None},
                {"method": "b", "curve": []},
                {"method": "c", "nested": {"curve": [[0.5, 1.0]]}},
            ],
            "timing_seconds": 0.125,
        }
        path = tmp_path / "report.json"
        write_json_report(path, payload)
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_json_report_edge_values_equal_json_dumps(self, tmp_path):
        # Values around repr's switches to exponent form, signed zeros,
        # subnormals, non-finite values and numpy scalars, in curves of one
        # length shared by several methods, plus an empty curve.
        edges = [-0.0, 0.0, 5e-324, -2.5e-320, 1e16, 9999999999999998.0, 1e-5,
                 0.0001, -1e-05, np.float64(0.1), np.float64(-0.0), math.nan,
                 math.inf, -math.inf, 1.0, -1.0]
        fractions = [(k + 1) / len(edges) for k in range(len(edges))]
        payload = {
            "methods": [
                {"method": "edges", "curve": [[m, f] for m, f in zip(edges, fractions)]},
                {"method": "reversed", "curve": [[m, f] for m, f in zip(edges[::-1], fractions)]},
                {"method": "zeros", "curve": [[0.0, f] for f in fractions]},
                {"method": "negative_zeros", "curve": [[-0.0, f] for f in fractions]},
                {"method": "empty", "curve": []},
            ],
            "z": {"curve": [[-0.0, 1.0]]},
        }
        path = tmp_path / "report.json"
        write_json_report(path, payload)
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_shared_text_writes_the_same_bytes(self, tmp_path):
        # One FloatText across the report and every curve file changes no
        # byte, also for columns equal by value but not by bits.
        rng = rng_from(47)
        n = 64
        fractions = [(k + 1) / n for k in range(n)]
        margin_columns = [
            np.sort(rng.uniform(-1, 1, size=n)).tolist(),
            np.round(np.sort(rng.uniform(-1, 1, size=n)), 1).tolist(),
            [0.0] * n,
            [-0.0] * n,
        ]
        curves = [list(zip(column, fractions)) for column in margin_columns]
        payload = {"methods": [{"method": str(i), "curve": c} for i, c in enumerate(curves)]}
        text = FloatText()
        write_json_report(tmp_path / "shared.json", payload, text)
        write_json_report(tmp_path / "alone.json", payload)
        assert (tmp_path / "shared.json").read_bytes() == (tmp_path / "alone.json").read_bytes()
        for i, curve in enumerate(curves):
            write_curve_csv(tmp_path / f"shared_{i}.csv", curve, text)
            assert (tmp_path / f"shared_{i}.csv").read_text() == curve_csv_by_rows(curve)

    def test_curve_csv_equals_repr_rows(self, tmp_path):
        rng = rng_from(48)
        margin_values = np.sort(rng.normal(size=200) * 10.0 ** rng.integers(-20, 20, size=200))
        curve = [
            (np.float64(m) if k % 2 else float(m), (k + 1) / 200)
            for k, m in enumerate(margin_values)
        ]
        curve += [(-0.0, 1.0), (5e-324, 1.0), (1e16, 1.0), (1e-5, 1.0),
                  (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)]
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        assert path.read_text() == curve_csv_by_rows(curve)
        write_curve_csv(path, [])
        assert path.read_text() == curve_csv_by_rows([])

    def test_curve_csv_numpy_scalars(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [(np.float64(-0.1), np.float64(0.5)), (0.2, 1.0)])
        assert path.read_text() == "margin,cumulative_fraction\n-0.1,0.5\n0.2,1.0\n"

    def test_curve_csv_format(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [(-0.5, 0.5), (0.25, 1.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "margin,cumulative_fraction"
        assert lines[1] == "-0.5,0.5"
        assert lines[2] == "0.25,1.0"

    def test_ensure_parent_creates_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "file.txt"
        ensure_parent(target)
        assert target.parent.is_dir()
