import json
import math

import numpy as np
import pytest

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
from sparsevote.fileio import ensure_parent
from sparsevote.seeding import rng_from


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
