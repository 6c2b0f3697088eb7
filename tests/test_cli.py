import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsevote import (
    Dataset,
    MarginMatrix,
    WeightVector,
    importance_sample,
    load_dataset,
    load_ensemble,
    load_margin_matrix,
    save_dataset,
    save_margin_matrix,
    sparsiboost,
    truncate_top,
)
from sparsevote import cli
from sparsevote.cli import RunConfig, main, parse_config_file, run_compare
from sparsevote.discrepancy import DiscrepancyBoundError
from sparsevote.fileio import FileFormatError
from sparsevote.seeding import rng_from, split_seed

METHODS = ["full", "truncated", "sparsified", "sampled"]
# The scored fields of a record, None in matrix mode.
SCORED = {"bias_offset", "train_accuracy", "test_accuracy", "train_auc", "test_auc"}
# The keys of every record in either mode; the sparsified one adds "sparsify".
RECORD_KEYS = SCORED | {
    "method", "hypothesis_count", "min_margin", "sup_norm_error_vs_full", "curve",
}


def synthetic_dataset(seed, n, d=4):
    rng = rng_from(seed)
    X = rng.normal(size=(n, d))
    y = np.where(
        X[:, 0] + 0.6 * X[:, 1] - 0.4 * X[:, 2] + 0.4 * rng.normal(size=n) >= 0,
        1.0,
        -1.0,
    )
    return Dataset(X, y)


@pytest.fixture
def data_files(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    save_dataset(train, synthetic_dataset(51, 120))
    save_dataset(test, synthetic_dataset(52, 80))
    return train, test


def strip_timing(text):
    return re.sub(r'"timing_seconds": [0-9.e+-]+', '"timing_seconds": X', text)


class TestConfigFile:
    def test_parse_key_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed = 9\n\ntarget=4\nmatrix_mode = true\n")
        assert parse_config_file(path) == {
            "seed": "9",
            "target": "4",
            "matrix_mode": "true",
        }

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed 9\n")
        with pytest.raises(FileFormatError, match="line 1"):
            parse_config_file(path)

    def test_unknown_key_rejected(self, tmp_path, data_files, capsys):
        train, test = data_files
        path = tmp_path / "unknown.cfg"
        path.write_text("sneed=1\n")
        code = main([
            "compare", "--config", str(path), "--train", str(train),
            "--test", str(test), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_dropped_constant_rejected(self, tmp_path, data_files, capsys):
        train, test = data_files
        path = tmp_path / "old.cfg"
        path.write_text("kh=24\n")
        code = main([
            "compare", "--config", str(path), "--train", str(train),
            "--test", str(test), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "unknown config keys: kh" in capsys.readouterr().err

    def test_cli_overrides_file(self, tmp_path, data_files):
        train, test = data_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"seed=1\ntarget=4\ntrain={train}\ntest={test}\n"
            f"out={tmp_path / 'from_file'}\nrounds=6\n"
        )
        code = main(["compare", "--config", str(cfg), "--seed", "2"])
        assert code == 0
        report = json.loads((tmp_path / "from_file" / "report.json").read_text())
        assert report["config"]["seed"] == 2  # command line wins
        assert report["config"]["target"] == 4  # file fills the gap
        assert report["rounds"] == 6

    def test_zero_on_command_line_wins(self, tmp_path, data_files):
        train, test = data_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=5\ntarget=4\nrounds=6\ntrain={train}\ntest={test}\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 0

    def test_zero_ks_on_command_line_is_rejected(self, tmp_path, data_files, capsys):
        train, test = data_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"ks=7\ntarget=4\nrounds=6\ntrain={train}\ntest={test}\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--ks", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: spencer_constant must be positive and finite"
        )
        assert not out.exists()

    def test_undecodable_file_is_named(self, tmp_path, data_files, capsys):
        train, test = data_files
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"seed=1\n\xff\n")
        out = tmp_path / "out"
        code = main([
            "compare", "--config", str(cfg), "--train", str(train),
            "--test", str(test), "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
        assert not out.exists()

    def test_unparsable_value_names_file_and_key(self, tmp_path, data_files, capsys):
        train, test = data_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target=abc\n")
        out = tmp_path / "out"
        code = main([
            "compare", "--config", str(cfg), "--train", str(train),
            "--test", str(test), "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: target: ")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["command line", "config file"])
    @pytest.mark.parametrize("command", ["compare", "sample"])
    def test_negative_seed_is_rejected_before_work(
        self, tmp_path, data_files, capsys, command, source
    ):
        # sample's matrix does not exist: the seed is checked before loading.
        train, test = data_files
        out = tmp_path / "out"
        if command == "compare":
            argv = ["compare", "--train", str(train), "--test", str(test),
                    "--rounds", "4", "--out", str(out)]
        else:
            argv = ["sample", "--matrix", str(tmp_path / "missing.txt"), "-T", "2",
                    "--out", str(out / "sampled.json")]
        if source == "command line":
            argv += ["--seed", "-1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed=-1\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative integer, got -1\n"
        )
        assert not out.exists()

    def test_data_key_fills_data_option(self, tmp_path, data_files):
        train, _ = data_files
        model = tmp_path / "model.json"
        main(["train", "--data", str(train), "--rounds", "12", "--out", str(model)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model={model}\ndata={train}\n")
        sparse = tmp_path / "sparse.json"
        code = main(["sparsify", "--config", str(cfg), "-T", "4", "--out", str(sparse)])
        assert code == 0
        assert len(load_ensemble(sparse)) <= 4


class TestParser:
    @pytest.mark.parametrize("flag", ["--kh", "--cv", "--cb"])
    def test_dropped_constant_flags_exit_2(self, tmp_path, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compare", "--matrix-mode", "--out", str(tmp_path), flag, "2"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("train", "--seed"),
            ("sparsify", "--seed"),
            ("train", "--ks"),
            ("sample", "--ks"),
            ("eval", "--ks"),
            ("margins", "--ks"),
        ],
    )
    def test_flags_a_command_does_not_read_exit_2(self, command, flag, capsys):
        argv = {
            "train": ["--data", "d.csv", "--rounds", "4", "--out", "m.json"],
            "sparsify": ["--matrix", "m.txt", "-T", "4", "--out", "w.json"],
            "sample": ["--matrix", "m.txt", "-T", "4", "--out", "w.json"],
            "eval": ["--model", "m.json", "--data", "d.csv"],
            "margins": ["--matrix", "m.txt", "--out", "c.csv"],
        }[command]
        with pytest.raises(SystemExit) as info:
            main([command, *argv, flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_successive_calls_leave_no_state(self, tmp_path, capsys):
        rng = rng_from(32)
        matrix = tmp_path / "matrix.txt"
        save_margin_matrix(
            matrix,
            MarginMatrix(rng.choice([-1.0, 1.0], size=(24, 40))),
            WeightVector(rng.dirichlet(np.ones(40))),
        )
        runs = []
        for extra in (["-T", "4", "--seed", "3", "--ks", "20"], []):
            out = tmp_path / f"out{len(runs)}"
            argv = ["compare", "--matrix-mode", "--matrix", str(matrix), "--out", str(out)]
            assert main(argv + extra) == 0
            runs.append(json.loads((out / "report.json").read_text())["config"])
        assert cli._parser() is cli._parser()
        assert runs[0] == RunConfig(
            seed=3, target=4, spencer_constant=20.0, matrix_mode=True,
            matrix_path=str(matrix), out_path=str(tmp_path / "out0"),
        ).echo()
        assert runs[1] == RunConfig(
            matrix_mode=True, matrix_path=str(matrix), out_path=str(tmp_path / "out1"),
        ).echo()


class TestRunConfig:
    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            RunConfig(spencer_constant=0.0)
        with pytest.raises(ValueError):
            RunConfig(target=0)
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=-1)

    def test_paths_checked_before_work(self, tmp_path):
        config = RunConfig(
            train_path=str(tmp_path / "missing.csv"),
            test_path=str(tmp_path / "missing.csv"),
            out_path=str(tmp_path / "out"),
        )
        with pytest.raises(FileNotFoundError):
            run_compare(config)
        assert not (tmp_path / "out").exists()

    def test_matrix_mode_requires_matrix(self, tmp_path):
        with pytest.raises(ValueError, match="--matrix"):
            run_compare(RunConfig(matrix_mode=True, out_path=str(tmp_path)))


class TestSubcommands:
    def test_train_writes_model(self, tmp_path, data_files, capsys):
        train, _ = data_files
        model = tmp_path / "model.json"
        code = main([
            "train", "--data", str(train), "--rounds", "12", "--out", str(model),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rounds_trained"] == 12
        assert len(load_ensemble(model)) == 12

    def test_sparsify_model_mode(self, tmp_path, data_files, capsys):
        train, _ = data_files
        model = tmp_path / "model.json"
        main(["train", "--data", str(train), "--rounds", "24", "--out", str(model)])
        capsys.readouterr()
        sparse = tmp_path / "sparse.json"
        code = main([
            "sparsify", "--model", str(model), "--data", str(train),
            "-T", "8", "--out", str(sparse),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["final_support"] <= 8
        assert len(load_ensemble(sparse)) <= 8

    def test_sample_matrix_mode(self, tmp_path, capsys):
        rng = rng_from(31)
        U = MarginMatrix(rng.choice([-1.0, 1.0], size=(20, 12)))
        w = WeightVector(rng.dirichlet(np.ones(12)))
        matrix = tmp_path / "matrix.txt"
        save_margin_matrix(matrix, U, w)
        out = tmp_path / "sampled.json"
        code = main([
            "sample", "--matrix", str(matrix), "-T", "6", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["support"] <= 6
        weights = json.loads(out.read_text())["weights"]
        assert sum(abs(v) for v in weights) == pytest.approx(1.0, abs=1e-9)

    def test_eval_fit_bias(self, tmp_path, data_files, capsys):
        train, test = data_files
        model = tmp_path / "model.json"
        main(["train", "--data", str(train), "--rounds", "8", "--out", str(model)])
        capsys.readouterr()
        code = main([
            "eval", "--model", str(model), "--data", str(test), "--fit-bias",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"offset", "accuracy", "auc", "min_margin"}
        assert 0.0 <= payload["accuracy"] <= 1.0

    def test_margins_curve_is_sorted(self, tmp_path, data_files, capsys):
        train, _ = data_files
        model = tmp_path / "model.json"
        main(["train", "--data", str(train), "--rounds", "8", "--out", str(model)])
        capsys.readouterr()
        curve = tmp_path / "curve.csv"
        code = main([
            "margins", "--model", str(model), "--data", str(train),
            "--out", str(curve),
        ])
        assert code == 0
        lines = curve.read_text().splitlines()
        assert lines[0] == "margin,cumulative_fraction"
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == sorted(xs)
        assert len(xs) == 120

    @pytest.mark.parametrize("command", ["eval", "margins"])
    def test_feature_beyond_the_data_names_the_model(
        self, tmp_path, data_files, capsys, command
    ):
        train, _ = data_files
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "weights": [1.0],
            "stumps": [{"feature": 7, "threshold": 0.5, "polarity": 1}],
        }))
        argv = [command, "--model", str(model), "--data", str(train)]
        if command == "margins":
            argv += ["--out", str(tmp_path / "curve.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {model}: a stump reads feature 7, but {train} has 4 features\n"
        )

    def test_missing_file_is_reported(self, tmp_path, capsys):
        code = main([
            "eval", "--model", str(tmp_path / "nope.json"),
            "--data", str(tmp_path / "nope.csv"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_as_data_is_one_error_line(self, tmp_path, capsys):
        code = main([
            "train", "--data", str(tmp_path), "--rounds", "4",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err
        assert err.count("\n") == 1

    def test_cell_over_field_limit_is_one_error_line(self, tmp_path, data_files, capsys):
        _, test = data_files
        train = tmp_path / "long.csv"
        train.write_text('1,"0.' + "0" * 140000 + '5"\n-1,1.5\n')
        code = main([
            "compare", "--train", str(train), "--test", str(test),
            "--rounds", "4", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 1: field larger than field limit" in err
        assert err.count("\n") == 1

    def test_output_below_a_file_is_one_error_line(self, tmp_path, data_files, capsys):
        train, test = data_files
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main([
            "compare", "--train", str(train), "--test", str(test),
            "--rounds", "4", "--out", str(blocker / "sub"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("ks", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["sparsify", "compare"])
    def test_bad_ks_is_one_error_line(self, tmp_path, capsys, command, ks):
        # At zero or below no coloring meets the bound and at inf every one
        # does, so the halver would silently fall back or go unchecked.
        path = tmp_path / "m.txt"
        rng = rng_from(64)
        save_margin_matrix(
            path, MarginMatrix(rng.choice([-1.0, 1.0], size=(64, 40))), WeightVector.uniform(40)
        )
        out = tmp_path / "out"
        if command == "sparsify":
            argv = ["sparsify", "--matrix", str(path), "--out", str(out)]
        else:
            argv = ["compare", "--matrix-mode", "--matrix", str(path), "--out", str(out)]
        assert main(argv + ["-T", "8", "--ks", ks]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: spencer_constant must be positive and finite")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "failure",
        [DiscrepancyBoundError(2.5, 1.5), RuntimeError("margin LP failed: x")],
    )
    def test_runtime_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch, failure):
        path = tmp_path / "m.txt"
        save_margin_matrix(path, MarginMatrix(np.eye(4) * 2 - 1), WeightVector.uniform(4))

        def fail(*args, **kwargs):
            raise failure

        monkeypatch.setattr("sparsevote.cli.sparsify", fail)
        code = main([
            "sparsify", "--matrix", str(path), "-T", "2",
            "--out", str(tmp_path / "w.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {failure}\n"

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_one_point_training_set_is_reported(self, tmp_path, data_files, capsys, command):
        one = tmp_path / "one.csv"
        save_dataset(one, synthetic_dataset(53, 1))
        _, test = data_files
        if command == "train":
            argv = ["train", "--data", str(one), "--out", str(tmp_path / "m.json")]
        else:
            argv = ["compare", "--train", str(one), "--test", str(test),
                    "--out", str(tmp_path / "out")]
        assert main(argv + ["--rounds", "4"]) == 2
        assert capsys.readouterr().err == (
            "error: AdaBoostV needs at least two training points\n"
        )


class TestImport:
    def test_cli_import_skips_heavy_scipy_modules(self):
        # scipy.optimize (the LP oracle) and scipy.stats cost about a second
        # to import; a CLI run that needs neither must not load them.
        src = str(Path(sys.modules["sparsevote"].__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, sparsevote.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert result.stdout.strip() == "[]"


class TestCompare:
    @pytest.mark.parametrize("mode", ["dataset", "matrix"])
    def test_report_schema(self, tmp_path, data_files, mode):
        out = tmp_path / "out"
        if mode == "dataset":
            train, test = data_files
            inputs = ["--train", str(train), "--test", str(test)]
        else:
            # Five zero weights: the full record counts the support, 35.
            rng = rng_from(33)
            weights = rng.dirichlet(np.ones(40))
            weights[::8] = 0.0
            matrix = tmp_path / "matrix.txt"
            save_margin_matrix(
                matrix, MarginMatrix(rng.choice([-1.0, 1.0], size=(60, 40))),
                WeightVector(weights / weights.sum()),
            )
            inputs = ["--matrix-mode", "--matrix", str(matrix)]
        code = main(["compare", *inputs, "-T", "8", "--seed", "4", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["mode"] == mode
        assert [r["method"] for r in report["methods"]] == METHODS
        by_name = {r["method"]: r for r in report["methods"]}
        assert by_name["sparsified"]["hypothesis_count"] <= 8
        assert by_name["sampled"]["hypothesis_count"] <= 8
        assert by_name["truncated"]["hypothesis_count"] <= 8
        assert by_name["full"]["sup_norm_error_vs_full"] == 0.0
        for name in METHODS:
            record = by_name[name]
            extra = {"sparsify"} if name == "sparsified" else set()
            assert set(record) == RECORD_KEYS | extra
            assert (out / f"curve_{name}.csv").exists()
            xs = [m for m, _ in record["curve"]]
            assert xs == sorted(xs)
            if mode == "dataset":
                assert 0.0 <= record["test_accuracy"] <= 1.0
                assert 0.0 <= record["test_auc"] <= 1.0
            else:
                assert {key: record[key] for key in SCORED} == dict.fromkeys(SCORED)
        if mode == "dataset":
            assert by_name["full"]["bias_offset"] == 0.0
        else:
            U, w = load_margin_matrix(matrix)
            supports = {
                "full": w.support_size,
                "truncated": truncate_top(w, 8).support_size,
                "sparsified": by_name["sparsified"]["sparsify"]["final_support"],
                "sampled": importance_sample(w, 8, split_seed(4, 3)).support_size,
            }
            assert supports["full"] == 35
            assert {name: by_name[name]["hypothesis_count"] for name in METHODS} == supports
        assert "timing_seconds" in report

    @pytest.mark.parametrize("rounds", [12, None])
    def test_sparsified_record_is_sparsiboost(self, tmp_path, data_files, rounds):
        train, test = data_files
        payload = run_compare(RunConfig(
            seed=7, target=4, rounds=rounds,
            train_path=str(train), test_path=str(test), out_path=str(tmp_path / "out"),
        ))
        full, sparsified, report = sparsiboost(load_dataset(train), 4, rounds=rounds)
        by_name = {r["method"]: r for r in payload["methods"]}
        assert by_name["full"]["hypothesis_count"] == len(full)
        assert by_name["sparsified"]["hypothesis_count"] == len(sparsified)
        assert by_name["sparsified"]["sparsify"] == {
            "initial_support": report.initial_support,
            "final_support": report.final_support,
            "halving_rounds": report.halving_rounds,
            "achieved_error": report.achieved_error,
            "per_round_errors": report.per_round_errors,
            "truncated_fallback": report.truncated_fallback,
        }

    def test_deterministic_reports(self, tmp_path, data_files):
        train, test = data_files
        out = tmp_path / "out"
        args = [
            "compare", "--train", str(train), "--test", str(test),
            "-T", "8", "--seed", "9", "--out", str(out), "--rounds", "16",
        ]
        assert main(args) == 0
        first = (out / "report.json").read_text()
        curves_first = {m: (out / f"curve_{m}.csv").read_bytes() for m in METHODS}
        assert main(args) == 0
        second = (out / "report.json").read_text()
        assert strip_timing(first) == strip_timing(second)
        for m in METHODS:
            assert (out / f"curve_{m}.csv").read_bytes() == curves_first[m]

    @pytest.mark.parametrize("mode", ["dataset", "matrix"])
    def test_outputs_equal_json_dumps_and_repr_rows(self, tmp_path, data_files, mode):
        if mode == "dataset":
            train, test = data_files
            config = RunConfig(
                seed=3, target=8, rounds=16,
                train_path=str(train), test_path=str(test), out_path=str(tmp_path / "out"),
            )
        else:
            matrix = tmp_path / "matrix.txt"
            U = MarginMatrix(rng_from(8).choice([-1.0, 1.0], size=(60, 40)))
            save_margin_matrix(matrix, U, WeightVector.uniform(40))
            config = RunConfig(
                seed=3, target=8, matrix_mode=True,
                matrix_path=str(matrix), out_path=str(tmp_path / "out"),
            )
        payload = run_compare(config)
        out = tmp_path / "out"
        assert (out / "report.json").read_text() == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        for record in payload["methods"]:
            rows = "".join(f"{float(m)!r},{float(f)!r}\n" for m, f in record["curve"])
            assert (out / f"curve_{record['method']}.csv").read_text() == (
                "margin,cumulative_fraction\n" + rows
            )

    def test_matrix_mode_constant_columns(self, tmp_path):
        U = MarginMatrix(np.full((8, 12), 0.25))
        w = WeightVector.uniform(12)
        matrix = tmp_path / "const.txt"
        save_margin_matrix(matrix, U, w)
        out = tmp_path / "out"
        code = main([
            "compare", "--matrix", str(matrix), "--matrix-mode",
            "-T", "4", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "matrix"
        by_name = {r["method"]: r for r in report["methods"]}
        assert by_name["sparsified"]["sup_norm_error_vs_full"] <= 1e-12
        assert by_name["sparsified"]["hypothesis_count"] <= 4
        assert by_name["full"]["train_accuracy"] is None

    def test_failure_flushes_marker(self, tmp_path):
        # a single-class test set makes AUC undefined partway through
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        save_dataset(train, synthetic_dataset(61, 60))
        one_sided = synthetic_dataset(62, 40)
        save_dataset(test, Dataset(one_sided.features, np.ones(40)))
        out = tmp_path / "out"
        config = RunConfig(
            seed=0, target=4, rounds=8,
            train_path=str(train), test_path=str(test), out_path=str(out),
        )
        with pytest.raises(Exception):
            run_compare(config)
        report = json.loads((out / "report.json").read_text())
        assert "failed" in report
        assert "UndefinedMetricError" in report["failed"]["error"]

    def test_sparsifier_beats_sampler_at_desk_scale(self, tmp_path):
        # n=500, d=5, T=16: median sup-norm error of the sparsified method
        # across 20 driver seeds must not exceed the sampler's median
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        save_dataset(train, synthetic_dataset(900, 500, d=5))
        save_dataset(test, synthetic_dataset(901, 300, d=5))
        sparsified, sampled = [], []
        for seed in range(20):
            out = tmp_path / f"out{seed}"
            payload = run_compare(RunConfig(
                seed=seed, target=16,
                train_path=str(train), test_path=str(test), out_path=str(out),
            ))
            by_name = {r["method"]: r for r in payload["methods"]}
            sparsified.append(by_name["sparsified"]["sup_norm_error_vs_full"])
            sampled.append(by_name["sampled"]["sup_norm_error_vs_full"])
        assert float(np.median(sparsified)) <= float(np.median(sampled))
