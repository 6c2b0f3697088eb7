"""Command-line entry points and the four-way comparison driver.

Subcommands: train (AdaBoostV to an ensemble file), sparsify, sample,
eval, margins, and compare, the driver that trains a full ensemble,
derives truncated / sparsified / importance-sampled competitors, evaluates
all four, and writes a JSON report plus cumulative-margin CSV curves.

Every run is reproducible from its config. Training and the sparsifier are
deterministic (so ``sparsiboost`` returns compare's sparsified ensemble);
the sampler alone draws, from the single seed through the fixed component
index 3, the only component used anywhere.
Reports are written with sorted keys, so identical configs produce
byte-identical files (timing aside).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boosting import (
    Dataset,
    Ensemble,
    adaboost_v,
    budget_multiplier,
    prune_ensemble,
    sparsiboost,
)
from .discrepancy import DEFAULT_CONFIG, ColoringConfig
from .evaluation import accuracy, auc, bias_correct, predict_scores
from .fileio import (
    FileFormatError,
    FloatText,
    ensure_parent,
    load_dataset,
    load_ensemble,
    load_margin_matrix,
    open_text,
    save_ensemble,
    write_curve_csv,
    write_json_report,
)
from .margins import (
    MarginMatrix,
    WeightVector,
    build_margin_matrix,
    cumulative_margin_curve,
    margins,
    min_margin,
    sup_norm_diff,
)
from .seeding import split_seed
from .sparsify import SparsifyReport, importance_sample, sparsify, truncate_top

SCHEMA_VERSION = 1
METHOD_NAMES = ("full", "truncated", "sparsified", "sampled")


@dataclass(frozen=True)
class RunConfig:
    """Driver configuration: seed, target size, coloring bound constant, and
    paths."""

    seed: int = 0
    target: int = 16
    rounds: int | None = None
    spencer_constant: float = DEFAULT_CONFIG.spencer_constant
    train_path: str | None = None
    test_path: str | None = None
    matrix_path: str | None = None
    out_path: str | None = None
    matrix_mode: bool = False

    def __post_init__(self):
        _coloring(self.spencer_constant)
        if self.target < 1:
            raise ValueError("target size must be at least 1")
        _check_seed(self.seed)

    def echo(self) -> dict:
        return dataclasses.asdict(self)


def _coloring(ks: float | None) -> ColoringConfig:
    """The coloring configuration for a --ks value, DEFAULT_CONFIG when it
    is unset; ColoringConfig rejects a constant that is not positive and
    finite."""
    return DEFAULT_CONFIG if ks is None else ColoringConfig(spencer_constant=ks)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _require_paths(config: RunConfig) -> None:
    if config.matrix_mode:
        if not config.matrix_path:
            raise ValueError("matrix mode needs --matrix")
        paths = [config.matrix_path]
    else:
        if not (config.train_path and config.test_path):
            raise ValueError("dataset mode needs --train and --test")
        paths = [config.train_path, config.test_path]
    for path in paths:
        if not Path(path).is_file():
            raise FileNotFoundError(f"input file not found: {path}")
    if not config.out_path:
        raise ValueError("an output directory (--out) is required")


# The record fields only a dataset run scores, None in matrix mode.
_SCORED_FIELDS = ("bias_offset", "train_accuracy", "test_accuracy", "train_auc", "test_auc")


def _record(
    name: str,
    hypothesis_count: int,
    lowest_margin: float,
    error_vs_full: float,
    train_margins: np.ndarray,
    sparsify_report: SparsifyReport | None,
    scored: dict | None = None,
) -> dict:
    """The report record of one method; the fields of ``scored`` are None
    when it is not given."""
    record = {
        "method": name,
        "hypothesis_count": hypothesis_count,
        "min_margin": lowest_margin,
        "sup_norm_error_vs_full": error_vs_full,
        **(scored or dict.fromkeys(_SCORED_FIELDS)),
        "curve": cumulative_margin_curve(train_margins),
    }
    if sparsify_report is not None:
        record["sparsify"] = dataclasses.asdict(sparsify_report)
    return record


def _dataset_record(
    name: str,
    ensemble: Ensemble,
    train: Dataset,
    test: Dataset,
    reference: np.ndarray | None,
    fit_bias: bool,
    sparsify_report: SparsifyReport | None,
) -> tuple[dict, np.ndarray]:
    """The report record of ``ensemble``, scored with normalized weights,
    and its scores on ``train``. ``reference`` holds the full ensemble's
    train scores; None makes ``ensemble`` its own reference."""
    scored = Ensemble(ensemble.hypotheses, ensemble.weights.normalized())
    train_scores = predict_scores(scored, train)
    test_scores = predict_scores(scored, test)
    reference = train_scores if reference is None else reference
    offset = bias_correct(train_scores, train.labels)[0] if fit_bias else 0.0
    train_margins = train.labels * train_scores
    fields = {
        "bias_offset": offset,
        "train_accuracy": accuracy(train_scores, train.labels, offset),
        "test_accuracy": accuracy(test_scores, test.labels, offset),
        "train_auc": auc(train_scores, train.labels),
        "test_auc": auc(test_scores, test.labels),
    }
    error = float(np.max(np.abs(reference - train_scores)))
    record = _record(
        name, len(ensemble), float(np.min(train_margins)), error, train_margins,
        sparsify_report, fields,
    )
    return record, train_scores


def run_compare(config: RunConfig) -> dict:
    """Run the four-method comparison and write report plus curves.

    On failure the partial report is still written, with a failure marker,
    before the exception propagates.
    """
    _require_paths(config)
    out_dir = Path(config.out_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "mode": "matrix" if config.matrix_mode else "dataset",
        "config": config.echo(),
        "methods": [],
    }
    try:
        if config.matrix_mode:
            _compare_matrix(config, payload)
        else:
            _compare_datasets(config, payload)
    except Exception as exc:
        payload["failed"] = {"error": f"{type(exc).__name__}: {exc}"}
        payload["timing_seconds"] = time.perf_counter() - started
        write_json_report(out_dir / "report.json", payload)
        raise
    payload["timing_seconds"] = time.perf_counter() - started
    text = FloatText()  # each curve column formatted once for both files
    write_json_report(out_dir / "report.json", payload, text)
    for record in payload["methods"]:
        write_curve_csv(out_dir / f"curve_{record['method']}.csv", record["curve"], text)
    return payload


def _compare_datasets(config: RunConfig, payload: dict) -> None:
    train = load_dataset(config.train_path)
    test = load_dataset(config.test_path)
    T = config.target
    rounds = config.rounds
    if rounds is None:
        rounds = budget_multiplier(train.n_points, T) * T
    full, sparsified, report = sparsiboost(
        train, T, coloring=_coloring(config.spencer_constant), rounds=rounds
    )
    truncated = adaboost_v(train, min(T, rounds))
    sampled_w = importance_sample(
        full.weights.normalized(), min(T, len(full)), split_seed(config.seed, 3)
    )
    payload["rounds"] = rounds
    rows = (
        ("full", full, False, None),
        ("truncated", truncated, False, None),
        ("sparsified", sparsified, True, report),
        ("sampled", prune_ensemble(full, sampled_w), True, None),
    )
    reference = None  # the full ensemble's train scores, from the first row
    for name, ensemble, fit_bias, sparsify_report in rows:
        record, scores = _dataset_record(
            name, ensemble, train, test, reference, fit_bias, sparsify_report
        )
        payload["methods"].append(record)
        reference = scores if reference is None else reference


def _compare_matrix(config: RunConfig, payload: dict) -> None:
    U, w = load_margin_matrix(config.matrix_path)
    T = min(config.target, len(w))
    sparse_w, report = sparsify(U, w, T, config=_coloring(config.spencer_constant))
    rows = (
        ("full", w, None),
        ("truncated", truncate_top(w, T), None),
        ("sparsified", sparse_w, report),
        ("sampled", importance_sample(w, T, split_seed(config.seed, 3)), None),
    )
    for name, weights, sparsify_report in rows:
        payload["methods"].append(_record(
            name, weights.support_size, min_margin(U, weights),
            sup_norm_diff(U, w, weights), margins(U, weights), sparsify_report,
        ))


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and #-comments ignored."""
    values: dict[str, str] = {}
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise FileFormatError(
                    f"{path}: line {line_no}: expected key=value"
                )
            key, _, value = text.partition("=")
            values[key.strip()] = value.strip()
    return values


_CONFIG_KEYS = {
    "seed": int,
    "target": int,
    "rounds": int,
    "ks": float,
    "train": str,
    "test": str,
    "matrix": str,
    "model": str,
    "data": str,
    "out": str,
    "matrix_mode": lambda v: v.lower() in ("1", "true", "yes"),
}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """File values fill in only the options the command line left unset."""
    if getattr(args, "config", None) is None:  # train has no --config
        return args
    values = parse_config_file(args.config)
    unknown = set(values) - set(_CONFIG_KEYS)
    if unknown:
        raise FileFormatError(
            f"{args.config}: unknown config keys: {', '.join(sorted(unknown))}"
        )
    for key, raw in values.items():
        # Unset is None, or False for a store_true flag; a 0 was given.
        current = getattr(args, key, True)
        if current is None or current is False:
            try:
                value = _CONFIG_KEYS[key](raw)
            except ValueError:
                raise FileFormatError(
                    f"{args.config}: {key}: cannot parse {raw!r}"
                ) from None
            setattr(args, key, value)
    return args


# The RunConfig field of each compare option.
_RUN_CONFIG_FIELDS = {
    "seed": "seed", "target": "target", "rounds": "rounds", "ks": "spencer_constant",
    "train": "train_path", "test": "test_path", "matrix": "matrix_path",
    "out": "out_path", "matrix_mode": "matrix_mode",
}


def _run_config_from(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of the compare options that were set; RunConfig's
    defaults fill in the rest."""
    options = vars(args)
    return RunConfig(**{
        field: options[key]
        for key, field in _RUN_CONFIG_FIELDS.items()
        if options[key] is not None
    })


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    ensemble = adaboost_v(dataset, args.rounds)
    ensure_parent(args.out)
    save_ensemble(args.out, ensemble)
    w = ensemble.weights.normalized()
    scores = predict_scores(Ensemble(ensemble.hypotheses, w), dataset)
    summary = {
        "rounds_trained": len(ensemble),
        "stopped_early": ensemble.stopped_early,
        "train_min_margin": float(np.min(dataset.labels * scores)),
        "train_accuracy": accuracy(scores, dataset.labels),
        "model": str(args.out),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _load_model_and_data(args: argparse.Namespace) -> tuple[Ensemble, Dataset]:
    ensemble = load_ensemble(args.model)
    dataset = load_dataset(args.data)
    feature = max(stump.feature for stump in ensemble.hypotheses)
    if feature >= dataset.n_features:
        raise FileFormatError(
            f"{args.model}: a stump reads feature {feature}, "
            f"but {args.data} has {dataset.n_features} features"
        )
    return ensemble, dataset


def _load_matrix_or_model(args: argparse.Namespace) -> tuple[MarginMatrix, WeightVector, Ensemble | None]:
    if args.matrix:
        U, w = load_margin_matrix(args.matrix)
        return U, w, None
    if not (args.model and args.data):
        raise ValueError("need either --matrix or both --model and --data")
    ensemble, dataset = _load_model_and_data(args)
    U = build_margin_matrix(dataset, ensemble)
    return U, ensemble.weights.normalized(), ensemble


def _cmd_sparsify(args: argparse.Namespace) -> int:
    coloring = _coloring(args.ks)
    U, w, ensemble = _load_matrix_or_model(args)
    T = min(args.target, len(w))
    sparse_w, report = sparsify(U, w, T, config=coloring)
    _write_weights_output(args.out, sparse_w, ensemble)
    print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    seed = args.seed or 0
    _check_seed(seed)
    U, w, ensemble = _load_matrix_or_model(args)
    T = min(args.target, len(w))
    sampled = importance_sample(w, T, split_seed(seed, 3))
    _write_weights_output(args.out, sampled, ensemble)
    summary = {
        "support": sampled.support_size,
        "sup_norm_error": sup_norm_diff(U, w, sampled),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _write_weights_output(path, weights: WeightVector, ensemble: Ensemble | None) -> None:
    ensure_parent(path)
    if ensemble is None:
        with open(path, "w") as handle:
            json.dump({"weights": [float(v) for v in weights.values]}, handle, indent=2)
            handle.write("\n")
    else:
        save_ensemble(path, prune_ensemble(ensemble, weights))


def _cmd_eval(args: argparse.Namespace) -> int:
    ensemble, dataset = _load_model_and_data(args)
    scores = predict_scores(
        Ensemble(ensemble.hypotheses, ensemble.weights.normalized()), dataset
    )
    if args.fit_bias:
        offset, train_acc = bias_correct(scores, dataset.labels)
    else:
        offset = args.offset
        train_acc = accuracy(scores, dataset.labels, offset)
    payload = {
        "offset": offset,
        "accuracy": train_acc,
        "auc": auc(scores, dataset.labels),
        "min_margin": float(np.min(dataset.labels * scores)),
    }
    if args.out:
        ensure_parent(args.out)
        write_json_report(args.out, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_margins(args: argparse.Namespace) -> int:
    U, w, _ = _load_matrix_or_model(args)
    curve = cumulative_margin_curve(margins(U, w))
    ensure_parent(args.out)
    write_curve_csv(args.out, curve)
    print(f"wrote {len(curve)} curve points to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _run_config_from(args)
    payload = run_compare(config)
    lines = []
    for record in payload["methods"]:
        lines.append(
            f"{record['method']:>11}: {record['hypothesis_count']:4d} hypotheses, "
            f"min margin {record['min_margin']:+.4f}, "
            f"sup error vs full {record['sup_norm_error_vs_full']:.4f}"
        )
    print("\n".join(lines))
    print(f"report: {Path(config.out_path) / 'report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsevote",
        description="Sparsify weighted voting ensembles while preserving margins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train an AdaBoostV stump ensemble")
    p_train.add_argument("--data", required=True, help="training CSV (label first)")
    p_train.add_argument("--rounds", type=int, required=True)
    p_train.add_argument("--out", required=True, help="output model JSON")
    p_train.set_defaults(func=_cmd_train)

    for name, func, helptext in (
        ("sparsify", _cmd_sparsify, "halve ensemble weights down to T hypotheses"),
        ("sample", _cmd_sample, "importance-sample ensemble weights to T draws"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--matrix", default=None, help="margin-matrix text file")
        p.add_argument("--model", default=None, help="ensemble model JSON")
        p.add_argument("--data", default=None, help="dataset CSV for the model")
        p.add_argument("--target", "-T", type=int, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--config", default=None, help="key=value config file")
        if func is _cmd_sparsify:
            p.add_argument("--ks", type=float, default=None, help="coloring bound constant")
        else:
            p.add_argument("--seed", type=int, default=None, help="root RNG seed")
        p.set_defaults(func=func)

    p_eval = sub.add_parser("eval", help="score a model on a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--offset", type=float, default=0.0)
    p_eval.add_argument("--fit-bias", action="store_true", dest="fit_bias")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--config", default=None, help="key=value config file")
    p_eval.set_defaults(func=_cmd_eval)

    p_margins = sub.add_parser("margins", help="write the cumulative-margin curve")
    p_margins.add_argument("--matrix", default=None)
    p_margins.add_argument("--model", default=None)
    p_margins.add_argument("--data", default=None)
    p_margins.add_argument("--out", required=True)
    p_margins.add_argument("--config", default=None, help="key=value config file")
    p_margins.set_defaults(func=_cmd_margins)

    p_compare = sub.add_parser("compare", help="full four-method comparison")
    p_compare.add_argument("--train", default=None)
    p_compare.add_argument("--test", default=None)
    p_compare.add_argument("--matrix", default=None)
    p_compare.add_argument("--matrix-mode", action="store_true", dest="matrix_mode")
    p_compare.add_argument("--target", "-T", type=int, default=None)
    p_compare.add_argument("--rounds", type=int, default=None)
    p_compare.add_argument("--out", default=None)
    p_compare.add_argument("--seed", type=int, default=None, help="root RNG seed")
    p_compare.add_argument("--config", default=None, help="key=value config file")
    p_compare.add_argument("--ks", type=float, default=None, help="coloring bound constant")
    p_compare.set_defaults(func=_cmd_compare)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parsing keeps no
    state in it, and every call of main would otherwise rebuild it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(_merge_config(args))
    except (FileFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # an internal check failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
