"""Sparsify weighted voting ensembles while provably preserving margins.

The library trains AdaBoostV stump ensembles, replaces a large ensemble's
weighting with a sparse one whose margins stay uniformly close via
discrepancy-minimizing weight halving, and benchmarks the result against
importance sampling and plain truncation.
"""
from .boosting import (
    Dataset,
    DecisionStump,
    Ensemble,
    adaboost_v,
    budget_multiplier,
    lp_optimal_margin,
    sparsiboost,
    train_stump,
)
from .discrepancy import (
    DEFAULT_CONFIG,
    ColoringConfig,
    DiscrepancyBoundError,
    bruteforce_min_discrepancy,
    discrepancy,
    full_coloring,
    halve_columns,
    minority_sign,
    partial_coloring,
    spencer_bound,
)
from .evaluation import (
    UndefinedMetricError,
    accuracy,
    auc,
    bias_correct,
    predict_scores,
)
from .fileio import (
    FileFormatError,
    load_dataset,
    load_ensemble,
    load_margin_matrix,
    save_dataset,
    save_ensemble,
    save_margin_matrix,
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
from .seeding import as_seed_sequence, rng_from, split_seed
from .sparsify import (
    SparsifyReport,
    halve,
    halving_error_bound,
    importance_sample,
    sparsify,
    truncate_top,
)

__version__ = "0.1.0"

__all__ = [
    "ColoringConfig",
    "DEFAULT_CONFIG",
    "Dataset",
    "DecisionStump",
    "DiscrepancyBoundError",
    "Ensemble",
    "FileFormatError",
    "MarginMatrix",
    "SparsifyReport",
    "UndefinedMetricError",
    "WeightVector",
    "accuracy",
    "adaboost_v",
    "as_seed_sequence",
    "auc",
    "bias_correct",
    "bruteforce_min_discrepancy",
    "budget_multiplier",
    "build_margin_matrix",
    "cumulative_margin_curve",
    "discrepancy",
    "full_coloring",
    "halve",
    "halve_columns",
    "halving_error_bound",
    "importance_sample",
    "load_dataset",
    "load_ensemble",
    "load_margin_matrix",
    "lp_optimal_margin",
    "margins",
    "min_margin",
    "minority_sign",
    "partial_coloring",
    "predict_scores",
    "rng_from",
    "save_dataset",
    "save_ensemble",
    "save_margin_matrix",
    "sparsiboost",
    "sparsify",
    "spencer_bound",
    "split_seed",
    "sup_norm_diff",
    "train_stump",
    "truncate_top",
    "write_curve_csv",
    "write_json_report",
]
