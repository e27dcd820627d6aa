"""Sparse confidence-based metric learning with ranking supervision."""

from .dataset import Dataset
from .data_io import DatasetSchema, SynthConfig, load_csv, save_csv, split, synth_generate
from .errors import (
    ConfmetricError,
    DegenerateClassError,
    DimensionMismatchError,
    MissingSupervisionError,
    NumericalFailureError,
    SchemaMismatchError,
    UndefinedMetricError,
    ValidationError,
)
from .experiment import (
    ExperimentConfig,
    ResultRecord,
    SummaryRow,
    run_experiment,
    summarize,
    write_results_csv,
    write_summary_csv,
)
from .evaluate import (
    FeatureWeightStats,
    auroc,
    feature_weight_stats,
    heatmap_matrix,
    n_zero_rows,
    row_rank,
    sparsity,
)
from .metric import (
    confidence_score,
    kernel_similarity,
    positive_scores,
    squared_distance,
)
from .model_io import ModelFile, load_model, save_model, schema_fingerprint
from .objective import (
    LossBreakdown,
    RankingPairs,
    build_ranking_pairs,
    camel_cl_loss,
    camel_loss,
    similarity_scores,
    smooth_gradient,
)
from .optimize import TrainConfig, TrainTrace, fit, init_metric, soft_threshold

ObjectiveConfig = TrainConfig  # former name of the lambda weights' config

__version__ = "0.1.0"

__all__ = [
    "Dataset", "DatasetSchema", "SynthConfig", "load_csv", "save_csv",
    "split", "synth_generate",
    "ConfmetricError", "DegenerateClassError",
    "DimensionMismatchError", "MissingSupervisionError",
    "NumericalFailureError", "SchemaMismatchError", "UndefinedMetricError",
    "ValidationError",
    "ExperimentConfig", "ResultRecord", "SummaryRow", "run_experiment",
    "summarize", "write_results_csv", "write_summary_csv",
    "FeatureWeightStats", "auroc", "feature_weight_stats",
    "heatmap_matrix", "n_zero_rows", "row_rank", "sparsity",
    "confidence_score", "kernel_similarity",
    "positive_scores", "similarity_scores", "squared_distance",
    "ModelFile", "load_model", "save_model", "schema_fingerprint",
    "LossBreakdown", "RankingPairs",
    "build_ranking_pairs", "camel_cl_loss", "camel_loss",
    "smooth_gradient",
    "TrainConfig", "TrainTrace", "fit", "init_metric", "soft_threshold",
]
