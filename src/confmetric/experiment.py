"""Learning-curve experiment harness.

Each trial draws a seeded train/validation/test split; for every train-set
size (a prefix of the trial's train pool, so smaller sets nest inside
larger ones) and every method, hyperparameters are grid-searched on
validation AUROC and the winner is scored on the test set. Everything is
deterministic in the config seed; result records are emitted in canonical
(trial, train_size, method) order so repeated runs are byte-identical.

Validation and test rows are scored by ``metric.positive_scores``, the
package's one query scorer, which ``predict`` also uses.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .data_io import (
    DatasetSchema,
    SynthConfig,
    _integers,
    check_config_keys,
    load_csv,
    read_json_config,
    split,
    synth_generate,
)
from .dataset import Dataset
from .errors import ConfmetricError, ValidationError
from .evaluate import auroc, row_rank, sparsity
from .metric import positive_scores
from .optimize import TrainConfig, fit

METHODS = ("camel", "camel_cl")


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int
    train_sizes: list[int]
    lambda1_grid: list[float]
    lambda2_grid: list[float]
    methods: list[str]
    seed: int
    synth: SynthConfig | None = None
    csv_path: str | None = None
    csv_schema: DatasetSchema | None = None
    proj_dim: int | None = None
    max_iters: int = 500

    def __post_init__(self):
        if not _integers(self.trials, self.seed, self.max_iters, *self.train_sizes):
            raise ValidationError(
                "trials, train_sizes, seed and max_iters must be integers"
            )
        if self.proj_dim is not None and not _integers(self.proj_dim):
            raise ValidationError("proj_dim must be an integer")
        if self.trials < 1:
            raise ValidationError("trials must be positive")
        if not self.train_sizes or sorted(self.train_sizes) != list(self.train_sizes):
            raise ValidationError("train_sizes must be a nonempty ascending list")
        if not self.lambda1_grid:
            raise ValidationError("lambda1 grid must be nonempty")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ValidationError(f"methods must be a nonempty subset of {METHODS}")
        if "camel_cl" in self.methods and not self.lambda2_grid:
            raise ValidationError("lambda2 grid must be nonempty for camel_cl")
        if (self.synth is None) == (self.csv_path is None):
            raise ValidationError("exactly one data source (synth or csv) is required")
        for method in self.methods:  # TrainConfig validates each grid cell
            self.train_configs(method, self.seed)

    def train_configs(self, method: str, seed: int) -> list[TrainConfig]:
        """One TrainConfig per hyperparameter cell of a method, in declaration
        order; camel ignores the lambda2 grid and trains with lambda2 = 0."""
        lambda2_grid = self.lambda2_grid if method == "camel_cl" else [0.0]
        return [
            TrainConfig(lambda1=l1, lambda2=l2, proj_dim=self.proj_dim,
                        max_iters=self.max_iters, seed=seed)
            for l1 in self.lambda1_grid for l2 in lambda2_grid
        ]

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        check_config_keys(raw, ("trials", "train_sizes", "data"),
                          ("hyper_grid", "methods", "seed", "proj_dim", "max_iters"),
                          "experiment config")
        try:
            grid = raw.get("hyper_grid", {})
            check_config_keys(grid, (), ("lambda1", "lambda2"), "hyper_grid")
            data = raw["data"]
            check_config_keys(data, (), ("synth", "csv"), "data")
            synth = csv_path = csv_schema = None
            if "synth" in data:
                synth = SynthConfig.from_dict(data["synth"], "data.synth")
            if "csv" in data:
                src = data["csv"]
                check_config_keys(src, ("path", "feature_columns", "label_column"),
                                  ("confidence_column", "id_column"), "data.csv")
                csv_path = src["path"]
                csv_schema = DatasetSchema(
                    feature_columns=list(src["feature_columns"]),
                    label_column=src["label_column"],
                    confidence_column=src.get("confidence_column"),
                    id_column=src.get("id_column"),
                )
            return cls(
                trials=raw["trials"],
                train_sizes=list(raw["train_sizes"]),
                lambda1_grid=[float(v) for v in grid.get("lambda1", [])],
                lambda2_grid=[float(v) for v in grid.get("lambda2", [])],
                methods=list(raw.get("methods", list(METHODS))),
                seed=raw.get("seed", 0),
                synth=synth,
                csv_path=csv_path,
                csv_schema=csv_schema,
                proj_dim=raw.get("proj_dim"),
                max_iters=raw.get("max_iters", 500),
            )
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:  # e.g. a string where a list belongs
            raise ValidationError(f"invalid experiment config: {exc}") from None


@dataclass
class ResultRecord:
    trial: int
    train_size: int
    method: str
    lambda1: float | None = None
    lambda2: float | None = None
    val_auroc: float | None = None
    test_auroc: float | None = None
    sparsity: float | None = None
    row_rank: int | None = None
    error: str | None = None


RESULT_FIELDS = [
    "trial", "train_size", "method", "lambda1", "lambda2",
    "val_auroc", "test_auroc", "sparsity", "row_rank", "error",
]


def _load_experiment_data(cfg: ExperimentConfig) -> Dataset:
    if cfg.synth is not None:
        data, _ = synth_generate(cfg.synth)
        return data
    data, _ = load_csv(cfg.csv_path, cfg.csv_schema)
    return data


def run_experiment(cfg: ExperimentConfig) -> list[ResultRecord]:
    data = _load_experiment_data(cfg)
    max_size = cfg.train_sizes[-1]
    if max_size >= data.n:
        raise ValidationError("largest train size must be below the dataset size")

    records = []
    for trial in range(cfg.trials):
        trial_seed = cfg.seed + 7919 * trial
        train_pool, val, test = split(data, max_size, trial_seed)
        for size in cfg.train_sizes:
            train = train_pool.subset(np.arange(size))
            for method in cfg.methods:
                rec = ResultRecord(trial=trial, train_size=size, method=method)
                try:
                    rec = _run_cell(cfg, rec, train, val, test, trial_seed)
                except ConfmetricError as exc:
                    rec.error = f"{exc.code}: {exc}"
                records.append(rec)
    records.sort(key=lambda r: (r.trial, r.train_size, cfg.methods.index(r.method)))
    return records


def _run_cell(cfg, rec, train, val, test, trial_seed) -> ResultRecord:
    use_conf = rec.method == "camel_cl"
    train_data = train if use_conf else train.without_confidences()
    best = None  # (val_auroc, L, l1, l2); first cell wins ties
    for tc in cfg.train_configs(rec.method, trial_seed):
        L, _ = fit(train_data, tc)
        val_auc = auroc(positive_scores(L, train_data, val.X), val.y)
        if best is None or val_auc > best[0]:
            best = (val_auc, L, tc.lambda1, tc.lambda2)
    val_auc, L, l1, l2 = best
    rec.lambda1, rec.lambda2 = l1, l2
    rec.val_auroc = val_auc
    rec.test_auroc = auroc(positive_scores(L, train, test.X), test.y)
    rec.sparsity = sparsity(L)
    rec.row_rank = row_rank(L)
    return rec


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_results_csv(path, records: list[ResultRecord]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_FIELDS)
        for r in records:
            writer.writerow([_fmt(getattr(r, f)) for f in RESULT_FIELDS])


def summarize(records: list[ResultRecord]) -> list[dict]:
    """Mean and 95% normal-approximation interval per (train_size, method)."""
    cells: dict[tuple[int, str], list[ResultRecord]] = {}
    for r in records:
        cells.setdefault((r.train_size, r.method), []).append(r)
    rows = []
    for (size, method) in sorted(cells, key=lambda k: (k[0], k[1])):
        ok = [r for r in cells[(size, method)] if r.error is None]
        row = {
            "train_size": size,
            "method": method,
            "n_trials": len(cells[(size, method)]),
            "n_ok": len(ok),
        }
        for metric_name in ("test_auroc", "sparsity", "row_rank"):
            vals = np.array([getattr(r, metric_name) for r in ok], dtype=np.float64)
            if len(vals):
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
                row[f"mean_{metric_name}"] = mean
                row[f"ci95_{metric_name}"] = 1.96 * se
            else:
                row[f"mean_{metric_name}"] = None
                row[f"ci95_{metric_name}"] = None
        rows.append(row)
    return rows


def write_summary_csv(path, rows: list[dict]):
    fields = [
        "train_size", "method", "n_trials", "n_ok",
        "mean_test_auroc", "ci95_test_auroc",
        "mean_sparsity", "ci95_sparsity",
        "mean_row_rank", "ci95_row_rank",
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row.get(f)) for f in fields])


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_json_config(path, "experiment config"))
