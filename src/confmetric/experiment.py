"""Learning-curve experiment harness.

Each trial draws a seeded train/validation/test split; for every train-set
size (a prefix of the trial's train pool, so smaller sets nest inside
larger ones) and every method, hyperparameters are grid-searched on
validation AUROC and the winner is scored on the test set. Everything is
deterministic in the config seed; result records are emitted in canonical
(trial, train_size, method) order, the loop order itself (train sizes are
strictly ascending and methods distinct), so repeated runs are
byte-identical.

Validation and test rows are scored by ``metric.positive_scores``, the
package's one query scorer, which gives every finite row a score from its
class evidence, however far the row lies from the training rows; a held-out
row whose projection overflows makes its cell a ``numerical-failure``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .data_io import (
    DatasetSchema,
    SynthConfig,
    _integers,
    check_config_keys,
    config_from_dict,
    load_csv,
    split,
    synth_generate,
    write_csv,
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
    seed: int = 0
    synth: SynthConfig | None = None
    csv_path: str | None = None
    csv_schema: DatasetSchema | None = None
    proj_dim: int | None = TrainConfig.proj_dim
    max_iters: int = TrainConfig.max_iters

    def __post_init__(self):
        if not _integers(self.trials, self.seed, *self.train_sizes):
            raise ValidationError("trials, train_sizes and seed must be integers")
        if self.trials < 1:
            raise ValidationError("trials must be positive")
        sizes = list(self.train_sizes)
        if not sizes or sorted(set(sizes)) != sizes or sizes[0] < 1:
            raise ValidationError(
                "train_sizes must be nonempty, positive and strictly ascending")
        if not self.lambda1_grid:
            raise ValidationError("lambda1 grid must be nonempty")
        if (not self.methods or any(m not in METHODS for m in self.methods)
                or len(set(self.methods)) != len(self.methods)):
            raise ValidationError(
                f"methods must be a nonempty list of distinct names from {METHODS}"
            )
        if "camel_cl" in self.methods and not self.lambda2_grid:
            raise ValidationError("lambda2 grid must be nonempty for camel_cl")
        if (self.synth is None) == (self.csv_path is None):
            raise ValidationError("exactly one data source (synth or csv) is required")
        if (self.csv_schema is None) != (self.csv_path is None):
            raise ValidationError("csv_schema is required exactly when csv_path is given")
        if self.csv_path is not None and not isinstance(self.csv_path, str):
            raise ValidationError("the csv path must be a string")
        # TrainConfig checks max_iters, proj_dim, seed and every grid cell, used or not
        for method in METHODS:
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
        grid = raw.get("hyper_grid", {})
        check_config_keys(grid, (), ("lambda1", "lambda2"), "hyper_grid")
        data = raw["data"]
        check_config_keys(data, (), ("synth", "csv"), "data")
        sources = {}
        if "synth" in data:
            sources["synth"] = config_from_dict(SynthConfig, data["synth"], "data.synth")
        if "csv" in data:
            sources["csv_schema"] = config_from_dict(DatasetSchema, data["csv"], "data.csv",
                                                     extra=("path",))
            sources["csv_path"] = data["csv"]["path"]
        try:
            return cls(
                trials=raw["trials"],
                train_sizes=_json_array(raw, "train_sizes", "train_sizes"),
                lambda1_grid=_json_array(grid, "lambda1", "hyper_grid.lambda1"),
                lambda2_grid=_json_array(grid, "lambda2", "hyper_grid.lambda2"),
                methods=_json_array(raw, "methods", "methods", METHODS),
                **sources,
                **{k: raw[k] for k in ("seed", "proj_dim", "max_iters") if k in raw},
            )
        except ValidationError as exc:
            raise ValidationError(f"invalid experiment config: {exc}") from None


def _json_array(obj: dict, key: str, name: str, default=()) -> list:
    """A copy of obj[key] (default when absent), which must be a JSON array: a
    string there would otherwise be read as a list of its characters."""
    value = obj.get(key, list(default))
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a JSON array")
    return list(value)


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


def _load_experiment_data(cfg: ExperimentConfig) -> Dataset:
    if cfg.synth is not None:
        return synth_generate(cfg.synth)[0]
    return load_csv(cfg.csv_path, cfg.csv_schema)[0]


def run_experiment(cfg: ExperimentConfig) -> list[ResultRecord]:
    data = _load_experiment_data(cfg)
    records = []
    for trial in range(cfg.trials):
        trial_seed = cfg.seed + 7919 * trial
        train_pool, val, test = split(data, cfg.train_sizes[-1], trial_seed)
        for size in cfg.train_sizes:
            train = train_pool.subset(np.arange(size))
            for method in cfg.methods:
                rec = ResultRecord(trial=trial, train_size=size, method=method)
                try:
                    rec = _run_cell(cfg, rec, train, val, test, trial_seed)
                except ConfmetricError as exc:
                    rec.error = f"{exc.code}: {exc}"
                records.append(rec)
    return records


def _run_cell(cfg, rec, train, val, test, trial_seed) -> ResultRecord:
    best = None  # (val_auroc, L, TrainConfig); first cell wins ties
    for tc in cfg.train_configs(rec.method, trial_seed):
        L, _ = fit(train, tc)
        val_auc = auroc(positive_scores(L, train, val.X), val.y)
        if best is None or val_auc > best[0]:
            best = (val_auc, L, tc)
    val_auc, L, tc = best
    test_auc = auroc(positive_scores(L, train, test.X), test.y)
    # filled only once test scoring succeeds: a failed cell keeps every figure empty
    rec.val_auroc, rec.test_auroc = val_auc, test_auc
    rec.lambda1, rec.lambda2 = float(tc.lambda1), float(tc.lambda2)  # a grid cell 4 is 4.0
    rec.sparsity = sparsity(L)
    rec.row_rank = row_rank(L)
    return rec


def write_results_csv(path, records: list[ResultRecord]):
    write_csv(path, [f.name for f in fields(ResultRecord)], map(astuple, records))


@dataclass
class SummaryRow:
    """One summary.csv row; a metric's mean and ci95 are None if no trial succeeded."""
    train_size: int
    method: str
    n_trials: int
    n_ok: int
    mean_test_auroc: float | None
    ci95_test_auroc: float | None
    mean_sparsity: float | None
    ci95_sparsity: float | None
    mean_row_rank: float | None
    ci95_row_rank: float | None


def summarize(records: list[ResultRecord]) -> list[SummaryRow]:
    """Mean and 95% normal-approximation interval per (train_size, method)."""
    cells: dict[tuple[int, str], list[ResultRecord]] = {}
    for r in records:
        cells.setdefault((r.train_size, r.method), []).append(r)
    rows = []
    for (size, method), cell in sorted(cells.items()):
        ok = [r for r in cell if r.error is None]
        stats = {}
        for name in ("test_auroc", "sparsity", "row_rank"):
            vals = np.array([getattr(r, name) for r in ok], dtype=np.float64)
            stats[f"mean_{name}"] = stats[f"ci95_{name}"] = None
            if len(vals):
                se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
                stats[f"mean_{name}"], stats[f"ci95_{name}"] = float(vals.mean()), 1.96 * se
        rows.append(SummaryRow(size, method, len(cell), len(ok), **stats))
    return rows


def write_summary_csv(path, rows: list[SummaryRow]):
    write_csv(path, [f.name for f in fields(SummaryRow)], map(astuple, rows))
