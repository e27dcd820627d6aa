"""Dataset ingestion, synthetic generation, and seeded splitting.

CSV interface: UTF-8, comma-separated, header row required, '.' decimal
separator, no thousands separators. An empty string in the confidence
column means the confidence is missing; confidences must be either all
present or all absent.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .dataset import Dataset
from .errors import ValidationError

# distinct RNG stream tags so equal seeds never alias across functions
_SYNTH_STREAM = 1
_SPLIT_STREAM = 2


def read_json_config(path, what: str) -> dict:
    """Parse a JSON config file; a syntax error is a ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid {what}: {exc}") from None


def check_config_keys(raw, required, optional, what: str):
    """Require raw to be a JSON object holding every required key and no
    key outside required and optional."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must be a JSON object")
    missing = sorted(set(required) - set(raw))
    if missing:
        raise ValidationError(f"{what} is missing keys {missing}")
    unknown = sorted(set(raw) - set(required) - set(optional))
    if unknown:
        raise ValidationError(f"{what} has unknown keys {unknown}")


def _integers(*values) -> bool:
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in values)


def _require_columns(reader: csv.DictReader, columns):
    missing = [c for c in columns if c not in (reader.fieldnames or [])]
    if missing:
        raise ValidationError(f"header is missing columns: {missing}")


def _parse_numbers(row: dict, columns, rownum: int) -> list[float]:
    """The named cells of one CSV row as finite floats; anything else is a
    ValidationError naming the row, the column and the text."""
    values = []
    for col in columns:
        text = row.get(col)
        try:
            v = float(text)
        except (TypeError, ValueError):
            v = math.nan
        if not math.isfinite(v):
            raise ValidationError(
                f"row {rownum}, column {col!r}: {text!r} is not a finite number"
            )
        values.append(v)
    return values


@dataclass(frozen=True)
class DatasetSchema:
    feature_columns: list[str]
    label_column: str
    confidence_column: str | None = None
    id_column: str | None = None

    def __post_init__(self):
        if not self.feature_columns:
            raise ValidationError("feature_columns must be nonempty")
        names = list(self.feature_columns) + [self.label_column]
        if self.confidence_column is not None:
            names.append(self.confidence_column)
        if self.id_column is not None:
            names.append(self.id_column)
        if len(names) != len(set(names)):
            raise ValidationError("schema column names must be distinct")


@dataclass(frozen=True)
class SynthConfig:
    n: int
    m: int
    m_informative: int
    class_balance: float = 0.5
    cluster_separation: float = 2.0
    confidence_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not _integers(self.n, self.m, self.m_informative, self.seed):
            raise ValidationError("n, m, m_informative and seed must be integers")
        if not 1 <= self.m_informative <= self.m:
            raise ValidationError("m_informative must lie in [1, m]")
        if self.n < 4:
            raise ValidationError("n must be at least 4")
        if not 0.0 < self.class_balance < 1.0:
            raise ValidationError("class_balance must lie in (0, 1)")
        if self.cluster_separation < 0:
            raise ValidationError("cluster_separation must be nonnegative")
        if self.confidence_noise < 0:
            raise ValidationError("confidence_noise must be nonnegative")

    @classmethod
    def from_dict(cls, raw, what: str = "synth config") -> "SynthConfig":
        names = [f.name for f in fields(cls)]
        required = [f.name for f in fields(cls) if f.default is MISSING]
        check_config_keys(raw, required, names, what)
        try:
            return cls(**raw)
        except TypeError as exc:  # e.g. a string where a number belongs
            raise ValidationError(f"invalid {what}: {exc}") from None


def load_csv(path, schema: DatasetSchema) -> tuple[Dataset, list[str] | None]:
    """Parse a CSV file against a schema.

    Returns the dataset and, when the schema names an id column, the row
    ids in file order. Parse failures name the row, column, and offending
    text.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        needed = list(schema.feature_columns) + [schema.label_column]
        if schema.confidence_column is not None:
            needed.append(schema.confidence_column)
        if schema.id_column is not None:
            needed.append(schema.id_column)
        _require_columns(reader, needed)

        X_rows, labels, confs, ids = [], [], [], []
        for rownum, row in enumerate(reader, start=2):  # header is line 1
            feats = _parse_numbers(row, schema.feature_columns, rownum)
            text = row[schema.label_column]
            if text not in ("0", "1"):
                raise ValidationError(
                    f"row {rownum}, column {schema.label_column!r}: "
                    f"label must be 0 or 1, got {text!r}"
                )
            labels.append(int(text))
            if schema.confidence_column is not None:
                col = schema.confidence_column
                if row[col] == "" or row[col] is None:
                    confs.append(None)
                else:
                    (v,) = _parse_numbers(row, [col], rownum)
                    if not 0.0 <= v <= 1.0:
                        raise ValidationError(
                            f"row {rownum}, column {col!r}: "
                            f"confidence {row[col]!r} outside [0, 1]"
                        )
                    confs.append(v)
            if schema.id_column is not None:
                ids.append(row[schema.id_column])
            X_rows.append(feats)

    if not X_rows:
        raise ValidationError("CSV contains no data rows")
    c = None
    if schema.confidence_column is not None:
        present = [v is not None for v in confs]
        if all(present):
            c = np.array(confs, dtype=np.float64)
        elif any(present):
            bad = present.index(False) + 2
            raise ValidationError(
                f"confidence column is partially populated (first empty at row {bad})"
            )
    data = Dataset(np.array(X_rows), np.array(labels), c)
    return data, (ids if schema.id_column is not None else None)


def save_csv(path, data: Dataset, schema: DatasetSchema | None = None) -> DatasetSchema:
    """Write a dataset to CSV with round-trip-exact float formatting."""
    if schema is None:
        schema = DatasetSchema(
            feature_columns=[f"f{j}" for j in range(data.m)],
            label_column="label",
            confidence_column="confidence" if data.c is not None else None,
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(schema.feature_columns) + [schema.label_column]
        if schema.confidence_column is not None:
            header.append(schema.confidence_column)
        writer.writerow(header)
        for i in range(data.n):
            row = [repr(float(v)) for v in data.X[i]] + [str(int(data.y[i]))]
            if schema.confidence_column is not None:
                row.append(repr(float(data.c[i])) if data.c is not None else "")
            writer.writerow(row)
    return schema


def synth_generate(cfg: SynthConfig) -> tuple[Dataset, np.ndarray]:
    """Two-Gaussian synthetic data with exact posteriors and noisy confidences.

    Classes are unit-variance Gaussians whose means differ only in the first
    m_informative coordinates, with Euclidean distance cluster_separation
    between them; the remaining coordinates are identical noise. Returns the
    dataset and the exact positive-class posterior P(y=1 | x) of every
    instance. Confidence labels are the posterior of the instance's own
    label plus clamped Gaussian noise.
    """
    rng = np.random.default_rng([cfg.seed, _SYNTH_STREAM])
    n1 = round(cfg.n * cfg.class_balance)
    n0 = cfg.n - n1
    if n0 < 2 or n1 < 2:
        raise ValidationError("class balance leaves fewer than 2 instances in a class")
    y = np.zeros(cfg.n, dtype=np.int64)
    y[rng.permutation(cfg.n)[:n1]] = 1

    offset = cfg.cluster_separation / (2.0 * np.sqrt(cfg.m_informative))
    mu = np.zeros(cfg.m)
    mu[: cfg.m_informative] = offset  # class means at +/- mu
    X = rng.standard_normal((cfg.n, cfg.m))
    X += np.where(y[:, None] == 1, mu, -mu)

    # exact posterior of the generating mixture (identity covariances)
    prior_logit = np.log(cfg.class_balance / (1.0 - cfg.class_balance))
    logit = prior_logit + X @ (2.0 * mu)
    posterior1 = 1.0 / (1.0 + np.exp(-logit))

    p_own = np.where(y == 1, posterior1, 1.0 - posterior1)
    if cfg.confidence_noise > 0:
        c = np.clip(p_own + rng.normal(0.0, cfg.confidence_noise, cfg.n), 0.0, 1.0)
    else:
        c = p_own.copy()
    return Dataset(X, y, c), posterior1


def split(data: Dataset, train_n: int, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded (train, validation, test) partition.

    train_n instances are drawn uniformly for training; the remainder is
    split as evenly as possible, with validation taking the extra element
    when odd. Rows keep the permutation order, so prefixes of the train set
    are themselves uniform subsamples.
    """
    if data.n - train_n < 2:
        raise ValidationError("train_n leaves fewer than 2 held-out instances")
    if train_n < 1:
        raise ValidationError("train_n must be positive")
    rng = np.random.default_rng([seed, _SPLIT_STREAM])
    perm = rng.permutation(data.n)
    rest = perm[train_n:]
    n_val = (len(rest) + 1) // 2
    return (
        data.subset(perm[:train_n]),
        data.subset(rest[:n_val]),
        data.subset(rest[n_val:]),
    )
