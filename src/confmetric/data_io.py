"""Dataset ingestion, synthetic generation, and seeded splitting.

CSV interface: UTF-8, comma-separated, header row required, ASCII numbers
with a '.' decimal separator and no digit-group separators. An empty string
in the confidence column means the confidence is missing; confidences must
be either all present or all absent.

numpy's C reader parses the numeric cells. Whenever it cannot vouch for a
file, the row parser reads the file again, and it alone raises the errors
that name a row, a column and the offending text.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .dataset import Dataset
from .errors import ValidationError

# distinct RNG stream tags so equal seeds never alias across functions
_SYNTH_STREAM = 1
_SPLIT_STREAM = 2

_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 2}
# numpy's float parser strips these ASCII separators as whitespace; float() does not
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


@contextlib.contextmanager
def decoding_errors(path):
    """Turn bytes that are not UTF-8, or a row the csv module refuses (such as
    a field past its size limit), met anywhere in the block, into a
    ValidationError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise ValidationError(f"{path} is not a readable CSV file: {exc}") from None


def read_header(path) -> list[str]:
    """The header row of a CSV file; an empty file is a ValidationError."""
    with open(path, newline="", encoding="utf-8") as fh, decoding_errors(path):
        header = next(csv.reader(fh), None)
    if not header:
        raise ValidationError(f"{path}: empty file or missing header")
    return header


def write_csv(path, header, rows):
    """Write a header row (None for none) and then each row of an iterable.

    Cells are Python values: the csv module writes a float as its round-trip
    repr and None as an empty cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def read_json(path, prefix: str):
    """Parse a JSON file. Any parse failure is a ValidationError whose message
    starts with prefix: bad syntax, nesting past the recursion limit, or an
    integer longer than Python's digit limit."""
    with open(path, encoding="utf-8") as fh, decoding_errors(path):
        try:
            return json.load(fh)
        except UnicodeDecodeError:  # a ValueError that decoding_errors words
            raise
        except (RecursionError, ValueError) as exc:
            raise ValidationError(f"{prefix}: {exc}") from None


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


def _numbers(*values) -> bool:
    """True when every value is a float or an int that float() can hold, not a bool."""
    return all(isinstance(v, (float, np.floating))
               or (_integers(v) and abs(v) <= sys.float_info.max) for v in values)


def _array_fits(*dims) -> bool:
    """True when numpy can describe a float64 array of these dimensions: its
    byte count fits np.intp. A larger one fails with a ValueError, before any
    allocation could raise MemoryError."""
    return math.prod(dims) * np.dtype(np.float64).itemsize <= np.iinfo(np.intp).max


def config_from_dict(cls, raw, what: str, extra=()):
    """cls built by field name from the JSON object raw, which also holds the keys in
    extra (read by the caller); a list field must be a JSON array."""
    names = [f.name for f in fields(cls)]
    required = [f.name for f in fields(cls) if f.default is MISSING]
    check_config_keys(raw, [*required, *extra], names, what)
    for f in fields(cls):
        if str(f.type).startswith("list[") and not isinstance(raw.get(f.name, []), list):
            raise ValidationError(f"{what}.{f.name} must be a JSON array")
    try:
        return cls(**{k: v for k, v in raw.items() if k in names})
    except ValidationError as exc:
        raise ValidationError(f"invalid {what}: {exc}") from None


def _require_columns(header: list[str], columns):
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValidationError(f"header is missing columns: {missing}")


def _parse_numbers(row: dict, columns, rownum: int) -> list[float]:
    """The named cells of one CSV row as finite floats; anything else is a
    ValidationError naming the row, the column and the text."""
    values = []
    for col in columns:
        text = row.get(col)
        try:  # float() also reads digit-group underscores and non-ASCII digits
            v = float(text) if "_" not in text and text.strip().isascii() else math.nan
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
        names = [*self.feature_columns, self.label_column,
                 *(c for c in (self.confidence_column, self.id_column) if c is not None)]
        if not all(isinstance(c, str) for c in names):
            raise ValidationError("schema column names must be strings")
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
        floats = (self.class_balance, self.cluster_separation, self.confidence_noise)
        if not (_numbers(*floats) and all(math.isfinite(v) for v in floats)):
            raise ValidationError("class_balance, cluster_separation and confidence_noise "
                                  "must be finite numbers")
        if not 1 <= self.m_informative <= self.m:
            raise ValidationError("m_informative must lie in [1, m]")
        if self.n < 4:
            raise ValidationError("n must be at least 4")
        if not _array_fits(self.n, self.m):
            raise ValidationError("n * m is too large for a numpy array")
        if not 0.0 < self.class_balance < 1.0:
            raise ValidationError("class_balance must lie in (0, 1)")
        if min(self.seed, self.cluster_separation, self.confidence_noise) < 0:
            raise ValidationError(
                "seed, cluster_separation and confidence_noise must be nonnegative")


def read_columns(path, features, label=None, confidence=None, id_column=None):
    """Parse the named columns of a CSV file.

    Returns (X, y, c, ids): the feature cells as an n×len(features) float64
    array; the labels as int64; the confidences, None also when every
    confidence cell is empty; and the id cells as strings. y, c and ids are
    None when their column is not asked for.

    numpy's C reader parses the cells first. If it fails, or a cell is not
    finite, a label is not exactly "0" or "1" or a confidence is empty or
    outside [0, 1], the row parser reads the file again. It returns the same
    values bit for bit, or raises the ValidationError that names the first bad
    row, column and text. A file with no data rows is a ValidationError too.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    with decoding_errors(path):
        fh = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
        header = next(csv.reader(fh), [])
        _require_columns(header, [c for c in (*features, label, confidence, id_column)
                                  if c is not None])
        rows = None
        if not any(ch in raw for ch in _NUMPY_ONLY_SPACE):
            rows = _read_fast(fh, header, features, label, confidence, id_column)
        if rows is None:
            fh.seek(0)
            rows = _read_slow(fh, features, label, confidence, id_column)
    if not len(rows[0]):
        raise ValidationError(f"{path}: no data rows")
    return rows


def _read_fast(fh, header, features, label, confidence, id_column):
    """The columns by np.loadtxt, or None when anything needs the row parser."""
    # a repeated name stands for its last column, as in csv.DictReader
    col = {name: j for j, name in enumerate(header)}
    numeric = [*features, *([confidence] if confidence is not None else [])]
    text = [c for c in (label, id_column) if c is not None]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file has no data
            values = np.loadtxt(fh, usecols=[col[c] for c in numeric],
                                dtype=np.float64, **_LOADTXT)
            if text:
                fh.seek(0)
                next(csv.reader(fh))
                # object cells keep the text as csv reads it, NUL characters included
                cells = np.loadtxt(fh, usecols=[col[c] for c in text], dtype=object,
                                   **_LOADTXT)
    except ValueError:
        return None
    if not np.isfinite(values).all() or (text and len(cells) != len(values)):
        return None
    y = c = ids = None
    if label is not None:
        ones = cells[:, 0] == "1"
        if not (ones | (cells[:, 0] == "0")).all():
            return None
        y = ones.astype(np.int64)
    if confidence is not None:
        c = values[:, -1].copy()
        if not ((c >= 0.0) & (c <= 1.0)).all():
            return None
    if id_column is not None:
        ids = cells[:, -1].tolist()
    return np.ascontiguousarray(values[:, :len(features)]), y, c, ids


def _read_slow(fh, features, label, confidence, id_column):
    """The columns by csv.DictReader and float(), one row at a time."""
    X_rows, labels, confs, ids = [], [], [], []
    for rownum, row in enumerate(csv.DictReader(fh), start=2):  # header is line 1
        X_rows.append(_parse_numbers(row, features, rownum))
        if label is not None:
            text = row[label]
            if text not in ("0", "1"):
                raise ValidationError(
                    f"row {rownum}, column {label!r}: label must be 0 or 1, got {text!r}"
                )
            labels.append(int(text))
        if confidence is not None:
            text = row[confidence]
            if text == "" or text is None:
                confs.append(None)
            else:
                (v,) = _parse_numbers(row, [confidence], rownum)
                if not 0.0 <= v <= 1.0:
                    raise ValidationError(
                        f"row {rownum}, column {confidence!r}: "
                        f"confidence {text!r} outside [0, 1]"
                    )
                confs.append(v)
        if id_column is not None:
            ids.append(row[id_column])
    c = None
    if confidence is not None:
        present = [v is not None for v in confs]
        if all(present):
            c = np.array(confs, dtype=np.float64)
        elif any(present):
            bad = present.index(False) + 2
            raise ValidationError(
                f"confidence column is partially populated (first empty at row {bad})"
            )
    X = np.array(X_rows, dtype=np.float64).reshape(len(X_rows), len(features))
    y = np.array(labels, dtype=np.int64) if label is not None else None
    return X, y, c, (ids if id_column is not None else None)


def load_csv(path, schema: DatasetSchema) -> tuple[Dataset, list[str] | None]:
    """Parse a CSV file against a schema.

    Returns the dataset and, when the schema names an id column, the row
    ids in file order. Parse failures name the row, column, and offending
    text.
    """
    X, y, c, ids = read_columns(path, schema.feature_columns, schema.label_column,
                                schema.confidence_column, schema.id_column)
    return Dataset(X, y, c), ids


def save_csv(path, data: Dataset, schema: DatasetSchema | None = None) -> DatasetSchema:
    """Write a dataset to CSV with round-trip-exact float formatting."""
    if schema is None:
        schema = DatasetSchema(
            feature_columns=[f"f{j}" for j in range(data.m)],
            label_column="label",
            confidence_column="confidence" if data.c is not None else None,
        )
    header = [*schema.feature_columns, schema.label_column]
    tail = [data.y.tolist()]
    if schema.confidence_column is not None:
        header.append(schema.confidence_column)
        tail.append(data.c.tolist() if data.c is not None else [None] * data.n)
    write_csv(path, header, (x.tolist() + list(t) for x, t in zip(data.X, zip(*tail))))
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
    with np.errstate(over="ignore", invalid="ignore"):
        logit = prior_logit + X @ (2.0 * mu)
        posterior1 = 1.0 / (1.0 + np.exp(-logit))  # exp(-logit) = inf gives 0
    if not np.isfinite(logit).all():
        raise ValidationError(f"cluster_separation {cfg.cluster_separation!r} "
                              "overflows the posterior logit")

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
