"""Dataset ingestion, synthetic generation, and seeded splitting.

CSV interface: UTF-8, comma-separated, header row required, ASCII numbers
with a '.' decimal separator and no digit-group separators. An empty string
in the confidence column means the confidence is missing; confidences must
be either all present or all absent.

numpy's C reader parses every needed cell in one pass over the file, the
numbers as float64 and the label and id cells as text. Whenever it cannot
vouch for a file, the row parser reads the file again from its start, and
it alone raises the errors that name a row, a column and the offending
text. Every reader streams the file: none holds its bytes, so the memory a
read takes is the arrays it returns plus a few fixed-size buffers.
``read_chunks`` returns those arrays a chunk of rows at a time, by repeated
C-reader calls on one open file, so a caller that keeps only what it makes of
each chunk holds one chunk of rows however long the file; ``read_columns``
is its one-chunk case.
"""

from __future__ import annotations

import contextlib
import csv
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

_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 1}
# numpy's float parser strips these ASCII separators as whitespace; float() does not
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# bytes read at a time, into one reused buffer, when a file is searched for
# _NUMPY_ONLY_SPACE
_SCAN_CHUNK = 1 << 16


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
        n1 = round(self.n * self.class_balance)
        if min(n1, self.n - n1) < 2:
            raise ValidationError("class balance leaves fewer than 2 instances in a class")
        if min(self.seed, self.cluster_separation, self.confidence_noise) < 0:
            raise ValidationError(
                "seed, cluster_separation and confidence_noise must be nonnegative")


def read_columns(path, features, label=None, confidence=None, id_column=None):
    """Parse the named columns of a CSV file.

    Returns (X, y, c, ids): the feature cells as an n×len(features) float64
    array; the labels as int64; the confidences, None also when every
    confidence cell is empty; and the id cells as strings. y, c and ids are
    None when their column is not asked for.

    This is ``read_chunks`` with the whole file as one chunk: one np.loadtxt
    call parses a well-formed file.
    """
    (columns,) = read_chunks(path, features, label, confidence, id_column)
    return columns


def read_chunks(path, features, label=None, confidence=None, id_column=None, rows=None):
    """Yield the named columns of a CSV file as read_columns returns them, a
    chunk of at most ``rows`` rows at a time (all of them with None).

    The file is streamed, never held whole. It is first searched, piece by
    piece, for the bytes numpy's float parser strips but float() does not;
    a file with none goes to numpy's C reader, which parses each chunk from
    the one open file. If that reader fails, or a cell is not finite, a label
    is not exactly "0" or "1" or a confidence is empty or outside [0, 1], the
    row parser rereads the file from its start. It yields the rows not yet
    yielded, the same values bit for bit, or raises the ValidationError that
    names the first bad row, column and text. A file with no data rows is a
    ValidationError too, and one that cannot be reread, such as a pipe, is
    an OSError.

    A fault past the chunks already yielded still raises, so what a caller
    makes of the chunks stands only once the iteration ends.
    """
    yielded = False
    for chunk in _chunks(path, features, label, confidence, id_column, rows):
        yielded = True
        yield chunk
    if not yielded:
        raise ValidationError(f"{path}: no data rows")


def _chunks(path, features, label, confidence, id_column, rows):
    """read_chunks' chunks, none of them empty."""
    with open(path, newline="", encoding="utf-8") as fh, decoding_errors(path):
        if not fh.seekable():  # the file is searched, then parsed: a pipe is read once
            raise OSError(f"{path}: a CSV input must be a seekable file, not a pipe")
        header = next(csv.reader(fh), [])
        _require_columns(header, [c for c in (*features, label, confidence, id_column)
                                  if c is not None])
        done = 0
        if not _has_numpy_only_space(path):
            while chunk := _read_fast(fh, header, features, label, confidence, id_column,
                                      rows):
                got = len(chunk[0])
                if got:
                    yield chunk
                    done += got
                if rows is None or got < rows:
                    return
        fh.seek(0)
        yield from _read_slow(fh, features, label, confidence, id_column, rows, done)


def _has_numpy_only_space(path) -> bool:
    """True when the file holds a byte of _NUMPY_ONLY_SPACE. The file is read
    into one reused _SCAN_CHUNK buffer: each such byte is one that no
    multi-byte UTF-8 sequence contains, so every way of cutting the file
    finds the same ones."""
    buf = bytearray(_SCAN_CHUNK)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            if any(buf.find(ch, 0, size) >= 0 for ch in _NUMPY_ONLY_SPACE):
                return True
    return False


def _read_fast(fh, header, features, label, confidence, id_column, rows):
    """The columns of fh's next ``rows`` rows (every row left with None) by
    one np.loadtxt call, or None when anything needs the row parser. Each
    row is a record of its numeric cells as float64 and its text cells
    (label, id) as objects; either part may have no column. np.loadtxt
    leaves fh just past the last row it returns."""
    # a repeated name stands for its last column, as in csv.DictReader
    col = {name: j for j, name in enumerate(header)}
    numeric = [*features, *([confidence] if confidence is not None else [])]
    text = [c for c in (label, id_column) if c is not None]
    # object cells keep the text as csv reads it, NUL characters included
    record = np.dtype([("num", np.float64, (len(numeric),)), ("text", object, (len(text),))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows left: no data
            records = np.loadtxt(fh, usecols=[col[c] for c in (*numeric, *text)],
                                 dtype=record, max_rows=rows, **_LOADTXT)
    except ValueError:
        return None
    values, cells = records["num"], records["text"]
    if not np.isfinite(values).all():
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
    # X stays a strided view into the records, not a copy: each caller either
    # fancy-indexes it (a copy) or hands it to BLAS, which reads the row stride
    return values[:, :len(features)], y, c, ids


def _read_slow(fh, features, label, confidence, id_column, rows, skip):
    """The columns by csv.DictReader and float(), one row at a time, in
    chunks of ``rows`` rows (all of them with None) after the first ``skip``.
    Every row is checked, so the first bad one raises wherever it is.

    Confidences are all present or all empty. Once both are met no row is
    kept, but the rest are still checked before the mix raises.
    """
    kept = []
    first_empty, present = None, False  # among the confidence cells so far
    for rownum, row in enumerate(csv.DictReader(fh), start=2):  # header is line 1
        cells = _parse_row(row, rownum, features, label, confidence, id_column)
        if confidence is not None:
            if cells[2] is None:
                first_empty = first_empty or rownum
            else:
                present = True
        if rownum - 2 >= skip and not (first_empty and present):
            kept.append(cells)
            if len(kept) == rows:
                yield _columns(kept, len(features), label, confidence, id_column)
                kept = []
    if first_empty and present:
        raise ValidationError(
            f"confidence column is partially populated (first empty at row {first_empty})"
        )
    if kept:
        yield _columns(kept, len(features), label, confidence, id_column)


def _parse_row(row: dict, rownum: int, features, label, confidence, id_column):
    """(features, label, confidence, id) of one csv.DictReader row, None for
    a column not asked for and for an empty confidence."""
    x = _parse_numbers(row, features, rownum)
    y = c = None
    if label is not None:
        text = row[label]
        if text not in ("0", "1"):
            raise ValidationError(
                f"row {rownum}, column {label!r}: label must be 0 or 1, got {text!r}"
            )
        y = int(text)
    if confidence is not None and row[confidence] not in ("", None):
        (c,) = _parse_numbers(row, [confidence], rownum)
        if not 0.0 <= c <= 1.0:
            raise ValidationError(
                f"row {rownum}, column {confidence!r}: "
                f"confidence {row[confidence]!r} outside [0, 1]"
            )
    return x, y, c, (row[id_column] if id_column is not None else None)


def _columns(kept, m: int, label, confidence, id_column):
    """(X, y, c, ids) of rows from _parse_row, whose confidences are all
    present or all empty."""
    X_rows, labels, confs, ids = zip(*kept)
    X = np.array(X_rows, dtype=np.float64).reshape(len(kept), m)
    y = np.array(labels, dtype=np.int64) if label is not None else None
    c = np.array(confs, dtype=np.float64) if confs[0] is not None else None
    return X, y, c, (list(ids) if id_column is not None else None)


def load_csv(path, schema: DatasetSchema) -> tuple[Dataset, list[str] | None]:
    """Parse a CSV file against a schema.

    Returns the dataset and, when the schema names an id column, the row
    ids in file order. Parse failures name the row, column, and offending
    text.
    """
    X, y, c, ids = read_columns(path, schema.feature_columns, schema.label_column,
                                schema.confidence_column, schema.id_column)
    return Dataset(X, y, c), ids


def save_csv(path, data: Dataset) -> DatasetSchema:
    """Write a dataset to CSV with round-trip-exact float formatting.

    Every cell is a Python int or float, which the csv module never quotes
    and writes as its repr, so each line is joined here and ended with the
    csv module's "\\r\\n": the bytes are those write_csv would write, without
    its per-cell checks.
    """
    schema = DatasetSchema(
        feature_columns=[f"f{j}" for j in range(data.m)],
        label_column="label",
        confidence_column="confidence" if data.c is not None else None,
    )
    header = [*schema.feature_columns, schema.label_column]
    tail = [data.y.tolist()]
    if data.c is not None:
        header.append(schema.confidence_column)
        tail.append(data.c.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, [*x, *t])) + "\r\n"
                      for x, t in zip(data.X.tolist(), zip(*tail)))
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
