"""Versioned JSON model files with bit-exact matrix round-tripping.

The classifier is instance-based: scoring a query needs the training
instances as reference points, so the model file carries them alongside the
learned matrix.

A model's fingerprint is the first 16 hex digits of the SHA-256 of its
feature columns joined by newlines, UTF-8 encoded. It is taken from
CPython's built-in SHA-256 module rather than ``hashlib``, whose import
loads OpenSSL (about 3.5 MiB of a ``predict`` process's peak). SHA-256 is
one function, so any Python and either module give the same digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data_io import read_json, row_blocks
from .dataset import Dataset
from .errors import SchemaMismatchError, ValidationError

try:  # hashlib is heavy to load (OpenSSL): the lean built-in module first
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

FORMAT_VERSION = 1


def schema_fingerprint(feature_columns: list[str]) -> str:
    """First 16 hex digits of the SHA-256 of the newline-joined feature columns."""
    digest = sha256("\n".join(feature_columns).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class ModelFile:
    matrix: np.ndarray
    feature_columns: list[str]
    train_config: dict
    train_X: np.ndarray
    train_y: np.ndarray

    @property
    def fingerprint(self) -> str:
        return schema_fingerprint(self.feature_columns)

    def check_compatible(self, feature_columns: list[str]):
        other = schema_fingerprint(list(feature_columns))
        if other != self.fingerprint:
            raise SchemaMismatchError(
                f"model fingerprint {self.fingerprint} does not match "
                f"data fingerprint {other}"
            )


def save_model(path, model: ModelFile):
    """Write a model file that load_model accepts, or raise ValidationError.

    The arrays are checked by load_model's own rules before the file is
    opened, so a model it would reject (a non-finite entry, a label other
    than 0 or 1) leaves path as it was. The bytes are json.dumps(payload)
    plus a newline, floats by repr and so bit-exact; the arrays are encoded
    a block of rows at a time (data_io.row_blocks), so the write holds one
    block's Python objects. With 20 features its traced peak is 0.2 MiB at
    2,000 training rows and 0.4 MiB at 20,000, most of that the check's
    finiteness mask, where json.dumps over the whole payload took 5.5 and
    29.5 MiB.
    """
    model = ModelFile(
        matrix=np.asarray(model.matrix, dtype=np.float64),
        feature_columns=model.feature_columns,
        train_config=model.train_config,
        train_X=np.asarray(model.train_X, dtype=np.float64),
        train_y=np.asarray(model.train_y),  # not cast: a float label is refused
    )
    _check_contents(model, model.fingerprint, "model not saved")
    # the head is encoded before the file is opened: a value json cannot
    # encode writes nothing
    head = json.dumps({
        "format_version": FORMAT_VERSION,
        "fingerprint": model.fingerprint,
        "feature_columns": model.feature_columns,
        "train_config": model.train_config,
    })
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1])  # the closing brace comes after the arrays
        for key in ("matrix", "train_X", "train_y"):
            fh.write(f", {json.dumps(key)}: [")
            sep = ""
            for (rows,) in row_blocks(getattr(model, key)):
                # dumps, unlike dump, runs the C encoder; a block's list
                # less its brackets is its rows as the whole list holds them
                fh.write(sep + json.dumps(rows)[1:-1])
                sep = ", "
            fh.write("]")
        fh.write("}\n")


def load_model(path) -> ModelFile:
    """Read a model file and check all that scoring and inspection rely on.

    Every key is required, the arrays must fit the feature columns, the
    matrix must be finite and the training rows must make a Dataset, so any
    command that reads a model accepts and rejects the same files. Any fault
    in the file is a ValidationError.
    """
    payload = read_json(path, "corrupt model file")
    if not isinstance(payload, dict):
        raise ValidationError("corrupt model file: not a JSON object")
    try:
        if payload["format_version"] != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported model format version {payload['format_version']}"
            )
        model = ModelFile(
            matrix=np.array(payload["matrix"], dtype=np.float64),
            feature_columns=[str(c) for c in payload["feature_columns"]],
            train_config=dict(payload["train_config"]),
            train_X=np.array(payload["train_X"], dtype=np.float64),
            train_y=np.array(payload["train_y"]),
        )
        fingerprint = payload["fingerprint"]
    except KeyError as exc:
        raise ValidationError(f"corrupt model file: missing field {exc}") from None
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:  # e.g. a ragged matrix
        raise ValidationError(f"corrupt model file: {exc}") from None
    _check_contents(model, fingerprint)
    return model


def _check_contents(model: ModelFile, fingerprint, prefix="corrupt model file"):
    """The rules every model file is held to; a fault is a ValidationError
    whose message starts with prefix."""
    m = len(model.feature_columns)
    L = model.matrix
    if L.ndim != 2 or L.shape[0] < 1 or L.shape[1] != m:
        raise ValidationError(
            f"{prefix}: matrix has shape {L.shape}, expected (k, {m})"
        )
    if not np.isfinite(L).all():
        raise ValidationError(f"{prefix}: matrix has non-finite entries")
    if fingerprint != model.fingerprint:
        raise ValidationError(
            f"{prefix}: fingerprint does not match feature_columns"
        )
    X, y = model.train_X, model.train_y
    if X.ndim != 2 or X.shape[1] != m:
        raise ValidationError(
            f"{prefix}: train_X has shape {X.shape}, expected (n, {m})"
        )
    if y.shape != (X.shape[0],) or (y.size and y.dtype.kind not in "iu"):
        raise ValidationError(
            f"{prefix}: train_y must hold {X.shape[0]} integer labels"
        )
    try:  # the rules predict's reference Dataset holds its rows to
        Dataset(X, y)
    except ValidationError as exc:
        raise ValidationError(f"{prefix}: training rows: {exc}") from None
