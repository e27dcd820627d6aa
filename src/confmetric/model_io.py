"""Versioned JSON model files with bit-exact matrix round-tripping.

The classifier is instance-based: scoring a query needs the training
instances as reference points, so the model file carries them alongside the
learned matrix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .data_io import read_json
from .dataset import Dataset
from .errors import SchemaMismatchError, ValidationError

FORMAT_VERSION = 1


def schema_fingerprint(feature_columns: list[str]) -> str:
    """Hash of the ordered feature-column names."""
    digest = hashlib.sha256("\n".join(feature_columns).encode("utf-8"))
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
    # json round-trips python floats via repr, so matrices are bit-exact
    payload = {
        "format_version": FORMAT_VERSION,
        "fingerprint": model.fingerprint,
        "feature_columns": model.feature_columns,
        "train_config": model.train_config,
        "matrix": np.asarray(model.matrix, dtype=np.float64).tolist(),
        "train_X": np.asarray(model.train_X, dtype=np.float64).tolist(),
        "train_y": np.asarray(model.train_y, dtype=np.int64).tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        # dumps, unlike dump, runs the C encoder
        fh.write(json.dumps(payload))
        fh.write("\n")


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


def _check_contents(model: ModelFile, fingerprint):
    m = len(model.feature_columns)
    L = model.matrix
    if L.ndim != 2 or L.shape[0] < 1 or L.shape[1] != m:
        raise ValidationError(
            f"corrupt model file: matrix has shape {L.shape}, expected (k, {m})"
        )
    if not np.isfinite(L).all():
        raise ValidationError("corrupt model file: matrix has non-finite entries")
    if fingerprint != model.fingerprint:
        raise ValidationError(
            "corrupt model file: fingerprint does not match feature_columns"
        )
    X, y = model.train_X, model.train_y
    if X.ndim != 2 or X.shape[1] != m:
        raise ValidationError(
            f"corrupt model file: train_X has shape {X.shape}, expected (n, {m})"
        )
    if y.shape != (X.shape[0],) or (y.size and y.dtype.kind not in "iu"):
        raise ValidationError(
            f"corrupt model file: train_y must hold {X.shape[0]} integer labels"
        )
    try:  # the rules predict's reference Dataset holds its rows to
        Dataset(X, y)
    except ValidationError as exc:
        raise ValidationError(f"corrupt model file: training rows: {exc}") from None
