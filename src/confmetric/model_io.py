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

from .data_io import decoding_errors
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
    fingerprint: str
    train_X: np.ndarray | None = None
    train_y: np.ndarray | None = None

    @classmethod
    def create(cls, matrix, feature_columns, train_config,
               train_X=None, train_y=None) -> "ModelFile":
        return cls(
            matrix=np.asarray(matrix, dtype=np.float64),
            feature_columns=list(feature_columns),
            train_config=dict(train_config),
            fingerprint=schema_fingerprint(list(feature_columns)),
            train_X=None if train_X is None else np.asarray(train_X, dtype=np.float64),
            train_y=None if train_y is None else np.asarray(train_y, dtype=np.int64),
        )

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
    }
    if model.train_X is not None:
        payload["train_X"] = np.asarray(model.train_X, dtype=np.float64).tolist()
        payload["train_y"] = np.asarray(model.train_y, dtype=np.int64).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        # dumps, unlike dump, runs the C encoder
        fh.write(json.dumps(payload))
        fh.write("\n")


def load_model(path) -> ModelFile:
    """Read a model file, checking that its arrays fit its feature columns.

    Any fault in the file is a ValidationError. Finiteness and label values
    are left to the Dataset that scoring builds from the arrays.
    """
    try:
        with open(path, encoding="utf-8") as fh, decoding_errors(path):
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"corrupt model file: {exc}") from None
    if not isinstance(payload, dict):
        raise ValidationError("corrupt model file: not a JSON object")
    try:
        if payload["format_version"] != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported model format version {payload['format_version']}"
            )
        train_X = payload.get("train_X")
        train_y = payload.get("train_y")
        model = ModelFile(
            matrix=np.array(payload["matrix"], dtype=np.float64),
            feature_columns=[str(c) for c in payload["feature_columns"]],
            train_config=dict(payload["train_config"]),
            fingerprint=payload["fingerprint"],
            train_X=None if train_X is None else np.array(train_X, dtype=np.float64),
            train_y=None if train_y is None else np.array(train_y),
        )
    except KeyError as exc:
        raise ValidationError(f"corrupt model file: missing field {exc}") from None
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:  # e.g. a ragged matrix
        raise ValidationError(f"corrupt model file: {exc}") from None
    _check_shapes(model)
    return model


def _check_shapes(model: ModelFile):
    m = len(model.feature_columns)
    L = model.matrix
    if L.ndim != 2 or L.shape[0] < 1 or L.shape[1] != m:
        raise ValidationError(
            f"corrupt model file: matrix has shape {L.shape}, expected (k, {m})"
        )
    if model.fingerprint != schema_fingerprint(model.feature_columns):
        raise ValidationError(
            "corrupt model file: fingerprint does not match feature_columns"
        )
    X, y = model.train_X, model.train_y
    if (X is None) != (y is None):
        raise ValidationError("corrupt model file: train_X and train_y come together")
    if X is None:
        return
    if X.ndim != 2 or X.shape[1] != m:
        raise ValidationError(
            f"corrupt model file: train_X has shape {X.shape}, expected (n, {m})"
        )
    if y.shape != (X.shape[0],) or (y.size and y.dtype.kind not in "iu"):
        raise ValidationError(
            f"corrupt model file: train_y must hold {X.shape[0]} integer labels"
        )
