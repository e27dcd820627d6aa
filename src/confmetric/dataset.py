"""In-memory dataset container: features, binary labels, optional confidences."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


def check_labels(y, c, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Labels y as int64 and confidences c (or None) as float64, each checked
    to be a vector of length n, with labels in {0, 1} and finite confidences
    in [0, 1]; anything else is a ValidationError."""
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValidationError("labels must be a vector of length n")
    if not np.isin(y, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    if c is not None:
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (n,):
            raise ValidationError("confidences must be a vector of length n")
        if not np.all(np.isfinite(c)):
            raise ValidationError("confidences contain non-finite values")
        if not np.all((c >= 0.0) & (c <= 1.0)):
            raise ValidationError("confidences must lie in [0, 1]")
    return y.astype(np.int64), c


@dataclass
class Dataset:
    """Feature matrix with binary labels and optional confidence labels.

    Parameters
    ----------
    X : ndarray of shape (n, m)
        Feature vectors, one row per instance. All entries must be finite.
    y : ndarray of shape (n,)
        Binary class labels in {0, 1}.
    c : ndarray of shape (n,), optional
        Confidence labels in [0, 1], or None when unavailable.
    """

    X: np.ndarray
    y: np.ndarray
    c: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise ValidationError("X must be a non-empty 2-D array")
        if not np.all(np.isfinite(self.X)):
            raise ValidationError("features contain non-finite values")
        self.y, self.c = check_labels(self.y, self.c, self.X.shape[0])

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(count of label 0, count of label 1)."""
        n1 = int(self.y.sum())
        return self.n - n1, n1

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        c = self.c[idx] if self.c is not None else None
        return Dataset(self.X[idx], self.y[idx], c)

    def without_confidences(self) -> "Dataset":
        return Dataset(self.X, self.y, None)
