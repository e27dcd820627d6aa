"""Core metric, similarity, and confidence-score functions.

The learned parameter is a matrix L of shape (m', m). The squared distance
between two instances is the squared Euclidean distance after projecting
through L, which makes the implied quadratic form L^T L positive
semidefinite by construction. Similarity is the Gaussian kernel of that
distance with bandwidth absorbed into the scale of L.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import (
    DegenerateClassError,
    DegenerateScoreWarning,
    DimensionMismatchError,
)


def _check_metric(L) -> np.ndarray:
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] < 1 or L.shape[1] < 1:
        raise DimensionMismatchError("metric parameter must be a 2-D matrix")
    if not np.all(np.isfinite(L)):
        raise DimensionMismatchError("metric parameter contains non-finite entries")
    return L


def _check_vector(v, m: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.shape[0] != m:
        raise DimensionMismatchError(
            f"{name} has length {v.shape[0]}, expected {m}"
        )
    return v


def squared_distance(L, a, b) -> float:
    """Squared distance ||L a - L b||^2. Symmetric and nonnegative."""
    L = _check_metric(L)
    a = _check_vector(a, L.shape[1], "a")
    b = _check_vector(b, L.shape[1], "b")
    d = L @ (a - b)
    return float(d @ d)


def kernel_similarity(L, a, b) -> float:
    """Gaussian-kernel similarity exp(-squared_distance); in (0, 1]."""
    return float(np.exp(-squared_distance(L, a, b)))


def kernel_matrix(L, X, Q=None) -> np.ndarray:
    """Pairwise Gaussian-kernel similarities between rows of Q and rows of X.

    With Q omitted, returns the symmetric (n, n) matrix over X with unit
    diagonal. Distances are clipped at zero to absorb cancellation error.
    """
    L = _check_metric(L)
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != L.shape[1]:
        raise DimensionMismatchError("feature dimension does not match metric columns")
    Z = X @ L.T
    if Q is None:
        W = Z
        symmetric = True
    else:
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        if Q.shape[1] != L.shape[1]:
            raise DimensionMismatchError("query dimension does not match metric columns")
        W = Q @ L.T
        symmetric = False
    sq_w = np.einsum("ij,ij->i", W, W)
    sq_z = np.einsum("ij,ij->i", Z, Z)
    # d2 = (sq_w + sq_z) - 2 W Z^T, built in place so that at most two
    # n x n buffers are alive; doubling is exact, so the rounding is that of
    # the plain expression
    d2 = np.add.outer(sq_w, sq_z)
    G = W @ Z.T
    G *= 2.0
    d2 -= G
    del G
    np.maximum(d2, 0.0, out=d2)
    np.negative(d2, out=d2)
    K = np.exp(d2, out=d2)
    if symmetric:
        np.fill_diagonal(K, 1.0)
    return K


def similarity_scores(L, data: Dataset) -> np.ndarray:
    """Mean within-class kernel similarity for every instance and class.

    Returns an (n, 2) array S where S[i, y] is the mean similarity of
    instance i to all other instances with label y (self excluded by index).
    Raises DegenerateClassError if any required reference set is empty.
    """
    onehot, counts = _class_references(data)
    return _class_scores(kernel_matrix(L, data.X), data.y, onehot, counts)


def _class_references(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """One-hot labels and, per instance and class, the reference-set size.

    The own-class reference set excludes the instance itself. Raises
    DegenerateClassError if any reference set is empty.
    """
    n0, n1 = data.class_counts()
    if n0 < 1 or n1 < 1 or data.n < 2:
        raise DegenerateClassError("each class needs at least one reference instance")
    onehot = np.zeros((data.n, 2))
    onehot[np.arange(data.n), data.y] = 1.0
    counts = np.array([n0, n1], dtype=np.float64)[None, :] - onehot
    if np.any(counts[np.arange(data.n), data.y] < 1):
        raise DegenerateClassError("a class has no reference instances besides self")
    return onehot, counts


def _class_scores(K, y, onehot, counts) -> np.ndarray:
    """Class similarity scores from the symmetric unit-diagonal kernel K."""
    sums = K @ onehot
    # remove the unit self-similarity from each instance's own-class sum
    sums[np.arange(len(y)), y] -= 1.0
    return sums / counts


def class_similarity(L, data: Dataset, i: int, y: int) -> float:
    """Mean similarity of instance i to all other label-y instances."""
    if not 0 <= i < data.n:
        raise DimensionMismatchError(f"index {i} out of range for n={data.n}")
    mask = data.y == y
    mask[i] = False
    if not mask.any():
        raise DegenerateClassError(f"no instances of class {y} besides instance {i}")
    K = kernel_matrix(L, data.X[mask], Q=data.X[i])
    return float(K.mean())


def class_similarity_query(L, data: Dataset, q, y: int) -> float:
    """Mean similarity of an unobserved query to all label-y instances.

    No self-exclusion applies: q is not part of the training set.
    """
    mask = data.y == y
    if not mask.any():
        raise DegenerateClassError(f"no training instances of class {y}")
    K = kernel_matrix(L, data.X[mask], Q=q)
    return float(K.mean())


def confidence_score(s_y: float, s_not_y: float) -> float:
    """Class confidence s_y / (s_y + s_not_y).

    Complementary: confidence_score(a, b) + confidence_score(b, a) == 1.
    When both similarities underflowed to exactly zero the score carries no
    class evidence; 0.5 is returned and a DegenerateScoreWarning is issued.
    """
    if s_y < 0.0 or s_not_y < 0.0:
        raise DimensionMismatchError("similarity scores must be nonnegative")
    total = s_y + s_not_y
    if total == 0.0:
        warnings.warn(
            "both class similarities underflowed to zero; returning 0.5",
            DegenerateScoreWarning,
            stacklevel=2,
        )
        return 0.5
    return s_y / total


class Prediction(NamedTuple):
    label: int
    confidence: float


def predict(L, train: Dataset, q, threshold: float = 0.5) -> Prediction:
    """Threshold the positive-class confidence score of a query.

    Returns label 1 iff the confidence score for class 1 strictly exceeds
    the threshold, together with the score itself.
    """
    s1 = class_similarity_query(L, train, q, 1)
    s0 = class_similarity_query(L, train, q, 0)
    c1 = confidence_score(s1, s0)
    return Prediction(label=int(c1 > threshold), confidence=c1)
