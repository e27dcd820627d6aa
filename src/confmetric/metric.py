"""Core metric, similarity, and confidence-score functions.

The learned parameter is a matrix L of shape (m', m). The squared distance
between two instances is the squared Euclidean distance after projecting
through L, which makes the implied quadratic form L^T L positive
semidefinite by construction. Similarity is the Gaussian kernel of that
distance with bandwidth absorbed into the scale of L.

``score_rows`` is the one query scorer: it returns the scores together with
how many rows were degenerate, which ``confmetric predict`` reports.
``positive_scores`` returns only the scores and warns once about those rows;
the experiment harness calls it.

Kernels are evaluated in row blocks of about ``_BLOCK_BYTES`` each, so the
elementwise work runs in cache rather than streaming n x n buffers through
memory once per step. ``kernel_matrix`` computes its one Gram product
``W Z^T`` straight into the returned array (a single BLAS call, so the
result is bit-identical to the plain expression) and then turns it into
kernel values one block at a time; ``score_rows`` computes the Gram
product block by block as well and keeps only each block's two class sums,
so it never holds a query-by-reference kernel.

Underflow rule: ``exp(-d2)`` is 0.0 exactly for every ``d2 >= 746``, and
fitting drives nearly every off-diagonal distance far past that. numpy's
vectorized ``exp`` takes a slow path on each underflowing lane, so those
entries are written as 0.0 without calling ``exp``; only ``d2 < 746`` (and
NaN, which must stay NaN so a failing fit is caught) reaches ``np.exp``.
Every kernel value is therefore exactly what ``np.exp`` would return.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import warnings

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


# bytes of one row block: a few blocks of this size stay in L2 cache
_BLOCK_BYTES = 512 * 1024
# np.exp(-d2) is exactly 0.0 for every d2 at or above this
_EXP_ZERO = 746.0


def _projections(L, X, Q):
    """Query rows W = Q L^T and reference rows Z = X L^T, with their squared
    norms; W is Z when Q is None."""
    L = _check_metric(L)
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != L.shape[1]:
        raise DimensionMismatchError("feature dimension does not match metric columns")
    Z = X @ L.T
    sq_z = np.einsum("ij,ij->i", Z, Z)
    if Q is None:
        return Z, Z, sq_z, sq_z
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    if Q.shape[1] != L.shape[1]:
        raise DimensionMismatchError("query dimension does not match metric columns")
    W = Q @ L.T
    return W, Z, np.einsum("ij,ij->i", W, W), sq_z


def _block_height(cols: int) -> int:
    """Rows per block: about _BLOCK_BYTES of float64 at cols columns."""
    return max(1, _BLOCK_BYTES // (8 * max(cols, 1)))


def _exp_neg(d2: np.ndarray, out: np.ndarray) -> None:
    """out = np.exp(-d2) bit for bit, for C-contiguous d2 >= 0 (or NaN),
    without passing np.exp any d2 >= _EXP_ZERO, where it returns 0.0.

    Whichever of the near and the far entries are fewer are indexed: a
    gather or scatter through an index beats a boolean mask on either side.
    """
    far = d2 >= _EXP_ZERO  # False for NaN, so NaN goes through np.exp
    flat_d2, flat_out = d2.ravel(), out.ravel()
    if 2 * np.count_nonzero(far) > far.size:
        near = np.flatnonzero(np.logical_not(far, out=far))
        vals = flat_d2[near]
        np.negative(vals, out=vals)
        np.exp(vals, out=vals)
        out.fill(0.0)
        flat_out[near] = vals
        return
    far = np.flatnonzero(far)
    np.negative(d2, out=out)
    flat_out[far] = 0.0  # exp(0.0) = 1 is on np.exp's fast path
    np.exp(out, out=out)
    flat_out[far] = 0.0


def _kernel_rows(G, sq_w, sq_z, d2) -> None:
    """Turn G = W Z^T into exp(-max((sq_w + sq_z) - 2 G, 0)) in place.

    d2 is scratch of G's shape. Doubling is exact, so the rounding is that
    of the plain expression.
    """
    np.add(sq_w[:, None], sq_z[None, :], out=d2)
    G *= 2.0
    np.subtract(d2, G, out=d2)
    np.maximum(d2, 0.0, out=d2)
    _exp_neg(d2, G)


def kernel_matrix(L, X, Q=None) -> np.ndarray:
    """Pairwise Gaussian-kernel similarities between rows of Q and rows of X.

    With Q omitted, returns the symmetric (n, n) matrix over X with unit
    diagonal. Distances are clipped at zero to absorb cancellation error.
    """
    W, Z, sq_w, sq_z = _projections(L, X, Q)
    K = W @ Z.T
    h = _block_height(K.shape[1])
    d2 = np.empty((min(h, K.shape[0]), K.shape[1]))
    for i in range(0, K.shape[0], h):
        G = K[i : i + h]
        _kernel_rows(G, sq_w[i : i + h], sq_z, d2[: G.shape[0]])
    if W is Z:
        np.fill_diagonal(K, 1.0)
    return K


def similarity_scores(L, data: Dataset) -> np.ndarray:
    """Mean within-class kernel similarity for every instance and class.

    Returns an (n, 2) array S where S[i, y] is the mean similarity of
    instance i to all other instances with label y (self excluded by index).
    Raises DegenerateClassError if any required reference set is empty.
    """
    onehot, counts = _class_references(data)
    return _class_scores(kernel_matrix(L, data.X), onehot, counts)


def _class_references(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """One-hot labels and, per instance and class, the reference-set size.

    The own-class reference set excludes the instance itself. Raises
    DegenerateClassError if any reference set is empty.
    """
    n0, n1 = data.class_counts()
    if n0 < 1 or n1 < 1 or data.n < 2:
        raise DegenerateClassError("each class needs at least one reference instance")
    onehot = np.eye(2)[data.y]
    counts = np.array([n0, n1], dtype=np.float64)[None, :] - onehot
    if np.any(counts[np.arange(data.n), data.y] < 1):
        raise DegenerateClassError("a class has no reference instances besides self")
    return onehot, counts


def _class_scores(K, onehot, counts) -> np.ndarray:
    """Class similarity scores from the symmetric (n, n) kernel K.

    Overwrites K's diagonal with 0: an instance is not its own reference.
    """
    np.fill_diagonal(K, 0.0)
    return (K @ onehot) / counts


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


def score_rows(L, train: Dataset, X) -> tuple[np.ndarray, int]:
    """Confidence s1 / (s0 + s1) in class 1 for each row of X, where s_y is
    the row's mean similarity to the label-y rows of train (no self-exclusion),
    and how many rows had s0 = s1 = 0 (underflow) and so score 0.5.

    Raises DegenerateClassError if train lacks a class.
    """
    n0, n1 = train.class_counts()
    if n0 < 1 or n1 < 1:
        raise DegenerateClassError(f"no training instances of class {int(n0 >= 1)}")
    W, Z, sq_w, sq_z = _projections(L, train.X, X)
    onehot = np.eye(2)[train.y]
    q, n = W.shape[0], Z.shape[0]
    h = _block_height(n)
    G = np.empty((min(h, q), n))
    d2 = np.empty_like(G)
    S = np.empty((q, 2))
    for i in range(0, q, h):
        rows, b = slice(i, i + h), min(h, q - i)
        np.matmul(W[rows], Z.T, out=G[:b])
        _kernel_rows(G[:b], sq_w[rows], sq_z, d2[:b])
        np.matmul(G[:b], onehot, out=S[rows])
    S /= np.array([n0, n1], dtype=np.float64)
    total = S[:, 0] + S[:, 1]
    scores = np.full(total.shape, 0.5)
    np.divide(S[:, 1], total, out=scores, where=total > 0.0)
    return scores, int(np.count_nonzero(total == 0.0))


def positive_scores(L, train: Dataset, X) -> np.ndarray:
    """The scores of ``score_rows``; one DegenerateScoreWarning counts the
    rows that scored 0.5 because both class similarities underflowed."""
    scores, degenerate = score_rows(L, train, X)
    if degenerate:
        warnings.warn(f"{degenerate} of {scores.size} rows scored 0.5: both class "
                      "similarities underflowed to zero", DegenerateScoreWarning,
                      stacklevel=2)
    return scores
