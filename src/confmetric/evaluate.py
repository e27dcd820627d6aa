"""Model evaluation: AUROC and structural statistics of the metric matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError, ValidationError


@dataclass(frozen=True)
class FeatureWeightStats:
    """Per-feature (column) mean and max absolute weight across rows of L."""

    mean_abs: np.ndarray
    max_abs: np.ndarray


def auroc(scores, labels) -> float:
    """Area under the ROC curve with midrank tie handling.

    Equals the probability that a random positive outscores a random
    negative, counting ties as one half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError("scores and labels must be equal-length vectors")
    if scores.shape[0] < 2:
        raise UndefinedMetricError("AUROC needs at least two instances")
    if not np.isin(labels, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC undefined with a single class")
    ranks = _midranks(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _midranks(x) -> np.ndarray:
    """Ranks from 1, tied values sharing the mean of their ranks; all NaN if
    any value is NaN. The same values as scipy.stats.rankdata(x)."""
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    obs = np.r_[True, xs[1:] != xs[:-1]]  # first of each tie group
    dense = np.empty(x.shape, dtype=np.intp)
    dense[order] = np.cumsum(obs)
    count = np.r_[np.nonzero(obs)[0], len(x)]  # where each group starts, then n
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def sparsity(L) -> float:
    """Fraction of entries exactly equal to 0.0."""
    L = np.asarray(L)
    return float(np.count_nonzero(L == 0.0) / L.size)  # np.mean's value, bit for bit


def row_rank(L) -> int:
    """Number of linearly independent rows.

    Counts singular values above 1e-8 relative to the largest one; the zero
    matrix has rank 0.
    """
    L = np.asarray(L, dtype=np.float64)
    if not L.any():
        return 0
    s = np.linalg.svd(L, compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0]))


def n_zero_rows(L) -> int:
    """Number of rows that are entirely exact zeros."""
    L = np.asarray(L)
    return int(np.sum(~L.astype(bool).any(axis=1)))


def feature_weight_stats(L) -> FeatureWeightStats:
    """Column-wise mean and max of |L|."""
    A = np.abs(np.asarray(L, dtype=np.float64))
    return FeatureWeightStats(mean_abs=A.mean(axis=0), max_abs=A.max(axis=0))


def heatmap_matrix(L) -> np.ndarray:
    """|L| normalized by its largest entry; the zero matrix maps to itself."""
    A = np.abs(np.asarray(L, dtype=np.float64))
    peak = A.max()
    if peak == 0.0:
        return A
    return A / peak
