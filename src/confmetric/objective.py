"""Training losses and their analytic smooth gradient.

Two objectives are implemented. The base loss sums, over all training
instances, the opposite-class similarity score minus the own-class score,
plus an element-wise L1 penalty on the metric matrix. The ranking variant
adds a pairwise hinge penalty that pushes the score margin of instances the
labeler was more confident about above the margin of instances she was less
confident about, within each class.

``Objective`` evaluates the ranking variant on one dataset. What depends
only on the data (the class-structure matrix, the class reference counts,
the ranking pairs and the weights) is built once, when it is constructed.
``Objective.value(L)`` computes one n x n kernel matrix and returns the loss
together with an ``ObjectiveCache`` holding that kernel and the per-instance
margins; ``Objective.gradient(L, cache)`` reuses both, so the loss and the
gradient at one L share a single kernel. ``camel_cl_loss`` and
``smooth_gradient`` are one-shot wrappers over it. ``camel_loss`` computes
the base loss on its own, through ``similarity_scores``, and is the
reference the ranking variant must equal exactly when lambda2 is 0.

The L1 term is not differentiated here; the optimizer handles it through a
proximal step. At exact hinge kinks the subgradient 0 is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import (
    DimensionMismatchError,
    MissingSupervisionError,
    ValidationError,
)
from .metric import (
    _check_metric,
    _class_references,
    _class_scores,
    kernel_matrix,
    similarity_scores,
)

_PAIR_STREAM = 4  # keeps equal seeds from aliasing other RNG consumers


@dataclass(frozen=True)
class ObjectiveConfig:
    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValidationError("regularization weights must be nonnegative")


@dataclass(frozen=True)
class LossBreakdown:
    pushpull: float
    l1: float
    ranking: float

    @property
    def total(self) -> float:
        return self.pushpull + self.l1 + self.ranking


@dataclass(frozen=True)
class RankingPairs:
    """Ordered index pairs (a, b): same class, labeler strictly more
    confident in a's label than in b's."""

    pairs: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    def __len__(self) -> int:
        return self.pairs.shape[0]


def build_ranking_pairs(labels, confidences, pair_cap=None, seed=0) -> RankingPairs:
    """All (a, b) with equal labels and strictly greater confidence at a.

    Ties produce no pair. If pair_cap is set and exceeded, a uniformly
    random subset of that size is kept, deterministic in the seed.
    """
    if confidences is None:
        raise MissingSupervisionError("ranking pairs require confidence labels")
    labels = np.asarray(labels)
    confidences = np.asarray(confidences, dtype=np.float64)
    if confidences.min() < 0.0 or confidences.max() > 1.0:
        raise ValidationError("confidences must lie in [0, 1]")
    same = labels[:, None] == labels[None, :]
    higher = confidences[:, None] > confidences[None, :]
    a_idx, b_idx = np.nonzero(same & higher)
    pairs = np.column_stack([a_idx, b_idx]).astype(np.int64)
    if pair_cap is not None and pairs.shape[0] > pair_cap:
        rng = np.random.default_rng([seed, _PAIR_STREAM])
        keep = np.sort(rng.choice(pairs.shape[0], size=pair_cap, replace=False))
        pairs = pairs[keep]
    return RankingPairs(pairs)


def margin(L, data: Dataset, i: int) -> float:
    """Own-class similarity score minus opposite-class score for instance i."""
    if not 0 <= i < data.n:
        raise DimensionMismatchError(f"index {i} out of range for n={data.n}")
    S = similarity_scores(L, data)
    yi = data.y[i]
    return float(S[i, yi] - S[i, 1 - yi])


def _margins(S: np.ndarray, y: np.ndarray) -> np.ndarray:
    idx = np.arange(S.shape[0])
    return S[idx, y] - S[idx, 1 - y]


def _check_pairs(pairs: RankingPairs, n: int) -> np.ndarray:
    p = pairs.pairs
    if len(p) and (p.min() < 0 or p.max() >= n):
        raise DimensionMismatchError("ranking pair index out of range")
    return p


def camel_loss(L, data: Dataset, lambda1: float) -> LossBreakdown:
    """Push/pull class-label loss plus element-wise L1 penalty."""
    L = _check_metric(L)
    S = similarity_scores(L, data)
    pushpull = float(-np.sum(_margins(S, data.y)))
    l1 = float(lambda1 * np.abs(L).sum())
    return LossBreakdown(pushpull=pushpull, l1=l1, ranking=0.0)


@dataclass(frozen=True)
class ObjectiveCache:
    """What ``Objective.value`` computed at one L, for ``gradient`` at that L."""

    kernel: np.ndarray  # (n, n) Gaussian kernel over the training rows
    margins: np.ndarray  # (n,) own-class minus opposite-class score


class Objective:
    """Class-label loss, L1 penalty and ranking hinge on one dataset.

    Built once per dataset and evaluated at many L. Both class reference
    sets of every instance must be nonempty, and every ranking pair must
    index a training row.
    """

    def __init__(
        self, data: Dataset, pairs: RankingPairs, lambda1: float, lambda2: float
    ):
        self.data = data
        self.onehot, self.counts = _class_references(data)
        self.pairs = _check_pairs(pairs, data.n)
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        idx = np.arange(data.n)
        own = self.counts[idx, data.y]
        opp = self.counts[idx, 1 - data.y]
        same = data.y[:, None] == data.y[None, :]
        # V[i, j]: weight of kernel value k_ij in instance i's margin
        self.V = np.where(same, (1.0 / own)[:, None], (-1.0 / opp)[:, None])
        np.fill_diagonal(self.V, 0.0)

    def _hinge_args(self, margins: np.ndarray) -> np.ndarray | None:
        """Per-pair hinge argument, or None when the ranking term is off."""
        p = self.pairs
        if self.lambda2 > 0 and len(p):
            return margins[p[:, 1]] - margins[p[:, 0]]
        return None

    def value(self, L) -> tuple[LossBreakdown, ObjectiveCache]:
        """Loss at L, and the kernel and margins it was computed from.

        For each pair (a, b) the hinge activates when b's margin exceeds
        a's, i.e. when the model orders the two against the labeler's
        confidences.
        """
        L = _check_metric(L)
        y = self.data.y
        K = kernel_matrix(L, self.data.X)
        marg = _margins(_class_scores(K, y, self.onehot, self.counts), y)
        pushpull = float(-np.sum(marg))
        l1 = float(self.lambda1 * np.abs(L).sum())
        ranking = 0.0
        args = self._hinge_args(marg)
        if args is not None:
            ranking = float(self.lambda2 * np.maximum(0.0, args).sum())
        loss = LossBreakdown(pushpull=pushpull, l1=l1, ranking=ranking)
        return loss, ObjectiveCache(kernel=K, margins=marg)

    def gradient(self, L, cache: ObjectiveCache) -> np.ndarray:
        """Gradient of the smooth loss terms (push/pull + ranking) in L.

        ``cache`` must be what ``value`` returned for this same L; its
        kernel is read, not recomputed. The L1 term is excluded; the
        proximal step owns it. Derivation: each kernel value
        k = exp(-||L d||^2) contributes dk/dL = -2 k L d d^T, and every
        smooth term is a weighted sum of per-instance margins, so the
        gradient collapses to -2 L X^T P X with P = diag(r) - A - A^T,
        A = diag(coef) (V * K) and r the row plus column sums of A.
        """
        L = _check_metric(L)
        X = self.data.X
        # coefficient of each instance's margin in the smooth loss
        coef = -np.ones(self.data.n)
        args = self._hinge_args(cache.margins)
        if args is not None:
            active = self.pairs[args > 0.0]
            np.subtract.at(coef, active[:, 0], self.lambda2)
            np.add.at(coef, active[:, 1], self.lambda2)
        A = coef[:, None] * self.V
        A *= cache.kernel
        r = A.sum(axis=1) + A.sum(axis=0)
        PX = r[:, None] * X
        PX -= A @ X
        PX -= A.T @ X
        return -2.0 * L @ (X.T @ PX)


def camel_cl_loss(
    L, data: Dataset, cfg: ObjectiveConfig, pairs: RankingPairs
) -> LossBreakdown:
    """Class-label loss plus L1 plus the hinge ranking penalty."""
    return Objective(data, pairs, cfg.lambda1, cfg.lambda2).value(L)[0]


def smooth_gradient(
    L, data: Dataset, cfg: ObjectiveConfig, pairs: RankingPairs
) -> np.ndarray:
    """Gradient of the smooth loss terms (push/pull + ranking) in L."""
    objective = Objective(data, pairs, cfg.lambda1, cfg.lambda2)
    return objective.gradient(L, objective.value(L)[1])
