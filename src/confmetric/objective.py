"""Training losses and their analytic smooth gradient.

Two objectives are implemented. The base loss sums, over all training
instances, the opposite-class similarity score minus the own-class score,
plus an element-wise L1 penalty on the metric matrix. The ranking variant
adds a pairwise hinge penalty that pushes the score margin of instances the
labeler was more confident about above the margin of instances she was less
confident about, within each class.

``Objective`` evaluates the ranking variant on one dataset. What depends
only on the data (the one-hot labels, the class reference counts, the
ranking pairs and the weights) is built once, when it is constructed; the
class structure is kept at n x 2, so none of it is n x n.
``Objective.value(L)`` computes one n x n kernel matrix and returns the loss
together with an ``ObjectiveCache`` holding that kernel and which hinge
pairs are active; ``Objective.gradient(L, cache)`` reuses both, so the loss
and the gradient at one L share a single kernel and a single hinge
evaluation. ``camel_cl_loss`` and ``smooth_gradient`` are one-shot wrappers
over it. ``camel_loss`` computes the base loss on its own, through
``similarity_scores``, and is the reference the ranking variant must equal
exactly when lambda2 is 0.

The L1 term is not differentiated here; the optimizer handles it through a
proximal step. At exact hinge kinks the subgradient 0 is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:  # optimize imports this module
    from .optimize import TrainConfig

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


def build_ranking_pairs(labels, confidences) -> RankingPairs:
    """All (a, b) with equal labels and strictly greater confidence at a.

    Ties produce no pair.
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
    return RankingPairs(np.column_stack([a_idx, b_idx]).astype(np.int64))


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

    kernel: np.ndarray  # (n, n) Gaussian kernel of the training rows, 0 diagonal
    active: np.ndarray | None  # (pairs,) hinge is active; None with the term off


class Objective:
    """Class-label loss, L1 penalty and ranking hinge on one dataset.

    Built once per dataset and evaluated at many L. Both class reference
    sets of every instance must be nonempty, and every ranking pair must
    index a training row. Instance i's margin is sum_c W_ic (K B)_ic, with
    B the one-hot labels and W = (2 B - 1) / counts (+1/own, -1/opp).
    """

    def __init__(
        self, data: Dataset, pairs: RankingPairs, lambda1: float, lambda2: float
    ):
        self.data = data
        self.onehot, self.counts = _class_references(data)
        self.W = (2.0 * self.onehot - 1.0) / self.counts
        # the coef-independent columns of the gradient's one product with K
        B, X = self.onehot, data.X
        self.rhs = np.concatenate([B, B[:, :1] * X, B[:, 1:] * X], axis=1)
        self.pairs = _check_pairs(pairs, data.n)
        self.lambda1 = lambda1
        self.lambda2 = lambda2

    def value(self, L) -> tuple[LossBreakdown, ObjectiveCache]:
        """Loss at L, and the kernel and active hinge pairs behind it.

        For each pair (a, b) the hinge activates when b's margin exceeds
        a's, i.e. when the model orders the two against the labeler's
        confidences.
        """
        L = _check_metric(L)
        K = kernel_matrix(L, self.data.X)
        marg = _margins(_class_scores(K, self.onehot, self.counts), self.data.y)
        pushpull = float(-np.sum(marg))
        l1 = float(self.lambda1 * np.abs(L).sum())
        ranking, active = 0.0, None
        p = self.pairs
        if self.lambda2 > 0 and len(p):
            args = marg[p[:, 1]] - marg[p[:, 0]]
            ranking = float(self.lambda2 * np.maximum(0.0, args).sum())
            active = args > 0.0
        loss = LossBreakdown(pushpull=pushpull, l1=l1, ranking=ranking)
        return loss, ObjectiveCache(kernel=K, active=active)

    def gradient(self, L, cache: ObjectiveCache) -> np.ndarray:
        """Gradient of the smooth loss terms (push/pull + ranking) in L.

        ``cache`` must be what ``value`` returned for this same L; its
        kernel (zero diagonal) and active hinge pairs are read, not
        recomputed. The L1 term is excluded; the proximal step owns it.
        Derivation: each kernel value k = exp(-||L d||^2) contributes
        dk/dL = -2 k L d d^T, and the smooth loss is sum_ij K_ij (M B^T)_ij
        with M = diag(coef) W, so the gradient is
        -2 L (X^T diag(r) X - X^T A X - X^T A^T X) for A = K * (M B^T),
        never formed: r = rowsum(M * (K B)) + rowsum(B * (K M)) and
        X^T A X = sum_c (M_c * X)^T K (B_c * X). All four products with K
        come from one GEMM, K [B | B_0 * X | B_1 * X | M], an n x (4 + 2m)
        matrix, so the kernel is read once. With a unit diagonal the self
        terms would cancel only in exact arithmetic, which fails at a
        near-identity kernel.
        """
        L = _check_metric(L)
        X = self.data.X
        n, m = X.shape
        B = self.onehot
        # coefficient of each instance's margin in the smooth loss
        coef = np.full(n, -1.0)
        if cache.active is not None:
            p = self.pairs
            gain = (np.bincount(p[:, 1], weights=cache.active, minlength=n)
                    - np.bincount(p[:, 0], weights=cache.active, minlength=n))
            coef += self.lambda2 * gain
        M = coef[:, None] * self.W
        KP = cache.kernel @ np.concatenate([self.rhs, M], axis=1)
        r = np.einsum("ic,ic->i", M, KP[:, :2]) + np.einsum("ic,ic->i", B, KP[:, -2:])
        KBX = (KP[:, 2 : 2 + m], KP[:, 2 + m : 2 + 2 * m])
        XAX = sum((M[:, c, None] * X).T @ KBX[c] for c in (0, 1))
        return -2.0 * L @ (X.T @ (r[:, None] * X) - XAX - XAX.T)


def camel_cl_loss(
    L, data: Dataset, cfg: TrainConfig, pairs: RankingPairs
) -> LossBreakdown:
    """Class-label loss plus L1 plus the hinge ranking penalty.

    Only cfg.lambda1 and cfg.lambda2 are read.
    """
    return Objective(data, pairs, cfg.lambda1, cfg.lambda2).value(L)[0]


def smooth_gradient(
    L, data: Dataset, cfg: TrainConfig, pairs: RankingPairs
) -> np.ndarray:
    """Gradient of the smooth loss terms (push/pull + ranking) in L."""
    objective = Objective(data, pairs, cfg.lambda1, cfg.lambda2)
    return objective.gradient(L, objective.value(L)[1])
