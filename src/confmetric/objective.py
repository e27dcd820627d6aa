"""Training losses and their analytic smooth gradient.

Two objectives are implemented. The base loss sums, over all training
instances, the opposite-class similarity score minus the own-class score,
plus an element-wise L1 penalty on the metric matrix. The ranking variant
adds a pairwise hinge penalty that pushes the score margin of instances the
labeler was more confident about above the margin of instances she was less
confident about, within each class.

``Objective`` evaluates the ranking variant on one dataset. It takes the
rows in any order and keeps them stably sorted by label: every term is a sum
over instances or a mean over a class, so the order changes no value, any
caller's order gives the same bits, and each gradient product meets one
class's rows only. It checks that each class has two instances and, with the
hinge on, that confidences are given. What depends only on the data is
built once, when it is constructed: the one-hot labels, the class reference
counts, the confidence ranks, the weights, the flat indices of each row's
own-class and other-class scores (``_label_entries``) and the hinge's float
sort positions. The class structure is kept at n x 2, so none of it is
n x n. Each evaluation then does only the arithmetic that depends on L, and
no method writes into an array that a later call reads, so a cache stays
valid while other evaluations run.
``Objective.value(L)`` checks L, builds the kernel once, as its upper tiles
(see ``metric._upper_tiles``), and returns the loss together with an
``ObjectiveCache``: the whole evaluation at that L, namely the checked L,
the tiles, the kernel's class sums K B and each instance's hinge gain (its
active pairs as the less confident member minus those as the more confident
one). ``Objective.gradient(cache)`` reads nothing else, so the loss and the
gradient at one L share a single kernel and a single hinge evaluation, and
no n x n array is ever formed. ``Objective.floor(L)`` bounds the total
from below without building a kernel, which lets the line search reject a
trial whose L1 term alone already loses. ``camel_loss``, ``camel_cl_loss``
and ``smooth_gradient`` are one-shot wrappers over it; ``camel_loss`` is
the ranking variant at lambda2 = 0. ``similarity_scores`` gives the
objective's own class means in the caller's row order.

The hinge never lists its pairs when fitting. Order a class once by
(margin, confidence) and once by (confidence, margin): an instance's
position in the first minus its position in the second counts the instances
of lower margin and higher confidence minus those of higher margin and lower
confidence, which is exactly its gain. Every active pair adds the less
confident member's margin minus the more confident one's, so the hinge sum
is the margins dotted with the gains. Two sorts give both in O(n log n)
time and O(n) memory (the linear-time ranking SVM of Joachims, KDD 2006).
``build_ranking_pairs`` lists the pairs explicitly; an ``Objective`` given
such a list sums the hinge over it pair by pair, which the tests use as the
reference.

The L1 term is not differentiated here; the optimizer handles it through a
proximal step. At exact hinge kinks the subgradient 0 is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Dataset, check_labels
from .errors import DegenerateClassError, DimensionMismatchError, MissingSupervisionError
from .metric import _check_metric, _class_products, _upper_tiles

if TYPE_CHECKING:  # optimize imports this module
    from .optimize import TrainConfig

# Objective.floor widens the push/pull term's bound -n by this share of n
_FLOOR_SLACK = 1e-6


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

    Ties produce no pair. Labels and confidences are checked as ``Dataset``
    checks them.
    """
    if confidences is None:
        raise MissingSupervisionError("ranking pairs require confidence labels")
    labels, confidences = check_labels(labels, confidences, np.size(labels))
    same = labels[:, None] == labels[None, :]
    higher = confidences[:, None] > confidences[None, :]
    a_idx, b_idx = np.nonzero(same & higher)
    return RankingPairs(np.column_stack([a_idx, b_idx]).astype(np.int64, copy=False))


def _confidence_ranks(y: np.ndarray, c) -> np.ndarray:
    """Each instance's confidence rank, every class-1 rank above every
    class-0 one; tied confidences share a rank, so they make no pair."""
    if c is None:
        raise MissingSupervisionError("lambda2 > 0 requires confidence labels")
    return np.unique(c, return_inverse=True)[1] + len(y) * y


def _counted_hinge(marg: np.ndarray, y: np.ndarray, rank: np.ndarray,
                   positions: np.ndarray) -> tuple[float, np.ndarray]:
    """The hinge sum over every ranking pair, and each instance's gain, from
    the ranks of ``_confidence_ranks`` without listing a pair; ``positions``
    is ``np.arange(n)`` as float64.

    The gain is the position by (class, margin, rank) minus the position by
    (class, rank, margin); see the module docstring.
    """
    gain = np.empty(len(marg))
    gain[np.lexsort((rank, marg, y))] = positions
    gain[np.lexsort((marg, rank))] -= positions
    return float(marg @ gain), gain


def similarity_scores(L, data: Dataset) -> np.ndarray:
    """Mean within-class kernel similarity for every instance and class.

    Returns an (n, 2) array S, in data's row order, where S[i, y] is the mean
    similarity of instance i to all other instances with label y (self
    excluded by index): the objective's own class means, bit for bit.
    Raises DegenerateClassError if a class has fewer than 2 instances.
    """
    objective = Objective(data, None, 0.0, 0.0)
    S = np.empty((data.n, 2))
    S[objective.order] = objective.value(L)[1].KB / objective.counts
    return S


def _label_entries(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (C-order) indices of each row's own-class and other-class entries
    in an (n, 2) array."""
    own = 2 * np.arange(len(y)) + y
    return own, own + 1 - 2 * y


def _margins(S: np.ndarray, own: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Own-class minus other-class score of each row of the (n, 2) scores S,
    at the flat indices of ``_label_entries``."""
    return S.take(own) - S.take(other)


def _check_pairs(pairs: RankingPairs, n: int) -> np.ndarray:
    p = np.asarray(pairs.pairs)
    if p.ndim != 2 or p.shape[1] != 2 or not np.issubdtype(p.dtype, np.integer):
        raise DimensionMismatchError("ranking pairs must be an integer array of shape (k, 2)")
    if len(p) and (p.min() < 0 or p.max() >= n):
        raise DimensionMismatchError("ranking pair index out of range")
    return p


@dataclass(frozen=True)
class ObjectiveCache:
    """What ``Objective.value`` computed at one L, for ``gradient`` at that L."""

    L: np.ndarray  # the checked metric
    # (rows, cols, K[rows, cols]) for the training kernel's tiles at or
    # above the diagonal; the diagonal is 0
    tiles: list[tuple[slice, slice, np.ndarray]]
    KB: np.ndarray  # (n, 2) the kernel's class sums K @ B
    # (n,) per instance, its active hinge pairs as the less confident member
    # minus those as the more confident one; None with the term off
    gain: np.ndarray | None


class Objective:
    """Class-label loss, L1 penalty and ranking hinge on one dataset.

    Built once per dataset and evaluated at many L. ``data`` holds the rows
    stably sorted by label, class 0 its first ``n0``, and the cache's tiles
    and gains follow that order. Each class needs at least 2 instances
    (DegenerateClassError). Instance i's margin is sum_c W_ic (K B)_ic, with
    B the one-hot labels and W = (2 B - 1) / counts (+1/own, -1/opp).

    With ``pairs`` None the hinge runs over every ranking pair of the data's
    confidences without listing them: only each instance's confidence rank
    is kept, and lambda2 > 0 requires confidences
    (MissingSupervisionError). Given ``RankingPairs``, it runs over those
    pairs only, each of which must index a row of the caller's data.
    """

    def __init__(
        self, data: Dataset, pairs: RankingPairs | None, lambda1: float, lambda2: float
    ):
        self.order = order = np.argsort(data.y, kind="stable")
        self.data = data = data.subset(order)
        self.n0, n1 = data.class_counts()
        if min(self.n0, n1) < 2:
            raise DegenerateClassError("each class needs at least 2 instances")
        self.onehot = np.eye(2)[data.y]
        # each instance's reference-set size per class, itself excluded
        self.counts = np.array([self.n0, n1], dtype=np.float64)[None, :] - self.onehot
        self.W = (2.0 * self.onehot - 1.0) / self.counts
        # what depends on the rows only, for value and gradient to read
        self._own, self._other = _label_entries(data.y)
        self._positions = np.arange(data.n, dtype=np.float64)
        self.pairs = None
        if pairs is not None:  # from the caller's row indices to the sorted ones
            self.pairs = np.argsort(order)[_check_pairs(pairs, data.n)]
        self.rank = None
        if pairs is None and lambda2 > 0:
            self.rank = _confidence_ranks(data.y, data.c)
        self.lambda1 = lambda1
        self.lambda2 = lambda2

    def value(self, L) -> tuple[LossBreakdown, ObjectiveCache]:
        """Loss at L, and the kernel tiles and hinge gains behind it.

        For each pair (a, b) the hinge activates when b's margin exceeds
        a's, i.e. when the model orders the two against the labeler's
        confidences.
        """
        L = _check_metric(L)
        tiles, KB = _upper_tiles(L, self.data.X, self.onehot)
        marg = _margins(KB / self.counts, self._own, self._other)
        pushpull = float(-marg.sum())
        l1 = self._l1(L)
        ranking, gain = 0.0, None
        if self.lambda2 > 0:
            hinge, gain = self._hinge(marg)
            ranking = float(self.lambda2 * hinge)
        loss = LossBreakdown(pushpull=pushpull, l1=l1, ranking=ranking)
        return loss, ObjectiveCache(L=L, tiles=tiles, KB=KB, gain=gain)

    def floor(self, L) -> float:
        """A lower bound of ``value(L)[0].total`` that builds no kernel.

        Every kernel value is exp(-d^2) in [0, 1] and the diagonal is 0, so
        each margin (own-class mean minus opposite-class mean) is at most 1
        and the push/pull term at least -n; the hinge is at least 0. So the
        total is at least lambda1 ||L||_1 - n. The L1 term is the one
        ``value`` computes, and n is widened by 1e-6 of itself to absorb
        the rounding of the computed margins and hinge; float addition is
        monotone, so the bound then holds for the computed total too.
        """
        return self._l1(L) - self.data.n * (1.0 + _FLOOR_SLACK)

    def _l1(self, L) -> float:
        return float(self.lambda1 * np.abs(L).sum())

    def _hinge(self, marg: np.ndarray) -> tuple[float, np.ndarray]:
        """The hinge sum at these margins and each instance's gain."""
        if self.rank is not None:
            return _counted_hinge(marg, self.data.y, self.rank, self._positions)
        more, less = self.pairs.T
        args = marg[less] - marg[more]
        active = (args > 0.0).astype(np.float64)
        n = self.data.n
        gain = (np.bincount(less, weights=active, minlength=n)
                - np.bincount(more, weights=active, minlength=n))
        return np.maximum(0.0, args, out=args).sum(), gain

    def gradient(self, cache: ObjectiveCache) -> np.ndarray:
        """Gradient of the smooth loss terms (push/pull + ranking) at the L
        that ``value`` returned ``cache`` for.

        The cache's L, kernel tiles (zero diagonal), class sums and hinge
        gains are read, not recomputed. The L1 term is excluded; the
        proximal step owns it.
        Derivation: each kernel value k = exp(-||L d||^2) contributes
        dk/dL = -2 k L d d^T, and the smooth loss is sum_ij K_ij (M B^T)_ij
        with M = diag(coef) W, so the gradient is
        -2 L (X^T diag(r) X - X^T A X - X^T A^T X) for A = K * (M B^T),
        never formed: r = rowsum(M * (K B)) + rowsum(B * (K M)) and
        X^T A X = sum_c (M_c * X)^T K (B_c * X). K B is the cache's; the
        other products with K come from K (B_c [X | M]) for c = 0, 1, taken
        tile by tile over the tile's share of class c's span of the sorted
        rows, so no row that B_c zeroes is multiplied.
        With a unit diagonal the self terms would cancel only in exact
        arithmetic, which fails at a near-identity kernel.
        """
        X = self.data.X
        m = X.shape[1]
        # coefficient of each instance's margin in the smooth loss
        coef = -1.0 if cache.gain is None else (self.lambda2 * cache.gain - 1.0)[:, None]
        M = coef * self.W
        # (K (B_c [X | M]))^T for each class c; [X | M] is C-contiguous at
        # every m, so the tile products always read its transpose one way
        P = np.concatenate((X, M), axis=1)
        KP = _class_products(cache.tiles, self.n0, P.T)
        r = (np.einsum("ic,ic->i", M, cache.KB)
             + np.einsum("ik,cki->i", self.onehot, KP[:, -2:]))
        XAtX = sum(KP[c, :m] @ (M[:, c, None] * X) for c in (0, 1))
        return -2.0 * cache.L @ (X.T @ (r[:, None] * X) - XAtX.T - XAtX)


def camel_loss(L, data: Dataset, lambda1: float) -> LossBreakdown:
    """Push/pull class-label loss plus element-wise L1 penalty."""
    return Objective(data, None, lambda1, 0.0).value(L)[0]


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
    return objective.gradient(objective.value(L)[1])
