"""Proximal (sub)gradient solver producing exactly-sparse metric matrices.

Each iteration takes a gradient step on the smooth loss terms and applies
element-wise soft thresholding for the L1 penalty, so entries land on
exactly 0.0 rather than merely small values. Backtracking line search keeps
the accepted total loss non-increasing. The objective is non-convex in L;
results depend on the initialization seed and no global-optimality claim is
made.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import (
    DegenerateClassError,
    MissingSupervisionError,
    NumericalFailureError,
    ValidationError,
)
from .objective import LossBreakdown, Objective, RankingPairs, build_ranking_pairs

_MIN_STEP = 1e-20
_INIT_STREAM = 3  # keeps equal seeds from aliasing other RNG consumers


@dataclass(frozen=True)
class FixedStep:
    eta: float = 0.1


@dataclass(frozen=True)
class BacktrackingStep:
    eta0: float = 1.0
    shrink: float = 0.5
    growth: float = 1.1


@dataclass(frozen=True)
class ScaledIdentityInit:
    pass


@dataclass(frozen=True)
class SeededGaussianInit:
    sigma: float = 1.0


@dataclass(frozen=True)
class TrainConfig:
    lambda1: float = 0.0
    lambda2: float = 0.0
    proj_dim: int | None = None  # None -> square L (m' = m)
    max_iters: int = 500
    rel_tol: float = 1e-6
    step_policy: FixedStep | BacktrackingStep = field(default_factory=BacktrackingStep)
    init_policy: ScaledIdentityInit | SeededGaussianInit = field(
        default_factory=ScaledIdentityInit
    )
    pair_cap: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0 for v in (self.lambda1, self.lambda2)):
            raise ValidationError("lambda1 and lambda2 must be finite and nonnegative")
        if self.proj_dim is not None and self.proj_dim < 1:
            raise ValidationError("proj_dim must be positive")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be positive")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValidationError("rel_tol must be finite and positive")
        if self.pair_cap is not None and self.pair_cap < 1:
            raise ValidationError("pair_cap must be a positive integer")


@dataclass(frozen=True)
class TraceRecord:
    total: float
    pushpull: float
    l1: float
    ranking: float
    step_size: float
    sparsity: float


@dataclass
class TrainTrace:
    records: list[TraceRecord] = field(default_factory=list)
    # why the loop ended: "rel_tol", "step_underflow" or "max_iters"
    stop_reason: str = "max_iters"

    @property
    def status(self) -> str:
        """max_iters when the loop ran out of iterations, else converged."""
        return "max_iters" if self.stop_reason == "max_iters" else "converged"

    def append(self, loss: LossBreakdown, step_size: float, L: np.ndarray):
        self.records.append(
            TraceRecord(
                total=loss.total,
                pushpull=loss.pushpull,
                l1=loss.l1,
                ranking=loss.ranking,
                step_size=step_size,
                sparsity=float(np.mean(L == 0.0)),
            )
        )


def soft_threshold(M, t: float) -> np.ndarray:
    """Element-wise v -> sign(v) * max(|v| - t, 0); |v| <= t becomes exact 0."""
    if t < 0:
        raise ValidationError("threshold must be nonnegative")
    M = np.asarray(M, dtype=np.float64)
    return np.sign(M) * np.maximum(np.abs(M) - t, 0.0)


def init_metric(m: int, m_prime: int, data: Dataset, policy, seed: int) -> np.ndarray:
    """Initial L with scale chosen from the data.

    The initial scale doubles as the initial kernel bandwidth, so the base
    matrix (identity pattern or seeded Gaussian entries) is rescaled so the
    median projected squared distance over up to 1000 seeded random training
    pairs equals 1. A median of exactly 0 (duplicate-only data) falls back
    to scale 1 with a warning.
    """
    if m < 1 or m_prime < 1:
        raise ValidationError("matrix dimensions must be positive")
    rng = np.random.default_rng([seed, _INIT_STREAM])
    if isinstance(policy, SeededGaussianInit):
        base = rng.normal(0.0, policy.sigma, size=(m_prime, m))
    else:
        base = np.eye(m_prime, m)
    n_pairs = min(1000, data.n * (data.n - 1))
    i = rng.integers(0, data.n, size=n_pairs)
    j = rng.integers(0, data.n - 1, size=n_pairs)
    j[j >= i] += 1  # uniform over j != i
    deltas = (data.X[i] - data.X[j]) @ base.T
    med = float(np.median(np.einsum("ij,ij->i", deltas, deltas)))
    if med == 0.0:
        warnings.warn("median pairwise distance is zero; using unit scale")
        return base
    return base / np.sqrt(med)


def fit(data: Dataset, cfg: TrainConfig) -> tuple[np.ndarray, TrainTrace]:
    """Minimize the training objective by proximal gradient descent.

    One ``Objective`` serves the whole fit. The starting loss and every
    line-search trial compute exactly one kernel matrix; the accepted
    trial's cache (kernel and margins) feeds the next gradient and is then
    dropped, so only one n x n kernel is alive while later trials run.

    Returns the final metric matrix and the full per-iteration trace.
    Deterministic given the dataset and the config seed.
    """
    n0, n1 = data.class_counts()
    if n0 < 2 or n1 < 2:
        raise DegenerateClassError("training requires at least 2 instances per class")
    if cfg.lambda2 > 0 and data.c is None:
        raise MissingSupervisionError("lambda2 > 0 requires confidence labels")

    m = data.m
    m_prime = cfg.proj_dim if cfg.proj_dim is not None else m
    L = init_metric(m, m_prime, data, cfg.init_policy, cfg.seed)

    if cfg.lambda2 > 0:
        pairs = build_ranking_pairs(data.y, data.c, cfg.pair_cap, cfg.seed)
    else:
        pairs = RankingPairs()
    objective = Objective(data, pairs, cfg.lambda1, cfg.lambda2)

    loss, cache = objective.value(L)
    if not np.isfinite(loss.total):
        raise NumericalFailureError("non-finite loss at initialization", iteration=0)

    backtracking = isinstance(cfg.step_policy, BacktrackingStep)
    eta = cfg.step_policy.eta0 if backtracking else cfg.step_policy.eta

    trace = TrainTrace()
    trace.append(loss, eta, L)

    def trial(k, L, g, eta):
        L_new = soft_threshold(L - eta * g, eta * cfg.lambda1)
        loss_new, cache_new = objective.value(L_new)
        if not np.isfinite(loss_new.total):
            raise NumericalFailureError(
                f"non-finite loss at iteration {k + 1}", iteration=k + 1
            )
        return L_new, loss_new, cache_new

    for k in range(cfg.max_iters):
        g = objective.gradient(L, cache)
        cache = None  # free this kernel before the trials build theirs
        if backtracking:
            accepted = False
            while eta >= _MIN_STEP:
                L_new, loss_new, cache = trial(k, L, g, eta)
                if loss_new.total <= loss.total:
                    accepted = True
                    break
                cache = None
                eta *= cfg.step_policy.shrink
            if not accepted:
                # step size underflowed without descent; treat as stationary
                trace.stop_reason = "step_underflow"
                break
        else:
            L_new, loss_new, cache = trial(k, L, g, eta)

        rel_change = abs(loss_new.total - loss.total) / max(abs(loss.total), 1e-12)
        L, loss = L_new, loss_new
        trace.append(loss, eta, L)
        if backtracking:
            eta *= cfg.step_policy.growth
        if rel_change < cfg.rel_tol:
            trace.stop_reason = "rel_tol"
            break

    return L, trace
