"""Proximal (sub)gradient solver producing exactly-sparse metric matrices.

Each iteration takes a gradient step on the smooth loss terms and applies
element-wise soft thresholding for the L1 penalty, so entries land on
exactly 0.0 rather than merely small values. There is one step rule:
backtracking line search that starts at step 1, halves the step for each
rejected trial, grows it by 1.1 after each accepted iteration, and stops the
fit once the step falls below 1e-20. A trial is accepted when its total loss
does not exceed the current one, so the accepted total loss never increases.
The objective is non-convex in L; results depend on the initialization seed
and no global-optimality claim is made.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data_io import _integers, _numbers
from .dataset import Dataset
from .errors import (
    DegenerateClassError,
    MissingSupervisionError,
    NumericalFailureError,
    ValidationError,
)
from .evaluate import sparsity
from .objective import LossBreakdown, Objective, RankingPairs, build_ranking_pairs

_ETA0 = 1.0  # first trial step
_SHRINK = 0.5  # step factor per rejected trial
_GROWTH = 1.1  # step factor per accepted iteration
_MIN_STEP = 1e-20  # a step below this ends the fit ("step_underflow")
_INIT_STREAM = 3  # keeps equal seeds from aliasing other RNG consumers


@dataclass(frozen=True)
class TrainConfig:
    lambda1: float = 0.0
    lambda2: float = 0.0
    proj_dim: int | None = None  # None -> square L (m' = m)
    max_iters: int = 500
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        dims = [self.proj_dim] if self.proj_dim is not None else []
        if not _integers(self.max_iters, self.seed, *dims):
            raise ValidationError("max_iters, proj_dim and seed must be integers")
        if not _numbers(self.lambda1, self.lambda2, self.rel_tol):
            raise ValidationError("lambda1, lambda2 and rel_tol must be numbers")
        if not all(math.isfinite(v) and v >= 0 for v in (self.lambda1, self.lambda2)):
            raise ValidationError("lambda1 and lambda2 must be finite and nonnegative")
        if self.proj_dim is not None and self.proj_dim < 1:
            raise ValidationError("proj_dim must be positive")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be positive")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValidationError("rel_tol must be finite and positive")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")


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
                sparsity=sparsity(L),
            )
        )


def soft_threshold(M, t: float) -> np.ndarray:
    """Element-wise v -> sign(v) * max(|v| - t, 0); |v| <= t becomes exact 0."""
    if t < 0:
        raise ValidationError("threshold must be nonnegative")
    M = np.asarray(M, dtype=np.float64)
    return np.sign(M) * np.maximum(np.abs(M) - t, 0.0)


def init_metric(m: int, m_prime: int, data: Dataset, seed: int) -> np.ndarray:
    """Initial L: the m' x m identity pattern, scaled from the data.

    The initial scale doubles as the initial kernel bandwidth, so
    ``np.eye(m_prime, m)`` is rescaled so the median projected squared
    distance over up to 1000 seeded random training pairs equals 1. A
    median of exactly 0 (duplicate-only data) falls back to scale 1 with a
    warning.
    """
    if m < 1 or m_prime < 1:
        raise ValidationError("matrix dimensions must be positive")
    rng = np.random.default_rng([seed, _INIT_STREAM])
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

    L starts at ``init_metric``'s scaled identity. Each iteration tries
    steps eta from the previous accepted step times 1.1 (1 at the first
    iteration), halving eta after every trial whose total loss exceeds the
    current one; once eta falls below 1e-20 without descent the fit stops
    with ``stop_reason`` "step_underflow".

    One ``Objective`` serves the whole fit. The starting loss and every
    line-search trial compute exactly one kernel matrix; the accepted
    trial's cache (kernel and active pairs) feeds the next gradient and is
    then dropped, so only one n x n kernel is alive while later trials run.
    Floating-point overflow, invalid operations and division by zero raise
    NumericalFailureError; the kernel underflows by design, so underflow does not.

    Returns the final metric matrix and the full per-iteration trace.
    Deterministic given the dataset and the config seed.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _descend(data, cfg)
    except FloatingPointError as exc:
        raise NumericalFailureError(f"{exc} while fitting") from None


def _descend(data: Dataset, cfg: TrainConfig) -> tuple[np.ndarray, TrainTrace]:
    n0, n1 = data.class_counts()
    if n0 < 2 or n1 < 2:
        raise DegenerateClassError("training requires at least 2 instances per class")
    if cfg.lambda2 > 0 and data.c is None:
        raise MissingSupervisionError("lambda2 > 0 requires confidence labels")

    m = data.m
    m_prime = cfg.proj_dim if cfg.proj_dim is not None else m
    L = init_metric(m, m_prime, data, cfg.seed)

    pairs = build_ranking_pairs(data.y, data.c) if cfg.lambda2 > 0 else RankingPairs()
    objective = Objective(data, pairs, cfg.lambda1, cfg.lambda2)

    loss, cache = objective.value(L)
    if not np.isfinite(loss.total):
        raise NumericalFailureError("non-finite loss at initialization", iteration=0)

    eta = _ETA0
    trace = TrainTrace()
    trace.append(loss, eta, L)

    for k in range(cfg.max_iters):
        g = objective.gradient(L, cache)
        cache = None  # free this kernel before the trials build theirs
        while eta >= _MIN_STEP:
            L_new = soft_threshold(L - eta * g, eta * cfg.lambda1)
            loss_new, cache = objective.value(L_new)
            if not np.isfinite(loss_new.total):
                raise NumericalFailureError(
                    f"non-finite loss at iteration {k + 1}", iteration=k + 1
                )
            if loss_new.total <= loss.total:
                break
            cache = None
            eta *= _SHRINK
        else:
            # step size underflowed without descent; treat as stationary
            trace.stop_reason = "step_underflow"
            break

        rel_change = abs(loss_new.total - loss.total) / max(abs(loss.total), 1e-12)
        L, loss = L_new, loss_new
        trace.append(loss, eta, L)
        eta *= _GROWTH
        if rel_change < cfg.rel_tol:
            trace.stop_reason = "rel_tol"
            break

    return L, trace
