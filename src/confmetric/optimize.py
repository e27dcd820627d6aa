"""Proximal (sub)gradient solver producing exactly-sparse metric matrices.

Each iteration takes a gradient step on the smooth loss terms and applies
element-wise soft thresholding for the L1 penalty, so entries land on
exactly 0.0 rather than merely small values. There is one step rule:
backtracking line search that starts at step 1, halves the step for each
rejected trial, grows it by 1.1 after each accepted iteration, and stops the
fit once the step falls below 1e-20. A trial is accepted when its total loss
does not exceed the current one, so the accepted total loss never increases.
A trial is rejected without building its kernel when ``Objective.floor``
already exceeds the current total: every kernel value lies in [0, 1] with a
zero diagonal, so each margin is at most 1, the push/pull term at least -n
and the hinge at least 0, and no trial scores below lambda1 ||L||_1 - n.
Such a trial counts as rejected: the step halves as for any other, so the
steps, the accepted L and the trace are those of evaluating every trial.
The rows reach the objective in the caller's order; it sorts and checks
them itself. The objective is non-convex in L; results depend on the
initialization seed and no global-optimality claim is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_io import _array_fits, _integers, _numbers
from .dataset import Dataset
from .errors import NumericalFailureError, ValidationError
from .evaluate import sparsity
from .objective import LossBreakdown, Objective

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
    # kernels built by this iteration's line search; 1 on row 0, the start
    loss_evals: int


@dataclass
class TrainTrace:
    records: list[TraceRecord] = field(default_factory=list)
    # why the loop ended: "rel_tol", "step_underflow" or "max_iters"
    stop_reason: str = "max_iters"

    @property
    def status(self) -> str:
        """max_iters when the loop ran out of iterations, else converged."""
        return "max_iters" if self.stop_reason == "max_iters" else "converged"

    def append(self, loss: LossBreakdown, step_size: float, L: np.ndarray,
               loss_evals: int):
        self.records.append(
            TraceRecord(
                total=loss.total,
                pushpull=loss.pushpull,
                l1=loss.l1,
                ranking=loss.ranking,
                step_size=step_size,
                sparsity=sparsity(L),
                loss_evals=loss_evals,
            )
        )


def soft_threshold(M, t: float) -> np.ndarray:
    """Element-wise v -> sign(v) * max(|v| - t, 0); |v| <= t becomes exact 0."""
    if not t >= 0:  # NaN fails too
        raise ValidationError("threshold must be nonnegative")
    M = np.asarray(M, dtype=np.float64)
    return np.sign(M) * np.maximum(np.abs(M) - t, 0.0)


def init_metric(m: int, m_prime: int, data: Dataset, seed: int) -> np.ndarray:
    """Initial L: the m' x m identity pattern, scaled from the data.

    The initial scale doubles as the initial kernel bandwidth, so
    ``np.eye(m_prime, m)`` is rescaled so the median projected squared
    distance over up to 1000 seeded random training pairs equals 1. A
    median of exactly 0 (duplicate-only data) gives no scale to take, so the
    pattern keeps unit scale; that is a valid start, not a fault, and is
    returned without a warning.
    """
    if m < 1 or m_prime < 1:
        raise ValidationError("matrix dimensions must be positive")
    if not _array_fits(m_prime, m):
        raise ValidationError("proj_dim * m is too large for a numpy array")
    rng = np.random.default_rng([seed, _INIT_STREAM])
    base = np.eye(m_prime, m)
    n_pairs = min(1000, data.n * (data.n - 1))
    i = rng.integers(0, data.n, size=n_pairs)
    j = rng.integers(0, data.n - 1, size=n_pairs)
    j[j >= i] += 1  # uniform over j != i
    deltas = (data.X[i] - data.X[j]) @ base.T
    med = float(np.median(np.einsum("ij,ij->i", deltas, deltas)))
    return base / np.sqrt(med) if med > 0.0 else base


def fit(data: Dataset, cfg: TrainConfig) -> tuple[np.ndarray, TrainTrace]:
    """Minimize the training objective by proximal gradient descent.

    L starts at ``init_metric``'s scaled identity. Each iteration tries
    steps eta from the previous accepted step times 1.1 (1 at the first
    iteration), halving eta after every trial whose total loss exceeds the
    current one; once eta falls below 1e-20 without descent the fit stops
    with ``stop_reason`` "step_underflow". A trial whose floor, lambda1
    ||L||_1 - n (``Objective.floor``), already exceeds the current total is
    rejected without building its kernel: no kernel value leaves [0, 1], so
    no margin exceeds 1 and no total falls below the floor. Skipping it
    changes no step, no L and no trace value, only how many kernels are
    built; each trace row's ``loss_evals`` counts them. The line search that
    ends a fit by "step_underflow" appends no row, so its kernels are in no
    row's count.

    One ``Objective`` serves the whole fit and is given the rows as they
    come, as ``init_metric`` is. It raises DegenerateClassError when a class
    has fewer than 2 instances and MissingSupervisionError when lambda2 > 0
    comes without confidences. The starting loss and every line-search
    trial build the kernel's upper tiles exactly once; the accepted trial's cache (tiles and hinge
    gains) feeds the next gradient and is then dropped, so only one set of
    tiles is alive while later trials run. The ranking pairs are never
    listed: the Objective keeps each instance's confidence rank and counts
    the active pairs from it.
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
    objective = Objective(data, None, cfg.lambda1, cfg.lambda2)
    m = data.m
    m_prime = cfg.proj_dim if cfg.proj_dim is not None else m
    L = init_metric(m, m_prime, data, cfg.seed)

    loss, cache = objective.value(L)
    if not np.isfinite(loss.total):
        raise NumericalFailureError("non-finite loss at initialization")

    eta = _ETA0
    trace = TrainTrace()
    trace.append(loss, eta, L, loss_evals=1)

    for k in range(cfg.max_iters):
        g = objective.gradient(L, cache)
        cache = None  # free these tiles before the trials build theirs
        evals = 0
        while eta >= _MIN_STEP:
            L_new = soft_threshold(L - eta * g, eta * cfg.lambda1)
            if objective.floor(L_new) > loss.total:
                eta *= _SHRINK  # a certain loser: reject it without a kernel
                continue
            loss_new, cache = objective.value(L_new)
            evals += 1
            if not np.isfinite(loss_new.total):
                raise NumericalFailureError(f"non-finite loss at iteration {k + 1}")
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
        trace.append(loss, eta, L, evals)
        eta *= _GROWTH
        if rel_change < cfg.rel_tol:
            trace.stop_reason = "rel_tol"
            break

    return L, trace
