"""Core metric, similarity, and confidence-score functions.

The learned parameter is a matrix L of shape (m', m). The squared distance
between two instances is the squared Euclidean distance after projecting
through L, which makes the implied quadratic form L^T L positive
semidefinite by construction. Similarity is the Gaussian kernel of that
distance with bandwidth absorbed into the scale of L.

``positive_scores`` is the one query scorer. It scores every finite row
whose projection does not overflow (that raises NumericalFailureError): a
row whose kernel values would all underflow is taken relative to its
nearest reference, which leaves its ratio s1 / (s0 + s1) unchanged.

There are two kernel builders, one per job, and neither forms a full kernel.
Both project through ``_project`` with L less its all-zero rows
(``_live_rows``, found once per call): each such row adds exactly 0 to every
distance, so L and L less those rows give the same bits.
Both take -d2 from one product of a ``_left_side`` and a ``_right_side``
array, then clip it at 0 and take ``exp`` in place (``_kernel_values``),
with no d2 array. ``positive_scores`` builds only the reference rows' right
side, projects the queries and takes that product in row blocks of about
``_BLOCK_BYTES`` each, turns each block into kernel values while it is in
cache and keeps only the block's two class sums. A caller that scores a
batch chunk by chunk takes ``_chunk_height`` rows a chunk, whole blocks, and
gets the bits of one call over the batch.

The training kernel, which fitting rebuilds at every loss evaluation, is
symmetric, so ``_upper_tiles`` builds only its square tiles at or above the
diagonal (``isqrt(_BLOCK_BYTES / 8)`` = 256 rows a side), packed into one
buffer. Each tile gets its own product, the same elementwise rule and a
zeroed diagonal, and gives its share of K B while it is in cache. The
gradient's other products with K come from the same tiles, over each
class's span of the label-sorted rows (``_class_products``), so fitting
never forms an n x n array. ``_shares`` is the one mirror rule for both: an
off-diagonal tile K_ij also serves as K_ji = K_ij^T. A diagonal tile is
symmetric only to the last bit, as entries (i, j) and (j, i) add the two
norms in opposite order.

The training rows, their labels and their classes belong to
``objective.Objective``. ``_upper_tiles`` gets its label-sorted rows and
one-hot labels, and an L its caller checked, as arguments and does only the
arithmetic that depends on L, in as few numpy calls as it can: at n <= 160
the cost of each call, not its arithmetic, sets a fit's time.

Underflow rule: ``exp(-d2)`` is 0.0 exactly for every ``d2 >= 746``, and
fitting drives nearly every off-diagonal distance far past that. numpy's
vectorized ``exp`` takes a slow path on each underflowing lane, so those
entries are written as 0.0 without calling ``exp``; only ``d2 < 746`` (and
NaN, which must stay NaN so a failing fit is caught) reaches ``np.exp``.
Every kernel value is therefore exactly what ``np.exp`` would return.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset
from .errors import (DegenerateClassError, DimensionMismatchError, NumericalFailureError,
                     ValidationError)


def _check_metric(L) -> np.ndarray:
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] < 1 or L.shape[1] < 1:
        raise DimensionMismatchError("metric parameter must be a 2-D matrix")
    if not np.isfinite(L).all():
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


# bytes of one row block or square tile: a few of these stay in L2 cache
_BLOCK_BYTES = 512 * 1024
# rows of a query chunk, about: _chunk_height rounds it to whole blocks
_CHUNK_ROWS = 4096
# np.exp(-d2) is exactly 0.0 for every d2 at or above this
_EXP_ZERO = 746.0
# np.exp(x) is subnormal or 0.0 for every x below this, about -708.4
_NORMAL_EDGE = math.log(np.finfo(np.float64).tiny)


def _live_rows(L) -> np.ndarray:
    """A checked L's rows that are not all zero. An all-zero row adds exactly
    0 to every distance, and this is the one place that drops it."""
    return L.compress(L.any(axis=1), axis=0)


def _project(W, X, what: str):
    """Rows Z = X W^T, for W = _live_rows(L), and their squared norms; X is
    2-D float64, and what names its rows in the dimension error."""
    if X.shape[1] != W.shape[1]:
        raise DimensionMismatchError(f"{what} dimension does not match metric columns")
    Z = X @ W.T
    return Z, np.einsum("ij,ij->i", Z, Z)


def _left_side(Z, sq) -> np.ndarray:
    """[Z, sq, 1] for rows Z of squared norms sq; its product with the
    ``_right_side`` of rows W gives 2 w.z - |w|^2 - |z|^2 = -||w - z||^2."""
    n, k = Z.shape
    left = np.empty((n, k + 2))
    left[:, :k] = Z
    left[:, k] = sq
    left[:, k + 1] = 1.0
    return left


def _right_side(Z, sq) -> np.ndarray:
    """[2Z, -1, -sq] for rows Z of squared norms sq: see ``_left_side``."""
    n, k = Z.shape
    right = np.empty((n, k + 2))
    np.multiply(Z, 2.0, out=right[:, :k])
    right[:, k] = -1.0
    np.negative(sq, out=right[:, k + 1])
    return right


def _block_height(cols: int) -> int:
    """Rows per block: about _BLOCK_BYTES of float64 at cols columns."""
    return max(1, _BLOCK_BYTES // (8 * max(cols, 1)))


def _chunk_height(n: int) -> int:
    """Query rows per chunk for a caller that scores a batch in chunks
    against n reference rows: the most whole row blocks of ``positive_scores``
    that fit in _CHUNK_ROWS rows, and at least one. Chunk by chunk, every
    block is the block that scoring the batch whole forms, so every score
    is the same bits."""
    h = _block_height(n)
    return h * max(1, _CHUNK_ROWS // h)


def _kernel_values(G: np.ndarray) -> None:
    """Turn C-contiguous G = -d2 into np.exp(np.minimum(G, 0)) in place, bit
    for bit, without passing np.exp any G <= -_EXP_ZERO, where it returns 0.0.

    Whichever of the near and the far entries are fewer are indexed: a
    gather or scatter through an index beats a boolean mask on either side.
    With no far entry, as early in a small fit, nothing is indexed.
    """
    far = G <= -_EXP_ZERO  # False for NaN, so NaN goes through np.exp
    count = np.count_nonzero(far)
    if not count:
        np.minimum(G, 0.0, out=G)
        np.exp(G, out=G)
        return
    flat = G.ravel()
    if 2 * count > far.size:
        near = np.logical_not(far, out=far).ravel().nonzero()[0]
        vals = np.minimum(flat[near], 0.0)
        np.exp(vals, out=vals)
        G.fill(0.0)
        flat[near] = vals
        return
    far = far.ravel().nonzero()[0]
    np.minimum(G, 0.0, out=G)
    flat[far] = 0.0  # exp(0.0) = 1 is on np.exp's fast path
    np.exp(G, out=G)
    flat[far] = 0.0


def _upper_tiles(L, X, B) -> tuple[list[tuple[slice, slice, np.ndarray]], np.ndarray]:
    """The Gaussian kernel K over X's rows at a checked L, zero diagonal, as
    its upper tiles, and K @ B.

    Returns (rows, cols, K[rows, cols]) for every tile at or above the
    diagonal, in row-major order, carved from one packed buffer. Each tile
    is built and used while it is in cache: one product of the rows'
    ``_left_side`` and ``_right_side``, ``_kernel_values``, and its ``_shares`` of K @ B. The tiles
    hold (n^2 + n * side) / 2 floats at most.

    One buffer, as a fit calls this at every loss evaluation: with an array
    per tile, the same bits cost ~52k page faults per n = 2000 fit, not 0,
    and ``train-rank`` ran slower in 4 of 4 process pairs (wall median
    0.224 -> 0.322 s, 2 CPUs, one BLAS thread).
    """
    Z, sq = _project(_live_rows(L), X, "feature")
    left, right = _left_side(Z, sq), _right_side(Z, sq)
    n, side = left.shape[0], math.isqrt(_BLOCK_BYTES // 8)
    edge = n % side  # the last tile row's height, when it is partial
    # the tiles over i <= j hold (n^2 + sum of squared tile heights) / 2 floats
    buf = np.empty((n * n + (n - edge) * side + edge * edge) // 2)
    tiles, KB, used = [], np.zeros((n, B.shape[1])), 0
    for i in range(0, n, side):
        rows = slice(i, i + side)
        h = min(side, n - i)
        for j in range(i, n, side):
            cols = slice(j, j + side)
            size = h * min(side, n - j)
            T = buf[used : used + size].reshape(h, -1)
            used += size
            np.matmul(left[rows], right[cols].T, out=T)
            _kernel_values(T)
            if i == j:
                T.ravel()[:: h + 1] = 0.0  # T is square and C-contiguous
            tiles.append((rows, cols, T))
            for dst, src, A in _shares(rows, cols, T):
                KB[dst] += A @ B[src]
    return tiles, KB


def _shares(rows, cols, T) -> tuple[tuple[slice, slice, np.ndarray], ...]:
    """(dst, src, K[dst, src]) for the upper tile T = K[rows, cols] and, off
    the diagonal, for its mirror K[cols, rows] = T^T, as K is symmetric."""
    if rows.start == cols.start:
        return ((rows, cols, T),)
    return (rows, cols, T), (cols, rows, T.T)


def _class_products(tiles, n0, Pt) -> np.ndarray:
    """(K (B_c P))^T for c = 0, 1, stacked, from P^T: K has the upper tiles
    ``tiles`` over rows sorted by label, and B_c keeps class c's rows, the
    first n0 for class 0 and the rest for class 1. Each of a tile's
    ``_shares`` meets B_c P only where its source rows cross class c's span,
    so no product multiplies a row that B_c zeroes. P^T times a tile is
    faster than a tile times P.
    """
    out = np.zeros((2, *Pt.shape))
    spans = ((0, n0), (n0, Pt.shape[1]))
    for tile in tiles:
        for dst, src, A in _shares(*tile):
            for c, (lo, hi) in enumerate(spans):
                a, b = max(src.start, lo), min(src.stop, hi)
                if a < b:
                    out[c, :, dst] += Pt[:, a:b] @ A.T[a - src.start : b - src.start]
    return out


def confidence_score(s_y: float, s_not_y: float) -> float:
    """Class confidence s_y / (s_y + s_not_y).

    Complementary: confidence_score(a, b) + confidence_score(b, a) == 1.
    Two zero similarities carry no class evidence and raise ValidationError,
    as negative, infinite or NaN ones do, and two whose sum overflows.
    """
    total = s_y + s_not_y
    if not (s_y >= 0.0 and s_not_y >= 0.0 and 0.0 < total < math.inf):  # NaN fails too
        raise ValidationError(
            "similarity scores must be nonnegative and finite, not both zero")
    return s_y / total


def positive_scores(L, train: Dataset, X) -> np.ndarray:
    """Confidence s1 / (s0 + s1) in class 1 for each row of X, where s_y is
    the row's mean similarity to the label-y rows of train (no self-exclusion).

    A row whose largest -d2, ``top``, is below ``_NORMAL_EDGE`` has ``top``
    subtracted first: both sums are then divided by exp(top), which leaves
    the ratio as it is, and the nearest reference adds exp(0) = 1, so no
    finite row underflows both classes. L's live rows are found once, and every
    query block is projected through them. Every block is written into one
    reused buffer: a new array per block raised ``score-batch``'s peak RSS
    (median 42.89 -> 43.70 MiB, 4 of 4 process pairs).

    Raises DegenerateClassError if train lacks a class, DimensionMismatchError
    if X is not a 2-D array or a row of it (a 1-D X is one row) does not match
    L's columns, and NumericalFailureError on an overflow or invalid operation
    (say, from a metric or a row whose projections overflow).
    """
    n0, n1 = train.class_counts()
    if n0 < 1 or n1 < 1:
        raise DegenerateClassError(f"no training instances of class {int(n0 >= 1)}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            W = _live_rows(_check_metric(L))
            right = _right_side(*_project(W, train.X, "feature"))
            X = np.atleast_2d(np.asarray(X, dtype=np.float64))
            if X.ndim != 2:
                raise DimensionMismatchError(f"query rows must be a 2-D array, not {X.ndim}-D")
            onehot = np.eye(2)[train.y]
            q, n = X.shape[0], right.shape[0]
            h = _block_height(n)
            G = np.empty((min(h, q), n))
            S = np.empty((q, 2))
            for i in range(0, q, h):
                rows, block = slice(i, i + h), G[: min(h, q - i)]
                # the queries are projected block by block, never all at once
                np.matmul(_left_side(*_project(W, X[rows], "query")), right.T, out=block)
                top = block.max(axis=1)
                far = top < _NORMAL_EDGE  # False for NaN
                if far.any():
                    block[far] -= top[far, None]
                _kernel_values(block)
                np.matmul(block, onehot, out=S[rows])
            S /= np.array([n0, n1], dtype=np.float64)
            return S[:, 1] / (S[:, 0] + S[:, 1])
    except FloatingPointError as exc:
        raise NumericalFailureError(f"{exc} while scoring") from None
