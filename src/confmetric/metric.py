"""Core metric, similarity, and confidence-score functions.

The learned parameter is a matrix L of shape (m', m). The squared distance
between two instances is the squared Euclidean distance after projecting
through L, which makes the implied quadratic form L^T L positive
semidefinite by construction. Similarity is the Gaussian kernel of that
distance with bandwidth absorbed into the scale of L.

``positive_scores`` is the one query scorer, and it scores every finite row:
a row whose kernel values would all underflow is taken relative to its
nearest reference, which leaves its ratio s1 / (s0 + s1) unchanged.

There are two kernel builders, one per job, and neither forms a full kernel.
Both take -d2 from one product of the two ``_sides`` arrays, then clip it
at 0 and take ``exp`` in place (``_kernel_values``), with no d2 array.
``positive_scores`` projects the queries and takes that product in row blocks
of about ``_BLOCK_BYTES`` each, turns each block into kernel values while it
is in cache and keeps only the block's two class sums.

The training kernel, which fitting rebuilds at every loss evaluation, is
symmetric, so ``_upper_tiles`` builds only its square tiles at or above the
diagonal (``isqrt(_BLOCK_BYTES / 8)`` = 256 rows a side), packed into one
buffer. Each tile gets its own product, the same elementwise rule and a
zeroed diagonal, and gives its share of the class sums (``K_ij B_j`` and
``K_ij^T B_i``) while it is in cache; ``similarity_scores`` and the
objective read those sums, and the gradient takes its products with K from
the same tiles, over each class's span of the objective's label-sorted rows
(``_class_products``), so fitting never forms an n x n array. A diagonal
tile is symmetric only to the last bit, as entries (i, j) and (j, i) add the
two norms in opposite order.
``class_similarity`` works from row differences, apart from both builders.

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
from .errors import DegenerateClassError, DimensionMismatchError


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


# bytes of one row block or square tile: a few of these stay in L2 cache
_BLOCK_BYTES = 512 * 1024
# np.exp(-d2) is exactly 0.0 for every d2 at or above this
_EXP_ZERO = 746.0
# np.exp(x) is subnormal or 0.0 for every x below this, about -708.4
_NORMAL_EDGE = math.log(np.finfo(np.float64).tiny)


def _project(L, X, what: str):
    """Rows Z = X L^T of a checked L and their squared norms; what names X's
    rows in the dimension error."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != L.shape[1]:
        raise DimensionMismatchError(f"{what} dimension does not match metric columns")
    Z = X @ L.T
    return Z, np.einsum("ij,ij->i", Z, Z)


def _sides(Z, sq) -> tuple[np.ndarray, np.ndarray]:
    """[Z, sq, 1] and [2Z, -1, -sq] for rows Z of squared norms sq; one
    product of the two gives 2 w.z - |w|^2 - |z|^2 = -||w - z||^2."""
    one = np.ones_like(sq)
    return np.column_stack([Z, sq, one]), np.column_stack([2.0 * Z, -one, -sq])


def _block_height(cols: int) -> int:
    """Rows per block: about _BLOCK_BYTES of float64 at cols columns."""
    return max(1, _BLOCK_BYTES // (8 * max(cols, 1)))


def _kernel_values(G: np.ndarray) -> None:
    """Turn C-contiguous G = -d2 into np.exp(np.minimum(G, 0)) in place, bit
    for bit, without passing np.exp any G <= -_EXP_ZERO, where it returns 0.0.

    Whichever of the near and the far entries are fewer are indexed: a
    gather or scatter through an index beats a boolean mask on either side.
    """
    far = G <= -_EXP_ZERO  # False for NaN, so NaN goes through np.exp
    flat = G.ravel()
    if 2 * np.count_nonzero(far) > far.size:
        near = np.flatnonzero(np.logical_not(far, out=far))
        vals = np.minimum(flat[near], 0.0)
        np.exp(vals, out=vals)
        G.fill(0.0)
        flat[near] = vals
        return
    far = np.flatnonzero(far)
    np.minimum(G, 0.0, out=G)
    flat[far] = 0.0  # exp(0.0) = 1 is on np.exp's fast path
    np.exp(G, out=G)
    flat[far] = 0.0


def _upper_tiles(L, X, B) -> tuple[list[tuple[slice, slice, np.ndarray]], np.ndarray]:
    """The Gaussian kernel K over X's rows, zero diagonal, as its upper tiles,
    and K @ B.

    Returns (rows, cols, K[rows, cols]) for every tile at or above the
    diagonal, in row-major order, carved from one packed buffer. Each tile
    is built and used while it is in cache: one product of the two
    ``_sides``, ``_kernel_values``, and its share of K @ B. The tiles hold
    (n^2 + n * side) / 2 floats at most.
    """
    left, right = _sides(*_project(_check_metric(L), X, "feature"))
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
                np.fill_diagonal(T, 0.0)
            tiles.append((rows, cols, T))
            _tile_into(KB, rows, cols, T, B)
    return tiles, KB


def _tile_into(out, rows, cols, T, P) -> None:
    """Add the tile T = K[rows, cols]'s share of K @ P to out: T @ P[cols],
    and off the diagonal its mirror's T^T @ P[rows]."""
    out[rows] += T @ P[cols]
    if rows.start != cols.start:
        out[cols] += T.T @ P[rows]


def _class_products(tiles, n0, Pt) -> np.ndarray:
    """(K (B_c P))^T for c = 0, 1, stacked, from P^T: K has the upper tiles
    ``tiles`` over rows sorted by label, and B_c keeps class c's rows, the
    first n0 for class 0 and the rest for class 1. Each tile's columns, and
    its mirror's rows, meet B_c P only where they cross class c's span, so
    no product multiplies a row that B_c zeroes. P^T times a tile is faster
    than a tile times P.
    """
    out = np.zeros((2, *Pt.shape))
    spans = ((0, n0), (n0, Pt.shape[1]))
    for rows, cols, T in tiles:
        shares = ((rows, cols, T.T), (cols, rows, T))  # (to, from, from x to tile)
        for dst, src, A in shares[: 1 + (rows.start != cols.start)]:
            for c, (lo, hi) in enumerate(spans):
                a, b = max(src.start, lo), min(src.stop, hi)
                if a < b:
                    out[c, :, dst] += Pt[:, a:b] @ A[a - src.start : b - src.start]
    return out


def similarity_scores(L, data: Dataset) -> np.ndarray:
    """Mean within-class kernel similarity for every instance and class.

    Returns an (n, 2) array S where S[i, y] is the mean similarity of
    instance i to all other instances with label y (self excluded by index).
    Raises DegenerateClassError if a class has fewer than 2 instances.
    """
    onehot, counts = _class_references(data)
    return _upper_tiles(L, data.X, onehot)[1] / counts


def _class_references(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """One-hot labels and, per instance and class, the reference-set size.

    The own-class reference set excludes the instance itself, so each class
    needs two instances; with fewer, DegenerateClassError is raised.
    """
    n0, n1 = data.class_counts()
    if min(n0, n1) < 2:
        raise DegenerateClassError("each class needs at least 2 instances")
    onehot = np.eye(2)[data.y]
    return onehot, np.array([n0, n1], dtype=np.float64)[None, :] - onehot


def class_similarity(L, data: Dataset, i: int, y: int) -> float:
    """Mean similarity of instance i to all other label-y instances."""
    if not 0 <= i < data.n:
        raise DimensionMismatchError(f"index {i} out of range for n={data.n}")
    mask = data.y == y
    mask[i] = False
    if not mask.any():
        raise DegenerateClassError(f"no instances of class {y} besides instance {i}")
    _, d2 = _project(_check_metric(L), data.X[mask] - data.X[i], "feature")
    return float(np.exp(-d2).mean())


def confidence_score(s_y: float, s_not_y: float) -> float:
    """Class confidence s_y / (s_y + s_not_y).

    Complementary: confidence_score(a, b) + confidence_score(b, a) == 1.
    Two zero similarities carry no class evidence and raise, as negative
    or NaN ones do.
    """
    total = s_y + s_not_y
    if not (s_y >= 0.0 and s_not_y >= 0.0 and total > 0.0):  # NaN fails too
        raise DimensionMismatchError("similarity scores must be nonnegative, not both zero")
    return s_y / total


def positive_scores(L, train: Dataset, X) -> np.ndarray:
    """Confidence s1 / (s0 + s1) in class 1 for each row of X, where s_y is
    the row's mean similarity to the label-y rows of train (no self-exclusion).

    A row whose largest -d2, ``top``, is below ``_NORMAL_EDGE`` has ``top``
    subtracted first: both sums are then divided by exp(top), which leaves
    the ratio as it is, and the nearest reference adds exp(0) = 1, so no
    finite row underflows both classes. A NaN similarity (from a metric whose
    projections overflow) scores NaN.

    Raises DegenerateClassError if train lacks a class.
    """
    n0, n1 = train.class_counts()
    if n0 < 1 or n1 < 1:
        raise DegenerateClassError(f"no training instances of class {int(n0 >= 1)}")
    L = _check_metric(L)
    L = L[np.any(L != 0.0, axis=1)]  # an all-zero row adds 0 to every distance
    right = _sides(*_project(L, train.X, "feature"))[1]
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    onehot = np.eye(2)[train.y]
    q, n = X.shape[0], right.shape[0]
    h = _block_height(n)
    G = np.empty((min(h, q), n))
    S = np.empty((q, 2))
    for i in range(0, q, h):
        rows, block = slice(i, i + h), G[: min(h, q - i)]
        # the queries are projected block by block, never all at once
        np.matmul(_sides(*_project(L, X[rows], "query"))[0], right.T, out=block)
        top = block.max(axis=1)
        far = top < _NORMAL_EDGE  # False for NaN
        if far.any():
            block[far] -= top[far, None]
        _kernel_values(block)
        np.matmul(block, onehot, out=S[rows])
    S /= np.array([n0, n1], dtype=np.float64)
    return S[:, 1] / (S[:, 0] + S[:, 1])
