import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetric import (
    Dataset,
    DegenerateClassError,
    DimensionMismatchError,
    NumericalFailureError,
    ValidationError,
    camel_loss,
    confidence_score,
    kernel_similarity,
    positive_scores,
    similarity_scores,
    squared_distance,
)
from confmetric import metric
from confmetric.objective import Objective


class TestSquaredDistance:
    def test_identity_reduces_to_euclidean(self):
        assert squared_distance(np.eye(2), [1.0, 0.0], [0.0, 0.0]) == 1.0

    def test_equal_points_zero(self):
        L = np.array([[1.5, -2.0], [0.3, 0.7]])
        assert squared_distance(L, [3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_hand_evaluated(self):
        # L delta = (2, 0) for delta = (1, 1)
        L = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert squared_distance(L, [1.0, 1.0], [0.0, 0.0]) == pytest.approx(4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            squared_distance(np.eye(2), [1.0, 0.0, 0.0], [0.0, 0.0])

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            L = rng.normal(size=(2, 3))
            a, b = rng.normal(size=3), rng.normal(size=3)
            d_ab = squared_distance(L, a, b)
            assert d_ab == squared_distance(L, b, a)
            assert d_ab >= 0.0

    def test_factored_form_matches_quadratic_form(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            L = rng.normal(size=(3, 4))
            a, b = rng.normal(size=4), rng.normal(size=4)
            delta = a - b
            quad = float(delta @ (L.T @ L) @ delta)
            assert squared_distance(L, a, b) == pytest.approx(quad, rel=1e-9)

    def test_implied_quadratic_form_is_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            L = rng.normal(size=rng.integers(1, 5, size=2))
            M = L.T @ L
            eigs = np.linalg.eigvalsh(M)
            assert eigs.min() >= -1e-9 * np.linalg.norm(M)


class TestKernelSimilarity:
    def test_equal_points(self):
        L = np.array([[2.0, 1.0]])
        assert kernel_similarity(L, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_log_two_distance_gives_half(self):
        # 1-D setup with ||L(a-b)||^2 = ln 2
        L = np.array([[math.sqrt(math.log(2.0))]])
        assert kernel_similarity(L, [1.0], [0.0]) == pytest.approx(0.5)

    def test_huge_distance_underflows_to_zero(self):
        L = np.array([[1000.0]])
        assert kernel_similarity(L, [1.0], [0.0]) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            L = rng.normal(size=(2, 2)) * rng.uniform(0, 10)
            k = kernel_similarity(L, rng.normal(size=2), rng.normal(size=2))
            assert 0.0 <= k <= 1.0


class TestClassSimilarity:
    """The training class means of similarity_scores, self excluded."""

    def test_identical_single_reference(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [9.9, 9.9], [9.9, 9.9]])
        assert similarity_scores(np.eye(2), Dataset(X, [1, 1, 0, 0]))[0, 1] == 1.0

    def test_mean_of_two_kernels(self):
        # references at distances -ln(0.2) and -ln(0.4) from x_0
        d1, d2 = -math.log(0.2), -math.log(0.4)
        X = np.array([[0.0], [math.sqrt(d1)], [math.sqrt(d2)], [50.0]])
        data = Dataset(X, [0, 1, 1, 0])
        assert similarity_scores(np.eye(1), data)[0, 1] == pytest.approx(0.3)

    def test_degenerate_class(self):
        data = Dataset(np.array([[0.0], [1.0]]), [1, 0])
        with pytest.raises(DegenerateClassError):
            similarity_scores(np.eye(1), data)

    def test_self_excluded_by_index(self):
        data = Dataset(np.array([[0.0], [2.0], [1.0], [5.0]]), [1, 1, 0, 0])
        s = similarity_scores(np.eye(1), data)[0, 1]
        assert s == pytest.approx(math.exp(-4.0))


def neg_d2(W, Z):
    """Minus the squared distances between rows of W and rows of Z, as one
    product of [W, |w|^2, 1] with [2Z, -1, -|z|^2]."""
    sq_w = np.einsum("ij,ij->i", W, W)[:, None]
    sq_z = np.einsum("ij,ij->i", Z, Z)[:, None]
    left = np.hstack([W, sq_w, np.ones_like(sq_w)])
    return left @ np.hstack([2.0 * Z, -np.ones_like(sq_z), -sq_z]).T


def seed_order_kernel(L, X, Q=None):
    """Kernel matrix evaluated as the one-product expression exp(min(-d2, 0))."""
    Z = X @ L.T
    W = Z if Q is None else Q @ L.T
    K = np.exp(np.minimum(neg_d2(W, Z), 0.0))
    if Q is None:
        np.fill_diagonal(K, 1.0)
    return K


def row_difference_scores(L, X, y, Q):
    """s1 / (s0 + s1) from kernels built from row differences, ||(q - x) L^T||^2,
    with each query's row shifted by its smallest d2: both class sums are
    divided by the same exp(-min d2), so the ratio is unchanged."""
    D = (Q[:, None, :] - X[None, :, :]) @ L.T
    d2 = np.einsum("qnk,qnk->qn", D, D)
    S = np.exp(d2.min(axis=1, keepdims=True) - d2) @ np.eye(2)[y] / np.bincount(y)
    return S[:, 1] / S.sum(axis=1)


def plain_d2(L, X):
    """Clipped squared distances between rows of X, as seed_order_kernel forms them."""
    Z = X @ L.T
    return -np.minimum(neg_d2(Z, Z), 0.0)


def simplex_points(rng, n, d2):
    """n points whose pairwise squared distances are about d2 (within 1%)."""
    return math.sqrt(d2 / 2.0) * (np.eye(n) + rng.uniform(-0.002, 0.002, size=(n, n)))


class TestBlockedKernel:
    """Row blocks and the underflow rule leave every kernel value as np.exp's."""

    @pytest.fixture
    def tiny_blocks(self, monkeypatch):
        # three rows per block at 40 columns, so every case spans many blocks
        monkeypatch.setattr(metric, "_BLOCK_BYTES", 3 * 40 * 8)

    def test_exp_of_the_cutoff_is_zero(self):
        assert np.exp(-746.0) == 0.0
        assert np.exp(-metric._EXP_ZERO) == 0.0
        assert np.exp(-745.0) > 0.0

    def test_many_blocks_bit_identical(self, tiny_blocks):
        # ten-row tiles: each is np.exp of its own one-product -d2, edge
        # tiles and zeroed diagonals included
        rng = np.random.default_rng(21)
        for _ in range(20):
            n, m = (int(v) for v in rng.integers(1, 60, size=2))
            L = rng.normal(size=(int(rng.integers(1, 6)), m)) * rng.uniform(0.1, 3.0)
            X = rng.normal(size=(n, m))
            Z = X @ L.T
            tiles, _ = metric._upper_tiles(L, X, np.zeros((n, 2)))
            per_side = -(-n // 10)
            assert len(tiles) == per_side * (per_side + 1) // 2
            for rows, cols, T in tiles:
                ref = np.exp(np.minimum(neg_d2(Z[rows], Z[cols]), 0.0))
                if rows == cols:
                    np.fill_diagonal(ref, 0.0)
                assert np.array_equal(T, ref)

    # (d2 range the off-diagonal entries must fall in, how to build X)
    REGIMES = {
        "normal": ((0.0, 708.0), lambda rng: rng.normal(size=(40, 5)) * 4.0),
        "subnormal": ((708.0, 746.0), lambda rng: simplex_points(rng, 40, 725.0)),
        "far": ((746.0, math.inf), lambda rng: simplex_points(rng, 40, 1e6)),
        # about 60% and 20% of the entries below 708 respectively
        "mixed-mostly-near": (None, lambda rng: rng.normal(size=(40, 5)) * 8.0),
        "mixed-mostly-far": (None, lambda rng: rng.normal(size=(40, 5)) * 12.0),
    }

    @pytest.mark.parametrize("regime", REGIMES)
    def test_each_underflow_regime_bit_identical(self, regime):
        lo_hi, make = self.REGIMES[regime]
        X = make(np.random.default_rng(22))
        L = np.eye(X.shape[1])
        d2 = plain_d2(L, X)
        off = d2[~np.eye(len(X), dtype=bool)]
        if lo_hi is None:
            for lo, hi in ((0.0, 708.0), (708.0, 746.0), (746.0, math.inf)):
                assert np.any((off > lo) & (off < hi))
        else:
            assert np.all((off > lo_hi[0]) & (off < lo_hi[1]))
        out = -d2
        metric._kernel_values(out)
        assert np.array_equal(out, np.exp(-d2))
        # 40 rows are one tile
        (_, _, T), = metric._upper_tiles(L, X, np.zeros((len(X), 2)))[0]
        K = seed_order_kernel(L, X)
        np.fill_diagonal(K, 0.0)
        assert np.array_equal(T, K)

    def test_overflowing_norms_stay_nan(self, tiny_blocks):
        # NaN kernel values reach the loss, so a failing fit is caught
        rng = np.random.default_rng(24)
        X = rng.normal(size=(30, 3))
        y = np.arange(30) % 2
        L = 1e200 * np.eye(3)
        with np.errstate(all="ignore"):
            tiles, KB = metric._upper_tiles(L, X, np.eye(2)[y])
            # the scorer's own rule wins over the caller's error state
            with pytest.raises(NumericalFailureError, match="while scoring"):
                positive_scores(L, Dataset(X, y), X[:7])
        assert all(np.isnan(T).any() for _, _, T in tiles)
        assert np.isnan(KB).all()

    def test_positive_scores_across_blocks(self, tiny_blocks):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(40, 3))
        y = np.arange(40) % 2
        L = rng.normal(size=(2, 3)) * 3.0
        # three queries far from every reference row, in blocks beside near rows
        Q = rng.normal(size=(53, 3))
        far = np.isin(np.arange(53), [4, 26, 52])
        Q[far] = 1e4
        scores = positive_scores(L, Dataset(X, y), Q)
        S = seed_order_kernel(L, X, Q) @ np.eye(2)[y] / np.bincount(y)
        assert np.all(S[far] == 0.0) and np.all(S[~far] > 0.0)
        # the near rows are scored unshifted, as one product for all rows would
        np.testing.assert_allclose(scores[~far], S[~far, 1] / S[~far].sum(axis=1),
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(scores, row_difference_scores(L, X, y, Q),
                                   rtol=1e-13, atol=0.0)

    def test_scores_as_accurate_as_row_differences(self):
        # the one-product -d2 loses no accuracy: against kernels built from
        # row differences, ||(q - x) L^T||^2, these scores are within 2.1e-14
        # relative (4.6e-14 with d2 = |q|^2 + |x|^2 - 2 q.x), the three far
        # rows included
        rng = np.random.default_rng(25)
        X = rng.normal(size=(40, 3))
        y = np.arange(40) % 2
        L = rng.normal(size=(2, 3)) * 3.0
        Q = np.vstack([rng.normal(size=(50, 3)), np.full((3, 3), 1e4)])
        scores = positive_scores(L, Dataset(X, y), Q)
        np.testing.assert_allclose(scores, row_difference_scores(L, X, y, Q),
                                   rtol=1e-13, atol=0.0)

    def test_rows_at_the_edge_of_the_normal_range(self):
        # small dyadic coordinates keep every d2 exact. The first query's
        # nearest reference is at d2 = 745.5, where exp(-d2) is already 0.0
        # (a threshold at -_EXP_ZERO would leave it unshifted and score NaN);
        # it is scored relative to that reference. The second, at d2 = 700,
        # is inside exp's normal range and scored unshifted.
        X = np.array([[0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 40], [0, 0, 0, -40]], float)
        data = Dataset(X, [1, 0, 1, 0])
        Q = [[26.5, 6.5, 1.0, 0.0], [26.0, 4.0, 2.0, 2.0]]
        scores = positive_scores(np.eye(4), data, Q)
        assert scores[0] == 0.5 / (math.exp(-1.0) / 2 + 0.5)
        s1, s0 = np.exp(-700.0) / 2, np.exp(-705.0) / 2
        assert scores[1] == s1 / (s0 + s1)


class TestAllZeroRows:
    """An all-zero row of L adds exactly 0 to every distance, and every kernel
    builder projects through L's other rows only, so L and L without its
    all-zero rows give the same bits."""

    @staticmethod
    def draws(count):
        """Data, L with some all-zero rows, its live-row mask and queries; n
        up to 700 rows is up to six 256-row tiles."""
        rng = np.random.default_rng(31)
        for _ in range(count):
            n, m = int(rng.integers(4, 700)), int(rng.integers(2, 8))
            X = rng.normal(size=(n, m))
            y = rng.permutation(np.arange(n) % 2)
            data = Dataset(X, y, rng.uniform(size=n))
            L = rng.normal(size=(int(rng.integers(2, 12)), m)) * rng.uniform(0.1, 1.5)
            dead = rng.uniform(size=len(L)) < rng.uniform(0.2, 0.9)
            dead[rng.integers(len(L))] = False  # at least one live row
            L[dead] = 0.0
            yield data, L, ~dead, rng.normal(size=(50, m))

    def test_objective_value_ignores_all_zero_rows(self):
        for data, L, live, _ in self.draws(12):
            objective = Objective(data, None, 0.5, 0.3)
            loss, cache = objective.value(L)
            loss_live, cache_live = objective.value(L[live])
            # the L1 sums over different counts of zeros, which may regroup them
            assert (loss.pushpull, loss.ranking) == (loss_live.pushpull, loss_live.ranking)
            assert np.array_equal(cache.KB, cache_live.KB)
            assert len(cache.tiles) == len(cache_live.tiles)
            for (rows, cols, T), (rows_live, cols_live, T_live) in zip(cache.tiles,
                                                                       cache_live.tiles):
                assert (rows, cols) == (rows_live, cols_live)
                assert np.array_equal(T, T_live)
            # the smooth gradient is -2 L S, so a dead row stays dead
            assert np.all(objective.gradient(cache)[~live] == 0.0)

    def test_positive_scores_ignore_all_zero_rows(self):
        for data, L, live, Q in self.draws(12):
            assert np.array_equal(positive_scores(L, data, Q),
                                  positive_scores(L[live], data, Q))


@pytest.mark.parametrize("call, match", [
    (lambda data: positive_scores(np.eye(3), data, np.zeros((2, 2))), "query dimension"),
    (lambda data: camel_loss(np.ones((2, 4)), data, 1.0), "feature dimension"),
    (lambda data: camel_loss(np.ones(3), data, 1.0), "metric parameter must be a 2-D"),
    (lambda data: positive_scores(np.full((2, 3), np.nan), data, np.zeros((2, 3))),
     "metric parameter contains non-finite"),
    (lambda data: positive_scores(np.eye(3), data, np.zeros((2, 3, 3))),
     "query rows must be a 2-D array, not 3-D"),
], ids=["query-width", "L-width", "1-D-L", "nan-L", "3-D-query"])
def test_metric_and_input_shapes_checked(call, match):
    data = Dataset(np.arange(12.0).reshape(4, 3), [0, 1, 0, 1])
    with pytest.raises(DimensionMismatchError, match=match):
        call(data)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    def test_positive_scores_holds_no_query_kernel(self):
        q, n = 5000, 400
        rng = np.random.default_rng(27)
        data = Dataset(rng.normal(size=(n, 10)), np.arange(n) % 2)
        L = rng.normal(size=(10, 10)) * 0.1
        Q = rng.normal(size=(q, 10))
        assert traced_peak(positive_scores, L, data, Q) <= 0.25 * 8 * q * n

    def test_positive_scores_projects_queries_block_by_block(self):
        # 36,000 more queries may add their scores and class sums, but not
        # their 36,000 x 10 projections
        n, m = 400, 10
        rng = np.random.default_rng(28)
        data = Dataset(rng.normal(size=(n, m)), np.arange(n) % 2)
        L = rng.normal(size=(m, m)) * 0.1
        Q = rng.normal(size=(40_000, m))
        growth = (traced_peak(positive_scores, L, data, Q)
                  - traced_peak(positive_scores, L, data, Q[:4000]))
        assert growth < 8 * 36_000 * m

    def test_upper_tiles_share_one_buffer(self):
        # 600 rows are three tiles a side, the last partial: all six are
        # views of one array, which a fit reuses at every loss evaluation
        rng = np.random.default_rng(29)
        X = rng.normal(size=(600, 4))
        tiles, _ = metric._upper_tiles(rng.normal(size=(2, 4)), X, np.zeros((600, 2)))
        assert len(tiles) == 6
        bases = {id(T.base) for _, _, T in tiles}
        assert len(bases) == 1 and tiles[0][2].base is not None


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    m=st.integers(1, 5),
    m_prime=st.integers(1, 5),
    q=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    offset=st.one_of(st.just(0.0), st.floats(1.0, 1e6)),
)
def test_positive_scores_label_flip_and_row_order_property(n, m, m_prime, q, seed,
                                                           offset):
    """Flipping every training label scores 1 - s; permuting the training rows
    changes nothing. Unit-scale L on unit-scale data keeps every squared
    distance far below exp's underflow; a large offset moves the queries so
    far that every kernel value underflows, and each score is still a
    finite number in [0, 1]."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    y = rng.permutation(np.arange(n) % 2)  # both classes present
    L = rng.normal(size=(m_prime, m)) / np.sqrt(m)
    Q = rng.normal(size=(q, m)) + offset
    scores = positive_scores(L, Dataset(X, y), Q)
    assert np.all((scores >= 0.0) & (scores <= 1.0))  # False for NaN
    flipped = positive_scores(L, Dataset(X, 1 - y), Q)
    np.testing.assert_allclose(flipped, 1.0 - scores, rtol=0, atol=1e-12)
    perm = rng.permutation(n)
    permuted = positive_scores(L, Dataset(X[perm], y[perm]), Q)
    np.testing.assert_allclose(permuted, scores, rtol=0, atol=1e-12)


class TestClassSimilarityQuery:
    """The per-class query means, read through positive_scores' s1 / (s0 + s1)."""

    def test_identical_to_sole_instance(self):
        # s1 = exp(0) = 1 exactly and s0 = exp(-1), so any other s1 moves the score
        data = Dataset(np.array([[3.0], [4.0]]), [1, 0])
        score = positive_scores(np.eye(1), data, [3.0])[0]
        assert score == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-15)
        # the training class-1 mean of a row at the query's class-1 references
        at_query = Dataset(np.vstack([[3.0], data.X, data.X]), [0, 1, 0, 1, 0])
        assert similarity_scores(np.eye(1), at_query)[0, 1] == 1.0

    def test_underflow_to_zero(self):
        data = Dataset(np.array([[1e6], [0.0]]), [1, 0])
        assert positive_scores(np.eye(1), data, [0.0]).tolist() == [0.0]
        # both class similarities of the query at 0 underflow; its nearest
        # reference, a positive, alone decides its score
        far = Dataset(np.array([[1e6], [2e6]]), [1, 0])
        assert positive_scores(np.eye(1), far, [[0.0], [1e6]]).tolist() == [1.0, 1.0]

    def test_mean_of_three_kernels(self):
        ds = [-math.log(0.5), -math.log(0.1), -math.log(0.3), -math.log(0.1)]
        X = np.array([[math.sqrt(d)] for d in ds])
        data = Dataset(X, [1, 1, 1, 0])
        # s1 = mean(0.5, 0.1, 0.3) = 0.3 and s0 = 0.1
        assert positive_scores(np.eye(1), data, [0.0])[0] == pytest.approx(0.75)

    def test_no_self_exclusion_for_queries(self):
        # querying a training point includes its own unit kernel in the mean
        data = Dataset(np.array([[0.0], [2.0], [1.0]]), [1, 1, 0])
        s1 = (1.0 + math.exp(-4.0)) / 2
        s0 = math.exp(-1.0)
        score = positive_scores(np.eye(1), data, [0.0])[0]
        assert score == pytest.approx(s1 / (s1 + s0), rel=1e-12)

    def test_missing_class(self):
        for y in ([1, 1], [0, 0]):
            data = Dataset(np.array([[0.0], [1.0]]), y)
            with pytest.raises(DegenerateClassError):
                positive_scores(np.eye(1), data, [0.0])

    def test_matches_scalar_definitions(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(15, 3))
        y = rng.integers(0, 2, size=15)
        y[:2] = [0, 1]
        data = Dataset(X, y)
        L = rng.normal(size=(2, 3))
        Q = rng.normal(size=(6, 3))
        scores = positive_scores(L, data, Q)
        for q, score in zip(Q, scores):
            s = [np.mean([kernel_similarity(L, q, x) for x in X[y == c]]) for c in (0, 1)]
            assert score == pytest.approx(confidence_score(s[1], s[0]), rel=1e-12)


class TestConfidenceScore:
    def test_symmetric_inputs(self):
        assert confidence_score(0.3, 0.3) == 0.5

    def test_ratio(self):
        assert confidence_score(0.6, 0.2) == pytest.approx(0.75)

    def test_zero_numerator(self):
        assert confidence_score(0.0, 0.4) == 0.0

    def test_both_zero_raises(self):
        # no class evidence at all is an error, as a negative similarity is
        with pytest.raises(ValidationError, match="not both zero"):
            confidence_score(0.0, 0.0)

    @pytest.mark.parametrize("s_y, s_not_y", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_raises(self, s_y, s_not_y):
        with pytest.raises(ValidationError, match="must be nonnegative"):
            confidence_score(s_y, s_not_y)

    @pytest.mark.parametrize("s_y, s_not_y", [(-0.1, 1.0), (1.0, -1e-300)])
    def test_negative_raises(self, s_y, s_not_y):
        # the values are at fault, not a dimension
        with pytest.raises(ValidationError, match="must be nonnegative"):
            confidence_score(s_y, s_not_y)

    @pytest.mark.parametrize("s_y, s_not_y", [
        (math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf), (1e308, 1e308),
    ])
    def test_infinite_raises(self, s_y, s_not_y):
        # inf / (inf + 1) is NaN and 1 / (1 + inf) is 0: neither is a confidence
        with pytest.raises(ValidationError, match="finite"):
            confidence_score(s_y, s_not_y)

    def test_complementarity(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            a, b = rng.uniform(1e-12, 1.0, size=2)
            assert confidence_score(a, b) + confidence_score(b, a) == pytest.approx(
                1.0, abs=1e-12
            )


class TestPredict:
    """The scorer behind ``confmetric predict``; its thresholding is tested
    through the CLI in test_cli.py."""

    def _train(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(-3, 0.5, (5, 2)), rng.normal(3, 0.5, (5, 2))])
        return Dataset(X, [0] * 5 + [1] * 5)

    def test_far_from_positives(self):
        data = self._train()
        assert positive_scores(np.eye(2), data, [-3.0, -3.0])[0] < 0.01

    def test_missing_class(self):
        data = Dataset(np.array([[0.0], [1.0]]), [1, 1])
        with pytest.raises(DegenerateClassError):
            positive_scores(np.eye(1), data, [0.0])


def test_similarity_scores_match_scalar_path():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12)
    y[:2] = [0, 1]
    data = Dataset(X, y)
    L = rng.normal(size=(3, 3))
    S = similarity_scores(L, data)
    for i in range(data.n):
        for label in (0, 1):
            # the scalar reference: one kernel value per pair of rows
            mean = np.mean([kernel_similarity(L, data.X[i], data.X[j])
                            for j in range(data.n) if j != i and data.y[j] == label])
            assert S[i, label] == pytest.approx(mean, rel=1e-12)
    # underflow regime: a same-class kernel value of 1e-20 must survive self-
    # exclusion rather than round away as 1 + 1e-20 - 1
    d = math.sqrt(20.0 * math.log(10.0))
    data = Dataset(np.array([[0.0], [d], [10.0], [11.0]]), [1, 1, 0, 0])
    S = similarity_scores(np.eye(1), data)
    assert S[0, 1] == pytest.approx(math.exp(-d * d), rel=1e-15, abs=0.0)
    assert S[1, 1] == pytest.approx(math.exp(-d * d), rel=1e-15, abs=0.0)
