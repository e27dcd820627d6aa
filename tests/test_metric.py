import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetric import (
    Dataset,
    DegenerateClassError,
    DegenerateScoreWarning,
    DimensionMismatchError,
    class_similarity,
    confidence_score,
    kernel_matrix,
    kernel_similarity,
    positive_scores,
    score_rows,
    similarity_scores,
    squared_distance,
)
from confmetric import metric


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
    def test_identical_single_reference(self):
        data = Dataset(np.array([[1.0, 2.0], [1.0, 2.0], [9.9, 9.9]]), [1, 1, 0])
        assert class_similarity(np.eye(2), data, 0, 1) == 1.0

    def test_mean_of_two_kernels(self):
        # references at distances -ln(0.2) and -ln(0.4) from x_0
        d1, d2 = -math.log(0.2), -math.log(0.4)
        X = np.array([[0.0], [math.sqrt(d1)], [math.sqrt(d2)], [50.0]])
        data = Dataset(X, [0, 1, 1, 0])
        assert class_similarity(np.eye(1), data, 0, 1) == pytest.approx(0.3)

    def test_degenerate_class(self):
        data = Dataset(np.array([[0.0], [1.0]]), [1, 0])
        with pytest.raises(DegenerateClassError):
            class_similarity(np.eye(1), data, 0, 1)

    def test_self_excluded_by_index(self):
        data = Dataset(np.array([[0.0], [2.0], [1.0]]), [1, 1, 0])
        s = class_similarity(np.eye(1), data, 0, 1)
        assert s == pytest.approx(math.exp(-4.0))


def seed_order_kernel(L, X, Q=None):
    """Kernel matrix evaluated as the plain expression exp(-max(d2, 0))."""
    Z = X @ L.T
    W = Z if Q is None else Q @ L.T
    sq_w = np.einsum("ij,ij->i", W, W)
    sq_z = np.einsum("ij,ij->i", Z, Z)
    d2 = sq_w[:, None] + sq_z[None, :] - 2.0 * (W @ Z.T)
    K = np.exp(-np.maximum(d2, 0.0))
    if Q is None:
        np.fill_diagonal(K, 1.0)
    return K


class TestKernelMatrix:
    def test_bit_identical_to_plain_expression(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, q, m = rng.integers(1, 40, size=3)
            L = rng.normal(size=(int(rng.integers(1, 6)), m)) * rng.uniform(0.1, 3.0)
            X = rng.normal(size=(n, m))
            Q = rng.normal(size=(q, m))
            assert np.array_equal(kernel_matrix(L, X), seed_order_kernel(L, X))
            assert np.array_equal(kernel_matrix(L, X, Q), seed_order_kernel(L, X, Q))


def plain_d2(L, X):
    """Clipped squared distances between rows of X, as seed_order_kernel forms them."""
    Z = X @ L.T
    sq = np.einsum("ij,ij->i", Z, Z)
    return np.maximum(sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T), 0.0)


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
        rng = np.random.default_rng(21)
        for _ in range(20):
            n, q, m = (int(v) for v in rng.integers(1, 60, size=3))
            L = rng.normal(size=(int(rng.integers(1, 6)), m)) * rng.uniform(0.1, 3.0)
            X = rng.normal(size=(n, m))
            Q = rng.normal(size=(q, m))
            assert np.array_equal(kernel_matrix(L, X), seed_order_kernel(L, X))
            assert np.array_equal(kernel_matrix(L, X, Q), seed_order_kernel(L, X, Q))

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
    def test_each_underflow_regime_bit_identical(self, regime, tiny_blocks):
        lo_hi, make = self.REGIMES[regime]
        rng = np.random.default_rng(22)
        X = make(rng)
        L = np.eye(X.shape[1])
        off = plain_d2(L, X)[~np.eye(len(X), dtype=bool)]
        if lo_hi is None:
            for lo, hi in ((0.0, 708.0), (708.0, 746.0), (746.0, math.inf)):
                assert np.any((off > lo) & (off < hi))
        else:
            assert np.all((off > lo_hi[0]) & (off < lo_hi[1]))
        assert np.array_equal(kernel_matrix(L, X), seed_order_kernel(L, X))
        Q = make(np.random.default_rng(23))[:7]
        assert np.array_equal(kernel_matrix(L, X, Q), seed_order_kernel(L, X, Q))

    def test_overflowing_norms_stay_nan(self, tiny_blocks):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(30, 3))
        L = 1e200 * np.eye(3)
        with np.errstate(all="ignore"):
            K = kernel_matrix(L, X)
            oracle = seed_order_kernel(L, X)
        assert np.isnan(K).any()
        assert np.array_equal(K, oracle, equal_nan=True)

    def test_positive_scores_across_blocks(self, tiny_blocks):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(40, 3))
        y = np.arange(40) % 2
        data = Dataset(X, y)
        L = rng.normal(size=(2, 3)) * 3.0
        # the last three queries are far from every reference row
        Q = np.vstack([rng.normal(size=(50, 3)), np.full((3, 3), 1e4)])
        scores, degenerate = score_rows(L, data, Q)
        S = seed_order_kernel(L, X, Q) @ np.eye(2)[y] / np.bincount(y)
        total = S.sum(axis=1)
        assert degenerate == np.count_nonzero(total == 0.0)
        assert degenerate == 3
        with pytest.warns(DegenerateScoreWarning, match="^3 of 53 rows") as record:
            assert np.array_equal(positive_scores(L, data, Q), scores)
        assert len(record) == 1
        expected = np.where(total > 0.0, S[:, 1] / np.where(total > 0.0, total, 1.0), 0.5)
        assert np.allclose(scores, expected, rtol=1e-14, atol=0.0)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    def test_kernel_matrix_holds_one_kernel(self):
        n = 1500
        rng = np.random.default_rng(26)
        X = rng.normal(size=(n, 10))
        L = rng.normal(size=(10, 10))
        assert traced_peak(kernel_matrix, L, X) <= 1.1 * 8 * n * n

    def test_positive_scores_holds_no_query_kernel(self):
        q, n = 5000, 400
        rng = np.random.default_rng(27)
        data = Dataset(rng.normal(size=(n, 10)), np.arange(n) % 2)
        L = rng.normal(size=(10, 10)) * 0.1
        Q = rng.normal(size=(q, 10))
        assert traced_peak(positive_scores, L, data, Q) <= 0.25 * 8 * q * n


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    m=st.integers(1, 8),
    m_prime=st.integers(1, 8),
    log_scale=st.floats(-2.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matrix_bit_identical_property(n, m, m_prime, log_scale, seed):
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(m_prime, m)) * 10.0**log_scale
    X = rng.normal(size=(n, m))
    assert np.array_equal(kernel_matrix(L, X), seed_order_kernel(L, X))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    m=st.integers(1, 5),
    m_prime=st.integers(1, 5),
    q=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_positive_scores_label_flip_and_row_order_property(n, m, m_prime, q, seed):
    """Flipping every training label scores 1 - s; permuting the training rows
    changes nothing. Unit-scale L on unit-scale data keeps every squared
    distance far below exp's underflow, so no row is degenerate."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    y = rng.permutation(np.arange(n) % 2)  # both classes present
    L = rng.normal(size=(m_prime, m)) / np.sqrt(m)
    Q = rng.normal(size=(q, m))
    scores = positive_scores(L, Dataset(X, y), Q)
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
        assert kernel_matrix(np.eye(1), data.X[data.y == 1], Q=[[3.0]]).mean() == 1.0

    def test_underflow_to_zero(self):
        data = Dataset(np.array([[1e6], [0.0]]), [1, 0])
        assert positive_scores(np.eye(1), data, [0.0]).tolist() == [0.0]
        far = Dataset(np.array([[1e6], [2e6]]), [1, 0])
        with pytest.warns(DegenerateScoreWarning, match="1 of 2 rows"):
            scores = positive_scores(np.eye(1), far, [[0.0], [1e6]])
        assert scores.tolist() == [0.5, 1.0]

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

    def test_both_zero_returns_half_with_warning(self):
        with pytest.warns(DegenerateScoreWarning):
            assert confidence_score(0.0, 0.0) == 0.5

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
            score_rows(np.eye(1), data, [0.0])


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
            assert S[i, label] == pytest.approx(
                class_similarity(L, data, i, label), rel=1e-12
            )
    # underflow regime: a same-class kernel value of 1e-20 must survive self-
    # exclusion rather than round away as 1 + 1e-20 - 1
    d = math.sqrt(20.0 * math.log(10.0))
    data = Dataset(np.array([[0.0], [d], [10.0], [11.0]]), [1, 1, 0, 0])
    S = similarity_scores(np.eye(1), data)
    assert S[0, 1] == pytest.approx(math.exp(-d * d), rel=1e-15, abs=0.0)
    assert S[1, 1] == pytest.approx(math.exp(-d * d), rel=1e-15, abs=0.0)
