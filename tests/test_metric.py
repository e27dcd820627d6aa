import math

import numpy as np
import pytest

from confmetric import (
    Dataset,
    DegenerateClassError,
    DegenerateScoreWarning,
    DimensionMismatchError,
    class_similarity,
    class_similarity_query,
    confidence_score,
    kernel_matrix,
    kernel_similarity,
    predict,
    similarity_scores,
    squared_distance,
)


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


class TestClassSimilarityQuery:
    def test_identical_to_sole_instance(self):
        data = Dataset(np.array([[3.0], [0.0]]), [1, 0])
        assert class_similarity_query(np.eye(1), data, [3.0], 1) == 1.0

    def test_underflow_to_zero(self):
        data = Dataset(np.array([[1e6], [2e6]]), [1, 1])
        assert class_similarity_query(np.eye(1), data, [0.0], 1) == 0.0

    def test_mean_of_three_kernels(self):
        ds = [-math.log(0.5), -math.log(0.1), -math.log(0.3)]
        X = np.array([[math.sqrt(d)] for d in ds])
        data = Dataset(X, [1, 1, 1])
        s = class_similarity_query(np.eye(1), data, [0.0], 1)
        assert s == pytest.approx(0.3)

    def test_no_self_exclusion_for_queries(self):
        # querying a training point includes its own unit kernel in the mean
        data = Dataset(np.array([[0.0], [2.0], [9.0]]), [1, 1, 0])
        s = class_similarity_query(np.eye(1), data, [0.0], 1)
        assert s == pytest.approx((1.0 + math.exp(-4.0)) / 2)

    def test_missing_class(self):
        data = Dataset(np.array([[0.0], [1.0]]), [1, 1])
        with pytest.raises(DegenerateClassError):
            class_similarity_query(np.eye(1), data, [0.0], 0)


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
    def _train(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(-3, 0.5, (5, 2)), rng.normal(3, 0.5, (5, 2))])
        return Dataset(X, [0] * 5 + [1] * 5)

    def test_strictly_above_threshold(self):
        # symmetric two-point setup gives exactly C1 = 0.5
        data = Dataset(np.array([[1.0], [-1.0]]), [1, 0])
        pred = predict(np.eye(1), data, [0.0], threshold=0.4)
        assert pred.confidence == 0.5
        assert pred.label == 1

    def test_equal_to_threshold_is_negative(self):
        data = Dataset(np.array([[1.0], [-1.0]]), [1, 0])
        pred = predict(np.eye(1), data, [0.0], threshold=0.5)
        assert pred.confidence == 0.5
        assert pred.label == 0

    def test_far_from_positives(self):
        data = self._train()
        pred = predict(np.eye(2), data, [-3.0, -3.0])
        assert pred.label == 0
        assert pred.confidence < 0.01

    def test_missing_class(self):
        data = Dataset(np.array([[0.0], [1.0]]), [1, 1])
        with pytest.raises(DegenerateClassError):
            predict(np.eye(1), data, [0.0])


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
