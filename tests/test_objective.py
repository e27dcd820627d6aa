import math

import numpy as np
import pytest

from confmetric import (
    Dataset,
    DimensionMismatchError,
    MissingSupervisionError,
    RankingPairs,
    TrainConfig,
    build_ranking_pairs,
    camel_cl_loss,
    camel_loss,
    kernel_matrix,
    margin,
    similarity_scores,
    smooth_gradient,
)
from confmetric.objective import Objective


def brute_force_loss(L, X, y, lambda1):
    """Independent plain-loop evaluation of the class-label loss."""
    L = np.asarray(L, dtype=float)
    n = len(y)
    total = 0.0
    for i in range(n):
        for label_is_own in (False, True):
            target = y[i] if label_is_own else 1 - y[i]
            ks = []
            for j in range(n):
                if j == i or y[j] != target:
                    continue
                d = L @ (X[i] - X[j])
                ks.append(math.exp(-float(d @ d)))
            term = sum(ks) / len(ks)
            total += -term if label_is_own else term
    total += lambda1 * sum(abs(v) for row in L for v in row)
    return total


def random_dataset(rng, n=8, m=3, with_conf=True):
    X = rng.normal(size=(n, m))
    y = rng.integers(0, 2, size=n)
    y[:4] = [0, 0, 1, 1]
    c = rng.uniform(size=n) if with_conf else None
    return Dataset(X, y, c)


def pair_subset(data, n_pairs, seed):
    """All ranking pairs of data, or a seeded subset of n_pairs of them."""
    full = build_ranking_pairs(data.y, data.c)
    if n_pairs is None:
        return full
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(full), size=n_pairs, replace=False))
    return RankingPairs(full.pairs[idx])


class TestBuildRankingPairs:
    def test_single_ordered_pair(self):
        pairs = build_ranking_pairs([1, 1], [0.65, 0.95])
        assert pairs.pairs.tolist() == [[1, 0]]

    def test_different_classes_excluded(self):
        assert len(build_ranking_pairs([1, 0], [0.9, 0.3])) == 0

    def test_ties_excluded(self):
        assert len(build_ranking_pairs([0, 0], [0.5, 0.5])) == 0

    def test_missing_confidences(self):
        with pytest.raises(MissingSupervisionError):
            build_ranking_pairs([0, 1], None)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            y = rng.integers(0, 2, size=n)
            c = rng.choice([0.1, 0.3, 0.3, 0.8], size=n)
            pairs = build_ranking_pairs(y, c)
            expected = {
                (a, b)
                for a in range(n)
                for b in range(n)
                if y[a] == y[b] and c[a] > c[b]
            }
            got = {tuple(p) for p in pairs.pairs}
            assert got == expected
            assert len(pairs) == len(got)  # no duplicates
            assert all(a != b for a, b in got)



class TestMargin:
    def test_coincident_same_class_far_opposite(self):
        X = np.array([[0.0], [0.0], [1e4], [1e4]])
        data = Dataset(X, [1, 1, 0, 0])
        assert margin(np.eye(1), data, 0) == pytest.approx(1.0)

    def test_symmetric_configuration_is_zero(self):
        # x_0 equidistant from its same-class and opposite-class partner
        X = np.array([[0.0], [2.0], [-2.0], [100.0], [-100.0]])
        data = Dataset(X, [1, 1, 0, 1, 0])
        assert margin(np.eye(1), data, 0) == pytest.approx(0.0, abs=1e-15)

    def test_subtraction_of_similarity_scores(self):
        d_same, d_opp = -math.log(0.3), -math.log(0.5)
        X = np.array([[0.0], [math.sqrt(d_same)], [math.sqrt(d_opp)], [1e3]])
        data = Dataset(X, [1, 1, 0, 0])
        # S^own = (0.3 + underflow)/2 is wrong: only one same-class ref here
        assert margin(np.eye(1), data, 0) == pytest.approx(0.3 - 0.25)


class TestCamelLoss:
    def test_zero_matrix_collapses_everything(self):
        rng = np.random.default_rng(2)
        data = random_dataset(rng)
        lb = camel_loss(np.zeros((3, 3)), data, lambda1=1.0)
        assert lb.pushpull == 0.0
        assert lb.l1 == 0.0
        assert lb.total == 0.0

    def test_symmetric_pairs_cancel(self):
        # kernels between same-class and opposite-class neighbors are equal
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        data = Dataset(X, [0, 1, 0, 1])
        lb = camel_loss(np.eye(1) * 0.0, data, lambda1=0.0)
        assert lb.pushpull == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        X = np.array([[0.0, 1.0], [1.0, 0.5], [-0.5, 0.2], [0.3, -1.0]])
        y = [1, 1, 0, 0]
        data = Dataset(X, y)
        lb = camel_loss(np.eye(2), data, lambda1=0.7)
        assert lb.total == pytest.approx(brute_force_loss(np.eye(2), X, y, 0.7), rel=1e-12)

    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng)
        L = rng.normal(size=(3, 3))
        lb = camel_loss(L, data, lambda1=0.2)
        assert lb.total == pytest.approx(lb.pushpull + lb.l1 + lb.ranking, rel=1e-12)
        assert lb.ranking == 0.0

    def test_sign_flip_of_unregularized_objective(self):
        # with no penalty, the loss is the negated sum of margins
        rng = np.random.default_rng(4)
        data = random_dataset(rng)
        L = rng.normal(size=(2, 3))
        lb = camel_loss(L, data, lambda1=0.0)
        margins = sum(margin(L, data, i) for i in range(data.n))
        assert lb.total == pytest.approx(-margins, rel=1e-12)


class TestCamelClLoss:
    def test_reduces_to_camel_loss_when_lambda2_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            data = random_dataset(rng)
            L = rng.normal(size=(3, 3))
            cfg = TrainConfig(lambda1=0.4, lambda2=0.0)
            pairs = build_ranking_pairs(data.y, data.c)
            lb = camel_cl_loss(L, data, cfg, pairs)
            assert lb.total == camel_loss(L, data, 0.4).total

    def test_satisfied_pair_contributes_nothing(self):
        rng = np.random.default_rng(6)
        data = random_dataset(rng)
        L = rng.normal(size=(3, 3))
        margins = [margin(L, data, i) for i in range(data.n)]
        same = [
            (a, b)
            for a in range(data.n)
            for b in range(data.n)
            if a != b and data.y[a] == data.y[b] and margins[a] > margins[b]
        ]
        a, b = same[0]
        cfg = TrainConfig(lambda1=0.0, lambda2=3.0)
        lb = camel_cl_loss(L, data, cfg, RankingPairs(np.array([[a, b]])))
        assert lb.ranking == 0.0

    def test_violated_pair_hinge_value(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng)
        L = rng.normal(size=(3, 3))
        margins = [margin(L, data, i) for i in range(data.n)]
        viol = [
            (a, b)
            for a in range(data.n)
            for b in range(data.n)
            if a != b and data.y[a] == data.y[b] and margins[a] < margins[b]
        ]
        a, b = viol[0]
        cfg = TrainConfig(lambda1=0.0, lambda2=2.0)
        lb = camel_cl_loss(L, data, cfg, RankingPairs(np.array([[a, b]])))
        assert lb.ranking == pytest.approx(2.0 * (margins[b] - margins[a]), rel=1e-10)
        assert lb.ranking >= 0.0

    def test_pair_index_out_of_range(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng)
        cfg = TrainConfig(lambda1=0.0, lambda2=1.0)
        with pytest.raises(DimensionMismatchError):
            camel_cl_loss(np.eye(3), data, cfg, RankingPairs(np.array([[0, 99]])))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, n=10)
        L = rng.normal(size=(3, 3))
        cfg = TrainConfig(lambda1=0.3, lambda2=1.5)
        pairs = build_ranking_pairs(data.y, data.c)
        lb = camel_cl_loss(L, data, cfg, pairs)
        perm = rng.permutation(data.n)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(data.n)
        pdata = Dataset(data.X[perm], data.y[perm], data.c[perm])
        ppairs = RankingPairs(inv[pairs.pairs]) if len(pairs) else pairs
        plb = camel_cl_loss(L, pdata, cfg, ppairs)
        assert plb.total == pytest.approx(lb.total, rel=1e-12)
        assert plb.ranking == pytest.approx(lb.ranking, rel=1e-12)


def finite_difference(L, data, cfg, pairs, h=1e-5):
    fd = np.zeros_like(L)

    def smooth(Lm):
        lb = camel_cl_loss(Lm, data, cfg, pairs)
        return lb.pushpull + lb.ranking

    for i in range(L.shape[0]):
        for j in range(L.shape[1]):
            up, down = L.copy(), L.copy()
            up[i, j] += h
            down[i, j] -= h
            fd[i, j] = (smooth(up) - smooth(down)) / (2 * h)
    return fd


def hinge_near_kink(L, data, pairs, eps=1e-7):
    if not len(pairs):
        return False
    from confmetric import similarity_scores

    S = similarity_scores(L, data)
    idx = np.arange(data.n)
    marg = S[idx, data.y] - S[idx, 1 - data.y]
    args = marg[pairs.pairs[:, 1]] - marg[pairs.pairs[:, 0]]
    return bool(np.any(np.abs(args) < eps))


class TestSmoothGradient:
    def test_zero_matrix_is_stationary(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng)
        cfg = TrainConfig(lambda2=1.0)
        pairs = build_ranking_pairs(data.y, data.c)
        g = smooth_gradient(np.zeros((3, 3)), data, cfg, pairs)
        assert np.all(g == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            n = int(rng.integers(6, 11))
            m = int(rng.integers(2, 5))
            mp = int(rng.integers(1, 5))
            data = random_dataset(rng, n=n, m=m)
            L = rng.normal(size=(mp, m)) * 0.6
            lam2 = float(rng.choice([0.0, 1.0]))
            cfg = TrainConfig(lambda1=0.3, lambda2=lam2)
            pairs = build_ranking_pairs(data.y, data.c) if lam2 > 0 else RankingPairs()
            if hinge_near_kink(L, data, pairs):
                continue
            g = smooth_gradient(L, data, cfg, pairs)
            fd = finite_difference(L, data, cfg, pairs)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(g - fd).max() / scale < 1e-5
            checked += 1

    def test_lambda2_zero_ignores_pairs(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng)
        L = rng.normal(size=(3, 3))
        pairs = build_ranking_pairs(data.y, data.c)
        g_with = smooth_gradient(L, data, TrainConfig(lambda2=0.0), pairs)
        g_without = smooth_gradient(L, data, TrainConfig(lambda2=0.0), RankingPairs())
        assert np.array_equal(g_with, g_without)


def dense_gradient(L, data, lambda2, pairs):
    """-2 L X^T P X with P formed explicitly, entry by entry."""
    n, y, X = data.n, data.y, data.X
    S = similarity_scores(L, data)
    marg = S[np.arange(n), y] - S[np.arange(n), 1 - y]
    coef = -np.ones(n)
    if lambda2 > 0:
        for a, b in pairs.pairs:
            if marg[b] - marg[a] > 0.0:
                coef[a] -= lambda2
                coef[b] += lambda2
    n1 = int(y.sum())
    sizes = {0: n - n1, 1: n1}
    K = kernel_matrix(L, X)
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if y[i] == y[j]:
                A[i, j] = coef[i] * K[i, j] / (sizes[y[i]] - 1)
            else:
                A[i, j] = -coef[i] * K[i, j] / sizes[1 - y[i]]
    P = np.diag(A.sum(axis=1) + A.sum(axis=0)) - A - A.T
    return -2.0 * L @ X.T @ P @ X


class TestObjective:
    """One Objective evaluated at several L, against independent formulas."""

    CASES = [(0.0, None), (1.5, None), (0.7, 5)]  # (lambda2, pairs kept; None: all)

    @pytest.mark.parametrize("lambda2,n_pairs", CASES)
    def test_loss_matches_wrappers_and_scores(self, lambda2, n_pairs):
        rng = np.random.default_rng(13)
        for _ in range(5):
            data = random_dataset(rng, n=int(rng.integers(6, 14)))
            pairs = pair_subset(data, n_pairs, seed=2)
            if n_pairs is not None:
                assert len(pairs) == n_pairs
            objective = Objective(data, pairs, 0.3, lambda2)
            for _ in range(3):
                L = rng.normal(size=(int(rng.integers(1, 4)), 3))
                loss = objective.value(L)[0]
                cfg = TrainConfig(lambda1=0.3, lambda2=lambda2)
                assert loss == camel_cl_loss(L, data, cfg, pairs)
                base = camel_loss(L, data, 0.3)
                assert (loss.pushpull, loss.l1) == (base.pushpull, base.l1)
                S = similarity_scores(L, data)
                marg = S[np.arange(data.n), data.y] - S[np.arange(data.n), 1 - data.y]
                hinge = np.maximum(0.0, marg[pairs.pairs[:, 1]] - marg[pairs.pairs[:, 0]])
                ranking = float(lambda2 * hinge.sum()) if lambda2 > 0 else 0.0
                assert loss.ranking == ranking

    # L scale 20 makes the kernel near-identity, where self terms that cancel
    # only in exact arithmetic would swamp the gradient
    GRADIENT_CASES = [pytest.param(*case, 0.6, id=f"{case[0]}-{case[1]}")
                      for case in CASES]
    GRADIENT_CASES.append(pytest.param(1.5, None, 20.0, id="1.5-None-near-identity"))

    @pytest.mark.parametrize("lambda2,n_pairs,scale", GRADIENT_CASES)
    def test_gradient_matches_dense_formula(self, lambda2, n_pairs, scale):
        rng = np.random.default_rng(14)
        for _ in range(5):
            data = random_dataset(rng, n=int(rng.integers(6, 14)))
            pairs = pair_subset(data, n_pairs, seed=3)
            objective = Objective(data, pairs, 0.3, lambda2)
            for _ in range(3):
                L = rng.normal(size=(int(rng.integers(1, 4)), 3)) * scale
                g = objective.gradient(L, objective.value(L)[1])
                ref = dense_gradient(L, data, lambda2, pairs)
                assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
                cfg = TrainConfig(lambda1=0.3, lambda2=lambda2)
                assert np.array_equal(g, smooth_gradient(L, data, cfg, pairs))
