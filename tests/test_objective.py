import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confmetric import (
    Dataset,
    DimensionMismatchError,
    MissingSupervisionError,
    RankingPairs,
    TrainConfig,
    ValidationError,
    build_ranking_pairs,
    camel_cl_loss,
    camel_loss,
    similarity_scores,
    smooth_gradient,
)
from confmetric.objective import Objective, _confidence_ranks, _counted_hinge
from test_metric import seed_order_kernel


def margins(L, data):
    """Each row's own-class minus opposite-class similarity score."""
    S = similarity_scores(L, data)
    rows = np.arange(data.n)
    return S[rows, data.y] - S[rows, 1 - data.y]


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


def by_label(data):
    """data with its rows stably sorted by label, the order Objective keeps."""
    return data.subset(np.argsort(data.y, kind="stable"))


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

    @pytest.mark.parametrize("labels, confidences, match", [
        ([0, 1, 1], [0.2, 0.9], "confidences must be a vector of length n"),
        ([0, 2, 2], [0.2, 0.9, 0.4], "labels must be 0 or 1"),
        ([1, 1, 0], [0.2, math.nan, 0.4], "confidences contain non-finite values"),
    ], ids=["short-confidences", "label-2", "nan-confidence"])
    def test_rejects_what_dataset_rejects(self, labels, confidences, match):
        with pytest.raises(ValidationError, match=match):
            build_ranking_pairs(labels, confidences)

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



def pair_oracle(y, c, marg):
    """The hinge sum and per-instance gains over the listed ranking pairs."""
    more, less = build_ranking_pairs(y, c).pairs.T
    args = marg[less] - marg[more]
    active = (args > 0.0).astype(np.float64)
    gain = (np.bincount(less, weights=active, minlength=len(y))
            - np.bincount(more, weights=active, minlength=len(y)))
    return np.maximum(0.0, args).sum(), gain


# how the margins of one draw are made: in the fit's collapsed state every
# margin is equal, and -0.0 must tie with 0.0 as it does in the oracle
MARGIN_KINDS = {
    "distinct": lambda rng, n: rng.normal(size=n),
    "tied": lambda rng, n: rng.choice([-1.0, 0.25, 0.5, 2.0], size=n),
    "all-equal": lambda rng, n: np.full(n, -0.25),
    "signed-zeros": lambda rng, n: rng.choice([-0.0, 0.0, 1e-300, -1.0], size=n),
}


class TestCountedHinge:
    """The pair-free hinge of ``fit`` against the listed pairs."""

    @pytest.mark.parametrize("kind", MARGIN_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300, 1000])
    def test_matches_pair_oracle(self, n, kind):
        rng = np.random.default_rng(n)
        for draw in range(4):
            y = rng.integers(0, 2, size=n)
            if draw == 3 and n > 1:
                y[:] = 0
                y[rng.integers(n)] = 1  # a class of size 1
            # draws 0 and 1 tie many confidences, 2 and 3 almost none
            c = (rng.choice([0.0, 0.2, 0.5, 1.0], size=n) if draw < 2
                 else rng.uniform(size=n))
            marg = MARGIN_KINDS[kind](rng, n)
            hinge, gain = _counted_hinge(marg, y, _confidence_ranks(y, c),
                                         np.arange(n, dtype=np.float64))
            ref_hinge, ref_gain = pair_oracle(y, c, marg)
            assert np.array_equal(gain, ref_gain)
            assert abs(hinge - ref_hinge) <= 1e-12 * ref_hinge
            assert math.copysign(1.0, hinge) == 1.0  # never -0.0, as with the oracle
            if kind == "all-equal":
                assert hinge == 0.0 and not gain.any()

    def test_signed_zero_confidences_tie(self):
        y = np.array([1, 1])
        _, gain = _counted_hinge(np.array([0.0, 1.0]), y,
                                 _confidence_ranks(y, np.array([0.0, -0.0])),
                                 np.arange(2.0))
        assert not gain.any()

    @pytest.mark.parametrize("scale", [0.6, 20.0])
    def test_fit_objective_equals_listed_pairs(self, scale):
        """Both hinge forms leave the same gains, so the gradients are equal
        bit for bit and the hinge sums agree to rounding."""
        rng = np.random.default_rng(26)
        for _ in range(5):
            data = random_dataset(rng, n=int(rng.integers(6, 40)))
            data.c[: data.n // 3] = 0.5  # some tied confidences
            listed = Objective(data, build_ranking_pairs(data.y, data.c), 0.3, 1.5)
            counted = Objective(data, None, 0.3, 1.5)
            for _ in range(3):
                L = rng.normal(size=(int(rng.integers(1, 4)), 3)) * scale
                loss, cache = counted.value(L)
                ref_loss, ref_cache = listed.value(L)
                assert np.array_equal(cache.gain, ref_cache.gain)
                assert abs(loss.ranking - ref_loss.ranking) <= 1e-12 * ref_loss.ranking
                assert (loss.pushpull, loss.l1) == (ref_loss.pushpull, ref_loss.l1)
                assert np.array_equal(counted.gradient(cache), listed.gradient(ref_cache))

    def test_fit_objective_needs_confidences(self):
        data = random_dataset(np.random.default_rng(27), with_conf=False)
        with pytest.raises(MissingSupervisionError):
            Objective(data, None, 0.3, 1.0)
        assert Objective(data, None, 0.3, 0.0).value(np.eye(3))[1].gain is None


class TestMargin:
    def test_coincident_same_class_far_opposite(self):
        X = np.array([[0.0], [0.0], [1e4], [1e4]])
        data = Dataset(X, [1, 1, 0, 0])
        assert margins(np.eye(1), data)[0] == pytest.approx(1.0)

    def test_symmetric_configuration_is_zero(self):
        # x_0 equidistant from its same-class and opposite-class partner
        X = np.array([[0.0], [2.0], [-2.0], [100.0], [-100.0]])
        data = Dataset(X, [1, 1, 0, 1, 0])
        assert margins(np.eye(1), data)[0] == pytest.approx(0.0, abs=1e-15)

    def test_subtraction_of_similarity_scores(self):
        d_same, d_opp = -math.log(0.3), -math.log(0.5)
        X = np.array([[0.0], [math.sqrt(d_same)], [math.sqrt(d_opp)], [1e3]])
        data = Dataset(X, [1, 1, 0, 0])
        # S^own = (0.3 + underflow)/2 is wrong: only one same-class ref here
        assert margins(np.eye(1), data)[0] == pytest.approx(0.3 - 0.25)


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
        assert lb.total == pytest.approx(-margins(L, data).sum(), rel=1e-12)


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
        marg = margins(L, data)
        same = [
            (a, b)
            for a in range(data.n)
            for b in range(data.n)
            if a != b and data.y[a] == data.y[b] and marg[a] > marg[b]
        ]
        a, b = same[0]
        cfg = TrainConfig(lambda1=0.0, lambda2=3.0)
        lb = camel_cl_loss(L, data, cfg, RankingPairs(np.array([[a, b]])))
        assert lb.ranking == 0.0

    def test_violated_pair_hinge_value(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng)
        L = rng.normal(size=(3, 3))
        marg = margins(L, data)
        viol = [
            (a, b)
            for a in range(data.n)
            for b in range(data.n)
            if a != b and data.y[a] == data.y[b] and marg[a] < marg[b]
        ]
        a, b = viol[0]
        cfg = TrainConfig(lambda1=0.0, lambda2=2.0)
        lb = camel_cl_loss(L, data, cfg, RankingPairs(np.array([[a, b]])))
        assert lb.ranking == pytest.approx(2.0 * (marg[b] - marg[a]), rel=1e-10)
        assert lb.ranking >= 0.0

    def test_pair_index_out_of_range(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng)
        cfg = TrainConfig(lambda1=0.0, lambda2=1.0)
        with pytest.raises(DimensionMismatchError):
            camel_cl_loss(np.eye(3), data, cfg, RankingPairs(np.array([[0, 99]])))

    @pytest.mark.parametrize("pairs", [
        np.array([[0.0, 1.0]]),  # float indices
        np.array([0, 1]),  # one pair, but 1-D
        np.array([[0, 1, 2]]),  # three columns
    ])
    def test_pairs_not_integer_k_by_2(self, pairs):
        data = random_dataset(np.random.default_rng(8))
        cfg = TrainConfig(lambda1=0.0, lambda2=1.0)
        with pytest.raises(DimensionMismatchError, match="shape"):
            camel_cl_loss(np.eye(3), data, cfg, RankingPairs(pairs))

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
    marg = margins(L, data)
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


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(6, 14),
    m=st.integers(1, 4),
    m_prime=st.integers(1, 4),
    lambda2=st.sampled_from([0.0, 0.5, 2.0]),
    log_scale=st.floats(-1.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
    listed=st.booleans(),
)
def test_gradient_matches_finite_differences_property(n, m, m_prime, lambda2, log_scale,
                                                      seed, listed):
    """Objective.gradient against central differences of pushpull + ranking,
    with the hinge on and off, over listed pairs and counted as ``fit``
    counts them. A draw with a hinge argument within 1e-7 of its kink is
    skipped, as gate 1 skips it."""
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n=n, m=m)
    L = rng.normal(size=(m_prime, m)) * 10.0**log_scale
    pairs = build_ranking_pairs(data.y, data.c) if lambda2 > 0 else RankingPairs()
    assume(not hinge_near_kink(L, data, pairs))
    objective = Objective(data, pairs if listed else None, 0.3, lambda2)
    g = objective.gradient(objective.value(L)[1])
    fd = finite_difference(L, data, TrainConfig(lambda1=0.3, lambda2=lambda2), pairs)
    assert np.abs(g - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(4, 40),
    m=st.integers(1, 4),
    m_prime=st.integers(1, 4),
    lambda1=st.floats(0.0, 10.0),
    lambda2=st.floats(0.0, 10.0),
    log_spread=st.floats(-6.0, 0.0),
    log_scale=st.floats(-3.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
    listed=st.booleans(),
)
def test_floor_never_exceeds_the_total(n, m, m_prime, lambda1, lambda2, log_spread,
                                       log_scale, seed, listed):
    """Objective.floor bounds the computed total from below, with the hinge
    counted and over listed pairs. Classes draw from tight clusters one unit
    apart, so the margins reach towards 1 and the bound towards the total;
    L runs from a near-uniform kernel to a fully collapsed one."""
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n=n, m=m)
    X = data.y[:, None] + 10.0**log_spread * data.X
    data = Dataset(X, data.y, data.c)
    L = rng.normal(size=(m_prime, m)) * 10.0**log_scale
    pairs = build_ranking_pairs(data.y, data.c) if listed else None
    objective = Objective(data, pairs, lambda1, lambda2)
    assert objective.value(L)[0].total >= objective.floor(L)


def test_floor_is_nearly_reached_by_tight_far_classes():
    """Two classes, each of near-duplicate rows, far apart: every margin is
    ~1 and the total sits just above lambda1 ||L||_1 - n."""
    rng = np.random.default_rng(3)
    y = np.repeat([0, 1], 10)
    X = 100.0 * y[:, None] + 1e-6 * rng.normal(size=(20, 2))
    data = Dataset(X, y, rng.uniform(size=20))
    L = np.eye(2)
    objective = Objective(data, None, 0.5, 1.0)
    loss = objective.value(L)[0]
    floor = objective.floor(L)
    assert floor <= loss.total <= floor + 1e-4
    assert floor == 0.5 * 2 - 20 * (1 + 1e-6)


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
    K = seed_order_kernel(L, X)
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
                g = objective.gradient(objective.value(L)[1])
                ref = dense_gradient(L, data, lambda2, pairs)
                assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
                cfg = TrainConfig(lambda1=0.3, lambda2=lambda2)
                assert np.array_equal(g, smooth_gradient(L, data, cfg, pairs))

    @pytest.mark.parametrize("n", [20, 600])  # 600 rows: three tile rows
    def test_no_evaluation_corrupts_an_earlier_one(self, n):
        """A cache stays valid while later calls run, on the same Objective
        and on another one; bit for bit, -0.0 included."""
        rng = np.random.default_rng(n)
        objectives = [Objective(random_dataset(rng, n=n), None, 0.3, 1.5)
                      for _ in range(2)]
        L1, L2 = rng.normal(size=(2, 3, 3)) * 0.5

        def fresh(objective, L):
            loss, cache = objective.value(L)
            return loss, objective.gradient(cache).tobytes()

        expected = [fresh(objective, L1) for objective in objectives]
        # interleaved: a, b at L1, then a, b at L2
        caches = [objective.value(L1) for objective in objectives]
        for objective in objectives:
            objective.value(L2)
        for objective, (loss, cache), want in zip(objectives, caches, expected):
            assert (loss, objective.gradient(cache).tobytes()) == want
            assert fresh(objective, L1) == want


class TestUpperTiles:
    """Tiles 3-5 rows wide, so every n below has several tiles and a partial
    edge tile; each result must still match the full-kernel formula."""

    @pytest.fixture(params=[3, 4, 5])
    def side(self, request, monkeypatch):
        import confmetric.metric as metric

        monkeypatch.setattr(metric, "_BLOCK_BYTES", 8 * request.param ** 2)
        return request.param

    SIZES = (11, 13, 17)

    def test_similarity_scores_match_full_kernel(self, side):
        rng = np.random.default_rng(21)
        for n in self.SIZES:
            data = random_dataset(rng, n=n)
            for _ in range(3):
                L = rng.normal(size=(int(rng.integers(1, 4)), 3))
                K = seed_order_kernel(L, data.X)
                np.fill_diagonal(K, 0.0)
                onehot = np.eye(2)[data.y]
                ref = (K @ onehot) / (onehot.sum(axis=0) - onehot)
                S = similarity_scores(L, data)
                assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("lambda2,n_pairs", [(0.0, None), (1.5, None), (0.7, 5)])
    def test_gradient_matches_dense_formula(self, side, lambda2, n_pairs):
        rng = np.random.default_rng(22)
        for n in self.SIZES:
            data = random_dataset(rng, n=n)
            pairs = pair_subset(data, n_pairs, seed=4)
            objective = Objective(data, pairs, 0.3, lambda2)
            for _ in range(3):
                L = rng.normal(size=(int(rng.integers(1, 4)), 3)) * 0.6
                g = objective.gradient(objective.value(L)[1])
                ref = dense_gradient(L, data, lambda2, pairs)
                assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_ranking_matches_pair_formula(self, side):
        rng = np.random.default_rng(23)
        for n in self.SIZES:
            data = by_label(random_dataset(rng, n=n))
            pairs = build_ranking_pairs(data.y, data.c)
            objective = Objective(data, pairs, 0.3, 1.5)
            for _ in range(3):
                L = rng.normal(size=(int(rng.integers(1, 4)), 3))
                S = similarity_scores(L, data)
                marg = S[np.arange(n), data.y] - S[np.arange(n), 1 - data.y]
                hinge = np.maximum(0.0, marg[pairs.pairs[:, 1]] - marg[pairs.pairs[:, 0]])
                assert objective.value(L)[0].ranking == float(1.5 * hinge.sum())

    def test_cache_holds_only_upper_tiles(self, side):
        rng = np.random.default_rng(24)
        for n in self.SIZES:
            data = by_label(random_dataset(rng, n=n))
            L = rng.normal(size=(2, 3))
            tiles = Objective(data, RankingPairs(), 0.3, 0.0).value(L)[1].tiles
            assert len(tiles) > 1
            assert all(max(T.shape) <= side for _, _, T in tiles)
            assert sum(T.size for _, _, T in tiles) <= (n * n + n * side) / 2
            # the tiles and their mirrors cover the kernel exactly once
            K = np.full((n, n), np.nan)
            for rows, cols, T in tiles:
                assert np.isnan(K[rows, cols]).all()
                K[rows, cols], K[cols, rows] = T, T.T
            full = seed_order_kernel(L, data.X)
            np.fill_diagonal(full, 0.0)
            assert np.abs(K - full).max() <= 1e-13

    def test_one_tile_equals_plain_kernel(self):
        # at n <= 256 the one tile is the one-product kernel, bit for bit, so
        # small fits give the same numbers as the full-kernel formula
        rng = np.random.default_rng(25)
        for n in (4, 40, 256):
            data = by_label(random_dataset(rng, n=n))
            L = rng.normal(size=(3, 3)) * 0.5
            (rows, cols, T), = Objective(data, RankingPairs(), 0.3, 0.0).value(L)[1].tiles
            K = seed_order_kernel(L, data.X)
            np.fill_diagonal(K, 0.0)
            assert T.shape == (n, n) and np.array_equal(T, K)


class TestRowOrder:
    """Objective sorts its rows by label itself, so rows with many label runs
    give the same loss and gradient, bit for bit, as the same rows sorted."""

    @pytest.mark.parametrize("n", [40, 160, 600])
    def test_similarity_scores_are_the_objective_class_means(self, n):
        # unsorted rows: the public scores are the objective's own, bit for bit
        rng = np.random.default_rng(n)
        data = random_dataset(rng, n=n, m=4)
        assert np.count_nonzero(np.diff(data.y)) > 10
        L = rng.normal(size=(3, 4)) * 0.5
        objective = Objective(data, None, 0, 0)
        KB = objective.value(L)[1].KB
        S = similarity_scores(L, data)[np.argsort(data.y, kind="stable")]
        assert np.array_equal(S, KB / objective.counts)

    @staticmethod
    def assert_order_free(data, L):
        assert np.count_nonzero(np.diff(data.y)) > 10
        for lambda2 in (0.0, 1.5):
            shuffled = Objective(data, None, 0.3, lambda2)
            ordered = Objective(by_label(data), None, 0.3, lambda2)
            loss, cache = shuffled.value(L)
            ref_loss, ref_cache = ordered.value(L)
            assert loss == ref_loss
            g, ref = shuffled.gradient(cache), ordered.gradient(ref_cache)
            assert np.array_equal(g, ref)

    def test_class_smaller_than_one_tile(self):
        # 300 rows are two 256-row tiles a side; class 1 has 20 rows
        rng = np.random.default_rng(31)
        y = np.zeros(300, dtype=int)
        y[rng.choice(300, size=20, replace=False)] = 1
        data = Dataset(rng.normal(size=(300, 4)), y, rng.uniform(size=300))
        self.assert_order_free(data, rng.normal(size=(3, 4)) * 0.5)

    def test_run_boundary_inside_off_diagonal_tile(self, monkeypatch):
        import confmetric.metric as metric

        # ten-row tiles; sorted, class 0 ends at row 13, inside the tile
        # of rows 0-9 and columns 10-19
        monkeypatch.setattr(metric, "_BLOCK_BYTES", 3 * 40 * 8)
        rng = np.random.default_rng(32)
        y = rng.permutation(np.repeat([0, 1], [13, 24]))
        data = Dataset(rng.normal(size=(37, 3)), y, rng.uniform(size=37))
        self.assert_order_free(data, rng.normal(size=(2, 3)))
