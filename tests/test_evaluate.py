import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from confmetric import evaluate
from confmetric import (
    UndefinedMetricError,
    ValidationError,
    auroc,
    feature_weight_stats,
    heatmap_matrix,
    n_zero_rows,
    row_rank,
    sparsity,
)


def pair_count_auroc(scores, labels):
    """Independent O(n^2) definition: P(score_pos > score_neg) + 0.5 ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_perfectly_wrong(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0

    def test_interleaved(self):
        assert auroc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_all_tied_scores(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.9], [1, 1])

    def test_too_few_points(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.3], [1])

    @pytest.mark.parametrize("scores, labels, match", [
        ([0.1, 0.9, 0.5], [0, 1], "equal-length vectors"),
        ([[0.1, 0.9], [0.2, 0.8]], [[0, 1], [0, 1]], "equal-length vectors"),
        ([0.1, 0.9, 0.5], [0, 1, 2], "labels must be 0 or 1"),
        ([0.1, 0.9], [0.5, 1], "labels must be 0 or 1"),
    ], ids=["lengths-differ", "2-D", "label-2", "fractional-label"])
    def test_bad_inputs_raise(self, scores, labels, match):
        with pytest.raises(ValidationError, match=match):
            auroc(scores, labels)

    def test_matches_pair_count_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.choice([0.1, 0.2, 0.2, 0.5, 0.9], size=n)
            expected = pair_count_auroc(scores, labels)
            assert auroc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_label_complement_symmetry(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        a = auroc(scores, labels)
        b = auroc(scores, 1 - labels)
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=25)
        labels = rng.integers(0, 2, size=25)
        labels[:2] = [0, 1]
        assert auroc(np.exp(5 * scores), labels) == pytest.approx(
            auroc(scores, labels), abs=1e-12
        )


    def test_nan_score_gives_nan(self):
        assert math.isnan(auroc([0.1, float("nan"), 0.8, 0.9], [0, 0, 1, 1]))


# a small pool forces ties, and -0.0 ties with 0.0
TIED = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(TIED, st.floats(allow_nan=False)), min_size=1,
                       max_size=60),
       nan_at=st.one_of(st.none(), st.integers(0, 59)))
def test_midranks_equal_scipy_rankdata(values, nan_at):
    x = np.array(values, dtype=np.float64)
    if nan_at is not None:
        x[nan_at % len(x)] = np.nan
    ranks, expected = evaluate._midranks(x), rankdata(x)
    assert ranks.dtype == expected.dtype
    assert np.array_equal(ranks, expected, equal_nan=True)


class TestMatrixDiagnostics:
    def test_sparsity_counts_exact_zeros_only(self):
        L = np.array([[0.0, 1e-300], [2.0, 0.0]])
        assert sparsity(L) == 0.5

    def test_sparsity_bounds(self):
        assert sparsity(np.zeros((3, 3))) == 1.0
        assert sparsity(np.ones((3, 3))) == 0.0

    def test_row_rank(self):
        L = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        assert row_rank(L) == 1
        assert row_rank(np.eye(4)) == 4
        assert row_rank(np.zeros((2, 5))) == 0

    def test_n_zero_rows(self):
        L = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert n_zero_rows(L) == 2

    def test_feature_weight_stats(self):
        L = np.array([[1.0, -2.0], [3.0, 0.0]])
        stats = feature_weight_stats(L)
        assert stats.mean_abs.tolist() == [2.0, 1.0]
        assert stats.max_abs.tolist() == [3.0, 2.0]

    def test_heatmap_normalized_to_unit_max(self):
        L = np.array([[2.0, -4.0], [0.0, 1.0]])
        H = heatmap_matrix(L)
        assert H.max() == 1.0
        assert H.tolist() == [[0.5, 1.0], [0.0, 0.25]]

    def test_heatmap_zero_matrix(self):
        assert np.array_equal(heatmap_matrix(np.zeros((2, 2))), np.zeros((2, 2)))

