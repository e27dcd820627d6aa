import math
import warnings

import numpy as np
import pytest

from confmetric import (
    Dataset,
    DegenerateClassError,
    MissingSupervisionError,
    RankingPairs,
    TrainConfig,
    ValidationError,
    camel_cl_loss,
    fit,
    init_metric,
    soft_threshold,
    synth_generate,
)
from confmetric.data_io import SynthConfig


def small_dataset(seed=0, n=40, noise=0.05):
    cfg = SynthConfig(
        n=n,
        m=5,
        m_informative=2,
        class_balance=0.5,
        cluster_separation=3.0,
        confidence_noise=noise,
        seed=seed,
    )
    data, _ = synth_generate(cfg)
    return data


class TestSoftThreshold:
    def test_shrinks_toward_zero(self):
        M = np.array([[3.0, -2.0], [0.5, -0.5]])
        out = soft_threshold(M, 1.0)
        assert out.tolist() == [[2.0, -1.0], [0.0, 0.0]]

    def test_exact_zero_at_threshold(self):
        assert soft_threshold(np.array([1.0, -1.0]), 1.0).tolist() == [0.0, 0.0]

    def test_zero_threshold_is_identity(self):
        M = np.array([[1.5, -0.25]])
        assert np.array_equal(soft_threshold(M, 0.0), M)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            soft_threshold(np.eye(2), -0.1)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValidationError, match="threshold must be nonnegative"):
            soft_threshold(np.eye(2), math.nan)

    def test_magnitudes_never_grow(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(7, 5))
        out = soft_threshold(M, 0.3)
        assert np.all(np.abs(out) <= np.abs(M))
        assert np.all(out * M >= 0.0)  # signs preserved or zeroed


class TestInitMetric:
    def test_two_point_unit_median_gives_identity(self):
        # single pair at distance 1 -> median squared distance already 1
        data = Dataset(np.array([[0.0], [1.0]]), [0, 1])
        L = init_metric(1, 1, data, seed=0)
        assert L.tolist() == [[1.0]]

    def test_identity_pattern(self):
        data = small_dataset()
        L = init_metric(5, 3, data, seed=1)
        assert L.shape == (3, 5)
        scale = L[0, 0]
        assert scale > 0
        assert np.array_equal(L, scale * np.eye(3, 5))

    def test_scaling_invariance(self):
        # scaling the data by 10 scales the init by exactly 1/10
        data = small_dataset(seed=2)
        scaled = Dataset(data.X * 10.0, data.y, data.c)
        L1 = init_metric(5, 5, data, seed=3)
        L2 = init_metric(5, 5, scaled, seed=3)
        assert np.allclose(L2 * 10.0, L1, rtol=1e-12)

    def test_duplicate_only_data_uses_unit_scale_silently(self):
        X = np.zeros((6, 2))
        data = Dataset(X, [0, 0, 0, 1, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = init_metric(2, 2, data, seed=0)
        assert np.array_equal(L, np.eye(2))

    def test_bad_dimensions(self):
        data = small_dataset()
        with pytest.raises(ValidationError):
            init_metric(0, 2, data, seed=0)


class TestFit:
    def test_huge_lambda1_gives_exact_zero_matrix(self):
        data = small_dataset(seed=5)
        L, trace = fit(data, TrainConfig(lambda1=1e3, seed=0))
        assert np.all(L == 0.0)
        assert trace.records[-1].sparsity == 1.0

    def test_monotone_descent_with_backtracking(self):
        for seed in range(5):
            data = small_dataset(seed=seed)
            _, trace = fit(
                data, TrainConfig(lambda1=0.5, lambda2=1.0, max_iters=60, seed=seed)
            )
            totals = [r.total for r in trace.records]
            assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_deterministic(self):
        data = small_dataset(seed=6)
        cfg = TrainConfig(lambda1=0.3, lambda2=0.5, max_iters=30, seed=11)
        L1, t1 = fit(data, cfg)
        L2, t2 = fit(data, cfg)
        assert np.array_equal(L1, L2)
        assert [r.total for r in t1.records] == [r.total for r in t2.records]

    def test_lambda2_zero_identical_without_confidences(self):
        data = small_dataset(seed=7)
        stripped = data.without_confidences()
        cfg = TrainConfig(lambda1=0.4, lambda2=0.0, max_iters=40, seed=2)
        L1, _ = fit(data, cfg)
        L2, _ = fit(stripped, cfg)
        assert np.array_equal(L1, L2)

    def test_trace_totals_match_loss_recomputation(self):
        data = small_dataset(seed=8)
        cfg = TrainConfig(lambda1=0.2, lambda2=0.8, max_iters=25, seed=3)
        L, trace = fit(data, cfg)
        from confmetric import build_ranking_pairs

        pairs = build_ranking_pairs(data.y, data.c)
        lb = camel_cl_loss(
            L, data, TrainConfig(lambda1=0.2, lambda2=0.8), pairs
        )
        assert trace.records[-1].total == pytest.approx(lb.total, rel=1e-10)

    def test_projection_dim_shapes_output(self):
        data = small_dataset(seed=9)
        L, _ = fit(data, TrainConfig(lambda1=0.1, proj_dim=2, max_iters=10))
        assert L.shape == (2, 5)

    def test_convergence_status(self):
        data = small_dataset(seed=11)
        _, trace = fit(data, TrainConfig(lambda1=0.5, max_iters=500, rel_tol=1e-6))
        assert (trace.status, trace.stop_reason) == ("converged", "rel_tol")
        _, trace2 = fit(data, TrainConfig(lambda1=0.5, max_iters=2, rel_tol=1e-15))
        assert (trace2.status, trace2.stop_reason) == ("max_iters", "max_iters")
        assert len(trace2.records) == 3

    def test_step_underflow_stop_reason(self, monkeypatch):
        import confmetric.optimize as optimize

        data = small_dataset(seed=11)
        # a first step already below the smallest trial step size
        monkeypatch.setattr(optimize, "_ETA0", 1e-21)
        _, trace = fit(data, TrainConfig(lambda1=0.5))
        assert (trace.status, trace.stop_reason) == ("converged", "step_underflow")
        assert len(trace.records) == 1

    def test_one_kernel_per_loss_evaluation(self, monkeypatch):
        import confmetric.objective as objective

        kernels, values = [], []
        value = objective.Objective.value
        upper_tiles = objective._upper_tiles

        def counting_upper_tiles(*args, **kwargs):
            kernels.append(1)
            return upper_tiles(*args, **kwargs)

        def counting_value(self, L):
            values.append(1)
            return value(self, L)

        monkeypatch.setattr(objective, "_upper_tiles", counting_upper_tiles)
        monkeypatch.setattr(objective.Objective, "value", counting_value)
        data = small_dataset(seed=14)
        for lambda1, lambda2 in ((0.1, 0.0), (0.1, 1.0), (4.0, 1.0)):
            kernels.clear()
            values.clear()
            cfg = TrainConfig(lambda1=lambda1, lambda2=lambda2, max_iters=12,
                              rel_tol=1e-15)
            _, trace = fit(data, cfg)
            iterations = len(trace.records) - 1
            assert iterations == 12
            # the start plus at least one line-search trial per iteration
            assert len(values) >= iterations + 1
            assert len(kernels) == len(values)
            assert sum(r.loss_evals for r in trace.records) == len(kernels)
            assert trace.records[0].loss_evals == 1
        # at lambda1 = 4 the first iteration tries the 9 steps 1 .. 2^-8 and
        # builds no kernel for some of them
        assert trace.records[1].step_size == 2.0**-8
        assert 1 <= trace.records[1].loss_evals < 9

    def test_floor_skips_kernels_and_changes_nothing_else(self, monkeypatch):
        """Trials rejected on the floor alone build no kernel; evaluating
        them instead gives the same L, totals and steps bit for bit."""
        import confmetric.objective as objective

        data, _ = synth_generate(SynthConfig(n=600, m=20, m_informative=2,
                                             cluster_separation=4.0,
                                             confidence_noise=0.05, seed=1))
        cfg = TrainConfig(lambda1=4.0, lambda2=1.0, max_iters=10)
        L, trace = fit(data, cfg)
        monkeypatch.setattr(objective.Objective, "floor", lambda self, L: -np.inf)
        L_all, trace_all = fit(data, cfg)
        assert np.array_equal(L, L_all)
        assert ([(r.total, r.step_size) for r in trace.records]
                == [(r.total, r.step_size) for r in trace_all.records])
        assert sum(r.loss_evals for r in trace.records) == 11
        assert sum(r.loss_evals for r in trace_all.records) == 19

    def test_peak_memory_at_most_three_kernels(self, monkeypatch):
        import tracemalloc

        import confmetric.optimize as optimize

        built = []

        class RecordingObjective(optimize.Objective):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(optimize, "Objective", RecordingObjective)
        n = 600
        data, _ = synth_generate(SynthConfig(n=n, m=20, m_informative=2, seed=0))
        tracemalloc.start()
        try:
            fit(data, TrainConfig(lambda2=1.0, max_iters=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one kernel's upper tiles and the gradient's work; an n x n weight
        # matrix stored for the whole fit would exceed it
        assert peak <= 3.0 * 8 * n * n
        (objective,) = built
        assert all(np.size(v) < n * n for v in vars(objective).values())

    def test_hinge_adds_no_quadratic_memory(self):
        """The hinge counts its ~n^2/4 pairs without listing them: a fit
        peaks within 0.1 n^2 float64 of the same fit without the hinge."""
        import tracemalloc

        n = 1000
        data, _ = synth_generate(SynthConfig(n=n, m=20, m_informative=2, seed=0))
        peaks = []
        for lambda2 in (0.0, 1.0):
            tracemalloc.start()
            try:
                fit(data, TrainConfig(lambda1=1.0, lambda2=lambda2, max_iters=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 0.1 * 8 * n * n

    def test_degenerate_class_rejected(self):
        data = Dataset(np.random.default_rng(0).normal(size=(5, 2)), [0, 0, 0, 0, 1])
        with pytest.raises(DegenerateClassError):
            fit(data, TrainConfig())

    def test_lambda2_requires_confidences(self):
        data = small_dataset(seed=12).without_confidences()
        with pytest.raises(MissingSupervisionError):
            fit(data, TrainConfig(lambda2=1.0))

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            TrainConfig(lambda1=-1.0)
        with pytest.raises(ValidationError):
            TrainConfig(proj_dim=0)
        with pytest.raises(ValidationError):
            TrainConfig(rel_tol=0.0)
        for bad in ({"lambda1": float("nan")}, {"lambda2": float("inf")},
                    {"lambda2": -1.0}, {"rel_tol": float("nan")},
                    {"rel_tol": float("inf")}):
            with pytest.raises(ValidationError, match="finite"):
                TrainConfig(**bad)
        for bad in ({"max_iters": 2.5}, {"max_iters": True}, {"max_iters": "3"},
                    {"proj_dim": 1.5}, {"proj_dim": False}, {"seed": 1.5},
                    {"seed": True}):
            with pytest.raises(ValidationError, match="must be integers"):
                TrainConfig(**bad)

    def test_non_number_settings_rejected(self):
        for bad in ({"lambda1": True}, {"lambda2": "0.5"}, {"rel_tol": True},
                    {"lambda1": None}):
            with pytest.raises(ValidationError, match="must be numbers"):
                TrainConfig(**bad)
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            TrainConfig(seed=-1)

    def test_backtracking_defaults(self):
        import confmetric.optimize as optimize

        assert (optimize._ETA0, optimize._SHRINK, optimize._GROWTH) == (1.0, 0.5, 1.1)
        _, trace = fit(small_dataset(seed=10), TrainConfig(lambda1=0.1, max_iters=3))
        assert trace.records[0].step_size == 1.0
