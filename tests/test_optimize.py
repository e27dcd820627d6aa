import numpy as np
import pytest

from confmetric import (
    BacktrackingStep,
    Dataset,
    DegenerateClassError,
    FixedStep,
    MissingSupervisionError,
    RankingPairs,
    ScaledIdentityInit,
    SeededGaussianInit,
    TrainConfig,
    ValidationError,
    camel_cl_loss,
    fit,
    init_metric,
    kernel_matrix,
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
        L = init_metric(1, 1, data, ScaledIdentityInit(), seed=0)
        assert L.tolist() == [[1.0]]

    def test_identity_pattern(self):
        data = small_dataset()
        L = init_metric(5, 3, data, ScaledIdentityInit(), seed=1)
        assert L.shape == (3, 5)
        scale = L[0, 0]
        assert scale > 0
        assert np.array_equal(L, scale * np.eye(3, 5))

    def test_scaling_invariance(self):
        # scaling the data by 10 scales the init by exactly 1/10
        data = small_dataset(seed=2)
        scaled = Dataset(data.X * 10.0, data.y, data.c)
        L1 = init_metric(5, 5, data, ScaledIdentityInit(), seed=3)
        L2 = init_metric(5, 5, scaled, ScaledIdentityInit(), seed=3)
        assert np.allclose(L2 * 10.0, L1, rtol=1e-12)

    def test_gaussian_init_deterministic(self):
        data = small_dataset(seed=4)
        a = init_metric(5, 4, data, SeededGaussianInit(), seed=7)
        b = init_metric(5, 4, data, SeededGaussianInit(), seed=7)
        c = init_metric(5, 4, data, SeededGaussianInit(), seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_duplicate_only_data_warns_and_uses_unit_scale(self):
        X = np.zeros((6, 2))
        data = Dataset(X, [0, 0, 0, 1, 1, 1])
        with pytest.warns(UserWarning):
            L = init_metric(2, 2, data, ScaledIdentityInit(), seed=0)
        assert np.array_equal(L, np.eye(2))

    def test_bad_dimensions(self):
        data = small_dataset()
        with pytest.raises(ValidationError):
            init_metric(0, 2, data, ScaledIdentityInit(), seed=0)


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

    def test_fixed_step_runs(self):
        data = small_dataset(seed=10)
        _, trace = fit(
            data,
            TrainConfig(lambda1=0.1, step_policy=FixedStep(eta=0.05), max_iters=20),
        )
        assert trace.records[0].step_size == 0.05

    def test_convergence_status(self):
        data = small_dataset(seed=11)
        _, trace = fit(data, TrainConfig(lambda1=0.5, max_iters=500, rel_tol=1e-6))
        assert (trace.status, trace.stop_reason) == ("converged", "rel_tol")
        _, trace2 = fit(data, TrainConfig(lambda1=0.5, max_iters=2, rel_tol=1e-15))
        assert (trace2.status, trace2.stop_reason) == ("max_iters", "max_iters")
        assert len(trace2.records) == 3

    def test_step_underflow_stop_reason(self):
        data = small_dataset(seed=11)
        # a first step already below the smallest trial step size
        policy = BacktrackingStep(eta0=1e-21)
        _, trace = fit(data, TrainConfig(lambda1=0.5, step_policy=policy))
        assert (trace.status, trace.stop_reason) == ("converged", "step_underflow")
        assert len(trace.records) == 1

    def test_one_kernel_per_loss_evaluation(self, monkeypatch):
        import confmetric.objective as objective

        calls = []

        def counting_kernel_matrix(*args, **kwargs):
            calls.append(1)
            return kernel_matrix(*args, **kwargs)

        monkeypatch.setattr(objective, "kernel_matrix", counting_kernel_matrix)
        data = small_dataset(seed=14)
        for lambda2 in (0.0, 1.0):
            calls.clear()
            cfg = TrainConfig(lambda1=0.1, lambda2=lambda2, max_iters=12,
                              rel_tol=1e-15, step_policy=FixedStep(eta=0.05))
            _, trace = fit(data, cfg)
            iterations = len(trace.records) - 1
            assert iterations == 12
            assert len(calls) == iterations + 1

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
        # the kernel, kernel_matrix's scratch buffer and the ranking pairs;
        # an n x n weight matrix stored for the whole fit would exceed it
        assert peak <= 3.0 * 8 * n * n
        (objective,) = built
        assert all(np.size(v) < n * n for v in vars(objective).values())

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
        with pytest.raises(ValidationError):
            TrainConfig(pair_cap=0)
        for bad in ({"lambda1": float("nan")}, {"lambda2": float("inf")},
                    {"lambda2": -1.0}, {"rel_tol": float("nan")},
                    {"rel_tol": float("inf")}):
            with pytest.raises(ValidationError, match="finite"):
                TrainConfig(**bad)

    def test_backtracking_defaults(self):
        policy = BacktrackingStep()
        assert (policy.eta0, policy.shrink, policy.growth) == (1.0, 0.5, 1.1)

    def test_pair_cap_changes_nothing_when_above_count(self):
        data = small_dataset(seed=13, n=20)
        base = TrainConfig(lambda1=0.2, lambda2=1.0, max_iters=15, seed=4)
        capped = TrainConfig(
            lambda1=0.2, lambda2=1.0, max_iters=15, seed=4, pair_cap=10**6
        )
        L1, _ = fit(data, base)
        L2, _ = fit(data, capped)
        assert np.array_equal(L1, L2)
