import numpy as np
import pytest

from confmetric import (
    Dataset,
    DatasetSchema,
    SynthConfig,
    ValidationError,
    auroc,
    load_csv,
    save_csv,
    split,
    synth_generate,
)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            DatasetSchema(["a", "a"], "label")
        with pytest.raises(ValidationError):
            DatasetSchema(["a"], "a")

    def test_empty_features_rejected(self):
        with pytest.raises(ValidationError):
            DatasetSchema([], "label")


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def test_basic_load(self, tmp_path):
        p = self.write(tmp_path, "f0,f1,label,confidence\n1.0,2.0,1,0.9\n-1.0,0.5,0,0.7\n")
        schema = DatasetSchema(["f0", "f1"], "label", "confidence")
        data, ids = load_csv(p, schema)
        assert ids is None
        assert data.X.tolist() == [[1.0, 2.0], [-1.0, 0.5]]
        assert data.y.tolist() == [1, 0]
        assert data.c.tolist() == [0.9, 0.7]

    def test_id_column_returned_in_order(self, tmp_path):
        p = self.write(tmp_path, "id,f0,label\nrow-b,1.0,1\nrow-a,2.0,0\n")
        schema = DatasetSchema(["f0"], "label", id_column="id")
        _, ids = load_csv(p, schema)
        assert ids == ["row-b", "row-a"]

    def test_missing_header_column(self, tmp_path):
        p = self.write(tmp_path, "f0,label\n1.0,1\n")
        with pytest.raises(ValidationError, match="f1"):
            load_csv(p, DatasetSchema(["f0", "f1"], "label"))

    def test_bad_feature_names_row_and_column(self, tmp_path):
        p = self.write(tmp_path, "f0,label\n1.0,1\nxyz,0\n")
        with pytest.raises(ValidationError, match=r"row 3.*'f0'.*'xyz'"):
            load_csv(p, DatasetSchema(["f0"], "label"))

    def test_non_finite_feature_rejected(self, tmp_path):
        p = self.write(tmp_path, "f0,label\nnan,1\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_csv(p, DatasetSchema(["f0"], "label"))

    def test_bad_label(self, tmp_path):
        p = self.write(tmp_path, "f0,label\n1.0,2\n")
        with pytest.raises(ValidationError, match="label must be 0 or 1"):
            load_csv(p, DatasetSchema(["f0"], "label"))

    def test_confidence_out_of_range(self, tmp_path):
        p = self.write(tmp_path, "f0,label,confidence\n1.0,1,1.5\n")
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            load_csv(p, DatasetSchema(["f0"], "label", "confidence"))

    def test_all_empty_confidences_means_absent(self, tmp_path):
        p = self.write(tmp_path, "f0,label,confidence\n1.0,1,\n2.0,0,\n")
        data, _ = load_csv(p, DatasetSchema(["f0"], "label", "confidence"))
        assert data.c is None

    def test_partial_confidences_rejected(self, tmp_path):
        p = self.write(tmp_path, "f0,label,confidence\n1.0,1,0.8\n2.0,0,\n")
        with pytest.raises(ValidationError, match="partially populated"):
            load_csv(p, DatasetSchema(["f0"], "label", "confidence"))

    def test_empty_file_rejected(self, tmp_path):
        p = self.write(tmp_path, "f0,label\n")
        with pytest.raises(ValidationError, match="no data rows"):
            load_csv(p, DatasetSchema(["f0"], "label"))


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(20, 4)), rng.integers(0, 2, 20), rng.uniform(size=20))
        p = tmp_path / "rt.csv"
        schema = save_csv(p, data)
        back, _ = load_csv(p, schema)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)
        assert np.array_equal(back.c, data.c)

    def test_save_without_confidences(self, tmp_path):
        data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), [0, 1, 0, 1])
        p = tmp_path / "nc.csv"
        schema = save_csv(p, data)
        assert schema.confidence_column is None
        back, _ = load_csv(p, schema)
        assert back.c is None


class TestSynthGenerate:
    def test_shapes_and_balance(self):
        cfg = SynthConfig(n=101, m=6, m_informative=2, class_balance=0.4, seed=0)
        data, post = synth_generate(cfg)
        assert data.X.shape == (101, 6)
        assert post.shape == (101,)
        assert data.class_counts() == (61, 40)

    def test_deterministic(self):
        cfg = SynthConfig(n=50, m=4, m_informative=2, seed=9)
        a, pa = synth_generate(cfg)
        b, pb = synth_generate(cfg)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(pa, pb)

    def test_zero_separation_posterior_is_prior(self):
        cfg = SynthConfig(n=30, m=3, m_informative=1, cluster_separation=0.0, seed=1)
        _, post = synth_generate(cfg)
        assert np.all(post == 0.5)

    def test_noise_free_confidence_is_own_label_posterior(self):
        cfg = SynthConfig(n=40, m=4, m_informative=2, confidence_noise=0.0, seed=2)
        data, post = synth_generate(cfg)
        expected = np.where(data.y == 1, post, 1.0 - post)
        assert np.array_equal(data.c, expected)

    def test_confidences_clipped_to_unit_interval(self):
        cfg = SynthConfig(n=200, m=2, m_informative=1, confidence_noise=0.5, seed=3)
        data, _ = synth_generate(cfg)
        assert data.c.min() >= 0.0 and data.c.max() <= 1.0

    def test_posterior_separates_classes_when_far_apart(self):
        cfg = SynthConfig(n=400, m=8, m_informative=3, cluster_separation=6.0, seed=4)
        data, post = synth_generate(cfg)
        assert auroc(post, data.y) >= 0.99

    def test_posterior_is_calibrated(self):
        # among points with posterior near p, about fraction p are positive
        cfg = SynthConfig(n=10_000, m=3, m_informative=1, cluster_separation=2.0, seed=5)
        data, post = synth_generate(cfg)
        for lo in (0.2, 0.4, 0.6):
            mask = (post >= lo) & (post < lo + 0.2)
            if mask.sum() < 200:
                continue
            frac = data.y[mask].mean()
            assert abs(frac - post[mask].mean()) < 0.05

    def test_uninformative_columns_have_matching_class_means(self):
        cfg = SynthConfig(n=5000, m=5, m_informative=2, cluster_separation=5.0, seed=6)
        data, _ = synth_generate(cfg)
        gap = data.X[data.y == 1].mean(axis=0) - data.X[data.y == 0].mean(axis=0)
        assert np.all(np.abs(gap[:2]) > 1.0)
        assert np.all(np.abs(gap[2:]) < 0.2)

    def test_bad_configs(self):
        with pytest.raises(ValidationError):
            SynthConfig(n=10, m=2, m_informative=3)
        with pytest.raises(ValidationError):
            SynthConfig(n=10, m=2, m_informative=1, class_balance=1.0)
        with pytest.raises(ValidationError):
            synth_generate(SynthConfig(n=10, m=2, m_informative=1, class_balance=0.05))

    def test_from_dict(self):
        raw = {"n": 20, "m": 3, "m_informative": 1, "seed": 2}
        assert SynthConfig.from_dict(raw) == SynthConfig(n=20, m=3, m_informative=1, seed=2)

    @pytest.mark.parametrize("raw, match", [
        ([20, 3, 1], "must be a JSON object"),
        ({"n": 20, "m": 3}, r"missing keys \['m_informative'\]"),
        ({"n": 20, "m": 3, "m_informative": 1, "noise": 0.1}, r"unknown keys \['noise'\]"),
        ({"n": "20", "m": 3, "m_informative": 1}, "must be integers"),
        ({"n": 20.5, "m": 3, "m_informative": 1}, "must be integers"),
        ({"n": 20, "m": 3, "m_informative": 1, "class_balance": "x"}, "invalid synth"),
    ])
    def test_from_dict_rejects(self, raw, match):
        with pytest.raises(ValidationError, match=match):
            SynthConfig.from_dict(raw)


class TestSplit:
    def make(self, n=10):
        y = np.arange(n) % 2
        return Dataset(np.arange(n, dtype=float).reshape(-1, 1), y)

    def test_sizes_even_remainder(self):
        tr, va, te = split(self.make(10), 4, seed=0)
        assert (tr.n, va.n, te.n) == (4, 3, 3)

    def test_sizes_odd_remainder(self):
        tr, va, te = split(self.make(11), 4, seed=0)
        assert (tr.n, va.n, te.n) == (4, 4, 3)

    def test_partition_is_disjoint_and_exhaustive(self):
        for seed in range(100):
            data = self.make(20)
            tr, va, te = split(data, 8, seed=seed)
            seen = np.concatenate([tr.X[:, 0], va.X[:, 0], te.X[:, 0]])
            assert sorted(seen.tolist()) == data.X[:, 0].tolist()

    def test_deterministic(self):
        data = self.make(16)
        a = split(data, 6, seed=3)
        b = split(data, 6, seed=3)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.X, pb.X)

    def test_train_prefix_nesting(self):
        # the first k train rows are the same regardless of train_n
        data = self.make(30)
        tr_small, _, _ = split(data, 5, seed=7)
        tr_big, _, _ = split(data, 12, seed=7)
        assert np.array_equal(tr_big.X[:5], tr_small.X)

    def test_invalid_train_n(self):
        with pytest.raises(ValidationError):
            split(self.make(10), 9, seed=0)
        with pytest.raises(ValidationError):
            split(self.make(10), 0, seed=0)

    def test_confidences_travel_with_rows(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(12, 2)), [0, 1] * 6, rng.uniform(size=12))
        tr, va, te = split(data, 5, seed=1)
        lookup = {tuple(x): c for x, c in zip(data.X, data.c)}
        for part in (tr, va, te):
            for x, c in zip(part.X, part.c):
                assert lookup[tuple(x)] == c
