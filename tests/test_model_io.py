import json

import numpy as np
import pytest

from confmetric import (
    ModelFile,
    SchemaMismatchError,
    ValidationError,
    load_model,
    save_model,
    schema_fingerprint,
)


def sample_model(rng):
    return ModelFile.create(
        matrix=rng.normal(size=(3, 4)),
        feature_columns=["a", "b", "c", "d"],
        train_config={"lambda1": 0.5, "lambda2": 0.0, "seed": 1},
        train_X=rng.normal(size=(6, 4)),
        train_y=rng.integers(0, 2, size=6),
    )


class TestFingerprint:
    def test_order_sensitive(self):
        assert schema_fingerprint(["a", "b"]) != schema_fingerprint(["b", "a"])

    def test_deterministic(self):
        assert schema_fingerprint(["x", "y"]) == schema_fingerprint(["x", "y"])

    def test_check_compatible(self):
        model = sample_model(np.random.default_rng(0))
        model.check_compatible(["a", "b", "c", "d"])
        with pytest.raises(SchemaMismatchError):
            model.check_compatible(["a", "b", "c"])


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = sample_model(np.random.default_rng(1))
        path = tmp_path / "m.json"
        save_model(path, model)
        back = load_model(path)
        assert np.array_equal(back.matrix, model.matrix)
        assert np.array_equal(back.train_X, model.train_X)
        assert np.array_equal(back.train_y, model.train_y)
        assert back.feature_columns == model.feature_columns
        assert back.train_config == model.train_config
        assert back.fingerprint == model.fingerprint

    def test_without_training_instances(self, tmp_path):
        model = ModelFile.create(np.eye(2), ["a", "b"], {"lambda1": 0.0})
        path = tmp_path / "m.json"
        save_model(path, model)
        back = load_model(path)
        assert back.train_X is None and back.train_y is None


class TestCorruptFiles:
    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError, match="corrupt"):
            load_model(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format_version": 1, "matrix": [[1.0]]}))
        with pytest.raises(ValidationError, match="corrupt"):
            load_model(p)

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValidationError, match="version"):
            load_model(p)

    @pytest.mark.parametrize("edit, match", [
        (lambda p: p.update(matrix=[[1.0, 2.0, 3.0, 4.0], [1.0]]), "inhomogeneous"),
        (lambda p: p.update(matrix=[[1.0, 2.0, 3.0]]), r"matrix has shape \(1, 3\)"),
        (lambda p: p.update(fingerprint="0" * 16), "fingerprint"),
        (lambda p: p.update(feature_columns=["a", "b", "c", "e"]), "fingerprint"),
        (lambda p: p.update(train_X=[[0.0] * 3] * 6), r"train_X has shape \(6, 3\)"),
        (lambda p: p.update(train_y=[0, 1]), "6 integer labels"),
        (lambda p: p.update(train_y=[0.5] * 6), "6 integer labels"),
        (lambda p: p.pop("train_y"), "come together"),
    ], ids=["ragged", "columns", "fingerprint", "renamed", "train-X", "train-y-length",
            "train-y-float", "train-y-missing"])
    def test_shape_and_fingerprint_checks(self, tmp_path, edit, match):
        path = tmp_path / "m.json"
        save_model(path, sample_model(np.random.default_rng(2)))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=match):
            load_model(path)

    def test_not_an_object(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValidationError, match="not a JSON object"):
            load_model(p)
