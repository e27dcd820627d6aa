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
    return ModelFile(
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

    def test_file_is_what_json_dump_writes(self, tmp_path):
        # the C encoder writes the bytes the pure-Python one wrote, floats by repr
        model = sample_model(np.random.default_rng(3))
        path = tmp_path / "m.json"
        save_model(path, model)
        payload = {
            "format_version": 1,
            "fingerprint": model.fingerprint,
            "feature_columns": model.feature_columns,
            "train_config": model.train_config,
            "matrix": [[float(v) for v in row] for row in model.matrix],
            "train_X": [[float(v) for v in row] for row in model.train_X],
            "train_y": [int(v) for v in model.train_y],
        }
        with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


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
        (lambda p: p.pop("train_y"), "missing field 'train_y'"),
        (lambda p: p.pop("train_X"), "missing field 'train_X'"),
        (lambda p: p["matrix"][1].__setitem__(2, float("inf")),
         "^corrupt model file: matrix has non-finite entries$"),
        (lambda p: p["matrix"][0].__setitem__(0, float("nan")), "matrix has non-finite"),
        (lambda p: p["train_X"][3].__setitem__(1, float("-inf")),
         "^corrupt model file: training rows: features contain non-finite values$"),
        (lambda p: p.update(train_y=[0, 1, 2, 1, 0, 1]),
         "^corrupt model file: training rows: labels must be 0 or 1$"),
    ], ids=["ragged", "columns", "fingerprint", "renamed", "train-X", "train-y-length",
            "train-y-float", "train-y-missing", "train-X-missing", "matrix-inf",
            "matrix-nan", "train-X-inf", "train-y-two"])
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
