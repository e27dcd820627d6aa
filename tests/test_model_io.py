import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetric import data_io
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

    @given(columns=st.lists(st.text()))
    def test_is_sha256_of_the_joined_columns(self, columns):
        # any text, non-ASCII and embedded newlines included
        digest = hashlib.sha256("\n".join(columns).encode("utf-8")).hexdigest()
        assert schema_fingerprint(columns) == digest[:16]

    def test_pinned_digest(self):
        # the fingerprint in model files written by every earlier version
        columns = [f"f{i}" for i in range(20)]
        assert schema_fingerprint(columns) == "b7e597e2cc3bd331"

    def test_check_compatible(self):
        model = sample_model(np.random.default_rng(0))
        model.check_compatible(["a", "b", "c", "d"])
        with pytest.raises(SchemaMismatchError):
            model.check_compatible(["a", "b", "c"])


# the extremes of float64 beside ordinary finite values
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def models(draw):
    """A ModelFile that load_model accepts, of a few rows and columns."""
    n, m, k = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def matrix(rows):
        return np.reshape(draw(st.lists(FLOATS, min_size=rows * m, max_size=rows * m)),
                          (rows, m))

    return ModelFile(
        matrix=matrix(k),
        feature_columns=draw(st.lists(st.text(), min_size=m, max_size=m)),
        train_config=draw(st.dictionaries(st.text(), FLOATS | st.none()
                                          | st.integers(-2**63, 2**63), max_size=3)),
        train_X=matrix(n),
        train_y=np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))),
    )


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

    @settings(max_examples=200, deadline=None)
    @given(model=models(), block=st.integers(1, 3))
    def test_file_is_what_json_dump_writes(self, tmp_path_factory, model, block):
        # the C encoder's bytes, floats by repr, though the arrays are written
        # in blocks, here of 1 to 3 rows, so that most arrays span several
        path = tmp_path_factory.getbasetemp() / "streamed.json"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_io, "_WRITE_ROWS", block)
            save_model(path, model)
        payload = {
            "format_version": 1,
            "fingerprint": model.fingerprint,
            "feature_columns": model.feature_columns,
            "train_config": model.train_config,
            "matrix": model.matrix.tolist(),
            "train_X": model.train_X.tolist(),
            "train_y": model.train_y.tolist(),
        }
        assert path.read_bytes() == (json.dumps(payload) + "\n").encode("utf-8")

    @pytest.mark.parametrize("n", [2_000, 20_000])
    def test_write_holds_one_block(self, tmp_path, n):
        # the traced peak stays flat while train_X grows from 0.3 to 3.2 MB
        rng = np.random.default_rng(0)
        model = ModelFile(rng.normal(size=(20, 20)), [f"f{j}" for j in range(20)], {},
                          train_X=rng.normal(size=(n, 20)), train_y=np.arange(n) % 2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_model(tmp_path / "m.json", model)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20

    @pytest.mark.parametrize("field, index, value, match", [
        ("matrix", (1, 2), np.nan, "matrix has non-finite entries"),
        ("train_X", (3, 1), np.inf, "training rows: features contain non-finite values"),
        ("train_y", 2, 2, "training rows: labels must be 0 or 1"),
        ("train_y", 2, 0.5, "train_y must hold 6 integer labels"),
    ], ids=["nan-matrix", "inf-train-X", "label-two", "float-label"])
    def test_a_model_load_model_rejects_is_not_written(self, tmp_path, field, index, value,
                                                       match):
        model = sample_model(np.random.default_rng(4))
        array = getattr(model, field).astype(type(value))
        array[index] = value
        model = dataclasses.replace(model, **{field: array})
        path = tmp_path / "m.json"
        path.write_text("an earlier model\n")
        with pytest.raises(ValidationError, match=f"^model not saved: {match}$"):
            save_model(path, model)
        assert path.read_text() == "an earlier model\n"


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
