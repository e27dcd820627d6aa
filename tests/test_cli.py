import csv
import functools
import json

import numpy as np
import pytest

from confmetric import ExperimentConfig, SynthConfig, ValidationError, run_experiment
from confmetric.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_data(tmp_path, capsys, name="data.csv", n=60, noise=0.05, seed=0):
    path = tmp_path / name
    code, out, _ = run(
        capsys,
        "synth", "--n", str(n), "--m", "5", "--m-informative", "2",
        "--separation", "3.0", "--noise", str(noise), "--seed", str(seed),
        "--out", str(path),
    )
    assert code == 0
    assert json.loads(out)["n"] == n
    return path


class TestSynth:
    def test_writes_valid_csv(self, tmp_path, capsys):
        path = make_data(tmp_path, capsys)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert set(rows[0]) == {"f0", "f1", "f2", "f3", "f4", "label", "confidence"}

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"n": 20, "m": 3, "m_informative": 1, "seed": 2}))
        out_path = tmp_path / "d.csv"
        code, out, _ = run(capsys, "synth", "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        assert json.loads(out) == {"data": str(out_path), "n": 20, "m": 3}


class TestTrainPredictEvaluate:
    def test_full_pipeline(self, tmp_path, capsys):
        data = make_data(tmp_path, capsys)
        test = make_data(tmp_path, capsys, name="test.csv", seed=1)
        model = tmp_path / "model.json"
        trace = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys,
            "train", "--data", str(data), "--confidence", "confidence",
            "--lambda1", "0.5", "--lambda2", "1.0", "--seed", "3",
            "--out", str(model), "--trace", str(trace),
        )
        assert code == 0
        info = json.loads(out)
        assert info["status"] in ("converged", "max_iters")
        assert info["stop_reason"] in ("rel_tol", "step_underflow", "max_iters")
        assert 0.0 <= info["sparsity"] <= 1.0
        with open(trace) as fh:
            trows = list(csv.DictReader(fh))
        assert len(trows) == info["iterations"] + 1
        totals = [float(r["total"]) for r in trows]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

        preds = tmp_path / "preds.csv"
        code, out, _ = run(
            capsys,
            "predict", "--model", str(model), "--data", str(test),
            "--confidence", "confidence", "--out", str(preds),
        )
        assert code == 0
        assert json.loads(out)["n"] == 60
        with open(preds) as fh:
            prows = list(csv.DictReader(fh))
        for row in prows:
            c = float(row["confidence"])
            assert 0.0 <= c <= 1.0
            assert row["label"] == ("1" if c > 0.5 else "0")

        code, out, _ = run(
            capsys, "evaluate", "--pred", str(preds), "--data", str(test),
            "--confidence", "confidence",
        )
        assert code == 0
        result = json.loads(out)
        assert result["n"] == 60
        assert result["auroc"] > 0.8

    def test_train_without_confidence_column(self, tmp_path, capsys):
        data = make_data(tmp_path, capsys)
        model = tmp_path / "m.json"
        code, out, _ = run(
            capsys,
            "train", "--data", str(data), "--features", "f0,f1,f2,f3,f4",
            "--lambda1", "0.2", "--out", str(model),
            "--trace", str(tmp_path / "t.csv"),
        )
        assert code == 0

    def test_lambda2_without_confidences_fails_cleanly(self, tmp_path, capsys):
        data = make_data(tmp_path, capsys)
        code, out, err = run(
            capsys,
            "train", "--data", str(data), "--features", "f0,f1,f2,f3,f4",
            "--lambda2", "1.0", "--out", str(tmp_path / "m.json"),
            "--trace", str(tmp_path / "t.csv"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "missing-supervision"

    def test_schema_mismatch_on_predict(self, tmp_path, capsys):
        data = make_data(tmp_path, capsys)
        model = tmp_path / "m.json"
        run(
            capsys, "train", "--data", str(data), "--confidence", "confidence",
            "--lambda1", "0.2", "--out", str(model), "--trace", str(tmp_path / "t.csv"),
        )
        other = tmp_path / "other.csv"
        other.write_text("g0,g1,label\n1.0,2.0,1\n0.0,1.0,0\n")
        code, _, err = run(
            capsys, "predict", "--model", str(model), "--data", str(other),
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "schema-mismatch"

    def test_predict_honours_features(self, tmp_path, capsys):
        data = make_data(tmp_path, capsys)
        model = tmp_path / "m.json"
        code, _, _ = run(
            capsys, "train", "--data", str(data), "--features", "f0,f1",
            "--max-iters", "5", "--out", str(model), "--trace", str(tmp_path / "t.csv"),
        )
        assert code == 0
        preds = tmp_path / "p.csv"
        code, out, err = run(
            capsys, "predict", "--model", str(model), "--data", str(data),
            "--features", "f0,f1", "--out", str(preds),
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == 60
        code, out, _ = run(
            capsys, "evaluate", "--pred", str(preds), "--data", str(data),
            "--features", "f0,f1", "--confidence", "confidence",
        )
        assert code == 0
        assert json.loads(out)["auroc"] > 0.8

    def test_missing_file_reports_io_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "m.json"), "--trace", str(tmp_path / "t.csv"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "io"


def trained_model(tmp_path, capsys):
    data = make_data(tmp_path, capsys)
    model = tmp_path / "m.json"
    code, _, _ = run(
        capsys, "train", "--data", str(data), "--confidence", "confidence",
        "--max-iters", "3", "--out", str(model), "--trace", str(tmp_path / "t.csv"),
    )
    assert code == 0
    return data, model


def edit_json(path, **changes):
    raw = json.loads(path.read_text())
    raw.update(changes)
    path.write_text(json.dumps(raw))


def probe_non_finite_feature(text, tmp_path, capsys):
    data, model = trained_model(tmp_path, capsys)
    header, first, *rest = data.read_text().splitlines()
    first = ",".join([text] + first.split(",")[1:])
    data.write_text("\n".join([header, first, *rest]) + "\n")
    return ["predict", "--model", str(model), "--data", str(data),
            "--confidence", "confidence", "--out", str(tmp_path / "out.csv")]


def probe_model_edit(tmp_path, capsys, **changes):
    data, model = trained_model(tmp_path, capsys)
    raw = json.loads(model.read_text())
    edit_json(model, **{k: v(raw) for k, v in changes.items()})
    return ["predict", "--model", str(model), "--data", str(data),
            "--confidence", "confidence", "--out", str(tmp_path / "out.csv")]


def probe_bad_confidence(tmp_path, capsys):
    data = make_data(tmp_path, capsys)
    preds = tmp_path / "p.csv"
    rows = ["id,confidence,label"] + [f"{i},0.5,0" for i in range(60)]
    rows[5] = "4,abc,0"
    preds.write_text("\n".join(rows) + "\n")
    return ["evaluate", "--pred", str(preds), "--data", str(data),
            "--confidence", "confidence"]


def probe_synth_config(raw, tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(raw))
    return ["synth", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]


def probe_experiment(drop, tmp_path, capsys, **overrides):
    cfg = experiment_config(tmp_path, **overrides)
    raw = json.loads(cfg.read_text())
    for key in drop:
        del raw[key]
    cfg.write_text(json.dumps(raw))
    return ["experiment", "--config", str(cfg), "--out", str(tmp_path / "out.csv"),
            "--summary", str(tmp_path / "summary.csv")]


MALFORMED_INPUTS = {
    "nan-feature": (functools.partial(probe_non_finite_feature, "nan"), "validation"),
    "inf-feature": (functools.partial(probe_non_finite_feature, "inf"), "validation"),
    "single-class-model": (
        functools.partial(probe_model_edit, train_y=lambda m: [1] * len(m["train_y"])),
        "degenerate-class",
    ),
    "ragged-matrix": (
        functools.partial(probe_model_edit, matrix=lambda m: [m["matrix"][0], [1.0]]),
        "validation",
    ),
    "short-train-y": (
        functools.partial(probe_model_edit, train_y=lambda m: m["train_y"][1:]),
        "validation",
    ),
    "non-numeric-confidence": (probe_bad_confidence, "validation"),
    "unknown-synth-key": (
        functools.partial(probe_synth_config, {"n": 20, "m": 3, "m_informative": 1,
                                               "bogus": 1}),
        "validation",
    ),
    "synth-config-not-object": (
        functools.partial(probe_synth_config, [20, 3, 1]), "validation",
    ),
    "experiment-without-trials": (
        functools.partial(probe_experiment, ["trials"]), "validation",
    ),
    "experiment-unknown-key": (
        functools.partial(probe_experiment, [], max_iter=3), "validation",
    ),
    "experiment-nan-lambda": (
        functools.partial(probe_experiment, [],
                          hyper_grid={"lambda1": [float("nan")], "lambda2": [0.0]}),
        "validation",
    ),
}


@pytest.mark.parametrize("probe, error", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_input_is_one_json_error(tmp_path, capsys, probe, error):
    argv = probe(tmp_path, capsys)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert not (tmp_path / "out.csv").exists()


class TestInspect:
    def test_outputs(self, tmp_path, capsys):
        data = make_data(tmp_path, capsys)
        model = tmp_path / "m.json"
        run(
            capsys, "train", "--data", str(data), "--confidence", "confidence",
            "--lambda1", "1.0", "--out", str(model), "--trace", str(tmp_path / "t.csv"),
        )
        heat = tmp_path / "heat.csv"
        stats = tmp_path / "stats.csv"
        code, out, _ = run(
            capsys, "inspect", "--model", str(model),
            "--heatmap", str(heat), "--stats", str(stats),
        )
        assert code == 0
        info = json.loads(out)
        assert 0.0 <= info["sparsity"] <= 1.0
        assert info["row_rank"] >= 0
        with open(heat) as fh:
            hrows = [[float(v) for v in row] for row in csv.reader(fh)]
        assert len(hrows) == 5 and len(hrows[0]) == 5
        flat = [v for row in hrows for v in row]
        assert max(flat) <= 1.0 and min(flat) >= 0.0
        with open(stats) as fh:
            srows = list(csv.DictReader(fh))
        maxes = [float(r["max_abs_weight"]) for r in srows]
        assert maxes == sorted(maxes, reverse=True)
        assert {r["feature"] for r in srows} == {"f0", "f1", "f2", "f3", "f4"}


def experiment_config(tmp_path, **overrides):
    raw = {
        "trials": 2,
        "train_sizes": [15, 30],
        "hyper_grid": {"lambda1": [0.5], "lambda2": [0.0, 1.0]},
        "methods": ["camel", "camel_cl"],
        "seed": 1,
        "max_iters": 40,
        "data": {
            "synth": {
                "n": 120,
                "m": 5,
                "m_informative": 2,
                "cluster_separation": 3.0,
                "confidence_noise": 0.05,
                "seed": 1,
            }
        },
    }
    raw.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw))
    return path


class TestExperiment:
    def test_record_cardinality_and_summary(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path)
        results = tmp_path / "results.csv"
        summary = tmp_path / "summary.csv"
        code, out, _ = run(
            capsys, "experiment", "--config", str(cfg),
            "--out", str(results), "--summary", str(summary),
        )
        assert code == 0
        info = json.loads(out)
        assert info["records"] == 2 * 2 * 2  # trials x sizes x methods
        assert info["errors"] == 0
        with open(results) as fh:
            rrows = list(csv.DictReader(fh))
        assert len(rrows) == 8
        for row in rrows:
            assert row["method"] in ("camel", "camel_cl")
            assert 0.0 <= float(row["test_auroc"]) <= 1.0
        with open(summary) as fh:
            srows = list(csv.DictReader(fh))
        assert len(srows) == 4  # sizes x methods
        assert all(r["n_ok"] == "2" for r in srows)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path)
        paths = []
        for tag in ("a", "b"):
            results = tmp_path / f"results_{tag}.csv"
            summary = tmp_path / f"summary_{tag}.csv"
            code, _, _ = run(
                capsys, "experiment", "--config", str(cfg),
                "--out", str(results), "--summary", str(summary),
            )
            assert code == 0
            paths.append((results, summary))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_camel_cl_with_zero_grid_matches_camel(self, tmp_path):
        synth = SynthConfig(
            n=120, m=5, m_informative=2, cluster_separation=3.0,
            confidence_noise=0.05, seed=1,
        )
        cfg = ExperimentConfig(
            trials=2, train_sizes=[20], lambda1_grid=[0.5, 1.0],
            lambda2_grid=[0.0], methods=["camel", "camel_cl"],
            seed=1, synth=synth, max_iters=40,
        )
        records = run_experiment(cfg)
        by_method = {}
        for r in records:
            by_method.setdefault(r.method, []).append(r)
        for a, b in zip(by_method["camel"], by_method["camel_cl"]):
            assert a.test_auroc == b.test_auroc
            assert a.sparsity == b.sparsity
            assert a.lambda1 == b.lambda1

    @pytest.mark.parametrize("edit, match", [
        (lambda r: r.pop("train_sizes"), r"missing keys \['train_sizes'\]"),
        (lambda r: r.update(max_iter=3), r"unknown keys \['max_iter'\]"),
        (lambda r: r["hyper_grid"].update(lambda3=[1.0]), "hyper_grid has unknown"),
        (lambda r: r.update(data={"synth": {"n": 120, "m": 5}}), "data.synth is missing"),
        (lambda r: r.update(data={"csv": {"path": "x.csv"}}), "data.csv is missing"),
        (lambda r: r["data"].update(csv={"path": "x.csv", "feature_columns": ["f0"],
                                         "label_column": "label"}), "exactly one"),
        (lambda r: r.update(trials="2"), "must be integers"),
        (lambda r: r.update(train_sizes=15), "invalid experiment config"),
        (lambda r: r["hyper_grid"].update(lambda1=["big"]), "invalid experiment config"),
        (lambda r: r["hyper_grid"].update(lambda1=[-1.0]), "finite and nonnegative"),
        (lambda r: r["hyper_grid"].update(lambda2=[float("nan")]), "finite and nonnegative"),
    ], ids=["no-train-sizes", "max-iter-typo", "grid-key", "synth-keys", "csv-keys",
            "two-sources", "string-trials", "int-train-sizes", "string-lambda",
            "negative-lambda1", "nan-lambda2"])
    def test_config_dict_rejected(self, tmp_path, edit, match):
        raw = json.loads(experiment_config(tmp_path).read_text())
        edit(raw)
        with pytest.raises(ValidationError, match=match):
            ExperimentConfig.from_dict(raw)

    def test_invalid_config_rejected(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path, trials=0)
        code, _, err = run(
            capsys, "experiment", "--config", str(cfg),
            "--out", str(tmp_path / "r.csv"), "--summary", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "validation"
