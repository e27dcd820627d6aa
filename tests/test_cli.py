import csv
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import confmetric
from confmetric import (
    ExperimentConfig,
    ModelFile,
    ResultRecord,
    SynthConfig,
    TrainConfig,
    ValidationError,
    run_experiment,
    save_csv,
    save_model,
    summarize,
    synth_generate,
    write_summary_csv,
)
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
        assert list(trows[0])[-1] == "loss_evals"
        evals = [int(r["loss_evals"]) for r in trows]
        assert evals[0] == 1 and all(e >= 1 for e in evals)

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

    def test_train_config_records_every_field(self, tmp_path, capsys):
        # a non-default value for every train flag must reach the model file,
        # and every TrainConfig field must have a flag
        data = make_data(tmp_path, capsys)
        model = tmp_path / "m.json"
        code, _, _ = run(
            capsys, "train", "--data", str(data), "--confidence", "confidence",
            "--lambda1", "0.25", "--lambda2", "0.5", "--proj-dim", "3",
            "--max-iters", "4", "--rel-tol", "0.001", "--seed", "9",
            "--out", str(model), "--trace", str(tmp_path / "t.csv"),
        )
        assert code == 0
        expected = TrainConfig(lambda1=0.25, lambda2=0.5, proj_dim=3, max_iters=4,
                               rel_tol=0.001, seed=9)
        recorded = json.loads(model.read_text())["train_config"]
        assert recorded == dataclasses.asdict(expected)
        assert list(recorded) == [f.name for f in dataclasses.fields(TrainConfig)]
        for f in dataclasses.fields(TrainConfig):
            assert recorded[f.name] != f.default

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

    def test_evaluate_reads_only_the_label_column(self, tmp_path, capsys):
        data = make_data(tmp_path, capsys)
        preds = tmp_path / "p.csv"
        preds.write_text("id,confidence,label\n"
                         + "".join(f"{i},{i / 60},0\n" for i in range(60)))
        header, first, *rest = data.read_text().splitlines()
        data.write_text("\n".join([header, "junk" + first[first.index(","):], *rest])
                        + "\n")
        code, out, err = run(capsys, "evaluate", "--pred", str(preds), "--data", str(data),
                             "--confidence", "confidence")
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == 60
        labels = header.split(",").index("label")
        cells = rest[0].split(",")
        cells[labels] = "2"
        data.write_text("\n".join([header, first, ",".join(cells), *rest[1:]]) + "\n")
        code, out, err = run(capsys, "evaluate", "--pred", str(preds), "--data", str(data),
                             "--confidence", "confidence")
        assert (code, out) == (1, "")
        assert json.loads(err)["message"] == (
            "row 3, column 'label': label must be 0 or 1, got '2'")

    def test_predict_scores_far_rows(self, tmp_path, capsys):
        # a row far from every reference row underflows both class sums; its
        # nearest reference row, a positive, alone decides its score
        _, model = trained_model(tmp_path, capsys)
        data = tmp_path / "far.csv"
        data.write_text("f0,f1,f2,f3,f4\n"
                        "0.1,0.2,0.0,0.0,0.0\n"
                        "1e6,0.2,0.0,0.0,0.0\n"
                        "-0.3,0.1,0.0,0.0,0.0\n"
                        "0.0,-0.4,0.0,0.0,0.0\n")
        preds = tmp_path / "p.csv"
        code, out, err = run(
            capsys, "predict", "--model", str(model), "--data", str(data),
            "--out", str(preds),
        )
        assert (code, err) == (0, "")
        assert json.loads(out) == {"predictions": str(preds), "n": 4, "threshold": 0.5}
        with open(preds) as fh:
            assert [r["confidence"] for r in csv.DictReader(fh)][1] == "1.0"

    @pytest.mark.parametrize("threshold, label", [("0.5", "0"), ("0.4", "1")],
                             ids=["equal-is-negative", "above-is-positive"])
    def test_threshold_is_strict(self, tmp_path, capsys, threshold, label):
        # the midpoint of a symmetric two-point training set scores exactly 0.5
        model = tmp_path / "m.json"
        save_model(model, ModelFile(np.eye(1), ["f0"], {}, train_X=[[1.0], [-1.0]],
                                    train_y=[1, 0]))
        data = tmp_path / "q.csv"
        data.write_text("f0\n0.0\n")
        preds = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--model", str(model), "--data", str(data),
                           "--threshold", threshold, "--out", str(preds))
        assert (code, err) == (0, "")
        with open(preds) as fh:
            assert [(r["confidence"], r["label"]) for r in csv.DictReader(fh)] == [
                ("0.5", label)]

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


def probe_model_edit(tmp_path, capsys, command="predict", **changes):
    data, model = trained_model(tmp_path, capsys)
    raw = json.loads(model.read_text())
    edit_json(model, **{k: v(raw) for k, v in changes.items()})
    if command == "inspect":
        return ["inspect", "--model", str(model), "--heatmap", str(tmp_path / "out.csv"),
                "--stats", str(tmp_path / "stats.csv")]
    return ["predict", "--model", str(model), "--data", str(data),
            "--confidence", "confidence", "--out", str(tmp_path / "out.csv")]


def with_first_entry(key, value):
    """An edit that sets the first entry of the model file's 2-D array key to value."""
    return lambda m: [[value, *m[key][0][1:]], *m[key][1:]]


def with_diagonal(key, value):
    """An edit that sets every diagonal entry of the model file's 2-D array key."""
    return lambda m: [[value if i == j else v for j, v in enumerate(row)]
                      for i, row in enumerate(m[key])]


def probe_model_without_rows(tmp_path, capsys):
    data, model = trained_model(tmp_path, capsys)
    raw = json.loads(model.read_text())
    del raw["train_X"], raw["train_y"]
    model.write_text(json.dumps(raw))
    return ["predict", "--model", str(model), "--data", str(data),
            "--confidence", "confidence", "--out", str(tmp_path / "out.csv")]


def probe_header_only(tmp_path, capsys):
    data, model = trained_model(tmp_path, capsys)
    data.write_text(data.read_text().splitlines()[0] + "\n")
    return ["predict", "--model", str(model), "--data", str(data),
            "--confidence", "confidence", "--out", str(tmp_path / "out.csv")]


def probe_train_csv(text, tmp_path, capsys):
    """train, with confidences, on a data.csv file holding text."""
    data = tmp_path / "data.csv"
    data.write_text(text)
    return ["train", "--data", str(data), "--confidence", "confidence",
            "--out", str(tmp_path / "m.json"), "--trace", str(tmp_path / "out.csv")]


def probe_overflowing_feature(tmp_path, capsys):
    data = make_data(tmp_path, capsys)
    header, first, *rest = data.read_text().splitlines()
    first = ",".join(["1e200"] + first.split(",")[1:])
    data.write_text("\n".join([header, first, *rest]) + "\n")
    return ["train", "--data", str(data), "--confidence", "confidence",
            "--out", str(tmp_path / "m.json"), "--trace", str(tmp_path / "out.csv")]


def probe_short_predictions(tmp_path, capsys):
    data = make_data(tmp_path, capsys)
    preds = tmp_path / "p.csv"
    preds.write_text("id,confidence,label\n" + "".join(f"{i},0.5,0\n" for i in range(59)))
    return ["evaluate", "--pred", str(preds), "--data", str(data),
            "--confidence", "confidence"]


def probe_unknown_column(command, flag, tmp_path, capsys):
    """A schema flag naming a column the data lacks, on a command that parses
    none of that flag's cells."""
    if command == "predict":
        data, model = trained_model(tmp_path, capsys)
        return ["predict", "--model", str(model), "--data", str(data),
                flag, "nosuchcolumn", "--out", str(tmp_path / "out.csv")]
    data = make_data(tmp_path, capsys)
    preds = tmp_path / "p.csv"
    preds.write_text("id,confidence,label\n" + "".join(f"{i},0.5,0\n" for i in range(60)))
    return ["evaluate", "--pred", str(preds), "--data", str(data), flag, "nosuchcolumn"]


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


def probe_predict_threshold(text, tmp_path, capsys):
    data, model = trained_model(tmp_path, capsys)
    return ["predict", "--model", str(model), "--data", str(data),
            "--confidence", "confidence", "--threshold", text,
            "--out", str(tmp_path / "out.csv")]


def probe_train_flag(flag, text, tmp_path, capsys):
    data = make_data(tmp_path, capsys)
    return ["train", "--data", str(data), flag, text,
            "--out", str(tmp_path / "m.json"), "--trace", str(tmp_path / "out.csv")]


def probe_synth_flag(flag, text, tmp_path, capsys):
    return ["synth", "--n", "60", "--m", "3", "--m-informative", "1", flag, text,
            "--out", str(tmp_path / "out.csv")]


def probe_undecodable(target, tmp_path, capsys):
    """A command whose named input holds bytes that are not UTF-8."""
    data, model = trained_model(tmp_path, capsys)
    preds = tmp_path / "p.csv"
    preds.write_text("id,confidence,label\n" + "".join(f"{i},0.5,0\n" for i in range(60)))
    predict = ["predict", "--model", str(model), "--data", str(data),
               "--confidence", "confidence", "--out", str(tmp_path / "out.csv")]
    argv, bad = {
        "train-csv": (["train", "--data", str(data), "--confidence", "confidence",
                       "--out", str(tmp_path / "m2.json"),
                       "--trace", str(tmp_path / "out.csv")], data),
        "predict-csv": (predict, data),
        "pred-file": (["evaluate", "--pred", str(preds), "--data", str(data),
                       "--confidence", "confidence"], preds),
        "model": (predict, model),
    }[target]
    text = bad.read_bytes()
    cut = text.index(b"\n") + 1
    bad.write_bytes(text[:cut] + b"\xff\xfe" + text[cut:])
    return argv


def probe_oversized_field(where, tmp_path, capsys):
    """A CSV with one field past the csv module's 131,072-character limit.

    In the cell case a later nan sends the read to the row parser, which
    meets the long field first."""
    big = "x" * 200_000
    data = tmp_path / "big.csv"
    if where == "cell":
        data.write_text(f"f0,label,note\n0.5,0,{big}\nnan,1,a\n0.1,0,b\n0.2,1,c\n")
    else:
        data.write_text(f"f0,label,{big}\n0.5,0,a\n0.3,1,b\n0.1,0,c\n0.2,1,d\n")
    return ["train", "--data", str(data), "--features", "f0",
            "--out", str(tmp_path / "m.json"), "--trace", str(tmp_path / "out.csv")]


# 200,000 nested arrays, far past the JSON decoder's recursion limit
DEEP_JSON = "[" * 200_000
# longer than Python's 4,300-digit limit on parsing an integer
HUGE_INT = "9" * 5000


def probe_json_file(command, text, tmp_path, capsys):
    """A command whose JSON input, a config or a model file, holds text."""
    path = tmp_path / "input.json"
    path.write_text(text)
    out = str(tmp_path / "out.csv")
    if command == "predict":
        return ["predict", "--model", str(path), "--data", str(make_data(tmp_path, capsys)),
                "--out", out]
    if command == "inspect":
        return ["inspect", "--model", str(path), "--heatmap", out,
                "--stats", str(tmp_path / "stats.csv")]
    if command == "experiment":
        return ["experiment", "--config", str(path), "--out", out,
                "--summary", str(tmp_path / "summary.csv")]
    return ["synth", "--config", str(path), "--out", out]


def probe_huge_format_version(tmp_path, capsys):
    """A model file whose format_version is an integer of 5,000 digits: past the
    digit limit it does not parse, and without the limit it is not version 1."""
    data, model = trained_model(tmp_path, capsys)
    text = model.read_text()
    edited = text.replace('"format_version": 1,', f'"format_version": {HUGE_INT},', 1)
    assert edited != text
    model.write_text(edited)
    return ["predict", "--model", str(model), "--data", str(data),
            "--confidence", "confidence", "--out", str(tmp_path / "out.csv")]


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
    "inspect-inf-matrix": (
        functools.partial(probe_model_edit, command="inspect",
                          matrix=with_first_entry("matrix", math.inf)),
        "validation",
    ),
    "inspect-nan-matrix": (
        functools.partial(probe_model_edit, command="inspect",
                          matrix=with_first_entry("matrix", math.nan)),
        "validation",
    ),
    "inspect-nan-train-X": (
        functools.partial(probe_model_edit, command="inspect",
                          train_X=with_first_entry("train_X", math.nan)),
        "validation",
    ),
    "predict-inf-matrix": (
        functools.partial(probe_model_edit, matrix=with_first_entry("matrix", math.inf)),
        "validation",
    ),
    # finite, but the projections of the query and training rows overflow
    "predict-overflowing-matrix": (
        functools.partial(probe_model_edit, matrix=with_diagonal("matrix", 1e200)),
        "numerical-failure",
    ),
    "short-train-y": (
        functools.partial(probe_model_edit, train_y=lambda m: m["train_y"][1:]),
        "validation",
    ),
    "non-numeric-confidence": (probe_bad_confidence, "validation"),
    "predict-nan-threshold": (
        functools.partial(probe_predict_threshold, "nan"), "validation",
    ),
    "predict-dash-inf-threshold": (
        functools.partial(probe_predict_threshold, "-inf"), "validation",
    ),
    "train-non-integer-max-iters": (
        functools.partial(probe_train_flag, "--max-iters", "abc"), "validation",
    ),
    "unknown-subcommand": (lambda tmp_path, capsys: ["bogus"], "validation"),
    **{f"undecodable-{target}": (functools.partial(probe_undecodable, target), "validation")
       for target in ("train-csv", "predict-csv", "pred-file", "model")},
    **{f"oversized-csv-{where}": (functools.partial(probe_oversized_field, where),
                                  "validation")
       for where in ("cell", "header")},
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
    "train-negative-seed": (
        functools.partial(probe_train_flag, "--seed", "-1"), "validation",
    ),
    "synth-negative-seed": (
        functools.partial(probe_synth_flag, "--seed", "-1"), "validation",
    ),
    "synth-inf-noise": (
        functools.partial(probe_synth_flag, "--noise", "inf"), "validation",
    ),
    "experiment-negative-seed": (
        functools.partial(probe_experiment, [], seed=-1), "validation",
    ),
    "synth-overflowing-separation": (
        functools.partial(probe_synth_flag, "--separation", "1e308"), "validation",
    ),
    "train-overflowing-features": (probe_overflowing_feature, "numerical-failure"),
    # 8 PB is past the address space, so numpy refuses before allocating anything
    "synth-unallocatable-n": (
        functools.partial(probe_synth_flag, "--n", "1000000000000000"), "out-of-memory",
    ),
    "evaluate-row-count-mismatch": (probe_short_predictions, "validation"),
    **{f"{command}-unknown{flag}": (functools.partial(probe_unknown_column, command, flag),
                                    "validation")
       for command, flag in (("evaluate", "--confidence"), ("evaluate", "--features"),
                             ("evaluate", "--id-column"), ("predict", "--confidence"))},
    "predict-header-only": (probe_header_only, "validation"),
    "train-header-only": (
        functools.partial(probe_train_csv, "f0,label,confidence\n"), "validation",
    ),
    "model-without-training-rows": (probe_model_without_rows, "validation"),
    **{f"{command}-deep-nesting": (functools.partial(probe_json_file, command, DEEP_JSON),
                                   "validation")
       for command in ("experiment", "synth", "inspect", "predict")},
    # without a digit limit the value fails SynthConfig's float range instead
    "synth-config-huge-integer": (
        functools.partial(probe_json_file, "synth",
                          '{"n": 20, "m": 3, "m_informative": 1, '
                          f'"cluster_separation": {HUGE_INT}}}'),
        "validation",
    ),
    "model-huge-format-version": (probe_huge_format_version, "validation"),
    # sizes past np.intp, which numpy cannot describe, let alone allocate
    "synth-n-past-intp": (
        functools.partial(probe_synth_flag, "--n", str(10**30)), "validation",
    ),
    "synth-config-400-digit-n": (
        functools.partial(probe_json_file, "synth",
                          f'{{"n": {"9" * 400}, "m": 3, "m_informative": 1}}'),
        "validation",
    ),
    "train-proj-dim-past-intp": (
        functools.partial(probe_train_flag, "--proj-dim", str(10**30)), "validation",
    ),
    "train-proj-dim-bytes-past-intp": (
        functools.partial(probe_train_flag, "--proj-dim", str(10**18)), "validation",
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


@pytest.mark.parametrize("key, value", [("matrix", math.inf), ("matrix", math.nan),
                                        ("train_X", math.nan)],
                         ids=["inf-matrix", "nan-matrix", "nan-train-X"])
def test_inspect_and_predict_reject_the_same_model(tmp_path, capsys, key, value):
    messages = set()
    for command in ("inspect", "predict"):
        argv = probe_model_edit(tmp_path, capsys, command,
                                **{key: with_first_entry(key, value)})
        code, _, err = run(capsys, *argv)
        assert code == 1
        messages.add(json.loads(err)["message"])
    (message,) = messages
    assert message.startswith("corrupt model file: ")


@pytest.mark.parametrize("flag, text, match", [
    ("--seed", "-1", "seed, cluster_separation and confidence_noise must be nonnegative"),
    ("--noise", "inf", "must be finite numbers"),
    ("--separation", "nan", "must be finite numbers"),
    ("--balance", "nan", "must be finite numbers"),
])
def test_synth_flag_rejected_by_synth_config(tmp_path, capsys, flag, text, match):
    code, out, err = run(capsys, *probe_synth_flag(flag, text, tmp_path, capsys))
    assert (code, out) == (1, "")
    assert match in json.loads(err)["message"]


@pytest.mark.parametrize("probe, match", [
    (probe_short_predictions, "prediction rows (59) do not match data rows (60)"),
    (probe_header_only, "no data rows"),
    (probe_model_without_rows, "missing field"),
], ids=["evaluate-row-count-mismatch", "predict-header-only", "model-without-training-rows"])
def test_cli_check_names_its_cause(tmp_path, capsys, probe, match):
    """The CLI's own checks fire before a later layer rejects the same input."""
    code, _, err = run(capsys, *probe(tmp_path, capsys))
    assert code == 1
    assert match in json.loads(err)["message"]


@pytest.mark.parametrize("probe, error, message", [
    (functools.partial(probe_train_csv, "f0,label,confidence\n"),
     "validation", "{tmp_path}/data.csv: no data rows"),
    (functools.partial(probe_train_csv,
                       "f0,label,confidence\n0,0,0.9\n1,0,0.8\n2,0,0.7\n3,1,0.6\n"),
     "degenerate-class", "each class needs at least 2 instances"),
    (functools.partial(probe_train_flag, "--lambda2", "1"),
     "missing-supervision", "lambda2 > 0 requires confidence labels"),
], ids=["header-only", "single-positive", "lambda2-without-confidences"])
def test_train_rejection_message(tmp_path, capsys, probe, error, message):
    code, out, err = run(capsys, *probe(tmp_path, capsys))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": error, "message": message.format(tmp_path=tmp_path)}


def test_saturating_synth_is_silent(tmp_path, capsys):
    """At --separation 40 exp(-logit) overflows to inf and the posterior
    saturates to 0 or 1, which is harmless and prints nothing."""
    code, out, err = run(capsys, "synth", "--separation", "40",
                         "--out", str(tmp_path / "d.csv"))
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == 400


def test_flag_defaults_are_config_defaults(tmp_path, capsys):
    """A flag left out takes its config field's default, so train and synth
    without flags match the dataclasses built with no arguments."""
    data = tmp_path / "data.csv"
    assert run(capsys, "synth", "--out", str(data))[0] == 0
    expected = tmp_path / "expected.csv"
    save_csv(expected, synth_generate(SynthConfig(n=400, m=10, m_informative=2))[0])
    assert data.read_bytes() == expected.read_bytes()
    model = tmp_path / "model.json"
    assert run(capsys, "train", "--data", str(data), "--confidence", "confidence",
               "--out", str(model), "--trace", str(tmp_path / "trace.csv"))[0] == 0
    saved = json.loads(model.read_text())["train_config"]
    assert saved == dataclasses.asdict(TrainConfig())


@pytest.mark.parametrize("argv", [["--help"], ["predict", "--help"]])
def test_help_prints_usage_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: confmetric") and err == ""


def test_import_leaves_scipy_stats_out():
    src = Path(confmetric.__file__).parents[1]
    code = "import sys, confmetric.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout == "False\n"


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

    def test_csv_source_matches_synth_source(self, tmp_path, capsys):
        """The same data read from a CSV written by save_csv gives the same
        results and summary bytes as generating it in-process."""
        synth = {"n": 200, "m": 5, "m_informative": 2, "cluster_separation": 3.0,
                 "confidence_noise": 0.05, "seed": 1}
        data, _ = synth_generate(SynthConfig(**synth))
        schema = save_csv(tmp_path / "data.csv", data)
        sources = {
            "synth": {"synth": synth},
            "csv": {"csv": {"path": str(tmp_path / "data.csv"),
                            "feature_columns": schema.feature_columns,
                            "label_column": schema.label_column,
                            "confidence_column": schema.confidence_column}},
        }
        outputs = {}
        for name, source in sources.items():
            cfg = experiment_config(tmp_path, trials=2, train_sizes=[20, 40], data=source)
            results = tmp_path / f"results_{name}.csv"
            summary = tmp_path / f"summary_{name}.csv"
            code, out, _ = run(capsys, "experiment", "--config", str(cfg),
                               "--out", str(results), "--summary", str(summary))
            assert code == 0
            assert json.loads(out)["errors"] == 0
            outputs[name] = (results.read_bytes(), summary.read_bytes())
        assert outputs["csv"] == outputs["synth"]

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
        (lambda r: r.update(train_sizes=[20, 20]), "strictly ascending"),
        (lambda r: r.update(methods=["camel", "camel"]), "distinct"),
        (lambda r: r.update(train_sizes="15"), "train_sizes must be a JSON array"),
        (lambda r: r.update(methods="camel"), "methods must be a JSON array"),
        (lambda r: r["hyper_grid"].update(lambda1="14"),
         "hyper_grid.lambda1 must be a JSON array"),
        (lambda r: r["hyper_grid"].update(lambda2="05"),
         "hyper_grid.lambda2 must be a JSON array"),
        (lambda r: r.update(data={"csv": {"path": "x.csv", "feature_columns": "f0",
                                          "label_column": "label"}}),
         "data.csv.feature_columns must be a JSON array"),
        (lambda r: r.update(max_iters=2.5), "must be integers"),
        (lambda r: r.update(proj_dim=1.5), "must be integers"),
        (lambda r: r.update(seed=-1), "seed must be nonnegative"),
        (lambda r: r["hyper_grid"].update(lambda1=["14", True]), "must be numbers"),
        (lambda r: r["hyper_grid"].update(lambda1=[True]), "must be numbers"),
        (lambda r: r["hyper_grid"].update(lambda2=[None]), "must be numbers"),
        (lambda r: r["hyper_grid"].update(lambda1=[10**400]), "must be numbers"),
        (lambda r: r.update(methods=["camel"], hyper_grid={"lambda1": [1.0],
                                                          "lambda2": ["x"]}),
         "must be numbers"),
        (lambda r: r.update(data={"csv": {"path": True, "feature_columns": ["f0"],
                                          "label_column": "label"}}),
         "path must be a string"),
        (lambda r: r.update(data={"csv": {"path": 0, "feature_columns": ["f0"],
                                          "label_column": "label"}}),
         "path must be a string"),
        (lambda r: r.update(data={"csv": {"path": "x.csv", "feature_columns": [0],
                                          "label_column": "label"}}),
         "names must be strings"),
        (lambda r: r.update(data={"csv": {"path": "x.csv", "feature_columns": ["f0"],
                                          "label_column": "label",
                                          "confidence_column": 1}}),
         "names must be strings"),
        (lambda r: r.update(train_sizes=[0, 10]), "positive and strictly ascending"),
        (lambda r: r.update(train_sizes=[-3, 10]), "positive and strictly ascending"),
        (lambda r: r["data"]["synth"].update(confidence_noise=float("inf")),
         "invalid data.synth: .* must be finite numbers"),
    ], ids=["no-train-sizes", "max-iter-typo", "grid-key", "synth-keys", "csv-keys",
            "two-sources", "string-trials", "int-train-sizes", "string-lambda",
            "negative-lambda1", "nan-lambda2", "duplicate-train-size",
            "duplicate-method", "string-train-sizes", "string-methods",
            "string-lambda1-grid", "string-lambda2-grid", "string-feature-columns",
            "fractional-max-iters", "fractional-proj-dim", "negative-seed",
            "string-lambda-cell", "bool-lambda-cell", "null-lambda2-cell", "huge-int-lambda-cell",
            "unused-string-lambda2-cell", "bool-csv-path", "int-csv-path",
            "int-feature-column", "int-confidence-column", "zero-train-size",
            "negative-train-size", "inf-synth-noise"])
    def test_config_dict_rejected(self, tmp_path, edit, match):
        raw = json.loads(experiment_config(tmp_path).read_text())
        edit(raw)
        with pytest.raises(ValidationError, match=match):
            ExperimentConfig.from_dict(raw)

    def test_integer_grid_cells_written_as_floats(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path, trials=1, train_sizes=[20],
                                hyper_grid={"lambda1": [1, 4], "lambda2": [0]})
        results = tmp_path / "results.csv"
        code, _, _ = run(capsys, "experiment", "--config", str(cfg), "--out", str(results),
                         "--summary", str(tmp_path / "summary.csv"))
        assert code == 0
        with open(results) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["lambda1"] for r in rows} <= {"1.0", "4.0"}
        assert {r["lambda2"] for r in rows} == {"0.0"}

    def test_summary_columns(self, tmp_path):
        records = [ResultRecord(trial=t, train_size=10, method="camel", test_auroc=0.75,
                                sparsity=0.5, row_rank=2) for t in range(2)]
        records.append(ResultRecord(trial=0, train_size=10, method="camel_cl",
                                    error="degenerate-class: x"))
        summary = tmp_path / "summary.csv"
        write_summary_csv(summary, summarize(records))
        assert summary.read_text().splitlines() == [
            "train_size,method,n_trials,n_ok,mean_test_auroc,ci95_test_auroc,"
            "mean_sparsity,ci95_sparsity,mean_row_rank,ci95_row_rank",
            "10,camel,2,2,0.75,0.0,0.5,0.0,2.0,0.0",
            "10,camel_cl,1,0,,,,,,",
        ]

    def test_collapsed_fit_prints_nothing_on_stderr(self, tmp_path, capsys):
        # lambda2 = 500 sends every off-diagonal training kernel value to 0;
        # each held-out row is still scored, by its nearest reference rows
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "trials": 1, "train_sizes": [40], "max_iters": 5,
            "hyper_grid": {"lambda1": [4.0], "lambda2": [500]}, "methods": ["camel_cl"],
            "data": {"synth": {"n": 200, "m": 4, "m_informative": 2, "seed": 1}}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "experiment", "--config", str(cfg),
                                 "--out", str(tmp_path / "r.csv"),
                                 "--summary", str(tmp_path / "s.csv"))
        assert (code, err) == (0, "")
        assert json.loads(out)["errors"] == 0

    def test_proj_dim_past_intp_is_a_cell_error(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path, trials=1, train_sizes=[15], proj_dim=10**30)
        results = tmp_path / "results.csv"
        code, out, _ = run(capsys, "experiment", "--config", str(cfg), "--out", str(results),
                           "--summary", str(tmp_path / "summary.csv"))
        assert code == 0
        assert json.loads(out)["errors"] == 2
        with open(results) as fh:
            errors = [row["error"] for row in csv.DictReader(fh)]
        assert errors == ["validation: proj_dim * m is too large for a numpy array"] * 2

    def test_invalid_config_rejected(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path, trials=0)
        code, _, err = run(
            capsys, "experiment", "--config", str(cfg),
            "--out", str(tmp_path / "r.csv"), "--summary", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "validation"
