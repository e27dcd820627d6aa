import csv
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import confmetric
from confmetric import (
    Dataset,
    DatasetSchema,
    ExperimentConfig,
    ModelFile,
    ResultRecord,
    SynthConfig,
    TrainConfig,
    ValidationError,
    load_model,
    positive_scores,
    run_experiment,
    save_csv,
    save_model,
    summarize,
    synth_generate,
    write_summary_csv,
)
from confmetric import cli
from confmetric.cli import main
from confmetric.data_io import write_csv
from confmetric.metric import _chunk_height


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def train_bytes(tmp_path, capsys, data, *flags):
    """The model and trace bytes of a train run on data, written to
    model.json and trace.csv in tmp_path."""
    model, trace = tmp_path / "model.json", tmp_path / "trace.csv"
    code, _, err = run(capsys, "train", "--data", str(data), *flags,
                       "--out", str(model), "--trace", str(trace))
    assert (code, err) == (0, "")
    return model.read_bytes(), trace.read_bytes()


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

    def test_train_parses_no_id_column(self, tmp_path, capsys, monkeypatch):
        # the model keeps no ids, so train reads the pid column in the header
        # only, and writes the model and trace of the file without the column
        plain = make_data(tmp_path, capsys)
        with open(plain, newline="") as fh:
            rows = list(csv.reader(fh))
        data = tmp_path / "ids.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows([["pid", *rows[0]]] + [
                [f"p{i},{i % 7}", *row] for i, row in enumerate(rows[1:])])
        flags = ["--confidence", "confidence", "--lambda2", "1", "--max-iters", "3"]
        expected = train_bytes(tmp_path, capsys, plain, *flags)
        usecols = []
        loadtxt = np.loadtxt

        def recording_loadtxt(*args, **kwargs):
            usecols.append(list(kwargs["usecols"]))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
        for columns in (["--id-column", "pid"], ["--features", "f0,f1,f2,f3,f4"]):
            assert train_bytes(tmp_path, capsys, data, *columns, *flags) == expected
        assert len(usecols) == 2 and all(0 not in cols for cols in usecols)
        # predict does read the ids, whose quoted cells hold commas
        preds = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--model", str(tmp_path / "model.json"),
                           "--data", str(data), "--id-column", "pid",
                           "--confidence", "confidence", "--out", str(preds))
        assert (code, err) == (0, "")
        with open(preds, newline="") as fh:
            assert next(csv.DictReader(fh))["id"] == "p0,0"

    def test_duplicate_only_rows_train(self, tmp_path, capsys):
        # identical feature rows have no distance scale; they train at unit scale
        data = tmp_path / "duplicates.csv"
        data.write_text("f0,f1,label\n1,2,0\n1,2,0\n1,2,1\n1,2,1\n")
        train_bytes(tmp_path, capsys, data)

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



@pytest.mark.parametrize("synth, train, dead_rows", [
    # three kernel tiles, the last one partial, and ~n^2/4 hinge pairs,
    # counted without listing them
    (["--n", "600"], ["--lambda1", "0.1", "--lambda2", "1", "--max-iters", "8"], False),
    # 95% of the rows in class 1: the objective sorts its rows by label, so
    # class 0 ends at row 30, inside the first tile, which the gradient then
    # multiplies class by class
    (["--n", "600", "--balance", "0.95"],
     ["--lambda1", "0.1", "--lambda2", "1", "--max-iters", "8"], False),
    # lambda1 = 4 zeroes most rows of L; every kernel, predict's too, is
    # then built from the rows left
    (["--n", "200", "--m", "8"], ["--lambda1", "4", "--lambda2", "0.1", "--max-iters", "30"],
     True),
], ids=["three-tiles", "skewed-classes", "dead-rows"])
def test_train_rerun_writes_the_same_bytes(tmp_path, capsys, synth, train, dead_rows):
    data = tmp_path / "data.csv"
    assert run(capsys, "synth", "--m", "4", "--m-informative", "2", "--seed", "3", *synth,
               "--out", str(data))[0] == 0
    flags = ["--confidence", "confidence", *train]
    model, trace = train_bytes(tmp_path, capsys, data, *flags)
    assert train_bytes(tmp_path, capsys, data, *flags) == (model, trace)
    rows = list(csv.DictReader(trace.decode().splitlines()))
    # one row for the start and one per iteration: none of these fits stops early
    assert len(rows) == int(train[train.index("--max-iters") + 1]) + 1
    totals = [float(r["total"]) for r in rows]
    assert all(b <= a for a, b in zip(totals, totals[1:])), totals
    # every row counts the kernels its line search built
    evals = [int(r["loss_evals"]) for r in rows]
    assert evals[0] == 1 and all(e >= 1 for e in evals), evals
    model = str(tmp_path / "model.json")
    code, out, err = run(capsys, "inspect", "--model", model, "--heatmap",
                         str(tmp_path / "heat.csv"), "--stats", str(tmp_path / "stats.csv"))
    assert (code, err, json.loads(out)["n_zero_rows"] > 0) == (0, "", dead_rows)
    assert run(capsys, "predict", "--model", model, "--data", str(data), "--confidence",
               "confidence", "--out", str(tmp_path / "pred.csv"))[::2] == (0, "")


class TestChunkedPredict:
    """predict reads and scores its query file a chunk of rows at a time."""

    @staticmethod
    def reference_model(tmp_path, n=2000, m=3):
        """A model file of n random reference rows, with no fit."""
        rng = np.random.default_rng(0)
        path = tmp_path / "m.json"
        save_model(path, ModelFile(rng.normal(size=(2, m)), [f"f{j}" for j in range(m)],
                                   {}, train_X=rng.normal(size=(n, m)),
                                   train_y=np.arange(n) % 2))
        return path

    def test_chunks_write_what_one_call_scores(self, tmp_path, capsys):
        # 2 whole chunks and a partial one; the ids on either side of the
        # first boundary hold quoted line breaks
        model = self.reference_model(tmp_path)
        k = _chunk_height(2000)
        Q = np.random.default_rng(1).normal(size=(2 * k + 37, 3))
        ids = [f"p{i}" for i in range(len(Q))]
        ids[k - 1], ids[k] = "end of\r\nchunk 0", 'start of\r\n"chunk" 1'
        data = tmp_path / "q.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["pid", "f0", "f1", "f2"],
                                      *([i, *x] for i, x in zip(ids, Q.tolist()))])
        preds = tmp_path / "p.csv"
        with mock.patch.object(cli, "positive_scores", wraps=positive_scores) as scorer:
            code, out, err = run(capsys, "predict", "--model", str(model), "--data",
                                 str(data), "--id-column", "pid", "--out", str(preds))
        assert (code, err) == (0, "")
        assert json.loads(out)["n"] == len(Q)
        assert [len(c.args[2]) for c in scorer.call_args_list] == [k, k, 37]
        loaded = load_model(model)
        scores = positive_scores(loaded.matrix, Dataset(loaded.train_X, loaded.train_y), Q)
        expected = tmp_path / "expected.csv"
        write_csv(expected, ["id", "confidence", "label"],
                  zip(ids, scores.tolist(), (scores > 0.5).astype(int).tolist()))
        assert preds.read_bytes() == expected.read_bytes()

    def test_bad_cell_in_the_last_chunk_writes_nothing(self, tmp_path, capsys):
        model = self.reference_model(tmp_path)
        k = _chunk_height(2000)
        rows = [[repr(v) for v in x]
                for x in np.random.default_rng(2).normal(size=(2 * k + 5, 3)).tolist()]
        rows[-2][1] = "inf"
        data = tmp_path / "q.csv"
        data.write_text("f0,f1,f2\n" + "".join(",".join(r) + "\n" for r in rows))
        preds = tmp_path / "p.csv"
        preds.write_text("an earlier run's predictions\n")
        with mock.patch.object(cli, "positive_scores", wraps=positive_scores) as scorer:
            code, out, err = run(capsys, "predict", "--model", str(model), "--data",
                                 str(data), "--out", str(preds))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "validation",
            "message": f"row {2 * k + 5}, column 'f1': 'inf' is not a finite number"}
        assert scorer.call_count == 2  # the chunks before it were scored
        assert preds.read_text() == "an earlier run's predictions\n"

    def test_memory_does_not_grow_with_the_batch(self, tmp_path, capsys):
        # 4x the rows: only the scores, 8 bytes a row, may grow with them
        m = 20
        model = self.reference_model(tmp_path, n=50, m=m)
        rng = np.random.default_rng(3)

        def traced(q):
            data = tmp_path / f"q{q}.csv"
            save_csv(data, Dataset(rng.normal(size=(q, m)), np.arange(q) % 2))
            tracemalloc.start()
            try:
                code, _, err = run(capsys, "predict", "--model", str(model), "--data",
                                   str(data), "--out", str(tmp_path / "p.csv"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, err) == (0, "")
            return peak

        small, big = traced(10_000), traced(40_000)
        assert big - small < 0.25 * 30_000 * m * 8

def trained_model(tmp_path, capsys):
    data = make_data(tmp_path, capsys)
    model = tmp_path / "m.json"
    code, _, _ = run(
        capsys, "train", "--data", str(data), "--confidence", "confidence",
        "--max-iters", "3", "--out", str(model), "--trace", str(tmp_path / "t.csv"),
    )
    assert code == 0
    return data, model


def predict_argv(model, data, tmp_path):
    """predict, with confidences, of data against model, into out.csv."""
    return ["predict", "--model", str(model), "--data", str(data),
            "--confidence", "confidence", "--out", str(tmp_path / "out.csv")]


def write_predictions(tmp_path, n):
    """A p.csv file of n predictions, each 0.5."""
    preds = tmp_path / "p.csv"
    preds.write_text("id,confidence,label\n" + "".join(f"{i},0.5,0\n" for i in range(n)))
    return preds


def edit_json(path, **changes):
    raw = json.loads(path.read_text())
    raw.update(changes)
    path.write_text(json.dumps(raw))


def probe_non_finite_feature(text, tmp_path, capsys):
    data, model = trained_model(tmp_path, capsys)
    header, first, *rest = data.read_text().splitlines()
    first = ",".join([text] + first.split(",")[1:])
    data.write_text("\n".join([header, first, *rest]) + "\n")
    return predict_argv(model, data, tmp_path)


def probe_model_edit(tmp_path, capsys, command="predict", **changes):
    data, model = trained_model(tmp_path, capsys)
    raw = json.loads(model.read_text())
    edit_json(model, **{k: v(raw) for k, v in changes.items()})
    if command == "inspect":
        return ["inspect", "--model", str(model), "--heatmap", str(tmp_path / "out.csv"),
                "--stats", str(tmp_path / "stats.csv")]
    return predict_argv(model, data, tmp_path)


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
    return predict_argv(model, data, tmp_path)


def probe_header_only(tmp_path, capsys):
    data, model = trained_model(tmp_path, capsys)
    data.write_text(data.read_text().splitlines()[0] + "\n")
    return predict_argv(model, data, tmp_path)


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
    preds = write_predictions(tmp_path, 59)
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
    preds = write_predictions(tmp_path, 60)
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


def probe_synth_config_with_flags(tmp_path, capsys):
    argv = probe_synth_config({"n": 20, "m": 3, "m_informative": 1}, tmp_path, capsys)
    # --balance is not spelled like its field, class_balance
    return [*argv, "--seed", "5", "--balance", "0.3", "--n", "999"]


def probe_one_output_file(command, tmp_path, capsys):
    """command with both its output flags naming out.csv, by two spellings."""
    out, same = str(tmp_path / "out.csv"), f"{tmp_path}/./out.csv"
    if command == "train":
        return ["train", "--data", str(make_data(tmp_path, capsys)),
                "--out", out, "--trace", same]
    if command == "inspect":
        return ["inspect", "--model", str(trained_model(tmp_path, capsys)[1]),
                "--heatmap", out, "--stats", same]
    return ["experiment", "--config", str(experiment_config(tmp_path)),
            "--out", out, "--summary", same]


def probe_predict_threshold(text, tmp_path, capsys):
    data, model = trained_model(tmp_path, capsys)
    return ["predict", "--model", str(model), "--data", str(data),
            "--confidence", "confidence", "--threshold", text,
            "--out", str(tmp_path / "out.csv")]


def probe_train_flag(flag, text, tmp_path, capsys):
    data = make_data(tmp_path, capsys)
    return ["train", "--data", str(data), flag, text,
            "--out", str(tmp_path / "m.json"), "--trace", str(tmp_path / "out.csv")]


def probe_train_confidence_flag(flag, text, tmp_path, capsys):
    """train, with confidences, with one flag set."""
    return [*probe_train_flag(flag, text, tmp_path, capsys), "--confidence", "confidence"]


def probe_synth_flag(flag, text, tmp_path, capsys):
    return ["synth", "--n", "60", "--m", "3", "--m-informative", "1", flag, text,
            "--out", str(tmp_path / "out.csv")]


def probe_undecodable(target, tmp_path, capsys):
    """A command whose named input holds bytes that are not UTF-8."""
    data, model = trained_model(tmp_path, capsys)
    preds = write_predictions(tmp_path, 60)
    predict = predict_argv(model, data, tmp_path)
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
    return predict_argv(model, data, tmp_path)


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
    "train-zero-max-iters": (
        functools.partial(probe_train_flag, "--max-iters", "0"), "validation",
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
    # the config is valid, but the synthetic data has only 120 rows
    "experiment-train-size-at-n": (
        functools.partial(probe_experiment, [], train_sizes=[15, 120]), "validation",
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
    "synth-config-beside-flags": (probe_synth_config_with_flags, "validation"),
    **{f"{command}-one-output-file": (functools.partial(probe_one_output_file, command),
                                      "validation")
       for command in ("train", "inspect", "experiment")},
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
    ("--n", "3", "n must be at least 4"),
])
def test_synth_flag_rejected_by_synth_config(tmp_path, capsys, flag, text, match):
    code, out, err = run(capsys, *probe_synth_flag(flag, text, tmp_path, capsys))
    assert (code, out) == (1, "")
    assert match in json.loads(err)["message"]


@pytest.mark.parametrize("probe, match", [
    (probe_short_predictions, "prediction rows (59) do not match data rows (60)"),
    (probe_header_only, "no data rows"),
    (probe_model_without_rows, "missing field"),
    (probe_synth_config_with_flags, "--config cannot be combined with --n, --balance, --seed"),
    (functools.partial(probe_one_output_file, "train"), "--out and --trace name one file"),
], ids=["evaluate-row-count-mismatch", "predict-header-only", "model-without-training-rows",
        "synth-config-beside-flags", "train-one-output-file"])
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
    (functools.partial(probe_train_csv, ""),
     "validation", "{tmp_path}/data.csv: empty file or missing header"),
    # the hinge term overflows to inf in Python float arithmetic
    (functools.partial(probe_train_confidence_flag, "--lambda2", "1e308"),
     "numerical-failure", "non-finite loss at initialization"),
], ids=["header-only", "single-positive", "lambda2-without-confidences", "empty-file",
        "overflowing-lambda2"])
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


# the environment of a fresh Python process that imports this package
PROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(confmetric.__file__).parents[1])}


def test_import_leaves_scipy_stats_out():
    code = "import sys, confmetric.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=PROCESS_ENV, check=True)
    assert result.stdout == "False\n"


def run_process(*argv):
    """(exit code, stdout, stderr) of the CLI in a process of its own, with
    every warning an error."""
    result = subprocess.run([sys.executable, "-W", "error", "-m", "confmetric.cli", *argv],
                            capture_output=True, text=True, env=PROCESS_ENV)
    return result.returncode, result.stdout, result.stderr


def contract_run(command, tmp_path, capsys):
    """The argv of a successful run of command, on small inputs made in
    process; None for a command without one."""
    data, model = trained_model(tmp_path, capsys)
    preds = write_predictions(tmp_path, 60)
    out, other = str(tmp_path / "out.csv"), str(tmp_path / "other.csv")
    config = experiment_config(tmp_path, trials=1, train_sizes=[15], max_iters=3)
    return {
        "synth": ["synth", "--n", "40", "--out", out],
        "train": ["train", "--data", str(data), "--confidence", "confidence",
                  "--max-iters", "3", "--out", other, "--trace", out],
        "predict": predict_argv(model, data, tmp_path),
        "evaluate": ["evaluate", "--pred", str(preds), "--data", str(data),
                     "--confidence", "confidence"],
        "experiment": ["experiment", "--config", str(config), "--out", out, "--summary", other],
        "inspect": ["inspect", "--model", str(model), "--heatmap", out, "--stats", other],
    }.get(command)


@pytest.mark.parametrize("command", cli.build_parser()._subparsers._group_actions[0].choices)
def test_success_is_one_json_line_on_stdout(tmp_path, capsys, command):
    argv = contract_run(command, tmp_path, capsys)
    assert argv, f"no process-contract run for {command!r}"
    code, out, err = run_process(*argv)
    assert (code, err) == (0, "")
    (line,) = out.splitlines()
    json.loads(line)


def test_failure_is_one_json_line_on_stderr(tmp_path, capsys):
    # a config nested past the recursion limit of a fresh process's stack
    code, out, err = run_process(*probe_json_file("experiment", DEEP_JSON, tmp_path, capsys))
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "validation"


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
        (lambda r: r["hyper_grid"].update(lambda1=[]), "lambda1 grid must be nonempty"),
        (lambda r: r["hyper_grid"].pop("lambda2"),
         "lambda2 grid must be nonempty for camel_cl"),
    ], ids=["no-train-sizes", "max-iter-typo", "grid-key", "synth-keys", "csv-keys",
            "two-sources", "string-trials", "int-train-sizes", "string-lambda",
            "negative-lambda1", "nan-lambda2", "duplicate-train-size",
            "duplicate-method", "string-train-sizes", "string-methods",
            "string-lambda1-grid", "string-lambda2-grid", "string-feature-columns",
            "fractional-max-iters", "fractional-proj-dim", "negative-seed",
            "string-lambda-cell", "bool-lambda-cell", "null-lambda2-cell", "huge-int-lambda-cell",
            "unused-string-lambda2-cell", "bool-csv-path", "int-csv-path",
            "int-feature-column", "int-confidence-column", "zero-train-size",
            "negative-train-size", "inf-synth-noise", "empty-lambda1-grid",
            "no-lambda2-grid"])
    def test_config_dict_rejected(self, tmp_path, edit, match):
        raw = json.loads(experiment_config(tmp_path).read_text())
        edit(raw)
        with pytest.raises(ValidationError, match=match):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("sources", [
        {"csv_path": "x.csv"},
        {"synth": SynthConfig(n=40, m=2, m_informative=1),
         "csv_schema": DatasetSchema(feature_columns=["f0"], label_column="label")},
    ], ids=["path-without-schema", "schema-beside-synth"])
    def test_csv_schema_given_exactly_with_csv_path(self, sources):
        with pytest.raises(ValidationError, match="csv_schema is required exactly when"):
            ExperimentConfig(trials=1, train_sizes=[10], lambda1_grid=[1.0],
                             lambda2_grid=[], methods=["camel"], **sources)

    def test_small_class_generator_rejected_when_read(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["data"]["synth"]["class_balance"] = 0.01
        with pytest.raises(ValidationError, match="fewer than 2 instances in a class"):
            ExperimentConfig.from_dict(raw)
        cfg.write_text(json.dumps(raw))
        results = tmp_path / "results.csv"
        code, out, err = run(capsys, "experiment", "--config", str(cfg), "--out",
                             str(results), "--summary", str(tmp_path / "summary.csv"))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "validation"
        assert not results.exists()

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

    @staticmethod
    def run_outlier_experiment(tmp_path, capsys):
        """(exit code, stdout, stderr, results.csv rows) of a camel grid on 60
        rows of which row 7 is a finite 1e200 outlier."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = np.arange(60) % 2
        X[y == 1] += 2.0
        X[7] = 1e200
        save_csv(tmp_path / "outlier.csv", Dataset(X, y))
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "trials": 4, "train_sizes": [10], "max_iters": 5,
            "hyper_grid": {"lambda1": [1.0]}, "methods": ["camel"],
            "data": {"csv": {"path": str(tmp_path / "outlier.csv"),
                             "feature_columns": ["f0", "f1", "f2"],
                             "label_column": "label"}}}))
        results = tmp_path / "results.csv"
        code, out, err = run(capsys, "experiment", "--config", str(cfg), "--out",
                             str(results), "--summary", str(tmp_path / "summary.csv"))
        with open(results) as fh:
            return code, out, err, list(csv.DictReader(fh))

    def test_overflowing_held_out_row_is_a_cell_error(self, tmp_path, capsys):
        # one finite 1e200 row overflows its projection: each cell it reaches
        # records a numerical-failure, never a nan AUROC or a numpy warning
        code, out, err, rows = self.run_outlier_experiment(tmp_path, capsys)
        assert (code, err) == (0, "")
        errors = [r["error"] for r in rows if r["error"]]
        assert json.loads(out)["errors"] == len(errors) > 0
        assert all(e.startswith("numerical-failure: ") for e in errors), errors
        assert not any(cell == "nan" for r in rows for cell in r.values())

    def test_failed_cell_keeps_no_chosen_hyperparameters(self, tmp_path, capsys):
        # a cell that fails at test scoring is as empty as one that fails at
        # validation: no lambda1, lambda2 or val_auroc beside its error
        _, _, _, rows = self.run_outlier_experiment(tmp_path, capsys)
        failed = [r for r in rows if r["error"]]
        assert failed
        assert all(r[k] == "" for r in failed for k in ("lambda1", "lambda2", "val_auroc")), \
            failed

    @pytest.mark.parametrize("past_end", [0, 1], ids=["n-1", "n"])
    def test_train_size_too_large_is_one_message(self, tmp_path, capsys, past_end):
        cfg = experiment_config(tmp_path, train_sizes=[15, 119 + past_end])
        code, out, err = run(capsys, "experiment", "--config", str(cfg), "--out",
                             str(tmp_path / "r.csv"), "--summary", str(tmp_path / "s.csv"))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "validation",
            "message": "train_n leaves fewer than 2 held-out instances",
        }

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
