"""Command-line harness: train, predict, evaluate, experiment, synth, inspect.

All structured stdout is single-line JSON. Errors print one machine-readable
JSON line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .data_io import (
    DatasetSchema,
    SynthConfig,
    _parse_numbers,
    _require_columns,
    load_csv,
    read_json_config,
    save_csv,
    synth_generate,
)
from .dataset import Dataset
from .errors import ConfmetricError, ValidationError
from .evaluate import (
    auroc,
    feature_weight_stats,
    heatmap_matrix,
    n_zero_rows,
    row_rank,
    sparsity,
)
from .experiment import (
    load_config,
    run_experiment,
    summarize,
    write_results_csv,
    write_summary_csv,
)
from .metric import positive_scores
from .model_io import ModelFile, load_model, save_model
from .optimize import TrainConfig, fit


def _emit(obj):
    print(json.dumps(obj))


def _read_header(path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if not header:
        raise ValidationError(f"{path}: empty file or missing header")
    return header


def _schema_from_flags(path, args) -> DatasetSchema:
    header = _read_header(path)
    if args.features:
        features = [c.strip() for c in args.features.split(",")]
    else:
        reserved = {args.label, args.confidence, args.id_column}
        features = [c for c in header if c not in reserved]
    return DatasetSchema(
        feature_columns=features,
        label_column=args.label,
        confidence_column=args.confidence,
        id_column=args.id_column,
    )


def _add_schema_flags(p):
    p.add_argument("--label", default="label", help="label column name")
    p.add_argument("--confidence", default=None, help="confidence column name")
    p.add_argument("--id-column", dest="id_column", default=None, help="id column name")
    p.add_argument(
        "--features",
        default=None,
        help="comma-separated feature columns (default: all other columns)",
    )


def cmd_train(args) -> int:
    schema = _schema_from_flags(args.data, args)
    data, _ = load_csv(args.data, schema)
    cfg = TrainConfig(
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        proj_dim=args.proj_dim,
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
        seed=args.seed,
    )
    L, trace = fit(data, cfg)
    model = ModelFile.create(
        matrix=L,
        feature_columns=schema.feature_columns,
        train_config={
            "lambda1": cfg.lambda1,
            "lambda2": cfg.lambda2,
            "proj_dim": cfg.proj_dim,
            "max_iters": cfg.max_iters,
            "rel_tol": cfg.rel_tol,
            "seed": cfg.seed,
        },
        train_X=data.X,
        train_y=data.y,
    )
    save_model(args.out, model)
    with open(args.trace, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "total", "pushpull", "l1", "ranking",
                        "step_size", "sparsity"])
        for k, r in enumerate(trace.records):
            writer.writerow([k, repr(r.total), repr(r.pushpull), repr(r.l1),
                             repr(r.ranking), repr(r.step_size), repr(r.sparsity)])
    final = trace.records[-1]
    _emit({
        "model": args.out,
        "trace": args.trace,
        "status": trace.status,
        "stop_reason": trace.stop_reason,
        "iterations": len(trace.records) - 1,
        "total": final.total,
        "pushpull": final.pushpull,
        "l1": final.l1,
        "ranking": final.ranking,
        "sparsity": final.sparsity,
    })
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if model.train_X is None:
        raise ValidationError("model file lacks training instances; cannot score")
    schema = _schema_from_flags(args.data, args)
    model.check_compatible(schema.feature_columns)
    # labels are not needed for scoring; parse features and optional ids only
    rows, ids = _read_feature_rows(args.data, schema.feature_columns, args.id_column)
    train = Dataset(model.train_X, model.train_y)
    scores = positive_scores(model.matrix, train, rows)
    labels = (scores > args.threshold).astype(int)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "confidence", "label"])
        for i in range(len(scores)):
            writer.writerow([ids[i], repr(float(scores[i])), int(labels[i])])
    _emit({"predictions": args.out, "n": len(scores), "threshold": args.threshold})
    return 0


def _read_feature_rows(path, feature_columns, id_column):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, [*feature_columns, *([id_column] if id_column else [])])
        rows, ids = [], []
        for rownum, row in enumerate(reader, start=2):
            rows.append(_parse_numbers(row, feature_columns, rownum))
            ids.append(row[id_column] if id_column else str(rownum - 2))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return np.array(rows), ids


def cmd_evaluate(args) -> int:
    schema = _schema_from_flags(args.data, args)
    data, _ = load_csv(args.data, schema)
    with open(args.pred, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, ["confidence"])
        scores = [_parse_numbers(row, ["confidence"], rownum)[0]
                  for rownum, row in enumerate(reader, start=2)]
    if len(scores) != data.n:
        raise ValidationError(
            f"prediction rows ({len(scores)}) do not match data rows ({data.n})"
        )
    _emit({"auroc": auroc(np.array(scores), data.y), "n": data.n})
    return 0


def cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    records = run_experiment(cfg)
    write_results_csv(args.out, records)
    rows = summarize(records)
    write_summary_csv(args.summary, rows)
    _emit({
        "results": args.out,
        "summary": args.summary,
        "records": len(records),
        "errors": sum(1 for r in records if r.error is not None),
    })
    return 0


def cmd_synth(args) -> int:
    if args.config:
        cfg = SynthConfig.from_dict(read_json_config(args.config, "synth config"))
    else:
        cfg = SynthConfig(
            n=args.n,
            m=args.m,
            m_informative=args.m_informative,
            class_balance=args.balance,
            cluster_separation=args.separation,
            confidence_noise=args.noise,
            seed=args.seed,
        )
    data, _ = synth_generate(cfg)
    save_csv(args.out, data)
    _emit({"data": args.out, "n": data.n, "m": data.m})
    return 0


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    L = model.matrix
    heat = heatmap_matrix(L)
    with open(args.heatmap, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in heat:
            writer.writerow([repr(float(v)) for v in row])
    stats = feature_weight_stats(L)
    order = np.argsort(-stats.max_abs, kind="stable")
    with open(args.stats, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "mean_abs_weight", "max_abs_weight"])
        for j in order:
            writer.writerow([
                model.feature_columns[j],
                repr(float(stats.mean_abs[j])),
                repr(float(stats.max_abs[j])),
            ])
    _emit({
        "heatmap": args.heatmap,
        "feature_stats": args.stats,
        "sparsity": sparsity(L),
        "row_rank": row_rank(L),
        "n_zero_rows": n_zero_rows(L),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confmetric",
        description="Sparse confidence-based metric learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a metric on a labeled CSV")
    p.add_argument("--data", required=True)
    _add_schema_flags(p)
    p.add_argument("--lambda1", type=float, default=0.0)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--proj-dim", dest="proj_dim", type=int, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=500)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="model.json")
    p.add_argument("--trace", default="trace.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a CSV against a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    _add_schema_flags(p)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", default="predictions.csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="AUROC of a predictions file against labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    _add_schema_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run the learning-curve experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="results.csv")
    p.add_argument("--summary", default="summary.csv")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--config", default=None, help="JSON file of generator settings")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--m-informative", dest="m_informative", type=int, default=2)
    p.add_argument("--balance", type=float, default=0.5)
    p.add_argument("--separation", type=float, default=2.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="data.csv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="structural statistics of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--heatmap", default="heatmap.csv")
    p.add_argument("--stats", default="feature_stats.csv")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfmetricError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
