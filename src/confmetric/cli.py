"""Command-line harness: train, predict, evaluate, experiment, synth, inspect.

All structured stdout is single-line JSON. Errors print one machine-readable
JSON line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from .data_io import (
    DatasetSchema,
    SynthConfig,
    _require_columns,
    config_from_dict,
    load_csv,
    read_chunks,
    read_columns,
    read_header,
    read_json,
    save_csv,
    synth_generate,
    write_csv,
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
    ExperimentConfig,
    run_experiment,
    summarize,
    write_results_csv,
    write_summary_csv,
)
from .metric import _chunk_height, positive_scores
from .model_io import ModelFile, load_model, save_model
from .optimize import TraceRecord, TrainConfig, fit


def _emit(obj):
    print(json.dumps(obj))


def _flag_columns(header, args) -> list[str]:
    """The --features columns, or [] without the flag. Every column a flag
    names but --label must be in the header: predict reads no label."""
    features = [c.strip() for c in args.features.split(",")] if args.features else []
    _require_columns(header, [c for c in (*features, args.confidence, args.id_column) if c])
    return features


def _schema_from_flags(path, args) -> DatasetSchema:
    header = read_header(path)
    features = _flag_columns(header, args)
    if not features:
        reserved = {args.label, args.confidence, args.id_column}
        features = [c for c in header if c not in reserved]
    return DatasetSchema(
        feature_columns=features,
        label_column=args.label,
        confidence_column=args.confidence,
        id_column=args.id_column,
    )


def _given_fields(cls, args) -> dict:
    """cls's fields by name, from the flags given; a flag left out is absent
    from args (argparse.SUPPRESS), so the dataclass supplies its default."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if hasattr(args, f.name)}


def _distinct_outputs(args, outputs, inputs, sources=()):
    """No output flag may name the file of another file flag, or of a source
    (a name and the path an input file gives, opened from the working
    directory): its write would replace an input, or leave only the later of
    two outputs."""
    seen = {}
    files = [*((f"--{flag}", getattr(args, flag), False) for flag in inputs),
             *((name, file, False) for name, file in sources),
             *((f"--{flag}", getattr(args, flag), True) for flag in outputs)]
    for name, file, written in files:
        if not file:
            continue
        path = os.path.realpath(file)
        if written and path in seen:
            raise ValidationError(f"{seen[path]} and {name} name one file: {file}")
        seen.setdefault(path, name)


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
    _distinct_outputs(args, ["out", "trace"], ["data"])
    schema = _schema_from_flags(args.data, args)
    # a model keeps no ids: the id column is checked in the header, not parsed
    data, _ = load_csv(args.data, dataclasses.replace(schema, id_column=None))
    cfg = TrainConfig(**_given_fields(TrainConfig, args))
    L, trace = fit(data, cfg)
    model = ModelFile(
        matrix=L,
        feature_columns=schema.feature_columns,
        train_config=dataclasses.asdict(cfg),
        train_X=data.X,
        train_y=data.y,
    )
    save_model(args.out, model)
    write_csv(args.trace, ["iteration", *(f.name for f in dataclasses.fields(TraceRecord))],
              ((k, *dataclasses.astuple(r)) for k, r in enumerate(trace.records)))
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
    _distinct_outputs(args, ["out"], ["data", "model"])
    if not math.isfinite(args.threshold):
        raise ValidationError(f"--threshold must be finite, got {args.threshold!r}")
    model = load_model(args.model)
    schema = _schema_from_flags(args.data, args)
    model.check_compatible(schema.feature_columns)
    train = Dataset(model.train_X, model.train_y)
    # labels are not needed for scoring; features and optional ids are parsed
    # a chunk of rows at a time, and only each chunk's ids and scores are kept
    chunks = read_chunks(args.data, schema.feature_columns, id_column=args.id_column,
                         rows=_chunk_height(train.n))
    parts, n = [], 0
    while True:
        rows, ids = _read_feature_rows(chunks, n)
        if not len(rows):
            break
        parts.append((ids, positive_scores(model.matrix, train, rows)))
        n += len(rows)
    # written only once every chunk is scored: a bad row anywhere writes nothing
    write_csv(args.out, ["id", "confidence", "label"], itertools.chain.from_iterable(
        zip(ids, scores.tolist(), (scores > args.threshold).astype(int).tolist())
        for ids, scores in parts))
    _emit({"predictions": args.out, "n": n, "threshold": args.threshold})
    return 0


def _read_feature_rows(chunks, start):
    """The next chunk's feature rows and ids, which are the row numbers from
    start without --id-column; no rows once the chunks are spent."""
    X, _, _, ids = next(chunks, (np.empty((0, 0)), None, None, ()))
    return X, (ids if ids is not None else range(start, start + len(X)))


def cmd_evaluate(args) -> int:
    # only the labels are scored; the other flags' cells are not parsed
    _flag_columns(read_header(args.data), args)
    _, y, _, _ = read_columns(args.data, [], label=args.label)
    scores = read_columns(args.pred, ["confidence"])[0][:, 0]
    if len(scores) != len(y):
        raise ValidationError(
            f"prediction rows ({len(scores)}) do not match data rows ({len(y)})"
        )
    _emit({"auroc": auroc(scores, y), "n": len(y)})
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_dict(read_json(args.config, "invalid experiment config"))
    _distinct_outputs(args, ["out", "summary"], ["config"], [("data.csv.path", cfg.csv_path)])
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
    _distinct_outputs(args, ["out"], ["config"])
    given = _given_fields(SynthConfig, args)
    if args.config:
        if given:
            flags = [args.flag_of[k] for k in given]
            raise ValidationError(f"--config cannot be combined with {', '.join(flags)}")
        cfg = config_from_dict(SynthConfig, read_json(args.config, "invalid synth config"),
                               "synth config")
    else:
        cfg = SynthConfig(**{"n": 400, "m": 10, "m_informative": 2, **given})
    data, _ = synth_generate(cfg)
    save_csv(args.out, data)
    _emit({"data": args.out, "n": data.n, "m": data.m})
    return 0


def cmd_inspect(args) -> int:
    _distinct_outputs(args, ["heatmap", "stats"], ["model"])
    model = load_model(args.model)
    L = model.matrix
    write_csv(args.heatmap, None, heatmap_matrix(L).tolist())
    stats = feature_weight_stats(L)
    order = np.argsort(-stats.max_abs, kind="stable")
    write_csv(args.stats, ["feature", "mean_abs_weight", "max_abs_weight"],
              zip([model.feature_columns[j] for j in order],
                  stats.mean_abs[order].tolist(), stats.max_abs[order].tolist()))
    _emit({
        "heatmap": args.heatmap,
        "feature_stats": args.stats,
        "sparsity": sparsity(L),
        "row_rank": row_rank(L),
        "n_zero_rows": n_zero_rows(L),
    })
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input: one JSON line, like every other."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="confmetric",
        description="Sparse confidence-based metric learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a metric on a labeled CSV",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--data", required=True)
    _add_schema_flags(p)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--proj-dim", dest="proj_dim", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--seed", type=int)
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

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", default=None, help="JSON file of generator settings")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--m-informative", dest="m_informative", type=int)
    p.add_argument("--balance", dest="class_balance", metavar="BALANCE", type=float)
    p.add_argument("--separation", dest="cluster_separation", metavar="SEPARATION",
                   type=float)
    p.add_argument("--noise", dest="confidence_noise", metavar="NOISE", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="data.csv")
    # each option's flag by its dest, so an error names the flag as typed
    p.set_defaults(func=cmd_synth, flag_of={a.dest: a.option_strings[0] for a in p._actions})

    p = sub.add_parser("inspect", help="structural statistics of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--heatmap", default="heatmap.csv")
    p.add_argument("--stats", default="feature_stats.csv")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfmetricError as exc:
        code, message = exc.code, str(exc)
    except OSError as exc:
        code, message = "io", str(exc)
    except MemoryError as exc:
        code, message = "out-of-memory", str(exc)
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
