"""Command-line surface for the toolkit.

Subcommands: summarize, preprocess, train, evaluate, predict, gridsearch,
compare, curves. Human-readable output goes to stdout as aligned tables;
CSV artifacts are written atomically. Failures print exactly one
machine-parseable line to stderr, `<CODE> <ErrorType>: <message>`, and map
to stable exit codes:

    E_IO       2    E_SCHEMA   3    E_CONFIG   4
    E_VERSION  5    E_DATA     6

--param flags are parsed once into a `params` dict. A JSON file passed via
--config then overrides the flags: its keys are the subcommand's flag
destinations, each value checked against its flag (a bool for --no-smote,
an integer or a number for an int or float flag, one of a choice flag's
values, an object for `params`, merged over --param, else a string). A grid
file's k, seed and selection_metric set --k, --seed and --metric the same
way. RunConfig alone converts the values it is handed, and defaults the run
settings a command has no flag for; evaluate and predict use --threshold,
else the bundle's threshold, else RunConfig's default.
"""

import argparse
import os
import sys
from dataclasses import fields

from . import dataset as ds
from . import preprocess
from .errors import BadHyperparameter, CardioLearnError
from .evaluation import (
    METRIC_NAMES,
    EvalReport,
    GridSpec,
    RunConfig,
    SelectionMetric,
    check_threshold,
    evaluate_model,
    format_params,
    format_value,
    grid_search,
    results_csv,
)
from .hyperparams import NUMBER, check
from .persistence import atomic_write_text, load_bundle, read_json, save_bundle
from .pipeline import predict_probabilities, prepare_matrices, run_compare, run_training
from .preprocess import UnseenPolicy
from .training import ALGORITHM_LABELS, Algorithm

EXIT_CODES = {"E_IO": 2, "E_SCHEMA": 3, "E_CONFIG": 4, "E_VERSION": 5, "E_DATA": 6}

# grid-file keys and the destination of the --flag each sets
_GRID_FILE_FLAGS = {"k": "k", "seed": "seed", "selection_metric": "metric"}


# --- formatting helpers -------------------------------------------------------

def format_table(headers, rows) -> str:
    widths = [
        max(len(headers[i]), max((len(row[i]) for row in rows), default=0))
        for i in range(len(headers))
    ]
    def line(cells):
        return "  ".join(cells[i].ljust(widths[i]) for i in range(len(cells))).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def _report_row(report: EvalReport):
    cm = report.matrix
    return [
        report.model_id,
        f"{report.threshold:g}",
        format_value(report.accuracy, ".4f"),
        format_value(report.precision, ".4f"),
        format_value(report.recall, ".4f"),
        format_value(report.f1, ".4f"),
        str(cm.tp), str(cm.fp), str(cm.fn), str(cm.tn),
    ]


_REPORT_HEADERS = ["model", "threshold", "accuracy", "precision", "recall",
                   "f1", "tp", "fp", "fn", "tn"]


def report_table(report: EvalReport) -> str:
    return format_table(_REPORT_HEADERS, [_report_row(report)])


def report_csv(report: EvalReport) -> str:
    cm = report.matrix
    cells = [report.model_id, repr(report.threshold)]
    cells.extend(format_value(report.metric(name)) for name in METRIC_NAMES)
    cells.extend(str(v) for v in (cm.tp, cm.fp, cm.fn, cm.tn))
    return ds.csv_table(_REPORT_HEADERS, [cells])


def compare_table(rows) -> str:
    headers = ["Algorithm", "Accuracy", "Precision", "Recall", "F1"]
    body = [
        [label] + [format_value(report.metric(name), ".4f") for name in METRIC_NAMES]
        for label, report in rows
    ]
    return format_table(headers, body)


def compare_csv(rows) -> str:
    return ds.csv_table(
        ("algorithm",) + METRIC_NAMES,
        ([label] + [format_value(report.metric(name)) for name in METRIC_NAMES]
         for label, report in rows),
    )


# --- argument plumbing ----------------------------------------------------------

def _parse_param_flags(pairs) -> dict:
    params = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise BadHyperparameter(f"--param expects name=value, got {pair!r}")
        try:
            params[name] = float(raw)
        except ValueError:
            raise BadHyperparameter(
                f"--param {name}: expected a number, got {raw!r}"
            ) from None
    return params


def _flags(parser, command: str) -> dict:
    """Config key (flag destination) -> argparse action for each flag of
    `command` but --config."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.dest: action
        for action in sub.choices[command]._actions
        if action.option_strings and action.dest not in ("help", "config")
    }


def _flag_value(where: str, key: str, action, value):
    """`value`, if `action`'s flag could hold it: a bool for a switch, one of
    the choices for a choice flag, an object for --param, else a JSON value
    of the flag's type."""
    rule = (bool if action.nargs == 0 else tuple(action.choices) if action.choices
            else dict if action.dest == "params"
            else {int: int, float: NUMBER, None: str}[action.type])
    return check(value, rule, f"{where} key {key!r}")


def _apply_keys(args, where: str, doc: dict, actions: dict) -> None:
    """Set each key's flag destination to its value in `doc`, checked against
    the flag `actions` maps it to; `params` merges over --param."""
    for key in sorted(doc):
        if key not in actions:
            raise BadHyperparameter(
                f"{where} key {key!r} does not apply to command {args.command!r}"
            )
        dest = actions[key].dest
        value = _flag_value(where, key, actions[key], doc[key])
        setattr(args, dest, {**args.params, **value} if dest == "params" else value)


def _run_config(args, algorithm: Algorithm) -> RunConfig:
    """Each run setting from its flag, as the flag holds it, if the command
    has it, else RunConfig's default; `algorithm` is no flag's destination."""
    settings = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    return RunConfig(algorithm=algorithm, **settings)


def _threshold(args, bundle) -> float:
    """--threshold, else the bundle's stored threshold, else RunConfig's default."""
    threshold = args.threshold
    if threshold is None:
        threshold = bundle.train_config.get("threshold", RunConfig.threshold)
    return check_threshold(threshold)


def _add_common(p, with_split=True, with_threshold=True, with_params=False):
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--config", help="JSON config file; its values override flags")
    if with_split:
        p.add_argument("--seed", type=int, default=RunConfig.seed)
        p.add_argument("--test-fraction", type=float, default=RunConfig.test_fraction,
                       dest="test_fraction")
        p.add_argument("--no-smote", action="store_false", dest="smote_enabled",
                       default=RunConfig.smote_enabled, help="disable minority oversampling")
        p.add_argument("--smote-k", type=int, default=RunConfig.smote_k, dest="smote_k")
        p.add_argument("--unseen-policy", choices=[u.value for u in UnseenPolicy],
                       default=RunConfig.unseen_policy.value, dest="unseen_policy")
    if with_threshold:
        p.add_argument("--threshold", type=float, default=RunConfig.threshold)
    if with_params:
        p.add_argument("--param", action="append", default=[], dest="params",
                       metavar="NAME=VALUE",
                       help="algorithm hyperparameter override; repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardiolearn",
        description="Train and evaluate heart-disease classifiers on 11-attribute CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="per-column statistics and class balance")
    _add_common(p, with_split=False, with_threshold=False)
    p.add_argument("--out", help="optional CSV path for the numeric summary")

    p = sub.add_parser("preprocess", help="split, encode, impute, scale, oversample")
    _add_common(p, with_threshold=False)
    p.add_argument("--out", help="optional CSV path for the transformed training matrix")

    p = sub.add_parser("train", help="train one model and write its bundle")
    _add_common(p, with_params=True)
    p.add_argument("--algo", required=True, choices=[a.value for a in Algorithm])
    p.add_argument("--out", default="model.json", help="bundle output path")
    p.add_argument("--curves", help="loss-curve CSV path (rnn only)")
    p.add_argument("--report-csv", dest="report_csv", help="optional CSV path for the report")

    p = sub.add_parser("evaluate", help="score a saved bundle on labeled data")
    p.add_argument("--bundle", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON config file; its values override flags")
    p.add_argument("--threshold", type=float, default=None,
                   help="decision threshold; defaults to the bundle's stored value")
    p.add_argument("--out", help="optional CSV path for the report")

    p = sub.add_parser("predict", help="per-row probabilities for unlabeled data")
    p.add_argument("--bundle", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON config file; its values override flags")
    p.add_argument("--threshold", type=float, default=None,
                   help="decision threshold; defaults to the bundle's stored value")
    p.add_argument("--out", default="predictions.csv")

    p = sub.add_parser("gridsearch", help="exhaustive hyperparameter search by cross-validation")
    _add_common(p)
    p.add_argument("--algo", required=True, choices=[a.value for a in Algorithm])
    p.add_argument("--grid", required=True, help="JSON grid file")
    p.add_argument("--k", type=int, default=GridSpec.k, help="cross-validation folds")
    p.add_argument("--metric", choices=[m.value for m in SelectionMetric],
                   default=GridSpec.selection_metric.value, help="selection metric")
    p.add_argument("--out", default="grid_results.csv")

    p = sub.add_parser("compare", help="train all four algorithms on one shared split")
    _add_common(p)
    p.add_argument("--out", help="optional CSV path for the comparison table")

    p = sub.add_parser("curves", help="train the recurrent model and export its loss curves")
    _add_common(p, with_params=True)
    p.add_argument("--out", default="curves.csv")

    return parser


# --- subcommand handlers ----------------------------------------------------------

def cmd_summarize(args) -> int:
    data = ds.load_csv(args.data)
    report = ds.summarize(data)
    headers = ["feature", "count", "missing", "min", "max", "mean", "std"]
    rows = []
    csv_rows = []
    for name, stats in report.numeric.items():
        rows.append([
            name, str(stats.count), str(stats.missing),
            format_value(stats.minimum, "g"), format_value(stats.maximum, "g"),
            format_value(stats.mean, ".4f"), format_value(stats.std, ".4f"),
        ])
        csv_rows.append([
            name, str(stats.count), str(stats.missing),
            *(format_value(v) for v in (stats.minimum, stats.maximum, stats.mean, stats.std)),
        ])
    print(f"records: {report.n_records}  positive: {report.positives}  "
          f"negative: {report.negatives}  positive fraction: {report.positive_fraction:.4f}")
    print()
    print(format_table(headers, rows))
    print()
    for name, hist in report.categorical.items():
        tokens = "  ".join(f"{token}:{count}" for token, count in hist.items())
        print(f"{name}: {tokens}")
    if args.out:
        atomic_write_text(args.out, ds.csv_table(headers, csv_rows))
        print(f"\nwrote numeric summary to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    data = ds.load_csv(args.data)
    config = _run_config(args, Algorithm.NB)  # no model is fitted here
    split, fp, train_m, test_m = prepare_matrices(data, config)
    outliers = preprocess.flag_outliers(train_m)
    before = split.train.class_counts()
    after = (int((train_m.labels == 0).sum()), int((train_m.labels == 1).sum()))
    print(f"train rows: {len(split.train)}  test rows: {len(split.test)}")
    print(f"class balance before oversampling (neg, pos): {before}")
    print(f"class balance after  oversampling (neg, pos): {after}")
    print(f"outlier cells flagged at |z| > {outliers.threshold_z:g}: {outliers.count} (retained)")
    print()
    headers = ["column", "mean", "std"]
    rows = [
        [name,
         f"{train_m.values[:, i].mean():.6f}",
         f"{train_m.values[:, i].std():.6f}"]
        for i, name in enumerate(train_m.column_names)
    ]
    print(format_table(headers, rows))
    if args.out:
        text = ds.csv_table(
            train_m.column_names + ("label",),
            ([*map(repr, row.tolist()), str(label)]
             for row, label in zip(train_m.values, train_m.labels.tolist())),
        )
        atomic_write_text(args.out, text)
        print(f"\nwrote transformed training matrix to {args.out}")
    return 0


def _default_curves_path(out_path: str) -> str:
    stem, _ = os.path.splitext(out_path)
    return stem + "_curves.csv"


def cmd_train(args) -> int:
    algorithm = Algorithm(args.algo)
    if args.curves and algorithm is not Algorithm.RNN:
        raise BadHyperparameter("--curves applies only to --algo rnn")
    data = ds.load_csv(args.data)
    config = _run_config(args, algorithm)
    outcome = run_training(data, config)
    save_bundle(outcome.bundle, args.out)
    print(report_table(outcome.report))
    print(f"\nbundle written to {args.out}")
    if outcome.history is not None:
        curves_path = args.curves or _default_curves_path(args.out)
        atomic_write_text(curves_path, outcome.history.csv_text())
        print(f"loss curves written to {curves_path} "
              f"(best epoch {outcome.history.best_epoch}, "
              f"stopped at {outcome.history.stopped_epoch})")
    if args.report_csv:
        atomic_write_text(args.report_csv, report_csv(outcome.report))
        print(f"report CSV written to {args.report_csv}")
    return 0


def cmd_evaluate(args) -> int:
    bundle = load_bundle(args.bundle)
    data = ds.load_csv(args.data)
    matrix = preprocess.transform(bundle.preprocessor, data)
    report = evaluate_model(
        bundle.model, matrix, _threshold(args, bundle),
        model_id=ALGORITHM_LABELS[bundle.algorithm],
    )
    print(report_table(report))
    if args.out:
        atomic_write_text(args.out, report_csv(report))
        print(f"\nreport CSV written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    bundle = load_bundle(args.bundle)
    data = ds.load_unlabeled_csv(args.data)
    threshold = _threshold(args, bundle)
    probabilities = predict_probabilities(bundle.preprocessor, bundle.model, data)
    text = ds.csv_table(
        ("row_index", "probability", "label"),
        ((str(i), repr(p), "1" if p >= threshold else "0") for i, p in enumerate(probabilities)),
    )
    atomic_write_text(args.out, text)
    print(f"wrote {len(probabilities)} prediction(s) to {args.out}")
    return 0


def cmd_gridsearch(args) -> int:
    algorithm = Algorithm(args.algo)
    data = ds.load_csv(args.data)
    doc = check(read_json(args.grid, "grid file", BadHyperparameter), {"grid": dict}, "grid file")
    grid = doc.pop("grid")
    _apply_keys(args, "grid-file", doc,
                {key: args.flags[flag] for key, flag in _GRID_FILE_FLAGS.items()})
    for name, candidates in grid.items():
        check(candidates, list, f"grid entry {name!r}")
    config = _run_config(args, algorithm)
    metric = SelectionMetric(args.metric)
    spec = GridSpec(grid=grid, selection_metric=metric, k=args.k)
    result = grid_search(spec, config, data)
    atomic_write_text(args.out, results_csv(result))
    headers = ["params", f"mean {metric.value}", f"std {metric.value}"]
    rows = [
        [
            format_params(candidate.params),
            format_value(candidate.cv.summary.means[metric.value], ".4f"),
            format_value(candidate.cv.summary.stds[metric.value], ".4f"),
        ]
        for candidate in result.candidates
    ]
    print(format_table(headers, rows))
    best_mean = format_value(result.best_mean, ".4f")
    print(f"\nbest: {format_params(result.best_params)} "
          f"(mean {metric.value} {best_mean} over {spec.k} folds)")
    print(f"fold-level results written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    data = ds.load_csv(args.data)
    config = _run_config(args, Algorithm.NB)  # per-algorithm families fixed below
    rows = run_compare(data, config)
    print(compare_table(rows))
    if args.out:
        atomic_write_text(args.out, compare_csv(rows))
        print(f"\ncomparison CSV written to {args.out}")
    return 0


def cmd_curves(args) -> int:
    data = ds.load_csv(args.data)
    config = _run_config(args, Algorithm.RNN)
    outcome = run_training(data, config)
    atomic_write_text(args.out, outcome.history.csv_text())
    history = outcome.history
    print(f"wrote {len(history.train_losses)} epochs to {args.out} "
          f"(best epoch {history.best_epoch}, stopped at {history.stopped_epoch})")
    return 0


_HANDLERS = {
    "summarize": cmd_summarize,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "gridsearch": cmd_gridsearch,
    "compare": cmd_compare,
    "curves": cmd_curves,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.flags = _flags(parser, args.command)
    try:
        args.params = _parse_param_flags(getattr(args, "params", []))
        if args.config:
            doc = read_json(args.config, "config file", BadHyperparameter)
            _apply_keys(args, "config", check(doc, dict, "config file"), args.flags)
        return _HANDLERS[args.command](args)
    except CardioLearnError as exc:
        message = " ".join(str(exc).split())
        print(f"{exc.code} {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_CODES.get(exc.code, EXIT_CODES["E_DATA"])
    except OSError as exc:
        message = " ".join(str(exc).split())
        print(f"E_IO {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_CODES["E_IO"]


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
