"""Command-line surface for the toolkit.

Subcommands: summarize, preprocess, train, evaluate, predict, gridsearch,
compare, curves. Each result is built here once as rows of plain values
(str, int, float, or None for an undefined metric): `format_table` prints it
to stdout with a format spec per column, and `rows_csv` writes it as CSV,
each cell in the default spec; every output path is checked writable, and
distinct from the command's other outputs, before the command loads
anything, and files are written atomically. Failures
print exactly one machine-parseable line to stderr,
`<CODE> <ErrorType>: <message>`, and map to stable exit codes:

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
    GridSearchResult,
    GridSpec,
    RunConfig,
    SelectionMetric,
    check_threshold,
    evaluate_model,
    grid_search,
)
from .hyperparams import NUMBER, check
from .persistence import atomic_write_text, check_writable, load_bundle, read_json, save_bundle
from .pipeline import predict_probabilities, prepare_matrices, run_compare, run_training
from .preprocess import UnseenPolicy
from .rnn import TrainHistory
from .training import ALGORITHM_LABELS, Algorithm

EXIT_CODES = {"E_IO": 2, "E_SCHEMA": 3, "E_CONFIG": 4, "E_VERSION": 5, "E_DATA": 6}

# grid-file keys and the destination of the --flag each sets
_GRID_FILE_FLAGS = {"k": "k", "seed": "seed", "selection_metric": "metric"}


# --- result tables -------------------------------------------------------------

def format_value(value, spec: str = "") -> str:
    """One result cell: `value` in format `spec`, or NA when it is undefined.
    The default spec writes a float as its shortest round-trip repr and an
    int or str as it is."""
    return "NA" if value is None else f"{value:{spec}}"


def format_params(params: dict) -> str:
    return ";".join(f"{name}={params[name]!r}" for name in sorted(params)) or "-"


def format_table(headers, rows, specs) -> str:
    """Aligned stdout table, each cell in its column's format spec."""
    cells = [[format_value(cell, spec) for cell, spec in zip(row, specs)] for row in rows]
    widths = [max(map(len, column)) for column in zip(headers, *cells)]
    def line(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def csv_table(header, rows) -> str:
    """Header line plus one line per row of text cells, joined by commas
    without quoting; the text ends with a newline."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def rows_csv(header, rows) -> str:
    """`csv_table` of result rows, each cell in the default spec."""
    return csv_table(header, (map(format_value, row) for row in rows))


_METRIC_SPECS = (".4f",) * len(METRIC_NAMES)
_REPORT_HEADERS = ("model", "threshold") + METRIC_NAMES + ("tp", "fp", "fn", "tn")
_REPORT_SPECS = ("", "g") + _METRIC_SPECS + ("",) * 4


def _report_rows(report: EvalReport) -> list:
    cm = report.matrix
    return [[report.model_id, report.threshold, *map(report.metric, METRIC_NAMES),
             cm.tp, cm.fp, cm.fn, cm.tn]]


def results_csv(result: GridSearchResult) -> str:
    """Fold-level results table: model_id,params,fold,accuracy,precision,recall,f1."""
    return rows_csv(
        ("model_id", "params", "fold") + METRIC_NAMES,
        ([report.model_id, format_params(candidate.params), fold,
          *map(report.metric, METRIC_NAMES)]
         for candidate in result.candidates
         for fold, report in enumerate(candidate.cv.fold_reports)),
    )


def curves_csv(history: TrainHistory) -> str:
    """Per-epoch losses of an RNN fit: epoch,train_loss,val_loss."""
    epochs = range(1, history.stopped_epoch + 1)
    return rows_csv(("epoch", "train_loss", "val_loss"),
                    zip(epochs, history.train_losses, history.val_losses))


# --- argument plumbing ----------------------------------------------------------

def _parse_param_flags(pairs) -> dict:
    params = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise BadHyperparameter(f"--param expects name=value, got {pair!r}")
        for number in (int, float):  # int first: an integer keeps every digit
            try:
                params[name] = number(raw)
                break
            except ValueError:
                pass
        else:
            raise BadHyperparameter(f"--param {name}: expected a number, got {raw!r}")
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


def _add_bundle_flags(p):
    """The flags of a command that runs a saved bundle on a CSV."""
    p.add_argument("--bundle", required=True)
    _add_common(p, with_split=False, with_threshold=False)
    p.add_argument("--threshold", type=float, default=None,
                   help="decision threshold; defaults to the bundle's stored value")


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
    _add_bundle_flags(p)
    p.add_argument("--out", help="optional CSV path for the report")

    p = sub.add_parser("predict", help="per-row probabilities for unlabeled data")
    _add_bundle_flags(p)
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
    rows = [[name, stats.count, stats.missing, stats.minimum, stats.maximum, stats.mean, stats.std]
            for name, stats in report.numeric.items()]
    print(f"records: {report.n_records}  positive: {report.positives}  "
          f"negative: {report.negatives}  positive fraction: {report.positive_fraction:.4f}")
    print()
    print(format_table(headers, rows, ("", "", "", "g", "g", ".4f", ".4f")))
    print()
    for name, hist in report.categorical.items():
        tokens = "  ".join(f"{token}:{count}" for token, count in hist.items())
        print(f"{name}: {tokens}")
    if args.out:
        atomic_write_text(args.out, rows_csv(headers, rows))
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
    print(f"outlier cells flagged at |z| > {preprocess.OUTLIER_Z:g}: {outliers} (retained)")
    print()
    rows = [[name, train_m.values[:, i].mean(), train_m.values[:, i].std()]
            for i, name in enumerate(train_m.column_names)]
    print(format_table(["column", "mean", "std"], rows, ("", ".6f", ".6f")))
    if args.out:
        text = csv_table(
            train_m.column_names + ("label",),
            ([*map(repr, row.tolist()), str(label)]
             for row, label in zip(train_m.values, train_m.labels.tolist())),
        )
        atomic_write_text(args.out, text)
        print(f"\nwrote transformed training matrix to {args.out}")
    return 0


def _curves_path(args):
    """train's loss-curve path: --curves, else the bundle path's stem plus
    `_curves.csv`, for an rnn; None for any other algorithm."""
    if Algorithm(args.algo) is not Algorithm.RNN:
        if args.curves:
            raise BadHyperparameter("--curves applies only to --algo rnn")
        return None
    stem, _ = os.path.splitext(args.out)
    return args.curves or stem + "_curves.csv"


def _output_paths(args) -> dict:
    """Each output flag of the command and the path it names, None where the
    command writes none; train's derived loss-curve path counts as --curves."""
    if args.command == "train":
        return {"--out": args.out, "--curves": _curves_path(args), "--report-csv": args.report_csv}
    return {"--out": args.out}


def cmd_train(args) -> int:
    algorithm = Algorithm(args.algo)
    curves_path = _curves_path(args)
    data = ds.load_csv(args.data)
    config = _run_config(args, algorithm)
    outcome = run_training(data, config)
    save_bundle(outcome.bundle, args.out)
    rows = _report_rows(outcome.report)
    print(format_table(_REPORT_HEADERS, rows, _REPORT_SPECS))
    print(f"\nbundle written to {args.out}")
    if outcome.history is not None:
        atomic_write_text(curves_path, curves_csv(outcome.history))
        print(f"loss curves written to {curves_path} "
              f"(best epoch {outcome.history.best_epoch}, "
              f"stopped at {outcome.history.stopped_epoch})")
    if args.report_csv:
        atomic_write_text(args.report_csv, rows_csv(_REPORT_HEADERS, rows))
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
    rows = _report_rows(report)
    print(format_table(_REPORT_HEADERS, rows, _REPORT_SPECS))
    if args.out:
        atomic_write_text(args.out, rows_csv(_REPORT_HEADERS, rows))
        print(f"\nreport CSV written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    bundle = load_bundle(args.bundle)
    data = ds.load_unlabeled_csv(args.data)
    threshold = _threshold(args, bundle)
    probabilities = predict_probabilities(bundle.preprocessor, bundle.model, data)
    text = csv_table(
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
    rows = [[format_params(candidate.params), candidate.cv.means[metric.value],
             candidate.cv.stds[metric.value]] for candidate in result.candidates]
    print(format_table(headers, rows, ("", ".4f", ".4f")))
    best_mean = format_value(result.best_mean, ".4f")
    print(f"\nbest: {format_params(result.best_params)} "
          f"(mean {metric.value} {best_mean} over {spec.k} folds)")
    print(f"fold-level results written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    data = ds.load_csv(args.data)
    config = _run_config(args, Algorithm.NB)  # per-algorithm families fixed below
    rows = [[label, *map(report.metric, METRIC_NAMES)]
            for label, report in run_compare(data, config)]
    print(format_table(["Algorithm", "Accuracy", "Precision", "Recall", "F1"], rows,
                       ("",) + _METRIC_SPECS))
    if args.out:
        atomic_write_text(args.out, rows_csv(("algorithm",) + METRIC_NAMES, rows))
        print(f"\ncomparison CSV written to {args.out}")
    return 0


def cmd_curves(args) -> int:
    data = ds.load_csv(args.data)
    config = _run_config(args, Algorithm.RNN)
    outcome = run_training(data, config)
    history = outcome.history
    atomic_write_text(args.out, curves_csv(history))
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
        # fail on an unwritable output, or on two outputs naming one file,
        # before any load or fit, and before any file is written
        flags_by_file = {}
        for flag, path in _output_paths(args).items():
            if path:
                check_writable(path)
                first = flags_by_file.setdefault(os.path.realpath(path), flag)
                if first != flag:
                    raise BadHyperparameter(f"{first} and {flag} name one file: {path}")
        return _HANDLERS[args.command](args)
    except (CardioLearnError, OSError) as exc:
        code = exc.code if isinstance(exc, CardioLearnError) else "E_IO"
        message = " ".join(str(exc).split())
        print(f"{code} {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_CODES.get(code, EXIT_CODES["E_DATA"])


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
