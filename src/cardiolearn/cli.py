"""Command-line surface for the toolkit.

Subcommands: summarize, preprocess, train, evaluate, predict, gridsearch,
compare, curves. Human-readable output goes to stdout as aligned tables;
CSV artifacts are written atomically. Failures print exactly one
machine-parseable line to stderr, `<CODE> <ErrorType>: <message>`, and map
to stable exit codes:

    E_IO       2    E_SCHEMA   3    E_CONFIG   4
    E_VERSION  5    E_DATA     6

A JSON file passed via --config supplies the same settings as the flags
(keys named like the flag destinations, e.g. test_fraction, smote_enabled)
and takes precedence over flag values.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

from . import dataset as ds
from . import preprocess
from .errors import BadHyperparameter, CardioLearnError
from .evaluation import (
    METRIC_NAMES,
    EvalReport,
    GridSpec,
    SelectionMetric,
    csv_value,
    evaluate_model,
    format_params,
    grid_search,
    results_csv,
)
from .persistence import atomic_write_text, load_bundle, save_bundle
from .pipeline import (
    RunConfig,
    predict_probabilities,
    prepare_matrices,
    run_compare,
    run_training,
)
from .preprocess import UnseenPolicy
from .training import ALGORITHM_LABELS, Algorithm, parse_algorithm

EXIT_CODES = {"E_IO": 2, "E_SCHEMA": 3, "E_CONFIG": 4, "E_VERSION": 5, "E_DATA": 6}

_CONFIG_KEYS = {
    "data", "algo", "seed", "test_fraction", "threshold", "smote_enabled",
    "smote_k", "unseen_policy", "out", "curves", "report_csv", "params",
    "k", "metric", "grid", "bundle",
}

# JSON type (and wording) of typed config / grid-file scalars; bools are not numbers
_SCALAR_TYPES = {
    "seed": (int, "an integer"),
    "k": (int, "an integer"),
    "smote_k": (int, "an integer"),
    "test_fraction": ((int, float), "a number"),
    "threshold": ((int, float), "a number"),
    "smote_enabled": (bool, "true or false"),
}


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


def _fmt_metric(value) -> str:
    return "NA" if value is None else f"{value:.4f}"


def _report_row(report: EvalReport):
    cm = report.matrix
    return [
        report.model_id,
        f"{report.threshold:g}",
        _fmt_metric(report.accuracy),
        _fmt_metric(report.precision),
        _fmt_metric(report.recall),
        _fmt_metric(report.f1),
        str(cm.tp), str(cm.fp), str(cm.fn), str(cm.tn),
    ]


_REPORT_HEADERS = ["model", "threshold", "accuracy", "precision", "recall",
                   "f1", "tp", "fp", "fn", "tn"]


def report_table(report: EvalReport) -> str:
    return format_table(_REPORT_HEADERS, [_report_row(report)])


def report_csv(report: EvalReport) -> str:
    cm = report.matrix
    cells = [report.model_id, repr(report.threshold)]
    cells.extend(csv_value(report.metric(name)) for name in METRIC_NAMES)
    cells.extend(str(v) for v in (cm.tp, cm.fp, cm.fn, cm.tn))
    return ds.csv_table(_REPORT_HEADERS, [cells])


def compare_table(rows) -> str:
    headers = ["Algorithm", "Accuracy", "Precision", "Recall", "F1"]
    body = [
        [label] + [_fmt_metric(report.metric(name)) for name in METRIC_NAMES]
        for label, report in rows
    ]
    return format_table(headers, body)


def compare_csv(rows) -> str:
    return ds.csv_table(
        ("algorithm",) + METRIC_NAMES,
        ([label] + [csv_value(report.metric(name)) for name in METRIC_NAMES]
         for label, report in rows),
    )


# --- argument plumbing ----------------------------------------------------------

def _parse_param_flags(pairs) -> dict:
    params = {}
    for pair in pairs or []:
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


def _coerce_params(raw) -> dict:
    """Accept either --param NAME=VALUE strings or an already-merged dict."""
    if isinstance(raw, dict):
        return dict(raw)
    return _parse_param_flags(raw)


def _load_json(path, what):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal over the digit limit
        raise BadHyperparameter(f"{what} file {path} is not valid JSON: {exc}") from None


def _check_scalar(where: str, key: str, value) -> None:
    if key not in _SCALAR_TYPES:
        return
    expected, wording = _SCALAR_TYPES[key]
    if not isinstance(value, expected) or isinstance(value, bool) != (expected is bool):
        raise BadHyperparameter(f"{where} key {key!r} must be {wording}, got {value!r}")


def _apply_config_file(args) -> None:
    if not getattr(args, "config", None):
        return
    doc = _load_json(args.config, "config")
    if not isinstance(doc, dict):
        raise BadHyperparameter("config file must hold a JSON object")
    for key in sorted(doc):
        if key not in _CONFIG_KEYS:
            raise BadHyperparameter(f"unknown config key {key!r}")
        value = doc[key]
        if key == "params":
            if not isinstance(value, dict):
                raise BadHyperparameter("config key 'params' must be an object")
            if not hasattr(args, "param"):
                raise BadHyperparameter(
                    f"config key 'params' does not apply to command {args.command!r}"
                )
            merged = _coerce_params(args.param)
            merged.update(value)
            args.param = merged
            continue
        if not hasattr(args, key):
            raise BadHyperparameter(
                f"config key {key!r} does not apply to command {args.command!r}"
            )
        _check_scalar("config", key, value)
        setattr(args, key, value)


def _run_config(args, algorithm: Algorithm, params=None) -> RunConfig:
    return RunConfig(
        algorithm=algorithm,
        test_fraction=float(args.test_fraction),
        seed=int(args.seed),
        threshold=float(args.threshold),
        smote_enabled=bool(args.smote_enabled),
        smote_k=int(args.smote_k),
        unseen_policy=UnseenPolicy(args.unseen_policy),
        params=params if params is not None else {},
    )


def _add_common(p, with_split=True, with_threshold=True, with_params=False):
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--config", help="JSON config file; its values override flags")
    if with_split:
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--test-fraction", type=float, default=0.2, dest="test_fraction")
        p.add_argument("--no-smote", action="store_false", dest="smote_enabled",
                       default=True, help="disable minority oversampling")
        p.add_argument("--smote-k", type=int, default=5, dest="smote_k")
        p.add_argument("--unseen-policy", choices=[u.value for u in UnseenPolicy],
                       default="error", dest="unseen_policy")
    if with_threshold:
        p.add_argument("--threshold", type=float, default=0.5)
    if with_params:
        p.add_argument("--param", action="append", default=[], dest="param",
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
    p.add_argument("--k", type=int, default=5, help="cross-validation folds")
    p.add_argument("--metric", choices=[m.value for m in SelectionMetric],
                   default="accuracy", help="selection metric")
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
        def cell(v, fmt="{:.4f}"):
            return "NA" if v is None else fmt.format(v)
        rows.append([
            name, str(stats.count), str(stats.missing),
            cell(stats.minimum, "{:g}"), cell(stats.maximum, "{:g}"),
            cell(stats.mean), cell(stats.std),
        ])
        csv_rows.append([
            name, str(stats.count), str(stats.missing),
            *(csv_value(v) for v in (stats.minimum, stats.maximum, stats.mean, stats.std)),
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
    config = RunConfig(
        algorithm=Algorithm.NB,  # placeholder; no model is fitted here
        test_fraction=float(args.test_fraction),
        seed=int(args.seed),
        smote_enabled=bool(args.smote_enabled),
        smote_k=int(args.smote_k),
        unseen_policy=UnseenPolicy(args.unseen_policy),
    )
    config.validate()
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
            ([repr(float(v)) for v in row] + [str(int(label))]
             for row, label in zip(train_m.values, train_m.labels)),
        )
        atomic_write_text(args.out, text)
        print(f"\nwrote transformed training matrix to {args.out}")
    return 0


def _default_curves_path(out_path: str) -> str:
    stem, _ = os.path.splitext(out_path)
    return stem + "_curves.csv"


def cmd_train(args) -> int:
    algorithm = parse_algorithm(args.algo)
    if args.curves and algorithm is not Algorithm.RNN:
        raise BadHyperparameter("--curves applies only to --algo rnn")
    params = _coerce_params(args.param)
    data = ds.load_csv(args.data)
    config = _run_config(args, algorithm, params)
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
    threshold = args.threshold
    if threshold is None:
        threshold = float(bundle.train_config.get("threshold", 0.5))
    report = evaluate_model(
        bundle.model, matrix, threshold,
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
    threshold = args.threshold
    if threshold is None:
        threshold = float(bundle.train_config.get("threshold", 0.5))
    if not 0.0 < threshold < 1.0:
        raise BadHyperparameter(f"threshold must be in (0, 1), got {threshold}")
    probabilities = predict_probabilities(bundle.preprocessor, bundle.model, data)
    text = ds.csv_table(
        ("row_index", "probability", "label"),
        ((str(i), repr(p), "1" if p >= threshold else "0") for i, p in enumerate(probabilities)),
    )
    atomic_write_text(args.out, text)
    print(f"wrote {len(probabilities)} prediction(s) to {args.out}")
    return 0


def cmd_gridsearch(args) -> int:
    algorithm = parse_algorithm(args.algo)
    data = ds.load_csv(args.data)
    doc = _load_json(args.grid, "grid")
    if not isinstance(doc, dict) or not isinstance(doc.get("grid"), dict):
        raise BadHyperparameter("grid file must be a JSON object with a 'grid' mapping")
    for key in doc:
        if key not in {"grid", "selection_metric", "k", "seed"}:
            raise BadHyperparameter(f"unknown grid-file key {key!r}")
        _check_scalar("grid-file", key, doc[key])
    for name, candidates in doc["grid"].items():
        if not isinstance(candidates, list):
            raise BadHyperparameter(f"grid entry {name!r} must be a list of candidates")
    metric_token = doc.get("selection_metric", args.metric)
    try:
        metric = SelectionMetric(metric_token)
    except ValueError:
        raise BadHyperparameter(f"unknown selection metric {metric_token!r}") from None
    config = replace(_run_config(args, algorithm), seed=doc.get("seed", args.seed))
    config.validate()
    spec = GridSpec(
        grid=doc["grid"],
        selection_metric=metric,
        k=doc.get("k", args.k),
        seed=config.seed,
    )
    result = grid_search(
        spec, algorithm, data,
        threshold=config.threshold,
        smote_enabled=config.smote_enabled,
        smote_k=config.smote_k,
        unseen_policy=config.unseen_policy,
    )
    atomic_write_text(args.out, results_csv(result))
    headers = ["params", f"mean {metric.value}", f"std {metric.value}"]
    rows = [
        [
            format_params(candidate.params),
            _fmt_metric(candidate.cv.summary.means[metric.value]),
            _fmt_metric(candidate.cv.summary.stds[metric.value]),
        ]
        for candidate in result.candidates
    ]
    print(format_table(headers, rows))
    best_mean = _fmt_metric(result.best_mean)
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
    params = _coerce_params(args.param)
    data = ds.load_csv(args.data)
    config = _run_config(args, Algorithm.RNN, params)
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
    try:
        _apply_config_file(args)
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
