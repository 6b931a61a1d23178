"""The four benchmark workloads: inputs, one operation, and output checks.

Every workload drives ``cardiolearn.cli.main`` in-process as a closed loop
with one client: each operation starts when the previous one returns. Inputs
are a pure function of the workload seed and the size profile. The amount
of work per operation does not depend on the seed (row counts and class
counts are fixed, RNN epochs and boosting rounds are pinned), so run-to-run
spread measures the program and the machine, not the data.

Each definition records why it was chosen and which per-layer metrics move
which end-to-end metric on it, so a later change can name one workload that
exercises its mechanism and one that bypasses it.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Tuple

from cardiolearn import cli
from cardiolearn.dataset import synth_generate, write_csv

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# An accuracy may move by two rows of the 184-row test partition of a
# 918-row run. That admits a last-ulp change in RNN arithmetic flipping a
# borderline row, and still catches a model that learns something else.
ACCURACY_TOLERANCE = 0.011


@dataclass(frozen=True)
class Sizes:
    """Input sizes for one profile; `smoke` runs the same code paths tiny."""
    train_rows: int
    rnn_epochs: int
    boost_rounds: int
    grid_rounds: int
    k: int
    predict_rows: int
    preprocess_rows: int
    accuracy_floor: float   # used only for a seed with no recorded reference


PROFILES = {
    "full": Sizes(train_rows=918, rnn_epochs=5, boost_rounds=5, grid_rounds=10,
                  k=5, predict_rows=1000, preprocess_rows=6000, accuracy_floor=0.8),
    "smoke": Sizes(train_rows=120, rnn_epochs=2, boost_rounds=3, grid_rounds=2,
                   k=3, predict_rows=50, preprocess_rows=300, accuracy_floor=0.0),
}


class OpFailed(Exception):
    """A CLI call exited nonzero or its output failed a check."""


class Context:
    """Per-run state: the work directory, seed and sizes."""

    def __init__(self, workdir, seed, profile):
        self.dir = workdir
        self.seed = seed
        self.profile = profile
        self.sizes = PROFILES[profile]

    def path(self, name):
        return os.path.join(self.dir, name)


def call_cli(argv):
    """Run one CLI command in-process; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
    except SystemExit as exc:   # argparse rejects a command line this way
        code = exc.code
    if code != 0:
        raise OpFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def digest(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def file_digest(path):
    with open(path, "rb") as handle:
        return digest(handle.read())


def bundle_digest(path):
    """Bundle bytes with the wall-clock `created_at` field removed."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    doc.pop("created_at", None)
    return digest(json.dumps(doc, sort_keys=True))


def read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def write_labeled(ctx, name, n, positive_fraction, seed):
    write_csv(synth_generate(n, positive_fraction, seed), ctx.path(name))


def round_half_up(x):
    return int(math.floor(x + 0.5))


def check_accuracies(ctx, workload, accuracies):
    """Compare against the reference recorded for this seed, else the floor."""
    problems = []
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        table = json.load(handle)
    reference = table.get(ctx.profile, {}).get(workload, {}).get(str(ctx.seed))
    for name, value in sorted(accuracies.items()):
        if reference is not None:
            if abs(value - reference[name]) > ACCURACY_TOLERANCE:
                problems.append(f"{name} {value!r} differs from reference "
                                f"{reference[name]!r} by more than {ACCURACY_TOLERANCE}")
        elif not value >= ctx.sizes.accuracy_floor:
            problems.append(f"{name} {value!r} below floor {ctx.sizes.accuracy_floor}")
    return problems


@dataclass(frozen=True)
class Result:
    """What one operation's check found: digests to compare across
    operations, rows processed, accuracies, and failed output checks."""
    digests: Tuple[Tuple[str, str], ...]
    rows: int
    accuracies: dict
    problems: Tuple[str, ...]


# --- train-all-918 ----------------------------------------------------------------

TRAIN_FAMILIES = ("rnn", "nb", "gb", "xgb")   # compare's order


def setup_train_all(ctx):
    write_labeled(ctx, "train.csv", ctx.sizes.train_rows, 0.55, ctx.seed)
    return {"train.csv": file_digest(ctx.path("train.csv"))}


def op_train_all(ctx):
    s = ctx.sizes
    family_params = {
        "rnn": ["--param", f"max_epochs={s.rnn_epochs}", "--param", f"patience={s.rnn_epochs}"],
        "nb": [],
        "gb": ["--param", f"n_rounds={s.boost_rounds}"],
        "xgb": ["--param", f"n_rounds={s.boost_rounds}"],
    }
    return [call_cli(["train", "--data", ctx.path("train.csv"), "--algo", family,
                      "--seed", ctx.seed, "--out", ctx.path(f"{family}.json"),
                      "--report-csv", ctx.path(f"{family}_report.csv"),
                      *family_params[family]])
            for family in TRAIN_FAMILIES]


def check_train_all(ctx, stdouts):
    s = ctx.sizes
    digests, accuracies, problems = [], {}, []
    for family, stdout in zip(TRAIN_FAMILIES, stdouts):
        report = ctx.path(f"{family}_report.csv")
        digests += [(f"{family}.stdout", digest(stdout)),
                    (f"{family}.json", bundle_digest(ctx.path(f"{family}.json"))),
                    (f"{family}_report.csv", file_digest(report))]
        if family == "rnn":
            curves = read_rows(ctx.path("rnn_curves.csv"))
            digests.append(("rnn_curves.csv", file_digest(ctx.path("rnn_curves.csv"))))
            if len(curves) - 1 != s.rnn_epochs:
                problems.append(f"rnn ran {len(curves) - 1} epochs, expected {s.rnn_epochs}")
        header, row = read_rows(report)
        accuracies[f"accuracy_{family}"] = float(row[header.index("accuracy")])
    problems += check_accuracies(ctx, "train-all-918", accuracies)
    return Result(tuple(digests), s.train_rows, accuracies, tuple(problems))


# --- gridsearch-xgb ---------------------------------------------------------------

GRID_DEPTHS = (2, 3)


def setup_gridsearch(ctx):
    write_labeled(ctx, "grid_data.csv", ctx.sizes.train_rows, 0.55, ctx.seed)
    grid = {"grid": {"max_depth": list(GRID_DEPTHS), "n_rounds": [ctx.sizes.grid_rounds]}}
    with open(ctx.path("grid.json"), "w", encoding="utf-8") as handle:
        json.dump(grid, handle)
    return {name: file_digest(ctx.path(name)) for name in ("grid_data.csv", "grid.json")}


def op_gridsearch(ctx):
    return call_cli(["gridsearch", "--data", ctx.path("grid_data.csv"), "--algo", "xgb",
                     "--k", ctx.sizes.k, "--grid", ctx.path("grid.json"),
                     "--seed", ctx.seed, "--out", ctx.path("grid_results.csv")])


def check_gridsearch(ctx, stdout):
    out = ctx.path("grid_results.csv")
    header, *rows = read_rows(out)
    problems = []
    expected = len(GRID_DEPTHS) * ctx.sizes.k
    if len(rows) != expected:
        problems.append(f"grid results hold {len(rows)} fold rows, expected {expected}")
    by_params = {}
    for row in rows:
        by_params.setdefault(row[header.index("params")], []).append(
            float(row[header.index("accuracy")]))
    accuracies = {"cv_accuracy_best": max(sum(v) / len(v) for v in by_params.values())}
    problems += check_accuracies(ctx, "gridsearch-xgb", accuracies)
    digests = (("stdout", digest(stdout)), ("grid_results.csv", file_digest(out)))
    return Result(digests, ctx.sizes.train_rows, accuracies, tuple(problems))


# --- predict-xgb ------------------------------------------------------------------

def setup_predict(ctx):
    write_labeled(ctx, "bundle_train.csv", ctx.sizes.train_rows, 0.55, ctx.seed)
    call_cli(["train", "--data", ctx.path("bundle_train.csv"), "--algo", "xgb",
              "--seed", ctx.seed, "--out", ctx.path("bundle.json")])
    # The unlabeled file is a labeled one with its last (label) column cut.
    write_labeled(ctx, "labeled.csv", ctx.sizes.predict_rows, 0.5, ctx.seed + 1)
    with open(ctx.path("labeled.csv"), "r", encoding="utf-8") as src, \
            open(ctx.path("unlabeled.csv"), "w", encoding="utf-8") as dst:
        for line in src:
            dst.write(line.rstrip("\n").rsplit(",", 1)[0] + "\n")
    return {"bundle.json": bundle_digest(ctx.path("bundle.json")),
            "unlabeled.csv": file_digest(ctx.path("unlabeled.csv"))}


def op_predict(ctx):
    return call_cli(["predict", "--bundle", ctx.path("bundle.json"),
                     "--data", ctx.path("unlabeled.csv"), "--out", ctx.path("predictions.csv")])


def check_predict(ctx, stdout):
    out = ctx.path("predictions.csv")
    header, *rows = read_rows(out)
    problems = []
    if header != ["row_index", "probability", "label"]:
        problems.append(f"unexpected predictions header {header}")
    if len(rows) != ctx.sizes.predict_rows:
        problems.append(f"{len(rows)} predictions for {ctx.sizes.predict_rows} rows")
    for i, (index, prob, label) in enumerate(rows):
        p = float(prob)
        if index != str(i) or not (math.isfinite(p) and 0.0 <= p <= 1.0) \
                or label != ("1" if p >= 0.5 else "0"):
            problems.append(f"bad prediction row {i}: {index},{prob},{label}")
            break
    digests = (("stdout", digest(stdout)), ("predictions.csv", file_digest(out)))
    return Result(digests, ctx.sizes.predict_rows, {}, tuple(problems))


# --- preprocess-6000 --------------------------------------------------------------

PREPROCESS_POSITIVE = 0.45


def setup_preprocess(ctx):
    write_labeled(ctx, "pre.csv", ctx.sizes.preprocess_rows, PREPROCESS_POSITIVE, ctx.seed)
    return {"pre.csv": file_digest(ctx.path("pre.csv"))}


def expected_balanced_rows(n, positive_fraction, test_fraction=0.2):
    """Training rows after SMOTE: twice the larger class of the training side."""
    positives = round_half_up(n * positive_fraction)
    train = [c - round_half_up(c * test_fraction) for c in (positives, n - positives)]
    return 2 * max(train)


def op_preprocess(ctx):
    return call_cli(["preprocess", "--data", ctx.path("pre.csv"), "--seed", ctx.seed,
                     "--out", ctx.path("pre_out.csv")])


def check_preprocess(ctx, stdout):
    out = ctx.path("pre_out.csv")
    header, *rows = read_rows(out)
    problems = []
    expected = expected_balanced_rows(ctx.sizes.preprocess_rows, PREPROCESS_POSITIVE)
    if header[-1] != "label" or len(rows) != expected:
        problems.append(f"{len(rows)} transformed rows, expected {expected}")
    positives = sum(row[-1] == "1" for row in rows)
    if 2 * positives != len(rows):
        problems.append(f"{positives} positive of {len(rows)} rows after oversampling")
    if not all(math.isfinite(float(v)) for row in rows for v in row[:-1]):
        problems.append("non-finite value in the transformed matrix")
    digests = (("stdout", digest(stdout)), ("pre_out.csv", file_digest(out)))
    return Result(digests, ctx.sizes.preprocess_rows, {}, tuple(problems))


# --- definitions ------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str                        # one line; copied into BENCHMARK.json
    moves: Tuple[Tuple[str, str], ...]   # (per-layer metrics, end-to-end metric they move)
    bypasses: str                   # layers this workload does not reach
    setup: Callable                 # ctx -> digests of the inputs it wrote
    op: Callable                    # ctx -> stdout; the timed operation
    check: Callable                 # (ctx, stdout) -> Result; not timed


WORKLOADS = (
    Workload(
        name="train-all-918",
        why="train rnn, nb, gb and xgb on one 918-row split with RNN epochs pinned; "
            "the RNN-dominated end-to-end fit where an RNN gain shows",
        moves=(
            ("rnn.* (training.fit_s.rnn about 55% of op_s)", "op_s, rows_per_s"),
            ("boosting.*, training.fit_s.gb/xgb (about 15%)", "op_s"),
            ("preprocess.smote_s (about 15%: four training sides of 734 rows)", "op_s"),
            ("training.fit_s.*, bayes.fit_s, pipeline.prepare_matrices_s", "fit share of op_s"),
            ("persistence.atomic_write_s (bundles, reports, curves)", "op_s, under 1%"),
        ),
        bypasses="load_bundle, predict_probabilities, cross_validate; "
                 "CSV load, split, preprocess fit and transform are about 8%",
        setup=setup_train_all,
        op=op_train_all,
        check=check_train_all,
    ),
    Workload(
        name="gridsearch-xgb",
        why="5-fold grid search over xgb depth on 918 rows; boosting split search "
            "undiluted and the only user of cross_validate and grid_search",
        moves=(
            ("boosting.fit_tree_s, boosting.fit_boosted_s (about 70% of op_s)",
             "op_s, rows_per_s"),
            ("preprocess.smote_s (about 20%: ten folds of about 330 minority rows)", "op_s"),
            ("evaluation.cross_validate_s, evaluation.folds_run, dataset.split_s, "
             "preprocess.fit_s, preprocess.transform_s", "op_s, about 5%"),
        ),
        bypasses="rnn, load_bundle, predict_probabilities",
        setup=setup_gridsearch,
        op=op_gridsearch,
        check=check_gridsearch,
    ),
    Workload(
        name="predict-xgb",
        why="repeated predict with one 200-tree xgb bundle on 1000 unlabeled rows; "
            "the serving side, tree routing and CSV ingest, no fitting",
        moves=(
            ("pipeline.predict_probabilities_s, evaluation.rows_scored "
             "(tree routing, about 75% of op_s)", "rows_per_s, op_s, op_s_p90"),
            ("dataset.load_csv_s, preprocess.transform_s (about 20%)", "rows_per_s, op_s"),
            ("persistence.load_bundle_s, persistence.atomic_write_s (about 2%)", "op_s"),
        ),
        bypasses="every fit: rnn, boosting fit, bayes, SMOTE, cross_validate "
                 "(the bundle is trained in setup, which setup_s covers)",
        setup=setup_predict,
        op=op_predict,
        check=check_predict,
    ),
    Workload(
        name="preprocess-6000",
        why="preprocess --out on 6000 rows; SMOTE's neighbour search over 2160 "
            "minority rows dominates time and peak memory",
        moves=(
            ("preprocess.smote_s, preprocess.smote_minority_rows (about 95% of op_s)",
             "op_s, peak_rss_mb"),
            ("dataset.load_csv_s, dataset.split_s, preprocess.fit_s, "
             "preprocess.transform_s", "op_s, rows_per_s"),
            ("persistence.atomic_write_s, persistence.bytes_written", "op_s"),
        ),
        bypasses="every model fit and evaluation",
        setup=setup_preprocess,
        op=op_preprocess,
        check=check_preprocess,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
