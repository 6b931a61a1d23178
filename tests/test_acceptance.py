"""End-to-end acceptance gate: nine checks, one printed verdict line each.

Every test computes its result first, emits `[criterion N] PASS|FAIL: detail`
straight to the terminal (capture suspended so the verdict always appears in
the run log), and only then asserts. Criterion 1 needs the real 11-attribute
heart dataset; point HEART_CSV at it or place it at data/heart.csv. When the
file is absent that criterion reports SKIPPED and the rest must still pass.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import log_loss, matrix
from test_bayes import linear_space_posteriors
from test_boosting import check_root_split_against_oracle

from cardiolearn.bayes import GaussianNBModel, fit_gaussian_nb
from cardiolearn.boosting import (
    BoostConfig,
    GradHess,
    fit_boosted,
    fit_tree,
)
from cardiolearn.cli import main
from cardiolearn.dataset import (
    Dataset,
    FEATURE_NAMES,
    NUMERIC_FEATURES,
    load_csv,
    stratified_split,
    synth_generate,
    write_csv,
)
from cardiolearn.persistence import serialize_model, serialize_preprocessor
from cardiolearn.pipeline import RunConfig, run_compare
from cardiolearn.preprocess import UnseenPolicy, smote
from cardiolearn.preprocess import fit as fit_preprocessor
from cardiolearn.preprocess import transform as transform_features
from cardiolearn.rng import SplitMix64, derive_seed
from cardiolearn.rnn import grad_check, init_params
from cardiolearn.training import Algorithm, fit_algorithm

# published test accuracies the canonical run must land within 4 points of
TABLE_ACCURACY = {
    "RNN": 0.87,
    "NaiveBayes": 0.8641,
    "GradientBoosting": 0.8804,
    "XGBoost": 0.875,
}
ACCURACY_TOLERANCE = 0.04


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num}] {status}: {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def skip_with_notice(capsys, num: int, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num}] SKIPPED: {detail}", flush=True)
    pytest.skip(detail)


def _real_dataset_path():
    env = os.environ.get("HEART_CSV", "")
    if env and os.path.exists(env):
        return env
    default = Path(__file__).resolve().parents[1] / "data" / "heart.csv"
    if default.exists():
        return str(default)
    return None


def test_criterion_1_published_accuracy_proximity(capsys):
    path = _real_dataset_path()
    if path is None:
        skip_with_notice(
            capsys, 1,
            "real heart dataset not found (set HEART_CSV or add data/heart.csv)",
        )
    start = time.monotonic()
    rows = run_compare(load_csv(path), RunConfig(algorithm=Algorithm.NB))
    elapsed = time.monotonic() - start
    accuracy = {label: report.accuracy for label, report in rows}
    offsets = {
        label: accuracy[label] - TABLE_ACCURACY[label] for label in TABLE_ACCURACY
    }
    within = all(abs(off) <= ACCURACY_TOLERANCE for off in offsets.values())
    boosting_beats_nb = (
        accuracy["GradientBoosting"] > accuracy["NaiveBayes"]
        and accuracy["XGBoost"] > accuracy["NaiveBayes"]
    )
    shown = "  ".join(
        f"{label} {accuracy[label]:.4f} ({offsets[label]:+.4f})"
        for label in TABLE_ACCURACY
    )
    ok = within and boosting_beats_nb and elapsed < 300.0
    verdict(
        capsys, 1, ok,
        f"{shown}; offsets within +/-{ACCURACY_TOLERANCE}, "
        f"boosting > NaiveBayes: {boosting_beats_nb}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_checks(capsys):
    gen = SplitMix64(20260814)
    worst = 0.0
    for _ in range(100):
        hidden = 2 + gen.randint(3)
        steps = 2 + gen.randint(10)
        params = init_params(hidden, 0.5, gen)
        seq = np.array([gen.normal(0.0, 1.0) for _ in range(steps)])
        label = float(gen.randint(2))
        worst = max(worst, grad_check(params, seq, label, step=1e-5))
    verdict(
        capsys, 2, worst < 1e-4,
        f"max relative gradient error {worst:.3e} over 100 random networks (bound 1e-4)",
    )


def test_criterion_3_split_search_matches_exhaustive_oracle(capsys):
    gen = SplitMix64(777)
    lambdas = (0.0, 1.0, 3.5)
    gammas = (0.0, 0.2)
    child_weights = (0.0, 1.0)
    failures = []
    for trial in range(200):
        n = 2 + gen.randint(15)
        d = 1 + gen.randint(3)
        values = np.array(
            [[round(gen.normal(0.0, 1.0), 3) for _ in range(d)] for _ in range(n)]
        )
        g = np.array([4.0 * gen.uniform() - 2.0 for _ in range(n)])
        h = np.array([0.01 + 0.24 * gen.uniform() for _ in range(n)])
        params = BoostConfig(
            max_depth=1 + gen.randint(3),
            reg_lambda=lambdas[trial % 3],
            gamma=gammas[trial % 2],
            min_child_weight=child_weights[(trial // 2) % 2],
        )
        node = fit_tree(matrix(values, [0] * n), GradHess(g=g, h=h), params)
        try:
            check_root_split_against_oracle(
                node, values, g, h, params, context=f"trial {trial}"
            )
        except AssertionError as exc:
            failures.append(str(exc))
    detail = (
        "root split equals the exhaustive best on 200 random matrices (n <= 16, d <= 3)"
        if not failures
        else f"{len(failures)} mismatches; first: {failures[0]}"
    )
    verdict(capsys, 3, not failures, detail)


def test_criterion_4_separable_descent(capsys):
    m = matrix([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]], [0, 0, 0, 1, 1, 1])
    problems = []
    for family, regularization in (("gb", {"reg_lambda": 0.0, "gamma": 0.0}), ("xgb", {})):
        ens = fit_boosted(
            m,
            BoostConfig(n_rounds=20, learning_rate=0.3, max_depth=1,
                        min_child_weight=0.0, **regularization),
        )
        if len(ens.trees) != 20:
            problems.append(f"{family}: {len(ens.trees)} trees instead of 20")
        margins = np.full(m.n_rows, ens.base_score)
        losses = [log_loss(1.0 / (1.0 + np.exp(-margins)), m.labels)]
        for r, tree in enumerate(ens.trees, start=1):
            margins = margins + tree.leaf_weights(m.values)
            losses.append(log_loss(1.0 / (1.0 + np.exp(-margins)), m.labels))
            if not losses[-1] < losses[-2] + 1e-9:
                problems.append(f"{family}: loss did not fall at round {r}")
        predicted = (ens.predict_proba(m.values) >= 0.5).astype(int).tolist()
        if predicted != m.labels.tolist():
            problems.append(f"{family}: training accuracy below 1.0")
    detail = (
        "log-loss fell every round for 20 rounds and training accuracy hit 1.0 "
        "for gb (lambda = gamma = 0) and xgb"
        if not problems
        else "; ".join(problems)
    )
    verdict(capsys, 4, not problems, detail)


def test_criterion_5_bayes_density_oracle(capsys):
    gen = np.random.default_rng(5)
    worst_posterior = 0.0
    for _ in range(50):
        n = int(gen.integers(4, 21))
        d = int(gen.integers(1, 4))
        values = gen.normal(0, 1.5, (n, d))
        labels = np.array([0, 1] + list(gen.integers(0, 2, n - 2)))
        model = fit_gaussian_nb(matrix(values, labels))
        for _ in range(5):
            x = gen.normal(0, 1.5, d)
            expected = linear_space_posteriors(model, x)
            got = model.posterior(x[None])[0]
            worst_posterior = max(
                worst_posterior,
                abs(float(got[0]) - expected[0]),
                abs(float(got[1]) - expected[1]),
            )
    stream = SplitMix64(501)
    worst_sum = 0.0
    for _ in range(1000):
        prior1 = 0.05 + 0.9 * stream.uniform()
        model = GaussianNBModel(
            priors=np.array([1.0 - prior1, prior1]),
            means=np.array([[4.0 * stream.uniform() - 2.0],
                            [4.0 * stream.uniform() - 2.0]]),
            variances=np.array([[0.1 + 3.0 * stream.uniform()],
                                [0.1 + 3.0 * stream.uniform()]]),
            var_floor=1e-9,
        )
        x = np.array([8.0 * stream.uniform() - 4.0])
        worst_sum = max(worst_sum, abs(float(model.posterior(x[None])[0].sum()) - 1.0))
    ok = worst_posterior < 1e-9 and worst_sum < 1e-9
    verdict(
        capsys, 5, ok,
        f"max posterior deviation {worst_posterior:.3e} over 250 probes, "
        f"max |sum-1| {worst_sum:.3e} over 1000 queries (bound 1e-9)",
    )


def test_criterion_6_preprocessing_contracts(capsys):
    data = synth_generate(200, 0.3, seed=6)
    split = stratified_split(data, 0.2, seed=6)
    fp = fit_preprocessor(split.train, UnseenPolicy.ERROR)
    train_m = transform_features(fp, split.train)
    problems = []
    numeric = set(NUMERIC_FEATURES)
    worst_mean = 0.0
    worst_std = 0.0
    for j, name in enumerate(train_m.column_names):
        if name not in numeric:
            continue
        col = train_m.values[:, j]
        if np.unique(col).size == 1:
            continue
        worst_mean = max(worst_mean, abs(float(col.mean())))
        worst_std = max(worst_std, abs(float(col.std()) - 1.0))
    if not worst_mean < 1e-9:
        problems.append(f"post-scaling |mean| reached {worst_mean:.3e}")
    if not worst_std < 1e-9:
        problems.append(f"post-scaling |std-1| reached {worst_std:.3e}")

    k = 5
    balanced = smote(train_m, k=k, seed=derive_seed(6, 1))
    n0 = int(np.sum(balanced.labels == 0))
    n1 = int(np.sum(balanced.labels == 1))
    if n0 != n1:
        problems.append(f"oversampled classes unbalanced: {n0} vs {n1}")
    if not np.array_equal(balanced.values[: train_m.n_rows], train_m.values):
        problems.append("original rows were not preserved as a prefix")

    counts = (int(np.sum(train_m.labels == 0)), int(np.sum(train_m.labels == 1)))
    minority_label = 1 if counts[1] <= counts[0] else 0
    minority = train_m.values[train_m.labels == minority_label]

    def nearest(i):
        dists = [
            (float(np.linalg.norm(minority[i] - minority[j])), j)
            for j in range(len(minority))
            if j != i
        ]
        return [j for _, j in sorted(dists)[:k]]

    eps = 1e-12
    outside = 0
    for s, row in enumerate(balanced.values[train_m.n_rows:]):
        x = minority[s % len(minority)]
        if not any(
            np.all(row >= np.minimum(x, minority[j]) - eps)
            and np.all(row <= np.maximum(x, minority[j]) + eps)
            for j in nearest(s % len(minority))
        ):
            outside += 1
    if outside:
        problems.append(f"{outside} synthetic rows violate the betweenness bound")

    detail = (
        f"scaled numerics |mean| <= {worst_mean:.1e}, |std-1| <= {worst_std:.1e}; "
        f"oversampled to {n0}/{n1} with every synthetic row inside a "
        "source-neighbour segment"
        if not problems
        else "; ".join(problems)
    )
    verdict(capsys, 6, not problems, detail)


LIGHT_PARAMS = {
    Algorithm.NB: {},
    Algorithm.GB: {"n_rounds": 20},
    Algorithm.XGB: {"n_rounds": 20},
    Algorithm.RNN: {"max_epochs": 3, "hidden_size": 4},
}


def _downstream_state(train: Dataset, test: Dataset, seed: int) -> str:
    """The pipeline stages after the split, with fitted state serialized."""
    fp = fit_preprocessor(train, UnseenPolicy.ERROR)
    train_m = transform_features(fp, train)
    transform_features(fp, test)
    balanced = smote(train_m, k=5, seed=derive_seed(seed, 1))
    state = {"preprocessor": serialize_preprocessor(fp)}
    for algorithm, params in LIGHT_PARAMS.items():
        model, _ = fit_algorithm(
            RunConfig(algorithm, params=params), balanced, seed=derive_seed(seed, 2)
        )
        state[algorithm.value] = serialize_model(algorithm, model)
    return json.dumps(state, sort_keys=True)


def _perturbed(data: Dataset, rows) -> Dataset:
    """`data` with Age, MaxHR and Oldpeak shifted and the label flipped in each of `rows`."""
    columns = [list(column) for column in data.columns]
    age, max_hr, oldpeak = (columns[FEATURE_NAMES.index(name)]
                            for name in ("Age", "MaxHR", "Oldpeak"))
    labels = list(data.labels)
    for row in rows:
        age[row] = float(age[row]) + 7.0
        max_hr[row] = float(max_hr[row]) - 11.0
        oldpeak[row] = float(oldpeak[row]) + 0.75
        labels[row] = 1 - labels[row]
    return Dataset(columns, labels)


def test_criterion_7_no_test_leakage(capsys):
    data = synth_generate(160, 0.5, seed=11)
    split = stratified_split(data, 0.2, seed=11)
    baseline = _downstream_state(split.train, split.test, seed=11)

    every_row = _perturbed(split.test, range(len(split.test)))
    one_row = _perturbed(split.test, [0])

    same_all = _downstream_state(split.train, every_row, seed=11) == baseline
    same_one = _downstream_state(split.train, one_row, seed=11) == baseline
    ok = same_all and same_one
    verdict(
        capsys, 7, ok,
        "fitted preprocessor and all four serialized models bitwise unchanged "
        f"after perturbing every test row (identical: {same_all}) and a single "
        f"test row (identical: {same_one})",
    )


def test_criterion_8_run_determinism(capsys, tmp_path):
    csv_path = tmp_path / "data.csv"
    write_csv(synth_generate(200, 0.5, seed=5), csv_path)
    problems = []
    for algo in ("nb", "gb", "xgb", "rnn"):
        snapshots = []
        for tag in ("a", "b"):
            run_dir = tmp_path / f"{algo}_{tag}"
            run_dir.mkdir()
            bundle_path = run_dir / "model.json"
            report_path = run_dir / "report.csv"
            curves_path = run_dir / "curves.csv"
            argv = [
                "train", "--data", str(csv_path), "--algo", algo,
                "--out", str(bundle_path), "--report-csv", str(report_path),
            ]
            if algo == "rnn":
                argv += ["--curves", str(curves_path)]
            code = main(argv)
            if code != 0:
                problems.append(f"{algo} run {tag} exited {code}")
                continue
            doc = json.loads(bundle_path.read_text(encoding="utf-8"))
            doc.pop("created_at")
            snapshots.append((
                json.dumps(doc, sort_keys=True),
                report_path.read_bytes(),
                curves_path.read_bytes() if algo == "rnn" else b"",
            ))
        if len(snapshots) == 2 and snapshots[0] != snapshots[1]:
            problems.append(f"{algo}: repeated canonical runs differ")
    detail = (
        "repeated canonical runs byte-identical for nb/gb/xgb/rnn "
        "(bundle sans created_at, report CSV, loss curves)"
        if not problems
        else "; ".join(problems)
    )
    verdict(capsys, 8, not problems, detail)


def test_criterion_9_synthetic_end_to_end(capsys, tmp_path):
    csv_path = tmp_path / "synth.csv"
    write_csv(synth_generate(400, 0.5, seed=7), csv_path)
    table_path = tmp_path / "table.csv"
    code = main(["compare", "--data", str(csv_path), "--out", str(table_path)])
    out = capsys.readouterr().out
    problems = []
    if code != 0:
        problems.append(f"compare exited {code}")
    accuracy = {}
    lines = table_path.read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        accuracy[cells[0]] = float(cells[1])
    if set(accuracy) != set(TABLE_ACCURACY):
        problems.append(f"table rows incomplete: {sorted(accuracy)}")
    low = {label: acc for label, acc in accuracy.items() if acc < 0.95}
    if low:
        problems.append(f"accuracy below 0.95: {low}")
    missing = [label for label in TABLE_ACCURACY if label not in out]
    if missing:
        problems.append(f"stdout table missing rows: {missing}")
    detail = (
        "four-row comparison emitted; accuracies "
        + ", ".join(f"{label} {accuracy[label]:.3f}" for label in sorted(accuracy))
        + " all >= 0.95"
        if not problems
        else "; ".join(problems)
    )
    verdict(capsys, 9, not problems, detail)
