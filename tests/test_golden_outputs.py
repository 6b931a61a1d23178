"""Golden digests of the CLI artifacts for every model family.

Each family is trained through `main` on a fixed synthetic dataset, then
scored with `evaluate` (report CSV) and `predict` (predictions CSV) on a
second, held-out synthetic dataset; `train --algo rnn` also writes its
loss-curves CSV. The SHA-256 of each artifact must match the digest
recorded below; the bundle is hashed with its created_at line removed.
Any change to a probability, a report cell or a bundle byte shows
up here. The fold-level results CSV of `gridsearch` is pinned the same way,
so every cross-validation fold's preprocessing, oversampling and fit are
covered too.
"""

import hashlib
import json
import re

import pytest

from cardiolearn.cli import main
from cardiolearn.dataset import FEATURE_NAMES, Dataset, synth_generate, write_csv

FAMILY_ARGS = {
    "nb": (),
    "gb": ("--param", "n_rounds=30"),
    "xgb": ("--param", "n_rounds=30", "--param", "max_depth=4"),
    "rnn": ("--param", "max_epochs=3", "--param", "hidden_size=6"),
}

# Recorded from the per-row prediction code before the batch contract.
DIGESTS = {
    "gb": {
        "bundle": "d6db490428ff1abee24807ef078cf565ac7c6c08a1be8bd50d399f74a55cd404",
        "report": "95e7ef11117303b4b04fef5d0e4bd791a5ac0fe364530b91f3b13deac0e45972",
        "predictions": "e28dcb6ec22eb6a31becbda1516669ed9f275939c849b0e7b4d9691dabd1c4c2",
    },
    "nb": {
        "bundle": "4c2404c5008c06c904daf1edf01cc83244d84cde6daac866d93eb1b005a7065d",
        "report": "401f50934826be5753c9fe79d9237c855aae1fe9a05e4c2d23283abf042a993b",
        "predictions": "ea494760dac1fbf73a3672c167d674c3459cc9ce6afaa536176274c8b92a2949",
    },
    "rnn": {
        # re-recorded when BPTT began summing the batch inside each step: the
        # weights move in the last bits, the probabilities as written do not
        "bundle": "485410912d346db6b19385a87afd5e90d6eec20b3d31a57b04f386b72dd9db82",
        "report": "fbd62a5620df9d062e26a9693e93a4f80a83ec85538ed2ed123d297b0cb14f1b",
        "predictions": "48b122a4b5136e235c049c3c74518b7a7e3b1eb31d0f073724084cc21db64c71",
        # the `<out>_curves.csv` that `train --algo rnn` writes beside the bundle
        "curves": "2902d85db304efd91eb1452be52a85ca2dbefde2aebe7140035ae6e535e4365f",
    },
    "xgb": {
        "bundle": "78b84c0965ed223cb25c575435c5648fa48f66a1e5986394794a33eb335922ed",
        "report": "0ec533d74ec8cafa8e7ea9b6ccf2c287b17da5d11b2b8c35200f0f7327eb126d",
        "predictions": "79f563d816d736c3964b65cbe03d42ca8d966ce8d6df7747e295a6fcb0f4bbdc",
    },
}

_CREATED_AT = re.compile(rb'\n  "created_at": "[^"]*",')


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def family_digests(tmp_path, algo: str) -> dict:
    """Train, evaluate and predict for one family; SHA-256 of each artifact."""
    train_csv = tmp_path / "train.csv"
    scored_csv = tmp_path / "scored.csv"
    unlabeled_csv = tmp_path / "unlabeled.csv"
    write_csv(synth_generate(160, 0.55, seed=21), train_csv)
    write_csv(synth_generate(90, 0.45, seed=22), scored_csv)
    lines = scored_csv.read_text(encoding="utf-8").splitlines()
    unlabeled_csv.write_text(
        "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n", encoding="utf-8"
    )
    bundle = tmp_path / "model.json"
    report = tmp_path / "report.csv"
    predictions = tmp_path / "predictions.csv"
    assert main(["train", "--data", str(train_csv), "--algo", algo, "--seed", "13",
                 "--out", str(bundle), *FAMILY_ARGS[algo]]) == 0
    assert main(["evaluate", "--bundle", str(bundle), "--data", str(scored_csv),
                 "--out", str(report)]) == 0
    assert main(["predict", "--bundle", str(bundle), "--data", str(unlabeled_csv),
                 "--out", str(predictions)]) == 0
    bundle_bytes, stamps = _CREATED_AT.subn(b"", bundle.read_bytes())
    assert stamps == 1
    digests = {
        "bundle": _sha256(bundle_bytes),
        "report": _sha256(report.read_bytes()),
        "predictions": _sha256(predictions.read_bytes()),
    }
    if algo == "rnn":
        digests["curves"] = _sha256((tmp_path / "model_curves.csv").read_bytes())
    return digests


@pytest.mark.parametrize("algo", sorted(FAMILY_ARGS))
def test_artifacts_match_recorded_digests(tmp_path, algo):
    assert family_digests(tmp_path, algo) == DIGESTS[algo]


# grid file per family for the gridsearch digests: small fits, one or two candidates
GRIDS = {
    "gb": {"n_rounds": [5, 10], "max_depth": [2]},
    "rnn": {"max_epochs": [4], "hidden_size": [4], "learning_rate": [0.01, 0.05]},
    "xgb": {"max_depth": [2, 3], "n_rounds": [8]},
}

# Recorded before cross-validation shared the run's preprocessing step.
GRIDSEARCH_DIGESTS = {
    "gb": "8c8486ec6c92bb11ec210b4d3dbb9b7077e1866a91c2aa26de1360000bf34bfa",
    "rnn": "da0c0de7957a9710fd0da0f5e764f1113d663812b402757fdd8b7da22d06c88c",
    "xgb": "1de49cf50e4be2fb11f392a7724b3619d8571bea7a94fdc51f207964a12f89b7",
}


def noisy(data: Dataset) -> Dataset:
    """Every fifth label flipped, so fold metrics depend on every fold's fit."""
    return Dataset(data.columns,
                   [1 - label if i % 5 == 0 else label for i, label in enumerate(data.labels)])


def test_gridsearch_results_match_recorded_digests(tmp_path):
    """Fold-level results CSV of `gridsearch --k 3` on 120 imbalanced, noisy
    rows, per family."""
    data = tmp_path / "data.csv"
    write_csv(noisy(synth_generate(120, 0.35, seed=31)), data)
    digests = {}
    for algo, grid in GRIDS.items():
        grid_path = tmp_path / f"{algo}_grid.json"
        grid_path.write_text(json.dumps({"grid": grid}), encoding="utf-8")
        out = tmp_path / f"{algo}_results.csv"
        assert main(["gridsearch", "--data", str(data), "--algo", algo, "--grid", str(grid_path),
                     "--k", "3", "--seed", "5", "--out", str(out)]) == 0
        digests[algo] = _sha256(out.read_bytes())
    assert digests == GRIDSEARCH_DIGESTS


# Recorded from the per-row RNN recurrence, before the batched kernels.
NOISY_COMPARE_DIGEST = "8ec77bbeb4739e84759ea0f45d299dd50429762963a3b3e570da889901ad45af"


def test_compare_on_noisy_rows_matches_recorded_digest(tmp_path):
    """`compare --out` with default settings on 120 imbalanced, noisy rows:
    no model scores 1.0, so every family's fit and predictions, the default
    200-epoch RNN's included, reach the digest."""
    data = tmp_path / "data.csv"
    write_csv(noisy(synth_generate(120, 0.35, seed=31)), data)
    out = tmp_path / "compare.csv"
    assert main(["compare", "--data", str(data), "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == NOISY_COMPARE_DIGEST


def sentinels(data: Dataset, aged: bool = True) -> Dataset:
    """Every 6th Cholesterol and every 9th RestingBP set to the missing-value
    sentinel 0; with `aged`, every 23rd Age set to 97-99, a decade no
    un-aged synthetic row reaches."""
    chol, bp, age = (FEATURE_NAMES.index(name) for name in ("Cholesterol", "RestingBP", "Age"))
    columns = [list(column) for column in data.columns]
    for i in range(len(data)):
        if i % 6 == 0:
            columns[chol][i] = 0.0
        if i % 9 == 0:
            columns[bp][i] = 0.0
        if aged and i % 23 == 0:
            columns[age][i] = 97.0 + (i // 23) % 3
    return Dataset(columns, data.labels)


# Recorded from the per-cell imputation code, before the column passes.
SENTINEL_DIGESTS = {
    "matrix": "39408c60cea23d511370987eed6e59f88d47c1cb36e62fcf9eef6840e4168406",
    "bundle": "00c73bacb7f19b1b36e269e276f5657980416da9875f4054256e339e8ee8d94b",
    "report": "2b5d2cd16f9f44ce4411bc48da725d4b1e0b77921d3e739a660952088384dde6",
    "predictions": "566c164acd038d5740fcb63951d5ac95f3ac467f834d546d38830da400c1d174",
}


def test_imputed_artifacts_match_recorded_digests(tmp_path):
    """Missing readings reach every artifact: `preprocess --out` fits and
    transforms sentinel rows in a seen 90s cohort; an nb bundle fitted
    without that cohort scores rows holding it, and an unseen ST_Slope
    token, under `map_to_mode`."""
    train_csv = tmp_path / "train.csv"
    aged_csv = tmp_path / "aged.csv"
    scored_csv = tmp_path / "scored.csv"
    write_csv(sentinels(synth_generate(300, 0.45, seed=41), aged=False), train_csv)
    write_csv(sentinels(synth_generate(300, 0.45, seed=41)), aged_csv)
    scored = sentinels(synth_generate(120, 0.5, seed=42))
    slope = FEATURE_NAMES.index("ST_Slope")
    columns = [list(column) for column in scored.columns]
    columns[slope][4] = "Steep"
    write_csv(Dataset(columns, scored.labels), scored_csv)
    lines = scored_csv.read_text(encoding="utf-8").splitlines()
    unlabeled_csv = tmp_path / "unlabeled.csv"
    unlabeled_csv.write_text(
        "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n", encoding="utf-8"
    )
    matrix, bundle = tmp_path / "matrix.csv", tmp_path / "model.json"
    report, predictions = tmp_path / "report.csv", tmp_path / "predictions.csv"
    assert main(["preprocess", "--data", str(aged_csv), "--seed", "17",
                 "--out", str(matrix)]) == 0
    assert main(["train", "--data", str(train_csv), "--algo", "nb", "--seed", "17",
                 "--unseen-policy", "map_to_mode", "--out", str(bundle)]) == 0
    assert main(["evaluate", "--bundle", str(bundle), "--data", str(scored_csv),
                 "--out", str(report)]) == 0
    assert main(["predict", "--bundle", str(bundle), "--data", str(unlabeled_csv),
                 "--out", str(predictions)]) == 0
    bundle_bytes, stamps = _CREATED_AT.subn(b"", bundle.read_bytes())
    assert stamps == 1
    assert {
        "matrix": _sha256(matrix.read_bytes()),
        "bundle": _sha256(bundle_bytes),
        "report": _sha256(report.read_bytes()),
        "predictions": _sha256(predictions.read_bytes()),
    } == SENTINEL_DIGESTS
