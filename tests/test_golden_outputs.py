"""Golden digests of the CLI artifacts for every model family.

Each family is trained through `main` on a fixed synthetic dataset, then
scored with `evaluate` (report CSV) and `predict` (predictions CSV) on a
second, held-out synthetic dataset; `train --algo rnn` also writes its
loss-curves CSV. The SHA-256 of each artifact must match the digest
recorded below; the bundle is hashed with its created_at line removed.
Any change to a probability, a report cell or a bundle byte shows
up here. The fold-level results CSV of `gridsearch` is pinned the same way,
so every cross-validation fold's preprocessing, oversampling and fit are
covered too, and every subcommand's stdout and written files are pinned
once more on one shared set of inputs.
"""

import hashlib
import json
import re
from pathlib import Path

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


# grid file of the all-subcommand digests: two gb candidates
SUBCOMMAND_GRID = {"n_rounds": [4, 8], "max_depth": [2]}

# Recorded before the CLI built each result as one list of rows.
SUBCOMMAND_DIGESTS = {
    "summarize": "fd993a38f5de2a30be5f9c33bfc60e67bc38b18cfc4a9df65292ecda73aae04e",
    "summary.csv": "dc6170c774c67cfe9f782908d837a87a46dc9bb3a579e61a31e74934f068b524",
    "preprocess": "fc91a8ccec895b48f079d06333644f82aadc3fb3ca07724bd6d6070162443dc4",
    "matrix.csv": "44409974708d5f08527d95a99c61b6aca2868053438ab2831a59b75c83925a3d",
    "train": "0194a14992e6b37c3be88b459282b63e99e1a9949a6438afcc184e520b80c866",
    "model.json": "9da1a64c1f247e0c5f9369f2bb6c8025e3030aa6eae1b46e5851e5139087e13c",
    "train_report.csv": "9e37623bc86564799e84bbe2315461bb6fa64366a665445933ba3c2f06f64cf7",
    "evaluate": "c6745f608614c04ff28050451887b6ac05286967aef98f0ab3d4b33a00d896cb",
    "report.csv": "489d2cffbd98374bf82a8e63d35ecaa0b4bfed0032039eb078bb3d7922e6cf18",
    "predict": "907b774428873f6fc438ac61eeca37b3d9f1c46bf508894223ce3b19219406c5",
    "predictions.csv": "240056d7720708bbc850c377225ac90e8ed0b2f8f8138b5b6b99ebae15b6ab4f",
    "gridsearch": "2b5da1d23710d5061be457ab30d7bea153f2a85edd1dd6817be54a1e9a24b22e",
    "grid_results.csv": "8c1194a3511680cc5cdabdaecb8853027e407f20d1e6d3bd8bf11293969bc4d0",
    "compare": "63b2213f5a83b3a50c9325b7ce3989d7b7029e8f611908454b735d39206e6180",
    "compare.csv": "9fece0aeb3b2df79df9875b11f5af4f967753d077228d8d16fa29a3df8a9dd90",
    "curves": "036296aa0079065b8dae0f8fb3b0ad50a0beb24cf0aeecde5bc92608de8720ee",
}


def subcommand_digests(capsys) -> dict:
    """Run every subcommand in the working directory on relative paths; the
    SHA-256 of each one's stdout and of each file it writes (the bundle with
    its created_at line removed). `curves` pins its stdout only: its CSV
    holds loss reprs, which move with the CPU dispatch path."""
    write_csv(sentinels(synth_generate(120, 0.45, seed=51)), "train.csv")
    write_csv(synth_generate(60, 0.5, seed=52), "scored.csv")
    lines = Path("scored.csv").read_text(encoding="utf-8").splitlines()
    Path("unlabeled.csv").write_text(
        "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n", encoding="utf-8"
    )
    Path("grid.json").write_text(json.dumps({"grid": SUBCOMMAND_GRID}), encoding="utf-8")
    runs = {
        "summarize": (["--data", "train.csv", "--out", "summary.csv"], ["summary.csv"]),
        "preprocess": (["--data", "train.csv", "--seed", "3", "--out", "matrix.csv"],
                       ["matrix.csv"]),
        "train": (["--data", "train.csv", "--algo", "xgb", "--seed", "3", "--param", "n_rounds=8",
                   "--out", "model.json", "--report-csv", "train_report.csv"],
                  ["model.json", "train_report.csv"]),
        "evaluate": (["--bundle", "model.json", "--data", "scored.csv", "--threshold", "0.999",
                      "--out", "report.csv"],
                     ["report.csv"]),
        "predict": (["--bundle", "model.json", "--data", "unlabeled.csv"], ["predictions.csv"]),
        "gridsearch": (["--data", "train.csv", "--algo", "gb", "--grid", "grid.json", "--k", "3",
                        "--out", "grid_results.csv"], ["grid_results.csv"]),
        "compare": (["--data", "scored.csv", "--seed", "3", "--out", "compare.csv"],
                    ["compare.csv"]),
        "curves": (["--data", "train.csv", "--param", "max_epochs=3", "--param", "hidden_size=4"],
                   []),
    }
    digests = {}
    for command, (argv, outputs) in runs.items():
        capsys.readouterr()
        assert main([command, *argv]) == 0
        digests[command] = _sha256(capsys.readouterr().out.encode("utf-8"))
        for name in outputs:
            digests[name] = _sha256(_CREATED_AT.sub(b"", Path(name).read_bytes()))
    return digests


def test_every_subcommand_output_matches_recorded_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert subcommand_digests(capsys) == SUBCOMMAND_DIGESTS
