"""Golden indices of every stratified partition the toolkit makes.

The held-out test split (`stratified_split`), the cross-validation folds
(`kfold`) and the recurrent model's inner validation split all follow one
policy: per-class shuffles from one SplitMix64 stream (class 0 first),
round-half-up quotas and a sorted complement. The SHA-256 of each
partition's indices must match the digest recorded below, so any change to
the stream, the quotas or the ordering shows up here.

The inner split is reached through `fit_algorithm`: `train_rnn` is replaced
by a recorder, and each matrix row carries its own position in column 0,
so the recorded train and validation matrices give back the row positions.
"""

import hashlib
import json

import numpy as np
import pytest

from cardiolearn import training
from cardiolearn.dataset import Dataset, kfold, stratified_split, synth_generate
from cardiolearn.preprocess import FeatureMatrix
from cardiolearn.rnn import TrainHistory
from cardiolearn.evaluation import RunConfig
from cardiolearn.training import Algorithm, fit_algorithm


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def doubled(data: Dataset) -> Dataset:
    """Every row twice, so equal ordering keys need their tie-break."""
    return Dataset([column * 2 for column in data.columns], data.labels * 2)


# (label, dataset factory, test_fraction, split seed)
SPLIT_CASES = (
    ("n6-zero-quota", lambda: synth_generate(6, 0.5, 5), 0.1, 3),
    ("n10", lambda: synth_generate(10, 0.5, 1), 0.2, 0),
    ("n57", lambda: synth_generate(57, 0.3, 2), 0.1, 7),
    ("n200", lambda: synth_generate(200, 0.55, 3), 0.25, 42),
    ("n301", lambda: synth_generate(301, 0.45, 4), 0.5, 123456789),
    ("n918", lambda: synth_generate(918, 0.55, 1), 0.2, 42),
    ("n80-doubled", lambda: doubled(synth_generate(40, 0.4, 6)), 0.3, 11),
)

# Digests recorded from the three separate splitters that preceded the shared
# index helper.
SPLIT_DIGESTS = {
    "n6-zero-quota": "d222209599ecdc279be6911620f817c211e18137c6cf7b924d62942824200733",
    "n10": "596966c699f8c1090590712797353b9520cf4840381c704461a361623aa674cd",
    "n57": "cda9590e12f4d01dc5def579e6e1459f81794bc4fa73251c861cb4c797e9094a",
    "n200": "bafd471cef33ecfc2657fce79fd4390de7b603497f515d2bd1a3c1f22c5bd4b3",
    "n301": "59d17d98a5aa25def2e43167b32ade87b2cbd96c25b061fe39a4ed3c2347484b",
    "n918": "84d690c693ef06ff227ee480eeb4fdf4c11627d01329975396ab31ffae38e2c4",
    "n80-doubled": "732fd9c119ab20affb04e528c237922ef473fef50528814587b0b87fcdeda7d8",
}

# (label, dataset factory, k, fold seed)
KFOLD_CASES = (
    ("n10-k2", lambda: synth_generate(10, 0.5, 1), 2, 0),
    ("n57-k3", lambda: synth_generate(57, 0.3, 2), 3, 7),
    ("n200-k5", lambda: synth_generate(200, 0.55, 3), 5, 42),
    ("n301-k4", lambda: synth_generate(301, 0.45, 4), 4, 3),
    ("n918-k5", lambda: synth_generate(918, 0.55, 1), 5, 42),
    ("n80-doubled-k3", lambda: doubled(synth_generate(40, 0.4, 6)), 3, 11),
)

KFOLD_DIGESTS = {
    "n10-k2": "f147b57e5da36f5c35c53d5a43bee8686e09305546fccc8b254abbd94e123a12",
    "n57-k3": "7575733b4f26b0c9d78571c145e35f7e01480f346790cf449763bc5e18928d33",
    "n200-k5": "1c0c66383b316f1891044902ebc9b665fd4cf737bf5dace4cef247399c3d00b8",
    "n301-k4": "bb567b440a5116f324fe6fc66d45eec1e5762d9cf1512adc80f98be5d2095410",
    "n918-k5": "4da150beda1ce0c683dc60354b27ab9eed2dea15c55d7bfbbded8f7d0e647a61",
    "n80-doubled-k3": "28c74f684aa6b1de64485ec3c8f80fdf2f006e448d9c7629cccc2803b849b742",
}


def inner_split_rows(labels, seed, monkeypatch):
    """(train positions, validation positions) of the RNN's inner split."""
    labels = np.asarray(labels, dtype=np.int64)
    values = np.column_stack([np.arange(len(labels), dtype=float), np.ones(len(labels))])
    m = FeatureMatrix(values, labels, ("position", "ones"))
    seen = []

    def record(train, val, config, seed):
        seen.append((train.values[:, 0].astype(int).tolist(),
                     val.values[:, 0].astype(int).tolist()))
        return None, TrainHistory()

    monkeypatch.setattr(training, "train_rnn", record)
    fit_algorithm(RunConfig(Algorithm.RNN, params={}), m, seed=seed)
    (rows,) = seen
    return rows


def balanced_labels(n_neg, n_pos, seed):
    gen = np.random.default_rng(seed)
    labels = np.array([0] * n_neg + [1] * n_pos)
    gen.shuffle(labels)
    return labels.tolist()


# (label, labels, model seed)
INNER_CASES = (
    ("2-rows-fallback", [1, 0], 4),
    ("4-rows-fallback", [0, 1, 1, 0], 9),
    ("tie-fallback-class-0", [1, 0, 0, 1], 2),
    ("single-class-2-fallback", [1, 1], 5),
    ("single-class-7", [0] * 7, 8),
    ("n30", balanced_labels(17, 13, 0), 0),
    ("n101", balanced_labels(40, 61, 1), 42),
    ("n808", balanced_labels(444, 364, 2), 7),
)

INNER_DIGESTS = {
    "2-rows-fallback": "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae",
    "4-rows-fallback": "7dedbd713582b6eb6fef78772b309526cd1633eaba46ec61efe40cc357520bdb",
    "tie-fallback-class-0": "e4387902251b9c01fdf5f4e5564f872d45977942a1236131d692eacd186e5b89",
    "single-class-2-fallback": "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae",
    "single-class-7": "f2473abb056bcd6d68bba0e4a128b44d003a940dc168f47c9790a4b32520ef29",
    "n30": "0e757d9dced565d97e18e7312d953dcb86b4e540d000e93b3f307dcc41a751aa",
    "n101": "977dc4aa5f18ad59796f8febee499c37c818da314c50cbc33bd36503d51b6f0b",
    "n808": "f5bbd88aa26264cfd50c527fc7c600ea903182aa03a378589db32f38a187e5fb",
}


@pytest.mark.parametrize("label,make,fraction,seed", SPLIT_CASES, ids=[c[0] for c in SPLIT_CASES])
def test_stratified_split_indices(label, make, fraction, seed):
    split = stratified_split(make(), fraction, seed)
    assert digest([list(split.train_indices), list(split.test_indices)]) == SPLIT_DIGESTS[label]


@pytest.mark.parametrize("label,make,k,seed", KFOLD_CASES, ids=[c[0] for c in KFOLD_CASES])
def test_kfold_indices(label, make, k, seed):
    pairs = kfold(make(), k, seed)
    assert digest([[list(train), list(val)] for train, val in pairs]) == KFOLD_DIGESTS[label]


@pytest.mark.parametrize("label,labels,seed", INNER_CASES, ids=[c[0] for c in INNER_CASES])
def test_inner_validation_rows(label, labels, seed, monkeypatch):
    assert digest(inner_split_rows(labels, seed, monkeypatch)) == INNER_DIGESTS[label]


def test_zero_quota_split_keeps_every_row_in_train():
    split = stratified_split(synth_generate(6, 0.5, 5), 0.1, 3)
    assert split.train_indices == (0, 1, 2, 3, 4, 5)
    assert split.test_indices == ()
