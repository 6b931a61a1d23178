"""Model bundles: one self-describing JSON document per trained model.

A bundle contains the format version, a creation timestamp, the algorithm
tag, the fitted preprocessor, the model parameters, the full hyperparameter
record, and optionally the evaluation report captured at save time. Keys
are sorted and floats keep full round-trip precision, so two runs with the
same config produce byte-identical documents apart from the created_at
line. All files are written atomically (temp file, then rename).
"""

import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .bayes import GaussianNBModel
from .boosting import BoostedEnsemble, TreeNode
from .errors import BadHyperparameter, CorruptBundle, SchemaMismatch, VersionMismatch
from .evaluation import ConfusionMatrix, EvalReport
from .hyperparams import within
from .preprocess import FittedPreprocessor, UnseenPolicy
from .rnn import RNNModel, RNNParams, TrainHistory
from .training import FAMILY_CONFIGS, PARAM_DEFAULTS, Algorithm, family_config

FORMAT_VERSION = 1


def atomic_write_text(path: str, text: str) -> None:
    """Write whole-file contents via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# --- preprocessor ------------------------------------------------------------

def serialize_preprocessor(fp: FittedPreprocessor) -> dict:
    return {
        "vocab": {name: list(tokens) for name, tokens in fp.vocab.items()},
        "modes": dict(fp.modes),
        "scale_stats": {
            name: {"mean": mean, "std": std}
            for name, (mean, std) in fp.scale_stats.items()
        },
        "impute_table": [
            {
                "sex": sex,
                "decade": decade,
                "medians": dict(medians),
            }
            for (sex, decade), medians in sorted(fp.impute_table.items())
        ],
        "global_medians": dict(fp.global_medians),
        "unseen_policy": fp.unseen_policy.value,
    }


def _number(value, what: str, interval: Optional[str] = None):
    """A finite JSON number (a bool is not one), inside `interval` if given."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise CorruptBundle(f"{what} must be a number, got {value!r}")
    if interval is not None and not within(value, interval):
        raise CorruptBundle(f"{what} must be in {interval}, got {value!r}")
    return value


def deserialize_preprocessor(doc: dict) -> FittedPreprocessor:
    return FittedPreprocessor(
        vocab={name: tuple(tokens) for name, tokens in doc["vocab"].items()},
        modes=dict(doc["modes"]),
        scale_stats={
            name: (_number(stats["mean"], f"scale_stats {name} mean"),
                   _number(stats["std"], f"scale_stats {name} std"))
            for name, stats in doc["scale_stats"].items()
        },
        impute_table={
            (entry["sex"], entry["decade"]): dict(entry["medians"])
            for entry in doc["impute_table"]
        },
        global_medians=dict(doc["global_medians"]),
        unseen_policy=UnseenPolicy(doc["unseen_policy"]),
    )


# --- models -------------------------------------------------------------------

def _serialize_tree(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"weight": node.weight}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _serialize_tree(node.left),
        "right": _serialize_tree(node.right),
    }


def _deserialize_tree(doc: dict, n_features: int) -> TreeNode:
    if "weight" in doc:
        return TreeNode(weight=_number(doc["weight"], "tree leaf weight"))
    feature = doc["feature"]
    if isinstance(feature, bool) or not isinstance(feature, int) or not 0 <= feature < n_features:
        raise CorruptBundle(f"tree split feature {feature!r} is not a column below {n_features!r}")
    return TreeNode(
        feature=feature,
        threshold=_number(doc["threshold"], "tree split threshold"),
        left=_deserialize_tree(doc["left"], n_features),
        right=_deserialize_tree(doc["right"], n_features),
    )


def _serialize_array(arr: np.ndarray):
    """A 0-d array is a plain JSON number; any other is {"shape", "data"}."""
    if np.ndim(arr) == 0:
        return float(arr)
    return {"shape": list(arr.shape), "data": [float(v) for v in arr.reshape(-1)]}


def _deserialize_array(doc, shape: tuple, what: str, interval: Optional[str] = None) -> np.ndarray:
    """Inverse of _serialize_array, or a nested JSON list, of `shape` (a None
    length matches any) and of numbers only, each inside `interval` if given."""
    if shape == ():
        return np.array(_number(doc, what), dtype=float)
    arr = (np.array(doc["data"], dtype=object).reshape(doc["shape"]) if isinstance(doc, dict)
           else np.array(doc, dtype=object))
    if arr.ndim != len(shape) or any(w not in (None, g) for w, g in zip(shape, arr.shape)):
        raise CorruptBundle(f"{what} has shape {list(arr.shape)}, expected {list(shape)}")
    for value in arr.flat:
        _number(value, f"{what} element", interval)
    return arr.astype(float)


def serialize_model(algorithm: Algorithm, model) -> dict:
    if algorithm is Algorithm.NB:
        return {
            "family": "nb",
            "priors": [float(v) for v in model.priors],
            "means": [[float(v) for v in row] for row in model.means],
            "variances": [[float(v) for v in row] for row in model.variances],
            "var_floor": float(model.var_floor),
        }
    if algorithm in (Algorithm.GB, Algorithm.XGB):
        config = model.config
        return {
            "family": algorithm.value,
            **asdict(config),
            **asdict(config.tree_params()),  # first-order mode stores lambda = gamma = 0
            "mode": config.mode.value,
            "base_score": model.base_score,
            "n_features": model.n_features,
            "trees": [_serialize_tree(tree) for tree in model.trees],
        }
    params = model.params
    shapes = RNNParams.shapes(params.hidden_size, params.input_size)
    return {
        "family": "rnn",
        "hidden_size": params.hidden_size,
        "input_size": params.input_size,
        **{name: _serialize_array(value) for name, value in zip(shapes, params.arrays())},
    }


def deserialize_model(algorithm: Algorithm, doc: dict):
    if algorithm is Algorithm.NB:
        priors = _deserialize_array(doc["priors"], (2,), "nb priors", "(0, 1]")
        means = _deserialize_array(doc["means"], (2, None), "nb means")
        variances = _deserialize_array(doc["variances"], means.shape, "nb variances", "(0, inf)")
        var_floor = _number(doc["var_floor"], "nb var_floor", "(0, inf)")
        return GaussianNBModel(priors=priors, means=means, variances=variances, var_floor=var_floor)
    if algorithm in (Algorithm.GB, Algorithm.XGB):
        for name, value in FAMILY_CONFIGS[algorithm][1].items():
            expected = getattr(value, "value", value)  # the mode is stored by its value
            if doc[name] != expected:
                raise CorruptBundle(f"{algorithm.value} {name} {doc[name]!r} is not {expected!r}")
        if not isinstance(doc["trees"], list):
            raise CorruptBundle(f"{algorithm.value} model trees must be a JSON list")
        try:
            config = family_config(algorithm, {n: doc[n] for n in PARAM_DEFAULTS[algorithm]})
        except BadHyperparameter as exc:
            raise CorruptBundle(f"{algorithm.value} model: {exc}") from None
        return BoostedEnsemble(
            config=config,
            base_score=_number(doc["base_score"], "base_score"),
            trees=[_deserialize_tree(t, doc["n_features"]) for t in doc["trees"]],
            n_features=doc["n_features"],
        )
    shapes = RNNParams.shapes(doc["hidden_size"], doc["input_size"])
    params = RNNParams(*(
        _deserialize_array(doc[name], shape, f"rnn {name}") for name, shape in shapes.items()
    ))
    return RNNModel(params=params, history=TrainHistory())


# --- evaluation reports --------------------------------------------------------

def serialize_report(report: EvalReport) -> dict:
    return {
        "accuracy": report.accuracy,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "matrix": {
            "tp": report.matrix.tp,
            "fp": report.matrix.fp,
            "fn": report.matrix.fn,
            "tn": report.matrix.tn,
        },
        "model_id": report.model_id,
        "threshold": report.threshold,
    }


def deserialize_report(doc: dict) -> EvalReport:
    return EvalReport(
        accuracy=doc["accuracy"],
        precision=doc["precision"],
        recall=doc["recall"],
        f1=doc["f1"],
        matrix=ConfusionMatrix(
            tp=doc["matrix"]["tp"],
            fp=doc["matrix"]["fp"],
            fn=doc["matrix"]["fn"],
            tn=doc["matrix"]["tn"],
        ),
        model_id=doc["model_id"],
        threshold=doc["threshold"],
    )


# --- bundles --------------------------------------------------------------------

@dataclass
class LoadedBundle:
    format_version: int
    created_at: str
    algorithm: Algorithm
    preprocessor: FittedPreprocessor
    model: object
    train_config: dict
    metrics_at_save: Optional[EvalReport]


def build_bundle(algorithm: Algorithm, fp: FittedPreprocessor, model,
                 train_config: dict,
                 report: Optional[EvalReport] = None,
                 created_at: Optional[str] = None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "created_at": created_at if created_at is not None else _timestamp(),
        "algorithm": algorithm.value,
        "preprocessor": serialize_preprocessor(fp),
        "model": serialize_model(algorithm, model),
        "train_config": train_config,
        "metrics_at_save": serialize_report(report) if report is not None else None,
    }


def bundle_text(bundle: dict) -> str:
    return json.dumps(bundle, sort_keys=True, indent=2, allow_nan=False) + "\n"


def save_bundle(bundle: dict, path: str) -> None:
    atomic_write_text(path, bundle_text(bundle))


def _reject_constant(name: str):
    raise CorruptBundle(f"bundle holds the non-finite number {name}")


def load_bundle(path: str) -> LoadedBundle:
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    try:
        doc = json.loads(raw, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, or an integer literal over the digit limit
        raise CorruptBundle(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptBundle("bundle document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"bundle format_version {version!r} unsupported (expected {FORMAT_VERSION})"
        )
    try:
        algorithm = Algorithm(doc["algorithm"])
        preprocessor = deserialize_preprocessor(doc["preprocessor"])
        model = deserialize_model(algorithm, doc["model"])
        report_doc = doc.get("metrics_at_save")
        report = deserialize_report(report_doc) if report_doc is not None else None
        train_config = doc.get("train_config", {})
        if not isinstance(train_config, dict):
            raise CorruptBundle("train_config must be a JSON object")
        if "threshold" in train_config:
            _number(train_config["threshold"], "train_config threshold")
        created_at = doc.get("created_at", "")
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptBundle(f"bundle is missing or mangles a field: {exc}") from exc
    # the RNN has no fixed width: its sequence encoding takes one scalar per timestep
    expected = len(preprocessor.scale_stats) + len(preprocessor.vocab)
    if algorithm is not Algorithm.RNN and model.n_features != expected:
        raise SchemaMismatch(
            f"model expects {model.n_features} features but preprocessor produces {expected}"
        )
    return LoadedBundle(
        format_version=version,
        created_at=created_at,
        algorithm=algorithm,
        preprocessor=preprocessor,
        model=model,
        train_config=train_config,
        metrics_at_save=report,
    )
