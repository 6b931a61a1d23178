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
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .bayes import GaussianNBModel
from .boosting import BoostConfig, BoostedEnsemble, BoostMode, TreeNode
from .errors import CorruptBundle, SchemaMismatch, VersionMismatch
from .evaluation import ConfusionMatrix, EvalReport
from .preprocess import FittedPreprocessor, UnseenPolicy
from .rnn import RNNModel, RNNParams, TrainHistory
from .training import Algorithm

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


def _number(value, what: str):
    """A bundle field that must be a JSON number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CorruptBundle(f"{what} must be a number, got {value!r}")
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


def _serialize_array(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(v) for v in arr.reshape(-1)]}


def _deserialize_array(doc: dict) -> np.ndarray:
    return np.array(doc["data"], dtype=float).reshape(doc["shape"])


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
        tree_params = config.tree_params()  # first-order mode stores lambda = gamma = 0
        return {
            "family": algorithm.value,
            "mode": config.mode.value,
            "base_score": model.base_score,
            "learning_rate": config.learning_rate,
            "reg_lambda": tree_params.reg_lambda,
            "gamma": tree_params.gamma,
            "max_depth": config.max_depth,
            "n_rounds": config.n_rounds,
            "min_child_weight": config.min_child_weight,
            "n_features": model.n_features,
            "trees": [_serialize_tree(tree) for tree in model.trees],
        }
    params = model.params
    return {
        "family": "rnn",
        "hidden_size": params.hidden_size,
        "input_size": params.input_size,
        "W_xh": _serialize_array(params.W_xh),
        "W_hh": _serialize_array(params.W_hh),
        "W_hy": _serialize_array(params.W_hy),
        "b_h": _serialize_array(params.b_h),
        "b_y": params.b_y,
    }


def deserialize_model(algorithm: Algorithm, doc: dict):
    if algorithm is Algorithm.NB:
        return GaussianNBModel(
            priors=np.array(doc["priors"], dtype=float),
            means=np.array(doc["means"], dtype=float),
            variances=np.array(doc["variances"], dtype=float),
            var_floor=doc["var_floor"],
        )
    if algorithm in (Algorithm.GB, Algorithm.XGB):
        config = BoostConfig(
            mode=BoostMode(doc["mode"]),
            n_rounds=doc["n_rounds"],
            learning_rate=doc["learning_rate"],
            max_depth=doc["max_depth"],
            reg_lambda=doc["reg_lambda"],
            gamma=doc["gamma"],
            min_child_weight=doc["min_child_weight"],
        )
        return BoostedEnsemble(
            config=config,
            base_score=_number(doc["base_score"], "base_score"),
            trees=[_deserialize_tree(t, doc["n_features"]) for t in doc["trees"]],
            n_features=doc["n_features"],
        )
    params = RNNParams(
        W_xh=_deserialize_array(doc["W_xh"]),
        W_hh=_deserialize_array(doc["W_hh"]),
        W_hy=_deserialize_array(doc["W_hy"]),
        b_h=_deserialize_array(doc["b_h"]),
        b_y=doc["b_y"],
    )
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
        train_config = doc.get("train_config") or {}
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
