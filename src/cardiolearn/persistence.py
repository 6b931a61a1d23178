"""Model bundles: one self-describing JSON document per trained model.

A bundle contains the format version, a creation timestamp, the algorithm
tag, the fitted preprocessor, the model parameters, the full hyperparameter
record, and optionally the evaluation report captured at save time. Keys
are sorted and floats keep full round-trip precision, so two runs with the
same config produce byte-identical documents apart from the created_at
line. All files are written atomically (temp file, then rename).
"""

import errno
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .bayes import MAX_VARIANCE, GaussianNBModel
from .boosting import BoostedEnsemble, TreeNode
from .dataset import CATEGORICAL_FEATURES, NUMERIC_FEATURES
from .errors import BadHyperparameter, CorruptBundle, SchemaMismatch, VersionMismatch
from .evaluation import METRIC_NAMES, THRESHOLD_INTERVAL, ConfusionMatrix, EvalReport
from .hyperparams import NUMBER, check
from .preprocess import FittedPreprocessor, UnseenPolicy
from .rnn import RNNModel, RNNParams
from .training import FAMILY_CONFIGS, PARAM_DEFAULTS, Algorithm, family_config

FORMAT_VERSION = 1


def _temp_beside(path: str) -> tuple:
    """(fd, path) of a new temp file in `path`'s directory."""
    return tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")


def _umask() -> int:
    """The process umask, which can only be read by setting it."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def atomic_write_text(path: str, text: str) -> None:
    """Write whole-file contents via a temp file in the same directory, with
    the mode open(path, "w") gives a new file, 0o666 less the umask; an
    OSError names `path`, not the temp file, with its type and errno kept."""
    temp_path = None
    try:
        fd, temp_path = _temp_beside(path)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            os.chmod(temp_path, 0o666 & ~_umask())
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException as exc:
        if temp_path is not None and os.path.exists(temp_path):
            os.unlink(temp_path)
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


def check_writable(path: str) -> None:
    """Raise the OSError `atomic_write_text(path, ...)` would raise for a
    path that is a directory or whose directory is missing or unwritable;
    leaves no file behind."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        fd, temp_path = _temp_beside(path)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    os.close(fd)
    os.unlink(temp_path)


def read_json(path: str, what: str, error: type):
    """The JSON document in the file at `path`; text that is not JSON, nests
    too deep to parse or holds NaN or Infinity raises `error` about `what`."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()

    def reject_constant(name):
        raise error(f"{what} {path} holds the non-finite number {name}")

    try:
        return json.loads(text, parse_constant=reject_constant)
    except (ValueError, RecursionError) as exc:  # also an integer literal over the digit limit
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


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


# finite numbers keyed by exactly the numeric columns
_MEDIANS = (NUMERIC_FEATURES, NUMBER)

# each preprocessor field and the rule its JSON value follows
_PREPROCESSOR = {
    "vocab": (CATEGORICAL_FEATURES, [str]),
    "modes": (CATEGORICAL_FEATURES, str),
    "scale_stats": (NUMERIC_FEATURES, {"mean": NUMBER, "std": "[0, inf)"}),
    "impute_table": [{"sex": str, "decade": int, "medians": _MEDIANS}],
    "global_medians": _MEDIANS,
    "unseen_policy": tuple(policy.value for policy in UnseenPolicy),
}


def deserialize_preprocessor(doc: dict) -> FittedPreprocessor:
    check(doc, _PREPROCESSOR, "preprocessor", CorruptBundle)
    vocab = {name: tuple(tokens) for name, tokens in doc["vocab"].items()}
    for name, mode in doc["modes"].items():
        if mode not in vocab[name]:
            raise CorruptBundle(f"modes {name} must be a token of vocab {name}, got {mode!r}")
    return FittedPreprocessor(
        vocab=vocab,
        modes=dict(doc["modes"]),
        scale_stats={name: (s["mean"], s["std"]) for name, s in doc["scale_stats"].items()},
        impute_table={(e["sex"], e["decade"]): dict(e["medians"]) for e in doc["impute_table"]},
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


def _deserialize_tree(doc: dict, n_features: int, depth_left: int) -> TreeNode:
    """The tree in `doc`, whose splits must lie `depth_left` levels deep at most."""
    if "weight" in doc:
        return TreeNode(weight=check(doc["weight"], NUMBER, "tree leaf weight", CorruptBundle))
    feature = doc["feature"]
    if isinstance(feature, bool) or not isinstance(feature, int) or not 0 <= feature < n_features:
        raise CorruptBundle(f"tree split feature {feature!r} is not a column below {n_features!r}")
    if depth_left == 0:
        raise CorruptBundle("tree splits deeper than its model's max_depth")
    return TreeNode(
        feature=feature,
        threshold=check(doc["threshold"], NUMBER, "tree split threshold", CorruptBundle),
        left=_deserialize_tree(doc["left"], n_features, depth_left - 1),
        right=_deserialize_tree(doc["right"], n_features, depth_left - 1),
    )


def _serialize_array(arr: np.ndarray):
    """A 0-d array is a plain JSON number; any other is {"shape", "data"}."""
    if np.ndim(arr) == 0:
        return float(arr)
    return {"shape": list(arr.shape), "data": arr.ravel().tolist()}


def _deserialize_array(doc, shape: tuple, what: str, interval: str = NUMBER) -> np.ndarray:
    """Inverse of _serialize_array, or a nested JSON list, of `shape` (a None
    length matches any) and of numbers only, each inside `interval`."""
    if shape == ():
        return np.array(check(doc, interval, what, CorruptBundle), dtype=float)
    arr = (np.array(doc["data"], dtype=object).reshape(doc["shape"]) if isinstance(doc, dict)
           else np.array(doc, dtype=object))
    if arr.ndim != len(shape) or any(w not in (None, g) for w, g in zip(shape, arr.shape)):
        raise CorruptBundle(f"{what} has shape {list(arr.shape)}, expected {list(shape)}")
    for value in arr.flat:
        check(value, interval, f"{what} element", CorruptBundle)
    return arr.astype(float)


def serialize_model(algorithm: Algorithm, model) -> dict:
    if algorithm is Algorithm.NB:
        return {
            "family": "nb",
            "priors": model.priors.tolist(),
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
            "var_floor": float(model.var_floor),
        }
    if algorithm in _BOOST_MODE:
        return {
            "family": algorithm.value,
            **asdict(model.config),
            "mode": _BOOST_MODE[algorithm],
            "base_score": model.base_score,
            "n_features": model.n_features,
            "trees": [_serialize_tree(tree) for tree in model.trees],
        }
    params = model.params
    return {
        "family": "rnn",
        "hidden_size": params.hidden_size,
        "input_size": 1,
        **{name: _serialize_array(getattr(params, name))
           for name in RNNParams.shapes(params.hidden_size)},
    }


# format v1 labels each boosting family's model with a fixed mode
_BOOST_MODE = {Algorithm.GB: "first_order", Algorithm.XGB: "second_order"}

# each family's model fields beside its arrays and trees, and their rules; a
# hyperparameter the family fixes must hold its fixed value, and the RNN's
# input width is the fixed 1
_MODEL = {
    Algorithm.NB: {"var_floor": f"(0, {MAX_VARIANCE!r}]"},
    **{family: {"mode": (mode,), "base_score": NUMBER, "n_features": int, "trees": list,
                **{name: f"[{v!r}, {v!r}]" for name, v in FAMILY_CONFIGS[family][1].items()}}
       for family, mode in _BOOST_MODE.items()},
    Algorithm.RNN: {"hidden_size": int, "input_size": "[1, 1]"},
}


def deserialize_model(algorithm: Algorithm, doc: dict):
    what = f"{algorithm.value} model"
    check(doc, {"family": (algorithm.value,), **_MODEL[algorithm]}, what, CorruptBundle)
    # the stored hyperparameters are checked as training checks them
    stored = ("hidden_size",) if algorithm is Algorithm.RNN else PARAM_DEFAULTS[algorithm]
    try:
        config = family_config(algorithm, {n: doc[n] for n in stored})
    except BadHyperparameter as exc:
        raise CorruptBundle(f"{what}: {exc}") from None
    if algorithm is Algorithm.NB:
        priors = _deserialize_array(doc["priors"], (2,), "nb priors", "(0, 1]")
        means = _deserialize_array(doc["means"], (2, None), "nb means")
        var_floor = doc["var_floor"]
        # fitting clamps every variance to at least var_floor
        variances = _deserialize_array(doc["variances"], means.shape, "nb variances",
                                       f"[{var_floor!r}, {MAX_VARIANCE!r}]")
        return GaussianNBModel(priors=priors, means=means, variances=variances, var_floor=var_floor)
    if algorithm in _BOOST_MODE:
        return BoostedEnsemble(
            config=config,
            base_score=doc["base_score"],
            trees=[_deserialize_tree(t, doc["n_features"], config.max_depth) for t in doc["trees"]],
            n_features=doc["n_features"],
        )
    # each field is checked against its shape first, so a hidden_size that
    # its arrays do not match is rejected before the flat vector is allocated
    fields = {name: _deserialize_array(doc[name], shape, f"rnn {name}")
              for name, shape in RNNParams.shapes(config.hidden_size).items()}
    params = RNNParams.zeros(config.hidden_size)
    for name, value in fields.items():
        getattr(params, name)[...] = value
    return RNNModel(params)


# --- evaluation reports --------------------------------------------------------

def serialize_report(report: EvalReport) -> dict:
    return asdict(report)


# each report field and its rule; a metric whose denominator was zero is null
_REPORT = {
    **dict.fromkeys(METRIC_NAMES, (None, "[0, 1]")),
    "matrix": (("tp", "fp", "fn", "tn"), (int, "[0, inf)")),
    "model_id": str,
    "threshold": THRESHOLD_INTERVAL,
}


def deserialize_report(doc: dict) -> EvalReport:
    check(doc, _REPORT, "metrics_at_save", CorruptBundle)
    return EvalReport(**{**doc, "matrix": ConfusionMatrix(**doc["matrix"])})


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


def load_bundle(path: str) -> LoadedBundle:
    doc = check(read_json(path, "bundle", CorruptBundle), dict, "bundle document", CorruptBundle)
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
        train_config = check(doc.get("train_config", {}), dict, "train_config", CorruptBundle)
        if "threshold" in train_config:
            check(train_config["threshold"], THRESHOLD_INTERVAL, "train_config threshold",
                  CorruptBundle)
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
