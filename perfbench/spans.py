"""In-memory span tracing around cardiolearn's public functions.

The benchmark patches each public function under the name its caller looks
it up by (``cli.load_bundle``, ``boosting.fit_tree``, ...), so nothing under
``src/`` changes. A span is ``(op_id, name, start, end, parent)``; a layer's
self time is its span minus the time its child spans cover. Counters are
taken at the same boundaries from each call's arguments and result.
"""

import json
import time
from collections import Counter, defaultdict

# (module, attribute, layer). One layer may be patched at several lookup
# sites; every caller that reaches it goes through one of them.
PATCH_SITES = (
    ("cli", "build_parser", "cli.build_parser"),
    ("dataset", "load_csv", "dataset.load_csv"),
    ("dataset", "load_unlabeled_csv", "dataset.load_csv"),
    ("pipeline", "stratified_split", "dataset.split"),
    ("evaluation", "kfold", "dataset.split"),
    ("preprocess", "fit", "preprocess.fit"),
    ("preprocess", "transform", "preprocess.transform"),
    ("preprocess", "smote", "preprocess.smote"),
    ("preprocess", "flag_outliers", "preprocess.flag_outliers"),
    ("cli", "prepare_matrices", "pipeline.prepare_matrices"),
    ("pipeline", "prepare_matrices", "pipeline.prepare_matrices"),
    ("cli", "run_training", "pipeline.run_training"),
    ("cli", "predict_probabilities", "pipeline.predict_probabilities"),
    ("pipeline", "fit_algorithm", "training.fit"),
    ("evaluation", "fit_algorithm", "training.fit"),
    ("training", "fit_gaussian_nb", "bayes.fit"),
    ("training", "fit_boosted", "boosting.fit_boosted"),
    ("boosting", "fit_tree", "boosting.fit_tree"),
    ("training", "train_rnn", "rnn.train"),
    ("rnn", "forward", "rnn.forward"),
    ("rnn", "backward", "rnn.backward"),
    ("rnn", "rmsprop_step", "rnn.rmsprop"),
    ("pipeline", "evaluate_model", "evaluation.evaluate"),
    ("evaluation", "evaluate_model", "evaluation.evaluate"),
    ("cli", "grid_search", "evaluation.grid_search"),
    ("evaluation", "cross_validate", "evaluation.cross_validate"),
    ("cli", "results_csv", "evaluation.results_csv"),
    ("cli", "load_bundle", "persistence.load_bundle"),
    ("cli", "save_bundle", "persistence.save_bundle"),
    ("pipeline", "build_bundle", "persistence.build_bundle"),
    ("cli", "atomic_write_text", "persistence.atomic_write"),
    ("persistence", "atomic_write_text", "persistence.atomic_write"),
)

OP_LAYER = "cli.main"


def _span_name(layer, args):
    """`training.fit` spans carry the model family: `training.fit.rnn`."""
    if layer == "training.fit":
        return f"training.fit.{args[0].algorithm.value}"
    return layer


def _count(counts, layer, args, result):
    """Work counters read from one call's arguments and result."""
    counts[f"{layer}.calls"] += 1
    if layer == "dataset.load_csv":
        counts["dataset.rows_parsed"] += len(result)
    elif layer == "preprocess.transform":
        counts["preprocess.rows_transformed"] += result.n_rows
    elif layer == "preprocess.smote":
        labels = args[0].labels
        counts["preprocess.smote_minority_rows"] += int(min((labels == 0).sum(), (labels == 1).sum()))
        counts["preprocess.smote_rows_added"] += result.n_rows - args[0].n_rows
    elif layer == "evaluation.evaluate":
        counts["evaluation.rows_scored"] += args[1].n_rows
    elif layer == "pipeline.predict_probabilities":
        counts["evaluation.rows_scored"] += len(result)
    elif layer == "evaluation.cross_validate":
        counts["evaluation.folds_run"] += len(result.fold_reports)
    elif layer == "boosting.fit_boosted":
        counts["boosting.trees_built"] += len(result.trees)
        counts["boosting.rounds_requested"] += args[1].n_rounds
    elif layer == "rnn.train":
        counts["rnn.epochs_run"] += result[1].stopped_epoch
    elif layer == "persistence.atomic_write":
        counts["persistence.bytes_written"] += len(args[1].encode("utf-8"))


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self, modules):
        self.modules = modules          # short name -> imported module
        self.spans = []                 # (op_id, name, start, end, parent)
        self.counts = defaultdict(Counter)  # op_id -> counter name -> value
        self._stack = []
        self._saved = []
        self.op_id = -1

    def _wrap(self, layer, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.op_id, _span_name(layer, args), start, end, parent)
            _count(counts[self.op_id], layer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, layer in PATCH_SITES:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        rng_class = self.modules["rng"].SplitMix64
        next_u64 = rng_class.next_u64
        self._saved.append((rng_class, "next_u64", next_u64))
        counts = self.counts

        def counted(gen):
            counts[self.op_id]["rng.draws"] += 1
            return next_u64(gen)

        rng_class.next_u64 = counted

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def operation(self, fn):
        """Run one operation under a root span; returns fn's result."""
        self.op_id += 1
        return self._wrap(OP_LAYER, fn)()

    def self_times(self):
        """{op_id: {span name: self seconds}} and {op_id: root seconds}."""
        child_time = [0.0] * len(self.spans)
        for op_id, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_op = defaultdict(Counter)
        root = {}
        for i, (op_id, name, start, end, parent) in enumerate(self.spans):
            per_op[op_id][name] += (end - start) - child_time[i]
            if name == OP_LAYER:
                root[op_id] = end - start
        return per_op, root

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for op_id, name, start, end, parent in self.spans:
                out.write(json.dumps({"op": op_id, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")
