"""cardiolearn benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds 0 --trace 1 --smoke
    python3 perfbench/run.py --write-manifest

Run from the root of a source checkout; the package is imported from
``src/``. Set-up (inputs from the seed, plus the bundle for predict-xgb) is
repeated at least three times and for at least a second, and `setup_s` is
its median. Then operations run back to back for ``--seconds`` (at least two
of them) and every output is checked.

Every time reported is in reference seconds: the wall time of the interval
scaled by how much slower a fixed pure-Python calibration loop ran during it
than its reference time, CAL_REFERENCE_S. A SIGALRM timer runs the loop every
SAMPLE_PERIOD_S while an interval is timed, and the loop's own time is taken
out of the interval. On a shared host the CPU's speed drifts by up to 1.6x
within seconds, and the loop slows with it; scaling removes that drift,
which no number of repeats would. The wall times, without the loop's time,
are kept in the results file.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs untraced
for half the time, then with spans around cardiolearn's public functions for
the other half, and reports the per-layer metrics; the spans are written to
``perfbench/out``. The last line of stdout is the JSON result. The exit code
is 0 only when every output check passed; it is 2 when the source tree is
missing. ``--smoke`` runs the same code paths on tiny inputs.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("train-all-918", "gridsearch-xgb", "predict-xgb", "preprocess-6000")
RUN_SECONDS = 25
MIN_OPS = 2
MIN_SETUP_REPEATS = 3
MIN_SETUP_SECONDS = 1.0

# The calibration loop: CAL_ITERATIONS additions of squares take about
# CAL_REFERENCE_S on an idle 2-core Xeon at 2.1 GHz with Python 3.11. Run
# every SAMPLE_PERIOD_S, it costs 2% of the time, which is not counted.
CAL_ITERATIONS = 12_000
CAL_REFERENCE_S = 0.001
SAMPLE_PERIOD_S = 0.05

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("op_s", "s", "lower", 0.25),
    ("op_s_p90", "s", "lower", 0.25),
    ("rows_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# name, unit, better, source. Sources: ("self", span) is the span's self time,
# ("incl", span) its whole duration, ("count", counter) a work counter, all
# per operation; ("derived", key) is computed in `layer_metrics`.
PER_LAYER = (
    ("rnn.train_s", "s", "lower", ("self", "rnn.train")),
    ("rnn.epochs_run", "count", "lower", ("count", "rnn.epochs_run")),
    ("rnn.epoch_s", "s", "lower", ("derived", "epoch_s")),
    ("rnn.forward_calls", "count", "lower", ("count", "rnn.forward.calls")),
    ("rnn.forward_s", "s", "lower", ("self", "rnn.forward")),
    ("rnn.backward_calls", "count", "lower", ("count", "rnn.backward.calls")),
    ("rnn.backward_s", "s", "lower", ("self", "rnn.backward")),
    ("rnn.rmsprop_steps", "count", "lower", ("count", "rnn.rmsprop.calls")),
    ("rnn.rmsprop_s", "s", "lower", ("self", "rnn.rmsprop")),
    ("boosting.fit_boosted_s", "s", "lower", ("self", "boosting.fit_boosted")),
    ("boosting.fit_tree_s", "s", "lower", ("self", "boosting.fit_tree")),
    ("boosting.trees_built", "count", "lower", ("count", "boosting.trees_built")),
    ("boosting.rounds_used_ratio", "ratio", "higher", ("derived", "rounds_used_ratio")),
    ("evaluation.evaluate_s", "s", "lower", ("self", "evaluation.evaluate")),
    ("evaluation.rows_scored", "count", "lower", ("count", "evaluation.rows_scored")),
    ("pipeline.predict_probabilities_s", "s", "lower",
     ("self", "pipeline.predict_probabilities")),
    ("evaluation.cross_validate_s", "s", "lower", ("self", "evaluation.cross_validate")),
    ("evaluation.folds_run", "count", "lower", ("count", "evaluation.folds_run")),
    ("evaluation.grid_search_s", "s", "lower", ("self", "evaluation.grid_search")),
    ("evaluation.results_csv_s", "s", "lower", ("self", "evaluation.results_csv")),
    ("dataset.load_csv_s", "s", "lower", ("self", "dataset.load_csv")),
    ("dataset.rows_parsed", "count", "lower", ("count", "dataset.rows_parsed")),
    ("dataset.split_s", "s", "lower", ("self", "dataset.split")),
    ("preprocess.fit_s", "s", "lower", ("self", "preprocess.fit")),
    ("preprocess.transform_s", "s", "lower", ("self", "preprocess.transform")),
    ("preprocess.rows_transformed", "count", "lower", ("count", "preprocess.rows_transformed")),
    ("preprocess.smote_s", "s", "lower", ("self", "preprocess.smote")),
    ("preprocess.smote_minority_rows", "count", "lower",
     ("count", "preprocess.smote_minority_rows")),
    ("preprocess.smote_rows_added", "count", "lower", ("count", "preprocess.smote_rows_added")),
    ("preprocess.flag_outliers_s", "s", "lower", ("self", "preprocess.flag_outliers")),
    ("persistence.load_bundle_s", "s", "lower", ("self", "persistence.load_bundle")),
    ("persistence.save_bundle_s", "s", "lower", ("self", "persistence.save_bundle")),
    ("persistence.build_bundle_s", "s", "lower", ("self", "persistence.build_bundle")),
    ("persistence.atomic_write_s", "s", "lower", ("self", "persistence.atomic_write")),
    ("persistence.bytes_written", "count", "lower", ("count", "persistence.bytes_written")),
    ("training.fit_s.nb", "s", "lower", ("incl", "training.fit.nb")),
    ("training.fit_s.gb", "s", "lower", ("incl", "training.fit.gb")),
    ("training.fit_s.xgb", "s", "lower", ("incl", "training.fit.xgb")),
    ("training.fit_s.rnn", "s", "lower", ("incl", "training.fit.rnn")),
    ("bayes.fit_s", "s", "lower", ("self", "bayes.fit")),
    ("pipeline.prepare_matrices_s", "s", "lower", ("self", "pipeline.prepare_matrices")),
    ("pipeline.run_training_s", "s", "lower", ("self", "pipeline.run_training")),
    ("cli.build_parser_s", "s", "lower", ("self", "cli.build_parser")),
    ("cli.main_s", "s", "lower", ("self", "cli.main")),
    ("rng.draws", "count", "lower", ("count", "rng.draws")),
    ("trace.op_s", "s", "lower", ("derived", "traced_op_s")),
    ("trace.overhead_s", "s", "lower", ("derived", "overhead_s")),
    ("trace.coverage", "ratio", "higher", ("derived", "coverage")),
)


def manifest(workloads):
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def manifest_text(workloads):
    return json.dumps(manifest(workloads), indent=2) + "\n"


def git_commit():
    """HEAD of the checkout read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_commit": git_commit(),
        "seed": seed,
    }


def calibration_s():
    start = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class Clock:
    """Times intervals in reference seconds (see the module docstring)."""

    def __init__(self):
        self.samples = [calibration_s() for _ in range(10)]
        self.speed = statistics.fmean(self.samples) / CAL_REFERENCE_S

    def _sample(self, signum, frame):
        self.samples.append(calibration_s())

    def measure(self, fn):
        """Returns (fn's result, wall seconds, reference seconds)."""
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        during = self.samples[first:]
        if during:      # else the last interval's speed stands
            self.speed = statistics.fmean(during) / CAL_REFERENCE_S
        wall -= sum(during)
        return result, wall, wall / self.speed


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Runner:
    """Runs one workload's operations and applies the output checks."""

    def __init__(self, workload, ctx, clock):
        self.workload = workload
        self.ctx = ctx
        self.clock = clock
        self.times = []                 # reference seconds per operation
        self.wall_times = []
        self.rows = 0
        self.attempted = 0
        self.failures = []
        self.first = None
        self.accuracies = {}

    def run_op(self, call=None):
        """One operation, timed; `call` wraps it (the tracer's root span)."""
        from workloads import OpFailed

        op = lambda: self.workload.op(self.ctx)
        self.attempted += 1
        try:
            stdout, wall, seconds = self.clock.measure(lambda: call(op) if call else op())
        except OpFailed as exc:
            self.failures.append(f"op {self.attempted}: {exc}")
            return
        result = self.workload.check(self.ctx, stdout)
        self.times.append(seconds)
        self.wall_times.append(wall)
        self.rows += result.rows
        problems = list(result.problems)
        if self.first is None:
            self.first = result
            self.accuracies = result.accuracies
        elif result.digests != self.first.digests:
            changed = [a[0] for a, b in zip(result.digests, self.first.digests) if a != b]
            problems.append(f"output differs from the first operation's: {changed}")
        if problems:
            self.failures.append(f"op {self.attempted}: " + "; ".join(problems))

    def loop(self, seconds, min_ops, call=None):
        start = time.perf_counter()
        done = 0
        while done < min_ops or time.perf_counter() - start < seconds:
            self.run_op(call)
            done += 1


def run_setup(workload, ctx, clock):
    """Repeat set-up; returns (median reference seconds, repeats, problems)."""
    times, wall, digests = [], 0.0, []
    while len(times) < MIN_SETUP_REPEATS or wall < MIN_SETUP_SECONDS:
        digest, seconds, scaled = clock.measure(lambda: workload.setup(ctx))
        digests.append(digest)
        times.append(scaled)
        wall += seconds
    problems = [] if all(d == digests[0] for d in digests) else ["set-up is not deterministic"]
    return median(times), len(times), problems


def layer_metrics(tracer, traced_times, traced_wall, untraced_times):
    """Per-layer metrics; span times are scaled like their operation's."""
    self_times, roots = tracer.self_times()
    ops = sorted(roots)
    scale = dict(zip(ops, (t / w for t, w in zip(traced_times, traced_wall))))
    incl = {}
    for op_id, name, start, end, _ in tracer.spans:
        incl.setdefault(op_id, {}).setdefault(name, 0.0)
        incl[op_id][name] += (end - start) * scale.get(op_id, 1.0)
    counts = [tracer.counts[op_id] for op_id in ops]
    problems = [] if all(c == counts[0] for c in counts) else [
        "work counters differ between identical traced operations"]
    count = counts[0] if counts else {}
    epochs = count.get("rnn.epochs_run", 0)
    requested = count.get("boosting.rounds_requested", 0)
    derived = {
        "epoch_s": median([incl[o].get("rnn.train", 0.0) for o in ops]) / epochs if epochs else 0.0,
        "rounds_used_ratio": count.get("boosting.trees_built", 0) / requested if requested else 0.0,
        "traced_op_s": median(traced_times),
        "overhead_s": median(traced_times) - median(untraced_times),
        "coverage": median([1.0 - self_times[o]["cli.main"] / roots[o] for o in ops]),
    }
    metrics = {}
    for name, unit, _, (kind, key) in PER_LAYER:
        if kind == "self":
            value = median([self_times[o].get(key, 0.0) * scale.get(o, 1.0) for o in ops])
        elif kind == "incl":
            value = median([incl[o].get(key, 0.0) for o in ops])
        elif kind == "count":
            value = count.get(key, 0)
        else:
            value = derived[key]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs through the same code paths")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from the definitions here")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_package():
    """Import cardiolearn from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cardiolearn", "__init__.py")):
        return None
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    package = importlib.import_module("cardiolearn")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "cardiolearn"):
        return None
    return importlib.import_module("workloads")


def main(argv=None):
    args = parse_args(argv)
    workloads = import_package()
    if workloads is None:
        print(f"perfbench: no cardiolearn source tree at {SRC}", file=sys.stderr)
        return 2
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            handle.write(manifest_text(workloads.WORKLOADS))
        return 0

    workload = workloads.BY_NAME[args.workload]
    profile = "smoke" if args.smoke else "full"
    env = environment(args.seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        ctx = workloads.Context(workdir, args.seed, profile)
        clock = Clock()
        setup_s, setup_repeats, problems = run_setup(workload, ctx, clock)
        runner = Runner(workload, ctx, clock)
        if args.trace:
            from spans import Tracer

            runner.loop(args.seconds / 2, 1)
            untraced = list(runner.times)
            modules = {name: importlib.import_module(f"cardiolearn.{name}") for name in
                       ("cli", "dataset", "pipeline", "evaluation", "preprocess",
                        "training", "boosting", "rnn", "persistence", "rng")}
            tracer = Tracer(modules)
            tracer.install()
            try:
                runner.loop(args.seconds / 2, 1, call=tracer.operation)
            finally:
                tracer.uninstall()
            first = len(untraced)
            metrics, trace_problems = layer_metrics(
                tracer, runner.times[first:], runner.wall_times[first:], untraced)
            problems += trace_problems
        else:
            runner.loop(args.seconds, MIN_OPS)
            total = sum(runner.times)
            metrics = {
                "op_s": median(runner.times),
                "op_s_p90": p90(runner.times) if runner.times else 0.0,
                "rows_per_s": runner.rows / total if total else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": setup_s,
            }
            units = {n: u for n, u, _, _ in END_TO_END}
            metrics = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = problems + runner.failures
    attempted = runner.attempted
    failed = min(attempted, len(runner.failures) + (1 if problems else 0))
    env["loadavg_1m_end"] = os.getloadavg()[0]
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}" + (".smoke" if args.smoke else "")
    if args.trace:
        tracer.write_jsonl(os.path.join(OUT, stem + ".spans.jsonl"))
    record = {
        "workload": args.workload, "profile": profile, "why": workload.why,
        "moves": workload.moves, "bypasses": workload.bypasses,
        "environment": env, "setup_repeats": setup_repeats, "op_times_s": runner.times,
        "op_wall_times_s": runner.wall_times, "calibrations_s": clock.samples,
        "accuracies": runner.accuracies, "failures": failures,
        "error_rate": failed / attempted, "metrics": metrics,
    }
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {len(runner.times)} operations, "
          f"{setup_repeats} set-ups, error_rate {failed / attempted:g}, "
          f"median wall op {median(runner.wall_times):.6g} s, "
          f"median calibration {median(clock.samples):.6g} s")
    for name, value in sorted(runner.accuracies.items()):
        print(f"# {name:34s} {value:.6f}")
    for name, metric in metrics.items():
        print(f"# {name:34s} {metric['value']:.6g} {metric['unit']}")
    for failure in failures:
        print(f"# FAILED {failure}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
