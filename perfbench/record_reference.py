"""Record the reference accuracies that the accuracy checks compare against.

    python3 perfbench/record_reference.py [--smoke] SEED [SEED ...]

Runs one operation of each workload that reports accuracies, for each seed,
and merges the results into perfbench/reference.json. Record at the commit
whose models are the reference; a later commit is checked against them.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    workloads = run.import_package()
    if workloads is None:
        print(f"record_reference: no cardiolearn source tree at {run.SRC}", file=sys.stderr)
        return 2
    profile = "smoke" if args.smoke else "full"
    os.makedirs(run.OUT, exist_ok=True)
    with open(workloads.REFERENCE_PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    for name in ("train-all-918", "gridsearch-xgb"):
        workload = workloads.BY_NAME[name]
        entries = table.setdefault(profile, {}).setdefault(name, {})
        for seed in args.seeds:
            workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
            try:
                ctx = workloads.Context(workdir, seed, profile)
                workload.setup(ctx)
                entries[str(seed)] = workload.check(ctx, workload.op(ctx)).accuracies
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{profile} {name} seed {seed}: {entries[str(seed)]}", flush=True)
            with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
                json.dump(table, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
