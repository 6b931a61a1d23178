"""Tests of the benchmark itself, on the smoke profile.

    python3 -m pytest perfbench

Every workload runs untraced and traced through the same code path as a
measured run, with its output checks, on tiny inputs.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1])


def smoke_argv(workload, trace):
    return ["--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--smoke"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    code, result = run_main(smoke_argv(workload, trace))
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = run.END_TO_END if trace == 0 else run.PER_LAYER
    assert list(result["metrics"]) == [m[0] for m in expected]
    for name, unit, *_ in expected:
        assert result["metrics"][name]["unit"] == unit


def test_failed_output_check_exits_nonzero(monkeypatch):
    workloads = run.import_package()
    monkeypatch.setattr(workloads, "ACCURACY_TOLERANCE", -1.0)
    code, result = run_main(smoke_argv("train-all-918", 0))
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_checked_in_manifest_matches_definitions():
    workloads = run.import_package()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert handle.read() == run.manifest_text(workloads.WORKLOADS)
    assert [w.name for w in workloads.WORKLOADS] == list(run.WORKLOAD_NAMES)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in workloads.WORKLOADS)


def test_without_source_tree_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *smoke_argv("predict-xgb", 0)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
