"""Smoke test of the benchmark: tiny runs, no timing gates.

    python -m pytest bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"] for m in json.load(f)[kind]}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    return result


def test_untraced_run_checks_outputs_and_reports_end_to_end_metrics():
    result = _result(_run("shift-fronts", 0))
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_and_writes_spans():
    result = _result(_run("sweep-lowdim", 1))
    assert set(result["metrics"]) == _declared("per_layer")
    spans = os.path.join(HERE, "out", "spans-sweep-lowdim-s3.jsonl")
    with open(spans, encoding="utf-8") as handle:
        first = json.loads(handle.readline())
    assert set(first) == {"id", "parent", "name", "start", "end"}


def test_inputs_follow_the_seed(tmp_path):
    def texts(seed, where):
        specs, _ = workloads.write_workload("sweep-highdim", seed,
                                            str(tmp_path / where))
        return [s.text for s in specs]

    assert texts(5, "a") == texts(5, "b")
    assert texts(5, "a") != texts(6, "c")


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("sweep-lowdim", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
