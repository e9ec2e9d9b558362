"""Smoke test of the benchmark itself: every workload at its tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each workload runs traced and untraced with zero failed
operations, that percentiles are withheld without ten samples beyond them,
that a host-speed slice follows every call, that the output digest and the work counts repeat exactly at a fixed seed,
and that the benchmark refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("theorem1", "cli_mixed", "warm_sweep")
SEED = 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload, trace, root=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, check=check)
    if not check:
        return proc
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_tiny_run_is_correct_and_repeatable(workload):
    report, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = report["metrics"]
    for name in ("ops_per_s", "setup_s", "peak_rss_mb"):
        assert metrics[name]["value"] > 0
    n = metrics["ops_per_s"]["samples"]
    assert result["attempted"] == report["passes"] * n
    assert report["host_slices"] >= result["attempted"]
    assert set(report["unscaled_metrics"]) <= set(metrics)
    for p in (50, 95):
        name = f"latency_p{p}_ms"
        assert (name in metrics) == (n - int(p / 100 * (n + 1)) >= 10)
        if name in metrics:
            assert metrics[name]["samples"] == n

    again, _ = bench(workload, 0)
    assert again["digest"] == report["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_reports_every_layer_metric(workload):
    spec = load_spec()
    report, result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert os.path.getsize(os.path.join(ROOT, report["spans_file"])) > 0

    untraced, _ = bench(workload, 0)
    again, _ = bench(workload, 1)
    assert report["digest"] == untraced["digest"] == again["digest"]
    assert report["work_counts"] == again["work_counts"]


def test_refuses_to_run_without_package_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("warm_sweep", 0, root=bare, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
