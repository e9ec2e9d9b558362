"""The names the benchmark in perfbench/ reaches into, checked here so that
deleting one fails the tests rather than a later benchmark run."""

import importlib
import os
from time import perf_counter

import pytest

import rdmap
from rdmap import channels, cli, linalg, measures, oracle, verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: every record key the theorem1 workload's judge reads
JUDGED_KEYS = {"closed", "oracle", "gap", "violation", "sigma_ok", "escalated"}


def _callables():
    """The functions and classes of every module the tracer patches, and the
    methods of QuantumChannel, by identity."""
    owners = (rdmap, channels, cli, linalg, measures, oracle, verify, channels.QuantumChannel)
    return [{k: v for k, v in vars(m).items() if callable(v)} for m in owners]


def test_tracer_installs_and_theorem1_judge_reads_every_key(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracer_module = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    before = _callables()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        report = verify.suite_theorem1([2], [0.5, 1.0], trials=1, seed=7)
    finally:
        tracer.uninstall()
    assert _callables() == before
    records = report.records
    assert len(records) == 5 * 2
    # the workload times a problem from its one closed_form_measure call
    assert tracer.calls["measures.closed_form"] == len(records)
    assert tracer.calls["channels.apply"] > 0 and tracer.counts["kraus_ops"] > 0
    for r in records:
        assert JUDGED_KEYS <= set(r)
    theorem1 = workloads.Theorem1(seed=1, tiny=True, root=ROOT)
    outcome = theorem1.judge(7, (report, [(0.0, 0.0)] * len(records)), 0.0, 1.0)
    assert outcome.failed == 0 and outcome.counts == {"escalations": 0}


@pytest.mark.parametrize("name", ["CliMixed", "WarmSweep"])
def test_cli_mixed_and_warm_sweep_judge_one_round_without_failures(name, monkeypatch, tmp_path):
    """One full-size round of each library workload, set up, run and judged
    as the benchmark does it: no operation fails its correctness check."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    workload = getattr(workloads, name)(seed=1, tiny=False, root=str(tmp_path))
    workload.setup()
    calls = workload.round(0)
    failed = 0
    for call in calls:
        t0 = perf_counter()
        raw = workload.execute(call)
        failed += workload.judge(call, raw, t0, perf_counter()).failed
    assert calls and failed == 0
