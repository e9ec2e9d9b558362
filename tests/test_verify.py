import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmap import linalg, verify
from rdmap.errors import ValidationError
from rdmap.measures import closed_form_measure
from rdmap.oracle import OracleConfig, minimize_batch
from rdmap.verify import (
    DEFAULT_A_GRID,
    GAP_TOL,
    ORACLE_TOL,
    SUITE_NAMES,
    random_partition,
    run_suite,
    suite_axioms,
    suite_continuity_a1,
    suite_piani_demo,
    suite_theorem1,
    suite_theorem2,
    theorem1_batches,
)

SMALL_GRID = [0.5, 1.0, 2.0]


def test_random_partition_covers_indices():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5, 6):
        for _ in range(20):
            part = random_partition(d, rng)
            assert sorted(i for b in part.blocks for i in b) == list(range(d))


def test_random_partition_coarse_rejects_singletons():
    rng = np.random.default_rng(1)
    for _ in range(30):
        part = random_partition(4, rng, coarse=True)
        assert max(part.degeneracies) >= 2
    # d=2 leaves only the single block
    for _ in range(5):
        assert random_partition(2, rng, coarse=True).degeneracies == (2,)


def test_theorem1_small_run_passes():
    rep = suite_theorem1([2], SMALL_GRID, trials=3, seed=7)
    assert rep.suite == "theorem1"
    assert rep.failures == 0
    assert rep.trials == 3
    assert len(rep.records) == 3 * 5 * len(SMALL_GRID)
    assert rep.worst_violation <= 0
    assert all(r["sigma_ok"] for r in rep.records)
    assert all(r["sigma_fp_residual"] <= 1e-9 for r in rep.records)


def test_theorem1_fixed_point_trials_vanish():
    rep = suite_theorem1([2], [1.0], trials=1, seed=3)
    fixed = [r for r in rep.records if r["fixed"]]
    assert fixed, "trial 0 must be a fixed-point trial"
    for r in fixed:
        assert abs(r["closed"]) <= 1e-8
        assert abs(r["oracle"]) <= 1e-8


def test_theorem1_rejects_large_dims():
    with pytest.raises(ValidationError):
        suite_theorem1([9], SMALL_GRID, trials=1, seed=0)


def test_theorem1_deterministic_records():
    r1 = suite_theorem1([2], [0.5], trials=2, seed=9)
    r2 = suite_theorem1([2], [0.5], trials=2, seed=9)
    assert r1.records == r2.records
    assert r1.failures == r2.failures


def test_theorem1_cross_trial_batches_change_no_record():
    """Solving all trials of a dimension together gives, field by field, the
    records of solving each (trial, dim) batch on its own."""
    dims, trials, seed = [2, 3], 3, 7
    rep = suite_theorem1(dims, DEFAULT_A_GRID, trials=trials, seed=seed)
    expected = []
    for t, s, d, problems in theorem1_batches(dims, DEFAULT_A_GRID, trials, seed):
        reports = [closed_form_measure(rho, rdm, a) for _, rdm, rho, a, _ in problems]
        results = minimize_batch(
            [(rho, rdm, a) for _, rdm, rho, a, _ in problems],
            OracleConfig(restarts=1, tol=ORACLE_TOL), [oseed for *_, oseed in problems])
        for (name, _, _, a, _), r, res in zip(problems, reports, results):
            expected.append({
                "trial": t, "seed": s, "dim": d, "map": name, "a": a,
                "fixed": t % 10 == 0, "closed": r.value, "oracle": res.value,
                "gap": res.value - r.value, "escalated": False,
                "restarts_agreeing": res.restarts_agreeing,
                "evaluations": res.evaluations, "iterations": res.iterations,
                "stop_reason": res.stop_reason, "cap_hits": res.cap_hits,
                "oracle_grad": res.grad_norm,
                "sigma_ok": bool(linalg.density_ok([r.sigma_star])[0]),
                "sigma_fp_residual": r.fixed_point_residual,
                "violation": abs(res.value - r.value) - GAP_TOL,
            })
    assert rep.records[0]["fixed"], "trial 0 must be a fixed-point trial"
    assert len(rep.records) == len(expected) == trials * len(dims) * 5 * len(DEFAULT_A_GRID)
    for got, want in zip(rep.records, expected):
        assert list(got) == list(want)
        for key in want:
            assert got[key] == want[key], (key, got, want)


def test_theorem1_times_each_problem_from_its_closed_form(monkeypatch):
    """The benchmark marks each theorem-1 problem's start at its call of
    verify.closed_form_measure: one call per record, in record order, and
    every call of a dimension before that dimension's one minimize_batch."""
    events = []
    inner_closed, inner_solve = verify.closed_form_measure, verify.minimize_batch

    def closed(rho, rdm, a):
        events.append(("closed", rdm.dim, a))
        return inner_closed(rho, rdm, a)

    def solve(problems, config, seeds):
        events.append(("solve", problems[0][1].dim, len(problems)))
        return inner_solve(problems, config, seeds)

    monkeypatch.setattr(verify, "closed_form_measure", closed)
    monkeypatch.setattr(verify, "minimize_batch", solve)
    rep = suite_theorem1([2, 3], SMALL_GRID, trials=2, seed=7)
    n = 2 * 5 * len(SMALL_GRID)
    assert len(rep.records) == 2 * n
    want = []
    for d in (2, 3):
        want += [("closed", d, r["a"]) for r in rep.records if r["dim"] == d]
        want.append(("solve", d, n))
    assert events == want


def test_theorem1_with_an_empty_order_grid_has_no_records():
    rep = suite_theorem1([2, 3], [], trials=1, seed=0)
    assert rep.records == []


def test_theorem1_one_budget_converges_on_every_problem():
    """One budget serves every d: on the first rounds' inputs (the single-
    block Lueders maps at d = 3, 4 are the slowest to converge) no simplex
    stops at the iteration cap and every record ends on the tolerance."""
    rep = suite_theorem1([2, 3, 4], DEFAULT_A_GRID, trials=2, seed=9)
    assert len(rep.records) == 2 * 3 * 5 * len(DEFAULT_A_GRID)
    assert all(r["cap_hits"] == 0 for r in rep.records)
    assert all(r["stop_reason"] == "tolerance" for r in rep.records)
    assert max(abs(r["gap"]) for r in rep.records) <= 1e-7


def test_theorem1_logs_progress_per_dimension(caplog, capsys):
    with caplog.at_level(logging.INFO, logger="rdmap.verify"):
        rep = suite_theorem1([2, 3], [2.0], trials=2, seed=7)
    lines = [r.getMessage() for r in caplog.records if r.name == "rdmap.verify"]
    assert [line.split(":")[0] for line in lines] == ["theorem1 d=2", "theorem1 d=3"]
    assert all("10 problems" in line and "0 cap hits" in line for line in lines)
    # one stack per dimension, whatever its r: its iterations are those of
    # its slowest row, and its line searches scored every point but the
    # one start of each problem
    for d, line in zip((2, 3), lines):
        stack, searched = re.search(
            r"cap hits, (\d+) stack iterations, (\d+) line-search points;", line).groups()
        mine = [r for r in rep.records if r["dim"] == d]
        assert int(stack) == max(r["iterations"] for r in mine) > 0
        assert int(searched) == sum(r["evaluations"] for r in mine) - len(mine)
    assert all("(r - 1 parameters)" in line and "2r" not in line for line in lines)
    # d = 2: dephasing and the twirl have r = 2, mixing r = 1, and the
    # coarse partition is the single block (Lueders r = 4, modified r = 1)
    assert lines[0].endswith("r=1: 4, r=2: 4, r=4: 2")
    # the points scored per map family, before the per-r list, are the
    # sums of its records' evaluations
    for d, line in zip((2, 3), lines):
        listed = re.search(r"points scored per map: ([^;]*);", line).group(1)
        scored = {}
        for r in rep.records:
            if r["dim"] == d:
                scored[r["map"]] = scored.get(r["map"], 0) + r["evaluations"]
        assert listed == ", ".join(f"{name}: {n}" for name, n in scored.items())
    # the library installs no handler, so nothing reaches stdout or stderr
    assert not logging.getLogger("rdmap.verify").handlers
    assert not logging.getLogger("rdmap").handlers
    suite_theorem1([2], [2.0], trials=1, seed=7)
    assert capsys.readouterr() == ("", "")


def test_axioms_small_run():
    rep = suite_axioms(trials=12, seed=21)
    assert rep.failures == 0
    kinds = {r["kind"] for r in rep.records}
    assert kinds == {"faithfulness", "invariance", "convexity",
                     "monotone_map", "monotone_free_unitary", "monotone_instrument"}
    # the map itself always lands in the kernel
    for r in rep.records:
        if r["kind"] == "faithfulness":
            assert r["value"] <= 1e-9


@pytest.mark.parametrize("name, dims", [("theorem1", [2]), ("theorem2", [3])])
@pytest.mark.parametrize("order", [True, "0.5", 0.0, 2.5])
def test_oracle_suites_validate_every_order(name, dims, order):
    """Each order of the grid goes through measures.validate_order, as the
    closed form's does: a bool once ran as a = 1 and a string was parsed as
    a number."""
    with pytest.raises(ValidationError, match="order a"):
        run_suite(name, dims=dims, a_grid=[2.0, order], trials=1, seed=7)


def test_theorem2_small_run():
    rep = suite_theorem2([3, 4], SMALL_GRID, trials=4, seed=5)
    assert rep.failures == 0
    ineq = [r for r in rep.records if r["kind"] == "inequality"]
    comp = [r for r in rep.records if r["kind"] == "compose"]
    assert len(ineq) == 4 * 2 * len(SMALL_GRID)
    assert len(comp) == 4 * 2
    assert all(r["value"] <= 1e-10 for r in comp)
    assert all(r["slack"] >= -1e-9 for r in ineq)


def test_theorem2_rejects_qubit_dims():
    with pytest.raises(ValidationError):
        suite_theorem2([2], SMALL_GRID, trials=1, seed=0)


def test_piani_counts_only_a1():
    rep = suite_piani_demo(trials=14, seed=2)
    assert rep.failures == 0
    counted = [r for r in rep.records if r["counted"]]
    uncounted = [r for r in rep.records if not r["counted"]]
    assert counted and uncounted
    for r in counted:
        assert r["a"] == 1.0
        assert r["difference"] >= -1e-9
    for r in uncounted:
        assert r["violation"] is None


def test_continuity_small_run():
    rep = suite_continuity_a1(trials=8, seed=13)
    assert rep.failures == 0
    for r in rep.records:
        assert r["deviation"] <= 1e-3
        if r["fixed"]:
            assert abs(r["value_at_1"]) <= 1e-8


def test_report_json_shape():
    rep = suite_continuity_a1(trials=2, seed=0)
    payload = rep.to_json()
    assert payload["suite"] == "continuity"
    assert payload["trials"] == 2
    assert payload["failures"] == 0
    assert len(payload["records"]) == 2
    assert payload["wall_time_s"] > 0


@settings(max_examples=20)
@given(st.sampled_from(SUITE_NAMES), st.integers(1, 3), st.integers(0, 2**16))
def test_suite_report_json_round_trip(name, trials, seed):
    """Every suite's report survives JSON text unchanged, including the
    -inf worst violation of a report with nothing counted."""
    dims = {"theorem1": [2], "theorem2": [3]}.get(name)
    payload = run_suite(name, dims=dims, a_grid=SMALL_GRID, trials=trials,
                        seed=seed).to_json()
    assert json.loads(json.dumps(payload)) == payload


def test_run_suite_dispatch():
    rep = run_suite("piani", trials=3, seed=1)
    assert rep.suite == "piani"
    rep = run_suite("theorem2", dims=[3], a_grid=SMALL_GRID, trials=2, seed=1)
    assert rep.suite == "theorem2"
    with pytest.raises(ValidationError):
        run_suite("nosuch")


@pytest.mark.parametrize("kwargs, field", [
    ({"name": "theorem1", "trials": True}, "trials"),
    ({"name": "axioms", "trials": 2.5}, "trials"),
    ({"name": "piani", "trials": "3"}, "trials"),
    ({"name": "theorem1", "dims": [2.5], "trials": 1}, "dims"),
    ({"name": "theorem2", "dims": [3.7], "trials": 1}, "dims"),
    ({"name": "theorem2", "dims": ["3"], "trials": 1}, "dims"),
    ({"name": "theorem1", "dims": [True], "trials": 1}, "dims"),
    ({"name": "continuity", "trials": 1, "seed": -1}, "seed"),
    ({"name": "axioms", "trials": 1, "seed": 1.5}, "seed"),
    ({"name": "theorem2", "dims": [3], "trials": 1, "seed": True}, "seed"),
    ({"name": "continuity", "trials": 1, "tol": True}, "tol"),
    ({"name": "piani", "trials": 1, "tol": "x"}, "tol"),
])
def test_run_suite_refuses_malformed_arguments(kwargs, field):
    """trials=True once ran one trial and reported trials: True, dims=[2.5]
    ran d = 2, dims=[3.7] and ["3"] ran d = 3, a negative seed failed
    inside numpy with a bare ValueError, tol=True ran as tol 1 and tol="x"
    failed with a bare TypeError."""
    with pytest.raises(ValidationError, match=field):
        run_suite(a_grid=SMALL_GRID, **kwargs)


@pytest.mark.parametrize("name", ["axioms", "piani", "continuity"])
def test_run_suite_refuses_dims_a_suite_does_not_read(name):
    """These suites draw their own dimensions; run_suite("axioms",
    dims=[9]) once ran d = 2 and reported no error."""
    with pytest.raises(ValidationError, match="dims"):
        run_suite(name, dims=[9], trials=1, seed=0)


def test_suites_refuse_malformed_arguments_when_called_directly():
    with pytest.raises(ValidationError, match="dims"):
        suite_theorem2([3.7], SMALL_GRID, trials=1, seed=0)
    with pytest.raises(ValidationError, match="seed"):
        suite_theorem1([2], SMALL_GRID, trials=1, seed=-1)
    for suite in (suite_axioms, suite_piani_demo, suite_continuity_a1):
        with pytest.raises(ValidationError, match="trials"):
            suite(trials=True, seed=0)
        with pytest.raises(ValidationError, match="seed"):
            suite(trials=1, seed=-2)


def test_run_suite_takes_integral_numbers_as_ints():
    rep = run_suite("theorem2", dims=[3.0], a_grid=SMALL_GRID, trials=np.int64(1), seed=2.0)
    assert rep.trials == 1 and type(rep.trials) is int
    assert {r["dim"] for r in rep.records} == {3}
    assert {r["seed"] for r in rep.records} == {2}


def test_run_suite_tol_override():
    # absurdly tight tolerance must produce failures, proving the override lands
    rep = run_suite("continuity", trials=4, seed=1, tol=1e-16)
    assert rep.failures > 0
    assert rep.worst_violation > 0


def test_default_grid_spans_both_branches():
    assert min(DEFAULT_A_GRID) > 0
    assert max(DEFAULT_A_GRID) == 2.0
    assert 1.0 in DEFAULT_A_GRID


def test_theorem1_checks_dims_above_4():
    """The oracle-backed suite reaches d = 8: at d = 5, 6 and 8 every record
    passes, no search hits its cap, and every winner stopped on
    tolerance."""
    rep = suite_theorem1([5, 6, 8], DEFAULT_A_GRID, trials=2, seed=7)
    assert len(rep.records) == 2 * 3 * 5 * len(DEFAULT_A_GRID)
    assert {r["dim"] for r in rep.records} == {5, 6, 8}
    assert rep.failures == 0
    assert sum(r["cap_hits"] for r in rep.records) == 0
    assert {r["stop_reason"] for r in rep.records} == {"tolerance"}


def test_theorem1_names_why_it_refuses_dims_above_8():
    with pytest.raises(ValidationError, match=r"2\.\.8.*inverse Hessian"):
        suite_theorem1([2, 9], SMALL_GRID, trials=1, seed=0)


def test_theorem1_builds_one_oracle_config_per_call(monkeypatch):
    """Every problem of every dimension is solved under one budget: the
    suite builds one OracleConfig per call, however many problems it
    poses, and hands each problem its own seed."""
    built, seeds = [], []
    inner_config, inner_solve = verify.OracleConfig, verify.minimize_batch

    def config(*args, **kwargs):
        built.append(inner_config(*args, **kwargs))
        return built[-1]

    def solve(problems, budget, oseeds):
        assert budget is built[0]
        seeds.extend(oseeds)
        return inner_solve(problems, budget, oseeds)

    monkeypatch.setattr(verify, "OracleConfig", config)
    monkeypatch.setattr(verify, "minimize_batch", solve)
    rep = suite_theorem1([2, 3], SMALL_GRID, trials=2, seed=7)
    assert len(built) == 1
    assert (built[0].restarts, built[0].tol) == (1, ORACLE_TOL)
    assert len(seeds) == len(rep.records) == 2 * 2 * 5 * len(SMALL_GRID)
    want = [oseed for d in (2, 3) for _, _, dim, problems
            in theorem1_batches([2, 3], SMALL_GRID, 2, 7) if dim == d
            for *_, oseed in problems]
    assert seeds == want


def test_run_suite_takes_an_empty_list_as_given():
    """Only None selects a suite's default dims or order grid: an empty list
    poses no problem.  theorem1 with both empty once ran 105 records of the
    default d = 2, 3, 4 and grid."""
    rep = run_suite("theorem1", dims=[], a_grid=[], trials=1)
    assert (rep.records, rep.failures) == ([], 0)
    assert run_suite("theorem1", dims=[2], a_grid=[], trials=1).records == []
    assert run_suite("theorem1", dims=[], trials=1).records == []
    rep = run_suite("theorem2", dims=[3], a_grid=[], trials=2)
    assert [r["kind"] for r in rep.records] == ["compose", "compose"]
    assert run_suite("theorem2", dims=[], trials=1).records == []
