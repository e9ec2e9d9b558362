"""Acceptance gate.

One test per numbered criterion; `pytest -v` therefore reads as a
checklist, one pass/fail line each.  Criteria 1 and 3 share a single
theorem-1 suite run (the expensive part, 0.9-1.9 s on a 2-vCPU VM), built
once per module.  Every loop is seeded, so a failure here reproduces
exactly.
"""

import math

import numpy as np
import pytest

from rdmap import (
    DEFAULT_A_GRID,
    MeasurementPartition,
    OracleConfig,
    closed_form_measure,
    cyclic_twirl,
    decomposition_identity_residual,
    dephasing_map,
    lueders_map,
    minimize_over_free_states,
    mixing_map,
    modified_coarse_map,
    random_density_matrix,
    random_hermitian,
    random_partition,
    suite_axioms,
    suite_continuity_a1,
    suite_theorem1,
    suite_theorem2,
    validate_density,
    von_neumann_entropy,
)
from rdmap.linalg import frobenius

GRID = DEFAULT_A_GRID
SEED = 7


def families_at(d, rng):
    coarse = random_partition(d, rng, coarse=True)
    return [
        dephasing_map(MeasurementPartition.singletons(d)),
        lueders_map(coarse),
        modified_coarse_map(coarse),
        cyclic_twirl(d),
        mixing_map(d),
    ]


@pytest.fixture(scope="module")
def theorem1_report():
    return suite_theorem1([2, 3, 4], GRID, trials=50, seed=SEED)


def test_criterion_1_closed_form_matches_oracle(theorem1_report):
    rep = theorem1_report
    gaps = [r["gap"] for r in rep.records]
    assert rep.failures == 0
    assert max(abs(g) for g in gaps) <= 1e-5
    # the oracle may undershoot the closed form only by numerical noise
    assert min(gaps) >= -1e-7
    assert rep.wall_time_s <= 300.0
    print(f"criterion 1: PASS  ({len(gaps)} trials, worst |gap| "
          f"{max(abs(g) for g in gaps):.2e}, {rep.wall_time_s:.0f}s)")


def test_criterion_2_hand_checked_dephasing_values():
    plus = np.full((2, 2), 0.5, dtype=complex)
    deph = dephasing_map(MeasurementPartition.singletons(2))
    expected = {0.5: 1.0, 1.0: math.log(2.0), 2.0: math.sqrt(2.0) - 1.0}
    for a, want in expected.items():
        got = closed_form_measure(plus, deph, a).value
        assert abs(got - want) <= 1e-10
        res = minimize_over_free_states(
            plus, deph, a, OracleConfig(restarts=2, max_iterations=1500,
                                        tol=1e-10, seed=3))
        assert abs(res.value - got) <= 1e-5
    # same analytic curve off the named points
    for a in (0.3, 0.8, 1.2, 1.5):
        want = (2.0 ** (1.0 - 1.0 / a) - 1.0) / (a - 1.0)
        assert abs(closed_form_measure(plus, deph, a).value - want) <= 1e-10
    print("criterion 2: PASS  (1, ln 2, sqrt(2)-1 all within 1e-10)")


def test_criterion_3_minimizer_certified(theorem1_report):
    for r in theorem1_report.records:
        assert r["sigma_ok"]
        assert r["sigma_fp_residual"] <= 1e-9

    worst = 0.0
    off_one = [a for a in GRID if a != 1.0]
    for t in range(100):
        rng = np.random.default_rng(SEED + 1000 + t)
        d = 2 + t % 3
        rdm = families_at(d, rng)[t % 5]
        a = off_one[t % len(off_one)]
        rho = random_density_matrix(d, d, seed=int(rng.integers(2**31)))
        tau = random_density_matrix(d, d, seed=int(rng.integers(2**31)))
        sigma = rdm.apply(tau)
        worst = max(worst, decomposition_identity_residual(rho, sigma, rdm, a))
    assert worst <= 1e-9
    print(f"criterion 3: PASS  (decomposition residual max {worst:.2e})")


def test_criterion_4_convexity():
    violations = 0
    worst = -math.inf
    for t in range(500):
        rng = np.random.default_rng(SEED + 2000 + t)
        d = 2 + t % 3
        rdm = families_at(d, rng)[t % 5]
        a = GRID[t % len(GRID)]
        rho1 = random_density_matrix(d, d, seed=int(rng.integers(2**31)))
        rho2 = random_density_matrix(d, d, seed=int(rng.integers(2**31)))
        p = float(rng.uniform())
        v1 = closed_form_measure(rho1, rdm, a).value
        v2 = closed_form_measure(rho2, rdm, a).value
        v_mix = closed_form_measure(p * rho1 + (1 - p) * rho2, rdm, a).value
        excess = v_mix - (p * v1 + (1 - p) * v2)
        worst = max(worst, excess)
        if excess > 1e-9:
            violations += 1
    assert violations == 0
    print(f"criterion 4: PASS  (500 mixtures, worst excess {worst:.2e})")


def test_criterion_5_fine_vs_modified_coarse():
    rep = suite_theorem2([3, 4, 5, 6], GRID, trials=200, seed=SEED)
    assert rep.failures == 0
    compose = [r["value"] for r in rep.records if r["kind"] == "compose"]
    slack = [r["slack"] for r in rep.records if r["kind"] == "inequality"]
    assert max(compose) <= 1e-10
    assert min(slack) >= -1e-9
    print(f"criterion 5: PASS  (min slack {min(slack):.2e}, "
          f"compose residual max {max(compose):.2e})")


def test_criterion_6_resource_measure_axioms():
    rep = suite_axioms(trials=200, seed=SEED)
    assert rep.failures == 0
    kinds = {r["kind"] for r in rep.records}
    assert {"faithfulness", "invariance", "monotone_map",
            "monotone_free_unitary", "monotone_instrument",
            "convexity"} <= kinds
    print(f"criterion 6: PASS  (200 trials, worst violation "
          f"{rep.worst_violation:.2e})")


def test_criterion_7_adjoint_pairing_and_duality():
    worst_pair = 0.0
    worst_dual = 0.0
    for d in (2, 3, 4):
        rng = np.random.default_rng(SEED + 3000 + d)
        for rdm in families_at(d, rng):
            adj = rdm.adjoint()
            for _ in range(100):
                X = random_hermitian(d, seed=int(rng.integers(2**31)))
                Y = random_hermitian(d, seed=int(rng.integers(2**31)))
                lhs = np.trace(adj.apply(X) @ Y)
                rhs = np.trace(X @ rdm.apply(Y))
                scale = frobenius(X) * frobenius(Y)
                worst_pair = max(worst_pair, abs(lhs - rhs) / scale)

                tau = random_density_matrix(d, d, seed=int(rng.integers(2**31)))
                sigma = rdm.apply(tau)
                worst_dual = max(worst_dual,
                                 frobenius(adj.apply(sigma) - sigma))
    assert worst_pair <= 1e-9
    assert worst_dual <= 1e-8
    print(f"criterion 7: PASS  (pairing {worst_pair:.2e}, "
          f"duality {worst_dual:.2e})")


def test_criterion_8_continuity_at_a_equals_1():
    rep = suite_continuity_a1(trials=100, seed=SEED)
    assert rep.failures == 0
    dev = max(r["deviation"] for r in rep.records)
    assert dev <= 1e-3
    print(f"criterion 8: PASS  (max branch deviation {dev:.2e})")


def test_criterion_9_mixing_map_measures_purity():
    worst = 0.0
    for t in range(100):
        rng = np.random.default_rng(SEED + 4000 + t)
        d = 2 + t % 3
        rho = random_density_matrix(d, d, seed=int(rng.integers(2**31)))
        validate_density(rho)
        got = closed_form_measure(rho, mixing_map(d), 1.0).value
        want = math.log(d) - von_neumann_entropy(rho)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-10
    print(f"criterion 9: PASS  (max |value - (ln d - S)| {worst:.2e})")
