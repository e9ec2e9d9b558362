import math

import numpy as np
import pytest

from rdmap import linalg, oracle
from rdmap.channels import (
    MeasurementPartition,
    ResourceDestroyingMap,
    cyclic_twirl,
    dephasing_map,
    mixing_map,
)
from rdmap.errors import NoFiniteObjective, ValidationError
from rdmap.measures import closed_form_measure, tsallis_relative_entropy
from rdmap.oracle import (
    OracleConfig,
    _free_state_objective,
    minimize_batch,
    minimize_over_free_states,
    parameterize_free_state,
    simplex_minimize,
)
from rdmap.verify import DEFAULT_A_GRID, FAST_MAX_ITER, FAST_TOL, theorem1_batches

QUICK = OracleConfig(restarts=2, max_iterations=1200, tol=1e-9, seed=11)


def test_config_validation():
    with pytest.raises(ValidationError):
        OracleConfig(restarts=0)
    with pytest.raises(ValidationError):
        OracleConfig(tol=0.0)
    with pytest.raises(ValidationError):
        OracleConfig(max_iterations=0)
    assert OracleConfig().restarts == 20


# ----------------------------------------------------------------- simplex

def test_simplex_convex_quadratic():
    x, fx = simplex_minimize(lambda v: float(v @ v), np.array([1.0, 1.0]), QUICK)
    assert fx <= 1e-8
    assert np.linalg.norm(x) <= 1e-3


def test_simplex_separable_quadratic():
    def f(v):
        return (v[0] - 3.0) ** 2 + 10.0 * (v[1] + 1.0) ** 2
    x, _ = simplex_minimize(f, np.zeros(2), QUICK)
    assert x == pytest.approx([3.0, -1.0], abs=1e-4)


def test_simplex_with_infinite_barrier():
    def f(v):
        if v[0] < -0.5:
            return math.inf
        return float((v[0] - 1.0) ** 2 + v[1] ** 2)
    x, fx = simplex_minimize(f, np.array([-0.4, 2.0]), QUICK)
    assert fx <= 1e-6
    assert x[0] >= -0.5


def test_simplex_deterministic():
    def f(v):
        return float(np.sum((v - 0.3) ** 4))
    x1, f1 = simplex_minimize(f, np.array([2.0, -1.0, 0.5]), QUICK)
    x2, f2 = simplex_minimize(f, np.array([2.0, -1.0, 0.5]), QUICK)
    assert np.array_equal(x1, x2) and f1 == f2


# --------------------------------------------------------- parameterization

def test_parameterize_zero_vector_falls_back_to_mixed():
    deph = dephasing_map(MeasurementPartition.singletons(2))
    out = parameterize_free_state(np.zeros(8), deph)
    assert np.allclose(out, np.eye(2) / 2, atol=1e-14)


def test_parameterize_identity_factor():
    deph = dephasing_map(MeasurementPartition.singletons(2))
    x = np.concatenate([np.eye(2).ravel(), np.zeros(4)])
    assert np.allclose(parameterize_free_state(x, deph), np.eye(2) / 2, atol=1e-14)


def test_parameterize_lands_in_fixed_set():
    rng = np.random.default_rng(0)
    for rdm in (dephasing_map(MeasurementPartition.singletons(3)), cyclic_twirl(3)):
        for _ in range(10):
            sigma = parameterize_free_state(rng.standard_normal(18), rdm)
            linalg.validate_density(sigma)
            assert linalg.frobenius(rdm.apply(sigma) - sigma) <= 1e-10


def test_parameterize_rejects_wrong_length():
    with pytest.raises(ValidationError):
        parameterize_free_state(np.zeros(7), dephasing_map(MeasurementPartition.singletons(2)))


def test_fused_objective_matches_reference():
    """The search-path objective, scoring one stack of points across
    several orders, and the public entropy agree to 1e-12."""
    rng = np.random.default_rng(42)
    orders = (0.3, 0.8, 1.0, 1.2, 2.0)
    for d, rdm in ((2, dephasing_map(MeasurementPartition.singletons(2))),
                   (3, cyclic_twirl(3))):
        rho = linalg.random_density_matrix(d, d, seed=d)
        fused = _free_state_objective([(rho, rdm, a) for a in orders])
        rows = np.repeat(np.arange(len(orders)), 10)
        X = rng.standard_normal((rows.size, 2 * d * d))
        for x, i, value in zip(X, rows, fused(X, rows)):
            direct = tsallis_relative_entropy(rho, parameterize_free_state(x, rdm), orders[i])
            assert value == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------- the oracle

def test_oracle_on_plus_state():
    deph = dephasing_map(MeasurementPartition.singletons(2))
    plus = np.full((2, 2), 0.5, dtype=complex)
    res = minimize_over_free_states(plus, deph, 2.0, QUICK)
    assert res.value == pytest.approx(math.sqrt(2) - 1, abs=1e-6)
    assert abs(res.gap_to_closed_form) <= 1e-6
    assert res.restarts_agreeing >= 1


def test_oracle_finds_zero_on_fixed_points():
    deph = dephasing_map(MeasurementPartition.singletons(2))
    sigma = np.diag([0.7, 0.3]).astype(complex)
    res = minimize_over_free_states(sigma, deph, 1.2, QUICK)
    assert res.value <= 1e-8


def test_oracle_across_grid_on_twirl():
    tw = cyclic_twirl(3)
    rho = linalg.random_density_matrix(3, 3, seed=5)
    for a in (0.3, 0.7, 1.0, 1.5, 2.0):
        res = minimize_over_free_states(rho, tw, a, QUICK)
        assert abs(res.gap_to_closed_form) <= 1e-5
        assert res.gap_to_closed_form >= -1e-7
        assert linalg.frobenius(tw.apply(res.sigma_min) - res.sigma_min) <= 1e-8


def test_oracle_default_config_attains():
    """Default search budget reaches the closed form on dimensions 2-4."""
    cases = ((2, dephasing_map(MeasurementPartition.singletons(2)), 2.0),
             (3, cyclic_twirl(3), 0.5),
             (4, dephasing_map(MeasurementPartition.singletons(4)), 1.0))
    for d, rdm, a in cases:
        rho = linalg.random_density_matrix(d, d, seed=d + 20)
        res = minimize_over_free_states(rho, rdm, a, OracleConfig(seed=1))
        closed = closed_form_measure(rho, rdm, a).value
        assert res.value >= closed - 1e-7
        assert res.value <= closed + 1e-5


def test_oracle_minimizer_matches_sigma_star():
    # unique full-rank minimizer: the states must agree, not just the values
    deph = dephasing_map(MeasurementPartition.singletons(3))
    rho = linalg.random_density_matrix(3, 3, seed=8)
    rep = closed_form_measure(rho, deph, 1.5)
    res = minimize_over_free_states(rho, deph, 1.5, QUICK)
    assert abs(res.gap_to_closed_form) <= 1e-6
    assert linalg.frobenius(res.sigma_min - rep.sigma_star) <= 1e-3


def test_oracle_deterministic():
    mix = mixing_map(2)
    rho = linalg.random_density_matrix(2, 2, seed=1)
    r1 = minimize_over_free_states(rho, mix, 0.5, QUICK)
    r2 = minimize_over_free_states(rho, mix, 0.5, QUICK)
    assert r1.value == r2.value
    assert np.array_equal(r1.sigma_min, r2.sigma_min)
    assert r1.restarts_agreeing == r2.restarts_agreeing


def test_batch_matches_each_problem_alone():
    """The 70 d = 3 problems of theorem-1 trials 0 and 1 (two (trial, dim)
    batches of 35, one of them a fixed-point trial), solved together, end
    exactly where each ends when solved alone, with the same work counters."""
    batches = list(theorem1_batches([3], DEFAULT_A_GRID, trials=2, seed=7))
    assert [len(problems) for *_, problems in batches] == [35, 35]
    problems = [p for *_, batch in batches for p in batch]
    configs = [OracleConfig(restarts=1, max_iterations=FAST_MAX_ITER[3], tol=FAST_TOL,
                            seed=oseed) for *_, oseed in problems]
    together = minimize_batch([(rho, rdm, a) for _, rdm, rho, a, _ in problems], configs,
                              [closed_form_measure(rho, rdm, a).value
                               for _, rdm, rho, a, _ in problems])
    for (_, rdm, rho, a, _), config, res in zip(problems, configs, together):
        alone = minimize_over_free_states(rho, rdm, a, config)
        assert np.array_equal(res.sigma_min, alone.sigma_min)
        assert res.value == alone.value
        assert res.gap_to_closed_form == alone.gap_to_closed_form
        assert res.restarts_agreeing == alone.restarts_agreeing
        assert res.evaluations == alone.evaluations
        assert res.iterations == alone.iterations
        assert res.stop_reason == alone.stop_reason


def test_counters_report_the_work_done(monkeypatch):
    """evaluations equals the points handed to the objective; a capped search
    runs its cap in both passes, a converged one stops short of it."""
    scored = []
    inner = oracle._free_state_objective

    def counting(problems):
        objective = inner(problems)

        def f(X, rows):
            scored.append(rows.size)
            return objective(X, rows)

        return f

    monkeypatch.setattr(oracle, "_free_state_objective", counting)
    rdm = dephasing_map(MeasurementPartition.singletons(2))
    rho = linalg.random_density_matrix(2, 2, seed=3)
    capped = minimize_over_free_states(
        rho, rdm, 2.0, OracleConfig(restarts=3, max_iterations=20, tol=1e-14, seed=1))
    assert capped.evaluations == sum(scored)
    assert capped.stop_reason == "iteration_cap"
    assert capped.iterations == 2 * 20
    scored.clear()
    loose = minimize_over_free_states(
        rho, rdm, 2.0, OracleConfig(restarts=1, max_iterations=2000, tol=1e-6, seed=1))
    assert loose.evaluations == sum(scored)
    assert loose.stop_reason == "tolerance"
    assert loose.iterations < 2 * 2000


# closed_form_measure still divides by N = 0 on this uncertified map and warns
# (ROADMAP item 7, "Edges"); it should raise instead
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_oracle_flags_all_infinite_objective():
    # a map built by hand (skipping certification) whose only reachable state
    # has disjoint support from rho: every evaluation is +inf
    K = np.zeros((2, 2), dtype=complex)
    K[0, 0] = 1.0
    crush = ResourceDestroyingMap([K], 0.0, 0.0)
    rho = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(NoFiniteObjective):
        minimize_over_free_states(rho, crush, 1.5, OracleConfig(restarts=2, max_iterations=50, tol=1e-6, seed=0))
