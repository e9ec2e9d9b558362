import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmap import linalg, oracle
from rdmap import channels
from rdmap.channels import (
    MeasurementPartition,
    QuantumChannel,
    ResourceDestroyingMap,
    cyclic_twirl,
    dephasing_map,
    lueders_map,
    mixing_map,
    modified_coarse_map,
    twirling_map,
)
from rdmap.errors import (
    CertificationError,
    DimensionMismatch,
    NoFiniteObjective,
    TraceNotOne,
    ValidationError,
)
from rdmap.measures import closed_form_measure, tsallis_relative_entropy
from rdmap.oracle import (
    OracleConfig,
    _free_state_objective,
    free_algebra_basis,
    minimize_batch,
    minimize_over_free_states,
    parameterize_free_state,
    simplex_minimize,
)
from rdmap.verify import (
    DEFAULT_A_GRID,
    GAP_TOL,
    ORACLE_TOL,
    _builtin_families,
    theorem1_batches,
)

QUICK = OracleConfig(restarts=2, max_iterations=1200, tol=1e-9, seed=11)


def test_config_validation():
    with pytest.raises(ValidationError):
        OracleConfig(restarts=0)
    with pytest.raises(ValidationError):
        OracleConfig(tol=0.0)
    with pytest.raises(ValidationError):
        OracleConfig(max_iterations=0)
    assert OracleConfig().restarts == 20


@pytest.mark.parametrize("field, value", [
    ("restarts", 2.5), ("restarts", True), ("restarts", "3"),
    ("max_iterations", 10.5), ("max_iterations", False), ("max_iterations", math.inf),
    ("seed", -1), ("seed", 1.5), ("seed", True),
    ("tol", math.inf), ("tol", math.nan), ("tol", -1e-8), ("tol", True), ("tol", "1e-8"),
])
def test_config_refuses_malformed_values(field, value):
    """restarts=2.5 once failed inside numpy with a TypeError, tol=inf
    stopped every simplex at iteration 0 and reported its start as the
    minimum, and max_iterations=10.5 ran 11 iterations per pass."""
    with pytest.raises(ValidationError, match=field):
        OracleConfig(**{field: value})


def test_config_takes_integral_numbers_as_ints():
    config = OracleConfig(restarts=3.0, max_iterations=np.int32(7), tol=np.float64(1e-9),
                          seed=np.int64(4))
    assert (config.restarts, config.max_iterations, config.seed) == (3, 7, 4)
    assert all(type(v) is int for v in (config.restarts, config.max_iterations, config.seed))


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


def test_simplex_one_parameter_keeps_searching():
    """In one dimension Gao and Han's shrink coefficient is 0; the simplex
    must not collapse onto its best vertex and stop where the slope is
    -9.1 (at -2.15, the start plus the initial step)."""
    def f(v):
        return 1.8 * np.sin(3.57 * v[0]) + 1.3 * np.cos(8.2 * v[0]) + 0.05 * v[0] ** 2

    def slope(x):
        return 1.8 * 3.57 * np.cos(3.57 * x) - 1.3 * 8.2 * np.sin(8.2 * x) + 0.1 * x

    x, _ = simplex_minimize(f, np.array([-2.65]),
                            OracleConfig(restarts=1, tol=1e-12, max_iterations=500))
    assert x[0] == pytest.approx(-1.969, abs=1e-3)
    assert abs(slope(x[0])) <= 1e-3


# --------------------------------------------------------- parameterization

def _families(d):
    """The five built-in maps at dimension d, with the coarse partition the
    Lueders and modified maps share."""
    return _builtin_families(d, np.random.default_rng(d))


def _coordinates(M, basis):
    """Real coordinates of a Hermitian M in an orthonormal Hermitian basis."""
    return np.einsum("jab,ab->j", basis.conj(), M).real


def test_parameterize_zero_vector_gives_mixed():
    deph = dephasing_map(MeasurementPartition.singletons(2))
    assert np.array_equal(parameterize_free_state(np.zeros(1), deph), np.eye(2) / 2)
    # the twirl applies E in its own basis, which rounds
    assert np.allclose(parameterize_free_state(np.zeros(2), cyclic_twirl(3)), np.eye(3) / 3,
                       atol=1e-15)


def test_parameterize_ignores_the_identity_direction():
    """The basis is orthogonal to I, so the coordinates of log sigma and of
    its traceless part are the same, and both give sigma back."""
    deph = dephasing_map(MeasurementPartition.singletons(2))
    basis = free_algebra_basis(deph)
    sigma = np.diag([0.7, 0.3]).astype(complex)
    log_sigma = linalg.matrix_log(sigma)
    x = _coordinates(log_sigma, basis)
    assert x.size == 1
    assert np.allclose(x, _coordinates(log_sigma - np.trace(log_sigma) / 2 * np.eye(2), basis),
                       atol=1e-15)
    assert np.allclose(parameterize_free_state(x, deph), sigma, atol=1e-14)


def test_parameterize_lands_in_fixed_set():
    rng = np.random.default_rng(0)
    for rdm in (dephasing_map(MeasurementPartition.singletons(3)), cyclic_twirl(3)):
        for _ in range(10):
            sigma = parameterize_free_state(rng.standard_normal(2), rdm)
            linalg.validate_density(sigma)
            assert linalg.frobenius(rdm.apply(sigma) - sigma) <= 1e-10


def test_parameterize_rejects_wrong_length():
    deph = dephasing_map(MeasurementPartition.singletons(2))
    # 4 = 2r, the length of the complex factor G in Fix(E); 8 = 2d^2, the
    # length of a full d x d factor
    for size in (0, 2, 3, 4, 7, 8):
        with pytest.raises(ValidationError):
            parameterize_free_state(np.zeros(size), deph)


def test_parameterize_refuses_non_finite_coordinates():
    """[nan] once gave an all-NaN "state" and [inf] a RuntimeWarning inside
    numpy.  The largest finite coordinates still give a valid state."""
    deph = dephasing_map(MeasurementPartition.singletons(2))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="parameters"):
            parameterize_free_state(np.array([bad]), deph)
    for big in (1e308, -1e308):
        linalg.validate_density(parameterize_free_state(np.array([big]), deph))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_free_state_of_a_spectrum_wider_than_the_float_range(d):
    """Every sign pattern of +-1e308 coordinates (a seeded 256 of them above
    8 coordinates) on every built-in family and the one-block Lueders map
    gives a free state, with no RuntimeWarning.  Once H's eigenvalues
    spread past the float range, h - h[-1] overflowed, and once the
    largest eigenvalue itself overflowed, inf - inf gave a NaN state."""
    rng = np.random.default_rng(d)
    maps = _families(d)[1] + [("one block", lueders_map(MeasurementPartition.single_block(d)))]
    for name, rdm in maps:
        k = free_algebra_basis(rdm).shape[0]
        signs = (np.array(list(itertools.product((-1.0, 1.0), repeat=k))) if k <= 8
                 else rng.choice((-1.0, 1.0), size=(256, k)))
        for s in signs:
            sigma = parameterize_free_state(1e308 * s, rdm)
            linalg.validate_density(sigma)
            assert np.abs(rdm.apply(sigma) - sigma).max() <= 1e-12, (name, s)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_free_algebra_basis_is_orthonormal_with_the_rank_of_s(d):
    """Hermitian, traceless, orthonormal, in Fix(E), with rank S - 1
    elements; together with I / sqrt(d) they span range(S)."""
    coarse, families = _families(d)
    expected = {"dephasing": d, "lueders": sum(n * n for n in coarse.degeneracies),
                "modified": len(coarse.blocks), "twirl": d, "mixing": 1}
    for name, rdm in families:
        basis = free_algebra_basis(rdm)
        r = len(basis) + 1
        assert r == expected[name] == np.linalg.matrix_rank(rdm.superop), name
        assert np.array_equal(basis, basis.conj().transpose(0, 2, 1)), name
        assert np.abs(np.trace(basis, axis1=1, axis2=2)).max(initial=0.0) <= 1e-12, name
        gram = np.einsum("iab,jab->ij", basis.conj(), basis)
        assert np.allclose(gram, np.eye(r - 1), atol=1e-12), name
        assert linalg.frobenius(rdm.apply(basis) - basis) <= 1e-12, name
        full = np.concatenate([basis, np.eye(d)[None] / np.sqrt(d)]).reshape(r, d * d)
        # range(S) is the span of the superoperator's columns, which are
        # column-stacked matrices: both spans have dimension r, so the
        # union does too
        columns = rdm.superop.T.reshape(d * d, d, d).transpose(0, 2, 1).reshape(d * d, d * d)
        assert np.linalg.matrix_rank(np.concatenate([full, columns])) == r, name


@pytest.mark.parametrize("d", [2, 3, 4])
def test_every_free_state_is_reachable(d):
    """A full-rank free sigma has log sigma in Fix(E): the coordinates of
    its traceless part map back to sigma."""
    rng = np.random.default_rng(100 + d)
    for name, rdm in _families(d)[1]:
        basis = free_algebra_basis(rdm)
        for _ in range(5):
            tau = linalg.random_density_matrix(d, d, seed=int(rng.integers(2**31)))
            sigma = rdm.apply(tau)
            x = _coordinates(linalg.matrix_log(sigma), basis)
            assert x.size == len(basis)
            assert linalg.frobenius(parameterize_free_state(x, rdm) - sigma) <= 1e-12, name


@settings(max_examples=60)
@given(st.data())
def test_random_coordinates_give_a_fixed_density_matrix(data):
    """E(tau) and tau = exp(H) / Tr exp(H) itself are fixed points: the
    search scores tau without applying E."""
    d = data.draw(st.integers(2, 4))
    name, rdm = data.draw(st.sampled_from(_families(d)[1]))
    basis = free_algebra_basis(rdm)
    x = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=len(basis),
                                    max_size=len(basis))))
    sigma = parameterize_free_state(x, rdm)
    linalg.validate_density(sigma)
    assert linalg.frobenius(rdm.apply(sigma) - sigma) <= 1e-10, name
    h, V = np.linalg.eigh(np.tensordot(x, basis, axes=1))
    e = np.exp(h - h[-1])
    tau = (V * (e / e.sum())) @ V.conj().T
    assert linalg.frobenius(rdm.apply(tau) - tau) <= 1e-10, name


def test_fused_objective_matches_reference():
    """The search-path objective, scoring one stack of points across
    several orders, and the public entropy agree to 1e-12.  The points are
    Gell-Mann coordinates of random combinations of the map's free basis.
    Every third point is moved until tau's smallest weight is below 1e-20
    of its largest, far under both support cuts, so the stack takes the
    masked path; each point scored alone, a full-support one on the fast
    path, gives the same bits, value and gradient."""
    rng = np.random.default_rng(42)
    orders = (0.3, 0.5, 0.8, 1.0, 1.2, 2.0)
    for d, rdm in ((2, dephasing_map(MeasurementPartition.singletons(2))),
                   (3, cyclic_twirl(3)),
                   (4, lueders_map(MeasurementPartition(4, [[0, 1, 2], [3]])))):
        rho = linalg.random_density_matrix(d, d, seed=d)
        basis = free_algebra_basis(rdm)
        fused, _, (C, *_) = _free_state_objective([(rho, rdm, a) for a in orders])
        rows = np.repeat(np.arange(len(orders)), 10)
        Y = rng.standard_normal((rows.size, len(basis)))
        tiny = np.arange(rows.size) % 3 == 0
        for y in Y[::3]:
            # H's eigenprojectors lie in the algebra: moving its lowest
            # eigenvalue down by 60 leaves tau's other weights as they were
            _, V = np.linalg.eigh(np.tensordot(y, basis, axes=1))
            y -= 60.0 * _coordinates(np.outer(V[:, 0], V[:, 0].conj()), basis)
        X = Y @ C.T
        values, grads, _ = fused(X, rows)
        for x, y, i, value, grad, small in zip(X, Y, rows, values, grads, tiny):
            direct = tsallis_relative_entropy(rho, parameterize_free_state(y, rdm), orders[i])
            if direct == math.inf:
                assert value == math.inf
            else:
                assert value == pytest.approx(direct, abs=1e-12)
            # rho has full rank, so a support that misses a direction of
            # it is +inf from a = 1 on
            assert (value == math.inf) == (small and orders[i] >= 1.0)
            alone, alone_grad, _ = fused(x[None], np.array([i]))
            assert alone.view(np.int64) == value.view(np.int64)
            assert np.array_equal(alone_grad[0].view(np.int64), grad.view(np.int64))


def _move_lowest_weight(x, basis, log_ratio):
    """x moved along the traceless part of H's lowest eigenprojector, which
    lies in the algebra, until tau's smallest weight is exp(log_ratio)
    times its largest."""
    h, V = np.linalg.eigh(np.tensordot(x, basis, axes=1))
    return x - (h[0] - h[-1] - log_ratio) * _coordinates(np.outer(V[:, 0], V[:, 0].conj()), basis)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_objective_gradient_matches_central_differences(d):
    """The analytic gradient, projected onto the map's free directions,
    agrees with central differences of the value along the columns of that
    projector to 1e-6, relative to the largest of the gradient, the value
    and 1e-3, at every order of the grid and on maps with r from 2 to d^2:
    Gell-Mann coordinates of random points of the algebra, and
    points whose smallest weight sits 100 times above or below its order's
    support cut (d eps for a < 1, 1e-12 from a = 1 on).  Below the cut at
    a >= 1 the state is given a kernel along the dropped weight, so the
    masked value is finite.  Far points, whose smallest weights underflow,
    score without a RuntimeWarning."""
    rng = np.random.default_rng(70 + d)
    maps = [dephasing_map(MeasurementPartition.singletons(d)), cyclic_twirl(d),
            modified_coarse_map(MeasurementPartition(d, [list(range(d - 1)), [d - 1]])),
            lueders_map(MeasurementPartition(d, [list(range(d))]))]
    assert sorted(len(free_algebra_basis(rdm)) + 1 for rdm in maps) == sorted([d, d, 2, d * d])
    step, worst = 1e-5, 0.0
    for rdm in maps:
        basis = free_algebra_basis(rdm)
        for a in DEFAULT_A_GRID:
            cut = math.log(d * np.finfo(float).eps if a < 1.0 else linalg.SUPPORT_CUTOFF)
            points = [rng.standard_normal(len(basis)) for _ in range(2)]
            points += [_move_lowest_weight(rng.standard_normal(len(basis)), basis, cut + shift)
                       for shift in (math.log(100.0), -math.log(100.0))]
            for k, y in enumerate(points):
                rho = linalg.random_density_matrix(d, d, seed=int(rng.integers(2**31)))
                if k == 3 and a >= 1.0:
                    # rho without the direction of the dropped weight
                    _, V = np.linalg.eigh(np.tensordot(y, basis, axes=1))
                    drop = np.eye(d) - np.outer(V[:, 0], V[:, 0].conj())
                    rho = drop @ rho @ drop
                    rho /= np.trace(rho).real
                f, _, (C,) = _free_state_objective([(rho, rdm, a)])
                x = C @ y
                value, grad, _ = f(x[None], np.array([0]))
                assert math.isfinite(value[0])
                central = np.array([
                    (f((x + step * e)[None], np.array([0]))[0][0]
                     - f((x - step * e)[None], np.array([0]))[0][0]) / (2 * step)
                    # the search's directions: the columns of its projector
                    for e in C @ C.T])
                err = (np.abs(grad[0] - central).max()
                       / max(np.abs(central).max(), abs(value[0]), 1e-3))
                worst = max(worst, err)
                assert err <= 1e-6, (rdm, a, k, err)
            far = 80.0 * rng.standard_normal((3, len(basis))) @ C.T
            values, grads, _ = f(far, np.zeros(3, dtype=np.intp))
            assert not np.isnan(values).any() and np.isfinite(grads).all()
    assert worst > 0.0


def test_objective_decomposes_each_distinct_state_once(count_decompositions):
    """Problems that share a state, over maps and orders, build their
    objective from one eigh of it; a second state adds one more."""
    rho = linalg.random_density_matrix(3, 3, seed=31)
    other = linalg.random_density_matrix(3, 3, seed=32)
    maps = (dephasing_map(MeasurementPartition.singletons(3)), cyclic_twirl(3), mixing_map(3))
    problems = [(state.copy(), rdm, a) for state in (rho, other) for rdm in maps
                for a in (0.3, 1.0, 2.0)]
    calls = count_decompositions(rho)
    seen_other = count_decompositions(other)
    _free_state_objective(problems)
    assert calls == ["eigh"] and seen_other == ["eigh"]


# ---------------------------------------------------------------- the oracle

def test_oracle_on_plus_state():
    deph = dephasing_map(MeasurementPartition.singletons(2))
    plus = np.full((2, 2), 0.5, dtype=complex)
    res = minimize_over_free_states(plus, deph, 2.0, QUICK)
    assert res.value == pytest.approx(math.sqrt(2) - 1, abs=1e-6)
    assert abs(res.value - closed_form_measure(plus, deph, 2.0).value) <= 1e-6
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
        gap = res.value - closed_form_measure(rho, tw, a).value
        assert abs(gap) <= 1e-5
        assert gap >= -1e-7
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
    assert abs(res.value - rep.value) <= 1e-6
    assert linalg.frobenius(res.sigma_min - rep.sigma_star) <= 1e-3


def test_oracle_deterministic():
    mix = mixing_map(2)
    rho = linalg.random_density_matrix(2, 2, seed=1)
    r1 = minimize_over_free_states(rho, mix, 0.5, QUICK)
    r2 = minimize_over_free_states(rho, mix, 0.5, QUICK)
    assert r1.value == r2.value
    assert np.array_equal(r1.sigma_min, r2.sigma_min)
    assert r1.restarts_agreeing == r2.restarts_agreeing


@pytest.mark.parametrize("trial, a", [(46, 0.3), (37, 0.8), (48, 0.3)])
def test_oracle_starts_near_the_mixed_state(trial, a):
    """Criterion-1 problems (seed 7, d = 2, Lueders map) where a start far
    from I/d stalls on the flat region of near-singular states: with
    unit-scale starts, trials 37 and 48 miss the closed form by 0.29 and
    0.25."""
    batches = theorem1_batches([2], DEFAULT_A_GRID, trials=trial + 1, seed=7)
    *_, (t, _, d, problems) = batches
    assert (t, d) == (trial, 2)
    [(rdm, rho, oseed)] = [(rdm, rho, oseed) for name, rdm, rho, b, oseed in problems
                           if name == "lueders" and b == a]
    res = minimize_over_free_states(rho, rdm, a,
                                    OracleConfig(restarts=1, tol=ORACLE_TOL, seed=oseed))
    assert abs(res.value - closed_form_measure(rho, rdm, a).value) <= GAP_TOL


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_oracle_reaches_a_singular_minimizer(a):
    """Every searched state exp(H) / Tr exp(H) has full rank; the search
    still comes within 1e-7 of a minimizer sigma* that has not: a pure
    state under the one-block Lueders map (the identity, sigma* = rho) and
    |0><0| under dephasing.

    Seeded random pure states under the same two maps at d = 2, 3, searched
    with 20 restarts, stay above criterion 1's floor of -1e-7: the search
    can read below the true minimum when sigma* is singular, by round-off
    near a singular sigma.  The worst seen was -5.5e-9 (d = 2, seed 3,
    a = 2) while the reference entropy took sigma^(1-a) as a matrix, and
    is -3.6e-15 since it sums over sigma's eigensystem."""
    psi = np.array([0.6, 0.8j])
    cases = ((np.outer(psi, psi.conj()), lueders_map(MeasurementPartition(2, [[0, 1]]))),
             (np.diag([1.0, 0.0]).astype(complex),
              dephasing_map(MeasurementPartition.singletons(2))))
    for rho, rdm in cases:
        res = minimize_over_free_states(rho, rdm, a,
                                        OracleConfig(restarts=1, tol=ORACLE_TOL, seed=3))
        assert abs(res.value - closed_form_measure(rho, rdm, a).value) <= 1e-7
    for d, seed in ((2, 1), (2, 3), (3, 0)):
        rho = linalg.random_density_matrix(d, 1, seed=seed)
        for rdm in (lueders_map(MeasurementPartition(d, [list(range(d))])),
                    dephasing_map(MeasurementPartition.singletons(d))):
            res = minimize_over_free_states(rho, rdm, a, OracleConfig(seed=1))
            assert res.value - closed_form_measure(rho, rdm, a).value >= -1e-7


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batch_matches_each_problem_alone(d):
    """The 70 problems of theorem-1 trials 0 and 1 at dimension d (two
    (trial, dim) batches of 35, one of them a fixed-point trial), solved
    together in one stack whatever their r (at d = 4 from r = 1 to r = 16),
    end exactly where each ends when solved alone, with the same work
    counters."""
    batches = list(theorem1_batches([d], DEFAULT_A_GRID, trials=2, seed=7))
    assert [len(problems) for *_, problems in batches] == [35, 35]
    problems = [p for *_, batch in batches for p in batch]
    configs = [OracleConfig(restarts=1, tol=ORACLE_TOL, seed=oseed)
               for *_, oseed in problems]
    together = minimize_batch([(rho, rdm, a) for _, rdm, rho, a, _ in problems], configs)
    if d == 4:
        assert {res.free_dim for res in together} >= {1, 16}
    for (_, rdm, rho, a, _), config, res in zip(problems, configs, together):
        alone = minimize_over_free_states(rho, rdm, a, config)
        assert np.array_equal(res.sigma_min, alone.sigma_min)
        assert res.value == alone.value
        assert res.restarts_agreeing == alone.restarts_agreeing
        assert res.evaluations == alone.evaluations
        assert res.iterations == alone.iterations
        assert res.stop_reason == alone.stop_reason
        assert res.cap_hits == alone.cap_hits
        assert res.free_dim == alone.free_dim


def test_quasi_newton_is_no_worse_than_nelder_mead():
    """Where Nelder-Mead also runs, the two searches agree.  On criterion-1
    problems of every family at d = 3 and 4 (trial 1 at a = 0.5 and 2, whose
    d = 4 batch holds the r = 16 identity map, and trial 0's r = 9 identity
    map at d = 3), simplex_minimize on the same fused objective, in the
    r - 1 coordinates of the map's frame C, through f(y) = objective(C y),
    from a seeded 0.1-scale start and restarted at its endpoint with a
    tenth of the step, ends no lower than the oracle by more than 1e-9.
    Both winners are mapped through E and scored by
    tsallis_relative_entropy."""
    widths = []
    for d in (3, 4):
        (*_, trial0), (*_, trial1) = theorem1_batches([d], DEFAULT_A_GRID, trials=2, seed=7)
        chosen = [p for p in trial1 if p[3] in (0.5, 2.0)]
        chosen += [p for p in trial0 if p[3] == 0.5 and d == 3 and p[0] == "lueders"]
        for name, rdm, rho, a, oseed in chosen:
            fused, _, (C,) = _free_state_objective([(rho, rdm, a)])
            widths.append(C.shape[1] + 1)

            def f(y):
                return fused((C @ y)[None], np.zeros(1, dtype=np.intp))[0][0]

            start = 0.1 * np.random.default_rng(oseed).standard_normal(C.shape[1])
            budget = OracleConfig(restarts=1, max_iterations=4000, tol=1e-13)
            x, _ = simplex_minimize(f, start, budget)
            x, _ = simplex_minimize(f, x, budget, initial_step=0.05)
            simplex = tsallis_relative_entropy(rho, parameterize_free_state(x, rdm), a)
            res = minimize_over_free_states(
                rho, rdm, a, OracleConfig(restarts=1, tol=ORACLE_TOL, seed=oseed))
            assert res.value <= simplex + 1e-9, (d, name, a, res.value, simplex)
    assert {9, 16} <= set(widths)


def _mixed_r_batch():
    """Two restarts each of problems at d = 3 with r = 1, 2, 3 and 5 (the
    mixing map, the modified coarse map of two blocks, dephasing and a
    Lueders map), the largest r neither first nor last."""
    coarse = MeasurementPartition(3, [[0, 1], [2]])
    maps = [dephasing_map(MeasurementPartition.singletons(3)), mixing_map(3),
            lueders_map(coarse), modified_coarse_map(coarse)]
    rho = linalg.random_density_matrix(3, 3, seed=4)
    problems = [(rho, rdm, a) for rdm in maps for a in (0.5, 2.0)]
    configs = [OracleConfig(restarts=2, max_iterations=400, tol=1e-9, seed=s)
               for s in range(len(problems))]
    return problems, configs


def test_mixed_r_batch_runs_one_stack_per_pass(monkeypatch):
    """Every r shares one lockstep search, in one pass: one call, on a stack
    of the d^2 - 1 = 8 Gell-Mann coordinates for the 16 restarts, and each
    winner reaches E as a point of those coordinates."""
    problems, configs = _mixed_r_batch()
    stacks, points = [], []
    inner_search, inner_state = oracle._lockstep_bfgs, oracle._free_state

    def search(f, x0, *args):
        stacks.append(x0.shape)
        return inner_search(f, x0, *args)

    def free_state(x, basis, rdm):
        points.append((x.shape, len(basis)))
        return inner_state(x, basis, rdm)

    monkeypatch.setattr(oracle, "_lockstep_bfgs", search)
    monkeypatch.setattr(oracle, "_free_state", free_state)
    results = minimize_batch(problems, configs)
    assert stacks == [(16, 8)]
    assert [res.free_dim for res in results] == [3, 3, 1, 1, 5, 5, 2, 2]
    assert points == [((8,), 8)] * len(problems)
    assert all(abs(res.value - closed_form_measure(*p).value) <= 1e-6
               for p, res in zip(problems, results))


def test_one_gell_mann_frame_per_batch_and_one_apply_per_map(monkeypatch):
    """One batch of several problems on each of four maps at d = 3
    (dephasing, Lueders, the cyclic twirl and complete mixing) builds the
    Gell-Mann matrices once and applies each map to that (8, 3, 3) stack
    once: a map enters the search as one frame.  The batch once built them
    2 + 4 times."""
    d = 3
    maps = [dephasing_map(MeasurementPartition.singletons(d)),
            lueders_map(MeasurementPartition(d, [[0, 1], [2]])), cyclic_twirl(d), mixing_map(d)]
    rho = linalg.random_density_matrix(d, d, seed=9)
    problems = [(rho, rdm, a) for rdm in maps for a in (0.5, 1.0, 2.0)]
    builds, stacks = [], []
    inner_gell_mann, inner_apply = oracle._gell_mann, ResourceDestroyingMap.apply

    def gell_mann(dim):
        builds.append(dim)
        return inner_gell_mann(dim)

    def apply(self, X):
        if np.shape(X) == (d * d - 1, d, d):
            stacks.append(id(self))
        return inner_apply(self, X)

    monkeypatch.setattr(oracle, "_gell_mann", gell_mann)
    monkeypatch.setattr(ResourceDestroyingMap, "apply", apply)
    results = minimize_batch(problems, [QUICK] * len(problems))
    assert builds == [d]
    assert sorted(stacks) == sorted(id(rdm) for rdm in maps)
    assert [res.free_dim for res in results] == [r for r in (3, 5, 3, 1) for _ in range(3)]
    assert all(abs(res.value - closed_form_measure(*p).value) <= 1e-6
               for p, res in zip(problems, results))


def test_stack_allocates_at_most_twice_its_own_size(monkeypatch):
    """The inverse-Hessian stack of the ten d = 4 theorem-1 trials (350
    problems x 15 x 15, 616 KiB) is built, compacted and updated in place,
    a block of rows at a time.  The peak traced inside the search stays within twice the
    stack's bytes plus 512 KiB, about one objective chunk's temporaries;
    between objective calls, where the search's own steps run, it stays
    below twice the stack, so no step holds a second copy of it."""
    batches = theorem1_batches([4], DEFAULT_A_GRID, trials=10, seed=7)
    problems = [p for *_, batch in batches for p in batch]
    passes, steps, calls = [], [], []
    inner_search, inner_objective = oracle._lockstep_bfgs, oracle._free_state_objective

    def search(f, x0, *args):
        steps.clear()
        calls.clear()
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out = inner_search(f, x0, *args)
        steps.append(tracemalloc.get_traced_memory()[1])
        k, n = x0.shape
        passes.append((k * n * n * 8, max(steps) - entry, max(calls) - entry))
        return out

    def objective(problems):
        f, *frames = inner_objective(problems)

        def traced(X, rows):
            steps.append(tracemalloc.get_traced_memory()[1])
            out = f(X, rows)
            calls.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return out

        return traced, *frames

    monkeypatch.setattr(oracle, "_lockstep_bfgs", search)
    monkeypatch.setattr(oracle, "_free_state_objective", objective)
    tracemalloc.start()
    try:
        minimize_batch([(rho, rdm, a) for _, rdm, rho, a, _ in problems],
                       [OracleConfig(restarts=1, tol=ORACLE_TOL, seed=oseed)
                        for *_, oseed in problems])
    finally:
        tracemalloc.stop()
    assert len(passes) == 1
    for stack, own_steps, with_objective in passes:
        assert stack == 350 * 15 * 15 * 8
        assert own_steps < 2 * stack
        assert max(own_steps, with_objective) <= 2 * stack + 2**19


def test_counters_report_the_work_done(monkeypatch):
    """evaluations equals the points handed to the objective, at least the
    start and one trial point per iteration of every restart; a capped
    search runs its cap in every restart, a converged one stops short of
    it with its largest |df/dx_j| within tol."""
    scored = []
    inner = oracle._free_state_objective

    def counting(problems):
        objective, *frames = inner(problems)

        def f(X, rows):
            scored.append(rows.size)
            return objective(X, rows)

        return f, *frames

    monkeypatch.setattr(oracle, "_free_state_objective", counting)
    rdm = dephasing_map(MeasurementPartition.singletons(2))
    rho = linalg.random_density_matrix(2, 2, seed=3)
    # one parameter: two iterations leave every restart far from a
    # gradient of 1e-14
    capped = minimize_over_free_states(
        rho, rdm, 2.0, OracleConfig(restarts=3, max_iterations=2, tol=1e-14, seed=1))
    assert capped.evaluations == sum(scored) >= 3 * (1 + 2)
    assert capped.stop_reason == "iteration_cap"
    assert capped.iterations == 2
    assert capped.cap_hits == 3
    assert capped.stack_iterations == 2
    assert capped.grad_norm > 1e-14
    scored.clear()
    loose = minimize_over_free_states(
        rho, rdm, 2.0, OracleConfig(restarts=1, max_iterations=2000, tol=1e-6, seed=1))
    assert loose.evaluations == sum(scored) >= 1 + loose.iterations
    assert loose.stop_reason == "tolerance"
    assert 0 < loose.iterations < 2000
    assert loose.cap_hits == 0
    assert loose.grad_norm <= 1e-6


def _crush():
    """A map built by hand (skipping certification) that sends everything to
    a multiple of |0><0|; it is not trace preserving on |1><1|."""
    K = np.zeros((2, 2), dtype=complex)
    K[0, 0] = 1.0
    return ResourceDestroyingMap([K], 0.0, 0.0)


def test_oracle_flags_all_infinite_objective():
    # every image under the map has disjoint support from rho, so the
    # winner, mapped through it, scores +inf
    rho = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(NoFiniteObjective):
        minimize_batch([(rho, _crush(), 1.5)],
                       [OracleConfig(restarts=2, max_iterations=50, tol=1e-6, seed=0)])


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
def test_closed_form_refuses_a_zero_trace_image(a):
    rho = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(CertificationError, match="0.000e"):
        closed_form_measure(rho, _crush(), a)


def test_oracle_refuses_a_state_that_does_not_fit():
    """A 3 x 3 state on a d = 2 map is DimensionMismatch, and a state whose
    trace is not 1 is TraceNotOne, as in closed_form_measure.  They once
    failed inside numpy with a bare ValueError, and ran np.eye(2) to a
    value of 1.0 and twice a state to 1.36."""
    deph = dephasing_map(MeasurementPartition.singletons(2))
    with pytest.raises(DimensionMismatch):
        minimize_over_free_states(linalg.random_density_matrix(3, 3, seed=1), deph, 2.0, QUICK)
    for state in (np.eye(2), 2.0 * linalg.random_density_matrix(2, 2, seed=1)):
        with pytest.raises(TraceNotOne):
            minimize_over_free_states(state, deph, 2.0, QUICK)


def test_oracle_forms_no_superoperator(monkeypatch):
    """Every built-in family at d = 2..4 and a Kraus-sum map (the Pauli
    twirl at d = 2, a non-abelian group) are searched with the
    superoperator out of reach: the oracle reads each map through apply
    alone."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    pauli_twirl = twirling_map(paulis)
    assert type(pauli_twirl.channel) is QuantumChannel
    maps = [rdm for d in (2, 3, 4) for _, rdm in _families(d)[1]] + [pauli_twirl]

    def refuse(*_):
        raise AssertionError("the oracle formed a superoperator")

    monkeypatch.setattr(channels, "kraus_to_superop", refuse)
    monkeypatch.setattr(QuantumChannel, "superop", property(refuse))
    for d in (2, 3, 4):
        rho = linalg.random_density_matrix(d, d, seed=d)
        problems = [(rho, rdm, a) for rdm in maps if rdm.dim == d for a in (0.5, 2.0)]
        results = minimize_batch(problems, [QUICK] * len(problems))
        for problem, res in zip(problems, results):
            assert abs(res.value - closed_form_measure(*problem).value) <= 1e-6


def test_batch_refuses_mixed_dimensions():
    # the two maps have different r as well, so they would form separate
    # groups; the batch still refuses them
    problems = [(np.eye(d, dtype=complex) / d, dephasing_map(MeasurementPartition.singletons(d)),
                 2.0) for d in (2, 3)]
    with pytest.raises(ValidationError):
        minimize_batch(problems, [QUICK, QUICK])


def test_empty_batch_solves_nothing(monkeypatch):
    # an empty batch is not a dimension mismatch, and builds no frame or
    # objective; a length mismatch is still refused
    def refuse(*_):
        raise AssertionError("nothing to build for an empty batch")
    monkeypatch.setattr(oracle, "_gell_mann", refuse)
    monkeypatch.setattr(oracle, "_free_state_objective", refuse)
    assert minimize_batch([], []) == []
    with pytest.raises(ValidationError, match="0 problems but 1 configs"):
        minimize_batch([], [QUICK])
