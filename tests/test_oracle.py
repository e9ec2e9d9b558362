import dataclasses
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
    _free_dim,
    _free_state,
    _free_state_objective,
    minimize_batch,
    minimize_over_free_states,
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


def _gell_mann(d):
    """The generalized Gell-Mann matrices, normalized, as a (d^2 - 1, d, d)
    stack built entry by entry: (|j><k| + |k><j|) / sqrt(2) and
    (i|k><j| - i|j><k|) / sqrt(2) for each j < k, then
    (sum_{j<l} |j><j| - l |l><l|) / sqrt(l (l + 1)) for l = 1, ..., d - 1."""
    j, k = np.triu_indices(d, 1)
    pairs = np.arange(j.size)
    gamma = np.zeros((d * d - 1, d, d), dtype=complex)
    s = math.sqrt(0.5)
    gamma[pairs, j, k], gamma[pairs, k, j] = s, s
    gamma[j.size + pairs, j, k], gamma[j.size + pairs, k, j] = -1j * s, 1j * s
    for l in range(1, d):
        diag = np.r_[np.ones(l), -l] / math.sqrt(l * l + l)
        gamma[2 * j.size + l - 1, range(l + 1), range(l + 1)] = diag
    return gamma


def _frame(rdm):
    """The map's frame C, of shape (d^2 - 1, r - 1): orthonormal Gell-Mann
    coordinates that span the traceless Hermitian part of Fix(E), the
    eigenvectors above 1/2 of P[k, j] = Re Tr Gamma_k E(Gamma_j)."""
    gamma = _gell_mann(rdm.dim)
    P = np.tensordot(gamma.conj(), rdm.apply(gamma), axes=([1, 2], [1, 2])).real
    values, U = np.linalg.eigh((P + P.T) / 2)
    return U[:, values > 0.5]


def _free_basis(rdm):
    """A Hilbert-Schmidt-orthonormal basis of the traceless Hermitian part of
    Fix(E), as the (r - 1, d, d) stack C^T Gamma, made exactly Hermitian."""
    basis = np.tensordot(_frame(rdm).T, _gell_mann(rdm.dim), axes=1)
    return (basis + basis.conj().transpose(0, 2, 1)) / 2


def _free_state_of(x, rdm):
    """E(exp(H) / Tr exp(H)) for H at the Gell-Mann coordinates x, as the
    oracle maps its winners."""
    return _free_state(np.asarray(x, dtype=float)[None], [rdm])[0]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_coordinates_are_gell_mann_coordinates(d):
    """The oracle's index-based helpers are the Gell-Mann basis without the
    stack: _hermitian(X) is sum_j x_j Gamma_j, _coordinates(M) is
    Re Tr(Gamma_j M) for any M, and each inverts the other on traceless
    Hermitian matrices.  A multiple of I has coordinates exactly 0 at
    d <= 4, so complete mixing starts and stays at I/d."""
    rng = np.random.default_rng(d)
    gamma = _gell_mann(d)
    gram = np.einsum("iab,jba->ij", gamma, gamma)
    assert np.allclose(gram, np.eye(d * d - 1), atol=1e-15)
    X = rng.standard_normal((5, d * d - 1))
    H = oracle._hermitian(X, d)
    assert np.abs(H - np.tensordot(X, gamma, axes=1)).max() <= 1e-15
    assert np.array_equal(H, H.conj().transpose(0, 2, 1))
    M = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    assert np.abs(oracle._coordinates(M) - np.einsum("jab,mba->mj", gamma, M).real).max() <= 1e-15
    assert np.abs(oracle._coordinates(H) - X).max() <= 1e-15
    if d <= 4:
        assert not oracle._coordinates(0.37 * np.eye(d)[None]).any()


def test_parameterize_zero_vector_gives_mixed():
    deph = dephasing_map(MeasurementPartition.singletons(2))
    assert np.array_equal(_free_state_of(np.zeros(3), deph), np.eye(2) / 2)
    # the twirl applies E in its own basis, which rounds
    assert np.allclose(_free_state_of(np.zeros(8), cyclic_twirl(3)), np.eye(3) / 3, atol=1e-15)


def test_parameterize_ignores_the_identity_direction():
    """The coordinates are orthogonal to I, so the coordinates of log sigma
    and of its traceless part are the same, and both give sigma back."""
    deph = dephasing_map(MeasurementPartition.singletons(2))
    sigma = np.diag([0.7, 0.3]).astype(complex)
    log_sigma = linalg.matrix_log(sigma)
    [x] = oracle._coordinates(log_sigma[None])
    assert x.size == 3
    assert np.allclose(x, oracle._coordinates((log_sigma - np.trace(log_sigma) / 2 * np.eye(2))[None]),
                       atol=1e-15)
    assert np.allclose(_free_state_of(x, deph), sigma, atol=1e-14)


def test_parameterize_lands_in_fixed_set():
    """Any Gell-Mann point, in the algebra or not, maps to a fixed point."""
    rng = np.random.default_rng(0)
    for rdm in (dephasing_map(MeasurementPartition.singletons(3)), cyclic_twirl(3)):
        for _ in range(10):
            sigma = _free_state_of(rng.standard_normal(8), rdm)
            linalg.validate_density(sigma)
            assert linalg.frobenius(rdm.apply(sigma) - sigma) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_free_state_of_a_spectrum_wider_than_the_float_range(d):
    """Every sign pattern of +-1e308 coordinates along the map's free
    directions (a seeded 256 of them above 8 directions) on every built-in
    family and the one-block Lueders map gives a free state, with no
    RuntimeWarning.  Once H's eigenvalues spread past the float range,
    h - h[-1] overflowed, and once the largest eigenvalue itself overflowed,
    inf - inf gave a NaN state."""
    rng = np.random.default_rng(d)
    maps = _families(d)[1] + [("one block", lueders_map(MeasurementPartition.single_block(d)))]
    for name, rdm in maps:
        C = _frame(rdm)
        k = C.shape[1]
        signs = (np.array(list(itertools.product((-1.0, 1.0), repeat=k))) if k <= 8
                 else rng.choice((-1.0, 1.0), size=(256, k)))
        for s in signs:
            sigma = _free_state_of(C @ (1e308 * s), rdm)
            linalg.validate_density(sigma)
            assert np.abs(rdm.apply(sigma) - sigma).max() <= 1e-12, (name, s)


def _kraus_sum_maps(d):
    """Maps certified only to 1e-9, with the r each must have: at d = 2 the
    Pauli twirl, a Kraus sum over a non-abelian group (r = 1), and at every
    d a commuting `kraus`-input map, the Lueders projectors of a coarse
    partition in a random basis (r = sum of the squared block sizes)."""
    rng = np.random.default_rng(50 + d)
    coarse = MeasurementPartition(d, [list(range(d - 1)), [d - 1]])
    V = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    ops = [V @ P @ V.conj().T for P in coarse.projectors()]
    commuting = channels.map_from_json({"type": "kraus", "dim": d, "operators": [
        linalg.matrix_to_json(K) for K in ops]})
    maps = [("commuting kraus", commuting, (d - 1) ** 2 + 1)]
    if d == 2:
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1.0, -1.0])]
        maps.append(("pauli twirl", twirling_map(paulis), 1))
    return maps


@pytest.mark.parametrize("d", [2, 3, 4])
def test_free_algebra_basis_is_orthonormal_with_the_rank_of_s(d):
    """The oracle's free dimension r, the trace of E, equals the rank of the
    superoperator S on every built-in family and on two maps certified only
    to 1e-9 (_kraus_sum_maps).  The basis C^T Gamma of the map's frame is
    Hermitian, traceless, orthonormal, in Fix(E), with r - 1 elements;
    together with I / sqrt(d) it spans range(S)."""
    coarse, families = _families(d)
    expected = {"dephasing": d, "lueders": sum(n * n for n in coarse.degeneracies),
                "modified": len(coarse.blocks), "twirl": d, "mixing": 1}
    maps = [(name, rdm, expected[name]) for name, rdm in families] + _kraus_sum_maps(d)
    for name, rdm, r in maps:
        assert _free_dim(rdm) == r == np.linalg.matrix_rank(rdm.superop), name
        basis = _free_basis(rdm)
        assert len(basis) == r - 1, name
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
    """A full-rank free sigma has log sigma in Fix(E): E fixes the Gell-Mann
    coordinates of log sigma, and they map back to sigma."""
    rng = np.random.default_rng(100 + d)
    for name, rdm in _families(d)[1]:
        for _ in range(5):
            tau = linalg.random_density_matrix(d, d, seed=int(rng.integers(2**31)))
            sigma = rdm.apply(tau)
            x = oracle._coordinates(linalg.matrix_log(sigma)[None])
            assert np.abs(oracle._coordinates(rdm.apply(oracle._hermitian(x, d))) - x).max() \
                <= 1e-12, name
            assert linalg.frobenius(_free_state_of(x[0], rdm) - sigma) <= 1e-12, name


@settings(max_examples=60)
@given(st.data())
def test_random_coordinates_give_a_fixed_density_matrix(data):
    """E(tau) and tau = exp(H) / Tr exp(H) itself are fixed points for H in
    the algebra: the search scores tau without applying E."""
    d = data.draw(st.integers(2, 4))
    name, rdm = data.draw(st.sampled_from(_families(d)[1]))
    C = _frame(rdm)
    y = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=C.shape[1],
                                    max_size=C.shape[1])))
    sigma = _free_state_of(C @ y, rdm)
    linalg.validate_density(sigma)
    assert linalg.frobenius(rdm.apply(sigma) - sigma) <= 1e-10, name
    h, V = np.linalg.eigh(np.tensordot(y, _free_basis(rdm), axes=1))
    e = np.exp(h - h[-1])
    tau = (V * (e / e.sum())) @ V.conj().T
    assert linalg.frobenius(rdm.apply(tau) - tau) <= 1e-10, name


def _entropy_from_hamiltonian(rho, H, a):
    """S~_a(rho | tau) for tau = exp(H) / Tr exp(H), straight from eigh(H)
    with no support cut: with weights w_i and eigenvectors v_i of tau,
    Tr rho^a tau^(1-a) = sum_i w_i^(1-a) <v_i|rho^a|v_i>, and at a = 1 the
    value is Tr rho ln rho - sum_i <v_i|rho|v_i> ln w_i, for full-rank rho."""
    h, V = np.linalg.eigh(H)
    ln_w = h - h[-1] - np.log(np.exp(h - h[-1]).sum())
    p, U = np.linalg.eigh(rho)
    power = (U * (p if a == 1.0 else p ** a)) @ U.conj().T
    q = np.sum(V.conj() * (power @ V), axis=0).real
    if a == 1.0:
        return float(np.sum(p * np.log(p)) - q @ ln_w)
    return float(((np.exp((1.0 - a) * ln_w) @ q) ** (1.0 / a) - 1.0) / (a - 1.0))


def test_fused_objective_matches_reference():
    """The search-path objective, scoring one stack of points across
    several orders, and the public entropy agree to 1e-12.  The points are
    Gell-Mann coordinates of random combinations of the map's free basis.
    Every third point is moved until tau's smallest weight is below 1e-20
    of its largest, far under both of the reference's support cuts; the
    objective scores such a full-rank tau with the same formulas, so its
    value is finite and within 1e-12 * max(1, |v|) of S~_a(rho | tau) taken
    from eigh(H) with no cut.  Each point scored alone gives the same bits,
    value and gradient."""
    rng = np.random.default_rng(42)
    orders = (0.3, 0.5, 0.8, 1.0, 1.2, 2.0)
    for d, rdm in ((2, dephasing_map(MeasurementPartition.singletons(2))),
                   (3, cyclic_twirl(3)),
                   (4, lueders_map(MeasurementPartition(4, [[0, 1, 2], [3]])))):
        rho = linalg.random_density_matrix(d, d, seed=d)
        basis, C = _free_basis(rdm), _frame(rdm)
        fused, *_ = _free_state_objective([(rho, rdm, a) for a in orders])
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
            if small:
                H = np.tensordot(y, basis, axes=1)
                h = np.linalg.eigvalsh(H)
                assert h[0] - h[-1] < math.log(1e-20)
                direct = _entropy_from_hamiltonian(rho, H, orders[i])
                assert math.isfinite(value)
                assert abs(value - direct) <= 1e-12 * max(1.0, abs(direct))
            else:
                direct = tsallis_relative_entropy(rho, _free_state_of(x, rdm), orders[i])
                assert value == pytest.approx(direct, abs=1e-12)
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
    Gell-Mann coordinates of random points of the algebra, and points whose
    smallest weight sits 100 times above or below the support cut the
    reference entropy applies at its order (d eps for a < 1, 1e-12 from
    a = 1 on), which the objective scores with the same formulas as any
    other full-rank tau; every state has full rank.  Far points, whose
    smallest weights underflow, score without a RuntimeWarning."""
    rng = np.random.default_rng(70 + d)
    maps = [dephasing_map(MeasurementPartition.singletons(d)), cyclic_twirl(d),
            modified_coarse_map(MeasurementPartition(d, [list(range(d - 1)), [d - 1]])),
            lueders_map(MeasurementPartition(d, [list(range(d))]))]
    assert sorted(_free_dim(rdm) for rdm in maps) == sorted([d, d, 2, d * d])
    step, worst = 1e-5, 0.0
    for rdm in maps:
        basis, C = _free_basis(rdm), _frame(rdm)
        for a in DEFAULT_A_GRID:
            cut = math.log(d * np.finfo(float).eps if a < 1.0 else linalg.SUPPORT_CUTOFF)
            points = [rng.standard_normal(len(basis)) for _ in range(2)]
            points += [_move_lowest_weight(rng.standard_normal(len(basis)), basis, cut + shift)
                       for shift in (math.log(100.0), -math.log(100.0))]
            for k, y in enumerate(points):
                rho = linalg.random_density_matrix(d, d, seed=int(rng.integers(2**31)))
                f, *_ = _free_state_objective([(rho, rdm, a)])
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


def test_objective_scores_an_overflowing_point_as_inf():
    """At a > 1, w^(1-a) of a weight far below the float range overflows;
    where rho has exactly no weight there, the term is inf * 0.  Such a
    point scores +inf with a zero gradient, so it fails its line search,
    and never a finite value below the true minimum 0."""
    rho = np.diag([0.0, 1.0]).astype(complex)
    f, *_ = _free_state_objective([(rho, dephasing_map(MeasurementPartition.singletons(2)), 2.0)])
    # the last Gell-Mann matrix is diag(1, -1) / sqrt(2): tau's empty weight is e^-1000
    x = np.zeros(3)
    x[-1] = -1000.0 / math.sqrt(2.0)
    value, grad, _ = f(x[None], np.array([0]))
    assert value[0] == math.inf and not grad.any()


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
    with 20 restarts, stay above criterion 1's floor of -1e-7: a value can
    read below the true minimum when sigma* is singular, by the round-off
    of the rescoring near a singular sigma.  The worst seen was -5.5e-9
    (d = 2, seed 3, a = 2) while the reference entropy took sigma^(1-a) as
    a matrix, and is -3.6e-15 since it sums over sigma's eigensystem.  The
    search itself scores every full-rank tau exactly, with no support cut,
    so it cannot read below the minimum by dropping weights."""
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


def test_oracle_stays_finite_next_to_a_singular_minimizer():
    """Rank-2 and rank-3 states at d = 4 under the one-block Lueders map
    (the identity, sigma* = rho), with the default budget.  An objective
    that dropped tau's weights below the support cut inside the search could
    drive them to 1e-231 while rho kept 1e-10 there, read below the true
    minimum 0, and leave a winner that the reference scores +inf:
    NoFiniteObjective on valid input.  Every value is finite and within
    1e-9 of the closed form, and none lies more than 1e-12 below it."""
    rdm = lueders_map(MeasurementPartition(4, [[0, 1, 2, 3]]))
    cases = ((2, 0, 1.2), (2, 1, 1.0), (2, 2, 1.0), (3, 1, 1.0), (3, 2, 1.0), (3, 3, 1.0),
             (3, 3, 1.2))
    problems = [(linalg.random_density_matrix(4, rank, seed=400 + 10 * rank + s), rdm, a)
                for rank, s, a in cases]
    results = minimize_batch(problems, OracleConfig(), [s for _, s, _ in cases])
    for (rho, _, a), res in zip(problems, results):
        gap = res.value - closed_form_measure(rho, rdm, a).value
        assert math.isfinite(res.value)
        assert -1e-12 <= gap <= 1e-9, (a, gap)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rank_deficient_sweep_stays_finite_and_attains(d):
    """The search near singular minimizers, on 1,008 problems over d = 2, 3
    and 4: dephasing, the cyclic twirl, the one-block Lueders map (the
    identity, sigma* = rho) and the modified coarse map of blocks
    [0..d-2], [d-1]; states of every rank 1..d, four seeds s each
    (random_density_matrix(d, rank, seed=100 d + 10 rank + s)); every order
    of the grid; the default budget with OracleConfig(seed=s).  No problem
    raises NoFiniteObjective, and each value is within 1e-9 of the closed
    form and at most 1e-12 below it, the bounds of
    test_oracle_stays_finite_next_to_a_singular_minimizer.  An objective
    that cut tau's small weights inside the search raised
    NoFiniteObjective on 7 of these problems."""
    maps = [dephasing_map(MeasurementPartition.singletons(d)), cyclic_twirl(d),
            lueders_map(MeasurementPartition.single_block(d)),
            modified_coarse_map(MeasurementPartition(d, [list(range(d - 1)), [d - 1]]))]
    cases = [(linalg.random_density_matrix(d, rank, seed=100 * d + 10 * rank + s), rdm, a, s)
             for rdm in maps for rank in range(1, d + 1) for s in range(4)
             for a in DEFAULT_A_GRID]
    assert len(cases) == 4 * d * 4 * len(DEFAULT_A_GRID)
    results = minimize_batch([(rho, rdm, a) for rho, rdm, a, _ in cases], OracleConfig(),
                             [s for *_, s in cases])
    for (rho, rdm, a, s), res in zip(cases, results):
        gap = res.value - closed_form_measure(rho, rdm, a).value
        assert -1e-12 <= gap <= 1e-9, (rdm, np.linalg.matrix_rank(rho), s, a, gap)


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
    config = OracleConfig(restarts=1, tol=ORACLE_TOL)
    seeds = [oseed for *_, oseed in problems]
    together = minimize_batch([(rho, rdm, a) for _, rdm, rho, a, _ in problems], config, seeds)
    if d == 4:
        assert {res.free_dim for res in together} >= {1, 16}
    for (_, rdm, rho, a, _), seed, res in zip(problems, seeds, together):
        alone = minimize_over_free_states(rho, rdm, a, dataclasses.replace(config, seed=seed))
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
    r - 1 coordinates of the map's frame C (built here from the Gell-Mann
    matrices), through f(y) = objective(C y),
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
            fused, *_ = _free_state_objective([(rho, rdm, a)])
            C = _frame(rdm)
            widths.append(C.shape[1] + 1)

            def f(y):
                return fused((C @ y)[None], np.zeros(1, dtype=np.intp))[0][0]

            start = 0.1 * np.random.default_rng(oseed).standard_normal(C.shape[1])
            budget = OracleConfig(restarts=1, max_iterations=4000, tol=1e-13)
            x, _ = simplex_minimize(f, start, budget)
            x, _ = simplex_minimize(f, x, budget, initial_step=0.05)
            simplex = tsallis_relative_entropy(rho, _free_state_of(C @ x, rdm), a)
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
    return problems, OracleConfig(restarts=2, max_iterations=400, tol=1e-9), range(len(problems))


def test_mixed_r_batch_runs_one_stack_per_pass(monkeypatch):
    """Every r shares one lockstep search, in one pass: one call, on a stack
    of the d^2 - 1 = 8 Gell-Mann coordinates for the 16 restarts, and the
    winners reach E together, in one call on the (8, 8) stack of their
    points in those coordinates."""
    problems, config, seeds = _mixed_r_batch()
    stacks, points = [], []
    inner_search, inner_state = oracle._lockstep_bfgs, oracle._free_state

    def search(f, x0, *args):
        stacks.append(x0.shape)
        return inner_search(f, x0, *args)

    def free_state(X, maps):
        points.append(X.shape)
        return inner_state(X, maps)

    monkeypatch.setattr(oracle, "_lockstep_bfgs", search)
    monkeypatch.setattr(oracle, "_free_state", free_state)
    results = minimize_batch(problems, config, seeds)
    assert stacks == [(16, 8)]
    assert [res.free_dim for res in results] == [3, 3, 1, 1, 5, 5, 2, 2]
    assert points == [(8, 8)]
    assert all(abs(res.value - closed_form_measure(*p).value) <= 1e-6
               for p, res in zip(problems, results))


def test_winners_are_mapped_and_rescored_in_one_stack(monkeypatch):
    """After the search, each distinct map is applied once, to the stack of
    its own problems' winners, and the batch is rescored in one stacked
    call on all of them: 8 problems on 4 maps make 4 applies of (2, 3, 3)
    and one rescoring of 8 rows, with the problems' own states and orders.
    Each value is that call's row, and also the one-problem reference's."""
    problems, config, seeds = _mixed_r_batch()
    applied, rescored = [], []
    inner_apply, inner_rescore = ResourceDestroyingMap.apply, oracle.tsallis_relative_entropies

    def apply(self, X):
        applied.append((id(self), np.shape(X)))
        return inner_apply(self, X)

    def rescore(rhos, sigmas, orders):
        values = inner_rescore(rhos, sigmas, orders)
        rescored.append((np.shape(sigmas), list(orders), values))
        return values

    monkeypatch.setattr(ResourceDestroyingMap, "apply", apply)
    monkeypatch.setattr(oracle, "tsallis_relative_entropies", rescore)
    results = minimize_batch(problems, config, seeds)
    maps = list({id(rdm): None for _, rdm, _ in problems})
    assert sorted(applied) == sorted((key, (2, 3, 3)) for key in maps)
    assert len(rescored) == 1
    shape, orders, values = rescored[0]
    assert shape == (8, 3, 3) and orders == [a for *_, a in problems]
    for (rho, _, a), res, value in zip(problems, results, values):
        assert res.value == value == tsallis_relative_entropy(rho, res.sigma_min, a)


def test_each_map_acts_once_per_batch_on_the_gell_mann_stack(monkeypatch):
    """One batch of several problems on each of four maps at d = 3
    (dephasing, Lueders, the cyclic twirl and complete mixing): the map
    enters the search only through its projector, built from one `_act`
    per distinct map on the stack of the d^2 - 1 Gell-Mann matrices before
    the search starts.  No objective call and no projection runs `_act`;
    after the search, each map acts once more, on the stack of its own
    problems' winners."""
    d = 3
    maps = [dephasing_map(MeasurementPartition.singletons(d)),
            lueders_map(MeasurementPartition(d, [[0, 1], [2]])), cyclic_twirl(d), mixing_map(d)]
    rho = linalg.random_density_matrix(d, d, seed=9)
    problems = [(rho, rdm, a) for rdm in maps for a in (0.5, 1.0, 2.0)]
    acted, calls, phase = [], [], ["build"]
    inner_objective, inner_act = oracle._free_state_objective, ResourceDestroyingMap._act

    def act(self, A):
        acted.append((phase[0], id(self), np.array(A)))
        return inner_act(self, A)

    def objective(batch):
        f, project, *rest = inner_objective(batch)

        def traced(X, rows):
            phase[0] = "search"
            calls.append(len(rows))
            out = f(X, rows)
            phase[0] = "after"
            return out

        def projected(M, rows):
            phase[0] = "search"
            out = project(M, rows)
            phase[0] = "after"
            return out

        return traced, projected, *rest

    monkeypatch.setattr(ResourceDestroyingMap, "_act", act)
    monkeypatch.setattr(oracle, "_free_state_objective", objective)
    results = minimize_batch(problems, QUICK)
    assert len(calls) > 1
    assert not [key for when, key, _ in acted if when == "search"]
    built = [(key, A) for when, key, A in acted if when == "build"]
    assert sorted(key for key, _ in built) == sorted(id(rdm) for rdm in maps)
    for _, A in built:
        assert A.shape == (d * d - 1, d, d)
        assert np.abs(A - _gell_mann(d)).max() <= 1e-15
    after = [(key, A.shape) for when, key, A in acted if when == "after"]
    assert sorted(after) == sorted((id(rdm), (3, d, d)) for rdm in maps)
    assert [res.free_dim for res in results] == [r for r in (3, 5, 3, 1) for _ in range(3)]
    assert all(abs(res.value - closed_form_measure(*p).value) <= 1e-6
               for p, res in zip(problems, results))


def _projector_maps(d):
    """Every built-in family, a twirl in a random basis (a partition map in
    that basis) and non-commuting Kraus input (the modified map's operators
    in a random basis, a dense Kraus sum), with the r each must have."""
    rng = np.random.default_rng(300 + d)
    coarse, families = _families(d)
    expected = {"dephasing": d, "lueders": sum(n * n for n in coarse.degeneracies),
                "modified": len(coarse.blocks), "twirl": d, "mixing": 1}
    maps = [(name, rdm, expected[name]) for name, rdm in families]
    W = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    twirl = twirling_map([W @ channels.cyclic_shift(d, k) @ W.conj().T for k in range(d)])
    kraus = channels.map_from_json({"type": "kraus", "dim": d, "operators": [
        linalg.matrix_to_json(W @ K @ W.conj().T) for K in modified_coarse_map(coarse).kraus]})
    assert type(kraus.channel) is QuantumChannel
    return maps + [("twirl in a basis", twirl, d), ("kraus", kraus, len(coarse.blocks))]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_projector_is_the_symmetric_idempotent_image_of_the_map(d):
    """Each map's projector P on Gell-Mann coordinates is symmetric and
    idempotent to 1e-14, 1 + trace P is r = dim Fix(E), the rank of the
    superoperator, and projecting a random M through the objective's
    `project` gives the coordinates of E(M) to 1e-15 ||M||."""
    rng = np.random.default_rng(310 + d)
    for name, rdm, r in _projector_maps(d):
        P = oracle._projector(rdm)
        assert P.shape == (d * d - 1, d * d - 1), name
        assert np.abs(P - P.T).max() <= 1e-14, name
        assert np.abs(P @ P - P).max() <= 1e-14, name
        assert abs(1.0 + np.trace(P) - r) <= 1e-12, name
        assert _free_dim(rdm) == _free_dim(rdm, P) == r == np.linalg.matrix_rank(rdm.superop), name
        _, project, free_dims = _free_state_objective([(np.eye(d) / d, rdm, 0.5)])
        assert free_dims.tolist() == [r], name
        M = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        for m in M:
            image = oracle._coordinates(rdm._act(m[None]))
            assert np.abs(project(m[None], np.array([0])) - image).max() \
                <= 1e-15 * np.linalg.norm(m), name


@pytest.mark.parametrize("trials, restarts", [(4, 1), (2, 6)])
def test_projection_in_blocks_or_runs_matches_each_problem_alone(monkeypatch, trials, restarts):
    """The problems of several d = 4 theorem-1 trials form one stack whose
    projections either gather the rows' projectors in blocks of
    _STACK_BLOCK_BYTES (four trials, one restart: 140 rows in 4 blocks,
    20 runs of rows on one map) or read each run's projector in place (two
    trials, six restarts: 420 rows in 10 runs, 12 blocks); a seeded sample
    of the problems ends exactly where each ends when solved alone, as one
    run."""
    problems = [p for *_, batch in theorem1_batches([4], DEFAULT_A_GRID, trials, seed=7)
                for p in batch]
    config = OracleConfig(restarts=restarts, tol=ORACLE_TOL)
    k = len(problems) * restarts
    runs = 1 + sum(a[1] is not b[1] for a, b in zip(problems, problems[1:]))
    blocks = []
    inner = oracle._blocks

    def spy(k, row_bytes):
        out = inner(k, row_bytes)
        blocks.append((k, len(out)))
        return out

    monkeypatch.setattr(oracle, "_blocks", spy)
    together = minimize_batch([(rho, rdm, a) for _, rdm, rho, a, _ in problems], config,
                              [oseed for *_, oseed in problems])
    # the starts' projection, then the first objective call's, before any step
    assert blocks[:2] == [(k, len(inner(k, 15 * 15 * 8)))] * 2
    assert (runs, blocks[0][1]) == ((20, 4) if restarts == 1 else (10, 12))
    monkeypatch.setattr(oracle, "_blocks", inner)
    sample = np.random.default_rng(32).choice(len(problems), size=8, replace=False)
    for i in sample:
        _, rdm, rho, a, oseed = problems[i]
        alone = minimize_over_free_states(rho, rdm, a, dataclasses.replace(config, seed=oseed))
        res = together[i]
        assert np.array_equal(res.sigma_min, alone.sigma_min)
        assert res.value == alone.value
        assert (res.evaluations, res.iterations, res.free_dim) == \
            (alone.evaluations, alone.iterations, alone.free_dim)


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
                       OracleConfig(restarts=1, tol=ORACLE_TOL), [oseed for *_, oseed in problems])
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


def test_each_objective_call_advances_every_live_row(monkeypatch):
    """Every row runs its own line search, so each objective call scores
    one trial point of every row still searching: on the 70 d = 3 problems
    of theorem-1 trials 0 and 1, one restart each, the stack makes as many
    calls as its slowest row scores points, and the calls score every
    point of every row once.  A line search run in lockstep, each round
    waiting for the slowest row's halvings, made 25 calls for 20 points."""
    calls = []
    inner = oracle._free_state_objective

    def counting(problems):
        objective, *frames = inner(problems)

        def f(X, rows):
            calls.append(rows.size)
            return objective(X, rows)

        return f, *frames

    monkeypatch.setattr(oracle, "_free_state_objective", counting)
    problems = [p for *_, batch in theorem1_batches([3], DEFAULT_A_GRID, 2, 7) for p in batch]
    results = minimize_batch([(rho, rdm, a) for _, rdm, rho, a, _ in problems],
                             OracleConfig(restarts=1, tol=ORACLE_TOL),
                             [oseed for *_, oseed in problems])
    assert len(results) == 70
    assert len(calls) == max(res.evaluations for res in results)
    assert sum(calls) == sum(res.evaluations for res in results)
    assert all(res.stack_calls == len(calls) for res in results)


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
                       OracleConfig(restarts=2, max_iterations=50, tol=1e-6, seed=0))


def test_infinite_winner_in_a_batch_names_its_order():
    """The batch is rescored in one stacked call; a problem whose winner
    scores +inf still raises NoFiniteObjective naming its order, while the
    problems around it score finite values."""
    rho = np.diag([0.0, 1.0]).astype(complex)
    deph = dephasing_map(MeasurementPartition.singletons(2))
    config = OracleConfig(restarts=2, max_iterations=50, tol=1e-6, seed=0)
    with pytest.raises(NoFiniteObjective, match=r"\(a=1\.5\)"):
        minimize_batch([(rho, deph, 0.5), (rho, _crush(), 1.5), (rho, deph, 2.0)], config)
    assert all(math.isfinite(res.value)
               for res in minimize_batch([(rho, deph, 0.5), (rho, deph, 2.0)], config))


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
        results = minimize_batch(problems, QUICK)
        for problem, res in zip(problems, results):
            assert abs(res.value - closed_form_measure(*problem).value) <= 1e-6


def test_batch_refuses_mixed_dimensions():
    # the two maps have different r as well, so they would form separate
    # groups; the batch still refuses them
    problems = [(np.eye(d, dtype=complex) / d, dephasing_map(MeasurementPartition.singletons(d)),
                 2.0) for d in (2, 3)]
    with pytest.raises(ValidationError):
        minimize_batch(problems, QUICK)


def test_empty_batch_solves_nothing(monkeypatch):
    # an empty batch is not a dimension mismatch, and builds no start or
    # objective; a length mismatch is still refused
    def refuse(*_):
        raise AssertionError("nothing to build for an empty batch")
    monkeypatch.setattr(oracle, "_hermitian", refuse)
    monkeypatch.setattr(oracle, "_free_state_objective", refuse)
    assert minimize_batch([], QUICK) == minimize_batch([], QUICK, []) == []
    with pytest.raises(ValidationError, match="0 problems but 1 seeds"):
        minimize_batch([], QUICK, [0])


def test_batch_refuses_seeds_of_another_length():
    """One seed per problem: a seeds list of another length is refused
    before any search, and leaving seeds out gives every problem
    config.seed."""
    deph = dephasing_map(MeasurementPartition.singletons(2))
    rho = linalg.random_density_matrix(2, 2, seed=5)
    problems = [(rho, deph, 0.5), (rho, deph, 2.0)]
    for seeds in ([3], [3, 4, 5]):
        with pytest.raises(ValidationError, match=f"2 problems but {len(seeds)} seeds"):
            minimize_batch(problems, QUICK, seeds)
    default = minimize_batch(problems, QUICK)
    given = minimize_batch(problems, QUICK, [QUICK.seed] * 2)
    assert [res.value for res in default] == [res.value for res in given]


@pytest.mark.parametrize("seed", [True, -1, 1.5, "3"])
def test_batch_refuses_a_seed_that_is_no_count(seed):
    deph = dephasing_map(MeasurementPartition.singletons(2))
    rho = linalg.random_density_matrix(2, 2, seed=5)
    with pytest.raises(ValidationError, match="seed must be"):
        minimize_batch([(rho, deph, 0.5), (rho, deph, 2.0)], QUICK, [0, seed])


def test_search_runs_under_one_scalar_budget(monkeypatch):
    """The lockstep search gets the batch's tol and max_iterations as two
    numbers, not arrays of one entry per row, and each problem's R
    restarts start from its own seed: a problem's result does not change
    with the seeds of the others."""
    problems, config, seeds = _mixed_r_batch()
    budgets = []
    inner = oracle._lockstep_bfgs

    def search(f, x0, *budget):
        budgets.append(budget)
        return inner(f, x0, *budget)

    monkeypatch.setattr(oracle, "_lockstep_bfgs", search)
    results = minimize_batch(problems, config, seeds)
    assert budgets == [(config.tol, config.max_iterations)]
    assert all(type(v) in (int, float) for v in budgets[0])
    moved = minimize_batch(problems, config, [s + 100 * (i % 2) for i, s in enumerate(seeds)])
    for i, (res, other) in enumerate(zip(results, moved)):
        if i % 2 == 0:
            assert res.value == other.value and np.array_equal(res.sigma_min, other.sigma_min)


# ------------------------------------------------------------- line search

def _stack_problems(d, trials=2, seed=7):
    """The problems of theorem-1 trials 0..trials-1 at dimension d, as the
    suite solves them: one stack under OracleConfig(restarts=1,
    tol=ORACLE_TOL), each problem from its own seed.  Trial draws do not
    depend on the other dimensions, so at seed 7 and d = 2 this is the
    first stack of the theorem-1 benchmark's round 0."""
    problems = [p for *_, batch in theorem1_batches([d], DEFAULT_A_GRID, trials, seed)
                for p in batch]
    return ([(rho, rdm, a) for _, rdm, rho, a, _ in problems],
            OracleConfig(restarts=1, tol=ORACLE_TOL), [oseed for *_, oseed in problems])


def test_curvature_condition_shortens_the_slowest_row():
    """The d = 2 stack of theorem1_batches([2, 3, 4], DEFAULT_A_GRID, 2, 7)
    makes at most 25 objective calls.  Under Armijo backtracking alone it
    made 50: its slowest row, the cyclic twirl at a = 0.3, took a capped
    step past its minimum and then 37 accepted steps of about 0.03 along a
    concave stretch, each with s.y < 0, so none updated its stale inverse
    Hessian.  The weak Wolfe curvature condition doubles such a step
    instead of taking it."""
    problems, config, seeds = _stack_problems(2)
    batches = theorem1_batches([2, 3, 4], DEFAULT_A_GRID, 2, 7)
    first = [p for *_, dim, batch in batches if dim == 2 for p in batch]
    assert [oseed for *_, oseed in first] == seeds
    assert all(np.array_equal(rho, problem[0])
               for (_, _, rho, _, _), problem in zip(first, problems))
    results = minimize_batch(problems, config, seeds)
    assert len(results) == 70
    assert results[0].stack_calls <= 25
    assert sum(res.cap_hits for res in results) == 0


def test_every_step_taken_below_its_cap_updates_the_inverse_hessian(monkeypatch):
    """On the stacks of theorem-1 trials 0 and 1 at d = 2, 3 and 4, every
    step a row takes below its cap of 5 per coordinate has s.y > 0, so it
    takes its BFGS update: the curvature condition gives
    s.y >= (1 - 0.9) t |g.p| for a search that never failed Armijo.  A row
    that took no step reaches the update with s = 0 and is left as it is.
    Under Armijo backtracking alone, 214 steps of benchmark rounds 0-11
    had s.y <= 0."""
    seen = []
    inner = oracle._bfgs_update

    def update(Hinv, s, y, fresh):
        size = np.abs(s).max(axis=1, initial=0.0)
        taken = (size > 0) & (size < oracle._MAX_STEP * (1 - 1e-12))
        sy = np.add.reduce(s * y, axis=1)
        seen.append((np.count_nonzero(taken), np.count_nonzero(taken & ~(sy > 0))))
        return inner(Hinv, s, y, fresh)

    monkeypatch.setattr(oracle, "_bfgs_update", update)
    for d in (2, 3, 4):
        minimize_batch(*_stack_problems(d))
    assert sum(taken for taken, _ in seen) > 1000
    assert sum(bad for _, bad in seen) == 0


def _shoulder(X, rows):
    """A one-parameter objective with a flat concave shoulder: f = -x/1000
    - x^2/10^5 up to x = 20, then a quadratic bowl joined to it with a
    continuous slope, whose minimum lies at x = 30.  The terms' magnitude
    is |f| + 1."""
    x = X[:, 0]
    f1, g1, kappa = -0.02 - 0.004, -1e-3 - 4e-4, 1.4e-4
    shoulder = x <= 20.0
    value = np.where(shoulder, -1e-3 * x - 1e-5 * x * x,
                     f1 + g1 * (x - 20.0) + 0.5 * kappa * (x - 20.0) ** 2)
    slope = np.where(shoulder, -1e-3 - 2e-5 * x, g1 + kappa * (x - 20.0))
    return value, slope[:, None], np.abs(value) + 1.0


def test_search_crosses_a_flat_concave_shoulder():
    """From x = 0, where the slope is -1e-3, every step along the concave
    shoulder has s.y < 0.  Armijo backtracking alone takes each full step of
    about 1e-3 and creeps: it stopped at its 2,000-iteration cap near
    x = 2.04.  The curvature condition doubles each step up to the cap of
    5, so the search crosses the shoulder and reaches the bowl's minimum in
    at most 100 points."""
    x, fx, gmax, points, iterations, capped = oracle._lockstep_bfgs(
        _shoulder, np.zeros((1, 1)), 1e-10, 2000)
    assert not capped[0]
    assert abs(x[0, 0] - 30.0) <= 1e-6 and gmax[0] <= 1e-10
    assert points[0] <= 100


# ------------------------------------------------------- Gell-Mann table

@pytest.mark.parametrize("d", range(2, 9))
def test_gell_mann_table_is_read_off_the_unit_matrices(d):
    """The table written from _layout is, bit for bit, the table read off
    the 2 d^2 unit matrices by _coordinates, its former construction, kept
    here as the reference; it is read-only, as every caller shares it."""
    units = np.eye(2 * d * d).view(complex).reshape(2 * d * d, d, d)
    reference = np.ascontiguousarray(oracle._coordinates(units).T)
    table = oracle._gell_mann_table(d)
    assert table.shape == reference.shape == (d * d - 1, 2 * d * d)
    assert table.tobytes() == reference.tobytes()
    assert not table.flags.writeable


def test_gell_mann_table_builds_without_a_dense_identity():
    """At d = 16 the table holds 1 MiB, and building it peaks at no more
    than 2 MiB traced.  Reading it off the dense (2 d^2)^2 identity peaked at
    4.9 MiB here, and at 79 MiB at d = 32."""
    tracemalloc.start()
    try:
        table = oracle._gell_mann_table.__wrapped__(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (255, 512)
    assert peak <= 2 * 2**20
