import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmap import linalg
from rdmap.channels import (
    MeasurementPartition,
    PartitionChannel,
    QuantumChannel,
    certify_rdm,
    cyclic_twirl,
    dephasing_map,
    lueders_map,
    mixing_map,
    modified_coarse_map,
    twirling_map,
)
from rdmap.errors import InfiniteValue, ValidationError
from rdmap.measures import (
    closed_form_measure,
    decomposition_identity_residual,
    report_from_json,
    report_to_json,
    tsallis_relative_entropy,
    von_neumann_entropy,
    validate_order,
)
from rdmap.verify import random_partition

PLUS = np.full((2, 2), 0.5, dtype=complex)
A_GRID = (0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0)


def qubit_dephasing():
    return dephasing_map(MeasurementPartition.singletons(2))


def builtin_maps(d):
    coarse = MeasurementPartition(d, [[0, 1]] + [[i] for i in range(2, d)])
    return [dephasing_map(MeasurementPartition.singletons(d)),
            lueders_map(coarse), modified_coarse_map(coarse),
            cyclic_twirl(d), mixing_map(d)]


# ------------------------------------------------------------------ entropy

def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(3) / 3) == pytest.approx(math.log(3), abs=1e-12)
    assert von_neumann_entropy(np.diag([0.5, 0.3, 0.2])) == pytest.approx(
        1.0296530140645735, abs=1e-12)


# ------------------------------------------------------------------ tsallis

def test_tsallis_zero_on_equal_arguments():
    for seed in range(5):
        rho = linalg.random_density_matrix(3, 3, seed=seed)
        for a in A_GRID:
            assert abs(tsallis_relative_entropy(rho, rho, a)) <= 1e-10


def test_tsallis_hand_values():
    pure = np.diag([1.0, 0.0])
    mixed = np.eye(2) / 2
    assert tsallis_relative_entropy(pure, mixed, 2.0) == pytest.approx(
        math.sqrt(2) - 1, abs=1e-12)
    assert tsallis_relative_entropy(pure, mixed, 1.0) == pytest.approx(
        math.log(2), abs=1e-12)


def test_tsallis_disjoint_supports():
    pure = np.diag([1.0, 0.0])
    flipped = np.diag([0.0, 1.0])
    assert tsallis_relative_entropy(pure, flipped, 1.5) == math.inf
    assert tsallis_relative_entropy(pure, flipped, 1.0) == math.inf
    # a < 1 stays finite by the support-power convention
    assert math.isfinite(tsallis_relative_entropy(pure, flipped, 0.5))


def test_tsallis_order_validation():
    with pytest.raises(ValidationError):
        tsallis_relative_entropy(PLUS, PLUS, 0.0)
    with pytest.raises(ValidationError):
        tsallis_relative_entropy(PLUS, PLUS, 2.5)
    assert validate_order(2.0) == 2.0


def test_tsallis_nonnegative_on_random_pairs():
    for seed in range(10):
        rho = linalg.random_density_matrix(3, 3, seed=2 * seed)
        sig = linalg.random_density_matrix(3, 3, seed=2 * seed + 1)
        for a in A_GRID:
            assert tsallis_relative_entropy(rho, sig, a) >= -1e-10


# -------------------------------------------------------------- closed form

def test_closed_form_hand_values():
    deph = qubit_dephasing()
    for a, want in ((0.5, 1.0), (1.0, math.log(2)), (2.0, math.sqrt(2) - 1)):
        rep = closed_form_measure(PLUS, deph, a)
        assert rep.value == pytest.approx(want, abs=1e-10)
    rep = closed_form_measure(PLUS, deph, 2.0)
    assert np.allclose(rep.sigma_star, np.eye(2) / 2, atol=1e-10)
    assert rep.N == pytest.approx(math.sqrt(2), abs=1e-12)


def test_closed_form_vanishes_on_fixed_points():
    for d in (2, 3):
        for rdm in builtin_maps(d):
            sigma = rdm.apply(linalg.random_density_matrix(d, d, seed=d))
            for a in A_GRID:
                rep = closed_form_measure(sigma, rdm, a)
                assert abs(rep.value) <= 1e-9
                assert np.allclose(rep.sigma_star, sigma, atol=1e-8)


def test_closed_form_reports_valid_minimizer():
    for seed in range(5):
        rho = linalg.random_density_matrix(3, 3, seed=seed)
        for rdm in builtin_maps(3):
            for a in (0.5, 1.0, 1.7):
                rep = closed_form_measure(rho, rdm, a)
                linalg.validate_density(rep.sigma_star)
                assert rep.fixed_point_residual <= 1e-9
                assert rep.value >= -1e-10
                if a == 1.0:
                    assert rep.N == 1.0


def test_closed_form_is_the_minimum():
    """Random free states never beat the reported value (optimality)."""
    for seed in range(10):
        rho = linalg.random_density_matrix(3, 3, seed=seed)
        for rdm in builtin_maps(3):
            for a in (0.3, 1.0, 1.5):
                value = closed_form_measure(rho, rdm, a).value
                sigma = rdm.apply(linalg.random_density_matrix(3, 3, seed=100 + seed))
                assert tsallis_relative_entropy(rho, sigma, a) >= value - 1e-9


def test_closed_form_convexity():
    rng = np.random.default_rng(7)
    for trial in range(30):
        d = 2 + trial % 3
        rho1 = linalg.random_density_matrix(d, d, seed=3 * trial)
        rho2 = linalg.random_density_matrix(d, d, seed=3 * trial + 1)
        p = float(rng.uniform())
        rdm = builtin_maps(d)[trial % 5]
        a = A_GRID[trial % len(A_GRID)]
        v1 = closed_form_measure(rho1, rdm, a).value
        v2 = closed_form_measure(rho2, rdm, a).value
        vmix = closed_form_measure(p * rho1 + (1 - p) * rho2, rdm, a).value
        assert vmix <= p * v1 + (1 - p) * v2 + 1e-9


def test_closed_form_free_unitary_invariance():
    rng = np.random.default_rng(3)
    deph = qubit_dephasing()
    tw = cyclic_twirl(3)
    for _ in range(10):
        rho = linalg.random_density_matrix(2, 2, seed=int(rng.integers(2**31)))
        perm = np.eye(2)[rng.permutation(2)]
        U = perm @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
        for a in (0.5, 1.0, 2.0):
            v = closed_form_measure(rho, deph, a).value
            vu = closed_form_measure(U @ rho @ U.conj().T, deph, a).value
            assert abs(v - vu) <= 1e-9
        rho3 = linalg.random_density_matrix(3, 3, seed=int(rng.integers(2**31)))
        C = np.roll(np.eye(3), 1, axis=0).astype(complex)
        for a in (0.5, 1.0, 2.0):
            v = closed_form_measure(rho3, tw, a).value
            vu = closed_form_measure(C @ rho3 @ C.conj().T, tw, a).value
            assert abs(v - vu) <= 1e-9


def test_closed_form_continuity_at_one():
    for seed in range(10):
        d = 2 + seed % 2
        rho = linalg.random_density_matrix(d, d, seed=seed)
        rdm = builtin_maps(d)[seed % 5]
        v0 = closed_form_measure(rho, rdm, 1.0).value
        assert closed_form_measure(rho, rdm, 1.0 - 1e-4).value == pytest.approx(v0, abs=1e-3)
        assert closed_form_measure(rho, rdm, 1.0 + 1e-4).value == pytest.approx(v0, abs=1e-3)


def test_mixing_map_measures_purity():
    for seed in range(10):
        d = 2 + seed % 3
        rho = linalg.random_density_matrix(d, d, seed=seed)
        value = closed_form_measure(rho, mixing_map(d), 1.0).value
        assert value == pytest.approx(math.log(d) - von_neumann_entropy(rho), abs=1e-10)


def test_closed_form_exact_on_pure_states():
    """rho^a = rho on a pure state, so dephasing gives
    (sum_i p_i^{1/a} - 1)/(a - 1) with p the diagonal of rho, and mixing
    (d^{1 - 1/a} - 1)/(a - 1); round-off eigenvalues of rho must not survive
    the power."""
    d = 4
    rho = linalg.random_density_matrix(d, 1, seed=3)
    p = np.diag(rho).real
    for a in (0.3, 0.5, 2.0):
        deph = closed_form_measure(rho, dephasing_map(MeasurementPartition.singletons(d)), a)
        assert deph.value == pytest.approx((np.sum(p ** (1 / a)) - 1) / (a - 1), abs=1e-12)
        mix = closed_form_measure(rho, mixing_map(d), a)
        assert mix.value == pytest.approx((d ** (1 - 1 / a) - 1) / (a - 1), abs=1e-12)


def test_partition_maps_at_d64():
    d = 64
    coarse = MeasurementPartition(d, np.split(np.random.default_rng(64).permutation(d), [32, 48]))
    maps = (dephasing_map(MeasurementPartition.singletons(d)), lueders_map(coarse),
            modified_coarse_map(coarse), mixing_map(d), cyclic_twirl(d))
    for rank in (d, 1):
        rho = linalg.random_density_matrix(d, rank, seed=rank)
        for rdm in maps:
            for a in (0.5, 2.0):
                rep = closed_form_measure(rho, rdm, a)
                assert rep.fixed_point_residual <= 1e-8
                direct = tsallis_relative_entropy(rho, rep.sigma_star, a)
                assert rep.value == pytest.approx(direct, abs=1e-9)


def test_lueders_pure_state_gap_at_roundoff():
    # the block sizes of the benchmark's coarse partitions; a pure state
    # leaves round-off eigenvalues in E(rho^a), which must not survive the
    # power (1/a = 0.5 would lift 1e-17 to 3e-9)
    rng = np.random.default_rng(2)
    for sizes in ((2, 2), (4, 2, 2), (8, 4, 4), (16, 8, 8)):
        d = sum(sizes)
        blocks = np.split(rng.permutation(d), np.cumsum(sizes)[:-1])
        rdm = lueders_map(MeasurementPartition(d, blocks))
        rho = linalg.random_density_matrix(d, 1, seed=d)
        rep = closed_form_measure(rho, rdm, 2.0)
        assert abs(rep.value - tsallis_relative_entropy(rho, rep.sigma_star, 2.0)) <= 1e-12


def test_non_abelian_twirl_keeps_the_dense_closed_form():
    """The twirl over Pauli (x) I_2 is a Kraus sum, and its closed form is
    the dense one: matrix_power of E(rho^a), and S(E(rho)) at a = 1."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    paulis = (np.eye(2), X, 1j * X @ Z, Z)
    rdm = twirling_map([np.kron(P, np.eye(2)) for P in paulis])
    assert type(rdm.channel) is QuantumChannel
    rho = linalg.random_density_matrix(4, 4, seed=9)
    for a in A_GRID:
        if a == 1.0:
            want = von_neumann_entropy(rdm.apply(rho)) - von_neumann_entropy(rho)
        else:
            X_ = linalg.matrix_power(rdm.apply(linalg.matrix_power(rho, a)), 1.0 / a)
            want = (np.trace(X_).real - 1.0) / (a - 1.0)
        assert closed_form_measure(rho, rdm, a).value == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 12), st.booleans(), st.integers(0, 2**32 - 1))
def test_blockwise_closed_form_equals_dense(d, with_basis, seed):
    """A random partition with a random mix of kept and traced blocks, in the
    computational basis or a random one, on a state of random rank: the
    closed form taken on the blocks equals the one on the same map given as
    a Kraus sum, whose image is formed densely."""
    rng = np.random.default_rng(seed)
    part = random_partition(d, rng, coarse=bool(rng.integers(2)))
    traced = rng.integers(0, 2, len(part.blocks))
    basis = None
    if with_basis:
        Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        basis = Q * (np.diag(R) / np.abs(np.diag(R)))
    rdm = certify_rdm(PartitionChannel(part, traced, basis=basis))
    dense = certify_rdm(QuantumChannel(rdm.kraus))
    rho = linalg.random_density_matrix(d, int(rng.integers(1, d + 1)), seed=seed % 2**31)
    for a in A_GRID:
        got = closed_form_measure(rho, rdm, a)
        want = closed_form_measure(rho, dense, a)
        assert abs(got.value - want.value) <= 1e-12 * max(1.0, abs(want.value))
        assert abs(got.N - want.N) <= 1e-12 * want.N
        assert np.abs(got.sigma_star - want.sigma_star).max() <= 1e-12


def test_closed_form_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        closed_form_measure(np.diag([1.0, 1.0]), qubit_dephasing(), 1.0)
    with pytest.raises(ValidationError):
        closed_form_measure(PLUS, qubit_dephasing(), 3.0)


# ------------------------------------------------- decomposition identity

def test_decomposition_identity_at_sigma_star():
    deph = qubit_dephasing()
    for a in (0.5, 1.5, 2.0):
        rep = closed_form_measure(PLUS, deph, a)
        res = decomposition_identity_residual(PLUS, rep.sigma_star, deph, a)
        assert res <= 1e-9
        # at sigma* the tail vanishes, so LHS equals the value itself
        assert tsallis_relative_entropy(PLUS, rep.sigma_star, a) == pytest.approx(
            rep.value, abs=1e-9)


def test_decomposition_identity_dephasing():
    rng = np.random.default_rng(1)
    for _ in range(10):
        diag = rng.uniform(0.05, 1.0, size=2)
        sigma = np.diag(diag / diag.sum()).astype(complex)
        res = decomposition_identity_residual(PLUS, sigma, qubit_dephasing(), 1.5)
        assert res <= 1e-9


def test_decomposition_identity_twirl():
    tw = cyclic_twirl(3)
    for seed in range(10):
        rho = linalg.random_density_matrix(3, 3, seed=2 * seed)
        sigma = tw.apply(linalg.random_density_matrix(3, 3, seed=2 * seed + 1))
        assert decomposition_identity_residual(rho, sigma, tw, 0.7) <= 1e-9


def test_decomposition_identity_preconditions():
    deph = qubit_dephasing()
    with pytest.raises(ValidationError):
        decomposition_identity_residual(PLUS, np.eye(2) / 2, deph, 1.0)
    with pytest.raises(ValidationError):
        # |+><+| is not a fixed point of dephasing
        decomposition_identity_residual(PLUS, PLUS, deph, 1.5)


def test_decomposition_identity_infinite_side():
    sigma = np.diag([1.0, 0.0]).astype(complex)  # fixed point, rank deficient
    with pytest.raises(InfiniteValue):
        decomposition_identity_residual(PLUS, sigma, qubit_dephasing(), 1.5)


# --------------------------------------------------------------------- JSON

def test_report_json_round_trip():
    rep = closed_form_measure(PLUS, qubit_dephasing(), 1.5)
    back = report_from_json(report_to_json(rep))
    assert back.value == pytest.approx(rep.value, abs=0)
    assert back.N == rep.N
    assert np.array_equal(back.sigma_star, rep.sigma_star)


def test_report_json_infinity_literal():
    rep = closed_form_measure(PLUS, qubit_dephasing(), 1.5)
    rep.value = math.inf
    payload = report_to_json(rep)
    assert payload["value"] == "inf"
    assert report_from_json(payload).value == math.inf
