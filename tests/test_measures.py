import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmap import channels, linalg
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
from rdmap.errors import (
    CertificationError,
    DimensionMismatch,
    InfiniteValue,
    NonHermitian,
    NotPSD,
    ValidationError,
)
from rdmap.measures import (
    closed_form_measure,
    decomposition_identity_residual,
    report_from_json,
    report_to_json,
    tsallis_relative_entropies,
    tsallis_relative_entropy,
    von_neumann_entropy,
    validate_order,
)
from rdmap.verify import _builtin_families, _free_unitary, random_partition

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


def test_von_neumann_entropy_refuses_a_matrix_that_is_not_psd():
    """diag(1, -0.5) once read -0.0.  An eigenvalue below -1e-10 is NotPSD,
    as everywhere in linalg; a round-off negative still counts as 0."""
    with pytest.raises(NotPSD):
        von_neumann_entropy(np.diag([1.0, -0.5]))
    assert von_neumann_entropy(np.diag([1.0, -1e-11])) == 0.0


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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tsallis_exact_next_to_a_singular_sigma(d):
    """rho = |psi><psi| against sigma = (1 - w) |psi><psi| + w / (d - 1)
    (I - |psi><psi|) at a > 1 reads ((1 - w)^((1 - a) / a) - 1) / (a - 1)
    to 1e-12 for w down to 1e-10.  A product of the two matrix powers,
    whose sigma^(1 - a) has entries of order 1 / w, lost about eps / w:
    2.1e-8 at w = 1e-8 and 1.4e-6 at w = 1e-10, a = 2."""
    rng = np.random.default_rng(900 + d)
    for _ in range(3):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        for w in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            sigma = (1.0 - w) * pure + w / (d - 1) * (np.eye(d) - pure)
            for a in (1.2, 1.5, 2.0):
                exact = ((1.0 - w) ** ((1.0 - a) / a) - 1.0) / (a - 1.0)
                assert abs(tsallis_relative_entropy(pure, sigma, a) - exact) <= 1e-12, (w, a)


def _mixed_rows(d, rng):
    """(rho, sigma, a, leaks) rows of one dimension, shuffled: rho of rank 1, 2
    and d against a full-rank sigma at all 7 orders, a full-rank rho against
    a pure sigma (support leaks, +inf from a = 1 on), and the pure state
    against the near-singular sigma of
    test_tsallis_exact_next_to_a_singular_sigma at a > 1."""
    rows = []
    seed = int(rng.integers(2**31))
    sigma = linalg.random_density_matrix(d, d, seed=seed)
    pure_sigma = linalg.random_density_matrix(d, 1, seed=seed + 1)
    for rank in sorted({1, 2, d}):
        rho = linalg.random_density_matrix(d, rank, seed=seed + 2 + rank)
        rows += [(rho, sigma, a, False) for a in A_GRID]
    rows += [(sigma, pure_sigma, a, True) for a in A_GRID]
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    for w in (1e-2, 1e-6, 1e-10):
        near = (1.0 - w) * pure + w / (d - 1) * (np.eye(d) - pure)
        rows += [(pure, near, a, False) for a in (1.2, 1.5, 2.0)]
    return [rows[i] for i in rng.permutation(len(rows))]


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_tsallis_stack_equals_each_call(d):
    """One stacked call over rows of every kind (all 7 orders interleaved,
    ranks 1, 2 and d, support leaks and a near-singular sigma) gives each
    row's one-state value bit for bit, +inf exactly where the support leaks
    from a = 1 on, and no RuntimeWarning."""
    rows = _mixed_rows(d, np.random.default_rng(60 + d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = tsallis_relative_entropies(*list(zip(*rows))[:3])
    assert values.shape == (len(rows),)
    for (rho, sigma, a, leaks), value in zip(rows, values):
        assert value == tsallis_relative_entropy(rho, sigma, a), (a, leaks)
        assert (value == math.inf) == (leaks and a >= 1.0)
        assert not math.isnan(value)


def test_tsallis_stack_refuses_a_bad_row_as_one_call_would():
    """A bad row among good ones raises what the one-state call raises on
    it: a NaN or infinite entry is a ValueError, a non-Hermitian or non-PSD
    matrix NonHermitian or NotPSD, an order outside (0, 2] a
    ValidationError.  States of two shapes are DimensionMismatch, and a
    count of orders that is not the count of pairs a ValidationError."""
    rho = linalg.random_density_matrix(3, 3, seed=41)
    sigma = linalg.random_density_matrix(3, 3, seed=42)
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 1e-3
    bad = [(np.where(np.eye(3) == 1, np.nan, rho), sigma, 0.5, ValueError),
           (rho, np.where(np.eye(3) == 1, np.inf, sigma), 2.0, ValueError),
           (rho, sigma + skew, 1.0, NonHermitian),
           (rho + skew, sigma, 1.5, NonHermitian),
           (np.diag([1.5, -0.5, 0.0]), sigma, 0.5, NotPSD),
           (rho, np.diag([1.5, -0.5, 0.0]), 2.0, NotPSD),
           (rho, sigma, 2.5, ValidationError),
           (rho, sigma, True, ValidationError)]
    for brho, bsigma, ba, error in bad:
        with pytest.raises(error) as one:
            tsallis_relative_entropy(brho, bsigma, ba)
        with pytest.raises(error) as stacked:
            tsallis_relative_entropies([rho, brho, rho], [sigma, bsigma, sigma], [1.0, ba, 0.5])
        assert type(stacked.value) is type(one.value)
    with pytest.raises(DimensionMismatch):
        tsallis_relative_entropies([rho], [np.eye(2) / 2], [0.5])
    with pytest.raises(ValidationError, match="2 pairs of states but 1 orders"):
        tsallis_relative_entropies([rho, rho], [sigma, sigma], [0.5])


def test_tsallis_order_validation():
    with pytest.raises(ValidationError):
        tsallis_relative_entropy(PLUS, PLUS, 0.0)
    with pytest.raises(ValidationError):
        tsallis_relative_entropy(PLUS, PLUS, 2.5)
    assert validate_order(2.0) == 2.0


def test_order_must_be_a_real_number():
    """A bool once ran silently at a = 1, a numeric string was parsed and a
    list raised a bare TypeError: each is now a ValidationError naming the
    order.  Python and numpy real scalars stay accepted."""
    rho = np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])
    deph = qubit_dephasing()
    for a in (True, False, np.bool_(True), "0.5", b"1", [0.5], np.array([0.5]), None,
              1.0 + 0j, np.complex128(0.5)):
        for call in (lambda: validate_order(a), lambda: closed_form_measure(rho, deph, a),
                     lambda: tsallis_relative_entropy(rho, rho, a)):
            with pytest.raises(ValidationError, match="order a must be a real number"):
                call()
    for a in (0.5, 2, np.float64(0.5), np.float32(0.5), np.int64(1), np.int8(2)):
        assert closed_form_measure(rho, deph, a).a == float(a)
        assert validate_order(a) == float(a) and type(validate_order(a)) is float


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


@settings(max_examples=60)
@given(st.integers(2, 12), st.booleans(), st.integers(0, 2**32 - 1))
def test_blockwise_closed_form_equals_dense(d, with_basis, seed):
    """A random partition whose blocks are all kept or all traced, one
    action drawn per map, in the computational basis or a random one, on a
    state of random rank: the closed form taken on the blocks equals the
    one on the same map given as a Kraus sum, whose image is formed
    densely."""
    rng = np.random.default_rng(seed)
    part = random_partition(d, rng, coarse=bool(rng.integers(2)))
    traced = bool(rng.integers(2))
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


def test_sweep_bits_do_not_depend_on_what_came_between():
    """A 7-order sweep of one state, each call reading the remembered
    eigensystem, ends with the same bits as the same calls with another
    state decomposed between every two of them."""
    for d in (2, 4):
        rho = linalg.random_density_matrix(d, d, seed=40 + d)
        other = linalg.random_density_matrix(d, d, seed=50 + d)
        for rdm in builtin_maps(d):
            alone = [closed_form_measure(rho, rdm, a) for a in A_GRID]
            between = []
            for a in A_GRID:
                closed_form_measure(other, rdm, a)
                between.append(closed_form_measure(rho, rdm, a))
            for x, y in zip(alone, between):
                assert (x.value, x.N, x.fixed_point_residual) == (y.value, y.N,
                                                                  y.fixed_point_residual)
                assert x.sigma_star.tobytes() == y.sigma_star.tobytes()


def test_sweep_decomposes_the_state_once(count_decompositions):
    rho = linalg.random_density_matrix(4, 4, seed=44)
    calls = count_decompositions(rho)
    for rdm in builtin_maps(4):
        for a in A_GRID:
            closed_form_measure(rho, rdm, a)
    assert calls == ["eigh"]


def test_sweep_calls_eigh_once_per_state_and_per_order_block_size(monkeypatch):
    """Every numpy eigh of a 7-order sweep on one state, counted: one, of
    the state, for dephasing, modified, mixing and an abelian twirl; for a
    Lueders map one more per order and kept block size."""
    d = 8
    rng = np.random.default_rng(46)
    coarse = MeasurementPartition(d, [[0, 3, 5, 6], [1, 7], [2, 4]])
    scalar = [dephasing_map(MeasurementPartition.singletons(d)),
              modified_coarse_map(coarse), mixing_map(d), cyclic_twirl(d)]
    blocks = [(lueders_map(coarse), 2),
              (lueders_map(MeasurementPartition(d, [[0, 1], [2, 3], [4], [5, 6, 7]])), 2),
              (lueders_map(MeasurementPartition.single_block(d)), 1)]
    calls = []
    inner = np.linalg.eigh

    def counted(M, *args, **kwargs):
        calls.append(np.shape(M))
        return inner(M, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    for rdm, sizes in [(m, 0) for m in scalar] + blocks:
        monkeypatch.setattr(linalg, "_last_spectrum", None)
        rho = linalg.random_density_matrix(d, d, seed=int(rng.integers(2**31)))
        calls.clear()
        for a in A_GRID:
            closed_form_measure(rho, rdm, a)
        assert calls[0] == (d, d)
        assert len(calls) == 1 + sizes * len(A_GRID), rdm.descriptor["type"]


def test_order_check_returns_a_float_in_range_as_it_is():
    """A Python float in (0, 2] comes back as the same object; every other
    input is checked as before."""
    for a in (0.5, 2.0, 1.0, 5e-324):
        assert validate_order(a) is a
    got = validate_order(np.float64(0.5))
    assert type(got) is float and got == 0.5
    for a in (True, "0.5", math.nan, 0.0, -0.5, 2.0000001, math.inf):
        with pytest.raises(ValidationError):
            validate_order(a)


def test_tiny_order_blames_the_order_not_the_map():
    """At a = 1e-20 the 1/a-th power of E(rho^a) underflows to zero trace.
    That is the order's fault: a ValidationError naming it, not a
    CertificationError against a certified map."""
    rho = np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])
    with pytest.raises(ValidationError, match="order a = 1e-20") as caught:
        closed_form_measure(rho, qubit_dephasing(), 1e-20)
    assert not isinstance(caught.value, CertificationError)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_tiny_order_that_overflows_blames_the_order(seed):
    """At a = 1e-20 an eigenvalue of E(rho^a) can round above 1, and its
    1/a-th power overflow: a ValidationError naming the order, with no
    numpy overflow warning (tier-1 turns RuntimeWarning into an error)
    and no infinite value."""
    rho = linalg.random_density_matrix(4, 4, seed=seed)
    with pytest.raises(ValidationError, match="order a = 1e-20 .* overflows") as caught:
        closed_form_measure(rho, dephasing_map(MeasurementPartition.singletons(4)), 1e-20)
    assert not isinstance(caught.value, CertificationError)


@pytest.mark.parametrize("seed, make_map", [
    (1, lambda: dephasing_map(MeasurementPartition.singletons(3))),
    (5, lambda: mixing_map(3)),
])
def test_tiny_order_that_rounds_rho_to_its_support_blames_the_order(seed, make_map):
    """At a = 1e-20 every eigenvalue p of these full-rank states has
    p^a == 1.0, so rho^a rounds to I and the eigenvalues of E(rho^a) that
    round to 1 survive the 1/a-th power: the value once read -1.0 (N = 2)
    under dephasing and -2.0 under mixing.  No digit of the order is left;
    a ValidationError names it."""
    rho = linalg.random_density_matrix(3, 3, seed=seed)
    with pytest.raises(ValidationError, match="order a = 1e-20 .* no digit of the order"):
        closed_form_measure(rho, make_map(), 1e-20)


def test_round_off_below_zero_is_kept():
    """A zero that reads a few eps below 0 runs the tiny-order check and
    keeps its value: a free state at a = 0.3, where p^a != 1.0, and pure
    states at a = 0.5 and at a = 1e-20, whose rho^a is their own support
    projector even when p^a == 1.0 rounds an eigenvalue below 1."""
    deph = dephasing_map(MeasurementPartition.singletons(2))
    free = deph.apply(linalg.random_density_matrix(2, 2, seed=1))
    one_block = lueders_map(MeasurementPartition(3, [[0, 1, 2]]))
    pure = linalg.random_density_matrix(3, 1, seed=2)
    assert np.linalg.eigvalsh(pure)[-1] < 1.0
    for rho, rdm, a in ((free, deph, 0.3), (pure, one_block, 0.5), (pure, one_block, 1e-20)):
        rep = closed_form_measure(rho, rdm, a)
        assert -1e-15 <= rep.value < 0.0
        assert rep.value == (rep.N - 1.0) / (a - 1.0)


def test_a1_applies_a_kraus_sum_map_to_rho_once(monkeypatch):
    """At a = 1 sigma* = E(rho) is also the image whose spectrum gives
    S(E(rho)): a map on the dense path applies E once to rho, rebuilt from
    its eigensystem as Z = V diag(p) V^dag, and the value has the same bits
    as the entropy of a second, separate E(Z)."""
    rng = np.random.default_rng(11)
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    V = Q * (np.diag(R) / np.abs(np.diag(R)))
    coarse = modified_coarse_map(MeasurementPartition(3, [[0, 2], [1]]))
    rdm = certify_rdm(QuantumChannel([V @ K @ V.conj().T for K in coarse.kraus]))
    assert not isinstance(rdm.channel, PartitionChannel)
    rho = linalg.random_density_matrix(3, 3, seed=9)
    p, U = linalg.eig_hermitian(rho)
    Z = (U * linalg.clip_spectrum(p)) @ linalg.dagger(U)
    assert np.abs(Z - rho).max() <= 1e-15
    applied = []
    inner = channels._kraus_act

    def counted(ops, A):
        applied.append("rho" if np.array_equal(A, Z) else "other")
        return inner(ops, A)
    monkeypatch.setattr(channels, "_kraus_act", counted)
    rep = closed_form_measure(rho, rdm, 1.0)
    assert applied == ["rho", "other"]  # sigma* = E(rho), then E(sigma*)
    monkeypatch.undo()
    assert rep.value == von_neumann_entropy(rdm.apply(Z)) - von_neumann_entropy(rho)


def _full_rank_state(entries):
    """G G^dagger + 1e-3 I, normalized, from a generated complex factor G."""
    d = math.isqrt(len(entries) // 2)
    G = np.reshape(entries[:d * d], (d, d)) + 1j * np.reshape(entries[d * d:], (d, d))
    P = G @ G.conj().T + 1e-3 * np.eye(d)
    P = (P + P.conj().T) / 2
    return P / np.trace(P).real


def _factor(d):
    return st.lists(st.floats(-1.0, 1.0), min_size=2 * d * d, max_size=2 * d * d)


AXIOM_TOL = 1e-9


@pytest.mark.parametrize("family", range(5))
@settings(max_examples=20)
@given(data=st.data())
def test_axioms_on_generated_states(family, data):
    """The resource-measure axioms of the axioms suite, on generated
    full-rank states at d = 2..4 for each built-in family, at orders drawn
    from the grid: faithfulness on E(tau), invariance under a free unitary,
    monotonicity under E and under a random mixture of free unitaries, and
    convexity.  Each closed form follows one on another state, so every
    call decomposes its state afresh."""
    d = data.draw(st.integers(2, 4), label="d")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    coarse, families = _builtin_families(d, rng)
    name, rdm = families[family]
    a = data.draw(st.sampled_from(A_GRID), label="a")
    rho, tau, rho2 = (_full_rank_state(data.draw(_factor(d))) for _ in range(3))
    p = data.draw(st.floats(0.0, 1.0), label="p")

    def v(state):
        return closed_form_measure(state, rdm, a).value

    assert abs(v(rdm.apply(tau))) <= AXIOM_TOL
    v_rho = v(rho)
    U = _free_unitary(name, d, rng, coarse)
    assert abs(v(U @ rho @ U.conj().T) - v_rho) <= AXIOM_TOL
    assert v(rdm.apply(rho)) <= v_rho + AXIOM_TOL
    mixes = [_free_unitary(name, d, rng, coarse) for _ in range(3)]
    probs = rng.dirichlet(np.ones(len(mixes)))
    assert v(sum(q * (W @ rho @ W.conj().T) for q, W in zip(probs, mixes))) <= v_rho + AXIOM_TOL
    assert v(p * rho + (1 - p) * rho2) <= p * v_rho + (1 - p) * v(rho2) + AXIOM_TOL


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


@settings(max_examples=40)
@given(st.integers(2, 4), st.floats(0.05, 2.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_report_json_round_trip_every_family(d, a, infinite, seed):
    """The report of every built-in map on a state of random rank comes back
    from the wire format, through JSON text, field for field; an infinite
    value travels as the "inf" literal."""
    rng = np.random.default_rng(seed)
    _, families = _builtin_families(d, rng)
    rho = linalg.random_density_matrix(d, int(rng.integers(1, d + 1)), seed=seed % 2**31)
    for _, rdm in families:
        rep = closed_form_measure(rho, rdm, a)
        if infinite:
            rep.value = math.inf
        payload = json.loads(json.dumps(report_to_json(rep)))
        assert (payload["value"] == "inf") == infinite
        back = report_from_json(payload)
        assert back.value == rep.value
        assert back.a == rep.a
        assert back.N == rep.N
        assert back.fixed_point_residual == rep.fixed_point_residual
        assert np.array_equal(back.sigma_star, rep.sigma_star)
