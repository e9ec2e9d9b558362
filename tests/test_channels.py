import tracemalloc

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
    cyclic_shift,
    cyclic_twirl,
    dephasing_map,
    lueders_map,
    map_from_json,
    map_to_json,
    mixing_map,
    modified_coarse_map,
    twirling_map,
)
from rdmap.errors import (
    DimensionMismatch,
    NonHermitian,
    NotAGroup,
    NotFineGrained,
    NotIdempotent,
    NotPSD,
    NotUnitary,
    ValidationError,
)
from rdmap.measures import von_neumann_entropy
from rdmap.verify import random_partition

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def superop_distance(A, B) -> float:
    return float(np.linalg.norm(A.superop - B.superop))


# ---------------------------------------------------------------- partitions

def test_partition_validates_cover():
    p = MeasurementPartition(3, [[2], [0, 1]])
    assert p.blocks == ((2,), (0, 1))
    assert p.degeneracies == (1, 2)
    with pytest.raises(ValidationError):
        MeasurementPartition(3, [[0, 1], [1, 2]])
    with pytest.raises(ValidationError):
        MeasurementPartition(3, [[0], [1]])
    with pytest.raises(ValidationError):
        MeasurementPartition(2, [[0], [], [1]])


def test_partition_refuses_huge_dim_without_building_it():
    # an index list of 10^12 entries cannot be built; the count alone refuses it
    with pytest.raises(ValidationError):
        MeasurementPartition(10**12, [[0]])
    # nor can a 10^12 x 10^12 matrix, so a partition drawn from the dim alone
    # is refused before its index list is built (list(range(10**12)), which
    # the check replaces, fails at once too, with a bare MemoryError)
    for build in (MeasurementPartition.single_block, mixing_map,
                  lambda d: map_from_json({"type": "mixing", "dim": d})):
        with pytest.raises(ValidationError):
            build(10**12)


def test_partition_helpers():
    assert MeasurementPartition.singletons(3).is_fine_grained()
    assert MeasurementPartition.single_block(3).degeneracies == (3,)
    L = MeasurementPartition(3, [[0, 1], [2]]).projectors()
    assert np.allclose(L[0], np.diag([1.0, 1.0, 0.0]))
    assert np.allclose(L[1], np.diag([0.0, 0.0, 1.0]))


# ------------------------------------------------------------------ channels

def test_apply_identity_channel():
    ident = QuantumChannel([np.eye(2)])
    rho = linalg.random_density_matrix(2, 2, seed=0)
    assert np.allclose(ident.apply(rho), rho, atol=1e-14)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dephasing_map(MeasurementPartition.singletons(2)).apply(np.eye(3) / 3)


def test_apply_output_is_a_density_matrix():
    for seed in range(5):
        rho = linalg.random_density_matrix(3, 3, seed=seed)
        for rdm in (dephasing_map(MeasurementPartition.singletons(3)),
                    lueders_map(MeasurementPartition(3, [[0, 1], [2]])),
                    cyclic_twirl(3), mixing_map(3)):
            linalg.validate_density(rdm.apply(rho))


def test_dephasing_erases_off_diagonals():
    deph = dephasing_map(MeasurementPartition.singletons(2))
    out = deph.apply(np.full((2, 2), 0.5, dtype=complex))
    assert np.allclose(out, np.eye(2) / 2, atol=1e-14)
    diag = np.diag([0.7, 0.3]).astype(complex)
    assert np.allclose(deph.apply(diag), diag, atol=1e-14)


def test_dephasing_requires_singletons():
    with pytest.raises(NotFineGrained):
        dephasing_map(MeasurementPartition(3, [[0, 1], [2]]))


def test_twirl_ix_averages():
    tw = twirling_map([np.eye(2), X])
    out = tw.apply(np.diag([1.0, 0.0]).astype(complex))
    assert np.allclose(out, np.eye(2) / 2, atol=1e-14)


def test_twirl_iz_is_dephasing():
    # same channel in a different Kraus presentation
    tw = twirling_map([np.eye(2), Z])
    deph = dephasing_map(MeasurementPartition.singletons(2))
    assert superop_distance(tw, deph) <= 1e-10


def test_twirl_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        twirling_map([np.eye(2), np.diag([1.0, 0.5])])


def test_twirl_rejects_non_group():
    # {I, C} with C the 3-cycle: missing C^2
    C = np.roll(np.eye(3), 1, axis=0)
    with pytest.raises(NotAGroup):
        twirling_map([np.eye(3), C])


def test_twirl_accepts_group_up_to_phase():
    # phases are invisible at the channel level
    tw = twirling_map([np.eye(2), 1j * Z])
    deph = dephasing_map(MeasurementPartition.singletons(2))
    assert superop_distance(tw, deph) <= 1e-10


def test_lueders_keeps_blocks():
    part = MeasurementPartition(3, [[0, 1], [2]])
    out = lueders_map(part).apply(np.full((3, 3), 1 / 3, dtype=complex))
    want = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3
    assert np.allclose(out, want, atol=1e-14)


def test_lueders_single_block_is_identity():
    lued = lueders_map(MeasurementPartition.single_block(3))
    rho = linalg.random_density_matrix(3, 3, seed=1)
    assert np.allclose(lued.apply(rho), rho, atol=1e-14)


def test_lueders_singletons_equals_dephasing():
    part = MeasurementPartition.singletons(3)
    assert superop_distance(lueders_map(part), dephasing_map(part)) <= 1e-10


def test_modified_map_action():
    part = MeasurementPartition(3, [[0, 1], [2]])
    out = modified_coarse_map(part).apply(np.diag([0.5, 0.3, 0.2]).astype(complex))
    assert np.allclose(out, np.diag([0.4, 0.4, 0.2]), atol=1e-14)


def test_modified_map_degenerate_limits():
    # singletons: the fine measurement; one block: complete mixing
    fine = MeasurementPartition.singletons(3)
    assert superop_distance(modified_coarse_map(fine), dephasing_map(fine)) <= 1e-10
    whole = MeasurementPartition.single_block(3)
    assert superop_distance(modified_coarse_map(whole), mixing_map(3)) <= 1e-10


def test_modified_image_inside_lueders_image():
    part = MeasurementPartition(4, [[0, 2], [1, 3]])
    lued, mod = lueders_map(part), modified_coarse_map(part)
    for seed in range(5):
        rho = linalg.random_density_matrix(4, 4, seed=seed)
        out = mod.apply(rho)
        assert linalg.frobenius(lued.apply(out) - out) <= 1e-10


def test_mixing_map_action():
    mix = mixing_map(2)
    rho = linalg.random_density_matrix(2, 2, seed=4)
    assert np.allclose(mix.apply(rho), np.eye(2) / 2, atol=1e-14)
    assert np.allclose(mix.apply(mix.apply(rho)), mix.apply(rho), atol=1e-14)
    assert np.allclose(mix.apply(np.eye(2, dtype=complex)), np.eye(2), atol=1e-14)


# ------------------------------------------------------------- certification

def test_certify_rejects_depolarizing():
    # rho -> 0.5 rho + 0.5 I/2, trace preserving but not idempotent
    kraus = [np.sqrt(0.625) * np.eye(2), np.sqrt(0.125) * X,
             np.sqrt(0.125) * 1j * X @ Z, np.sqrt(0.125) * Z]
    with pytest.raises(NotIdempotent):
        certify_rdm(QuantumChannel(kraus))


def test_certify_rejects_non_trace_preserving():
    with pytest.raises(ValidationError):
        certify_rdm(QuantumChannel([0.5 * np.eye(2)]))


def test_certified_maps_carry_residuals():
    rdm = dephasing_map(MeasurementPartition.singletons(2))
    assert rdm.idempotency_residual <= 1e-9
    assert rdm.unitality_residual() <= 1e-10


def test_analytic_functions_stay_in_fixed_set():
    # f(sigma) in Fix(E) for sigma in Fix(E), f a spectral power
    for name, rdm in (("deph", dephasing_map(MeasurementPartition.singletons(3))),
                      ("lued", lueders_map(MeasurementPartition(3, [[0, 1], [2]]))),
                      ("mod", modified_coarse_map(MeasurementPartition(3, [[0, 1], [2]]))),
                      ("twirl", cyclic_twirl(3)),
                      ("mix", mixing_map(3))):
        for seed in range(3):
            sigma = rdm.apply(linalg.random_density_matrix(3, 3, seed=seed))
            for p in (0.5, 2.0):
                f = linalg.matrix_power(sigma, p)
                assert linalg.frobenius(rdm.apply(f) - f) <= 1e-8, name


# ----------------------------------------------------------- partition maps

def random_unitary(d, rng):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def conjugated(V, ops):
    return [V @ K @ V.conj().T for K in ops]


def twirl_kraus(group):
    return [U / np.sqrt(len(group)) for U in group]


def kraus_json(ops):
    return {"type": "kraus", "dim": len(ops[0]),
            "operators": [linalg.matrix_to_json(K) for K in ops]}


def test_partition_maps_match_kraus_sum_reference():
    """Mask-and-average apply, the superoperator view and the certification
    residuals equal those of the same map certified as a Kraus sum.  Abelian
    twirls and commuting Kraus lists in a random basis, built in their joint
    eigenbasis, match their Kraus sums, and their reported residuals bound
    the Kraus sums' from above."""
    rng = np.random.default_rng(5)
    for d in range(2, 9):
        for trial in range(3):
            part = random_partition(d, rng)
            mixed = PartitionChannel(part, rng.integers(0, 2, len(part.blocks)))
            coarse = random_partition(d, rng, coarse=True)
            stack = np.stack([[linalg.random_hermitian(d, seed=100 * d + 10 * trial + 3 * i + j)
                               for j in range(3)] for i in range(2)])
            for rdm in (certify_rdm(mixed),
                        dephasing_map(MeasurementPartition.singletons(d)),
                        lueders_map(coarse), modified_coarse_map(coarse), mixing_map(d)):
                ref = certify_rdm(QuantumChannel(rdm.kraus))
                want = np.array([[ref.apply(X) for X in row] for row in stack])
                assert np.abs(rdm.apply(stack) - want).max() <= 1e-12
                assert float(np.linalg.norm(rdm.superop - ref.superop)) <= 1e-12
                assert abs(rdm.idempotency_residual - ref.idempotency_residual) <= 1e-12
                assert abs(rdm.unitality_residual() - ref.unitality_residual()) <= 1e-12
                assert abs(rdm.trace_preserving_residual()
                           - ref.trace_preserving_residual()) <= 1e-12

            V = random_unitary(d, rng)
            signs = rng.choice([-1.0, 1.0], size=(2, d))
            cyclic = conjugated(V, [cyclic_shift(d, k) for k in range(d)])
            klein = conjugated(V, [np.diag(signs[0] ** i * signs[1] ** j)
                                   for i in (0, 1) for j in (0, 1)])
            dephasing = conjugated(V, MeasurementPartition.singletons(d).projectors())
            lueders = conjugated(V, coarse.projectors())
            for kraus, rdm in ((twirl_kraus(cyclic), twirling_map(cyclic)),
                               (twirl_kraus(klein), twirling_map(klein)),
                               (dephasing, map_from_json(kraus_json(dephasing))),
                               (lueders, map_from_json(kraus_json(lueders)))):
                assert isinstance(rdm.channel, PartitionChannel)
                ref = certify_rdm(QuantumChannel(kraus))
                want = np.array([[ref.apply(X) for X in row] for row in stack])
                assert np.abs(rdm.apply(stack) - want).max() <= 1e-12
                assert float(np.linalg.norm(rdm.superop - ref.superop)) <= 1e-12
                assert rdm.idempotency_residual >= ref.idempotency_residual - 1e-15
                assert rdm.unitality_residual() >= ref.unitality_residual() - 1e-15
                assert rdm.trace_preserving_residual() >= ref.trace_preserving_residual() - 1e-15


def test_partition_map_certifies_and_applies_without_superoperator():
    # a d^2 x d^2 complex array at d = 32 is 16 MiB
    d = 32
    for build in (lambda: mixing_map(d),
                  lambda: modified_coarse_map(MeasurementPartition(d, [range(16), range(16, d)])),
                  lambda: cyclic_twirl(d)):
        tracemalloc.start()
        try:
            rdm = build()
            rdm.apply(np.eye(d) / d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * d**4 / 8
        assert rdm.channel._superop is None and rdm.channel._kraus is None


def test_non_abelian_twirl_stays_a_kraus_sum():
    # the Pauli group twirl is complete mixing; its elements do not commute
    Y = 1j * X @ Z
    tw = twirling_map([np.eye(2), X, Y, Z])
    assert not isinstance(tw.channel, PartitionChannel)
    assert superop_distance(tw, mixing_map(2)) <= 1e-12


def test_non_commuting_kraus_input_still_certifies():
    rng = np.random.default_rng(11)
    V = random_unitary(3, rng)
    part = MeasurementPartition(3, [[0, 2], [1]])
    ops = conjugated(V, modified_coarse_map(part).kraus)
    rdm = map_from_json(kraus_json(ops))
    assert not isinstance(rdm.channel, PartitionChannel)
    assert superop_distance(rdm, certify_rdm(QuantumChannel(ops))) <= 1e-12


def test_commuting_set_that_is_not_a_group():
    # the rows of a non-Fourier 4x4 complex Hadamard matrix: the twirl over
    # their diagonal unitaries is complete dephasing, idempotent, but the set
    # is not closed under products
    e = np.exp(0.3j)
    rows = np.array([[1, 1, 1, 1], [1, 1j * e, -1, -1j * e],
                     [1, -1, 1, -1], [1, -1j * e, -1, 1j * e]])
    V = random_unitary(4, np.random.default_rng(12))
    with pytest.raises(NotAGroup):
        twirling_map(conjugated(V, [np.diag(r) for r in rows]))


def test_commuting_kraus_that_is_not_idempotent():
    # partial dephasing rho -> 0.7 rho + 0.3 Z rho Z in a random basis
    V = random_unitary(2, np.random.default_rng(13))
    ops = conjugated(V, [np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * Z])
    with pytest.raises(NotIdempotent):
        map_from_json(kraus_json(ops))


A_GRID = (0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0)


def spectral_maps(d, rng):
    """Every built-in family at d, a coarse partition of random blocks, and
    Lueders projectors in a random basis given as commuting Kraus input:
    partition maps without a basis and with one (the cyclic twirl's, or the
    Kraus operators' joint eigenbasis, whose blocks are not singletons)."""
    coarse = random_partition(d, rng, coarse=True)
    V = random_unitary(d, rng)
    return [dephasing_map(MeasurementPartition.singletons(d)), lueders_map(coarse),
            modified_coarse_map(coarse), cyclic_twirl(d), mixing_map(d),
            map_from_json(kraus_json(conjugated(V, coarse.projectors())))]


def assert_spectral_image_is_dense(rdm, rho):
    """spectral_image against E(Y) formed densely: matrix_power of it for
    every order's power 1/a of Y = rho^a, and its spectrum and entropy."""
    for a in A_GRID:
        if a == 1.0:
            got = rdm.spectral_image(rho)
            want = linalg.eig_hermitian(rdm.apply(rho)).values
            assert got.shape == want.shape
            assert np.abs(np.sort(got) - want).max() <= 1e-12
            assert abs(von_neumann_entropy(np.diag(got))
                       - von_neumann_entropy(rdm.apply(rho))) <= 1e-12
        else:
            Y = linalg.matrix_power(rho, a)
            want = linalg.matrix_power(rdm.apply(Y), 1.0 / a)
            assert np.abs(rdm.spectral_image(Y, 1.0 / a) - want).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32, 64])
def test_spectral_image_matches_dense_power(d):
    rng = np.random.default_rng(100 + d)
    for rdm in spectral_maps(d, rng):
        assert isinstance(rdm.channel, PartitionChannel)
        for rank in sorted({d, max(1, d // 2), 1}):
            rho = linalg.random_density_matrix(d, rank, seed=int(rng.integers(2**31)))
            assert_spectral_image_is_dense(rdm, rho)


def test_spectral_image_keeps_the_dense_checks():
    """ValueError on non-finite input, NonHermitian when E(Y) is not
    Hermitian and NotPSD when it is genuinely negative, on the blocks as on
    the dense image; a non-Hermitian part that E removes is no error on
    either path."""
    for d in (2, 4, 8):
        rng = np.random.default_rng(20 + d)
        rho = linalg.random_density_matrix(d, d, seed=d)
        for rdm in spectral_maps(d, rng):
            for E in (rdm, QuantumChannel(rdm.kraus)):
                for p in (None, 0.5):
                    with pytest.raises(ValueError):
                        E.spectral_image(np.full((d, d), np.nan), p)
                    with pytest.raises(NonHermitian):
                        E.spectral_image(rho + 1e-6j * np.eye(d), p)
                with pytest.raises(NotPSD):
                    E.spectral_image(-np.eye(d) / d, 0.5)
                assert np.abs(E.spectral_image(-np.eye(d) / d) + 1.0 / d).max() <= 1e-12
            with pytest.raises(DimensionMismatch):
                rdm.spectral_image(np.eye(d + 1), 0.5)
        # a real antisymmetric part has a zero diagonal, which dephasing keeps
        skew = rng.standard_normal((d, d))
        lost = rho + 1e-6 * (skew - skew.T)
        deph = dephasing_map(MeasurementPartition.singletons(d))
        want = QuantumChannel(deph.kraus).spectral_image(lost, 0.5)
        assert np.abs(deph.spectral_image(lost, 0.5) - want).max() <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 8), st.lists(st.integers(2, 4), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_abelian_twirl_json_round_trip(d, orders, seed):
    """A product of cyclic groups, each generated by a diagonal unitary of
    random m-th roots of unity, in a random basis: built from JSON it is a
    partition map, map_to_json gives back its descriptor, and it matches its
    Kraus sum."""
    rng = np.random.default_rng(seed)
    V = random_unitary(d, rng)
    group = [np.eye(d, dtype=complex)]
    for m in orders:
        g = np.diag(np.exp(2j * np.pi * rng.integers(0, m, size=d) / m))
        group = [U @ np.linalg.matrix_power(g, k) for U in group for k in range(m)]
    group = conjugated(V, group)
    obj = {"type": "twirl", "dim": d, "unitaries": [linalg.matrix_to_json(U) for U in group]}
    rdm = map_from_json(obj)
    assert isinstance(rdm.channel, PartitionChannel)
    assert map_to_json(rdm) == obj
    again = map_from_json(map_to_json(rdm))
    ref = certify_rdm(QuantumChannel(twirl_kraus(group)))
    X_ = linalg.random_hermitian(d, seed=seed % 2**31)
    assert np.abs(again.apply(X_) - ref.apply(X_)).max() <= 1e-12
    assert float(np.linalg.norm(again.superop - ref.superop)) <= 1e-12
    assert again.idempotency_residual >= ref.idempotency_residual - 1e-15
    assert again.unitality_residual() >= ref.unitality_residual() - 1e-15
    assert again.trace_preserving_residual() >= ref.trace_preserving_residual() - 1e-15


def test_partition_channel_needs_one_action_per_block():
    with pytest.raises(ValidationError):
        PartitionChannel(MeasurementPartition(3, [[0, 1], [2]]), [True])


# ----------------------------------------------------------------- adjoints

def test_adjoint_of_unitary_conjugation():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    U = np.linalg.qr(G)[0]
    chan = QuantumChannel([U])
    rho = linalg.random_density_matrix(3, 3, seed=2)
    back = chan.adjoint().apply(chan.apply(rho))
    assert np.allclose(back, rho, atol=1e-12)


def test_self_adjoint_builtins():
    for rdm in (dephasing_map(MeasurementPartition.singletons(2)), mixing_map(2)):
        assert float(np.linalg.norm(rdm.adjoint().superop - rdm.superop)) <= 1e-12


def test_adjoint_pairing_identity():
    maps = [dephasing_map(MeasurementPartition.singletons(3)),
            lueders_map(MeasurementPartition(3, [[0, 2], [1]])),
            modified_coarse_map(MeasurementPartition(3, [[0, 2], [1]])),
            cyclic_twirl(3), mixing_map(3)]
    for rdm in maps:
        adj = rdm.adjoint()
        for seed in range(10):
            Xh = linalg.random_hermitian(3, seed=2 * seed)
            Yh = linalg.random_hermitian(3, seed=2 * seed + 1)
            lhs = np.trace(adj.apply(Xh) @ Yh)
            rhs = np.trace(Xh @ rdm.apply(Yh))
            bound = 1e-9 * linalg.frobenius(Xh) * linalg.frobenius(Yh)
            assert abs(lhs - rhs) <= bound


def test_fixed_point_duality():
    # Fix(E^dag) contains the image of E for these self-adjoint families
    for rdm in (dephasing_map(MeasurementPartition.singletons(3)),
                cyclic_twirl(3), mixing_map(3)):
        adj = rdm.adjoint()
        for seed in range(5):
            sigma = rdm.apply(linalg.random_density_matrix(3, 3, seed=seed))
            assert linalg.frobenius(adj.apply(sigma) - sigma) <= 1e-8


# -------------------------------------------------------------- composition

def test_compose_with_identity():
    ident = QuantumChannel([np.eye(3)])
    lued = lueders_map(MeasurementPartition(3, [[0, 1], [2]]))
    combo = lued.compose(ident)
    assert float(np.linalg.norm(combo.superop - lued.superop)) <= 1e-12


def test_compose_fine_with_modified():
    part = MeasurementPartition(4, [[0, 1], [2, 3]])
    fine = dephasing_map(MeasurementPartition.singletons(4))
    mod = modified_coarse_map(part)
    assert float(np.linalg.norm(fine.compose(mod).superop - mod.superop)) <= 1e-10
    assert float(np.linalg.norm(mod.compose(fine).superop - mod.superop)) <= 1e-10


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mixing_map(2).compose(mixing_map(3))


# --------------------------------------------------------------------- JSON

def test_map_json_round_trip_partition_types():
    for obj in ({"type": "dephasing", "dim": 2, "partition": [[0], [1]]},
                {"type": "lueders", "dim": 3, "partition": [[0, 1], [2]]},
                {"type": "modified", "dim": 3, "partition": [[2], [0, 1]]},
                {"type": "mixing", "dim": 4}):
        rdm = map_from_json(obj)
        again = map_from_json(map_to_json(rdm))
        assert float(np.linalg.norm(again.superop - rdm.superop)) <= 1e-12


def test_map_json_twirl_and_kraus():
    tw = map_from_json({"type": "twirl", "dim": 2,
                        "unitaries": [linalg.matrix_to_json(np.eye(2)),
                                      linalg.matrix_to_json(Z)]})
    assert superop_distance(tw, dephasing_map(MeasurementPartition.singletons(2))) <= 1e-10
    proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    kr = map_from_json({"type": "kraus", "dim": 2,
                        "operators": [linalg.matrix_to_json(K) for K in proj]})
    assert superop_distance(kr, tw) <= 1e-10
    assert map_to_json(kr)["type"] == "kraus"


def test_map_json_declared_dim_must_match_operators():
    ops = [linalg.matrix_to_json(np.eye(2)), linalg.matrix_to_json(Z)]
    with pytest.raises(DimensionMismatch):
        map_from_json({"type": "kraus", "dim": 3, "operators": ops})
    with pytest.raises(DimensionMismatch):
        map_from_json({"type": "twirl", "dim": 3, "unitaries": ops})


def test_map_json_malformed():
    with pytest.raises(ValidationError):
        map_from_json({"type": "dephasing", "dim": 2})
    with pytest.raises(ValidationError):
        map_from_json({"type": "nosuch", "dim": 2})
    with pytest.raises(ValidationError):
        map_from_json({"dim": 2})
