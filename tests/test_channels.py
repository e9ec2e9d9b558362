import json
import sys
import threading
import tracemalloc

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
    NotUnital,
    NotUnitary,
    ValidationError,
)
from rdmap.measures import closed_form_measure, von_neumann_entropy
from rdmap.verify import compose_residual, random_partition, suite_theorem2

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


def test_certify_refuses_non_unital_maps():
    # {|0><0|, |0><1|} is trace preserving and idempotent (every state goes
    # to |0><0|), but E(I) = 2|0><0|
    ops = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    with pytest.raises(NotUnital):
        certify_rdm(QuantumChannel(ops))


def test_non_finite_operators_never_certify():
    # both once returned certified maps with NaN residuals: NaN > tol is
    # false, so NaN passed every gate
    with pytest.raises(ValidationError, match="Kraus operators: non-finite"):
        certify_rdm(QuantumChannel([np.full((2, 2), np.nan)]))
    with pytest.raises(ValidationError, match="basis: non-finite"):
        certify_rdm(PartitionChannel(MeasurementPartition.singletons(2), [False, False],
                                     np.full((2, 2), np.nan)))


@pytest.mark.parametrize("method, error", [
    ("trace_preserving_residual", ValidationError),
    ("_idempotency_residual", NotIdempotent),
    ("unitality_residual", NotUnital),
])
def test_a_nan_residual_fails_its_gate(method, error):
    class NaNResidual(QuantumChannel):
        pass
    setattr(NaNResidual, method, lambda self: float("nan"))
    with pytest.raises(error, match="nan"):
        certify_rdm(NaNResidual([np.eye(2)]))


def test_a_nan_unitarity_residual_fails_its_gate():
    # U^dag U overflows to inf - inf = NaN; the parent went on to the
    # closure check and failed there, with NotAGroup
    U = 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotUnitary, match="nan"):
        twirling_map([np.eye(2), U])


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


@pytest.mark.parametrize("d, n", [(2, 4), (4, 16), (8, 64), (16, 96), (32, 20)])
def test_kraus_sum_in_chunks_matches_one_product_per_operator(d, n):
    """sum_i K_i A K_i^dag, for one matrix and a (2, 3, d, d) stack, and
    sum_i K_i^dag K_i, formed over chunks of the operator stack, equal one
    pair of products per operator to 1e-14 relative, on either side of a
    chunk boundary (32 operators at d = 16, 8 at d = 32)."""
    rng = np.random.default_rng(90 + d)
    K = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    for A in (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
              rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))):
        want = sum(k @ A @ k.conj().T for k in K)
        got = channels._kraus_act(K, A)
        assert got.shape == A.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    tp = sum(k.conj().T @ k for k in K) - np.eye(d)
    assert abs(channels._kraus_tp_residual(K) - np.linalg.norm(tp)) <= 1e-14 * np.linalg.norm(tp)


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


def test_apply_to_a_stack_is_apply_to_each_matrix_alone():
    """The image of a matrix does not depend on the stack it comes in: for
    every family at d = 2..8, in the computational basis and in a random
    one, and for a map that stays a Kraus sum, apply on a stack of five
    equals apply on each matrix alone and on each one-matrix stack, bit for
    bit.  The block average of the traced diagonal once took one (5, k) x
    (k, k) product, whose rows round differently from a (1, k) x (k, k)
    one."""
    rng = np.random.default_rng(23)
    Y = 1j * X @ Z
    maps = [twirling_map([np.eye(2), X, Y, Z])]
    for d in range(2, 9):
        coarse = random_partition(d, rng, coarse=True)
        part = random_partition(d, rng)
        traced = rng.integers(0, 2, len(part.blocks))
        W = random_unitary(d, rng)
        maps += [dephasing_map(MeasurementPartition.singletons(d)), lueders_map(coarse),
                 modified_coarse_map(coarse), cyclic_twirl(d), mixing_map(d),
                 certify_rdm(PartitionChannel(part, traced)),
                 certify_rdm(PartitionChannel(part, traced, W)),
                 certify_rdm(PartitionChannel(coarse, [True] * len(coarse.blocks), W))]
    assert not isinstance(maps[0].channel, PartitionChannel)
    for rdm in maps:
        d = rdm.dim
        stack = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        image = rdm.apply(stack)
        for j in range(len(stack)):
            assert np.array_equal(image[j], rdm.apply(stack[j])), (d, j)
            assert np.array_equal(image[j], rdm.apply(stack[j:j + 1])[0]), (d, j)


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


def clifford_group():
    """The 24 single-qubit Clifford unitaries, up to phase, generated by
    the Hadamard and phase gates."""
    gens = (np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.diag([1, 1j]))
    group = [np.eye(2, dtype=complex)]
    for U in group:  # grows while it is read: a breadth-first closure
        for G in gens:
            V = G @ U
            if all(abs(abs(np.vdot(W, V)) - 2) > 1e-9 for W in group):
                group.append(V)
    return group


def test_kraus_is_one_read_only_stack_on_every_route():
    Y = 1j * X @ Z
    V = random_unitary(3, np.random.default_rng(14))
    ops = conjugated(V, modified_coarse_map(MeasurementPartition(3, [[0, 2], [1]])).kraus)
    kraus_input = map_from_json(kraus_json(ops))
    assert not isinstance(kraus_input.channel, PartitionChannel)
    routes = {"list": QuantumChannel(ops), "stack": QuantumChannel(np.stack(ops)),
              "partition view": lueders_map(MeasurementPartition(3, [[0, 1], [2]])),
              "Pauli twirl": twirling_map([np.eye(2), X, Y, Z]), "Kraus input": kraus_input}
    for name, channel in routes.items():
        K = channel.kraus
        assert type(K) is np.ndarray and K.dtype == complex, name
        assert K.ndim == 3 and K.shape[1:] == (channel.dim, channel.dim), name
        assert not K.flags.writeable, name
        assert QuantumChannel(K).kraus is K, name  # checked, not copied
    assert len(routes["Pauli twirl"].kraus) == 4
    assert kraus_input.kraus is kraus_input.descriptor["operators"]


def test_clifford_twirl_is_complete_mixing():
    group = clifford_group()
    assert len(group) == 24
    tw = twirling_map(group)
    assert not isinstance(tw.channel, PartitionChannel)
    assert superop_distance(tw, mixing_map(2)) <= 1e-12


def test_non_abelian_set_that_is_not_a_group(monkeypatch):
    # X Z is not in {I, X, Z} up to phase; X and Z do not commute, so the
    # closure check reads the matrices themselves
    tables = []
    inner = channels._check_closure
    monkeypatch.setattr(channels, "_check_closure",
                        lambda table, err, w: tables.append(table.shape) or inner(table, err, w))
    with pytest.raises(NotAGroup):
        twirling_map([np.eye(2), X, Z])
    assert tables == [(3, 1, 2, 2)]


@pytest.mark.parametrize("build, field", [
    (QuantumChannel, "Kraus operators"),
    (twirling_map, "unitaries"),
    (lambda ops: map_from_json({"type": "kraus", "dim": 2, "operators": ops}), "operators"),
    (lambda ops: map_from_json({"type": "twirl", "dim": 2, "unitaries": ops}), "unitaries"),
])
def test_an_empty_operator_list_names_its_field(build, field):
    with pytest.raises(ValidationError, match=f"^{field}: expected at least one"):
        build([])


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


def spectral_channels(d, rng):
    """spectral_maps, then the same Lueders projectors in a random basis as
    a plain Kraus-sum QuantumChannel, whose image is formed densely."""
    coarse = random_partition(d, rng, coarse=True)
    kraus_sum = QuantumChannel(conjugated(random_unitary(d, rng), coarse.projectors()))
    return spectral_maps(d, rng) + [kraus_sum]


def eigensystem(rho):
    """rho's eigenvectors and clipped eigenvalues, as closed_form_measure
    reads them off linalg.density_spectrum."""
    values, V = linalg.eig_hermitian(rho)
    return V, linalg.clip_spectrum(values)


def closed_form_weights(p):
    """(a, w) for every order: the weights of rho^a under matrix_power's
    round-off rule, and rho's own eigenvalues at a = 1."""
    return [(a, p if a == 1.0 else linalg.power_values(p, a)) for a in A_GRID]


def assert_spectral_image_is_dense(E, V, w, p):
    """Both parts of spectral_image(V, w, p) against E(Z) formed densely,
    Z = V diag(w) V^dag: the values, in any order and clipped, against eigh
    of E(Z), with the entropy they give at p = 1, and the power against
    matrix_power of E(Z)."""
    dense = E.apply((V * w) @ linalg.dagger(V))
    values, power = E.spectral_image(V, w, p)
    want = linalg.eig_hermitian(dense).values
    assert values.shape == want.shape and values.min() >= 0.0
    assert np.abs(np.sort(values) - want).max() <= 1e-12
    assert np.abs(power - linalg.matrix_power(dense, p)).max() <= 1e-12
    if p == 1.0:
        assert abs(von_neumann_entropy(np.diag(values)) - von_neumann_entropy(dense)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32, 64])
def test_spectral_image_matches_dense_power(d):
    """Every family, Kraus input in a basis and a Kraus-sum channel, on
    states of rank 1, d/2 and d, at every order's weights and at weights
    with exact zeros."""
    rng = np.random.default_rng(100 + d)
    maps = spectral_channels(d, rng)
    assert all(isinstance(E.channel, PartitionChannel) for E in maps[:-1])
    assert type(maps[-1]) is QuantumChannel
    for E in maps:
        for rank in sorted({d, max(1, d // 2), 1}):
            V, p = eigensystem(linalg.random_density_matrix(
                d, rank, seed=int(rng.integers(2**31))))
            for a, w in closed_form_weights(p):
                assert_spectral_image_is_dense(E, V, w, 1.0 / a)
            zeros = p.copy()
            zeros[rng.permutation(d)[:max(1, d // 2)]] = 0.0
            for q in (1.0, 0.5, 2.0):
                assert_spectral_image_is_dense(E, V, zeros, q)


def test_spectral_image_keeps_the_dense_checks():
    """On the block path as on the dense one: ValueError for a non-finite
    entry of V or w, or complex weights; NotPSD for a weight below -1e-10,
    while one above it counts as 0; DimensionMismatch for a V or w of the
    wrong size."""
    for d in (2, 4, 8):
        rng = np.random.default_rng(20 + d)
        V, p = eigensystem(linalg.random_density_matrix(d, d, seed=d))
        for E in spectral_channels(d, rng):
            for q in (1.0, 0.5):
                bad = V.copy()
                bad[-1, 0] = np.nan
                with pytest.raises(ValueError):
                    E.spectral_image(bad, p, q)
                for x in (np.nan, np.inf):
                    with pytest.raises(ValueError):
                        E.spectral_image(V, np.where(np.arange(d) == 0, x, p), q)
                with pytest.raises(ValueError):
                    E.spectral_image(V, p + 0j, q)
                negative = p.copy()
                negative[0] = -1e-9
                with pytest.raises(NotPSD):
                    E.spectral_image(V, negative, q)
                negative[0] = -1e-12
                zero = p.copy()
                zero[0] = 0.0
                for got, want in zip(E.spectral_image(V, negative, q),
                                     E.spectral_image(V, zero, q)):
                    assert np.array_equal(got, want)
            for args in ((np.eye(d + 1), np.ones(d + 1)), (V, np.ones(d + 1)),
                         (V[:, :-1], p[:-1]), (V[:, :-1], p), (V, p[:, None])):
                with pytest.raises(DimensionMismatch):
                    E.spectral_image(*args, 0.5)


def test_closed_form_refuses_a_non_hermitian_state_on_every_map():
    """Z = V diag(w) V^dag is Hermitian by construction, so NonHermitian
    now comes from the state's own check, on every map and order."""
    for d in (2, 4, 8):
        rng = np.random.default_rng(40 + d)
        rho = linalg.random_density_matrix(d, d, seed=d)
        maps = spectral_channels(d, rng)
        maps[-1] = certify_rdm(maps[-1])
        for rdm in maps:
            for a in (0.5, 1.0, 2.0):
                with pytest.raises(NonHermitian):
                    closed_form_measure(rho + 1e-6j * np.eye(d), rdm, a)


def test_closed_form_on_partition_maps_never_forms_rho_a(monkeypatch):
    """At a != 1 a partition map reads E(rho^a) off rho's eigensystem, and
    rho^a is never formed as a d x d matrix."""
    def refuse(*_):
        raise AssertionError("linalg.spectral_power called")
    for d in (2, 3, 4, 8):
        rng = np.random.default_rng(60 + d)
        rho = linalg.random_density_matrix(d, d, seed=d)
        maps = spectral_maps(d, rng)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "spectral_power", refuse)
            for rdm in maps:
                assert isinstance(rdm.channel, PartitionChannel)
                for a in A_GRID:
                    if a != 1.0:
                        closed_form_measure(rho, rdm, a)


@pytest.mark.parametrize("seed", range(12))
def test_spectral_image_in_a_basis_is_the_block_path_rotated(seed):
    """With a basis W, spectral_image(V, w, p) is the basis-free map's
    spectral_image(W^dag V, w, p) rotated out, bit for bit: the same values
    and W X0 W^dag, on random partitions that mix kept and traced blocks."""
    rng = np.random.default_rng(300 + seed)
    d = int(rng.integers(2, 13))
    partition = random_partition(d, rng)
    n = len(partition.blocks)
    traced = rng.permutation(np.arange(n) % 2 == 0)
    W = random_unitary(d, rng)
    rotated = PartitionChannel(partition, traced, basis=W)
    plain = PartitionChannel(partition, traced)
    V, p = eigensystem(linalg.random_density_matrix(d, d, seed=seed))
    for a, w in closed_form_weights(p):
        values, X = rotated.spectral_image(V, w, 1.0 / a)
        values0, X0 = plain.spectral_image(linalg.dagger(W) @ V, w, 1.0 / a)
        assert np.array_equal(values, values0)
        assert np.array_equal(X, W @ X0 @ linalg.dagger(W))


# ------------------------------------------------------ a map's frame of a state

def frame_maps(d, rng):
    """spectral_channels, an abelian twirl in a random basis and the
    Kraus-sum channel certified where S @ S is cheap: every partition
    family, both routes to a partition map with a basis, and the dense
    path, which keeps no frame."""
    maps = spectral_channels(d, rng)
    twirl = twirling_map(conjugated(random_unitary(d, rng), [cyclic_shift(d, k) for k in range(d)]))
    assert isinstance(twirl.channel, PartitionChannel) and twirl.channel._basis is not None
    if d <= 8:
        maps[-1] = certify_rdm(maps[-1])
    return maps[:-1] + [twirl, maps[-1]]


def clear_frame(rdm):
    channel = getattr(rdm, "channel", rdm)
    if isinstance(channel, PartitionChannel):
        channel._frame = None


def cold(rho, rdm, a, monkeypatch):
    """closed_form_measure with nothing remembered: no state's spectrum and
    no frame."""
    monkeypatch.setattr(linalg, "_last_spectrum", None)
    clear_frame(rdm)
    return closed_form_measure(rho, rdm, a)


def same_bits(got, want) -> bool:
    """Value, N, sigma* and residual equal bit for bit."""
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in (
        (got.value, want.value), (got.N, want.N), (got.sigma_star, want.sigma_star),
        (got.fixed_point_residual, want.fixed_point_residual)))


def one_ulp(rho):
    nudged = rho.copy()
    nudged[0, 0] = np.nextafter(rho[0, 0].real, 1.0)
    return nudged


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32, 64])
def test_sweep_on_a_frame_is_a_call_without_one(d):
    """Every order of a sweep, on states of rank 1, 2 and d, with the grid
    ascending, descending and with a = 1 first, equals bit for bit the call
    made with the map's frame cleared."""
    rng = np.random.default_rng(700 + d)
    grids = (A_GRID, A_GRID[::-1], (1.0,) + tuple(a for a in A_GRID if a != 1.0))
    for rdm in frame_maps(d, rng):
        for rank in sorted({1, 2, d}):
            rho = linalg.random_density_matrix(d, rank, seed=int(rng.integers(2**31)))
            for grid in grids:
                clear_frame(rdm)
                warm = [closed_form_measure(rho, rdm, a) for a in grid]
                for a, got in zip(grid, warm):
                    clear_frame(rdm)
                    assert same_bits(got, closed_form_measure(rho, rdm, a)), (d, rank, a)


def test_sweep_builds_one_frame_per_state_and_map(monkeypatch):
    """A 7-order sweep reads each partition map's frame of the state once;
    the state one ulp away reads it once more."""
    builds = []
    inner = PartitionChannel._read_frame

    def counted(self, V):
        builds.append(self)
        return inner(self, V)
    monkeypatch.setattr(PartitionChannel, "_read_frame", counted)
    monkeypatch.setattr(linalg, "_last_spectrum", None)
    for d in (2, 4, 8):
        rng = np.random.default_rng(720 + d)
        rho = linalg.random_density_matrix(d, d, seed=d)
        for rdm in frame_maps(d, rng)[:-1]:
            builds.clear()
            for state in (rho, one_ulp(rho)):
                for a in A_GRID:
                    closed_form_measure(state, rdm, a)
                assert builds == [rdm.channel] * (1 if state is rho else 2)


def test_frame_follows_the_state(monkeypatch):
    """No call reads a stale frame: the state one ulp away, an array
    mutated in place between orders, two maps alternating on one state and
    two states alternating on one map each equal a cold call bit for bit."""
    for d in (2, 3, 8):
        rng = np.random.default_rng(740 + d)
        maps = frame_maps(d, rng)
        rho, other = (linalg.random_density_matrix(d, d, seed=seed) for seed in (d, d + 1))
        want = {}
        for i, rdm in enumerate(maps):
            for k, state in enumerate((rho, one_ulp(rho), other)):
                for a in A_GRID:
                    want[i, k, a] = cold(state, rdm, a, monkeypatch)
        for i, rdm in enumerate(maps):
            for a in A_GRID:
                assert same_bits(closed_form_measure(rho, rdm, a), want[i, 0, a])
                assert same_bits(closed_form_measure(one_ulp(rho), rdm, a), want[i, 1, a])
            A = rho.copy()
            for j, a in enumerate(A_GRID):
                k = 2 * (j % 2)
                A[...] = (rho, None, other)[k]
                assert same_bits(closed_form_measure(A, rdm, a), want[i, k, a])
            for a in A_GRID:
                for k, state in ((0, rho), (2, other)):
                    assert same_bits(closed_form_measure(state, rdm, a), want[i, k, a])
        for a in A_GRID:
            for i, rdm in enumerate(maps):
                assert same_bits(closed_form_measure(rho, rdm, a), want[i, 0, a])


def test_spectral_image_never_reads_a_frame_of_a_mutated_eigensystem():
    """spectral_image wraps V in a fresh tuple on every call, so a writeable
    V mutated in place between calls gets the image of its new entries."""
    for d in (2, 4, 8):
        rng = np.random.default_rng(760 + d)
        V, p = eigensystem(linalg.random_density_matrix(d, d, seed=d))
        V2, _ = eigensystem(linalg.random_density_matrix(d, d, seed=d + 1))
        for E in frame_maps(d, rng):
            for q in (1.0, 0.5):
                mutable = V.copy()
                E.spectral_image(mutable, p, q)
                mutable[...] = V2
                got = E.spectral_image(mutable, p, q)
                clear_frame(E)
                for x, y in zip(got, E.spectral_image(V2.copy(), p, q)):
                    assert x.tobytes() == y.tobytes()


def test_power_weights_are_power_values_bit_for_bit(monkeypatch):
    """A certified map's weights p^a, read through its frame's support mask
    when it is a partition map, equal `linalg.power_values` bit for bit at
    ranks 1, 2 and d, and the closed form reaches the partition map's own
    weights through the certified wrapper.  A spectrum whose lambda_max ** a
    overflows raises OverflowError, as power_values does."""
    inner = PartitionChannel._power_weights
    reached = []
    monkeypatch.setattr(PartitionChannel, "_power_weights",
                        lambda self, spectrum, a: reached.append(a) or inner(self, spectrum, a))
    for d in (2, 4, 8):
        rng = np.random.default_rng(290 + d)
        for rank in (1, 2, d):
            rho = linalg.random_density_matrix(d, rank, seed=10 * d + rank)
            spectrum = linalg.density_spectrum(rho)
            for E in frame_maps(d, rng):
                for a in (0.3, 0.5, 0.8, 1.2, 1.5, 2.0):
                    want = linalg.power_values(spectrum.values, a)
                    assert E._power_weights(spectrum, a).tobytes() == want.tobytes()
    reached.clear()
    E = frame_maps(4, np.random.default_rng(294))[0]
    closed_form_measure(linalg.random_density_matrix(4, 4, seed=4), E, 0.5)
    assert reached == [0.5]
    big = linalg.Eigensystem(np.array([0.25, 1.5]), np.eye(2, dtype=complex))
    E = certify_rdm(dephasing_map(MeasurementPartition.singletons(2)))
    for weights in (lambda: E._power_weights(big, 2000.0),
                    lambda: linalg.power_values(big.values, 2000.0)):
        with pytest.raises(OverflowError):
            weights()


def test_one_map_shared_by_threads_that_sweep_their_own_states(monkeypatch):
    """Two threads sweep their own states on one map, many times, with a
    short switch interval; every result equals its cold reference bit for
    bit."""
    d = 4
    rng = np.random.default_rng(780)
    rdm = lueders_map(random_partition(d, rng, coarse=True))
    states = [linalg.random_density_matrix(d, d, seed=40 + i) for i in range(2)]
    refs = {(i, a): cold(rho, rdm, a, monkeypatch)
            for i, rho in enumerate(states) for a in A_GRID}
    wrong = []

    def work(i):
        for _ in range(150):
            for a in A_GRID:
                if not same_bits(closed_form_measure(states[i], rdm, a), refs[i, a]):
                    wrong.append((i, a))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(states))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@settings(max_examples=40)
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

def test_compose_fine_with_modified():
    """`compose_residual`, the theorem-2 suite's check of fine.modified =
    modified.fine = modified through apply on the d^2 matrix units, matches
    the same identities on the superoperators of the same maps to 1e-12,
    with both maps in a random basis at d = 3..6, where it is round-off
    rather than exactly 0; the suite's records hold such residuals.  The
    norm identity behind it also holds where the residual is far from 0:
    Lueders after dephasing is not the Lueders map."""
    rng = np.random.default_rng(7)
    for d in (3, 4, 5, 6):
        for _ in range(5):
            coarse = random_partition(d, rng, coarse=True)
            W = random_unitary(d, rng)
            fine = certify_rdm(PartitionChannel(MeasurementPartition.singletons(d), [False] * d, W))
            mod = certify_rdm(PartitionChannel(coarse, [True] * len(coarse.blocks), W))
            S_fine, S_mod = fine.superop, mod.superop
            r1 = float(np.linalg.norm(S_fine @ S_mod - S_mod))
            r2 = float(np.linalg.norm(S_mod @ S_fine - S_mod))
            r = compose_residual(fine, mod)
            assert 0.0 < r <= 1e-10
            assert abs(r - max(r1, r2)) <= 1e-12
    rep = suite_theorem2([3, 4, 5, 6], [2.0], trials=5, seed=7)
    comp = [r["value"] for r in rep.records if r["kind"] == "compose"]
    assert len(comp) == 5 * 4 and all(0.0 < r <= 1e-10 for r in comp)
    fine = dephasing_map(MeasurementPartition.singletons(4))
    lued = lueders_map(MeasurementPartition(4, [[0, 1], [2, 3]]))
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    via_apply = linalg.frobenius(fine.apply(lued.apply(units)) - lued.apply(units))
    via_superop = float(np.linalg.norm(fine.superop @ lued.superop - lued.superop))
    assert via_apply == pytest.approx(2.0) and abs(via_apply - via_superop) <= 1e-12


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


MAP_KINDS = ("dephasing", "lueders", "modified", "mixing", "pauli twirl", "commuting kraus",
             "non-commuting kraus")


@settings(max_examples=70)
@given(st.data())
def test_map_json_round_trip_every_type(data):
    """Every map type, written by map_to_json as JSON text and read back by
    map_from_json, keeps its superoperator to 1e-12 and its descriptor
    exactly.  Partitions are random (dephasing in a random block order);
    the Pauli x I twirl (non-abelian, a Kraus sum) and both Kraus inputs,
    Lueders projectors and a modified map's operators, are in a random
    basis."""
    kind = data.draw(st.sampled_from(MAP_KINDS))
    d = data.draw(st.sampled_from([2, 4, 6]) if kind == "pauli twirl" else st.integers(2, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coarse = random_partition(d, rng, coarse=True)
    V = random_unitary(d, rng)
    if kind == "dephasing":
        rdm = dephasing_map(MeasurementPartition(d, [[i] for i in rng.permutation(d)]))
    elif kind == "lueders":
        rdm = lueders_map(random_partition(d, rng))
    elif kind == "modified":
        rdm = modified_coarse_map(random_partition(d, rng))
    elif kind == "mixing":
        rdm = mixing_map(d)
    elif kind == "pauli twirl":
        pauli = [np.eye(2), X, 1j * X @ Z, Z]
        rdm = twirling_map(conjugated(V, [np.kron(P, np.eye(d // 2)) for P in pauli]))
    elif kind == "commuting kraus":
        rdm = map_from_json(kraus_json(conjugated(V, coarse.projectors())))
    else:
        rdm = map_from_json(kraus_json(conjugated(V, modified_coarse_map(coarse).kraus)))
    dense = kind in ("pauli twirl", "non-commuting kraus")
    assert isinstance(rdm.channel, PartitionChannel) != dense, kind
    obj = json.loads(json.dumps(map_to_json(rdm)))
    again = map_from_json(obj)
    assert superop_distance(again, rdm) <= 1e-12, kind
    assert map_to_json(again) == obj, kind


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
    # dim 0 once reached PartitionChannel and failed there with a TypeError
    for kind in ("dephasing", "lueders", "modified"):
        with pytest.raises(ValidationError, match="partition dim"):
            map_from_json({"type": kind, "dim": 0, "partition": []})


@pytest.mark.parametrize("dim, blocks", [
    (2, None), (2, [0, 1]), (2, [[[0]], [1]]), (2, [[0.5], [1]]), (2, [[True], [1]]),
    (2.5, [[0], [1]]), ("2", [[0], [1]]),
])
def test_partition_refuses_non_integral_input(dim, blocks):
    # int() once truncated 2.5 and 0.5, and a non-list crashed with TypeError
    with pytest.raises(ValidationError):
        MeasurementPartition(dim, blocks)


@pytest.mark.parametrize("build, args, error, field", [
    (mixing_map, (2.5,), ValidationError, "mixing map dim"),
    (mixing_map, ("3",), ValidationError, "mixing map dim"),
    (MeasurementPartition.singletons, (2.5,), ValidationError, "partition dim"),
    (MeasurementPartition.singletons, ("3",), ValidationError, "partition dim"),
    (MeasurementPartition.single_block, (2.5,), ValidationError, "partition dim"),
    (MeasurementPartition.single_block, ("3",), ValidationError, "partition dim"),
    (cyclic_shift, (2.5, 1), ValidationError, "cyclic shift dim"),
    (cyclic_shift, ("3", 1), ValidationError, "cyclic shift dim"),
    (cyclic_shift, (3, 2.5), ValidationError, "cyclic shift power"),
    (cyclic_shift, (3, "1"), ValidationError, "cyclic shift power"),
    (cyclic_twirl, (2.5,), ValidationError, "cyclic twirl dim"),
    (cyclic_twirl, ("3",), ValidationError, "cyclic twirl dim"),
    (cyclic_twirl, (True,), ValidationError, "cyclic twirl dim"),
    (QuantumChannel, ([np.array(1.0)],), DimensionMismatch, "Kraus operators"),
    (twirling_map, ([np.array(1.0)],), DimensionMismatch, "unitaries"),
], ids=lambda v: getattr(v, "__qualname__", None) or repr(v))
def test_constructors_refuse_malformed_input(build, args, error, field):
    # each once failed with a bare TypeError from range or an IndexError
    # from reading the shape of a 0-d operator, or, for the shift power,
    # was silently truncated
    with pytest.raises(error, match=field):
        build(*args)


def test_partition_accepts_integral_numbers():
    p = MeasurementPartition(np.int64(3), [[2.0, np.int32(0)], [1]])
    assert p.dim == 3 and p.blocks == ((0, 2), (1,))
    assert all(type(i) is int for b in p.blocks for i in b)
