import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdmap import linalg
from rdmap.errors import BadRank, NonHermitian, NotPSD, TraceNotOne


def test_eig_hermitian_rank_one_projector():
    # eigenvalues 0.5 +- 0.5, ascending
    vals = linalg.eig_hermitian([[0.5, 0.5], [0.5, 0.5]]).values
    assert vals == pytest.approx([0.0, 1.0], abs=1e-12)


def test_eig_hermitian_rejects_asymmetric():
    with pytest.raises(NonHermitian):
        linalg.eig_hermitian([[0.0, 1.0], [0.0, 0.0]])


def test_matrix_power_diagonal_sqrt():
    out = linalg.matrix_power(np.diag([4.0, 1.0]), 0.5)
    assert np.allclose(out, np.diag([2.0, 1.0]), atol=1e-12)


def test_matrix_power_identity_any_exponent():
    for p in (-1.0, 0.3, 1.0, 2.0):
        assert np.allclose(linalg.matrix_power(np.eye(3), p), np.eye(3), atol=1e-12)


def test_matrix_power_projector_idempotent():
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(linalg.matrix_power(P, 3.0), P, atol=1e-12)


def test_matrix_power_clips_roundoff_negatives():
    out = linalg.matrix_power(np.diag([1.0, -5e-11]), 0.5)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_matrix_power_drops_roundoff_eigenvalues():
    # eigh resolves eigenvalues only to about d * eps * lambda_max
    out = linalg.matrix_power(np.diag([1.0, 1e-17]), 0.3)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_matrix_power_rejects_genuine_negatives():
    with pytest.raises(NotPSD):
        linalg.matrix_power([[0.5, 0.6], [0.6, 0.5]], 0.5)


def test_matrix_power_negative_exponent_on_support():
    # pseudo-inverse: the kernel stays the kernel
    out = linalg.matrix_power(np.diag([0.5, 0.0]), -1.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_matrix_power_composition_property():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p, q = rng.uniform(0.2, 2.0, size=2)
        M = linalg.random_density_matrix(4, 4, seed=seed)
        left = linalg.matrix_power(linalg.matrix_power(M, p), q)
        right = linalg.matrix_power(M, p * q)
        assert linalg.frobenius(left - right) <= 1e-8


def test_matrix_power_exponent_one_is_identity_map():
    for seed in range(5):
        M = linalg.random_density_matrix(3, 3, seed=seed)
        assert linalg.frobenius(linalg.matrix_power(M, 1.0) - M) <= 1e-10
        assert abs(np.trace(linalg.matrix_power(M, 1.0)).real - 1.0) <= 1e-10


def test_matrix_log_values():
    out = linalg.matrix_log(np.diag([1.0, math.e]))
    assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)
    assert np.allclose(linalg.matrix_log(np.eye(2)), np.zeros((2, 2)), atol=1e-12)
    out = linalg.matrix_log(np.diag([0.5, 0.5]))
    assert np.allclose(out, np.diag([-math.log(2)] * 2), atol=1e-12)


def test_matrix_log_skips_kernel():
    out = linalg.matrix_log(np.diag([0.5, 0.0]))
    assert np.allclose(out, np.diag([math.log(0.5), 0.0]), atol=1e-12)


def test_support_projector():
    out = linalg.support_projector(np.diag([0.3, 0.0, 0.7]))
    assert np.allclose(out, np.diag([1.0, 0.0, 1.0]), atol=1e-12)


def test_random_density_matrix_rank_control():
    w = np.linalg.eigvalsh(linalg.random_density_matrix(2, 1, seed=3))
    assert w == pytest.approx([0.0, 1.0], abs=1e-12)
    w = np.linalg.eigvalsh(linalg.random_density_matrix(4, 2, seed=3))
    assert np.sum(w > 1e-12) == 2


def test_random_density_matrix_deterministic():
    A = linalg.random_density_matrix(3, 3, seed=17)
    B = linalg.random_density_matrix(3, 3, seed=17)
    assert np.array_equal(A, B)
    C = linalg.random_density_matrix(3, 3, seed=18)
    assert not np.allclose(A, C)


def test_random_density_matrix_always_valid():
    for seed in range(20):
        d = 2 + seed % 4
        rho = linalg.random_density_matrix(d, d, seed=seed)
        linalg.validate_density(rho)


def test_random_density_matrix_bad_rank():
    with pytest.raises(BadRank):
        linalg.random_density_matrix(3, 4, seed=0)
    with pytest.raises(BadRank):
        linalg.random_density_matrix(3, 0, seed=0)


def test_validate_density_accepts_maximally_mixed():
    linalg.validate_density(np.eye(2) / 2)


def test_validate_density_names_the_violation():
    with pytest.raises(TraceNotOne):
        linalg.validate_density(np.diag([1.0, 1.0]))
    with pytest.raises(NotPSD):
        linalg.validate_density([[0.5, 0.6], [0.6, 0.5]])
    with pytest.raises(NonHermitian):
        linalg.validate_density([[0.5, 1j], [1j, 0.5]])


def test_random_hermitian_is_hermitian():
    X = linalg.random_hermitian(4, seed=9)
    assert linalg.hermiticity_residual(X) == 0.0


def test_matrix_json_round_trip():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = linalg.matrix_from_json(linalg.matrix_to_json(M))
    assert np.array_equal(M, back)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda d: st.lists(
    st.floats(-1.0, 1.0), min_size=2 * d * d, max_size=2 * d * d)))
def test_state_json_round_trip(entries):
    """A state G G^dagger / Tr from a generated factor G comes back from the
    wire format, through JSON text, equal entry for entry."""
    d = math.isqrt(len(entries) // 2)
    G = np.reshape(entries[:d * d], (d, d)) + 1j * np.reshape(entries[d * d:], (d, d))
    P = G @ G.conj().T
    assume(np.trace(P).real > 1e-3)
    rho = (P + P.conj().T) / (2 * np.trace(P).real)
    linalg.validate_density(rho)
    back = linalg.matrix_from_json(json.loads(json.dumps(linalg.matrix_to_json(rho))))
    assert back.dtype == complex
    assert np.array_equal(back, rho)


def test_matrix_json_malformed():
    with pytest.raises(ValueError):
        linalg.matrix_from_json({"re": [[1.0]]})
    with pytest.raises(ValueError):
        linalg.matrix_from_json({"re": [[1.0]], "im": [[0.0, 0.0]]})
    with pytest.raises(ValueError):
        linalg.matrix_from_json({"re": [[1.0, 0.0]], "im": [[0.0, 0.0]]})
