import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdmap import linalg
from rdmap.errors import BadRank, NonHermitian, NotPSD, TraceNotOne, ValidationError


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


def test_spectral_functions_match_their_matrix_forms():
    """matrix_power and matrix_log are the spectral forms of psd_spectrum,
    bit for bit, on full-rank, rank-deficient and round-off-negative
    input, so one eigensystem serves both."""
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4, 8):
        for rank in sorted({1, max(1, d // 2), d}):
            M = linalg.random_density_matrix(d, rank, seed=int(rng.integers(2**31)))
            spectrum = linalg.psd_spectrum(M)
            assert spectrum.values.min() >= 0.0
            assert np.array_equal(linalg.spectral_log(spectrum), linalg.matrix_log(M))
            for p in (0.3, 0.5, 1.0, 2.0, 1 / 0.3, 0.0, -0.5):
                assert np.array_equal(linalg.spectral_power(spectrum, p), linalg.matrix_power(M, p))


def test_power_values_is_the_masked_power():
    """power_values equals values ** p on the eigenvalues above its cut and
    0 elsewhere, bit for bit, whatever the mix of zeros, round-off and
    ordinary eigenvalues."""
    rng = np.random.default_rng(6)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        values = rng.random(n) ** rng.integers(1, 20)
        values[rng.random(n) < 0.2] = 0.0
        values[rng.random(n) < 0.2] *= 1e-17
        for p in (1 / 0.3, 2.0, 1.0, 0.5, 1 / 1.5, 0.0, -0.7):
            top = max(float(values.max()), 0.0)
            cut = n * np.finfo(float).eps * top if p > 0 else linalg.SUPPORT_CUTOFF * top
            want = np.zeros(n)
            want[values > cut] = values[values > cut] ** p
            assert linalg.power_values(values, p).tobytes() == want.tobytes()


def test_spectral_log_keeps_the_support_of_power_values():
    """spectral_log takes the log exactly on the eigenvalues that
    power_values keeps at p = 0, those above 1e-12 * lambda_max, and 0 on
    the rest, for one spectrum and for a stack: zeros, spectra down to
    1e-20 and eigenvalues at the cut itself."""
    rng = np.random.default_rng(12)
    for _ in range(300):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        values = 10.0 ** rng.uniform(-20, 0, size=(n, d))
        values[rng.random((n, d)) < 0.2] = 0.0
        values[0, 0] = linalg.SUPPORT_CUTOFF * values[0].max()
        values = np.sort(values, axis=-1)
        vectors = np.broadcast_to(np.eye(d, dtype=complex), (n, d, d))
        keep = linalg.power_values(values, 0.0) > 0
        for logs, mask, w in ((linalg.spectral_log((values, vectors)), keep, values),
                              (linalg.spectral_log((values[0], vectors[0]))[None], keep[:1],
                               values[:1])):
            diag = np.diagonal(logs, axis1=-2, axis2=-1).real
            assert np.array_equal(diag[mask], np.log(w[mask]))
            assert not diag[~mask].any()


def test_spectral_maps_of_a_stack_are_each_matrix_alone():
    """power_values, spectral_log and the Hermiticity residual of an
    (n, d) or (n, d, d) stack equal the one-matrix calls row by row, bit
    for bit, each row under its own lambda_max, and the residual of a stack
    is its largest."""
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 4, 8):
        states = [linalg.random_density_matrix(d, rank, seed=int(rng.integers(2**31)))
                  for rank in sorted({1, max(1, d // 2), d})]
        states += [1e-3 * states[-1], np.zeros((d, d), dtype=complex)]
        states[-1][0, 0] = 1.0
        stack = np.stack(states)
        values, vectors = linalg._clipped_spectrum(stack)
        for p in (1 / 0.3, 2.0, 1.0, 0.5, 0.0, -0.7):
            rows = linalg.power_values(values, p)
            for i in range(len(stack)):
                assert rows[i].tobytes() == linalg.power_values(values[i], p).tobytes()
        logs = linalg.spectral_log((values, vectors))
        for i in range(len(stack)):
            assert logs[i].tobytes() == linalg.spectral_log((values[i], vectors[i])).tobytes()
        skew = stack + 1e-9j * rng.standard_normal(stack.shape)
        residuals = linalg.hermiticity_residuals(skew)
        assert [float(r) for r in residuals] == [linalg.hermiticity_residual(M) for M in skew]
        assert linalg.hermiticity_residual(skew) == residuals.max()


def test_frobenius_is_the_norm():
    rng = np.random.default_rng(7)
    for shape in ((1,), (3, 3), (4, 5), (2, 6, 6)):
        for M in (rng.standard_normal(shape),
                  rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
            want = float(np.linalg.norm(M.ravel()))
            assert abs(linalg.frobenius(M) - want) <= 1e-15 * want
    assert linalg.frobenius(np.zeros((3, 3), dtype=complex)) == 0.0


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


def _same_bits(got: linalg.Eigensystem, want: linalg.Eigensystem) -> bool:
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_density_spectrum_reuses_a_byte_identical_state(monkeypatch):
    """A byte-identical array, even a fresh copy, gets the stored
    eigensystem back without an eigh, bit for bit what a fresh one is."""
    monkeypatch.setattr(linalg, "_last_spectrum", None)
    rho = linalg.random_density_matrix(4, 4, seed=21)
    first = linalg.density_spectrum(rho)
    assert _same_bits(first, linalg._clipped_spectrum(rho))
    assert linalg.density_spectrum(rho.copy()) is first
    assert linalg.density_spectrum(np.asfortranarray(rho)) is first


def test_density_spectrum_misses_on_one_ulp_and_on_the_sign_of_zero(monkeypatch):
    """One ulp in one entry, or -0.0 for +0.0, is another state: it gets its
    own eigensystem, equal to a fresh one, and the entry follows it."""
    monkeypatch.setattr(linalg, "_last_spectrum", None)
    rho = linalg.random_density_matrix(3, 3, seed=22)
    rho = (rho + rho.conj().T) / 2  # a real diagonal, with +0.0 imaginary parts
    first = linalg.density_spectrum(rho)
    nudged = rho.copy()
    nudged[1, 1] = np.nextafter(rho[1, 1].real, 1.0)
    second = linalg.density_spectrum(nudged)
    assert second is not first
    assert _same_bits(second, linalg._clipped_spectrum(nudged))
    assert linalg.density_spectrum(nudged) is second
    signed = rho.copy()
    signed[0, 0] = complex(rho[0, 0].real, -0.0)
    assert np.array_equal(signed, rho) and signed.tobytes() != rho.tobytes()
    assert linalg.density_spectrum(signed) is not first


def test_density_spectrum_decomposes_an_array_mutated_in_place(monkeypatch):
    monkeypatch.setattr(linalg, "_last_spectrum", None)
    A = linalg.random_density_matrix(3, 3, seed=23)
    first = linalg.density_spectrum(A)
    A[0, 1] += 0.01
    A[1, 0] += 0.01
    again = linalg.density_spectrum(A)
    assert again is not first
    assert _same_bits(again, linalg._clipped_spectrum(A))


def test_density_spectrum_never_stores_an_error(monkeypatch):
    """An invalid state after a valid one raises on every call, and the
    valid state's entry survives it."""
    monkeypatch.setattr(linalg, "_last_spectrum", None)
    rho = linalg.random_density_matrix(2, 2, seed=24)
    first = linalg.density_spectrum(rho)
    bad = {NotPSD: np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex),
           TraceNotOne: 2 * rho,
           NonHermitian: np.array([[0.5, 1j], [1j, 0.5]])}
    for error, state in bad.items():
        for _ in range(2):
            with pytest.raises(error):
                linalg.density_spectrum(state)
            with pytest.raises(error):
                linalg.validate_density(state)
    assert linalg.density_spectrum(rho) is first


def test_density_spectrum_reads_its_memo_before_any_check(monkeypatch):
    """The memo is keyed on shape and bytes after coercion to complex: a
    nested-list copy of the stored state gets the same Eigensystem object
    back with no eigh; the same bytes in another shape, or a copy with a
    NaN, still raise the ValueError of a cold call; a copy one ulp away is
    decomposed again."""
    monkeypatch.setattr(linalg, "_last_spectrum", None)
    d = 3
    rho = linalg.random_density_matrix(d, d, seed=27)
    first = linalg.density_spectrum(rho)
    eighs = []
    inner = np.linalg.eigh

    def counted(M, *args, **kwargs):
        eighs.append(M)
        return inner(M, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert linalg.density_spectrum(rho.tolist()) is first
    assert linalg.validate_density(rho.tolist()).tobytes() == rho.tobytes()
    for view in (rho.ravel(), rho.reshape(1, d * d)):
        assert view.tobytes() == rho.tobytes()
        with pytest.raises(ValueError, match="expected a square matrix"):
            linalg.density_spectrum(view)
        with pytest.raises(ValueError, match="expected a square matrix"):
            linalg.validate_density(view)
    bad = rho.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        linalg.density_spectrum(bad)
    assert eighs == []
    assert linalg.density_spectrum(rho) is first
    nudged = rho.copy()
    nudged[0, 0] = np.nextafter(rho[0, 0].real, 1.0)
    again = linalg.density_spectrum(nudged)
    assert len(eighs) == 1 and again is not first
    assert _same_bits(again, linalg._clipped_spectrum(nudged))


def test_density_spectrum_returns_read_only_arrays():
    values, vectors = linalg.density_spectrum(linalg.random_density_matrix(3, 3, seed=25))
    for part in (values, vectors):
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 0.0


def test_validate_density_fills_the_entry_a_closed_form_reads(monkeypatch):
    """validate_density returns the coerced array, and density_spectrum on
    that array decomposes nothing again."""
    monkeypatch.setattr(linalg, "_last_spectrum", None)
    rho = linalg.random_density_matrix(3, 3, seed=26)
    A = linalg.validate_density(rho.tolist())
    assert A.dtype == complex and np.array_equal(A, rho)
    eighs = []
    monkeypatch.setattr(linalg, "_eigh", lambda M: eighs.append(M))
    linalg.density_spectrum(A)
    assert eighs == []


def test_density_spectrum_under_threads():
    """Threads that share the one entry each get their own state's
    eigensystem: six threads on two cores, a short switch interval, each
    checking every result against its own reference."""
    states = [linalg.random_density_matrix(4, 4, seed=30 + i) for i in range(6)]
    refs = [linalg._clipped_spectrum(rho) for rho in states]
    wrong = []

    def work(i):
        for _ in range(300):
            if not _same_bits(linalg.density_spectrum(states[i].copy()), refs[i]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(states))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_density_check_of_a_stack():
    """One stacked check keeps validate_density's thresholds (Hermiticity
    residual 1e-10, smallest eigenvalue -1e-10, trace 1e-10): a valid state
    passes, one failure of each kind fails, on either side of each
    threshold as validate_density decides, and a matrix with a NaN or an
    infinite entry is False where validate_density raises a bare
    ValueError."""
    rho = linalg.random_density_matrix(3, 3, seed=5)
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 1.0
    stack = [rho,
             rho + 5e-11 * skew, rho + 2e-10 * skew,
             np.diag([1.0 + 5e-11, -5e-11, 0.0]), np.diag([1.0 + 2e-10, -2e-10, 0.0]),
             rho + np.diag([5e-11, 0.0, 0.0]), rho + np.diag([2e-10, 0.0, 0.0]),
             np.where(np.eye(3) == 1, np.nan, rho), np.where(np.eye(3) == 1, np.inf, rho)]
    ok = linalg.density_ok(np.stack(stack))
    assert ok.tolist() == [True, True, False, True, False, True, False, False, False]
    for M, verdict in zip(stack[:7], ok):
        try:
            linalg.validate_density(M)
            assert verdict
        except ValidationError:
            assert not verdict
    for M in stack[7:]:
        with pytest.raises(ValueError):
            linalg.validate_density(M)
    for empty in ([], np.zeros((0, 3, 3))):
        assert linalg.density_ok(empty).shape == (0,)


def test_random_hermitian_is_hermitian():
    X = linalg.random_hermitian(4, seed=9)
    assert linalg.hermiticity_residual(X) == 0.0


def test_matrix_json_round_trip():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = linalg.matrix_from_json(linalg.matrix_to_json(M))
    assert np.array_equal(M, back)


@settings(max_examples=60)
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


@pytest.mark.parametrize("re, im", [
    ([["0.5", "0"], ["0", "0.5"]], [[0, 0], [0, 0]]),
    ([[0.5, 0], [0, 0.5]], [["0", "0"], ["0", "0"]]),
    ([[True, False], [False, True]], [[False, False], [False, False]]),
    ([[0.5, None], [None, 0.5]], [[0, 0], [0, 0]]),
    ([[10**400, 0], [0, 0.5]], [[0, 0], [0, 0]]),
])
def test_matrix_json_refuses_entries_that_are_not_numbers(re, im):
    """JSON strings were parsed as numbers, so a state of "0.5" entries
    measured, and an all-true/false matrix decoded to I; null and an
    integer beyond the float range are refused with them.  The verdict
    comes from numpy's inferred dtype, not from a walk over the entries."""
    with pytest.raises(ValueError, match="must be numbers"):
        linalg.matrix_from_json({"re": re, "im": im})
    assert np.array_equal(linalg.matrix_from_json({"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}),
                          np.diag([1.0, 0.0]))


@pytest.mark.parametrize("re, im", [
    ([[True, 0.0], [0.0, 0]], [[0, 0], [0, 0]]),
    ([[0.5, 0], [0, 0.5]], [[0, False], [0.0, 0]]),
    ([[1, 0], [0, 0]], [[0, np.False_], [0, 0]]),
])
def test_matrix_json_refuses_a_bool_among_numbers(re, im):
    """numpy infers a number, 1 or 0, for a bool that shares a part with
    numbers, so [[true, 0.0], [0.0, 0]] decoded to diag(1, 0).  A ragged or
    1-D part that holds a bool keeps the error its numbers alone get."""
    with pytest.raises(ValueError, match="got a bool"):
        linalg.matrix_from_json({"re": re, "im": im})
    for part in ([[True, 0.0], [0.0]], [True, 0.0]):
        numbers = [[float(x) for x in row] if isinstance(row, list) else float(row)
                   for row in part]
        errors = []
        for entries in (part, numbers):
            with pytest.raises(ValueError) as info:
                linalg.matrix_from_json({"re": entries, "im": numbers})
            errors.append(str(info.value))
        assert errors[0] == errors[1] and "bool" not in errors[0]
