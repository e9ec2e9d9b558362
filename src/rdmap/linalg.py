"""Dense complex matrix algebra on Hermitian operators.

Spectral calculus (fractional powers, logarithms) is done by
eigendecomposition, with eigenvalue clipping that distinguishes round-off
from genuinely invalid input: eigenvalues in [-1e-10, 0) are treated as 0,
anything lower is an error.  Dimensions stay small (d <= ~64), everything
is dense complex128.
"""

from __future__ import annotations

import math
import numbers
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import BadRank, NonHermitian, NotPSD, TraceNotOne, ValidationError

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
#: relative spectral cutoff below which an eigenvalue counts as zero
SUPPORT_CUTOFF = 1e-12
#: largest entry magnitude a wire-format matrix may hold: states, unitaries
#: and trace-preserving Kraus operators have entries of magnitude <= 1, and
#: anything far above would overflow the checks that refuse it
WIRE_ENTRY_MAX = 1e6
_EPS = np.finfo(float).eps
#: the types of a bool entry: a JSON true/false, or a numpy bool among numbers
_BOOL_TYPES = frozenset((bool, np.bool_))


class Eigensystem(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray


def dagger(M: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each in a (..., n, n) stack."""
    return M.conj().swapaxes(-1, -2)


def frobenius(M: np.ndarray) -> float:
    """||M||_F of an array of any shape, from one vdot."""
    return math.sqrt(np.vdot(M, M).real)


def as_complex_matrix(M, ndim: int = 2) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries: one matrix,
    or with ndim=3 an (n, d, d) stack of them."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != ndim or A.shape[-1] != A.shape[-2]:
        what = "a square matrix" if ndim == 2 else "a stack of square matrices"
        raise ValueError(f"expected {what}, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def hermiticity_residual(M: np.ndarray) -> float:
    """||M - M^dag||_F of a matrix; of an (n, d, d) stack, the largest."""
    return float(np.maximum.reduce(hermiticity_residuals(M), axis=None, initial=0.0))


def hermiticity_residuals(A: np.ndarray) -> np.ndarray:
    """||M - M^dag||_F of a matrix, or of each matrix of an (n, d, d) stack,
    from one sum of conj(x) x over its entries; +inf, with no warning, where
    that sum overflows."""
    D = A - dagger(A)
    return np.sqrt(np.einsum("...ij,...ij->...", D.conj(), D).real)


def eig_hermitian(M: np.ndarray) -> Eigensystem:
    """Eigendecompose a Hermitian matrix.

    Raises NonHermitian if the symmetry residual exceeds 1e-10.  Eigenvalues
    come back ascending; no phase convention is imposed on the eigenvectors.
    """
    return _eigh(as_complex_matrix(M))


def _eigh(A: np.ndarray) -> Eigensystem:
    """`eig_hermitian` of an array that `as_complex_matrix` already returned:
    one matrix, or an (n, d, d) stack from one stacked eigh, NonHermitian
    naming the worst residual when any matrix fails."""
    residual = hermiticity_residual(A)
    if residual > HERMITIAN_TOL:
        raise NonHermitian(f"Hermiticity residual {residual:.3e} exceeds {HERMITIAN_TOL:.0e}")
    values, vectors = np.linalg.eigh(A)
    return Eigensystem(values, vectors)


def clip_spectrum(values: np.ndarray) -> np.ndarray:
    """Eigenvalues, in any order, with round-off negatives clipped to 0;
    NotPSD below -1e-10."""
    lo = values.min()
    if lo < -PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {lo:.3e} below -{PSD_TOL:.0e}")
    return np.maximum(values, 0.0)


def _clipped_spectrum(A: np.ndarray) -> Eigensystem:
    """Eigensystem of a coerced matrix, or of each matrix of a coerced
    (n, d, d) stack as (n, d) values and (n, d, d) vectors, with round-off
    negatives clipped to 0; NotPSD below -1e-10."""
    values, vectors = _eigh(A)
    return Eigensystem(clip_spectrum(values), vectors)


def matrix_power(M: np.ndarray, p: float) -> np.ndarray:
    """Spectral power M^p of a PSD matrix.

    For p > 0 this is the ordinary fractional power, with eigenvalues at or
    below eigh's round-off level taken as 0: a round-off eigenvalue of 1e-17
    would otherwise become about 1e-5 at p = 0.3.  For p <= 0 the power is
    taken on the support only (eigenvalues at or below the relative cutoff
    map to 0), i.e. a pseudo-power M^p restricted to range(M).
    """
    return spectral_power(psd_spectrum(M), p)


def psd_spectrum(M: np.ndarray) -> Eigensystem:
    """The clipped eigensystem that `matrix_power` and `matrix_log` take of
    a PSD matrix: NonHermitian above a 1e-10 residual, NotPSD below -1e-10,
    round-off negatives clipped to 0."""
    return _clipped_spectrum(as_complex_matrix(M))


def spectral_power(spectrum: Eigensystem, p: float) -> np.ndarray:
    """`matrix_power` from an already clipped eigensystem."""
    values, vectors = spectrum
    return (vectors * power_values(values, p)) @ dagger(vectors)


def power_values(values: np.ndarray, p: float) -> np.ndarray:
    """`matrix_power`'s map on clipped eigenvalues, in any order along the
    last axis: one matrix's (d,) or a stack's (n, d), each row under its own
    lambda_max and every row through one numpy power for the one exponent
    p.  values ** p, with 0 for the eigenvalues that p > 0 takes as
    round-off (at or below d * eps * lambda_max) and that p <= 0 takes as
    outside the support (at or below 1e-12 * lambda_max).  Raises
    OverflowError, before numpy would warn, when the largest lambda_max **
    p overflows, as it does when p > 0 is so large that an eigenvalue just
    above 1 leaves the float range."""
    # lambda_max of each row, a scalar for one matrix, from one reduction
    # over the entries; the largest of a stack is read off the rows' own
    if values.ndim == 1:
        top = high = float(np.maximum.reduce(values, initial=0.0))
    else:
        top = np.maximum.reduce(values, axis=-1, keepdims=True, initial=0.0)
        high = float(np.maximum.reduce(top, axis=None, initial=0.0))
    # a Python float power raises OverflowError itself unless p is inf
    if p > 0 and high > 1.0 and high ** p == math.inf:
        raise OverflowError(f"{high!r} ** {p!r} overflows")
    cut = values.shape[-1] * _EPS * top if p > 0 else SUPPORT_CUTOFF * top
    return np.power(values, p, out=np.zeros(values.shape), where=values > cut)


def matrix_log(M: np.ndarray) -> np.ndarray:
    """Spectral log of a PSD matrix on its support; zero eigenvalues are skipped."""
    return spectral_log(psd_spectrum(M))


def spectral_log(spectrum: Eigensystem) -> np.ndarray:
    """`matrix_log` from an already clipped eigensystem, eigenvalues
    ascending, of one matrix or of each of an (n, d, d) stack: the log of
    every eigenvalue above 1e-12 * lambda_max, 0 on the rest: the support
    that power_values keeps at p = 0."""
    values, vectors = spectrum
    out = np.zeros_like(values)
    pos = power_values(values, 0.0) > 0
    out[pos] = np.log(values[pos])
    return (vectors * out[..., None, :]) @ dagger(vectors)


def support_projector(M: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto range(M) for PSD M."""
    return matrix_power(M, 0.0)


def random_density_matrix(d: int, rank: int, seed: int) -> np.ndarray:
    """Random density matrix rho = G G^dag / Tr(G G^dag), G a d x rank complex
    Gaussian drawn from a seeded PRNG.  Deterministic per seed."""
    if not 1 <= rank <= d:
        raise BadRank(f"rank must satisfy 1 <= rank <= {d}, got {rank}")
    rng = np.random.default_rng(seed)
    G = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / np.sqrt(2)
    M = G @ dagger(G)
    return M / np.real(np.trace(M))


def random_hermitian(d: int, seed: int) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries, for identity checks."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (A + dagger(A)) / 2


def validate_density(M) -> np.ndarray:
    """Check the density-matrix invariants and return the coerced matrix,
    complex128 (the input itself when it already is one).

    Raises ValueError for anything but a square matrix of finite entries,
    then NonHermitian, NotPSD or TraceNotOne naming the violated invariant
    and the measured residual.  The checks are `density_spectrum`'s, so a
    state validated here is not decomposed again by a closed form that
    follows on the same array.
    """
    A = np.asarray(M, dtype=complex)
    density_spectrum(A)
    return A


#: the last state `density_spectrum` validated, as one tuple
#: (shape, bytes, clipped eigensystem), replaced by a single assignment
_last_spectrum = None


def density_spectrum(M) -> Eigensystem:
    """The density-matrix checks and the clipped eigensystem of a state,
    given as any array-like, on one eigh.

    The memo is read first.  One entry is remembered: the shape and exact
    bytes, after `np.asarray(M, dtype=complex)`, of the last state that
    passed, with its eigensystem.  A byte-identical state of the same shape
    (a sweep over orders on one state, a closed form after the CLI's
    validation, or a nested-list copy) gets the stored `Eigensystem` object
    back from one copy and one compare of its bytes, O(d^2), with no other
    check, since only a state that passed them is stored.  Any other array,
    one that differs by a single ulp or by the sign of a zero, holds a NaN,
    has the same bytes in another shape, or is the same array mutated in
    place, is checked and decomposed again and then replaces the entry.

    A miss runs the checks in this order: not a square matrix, or a
    non-finite entry (ValueError, as `as_complex_matrix` words it);
    Hermiticity residual above 1e-10 (NonHermitian); minimum eigenvalue
    below -1e-10 (NotPSD); trace off 1 by more than 1e-10 (TraceNotOne).
    Round-off negatives are then clipped to 0.  Errors are never stored.  The returned values and vectors are
    read-only, since every caller of an entry shares them.  The entry is one
    tuple read once and swapped by a single assignment, so threads at worst
    decompose again; none can see another state's eigensystem.
    """
    global _last_spectrum
    A = np.asarray(M, dtype=complex)
    key = A.tobytes()
    entry = _last_spectrum
    if entry is not None and entry[0] == A.shape and entry[1] == key:
        return entry[2]
    A = as_complex_matrix(A)
    spectrum = _clipped_spectrum(A)
    _check_trace(A)
    for part in spectrum:
        part.flags.writeable = False
    _last_spectrum = (A.shape, key, spectrum)
    return spectrum


def density_ok(stack) -> np.ndarray:
    """For each matrix of an (n, d, d) stack, whether `validate_density`
    would pass it, from one stacked eigvalsh: finite entries, Hermiticity
    residual at most 1e-10, smallest eigenvalue at least -1e-10 and trace
    within 1e-10 of 1, the tolerances `density_spectrum` raises on.  A
    matrix with a NaN or infinite entry, where `validate_density` raises a
    ValueError, is False, and is replaced by I before the eigvalsh.  An
    empty stack gives an empty array."""
    M = np.asarray(stack, dtype=complex)
    if not M.size:
        return np.zeros(len(M), dtype=bool)
    finite = np.isfinite(M).all(axis=(1, 2))
    M = np.where(finite[:, None, None], M, np.eye(M.shape[-1]))
    lowest = np.linalg.eigvalsh(M)[:, 0]
    trace = np.trace(M, axis1=1, axis2=2)
    return (finite & (hermiticity_residuals(M) <= HERMITIAN_TOL)
            & (lowest >= -PSD_TOL) & (np.abs(trace - 1.0) <= TRACE_TOL))


def _check_trace(A: np.ndarray) -> None:
    tr = complex(np.trace(A))
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")


def matrix_to_json(M: np.ndarray) -> dict:
    """Encode a complex matrix as {"re": [[...]], "im": [[...]]}."""
    A = np.asarray(M, dtype=complex)
    return {"re": A.real.tolist(), "im": A.imag.tolist()}


def as_integer(value, what: str) -> int:
    """An integral number (2 or 2.0, as JSON may carry it) as an int.

    Anything else, a bool, a non-integral or non-finite float, a string or
    a list, is a ValidationError rather than a silent truncation.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and float(value).is_integer()):
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {repr(value):.60}")


def as_count(value, what: str, least: int) -> int:
    """as_integer, and at least `least`: a smaller value is a
    ValidationError naming the field too."""
    value = as_integer(value, what)
    if value < least:
        raise ValidationError(f"{what} must be >= {least}, got {value}")
    return value


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the {"re", "im"} wire format back into a complex matrix, with
    entries of magnitude at most WIRE_ENTRY_MAX.  Entries must be numbers:
    a part whose inferred dtype is text, bool or object (a JSON string,
    true/false, null, or an integer beyond the float range) is a ValueError,
    decided from the dtype.  So is a bool among numbers, which numpy infers
    as the number 1 or 0: only a square matrix with a part equal to 0 or 1
    somewhere is walked, by C iterators over the types of its entries, so
    a dense unitary costs no walk."""
    try:
        parts = {key: np.asarray(obj[key]) for key in ("re", "im")}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from None
    for key, part in parts.items():
        if part.dtype.kind in "USOb":
            raise ValueError(f"malformed matrix object: {key!r} entries must be numbers, "
                             f"got dtype {part.dtype}")
    re, im = (part.astype(float, copy=False) for part in parts.values())
    if re.shape != im.shape:
        raise ValueError(f"re/im shapes differ: {re.shape} vs {im.shape}")
    # set the parts instead of forming re + 1j * im, whose 0 * inf for an
    # infinite imaginary part warns before the finiteness check can refuse it
    z = re.astype(complex)
    z.imag = im
    A = as_complex_matrix(z)
    flat = A.view(float)
    if ((flat == 0) | (flat == 1)).any():
        for key in parts:
            if not _BOOL_TYPES.isdisjoint(map(type, chain.from_iterable(obj[key]))):
                raise ValueError(f"malformed matrix object: {key!r} entries must be numbers, "
                                 f"got a bool")
    if A.size and np.abs(A).max() > WIRE_ENTRY_MAX:
        raise ValidationError(
            f"matrix entry of magnitude {np.abs(A).max():.3e} exceeds {WIRE_ENTRY_MAX:.0e}")
    return A
