"""Dense complex matrix algebra on Hermitian operators.

Spectral calculus (fractional powers, logarithms) is done by
eigendecomposition, with eigenvalue clipping that distinguishes round-off
from genuinely invalid input: eigenvalues in [-1e-10, 0) are treated as 0,
anything lower is an error.  Dimensions stay small (d <= ~64), everything
is dense complex128.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BadRank, NonHermitian, NotPSD, TraceNotOne

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
#: relative spectral cutoff below which an eigenvalue counts as zero
SUPPORT_CUTOFF = 1e-12


class Eigensystem(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray


def dagger(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def frobenius(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def as_complex_matrix(M) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("matrix has non-finite entries")
    return A


def hermiticity_residual(M: np.ndarray) -> float:
    return frobenius(M - dagger(M))


def eig_hermitian(M: np.ndarray) -> Eigensystem:
    """Eigendecompose a Hermitian matrix.

    Raises NonHermitian if the symmetry residual exceeds 1e-10.  Eigenvalues
    come back ascending; no phase convention is imposed on the eigenvectors.
    """
    A = as_complex_matrix(M)
    res = hermiticity_residual(A)
    if res > HERMITIAN_TOL:
        raise NonHermitian(f"Hermiticity residual {res:.3e} exceeds {HERMITIAN_TOL:.0e}")
    values, vectors = np.linalg.eigh(A)
    return Eigensystem(values, vectors)


def _clipped_spectrum(M: np.ndarray) -> Eigensystem:
    """Eigensystem with round-off negatives clipped to 0; NotPSD below -1e-10."""
    values, vectors = eig_hermitian(M)
    if values[0] < -PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {values[0]:.3e} below -{PSD_TOL:.0e}")
    return Eigensystem(np.maximum(values, 0.0), vectors)


def roundoff_level(values: np.ndarray) -> np.ndarray:
    """eigh's round-off level d * eps * lambda_max for ascending eigenvalues
    along the last axis, with a trailing axis so that it broadcasts against
    them.  A computed eigenvalue at or below it is indistinguishable from 0."""
    return values.shape[-1] * np.finfo(float).eps * np.maximum(values[..., -1:], 0.0)


def matrix_power(M: np.ndarray, p: float) -> np.ndarray:
    """Spectral power M^p of a PSD matrix.

    For p > 0 this is the ordinary fractional power, with eigenvalues at or
    below eigh's round-off level taken as 0: a round-off eigenvalue of 1e-17
    would otherwise become about 1e-5 at p = 0.3.  For p <= 0 the power is
    taken on the support only (eigenvalues at or below the relative cutoff
    map to 0), i.e. a pseudo-power M^p restricted to range(M).
    """
    return spectral_power(_clipped_spectrum(M), p)


def spectral_power(spectrum: Eigensystem, p: float) -> np.ndarray:
    """`matrix_power` from an already clipped eigensystem."""
    values, vectors = spectrum
    if p > 0:
        pos = values > roundoff_level(values)
    else:
        pos = values > SUPPORT_CUTOFF * max(float(values[-1]), 0.0)
    out = np.zeros_like(values)
    out[pos] = values[pos] ** p
    return (vectors * out) @ dagger(vectors)


def matrix_log(M: np.ndarray) -> np.ndarray:
    """Spectral log of a PSD matrix on its support; zero eigenvalues are skipped."""
    values, vectors = _clipped_spectrum(M)
    cut = SUPPORT_CUTOFF * max(float(values[-1]), 0.0)
    out = np.zeros_like(values)
    pos = values > cut
    out[pos] = np.log(values[pos])
    return (vectors * out) @ dagger(vectors)


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
    """Check the density-matrix invariants and return the matrix unchanged.

    Raises NonHermitian, NotPSD or TraceNotOne naming the violated invariant
    and the measured residual.
    """
    A = as_complex_matrix(M)
    res = hermiticity_residual(A)
    if res > HERMITIAN_TOL:
        raise NonHermitian(f"Hermiticity residual {res:.3e} exceeds {HERMITIAN_TOL:.0e}")
    lo = float(np.linalg.eigvalsh(A)[0])
    if lo < -PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {lo:.3e} below -{PSD_TOL:.0e}")
    _check_trace(A)
    return A


def density_spectrum(M: np.ndarray) -> Eigensystem:
    """`validate_density` and `_clipped_spectrum` on one eigh: the checks,
    tolerances and errors of the former, in its order, then the eigensystem
    with round-off negatives clipped to 0."""
    A = as_complex_matrix(M)
    spectrum = _clipped_spectrum(A)
    _check_trace(A)
    return spectrum


def _check_trace(A: np.ndarray) -> None:
    tr = complex(np.trace(A))
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")


def matrix_to_json(M: np.ndarray) -> dict:
    """Encode a complex matrix as {"re": [[...]], "im": [[...]]}."""
    A = np.asarray(M, dtype=complex)
    return {"re": A.real.tolist(), "im": A.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the {"re", "im"} wire format back into a complex matrix."""
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from None
    if re.shape != im.shape:
        raise ValueError(f"re/im shapes differ: {re.shape} vs {im.shape}")
    return as_complex_matrix(re + 1j * im)
