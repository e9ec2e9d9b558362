"""Entropies and the optimization-free resource measure.

The measure of a state rho with respect to a certified map E is the Tsallis
relative entropy distance from rho to the fixed-point set of E.  The minimum
has a closed form, so no optimizer is involved: for a != 1

    value = (Tr (E(rho^a))^{1/a} - 1) / (a - 1),    N = Tr (E(rho^a))^{1/a},

attained at sigma* = (E(rho^a))^{1/a} / N; at a = 1 the value is
S(E(rho)) - S(rho) with sigma* = E(rho).  Entropies are in nats.

E(rho^a) is block diagonal in the map's own basis, so a partition map takes
the 1/a-th power, and the spectrum of E(rho) at a = 1, block by block
(`QuantumChannel.spectral_image`).  For coherence this is Zhao et al.'s
Tsallis measure, N = sum_i <i|rho^a|i>^{1/a}, a sum over the diagonal.  The
round-off rule is global: an eigenvalue of E(rho^a) at or below
d * eps * lambda_max, with lambda_max taken over every block, counts as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ResourceDestroyingMap
from .errors import DimensionMismatch, InfiniteValue, ValidationError

ENTROPY_CUTOFF = 1e-12
SUPPORT_LEAK_TOL = 1e-10
FIXED_POINT_TOL = 1e-8


def validate_order(a: float) -> float:
    """Tsallis order: a in (0, 2], a = 1 handled as the limiting branch."""
    a = float(a)
    if not (0.0 < a <= 2.0) or not math.isfinite(a):
        raise ValidationError(f"order a must lie in (0, 2], got {a}")
    return a


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum lam ln lam over eigenvalues above 1e-12, in nats."""
    return _entropy(linalg.eig_hermitian(rho).values)


def _entropy(values: np.ndarray) -> float:
    w = values[values > ENTROPY_CUTOFF]
    return float(-np.sum(w * np.log(w)))


def _support_leak(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Weight of rho outside the support of sigma."""
    P = linalg.support_projector(sigma)
    return float(np.trace(rho).real - np.trace(P @ rho @ P).real)


def tsallis_relative_entropy(rho: np.ndarray, sigma: np.ndarray, a: float) -> float:
    """S~_a(rho|sigma), the Tsallis relative entropy of order a in (0, 2].

    a != 1: ((Tr rho^a sigma^{1-a})^{1/a} - 1)/(a - 1), with sigma^{1-a} the
    support pseudo-power when 1 - a < 0.  a = 1: Tr rho (ln rho - ln sigma)
    with 0 ln 0 = 0.  Returns +inf when a >= 1 and supp(rho) is not contained
    in supp(sigma); always finite for a < 1.
    """
    a = validate_order(a)
    A = linalg.as_complex_matrix(rho)
    B = linalg.as_complex_matrix(sigma)
    if A.shape != B.shape:
        raise DimensionMismatch(f"states have shapes {A.shape} and {B.shape}")
    if a >= 1.0 and _support_leak(A, B) > SUPPORT_LEAK_TOL:
        return math.inf
    if a == 1.0:
        la = linalg.matrix_log(A)
        lb = linalg.matrix_log(B)
        return float(np.trace(A @ (la - lb)).real)
    T = float(np.trace(linalg.matrix_power(A, a) @ linalg.matrix_power(B, 1.0 - a)).real)
    T = max(T, 0.0)
    return (T ** (1.0 / a) - 1.0) / (a - 1.0)


@dataclass
class MeasureReport:
    """closed_form_measure output: the measure value, the Tsallis order, the
    trace term N = Tr (E(rho^a))^{1/a} (1 by convention at a = 1), the
    explicit minimizer, and ||E(sigma*) - sigma*||_F."""

    value: float
    a: float
    N: float
    sigma_star: np.ndarray
    fixed_point_residual: float


def closed_form_measure(rho: np.ndarray, rdm: ResourceDestroyingMap, a: float) -> MeasureReport:
    """Distance from rho to Fix(E) without optimization.

    Evaluates the closed form literally: rho^a, the 1/a-th power of its image
    under E, and a trace.  rho is coerced and checked once, and one
    eigendecomposition of rho serves its validation and rho^a (or S(rho)).
    The power of E(rho^a), and at a = 1 the spectrum of E(rho) for
    S(E(rho)), come from `spectral_image`: a partition map takes them on
    its blocks, with no d x d eigh, and other maps on the dense image.
    Either way an eigenvalue at or below d * eps * lambda_max, lambda_max
    the largest eigenvalue of the whole image, counts as 0 in the power.
    The a = 1 branch is exact, not a numerical limit; callers wanting
    stability at |a - 1| < 1e-6 must request a = 1 explicitly.
    """
    a = validate_order(a)
    A = linalg.as_complex_matrix(rho)
    spectrum = linalg.density_spectrum(A)
    if A.shape[0] != rdm.dim:
        raise DimensionMismatch(
            f"state dimension {A.shape[0]} does not match map dimension {rdm.dim}"
        )
    if a == 1.0:
        sigma_star = rdm.apply(A)
        value = _entropy(rdm.spectral_image(A)) - _entropy(spectrum.values)
        N = 1.0
    else:
        X = rdm.spectral_image(linalg.spectral_power(spectrum, a), 1.0 / a)
        N = float(np.trace(X).real)
        value = (N - 1.0) / (a - 1.0)
        sigma_star = X / N
    residual = linalg.frobenius(rdm.apply(sigma_star) - sigma_star)
    return MeasureReport(value=value, a=a, N=N, sigma_star=sigma_star,
                         fixed_point_residual=residual)


def decomposition_identity_residual(rho: np.ndarray, sigma: np.ndarray,
                                    rdm: ResourceDestroyingMap, a: float) -> float:
    """|LHS - RHS| of the exact decomposition over the free set, a != 1:

        S~_a(rho|sigma) = (N - 1)/(a - 1) + N * S~_a(sigma*|sigma)

    for any fixed point sigma of E.  The first term is the measure value and
    does not depend on sigma; the factor N on the second term makes the
    identity exact (drop it and the residual is O(N - 1), not round-off).
    """
    a = validate_order(a)
    if a == 1.0:
        raise ValidationError("the decomposition identity is stated for a != 1")
    fp = linalg.frobenius(rdm.apply(np.asarray(sigma, dtype=complex)) - sigma)
    if fp > FIXED_POINT_TOL:
        raise ValidationError(
            f"sigma is not a fixed point: residual {fp:.3e} exceeds {FIXED_POINT_TOL:.0e}"
        )
    lhs = tsallis_relative_entropy(rho, sigma, a)
    rep = closed_form_measure(rho, rdm, a)
    tail = tsallis_relative_entropy(rep.sigma_star, sigma, a)
    if not (math.isfinite(lhs) and math.isfinite(tail)):
        raise InfiniteValue("both sides must be finite to compare")
    return abs(lhs - (rep.value + rep.N * tail))


def report_to_json(report: MeasureReport) -> dict:
    """Wire format; non-finite values become the string \"inf\"."""
    value = report.value if math.isfinite(report.value) else "inf"
    return {
        "value": value,
        "a": report.a,
        "N": report.N,
        "sigma_star": linalg.matrix_to_json(report.sigma_star),
        "fixed_point_residual": report.fixed_point_residual,
    }


def report_from_json(obj: dict) -> MeasureReport:
    value = obj["value"]
    return MeasureReport(
        value=math.inf if value == "inf" else float(value),
        a=float(obj["a"]),
        N=float(obj["N"]),
        sigma_star=linalg.matrix_from_json(obj["sigma_star"]),
        fixed_point_residual=float(obj["fixed_point_residual"]),
    )
