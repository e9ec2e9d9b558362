"""Entropies and the optimization-free resource measure.

The measure of a state rho with respect to a certified map E is the Tsallis
relative entropy distance from rho to the fixed-point set of E.  The minimum
has a closed form, so no optimizer is involved: for a != 1

    value = (Tr (E(rho^a))^{1/a} - 1) / (a - 1),    N = Tr (E(rho^a))^{1/a},

attained at sigma* = (E(rho^a))^{1/a} / N; at a = 1 the value is
S(E(rho)) - S(rho) with sigma* = E(rho).  Entropies are in nats.

E(rho^a) is block diagonal in the map's own basis, so a partition map takes
the 1/a-th power, and at a = 1 the spectrum of E(rho) and sigma* = E(rho),
block by block, straight from rho's eigensystem V diag(p) V^dag
(`QuantumChannel.spectral_image`), and what does not depend on a, rho's
support for the weights p^a included, is read once per state, as the map's
frame of that eigensystem.  For coherence this
is Zhao et al.'s Tsallis measure, N = sum_i <i|rho^a|i>^{1/a} with
<i|rho^a|i> = sum_j |V_ij|^2 p_j^a, a sum over the diagonal.  The
round-off rule is global: an eigenvalue of E(rho^a) at or below
d * eps * lambda_max, with lambda_max taken over every block, counts as 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ResourceDestroyingMap
from .errors import CertificationError, DimensionMismatch, InfiniteValue, ValidationError

SUPPORT_LEAK_TOL = 1e-10
FIXED_POINT_TOL = 1e-8


def validate_order(a: float) -> float:
    """Tsallis order: a real number in (0, 2], a = 1 handled as the limiting
    branch.  A bool, a string or any other non-real value is a
    ValidationError naming the order, as is one outside the range; numpy
    real scalars are accepted."""
    if isinstance(a, bool) or not isinstance(a, numbers.Real):
        raise ValidationError(f"order a must be a real number, got {a!r:.60}")
    a = float(a)
    if not (0.0 < a <= 2.0) or not math.isfinite(a):
        raise ValidationError(f"order a must lie in (0, 2], got {a}")
    return a


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum lam ln lam over the eigenvalues that matrix_log keeps, those
    above 1e-12 * lambda_max, in nats.  rho must be PSD: NonHermitian above
    a 1e-10 residual, NotPSD below -1e-10."""
    return _entropy(linalg.psd_spectrum(rho).values)


def _entropy(values: np.ndarray) -> float:
    w = values[linalg.power_values(values, 0.0) > 0]
    return float(-np.sum(w * np.log(w)))


def tsallis_relative_entropy(rho: np.ndarray, sigma: np.ndarray, a: float) -> float:
    """S~_a(rho|sigma), the Tsallis relative entropy of order a in (0, 2].

    a != 1: ((Tr rho^a sigma^{1-a})^{1/a} - 1)/(a - 1), with sigma^{1-a} the
    support pseudo-power when 1 - a < 0.  a = 1: Tr rho (ln rho - ln sigma)
    with 0 ln 0 = 0.  Returns +inf when a >= 1 and supp(rho) is not contained
    in supp(sigma); always finite for a < 1.  A one-row call of
    `tsallis_relative_entropies`, which holds the computation.
    """
    return float(tsallis_relative_entropies([rho], [sigma], [a])[0])


def tsallis_relative_entropies(rhos, sigmas, orders) -> np.ndarray:
    """S~_a(rho_i|sigma_i) at order a_i (see `tsallis_relative_entropy`) for
    every row of two (n, d, d) stacks at once.  Each row equals the
    one-row call bit for bit, whatever the other rows hold.

    Every order goes through validate_order; states that are not square
    stacks of one shape, or hold a non-finite entry, are a ValueError or
    DimensionMismatch, and a matrix that is not PSD is NonHermitian or
    NotPSD, as for one state.  One stacked eigh of the sigmas and one of
    the rhos serve the support check and the powers.  At a != 1 the trace
    is taken as T = sum_i w_i^{1-a} ||R^dag v_i||^2, with (w_i, v_i) the
    eigensystem of sigma and R R^dag = rho^a, under matrix_power's cut
    rules: each term is a weight times a sum of squares, so a tiny w_i next
    to a singular sigma costs no more than its own round-off, where a
    product of the two matrix powers loses about eps / w_min at a > 1.
    Rows are grouped by order, so that every power call has one exponent;
    every sum is a reduce within its row.  This shares no code with the
    oracle's fused objective, so a rescore by it checks the search.
    """
    grid = [validate_order(a) for a in orders]
    orders = np.array(grid)
    A = linalg.as_complex_matrix(rhos, 3)
    B = linalg.as_complex_matrix(sigmas, 3)
    if A.shape != B.shape:
        raise DimensionMismatch(f"states have shapes {A.shape[1:]} and {B.shape[1:]}")
    if orders.shape != (len(A),):
        raise ValidationError(f"{len(A)} pairs of states but {orders.size} orders")
    out = np.empty(len(A))
    if not len(A):
        return out
    sigma_values, sigma_vectors = linalg._clipped_spectrum(B)
    rho_values, rho_vectors = linalg._clipped_spectrum(A)
    distinct = dict.fromkeys(grid)
    for a in distinct:
        # one order takes every row as it is, with no gathered copy
        rows = np.flatnonzero(orders == a) if len(distinct) > 1 else slice(None)
        w, U = sigma_values[rows], sigma_vectors[rows]
        if a == 1.0:
            ln = (linalg.spectral_log((rho_values[rows], rho_vectors[rows]))
                  - linalg.spectral_log((w, U)))
            out[rows] = np.trace(A[rows] @ ln, axis1=1, axis2=2).real
        else:
            R = rho_vectors[rows] * np.sqrt(linalg.power_values(rho_values[rows], a))[:, None, :]
            M = linalg.dagger(R) @ U
            norms = (M.real * M.real + M.imag * M.imag).sum(axis=1)
            T = np.maximum((linalg.power_values(w, 1.0 - a) * norms).sum(axis=1), 0.0)
            out[rows] = (T ** (1.0 / a) - 1.0) / (a - 1.0)
    # from a = 1 on, +inf where the weight of rho outside the support of
    # sigma, the span of the eigenvectors whose eigenvalues pass the support
    # cut, exceeds the tolerance
    high = orders >= 1.0
    if high.any():
        at = slice(None) if high.all() else high
        w, U, rho = sigma_values[at], sigma_vectors[at], A[at]
        kept = linalg.power_values(w, 0.0) > 0
        inside = (linalg.dagger(U) @ rho @ U).diagonal(axis1=1, axis2=2).real
        leak = np.trace(rho, axis1=1, axis2=2).real - np.where(kept, inside, 0.0).sum(axis=1)
        out[np.flatnonzero(high)[leak > SUPPORT_LEAK_TOL]] = math.inf
    return out


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


def _check_image_trace(trace: float, a: float) -> None:
    """CertificationError when the image of rho^a under E, raised to 1/a,
    has no positive trace, which a trace-preserving map cannot produce:
    sigma* would be 0 / 0."""
    if not trace > 0.0:
        what = "E(rho)" if a == 1.0 else f"E(rho^{a:g})^(1/{a:g})"
        raise CertificationError(
            f"Tr {what} = {trace:.3e}: the map is not trace preserving on this state")


def _power_is_projector(values: np.ndarray, a: float) -> bool:
    """Whether rho^a, from rho's ascending eigenvalues, rounds to the
    projector onto rho's support while rho is not one: at least two
    eigenvalues lie above the round-off cut, so each lies below 1, and
    every one of them has p^a == 1.0.  The true rho^a then differs from the
    projector by O(a ln p), which rounding has lost.  A pure state is its
    own support projector, so nothing is lost for it."""
    live = values[linalg.power_values(values, 1.0) > 0]
    return live.size > 1 and bool(np.all(live ** a == 1.0))


def closed_form_measure(rho: np.ndarray, rdm: ResourceDestroyingMap, a: float) -> MeasureReport:
    """Distance from rho to Fix(E) without optimization.

    Evaluates the closed form: rho^a, the 1/a-th power of its image under
    E, and a trace.  rho, any array-like, goes straight to
    `linalg.density_spectrum`, which checks it and returns the one
    eigendecomposition V diag(p) V^dag that serves its validation, rho^a
    and S(rho).  It remembers the last state it validated and reads that
    memo first: consecutive calls on a byte-identical rho (a sweep over
    orders, a nested-list copy, or a call after `validate_density` on the
    same array) cost one compare of its bytes after the first, and any
    other rho is checked and decomposed afresh, with bit-identical results
    either way.  rho^a is never formed as a d x d matrix: the map's
    `_spectral_image` takes the already checked
    eigensystem, as the `Eigensystem` object `density_spectrum` returned,
    with the weights p^a (`_power_weights`, `linalg.power_values(p, a)` bit
    for bit), and returns the 1/a-th power of E(rho^a).  A partition map
    takes it on its blocks, with no d x d eigh, and other maps on the dense
    image.  A partition map reads its frame of rho (U = W^dag V, |U_S|^2,
    the kept blocks' rows of U and rho's support for positive powers, none
    of which depend on a) once per eigensystem object: the frame is one
    entry on the map, keyed on that object's identity and replaced by one
    assignment, so it lives until the map meets another eigensystem.
    Since `density_spectrum` returns the same object for as long as rho is
    its entry, orders 2 to 7 of a sweep pay only the byte compare, one
    masked power for the weights, the block eighs, the power of the image
    and the residual; a call on any other state builds the frame afresh,
    bit for bit the same.  At a = 1 one
    call on (V, p) applies E once and gives both the spectrum of E(rho),
    for S(E(rho)), and sigma* = E(rho), rebuilt from that spectrum.
    Either way an eigenvalue at or below d * eps * lambda_max,
    lambda_max the largest eigenvalue of the whole image, counts as 0 in
    the power.
    A map that is not trace preserving (only an uncertified one) can send
    rho^a to zero trace; that raises CertificationError with the trace.
    An order so small that the 1/a-th power underflows to zero trace while
    E(rho^a) keeps a positive one is the order's fault, not the map's: that
    raises ValidationError naming a.  This check, the only place rho^a is
    formed as a matrix, runs only once N <= 0.
    An order so small that an eigenvalue of E(rho^a), rounded above 1,
    overflows in the 1/a-th power raises the same ValidationError:
    `linalg.power_values` raises OverflowError before numpy would warn.
    So does an order so small that rho^a rounds to the projector onto the
    support of a rho of rank 2 or more (every eigenvalue p has p^a == 1.0):
    N then counts the eigenvalues of E(rho^a) that round to 1, and the
    value reads about -(N - 1).  This check runs only once the value is
    negative, and a pure state, which is its own support projector, passes.
    The a = 1 branch is exact, not a numerical limit; callers wanting
    stability at |a - 1| < 1e-6 must request a = 1 explicitly.
    """
    a = validate_order(a)
    spectrum = linalg.density_spectrum(rho)
    d = spectrum.values.shape[0]
    if d != rdm.dim:
        raise DimensionMismatch(
            f"state dimension {d} does not match map dimension {rdm.dim}"
        )
    if a == 1.0:
        mu, sigma_star = rdm._spectral_image(spectrum, spectrum.values, 1.0)
        _check_image_trace(float(sigma_star.trace().real), a)
        value = _entropy(mu) - _entropy(spectrum.values)
        N = 1.0
    else:
        try:
            _, X = rdm._spectral_image(spectrum, rdm._power_weights(spectrum, a), 1.0 / a)
        except OverflowError:
            raise ValidationError(
                f"order a = {a:g} is too small: an eigenvalue of E(rho^a) rounds "
                f"above 1, and its 1/a-th power overflows") from None
        N = float(X.trace().real)
        if not N > 0.0:
            image_trace = float(np.trace(rdm.apply(linalg.spectral_power(spectrum, a))).real)
            if image_trace > 0.0:
                raise ValidationError(
                    f"order a = {a:g} is too small: Tr E(rho^a) = {image_trace:.3e}, "
                    f"but its 1/a-th power underflows to zero trace")
        _check_image_trace(N, a)
        value = (N - 1.0) / (a - 1.0)
        if value < 0.0 and _power_is_projector(spectrum.values, a):
            raise ValidationError(
                f"order a = {a:g} is too small: every eigenvalue p of rho above round-off "
                f"has p^a == 1.0, so rho^a rounds to its support projector and no digit "
                f"of the order survives")
        sigma_star = X / N
    residual = linalg.frobenius(rdm._act(sigma_star) - sigma_star)
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
