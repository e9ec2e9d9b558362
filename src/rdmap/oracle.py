"""Brute-force minimization oracle for certifying the closed form.

Minimizes S~_a(rho|sigma) over sigma in Fix(E) by a quasi-Newton search on
an unconstrained parameterization of the fixed points.  For a unital,
trace-preserving, idempotent E, Fix(E) is a unital *-algebra (the
commutant of the Kraus operators), so every full-rank free state is
exp(H) / Tr exp(H) for a traceless Hermitian H in Fix(E): the traceless
part of log sigma.  Every problem of dimension d searches the d^2 - 1 real
coordinates of H in one fixed Hilbert-Schmidt-orthonormal basis, the
generalized Gell-Mann matrices Gamma, built once per dimension.  A map
enters the search once, as its frame C (_frame): r - 1 orthonormal columns
of Gell-Mann coordinates, r = dim Fix(E) (d - 1 for dephasing and the
cyclic twirl, none for complete mixing), read off one batched `apply` of E
to Gamma; the projector Pi = C C^T is formed from it where it is used.
Starts and gradients are projected, so a search
never leaves the algebra, and BFGS from a scaled identity takes the same
steps in any orthonormal coordinates.  The objective is convex in sigma
(Lieb 1973; Ando 1979), so the infimum over full-rank free states is the
minimum over all of them.  exp(H) / Tr exp(H) is itself free, so the
search scores it directly, value and gradient from the one eigh of H; the
gradient is the Daleckii-Krein derivative of the objective in H's
eigenbasis (Bhatia, Matrix Analysis, 1997, ch. V).  Only the winner is
mapped through E, which makes the reported minimizer a fixed point by
construction, and scored again by tsallis_relative_entropy.  This module
never evaluates the closed form, and the search shares no code with it:
callers take the gap themselves, and agreement between the two is
evidence, not circularity.

minimize_batch solves many problems of one dimension together: every
restart of every problem, whatever its r, is a row of one stack that one
lockstep BFGS search (Nocedal & Wright, Numerical Optimization, 2006,
ch. 6) advances, one objective call per iteration and per backtracking
step.  Each result is bit-identical to solving its problem alone.
simplex_minimize, a derivative-free Nelder-Mead, is kept as an
independent reference search.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ResourceDestroyingMap
from .errors import DimensionMismatch, NoFiniteObjective, ValidationError
from .measures import SUPPORT_LEAK_TOL, tsallis_relative_entropy, validate_order

AGREEMENT_WINDOW = 1e-6


@dataclass
class OracleConfig:
    """Search budget: seeded random restarts, per-restart iteration cap, and
    the gradient tolerance that stops the search.

    A restart stops on "tolerance" once the largest |df/dx_j| of its point
    is at most tol, or once a backtracking line search fails, after a
    steepest-descent retry, at a predicted decrease within the round-off of
    f; otherwise it stops at max_iterations.  simplex_minimize reads tol as
    the objective spread that stops its simplex.

    restarts, max_iterations and seed are integers (an integral float is
    taken as its int; a bool or a fractional value is refused), restarts
    and max_iterations at least 1 and seed at least 0; tol is a finite
    positive number.  Anything else is a ValidationError naming the field.
    """

    restarts: int = 20
    max_iterations: int = 2000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iterations", 1), ("seed", 0)):
            setattr(self, name, linalg.as_count(getattr(self, name), name, least))
        tol = self.tol
        if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                or not (math.isfinite(tol) and tol > 0)):
            raise ValidationError(f"tol must be finite and positive, got {tol!r:.60}")


@dataclass
class OracleResult:
    """The minimum found, its minimizer, and the work it took:
    evaluations counts the points scored (value and gradient) over every
    restart: each restart's start, then every trial point of its line
    searches.  iterations counts the quasi-Newton iterations of the winning
    restart, stop_reason says why it stopped, "tolerance" or
    "iteration_cap", grad_norm is its final largest |df/dx_j|, and cap_hits
    counts the restarts that stopped at the iteration cap.  free_dim is r =
    dim Fix(E); the search ran along r - 1 free directions (none at r = 1,
    where each restart scores I/d, the only free state, once and stops at
    iteration 0).  stack_iterations is the iteration count of the lockstep
    stack the problem was solved in: the most any of its rows ran."""

    value: float
    sigma_min: np.ndarray
    restarts_agreeing: int
    evaluations: int
    iterations: int
    stop_reason: str
    cap_hits: int
    free_dim: int
    stack_iterations: int
    grad_norm: float


def _gell_mann(d: int) -> np.ndarray:
    """The generalized Gell-Mann matrices, normalized: a fixed
    Hilbert-Schmidt-orthonormal basis of the traceless Hermitian d x d
    matrices, as a (d^2 - 1, d, d) stack.  (|j><k| + |k><j|) / sqrt(2) and
    (i|k><j| - i|j><k|) / sqrt(2) for each j < k, then
    (sum_{j<l} |j><j| - l |l><l|) / sqrt(l (l + 1)) for l = 1, ..., d - 1."""
    j, k = np.triu_indices(d, 1)
    pairs = np.arange(j.size)
    gamma = np.zeros((d * d - 1, d, d), dtype=complex)
    s = math.sqrt(0.5)
    gamma[pairs, j, k], gamma[pairs, k, j] = s, s
    gamma[j.size + pairs, j, k], gamma[j.size + pairs, k, j] = -1j * s, 1j * s
    for l in range(1, d):
        diag = np.r_[np.ones(l), -l] / math.sqrt(l * l + l)
        gamma[2 * j.size + l - 1, range(l + 1), range(l + 1)] = diag
    return gamma


def _frame(rdm: ResourceDestroyingMap, gamma: np.ndarray) -> np.ndarray:
    """The map's frame C, of shape (d^2 - 1, r - 1), r = dim Fix(E):
    orthonormal columns of coordinates, in the Gell-Mann basis gamma, that
    span the traceless Hermitian part of Fix(E).

    P[k, j] = Re Tr Gamma_k E(Gamma_j) comes from one batched `apply`.  For
    a certified map, E and its adjoint are idempotent with the same range,
    so P is the projector Pi = C C^T up to round-off: C holds the
    eigenvectors of its symmetric part with eigenvalue above 1/2."""
    P = np.tensordot(gamma.conj(), rdm.apply(gamma), axes=([1, 2], [1, 2])).real
    values, U = np.linalg.eigh((P + P.T) / 2)
    return U[:, values > 0.5]


def free_algebra_basis(rdm: ResourceDestroyingMap) -> np.ndarray:
    """A Hilbert-Schmidt-orthonormal basis of the traceless Hermitian part of
    Fix(E), as an (r - 1, d, d) stack of Hermitian matrices, r = dim Fix(E):
    B_i = sum_j C[j, i] Gamma_j for the map's frame C (_frame), which
    together with I / sqrt(d) spans Fix(E)."""
    gamma = _gell_mann(rdm.dim)
    basis = np.tensordot(_frame(rdm, gamma).T, gamma, axes=1)
    # exactly Hermitian, so every real combination is too
    return (basis + basis.conj().transpose(0, 2, 1)) / 2


def _free_state(x: np.ndarray, gamma: np.ndarray, rdm: ResourceDestroyingMap) -> np.ndarray:
    """E(exp(H) / Tr exp(H)) for H = sum_j x_j Gamma_j, from one eigh of H
    shifted by its largest eigenvalue.  An eigenvalue more than the float
    range below the largest has weight exactly 0; when the largest
    overflows to +inf, the eigenvalues at +inf share the weight."""
    h, V = np.linalg.eigh(np.tensordot(x, gamma, axes=1))
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(np.where(h == h[-1], 0.0, h - h[-1]))
    tau = (V * (e / e.sum())) @ V.conj().T
    return rdm.apply(tau)


def parameterize_free_state(x: np.ndarray, rdm: ResourceDestroyingMap) -> np.ndarray:
    """Map a real vector of length r - 1, r = dim Fix(E), to a fixed point of
    the channel.

    x holds the coordinates of a traceless Hermitian H = sum_j x_j B_j in
    the basis B of free_algebra_basis(rdm): its Gell-Mann coordinates are
    C x for the map's frame C.  tau = exp(H) / Tr exp(H), and the output is
    E(tau).  Unconstrained and onto the full-rank free states: sigma is
    reached at the coordinates of the traceless part of log sigma, and the
    zero vector gives I/d.  A vector of the wrong length, or with a NaN or
    infinite entry, is a ValidationError.
    """
    gamma = _gell_mann(rdm.dim)
    C = _frame(rdm, gamma)
    z = np.asarray(x, dtype=float).ravel()
    if z.size != C.shape[1]:
        raise ValidationError(f"expected {C.shape[1]} parameters, got {z.size}")
    if not np.isfinite(z).all():
        raise ValidationError("parameters must be finite")
    return _free_state(C @ z, gamma, rdm)


def simplex_minimize(f, x0: np.ndarray, config: OracleConfig,
                     initial_step: float = 0.5):
    """Nelder-Mead with the dimension-adaptive coefficients of Gao and Han
    (standard Nelder-Mead in one dimension).

    Stops when the objective spread over the simplex drops below config.tol
    or at the iteration cap.  Deterministic given x0; +inf objective values
    are legal and act as barriers (they sort last and repel the simplex).
    Returns (best point, best value).
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    # Gao and Han's shrink coefficient 1 - 1/n is 0 at n = 1, which would
    # collapse the simplex onto its best vertex; n = 1 takes the n = 2
    # coefficients, those of standard Nelder-Mead
    m = max(n, 2)
    expand, contract, shrink = 1.0 + 2.0 / m, 0.75 - 1.0 / (2.0 * m), 1.0 - 1.0 / m
    verts = np.repeat(x0.reshape(1, n), n + 1, axis=0)
    verts[np.arange(1, n + 1), np.arange(n)] += initial_step
    fs = np.array([f(v) for v in verts], dtype=float)
    iteration = 0
    while True:
        order = np.argsort(fs, kind="stable")
        verts, fs = verts[order], fs[order]
        # inf - inf is nan when the whole simplex sits on the barrier, and
        # such a simplex keeps iterating
        if (math.isfinite(fs[-1]) and fs[-1] - fs[0] < config.tol) \
                or iteration >= config.max_iterations:
            return verts[0], float(fs[0])
        iteration += 1
        centroid = verts[:n].sum(axis=0) / max(n, 1)
        worst = verts[n]
        xr = centroid + (centroid - worst)
        fr = f(xr)
        if fr < fs[0]:
            x2 = centroid + expand * (xr - centroid)
            f2 = f(x2)
            verts[n], fs[n] = (x2, f2) if f2 < fr else (xr, fr)
        elif fr < fs[n - 1]:
            verts[n], fs[n] = xr, fr
        else:
            # contract outside, towards xr, or inside, towards the worst vertex
            outside = fr < fs[n]
            x2 = centroid + contract * ((xr if outside else worst) - centroid)
            f2 = f(x2)
            if (f2 <= fr) if outside else (f2 < fs[n]):
                verts[n], fs[n] = x2, f2
            else:
                verts[1:] = (verts[1:] - verts[0]) * shrink + verts[0]
                fs[1:] = [f(v) for v in verts[1:]]


def _free_state_objective(problems):
    """(objective, gamma, frames) for problems (rho, rdm, a) of one
    dimension d: the Gell-Mann basis gamma, built once, each problem's
    frame C (_frame), read once per distinct map and shared by its
    problems, and the objective (X, rows) -> (values, gradients, terms) over
    a stack of points, each scored for its own problem: S~_a(rho | tau(x)),
    its gradient in x projected onto that problem's algebra, and the
    magnitude of the terms the value is formed from, with
    tau(x) = exp(H) / Tr exp(H), H = sum_j x_j Gamma_j.

    Row i's gradient is Pi times the full one, Pi = C C^T for its
    problem's frame: df/dx_j = Re Tr(df/dH sum_k Pi_jk Gamma_k), that sum
    stored once per distinct map.  A state that is not d x d is
    DimensionMismatch; each distinct one is decomposed once, by
    linalg.density_spectrum, which refuses one that is not a density
    matrix.  Points are scored in chunks that keep the gathered projected
    basis and powers of rho within 256 KiB.  For x in the span of Pi, tau
    is already free, and E is not applied.  Hot path for the search: H from
    the coordinates in one product, tau's spectrum and eigenvectors from
    one stacked eigh of H, and the entropy from rho^a in that eigenbasis.

    With H = V diag(h) V+, w = softmax(h), Q = V+ rho^a V and c = 1 - a, the
    value at a != 1 is (T^(1/a) - 1) / (a - 1) with T = sum_i w_i^c Q_ii,
    and dT/dH = V [Q o L + (a - 1) T diag(w)] V+, where L is the divided
    difference of h -> w^c: L_ij = c max(w_i^c, w_j^c) expm1(u) / u with
    u = -|c (h_i - h_j)| <= 0 (c w_i^c on the diagonal), a form that neither
    overflows nor cancels.  At a = 1 the value is Tr rho ln rho -
    sum_i Q_ii ln w_i and its derivative in H is tau - rho.

    When every row of a chunk has full support, its smallest weight above
    its cut (matrix_power's round-off level d * eps * w_max for a < 1,
    SUPPORT_CUTOFF * w_max from a = 1 on), the chunk takes the fast path:
    every mask would be all true and the support leak 0, so it sums the
    same terms in the same order with no mask and no sandwich of rho, as
    nearly every chunk of the theorem-1 suite does.  Otherwise masks select
    the a < 1, a = 1 and a > 1 branches and the +inf support barrier; the
    gradient drops the weights the value drops, as the derivative at a fixed
    mask, and is 0 at +inf.  Mirrors tsallis_relative_entropy's support
    conventions and matrix_power's round-off rule exactly; a unit test pins
    the two together to 1e-12 and the fast path to the masked one bit for
    bit.  Every problem must have the same dimension.
    """
    d = problems[0][1].dim
    if any(rdm.dim != d for _, rdm, _ in problems):
        raise ValidationError("problems solved together must share one dimension")
    gamma = _gell_mann(d)
    n = len(gamma)
    # the frame of each distinct map once, its projected basis
    # sum_k Pi_jk Gamma_k as the (real, imaginary) entries of each matrix,
    # and its slot per problem
    maps = {id(rdm): rdm for _, rdm, _ in problems}
    slot = {key: i for i, key in enumerate(maps)}
    distinct = [_frame(rdm, gamma) for rdm in maps.values()]
    projected = np.stack([np.tensordot(C @ C.T, gamma, axes=1)
                          for C in distinct]).reshape(len(slot), n, d * d).view(float)
    which = np.array([slot[id(rdm)] for _, rdm, _ in problems])
    frames = [distinct[i] for i in which]
    flat = gamma.reshape(n, d * d)
    a = np.array([float(a) for _, _, a in problems])
    one = a == 1.0
    # square-root factors R of rho and of rho^a (rho at a = 1), R R+ = rho
    # or rho^a, filled in place, from one checked eigensystem per distinct
    # rho: the weights of rho^a in any basis are sums of squares, never
    # below 0
    R = np.empty((2, len(problems), d, d), dtype=complex)
    rho_ln_rho = np.zeros(len(problems))
    spectra = {}
    for i, (rho, _, ai) in enumerate(problems):
        if np.shape(rho) != (d, d):
            raise DimensionMismatch(f"state has shape {np.shape(rho)}, maps act on {d}x{d}")
        R[0, i] = rho
        key = R[0, i].tobytes()
        if key not in spectra:
            spectra[key] = linalg.density_spectrum(linalg.as_complex_matrix(R[0, i]))
        values, vectors = spectra[key]
        if ai == 1.0:
            rho_ln_rho[i] = np.trace(R[0, i] @ linalg.spectral_log(spectra[key])).real
        R[0, i] = vectors * np.sqrt(values)
        R[1, i] = R[0, i] if ai == 1.0 else vectors * np.sqrt(linalg.power_values(values, ai))
    # per problem: a < 1, a = 1, 1 - a, 1 / a, the denominator a - 1 (1 at
    # a = 1), Tr rho ln rho at a = 1 (0 otherwise), the cut on tau's
    # weights relative to the largest (matrix_power's round-off level
    # d * eps below a = 1, SUPPORT_CUTOFF from a = 1 on), and a
    params = np.stack([a < 1.0, one, 1.0 - a, 1.0 / a, np.where(one, 1.0, a - 1.0), rho_ln_rho,
                       np.where(a < 1.0, d * np.finfo(float).eps, linalg.SUPPORT_CUTOFF), a],
                      axis=1)
    diag = np.arange(d)

    def score(X, rows):
        m = len(X)
        # the terms x_j Gamma_j coordinate-major, so that the sum over j
        # runs along the outer axis, in order, as a row-by-row sum would
        h, V = np.linalg.eigh(np.add.reduce(flat[:, None, :] * X.T[:, :, None], axis=0)
                              .reshape(m, d, d))
        # the spectrum of tau and its log, ascending like h; the shift by
        # the largest eigenvalue keeps exp from overflowing.  Every power
        # below is exp(p ln): numpy's power rounds a row differently when
        # its exponent is the only one in the call (a = 0.5 takes sqrt),
        # which would make a row's bits depend on its batch
        hs = h - h[:, -1:]
        e = np.exp(hs)
        total = e.sum(axis=1, keepdims=True)
        w = e / total
        lw = hs - np.log(total)
        lt1, r1, expo, inv_a, den, base, cut, order = params[rows].T
        Vh = V.conj().transpose(0, 2, 1)
        M = Vh @ R[1, rows]
        Q = M @ M.conj().transpose(0, 2, 1)
        qm = Q.diagonal(axis1=1, axis2=2).real
        keep = None
        if (w[:, 0] > cut * w[:, -1]).all():
            # full support: every weight, the smallest first, passes its
            # row's cut, so every mask below is all true and the leak is 0
            lw_kept = lw
            wc = np.exp(expo[:, None] * lw)
            T = (wc * qm).sum(axis=1)
            mass = qm.sum(axis=1)
        else:
            pos = w > linalg.SUPPORT_CUTOFF * w[:, -1:]
            M = Vh @ R[0, rows]
            leak = np.where(pos, 0.0, (M.real * M.real + M.imag * M.imag).sum(axis=2)).sum(axis=1)
            keep = np.where(lt1[:, None] > 0, w > linalg.roundoff_level(w), pos)
            lw_kept = np.where(pos, lw, 0.0)
            # w^c of a dropped weight is taken as 0, and never formed: it
            # could overflow
            wc = np.where(keep, np.exp(expo[:, None] * np.where(keep, lw, 0.0)), 0.0)
            T = np.where(keep, wc * qm, 0.0).sum(axis=1)
            mass = np.where(pos, qm, 0.0).sum(axis=1)
            # the function of h whose divided differences pair a kept weight
            # with a dropped one: w^c (ln w at a = 1) where kept, 0 where not
            kept_f = np.where(r1[:, None] > 0, lw_kept, wc)
        ln = (qm * lw_kept).sum(axis=1)
        Tg = np.where(T > 0, T, 1.0)
        Ta = np.where(T > 0, np.exp(inv_a * np.log(Tg)), 0.0)
        out = np.where(r1 > 0, base - ln, (Ta - 1.0) / den)
        if keep is not None:
            out[(lt1 == 0) & (leak > SUPPORT_LEAK_TOL)] = math.inf

        # divided differences L of h -> w^c (all ones at a = 1), the stable
        # form for two kept weights
        dh = h[:, :, None] - h[:, None, :]
        u = -np.abs(expo[:, None, None] * dh)
        L = np.divide(np.expm1(u), u, out=np.ones_like(u), where=u < 0)
        L *= expo[:, None, None] * np.maximum(wc[:, :, None], wc[:, None, :])
        L[r1 > 0] = 1.0
        if keep is not None:
            both = keep[:, :, None] & keep[:, None, :]
            mixed = np.divide(kept_f[:, :, None] - kept_f[:, None, :], dh,
                              out=np.zeros_like(dh), where=~both & (dh != 0))
            L = np.where(both, L, mixed)
        # df/dH in H's eigenbasis: kappa Q o L + kappa (a - 1) T diag(w)
        # with kappa = df/dT = T^(1/a - 1) / (a (a - 1)) at a != 1;
        # -Q o L + (sum of kept Q_ii) diag(w) at a = 1
        kappa = np.where(r1 > 0, -1.0, Ta / (Tg * order * den))
        G = Q * (kappa[:, None, None] * L)
        G[:, diag, diag] += np.where(r1 > 0, mass, kappa * den * T)[:, None] * w
        G = (V @ G @ Vh).reshape(m, d * d)
        # Re Tr(G P_j) is the real dot product of their entries, P_j and G
        # both Hermitian
        grad = np.add.reduce(projected[which[rows]] * G.view(float)[:, None, :], axis=2)
        grad[~np.isfinite(out)] = 0.0
        # the magnitude of the terms f is formed from: each weight Q_ii of
        # rho^a is known to about eps, and enters f times w_i^c df/dT (times
        # ln w_i at a = 1), besides T^(1/a) / (a - 1), known to about eps
        terms = np.where(r1 > 0, np.abs(base) + np.abs(lw_kept).sum(axis=1),
                         Ta / np.abs(den) + np.abs(kappa) * wc.sum(axis=1))
        return out, grad, terms

    chunk = max(1, 2**18 // (16 * d * d * n + R[:, 0].nbytes))

    def objective(X: np.ndarray, rows: np.ndarray):
        parts = [score(X[lo:lo + chunk], rows[lo:lo + chunk]) for lo in range(0, rows.size, chunk)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    return objective, gamma, frames


def _bfgs_update(Hinv, s, y, fresh) -> None:
    """The BFGS update of the inverse Hessians Hinv, in place, for the rows
    with s.y > 0; a fresh (identity) Hinv is scaled by s.y / y.y first
    (Nocedal & Wright, eq. 6.20).  The update H - (Hy rs' + rs Hy') +
    (y.Hy + s.y) rs rs', rs = s / s.y, is (I - rho s y') H (I - rho y s') +
    rho s s' with rho = 1 / s.y, and keeps H exactly symmetric."""
    sy = np.add.reduce(s * y, axis=1)
    upd = sy > 0
    if not upd.any():
        return
    sy = np.where(upd, sy, 1.0)
    first = fresh & upd
    if first.any():
        Hinv[first] = (sy[first] / np.add.reduce(y[first] * y[first], axis=1))[:, None, None] \
            * np.eye(Hinv.shape[-1])
    Hy = np.add.reduce(Hinv * y[:, None, :], axis=2)
    yHy = np.add.reduce(y * Hy, axis=1)
    # a row left out gets rs = 0, which leaves its Hinv as it is
    rs = np.where(upd[:, None], s / sy[:, None], 0.0)
    t = Hy[:, :, None] * rs[:, None, :]
    t += t.transpose(0, 2, 1)
    Hinv -= t
    np.multiply(rs[:, :, None], rs[:, None, :], out=t)
    t *= (yHy + sy)[:, None, None]
    Hinv += t
    fresh &= ~upd


# the line search: Armijo's sufficient-decrease constant, the largest step
# per coordinate, and the halvings a quasi-Newton step may take before the
# search retries along -g
_ARMIJO = 1e-4
_MAX_STEP = 5.0
_HALVINGS = 8
# the round-off of f per unit of the magnitude of the terms it is formed from
_ROUNDOFF = np.finfo(float).eps
# the bytes of the inverse Hessians one step moves, multiplies or updates
# at a time, so that no temporary is as large as the stack
_STACK_BLOCK_BYTES = 2**16


def _blocks(Hinv: np.ndarray) -> list[slice]:
    """Slices covering the rows of the stack Hinv, each of at most
    _STACK_BLOCK_BYTES or one row."""
    step = max(1, _STACK_BLOCK_BYTES // max(Hinv[:1].nbytes, 1))
    return [slice(lo, min(lo + step, len(Hinv))) for lo in range(0, len(Hinv), step)]


def _lockstep_bfgs(f, x0: np.ndarray, tol: np.ndarray, max_iterations: np.ndarray):
    """BFGS with Armijo backtracking on k independent problems advanced in
    lockstep, one stack of k rows of n coordinates.

    x0 is (k, n); tol and max_iterations are per-problem arrays of length
    k.  f(X, rows) returns, at the points X (m, n), row i belonging to
    problem rows[i], the values (m,), the gradients (m, n) and the
    magnitude (m,) of the terms each value is formed from, whose eps-th
    part is taken as its round-off; rows come in ascending order.  A
    problem that starts in a subspace and whose gradient f projects onto
    it searches that subspace as it would in its own coordinates.

    Each iteration steps along p = -Hinv g from t = min(1, 5 / max|p_j|),
    halving t until f(x + t p) <= f(x) + 1e-4 t g.p; each round of trial
    points is one call of f for every problem still searching.  A
    quasi-Newton direction that fails 8 halvings, or is no descent
    direction, is replaced by -g with Hinv reset to the identity; a
    steepest-descent search halves until it succeeds or its predicted
    decrease -t g.p is within the round-off of f(x), where the problem
    stops.  A problem also stops once its largest |g_j| is at most tol[i],
    and at its iteration cap.  Every product over the coordinate axis
    (Hinv g, the dot products and the BFGS update) is a reduce per row, so
    every problem sees exactly the arithmetic it would see alone and its
    endpoint does not depend on the other problems of the batch; steps on
    the stack of inverse Hessians run in place, a block of rows at a time.

    Returns each problem's final point, value and largest |g_j|, the points
    it scored, the iterations it ran and whether it stopped at its cap.  A
    problem whose gradient is 0 scores x0 once and stops at iteration 0.
    """
    k, n = x0.shape
    evaluations, iterations = np.zeros((2, k), dtype=np.int64)
    capped = np.zeros(k, dtype=bool)
    best_x, best_f, best_g = np.empty((k, n)), np.empty(k), np.empty(k)
    rows = np.arange(k)

    def score(X, at):
        evaluations[rows[at]] += 1
        return f(X, rows[at])

    x = np.array(x0, dtype=float)
    fx, g, roundoff = score(x, rows)
    roundoff *= _ROUNDOFF
    eye = np.eye(n)
    Hinv = np.tile(eye, (k, 1, 1))
    fresh = np.ones(k, dtype=bool)
    stalled = np.zeros(k, dtype=bool)
    tol, cap = np.asarray(tol, dtype=float), np.asarray(max_iterations)
    iteration = 0
    while True:
        gmax = np.abs(g).max(axis=1, initial=0.0)
        converged = (gmax <= tol) | stalled
        done = converged | (iteration >= cap)
        if done.any():
            ids = rows[done]
            best_x[ids], best_f[ids], best_g[ids] = x[done], fx[done], gmax[done]
            iterations[ids] = iteration
            capped[ids] = ~converged[done]
            live = ~done
            # move the live rows of the inverse Hessians to the front of the
            # stack, a few at a time: a live row only moves to a lower index
            keep = np.flatnonzero(live)
            for at in _blocks(Hinv[:keep.size]):
                Hinv[at] = Hinv[keep[at]]
            Hinv = Hinv[:keep.size]
            rows, x, fx, g, roundoff, fresh, stalled, tol, cap = (
                v[live] for v in (rows, x, fx, g, roundoff, fresh, stalled, tol, cap))
        if not rows.size:
            return best_x, best_f, best_g, evaluations, iterations, capped
        iteration += 1

        p = np.empty_like(g)
        for at in _blocks(Hinv):
            np.add.reduce(Hinv[at] * g[at, None, :], axis=2, out=p[at])
        np.negative(p, out=p)
        gp = np.add.reduce(g * p, axis=1)
        steepest = -np.add.reduce(g * g, axis=1)
        x_old, g_old = x.copy(), g.copy()
        t = np.empty(rows.size)
        sd = fresh.copy()
        halvings = np.zeros(rows.size, dtype=np.int64)
        searching = np.ones(rows.size, dtype=bool)
        begin = searching.copy()
        # a direction that does not descend is replaced by -g at once
        retry = ~(gp < 0)
        while searching.any():
            if retry.any():
                Hinv[retry] = eye
                fresh |= retry
                sd |= retry
                p[retry], gp[retry] = -g[retry], steepest[retry]
                halvings[retry] = 0
                begin |= retry
            t[begin] = np.minimum(1.0, _MAX_STEP / np.abs(p[begin]).max(axis=1))
            begin[:] = False
            at = np.flatnonzero(searching)
            X = x[at] + t[at, None] * p[at]
            ft, gt, terms = score(X, at)
            ok = ft <= fx[at] + _ARMIJO * t[at] * gp[at]
            won = at[ok]
            x[won], fx[won], g[won], roundoff[won] = X[ok], ft[ok], gt[ok], _ROUNDOFF * terms[ok]
            searching[won] = False
            failed = np.zeros(rows.size, dtype=bool)
            failed[at[~ok]] = True
            halvings[failed] += 1
            retry = failed & ~sd & (halvings > _HALVINGS)
            give_up = failed & sd & (-t * gp <= roundoff)
            stalled |= give_up
            searching &= ~give_up
            t = np.where(failed & ~retry & ~give_up, 0.5 * t, t)
        # the steps s and gradient changes y, 0 where a row did not move
        s, y = np.subtract(x, x_old, out=x_old), np.subtract(g, g_old, out=g_old)
        for at in _blocks(Hinv):
            _bfgs_update(Hinv[at], s[at], y[at], fresh[at])


def minimize_batch(problems, configs) -> list[OracleResult]:
    """Direct numerical minimization of the distance to the free set for
    several problems (rho, rdm, a) of one dimension d, each with its own
    OracleConfig, solved together.

    Every restart of every problem, whatever its r = dim Fix(E), is a row of
    one lockstep BFGS search over the d^2 - 1 Gell-Mann coordinates (see
    _lockstep_bfgs), started at Pi z for 0.1-scale Gaussian z drawn from
    the config's seed and searching along the gradient projected by
    Pi = C C^T, C the map's frame.  Result i equals
    minimize_over_free_states(*problems[i], configs[i]) bit for bit.
    _free_state_objective refuses a state that is not a d x d density
    matrix, and problems of different dimensions.
    """
    problems = [(rho, rdm, validate_order(a)) for rho, rdm, a in problems]
    if len(configs) != len(problems):
        raise ValidationError(f"{len(problems)} problems but {len(configs)} configs")
    if not problems:
        return []
    objective, gamma, frames = _free_state_objective(problems)
    owner = np.repeat(np.arange(len(problems)), [c.restarts for c in configs])
    # seeded starts near the origin, where sigma is within a few percent of
    # I/d, away from the flat region of near-singular states
    first = np.cumsum([0] + [c.restarts for c in configs])
    starts = np.empty((owner.size, len(gamma)))
    for i, (c, C) in enumerate(zip(configs, frames)):
        starts[first[i]:first[i + 1]] = 0.1 * np.random.default_rng(c.seed).standard_normal(
            (c.restarts, len(gamma))) @ C @ C.T
    x, fx, grad_norm, evals, iters, capped = _lockstep_bfgs(
        lambda X, rows: objective(X, owner[rows]), starts,
        np.array([configs[i].tol for i in owner]),
        np.array([configs[i].max_iterations for i in owner]))

    results = []
    for i, ((rho, rdm, a), C) in enumerate(zip(problems, frames)):
        mine = np.arange(first[i], first[i + 1])
        finals = fx[mine]
        win = int(np.argmin(finals))
        # the search scored exp(H) / Tr exp(H); the reported minimizer is
        # its image under E, a fixed point by construction, scored afresh
        sigma = _free_state(x[mine[win]], gamma, rdm)
        agreeing = int(np.count_nonzero(finals <= finals[win] + AGREEMENT_WINDOW))
        value = tsallis_relative_entropy(rho, sigma, a)
        if value == math.inf:
            raise NoFiniteObjective(
                f"objective is +inf at the image of the best point found (a={a}); "
                "support pathology in the free set")
        results.append(OracleResult(
            value=value, sigma_min=sigma, restarts_agreeing=agreeing,
            evaluations=int(evals[mine].sum()), iterations=int(iters[mine[win]]),
            stop_reason="iteration_cap" if capped[mine[win]] else "tolerance",
            cap_hits=int(capped[mine].sum()), free_dim=C.shape[1] + 1,
            stack_iterations=int(iters.max()), grad_norm=float(grad_norm[mine[win]])))
    return results


def minimize_over_free_states(rho: np.ndarray, rdm: ResourceDestroyingMap,
                              a: float, config: OracleConfig | None = None) -> OracleResult:
    """Direct numerical minimization of the distance to the free set.

    Runs the quasi-Newton search from `restarts` seeded random starts,
    advanced together by minimize_batch.  The winning point is mapped
    through E and re-evaluated through tsallis_relative_entropy (not the
    fused objective); the closed form is not evaluated, so the gap to it is
    the caller's to take.  restarts_agreeing counts restarts whose best
    value landed within 1e-6 of the winner, making flaky convergence
    visible.
    """
    return minimize_batch([(rho, rdm, a)], [OracleConfig() if config is None else config])[0]
