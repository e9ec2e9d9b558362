"""Brute-force minimization oracle for certifying the closed form.

Minimizes S~_a(rho|sigma) over sigma in Fix(E) by a quasi-Newton search on
an unconstrained parameterization of the fixed points.  For a unital,
trace-preserving, idempotent E, Fix(E) = range(S) is a unital *-algebra
(the commutant of the Kraus operators), so every full-rank free state is
exp(H) / Tr exp(H) for a traceless Hermitian H in Fix(E): the traceless
part of log sigma.  The search therefore runs over the real coordinates of
H in a Hilbert-Schmidt-orthonormal basis of the traceless Hermitian part
of Fix(E): r - 1 parameters, r = dim Fix(E) (d - 1 for dephasing and the
cyclic twirl, none for complete mixing).  The objective is convex in sigma
(Lieb 1973; Ando 1979), so mixing a minimizer with a little of I/d shows
that the infimum over full-rank free states is the minimum over all of
them.  Fix(E) being a *-algebra, exp(H) / Tr exp(H) is itself free, so the
search scores it directly, value and gradient from the one eigh of H; the
gradient is the Daleckii-Krein derivative of the objective in H's
eigenbasis (Bhatia, Matrix Analysis, 1997, ch. V), contracted with the
basis.  Only the winner is mapped through E, which makes the reported
minimizer a fixed point by construction, and scored again by
tsallis_relative_entropy.  This module never evaluates the closed form,
and the search shares no code with it: callers take the gap themselves,
and agreement between the two is evidence, not circularity.

minimize_batch solves many problems of one dimension together: every
restart of every problem, whatever its r, is a row of one padded stack
that one lockstep BFGS search (Nocedal & Wright, Numerical Optimization,
2006, ch. 6) advances, so each iteration and each backtracking step pays
one objective call for the whole batch.  Each result is bit-identical to
solving its problem alone.  simplex_minimize, a derivative-free
Nelder-Mead, is kept as an independent reference search.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ResourceDestroyingMap
from .errors import NoFiniteObjective, ValidationError
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
    dim Fix(E); the search ran over r - 1 real parameters (none at r = 1,
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


def free_algebra_basis(rdm: ResourceDestroyingMap) -> np.ndarray:
    """A Hilbert-Schmidt-orthonormal basis of the traceless Hermitian part of
    range(S) = Fix(E), as an (r - 1, d, d) stack of Hermitian matrices,
    r = dim Fix(E).

    range(S) comes from the left singular vectors of the superoperator whose
    singular values pass numpy's matrix_rank rule (above s_max * d^2 * eps),
    so r is the numerical rank of S.  For a certified map range(S) is a
    unital *-algebra: the Hermitian and anti-Hermitian parts of those
    vectors span its Hermitian part, which holds I.  With the identity
    component removed, an SVD of their real coordinates gives the basis,
    and together with I / sqrt(d) it spans range(S).
    """
    d = rdm.dim
    U, s, _ = np.linalg.svd(rdm.superop)
    r = int(np.count_nonzero(s > s[0] * d * d * np.finfo(float).eps))
    if r == 0:
        raise ValidationError("the map has no nonzero fixed point")
    # columns of U are column-stacked matrices
    B = U[:, :r].T.reshape(r, d, d).transpose(0, 2, 1)
    Bh = B.conj().transpose(0, 2, 1)
    herm = np.concatenate([B + Bh, 1j * (B - Bh)]) / 2
    herm -= np.trace(herm, axis1=1, axis2=2).real[:, None, None] * np.eye(d) / d
    # the Hilbert-Schmidt inner product of Hermitian matrices is the real
    # dot product of their (real, imaginary) entries; every row has norm at
    # most 1, so the rank rule takes 1 as its scale
    flat = herm.reshape(2 * r, d * d)
    _, s, Vt = np.linalg.svd(np.concatenate([flat.real, flat.imag], axis=1))
    rank = int(np.count_nonzero(s > 2 * d * d * np.finfo(float).eps))
    basis = (Vt[:rank, :d * d] + 1j * Vt[:rank, d * d:]).reshape(rank, d, d)
    # exactly Hermitian, so every real combination is too
    return (basis + basis.conj().transpose(0, 2, 1)) / 2


def _free_state(x: np.ndarray, basis: np.ndarray, rdm: ResourceDestroyingMap) -> np.ndarray:
    h, V = np.linalg.eigh(np.tensordot(x, basis, axes=1))
    e = np.exp(h - h[-1])
    tau = (V * (e / e.sum())) @ V.conj().T
    return rdm.apply(tau)


def parameterize_free_state(x: np.ndarray, rdm: ResourceDestroyingMap) -> np.ndarray:
    """Map a real vector of length r - 1, r = dim Fix(E), to a fixed point of
    the channel.

    x holds the coordinates of a traceless Hermitian H = sum_j x_j B_j in
    the basis B of free_algebra_basis(rdm); tau = exp(H) / Tr exp(H), from
    one eigh of H shifted by its largest eigenvalue, and the output is
    E(tau).  Unconstrained and onto the full-rank free states: sigma is
    reached at the coordinates of the traceless part of log sigma, and the
    zero vector gives I/d.
    """
    basis = free_algebra_basis(rdm)
    z = np.asarray(x, dtype=float).ravel()
    if z.size != len(basis):
        raise ValidationError(f"expected {len(basis)} parameters, got {z.size}")
    return _free_state(z, basis, rdm)


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


def _free_state_objective(problems, bases):
    """Objective (X, rows) -> (values, gradients) over a stack of points,
    each scored for its own problem (rho, rdm, a): S~_a(rho | tau(x)) and
    its gradient in x, with tau(x) = exp(H) / Tr exp(H), H = sum_j x_j B_j
    over that problem's basis (bases[i], the free_algebra_basis of its
    map).

    Problems may have different r: problem i reads the first len(bases[i])
    coordinates of its rows of X, and the rest must be 0; its gradient is 0
    past them too.  Each distinct basis array is stored once, however many
    problems share it.  Points are scored in chunks that keep the gathered
    bases and powers of rho within 256 KiB at the width of the chunk's first
    row, each chunk cut to its widest row; rows that come widest first, as
    minimize_batch orders them, make the first row the widest.  Fix(E) is a
    *-algebra, so tau is already a free state: E(tau) = tau up to round-off,
    and E is not applied here.  Hot path for the search, built for few numpy
    calls per stack: H from the coordinates in one product, the spectrum of
    tau and its eigenvectors from one stacked eigh of H, and the entropy
    from rho^a in that eigenbasis instead of full matrix powers.

    With H = V diag(h) V+, w = softmax(h), Q = V+ rho^a V and c = 1 - a, the
    value at a != 1 is (T^(1/a) - 1) / (a - 1) with T = sum_i w_i^c Q_ii,
    and dT/dH = V [Q o L + (a - 1) T diag(w)] V+, where L is the divided
    difference of h -> w^c: L_ij = c max(w_i^c, w_j^c) expm1(u) / u with
    u = -|c (h_i - h_j)| <= 0 (c w_i^c on the diagonal), a form that neither
    overflows nor cancels.  At a = 1 the value is Tr rho ln rho -
    sum_i Q_ii ln w_i and its derivative in H is tau - rho.  df/dx_j is
    Re Tr(df/dH B_j).

    When every row of a chunk has full support, its smallest weight above
    its cut (matrix_power's round-off level d * eps * w_max for a < 1,
    SUPPORT_CUTOFF * w_max from a = 1 on), the chunk takes the fast path:
    every mask would be all true and the support leak 0, so it sums the
    same terms in the same order with no mask and no sandwich of rho.  On
    the theorem-1 suite nearly every chunk does.  Otherwise masks select the
    a < 1, a = 1 and a > 1 branches and the +inf support barrier, whose
    leak needs the weights of rho itself; the gradient drops the weights the
    value drops, as the derivative at a fixed mask (its divided differences
    between a kept and a dropped weight take the dropped one as 0), and is
    0 at +inf.  Mirrors tsallis_relative_entropy's support conventions and
    matrix_power's round-off rule exactly; a unit test pins the two together
    to 1e-12 and the fast path to the masked one bit for bit.  Every problem
    must have the same dimension.
    """
    if len({B.shape[1:] for B in bases}) != 1:
        raise ValidationError("problems scored together must share one dimension")
    d = bases[0].shape[1]
    dims = np.array([len(B) for B in bases])
    # real coordinates x -> H = sum_j x_j B_j, H flattened row-major: each
    # distinct basis once, stacked, with a zero row last; coordinate j of
    # problem i multiplies row index[i, j], the zero row past its own
    start, flat, size = {}, [], 0
    for B in bases:
        if id(B) not in start:
            start[id(B)] = size
            flat.append(B.reshape(len(B), d * d))
            size += len(B)
    Bx = np.concatenate(flat + [np.zeros((1, d * d), dtype=complex)])
    j = np.arange(dims.max())
    index = np.where(j < dims[:, None], np.array([start[id(B)] for B in bases])[:, None] + j, size)
    a = np.array([float(a) for _, _, a in problems])
    one = a == 1.0
    # square-root factors R of rho and of rho^a (rho at a = 1), R R+ = rho
    # or rho^a, filled in place, from one eigensystem per distinct rho: the
    # weights of rho^a in any basis are sums of squares, never below 0
    R = np.empty((2, len(problems), d, d), dtype=complex)
    rho_ln_rho = np.zeros(len(problems))
    spectra = {}
    for i, (rho, _, ai) in enumerate(problems):
        R[0, i] = rho
        key = R[0, i].tobytes()
        if key not in spectra:
            spectra[key] = linalg.psd_spectrum(R[0, i])
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
        m, width = X.shape
        # the terms x_j B_j coordinate-major, so that the sum over j runs
        # along the outer axis, in order, as a row-by-row sum would
        B = Bx.take(index[rows, :width].T, axis=0)
        h, V = np.linalg.eigh(np.add.reduce(B * X.T[:, :, None], axis=0).reshape(m, d, d))
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
        # Re Tr(G B_j) is the real dot product of their entries, B and G
        # both Hermitian
        grad = np.add.reduce(B.view(float) * G.view(float), axis=2).T
        grad[~np.isfinite(out)] = 0.0
        # the magnitude of the terms f is formed from: each weight Q_ii of
        # rho^a is known to about eps, and enters f times w_i^c df/dT (times
        # ln w_i at a = 1), besides T^(1/a) / (a - 1), known to about eps
        terms = np.where(r1 > 0, np.abs(base) + np.abs(lw_kept).sum(axis=1),
                         Ta / np.abs(den) + np.abs(kappa) * wc.sum(axis=1))
        return out, grad, terms

    def objective(X: np.ndarray, rows: np.ndarray):
        width = dims[rows]
        values, terms = np.empty(rows.size), np.empty(rows.size)
        grads = np.zeros(X.shape)
        lo = 0
        while lo < rows.size:
            hi = lo + max(1, 2**18 // (16 * d * d * int(width[lo]) + R[:, 0].nbytes))
            top = width[lo:hi].max()
            values[lo:hi], grads[lo:hi, :top], terms[lo:hi] = score(X[lo:hi, :top], rows[lo:hi])
            lo = hi
        return values, grads, terms

    return objective


def _runs(dims: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, stop, width) of each run of equal entries of dims."""
    cuts = [0, *(np.flatnonzero(dims[1:] != dims[:-1]) + 1).tolist(), dims.size]
    return [(lo, hi, int(dims[lo])) for lo, hi in zip(cuts[:-1], cuts[1:]) if lo < hi]


def _row_dots(u: np.ndarray, v: np.ndarray, runs) -> np.ndarray:
    """sum_j u[i, j] v[i, j] over each row's own width, one reduce per run."""
    out = np.empty(len(u))
    for lo, hi, w in runs:
        np.add.reduce(u[lo:hi, :w] * v[lo:hi, :w], axis=1, out=out[lo:hi])
    return out


def _reset(Hinv: np.ndarray, which: np.ndarray, dims: np.ndarray) -> None:
    """Set the matrices Hinv[which] to the identity on their own widths."""
    at = np.flatnonzero(which)
    Hinv[at] = 0.0
    j = np.arange(Hinv.shape[-1])
    Hinv[at[:, None], j, j] = j < dims[at, None]


def _bfgs_update(Hinv, s, y, fresh, runs) -> None:
    """The BFGS update of the inverse Hessians Hinv, in place, per run of
    equal width, for the rows with s.y > 0; a fresh (identity) Hinv is
    scaled by s.y / y.y first (Nocedal & Wright, eq. 6.20).  The update
    H - (Hy rs' + rs Hy') + (y.Hy + s.y) rs rs', rs = s / s.y, is
    (I - rho s y') H (I - rho y s') + rho s s' with rho = 1 / s.y, and
    keeps H exactly symmetric."""
    for lo, hi, w in runs:
        if not w:
            continue
        sk, yk = s[lo:hi, :w], y[lo:hi, :w]
        sy = np.add.reduce(sk * yk, axis=1)
        upd = sy > 0
        if not upd.any():
            continue
        sy = np.where(upd, sy, 1.0)
        # a row left out gets rs = 0, which leaves its Hinv as it is
        Hk = Hinv[lo:hi, :w, :w]
        first = fresh[lo:hi] & upd
        if first.any():
            Hk[first] = (sy[first] / np.add.reduce(yk[first] * yk[first], axis=1))[:, None, None] \
                * np.eye(w)
        Hy = np.add.reduce(Hk * yk[:, None, :], axis=2)
        yHy = np.add.reduce(yk * Hy, axis=1)
        rs = np.where(upd[:, None], sk / sy[:, None], 0.0)
        t = Hy[:, :, None] * rs[:, None, :]
        t += t.transpose(0, 2, 1)
        Hk -= t
        np.multiply(rs[:, :, None], rs[:, None, :], out=t)
        t *= (yHy + sy)[:, None, None]
        Hk += t
        fresh[lo:hi] &= ~upd


# the line search: Armijo's sufficient-decrease constant, the largest step
# per coordinate, and the halvings a quasi-Newton step may take before the
# search retries along -g
_ARMIJO = 1e-4
_MAX_STEP = 5.0
_HALVINGS = 8
# the round-off of f per unit of the magnitude of the terms it is formed from
_ROUNDOFF = np.finfo(float).eps
# rows of the inverse Hessian stack moved per step when it is compacted
_COMPACT_ROWS = 64


def _lockstep_bfgs(f, x0: np.ndarray, dims: np.ndarray, tol: np.ndarray,
                   max_iterations: np.ndarray):
    """BFGS with Armijo backtracking on k independent problems advanced in
    lockstep, one padded stack for problems of any parameter count.

    x0 is (k, n); problem i searches the first dims[i] coordinates of its
    row, whose other entries must be 0, and dims must be non-increasing
    (widest problem first).  dims, tol and max_iterations are per-problem
    arrays of length k.  f(X, rows) returns, at the points X (m, n), row i
    belonging to problem rows[i], the values (m,), the gradients (m, n),
    0 past dims[rows[i]], and the magnitude (m,) of the terms each value is
    formed from, whose eps-th part is taken as its round-off; rows come in
    ascending order.

    Each iteration steps along p = -Hinv g from t = min(1, 5 / max|p_j|),
    halving t until f(x + t p) <= f(x) + 1e-4 t g.p; each round of trial
    points is one call of f for every problem still searching.  A quasi-Newton direction that fails
    8 halvings, or is no descent direction, is replaced by -g with Hinv
    reset to the identity; a steepest-descent search halves until it
    succeeds or its predicted decrease -t g.p is within the round-off of
    f(x), where the problem stops.  A problem also stops once its largest
    |g_j| is at most tol[i], and at its iteration cap.

    Problem i's Hinv is the top-left dims[i] x dims[i] block of its (n, n)
    slot, 0 elsewhere; its padded coordinates and gradient entries stay
    exactly 0.  Every product over the coordinate axis (Hinv g, the dot
    products and the BFGS update) runs per run of rows of equal dims, which
    the widest-first order keeps contiguous, on that width alone, so every
    problem sees exactly the arithmetic it would see alone and its endpoint
    does not depend on the other problems of the batch.

    Returns the final point (k, n), value (k,) and largest |g_j| (k,) of
    each problem, with the points it scored (k,), the iterations it ran
    (k,) and whether it stopped at its iteration cap (k,); the stack's own
    iteration count is the largest of them.  A problem with dims[i] = 0
    scores x0 once and stops at iteration 0.
    """
    k, n = x0.shape
    dims = np.asarray(dims, dtype=np.intp)
    if np.any(dims[1:] > dims[:-1]):
        raise ValueError("problems must come widest first")
    evaluations = np.zeros(k, dtype=np.int64)
    iterations = np.zeros(k, dtype=np.int64)
    capped = np.zeros(k, dtype=bool)
    best_x, best_f, best_g = np.empty((k, n)), np.empty(k), np.empty(k)

    rows = np.arange(k)

    def score(X, at):
        evaluations[rows[at]] += 1
        return f(X, rows[at])

    x = np.array(x0, dtype=float)
    fx, g, roundoff = score(x, rows)
    roundoff *= _ROUNDOFF
    Hinv = np.zeros((k, n, n))
    _reset(Hinv, np.ones(k, dtype=bool), dims)
    fresh = np.ones(k, dtype=bool)
    stalled = np.zeros(k, dtype=bool)
    dim, tol, cap = dims, np.asarray(tol, dtype=float), np.asarray(max_iterations)
    runs = _runs(dim)
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
            for lo in range(0, keep.size, _COMPACT_ROWS):
                moved = keep[lo:lo + _COMPACT_ROWS]
                Hinv[lo:lo + moved.size] = Hinv[moved]
            Hinv = Hinv[:keep.size]
            rows, x, fx, g, roundoff, fresh, stalled, dim, tol, cap = (
                v[live] for v in (rows, x, fx, g, roundoff, fresh, stalled, dim, tol, cap))
            runs = _runs(dim)
        if not rows.size:
            return best_x, best_f, best_g, evaluations, iterations, capped
        iteration += 1

        p = np.zeros_like(g)
        for lo, hi, w in runs:
            np.add.reduce(Hinv[lo:hi, :w, :w] * g[lo:hi, None, :w], axis=2, out=p[lo:hi, :w])
        np.negative(p, out=p)
        gp = _row_dots(g, p, runs)
        steepest = -_row_dots(g, g, runs)
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
                _reset(Hinv, retry, dim)
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
        _bfgs_update(Hinv, np.subtract(x, x_old, out=x_old), np.subtract(g, g_old, out=g_old),
                     fresh, runs)


def minimize_batch(problems, configs) -> list[OracleResult]:
    """Direct numerical minimization of the distance to the free set for
    several problems (rho, rdm, a) of one dimension, each with its own
    OracleConfig, solved together.

    Every restart of every problem is a row of one lockstep BFGS search,
    whatever its r = dim Fix(E): problem i searches the first r_i - 1
    coordinates of rows as wide as the largest r - 1 (see _lockstep_bfgs).
    Rows are ordered widest first, so that each objective chunk is cut to
    the width of its first row; results come back in input order, and
    result i equals minimize_over_free_states(*problems[i], configs[i]) bit
    for bit.
    """
    problems = [(rho, rdm, validate_order(a)) for rho, rdm, a in problems]
    if len(configs) != len(problems):
        raise ValidationError(f"{len(problems)} problems but {len(configs)} configs")
    if not problems:
        return []
    if len({rdm.dim for _, rdm, _ in problems}) != 1:
        raise ValidationError("problems solved together must share one dimension")
    # one basis per map, shared by every problem on it
    by_map = {}
    for _, rdm, _ in problems:
        if id(rdm) not in by_map:
            by_map[id(rdm)] = free_algebra_basis(rdm)
    bases = [by_map[id(rdm)] for _, rdm, _ in problems]
    order = sorted(range(len(problems)), key=lambda i: -len(bases[i]))
    solved = _solve(*([seq[i] for i in order] for seq in (problems, bases, configs)))
    results = [None] * len(problems)
    for i, res in zip(order, solved):
        results[i] = res
    return results


def _solve(problems, bases, configs) -> list[OracleResult]:
    """One lockstep search over every restart of every problem, widest
    problem first."""
    dims = np.array([len(B) for B in bases])
    objective = _free_state_objective(problems, bases)
    owner = np.repeat(np.arange(len(problems)), [c.restarts for c in configs])
    # seeded starts near the origin, where sigma is within a few percent of
    # I/d, away from the flat region of near-singular states; zero past
    # each problem's own coordinates
    first = np.cumsum([0] + [c.restarts for c in configs])
    starts = np.zeros((owner.size, int(dims.max())))
    for i, c in enumerate(configs):
        starts[first[i]:first[i + 1], :dims[i]] = 0.1 * np.random.default_rng(
            c.seed).standard_normal((c.restarts, dims[i]))

    def f(X, rows):
        return objective(X, owner[rows])

    x, fx, grad_norm, evals, iters, capped = _lockstep_bfgs(
        f, starts, dims[owner], np.array([configs[i].tol for i in owner]),
        np.array([configs[i].max_iterations for i in owner]))
    stack_iterations = int(iters.max())

    results = []
    for i, ((rho, rdm, a), basis) in enumerate(zip(problems, bases)):
        mine = np.arange(first[i], first[i + 1])
        finals = fx[mine]
        win = int(np.argmin(finals))
        best_f = finals[win]
        # the search scored exp(H) / Tr exp(H); the reported minimizer is
        # its image under E, a fixed point by construction, scored afresh
        sigma = _free_state(x[mine[win], :dims[i]], basis, rdm)
        agreeing = int(np.count_nonzero(finals <= best_f + AGREEMENT_WINDOW))
        value = tsallis_relative_entropy(rho, sigma, a)
        if value == math.inf:
            raise NoFiniteObjective(
                f"objective is +inf at the image of the best point found (a={a}); "
                "support pathology in the free set")
        results.append(OracleResult(
            value=value, sigma_min=sigma, restarts_agreeing=agreeing,
            evaluations=int(evals[mine].sum()), iterations=int(iters[mine[win]]),
            stop_reason="iteration_cap" if capped[mine[win]] else "tolerance",
            cap_hits=int(capped[mine].sum()), free_dim=len(basis) + 1,
            stack_iterations=stack_iterations, grad_norm=float(grad_norm[mine[win]])))
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
