"""Brute-force minimization oracle for certifying the closed form.

Minimizes S~_a(rho|sigma) over sigma in Fix(E) by a quasi-Newton search on
an unconstrained parameterization of the fixed points.  For a unital,
trace-preserving, idempotent E, Fix(E) is a unital *-algebra (the
commutant of the Kraus operators), so every full-rank free state is
exp(H) / Tr exp(H) for a traceless Hermitian H in Fix(E), the traceless
part of log sigma; the objective is convex in sigma (Lieb 1973; Ando
1979), so the infimum over these is the minimum over all free states.
Every problem of dimension d searches the d^2 - 1 coordinates of H in the
generalized Gell-Mann basis, read and written by index, so no basis is
built.  A certified E is the Hilbert-Schmidt-orthogonal projection onto
Fix(E), so a map enters the search only through `_act`: a start is the
coordinates of E(H), and a gradient those of E(df/dH).  A search thus
never leaves the algebra, and BFGS from a scaled identity takes the same
steps in any orthonormal coordinates of it.  exp(H) / Tr exp(H) is then
free, so the search scores it directly, value and gradient from the one
eigh of H, the gradient the Daleckii-Krein derivative in H's eigenbasis
(Bhatia, Matrix Analysis, 1997, ch. V), with one set of formulas exact
for the full-rank states the search visits: it cuts no weight and draws
no support barrier, and the round-off decisions of linalg and measures
apply only to reported values.  Only the winners are mapped through E,
which makes each reported minimizer a fixed point by construction, and
scored again by the stacked reference tsallis_relative_entropies.  This
module never evaluates the closed form, and the search shares no code with
it: callers take the gap themselves, and agreement between the two is
evidence, not circularity.

minimize_batch solves many problems of one dimension together under one
budget, each from its own seed: every restart of every problem, whatever
its r, is a row of one stack that one lockstep BFGS search (Nocedal &
Wright, Numerical Optimization, 2006, ch. 3 and 6) advances, one
objective call per trial point of its slowest row.  Each result is
bit-identical to solving its problem alone.
simplex_minimize, a derivative-free Nelder-Mead, is kept as an
independent reference search.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ResourceDestroyingMap
from .errors import DimensionMismatch, NoFiniteObjective, ValidationError
from .measures import tsallis_relative_entropies, validate_order

AGREEMENT_WINDOW = 1e-6


@dataclass
class OracleConfig:
    """Search budget: seeded random restarts, per-restart iteration cap, and
    the gradient tolerance that stops the search.  minimize_batch gives a
    whole batch one config, and its seed to every problem given none.

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
    stack the problem was solved in: the most any of its rows ran, and
    stack_calls the objective calls it made, the most points a row scored."""

    value: float
    sigma_min: np.ndarray
    restarts_agreeing: int
    evaluations: int
    iterations: int
    stop_reason: str
    cap_hits: int
    free_dim: int
    stack_iterations: int
    stack_calls: int
    grad_norm: float


@functools.cache
def _layout(d: int) -> tuple:
    """(pairs, signs, diag, l, 1 / sqrt(l (l + 1))), l = 1, ..., d - 1, built
    once per d.  Per off-diagonal coordinate, pairs holds its two floats in
    a flattened d x d complex matrix, Re H_jk and Re H_kj (j < k in numpy's
    triu order), then Im H_kj and Im H_jk, the second with the coordinate's
    sign in signs; diag holds the positions of Re H_jj."""
    j, k = np.triu_indices(d, 1)
    jk, kj = 2 * (d * j + k), 2 * (d * k + j)
    l = np.arange(1, d)
    layout = (np.array([np.r_[jk, kj + 1], np.r_[kj, jk + 1]]), np.repeat([1.0, -1.0], j.size),
              2 * (d + 1) * np.arange(d), l, 1.0 / np.sqrt(l * (l + 1)))
    for part in layout:  # shared by every caller
        part.setflags(write=False)
    return layout


def _hermitian(X: np.ndarray, d: int) -> np.ndarray:
    """H = sum_j x_j Gamma_j for each row x of X, as an (m, d, d) stack, for
    the generalized Gell-Mann matrices Gamma, normalized to a
    Hilbert-Schmidt-orthonormal basis of the traceless Hermitian matrices:
    (|j><k| + |k><j|) / sqrt(2) and (i|k><j| - i|j><k|) / sqrt(2) for each
    j < k, then (sum_{j<l} |j><j| - l |l><l|) / sqrt(l (l + 1)) for
    l = 1, ..., d - 1.  Each entry is set by index (_layout), so no basis is
    built, and a row's H does not depend on the stack it comes in."""
    pairs, signs, diag, l, norm = _layout(d)
    n = signs.size
    H = np.zeros((len(X), 2 * d * d))
    H[:, pairs[0]] = math.sqrt(0.5) * X[:, :n]
    H[:, pairs[1]] = H[:, pairs[0]] * signs
    # H_jj = sum_{l > j} c_l - j c_j with c_l = y_l / sqrt(l (l + 1)), the
    # sum over l a running sum from the end
    c = X[:, n:] * norm
    H[:, diag[:-1]] = np.cumsum(c[:, ::-1], axis=1)[:, ::-1]
    H[:, diag[1:]] -= l * c
    return H.view(complex).reshape(len(X), d, d)


def _coordinates(M: np.ndarray) -> np.ndarray:
    """Re Tr(Gamma_j M) for each matrix M of an (m, d, d) stack, Gamma in
    the order of _hermitian: the coordinates of a traceless Hermitian M, and
    of any M those of its traceless Hermitian part.  Off the diagonal they
    are (Re M_jk + Re M_kj) / sqrt(2) and (Im M_kj - Im M_jk) / sqrt(2), on
    it (sum_{j<l} M_jj - l M_ll) / sqrt(l (l + 1)) with the sum a running
    one, so a multiple of I has coordinates exactly 0 at d <= 4."""
    m, d = len(M), M.shape[-1]
    pairs, signs, diag, l, norm = _layout(d)
    F = np.ascontiguousarray(M, dtype=complex).reshape(m, d * d).view(float)
    re = F[:, diag]
    return np.concatenate([math.sqrt(0.5) * (F[:, pairs[0]] + F[:, pairs[1]] * signs),
                           (np.cumsum(re, axis=1)[:, :-1] - l * re[:, 1:]) * norm], axis=1)


def _free_dim(rdm: ResourceDestroyingMap) -> int:
    """r = dim Fix(E): the trace sum_ab Re E(|a><b|)_ab of E as a linear
    map, which is its rank since E is idempotent.  One `_act` per b, on the
    stack of the d units |a><b|, so that no d^4 stack is formed."""
    d = rdm.dim
    units, trace = np.zeros((d, d, d), dtype=complex), 0.0
    for b in range(d):
        units[:, :, b] = np.eye(d)
        trace += np.trace(rdm._act(units)[:, :, b]).real
        units[:, :, b] = 0.0
    return round(trace)


def _free_state(X: np.ndarray, maps) -> np.ndarray:
    """E_i(exp(H_i) / Tr exp(H_i)) for each row of X, H_i from its Gell-Mann
    coordinates (_hermitian) and E_i the row's map in maps: one stacked
    eigh, each spectrum shifted by its largest eigenvalue, and one `apply`
    per distinct map, on the stack of its rows.  An eigenvalue more than
    the float range below the largest has weight exactly 0; when the
    largest overflows to +inf, the eigenvalues at +inf share the weight."""
    h, V = np.linalg.eigh(_hermitian(X, maps[0].dim))
    top = h[:, -1:]
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(np.where(h == top, 0.0, h - top))
    tau = (V * (e / e.sum(axis=1, keepdims=True))[:, None, :]) @ linalg.dagger(V)
    rows = {}
    for i, rdm in enumerate(maps):
        rows.setdefault(id(rdm), (rdm, []))[1].append(i)
    for rdm, mine in rows.values():
        tau[mine] = rdm.apply(tau[mine])
    return tau


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
    """(objective, project, free_dims) for problems (rho, rdm, a) of one
    dimension d.  objective(X, rows) -> (values, gradients, terms) scores
    each point x of X, in the Gell-Mann coordinates of _hermitian, for
    problem rows[i]: S~_a(rho | tau) with tau = exp(H) / Tr exp(H), which is
    free for x in the algebra, so E is not applied to it; the coordinates of
    E(df/dH), its gradient along the algebra, as a certified E is
    the Hilbert-Schmidt-orthogonal projection onto Fix(E); and the
    magnitude of the terms the value is formed from.  project(M, rows) gives
    the coordinates of E_i(M_i), E_i the map of problem rows[i]: one `_act`
    per distinct map among the rows, on the stack of its rows, found by a
    stable sort of their map slots.  free_dims holds each problem's r
    (_free_dim), read once per distinct map.  A state that is not d x d is
    DimensionMismatch; each distinct one is decomposed once, by
    linalg.density_spectrum, which refuses one that is not a density
    matrix, and raised to each order once.

    With H = V diag(h) V+, w = softmax(h), Q = V+ rho^a V and c = 1 - a, the
    value at a != 1 is (T^(1/a) - 1) / (a - 1) with T = sum_i w_i^c Q_ii,
    and dT/dH = V [Q o L + (a - 1) T diag(w)] V+, where L is the divided
    difference of h -> w^c: L_ij = c max(w_i^c, w_j^c) expm1(u) / u with
    u = -|c (h_i - h_j)| <= 0 (c w_i^c on the diagonal), a form that neither
    overflows nor cancels.  At a = 1 the value is Tr rho ln rho -
    sum_i Q_ii ln w_i and its derivative in H is tau - rho.

    Every point is scored with these formulas.  They are exact for the
    full-rank tau the search visits, however small its smallest weight, so
    no weight is cut and no point is barred for a support it lacks: support
    cuts apply only where a value is reported, when
    tsallis_relative_entropies rescores the winners.  At a > 1, far from
    any minimizer, w^c can overflow; such a point scores +inf with a zero
    gradient and fails its line search.  A unit test pins the value to
    tsallis_relative_entropy to 1e-12 and to S~_a taken straight from
    eigh(H) where tau's smallest weight is below 1e-20 of its largest.
    """
    d = problems[0][1].dim
    if any(rdm.dim != d for _, rdm, _ in problems):
        raise ValidationError("problems solved together must share one dimension")
    for rho, _, _ in problems:
        if np.shape(rho) != (d, d):
            raise DimensionMismatch(f"state has shape {np.shape(rho)}, maps act on {d}x{d}")
    # each distinct map once, its free dimension, and its slot per problem
    maps = list({id(rdm): rdm for _, rdm, _ in problems}.values())
    slot = {id(rdm): i for i, rdm in enumerate(maps)}
    which = np.array([slot[id(rdm)] for _, rdm, _ in problems])
    free_dims = np.array([_free_dim(rdm) for rdm in maps])[which]
    a = np.array([float(a) for _, _, a in problems])
    one = a == 1.0
    # square-root factors R of rho^a (rho at a = 1), R R+ = rho^a, and
    # Tr rho ln rho, per distinct state (by its bytes) and order, gathered
    # by index: rho^a's weights are sums of squares, >= 0
    rhos = np.array([rho for rho, _, _ in problems], dtype=complex)
    seen = {}
    index = np.array([seen.setdefault(rho.tobytes(), len(seen)) for rho in rhos])
    firsts = np.unique(index, return_index=True)[1]
    values, vectors = map(np.stack, zip(*(linalg.density_spectrum(rho)
                                          for rho in rhos[firsts])))
    R = (vectors * np.sqrt(values)[:, None, :])[index]
    for order in dict.fromkeys(ai for _, _, ai in problems if ai != 1.0):
        mine = a == order
        R[mine] = (vectors * np.sqrt(linalg.power_values(values, order))[:, None, :])[index[mine]]
    logs = np.trace(rhos[firsts] @ linalg.spectral_log((values, vectors)), axis1=1, axis2=2).real
    rho_ln_rho = np.where(one, logs[index], 0.0)
    # per problem: a = 1, 1 - a, 1 / a, the denominator a - 1 (1 at a = 1),
    # Tr rho ln rho at a = 1 (0 otherwise), and a
    params = np.stack([one, 1.0 - a, 1.0 / a, np.where(one, 1.0, a - 1.0), rho_ln_rho, a], axis=1)
    diag = np.arange(d)

    def project(M, rows):
        order = np.argsort(which[rows], kind="stable")
        slots = which[rows[order]]
        cuts = (np.flatnonzero(slots[1:] != slots[:-1]) + 1).tolist()
        image = M[order]
        for lo, hi in zip([0] + cuts, cuts + [len(slots)]):
            image[lo:hi] = maps[slots[lo]]._act(image[lo:hi])
        return _coordinates(image)[np.argsort(order)]

    def objective(X, rows):
        h, V = np.linalg.eigh(_hermitian(X, d))
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
        r1, expo, inv_a, den, base, order = params[rows].T
        Vh = V.conj().transpose(0, 2, 1)
        M = Vh @ R[rows]
        Q = M @ M.conj().transpose(0, 2, 1)
        qm = Q.diagonal(axis1=1, axis2=2).real
        # w^c overflows only at a > 1, far from any minimizer; where it
        # meets a weight Q_ii of exactly 0 the sum is NaN, and the point
        # scores +inf, which fails its line search
        with np.errstate(over="ignore", invalid="ignore"):
            wc = np.exp(expo[:, None] * lw)
            T = (wc * qm).sum(axis=1)
            T[np.isnan(T)] = math.inf
            ln = (qm * lw).sum(axis=1)
            Tg = np.where(T > 0, T, 1.0)
            Ta = np.where(T > 0, np.exp(inv_a * np.log(Tg)), 0.0)
            out = np.where(r1 > 0, base - ln, (Ta - 1.0) / den)

            # divided differences L of h -> w^c (all ones at a = 1), in a
            # form that neither overflows nor cancels
            dh = h[:, :, None] - h[:, None, :]
            u = -np.abs(expo[:, None, None] * dh)
            L = np.divide(np.expm1(u), u, out=np.ones_like(u), where=u < 0)
            L *= expo[:, None, None] * np.maximum(wc[:, :, None], wc[:, None, :])
            L[r1 > 0] = 1.0
            # df/dH in H's eigenbasis: kappa Q o L + kappa (a - 1) T diag(w)
            # with kappa = df/dT = T^(1/a - 1) / (a (a - 1)) at a != 1;
            # -Q o L + (sum of Q_ii) diag(w) at a = 1
            kappa = np.where(r1 > 0, -1.0, Ta / (Tg * order * den))
            G = Q * (kappa[:, None, None] * L)
            G[:, diag, diag] += np.where(r1 > 0, qm.sum(axis=1), kappa * den * T)[:, None] * w
            # the magnitude of the terms f is formed from: each weight Q_ii of
            # rho^a is known to about eps, and enters f times w_i^c df/dT (times
            # ln w_i at a = 1), besides T^(1/a) / (a - 1), known to about eps
            terms = np.where(r1 > 0, np.abs(base) + np.abs(lw).sum(axis=1),
                             Ta / np.abs(den) + np.abs(kappa) * wc.sum(axis=1))
        G[~np.isfinite(out)] = 0.0
        return out, project(V @ G @ Vh, rows), terms

    return objective, project, free_dims


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


def _lockstep_bfgs(f, x0: np.ndarray, tol: float, max_iterations: int):
    """BFGS with Armijo backtracking on k independent problems advanced in
    lockstep, one stack of k rows of n coordinates, under one budget.

    x0 is (k, n).  f(X, rows) returns, at the points X (m, n), row i
    belonging to problem rows[i], the values (m,), the gradients (m, n) and
    the magnitude (m,) of the terms each value is formed from, whose eps-th
    part is taken as its round-off; rows come in ascending order.  A
    problem that starts in a subspace and whose gradient f projects onto
    it searches that subspace as it would in its own coordinates.

    Each iteration steps along p = -Hinv g from t = min(1, 5 / max|p_j|),
    halving t until f(x + t p) <= f(x) + 1e-4 t g.p.  A quasi-Newton
    direction that fails 8 halvings, or is no descent direction, is
    replaced by -g with Hinv reset to the identity; a steepest-descent
    search halves until it succeeds or its predicted decrease -t g.p is
    within the round-off of f(x), where the problem stops.  A problem also
    stops once its largest |g_j| is at most tol, and at max_iterations.
    Each problem runs its own line search, and each call of f scores one
    trial point of every problem still searching: one whose point
    passes takes its BFGS update and begins its next iteration or stops,
    the others halve or turn to -g, so the stack makes as many calls as its
    slowest problem scores points.  Every product over the coordinate axis
    (Hinv g, the dot products and the BFGS update) is a reduce per row, so
    every problem sees exactly the arithmetic it would see alone and its
    endpoint does not depend on the other problems of the batch; steps on
    the stack of inverse Hessians run a block of rows at a time.

    Returns each problem's final point, value and largest |g_j|, the points
    it scored, the iterations it ran and whether it stopped at its cap.  A
    problem whose gradient is 0 scores x0 once and stops at iteration 0.
    """
    k, n = x0.shape
    evaluations, iterations = np.zeros((2, k), dtype=np.int64)
    best_x, best_f, best_g = np.empty((k, n)), np.empty(k), np.empty(k)
    rows, x = np.arange(k), np.array(x0, dtype=float)
    fx, g, roundoff = f(x, rows)
    calls, roundoff = 1, roundoff * _ROUNDOFF
    eye = np.eye(n)
    Hinv = np.tile(eye, (k, 1, 1))
    # per row: the step t along p, g.p, the halvings, the iteration, and
    # whether Hinv is the identity (fresh), so that p is -g
    p, t, gp = np.empty((k, n)), np.empty(k), np.empty(k)
    halvings, iteration = np.zeros((2, k), dtype=np.int64)
    fresh, ended = np.ones((2, k), dtype=bool)
    capped, stalled, retry = np.zeros((3, k), dtype=bool)

    def turn(moved, s, y):
        # BFGS updates by the steps s and gradient changes y, then p = -Hinv g
        for at in _blocks(Hinv[:moved.size]):
            mine = moved[at]
            H, renewed = Hinv[mine], fresh[mine]
            _bfgs_update(H, s[at], y[at], renewed)
            p[mine] = -np.add.reduce(H * g[mine, None, :], axis=2)
            Hinv[mine], fresh[mine] = H, renewed

    turn(rows, *np.zeros((2, k, n)))  # no step yet: p = -Hinv g with Hinv = I
    while True:
        # a row whose line search ended stops once converged or stalled, or at its cap
        gmax = np.abs(g).max(axis=1, initial=0.0)
        converged = (gmax <= tol) | stalled
        done = ended & (converged | (iteration >= max_iterations))
        if done.any():
            ids = rows[done]
            best_x[ids], best_f[ids], best_g[ids] = x[done], fx[done], gmax[done]
            evaluations[ids], iterations[ids], capped[ids] = calls, iteration[done], ~converged[done]
            # move the live rows of Hinv forward, a block at a time, in place
            keep = np.flatnonzero(~done)
            for at in _blocks(Hinv[:keep.size]):
                Hinv[at] = Hinv[keep[at]]
            Hinv = Hinv[:keep.size]
            rows, x, fx, g, roundoff, p, t, gp, halvings, iteration, fresh, ended, retry = (
                v[keep] for v in (rows, x, fx, g, roundoff, p, t, gp, halvings, iteration,
                                  fresh, ended, retry))
        if not rows.size:
            return best_x, best_f, best_g, evaluations, iterations, capped
        # the other rows whose search ended begin their next iteration; a
        # direction that does not descend, or a quasi-Newton direction that
        # failed its halvings, is replaced by -g with Hinv reset
        gp = np.where(ended, np.add.reduce(g * p, axis=1), gp)
        iteration += ended
        halvings[ended] = 0
        retry |= ended & ~(gp < 0)
        if retry.any():
            Hinv[retry], fresh[retry], halvings[retry] = eye, True, 0
            p[retry] = -g[retry]
            gp[retry] = -np.add.reduce(g[retry] * g[retry], axis=1)
        begin = ended | retry
        t[begin] = np.minimum(1.0, _MAX_STEP / np.abs(p[begin]).max(axis=1))
        X = x + t[:, None] * p
        ft, gt, terms = f(X, rows)
        calls += 1
        ended = ft <= fx + _ARMIJO * t * gp
        won = np.flatnonzero(ended)
        s, y = X[won] - x[won], gt[won] - g[won]
        x[won], fx[won], g[won], roundoff[won] = X[won], ft[won], gt[won], _ROUNDOFF * terms[won]
        turn(won, s, y)
        # a failed row's p was formed from its Hinv as it stands, so fresh
        # says whether the row searches along -g
        failed = ~ended
        halvings += failed
        retry = failed & ~fresh & (halvings > _HALVINGS)
        stalled = failed & fresh & (-t * gp <= roundoff)
        t[failed & ~retry & ~stalled] *= 0.5
        ended |= stalled


def minimize_batch(problems, config: OracleConfig | None = None,
                   seeds=None) -> list[OracleResult]:
    """Direct numerical minimization of the distance to the free set for
    several problems (rho, rdm, a) of one dimension d, solved together
    under one budget, config's restarts, max_iterations and tol
    (OracleConfig() when None).  seeds[i], an integer >= 0, seeds problem
    i's restarts, and config.seed every problem's when seeds is None; a
    seeds list of another length than problems is a ValidationError.
    Every restart of every problem, whatever its r = dim Fix(E), is a row of
    one lockstep BFGS search over the d^2 - 1 Gell-Mann coordinates, each
    objective call scoring one trial point of every row still searching
    (_lockstep_bfgs; each result's stack_calls counts the calls).  A row
    starts at the coordinates of E(H(0.1 z)) for Gaussian z drawn from its
    problem's seed, H(x) = sum_j x_j Gamma_j, and searches along those of
    E(df/dH).  The winners are mapped through E (_free_state, one `apply`
    per distinct map) and rescored by one call of
    tsallis_relative_entropies.  Each step treats a row alike in any stack,
    so result i equals minimize_over_free_states(*problems[i],
    replace(config, seed=seeds[i])) bit for bit.  _free_state_objective
    refuses a state that is not a d x d density matrix, and problems of
    different dimensions; a winner that scores +inf is NoFiniteObjective,
    naming its order.
    """
    problems = [(rho, rdm, validate_order(a)) for rho, rdm, a in problems]
    config = OracleConfig() if config is None else config
    seeds = ([config.seed] * len(problems) if seeds is None
             else [linalg.as_count(s, "seed", 0) for s in seeds])
    if len(seeds) != len(problems):
        raise ValidationError(f"{len(problems)} problems but {len(seeds)} seeds")
    if not problems:
        return []
    objective, project, free_dims = _free_state_objective(problems)
    d, P, R = problems[0][1].dim, len(problems), config.restarts
    owner = np.repeat(np.arange(P), R)
    # seeded starts near the origin, where sigma is within a few percent of
    # I/d, away from the flat region of near-singular states
    z = np.concatenate([np.random.default_rng(s).standard_normal((R, d * d - 1)) for s in seeds])
    starts = project(_hermitian(0.1 * z, d), owner)
    x, fx, grad_norm, evals, iters, capped = _lockstep_bfgs(
        lambda X, rows: objective(X, owner[rows]), starts, config.tol, config.max_iterations)

    # each problem's winning restart, its restarts being row i of each
    # (P, R) reshape; the search scored exp(H) / Tr exp(H), and the reported
    # minimizer is its image under E, a fixed point by construction, scored
    # afresh, every winner in one stack
    F, counts, caps = fx.reshape(P, R), evals.reshape(P, R), capped.reshape(P, R)
    wins = np.arange(P) * R + np.argmin(F, axis=1)
    sigmas = _free_state(x[wins], [rdm for _, rdm, _ in problems])
    values = tsallis_relative_entropies([rho for rho, _, _ in problems], sigmas,
                                        [a for _, _, a in problems])
    for (_, _, a), value in zip(problems, values):
        if value == math.inf:
            raise NoFiniteObjective(
                f"objective is +inf at the image of the best point found (a={a}); "
                "support pathology in the free set")
    agreeing = np.count_nonzero(F <= fx[wins, None] + AGREEMENT_WINDOW, axis=1)
    return [OracleResult(
        value=float(values[i]), sigma_min=sigmas[i], restarts_agreeing=int(agreeing[i]),
        evaluations=int(counts[i].sum()), iterations=int(iters[win]),
        stop_reason="iteration_cap" if capped[win] else "tolerance",
        cap_hits=int(caps[i].sum()), free_dim=int(free_dims[i]),
        stack_iterations=int(iters.max()), stack_calls=int(evals.max()),
        grad_norm=float(grad_norm[win])) for i, win in enumerate(wins)]


def minimize_over_free_states(rho: np.ndarray, rdm: ResourceDestroyingMap,
                              a: float, config: OracleConfig | None = None) -> OracleResult:
    """Direct numerical minimization of the distance to the free set: the
    minimize_batch of one problem, its `restarts` seeded starts advanced
    together.  The winning point is mapped through E and re-evaluated
    through tsallis_relative_entropies (not the fused objective); the closed
    form is not evaluated, so the gap to it is the caller's to take.
    restarts_agreeing counts restarts whose best value landed within 1e-6
    of the winner, making flaky convergence visible.
    """
    return minimize_batch([(rho, rdm, a)], config)[0]
