"""Brute-force minimization oracle for certifying the closed form.

Minimizes S~_a(rho|sigma) over sigma in Fix(E) by derivative-free search on
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
search scores it directly, from the one eigh of H; only the winner is
mapped through E, which makes the reported minimizer a fixed point by
construction, and scored again by tsallis_relative_entropy.  This module
never evaluates the closed form, and the search shares no code with it:
callers take the gap themselves, and agreement between the two is
evidence, not circularity.

minimize_batch solves many problems of one dimension together: every
restart of every problem, whatever its r, is a row of one padded vertex
stack that one lockstep simplex advances per pass, so each iteration pays
one bookkeeping pass and one objective call per phase for the whole batch.
Each result is bit-identical to solving its problem alone.
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
    the objective-spread tolerance that stops the simplex.

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
    evaluations counts the points scored over every restart and both passes,
    iterations the simplex iterations of the winning restart (both passes),
    stop_reason says why the winning restart's last simplex stopped,
    "tolerance" or "iteration_cap", and cap_hits counts the simplices, over
    every restart and both passes, that stopped at the iteration cap.
    free_dim is r = dim Fix(E); the search ran over r - 1 real parameters
    (none at r = 1, where each pass of each restart scores I/d, the only
    free state, once: 2 points per restart).  stack_iterations holds the
    iterations of the lockstep stack the problem was solved in, one count
    per pass: the most any of its rows ran, which is the number of
    bookkeeping passes the whole batch paid."""

    value: float
    sigma_min: np.ndarray
    restarts_agreeing: int
    evaluations: int
    iterations: int
    stop_reason: str
    cap_hits: int
    free_dim: int
    stack_iterations: tuple[int, int]


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


# the simplex steps that touch whole simplices (scoring the initial one,
# reordering, dropping finished problems and shrinking) run on blocks of
# problems whose vertices fill at most this many bytes
_BLOCK_BYTES = 2**18


def _runs(dims: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, stop, width) of each run of equal entries of dims."""
    cuts = [0, *(np.flatnonzero(dims[1:] != dims[:-1]) + 1).tolist(), dims.size]
    return [(lo, hi, int(dims[lo])) for lo, hi in zip(cuts[:-1], cuts[1:]) if lo < hi]


def _lockstep_simplex(f, x0: np.ndarray, dims: np.ndarray, tol: np.ndarray,
                      max_iterations: np.ndarray, initial_step: float):
    """Nelder-Mead on k independent problems advanced in lockstep, one
    padded vertex stack for problems of any parameter count.

    x0 is (k, n); problem i searches the first dims[i] coordinates of its
    row, whose other entries must be 0, and dims must be non-increasing
    (widest problem first).  dims, tol and max_iterations are per-problem
    arrays of length k, and so are the Gao-Han coefficients.  f(X, rows)
    returns the objective values of the points X (m, n), row i belonging to
    problem rows[i]; rows come in ascending order.  Each phase (reflect,
    expand or contract, shrink) makes one call of f for every problem that
    needs it; the phases that touch whole simplices (the initial one, a
    shrink) make one per block of problems whose vertices fill at most
    _BLOCK_BYTES.  Per-problem masks pick the branch, and a problem leaves
    the active set once its objective spread drops below its tolerance or
    it reaches its iteration cap.

    The vertices live in one (k, n + 1, n) stack.  Problem i owns vertex
    rows 0..dims[i]; the rows past them are padding with f = +inf, never
    scored, which a stable sort keeps last, so its worst vertex is row
    dims[i] and its second worst row dims[i] - 1.  Its padded coordinates
    start at 0 and get no initial step, so they stay exactly 0, and its
    centroid sums its own best dims[i] vertices in rank order: rows stay
    widest first through every compaction, so the rows of each width are
    one contiguous run, and one reduce over the vertex axis per run adds
    them in that order.  Every
    problem therefore sees exactly the arithmetic it would see alone, and
    its endpoint does not depend on the other problems of the batch.  The
    stack is built, reordered, compacted and shrunk in place, block by
    block, so no temporary grows with it.

    Returns the best point (k, n) and value (k,) of each problem, with the
    points it scored (k,), the iterations it ran (k,) and whether it
    stopped at its iteration cap rather than its tolerance (k,); the
    stack's own iteration count is the largest of them.  A problem with
    dims[i] = 0 has the single point x0 as its simplex: it is scored once,
    its spread is 0, and with a finite value it stops at iteration 0.
    """
    k, n = x0.shape
    dims = np.asarray(dims, dtype=np.intp)
    if np.any(dims[1:] > dims[:-1]):
        raise ValueError("problems must come widest first")
    # Gao and Han's shrink coefficient 1 - 1/n is 0 at n = 1, which would
    # collapse the simplex onto its best vertex; n = 1 takes the n = 2
    # coefficients, those of standard Nelder-Mead
    m = np.maximum(dims, 2)
    # per live problem: tolerance, cap, expansion, contraction, shrink
    par = np.stack([tol, max_iterations, 1.0 + 2.0 / m, 0.75 - 1.0 / (2.0 * m), 1.0 - 1.0 / m],
                   axis=1)

    evaluations = np.zeros(k, dtype=np.int64)
    iterations = np.zeros(k, dtype=np.int64)
    capped = np.zeros(k, dtype=bool)

    def score(X, owners):
        evaluations[:] += np.bincount(owners, minlength=k)
        return f(X, owners)

    slots = np.arange(n + 1)
    block = max(1, _BLOCK_BYTES // max((n + 1) * n * 8, 1))
    # flat index of each row's first vertex within a block
    block_base = (np.arange(block) * (n + 1))[:, None]
    rows, dim = np.arange(k), dims
    verts = np.empty((k, n + 1, n))
    verts[:] = x0[:, None, :]
    # vertex j + 1 of problem i steps along coordinate j < dims[i]; the
    # problems with dims[i] > j, rows widest first, are the first reach
    for j, reach in enumerate(np.searchsorted(-dims, -slots[:n]).tolist()):
        verts[:reach, j + 1, j] += initial_step
    fs = np.full((k, n + 1), math.inf)
    for lo in range(0, k, block):
        own = slots <= dims[lo:lo + block, None]
        fs[lo:lo + block][own] = score(verts[lo:lo + block][own],
                                       np.repeat(rows[lo:lo + block], dims[lo:lo + block] + 1))
    best_x = np.empty((k, n))
    best_f = np.empty(k)

    lane, runs = np.arange(k), _runs(dims)
    iteration = 0
    while True:
        order = np.argsort(fs, axis=1, kind="stable")
        fs = fs[lane[:, None], order]
        if n:
            for lo in range(0, rows.size, block):
                part = verts[lo:lo + block]
                flat = (order[lo:lo + block] + block_base[:len(part)]).ravel()
                part[:] = part.reshape(-1, n).take(flat, axis=0).reshape(part.shape)
        del order
        f_worst = fs[lane, dim]
        # the spread is taken only where the worst value is finite: inf -
        # inf is nan when the whole simplex sits on the barrier, and such a
        # simplex keeps iterating
        finite = np.isfinite(f_worst)
        converged = finite & (np.where(finite, f_worst, 0.0) - fs[:, 0] < par[:, 0])
        done = converged | (iteration >= par[:, 1])
        if done.any():
            best_x[rows[done]] = verts[done, 0]
            best_f[rows[done]] = fs[done, 0]
            iterations[rows[done]] = iteration
            capped[rows[done]] = ~converged[done]
            live = ~done
            # move the live simplices to the front of the stack, block by
            # block: a live row only ever moves to a lower index
            keep = np.flatnonzero(live)
            for lo in range(0, keep.size, block):
                moved = keep[lo:lo + block]
                verts[lo:lo + moved.size] = verts[moved]
            verts = verts[:keep.size]
            rows, dim, par, fs, f_worst = rows[live], dim[live], par[live], fs[live], f_worst[live]
            lane, runs = lane[:rows.size], _runs(dim)
        if not rows.size:
            return best_x, best_f, evaluations, iterations, capped
        iteration += 1

        # the centroid of each problem's best dims[i] vertices, summed in
        # rank order: one reduce over the vertex axis per run of rows of
        # equal dims, which the widest-first order keeps contiguous
        centroid = np.empty((rows.size, n))
        for lo, hi, width in runs:
            np.add.reduce(verts[lo:hi, :width], axis=1, out=centroid[lo:hi])
        centroid /= np.maximum(dim, 1)[:, None]
        # each (k, n) step is formed in place in one array; the in-place
        # forms round exactly as the textbook expressions do
        worst = verts[lane, dim]
        xr = centroid - worst
        xr += centroid  # the reflection centroid + (centroid - worst)
        fr = score(xr, rows)
        expand = fr < fs[:, 0]
        contract = ~expand & ~(fr < fs[lane, dim - 1])
        outside = contract & (fr < f_worst)
        inside = contract & ~outside
        # expand to centroid + gamma (xr - centroid), contract outside to
        # centroid + beta (xr - centroid) and inside to centroid - beta
        # (centroid - worst), which is centroid + beta (worst - centroid)
        x2 = np.where(inside[:, None], worst, xr)
        x2 -= centroid
        x2 *= np.where(expand, par[:, 2], par[:, 3])[:, None]
        x2 += centroid
        del centroid, worst
        f2 = np.full(rows.size, np.nan)
        second = expand | contract
        if second.any():
            f2[second] = score(x2[second], rows[second])
        take2 = (expand & (f2 < fr)) | (outside & (f2 <= fr)) | (inside & (f2 < f_worst))
        np.copyto(xr, x2, where=take2[:, None])
        np.copyto(fr, f2, where=take2)
        shrink = contract & ~take2
        if not shrink.any():
            verts[lane, dim] = xr
            fs[lane, dim] = fr
            continue
        step = ~shrink
        verts[lane[step], dim[step]] = xr[step]
        fs[lane[step], dim[step]] = fr[step]
        pull = np.flatnonzero(shrink)
        for lo in range(0, pull.size, block):
            s = pull[lo:lo + block]
            base = verts[s, :1]
            pulled = verts[s, 1:]
            pulled -= base
            pulled *= par[s, 4, None, None]
            pulled += base
            verts[s, 1:] = pulled
            own = slots[1:] <= dim[s, None]
            shrunk = np.full((s.size, n), math.inf)
            shrunk[own] = score(pulled[own], np.repeat(rows[s], dim[s]))
            fs[s, 1:] = shrunk


def simplex_minimize(f, x0: np.ndarray, config: OracleConfig,
                     initial_step: float = 0.5):
    """Nelder-Mead with the dimension-adaptive coefficients of Gao and Han
    (standard Nelder-Mead in one dimension).

    Stops when the objective spread over the simplex drops below config.tol
    or at the iteration cap.  Deterministic given x0; +inf objective values
    are legal and act as barriers (they sort last and repel the simplex).
    Runs the lockstep core on a single problem.  Returns (best point, best
    value).
    """
    x0 = np.asarray(x0, dtype=float)

    def batched(X, rows):
        return np.array([f(x) for x in X], dtype=float)

    x, fx, *_ = _lockstep_simplex(batched, x0.reshape(1, -1), np.array([x0.size]),
                                  np.array([config.tol]), np.array([config.max_iterations]),
                                  initial_step)
    return x[0], float(fx[0])


def _free_state_objective(problems, bases):
    """Objective (X, rows) -> S~_a(rho | tau(x)) over a stack of points,
    each scored for its own problem (rho, rdm, a), with tau(x) = exp(H) /
    Tr exp(H), H = sum_j x_j B_j over that problem's basis (bases[i], the
    free_algebra_basis of its map).

    Problems may have different r: problem i reads the first len(bases[i])
    coordinates of its rows of X, and the rest must be 0.  Each distinct
    basis array is stored once, however many problems share it.  Points
    are scored in chunks that keep the gathered bases and powers of rho
    within 256 KiB at the width of the chunk's first row, each chunk cut to
    its widest row; rows that come widest first, as minimize_batch orders
    them, make the first row the widest.  Fix(E) is a *-algebra, so tau is
    already a free state: E(tau) = tau up to round-off, and E is not
    applied here.  Hot path for the search, built for few numpy calls per
    stack: H from the coordinates in one product, the spectrum of tau and
    its eigenvectors from one stacked eigh of H, and the entropy from
    eigenvector weights of rho^a instead of full matrix powers.  When every
    row of a chunk has full support, its smallest weight above its cut
    (matrix_power's round-off level d * eps * w_max for a < 1,
    SUPPORT_CUTOFF * w_max from a = 1 on), the chunk takes the fast path:
    every mask would be all true and the support leak 0, so it sums the
    same terms in the same order with no mask and no sandwich of rho.  On
    the theorem-1 suite every chunk does.  Otherwise masks select the
    a < 1, a = 1 and a > 1 branches and the +inf support barrier, whose
    leak needs the weights of rho itself.  Mirrors tsallis_relative_entropy's
    support conventions and matrix_power's round-off rule exactly; a unit
    test pins the two together to 1e-12 and the fast path to the masked one
    bit for bit.  Every problem must have the same dimension.
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
    # rho for the support leak, and rho^a (rho at a = 1) for the entropy,
    # filled in place, from one eigensystem per distinct rho
    AM = np.empty((2, len(problems), d, d), dtype=complex)
    rho_ln_rho = np.zeros(len(problems))
    spectra = {}
    for i, (rho, _, ai) in enumerate(problems):
        AM[:, i] = rho
        key = AM[0, i].tobytes()
        if key not in spectra:
            spectra[key] = linalg.psd_spectrum(AM[0, i])
        if ai == 1.0:
            rho_ln_rho[i] = np.trace(AM[0, i] @ linalg.spectral_log(spectra[key])).real
        else:
            AM[1, i] = linalg.spectral_power(spectra[key], ai)
    # per problem: a < 1, a = 1, 1 - a, 1 / a, the denominator a - 1 (1 at
    # a = 1), Tr rho ln rho at a = 1 (0 otherwise) and the cut on tau's
    # weights relative to the largest: matrix_power's round-off level
    # d * eps below a = 1, SUPPORT_CUTOFF from a = 1 on
    params = np.stack([a < 1.0, one, 1.0 - a, 1.0 / a, np.where(one, 1.0, a - 1.0), rho_ln_rho,
                       np.where(a < 1.0, d * np.finfo(float).eps, linalg.SUPPORT_CUTOFF)],
                      axis=1)

    def score(X, rows):
        m, width = X.shape
        # the terms x_j B_j coordinate-major, so that the sum over j runs
        # along the outer axis, in order, as a row-by-row sum would
        H = Bx.take(index[rows, :width].T, axis=0)
        H *= X.T[:, :, None]
        h, V = np.linalg.eigh(np.add.reduce(H, axis=0).reshape(m, d, d))
        # the spectrum of tau, ascending like h; the shift by the largest
        # eigenvalue keeps exp from overflowing
        w = np.exp(h - h[:, -1:])
        w /= w.sum(axis=1, keepdims=True)
        lt1, r1, expo, inv_a, den, base, cut = params[rows].T
        qm = (V.conj() * (AM[1, rows] @ V)).sum(axis=1).real
        if (w[:, 0] > cut * w[:, -1]).all():
            # full support: every weight, the smallest first, passes its
            # row's cut, so every mask below is all true and the leak is 0
            ln = (qm * np.log(w)).sum(axis=1)
            T = (w ** expo[:, None] * qm).sum(axis=1)
            return np.where(r1 > 0, base - ln, (np.maximum(T, 0.0) ** inv_a - 1.0) / den)
        pos = w > linalg.SUPPORT_CUTOFF * w[:, -1:]
        qa = (V.conj() * (AM[0, rows] @ V)).sum(axis=1).real
        leak = np.where(pos, 0.0, qa).sum(axis=1)
        keep = np.where(lt1[:, None] > 0, w > linalg.roundoff_level(w), pos)
        ws = np.where(keep, w, 1.0)
        ln = np.where(pos, qm * np.log(ws), 0.0).sum(axis=1)
        T = np.where(keep, ws ** expo[:, None] * qm, 0.0).sum(axis=1)
        out = np.where(r1 > 0, base - ln, (np.maximum(T, 0.0) ** inv_a - 1.0) / den)
        out[(lt1 == 0) & (leak > SUPPORT_LEAK_TOL)] = math.inf
        return out

    def objective(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        width = dims[rows]
        out = np.empty(rows.size)
        lo = 0
        while lo < rows.size:
            hi = lo + max(1, 2**18 // (16 * d * d * int(width[lo]) + AM[:, 0].nbytes))
            out[lo:hi] = score(X[lo:hi, :width[lo:hi].max()], rows[lo:hi])
            lo = hi
        return out

    return objective


def minimize_batch(problems, configs) -> list[OracleResult]:
    """Direct numerical minimization of the distance to the free set for
    several problems (rho, rdm, a) of one dimension, each with its own
    OracleConfig, solved together.

    Every restart of every problem is a row of one lockstep simplex per
    pass, whatever its r = dim Fix(E): problem i searches the first r_i - 1
    coordinates of rows as wide as the largest r - 1 (see
    _lockstep_simplex).  Rows are ordered widest first, so that each
    objective chunk is cut to the width of its first row; results come
    back in input order, and result i equals
    minimize_over_free_states(*problems[i], configs[i]) bit for bit.
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
    """The two lockstep passes over every restart of every problem, widest
    problem first."""
    dims = np.array([len(B) for B in bases])
    n = int(dims.max())
    objective = _free_state_objective(problems, bases)
    owner = np.repeat(np.arange(len(problems)), [c.restarts for c in configs])
    # seeded starts near the origin, where sigma is within a few percent of
    # I/d, away from the flat region of near-singular states; zero past
    # each problem's own coordinates
    first = np.cumsum([0] + [c.restarts for c in configs])
    starts = np.zeros((owner.size, n))
    for i, c in enumerate(configs):
        starts[first[i]:first[i + 1], :dims[i]] = 0.1 * np.random.default_rng(
            c.seed).standard_normal((c.restarts, dims[i]))
    row_dims = dims[owner]
    tol = np.array([configs[i].tol for i in owner])
    cap = np.array([configs[i].max_iterations for i in owner])

    def f(X, rows):
        return objective(X, owner[rows])

    x, fx, evals, iters, first_capped = _lockstep_simplex(f, starts, row_dims, tol, cap, 0.5)
    x, fx, polish_evals, polish_iters, capped = _lockstep_simplex(f, x, row_dims, tol, cap, 0.05)
    stack_iterations = (int(iters.max()), int(polish_iters.max()))
    evals += polish_evals
    iters += polish_iters
    cap_hits = first_capped.astype(np.int64) + capped

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
            cap_hits=int(cap_hits[mine].sum()), free_dim=len(basis) + 1,
            stack_iterations=stack_iterations))
    return results


def minimize_over_free_states(rho: np.ndarray, rdm: ResourceDestroyingMap,
                              a: float, config: OracleConfig | None = None) -> OracleResult:
    """Direct numerical minimization of the distance to the free set.

    Runs the simplex from `restarts` seeded random starts, advanced together
    by minimize_batch; each restart is polished by a second simplex rebuilt
    at its endpoint with a shrunken initial step, which recovers from
    degenerate collapse.  The winning point is mapped through E and
    re-evaluated through tsallis_relative_entropy (not the fused objective);
    the closed form is not evaluated, so the gap to it is the caller's to
    take.  restarts_agreeing counts restarts whose best value landed within
    1e-6 of the winner, making flaky convergence visible.
    """
    return minimize_batch([(rho, rdm, a)], [OracleConfig() if config is None else config])[0]
