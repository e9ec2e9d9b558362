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
construction, and scored again by tsallis_relative_entropy.  The search
path shares nothing with the closed-form evaluation; agreement between the
two is evidence, not circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ResourceDestroyingMap
from .errors import NoFiniteObjective, ValidationError
from .measures import (
    SUPPORT_LEAK_TOL,
    closed_form_measure,
    tsallis_relative_entropy,
    validate_order,
)

AGREEMENT_WINDOW = 1e-6


@dataclass
class OracleConfig:
    """Search budget: seeded random restarts, per-restart iteration cap, and
    the objective-spread tolerance that stops the simplex."""

    restarts: int = 20
    max_iterations: int = 2000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if not self.tol > 0:
            raise ValidationError(f"tolerance must be positive, got {self.tol}")
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class OracleResult:
    """The minimum found, its gap to the closed form, and the work it took:
    evaluations counts the points scored over every restart and both passes,
    iterations the simplex iterations of the winning restart (both passes),
    stop_reason says why the winning restart's last simplex stopped,
    "tolerance" or "iteration_cap", and cap_hits counts the simplices, over
    every restart and both passes, that stopped at the iteration cap.
    free_dim is r = dim Fix(E); the search ran over r - 1 real parameters
    (none at r = 1, where each pass of each restart scores I/d, the only
    free state, once: 2 points per restart)."""

    value: float
    sigma_min: np.ndarray
    gap_to_closed_form: float
    restarts_agreeing: int
    evaluations: int
    iterations: int
    stop_reason: str
    cap_hits: int
    free_dim: int


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


def _lockstep_simplex(f, x0: np.ndarray, tol: np.ndarray, max_iterations: np.ndarray,
                      initial_step: float):
    """Nelder-Mead on k independent problems advanced in lockstep.

    x0 is (k, n); tol and max_iterations are per-problem arrays of length k.
    f(X, rows) returns the objective values of the points X (m, n), row i
    belonging to problem rows[i].  Each phase (reflect, expand or contract,
    shrink) makes one call of f for every problem that needs it; per-problem
    masks pick the branch, and a problem leaves the active set once its
    objective spread drops below its tolerance or it reaches its iteration
    cap.  Every problem sees exactly the arithmetic it would see alone, so
    its endpoint does not depend on the other problems of the batch.
    Returns the best point (k, n) and value (k,) of each problem, with the
    points it scored (k,), the iterations it ran (k,) and whether it stopped
    at its iteration cap rather than its tolerance (k,).  With n = 0 the
    simplex is the single point x0: it is scored once, its spread is 0, and
    a problem with a finite value stops at iteration 0.
    """
    k, n = x0.shape
    # Gao and Han's shrink coefficient 1 - 1/n is 0 at n = 1, which would
    # collapse the simplex onto its best vertex; n = 1 takes the n = 2
    # coefficients, those of standard Nelder-Mead
    m = max(n, 2)
    alpha = 1.0
    gamma = 1.0 + 2.0 / m
    beta = 0.75 - 1.0 / (2.0 * m)
    delta = 1.0 - 1.0 / m

    evaluations = np.zeros(k, dtype=np.int64)
    iterations = np.zeros(k, dtype=np.int64)
    capped = np.zeros(k, dtype=bool)

    def score(X, owners):
        evaluations[:] += np.bincount(owners, minlength=k)
        return f(X, owners)

    rows = np.arange(k)
    verts = np.repeat(x0[:, None, :], n + 1, axis=1)
    verts[:, np.arange(1, n + 1), np.arange(n)] += initial_step
    fs = score(verts.reshape(k * (n + 1), n), np.repeat(rows, n + 1)).reshape(k, n + 1)
    best_x = np.empty((k, n))
    best_f = np.empty(k)

    iteration = 0
    while True:
        order = np.argsort(fs, axis=1, kind="stable")
        lane = np.arange(rows.size)[:, None]
        verts, fs = verts[lane, order], fs[lane, order]
        # inf - inf is nan when the whole simplex sits on the barrier;
        # keep iterating in that case rather than declaring convergence.
        with np.errstate(invalid="ignore"):
            converged = np.isfinite(fs[:, -1]) & (fs[:, -1] - fs[:, 0] < tol)
        done = converged | (iteration >= max_iterations)
        if done.any():
            best_x[rows[done]] = verts[done, 0]
            best_f[rows[done]] = fs[done, 0]
            iterations[rows[done]] = iteration
            capped[rows[done]] = ~converged[done]
            live = ~done
            rows, verts, fs = rows[live], verts[live], fs[live]
            tol, max_iterations = tol[live], max_iterations[live]
        if not rows.size:
            return best_x, best_f, evaluations, iterations, capped
        iteration += 1

        centroid = verts[:, :-1].mean(axis=1)
        worst = verts[:, -1]
        xr = centroid + alpha * (centroid - worst)
        fr = score(xr, rows)
        expand = fr < fs[:, 0]
        contract = ~expand & ~(fr < fs[:, -2])
        outside = contract & (fr < fs[:, -1])
        x2 = np.where(expand[:, None], centroid + gamma * (xr - centroid),
                      np.where(outside[:, None], centroid + beta * (xr - centroid),
                               centroid - beta * (centroid - worst)))
        f2 = np.full(rows.size, np.nan)
        second = expand | contract
        if second.any():
            f2[second] = score(x2[second], rows[second])
        take2 = ((expand & (f2 < fr)) | (outside & (f2 <= fr))
                 | (contract & ~outside & (f2 < fs[:, -1])))
        shrink = contract & ~take2
        step = ~shrink
        verts[step, -1] = np.where(take2[step, None], x2[step], xr[step])
        fs[step, -1] = np.where(take2[step], f2[step], fr[step])
        if shrink.any():
            base = verts[shrink, :1]
            pulled = base + delta * (verts[shrink, 1:] - base)
            verts[shrink, 1:] = pulled
            fs[shrink, 1:] = score(pulled.reshape(-1, n),
                                   np.repeat(rows[shrink], n)).reshape(-1, n)


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

    x, fx, *_ = _lockstep_simplex(batched, x0.reshape(1, -1), np.array([config.tol]),
                                  np.array([config.max_iterations]), initial_step)
    return x[0], float(fx[0])


def _free_state_objective(problems, bases):
    """Objective (X, rows) -> S~_a(rho | tau(x)) over a stack of points,
    each scored for its own problem (rho, rdm, a), with tau(x) = exp(H) /
    Tr exp(H), H = sum_j x_j B_j over that problem's basis (bases[i], the
    free_algebra_basis of its map).

    Fix(E) is a *-algebra, so tau is already a free state: E(tau) = tau up
    to round-off, and E is not applied here.  Hot path for the search,
    built for few numpy calls per stack: H from the coordinates in one
    product, the spectrum of tau and its eigenvectors from one stacked eigh
    of H, and the entropy from eigenvector weights instead of full matrix
    powers.  Masks select the a < 1, a = 1 and a > 1 branches and the +inf
    support barrier.  Mirrors tsallis_relative_entropy's support
    conventions and matrix_power's round-off rule exactly; a unit test pins
    the two together to 1e-12.  Every problem must have the same dimension
    and the same r.
    """
    if len({B.shape for B in bases}) != 1:
        raise ValidationError("problems scored together must share one dimension and one r")
    n, d, _ = bases[0].shape
    # real coordinates x -> H = x @ B, H flattened row-major
    Bx = np.stack([B.reshape(n, d * d) for B in bases])
    a = np.array([float(a) for _, _, a in problems])
    one = a == 1.0
    A = [np.asarray(rho, dtype=complex) for rho, _, _ in problems]
    # rho for the support leak, and rho^a (rho at a = 1) for the entropy
    AM = np.stack([[Ai, Ai if a1 else linalg.matrix_power(Ai, ai)]
                   for Ai, ai, a1 in zip(A, a, one)])
    rho_ln_rho = [float(np.trace(Ai @ linalg.matrix_log(Ai)).real) if a1 else 0.0
                  for Ai, a1 in zip(A, one)]
    # per problem: a < 1, a = 1, 1 - a, 1 / a, the denominator a - 1 (1 at
    # a = 1) and Tr rho ln rho at a = 1 (0 otherwise)
    params = np.stack([a < 1.0, one, 1.0 - a, 1.0 / a, np.where(one, 1.0, a - 1.0), rho_ln_rho],
                      axis=1)
    # the initial simplex and shrink steps score n or n + 1 points per
    # problem at once; scoring them in chunks keeps the gathered bases and
    # powers of rho within 256 KiB
    chunk = max(1, 2**18 // (Bx[0].nbytes + AM[0].nbytes))

    def objective(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        m = rows.size
        if m > chunk:
            return np.concatenate([objective(X[i:i + chunk], rows[i:i + chunk])
                                   for i in range(0, m, chunk)])
        h, V = np.linalg.eigh((X[:, None, :] @ Bx[rows]).reshape(m, d, d))
        # the spectrum of tau, ascending like h; the shift by the largest
        # eigenvalue keeps exp from overflowing
        w = np.exp(h - h[:, -1:])
        w /= w.sum(axis=1, keepdims=True)
        pos = w > linalg.SUPPORT_CUTOFF * w[:, -1:]
        qa, qm = (V.conj()[:, None] * (AM[rows] @ V[:, None])).sum(axis=2).real.transpose(1, 0, 2)
        lt1, r1, expo, inv_a, den, base = params[rows].T
        leak = np.where(pos, 0.0, qa).sum(axis=1)
        keep = np.where(lt1[:, None] > 0, w > linalg.roundoff_level(w), pos)
        ws = np.where(keep, w, 1.0)
        ln = np.where(pos, qm * np.log(ws), 0.0).sum(axis=1)
        T = np.where(keep, ws ** expo[:, None] * qm, 0.0).sum(axis=1)
        out = np.where(r1 > 0, base - ln, (np.maximum(T, 0.0) ** inv_a - 1.0) / den)
        out[(lt1 == 0) & (leak > SUPPORT_LEAK_TOL)] = math.inf
        return out

    return objective


def minimize_batch(problems, configs, closed) -> list[OracleResult]:
    """Direct numerical minimization of the distance to the free set for
    several problems (rho, rdm, a) of one dimension, each with its own
    OracleConfig, solved together.

    Problems are grouped by r = dim Fix(E), their parameter count being
    r - 1, and every restart of every problem of a group is a row of one
    lockstep simplex; result i equals minimize_over_free_states(*problems[i],
    configs[i]) bit for bit.  closed holds each problem's closed-form value,
    which the gaps are taken against.
    """
    problems = [(rho, rdm, validate_order(a)) for rho, rdm, a in problems]
    if len(configs) != len(problems):
        raise ValidationError(f"{len(problems)} problems but {len(configs)} configs")
    if len(closed) != len(problems):
        raise ValidationError(f"{len(problems)} problems but {len(closed)} closed forms")
    if len({rdm.dim for _, rdm, _ in problems}) != 1:
        raise ValidationError("problems solved together must share one dimension")
    by_map = {}
    for _, rdm, _ in problems:
        if id(rdm) not in by_map:
            by_map[id(rdm)] = free_algebra_basis(rdm)
    bases = [by_map[id(rdm)] for _, rdm, _ in problems]
    groups = {}
    for i, B in enumerate(bases):
        groups.setdefault(len(B), []).append(i)
    results = [None] * len(problems)
    for members in groups.values():
        solved = _solve_group(*([seq[i] for i in members]
                                for seq in (problems, bases, configs, closed)))
        for i, res in zip(members, solved):
            results[i] = res
    return results


def _solve_group(problems, bases, configs, closed) -> list[OracleResult]:
    """The two lockstep passes over problems that share one parameter count."""
    n = len(bases[0])
    objective = _free_state_objective(problems, bases)
    owner = np.repeat(np.arange(len(problems)), [c.restarts for c in configs])
    # seeded starts near the origin, where sigma is within a few percent of
    # I/d, away from the flat region of near-singular states
    starts = np.concatenate([0.1 * np.random.default_rng(c.seed).standard_normal((c.restarts, n))
                             for c in configs])
    tol = np.array([configs[i].tol for i in owner])
    cap = np.array([configs[i].max_iterations for i in owner])

    def f(X, rows):
        return objective(X, owner[rows])

    x, fx, evals, iters, first_capped = _lockstep_simplex(f, starts, tol, cap, 0.5)
    x, fx, polish_evals, polish_iters, capped = _lockstep_simplex(f, x, tol, cap, 0.05)
    evals += polish_evals
    iters += polish_iters
    cap_hits = first_capped.astype(np.int64) + capped

    results = []
    for i, ((rho, rdm, a), basis) in enumerate(zip(problems, bases)):
        mine = np.flatnonzero(owner == i)
        finals = fx[mine]
        win = int(np.argmin(finals))
        best_f = finals[win]
        # the search scored exp(H) / Tr exp(H); the reported minimizer is
        # its image under E, a fixed point by construction, scored afresh
        sigma = _free_state(x[mine[win]], basis, rdm)
        agreeing = int(np.count_nonzero(finals <= best_f + AGREEMENT_WINDOW))
        value = tsallis_relative_entropy(rho, sigma, a)
        if value == math.inf:
            raise NoFiniteObjective(
                f"objective is +inf at the image of the best point found (a={a}); "
                "support pathology in the free set")
        results.append(OracleResult(
            value=value, sigma_min=sigma, gap_to_closed_form=value - closed[i],
            restarts_agreeing=agreeing,
            evaluations=int(evals[mine].sum()), iterations=int(iters[mine[win]]),
            stop_reason="iteration_cap" if capped[mine[win]] else "tolerance",
            cap_hits=int(cap_hits[mine].sum()), free_dim=len(basis) + 1))
    return results


def minimize_over_free_states(rho: np.ndarray, rdm: ResourceDestroyingMap,
                              a: float, config: OracleConfig | None = None) -> OracleResult:
    """Direct numerical minimization of the distance to the free set.

    Runs the simplex from `restarts` seeded random starts, advanced together
    by minimize_batch; each restart is polished by a second simplex rebuilt
    at its endpoint with a shrunken initial step, which recovers from
    degenerate collapse.  The winning point is mapped through E,
    re-evaluated through tsallis_relative_entropy (not the fused objective)
    and compared with the closed form.  restarts_agreeing counts restarts
    whose best value landed within 1e-6 of the winner, making flaky
    convergence visible.
    """
    closed = closed_form_measure(rho, rdm, a).value
    return minimize_batch([(rho, rdm, a)], [OracleConfig() if config is None else config],
                          [closed])[0]
