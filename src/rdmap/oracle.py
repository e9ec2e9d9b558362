"""Brute-force minimization oracle for certifying the closed form.

Minimizes S~_a(rho|sigma) over sigma in Fix(E) by derivative-free search on
an unconstrained parameterization of the fixed points.  Idempotency makes
sigma = E(tau) surjective onto Fix(E) as tau ranges over all states, so a
full d x d Ginibre-style factor G with tau = GG^dag / Tr(GG^dag) reaches
every candidate.  The search path shares nothing with the closed-form
evaluation; agreement between the two is evidence, not circularity.
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
    and stop_reason says why the winning restart's last simplex stopped,
    "tolerance" or "iteration_cap"."""

    value: float
    sigma_min: np.ndarray
    gap_to_closed_form: float
    restarts_agreeing: int
    evaluations: int
    iterations: int
    stop_reason: str


def parameterize_free_state(x: np.ndarray, rdm: ResourceDestroyingMap) -> np.ndarray:
    """Map a real vector of length 2d^2 to a fixed point of the channel.

    x packs Re(G) then Im(G); tau = GG^dag / Tr(GG^dag), falling back to the
    maximally mixed state when the trace underflows, and the output is E(tau).
    Redundant (many x per sigma) but unconstrained and map-agnostic.
    """
    d = rdm.dim
    z = np.asarray(x, dtype=float)
    if z.size != 2 * d * d:
        raise ValidationError(f"expected {2 * d * d} parameters, got {z.size}")
    G = (z[: d * d] + 1j * z[d * d :]).reshape(d, d)
    gram = G @ G.conj().T
    tr = float(gram.trace().real)
    if tr < 1e-14:
        tau = np.eye(d, dtype=complex) / d
    else:
        tau = gram / tr
    return rdm.apply(tau)


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
    at its iteration cap rather than its tolerance (k,).
    """
    k, n = x0.shape
    alpha = 1.0
    gamma = 1.0 + 2.0 / n
    beta = 0.75 - 1.0 / (2.0 * n)
    delta = 1.0 - 1.0 / n

    evaluations = np.zeros(k, dtype=np.int64)
    iterations = np.zeros(k, dtype=np.int64)
    capped = np.zeros(k, dtype=bool)

    def score(X, owners):
        evaluations[:] += np.bincount(owners, minlength=k)
        return f(X, owners)

    rows = np.arange(k)
    verts = np.repeat(x0[:, None, :], n + 1, axis=1)
    verts[:, np.arange(1, n + 1), np.arange(n)] += initial_step
    fs = score(verts.reshape(-1, n), np.repeat(rows, n + 1)).reshape(k, n + 1)
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
    """Nelder-Mead with the dimension-adaptive coefficients of Gao and Han.

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


def _free_state_objective(problems):
    """Objective (X, rows) -> S~_a(rho | parameterize_free_state(x)) over a
    stack of points, each scored for its own problem (rho, rdm, a).

    Hot path for the search: one stacked superoperator matvec and one
    stacked eigh per call, with the entropy assembled from eigenvector
    weights instead of full matrix powers; masks select the a < 1, a = 1 and
    a > 1 branches and the +inf support barrier.  Mirrors
    tsallis_relative_entropy's support conventions and matrix_power's
    round-off rule exactly; a unit test pins the two together to 1e-12.
    Every problem must have the same dimension.
    """
    d = problems[0][1].dim
    if any(rdm.dim != d for _, rdm, _ in problems):
        raise ValidationError("problems solved together must share one dimension")
    S = np.stack([rdm.superop for _, rdm, _ in problems])
    A = np.stack([np.asarray(rho, dtype=complex) for rho, _, _ in problems])
    a = np.array([float(a) for _, _, a in problems])
    one = a == 1.0
    # A for the a = 1 branch, rho^a otherwise; base = Tr rho ln rho at a = 1
    M = np.stack([Ai if a1 else linalg.matrix_power(Ai, ai)
                  for Ai, ai, a1 in zip(A, a, one)])
    base = np.array([float(np.trace(Ai @ linalg.matrix_log(Ai)).real) if a1 else 0.0
                     for Ai, a1 in zip(A, one)])
    mixed = np.eye(d, dtype=complex) / d
    # the initial simplex and shrink steps score n or n + 1 points per
    # problem at once; scoring them in chunks keeps the gathered
    # superoperators within 256 KiB
    chunk = max(1, 2**18 // S[0].nbytes)

    def objective(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        m = rows.size
        if m > chunk:
            return np.concatenate([objective(X[i:i + chunk], rows[i:i + chunk])
                                   for i in range(0, m, chunk)])
        G = (X[:, : d * d] + 1j * X[:, d * d :]).reshape(m, d, d)
        gram = G @ G.conj().transpose(0, 2, 1)
        tr = (X * X).sum(axis=1)
        low = tr < 1e-14
        tau = gram / np.where(low, 1.0, tr)[:, None, None]
        tau[low] = mixed
        # column-stacking vec/unvec of each matrix in the stack
        v = tau.transpose(0, 2, 1).reshape(m, d * d, 1)
        sig = (S[rows] @ v).reshape(m, d, d).transpose(0, 2, 1)
        sig = (sig + sig.conj().transpose(0, 2, 1)) / 2.0
        w, V = np.linalg.eigh(sig)
        w = np.clip(w, 0.0, None)
        pos = w > linalg.SUPPORT_CUTOFF * w[:, -1:]
        qa = (V.conj() * (A[rows] @ V)).sum(axis=1).real
        qm = (V.conj() * (M[rows] @ V)).sum(axis=1).real
        ar = a[rows]
        leak = np.where(pos, 0.0, qa).sum(axis=1)
        keep = np.where(ar[:, None] < 1.0, w > linalg.roundoff_level(w), pos)
        ws = np.where(keep, w, 1.0)
        r1 = one[rows]
        ln = np.where(pos, qm * np.log(ws), 0.0).sum(axis=1)
        T = np.where(keep, ws ** (1.0 - ar[:, None]) * qm, 0.0).sum(axis=1)
        powered = (np.maximum(T, 0.0) ** (1.0 / ar) - 1.0) / np.where(r1, 1.0, ar - 1.0)
        out = np.where(r1, base[rows] - ln, powered)
        out[(ar >= 1.0) & (leak > SUPPORT_LEAK_TOL)] = math.inf
        return out

    return objective


def minimize_batch(problems, configs, closed) -> list[OracleResult]:
    """Direct numerical minimization of the distance to the free set for
    several problems (rho, rdm, a) of one dimension, each with its own
    OracleConfig, solved together.

    Every restart of every problem is a row of one lockstep simplex; result i
    equals minimize_over_free_states(*problems[i], configs[i]) bit for bit.
    closed holds each problem's closed-form value, which the gaps are taken
    against.
    """
    problems = [(rho, rdm, validate_order(a)) for rho, rdm, a in problems]
    if len(configs) != len(problems):
        raise ValidationError(f"{len(problems)} problems but {len(configs)} configs")
    if len(closed) != len(problems):
        raise ValidationError(f"{len(problems)} problems but {len(closed)} closed forms")
    n = 2 * problems[0][1].dim ** 2
    objective = _free_state_objective(problems)
    owner = np.repeat(np.arange(len(problems)), [c.restarts for c in configs])
    starts = np.concatenate([np.random.default_rng(c.seed).standard_normal((c.restarts, n))
                             for c in configs])
    tol = np.array([configs[i].tol for i in owner])
    cap = np.array([configs[i].max_iterations for i in owner])

    def f(X, rows):
        return objective(X, owner[rows])

    x, fx, evals, iters, _ = _lockstep_simplex(f, starts, tol, cap, 0.5)
    x, fx, polish_evals, polish_iters, capped = _lockstep_simplex(f, x, tol, cap, 0.05)
    evals += polish_evals
    iters += polish_iters

    results = []
    for i, (rho, rdm, a) in enumerate(problems):
        mine = np.flatnonzero(owner == i)
        finals = fx[mine]
        if not np.isfinite(finals).any():
            raise NoFiniteObjective(
                f"objective was +inf at every evaluation (a={a}); "
                "support pathology in the free set"
            )
        win = int(np.argmin(finals))
        best_f = finals[win]
        sigma = parameterize_free_state(x[mine[win]], rdm)
        value = tsallis_relative_entropy(rho, sigma, a)
        agreeing = int(np.count_nonzero(finals <= best_f + AGREEMENT_WINDOW))
        results.append(OracleResult(
            value=value, sigma_min=sigma, gap_to_closed_form=value - closed[i],
            restarts_agreeing=agreeing, evaluations=int(evals[mine].sum()),
            iterations=int(iters[mine[win]]),
            stop_reason="iteration_cap" if capped[mine[win]] else "tolerance"))
    return results


def minimize_over_free_states(rho: np.ndarray, rdm: ResourceDestroyingMap,
                              a: float, config: OracleConfig | None = None) -> OracleResult:
    """Direct numerical minimization of the distance to the free set.

    Runs the simplex from `restarts` seeded random starts, advanced together
    by minimize_batch; each restart is polished by a second simplex rebuilt
    at its endpoint with a shrunken initial step, which recovers from
    degenerate collapse.  The winning point is re-evaluated through
    tsallis_relative_entropy (not the fused objective) and compared with the
    closed form.  restarts_agreeing counts restarts whose best value
    landed within 1e-6 of the winner, making flaky convergence visible.
    """
    closed = closed_form_measure(rho, rdm, a).value
    return minimize_batch([(rho, rdm, a)], [OracleConfig() if config is None else config],
                          [closed])[0]
