"""CPTP maps, their adjoints, and the built-in resource-destroying maps.

Two representations share the `QuantumChannel` interface.  A Kraus sum,
rho -> sum_i K_i rho K_i^dag, holds what nothing cheaper fits: twirls over
non-abelian groups and Kraus input whose operators do not commute.  It
applies as two products per chunk of its operators, (n d, d) @ rho and
(d, n d) @ (n d, d), not as a loop over them (`_kraus_act`).  Every
other map is a `PartitionChannel`: the trace-preserving conditional
expectation onto the block algebra of a partition of an orthonormal basis,
where every block keeps its diagonal block, or every block is traced out
and re-mixed.  The four partition families (dephasing, Lueders, modified
coarse-graining, complete mixing) use the computational basis, so applying
one is a mask or block averaging, O(d^2).  A twirl over an abelian group,
and Kraus input whose operators are normal and commute, is a Lueders map in
the operators' joint eigenbasis W (its fixed points are their commutant),
so it applies as W (mask o W^dag X W) W^dag in O(d^3) and certifies in
O(n d^3) for n operators; see `_eigenbasis_form`.

Every channel also offers `spectral_image(V, w, p)`, which is all the
closed form needs of E: for Z = V diag(w) V^dag, given by an eigensystem
rather than as a matrix, the clipped eigenvalues of E(Z), in any order, and
E(Z)^p under `linalg.matrix_power`'s round-off rule.  It checks V and w
once, reads the map's frame of V (`_frame_for`: what the image needs of V
whatever the weights) and hands both to `_spectral_image`.  By default the
frame is V itself, and `_spectral_image` forms Z and E(Z) densely and
diagonalizes E(Z).  A partition map's E(Z) is block diagonal in its basis
W, so it reads the image off U = W^dag V, one d x d product, on one path
for every basis: a kept singleton, and every index of a traced map, is a
scalar, a weighted sum of |U|^2 (averaged over its block for a traced
map), the kept blocks of each size n > 1 are formed from U's rows and share
one batched eigh, one `put` writes the power, and a basis rotates it out
with the W^dag kept since construction.  |U|^2, block averaged for a traced
map, and the blocks' rows are its frame.  A map keeps no frame: the closed
form, which calls `_frame_for` and `_spectral_image` directly on the
eigensystem of rho that `linalg.density_spectrum` has already checked,
keeps the one it reuses across a sweep of orders (`measures`).

Every list of operators, Kraus or group elements, is checked and stacked
once, by `_operator_stack`, into one read-only complex (n, d, d) array;
that stack is the Kraus representation everywhere (`kraus`).
The d^2 x d^2 superoperator (column-major vectorization, column (a, b) is
vec E(|a><b|), S = sum_i conj(K_i) (x) K_i) is the canonical representation
for map equality, since Kraus decompositions are not unique.  Both it and a
partition map's Kraus stack are views built on first read.  Within the
library nothing reads `superop`: the oracle reads a map through `apply`
alone, and only the certification of a Kraus sum forms S, once, without
keeping it.  A partition map needs neither for certification or `apply`.
Channels are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    NotAGroup,
    NotFineGrained,
    NotIdempotent,
    NotUnital,
    NotUnitary,
    ValidationError,
)

IDEMPOTENCY_TOL = 1e-9
UNITALITY_TOL = 1e-10
TRACE_PRESERVING_TOL = 1e-10
UNITARY_TOL = 1e-10
GROUP_CLOSURE_TOL = 1e-9


def kraus_to_superop(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """S = sum_i conj(K_i) (x) K_i, as one matrix product over the stacked
    operators: S[(p, q), (r, s)] = sum_i conj(K_i)[p, r] K_i[q, s]."""
    K = np.asarray(kraus, dtype=complex)
    n, d, _ = K.shape
    S = K.conj().reshape(n, d * d).T @ K.reshape(n, d * d)
    return S.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _operator_stack(ops, name: str, dim: int | None = None) -> np.ndarray:
    """ops as one read-only complex (n, d, d) stack, checked: no operator is
    a ValidationError, anything but d x d matrices (d = dim when the wire
    format declares one) a DimensionMismatch, a non-finite entry a
    ValidationError, each naming the field `name`.  A read-only complex
    stack, such as one this returned, passes through without a copy."""
    K = ops
    if not (isinstance(K, np.ndarray) and K.dtype == complex and not K.flags.writeable):
        try:
            K = np.array(K if isinstance(K, np.ndarray) else list(K), dtype=complex)
        except ValueError:
            raise DimensionMismatch(f"{name}: expected matrices of one size") from None
        K.setflags(write=False)
    if K.shape[:1] == (0,):
        raise ValidationError(f"{name}: expected at least one matrix")
    shape = "square" if dim is None else f"{dim}x{dim}"
    if K.ndim != 3 or K.shape[1] != K.shape[2] or dim not in (None, K.shape[1]):
        raise DimensionMismatch(f"{name}: expected {shape} matrices, got a stack of shape {K.shape}")
    if not np.isfinite(K).all():
        raise ValidationError(f"{name}: non-finite entries")
    return K


class QuantumChannel:
    """A completely positive map given by Kraus operators {K_i}.

    Complete positivity holds by construction.  Trace preservation is not
    enforced here (adjoints of non-unital channels break it); the
    constructors and `certify_rdm` check it where required.  Other
    representations subclass this one and override `kraus`, `superop`,
    `_act` and the two residuals; everything else is written against those.
    """

    def __init__(self, kraus: Iterable[np.ndarray]):
        self._kraus = _operator_stack(kraus, "Kraus operators")
        self._dim = self._kraus.shape[1]
        self._superop = None

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def kraus(self) -> np.ndarray:
        """The Kraus operators, one read-only (n, d, d) stack."""
        return self._kraus

    @property
    def superop(self) -> np.ndarray:
        """d^2 x d^2 column-stacking superoperator (cached)."""
        if self._superop is None:
            S = kraus_to_superop(self.kraus)
            S.setflags(write=False)
            self._superop = S
        return self._superop

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """E(rho) for one d x d matrix or a (..., d, d) stack of them."""
        A = np.asarray(rho, dtype=complex)
        if A.ndim < 2 or A.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"state has shape {A.shape}, channel acts on {self.dim}x{self.dim}"
            )
        return self._act(A)

    def _act(self, A: np.ndarray) -> np.ndarray:
        return _kraus_act(self.kraus, A)

    def spectral_image(self, V: np.ndarray, w: np.ndarray, p: float) -> tuple:
        """(values, X): the eigenvalues of E(Z) for Z = V diag(w) V^dag,
        with round-off negatives clipped to 0, and X = E(Z)^p under
        `linalg.matrix_power`'s round-off rule.  V is a d x d matrix and w
        d real weights, such as an eigensystem of Z; they are checked once
        here: non-finite entries are a ValueError, a weight below -1e-10 is
        NotPSD (round-off negatives count as 0) and a wrong size is
        DimensionMismatch.  Z is then PSD by construction."""
        d = self.dim
        if np.iscomplexobj(w):
            raise ValueError("weights must be real")
        V = np.asarray(V, dtype=complex)
        w = np.asarray(w, dtype=float)
        if V.shape != (d, d) or w.shape != (d,):
            raise DimensionMismatch(
                f"eigensystem has shapes {V.shape} and {w.shape}, channel acts on {d}x{d}")
        if not np.isfinite(w).all():
            raise ValueError("weights have non-finite entries")
        w = linalg.clip_spectrum(w)
        return self._spectral_image(self._frame_for(linalg.as_complex_matrix(V)), w, p)

    def _frame_for(self, V: np.ndarray) -> np.ndarray:
        """What `_spectral_image` needs of a checked V whatever the weights:
        here V itself."""
        return V

    def _spectral_image(self, V: np.ndarray, w: np.ndarray, p: float) -> tuple:
        """`spectral_image` of arguments it has already checked, V given as
        its frame (`_frame_for`).  Here E(Z) is formed densely and
        diagonalized, values ascending."""
        spectrum = linalg.psd_spectrum(self.apply((V * w) @ linalg.dagger(V)))
        return spectrum.values, linalg.spectral_power(spectrum, p)

    def adjoint(self) -> "QuantumChannel":
        """The map with Kraus {K_i^dag}; unital iff self is trace preserving,
        trace preserving iff self is unital."""
        return QuantumChannel(linalg.dagger(self.kraus))

    def trace_preserving_residual(self) -> float:
        return _kraus_tp_residual(self.kraus)

    def _idempotency_residual(self) -> float:
        """||S^2 - S||_F on the superoperator, which is not kept: a certified
        map holds its channel, and few readers of a map need S."""
        S = kraus_to_superop(self.kraus)
        return float(np.linalg.norm(S @ S - S))

    def unitality_residual(self) -> float:
        return linalg.frobenius(self.apply(np.eye(self.dim, dtype=complex)) - np.eye(self.dim))


def _chunks(n: int, size: int) -> list:
    """Slices of an n-operator stack, a few operators at a time: as many as
    keep a chunk within 2^13 complex entries (128 KiB) when each operator
    brings `size` of them, and at least one."""
    step = max(1, 2**13 // max(size, 1))
    return [slice(start, start + step) for start in range(0, n, step)]


def _kraus_act(ops: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_i K_i A K_i^dag over an (n, d, d) stack, for one matrix A or a
    (..., d, d) stack of them, as two products per chunk of operators: the
    (m d, d) rows of the chunk times A give every K_i A, laid side by side
    as (d, m d), times the (m d, d) rows of the K_i^dag.  Chunks
    (`_chunks`) keep the K_i A of one matrix within 128 KiB: unchunked,
    384 operators at d = 32 ran slower than one product per operator."""
    n, d, _ = ops.shape
    lead = A.shape[:-2]
    out = np.zeros_like(A)
    for rows in _chunks(n, A.size):
        K = ops[rows]
        m = len(K)
        KA = (K.reshape(m * d, d) @ A).reshape(lead + (m, d, d))
        out += KA.swapaxes(-3, -2).reshape(lead + (d, m * d)) @ linalg.dagger(K).reshape(m * d, d)
    return out


def _kraus_tp_residual(ops: np.ndarray) -> float:
    """||sum_i K_i^dag K_i - I||_F over an (n, d, d) stack: per chunk of
    operators (`_chunks`), one (d, m d) x (m d, d) product of the chunk's
    stacked rows."""
    n, d, _ = ops.shape
    acc = np.zeros((d, d), dtype=complex)
    for rows in _chunks(n, d * d):
        K = ops[rows].reshape(-1, d)
        acc += linalg.dagger(K) @ K
    return linalg.frobenius(acc - np.eye(d))


class PartitionChannel(QuantumChannel):
    """The trace-preserving conditional expectation onto the block algebra of
    a partition of an orthonormal basis: the computational basis, or the
    columns of a unitary W when `basis` is given.

    `traced`, one bool for the whole map, says what every block does.  A
    kept map keeps each diagonal block, X -> sum_j L_j X L_j: its
    block-diagonal mask.  A traced map traces each block out and re-mixes
    it, X -> sum_j Tr(X L_j) L_j / n_j: each block's mean on the diagonal.
    Dephasing and Lueders are kept maps, the modified coarse-graining and
    complete mixing traced ones.  In the computational basis `apply` is the
    mask or the block means, O(d^2) per matrix; with a basis it is
    W P0(W^dag X W) W^dag, O(d^3), for P0 the same map in the computational
    basis.  `kraus` (projectors for a kept map, |k><l| / sqrt(n_j) within
    each block for a traced one, conjugated by W, as one read-only stack) is
    built on first read, and `superop` from it.  The basis is checked as an
    operator stack (`_operator_stack`).
    """

    def __init__(self, partition: MeasurementPartition, traced: bool,
                 basis: np.ndarray | None = None):
        if not isinstance(traced, (bool, np.bool_)):
            raise ValidationError(
                f"traced: expected one bool for the whole map, got {repr(traced):.60}")
        traced = bool(traced)
        d = partition.dim
        blocks = partition.blocks
        self._keep = self._mean = None
        if traced:
            # every index is a scalar row, in block order; per row, its
            # block and that block's 1 / n, and where each block starts
            n = np.array(partition.degeneracies)
            owner = np.repeat(np.arange(len(n)), n)
            self._mean = (np.cumsum(n) - n, owner, 1.0 / n[owner])
            rows, groups = np.concatenate(blocks), ()
        else:
            # complex, so that _block_act's product casts nothing
            keep = np.zeros((d, d), dtype=complex)
            for block in blocks:
                keep[np.ix_(block, block)] = 1.0
            keep.setflags(write=False)
            self._keep = keep
            rows = np.array([b[0] for b in blocks if len(b) == 1], dtype=int)
            sizes = sorted({len(b) for b in blocks if len(b) > 1})
            groups = tuple(np.array([b for b in blocks if len(b) == n]) for n in sizes)
        # E(Z)'s layout in U's frame (`_spectral_image`): the scalar rows,
        # per size n > 1 the (m, n) array of a kept map's blocks of that
        # size, and the flattened positions of the scalars' diagonal
        # entries, then of every block's entries, row-major, so that one
        # `put` writes E(Z)^p (take and put are cheaper than 2-d indexing)
        at = np.concatenate([rows * (d + 1)]
                            + [(i[:, :, None] * d + i[:, None, :]).ravel() for i in groups])
        self._layout = (rows, groups, at)
        self.partition = partition
        self.traced = traced
        self._dim = d
        # the basis W and, contiguous, its conjugate transpose
        self._basis = self._basis_h = None
        self._unitarity_defect = 0.0
        if basis is not None:
            W = _operator_stack([basis], "basis", d)[0]
            Wh = np.ascontiguousarray(linalg.dagger(W))
            Wh.setflags(write=False)
            self._basis, self._basis_h = W, Wh
            self._unitarity_defect = linalg.frobenius(Wh @ W - np.eye(d))
        self._kraus = None
        self._superop = None
        self._residuals = None

    @property
    def kraus(self) -> np.ndarray:
        if self._kraus is None:
            d = self._dim
            ops = []
            for block in self.partition.blocks:
                n = len(block)
                if self.traced:
                    K = np.zeros((n * n, d, d), dtype=complex)
                    K[np.arange(n * n), np.repeat(block, n), np.tile(block, n)] = 1.0 / np.sqrt(n)
                else:
                    K = np.zeros((1, d, d), dtype=complex)
                    K[0, block, block] = 1.0
                ops.append(K)
            K = np.concatenate(ops)
            if self._basis is not None:
                K = self._basis @ K @ self._basis_h
            K.setflags(write=False)
            self._kraus = K
        return self._kraus

    def _act(self, A: np.ndarray) -> np.ndarray:
        """E(A) for a (..., d, d) stack, W P0(W^dag A W) W^dag with a basis,
        W^dag the contiguous copy kept since construction.
        The four products stay stacked matmuls, one BLAS call per matrix.
        2-d products over the whole stack, (d, d) @ (d, n d) on the left and
        (n d, d) @ (d, d) on the right, are 1.2-4 times faster at 14-70 rows
        of d <= 8, but at d = 3 a row's image then moved by up to 6.8e-16
        from the same row alone (d = 2, 4 and 8 were bit-equal).  Every
        product on the right, through transposes, kept each row bit-equal
        to itself alone but moved it by up to 4.6e-16 from these products.
        The oracle's rows must equal each problem solved alone, and its
        records stay bit-identical, so neither layout is taken."""
        if self._basis is None:
            return self._block_act(A)
        W, Wh = self._basis, self._basis_h
        return W @ self._block_act(Wh @ A @ W) @ Wh

    def _block_act(self, A: np.ndarray) -> np.ndarray:
        """P0: the map in the computational basis.  A kept map multiplies by
        its mask.  A traced map writes each block's mean onto the diagonal,
        a sum over the block times 1 / n, so that a matrix's image does not
        depend on the stack it comes in: as a product with the averaging
        matrix, BLAS rounded one (n, k) x (k, k) product differently as n
        changed.  One matrix takes the same sums through a flat `take` and
        `put`, without the stack's reshapes and fancy indexing."""
        if self._mean is None:
            # C order whatever A's layout, as the traced image
            return np.multiply(A, self._keep, order="C")
        starts, owner, inv = self._mean
        at = self._layout[2]
        if A.ndim == 2:
            out = np.zeros((self._dim, self._dim), dtype=complex)
            out.put(at, np.add.reduceat(A.take(at), starts).take(owner) * inv)
            return out
        flat = A.shape[:-2] + (self._dim * self._dim,)
        out = np.zeros(A.shape, dtype=complex)
        sums = np.add.reduceat(A.reshape(flat).take(at, axis=-1), starts, axis=-1)
        out.reshape(flat)[..., at] = sums.take(owner, axis=-1) * inv
        return out

    def _frame_for(self, V: np.ndarray) -> tuple:
        """(S, stacks): what `_spectral_image` reads off U = W^dag V (U = V
        without a basis) whatever the weights.  S holds the squared moduli
        of U's scalar rows, one (k, d) real array, so that S @ w gives the
        scalar eigenvalues: for a traced map each row is replaced by the
        mean over its block.  stacks holds, per size n > 1 of a kept map's
        blocks, the (m, n, d) stack R of their rows of U and its conjugate
        transpose."""
        U = V if self._basis is None else self._basis_h @ V
        scalar_rows, block_rows, _ = self._layout
        R = U.take(scalar_rows, axis=0)
        S = R.real * R.real + R.imag * R.imag
        if self._mean is not None:
            starts, owner, inv = self._mean
            S = np.add.reduceat(S, starts, axis=0).take(owner, axis=0) * inv[:, None]
        stacks = []
        for rows in block_rows:
            B = U.take(rows, axis=0)
            stacks.append((B, linalg.dagger(B)))
        return S, tuple(stacks)

    def _spectral_image(self, frame: tuple, w: np.ndarray, p: float) -> tuple:
        """(values, X): the clipped eigenvalues of E(Z) and X = E(Z)^p for
        Z = V diag(w) V^dag, read off U = W^dag V (U = V without a basis)
        through the frame (S, stacks) that `_frame_for` took of V:
        E(Z) = W P0(U diag(w) U^dag) W^dag, and P0 of it is block diagonal.
        A kept singleton i has the eigenvalue |U_i|^2 . w, and every index
        of a traced map's block j the mean of those over block j, read as
        one row of S, which holds that mean of |U|^2 already; both are
        non-negative by construction, so they need no clip, and a map with
        no scalar rows forms no S @ w.  A kept map's blocks of each size
        n > 1, (U_I w) U_I^dag, are formed and diagonalized together, in one
        batched eigh per size, and the eigenvalues of every block are
        clipped in place in one call.  values lists
        the scalars first, then each block's eigenvalues, not sorted;
        `linalg.matrix_power`'s round-off rule applies to all of them at
        once.  The power is written into U's frame by one `put`, at the
        positions the map fixed when it was built, and rotated out with the
        W^dag kept since construction: a basis costs one d x d product in
        and two out (one, (W f) W^dag, when every eigenvalue is a scalar),
        O(d^2 + sum n^2 d) besides.
        """
        S, stacks = frame
        scalar_rows, _, at = self._layout
        if not stacks:
            diag = S @ w
            f = linalg.power_values(diag, p)
            if self._basis is not None:
                g = np.empty(self._dim)
                g.put(scalar_rows, f)
                return diag, (self._basis * g) @ self._basis_h
            X = np.zeros((self._dim, self._dim), dtype=complex)
            X.put(at, f)
            return diag, X
        spectra = [np.linalg.eigh((R * w) @ Rh) for R, Rh in stacks]
        k = len(S)
        values = np.concatenate(([S @ w] if k else []) + [e.ravel() for e, _ in spectra])
        linalg.clip_spectrum(values[k:], out=values[k:])
        f = linalg.power_values(values, p)
        parts = [f[:k]]
        for _, Q in spectra:
            m, n = Q.shape[:2]
            parts.append(((Q * f[k:k + m * n].reshape(m, 1, n)) @ linalg.dagger(Q)).ravel())
            k += m * n
        X = np.zeros((self._dim, self._dim), dtype=complex)
        X.put(at, np.concatenate(parts))
        if self._basis is not None:
            X = self._basis @ X @ self._basis_h
        return values, X

    def _block_residuals(self) -> tuple:
        """(trace preservation, idempotency) of P0, read off its
        superoperator S0.  A kept map keeps or zeroes every matrix unit,
        S0 e_ab = keep[a, b] e_ab, so ||S0^2 - S0||_F = ||keep^2 - keep||_F
        and [Tr P0(e_ab)] - I (the transpose of sum_i K_i^dag K_i - I) is
        the diagonal keep[a, a] - 1.  A traced map zeroes the off-diagonal
        units and mixes the diagonal ones by the block-averaging matrix avg,
        formed here: the residuals are ||avg^2 - avg||_F and the row sums
        of avg minus 1.  O(d^2) for a kept map and one d x d product for a
        traced one; neither S0 nor a Kraus operator is formed."""
        if self._mean is None:
            keep = self._keep
            return linalg.frobenius(np.diagonal(keep) - 1.0), linalg.frobenius(keep * keep - keep)
        _, owner, inv = self._mean
        avg = (owner[:, None] == owner) * inv
        return linalg.frobenius(avg.sum(axis=1) - 1.0), linalg.frobenius(avg @ avg - avg)

    def _residual_bounds(self) -> tuple:
        """(trace preservation, idempotency, unitality) residuals, as in
        `certify_rdm`, or upper bounds on them.

        Those of P0 are measured (`_block_residuals`, ||P0(I) - I||_F).
        With a basis W of unitarity defect w = ||W^dag W - I||_F, write
        W^dag W = I + F and ||W||_op^2 <= 1 + w; P0 is an orthogonal
        projection in the Hilbert-Schmidt inner product, so its superoperator
        has norm 1.  Then E = Ad_W P0 Ad_W^dag (Ad_W: X -> W X W^dag) gives

          E^dag(I) - I = (W W^dag - I) + W (P0^dag(I) - I) W^dag + W P0^dag(F) W^dag,
          E(I) - I     = (W W^dag - I) + W (P0(I) - I) W^dag + W P0(F) W^dag,
          E^2 - E      = Ad_W [P0 (Ad_{I+F} - id) P0 + P0^2 - P0] Ad_W^dag,

        and ||Ad_{I+F} - id||_F <= 2 sqrt(d) w + w^2, so

          tp <= w + (1 + w)(tp0 + w),  unital <= w + (1 + w)(unital0 + w),
          idem <= (1 + w)^2 (idem0 + 2 sqrt(d) w + w^2).

        Without a basis w = 0 and these are P0's own residuals.
        """
        if self._residuals is None:
            d = self._dim
            tp0, idem0 = self._block_residuals()
            unital0 = linalg.frobenius(self._block_act(np.eye(d, dtype=complex)) - np.eye(d))
            w = self._unitarity_defect
            g = 1.0 + w
            self._residuals = (w + g * (tp0 + w),
                               g * g * (idem0 + 2.0 * np.sqrt(d) * w + w * w),
                               w + g * (unital0 + w))
        return self._residuals

    def trace_preserving_residual(self) -> float:
        return self._residual_bounds()[0]

    def _idempotency_residual(self) -> float:
        return self._residual_bounds()[1]

    def unitality_residual(self) -> float:
        return self._residual_bounds()[2]


class ResourceDestroyingMap(QuantumChannel):
    """A certified idempotent, unital, trace-preserving channel.

    Built through `certify_rdm` or the named constructors; wraps the
    certified channel (or a Kraus list) and keeps its representation, and
    carries the certification residuals (`idempotency_residual`, and
    `unitality_residual()`, which returns the certified value rather than
    measuring again) and, when available, the descriptor it was built from,
    with its matrices kept as read-only arrays (`map_to_json` encodes them).
    """

    def __init__(self, channel, idempotency_residual: float, unitality_residual: float,
                 descriptor: dict | None = None):
        if not isinstance(channel, QuantumChannel):
            channel = QuantumChannel(channel)
        self.channel = channel
        self._dim = channel.dim
        self.idempotency_residual = idempotency_residual
        self._unitality_residual = unitality_residual
        self.descriptor = descriptor

    def unitality_residual(self) -> float:
        return self._unitality_residual

    @property
    def kraus(self) -> np.ndarray:
        return self.channel.kraus

    @property
    def superop(self) -> np.ndarray:
        return self.channel.superop

    def _act(self, A: np.ndarray) -> np.ndarray:
        return self.channel._act(A)

    def _frame_for(self, V: np.ndarray):
        return self.channel._frame_for(V)

    def _spectral_image(self, frame, w: np.ndarray, p: float) -> tuple:
        """(values, E(Z)^p) from the certified channel's own _spectral_image."""
        return self.channel._spectral_image(frame, w, p)

    def trace_preserving_residual(self) -> float:
        return self.channel.trace_preserving_residual()

    def _idempotency_residual(self) -> float:
        return self.channel._idempotency_residual()


def certify_rdm(channel: QuantumChannel, descriptor: dict | None = None) -> ResourceDestroyingMap:
    """Certify trace preservation, idempotency and unitality of a channel.

    Trace preservation is checked as ||sum_i K_i^dag K_i - I||_F <= 1e-10;
    idempotency on the superoperator, ||S^2 - S||_F <= 1e-9 (the looser
    tolerance absorbs round-off from squaring); unitality as
    ||E(I) - I||_F <= 1e-10.  A Kraus-sum channel squares S; a partition
    map reads the same residuals off the blocks of its superoperator,
    without forming it, and bounds what its basis adds (see
    `PartitionChannel._residual_bounds`).  Raises ValidationError,
    NotIdempotent or NotUnital with the measured residual; a NaN residual
    fails its gate.
    """
    tp = channel.trace_preserving_residual()
    if not tp <= TRACE_PRESERVING_TOL:
        raise ValidationError(f"trace-preservation residual {tp:.3e} exceeds {TRACE_PRESERVING_TOL:.0e}")
    idem = channel._idempotency_residual()
    if not idem <= IDEMPOTENCY_TOL:
        raise NotIdempotent(f"||S^2 - S|| = {idem:.3e} exceeds {IDEMPOTENCY_TOL:.0e}")
    unital = channel.unitality_residual()
    if not unital <= UNITALITY_TOL:
        raise NotUnital(f"||E(I) - I|| = {unital:.3e} exceeds {UNITALITY_TOL:.0e}")
    return ResourceDestroyingMap(channel, idem, unital, descriptor)


def _matrix_dim(d) -> int:
    """d as a partition dim, with a ValidationError, before anything of size
    d is built, for one whose d x d complex matrix no numpy array can hold."""
    d = linalg.as_count(d, "partition dim", 1)
    if d * d * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise ValidationError(f"dimension {d} is too large for a {d}x{d} complex matrix")
    return d


@dataclass(frozen=True)
class MeasurementPartition:
    """A partition of the computational-basis indices {0,...,d-1} into blocks.

    dim is an integer >= 1.  Blocks are disjoint, nonempty, and cover every
    index; block sizes are the degeneracies of the corresponding coarse
    projectors.
    """

    dim: int
    blocks: tuple

    def __init__(self, dim: int, blocks: Iterable[Iterable[int]]):
        dim = linalg.as_count(dim, "partition dim", 1)
        try:
            normalized = tuple(tuple(sorted(linalg.as_integer(i, "a partition index")
                                            for i in b)) for b in blocks)
        except TypeError:
            raise ValidationError(
                "a partition is a list of blocks, each a list of indices") from None
        seen = [i for b in normalized for i in b]
        if any(len(b) == 0 for b in normalized):
            raise ValidationError("partition blocks must be nonempty")
        # counted before anything of size dim is built, so a huge declared
        # dim is refused at once
        if len(seen) != dim or sorted(seen) != list(range(dim)):
            raise ValidationError(
                f"blocks must disjointly cover 0..{dim - 1}, got {normalized}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "blocks", normalized)

    @classmethod
    def singletons(cls, dim: int) -> "MeasurementPartition":
        dim = _matrix_dim(dim)
        return cls(dim, [[i] for i in range(dim)])

    @classmethod
    def single_block(cls, dim: int) -> "MeasurementPartition":
        dim = _matrix_dim(dim)
        return cls(dim, [list(range(dim))])

    @property
    def degeneracies(self) -> tuple:
        return tuple(len(b) for b in self.blocks)

    def is_fine_grained(self) -> bool:
        return all(n == 1 for n in self.degeneracies)

    def projectors(self) -> list:
        """Block projectors L_j = sum_{i in I_j} |e_i><e_i|."""
        out = []
        for block in self.blocks:
            L = np.zeros((self.dim, self.dim), dtype=complex)
            for i in block:
                L[i, i] = 1.0
            out.append(L)
        return out


def _partition_map(kind: str, partition: MeasurementPartition,
                   traced: bool) -> ResourceDestroyingMap:
    desc = {"type": kind, "dim": partition.dim,
            "partition": [list(b) for b in partition.blocks]}
    channel = PartitionChannel(partition, traced)
    return certify_rdm(channel, desc)


def dephasing_map(partition: MeasurementPartition) -> ResourceDestroyingMap:
    """Fine-grained projective measurement: rho -> sum_i P_i rho P_i.

    Requires an all-singleton partition; the fixed points are the states
    diagonal in the computational basis.
    """
    if not partition.is_fine_grained():
        raise NotFineGrained(
            f"dephasing needs singleton blocks, got degeneracies {partition.degeneracies}"
        )
    return _partition_map("dephasing", partition, traced=False)


def lueders_map(partition: MeasurementPartition) -> ResourceDestroyingMap:
    """Coarse-grained projective (Lueders) measurement: rho -> sum_j L_j rho L_j."""
    return _partition_map("lueders", partition, traced=False)


def modified_coarse_map(partition: MeasurementPartition) -> ResourceDestroyingMap:
    """Coarse measurement with maximally mixed block updates:
    rho -> sum_j Tr(rho L_j) L_j / n_j.

    Its Kraus view is {|e_k><e_l| / sqrt(n_j) : k, l in I_j}.
    """
    return _partition_map("modified", partition, traced=True)


def _joint_eigenbasis(K: np.ndarray) -> tuple:
    """(W, lam, off, norms) for an (n, d, d) stack: W the eigenvectors of the
    Hermitian combination H = sum_k c_k K_k + h.c. with fixed pseudo-random
    c_k, lam[k] the diagonal of W^dag K_k W, off[k] the Frobenius norm of its
    off-diagonal part and norms[k] = ||K_k||_F.

    Normal commuting operators, and with them their adjoints, are diagonal in
    a common orthonormal basis, which then diagonalizes H; c_k in general
    position give distinct joint eigenvalues distinct eigenvalues of H, so
    H's eigenbasis is a joint one.  For any other stack off measures how far
    W is from one.  The seed is fixed so that a map builds the same way
    every time.
    """
    n, d, _ = K.shape
    rng = np.random.default_rng(0)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    H = np.tensordot(c, K, axes=1)
    W = np.linalg.eigh(H + linalg.dagger(H))[1]
    Wh = linalg.dagger(W)
    lam = np.empty((n, d), dtype=complex)
    off = np.empty(n)
    norms = np.empty(n)
    i = np.arange(d)
    for rows in _chunks(n, d * d):
        norms[rows] = np.linalg.norm(K[rows], axis=(1, 2))
        T = Wh @ K[rows] @ W
        lam[rows] = T[:, i, i]
        T[:, i, i] = 0.0
        off[rows] = np.linalg.norm(T, axis=(1, 2))
    return W, lam, off, norms


def _eigenbasis_form(K: np.ndarray) -> tuple:
    """The Kraus sum E(X) = sum_k K_k X K_k^dag of an (n, d, d) stack as a
    Lueders map in the joint eigenbasis W of its operators.

    Returns (channel, lam, err): channel is a `PartitionChannel` whose
    residuals bound E's, lam[k] = diag(W^dag K_k W) and err[k] bounds
    ||K_k - W diag(lam_k) W^dag||_F.  All three are None when M below is not
    a partition mask or the measured representation error is too large for
    the idempotency bound to stay within IDEMPOTENCY_TOL; E is then left to
    the Kraus-sum path.

    With D_k = diag(lam_k), sum_k D_k Y D_k^dag = M o Y for
    M = lam^T conj(lam), M[i, j] = sum_k lam_k[i] conj(lam_k[j]); E is
    idempotent and trace preserving exactly when M is the 0/1 mask of a
    partition, the kept blocks of P = Ad_W Mask Ad_W^dag.  Measured errors:
    w = ||W^dag W - I||_F, o_k the off-diagonal mass of W^dag K_k W,
    mu = ||M - mask||_F.  Since K_k - W W^dag K_k W W^dag = -(Q K_k + K_k Q +
    Q K_k Q) with Q = W W^dag - I, ||Q||_op <= w,

      ||K_k - W D_k W^dag||_F <= (1 + w) o_k + (2w + w^2) ||K_k||_F = err_k.

    The superoperator of X -> A X B^dag has Frobenius norm ||A||_F ||B||_F,
    sum_k ||D_k||_F^2 = Tr M and ||W||_op^2 <= 1 + w, so with a = ||err||_2
    the superoperators of E and P differ in Frobenius norm by at most

      delta = (1 + w)^2 mu + 2 (1 + w) sqrt(Tr M) a + a^2.

    With S_E = S_P + Delta and ||S_P||_op <= (1 + w)^2,
    S_E^2 - S_E = S_P^2 - S_P + S_P Delta + Delta S_P + Delta^2 - Delta, so

      idem(E) <= idem(P) + (2 (1 + w)^2 + 1) delta + delta^2,

    about idem(P) + 3 delta.  Trace preservation and unitality of E are
    measured directly, ||sum_k K_k^dag K_k - I||_F and ||E(I) - I||_F (2n
    products, as the Kraus-sum path computes them); each reported residual is
    the larger of E's and P's, so it bounds both the given Kraus sum and the
    map that is applied.  Everything is O(n d^3); no superoperator is formed.
    Quantities are measured in floating point, with round-off of the same
    order as that of the Kraus-sum path's own residuals.
    """
    n, d, _ = K.shape
    W, lam, off, norms = _joint_eigenbasis(K)
    w = linalg.frobenius(linalg.dagger(W) @ W - np.eye(d))
    g = 1.0 + w
    err = g * off + (2.0 * w + w * w) * norms
    a = float(np.linalg.norm(err))
    M = lam.T @ lam.conj()
    keep = M.real > 0.5
    delta = (g * g * linalg.frobenius(M - keep)
             + 2.0 * g * np.sqrt(np.trace(M).real) * a + a * a)
    excess = (2.0 * g * g + 1.0) * delta + delta * delta
    first = keep.argmax(axis=1)  # of a partition mask: the first index of each block
    if not (excess <= IDEMPOTENCY_TOL and np.array_equal(keep, first[:, None] == first)):
        return None, None, None
    blocks = [np.flatnonzero(first == i) for i in np.flatnonzero(first == np.arange(d))]
    channel = PartitionChannel(MeasurementPartition(d, blocks), False, basis=W)
    tp, idem, unital = channel._residual_bounds()
    idem += excess
    if not idem <= IDEMPOTENCY_TOL:
        return None, None, None
    eye = np.eye(d, dtype=complex)
    channel._residuals = (max(tp, _kraus_tp_residual(K)), idem,
                          max(unital, linalg.frobenius(_kraus_act(K, eye) - eye)))
    return channel, lam, err


def _check_closure(table: np.ndarray, err: np.ndarray, w: float) -> None:
    """Raise NotAGroup unless unitaries U_g are closed under products and
    inverses up to phase within GROUP_CLOSURE_TOL, read off the rows of an
    (n, m, k, k) table: row g is U_g as m diagonal blocks of size k.  Either
    the eigenvalues u_g of U_g in a basis W, as d blocks of 1 x 1, with
    err[g] >= ||U_g - V_g||_F for V_g = W diag(u_g) W^dag and
    w = ||W^dag W - I||_F; or U_g itself, one d x d block, with err = 0 and
    w = 0.

    With W^dag W = I + F, ||V_g||_op <= (1 + w) t_g = v_g for t_g the
    largest Frobenius norm of row g's blocks, and
    ||U_h||_op <= sqrt(1 + UNITARY_TOL) = s,

      ||U_g U_h - phi U_m||_F <= (1 + w)(||u_g u_h - phi u_m|| + t_g t_h w)
                                 + s err_g + v_g err_h + err_m,
      ||U_g^dag - phi U_m||_F <= (1 + w) ||u_g^dag - phi u_m|| + err_g + err_m,

    products and adjoints taken blockwise.  m and phi come from the largest
    overlap <u_m, target>: the rows of one (n^2, m k^2) x (m k^2, n) product,
    a few g at a time.
    """
    flat = table.reshape(len(table), -1)
    n, width = flat.shape
    g = 1.0 + w
    top = np.linalg.norm(table, axis=(2, 3)).max(axis=1)
    s = np.sqrt(1.0 + UNITARY_TOL)

    def within(targets, slack):
        overlaps = targets @ flat.conj().T
        best = np.abs(overlaps).argmax(axis=1)
        phase = np.exp(1j * np.angle(overlaps[np.arange(len(targets)), best]))
        miss = np.linalg.norm(targets - phase[:, None] * flat[best], axis=1)
        return bool(np.all(g * miss + slack + err[best] <= GROUP_CLOSURE_TOL))

    # the products U_g U_h for a few g at a time, at most 2^12 complex
    # entries (64 KiB) per array
    step = max(1, 2**12 // (n * width))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        # blockwise U_g U_h; einsum skips matmul's per-block cost on 1 x 1 blocks
        products = np.einsum("gmij,hmjk->ghmik", table[rows], table).reshape(-1, width)
        slack = g * np.outer(top[rows], top) * w + s * err[rows, None] + g * np.outer(top[rows], err)
        if not within(products, slack.reshape(-1)):
            raise NotAGroup("set is not closed under products")
    if not within(linalg.dagger(table).reshape(n, -1), err):
        raise NotAGroup("set is not closed under inverses")


def twirling_map(unitaries: Iterable[np.ndarray]) -> ResourceDestroyingMap:
    """Finite-group twirl: rho -> (1/|G|) sum_g U_g rho U_g^dag.

    Each element must be unitary and the set closed under products and
    inverses (up to global phase, which is invisible at the channel level);
    a non-closed set silently breaks idempotency, so it is a hard error.

    A twirl over an abelian group is built as a Lueders map in the group's
    joint eigenbasis and its closure checked on the eigenvalues
    (`_eigenbasis_form`, `_check_closure`): O(n d^3 + n^3 d) for n
    elements, no superoperator.  Non-abelian groups, and any case whose
    measured representation error is too large, take the Kraus sum, and
    closure is checked on the matrices, by the same chunked overlap
    products: O(n^2 d^3 + n^3 d^2).
    """
    group = _operator_stack(unitaries, "unitaries")
    n, d, _ = group.shape
    res = np.linalg.norm(linalg.dagger(group) @ group - np.eye(d), axis=(1, 2))
    if not (res <= UNITARY_TOL).all():
        raise NotUnitary(f"||U^dag U - I|| = {res.max():.3e} exceeds {UNITARY_TOL:.0e}")
    K = group / np.sqrt(n)
    K.setflags(write=False)
    form, lam, err = _eigenbasis_form(K)
    if form is None:
        _check_closure(group[:, None], np.zeros(n), 0.0)
    else:
        _check_closure(np.sqrt(n) * lam[:, :, None, None], np.sqrt(n) * err, form._unitarity_defect)
    desc = {"type": "twirl", "dim": d, "unitaries": group}
    return certify_rdm(form if form is not None else QuantumChannel(K), desc)


def mixing_map(d: int) -> ResourceDestroyingMap:
    """Complete mixing: rho -> Tr(rho) I/d.  Kraus view {|i><j| / sqrt(d)}."""
    d = linalg.as_count(d, "mixing map dim", 2)
    channel = PartitionChannel(MeasurementPartition.single_block(d), True)
    return certify_rdm(channel, {"type": "mixing", "dim": d})


def cyclic_shift(d: int, k: int) -> np.ndarray:
    """C^k for the cyclic shift C: e_i -> e_{i+1 mod d}."""
    d = linalg.as_count(d, "cyclic shift dim", 1)
    k = linalg.as_integer(k, "cyclic shift power")
    return np.roll(np.eye(d, dtype=complex), k, axis=0)


def cyclic_twirl(d: int) -> ResourceDestroyingMap:
    """Twirl over the cyclic shift group {C^k}; dephasing in the Fourier basis."""
    d = linalg.as_count(d, "cyclic twirl dim", 1)
    return twirling_map(cyclic_shift(d, k) for k in range(d))


def map_from_json(obj: dict) -> ResourceDestroyingMap:
    """Build a certified map from the wire format

    {"type": "dephasing"|"lueders"|"modified"|"twirl"|"mixing"|"kraus",
     "dim": d, "partition": [[...], ...], "unitaries": [matrix, ...],
     "operators": [matrix, ...]}
    """
    try:
        kind = obj["type"]
        d = obj["dim"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed map object: {exc}") from None
    if not isinstance(kind, str):
        raise ValidationError(f"map type must be a string, got {repr(kind):.60}")
    d = linalg.as_integer(d, "map dim")
    key = {"dephasing": "partition", "lueders": "partition", "modified": "partition",
           "twirl": "unitaries", "kraus": "operators"}.get(kind)
    if key is not None and not isinstance(obj.get(key), list):
        raise ValidationError(f"map type {kind!r} needs {key} as a list")
    if kind in ("dephasing", "lueders", "modified"):
        partition = MeasurementPartition(d, obj["partition"])
        builder = {"dephasing": dephasing_map, "lueders": lueders_map,
                   "modified": modified_coarse_map}[kind]
        return builder(partition)
    if kind == "twirl":
        return twirling_map(_operator_stack(
            [linalg.matrix_from_json(u) for u in obj["unitaries"]], "unitaries", d))
    if kind == "mixing":
        return mixing_map(d)
    if kind == "kraus":
        K = _operator_stack([linalg.matrix_from_json(k) for k in obj["operators"]],
                            "operators", d)
        form = _eigenbasis_form(K)[0]
        desc = {"type": "kraus", "dim": d, "operators": K}
        return certify_rdm(form if form is not None else QuantumChannel(K), desc)
    raise ValidationError(f"unknown map type {kind!r}")


def map_to_json(rdm: ResourceDestroyingMap) -> dict:
    """Wire-format descriptor of a certified map."""
    desc = dict(rdm.descriptor or {"type": "kraus", "dim": rdm.dim, "operators": rdm.kraus})
    for key in ("unitaries", "operators"):
        if key in desc:
            desc[key] = [linalg.matrix_to_json(M) for M in desc[key]]
    return desc
