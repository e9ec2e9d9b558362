"""CPTP maps, their adjoints, and the built-in resource-destroying maps.

Two representations share the `QuantumChannel` interface.  Twirls and raw
Kraus input are Kraus sums, rho -> sum_i K_i rho K_i^dag.  The four
partition families (dephasing, Lueders, modified coarse-graining, complete
mixing) are `PartitionChannel`s: the trace-preserving conditional
expectation onto the block algebra of a partition, where each block either
keeps its diagonal block or traces it out, so applying one is a mask plus
block averaging, O(d^2), with no Kraus operators.

The d^2 x d^2 superoperator (column-major vectorization, column (a, b) is
vec E(|a><b|), S = sum_i conj(K_i) (x) K_i) is the canonical representation
for map equality, since Kraus decompositions are not unique.  Both it and a
partition map's Kraus list are views built on first read; certification and
`apply` need neither for a partition map.  Channels are immutable once
built.
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


def vec(M: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(M).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v).reshape(d, d, order="F")


def kraus_to_superop(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """S = sum_i conj(K_i) (x) K_i, as one matrix product over the stacked
    operators: S[(p, q), (r, s)] = sum_i conj(K_i)[p, r] K_i[q, s]."""
    K = np.asarray(kraus, dtype=complex)
    n, d, _ = K.shape
    S = K.conj().reshape(n, d * d).T @ K.reshape(n, d * d)
    return S.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


class QuantumChannel:
    """A completely positive map given by Kraus operators {K_i}.

    Complete positivity holds by construction.  Trace preservation is not
    enforced here (adjoints of non-unital channels break it); the
    constructors and `certify_rdm` check it where required.  Other
    representations subclass this one and override `kraus`, `superop`,
    `_act` and the two residuals; everything else is written against those.
    """

    def __init__(self, kraus: Iterable[np.ndarray]):
        ops = tuple(np.array(K, dtype=complex) for K in kraus)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for K in ops:
            if K.ndim != 2 or K.shape != (d, d):
                raise DimensionMismatch(
                    f"Kraus operators must all be {d}x{d}, got shape {K.shape}"
                )
        for K in ops:
            K.setflags(write=False)
        self._kraus = ops
        self._dim = d
        self._superop = None

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def kraus(self) -> tuple:
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
        """sum_i K_i A K_i^dag."""
        out = np.zeros_like(A)
        for K in self.kraus:
            out += K @ A @ linalg.dagger(K)
        return out

    def adjoint(self) -> "QuantumChannel":
        """The map with Kraus {K_i^dag}; unital iff self is trace preserving,
        trace preserving iff self is unital."""
        return QuantumChannel([linalg.dagger(K) for K in self.kraus])

    def compose(self, other: "QuantumChannel") -> "QuantumChannel":
        """self after other: (self . other)(rho) = self(other(rho))."""
        if other.dim != self.dim:
            raise DimensionMismatch(
                f"cannot compose dimension {self.dim} with {other.dim}"
            )
        return QuantumChannel([A @ B for A in self.kraus for B in other.kraus])

    def trace_preserving_residual(self) -> float:
        """||sum_i K_i^dag K_i - I||_F."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for K in self.kraus:
            acc += linalg.dagger(K) @ K
        return linalg.frobenius(acc - np.eye(self.dim))

    def _idempotency_residual(self) -> float:
        """||S^2 - S||_F on the superoperator, which is not kept: a certified
        map holds its channel, and few readers of a map need S."""
        S = kraus_to_superop(self.kraus)
        return float(np.linalg.norm(S @ S - S))

    def unitality_residual(self) -> float:
        return linalg.frobenius(self.apply(np.eye(self.dim, dtype=complex)) - np.eye(self.dim))


class PartitionChannel(QuantumChannel):
    """The trace-preserving conditional expectation onto the block algebra of
    a partition of the computational basis.

    Block j either keeps its diagonal block, X -> L_j X L_j, or, when
    traced[j] is true, traces it out and re-mixes, X -> Tr(X L_j) L_j / n_j.
    Dephasing keeps singleton blocks, Lueders keeps every block, the
    modified coarse-graining traces every block and complete mixing traces
    the single block.  `apply` is a mask plus block averaging, O(d^2) per
    matrix.  `kraus` (projectors for kept blocks, |k><l| / sqrt(n_j) for
    traced ones) is built on first read, and `superop` from it.
    """

    def __init__(self, partition: MeasurementPartition, traced: Sequence[bool]):
        traced = tuple(bool(t) for t in traced)
        if len(traced) != len(partition.blocks):
            raise ValidationError(
                f"{len(partition.blocks)} blocks but {len(traced)} block actions"
            )
        d = partition.dim
        diag = [i for block, t in zip(partition.blocks, traced) if t for i in block]
        keep = np.zeros((d, d))
        avg = np.zeros((len(diag), len(diag)))
        at = 0
        for block, t in zip(partition.blocks, traced):
            n = len(block)
            if t:
                avg[at:at + n, at:at + n] = 1.0 / n
                at += n
            else:
                keep[np.ix_(block, block)] = 1.0
        keep.setflags(write=False)
        avg.setflags(write=False)
        self.partition = partition
        self.traced = traced
        self._dim = d
        self._keep = keep
        self._diag = np.array(diag, dtype=int)
        self._avg = avg
        self._kraus = None
        self._superop = None
        self._residuals = None

    @property
    def kraus(self) -> tuple:
        if self._kraus is None:
            d = self._dim
            ops = []
            for block, t in zip(self.partition.blocks, self.traced):
                n = len(block)
                if t:
                    K = np.zeros((n * n, d, d), dtype=complex)
                    K[np.arange(n * n), np.repeat(block, n), np.tile(block, n)] = 1.0 / np.sqrt(n)
                else:
                    K = np.zeros((1, d, d), dtype=complex)
                    K[0, block, block] = 1.0
                ops.append(K)
            K = np.concatenate(ops)
            K.setflags(write=False)
            self._kraus = tuple(K)
        return self._kraus

    def _act(self, A: np.ndarray) -> np.ndarray:
        out = A * self._keep
        if self._diag.size:
            i = self._diag
            out[..., i, i] = A[..., i, i] @ self._avg
        return out

    def _unit_residuals(self) -> tuple:
        """(trace preservation, idempotency) from E applied to the d^2 matrix
        units e_ab in chunks.  C_ab = E(e_ab) is column (a, b) of the
        superoperator S, so sum ||E(C_ab) - C_ab||_F^2 is ||S^2 - S||_F^2,
        and [Tr C_ab] - I is the transpose of sum_i K_i^dag K_i - I; neither
        S nor a Kraus operator is formed."""
        if self._residuals is None:
            d = self._dim
            traces = np.empty(d * d, dtype=complex)
            idem = 0.0
            # at most 2^14 complex entries (256 KiB) of matrix units at once
            step = max(1, 2**14 // (d * d))
            for start in range(0, d * d, step):
                u = np.arange(start, min(start + step, d * d))
                units = np.zeros((u.size, d, d), dtype=complex)
                units[np.arange(u.size), u // d, u % d] = 1.0
                C = self._act(units)
                traces[u] = np.trace(C, axis1=1, axis2=2)
                D = self._act(C) - C
                idem += float(np.vdot(D, D).real)
            tp = linalg.frobenius(traces.reshape(d, d) - np.eye(d))
            self._residuals = (tp, float(np.sqrt(idem)))
        return self._residuals

    def trace_preserving_residual(self) -> float:
        return self._unit_residuals()[0]

    def _idempotency_residual(self) -> float:
        return self._unit_residuals()[1]


class ResourceDestroyingMap(QuantumChannel):
    """A certified idempotent, unital, trace-preserving channel.

    Built through `certify_rdm` or the named constructors; wraps the
    certified channel (or a Kraus list) and keeps its representation, and
    carries the measured certification residuals and, when available, the
    wire-format descriptor it was built from.
    """

    def __init__(self, channel, idempotency_residual: float, unitality_residual: float,
                 descriptor: dict | None = None):
        if not isinstance(channel, QuantumChannel):
            channel = QuantumChannel(channel)
        self.channel = channel
        self._dim = channel.dim
        self.idempotency_residual = idempotency_residual
        self.unitality_residual_ = unitality_residual
        self.descriptor = descriptor

    @property
    def kraus(self) -> tuple:
        return self.channel.kraus

    @property
    def superop(self) -> np.ndarray:
        return self.channel.superop

    def _act(self, A: np.ndarray) -> np.ndarray:
        return self.channel._act(A)

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
    map measures the same residuals on E applied to the matrix units,
    without forming S.  Raises ValidationError, NotIdempotent or NotUnital
    with the measured residual.
    """
    tp = channel.trace_preserving_residual()
    if tp > TRACE_PRESERVING_TOL:
        raise ValidationError(f"trace-preservation residual {tp:.3e} exceeds {TRACE_PRESERVING_TOL:.0e}")
    idem = channel._idempotency_residual()
    if idem > IDEMPOTENCY_TOL:
        raise NotIdempotent(f"||S^2 - S|| = {idem:.3e} exceeds {IDEMPOTENCY_TOL:.0e}")
    unital = channel.unitality_residual()
    if unital > UNITALITY_TOL:
        raise NotUnital(f"||E(I) - I|| = {unital:.3e} exceeds {UNITALITY_TOL:.0e}")
    return ResourceDestroyingMap(channel, idem, unital, descriptor)


@dataclass(frozen=True)
class MeasurementPartition:
    """A partition of the computational-basis indices {0,...,d-1} into blocks.

    Blocks are disjoint, nonempty, and cover every index; block sizes are the
    degeneracies of the corresponding coarse projectors.
    """

    dim: int
    blocks: tuple

    def __init__(self, dim: int, blocks: Iterable[Iterable[int]]):
        normalized = tuple(tuple(sorted(int(i) for i in b)) for b in blocks)
        seen = [i for b in normalized for i in b]
        if any(len(b) == 0 for b in normalized):
            raise ValidationError("partition blocks must be nonempty")
        if sorted(seen) != list(range(dim)):
            raise ValidationError(
                f"blocks must disjointly cover 0..{dim - 1}, got {normalized}"
            )
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "blocks", normalized)

    @classmethod
    def singletons(cls, dim: int) -> "MeasurementPartition":
        return cls(dim, [[i] for i in range(dim)])

    @classmethod
    def single_block(cls, dim: int) -> "MeasurementPartition":
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
    channel = PartitionChannel(partition, [traced] * len(partition.blocks))
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


def _match_up_to_phase(target: np.ndarray, candidates: np.ndarray, tol: float) -> bool:
    """Whether target equals one of the (n, d, d) candidates up to a phase."""
    # every overlap Tr(U^dag target) = vdot(U, target) in one product
    overlaps = np.conj(candidates.reshape(len(candidates), -1) @ np.conj(target.reshape(-1)))
    for i in np.flatnonzero(np.abs(overlaps) >= 1e-12):
        phase = overlaps[i] / abs(overlaps[i])
        if linalg.frobenius(target - phase * candidates[i]) <= tol:
            return True
    return False


def twirling_map(unitaries: Sequence[np.ndarray]) -> ResourceDestroyingMap:
    """Finite-group twirl: rho -> (1/|G|) sum_g U_g rho U_g^dag.

    Each element must be unitary and the set closed under products and
    inverses (up to global phase, which is invisible at the channel level);
    a non-closed set silently breaks idempotency, so it is a hard error.
    """
    ops = [np.asarray(U, dtype=complex) for U in unitaries]
    if not ops:
        raise ValidationError("twirling needs at least one unitary")
    d = ops[0].shape[0]
    for U in ops:
        if U.shape != (d, d):
            raise DimensionMismatch(f"unitaries must all be {d}x{d}, got {U.shape}")
        res = linalg.frobenius(linalg.dagger(U) @ U - np.eye(d))
        if res > UNITARY_TOL:
            raise NotUnitary(f"||U^dag U - I|| = {res:.3e} exceeds {UNITARY_TOL:.0e}")
    group = np.stack(ops)
    for U in ops:
        for V in ops:
            if not _match_up_to_phase(U @ V, group, GROUP_CLOSURE_TOL):
                raise NotAGroup("set is not closed under products")
        if not _match_up_to_phase(linalg.dagger(U), group, GROUP_CLOSURE_TOL):
            raise NotAGroup("set is not closed under inverses")
    n = len(ops)
    desc = {"type": "twirl", "dim": d,
            "unitaries": [linalg.matrix_to_json(U) for U in ops]}
    return certify_rdm(QuantumChannel([U / np.sqrt(n) for U in ops]), desc)


def mixing_map(d: int) -> ResourceDestroyingMap:
    """Complete mixing: rho -> Tr(rho) I/d.  Kraus view {|i><j| / sqrt(d)}."""
    if d < 2:
        raise ValidationError(f"mixing map needs dimension >= 2, got {d}")
    channel = PartitionChannel(MeasurementPartition.single_block(d), [True])
    return certify_rdm(channel, {"type": "mixing", "dim": d})


def cyclic_twirl(d: int) -> ResourceDestroyingMap:
    """Twirl over the cyclic shift group {C^k} with C: e_i -> e_{i+1 mod d}."""
    C = np.zeros((d, d), dtype=complex)
    for i in range(d):
        C[(i + 1) % d, i] = 1.0
    return twirling_map([np.linalg.matrix_power(C, k) for k in range(d)])


def _check_declared_dim(d: int, ops) -> None:
    for M in ops:
        if M.shape != (d, d):
            raise DimensionMismatch(
                f"map declares dim {d} but holds a {M.shape[0]}x{M.shape[1]} operator"
            )


def map_from_json(obj: dict) -> ResourceDestroyingMap:
    """Build a certified map from the wire format

    {"type": "dephasing"|"lueders"|"modified"|"twirl"|"mixing"|"kraus",
     "dim": d, "partition": [[...], ...], "unitaries": [matrix, ...],
     "operators": [matrix, ...]}
    """
    try:
        kind = obj["type"]
        d = int(obj["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed map object: {exc}") from None
    if kind in ("dephasing", "lueders", "modified"):
        if "partition" not in obj:
            raise ValidationError(f"map type {kind!r} needs a partition")
        partition = MeasurementPartition(d, obj["partition"])
        builder = {"dephasing": dephasing_map, "lueders": lueders_map,
                   "modified": modified_coarse_map}[kind]
        return builder(partition)
    if kind == "twirl":
        if "unitaries" not in obj:
            raise ValidationError("map type 'twirl' needs unitaries")
        unitaries = [linalg.matrix_from_json(u) for u in obj["unitaries"]]
        _check_declared_dim(d, unitaries)
        return twirling_map(unitaries)
    if kind == "mixing":
        return mixing_map(d)
    if kind == "kraus":
        if "operators" not in obj:
            raise ValidationError("map type 'kraus' needs operators")
        ops = [linalg.matrix_from_json(k) for k in obj["operators"]]
        _check_declared_dim(d, ops)
        desc = {"type": "kraus", "dim": d,
                "operators": [linalg.matrix_to_json(K) for K in ops]}
        return certify_rdm(QuantumChannel(ops), desc)
    raise ValidationError(f"unknown map type {kind!r}")


def map_to_json(rdm: ResourceDestroyingMap) -> dict:
    """Wire-format descriptor of a certified map."""
    if rdm.descriptor is not None:
        return rdm.descriptor
    return {"type": "kraus", "dim": rdm.dim,
            "operators": [linalg.matrix_to_json(K) for K in rdm.kraus]}
