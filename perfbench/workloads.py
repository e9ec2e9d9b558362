"""The three benchmark workloads.

Each workload is a closed loop with one client.  Its work is cut into
rounds: a round is a fixed mix of calls whose inputs are drawn from
``numpy.random.default_rng([seed, workload, round])`` (theorem1 excepted, see
its class), so every round has the same cost profile and the same seed
always gives the same inputs.  A run
stops only at a round boundary, which keeps the mix, and therefore the
percentiles, the same whatever the number of rounds.

Inputs are generated here with numpy alone, never through the package under
test, so a change to rdmap cannot change what it is fed.

theorem1
    ``verify.run_suite("theorem1", dims=[2, 3, 4], trials=2)`` per round:
    the brute-force oracle behind acceptance criterion 1.  Trial 0 of every
    suite call is a fixed-point trial, so each round holds one fixed-point
    and one random trial (105 problems each).
cli_mixed
    In-process ``rdmap.cli.main`` ``measure``/``sweep`` requests on state and
    map files written during set-up; every request rebuilds and certifies
    its map.  Skewed to d in {2, 3, 4} (all six wire types), with a tail at
    d = 8, 16, 32.  At d = 32 only the families whose build takes under a
    second today (dephasing, lueders, twirl) are requested; mixing and
    modified at d = 32 are built in warm_sweep's set-up.
warm_sweep
    Library use: set-up builds all five families at d in {2, 4, 8, 16, 32}
    from their JSON descriptors; each op sweeps a fresh full-rank random
    state over the 7-order grid with ``closed_form_measure``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import hostspeed
import rdmap
from rdmap import channels, cli, measures, verify

GRID = (0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0)
#: block sizes of the coarse partition per dimension; the index assignment is
#: drawn per seed, the sizes are fixed so that build cost does not vary by seed
BLOCKS = {2: (2,), 3: (2, 1), 4: (2, 2), 8: (4, 2, 2), 16: (8, 4, 4), 32: (16, 8, 8)}
FAMILIES = ("dephasing", "lueders", "modified", "twirl", "mixing")

#: suite seed of acceptance criterion 1 (tests/test_acceptance.py)
ACCEPTANCE_SEED = 7
GAP_FLOOR = -1e-7
VALUE_TOL = 1e-9
FIXED_POINT_TOL = 1e-8


@dataclass
class Outcome:
    """What one timed call produced, judged outside the timed interval."""

    latencies_s: list
    failed: int
    digest: bytes
    counts: dict = field(default_factory=dict)


# -- input generation -------------------------------------------------------

def rng_for(seed: int, label: str, *path: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(label.encode()).digest()[:4], "little")
    return np.random.default_rng([seed % 2**32, tag, *path])


def random_state(rng, d: int, rank: int) -> np.ndarray:
    G = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    M = G @ G.conj().T
    return M / np.trace(M).real


def random_unitary(rng, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def matrix_json(M: np.ndarray) -> dict:
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def random_blocks(rng, d: int) -> list:
    perm = rng.permutation(d)
    cuts = np.cumsum(BLOCKS[d])[:-1]
    return [sorted(int(i) for i in b) for b in np.split(perm, cuts)]


def family_kraus(family: str, d: int, blocks) -> list:
    """Kraus operators of a built-in family, written out independently."""
    def unit(i, j, scale=1.0):
        K = np.zeros((d, d), dtype=complex)
        K[i, j] = scale
        return K
    if family == "dephasing":
        return [unit(i, i) for i in range(d)]
    if family == "lueders":
        return [sum(unit(i, i) for i in b) for b in blocks]
    if family == "modified":
        return [unit(k, l, 1 / math.sqrt(len(b))) for b in blocks for k in b for l in b]
    if family == "mixing":
        return [unit(i, j, 1 / math.sqrt(d)) for i in range(d) for j in range(d)]
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    return [np.linalg.matrix_power(shift, k) / math.sqrt(d) for k in range(d)]


def map_descriptor(rng, kind: str, d: int, variant: int = 0) -> dict:
    """A wire-format map of the given type, drawn from rng.

    twirl is the cyclic shift group in a random basis; kraus is the Kraus
    list of a built-in family, chosen by (d, variant) so that its operator
    count does not depend on the seed, conjugated by a random unitary.
    """
    if kind in ("lueders", "modified"):
        return {"type": kind, "dim": d, "partition": random_blocks(rng, d)}
    if kind == "dephasing":
        return {"type": kind, "dim": d, "partition": [[i] for i in range(d)]}
    if kind == "mixing":
        return {"type": kind, "dim": d}
    W = random_unitary(rng, d)
    if kind == "twirl":
        shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        group = [W @ np.linalg.matrix_power(shift, k) @ W.conj().T for k in range(d)]
        return {"type": "twirl", "dim": d, "unitaries": [matrix_json(U) for U in group]}
    family = FAMILIES[(d + variant) % len(FAMILIES)]
    ops = family_kraus(family, d, random_blocks(rng, d))
    return {"type": "kraus", "dim": d,
            "operators": [matrix_json(W @ K @ W.conj().T) for K in ops]}


def agrees(value: float, ref: float) -> bool:
    """Equal to VALUE_TOL, relative once |ref| exceeds 1."""
    return abs(value - ref) <= VALUE_TOL * max(1.0, abs(ref))


def float_digest(*values) -> bytes:
    return b"".join(float(v).hex().encode() + b";" for v in values)


# -- theorem1 ----------------------------------------------------------------

class Theorem1:
    """Oracle certification of the closed form through ``verify.run_suite``.

    Per-problem latency is the interval between successive problem starts,
    taken as the suite's calls to ``closed_form_measure`` (the first step of
    every problem); the last problem ends when the call returns.  A
    host-speed slice runs at every problem start, outside the intervals.

    The inputs are those of acceptance criterion 1, whose suite seed is
    fixed, and do not depend on ``--seed``: round k runs suite seed
    7 + 2k, so round 0 is exactly the criterion's first two trials.  The
    oracle's cost moves too much between random inputs for the 210 problems
    a run can afford: with seeded inputs, five seeds on a 2-vCPU Xeon VM
    gave IQR/median 0.19 for ops_per_s and 0.26 for the per-problem median
    latency.

    Set-up is a cold start: a fresh interpreter importing rdmap, which is
    what ``rdmap verify`` pays before its first problem.
    """

    name = "theorem1"
    setup_repeats = 9
    reference_rounds = 1

    def __init__(self, seed: int, tiny: bool, root: str):
        self.dims = [2] if tiny else [2, 3, 4]
        self.grid = (0.5, 2.0) if tiny else GRID
        self.src = os.path.join(root, "src")

    def setup(self):
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path.insert(0, {self.src!r}); import rdmap"],
                       check=True, stdin=subprocess.DEVNULL)

    def round(self, k: int) -> list:
        return [ACCEPTANCE_SEED + 2 * k]

    def execute(self, suite_seed):
        marks = []
        inner = verify.closed_form_measure

        def problem_start(*args, **kwargs):
            paused = perf_counter()
            hostspeed.take_slice()
            marks.append((paused, perf_counter()))
            return inner(*args, **kwargs)

        verify.closed_form_measure = problem_start
        try:
            report = verify.run_suite("theorem1", dims=self.dims, a_grid=self.grid,
                                      trials=2, seed=suite_seed)
        finally:
            verify.closed_form_measure = inner
        return report, marks

    def judge(self, suite_seed, raw, t0, t1, check=True) -> Outcome:
        report, marks = raw
        records = report.records
        if len(marks) != len(records):
            raise RuntimeError(f"saw {len(marks)} problem starts for {len(records)} records")
        starts = [resumed for _, resumed in marks]
        ends = [paused for paused, _ in marks[1:]] + [t1]
        failed = sum(1 for r in records
                     if not (r["violation"] <= 0 and r["gap"] >= GAP_FLOOR and r["sigma_ok"]))
        digest = b"".join(float_digest(r["closed"], r["oracle"], r["gap"]) for r in records)
        return Outcome([e - s for s, e in zip(starts, ends)], failed, digest,
                       {"escalations": sum(1 for r in records if r["escalated"])})


# -- cli_mixed ---------------------------------------------------------------

class CliMixed:
    """Cold CLI requests through ``rdmap.cli.main`` on files from set-up."""

    name = "cli_mixed"
    setup_repeats = 7
    reference_rounds = 3
    STATES_PER_DIM = 4
    MAPS_PER_CLASS = 2

    def __init__(self, seed: int, tiny: bool, root: str):
        self.seed = seed
        self.dir = os.path.join(root, ".perfbench_out", f"cli_mixed-{seed}")
        small = (2, 3) if tiny else (2, 3, 4)
        kinds = FAMILIES + ("kraus",)
        # (command, map type, d, output format, sweep grid)
        classes = []
        for d in small:
            for kind in kinds:
                classes += [("measure", kind, d, "json", None), ("measure", kind, d, "csv", None),
                            ("sweep", kind, d, "csv", GRID), ("sweep", kind, d, "json", GRID[1::2])]
        tail = {8: FAMILIES} if tiny else {8: FAMILIES, 16: FAMILIES,
                                            32: ("dephasing", "lueders", "twirl")}
        for d, fams in tail.items():
            for i, kind in enumerate(fams):
                classes.append(("measure", kind, d, "json", None))
                if d == 8 or i % 2:
                    classes.append(("sweep", kind, d, "csv", GRID))
        self.classes = classes
        self.map_keys = sorted({(kind, d) for _, kind, d, _, _ in classes})
        self.dims = sorted({d for _, _, d, _, _ in classes})
        self._ref_maps = {}

    def _path(self, *parts) -> str:
        return os.path.join(self.dir, "-".join(str(p) for p in parts) + ".json")

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        rng = rng_for(self.seed, self.name + "/setup")
        self.states = {}
        self.maps = {}
        for d in self.dims:
            for i in range(self.STATES_PER_DIM):
                rho = random_state(rng, d, int(rng.integers(1, d + 1)))
                self.states[d, i] = rho
                self._write(self._path("state", d, i), matrix_json(rho))
        for kind, d in self.map_keys:
            for i in range(self.MAPS_PER_CLASS):
                desc = map_descriptor(rng, kind, d, i)
                self.maps[kind, d, i] = desc
                self._write(self._path("map", kind, d, i), desc)

    @staticmethod
    def _write(path, obj):
        with open(path, "w") as fh:
            json.dump(obj, fh)

    def round(self, k: int) -> list:
        """The classes in a seeded order.  Map variant and order a follow
        the class index, so the cost of a round does not depend on the
        seed; the state and the order of requests do."""
        rng = rng_for(self.seed, self.name, k)
        calls = []
        for i, (cmd, kind, d, fmt, grid) in enumerate(self.classes):
            state = int(rng.integers(self.STATES_PER_DIM))
            calls.append((cmd, kind, d, fmt, grid, state, i % self.MAPS_PER_CLASS,
                          GRID[(i + k) % len(GRID)]))
        return [calls[i] for i in rng.permutation(len(calls))]

    def argv(self, call) -> list:
        cmd, kind, d, fmt, grid, state, variant, a = call
        argv = [cmd, "--state", self._path("state", d, state),
                "--map", self._path("map", kind, d, variant),
                "--output", fmt, "--out", os.path.join(self.dir, "out.txt")]
        if cmd == "measure":
            return argv + ["--a", repr(a)]
        return argv + ["--a-grid", ",".join(repr(x) for x in grid)]

    def execute(self, call):
        return cli.main(self.argv(call))

    def _reference(self, kind, d, variant, state, a) -> float:
        key = (kind, d, variant)
        if key not in self._ref_maps:
            self._ref_maps[key] = channels.map_from_json(self.maps[key])
        return measures.closed_form_measure(self.states[d, state], self._ref_maps[key], a).value

    def judge(self, call, code, t0, t1, check=True) -> Outcome:
        cmd, kind, d, fmt, grid, state, variant, a = call
        out = os.path.join(self.dir, "out.txt")
        ok = code == 0 and os.path.exists(out)
        text = ""
        if ok:
            with open(out) as fh:
                text = fh.read()
            os.remove(out)
        if ok and check:
            try:
                if fmt == "json":
                    parsed = json.loads(text)
                    rows = parsed["rows"] if cmd == "sweep" else [parsed]
                else:
                    rows = list(csv.DictReader(io.StringIO(text)))
                got = [(float(r["a"]), float(r["value"])) for r in rows]
                want_a = [a] if cmd == "measure" else list(grid)
                ok = [x for x, _ in got] == want_a and all(
                    agrees(v, self._reference(kind, d, variant, state, x)) for x, v in got)
            except (KeyError, ValueError, TypeError):
                ok = False
        return Outcome([t1 - t0], 0 if ok else 1,
                       hashlib.sha256(text.encode()).digest() + bytes([code & 0xFF]))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# -- warm_sweep --------------------------------------------------------------

class WarmSweep:
    """Closed-form sweeps on maps built once in set-up."""

    name = "warm_sweep"
    setup_repeats = 3
    reference_rounds = 8

    def __init__(self, seed: int, tiny: bool, root: str):
        self.seed = seed
        dims = (2, 4) if tiny else (2, 4, 8, 16, 32)
        rng = rng_for(seed, self.name + "/setup")
        self.descriptors = [map_descriptor(rng, fam, d) for d in dims for fam in FAMILIES]
        self.maps = []

    def setup(self):
        self.maps = []  # free the previous set-up's maps, so peak RSS holds one set
        self.maps = [channels.map_from_json(desc) for desc in self.descriptors]

    def round(self, k: int) -> list:
        """The 25 maps in a seeded order, each with a fresh full-rank state,
        drawn as rdmap's own suites draw theirs (a d x d Ginibre factor)."""
        rng = rng_for(self.seed, self.name, k)
        calls = []
        for i in rng.permutation(len(self.descriptors)):
            d = self.descriptors[i]["dim"]
            calls.append((int(i), random_state(rng, d, d)))
        return calls

    def execute(self, call):
        i, rho = call
        return [rdmap.closed_form_measure(rho, self.maps[i], a) for a in GRID]

    def judge(self, call, reports, t0, t1, check=True) -> Outcome:
        _, rho = call
        ok = True
        digest = b""
        for rep, a in zip(reports, GRID):
            if check:
                ref = measures.tsallis_relative_entropy(rho, rep.sigma_star, a)
                ok &= agrees(rep.value, ref) and rep.fixed_point_residual <= FIXED_POINT_TOL
            digest += float_digest(rep.value, rep.N, rep.fixed_point_residual)
        return Outcome([t1 - t0], 0 if ok else 1, digest)

    def known_defects(self) -> dict:
        """The gap the value check would see on rank-deficient states, which
        the timed rounds do not draw: each Lueders map of set-up on a pure
        state at a = 2.  Round-off eigenvalues of E(rho^a) survive the
        1/a-th power, so the gap is about 1e-8 today, over VALUE_TOL.
        Reported, not counted as failures; it falls to round-off once
        ``closed_form_measure`` takes the power on the support."""
        rng = rng_for(self.seed, self.name + "/pure")
        gap = 0.0
        for desc, E in zip(self.descriptors, self.maps):
            if desc["type"] == "lueders":
                rho = random_state(rng, E.dim, 1)
                rep = rdmap.closed_form_measure(rho, E, 2.0)
                ref = measures.tsallis_relative_entropy(rho, rep.sigma_star, 2.0)
                gap = max(gap, abs(rep.value - ref))
        return {"rank1_a2_lueders_gap": gap, "value_tol": VALUE_TOL}


WORKLOADS = {w.name: w for w in (Theorem1, CliMixed, WarmSweep)}
