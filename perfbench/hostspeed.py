"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared virtual machines whose speed drifts: on a
2-vCPU Xeon VM a fixed loop ran up to 1.5x slower for stretches of seconds
to minutes, so whole 40-second runs landed in a slow stretch and moved
every time metric together (IQR/median up to 0.3 over ten runs).

After every timed call, outside its interval, the runner times one slice of
fixed work owned by the benchmark: small Python arithmetic and 4x4 ``eigh``
calls, the kind of work rdmap does at small d.  ``factor()`` is
REF_SLICE_S over the mean slice time of the run, and every end-to-end time
is reported multiplied by it: the time the call would have taken had the
host run at the speed it had when REF_SLICE_S was measured.  Over eight
runs per workload this cut the IQR/median of warm_sweep's ``ops_per_s``
from 0.21 to 0.06.  The unscaled times stay in the full report.

Ten untimed iterations warm the caches first, so that a slice depends
less on how much cache the call before it used.  Slices are taken only
while ``active`` is set: the timed run sets it, and a traced run leaves it
unset so that no slice falls inside a span.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: median over 30 runs of the mean slice time on a 2-vCPU Intel Xeon VM
#: (numpy 2, OpenBLAS)
REF_SLICE_S = 6.6e-4
WARM_ITERS = 10
ITERS = 60

_A = np.eye(4) + 0.1
active = False
samples: list = []


def _work(n: int) -> None:
    for _ in range(n):
        sum(range(50))
        np.linalg.eigh(_A)


def take_slice() -> None:
    """Time one slice of the fixed work and keep the sample."""
    if not active:
        return
    _work(WARM_ITERS)
    t0 = perf_counter()
    _work(ITERS)
    samples.append(perf_counter() - t0)


def factor() -> float:
    """REF_SLICE_S over the mean slice time so far (1.0 before any slice)."""
    return REF_SLICE_S * len(samples) / sum(samples) if samples else 1.0
