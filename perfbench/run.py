"""rdmap benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload theorem1 --seed 1 --seconds 15 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
each call of the reference rounds untraced, traced and untraced again,
reports the per-layer metrics and the tracing overhead, and writes the spans
to ``.perfbench_out/``.  Every output is checked outside the timed intervals;
the last line of stdout is the result object.  ``--tiny`` shrinks every
workload for the smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: stop starting rounds after this long, to stay inside the 180 s run limit
HARD_CAP_S = 60.0
PERCENTILE_TAIL = 10
#: passes over one op list in an untraced run; fixed, so that every commit
#: averages over the same number of executions.  theorem1's single round
#: takes about 17 s, so three passes are what its time budget allows.
PASSES = 3


def percentile(values, p: int):
    """p-th percentile (exclusive method), or None when fewer than
    PERCENTILE_TAIL samples lie beyond it."""
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=100)[p - 1]
    return q if sum(1 for v in values if v > q) >= PERCENTILE_TAIL else None


def blas_threads():
    """OpenBLAS thread count from numpy's bundled library, or None."""
    import ctypes

    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def execute(wl, call, tracer=None, op=None):
    """One timed call, traced when a tracer is given: (raw, t0, t1)."""
    span = contextlib.nullcontext()
    if tracer is not None:
        tracer.op = op
        tracer.enabled = True
        span = tracer.span("op")
    t0 = perf_counter()
    try:
        with span:
            raw = wl.execute(call)
    finally:
        t1 = perf_counter()
        if tracer is not None:
            tracer.enabled = False
    return raw, t0, t1


def rate(latencies) -> float:
    return len(latencies) / sum(latencies)


def time_metrics(latencies, setups, scale) -> dict:
    """The end-to-end time metrics, every time multiplied by scale."""
    n = len(latencies)
    metrics = {
        "ops_per_s": {"value": rate(latencies) / scale, "unit": "1/s", "samples": n},
        "setup_s": {"value": scale * statistics.median(setups), "unit": "s",
                    "samples": len(setups)},
    }
    for p in (50, 95):
        q = percentile(latencies, p)
        if q is not None:
            metrics[f"latency_p{p}_ms"] = {"value": 1e3 * scale * q, "unit": "ms", "samples": n}
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rdmap", "__init__.py")):
        print(f"error: no rdmap sources under {ROOT}/src", file=sys.stderr)
        return 2
    # numpy asks for huge pages on large arrays; whether the kernel grants
    # them depends on the host's free memory, and it moved peak RSS by
    # 11 MiB between two runs of one cli_mixed seed.  Must precede numpy's
    # import.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    start = perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, ROOT)
    try:
        report = (traced_run if args.trace else timed_run)(wl, args, start)
        if hasattr(wl, "known_defects"):
            report["known_defects"] = wl.known_defects()
    finally:
        getattr(wl, "close", lambda: None)()
    report["machine"] = machine()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for name, m in report["metrics"].items():
        n = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}{n}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report["metrics"].items()},
    }))
    return 0


def timed_run(wl, args, start) -> dict:
    """Set up several times, then make PASSES passes over one op list.

    Pass 0 runs rounds until it has the reference rounds and its share of
    --seconds; its outputs are checked.  The later passes repeat the same
    calls, and each output must repeat pass 0's digest exactly.  An op's
    latency is its mean over the passes; perfbench/README.md says why not
    the minimum.  A host-speed slice follows every call, and every time is
    scaled by the run's factor (hostspeed.py).
    """
    import hostspeed
    hostspeed.active = True
    setups = []
    for _ in range(wl.setup_repeats):
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)

    calls, first = [], []
    digest = hashlib.sha256()
    counts = {}
    t_measure = perf_counter()
    k = 0
    while True:
        for call in wl.round(k):
            out = wl.judge(call, *execute(wl, call))
            hostspeed.take_slice()
            calls.append(call)
            first.append(out)
            if k < wl.reference_rounds:
                digest.update(out.digest)
            for key, n in out.counts.items():
                counts[key] = counts.get(key, 0) + n
        k += 1
        now = perf_counter()
        if k >= wl.reference_rounds and (now - t_measure >= args.seconds / PASSES
                                         or now - start > HARD_CAP_S):
            break

    slots = [list(o.latencies_s) for o in first]
    failed = sum(o.failed for o in first)
    for _ in range(PASSES - 1):
        for j, call in enumerate(calls):
            out = wl.judge(call, *execute(wl, call), check=False)
            hostspeed.take_slice()
            failed += first[j].failed if out.digest == first[j].digest else len(out.latencies_s)
            slots[j] = [a + b for a, b in zip(slots[j], out.latencies_s)]
    latencies = [x / PASSES for lat in slots for x in lat]
    metrics = time_metrics(latencies, setups, hostspeed.factor())
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"}
    n = len(latencies)
    return {
        "workload": wl.name, "seed": args.seed, "trace": 0, "rounds": k, "passes": PASSES,
        "correct": failed == 0, "attempted": PASSES * n, "failed": failed,
        "digest": digest.hexdigest(), "reference_rounds": wl.reference_rounds,
        "work_counts": counts, "setup_samples_s": setups,
        "host_factor": hostspeed.factor(), "host_slices": len(hostspeed.samples),
        "unscaled_metrics": time_metrics(latencies, setups, 1.0),
        "wall_s": perf_counter() - start, "metrics": metrics,
    }


def traced_run(wl, args, start) -> dict:
    """One traced set-up, then every call of the reference rounds three
    times: untraced, traced, untraced.  An op's untraced latency is the mean
    of the two executions around its traced one, so a drift in the
    machine's speed cancels to first order, also for theorem1, whose round
    is a single call of about 17 s."""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    plain, traced = [], []
    failed = 0
    digest = hashlib.sha256()
    escalations = 0
    try:
        tracer.op = "setup"
        tracer.enabled = True
        with tracer.span("setup"):
            wl.setup()
        tracer.enabled = False
        i = 0
        for k in range(wl.reference_rounds):
            for call in wl.round(k):
                before = wl.judge(call, *execute(wl, call))
                with_trace = wl.judge(call, *execute(wl, call, tracer, f"r{k}.{i}"), check=False)
                after = wl.judge(call, *execute(wl, call), check=False)
                plain += [(a + b) / 2 for a, b in zip(before.latencies_s, after.latencies_s)]
                traced += with_trace.latencies_s
                failed += before.failed + sum(
                    before.failed if out.digest == before.digest else len(out.latencies_s)
                    for out in (with_trace, after))
                digest.update(with_trace.digest)
                escalations += with_trace.counts.get("escalations", 0)
                i += 1
    finally:
        tracer.enabled = False
        tracer.uninstall()
    spans_path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}.spans.jsonl")
    n_spans = tracer.write_spans(spans_path)

    metrics = {name: {"value": float(v), "unit": unit}
               for name, (v, unit) in tracer.layer_metrics().items()}
    solves = metrics["oracle.solves"]["value"]
    metrics["oracle.escalations"] = {"value": float(escalations), "unit": "count"}
    metrics["oracle.escalation_ratio"] = {
        "value": escalations / solves if solves else 0.0, "unit": "ratio"}
    metrics["trace.ops_per_s"] = {"value": rate(traced), "unit": "1/s", "samples": len(traced)}
    metrics["trace.untraced_ops_per_s"] = {"value": rate(plain), "unit": "1/s",
                                           "samples": len(plain)}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (1.0 - rate(traced) / rate(plain)), "unit": "%"}
    work = {"oracle.evaluations": metrics["oracle.evaluations"]["value"],
            "oracle.escalations": escalations,
            "channels.kraus_ops": metrics["channels.kraus_ops"]["value"]}
    return {
        "workload": wl.name, "seed": args.seed, "trace": 1, "rounds": wl.reference_rounds,
        "correct": failed == 0, "attempted": 3 * len(traced), "failed": failed,
        "digest": digest.hexdigest(), "reference_rounds": wl.reference_rounds,
        "work_counts": work, "spans_file": os.path.relpath(spans_path, ROOT), "spans": n_spans,
        "wall_s": perf_counter() - start, "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
