"""Per-layer tracing from outside the package.

The tracer wraps rdmap's public functions at every place a module has bound
them (``verify`` and ``oracle`` import ``closed_form_measure`` by name, so
the measures module alone is not enough), records one span per outermost
call of each layer, and aggregates calls, total time and self time per
layer.  Oracle objective evaluations are too many to keep as spans; they are
counted and timed in aggregate by wrapping the ``f`` that ``simplex_minimize``
receives.

Nothing is wrapped until ``install()`` and everything is restored by
``uninstall()``.  While installed, wrappers record only when ``enabled`` is
set, so the benchmark can run its correctness checks through the same
functions without tracing them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import rdmap
from rdmap import channels, cli, linalg, measures, oracle, verify

BUILDERS = ("map_from_json", "dephasing_map", "lueders_map", "modified_coarse_map",
            "twirling_map", "mixing_map", "cyclic_twirl")

# (span name, function name, modules that bound it)
LAYERS = (
    [("channels.build", fn, (channels, verify, rdmap)) for fn in BUILDERS]
    + [
        ("channels.certify", "certify_rdm", (channels, rdmap)),
        ("channels.superop", "kraus_to_superop", (channels,)),
        ("linalg.matrix_power", "matrix_power", (linalg, rdmap)),
        ("linalg.matrix_log", "matrix_log", (linalg, rdmap)),
        ("linalg.validate_density", "validate_density", (linalg, rdmap)),
        ("measures.closed_form", "closed_form_measure", (measures, oracle, verify, rdmap)),
        ("oracle.solve", "minimize_over_free_states", (oracle, verify, rdmap)),
        ("verify.run_suite", "run_suite", (verify, rdmap)),
        ("cli.main", "main", (cli,)),
        ("cli.render", "render_json", (cli,)),
        ("cli.render", "render_csv", (cli,)),
    ]
)


class Tracer:
    """Spans and per-layer aggregates for one benchmark process."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.origin = perf_counter()
        self.spans = []          # (id, parent id, op, name, start s, end s)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []         # [span id, name, start, child seconds]
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.enabled or (self._stack and self._stack[-1][1] == name):
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        sid = len(self.spans) + len(self._stack)
        self._stack.append([sid, name, perf_counter(), 0.0])

    def _close(self):
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += dur
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        self.spans.append((sid, parent, self.op, name, start, end))

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for name, fn_name, modules in LAYERS:
            original = getattr(modules[0], fn_name)
            wrapped = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patch(mod, fn_name, wrapped)
        self._patch(channels.QuantumChannel, "apply",
                    self._wrap("channels.apply", channels.QuantumChannel.apply))
        self._patch(channels, "kraus_to_superop", self._count_superop(channels.kraus_to_superop))
        self._patch(channels, "certify_rdm", self._count_kraus(channels.certify_rdm))
        self._patch(oracle, "simplex_minimize", self._count_evals(oracle.simplex_minimize))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _count_superop(self, fn):
        def counted(kraus):
            if self.enabled:
                d = kraus[0].shape[0]
                self.counts["superop_bytes"] += 16.0 * d ** 4
            return fn(kraus)
        return counted

    def _count_kraus(self, fn):
        def counted(channel, descriptor=None):
            if self.enabled:
                self.counts["kraus_ops"] += len(channel.kraus)
            return fn(channel, descriptor)
        return counted

    def _count_evals(self, fn):
        def minimize(f, x0, config, initial_step=0.5):
            if not self.enabled:
                return fn(f, x0, config, initial_step)

            def objective(x):
                t = perf_counter()
                value = f(x)
                self.counts["eval_s"] += perf_counter() - t
                self.counts["evaluations"] += 1
                return value
            return fn(objective, x0, config, initial_step)
        return minimize

    # -- output ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals over everything recorded while enabled."""
        def ms(seconds):
            return 1e3 * seconds

        evals = self.counts["evaluations"]
        solves = self.calls["oracle.solve"]
        return {
            "oracle.evaluations": (evals, "count"),
            "oracle.solves": (solves, "count"),
            "oracle.evals_per_solve": (evals / solves if solves else 0.0, "count"),
            "oracle.eval_us": (1e6 * self.counts["eval_s"] / evals if evals else 0.0, "us"),
            "oracle.solve_ms": (ms(self.total_s["oracle.solve"]) / solves if solves else 0.0, "ms"),
            "channels.build_ms": (ms(self.total_s["channels.build"]), "ms"),
            "channels.certify_ms": (ms(self.total_s["channels.certify"]), "ms"),
            "channels.superop_ms": (ms(self.total_s["channels.superop"]), "ms"),
            "channels.superop_mb": (self.counts["superop_bytes"] / 2**20, "MiB"),
            "channels.kraus_ops": (self.counts["kraus_ops"], "count"),
            "channels.apply_calls": (self.calls["channels.apply"], "count"),
            "channels.apply_ms": (ms(self.total_s["channels.apply"]), "ms"),
            "linalg.matrix_power_calls": (self.calls["linalg.matrix_power"], "count"),
            "linalg.matrix_power_ms": (ms(self.total_s["linalg.matrix_power"]), "ms"),
            "linalg.matrix_log_ms": (ms(self.total_s["linalg.matrix_log"]), "ms"),
            "linalg.validate_density_ms": (ms(self.total_s["linalg.validate_density"]), "ms"),
            "measures.closed_form_calls": (self.calls["measures.closed_form"], "count"),
            "measures.closed_form_self_ms": (ms(self.self_s["measures.closed_form"]), "ms"),
            "cli.render_ms": (ms(self.total_s["cli.render"]), "ms"),
            "cli.self_ms": (ms(self.self_s["cli.main"]), "ms"),
            "verify.self_ms": (ms(self.self_s["verify.run_suite"]), "ms"),
        }

    def write_spans(self, path) -> int:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start_us": round(1e6 * (start - self.origin), 1),
                    "end_us": round(1e6 * (end - self.origin), 1),
                }) + "\n")
        return len(self.spans)


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close()
        return False
