"""Command-line front end.

    rdmap measure --state rho.json --map deph.json --a 2
    rdmap sweep   --state rho.json --map deph.json --a-grid 0.5,1.0,1.5,2.0
    rdmap verify  theorem1 --dims 2,3 --trials 50 --seed 42

Exit codes: 0 success / suite passed, 2 input or validation problem,
3 certification failure (map not idempotent or not unital, or a suite with
failures), 1 internal error.  Output is byte-stable for fixed inputs and
seed: floats are printed in scientific notation with 12 significant digits
and +inf prints as the literal "inf".

The argparse parser is built once per process, by the first `main` call,
and every later call reuses it (`build_parser` is cached): building it
costs about 1 ms, parsing one command line about 0.1 ms.  An in-process
`measure` at d = 4 then costs about 0.9 ms on a 2-vCPU Xeon VM, spread over
reading the two JSON files, validating the state, building and certifying
the map, the closed form and rendering.  Rows of Python floats, as
`matrix_to_json` gives sigma*, render in one pass.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import channels, linalg, measures, verify
from .errors import CertificationError, DimensionMismatch, ValidationError


def fmt_float(x: float) -> str:
    # + 0.0 turns -0.0 into 0.0, so the sign of a zero never reaches the output
    x = float(x) + 0.0
    if math.isinf(x) or math.isnan(x):
        return "inf"
    return f"{x:.11e}"


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        x = float(v)
        if math.isinf(x) or math.isnan(x):
            return '"inf"'
        return fmt_float(x)
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _is_scalar_list(obj) -> bool:
    return all(not isinstance(v, (dict, list, tuple)) for v in obj)


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with the float convention above.  stdlib json
    cannot format numbers, hence the hand-rolled emitter."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            # a row of matrix_to_json: _json_scalar's float branch, inlined
            return "[" + ", ".join([f"{x + 0.0:.11e}" if math.isfinite(x) else '"inf"'
                                    for x in obj]) + "]"
        if _is_scalar_list(obj):
            return "[" + ", ".join(_json_scalar(v) for v in obj) + "]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(obj)


def _compact_json(obj) -> str:
    # CSV cells must stay on one line, so nested lists render inline here.
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_compact_json(v) for v in obj) + "]"
    return _json_scalar(obj)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    if isinstance(v, (list, tuple)):
        return _compact_json(v)
    return str(v)


def render_csv(records) -> str:
    """One row per record; the header is the union of keys in first-seen
    order so heterogeneous suites still land in one table."""
    fields = []
    for r in records:
        for k in r:
            if k not in fields:
                fields.append(k)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for r in records:
        writer.writerow([_csv_cell(r.get(k)) for k in fields])
    return buf.getvalue()


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_list(s: str, kind) -> list:
    """The entries of a comma-separated list of kind (int or float), blanks
    skipped; a list with no entry is a ValidationError, as is a bad one."""
    try:
        values = [kind(v) for v in s.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValidationError(f"expected comma-separated {kind.__name__}s, got {s!r}")
    return values


def _load_map(path: str, d: int):
    """The certified map of a JSON file, for states of dimension d.  A
    declared dim other than d is refused before anything of that size is
    built; map_from_json reports a missing or malformed dim."""
    obj = _load_json(path)
    try:
        declared = linalg.as_integer(obj["dim"], "map dim")
    except (KeyError, TypeError, ValidationError):
        declared = d
    if declared != d:
        raise DimensionMismatch(
            f"state dimension {d} does not match map dimension {declared}")
    return channels.map_from_json(obj)


def cmd_measure(args) -> int:
    rho = linalg.validate_density(linalg.matrix_from_json(_load_json(args.state)))
    rdm = _load_map(args.map, rho.shape[0])
    rep = measures.closed_form_measure(rho, rdm, args.a)
    payload = measures.report_to_json(rep)
    if args.output == "csv":
        row = {k: payload[k] for k in ("value", "a", "N", "fixed_point_residual")}
        text = render_csv([row])
    else:
        text = render_json(payload) + "\n"
    _write_out(text, args.out)
    return 0


def sweep_grid(values) -> list:
    """Validated sweep grid: >= 2 points inside (0, 2], where points within
    1e-9 of 1 snap to the exact a = 1 branch, strictly increasing after the
    snap, so that no order is swept twice."""
    grid = [1.0 if abs(a - 1.0) < 1e-9 else a for a in map(float, values)]
    if len(grid) < 2:
        raise ValidationError(f"sweep needs at least 2 grid points, got {len(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("sweep grid must be strictly increasing once points within "
                              "1e-9 of 1 snap to 1")
    if grid[0] <= 0 or grid[-1] > 2:
        raise ValidationError(f"sweep grid must lie in (0, 2], got [{grid[0]}, {grid[-1]}]")
    return grid


def cmd_sweep(args) -> int:
    rho = linalg.validate_density(linalg.matrix_from_json(_load_json(args.state)))
    rdm = _load_map(args.map, rho.shape[0])
    rows = []
    for a in sweep_grid(_parse_list(args.a_grid, float)):
        rep = measures.closed_form_measure(rho, rdm, a)
        rows.append({"a": a, "value": rep.value, "N": rep.N})
    if args.output == "json":
        text = render_json({"rows": rows}) + "\n"
    else:
        text = render_csv(rows)
    _write_out(text, args.out)
    return 0


def cmd_verify(args) -> int:
    report = verify.run_suite(
        args.suite,
        dims=None if args.dims is None else _parse_list(args.dims, int),
        a_grid=None if args.a_grid is None else _parse_list(args.a_grid, float),
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
    )
    if args.output == "csv":
        text = render_csv(report.records)
    else:
        text = render_json(report.to_json()) + "\n"
    _write_out(text, args.out)
    return 0 if report.failures == 0 else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `rdmap` parser, built on the first call and shared by every later
    one (building it costs about ten times what parsing one request does).
    parse_args leaves it unchanged, so callers must not change it either."""
    parser = argparse.ArgumentParser(
        prog="rdmap",
        description="Optimization-free resource measures from idempotent "
                    "unital resource-destroying maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="closed-form measure of one state")
    m.add_argument("--state", required=True, help="density-matrix JSON file")
    m.add_argument("--map", required=True, help="map JSON file")
    m.add_argument("--a", type=float, required=True, help="Tsallis order in (0, 2]")
    m.add_argument("--output", choices=("json", "csv"), default="json")
    m.add_argument("--out", help="write to file instead of stdout")
    m.set_defaults(func=cmd_measure)

    s = sub.add_parser("sweep", help="measure across a grid of orders")
    s.add_argument("--state", required=True)
    s.add_argument("--map", required=True)
    s.add_argument("--a-grid", required=True, dest="a_grid",
                   help="comma-separated increasing orders, e.g. 0.5,1.0,1.5,2.0")
    s.add_argument("--output", choices=("json", "csv"), default="csv")
    s.add_argument("--out")
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("suite", help=f"one of {', '.join(verify.SUITE_NAMES)}")
    v.add_argument("--dims", help="comma-separated dimensions")
    v.add_argument("--trials", type=int)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--a-grid", dest="a_grid")
    v.add_argument("--tol", type=float, help="override the suite tolerance")
    v.add_argument("--output", choices=("json", "csv"), default="json")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CertificationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort contract
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
