import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmap import channels, cli, linalg, measures
from rdmap.cli import _json_scalar, fmt_float, main, render_csv, render_json, sweep_grid
from rdmap.errors import ValidationError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_module(argv):
    """`python -m rdmap` on argv in a fresh interpreter importing rdmap from
    this checkout: (exit code, stdout, stderr)."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "rdmap", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture()
def files(tmp_path):
    def dump(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "plus": dump("plus.json", {"re": [[0.5, 0.5], [0.5, 0.5]],
                                   "im": [[0, 0], [0, 0]]}),
        "diag": dump("diag.json", {"re": [[0.7, 0], [0, 0.3]],
                                   "im": [[0, 0], [0, 0]]}),
        "mixed": dump("mixed.json", {"re": [[0.7, 0.1], [0.1, 0.3]],
                                     "im": [[0, 0.05], [-0.05, 0]]}),
        "bad_state": dump("bad_state.json", {"re": [[1, 0], [0, 1]],
                                             "im": [[0, 0], [0, 0]]}),
        "deph": dump("deph.json", {"type": "dephasing", "dim": 2,
                                   "partition": [[0], [1]]}),
        "depol": dump("depol.json", {"type": "kraus", "dim": 2, "operators": [
            {"re": [[0.79056941504209483, 0], [0, 0.79056941504209483]],
             "im": [[0, 0], [0, 0]]},
            {"re": [[0, 0.35355339059327379], [0.35355339059327379, 0]],
             "im": [[0, 0], [0, 0]]},
            {"re": [[0, 0], [0, 0]],
             "im": [[0, -0.35355339059327379], [0.35355339059327379, 0]]},
            {"re": [[0.35355339059327379, 0], [0, -0.35355339059327379]],
             "im": [[0, 0], [0, 0]]}]}),
        "tmp": tmp_path,
    }


def test_fmt_float_contract():
    assert fmt_float(math.sqrt(2) - 1) == "4.14213562373e-01"
    assert fmt_float(math.inf) == "inf"
    assert fmt_float(0.0) == "0.00000000000e+00"
    assert fmt_float(-0.0) == "0.00000000000e+00"


def test_measure_json(files, capsys):
    assert main(["measure", "--state", files["plus"], "--map", files["deph"],
                 "--a", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(math.sqrt(2) - 1, abs=1e-10)
    assert payload["N"] == pytest.approx(math.sqrt(2), abs=1e-10)
    sigma = payload["sigma_star"]
    assert sigma["re"][0][0] == pytest.approx(0.5, abs=1e-12)


def test_measure_value_is_twelve_digit_scientific(files, capsys):
    main(["measure", "--state", files["plus"], "--map", files["deph"], "--a", "2"])
    out = capsys.readouterr().out
    assert '"value": 4.14213562373e-01' in out


def test_measure_byte_stable(files, capsys):
    main(["measure", "--state", files["plus"], "--map", files["deph"], "--a", "0.5"])
    first = capsys.readouterr().out
    main(["measure", "--state", files["plus"], "--map", files["deph"], "--a", "0.5"])
    assert capsys.readouterr().out == first


def test_measure_csv_output(files, capsys):
    assert main(["measure", "--state", files["diag"], "--map", files["deph"],
                 "--a", "1", "--output", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "value,a,N,fixed_point_residual"
    assert len(lines) == 2
    assert abs(float(lines[1].split(",")[0])) <= 1e-9


def test_measure_writes_file(files, capsys):
    out = files["tmp"] / "report.json"
    assert main(["measure", "--state", files["plus"], "--map", files["deph"],
                 "--a", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["value"] == pytest.approx(math.log(2), abs=1e-10)


def test_measure_invalid_state_exits_2(files, capsys):
    assert main(["measure", "--state", files["bad_state"], "--map", files["deph"],
                 "--a", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: TraceNotOne:")
    assert err.count("\n") == 1


def test_measure_state_of_text_entries_exits_2(files, capsys):
    """A state whose entries are JSON strings once measured with exit 0."""
    path = files["tmp"] / "text.json"
    path.write_text(json.dumps({"re": [["0.5", "0"], ["0", "0.5"]], "im": [[0, 0], [0, 0]]}))
    assert main(["measure", "--state", str(path), "--map", files["deph"], "--a", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be numbers" in captured.err


def test_measure_tiny_order_exits_2_naming_the_order(files, capsys):
    """At a = 1e-20 the 1/a-th power underflows; the certified map is not to
    blame, so the exit code is 2, not 3."""
    assert main(["measure", "--state", files["mixed"], "--map", files["deph"],
                 "--a", "1e-20"]) == 2
    assert capsys.readouterr().err.startswith("error: ValidationError: order a = 1e-20")


def test_measure_tiny_order_that_loses_every_digit_exits_2(files, capsys):
    """At a = 1e-20 every eigenvalue of this full-rank d = 3 state rounds to
    1 in rho^a; that once printed the value -1.0 and exited 0."""
    state = files["tmp"] / "rho3.json"
    state.write_text(json.dumps(linalg.matrix_to_json(
        linalg.random_density_matrix(3, 3, seed=1))))
    deph = files["tmp"] / "deph3.json"
    deph.write_text(json.dumps({"type": "dephasing", "dim": 3,
                                "partition": [[0], [1], [2]]}))
    assert main(["measure", "--state", str(state), "--map", str(deph),
                 "--a", "1e-20", "--output", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ValidationError: order a = 1e-20")


def test_measure_free_state_round_off_prints_as_before(files, capsys):
    """The zero of a free state that reads a few eps below 0 passes the
    tiny-order check and prints the library's value, sign included."""
    deph = channels.dephasing_map(channels.MeasurementPartition.singletons(2))
    state = files["tmp"] / "free.json"
    state.write_text(json.dumps(linalg.matrix_to_json(
        deph.apply(linalg.random_density_matrix(2, 2, seed=1)))))
    rho = linalg.matrix_from_json(json.loads(state.read_text()))
    value = measures.closed_form_measure(rho, deph, 0.3).value
    assert value < 0.0
    assert main(["measure", "--state", str(state), "--map", files["deph"],
                 "--a", "0.3", "--output", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[0] == fmt_float(value)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_measure_tiny_order_that_overflows_exits_2(files, capsys, seed):
    """At a = 1e-20 an eigenvalue of E(rho^a) of these d = 4 states rounds
    above 1 and its 1/a-th power overflows; that once printed
    inf,1.00000000000e-20,inf,inf and exited 0."""
    state = files["tmp"] / "rho4.json"
    state.write_text(json.dumps(linalg.matrix_to_json(
        linalg.random_density_matrix(4, 4, seed=seed))))
    deph = files["tmp"] / "deph4.json"
    deph.write_text(json.dumps({"type": "dephasing", "dim": 4,
                                "partition": [[0], [1], [2], [3]]}))
    assert main(["measure", "--state", str(state), "--map", str(deph),
                 "--a", "1e-20", "--output", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ValidationError: order a = 1e-20")


@pytest.mark.parametrize("argv", [["measure", "--a", "0.5"],
                                  ["sweep", "--a-grid", "0.3,0.5,0.8,1.0,1.2,1.5,2.0"]])
def test_cli_decomposes_the_state_once(files, capsys, count_decompositions, argv):
    """Validation fills the remembered spectrum and every closed form reads
    it: one eigh of the state for a measure or a whole sweep."""
    rho = np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])
    calls = count_decompositions(rho)
    command, *rest = argv
    assert main([command, "--state", files["mixed"], "--map", files["deph"], *rest]) == 0
    assert calls == ["eigh"]


def test_measure_uncertified_map_exits_3(files, capsys):
    assert main(["measure", "--state", files["plus"], "--map", files["depol"],
                 "--a", "1"]) == 3
    assert capsys.readouterr().err.startswith("error: NotIdempotent:")


def test_measure_non_unital_map_exits_3(files, capsys):
    # {|0><0|, |0><1|}: trace preserving and idempotent, but E(I) = 2|0><0|
    path = files["tmp"] / "reset.json"
    path.write_text(json.dumps({"type": "kraus", "dim": 2, "operators": [
        {"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
        {"re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]}]}))
    assert main(["measure", "--state", files["plus"], "--map", str(path), "--a", "1"]) == 3
    assert capsys.readouterr().err.startswith("error: NotUnital:")


def test_measure_map_dim_mismatch_exits_2(files, capsys):
    bad = files["tmp"] / "bad_dim.json"
    bad.write_text(json.dumps({"type": "kraus", "dim": 3, "operators": [
        {"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
        {"re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}]}))
    assert main(["measure", "--state", files["plus"], "--map", str(bad), "--a", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: DimensionMismatch:")


@pytest.mark.parametrize("command", ["measure", "sweep"])
@pytest.mark.parametrize("descriptor", [
    {"type": "mixing", "dim": 10**12},
    {"type": "dephasing", "dim": 10**12, "partition": [[0]]},
])
def test_huge_declared_map_dim_exits_2(files, capsys, command, descriptor):
    # 10^12 is refused before anything of that size is built, never a
    # MemoryError reported as an internal error
    huge = files["tmp"] / "huge.json"
    huge.write_text(json.dumps(descriptor))
    order = ["--a", "1"] if command == "measure" else ["--a-grid", "0.5,2"]
    assert main([command, "--state", files["plus"], "--map", str(huge), *order]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DimensionMismatch:")
    assert "internal" not in err


def test_measure_commuting_maps_keep_exit_codes(files, capsys):
    # partial dephasing, 0.7 rho + 0.3 Z rho Z: commuting Kraus operators,
    # not idempotent, so a certification error (3)
    r = math.sqrt(0.7), math.sqrt(0.3)
    partial = files["tmp"] / "partial.json"
    partial.write_text(json.dumps({"type": "kraus", "dim": 2, "operators": [
        {"re": [[r[0], 0], [0, r[0]]], "im": [[0, 0], [0, 0]]},
        {"re": [[r[1], 0], [0, -r[1]]], "im": [[0, 0], [0, 0]]}]}))
    assert main(["measure", "--state", files["plus"], "--map", str(partial), "--a", "1"]) == 3
    assert capsys.readouterr().err.startswith("error: NotIdempotent:")
    # diag(1, e^{0.3i}) and diag(1, -e^{0.3i}): their twirl is dephasing,
    # idempotent, but neither product nor inverse is in the set, an input
    # error (2)
    c, s = math.cos(0.3), math.sin(0.3)
    no_group = files["tmp"] / "no_group.json"
    no_group.write_text(json.dumps({"type": "twirl", "dim": 2, "unitaries": [
        {"re": [[1, 0], [0, c]], "im": [[0, 0], [0, s]]},
        {"re": [[1, 0], [0, -c]], "im": [[0, 0], [0, -s]]}]}))
    assert main(["measure", "--state", files["plus"], "--map", str(no_group), "--a", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: NotAGroup:")


def test_measure_zero_prints_without_sign(files, capsys):
    ket0 = files["tmp"] / "ket0.json"
    ket0.write_text(json.dumps({"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}))
    for fmt in ("json", "csv"):
        assert main(["measure", "--state", str(ket0), "--map", files["deph"],
                     "--a", "0.5", "--output", fmt]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        assert "0.00000000000e+00" in out


def test_measure_missing_file_exits_2(files, capsys):
    assert main(["measure", "--state", str(files["tmp"] / "nope.json"),
                 "--map", files["deph"], "--a", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_measure_malformed_json_exits_2(files, capsys):
    broken = files["tmp"] / "broken.json"
    broken.write_text("{not json")
    assert main(["measure", "--state", str(broken), "--map", files["deph"],
                 "--a", "1"]) == 2


def test_a_bool_among_numbers_exits_2(files, capsys):
    """A JSON true or false beside numbers, in a state or in a Kraus
    operator, decoded as 1 or 0 and measured with exit 0; it is malformed
    input."""
    state = files["tmp"] / "bool_state.json"
    state.write_text('{"re": [[true, 0.0], [0.0, 0]], "im": [[0, 0], [0, 0]]}')
    assert main(["measure", "--state", str(state), "--map", files["deph"], "--a", "0.5"]) == 2
    assert "got a bool" in capsys.readouterr().err
    kraus = files["tmp"] / "bool_kraus.json"
    kraus.write_text('{"type": "kraus", "dim": 2, "operators": ['
                     '{"re": [[1, 0], [0, false]], "im": [[0, 0], [0, 0]]}, '
                     '{"re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}]}')
    for command in (["measure", "--a", "0.5"], ["sweep", "--a-grid", "0.5,2"]):
        assert main([command[0], "--state", files["plus"], "--map", str(kraus),
                     *command[1:]]) == 2
        assert "got a bool" in capsys.readouterr().err


def test_measure_bad_order_exits_2(files, capsys):
    assert main(["measure", "--state", files["plus"], "--map", files["deph"],
                 "--a", "2.5"]) == 2
    assert capsys.readouterr().err.startswith("error: ValidationError:")


def test_sweep_endpoints(files, capsys):
    assert main(["sweep", "--state", files["plus"], "--map", files["deph"],
                 "--a-grid", "0.5,1.0,1.5,2.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,value,N"
    assert len(lines) == 5
    first, last = lines[1].split(","), lines[4].split(",")
    assert float(first[1]) == pytest.approx(1.0, abs=1e-10)
    assert float(last[1]) == pytest.approx(math.sqrt(2) - 1, abs=1e-10)


def test_sweep_two_points(files, capsys):
    assert main(["sweep", "--state", files["plus"], "--map", files["deph"],
                 "--a-grid", "0.5,2.0"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_sweep_fixed_point_all_zero(files, capsys):
    assert main(["sweep", "--state", files["diag"], "--map", files["deph"],
                 "--a-grid", "0.5,1.0,2.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    for line in lines:
        assert abs(float(line.split(",")[1])) <= 1e-9


def test_sweep_snaps_near_one(files, capsys):
    grid = sweep_grid([0.5, 1.0 + 1e-12, 2.0])
    assert grid[1] == 1.0
    assert main(["sweep", "--state", files["plus"], "--map", files["deph"],
                 "--a-grid", "0.5,1.000000000001,2.0"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[2]
    assert float(line.split(",")[1]) == pytest.approx(math.log(2), abs=1e-12)


def test_sweep_grid_is_increasing_after_the_snap(files, capsys):
    """A point within 1e-9 of 1 snaps to 1 before the grid is checked, so a
    grid that would sweep a = 1 twice is refused (exit 2), not printed with
    two a = 1 rows."""
    for grid in ([0.5, 1.0, 1.0000000001], [0.5, 1.0 - 1e-10, 1.0], [0.9999999999, 1.0000000001]):
        with pytest.raises(ValidationError, match="strictly increasing"):
            sweep_grid(grid)
    assert sweep_grid([0.5, 1.0 - 1e-10, 1.5]) == [0.5, 1.0, 1.5]
    assert main(["sweep", "--state", files["plus"], "--map", files["deph"],
                 "--a-grid", "0.5,1.0,1.0000000001"]) == 2
    assert capsys.readouterr().out == ""


def test_sweep_bad_ranges_exit_2(files, capsys):
    for grid in ("2.0,0.5", "0.5", "0.0,1.0", "1.0,2.5", "0.5,0.5,1.0"):
        assert main(["sweep", "--state", files["plus"], "--map", files["deph"],
                     "--a-grid", grid]) == 2
        capsys.readouterr()


def test_sweep_json_output(files, capsys):
    assert main(["sweep", "--state", files["plus"], "--map", files["deph"],
                 "--a-grid", "1.0,2.0", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["a"] == 1.0


def test_verify_continuity_passes(files, capsys):
    assert main(["verify", "continuity", "--trials", "4", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "continuity"
    assert payload["failures"] == 0
    assert len(payload["records"]) == 4


def test_verify_csv_records(files, capsys):
    assert main(["verify", "piani", "--trials", "3", "--seed", "1",
                 "--output", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("trial,seed,dim,a")
    assert len(lines) == 4


def test_verify_dims_on_a_suite_that_draws_its_own_exits_2(capsys):
    """piani once ran d = 3 and exited 0 when asked for --dims 5."""
    assert main(["verify", "piani", "--dims", "5", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "ValidationError: dims" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "theorem1", "--dims", ",", "--a-grid", ",", "--trials", "1"],
    ["verify", "theorem1", "--dims", "", "--trials", "1"],
    ["verify", "theorem2", "--a-grid", " , ", "--trials", "1"],
])
def test_verify_list_with_no_entry_exits_2(argv, capsys):
    """A --dims or --a-grid with no entry is malformed, not a request for the
    suite's default: theorem1 with both empty once ran 105 default records
    and exited 0."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected comma-separated" in captured.err


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "nosuch"]) == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "axioms", "--trials", "0"], "trials"),
    (["verify", "axioms", "--trials", "-3"], "trials"),
    (["verify", "theorem1", "--dims", "2", "--trials", "-1"], "trials"),
    (["verify", "continuity", "--trials", "2", "--tol", "nan"], "tol"),
    (["verify", "continuity", "--trials", "2", "--tol", "inf"], "tol"),
    (["verify", "continuity", "--trials", "2", "--tol=-1e-3"], "tol"),
    (["verify", "theorem1", "--dims", "2", "--trials", "1", "--seed", "-1"], "seed"),
])
def test_verify_malformed_trials_or_tol_exits_2(argv, message, capsys):
    # a malformed budget or tolerance must not run a default or vacuous suite
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"ValidationError: {message} must be" in captured.err


def test_verify_failing_suite_exits_3(files, capsys):
    # impossible tolerance forces failures; the exit code must reflect them
    assert main(["verify", "continuity", "--trials", "3", "--seed", "1",
                 "--tol", "1e-16"]) == 3
    assert json.loads(capsys.readouterr().out)["failures"] > 0


def test_verify_theorem2_small(files, capsys):
    assert main(["verify", "theorem2", "--dims", "3", "--trials", "2",
                 "--seed", "5", "--a-grid", "0.5,1.0,2.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == 0


def test_render_helpers_stable():
    obj = {"x": 1.0, "flag": True, "items": [1, 2.5, "s"], "none": None,
           "inf": math.inf, "nested": {"m": [[1.0, 0.0], [0.0, 1.0]]}}
    assert render_json(obj) == render_json(dict(obj))
    assert '"inf"' in render_json(obj)
    rows = [{"a": 1, "b": math.inf}, {"a": 2, "c": [0, 1]}]
    text = render_csv(rows)
    assert text.splitlines()[0] == "a,b,c"
    assert "inf" in text


def test_negative_infinity_keeps_its_sign():
    """-inf prints as "-inf": a JSON string, through the scalar and the
    float-row paths, and a bare CSV cell; +inf stays "inf"."""
    assert fmt_float(-math.inf) == "-inf"
    assert _json_scalar(-math.inf) == '"-inf"' and _json_scalar(np.float64(-math.inf)) == '"-inf"'
    text = render_json({"worst": -math.inf, "row": [1.0, -math.inf, math.inf],
                        "mixed": [1, -math.inf]})
    assert json.loads(text) == {"worst": "-inf", "row": [1.0, "-inf", "inf"],
                                "mixed": [1, "-inf"]}
    assert render_csv([{"a": -math.inf, "b": math.inf}]) == "a,b\n-inf,inf\n"


def test_report_with_no_violation_prints_minus_inf(capsys):
    """Piani's one record at a = 0.3 is not counted, so the report's worst
    violation is -inf, and the CLI prints it with its sign."""
    assert main(["verify", "piani", "--trials", "1", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == 0
    assert payload["worst_violation"] == "-inf"


def test_parser_is_built_once_per_process(files, capsys):
    cli.build_parser.cache_clear()
    for a in ("0.5", "1", "2", "0.5"):
        assert main(["measure", "--state", files["mixed"], "--map", files["deph"],
                     "--a", a]) == 0
    assert main(["sweep", "--state", files["mixed"], "--map", files["deph"],
                 "--a-grid", "0.5,2"]) == 0
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_requests_in_one_process_match_each_request_alone(files, capsys):
    """The shared parser keeps no state between requests: each call of a
    sequence in one process gives the bytes and exit code it gives alone, in
    a fresh `python -m rdmap`."""
    state = ["--state", files["mixed"], "--map", files["deph"]]
    sequence = [
        ["measure", *state, "--a", "0.5"],
        ["sweep", *state, "--a-grid", "0.3,1.0,2.0"],
        ["verify", "continuity", "--trials", "2", "--seed", "1", "--output", "csv"],
        ["sweep", *state, "--a-grid", "0.5,2.0", "--output", "xml"],
        ["measure", *state, "--a", "0.5"],
    ]
    together = [_in_process(argv, capsys) for argv in sequence]
    assert [code for code, _, _ in together] == [0, 0, 0, 2, 0]
    assert "invalid choice: 'xml'" in together[3][2]
    assert together[4] == together[0]
    assert together == [run_module(argv) for argv in sequence]


def test_python_m_rdmap_runs_the_cli(files):
    code, out, err = run_module(["measure", "--state", files["plus"], "--map", files["deph"],
                                 "--a", "2"])
    assert (code, err) == (0, "")
    assert '"value": 4.14213562373e-01' in out
    code, out, err = run_module(["measure", "--state", files["bad_state"], "--map",
                                 files["deph"], "--a", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: TraceNotOne:")


def _generic_row(row):
    return "[" + ", ".join(_json_scalar(v) for v in row) + "]"


_edge_floats = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308, 1e300, -1e300]


@settings(max_examples=200)
@given(row=st.lists(st.floats() | st.sampled_from(_edge_floats), min_size=1, max_size=40))
@example(row=_edge_floats)
def test_float_rows_render_like_the_generic_path(row):
    """A list of Python floats takes render_json's fast path; the same
    values as numpy float64 take the generic one.  Both, and the scalar
    rule applied item by item, give the same bytes."""
    assert all(type(v) is float for v in row)
    text = render_json(row)
    assert text == _generic_row(row)
    assert text == render_json([np.float64(v) for v in row])
    assert render_json({"m": [row, row]}) == render_json({"m": [list(map(np.float64, row))] * 2})


@settings(max_examples=200)
@given(row=st.lists(st.floats() | st.sampled_from(_edge_floats) | st.integers(-10**6, 10**6)
                    | st.floats().map(np.float64), min_size=1, max_size=20))
@example(row=[1, 2.5, -0.0, math.nan])
@example(row=[np.float64(-0.0), 1.0, math.inf])
def test_mixed_rows_render_like_the_scalar_rule(row):
    assert render_json(row) == _generic_row(row)


# ------------------------------------------------ malformed input exits 2

TWO = {"re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0, 0], [0, 0]]}


@pytest.mark.parametrize("command", ["measure", "sweep"])
@pytest.mark.parametrize("descriptor", [
    {"type": "lueders", "dim": 2, "partition": None},
    {"type": "lueders", "dim": 2, "partition": [[[0]], [1]]},
    {"type": "lueders", "dim": 2, "partition": [0, 1]},
    {"type": "twirl", "dim": 2, "unitaries": None},
    {"type": "kraus", "dim": 2, "operators": {"re": [[1, 0], [0, 1]]}},
    {"type": "lueders", "dim": 2.5, "partition": [[0], [1]]},
    {"type": "lueders", "dim": 2, "partition": [[0.5], [1]]},
    {"type": "mixing", "dim": True},
    {"type": "mixing", "dim": "2"},
    {"type": ["mixing"], "dim": 2},
])
def test_malformed_map_exits_2(files, capsys, command, descriptor):
    # each of these once crashed (exit 1) or was truncated to a valid map
    # (exit 0)
    path = files["tmp"] / "malformed.json"
    path.write_text(json.dumps(descriptor))
    order = ["--a", "1"] if command == "measure" else ["--a-grid", "0.5,2"]
    assert main([command, "--state", files["plus"], "--map", str(path), *order]) == 2
    assert capsys.readouterr().err.startswith("error: ValidationError:")


def test_huge_matrix_entries_exit_2(files, capsys):
    # squaring 1e308 overflowed inside the checks that should refuse it
    huge = {"re": [[1e308, 0], [0, 1e308]], "im": [[0, 0], [0, 0]]}
    state = files["tmp"] / "huge_state.json"
    state.write_text(json.dumps(huge))
    twirl = files["tmp"] / "huge_twirl.json"
    twirl.write_text(json.dumps({"type": "twirl", "dim": 2, "unitaries": [huge]}))
    for rho, rdm in ((str(state), files["deph"]), (files["plus"], str(twirl))):
        assert main(["measure", "--state", rho, "--map", rdm, "--a", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ValidationError: matrix entry")


def test_integral_float_dims_and_indices_are_accepted(files, capsys):
    path = files["tmp"] / "float_dim.json"
    path.write_text(json.dumps({"type": "lueders", "dim": 2.0, "partition": [[0.0], [1]]}))
    assert main(["measure", "--state", files["plus"], "--map", str(path), "--a", "2"]) == 0
    assert '"value": 4.14213562373e-01' in capsys.readouterr().out


_leaves = (st.none() | st.booleans() | st.integers(-3, 5) | st.floats()
           | st.text(max_size=3))
json_values = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=10)
_grids = st.lists(st.lists(st.floats(-2, 2) | st.integers(-1, 2), min_size=1, max_size=3),
                  min_size=1, max_size=3)
matrices = st.fixed_dictionaries({"re": _grids | json_values, "im": _grids | json_values})
# near-valid maps for the 2 x 2 state: a known type and dim 2 most of the
# time, so the fields behind them get parsed
map_objects = st.fixed_dictionaries(
    {"type": st.sampled_from(["dephasing", "lueders", "modified", "twirl", "mixing",
                              "kraus"]) | json_values,
     "dim": st.sampled_from([2, 2.0, 2.5]) | json_values},
    optional={"partition": st.lists(st.lists(st.integers(0, 1) | st.floats(0, 1)
                                             | json_values, max_size=3), max_size=3)
              | json_values,
              "unitaries": st.lists(matrices, max_size=3) | json_values,
              "operators": st.lists(matrices, max_size=3) | json_values})
state_objects = matrices | json_values


def _exit_code(command, state, rdm):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, obj in (("state", state), ("map", rdm)):
            paths.append(os.path.join(tmp, name + ".json"))
            with open(paths[-1], "w") as fh:
                json.dump(obj, fh)
        order = ["--a", "1.5"] if command == "measure" else ["--a-grid", "0.5,1,2"]
        return main([command, "--state", paths[0], "--map", paths[1], *order,
                     "--out", os.path.join(tmp, "out.txt")])


@settings(max_examples=150)
@given(command=st.sampled_from(["measure", "sweep"]), rdm=map_objects)
def test_malformed_map_file_never_exits_1(command, rdm):
    assert _exit_code(command, TWO, rdm) in (0, 2, 3)


@settings(max_examples=150)
@given(command=st.sampled_from(["measure", "sweep"]), state=state_objects)
@example(command="measure", state={"re": None, "im": "INF"})
def test_malformed_state_file_never_exits_1(command, state):
    assert _exit_code(command, state, {"type": "dephasing", "dim": 2,
                                       "partition": [[0], [1]]}) in (0, 2, 3)
