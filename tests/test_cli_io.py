"""The CLI's own argv reader and JSON writer against argparse and json.

main reads the documented spelling of argv from the command table and
leaves every other spelling to argparse; reports are written by one
recursive writer instead of json.dumps(indent=2). Both must give exactly
what the standard library gives.
"""

import argparse
import contextlib
import functools
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdecay import cli
from oscdecay.oracle import ComparisonReport
from oscdecay.timemap import LinearityFit
from oscdecay.window import ConstraintCheck, PeriodReport

CURVE_B = {
    "modes": {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]},
    "p": 200.0,
    "window": {"zeta_min": 0.05},
    # 21 points, so that phi's sidecar holds a fit (it needs 20 in the window)
    "grid": {"t_min": 2.0, "t_max": 6.0, "points": 21},
    "oracle": {"abs_tol": 1e-7, "rel_tol": 1e-5},
}

# the values each option is read with; --quiet takes none
VALUES = {
    "--config": ["c.json"],
    "--out": ["o.csv"],
    "--parallel": ["0", "3", "-1"],
    "--which": ["rest", "boosted", "rate", "split"],
    "--quiet": [None],
}


def _argparse(argv):
    """(vars of the namespace or None, stdout, stderr, exit code) of _parser().parse_args."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(cli._parser().parse_args(argv))
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, out.getvalue(), err.getvalue(), code


def _spellings(command):
    """Every order of every subset of command's options, with each of their values."""
    options = list(cli._COMMANDS[command][2])
    for k in range(len(options) + 1):
        for chosen in itertools.permutations(options, k):
            for values in itertools.product(*(VALUES[option] for option in chosen)):
                argv = [command]
                for option, value in zip(chosen, values):
                    argv += [option] if value is None else [option, value]
                yield argv


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_reader_agrees_with_argparse(command):
    read = 0
    for argv in _spellings(command):
        got = cli._read_argv(argv)
        want, _, _, code = _argparse(argv)
        if "--config" not in argv:
            assert got is None and want is None and code == 2, argv
        elif "-1" in argv:
            # a value starting with '-' is argparse's to read
            assert got is None and want["parallel"] == -1, argv
        else:
            assert vars(got) == want, argv
            read += 1
        assert want is None or vars(cli._args(argv)) == want
    assert read > 0


def test_a_repeated_option_keeps_its_last_value():
    argv = ["curve", "--config", "a.json", "--which", "rate", "--quiet", "--config", "b.json",
            "--which", "split", "--quiet", "--parallel", "3", "--parallel", "2"]
    assert vars(cli._read_argv(argv)) == _argparse(argv)[0] == {
        "command": "curve", "config": "b.json", "out": None, "parallel": 2, "quiet": True,
        "which": "split"}


@pytest.mark.parametrize("argv", [
    ["curve", "--which=rest", "--config", "c.json"],
    ["validate", "--config=c.json"],
    ["curve", "--conf", "c.json", "--wh", "split"],
    ["validate", "--config", "c.json", "--qu"],
    ["validate", "--config", "-", "--out", "-"],
    ["validate", "--config", "c.json", "--parallel", "-1"],
])
def test_other_spellings_are_left_to_argparse(argv):
    assert cli._read_argv(argv) is None
    want = _argparse(argv)[0]
    assert want is not None and vars(cli._args(argv)) == want


@pytest.mark.parametrize("argv", [
    ["validate", "--config", "--out", "x"],
    ["validate", "--which=rest", "--config", "c.json"],
    ["curve", "--conf", "c.json", "--which"],
    ["curve", "--config", "c.json", "--seed", "7"],
    ["curve", "--which", "bad", "--config", "c.json"],
    ["validate", "--which", "rest", "--config", "c.json"],
    ["validate", "--config", "c.json", "--parallel", "two"],
    ["validate", "--config", "c.json", "--parallel"],
    ["validate", "--config", "c.json", "extra"],
    ["validate", "--out", "o.json"],
    ["--config", "c.json", "validate"],
    ["bogus", "--config", "c.json"],
    [],
])
def test_malformed_argv_gets_argparse_error(argv, capsys):
    assert cli._read_argv(argv) is None
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: oscdecay")
    assert (None, "", err, 2) == _argparse(argv) == _legacy(argv)


@functools.lru_cache(maxsize=None)
def _legacy_parser():
    """The parser as it was built before the command table: a parent parser of
    the common options, shared by the five subparsers."""
    parser = argparse.ArgumentParser(
        prog="oscdecay",
        description="Decay laws of moving unstable systems with oscillating modes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run config")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="accepted for interface stability; does nothing")
    common.add_argument("--quiet", action="store_true", help="suppress progress notes")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common],
                   help="check the mode set and window constraints")
    curve = sub.add_parser("curve", parents=[common], help="emit a sampled curve as CSV")
    curve.add_argument("--which", choices=("rest", "boosted", "rate", "split"),
                       default="rest", help="curve family to sample")
    sub.add_parser("window", parents=[common], help="emit the window report as JSON")
    sub.add_parser("phi", parents=[common],
                   help="emit the time map as CSV plus a linearity-fit sidecar")
    sub.add_parser("compare", parents=[common],
                   help="compare the closed form against the direct quadrature")
    return parser


def _legacy(argv):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(_legacy_parser().parse_args(argv))
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("argv", [["-h"]] + [[command, "-h"] for command in cli._COMMANDS]
                         + [["curve", "--config", "c.json", "--help"]])
def test_help_is_the_legacy_parsers(argv):
    got = _argparse(argv)
    assert got[3] == 0 and got[1].startswith("usage: oscdecay")
    assert got == _legacy(argv)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_table_parser_reads_as_the_legacy_one(command):
    for argv in _spellings(command):
        assert _argparse(argv) == _legacy(argv), argv


# --- the JSON writer --------------------------------------------------------

def _dumps(obj):
    return json.dumps(obj, indent=2)


special_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310,
                                  1e300, 0.1 + 0.2, -1.5])
floats = st.floats(allow_nan=True, allow_infinity=True) | special_floats
texts = st.text(max_size=12) | st.sampled_from(
    ["", "\"", "\\", "a\"b\\c", "\x00\x01\x1f\x7f", "\n\t\r\b\f", "é", "日本", "\U0001f600",
     "  ", "</script>"])
scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70) | floats
           | texts)
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(texts, children, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_writer_is_json_dumps(obj):
    assert cli._json_text(obj, "\n") == _dumps(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}}, [[], {}], {"": ""}, 0, -0.0, True, None, "x",
])
def test_writer_edge_cases(obj):
    assert cli._json_text(obj, "\n") == _dumps(obj)


def test_writer_refuses_what_json_refuses():
    for obj in ({(1, 2): 0}, {np.int64(1): 0}, object(), [1, {"a": {1j}}], np.int64(7),
                np.bool_(True), np.float32(0.5), np.array([0.5])):
        with pytest.raises(TypeError):
            _dumps(obj)
        with pytest.raises(TypeError):
            cli._json_text(obj, "\n")


@pytest.mark.parametrize("key", [1, 2.5, False, None, -math.inf, math.nan, np.float64(0.1)],
                         ids=["int", "float", "bool", "None", "-inf", "nan", "numpy_float"])
def test_writer_refuses_a_key_that_is_not_a_str(tmp_path, key):
    # json.dumps writes such a key as a string; every key of a report is a str
    with pytest.raises(TypeError):
        cli._json_text({key: 0}, "\n")
    with pytest.raises(TypeError):
        cli._emit_json({"params": {key: 0}}, str(tmp_path / "bad.json"))
    assert not (tmp_path / "bad.json").exists()


numbers = floats | st.integers(0, 10)
report_records = (
    st.builds(ConstraintCheck, name=texts, value=floats, status=st.sampled_from(
        ["pass", "warn", "fail"]), detail=texts)
    | st.builds(PeriodReport, T0=st.none() | floats, Tp=st.none() | floats,
                commensurate=st.booleans(), omega_max=floats,
                k_values=st.none() | st.lists(st.integers(1, 9), max_size=4)
                | st.lists(st.integers(1, 9), max_size=4).map(tuple))
    | st.builds(LinearityFit, slope=floats, intercept=floats, max_residual=floats,
                interval=st.tuples(floats, floats), expected_slope=floats,
                rel_slope_error=floats, n_points=st.integers(0, 2000))
    | st.builds(ComparisonReport, interval=st.tuples(numbers, numbers),
                n_points=st.integers(0, 2000), max_abs_deviation=floats,
                max_rel_deviation=floats, t_at_max_abs=floats, t_at_max_rel=floats)
)


def _as_dicts(obj):
    """obj with every record (named tuple) in it replaced by a dict of its fields."""
    if hasattr(type(obj), "_fields"):
        return {name: _as_dicts(getattr(obj, name)) for name in type(obj)._fields}
    if isinstance(obj, dict):
        return {key: _as_dicts(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_dicts(value) for value in obj]
    return obj


@settings(max_examples=200, deadline=None)
@given(st.lists(report_records, max_size=4)
       | st.dictionaries(texts, report_records, max_size=3)
       | report_records)
def test_writer_writes_a_record_as_the_dict_of_its_fields(obj):
    assert cli._json_text(obj, "\n") == _dumps(_as_dicts(obj))


@pytest.mark.parametrize("command", ["validate", "window", "phi", "compare"])
def test_reports_hold_records_written_as_their_fields(tmp_path, monkeypatch, command):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(CURVE_B))
    reports = []
    monkeypatch.setattr(cli, "_emit_json", lambda report, out: reports.append(report))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
    monkeypatch.undo()
    (report,) = reports
    out = tmp_path / "report.json"
    cli._emit_json(report, str(out))
    assert out.read_text() == _dumps(_as_dicts(report)) + "\n"
    held = {"validate": ConstraintCheck, "window": PeriodReport, "phi": LinearityFit}
    if command in held:
        assert any(isinstance(value, held[command]) for value in _walk(report))


def _walk(obj):
    yield obj
    children = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) \
        else ()
    for child in children:
        yield from _walk(child)
