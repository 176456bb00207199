"""End-to-end checks of the command-line surface."""

import collections
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oscdecay
from oscdecay import cli
from oscdecay.cli import main

from conftest import DATA, M15_SET, NEAR_REST_SETS


CURVE_B = {
    "modes": {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]},
    "p": 200.0,
}


def write_config(tmp_path, name, extra):
    cfg = dict(CURVE_B)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    return header, rows


def test_missing_config_is_io_error(tmp_path):
    code = main(["curve", "--config", str(tmp_path / "absent.json"), "--quiet"])
    assert code == 3


def test_invalid_model_reports_violations(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {
        "modes": {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0],
                  "a": [0.49]},
    })
    out = tmp_path / "report.json"
    code = main(["validate", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["results"]["valid"] is False
    assert any("positivity" in v for v in report["results"]["violations"])


@pytest.mark.parametrize("error", [
    cli.ConfigError, oscdecay.ModeValidationError, oscdecay.BoostDomainError,
    oscdecay.WindowError, oscdecay.TimeMapError,
])
def test_domain_errors_are_value_errors(error):
    # main maps every ValueError to the invalid-input exit code
    assert issubclass(error, ValueError)


def test_one_point_grid_rejected(tmp_path):
    cfg = write_config(tmp_path, "grid1.json",
                       {"grid": {"t_min": 1.0, "t_max": 2.0, "points": 1}})
    code = main(["curve", "--config", cfg, "--quiet"])
    assert code == 2


@pytest.mark.parametrize("points, code",
                         [(40.7, 2), ("40", 2), (3.0, 0), (1e12, 2), (1000001, 2)],
                         ids=["fraction", "string", "integral_float", "huge_float",
                              "above_limit"])
def test_grid_points_must_be_integral(tmp_path, capsys, points, code):
    cfg = write_config(tmp_path, "points.json",
                       {"grid": {"t_min": 1.0, "t_max": 2.0, "points": points}})
    out = tmp_path / "points.csv"
    assert main(["curve", "--config", cfg, "--out", str(out), "--quiet"]) == code
    if code:
        assert "grid points" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert len(read_csv(str(out))[1]) == 3


@pytest.mark.parametrize("t_min", [0.0, -1.0], ids=["t0", "tneg"])
@pytest.mark.parametrize("command", [["curve", "--which", "boosted"], ["phi"], ["compare"]],
                         ids=["curve", "phi", "compare"])
def test_boosted_grid_must_start_positive(tmp_path, capsys, command, t_min):
    cfg = write_config(tmp_path, "t0.json",
                       {"grid": {"t_min": t_min, "t_max": 5.0, "points": 11}})
    out = tmp_path / "out"
    code = main(command + ["--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2
    assert "invalid config or model" in capsys.readouterr().err
    assert not out.exists()


def _narrow_set(extra):
    # Gamma/(M - Omega) = 1/2.3 = 0.43, above the default threshold 5e-2
    cfg = {"modes": {"M": 3.0, "w": [1.0], "Gamma": [1.0], "Omega": [0.7], "a": [0.04]},
           "grid": {"t_min": 0.0, "t_max": 5.0, "points": 11}}
    cfg.update(extra)
    return cfg


@pytest.mark.parametrize("extra, code", [
    ({}, 2),
    ({"narrow_width_threshold": float("nan")}, 2),
    ({"narrow_width_threshold": float("inf")}, 2),
    ({"narrow_width_threshold": 0.5}, 0),
    ({"narrow_width_threshold": "0.5"}, 2),
], ids=["default", "nan", "inf", "loose", "string"])
def test_curve_narrow_width_threshold(tmp_path, extra, code):
    cfg = write_config(tmp_path, "narrow.json", _narrow_set(extra))
    assert main(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv"),
                 "--quiet"]) == code


def _strict_json(text):
    def refuse(token):
        raise ValueError("not valid JSON: %s" % token)
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("window, code, named", [
    ({"xi_gate": float("nan")}, 2, "config['window']['xi_gate']"),
    ({"zeta_max": float("inf")}, 2, "config['window']['zeta_max']"),
    ({"pass_ratio": float("inf")}, 2, "config['window']['pass_ratio']"),
    ({"zeta_min": True}, 2, "config['window']['zeta_min']"),
    ({"zeta_min": "0.05"}, 2, "config['window']['zeta_min']"),
    # the graded checks' thresholds are constants, not settings
    ({"pass_ratio": 20.0}, 2, "config['window']['pass_ratio'] is not a window setting"),
    ({"warn_ratio": 3.0}, 2, "config['window']['warn_ratio'] is not a window setting"),
    ({"xi_gate": 1e-2, "zeta_max": 8.0}, 0, None),
], ids=["xi_gate_nan", "zeta_max_inf", "pass_ratio_inf", "zeta_min_bool", "zeta_min_string",
        "pass_ratio_removed", "warn_ratio_removed", "finite"])
@pytest.mark.parametrize("command", ["window", "phi"])
def test_window_knobs_must_be_finite(tmp_path, capsys, window, code, named, command):
    cfg = write_config(tmp_path, "knobs.json", {
        "grid": {"t_min": 0.5, "t_max": 25.0, "points": 40}, "window": window,
    })
    out = tmp_path / "knobs.out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == code
    if code:
        assert named in capsys.readouterr().err
        assert not out.exists()
    else:
        report = out.with_name(out.name + ".fit.json") if command == "phi" else out
        assert _strict_json(report.read_text())["window"]["zeta_max"] == 8.0


def test_log_grid_spacing(tmp_path, capsys):
    cfg = write_config(tmp_path, "log.json", {
        "grid": {"t_min": 1.0, "t_max": 100.0, "points": 3, "spacing": "log"},
    })
    out = tmp_path / "log.csv"
    assert main(["curve", "--which", "rest", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert [float(row[0]) for row in read_csv(str(out))[1]] == [1.0, 10.0, 100.0]

    cfg = write_config(tmp_path, "log0.json", {
        "grid": {"t_min": 0.0, "t_max": 100.0, "points": 3, "spacing": "log"},
    })
    out = tmp_path / "log0.csv"
    assert main(["curve", "--which", "rest", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "log spacing needs t_min > 0" in capsys.readouterr().err
    assert not out.exists()


GRID5 = {"t_min": 2.0, "t_max": 6.0, "points": 5}


@pytest.mark.parametrize("config, message", [
    # a misspelt spacing would otherwise give a linear grid
    (dict(CURVE_B, grid=dict(GRID5, spacng="log")),
     "config['grid']['spacng'] is not a grid setting"),
    # a misspelt p would otherwise give the law at rest
    ({"modes": CURVE_B["modes"], "P": 200.0, "grid": GRID5},
     "config['P'] is not a section or setting"),
    ({"modes": {("omega" if k == "Omega" else k): v for k, v in CURVE_B["modes"].items()},
      "p": 200.0, "grid": GRID5},
     "config['modes']['omega'] is not a modes setting"),
    # a misspelt copy beside the right key would otherwise pass unread
    (dict(CURVE_B, modes=dict(CURVE_B["modes"], Omgea=[5.0]), grid=GRID5),
     "config['modes']['Omgea'] is not a modes setting"),
    ({"modes": {k: v for k, v in CURVE_B["modes"].items() if k != "Omega"},
      "p": 200.0, "grid": GRID5},
     "modes lacks key 'Omega'"),
], ids=["grid", "top_level", "modes_misspelt", "modes_extra", "modes_missing"])
def test_config_refuses_an_unknown_or_missing_key(tmp_path, capsys, config, message):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "typo.csv"
    assert main(["curve", "--which", "boosted", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rest_curve_csv_contract(tmp_path):
    cfg = write_config(tmp_path, "rest.json", {
        "p": 0.0, "grid": {"t_min": 0.0, "t_max": 10.0, "points": 21},
    })
    out = tmp_path / "rest.csv"
    code = main(["curve", "--which", "rest", "--config", cfg,
                 "--out", str(out), "--quiet"])
    assert code == 0
    header, rows = read_csv(str(out))
    assert header == "t,gamma_t,value"
    assert len(rows) == 21
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][2]) == 1.0
    # gamma_t column is Gamma_1 * t
    assert float(rows[5][1]) == pytest.approx(float(rows[5][0]), rel=1e-15)


@pytest.mark.parametrize("gamma_1", [1.0, 2.5])
@pytest.mark.parametrize("which", ["rest", "rate", "split", "boosted"])
def test_gamma_t_cells_are_repr_of_gamma_1_times_t(tmp_path, which, gamma_1):
    # at Gamma_1 = 1 the gamma_t column reads the t column's cells, at 2.5 its own
    modes = dict(CURVE_B["modes"], Gamma=[gamma_1])
    cfg = write_config(tmp_path, "gamma_t.json", {
        "modes": modes, "grid": {"t_min": 0.3, "t_max": 7.1, "points": 23},
    })
    out = tmp_path / "gamma_t.csv"
    assert main(["curve", "--which", which, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv(str(out))
    t = np.linspace(0.3, 7.1, 23).tolist()
    assert [row[0] for row in rows] == [repr(x) for x in t]
    assert [row[1] for row in rows] == [repr(gamma_1 * x) for x in t]


def test_boosted_at_rest_matches_rest_columns(tmp_path):
    grid = {"t_min": 0.1, "t_max": 8.0, "points": 17}
    cfg = write_config(tmp_path, "p0.json", {"p": 0.0, "grid": grid})
    rest_out = tmp_path / "rest.csv"
    boost_out = tmp_path / "boost.csv"
    assert main(["curve", "--which", "rest", "--config", cfg,
                 "--out", str(rest_out), "--quiet"]) == 0
    assert main(["curve", "--which", "boosted", "--config", cfg,
                 "--out", str(boost_out), "--quiet"]) == 0
    header, brows = read_csv(str(boost_out))
    assert header == "t,gamma_t,value,valid"
    _, rrows = read_csv(str(rest_out))
    for rr, br in zip(rrows, brows):
        assert abs(float(br[2]) - float(rr[2])) <= 1e-12 * float(rr[2])


def test_split_curve_adds_up(tmp_path):
    cfg = write_config(tmp_path, "split.json", {
        "p": 0.0, "grid": {"t_min": 0.0, "t_max": 10.0, "points": 26},
    })
    out = tmp_path / "split.csv"
    assert main(["curve", "--which", "split", "--config", cfg,
                 "--out", str(out), "--quiet"]) == 0
    header, rows = read_csv(str(out))
    assert header == "t,gamma_t,value,value_exp,value_osc"
    for row in rows:
        total, exp_part, osc_part = map(float, row[2:5])
        assert total == pytest.approx(exp_part + osc_part, abs=1e-15)


def test_boosted_validity_column(tmp_path):
    cfg = write_config(tmp_path, "bvalid.json", {
        "grid": {"t_min": 2.0, "t_max": 11.0, "points": 19},
    })
    out = tmp_path / "b.csv"
    assert main(["curve", "--which", "boosted", "--config", cfg,
                 "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv(str(out))
    assert all(row[3] == "true" for row in rows)
    assert all(0.0 < float(row[2]) <= 1.0 for row in rows)


def test_curve_determinism_including_parallel(tmp_path):
    cfg = write_config(tmp_path, "det.json", {
        "grid": {"t_min": 2.0, "t_max": 11.0, "points": 61},
    })
    outs = []
    for name, extra in (("a.csv", []), ("b.csv", []), ("c.csv", ["--parallel", "2"])):
        out = tmp_path / name
        assert main(["curve", "--which", "boosted", "--config", cfg,
                     "--out", str(out), "--quiet"] + extra) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    cfg = write_config(tmp_path, "reuse.json", {
        "grid": {"t_min": 0.5, "t_max": 25.0, "points": 40},
        "window": {"zeta_min": 0.05},
    })
    sequence = [
        ["curve", "--which", "split"],
        ["curve"],
        ["phi"],
        ["validate"],
        ["validate", "--quiet"],
        ["curve", "--no-such-flag"],
        ["curve", "--which", "boosted"],
    ]

    def run(n, argv, tag):
        out = tmp_path / ("%s-%d.out" % (tag, n))
        try:
            code = main(argv + ["--config", cfg, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        sidecar = out.with_name(out.name + ".fit.json")
        files = [f.read_bytes() if f.exists() else None for f in (out, sidecar)]
        return code, files, capsys.readouterr().err

    in_sequence = [run(n, argv, "seq") for n, argv in enumerate(sequence)]
    alone = []
    for n, argv in enumerate(sequence):
        cli._parser.cache_clear()
        alone.append(run(n, argv, "alone"))
    assert [r[0] for r in in_sequence] == [0, 0, 0, 0, 0, 2, 0]
    assert in_sequence[1][1][0].startswith(b"t,gamma_t,value\n")
    assert in_sequence[3][2] == "validate: ok\n" and in_sequence[4][2] == ""
    assert in_sequence == alone


@pytest.mark.parametrize("column", [
    [-0.0, 5e-324, 1e-310, 1e300, 0.1 + 0.2],
    [np.float64(0.1), 0.2, np.float64(-0.0), 5e-324, np.float64(1e300)],
], ids=["python_floats", "mixed_numpy"])
def test_csv_cells_are_repr_of_the_double(column):
    flags = [i % 2 == 1 for i in range(len(column))]
    text = cli._csv_text("x,x_array,ok", column, np.array(column, dtype=float),
                         np.array(flags))
    lines = text.split("\n")
    assert lines[0] == "x,x_array,ok" and lines[-1] == ""
    for line, x, flag in zip(lines[1:-1], column, flags):
        assert line.split(",") == [repr(float(x)), repr(float(x)), "true" if flag else "false"]
    assert len(lines) == len(column) + 2


def test_csv_columns_share_cells_only_when_passed_again():
    # equal doubles in another object, and -0.0 beside 0.0, read their own cells
    zero, negative_zero = [0.0, 1.0], [-0.0, 1.0]
    text = cli._csv_text("a,b,c,d", zero, negative_zero, zero, np.array(zero))
    assert text == "a,b,c,d\n0.0,-0.0,0.0,0.0\n1.0,1.0,1.0,1.0\n"

    # the same object passed again is converted once and its cells are shared
    conversions = []

    class Column:
        def __array__(self, dtype=None, copy=None):
            conversions.append(self)
            return np.array([-0.0, 5e-324, 0.1])

    t = Column()
    text = cli._csv_text("t,gamma_t,again,copy", t, t, t, Column())
    assert text == ("t,gamma_t,again,copy\n-0.0,-0.0,-0.0,-0.0\n"
                    "5e-324,5e-324,5e-324,5e-324\n0.1,0.1,0.1,0.1\n")
    assert len(conversions) == 2


@pytest.mark.parametrize("rows", [cli.SHORTEST_MIN_ROWS - 1, cli.SHORTEST_MIN_ROWS],
                         ids=["repr", "kernel"])
def test_csv_text_is_the_same_on_both_sides_of_the_kernel_threshold(rows):
    # negative cells, cells in exponent notation, bools, and a column passed
    # twice, which is converted once
    conversions = []
    t_values = np.linspace(-2.0, 3.0, rows)

    class Column:
        def __array__(self, dtype=None, copy=None):
            conversions.append(self)
            return t_values

    t = Column()
    value = np.exp(-40.0 * t_values) * np.cos(7.0 * t_values)
    text = cli._csv_text("t,gamma_t,value,valid", t, t, value, value > 0)
    expected = ["t,gamma_t,value,valid"] + [
        "%r,%r,%r,%s" % (ti, ti, v, "true" if v > 0 else "false")
        for ti, v in zip(t_values.tolist(), value.tolist())]
    assert text == "\n".join(expected) + "\n"
    assert len(conversions) == 1


def test_boosted_validity_column_reads_true_and_false(tmp_path):
    # CURVE_B is valid where 70 t >= 10 or t > 0.1 (kinematics.VALIDITY_THRESHOLD)
    cfg = write_config(tmp_path, "bflags.json", {
        "grid": {"t_min": 0.02, "t_max": 0.3, "points": 15},
    })
    out = tmp_path / "bflags.csv"
    assert main(["curve", "--which", "boosted", "--config", cfg,
                 "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv(str(out))
    t = np.linspace(0.02, 0.3, 15)
    assert [row[0] for row in rows] == [repr(float(ti)) for ti in t]
    assert [row[3] for row in rows] == ["true" if ti > 0.1 else "false" for ti in t]


def test_window_report_top_level_keys(tmp_path):
    cfg = write_config(tmp_path, "win.json", {})
    out = tmp_path / "win.json.out"
    assert main(["window", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"params", "window", "constraints", "results",
                           "tool_version"}
    assert report["window"]["admitted"] == [0]
    assert report["window"]["merged"] is True
    per = report["results"]["periods"]
    assert per["Tp"] == pytest.approx(per["T0"] * report["window"]["gamma"])


@pytest.mark.parametrize("name", ["window_empty", "window_two_excluded"])
def test_window_report_text(tmp_path, name):
    # the whole report of its own params section: the key order, an excluded
    # mode's {"mode", "xi"} entry and an empty window's NaN constraint values
    with open(os.path.join(DATA, name + ".json")) as fh:
        expected = fh.read()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(json.loads(expected)["params"]))
    out = tmp_path / "report.json"
    assert main(["window", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert out.read_text() == expected


def test_validate_passes_with_late_window_start(tmp_path):
    cfg = write_config(tmp_path, "vok.json", {"window": {"zeta_min": 0.05}})
    out = tmp_path / "vok.out"
    code = main(["validate", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["valid"] is True
    assert all(c["status"] == "pass" for c in report["constraints"])


def test_validate_fails_at_published_window_start(tmp_path):
    # default zeta_min=1e-4 puts the window start where every graded
    # check fails; the report must name them
    cfg = write_config(tmp_path, "vfail.json", {})
    out = tmp_path / "vfail.out"
    code = main(["validate", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2
    report = json.loads(out.read_text())
    names = {c["name"] for c in report["constraints"] if c["status"] == "fail"}
    assert "domain-at-start" in names
    assert "phase-at-start" in names


def test_validate_reports_inverted_window_bounds(tmp_path):
    cfg = write_config(tmp_path, "vinv.json", {"window": {"zeta_min": 6, "zeta_max": 5}})
    out = tmp_path / "vinv.out"
    assert main(["validate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert json.loads(out.read_text())["results"] == {
        "valid": False,
        "violations": ["need 0 < zeta_min < zeta_max < inf, got 6.0, 5.0"],
    }


def test_validate_and_window_at_rest(tmp_path, capsys):
    # every benchmark pool has p >= M/2; at p = 0 there is no boost to gate
    cfg = write_config(tmp_path, "rest.json", {"p": 0.0})
    out = tmp_path / "rest.out"
    assert main(["validate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    report = json.loads(out.read_text())
    assert report["window"] is None and report["constraints"] is None
    assert report["results"] == {
        "valid": False,
        "violations": ["exponential_windows requires gamma > 1"],
    }
    capsys.readouterr()
    assert main(["window", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "oscdecay: invalid config or model: exponential_windows requires gamma > 1\n")


def test_phi_requires_out(tmp_path):
    cfg = write_config(tmp_path, "phi0.json", {
        "grid": {"t_min": 0.5, "t_max": 20.0, "points": 40},
    })
    assert main(["phi", "--config", cfg, "--quiet"]) == 2


def test_phi_refusing_a_grid_writes_no_file(tmp_path, capsys):
    # the 40 linspace points between 3 and 3 + 2e-15 repeat: the fit refuses them
    cfg = write_config(tmp_path, "phirep.json", {
        "grid": {"t_min": 3.0, "t_max": 3.000000000000002, "points": 40},
    })
    out = tmp_path / "phirep.csv"
    assert main(["phi", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "oscdecay: invalid config or model: t must increase strictly\n")
    assert os.listdir(tmp_path) == ["phirep.json"]


@pytest.mark.parametrize("argv, p", [
    ("curve --which rest", 200.0),
    ("curve --which rate", 200.0),
    ("curve --which split", 200.0),
    ("curve --which boosted", 200.0),
    # at rest no window is built, so nothing but the grid reads the times
    ("phi", 0.0),
    ("compare", 200.0),
])
def test_every_command_refuses_a_grid_whose_times_repeat(tmp_path, capsys, argv, p):
    # phi at p > 0 is test_phi_refusing_a_grid_writes_no_file
    cfg = write_config(tmp_path, "rep.json", {
        "p": p, "grid": {"t_min": 3.0, "t_max": 3.000000000000002, "points": 40},
    })
    out = tmp_path / "rep.out"
    assert main(argv.split() + ["--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "oscdecay: invalid config or model: t must increase strictly\n")
    assert os.listdir(tmp_path) == ["rep.json"]


def test_phi_identity_frame_residuals(tmp_path):
    cfg = write_config(tmp_path, "phiid.json", {
        "p": 0.0, "grid": {"t_min": 0.1, "t_max": 10.0, "points": 30},
    })
    out = tmp_path / "phi.csv"
    assert main(["phi", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header, rows = read_csv(str(out))
    assert header == "t,phi_p,t_over_gamma,residual"
    for row in rows:
        assert abs(float(row[3])) <= 1e-10
    # gamma = 1 admits no window, so the sidecar reports the fit as
    # unavailable instead of inventing one
    sidecar = json.loads((tmp_path / "phi.csv.fit.json").read_text())
    assert "fit_error" in sidecar["results"]


def test_phi_sidecar_fit_slope(tmp_path):
    cfg = write_config(tmp_path, "phifit.json", {
        "grid": {"t_min": 0.5, "t_max": 25.0, "points": 80},
    })
    out = tmp_path / "phib.csv"
    assert main(["phi", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    sidecar = json.loads((tmp_path / "phib.csv.fit.json").read_text())
    fit = sidecar["results"]["fit"]
    assert fit["rel_slope_error"] <= 0.02
    assert fit["expected_slope"] == pytest.approx(1.0 / 2.6925824035672523,
                                                  rel=1e-12)


def test_compare_exit_codes(tmp_path):
    cfg = write_config(tmp_path, "cmp.json", {
        "grid": {"t_min": 2.0, "t_max": 6.0, "points": 5},
        "oracle": {"abs_tol": 1e-7, "rel_tol": 1e-5},
        "compare": {"max_rel_deviation": 1e-2},
    })
    out = tmp_path / "cmp.json.out"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["within_bound"] is True
    assert report["results"]["max_rel_deviation"] <= 1e-2

    tight = write_config(tmp_path, "cmp2.json", {
        "grid": {"t_min": 2.0, "t_max": 6.0, "points": 5},
        "oracle": {"abs_tol": 1e-7, "rel_tol": 1e-5},
        "compare": {"max_rel_deviation": 1e-6},
    })
    assert main(["compare", "--config", tight, "--out",
                 str(tmp_path / "cmp2.out"), "--quiet"]) == 1


def test_compare_reports_closed_form_outside_its_domain(tmp_path):
    # at t = 1e-6 the closed form gives P = 25.6, written by curve with
    # valid=false; compare reports that deviation against the oracle and
    # exits 1, not 2
    cfg = write_config(tmp_path, "oob.json", {"grid": {"t_min": 1e-6, "t_max": 2.0, "points": 21}})
    curve = tmp_path / "oob.csv"
    assert main(["curve", "--which", "boosted", "--config", cfg, "--out", str(curve),
                 "--quiet"]) == 0
    _, rows = read_csv(str(curve))
    assert float(rows[0][2]) == pytest.approx(25.566, rel=1e-4) and rows[0][3] == "false"
    out = tmp_path / "oob.out"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    results = json.loads(out.read_text())["results"]
    assert results["within_bound"] is False
    assert results["n_points"] == 21
    assert results["t_at_max_abs"] == 1e-6
    assert results["max_abs_deviation"] == pytest.approx(float(rows[0][2]) - 1.0, rel=1e-6)


def test_oracle_non_convergence_exits_4(tmp_path, capsys):
    # at the 512-node cap the sum still changes by ~4e-18, far above an
    # absolute tolerance of 1e-300
    cfg = write_config(tmp_path, "e4.json", {
        "grid": {"t_min": 2.0, "t_max": 3.0, "points": 5},
        "oracle": {"abs_tol": 1e-300, "rel_tol": 0},
    })
    out = tmp_path / "e4.out"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert re.search(r"oracle did not converge: .* at t=2\.0 "
                     r"\(value=\(\S+j\), error=\S+\)$", err.strip())
    assert not out.exists()


@pytest.mark.parametrize("section", [
    {"compare": 5},
    {"compare": {"max_rel_deviation": float("nan")}},
    {"compare": {"max_rel_deviation": -1.0}},
    {"oracle": []},
    {"oracle": {"abs_tol": float("nan")}},
    {"compare": {"max_rel_deviation": "0.01"}},
    {"oracle": {"include_negative_mass": "false"}},
    {"oracle": {"include_negative_mass": 0}},
    # the former doubling cap, which could not bind under the 512-node cap
    {"oracle": {"max_rounds": 48}},
    {"oracle": {"max_rounds": 2.5}},
    {"oracle": {"max_rounds": True}},
    # settings of the former real-axis quadrature
    {"oracle": {"halfwidth_multiple": 60}},
    {"oracle": {"max_segments": 10}},
    # a misspelt bound would otherwise leave the default 1e-2 gate in force
    {"compare": {"max_rel_deviaton": 1e-9}},
], ids=["compare_not_object", "bound_nan", "bound_negative", "oracle_not_object",
        "oracle_abs_tol_nan", "bound_string", "oracle_negative_mass_string",
        "oracle_negative_mass_int", "oracle_max_rounds", "oracle_max_rounds_fraction",
        "oracle_max_rounds_bool", "oracle_halfwidth_multiple", "oracle_max_segments",
        "bound_misspelt"])
def test_compare_rejects_malformed_sections(tmp_path, capsys, section):
    extra = {"grid": {"t_min": 2.0, "t_max": 6.0, "points": 5},
             "oracle": {"abs_tol": 1e-7, "rel_tol": 1e-5}}
    extra.update(section)
    cfg = write_config(tmp_path, "badcmp.json", extra)
    out = tmp_path / "bad.out"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    (name, value), = section.items()
    assert "invalid config" in err and name in err
    if isinstance(value, dict):
        assert list(value)[0] in err
    assert not out.exists()


@pytest.mark.parametrize("command, section", [
    ("curve --which boosted", "grid"),
    ("curve --which boosted", "modes"),
    ("validate", "modes"),
])
@pytest.mark.parametrize("value", [[1, 2], "abc"], ids=["list", "string"])
def test_grid_and_modes_sections_must_be_objects(tmp_path, capsys, command, section, value):
    cfg = write_config(tmp_path, "notobject.json",
                       {"grid": {"t_min": 2.0, "t_max": 11.0, "points": 19}, section: value})
    out = tmp_path / "notobject.out"
    assert main(command.split() + ["--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "oscdecay: invalid config or model: '%s' section must be an object\n" % section)
    assert not out.exists()


GRID = {"t_min": 2.0, "t_max": 6.0, "points": 5}


@pytest.mark.parametrize("command, config, message", [
    ("curve", [1, 2], "config root must be a JSON object"),
    ("curve", {"p": 200.0, "grid": GRID}, "config lacks the 'modes' section"),
    ("curve", dict(CURVE_B, p=-1.0, grid=GRID), "momentum p must be finite and >= 0, got -1.0"),
    ("curve", CURVE_B, "config lacks the 'grid' section"),
    ("curve", dict(CURVE_B, grid={"t_min": 2.0, "points": 5}), "grid lacks key 't_max'"),
    ("curve", dict(CURVE_B, grid=dict(GRID, t_max=2.0)),
     "grid needs t_min < t_max, got 2.0, 2.0"),
    ("curve", dict(CURVE_B, grid=dict(GRID, spacing="cubic")),
     "grid spacing must be 'linear' or 'log', got 'cubic'"),
    ("compare", dict(CURVE_B, grid=GRID, oracle={"abs_tol": 0.0}),
     "bad oracle parameters: tolerances must be finite, abs_tol > 0 and rel_tol >= 0, "
     "got abs_tol=0.0, rel_tol=1e-06"),
], ids=["root_not_object", "no_modes", "p_negative", "no_grid", "grid_key_missing",
        "t_min_not_below_t_max", "bad_spacing", "bad_oracle_parameters"])
def test_config_errors_exit_2_with_their_message(tmp_path, capsys, command, config, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "bad.out"
    assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "oscdecay: invalid config or model: %s\n" % message
    assert not out.exists()


def test_config_that_is_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"modes": ')
    assert main(["validate", "--config", str(path), "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("oscdecay: invalid config or model: config %s is not valid JSON: "
                          % path)


def test_compare_reads_a_boolean_oracle_setting(tmp_path):
    oracle = {"include_negative_mass": False, "abs_tol": 1e-7, "rel_tol": 1e-5}
    cfg = write_config(tmp_path, "negmass.json", {"grid": GRID, "oracle": oracle})
    out = tmp_path / "negmass.out"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert report["params"]["oracle"] == oracle
    modes = oscdecay.validate_modes(CURVE_B["modes"])
    t = np.linspace(2.0, 6.0, 5)
    exact = oscdecay.direct_survival(modes, 200.0, t, oscdecay.QuadratureSpec(**oracle))
    closed = oscdecay.BoostedLaw(modes, oscdecay.shifted_kinematics(modes, 200.0))(t).P_p
    rep = oscdecay.oracle_compare(closed, oscdecay.CurveSeries(t=t, values=exact))
    assert report["results"]["max_rel_deviation"] == rep.max_rel_deviation
    assert report["results"]["within_bound"] is True


@pytest.mark.parametrize("fields", [{"a": [0.0]}, {"Omega": [0.0]}], ids=["a_zero", "Omega_zero"])
def test_window_periods_unavailable_without_an_oscillating_mode(tmp_path, fields):
    cfg = write_config(tmp_path, "flat.json", {"modes": dict(CURVE_B["modes"], **fields)})
    out = tmp_path / "flat.out"
    assert main(["window", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text())
    assert report["window"]["admitted"] == [0]
    assert report["results"]["periods"] == {
        "unavailable": "no oscillating active mode (need a_j > 0 and Omega_j > 0)"}


@pytest.mark.parametrize("extra, path", [
    ({"p": "200"}, "config['p']"),
    ({"p": True}, "config['p']"),
    ({"p": 10**400}, "config['p']"),
    ({"modes": dict(CURVE_B["modes"], M="80")}, "config['modes']['M']"),
    ({"modes": dict(CURVE_B["modes"], w=[True])}, "config['modes']['w'][0]"),
    ({"grid": {"t_min": "2", "t_max": 11.0, "points": 19}}, "config['grid']['t_min']"),
    ({"grid": {"t_min": 2.0, "t_max": False, "points": 19}}, "config['grid']['t_max']"),
], ids=["p_string", "p_bool", "p_beyond_double", "mass_string", "weight_bool", "t_min_string",
        "t_max_bool"])
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, extra, path):
    cfg = write_config(tmp_path, "typed.json",
                       dict({"grid": {"t_min": 2.0, "t_max": 11.0, "points": 19}}, **extra))
    out = tmp_path / "typed.csv"
    assert main(["curve", "--which", "boosted", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 2
    assert "%s must be a number" % path in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "seed.json", {"grid": {"t_min": 2.0, "t_max": 11.0, "points": 19}})
    out = tmp_path / "seed.csv"
    with pytest.raises(SystemExit) as info:
        main(["curve", "--config", cfg, "--out", str(out), "--seed", "7"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    {"window": {"xi_gate": float("nan")}},
    {"window": {"zeta_min": float("-inf")}},
    {"notes": [1.0, {"x": float("inf")}]},
], ids=["unread_window_nan", "unread_window_minus_inf", "unknown_section_inf"])
def test_compare_rejects_non_finite_anywhere(tmp_path, capsys, extra):
    # compare never reads the window section, but the report echoes it
    extra = dict(extra, grid={"t_min": 2.0, "t_max": 6.0, "points": 5})
    cfg = write_config(tmp_path, "nonfinite.json", extra)
    out = tmp_path / "nonfinite.out"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert list(extra)[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "window", "compare"])
def test_reports_are_strict_json(tmp_path, command):
    cfg = write_config(tmp_path, "strict.json", {
        "grid": {"t_min": 2.0, "t_max": 6.0, "points": 5},
        "window": {"zeta_min": 0.05},
        "oracle": {"abs_tol": 1e-7, "rel_tol": 1e-5},
        "compare": {"max_rel_deviation": 1e-2},
    })
    out = tmp_path / "strict.out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = _strict_json(out.read_text())
    assert report["params"]["window"] == {"zeta_min": 0.05}


# a valid single-mode set at p/M^2 = 0.36, where the closed form passes 1
LARGE_P_OVER_M2 = {
    "modes": {"M": 15.0, "w": [1.0], "Gamma": [0.5], "Omega": [0.0], "a": [0.0]},
    "p": 80.0,
    "grid": {"t_min": 0.05, "t_max": 5.0, "points": 50},
}
REFUSAL = ("oscdecay: invalid config or model: in-domain probability 1.0020449653081613 "
           "exceeds 1 beyond the 1e-06 tolerance\n")


@pytest.mark.parametrize("command", ["curve --which boosted", "phi", "compare"])
def test_a_valid_config_the_closed_form_refuses_exits_2(tmp_path, capsys, command):
    # pinned, not endorsed: the mode set passes validate_modes (the window
    # admits no mode, so `validate` reports constraint failures), and the
    # commands that evaluate the closed form on its grid exit 2
    oscdecay.validate_modes(LARGE_P_OVER_M2["modes"])
    path = tmp_path / "large.json"
    path.write_text(json.dumps(LARGE_P_OVER_M2))
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    assert main(command.split() + argv) == 2
    assert capsys.readouterr().err == REFUSAL
    if command == "phi":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(oscdecay.__file__)))
        proc = subprocess.run([sys.executable, "-m", "oscdecay.cli", "phi"] + argv,
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, REFUSAL)


# ROADMAP item 16's edges, pinned as they stand, not endorsed. At p = 1e155,
# p * p overflows in the pole energies, so every boosted value is NaN, which
# the closed form refuses as it refuses an overshoot; from t = 1e-300 at
# p = 40, P_p overflows to inf outside the closed form's domain
HUGE_P = dict(CURVE_B, p=1e155, grid={"t_min": 1.0, "t_max": 5.0, "points": 11})
TINY_T = dict(CURVE_B, p=40.0,
              grid={"t_min": 1e-300, "t_max": 1.0, "points": 11, "spacing": "log"})
HUGE_P_WARNINGS = ["overflow encountered in square", "invalid value encountered in multiply"]
HUGE_P_REFUSAL = "in-domain probability nan is not finite"
TINY_T_WARNINGS = ["overflow encountered in multiply"]
# output_digest's edge config 9: at p = 1e75, p t overflows at t = 1e240, and
# the closed form refuses it before any work, without a warning
HUGE_PT = dict(CURVE_B, p=1e75,
               grid={"t_min": 1.0, "t_max": 1e240, "points": 11, "spacing": "log"})
HUGE_PT_REFUSAL = "p t must be finite and > 0, got inf"


@pytest.mark.parametrize("config, command, code, message, warned", [
    (HUGE_P, "validate", 0, None, []),
    (HUGE_P, "window", 0, None, []),
    (HUGE_P, "curve --which boosted", 2, HUGE_P_REFUSAL, HUGE_P_WARNINGS),
    (HUGE_P, "phi", 2, HUGE_P_REFUSAL, HUGE_P_WARNINGS),
    (HUGE_P, "compare", 2, HUGE_P_REFUSAL, HUGE_P_WARNINGS),
    (TINY_T, "curve --which boosted", 0, None, TINY_T_WARNINGS),
    (TINY_T, "phi", 2, "boosted survival inf exceeds 1 at t=1e-300; the time map is undefined "
     "there", TINY_T_WARNINGS),
    (TINY_T, "compare", 2, "closed-form values must be finite", TINY_T_WARNINGS),
    (HUGE_PT, "curve --which boosted", 2, HUGE_PT_REFUSAL, []),
    (HUGE_PT, "phi", 2, HUGE_PT_REFUSAL, []),
    (HUGE_PT, "compare", 2, HUGE_PT_REFUSAL, []),
], ids=["huge_p-validate", "huge_p-window", "huge_p-boosted", "huge_p-phi", "huge_p-compare",
        "tiny_t-boosted", "tiny_t-phi", "tiny_t-compare", "huge_pt-boosted", "huge_pt-phi",
        "huge_pt-compare"])
def test_overflowing_configs_are_pinned(tmp_path, capsys, config, command, code, message,
                                        warned):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "edge.out"
    # each warning once, as a fresh interpreter shows it on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default", RuntimeWarning)
        assert main(command.split() + ["--config", str(path), "--out", str(out),
                                       "--quiet"]) == code
    assert [w.category for w in caught] == [RuntimeWarning] * len(warned)
    assert [str(w.message) for w in caught] == warned
    err = capsys.readouterr().err
    assert err == ("" if message is None else "oscdecay: invalid config or model: %s\n" % message)
    assert out.exists() == (code == 0)
    if command != "curve --which boosted" or code:
        return
    header, rows = read_csv(str(out))
    assert header == "t,gamma_t,value,valid"
    assert rows[0] == ["1e-300", "1e-300", "inf", "false"]
    assert rows[-1][3] == "true"


def test_boosted_commands_exit_0_or_2_over_the_float_range(tmp_path, capsys):
    # ROADMAP item 16's sweep through the CLI: p/M log-uniform in
    # [1e-15, 1e300] and log grids from t_min in [1e-300, 1], every other
    # draw over the whole range and the rest nearer the closed form's domain
    # (p/M <= 100, t_min >= 1e-3), where phi also succeeds. Every run exits 0
    # with finite valid cells and finite phi_p, or 2 with one message line
    # and no file. Draws that print numpy RuntimeWarnings are item 16's open
    # part: counted, not failed
    rng = np.random.default_rng(38)
    sets = (*NEAR_REST_SETS.values(), M15_SET)
    codes = collections.Counter()
    warned = 0
    for draw in range(100):
        edge = draw % 2 == 0
        modes = sets[rng.integers(len(sets))]
        t_min = 10.0 ** rng.uniform(-300.0 if edge else -3.0, 0.0)
        config = {"modes": modes,
                  "p": modes["M"] * 10.0 ** rng.uniform(-15.0, 300.0 if edge else 2.0),
                  "grid": {"t_min": t_min,
                           "t_max": t_min * 10.0 ** rng.uniform(1.0, 300.0 if edge else 4.0),
                           "points": int(rng.integers(2, 12)), "spacing": "log"}}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        caught_any = False
        for command in ("curve --which boosted", "phi"):
            out_dir = tmp_path / ("%d-%s" % (draw, command.split()[-1]))
            out_dir.mkdir()
            out = out_dir / "out.csv"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(command.split() + ["--config", str(path), "--out", str(out),
                                               "--quiet"])
            assert all(w.category is RuntimeWarning for w in caught), (config, command)
            caught_any |= bool(caught)
            err = capsys.readouterr().err
            codes[command, code] += 1
            assert code in (0, 2), (config, command, err)
            if code == 2:
                assert err.startswith("oscdecay: ") and err.count("\n") == 1, (config, err)
                assert list(out_dir.iterdir()) == [], (config, command)
                continue
            assert err == ""
            header, rows = read_csv(str(out))
            cells = np.array(rows)
            if command == "phi":
                assert header.startswith("t,phi_p,")
                assert np.all(np.isfinite(cells[:, 1].astype(float))), (config, rows)
            else:
                assert header == "t,gamma_t,value,valid"
                valid = cells[:, 3] == "true"
                assert np.all(np.isfinite(cells[valid, :3].astype(float))), (config, rows)
        warned += caught_any
    # both commands reach both endings, and some draws still warn (item 16)
    assert sorted(codes) == [("curve --which boosted", 0), ("curve --which boosted", 2),
                             ("phi", 0), ("phi", 2)] and 0 < warned < 100, (codes, warned)


def test_compare_parallel_flag_is_a_no_op(tmp_path):
    cfg = write_config(tmp_path, "cmppar.json", {
        "grid": {"t_min": 2.0, "t_max": 6.0, "points": 9},
        "oracle": {"abs_tol": 1e-7, "rel_tol": 1e-5},
    })
    outs = []
    for name, extra in (("s.json", []), ("p.json", ["--parallel", "2"])):
        out = tmp_path / name
        assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"] + extra) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("oscdecay")
    assert exe is not None
    cfg = write_config(tmp_path, "script.json", {
        "p": 0.0, "grid": {"t_min": 0.0, "t_max": 5.0, "points": 6},
    })
    out = tmp_path / "script.csv"
    proc = subprocess.run([exe, "curve", "--which", "rest", "--config", cfg,
                           "--out", str(out), "--quiet"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    header, rows = read_csv(str(out))
    assert header == "t,gamma_t,value"
    assert len(rows) == 6


def test_cli_import_loads_no_scipy():
    # the runtime depends on numpy alone; scipy is a test-only dependency
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(oscdecay.__file__)))
    code = "import sys, oscdecay.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
