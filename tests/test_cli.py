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

from conftest import DATA, DIGEST_EDGES, M15_SET, NEAR_REST_SETS, run_cli


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


NAN, INF = float("nan"), float("inf")
GRID = {"t_min": 2.0, "t_max": 6.0, "points": 5}
# the 40 linspace points between 3 and 3 + 2e-15 repeat
REPEATING = {"t_min": 3.0, "t_max": 3.000000000000002, "points": 40}
# Gamma/(M - Omega) = 1/2.3 = 0.43, above the default threshold 5e-2
NARROW = {"modes": {"M": 3.0, "w": [1.0], "Gamma": [1.0], "Omega": [0.7], "a": [0.04]},
          "grid": {"t_min": 0.0, "t_max": 5.0, "points": 11}}
# a valid single mode at p/M^2 = 0.36, where the closed form passes 1 (ROADMAP item 12)
LARGE_P_OVER_M2 = {"modes": M15_SET, "p": 80.0,
                   "grid": {"t_min": 0.05, "t_max": 5.0, "points": 50}}
OVERSHOOT = "in-domain probability 1.0020449653081613 exceeds 1 beyond the 1e-06 tolerance"
T0 = "t = 0 is outside the moving-frame closed form (p > 0)"
TNEG = "time must be finite and >= 0, got -1.0"
REPEAT = "t must increase strictly"
P_NEGATIVE = "momentum p must be finite and >= 0, got -1.0"
# ROADMAP item 16's edges, pinned as they stand, not endorsed: at p = 1e155
# (digest edge 7) p * p overflows in the pole energies, so every boosted
# value is NaN, which the closed form refuses as it refuses an overshoot;
# from t = 1e-300 at p = 40 (edge 8) P_p overflows to inf outside the
# closed form's domain; at p = 1e75 (edge 9) p t overflows at t = 1e240,
# refused before any work, without a warning
HUGE_P, TINY_T, HUGE_PT = DIGEST_EDGES[7], DIGEST_EDGES[8], DIGEST_EDGES[9]
HUGE_P_REFUSAL = "in-domain probability nan is not finite"
HUGE_P_WARNINGS = ("overflow encountered in square", "invalid value encountered in multiply")
HUGE_PT_REFUSAL = "p t must be finite and > 0, got inf"
TINY_T_WARNING = "overflow encountered in multiply"


def _with(**changes):
    """Curve B on GRID, with the given sections or settings replaced."""
    return {**CURVE_B, "grid": GRID, **changes}


# Every refusal of a config by a command, grouped by the rule it checks:
# test name -> case id -> (command, config, the message, then the
# RuntimeWarnings shown on the way, in order); a rule with a single case
# holds its row itself. Each row exits 2, prints "oscdecay: invalid config
# or model: <message>" and writes no file.
REFUSALS = {
    # the grid
    "test_one_point_grid_rejected": ("curve", _with(grid=dict(GRID, points=1)),
                                     "grid points must be an integer >= 2, got 1"),
    "test_grid_points_must_be_integral": {
        "fraction": ("curve", _with(grid=dict(GRID, points=40.7)),
                     "grid points must be an integer >= 2, got 40.7"),
        "string": ("curve", _with(grid=dict(GRID, points="40")),
                   "grid points must be an integer >= 2, got '40'"),
        "huge_float": ("curve", _with(grid=dict(GRID, points=1e12)),
                       "grid points must be at most 1000000, got 1000000000000.0"),
        "above_limit": ("curve", _with(grid=dict(GRID, points=1000001)),
                        "grid points must be at most 1000000, got 1000001"),
    },
    "test_log_grid_needs_a_positive_start": (
        "curve --which rest", _with(grid=dict(GRID, t_min=0.0, spacing="log")),
        "log spacing needs t_min > 0, got 0.0"),
    "test_boosted_grid_must_start_positive": {
        "%s-%s" % (name, t_id): (command, _with(grid=dict(GRID, t_min=t_min)), message)
        for name, command in [("curve", "curve --which boosted"), ("phi", "phi"),
                              ("compare", "compare")]
        for t_id, t_min, message in [("t0", 0.0, T0), ("tneg", -1.0, TNEG)]},
    "test_every_command_refuses_a_grid_whose_times_repeat": {
        "%s-%s" % (command, p): (command, _with(p=p, grid=REPEATING), REPEAT)
        for command, p in [("curve --which rest", 200.0), ("curve --which rate", 200.0),
                           ("curve --which split", 200.0), ("curve --which boosted", 200.0),
                           ("compare", 200.0),
                           # at rest no window is built, so nothing but the
                           # grid reads the times
                           ("phi", 0.0)]},
    # phi's fit refuses them
    "test_phi_refusing_a_grid_writes_no_file": ("phi", _with(grid=REPEATING), REPEAT),
    # the modes
    "test_curve_narrow_width_threshold": {
        "default": ("curve", NARROW, "narrow-width check failed for mode 0: "
                    "Gamma/(M-Omega)=0.4347826086956522 > 0.05"),
        "nan": ("curve", dict(NARROW, narrow_width_threshold=NAN),
                "config['narrow_width_threshold'] is not a finite number"),
        "inf": ("curve", dict(NARROW, narrow_width_threshold=INF),
                "config['narrow_width_threshold'] is not a finite number"),
        "string": ("curve", dict(NARROW, narrow_width_threshold="0.5"),
                   "config['narrow_width_threshold'] must be a number, got '0.5'"),
    },
    # the window's knobs, read alike by window and phi; the graded checks'
    # thresholds are constants, not settings
    "test_window_knobs_must_be_finite": {
        "%s-%s" % (command, name): (command, _with(window=window), message)
        for command in ("window", "phi") for name, window, message in [
            ("xi_gate_nan", {"xi_gate": NAN}, "config['window']['xi_gate'] is not a finite number"),
            ("zeta_max_inf", {"zeta_max": INF},
             "config['window']['zeta_max'] is not a finite number"),
            ("pass_ratio_inf", {"pass_ratio": INF},
             "config['window']['pass_ratio'] is not a finite number"),
            ("zeta_min_bool", {"zeta_min": True},
             "config['window']['zeta_min'] must be a number, got True"),
            ("zeta_min_string", {"zeta_min": "0.05"},
             "config['window']['zeta_min'] must be a number, got '0.05'"),
            ("pass_ratio_removed", {"pass_ratio": 20.0},
             "config['window']['pass_ratio'] is not a window setting"),
            ("warn_ratio_removed", {"warn_ratio": 3.0},
             "config['window']['warn_ratio'] is not a window setting")]},
    # every benchmark pool has p >= M/2; at p = 0 there is no boost to gate
    "test_window_refuses_a_set_at_rest": ("window", _with(p=0.0),
                                          "exponential_windows requires gamma > 1"),
    # a key that is unknown or missing; a misspelt spacing would otherwise
    # give a linear grid, a misspelt p the law at rest, a misspelt bound the
    # default 1e-2 gate, and a misspelt copy beside the right key would pass
    # unread
    "test_config_refuses_an_unknown_or_missing_key": {
        "grid": ("curve --which boosted", _with(grid=dict(GRID, spacng="log")),
                 "config['grid']['spacng'] is not a grid setting"),
        "top_level": ("curve --which boosted", {"modes": CURVE_B["modes"], "P": 200.0,
                                                "grid": GRID},
                      "config['P'] is not a section or setting"),
        "modes_misspelt": ("curve --which boosted",
                           _with(modes={("omega" if k == "Omega" else k): v
                                        for k, v in CURVE_B["modes"].items()}),
                           "config['modes']['omega'] is not a modes setting"),
        "modes_extra": ("curve --which boosted", _with(modes=dict(CURVE_B["modes"], Omgea=[5.0])),
                        "config['modes']['Omgea'] is not a modes setting"),
        "modes_missing": ("curve --which boosted",
                          _with(modes={k: v for k, v in CURVE_B["modes"].items() if k != "Omega"}),
                          "modes lacks key 'Omega'"),
    },
    "test_config_errors_exit_2_with_their_message": {
        "t_min_not_below_t_max": ("curve", _with(grid=dict(GRID, t_max=2.0)),
                                  "grid needs t_min < t_max, got 2.0, 2.0"),
        "bad_spacing": ("curve", _with(grid=dict(GRID, spacing="cubic")),
                        "grid spacing must be 'linear' or 'log', got 'cubic'"),
        "modes_unknown_key": ("compare", _with(modes=dict(CURVE_B["modes"], phase=0.0)),
                              "config['modes']['phase'] is not a modes setting"),
        "grid_unknown_key": ("compare", _with(grid=dict(GRID, step=1.0)),
                             "config['grid']['step'] is not a grid setting"),
        "modes_key_missing": ("compare",
                              _with(modes={k: v for k, v in CURVE_B["modes"].items() if k != "M"}),
                              "modes lacks key 'M'"),
        "grid_key_missing": ("curve", _with(grid={"t_min": 2.0, "points": 5}),
                             "grid lacks key 't_max'"),
        "grid_points_missing": ("compare", _with(grid={"t_min": 2.0, "t_max": 6.0}),
                                "grid lacks key 'points'"),
        # a section that is missing or not an object
        "root_not_object": ("curve", [1, 2], "config root must be a JSON object"),
        "no_modes": ("curve", {"p": 200.0, "grid": GRID}, "config lacks the 'modes' section"),
        "no_grid": ("curve", CURVE_B, "config lacks the 'grid' section"),
        "oracle_not_object": ("compare", _with(oracle=[1e-8]),
                              "'oracle' section must be an object"),
        # a number that is not finite, which strict JSON has not
        "p_nan": ("window", _with(p=NAN), "config['p'] is not a finite number"),
        "p_inf": ("compare", _with(p=INF), "config['p'] is not a finite number"),
        # a value out of its range; one momentum rule, kinematics', whichever
        # command reads p
        "p_negative": ("curve", _with(p=-1.0), P_NEGATIVE),
        "validate_p_negative": ("validate", _with(p=-1.0), P_NEGATIVE),
        "phi_p_negative": ("phi", _with(p=-1.0), P_NEGATIVE),
        "compare_p_negative": ("compare", _with(p=-1.0), P_NEGATIVE),
        "bad_oracle_parameters": ("compare", _with(oracle={"abs_tol": 0.0}),
                                  "bad oracle parameters: tolerances must be finite, abs_tol > 0 "
                                  "and rel_tol >= 0, got abs_tol=0.0, rel_tol=1e-06"),
    },
    "test_compare_rejects_malformed_sections": {
        "bound_misspelt": ("compare", _with(compare={"max_rel_deviaton": 1e-9}),
                           "config['compare']['max_rel_deviaton'] is not a compare setting"),
        # the former doubling cap, which could not bind under the 512-node
        # cap, and two settings of the former real-axis quadrature
        "oracle_max_rounds": ("compare", _with(oracle={"max_rounds": 48}),
                              "config['oracle']['max_rounds'] is not an oracle setting"),
        "oracle_halfwidth_multiple": ("compare", _with(oracle={"halfwidth_multiple": 60}),
                                      "config['oracle']['halfwidth_multiple'] is not an oracle "
                                      "setting"),
        "oracle_max_segments": ("compare", _with(oracle={"max_segments": 10}),
                                "config['oracle']['max_segments'] is not an oracle setting"),
        "compare_not_object": ("compare", _with(compare=5),
                               "'compare' section must be an object"),
        "bound_string": ("compare", _with(compare={"max_rel_deviation": "0.01"}),
                         "config['compare']['max_rel_deviation'] must be a number, got '0.01'"),
        "oracle_negative_mass_string": ("compare",
                                        _with(oracle={"include_negative_mass": "false"}),
                                        "config['oracle']['include_negative_mass'] must be true "
                                        "or false, got 'false'"),
        "oracle_negative_mass_int": ("compare", _with(oracle={"include_negative_mass": 0}),
                                     "config['oracle']['include_negative_mass'] must be true or "
                                     "false, got 0"),
        "bound_nan": ("compare", _with(compare={"max_rel_deviation": NAN}),
                      "config['compare']['max_rel_deviation'] is not a finite number"),
        "oracle_abs_tol_nan": ("compare", _with(oracle={"abs_tol": NAN}),
                               "config['oracle']['abs_tol'] is not a finite number"),
        "bound_negative": ("compare", _with(compare={"max_rel_deviation": -1.0}),
                           "compare.max_rel_deviation must be finite and > 0, got -1.0"),
    },
    "test_grid_and_modes_sections_must_be_objects": {
        "%s-%s-%s" % (kind, command, section): (command, _with(**{section: value}),
                                                "'%s' section must be an object" % section)
        for command, section in [("curve --which boosted", "grid"),
                                 ("curve --which boosted", "modes"), ("validate", "modes")]
        for kind, value in [("list", [1, 2]), ("string", "abc")]},
    # a number that is not a JSON number
    "test_config_numbers_must_be_json_numbers": {
        "p_string": ("curve --which boosted", _with(p="200"),
                     "config['p'] must be a number, got '200'"),
        "p_bool": ("curve --which boosted", _with(p=True),
                   "config['p'] must be a number, got True"),
        "p_beyond_double": ("curve --which boosted", _with(p=10**400),
                            "config['p'] must be a number, got %d" % 10**400),
        "mass_string": ("curve --which boosted", _with(modes=dict(CURVE_B["modes"], M="80")),
                        "config['modes']['M'] must be a number, got '80'"),
        "weight_bool": ("curve --which boosted", _with(modes=dict(CURVE_B["modes"], w=[True])),
                        "config['modes']['w'][0] must be a number, got True"),
        "t_min_string": ("curve --which boosted", _with(grid=dict(GRID, t_min="2")),
                         "config['grid']['t_min'] must be a number, got '2'"),
        "t_max_bool": ("curve --which boosted", _with(grid=dict(GRID, t_max=False)),
                       "config['grid']['t_max'] must be a number, got False"),
    },
    # the reader refuses a number that is not finite anywhere, in a section
    # the command never reads too (the report would echo it)
    "test_compare_rejects_non_finite_anywhere": {
        "unread_window_nan": ("compare", _with(window={"xi_gate": NAN}),
                              "config['window']['xi_gate'] is not a finite number"),
        "unread_window_minus_inf": ("compare", _with(window={"zeta_min": -INF}),
                                    "config['window']['zeta_min'] is not a finite number"),
        "unknown_section_inf": ("compare", _with(window={"xi_gate": [1.0, {"x": INF}]}),
                                "config['window']['xi_gate'][1]['x'] is not a finite number"),
    },
    # a valid config the closed form refuses, pinned, not endorsed: the mode
    # set passes validate_modes (the window admits no mode, so `validate`
    # reports constraint failures), and the commands that evaluate the
    # closed form on its grid exit 2
    "test_a_valid_config_the_closed_form_refuses_exits_2": {
        command: (command, LARGE_P_OVER_M2, OVERSHOOT)
        for command in ("curve --which boosted", "phi", "compare")},
    "test_overflowing_configs_are_pinned": {
        "huge_p-boosted": ("curve --which boosted", HUGE_P, HUGE_P_REFUSAL, *HUGE_P_WARNINGS),
        "huge_p-phi": ("phi", HUGE_P, HUGE_P_REFUSAL, *HUGE_P_WARNINGS),
        "huge_p-compare": ("compare", HUGE_P, HUGE_P_REFUSAL, *HUGE_P_WARNINGS),
        "tiny_t-phi": ("phi", TINY_T, "boosted survival inf exceeds 1 at t=1e-300; the time map "
                       "is undefined there", TINY_T_WARNING),
        "tiny_t-compare": ("compare", TINY_T, "closed-form values must be finite",
                           TINY_T_WARNING),
        "huge_pt-boosted": ("curve --which boosted", HUGE_PT, HUGE_PT_REFUSAL),
        "huge_pt-phi": ("phi", HUGE_PT, HUGE_PT_REFUSAL),
        "huge_pt-compare": ("compare", HUGE_PT, HUGE_PT_REFUSAL),
    },
}


def _refused(tmp_path, row):
    command, config, message, *warned = row
    code, err, caught, _ = run_cli(tmp_path, config, command)
    assert (code, err, caught) == (2, "oscdecay: invalid config or model: %s\n" % message, warned)
    assert os.listdir(tmp_path) == ["config.json"]


def _refusal_test(rows):
    """The one refusal test, over the rows of one rule."""
    if isinstance(rows, tuple):
        def test(tmp_path):
            _refused(tmp_path, rows)
        return test

    @pytest.mark.parametrize("case", list(rows))
    def test(tmp_path, case):
        _refused(tmp_path, rows[case])
    return test


# each rule's rows are collected under that rule's test name
globals().update({name: _refusal_test(rows) for name, rows in REFUSALS.items()})


def test_grid_points_may_be_an_integral_float(tmp_path):
    code, _, _, (text, _) = run_cli(tmp_path, _with(grid=dict(GRID, points=3.0)), "curve")
    assert code == 0 and len(text.splitlines()) == 4


def test_a_loose_narrow_width_threshold_admits_a_wide_mode(tmp_path):
    assert run_cli(tmp_path, dict(NARROW, narrow_width_threshold=0.5), "curve")[0] == 0


def _strict_json(text):
    def refuse(token):
        raise ValueError("not valid JSON: %s" % token)
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command", ["window", "phi"])
def test_finite_window_knobs_are_read(tmp_path, command):
    config = _with(grid={"t_min": 0.5, "t_max": 25.0, "points": 40},
                   window={"xi_gate": 1e-2, "zeta_max": 8.0})
    code, _, _, (out, fit) = run_cli(tmp_path, config, command)
    assert code == 0
    assert _strict_json(fit if command == "phi" else out)["window"]["zeta_max"] == 8.0


def _curve(tmp_path, config, which):
    """The header and the rows of `curve --which <which>` on config."""
    code, _, _, (text, _) = run_cli(tmp_path, config, "curve --which " + which)
    assert code == 0
    header, *rows = [line.split(",") for line in text.splitlines()]
    return ",".join(header), rows


def test_log_grid_spacing(tmp_path):
    config = _with(grid={"t_min": 1.0, "t_max": 100.0, "points": 3, "spacing": "log"})
    assert [float(row[0]) for row in _curve(tmp_path, config, "rest")[1]] == [1.0, 10.0, 100.0]


def test_rest_curve_csv_contract(tmp_path):
    config = _with(p=0.0, grid={"t_min": 0.0, "t_max": 10.0, "points": 21})
    header, rows = _curve(tmp_path, config, "rest")
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
    config = _with(modes=dict(CURVE_B["modes"], Gamma=[gamma_1]),
                   grid={"t_min": 0.3, "t_max": 7.1, "points": 23})
    _, rows = _curve(tmp_path, config, which)
    t = np.linspace(0.3, 7.1, 23).tolist()
    assert [row[0] for row in rows] == [repr(x) for x in t]
    assert [row[1] for row in rows] == [repr(gamma_1 * x) for x in t]


def test_boosted_at_rest_matches_rest_columns(tmp_path):
    config = _with(p=0.0, grid={"t_min": 0.1, "t_max": 8.0, "points": 17})
    _, rrows = _curve(tmp_path, config, "rest")
    header, brows = _curve(tmp_path, config, "boosted")
    assert header == "t,gamma_t,value,valid"
    for rr, br in zip(rrows, brows):
        assert abs(float(br[2]) - float(rr[2])) <= 1e-12 * float(rr[2])


def test_split_curve_adds_up(tmp_path):
    config = _with(p=0.0, grid={"t_min": 0.0, "t_max": 10.0, "points": 26})
    header, rows = _curve(tmp_path, config, "split")
    assert header == "t,gamma_t,value,value_exp,value_osc"
    for row in rows:
        total, exp_part, osc_part = map(float, row[2:5])
        assert total == pytest.approx(exp_part + osc_part, abs=1e-15)


def test_boosted_validity_column(tmp_path):
    _, rows = _curve(tmp_path, _with(grid={"t_min": 2.0, "t_max": 11.0, "points": 19}), "boosted")
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


def test_repeated_main_calls_give_what_fresh_calls_give(tmp_path, capsys):
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

    fresh = [run(n, argv, "fresh") for n, argv in enumerate(sequence)]
    repeated = [run(n, argv, "repeated") for n, argv in enumerate(sequence)]
    assert [r[0] for r in fresh] == [0, 0, 0, 0, 0, 2, 0]
    assert fresh[1][1][0].startswith(b"t,gamma_t,value\n")
    assert fresh[3][2] == "validate: ok\n" and fresh[4][2] == ""
    assert fresh == repeated


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
    _, rows = _curve(tmp_path, _with(grid={"t_min": 0.02, "t_max": 0.3, "points": 15}), "boosted")
    t = np.linspace(0.02, 0.3, 15)
    assert [row[0] for row in rows] == [repr(float(ti)) for ti in t]
    assert [row[3] for row in rows] == ["true" if ti > 0.1 else "false" for ti in t]


def test_window_report_top_level_keys(tmp_path):
    code, _, _, (text, _) = run_cli(tmp_path, CURVE_B, "window")
    assert code == 0
    report = json.loads(text)
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


def test_validate_at_rest(tmp_path):
    # at p = 0 there is no boost to gate (window's refusal is a row of
    # REFUSALS)
    code, _, _, (text, _) = run_cli(tmp_path, _with(p=0.0), "validate")
    assert code == 2
    report = json.loads(text)
    assert report["window"] is None and report["constraints"] is None
    assert report["results"] == {
        "valid": False,
        "violations": ["exponential_windows requires gamma > 1"],
    }


def test_phi_requires_out(tmp_path, capsys):
    cfg = write_config(tmp_path, "phi0.json", {
        "grid": {"t_min": 0.5, "t_max": 20.0, "points": 40},
    })
    assert main(["phi", "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err == ("oscdecay: invalid config or model: phi writes a CSV plus "
                                       "a fit sidecar and needs --out\n")
    assert os.listdir(tmp_path) == ["phi0.json"]


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


def test_settings_reads_as_is_only_where_the_default_is_none_or_a_string():
    defaults = {"need": None, "kind": "linear", "count": 3, "flag": False}
    raw = {"need": [1], "kind": "log", "count": 4, "flag": True}
    assert cli._settings({"s": raw}, "s", defaults) == dict(raw, count=4.0)
    with pytest.raises(cli.ConfigError, match=r"config\['s'\]\['count'\] must be a number"):
        cli._settings({"s": dict(raw, count="4")}, "s", defaults)


def test_config_that_is_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"modes": ')
    assert main(["validate", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr() == ("", "oscdecay: invalid config or model: config %s is not "
                                   "valid JSON: Expecting value: line 1 column 11 (char 10)\n"
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


def test_seed_flag_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "seed.json", {"grid": {"t_min": 2.0, "t_max": 11.0, "points": 19}})
    out = tmp_path / "seed.csv"
    with pytest.raises(SystemExit) as info:
        main(["curve", "--config", cfg, "--out", str(out), "--seed", "7"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


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


def test_a_cold_phi_refuses_the_overshoot_as_main_does(tmp_path):
    # test_a_valid_config_the_closed_form_refuses_exits_2[phi] in a fresh
    # interpreter, on a valid mode set
    oscdecay.validate_modes(LARGE_P_OVER_M2["modes"])
    path = tmp_path / "large.json"
    path.write_text(json.dumps(LARGE_P_OVER_M2))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(oscdecay.__file__)))
    proc = subprocess.run([sys.executable, "-m", "oscdecay.cli", "phi", "--config", str(path),
                           "--out", str(tmp_path / "out"), "--quiet"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "oscdecay: invalid config or model: %s\n"
                                              % OVERSHOOT)
    assert os.listdir(tmp_path) == ["large.json"]


@pytest.mark.parametrize("config, command, warned", [
    (HUGE_P, "validate --quiet", []),
    (HUGE_P, "window --quiet", []),
    (TINY_T, "curve --which boosted --quiet", [TINY_T_WARNING]),
], ids=["huge_p-validate", "huge_p-window", "tiny_t-boosted"])
def test_overflowing_configs_that_run_are_pinned(tmp_path, config, command, warned):
    # the digest edges' commands that exit 0; the others are refusal rows
    code, err, caught, (text, _) = run_cli(tmp_path, config, command)
    assert (code, err, caught) == (0, "", warned) and text is not None
    if command.startswith("curve"):
        rows = [line.split(",") for line in text.splitlines()]
        assert rows[0] == ["t", "gamma_t", "value", "valid"]
        assert rows[1] == ["1e-300", "1e-300", "inf", "false"]
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
                # phi_p screens the boosted survival itself, NaN included:
                # no refusal reaches the inversion's target check
                assert "target probability" not in err, (config, err)
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
