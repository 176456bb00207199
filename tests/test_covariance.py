"""Exact unit covariance of every command.

The law has one mass scale. Multiplying M, every Gamma_j and Omega_j, and
p by lam, and dividing the times by lam, leaves every probability and every
other dimensionless output as it is, divides every time by lam and
multiplies every mass and rate by lam. For lam a power of 4 (so that lam^2
has an exact square root) every floating-point step scales exactly, so the
relation holds bit for bit: the check needs no tolerance and no oracle.

Each config runs through cli.main (conftest.run_cli) as given and at
lam = 4^3 and 4^-3, on linear grids only (np.geomspace does not scale
exactly). A constant written in absolute units where a relative one
belongs (a tolerance, a seam, a time cap) breaks the relation on the
configs that reach it.
"""

import json
import math
import os
import re
import sys

import pytest

from oscdecay import boost, timemap

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import configs  # noqa: E402
from conftest import run_cli  # noqa: E402

# every output field and config key that carries a unit, by its name: a
# time divides by lam, a mass or a rate multiplies by lam, and every other
# number stays as it is
TIME_FIELDS = frozenset({
    "t", "t_min", "t_max",                                # grid, CSV columns
    "phi_p", "t_over_gamma", "residual",                  # phi CSV
    "intervals_lab", "intervals_rest", "union_lab", "union_rest",  # window
    "intercept", "max_residual", "interval",              # phi fit, compare
    "T0", "Tp",                                           # periods
    "t_at_max_abs", "t_at_max_rel",                       # compare
})
MASS_FIELDS = frozenset({"M", "Gamma", "Omega", "p", "omega_max"})
# (command, CSV column) pairs that hold a rate
RATE_COLUMNS = frozenset({("rate", "value")})

COMMANDS = {
    "validate": "validate",
    "window": "window",
    "rest": "curve --which rest",
    "rate": "curve --which rate",
    "split": "curve --which split",
    "boosted": "curve --which boosted",
    "phi": "phi",
    "compare": "compare",
}

CURVE_B = {"modes": {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]},
           "p": 200.0, "grid": {"t_min": 2.0, "t_max": 11.0, "points": 19}}
THREE_MODES = dict(CURVE_B, modes={"M": 80.0, "w": [1 / 3, 1 / 3, 1 / 3],
                                   "Gamma": [1.0, 1.5, 2.0], "Omega": [10.0, 5.0, 2.5],
                                   "a": [0.04, 0.04, 0.04]})


def _grid(t_min, t_max, points):
    return {"t_min": t_min, "t_max": t_max, "points": points}


CLI_COLD = configs.WORKLOADS["cli_cold"]
CONFIGS = {
    "curve_b_p200": CURVE_B,
    "curve_b_p40": dict(CURVE_B, p=40.0),
    "three_modes_p200": THREE_MODES,
    "three_modes_p40": dict(THREE_MODES, p=40.0),
    **{"cli_cold_%d" % i: config
       for i, config in enumerate(configs.generate(CLI_COLD, CLI_COLD.master_seed))},
    # the validity domain starts inside the grid: t > 1/(10 Gamma_1) at 0.1,
    # (M - Omega_max) t >= 10 at 0.143; phi refuses an overshoot, naming a time
    "validity_start": dict(CURVE_B, grid=_grid(0.01, 0.3, 30)),
    # either side of the rest seam p = 1e-12 M
    "above_rest_seam": dict(CURVE_B, p=1.5e-12 * 80.0, grid=_grid(0.5, 20.0, 21)),
    "below_rest_seam": dict(CURVE_B, p=0.5e-12 * 80.0, grid=_grid(0.5, 20.0, 21)),
    # t / gamma passes the time map's tail cap, 1e4 / Gamma_1, where its
    # Newton starts are clipped
    "tail_cap": dict(CURVE_B, grid=_grid(1.0, 5e4, 21)),
    # a grid wider than the oracle's 160 doubling panels: compare exits 4
    "panel_limit": dict(CURVE_B, grid=_grid(1e-10, 1e40, 3)),
}

LAMBDAS = [4.0 ** 3, 4.0 ** -3]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\binf\b|\bnan\b)")


def _scaled(config, lam):
    """config with every mass and the momentum times lam and every time over lam."""
    out = json.loads(json.dumps(config))
    modes = out["modes"]
    modes["M"] *= lam
    modes["Gamma"] = [g * lam for g in modes["Gamma"]]
    modes["Omega"] = [o * lam for o in modes["Omega"]]
    out["p"] *= lam
    out["grid"]["t_min"] /= lam
    out["grid"]["t_max"] /= lam
    return out


def _same_number(base, got, factor):
    if math.isnan(base):
        return math.isnan(got)
    return got == base * factor


def _message_agrees(base, got, lam):
    # a message keeps its words; each number in it is either unchanged, a
    # time (over lam) or a mass or rate (times lam)
    words = NUMBER.split(base), NUMBER.split(got)
    if words[0] != words[1]:
        return False
    return all(any(_same_number(float(b), float(g), f) for f in (1.0, 1.0 / lam, lam))
               for b, g in zip(NUMBER.findall(base), NUMBER.findall(got)))


def _factor(command, key, lam):
    if key in TIME_FIELDS:
        return 1.0 / lam
    if key in MASS_FIELDS or (command, key) in RATE_COLUMNS:
        return lam
    return 1.0


def _mismatches(command, base, got, lam, key=None, where="$"):
    """Where the JSON value got differs from base under the unit of its field."""
    if isinstance(base, dict):
        if not isinstance(got, dict) or list(base) != list(got):
            return [where]
        return [m for k in base
                for m in _mismatches(command, base[k], got[k], lam, k, "%s.%s" % (where, k))]
    if isinstance(base, list):
        if not isinstance(got, list) or len(base) != len(got):
            return [where]
        return [m for i, (b, g) in enumerate(zip(base, got))
                for m in _mismatches(command, b, g, lam, key, "%s[%d]" % (where, i))]
    if isinstance(base, str):
        return [] if isinstance(got, str) and _message_agrees(base, got, lam) else [where]
    if isinstance(base, bool) or base is None or isinstance(base, int):
        return [] if got == base and type(got) is type(base) else [where]
    ok = isinstance(got, float) and _same_number(base, got, _factor(command, key, lam))
    return [] if ok else [where]


def _csv_mismatches(command, base, got, lam):
    rows = [line.split(",") for line in base.splitlines()]
    rows_got = [line.split(",") for line in got.splitlines()]
    if rows[0] != rows_got[0] or len(rows) != len(rows_got):
        return ["header or row count"]
    out = []
    for r, (row, row_got) in enumerate(zip(rows[1:], rows_got[1:]), 1):
        for column, b, g in zip(rows[0], row, row_got):
            if b in ("true", "false"):
                ok = g == b
            else:
                ok = _same_number(float(b), float(g), _factor(command, column, lam))
            if not ok:
                out.append("row %d %s: %s -> %s" % (r, column, b, g))
    return out


@pytest.mark.parametrize("lam", LAMBDAS, ids=["4^3", "4^-3"])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_every_command_is_exactly_unit_covariant(tmp_path, name, lam):
    config = CONFIGS[name]
    scaled = _scaled(config, lam)
    for command, args in COMMANDS.items():
        code, stderr, caught, texts = run_cli(tmp_path, config, args)
        code_s, stderr_s, caught_s, texts_s = run_cli(tmp_path, scaled, args)
        assert code_s == code, (command, stderr, stderr_s)
        assert _message_agrees(stderr, stderr_s, lam), (command, stderr, stderr_s)
        assert caught_s == caught, command
        for text, text_s in zip(texts, texts_s):
            assert (text is None) == (text_s is None), command
            if text is None:
                continue
            if text.startswith("{"):
                diff = _mismatches(command, json.loads(text), json.loads(text_s), lam)
            else:
                diff = _csv_mismatches(command, text, text_s, lam)
            assert diff == [], (command, diff[:5])


def test_the_edge_configs_reach_their_edges(tmp_path):
    # each edge config takes the path it is named for
    code, _, _, (curve, _) = run_cli(tmp_path, CONFIGS["validity_start"], COMMANDS["boosted"])
    assert code == 0
    assert {row.split(",")[3] for row in curve.splitlines()[1:]} == {"true", "false"}
    code, stderr, _, _ = run_cli(tmp_path, CONFIGS["validity_start"], COMMANDS["phi"])
    assert code == 2 and "at t=" in stderr
    code, stderr, _, _ = run_cli(tmp_path, CONFIGS["panel_limit"], COMMANDS["compare"])
    assert code == 4 and "doubling panels of the path, over 160" in stderr
    assert CONFIGS["below_rest_seam"]["p"] < boost.P_ZERO_REL * 80.0 \
        < CONFIGS["above_rest_seam"]["p"]
    gamma = math.hypot(1.0, CURVE_B["p"] / 80.0)
    assert CONFIGS["tail_cap"]["grid"]["t_max"] / gamma > timemap.TAIL_CAP_OVER_GAMMA1
