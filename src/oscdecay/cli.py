"""Command-line surface: validate, curve, window, phi, compare.

One JSON config describes the mode set, the boost momentum, the time
grid and the optional window/oracle parameters. Outputs are CSV (curves,
time maps) or JSON reports with the stable top-level keys params,
window, constraints, results, tool_version. All floats are printed as
the shortest decimal that round-trips, so identical configs produce
byte-identical files.

Exit codes: 0 ok; 1 comparison bound exceeded; 2 invalid config or
model; 3 I/O failure; 4 oracle non-convergence.
"""

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
# survival_boosted is unused here but stays bound: perfbench/spans.py
# traces calls through this module attribute
from .boost import BoostedLaw, survival_boosted  # noqa: F401
from .kinematics import ModeValidationError, shifted_kinematics, validate_modes
from .oracle import OracleConvergenceError, QuadratureSpec, direct_survival, oracle_compare
from .restframe import CurveSeries, decay_rate_rest, survival_rest, survival_rest_split
from .timemap import TimeMapError, linearity_fit, phi_p
from .window import WindowError, WindowParams, constraint_report, exponential_windows, periods

__all__ = ["main"]

EXIT_OK = 0
EXIT_BOUND = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_ORACLE = 4

# largest grid accepted; a 4-mode `curve --which split` needs ~0.55 KB per point
MAX_GRID_POINTS = 10**6


class ConfigError(ValueError):
    """The config file is structurally or physically unusable."""


def _json_default(obj):
    """Plain-python value of a numpy object json cannot encode itself; np.float64
    is a float subclass and is printed by float.__repr__ without this hook."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


def _non_finite(obj, path="config"):
    """Path of the first NaN or infinite number in obj (a dict or a list), or None."""
    children = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in children:
        # a child's path is spelled out only when it is needed
        if isinstance(value, float):
            if not math.isfinite(value):
                return "%s[%r]" % (path, key)
        elif isinstance(value, (dict, list)):
            found = _non_finite(value, "%s[%r]" % (path, key))
            if found:
                return found
    return None


def _number(value, path, index=None):
    """value, if it is a JSON number a double can hold (an int or a float, not
    a bool), else a ConfigError that names its path, path[index] if indexed."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or abs(value) > sys.float_info.max):
        if index is not None:
            path = "%s[%d]" % (path, index)
        raise ConfigError("%s must be a number, got %r" % (path, value))
    return value


def _load_config(path):
    with open(path, "r") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    # reports echo every section, and strict JSON has no NaN or Infinity
    where = _non_finite(config)
    if where:
        raise ConfigError("%s is not a finite number" % where)
    return config


def _build_modes(config):
    if "modes" not in config:
        raise ConfigError("config lacks the 'modes' section")
    raw = config["modes"]
    if isinstance(raw, dict):
        for key in ("M", "w", "Gamma", "Omega", "a"):
            path = "config['modes'][%r]" % key
            values = raw.get(key, [])
            if isinstance(values, list):
                for i, value in enumerate(values):
                    _number(value, path, i)
            else:
                _number(values, path)
    kwargs = {}
    if "narrow_width_threshold" in config:
        kwargs["narrow_width_threshold"] = float(
            _number(config["narrow_width_threshold"], "config['narrow_width_threshold']"))
    return validate_modes(raw, **kwargs)


def _momentum(config) -> float:
    p = float(_number(config.get("p", 0.0), "config['p']"))
    if p < 0.0:
        raise ConfigError("momentum p must be finite and >= 0, got %r" % p)
    return p


def _grid(config):
    if "grid" not in config:
        raise ConfigError("config lacks the 'grid' section")
    grid = config["grid"]
    try:
        t_min = float(_number(grid["t_min"], "config['grid']['t_min']"))
        t_max = float(_number(grid["t_max"], "config['grid']['t_max']"))
        points = grid["points"]
    except KeyError as exc:
        raise ConfigError("grid lacks key %s" % exc)
    spacing = grid.get("spacing", "linear")
    # 3.0 is an integer, 40.7 and "40" are not
    if not (isinstance(points, (int, float)) and points == int(points) >= 2):
        raise ConfigError("grid points must be an integer >= 2, got %r" % (points,))
    if points > MAX_GRID_POINTS:
        raise ConfigError("grid points must be at most %d, got %r" % (MAX_GRID_POINTS, points))
    points = int(points)
    if t_min >= t_max:
        raise ConfigError("grid needs t_min < t_max, got %r, %r" % (t_min, t_max))
    if spacing == "linear":
        return np.linspace(t_min, t_max, points)
    if spacing == "log":
        if t_min <= 0.0:
            raise ConfigError("log spacing needs t_min > 0, got %r" % t_min)
        return np.geomspace(t_min, t_max, points)
    raise ConfigError("grid spacing must be 'linear' or 'log', got %r" % spacing)


def _section(config, name) -> dict:
    raw = config.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError("'%s' section must be an object" % name)
    return raw


def _settings_only(raw, name, cls, what):
    """A ConfigError naming the first key of section name that is not a field of cls."""
    known = {f.name for f in fields(cls)}
    for key in raw:
        if key not in known:
            raise ConfigError("config[%r][%r] is not %s" % (name, key, what))


def _window_params(config) -> WindowParams:
    raw = _section(config, "window")
    _settings_only(raw, "window", WindowParams, "a window setting")
    return WindowParams(**{k: float(_number(v, "config['window'][%r]" % k))
                           for k, v in raw.items()})


def _quad_spec(config) -> QuadratureSpec:
    raw = _section(config, "oracle")
    _settings_only(raw, "oracle", QuadratureSpec, "an oracle setting")
    for key, value in raw.items():
        path = "config['oracle'][%r]" % key
        if key == "include_negative_mass":
            if not isinstance(value, bool):
                raise ConfigError("%s must be true or false, got %r" % (path, value))
        elif key in ("abs_tol", "rel_tol"):
            _number(value, path)
    try:
        return QuadratureSpec(**raw)
    except ValueError as exc:
        raise ConfigError("bad oracle parameters: %s" % exc)


def _bound(config) -> float:
    bound = float(_number(_section(config, "compare").get("max_rel_deviation", 1e-2),
                          "config['compare']['max_rel_deviation']"))
    if bound <= 0.0:
        raise ConfigError("compare.max_rel_deviation must be finite and > 0, got %r" % bound)
    return bound


def _emit_text(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w") as fh:
        fh.write(text)


def _emit_json(report, out_path):
    _emit_text(json.dumps(report, indent=2, default=_json_default) + "\n", out_path)


def _note(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def _window_json(window):
    return {
        "zeta_min": window.params.zeta_min,
        "zeta_max": window.params.zeta_max,
        "xi_gate": window.params.xi_gate,
        "gamma": window.gamma,
        "xi_values": list(window.xi_values),
        "admitted": list(window.admitted),
        "excluded": [{"mode": j, "xi": xi} for j, xi in window.excluded],
        "intervals_lab": [list(iv) for iv in window.intervals_lab],
        "intervals_rest": [list(iv) for iv in window.intervals_rest],
        "union_lab": [list(iv) for iv in window.union_lab],
        "union_rest": [list(iv) for iv in window.union_rest],
        "merged": window.merged,
    }


def _report_skeleton(config):
    return {
        "params": config,
        "window": None,
        "constraints": None,
        "results": {},
        "tool_version": __version__,
    }


def _window_report(config, modes):
    """The report with its window and constraints sections, the boost context
    and the window, read from the config's p and window section."""
    ctx = shifted_kinematics(modes, _momentum(config))
    window = exponential_windows(modes, ctx, _window_params(config))
    checks = constraint_report(modes, ctx, window)
    report = _report_skeleton(config)
    report["window"] = _window_json(window)
    report["constraints"] = [asdict(c) for c in checks]
    return report, ctx, window


def cmd_validate(config, args):
    try:
        report, _, window = _window_report(config, _build_modes(config))
    except ModeValidationError as exc:
        violations = exc.violations
    except WindowError as exc:
        violations = [str(exc)]
    else:
        ok = bool(window.admitted) and all(c["status"] == "pass" for c in report["constraints"])
        report["results"] = {"valid": ok, "violations": []}
        _emit_json(report, args.out)
        _note(args, "validate: %s" % ("ok" if ok else "constraint failures"))
        return EXIT_OK if ok else EXIT_INVALID
    report = _report_skeleton(config)
    report["results"] = {"valid": False, "violations": violations}
    _emit_json(report, args.out)
    return EXIT_INVALID


def _csv_text(header, *columns):
    """CSV text of equal-length columns. A bool column reads true/false; every
    other cell is the repr of its double, the shortest decimal that round-trips.

    Each distinct float column is formatted once: a column whose doubles
    equal an earlier one's bit for bit (gamma_t beside t when Gamma_1 = 1)
    reads that column's cells. Bits, not ==, so -0.0 never shares with 0.0.
    """
    cells = []
    formatted = []  # (bits, index into cells) of each float column formatted
    for col in map(np.asarray, columns):
        if col.dtype == bool:
            cells.append(np.where(col, "true", "false").tolist())
            continue
        col = col.astype(float, copy=False)
        # compared in place, up to the first cell that differs
        bits = memoryview(col.view(np.uint64))
        same = next((i for seen, i in formatted if seen == bits), None)
        if same is None:
            formatted.append((bits, len(cells)))
            cells.append(map(repr, col.tolist()))
        else:
            # zip reads the two copies in step, so tee buffers one cell at most
            cells[same], twin = itertools.tee(cells[same])
            cells.append(twin)
    lines = [header]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def cmd_curve(config, args):
    modes = _build_modes(config)
    p = _momentum(config)
    t = _grid(config)
    gamma_t = float(modes.Gamma[0]) * t
    which = args.which

    if which == "rest":
        text = _csv_text("t,gamma_t,value", t, gamma_t, survival_rest(modes, t))
    elif which == "rate":
        text = _csv_text("t,gamma_t,value", t, gamma_t, decay_rate_rest(modes, t))
    elif which == "split":
        exp_part, osc_part = survival_rest_split(modes, t)
        text = _csv_text("t,gamma_t,value,value_exp,value_osc", t, gamma_t,
                         exp_part + osc_part, exp_part, osc_part)
    elif which == "boosted":
        ev = BoostedLaw(modes, shifted_kinematics(modes, p))(t)
        text = _csv_text("t,gamma_t,value,valid", t, gamma_t, ev.P_p, ev.in_validity_domain)
    else:
        raise ConfigError("unknown curve kind %r" % which)

    _emit_text(text, args.out)
    _note(args, "curve %s: %d rows" % (which, len(t)))
    return EXIT_OK


def cmd_window(config, args):
    modes = _build_modes(config)
    report, ctx, window = _window_report(config, modes)
    if window.admitted:
        try:
            report["results"]["periods"] = asdict(periods(modes, ctx, window=window))
        except WindowError as exc:
            report["results"]["periods"] = {"unavailable": str(exc)}
    else:
        report["results"]["periods"] = {"unavailable": "no admitted modes"}
    _emit_json(report, args.out)
    _note(args, "window: %d admitted, merged=%s" % (len(window.admitted), window.merged))
    return EXIT_OK


def cmd_phi(config, args):
    if args.out is None:
        raise ConfigError("phi writes a CSV plus a fit sidecar and needs --out")
    modes = _build_modes(config)
    p = _momentum(config)
    ctx = shifted_kinematics(modes, p)
    t = _grid(config)
    params = _window_params(config)

    values = phi_p(modes, ctx, t)
    reference = t / ctx.gamma
    _emit_text(_csv_text("t,phi_p,t_over_gamma,residual", t, values, reference,
                         values - reference), args.out)

    fit_report = _report_skeleton(config)
    try:
        window = exponential_windows(modes, ctx, params)
        fit_report["window"] = _window_json(window)
        series = CurveSeries(t=t, values=values, kind="timemap")
        fit_report["results"]["fit"] = asdict(linearity_fit(series, window, ctx))
    except (WindowError, TimeMapError) as exc:
        fit_report["results"]["fit_error"] = str(exc)
    _emit_json(fit_report, args.out + ".fit.json")
    _note(args, "phi: %d rows, fit sidecar written" % len(t))
    return EXIT_OK


def cmd_compare(config, args):
    modes = _build_modes(config)
    p = _momentum(config)
    ctx = shifted_kinematics(modes, p)
    t = _grid(config)
    spec = _quad_spec(config)
    bound = _bound(config)

    # the closed form may leave [0, 1] outside its domain; the oracle may not
    closed_vals = BoostedLaw(modes, ctx)(t).P_p
    direct = CurveSeries(t=t, values=direct_survival(modes, p, t, spec), kind="probability")
    rep = oracle_compare(closed_vals, direct)

    within = rep.max_rel_deviation <= bound
    report = _report_skeleton(config)
    report["results"] = dict(asdict(rep), bound=bound, within_bound=within)
    _emit_json(report, args.out)
    _note(args, "compare: max rel deviation %g (bound %g)" % (rep.max_rel_deviation, bound))
    return EXIT_OK if within else EXIT_BOUND


_COMMANDS = {
    "validate": cmd_validate,
    "curve": cmd_curve,
    "window": cmd_window,
    "phi": cmd_phi,
    "compare": cmd_compare,
}


@functools.lru_cache(maxsize=None)
def _parser():
    """The argument parser, built on first use and reused by every later call."""
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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command](config, args)
    except OSError as exc:
        print("oscdecay: i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except OracleConvergenceError as exc:
        print("oscdecay: oracle did not converge: %s (value=%r, error=%r)"
              % (exc, exc.value, exc.error_estimate), file=sys.stderr)
        return EXIT_ORACLE
    except (ValueError, KeyError, TypeError) as exc:
        print("oscdecay: invalid config or model: %s" % exc, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
