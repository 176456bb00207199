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
import json
import math
import sys

import numpy as np

from . import __version__
# survival_boosted is unused here but stays bound: perfbench/spans.py
# traces calls through this module attribute
from .boost import BoostDomainError, BoostedLaw, survival_boosted  # noqa: F401
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


class ConfigError(ValueError):
    """The config file is structurally or physically unusable."""


def _fmt(value) -> str:
    # shortest decimal that round-trips; repr of a python float is exactly that
    return repr(float(value))


def _py(obj):
    """Plain-python mirror of obj for json emission."""
    if isinstance(obj, dict):
        return {str(k): _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _non_finite(obj, path="config"):
    """Path of the first NaN or infinite number in obj, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    children = (obj.items() if isinstance(obj, dict)
                else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in children:
        found = _non_finite(value, "%s[%r]" % (path, key))
        if found:
            return found
    return None


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
    kwargs = {}
    if "narrow_width_threshold" in config:
        kwargs["narrow_width_threshold"] = float(config["narrow_width_threshold"])
    return validate_modes(config["modes"], **kwargs)


def _momentum(config) -> float:
    p = float(config.get("p", 0.0))
    if p < 0.0 or not math.isfinite(p):
        raise ConfigError("momentum p must be finite and >= 0, got %r" % p)
    return p


def _grid(config):
    if "grid" not in config:
        raise ConfigError("config lacks the 'grid' section")
    grid = config["grid"]
    try:
        t_min = float(grid["t_min"])
        t_max = float(grid["t_max"])
        points = int(grid["points"])
    except KeyError as exc:
        raise ConfigError("grid lacks key %s" % exc)
    spacing = grid.get("spacing", "linear")
    if points < 2:
        raise ConfigError("grid needs at least 2 points, got %d" % points)
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or t_min >= t_max:
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


def _window_params(config) -> WindowParams:
    raw = _section(config, "window")
    try:
        return WindowParams(**{k: float(v) for k, v in raw.items()})
    except TypeError as exc:
        raise ConfigError("bad window parameters: %s" % exc)


def _quad_spec(config) -> QuadratureSpec:
    raw = _section(config, "oracle")
    try:
        return QuadratureSpec(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad oracle parameters: %s" % exc)


def _bound(config) -> float:
    bound = float(_section(config, "compare").get("max_rel_deviation", 1e-2))
    if not (math.isfinite(bound) and bound > 0.0):
        raise ConfigError("compare.max_rel_deviation must be finite and > 0, got %r" % bound)
    return bound


def _emit_text(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w") as fh:
        fh.write(text)


def _emit_json(report, out_path):
    _emit_text(json.dumps(_py(report), indent=2) + "\n", out_path)


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


def _checks_json(checks):
    return [
        {"name": c.name, "value": c.value, "status": c.status, "detail": c.detail}
        for c in checks
    ]


def _report_skeleton(config):
    return {
        "params": config,
        "window": None,
        "constraints": None,
        "results": {},
        "tool_version": __version__,
    }


def cmd_validate(config, args):
    report = _report_skeleton(config)
    violations = []
    try:
        modes = _build_modes(config)
    except ModeValidationError as exc:
        violations = list(exc.violations)
        report["results"] = {"valid": False, "violations": violations}
        _emit_json(report, args.out)
        return EXIT_INVALID

    p = _momentum(config)
    ctx = shifted_kinematics(modes, p)
    try:
        window = exponential_windows(modes, ctx, _window_params(config))
        checks = constraint_report(modes, ctx, window)
    except WindowError as exc:
        report["results"] = {"valid": False, "violations": [str(exc)]}
        _emit_json(report, args.out)
        return EXIT_INVALID

    report["window"] = _window_json(window)
    report["constraints"] = _checks_json(checks)
    ok = bool(window.admitted) and all(c.status == "pass" for c in checks)
    report["results"] = {"valid": ok, "violations": violations}
    _emit_json(report, args.out)
    _note(args, "validate: %s" % ("ok" if ok else "constraint failures"))
    return EXIT_OK if ok else EXIT_INVALID


def _csv_text(header, rows):
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_curve(config, args):
    modes = _build_modes(config)
    p = _momentum(config)
    t = _grid(config)
    gamma1 = float(modes.Gamma[0])
    which = args.which

    if which == "rest":
        values = np.atleast_1d(survival_rest(modes, t))
        header = "t,gamma_t,value"
        rows = [(_fmt(ti), _fmt(gamma1 * ti), _fmt(vi)) for ti, vi in zip(t, values)]
    elif which == "rate":
        values = np.atleast_1d(decay_rate_rest(modes, t))
        header = "t,gamma_t,value"
        rows = [(_fmt(ti), _fmt(gamma1 * ti), _fmt(vi)) for ti, vi in zip(t, values)]
    elif which == "split":
        exp_part, osc_part = survival_rest_split(modes, t)
        exp_part = np.atleast_1d(exp_part)
        osc_part = np.atleast_1d(osc_part)
        header = "t,gamma_t,value,value_exp,value_osc"
        rows = [
            (_fmt(ti), _fmt(gamma1 * ti), _fmt(ei + oi), _fmt(ei), _fmt(oi))
            for ti, ei, oi in zip(t, exp_part, osc_part)
        ]
    elif which == "boosted":
        ev = BoostedLaw(modes, shifted_kinematics(modes, p))(t)
        header = "t,gamma_t,value,valid"
        rows = [
            (_fmt(ti), _fmt(gamma1 * ti), _fmt(pv), "true" if valid else "false")
            for ti, pv, valid in zip(ev.t, ev.P_p, ev.in_validity_domain)
        ]
    else:
        raise ConfigError("unknown curve kind %r" % which)

    _emit_text(_csv_text(header, rows), args.out)
    _note(args, "curve %s: %d rows" % (which, len(rows)))
    return EXIT_OK


def cmd_window(config, args):
    modes = _build_modes(config)
    p = _momentum(config)
    ctx = shifted_kinematics(modes, p)
    window = exponential_windows(modes, ctx, _window_params(config))
    checks = constraint_report(modes, ctx, window)

    report = _report_skeleton(config)
    report["window"] = _window_json(window)
    report["constraints"] = _checks_json(checks)
    if window.admitted:
        try:
            per = periods(modes, ctx, window=window)
            report["results"]["periods"] = {
                "T0": per.T0,
                "Tp": per.Tp,
                "commensurate": per.commensurate,
                "omega_max": per.omega_max,
                "k_values": list(per.k_values) if per.k_values is not None else None,
            }
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
    rows = [
        (_fmt(ti), _fmt(vi), _fmt(ri), _fmt(vi - ri))
        for ti, vi, ri in zip(t, values, reference)
    ]
    _emit_text(_csv_text("t,phi_p,t_over_gamma,residual", rows), args.out)

    fit_report = _report_skeleton(config)
    try:
        window = exponential_windows(modes, ctx, params)
        fit_report["window"] = _window_json(window)
        series = CurveSeries(t=t, values=values, frame="boosted", kind="timemap")
        fit = linearity_fit(series, window, ctx)
        fit_report["results"]["fit"] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "max_residual": fit.max_residual,
            "interval": list(fit.interval),
            "expected_slope": fit.expected_slope,
            "rel_slope_error": fit.rel_slope_error,
            "n_points": fit.n_points,
        }
    except (WindowError, TimeMapError) as exc:
        fit_report["results"]["fit_error"] = str(exc)
    _emit_json(fit_report, args.out + ".fit.json")
    _note(args, "phi: %d rows, fit sidecar written" % len(rows))
    return EXIT_OK


def cmd_compare(config, args):
    modes = _build_modes(config)
    p = _momentum(config)
    ctx = shifted_kinematics(modes, p)
    t = _grid(config)
    spec = _quad_spec(config)
    bound = _bound(config)

    closed_vals = BoostedLaw(modes, ctx)(t).P_p
    direct_vals = direct_survival(modes, p, t, spec)
    closed = CurveSeries(t=t, values=closed_vals, frame="boosted", kind="probability",
                         label="closed-form")
    direct = CurveSeries(t=t, values=direct_vals, frame="boosted", kind="probability",
                         label="direct-quadrature")
    rep = oracle_compare(closed, direct)

    within = rep.max_rel_deviation <= bound
    report = _report_skeleton(config)
    report["results"] = {
        "interval": list(rep.interval),
        "n_points": rep.n_points,
        "max_abs_deviation": rep.max_abs_deviation,
        "max_rel_deviation": rep.max_rel_deviation,
        "t_at_max_abs": rep.t_at_max_abs,
        "t_at_max_rel": rep.t_at_max_rel,
        "bound": bound,
        "within_bound": within,
    }
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


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="oscdecay",
        description="Decay laws of moving unstable systems with oscillating modes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run config")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="accepted for interface stability; does nothing")
    common.add_argument("--seed", type=int, default=None,
                        help="reserved; accepted for interface stability")
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
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
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
    except (ConfigError, ModeValidationError, WindowError, BoostDomainError,
            TimeMapError, ValueError, KeyError, TypeError) as exc:
        print("oscdecay: invalid config or model: %s" % exc, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
