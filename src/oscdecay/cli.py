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

import atexit
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__
from .kinematics import ModeValidationError, RestModeSet, shifted_kinematics, validate_modes

# this module, also when it runs as __main__: a bare global would not reach
# __getattr__, and a wrapper set on the module is what a read through it calls
_cli = sys.modules[__name__]
_package = sys.modules[__package__]


def __getattr__(name):
    """A public name of the package, read through it (which imports only its
    home module) and bound here, so that every later read is a plain
    attribute hit and a command loads only the modules it runs."""
    if name not in _package.__all__:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(_package, name)
    return value


EXIT_OK = 0
EXIT_BOUND = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_ORACLE = 4

# largest grid accepted; a 4-mode `curve --which split` needs ~0.55 KB per point
MAX_GRID_POINTS = 10**6

# rows from which _csv_text formats whole columns with _shortest. In one
# process the kernel wins from about 200 rows; a fresh process also pays its
# import once (3-6 ms), which the saving of 2-3 us a row covers from about
# 1200-2000 rows
SHORTEST_MIN_ROWS = 1000


class ConfigError(ValueError):
    """The config file is structurally or physically unusable."""


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


def _number(value, *keys):
    """value, if it is a JSON number a double can hold (an int or a float, not
    a bool), else a ConfigError naming its path, config[keys[0]][keys[1]]..."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or abs(value) > sys.float_info.max):
        raise ConfigError("config%s must be a number, got %r"
                          % ("".join("[%r]" % key for key in keys), value))
    return value


def _load_config(path):
    with open(path, "r") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    for key in config:
        if key not in ("modes", "p", "grid", "window", "oracle", "compare",
                       "narrow_width_threshold"):
            raise ConfigError("config[%r] is not a section or setting" % key)
    # reports echo every section, and strict JSON has no NaN or Infinity
    where = _non_finite(config)
    if where:
        raise ConfigError("%s is not a finite number" % where)
    return config


def _settings(config, name, defaults) -> dict:
    """Section name of config over its defaults, a dict of every key the
    section may set. A key whose default is None is required, and so is the
    section then; one whose default is None or a str is read as it is, one
    whose default is a bool takes true or false, and any other a JSON
    number, read as a float. A key not in defaults is a ConfigError."""
    if name not in config and None in defaults.values():
        raise ConfigError("config lacks the %r section" % name)
    raw = config.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError("'%s' section must be an object" % name)
    for key in raw:
        if key not in defaults:
            raise ConfigError("config[%r][%r] is not %s %s setting"
                              % (name, key, "an" if name[0] in "aeiou" else "a", name))
    settings = dict(defaults)
    for key, default in defaults.items():
        if key not in raw:
            if default is None:
                raise ConfigError("%s lacks key %r" % (name, key))
            continue
        value = raw[key]
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError("config[%r][%r] must be true or false, got %r"
                                  % (name, key, value))
        elif not isinstance(default, (str, type(None))):
            value = float(_number(value, name, key))
        settings[key] = value
    return settings


def _build_modes(config):
    fields = _settings(config, "modes", dict.fromkeys(RestModeSet._fields))
    for key, values in fields.items():
        if isinstance(values, list):
            for i, value in enumerate(values):
                _number(value, "modes", key, i)
        else:
            _number(values, "modes", key)
    kwargs = {}
    if "narrow_width_threshold" in config:
        kwargs["narrow_width_threshold"] = float(
            _number(config["narrow_width_threshold"], "narrow_width_threshold"))
    return validate_modes(fields, **kwargs)


def _grid(config):
    import numpy as np

    grid = _settings(config, "grid",
                     {"t_min": None, "t_max": None, "points": None, "spacing": "linear"})
    t_min = float(_number(grid["t_min"], "grid", "t_min"))
    t_max = float(_number(grid["t_max"], "grid", "t_max"))
    points, spacing = grid["points"], grid["spacing"]
    # 3.0 is an integer, 40.7 and "40" are not
    if not (isinstance(points, (int, float)) and points == int(points) >= 2):
        raise ConfigError("grid points must be an integer >= 2, got %r" % (points,))
    if points > MAX_GRID_POINTS:
        raise ConfigError("grid points must be at most %d, got %r" % (MAX_GRID_POINTS, points))
    points = int(points)
    if t_min >= t_max:
        raise ConfigError("grid needs t_min < t_max, got %r, %r" % (t_min, t_max))
    if spacing == "linear":
        t = np.linspace(t_min, t_max, points)
    elif spacing == "log":
        if t_min <= 0.0:
            raise ConfigError("log spacing needs t_min > 0, got %r" % t_min)
        t = np.geomspace(t_min, t_max, points)
    else:
        raise ConfigError("grid spacing must be 'linear' or 'log', got %r" % spacing)
    # a range a few ulp wide repeats times; every command refuses it alike
    if not np.all(t[1:] > t[:-1]):
        raise ConfigError("t must increase strictly")
    return t


def _context(config, modes):
    """The boost context of modes at the config's momentum p (default 0)."""
    return shifted_kinematics(modes, _number(config.get("p", 0.0), "p"))


def _law_inputs(config):
    """The mode set, its boost context and the time grid of config, read in this order."""
    modes = _build_modes(config)
    return modes, _context(config, modes), _grid(config)


def _window_params(config):
    return _cli.WindowParams(**_settings(config, "window", _cli.WindowParams._field_defaults))


def _quad_spec(config):
    settings = _settings(config, "oracle", _cli.QuadratureSpec._field_defaults)
    try:
        return _cli.QuadratureSpec(**settings)
    except ValueError as exc:
        raise ConfigError("bad oracle parameters: %s" % exc)


def _bound(config) -> float:
    bound = _settings(config, "compare", {"max_rel_deviation": 1e-2})["max_rel_deviation"]
    if bound <= 0.0:
        raise ConfigError("compare.max_rel_deviation must be finite and > 0, got %r" % bound)
    return bound


def _emit_text(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w") as fh:
        fh.write(text)


# json writes the three non-finite doubles as JavaScript spells them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, indent):
    """JSON text of obj, byte for byte what json.dumps(obj, indent=2) writes
    at the nesting whose line break and indentation is indent ("\n" at the
    top), and a record (a named tuple) as the object of its _fields. obj
    holds only what reports hold: str, None, bool, int and float leaves in
    lists, tuples, dicts with str keys and records; anything else is a
    TypeError.
    json's C encoder cannot indent, so json.dumps(indent=2) runs its
    pure-Python encoder, a generator per container; this writer joins
    strings instead."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    if isinstance(obj, (list, tuple)):
        names = getattr(obj, "_fields", None)
        if names is None:
            if not obj:
                return "[]"
            inner = indent + "  "
            return "[%s%s%s]" % (inner, ("," + inner).join([_json_text(v, inner) for v in obj]),
                                 indent)
        items = zip(names, obj)
    elif isinstance(obj, dict):
        items = obj.items()
    else:
        raise TypeError("%s is not JSON serializable" % type(obj).__name__)
    if not obj:
        return "{}"
    inner = indent + "  "
    return "{%s%s%s}" % (inner, ("," + inner).join([
        "%s: %s" % (encode_basestring_ascii(key), _json_text(value, inner))
        for key, value in items]), indent)


def _emit_json(report, out_path):
    _emit_text(_json_text(report, "\n") + "\n", out_path)


def _note(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def _report_skeleton(config):
    return {
        "params": config,
        "window": None,
        "constraints": None,
        "results": {},
        "tool_version": __version__,
    }


def _window_report(config, modes):
    """The report with its window and constraints sections, ctx and the window."""
    ctx = _context(config, modes)
    window = _cli.exponential_windows(modes, ctx, _window_params(config))
    checks = _cli.constraint_report(modes, ctx, window)
    report = _report_skeleton(config)
    report["window"] = window
    report["constraints"] = checks
    return report, ctx, window


def cmd_validate(config, args):
    try:
        report, _, window = _window_report(config, _build_modes(config))
    except ModeValidationError as exc:
        violations = exc.violations
    except _cli.WindowError as exc:
        violations = [str(exc)]
    else:
        ok = bool(window.admitted) and all(c.status == "pass" for c in report["constraints"])
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

    A column passed again as the same object (t as gamma_t when Gamma_1 = 1)
    reads the cells formatted for its first place.

    Columns of at least SHORTEST_MIN_ROWS rows are formatted whole-array by
    _shortest, whose cells are repr's; shorter ones cell by cell with repr.
    """
    import numpy as np

    first = [next(j for j, earlier in enumerate(columns) if earlier is column)
             for column in columns]
    arrays = []
    for i, same in enumerate(first):
        arrays.append(np.asarray(columns[i]) if same == i else arrays[same])
    if len(arrays[0]) >= SHORTEST_MIN_ROWS:
        from ._shortest import csv_text

        return csv_text(header, arrays, first)
    cells = []
    for i, (same, col) in enumerate(zip(first, arrays)):
        if same < i:
            cells.append(cells[same])
        elif col.dtype == bool:
            cells.append(np.where(col, "true", "false").tolist())
        else:
            cells.append(list(map(repr, col.astype(float, copy=False).tolist())))
    lines = [header]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def cmd_curve(config, args):
    modes, ctx, t = _law_inputs(config)
    # 1.0 * t is t bit for bit; passing t itself lets the CSV share its cells
    gamma_t = t if modes.Gamma[0] == 1.0 else modes.Gamma[0] * t
    which = args.which

    if which == "rest":
        text = _csv_text("t,gamma_t,value", t, gamma_t, _cli.survival_rest(modes, t))
    elif which == "rate":
        text = _csv_text("t,gamma_t,value", t, gamma_t, _cli.decay_rate_rest(modes, t))
    elif which == "split":
        exp_part, osc_part = _cli.survival_rest_split(modes, t)
        text = _csv_text("t,gamma_t,value,value_exp,value_osc", t, gamma_t,
                         exp_part + osc_part, exp_part, osc_part)
    else:  # "boosted": the reader and argparse admit only the four kinds
        ev = _cli.BoostedLaw(modes, ctx)(t)
        text = _csv_text("t,gamma_t,value,valid", t, gamma_t, ev.P_p, ev.in_validity_domain)

    _emit_text(text, args.out)
    _note(args, "curve %s: %d rows" % (which, len(t)))
    return EXIT_OK


def cmd_window(config, args):
    modes = _build_modes(config)
    report, ctx, window = _window_report(config, modes)
    if window.admitted:
        try:
            report["results"]["periods"] = _cli.periods(modes, ctx, window.admitted)
        except _cli.WindowError as exc:
            report["results"]["periods"] = {"unavailable": str(exc)}
    else:
        report["results"]["periods"] = {"unavailable": "no admitted modes"}
    _emit_json(report, args.out)
    _note(args, "window: %d admitted, merged=%s" % (len(window.admitted), window.merged))
    return EXIT_OK


def cmd_phi(config, args):
    if args.out is None:
        raise ConfigError("phi writes a CSV plus a fit sidecar and needs --out")
    modes, ctx, t = _law_inputs(config)
    params = _window_params(config)

    values = _cli.phi_p(modes, ctx, t)
    # nothing is written before the fit: a grid CurveSeries refuses leaves no file
    fit_report = _report_skeleton(config)
    try:
        window = _cli.exponential_windows(modes, ctx, params)
        fit_report["window"] = window
        series = _cli.CurveSeries(t=t, values=values)
        fit_report["results"]["fit"] = _cli.linearity_fit(series, window, ctx)
    except (_cli.WindowError, _cli.TimeMapError) as exc:
        fit_report["results"]["fit_error"] = str(exc)
    reference = t / ctx.gamma
    _emit_text(_csv_text("t,phi_p,t_over_gamma,residual", t, values, reference,
                         values - reference), args.out)
    _emit_json(fit_report, args.out + ".fit.json")
    _note(args, "phi: %d rows, fit sidecar written" % len(t))
    return EXIT_OK


def cmd_compare(config, args):
    modes, ctx, t = _law_inputs(config)
    spec = _quad_spec(config)
    bound = _bound(config)

    # the closed form may leave [0, 1] outside its domain; the oracle may not
    closed_vals = _cli.BoostedLaw(modes, ctx)(t).P_p
    try:
        exact = _cli.direct_survival(modes, ctx.p, t, spec)
    except _cli.OracleConvergenceError as exc:
        print("oscdecay: oracle did not converge: %s (value=%r, error=%r)"
              % (exc, exc.value, exc.error_estimate), file=sys.stderr)
        return EXIT_ORACLE
    direct = _cli.CurveSeries(t=t, values=exact)
    rep = _cli.oracle_compare(closed_vals, direct)

    within = rep.max_rel_deviation <= bound
    report = _report_skeleton(config)
    report["results"] = dict(rep._asdict(), bound=bound, within_bound=within)
    _emit_json(report, args.out)
    _note(args, "compare: max rel deviation %g (bound %g)" % (rep.max_rel_deviation, bound))
    return EXIT_OK if within else EXIT_BOUND


# option -> its argparse keywords
_COMMON = {
    "--config": {"required": True, "help": "path to the JSON run config"},
    "--out": {"default": None, "help": "output path (default: stdout)"},
    "--parallel": {"type": int, "default": 0, "metavar": "N",
                   "help": "accepted for interface stability; does nothing"},
    "--quiet": {"action": "store_true", "default": False, "help": "suppress progress notes"},
}
_WHICH = {"choices": ("rest", "boosted", "rate", "split"), "default": "rest",
          "help": "curve family to sample"}

# command -> (its function, its help line, its options): the one table that
# both _parser and _read_argv read
_COMMANDS = {
    "validate": (cmd_validate, "check the mode set and window constraints", _COMMON),
    "curve": (cmd_curve, "emit a sampled curve as CSV", dict(_COMMON, **{"--which": _WHICH})),
    "window": (cmd_window, "emit the window report as JSON", _COMMON),
    "phi": (cmd_phi, "emit the time map as CSV plus a linearity-fit sidecar", _COMMON),
    "compare": (cmd_compare, "compare the closed form against the direct quadrature", _COMMON),
}


def _parser():
    """The argument parser, for the spellings _read_argv leaves to argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="oscdecay",
        description="Decay laws of moving unstable systems with oscillating modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for option, keywords in options.items():
            command.add_argument(option, **keywords)
    return parser


def _read_argv(argv):
    """The namespace _parser() makes of argv, read without argparse when argv
    is spelt as documented: a command, then its options in any order, each
    but --quiet followed by its value, the last of a repeated option winning.
    None for any other spelling (help, an abbreviation, an --opt=value form,
    a value starting with '-', an unknown token, no --config), which is left
    to argparse, so that its help, its errors and its exit 2 stay its own."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][2]
    read = {}
    tokens = iter(argv[1:])
    for token in tokens:
        keywords = options.get(token)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            read[token] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if value not in keywords.get("choices", [value]):
            return None
        read[token] = value
    if not all(option in read for option, keywords in options.items()
               if keywords.get("required")):
        return None
    return SimpleNamespace(command=argv[0], **{
        option[2:]: read.get(option, keywords.get("default"))
        for option, keywords in options.items()})


def _args(argv):
    """The namespace of argv, as _parser().parse_args(argv) makes it."""
    args = _read_argv(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _args(sys.argv[1:] if argv is None else argv)
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command][0](config, args)
    except OSError as exc:
        print("oscdecay: i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, TypeError) as exc:
        print("oscdecay: invalid config or model: %s" % exc, file=sys.stderr)
        return EXIT_INVALID


def run():
    """Process entry point: main(), then its exit code without the interpreter's
    teardown, which frees every module and numpy's objects, takes about a
    tenth of a cold command, and writes nothing any output depends on.

    What the teardown does that matters is done first, in its order: the
    atexit handlers run (coverage and site hooks), then stdout and stderr
    are flushed; main closes every file it opens. A live thread, no
    atexit._run_exitfuncs, or a stream that cannot be flushed (a closed
    pipe, or none at all when the process started with fd 1 or 2 closed)
    takes sys.exit instead, the interpreter's own exit. SystemExit from
    argparse and any uncaught exception leave main as they always did."""
    code = main()
    threading = sys.modules.get("threading")
    run_exitfuncs = getattr(atexit, "_run_exitfuncs", None)
    if run_exitfuncs is None or (threading is not None and threading.active_count() > 1):
        sys.exit(code)
    # the handlers are cleared as they run, so sys.exit below reruns none
    run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, AttributeError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
