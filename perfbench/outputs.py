"""Reading oscdecay's output files and checking them against the reference.

A command's output is reduced to plain JSON data: a CSV becomes its
header plus one list per column, a JSON report is kept as parsed, and
phi's fit sidecar is added under "fit". The reference holds the same
data as produced by the version of oscdecay the benchmark was recorded
on, less the CSV columns that identities() derives from the config and
the other columns. Numbers are compared at the tolerance of the output they belong to
(TOLERANCES, chosen by key name); strings, booleans and integers must
match exactly; keys the reference lacks are ignored, so a report may
gain keys without failing the check.
"""

import json
import math
import os

import numpy as np

# tolerance class: (relative, absolute, reason)
TOLERANCES = {
    "grid": (1e-14, 0.0,
             "time grid and its scalings (t, gamma_t, t/gamma): a few ulp of "
             "linspace arithmetic"),
    "closed_form": (1e-10, 1e-14,
                    "closed forms (P0, P_p, window and constraint values): round-off, "
                    "with room for a reordered sum or array-valued special functions"),
    "time_map": (1e-9, 1e-9,
                 "phi_p and its residual: the inversion contract |P0(t) - r| <= 1e-12 r "
                 "plus the closed-form tolerance on r, over |dP0/dt| ~ P0"),
    "fit": (1e-8, 1e-8,
            "linearity fit through the phi_p samples: inherits the time-map tolerance"),
    "oracle": (0.0, 2e-5,
               "compare deviations: the quadrature's requested rel_tol 1e-6 on the "
               "amplitude (2e-6 on P), with room for a tighter or smaller domain"),
}

# key name -> tolerance class for the value under that key (inherited downwards)
FIELD_CLASS = {
    "t": "grid",
    "gamma_t": "grid",
    "t_over_gamma": "grid",
    "phi_p": "time_map",
    "residual": "time_map",
    "fit": "fit",
    "max_abs_deviation": "oracle",
    "max_rel_deviation": "oracle",
}

# keys not compared: the version string, and the grid points where the
# deviations peak, which can move to a neighbour within the oracle tolerance
SKIP = {"tool_version", "t_at_max_abs", "t_at_max_rel"}


# CSV columns that follow from the config and the other columns; the
# reference omits them and identities() checks them instead
DERIVED = ("t", "gamma_t", "t_over_gamma", "residual")


def _csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        names = header.split(",")
        columns = {name: [] for name in names}
        for line in fh:
            for name, cell in zip(names, line.rstrip("\n").split(",")):
                columns[name].append(cell if name == "valid" else float(cell))
    return {"header": header, "columns": columns}


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def read_output(path):
    """The output data written to path (CSV or JSON), or None if there is none."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        first = fh.read(1)
    if first == "{":
        data = {"report": _json(path)}
    else:
        data = {"csv": _csv(path)}
    sidecar = path + ".fit.json"
    if os.path.exists(sidecar):
        data["fit"] = _json(sidecar)
    return data


def points(data):
    """Grid points in the output data (0 for reports without a grid)."""
    if data is None:
        return 0
    if "csv" in data:
        return len(data["csv"]["columns"]["t"])
    results = data["report"].get("results", {})
    return int(results.get("n_points", 0)) if isinstance(results, dict) else 0


def stored(data):
    """data without the derived CSV columns, as kept in the reference."""
    if data is None or "csv" not in data:
        return data
    columns = {k: v for k, v in data["csv"]["columns"].items() if k not in DERIVED}
    return dict(data, csv=dict(data["csv"], columns=columns))


def identities(data, config):
    """Problems with the derived CSV columns: the grid, Gamma_1 t, t/gamma, phi_p - t/gamma."""
    if data is None or "csv" not in data:
        return []
    columns = data["csv"]["columns"]
    grid = config["grid"]
    t = np.linspace(float(grid["t_min"]), float(grid["t_max"]), int(grid["points"]))
    gamma = math.hypot(1.0, float(config["p"]) / float(config["modes"]["M"]))
    want = {"t": ("grid", t), "gamma_t": ("grid", config["modes"]["Gamma"][0] * t),
            "t_over_gamma": ("grid", t / gamma)}
    if "residual" in columns:
        want["residual"] = ("time_map", np.asarray(columns["phi_p"]) - t / gamma)
    out = []
    for name, (cls, values) in want.items():
        if name in columns:
            out.extend(differences(values.tolist(), columns[name], cls, "/csv/" + name))
    return out


def _close(ref, got, cls):
    rel, abs_, _ = TOLERANCES[cls]
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= abs_ + rel * abs(ref)


def differences(ref, got, cls="closed_form", path=""):
    """Human-readable list of every place where got disagrees with ref."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return ["%s: expected an object" % (path or "/")]
        out = []
        for key, value in ref.items():
            if key in SKIP:
                continue
            sub = "%s/%s" % (path, key)
            if key not in got:
                out.append("%s: missing" % sub)
            else:
                out.extend(differences(value, got[key], FIELD_CLASS.get(key, cls), sub))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return ["%s: expected a list of %d" % (path, len(ref))]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(differences(r, g, cls, "%s[%d]" % (path, i)))
            if len(out) > 5:
                break
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if _close(ref, float(got), cls):
            return []
    elif type(got) is type(ref) and got == ref:
        return []
    return ["%s: expected %r, got %r" % (path, ref, got)]
