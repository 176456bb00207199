"""Time oscdecay layer by layer, in one process, and write BENCH_<n>.json.

Every figure is microseconds per call: the best, over 15 rounds, of the
mean time of one batch of calls, with the batch sized on a first pass so
that it lasts about 20 ms. The package is the one in ./src, and numpy
runs on one thread, as in perfbench/run.py.

With --parent DIR, the package in DIR/src (a checkout of the parent
commit) is loaded beside it under another name, and every case runs on
both trees in turn, round by round, the order alternating: a host that
drifts in speed slows both trees alike. The file then holds both trees
and, per case, change_over_parent: the median over the rounds of the
ratio of the two back-to-back readings, which holds even where the
absolute figures move. The parent is also loaded a second time and timed
in the same rounds, and parent_over_parent holds the same median ratio
of the second load over the first: an A/A ratio, whose distance from 1
is the spread that a change_over_parent reading must exceed to count.

One A/A reading does not bound a run's noise, so the whole timing, cold
runs included, runs in three passes. Every figure is the median over
the passes, and change_over_parent_range and parent_over_parent_range
hold each ratio's lowest and highest pass: a per-layer verdict is the
median ratio beside its A/A range.

Cases, on curve B (M 80, Gamma 1, Omega 10, a 0.04, p 200) with times
spread evenly over [2, 11] (one point is t = 2):

* specfun.branch_cut, boost.BoostedLaw (build, and call), the rest law
  restframe._RestLaw (call) and timemap.phi_p at 1, 20, 181 and 2000
  points, and branch_cut at 181 points on z in [0.5, 20], across both
  fit seams;
* oracle.direct_survival at 1, 20 and 181 points;
* kinematics.validate_modes (from the config's lists),
  kinematics.mode_terms and window.exponential_windows plus
  window.constraint_report, on curve B and on a four-mode set, and
  restframe.survival_rest_split on the four-mode set at 2000 points;
* every CLI subcommand through cli.main, on one 181-point curve B config
  (window zeta_min 0.05, so that validate passes), and `curve --which
  boosted` and `phi` at 2000 points, the dense_grid size, where writing
  the CSV takes most of a command; `curve --which boosted` at 2000 points
  also runs with Gamma 2.5, where no CSV column repeats another;
* the CLI's fixed work on that config: cli.parse[<name>], reading the argv
  of each subcommand, and cli.report_json[window|fit|compare], writing the
  report of `window`, `phi`'s fit sidecar and the report of `compare` as
  JSON text (the reports are those the tree's own commands build);
* the median cold `import oscdecay.cli` in a fresh interpreter (time
  taken inside it, without the interpreter's own start-up);
* the median wall time of every CLI subcommand run cold, as a fresh
  `python -m oscdecay.cli` on the 181-point config, timed from outside
  (start-up included). Cold runs of the trees alternate like the rounds,
  and their ratios are medians of back-to-back ratios too. The machine
  block records sys.flags.dont_write_bytecode: where it is true
  (PYTHONDONTWRITEBYTECODE is set) and a checkout has no __pycache__,
  every cold run compiles each module it loads, and the cold figures
  include that compile time;
* tools/surface.py's three counts, src_lines, public_names and settings,
  each tree's from its own tools/surface.py.

Run from the root of a source checkout:

    python3 tools/bench_layers.py --parent ../parent --out bench/BENCH_22.json

--quick takes one pass of two short rounds and one cold run of each
kind: a smoke run that checks the script works, not a measurement.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

# one compute thread, as in perfbench/run.py; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.getcwd()

import numpy as np  # noqa: E402

# best of ROUNDS batches of about ROUND_S seconds; median of COLD_RUNS
# fresh interpreters; each figure the median over PASSES passes
ROUNDS = 15
ROUND_S = 0.02
COLD_RUNS = 11
PASSES = 3
SIZES = (1, 20, 181, 2000)
ORACLE_SIZES = (1, 20, 181)
CURVE_B = {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]}
FOUR_MODES = {"M": 100.0, "w": [0.4, 0.3, 0.2, 0.1], "Gamma": [1.0, 1.5, 2.0, 2.5],
              "Omega": [0.0, 5.0, 8.0, 12.0], "a": [0.0, 0.1, 0.05, 0.03]}
P = 200.0
CLI_COMMANDS = {
    "validate": ("validate",),
    "window": ("window",),
    "curve_rest": ("curve", "--which", "rest"),
    "curve_rate": ("curve", "--which", "rate"),
    "curve_split": ("curve", "--which", "split"),
    "curve_boosted": ("curve", "--which", "boosted"),
    "phi": ("phi",),
    "compare": ("compare",),
}
# name -> (CLI_COMMANDS key, grid points, Gamma of curve B) of the cases
# beside the 181-point ones
CLI_LARGE = {
    "curve_boosted[2000]": ("curve_boosted", 2000, 1.0),
    "phi[2000]": ("phi", 2000, 1.0),
    "curve_boosted.gamma_2.5[2000]": ("curve_boosted", 2000, 2.5),
}
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import oscdecay.cli; "
                  "print(time.perf_counter() - t)")


def load_tree(root, name):
    """The package in root/src/oscdecay, imported as `name` with its submodules.

    Its modules import one another relatively, so two trees can be loaded
    side by side under two names.
    """
    package_dir = os.path.join(root, "src", "oscdecay")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package_dir, "__init__.py"), submodule_search_locations=[package_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    # importing a submodule binds it as an attribute of the package
    for sub in ("boost", "cli", "kinematics", "oracle", "restframe", "specfun", "timemap",
                "window"):
        importlib.import_module("%s.%s" % (name, sub))
    return package


def _times(n):
    return np.linspace(2.0, 11.0, n)


def library_cases(od):
    """name -> zero-argument callable, for every library case of package od."""
    km, restframe, specfun, window = od.kinematics, od.restframe, od.specfun, od.window
    modes = km.validate_modes(CURVE_B)
    ctx = km.shifted_kinematics(modes, P)
    four = km.validate_modes(FOUR_MODES)
    four_ctx = km.shifted_kinematics(four, P)
    law = od.boost.BoostedLaw(modes, ctx)
    rest = restframe._RestLaw(modes)
    spec = od.oracle.QuadratureSpec()
    cases = {"boost.BoostedLaw.build": lambda: od.boost.BoostedLaw(modes, ctx)}
    for n in SIZES:
        t = _times(n)
        cases["specfun.branch_cut[%d]" % n] = lambda z=P * t: specfun.branch_cut(z)
        cases["boost.BoostedLaw.call[%d]" % n] = lambda t=t: law(t)
        cases["restframe._RestLaw.call[%d]" % n] = lambda t=t: rest(t)
        cases["timemap.phi_p[%d]" % n] = lambda t=t: od.timemap.phi_p(modes, ctx, t)
    z = np.linspace(0.5, 20.0, 181)
    cases["specfun.branch_cut.seams[181]"] = lambda: specfun.branch_cut(z)
    for n in ORACLE_SIZES:
        t = _times(n)
        cases["oracle.direct_survival[%d]" % n] = \
            lambda t=t: od.oracle.direct_survival(modes, P, t, spec)
    for label, (raw, m, c) in (("curve_b", (CURVE_B, modes, ctx)),
                               ("four_modes", (FOUR_MODES, four, four_ctx))):
        cases["kinematics.validate_modes.%s" % label] = lambda raw=raw: km.validate_modes(raw)
        cases["kinematics.mode_terms.%s" % label] = lambda m=m: km.mode_terms(m)
        cases["window.windows+constraints.%s" % label] = \
            lambda m=m, c=c: window.constraint_report(m, c, window.exponential_windows(m, c))
    t = _times(2000)
    cases["restframe.survival_rest_split.four_modes[2000]"] = \
        lambda: restframe.survival_rest_split(four, t)
    return cases


def cli_config(tmp, points, gamma=1.0):
    """Path of a curve B config in tmp with the given grid size and Gamma."""
    path = os.path.join(tmp, "config_%d_%r.json" % (points, gamma))
    with open(path, "w") as fh:
        json.dump({"modes": dict(CURVE_B, Gamma=[gamma]), "p": P,
                   "window": {"zeta_min": 0.05},
                   "grid": {"t_min": 2.0, "t_max": 11.0, "points": points}}, fh)
    return path


def cli_cases(od, tmp):
    """name -> callable running one subcommand of package od in-process; each must exit 0."""
    out = os.path.join(tmp, "out")

    def run(args, path):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = od.cli.main(list(args) + ["--config", path, "--out", out, "--quiet"])
        if code != 0:
            raise RuntimeError("%s exited %r: %s" % (" ".join(args), code, err.getvalue()))

    small = cli_config(tmp, 181)
    runs = {name: (args, small) for name, args in CLI_COMMANDS.items()}
    runs.update((name, (CLI_COMMANDS[command], cli_config(tmp, points, gamma)))
                for name, (command, points, gamma) in CLI_LARGE.items())
    return {"cli.%s" % name: lambda args=args, path=path: run(args, path)
            for name, (args, path) in runs.items()}


def cli_io_cases(od, tmp):
    """name -> callable of the CLI's fixed work in package od, on the 181-point
    config: reading each subcommand's argv, and writing the window report,
    phi's fit sidecar and the compare report as JSON text."""
    cli = od.cli
    path, out = cli_config(tmp, 181), os.path.join(tmp, "out")
    cases = {"cli.parse[%s]" % name: lambda argv=list(args) + ["--config", path, "--out", out,
                                                                "--quiet"]: cli._args(argv)
             for name, args in CLI_COMMANDS.items()}
    for name, command in (("window", "window"), ("fit", "phi"), ("compare", "compare")):
        reports = []
        emit, cli._emit_json = cli._emit_json, lambda report, _: reports.append(report)
        try:
            cli.main([command, "--config", path, "--out", out, "--quiet"])
        finally:
            cli._emit_json = emit
        cases["cli.report_json[%s]" % name] = \
            lambda report=reports[0]: cli._json_text(report, "\n")
    return cases


def _batch_size(fn, round_s):
    # calls per batch so that one batch lasts at least round_s
    number = 1
    while True:
        start = perf_counter()
        for _ in range(number):
            fn()
        if perf_counter() - start >= round_s or number >= 1 << 20:
            return number
        number *= 2


def time_cases(trees, rounds, round_s):
    """label -> name -> microseconds per call, one reading per round.

    trees maps each label to its cases (the same names in each). A round
    times every case on every tree before the next case, in an order that
    alternates from round to round.
    """
    labels = list(trees)
    sizes = {(label, name): _batch_size(fn, round_s)
             for label, cases in trees.items() for name, fn in cases.items()}
    readings = {label: {name: [] for name in cases} for label, cases in trees.items()}
    for r in range(rounds):
        for name in trees[labels[0]]:
            for label in labels[::-1] if r % 2 else labels:
                fn, number = trees[label][name], sizes[label, name]
                start = perf_counter()
                for _ in range(number):
                    fn()
                readings[label][name].append((perf_counter() - start) / number * 1e6)
    return readings


def cold_s(roots, repeats, tmp):
    """label -> case -> seconds of each of repeats fresh interpreters.

    Case cold_import_cli_s is `import oscdecay.cli`, timed inside the
    interpreter; case cold_cli.<name> is `python -m oscdecay.cli` running
    subcommand <name> of CLI_COMMANDS on the 181-point config, timed from
    outside, start-up included. Each round runs every case on every tree
    before the next case, in an order that alternates from round to round.
    """
    config, out = cli_config(tmp, 181), os.path.join(tmp, "cold_out")
    cases = {"cold_import_cli_s": ["-c", IMPORT_SNIPPET]}
    cases.update(("cold_cli.%s" % name, ["-m", "oscdecay.cli", *args, "--config", config,
                                         "--out", out, "--quiet"])
                 for name, args in CLI_COMMANDS.items())
    samples = {label: {case: [] for case in cases} for label in roots}
    for r in range(repeats):
        for case, argv in cases.items():
            for label, root in (list(roots.items())[::-1] if r % 2 else roots.items()):
                env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
                start = perf_counter()
                proc = subprocess.run([sys.executable] + argv, env=env, cwd=root,
                                      check=True, capture_output=True, text=True)
                wall = perf_counter() - start
                samples[label][case].append(float(proc.stdout) if case == "cold_import_cli_s"
                                            else wall)
    return samples


def surface_counts(root):
    """src_lines, public_names and settings of the tree at root, by its own tools/surface.py."""
    out = subprocess.run([sys.executable, os.path.join("tools", "surface.py")], cwd=root,
                         check=True, capture_output=True, text=True).stdout
    return {key: int(value) for key, value in map(str.split, out.splitlines())}


def machine():
    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}


def _median_ratios(readings, label, base):
    # the median over the rounds of the two trees' back-to-back readings:
    # a burst of load that hits one reading of a pair moves it little
    return {name: round(statistics.median(a / b for a, b in zip(values, readings[base][name])), 3)
            for name, values in readings[label].items()}


def measure(roots, rounds, round_s, cold_runs, n_passes):
    """The BENCH_<n>.json record of the trees in roots (label -> checkout root).

    With a parent, a second load of it, parent_again, is timed beside the
    two and reported only through parent_over_parent. Each figure is the
    median over n_passes passes, and each ratio's range over them is
    added.
    """
    if "parent" in roots:
        roots = dict(roots, parent_again=roots["parent"])
    packages = {label: load_tree(root, "oscdecay" if label == "change" else "oscdecay_" + label)
                for label, root in roots.items()}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {label: dict(library_cases(od), **cli_cases(od, tmp), **cli_io_cases(od, tmp))
                 for label, od in packages.items()}
        passes = [(time_cases(trees, rounds, round_s), cold_s(roots, cold_runs, tmp))
                  for _ in range(n_passes)]
    runs = {}
    for label, root in roots.items():
        if label == "parent_again":
            continue
        cold = {case: round(statistics.median(statistics.median(c[label][case])
                                              for _, c in passes), 4)
                for case in passes[0][1][label]}
        runs[label] = dict(
            calls_us={name: round(statistics.median(min(readings[label][name])
                                                    for readings, _ in passes), 2)
                      for name in trees[label]},
            cold_import_cli_s=cold.pop("cold_import_cli_s"),
            cold_cli_s={case.split(".", 1)[1]: value for case, value in cold.items()},
            **surface_counts(root))
    bench = {"unit": "microseconds per call, best of the rounds; cold runs in seconds",
             "rounds": rounds, "round_ms": round_s * 1e3, "passes": n_passes,
             "machine": machine(), "runs": runs}
    if "parent" in runs:
        for key, label in (("change_over_parent", "change"), ("parent_over_parent", "parent_again")):
            ratios = [_median_ratios({tree: dict(readings[tree], **cold[tree]) for tree in cold},
                                     label, "parent")
                      for readings, cold in passes]
            bench[key] = {name: round(statistics.median(r[name] for r in ratios), 3)
                          for name in ratios[0]}
            bench[key + "_range"] = {name: [min(r[name] for r in ratios),
                                            max(r[name] for r in ratios)] for name in ratios[0]}
    return bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--parent", metavar="DIR",
                        help="root of a checkout of the parent commit, timed beside ./src")
    parser.add_argument("--quick", action="store_true",
                        help="one pass of two 1-ms rounds and one cold run: a smoke run")
    args = parser.parse_args(argv)
    timing = (2, 1e-3, 1, 1) if args.quick else (ROUNDS, ROUND_S, COLD_RUNS, PASSES)
    roots = {"change": ROOT}
    if args.parent:
        roots["parent"] = os.path.abspath(args.parent)

    bench = measure(roots, *timing)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")

    runs = bench["runs"]
    ratios = bench.get("change_over_parent", {})
    aa = {name: "%.3f-%.3f" % tuple(span)
          for name, span in bench.get("parent_over_parent_range", {}).items()}
    print("%-48s %s %8s %12s" % ("us per call", " ".join("%10s" % label for label in runs),
                                 "ratio", "A/A range"))
    for name in runs["change"]["calls_us"]:
        print("%-48s %s %8s %12s" % (name, " ".join("%10.1f" % run["calls_us"][name]
                                                    for run in runs.values()),
                                     ratios.get(name, ""), aa.get(name, "")))
    for name in runs["change"]["cold_cli_s"]:
        key = "cold_cli." + name
        print("%-48s %s %8s %12s" % (key, " ".join("%10.4f" % run["cold_cli_s"][name]
                                                   for run in runs.values()),
                                     ratios.get(key, ""), aa.get(key, "")))
    for key in ("cold_import_cli_s", "src_lines", "public_names", "settings"):
        print("%-48s %s %8s %12s" % (key, " ".join("%10s" % run[key] for run in runs.values()),
                                     ratios.get(key, ""), aa.get(key, "")))


if __name__ == "__main__":
    main()
