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

Cases, on curve B (M 80, Gamma 1, Omega 10, a 0.04, p 200) with times
spread evenly over [2, 11] (one point is t = 2):

* specfun.branch_cut, boost.BoostedLaw (build, and call), the rest law
  restframe._RestLaw (call) and timemap.phi_p at 1, 20, 181 and 2000
  points, and branch_cut at 181 points on z in [0.5, 20], across both
  fit seams;
* oracle.direct_survival at 1, 20 and 181 points;
* window.exponential_windows plus window.constraint_report, on curve B
  and on a four-mode set, and restframe.survival_rest_split on the
  four-mode set at 2000 points;
* every CLI subcommand through cli.main, on one 181-point curve B config
  (window zeta_min 0.05, so that validate passes);
* the median cold `import oscdecay.cli` in a fresh interpreter (time
  taken inside it, without the interpreter's own start-up);
* tools/surface.py's two counts, src_lines and public_names.

Run from the root of a source checkout:

    python3 tools/bench_layers.py --parent ../parent --out bench/BENCH_16.json

--quick takes two short rounds and one import: a smoke run that checks
the script works, not a measurement.
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
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import surface  # noqa: E402

# best of ROUNDS batches of about ROUND_S seconds; median of IMPORTS imports
ROUNDS = 15
ROUND_S = 0.02
IMPORTS = 7
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
    for label, (m, c) in (("curve_b", (modes, ctx)), ("four_modes", (four, four_ctx))):
        cases["window.windows+constraints.%s" % label] = \
            lambda m=m, c=c: window.constraint_report(m, c, window.exponential_windows(m, c))
    t = _times(2000)
    cases["restframe.survival_rest_split.four_modes[2000]"] = \
        lambda: restframe.survival_rest_split(four, t)
    return cases


def cli_cases(od, tmp):
    """name -> callable running one subcommand of package od in-process; each must exit 0."""
    config = os.path.join(tmp, "config.json")
    with open(config, "w") as fh:
        json.dump({"modes": CURVE_B, "p": P, "window": {"zeta_min": 0.05},
                   "grid": {"t_min": 2.0, "t_max": 11.0, "points": 181}}, fh)
    out = os.path.join(tmp, "out")

    def run(args):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = od.cli.main(list(args) + ["--config", config, "--out", out, "--quiet"])
        if code != 0:
            raise RuntimeError("%s exited %r: %s" % (" ".join(args), code, err.getvalue()))

    return {"cli.%s" % name: lambda args=args: run(args) for name, args in CLI_COMMANDS.items()}


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


def cold_import_s(roots, repeats):
    """label -> median seconds of `import oscdecay.cli` in a fresh interpreter."""
    samples = {label: [] for label in roots}
    for r in range(repeats):
        for label, root in (list(roots.items())[::-1] if r % 2 else roots.items()):
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
            out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=root,
                                 check=True, capture_output=True, text=True).stdout
            samples[label].append(float(out))
    return {label: statistics.median(values) for label, values in samples.items()}


def machine():
    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def _median_ratios(readings, imports_s, label, base):
    # the median over the rounds of the two trees' back-to-back readings:
    # a burst of load that hits one reading of a pair moves it little
    ratios = {name: statistics.median(a / b for a, b in zip(values, readings[base][name]))
              for name, values in readings[label].items()}
    ratios["cold_import_cli_s"] = imports_s[label] / imports_s[base]
    return {name: round(value, 3) for name, value in ratios.items()}


def measure(roots, rounds, round_s, imports):
    """The BENCH_<n>.json record of the trees in roots (label -> checkout root).

    With a parent, a second load of it, parent_again, is timed beside the
    two and reported only through parent_over_parent.
    """
    if "parent" in roots:
        roots = dict(roots, parent_again=roots["parent"])
    packages = {label: load_tree(root, "oscdecay" if label == "change" else "oscdecay_" + label)
                for label, root in roots.items()}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {label: dict(library_cases(od), **cli_cases(od, tmp))
                 for label, od in packages.items()}
        readings = time_cases(trees, rounds, round_s)
    imports_s = cold_import_s(roots, imports)
    runs = {label: {
        "calls_us": {name: round(min(values), 2) for name, values in readings[label].items()},
        "cold_import_cli_s": round(imports_s[label], 4),
        "src_lines": surface.source_lines(os.path.join(root, "src")),
        "public_names": len(surface.public_names(packages[label])),
    } for label, root in roots.items() if label != "parent_again"}
    bench = {"unit": "microseconds per call, best of the rounds; cold import in seconds",
             "rounds": rounds, "round_ms": round_s * 1e3, "machine": machine(), "runs": runs}
    if "parent" in runs:
        bench["change_over_parent"] = _median_ratios(readings, imports_s, "change", "parent")
        bench["parent_over_parent"] = _median_ratios(readings, imports_s, "parent_again", "parent")
    return bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--parent", metavar="DIR",
                        help="root of a checkout of the parent commit, timed beside ./src")
    parser.add_argument("--quick", action="store_true",
                        help="two 1-ms rounds and one import: a smoke run")
    args = parser.parse_args(argv)
    rounds, round_s, imports = (2, 1e-3, 1) if args.quick else (ROUNDS, ROUND_S, IMPORTS)
    roots = {"change": ROOT}
    if args.parent:
        roots["parent"] = os.path.abspath(args.parent)

    bench = measure(roots, rounds, round_s, imports)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")

    runs = bench["runs"]
    ratios = bench.get("change_over_parent", {})
    aa = bench.get("parent_over_parent", {})
    print("%-48s %s %8s %8s" % ("us per call", " ".join("%10s" % label for label in runs),
                                "ratio", "A/A"))
    for name in runs["change"]["calls_us"]:
        print("%-48s %s %8s %8s" % (name, " ".join("%10.1f" % run["calls_us"][name]
                                                   for run in runs.values()),
                                    ratios.get(name, ""), aa.get(name, "")))
    for key in ("cold_import_cli_s", "src_lines", "public_names"):
        print("%-48s %s %8s %8s" % (key, " ".join("%10s" % run[key] for run in runs.values()),
                                    ratios.get(key, ""), aa.get(key, "")))


if __name__ == "__main__":
    main()
