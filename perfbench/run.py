"""oscdecay benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense_grid --seed 1 --seconds 20 --trace 0

The program is driven only through its command line: in fresh
interpreters (`python -m oscdecay.cli`, workload cli_cold) or through
oscdecay.cli.main in this process (the other workloads), on configs
taken from perfbench/reference/<workload>.json.gz. Those configs were
drawn by configs.py; the file also holds the exit code and the outputs
each command gave when the benchmark was recorded, and every output of
every run is checked against them (outputs.py).

The seed orders the configs (a fresh permutation per pass). Commands run
one at a time, a config's commands in a fixed sequence, for about
--seconds: runs stop only at the end of a pass, so every run of a
workload does the same mix of work. Rates are per reference second: wall time scaled by a yardstick
timed between commands (yardstick.py), because this benchmark's host
drifts in speed by more than any bound a wall-clock rate could keep.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed part of
the workload untraced and then traced (spans.py) and prints per-layer
metrics. Human-readable lines with sample counts come first; the last
line of standard output is the JSON result.
"""

import argparse
import gzip
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from importlib.metadata import version
from time import perf_counter

# one compute thread per process unless the CLI asks for more (--parallel)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import configs  # noqa: E402
import outputs  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120

# gated end-to-end metrics; every run reports each of them. The rates are
# per reference second (yardstick.py), setup_s is in wall seconds.
END_TO_END = {
    "setup_s": "s",
    "boosted_pts_per_s": "pts/ref_s",
    "phi_pts_per_s": "pts/ref_s",
    "configs_per_s": "configs/ref_s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {"import.numpy_s": "s", "import.scipy_s": "s", "import.oscdecay_s": "s"}
    for layer in spans.LAYERS:
        units[layer + ".self_s"] = "s"
        units[layer + ".share"] = "ratio"
        if layer != "import":
            units[layer + ".calls"] = "count"
    units.update({
        "boost.pts_out_of_domain": "count",
        "boost.pts_exceeds_unity": "count",
        "specfun.calls_per_boosted_pt": "count/pt",
        "restframe.calls_per_phi_pt": "count/pt",
        "oracle.pts": "count",
        "oracle.bound_exceeded": "count",
        "oracle.max_rel_dev": "ratio",
        "quad.integrand_s": "s",
        "quad.evals_per_pt": "count/pt",
        "quad.rounds_per_pt": "count/pt",
        "quad.final_round_frac": "ratio",
        "trace.overhead_frac": "ratio",
    })
    return units


def import_program():
    """oscdecay.cli imported from ./src; exits when this is no source checkout."""
    if not os.path.isfile(os.path.join(SRC, "oscdecay", "__init__.py")):
        sys.exit("perfbench: run from the root of an oscdecay source checkout (no src/oscdecay)")
    sys.path.insert(0, SRC)
    import oscdecay.cli
    if not os.path.abspath(oscdecay.cli.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: oscdecay was imported from %s, not from ./src" % oscdecay.cli.__file__)
    return oscdecay.cli


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def load_reference(name):
    with gzip.open(os.path.join(HERE, "reference", name + ".json.gz"), "rt") as fh:
        return json.load(fh)


def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg": read_loadavg(),
    }


def run_child(argv):
    """Wall time and completed process of one fresh interpreter."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable] + argv, env=child_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc


def measure_setup():
    """Median wall time of fresh interpreters importing oscdecay (after one warm-up)."""
    warm = "import oscdecay, oscdecay.cli"
    _, proc = run_child(["-c", warm])
    if proc.returncode != 0:
        raise RuntimeError("oscdecay does not import: %s" % proc.stderr.strip())
    times = [run_child(["-c", "import oscdecay"])[0] for _ in range(SETUP_REPEATS)]
    return statistics.median(times), len(times)


def measure_imports():
    """Medians of the numpy, scipy and oscdecay shares of `-X importtime`."""
    rows = []
    for _ in range(IMPORTTIME_REPEATS):
        _, proc = run_child(["-X", "importtime", "-c", "import oscdecay"])
        rows.append(spans.parse_importtime(proc.stderr))
    return [statistics.median(col) for col in zip(*rows)]


class Runner:
    """Runs one workload's commands on its configs and checks every output."""

    def __init__(self, workload, reference, cli):
        self.workload = workload
        self.cli = cli
        self.configs = reference["configs"]
        self.expected = reference["expected"]
        self.dir = os.path.join(WORK, workload.name)
        os.makedirs(self.dir, exist_ok=True)
        self.config_paths = []
        for i, config in enumerate(self.configs):
            path = os.path.join(self.dir, "config-%03d.json" % i)
            with open(path, "w") as fh:
                json.dump(config, fh)
            self.config_paths.append(path)
        self.records = []
        self.problems = []
        self.yardstick = None

    def out_path(self, i, key):
        return os.path.join(self.dir, "out-%03d-%s" % (i, key))

    def argv(self, i, key):
        return list(self.workload.commands[key]) + [
            "--config", self.config_paths[i], "--out", self.out_path(i, key), "--quiet"]

    def run_command(self, i, key, spans_path=None):
        """(wall time, exit code or None, error text) of one command."""
        out = self.out_path(i, key)
        for stale in (out, out + ".fit.json"):
            if os.path.exists(stale):
                os.remove(stale)
        argv = self.argv(i, key)
        if self.workload.cold:
            if spans_path is None:
                dt, proc = run_child(["-m", "oscdecay.cli"] + argv)
            else:
                dt, proc = run_child([os.path.join(HERE, "traced_cli.py"), spans_path] + argv)
            return dt, proc.returncode, proc.stderr.strip()
        t0 = perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted as a failure, the run goes on
            return perf_counter() - t0, None, repr(exc)
        return perf_counter() - t0, code, ""

    def check(self, i, key, code, error, got):
        """Problems with one command's result (got: its output data); empty when correct."""
        expected = self.expected[i][key]
        if code is None:
            return ["uncaught exception: %s" % error]
        if code in (3, 4):
            return ["exit %d: %s" % (code, error)]
        if code != expected["exit"]:
            return ["exit %d, recorded %d: %s" % (code, expected["exit"], error)]
        problems = []
        twin = configs.PARALLEL_TWIN.get(key)
        if twin is not None:
            with open(self.out_path(i, key), "rb") as a, open(self.out_path(i, twin), "rb") as b:
                if a.read() != b.read():
                    problems.append("output bytes differ from the serial run")
        problems.extend(outputs.identities(got, self.configs[i]))
        problems.extend(outputs.differences(expected["output"], got))
        return problems

    def run_sequence(self, i, spans_dir=None):
        for key in self.workload.commands:
            spans_path = None
            if spans_dir is not None:
                spans_path = os.path.join(spans_dir, "spans-%03d-%s.bin" % (i, key))
            dt, code, error = self.run_command(i, key, spans_path)
            end = perf_counter()
            if self.yardstick is not None:
                self.yardstick.sample()
            data = outputs.read_output(self.out_path(i, key))
            problems = self.check(i, key, code, error, data)
            record = {"config": i, "key": key, "dt": dt, "end": end, "exit": code,
                      "pts": outputs.points(data), "failed": bool(problems)}
            if key == "compare" and data is not None:
                record["max_rel_dev"] = data["report"]["results"]["max_rel_deviation"]
            self.records.append(record)
            for problem in problems:
                self.problems.append("config %d %s: %s" % (i, key, problem))


def timed_run(runner, seed, seconds):
    """Closed loop over seeded passes for about `seconds`; returns the sequence count.

    The loop stops between passes, once one more pass would end further
    from `seconds` (so a run makes at least one pass).
    """
    rng = random.Random(seed)
    pool = len(runner.configs)
    runner.yardstick = yardstick.Yardstick(cold=runner.workload.cold)
    runner.yardstick.sample(force=True)
    start = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        for i in rng.sample(range(pool), pool):
            runner.run_sequence(i)
        passes += 1
        now = perf_counter()
        if now - start + 0.5 * (now - pass_start) >= seconds:
            break
    runner.yardstick.sample(force=True)
    for r in runner.records:
        r["ref_dt"] = runner.yardstick.reference_seconds(r["dt"], r["end"])
    return passes * pool


def _rates(records, sequences, time_key):
    """Gated rates over the records' times under time_key ("ref_dt" or wall "dt")."""
    def per_point(prefix):
        chosen = [r for r in records if r["key"].startswith(prefix)]
        if not chosen:
            return 0.0, 0
        return sum(r["pts"] for r in chosen) / sum(r[time_key] for r in chosen), len(chosen)

    return {
        "boosted_pts_per_s": per_point("boosted"),
        "phi_pts_per_s": per_point("phi"),
        "configs_per_s": (sequences / sum(r[time_key] for r in records), sequences),
        "oracle_pts_per_s": per_point("compare"),
    }


def end_to_end(runner, sequences, setup):
    records = runner.records
    usage = resource.RUSAGE_CHILDREN if runner.workload.cold else resource.RUSAGE_SELF
    ref = _rates(records, sequences, "ref_dt")
    wall = _rates(records, sequences, "dt")
    values = {
        "setup_s": setup[0],
        "boosted_pts_per_s": ref["boosted_pts_per_s"][0],
        "phi_pts_per_s": ref["phi_pts_per_s"][0],
        "configs_per_s": ref["configs_per_s"][0],
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": "%d fresh interpreters" % setup[1],
        "peak_rss_mb": "high-water mark",
        "configs_per_s": "%d config sequences" % sequences,
    }
    for name, value in values.items():
        note = samples.get(name)
        if name in wall:
            note = "%s; %.6g per wall second" % (note or "%d invocations" % wall[name][1],
                                                 wall[name][0])
        print("  %-22s %14.6g %-13s (%s)" % (name, value, END_TO_END[name], note))
    took = runner.yardstick.took
    print("  %-22s %14.6g %-13s (%d samples; nominal %g)"
          % ("yardstick_s", statistics.median(took), "s", len(took), runner.yardstick.nominal))
    # workload-specific figures, printed but not gated: the median invocation
    # means something only where invocations cost alike (cli_cold), and only
    # oracle_verify runs compare
    print("  %-22s %14.6g %-13s (%d invocations; not gated)"
          % ("cli_p50_s", statistics.median(r["dt"] for r in records), "s", len(records)))
    if ref["oracle_pts_per_s"][1]:
        print("  %-22s %14.6g %-13s (%d invocations; %.6g per wall second; not gated)"
              % ("oracle_pts_per_s", ref["oracle_pts_per_s"][0], "pts/ref_s",
                 ref["oracle_pts_per_s"][1], wall["oracle_pts_per_s"][0]))
    return values


def traced_run(runner, seed):
    """Per-layer metrics: a fixed slice of the workload untraced, then traced."""
    numpy_s, scipy_s, oscdecay_s = measure_imports()
    rng = random.Random(seed)
    pool = len(runner.configs)
    chosen = rng.sample(range(pool), pool)[: runner.workload.trace_configs]

    def untraced_pass():
        first = len(runner.records)
        for i in chosen:
            runner.run_sequence(i)
        return sum(r["dt"] for r in runner.records[first:])

    # untraced passes on both sides of the traced one cancel a linear drift
    untraced = untraced_pass()
    first = len(runner.records)
    spans_dir = os.path.join(runner.dir, "spans")
    shutil.rmtree(spans_dir, ignore_errors=True)
    os.makedirs(spans_dir)
    if runner.workload.cold:
        for i in chosen:
            runner.run_sequence(i, spans_dir)
        tracer = spans.merge(spans.load(os.path.join(spans_dir, f))
                             for f in sorted(os.listdir(spans_dir)))
    else:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            for i in chosen:
                runner.run_sequence(i)
    traced = runner.records[first:]
    untraced = 0.5 * (untraced + untraced_pass())
    tracer.save(os.path.join(WORK, "spans-%s.bin" % runner.workload.name))

    metrics = spans.layer_metrics(tracer)
    compares = [r for r in traced if r["key"] == "compare"]
    metrics.update({
        "import.numpy_s": numpy_s,
        "import.scipy_s": scipy_s,
        "import.oscdecay_s": oscdecay_s,
        "oracle.bound_exceeded": sum(r["exit"] == 1 for r in compares),
        "oracle.max_rel_dev": max((r["max_rel_dev"] for r in compares if "max_rel_dev" in r),
                                  default=0.0),
        "trace.overhead_frac": sum(r["dt"] for r in traced) / untraced - 1.0,
    })
    units = per_layer_units()
    print("  traced %d configs: %d commands traced, %d untraced, %d spans"
          % (len(chosen), len(traced), len(runner.records) - len(traced), len(tracer.start)))
    for name in units:
        print("  %-30s %14.6g %s" % (name, metrics[name], units[name]))
    return {name: metrics[name] for name in units}, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(configs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = configs.WORKLOADS[args.workload]
    cli = import_program()
    env = environment()
    print("perfbench %s seed=%d seconds=%g trace=%d" % (workload.name, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env))
    runner = Runner(workload, load_reference(workload.name), cli)

    if args.trace:
        metrics, units = traced_run(runner, args.seed)
    else:
        setup = measure_setup()
        sequences = timed_run(runner, args.seed, args.seconds)
        metrics, units = end_to_end(runner, sequences, setup), END_TO_END

    attempted = len(runner.records)
    failed = sum(r["failed"] for r in runner.records)
    for problem in runner.problems[:20]:
        print("  FAILED " + problem)
    print("  failed_frac %.6g (%d of %d commands)" % (failed / attempted, failed, attempted))
    print("env end loadavg " + json.dumps(read_loadavg()))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
