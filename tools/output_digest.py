"""Print a digest of every CLI output over the benchmark's config pools.

Draws the config pool of each workload in perfbench/configs.py from its
master seed and runs every command on every config: validate, window,
curve --which rest/rate/split/boosted, phi (with its fit sidecar) and
compare. A fixed edge set follows the pools, under the name edge: the
paths the pools never draw, where gamma_t is not t, the window is empty
or the periods are unavailable, two configs whose arithmetic overflows
(ROADMAP item 16) and one whose p t overflows. The commands run through
oscdecay.cli.main in this process, on the package in ./src. Each prints
one line: workload (or edge), config index, command, exit code, the
sha256 of each output file and the stderr text. A warning in that text
is shown once per command, as in a fresh interpreter, and without the
file, line and source it was raised at, which differ between checkouts.

A header line, starting with "# ", comes first in both modes. It names
the numpy build the bytes depend on (tools/numpy_build.py): numpy's
version, its baseline and found dispatch CPU features, and the OpenBLAS
kernel.

With --cold, only the pools of the cold workloads (cli_cold) are drawn,
and each command runs as `python -m oscdecay.cli` in a fresh interpreter,
the way users run it: its lines must equal the in-process lines of the
same pool, so that the process's own exit changes no output, exit code
or message:

    python3 tools/output_digest.py --cold | grep '^cli_cold ' > cold.txt
    python3 tools/output_digest.py | grep '^cli_cold ' | diff - cold.txt

Run it from the root of each of two source checkouts; they give
byte-identical outputs, exit codes and messages exactly when the two
digests match:

    python3 tools/output_digest.py > digest.txt
    diff ../other/digest.txt digest.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import configs  # noqa: E402
from numpy_build import numpy_build  # noqa: E402
from oscdecay.cli import main as cli_main  # noqa: E402

COMMANDS = {
    "validate": ("validate",),
    "window": ("window",),
    "rest": ("curve", "--which", "rest"),
    "rate": ("curve", "--which", "rate"),
    "split": ("curve", "--which", "split"),
    "boosted": ("curve", "--which", "boosted"),
    "phi": ("phi",),
    "compare": ("compare",),
}

CURVE_B = {"modes": {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]},
           "p": 200.0, "grid": {"t_min": 2.0, "t_max": 6.0, "points": 21}}

# configs the pools never draw, each with the paths it takes
EDGE = [
    # Gamma_1 != 1: gamma_t is formatted on its own
    dict(CURVE_B, modes=dict(CURVE_B["modes"], Gamma=[2.5])),
    # an empty window: NaN constraint values and an excluded mode
    dict(CURVE_B, window={"xi_gate": 1e-12}),
    # at rest: the rest branch of the boosted law and the time map; window exits 2
    dict(CURVE_B, p=0.0),
    # no oscillating mode, on a log grid: the periods are unavailable
    dict(CURVE_B, modes={"M": 80.0, "w": [0.5, 0.5], "Gamma": [1.0, 1.5],
                         "Omega": [0.0, 0.0], "a": [0.0, 0.0]},
         grid={"t_min": 0.5, "t_max": 8.0, "points": 21, "spacing": "log"}),
    # three modes, the oracle without the negative-mass part
    dict(CURVE_B, modes={"M": 80.0, "w": [0.5, 0.3, 0.2], "Gamma": [1.0, 1.5, 2.0],
                         "Omega": [10.0, 5.0, 2.5], "a": [0.04, 0.04, 0.04]},
         oracle={"include_negative_mass": False}),
    # commensurate frequencies, both admitted by a wider gate: k_values [1, 2]
    dict(CURVE_B, modes={"M": 80.0, "w": [0.5, 0.5], "Gamma": [1.0, 1.5],
                         "Omega": [10.0, 5.0], "a": [0.04, 0.04]}, window={"xi_gate": 2e-3}),
    # a long log grid, whose CSVs cli formats whole-array: cells in exponent
    # notation in every curve and in phi, negative ones in rate, split and phi
    dict(CURVE_B, grid={"t_min": 0.2, "t_max": 60.0, "points": 2000, "spacing": "log"}),
    # p * p overflows: nan cells flagged valid, phi and compare exit 2
    dict(CURVE_B, p=1e155, grid={"t_min": 1.0, "t_max": 5.0, "points": 11}),
    # times so short that P_p overflows: inf cells, phi and compare exit 2
    dict(CURVE_B, p=40.0, grid={"t_min": 1e-300, "t_max": 1.0, "points": 11, "spacing": "log"}),
    # p t overflows at a valid p and t: the boosted law refuses it, exit 2
    dict(CURVE_B, p=1e75, grid={"t_min": 1.0, "t_max": 1e240, "points": 11, "spacing": "log"}),
]

# a warning as warnings.formatwarning writes it: where, what, and the source line
WARNING = re.compile(r"^.*:\d+: (\w*Warning: .*)\n(?:  .*\n)?", re.M)


def _sha256(path):
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest_line(tmp, config_path, args, cold):
    """Run one command, in this process or (cold) in a fresh interpreter; its
    exit code, output digests and stderr as one line."""
    out = os.path.join(tmp, "out")
    paths = [out, out + ".fit.json"] if args[0] == "phi" else [out]
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    argv = list(args) + ["--config", config_path, "--out", out]
    if cold:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, "-m", "oscdecay.cli"] + argv, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        code, stderr = proc.returncode, proc.stderr
    else:
        err = io.StringIO()
        # a fresh filter state, so that each warning shows once in every command
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("default", RuntimeWarning)
            code = cli_main(argv)
        stderr = err.getvalue()
    # the scratch directory's name differs from run to run
    stderr = WARNING.sub(r"\1\n", stderr.replace(tmp, "<tmp>"))
    return "exit=%s %s stderr=%r" % (code, " ".join(map(_sha256, paths)), stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cold", action="store_true",
                        help="the cold workloads' pools only, each command a fresh interpreter")
    cold = parser.parse_args().cold
    pools = [(name, configs.generate(workload, workload.master_seed))
             for name, workload in sorted(configs.WORKLOADS.items())
             if workload.cold or not cold]
    if not cold:
        pools.append(("edge", EDGE))
    print("# " + "; ".join("%s %s" % (key, value or "none")
                           for key, value in numpy_build().items()), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        for name, pool in pools:
            for i, config in enumerate(pool):
                with open(config_path, "w") as fh:
                    json.dump(config, fh)
                for key, args in COMMANDS.items():
                    print("%s %d %s %s" % (name, i, key, digest_line(tmp, config_path, args, cold)),
                          flush=True)


if __name__ == "__main__":
    main()
