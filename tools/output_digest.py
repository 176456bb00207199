"""Print a digest of every CLI output over the benchmark's config pools.

Draws the config pool of each workload in perfbench/configs.py from its
master seed and runs every command on every config: validate, window,
curve --which rest/rate/split/boosted, phi (with its fit sidecar) and
compare. The commands run through oscdecay.cli.main in this process, on
the package in ./src. Each prints one line: workload, config index,
command, exit code, the sha256 of each output file and the stderr text.

With --cold, only the pools of the cold workloads (cli_cold) are drawn,
and each command runs as `python -m oscdecay.cli` in a fresh interpreter,
the way users run it: its lines must equal the in-process lines of the
same pool, so that the process's own exit changes no output, exit code
or message:

    python3 tools/output_digest.py --cold > cold.txt
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
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import configs  # noqa: E402
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
        with contextlib.redirect_stderr(err):
            code = cli_main(argv)
        stderr = err.getvalue()
    # the scratch directory's name differs from run to run
    stderr = stderr.replace(tmp, "<tmp>")
    return "exit=%s %s stderr=%r" % (code, " ".join(map(_sha256, paths)), stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cold", action="store_true",
                        help="the cold workloads' pools only, each command a fresh interpreter")
    cold = parser.parse_args().cold
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        for name, workload in sorted(configs.WORKLOADS.items()):
            if cold and not workload.cold:
                continue
            for i, config in enumerate(configs.generate(workload, workload.master_seed)):
                with open(config_path, "w") as fh:
                    json.dump(config, fh)
                for key, args in COMMANDS.items():
                    print("%s %d %s %s" % (name, i, key, digest_line(tmp, config_path, args, cold)),
                          flush=True)


if __name__ == "__main__":
    main()
