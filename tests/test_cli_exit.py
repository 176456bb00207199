"""How an oscdecay process ends: cli.run, the entry point of `python -m
oscdecay.cli` and of the console script, against cli.main.

run() returns main()'s exit code without the interpreter's teardown, so
every check here runs the CLI in a fresh interpreter: exit codes, stdout
and stderr must be main()'s, atexit handlers must still run, and a stream
that cannot be flushed must take the interpreter's own exit.
"""

import json
import os
import subprocess
import sys

import pytest

import oscdecay
from oscdecay.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(oscdecay.__file__)))

CURVE_B = {
    "modes": {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]},
    "p": 200.0,
    "window": {"zeta_min": 0.05},
    # 21 points, so that phi's sidecar holds a fit (it needs 20 in the window)
    "grid": {"t_min": 2.0, "t_max": 6.0, "points": 21},
    "oracle": {"abs_tol": 1e-7, "rel_tol": 1e-5},
}

# exit code -> (command, the config's changes to curve B); None: no config file
EXITS = {
    0: ("validate", {}),
    1: ("compare", {"compare": {"max_rel_deviation": 1e-12}}),
    2: ("curve --which rest", {"grid": {"t_min": 2.0, "t_max": 6.0, "points": 1}}),
    3: ("window", None),
    # at the 512-node cap the sum still changes by ~4e-18, far above 1e-300
    4: ("compare", {"grid": {"t_min": 2.0, "t_max": 3.0, "points": 5},
                    "oracle": {"abs_tol": 1e-300, "rel_tol": 0}}),
}

# a run() whose SystemExit is reported on stdout: os._exit raises none
RUN_REPORTING_SYSTEM_EXIT = (
    "import sys\n"
    "from oscdecay.cli import run\n"
    "try:\n"
    "    run()\n"
    "except SystemExit as exc:\n"
    "    sys.stdout = sys.__stdout__\n"
    "    print('SystemExit', exc.code)\n"
    "    raise\n"
)


def fresh(*args, dev=False):
    """The completed process of a fresh interpreter on the package in src/,
    its stdout block-buffered into a pipe, as it is by default."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    flags = ["-X", "dev"] if dev else []
    return subprocess.run([sys.executable] + flags + list(args), capture_output=True,
                          text=True, env=env, timeout=60)


def cold(argv):
    return fresh("-m", "oscdecay.cli", *argv)


def in_process(argv, capsys):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def write_config(tmp_path, changes):
    path = tmp_path / "config.json"
    if changes is not None:
        path.write_text(json.dumps(dict(CURVE_B, **changes)))
    return str(path)


@pytest.mark.parametrize("code", sorted(EXITS))
def test_exit_code_and_stderr_are_mains(tmp_path, capsys, code):
    command, changes = EXITS[code]
    argv = command.split() + ["--config", write_config(tmp_path, changes),
                              "--out", str(tmp_path / "out")]
    expected = in_process(argv, capsys)
    assert expected[0] == code
    proc = cold(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize("which", ["rest", "boosted"])
def test_stdout_through_a_pipe_is_mains(tmp_path, capsys, which):
    # stdout to a pipe is block-buffered: run() must flush it before it exits
    argv = ["curve", "--which", which, "--config", write_config(tmp_path, {}), "--quiet"]
    expected = in_process(argv, capsys)
    assert expected[0] == 0 and expected[1].count("\n") == 22
    proc = cold(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_atexit_handlers_run_and_their_output_is_flushed(tmp_path):
    proc = fresh("-c", "import atexit\n"
                       "atexit.register(print, 'handler ran')\n" + RUN_REPORTING_SYSTEM_EXIT,
                 "validate", "--config", write_config(tmp_path, {}), "--quiet")
    assert proc.returncode == 0, proc.stderr
    # the report, then the handler's line; no SystemExit, so no teardown
    assert proc.stdout.endswith("}\nhandler ran\n")
    assert proc.stdout.count("handler ran") == 1
    assert "SystemExit" not in proc.stdout


@pytest.mark.parametrize("code", [0, 2])
def test_a_failing_flush_takes_sys_exit(tmp_path, code):
    # a stdout whose reader has gone: the interpreter's own exit reports it
    command, changes = EXITS[code]
    proc = fresh("-c", "import sys\n"
                       "class Closed:\n"
                       "    def write(self, text):\n"
                       "        return len(text)\n"
                       "    def flush(self):\n"
                       "        raise BrokenPipeError(32, 'Broken pipe')\n"
                       "sys.stdout = Closed()\n" + RUN_REPORTING_SYSTEM_EXIT,
                 *command.split(), "--config", write_config(tmp_path, changes), "--quiet")
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == "SystemExit %d\n" % code


def test_a_process_without_stdout_exits_as_main_does(tmp_path, capsys):
    # started with fd 1 closed, sys.stdout is None and cannot be flushed
    argv = ["validate", "--config", write_config(tmp_path, {}), "--out", str(tmp_path / "out")]
    expected = in_process(argv, capsys)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "oscdecay.cli"] + argv, env=env, timeout=60,
                          stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (expected[0], expected[2])


@pytest.mark.parametrize("preamble, stdout", [
    # os._exit would end the thread mid-way; the interpreter's exit joins it
    ("import threading\nthreading.Timer(0.2, print, ['thread ran']).start()\n",
     "SystemExit 0\nthread ran\n"),
    ("import atexit\ndel atexit._run_exitfuncs\n", "SystemExit 0\n"),
], ids=["a live thread", "no atexit._run_exitfuncs"])
def test_what_the_fast_exit_would_lose_takes_sys_exit(tmp_path, preamble, stdout):
    proc = fresh("-c", preamble + RUN_REPORTING_SYSTEM_EXIT,
                 "validate", "--config", write_config(tmp_path, {}), "--out",
                 str(tmp_path / "out"), "--quiet")
    assert (proc.returncode, proc.stdout) == (0, stdout), proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["phi", "--help"], ["phi", "--no-such-flag"],
                                  []])
def test_help_and_usage_errors_are_argparses(capsys, monkeypatch, argv):
    # argparse wraps its text to the terminal's width, read from COLUMNS first
    monkeypatch.setenv("COLUMNS", "80")
    expected = in_process(argv, capsys)
    assert expected[0] == (0 if "--help" in argv else 2)
    proc = cold(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize("argv", [
    ["validate"], ["window"], ["curve", "--which", "rest"], ["curve", "--which", "rate"],
    ["curve", "--which", "split"], ["curve", "--which", "boosted"], ["phi"], ["compare"],
], ids=" ".join)
def test_every_file_is_closed_before_main_returns(tmp_path, argv):
    # run() skips the teardown that would flush and close a file left open,
    # so main must close each itself; -X dev warns of any it leaves
    proc = fresh("-c", "import sys\n"
                       "from oscdecay.cli import main\n"
                       "sys.exit(main(sys.argv[1:]))",
                 *argv, "--config", write_config(tmp_path, {}), "--out", str(tmp_path / "out"),
                 "--quiet", dev=True)
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr
