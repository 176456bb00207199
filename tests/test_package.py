"""The lazy package: what `import oscdecay` and each cold command load.

Every check of what gets imported runs in a fresh interpreter, since this
test process has long since loaded every module.
"""

import ast
import glob
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
import types

import pytest

import oscdecay
from oscdecay import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(oscdecay.__file__)))
ROOT = os.path.dirname(SRC)

CURVE_B = {
    "modes": {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]},
    "p": 200.0,
    "window": {"zeta_min": 0.05},
    "grid": {"t_min": 2.0, "t_max": 11.0, "points": 40},
}

WINDOW_ROW = {"cli", "kinematics", "window"}
# the commands that evaluate no time grid, and so load no numpy
WITHOUT_NUMPY = {"validate", "window"}
REST_ROW = {"cli", "kinematics", "restframe"}
BOOSTED_ROW = REST_ROW | {"boost", "specfun"}
# oscdecay.* modules (prefix dropped) each command loads in a fresh interpreter
LOADED = {
    "validate": WINDOW_ROW,
    "window": WINDOW_ROW,
    "curve --which rest": REST_ROW,
    "curve --which rate": REST_ROW,
    "curve --which split": REST_ROW,
    "curve --which boosted": BOOSTED_ROW,
    "phi": BOOSTED_ROW | {"window", "timemap"},
    "compare": BOOSTED_ROW | {"oracle"},
}


def fresh(code, *args):
    """stdout of code run in a fresh interpreter on the package in src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code] + list(args), capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "curve_b.json"
    path.write_text(json.dumps(CURVE_B))
    return str(path)


def test_import_loads_no_submodule_and_no_numpy():
    loaded = fresh("import sys, oscdecay\n"
                   "print(sorted(m for m in sys.modules if m.startswith('oscdecay.')"
                   " or m.split('.')[0] == 'numpy'))")
    assert loaded.strip() == "[]"


def test_every_export_is_its_home_modules_object():
    # a fresh interpreter, so that each name is bound by __getattr__
    homes = json.loads(fresh(
        "import importlib, json, oscdecay as od\n"
        "homes = {}\n"
        "for name in od.__all__:\n"
        "    value = getattr(od, name)\n"
        "    home = importlib.import_module(value.__module__)\n"
        "    assert getattr(home, name) is value is getattr(od, name), name\n"
        "    homes[name] = value.__module__\n"
        "print(json.dumps(homes))"))
    assert sorted(homes) == sorted(oscdecay.__all__) == [
        "BoostDomainError", "BoostedLaw", "CurveSeries", "ModeValidationError",
        "OracleConvergenceError", "QuadratureSpec", "TimeMapError", "WindowError",
        "WindowParams", "constraint_report", "decay_rate_rest", "direct_survival",
        "exponential_windows", "linearity_fit", "lorentz_factor", "mdd_analytic",
        "oracle_compare", "periods", "phi_p", "shifted_kinematics", "survival_boosted",
        "survival_rest", "survival_rest_split", "validate_modes",
    ]
    assert homes == {name: "oscdecay." + home for name, home in oscdecay._HOMES.items()}


def test_no_module_keeps_its_own_list_of_public_names():
    for path in sorted(glob.glob(os.path.join(SRC, "oscdecay", "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        assert not any(isinstance(target, ast.Name) and target.id == "__all__"
                       for node in tree.body if isinstance(node, ast.Assign)
                       for target in node.targets), path


def _tree(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _imported(tree, package):
    """The names a tree imports from package and from its submodules."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == package for alias in node.names}


def _reads(tree, alias):
    """The attributes a tree reads on the name alias."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == alias}


def _wrapped():
    """perfbench/spans.py's WRAPPED, read from its source: module -> traced names."""
    spans = _tree(os.path.join(ROOT, "perfbench", "spans.py"))
    wrapped, = (node.value for node in spans.body if isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "WRAPPED")
    return ast.literal_eval(wrapped)


def _reached():
    """The names a command, a demo or the benchmark reaches, and the classes src/ raises."""
    cli_tree = _tree(cli.__file__)
    reached = _reads(cli_tree, "_cli") | {alias.name for node in ast.walk(cli_tree)
                                          if isinstance(node, ast.ImportFrom) and node.level
                                          for alias in node.names}
    for path in glob.glob(os.path.join(ROOT, "demos", "*.py")):
        tree = _tree(path)
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "oscdecay"}
        reached |= _imported(tree, "oscdecay").union(*(_reads(tree, a) for a in aliases))
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        reached |= _imported(_tree(path), "oscdecay")
    reached |= set(_wrapped()["cli"])
    for path in glob.glob(os.path.join(SRC, "oscdecay", "*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    reached.add(exc.id)
    return reached


def _is_stand_in(fn):
    """Whether fn's whole body, past its docstring, raises NotImplementedError."""
    node, = ast.parse(textwrap.dedent(inspect.getsource(fn))).body
    body = node.body[1:] if ast.get_docstring(node) else node.body
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and ast.unparse(body[0].exc).startswith("NotImplementedError("))


# the retired names bound only for the tracer's lookup: ROADMAP item 7
# deletes them with their WRAPPED entries
STAND_INS = {"boost.upsilon", "boost.xi_fn", "boost.k_fn", "boost.phi_fn",
             "oracle.adaptive_gauss"}


def test_every_traced_name_resolves_and_only_item_7s_are_stand_ins():
    stand_ins = set()
    for home, names in _wrapped().items():
        module = importlib.import_module("oscdecay." + home)
        for name in names:
            # spans.installed()'s strict lookup
            fn = getattr(module, name)
            if _is_stand_in(fn):
                stand_ins.add("%s.%s" % (home, name))
                with pytest.raises(NotImplementedError):
                    fn()
    assert stand_ins == STAND_INS


def test_every_export_is_reached_by_a_command_a_demo_or_the_benchmark():
    # a name only tests reach is imported from its home module
    assert sorted(set(oscdecay.__all__) - _reached()) == []
    assert set(oscdecay.__all__) <= set(dir(oscdecay))


# the return types, kernels and test-only functions that are not public names,
# by home module
UNEXPORTED = {"kinematics": ["BoostContext", "RestModeSet"],
              "boost": ["BoostedEvaluation", "boosted_split", "survival_boosted_window_approx"],
              "restframe": ["amplitude_rest"], "window": ["TimeWindow", "w_fn"],
              "timemap": ["LinearityFit", "invert_survival_rest"],
              "oracle": ["ComparisonReport", "direct_boosted_amplitude"],
              "specfun": ["bessel_j1", "bessel_y1", "struve_h1"]}


def test_return_types_and_kernels_stay_in_their_home_modules():
    for home, names in UNEXPORTED.items():
        module = importlib.import_module("oscdecay." + home)
        for name in names:
            assert callable(getattr(module, name)) and not hasattr(oscdecay, name), name


# the result records, by home module: named tuples, whose classes generate
# no code at import, unlike dataclasses
RECORDS = {"boost": ["BoostedEvaluation"], "kinematics": ["RestModeSet", "BoostContext"],
           "oracle": ["QuadratureSpec", "ComparisonReport"], "restframe": ["CurveSeries"],
           "timemap": ["LinearityFit"],
           "window": ["WindowParams", "ExcludedMode", "TimeWindow", "ConstraintCheck",
                      "PeriodReport"]}


def test_result_records_are_frozen_named_tuples():
    for home, names in RECORDS.items():
        module = importlib.import_module("oscdecay." + home)
        for name in names:
            cls = getattr(module, name)
            assert issubclass(cls, tuple) and cls.__name__ == name, name
            assert cls._fields and cls.__slots__ == () and cls.__doc__, name
    modes = oscdecay.validate_modes(CURVE_B["modes"])
    ctx = oscdecay.shifted_kinematics(modes, CURVE_B["p"])
    window = oscdecay.exponential_windows(modes, ctx)
    for record in (modes, ctx, window, oscdecay.WindowParams(), oscdecay.QuadratureSpec()):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 1.0)
        with pytest.raises(AttributeError):
            record.extra = 1.0
        assert hash(record) == hash(tuple(getattr(record, name) for name in record._fields))
    assert repr(ctx) == "BoostContext(p=200.0, gamma=%r)" % ctx.gamma
    assert modes.N == 1 and oscdecay.QuadratureSpec()._asdict() == {
        "include_negative_mass": True, "abs_tol": 1e-8, "rel_tol": 1e-6}
    # _replace builds through each record's own checks
    assert type(modes._replace(w=[1.0]).w) is type(modes.w)
    with pytest.raises(oscdecay.WindowError, match="need 0 < zeta_min < zeta_max"):
        oscdecay.WindowParams()._replace(zeta_min=-1.0)
    with pytest.raises(ValueError, match="tolerances must be finite"):
        oscdecay.QuadratureSpec()._replace(abs_tol=0.0)
    series = oscdecay.CurveSeries(t=[1, 2], values=[0.5, 0.25])
    assert series.t.dtype == float
    with pytest.raises(ValueError, match="values must be finite"):
        series._replace(values=[0.5, float("inf")])


def test_submodules_resolve_as_attributes():
    assert fresh("import oscdecay as od; print(od.timemap.__name__, od.cli.__name__)").split() \
        == ["oscdecay.timemap", "oscdecay.cli"]


def test_unknown_attribute_raises_attribute_error():
    assert fresh("import oscdecay as od\n"
                 "try:\n"
                 "    od.not_a_name\n"
                 "except AttributeError as exc:\n"
                 "    print(exc)\n"
                 "print(hasattr(od, 'pole_sum'))").splitlines() \
        == ["module 'oscdecay' has no attribute 'not_a_name'", "False"]


def test_dir_lists_every_export():
    names = fresh("import oscdecay as od; print(' '.join(dir(od)))").split()
    assert set(oscdecay.__all__) <= set(names)
    assert "__version__" in names


@pytest.mark.parametrize("command", list(LOADED))
def test_cold_command_loads_only_the_modules_it_runs(config, tmp_path, command):
    # the result records are named tuples: dataclasses (and the inspect it
    # imports) cost a cold `validate` about a fifth of its time
    loaded = fresh(
        "import sys, oscdecay.cli\n"
        "code = oscdecay.cli.main(sys.argv[1:])\n"
        "print(code, ','.join(m for m in sys.modules if m.startswith('oscdecay.')),"
        " any(m.split('.')[0] == 'scipy' for m in sys.modules),"
        " any(m.split('.')[0] == 'numpy' for m in sys.modules),"
        " 'dataclasses' in sys.modules)",
        *command.split(), "--config", config, "--out", str(tmp_path / "out"), "--quiet")
    code, modules, scipy, numpy, dataclasses = loaded.split()
    assert code == "0"
    assert set(modules.split(',')) == {"oscdecay." + name for name in LOADED[command]}
    assert scipy == "False"
    assert numpy == str(command not in WITHOUT_NUMPY)
    assert dataclasses == "False"


@pytest.mark.parametrize("command, points", [
    ("curve --which rest", 181),
    ("curve --which boosted", 181),
    ("phi", 181),
    ("curve --which boosted", 2000),
])
def test_only_long_grids_load_the_csv_kernel(tmp_path, command, points):
    # cli._csv_text imports _shortest for cli.SHORTEST_MIN_ROWS rows or more
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(CURVE_B, grid=dict(CURVE_B["grid"], points=points))))
    loaded = fresh(
        "import sys, oscdecay.cli\n"
        "code = oscdecay.cli.main(sys.argv[1:])\n"
        "print(code, ','.join(m for m in sys.modules if m.startswith('oscdecay.')))",
        *command.split(), "--config", str(path), "--out", str(tmp_path / "out"), "--quiet")
    code, modules = loaded.split()
    kernel = {"_shortest"} if points == 2000 else set()
    assert code == "0"
    assert set(modules.split(',')) == {"oscdecay." + name for name in LOADED[command] | kernel}


@pytest.mark.parametrize("argv, loads_argparse", [
    ("validate", False),
    ("curve --which boosted", False),
    ("phi", False),
    ("-h", True),
    ("phi -h", True),
    ("phi --no-such-flag", True),
])
def test_argparse_loads_only_for_help_and_errors(config, tmp_path, argv, loads_argparse):
    # the documented spelling is read from the command table; argparse reads
    # the rest, so that help and errors stay its own
    loaded = fresh(
        "import sys, oscdecay.cli\n"
        "try:\n"
        "    code = oscdecay.cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, 'argparse' in sys.modules)",
        *argv.split(), "--config", config, "--out", str(tmp_path / "out"), "--quiet")
    assert loaded.split()[-2:] == [str(2 if "--no-such-flag" in argv else 0),
                                   str(loads_argparse)]


def test_cli_binds_each_lazy_name_on_first_read():
    # bound in the module's namespace, so later reads import nothing; the
    # three names cli imports itself are bound before any read
    eager = {"ModeValidationError", "shifted_kinematics", "validate_modes"}
    bound = fresh("import oscdecay, oscdecay.cli as cli\n"
                  "before = set(vars(cli))\n"
                  "for name in oscdecay.__all__:\n"
                  "    assert getattr(cli, name) is getattr(oscdecay, name), name\n"
                  "print(' '.join(sorted(set(vars(cli)) - before)))")
    assert sorted(bound.split()) == sorted(set(oscdecay.__all__) - eager)


@pytest.mark.parametrize("command", ["phi", "compare"])
def test_run_as_main_writes_what_main_writes(config, tmp_path, command):
    # under python -m the commands read their lazy names from __main__
    outs = []
    for way in ("main", "-m"):
        out = tmp_path / way
        argv = [command, "--config", config, "--out", str(out), "--quiet"]
        if way == "main":
            assert cli.main(argv) == 0
        else:
            env = dict(os.environ, PYTHONPATH=SRC)
            subprocess.run([sys.executable, "-m", "oscdecay.cli"] + argv, check=True, env=env,
                           timeout=60)
        outs.append([p.read_bytes() for p in sorted(tmp_path.glob(way + "*"))])
    assert outs[0] == outs[1]


def _spans():
    """perfbench/spans.py, executed from its source without importing or writing anything."""
    path = os.path.join(ROOT, "perfbench", "spans.py")
    module = types.ModuleType("spans")
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


def test_tracer_spans_every_layer_a_command_calls(config, tmp_path):
    spans = _spans()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for command in ("validate", "window", "curve --which rest", "curve --which boosted",
                        "phi", "compare"):
            argv = command.split() + ["--config", config, "--out", str(tmp_path / "out"),
                                      "--quiet"]
            assert cli.main(argv) == 0, command
    assert set(tracer.names) == {
        "cli.main", "kinematics.shifted_kinematics", "kinematics.validate_modes",
        "oracle.direct_survival", "oracle.oracle_compare", "restframe.survival_rest",
        "timemap.linearity_fit", "timemap.phi_p", "window.constraint_report",
        "window.exponential_windows", "window.periods",
    }
    # each traced name resolves on cli to its home module's own function
    for name in spans.WRAPPED["cli"]:
        value = getattr(cli, name)
        assert value is getattr(sys.modules[value.__module__], name)
