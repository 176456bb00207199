"""Shared fixtures: canonical parameter sets, the tests' reference laws,
reference data and the in-process CLI runner. The frozen spots of
composite formulas are computed here with mpmath at 50 digits; the oracle
spots and the special-function table are read from tests/data/."""

import cmath
import contextlib
import io
import json
import math
import os
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

import oscdecay as od
from oscdecay import cli
from oscdecay.kinematics import pole_energies
from oscdecay.specfun import branch_cut, xi_mass_factor

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# 50-digit amplitude and density spots (tools/gen_oracle_spots.py)
with open(os.path.join(DATA, "oracle_spots.json")) as f:
    ORACLE_SPOTS = json.load(f)

# Single-mode benchmark sets, keyed by (p, M) in units of Gamma = 1.
# These are the parameter combinations exercised throughout the suite.
BOOST_SETS = {
    "p150_m30": dict(p=150.0, M=30.0, Omega=5.0, a=0.09),
    "p200_m80": dict(p=200.0, M=80.0, Omega=10.0, a=0.04),
    "p210_m100": dict(p=210.0, M=100.0, Omega=10.0, a=0.04),
    "p200_m150": dict(p=200.0, M=150.0, Omega=40.0, a=0.01),
    "p100_m100": dict(p=100.0, M=100.0, Omega=10.0, a=0.04),
}

# Lorentz factors for the five sets above, quoted to 4 decimals.
GAMMA_TABLE = {
    "p150_m30": 5.0990,
    "p200_m80": 2.6926,
    "p210_m100": 2.3259,
    "p200_m150": 1.6667,
    "p100_m100": 1.4142,
}


# Mode sets at M = 80 whose laws near p = 0 are pinned: curve B and three
# modes of equal weight with halving frequencies.
NEAR_REST_SETS = {
    "curve_b": {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]},
    "three_modes": {"M": 80.0, "w": [1 / 3, 1 / 3, 1 / 3], "Gamma": [1.0, 1.5, 2.0],
                    "Omega": [10.0, 5.0, 2.5], "a": [0.04, 0.04, 0.04]},
}

# a valid single mode whose closed form passes 1 in-domain at p = 80
M15_SET = {"M": 15.0, "w": [1.0], "Gamma": [0.5], "Omega": [0.0], "a": [0.0]}

# tools/output_digest.py's edge configs 7 to 10, by their index there: curve
# B where p * p overflows; at times so short that P_p overflows; where p t
# overflows at a valid p and t; where p * p overflows on a grid that ends
# before the closed form's domain starts
DIGEST_EDGES = {
    7: {"modes": NEAR_REST_SETS["curve_b"], "p": 1e155,
        "grid": {"t_min": 1.0, "t_max": 5.0, "points": 11}},
    8: {"modes": NEAR_REST_SETS["curve_b"], "p": 40.0,
        "grid": {"t_min": 1e-300, "t_max": 1.0, "points": 11, "spacing": "log"}},
    9: {"modes": NEAR_REST_SETS["curve_b"], "p": 1e75,
        "grid": {"t_min": 1.0, "t_max": 1e240, "points": 11, "spacing": "log"}},
    10: {"modes": NEAR_REST_SETS["curve_b"], "p": 6.655143227265858e+213,
         "grid": {"t_min": 8.332162274235253e-226, "t_max": 4.681074917944925e-35,
                  "points": 6, "spacing": "log"}},
}


def run_cli(tmp_path, config, command):
    """Run `oscdecay <command> --config <config> --out <out>` through
    cli.main in this process, with config written to tmp_path/config.json
    and out at tmp_path/out. Returns the exit code, the stderr text, the
    warnings' messages, each shown once as a fresh interpreter shows it,
    and the text of out and of out.fit.json (None where absent); stale
    outputs of an earlier run are removed first."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    files = [out, tmp_path / "out.fit.json"]
    for f in files:
        if f.exists():
            f.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        code = cli.main(command.split() + ["--config", str(path), "--out", str(out)])
    texts = tuple(f.read_text() if f.exists() else None for f in files)
    return code, err.getvalue(), [str(w.message) for w in caught], texts


def branch_cut_formula(j1, y1, h1, pi=math.pi):
    """(A, B) of specfun.branch_cut composed from J1, Y1 and H1 evaluated on
    their own, scalars or arrays, or mpmath numbers with pi=mpmath.pi: the
    tests' one spelling of the formula."""
    A = (0.5 * pi * h1 - 1.0) - 1j * (0.5 * pi * j1)
    B = 1.0 + 0.5 * pi * (y1 - h1)
    return A, B


def xi_fn(M: float, p: float, t: float) -> complex:
    """Oscillatory tail kernel of one mass: xi = A(pt) + c B(pt), with
    (A, B) = specfun.branch_cut(pt) and c = specfun.xi_mass_factor(M, p).

    M, p and t must be finite and > 0: Y1 is singular at zero argument, and
    the p -> 0 limit is the rest branch of boost.BoostedLaw.
    """
    M, p, t = float(M), float(p), float(t)
    A, B = branch_cut(p * t)
    return A + xi_mass_factor(M, p) * B


def k_fn(M: float, Gamma: float, p: float, Omega: float, a: float, t: float) -> complex:
    """Pole part of one boosted mode, the per-mode reference for BoostedLaw.

    (1-a) e^{-Y(M) t/2} + (a/2)[e^{-Y(M-Omega) t/2} + e^{-Y(M+Omega) t/2}]
    where Y(m) = 2i kinematics.pole_energies(m, Gamma, p). At p = 0 this
    reduces to the rest-frame phase e^{-i M t} times the damped cosine
    factor. t must be finite and >= 0.
    """
    t = float(t)

    def pole(m):
        # 2i E from one-entry arrays: numpy's complex square root, the one
        # the grid law takes, not cmath's
        y = complex(2j * pole_energies(np.array([float(m)]), np.array([float(Gamma)]),
                                       float(p))[0])
        return cmath.exp(-0.5 * t * y)

    out = (1.0 - a) * pole(M)
    if a > 0.0:
        out += 0.5 * a * (pole(M - Omega) + pole(M + Omega))
    return out


def phi_fn(M: float, p: float, Omega: float, a: float, t: float) -> complex:
    """Branch-cut part of one boosted mode, the per-mode reference for BoostedLaw.

    (1-a) Xi(M) + (a/2)[Xi(M-Omega)/(1-Omega/M)^2 + Xi(M+Omega)/(1+Omega/M)^2]
    with Xi = xi_fn(., p, t). p and t must be finite and > 0; p = 0 is
    BoostedLaw's rest branch.
    """
    out = (1.0 - a) * xi_fn(M, p, t)
    if a > 0.0:
        rm = 1.0 - Omega / M
        rp = 1.0 + Omega / M
        out += 0.5 * a * (
            xi_fn(M - Omega, p, t) / (rm * rm) + xi_fn(M + Omega, p, t) / (rp * rp)
        )
    return out


def make_single_mode(M, Omega, a, Gamma=1.0, w=1.0):
    return od.validate_modes(
        {"M": M, "w": [w], "Gamma": [Gamma], "Omega": [Omega], "a": [a]}
    )


def make_boosted(key):
    cfg = BOOST_SETS[key]
    modes = make_single_mode(cfg["M"], cfg["Omega"], cfg["a"])
    ctx = od.shifted_kinematics(modes, cfg["p"])
    return modes, ctx


@pytest.fixture(scope="session")
def frozen_spots():
    """Four reference values of composite formulas that no other test checks,
    computed with mpmath at 50 digits and rounded to doubles, complex ones as
    [re, im] pairs. The branch-cut values read branch_cut_formula on
    mpmath's J1, Y1 and H1, so the formula is not spelt here a second time."""
    mpf = mpmath.mpf

    def xi(M, p, t):
        z = p * t
        A, B = branch_cut_formula(mpmath.besselj(1, z), mpmath.bessely(1, z),
                                  mpmath.struveh(1, z), pi=mpmath.pi)
        r = (p / M) ** 2
        return A + (1 - r) / (1 + r) ** 2 * B

    def phi(M, p, Omega, a, t):
        lo = xi(M - Omega, p, t) / (1 - Omega / M) ** 2
        hi = xi(M + Omega, p, t) / (1 + Omega / M) ** 2
        return (1 - a) * xi(M, p, t) + (a / 2) * (lo + hi)

    def W(M, Omega, a):
        r = (Omega / M) ** 2
        return 1 + a * r * (3 - r) / (1 - r) ** 2

    def c2(z):
        return [float(z.real), float(z.imag)]

    with mpmath.workdps(50):
        a = mpf("0.04")
        return {
            "xi_M100_p210_t1": c2(xi(mpf(100), mpf(210), mpf(1))),
            "phi_M80_p200_Om10_a004_t5": c2(phi(mpf(80), mpf(200), mpf(10), a, mpf(5))),
            "W_M100_Om10_a004": float(W(mpf(100), mpf(10), a)),
            "j1_first_zero": float(mpmath.findroot(lambda x: mpmath.besselj(1, x), mpf("3.83"))),
        }


@pytest.fixture(scope="session")
def specfun_table():
    with open(os.path.join(DATA, "specfun_reference.json")) as f:
        return json.load(f)


@pytest.fixture
def mode_p200_m80():
    return make_boosted("p200_m80")


@pytest.fixture
def heavy_scaling_set():
    # heavy, narrow system: scaling-law regime (xi' ~ 3e-6, Omega = M/100)
    modes = make_single_mode(2000.0, 20.0, 0.02)
    ctx = od.shifted_kinematics(modes, 2000.0)
    return modes, ctx


def _omega_cap(M, g, a):
    # the largest Omega that keeps a mode valid: narrow width,
    # Gamma/(M - Omega) <= 0.05, and rate positivity, Gamma > 2 a Omega / sqrt(1 - 2a)
    cap = M - 20.0 * g
    if 2.0 * a * cap > g * np.sqrt(1.0 - 2.0 * a):
        cap = g * np.sqrt(1.0 - 2.0 * a) / (2.0 * a)
    return cap


@st.composite
def boosted_grids(draw, max_modes=4, points=40):
    """A valid mode set of up to max_modes modes, a boost p in [0.5 M, 3 M]
    and a lab time grid that starts inside the validity domain and runs
    far enough into the tail to cross P = 1e-2."""
    n = draw(st.integers(min_value=1, max_value=max_modes))
    M = draw(st.floats(min_value=50.0, max_value=500.0))
    gammas = sorted(draw(st.lists(st.floats(min_value=0.2, max_value=2.0),
                                  min_size=n, max_size=n, unique=True)))
    raw_w = draw(st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=n, max_size=n))
    a = draw(st.lists(st.floats(min_value=0.0, max_value=0.45), min_size=n, max_size=n))
    omega = [0.99 * _omega_cap(M, g, aj) * draw(st.floats(min_value=0.0, max_value=1.0))
             for g, aj in zip(gammas, a)]
    modes = od.validate_modes({"M": M, "w": list(np.array(raw_w) / sum(raw_w)),
                               "Gamma": gammas, "Omega": omega, "a": a})
    ctx = od.shifted_kinematics(modes, draw(st.floats(min_value=0.5, max_value=3.0)) * M)
    t = np.linspace(0.5 / gammas[0], 12.0 * ctx.gamma / gammas[0], points)
    return modes, ctx, t


def wide_boost_draw(rng, points=40):
    """One seeded draw that reaches p/M^2 ~ 1, where the closed form can pass
    1 in-domain (ROADMAP item 12): 1-3 valid modes, M log-uniform in
    [10, 300], widths up to 0.04 M, p/M log-uniform in [1e-6, 30], and a log
    grid from the start of the validity domain to 50 times it."""
    n = int(rng.integers(1, 4))
    M = 10.0 ** rng.uniform(1.0, math.log10(300.0))
    gammas = np.sort(0.04 * M * rng.uniform(0.01, 1.0, n))
    a = rng.uniform(0.0, 0.45, n)
    omega = [0.99 * _omega_cap(M, g, aj) * rng.uniform() for g, aj in zip(gammas, a)]
    w = rng.uniform(0.1, 1.0, n)
    modes = od.validate_modes({"M": M, "w": list(w / w.sum()), "Gamma": list(gammas),
                               "Omega": omega, "a": list(a)})
    ctx = od.shifted_kinematics(modes, M * 10.0 ** rng.uniform(-6.0, math.log10(30.0)))
    # the domain starts where (M - Omega_max) t reaches 10 or t passes 1/(10 Gamma_1)
    start = min(10.0 / (M - max(omega)), 0.1 / gammas[0])
    return modes, ctx, np.geomspace(start, 50.0 * start, points)


# one printed line per acceptance check, flushed after the test summary so
# pytest's capture cannot swallow it
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
