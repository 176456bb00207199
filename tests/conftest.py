"""Shared fixtures: canonical parameter sets and frozen reference data."""

import cmath
import json
import math
import os

import numpy as np
import pytest
from hypothesis import strategies as st

import oscdecay as od
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


def branch_cut_formula(j1, y1, h1):
    """(A, B) of specfun.branch_cut composed from J1, Y1 and H1 evaluated on
    their own, scalars or arrays: the tests' one spelling of the formula."""
    A = (0.5 * math.pi * h1 - 1.0) - 1j * (0.5 * math.pi * j1)
    B = 1.0 + 0.5 * math.pi * (y1 - h1)
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
    with open(os.path.join(DATA, "frozen_spots.json")) as f:
        return json.load(f)


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
    omega = []
    for g, aj in zip(gammas, a):
        # narrow width: Gamma/(M - Omega) <= 0.05; rate positivity:
        # Gamma > 2 a Omega / sqrt(1 - 2a)
        cap = M - 20.0 * g
        if 2.0 * aj * cap > g * np.sqrt(1.0 - 2.0 * aj):
            cap = g * np.sqrt(1.0 - 2.0 * aj) / (2.0 * aj)
        omega.append(0.99 * cap * draw(st.floats(min_value=0.0, max_value=1.0)))
    modes = od.validate_modes({"M": M, "w": list(np.array(raw_w) / sum(raw_w)),
                               "Gamma": gammas, "Omega": omega, "a": a})
    ctx = od.shifted_kinematics(modes, draw(st.floats(min_value=0.5, max_value=3.0)) * M)
    t = np.linspace(0.5 / gammas[0], 12.0 * ctx.gamma / gammas[0], points)
    return modes, ctx, t


# one printed line per acceptance check, flushed after the test summary so
# pytest's capture cannot swallow it
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
