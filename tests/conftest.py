"""Shared fixtures: canonical parameter sets and frozen reference data."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import strategies as st

import oscdecay as od

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

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


def branch_cut_formula(j1, y1, h1):
    """(A, B) of specfun.branch_cut composed from J1, Y1 and H1 evaluated on
    their own, scalars or arrays: the tests' one spelling of the formula."""
    A = (0.5 * math.pi * h1 - 1.0) - 1j * (0.5 * math.pi * j1)
    B = 1.0 + 0.5 * math.pi * (y1 - h1)
    return A, B


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
