"""Rest-frame decay law, split form, decay rate, mass density."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscdecay as od
from oscdecay.restframe import _RestLaw

from conftest import ORACLE_SPOTS, make_single_mode


@pytest.mark.parametrize("t", [-1.0, math.nan])
def test_every_entry_refuses_a_time_with_one_message(t):
    modes = make_single_mode(80.0, 10.0, 0.04)
    message = "^time must be finite and >= 0, got %r$" % t
    law = od.BoostedLaw(modes, od.shifted_kinematics(modes, 200.0))
    with pytest.raises(od.BoostDomainError, match=message):
        law([1.0, t])
    for call in (od.survival_rest, od.decay_rate_rest, od.survival_rest_split,
                 lambda m, tt: od.direct_survival(m, 200.0, tt)):
        with pytest.raises(ValueError, match=message):
            call(modes, [1.0, t])


TWO_MODE = {
    "M": 100.0,
    "w": [0.7, 0.3],
    "Gamma": [1.0, 2.5],
    "Omega": [10.0, 0.0],
    "a": [0.04, 0.0],
}


def test_survival_at_zero_is_one():
    modes = make_single_mode(100.0, 10.0, 0.04)
    assert od.survival_rest(modes, 0.0) == 1.0
    modes2 = od.validate_modes(TWO_MODE)
    assert od.survival_rest(modes2, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_survival_spot_value():
    # single mode: P0(1) = e^-1 (0.96 + 0.04 cos 10)^2
    modes = make_single_mode(100.0, 10.0, 0.04)
    expected = math.exp(-1.0) * (0.96 + 0.04 * math.cos(10.0)) ** 2
    assert od.survival_rest(modes, 1.0) == pytest.approx(expected, rel=1e-14)


def test_pure_exponential_mode():
    modes = make_single_mode(100.0, 0.0, 0.0)
    t = np.linspace(0.0, 30.0, 50)
    assert od.survival_rest(modes, t) == pytest.approx(np.exp(-t), rel=1e-13)


def test_strict_monotone_decrease_on_log_grid():
    modes = make_single_mode(100.0, 10.0, 0.04)
    t = np.geomspace(1e-4, 50.0, 400)
    vals = od.survival_rest(modes, t)
    assert np.all(np.diff(vals) < 0)


def test_strict_monotone_decrease_two_mode():
    modes = od.validate_modes(TWO_MODE)
    t = np.geomspace(1e-4, 40.0, 400)
    vals = od.survival_rest(modes, t)
    assert np.all(np.diff(vals) < 0)


def test_split_additivity():
    modes = od.validate_modes(TWO_MODE)
    t = np.linspace(0.0, 25.0, 200)
    e, o = od.survival_rest_split(modes, t)
    total = od.survival_rest(modes, t)
    assert np.max(np.abs(e + o - total)) <= 1e-12 * np.max(total)


def test_split_exponential_part_has_no_oscillation():
    # exp part of the split must be a pure sum of decaying exponentials:
    # its second log-derivative vanishes for a single mode
    modes = make_single_mode(100.0, 10.0, 0.04)
    t = np.linspace(1.0, 10.0, 200)
    e, _ = od.survival_rest_split(modes, t)
    log_e = np.log(e)
    # single mode: exp part = [(1-a)^2 + a^2/2] e^{-Gamma t}
    coeff = (1 - 0.04) ** 2 + 0.04 ** 2 / 2
    assert log_e == pytest.approx(np.log(coeff) - t, rel=1e-10)


def test_split_zero_amplitude_collapses_to_exponential():
    modes = make_single_mode(100.0, 0.0, 0.0)
    t = np.linspace(0.0, 10.0, 50)
    e, o = od.survival_rest_split(modes, t)
    assert np.max(np.abs(o)) == 0.0
    assert e == pytest.approx(np.exp(-t), rel=1e-13)


def split_double_sum(modes, t):
    """The defining double sum of survival_rest_split, term by term."""
    w, a, Om, Ga = (np.array(v) for v in (modes.w, modes.a, modes.Omega, modes.Gamma))
    nu1 = ((Om[:, None] == Om[None, :]) | np.eye(modes.N, dtype=bool)).astype(float)
    nu2 = 1.0 - nu1
    e_jl = np.exp(-0.5 * (Ga[:, None] + Ga[None, :])[:, :, None] * t)
    ww = w[:, None] * w[None, :]
    c_exp = ww * ((1.0 - a)[:, None] * (1.0 - a)[None, :] + 0.5 * nu1 * a[:, None] * a[None, :])
    exp_part = (c_exp[:, :, None] * e_jl).sum(axis=(0, 1))
    cos_j = np.cos(np.outer(Om, t))
    cos_sum = np.cos((Om[:, None] + Om[None, :])[:, :, None] * t)
    cos_diff = np.cos((Om[:, None] - Om[None, :])[:, :, None] * t)
    bracket = (
        2.0 * (1.0 - a)[None, :, None] * cos_j[:, None, :]
        + 0.5 * a[None, :, None] * (cos_sum + nu2[:, :, None] * cos_diff)
    )
    osc_part = ((ww * a[:, None])[:, :, None] * e_jl * bracket).sum(axis=(0, 1))
    return exp_part, osc_part


SPLIT_SETS = {
    "equal-frequency pair": {"M": 100.0, "w": [0.6, 0.4], "Gamma": [1.0, 1.5],
                             "Omega": [5.0, 5.0], "a": [0.04, 0.08]},
    "zero-frequency depth": {"M": 100.0, "w": [0.5, 0.3, 0.2], "Gamma": [1.0, 1.5, 2.0],
                             "Omega": [0.0, 5.0, 8.0], "a": [0.1, 0.0, 0.03]},
    "four modes": {"M": 100.0, "w": [0.4, 0.3, 0.2, 0.1], "Gamma": [1.0, 1.5, 2.0, 3.0],
                   "Omega": [10.0, 5.0, 7.5, 2.5], "a": [0.04, 0.1, 0.02, 0.2]},
}


@pytest.mark.parametrize("name", sorted(SPLIT_SETS))
def test_split_matches_its_defining_double_sum(name):
    # from t = 0 through the decay into the deep tail, where P0 underflows
    modes = od.validate_modes(SPLIT_SETS[name])
    t = np.concatenate([np.linspace(0.0, 30.0, 601), np.geomspace(30.0, 1600.0, 200)[1:]])
    e, o = od.survival_rest_split(modes, t)
    ref_e, ref_o = split_double_sum(modes, t)
    assert np.max(np.abs(e - ref_e)) <= 1e-15
    assert np.max(np.abs(o - ref_o)) <= 1e-15
    # and relative to the exponential part wherever it is a normal float
    normal = ref_e > np.finfo(float).tiny
    assert np.max(np.abs(e - ref_e)[normal] / ref_e[normal]) <= 1e-14
    assert np.max(np.abs(o - ref_o)[normal] / ref_e[normal]) <= 1e-14


def test_initial_decay_rate():
    # dP0/dt at t=0 equals -sum w_j Gamma_j, not zero
    modes = od.validate_modes(TWO_MODE)
    expected = -(0.7 * 1.0 + 0.3 * 2.5)
    assert od.decay_rate_rest(modes, 0.0) == pytest.approx(expected, rel=1e-13)


def test_decay_rate_matches_finite_difference():
    modes = od.validate_modes(TWO_MODE)
    t = np.linspace(0.5, 12.0, 40)
    h = 1e-6
    fd = (od.survival_rest(modes, t + h) - od.survival_rest(modes, t - h)) / (2 * h)
    exact = od.decay_rate_rest(modes, t)
    assert np.max(np.abs(fd - exact)) <= 1e-8


def test_decay_rate_nonpositive_for_valid_sets():
    modes = od.validate_modes(TWO_MODE)
    t = np.geomspace(1e-3, 40.0, 300)
    assert np.all(od.decay_rate_rest(modes, t) <= 0.0)


def test_decay_rate_coefficients_ranges():
    # the per-mode columns lam1, lam2, beta of the rate the rest law evaluates
    lam1, lam2, beta = _RestLaw(od.validate_modes(TWO_MODE))._rate_terms
    assert np.all(lam1 > 0)
    assert np.all(lam2 >= 0)
    assert np.all((beta >= 0) & (beta < math.pi / 2))
    # beta = 0 exactly for the non-oscillating mode
    assert beta[1, 0] == 0.0


def test_mdd_symmetry_about_resonance():
    modes = make_single_mode(100.0, 10.0, 0.04)
    off = np.linspace(0.0, 30.0, 100)
    left = od.mdd_analytic(modes, 100.0 - off)
    right = od.mdd_analytic(modes, 100.0 + off)
    assert left == pytest.approx(right, rel=1e-13)


def test_mdd_peak_value_pure_lorentzian():
    modes = make_single_mode(100.0, 0.0, 0.0)
    assert od.mdd_analytic(modes, 100.0) == pytest.approx(2.0 / math.pi, rel=1e-13)


def test_mdd_normalization():
    modes = make_single_mode(100.0, 10.0, 0.04)
    m = np.linspace(100.0 - 4000.0, 100.0 + 4000.0, 400001)
    total = np.trapezoid(od.mdd_analytic(modes, m), m)
    assert total == pytest.approx(1.0, abs=2e-4)


def test_mdd_rejects_nan_and_vanishes_at_infinite_mass():
    modes = make_single_mode(100.0, 10.0, 0.04)
    for bad in (math.nan, np.array([100.0, math.nan])):
        with pytest.raises(ValueError, match="mass must not be NaN"):
            od.mdd_analytic(modes, bad)
    assert od.mdd_analytic(modes, math.inf) == 0.0
    assert od.mdd_analytic(modes, -math.inf) == 0.0
    assert od.mdd_analytic(modes, np.array([-math.inf, math.inf])).tolist() == [0.0, 0.0]


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.45),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=-80.0, max_value=80.0),
)
def test_mdd_nonnegative_without_abs(a, Omega, off):
    # positivity holds termwise, so the defining abs never activates
    if a > 0 and 1.0 <= 2 * a * Omega / math.sqrt(1 - 2 * a):
        return
    modes = make_single_mode(200.0, Omega, a)
    w = od.mdd_analytic(modes, 200.0 + off)
    assert w >= 0.0


def test_mdd_numeric_matches_analytic():
    # the defining cosine transform of sqrt(P0), integrated with mpmath at
    # 50 digits (tools/gen_oracle_spots.py): one mode, an a = 0 mode without
    # side terms, and an Omega = 0, a > 0 mode whose three terms share a centre
    for spot in ORACLE_SPOTS["mdd"]:
        ana = od.mdd_analytic(od.validate_modes(spot["modes"]), spot["m"])
        assert ana == pytest.approx(spot["mdd"], abs=0.0, rel=1e-12)


def test_curve_series_requires_increasing_grid():
    with pytest.raises(ValueError):
        od.CurveSeries(t=np.array([1.0, 1.0]), values=np.array([0.5, 0.5]))


@pytest.mark.parametrize("fields, message", [
    (dict(t=np.zeros((2, 2))), "t must be a non-empty 1-d array"),
    (dict(t=np.array([])), "t must be a non-empty 1-d array"),
    (dict(values=np.array([0.5])), "values shape (1,) != t shape (2,)"),
    (dict(values=np.array([0.5, math.nan])), "values must be finite"),
    (dict(values=np.array([0.5, math.inf])), "values must be finite"),
], ids=["t_2d", "t_empty", "shape_differs", "value_nan", "rate_inf"])
def test_curve_series_refusals(fields, message):
    series = dict(t=np.array([0.0, 1.0]), values=np.array([0.5, 0.4]))
    series.update(fields)
    with pytest.raises(ValueError) as err:
        od.CurveSeries(**series)
    assert str(err.value) == message


def test_negative_times_rejected():
    modes = make_single_mode(100.0, 10.0, 0.04)
    with pytest.raises(ValueError):
        od.survival_rest(modes, -1.0)
