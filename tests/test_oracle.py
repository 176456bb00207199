"""Steepest-descent oracle for the boosted survival law, checked against
50-digit mpmath spots of the real-axis mass integral."""

import cmath
import math
import os
import sys

import numpy as np
import pytest

import oscdecay as od
from oscdecay.oracle import (
    OracleConvergenceError,
    QuadratureSpec,
    _Path,
    direct_boosted_amplitude,
    direct_survival,
    oracle_compare,
)
from oscdecay.restframe import amplitude_rest

from conftest import NEAR_REST_SETS, ORACLE_SPOTS, make_single_mode

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

import gen_oracle_spots  # noqa: E402


FAST = QuadratureSpec(abs_tol=1e-7, rel_tol=1e-5)


def test_amplitude_at_zero_time_is_normalization(mode_p200_m80):
    # A_p(0) = integral of the density, 1 over the whole line
    modes, _ = mode_p200_m80
    amp = direct_boosted_amplitude(modes, 200.0, 0.0, FAST)
    assert amp == 1.0


def test_rest_amplitude_matches_analytic_model():
    # p = 0: the integral reproduces the rest amplitude, up to the global
    # e^{-iMt} phase the analytic form omits
    modes = make_single_mode(100.0, 10.0, 0.04)
    for t in (0.5, 2.0, 5.0, 10.0):
        amp = direct_boosted_amplitude(modes, 0.0, t, FAST)
        assert abs(abs(amp) - amplitude_rest(modes, t)) <= 1e-4


def test_rest_amplitude_reality_up_to_global_phase():
    # the density is even about M, so e^{iMt} A_0(t) would be real on a
    # domain symmetric about M; the whole line reaches m < 0 where the
    # energy |m| folds the phase, leaving an imaginary part of order
    # density(0)/t ~ Gamma/(2 pi M^2 t)
    modes = make_single_mode(100.0, 10.0, 0.04)
    for t in (1.0, 4.0):
        full = complex(direct_boosted_amplitude(modes, 0.0, t, FAST))
        fold_scale = modes.Gamma[0] / (2.0 * math.pi * modes.M**2 * t)
        assert abs((full * cmath.exp(1j * modes.M * t)).imag) <= 10.0 * fold_scale


def test_rest_survival_two_mode():
    modes = od.validate_modes(
        {"M": 100.0, "w": [0.7, 0.3], "Gamma": [1.0, 2.5],
         "Omega": [10.0, 0.0], "a": [0.04, 0.0]}
    )
    got = direct_survival(modes, 0.0, 1.0, FAST)
    want = od.survival_rest(modes, 1.0)
    assert abs(got - want) <= 1e-4


def test_boosted_survival_matches_closed_form(mode_p200_m80):
    modes, ctx = mode_p200_m80
    got = direct_survival(modes, 200.0, 5.0, FAST)
    want = od.survival_boosted(modes, ctx, 5.0).P_p
    assert abs(got - want) <= 1e-2 * want


def test_negative_mass_region_is_negligible():
    # heavy narrow mode: dropping m < 0 moves the answer by < 1e-6
    modes = make_single_mode(5000.0, 5.0, 0.04)
    wide = dict(abs_tol=1e-9, rel_tol=1e-7)
    with_neg = direct_boosted_amplitude(
        modes, 500.0, 2.0, QuadratureSpec(**wide))
    without = direct_boosted_amplitude(
        modes, 500.0, 2.0,
        QuadratureSpec(include_negative_mass=False, **wide))
    assert abs(with_neg - without) <= 1e-6


def test_reported_error_bounds_tolerance_halving(mode_p200_m80):
    # self-consistency: the value moves by less than the reported error
    # when the tolerance budget tightens
    modes, _ = mode_p200_m80
    loose = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-4)
    tight = QuadratureSpec(abs_tol=5e-8, rel_tol=5e-6)
    for t in (0.05, 5.0):
        v1, e1 = direct_boosted_amplitude(modes, 200.0, t, loose, return_error=True)
        v2 = direct_boosted_amplitude(modes, 200.0, t, tight)
        assert abs(v1 - v2) <= e1


def test_rejects_negative_inputs(mode_p200_m80):
    modes, _ = mode_p200_m80
    with pytest.raises(ValueError):
        direct_boosted_amplitude(modes, -1.0, 1.0, FAST)
    with pytest.raises(ValueError):
        direct_boosted_amplitude(modes, 200.0, -1.0, FAST)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_momentum(mode_p200_m80, p):
    modes, _ = mode_p200_m80
    with pytest.raises(ValueError, match="momentum.*%s" % p):
        direct_boosted_amplitude(modes, p, 1.0, FAST)


def test_accepts_large_finite_momentum(mode_p200_m80):
    modes, _ = mode_p200_m80
    p = 3.0 * modes.M
    got = direct_survival(modes, p, 2.0, FAST)
    want = od.survival_boosted(modes, od.shifted_kinematics(modes, p), 2.0).P_p
    assert abs(got - want) <= 1e-2 * want


# the steepest-descent sums meet 1e-14 within two doublings at every time,
# so a starved spec asks for less than the rounding noise of the sums: at
# the 512-node cap they still change by ~1e-18, far above 1e-300
STARVED = QuadratureSpec(abs_tol=1e-300, rel_tol=0.0)


def test_nonconvergence_carries_best_estimate(mode_p200_m80):
    modes, _ = mode_p200_m80
    with pytest.raises(OracleConvergenceError) as info:
        direct_boosted_amplitude(modes, 200.0, 5.0, STARVED)
    assert info.value.value is not None
    assert info.value.error_estimate is not None


# the spot generator's sets: curve B, three modes, and three modes with an
# Omega = 0 mode
CURVE_B = gen_oracle_spots.CURVE_B
THREE_MODES = gen_oracle_spots.THREE_MODES
SHIFTED_THREE_MODES = gen_oracle_spots.SHIFTED_THREE_MODES

ORACLE_GRIDS = {
    "linspace": np.linspace(2.0, 11.0, 70),
    # over a decade: the path's panels reach from 64 / 12 to 40 / 0.5
    "geomspace": np.geomspace(0.5, 12.0, 25),
    # unsorted, with a duplicate and t = 0
    "unsorted": np.array([6.0, 2.5, 0.0, 4.1, 2.5, 3.3, 9.0, 5.2]),
    # fourteen decades below t = 1 and two above share one path
    "wide": np.array([1e-14, 1e-9, 1e-4, 1.0, 20.0, 100.0]),
}


def _oracle_modes(case):
    if case == "three_mode":
        return od.validate_modes(THREE_MODES)
    return make_single_mode(80.0, 10.0, 0.04)


@pytest.mark.parametrize("grid", sorted(ORACLE_GRIDS))
@pytest.mark.parametrize("case", ["curve_b", "three_mode"])
def test_grid_call_matches_per_point_calls(case, grid):
    # one call shares the path's nodes, sized by the grid's extreme times;
    # each time still meets its own budget, so it lands on the per-point value
    modes = _oracle_modes(case)
    t = ORACLE_GRIDS[grid]
    got = direct_survival(modes, 200.0, t, FAST)
    want = np.array([direct_survival(modes, 200.0, float(ti), FAST) for ti in t])
    assert got.shape == t.shape
    assert np.all(np.abs(got - want) <= 1e-9 * want)
    assert np.array_equal(direct_survival(modes, 200.0, t, FAST), got)


def test_grid_nonconvergence_names_a_grid_time(mode_p200_m80):
    modes, _ = mode_p200_m80
    t = ORACLE_GRIDS["linspace"]
    with pytest.raises(OracleConvergenceError) as info:
        direct_survival(modes, 200.0, t, STARVED)
    named = float(str(info.value).rsplit("t=", 1)[1])
    assert named in t
    # the estimate carried is that time's own
    assert abs(info.value.value - direct_boosted_amplitude(modes, 200.0, named, FAST)) <= 1e-4
    assert info.value.error_estimate > 0.0


@pytest.mark.parametrize("field, value", [
    ("abs_tol", float("nan")), ("abs_tol", float("inf")), ("abs_tol", 0.0),
    ("rel_tol", float("nan")), ("rel_tol", float("inf")), ("rel_tol", -1e-6),
])
def test_quadrature_spec_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        QuadratureSpec(**{field: value})


def test_quadrature_spec_accepts_edge_values():
    spec = QuadratureSpec(abs_tol=1e300, rel_tol=0.0)
    assert (spec.abs_tol, spec.rel_tol) == (1e300, 0.0)


def test_quadrature_spec_has_no_round_cap():
    # the doublings stop at the 512-node cap, their one budget
    with pytest.raises(TypeError, match="max_rounds"):
        QuadratureSpec(max_rounds=48)


def _series(t, values):
    return od.CurveSeries(t=np.asarray(t, dtype=float), values=np.asarray(values, dtype=float))


def test_compare_identical_series_reports_zero():
    t = np.linspace(1.0, 5.0, 9)
    v = np.exp(-t)
    rep = oracle_compare(v, _series(t, v))
    assert rep.max_abs_deviation == 0.0
    assert rep.max_rel_deviation == 0.0
    assert rep.n_points == 9


def test_compare_rejects_grid_mismatch():
    # one closed-form value per time of the direct grid
    t = np.linspace(1.0, 5.0, 9)
    v = np.exp(-t)
    with pytest.raises(ValueError, match="grid mismatch"):
        oracle_compare(v[:-1], _series(t, v))


def test_compare_takes_closed_values_outside_unit_interval_but_not_non_finite():
    # the closed form overshoots 1 outside its domain; that is a deviation
    # to report, while a NaN or an infinity is not a value at all
    t = np.linspace(1.0, 5.0, 9)
    v = np.exp(-t)
    over = v.copy()
    over[0] = 25.0
    rep = oracle_compare(over, _series(t, v))
    assert rep.max_abs_deviation == pytest.approx(25.0 - v[0], rel=1e-15)
    assert rep.t_at_max_abs == t[0]
    for bad in (math.nan, math.inf):
        over[0] = bad
        with pytest.raises(ValueError, match="finite"):
            oracle_compare(over, _series(t, v))


def test_compare_refuses_direct_values_outside_the_unit_interval():
    # the direct curve is a probability, checked before the closed values
    t = np.array([0.0, 1.0])
    for values, shown in (([0.5, 1.5], "[0.5, 1.5]"), ([-1e-3, 0.5], "[-0.001, 0.5]")):
        with pytest.raises(ValueError) as err:
            oracle_compare(np.array([math.nan, 0.5]), _series(t, values))
        assert str(err.value) == "probability values must lie in [0, 1+1e-9], got %s" % shown
    assert oracle_compare([1.0, 0.0], _series(t, [1.0 + 1e-9, 0.0])).n_points == 2


def test_compare_locates_injected_deviation():
    t = np.linspace(1.0, 5.0, 9)
    v = np.exp(-t)
    bumped = v.copy()
    bumped[4] += 1e-3
    rep = oracle_compare(bumped, _series(t, v))
    assert rep.max_abs_deviation == pytest.approx(1e-3, rel=1e-12)
    assert rep.t_at_max_abs == pytest.approx(t[4])
    assert rep.max_rel_deviation == pytest.approx(1e-3 / v[4], rel=1e-9)


def test_direct_envelope_stays_bounded(mode_p200_m80):
    # e^{t/gamma_minus} P_p <= 1 on the window, checked against the
    # oracle rather than the closed form
    modes, ctx = mode_p200_m80
    for t in (3.0, 8.0, 14.0):
        val = direct_survival(modes, 200.0, t, FAST)
        assert math.exp(t / od.lorentz_factor(modes.M - modes.Omega[0], ctx.p)) * val <= 1.0


TIGHT = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9)
SPOT_BY_NAME = {spot["name"]: spot for spot in ORACLE_SPOTS["amplitude"]}


def test_spot_data_holds_its_generators_inputs():
    # regenerating the spots takes minutes, so only their inputs are
    # checked against the generator's tables: entry for entry, in order
    assert sorted(ORACLE_SPOTS) == ["amplitude", "mdd"]
    assert [(s["name"], s["modes"], s["p"], s["t"], s["negative_mass"])
            for s in ORACLE_SPOTS["amplitude"]] == gen_oracle_spots.SPOTS
    assert [(s["name"], s["modes"], s["m"])
            for s in ORACLE_SPOTS["mdd"]] == gen_oracle_spots.MDD_SPOTS


def _spot_spec(negative_mass=True):
    return QuadratureSpec(abs_tol=1e-14, rel_tol=1e-13, include_negative_mass=negative_mass)


@pytest.mark.parametrize("spot", ORACLE_SPOTS["amplitude"], ids=lambda s: s["name"])
def test_matches_mpmath_realaxis_spot(spot):
    modes = od.validate_modes(spot["modes"])
    got = direct_boosted_amplitude(modes, spot["p"], spot["t"], _spot_spec(spot["negative_mass"]))
    assert abs(got - complex(*spot["amplitude"])) <= 1e-12


@pytest.mark.parametrize("name, p", gen_oracle_spots.GRID_ENDS,
                         ids=["%s-p%g" % end for end in gen_oracle_spots.GRID_ENDS])
def test_agrees_with_realaxis_quadrature(name, p):
    # the sets and momenta the closed form is judged on: one grid call lays
    # out its panels from the grid's ends, and both ends land on their spots
    first, last = (SPOT_BY_NAME["%s_p%g_t%g" % (name, p, t)] for t in (2.0, 11.0))
    got = direct_boosted_amplitude(od.validate_modes(first["modes"]), p,
                                   np.linspace(2.0, 11.0, 10), _spot_spec())
    assert abs(got[0] - complex(*first["amplitude"])) <= 1e-12
    assert abs(got[9] - complex(*last["amplitude"])) <= 1e-12


# ROADMAP item 17: once the pole part has decayed, the background's leading
# modulus (p Gamma_j / M^2) W_j / sqrt(2 pi p t), summed over the modes by weight and
# squared, is the whole lab law. The tail starts at twice the time where the
# exact background and pole part have equal moduli: t/gamma = 18.7 (p = 40)
# and 18.2 (p = 200) on curve B
@pytest.mark.parametrize("name, p, start", [("curve_b", 40.0, 2 * 18.7),
                                            ("curve_b", 200.0, 2 * 18.2),
                                            ("three_modes", 40.0, 60.0),
                                            ("three_modes", 200.0, 60.0)])
def test_deep_tail_follows_the_kinematic_one_over_t_law(name, p, start):
    modes = od.validate_modes(NEAR_REST_SETS[name])
    gamma = od.shifted_kinematics(modes, p).gamma
    t = gamma * np.geomspace(start, 400.0, 40)
    S = sum(w * G * od.window.w_fn(modes.M, O, a)
            for w, G, O, a in zip(modes.w, modes.Gamma, modes.Omega, modes.a))
    tail = p * S * S / (2.0 * math.pi * modes.M**4 * t)
    exact = direct_survival(modes, p, t, QuadratureSpec(abs_tol=1e-15, rel_tol=1e-11))
    # the law holds to 1.5e-4 (curve B) and 2.2e-4 (three modes)
    assert np.max(np.abs(exact / tail - 1.0)) <= 1e-3


@pytest.mark.parametrize("modes, p", [(CURVE_B, 200.0), (CURVE_B, 5.0),
                                      (SHIFTED_THREE_MODES, 150.0), (THREE_MODES, 200.0)])
def test_pole_sum_is_closed_form_pole_part(modes, p):
    modes = od.validate_modes(modes)
    t = np.linspace(0.5, 20.0, 40)
    k_sum = od.BoostedLaw(modes, od.shifted_kinematics(modes, p))(t).K_sum
    assert np.array_equal(_Path(modes, p, True).poles(t), k_sum)


def test_zero_time_is_exact_normalization():
    modes = od.validate_modes(SHIFTED_THREE_MODES)
    for p in (0.0, 150.0):
        assert direct_boosted_amplitude(modes, p, 0.0) == pytest.approx(1.0, abs=1e-15)
        mass, width, weight, _ = od.kinematics.mode_terms(modes)
        half_line = float(np.sum(weight * (0.5 + np.arctan(mass / (0.5 * width)) / math.pi)))
        got = direct_boosted_amplitude(modes, p, 0.0, QuadratureSpec(include_negative_mass=False))
        assert got == pytest.approx(half_line, abs=1e-15)
        assert half_line < 1.0 - 1e-3


def test_zero_and_small_momentum():
    # p = 0 takes m = -i tau on the path; tiny p joins it continuously
    # (the spots pin p = 0 and p = 1e-3 to mpmath)
    modes = od.validate_modes(CURVE_B)
    at_rest = direct_boosted_amplitude(modes, 0.0, 1.0, TIGHT)
    assert direct_boosted_amplitude(modes, -0.0, 1.0, TIGHT) == at_rest
    assert abs(direct_boosted_amplitude(modes, 1e-10, 1.0, TIGHT) - at_rest) <= 1e-11
    assert abs(direct_boosted_amplitude(modes, 1e-3, 1.0, TIGHT) - at_rest) <= 1e-8


def test_rest_branch_seam():
    # the closed form's rest branch is the paper's P0; the exact law at
    # p = 0 folds the density at |m| instead, which lowers P by 1.76e-4
    # relative at t = 1 on curve B
    modes = od.validate_modes(CURVE_B)
    rest = od.BoostedLaw(modes, od.shifted_kinematics(modes, 0.0))(1.0).P_p
    assert rest == pytest.approx(od.survival_rest(modes, 1.0), rel=1e-15)
    for p in (0.0, 1e-10, 1e-3):
        exact = direct_survival(modes, p, 1.0, TIGHT)
        assert 1.7e-4 <= (rest - exact) / exact <= 1.8e-4


@pytest.mark.parametrize("negative_mass", [True, False])
@pytest.mark.parametrize("t", [0.02, 0.05, 0.2])
def test_short_times(t, negative_mass):
    # short times stretch the path to tau = 40 / t; the sums converge within
    # their budget and land on the spots, over the whole line and over m >= 0
    spot = SPOT_BY_NAME["curve_b_p200_t%g%s" % (t, "" if negative_mass else "_positive_mass")]
    modes = od.validate_modes(CURVE_B)
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9, include_negative_mass=negative_mass)
    got, err = direct_boosted_amplitude(modes, 200.0, t, spec, return_error=True)
    assert err <= 1e-11
    assert abs(got - complex(*spot["amplitude"])) <= 1e-12


def test_starved_spec_names_a_short_grid_time():
    modes = od.validate_modes(CURVE_B)
    t = np.array([3.0, 0.2, 0.02, 1.0])
    with pytest.raises(OracleConvergenceError, match=r"at t=0\.02$"):
        direct_survival(modes, 200.0, t, STARVED)


def test_times_too_short_for_any_phase_give_normalization():
    # below t max|E_k| = 1e-16 (~5e-19 here) A(t) is A(0) in double
    # precision, subnormal times included; just above it the sums run
    modes = od.validate_modes(CURVE_B)
    for negative_mass, norm in ((True, 1.0), (False, None)):
        spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9, include_negative_mass=negative_mass)
        if norm is None:
            norm = direct_boosted_amplitude(modes, 200.0, 0.0, spec)
        got, err = direct_boosted_amplitude(modes, 200.0, [1e-310, 1e-300, 1e-19], spec,
                                            return_error=True)
        assert np.all(got == norm) and np.all(err == 0.0)
        # A(t) - A(0) ~ -i <E> t just above the cut
        near = direct_boosted_amplitude(modes, 200.0, 1e-17, spec)
        assert abs(near - norm) <= 1e-14


def test_grid_past_the_panel_cap_names_its_shortest_time():
    modes = od.validate_modes(CURVE_B)
    with pytest.raises(OracleConvergenceError, match=r"over 160, at t=1e-14$"):
        direct_survival(modes, 200.0, np.array([2.0, 1e-14, 1e40]), TIGHT)
