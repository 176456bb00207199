"""Survival-law inversion and the frame time map."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

import oscdecay as od
from oscdecay.cli import main
from oscdecay.kinematics import RestModeSet
from oscdecay.restframe import amplitude_rest
from oscdecay.timemap import TimeMapError, invert_survival_rest

from conftest import NEAR_REST_SETS, boosted_grids, make_boosted, make_single_mode


def test_invert_full_probability_is_zero():
    modes = make_single_mode(100.0, 10.0, 0.04)
    assert invert_survival_rest(modes, 1.0) == 0.0


def test_invert_pure_exponential_analytic():
    modes = od.validate_modes(
        {"M": 100.0, "w": [1.0], "Gamma": [2.0], "Omega": [0.0], "a": [0.0]}
    )
    for r in (0.9, 0.5, 0.1, 1e-3, 1e-12):
        t = invert_survival_rest(modes, r)
        assert t == pytest.approx(-math.log(r) / 2.0, rel=1e-12)


@pytest.mark.parametrize("r", [0.9, 0.5, 0.1, 1e-3])
def test_invert_round_trip(r):
    modes = make_single_mode(100.0, 10.0, 0.04)
    t = invert_survival_rest(modes, r)
    assert abs(od.survival_rest(modes, t) - r) <= 1e-12 * r


def test_invert_round_trip_two_mode():
    modes = od.validate_modes(
        {"M": 100.0, "w": [0.7, 0.3], "Gamma": [1.0, 2.5],
         "Omega": [10.0, 0.0], "a": [0.04, 0.0]}
    )
    for r in (0.8, 0.3, 1e-2, 1e-6):
        t = invert_survival_rest(modes, r)
        assert abs(od.survival_rest(modes, t) - r) <= 1e-12 * r


def test_invert_deep_tail():
    # r = 1e-100: the solve works on log P0, which stays well conditioned
    # in the deep tail, so the round trip is exact
    modes = make_single_mode(100.0, 10.0, 0.04)
    t = invert_survival_rest(modes, 1e-100)
    log_p = 2.0 * math.log(amplitude_rest(modes, t))
    assert abs(log_p - math.log(1e-100)) <= 1e-12


def test_invert_rejects_out_of_range():
    modes = make_single_mode(100.0, 10.0, 0.04)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises((TimeMapError, ValueError)):
            invert_survival_rest(modes, bad)


def test_invert_domain_is_total_down_to_subnormal_floor():
    # every representable target in (0, 1] needs Gamma_1 t <~ 3e3, so the
    # 1e4/Gamma_1 tail cap is a pure safety net; targets below the float
    # floor arrive as 0.0 and are rejected by the range check
    modes = make_single_mode(100.0, 10.0, 0.04)
    t = invert_survival_rest(modes, 5e-324)
    log_p = 2.0 * math.log(amplitude_rest(modes, t))
    assert abs(log_p - math.log(5e-324)) <= 1e-12
    assert t < od.timemap.TAIL_CAP_OVER_GAMMA1 / modes.Gamma[0]


def test_invert_array_keeps_every_contract():
    # one call over targets spanning r = 1, both sides of 1e-2 (checked in
    # probability above it, in log space below) and the subnormal floor;
    # each point meets its own residual contract
    modes = od.validate_modes(
        {"M": 100.0, "w": [0.7, 0.3], "Gamma": [1.0, 2.5],
         "Omega": [10.0, 0.0], "a": [0.04, 0.0]}
    )
    r = np.array([1.0, 0.999999, 0.5, 1e-2, 0.00999, 1e-6, 1e-100, 5e-324])
    t = invert_survival_rest(modes, r)
    assert t[0] == 0.0
    for ti, ri in zip(t[1:], r[1:]):
        if ri >= 1e-2:
            assert abs(od.survival_rest(modes, ti) - ri) <= 1e-12 * ri
        else:
            assert abs(2.0 * math.log(amplitude_rest(modes, ti)) - math.log(ri)) <= 1e-12
        assert ti == pytest.approx(invert_survival_rest(modes, float(ri)), rel=1e-12)


SUBNORMAL_TARGETS = [1e-310, 3e-320, 1e-315, 5e-324]
ONE_MODE = {"M": 100.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]}
TWO_MODE = {"M": 100.0, "w": [0.7, 0.3], "Gamma": [1.0, 2.5],
            "Omega": [10.0, 0.0], "a": [0.04, 0.0]}
# the three-mode set with an Omega = 0 mode on which the closed form once
# missed compare's gate, the oracle tests' three-mode set, and four modes
MULTI_MODE = {
    "shifted_three_mode": {"M": 100.0, "w": [0.5, 0.3, 0.2], "Gamma": [1.0, 1.5, 2.0],
                           "Omega": [0.0, 5.0, 8.0], "a": [0.1, 0.0, 0.03]},
    "three_mode": {"M": 80.0, "w": [0.5, 0.3, 0.2], "Gamma": [1.0, 1.5, 2.0],
                   "Omega": [10.0, 5.0, 2.5], "a": [0.04, 0.04, 0.04]},
    "four_mode": {"M": 120.0, "w": [0.4, 0.3, 0.2, 0.1], "Gamma": [0.8, 1.2, 2.0, 3.0],
                  "Omega": [12.0, 6.0, 0.0, 3.0], "a": [0.03, 0.08, 0.0, 0.2]},
}
ALL_SETS = {"one_mode": ONE_MODE, "two_mode": TWO_MODE, **MULTI_MODE}


@pytest.mark.parametrize("cfg", MULTI_MODE.values(), ids=MULTI_MODE.keys())
def test_invert_round_trip_multi_mode(cfg):
    modes = od.validate_modes(cfg)
    for r in (0.8, 0.3, 1e-2, 1e-6):
        t = invert_survival_rest(modes, r)
        assert abs(od.survival_rest(modes, t) - r) <= 1e-12 * r


@pytest.mark.parametrize("cfg", ALL_SETS.values(), ids=ALL_SETS.keys())
def test_invert_round_trip_on_doubling_bracket_ends(cfg):
    # t0 = 2^k / Gamma_1 is where a bracket grown by doubling from 1/Gamma_1
    # ends, and at k = 0 the start itself: the first evaluation puts a
    # bracket end on the root, and the converged Newton step must still be
    # taken onto it
    modes = od.validate_modes(cfg)
    t0 = 2.0 ** np.arange(-3, 8) / modes.Gamma[0]
    r = od.survival_rest(modes, t0)
    t_arr = invert_survival_rest(modes, r)
    for ti, ri, t_expect in zip(t_arr, r, t0):
        t = invert_survival_rest(modes, float(ri))
        assert t == ti
        assert t == pytest.approx(t_expect, rel=1e-12)
        assert abs(2.0 * math.log(amplitude_rest(modes, t)) - math.log(ri)) <= 1e-12


@pytest.mark.parametrize("cfg", ALL_SETS.values(), ids=ALL_SETS.keys())
def test_solve_root_does_not_depend_on_its_start(cfg):
    # far-off starts, a start beyond the tail cap (clipped to it) and a
    # start of 0 bracket the same roots as the 1/Gamma_1 start, down to
    # subnormal targets
    modes = od.validate_modes(cfg)
    r = np.array([0.9, 0.3, 1e-2, 1e-6, 1e-100] + SUBNORMAL_TARGETS)
    cap = od.timemap.TAIL_CAP_OVER_GAMMA1 / modes.Gamma[0]
    ref, _ = od.timemap._solve(modes, r, np.full_like(r, 1.0 / modes.Gamma[0]))
    for start in (1e-6 * ref, 1e6 * ref, np.full_like(r, 10.0 * cap), np.zeros_like(r)):
        root, resid = od.timemap._solve(modes, r, start)
        np.testing.assert_allclose(root, ref, rtol=1e-12, atol=0.0)
        assert np.abs(resid).max() <= od.timemap.INVERT_REL_TOL


@pytest.mark.parametrize("cfg", ALL_SETS.values(), ids=ALL_SETS.keys())
def test_solve_near_one_ends_in_few_rounds(monkeypatch, cfg):
    # near r = 1 the log gap is rounding noise long before a Newton step
    # falls below 1e-10 t; a gap at that level ends the solve, where the
    # loop would otherwise run on towards its iteration cap, and one such
    # point would hold up every point of an array
    rounds = []

    class CountingLaw(od.restframe._RestLaw):
        def __call__(self, tt):
            rounds.append(len(tt))
            return super().__call__(tt)

    monkeypatch.setattr(od.timemap, "_RestLaw", CountingLaw)
    modes = od.validate_modes(cfg)
    r = 1.0 - np.array([1e-6, 1e-9, 1e-12, 2.0 ** -52, 2.0 ** -53])
    for start in (1.0 / modes.Gamma[0], 1e-3):
        rounds.clear()
        root, resid = od.timemap._solve(modes, r, np.full_like(r, start))
        assert len(rounds) <= 20
        assert np.all(root > 0.0)
        assert np.abs(resid).max() <= od.timemap.INVERT_REL_TOL


def test_phi_evaluates_only_the_points_still_moving(monkeypatch):
    # curve B at p = 200 on 2000 points over [0.75 gamma, 9 gamma]: a round
    # evaluates the rest law on the points that have not frozen, so a point
    # costs about as many evaluations as it takes rounds (8.0 per point
    # when every round evaluated every point)
    evaluated = []

    class CountingLaw(od.restframe._RestLaw):
        def __call__(self, tt):
            evaluated.append(len(tt))
            return super().__call__(tt)

    monkeypatch.setattr(od.timemap, "_RestLaw", CountingLaw)
    modes, ctx = make_boosted("p200_m80")
    t = np.linspace(0.75 * ctx.gamma, 9.0 * ctx.gamma, 2000)
    od.phi_p(modes, ctx, t)
    assert sum(evaluated) / len(t) <= 5.5


@pytest.mark.parametrize("cfg", ALL_SETS.values(), ids=ALL_SETS.keys())
def test_solve_evaluates_the_amplitude_once(monkeypatch, cfg):
    # the rounds take the amplitude and the rate together from one call;
    # the amplitude alone is evaluated once per solve, for the residuals
    calls = []

    class CountingLaw(od.restframe._RestLaw):
        def amplitude(self, tt):
            calls.append(np.shape(tt))
            return super().amplitude(tt)

    monkeypatch.setattr(od.timemap, "_RestLaw", CountingLaw)
    modes = od.validate_modes(cfg)
    r = np.array([0.9, 1e-2, 1e-100] + SUBNORMAL_TARGETS)
    od.timemap._solve(modes, r, np.full_like(r, 1.0 / modes.Gamma[0]))
    assert calls == [r.shape]
    calls.clear()
    invert_survival_rest(modes, 0.5)
    assert calls == [(1,)]


def test_target_beyond_the_cap_of_an_unvalidated_set_is_refused():
    # a width below Gamma_1, which validate_modes refuses, puts P0 at the
    # cap far above 0; the root of a target below it lies beyond the cap,
    # and the solve, held at the cap, misses the residual check
    modes = RestModeSet(M=100.0, w=(0.5, 0.5), Gamma=(1.0, 1e-6),
                           Omega=(0.0, 0.0), a=(0.0, 0.0))
    cap = od.timemap.TAIL_CAP_OVER_GAMMA1 / modes.Gamma[0]
    r = od.survival_rest(modes, 2.0 * cap)
    assert r > 0.2
    message = r"inversion residual .* exceeds 1e-12 in log space at r=%s$" % re.escape(repr(r))
    for target in (r, np.array([0.5, r])):
        with pytest.raises(TimeMapError, match=message):
            invert_survival_rest(modes, target)


@pytest.mark.parametrize("start", [1e-3, 1.0, 5.0, 7.0, 8.0])
def test_solve_tail_cap_does_not_depend_on_the_start(monkeypatch, start):
    # with the cap lowered to 8/Gamma_1, the root t = 7.9 lies inside it
    # and is solved from every start; a bracket grown by doubling from
    # 1e-3, 5 or 7 jumped past the cap before it reached the root
    modes = od.validate_modes(ONE_MODE)
    monkeypatch.setattr(od.timemap, "TAIL_CAP_OVER_GAMMA1", 8.0)
    r = od.survival_rest(modes, np.array([7.9]))
    root, resid = od.timemap._solve(modes, r, np.array([start]))
    np.testing.assert_allclose(root, 7.9, rtol=1e-12, atol=0.0)
    assert abs(resid[0]) <= od.timemap.INVERT_REL_TOL


@pytest.mark.parametrize("cfg", ALL_SETS.values(), ids=ALL_SETS.keys())
def test_invert_subnormal_targets_scalar_and_array(cfg):
    # P0 itself is subnormal at these roots; the amplitude and the log
    # slope are not, so every point converges to its log-residual contract
    modes = od.validate_modes(cfg)
    t_arr = invert_survival_rest(modes, np.array(SUBNORMAL_TARGETS + [0.5]))
    for ri, ti in zip(SUBNORMAL_TARGETS, t_arr):
        t = invert_survival_rest(modes, ri)
        assert type(t) is float and math.isfinite(t)
        assert abs(2.0 * math.log(amplitude_rest(modes, t)) - math.log(ri)) <= 1e-12
        assert ti == pytest.approx(t, rel=1e-12)


def test_invert_array_rejects_any_bad_target():
    modes = make_single_mode(100.0, 10.0, 0.04)
    with pytest.raises(TimeMapError, match="1.5"):
        invert_survival_rest(modes, np.array([0.5, 1.5, 0.0]))


@settings(max_examples=25, deadline=None)
@given(boosted_grids())
def test_phi_array_matches_per_point(case):
    modes, ctx, t = case
    phi = od.phi_p(modes, ctx, t)
    r = od.BoostedLaw(modes, ctx)(t).P_p
    assert r.min() < 1e-2 < r.max()
    for ti, phi_i, ri in zip(t, phi, r):
        assert abs(od.phi_p(modes, ctx, ti) - phi_i) <= 1e-12 * phi_i
        if ri >= 1e-2:
            assert abs(od.survival_rest(modes, phi_i) - ri) <= 1e-12 * ri
        else:
            assert abs(2.0 * math.log(amplitude_rest(modes, phi_i)) - math.log(ri)) <= 1e-12


def test_phi_refuses_an_underflowed_boosted_survival():
    # at p = 0 the boosted law is P0, which underflows to 0 near Gamma t = 745
    modes = make_single_mode(100.0, 10.0, 0.04)
    ctx = od.shifted_kinematics(modes, 0.0)
    for t in (800.0, np.array([1.0, 800.0, 900.0])):
        with pytest.raises(TimeMapError) as err:
            od.phi_p(modes, ctx, t)
        assert str(err.value) == "boosted survival 0.0 underflowed at t=800.0"


def test_phi_refuses_a_nan_boosted_survival_once(tmp_path, capsys):
    # at this p, p * p overflows and the law is NaN at every (out-of-domain)
    # time: phi_p's own screen refuses it, naming the lab time. The target
    # check, which phi_p's screened values never reach, guards
    # invert_survival_rest alone
    config = {"modes": NEAR_REST_SETS["curve_b"], "p": 6.655143227265858e+213,
              "grid": {"t_min": 8.332162274235253e-226, "t_max": 4.681074917944925e-35,
                       "points": 6, "spacing": "log"}}
    message = "boosted survival nan is not finite at t=8.332162274235253e-226"
    modes = od.validate_modes(config["modes"])
    ctx = od.shifted_kinematics(modes, config["p"])
    t = np.geomspace(config["grid"]["t_min"], config["grid"]["t_max"], 6)
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "nan.csv"
    with np.errstate(all="ignore"):
        for times in (t, t[0]):
            with pytest.raises(TimeMapError) as err:
                od.phi_p(modes, ctx, times)
            assert str(err.value) == message
        assert main(["phi", "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "oscdecay: invalid config or model: %s\n" % message
    assert list(tmp_path.iterdir()) == [path]
    for bad in (math.nan, 0.0, 1.5):
        with pytest.raises(TimeMapError) as err:
            invert_survival_rest(modes, bad)
        assert str(err.value) == "target probability must lie in (0, 1], got %r" % bad


def test_phi_array_reports_first_bad_point(mode_p200_m80):
    # small t with p > 0 leaves (0, 1]: the array call raises like the
    # first failing scalar call
    modes, ctx = mode_p200_m80
    t = np.array([5.0, 1e-8, 1e-9])
    with pytest.raises(TimeMapError, match="t=1e-08"):
        od.phi_p(modes, ctx, t)


def test_phi_identity_frame():
    modes = make_single_mode(100.0, 10.0, 0.04)
    ctx = od.shifted_kinematics(modes, 0.0)
    for t in np.linspace(0.1, 12.0, 50):
        assert od.phi_p(modes, ctx, float(t)) == pytest.approx(
            float(t), abs=1e-10, rel=1e-10
        )


# set -> t -> phi_p(t)/t - 1 at p = 1e-6 M
PHI_AT_VANISHING_P = {
    "curve_b": {0.5: -1.88e-3, 1.0: 3.33e-4, 2.0: -8.71e-6, 5.0: 5.23e-5, 10.0: -2.27e-4},
    "three_modes": {0.5: -5.18e-4, 1.0: 2.91e-4, 2.0: -2.18e-5, 5.0: 1.36e-4, 10.0: -8.64e-4},
}


@pytest.mark.parametrize("name", list(PHI_AT_VANISHING_P))
def test_phi_is_not_the_identity_as_p_vanishes(name):
    # pinned, not endorsed: phi_p inverts P0, a law without the threshold
    # background that the boosted law keeps as p -> 0+, so phi_p(t) stays
    # off t by these amounts however small p is (gamma - 1 = 5e-13 here)
    modes = od.validate_modes(NEAR_REST_SETS[name])
    ctx = od.shifted_kinematics(modes, 1e-6 * 80.0)
    t = np.array(list(PHI_AT_VANISHING_P[name]))
    assert ["%.2e" % x for x in od.phi_p(modes, ctx, t) / t - 1.0] \
        == ["%.2e" % x for x in PHI_AT_VANISHING_P[name].values()]


def test_phi_round_trip_identity(mode_p200_m80):
    modes, ctx = mode_p200_m80
    for t in np.linspace(1.0, 25.0, 40):
        phi = od.phi_p(modes, ctx, float(t))
        p_rest = od.survival_rest(modes, phi)
        p_boost = od.survival_boosted(modes, ctx, float(t)).P_p
        assert abs(p_rest - p_boost) <= 1e-10 * p_boost


def test_phi_against_independent_bisection(mode_p200_m80):
    # plain interval bisection on the defining relation, no shared code
    modes, ctx = mode_p200_m80
    for t in (5.0, 10.0, 20.0):
        target = od.survival_boosted(modes, ctx, t).P_p
        lo, hi = 0.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if od.survival_rest(modes, mid) > target:
                lo = mid
            else:
                hi = mid
        assert od.phi_p(modes, ctx, t) == pytest.approx(
            0.5 * (lo + hi), abs=1e-11)


def test_phi_near_dilated_time(mode_p200_m80):
    # inside the window phi_p tracks t/gamma to a few percent
    modes, ctx = mode_p200_m80
    for t in np.linspace(3.0, 25.0, 20):
        phi = od.phi_p(modes, ctx, float(t))
        assert abs(phi - t / ctx.gamma) <= 0.05 * (t / ctx.gamma)


def test_phi_rejects_blown_up_probability(mode_p200_m80):
    # tiny t with p > 0: the background kernel diverges and the closed
    # form leaves (0, 1]; the error carries the offending value
    modes, ctx = mode_p200_m80
    with pytest.raises(TimeMapError):
        od.phi_p(modes, ctx, 1e-8)


def test_phi_increases_at_beat_strides(mode_p200_m80):
    # phi_p carries the beat oscillation, so pointwise monotonicity fails
    # on fine grids; sampled one lab beat period apart it must rise and
    # local retreats stay under half a rest beat period
    modes, ctx = mode_p200_m80
    win = od.exponential_windows(modes, ctx)
    lo, hi = win.union_lab[0]
    beat_lab = 2.0 * math.pi / modes.Omega[0] * ctx.gamma
    t = np.arange(max(lo, 2.0), hi, beat_lab)
    phi = np.array([od.phi_p(modes, ctx, float(tt)) for tt in t])
    assert np.all(np.diff(phi) > 0)

    fine = np.linspace(max(lo, 2.0), hi, 800)
    phi_fine = np.array([od.phi_p(modes, ctx, float(tt)) for tt in fine])
    dips = np.diff(phi_fine)
    assert dips.min() > -0.5 * (2.0 * math.pi / modes.Omega[0])


def _fit_for(key_modes, ctx, n_points=150):
    win = od.exponential_windows(key_modes, ctx)
    lo, hi = win.union_lab[0]
    start = max(lo, 0.15)
    t = np.linspace(start, hi, n_points)
    phi = np.array([od.phi_p(key_modes, ctx, float(tt)) for tt in t])
    series = od.CurveSeries(t=t, values=phi)
    return od.linearity_fit(series, win, ctx), win


def test_linearity_fit_identity_frame():
    # gamma = 1 admits no window (the gate needs time dilation), so build
    # a synthetic one covering the sampled range
    modes = make_single_mode(100.0, 10.0, 0.04)
    ctx = od.shifted_kinematics(modes, 0.0)
    t = np.linspace(0.1, 10.0, 60)
    phi = np.array([od.phi_p(modes, ctx, float(tt)) for tt in t])
    series = od.CurveSeries(t=t, values=phi)
    win = od.window.TimeWindow(
        **od.WindowParams()._asdict(), gamma=1.0, xi_values=(0.0,),
        admitted=(0,), excluded=(),
        intervals_lab=((0.05, 11.0),), intervals_rest=((0.05, 11.0),),
        union_lab=((0.05, 11.0),), union_rest=((0.05, 11.0),), merged=True,
    )
    fit = od.linearity_fit(series, win, ctx)
    assert fit.slope == pytest.approx(1.0, abs=1e-10)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)


def test_linearity_fit_slope_near_inverse_gamma(mode_p200_m80):
    modes, ctx = mode_p200_m80
    fit, win = _fit_for(modes, ctx)
    assert fit.expected_slope == 1.0 / ctx.gamma
    assert fit.rel_slope_error <= 0.02
    lo, hi = win.union_lab[0]
    assert fit.max_residual <= 0.02 * (hi - lo)


@pytest.mark.parametrize("case", ["curve_b_p200", "four_mode_p200"])
def test_linearity_fit_matches_polyfit(case, mode_p200_m80):
    # np.polyfit, an SVD solve, is the reference for the closed-form line;
    # the two agree to float64 rounding (about 1e-15 here)
    if case == "curve_b_p200":
        modes, ctx = mode_p200_m80
    else:
        modes = od.validate_modes(MULTI_MODE["four_mode"])
        ctx = od.shifted_kinematics(modes, 200.0)
    win = od.exponential_windows(modes, ctx)
    lo, hi = win.union_lab[0]
    t = np.linspace(max(lo, 0.15), hi, 150)
    phi = od.phi_p(modes, ctx, t)
    fit = od.linearity_fit(od.CurveSeries(t=t, values=phi), win, ctx)
    slope, intercept = np.polyfit(t, phi, 1)
    assert fit.n_points == len(t)
    assert fit.slope == pytest.approx(slope, rel=1e-12, abs=0.0)
    assert fit.intercept == pytest.approx(intercept, rel=0.0, abs=1e-12 * t[-1])
    residual = np.abs(phi - (slope * t + intercept)).max()
    assert fit.max_residual == pytest.approx(residual, rel=0.0, abs=1e-12 * t[-1])


def test_linearity_fit_requires_coverage(mode_p200_m80):
    modes, ctx = mode_p200_m80
    win = od.exponential_windows(modes, ctx)
    t = np.linspace(2.0, 20.0, 10)
    phi = np.array([od.phi_p(modes, ctx, float(tt)) for tt in t])
    series = od.CurveSeries(t=t, values=phi)
    with pytest.raises(TimeMapError):
        od.linearity_fit(series, win, ctx)


def test_slope_error_decreases_with_gate_parameter():
    # 3-point ladder in xi' (falling ~1/M^{3/2} at fixed gamma): the
    # relative slope error must fall monotonically
    errs = []
    for M, p in ((80.0, 200.0), (250.0, 625.0), (800.0, 2000.0)):
        modes = make_single_mode(M, 10.0, 0.04)
        ctx = od.shifted_kinematics(modes, p)
        fit, _ = _fit_for(modes, ctx, n_points=120)
        errs.append(fit.rel_slope_error)
    assert errs[0] > errs[1] > errs[2]
