"""Window mechanics: gate parameter, intervals, merge flag, periods."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscdecay as od
from oscdecay.kinematics import RestModeSet
from oscdecay.window import WindowError, _xi_values, w_fn

from conftest import make_single_mode


def test_w_no_oscillation_is_one():
    assert w_fn(100.0, 0.0, 0.3) == 1.0


def test_w_frozen_spot(frozen_spots):
    got = w_fn(100.0, 10.0, 0.04)
    assert got == pytest.approx(frozen_spots["W_M100_Om10_a004"], rel=1e-14)
    assert got == pytest.approx(1.0012203, abs=1e-7)


def test_w_limit_endpoint():
    # a=1/2, Omega=M/2 is outside the model range but the formula's
    # endpoint value 29/18 bounds the sweep below
    assert w_fn(2.0, 1.0, 0.5) == pytest.approx(29.0 / 18.0, rel=1e-14)


def test_w_rejects_frequency_at_mass():
    with pytest.raises(WindowError):
        w_fn(100.0, 100.0, 0.04)


@pytest.mark.parametrize("M, Omega, a", [(math.inf, 1.0, 0.1), (math.nan, 1.0, 0.1),
                                         (100.0, math.nan, 0.1), (100.0, 1.0, math.nan)])
def test_w_rejects_nonfinite_arguments(M, Omega, a):
    with pytest.raises(WindowError):
        w_fn(M, Omega, a)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=1e-3, max_value=0.4999),
    st.floats(min_value=1e-3, max_value=0.4999),
)
def test_w_bounds_on_open_ranges(M, frac, a):
    # 1 < W < 29/18 for 0 < Omega < M/2, 0 < a < 1/2; the lower corners
    # are kept float-resolvable (W-1 ~ 3 a Omega^2/M^2 underflows to 0)
    val = w_fn(M, frac * M, a)
    assert 1.0 < val < 29.0 / 18.0


def test_xi_prime_frozen_spot(mode_p200_m80, frozen_spots):
    modes, ctx = mode_p200_m80
    (got,) = od.exponential_windows(modes, ctx).xi_values
    assert got == pytest.approx(
        frozen_spots["xi_prime_M80_G1_Om10_a004_p200"], rel=1e-13
    )
    assert got <= 1e-3


def test_xi_prime_background_is_summed_left_to_right():
    # background terms 1.0, 9e-17, 1e-16: left to right they sum to 1.0, a
    # compensated sum (math.fsum; sum() from Python 3.12) to 1.0000000000000002
    modes = od.validate_modes({"M": 100.0, "w": [1.0, 6e-17, 5e-17], "Gamma": [1.0, 1.5, 2.0],
                               "Omega": [10.0, 10.0, 10.0], "a": [0.0, 0.0, 0.0]})
    ctx = od.shifted_kinematics(modes, 200.0)
    terms = [wl * gl * w_fn(100.0, 10.0, 0.0) for wl, gl in zip(modes.w, modes.Gamma)]
    background = 0.0
    for term in terms:
        background += term
    assert background == 1.0 and math.fsum(terms) == 1.0000000000000002
    velocity = ctx.p / (ctx.gamma * modes.M)
    assert _xi_values(modes, ctx) == tuple(
        math.sqrt(gj / (math.pi * modes.M) * velocity) * background / (2.0 * modes.M * wj)
        for wj, gj in zip(modes.w, modes.Gamma))


def test_xi_prime_monotone_in_weight():
    # two-mode set, growing w_0 at fixed everything else lowers xi'_0
    def xi0(w0):
        modes = od.validate_modes(
            {"M": 300.0, "w": [w0, 1.0 - w0], "Gamma": [1.0, 2.0],
             "Omega": [10.0, 0.0], "a": [0.04, 0.0]}
        )
        ctx = od.shifted_kinematics(modes, 600.0)
        return od.exponential_windows(modes, ctx).xi_values[0]

    vals = [xi0(w) for w in (0.2, 0.4, 0.6, 0.8)]
    assert np.all(np.diff(vals) < 0)


def test_xi_prime_monotone_in_amplitude():
    # Omega kept small so rate positivity holds up to a = 0.45
    def xi(a):
        modes = make_single_mode(300.0, 0.3, a)
        ctx = od.shifted_kinematics(modes, 600.0)
        return od.exponential_windows(modes, ctx).xi_values[0]

    vals = [xi(a) for a in (0.0, 0.15, 0.3, 0.45)]
    assert np.all(np.diff(vals) > 0)


def test_single_mode_window_bounds(mode_p200_m80):
    modes, ctx = mode_p200_m80
    win = od.exponential_windows(modes, ctx)
    assert win.admitted == (0,)
    (lo, hi), = win.intervals_lab
    assert lo == 2 * win.zeta_min * ctx.gamma / 1.0
    assert hi == 2 * win.zeta_max * ctx.gamma / 1.0
    assert win.merged


def test_window_covariance_exact(mode_p200_m80):
    modes, ctx = mode_p200_m80
    win = od.exponential_windows(modes, ctx)
    for (rlo, rhi), (llo, lhi) in zip(win.intervals_rest, win.intervals_lab):
        assert llo == ctx.gamma * rlo
        assert lhi == ctx.gamma * rhi
    for (rlo, rhi), (llo, lhi) in zip(win.union_rest, win.union_lab):
        assert llo == ctx.gamma * rlo
        assert lhi == ctx.gamma * rhi


def test_two_mode_merged_union():
    # width ratio far above zeta_min/zeta_max: one merged interval from
    # the fast mode's start to the slow mode's end
    modes = od.validate_modes(
        {"M": 300.0, "w": [0.5, 0.5], "Gamma": [1.0, 4.0],
         "Omega": [10.0, 0.0], "a": [0.04, 0.0]}
    )
    ctx = od.shifted_kinematics(modes, 600.0)
    win = od.exponential_windows(modes, ctx)
    assert win.admitted == (0, 1)
    assert win.merged
    assert len(win.union_lab) == 1
    lo, hi = win.union_lab[0]
    assert lo == 2 * win.zeta_min * ctx.gamma / 4.0
    assert hi == 2 * win.zeta_max * ctx.gamma / 1.0


def test_merged_flag_flips_at_exact_ratio():
    params = od.WindowParams()
    ratio = params.zeta_min / params.zeta_max

    def build(eps):
        G2 = (1.0 + eps) / ratio
        modes = od.validate_modes(
            {"M": 4e6, "w": [0.5, 0.5], "Gamma": [1.0, G2],
             "Omega": [0.0, 0.0], "a": [0.0, 0.0]}
        )
        ctx = od.shifted_kinematics(modes, 4e6)
        return od.exponential_windows(modes, ctx, params)

    below = build(-1e-12)   # Gamma1/Gamma2 just above the ratio
    above = build(+1e-12)   # just below
    assert below.admitted == above.admitted == (0, 1)
    assert below.merged and len(below.union_lab) == 1
    assert not above.merged and len(above.union_lab) == 2


def test_gate_excludes_large_amplitude_mode():
    # a=0.49 drives xi' through the 1/(1-2a) factor far past the gate
    modes = od.validate_modes(
        {"M": 100.0, "w": [0.5, 0.5], "Gamma": [1.0, 70.0],
         "Omega": [10.0, 10.0], "a": [0.04, 0.49]},
        narrow_width_threshold=1.0,
    )
    ctx = od.shifted_kinematics(modes, 210.0)
    win = od.exponential_windows(modes, ctx)
    assert 1 not in win.admitted
    excluded = {e.mode: e.xi for e in win.excluded}
    assert 1 in excluded and excluded[1] > win.xi_gate


def test_empty_window_diagnostics():
    # wide single mode: xi' = 2.9e-3 over the gate, nothing admitted
    modes = make_single_mode(21.0, 0.0, 0.0)
    ctx = od.shifted_kinematics(modes, 105.0)
    win = od.exponential_windows(modes, ctx)
    assert win.admitted == ()
    assert win.union_lab == ()
    assert not win.merged
    (excluded,) = win.excluded
    assert excluded.mode == 0 and excluded.xi == win.xi_values[0] > win.xi_gate


def test_window_params_validation():
    with pytest.raises(WindowError):
        od.WindowParams(zeta_min=2.0, zeta_max=1.0)
    with pytest.raises(WindowError):
        od.WindowParams(zeta_min=-1.0)


CONSTRAINT_DETAILS = [
    ("domain-at-start", "20 zeta_min gamma Gamma_1 / Gamma_fast must exceed 1"),
    ("mass-gap", "(M - Omega_max) times the window start must be large"),
    ("momentum", "M sqrt(gamma^2-1) times the window start must be large"),
    ("phase-at-start", "p t must be large at the window start"),
]


def test_constraint_report_default_zeta(mode_p200_m80):
    # the published ratio forces zeta_min=1e-4, putting the window start
    # below every validity scale: all four checks fail honestly
    modes, ctx = mode_p200_m80
    win = od.exponential_windows(modes, ctx)
    checks = od.constraint_report(modes, ctx, win)
    assert [c.name for c in checks] == [
        "domain-at-start", "mass-gap", "momentum", "phase-at-start",
    ]
    assert all(c.status == "fail" for c in checks)


def test_constraint_report_passes_with_raised_floor(mode_p200_m80):
    modes, ctx = mode_p200_m80
    params = od.WindowParams(zeta_min=0.05)
    win = od.exponential_windows(modes, ctx, params)
    checks = od.constraint_report(modes, ctx, win)
    assert all(c.status == "pass" for c in checks)
    assert [(c.name, c.detail) for c in checks] == CONSTRAINT_DETAILS


def test_constraint_report_momentum_fails_near_rest(mode_p200_m80):
    modes, _ = mode_p200_m80
    ctx = od.shifted_kinematics(modes, 0.8)  # p = M/100
    params = od.WindowParams(zeta_min=0.05)
    win = od.exponential_windows(modes, ctx, params)
    checks = {c.name: c for c in od.constraint_report(modes, ctx, win)}
    assert checks["momentum"].status == "fail"
    # the start just clears the binary check; the mass gap, 7.0, lies
    # between the warn value 3 and the pass value 10
    assert [c.status for c in checks.values()] == ["pass", "warn", "fail", "fail"]


def test_graded_checks_pass_at_the_closed_form_threshold():
    # one "much larger than one": the graded checks pass from the value the
    # closed form's domain test reads, warn from 3, and NaN fails
    threshold = od.kinematics.VALIDITY_THRESHOLD
    assert threshold == 10.0
    assert od.window.VALIDITY_THRESHOLD is od.boost.VALIDITY_THRESHOLD is threshold
    grades = [od.window._grade(v) for v in (threshold, np.nextafter(threshold, 0.0), 3.0,
                                            np.nextafter(3.0, 0.0), math.nan)]
    assert grades == ["pass", "warn", "warn", "fail", "fail"]


CONSTRAINT_SETS = [
    # (modes, p, zeta_min): one mode; every mode admitted; the widest mode
    # excluded; the one mode again, nearer rest
    (dict(M=80.0, w=[1.0], Gamma=[1.0], Omega=[10.0], a=[0.04]), 200.0, 1e-4),
    (dict(M=80.0, w=[1.0], Gamma=[1.0], Omega=[10.0], a=[0.04]), 0.8, 0.05),
    (dict(M=2000.0, w=[0.5, 0.3, 0.2], Gamma=[1.0, 1.5, 2.0], Omega=[20.0, 10.0, 5.0],
          a=[0.02, 0.01, 0.0]), 20000.0, 0.05),
    (dict(M=400.0, w=[0.6, 0.39, 0.01], Gamma=[1.0, 1.5, 2.0], Omega=[20.0, 10.0, 5.0],
          a=[0.02, 0.01, 0.0]), 100.0, 0.05),
    (dict(M=80.0, w=[1.0], Gamma=[1.0], Omega=[10.0], a=[0.04]), 8e-3, 0.05),
    (dict(M=80.0, w=[1.0], Gamma=[1.0], Omega=[10.0], a=[0.04]), 8e-6, 0.05),
]


@pytest.mark.parametrize("cfg, p, zeta_min", CONSTRAINT_SETS)
def test_constraint_values_are_the_window_start_in_four_units(cfg, p, zeta_min):
    # each value against its formula in the parameters, with the window
    # start 2 zeta_min gamma / Gamma_fast written out
    modes = od.validate_modes(cfg)
    ctx = od.shifted_kinematics(modes, p)
    win = od.exponential_windows(modes, ctx, od.WindowParams(zeta_min=zeta_min))
    values = {c.name: c.value for c in od.constraint_report(modes, ctx, win)}
    gamma = ctx.gamma
    gamma_fast = float(modes.Gamma[win.admitted[-1]])
    scale = 2.0 * zeta_min * gamma / gamma_fast
    expected = {
        "domain-at-start": 10.0 * float(modes.Gamma[0]) * scale,
        "mass-gap": (modes.M - max(modes.Omega)) * scale,
        "momentum": p * scale,
        "phase-at-start": p * win.union_lab[0][0],
    }
    assert list(values) == list(expected)
    for name, value in expected.items():
        assert values[name] == pytest.approx(value, rel=1e-14, abs=0.0)
    # M sqrt(gamma^2 - 1) is p, read as p: the momentum is the phase at
    # the start exactly, however near rest
    assert values["momentum"] == values["phase-at-start"]


@pytest.mark.parametrize("p", [8e-6, 8e-3, 0.8, 200.0])
def test_xi_prime_matches_mpmath_near_rest(p):
    # the velocity sqrt(1 - 1/gamma^2) re-derived from the rounded gamma
    # loses eps/(gamma - 1) relative: 1% at p = 8e-6
    modes = make_single_mode(80.0, 10.0, 0.04)
    ctx = od.shifted_kinematics(modes, p)
    with mpmath.workdps(50):
        M, G, O, a = (mpmath.mpf(x) for x in (80.0, 1.0, 10.0, 0.04))
        v = mpmath.mpf(p) / mpmath.sqrt(mpmath.mpf(p) ** 2 + M * M)
        r = (O / M) ** 2
        W = 1 + a * r * (3 - r) / (1 - r) ** 2
        ref = mpmath.sqrt(G / (mpmath.pi * M) * v) * G * W / (2 * M * (1 - 2 * a))
        (got,) = od.exponential_windows(modes, ctx).xi_values
        assert abs(got - ref) <= 1e-14 * ref


def test_constraint_report_empty_window():
    modes = make_single_mode(21.0, 0.0, 0.0)
    ctx = od.shifted_kinematics(modes, 105.0)
    win = od.exponential_windows(modes, ctx)
    checks = od.constraint_report(modes, ctx, win)
    assert all(c.status == "fail" for c in checks)
    assert all(math.isnan(c.value) for c in checks)
    assert [(c.name, c.detail) for c in checks] == [
        (name, "no admitted modes") for name, _ in CONSTRAINT_DETAILS]


def test_periods_single_mode(mode_p200_m80):
    modes, ctx = mode_p200_m80
    report = od.periods(modes, ctx, active_modes=[0])
    assert report.commensurate
    assert report.T0 == pytest.approx(2 * math.pi / 10.0, rel=1e-15)
    assert report.Tp == ctx.gamma * report.T0
    assert report.T0 == pytest.approx(0.6283, abs=1e-4)
    assert report.Tp == pytest.approx(1.6918, abs=2e-4)


def test_periods_commensurate_three_modes():
    modes = od.validate_modes(
        {"M": 200.0, "w": [0.4, 0.3, 0.3], "Gamma": [1.0, 2.0, 3.5],
         "Omega": [10.0, 20.0, 40.0], "a": [0.04, 0.04, 0.04]}
    )
    ctx = od.shifted_kinematics(modes, 400.0)
    report = od.periods(modes, ctx, active_modes=[0, 1, 2])
    assert report.commensurate
    assert report.omega_max == 40.0
    assert tuple(report.k_values) == (4, 2, 1)
    assert report.T0 == pytest.approx(2 * math.pi / 40.0, rel=1e-15)
    assert report.Tp == ctx.gamma * report.T0


THREE_MODES = {"M": 200.0, "w": [0.4, 0.3, 0.3], "Gamma": [1.0, 2.0, 3.5],
               "Omega": [10.0, 20.0, 40.0], "a": [0.04, 0.04, 0.04]}


@pytest.mark.parametrize("j", [0.9, True, 1.0, "1", np.True_, np.float64(1.0)],
                         ids=["fraction", "bool", "float", "string", "numpy_bool",
                              "numpy_float"])
def test_periods_refuse_an_index_that_is_not_an_integer(j):
    # int() would read 0.9 as mode 0 and True as mode 1
    modes = od.validate_modes(THREE_MODES)
    ctx = od.shifted_kinematics(modes, 400.0)
    with pytest.raises(WindowError, match=re.escape("mode index must be an integer, got %r" % (j,))):
        od.periods(modes, ctx, [0, j])


def test_periods_accept_numpy_integers():
    modes = od.validate_modes(THREE_MODES)
    ctx = od.shifted_kinematics(modes, 400.0)
    report = od.periods(modes, ctx, active_modes=np.array([2, 0, 2]))
    assert report == od.periods(modes, ctx, active_modes=[0, 2])
    assert report.k_values == (4, 1)
    with pytest.raises(WindowError, match="mode index 3 out of range 0..2"):
        od.periods(modes, ctx, active_modes=np.array([0, 3]))


def test_periods_non_commensurate():
    modes = od.validate_modes(
        {"M": 200.0, "w": [0.5, 0.5], "Gamma": [2.2, 3.5],
         "Omega": [25.0, 40.0], "a": [0.04, 0.04]}
    )
    ctx = od.shifted_kinematics(modes, 400.0)
    report = od.periods(modes, ctx, active_modes=[0, 1])
    assert not report.commensurate
    assert report.T0 is None and report.Tp is None
    assert report.omega_max == 40.0


def test_periods_require_oscillating_mode():
    modes = make_single_mode(100.0, 0.0, 0.0)
    ctx = od.shifted_kinematics(modes, 210.0)
    with pytest.raises(WindowError):
        od.periods(modes, ctx, active_modes=[0])


def test_gate_diverges_on_an_unvalidated_set_at_half_amplitude():
    # validate_modes refuses a = 1/2; a set built directly reaches the gate
    modes = RestModeSet(M=80.0, w=(1.0,), Gamma=(1.0,), Omega=(10.0,), a=(0.5,))
    ctx = od.shifted_kinematics(modes, 200.0)
    with pytest.raises(WindowError) as err:
        od.exponential_windows(modes, ctx)
    assert str(err.value) == "gate diverges as a -> 1/2, got a=0.5"


def test_periods_of_the_window_admitted(mode_p200_m80):
    modes, ctx = mode_p200_m80
    win = od.exponential_windows(modes, ctx)
    report = od.periods(modes, ctx, win.admitted)
    assert report.commensurate
    assert report.Tp == ctx.gamma * report.T0


@pytest.mark.parametrize("field, value", [
    ("zeta_min", float("nan")), ("zeta_max", float("nan")), ("zeta_max", float("inf")),
    ("xi_gate", float("nan")), ("xi_gate", float("inf")), ("xi_gate", 0.0),
])
def test_window_params_reject_non_finite(field, value):
    with pytest.raises(WindowError, match=field):
        od.WindowParams(**{field: value})


def test_window_params_accept_large_finite():
    params = od.WindowParams(zeta_max=1e300, xi_gate=1e300)
    assert params.zeta_max == params.xi_gate == 1e300
