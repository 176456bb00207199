"""Direct-quadrature oracle for the boosted survival law."""

import cmath
import math

import numpy as np
import pytest

import oscdecay as od
from oscdecay._quad import adaptive_gauss
from oscdecay.oracle import (
    OracleConvergenceError,
    QuadratureSpec,
    direct_boosted_amplitude,
    direct_survival,
    oracle_compare,
)

from conftest import make_boosted, make_single_mode


FAST = QuadratureSpec(abs_tol=1e-7, rel_tol=1e-5)


def test_amplitude_at_zero_time_is_normalization(mode_p200_m80):
    # A_p(0) = integral of the density: 1 up to truncated Lorentzian tails
    modes, _ = mode_p200_m80
    amp = direct_boosted_amplitude(modes, 200.0, 0.0, FAST)
    assert abs(amp - 1.0) <= 1e-2


def test_rest_amplitude_matches_analytic_model():
    # p = 0: the integral reproduces the rest amplitude, up to the global
    # e^{-iMt} phase the analytic form omits
    modes = make_single_mode(100.0, 10.0, 0.04)
    for t in (0.5, 2.0, 5.0, 10.0):
        amp = direct_boosted_amplitude(modes, 0.0, t, FAST)
        assert abs(abs(amp) - od.amplitude_rest(modes, t)) <= 1e-4


def test_rest_amplitude_reality_up_to_global_phase():
    # on a symmetric all-positive mass domain the density is even about M,
    # so e^{iMt} A_0(t) is real; the default domain reaches m < 0 where the
    # energy |m| folds the phase, leaving an imaginary part of order
    # density(0)/t ~ Gamma/(2 pi M^2 t)
    modes = make_single_mode(100.0, 10.0, 0.04)
    positive = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-8,
                              halfwidth_multiple=9.0)
    for t in (1.0, 4.0):
        amp = complex(direct_boosted_amplitude(modes, 0.0, t, positive))
        rotated = amp * cmath.exp(1j * modes.M * t)
        assert abs(rotated.imag) <= 1e-12 * abs(rotated)

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
    # heavy narrow mode with the domain pushed below zero: dropping m < 0
    # moves the answer by < 1e-6
    modes = make_single_mode(5000.0, 5.0, 0.04)
    wide = dict(abs_tol=1e-9, rel_tol=1e-7, halfwidth_multiple=1200.0)
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
    v1, e1 = direct_boosted_amplitude(modes, 200.0, 5.0, loose, return_error=True)
    v2 = direct_boosted_amplitude(modes, 200.0, 5.0, tight)
    assert abs(v1 - v2) <= e1
    # the reported error is dominated by the analytic tail bound
    assert e1 > 1e-4


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


def test_nonconvergence_carries_best_estimate(mode_p200_m80):
    modes, _ = mode_p200_m80
    starved = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14,
                             max_segments=64, max_rounds=2)
    with pytest.raises(OracleConvergenceError) as info:
        direct_boosted_amplitude(modes, 200.0, 5.0, starved)
    assert info.value.value is not None
    assert info.value.error_estimate is not None


THREE_MODES = {"M": 80.0, "w": [0.5, 0.3, 0.2], "Gamma": [1.0, 1.5, 2.0],
               "Omega": [10.0, 5.0, 2.5], "a": [0.04, 0.04, 0.04]}

ORACLE_GRIDS = {
    # more than 64 equal steps: the phase recurrence resyncs several times
    "linspace": np.linspace(2.0, 11.0, 70),
    # over a decade: several blocks, and unequal steps take exact phases
    "geomspace": np.geomspace(0.5, 12.0, 25),
    # unsorted, with a duplicate and t = 0
    "unsorted": np.array([6.0, 2.5, 0.0, 4.1, 2.5, 3.3, 9.0, 5.2]),
}


def _oracle_modes(case):
    if case == "three_mode":
        return od.validate_modes(THREE_MODES)
    return make_single_mode(80.0, 10.0, 0.04)


@pytest.mark.parametrize("grid", sorted(ORACLE_GRIDS))
@pytest.mark.parametrize("case", ["curve_b", "three_mode"])
def test_grid_call_matches_per_point_calls(case, grid):
    # one call shares a partition per block of times; each time still
    # meets its own budget, so it lands on the per-point value
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
    starved = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14,
                             max_segments=64, max_rounds=2)
    with pytest.raises(OracleConvergenceError) as info:
        direct_survival(modes, 200.0, t, starved)
    named = float(str(info.value).rsplit("t=", 1)[1])
    assert named in t
    # the estimate carried is that time's own
    assert abs(info.value.value - direct_boosted_amplitude(modes, 200.0, named, FAST)) <= 1e-4
    assert info.value.error_estimate > 0.0


def test_kronrod_rule_exactness_and_shared_nodes():
    # QK15 is exact through degree 23 on one panel; the G7 error
    # estimate vanishes through degree 13
    # (one value per abscissa is one integrand: arrays of one come back)
    (value,), (err,) = adaptive_gauss(lambda x: x**13, [0.0, 1.0], 1e-3, 0.0)
    assert value == pytest.approx(1.0 / 14.0, rel=1e-14)
    assert err <= 1e-16
    (value,), _ = adaptive_gauss(lambda x: x**23 + x**22, [0.0, 1.0], 1.0, 0.0)
    assert value == pytest.approx(1.0 / 24.0 + 1.0 / 23.0, rel=1e-14)
    # two integrands on the same nodes: the oscillating one forces
    # refinement, and each meets its own budget
    values, errs = adaptive_gauss(lambda x: np.stack([x * x, np.cos(200.0 * x)]),
                                  [0.0, 1.0], 1e-12, 1e-12)
    assert values == pytest.approx([1.0 / 3.0, math.sin(200.0) / 200.0], rel=1e-11, abs=1e-13)
    assert np.all(errs <= np.maximum(1e-12, 1e-12 * np.abs(values)))


@pytest.mark.parametrize("field, value", [
    ("halfwidth_multiple", float("nan")), ("halfwidth_multiple", float("inf")),
    ("abs_tol", float("nan")), ("abs_tol", float("inf")), ("abs_tol", 0.0),
    ("rel_tol", float("nan")), ("rel_tol", float("inf")), ("rel_tol", -1e-6),
    ("max_segments", float("nan")), ("max_segments", 100.5), ("max_segments", 1),
    ("max_rounds", float("nan")), ("max_rounds", 2.5), ("max_rounds", float("inf")),
])
def test_quadrature_spec_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        QuadratureSpec(**{field: value})


def test_quadrature_spec_accepts_edge_values():
    spec = QuadratureSpec(halfwidth_multiple=1e-3, abs_tol=1e300, rel_tol=0.0,
                          max_segments=2.0, max_rounds=1.0)
    assert (spec.max_segments, spec.max_rounds) == (2, 1)
    assert type(spec.max_segments) is int and type(spec.max_rounds) is int


def _series(t, values, label):
    return od.CurveSeries(t=np.asarray(t, dtype=float),
                          values=np.asarray(values, dtype=float),
                          frame="boosted", kind="probability", label=label)


def test_compare_identical_series_reports_zero():
    t = np.linspace(1.0, 5.0, 9)
    v = np.exp(-t)
    rep = oracle_compare(_series(t, v, "a"), _series(t, v, "b"))
    assert rep.max_abs_deviation == 0.0
    assert rep.max_rel_deviation == 0.0
    assert rep.n_points == 9


def test_compare_rejects_grid_mismatch():
    t = np.linspace(1.0, 5.0, 9)
    v = np.exp(-t)
    with pytest.raises(ValueError):
        oracle_compare(_series(t, v, "a"), _series(t + 1e-9, v, "b"))


def test_compare_locates_injected_deviation():
    t = np.linspace(1.0, 5.0, 9)
    v = np.exp(-t)
    bumped = v.copy()
    bumped[4] += 1e-3
    rep = oracle_compare(_series(t, bumped, "closed"), _series(t, v, "direct"))
    assert rep.max_abs_deviation == pytest.approx(1e-3, rel=1e-12)
    assert rep.t_at_max_abs == pytest.approx(t[4])
    assert rep.max_rel_deviation == pytest.approx(1e-3 / v[4], rel=1e-9)


def test_direct_envelope_stays_bounded(mode_p200_m80):
    # e^{t/gamma_minus} P_p <= 1 on the window, checked against the
    # oracle rather than the closed form
    modes, ctx = mode_p200_m80
    for t in (3.0, 8.0, 14.0):
        val = direct_survival(modes, 200.0, t, FAST)
        assert math.exp(t / float(ctx.gamma_minus[0])) * val <= 1.0
