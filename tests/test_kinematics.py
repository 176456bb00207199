"""Kinematics: Lorentz factors, shifted-mode quantities, model validation."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscdecay as od
from oscdecay.kinematics import ModeValidationError, RestModeSet, mode_terms, pole_energies

from conftest import BOOST_SETS, GAMMA_TABLE, make_single_mode


@pytest.mark.parametrize("key", sorted(BOOST_SETS))
def test_lorentz_factor_benchmark_values(key):
    cfg = BOOST_SETS[key]
    gamma = od.lorentz_factor(cfg["M"], cfg["p"])
    assert round(gamma, 4) == pytest.approx(GAMMA_TABLE[key], abs=5e-5)


def test_lorentz_factor_closed_form():
    assert od.lorentz_factor(100.0, 100.0) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert od.lorentz_factor(100.0, 0.0) == 1.0


def test_lorentz_factor_rejects_nonpositive_mass():
    with pytest.raises(Exception):
        od.lorentz_factor(0.0, 10.0)
    with pytest.raises(Exception):
        od.lorentz_factor(-5.0, 10.0)


@pytest.mark.parametrize("M", [math.nan, math.inf])
def test_lorentz_factor_rejects_nonfinite_mass(M):
    with pytest.raises(ValueError, match="requires finite M > 0"):
        od.lorentz_factor(M, 10.0)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, -1.0])
def test_nonfinite_momentum_rejected(p):
    # and a negative one: every entry that takes p reads one rule, one message
    modes = make_single_mode(80.0, 10.0, 0.04)
    message = "^momentum p must be finite and >= 0, got %s$" % re.escape(repr(p))
    for call in (lambda: od.lorentz_factor(80.0, p), lambda: od.shifted_kinematics(modes, p),
                 lambda: od.direct_survival(modes, p, 1.0)):
        with pytest.raises(ValueError, match=message):
            call()


def test_large_finite_momentum_accepted():
    modes = make_single_mode(80.0, 10.0, 0.04)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma = od.lorentz_factor(80.0, 1e300)
        ctx = od.shifted_kinematics(modes, 1e300)
    assert gamma == pytest.approx(1e300 / 80.0, rel=1e-15)
    assert ctx.gamma == gamma


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_lorentz_factor_monotonicity(M, p, dp):
    # increasing in p at fixed M; decreasing in M at fixed p, up to the
    # float resolution of gamma ~ 1 + p^2/(2M^2)
    g0 = od.lorentz_factor(M, p)
    g1 = od.lorentz_factor(M, p + dp)
    assert g1 >= g0
    g2 = od.lorentz_factor(M * 2, p)
    assert g2 <= g0
    if g0 > 1 + 1e-12:
        assert g1 > g0
        assert g2 < g0


def test_shifted_gamma_minus_spot():
    # the Lorentz factor of the shifted mass M - Omega = 90 at p = 210
    expected = math.sqrt(1 + (210.0 / 90.0) ** 2)
    assert od.lorentz_factor(90.0, 210.0) == pytest.approx(expected, rel=1e-14)
    assert round(expected, 4) == 2.5386


# ranges picked so every ratio stays resolvable in double precision
boost_params = st.tuples(
    st.floats(min_value=1.0, max_value=1e3),       # M
    st.floats(min_value=1e-3, max_value=0.499),    # Omega as fraction of M
    st.floats(min_value=1e-2, max_value=1e2),      # p as multiple of M
)


@settings(max_examples=500, deadline=None)
@given(boost_params)
def test_gamma_ratio_inequality_chain(params):
    # 1/2 < sqrt((1+x)/(1+4x)) < gamma/gamma- < 1 < gamma/gamma+
    #     < sqrt((1+x)/(1+4x/9)) < 3/2   with x = p^2/M^2, Omega < M/2
    M, frac, pfrac = params
    Omega = frac * M
    p = pfrac * M
    gamma = od.lorentz_factor(M, p)
    gm = od.lorentz_factor(M - Omega, p)
    gp = od.lorentz_factor(M + Omega, p)
    x = (p / M) ** 2
    lower = math.sqrt((1 + x) / (1 + 4 * x))
    upper = math.sqrt((1 + x) / (1 + 4 * x / 9))
    assert 0.5 < lower < gamma / gm < 1 < gamma / gp < upper < 1.5


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=100.0, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_first_order_width_shift(M, p):
    # Gamma-/gamma ~ (Gamma/gamma)(1 - p^2 Omega/(gamma^2 M^3)) and the
    # + partner, to second order in Omega/M
    Omega = M / 200.0
    Gamma = 1.0
    gamma = od.lorentz_factor(M, p)
    gm = od.lorentz_factor(M - Omega, p)
    gp = od.lorentz_factor(M + Omega, p)
    corr = p * p * Omega / (gamma * gamma * M ** 3)
    exact_m = (gamma / gm) * Gamma / gamma
    exact_p = (gamma / gp) * Gamma / gamma
    approx_m = (Gamma / gamma) * (1 - corr)
    approx_p = (Gamma / gamma) * (1 + corr)
    tol = 10 * (Omega / M) ** 2
    assert abs(exact_m - approx_m) <= tol * abs(exact_m)
    assert abs(exact_p - approx_p) <= tol * abs(exact_p)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=100.0, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_first_order_frequency_shift(M, p):
    # M-+ gamma-+ - M gamma ~ -+(Omega/gamma)(1 -+ p^2 Omega/(2 gamma^2 M^3))
    Omega = M / 200.0
    gamma = od.lorentz_factor(M, p)
    gm = od.lorentz_factor(M - Omega, p)
    gp = od.lorentz_factor(M + Omega, p)
    half_corr = p * p * Omega / (2 * gamma * gamma * M ** 3)
    exact_m = (M - Omega) * gm - M * gamma
    exact_p = (M + Omega) * gp - M * gamma
    approx_m = -(Omega / gamma) * (1 - half_corr)
    approx_p = (Omega / gamma) * (1 + half_corr)
    tol = 10 * (Omega / M) ** 2 * (Omega / gamma)
    assert abs(exact_m - approx_m) <= tol
    assert abs(exact_p - approx_p) <= tol


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=100.0, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_transformed_frequency_span(M, p):
    # M+ gamma+ - M- gamma- ~ (Omega/gamma)(2 - p^2 Omega^2/(M^4 gamma^4))
    Omega = M / 200.0
    gamma = od.lorentz_factor(M, p)
    gm = od.lorentz_factor(M - Omega, p)
    gp = od.lorentz_factor(M + Omega, p)
    exact = (M + Omega) * gp - (M - Omega) * gm
    approx = (Omega / gamma) * (2 - p * p * Omega * Omega / (M ** 4 * gamma ** 4))
    tol = 10 * (Omega / M) ** 2 * (Omega / gamma)
    assert abs(exact - approx) <= tol


def test_validate_accepts_benchmark_sets():
    for cfg in BOOST_SETS.values():
        modes = make_single_mode(cfg["M"], cfg["Omega"], cfg["a"])
        assert modes.N == 1


def test_validate_weight_sum_tolerance():
    with pytest.raises(ModeValidationError):
        od.validate_modes(
            {"M": 100.0, "w": [0.6, 0.5], "Gamma": [1.0, 2.0],
             "Omega": [10.0, 0.0], "a": [0.04, 0.0]}
        )


def test_validate_strict_width_ordering():
    with pytest.raises(ModeValidationError):
        od.validate_modes(
            {"M": 100.0, "w": [0.5, 0.5], "Gamma": [2.0, 2.0],
             "Omega": [10.0, 0.0], "a": [0.04, 0.0]}
        )


def test_validate_rate_positivity_bound():
    # a=0.49, Omega=10 requires Gamma > 69.3
    with pytest.raises(ModeValidationError) as err:
        od.validate_modes(
            {"M": 100.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.49]}
        )
    assert any("positivity" in v for v in err.value.violations)
    bound = 2 * 0.49 * 10.0 / math.sqrt(1 - 2 * 0.49)
    assert bound == pytest.approx(69.296, abs=1e-3)


def test_validate_amplitude_range():
    with pytest.raises(ModeValidationError):
        make_single_mode(100.0, 10.0, 0.5)
    with pytest.raises(ModeValidationError):
        make_single_mode(100.0, 10.0, -0.01)
    # a = 0 is a purely exponential mode, always fine
    modes = make_single_mode(100.0, 0.0, 0.0)
    assert modes.a[0] == 0.0


def test_validate_frequency_below_mass():
    with pytest.raises(ModeValidationError):
        make_single_mode(100.0, 100.0, 0.04)


def test_validate_narrow_width_threshold():
    # Gamma/(M - Omega) = 1/9 exceeds the default 5e-2
    with pytest.raises(ModeValidationError):
        od.validate_modes(
            {"M": 10.0, "w": [1.0], "Gamma": [1.0], "Omega": [1.0], "a": [0.04]}
        )
    # tighter custom threshold rejects an otherwise valid set
    with pytest.raises(ModeValidationError):
        od.validate_modes(
            {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]},
            narrow_width_threshold=1e-2,
        )


def test_validate_collects_all_violations():
    with pytest.raises(ModeValidationError) as err:
        od.validate_modes(
            {"M": 100.0, "w": [0.3, 0.3], "Gamma": [2.0, 1.0],
             "Omega": [10.0, 120.0], "a": [0.6, 0.04]}
        )
    # weight sum, width ordering, frequency bound, amplitude range
    assert len(err.value.violations) >= 4


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1.0])
def test_validate_rejects_bad_narrow_width_threshold(threshold):
    candidate = {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]}
    with pytest.raises(ValueError, match="narrow_width_threshold"):
        od.validate_modes(candidate, narrow_width_threshold=threshold)
    # any finite positive threshold the set meets is accepted
    assert od.validate_modes(candidate, narrow_width_threshold=1.0).N == 1


CURVE_B = {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]}
THREE_MODES = {"M": 200.0, "w": [0.4, 0.3, 0.3], "Gamma": [1.0, 2.0, 3.5],
               "Omega": [10.0, 20.0, 40.0], "a": [0.04, 0.04, 0.04]}


@pytest.mark.parametrize("change, violations", [
    ({"Omega": None}, ["mode field 'Omega' is missing"]),
    ({"Omgea": [5.0]}, ["'Omgea' is not a mode field"]),
    ({"omega": [10.0], "Omega": None, "a": ["x"]},
     ["'omega' is not a mode field", "mode field 'Omega' is missing",
      "a must be a number or a list of numbers, got ['x']"]),
], ids=["missing", "extra", "misspelt_and_unreadable"])
def test_validate_names_a_missing_or_unknown_field(change, violations):
    # collected with the other violations, not raised as a bare KeyError
    candidate = {key: value for key, value in {**CURVE_B, **change}.items() if value is not None}
    with pytest.raises(ModeValidationError) as err:
        od.validate_modes(candidate)
    assert err.value.violations == violations


def test_validate_modes_reads_an_existing_set():
    # README documents a RestModeSet as a candidate: each check runs again on it
    modes = od.validate_modes(CURVE_B)
    again = od.validate_modes(modes)
    assert again == modes and type(again) is RestModeSet
    with pytest.raises(ModeValidationError) as err:
        od.validate_modes(modes, narrow_width_threshold=1e-2)
    assert err.value.violations == [
        "narrow-width check failed for mode 0: Gamma/(M-Omega)=0.014285714285714285 > 0.01"]


def test_validated_set_cannot_be_mutated():
    modes = od.validate_modes(THREE_MODES)
    with pytest.raises(TypeError):
        modes.w[0] = 7.0
    assert modes.w == (0.4, 0.3, 0.3)


@pytest.mark.parametrize("form", [list, tuple, np.array, "scalar", "0-d array"])
def test_validate_gives_equal_hashable_sets_from_any_form(form):
    if form == "scalar":
        candidate = {k: v if k == "M" else v[0] for k, v in CURVE_B.items()}
    elif form == "0-d array":
        candidate = {k: np.array(v if k == "M" else v[0]) for k, v in CURVE_B.items()}
    else:
        candidate = {k: v if k == "M" else form(v) for k, v in CURVE_B.items()}
    modes = od.validate_modes(candidate)
    want = od.validate_modes(CURVE_B)
    assert modes == want
    assert hash(modes) == hash(want)
    assert modes.w == (1.0,) and modes.a == (0.04,)
    for field in (modes.w, modes.Gamma, modes.Omega, modes.a):
        assert isinstance(field, tuple) and all(type(v) is float for v in field)
    assert type(modes.M) is float


def test_a_field_compares_with_a_number_entry_by_entry():
    # as the arrays the fields once were; never in tuple (dictionary) order
    modes = od.validate_modes(THREE_MODES)
    assert (modes.Gamma > 1.5) == (False, True, True)
    assert (modes.Gamma <= np.float32(2.0)) == (True, True, False)
    assert all(modes.a > 0.0) and not any(modes.a >= 0.5)
    for other in [(1.0, 2.0, 3.5), [2.0], "1"]:
        with pytest.raises(TypeError, match="compares only with a number"):
            modes.Gamma < other
    # a set built directly, as the window's mode subsets are, compares alike
    direct = RestModeSet(M=200.0, w=(1.0,), Gamma=(1.0,), Omega=(10.0,), a=(0.04,))
    assert (direct.a > 0.0) == (True,)


@pytest.mark.parametrize("field, value, message", [
    ("M", None, "M must be a number, got None"),
    ("w", None, "w must be a number or a list of numbers, got None"),
    ("Gamma", "abc", "Gamma must be a number or a list of numbers, got 'abc'"),
    ("Omega", [[10.0]], "Omega must be a number or a list of numbers, got [[10.0]]"),
    ("a", [0.04, None], "a must be a number or a list of numbers, got [0.04, None]"),
    ("Omega", np.array([[10.0]]),
     "Omega must be a number or a list of numbers, got array([[10.]])"),
    # ints beyond a double, which float() refuses with OverflowError
    ("M", 10**400, "M must be a number, got %r" % 10**400),
    ("w", [10**400], "w must be a number or a list of numbers, got [%r]" % 10**400),
], ids=["M_none", "w_none", "Gamma_text", "Omega_nested", "a_entry_none", "Omega_nested_array",
        "M_beyond_double", "w_beyond_double"])
def test_validate_names_a_field_float_cannot_read(field, value, message):
    with pytest.raises(ModeValidationError) as err:
        od.validate_modes(dict(CURVE_B, **{field: value}))
    assert err.value.violations == [message]


def test_validate_names_every_unreadable_field():
    with pytest.raises(ModeValidationError) as err:
        od.validate_modes(dict(CURVE_B, w=None, a="abc"))
    assert err.value.violations == ["w must be a number or a list of numbers, got None",
                                    "a must be a number or a list of numbers, got 'abc'"]


@pytest.mark.parametrize("fields, violations", [
    (dict(w=[], Gamma=[], Omega=[], a=[]),
     ["mode count must be >= 1, got 0", "sum of w must be 1 within 1e-12, got 0.0"]),
    (dict(Gamma=[1.0, 2.0]), ["array lengths differ: w=1 Gamma=2 Omega=1 a=1"]),
    (dict(Gamma=[math.inf]), ["non-finite parameter value"]),
    (dict(Omega=[math.nan]), ["non-finite parameter value"]),
    (dict(M=0.0), ["M must be > 0, got 0.0", "Omega[0] must lie in [0, M), got 10.0"]),
    (dict(w=[0.0, 1.0], Gamma=[1.0, 2.0], Omega=[10.0, 0.0], a=[0.04, 0.0]),
     ["w[0] must be > 0, got 0.0"]),
    (dict(Gamma=[0.0]), ["Gamma[0] must be > 0, got 0.0"]),
    (dict(Gamma=[-1.0], a=[0.0]), ["Gamma[0] must be > 0, got -1.0"]),
], ids=["no_modes", "lengths_differ", "infinite", "nan", "M_zero", "w_zero", "Gamma_zero",
        "Gamma_negative"])
def test_validate_names_each_violated_bound(fields, violations):
    with pytest.raises(ModeValidationError) as err:
        od.validate_modes(dict(CURVE_B, **fields))
    assert err.value.violations == violations
    assert str(err.value) == "; ".join(violations)


def test_sets_from_lists_and_arrays_give_bit_identical_laws():
    listed = od.validate_modes(THREE_MODES)
    arrayed = od.validate_modes({k: np.array(v) for k, v in THREE_MODES.items()})
    assert listed == arrayed
    t = np.linspace(0.5, 3.0, 6)
    got = []
    for modes in (listed, arrayed):
        ctx = od.shifted_kinematics(modes, 400.0)
        ev = od.BoostedLaw(modes, ctx)(t)
        got.append([ev.K_sum, ev.Phi_term, ev.P_p, od.survival_rest(modes, t),
                    od.phi_p(modes, ctx, t), od.direct_survival(modes, 400.0, t)])
    for a, b in zip(*got):
        assert a.tobytes() == b.tobytes()


def test_mode_terms_split():
    modes = od.validate_modes(
        {"M": 100.0, "w": [0.5, 0.3, 0.2], "Gamma": [1.0, 1.5, 2.0],
         "Omega": [10.0, 0.0, 5.0], "a": [0.04, 0.1, 0.0]}
    )
    mass, width, weight, scale = mode_terms(modes)
    # the a = 0 mode keeps only its central term; the Omega = 0 mode keeps
    # three terms on one centre
    assert mass.tolist() == [100.0, 90.0, 110.0, 100.0, 100.0, 100.0, 100.0]
    assert width.tolist() == [1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 2.0]
    assert weight == pytest.approx([0.48, 0.01, 0.01, 0.27, 0.015, 0.015, 0.2], rel=1e-15)
    assert weight.sum() == pytest.approx(1.0, abs=1e-15)
    assert scale == pytest.approx((100.0 / mass) ** 2, rel=1e-15)


@pytest.mark.parametrize("fields, p_over_M", [
    (CURVE_B, 0.0), (CURVE_B, 1e-10), (CURVE_B, 1.0), (CURVE_B, 1e6),
    # a narrow mode, Gamma/M = 1e-3, at p = 210
    ({"M": 100.0, "w": [1.0], "Gamma": [0.1], "Omega": [0.0], "a": [0.0]}, 2.1),
], ids=["0.0", "1e-10", "1.0", "1000000.0", "M100_G01_p210"])
def test_pole_energies_match_mpmath(fields, p_over_M):
    # each term against sqrt(p^2 + (c - i Gamma/2)^2) at 50 digits
    modes = od.validate_modes(fields)
    mass, width, _, _ = mode_terms(modes)
    p = p_over_M * modes.M
    got = pole_energies(mass, width, p)
    with mpmath.workdps(50):
        for c, g, e in zip(mass.tolist(), width.tolist(), got.tolist()):
            ref = mpmath.sqrt(mpmath.mpf(p) ** 2 + mpmath.mpc(c, -0.5 * g) ** 2)
            assert abs(e.real - ref.real) <= 1e-15 * abs(ref.real)
            assert abs(e.imag - ref.imag) <= 1e-15 * abs(ref.imag)
            # the fourth quadrant: the term decays as it turns
            assert e.real > 0.0 > e.imag
