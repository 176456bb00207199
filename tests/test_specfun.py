"""Special-function layer against frozen arbitrary-precision references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdecay.kinematics import pole_energies
from oscdecay.specfun import bessel_j1, bessel_y1, branch_cut, struve_h1

from conftest import branch_cut_formula, xi_fn


def _max_rel_err(got, ref):
    got = np.asarray(got)
    ref = np.asarray(ref)
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)))


def _per_point(fn, x):
    return np.array([fn(v) for v in x])


def _whole_array(fn, x):
    return fn(np.asarray(x))


# each table test runs once scalar by scalar and once on the whole table
evaluations = pytest.mark.parametrize(
    "evaluate", [_per_point, _whole_array], ids=["per_point", "array"])


@evaluations
def test_j1_against_reference_table(specfun_table, evaluate):
    got = evaluate(bessel_j1, specfun_table["x"])
    assert _max_rel_err(got, specfun_table["j1"]) <= 1e-10


@evaluations
def test_y1_against_reference_table(specfun_table, evaluate):
    got = evaluate(bessel_y1, specfun_table["x"])
    assert _max_rel_err(got, specfun_table["y1"]) <= 1e-10


@evaluations
def test_h1_against_reference_table(specfun_table, evaluate):
    got = evaluate(struve_h1, specfun_table["x"])
    assert _max_rel_err(got, specfun_table["h1"]) <= 1e-10


@evaluations
def test_envelope_relative_error_tighter(specfun_table, evaluate):
    # away from zeros the oscillation envelope sqrt(2/(pi x)) is the
    # natural scale; against it the table agreement is ~1e-13
    x = np.array(specfun_table["x"])
    for name, fn in (("j1", bessel_j1), ("y1", bessel_y1)):
        ref = np.array(specfun_table[name])
        got = evaluate(fn, x)
        env = np.sqrt(2.0 / (np.pi * np.maximum(x, 1e-300)))
        scale = np.maximum(np.abs(ref), np.where(x > 1, env, np.abs(ref)))
        assert np.max(np.abs(got - ref) / scale) <= 1e-12


def test_j1_first_zero(frozen_spots):
    x0 = frozen_spots["j1_first_zero"]
    assert abs(bessel_j1(x0)) < 5e-16
    # sign change across the root
    assert bessel_j1(x0 - 1e-8) > 0 > bessel_j1(x0 + 1e-8)


def test_struve_seam_continuity():
    # series/expansion switchover at x=9: the two-sided jump must match
    # slope * dx, i.e. no branch offset beyond ~1e-12
    eps = 1e-9
    below = struve_h1(9.0 - eps)
    above = struve_h1(9.0 + eps)
    slope = (struve_h1(9.01) - struve_h1(8.99)) / 0.02
    assert abs((above - below) - slope * 2 * eps) <= 1e-12


def test_h1_minus_y1_approaches_2_over_pi():
    val = struve_h1(500.0) - bessel_y1(500.0)
    assert abs(val - 2.0 / math.pi) <= 0.01 * (2.0 / math.pi)


def test_h1_minus_y1_monotone_envelope_far_out():
    # beyond x=50 the difference decays toward 2/pi monotonically
    xs = np.linspace(50.0, 2000.0, 200)
    gap = np.array([abs(struve_h1(x) - bessel_y1(x) - 2.0 / math.pi) for x in xs])
    assert np.all(np.diff(gap) <= 1e-15)


def _composed_branch_cut(z):
    return branch_cut_formula(bessel_j1(z), bessel_y1(z), struve_h1(z))


def test_branch_cut_equals_its_composition_exactly():
    # branch_cut shares each fit between J1, Y1 and H1; that must not move
    # a single bit, across both seams and on either side of each
    seams = [5.0, 9.0, math.nextafter(5.0, 0.0), math.nextafter(5.0, 6.0),
             math.nextafter(9.0, 0.0), math.nextafter(9.0, 10.0)]
    z = np.concatenate([np.geomspace(1e-8, 1e4, 4001), seams])
    A, B = branch_cut(z)
    A_ref, B_ref = _composed_branch_cut(z)
    assert np.array_equal(A, A_ref) and np.array_equal(B, B_ref)
    for zi in seams + [1e-8, 1.0, 1e4]:
        a, b = branch_cut(zi)
        assert type(a) is complex and type(b) is float
        assert (a, b) == _composed_branch_cut(zi)


def test_small_x_series_values():
    # H1(x) ~ 2x^2/(3 pi) and J1(x) ~ x/2 for x -> 0
    x = 1e-6
    assert struve_h1(x) == pytest.approx(2 * x * x / (3 * math.pi), rel=1e-9)
    assert bessel_j1(x) == pytest.approx(x / 2, rel=1e-9)


def _pole_exponent(M, Gamma, p):
    # 2i E from one-entry arrays, as the grid law evaluates E
    return complex(2j * pole_energies(np.array([M]), np.array([Gamma]), p)[0])


def _lambda_pm(M, Gamma, p):
    # (lam_minus, lam_plus): the real and imaginary parts of the pole
    # exponent 2i E
    u = _pole_exponent(M, Gamma, p)
    return u.real, u.imag


valid_triples = st.tuples(
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=0.0, max_value=1e4),
).filter(lambda t: t[1] < t[0] / 5)


@settings(max_examples=500, deadline=None)
@given(valid_triples)
def test_lambda_product_identity(triple):
    M, Gamma, p = triple
    lm, lp = _lambda_pm(M, Gamma, p)
    assert lm * lp == pytest.approx(2 * M * Gamma, rel=1e-10)


@settings(max_examples=500, deadline=None)
@given(valid_triples)
def test_lambda_difference_identity(triple):
    M, Gamma, p = triple
    lm, lp = _lambda_pm(M, Gamma, p)
    assert lp * lp - lm * lm == pytest.approx(
        4 * (M * M - Gamma * Gamma / 4 + p * p), rel=1e-10
    )


@settings(max_examples=500, deadline=None)
@given(valid_triples)
def test_upsilon_quadratic_root(triple):
    # (Upsilon/2)^2 + p^2 + (M - i Gamma/2)^2 = 0 for Upsilon = 2i E
    M, Gamma, p = triple
    u = _pole_exponent(M, Gamma, p)
    residual = (u / 2) ** 2 + p * p + (M - 1j * Gamma / 2) ** 2
    scale = abs(p * p + (M - 1j * Gamma / 2) ** 2)
    assert abs(residual) <= 1e-10 * scale


@settings(max_examples=200, deadline=None)
@given(valid_triples)
def test_lambda_signs_and_ordering(triple):
    M, Gamma, p = triple
    lm, lp = _lambda_pm(M, Gamma, p)
    assert lm > 0
    assert lp > lm


def test_lambda_minus_no_cancellation():
    # small Gamma/M: naive subtraction would lose ~10 digits here
    M, Gamma, p = 1e4, 1e-3, 1e4
    lm, lp = _lambda_pm(M, Gamma, p)
    assert lm * lp == pytest.approx(2 * M * Gamma, rel=1e-12)


def test_xi_frozen_spot(frozen_spots):
    ref = complex(*frozen_spots["xi_M100_p210_t1"])
    got = xi_fn(100.0, 210.0, 1.0)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_xi_large_pt_decay():
    # |Xi| falls off with pt once the transient terms cancel
    small = abs(xi_fn(100.0, 210.0, 50.0))
    tiny = abs(xi_fn(100.0, 210.0, 5000.0))
    assert tiny < small < 1.0
