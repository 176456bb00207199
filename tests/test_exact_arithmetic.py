"""Bit-for-bit checks of the evaluation paths against their plain formulas.

The special functions evaluate their rational fits as the rows of one
stacked Horner loop and send points that all lie on one side of a seam to
their branch without masks; the window computes the background sum once;
the rest-frame split skips the amplitude. None of this may change a bit,
so every comparison here is ==, against references written out plainly:
one Horner loop per fit, one point at a time.
"""

import math

import numpy as np
import pytest

from oscdecay import specfun
from oscdecay.kinematics import shifted_kinematics, validate_modes
from oscdecay.restframe import amplitude_rest, decay_rate_rest, survival_rest_split
from oscdecay.specfun import bessel_j1, bessel_y1, branch_cut, struve_h1
from oscdecay.window import exponential_windows, w_fn, xi_prime


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    # Cephes p1evl: leading coefficient 1 implied
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ref_j1_small(x):
    z = x * x
    w = _polevl(z, specfun.RP1) / _p1evl(z, specfun.RQ1)
    return w * x * (z - specfun.Z1) * (z - specfun.Z2)


def _ref_y1_small(x):
    z = x * x
    w = x * _polevl(z, specfun.YP1) / _p1evl(z, specfun.YQ1)
    return w + specfun.TWOOPI * (_ref_j1_small(x) * np.log(x) - 1.0 / x)


def _ref_large(x):
    w = specfun.BESSEL_SEAM / x
    z = w * w
    p = _polevl(z, specfun.PP1) / _polevl(z, specfun.PQ1)
    wq = w * (_polevl(z, specfun.QP1) / _p1evl(z, specfun.QQ1))
    xn = x - specfun.THPIO4
    scale = specfun.SQ2OPI / np.sqrt(x)
    c = np.cos(xn)
    s = np.sin(xn)
    return (p * c - wq * s) * scale, (p * s + wq * c) * scale


def _ref_h1_minus_y1(x):
    u = specfun.STRUVE_SEAM / x
    t = 2.0 * u * u - 1.0
    b0 = 0.0
    b1 = 0.0
    for c in reversed(specfun.H1Y1_CHEB):
        b0, b1 = t * 2.0 * b0 - b1 + c, b0
    return b0 - b1 * t


def _ref_point(v):
    """(J1, Y1, H1) at one finite v > 0, each fit in its own loop."""
    x = np.array([v])
    if v <= specfun.BESSEL_SEAM:
        j1, y1 = _ref_j1_small(x), _ref_y1_small(x)
    else:
        j1, y1 = _ref_large(x)
    if v <= specfun.STRUVE_SEAM:
        q = 0.25 * x * x
        h1 = q * _polevl(q, specfun.H1_SERIES)
    else:
        h1 = _ref_h1_minus_y1(x) + y1
    return j1[0], y1[0], h1[0]


def _around(*seams):
    # each seam and its neighbouring doubles
    return [v for s in seams
            for v in (np.nextafter(s, 0.0), s, np.nextafter(s, np.inf), s - 1e-9, s + 1e-9)]


# crosses both seams (5 and 9), from near zero to the far tail
SWEEP = np.unique(np.concatenate([
    np.geomspace(1e-8, 1e4, 241),
    np.linspace(0.05, 30.0, 300),
    _around(specfun.BESSEL_SEAM, specfun.STRUVE_SEAM),
]))


def test_sweep_covers_both_seams_and_their_neighbours():
    for seam in (5.0, 9.0):
        assert seam in SWEEP
        assert np.nextafter(seam, 0.0) in SWEEP and np.nextafter(seam, np.inf) in SWEEP


def test_stacked_small_fits_equal_their_own_horner_loops():
    z = SWEEP[SWEEP <= specfun.BESSEL_SEAM] ** 2
    z = np.concatenate([[0.0], z])
    rp, rq, yp, yq = specfun._polevl(z, specfun.SMALL_FITS)
    assert np.array_equal(rp, _polevl(z, specfun.RP1))
    assert np.array_equal(rq, _p1evl(z, specfun.RQ1))
    assert np.array_equal(yp, _polevl(z, specfun.YP1))
    assert np.array_equal(yq, _p1evl(z, specfun.YQ1))


def test_stacked_large_fits_equal_their_own_horner_loops():
    z = (specfun.BESSEL_SEAM / SWEEP[SWEEP > specfun.BESSEL_SEAM]) ** 2
    pp, pq, qp, qq = specfun._polevl(z, specfun.LARGE_FITS)
    assert np.array_equal(pp, _polevl(z, specfun.PP1))
    assert np.array_equal(pq, _polevl(z, specfun.PQ1))
    assert np.array_equal(qp, _polevl(z, specfun.QP1))
    assert np.array_equal(qq, _p1evl(z, specfun.QQ1))


def test_h1_series_equals_its_own_horner_loop():
    q = 0.25 * SWEEP[SWEEP <= specfun.STRUVE_SEAM] ** 2
    assert np.array_equal(specfun._polevl(q, specfun.H1_SERIES), _polevl(q, specfun.H1_SERIES))


def test_j1_y1_h1_and_branch_cut_equal_the_per_fit_reference():
    ref = np.array([_ref_point(v) for v in SWEEP])
    j1, y1, h1 = ref.T
    assert np.array_equal(bessel_j1(SWEEP), j1)
    assert np.array_equal(bessel_y1(SWEEP), y1)
    assert np.array_equal(struve_h1(SWEEP), h1)
    A, B = branch_cut(SWEEP)
    assert np.array_equal(A, (0.5 * math.pi * h1 - 1.0) - 1j * (0.5 * math.pi * j1))
    assert np.array_equal(B, 1.0 + 0.5 * math.pi * (y1 - h1))


def test_j1_and_h1_at_zero():
    # the stacked small fits hold Y1's rational part, finite at x = 0
    with np.errstate(all="raise"):
        assert bessel_j1(0.0) == 0.0
        assert struve_h1(0.0) == 0.0
        assert np.array_equal(bessel_j1(np.array([0.0, 1.0])), [0.0, bessel_j1(1.0)])


@pytest.mark.parametrize("z", [
    np.linspace(0.01, 5.0, 37),                      # all on the small-x fits
    np.linspace(np.nextafter(5.0, np.inf), 9.0, 37),  # large-x J1/Y1, H1 series
    np.linspace(np.nextafter(9.0, np.inf), 30.0, 37),  # all beyond both seams
    200.0 * np.linspace(2.0, 11.0, 37),             # a benchmark-like grid
    SWEEP,                                          # across both seams
], ids=["below", "between", "above", "far", "across"])
def test_branch_cut_on_an_array_equals_it_point_by_point(z):
    A, B = branch_cut(z)
    one = [branch_cut(float(v)) for v in z]
    assert np.array_equal(A, np.array([a for a, _ in one]))
    assert np.array_equal(B, np.array([b for _, b in one]))
    for fn in (bessel_j1, bessel_y1, struve_h1):
        assert np.array_equal(fn(z), np.array([fn(float(v)) for v in z]))


MODE_SETS = {
    "curve_b": ({"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]}, 200.0),
    "three": ({"M": 100.0, "w": [0.5, 0.3, 0.2], "Gamma": [1.0, 1.5, 2.0],
               "Omega": [0.0, 5.0, 8.0], "a": [0.1, 0.0, 0.03]}, 150.0),
    # two modes share Omega = 5, so the split's Q term pairs them
    "four": ({"M": 100.0, "w": [0.4, 0.3, 0.2, 0.1], "Gamma": [1.0, 1.5, 2.0, 2.5],
              "Omega": [5.0, 5.0, 8.0, 12.0], "a": [0.05, 0.1, 0.05, 0.03]}, 40.0),
    # its nine background terms sum to a different last bit pairwise (np.sum)
    # than left to right, so a reordered xi' sum shows
    "nine": ({"M": 200.0, "w": [1.0 / 9.0] * 9, "Gamma": [1.0 + 0.25 * i for i in range(9)],
              "Omega": [0.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0],
              "a": [0.0, 0.02, 0.03, 0.02, 0.01, 0.02, 0.03, 0.02, 0.01]}, 300.0),
}


def _modes(name):
    raw, p = MODE_SETS[name]
    modes = validate_modes(raw)
    return modes, shifted_kinematics(modes, p)


@pytest.mark.parametrize("name", sorted(MODE_SETS))
def test_window_xi_values_equal_the_per_mode_formula(name):
    modes, ctx = _modes(name)
    g = ctx.gamma
    velocity = ctx.p / (g * modes.M)
    expected = []
    for j in range(modes.N):
        background = sum(
            float(modes.w[l]) * float(modes.Gamma[l])
            * w_fn(modes.M, float(modes.Omega[l]), float(modes.a[l]))
            for l in range(modes.N))
        lead = math.sqrt(float(modes.Gamma[j]) / (math.pi * modes.M) * velocity)
        expected.append(lead * background
                        / (2.0 * modes.M * float(modes.w[j]) * (1.0 - 2.0 * float(modes.a[j]))))
    assert exponential_windows(modes, ctx).xi_values == tuple(expected)
    assert [xi_prime(modes, ctx, j) for j in range(modes.N)] == expected


@pytest.mark.parametrize("name", sorted(MODE_SETS))
def test_rest_law_and_split_equal_the_plain_formulas(name):
    modes, _ = _modes(name)
    t = np.concatenate([[0.0], np.geomspace(1e-6, 60.0, 400)])
    w, G, O, a = (v[:, None] for v in (modes.w, modes.Gamma, modes.Omega, modes.a))
    damp = w * np.exp(-0.5 * (G * t))
    phase = O * t
    amp = (damp * ((1.0 - a) + a * np.cos(phase))).sum(axis=0)
    wave = damp * a
    F = (damp * (1.0 - a)).sum(axis=0)
    S = (wave * np.cos(phase)).sum(axis=0)
    Q = 0.5 * (wave * ((O == O.T).astype(float) @ wave)).sum(axis=0)
    exp_part, osc_part = survival_rest_split(modes, t)
    assert np.array_equal(exp_part, F * F + Q)
    assert np.array_equal(osc_part, (2.0 * F + S) * S - Q)
    assert np.array_equal(amplitude_rest(modes, t), amp)
    lam1 = modes.Gamma * (1.0 - modes.a)
    root = np.hypot(modes.Gamma, 2.0 * modes.Omega)
    lam2 = modes.a * root
    beta = np.where(lam2 > 0.0, np.arccos(modes.Gamma / root), 0.0)
    rate = (damp * (lam1[:, None] + lam2[:, None] * np.cos(phase - beta[:, None]))).sum(axis=0)
    assert np.array_equal(decay_rate_rest(modes, t), -amp * rate)
