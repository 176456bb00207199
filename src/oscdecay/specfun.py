"""Special functions underlying the boosted survival amplitude.

Double precision implementations of the order-one Bessel functions J1 and
Y1 (rational approximations from the Cephes library, public domain), the
order-one Struve function H1, and the branch-cut combinations (A, B) of
the boosted amplitude. The per-mode tail kernel xi = A + xi_mass_factor B
that the paper writes is a reference kernel in tests/conftest.py.

Accuracy contract for J1, Y1, H1: 1e-10 relative, 1e-12 absolute near
zeros, on [1e-8, 1e4], checked against frozen arbitrary-precision
references. The domain is the caller's: no function here checks its
arguments, which boost.BoostedLaw and validate_modes have checked.
"""

import math

import numpy as np

from .kinematics import maybe_scalar

SQ2OPI = 7.9788456080286535587989e-1   # sqrt(2/pi)
TWOOPI = 6.36619772367581343075535e-1  # 2/pi
THPIO4 = 2.35619449019234492885        # 3*pi/4

# J1/Y1 switch from the rational fit to the trig representation here.
BESSEL_SEAM = 5.0
# H1 switches from the power series to the Chebyshev fit here.
STRUVE_SEAM = 9.0


def _polevl(x, coef):
    # Horner's rule, highest power first; coef may hold one row per fit. The
    # first step makes the result array, the others update it in place
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


# Cephes j1: J1(x) = x (x^2 - Z1)(x^2 - Z2) RP1(x^2)/RQ1(x^2) on [0, 5].
# Z1, Z2 are the squares of the first two positive zeros, so the relative
# accuracy survives right at the zeros.
RP1 = [
    -8.99971225705559398224e8,
    4.52228297998194034323e11,
    -7.27494245221818276015e13,
    3.68295732863852883286e15,
]
RQ1 = [
    6.20836478118054335476e2,
    2.56987256757748830383e5,
    8.35146791431949253037e7,
    2.21511595479792499675e10,
    4.74914122079991414898e12,
    7.84369607876235854894e14,
    8.95222336184627338078e16,
    5.32278620332680085395e18,
]
Z1 = 1.46819706421238932572e1
Z2 = 4.92184563216946036703e1

# Shared modulus/phase fits for the x > 5 trig representations.
PP1 = [
    7.62125616208173112003e-4,
    7.31397056940917570436e-2,
    1.12719608129684925192e0,
    5.11207951146807644818e0,
    8.42404590141772420927e0,
    5.21451598682361504063e0,
    1.00000000000000000254e0,
]
PQ1 = [
    5.71323128072548699714e-4,
    6.88455908754495404082e-2,
    1.10514232634061696926e0,
    5.07386386128601488557e0,
    8.39985554327604159757e0,
    5.20982848682361821619e0,
    9.99999999999999997461e-1,
]
QP1 = [
    5.10862594750176621635e-2,
    4.98213872951233449420e0,
    7.58238284132545283818e1,
    3.66779609360150777800e2,
    7.10856304998926107277e2,
    5.97489612400613639965e2,
    2.11688757100572135698e2,
    2.52070205858023719784e1,
]
QQ1 = [
    7.42373277035675149943e1,
    1.05644886038262816351e3,
    4.98641058337653607651e3,
    9.56231892404756170795e3,
    7.99704160447350683650e3,
    2.82619278517639096600e3,
    3.36093607810698293419e2,
]

YP1 = [
    1.26320474790178026440e9,
    -6.47355876379160291031e11,
    1.14509511541823727583e14,
    -8.12770255501325109621e15,
    2.02439475713594898196e17,
    -7.78877196265950026825e17,
]
YQ1 = [
    5.94301592346128195359e2,
    2.35564092943068577943e5,
    7.34811944459721705660e7,
    1.87601316108706159478e10,
    3.88231277496238566008e12,
    6.20557727146953693363e14,
    6.87141087355300489866e16,
    3.97270608116560655612e18,
]


def _stack(*fits):
    # the fits as the rows of one Horner loop, shape (steps, fits, 1). Shorter
    # fits get leading zeros: 0 z + c = c and 1 z + c = z + c exactly, so each
    # row takes the steps of its own _polevl (or Cephes p1evl, whose implied
    # leading 1 is written out) bit for bit
    width = max(map(len, fits))
    return np.array([[0.0] * (width - len(f)) + list(f) for f in fits]).T[:, :, None]


# RP1, RQ1, YP1, YQ1 in z = x^2, and PP1, PQ1, QP1, QQ1 in z = (5/x)^2
SMALL_FITS = _stack(RP1, [1.0] + RQ1, YP1, [1.0] + YQ1)
LARGE_FITS = _stack(PP1, PQ1, QP1, [1.0] + QQ1)


# Chebyshev coefficients of H1(x) - Y1(x) in t = 2 (9/x)^2 - 1, x >= 9.
# Generated by tools/gen_specfun_reference.py against 50-digit references;
# max absolute fit error ~4e-15 over [9, 1e6]. The plain inverse-square
# asymptotic series stalls near e^{-x} (~1.5e-8 at x=18), so a fit is the
# only double precision route over [9, ~25].
H1Y1_CHEB = [
    0.6404531673321106,
    0.003803105609975958,
    -2.9292342889021247e-05,
    9.340606605902324e-07,
    -5.704476549664913e-08,
    5.1796793520964e-09,
    -6.175100539308449e-10,
    8.996909992077224e-11,
    -1.530638488584761e-11,
    2.9484923987449916e-12,
    -6.2883573686976e-13,
    1.4623532737038282e-13,
    -3.6637359812630166e-14,
    9.818704115343457e-15,
    -2.67536670324306e-15,
    4.76583542278116e-16,
]


def _split(x, seam, small, large, *extra):
    # small(x, *extra) on x <= seam, large(x, *extra) beyond, each branch on
    # its own points (extra arrays are masked alongside x); points all on one
    # side go to their branch unmasked. A branch returns one array or a tuple
    # of arrays, and so does the split. Each array is merged on its own: one
    # (2, n) masked assignment costs five times as much
    lo = x <= seam
    n_lo = np.count_nonzero(lo)
    if n_lo in (0, x.size):
        return (small if n_lo else large)(x, *extra)
    hi = ~lo
    below = small(x[lo], *(e[lo] for e in extra))
    above = large(x[hi], *(e[hi] for e in extra))

    def merge(b, a):
        out = np.empty_like(x)
        out[lo] = b
        out[hi] = a
        return out
    if isinstance(below, tuple):
        return tuple(map(merge, below, above))
    return merge(below, above)


def _small_fits(x):
    # J1 on [0, 5] and the rational part of the small-x Y1 fit; both are
    # finite at x = 0, where Y1 itself is not
    z = x * x
    rp, rq, yp, yq = _polevl(z, SMALL_FITS)
    return rp / rq * x * (z - Z1) * (z - Z2), x * yp / yq


def _bessel_small(x):
    # J1 and Y1 at 0 < x <= 5; the small-x Y1 fit contains J1
    j1, y1_fit = _small_fits(x)
    return j1, y1_fit + TWOOPI * (j1 * np.log(x) - 1.0 / x)


def _bessel_large(x):
    # J1 and Y1 beyond the seam from the shared modulus/phase fit and one
    # cos/sin of the phase x - 3 pi/4
    w = BESSEL_SEAM / x
    z = w * w
    pp, pq, qp, qq = _polevl(z, LARGE_FITS)
    p = pp / pq
    wq = w * (qp / qq)
    xn = x - THPIO4
    scale = SQ2OPI / np.sqrt(x)
    c = np.cos(xn)
    s = np.sin(xn)
    return (p * c - wq * s) * scale, (p * s + wq * c) * scale


def bessel_j1(x):
    """Bessel function of the first kind, order one, for finite x >= 0.

    Accepts a scalar (returns a float) or an array (returns an array).
    """
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    # J1 is the first row of either branch; _small_fits, unlike _bessel_small,
    # is finite at x = 0
    return maybe_scalar(x, _split(xx, BESSEL_SEAM, _small_fits, _bessel_large)[0])


def bessel_y1(x):
    """Bessel function of the second kind, order one, for finite x > 0.

    Accepts a scalar (returns a float) or an array (returns an array).
    """
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    return maybe_scalar(x, _split(xx, BESSEL_SEAM, _bessel_small, _bessel_large)[1])


# H1(x) = q sum_k c_k q^k with q = x^2/4 and
# c_k = (-1)^k / (Gamma(k+3/2) Gamma(k+5/2)), listed highest power first
# as _polevl takes them. A fixed 28 terms reach 1e-22 at the seam x = 9,
# where the largest term is ~3e2.
H1_SERIES = [(-1.0) ** k / (math.gamma(k + 1.5) * math.gamma(k + 2.5))
             for k in range(27, -1, -1)]


def _h1_series(x, y1=None):
    # H1 at x <= STRUVE_SEAM, which needs no Y1
    q = 0.25 * x * x
    return q * _polevl(q, H1_SERIES)


def _h1_far(x, y1=None):
    # H1 beyond STRUVE_SEAM: the Chebyshev fit of H1 - Y1 plus y1 = Y1(x),
    # evaluated here when not given. Clenshaw's recurrence from its second
    # step, since the first gives b0 = c exactly
    if y1 is None:
        y1 = _bessel_large(x)[1]
    u = STRUVE_SEAM / x
    t = 2.0 * u * u - 1.0
    t2 = t * 2.0
    b0 = H1Y1_CHEB[-1]
    b1 = 0.0
    for c in H1Y1_CHEB[-2::-1]:
        b0, b1 = t2 * b0 - b1 + c, b0
    # Clenshaw closing step: the last iteration doubled the t b1 term
    return (b0 - b1 * t) + y1


def struve_h1(x):
    """Struve function of order one, for finite x >= 0.

    Accepts a scalar (returns a float) or an array (returns an array).
    """
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    return maybe_scalar(x, _split(xx, STRUVE_SEAM, _h1_series, _h1_far))


def xi_mass_factor(M, p):
    """c = (1 - p^2/M^2) / (1 + p^2/M^2)^2, the only way the tail kernel xi depends on M."""
    r = (p / M) ** 2
    return (1.0 - r) / (1.0 + r) ** 2


def branch_cut(z):
    """(A, B) of the branch-cut term at finite z = p t > 0: scalars for a scalar z.

    A = (pi/2) (H1(z) - i J1(z)) - 1 and B = 1 + (pi/2) (Y1(z) - H1(z)); a
    term of mass m contributes A + xi_mass_factor(m, p) B. J1, Y1 and H1
    share one evaluation of each fit per point, and equal bessel_j1,
    bessel_y1 and struve_h1 exactly.
    """
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    j1, y1 = _split(zz, BESSEL_SEAM, _bessel_small, _bessel_large)
    h1 = _split(zz, STRUVE_SEAM, _h1_series, _h1_far, y1)
    A = (0.5 * math.pi * h1 - 1.0) - 1j * (0.5 * math.pi * j1)
    B = 1.0 + 0.5 * math.pi * (y1 - h1)
    return maybe_scalar(z, A, B)
