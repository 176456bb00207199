"""Rest-frame decay law, its exponential/oscillating split, decay rate,
and the mass distribution density it derives from.

The square root of the survival probability is
    sqrt(P0(t)) = sum_j w_j exp(-Gamma_j t / 2) (1 - a_j + a_j cos(Omega_j t)).
Everything else here follows from that sum: P0 itself, its grouping into
purely exponential and oscillating double-sum parts, the decay rate, and
the mass distribution density whose half-line cosine transform it is.
"""

import functools
import math
from collections import namedtuple

import numpy as np

from .kinematics import (RestModeSet, _checked_replace, as_points, as_times, maybe_scalar,
                         mode_terms)


@_checked_replace
class CurveSeries(namedtuple("CurveSeries", "t values")):
    """A sampled curve: strictly increasing times, finite and >= 0, plus finite values."""

    __slots__ = ()

    def __new__(cls, t, values):
        t = np.asarray(t, dtype=float)
        values = np.asarray(values, dtype=float)
        if t.ndim != 1 or len(t) < 1:
            raise ValueError("t must be a non-empty 1-d array")
        as_times(t)
        if values.shape != t.shape:
            raise ValueError("values shape %r != t shape %r" % (values.shape, t.shape))
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("t must increase strictly")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        return tuple.__new__(cls, (t, values))


class _RestLaw:
    """sqrt(P0) and -dP0/dt / sqrt(P0) of one mode set, on 1-d arrays of checked times.

    The per-mode constants are computed once: the amplitude's on
    construction, the rate's on the first call that needs them. A call
    takes one exp per mode and time, shared by the amplitude and the rate.
    The rate over the amplitude is finite wherever the amplitude is, so
    -rate / amplitude gives d log P0 / dt to full precision even where P0
    itself is subnormal.
    """

    def __init__(self, modes: RestModeSet):
        # one column per mode, broadcast against a row of times
        self.Gamma, self.Omega, self.w, self.a = np.array(
            (modes.Gamma, modes.Omega, modes.w, modes.a))[:, :, None]
        self.flat = 1.0 - self.a

    @functools.cached_property
    def _rate_terms(self):
        # per mode: lam1 = Gamma (1 - a), lam2 = a sqrt(Gamma^2 + 4 Omega^2)
        # and the phase beta = arccos(Gamma / sqrt(Gamma^2 + 4 Omega^2)),
        # 0 when lam2 = 0, of the rate term lam1 + lam2 cos(Omega t - beta)
        root = np.hypot(self.Gamma, 2.0 * self.Omega)
        lam2 = self.a * root
        beta = np.where(lam2 > 0.0, np.arccos(self.Gamma / root), 0.0)
        return self.Gamma * self.flat, lam2, beta

    def _terms(self, tt):
        # per mode and time: the weighted damping w_j exp(-Gamma_j t/2) and
        # the phase Omega_j t
        return self.w * np.exp(-0.5 * (self.Gamma * tt)), self.Omega * tt

    def _amplitude(self, damp, phase):
        return (damp * (self.flat + self.a * np.cos(phase))).sum(axis=0)

    def amplitude(self, tt):
        return self._amplitude(*self._terms(tt))

    def __call__(self, tt):
        """(amplitude, rate over amplitude) at tt."""
        damp, phase = self._terms(tt)
        lam1, lam2, beta = self._rate_terms
        return (self._amplitude(damp, phase),
                (damp * (lam1 + lam2 * np.cos(phase - beta))).sum(axis=0))


def amplitude_rest(modes: RestModeSet, t):
    """sqrt(P0(t)): the rest-frame survival amplitude modulus."""
    return maybe_scalar(t, _RestLaw(modes).amplitude(as_times(t)))


def survival_rest(modes: RestModeSet, t):
    """Rest-frame survival probability P0(t)."""
    amp = amplitude_rest(modes, t)
    return amp * amp


def survival_rest_split(modes: RestModeSet, t):
    """P0(t) grouped into a purely exponential and an oscillating part.

    Returns (exp_part, osc_part); their sum reproduces survival_rest to
    1e-12 relative. The grouping assigns every constant (in t) product of
    cosines to the exponential part:
        exp: sum_jl w_j w_l [(1-a_j)(1-a_l) + nu1_jl a_j a_l / 2] e_jl(t)
        osc: sum_jl w_j w_l a_j e_jl(t) [2 (1-a_l) cos(Omega_j t)
             + (a_l/2) (cos((Omega_j+Omega_l) t) + nu2_jl cos((Omega_j-Omega_l) t))]
    with e_jl(t) = exp(-(Gamma_j+Gamma_l) t / 2), nu1_jl = 1 exactly when
    j = l or Omega_j = Omega_l (else 0), nu2_jl = 1 - nu1_jl.

    Evaluated from the amplitude's per-mode terms, without the amplitude
    itself: with
    d_j = w_j exp(-Gamma_j t / 2),
        F = sum_j d_j (1 - a_j),  S = sum_j d_j a_j cos(Omega_j t),
        Q = (1/2) sum_{Omega_j = Omega_l} d_j a_j d_l a_l,
    the parts are exp = F^2 + Q and osc = (2F + S) S - Q, term for term
    the sums above since cos(x) cos(y) = [cos(x+y) + cos(x-y)] / 2.
    """
    law = _RestLaw(modes)
    damp, phase = law._terms(as_times(t))
    wave = damp * law.a
    F = (damp * law.flat).sum(axis=0)
    S = (wave * np.cos(phase)).sum(axis=0)
    same_freq = (law.Omega == law.Omega.T).astype(float)
    Q = 0.5 * (wave * (same_freq @ wave)).sum(axis=0)
    exp_part = F * F + Q
    osc_part = (2.0 * F + S) * S - Q
    return maybe_scalar(t, exp_part, osc_part)


def decay_rate_rest(modes: RestModeSet, t):
    """dP0/dt in closed form; nonpositive for every valid mode set."""
    amp, rate = _RestLaw(modes)(as_times(t))
    return maybe_scalar(t, -amp * rate)


def mdd_analytic(modes: RestModeSet, m):
    """Mass distribution density at mass m, in closed form.

    Derivation recorded here as required: the density is the half-line
    cosine transform (1/pi) |Integral_0^inf sqrt(P0(t)) cos((m-M) t) dt|.
    Termwise, with s = Gamma_j/2 and x = m - M:
        Integral_0^inf e^{-s t} cos(x t) dt = s / (s^2 + x^2),
        Integral_0^inf e^{-s t} cos(Omega_j t) cos(x t) dt
            = (1/2) [ s/(s^2+(x-Omega_j)^2) + s/(s^2+(x+Omega_j)^2) ].
    Writing L(x; Gamma) = (Gamma/2) / ((Gamma/2)^2 + x^2), the density is
        (1/pi) | sum_j w_j [ (1-a_j) L(x; Gamma_j)
                 + (a_j/2) (L(x-Omega_j; Gamma_j) + L(x+Omega_j; Gamma_j)) ] |,
    one Lorentzian per term of kinematics.mode_terms. Every term is
    positive for a valid mode set, so the absolute value is never active;
    it is kept to match the defining transform. A NaN mass raises
    ValueError; m = +-inf gives 0.
    """
    mm = as_points(m, lambda v: ~np.isnan(v), "mass must not be NaN")
    mass, width, weight, _ = mode_terms(modes)
    half = 0.5 * width[:, None]
    x = mm - mass[:, None]
    total = (weight[:, None] * half / (half * half + x * x)).sum(axis=0)
    out = np.abs(total) / math.pi
    return maybe_scalar(m, out)
