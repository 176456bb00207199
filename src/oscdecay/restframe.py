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
from dataclasses import dataclass

import numpy as np

from ._points import as_points, maybe_scalar
from .kinematics import RestModeSet, mode_terms

__all__ = [
    "CurveSeries",
    "DecayRateCoefficients",
    "amplitude_rest",
    "survival_rest",
    "survival_rest_split",
    "decay_rate_coefficients",
    "decay_rate_rest",
    "mdd_analytic",
]

KINDS = ("amplitude", "probability", "rate", "timemap")


@dataclass(frozen=True)
class CurveSeries:
    """A sampled curve: strictly increasing time grid plus values.

    kind is one of "amplitude", "probability", "rate", "timemap".
    Probability values must stay inside [0, 1 + 1e-9].
    """

    t: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", values)
        if self.kind not in KINDS:
            raise ValueError("kind must be one of %r, got %r" % (KINDS, self.kind))
        if t.ndim != 1 or len(t) < 1:
            raise ValueError("t must be a non-empty 1-d array")
        if values.shape != t.shape:
            raise ValueError("values shape %r != t shape %r" % (values.shape, t.shape))
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("t must increase strictly")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if self.kind == "probability":
            if values.min() < 0.0 or values.max() > 1.0 + 1e-9:
                raise ValueError(
                    "probability values must lie in [0, 1+1e-9], got [%r, %r]"
                    % (values.min(), values.max())
                )


@dataclass(frozen=True)
class DecayRateCoefficients:
    """Per-mode rate coefficients lam1 = Gamma (1-a),
    lam2 = a sqrt(Gamma^2 + 4 Omega^2) and phase
    beta = arccos(Gamma / sqrt(Gamma^2 + 4 Omega^2)) (0 when lam2 = 0)."""

    lam1: np.ndarray
    lam2: np.ndarray
    beta: np.ndarray


def _check_times(t):
    return as_points(t, lambda v: np.isfinite(v) & (v >= 0.0), "times must be finite and >= 0")


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
        self.modes = modes
        self.Gamma = modes.Gamma[:, None]
        self.Omega = modes.Omega[:, None]
        self.w = modes.w[:, None]
        self.flat = (1.0 - modes.a)[:, None]
        self.a = modes.a[:, None]

    @functools.cached_property
    def _rate_terms(self):
        coeff = decay_rate_coefficients(self.modes)
        return coeff.lam1[:, None], coeff.lam2[:, None], coeff.beta[:, None]

    def _parts(self, tt):
        # per mode and time: the weighted damping w_j exp(-Gamma_j t/2), the
        # phase Omega_j t, and the amplitude summed from them
        damp = self.w * np.exp(-0.5 * (self.Gamma * tt))
        phase = self.Omega * tt
        return damp, phase, (damp * (self.flat + self.a * np.cos(phase))).sum(axis=0)

    def amplitude(self, tt):
        return self._parts(tt)[2]

    def __call__(self, tt):
        """(amplitude, rate over amplitude) at tt."""
        damp, phase, amp = self._parts(tt)
        lam1, lam2, beta = self._rate_terms
        return amp, (damp * (lam1 + lam2 * np.cos(phase - beta))).sum(axis=0)


def amplitude_rest(modes: RestModeSet, t):
    """sqrt(P0(t)): the rest-frame survival amplitude modulus."""
    return maybe_scalar(_RestLaw(modes).amplitude(_check_times(t)), t)


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
    """
    tt = _check_times(t)
    w, a, Om, Ga = modes.w, modes.a, modes.Omega, modes.Gamma
    same_freq = (Om[:, None] == Om[None, :])
    diag = np.eye(modes.N, dtype=bool)
    nu1 = (same_freq | diag).astype(float)
    nu2 = 1.0 - nu1

    gsum = 0.5 * (Ga[:, None] + Ga[None, :])
    e_jl = np.exp(-gsum[:, :, None] * tt[None, None, :])

    ww = w[:, None] * w[None, :]
    c_exp = ww * ((1.0 - a)[:, None] * (1.0 - a)[None, :] + 0.5 * nu1 * a[:, None] * a[None, :])
    exp_part = (c_exp[:, :, None] * e_jl).sum(axis=(0, 1))

    cos_j = np.cos(np.outer(Om, tt))           # (N, T)
    cos_sum = np.cos((Om[:, None] + Om[None, :])[:, :, None] * tt[None, None, :])
    cos_diff = np.cos((Om[:, None] - Om[None, :])[:, :, None] * tt[None, None, :])
    bracket = (
        2.0 * (1.0 - a)[None, :, None] * cos_j[:, None, :]
        + 0.5 * a[None, :, None] * (cos_sum + nu2[:, :, None] * cos_diff)
    )
    osc_part = ((ww * a[:, None])[:, :, None] * e_jl * bracket).sum(axis=(0, 1))

    return maybe_scalar(exp_part, t), maybe_scalar(osc_part, t)


def decay_rate_coefficients(modes: RestModeSet) -> DecayRateCoefficients:
    """Amplitude and phase of each mode's contribution to the decay rate."""
    lam1 = modes.Gamma * (1.0 - modes.a)
    root = np.hypot(modes.Gamma, 2.0 * modes.Omega)
    lam2 = modes.a * root
    beta = np.where(lam2 > 0.0, np.arccos(modes.Gamma / root), 0.0)
    return DecayRateCoefficients(lam1=lam1, lam2=lam2, beta=beta)


def decay_rate_rest(modes: RestModeSet, t):
    """dP0/dt in closed form; nonpositive for every valid mode set."""
    amp, rate = _RestLaw(modes)(_check_times(t))
    return maybe_scalar(-amp * rate, t)


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
    it is kept to match the defining transform.
    """
    mm = np.atleast_1d(np.asarray(m, dtype=float))
    total = np.zeros_like(mm)
    mass, width, weight, _ = mode_terms(modes)
    for c, half, wt in zip(mass.tolist(), (0.5 * width).tolist(), weight.tolist()):
        x = mm - c
        total += (wt * half) / (half * half + x * x)
    out = np.abs(total) / math.pi
    return maybe_scalar(out, m)
