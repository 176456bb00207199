"""Rest-frame decay law, its exponential/oscillating split, decay rate,
and the mass distribution density it derives from.

The square root of the survival probability is
    sqrt(P0(t)) = sum_j w_j exp(-Gamma_j t / 2) (1 - a_j + a_j cos(Omega_j t)).
Everything else here follows from that sum: P0 itself, its grouping into
purely exponential and oscillating double-sum parts, the decay rate, and
the mass distribution density whose half-line cosine transform it is.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._points import as_points, maybe_scalar
from ._quad import adaptive_gauss
from .kinematics import RestModeSet

__all__ = [
    "CurveSeries",
    "DecayRateCoefficients",
    "amplitude_rest",
    "survival_rest",
    "survival_rest_split",
    "decay_rate_coefficients",
    "decay_rate_rest",
    "mdd_analytic",
    "mdd_numeric",
]

FRAMES = ("rest", "boosted")
KINDS = ("amplitude", "probability", "rate", "timemap")

MDD_TCUT_MIN_OVER_GAMMA1 = 40.0
MDD_TCUT_DEFAULT_OVER_GAMMA1 = 60.0


@dataclass(frozen=True)
class CurveSeries:
    """A sampled curve: strictly increasing time grid plus values.

    frame is "rest" or "boosted"; kind is one of "amplitude",
    "probability", "rate", "timemap". Probability values must stay inside
    [0, 1 + 1e-9].
    """

    t: np.ndarray
    values: np.ndarray
    frame: str
    kind: str
    label: str = field(default="")

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", values)
        if self.frame not in FRAMES:
            raise ValueError("frame must be one of %r, got %r" % (FRAMES, self.frame))
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


def amplitude_rest(modes: RestModeSet, t):
    """sqrt(P0(t)): the rest-frame survival amplitude modulus."""
    tt = _check_times(t)
    damp = np.exp(-0.5 * np.outer(modes.Gamma, tt))
    osc = (1.0 - modes.a)[:, None] + modes.a[:, None] * np.cos(np.outer(modes.Omega, tt))
    out = (modes.w[:, None] * damp * osc).sum(axis=0)
    return maybe_scalar(out, t)


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


def rate_over_amplitude(modes: RestModeSet, tt):
    """-dP0/dt / sqrt(P0) = -2 d sqrt(P0)/dt on a 1-d array of checked times.

    Finite wherever the amplitude is, so -rate_over_amplitude / amplitude
    gives d log P0 / dt to full precision even where P0 itself is subnormal.
    """
    coeff = decay_rate_coefficients(modes)
    damp = np.exp(-0.5 * np.outer(modes.Gamma, tt))
    phase = np.cos(np.outer(modes.Omega, tt) - coeff.beta[:, None])
    return (modes.w[:, None] * damp * (coeff.lam1[:, None] + coeff.lam2[:, None] * phase)).sum(axis=0)


def decay_rate_rest(modes: RestModeSet, t):
    """dP0/dt in closed form; nonpositive for every valid mode set."""
    tt = _check_times(t)
    out = -amplitude_rest(modes, tt) * rate_over_amplitude(modes, tt)
    return maybe_scalar(out, t)


def _lorentz(x, Gamma):
    half = 0.5 * Gamma
    return half / (half * half + x * x)


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
                 + (a_j/2) (L(x-Omega_j; Gamma_j) + L(x+Omega_j; Gamma_j)) ] |.
    Every term is positive for a valid mode set, so the absolute value is
    never active; it is kept to match the defining transform.
    """
    x = np.asarray(m, dtype=float) - modes.M
    xx = np.atleast_1d(x)
    total = np.zeros_like(xx)
    for j in range(modes.N):
        g = float(modes.Gamma[j])
        aj = float(modes.a[j])
        oj = float(modes.Omega[j])
        term = (1.0 - aj) * _lorentz(xx, g)
        if aj > 0.0:
            term = term + 0.5 * aj * (_lorentz(xx - oj, g) + _lorentz(xx + oj, g))
        total += float(modes.w[j]) * term
    out = np.abs(total) / math.pi
    return maybe_scalar(out, m)


def mdd_numeric(modes: RestModeSet, m, t_cut: float = None,
                abs_tol: float = 1e-9, rel_tol: float = 1e-9):
    """Mass distribution density by direct quadrature of the transform.

    Integrates (1/pi) |Integral_0^{t_cut} sqrt(P0(t)) cos((m-M) t) dt| with
    subinterval splitting at the cosine half-periods. t_cut defaults to
    60/Gamma_1 (truncation tail below 2e-9 of the peak) and must be at
    least 40/Gamma_1.
    """
    gamma1 = float(modes.Gamma[0])
    if t_cut is None:
        t_cut = MDD_TCUT_DEFAULT_OVER_GAMMA1 / gamma1
    t_cut = float(t_cut)
    if t_cut < MDD_TCUT_MIN_OVER_GAMMA1 / gamma1:
        raise ValueError(
            "t_cut=%r is below the minimum %r" % (t_cut, MDD_TCUT_MIN_OVER_GAMMA1 / gamma1)
        )

    def density_at(m_scalar):
        x = float(m_scalar) - modes.M
        nodes = [0.0, t_cut]
        absx = abs(x)
        if absx > 0.0:
            n_half = int(t_cut * absx / math.pi)
            if n_half > 200000:
                raise ValueError("mass offset %r too far from resonance for quadrature" % x)
            nodes.extend((k * math.pi / absx) for k in range(1, n_half + 1))
        # decay-scale ladder so the first panels resolve the exponential
        scale = 1.0 / float(modes.Gamma[-1])
        step = 0.25 * scale
        while step < t_cut:
            nodes.append(step)
            step *= 2.0
        breakpoints = np.unique(np.clip(np.asarray(nodes), 0.0, t_cut))

        def integrand(ts):
            return amplitude_rest(modes, ts) * np.cos(x * ts)

        value, _err = adaptive_gauss(integrand, breakpoints, abs_tol, rel_tol)
        return abs(value) / math.pi

    mm = np.atleast_1d(np.asarray(m, dtype=float))
    out = np.array([density_at(mi) for mi in mm])
    return maybe_scalar(out, m)
