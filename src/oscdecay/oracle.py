"""Exact check of the boosted survival probability, by steepest descent.

The amplitude at momentum p is the mass integral of the analytic density
rho times e^{-i sqrt(p^2+m^2) t}. Folded onto m >= 0 with rho_s(m) =
rho(m) + rho(-m) and moved onto the steepest-descent path E = p - i tau,
m(tau) = sqrt(-tau^2 - 2ip tau) in the fourth quadrant, it is exactly

    A(t) = sum_k weight_k e^{-i E_k t}
         + e^{-ipt} int_0^inf tau^{-1/2} e^{-tau t} G(tau) dtau,
    G(tau) = rho_s(m(tau)) (-tau - ip) / sqrt(-tau - 2ip),

with E_k = sqrt(p^2 + (c_k - i Gamma_k/2)^2), kinematics.pole_energies of
the Lorentzian terms of kinematics.mode_terms, whose poles the path
crosses (Bender & Orszag, Advanced Mathematical Methods, ch. 6). The
background integral is a composite Gauss-Legendre sum on doubling panels
of tau, whose nodes the whole time grid shares. Nothing here uses the
closed form's Bessel and Struve functions, so the result checks it
independently.
"""

import functools
import math
from collections import namedtuple

import numpy as np

from .kinematics import (RestModeSet, _checked_replace, _momentum, as_times, maybe_scalar,
                         mode_terms, pole_energies, pole_sum)
# mdd_analytic is unused here but stays bound: perfbench/spans.py traces
# calls through this module attribute
from .restframe import CurveSeries, mdd_analytic  # noqa: F401

_FIRST_NODES = 16
_MAX_NODES = 512
# the path ends at tau t = 40 for the shortest time (e^{-40} ~ 4e-18); its
# first panel ends at min(2p, |E_k - p|), G's nearest singularity, but no
# lower than 1e-12 min |E_k - p| however small p, and no later than
# tau t = 64 for the longest time, where e^{-tau t} spans >= 1/8 of it in
# sqrt(tau)
_FIRST_END = 64.0
_PATH_END = 40.0
_P_FLOOR = 1e-12
# below t max|E_k| = 1e-16 every phase e^{-iEt} rounds to 1, so A(t) = A(0)
_STILL = 1e-16
# doubling panels one grid may span (2^160 ~ 1e48 between path ends)
_MAX_PANELS = 160
# entries per (times, nodes) array: sizes the chunks of times
_CHUNK_ENTRIES = 1 << 18


def adaptive_gauss(*args, **kwargs):
    """Retired: the adaptive Gauss-Kronrod rule of this name is gone, and
    nothing calls it. The name stays bound only for perfbench/spans.py's
    strict lookup of it; ROADMAP item 7 removes both."""
    raise NotImplementedError("adaptive_gauss is retired")


class OracleConvergenceError(RuntimeError):
    """The oracle missed its tolerance budget; carries the best estimate."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@_checked_replace
class QuadratureSpec(namedtuple("QuadratureSpec", "include_negative_mass abs_tol rel_tol",
                                defaults=(True, 1e-8, 1e-6))):
    """Tolerances of the direct evaluation.

    The background sum starts at 16 nodes and doubles its node count until,
    at every time, the change is at most max(abs_tol, rel_tol |A|), or
    until the count reaches its cap of 512; that last change is the error
    return_error reports. include_negative_mass integrates the density
    over the whole real line (False: over m >= 0 only).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # written so that NaN fails every check
        if not (0.0 < self.abs_tol < math.inf and 0.0 <= self.rel_tol < math.inf):
            raise ValueError(
                "tolerances must be finite, abs_tol > 0 and rel_tol >= 0, got "
                "abs_tol=%r, rel_tol=%r" % (self.abs_tol, self.rel_tol)
            )
        return self


class ComparisonReport(namedtuple("ComparisonReport", "interval n_points max_abs_deviation "
                                                      "max_rel_deviation t_at_max_abs "
                                                      "t_at_max_rel")):
    """Deviations between a closed-form curve and its direct counterpart."""

    __slots__ = ()


@functools.lru_cache(maxsize=None)
def _legendre(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    u, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (u + 1.0), 0.5 * w


class _Path:
    """Pole sum and background integral of one (modes, p, mass range)."""

    def __init__(self, modes: RestModeSet, p, fold):
        mass, width, weight, _ = mode_terms(modes)
        self.p, self.fold, self.weight = p, fold, weight
        mu = mass + 0.5j * width
        # E_k of the pole conj(mu_k) = c_k - i Gamma_k/2
        self.energy = pole_energies(mass, width, p)
        # the largest energy scale, which sets how soon any phase moves
        self.reach = max(p, float(np.max(np.abs(self.energy))))
        if not math.isfinite(self.reach):  # p * p overflows from 1.34e154 on
            raise ValueError("momentum p = %r overflows the pole energies %r"
                             % (p, self.energy.tolist()))
        # the path crosses E_k where Re E_k > p, so where p^2 (4 c_k^2 - Gamma_k^2)
        # + c_k^2 Gamma_k^2 > 0 (always where 2 c_k > Gamma_k): a sign free of the
        # cancellation in Re E_k - p, wrong only within rounding of the crossing p;
        # Python floats overflow here without a warning
        self.crossed = np.array([p * p * (4.0 * c * c - g * g) + (c * g) * (c * g) > 0.0
                                 for c, g in zip(mass.tolist(), width.tolist())])
        # G has poles at i (E_k - p) and a branch point at -2ip
        self.gap = float(np.min(np.abs(mu * mu) / np.abs(self.energy + p)))
        self.scale = min(2.0 * p, self.gap)
        # A(0) = sum_k weight_k (1/2 + arctan(c_k / (Gamma_k/2)) / pi) over m >= 0
        self.normalization = float(np.sum(weight * (1.0 if fold else 1.0 - np.angle(mu) / math.pi)))
        # the density is sum_j coef_j / (z - at_j), over mu_k and conj(mu_k):
        # z = m^2 with the m < 0 half folded in, z = m without it
        at, coef = (mu * mu, -1j * weight * mu / math.pi) if fold else (mu, weight / (2j * math.pi))
        self.at = np.concatenate([at, np.conj(at)])
        self.coef = np.concatenate([coef, np.conj(coef)])

    def poles(self, t):
        return pole_sum(self.weight[self.crossed], self.energy[self.crossed], t)

    def integrand(self, tau):
        # conj(sqrt(-tau + 2ip)) is sqrt(-tau - 2ip) in the fourth quadrant,
        # also at p = +0.0, where it must be -i sqrt(tau)
        root = np.conj(np.sqrt(-tau + 2j * self.p))
        z = -tau * (tau + 2j * self.p) if self.fold else np.sqrt(tau) * root
        return (1.0 / (z[..., None] - self.at) @ self.coef) * (-tau - 1j * self.p) / root

    def composite(self, t, n, first, panels):
        """The background integral at times t by n-point Gauss-Legendre panels:
        [0, first] in u = sqrt(tau), which takes the tau^{-1/2} endpoint and
        any branch point near 0, then [a, 2a] for a = first 2^j, j < panels."""
        u, w = _legendre(n)
        edges = first * 2.0 ** np.arange(panels)
        tau = np.concatenate([first * u * u, np.outer(edges, 1.0 + u).ravel()])
        weight = np.concatenate([2.0 * math.sqrt(first) * w, np.outer(edges, w).ravel()])
        weight[len(u):] /= np.sqrt(tau[len(u):])
        g = self.integrand(tau) * weight
        chunks = np.array_split(t, -(-len(t) * len(tau) // _CHUNK_ENTRIES))
        return np.concatenate([np.exp(-np.multiply.outer(c, tau)) @ g for c in chunks])


def direct_boosted_amplitude(modes: RestModeSet, p, t, spec: QuadratureSpec = None,
                             return_error=False):
    """Survival amplitude at momentum p by steepest descent (module docstring).

    t is one time or an array of times (results in input order); t = 0
    gives the density's total mass exactly, and so does any time too short
    for a phase to move in double precision (t max|E_k| < 1e-16). With
    return_error the result comes back as (value, error), error being each
    time's change over its last doubling (0 at those times).
    OracleConvergenceError, carrying that time's best value and change,
    names the earliest time still over its budget at 512 nodes, or the
    shortest time of a grid that spans more than 160 doubling panels of
    the path. A p whose pole energies overflow (p * p does) is a ValueError.
    """
    amp, err = _amplitude(modes, p, t, spec)
    return maybe_scalar(t, amp, err) if return_error else maybe_scalar(t, amp)


def _amplitude(modes, p, t, spec):
    # direct_boosted_amplitude's amplitude and error arrays, on the times t as read
    if spec is None:
        spec = QuadratureSpec()
    p = _momentum(p)
    tt = as_times(t)
    # + 0.0 maps p = -0.0 to +0.0, whose branch the path takes at p = 0
    path = _Path(modes, p + 0.0, spec.include_negative_mass)
    amp = np.full(tt.shape, path.normalization, dtype=complex)
    err = np.zeros(tt.shape)
    live = tt * path.reach >= _STILL
    if live.any():
        amp[live], err[live] = _converge(path, tt[live], spec)
    return amp, err


def _converge(path, times, spec):
    """Amplitude and last change at times > 0, doubling the panels' nodes."""
    tmin, tmax = float(times.min()), float(times.max())
    first = min(max(path.scale, _P_FLOOR * path.gap), _FIRST_END / tmax)
    # in logs: 40 / tmin overflows for subnormal tmin
    panels = max(0, math.ceil(math.log2(_PATH_END) - math.log2(tmin) - math.log2(first)))
    if panels > _MAX_PANELS:
        raise OracleConvergenceError(
            "times from t=%r to %r need %d doubling panels of the path, over %d, at t=%r"
            % (tmin, tmax, panels, _MAX_PANELS, tmin))
    poles = path.poles(times)
    phase = np.exp(-1j * path.p * times)

    n = _FIRST_NODES
    idx = np.arange(len(times))
    value = path.composite(times, n, first, panels)
    change = np.full(len(times), math.inf)
    while len(idx) and n < _MAX_NODES:
        n *= 2
        new = path.composite(times[idx], n, first, panels)
        change[idx] = np.abs(new - value[idx])
        value[idx] = new
        budget = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(poles[idx] + phase[idx] * new))
        idx = idx[change[idx] > budget]

    result = poles + phase * value
    if len(idx):
        i = idx[np.argmin(times[idx])]
        raise OracleConvergenceError(
            "background sum still changes by %g at %d nodes, at t=%r"
            % (change[i], n, float(times[i])),
            value=complex(result[i]), error_estimate=float(change[i]),
        )
    return result, change


def direct_survival(modes: RestModeSet, p, t, spec: QuadratureSpec = None):
    """|direct_boosted_amplitude|^2, at one time or on an array of times."""
    amp, _ = _amplitude(modes, p, t, spec)
    return maybe_scalar(t, amp.real * amp.real + amp.imag * amp.imag)


def oracle_compare(closed, direct: CurveSeries) -> ComparisonReport:
    """Worst absolute and relative deviations of closed-form values from a direct curve.

    direct holds probabilities, which must lie in [0, 1 + 1e-9]. closed holds
    one finite value per time of direct's grid. Unlike direct's values it
    need not lie in [0, 1], since the closed form overshoots 1 outside its
    validity domain; relative deviations are measured against the direct
    (reference) values.
    """
    t = direct.t
    if direct.values.min() < 0.0 or direct.values.max() > 1.0 + 1e-9:
        raise ValueError("probability values must lie in [0, 1+1e-9], got [%r, %r]"
                         % (float(direct.values.min()), float(direct.values.max())))
    closed = np.asarray(closed, dtype=float)
    if closed.shape != t.shape:
        raise ValueError("grid mismatch: %d closed-form values for %d times"
                         % (closed.size, len(t)))
    if not np.all(np.isfinite(closed)):
        raise ValueError("closed-form values must be finite")
    diff = np.abs(closed - direct.values)
    rel = diff / np.maximum(np.abs(direct.values), np.finfo(float).tiny)
    ia = int(np.argmax(diff))
    ir = int(np.argmax(rel))
    return ComparisonReport(
        interval=(float(t[0]), float(t[-1])),
        n_points=len(t),
        max_abs_deviation=float(diff[ia]),
        max_rel_deviation=float(rel[ir]),
        t_at_max_abs=float(t[ia]),
        t_at_max_rel=float(t[ir]),
    )
