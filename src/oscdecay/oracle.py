"""Direct-quadrature check of the boosted survival probability.

Evaluates the survival amplitude as the mass integral of the analytic
density times the relativistic phase factor e^{-i sqrt(p^2+m^2) t},
independent of the pole/branch-cut closed forms. Convergence is judged
on the adaptive quadrature estimate; the mass left outside the truncated
integration domain is bounded analytically and added to the reported
error, so truncation is a measured quantity rather than an assumption.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._points import as_points, maybe_scalar
from ._quad import QuadratureConvergenceError, adaptive_gauss
from .kinematics import RestModeSet, mode_terms
from .restframe import CurveSeries, mdd_analytic

__all__ = [
    "ComparisonReport",
    "OracleConvergenceError",
    "QuadratureSpec",
    "direct_boosted_amplitude",
    "direct_survival",
    "oracle_compare",
]

# every Lorentzian center must sit at least this many half-widths
# away from the truncation edges
_COVERAGE_HALFWIDTHS = 40.0
_MAX_PHASE_BREAKPOINTS = 500000
# a block of times shares one partition while its largest time is at most
# this multiple of its smallest
_BLOCK_RATIO = 2.0
# phase factors advanced by recurrence take an exact exp at least this often
_RESYNC = 32


class OracleConvergenceError(RuntimeError):
    """Quadrature failed its tolerance budget; carries the best estimate."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation policy for the direct integrals.

    The mass domain is [M - hw, M + hw] with hw = halfwidth_multiple
    times max(Gamma_N, Omega_max), clipped at zero unless
    include_negative_mass; phase breakpoints split the integrand at
    every half-oscillation of e^{-i sqrt(p^2+m^2) t}.
    """

    halfwidth_multiple: float = 60.0
    include_negative_mass: bool = True
    abs_tol: float = 1e-8
    rel_tol: float = 1e-6
    max_segments: int = 100000
    max_rounds: int = 48

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0.0 < self.halfwidth_multiple < math.inf):
            raise ValueError("halfwidth_multiple must be finite and > 0, got %r"
                             % self.halfwidth_multiple)
        if not (0.0 < self.abs_tol < math.inf and 0.0 <= self.rel_tol < math.inf):
            raise ValueError(
                "tolerances must be finite, abs_tol > 0 and rel_tol >= 0, got "
                "abs_tol=%r, rel_tol=%r" % (self.abs_tol, self.rel_tol)
            )
        for name, least in (("max_segments", 2), ("max_rounds", 1)):
            value = getattr(self, name)
            if not (least <= value < math.inf and value == int(value)):
                raise ValueError("%s must be an integer >= %d, got %r" % (name, least, value))
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class ComparisonReport:
    """Deviations between a closed-form curve and its direct counterpart."""

    interval: tuple
    n_points: int
    max_abs_deviation: float
    max_rel_deviation: float
    t_at_max_abs: float
    t_at_max_rel: float
    closed_label: str
    direct_label: str


def _domain(modes: RestModeSet, spec: QuadratureSpec):
    omega_max = float(modes.Omega.max())
    hw = spec.halfwidth_multiple * max(float(modes.Gamma[-1]), omega_max)
    for j in range(modes.N):
        needed = float(modes.Omega[j]) + _COVERAGE_HALFWIDTHS * 0.5 * float(modes.Gamma[j])
        if hw < needed:
            raise ValueError(
                "halfwidth %r does not cover mode %d by %g half-widths (needs %r)"
                % (hw, j, _COVERAGE_HALFWIDTHS, needed)
            )
    lo = modes.M - hw
    hi = modes.M + hw
    if not spec.include_negative_mass:
        # the narrow-width validation keeps M - Omega_j at least 20 Gamma_j,
        # so clipping at zero never violates the coverage requirement
        lo = max(lo, 0.0)
    return lo, hi


def _tail_bound(modes: RestModeSet, spec: QuadratureSpec, lo, hi):
    """Density mass between the intended support and the truncated domain."""
    mass, width, weight, _ = mode_terms(modes)
    half = 0.5 * width
    inside = (np.arctan((hi - mass) / half) - np.arctan((lo - mass) / half)) / math.pi
    intended = 1.0 if spec.include_negative_mass else 0.5 + np.arctan(mass / half) / math.pi
    return float(np.sum(weight * (intended - inside)))


def _phase_side(p, t, lo_abs, hi_abs):
    # |m| values in (lo_abs, hi_abs) where sqrt(p^2+m^2) t crosses k pi
    phase_lo = math.hypot(p, lo_abs) * t
    phase_hi = math.hypot(p, hi_abs) * t
    kmin = int(math.floor(phase_lo / math.pi)) + 1
    kmax = int(math.floor(phase_hi / math.pi))
    if kmax < kmin:
        return np.empty(0)
    if kmax - kmin > _MAX_PHASE_BREAKPOINTS:
        raise ValueError(
            "phase partition needs %d breakpoints (cap %d); t is too deep for the oracle"
            % (kmax - kmin, _MAX_PHASE_BREAKPOINTS)
        )
    k = np.arange(kmin, kmax + 1, dtype=float)
    u = np.sqrt(np.maximum((k * math.pi / t) ** 2 - p * p, 0.0))
    return u[(u > lo_abs) & (u < hi_abs)]


def _breakpoints(modes: RestModeSet, p, t, lo, hi):
    pts = [np.array([lo, hi])]

    mass, width, _, _ = mode_terms(modes)
    steps = np.array([0.0, -1.0, 1.0, -4.0, 4.0, -16.0, 16.0, -64.0, 64.0])
    pts.append((mass[:, None] + steps * width[:, None]).ravel())

    if t > 0.0:
        if lo < 0.0 < hi:
            pts.append(np.array([0.0]))  # stationary phase point
            pts.append(-_phase_side(p, t, 0.0, -lo))
            pts.append(_phase_side(p, t, 0.0, hi))
        elif lo >= 0.0:
            pts.append(_phase_side(p, t, lo, hi))
        else:
            pts.append(-_phase_side(p, t, -hi, -lo))

    merged = np.concatenate(pts)
    merged = np.sort(merged[(merged >= lo) & (merged <= hi)])
    keep = np.concatenate([[True], np.diff(merged) > 1e-12 * (hi - lo)])
    merged = merged[keep]
    merged[0] = lo
    merged[-1] = hi
    return merged


def _blocks(times):
    """(start, stop) ranges of the sorted times, each spanning a factor <= _BLOCK_RATIO."""
    blocks = []
    start = 0
    for i in range(1, len(times) + 1):
        if i == len(times) or times[i] > _BLOCK_RATIO * times[start]:
            blocks.append((start, i))
            start = i
    return blocks


def _runs(times):
    """(start, stop) ranges of the sorted times whose steps agree to rounding.

    Steps as np.linspace gives them agree to a few ulp of the largest
    time; a run holds at most _RESYNC steps.
    """
    steps = np.diff(times)
    tol = 8.0 * np.finfo(float).eps * times[-1]
    runs = []
    start = 0
    for i in range(1, len(times) + 1):
        if (i == len(times) or i - start > _RESYNC
                or (i > start + 1 and abs(steps[i - 1] - steps[start]) > tol)):
            runs.append((start, i))
            start = i
    return runs


def _phase_factors(energy, times, runs, scale):
    """scale * e^{-i energy t}, one row per sorted time.

    Each run of three or more equal steps starts from an exact exp and
    advances by one multiply with e^{-i energy dt}; shorter runs are
    exact at every time.
    """
    out = np.empty((len(times), energy.size), dtype=complex)
    for start, stop in runs:
        if stop - start < 3:
            for i in range(start, stop):
                np.multiply(scale, np.exp(-1j * energy * times[i]), out=out[i])
            continue
        np.multiply(scale, np.exp(-1j * energy * times[start]), out=out[start])
        dt = (times[stop - 1] - times[start]) / (stop - 1 - start)
        step = np.exp(-1j * energy * dt)
        for i in range(start + 1, stop):
            np.multiply(out[i - 1], step, out=out[i])
    return out


def direct_boosted_amplitude(modes: RestModeSet, p, t, spec: QuadratureSpec = None,
                             return_error=False):
    """Survival amplitude at momentum p by direct mass quadrature.

    Integrates the analytic density times e^{-i sqrt(p^2+m^2) t} over the
    truncated domain, splitting at every phase half-period and along a
    width ladder around each Lorentzian center. t is one time or an array
    of times (results in input order). The sorted times are grouped into
    blocks whose largest time is at most twice the smallest; each block
    shares the partition of its largest time, which resolves the phase of
    every smaller time more finely, and one adaptive Gauss-Kronrod loop in
    which every time meets its own budget. With return_error the result
    comes back as (value, error) where error adds the analytic out-of-domain
    mass bound to the quadrature estimate. OracleConvergenceError names
    the earliest time that misses its budget.
    """
    if spec is None:
        spec = QuadratureSpec()
    p = float(p)
    if not (math.isfinite(p) and p >= 0.0):
        raise ValueError("momentum must be finite and >= 0, got %r" % p)
    tt = as_points(t, lambda x: np.isfinite(x) & (x >= 0.0), "time must be finite and >= 0")

    lo, hi = _domain(modes, spec)
    times, where = np.unique(tt, return_inverse=True)
    amp = np.empty(len(times), dtype=complex)
    err = np.empty(len(times))
    for start, stop in _blocks(times):
        block = times[start:stop]
        runs = _runs(block)

        def integrand(m):
            energy = np.sqrt(p * p + m * m)
            return _phase_factors(energy, block, runs, mdd_analytic(modes, m))

        try:
            value, quad_err = adaptive_gauss(
                integrand, _breakpoints(modes, p, float(block[-1]), lo, hi),
                abs_tol=spec.abs_tol, rel_tol=spec.rel_tol,
                max_segments=spec.max_segments, max_rounds=spec.max_rounds,
            )
        except QuadratureConvergenceError as exc:
            i = int(np.flatnonzero(~exc.converged)[0])
            raise OracleConvergenceError(
                "%s at t=%r" % (exc, float(block[i])),
                value=complex(exc.value[i]), error_estimate=float(exc.error_estimate[i]),
            ) from exc
        amp[start:stop] = value
        err[start:stop] = quad_err

    amp = amp[where]
    if return_error:
        err = err[where] + _tail_bound(modes, spec, lo, hi)
        return maybe_scalar(amp, t), maybe_scalar(err, t)
    return maybe_scalar(amp, t)


def direct_survival(modes: RestModeSet, p, t, spec: QuadratureSpec = None):
    """|direct_boosted_amplitude|^2, at one time or on an array of times."""
    amp = np.atleast_1d(direct_boosted_amplitude(modes, p, t, spec))
    return maybe_scalar(amp.real * amp.real + amp.imag * amp.imag, t)


def oracle_compare(closed: CurveSeries, direct: CurveSeries) -> ComparisonReport:
    """Worst absolute and relative deviations between two curves.

    The two series must share one time grid exactly; relative deviations
    are measured against the direct (reference) values.
    """
    if closed.t.shape != direct.t.shape or not np.array_equal(closed.t, direct.t):
        raise ValueError("grid mismatch: both series must share one time grid")
    t = closed.t
    diff = np.abs(closed.values - direct.values)
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
        closed_label=closed.label or "%s/%s" % (closed.frame, closed.kind),
        direct_label=direct.label or "%s/%s" % (direct.frame, direct.kind),
    )
