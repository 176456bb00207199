"""Inversion of the rest-frame decay law and the frame-to-frame time map.

The rest-frame survival probability of a valid mode set decreases
strictly, so it has an inverse. Composing that inverse with the boosted
survival probability gives the time map phi_p; over the exponential
window the map is close to the line t / gamma, and linearity_fit
quantifies how close.
"""

from dataclasses import dataclass

import numpy as np

from ._points import as_points, maybe_scalar

# survival_boosted and survival_rest are unused here but stay bound:
# perfbench/spans.py traces calls through these module attributes
from .boost import BoostedLaw, survival_boosted  # noqa: F401
from .kinematics import BoostContext, RestModeSet
from .restframe import CurveSeries, amplitude_rest, rate_over_amplitude, survival_rest  # noqa: F401
from .window import TimeWindow

__all__ = [
    "INVERT_REL_TOL",
    "LinearityFit",
    "TAIL_CAP_OVER_GAMMA1",
    "TimeMapError",
    "invert_survival_rest",
    "linearity_fit",
    "phi_p",
]

INVERT_REL_TOL = 1e-12
# targets needing times beyond this multiple of 1/Gamma_1 are rejected
TAIL_CAP_OVER_GAMMA1 = 1e4
# below this target the inversion works on log P0 to keep conditioning
_LOG_SWITCH = 1e-2
# Newton stops after a step below this fraction of the root; bisection
# once the bracket is below the second one
_NEWTON_LAST_STEP = 1e-10
_BRACKET_REL_TOL = 4.0 * np.finfo(float).eps
# bisection alone needs ~55 halvings from a doubling bracket
_MAX_ITER = 100


class TimeMapError(ValueError):
    """The time map was requested outside its domain."""


@dataclass(frozen=True)
class LinearityFit:
    """Least-squares line through phi_p samples inside the window."""

    slope: float
    intercept: float
    max_residual: float
    interval: tuple
    expected_slope: float
    rel_slope_error: float
    n_points: int


def _gap(modes, t, r, log_r, use_log):
    """Signed gap P0(t) - r (2 log amplitude - log r where use_log) and its slope.

    In log space the slope d log P0/dt comes from the amplitude and
    rate_over_amplitude, both finite where P0 itself is subnormal; in
    probability space it is decay_rate_rest's dP0/dt.
    """
    amp = amplitude_rest(modes, t)
    k = rate_over_amplitude(modes, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.where(use_log, 2.0 * np.log(amp) - log_r, amp * amp - r)
        slope = np.where(use_log, -k / amp, -amp * k)
    return gap, slope


def _solve(modes, r):
    # roots of P0(t) = r for every r in (0, 1), all points at once: bracket
    # by doubling from 1/Gamma_1, start where the log gap interpolates to 0,
    # then rtsafe (Newton steps kept inside the bracket, bisection when a
    # step leaves it or fails to halve the one before last). Each point
    # iterates only until its own step converges, so its root does not
    # depend on the rest of the array.
    gamma1 = float(modes.Gamma[0])
    cap = TAIL_CAP_OVER_GAMMA1 / gamma1
    log_r = np.log(r)
    use_log = r < _LOG_SWITCH

    # the bracket runs on the log gap, immune to squaring underflow
    lo = np.zeros_like(r)
    hi = np.full_like(r, 1.0 / gamma1)
    gap_lo = -log_r
    gap_hi = np.empty_like(r)
    up = np.arange(len(r))
    while len(up):
        with np.errstate(divide="ignore"):
            gap_hi[up] = 2.0 * np.log(amplitude_rest(modes, hi[up])) - log_r[up]
        up = up[gap_hi[up] > 0.0]
        lo[up] = hi[up]
        gap_lo[up] = gap_hi[up]
        hi[up] *= 2.0
        beyond = up[hi[up] > cap]
        if len(beyond):
            raise TimeMapError(
                "target %r lies below the representable tail (t beyond %r)"
                % (float(r[beyond[0]]), cap)
            )

    with np.errstate(invalid="ignore"):
        t = lo + (hi - lo) * (gap_lo / (gap_lo - gap_hi))
    t = np.where((t > lo) & (t < hi), t, 0.5 * (lo + hi))
    dx = hi - lo
    dx_old = dx.copy()
    active = np.arange(len(r))
    for _ in range(_MAX_ITER):
        if not len(active):
            break
        a = active
        gap, slope = _gap(modes, t[a], r[a], log_r[a], use_log[a])
        # P0 falls strictly: a positive gap puts the root to the right
        lo[a] = np.where(gap > 0.0, t[a], lo[a])
        hi[a] = np.where(gap < 0.0, t[a], hi[a])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(np.isfinite(slope) & (slope < 0.0), gap / slope, np.nan)
        newton = t[a] - step
        inside = (newton > lo[a]) & (newton < hi[a])
        # a Newton step this small leaves an error of order step^2: take it
        # if it stays inside the bracket, and stop
        done = (np.abs(step) <= _NEWTON_LAST_STEP * t[a]) \
            | (hi[a] - lo[a] <= _BRACKET_REL_TOL * t[a])
        bisect = ~done & (~inside | ~(np.abs(2.0 * step) < np.abs(dx_old[a])))
        dx_old[a] = dx[a]
        dx[a] = np.where(bisect, 0.5 * (hi[a] - lo[a]), step)
        t[a] = np.where(bisect, lo[a] + dx[a], np.where(inside, newton, t[a]))
        active = a[~done]
    return t, _gap(modes, t, r, log_r, use_log)[0], use_log


def invert_survival_rest(modes: RestModeSet, r):
    """The time at which the rest-frame survival equals r (a float or an array).

    Brackets each root by doubling from 1/Gamma_1 up to the tail cap, then
    refines with safeguarded Newton steps (derivative: the closed-form
    dP0/dt of decay_rate_rest) and a bisection fallback; for r < 1e-2 the
    solve runs on 2 log(amplitude) and its exact slope instead of the
    probability itself, which keeps the deep tail conditioned and immune
    to squaring underflow, down to subnormal targets. Every result
    satisfies |P0(t) - r| <= 1e-12 r (log residual <= 1e-12 below 1e-2).
    Errors name the first offending target.
    """
    rr = as_points(r, lambda v: (v > 0.0) & (v <= 1.0), "target probability must lie in (0, 1]",
                   TimeMapError)
    out = np.zeros_like(rr)
    below = np.flatnonzero(rr < 1.0)
    target = rr[below]
    root, resid, use_log = _solve(modes, target)
    tol = np.where(use_log, INVERT_REL_TOL, INVERT_REL_TOL * target)
    failed = np.flatnonzero(np.abs(resid) > tol)
    if len(failed):
        i = failed[0]
        raise TimeMapError(
            "inversion residual %r exceeds %r%s at r=%r"
            % (abs(float(resid[i])), float(tol[i]), " in log space" if use_log[i] else "",
               float(target[i]))
        )
    out[below] = root
    return maybe_scalar(out, r)


def phi_p(modes: RestModeSet, ctx: BoostContext, t):
    """Rest-frame time whose survival matches the boosted one at lab time t.

    phi_p(t) = P0^{-1}(P_p(t)), for a scalar t (returns a float) or an
    array of times (returns an array). The boosted probability must fall
    in (0, 1]; rounding-level overshoot above 1 (at most 1e-12) is
    clamped, anything larger, and underflow to 0, raises TimeMapError
    naming the first offending point. BoostedLaw's own domain errors are
    raised first.
    """
    ev = BoostedLaw(modes, ctx)(t)
    r = np.atleast_1d(ev.P_p)
    bad = np.flatnonzero((r > 1.0 + 1e-12) | (r <= 0.0))
    if len(bad):
        i = bad[0]
        at = float(np.atleast_1d(ev.t)[i])
        if r[i] > 1.0:
            raise TimeMapError(
                "boosted survival %r exceeds 1 at t=%r; the time map is undefined there"
                % (float(r[i]), at)
            )
        raise TimeMapError("boosted survival %r underflowed at t=%r" % (float(r[i]), at))
    phi = invert_survival_rest(modes, np.minimum(r, 1.0))
    return maybe_scalar(phi, t)


def linearity_fit(series: CurveSeries, window: TimeWindow, ctx: BoostContext) -> LinearityFit:
    """Fit a line to time-map samples inside the window; compare to 1/gamma.

    series holds phi_p values on a lab-frame time grid. Points inside the
    lab window union are fitted by least squares; at least 20 are
    required. The report carries the worst residual from the fitted line
    and the relative slope error against the expected 1/gamma.
    """
    t = series.t
    mask = np.zeros(t.shape, dtype=bool)
    for lo, hi in window.union_lab:
        mask |= (t >= lo) & (t <= hi)
    n = int(mask.sum())
    if n < 20:
        raise TimeMapError(
            "insufficient coverage: %d grid points inside the window (need >= 20)" % n
        )

    tw = t[mask]
    vw = series.values[mask]
    slope, intercept = np.polyfit(tw, vw, 1)
    residuals = vw - (slope * tw + intercept)
    expected = 1.0 / ctx.gamma
    return LinearityFit(
        slope=float(slope),
        intercept=float(intercept),
        max_residual=float(np.abs(residuals).max()),
        interval=(float(tw[0]), float(tw[-1])),
        expected_slope=expected,
        rel_slope_error=abs(float(slope) - expected) / expected,
        n_points=n,
    )
