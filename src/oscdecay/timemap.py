"""Inversion of the rest-frame decay law and the frame-to-frame time map.

The rest-frame survival probability of a valid mode set decreases
strictly, so it has an inverse. Composing that inverse with the boosted
survival probability gives the time map phi_p; over the exponential
window the map is close to the line t / gamma, and linearity_fit
quantifies how close. The inverse is one safeguarded Newton solve on
2 log amplitude_rest - log r, at every target from 1 down to subnormal,
inside the bracket [0, tail cap]. Each root starts at its own start:
t / gamma, the paper's approximation, for phi_p, and 1/Gamma_1 for
invert_survival_rest. A converged Newton step that lands on a bracket
end is taken there, so a root that coincides with the end is not left
one step short.
"""

from collections import namedtuple

import numpy as np

from ._points import as_points, maybe_scalar

# amplitude_rest, survival_boosted and survival_rest are unused here but stay bound:
# perfbench/spans.py traces calls through these module attributes
from .boost import BoostedLaw, survival_boosted  # noqa: F401
from .kinematics import BoostContext, RestModeSet
from .restframe import CurveSeries, _RestLaw, amplitude_rest, survival_rest  # noqa: F401
from .window import TimeWindow

INVERT_REL_TOL = 1e-12
# the right end of every root's bracket, as a multiple of 1/Gamma_1. Every
# width of a valid set is at least Gamma_1, so P0 there is below e^-5000,
# which rounds to 0: every target in (0, 1) has its root inside
TAIL_CAP_OVER_GAMMA1 = 1e4
# a point freezes once its Newton step is below this fraction of its
# root, its bracket below the second one times its root, or its log gap
# below the second one
_NEWTON_LAST_STEP = 1e-10
_BRACKET_REL_TOL = 4.0 * np.finfo(float).eps
# bisection alone from [0, tail cap] needs about log2(cap / (4 eps t))
# halvings to reach a root t: 63 at t = 1/Gamma_1
_MAX_ITER = 100


class TimeMapError(ValueError):
    """The time map was requested outside its domain."""


class LinearityFit(namedtuple("LinearityFit", "slope intercept max_residual interval "
                                              "expected_slope rel_slope_error n_points")):
    """Least-squares line through phi_p samples inside the window."""

    __slots__ = ()


def _solve(modes, r, start):
    # roots of P0(t) = r for every r in (0, 1), by one safeguarded Newton
    # loop over whole arrays on the log gap 2 log amplitude - log r. Each
    # root starts at its own start clipped into (0, cap], inside the
    # bracket [0, cap]. A round evaluates the rest law once, narrows each
    # bracket by the sign of the gap (P0 falls strictly: a positive gap
    # puts the root to the right), takes the Newton step where it lands
    # strictly inside the bracket and bisects elsewhere. A point freezes
    # once its step, its bracket or its gap is small, and later rounds
    # carry only the points still moving, so its root depends only on its
    # target and start. The gap's slope, d log P0/dt = -rate / amplitude, is
    # finite where P0 itself is subnormal; where the amplitude underflows
    # to 0 the step is NaN and the point bisects.
    law = _RestLaw(modes)
    cap = TAIL_CAP_OVER_GAMMA1 / modes.Gamma[0]
    log_r = np.log(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.clip(start, np.finfo(float).tiny, cap)
        # the moving points' indices, times, targets and brackets
        live, t, target = np.arange(len(r)), root, log_r
        lo = np.zeros_like(r)
        hi = np.full_like(r, cap)
        for _ in range(_MAX_ITER):
            if not len(live):
                break
            amp, rate = law(t)
            gap = 2.0 * np.log(amp) - target
            # a gap at its rounding level gives a step of pure noise, which
            # near r = 1 would never fall below the step tolerance: the
            # point has converged, and stays
            step = np.where(np.abs(gap) <= _BRACKET_REL_TOL, 0.0, gap * amp / rate)
            lo = np.where(gap > 0.0, t, lo)
            hi = np.where(gap < 0.0, t, hi)
            newton = t + step
            # a Newton step this small leaves an error of order step^2: take
            # it, clipped to the closed bracket (a root on a bracket end
            # would otherwise stay one step away), and freeze
            done = (np.abs(step) <= _NEWTON_LAST_STEP * t) | (hi - lo <= _BRACKET_REL_TOL * t)
            take = done | ((newton > lo) & (newton < hi))
            t = np.where(take, np.minimum(np.maximum(newton, lo), hi), 0.5 * (lo + hi))
            # the first rounds often freeze no point: cut the arrays only after one
            # did (count_nonzero tests that in a quarter of .any()'s time)
            if np.count_nonzero(done):
                root[live[done]] = t[done]
                moving = ~done
                live, t, target, lo, hi = (live[moving], t[moving], target[moving], lo[moving],
                                           hi[moving])
        root[live] = t  # points still moving after the last round
        return root, 2.0 * np.log(law.amplitude(root)) - log_r


def _invert(modes, r, start):
    # rest-frame times where P0 = r, for a 1-d array r in (0, 1] (1 maps to 0),
    # each root's solve started at its entry of start (a float or shaped like r)
    out = np.zeros_like(r)
    below = np.flatnonzero(r < 1.0)
    target = r[below]
    root, resid = _solve(modes, target, np.broadcast_to(start, r.shape)[below])
    failed = np.flatnonzero(np.abs(resid) > INVERT_REL_TOL)
    if len(failed):
        i = failed[0]
        raise TimeMapError(
            "inversion residual %r exceeds %r in log space at r=%r"
            % (abs(float(resid[i])), INVERT_REL_TOL, float(target[i]))
        )
    out[below] = root
    return out


def invert_survival_rest(modes: RestModeSet, r):
    """The time at which the rest-frame survival equals r (a float or an array).

    Starts each root at 1/Gamma_1 inside the bracket [0, tail cap] and
    refines it with safeguarded Newton steps, bisecting where a step would
    leave the bracket; a converged Newton step that lands on a bracket end
    is taken there. The tail cap only ends the bracket: for a valid set
    P0 there rounds to 0, so every target in (0, 1) has its root inside.
    The solve runs on 2 log(amplitude) - log r and its exact slope, which
    keeps the deep tail conditioned and immune to squaring underflow,
    down to subnormal targets. Every result has a log residual of at most
    1e-12, so |P0(t) - r| <= ~1e-12 r. Errors name the first offending
    target.
    """
    rr = as_points(r, lambda v: (v > 0.0) & (v <= 1.0), "target probability must lie in (0, 1]",
                   TimeMapError)
    return maybe_scalar(_invert(modes, rr, 1.0 / modes.Gamma[0]), r)


def phi_p(modes: RestModeSet, ctx: BoostContext, t):
    """Rest-frame time whose survival matches the boosted one at lab time t.

    phi_p(t) = P0^{-1}(P_p(t)), for a scalar t (returns a float) or an
    array of times (returns an array). Each root is solved as in
    invert_survival_rest, started at the paper's approximation t / gamma
    instead of 1/Gamma_1. The boosted probability must fall in (0, 1];
    rounding-level overshoot above 1 (at most 1e-12) is clamped. Anything
    larger, underflow to 0 and NaN raise TimeMapError naming the first
    offending point. BoostedLaw's own domain errors are raised first.
    """
    ev = BoostedLaw(modes, ctx)(np.atleast_1d(t))
    r = ev.P_p
    bad = np.flatnonzero(~((r > 0.0) & (r <= 1.0 + 1e-12)))  # NaN fails both
    if len(bad):
        i = bad[0]
        at = float(ev.t[i])
        if r[i] > 1.0:
            raise TimeMapError(
                "boosted survival %r exceeds 1 at t=%r; the time map is undefined there"
                % (float(r[i]), at)
            )
        raise TimeMapError("boosted survival %r %s at t=%r" % (
            float(r[i]), "underflowed" if r[i] <= 0.0 else "is not finite", at))
    phi = _invert(modes, np.minimum(r, 1.0), ev.t / ctx.gamma)
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
    # the least-squares line about the means
    t_mean, v_mean = tw.mean(), vw.mean()
    dt = tw - t_mean
    slope = (dt @ (vw - v_mean)) / (dt @ dt)
    intercept = v_mean - slope * t_mean
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
