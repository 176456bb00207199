"""Real-axis quadratures: the boosted survival amplitude, the first-principles
check of the steepest-descent oracle, and the mass distribution density,
the check of its closed form.

Integrates the analytic density times e^{-i sqrt(p^2+m^2) t} over a
truncated mass domain, splitting at every phase half-period and along a
width ladder around each Lorentzian center, with the package's adaptive
Gauss-Kronrod rule. The mass left outside the domain is bounded
analytically and added to the reported error, so truncation is a measured
quantity rather than an assumption. Slow, but it shares nothing with the
oracle beyond the density and the quadrature tolerances.
"""

import math

import numpy as np

from oscdecay._points import as_points, maybe_scalar
from oscdecay._quad import QuadratureConvergenceError, adaptive_gauss
from oscdecay.kinematics import RestModeSet, mode_terms
from oscdecay.oracle import OracleConvergenceError, QuadratureSpec
from oscdecay.restframe import amplitude_rest, mdd_analytic

# every Lorentzian center must sit at least this many half-widths
# away from the truncation edges
_COVERAGE_HALFWIDTHS = 40.0
_MAX_PHASE_BREAKPOINTS = 500000
# a block of times shares one partition while its largest time is at most
# this multiple of its smallest
_BLOCK_RATIO = 2.0
# phase factors advanced by recurrence take an exact exp at least this often
_RESYNC = 32

MDD_TCUT_MIN_OVER_GAMMA1 = 40.0
MDD_TCUT_DEFAULT_OVER_GAMMA1 = 60.0


def _domain(modes: RestModeSet, halfwidth_multiple, include_negative_mass):
    omega_max = float(modes.Omega.max())
    hw = halfwidth_multiple * max(float(modes.Gamma[-1]), omega_max)
    for j in range(modes.N):
        needed = float(modes.Omega[j]) + _COVERAGE_HALFWIDTHS * 0.5 * float(modes.Gamma[j])
        if hw < needed:
            raise ValueError(
                "halfwidth %r does not cover mode %d by %g half-widths (needs %r)"
                % (hw, j, _COVERAGE_HALFWIDTHS, needed)
            )
    lo = modes.M - hw
    hi = modes.M + hw
    if not include_negative_mass:
        # the narrow-width validation keeps M - Omega_j at least 20 Gamma_j,
        # so clipping at zero never violates the coverage requirement
        lo = max(lo, 0.0)
    return lo, hi


def _tail_bound(modes: RestModeSet, include_negative_mass, lo, hi):
    """Density mass between the intended support and the truncated domain."""
    mass, width, weight, _ = mode_terms(modes)
    half = 0.5 * width
    inside = (np.arctan((hi - mass) / half) - np.arctan((lo - mass) / half)) / math.pi
    intended = 1.0 if include_negative_mass else 0.5 + np.arctan(mass / half) / math.pi
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


def realaxis_amplitude(modes: RestModeSet, p, t, spec: QuadratureSpec = None,
                       return_error=False, halfwidth_multiple=60.0, max_segments=100000,
                       max_rounds=48):
    """Survival amplitude at momentum p by real-axis mass quadrature.

    The domain is [M - hw, M + hw] with hw = halfwidth_multiple times
    max(Gamma_N, Omega_max), clipped at zero unless spec.include_negative_mass;
    the adaptive rule splits it into at most max_segments panels in at most
    max_rounds rounds, and takes its tolerances from spec.
    t is one time or an array of times (results in input order). The
    sorted times are grouped into blocks whose largest time is at most
    twice the smallest; each block shares the partition of its largest
    time and one adaptive Gauss-Kronrod loop in which every time meets its
    own budget; along equal time steps the phase factors advance by
    recurrence. With return_error the result comes back as (value, error)
    where error adds the analytic out-of-domain mass bound to the
    quadrature estimate. OracleConvergenceError names the earliest time
    that misses its budget.
    """
    if spec is None:
        spec = QuadratureSpec()
    p = float(p)
    tt = as_points(t, lambda x: np.isfinite(x) & (x >= 0.0), "time must be finite and >= 0")

    lo, hi = _domain(modes, halfwidth_multiple, spec.include_negative_mass)
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
                max_segments=max_segments, max_rounds=max_rounds,
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
        err = err[where] + _tail_bound(modes, spec.include_negative_mass, lo, hi)
        return maybe_scalar(amp, t), maybe_scalar(err, t)
    return maybe_scalar(amp, t)


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
        return abs(value[0]) / math.pi

    mm = np.atleast_1d(np.asarray(m, dtype=float))
    out = np.array([density_at(mi) for mi in mm])
    return maybe_scalar(out, m)
