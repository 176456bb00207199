"""Exponential-time windows, admissibility gates and oscillation periods.

A mode contributes a clean exponential stretch of the lab-frame decay law
only while the branch-cut background stays negligible against it. The
gate parameter xi'_j measures that background against mode j; admitted
modes carry time intervals [2 zeta_min gamma / Gamma_j, 2 zeta_max gamma / Gamma_j]
whose union is the usable window.
"""

import math
from dataclasses import dataclass

from .kinematics import VALIDITY_THRESHOLD, BoostContext, RestModeSet, mode_indices

COMMENSURATE_REL_TOL = 1e-9
_WARN_THRESHOLD = 3.0  # a graded check warns from here, passes from VALIDITY_THRESHOLD


class WindowError(ValueError):
    """Window construction was requested outside its domain."""


@dataclass(frozen=True)
class WindowParams:
    """Dimensionless window bounds.

    zeta_min/zeta_max bound the exponential times 2 zeta gamma / Gamma_j;
    the defaults honor the ratio zeta_min/zeta_max ~= 1.83e-5 that the
    merge condition relies on. xi_gate admits a mode when xi'_j <= gate.
    """

    zeta_min: float = 1e-4
    zeta_max: float = 5.4645
    xi_gate: float = 1e-3

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0.0 < self.zeta_min < self.zeta_max < math.inf):
            raise WindowError(
                "need 0 < zeta_min < zeta_max < inf, got %r, %r" % (self.zeta_min, self.zeta_max)
            )
        if not (0.0 < self.xi_gate < math.inf):
            raise WindowError("xi_gate must be finite and > 0, got %r" % self.xi_gate)


@dataclass(frozen=True)
class ExcludedMode:
    """A mode the gate refused: its index and its xi'_j, above the gate."""

    mode: int
    xi: float


@dataclass(frozen=True)
class TimeWindow:
    """Admitted exponential-time intervals in both frames; a report's window section.

    zeta_min, zeta_max and xi_gate are those of the WindowParams it was
    built with. admitted lists mode indices with xi'_j <= xi_gate
    (ascending); excluded holds an ExcludedMode for each of the rest.
    intervals_* follow the admitted order; each lab interval is exactly
    gamma times its rest counterpart. merged is true when consecutive
    admitted widths satisfy Gamma_{j_l}/Gamma_{j_{l+1}} > zeta_min/zeta_max,
    so the union is a single interval.
    """

    zeta_min: float
    zeta_max: float
    xi_gate: float
    gamma: float
    xi_values: tuple
    admitted: tuple
    excluded: tuple
    intervals_lab: tuple
    intervals_rest: tuple
    union_lab: tuple
    union_rest: tuple
    merged: bool


@dataclass(frozen=True)
class ConstraintCheck:
    """One graded validity check: value is the tested ratio."""

    name: str
    value: float
    status: str
    detail: str


@dataclass(frozen=True)
class PeriodReport:
    """Oscillation periods of the windowed decay law in both frames.

    T0/Tp are None when the active frequencies are not commensurate.
    k_values holds the integer ratios omega_max / Omega_j of the active
    oscillating modes when they exist.
    """

    T0: object
    Tp: object
    commensurate: bool
    omega_max: float
    k_values: object


def w_fn(M: float, Omega: float, a: float) -> float:
    """Background strength factor W = 1 + a r (3 - r) / (1 - r)^2, r = (Omega/M)^2.

    W grows from 1 (no oscillation) toward 29/18 at the extreme corner
    Omega = M/2, a = 1/2; the endpoint itself is admitted here so the
    bound can be probed even though mode validation stops short of it.
    """
    M = float(M)
    Omega = float(Omega)
    a = float(a)
    if not (0.0 < M < math.inf):
        raise WindowError("w_fn requires finite M > 0, got %r" % M)
    if not 0.0 <= Omega < M:
        raise WindowError("w_fn requires 0 <= Omega < M, got Omega=%r, M=%r" % (Omega, M))
    if not 0.0 <= a <= 0.5:
        raise WindowError("w_fn requires 0 <= a <= 1/2, got %r" % a)
    r = (Omega / M) ** 2
    return 1.0 + a * r * (3.0 - r) / ((1.0 - r) * (1.0 - r))


def _xi_values(modes: RestModeSet, ctx: BoostContext) -> tuple:
    # the gate parameter of every mode, branch-cut background over its pole term,
    #   xi'_j = sqrt(Gamma_j/(pi M) * sqrt(1 - 1/gamma^2))
    #           * sum_l w_l Gamma_l W(M, Omega_l, a_l) / (2 M w_j (1 - 2 a_j)),
    # in one pass over Python floats; the background sum, common to every
    # mode, is taken once, left to right
    M, w, G, O, a = modes.M, modes.w, modes.Gamma, modes.Omega, modes.a
    for aj in a:
        if aj >= 0.5:
            raise WindowError("gate diverges as a -> 1/2, got a=%r" % aj)
    background = sum(wl * gl * w_fn(M, ol, al) for wl, gl, ol, al in zip(w, G, O, a))
    # sqrt(1 - 1/gamma^2) read from p; from the rounded gamma it loses eps/(gamma - 1)
    velocity = ctx.p / (ctx.gamma * M)
    return tuple(math.sqrt(gj / (math.pi * M) * velocity) * background
                 / (2.0 * M * wj * (1.0 - 2.0 * aj)) for wj, gj, aj in zip(w, G, a))


def _merge_intervals(intervals):
    if not intervals:
        return ()
    spans = sorted(intervals)
    out = [list(spans[0])]
    for lo, hi in spans[1:]:
        if lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def exponential_windows(modes: RestModeSet, ctx: BoostContext, params: WindowParams = None) -> TimeWindow:
    """Admit modes through the xi' gate and build their time intervals.

    Returns an empty window (no intervals, merged false) when every mode
    is excluded; the excluded list keeps the offending xi' values as the
    diagnostic.
    """
    if params is None:
        params = WindowParams()
    if ctx.gamma <= 1.0:
        raise WindowError("exponential_windows requires gamma > 1")

    xi = _xi_values(modes, ctx)
    admitted = tuple(j for j, x in enumerate(xi) if x <= params.xi_gate)
    excluded = tuple(ExcludedMode(j, x) for j, x in enumerate(xi) if x > params.xi_gate)

    G = modes.Gamma
    intervals_rest = tuple((2.0 * params.zeta_min / G[j], 2.0 * params.zeta_max / G[j])
                           for j in admitted)
    # lab intervals are exactly gamma times the rest ones, by construction
    intervals_lab = tuple((ctx.gamma * lo, ctx.gamma * hi) for lo, hi in intervals_rest)

    ratio = params.zeta_min / params.zeta_max
    merged = bool(admitted) and all(G[j] / G[k] > ratio for j, k in zip(admitted, admitted[1:]))

    return TimeWindow(
        zeta_min=params.zeta_min,
        zeta_max=params.zeta_max,
        xi_gate=params.xi_gate,
        gamma=ctx.gamma,
        xi_values=xi,
        admitted=admitted,
        excluded=excluded,
        intervals_lab=intervals_lab,
        intervals_rest=intervals_rest,
        union_lab=_merge_intervals(intervals_lab),
        union_rest=_merge_intervals(intervals_rest),
        merged=merged,
    )


def _grade(value: float) -> str:
    if value >= VALIDITY_THRESHOLD:
        return "pass"
    return "warn" if value >= _WARN_THRESHOLD else "fail"


def constraint_report(modes: RestModeSet, ctx: BoostContext, window: TimeWindow):
    """Grade the validity conditions of the window approximation.

    Four checks, each reported as a ConstraintCheck with the tested ratio.
    All four values are the lab window start t_s = window.union_lab[0][0]
    = 2 zeta_min gamma / Gamma_fast in four units: 10 Gamma_1 t_s must
    exceed 1, putting the start inside the closed form's domain (binary);
    the mass gap (M - Omega_max) t_s, the momentum M sqrt(gamma^2-1) t_s
    (read from p, so equal to the phase) and the phase p t_s must all be
    large: graded pass from VALIDITY_THRESHOLD = 10, the closed form's own
    "much larger than one", warn from 3 and fail below.
    """
    # an empty window has no start: every value is NaN and every check fails
    start = window.union_lab[0][0] if window.admitted else math.nan
    table = (
        # window start after 1/(10 Gamma_1)
        ("domain-at-start", 10.0 * modes.Gamma[0] * start,
         "20 zeta_min gamma Gamma_1 / Gamma_fast must exceed 1"),
        ("mass-gap", (modes.M - max(modes.Omega)) * start,
         "(M - Omega_max) times the window start must be large"),
        # M sqrt(gamma^2 - 1) is p: both momentum-scale conditions reduce to
        # the phase p t at the window start, reported from each side
        ("momentum", ctx.p * start,
         "M sqrt(gamma^2-1) times the window start must be large"),
        ("phase-at-start", ctx.p * start, "p t must be large at the window start"),
    )
    checks = []
    for name, value, detail in table:
        if name == "domain-at-start":
            status = "pass" if value > 1.0 else "fail"
        else:
            status = _grade(value)
        checks.append(ConstraintCheck(name=name, value=value, status=status,
                                      detail=detail if window.admitted else "no admitted modes"))
    return tuple(checks)


def periods(modes: RestModeSet, ctx: BoostContext, active_modes) -> PeriodReport:
    """Oscillation periods of the active modes, the indices active_modes
    (a window's admitted, say), in both frames.

    With one oscillating active mode the periods are T0 = 2 pi / Omega and
    Tp = gamma T0. Several oscillating modes share a period only when each
    frequency divides the largest one: Omega_j = omega_max / k_j with
    natural k_j (tolerance COMMENSURATE_REL_TOL on roundness); then
    T0 = 2 pi / omega_max and Tp = gamma T0. Otherwise the flag comes back
    false and the periods are None.
    """
    active = mode_indices(modes, active_modes, WindowError)

    osc = [j for j in active if modes.a[j] > 0.0 and modes.Omega[j] > 0.0]
    if not osc:
        raise WindowError("no oscillating active mode (need a_j > 0 and Omega_j > 0)")

    omega_max = max(modes.Omega[j] for j in osc)
    k_values = []
    for j in osc:
        ratio = omega_max / modes.Omega[j]
        k = round(ratio)
        if k < 1 or abs(ratio - k) > COMMENSURATE_REL_TOL * k:
            return PeriodReport(
                T0=None, Tp=None, commensurate=False, omega_max=omega_max, k_values=None
            )
        k_values.append(int(k))

    T0 = 2.0 * math.pi / omega_max
    return PeriodReport(
        T0=T0,
        Tp=ctx.gamma * T0,
        commensurate=True,
        omega_max=omega_max,
        k_values=tuple(k_values),
    )
