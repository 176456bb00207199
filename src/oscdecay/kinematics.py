"""Mode-set validation and boost kinematics.

The rest-frame survival amplitude is a weighted sum of damped modes, each
with width Gamma_j, oscillation frequency Omega_j, oscillation depth a_j
and weight w_j, around a resonance mass M. A boost with momentum p maps
each mode onto three effective resonances at masses M, M - Omega_j and
M + Omega_j, with widths rescaled by the ratio of Lorentz factors.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeValidationError",
    "RestModeSet",
    "BoostContext",
    "ConsolidatedModes",
    "validate_modes",
    "lorentz_factor",
    "shifted_kinematics",
    "consolidate_modes",
]

# Upper bound on Gamma_j / (M - Omega_j) for the narrow-resonance regime.
# 1e-2 would reject the standard single-mode fixtures (ratios up to 0.04),
# so the default admits them while still refusing strong decays.
NARROW_WIDTH_DEFAULT = 5e-2

WEIGHT_SUM_TOL = 1e-12
MERGE_REL_TOL = 1e-12


class ModeValidationError(ValueError):
    """Carries the complete list of violated mode-set invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class RestModeSet:
    """Validated parameters of the rest-frame decay law.

    M: resonance mass (energy units); w, Gamma, Omega, a: per-mode arrays.
    Use validate_modes() to construct one from unchecked input.
    """

    M: float
    w: np.ndarray
    Gamma: np.ndarray
    Omega: np.ndarray
    a: np.ndarray

    @property
    def N(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class BoostContext:
    """Boost momentum with the per-mode shifted masses, Lorentz factors
    and widths: M_minus/M_plus = M -/+ Omega_j, gamma_* their Lorentz
    factors at momentum p, Gamma_* the rescaled widths (gamma/gamma_*) Gamma_j.
    """

    p: float
    gamma: float
    M_minus: np.ndarray
    M_plus: np.ndarray
    gamma_minus: np.ndarray
    gamma_plus: np.ndarray
    Gamma_minus: np.ndarray
    Gamma_plus: np.ndarray


@dataclass(frozen=True)
class ConsolidatedModes:
    """Boosted mode list after merging coincident terms.

    widths are sorted ascending; weights sum to one; masses are the
    effective resonance masses paired with each width.
    """

    widths: np.ndarray
    weights: np.ndarray
    masses: np.ndarray

    @property
    def N(self) -> int:
        return len(self.widths)


def _as_mode_arrays(candidate):
    if isinstance(candidate, RestModeSet):
        return candidate.M, candidate.w, candidate.Gamma, candidate.Omega, candidate.a
    M = candidate["M"]
    w = candidate["w"]
    Gamma = candidate["Gamma"]
    Omega = candidate["Omega"]
    a = candidate["a"]
    return M, w, Gamma, Omega, a


def validate_modes(candidate, narrow_width_threshold: float = NARROW_WIDTH_DEFAULT) -> RestModeSet:
    """Check every mode-set invariant; return the validated set.

    candidate is a mapping with keys M, w, Gamma, Omega, a (or an existing
    RestModeSet). All violations are collected and raised together as a
    ModeValidationError, never only the first one.
    """
    M, w, Gamma, Omega, a = _as_mode_arrays(candidate)
    M = float(M)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    Gamma = np.atleast_1d(np.asarray(Gamma, dtype=float))
    Omega = np.atleast_1d(np.asarray(Omega, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))

    violations = []
    N = len(w)
    if N < 1:
        violations.append("mode count must be >= 1, got 0")
    if not (len(Gamma) == len(Omega) == len(a) == N):
        violations.append(
            "array lengths differ: w=%d Gamma=%d Omega=%d a=%d"
            % (N, len(Gamma), len(Omega), len(a))
        )
        raise ModeValidationError(violations)
    if not np.all(np.isfinite(w)) or not np.all(np.isfinite(Gamma)) \
            or not np.all(np.isfinite(Omega)) or not np.all(np.isfinite(a)) \
            or not math.isfinite(M):
        violations.append("non-finite parameter value")
        raise ModeValidationError(violations)

    if M <= 0.0:
        violations.append("M must be > 0, got %r" % M)
    for j in range(N):
        if w[j] <= 0.0:
            violations.append("w[%d] must be > 0, got %r" % (j, float(w[j])))
    s = float(np.sum(w))
    if abs(s - 1.0) > WEIGHT_SUM_TOL:
        violations.append("sum of w must be 1 within %g, got %r" % (WEIGHT_SUM_TOL, s))
    for j in range(N):
        if not (0.0 <= a[j] < 0.5):
            violations.append("a[%d] must lie in [0, 1/2), got %r" % (j, float(a[j])))
        if not (0.0 <= Omega[j] < M):
            violations.append(
                "Omega[%d] must lie in [0, M), got %r" % (j, float(Omega[j])))
        if Gamma[j] <= 0.0:
            violations.append("Gamma[%d] must be > 0, got %r" % (j, float(Gamma[j])))
    for j in range(N - 1):
        if not (Gamma[j] < Gamma[j + 1]):
            violations.append(
                "widths must increase strictly: Gamma[%d]=%r >= Gamma[%d]=%r"
                % (j, float(Gamma[j]), j + 1, float(Gamma[j + 1]))
            )
    if M > 0.0:
        for j in range(N):
            if 0.0 <= Omega[j] < M and Gamma[j] > 0.0:
                ratio = Gamma[j] / (M - Omega[j])
                if ratio > narrow_width_threshold:
                    violations.append(
                        "narrow-width check failed for mode %d: Gamma/(M-Omega)=%r > %r"
                        % (j, float(ratio), narrow_width_threshold)
                    )
    for j in range(N):
        if 0.0 < a[j] < 0.5 and Gamma[j] > 0.0:
            # below this bound the decay rate changes sign
            bound = 2.0 * a[j] * Omega[j] / math.sqrt(1.0 - 2.0 * a[j])
            if not (Gamma[j] > bound):
                violations.append(
                    "rate positivity failed for mode %d: need Gamma > %r, got %r"
                    % (j, float(bound), float(Gamma[j]))
                )

    if violations:
        raise ModeValidationError(violations)
    return RestModeSet(M=M, w=w, Gamma=Gamma, Omega=Omega, a=a)


def lorentz_factor(M: float, p: float) -> float:
    """gamma = sqrt(1 + p^2/M^2) for a system of mass M at momentum p."""
    M = float(M)
    p = float(p)
    if M <= 0.0:
        raise ValueError("lorentz_factor requires M > 0, got %r" % M)
    if not (math.isfinite(p) and p >= 0.0):
        raise ValueError("lorentz_factor requires finite p >= 0, got %r" % p)
    return math.hypot(1.0, p / M)


def shifted_kinematics(modes: RestModeSet, p: float) -> BoostContext:
    """Per-mode shifted masses, Lorentz factors and rescaled widths at momentum p."""
    p = float(p)
    if not (math.isfinite(p) and p >= 0.0):
        raise ValueError("shifted_kinematics requires finite p >= 0, got %r" % p)
    gamma = lorentz_factor(modes.M, p)
    M_minus = modes.M - modes.Omega
    M_plus = modes.M + modes.Omega
    gamma_minus = np.hypot(1.0, p / M_minus)
    gamma_plus = np.hypot(1.0, p / M_plus)
    Gamma_minus = (gamma / gamma_minus) * modes.Gamma
    Gamma_plus = (gamma / gamma_plus) * modes.Gamma
    return BoostContext(
        p=p,
        gamma=gamma,
        M_minus=M_minus,
        M_plus=M_plus,
        gamma_minus=gamma_minus,
        gamma_plus=gamma_plus,
        Gamma_minus=Gamma_minus,
        Gamma_plus=Gamma_plus,
    )


def consolidate_modes(modes: RestModeSet, ctx: BoostContext) -> ConsolidatedModes:
    """Flatten each mode into its three boosted terms and merge duplicates.

    Each mode j contributes (width, weight, mass) entries
        (Gamma_minus_j, w_j a_j / 2, M_minus_j gamma_minus_j / gamma),
        (Gamma_j,       w_j (1-a_j), M),
        (Gamma_plus_j,  w_j a_j / 2, M_plus_j gamma_plus_j / gamma).
    Zero-weight entries (a_j = 0) are dropped. Entries whose width and
    mass both agree within 1e-12 relative merge by weight addition. The
    result is sorted by width, then mass.
    """
    entries = []
    for j in range(modes.N):
        wj = float(modes.w[j])
        aj = float(modes.a[j])
        if aj > 0.0:
            half = wj * aj / 2.0
            entries.append((float(ctx.Gamma_minus[j]), half,
                            float(ctx.M_minus[j] * ctx.gamma_minus[j] / ctx.gamma)))
            entries.append((float(modes.Gamma[j]), wj * (1.0 - aj), modes.M))
            entries.append((float(ctx.Gamma_plus[j]), half,
                            float(ctx.M_plus[j] * ctx.gamma_plus[j] / ctx.gamma)))
        else:
            entries.append((float(modes.Gamma[j]), wj, modes.M))

    entries.sort(key=lambda e: (e[0], e[2]))
    merged = [list(entries[0])]
    for width, weight, mass in entries[1:]:
        prev = merged[-1]
        same_width = abs(width - prev[0]) <= MERGE_REL_TOL * max(abs(width), abs(prev[0]))
        same_mass = abs(mass - prev[2]) <= MERGE_REL_TOL * max(abs(mass), abs(prev[2]))
        if same_width and same_mass:
            prev[1] += weight
        else:
            merged.append([width, weight, mass])

    widths = np.array([e[0] for e in merged])
    weights = np.array([e[1] for e in merged])
    masses = np.array([e[2] for e in merged])
    return ConsolidatedModes(widths=widths, weights=weights, masses=masses)
