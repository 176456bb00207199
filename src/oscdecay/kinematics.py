"""Mode-set validation and boost kinematics.

The rest-frame survival amplitude is a weighted sum of damped modes, each
with width Gamma_j, oscillation frequency Omega_j, oscillation depth a_j
and weight w_j, around a resonance mass M. Each mode splits into
Lorentzian terms at masses M, M - Omega_j and M + Omega_j (mode_terms),
each with its complex pole energy at momentum p (pole_energies); their
pole_sum is the pole part that the closed form and the oracle share. A
boost with momentum p is described by p and the Lorentz factor of M.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeValidationError",
    "RestModeSet",
    "BoostContext",
    "VALIDITY_THRESHOLD",
    "validate_modes",
    "lorentz_factor",
    "shifted_kinematics",
]

# Upper bound on Gamma_j / (M - Omega_j) for the narrow-resonance regime.
# 1e-2 would reject the standard single-mode fixtures (ratios up to 0.04),
# so the default admits them while still refusing strong decays.
NARROW_WIDTH_DEFAULT = 5e-2

WEIGHT_SUM_TOL = 1e-12

# the paper's "much larger than one", for the closed form's domain test
# and the window's graded checks alike
VALIDITY_THRESHOLD = 10.0


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
    """Boost momentum p and gamma = lorentz_factor(M, p), the Lorentz factor of M."""

    p: float
    gamma: float


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
    ModeValidationError, never only the first one. A narrow_width_threshold
    that is not finite and > 0 raises ValueError.
    """
    if not (0.0 < narrow_width_threshold < math.inf):
        raise ValueError("narrow_width_threshold must be finite and > 0, got %r"
                         % narrow_width_threshold)
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
    if not np.isfinite(w).all() or not np.isfinite(Gamma).all() \
            or not np.isfinite(Omega).all() or not np.isfinite(a).all() \
            or not math.isfinite(M):
        violations.append("non-finite parameter value")
        raise ModeValidationError(violations)

    if M <= 0.0:
        violations.append("M must be > 0, got %r" % M)
    for j in range(N):
        if w[j] <= 0.0:
            violations.append("w[%d] must be > 0, got %r" % (j, float(w[j])))
    s = float(w.sum())
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
    if not (0.0 < M < math.inf):
        raise ValueError("lorentz_factor requires finite M > 0, got %r" % M)
    if not (math.isfinite(p) and p >= 0.0):
        raise ValueError("lorentz_factor requires finite p >= 0, got %r" % p)
    return math.hypot(1.0, p / M)


def shifted_kinematics(modes: RestModeSet, p: float) -> BoostContext:
    """The boost context of the mode set at momentum p: p and gamma(M, p)."""
    p = float(p)
    if not (math.isfinite(p) and p >= 0.0):
        raise ValueError("shifted_kinematics requires finite p >= 0, got %r" % p)
    return BoostContext(p=p, gamma=lorentz_factor(modes.M, p))


def mode_indices(modes: RestModeSet, indices, error=ValueError) -> list:
    """The distinct mode indices in indices, ascending; error names the first
    entry that is not an integer in 0..N-1 (a bool or 0.9 is not one)."""
    idx = list(indices)
    for i in idx:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise error("mode index must be an integer, got %r" % (i,))
        if not 0 <= i < modes.N:
            raise error("mode index %d out of range 0..%d" % (i, modes.N - 1))
    return sorted(set(map(int, idx)))


def mode_terms(modes: RestModeSet):
    """Split every mode into its Lorentzian terms of width Gamma_j.

    Mode j gives weight w_j (1-a_j) at mass M and w_j a_j/2 at each of
    M - Omega_j and M + Omega_j, in that order; terms of zero weight
    (a_j = 0) are dropped. Returns the arrays (mass, width, weight, scale)
    with scale = (M/mass)^2, the factor each term's branch cut carries.
    """
    M, w, a = modes.M, modes.w, modes.a
    side = 0.5 * w * a
    mass = (M + np.multiply.outer(modes.Omega, [0.0, -1.0, 1.0])).ravel()
    weight = np.array([w * (1.0 - a), side, side]).T.ravel()
    keep = weight > 0.0
    mass = mass[keep]
    return mass, modes.Gamma.repeat(3)[keep], weight[keep], (M / mass) ** 2


def pole_energies(mass, width, p):
    """Pole energies E_k = sqrt(p^2 + (mass_k - i width_k/2)^2) at momentum p.

    mass and width are arrays of terms (as from mode_terms). Term k evolves
    as e^{-i E_k t}, decaying at the lab rate -2 Im E_k and turning at Re E_k.
    """
    return np.sqrt(p * p + (mass - 0.5j * width) ** 2)


def pole_sum(weight, energy, t):
    """sum_k weight_k e^{-i E_k t} at each time of the array t, E_k = energy_k."""
    return np.exp(np.multiply.outer(t, -1j * energy)) @ weight
