"""Mode-set validation and boost kinematics.

The rest-frame survival amplitude is a weighted sum of damped modes, each
with width Gamma_j, oscillation frequency Omega_j, oscillation depth a_j
and weight w_j, around a resonance mass M. Each mode splits into
Lorentzian terms at masses M, M - Omega_j and M + Omega_j (mode_terms),
each with its complex pole energy at momentum p (pole_energies); their
pole_sum is the pole part that the closed form and the oracle share. A
boost with momentum p is described by p and the Lorentz factor of M.

Every input rule lives here: _momentum, validate_modes, mode_indices, and
as_points and as_times, whose results go back through maybe_scalar. A
validated mode set holds tuples of Python floats, so that validation and
the window need no numpy; only the functions that take points import it.
"""

import math
import operator
from collections import namedtuple

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


class _FloatTuple(tuple):
    """A per-mode field: a tuple of floats that, like the arrays it stands
    for, compares with a number entry by entry, so all(modes.a > 0.0)
    reads as it would on an array. Compared with anything else it raises
    TypeError rather than compare tuples in dictionary order."""

    __slots__ = ()

    def _each(self, other, op):
        import numbers

        if not isinstance(other, numbers.Real):
            raise TypeError("a mode field compares only with a number, got %r" % (other,))
        return tuple(op(x, other) for x in self)

    def __lt__(self, other):
        return self._each(other, operator.lt)

    def __le__(self, other):
        return self._each(other, operator.le)

    def __gt__(self, other):
        return self._each(other, operator.gt)

    def __ge__(self, other):
        return self._each(other, operator.ge)


def _checked_replace(cls):
    """Class decorator for a record whose __new__ converts or checks its
    fields: _replace builds through _make, which then builds through cls too."""
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


@_checked_replace
class RestModeSet(namedtuple("RestModeSet", "M w Gamma Omega a")):
    """Validated parameters of the rest-frame decay law.

    M: resonance mass (energy units); w, Gamma, Omega, a: per-mode tuples
    of floats, so a set is immutable and hashable; each compares with a
    number entry by entry. Use validate_modes() to construct one from
    unchecked input: the functions that take a set do not check it again.
    """

    __slots__ = ()

    def __new__(cls, M, w, Gamma, Omega, a):
        return tuple.__new__(cls, (M, _FloatTuple(w), _FloatTuple(Gamma), _FloatTuple(Omega),
                                   _FloatTuple(a)))

    @property
    def N(self) -> int:
        return len(self.w)


class BoostContext(namedtuple("BoostContext", "p gamma")):
    """Boost momentum p and gamma = lorentz_factor(M, p), the Lorentz factor of M."""

    __slots__ = ()


_FIELDS = RestModeSet._fields


def _entry(x):
    # float() would read a one-entry array row whole
    if getattr(x, "ndim", 0):
        raise TypeError("nested entry %r" % (x,))
    return float(x)


def _floats(value):
    """value as a tuple of floats, each entry read by float(); a scalar or a
    0-d array is one entry, as np.atleast_1d read it, and so is a string,
    which float() reads whole rather than character by character. A nested
    entry, a list or an array alike, raises TypeError."""
    if isinstance(value, str):
        return (float(value),)
    try:
        entries = iter(value)
    except TypeError:
        return (float(value),)
    return tuple(map(_entry, entries))


def validate_modes(candidate, narrow_width_threshold: float = NARROW_WIDTH_DEFAULT) -> RestModeSet:
    """Check every mode-set invariant; return the validated set.

    candidate is a mapping with exactly the keys M, w, Gamma, Omega, a (or
    an existing RestModeSet); each per-mode field may be a sequence, an
    array or a single number. All violations, a missing or unknown key
    among them, are collected and raised together as a ModeValidationError,
    never only the first one. A narrow_width_threshold that is not finite
    and > 0 raises ValueError.
    """
    if not (0.0 < narrow_width_threshold < math.inf):
        raise ValueError("narrow_width_threshold must be finite and > 0, got %r"
                         % narrow_width_threshold)
    if isinstance(candidate, RestModeSet):
        candidate = candidate._asdict()
    violations = ["%r is not a mode field" % (key,) for key in candidate if key not in _FIELDS]
    read = []
    for name in _FIELDS:
        if name not in candidate:
            violations.append("mode field %r is missing" % name)
            continue
        value = candidate[name]
        try:
            read.append(float(value) if name == "M" else _floats(value))
        except (TypeError, ValueError, OverflowError):
            violations.append("%s must be a number%s, got %r"
                              % (name, "" if name == "M" else " or a list of numbers", value))
    if violations:
        raise ModeValidationError(violations)
    M, w, Gamma, Omega, a = read

    N = len(w)
    if N < 1:
        violations.append("mode count must be >= 1, got 0")
    if not (len(Gamma) == len(Omega) == len(a) == N):
        violations.append(
            "array lengths differ: w=%d Gamma=%d Omega=%d a=%d"
            % (N, len(Gamma), len(Omega), len(a))
        )
        raise ModeValidationError(violations)
    if not all(map(math.isfinite, (M,) + w + Gamma + Omega + a)):
        violations.append("non-finite parameter value")
        raise ModeValidationError(violations)

    if M <= 0.0:
        violations.append("M must be > 0, got %r" % M)
    for j in range(N):
        if w[j] <= 0.0:
            violations.append("w[%d] must be > 0, got %r" % (j, w[j]))
    # left to right, the order numpy sums fewer than eight values in
    s = 0.0
    for wj in w:
        s += wj
    if abs(s - 1.0) > WEIGHT_SUM_TOL:
        violations.append("sum of w must be 1 within %g, got %r" % (WEIGHT_SUM_TOL, s))
    for j in range(N):
        if not (0.0 <= a[j] < 0.5):
            violations.append("a[%d] must lie in [0, 1/2), got %r" % (j, a[j]))
        if not (0.0 <= Omega[j] < M):
            violations.append(
                "Omega[%d] must lie in [0, M), got %r" % (j, Omega[j]))
        if Gamma[j] <= 0.0:
            violations.append("Gamma[%d] must be > 0, got %r" % (j, Gamma[j]))
    for j in range(N - 1):
        if not (Gamma[j] < Gamma[j + 1]):
            violations.append(
                "widths must increase strictly: Gamma[%d]=%r >= Gamma[%d]=%r"
                % (j, Gamma[j], j + 1, Gamma[j + 1])
            )
    if M > 0.0:
        for j in range(N):
            if 0.0 <= Omega[j] < M and Gamma[j] > 0.0:
                ratio = Gamma[j] / (M - Omega[j])
                if ratio > narrow_width_threshold:
                    violations.append(
                        "narrow-width check failed for mode %d: Gamma/(M-Omega)=%r > %r"
                        % (j, ratio, narrow_width_threshold)
                    )
    for j in range(N):
        if 0.0 < a[j] < 0.5 and Gamma[j] > 0.0:
            # below this bound the decay rate changes sign
            bound = 2.0 * a[j] * Omega[j] / math.sqrt(1.0 - 2.0 * a[j])
            if not (Gamma[j] > bound):
                violations.append(
                    "rate positivity failed for mode %d: need Gamma > %r, got %r"
                    % (j, bound, Gamma[j])
                )

    if violations:
        raise ModeValidationError(violations)
    return RestModeSet(M=M, w=w, Gamma=Gamma, Omega=Omega, a=a)


def _momentum(p) -> float:
    """p as a float, if it is a momentum (finite and >= 0), else ValueError:
    the one rule every entry that takes a momentum reads."""
    p = float(p)
    if not 0.0 <= p < math.inf:  # NaN fails too
        raise ValueError("momentum p must be finite and >= 0, got %r" % p)
    return p


def as_points(x, ok, requirement, error=ValueError):
    """x as a 1-d float array; raises error naming the first point where ok fails."""
    import numpy as np

    xx = np.atleast_1d(np.asarray(x, dtype=float))
    bad = ~ok(xx)
    if np.count_nonzero(bad):
        raise error("%s, got %r" % (requirement, float(xx[bad][0])))
    return xx


def as_times(t, error=ValueError):
    """t as a 1-d float array of times; raises error naming the first time
    that is not finite and >= 0: the one rule every entry that takes times reads."""
    import numpy as np

    return as_points(t, lambda v: np.isfinite(v) & (v >= 0.0), "time must be finite and >= 0",
                     error)


def maybe_scalar(x, *results):
    """results as Python scalars if x is a scalar: one result alone, several as a tuple."""
    import numpy as np

    if np.ndim(x) == 0:
        results = tuple(r[0].item() for r in results)
    return results[0] if len(results) == 1 else results


def lorentz_factor(M: float, p: float) -> float:
    """gamma = sqrt(1 + p^2/M^2) for a system of mass M at momentum p."""
    M = float(M)
    if not (0.0 < M < math.inf):
        raise ValueError("lorentz_factor requires finite M > 0, got %r" % M)
    return math.hypot(1.0, _momentum(p) / M)


def shifted_kinematics(modes: RestModeSet, p: float) -> BoostContext:
    """The boost context of the mode set at momentum p: p and gamma(M, p)."""
    p = _momentum(p)
    # lorentz_factor's arithmetic; a RestModeSet's M is already a finite float > 0
    return BoostContext(p=p, gamma=math.hypot(1.0, p / modes.M))


def mode_indices(modes: RestModeSet, indices, error=ValueError) -> list:
    """The distinct mode indices in indices, ascending; error names the first
    entry that is not an integer in 0..N-1. An integer is what operator.index
    reads, numpy's included; a bool, 0.9 or np.float64(1.0) is not one. A
    bool is told by its type's name, "bool" for Python's and numpy's alike."""
    idx = set()
    for i in indices:
        if type(i).__name__ == "bool":
            raise error("mode index must be an integer, got %r" % (i,))
        try:
            j = operator.index(i)
        except TypeError:
            raise error("mode index must be an integer, got %r" % (i,)) from None
        if not 0 <= j < modes.N:
            raise error("mode index %d out of range 0..%d" % (j, modes.N - 1))
        idx.add(j)
    return sorted(idx)


def mode_terms(modes: RestModeSet):
    """Split every mode into its Lorentzian terms of width Gamma_j.

    Mode j gives weight w_j (1-a_j) at mass M and w_j a_j/2 at each of
    M - Omega_j and M + Omega_j, in that order; terms of zero weight
    (a_j = 0) are dropped. Returns the arrays (mass, width, weight, scale)
    with scale = (M/mass)^2, the factor each term's branch cut carries.
    """
    import numpy as np

    M = modes.M
    mass, width, weight = [], [], []
    for w, Gamma, Omega, a in zip(modes.w, modes.Gamma, modes.Omega, modes.a):
        side = 0.5 * w * a
        for centre, share in ((M, w * (1.0 - a)), (M - Omega, side), (M + Omega, side)):
            if share > 0.0:
                mass.append(centre)
                width.append(Gamma)
                weight.append(share)
    mass = np.array(mass)
    return mass, np.array(width), np.array(weight), (M / mass) ** 2


def pole_energies(mass, width, p):
    """Pole energies E_k = sqrt(p^2 + (mass_k - i width_k/2)^2) at momentum p.

    mass and width are arrays of terms (as from mode_terms). Term k evolves
    as e^{-i E_k t}, decaying at the lab rate -2 Im E_k and turning at Re E_k.
    """
    import numpy as np

    return np.sqrt(p * p + (mass - 0.5j * width) ** 2)


def pole_sum(weight, energy, t):
    """sum_k weight_k e^{-i E_k t} at each time of the array t, E_k = energy_k."""
    import numpy as np

    return np.exp(np.multiply.outer(t, -1j * energy)) @ weight
