"""Laboratory-frame survival probability of a moving oscillating decay.

The closed form combines, per mode, a pole part K (three damped complex
exponentials e^{-i E t}, summed by kinematics.pole_sum)
and a branch-cut part Phi (Bessel/Struve combinations), weighted as
K + i (p Gamma / (pi M^2)) Phi. The squared modulus of the weighted sum
over modes is the survival probability at momentum p.
"""

import math
from collections import namedtuple

import numpy as np

from ._points import as_points, as_times, maybe_scalar
from .kinematics import (VALIDITY_THRESHOLD, BoostContext, RestModeSet, mode_indices,
                         mode_terms, pole_energies, pole_sum)
from .restframe import amplitude_rest, survival_rest, survival_rest_split
from .specfun import branch_cut, xi_mass_factor

# momenta below P_ZERO_REL * M take the exact rest-frame branch
P_ZERO_REL = 1e-12
# tolerated approximation overshoot of the probability above 1 in-domain
UNITY_EXCESS_TOL = 1e-6


class BoostDomainError(ValueError):
    """A boosted evaluation was requested outside its domain."""


class BoostedEvaluation(namedtuple("BoostedEvaluation", "t K_sum Phi_term P_p in_validity_domain "
                                                      "exceeds_unity")):
    """The boosted survival probability at lab time t (a float or an array).

    K_sum = sum_j w_j K_j, Phi_term = i sum_j w_j (p Gamma_j/(pi M^2)) Phi_j
    and P_p = |K_sum + Phi_term|^2. in_validity_domain records whether
    every mode satisfies t > 1/(10 Gamma_j) or (M - Omega_max) t >= 10;
    exceeds_unity flags a tolerated overshoot of 1 (at most 1e-6 in-domain).
    Evaluated on an array of times, every field is an array of that shape.
    """

    __slots__ = ()


def _retired(*args, **kwargs):
    """Retired: the scalar per-mode kernels upsilon, xi_fn, k_fn and phi_fn
    are gone from the package (the tests keep k_fn, phi_fn and xi_fn), and
    nothing calls this. The names stay bound only for perfbench/spans.py's
    strict lookup of them; ROADMAP item 7 deletes this with those entries."""
    raise NotImplementedError("the scalar per-mode kernels are retired")


upsilon = xi_fn = k_fn = phi_fn = _retired


class BoostedLaw:
    """The boosted survival law of one (modes, ctx) pair, compiled for grids.

    Construction computes everything that depends only on the mode set and
    the momentum: the pole energy E_k = kinematics.pole_energies(mass, width,
    p) and weight of each term of kinematics.mode_terms, for kinematics.pole_sum;
    the branch-cut prefactor p/(pi M^2); the two validity bounds, M - Omega_max
    and 1/(10 Gamma_1); and the constants C_A = sum weight width scale,
    C_B = sum weight width scale xi_mass_factor(mass, p) of

        sum_j w_j Gamma_j phi_fn_j = C_A A(pt) + C_B B(pt),

    with (A, B) = specfun.branch_cut(pt), which holds because xi_fn is
    A + xi_mass_factor B and depends on the mass only through that factor
    (phi_fn and xi_fn are the per-mode reference kernels in tests/conftest.py).
    Calling the law on lab times evaluates one J1/Y1/H1 triple per time,
    whatever the mode count, and returns a BoostedEvaluation: of floats
    for a scalar time, of arrays for an array.

    Momenta below P_ZERO_REL * M take the rest branch, the paper's P0. The
    exact law's p -> 0 limit differs: its energy |m| folds the density,
    adding the background -i int_0^inf rho_s(-i tau) e^{-tau t} dtau. On
    curve B at t = 1, P0 = 0.31574569, the exact law gives 0.31569009 at
    p = 0 and 1e-3 and this law 0.31569003 at p = 1e-10: P_p jumps by
    1.76e-4 relative at the hand-over. Times must be finite and >= 0, and
    p t finite and > 0 when p > 0. A bad time, or an in-domain probability
    above 1 + UNITY_EXCESS_TOL or not finite, raises BoostDomainError
    naming the first such point; smaller overshoot is flagged per point.
    """

    def __init__(self, modes: RestModeSet, ctx: BoostContext):
        self.modes = modes
        self.ctx = ctx
        p, M = ctx.p, modes.M
        self.at_rest = p < P_ZERO_REL * M
        self.prefactor = p / (math.pi * M * M)
        # unused on the rest-frame branch
        mass, width, weight, scale = mode_terms(modes)
        self.weight = weight
        self.energy = pole_energies(mass, width, p)
        strength = weight * width * scale
        self.C_A = float(strength.sum())
        self.C_B = float((strength * xi_mass_factor(mass, p)).sum())
        # every mode needs t > 1/(10 Gamma_j) or (M - Omega_max) t >= 10;
        # the first clause is weakest at the smallest width
        self.gap = M - max(modes.Omega)
        self.short_time = 0.1 / modes.Gamma[0]

    def __call__(self, t) -> BoostedEvaluation:
        tt = as_times(t, BoostDomainError)
        modes = self.modes
        M = modes.M

        if self.at_rest:
            amp = amplitude_rest(modes, tt)
            K_sum = np.exp(-1j * M * tt) * amp
            Phi_term = np.zeros_like(K_sum)
            P_p = amp * amp
            valid = np.ones(tt.shape, dtype=bool)
        else:
            if np.count_nonzero(tt == 0.0):
                raise BoostDomainError("t = 0 is outside the moving-frame closed form (p > 0)")
            # p t can overflow to inf, or round to 0, at a valid p and t:
            # refused before any work, without a warning
            with np.errstate(over="ignore"):
                pt = as_points(self.ctx.p * tt, lambda v: np.isfinite(v) & (v > 0.0),
                               "p t must be finite and > 0", BoostDomainError)
            K_sum = pole_sum(self.weight, self.energy, tt)
            A, B = branch_cut(pt)
            Phi_term = 1j * self.prefactor * (self.C_A * A + self.C_B * B)
            amp = K_sum + Phi_term
            P_p = amp.real * amp.real + amp.imag * amp.imag
            valid = (self.gap * tt >= VALIDITY_THRESHOLD) | (tt > self.short_time)
            over = valid & ~(P_p <= 1.0 + UNITY_EXCESS_TOL)  # NaN fails <= too
            if np.count_nonzero(over):
                first = float(P_p[over][0])
                raise BoostDomainError("in-domain probability %r " % first + (
                    "exceeds 1 beyond the %g tolerance" % UNITY_EXCESS_TOL
                    if math.isfinite(first) else "is not finite"))

        return BoostedEvaluation._make([maybe_scalar(v, t) for v in
                                        (tt, K_sum, Phi_term, P_p, valid, P_p > 1.0)])


def survival_boosted(modes: RestModeSet, ctx: BoostContext, t) -> BoostedEvaluation:
    """Boosted survival probability at a single lab time.

    The one-point case of BoostedLaw(modes, ctx); evaluate grids with the
    law itself. Raises BoostDomainError where the law does.
    """
    return BoostedLaw(modes, ctx)(float(t))


def _mask_modes(modes: RestModeSet, active_modes) -> RestModeSet:
    idx = mode_indices(modes, active_modes, BoostDomainError)
    if not idx:
        raise BoostDomainError("outside exponential window: no active modes")
    return RestModeSet(
        M=modes.M,
        w=tuple(modes.w[j] for j in idx),
        Gamma=tuple(modes.Gamma[j] for j in idx),
        Omega=tuple(modes.Omega[j] for j in idx),
        a=tuple(modes.a[j] for j in idx),
    )


def survival_boosted_window_approx(modes: RestModeSet, ctx: BoostContext, t, active_modes):
    """Window form of the boosted survival: active rest modes at t/gamma.

    |sum_l w_l e^{-Gamma_l t/(2 gamma)} (1 - a_l + a_l cos(Omega_l t/gamma))|^2
    over the active index set; with every mode active this is exactly
    survival_rest(modes, t/gamma).
    """
    sub = _mask_modes(modes, active_modes)
    return survival_rest(sub, np.asarray(t, dtype=float) / ctx.gamma)


def boosted_split(modes: RestModeSet, ctx: BoostContext, t, active_modes):
    """Window form split into (exponential, oscillating) parts.

    Both parts scale like their rest-frame counterparts evaluated at
    t/gamma; their sum reproduces survival_boosted_window_approx.
    """
    sub = _mask_modes(modes, active_modes)
    return survival_rest_split(sub, np.asarray(t, dtype=float) / ctx.gamma)
