"""Batched adaptive Gauss-Kronrod quadrature with deterministic summation.

Integrates a vectorized integrand over a list of breakpoint-delimited
panels with the nested Gauss-Kronrod 7/15 rule (QUADPACK's QK15; Piessens
et al., 1983): the 15-point Kronrod sum is the estimate, and its
difference against the 7-point Gauss rule on the same nodes is the error.
Panels whose error exceeds their share of the budget are bisected, all at
once, and a round evaluates only the panels it creates. The integrand
returns n values per abscissa, so n integrands share the nodes while each
meets its own budget. Panels are evaluated in fixed-size chunks, in
position order, so memory does not grow with the node count and the
summation order is a pure function of the inputs.
"""

import numpy as np

__all__ = ["QuadratureConvergenceError", "adaptive_gauss"]

# QK15 abscissas on [0, 1) (odd entries are the Gauss 7-point nodes) and
# the Kronrod and Gauss weights, from QUADPACK's qk15
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
])
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
# columns: Kronrod estimate, Kronrod minus Gauss (the error)
_RULE = np.stack([
    np.concatenate([_WK[:-1], _WK[::-1]]),
    np.concatenate([_WK[:-1] - _WG[:-1], (_WK - _WG)[::-1]]),
], axis=1)

# panels per integrand call: bounds the (n, nodes) arrays an integrand
# builds, whatever the size of the partition
_CHUNK_PANELS = 128


class QuadratureConvergenceError(RuntimeError):
    """Quadrature did not reach the requested tolerance within budget.

    value and error_estimate hold the best estimates, arrays of n for n
    integrands, with converged marking the integrands that met their budget.
    """

    def __init__(self, message, value=None, error_estimate=None, converged=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.converged = converged


def _panel_estimates(f, lo, hi):
    """(n, panels) Kronrod estimates and error estimates, chunk by chunk."""
    vals = []
    errs = []
    for start in range(0, len(lo), _CHUNK_PANELS):
        a = lo[start:start + _CHUNK_PANELS]
        b = hi[start:start + _CHUNK_PANELS]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * _NODES[None, :]
        fx = np.asarray(f(x.ravel()))
        sums = (fx.reshape(-1, len(_NODES)) @ _RULE).reshape(-1, len(mid), 2)
        vals.append(half * sums[..., 0])
        errs.append(half * np.abs(sums[..., 1]))
    return np.concatenate(vals, axis=1), np.concatenate(errs, axis=1)


def _failure(reason, totals, total_errs, budgets, converged):
    i = int(np.flatnonzero(~converged)[0])
    message = "%s: error estimate %g > tolerance %g" % (reason, total_errs[i], budgets[i])
    return QuadratureConvergenceError(message, value=totals, error_estimate=total_errs,
                                      converged=converged)


def adaptive_gauss(f, breakpoints, abs_tol, rel_tol, max_segments=40000, max_rounds=40):
    """Integrate f over [breakpoints[0], breakpoints[-1]].

    f maps a flat ndarray of abscissas to an (n, size) array of n
    integrands (real or complex); a 1-d result counts as n = 1. Each
    integrand must reach error <= max(abs_tol, rel_tol |I|); a panel is
    bisected when its error exceeds its share of that budget for any
    integrand that has not. Returns (value, error_estimate), arrays of n.
    Raises QuadratureConvergenceError, carrying the best values and
    estimates, if max_segments or max_rounds runs out.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or len(pts) < 2 or not np.all(np.diff(pts) > 0):
        raise ValueError("breakpoints must be a strictly increasing 1-d sequence")
    lo = pts[:-1].copy()
    hi = pts[1:].copy()
    vals, errs = _panel_estimates(f, lo, hi)

    for round_ in range(max_rounds + 1):
        totals = vals.sum(axis=1)
        total_errs = errs.sum(axis=1)
        budgets = np.maximum(abs_tol, rel_tol * np.abs(totals))
        converged = total_errs <= budgets
        if converged.all():
            return totals, total_errs
        if round_ == max_rounds:
            raise _failure("round budget exhausted", totals, total_errs, budgets, converged)
        # bisect every panel holding more than its share of some open budget
        share = 0.5 * budgets[~converged] / len(lo)
        ratio = (errs[~converged] / share[:, None]).max(axis=0)
        split = ratio > 1.0
        if not split.any():
            split = ratio >= ratio.max()
            if not split.any():
                continue  # non-finite error estimates: nothing to refine
        if len(lo) + split.sum() > max_segments:
            raise _failure("segment budget exhausted", totals, total_errs, budgets, converged)
        mid = 0.5 * (lo[split] + hi[split])
        new_vals, new_errs = _panel_estimates(f, np.concatenate([lo[split], mid]),
                                              np.concatenate([mid, hi[split]]))
        new_lo = np.concatenate([lo[~split], lo[split], mid])
        # keep panels ordered by position so the summation order is stable
        order = np.argsort(new_lo, kind="stable")
        lo = new_lo[order]
        hi = np.concatenate([hi[~split], mid, hi[split]])[order]
        vals = np.concatenate([vals[:, ~split], new_vals], axis=1)[:, order]
        errs = np.concatenate([errs[:, ~split], new_errs], axis=1)[:, order]
