"""Scalar-or-array point handling shared by the evaluation layers.

Every evaluator takes one point (and returns a Python scalar) or an array
of points (and returns an array of the same length): a public entry checks
its input with as_points, and each hands its result back through maybe_scalar.
"""

import numpy as np


def as_points(x, ok, requirement, error=ValueError):
    """x as a 1-d float array; raises error naming the first point where ok fails."""
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    bad = ~ok(xx)
    if np.count_nonzero(bad):
        raise error("%s, got %r" % (requirement, float(xx[bad][0])))
    return xx


def maybe_scalar(result, x):
    """result's one element as a Python scalar when x is a scalar, else result."""
    return result[0].item() if np.ndim(x) == 0 else result
