"""Decay laws of moving unstable systems whose decay rate oscillates.

A rest-frame survival amplitude built from damped oscillating modes is
transformed to the laboratory frame of a system moving with constant
momentum. The package evaluates both frames in closed form, locates the
time windows where the transformation reduces to the scaled time t/gamma,
maps lab-frame time onto rest-frame time through the survival law, and
verifies the boosted closed form against the exact mass integral of the
underlying mass distribution, evaluated by steepest descent.

Importing the package loads none of its modules (PEP 562): each name of
__all__ is imported from its home module on first use and then bound
here, and so is each submodule read as an attribute.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# home module -> the public names it defines: the one list of them, what the
# commands, the demos and the benchmark reach and the errors public calls raise
_EXPORTS = {
    "kinematics": ("ModeValidationError", "lorentz_factor", "shifted_kinematics",
                   "validate_modes"),
    "restframe": ("CurveSeries", "decay_rate_rest", "mdd_analytic", "survival_rest",
                  "survival_rest_split"),
    "specfun": (),
    "boost": ("BoostDomainError", "BoostedLaw", "survival_boosted"),
    "window": ("WindowError", "WindowParams", "constraint_report", "exponential_windows",
               "periods"),
    "timemap": ("TimeMapError", "linearity_fit", "phi_p"),
    "oracle": ("OracleConvergenceError", "QuadratureSpec", "direct_survival", "oracle_compare"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}


def __getattr__(name):
    if name in _HOMES:
        value = getattr(_import_module("." + _HOMES[name], __name__), name)
    elif name in _SUBMODULES:
        value = _import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
