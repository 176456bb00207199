"""Decay laws of moving unstable systems whose decay rate oscillates.

A rest-frame survival amplitude built from damped oscillating modes is
transformed to the laboratory frame of a system moving with constant
momentum. The package evaluates both frames in closed form, locates the
time windows where the transformation reduces to the scaled time t/gamma,
maps lab-frame time onto rest-frame time through the survival law, and
verifies the boosted closed form against the exact mass integral of the
underlying mass distribution, evaluated by steepest descent.
"""

__version__ = "0.1.0"

from .kinematics import (  # noqa: F401
    BoostContext,
    ModeValidationError,
    RestModeSet,
    lorentz_factor,
    shifted_kinematics,
    validate_modes,
)
from .restframe import (  # noqa: F401
    CurveSeries,
    amplitude_rest,
    decay_rate_rest,
    mdd_analytic,
    survival_rest,
    survival_rest_split,
)
from .specfun import (  # noqa: F401
    SpecialFunctionDomainError,
    bessel_j1,
    bessel_y1,
    struve_h1,
)
from .boost import (  # noqa: F401
    BoostDomainError,
    BoostedEvaluation,
    BoostedLaw,
    boosted_split,
    survival_boosted,
    survival_boosted_window_approx,
)
from .window import (  # noqa: F401
    TimeWindow,
    WindowError,
    WindowParams,
    constraint_report,
    exponential_windows,
    periods,
    w_fn,
    xi_prime,
)
from .timemap import (  # noqa: F401
    LinearityFit,
    TimeMapError,
    invert_survival_rest,
    linearity_fit,
    phi_p,
)
from .oracle import (  # noqa: F401
    ComparisonReport,
    OracleConvergenceError,
    QuadratureSpec,
    direct_boosted_amplitude,
    direct_survival,
    oracle_compare,
)
