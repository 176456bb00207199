"""The defect ledger: one test per open defect, each checking the intended
behaviour and failing on today's code.

Each test is a strict xfail that names its ROADMAP item, so a plain
`pytest` (pyproject.toml's addopts hold -rxX) lists every open defect. A
fix makes its test pass unexpectedly, which fails the run until the fix
removes the marker.
"""

import json
import math

import mpmath
import numpy as np
import pytest

import oscdecay as od
from oscdecay.boost import survival_boosted_window_approx
from oscdecay.oracle import QuadratureSpec
from oscdecay.specfun import BESSEL_SEAM, STRUVE_SEAM, branch_cut

from conftest import DIGEST_EDGES, NEAR_REST_SETS, run_cli

TIGHT = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)

CURVE_B = {"modes": NEAR_REST_SETS["curve_b"], "p": 200.0,
           "grid": {"t_min": 2.0, "t_max": 6.0, "points": 21}}


def _ledger(item, what):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="ROADMAP item %s: %s" % (item, what))


@_ledger(1, "the closed form's branch-cut term has the wrong sign")
def test_closed_form_meets_the_exact_law_on_2_to_11():
    worst = {}
    for name, momenta in (("curve_b", (5.0, 40.0, 200.0, 400.0)),
                          ("three_modes", (5.0, 40.0, 200.0))):
        modes = od.validate_modes(NEAR_REST_SETS[name])
        for p in momenta:
            t = np.linspace(2.0, 11.0, 181)
            closed = od.BoostedLaw(modes, od.shifted_kinematics(modes, p))(t).P_p
            exact = od.direct_survival(modes, p, t, TIGHT)
            worst[name, p] = float(np.max(np.abs(closed / exact - 1.0)))
    assert max(worst.values()) <= 1e-3, worst


@_ledger(18, "A + B is i (pi/2) H1^(1)(z), not i (pi/2) H1^(2)(z)")
def test_branch_cut_is_a_hankel_function_of_the_second_kind():
    for z in (0.5, BESSEL_SEAM - 0.1, BESSEL_SEAM + 0.1, STRUVE_SEAM - 0.1, STRUVE_SEAM + 0.1,
              30.0):
        A, B = branch_cut(z)
        want = complex(1j * (mpmath.pi / 2) * mpmath.hankel2(1, z))
        assert abs((A + B) - want) <= 1e-13 * abs(want), z


@_ledger(16, "boosted commands print numpy RuntimeWarnings at overflowing edges")
def test_no_boosted_command_warns_at_the_overflow_edges(tmp_path):
    warned = {}
    # edge 9 is refused before any work, without a warning
    for edge in (7, 8, 10):
        for command in ("curve --which boosted", "phi", "compare"):
            caught = run_cli(tmp_path, DIGEST_EDGES[edge], command)[2]
            if caught:
                warned[edge, command] = caught
    assert warned == {}


@_ledger(5, "an empty window writes NaN constraint values (CHANGES.md FOUND line 17)")
def test_an_empty_window_report_is_strict_json(tmp_path):
    # digest edge 1: a gate that admits no mode
    constants = {}
    for command in ("validate", "window"):
        text = run_cli(tmp_path, dict(CURVE_B, window={"xi_gate": 1e-12}), command)[3][0]
        json.loads(text, parse_constant=lambda name: constants.setdefault(command, name))
    assert constants == {}


@_ledger(16, "compare warns before the oracle refuses the momentum (CHANGES.md FOUND line 85)")
def test_compare_refuses_an_overflowing_momentum_before_any_warning(tmp_path):
    config = dict(CURVE_B, p=1.4e154, grid={"t_min": 1.0, "t_max": 5.0, "points": 11})
    code, _, caught, _ = run_cli(tmp_path, config, "compare")
    assert (code, caught) == (2, [])


@_ledger(22, "inside the paper's window the t/gamma law is up to 20% off the exact law")
def test_the_t_over_gamma_law_holds_inside_the_window():
    modes = od.validate_modes(NEAR_REST_SETS["curve_b"])
    ctx = od.shifted_kinematics(modes, 200.0)
    window = od.exponential_windows(modes, ctx)
    lo, hi = window.union_lab[0]
    t = np.linspace(max(lo, 0.1), hi, 1000)
    approx = survival_boosted_window_approx(modes, ctx, t, window.admitted)
    exact = od.direct_survival(modes, ctx.p, t, TIGHT)
    worst = float(np.max(np.abs(approx / exact - 1.0)))
    assert math.isfinite(worst) and worst <= 1e-2, worst
