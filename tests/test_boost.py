"""Lab-frame closed forms: K and background kernels, reductions, domains."""

import cmath
import collections
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import oscdecay as od
from oscdecay import boost, kinematics, specfun
from oscdecay.boost import BoostDomainError, boosted_split, survival_boosted_window_approx
from oscdecay.kinematics import pole_energies
from oscdecay.window import w_fn

from conftest import (M15_SET, NEAR_REST_SETS, boosted_grids, k_fn, make_boosted,
                      make_single_mode, phi_fn, wide_boost_draw, xi_fn)


def test_reference_kernels_are_not_package_exports():
    # the scalar per-mode kernels live in the tests; boost keeps their names
    # bound to a retired stand-in for the tracer's lookup only. pole_sum is
    # the closed form's and the oracle's shared helper
    for name in ("upsilon", "xi_fn", "k_fn", "phi_fn"):
        with pytest.raises(NotImplementedError):
            getattr(boost, name)(80.0, 200.0, 5.0)
        assert not hasattr(od, name) and not hasattr(specfun, name)
    assert callable(kinematics.pole_sum) and not hasattr(od, "pole_sum")


def test_k_single_term_when_no_oscillation():
    got = k_fn(100.0, 1.0, 210.0, 0.0, 0.0, 3.0)
    y = complex(2j * pole_energies(np.array([100.0]), np.array([1.0]), 210.0)[0])
    expected = cmath.exp(-y * 3.0 / 2.0)
    assert got == expected


def test_k_at_rest_reduces_to_rest_law():
    # p=0: |k_fn|^2 is the single-mode rest law
    modes = make_single_mode(100.0, 10.0, 0.04)
    for t in np.linspace(0.1, 12.0, 25):
        kv = k_fn(100.0, 1.0, 0.0, 10.0, 0.04, float(t))
        assert abs(kv) ** 2 == pytest.approx(
            od.survival_rest(modes, float(t)), rel=1e-12
        )


def _three_exp(M, Gamma, Omega, a, t, ctx):
    # each term decays at Gamma / gamma_m and turns at m gamma_m, with
    # gamma_m the Lorentz factor of its own mass m
    def term(m):
        g = od.lorentz_factor(m, ctx.p)
        return cmath.exp(-(t / 2) * (Gamma / g + 2j * m * g))

    return (a / 2) * term(M - Omega) + (1 - a) * term(M) + (a / 2) * term(M + Omega)


def test_three_exponential_reduction_moderate_mass():
    # narrow but only moderately heavy: abs error stays ~1e-3 while the
    # relative error grows to ~5.5e-3 as |K| decays (phase drift)
    modes, ctx = make_boosted("p200_m80")
    worst_abs = worst_rel = 0.0
    for t in np.linspace(2.0, 11.0, 181):
        kv = k_fn(80.0, 1.0, 200.0, 10.0, 0.04, float(t))
        approx = _three_exp(80.0, 1.0, 10.0, 0.04, float(t), ctx)
        worst_abs = max(worst_abs, abs(kv - approx))
        worst_rel = max(worst_rel, abs(kv - approx) / abs(kv))
    assert worst_abs <= 1.2e-3
    assert worst_rel <= 7e-3


def test_three_exponential_reduction_heavy_mass():
    # comfortably narrow (Gamma/M- = 1.35e-3): relative agreement to 1e-3
    modes = make_single_mode(750.0, 10.0, 0.04)
    ctx = od.shifted_kinematics(modes, 2000.0)
    worst = 0.0
    for t in np.linspace(2.0, 11.0, 181):
        kv = k_fn(750.0, 1.0, 2000.0, 10.0, 0.04, float(t))
        approx = _three_exp(750.0, 1.0, 10.0, 0.04, float(t), ctx)
        worst = max(worst, abs(kv - approx) / abs(kv))
    assert worst <= 1e-3


def _cosine_form(M, Gamma, p, Omega, a, t):
    g = od.lorentz_factor(M, p)
    return cmath.exp(-(t / 2) * (Gamma / g + 2j * M * g)) * (
        1 - a + a * math.cos(Omega * t / g)
    )


def test_cosine_reduction_slow_oscillation():
    # Omega = M/1000: single-frequency form holds to 1e-3 relative
    worst = 0.0
    for t in np.linspace(2.0, 11.0, 181):
        kv = k_fn(1000.0, 1.0, 2000.0, 1.0, 0.04, float(t))
        approx = _cosine_form(1000.0, 1.0, 2000.0, 1.0, 0.04, float(t))
        worst = max(worst, abs(kv - approx) / abs(kv))
    assert worst <= 1e-3


def test_cosine_reduction_moderate_oscillation():
    # Omega = M/100: measured 8.7e-3, the frequency-shift correction
    # p^2 Omega/(2 gamma^2 M^3) is no longer negligible
    worst = 0.0
    for t in np.linspace(2.0, 11.0, 181):
        kv = k_fn(1000.0, 1.0, 2000.0, 10.0, 0.04, float(t))
        approx = _cosine_form(1000.0, 1.0, 2000.0, 10.0, 0.04, float(t))
        worst = max(worst, abs(kv - approx) / abs(kv))
    assert worst <= 1e-2


def test_phi_single_kernel_when_no_oscillation():
    got = phi_fn(100.0, 210.0, 0.0, 0.0, 3.0)
    assert got == xi_fn(100.0, 210.0, 3.0)


def test_phi_frozen_spot(frozen_spots):
    ref = complex(*frozen_spots["phi_M80_p200_Om10_a004_t5"])
    got = phi_fn(80.0, 200.0, 10.0, 0.04, 5.0)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_phi_asymptotic_inverse_power_law():
    # |i (p Gamma / pi M^2) phi| ~ (p Gamma/M^2) W / sqrt(2 pi p t), 1%
    # for pt >= 200
    M, p, Omega, a, Gamma = 100.0, 210.0, 10.0, 0.04, 1.0
    W = w_fn(M, Omega, a)
    for t in np.geomspace(200.0 / p, 500.0, 40):
        phi = phi_fn(M, p, Omega, a, float(t))
        modulus = abs(1j * (p * Gamma / (math.pi * M * M)) * phi)
        law = (p * Gamma / (M * M)) * W / math.sqrt(2 * math.pi * p * t)
        assert abs(modulus - law) <= 0.01 * law


def test_boosted_p0_branch_equals_rest_law():
    modes = make_single_mode(100.0, 10.0, 0.04)
    ctx = od.shifted_kinematics(modes, 0.0)
    t = np.linspace(0.0, 12.0, 50)
    rest = od.survival_rest(modes, t)
    for i, tt in enumerate(t):
        ev = od.survival_boosted(modes, ctx, float(tt))
        assert abs(ev.P_p - rest[i]) <= 1e-12
        assert ev.Phi_term == 0j
        assert ev.in_validity_domain


def test_boosted_small_momentum_continuity():
    # the closed form's p->0 limit carries a finite background residual
    # ~ Gamma W/(pi M^2 t); at M=80 it saturates near 1e-5
    modes, _ = make_boosted("p200_m80")
    t = np.linspace(2.0, 11.0, 19)
    for eps_frac in (1e-3, 1e-4):
        ctx = od.shifted_kinematics(modes, eps_frac * 80.0)
        dev = max(
            abs(od.survival_boosted(modes, ctx, float(tt)).P_p
                - od.survival_rest(modes, float(tt)))
            for tt in t
        )
        assert dev <= 2e-5


def test_boosted_small_momentum_residual_shrinks_with_mass():
    # same check at 10x the mass: residual scales like 1/M^2
    modes = make_single_mode(800.0, 10.0, 0.04)
    ctx = od.shifted_kinematics(modes, 0.08)
    t = np.linspace(2.0, 11.0, 19)
    dev = max(
        abs(od.survival_boosted(modes, ctx, float(tt)).P_p
            - od.survival_rest(modes, float(tt)))
        for tt in t
    )
    assert dev <= 5e-7


# set -> t -> the jump of P_p across the p -> 0 seam, relative to P0
SEAM_JUMP = {
    "curve_b": {0.5: 1.96e-4, 1.0: -1.76e-4, 2.0: 3.04e-5, 5.0: -2.07e-4, 10.0: 1.33e-3},
    "three_modes": {0.5: 3.36e-4, 1.0: -3.27e-4, 2.0: 7.05e-5, 5.0: -6.79e-4, 10.0: 5.50e-3},
}


@pytest.mark.parametrize("name", list(SEAM_JUMP))
def test_boosted_law_jumps_at_the_rest_seam(name):
    # pinned, not endorsed: below P_ZERO_REL * M the law is the paper's P0;
    # just above it the background tends to -i C_B/(pi M^2 t), not to 0, as
    # p -> 0 (Y1(pt) ~ -2/(pi p t)), so P_p jumps by these amounts
    modes = od.validate_modes(NEAR_REST_SETS[name])
    t = np.array(list(SEAM_JUMP[name]))
    seam = boost.P_ZERO_REL * 80.0
    below = od.BoostedLaw(modes, od.shifted_kinematics(modes, np.nextafter(seam, 0.0)))(t)
    above = od.BoostedLaw(modes, od.shifted_kinematics(modes, np.nextafter(seam, 1.0)))(t)
    rest = od.survival_rest(modes, t)
    assert np.array_equal(below.P_p, rest)
    assert above.in_validity_domain.all()
    jump = (above.P_p - below.P_p) / rest
    assert ["%.2e" % x for x in jump] == ["%.2e" % x for x in SEAM_JUMP[name].values()]


def test_a_valid_set_at_large_p_over_m_squared_is_refused():
    # pinned, not endorsed: at p/M^2 = 0.36 the closed form's in-domain P
    # passes 1 near the domain's start (1.016 at t = 0.21; the exact law
    # stays below 0.993), and the law refuses the grid
    modes = od.validate_modes(M15_SET)
    law = od.BoostedLaw(modes, od.shifted_kinematics(modes, 80.0))
    with pytest.raises(BoostDomainError, match=r"^in-domain probability 1\.0020\d+ "
                                               r"exceeds 1 beyond the 1e-06 tolerance$"):
        law(np.linspace(0.05, 5.0, 50))


def test_law_keeps_its_contract_up_to_p_over_m_squared_one():
    # ROADMAP item 12's pinning step: seeded draws up to p/M^2 ~ 3, on grids
    # from the domain's start. A draw gives finite in-domain P_p <= 1 + 1e-6,
    # or the law refuses the overshoot; nothing else is raised and nothing
    # warns. The refusals are item 12's open defect: counted, not failed
    rng = np.random.default_rng(12)
    refused = []
    reach = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(400):
            modes, ctx, t = wide_boost_draw(rng)
            reach = max(reach, ctx.p / modes.M ** 2)
            try:
                ev = od.BoostedLaw(modes, ctx)(t)
            except BoostDomainError as exc:
                assert str(exc).startswith("in-domain probability "), exc
                refused.append(float(str(exc).split()[2]))
                continue
            P = ev.P_p[ev.in_validity_domain]
            assert np.all(np.isfinite(P)) and np.all(P <= 1.0 + 1e-6), (modes, ctx.p)
    assert caught == []
    assert reach > 1.0 and len(refused) < 400, (reach, len(refused), max(refused, default=1.0))


@pytest.mark.parametrize("p, t", [(1e-9, 5e-324), (1e75, 1e240)], ids=["underflow", "overflow"])
@pytest.mark.parametrize("grid", [False, True], ids=["point", "grid"])
def test_law_refuses_a_p_t_that_is_not_a_finite_positive_float(p, t, grid):
    # t passes the time check, but p t rounds to 0.0 or overflows to inf,
    # which the law refuses itself: the branch cut below it checks nothing
    modes = od.validate_modes(NEAR_REST_SETS["curve_b"])
    law = od.BoostedLaw(modes, od.shifted_kinematics(modes, p))
    with np.errstate(all="ignore"), pytest.raises(
            BoostDomainError, match=re.escape("p t must be finite and > 0, got %r" % (p * t))):
        law(np.array([2.0, t]) if grid else t)


def test_public_entries_return_or_raise_their_own_errors_over_the_float_range():
    # seeded draws with p/M log-uniform in [1e-15, 1e300] and times in
    # [1e-320, 1e300], where p t, p^2 and the exponents overflow or
    # underflow: the law and survival_boosted return or raise
    # BoostDomainError, phi_p raises that or TimeMapError, and nothing else
    # escapes from the kernels below them
    sets = [od.validate_modes(s) for s in (*NEAR_REST_SETS.values(), M15_SET)]
    rng = np.random.default_rng(35)
    seen = collections.Counter()

    def outcome(call, errors):
        try:
            out = call()
        except errors as exc:
            seen["p t" if str(exc).startswith("p t ") else type(exc).__name__] += 1
            return None
        seen["returned"] += 1
        return out

    with np.errstate(all="ignore"):
        for _ in range(1000):
            modes = sets[rng.integers(len(sets))]
            ctx = od.shifted_kinematics(modes, modes.M * 10.0 ** rng.uniform(-15.0, 300.0))
            grid = 10.0 ** rng.uniform(-320.0, 300.0, int(rng.integers(2, 6)))
            law = od.BoostedLaw(modes, ctx)
            point = float(grid[0])
            for ev in (outcome(lambda: law(grid), BoostDomainError),
                       outcome(lambda: law(point), BoostDomainError),
                       outcome(lambda: od.survival_boosted(modes, ctx, point), BoostDomainError)):
                if ev is not None:
                    P_p = np.atleast_1d(ev.P_p)[np.atleast_1d(ev.in_validity_domain)]
                    assert np.all(P_p <= 1.0 + boost.UNITY_EXCESS_TOL)
            for t in (grid, point):
                phi = outcome(lambda: od.phi_p(modes, ctx, t), (BoostDomainError, od.TimeMapError))
                if phi is not None:
                    assert np.all(np.isfinite(phi) & (np.asarray(phi) >= 0.0))
    # the sweep reaches every outcome, the p t refusal among them
    assert set(seen) == {"returned", "p t", "BoostDomainError", "TimeMapError"}, seen


def test_boosted_spot_against_frozen_background(frozen_spots):
    # reconstruct the closed form independently from the frozen background
    # kernel plus elementary exponentials
    modes, ctx = make_boosted("p200_m80")
    ev = od.survival_boosted(modes, ctx, 5.0)
    K = k_fn(80.0, 1.0, 200.0, 10.0, 0.04, 5.0)
    phi = complex(*frozen_spots["phi_M80_p200_Om10_a004_t5"])
    amp = K + 1j * (200.0 * 1.0 / (math.pi * 80.0 ** 2)) * phi
    assert ev.P_p == pytest.approx(abs(amp) ** 2, rel=1e-12)
    assert ev.K_sum == pytest.approx(K, rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(boosted_grids())
def test_law_matches_per_mode_reference(case):
    # the compiled grid law against sum_j w_j (k_fn + i p Gamma_j/(pi M^2) phi_fn)
    modes, ctx, t = case
    M, p = modes.M, ctx.p
    ev = od.BoostedLaw(modes, ctx)(t)
    assert ev.P_p.min() < 1e-2 < ev.P_p.max()
    for i, ti in enumerate(t):
        ref = sum(
            w * (k_fn(M, g, p, om, a, ti)
                 + 1j * (p * g / (math.pi * M * M)) * phi_fn(M, p, om, a, ti))
            for w, g, om, a in zip(modes.w, modes.Gamma, modes.Omega, modes.a)
        )
        p_ref = abs(ref) ** 2
        assert abs(ev.K_sum[i] + ev.Phi_term[i] - ref) <= 1e-12 * abs(ref)
        assert abs(ev.P_p[i] - p_ref) <= 1e-12 * p_ref
        valid = all(ti > 0.1 / g or (M - max(modes.Omega)) * ti >= 10.0 for g in modes.Gamma)
        assert ev.in_validity_domain[i] == valid
        assert ev.exceeds_unity[i] == (p_ref > 1.0)


def test_law_scalar_call_is_one_point_of_grid(mode_p200_m80):
    # same arithmetic; vectorised exp/sin/cos may differ from the one-point
    # call in the last bit
    modes, ctx = mode_p200_m80
    t = np.linspace(0.05, 15.0, 31)
    grid = od.BoostedLaw(modes, ctx)(t)
    for i, ti in enumerate(t):
        ev = od.survival_boosted(modes, ctx, ti)
        assert type(ev.P_p) is float and type(ev.K_sum) is complex
        assert type(ev.in_validity_domain) is bool
        assert ev.P_p == pytest.approx(grid.P_p[i], rel=1e-14)
        assert ev.K_sum == pytest.approx(grid.K_sum[i], rel=1e-14)
        assert ev.in_validity_domain == grid.in_validity_domain[i]


def test_law_rejects_bad_times_anywhere_on_grid(mode_p200_m80):
    modes, ctx = mode_p200_m80
    law = od.BoostedLaw(modes, ctx)
    for bad in (np.array([1.0, 0.0, 2.0]), np.array([1.0, -1.0]), np.array([1.0, np.nan])):
        with pytest.raises(BoostDomainError):
            law(bad)


def test_validity_domain_flags():
    modes, ctx = make_boosted("p200_m80")
    # t=0.05: (M-Omega) t = 3.5 < 10 and t < 1/(10 Gamma)
    assert not od.survival_boosted(modes, ctx, 0.05).in_validity_domain
    # t=0.2 > 1/(10 Gamma) = 0.1
    assert od.survival_boosted(modes, ctx, 0.2).in_validity_domain
    # t=0.143: (M-Omega) t >= 10 via the mass-gap clause
    assert od.survival_boosted(modes, ctx, 10.0 / 70.0).in_validity_domain


def test_boosted_zero_time_with_momentum_rejected():
    modes, ctx = make_boosted("p200_m80")
    with pytest.raises(BoostDomainError):
        od.survival_boosted(modes, ctx, 0.0)


def test_boosted_probability_bounded_in_domain():
    modes, ctx = make_boosted("p200_m80")
    for t in np.linspace(0.2, 15.0, 120):
        ev = od.survival_boosted(modes, ctx, float(t))
        assert 0.0 <= ev.P_p <= 1.0 + 1e-6
        assert not ev.exceeds_unity


def test_envelope_bounded_on_window():
    modes, ctx = make_boosted("p200_m80")
    gm = od.lorentz_factor(modes.M - modes.Omega[0], ctx.p)
    env = [
        math.exp(t / gm) * od.survival_boosted(modes, ctx, float(t)).P_p
        for t in np.linspace(2.0, 15.0, 200)
    ]
    assert max(env) <= 1.0


def test_window_approx_all_active_equals_scaled_rest():
    modes, ctx = make_boosted("p200_m80")
    t = np.linspace(0.5, 20.0, 80)
    approx = survival_boosted_window_approx(modes, ctx, t, [0])
    rest = od.survival_rest(modes, t / ctx.gamma)
    assert np.array_equal(np.asarray(approx), np.asarray(rest))


def test_window_approx_deviation_from_closed_form():
    # the approximation oscillates at Omega/gamma while the closed form
    # beats at M gamma - M- gamma-: the ~5% frequency shift at these
    # parameters lets the phases drift, bounding agreement at ~0.2
    modes, ctx = make_boosted("p200_m80")
    win = od.exponential_windows(modes, ctx)
    lo, hi = win.union_lab[0]
    worst = 0.0
    for t in np.linspace(max(lo, 0.2), hi, 400):
        pb = od.survival_boosted(modes, ctx, float(t)).P_p
        wa = survival_boosted_window_approx(modes, ctx, float(t), win.admitted)
        worst = max(worst, abs(pb - wa) / wa)
    assert worst <= 0.25


def test_window_approx_tight_in_scaling_regime(heavy_scaling_set):
    # both scaling gates hold (xi' = 2.8e-6, Omega = M/100): deviation
    # collapses to below 5e-2
    modes, ctx = heavy_scaling_set
    win = od.exponential_windows(modes, ctx)
    lo, hi = win.union_lab[0]
    worst = 0.0
    for t in np.linspace(max(lo, 1e-2), hi, 300):
        pb = od.survival_boosted(modes, ctx, float(t)).P_p
        wa = survival_boosted_window_approx(modes, ctx, float(t), win.admitted)
        worst = max(worst, abs(pb - wa) / wa)
    assert worst <= 5e-2


def test_window_approx_empty_active_set_rejected():
    modes, ctx = make_boosted("p200_m80")
    with pytest.raises(BoostDomainError):
        survival_boosted_window_approx(modes, ctx, 5.0, [])


@pytest.mark.parametrize("active", [[0.9], [True], [0, 0.0]], ids=["fraction", "bool", "float"])
def test_window_approx_refuses_an_index_that_is_not_an_integer(active):
    # int() would read 0.9 as mode 0 and True as mode 1
    modes, ctx = make_boosted("p200_m80")
    with pytest.raises(BoostDomainError, match="mode index must be an integer"):
        survival_boosted_window_approx(modes, ctx, 5.0, active)
    with pytest.raises(BoostDomainError, match="mode index must be an integer"):
        boosted_split(modes, ctx, 5.0, active)


def test_window_approx_reads_numpy_integers_and_refuses_out_of_range():
    modes, ctx = make_boosted("p200_m80")
    t = np.linspace(0.5, 20.0, 9)
    got = survival_boosted_window_approx(modes, ctx, t, np.array([0, 0]))
    assert np.array_equal(got, survival_boosted_window_approx(modes, ctx, t, [0]))
    with pytest.raises(BoostDomainError, match="mode index 1 out of range 0..0"):
        survival_boosted_window_approx(modes, ctx, t, [0, 1])


def test_boosted_split_adds_up():
    modes, ctx = make_boosted("p200_m80")
    t = np.linspace(0.5, 20.0, 100)
    e, o = boosted_split(modes, ctx, t, [0])
    total = survival_boosted_window_approx(modes, ctx, t, [0])
    assert np.max(np.abs(e + o - total)) <= 1e-12


def test_boosted_split_matches_rest_split_at_scaled_time():
    modes, ctx = make_boosted("p200_m80")
    t = np.linspace(0.5, 20.0, 60)
    e, o = boosted_split(modes, ctx, t, [0])
    re_, ro_ = od.survival_rest_split(modes, t / ctx.gamma)
    assert np.max(np.abs(e - re_)) == 0.0
    assert np.max(np.abs(o - ro_)) == 0.0


def test_boosted_split_no_oscillation_zero_part():
    modes = make_single_mode(100.0, 0.0, 0.0)
    ctx = od.shifted_kinematics(modes, 210.0)
    t = np.linspace(0.5, 10.0, 30)
    _, o = boosted_split(modes, ctx, t, [0])
    assert np.max(np.abs(o)) == 0.0
