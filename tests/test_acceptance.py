"""Acceptance suite: one check per shipped guarantee, one printed line each.

Every check runs against the public API or the CLI, at the tolerances the
package documents. Runtime limits are asserted alongside the numerical
bounds so a regression in either shows up here.
"""

import csv
import json
import math
import time

import numpy as np
from scipy.signal import find_peaks

import oscdecay as od
from oscdecay.boost import phi_fn
from oscdecay.cli import main
from oscdecay.oracle import QuadratureSpec, direct_survival
from oscdecay.specfun import bessel_j1, bessel_y1, struve_h1, upsilon
from oscdecay.window import WindowParams, w_fn

import conftest
from conftest import BOOST_SETS, make_single_mode


def _report(num, name, ok, detail):
    line = "ACCEPTANCE %02d %-34s %s  (%s)" % (
        num, name, "PASS" if ok else "FAIL", detail)
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _curve_b():
    modes = make_single_mode(80.0, 10.0, 0.04)
    return modes, od.shifted_kinematics(modes, 200.0)


def test_01_lorentz_factor_fixtures():
    start = time.perf_counter()
    table = {
        (150.0, 30.0): 5.0990,
        (200.0, 80.0): 2.6926,
        (210.0, 100.0): 2.3259,
        (200.0, 150.0): 1.6667,
        (100.0, 100.0): 1.4142,
    }
    bad = [
        (p, M, od.lorentz_factor(M, p))
        for (p, M), want in table.items()
        if round(od.lorentz_factor(M, p), 4) != want
    ]
    elapsed = time.perf_counter() - start
    _report(1, "lorentz-factor-fixtures",
            not bad and elapsed < 1.0,
            "5 pairs to 4 decimals, %.2fs" % elapsed)


def test_02_closed_form_vs_quadrature():
    start = time.perf_counter()
    modes, ctx = _curve_b()
    t = np.linspace(2.0, 11.0, 181)
    closed = np.array([od.survival_boosted(modes, ctx, float(ti)).P_p for ti in t])
    direct = np.array([direct_survival(modes, 200.0, float(ti), QuadratureSpec())
                       for ti in t])
    rel = float(np.max(np.abs(closed - direct) / direct))
    elapsed = time.perf_counter() - start
    _report(2, "closed-form-vs-quadrature",
            rel <= 1e-2 and elapsed < 120.0,
            "max rel %.2e <= 1e-2 on 181 pts, %.1fs" % (rel, elapsed))


def test_03_scaling_law_window(heavy_scaling_set):
    start = time.perf_counter()
    modes, ctx = heavy_scaling_set
    win = od.exponential_windows(modes, ctx)
    lo, hi = win.union_lab[0]
    grid = np.geomspace(max(lo, 1e-2), hi, 400)
    sup = 0.0
    for tt in grid:
        ref = od.survival_rest(modes, float(tt) / ctx.gamma)
        val = od.survival_boosted(modes, ctx, float(tt)).P_p
        sup = max(sup, abs(val - ref) / ref)
    elapsed = time.perf_counter() - start
    _report(3, "scaling-law-window",
            sup <= 5e-2 and elapsed < 60.0,
            "sup rel %.2e <= 5e-2 over merged window, %.1fs" % (sup, elapsed))


def test_04_period_dilation_from_cli(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "curve_b.json"
    cfg.write_text(json.dumps({
        "modes": {"M": 80.0, "w": [1.0], "Gamma": [1.0],
                  "Omega": [10.0], "a": [0.04]},
        "p": 200.0,
        "grid": {"t_min": 2.0, "t_max": 11.0, "points": 181},
    }))
    out = tmp_path / "curve_b.csv"
    assert main(["curve", "--which", "boosted", "--config", str(cfg),
                 "--out", str(out), "--quiet"]) == 0
    with open(out) as fh:
        fh.readline()
        rows = list(csv.reader(fh))
    t = np.array([float(r[0]) for r in rows])
    P = np.array([float(r[2]) for r in rows])

    modes, ctx = _curve_b()
    y = np.exp(t / od.lorentz_factor(modes.M - modes.Omega[0], ctx.p)) * P
    idx, _ = find_peaks(y, prominence=0.05 * (y.max() - y.min()))
    peaks = []
    for i in idx:
        if 0 < i < len(t) - 1:
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            delta = 0.5 * (y[i - 1] - y[i + 1]) / denom if denom else 0.0
            peaks.append(t[i] + delta * (t[1] - t[0]))
    spacing = float(np.mean(np.diff(peaks)))
    want = ctx.gamma * 2.0 * math.pi / 10.0
    err = abs(spacing - want) / want
    elapsed = time.perf_counter() - start
    _report(4, "period-dilation-from-cli",
            len(peaks) >= 3 and err <= 0.02 and elapsed < 60.0,
            "spacing %.4f vs %.4f, err %.2f%%, %.1fs"
            % (spacing, want, 100.0 * err, elapsed))


def test_05_time_map_linearity():
    start = time.perf_counter()
    sets = [BOOST_SETS[k] for k in
            ("p100_m100", "p200_m150", "p210_m100", "p200_m80")]
    worst_slope = 0.0
    worst_resid = 0.0
    for cfg in sets:
        modes = make_single_mode(cfg["M"], cfg["Omega"], cfg["a"])
        ctx = od.shifted_kinematics(modes, cfg["p"])
        win = od.exponential_windows(modes, ctx)
        lo, hi = win.union_lab[0]
        t = np.linspace(max(lo, min(10.0 / (cfg["M"] - cfg["Omega"]), 0.1)),
                        hi, 300)
        phi = np.array([od.phi_p(modes, ctx, float(tt)) for tt in t])
        series = od.CurveSeries(t=t, values=phi, kind="timemap")
        fit = od.linearity_fit(series, win, ctx)
        worst_slope = max(worst_slope, fit.rel_slope_error)
        worst_resid = max(worst_resid, fit.max_residual / (hi - lo))
    elapsed = time.perf_counter() - start
    _report(5, "time-map-linearity",
            worst_slope <= 0.02 and worst_resid <= 0.02 and elapsed < 120.0,
            "worst slope err %.2e, worst resid/len %.2e, 4 sets, %.1fs"
            % (worst_slope, worst_resid, elapsed))


def test_06_root_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(10_000):
        M = float(np.exp(rng.uniform(math.log(1.0), math.log(1e4))))
        Gamma = float(np.exp(rng.uniform(math.log(1e-3), math.log(10.0))))
        if Gamma >= M / 5.0:
            continue
        p = float(rng.uniform(0.0, 1e4))
        # lam_minus and lam_plus are the real and imaginary parts of upsilon
        y = upsilon(M, Gamma, p)
        lm, lp = y.real, y.imag
        worst = max(worst, abs(lp * lm - 2.0 * M * Gamma) / (2.0 * M * Gamma))
        rhs = 4.0 * (M * M - Gamma * Gamma / 4.0 + p * p)
        worst = max(worst, abs(lp * lp - lm * lm - rhs) / abs(rhs))
        resid = (y / 2.0) ** 2 + p * p + complex(M, -Gamma / 2.0) ** 2
        scale = abs(y / 2.0) ** 2 + p * p + abs(complex(M, -Gamma / 2.0)) ** 2
        worst = max(worst, abs(resid) / scale)
    elapsed = time.perf_counter() - start
    _report(6, "root-identities",
            worst <= 1e-10 and elapsed < 10.0,
            "worst rel %.2e over 1e4 triples, %.1fs" % (worst, elapsed))


def test_07_inequality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260818)
    ok = True
    for _ in range(2000):
        M = float(np.exp(rng.uniform(math.log(1.0), math.log(1e4))))
        Omega = float(rng.uniform(1e-3, 0.4999)) * M
        a = float(rng.uniform(1e-3, 0.4999))
        p = float(M * np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
        W = w_fn(M, Omega, a)
        ok &= 1.0 < W < 29.0 / 18.0
        g = od.lorentz_factor(M, p)
        gm = od.lorentz_factor(M - Omega, p)
        gp = od.lorentz_factor(M + Omega, p)
        ok &= 0.5 < g / gm < 1.0 < g / gp < 1.5
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _report(7, "inequality-suite",
            bool(ok) and elapsed < 10.0,
            "W and dilation-ratio bounds over 2000 draws, %.1fs" % elapsed)


def test_08_rest_frame_suite():
    start = time.perf_counter()
    two_mode = od.validate_modes(
        {"M": 100.0, "w": [0.7, 0.3], "Gamma": [1.0, 2.5],
         "Omega": [10.0, 0.0], "a": [0.04, 0.0]}
    )
    sets = [make_single_mode(c["M"], c["Omega"], c["a"])
            for c in BOOST_SETS.values()] + [two_mode]
    ok = True
    detail = []
    for modes in sets:
        ok &= od.survival_rest(modes, 0.0) == 1.0
        grid = np.geomspace(1e-3, 30.0, 400)
        vals = np.atleast_1d(od.survival_rest(modes, grid))
        ok &= bool(np.all(np.diff(vals) < 0.0))
        want = -float(np.sum(modes.w * modes.Gamma))
        got = float(od.decay_rate_rest(modes, 0.0))
        ok &= abs(got - want) <= 1e-12 * abs(want)
        exp_part, osc_part = od.survival_rest_split(modes, grid)
        total = np.atleast_1d(exp_part) + np.atleast_1d(osc_part)
        ok &= bool(np.max(np.abs(total - vals)) <= 1e-12 * np.max(vals))
        h = 1e-6
        for t in (0.5, 2.0, 8.0):
            fd = (od.survival_rest(modes, t + h)
                  - od.survival_rest(modes, t - h)) / (2.0 * h)
            ok &= abs(fd - float(od.decay_rate_rest(modes, t))) <= 1e-8
    elapsed = time.perf_counter() - start
    _report(8, "rest-frame-suite",
            bool(ok) and elapsed < 30.0,
            "normalization, monotonicity, derivative, split on %d sets, %.1fs"
            % (len(sets), elapsed))


def test_09_special_function_table(specfun_table):
    start = time.perf_counter()
    worst = {"j1": 0.0, "y1": 0.0, "h1": 0.0}
    fns = {"j1": bessel_j1, "y1": bessel_y1, "h1": struve_h1}
    xs = specfun_table["x"]
    for key, fn in fns.items():
        refs = specfun_table[key]
        for x, ref in zip(xs, refs):
            worst[key] = max(worst[key], abs(fn(x) - ref) / abs(ref))
    gap = struve_h1(500.0) - bessel_y1(500.0)
    two_over_pi = 2.0 / math.pi
    gap_ok = abs(gap - two_over_pi) <= 0.01 * two_over_pi
    elapsed = time.perf_counter() - start
    ok = all(v <= 1e-10 for v in worst.values()) and gap_ok and elapsed < 30.0
    _report(9, "special-function-table", ok,
            "worst rel j1 %.1e y1 %.1e h1 %.1e on 1000 pts; H1-Y1 gap ok=%s, %.1fs"
            % (worst["j1"], worst["y1"], worst["h1"], gap_ok, elapsed))


def test_10_background_asymptotic_law():
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    worst = 0.0
    n = 0
    while n < 200:
        M = float(np.exp(rng.uniform(math.log(25.0), math.log(1000.0))))
        Omega = float(rng.uniform(1e-3, 0.49)) * M
        a = float(rng.uniform(0.0, 0.45))
        Gamma = 1.0
        if a > 0.0 and Gamma <= 2.0 * a * Omega / math.sqrt(1.0 - 2.0 * a):
            continue
        if Gamma / (M - Omega) > 5e-2:
            continue
        p = float(M * np.exp(rng.uniform(math.log(0.5), math.log(20.0))))
        pt = float(rng.uniform(200.0, 2000.0))
        t = pt / p
        mod = abs(1j * (p * Gamma / (math.pi * M * M)) * phi_fn(M, p, Omega, a, t))
        want = (p * Gamma / (M * M)) * w_fn(M, Omega, a) / math.sqrt(2.0 * math.pi * pt)
        worst = max(worst, abs(mod - want) / want)
        n += 1
    elapsed = time.perf_counter() - start
    _report(10, "background-asymptotic-law",
            worst <= 1e-2 and elapsed < 30.0,
            "worst rel %.2e <= 1e-2 over %d draws with pt >= 200, %.1fs"
            % (worst, n, elapsed))


def test_11_window_mechanics():
    start = time.perf_counter()
    params = WindowParams()
    ratio = params.zeta_min / params.zeta_max

    def union_count(eps):
        modes = od.validate_modes(
            {"M": 4e6, "w": [0.5, 0.5], "Gamma": [1.0, (1.0 + eps) / ratio],
             "Omega": [0.0, 0.0], "a": [0.0, 0.0]}
        )
        ctx = od.shifted_kinematics(modes, 4e6)
        win = od.exponential_windows(modes, ctx, params)
        assert win.admitted == (0, 1)
        return len(win.union_rest), win.merged

    n_below, merged_below = union_count(-1e-12)
    n_above, merged_above = union_count(+1e-12)
    flip_ok = (n_below, merged_below) == (1, True) and \
              (n_above, merged_above) == (2, False)

    cov_ok = True
    for cfg in BOOST_SETS.values():
        modes = make_single_mode(cfg["M"], cfg["Omega"], cfg["a"])
        ctx = od.shifted_kinematics(modes, cfg["p"])
        win = od.exponential_windows(modes, ctx)
        for (lr, hr), (ll, hl) in zip(win.intervals_rest, win.intervals_lab):
            cov_ok &= (ll == ctx.gamma * lr) and (hl == ctx.gamma * hr)
        for (lr, hr), (ll, hl) in zip(win.union_rest, win.union_lab):
            cov_ok &= (ll == ctx.gamma * lr) and (hl == ctx.gamma * hr)
    elapsed = time.perf_counter() - start
    _report(11, "window-mechanics",
            flip_ok and bool(cov_ok) and elapsed < 10.0,
            "merged flag flips at width ratio %.3g; lab = gamma * rest exact, %.1fs"
            % (ratio, elapsed))


def test_12_cli_determinism(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps({
        "modes": {"M": 80.0, "w": [1.0], "Gamma": [1.0],
                  "Omega": [10.0], "a": [0.04]},
        "p": 200.0,
        "grid": {"t_min": 2.0, "t_max": 11.0, "points": 181},
    }))
    blobs = []
    for name, extra in (("r1.csv", []), ("r2.csv", []),
                        ("r3.csv", ["--parallel", "3"])):
        out = tmp_path / name
        assert main(["curve", "--which", "boosted", "--config", str(cfg),
                     "--out", str(out), "--quiet"] + extra) == 0
        blobs.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    _report(12, "cli-determinism",
            blobs[0] == blobs[1] == blobs[2] and elapsed < 60.0,
            "3 runs byte-identical incl --parallel 3, %.1fs" % elapsed)
