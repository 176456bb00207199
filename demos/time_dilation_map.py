"""The time map phi_p: moving decay replays the rest curve, slowed.

phi_p(t) = P0^{-1}(P_p(t)) maps lab time onto the rest-frame clock of
the decaying system. Over the exponential window the map is close to a
line of slope 1/gamma; the fit quantifies the residual oscillation.
"""

import numpy as np

import oscdecay as od


SETS = [
    dict(p=100.0, M=100.0, Omega=10.0, a=0.04),
    dict(p=200.0, M=150.0, Omega=40.0, a=0.01),
    dict(p=210.0, M=100.0, Omega=10.0, a=0.04),
    dict(p=200.0, M=80.0,  Omega=10.0, a=0.04),
]


def main():
    print(f"{'set':>16} {'gamma':>8} {'slope':>10} {'1/gamma':>10}"
          f" {'slope err':>10} {'max resid':>10}")
    for cfg in SETS:
        modes = od.validate_modes({
            "M": cfg["M"], "w": [1.0], "Gamma": [1.0],
            "Omega": [cfg["Omega"]], "a": [cfg["a"]],
        })
        ctx = od.shifted_kinematics(modes, cfg["p"])
        win = od.exponential_windows(modes, ctx)
        lo, hi = win.union_lab[0]
        start = max(lo, min(10.0 / (cfg["M"] - cfg["Omega"]), 0.1))
        t = np.linspace(start, hi, 300)
        phi = od.phi_p(modes, ctx, t)
        series = od.CurveSeries(t=t, values=phi, kind="timemap")
        fit = od.linearity_fit(series, win, ctx)
        name = "p%.0f_M%.0f" % (cfg["p"], cfg["M"])
        print(f"{name:>16} {ctx.gamma:8.4f} {fit.slope:10.6f}"
              f" {fit.expected_slope:10.6f} {fit.rel_slope_error:10.2e}"
              f" {fit.max_residual:10.4f}")

    # the map itself, sampled coarsely for one set
    cfg = SETS[-1]
    modes = od.validate_modes({
        "M": cfg["M"], "w": [1.0], "Gamma": [1.0],
        "Omega": [cfg["Omega"]], "a": [cfg["a"]],
    })
    ctx = od.shifted_kinematics(modes, cfg["p"])
    print()
    print("lab time t -> rest clock phi_p(t), p=200, M=80:")
    print(f"{'t':>6} {'phi_p':>9} {'t/gamma':>9} {'residual':>10}")
    t = np.linspace(3.0, 27.0, 9)
    for ti, phi in zip(t, od.phi_p(modes, ctx, t)):
        print(f"{ti:6.2f} {phi:9.4f} {ti / ctx.gamma:9.4f}"
              f" {phi - ti / ctx.gamma:10.3e}")


if __name__ == "__main__":
    main()
