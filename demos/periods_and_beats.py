"""Oscillation periods across frames and multi-mode commensurability."""

import math

import numpy as np
from scipy.signal import find_peaks

import oscdecay as od


def single_mode_periods():
    modes = od.validate_modes({
        "M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04],
    })
    ctx = od.shifted_kinematics(modes, 200.0)
    win = od.exponential_windows(modes, ctx)
    per = od.periods(modes, ctx, win.admitted)
    print("single mode, Omega = 10, p = 200:")
    print("  rest period T0 =", per.T0)
    print("  lab period  Tp =", per.Tp, " (= gamma * T0, gamma = %.4f)" % ctx.gamma)

    # measure the lab period from the curve itself
    t = np.linspace(2.0, 11.0, 181)
    gamma_minus = od.lorentz_factor(modes.M - modes.Omega[0], ctx.p)
    y = np.exp(t / gamma_minus) * od.BoostedLaw(modes, ctx)(t).P_p
    idx, _ = find_peaks(y, prominence=0.05 * (y.max() - y.min()))
    spacing = float(np.mean(np.diff(t[idx])))
    print("  measured peak spacing =", round(spacing, 4),
          " vs gamma * 2 pi / Omega =", round(ctx.gamma * 2 * math.pi / 10.0, 4))


def commensurate_modes():
    # 10 : 20 : 40 -> common cycle at the slowest frequency
    modes = od.validate_modes({
        "M": 200.0,
        "w": [0.5, 0.3, 0.2],
        "Gamma": [1.0, 2.0, 3.5],
        "Omega": [10.0, 20.0, 40.0],
        "a": [0.04, 0.04, 0.01],
    })
    ctx = od.shifted_kinematics(modes, 400.0)
    per = od.periods(modes, ctx, active_modes=(0, 1, 2))
    print()
    print("three commensurate frequencies {10, 20, 40}:")
    print("  commensurate =", per.commensurate, " k =", per.k_values,
          " omega_max =", per.omega_max)
    print("  base rest period (fastest mode) =", per.T0,
          " lab counterpart =", per.Tp)
    print("  common cycle = max(k) * T0 =", max(per.k_values) * per.T0)

    incom = od.validate_modes({
        "M": 200.0,
        "w": [0.6, 0.4],
        "Gamma": [2.2, 3.5],
        "Omega": [25.0, 40.0],
        "a": [0.04, 0.01],
    })
    ctx2 = od.shifted_kinematics(incom, 400.0)
    per2 = od.periods(incom, ctx2, active_modes=(0, 1))
    print("frequencies {25, 40} share no integer cycle:")
    print("  commensurate =", per2.commensurate, " T0 =", per2.T0)


def main():
    single_mode_periods()
    commensurate_modes()


if __name__ == "__main__":
    main()
