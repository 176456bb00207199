"""Rest-frame decay of an oscillating-mode superposition.

Builds a two-mode model, prints the survival curve with its
exponential/oscillating split, and checks the initial decay rate
against the weighted width sum.
"""

import numpy as np

import oscdecay as od


def main():
    modes = od.validate_modes({
        "M": 100.0,
        "w": [0.7, 0.3],
        "Gamma": [1.0, 2.5],
        "Omega": [10.0, 0.0],
        "a": [0.04, 0.0],
    })

    print("two-mode rest model, M = 100 (all energies in units of Gamma_1)")
    print("P0(0) =", od.survival_rest(modes, 0.0))
    print("dP0/dt(0) =", float(od.decay_rate_rest(modes, 0.0)),
          " expected:", -sum(w * g for w, g in zip(modes.w, modes.Gamma)))
    print()

    t = np.linspace(0.0, 8.0, 17)
    exp_part, osc_part = od.survival_rest_split(modes, t)
    print(f"{'t':>6} {'P0':>12} {'exp part':>12} {'osc part':>13}")
    for ti, ei, oi in zip(t, np.atleast_1d(exp_part), np.atleast_1d(osc_part)):
        print(f"{ti:6.2f} {ei + oi:12.6f} {ei:12.6f} {oi:13.3e}")

    # mass density: symmetric about M, sidebands at M +/- Omega
    print()
    print("mass density around the first mode (sidebands at 90 and 110):")
    for m in (90.0, 95.0, 100.0, 105.0, 110.0):
        print(f"  omega({m:5.1f}) = {od.mdd_analytic(modes, m):.6f}")


if __name__ == "__main__":
    main()
