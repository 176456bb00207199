"""Decay seen from the lab frame: closed form against the exact law.

Single oscillating mode at M = 80, boosted to p = 200 (gamma = 2.69).
The closed form approximates the branch-cut background with Bessel and
Struve functions. The oracle evaluates the mass integral of the density
times the relativistic phase factor exactly, as a pole sum plus a
steepest-descent background sum; the two should land on the same curve
to within the closed form's approximation.
"""

import numpy as np

import oscdecay as od
from oscdecay.oracle import QuadratureSpec, direct_survival


def main():
    modes = od.validate_modes({
        "M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04],
    })
    ctx = od.shifted_kinematics(modes, 200.0)
    print("gamma =", ctx.gamma, "  gamma_minus =", float(ctx.gamma_minus[0]))
    print()

    # the closed form is compiled once and evaluated on whole grids
    law = od.BoostedLaw(modes, ctx)
    spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-6)
    t = np.linspace(2.0, 11.0, 10)
    ev = law(t)
    # the oracle too takes the whole grid in one call
    direct = direct_survival(modes, 200.0, t, spec)
    print(f"{'t':>5} {'closed form':>13} {'exact':>13} {'rel dev':>10} {'valid':>6}")
    for ti, p_closed, p_direct, valid in zip(t, ev.P_p, direct, ev.in_validity_domain):
        rel = abs(p_closed - p_direct) / p_direct
        print(f"{ti:5.2f} {p_closed:13.6e} {p_direct:13.6e} {rel:10.2e}"
              f" {str(valid):>6}")

    # the re-exponentiated curve exposes the dilated beat; its peaks sit
    # gamma * 2 pi / Omega apart
    print()
    t = np.linspace(2.0, 11.0, 181)
    y = np.exp(t / float(ctx.gamma_minus[0])) * law(t).P_p
    print("expected beat spacing gamma * 2 pi / Omega =",
          ctx.gamma * 2.0 * np.pi / 10.0)
    print("re-exponentiated curve max/min:", y.max(), y.min())


if __name__ == "__main__":
    main()
