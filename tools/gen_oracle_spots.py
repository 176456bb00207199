"""Generate frozen spot values of the boosted survival amplitude and of the
mass distribution density.

Each amplitude spot is the real-axis mass integral

    A(t) = integral rho(m) e^{-i sqrt(p^2+m^2) t} dm

of the analytic density, evaluated with mpmath at 50 significant digits
and rounded to double precision: over the whole real line (folded onto
m >= 0 as rho(m) + rho(-m)), or over m >= 0 alone where a spot says
"negative_mass": false. The inner part runs to 60 beyond the largest
Lorentzian center, split at every phase half-period and along a width
ladder around each center; the oscillating tail beyond it goes to
mpmath.quadosc, summed between the zeros of the phase.

Each density spot is the half-line cosine transform that defines the
density,

    rho(m) = (1/pi) |integral_0^inf sqrt(P0(t)) cos((m - M) t) dt|,

of the rest amplitude sqrt(P0(t)) = sum_j w_j e^{-Gamma_j t/2}
(1 - a_j + a_j cos(Omega_j t)), split at the half-periods of the
integrand's fastest cosine and cut at t = 300, where e^{-Gamma t/2} is
below 1e-65. Nothing here shares code with oscdecay, so the spots are an
independent check of its steepest-descent oracle and of its closed-form
density.

Run from the repository root (about five minutes):

    python3 tools/gen_oracle_spots.py > tests/data/oracle_spots.json
"""

import json

import mpmath as mp

CURVE_B = {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]}
THREE_MODES = {"M": 80.0, "w": [0.5, 0.3, 0.2], "Gamma": [1.0, 1.5, 2.0],
               "Omega": [10.0, 5.0, 2.5], "a": [0.04, 0.04, 0.04]}
SHIFTED_THREE_MODES = {"M": 100.0, "w": [0.5, 0.3, 0.2], "Gamma": [1.0, 1.5, 2.0],
                       "Omega": [0.0, 5.0, 8.0], "a": [0.1, 0.0, 0.03]}
SETS = {"curve_b": CURVE_B, "three_mode": THREE_MODES,
        "shifted_three_mode": SHIFTED_THREE_MODES}


def _spot(set_name, p, t, negative_mass=True):
    name = "%s_p%g_t%g%s" % (set_name, p, t, "" if negative_mass else "_positive_mass")
    return (name, SETS[set_name], p, t, negative_mass)


# (name, modes, p, t, negative_mass): single times across p, p = 0 and 1e-3
# at rest's edge, then short times, where the path reaches tau = 40 / t
SPOTS = [
    _spot("curve_b", 200.0, 1.0),
    _spot("curve_b", 200.0, 5.0),
    _spot("curve_b", 40.0, 3.0),
    _spot("curve_b", 0.0, 1.0),
    _spot("curve_b", 1e-3, 1.0),
    _spot("curve_b", 200.0, 1.0, False),
    _spot("three_mode", 200.0, 2.0),
    _spot("shifted_three_mode", 150.0, 4.0),
] + [_spot("curve_b", 200.0, t, negative_mass)
     for t in (0.02, 0.05, 0.2) for negative_mass in (True, False)]

# (set, p) where the closed form is judged: the two ends t = 2 and t = 11 of
# np.linspace(2, 11, 10), on which one oracle call lays out its panels
GRID_ENDS = [("curve_b", p) for p in (1.0, 5.0, 40.0, 200.0, 400.0)] + [
    ("shifted_three_mode", 150.0), ("three_mode", 200.0)]
SPOTS += [spot for spot in (_spot(s, p, t) for s, p in GRID_ENDS for t in (2.0, 11.0))
          if spot not in SPOTS]

TWO_MODES = {"M": 100.0, "w": [0.6, 0.4], "Gamma": [1.0, 2.0],
             "Omega": [10.0, 6.0], "a": [0.04, 0.0]}
ONE_MODE = dict(CURVE_B, M=100.0)
# (name, modes, m): one mode; an a = 0 mode without side terms; an
# Omega = 0, a > 0 mode whose three terms share one centre
MDD_SPOTS = [("%s_m%g" % (name, m), modes, m)
             for name, modes in (("one_mode", ONE_MODE), ("two_mode", TWO_MODES),
                                 ("shifted_three_mode", SHIFTED_THREE_MODES))
             for m in (100.0, 95.0, 103.0, 110.0, 92.0)]
MDD_T_END = 300


def terms(modes):
    """(center, half-width, weight) of every Lorentzian term of the density."""
    out = []
    for w, g, om, a in zip(modes["w"], modes["Gamma"], modes["Omega"], modes["a"]):
        M, w, h, om, a = (mp.mpf(modes["M"]), mp.mpf(w), mp.mpf(g) / 2, mp.mpf(om), mp.mpf(a))
        out.append((M, h, w * (1 - a)))
        if a > 0:
            out.append((M - om, h, w * a / 2))
            out.append((M + om, h, w * a / 2))
    return out


def amplitude(modes, p, t, negative_mass):
    p, t = mp.mpf(p), mp.mpf(t)
    lorentz = terms(modes)

    def density(m):
        total = 0
        for c, h, w in lorentz:
            total += w * h / ((m - c) ** 2 + h * h)
            if negative_mass:
                total += w * h / ((m + c) ** 2 + h * h)
        return total / mp.pi

    def integrand(m):
        return density(m) * mp.expj(-mp.sqrt(p * p + m * m) * t)

    def zero(k):
        # the mass at which the phase sqrt(p^2+m^2) t passes k pi
        return mp.sqrt((k * mp.pi / t) ** 2 - p * p)

    top = max(c for c, _, _ in lorentz) + 60
    points = [mp.mpf(0)]
    for c, h, _ in lorentz:
        points.extend(c + s * h for s in (-40, -8, -2, 0, 2, 8, 40))
    k = int(mp.floor(p * t / mp.pi)) + 1
    while zero(k) <= top:
        points.append(zero(k))
        k += 1
    edge = zero(k)
    inner = mp.quad(integrand, sorted(x for x in points if 0 <= x < edge) + [edge])
    tail = mp.quadosc(integrand, [edge, mp.inf], zeros=lambda n: zero(k + n - 1))
    return inner + tail


def mdd(modes, m):
    x = mp.mpf(m) - mp.mpf(modes["M"])
    rest = [(mp.mpf(w), mp.mpf(g) / 2, mp.mpf(om), mp.mpf(a))
            for w, g, om, a in zip(modes["w"], modes["Gamma"], modes["Omega"], modes["a"])]

    def integrand(t):
        amp = sum(w * mp.exp(-h * t) * (1 - a + a * mp.cos(om * t)) for w, h, om, a in rest)
        return amp * mp.cos(x * t)

    step = mp.pi / (abs(x) + max(om for _, _, om, _ in rest))
    points = [k * step for k in range(int(MDD_T_END / step) + 1)] + [mp.mpf(MDD_T_END)]
    return abs(mp.quad(integrand, points)) / mp.pi


def main():
    mp.mp.dps = 50
    spots = {"amplitude": [], "mdd": []}
    for name, modes, p, t, negative_mass in SPOTS:
        value = amplitude(modes, p, t, negative_mass)
        spots["amplitude"].append({"name": name, "modes": modes, "p": p, "t": t,
                                   "negative_mass": negative_mass,
                                   "amplitude": [float(value.real), float(value.imag)]})
    for name, modes, m in MDD_SPOTS:
        spots["mdd"].append({"name": name, "modes": modes, "m": m, "mdd": float(mdd(modes, m))})
    print(json.dumps(spots, indent=1))


if __name__ == "__main__":
    main()
