"""Generate frozen spot values of the boosted survival amplitude.

Each spot is the real-axis mass integral

    A(t) = integral rho(m) e^{-i sqrt(p^2+m^2) t} dm

of the analytic density, evaluated with mpmath at 50 significant digits
and rounded to double precision: over the whole real line (folded onto
m >= 0 as rho(m) + rho(-m)), or over m >= 0 alone where a spot says
"negative_mass": false. The inner part runs to 60 beyond the largest
Lorentzian center, split at every phase half-period and along a width
ladder around each center; the oscillating tail beyond it goes to
mpmath.quadosc, summed between the zeros of the phase. Nothing here
shares code with oscdecay, so the spots are an independent check of its
steepest-descent oracle.

Run from the repository root (about a minute):

    python3 tools/gen_oracle_spots.py > tests/data/oracle_spots.json
"""

import json

import mpmath as mp

mp.mp.dps = 50

CURVE_B = {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]}
THREE_MODES = {"M": 80.0, "w": [0.5, 0.3, 0.2], "Gamma": [1.0, 1.5, 2.0],
               "Omega": [10.0, 5.0, 2.5], "a": [0.04, 0.04, 0.04]}
SHIFTED_THREE_MODES = {"M": 100.0, "w": [0.5, 0.3, 0.2], "Gamma": [1.0, 1.5, 2.0],
                       "Omega": [0.0, 5.0, 8.0], "a": [0.1, 0.0, 0.03]}

# (name, modes, p, t, negative_mass)
SPOTS = [
    ("curve_b_p200_t1", CURVE_B, 200.0, 1.0, True),
    ("curve_b_p200_t5", CURVE_B, 200.0, 5.0, True),
    ("curve_b_p40_t3", CURVE_B, 40.0, 3.0, True),
    ("curve_b_p0_t1", CURVE_B, 0.0, 1.0, True),
    ("curve_b_p0.001_t1", CURVE_B, 1e-3, 1.0, True),
    ("curve_b_p200_t1_positive_mass", CURVE_B, 200.0, 1.0, False),
    ("three_mode_p200_t2", THREE_MODES, 200.0, 2.0, True),
    ("shifted_three_mode_p150_t4", SHIFTED_THREE_MODES, 150.0, 4.0, True),
]


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


def main():
    spots = []
    for name, modes, p, t, negative_mass in SPOTS:
        value = amplitude(modes, p, t, negative_mass)
        spots.append({"name": name, "modes": modes, "p": p, "t": t,
                      "negative_mass": negative_mass,
                      "amplitude": [float(value.real), float(value.imag)]})
    print(json.dumps(spots, indent=1))


if __name__ == "__main__":
    main()
