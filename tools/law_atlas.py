"""Measure the closed form against the exact law and write ATLAS_<n>.json.

For each named mode set and momentum p, the closed form's P_p
(boost.BoostedLaw) is compared with the exact law (oracle.direct_survival,
at abs_tol 1e-13 and rel_tol 1e-11) on POINTS evenly spread times in each
band of BANDS. The file holds, per set, p and band, the maximum over the
band of |P_p - P_exact| / P_exact, beside the commit of the checkout (and
whether its src/ differs from that commit) and the numpy version.

The sets are curve B (M 80, Gamma 1, Omega 10, a 0.04) and three modes
of equal weight at M 80 (Gamma 1, 1.5, 2; Omega 10, 5, 2.5; a 0.04), at
p = 5, 40 and 200. The package is the one in this checkout's src/.

Run from the root of a source checkout:

    python3 tools/law_atlas.py --out bench/ATLAS_33.json
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from oscdecay import BoostedLaw, shifted_kinematics, validate_modes  # noqa: E402
from oscdecay.oracle import QuadratureSpec, direct_survival  # noqa: E402

SETS = {
    "curve_b": {"M": 80.0, "w": [1.0], "Gamma": [1.0], "Omega": [10.0], "a": [0.04]},
    "three_modes": {"M": 80.0, "w": [1 / 3, 1 / 3, 1 / 3], "Gamma": [1.0, 1.5, 2.0],
                    "Omega": [10.0, 5.0, 2.5], "a": [0.04, 0.04, 0.04]},
}
MOMENTA = (5.0, 40.0, 200.0)
BANDS = ((2.0, 11.0), (11.0, 20.0))
POINTS = 181
SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)


def max_rel_dev(modes, p, t):
    """max |P_p - P_exact| / P_exact of the mode set at momentum p over the times t."""
    closed = BoostedLaw(modes, shifted_kinematics(modes, p))(t).P_p
    exact = direct_survival(modes, p, t, SPEC)
    return float(np.max(np.abs(closed - exact) / exact))


def _git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def atlas(sets, momenta, points):
    """The ATLAS_<n>.json record of the named sets at each momentum."""
    deviations = {}
    for name in sets:
        modes = validate_modes(SETS[name])
        deviations[name] = {
            "%g" % p: {"[%g, %g]" % band: max_rel_dev(modes, p, np.linspace(*band, points))
                       for band in BANDS}
            for p in momenta}
    status = _git("status", "--porcelain", "--", "src")
    return {"commit": _git("rev-parse", "HEAD"),
            "src_modified": None if status is None else bool(status),
            "numpy": np.__version__,
            "oracle": {"abs_tol": SPEC.abs_tol, "rel_tol": SPEC.rel_tol},
            "points": points,
            "modes": {name: SETS[name] for name in sets},
            "max_rel_dev": deviations}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the ATLAS_<n>.json to write")
    args = parser.parse_args(argv)

    record = atlas(list(SETS), MOMENTA, POINTS)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, rows in record["max_rel_dev"].items():
        for p, bands in rows.items():
            print("%-12s p %-4s %s" % (name, p, "  ".join(
                "%s %.1e" % item for item in bands.items())))


if __name__ == "__main__":
    main()
