"""Seeded generator of the run configs the benchmark feeds to oscdecay.

Every config describes a valid mode set by construction:

* Gamma_1 = 1 and the widths increase strictly (ratio 1.2 to 1.8);
* M >= 40 Gamma_N and M - Omega_j >= 25 Gamma_j, so the narrow-width
  ratio Gamma_j / (M - Omega_j) stays <= 0.04 < 5e-2;
* a_j is a fraction (0.2 to 0.9) of the rate-positivity bound
  a* = Gamma (sqrt(Gamma^2 + 4 Omega^2) - Gamma) / (4 Omega^2), the root of
  Gamma = 2 a Omega / sqrt(1 - 2 a);
* the weights are positive and sum to 1;
* p lies between 0.5 M and 3 M.

The time grid is given in units of gamma / Gamma_1, so every config
samples the same stretch of its own decay law. A config that
oscdecay.validate_modes rejects is a defect of this generator.
"""

import math
from dataclasses import dataclass

import numpy as np

WINDOW = {"zeta_min": 0.05}
ORACLE = {"abs_tol": 1e-8, "rel_tol": 1e-6}

BOOSTED = ("curve", "--which", "boosted")
PHI = ("phi",)

# command -> the serial command whose output bytes it must reproduce
PARALLEL_TWIN = {"boosted_par2": "boosted"}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a pool of configs and the commands run on each.

    Config i has modes[i % len(modes)] modes, so every pool holds the
    mode counts in fixed proportion. span is the grid [lo, hi] in units
    of gamma / Gamma_1; points is the (min, max) grid size. cold runs each
    command in a fresh interpreter; otherwise cli.main runs in-process.
    The traced run covers the first trace_configs configs of a pass.
    """

    name: str
    master_seed: int
    pool: int
    modes: tuple
    points: tuple
    span: tuple
    commands: dict
    trace_configs: int
    cold: bool = False
    oracle: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cli_cold", master_seed=11, pool=3, modes=(1, 2, 3),
            points=(181, 181), span=(0.75, 4.1), trace_configs=1, cold=True,
            commands={
                "validate": ("validate",),
                "window": ("window",),
                "rest": ("curve", "--which", "rest"),
                "boosted": BOOSTED,
                "boosted_par2": BOOSTED + ("--parallel", "2"),
                "phi": PHI,
            },
        ),
        Workload(
            name="dense_grid", master_seed=12, pool=4, modes=(1, 3, 2, 4),
            points=(2000, 2000), span=(0.5, 9.0), trace_configs=4,
            commands={"boosted": BOOSTED, "phi": PHI},
        ),
        Workload(
            name="param_scan", master_seed=13, pool=128, modes=(1, 2, 3, 4),
            points=(20, 60), span=(0.75, 4.1), trace_configs=128,
            commands={"validate": ("validate",), "window": ("window",),
                      "boosted": BOOSTED, "phi": PHI},
        ),
        Workload(
            name="oracle_verify", master_seed=14, pool=12, modes=(1, 2, 3, 4),
            points=(19, 37), span=(0.75, 4.1), trace_configs=12, oracle=True,
            commands={"boosted": BOOSTED, "phi": PHI, "compare": ("compare",)},
        ),
    )
}


def max_depth(gamma, omega):
    """Largest oscillation depth a that keeps the rest-frame decay rate positive."""
    return gamma * (math.sqrt(gamma * gamma + 4.0 * omega * omega) - gamma) / (4.0 * omega * omega)


def draw_modes(rng, n_modes):
    widths = [1.0]
    for _ in range(n_modes - 1):
        widths.append(widths[-1] * float(rng.uniform(1.2, 1.8)))
    m_lo = max(60.0, 40.0 * widths[-1])
    M = float(rng.uniform(m_lo, m_lo + 140.0))
    omegas = [float(rng.uniform(2.0, min(0.25 * M, M - 25.0 * g))) for g in widths]
    depths = [max_depth(g, o) * float(rng.uniform(0.2, 0.9)) for g, o in zip(widths, omegas)]
    weights = [float(x) for x in rng.dirichlet(np.full(n_modes, 2.0))]
    weights[-1] = 1.0 - sum(weights[:-1])
    return {"M": M, "w": weights, "Gamma": widths, "Omega": omegas, "a": depths}


def make_config(rng, workload, n_modes):
    modes = draw_modes(rng, n_modes)
    M = modes["M"]
    p = M * float(rng.uniform(0.5, 3.0))
    gamma = math.hypot(1.0, p / M)
    lo, hi = workload.span
    n_lo, n_hi = workload.points
    config = {
        "modes": modes,
        "p": p,
        "grid": {"t_min": lo * gamma, "t_max": hi * gamma,
                 "points": int(rng.integers(n_lo, n_hi + 1))},
        "window": dict(WINDOW),
    }
    if workload.oracle:
        config["oracle"] = dict(ORACLE)
    return config


def generate(workload, seed):
    """The workload's config pool drawn from seed; equal seeds give equal pools."""
    rng = np.random.default_rng(seed)
    return [make_config(rng, workload, workload.modes[i % len(workload.modes)])
            for i in range(workload.pool)]
