"""Workload definitions: each turns a benchmark seed into an fso-geoloss config.

The program under test sees only the generated config text.  Everything that
varies with the seed (Monte Carlo seed, the bounds grid) is drawn from a
`random.Random` keyed by the workload name and the seed, so the config is a
pure function of (workload, seed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# trials per row (Monte Carlo) and grid shape (bounds) are sized so one
# repetition takes 0.3-3 s on a 2-core x86 machine: enough repetitions fit in
# a run for a stable median
FIG4_TRIALS = 8192
FIG4_SIGMAS_MRAD = (0.2, 0.5, 1.0)
FIG5_TRIALS = 32768
BOUNDS_ALPHAS = 40
BOUNDS_OFFSETS = 15
DETECTOR_RADIUS_M = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "fig4-average-loss", "average-loss",
            "Fig-4 averages, both kernels; the exact kernel at polar order 32 "
            "dominates and the closed-form batch kernel takes most of the rest"),
        Workload(
            "fig5-pdf", "pdf",
            "Fig-5 density; order-16 kernel, so pose draws, histogram, density "
            "and GOF take their largest share"),
        Workload(
            "bounds-table", "bounds",
            "seeded alpha x offset grid through the scalar API one pose at a "
            "time, where per-call Python overhead dominates"),
    )
}


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _lines(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def config_text(name: str, seed: int) -> str:
    """Config file text for workload `name` at benchmark seed `seed`."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; pick one of {sorted(WORKLOADS)}")
    rng = _rng(name, seed)
    mc_seed = rng.randrange(2**32)
    common = {"output.format": "json", "mc.seed": mc_seed}
    if name == "fig4-average-loss":
        return _lines(**{
            "geometry.R_m": repr(1000.0),
            "geometry.alpha_rad": repr(math.pi / 8),
            "geometry.beta_rad": repr(5 * math.pi / 8),
            "sweep.variable": "sigma",
            "sweep.values": ",".join(repr(s) for s in FIG4_SIGMAS_MRAD),
            "sweep.sigma_unit": "mrad",
            "mc.n_trials": FIG4_TRIALS,
            **common,
        })
    if name == "fig5-pdf":
        return _lines(**{
            "geometry.R_m": repr(1000.0),
            "geometry.alpha_rad": repr(0.0),
            "geometry.beta_rad": repr(math.pi / 2),
            "stability.sigma_o_rad": repr(1e-4),
            "mc.n_trials": FIG5_TRIALS,
            **common,
        })
    # bounds-table: stratified draws keep the grid's cost steady across seeds
    alphas = [(i + rng.random()) / BOUNDS_ALPHAS * (math.pi / 3)
              for i in range(BOUNDS_ALPHAS)]
    offsets = []
    for j in range(BOUNDS_OFFSETS):
        u = 3.0 * DETECTOR_RADIUS_M * (j + rng.random()) / BOUNDS_OFFSETS
        ang = rng.uniform(0.0, 2.0 * math.pi)
        offsets.append(f"{u * math.cos(ang)!r}:{u * math.sin(ang)!r}")
    return _lines(**{
        "geometry.R_m": repr(1000.0),
        "geometry.beta_rad": repr(5 * math.pi / 8),
        "detector.radius_m": repr(DETECTOR_RADIUS_M),
        "sweep.variable": "alpha",
        "sweep.values": ",".join(repr(a) for a in alphas),
        "bounds.offsets_m": ";".join(offsets),
        **common,
    })
