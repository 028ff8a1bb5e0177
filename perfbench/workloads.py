"""The benchmark's workloads: one round of `toolkit` calls each, built from a seed.

A round is a list of operations; one operation is one call of
`rpc3bp.cli.main` with the arguments the `toolkit` command takes (the
benchmark adds `--out`).  Every round of a run repeats the same list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

MU = 0.3

# splitting: the report at a four-root and at a two-root point
SPLIT_G0 = (2.4, 2.8)

# melnikov: binary64 contour series (repeated: each takes ~0.3 s), the
# quadrature route checked against the contour route, and one mpmath series
CONTOUR_G0 = (2.0, 2.8, 3.5)
CONTOUR_REPEATS = 5
QUADRATURE_G0 = 1.5
EXTENDED_G0 = 3.5
EXTENDED_LMAX = 2

# oscillate: seeds just inside the separatrix, y = y_h(r) - delta
OSC_G0 = 2.2
OSC_SEEDS = 48
OSC_R = (1.0, 1.8)
OSC_DELTA = (0.03, 0.06)
OSC_N_ITER = 12


@dataclass
class Op:
    kind: str                 # report | contour | quadrature | extended | orbit
    argv: list[str]
    g0: float
    seed: tuple[float, float] | None = None
    config: dict = field(default_factory=dict)   # written to --config


def separatrix_y(r: float) -> float:
    """Outgoing-leg momentum of the separatrix at radius r: sqrt(2r - 1)/r."""
    return math.sqrt(2.0 * r - 1.0) / r


# The splitting and melnikov inputs are fixed: their seed is unused.

def splitting_round(rng: random.Random) -> list[Op]:
    return [Op("report", ["splitting", "--mu", repr(MU), "--g0", repr(g0)], g0)
            for g0 in SPLIT_G0]


def melnikov_round(rng: random.Random) -> list[Op]:
    ops = [Op("contour", ["melnikov", "--mu", repr(MU), "--g0", repr(g0)], g0)
           for g0 in CONTOUR_G0 for _ in range(CONTOUR_REPEATS)]
    ops.append(Op("quadrature",
                  ["melnikov", "--mu", repr(MU), "--g0", repr(QUADRATURE_G0),
                   "--methods", "quadrature,contour"], QUADRATURE_G0))
    ops.append(Op("extended",
                  ["melnikov", "--mu", repr(MU), "--g0", repr(EXTENDED_G0),
                   "--precision", "extended"], EXTENDED_G0,
                  config={"lmax": EXTENDED_LMAX}))
    return ops


def oscillate_round(rng: random.Random) -> list[Op]:
    """Latin-hypercube draw of (r, delta): one seed per r-stratum, the
    delta-strata permuted, so every seed set covers both ranges evenly."""
    n = OSC_SEEDS
    perm = list(range(n))
    rng.shuffle(perm)
    ops = []
    for k in range(n):
        r = OSC_R[0] + (OSC_R[1] - OSC_R[0]) * (k + rng.random()) / n
        delta = OSC_DELTA[0] + (OSC_DELTA[1] - OSC_DELTA[0]) * (perm[k] + rng.random()) / n
        y = separatrix_y(r) - delta
        ops.append(Op("orbit",
                      ["oscillate", "--mu", repr(MU), "--g0", repr(OSC_G0),
                       "--seed-r", repr(r), "--seed-y", repr(y),
                       "--n-iter", str(OSC_N_ITER)], OSC_G0, seed=(r, y)))
    return ops


WORKLOADS = {
    "splitting": splitting_round,
    "melnikov": melnikov_round,
    "oscillate": oscillate_round,
}
