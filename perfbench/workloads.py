"""The three benchmark workloads: their inputs, references and tolerances.

Each workload is built from a seed.  Seed 0 gives exactly the reference
configurations; other seeds rotate the striation pattern of ``striated`` by
``seed mod ny`` grid cells, which leaves the wave speed unchanged (the
problem is periodic in y) while the assembled matrices differ.  ``flat`` has
no transverse structure and ``sweep`` builds its rate profiles through the
CLI's ``contrast`` shorthand, so their inputs are the same for every seed.

Reference speeds (``speed_ref``):

* flat: ``e^-1`` exactly -- a uniform medium with ``R = 1`` and
  ``K(u) = exp(-1/u)`` burns at ``R * K(1)``.
* striated and the sweep rows: Richardson extrapolation of the solver's own
  speeds on a grid and on the grid refined twice in both directions,
  assuming second order, ``c_ref = c_fine + (c_fine - c_coarse) / 3``.
  See ``README.md`` for the speeds it was made from.  The contrast-0.9 row
  needed a deeper refinement because its default grid is the one defect
  below; its reference combines separate x and y refinements.
"""
from __future__ import annotations

import math

# A speed farther than this from its reference is a wrong answer.  It is the
# release gate's tolerance for the flat speed and for the CLI sweep speeds.
SPEED_TOL = 5e-4

ARRHENIUS = {"type": "arrhenius", "prefactor": 1.0, "activation": 1.0}

FLAT_DOC = {
    "kinetics": ARRHENIUS,
    "rate": {"type": "constant", "value": 1.0},
    "grid": {"ny": 64, "nx": 512, "depth": 40.0},
}
FLAT_REF = math.exp(-1.0)

STRIATED_NY = 64
STRIATED_VALUES = (0.5, 1.5)
# c(512x64) = 0.3676418418393855, c(1024x128) = 0.3677328115392114,
# both on the auto depth 134.68420987430792.
STRIATED_REF = 0.3677631347724867

SWEEP_BASE_DOC = {
    "kinetics": ARRHENIUS,
    "rate": {"type": "constant", "value": 1.0},
    "grid": {"ny": 32},
}
SWEEP_CONTRASTS = (0.1, 0.5, 0.9)
SWEEP_JOBS = 2
SWEEP_REFS = {
    # c(512x32) = 0.36778813649199893, c(1024x64) = 0.36785316656544653
    0.1: 0.36787484325659575,
    # c(512x32) = 0.36764121078423967, c(1024x64) = 0.36773283766133424
    0.5: 0.3677633799536991,
    # c(1536x64) = 0.3682581609759704, c(3072x64) = 0.36767694934191786,
    # c(1536x128) = 0.36826522890138724, all on depth 673.4210493715399:
    # c(3072x64) + (c(3072x64) - c(1536x64)) / 3
    #            + (c(1536x128) - c(1536x64)) * 4 / 3
    0.9: 0.36749263603112275,
}


# A flat case on a tiny grid (speed error 1.0e-4) that exercises the harness
# in a fraction of a second; perfbench/test_smoke.py runs it.  It is not a
# workload of BENCHMARK.json.
SMOKE_DOC = {
    "kinetics": ARRHENIUS,
    "rate": {"type": "constant", "value": 1.0},
    "grid": {"ny": 8, "nx": 256, "depth": 40.0},
}


def striated_rate(seed: int) -> dict:
    """Two equal layers at 0.5 / 1.5, rotated by ``seed mod ny`` cells."""
    ny = STRIATED_NY
    shift = seed % ny
    # Cell j takes the rate the unrotated pattern has at cell j - shift.
    cells = [STRIATED_VALUES[((j - shift) % ny) * 2 // ny] for j in range(ny)]
    edges, values = [], []
    for j, value in enumerate(cells):
        if not values or value != values[-1]:
            edges.append(j / ny)
            values.append(value)
    return {"type": "piecewise", "edges": edges, "values": values}


def sweep_row_doc(contrast: float) -> dict:
    """The configuration ``frontwave sweep`` solves for one contrast row."""
    doc = dict(SWEEP_BASE_DOC)
    doc["rate"] = {
        "type": "piecewise",
        "edges": [0.0, 0.5],
        "values": [1.0 - contrast, 1.0 + contrast],
    }
    return doc


def sweep_axis() -> str:
    return "contrast=" + ",".join(str(v) for v in SWEEP_CONTRASTS)


def config_docs(name: str, seed: int) -> list[dict]:
    """Every configuration a workload solves, in the order it solves them."""
    if name == "flat":
        return [FLAT_DOC]
    if name == "smoke":
        return [SMOKE_DOC]
    if name == "striated":
        return [
            {
                "kinetics": ARRHENIUS,
                "rate": striated_rate(seed),
                "grid": {"ny": STRIATED_NY},
            }
        ]
    if name == "sweep":
        return [sweep_row_doc(v) for v in SWEEP_CONTRASTS]
    raise ValueError(f"unknown workload {name!r}")


def speed_refs(name: str) -> list[float]:
    if name in ("flat", "smoke"):
        return [FLAT_REF]
    if name == "striated":
        return [STRIATED_REF]
    return [SWEEP_REFS[v] for v in SWEEP_CONTRASTS]


NAMES = ("flat", "striated", "sweep", "smoke")
