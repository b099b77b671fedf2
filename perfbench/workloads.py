"""Seeded workload generator: variety specs and the study list of one pass.

A workload is a fixed list of ``gaussvar`` CLI studies.  The seed picks a
coefficient scale for each of five inputs and the order of the studies in
a pass; everything else is fixed.  Seed 0 gives the reference inputs:

- cylinder  ``{"kind": "revolution", "f": "1", "h": "1*x1^1"}``
- modulus graph of ``z^2``  ``{"kind": "modulus_graph", "F": "1*x1^2"}``
- graph of ``x^2``  ``{"kind": "graph", "components": ["1*x1^2"]}``
- ``--alpha 0.25`` and ``--k 0.5,1,2,4``

Other seeds draw each scale uniformly from a stated range, on a grid of
five levels so that every input a seed can produce has a reference
recorded in ``reference.json``:

- cylinder radius, modulus-graph and graph leading coefficients, and the
  factor on every ``--k`` entry: ``[0.5, 2]``, geometric levels
  0.5, 0.707, 1, 1.414, 2;
- ``--alpha``: ``[0.125, 0.375]``, linear levels 0.125 .. 0.375.

Scaling keeps every oracle in ``check.py`` valid: the cylinder of radius
``a`` and the paraboloid ``|c| (x^2 + y^2)`` keep their ranks, and
``alpha < 1/2`` keeps ``e^{alpha r^2}`` square-integrable.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

SCALE_LEVELS = (0.5, 2.0 ** -0.5, 1.0, 2.0 ** 0.5, 2.0)
ALPHA_LEVELS = (0.125, 0.1875, 0.25, 0.3125, 0.375)
K_BASE = (0.5, 1.0, 2.0, 4.0)

# the drawn inputs, in draw order, with their level grids and seed-0 values
PARAMS = {
    "cylinder_radius": (SCALE_LEVELS, 1.0),
    "modulus_coeff": (SCALE_LEVELS, 1.0),
    "graph_coeff": (SCALE_LEVELS, 1.0),
    "alpha": (ALPHA_LEVELS, 0.25),
    "k_scale": (SCALE_LEVELS, 1.0),
}

# chart name -> (intrinsic dimension, ambient dimension)
CHART_DIMS = {
    "cylinder": (2, 3),
    "modgraph": (2, 3),
    "euclid3": (3, 3),
    "graph": (1, 2),
    "circle": (1, 2),
}

WHY = {
    "euclid3-sweep": "node-heavy: 262144 nodes x 84 monomials; monomial "
                     "evaluation, Gram and projection products dominate",
    "surface-sweep": "monomial-heavy: 455 monomials on 4096 nodes; "
                     "orthonormalize loop and gram.csv writing dominate",
    "study-mix": "many short studies: growth, integrate and chart fields "
                 "dominate; bypass workload for the evaluation kernel",
}


def fmt(x: float) -> str:
    """Shortest exact text of a float, with 1.0 written as ``1``."""
    return f"{x:.17g}" if x != int(x) else str(int(x))


@dataclass(frozen=True)
class Study:
    sid: str            # "<command>:<chart>" or "lemma"
    command: str
    chart: str | None
    flags: tuple        # CLI flags after --spec

    def key(self, specs: dict) -> str:
        """Identity of the study's inputs, used to look up its reference."""
        spec = json.dumps(specs[self.chart], sort_keys=True) if self.chart else "-"
        return " ".join((self.command, spec) + self.flags)


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    scales: dict
    specs: dict         # chart name -> spec dict
    studies: tuple      # in pass order


def draw_scales(seed: int) -> dict:
    if seed == 0:
        return {name: nominal for name, (_, nominal) in PARAMS.items()}
    rng = random.Random(seed)
    return {name: levels[rng.randrange(len(levels))]
            for name, (levels, _) in PARAMS.items()}


def chart_specs(scales: dict) -> dict:
    return {
        "cylinder": {"kind": "revolution", "f": fmt(scales["cylinder_radius"]),
                     "h": "1*x1^1"},
        "modgraph": {"kind": "modulus_graph",
                     "F": f"{fmt(scales['modulus_coeff'])}*x1^2"},
        "euclid3": {"kind": "euclidean", "n": 3},
        "graph": {"kind": "graph",
                  "components": [f"{fmt(scales['graph_coeff'])}*x1^2"]},
        "circle": {"kind": "circle"},
    }


def study_list(workload: str, scales: dict) -> list[Study]:
    alpha = ("--alpha", fmt(scales["alpha"]))
    if workload == "euclid3-sweep":
        return [
            Study("project:euclid3", "project", "euclid3", ("--degree", "6") + alpha),
            Study("basis:euclid3", "basis", "euclid3", ("--degree", "6")),
        ]
    if workload == "surface-sweep":
        out = []
        for chart in ("cylinder", "modgraph"):
            out.append(Study(f"basis:{chart}", "basis", chart, ("--degree", "12")))
            out.append(Study(f"project:{chart}", "project", chart,
                             ("--degree", "12") + alpha))
        return out
    if workload == "study-mix":
        out = []
        for chart in ("cylinder", "modgraph", "euclid3", "graph"):
            out.append(Study(f"moments:{chart}", "moments", chart, ("--mmax", "12")))
            out.append(Study(f"growth:{chart}", "growth", chart, ()))
            out.append(Study(f"equivalence:{chart}", "equivalence", chart, alpha))
        out.append(Study("basis:circle", "basis", "circle", ("--degree", "12")))
        ks = ",".join(fmt(k * scales["k_scale"]) for k in K_BASE)
        out.append(Study("lemma", "lemma", None, ("--k", ks, "--mmax", "200")))
        return out
    raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")


def make_plan(workload: str, seed: int) -> Plan:
    scales = draw_scales(seed)
    studies = study_list(workload, scales)
    if seed != 0:
        random.Random(seed + 1_000_003).shuffle(studies)
    return Plan(workload, seed, scales, chart_specs(scales), tuple(studies))


def all_scale_choices():
    """Every scale assignment a seed can draw (for recording references)."""
    for levels in itertools.product(*(grid for grid, _ in PARAMS.values())):
        yield dict(zip(PARAMS, levels))
