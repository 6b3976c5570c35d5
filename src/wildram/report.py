"""End-to-end pipeline for one input: measure, simulate, recurse, verify.

The stages run in the order parse, conductors, simulation, recursion,
perturbed-rerun, and a failure names its stage.  A report holds the
record of ``checks.record`` and the verdicts of its check table.
Verdict failures mean a theory-level inconsistency and map to exit code 2
in the CLI; a classified discrepancy on a non-good input is an expected
outcome and does not fail the report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from .blowup import SimulationConfig, check_point, simulation_as_dict
from .checks import _stage, evaluate, record
from .corpus import random_polynomial
from .parsing import (format_polynomial, parse_field, parse_polynomial,
                      polynomial_as_triples)
from .staircase import essential_vertices


@dataclass
class InputSpec:
    field: str
    branches: int
    expr: str
    seed: int = 0
    config: SimulationConfig = dataclass_field(default_factory=SimulationConfig)


@dataclass
class Report:
    data: dict
    verdicts: dict

    @property
    def passed(self):
        return all(v["pass"] for v in self.verdicts.values())

    def to_dict(self):
        return {"report": self.data, "verdicts": self.verdicts,
                "pass": self.passed}


def build_report(spec):
    with _stage("parse"):
        ctx = parse_field(spec.field)
        f = parse_polynomial(spec.expr, ctx)
        check_point(f, spec.branches)
        h = random_polynomial(random.Random(spec.seed), ctx, 2, 2,
                              nonneg_t2=spec.branches == 1)

    inv = record(f, spec.branches, h, spec.config)
    stair, sim = inv["staircase"], inv["sim"]
    rep = sim.representative

    data = {
        "input": {"field": spec.field, "type": "I" if spec.branches == 1 else "II",
                  "expr": spec.expr, "mode": spec.config.mode},
        "parsed": polynomial_as_triples(f),
        "good_representative": {
            "g": format_polynomial(rep.g),
            "witness": format_polynomial(rep.witness),
            "constant_delta": str(rep.constant_delta),
            "constant_added": rep.constant_added,
            "reductions": rep.reductions,
            "quadrant_ok": rep.quadrant_ok,
        },
        "staircase": [list(p) for p in stair],
        "essential": [list(p) for p in essential_vertices(stair)] if len(stair) else [],
        "clean": sim.root.clean,
        "swans": inv["swans"],
        "recursive_total": inv["recursive"].total,
        "recursion_steps": [
            {"staircase": [list(p) for p in s.staircase],
             "branches": s.branches, "drop": s.drop, "term": s.term,
             "first_indices": list(s.first_indices),
             "second_indices": list(s.second_indices)}
            for s in inv["recursive"].steps],
        "closed_form": inv["closed"],
        "bound": inv["bound"],
        "simulation": simulation_as_dict(sim),
    }
    return Report(data=data, verdicts=evaluate(inv))
