"""End-to-end pipeline for one input: measure, simulate, recurse, verify.

The stages run in the order parse, conductors, simulation, recursion,
perturbed-rerun, and a failure names its stage.  The input is reduced
once, by the simulator: the report reads its representative and
staircase from ``resolve``'s root reduction, and the clean flag and the
staircase drop from the root node.

The perturbed rerun shares with the main run what depends only on
values: both ``resolve`` calls take one memo of node analyses, so a
node polynomial equal to one the main run analysed (often every node
below a root whose good representative is the input's) is not reduced
again; and when the rerun's staircase equals the main run's, the
recursion, closed form and bound are the main run's, which recomputing
would reproduce.  The rerun still computes itself the conductors of the
perturbed input, the reduction of its root (unless it equals the input),
its own blow-up tree, and so its own r_x, which the verdict compares.

A report bundles every invariant of one local input together with
recomputed agreement verdicts:

* recursion total == closed form,
* conductor drop from the staircase == drop from the valuation loops,
* conductors of the raw input match the staircase ends of its reduction,
* blow-up total vs recursion total, with a good/non-good classification
  when they are allowed to differ (never a silent pass),
* both totals below the proven bound,
* stability of everything under a random Artin-Schreier perturbation
  f + (h^p - h), which must not move any invariant.

Verdict failures mean a theory-level inconsistency and map to exit code 2
in the CLI; a classified discrepancy on a non-good input is an expected
outcome and does not fail the report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from .blowup import (SimulationConfig, check_point, resolve,
                     simulation_as_dict)
from .corpus import random_polynomial
from .parsing import (format_polynomial, parse_field, parse_polynomial,
                      polynomial_as_triples)
from .reduction import artin_schreier_map, conductors
from .staircase import (end_conductors, essential_vertices, ramification_bound,
                        ramification_closed_form, ramification_recursive)


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


class StageError(RuntimeError):
    """An inner-module failure, tagged with the pipeline stage."""

    def __init__(self, stage, original):
        self.stage = stage
        self.original = original
        super().__init__(f"in stage {stage}: {original}")


class _stage:
    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not isinstance(exc, StageError):
            raise StageError(self.name, exc) from exc
        return False


def _invariants(f, branches, config, memo, main=None):
    """All per-input invariants, used for both the main run and the
    perturbed rerun.  The reduction is the simulator's root reduction.
    `memo` holds the exact-node analyses that both runs share; the rerun
    passes the main run's invariants as `main`, and takes over its
    recursion, closed form and bound when its staircase is equal."""
    with _stage("conductors"):
        # a type I input has no t2-poles: its t2 loop runs and shows 0
        swans = dict(zip(("t1", "t2", "E"), conductors(f, 2)))
    with _stage("simulation"):
        sim = resolve(f, branches, config, memo=memo)
        stair = sim.representative.staircase
    with _stage("recursion"):
        if main is not None and main["staircase"] == stair:
            trace, closed, bound = (main["recursive"], main["closed"],
                                    main["bound"])
        else:
            trace = ramification_recursive(stair, branches)
            closed = ramification_closed_form(stair, branches)
            bound = ramification_bound(stair, branches)
    return {
        "staircase": stair,
        "swans": swans,
        "recursive": trace,
        "closed": closed,
        "bound": bound,
        "sim": sim,
    }


def _comparable(inv):
    # a lone (0, 0) corner and an empty staircase are the two normal forms
    # of a function regular at the point; every invariant agrees on them
    stair = inv["staircase"]
    return {
        "staircase": () if stair == ((0, 0),) else stair,
        "swans": inv["swans"],
        "recursive": inv["recursive"].total,
        "r_x": inv["sim"].total,
    }


def build_report(spec):
    with _stage("parse"):
        ctx = parse_field(spec.field)
        f = parse_polynomial(spec.expr, ctx)
        check_point(f, spec.branches)

    memo = {}
    inv = _invariants(f, spec.branches, spec.config, memo)
    stair, sim = inv["staircase"], inv["sim"]
    rep = sim.representative

    with _stage("perturbed-rerun"):
        rng = random.Random(spec.seed)
        h = random_polynomial(rng, ctx, 2, 2, nonneg_t2=spec.branches == 1)
        perturbed = _invariants(f + artin_schreier_map(h), spec.branches,
                                spec.config, memo, main=inv)

    verdicts = {}
    verdicts["recursion_equals_closed_form"] = {
        "pass": inv["recursive"].total == inv["closed"],
        "recursive": inv["recursive"].total,
        "closed_form": inv["closed"],
    }

    swans = inv["swans"]
    drop = sim.root.drop
    swan_route = swans["t1"] + swans["t2"] - swans["E"]
    verdicts["drop_identity"] = {
        "pass": drop == swan_route,
        "staircase_drop": drop,
        "conductor_drop": swan_route,
    }

    expected_t1, expected_t2 = end_conductors(stair)
    verdicts["swan_matches_staircase_ends"] = {
        "pass": swans["t1"] == expected_t1 and swans["t2"] == expected_t2,
        "swan_t1": swans["t1"], "expected_t1": expected_t1,
        "swan_t2": swans["t2"], "expected_t2": expected_t2,
    }

    agreement = sim.total == inv["recursive"].total
    verdicts["simulator_vs_recursion"] = {
        "pass": agreement or not sim.good_regime,
        "r_x": sim.total,
        "recursive": inv["recursive"].total,
        "good_regime": sim.good_regime,
        "classification": ("match" if agreement else
                           "discrepancy-nongood" if not sim.good_regime
                           else "DISCREPANCY-GOOD"),
    }

    # the bound theorem is contentful on non-clean staircases; on clean
    # ones nothing is blown up and the one-branch form can go negative
    bound_applies = len(stair) > 1
    verdicts["bound_holds"] = {
        "pass": (not bound_applies
                 or (sim.total <= inv["bound"]
                     and inv["recursive"].total <= inv["bound"])),
        "applicable": bound_applies,
        "bound": inv["bound"],
        "r_x": sim.total,
        "recursive": inv["recursive"].total,
    }

    verdicts["representative_independence"] = {
        "pass": _comparable(inv) == _comparable(perturbed),
        "perturbation": format_polynomial(h),
    }

    witness = rep.full_witness()
    data = {
        "input": {"field": spec.field, "type": "I" if spec.branches == 1 else "II",
                  "expr": spec.expr, "mode": spec.config.mode},
        "parsed": polynomial_as_triples(f),
        "good_representative": {
            "g": format_polynomial(rep.g),
            "witness": format_polynomial(witness),
            "witness_field": repr(witness.ctx),
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
    return Report(data=data, verdicts=verdicts)
