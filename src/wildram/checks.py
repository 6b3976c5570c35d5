"""The agreement checks of one input, defined once for ``report`` and
``corpus``.

``record`` computes one input's invariants along every route, and
``evaluate`` runs the table ``CHECKS`` over it.  Each check returns a
verdict: a dict whose "pass" entry says whether the routes agree, and
whose other entries are what it compared.
"""

from __future__ import annotations

from .blowup import resolve
from .parsing import format_polynomial
from .reduction import artin_schreier_map, conductors
from .staircase import (end_conductors, ramification_bound,
                        ramification_closed_form, ramification_recursive)


class StageError(RuntimeError):
    """An inner-module failure, tagged with the pipeline stage."""

    def __init__(self, stage, original):
        self.stage = stage
        self.original = original
        super().__init__(f"in stage {stage}: {original}")


class _stage:
    """Tags an ``Exception`` raised inside with the stage's name; a
    ``KeyboardInterrupt`` or ``SystemExit`` passes through untouched."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, Exception) and not isinstance(exc, StageError):
            raise StageError(self.name, exc) from exc
        return False


def _invariants(f, branches, config, memo, main=None):
    """The invariants of one run; the perturbed rerun passes the main
    run's as `main`."""
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


def record(f, branches, h, config=None):
    """The record the checks read: the invariants of f, with those of
    f + (h^p - h) under "perturbed" and h under "perturbation".  A
    failure raises ``StageError`` naming its stage.

    f is reduced once, by the simulator: the record reads its
    representative and staircase from ``resolve``'s root reduction.  The
    perturbed rerun shares with the main run what depends only on values:
    both ``resolve`` calls take one memo of node analyses, so a node
    polynomial equal to one the main run analysed (often every node below
    a root whose good representative is the input's) is not reduced again;
    and when the rerun's staircase equals the main run's, the recursion,
    closed form and bound are the main run's, which recomputing would
    reproduce.  The rerun still computes itself the conductors of the
    perturbed input, the reduction of its root (unless it equals the
    input), its own blow-up tree, and so its own r_x."""
    memo = {}
    inv = _invariants(f, branches, config, memo)
    with _stage("perturbed-rerun"):
        perturbed = _invariants(f + artin_schreier_map(h), branches, config,
                                memo, main=inv)
    return dict(inv, perturbed=perturbed, perturbation=h)


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


def recursion_equals_closed_form(rec):
    return {
        "pass": rec["recursive"].total == rec["closed"],
        "recursive": rec["recursive"].total,
        "closed_form": rec["closed"],
    }


def drop_identity(rec):
    swans = rec["swans"]
    drop = rec["sim"].root.drop
    swan_route = swans["t1"] + swans["t2"] - swans["E"]
    return {
        "pass": drop == swan_route,
        "staircase_drop": drop,
        "conductor_drop": swan_route,
    }


def swan_matches_staircase_ends(rec):
    swans = rec["swans"]
    expected_t1, expected_t2 = end_conductors(rec["staircase"])
    return {
        "pass": swans["t1"] == expected_t1 and swans["t2"] == expected_t2,
        "swan_t1": swans["t1"], "expected_t1": expected_t1,
        "swan_t2": swans["t2"], "expected_t2": expected_t2,
    }


def simulator_vs_recursion(rec):
    """Where the totals may differ, on a non-good input, the verdict
    classifies the discrepancy: it is never a silent pass."""
    sim, recursive = rec["sim"], rec["recursive"].total
    agreement = sim.total == recursive
    return {
        "pass": agreement or not sim.good_regime,
        "r_x": sim.total,
        "recursive": recursive,
        "good_regime": sim.good_regime,
        "classification": ("match" if agreement else
                           "discrepancy-nongood" if not sim.good_regime
                           else "DISCREPANCY-GOOD"),
    }


def bound_holds(rec):
    r_x, recursive = rec["sim"].total, rec["recursive"].total
    bound = rec["bound"]
    # the bound theorem is contentful on non-clean staircases; on clean
    # ones nothing is blown up and the one-branch form can go negative
    applies = len(rec["staircase"]) > 1
    return {
        "pass": not applies or (r_x <= bound and recursive <= bound),
        "applicable": applies,
        "bound": bound,
        "r_x": r_x,
        "recursive": recursive,
    }


def representative_independence(rec):
    return {
        "pass": _comparable(rec) == _comparable(rec["perturbed"]),
        "perturbation": format_polynomial(rec["perturbation"]),
    }


# the verdicts, in the order a report lists them
CHECKS = (
    recursion_equals_closed_form,   # recursion total == closed form
    drop_identity,                  # staircase drop == the loops' drop
    swan_matches_staircase_ends,    # raw conductors == staircase ends
    simulator_vs_recursion,         # blow-up total vs recursion total
    bound_holds,                    # both totals below the proven bound
    representative_independence,    # nothing moves under f + (h^p - h)
)


def evaluate(rec):
    """The verdict of every check, by name, in table order."""
    return {check.__name__: check(rec) for check in CHECKS}
