"""Seeded random corpora and the differential check runner.

Two corpus shapes drive the property suites: random valid staircases for
the pure combinatorics, and random Laurent polynomials with bounded pole
orders, of types II and I in turn, for the report's check table and the
reduction's witness.  Runs are deterministic given the seed.  A failing
staircase is greedily minimized (dropping points while the failure
persists) before it is reported; a failing Laurent polynomial is
reported as drawn, by the command line options that rerun it.
"""

from __future__ import annotations

import random

from .checks import StageError, evaluate, record
from .laurent import LaurentPolynomial
from .parsing import format_polynomial, parse_field
from .reduction import artin_schreier_map, good_representative
from .staircase import (Staircase, essential_vertices, max_diagonal,
                        ramification_bound, ramification_closed_form,
                        ramification_recursive)

# the coefficient fields of the laurent corpus, used in turn
LAURENT_FIELDS = ("2", "3", "5")


def random_staircase(rng, max_segments=6, coord_bound=40, shape="crossing"):
    """A random valid staircase of the requested shape.

    "crossing" produces the shape of a reduced representative at a
    two-branch point: some vertex lands in the quadrant a >= 0, b <= 0
    (the closed form and the bound are theorems only there).  "branch"
    produces the one-branch shape: b_0 = 0, a_0 >= 0, no t2 poles.
    "any" drops all constraints beyond monotonicity.
    """
    half = coord_bound // 2
    count = rng.randint(1, max_segments + 1)
    if shape == "any":
        span = list(range(-coord_bound, coord_bound + 1))
        return Staircase(list(zip(sorted(rng.sample(span, count)),
                                  sorted(rng.sample(span, count)))))
    if shape == "branch":
        heights = [0] + sorted(rng.sample(range(1, coord_bound + 1), count - 1))
        return Staircase(list(zip(sorted(rng.sample(range(0, coord_bound + 1),
                                                    count)),
                                  heights)))
    if shape != "crossing":
        raise ValueError(f"unknown staircase shape {shape!r}")
    span = list(range(-half, half + 1))
    aa = sorted(rng.sample(span, count))
    bb = sorted(rng.sample(span, count))
    pivot = rng.randrange(count)
    shift_a = rng.randint(0, half) - aa[pivot]
    shift_b = rng.randint(-half, 0) - bb[pivot]
    return Staircase([(a + shift_a, b + shift_b) for a, b in zip(aa, bb)])


def random_polynomial(rng, ctx, max_terms=4, exp_bound=4, nonneg_t2=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.randint(-exp_bound, exp_bound)
        n = rng.randint(0 if nonneg_t2 else -exp_bound, exp_bound)
        enc = rng.randrange(1, ctx.order)
        terms[(m, n)] = ctx.from_encoding(enc)
    return LaurentPolynomial(ctx, terms)


def _staircase_checks(stair, branches):
    """Returns a dict of check name -> bool for one good-shaped staircase."""
    out = {}
    try:
        total = ramification_recursive(stair, branches).total
        out[f"closed_form_type_{branches}"] = (
            total == ramification_closed_form(stair, branches))
        out[f"ess_invariance_type_{branches}"] = (
            total == ramification_recursive(essential_vertices(stair),
                                            branches).total)
    except Exception:
        out[f"closed_form_type_{branches}"] = False
        out[f"ess_invariance_type_{branches}"] = False
    # the bound is contentful on non-clean staircases (clean ones need no
    # blow-up; the one-branch form goes negative on b = 0 singletons)
    if len(stair) > 1:
        out[f"bound_type_{branches}"] = (
            ramification_closed_form(stair, branches)
            <= ramification_bound(stair, branches))
    hull = essential_vertices(stair)
    out["hull_idempotent"] = essential_vertices(hull) == hull
    out["max_diagonal_preserved"] = max_diagonal(stair) == max_diagonal(hull)
    slopes_ok = all(
        (hull[i + 1][1] - hull[i][1]) * (hull[i + 2][0] - hull[i + 1][0])
        < (hull[i + 2][1] - hull[i + 1][1]) * (hull[i + 1][0] - hull[i][0])
        for i in range(len(hull) - 2))
    out["hull_slopes_increase"] = slopes_ok
    return out


def _minimize_staircase(stair, check, branches):
    """Greedy: drop interior points while the check still fails."""
    points = list(stair)
    changed = True
    while changed and len(points) > 1:
        changed = False
        for i in range(len(points)):
            # a nonempty part of a staircase is a staircase
            trial = points[:i] + points[i + 1:]
            results = _staircase_checks(Staircase(trial), branches)
            if not results.get(check, True):
                points = trial
                changed = True
                break
    return Staircase(points)


def _reduction_checks(f, rep):
    """Checks on the reduction of f to its good representative rep,
    which the report gives no verdict on."""
    out = {}
    # f - g = h^p - h for h = witness + r, r^p - r = constant_delta, read
    # over f's own field from the record alone, apart from
    # GoodRepresentative.verify
    out["witness_identity"] = (
        f - rep.g - artin_schreier_map(rep.witness)
        == LaurentPolynomial.constant(rep.constant_delta))
    # when the reduction left f as it was, reducing g reruns the same
    # computation on the same input, which cannot fail
    if rep.g != f:
        again = good_representative(rep.g)
        out["idempotent"] = again.g == rep.g
    return out


def run_corpus(seed, count, mode):
    """Run the differential suite over `count` random inputs.

    mode "staircase" exercises the pure combinatorics; mode "laurent" the
    algebra and the simulator.  The summary is a plain dict,
    deterministic for a given argument tuple.
    """
    if mode not in ("staircase", "laurent"):
        raise ValueError(f"unknown corpus mode {mode!r}")
    # a run of no inputs checks nothing, so it could not fail
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    checks = {}

    def tally(name, ok, witness):
        entry = checks.setdefault(
            name, {"pass": 0, "fail": 0, "counterexamples": []})
        entry["pass" if ok else "fail"] += 1
        if not ok and len(entry["counterexamples"]) < 3:
            entry["counterexamples"].append(witness)

    for index in range(count):
        branches = 2 if index % 2 == 0 else 1
        if mode == "staircase":
            shape = "crossing" if branches == 2 else "branch"
            stair = random_staircase(rng, shape=shape)
            results = _staircase_checks(stair, branches)
            for name, ok in results.items():
                witness = None
                if not ok:
                    small = _minimize_staircase(stair, name, branches)
                    witness = list(small)
                tally(name, ok, witness)
        else:
            fld = LAURENT_FIELDS[index % len(LAURENT_FIELDS)]
            ctx = parse_field(fld)
            f = random_polynomial(rng, ctx, nonneg_t2=branches == 1)
            h = random_polynomial(rng, ctx, max_terms=2, exp_bound=2,
                                  nonneg_t2=branches == 1)
            # the command line that reruns the input
            line = (f"{format_polynomial(f)} --field {fld}"
                    f" --type {'I' if branches == 1 else 'II'}")
            try:
                rec = record(f, branches, h)
                verdicts = evaluate(rec)
                # the simulator's root reduction is the input's only one
                results = _reduction_checks(f, rec["sim"].representative)
            except Exception as err:
                cause = err.original if isinstance(err, StageError) else err
                tally("no_exception", False,
                      f"{line}: {type(cause).__name__}: {cause}")
                continue
            tally("no_exception", True, None)
            for name, verdict in verdicts.items():
                tally(name, verdict["pass"],
                      f"{line} with perturbation {verdict['perturbation']}"
                      if "perturbation" in verdict else line)
            for name, ok in results.items():
                tally(name, ok, line)

    return {
        "seed": seed,
        "count": count,
        "mode": mode,
        "checks": dict(sorted(checks.items())),
        "all_pass": all(entry["fail"] == 0 for entry in checks.values()),
    }
