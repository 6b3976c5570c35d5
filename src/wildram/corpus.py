"""Seeded random corpora and the differential check runner.

Two corpus shapes drive the property suites: random valid staircases for
the pure combinatorics, and random Laurent polynomials with bounded pole
orders for the algebra and the simulator.  Runs are deterministic given
the seed, and failing cases are greedily minimized (dropping points or
terms while the failure persists) before being reported.
"""

from __future__ import annotations

import random

from .blowup import resolve
from .laurent import LaurentPolynomial
from .parsing import format_polynomial, parse_field
from .reduction import artin_schreier_map, conductors, good_representative
from .staircase import (Staircase, end_conductors, essential_vertices,
                        max_diagonal, ramification_bound,
                        ramification_closed_form, ramification_recursive,
                        swan_drop)

# the coefficient fields of the laurent corpus, used in turn
LAURENT_FIELDS = ("2^1", "3^1", "5^1")


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


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _staircase_checks(stair, rule, branches):
    """Returns a dict of check name -> bool for one good-shaped staircase."""
    out = {}
    try:
        total = ramification_recursive(stair, branches, rule=rule).total
        out[f"closed_form_type_{branches}"] = (
            total == ramification_closed_form(stair, branches))
        out[f"ess_invariance_type_{branches}"] = (
            total == ramification_recursive(essential_vertices(stair),
                                            branches, rule=rule).total)
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


def _minimize_staircase(stair, failing):
    """Greedy: drop interior points while the check still fails."""
    points = list(stair)
    changed = True
    while changed and len(points) > 1:
        changed = False
        for i in range(len(points)):
            trial = points[:i] + points[i + 1:]
            try:
                candidate = Staircase(trial)
            except Exception:
                continue
            if len(candidate) == 0:
                continue
            if not _staircase_checks(candidate, failing["rule"],
                                     failing["branches"]).get(
                    failing["check"], True):
                points = trial
                changed = True
                break
    return Staircase(points)


def _poly_checks(f, rng):
    out = {}
    ctx = f.ctx
    rep = good_representative(f)
    # f - g = h^p - h with the constant's Artin-Schreier root materialized
    # in its own field, which GoodRepresentative.verify leaves out
    witness = rep.full_witness()
    out["witness_identity"] = (
        f.embed_into(witness.ctx) - rep.g.embed_into(witness.ctx)
        == artin_schreier_map(witness))
    again = good_representative(rep.g)
    out["idempotent"] = again.g == rep.g

    h = random_polynomial(rng, ctx, max_terms=2, exp_bound=2)
    g2 = f + artin_schreier_map(h)
    for axis, before, after in zip(("t1", "t2", "E"), conductors(f, 2),
                                   conductors(g2, 2)):
        out[f"swan_invariance_{axis}"] = before == after

    stair = rep.staircase
    if len(stair):
        sw1, sw2, swe = conductors(rep.g, 2)
        end1, end2 = end_conductors(stair)
        out["swan_from_staircase_t1"] = sw1 == end1
        out["swan_from_staircase_t2"] = sw2 == end2
        out["drop_identity"] = swan_drop(stair) == sw1 + sw2 - swe
    return out


def _simulation_checks(f):
    out = {}
    rep = good_representative(f)
    stair = rep.staircase
    recursive = ramification_recursive(stair, 2).total
    bound = ramification_bound(stair, 2)
    sim = resolve(f, 2)
    out["bound_r_x"] = sim.total <= bound
    out["bound_recursive"] = recursive <= bound
    if sim.good_regime:
        out["oracle_good_regime"] = sim.total == recursive
    return out


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def run_corpus(seed, count, mode, rule="minimal", simulate=False):
    """Run the differential suite over `count` random inputs.

    mode "staircase" exercises the pure combinatorics; mode "laurent" the
    algebra, optionally including the simulator checks.  The summary is a
    plain dict, deterministic for a given argument tuple.
    """
    if mode not in ("staircase", "laurent"):
        raise ValueError(f"unknown corpus mode {mode!r}")
    rng = random.Random(seed)
    checks = {}
    counterexamples = {}

    def record(name, ok, witness):
        passed, failed = checks.get(name, (0, 0))
        if ok:
            checks[name] = (passed + 1, failed)
        else:
            checks[name] = (passed, failed + 1)
            counterexamples.setdefault(name, [])
            if len(counterexamples[name]) < 3:
                counterexamples[name].append(witness)

    for index in range(count):
        if mode == "staircase":
            branches = 2 if index % 2 == 0 else 1
            shape = "crossing" if branches == 2 else "branch"
            stair = random_staircase(rng, shape=shape)
            results = _staircase_checks(stair, rule, branches)
            for name, ok in results.items():
                witness = None
                if not ok:
                    small = _minimize_staircase(
                        stair, {"check": name, "rule": rule,
                                "branches": branches})
                    witness = list(small)
                record(name, ok, witness)
        else:
            ctx = parse_field(LAURENT_FIELDS[index % len(LAURENT_FIELDS)])
            f = random_polynomial(rng, ctx)
            try:
                results = _poly_checks(f, rng)
                if simulate:
                    results.update(_simulation_checks(f))
            except Exception as err:
                record("no_exception", False,
                       f"{format_polynomial(f)}: {type(err).__name__}: {err}")
                continue
            record("no_exception", True, None)
            for name, ok in results.items():
                record(name, ok, format_polynomial(f) if not ok else None)

    return {
        "seed": seed,
        "count": count,
        "mode": mode,
        "rule": rule,
        "checks": {name: {"pass": p, "fail": fl,
                          "counterexamples": counterexamples.get(name, [])}
                   for name, (p, fl) in sorted(checks.items())},
        "all_pass": all(fl == 0 for _, fl in checks.values()),
    }
