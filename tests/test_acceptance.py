"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Every expected
value is either derived by an independent oracle inside this file, taken
from a hand-checked regression, or recomputed through a second route.
"""

import random
import time

from wildram.blowup import SimulationConfig, resolve, tree_as_dict
from wildram.corpus import random_polynomial, random_staircase
from wildram.euler import SurfaceConfig, euler_delta
from wildram.fields import field
from wildram.laurent import LaurentPolynomial
from wildram.parsing import format_polynomial, parse_polynomial
from wildram.reduction import (artin_schreier_map, exceptional_swan,
                               good_representative, swan_conductor)
from wildram.staircase import (Staircase, essential_vertices,
                               ramification_bound, ramification_closed_form,
                               ramification_recursive, swan_drop)

FIELDS = (field(2), field(3), field(5))
RUN_FLAGS = ("good_regime", "off_origin_nonclean", "nonroot_repair",
             "constant_added_anywhere")


def _line(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:>2} [{status}] {description}"
          + (f"  ({detail})" if detail else ""))
    return ok


def _staircase_corpus(seed, count):
    rng = random.Random(seed)
    out = []
    for index in range(count):
        if index % 2 == 0:
            out.append((random_staircase(rng, shape="crossing"), 2))
        else:
            out.append((random_staircase(rng, shape="branch"), 1))
    return out


def test_criterion_1_closed_form():
    corpus = _staircase_corpus(101, 10000)
    started = time.time()
    mismatches = [
        (stair, branches) for stair, branches in corpus
        if ramification_recursive(stair, branches).total
        != ramification_closed_form(stair, branches)]
    elapsed = time.time() - started
    ok = not mismatches and elapsed < 10.0
    assert _line(1, "recursion equals closed form on 10000 staircases", ok,
                 f"{elapsed:.1f}s"), mismatches[:3]


def test_criterion_2_hull_invariance():
    corpus = _staircase_corpus(101, 10000)
    mismatches = [
        (stair, branches) for stair, branches in corpus
        if ramification_recursive(stair, branches).total
        != ramification_recursive(essential_vertices(stair), branches).total]
    assert _line(2, "recursion depends only on essential vertices",
                 not mismatches), mismatches[:3]


def test_criterion_3_worked_regressions():
    checks = [
        ramification_recursive(Staircase([(0, 0), (1, 4), (2, 5)]), 2).total == 10,
        ramification_recursive(Staircase([(0, 0), (1, 2)]), 1).total == 1,
        ramification_recursive(Staircase([(0, 0), (1, 1)]), 1).total == 0,
    ]
    for ctx in FIELDS:
        result = resolve(parse_polynomial("t1^-2*t2", ctx), 2)
        checks.append(result.total == 2 and result.depth == 2)
    assert _line(3, "hand-checked regressions", all(checks)), checks


def test_criterion_4_swan_class_invariance():
    rng = random.Random(104)
    failures = []
    for index in range(1000):
        ctx = FIELDS[index % 3]
        f = random_polynomial(rng, ctx, max_terms=4, exp_bound=9)
        h = random_polynomial(rng, ctx, max_terms=2, exp_bound=3)
        g = f + artin_schreier_map(h)
        for axis in ("t1", "t2"):
            if swan_conductor(f, axis) != swan_conductor(g, axis):
                failures.append((format_polynomial(f), axis))
        if exceptional_swan(f) != exceptional_swan(g):
            failures.append((format_polynomial(f), "E"))
    assert _line(4, "Swan conductors are class invariants (1000 pairs, "
                    "divisors t1/t2/E)", not failures), failures[:3]


def test_criterion_5_drop_identity_bridge():
    rng = random.Random(105)
    failures = []
    checked = 0
    for index in range(600):
        ctx = FIELDS[index % 3]
        f = random_polynomial(rng, ctx, max_terms=4, exp_bound=5)
        rep = good_representative(f)
        if not rep.quadrant_ok:
            continue
        checked += 1
        drop = swan_drop(rep.staircase)
        via_swans = (swan_conductor(f, "t1") + swan_conductor(f, "t2")
                     - exceptional_swan(f))
        if drop != via_swans:
            failures.append(format_polynomial(f))
    ok = not failures and checked >= 500
    assert _line(5, "staircase drop equals conductor drop on every "
                    "two-branch input", ok, f"{checked} checked"), failures[:3]


def test_criterion_6_witness_identity_and_idempotence():
    rng = random.Random(106)
    failures = []
    for index in range(600):
        ctx = FIELDS[index % 3]
        f = random_polynomial(rng, ctx, max_terms=4, exp_bound=5)
        rep = good_representative(f)
        # h = witness + r with r^p - r = constant_delta, over f's field
        if (f - rep.g - artin_schreier_map(rep.witness)
                != LaurentPolynomial.constant(rep.constant_delta)):
            failures.append((format_polynomial(f), "witness"))
        if good_representative(rep.g).g != rep.g:
            failures.append((format_polynomial(f), "idempotence"))
    assert _line(6, "witness identity f - g = h^p - h and idempotence "
                    "(600 inputs)", not failures), failures[:3]


def _simulation_corpus(seed, count):
    rng = random.Random(seed)
    out = [parse_polynomial("t1^-2*t2", field(2)),
           parse_polynomial("t1^-2*t2", field(3)),
           parse_polynomial("1 + t1^-1*t2^2", field(3)),
           parse_polynomial("t1^-2*t2 + t1^-4*t2^3", field(2)),
           parse_polynomial("t1^-3*t2^-1 + t1^-1*t2^-2", field(5))]
    for index in range(count):
        ctx = FIELDS[index % 3]
        out.append(random_polynomial(rng, ctx, max_terms=4, exp_bound=4))
    return out


def test_criterion_7_blowup_oracle_matches_recursion():
    corpus = _simulation_corpus(107, 300)
    good_matches = 0
    classified = 0
    failures = []
    for f in corpus:
        result = resolve(f, 2, SimulationConfig())
        recursive = ramification_recursive(
            good_representative(f).staircase, 2).total
        # the non-good regime, read off the tree here: an off-origin
        # non-clean point, or a repaired staircase below the root
        below = list(result.root.nodes())[1:]
        nongood = (any("@v=" in node.path for node in below)
                   or any(node.repair for node in below))
        assert nongood == (not result.good_regime), format_polynomial(f)
        if result.good_regime:
            if result.total == recursive:
                good_matches += 1
            else:
                failures.append((format_polynomial(f), result.total, recursive))
        else:
            # a discrepancy is allowed here; it is classified above
            classified += 1
    ok = not failures and good_matches >= 100
    assert _line(7, "blow-up total equals recursion on the good regime",
                 ok, f"{good_matches} good matches, {classified} "
                     f"classified non-good"), failures[:3]


def test_criterion_8_upper_bound():
    corpus = _simulation_corpus(107, 300)
    failures = []
    for f in corpus:
        result = resolve(f, 2, SimulationConfig())
        stair = good_representative(f).staircase
        if len(stair) <= 1:
            continue
        bound = ramification_bound(stair, 2)
        recursive = ramification_recursive(stair, 2).total
        if result.total > bound or recursive > bound:
            failures.append((format_polynomial(f), result.total,
                             recursive, bound))
    assert _line(8, "blow-up total and recursion stay below the bound "
                    "(non-good included)", not failures), failures[:3]


def test_criterion_9_candidates_and_sweep_agree():
    rng = random.Random(109)
    # the third input has a non-clean point that only the roots of c'
    # locate: its pole order 3 is divisible by p
    corpus = [parse_polynomial("t1^-2*t2 + t1^-4*t2^3", field(2)),
              parse_polynomial("t1^-2*t2 + t1^-3*t2^2", field(2)),
              parse_polynomial("t1^-4*t2 + t1^-5*t2^2", field(3))]
    for index in range(60):
        p = (2, 3)[index % 2]
        corpus.append(random_polynomial(rng, field(p), max_terms=3,
                                        exp_bound=3))
    failures = []
    for f in corpus:
        sweep_degree = 3 if f.ctx.p == 2 else 2
        direct = resolve(f, 2, SimulationConfig(mode="candidates"))
        swept = resolve(f, 2, SimulationConfig(mode="sweep",
                                               sweep_degree=sweep_degree))
        if (tree_as_dict(direct.root) != tree_as_dict(swept.root)
                or any(getattr(direct, flag) != getattr(swept, flag)
                       for flag in RUN_FLAGS)):
            failures.append(format_polynomial(f))
    assert _line(9, "candidate and sweep modes certify identical trees "
                    "and run flags", not failures), failures[:3]


def test_criterion_10_euler_formula():
    trivial = SurfaceConfig(components=(("L", 0),), intersections=((1,),),
                            klog=(-2,), r_sum=0)
    single = SurfaceConfig(components=(("D", 2),), intersections=((1,),),
                           klog=(-3,), r_sum=0)
    double = SurfaceConfig(components=(("D1", 1), ("D2", 1)),
                           intersections=((0, 1), (1, 0)), klog=(0, 0),
                           r_sum=2)
    ok = (euler_delta(trivial).delta == 0
          and euler_delta(single).delta == -2
          and euler_delta(double).delta == 0)
    assert _line(10, "Euler-characteristic delta on the worked configs", ok)
