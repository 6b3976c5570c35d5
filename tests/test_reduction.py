import random

import pytest

from wildram.corpus import random_polynomial
from wildram.fields import field
from wildram.laurent import LaurentPolynomial, blowup_substitute
from wildram.parsing import parse_polynomial
from wildram.reduction import (artin_schreier_map, artin_schreier_root,
                               exceptional_swan, good_representative,
                               swan_conductor)
from wildram.staircase import Staircase, is_clean_shape

F2 = field(2)
F3 = field(3)
F5 = field(5)


def poly(text, ctx):
    return parse_polynomial(text, ctx)


def test_map_char2():
    assert artin_schreier_map(poly("t1^-1", F2)) == poly("t1^-2 + t1^-1", F2)


def test_map_char3():
    got = artin_schreier_map(poly("t1^-1*t2^-1", F3))
    assert got == poly("t1^-3*t2^-3 + 2*t1^-1*t2^-1", F3)


def test_map_of_zero():
    assert not artin_schreier_map(LaurentPolynomial.zero(F3))


def test_artin_schreier_root_in_base():
    # x^2 - x = x^2 + x over F_2: beta(1) = 0, so 0 has roots in F_2
    r = artin_schreier_root(F3.element(0))
    assert r ** 3 - r == F3.zero()


def test_artin_schreier_root_needs_extension():
    r = artin_schreier_root(F2.one())       # x^2 + x + 1 is irreducible
    assert r.ctx == field(2, 2)
    assert r ** 2 - r == field(2, 2).one()


# ---------------------------------------------------------------------------
# reduction to a good representative
# ---------------------------------------------------------------------------

def test_reduce_double_pole_char2():
    rep = good_representative(poly("t1^-2", F2))
    assert rep.g == poly("t1^-1", F2)
    assert rep.full_witness() == poly("t1^-1", F2)
    assert rep.staircase == Staircase([(1, 0)])
    assert rep.reductions == 1 and not rep.constant_added


def test_reduce_corner_char3():
    rep = good_representative(poly("t1^-3*t2^-3", F3))
    assert rep.g == poly("t1^-1*t2^-1", F3)
    assert rep.staircase == Staircase([(1, -1)])


def test_constant_repair():
    rep = good_representative(poly("t1^-2*t2", F5))
    assert rep.constant_added
    assert rep.g == poly("1 + t1^-2*t2", F5)
    assert rep.staircase == Staircase([(0, 0), (2, 1)])
    assert rep.quadrant_ok


def test_witness_identity_with_constant():
    f = poly("t1^-2*t2", F2)
    rep = good_representative(f)
    h = rep.full_witness()
    lhs = f.embed_into(h.ctx) - rep.g.embed_into(h.ctx)
    assert lhs == artin_schreier_map(h)


def test_trivial_inputs():
    rep = good_representative(LaurentPolynomial.zero(F3))
    assert not rep.g and len(rep.staircase) == 0 and not rep.constant_added
    # a pure constant defines the trivial cover up to the reduction class
    rep = good_representative(poly("2", F3))
    assert not rep.g
    h = rep.full_witness()
    assert artin_schreier_map(h) == poly("2", F3).embed_into(h.ctx)


def test_idempotence_randomized():
    rng = random.Random(4)
    for _ in range(150):
        ctx = [F2, F3, F5][rng.randrange(3)]
        f = random_polynomial(rng, ctx)
        rep = good_representative(f)
        again = good_representative(rep.g)
        assert again.g == rep.g
        assert again.staircase == rep.staircase


def test_reduction_order_does_not_matter():
    rng = random.Random(5)
    for _ in range(120):
        ctx = [F2, F3][rng.randrange(2)]
        f = random_polynomial(rng, ctx, max_terms=5, exp_bound=6)
        baseline = good_representative(f)
        shuffled = good_representative(f, corner_order="random",
                                       rng=random.Random(rng.random()))
        assert shuffled.g == baseline.g


def test_no_reducible_corners_remain():
    rng = random.Random(6)
    for _ in range(200):
        ctx = [F2, F3, F5][rng.randrange(3)]
        rep = good_representative(random_polynomial(rng, ctx))
        p = ctx.p
        for a, b in rep.staircase:
            assert (a, b) == (0, 0) or a % p or b % p
        if rep.g:
            assert rep.quadrant_ok


# ---------------------------------------------------------------------------
# Swan conductors
# ---------------------------------------------------------------------------

def test_swan_prime_to_p_pole():
    sw = swan_conductor(poly("t1^-3 + t2^-2", F5), "t1")
    assert type(sw) is int and sw == 3


def test_swan_reduces_p_divisible_pole():
    # the raw pole is 2; the value 1 shows that the loop reduced
    sw = swan_conductor(poly("t1^-2", F2), "t1")
    assert type(sw) is int and sw == 1


def test_swan_regular_direction():
    for sw, expected in (
            (swan_conductor(poly("t1^-3 + t2^-2", F5), "t2"), 2),
            (swan_conductor(poly("t2 + 1", F5), "t1"), 0),
            (swan_conductor(LaurentPolynomial.zero(F2), "t1"), 0)):
        assert type(sw) is int and sw == expected


def test_swan_blocked_by_mixed_column():
    # pole order 2 is even but the leading coefficient has an odd exponent
    sw = swan_conductor(poly("t1^-2*t2", F2), "t1")
    assert type(sw) is int and sw == 2


def test_exceptional_swan_examples():
    for sw, expected in (
            (exceptional_swan(poly("1 + t1^-2*t2", F3)), 1),
            (exceptional_swan(poly("1 + t1^-1*t2^2", F3)), 0),
            (exceptional_swan(LaurentPolynomial.zero(F3)), 0)):
        assert type(sw) is int and sw == expected


def test_exceptional_swan_chart_independent():
    rng = random.Random(7)
    for _ in range(150):
        ctx = [F2, F3, F5][rng.randrange(3)]
        f = random_polynomial(rng, ctx)
        via_first = exceptional_swan(f)
        via_second = swan_conductor(blowup_substitute(f, "B"), "t2")
        assert via_first == via_second


def test_swan_class_invariance_randomized():
    rng = random.Random(8)
    for _ in range(200):
        ctx = [F2, F3, F5][rng.randrange(3)]
        f = random_polynomial(rng, ctx, exp_bound=3)
        h = random_polynomial(rng, ctx, max_terms=2, exp_bound=3)
        g = f + artin_schreier_map(h)
        for axis in ("t1", "t2"):
            assert swan_conductor(f, axis) == swan_conductor(g, axis)
        assert exceptional_swan(f) == exceptional_swan(g)


def test_swan_reads_off_good_staircase():
    rng = random.Random(9)
    for _ in range(200):
        ctx = [F2, F3, F5][rng.randrange(3)]
        rep = good_representative(random_polynomial(rng, ctx))
        if len(rep.staircase) == 0:
            continue
        assert swan_conductor(rep.g, "t1") == max(rep.staircase[-1][0], 0)
        assert swan_conductor(rep.g, "t2") == max(-rep.staircase[0][1], 0)


# ---------------------------------------------------------------------------
# cleanness
# ---------------------------------------------------------------------------

def test_is_clean_examples():
    def is_clean(f, branches):
        return is_clean_shape(good_representative(f).staircase, branches)

    assert is_clean(poly("t1^-2*t2^-1", F3), 2)
    assert not is_clean(poly("1 + t1^-2*t2", F3), 2)
    assert is_clean(poly("t1^-1", F5), 1)


def test_swan_raises_when_column_truncated_before_verdict():
    from wildram.laurent import PrecisionLossError
    # even pole order, certified part of the column all even exponents,
    # but the column is cut: the divisibility verdict cannot be certified
    f = LaurentPolynomial(F2, {(-2, 0): F2.one()},
                          unknown={(-2, 2)})
    with pytest.raises(PrecisionLossError):
        swan_conductor(f, "t1")


def test_swan_certified_blocker_beats_truncation():
    # an exact odd exponent in the column blocks reduction regardless of
    # what the truncated tail hides
    f = LaurentPolynomial(F2, {(-2, 1): F2.one()},
                          unknown={(-2, 3)})
    assert swan_conductor(f, "t1") == 2
