import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from wildram.corpus import random_polynomial
from wildram.fields import field
from wildram.laurent import (LaurentPolynomial, PrecisionLossError,
                             blowup_substitute, translate,
                             undominated_unknowns)
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
# the witness identity check
# ---------------------------------------------------------------------------

def _accepts(rep, f):
    try:
        rep.verify(f)
    except RuntimeError:
        return False
    return True


def test_constant_repair_follows_a_reduction_that_uncovers_a_corner():
    # the truncated probe that sweep mode reduces on
    # t2^-3 + t1^-1*t2^-3 + t1^-3*t2^-1 over F_2, cut down to the terms
    # that matter: t1^-6 dominates both unknown corners, so no repair is
    # due before the first reduction; reducing the corner (6, 0) turns
    # t1^-6 into t1^-3, which cancels the other t1^-3 and leaves the
    # unknown corner (8, 0) undominated in the positive quadrant
    one = F2.one()
    f = LaurentPolynomial(F2, {(-6, 0): one, (-3, 0): one, (-6, 1): one},
                          {(-6, 16), (8, 0)})
    assert not undominated_unknowns(f)
    rep = good_representative(f)
    assert rep.reductions == 1 and rep.constant_added
    assert rep.g.terms == {(0, 0): one, (-6, 1): one}
    assert rep.staircase == Staircase([(0, 0), (6, 1)])
    assert rep.quadrant_ok


def _residual_accepts(rep, f):
    """The witness identity by its definition: the residual
    f - g - (h^p - h) is exactly the recorded constant at (0, 0).  Unknown
    corners are not compared."""
    residual = f - rep.g - artin_schreier_map(rep.witness)
    expected = {(0, 0): rep.constant_delta} if rep.constant_delta else {}
    return residual.terms == expected


def _with_terms(poly, terms, unknown=None):
    return LaurentPolynomial(poly.ctx, terms,
                             poly.unknown if unknown is None else unknown)


def _bump_g(rep, exponent, coeff):
    terms = dict(rep.g.terms)
    terms[exponent] = terms.get(exponent, rep.g.ctx.zero()) + coeff
    return dataclasses.replace(rep, g=_with_terms(rep.g, terms))


def _drop_witness_term(rep, exponent):
    terms = {e: c for e, c in rep.witness.terms.items() if e != exponent}
    return dataclasses.replace(rep, witness=_with_terms(rep.witness, terms))


def _shift_delta(rep, coeff):
    return dataclasses.replace(rep, constant_delta=rep.constant_delta + coeff)


def _move_into_witness(rep, piece):
    """g - (x^p - x) with witness + x: the same class, so still a valid
    witness identity, though neither the g nor the witness recorded."""
    return dataclasses.replace(rep, g=rep.g - artin_schreier_map(piece),
                               witness=rep.witness + piece)


WITNESS_CASES = [
    # exact, one corner reduction and a constant
    (F3, "t1^-3*t2^-3 + t1^-1 + 1", None),
    # truncated by a translation, three corner reductions and a constant
    (F2, "t1^-4*t2^2 + t1^-1*t2^-1", 4),
]


def _witness_case(ctx, text, budget):
    f = poly(text, ctx)
    if budget is not None:
        f = translate(f, ctx.one(), budget)
    rep = good_representative(f)
    assert rep.reductions >= 1 and rep.witness and rep.constant_delta
    assert f.is_exact == (budget is None)
    return f, rep


@pytest.mark.parametrize("ctx, text, budget", WITNESS_CASES)
def test_verify_raises_on_a_tampered_representative(ctx, text, budget):
    f, rep = _witness_case(ctx, text, budget)
    rep.verify(f)
    exponent = sorted(rep.g.exact_terms())[0]
    tampered = [_bump_g(rep, exponent, ctx.one()),
                _drop_witness_term(rep, sorted(rep.witness.terms)[0]),
                _shift_delta(rep, ctx.one())]
    for bad in tampered:
        with pytest.raises(RuntimeError, match="witness identity"):
            bad.verify(f)
    # another witness of the same class passes, and so do other unknown
    # corners on g: they are not part of the identity
    moved = _move_into_witness(rep, LaurentPolynomial.monomial(ctx.one(), -1, 2))
    assert moved.g != rep.g
    moved.verify(f)
    dataclasses.replace(rep, g=_with_terms(rep.g, rep.g.terms,
                                           {(5, 5)})).verify(f)


ZERO_WITNESS_CASES = [
    # exact, no corner reduction, a constant
    (F3, "t1^-1*t2^-2 + 2", None),
    # truncated by a translation, no corner reduction, a constant
    (F5, "t1^-3*t2^-1 + t1^-1 + 3", 4),
]


@pytest.mark.parametrize("ctx, text, budget", ZERO_WITNESS_CASES)
def test_verify_without_a_witness_still_checks_g_and_the_constant(
        ctx, text, budget):
    # a zero witness skips only the sum of its Artin-Schreier image: every
    # coefficient of g and the constant are still compared with f
    f = poly(text, ctx)
    if budget is not None:
        f = translate(f, ctx.one(), budget)
    rep = good_representative(f)
    assert not rep.witness and rep.reductions == 0 and rep.constant_delta
    rep.verify(f)
    tampered = [_bump_g(rep, exponent, ctx.one())
                for exponent in sorted(rep.g.exact_terms())]
    tampered += [_shift_delta(rep, ctx.one()),
                 dataclasses.replace(rep, constant_delta=ctx.zero())]
    for bad in tampered:
        with pytest.raises(RuntimeError, match="witness identity"):
            bad.verify(f)


WITNESS_FIELDS = [F2, F3, F5, field(2, 2)]


@st.composite
def witness_inputs(draw):
    ctx = draw(st.sampled_from(WITNESS_FIELDS))
    exps = st.tuples(st.integers(-6, 4), st.integers(-6, 4))
    terms = draw(st.dictionaries(exps, st.integers(1, ctx.order - 1),
                                 max_size=5))
    f = LaurentPolynomial(ctx, {e: ctx.from_encoding(v)
                                for e, v in terms.items()})
    budget = draw(st.one_of(st.none(), st.integers(1, 6)))
    if budget is not None:
        shift = ctx.from_encoding(draw(st.integers(1, ctx.order - 1)))
        f = translate(f, shift, budget)
    return f, draw(exps), draw(st.integers(1, ctx.order - 1)), draw(
        st.sampled_from(["none", "g", "witness", "delta", "moved", "unknown"]))


@given(witness_inputs())
def test_verify_accepts_what_the_residual_definition_accepts(case):
    f, exponent, enc, tamper = case
    try:
        rep = good_representative(f)
    except PrecisionLossError:
        return
    coeff = f.ctx.from_encoding(enc)
    # whether the tampering leaves f - g - (h^p - h) as it was
    same_class = tamper in ("none", "moved", "unknown")
    if tamper == "g":
        rep = _bump_g(rep, exponent, coeff)
    elif tamper == "witness" and rep.witness:
        rep = _drop_witness_term(rep, sorted(rep.witness.terms)[0])
    elif tamper == "witness":
        # a constant of the prime field is its own p-th power
        same_class = exponent == (0, 0) and coeff ** f.ctx.p == coeff
        rep = dataclasses.replace(
            rep, witness=LaurentPolynomial.monomial(coeff, *exponent))
    elif tamper == "delta":
        rep = _shift_delta(rep, coeff)
    elif tamper == "moved":
        rep = _move_into_witness(rep, LaurentPolynomial.monomial(
            coeff, *exponent))
    elif tamper == "unknown":
        rep = dataclasses.replace(rep, g=_with_terms(rep.g, rep.g.terms,
                                                     {exponent}))
    assert _accepts(rep, f) == _residual_accepts(rep, f) == same_class


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
