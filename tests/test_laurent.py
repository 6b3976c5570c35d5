import copy
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

import series_reference as ref
from wildram.fields import ContextMismatchError, embed, field
from wildram.laurent import (LaurentPolynomial, PrecisionLossError,
                             _binomial_row, _sorted_corners, blowup_substitute,
                             leading_column, pole_staircase, translate,
                             transpose, valuation)
from wildram.parsing import parse_polynomial
from wildram.staircase import Staircase


def poly(text, ctx):
    return parse_polynomial(text, ctx)


F2 = field(2)
F3 = field(3)
F5 = field(5)


def test_canonical_form_drops_zeros():
    f = LaurentPolynomial(F5, {(1, 1): F5.zero(), (0, 0): F5.one()})
    assert set(f.terms) == {(0, 0)}


def test_constructor_refuses_non_integer_exponents_and_corners():
    # nothing is truncated: -1.5 is not read as -1, nor '3' as 3, in the
    # terms or in a denominator
    one = F2.one()
    with pytest.raises(TypeError):
        LaurentPolynomial(F2, {(-1.5, 2.9): one})
    with pytest.raises(TypeError):
        LaurentPolynomial(F2, {("3", "4"): one})
    with pytest.raises(TypeError):
        LaurentPolynomial(F2, {(3, 4): one},
                          LaurentPolynomial(F2, {(0, 0): one, (0.5, 1): one}))
    with pytest.raises(TypeError):
        LaurentPolynomial.monomial(one, 1.7, -2.2)
    assert set(LaurentPolynomial.monomial(one, 1, -2).terms) == {(1, -2)}


@pytest.mark.parametrize("text", ["t2", "1 + t2^-1", "1 + t1^-1*t2",
                                  "t2 + t1", "1", "2"])
def test_constructor_refuses_a_denominator_that_is_no_unit(text):
    # V must be a polynomial with a nonzero constant term, so that 1 / V^p
    # is a power series with a nonzero constant term, and not a constant,
    # which belongs in the numerator
    with pytest.raises(ValueError, match="denominator"):
        LaurentPolynomial(F3, {(-1, 0): F3.one()}, poly(text, F3))
    with pytest.raises(ContextMismatchError):
        LaurentPolynomial(F3, {(-1, 0): F3.one()}, poly("1 + t2", F5))


def test_addition_cancels():
    f = poly("t1^-1", F5)
    g = poly("4*t1^-1", F5)
    assert not (f + g)


def _over(text, denominator, ctx):
    return LaurentPolynomial(ctx, poly(text, ctx).terms,
                             poly(denominator, ctx))


def test_sums_lift_by_the_other_denominator():
    # P / V^p + Q = (P + Q V^p) / V^p, and over two denominators the
    # product of both
    f = _over("t1^-1", "1 + t2", F2)
    assert f + poly("1", F2) == _over("t1^-1 + 1 + t2^2", "1 + t2", F2)
    assert poly("1", F2) + f == f + poly("1", F2)
    g = _over("t1^-2", "1 + t1", F2)
    assert f - g == _over("t1^-1 + t1 + t1^-2 + t1^-2*t2^2",
                          "1 + t1 + t2 + t1*t2", F2)
    assert not (f - f)


def _series_inverse(denominator, box):
    """The power series 1 / V on [0, box)^2 by long division."""
    ctx = denominator.ctx
    w00 = denominator.terms[(0, 0)].inverse()
    out = {}
    for i in range(box):
        for j in range(box):
            total = ctx.one() if (i, j) == (0, 0) else ctx.zero()
            for (a, b), c in denominator.terms.items():
                if (a, b) != (0, 0) and a <= i and b <= j:
                    total = total - c * out[(i - a, j - b)]
            out[(i, j)] = total * w00
    return out


@pytest.mark.parametrize("ctx", [F2, F3, field(2, 2), field(3, 2)])
def test_coefficient_is_that_of_the_series_product(ctx):
    # F = P * (1 / V)^p read off the product of P with the p-th power of
    # the long-division series of 1 / V, at every point of a box, for
    # denominators in t1 and t2 together
    rng = random.Random(ctx.order)
    p = ctx.p
    for _ in range(8):
        numerator = {(rng.randint(-4, 2), rng.randint(-4, 2)):
                     ctx.from_encoding(rng.randrange(1, ctx.order))
                     for _ in range(rng.randint(1, 5))}
        denominator = {(0, 0): ctx.from_encoding(rng.randrange(1, ctx.order))}
        for _ in range(rng.randint(1, 3)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            denominator[e if any(e) else (1, 0)] = (
                ctx.from_encoding(rng.randrange(1, ctx.order)))
        v = LaurentPolynomial(ctx, denominator)
        f = LaurentPolynomial(ctx, numerator, v)
        inverse = _series_inverse(v, 5)
        for m in range(-4, 3):
            for n in range(-4, 3):
                expected = ctx.zero()
                for (i, j), c in numerator.items():
                    di, dj = m - i, n - j
                    if di >= 0 and dj >= 0 and not di % p and not dj % p:
                        expected = expected + c * inverse[(di // p,
                                                           dj // p)] ** p
                assert f.coefficient(m, n) == expected, (m, n)


# ---------------------------------------------------------------------------
# staircase extraction
# ---------------------------------------------------------------------------

def test_corners_two_incomparable():
    f = poly("t1^-3*t2^-1 + t1^-1*t2^-2", F5)
    assert pole_staircase(f) == Staircase([(1, -2), (3, -1)])


def test_corners_absorption():
    f = poly("t1^-3*t2^-1 + t1^-1*t2^2", F5)
    assert pole_staircase(f) == Staircase([(3, -1)])


def test_corners_of_zero():
    assert pole_staircase(LaurentPolynomial.zero(F2)) == Staircase()


def test_corners_against_brute_force():
    rng = random.Random(1)
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 7)):
            terms[(rng.randint(-5, 5), rng.randint(-5, 5))] = F3.element(
                rng.randrange(1, 3))
        f = LaurentPolynomial(F3, terms)
        stair = pole_staircase(f)
        support = set(f.terms)
        corners = {(-a, b) for a, b in stair}
        # O(n^2) oracle: minimal elements under the componentwise order
        expected = {s for s in support
                    if not any(t != s and t[0] <= s[0] and t[1] <= s[1]
                               for t in support)}
        assert corners == expected
        # the corner set is an antichain and dominates the support
        for s in support:
            assert any(c[0] <= s[0] and c[1] <= s[1] for c in corners)


points = st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=12)


@given(points)
def test_sorted_corners_matches_quadratic_definition(pts):
    expected = {q for q in pts
                if not any(r != q and r[0] <= q[0] and r[1] <= q[1] for r in pts)}
    assert _sorted_corners(pts) == tuple(sorted(expected))


# ---------------------------------------------------------------------------
# the series reference's truncation bookkeeping (tests/series_reference.py)
# ---------------------------------------------------------------------------

def _in_region(s, e):
    """Whether some unknown corner of s dominates the exponent e."""
    return any(u[0] <= e[0] and u[1] <= e[1] for u in s.unknown)


@given(points, points)
def test_certified_excludes_exactly_the_unknown_region(support, unknown):
    # any number of corners, term order included
    s = ref.Series(F3, {e: F3.one() for e in support}, unknown)
    assert ref.certified(s) == [e for e in s.terms if not _in_region(s, e)]


@st.composite
def one_corner_series(draw):
    """A series over F_3 with exactly one unknown corner, and a term at
    the corner itself, so that the boundary of the region is always
    exercised."""
    corner = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)), st.integers(1, 2),
        max_size=12))
    terms[corner] = draw(st.integers(1, 2))
    return ref.Series(F3, {e: F3.element(v) for e, v in terms.items()},
                      {corner})


@given(one_corner_series())
def test_certified_with_one_unknown_corner(s):
    assert len(s.unknown) == 1
    assert ref.certified(s) == [e for e in s.terms if not _in_region(s, e)]


@given(points, points, st.integers(-7, 7))
def test_leading_column_is_the_certified_column_and_its_cut(support, unknown,
                                                            v):
    # the reference's column and cut; wildram's leading_column is the
    # numerator's whole column, as no term is uncertain
    s = ref.Series(F3, {e: F3.one() for e in support}, unknown)
    cuts = [n for n in range(-7, 8) if _in_region(s, (v, n))]
    column, cut = ref.leading_column(s, v)
    assert cut == (min(cuts) if cuts else None)
    assert column == {n: c for (m, n), c in s.terms.items()
                      if m == v and not _in_region(s, (m, n))}
    exact = LaurentPolynomial(F3, {e: F3.one() for e in support})
    assert leading_column(exact, v) == {n: c for (m, n), c in exact.terms.items()
                                        if m == v}


def test_constructor_keeps_corners_given_as_a_generator():
    # the reference reads its unknown corners once and keeps the minimal
    # ones: checking them must not use them up
    s = ref.Series(F2, {(3, 4): F2.one()},
                   (c for c in [(1, 2), (0, 5), (2, 3)]))
    assert s.unknown == ((0, 5), (1, 2))
    assert not s.is_exact


def test_coefficient_read_beyond_order_raises():
    # the reference raises past its cut; the exact function has every
    # coefficient: 1 / (t2 + 1) = 1 + t2 + t2^2 + ... over F_2
    s = ref.translate(poly("t2^-1", F2), F2.one(), 4)
    assert s.coefficient(0, 3) == F2.one()
    with pytest.raises(PrecisionLossError):
        s.coefficient(0, 4)
    with pytest.raises(PrecisionLossError):
        s.coefficient(5, 9)
    t = translate(poly("t2^-1", F2), F2.one())
    assert all(t.coefficient(0, n) == F2.one() for n in range(40))
    assert t.coefficient(5, 9) == F2.zero()


def test_staircase_raises_when_corner_hidden():
    s = ref.translate(poly("t1^-1*t2^-1", F2), F2.one(), 3)
    # remove the certified part of the column; only the unknown tail is left
    blinded = s - ref.Series(F2, dict(s.terms))
    assert ref.undominated_unknowns(blinded)
    for _ in range(2):
        with pytest.raises(PrecisionLossError):
            ref.pole_staircase(blinded)


def test_staircase_tolerates_dominated_unknowns():
    s = ref.translate(poly("t1^-1*t2^-1", F2), F2.one(), 3)
    # the certified corner (1, 0) dominates the truncated tail at (-1, 3),
    # and the exact function has that staircase
    assert ref.pole_staircase(s) == Staircase([(1, 0)])
    exact = translate(poly("t1^-1*t2^-1", F2), F2.one())
    assert pole_staircase(exact) == Staircase([(1, 0)])


def test_valuation_raises_when_truncation_could_lower_it():
    s = ref.translate(poly("t1^-1*t2^-1", F2), F2.one(), 3)
    blinded = s - ref.Series(F2, dict(s.terms))
    with pytest.raises(PrecisionLossError):
        ref.valuation(blinded, "t2")


def test_charts_can_break_the_unknown_antichain():
    # (0, 1) and (1, 0) are incomparable, but their chart-A images (1, 1)
    # and (1, 0) are not (nor are the chart-B images (0, 1) and (1, 1)):
    # the reference's substitution must re-minimize the corners
    s = ref.Series(F3, {(-2, 0): F3.one()}, {(0, 1), (1, 0)})
    assert s.unknown == ((0, 1), (1, 0))
    assert ref.blowup_substitute(s, "A").unknown == ((1, 0),)
    assert ref.blowup_substitute(s, "B").unknown == ((0, 1),)


# ---------------------------------------------------------------------------
# chart substitution
# ---------------------------------------------------------------------------

def test_chart_exponent_maps():
    f = poly("t1^-2*t2", F5)
    assert set(blowup_substitute(f, "A").terms) == {(-1, 1)}
    assert set(blowup_substitute(f, "B").terms) == {(-2, -1)}


def test_chart_fixes_constants():
    f = poly("3", F5)
    assert blowup_substitute(f, "A") == f
    assert blowup_substitute(f, "B") == f


def test_chart_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(60):
        def rand():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                terms[(rng.randint(-4, 4), rng.randint(-4, 4))] = F3.element(
                    rng.randrange(1, 3))
            return LaurentPolynomial(F3, terms)
        f, g = rand(), rand()
        for chart in ("A", "B"):
            sub = lambda h: blowup_substitute(h, chart)
            assert sub(f * g) == sub(f) * sub(g)
            assert sub(f + g) == sub(f) + sub(g)


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

def test_translate_linear_exact():
    f = poly("t2", F2)
    assert translate(f, F2.one()) == poly("t2 + 1", F2)


def test_translate_square_mod3():
    f = poly("t2^2", F3)
    assert translate(f, F3.one()) == poly("t2^2 + 2*t2 + 1", F3)


def test_translate_geometric_series():
    # K = 1: P = (t2 + 1)^-1 * (t2 + 1)^2 and V = t2 + 1, so the function
    # is (t2 + 1) / (t2 + 1)^2, whose series is 1 + t2 + t2^2 + ...
    t = translate(poly("t2^-1", F2), F2.one())
    assert t.terms == poly("1 + t2", F2).terms
    assert t.denominator == poly("1 + t2", F2)
    assert [t.coefficient(0, n) for n in range(8)] == [F2.one()] * 8


def test_translate_exact_for_nonnegative_exponents():
    f = poly("t1^-3*t2^2 + t2^5", F5)
    t = translate(f, F5.element(2))
    assert t.denominator is None


def test_translate_by_zero_rejected():
    with pytest.raises(ValueError):
        translate(poly("t2", F2), F2.zero())


def test_translate_round_trip_up_to_valid_order():
    # without t2-poles there and back gives f itself; with them the way
    # back lands where the denominator vanishes, which is refused
    a = F3.element(2)
    f = poly("t1^-1*t2^2 + t2^3 + t1^-2", F3)
    assert translate(translate(f, a), -a) == f
    there = translate(poly("t1^-1*t2^-2 + t2^3 + t1^-2", F3), a)
    assert there.denominator == poly("t2 + 2", F3)
    with pytest.raises(ValueError, match="vanishes"):
        translate(there, -a)


def _expanded(terms, lift, shift):
    """sum of c * t1^m * (t2 + shift)^(n + lift), every coefficient from
    math.comb and its own power of the shift, in the shift's field;
    insertion order as the translation adds them."""
    ctx = shift.ctx
    expected = {}
    for (m, n), c in terms.items():
        c = embed(c, ctx)
        n += lift
        for j in range(n + 1):
            coeff = c * math.comb(n, j) * shift ** (n - j)
            s = expected.get((m, j), ctx.zero()) + coeff
            expected[(m, j)] = s
            if not s:
                del expected[(m, j)]
    return expected


def _expected_translation(f, shift):
    """(numerator, denominator terms or None) of the translation by its
    formula: K = ceil(N / p) for the largest t2-pole N, the numerator
    P(t2 + shift) * (t2 + shift)^(pK), the denominator (t2 + shift)^K."""
    p = shift.ctx.p
    k = math.ceil(max([0] + [-n for _, n in f.terms]) / p)
    denominator = _expanded({(0, 0): shift.ctx.one()}, k, shift) if k else None
    return _expanded(f.terms, p * k, shift), denominator


def _assert_translation(got, f, shift):
    numerator, denominator = _expected_translation(f, shift)
    assert got.ctx == shift.ctx
    assert list(got.terms.items()) == list(numerator.items())
    if denominator is None:
        assert got.denominator is None
    else:
        assert got.denominator.terms == denominator


def test_translate_matches_termwise_expansion():
    rng = random.Random(7)
    for ctx in (field(2, 2), field(3, 2), F5):
        for _ in range(20):
            terms = {(rng.randint(-4, 4), rng.randint(-5, 5)):
                     ctx.from_encoding(rng.randrange(1, ctx.order))
                     for _ in range(rng.randint(1, 5))}
            shift = ctx.from_encoding(rng.randrange(1, ctx.order))
            f = LaurentPolynomial(ctx, terms)
            _assert_translation(translate(f, shift), f, shift)


@pytest.mark.parametrize("base, shift_field", [
    (F2, field(2, 3)), (F3, field(3, 2)), (field(2, 2), field(2, 4)),
    (field(3, 2), field(3, 4))])
def test_translate_matches_math_comb(base, shift_field):
    # several terms, poles and positive powers in both coordinates, and a
    # shift from an extension of the coefficient field, into which the
    # polynomial is embedded first
    rng = random.Random(base.order)
    for _ in range(24):
        terms = {(rng.randint(-4, 4), rng.randint(-12, 12)):
                 base.from_encoding(rng.randrange(1, base.order))
                 for _ in range(rng.randint(2, 6))}
        f = LaurentPolynomial(base, terms)
        for shift in (shift_field.gen(),
                      shift_field.from_encoding(
                          rng.randrange(1, shift_field.order))):
            _assert_translation(translate(f.embed_into(shift_field), shift),
                                f, shift)


def test_translate_embeds_into_shift_field():
    f = poly("t2^2", F2).embed_into(field(2, 2))
    g4 = field(2, 2).gen()
    t = translate(f, g4)
    assert t.ctx == field(2, 2)
    # (t2 + g)^2 = t2^2 + g^2
    assert t.terms[(0, 0)] == g4 * g4


def test_translate_rejects_foreign_shift():
    # cross-field coercion is never implicit, in either direction
    with pytest.raises(ContextMismatchError):
        translate(poly("t2^2", F2), field(2, 2).gen())
    with pytest.raises(ContextMismatchError):
        translate(poly("t2^2", F2).embed_into(field(2, 2)), F2.one())


def test_translate_moves_the_denominator_too():
    # a chart A image keeps V(0, t2) = V(0, 0), so a second translation
    # substitutes into V as well and keeps its constant term nonzero
    first = translate(poly("t1^-2*t2^-1 + t1^-1", F3), F3.one())
    image = blowup_substitute(first, "A")
    assert image.denominator == poly("t1*t2 + 1", F3)
    second = translate(image, F3.element(2))
    assert second.denominator == poly("t1*t2 + 2*t1 + 1", F3)
    assert second.terms == {(m, n): c for (m, n), c in
                            translate(LaurentPolynomial(F3, image.terms),
                                      F3.element(2)).terms.items()}


def test_valuation_basics():
    f = poly("t1^-3 + t2^-2", F5)
    assert valuation(f, "t1") == -3
    assert valuation(f, "t2") == -2
    assert valuation(LaurentPolynomial.zero(F5), "t1") == float("inf")
    # a denominator moves no valuation
    assert valuation(_over("t1^-3 + t2^-2", "1 + t1 + t2", F5), "t2") == -2


def test_transpose_swaps_axes():
    f = poly("t1^-3*t2^2", F5)
    assert set(transpose(f).terms) == {(2, -3)}
    g = _over("t1^-3*t2^2", "1 + t1", F5)
    assert transpose(g) == _over("t1^2*t2^-3", "1 + t2", F5)


def test_chart_diagonal_evaluation_identity():
    # composing the first chart and evaluating at v = 1 agrees with
    # evaluating f on the diagonal t2 = t1
    rng = random.Random(21)
    for _ in range(80):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[(rng.randint(-4, 4), rng.randint(-4, 4))] = F5.element(
                rng.randrange(1, 5))
        f = LaurentPolynomial(F5, terms)
        charted = blowup_substitute(f, "A")
        at_one = {}
        for (m, n), c in charted.terms.items():
            at_one[m] = at_one.get(m, F5.zero()) + c
        diagonal = {}
        for (m, n), c in f.terms.items():
            diagonal[m + n] = diagonal.get(m + n, F5.zero()) + c
        assert ({m: c for m, c in at_one.items() if c}
                == {m: c for m, c in diagonal.items() if c})


def test_translated_inverse_multiplies_back_to_one():
    # (t2 + a)^k times the translated t2^-k is 1 exactly
    for ctx, enc in ((F3, 2), (F5, 3), (field(2, 2), 2)):
        a = ctx.from_encoding(enc)
        for k in (1, 2, 3, 7):
            inverse = translate(LaurentPolynomial.monomial(ctx.one(), 0, -k),
                                a)
            power = translate(LaurentPolynomial.monomial(ctx.one(), 0, k), a)
            product = inverse * power
            assert not product - LaurentPolynomial.constant(ctx.one())
            assert product.coefficient(0, 0) == ctx.one()
            assert all(not product.coefficient(0, n) for n in range(1, 12))


def test_axis_validation():
    with pytest.raises(ValueError):
        valuation(poly("t1", F2), "t3")


# ---------------------------------------------------------------------------
# binomials mod p
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binomial_row_is_lucas(p):
    # oracle: Pascal's rule mod p for every n < p^4, and math.comb(n, j) % p
    # itself for n < p^3 (over all n < 7^4 it takes minutes)
    row = [1]
    for n in range(p ** 4):
        if n:
            row = [1] + [(a + b) % p for a, b in zip(row, row[1:])] + [1]
        if n < p ** 3:
            assert row == [math.comb(n, j) % p for j in range(n + 1)]
        assert _binomial_row(n, p) == tuple(
            (j, b) for j, b in enumerate(row) if b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_series_binomials_match_comb(p):
    # the series reference's rows: C(n mod q, j) against the coefficient
    # (-1)^j * C(-n-1+j, j) of x^j in (1 + x)^n
    for n in range(-1, -3 * p ** 2, -1):
        for budget in (1, p - 1, p, p + 1, p ** 2, 40, 64):
            if budget < 1:
                continue
            expected = [(j, (-1) ** j * math.comb(-n - 1 + j, j) % p)
                        for j in range(budget)]
            assert ref.series_binomials(n, budget, p) == tuple(
                (j, b) for j, b in expected if b)


def test_translate_long_series_matches_binomials():
    # the series of the exact (t2 + shift)^n, n < 0, against
    # C(-n-1+j, j) * (-1)^j * shift^(n-j) far past p, p^2 and p^3
    for ctx in (F2, F3, F5, field(2, 2)):
        shift = ctx.from_encoding(ctx.order - 1)
        for n in (-1, -2, -7, -25, -40):
            got = translate(LaurentPolynomial.monomial(ctx.one(), 0, n),
                            shift)
            for j in range(64):
                expected = (math.comb(-n - 1 + j, j) * (-1) ** j
                            * shift ** n * shift.inverse() ** j)
                assert got.coefficient(0, j) == expected, (str(ctx), n, j)


# ---------------------------------------------------------------------------
# the trusted constructor and the memoized views
# ---------------------------------------------------------------------------

EXTENDED = {F3: field(3, 2), field(2, 2): field(2, 4), F5: field(5, 2)}


@st.composite
def local_functions(draw, ctx):
    """A polynomial over ctx with up to eight terms and, usually, a
    denominator of up to four terms, built by the validating
    constructor."""
    coeffs = st.integers(1, ctx.order - 1)
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)), coeffs,
        max_size=8))
    denominator = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=3))
    denominator[(0, 0)] = draw(coeffs)
    if len(denominator) == 1:
        denominator = None
    else:
        denominator = LaurentPolynomial(ctx, {e: ctx.from_encoding(v)
                                              for e, v in denominator.items()})
    return LaurentPolynomial(
        ctx, {e: ctx.from_encoding(v) for e, v in terms.items()}, denominator)


@st.composite
def poly_pairs(draw):
    ctx = draw(st.sampled_from(list(EXTENDED)))
    return draw(local_functions(ctx)), draw(local_functions(ctx))


def assert_same(got, expected):
    assert got.ctx == expected.ctx
    assert list(got.terms.items()) == list(expected.terms.items())
    assert all(c for c in got.terms.values())
    if expected.denominator is None:
        assert got.denominator is None
    else:
        assert_same(got.denominator, expected.denominator)


def _summed(ctx, pairs):
    """The validating constructor over (exponent, coefficient) pairs,
    summing coefficients that land on one exponent."""
    terms = {}
    for e, c in pairs:
        s = terms.get(e)
        terms[e] = c if s is None else s + c
    return terms


def _times(ctx, left, right):
    """The product of two term maps by its definition."""
    return _summed(ctx, (((m1 + m2, n1 + n2), c1 * c2)
                         for (m1, n1), c1 in left.items()
                         for (m2, n2), c2 in right.items()))


def _pth_power(ctx, terms):
    p = ctx.p
    return {(p * m, p * n): c ** p for (m, n), c in terms.items()}


def _mapped(f, move):
    """f with every exponent moved, denominator included, through the
    validating constructor."""
    ctx = f.ctx
    denominator = f.denominator and _mapped(f.denominator, move)
    return LaurentPolynomial(
        ctx, _summed(ctx, ((move(e), c) for e, c in f.terms.items())),
        denominator)


@given(poly_pairs(), st.integers(0, 24))
def test_trusted_results_match_the_validating_constructor(pair, enc):
    # each reference is the operation's definition fed through the
    # validating constructor, which checks and canonicalizes everything
    f, g = pair
    ctx, p = f.ctx, f.ctx.p
    assert_same(-f, LaurentPolynomial(
        ctx, {e: -c for e, c in f.terms.items()}, f.denominator))
    assert_same(f.frobenius_power(), LaurentPolynomial(
        ctx, _pth_power(ctx, f.terms), f.denominator and LaurentPolynomial(
            ctx, _pth_power(ctx, f.denominator.terms))))
    assert_same(transpose(f), _mapped(f, lambda e: (e[1], e[0])))
    assert_same(blowup_substitute(f, "A"),
                _mapped(f, lambda e: (e[0] + e[1], e[1])))
    assert_same(blowup_substitute(f, "B"),
                _mapped(f, lambda e: (e[0], e[0] + e[1])))
    # over a shared denominator the numerators add; else over the product
    one = {(0, 0): ctx.one()}
    vf = f.denominator.terms if f.denominator else one
    vg = g.denominator.terms if g.denominator else one
    if f.denominator == g.denominator:
        vf = vg = one
    total = f + g
    assert total == LaurentPolynomial(
        ctx, _summed(ctx, list(_times(ctx, f.terms, _pth_power(ctx, vg)).items())
                     + list(_times(ctx, g.terms, _pth_power(ctx, vf)).items())),
        f.denominator if f.denominator == g.denominator
        else LaurentPolynomial(ctx, _times(ctx, vf, vg)))
    assert all(c for c in total.terms.values())
    vf = f.denominator.terms if f.denominator else one
    target = EXTENDED[ctx]
    assert_same(f.embed_into(target), LaurentPolynomial(
        target, {e: embed(c, target) for e, c in f.terms.items()},
        f.denominator and f.denominator.embed_into(target)))
    shift = ctx.from_encoding(enc % ctx.order) or ctx.one()
    try:
        moved = translate(f, shift)
    except ValueError:
        # V(0, shift) = 0: only a chart A image is sure to avoid it
        assert not sum((c * shift ** n for (m, n), c in vf.items() if not m),
                       ctx.zero())
        return
    assert_same(moved, LaurentPolynomial(ctx, moved.terms, moved.denominator))


@given(poly_pairs())
def test_memoized_views_match_their_definitions(pair):
    # staircase and valuations are those of the numerator, twice each,
    # since the second call reads what the first one kept
    for f in pair:
        support = set(f.terms)
        corners = {s for s in support
                   if not any(t != s and t[0] <= s[0] and t[1] <= s[1]
                              for t in support)}
        for _ in range(2):
            assert pole_staircase(f) == Staircase(
                sorted((-m, n) for m, n in corners))
            for axis, idx in (("t1", 0), ("t2", 1)):
                assert valuation(f, axis) == min(
                    (e[idx] for e in support), default=math.inf)
        assert pole_staircase(f) is pole_staircase(f)


@given(poly_pairs())
def test_hash_is_kept_and_matches_equal_polynomials(pair):
    # hashed in turn, so a hash kept for one polynomial but read by another
    # shows up as a mismatch with the definition
    for f in pair:
        first = hash(f)
        assert hash(f) == first
        terms = frozenset(f.terms.items())
        assert first == hash(terms if f.denominator is None
                             else (terms, f.denominator))
        rebuilt = LaurentPolynomial(f.ctx, dict(f.terms), f.denominator)
        assert rebuilt == f and hash(rebuilt) == first
    f, g = pair
    total = f + g
    assert hash(total) == hash(LaurentPolynomial(
        total.ctx, dict(total.terms), total.denominator))


@given(poly_pairs())
def test_a_zero_operand_gives_the_other_operand(pair):
    # a + 0, a - 0, 0 + a and 0 - a against the validating constructor,
    # zero taken over no denominator and over a's; over another
    # denominator W the general path still gives the joint one, a * W^p
    # over V * W (over F_3 and F_5, 0 - a returned as a shows up as a sign)
    a, b = pair
    ctx = a.ctx
    plain = LaurentPolynomial(ctx, dict(a.terms), a.denominator)
    negated = LaurentPolynomial(ctx, {e: -c for e, c in a.terms.items()},
                                a.denominator)
    for zero in (LaurentPolynomial(ctx),
                 LaurentPolynomial(ctx, {}, a.denominator)):
        assert a + zero == plain and a - zero == plain
        assert zero + a == plain and zero - a == negated
    if b.denominator is None or b.denominator == a.denominator:
        return
    zero = LaurentPolynomial(ctx, {}, b.denominator)
    one = {(0, 0): ctx.one()}
    lifted = _times(ctx, a.terms, _pth_power(ctx, b.denominator.terms))
    joint = LaurentPolynomial(ctx, _times(
        ctx, a.denominator.terms if a.denominator else one,
        b.denominator.terms))
    assert a + zero == a - zero == zero + a == LaurentPolynomial(
        ctx, lifted, joint)
    assert zero - a == LaurentPolynomial(
        ctx, {e: -c for e, c in lifted.items()}, joint)


def test_zero_minus_a_polynomial_is_its_negative():
    f = poly("t1^-2*t2 + 2*t2^-1", F3)
    assert LaurentPolynomial.zero(F3) - f == poly("2*t1^-2*t2 + t2^-1", F3)


def _translated(f, shift):
    """translate(f, shift), or the ValueError of a denominator that
    vanishes at the new origin."""
    try:
        return translate(f, shift)
    except ValueError:
        return ValueError


def _fresh(f):
    """An equal polynomial that keeps nothing: no plan, staircase or
    hash."""
    denominator = f.denominator and LaurentPolynomial(
        f.ctx, dict(f.denominator.terms))
    return LaurentPolynomial(f.ctx, dict(f.terms), denominator)


@given(poly_pairs(), st.lists(st.integers(1, 24), min_size=2, max_size=4),
       st.booleans())
def test_a_kept_translation_plan_translates_like_a_fresh_polynomial(
        pair, encodings, extend):
    # two polynomials, with and without a denominator, each translated to
    # several shifts, in the coefficient field or in an extension of it:
    # every translation after the first reads the plan that the first
    # kept, and must give what the same polynomial without a plan gives;
    # so must its copies and pickles, which carry the plan along
    if extend:
        pair = tuple(f.embed_into(EXTENDED[f.ctx]) for f in pair)
    ctx = pair[0].ctx
    shifts = [ctx.from_encoding(enc % (ctx.order - 1) + 1)
              for enc in encodings]
    for f in pair + tuple(map(_fresh, pair)):
        for shift in shifts:
            assert _translated(f, shift) == _translated(_fresh(f), shift)
        assert f._plan is not None
    for f in pair:
        copies = [copy.copy(f), copy.deepcopy(f)] + [
            pickle.loads(pickle.dumps(f, protocol))
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for copied in copies:
            assert copied == f and copied._plan is not None
            for shift in shifts:
                assert (_translated(copied, shift)
                        == _translated(_fresh(f), shift))
