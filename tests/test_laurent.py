import math
import random
from itertools import pairwise

import pytest
from hypothesis import given, strategies as st

from wildram.fields import ContextMismatchError, embed, field
from wildram.laurent import (LaurentPolynomial, PrecisionLossError,
                             _binomial_row, _certified, _series_binomials,
                             _sorted_corners, blowup_substitute,
                             leading_column, pole_staircase, translate,
                             transpose, undominated_unknowns, valuation)
from wildram.parsing import parse_polynomial
from wildram.staircase import Staircase


def poly(text, ctx):
    return parse_polynomial(text, ctx)


F2 = field(2)
F3 = field(3)
F5 = field(5)


def test_canonical_form_drops_zeros():
    f = LaurentPolynomial(F5, {(1, 1): F5.zero(), (0, 0): F5.one()})
    assert f.support() == {(0, 0)}


def test_constructor_refuses_non_integer_exponents_and_corners():
    # nothing is truncated: -1.5 is not read as -1, nor '3' as 3
    one = F2.one()
    with pytest.raises(TypeError):
        LaurentPolynomial(F2, {(-1.5, 2.9): one, ("3", "4"): one},
                          unknown={(0.5, "1")})
    with pytest.raises(TypeError):
        LaurentPolynomial(F2, {(-1.5, 2.9): one})
    with pytest.raises(TypeError):
        LaurentPolynomial(F2, {("3", "4"): one})
    with pytest.raises(TypeError):
        LaurentPolynomial(F2, {(3, 4): one}, unknown={(0.5, "1")})
    with pytest.raises(TypeError):
        LaurentPolynomial.monomial(one, 1.7, -2.2)
    assert LaurentPolynomial.monomial(one, 1, -2).support() == {(1, -2)}


def test_constructor_keeps_corners_given_as_a_generator():
    # the corners are read once: checking them must not use them up
    f = LaurentPolynomial(F2, {(3, 4): F2.one()},
                          unknown=(c for c in [(1, 2), (0, 5), (2, 3)]))
    assert f.unknown == ((0, 5), (1, 2))
    assert not f.is_exact


def test_addition_cancels():
    f = poly("t1^-1", F5)
    g = poly("4*t1^-1", F5)
    assert not (f + g)


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
        support = f.support()
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


def _in_region(f, e):
    """Whether some unknown corner of f dominates the exponent e."""
    return any(u[0] <= e[0] and u[1] <= e[1] for u in f.unknown)


@given(points, points)
def test_certified_excludes_exactly_the_unknown_region(support, unknown):
    # any number of corners, term order included
    f = LaurentPolynomial(F3, {e: F3.one() for e in support}, unknown)
    assert list(_certified(f)) == [e for e in f.terms if not _in_region(f, e)]


@st.composite
def one_corner_polys(draw):
    """A polynomial over F_3 with exactly one unknown corner, and a term at
    the corner itself, so that the boundary of the region is always
    exercised."""
    corner = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)), st.integers(1, 2),
        max_size=12))
    terms[corner] = draw(st.integers(1, 2))
    return LaurentPolynomial(F3, {e: F3.element(v) for e, v in terms.items()},
                             {corner})


@given(one_corner_polys())
def test_certified_with_one_unknown_corner(f):
    # the one-corner rule of _certified against the region test, term
    # order included
    assert len(f.unknown) == 1
    assert list(_certified(f)) == [e for e in f.terms if not _in_region(f, e)]


@given(points, points, st.integers(-7, 7))
def test_leading_column_is_the_certified_column_and_its_cut(support, unknown,
                                                            v):
    f = LaurentPolynomial(F3, {e: F3.one() for e in support}, unknown)
    cuts = [n for n in range(-7, 8) if _in_region(f, (v, n))]
    column, cut = leading_column(f, v)
    assert cut == (min(cuts) if cuts else None)
    assert column == {n: c for (m, n), c in f.terms.items()
                      if m == v and not _in_region(f, (m, n))}


# ---------------------------------------------------------------------------
# chart substitution
# ---------------------------------------------------------------------------

def test_chart_exponent_maps():
    f = poly("t1^-2*t2", F5)
    assert blowup_substitute(f, "A").support() == {(-1, 1)}
    assert blowup_substitute(f, "B").support() == {(-2, -1)}


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
    assert translate(f, F2.one(), 4) == poly("t2 + 1", F2)


def test_translate_square_mod3():
    f = poly("t2^2", F3)
    assert translate(f, F3.one(), 4) == poly("t2^2 + 2*t2 + 1", F3)


def test_translate_geometric_series():
    f = poly("t2^-1", F2)
    t = translate(f, F2.one(), 4)
    assert t.terms == poly("1 + t2 + t2^2 + t2^3", F2).terms
    assert t.unknown == ((0, 4),)
    assert min(n for _, n in t.unknown) == 4


def test_translate_exact_for_nonnegative_exponents():
    f = poly("t1^-3*t2^2 + t2^5", F5)
    t = translate(f, F5.element(2), 1)
    assert t.is_exact


def test_translate_by_zero_rejected():
    with pytest.raises(ValueError):
        translate(poly("t2", F2), F2.zero(), 4)


def test_translate_round_trip_up_to_valid_order():
    f = poly("t1^-1*t2^-2 + t2^3 + t1^-2", F3)
    a = F3.element(2)
    there = translate(f, a, 12)
    back = translate(there, -a, 12)
    cut = min(n for _, n in back.unknown)
    for (m, n), c in f.terms.items():
        if 0 <= n < cut:
            assert back.terms.get((m, n)) == c
    for (m, n), c in back.terms.items():
        if n < cut and n >= 0:
            assert f.terms.get((m, n), F3.zero()) == c


def test_translate_matches_termwise_expansion():
    # oracle: every coefficient from its own powers of the shift, as in the
    # binomial formulas of the docstring; insertion order is kept too
    rng = random.Random(7)
    for ctx in (field(2, 2), field(3, 2), F5):
        for _ in range(20):
            terms = {(rng.randint(-4, 4), rng.randint(-5, 5)):
                     ctx.from_encoding(rng.randrange(1, ctx.order))
                     for _ in range(rng.randint(1, 5))}
            shift = ctx.from_encoding(rng.randrange(1, ctx.order))
            budget = rng.randint(1, 9)
            expected = {}
            for (m, n), c in terms.items():
                count = n + 1 if n >= 0 else budget
                for j in range(count):
                    if n >= 0:
                        coeff = c * math.comb(n, j) * shift ** (n - j)
                    else:
                        coeff = (c * math.comb(-n - 1 + j, j) * (-1) ** j
                                 * shift ** n * shift.inverse() ** j)
                    s = expected.get((m, j), ctx.zero()) + coeff
                    expected[(m, j)] = s
                    if not s:
                        del expected[(m, j)]
            got = translate(LaurentPolynomial(ctx, terms), shift, budget)
            assert list(got.terms.items()) == list(expected.items())


def _naive_translate(poly_, shift, budget):
    """The binomial formulas of the translate docstring with math.comb and
    one power of the shift per coefficient, in the shift's field."""
    ctx = shift.ctx
    expected = {}
    for (m, n), c in poly_.terms.items():
        c = embed(c, ctx)
        count = n + 1 if n >= 0 else budget
        for j in range(count):
            if n >= 0:
                coeff = c * math.comb(n, j) * shift ** (n - j)
            else:
                coeff = (c * ((-1) ** j * math.comb(-n - 1 + j, j))
                         * shift ** n * shift.inverse() ** j)
            s = expected.get((m, j), ctx.zero()) + coeff
            expected[(m, j)] = s
            if not s:
                del expected[(m, j)]
    return expected


@pytest.mark.parametrize("base, shift_field", [
    (F2, field(2, 3)), (F3, field(3, 2)), (field(2, 2), field(2, 4)),
    (field(3, 2), field(3, 4))])
def test_translate_matches_math_comb(base, shift_field):
    # several terms, poles and positive powers in both coordinates, and a
    # shift from an extension of the coefficient field, into which the
    # polynomial is embedded first
    rng = random.Random(base.order)
    for budget in (1, base.p, 16, 40):
        for _ in range(6):
            terms = {(rng.randint(-4, 4), rng.randint(-12, 12)):
                     base.from_encoding(rng.randrange(1, base.order))
                     for _ in range(rng.randint(2, 6))}
            f = LaurentPolynomial(base, terms)
            for shift in (shift_field.gen(),
                          shift_field.from_encoding(
                              rng.randrange(1, shift_field.order))):
                got = translate(f.embed_into(shift_field), shift, budget)
                assert got.ctx == shift_field
                assert list(got.terms.items()) == list(
                    _naive_translate(f, shift, budget).items())
                assert got.unknown == _sorted_corners(
                    (m, budget) for m, n in f.terms if n < 0)


def test_translate_embeds_into_shift_field():
    f = poly("t2^2", F2).embed_into(field(2, 2))
    g4 = field(2, 2).gen()
    t = translate(f, g4, 4)
    assert t.ctx == field(2, 2)
    # (t2 + g)^2 = t2^2 + g^2
    assert t.terms[(0, 0)] == g4 * g4


def test_translate_rejects_foreign_shift():
    # cross-field coercion is never implicit, in either direction
    with pytest.raises(ContextMismatchError):
        translate(poly("t2^2", F2), field(2, 2).gen(), 4)
    with pytest.raises(ContextMismatchError):
        translate(poly("t2^2", F2).embed_into(field(2, 2)), F2.one(), 4)


# ---------------------------------------------------------------------------
# precision bookkeeping
# ---------------------------------------------------------------------------

def test_coefficient_read_beyond_order_raises():
    t = translate(poly("t2^-1", F2), F2.one(), 4)
    assert t.coefficient(0, 3) == F2.one()
    with pytest.raises(PrecisionLossError):
        t.coefficient(0, 4)
    with pytest.raises(PrecisionLossError):
        t.coefficient(5, 9)


def test_staircase_raises_when_corner_hidden():
    t = translate(poly("t1^-1*t2^-1", F2), F2.one(), 3)
    # remove the certified part of the column; only the unknown tail is left
    visible = LaurentPolynomial(F2, dict(t.terms))
    blinded = t - visible
    assert undominated_unknowns(blinded)
    # a failure is not kept: every call raises again
    for _ in range(2):
        with pytest.raises(PrecisionLossError):
            pole_staircase(blinded)


def test_staircase_tolerates_dominated_unknowns():
    t = translate(poly("t1^-1*t2^-1", F2), F2.one(), 3)
    # the certified corner (1, 0) dominates the truncated tail at (-1, 3)
    assert pole_staircase(t) == Staircase([(1, 0)])


def test_valuation_basics():
    f = poly("t1^-3 + t2^-2", F5)
    assert valuation(f, "t1") == -3
    assert valuation(f, "t2") == -2
    assert valuation(LaurentPolynomial.zero(F5), "t1") == float("inf")


def test_valuation_raises_when_truncation_could_lower_it():
    t = translate(poly("t1^-1*t2^-1", F2), F2.one(), 3)
    blinded = t - LaurentPolynomial(F2, dict(t.terms))
    with pytest.raises(PrecisionLossError):
        valuation(blinded, "t2")


def test_transpose_swaps_axes():
    f = poly("t1^-3*t2^2", F5)
    assert transpose(f).support() == {(2, -3)}


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


def test_multiplication_propagates_unknown_regions():
    t = translate(poly("t2^-1", F2), F2.one(), 3)
    product = t * poly("t1^-2", F2)
    assert not product.is_exact
    with pytest.raises(PrecisionLossError):
        product.coefficient(-2, 3)
    assert product.coefficient(-2, 0) == F2.one()


def test_equal_contexts_are_interchangeable():
    from wildram.fields import FieldContext
    fresh = FieldContext(2, 2)
    interned = field(2, 2)
    assert fresh == interned
    assert fresh.gen() * interned.gen() == interned.gen() * fresh.gen()


def test_translated_inverse_multiplies_back_to_one():
    # oracle for the negative-power series: (t2 + a)^k * series((t2+a)^-k)
    # must be 1 up to the recorded order
    for ctx, enc in ((F3, 2), (F5, 3), (field(2, 2), 2)):
        a = ctx.from_encoding(enc)
        for k in (1, 2, 3):
            series = translate(LaurentPolynomial.monomial(ctx.one(), 0, -k),
                               a, 10)
            exact = translate(LaurentPolynomial.monomial(ctx.one(), 0, k),
                              a, 10)
            product = series * exact
            for m, n in _certified(product):
                expected = ctx.one() if (m, n) == (0, 0) else ctx.zero()
                assert product.terms[(m, n)] == expected, (str(ctx), k, m, n)


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
    for n in range(-1, -3 * p ** 2, -1):
        for budget in (1, p - 1, p, p + 1, p ** 2, 40, 64):
            if budget < 1:
                continue
            # the coefficient of x^j in (1 + x)^n, sign included
            expected = [(j, (-1) ** j * math.comb(-n - 1 + j, j) % p)
                        for j in range(budget)]
            assert _series_binomials(n, budget, p) == tuple(
                (j, b) for j, b in expected if b)


def test_translate_long_series_matches_binomials():
    # the cut series of a negative power against C(-n-1+j, j) * (-1)^j,
    # for budgets past p, p^2 and p^3 and poles up to 40
    for ctx in (F2, F3, F5, field(2, 2)):
        shift = ctx.from_encoding(ctx.order - 1)
        for n in (-1, -2, -7, -25, -40):
            for budget in (16, 27, 64):
                got = translate(LaurentPolynomial.monomial(ctx.one(), 0, n),
                                shift, budget)
                expected = {}
                for j in range(budget):
                    c = (math.comb(-n - 1 + j, j) * (-1) ** j
                         * shift ** n * shift.inverse() ** j)
                    if c:
                        expected[(0, j)] = c
                assert list(got.terms.items()) == list(expected.items())
                assert got.unknown == ((0, budget),)


# ---------------------------------------------------------------------------
# the trusted constructor and the memoized views
# ---------------------------------------------------------------------------

EXTENDED = {F3: field(3, 2), field(2, 2): field(2, 4), F5: field(5, 2)}


@st.composite
def truncated_polys(draw, ctx):
    """A polynomial over ctx with up to eight terms and, usually, unknown
    corners, built by the validating constructor."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        st.integers(1, ctx.order - 1), max_size=8))
    unknown = draw(points)
    return LaurentPolynomial(
        ctx, {e: ctx.from_encoding(v) for e, v in terms.items()}, unknown)


@st.composite
def poly_pairs(draw):
    ctx = draw(st.sampled_from(list(EXTENDED)))
    return draw(truncated_polys(ctx)), draw(truncated_polys(ctx))


def assert_same(got, expected):
    assert got.ctx == expected.ctx
    assert list(got.terms.items()) == list(expected.terms.items())
    assert all(c for c in got.terms.values())
    assert isinstance(got.unknown, tuple)
    # minimal corners, sorted by m, so their n falls
    assert all(a[0] < b[0] and a[1] > b[1] for a, b in pairwise(got.unknown))
    assert got.unknown == expected.unknown


def _summed(ctx, pairs):
    """The validating constructor over (exponent, coefficient) pairs,
    summing coefficients that land on one exponent."""
    terms = {}
    for e, c in pairs:
        s = terms.get(e)
        terms[e] = c if s is None else s + c
    return terms


@given(poly_pairs(), st.integers(0, 24), st.integers(1, 9))
def test_trusted_results_match_the_validating_constructor(pair, enc, budget):
    # each reference is the operation's definition fed through the
    # validating constructor, which checks and canonicalizes everything
    f, g = pair
    ctx, p = f.ctx, f.ctx.p
    coeff = ctx.from_encoding(enc % ctx.order)
    assert_same(-f, LaurentPolynomial(
        ctx, {e: -c for e, c in f.terms.items()}, f.unknown))
    assert_same(f.frobenius_power(), LaurentPolynomial(
        ctx, {(p * m, p * n): c ** p for (m, n), c in f.terms.items()},
        {(p * m, p * n) for m, n in f.unknown}))
    assert_same(transpose(f), LaurentPolynomial(
        ctx, {(n, m): c for (m, n), c in f.terms.items()},
        {(n, m) for m, n in f.unknown}))
    assert_same(blowup_substitute(f, "A"), LaurentPolynomial(
        ctx, _summed(ctx, (((m + n, n), c) for (m, n), c in f.terms.items())),
        {(m + n, n) for m, n in f.unknown}))
    assert_same(blowup_substitute(f, "B"), LaurentPolynomial(
        ctx, _summed(ctx, (((m, m + n), c) for (m, n), c in f.terms.items())),
        {(m, m + n) for m, n in f.unknown}))
    assert_same(f + g, LaurentPolynomial(
        ctx, _summed(ctx, list(f.terms.items()) + list(g.terms.items())),
        f.unknown + g.unknown))
    target = EXTENDED[ctx]
    assert_same(f.embed_into(target), LaurentPolynomial(
        target, {e: embed(c, target) for e, c in f.terms.items()}, f.unknown))
    shift = coeff or ctx.one()
    moved = translate(f, shift, budget)
    assert_same(moved, LaurentPolynomial(
        ctx, moved.terms,
        {(m, 0) for m, _ in f.unknown}
        | {(m, budget) for m, n in f.terms if n < 0}))


def test_charts_can_break_the_unknown_antichain():
    # (0, 1) and (1, 0) are incomparable, but their chart-A images (1, 1)
    # and (1, 0) are not (nor are the chart-B images (0, 1) and (1, 1)):
    # the substitution must re-minimize the corners
    f = LaurentPolynomial(F3, {(-2, 0): F3.one()}, {(0, 1), (1, 0)})
    assert f.unknown == ((0, 1), (1, 0))
    assert blowup_substitute(f, "A").unknown == ((1, 0),)
    assert blowup_substitute(f, "B").unknown == ((0, 1),)


def _reference_exact(f):
    return {e: c for e, c in f.terms.items() if not _in_region(f, e)}


def _reference_corners(f):
    support = _reference_exact(f)
    return {s for s in support
            if not any(t != s and t[0] <= s[0] and t[1] <= s[1]
                       for t in support)}


def _reference_undominated(f):
    corners = _reference_corners(f)
    return [u for u in f.unknown
            if not any(c[0] <= u[0] and c[1] <= u[1] for c in corners)]


def _reference_staircase(f):
    blind = _reference_undominated(f)
    if blind:
        raise PrecisionLossError(blind[0])
    return Staircase(sorted((-m, n) for m, n in _reference_corners(f)))


def _reference_valuation(f, axis):
    idx = 0 if axis == "t1" else 1
    exact = _reference_exact(f)
    if not exact:
        if f.unknown or f.terms:
            raise PrecisionLossError(min({*f.unknown, *f.terms}))
        return math.inf
    v = min(e[idx] for e in exact)
    bad = [u for u in f.unknown if u[idx] < v]
    if bad:
        raise PrecisionLossError(bad[0])
    return v


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except PrecisionLossError as err:
        return "raises", err.position


CORNER_VIEWS = ((undominated_unknowns, _reference_undominated),
                (pole_staircase, _reference_staircase))


@st.composite
def translated_polys(draw):
    """The translations of one exact polynomial by one shift under several
    budgets: real one-corner polynomials, as every probe analyses them
    (exact ones when the polynomial has no t2-pole)."""
    ctx = draw(st.sampled_from(list(EXTENDED)))
    f = LaurentPolynomial(ctx, draw(truncated_polys(ctx)).terms)
    shift = ctx.from_encoding(draw(st.integers(1, ctx.order - 1)))
    return tuple(translate(f, shift, budget) for budget in (1, 2, 5, 9))


@given(st.one_of(poly_pairs(), one_corner_polys().map(lambda f: (f,)),
                 translated_polys()))
def test_memoized_views_match_their_definitions(polys):
    # on each polynomial and on its exact part; twice each, since the
    # second call reads what the first one kept; undominated_unknowns and
    # pole_staircase share corners kept by whichever runs first, so fresh
    # copies take them in both orders
    for given_poly in polys:
        for unknown in (given_poly.unknown, frozenset()):
            for order in (CORNER_VIEWS, CORNER_VIEWS[::-1]):
                f = LaurentPolynomial(given_poly.ctx, given_poly.terms,
                                      unknown)
                for _ in range(2):
                    for view, reference in order:
                        assert _outcome(view, f) == _outcome(reference, f)
                    assert list(_certified(f)) == list(_reference_exact(f))
                    for axis in ("t1", "t2"):
                        assert (_outcome(valuation, f, axis)
                                == _outcome(_reference_valuation, f, axis))
                if _outcome(pole_staircase, f)[0] == "value":
                    assert pole_staircase(f) is pole_staircase(f)


@given(poly_pairs())
def test_hash_is_kept_and_matches_equal_polynomials(pair):
    # hashed in turn, so a hash kept for one polynomial but read by another
    # shows up as a mismatch with the definition
    for f in pair:
        first = hash(f)
        assert hash(f) == first
        assert first == hash((f.ctx, frozenset(f.terms.items()), f.unknown))
        rebuilt = LaurentPolynomial(f.ctx, dict(f.terms), set(f.unknown))
        assert rebuilt == f and hash(rebuilt) == first
    f, g = pair
    total = f + g
    assert hash(total) == hash(LaurentPolynomial(
        total.ctx, dict(total.terms), total.unknown))
