import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import series_reference as ref
from wildram import reduction
from wildram.corpus import random_polynomial
from wildram.fields import field
from wildram.laurent import (LaurentPolynomial, PrecisionLossError,
                             blowup_substitute, leading_column,
                             pole_staircase, translate, transpose, valuation)
from wildram.parsing import parse_polynomial
from wildram.reduction import (artin_schreier_map, conductors,
                               exceptional_swan, good_representative,
                               swan_conductor)
from wildram.staircase import Staircase, is_clean_shape, quadrant_shape

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


# ---------------------------------------------------------------------------
# reduction to a good representative
# ---------------------------------------------------------------------------

def test_reduce_double_pole_char2():
    f = poly("t1^-2", F2)
    rep = good_representative(f)
    assert rep.g == poly("t1^-1", F2)
    assert rep.witness == poly("t1^-1", F2) and not rep.constant_delta
    assert (f - rep.g - artin_schreier_map(rep.witness)
            == LaurentPolynomial.constant(rep.constant_delta))
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
    # the constant repair moves -1 = 1, whose Artin-Schreier roots lie
    # only in F_4 (x^2 + x + 1 is irreducible over F_2); the identity
    # needs only the value, over F_2
    f = poly("t1^-2*t2", F2)
    rep = good_representative(f)
    assert rep.constant_added and rep.constant_delta == F2.one()
    assert (f - rep.g - artin_schreier_map(rep.witness)
            == LaurentPolynomial.constant(rep.constant_delta))


def test_trivial_inputs():
    rep = good_representative(LaurentPolynomial.zero(F3))
    assert not rep.g and len(rep.staircase) == 0 and not rep.constant_added
    # a pure constant defines the trivial cover up to the reduction class
    f = poly("2", F3)
    rep = good_representative(f)
    assert not rep.g and not rep.witness
    assert rep.constant_delta == F3.element(2)
    assert (f - rep.g - artin_schreier_map(rep.witness)
            == LaurentPolynomial.constant(rep.constant_delta))


def test_idempotence_randomized():
    rng = random.Random(4)
    for _ in range(150):
        ctx = [F2, F3, F5][rng.randrange(3)]
        f = random_polynomial(rng, ctx)
        rep = good_representative(f)
        again = good_representative(rep.g)
        assert again.g == rep.g
        assert again.staircase == rep.staircase


def _reduce_in_random_order(f, rng):
    """good_representative's g for an exact f, reducing a random target
    corner on each pass instead of the outermost one; also returns how
    many passes had more than one target to choose from."""
    p = f.ctx.p
    g = f - LaurentPolynomial.constant(f.coefficient(0, 0))
    choices = 0
    while True:
        stair = pole_staircase(g)
        targets = [(a, b) for a, b in stair
                   if a % p == 0 and b % p == 0 and (a, b) != (0, 0)]
        if not targets:
            break
        choices += len(targets) > 1
        a, b = rng.choice(targets)
        piece = LaurentPolynomial.monomial(g.coefficient(-a, b).pth_root(),
                                           -a // p, b // p)
        g = g - artin_schreier_map(piece)
    if g and not quadrant_shape(stair):
        g = g + LaurentPolynomial.constant(f.ctx.one())
    return g, choices


def test_reduction_order_does_not_matter():
    rng = random.Random(5)
    choices = 0
    for _ in range(120):
        ctx = [F2, F3][rng.randrange(2)]
        f = random_polynomial(rng, ctx, max_terms=5, exp_bound=6)
        shuffled, chosen = _reduce_in_random_order(
            f, random.Random(rng.random()))
        assert shuffled == good_representative(f).g
        choices += chosen
    # the order can only matter where a pass has a choice
    assert choices


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


def _chart_of(f, chart):
    return blowup_substitute(good_representative(f).g, chart)


def test_constant_repair_follows_a_reduction_that_uncovers_a_corner():
    # the probe x/A@v=1/B/A@v=1 that sweep mode reduces on
    # t2^-3 + t1^-1*t2^-3 + t1^-3*t2^-1 over F_2, a local function with a
    # denominator in t1 and t2: reducing the corner (6, 0) turns t1^-6
    # into t1^-3, which cancels the other t1^-3 term and leaves no corner
    # in the quadrant a >= 0, b <= 0, so the constant repair follows
    one = F2.one()
    f = poly("t2^-3 + t1^-1*t2^-3 + t1^-3*t2^-1", F2)
    below = _chart_of(translate(_chart_of(f, "A"), one), "B")
    probe = translate(_chart_of(below, "A"), one)
    assert probe.denominator == poly("t1^2*t2^4 + t1^2 + t2^2 + 1", F2)
    assert pole_staircase(probe) == Staircase([(6, 0)])
    rep = good_representative(probe)
    assert rep.reductions == 1 and rep.constant_added
    assert rep.g.coefficient(0, 0) == one
    assert rep.staircase == Staircase([(0, 0), (6, 1)])
    assert rep.quadrant_ok


def _residual_accepts(rep, f):
    """The witness identity by its definition: the residual
    f - g - (h^p - h) is exactly the recorded constant, as a function:
    its numerator is the constant times the denominator's p-th power."""
    residual = f - rep.g - artin_schreier_map(rep.witness)
    return not residual - LaurentPolynomial.constant(rep.constant_delta)


def _with_terms(poly, terms, denominator=None):
    return LaurentPolynomial(poly.ctx, terms, poly.denominator
                             if denominator is None else denominator)


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


# (field, polynomial, shift): the shift is an integer whose image in the
# prime field the polynomial is translated by, or None for no translation
WITNESS_CASES = [
    # a polynomial, one corner reduction and a constant
    (F3, "t1^-3*t2^-3 + t1^-1 + 1", None),
    # a local function P / V^p made by a translation, corner reductions
    # and a constant
    (F2, "t1^-4*t2^2 + t1^-1*t2^-1", 1),
]


def _translated(f, shift):
    if shift is None:
        return f
    moved = translate(f, f.ctx.element(shift))
    assert moved.denominator is not None
    return moved


def _witness_case(ctx, text, shift):
    f = _translated(poly(text, ctx), shift)
    rep = good_representative(f)
    assert rep.reductions >= 1 and rep.witness and rep.constant_delta
    return f, rep


@pytest.mark.parametrize("ctx, text, shift", WITNESS_CASES)
def test_verify_raises_on_a_tampered_representative(ctx, text, shift):
    f, rep = _witness_case(ctx, text, shift)
    rep.verify(f)
    exponent = sorted(rep.g.terms)[0]
    tampered = [_bump_g(rep, exponent, ctx.one()),
                _drop_witness_term(rep, sorted(rep.witness.terms)[0]),
                _shift_delta(rep, ctx.one())]
    for bad in tampered:
        with pytest.raises(RuntimeError, match="witness identity"):
            bad.verify(f)
    # another witness of the same class passes; g over another
    # denominator is another function and fails
    moved = _move_into_witness(rep, LaurentPolynomial.monomial(ctx.one(), -1, 2))
    assert moved.g != rep.g
    moved.verify(f)
    other = dataclasses.replace(rep, g=_with_terms(
        rep.g, rep.g.terms, poly("1 + t1 + t2", ctx)))
    with pytest.raises(RuntimeError, match="witness identity"):
        other.verify(f)


ZERO_WITNESS_CASES = [
    # a polynomial, no corner reduction, a constant
    (F3, "t1^-1*t2^-2 + 2", None),
    # a local function made by a translation, no corner reduction, a
    # constant
    (F5, "t1^-3*t2^-1 + t1^-1 + 3", 4),
]


@pytest.mark.parametrize("ctx, text, shift", ZERO_WITNESS_CASES)
def test_verify_without_a_witness_still_checks_g_and_the_constant(
        ctx, text, shift):
    # a zero witness adds nothing: every coefficient of g and the
    # constant are still compared with f
    f = _translated(poly(text, ctx), shift)
    rep = good_representative(f)
    assert not rep.witness and rep.reductions == 0 and rep.constant_delta
    rep.verify(f)
    tampered = [_bump_g(rep, exponent, ctx.one())
                for exponent in sorted(rep.g.terms)]
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
    if draw(st.booleans()):
        f = translate(f, ctx.from_encoding(draw(st.integers(1, ctx.order - 1))))
    return f, draw(exps), draw(st.integers(1, ctx.order - 1)), draw(
        st.sampled_from(["none", "g", "witness", "delta", "moved",
                         "denominator"]))


@given(witness_inputs())
def test_verify_accepts_what_the_residual_definition_accepts(case):
    f, exponent, enc, tamper = case
    rep = good_representative(f)
    coeff = f.ctx.from_encoding(enc)
    # whether the tampering leaves f - g - (h^p - h) as it was
    same_class = tamper in ("none", "moved")
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
    elif tamper == "denominator":
        # g's numerator over another denominator: another function, unless
        # g is zero
        same_class = not rep.g
        rep = dataclasses.replace(rep, g=_with_terms(
            rep.g, rep.g.terms, poly("1 + t1*t2", f.ctx)))
    assert _accepts(rep, f) == _residual_accepts(rep, f) == same_class


# t1^4*t2^-4 + t1^2*t2^-3 + t1^-6*t2^-2 over F_2 translated by 1 has the
# column t1^-6 * (t2^2 + 1) / (t2^2 + 1)^2 = t1^-6 / (t2 + 1)^2, a p-th
# power series that goes on for ever
LINE_INPUT = "t1^4*t2^-4 + t1^2*t2^-3 + t1^-6*t2^-2"


@pytest.mark.parametrize("flip, staircase", [(False, [(3, 0)]),
                                             (True, [(0, -3)])])
def test_a_line_of_p_th_powers_is_reduced_at_once(flip, staircase):
    # corner by corner the column (or, transposed, the row) would be
    # peeled for ever, and the series reference fails at every budget; one
    # step subtracts the image of t1^-3 / (t2 + 1), and the witness, over
    # its own denominator, still rebuilds f
    f = translate(poly(LINE_INPUT, F2), F2.one())
    if flip:
        f = transpose(f)
    for budget in (16, 64):
        series = ref.translate(poly(LINE_INPUT, F2), F2.one(), budget)
        with pytest.raises(PrecisionLossError):
            ref.good_representative(ref.transpose(series) if flip else series)
    rep = good_representative(f)
    assert rep.reductions == 1 and not rep.constant_added
    assert rep.staircase == Staircase(staircase)
    assert rep.witness.denominator is not None
    assert not (rep.g - f + artin_schreier_map(rep.witness)
                + LaurentPolynomial.constant(rep.constant_delta))


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


def test_exceptional_swan_matches_the_loop_on_the_chart_image():
    # the first round reads the chart A exponents (m + n, n) off f's own
    # terms and builds no image; on polynomials and on translated local
    # functions it gives the t1-loop on the built image, and so do the
    # inputs whose leading part along E is a p-th power (a Frobenius
    # image added), where the round strips it and goes on
    rng = random.Random(12)
    stripped = 0
    for index in range(400):
        ctx = [F2, F3, F5, field(2, 2)][index % 4]
        f = random_polynomial(rng, ctx, exp_bound=3)
        if index % 3 == 0:
            h = random_polynomial(rng, ctx, max_terms=2, exp_bound=3)
            f = f + h.frobenius_power()
        if index % 2:
            f = translate(f, ctx.from_encoding(rng.randrange(1, ctx.order)))
        image = blowup_substitute(f, "A")
        v = min((m for m, _ in image.terms), default=0)
        stripped += v < 0 and not v % ctx.p and all(
            not n % ctx.p for m, n in image.terms if m == v)
        assert exceptional_swan(f) == swan_conductor(image, "t1")
    assert stripped >= 40


def _swan_by_transposing(f, axis):
    """The t1-loop on f, or on the whole transpose of f for the axis t2:
    the loop with no in-place rounds, as an oracle."""
    work = f if axis == "t1" else transpose(f)
    p = work.ctx.p
    while True:
        v = valuation(work, "t1")
        if v >= 0:
            return 0
        column = leading_column(work, v)
        if v % p or any(n % p for n in column):
            return -v
        half = LaurentPolynomial(work.ctx, {(v // p, n // p): c.pth_root()
                                            for n, c in column.items()})
        work = work - reduction._artin_schreier_over(half, work.denominator)


def _strips_first(f, axis):
    """Whether the first round of the loop along the axis strips."""
    index = 0 if axis == "t1" else 1
    v = min((e[index] for e in f.terms), default=0)
    return v < 0 and not v % f.ctx.p and all(
        not e[1 - index] % f.ctx.p for e in f.terms if e[index] == v)


@pytest.mark.parametrize("ctx", [F2, F3, field(2, 2), field(3, 2)],
                         ids=["F2", "F3", "F4", "F9"])
def test_conductors_match_the_loops_that_transpose(ctx):
    # both types, polynomials and translated local functions (some of
    # them transposed), and a Frobenius image added to half of them, so
    # that first rounds strip on either axis, over 1 and over a
    # denominator
    rng = random.Random(34 + ctx.order)
    stripped = Counter()
    for index in range(240):
        branches = 1 + index % 2
        f = random_polynomial(rng, ctx, exp_bound=3,
                              nonneg_t2=branches == 1)
        if index % 3 == 0:
            f = translate(f, ctx.from_encoding(rng.randrange(1, ctx.order)))
        if index % 12 == 3:
            # a type II local function, with its denominator, transposed
            f = transpose(f)
        if index % 4 < 2 or index % 12 == 3:
            h = random_polynomial(rng, ctx, max_terms=2, exp_bound=3,
                                  nonneg_t2=branches == 1)
            f = f + h.frobenius_power()
        for axis in ("t1", "t2"):
            stripped[axis, f.denominator is None] += _strips_first(f, axis)
        expected = (_swan_by_transposing(f, "t1"),
                    _swan_by_transposing(f, "t2") if branches == 2 else 0,
                    _swan_by_transposing(blowup_substitute(f, "A"), "t1"))
        assert conductors(f, branches) == expected, (f, branches)
        assert swan_conductor(f, "t2") == _swan_by_transposing(f, "t2")
    assert len(stripped) == 4 and min(stripped.values()) >= 5, stripped


@pytest.mark.parametrize("text, ctx, raw", [
    ("t2^-2 + t1^-1", F2, (1, 2)),              # t2 strips
    ("t1^-2 + t2^-1", F2, (2, 1)),              # t1 strips
    ("t2^-3 + t1^3*t2^-3 + t1^-1", F3, (1, 3))])  # t2 strips
def test_a_first_round_strips_on_either_axis(text, ctx, raw):
    f = poly(text, ctx)
    assert (-valuation(f, "t1"), -valuation(f, "t2")) == raw
    assert conductors(f, 2) == (1, 1, 1)


@pytest.mark.parametrize("text, axis", [("t2^-2 + t1^-1", "t2"),
                                        ("t1^-2 + t2^-1", "t1")])
def test_a_strip_that_leaves_its_line_raises(monkeypatch, text, axis):
    # an image that cancels nothing would be stripped for ever
    monkeypatch.setattr(reduction, "_artin_schreier_over",
                        lambda h, denominator: LaurentPolynomial.zero(h.ctx))
    with pytest.raises(RuntimeError, match=f"the {axis} round at -2 left"):
        swan_conductor(poly(text, F2), axis)


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


# the series reference's Swan loop (tests/series_reference.py) raises
# wherever a cut could change its answer, so that the oracle test compares
# only answers that no truncation can move

def test_swan_raises_when_column_truncated_before_verdict():
    # even pole order, certified part of the column all even exponents,
    # but the column is cut: the divisibility verdict cannot be certified
    s = ref.Series(F2, {(-2, 0): F2.one()}, {(-2, 2)})
    with pytest.raises(PrecisionLossError):
        ref.swan_conductor(s, "t1")


def test_swan_raises_at_the_cut_before_reducing_a_truncated_column():
    # every certified exponent of the leading column is even, so only the
    # unknown tail from t2^4 on could block the reduction; without the
    # cut's guard the loop reduces the certified part and the next
    # valuation raises at the same position, but for another reason
    s = ref.Series(F2, {(-2, 0): F2.one(), (-2, 2): F2.one()}, {(-2, 4)})
    with pytest.raises(PrecisionLossError,
                       match="leading column truncated") as err:
        ref.swan_conductor(s, "t1")
    assert err.value.position == (-2, 4)


def test_swan_certified_blocker_beats_truncation():
    # an exact odd exponent in the column blocks reduction regardless of
    # what the truncated tail hides
    s = ref.Series(F2, {(-2, 1): F2.one()}, {(-2, 3)})
    assert ref.swan_conductor(s, "t1") == 2
