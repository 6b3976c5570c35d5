import contextlib
import copy
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import max_tail_recursion, reference_index_sets, reference_split
from wildram import staircase
from wildram.corpus import random_staircase
from wildram.staircase import (RecursionStep, RecursionTrace, Staircase,
                               StaircaseError, area, blowup_term, depth,
                               end_conductors, essential_vertices,
                               is_clean_shape, max_diagonal, quadrant_shape,
                               ramification_bound, ramification_closed_form,
                               ramification_recursive, split, swan_drop)


def S(*pts):
    return Staircase(pts)


def test_validation():
    with pytest.raises(StaircaseError):
        Staircase([(0, 0), (0, 1)])
    with pytest.raises(StaircaseError):
        Staircase([(0, 0), (1, 0)])
    assert len(Staircase()) == 0
    assert len(S((5, 7))) == 1
    # the recursion's children skip only the integer check
    with pytest.raises(StaircaseError):
        Staircase._from_ints(((0, 0), (0, 1)))
    child = Staircase._from_ints(((0, 0), (1, 2)))
    assert type(child) is Staircase and child == S((0, 0), (1, 2))


def test_staircase_is_immutable():
    stair = S((0, 0), (1, 2))
    with pytest.raises(AttributeError):
        stair.points = ((9, 9),)
    assert stair == S((0, 0), (1, 2))
    assert repr(stair) == "Staircase([(0, 0), (1, 2)])"


def test_staircase_is_its_tuple_of_points():
    stair = S((0, 0), (1, 2))
    assert stair == ((0, 0), (1, 2))
    assert hash(stair) == hash(((0, 0), (1, 2)))
    for copied in [copy.copy(stair), copy.deepcopy(stair)] + [
            pickle.loads(pickle.dumps(stair, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert type(copied) is Staircase
        assert copied == stair


def test_staircase_rejects_non_integer_coordinates():
    # nothing is truncated or parsed: 1.5 is not 1 and "3" is not 3
    for points in ([(1.5, 2), (2.9, 3.7)], [("3", "4")], [(0, 0), (1, 2.0)]):
        with pytest.raises(StaircaseError, match="must be integers"):
            Staircase(points)
    assert Staircase([(True, 2)]) == ((1, 2),)


def test_a_built_staircase_is_taken_as_it_is():
    stair = S((0, 0), (1, 2))
    assert Staircase(stair) is stair


def test_recursion_validates_a_plain_sequence():
    with pytest.raises(StaircaseError):
        ramification_recursive(((0, 0), (0, 1)), 2)
    plain = ramification_recursive([(0, 0), (1, 2)], 2)
    assert plain.total == ramification_recursive(S((0, 0), (1, 2)), 2).total
    assert type(plain.steps[0].staircase) is Staircase


# ---------------------------------------------------------------------------
# hull
# ---------------------------------------------------------------------------

def test_hull_picks_min_slope():
    assert essential_vertices(S((0, 0), (1, 4), (2, 5))) == S((0, 0), (2, 5))


def test_hull_tie_goes_to_farthest_index():
    assert essential_vertices(S((0, 0), (1, 3), (2, 6))) == S((0, 0), (2, 6))


def test_hull_singleton():
    assert essential_vertices(S((5, 7))) == S((5, 7))


def test_hull_already_convex():
    stair = S((0, 0), (1, 1), (3, 5))
    assert essential_vertices(stair) == stair


def test_hull_of_empty_raises():
    with pytest.raises(StaircaseError):
        essential_vertices(Staircase())


# ---------------------------------------------------------------------------
# area, depth, drop, term
# ---------------------------------------------------------------------------

def test_area_values():
    assert area(S((0, 0), (2, 5))) == 10
    assert area(S((0, 0), (1, 1), (3, 5))) == 13
    assert area(S((4, 2))) == 0
    assert area(Staircase()) == 0


def test_depth():
    assert depth(S((0, 0), (2, 5))) == 7
    assert depth(S((3, 3))) == 0
    assert depth(S((1, -2), (3, -1))) == 3


def test_swan_drop_values():
    assert swan_drop(S((0, 0), (2, 1))) == 1
    assert swan_drop(S((1, -2), (3, -1))) == 1
    assert swan_drop(S((0, 0))) == 0


def test_swan_drop_of_empty_staircase_is_zero():
    # the empty staircase has no diagonal term, so only the end
    # conductors of its definition remain
    assert swan_drop(Staircase()) == 0 == sum(end_conductors(Staircase()))


def test_swan_drop_refuses_a_negative_drop():
    # no staircase has one; a sequence out of order does: its diagonal
    # term 5 - 0 exceeds both end conductors, which are 0
    with pytest.raises(StaircaseError, match="negative conductor drop -5"):
        swan_drop(((5, 0), (0, 10)))


def test_end_conductors():
    assert end_conductors(Staircase()) == (0, 0)
    assert end_conductors(S((-3, -2), (-1, 4))) == (0, 2)
    assert end_conductors(S((0, 0), (2, 1))) == (2, 0)


def test_blowup_term():
    assert blowup_term(1, 1) == 0
    assert blowup_term(1, 2) == 1
    assert blowup_term(2, 2) == 4
    with pytest.raises(ValueError):
        blowup_term(-1, 2)


@pytest.mark.parametrize("call, shown", [
    (lambda: ramification_recursive(S((0, 0), (1, 4), (2, 5)), True), "True"),
    (lambda: ramification_closed_form(S((0, 0), (1, 4), (2, 5)), 1.0), "1.0"),
    (lambda: blowup_term(2.5, 1), "2.5"),
], ids=["bool branches", "float branches", "float drop"])
def test_branches_and_drop_must_be_integers(call, shown):
    # True == 1 and 1.0 == 1, but neither is a branch count
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value).endswith(f"got {shown}")


# ---------------------------------------------------------------------------
# index sets and chart children
# ---------------------------------------------------------------------------

def test_index_sets_examples():
    assert split(S((0, 0), (2, 1))) == ((1,), (0, 1), S((2, -1)),
                                        S((0, 0), (1, 1)))
    assert split(S((0, 0), (1, 2))) == ((0, 1), (0,), S((0, 0), (1, 1)),
                                        S((0, 0)))
    assert split(S((4, -1))) == ((0,), (0,), S((4, -5)), S((5, -1)))
    # equal differences b_j - a_j: one point in each child
    assert split(S((1, -4), (6, 1))) == ((1,), (0,), S((6, -5)),
                                         S((5, -4)))


def test_index_sets_always_keep_endpoints():
    stair = S((0, 0), (1, 4), (2, 5))
    first, second, _, _ = split(stair)
    assert len(stair) - 1 in first
    assert 0 in second


def test_children_are_valid_staircases():
    stair = S((0, 0), (1, 4), (2, 5))
    _, _, crossing, continuation = split(stair)
    assert crossing == S((0, 0), (2, 3))
    assert continuation == S((0, 0))


def test_split_checks_the_order_of_its_children():
    # on a sequence that is not a staircase a child comes out of order,
    # and its order check raises.  On two points the branch condition
    # orders one coordinate of the two-point child and the other is
    # compared inline: a_0 > a_1 in the crossing child ((5, -5), (1, 9))
    # of ((5, 0), (1, 10)), and b_0 > b_1 in the continuation child
    # ((-5, 5), (1, 0)) of ((0, 5), (1, 0))
    for points, shown in ((((5, 0), (1, 10)), "(5, -5) !< (1, 9)"),
                          (((0, 5), (1, 0)), "(-5, 5) !< (1, 0)")):
        with pytest.raises(StaircaseError,
                           match=re.escape(f"strictly increase: {shown}")):
            split(points)


def test_split_checks_the_order_of_long_children():
    # past two points each pass compares the coordinate its filter does
    # not order, and a child out of order raises Staircase._from_ints's
    # error, on its first pair out of order.  Every point of
    # ((5, 0), (1, 10), (7, 20), (3, 30)) is kept in the crossing child,
    # whose a coordinates fall twice; every point of
    # ((0, 10), (5, 0), (20, 5), (30, 1)) in the continuation child, whose
    # b coordinates fall twice, while its crossing child is one point
    for points, shown in (
            ([(5, 0), (1, 10), (7, 20), (3, 30)], "(5, -5) !< (1, 9)"),
            ([(0, 10), (5, 0), (20, 5), (30, 1)], "(-10, 10) !< (5, 0)")):
        with pytest.raises(StaircaseError) as raised:
            split(points)
        assert str(raised.value) == \
            f"coordinates must strictly increase: {shown}"
        # the message is the one the definition's split gives
        with pytest.raises(StaircaseError) as definition:
            reference_split(points)
        assert str(raised.value) == str(definition.value)


# ---------------------------------------------------------------------------
# the recursion, its closed form, the bound
# ---------------------------------------------------------------------------

def test_recursion_worked_examples():
    assert ramification_recursive(S((0, 0), (1, 4), (2, 5)), 2).total == 10
    assert ramification_recursive(S((0, 0), (1, 2)), 1).total == 1
    assert ramification_recursive(S((0, 0), (1, 1)), 1).total == 0
    assert ramification_recursive(S((7, -3)), 1).total == 0
    assert ramification_recursive(S((7, -3)), 2).total == 0
    assert ramification_recursive(Staircase(), 2).total == 0


def test_recursion_trace_records_steps():
    trace = ramification_recursive(S((0, 0), (1, 4), (2, 5)), 2)
    assert trace.total == sum(s.term for s in trace.steps)
    assert trace.steps[0].drop == 2 and trace.steps[0].term == 4


@pytest.mark.parametrize("grown", [(), ((3, 9),)])
def test_recursion_stops_on_a_child_that_does_not_descend(monkeypatch, grown):
    # the first step's crossing child is replaced by its parent, with the
    # points `grown` appended: the same length and depth, or a longer
    # staircase; either would let the recursion run on forever
    stuck = iter([True])

    def stuck_once(stair):
        first, second, crossing, continuation = split(stair)
        if next(stuck, False):
            crossing = Staircase(stair + grown)
        return first, second, crossing, continuation

    monkeypatch.setattr(staircase, "split", stuck_once)
    with pytest.raises(StaircaseError, match="failed to decrease"):
        ramification_recursive(S((0, 0), (1, 4), (2, 5)), 2)


@pytest.mark.parametrize("stuck_child", ["crossing", "continuation"])
def test_recursion_stops_when_one_of_two_children_does_not_descend(
        monkeypatch, stuck_child):
    # both children of ((0, 0), (2, 1), (3, 5)) have two points, so the
    # recursion goes on with the crossing child and pushes the
    # continuation; the first step's crossing or continuation child is
    # replaced by its parent, which has the same length and depth
    stair = S((0, 0), (2, 1), (3, 5))
    _, _, crossing, continuation = split(stair)
    assert len(crossing) == len(continuation) == 2
    stuck = iter([True])

    def stuck_once(points):
        children = dict(zip(("first", "second", "crossing", "continuation"),
                            split(points)))
        if next(stuck, False):
            children[stuck_child] = points
        return tuple(children.values())

    monkeypatch.setattr(staircase, "split", stuck_once)
    with pytest.raises(StaircaseError) as raised:
        ramification_recursive(stair, 2)
    assert str(raised.value) == ("recursion measure failed to decrease: "
                                 f"{stair!r} -> {stair!r}")


def test_recursion_step_is_a_tuple_of_six_named_fields():
    stair = S((0, 0), (1, 4), (2, 5))
    step = RecursionStep(stair, 1, 3, 6, (0, 2), (1,))
    assert (step.staircase, step.branches, step.drop, step.term,
            step.first_indices, step.second_indices) == (
                stair, 1, 3, 6, (0, 2), (1,))
    assert tuple(step) == (stair, 1, 3, 6, (0, 2), (1,))
    # the recursion's records read back by name
    first = ramification_recursive(stair, 2).steps[0]
    assert (first.staircase, first.branches, first.drop, first.term,
            first.first_indices, first.second_indices) == (
                stair, 2, 2, 4, (0, 2), (0,))


def test_recursion_reads_the_clamped_conductor_along_e():
    # every diagonal of ((0, 1), (1, 3)) is negative, so the conductor
    # along the exceptional curve is 0, not max_diagonal = -1; reading
    # the continuation's last a without its clamp gives totals 6 and 8
    stair = S((0, 1), (1, 3))
    assert max_diagonal(stair) == -1
    for branches, drops_and_terms, total in ((1, [(1, 0), (1, 1)], 1),
                                             (2, [(1, 1), (1, 1)], 2)):
        trace = ramification_recursive(stair, branches)
        assert [(s.drop, s.term) for s in trace.steps] == drops_and_terms
        assert trace.total == total == ramification_closed_form(
            stair, branches)
        assert all(s.drop == swan_drop(s.staircase) for s in trace.steps)


def test_recursion_refuses_a_negative_drop_from_its_split(monkeypatch):
    # the first step's continuation child is replaced by a single point
    # at a = 3, above the ends' conductors 2 + 0: the drop read off it is
    # -1, which no valid staircase gives, and raises swan_drop's error
    stair = S((0, 0), (1, 4), (2, 5))
    wrong = iter([True])

    def wrong_once(points):
        first, second, crossing, continuation = split(points)
        if next(wrong, False):
            continuation = Staircase([(3, 0)])
        return first, second, crossing, continuation

    monkeypatch.setattr(staircase, "split", wrong_once)
    with pytest.raises(StaircaseError) as raised:
        ramification_recursive(stair, 2)
    assert str(raised.value) == (
        "negative conductor drop -1 for Staircase([(0, 0), (1, 4), (2, 5)])")


def test_closed_form_examples():
    assert ramification_closed_form(S((0, 0), (1, 1)), 1) == 0
    assert ramification_closed_form(S((0, 0), (2, 1)), 2) == 2
    assert ramification_closed_form(S((0, 0), (1, 4), (2, 5)), 2) == 10


def test_bound_examples():
    assert ramification_bound(S((1, -2), (3, -1)), 2) == 7
    assert ramification_bound(S((0, 0), (1, 2)), 1) == 1
    assert ramification_bound(S((0, 0), (1, 1), (3, 5)), 2) == 15
    assert ramification_closed_form(S((0, 0), (1, 1), (3, 5)), 2) == 13


def test_clean_shapes():
    assert is_clean_shape(S((2, -1)), 2)
    assert is_clean_shape(S((1, 0), (3, 1)), 1)
    assert not is_clean_shape(S((0, 0), (1, 1)), 2)
    assert not is_clean_shape(S((1, 0), (3, 2)), 1)
    assert is_clean_shape(Staircase(), 1)


def test_mutant_index_rule_breaks_closed_form():
    # the strict-below-max filter disagrees on ((0,0),(1,2)); the closed
    # form catches a recursion that regresses to it
    stair = S((0, 0), (1, 2))
    with max_tail_recursion():
        assert ramification_recursive(stair, 2).total == 1
    assert ramification_closed_form(stair, 2) == 2
    assert ramification_recursive(stair, 2).total == 2


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def quadrant_staircases(draw):
    count = draw(st.integers(1, 7))
    aa = sorted(draw(st.sets(st.integers(-20, 20), min_size=count,
                             max_size=count)))
    bb = sorted(draw(st.sets(st.integers(-20, 20), min_size=count,
                             max_size=count)))
    pivot = draw(st.integers(0, count - 1))
    sa = draw(st.integers(0, 20)) - aa[pivot]
    sb = draw(st.integers(-20, 0)) - bb[pivot]
    return Staircase([(a + sa, b + sb) for a, b in zip(aa, bb)])


@st.composite
def any_staircases(draw):
    count = draw(st.integers(1, 7))
    aa = sorted(draw(st.sets(st.integers(-30, 30), min_size=count,
                             max_size=count)))
    bb = sorted(draw(st.sets(st.integers(-30, 30), min_size=count,
                             max_size=count)))
    return Staircase(list(zip(aa, bb)))


@st.composite
def one_branch_staircases(draw):
    # the shape at a point on a single boundary branch: no t2 poles, so
    # b_0 = 0 after reduction, and a_0 >= 0
    count = draw(st.integers(1, 7))
    aa = sorted(draw(st.sets(st.integers(0, 30), min_size=count,
                             max_size=count)))
    bb = [0] + sorted(draw(st.sets(st.integers(1, 30), min_size=count - 1,
                                   max_size=count - 1)))
    return Staircase(list(zip(aa, bb)))


@given(quadrant_staircases())
def test_closed_form_matches_recursion(stair):
    assert quadrant_shape(stair)
    for branches in (1, 2):
        assert (ramification_recursive(stair, branches).total
                == ramification_closed_form(stair, branches))


@given(quadrant_staircases())
def test_recursion_depends_only_on_hull(stair):
    hull = essential_vertices(stair)
    for branches in (1, 2):
        assert (ramification_recursive(stair, branches).total
                == ramification_recursive(hull, branches).total)


@given(any_staircases())
def test_hull_is_idempotent_with_increasing_slopes(stair):
    hull = essential_vertices(stair)
    assert essential_vertices(hull) == hull
    for i in range(len(hull) - 2):
        lhs = (hull[i + 1][1] - hull[i][1]) * (hull[i + 2][0] - hull[i + 1][0])
        rhs = (hull[i + 2][1] - hull[i + 1][1]) * (hull[i + 1][0] - hull[i][0])
        assert lhs < rhs


@given(any_staircases())
def test_max_diagonal_preserved_by_hull(stair):
    assert max_diagonal(stair) == max_diagonal(essential_vertices(stair))


@given(any_staircases())
def test_drop_is_nonnegative(stair):
    assert swan_drop(stair) >= 0


@given(quadrant_staircases())
def test_bound_dominates_closed_form_at_crossings(stair):
    # contentful on non-clean staircases
    if len(stair) > 1:
        assert (ramification_closed_form(stair, 2)
                <= ramification_bound(stair, 2))


@given(one_branch_staircases())
def test_bound_dominates_closed_form_on_one_branch(stair):
    # the one-branch bound goes negative on b = 0 singletons, where
    # nothing needs blowing up anyway; it is contentful otherwise
    if len(stair) > 1:
        assert (ramification_closed_form(stair, 1)
                <= ramification_bound(stair, 1))
        assert ramification_bound(stair, 1) >= 0


@given(any_staircases())
def test_children_shrink_the_measure(stair):
    if len(stair) <= 1:
        return
    measure = (len(stair), depth(stair))
    for child in split(stair)[2:]:
        assert (len(child), depth(child)) < measure


# ---------------------------------------------------------------------------
# the linear-time split and the stack-driven recursion against the
# quadratic filters and the recursive definition
# ---------------------------------------------------------------------------

def _reference_recurse(stair, branches, trace, rule):
    """One Python call per step, children from the reference filters."""
    if len(stair) <= 1:
        return
    drop = swan_drop(stair)
    term = blowup_term(drop, branches)
    first, second = reference_index_sets(stair, rule)
    trace.total += term
    trace.steps.append(RecursionStep(stair, branches, drop, term, first, second))
    measure = (len(stair), depth(stair))
    for child, child_branches in (
            (Staircase([(stair[j][0], stair[j][1] - stair[j][0])
                        for j in first]), 2),
            (Staircase([(stair[j][0] - stair[j][1], stair[j][1])
                        for j in second]), branches)):
        if len(child) == 0:
            continue
        assert (len(child), depth(child)) < measure
        _reference_recurse(child, child_branches, trace, rule)


@st.composite
def long_staircases(draw, max_points=80, spread=400):
    count = draw(st.integers(1, max_points))
    aa = sorted(draw(st.sets(st.integers(-spread, spread), min_size=count,
                             max_size=count)))
    bb = sorted(draw(st.sets(st.integers(-spread, spread), min_size=count,
                             max_size=count)))
    return Staircase(list(zip(aa, bb)))


@given(long_staircases())
def test_index_sets_match_quadratic_filters(stair):
    # the index sets from the quadratic filters, the children from their
    # definition over those sets
    assert split(stair) == reference_split(stair)


@st.composite
def two_point_staircases(draw, spread=2000):
    # the first point anywhere, the second above and to its right; one
    # draw in three forces b_1 - a_1 = b_0 - a_0, where both children are
    # single points
    a0 = draw(st.integers(-spread, spread - 1))
    b0 = draw(st.integers(-spread, spread - 1))
    if draw(st.integers(0, 2)) == 0:
        step = draw(st.integers(1, spread - max(a0, b0)))
        return Staircase([(a0, b0), (a0 + step, b0 + step)])
    a1 = draw(st.integers(a0 + 1, spread))
    b1 = draw(st.integers(b0 + 1, spread))
    return Staircase([(a0, b0), (a1, b1)])


@given(two_point_staircases())
def test_two_point_split_matches_quadratic_filters(stair):
    assert split(stair) == reference_split(stair)


@given(long_staircases())
def test_swan_drop_is_its_definition(stair):
    sw1, sw2 = end_conductors(stair)
    assert swan_drop(stair) == sw1 + sw2 - max(max_diagonal(stair), 0)


@given(two_point_staircases())
def test_two_point_swan_drop_is_its_definition(stair):
    # the two-point case compares the two diagonals without max_diagonal
    sw1, sw2 = end_conductors(stair)
    assert swan_drop(stair) == sw1 + sw2 - max(max_diagonal(stair), 0)


@given(st.one_of(long_staircases(), two_point_staircases()))
def test_children_carry_the_conductor_along_e(stair):
    # the recursion reads the conductor along the exceptional curve off
    # the continuation child; the crossing child carries it at its start
    crossing, continuation = split(stair)[2:]
    assert (end_conductors(continuation)[0] == max(max_diagonal(stair), 0)
            == end_conductors(crossing)[1])


def _step_record(trace):
    return (trace.total,
            [(s.staircase, s.branches, s.drop, s.term, s.first_indices,
              s.second_indices) for s in trace.steps])


@given(long_staircases(max_points=6, spread=12))
def test_recursion_steps_match_recursive_definition(stair):
    # with the max_tail mutant in place of the program's filter, the
    # recursion can build an invalid child; then both routes must fail on
    # the same child
    for rule, patch in (("minimal", contextlib.nullcontext),
                        ("max_tail", max_tail_recursion)):
        for branches in (1, 2):
            expected = RecursionTrace()
            try:
                _reference_recurse(stair, branches, expected, rule)
            except StaircaseError as exc:
                with patch(), pytest.raises(StaircaseError) as raised:
                    ramification_recursive(stair, branches)
                assert str(raised.value) == str(exc)
                continue
            with patch():
                trace = ramification_recursive(stair, branches)
            assert _step_record(trace) == _step_record(expected)


@pytest.fixture
def raised_recursion_limit():
    # the reference takes one Python call per step
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 5000))
    yield
    sys.setrecursionlimit(old)


def test_recursion_steps_match_recursive_definition_on_long_chains(
        raised_recursion_limit):
    # most steps of a deep staircase are on two-point chains with
    # coordinates in the hundreds, after a first split of a long staircase
    thin = random_staircase(random.Random(23), max_segments=60,
                            coord_bound=200, shape="branch")
    assert len(thin) >= 50
    for stair in (S((0, 0), (1, 700)), S((0, 0), (613, 200)),
                  S((3, -517), (404, 2)), S((0, 0), (377, 610)), thin):
        for branches in (1, 2):
            expected = RecursionTrace()
            _reference_recurse(stair, branches, expected, "minimal")
            trace = ramification_recursive(stair, branches)
            assert _step_record(trace) == _step_record(expected)


def _long_staircase(rng, shape, spread=400):
    """20 to 80 points with coordinates within `spread` of each other:
    unit steps in b and wide steps in a ("thin"), some point in the
    quadrant a >= 0, b <= 0 ("crossing"), or b_0 = 0 ("branch")."""
    count = rng.randint(20, 80)
    if shape == "thin":
        aa = sorted(rng.sample(range(spread + 1), count))
        return Staircase(list(zip(aa, range(count))))
    aa = sorted(rng.sample(range(spread + 1), count))
    bb = sorted(rng.sample(range(spread + 1), count))
    if shape == "branch":
        return Staircase([(a, b - bb[0]) for a, b in zip(aa, bb)])
    pivot = rng.randrange(count)
    return Staircase([(a - aa[pivot], b - bb[pivot]) for a, b in zip(aa, bb)])


def test_recursion_steps_match_recursive_definition_on_long_staircases():
    # the reference takes one Python call per step, and coordinates within
    # 400 keep it under the default recursion limit.  With the max_tail
    # mutant in place of the program's filter both routes must record the
    # same steps too, or fail on the same child
    rng = random.Random(38)
    pushed = 0
    for index in range(200):
        stair = _long_staircase(rng, ("thin", "crossing", "branch")[index % 3])
        for rule, patch in (("minimal", contextlib.nullcontext),
                            ("max_tail", max_tail_recursion)):
            for branches in (1, 2):
                expected = RecursionTrace()
                try:
                    _reference_recurse(stair, branches, expected, rule)
                except StaircaseError as exc:
                    with patch(), pytest.raises(StaircaseError) as raised:
                        ramification_recursive(stair, branches)
                    assert str(raised.value) == str(exc)
                    continue
                with patch():
                    trace = ramification_recursive(stair, branches)
                assert _step_record(trace) == _step_record(expected)
                # a step with two children of two or more points pushes
                # its continuation
                pushed += sum(len(step.first_indices) > 1
                              and len(step.second_indices) > 1
                              for step in trace.steps)
    assert pushed > 0


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def test_deep_reproducer(default_recursion_limit):
    # the staircase of t1^-2001*t2^2000 + 1 on one branch: one step per
    # unit of a_k, far beyond Python's default recursion limit
    stair = S((0, 0), (2001, 2000))
    trace = ramification_recursive(stair, 1)
    assert trace.total == 3_999_999 == ramification_closed_form(stair, 1)
    assert len(trace.steps) == 2001


def test_coordinates_of_ten_to_the_fifth(default_recursion_limit):
    stair = S((0, 0), (1, 100_000))
    trace = ramification_recursive(stair, 1)
    assert len(trace.steps) == 100_000
    assert trace.total == ramification_closed_form(stair, 1) == 99_999
