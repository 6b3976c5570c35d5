import contextlib
import copy
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import max_tail_recursion, reference_index_sets, reference_split
from wildram import staircase
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
    assert swan_drop(Staircase()) == 0


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


# ---------------------------------------------------------------------------
# index sets and chart children
# ---------------------------------------------------------------------------

def test_index_sets_examples():
    assert split(S((0, 0), (2, 1))) == ((1,), (0, 1), S((2, -1)),
                                        S((0, 0), (1, 1)))
    assert split(S((0, 0), (1, 2))) == ((0, 1), (0,), S((0, 0), (1, 1)),
                                        S((0, 0)))
    assert split(S((4, -1))) == ((0,), (0,), S((4, -5)), S((5, -1)))


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
    # and its order check raises: here the continuation
    # ((-5, 5), (1, 0)) of ((0, 5), (1, 0))
    with pytest.raises(StaircaseError, match="strictly increase"):
        split(((0, 5), (1, 0)))


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
