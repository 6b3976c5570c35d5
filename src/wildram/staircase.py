"""Integer combinatorics of pole staircases.

A staircase is a finite sequence of lattice points (a_0,b_0),...,(a_k,b_k)
with both coordinates strictly increasing.  For a defining function f of a
degree-p cover, a records the pole order along the first boundary branch
and b the exponent of the second coordinate, so the staircase is the
minimal-corner profile of the poles of f.  ``Staircase`` is the tuple of
these points, checked once when it is built; every function here reads it
as a plain sequence of (a, b) pairs.  Everything in this module is pure
integer arithmetic; no field elements enter.

The central quantity is a recursively defined local ramification total.
One step of the recursion mirrors one blow-up of the origin: the staircase
splits into the two corner profiles seen at the two crossing points on the
exceptional curve (the images under the exponent maps (a,b) -> (a, b-a)
and (a,b) -> (a-b, b), filtered back to minimal corners, by ``split``),
and the step contributes e*(e-1) or e**2 where e is the drop of the Swan
conductor sum across the blow-up.  The recursion reads e off the ends and
the continuation child, whose last point carries the conductor along the
exceptional curve; ``swan_drop`` reads it off the staircase alone, for
the blow-up simulator and as the recursion's oracle.  A child of 0 or 1
points adds 0; the recursion goes on with a child of two or more points
and keeps a stack entry only when both children have two or more.  The
recursion admits a closed form: twice the area between the essential hull
of the staircase and its baseline, corrected by (t-2)*(a_k-a_0) for a
point on t boundary branches.  Both routes are implemented and
cross-checked, along with a proven upper bound for the blow-up total.

Slope comparisons are exact (cross multiplication); no rationals, no
floats.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass, field


class StaircaseError(ValueError):
    """Invalid staircase input for an operation."""


class Staircase(tuple):
    """A strictly increasing sequence of lattice points: a tuple of
    (a, b) pairs, validated once when it is built.

    Immutable.  May be empty (trivial cover) or a single point.  It
    compares and hashes as the tuple of its points.  A Staircase passed
    in is returned as it is, already checked.
    """

    __slots__ = ()

    def __new__(cls, points=()):
        if type(points) is cls:
            return points
        try:
            pts = tuple((operator.index(a), operator.index(b))
                        for a, b in points)
        except TypeError as err:
            raise StaircaseError(f"coordinates must be integers: {err}") from None
        return cls._from_ints(pts)

    @classmethod
    def _from_ints(cls, pts):
        """A staircase from a sequence of (int, int) tuples: the order is
        checked, the points are taken as they are."""
        rest = iter(pts)
        for a0, b0 in rest:
            # the first point; the inner loop takes every later one, with
            # the point before it kept in (a0, b0)
            for a1, b1 in rest:
                if not (a0 < a1 and b0 < b1):
                    raise StaircaseError(
                        "coordinates must strictly increase: "
                        f"{(a0, b0)} !< {(a1, b1)}")
                a0 = a1
                b0 = b1
        return tuple.__new__(cls, pts)

    def __repr__(self):
        return f"Staircase({list(self)})"


def _require_nonempty(stair, op):
    if len(stair) == 0:
        raise StaircaseError(f"{op} is undefined for an empty staircase")


def _check_branches(branches):
    # an int, not a bool or a float that equals 1 or 2
    if type(branches) is not int or not 1 <= branches <= 2:
        raise ValueError(
            f"a boundary point lies on 1 or 2 branches, got {branches!r}")


# ---------------------------------------------------------------------------
# hull, area, depth
# ---------------------------------------------------------------------------

def essential_vertices(stair):
    """The lower convex hull of the staircase.

    Starting from the first point, repeatedly jump to the farthest point
    realizing the minimal slope from the current one.  Ties go to the
    larger index, so collinear interior points are skipped.  The output
    contains the first and last points and its consecutive slopes strictly
    increase; the operation is idempotent.
    """
    _require_nonempty(stair, "essential_vertices")
    k = len(stair) - 1
    out = [stair[0]]
    i = 0
    while i < k:
        ai, bi = stair[i]
        best = i + 1
        # the offsets (da, db) of the best point from point i
        da, db = stair[best][0] - ai, stair[best][1] - bi
        for j in range(i + 2, k + 1):
            aj, bj = stair[j]
            # slope(i->j) <= slope(i->best), exactly; denominators positive
            if (bj - bi) * da <= db * (aj - ai):
                best = j
                da, db = aj - ai, bj - bi
        out.append(stair[best])
        i = best
    return Staircase(out)


def area(stair):
    """Twice the area between the staircase polyline and its baseline.

    The trapezoid sum of (a_{i+1} - a_i) * (b_{i+1} + b_i - 2*b_0), which
    is a nonnegative integer for any valid staircase.  Empty and singleton
    staircases have area 0.
    """
    if len(stair) <= 1:
        return 0
    b0 = stair[0][1]
    return sum((a1 - a0) * (b1 + b0_ - 2 * b0)
               for (a0, b0_), (a1, b1) in zip(stair, stair[1:]))


def depth(stair):
    """Coordinate spread a_k - a_0 + b_k - b_0, the recursion's measure."""
    _require_nonempty(stair, "depth")
    (a0, b0), (ak, bk) = stair[0], stair[-1]
    return ak - a0 + bk - b0


# ---------------------------------------------------------------------------
# the per-blow-up drop and its contribution
# ---------------------------------------------------------------------------

def end_conductors(stair):
    """The Swan conductors along the two boundary branches, read off the
    staircase ends: (max(a_k, 0), max(-b_0, 0)).  The empty staircase,
    a function regular at the point, gives (0, 0)."""
    if not stair:
        return 0, 0
    return max(stair[-1][0], 0), max(-stair[0][1], 0)


def swan_drop(stair):
    """Drop of the Swan conductor sum across one blow-up, read off the
    staircase: the two end_conductors minus max(max_diagonal, 0), the
    conductor along the exceptional curve, that is

        max(a_k, 0) + max(-b_0, 0) - max(max_i (a_i - b_i), 0).

    The blow-up simulator reads a node's drop with it, and the recursion,
    which reads the same value off split's continuation child, is checked
    against it.  On two points it compares the two diagonals and builds no
    list; end_conductors and max_diagonal are the tests' oracle for it.
    The value is 0 for the empty staircase and >= 0 for every valid
    staircase; a negative result means corrupted input and raises.
    """
    if len(stair) == 2:
        (a0, b0), (a1, b1) = stair
        d0 = a0 - b0
        d1 = a1 - b1
        value = ((a1 if a1 > 0 else 0) + (-b0 if b0 < 0 else 0)
                 - (d0 if d0 > d1 and d0 > 0 else d1 if d1 > 0 else 0))
    elif not stair:
        return 0
    else:
        value = (max(stair[-1][0], 0) + max(-stair[0][1], 0)
                 - max(max([a - b for a, b in stair]), 0))
    if value < 0:
        raise StaircaseError(f"negative conductor drop {value} for {stair!r}")
    return value


def blowup_term(drop, branches):
    """Contribution of one blow-up: drop*(drop-1) on one branch, drop**2
    at a crossing.  Both arguments are ints, not bools."""
    _check_branches(branches)
    if type(drop) is not int or drop < 0:
        raise ValueError(f"conductor drop must be an integer >= 0, got {drop!r}")
    return drop * (drop - 1) if branches == 1 else drop * drop


# ---------------------------------------------------------------------------
# the two chart transforms
# ---------------------------------------------------------------------------

# the index sets of a two-point staircase
_BOTH = (0, 1)
_HEAD = (0,)
_TAIL = (1,)
# a Staircase or RecursionStep from checked fields, without a second check
_new_tuple = tuple.__new__


def split(stair):
    """The index sets and children at the two crossing points of a blow-up.

    The sets are the minimal-corner filters of the transformed corner sets:

        first  (chart where the old second branch survives):
                 { j : b_j - a_j < min over i > j of (b_i - a_i) }
        second (chart where the old first branch survives):
                 { j : a_j - b_j > max over i < j of (a_i - b_i) }

    An empty range puts its index in the set, so the last index always
    belongs to the first set and index 0 to the second; each pass starts
    from that end point and compares integers only.  The crossing child
    (a_j, b_j - a_j) over `first` and the continuation child
    (a_j - b_j, b_j) over `second` are built in the same passes, so the
    continuation's last point has a = max_i (a_i - b_i), whose positive
    part is the conductor along the exceptional curve.  The filter orders
    one coordinate of each child and the pass compares the other with the
    point kept before; a child out of order raises `_from_ints`'s error.

    Most steps of a deep recursion are on two points, and there the two
    differences d_0 = b_0 - a_0 and d_1 = b_1 - a_1 decide both filters
    without a pass: index 0 is in `first` iff d_0 < d_1, and index 1 is
    in `second` iff a_1 - b_1 > a_0 - b_0, that is iff d_0 > d_1.  So
    d_0 < d_1 keeps both points in the crossing child, d_0 > d_1 keeps
    both in the continuation child, and d_0 = d_1 leaves one point in
    each: (a_1, d_1) and (-d_0, b_0).  This is the definition read for
    k = 1, so the case is exact.  The branch condition orders one
    coordinate of a two-point child, and the other, a_0 < a_1 or
    b_0 < b_1, is compared inline; a single point needs no check.

    `_recurse` looks this function up at each step, so a test can replace
    it with a wrong filter and check that the closed form and the corpus
    catch it.
    """
    if len(stair) == 2:
        (a0, b0), (a1, b1) = stair
        d0 = b0 - a0
        d1 = b1 - a1
        # the branch condition orders one coordinate of the two-point
        # child, and the other is compared here, as `_from_ints` would
        if d0 < d1:
            if not a0 < a1:
                raise StaircaseError("coordinates must strictly increase: "
                                     f"{(a0, d0)} !< {(a1, d1)}")
            return (_BOTH, _HEAD,
                    _new_tuple(Staircase, ((a0, d0), (a1, d1))),
                    _new_tuple(Staircase, ((-d0, b0),)))
        if d0 > d1:
            if not b0 < b1:
                raise StaircaseError("coordinates must strictly increase: "
                                     f"{(-d0, b0)} !< {(-d1, b1)}")
            return (_TAIL, _BOTH,
                    _new_tuple(Staircase, ((a1, d1),)),
                    _new_tuple(Staircase, ((-d0, b0), (-d1, b1))))
        return (_TAIL, _HEAD,
                _new_tuple(Staircase, ((a1, d1),)),
                _new_tuple(Staircase, ((-d0, b0),)))
    _require_nonempty(stair, "split")
    # one pass from the right: `tail` is the min of b_i - a_i over i > j.
    # The filter orders the crossing child's second coordinate, and its
    # first is compared with `kept`, the a of the point kept before
    last = len(stair) - 1
    a, b = stair[last]
    tail = b - a
    first, crossing, kept, ordered = [last], [(a, tail)], a, True
    for j in range(last - 1, -1, -1):
        a, b = stair[j]
        here = b - a
        if here < tail:
            if not a < kept:
                ordered = False
            tail, kept = here, a
            first.append(j)
            crossing.append((a, here))
    first.reverse()
    crossing.reverse()
    # one pass from the left: `head` is the max of a_i - b_i over i < j,
    # and the continuation child's b is compared with the b kept before
    a, b = stair[0]
    head = a - b
    second, continuation, kept = [0], [(head, b)], b
    for j in range(1, last + 1):
        a, b = stair[j]
        here = a - b
        if here > head:
            if not kept < b:
                ordered = False
            head, kept = here, b
            second.append(j)
            continuation.append((here, b))
    if not ordered:
        # a child is out of order: `_from_ints` raises on its first such pair
        Staircase._from_ints(crossing)
        Staircase._from_ints(continuation)
    return (tuple(first), tuple(second), _new_tuple(Staircase, crossing),
            _new_tuple(Staircase, continuation))


# ---------------------------------------------------------------------------
# the recursive total, its closed form, and the upper bound
# ---------------------------------------------------------------------------

class RecursionStep(namedtuple("RecursionStep", "staircase branches drop "
                               "term first_indices second_indices")):
    """One step of the recursion: the staircase, its branch count, the
    drop, the term blowup_term(drop, branches) and split's index sets.
    A named tuple, so the recursion builds it with no __init__ call."""

    __slots__ = ()


@dataclass
class RecursionTrace:
    total: int = 0
    steps: list = field(default_factory=list)


def ramification_recursive(stair, branches):
    """The local ramification total, by the staircase recursion.

    Each step contributes blowup_term(e, branches), with e swan_drop's
    value read off the ends and the continuation child, and recurses into
    the two child profiles; the crossing child always sits on two
    branches, the continuation child inherits the branch count.  Single
    points (and the empty staircase) contribute 0.  Termination is by the
    strict lexicographic descent of (length, depth), which is asserted.
    The steps run in a loop, not by Python calls, so their number is not
    limited by Python's recursion limit.  `stair` may be any sequence of
    pairs; it is validated as a Staircase first, unless it is one.
    """
    _check_branches(branches)
    trace = RecursionTrace()
    _recurse(Staircase(stair), branches, trace)
    return trace


def _recurse(stair, branches, trace):
    # a walk in preorder, the crossing child's subtree first; the
    # continuation is pushed only when both children have two or more
    # points.  A staircase of fewer points records no step and adds 0
    if len(stair) < 2:
        return
    stack = []
    record = trace.steps.append
    total = trace.total
    while True:
        size = len(stair)
        # looked up at each step, so that a test can replace it
        first, second, crossing, continuation = split(stair)
        # swan_drop's value: the continuation's last a is max_i (a_i - b_i)
        (a0, b0), (ak, bk) = stair[0], stair[-1]
        c = continuation[-1][0]
        drop = ((ak if ak > 0 else 0) + (-b0 if b0 < 0 else 0)
                - (c if c > 0 else 0))
        if drop < 0:
            raise StaircaseError(
                f"negative conductor drop {drop} for {stair!r}")
        # blowup_term, inline: branches is 1 or 2 (checked on entry)
        term = drop * drop if branches == 2 else drop * (drop - 1)
        total += term
        record(_new_tuple(RecursionStep,
                          (stair, branches, drop, term, first, second)))
        n_crossing = len(crossing)
        n_continuation = len(continuation)
        if n_crossing >= size or n_continuation >= size:
            # the measure (length, depth) must fall; a shorter child
            # descends whatever its depth, so a child's depth is read off
            # its end points only when it is not shorter
            for child in (crossing, continuation):
                length = len(child)
                if length >= size and (
                        length > size
                        or (child[-1][0] - child[0][0] + child[-1][1]
                            - child[0][1] >= ak - a0 + bk - b0)):
                    raise StaircaseError("recursion measure failed to "
                                         f"decrease: {stair!r} -> {child!r}")
        if n_crossing > 1:
            if n_continuation > 1:
                stack.append((continuation, branches))
            stair, branches = crossing, 2
        elif n_continuation > 1:
            stair = continuation
        elif stack:
            stair, branches = stack.pop()
        else:
            break
    trace.total = total


def ramification_closed_form(stair, branches):
    """Closed form of the recursive total:
    area(essential_vertices(stair)) + (branches - 2) * (a_k - a_0)."""
    _check_branches(branches)
    if len(stair) == 0:
        return 0
    hull = essential_vertices(stair)
    return area(hull) + (branches - 2) * (stair[-1][0] - stair[0][0])


def ramification_bound(stair, branches):
    """Proven upper bound for the blow-up total, in absolute coordinates:

        one branch:   a_k * (b_k - 1)
        two branches: a_k * (b_k - b_0) + (-b_0) * (a_k - a_0)
    """
    _check_branches(branches)
    if len(stair) == 0:
        return 0
    (a0, b0), (ak, bk) = stair[0], stair[-1]
    if branches == 1:
        return ak * (bk - 1)
    return ak * (bk - b0) + (-b0) * (ak - a0)


def is_clean_shape(stair, branches):
    """Whether the staircase has the shape below which no blow-up is
    needed: a single point at a crossing; a single point or a one-step
    rise ((a_0,b_0),(a_1,b_0+1)) on one branch.  Empty is clean."""
    _check_branches(branches)
    if len(stair) <= 1:
        return True
    if branches == 2:
        return False
    return len(stair) == 2 and stair[1][1] == stair[0][1] + 1


def max_diagonal(stair):
    """max_i (a_i - b_i), the exceptional-curve conductor term of
    swan_drop.  Its maximizer is a lower-hull vertex, so the value is
    preserved when passing to essential vertices (for every valid
    staircase, not only good ones)."""
    _require_nonempty(stair, "max_diagonal")
    return max([a - b for a, b in stair])


def quadrant_shape(stair):
    """Whether some point has a >= 0 and b <= 0, the shape condition a
    reduced representative always satisfies.  The recursion's closed form
    and the upper bound are theorems only on this domain."""
    return any(a >= 0 and b <= 0 for a, b in stair)
