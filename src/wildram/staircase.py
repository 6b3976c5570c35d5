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
conductor sum across the blow-up.  The recursion admits a closed form:
twice the area between the essential hull of the staircase and its
baseline, corrected by (t-2)*(a_k-a_0) for a point on t boundary
branches.  Both routes are implemented and cross-checked, along with a
proven upper bound for the blow-up total.

Slope comparisons are exact (cross multiplication); no rationals, no
floats.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field


class StaircaseError(ValueError):
    """Invalid staircase input for an operation."""


class Staircase(tuple):
    """A strictly increasing sequence of lattice points: a tuple of
    (a, b) pairs, validated once when it is built.

    Immutable.  May be empty (trivial cover) or a single point.  It
    compares and hashes as the tuple of its points.
    """

    __slots__ = ()

    def __new__(cls, points=()):
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
        for (a0, b0), (a1, b1) in zip(pts, pts[1:]):
            if not (a0 < a1 and b0 < b1):
                raise StaircaseError(
                    f"coordinates must strictly increase: {(a0, b0)} !< {(a1, b1)}")
        return tuple.__new__(cls, pts)

    def __repr__(self):
        return f"Staircase({list(self)})"


def _require_nonempty(stair, op):
    if len(stair) == 0:
        raise StaircaseError(f"{op} is undefined for an empty staircase")


def _check_branches(branches):
    if branches not in (1, 2):
        raise ValueError(f"a boundary point lies on 1 or 2 branches, got {branches}")


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
        best = i + 1
        for j in range(i + 2, k + 1):
            # slope(i->j) <= slope(i->best), exactly; denominators positive
            lhs = (stair[j][1] - stair[i][1]) * (stair[best][0] - stair[i][0])
            rhs = (stair[best][1] - stair[i][1]) * (stair[j][0] - stair[i][0])
            if lhs <= rhs:
                best = j
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
    conductor along the exceptional curve.

    The value is 0 for the empty staircase and >= 0 for every valid
    staircase; a negative result would indicate corrupted input and
    raises.
    """
    if not stair:
        return 0
    sw1, sw2 = end_conductors(stair)
    value = sw1 + sw2 - max(max_diagonal(stair), 0)
    if value < 0:
        raise StaircaseError(f"negative conductor drop {value} for {stair!r}")
    return value


def blowup_term(drop, branches):
    """Contribution of one blow-up: drop*(drop-1) on one branch, drop**2
    at a crossing."""
    _check_branches(branches)
    if drop < 0:
        raise ValueError(f"conductor drop must be >= 0, got {drop}")
    return drop * (drop - 1) if branches == 1 else drop * drop


# ---------------------------------------------------------------------------
# the two chart transforms
# ---------------------------------------------------------------------------

def split(stair):
    """The index sets and children at the two crossing points of a blow-up.

    The sets are the minimal-corner filters of the transformed corner sets:

        first  (chart where the old second branch survives):
                 { j : b_j - a_j < min over i > j of (b_i - a_i) }
        second (chart where the old first branch survives):
                 { j : a_j - b_j > max over i < j of (a_i - b_i) }

    Empty ranges count as +inf resp. -inf, so the last index always
    belongs to the first set and index 0 to the second.  The crossing
    child (a_j, b_j - a_j) over `first` and the continuation child
    (a_j - b_j, b_j) over `second` are built in the same passes, and
    `Staircase._from_ints` checks their order.  `_recurse` looks this
    function up at each step, so a test can replace it with a wrong
    filter and check that the closed form and the corpus catch it.
    """
    _require_nonempty(stair, "split")
    # one pass from the right: `tail` is the min of b_i - a_i over i > j
    first, crossing = [], []
    tail = float("inf")
    for j in range(len(stair) - 1, -1, -1):
        a, b = stair[j]
        here = b - a
        if here < tail:
            tail = here
            first.append(j)
            crossing.append((a, here))
    # one pass from the left: `head` is the max of a_i - b_i over i < j
    second, continuation = [], []
    head = float("-inf")
    for j, (a, b) in enumerate(stair):
        here = a - b
        if here > head:
            head = here
            second.append(j)
            continuation.append((here, b))
    return (tuple(reversed(first)), tuple(second),
            Staircase._from_ints(crossing[::-1]),
            Staircase._from_ints(continuation))


# ---------------------------------------------------------------------------
# the recursive total, its closed form, and the upper bound
# ---------------------------------------------------------------------------

@dataclass
class RecursionStep:
    staircase: Staircase
    branches: int
    drop: int
    term: int
    first_indices: tuple
    second_indices: tuple


@dataclass
class RecursionTrace:
    total: int = 0
    steps: list = field(default_factory=list)


def ramification_recursive(stair, branches):
    """The local ramification total, by the staircase recursion.

    Each step contributes blowup_term(swan_drop(.), branches) and recurses
    into the two child profiles; the crossing child always sits on two
    branches, the continuation child inherits the branch count.  Single
    points (and the empty staircase) contribute 0.  Termination is by the
    strict lexicographic descent of (length, depth), which is asserted.
    The steps run on an explicit stack, so the number of steps is not
    limited by Python's recursion limit.  `stair` may be any sequence of
    pairs; it is validated as a Staircase first.
    """
    _check_branches(branches)
    trace = RecursionTrace()
    _recurse(Staircase(stair), branches, trace)
    return trace


def _recurse(stair, branches, trace):
    # an explicit depth-first stack: the continuation child is pushed
    # first, so the crossing child's subtree is traced before it, as in
    # the recursive definition
    stack = [(stair, branches)]
    while stack:
        stair, branches = stack.pop()
        if len(stair) <= 1:
            continue
        drop = swan_drop(stair)
        term = blowup_term(drop, branches)
        first, second, crossing, continuation = split(stair)
        trace.total += term
        trace.steps.append(RecursionStep(stair, branches, drop, term, first, second))
        size = len(stair)
        measure = (size, depth(stair))
        for child in (crossing, continuation):
            # a shorter child descends whatever its depth
            if len(child) >= size and not (len(child), depth(child)) < measure:
                raise StaircaseError(
                    f"recursion measure failed to decrease: {stair!r} -> {child!r}")
        stack.append((continuation, branches))
        stack.append((crossing, 2))


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
    return max(a - b for a, b in stair)


def quadrant_shape(stair):
    """Whether some point has a >= 0 and b <= 0, the shape condition a
    reduced representative always satisfies.  The recursion's closed form
    and the upper bound are theorems only on this domain."""
    return any(a >= 0 and b <= 0 for a, b in stair)
