"""Shared test helpers: the quadratic definition of the recursion's
index-set filters, the split built from it, the max_tail mutant, and a
resolution result whose tree is a deep chain.

The max_tail filter keeps { j : b_j - a_j < max over i > j of (b_i - a_i) }
as the first index set, which drops the last index.  It breaks the closed
form (smallest counterexample ((0,0),(1,2))), so the tests install a split
over it in place of `staircase.split` to show that the closed-form check,
the corpus and its exit status catch a wrong recursion.
"""

from unittest import mock

from wildram import staircase
from wildram.blowup import BlowupNode, ResolutionResult


def reference_index_sets(stair, rule="minimal"):
    """The filters of staircase.split, written out as their definition:
    every tail and head range rebuilt for each index.  rule="max_tail"
    gives the mutant's first set."""
    k = len(stair) - 1
    first = []
    for j in range(k + 1):
        tail = [stair[i][1] - stair[i][0] for i in range(j + 1, k + 1)]
        here = stair[j][1] - stair[j][0]
        if rule == "minimal":
            if not tail or here < min(tail):
                first.append(j)
        else:
            if tail and here < max(tail):
                first.append(j)
    second = []
    for j in range(k + 1):
        head = [stair[i][0] - stair[i][1] for i in range(j)]
        if not head or stair[j][0] - stair[j][1] > max(head):
            second.append(j)
    return tuple(first), tuple(second)


def reference_split(stair, rule="minimal"):
    """staircase.split from its definition: the reference index sets and
    the children (a_j, b_j - a_j) over the first and (a_j - b_j, b_j)
    over the second, order-checked by `Staircase._from_ints`."""
    first, second = reference_index_sets(stair, rule)
    return (first, second,
            staircase.Staircase._from_ints(
                [(stair[j][0], stair[j][1] - stair[j][0]) for j in first]),
            staircase.Staircase._from_ints(
                [(stair[j][0] - stair[j][1], stair[j][1]) for j in second]))


def max_tail_recursion():
    """A context in which the recursion, and all that calls it, filters
    with max_tail.  `staircase._recurse` looks split up at each step, so
    no mutant code lives in the program."""
    return mock.patch.object(
        staircase, "split", lambda stair: reference_split(stair, "max_tail"))


def chain_result(depth):
    """A result whose tree is a chain of `depth` non-clean rows: the last
    an off-origin point, the one above it repaired, and one with a
    constant added."""
    tree = []
    for level in range(depth):
        label = "x" if level == 0 else "A@v=1" if level == depth - 1 else "A"
        tree.append(BlowupNode(tree, level - 1 if level else None, label,
                               level, branches=2, staircase=((0, 1), (2, 0)),
                               drop=2, term=1, clean=False))
    tree[-2].repair = True
    tree[depth // 2].constant_added = True
    return ResolutionResult(total=depth, root=tree[0], representative=None)
