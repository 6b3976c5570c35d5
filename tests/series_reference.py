"""A reference for exact translation: the budgeted series translation with
its unknown-corner bookkeeping, and the readers of a truncated series that
the good representative, the node fields and the conductor loops need.

wildram translates t2 -> t2 + v exactly, as a local function P / V^p (see
the laurent module).  The reference instead expands each negative power
(t2 + v)^-n as a power series cut after `budget` terms, and records the
cut as an *unknown corner*: a lattice point u such that every coefficient
on u + (Z>=0)^2 may be incomplete.  Any reader that would have to trust a
coefficient inside that region raises PrecisionLossError.  So wherever the
reference does not raise, its staircase, node fields and conductors are
those of the exact function, whatever the budget, and the oracle test
compares wildram's exact answers with them.

Only exact wildram polynomials (no denominator) enter the reference; it
shares with wildram the field arithmetic and the staircase combinatorics
(``Staircase``, ``quadrant_shape``, ``is_clean_shape``, ``swan_drop``,
``blowup_term``), which have tests of their own.
"""

from __future__ import annotations

import bisect
import math
import operator

from wildram.laurent import PrecisionLossError
from wildram.staircase import (Staircase, blowup_term, is_clean_shape,
                               quadrant_shape, swan_drop)


def minimal_points(points):
    """The minimal points under the componentwise order, sorted by m (so
    their n falls)."""
    points = set(points)
    return tuple(sorted(
        q for q in points
        if not any(r != q and r[0] <= q[0] and r[1] <= q[1] for r in points)))


class Series:
    """A truncated Laurent series: the terms known so far, and the minimal
    unknown corners, sorted by m."""

    __slots__ = ("ctx", "terms", "unknown")

    def __init__(self, ctx, terms=None, unknown=()):
        self.ctx = ctx
        self.terms = {(operator.index(m), operator.index(n)): c
                      for (m, n), c in (terms or {}).items() if c}
        self.unknown = minimal_points((operator.index(u), operator.index(v))
                                      for u, v in unknown)

    @property
    def is_exact(self):
        return not self.unknown

    def coefficient(self, m, n):
        if n >= column_cut(self.unknown, m):
            raise PrecisionLossError((m, n))
        return self.terms.get((m, n), self.ctx.zero())

    def __bool__(self):
        return bool(self.terms) or bool(self.unknown)

    def _merge(self, other, sign):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, self.ctx.zero()) + sign * c
        return Series(self.ctx, terms, self.unknown + other.unknown)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)


def monomial(coeff, m, n):
    return Series(coeff.ctx, {(m, n): coeff})


def artin_schreier(h):
    """h^p - h for an exact series h."""
    p = h.ctx.p
    power = Series(h.ctx, {(p * m, p * n): c ** p
                           for (m, n), c in h.terms.items()})
    return power - h


# ---------------------------------------------------------------------------
# readers of the certified terms
# ---------------------------------------------------------------------------

def column_cut(unknown, m):
    """The cut of the t1-column m: the n of the last corner with u <= m,
    or +inf."""
    i = bisect.bisect_right([u for u, _ in unknown], m)
    return unknown[i - 1][1] if i else math.inf


def certified(s):
    """The exponents of the certified terms, in the order of ``terms``."""
    return [e for e in s.terms if e[1] < column_cut(s.unknown, e[0])]


def undominated_unknowns(s):
    """Unknown corners that no certified corner dominates: where a
    truncated tail could still hide a staircase corner."""
    corners = minimal_points(certified(s))
    return [u for u in s.unknown
            if not any(c[0] <= u[0] and c[1] <= u[1] for c in corners)]


def pole_staircase(s):
    blind = undominated_unknowns(s)
    if blind:
        raise PrecisionLossError(blind[0], "a truncated region may hide a corner")
    return Staircase(sorted((-m, n) for m, n in minimal_points(certified(s))))


def valuation(s, axis):
    idx = 0 if axis == "t1" else 1
    exact = certified(s)
    if not exact:
        if s.unknown or s.terms:
            raise PrecisionLossError(min([*s.unknown, *s.terms]),
                                     "no certified term to take the valuation from")
        return math.inf
    v = min(e[idx] for e in exact)
    bad = [u for u in s.unknown if u[idx] < v]
    if bad:
        raise PrecisionLossError(bad[0], "a truncated region may lower the valuation")
    return v


def leading_column(s, v):
    """The certified terms of the t1-column v, and its cut (None when no
    unknown corner reaches the column)."""
    cut = column_cut(s.unknown, v)
    column = {n: c for (m, n), c in s.terms.items() if m == v and n < cut}
    return column, (None if cut == math.inf else cut)


def _moved(s, move):
    return Series(s.ctx, {move(e): c for e, c in s.terms.items()},
                  [move(u) for u in s.unknown])


def transpose(s):
    return _moved(s, lambda e: (e[1], e[0]))


def blowup_substitute(s, chart):
    if chart == "A":
        return _moved(s, lambda e: (e[0] + e[1], e[1]))
    return _moved(s, lambda e: (e[0], e[0] + e[1]))


# ---------------------------------------------------------------------------
# the budgeted translation
# ---------------------------------------------------------------------------

def series_binomials(n, budget, p):
    """(j, coefficient mod p) of x^j in the series (1 + x)^n, n < 0, for
    every j < budget where it is nonzero mod p.  In characteristic p,
    (1 + x)^q = 1 + x^q for a power q of p, so below x^q the series is the
    polynomial (1 + x)^(n mod q)."""
    q = p
    while q < budget:
        q *= p
    row = [(j, math.comb(n % q, j) % p) for j in range(budget)]
    return tuple((j, b) for j, b in row if b)


def translate(f, shift, budget):
    """t2 -> t2 + shift on an exact polynomial f (a wildram polynomial
    with no denominator, or an exact series), every negative power cut
    after `budget` terms and the cut recorded as the unknown corner
    (m, budget) of the term's t1-exponent m."""
    ctx = f.ctx
    terms, unknown = {}, []
    for (m, n), c in f.terms.items():
        if n >= 0:
            row = [(j, math.comb(n, j) % ctx.p) for j in range(n + 1)]
            coeffs = [(j, c * b * shift ** (n - j)) for j, b in row]
        else:
            unknown.append((m, budget))
            coeffs = [(j, c * b * shift ** n * shift.inverse() ** j)
                      for j, b in series_binomials(n, budget, ctx.p)]
        for j, coeff in coeffs:
            terms[(m, j)] = terms.get((m, j), ctx.zero()) + coeff
    return Series(ctx, terms, unknown)


# ---------------------------------------------------------------------------
# reduction, conductors and node fields
# ---------------------------------------------------------------------------

def good_representative(f):
    """(g, staircase, constant_added, reductions) of a truncated f, by the
    rules of wildram's good_representative, plus the blind-corner repair:
    when every corner a truncated tail could hide lies in the closed
    positive quadrant, the third quadrant is certified, the quadrant
    condition verifiably fails and the constant 1 is added first."""
    ctx, p = f.ctx, f.ctx.p
    g = f - Series(ctx, {(0, 0): f.coefficient(0, 0)})
    constant_added = False
    reductions = 0
    while True:
        if not constant_added:
            blind = undominated_unknowns(g)
            if blind and all(m >= 0 and n >= 0 for m, n in blind):
                g = g + Series(ctx, {(0, 0): ctx.one()})
                constant_added = True
        stair = pole_staircase(g)
        targets = [(a, b) for a, b in stair
                   if a % p == 0 and b % p == 0 and (a, b) != (0, 0)]
        if not targets:
            break
        a, b = targets[-1]
        piece = monomial(g.coefficient(-a, b).pth_root(), -a // p, b // p)
        g = g - artin_schreier(piece)
        reductions += 1
    if g and not quadrant_shape(stair):
        g = g + Series(ctx, {(0, 0): ctx.one()})
        constant_added = True
        stair = pole_staircase(g)
    return g, stair, constant_added, reductions


def swan_conductor(f, axis):
    work = f if axis == "t1" else transpose(f)
    p = work.ctx.p
    while True:
        v = valuation(work, "t1")
        if v >= 0:
            return 0
        pole = -v
        if pole % p:
            return pole
        column, cut = leading_column(work, v)
        if any(n % p for n in column):
            return pole
        if cut is not None:
            raise PrecisionLossError((v, cut), "leading column truncated")
        half = Series(work.ctx, {(v // p, n // p): c.pth_root()
                                 for n, c in column.items()})
        work = work - artin_schreier(half)


def conductors(f, branches):
    """(Sw(t1), Sw(t2), Sw(E)) by the loops, as wildram's conductors."""
    sw2 = swan_conductor(f, "t2") if branches == 2 else 0
    return (swan_conductor(f, "t1"), sw2,
            swan_conductor(blowup_substitute(f, "A"), "t1"))


def node_fields(f, branches):
    """The fields that wildram's node analysis gives a node polynomial f
    (its path aside), and the conductor triple of its representative."""
    g, stair, constant_added, reductions = good_representative(f)
    raw = pole_staircase(f)
    drop = swan_drop(stair)
    fields = dict(branches=branches, staircase=stair, drop=drop,
                  term=blowup_term(drop, branches),
                  clean=is_clean_shape(stair, branches),
                  constant_added=constant_added, repair=stair != raw,
                  reductions=reductions)
    return fields, conductors(g, branches)
