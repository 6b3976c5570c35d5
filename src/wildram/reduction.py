"""Artin-Schreier algebra on Laurent polynomials.

The cover defined by y^p - y = f only depends on f modulo the image of
the additive map h -> h^p - h, so every invariant here is computed after
reducing f to a normal form inside its class:

* ``good_representative`` removes staircase corners divisible by p in
  both coordinates (replacing the corner monomial by its p-th root and
  subtracting the matching Artin-Schreier image) and normalizes the
  constant term.  Pure constants lie in the image of the map over the
  algebraic closure, so they are stripped; the constant 1 is re-added
  exactly when no remaining corner sits in the quadrant a >= 0, b <= 0.
  The result records the witness of f - g = h^p - h as its nonconstant
  part and the constant it moved, ``constant_delta``: h = witness + r
  with r^p - r = constant_delta.  The root r is never built (it may lie
  only in the degree-p extension, and no invariant reads it), and the
  identity f - g = (witness^p - witness) + constant_delta is verified
  exactly over the input's field on construction.  On a
  local function P / V^p (see the laurent module) every step is exact:
  the pieces are the same monomials, read from P's corners, and each
  Artin-Schreier image and each constant is multiplied through V^p
  before it is subtracted from P, so no coefficient is ever cut and no
  series budget is needed.

* ``swan_conductor`` computes, as an int, the minimal pole order along
  a coordinate axis over the whole class, by the valuation-ring loop:
  while the pole order A is divisible by p and every t2-exponent of the
  leading coefficient is divisible by p, the leading part is a p-th power
  and one reduction strips it.  The loop is the second, independent route
  to the conductors; for a good representative they can also be read off
  the staircase ends (``staircase.end_conductors``), and the simulator,
  the report and the corpus pin the two routes together.  Each round
  reads its valuation and its leading column (t1) or row (t2) in place,
  off the function's own exponents and never off its staircase, and a
  round that strips subtracts the image in the same coordinates, so no
  transpose is built on either axis.  On P / V^p the stripped part is
  the p-th power of t1^(v/p) * P_v^(1/p) / V, so the denominator stays
  V.

* ``exceptional_swan`` is the conductor along the exceptional curve of
  one blow-up, computed in the first chart; by symmetry the second chart
  gives the same value, which tests assert.

* ``conductors`` is the triple (Sw(t1), Sw(t2), Sw(E)) by the loops, as
  the simulator, the report and the corpus read it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .fields import _fdivmod
from .laurent import (LaurentPolynomial, _axis_index, blowup_substitute,
                      leading_column, pole_staircase, transpose, valuation)
from .staircase import Staircase, quadrant_shape


def artin_schreier_map(h):
    """h^p - h."""
    return h.frobenius_power() - h


@dataclass(slots=True)
class GoodRepresentative:
    """A reduced representative g of the class of f, with its witness.

    f - g == h^p - h identically for h = witness + r, where r is any
    root of r^p - r = `constant_delta`.  The nonconstant part `witness`
    of h is kept explicitly (monomials, and a whole line over its own
    denominator after a line step); the constant part is kept as the
    value `constant_delta` of the input's field, since the identity needs
    only r^p - r and the root itself may lie only in the degree-p
    extension.  `verify`, run on construction, requires
    g + (witness^p - witness) + constant_delta - f to be zero: over a
    denominator V that g shares with f, the polynomial identity
    P_f - P_g = V^p * ((witness^p - witness) + constant_delta).

    No staircase corner of g lies in p*Z x p*Z except possibly (0, 0),
    and unless g is zero some corner has a >= 0 and b <= 0.
    """
    g: LaurentPolynomial
    witness: LaurentPolynomial
    constant_delta: object
    staircase: Staircase
    quadrant_ok: bool
    constant_added: bool
    reductions: int

    def verify(self, f):
        """RuntimeError unless g + (witness^p - witness) + constant_delta
        equals f.  A zero witness or constant adds nothing and is skipped;
        the rebuilt function is compared with f on every call."""
        rebuilt = self.g
        if self.witness:
            rebuilt = rebuilt + artin_schreier_map(self.witness)
        if self.constant_delta:
            rebuilt = rebuilt + LaurentPolynomial._trusted(
                self.constant_delta.ctx, {(0, 0): self.constant_delta})
        # a witness over its own denominator rebuilds f over another one
        if rebuilt != f and rebuilt - f:
            raise RuntimeError("witness identity f - g = h^p - h failed")


def good_representative(f):
    """Reduce f to a good representative of its class.

    Corners are processed outermost first (largest pole along t1, the last
    target, since the staircase ascends in a); the order is a tie-breaking
    detail only, and the result does not depend on it.  Termination: each
    reduction trades the function's term at a corner e for one at e/p and
    changes no other coefficient, so on a polynomial it strictly decreases
    the sum of |m| + |n| over the support.  On P / V^p only the leading
    column or the lowest row can go on for ever, as a line of p-th powers;
    ``_line_step`` reduces such a line at once.
    """
    ctx = f.ctx
    one = ctx.one()
    c0 = f.coefficient(0, 0)
    g = f
    if c0:
        if f.denominator is None:
            terms = dict(f.terms)
            del terms[(0, 0)]
            g = LaurentPolynomial._trusted(ctx, terms)
        else:
            g = f - LaurentPolynomial._trusted(ctx, {(0, 0): c0})
    witness = None
    reductions = 0
    p = ctx.p
    while True:
        stair = pole_staircase(g)
        targets = [(a, b) for a, b in stair
                   if a % p == 0 and b % p == 0 and (a, b) != (0, 0)]
        if not targets:
            break
        a, b = targets[-1]
        step = _line_step(g, a, b)
        if step is None:
            c = g.coefficient(-a, b)
            piece = LaurentPolynomial.monomial(c.pth_root(), -a // p, b // p)
            step = piece, artin_schreier_map(piece)
        piece, image = step
        g = g - image
        # the function's term at the corner must go, or the loop would
        # target it forever
        if g.coefficient(-a, b):
            raise RuntimeError(f"the reduction at {(a, b)} left its corner")
        witness = piece if witness is None else witness + piece
        reductions += 1

    # a nonzero g that keeps its constant has a corner in the quadrant
    quadrant_ok = bool(g)
    constant_added = quadrant_ok and not quadrant_shape(stair)
    if constant_added:
        if c0 == one and not reductions:
            # with no reduction in between, f - 1 + 1 is f, views and all
            g = f
        elif g.denominator is None:
            # no image of a reduction has a constant term, so g has none
            terms = dict(g.terms)
            terms[(0, 0)] = one
            g = LaurentPolynomial._trusted(ctx, terms)
        else:
            g = g + LaurentPolynomial._trusted(ctx, {(0, 0): one})
        stair = pole_staircase(g)
        quadrant_ok = quadrant_shape(stair)

    rep = GoodRepresentative(
        g=g,
        witness=(LaurentPolynomial._trusted(ctx, {}) if witness is None
                 else witness),
        constant_delta=c0 - one if constant_added else c0,
        staircase=stair,
        quadrant_ok=quadrant_ok,
        constant_added=constant_added,
        reductions=reductions,
    )
    rep.verify(f)
    return rep


# ---------------------------------------------------------------------------
# Swan conductors
# ---------------------------------------------------------------------------

_COORDINATES = (operator.itemgetter(0), operator.itemgetter(1))


def swan_conductor(f, axis):
    """Minimal pole order along the axis over the class of f.

    The loop reduces as long as the pole order A satisfies p | A and the
    leading coefficient, a one-variable Laurent polynomial in the other
    coordinate, has all exponents divisible by p; then the leading part is
    the p-th power of an explicit half-order part, whose Artin-Schreier
    image is subtracted.  The final max(A, 0) is the conductor, an int.

    Every round reads its valuation and its leading column (axis t1) or
    row (axis t2) off the function's own exponents, and a round that
    strips subtracts the image in the function's own coordinates: the
    loop along t2 is the loop along t1 conjugated by the transposition, a
    ring automorphism, so nothing is transposed on either axis.
    """
    index = _axis_index(axis)
    other = 1 - index
    coordinate = _COORDINATES[index]
    p = f.ctx.p
    work = f
    stripped = None     # the valuation of the last round that stripped
    while True:
        terms = work.terms
        v = min(map(coordinate, terms), default=0)
        if v >= 0:
            return 0
        # a strip cancels its whole line and adds terms above it only, or
        # the loop would strip for ever
        if stripped is not None and v <= stripped:
            raise RuntimeError(f"the {axis} round at {stripped} left its line")
        if v % p:
            return -v
        line = [(e, c) for e, c in terms.items() if e[index] == v]
        if any(e[other] % p for e, _ in line):
            return -v
        half = LaurentPolynomial._trusted(
            work.ctx, {(m // p, n // p): c.pth_root() for (m, n), c in line})
        work = work - _artin_schreier_over(half, work.denominator)
        stripped = v


def _divided(h, denominator):
    """h / V for a polynomial h and a denominator V, written over V^p:
    h * V^(p-1) / V^p."""
    lifted = h
    for _ in range(h.ctx.p - 1):
        lifted = lifted * denominator
    return LaurentPolynomial(h.ctx, lifted.terms, denominator)


def _artin_schreier_over(h, denominator):
    """The Artin-Schreier image of h / V for a polynomial h and V the
    denominator (None for 1), written over V^p: (h^p - h * V^(p-1)) / V^p.
    Its p-th power part h^p / V^p is what the Swan loop strips."""
    if denominator is None:
        return artin_schreier_map(h)
    return (LaurentPolynomial(h.ctx, h.frobenius_power().terms, denominator)
            - _divided(h, denominator))


def _line_step(g, a, b):
    """(piece, its Artin-Schreier image) that reduce a whole pole line of
    g = P / V^p at once, or None.

    Let the target corner (a, b) lie on the leading t1-column v = -a < 0
    of g, and let that column of P be Q^p.  The column of g is then
    t1^v * (Q / L)^p, L = V(0, t2): unless L divides Q it goes on for
    ever, and so would the reduction corner by corner.  The Swan loop's
    piece t1^(v/p) * Q / V removes it in one step, one reduction; the
    lowest t2-row likewise.  The simulator meets no such line (chart
    images of a good representative and their translations have none),
    but good_representative takes any local function.
    """
    if g.denominator is None:
        return None
    ctx, p = g.ctx, g.ctx.p
    for flip in (False, True):
        work = transpose(g) if flip else g
        v = b if flip else -a
        if v >= 0 or valuation(work, "t1") != v:
            continue
        column = leading_column(work, v)
        if any(n % p for n in column):
            continue
        low = min(column)
        root = [column.get(n, ctx.zero()).pth_root()
                for n in range(low, max(column) + 1, p)]
        denominator = work.denominator
        top = max(n for m, n in denominator.terms if m == 0)
        line = [denominator.coefficient(0, n) for n in range(top + 1)]
        if not top or not _fdivmod(root, line, ctx)[1]:
            continue
        h = LaurentPolynomial(ctx, {(v // p, low // p + i): c
                                    for i, c in enumerate(root)})
        step = (_divided(h, denominator),
                _artin_schreier_over(h, denominator))
        return tuple(map(transpose, step)) if flip else step
    return None


def exceptional_swan(f):
    """Swan conductor along the exceptional curve of the blow-up at the
    origin: the t1-loop on the first chart's image, whose exponents are
    (m + n, n).  The loop's first round reads them off f's own terms, and
    the image is built only when that round strips a p-th power."""
    p = f.ctx.p
    v = min((m + n for m, n in f.terms), default=0)
    if v >= 0:
        return 0
    if v % p or any(n % p for m, n in f.terms if m + n == v):
        return -v
    return swan_conductor(blowup_substitute(f, "A"), "t1")


def conductors(f, branches):
    """(Sw(t1), Sw(t2), Sw(E)) of f by the valuation loops.  On one
    branch there is no second boundary curve: Sw(t2) is 0 and its loop
    does not run."""
    sw1 = swan_conductor(f, "t1")
    sw2 = swan_conductor(f, "t2") if branches == 2 else 0
    return sw1, sw2, exceptional_swan(f)
