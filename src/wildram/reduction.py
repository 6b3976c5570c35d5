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
  A witness h with f - g = h^p - h is part of the result; its constant
  part may live in a small extension field and is materialized lazily,
  but the identity itself is verified exactly on construction.  On a
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
  the report and the corpus pin the two routes together.  On P / V^p the
  stripped part is the p-th power of t1^(v/p) * P_v^(1/p) / V, so the
  denominator stays V.

* ``exceptional_swan`` is the conductor along the exceptional curve of
  one blow-up, computed in the first chart; by symmetry the second chart
  gives the same value, which tests assert.

* ``conductors`` is the triple (Sw(t1), Sw(t2), Sw(E)) by the loops, as
  the simulator, the report and the corpus read it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .fields import _fdivmod, _solve_mod_p, embed, field, join_context
from .laurent import (LaurentPolynomial, blowup_substitute, leading_column,
                      pole_staircase, transpose, valuation)
from .staircase import Staircase, quadrant_shape


def artin_schreier_map(h):
    """h^p - h."""
    return h.frobenius_power() - h


@functools.lru_cache(maxsize=None)
def _artin_schreier_columns(ctx):
    """Coordinates of r^p - r for the power basis r = 1, x, ..., x^(k-1)
    of ctx, as matrix columns."""
    columns = []
    for i in range(ctx.degree):
        basis = ctx.element([0] * i + [1])
        columns.append((basis ** ctx.p - basis).coeffs)
    return tuple(columns)


def _solve_artin_schreier_in(value, ctx):
    """Solve r^p - r = value inside ctx, or return None.

    The map r -> r^p - r is linear over the prime field, so this is a
    k x k linear system mod p."""
    solution = _solve_mod_p(_artin_schreier_columns(ctx), value.coeffs, ctx.p)
    if solution is None:
        return None
    return ctx.element(solution)


def artin_schreier_root(value):
    """Some r with r^p - r = value, in the smallest canonical extension.

    Either the equation solves over the coefficient field, or its roots
    live exactly in the degree-p extension (all roots differ by prime
    field constants, and the absolute trace of a ground-field element
    vanishes there), so only those two fields need to be searched.
    """
    ctx = value.ctx
    root = _solve_artin_schreier_in(value, ctx)
    if root is not None:
        return root
    target = field(ctx.p, ctx.degree * ctx.p)
    root = _solve_artin_schreier_in(embed(value, target), target)
    if root is None:
        raise RuntimeError(f"no Artin-Schreier root of {value} within "
                           f"degree {ctx.p}")
    return root


@dataclass
class GoodRepresentative:
    """A reduced representative g of the class of f, with its witness.

    f - g == h^p - h identically for h = full_witness().  The
    nonconstant part of h is kept explicitly (monomials, and a whole line
    over its own denominator after a line step); the constant part (an Artin-Schreier
    root of `constant_delta`, which may live in the degree-p extension)
    is only materialized on demand, since the identity can be verified
    without it.  `verify`, run on construction, requires
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

    def full_witness(self):
        """The complete witness h with f - g = h^p - h, materializing the
        Artin-Schreier root of the constant part if one was recorded."""
        if not self.constant_delta:
            return self.witness
        root = artin_schreier_root(self.constant_delta)
        ctx = join_context(self.witness.ctx, root.ctx)
        return (self.witness.embed_into(ctx)
                + LaurentPolynomial.constant(embed(root, ctx)))

    def verify(self, f):
        delta = artin_schreier_map(self.witness)
        if self.constant_delta:
            delta = delta + LaurentPolynomial.constant(self.constant_delta)
        rebuilt = self.g + delta
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
    g = f
    witness = LaurentPolynomial.zero(ctx)
    constant_delta = ctx.zero()
    constant_added = False

    c0 = g.coefficient(0, 0)
    if c0:
        g = g - LaurentPolynomial.constant(c0)
        constant_delta = constant_delta + c0

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
        witness = witness + piece
        reductions += 1

    if g and not quadrant_shape(stair):
        one = LaurentPolynomial.constant(ctx.one())
        g = g + one
        constant_delta = constant_delta - ctx.one()
        constant_added = True
        stair = pole_staircase(g)

    rep = GoodRepresentative(
        g=g,
        witness=witness,
        constant_delta=constant_delta,
        staircase=stair,
        quadrant_ok=bool(g) and quadrant_shape(stair),
        constant_added=constant_added,
        reductions=reductions,
    )
    rep.verify(f)
    return rep


# ---------------------------------------------------------------------------
# Swan conductors
# ---------------------------------------------------------------------------

def swan_conductor(f, axis):
    """Minimal pole order along the axis over the class of f.

    The loop reduces as long as the pole order A satisfies p | A and the
    leading coefficient, a one-variable Laurent polynomial in the other
    coordinate, has all exponents divisible by p; then the leading part is
    the p-th power of an explicit half-order part, whose Artin-Schreier
    image is subtracted.  The final max(A, 0) is the conductor, an int.
    """
    if axis not in ("t1", "t2"):
        raise ValueError(f"axis must be 't1' or 't2', got {axis!r}")
    work = f if axis == "t1" else transpose(f)
    p = work.ctx.p
    while True:
        v = valuation(work, "t1")
        if v >= 0:
            return 0
        pole = -v
        if pole % p != 0:
            return pole
        column = leading_column(work, v)
        if any(n % p != 0 for n in column):
            return pole
        half = LaurentPolynomial(
            work.ctx,
            {(v // p, n // p): c.pth_root() for n, c in column.items()})
        work = work - _artin_schreier_over(half, work.denominator)


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
    origin: substitute the first chart and measure along the new axis."""
    return swan_conductor(blowup_substitute(f, "A"), "t1")


def conductors(f, branches):
    """(Sw(t1), Sw(t2), Sw(E)) of f by the valuation loops.  On one
    branch there is no second boundary curve: Sw(t2) is 0 and its loop
    does not run."""
    sw1 = swan_conductor(f, "t1")
    sw2 = swan_conductor(f, "t2") if branches == 2 else 0
    return sw1, sw2, exceptional_swan(f)
