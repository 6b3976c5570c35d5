"""Sparse bivariate Laurent polynomials over F_{p^k}, and the exact local
functions P / V^p that a translation makes of them.

A polynomial is a finite map from integer exponent pairs (m, n) to nonzero
field elements, m the exponent of the first coordinate t1 and n of the
second coordinate t2.  Supports are tiny but exponents may be large and
negative, so the representation is a dict, kept canonical (no stored
zeros).  Values are immutable; every operation returns a new polynomial.
The public constructor checks and canonicalizes its input; operations
whose results are canonical by construction build them through a private
constructor that checks nothing.  A polynomial keeps, once computed, its
staircase, its hash and its translation plan: what ``translate`` reads of
it whatever the shift, so that translating one polynomial to many points
builds only the powers of each shift and the products.  Polynomials over
two context objects never mix.

Pole staircases read the support in (a, b) = (-m, n) coordinates: a is the
pole order along {t1 = 0} and b the t2-exponent.  The staircase of f is
the set of minimal support points under the componentwise order on (m, n),
sorted by a.

Local functions.  Moving the origin to a point t2 = v with v != 0 turns
each negative power of t2 into the unit (t2 + v)^-n, a power series.  The
unit is kept as a denominator instead: a local function is F = P / V^p, P
the Laurent polynomial in ``terms`` and V the polynomial ``denominator``
(None for V = 1), whose constant term is nonzero.  The denominator is a
p-th power because 1 / V^p = (1 / V)^p is then a power series in t1^p and
t2^p with a nonzero constant term W_00^p, W = 1 / V.  Multiplying P by it
moves no minimal point of the support: a minimal point e gets P_e * W_00^p
alone, and every other point of the product lies above a point of supp(P).
So every consumer reads P:

* F has the staircase, the corners and the valuations of P;
* F's coefficient at a corner e is P_e / V(0, 0)^p, and any coefficient
  is the finite sum of ``coefficient``;
* the leading t1-column of F is that of P times the p-th power
  1 / V(0, t2)^p, so it is a p-th power exactly when P's is.

Sums lift an operand by the p-th power of the other's denominator, which
is sparse (Frobenius), and chart maps act on P and V alike.  Nothing is
truncated anywhere: every polynomial is exact, and a translation is one
exact substitution (``translate``).
"""

from __future__ import annotations

import functools
import math
import operator

from .fields import ContextMismatchError, embed
from .staircase import Staircase


class PrecisionLossError(ArithmeticError):
    """A computation needed coefficient data beyond a truncation order.
    Nothing truncates, so nothing raises it; the class stays for the
    benchmark's ``laurent.precision_loss_raised`` counter (ROADMAP item
    4)."""

    def __init__(self, position, message=None):
        self.position = position
        super().__init__(message or f"coefficient at {position} is beyond "
                                    "the valid truncation order")


CHART_FIRST = "A"   # (t1, t2) = (u, u*v):   exponents (m, n) -> (m + n, n)
CHART_SECOND = "B"  # (t1, t2) = (u*v, v):   exponents (m, n) -> (m, m + n)


def _sorted_corners(points):
    """The minimal points of a finite set of exponent pairs under the
    componentwise order, sorted by m (so their n falls).

    In lexicographic order a point is minimal iff its n lies below that
    of every point before it: those have a smaller m, or the same m and a
    smaller n.  One sort and one sweep decide it; repeated points are
    harmless.
    """
    corners = []
    least = math.inf
    for m, n in sorted(points):
        if n < least:
            corners.append((m, n))
            least = n
    return tuple(corners)


def _product(left, right):
    """The product of two term maps, canonical (no stored zeros).  A
    product of nonzero coefficients is nonzero, so only a sum can leave a
    zero, and the map is filtered only when two products met."""
    terms = {}
    summed = False
    for (m1, n1), c1 in left.items():
        for (m2, n2), c2 in right.items():
            e = (m1 + m2, n1 + n2)
            prod = c1 * c2
            s = terms.get(e)
            if s is None:
                terms[e] = prod
            else:
                terms[e] = s + prod
                summed = True
    return {e: c for e, c in terms.items() if c} if summed else terms


class LaurentPolynomial:
    """Canonical sparse Laurent polynomial P, or the local function
    P / V^p with the polynomial V as its denominator."""

    __slots__ = ("ctx", "terms", "denominator", "_staircase", "_frobenius",
                 "_hash", "_plan")

    def __init__(self, ctx, terms=None, denominator=None):
        """Zero coefficients are dropped.  An exponent that is not an
        integer raises TypeError.  The denominator V is None or a
        polynomial over ctx with no negative exponent, a nonzero constant
        term and another term: a constant belongs in P."""
        index = operator.index
        clean = {}
        for (m, n), c in (terms or {}).items():
            if c.ctx is not ctx:
                raise ContextMismatchError("coefficient from a foreign context")
            if c:
                clean[(index(m), index(n))] = c
        if denominator is not None:
            if denominator.ctx is not ctx:
                raise ContextMismatchError("denominator from a foreign context")
            if (denominator.denominator is not None
                    or any(m < 0 or n < 0 for m, n in denominator.terms)
                    or (0, 0) not in denominator.terms
                    or len(denominator.terms) < 2):
                raise ValueError("a denominator is a nonconstant polynomial "
                                 "with a nonzero constant term")
        self.ctx = ctx
        self.terms = clean
        self.denominator = denominator
        self._staircase = None      # pole_staircase(), once asked for
        self._frobenius = None      # the terms of a denominator's p-th power
        self._hash = None           # hash(self), once asked for
        self._plan = None           # _translation_plan(self), once translated

    @classmethod
    def _trusted(cls, ctx, terms, denominator=None):
        """A polynomial from data that is canonical by construction: int
        exponent pairs mapped to nonzero coefficients of ctx, and a valid
        denominator or None.  Nothing is checked."""
        poly = cls.__new__(cls)
        poly.ctx = ctx
        poly.terms = terms
        poly.denominator = denominator
        poly._staircase = None
        poly._frobenius = None
        poly._hash = None
        poly._plan = None
        return poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def constant(cls, coeff):
        return cls(coeff.ctx, {(0, 0): coeff})

    @classmethod
    def monomial(cls, coeff, m, n):
        return cls(coeff.ctx, {(m, n): coeff})

    # -- basic structure ----------------------------------------------------

    def coefficient(self, m, n):
        """The coefficient of t1^m * t2^n in F = P / V^p.  With W = 1 / V
        it is the finite sum of P_(m - pi, n - pj) * W_ij^p over i, j >= 0,
        which at a corner of P is P_(m, n) / V(0, 0)^p alone."""
        denominator = self.denominator
        if denominator is None:
            return self.terms.get((m, n), self.ctx.zero())
        p = self.ctx.p
        below = {}
        for (i, j), c in self.terms.items():
            di, dj = m - i, n - j
            if di >= 0 and dj >= 0 and not di % p and not dj % p:
                below[(di // p, dj // p)] = c
        if not below:
            return self.ctx.zero()
        inverse = _inverse_series(denominator, below)
        return sum((c * inverse[point] ** p for point, c in below.items()),
                   self.ctx.zero())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, LaurentPolynomial)
                and self.ctx is other.ctx
                and self.terms == other.terms
                and self.denominator == other.denominator)

    def __hash__(self):
        # no context and no None (whose hash is its address before Python
        # 3.12), so that a kept hash holds in any process
        if self._hash is None:
            terms = frozenset(self.terms.items())
            self._hash = hash(terms if self.denominator is None
                              else (terms, self.denominator))
        return self._hash

    def __repr__(self):
        from .parsing import format_polynomial
        body = format_polynomial(self)
        if self.denominator is not None:
            body = (f"({body}) / ({format_polynomial(self.denominator)})"
                    f"^{self.ctx.p}")
        return f"<{body} over {self.ctx}>"

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LaurentPolynomial):
            raise TypeError(f"expected LaurentPolynomial, got {type(other).__name__}")
        if self.ctx is not other.ctx:
            raise ContextMismatchError("polynomials from different contexts; "
                                       "embed explicitly first")

    def _lifted_by(self, terms):
        """`terms` times V^p for this polynomial's denominator V: the
        numerator of terms / 1 over the denominator V^p.  The terms of V^p
        are kept on V, which every function over it shares."""
        denominator = self.denominator
        if denominator._frobenius is None:
            denominator._frobenius = denominator.frobenius_power().terms
        return _product(terms, denominator._frobenius)

    def _merge(self, other, negate):
        """self + other, or self - other when negate is set, over the
        product of the two denominators (one of them, when the other is
        1 or they are equal)."""
        if (other.__class__ is not LaurentPolynomial
                or other.ctx is not self.ctx):
            self._check(other)
        mine, theirs = self.terms, other.terms
        denominator, other_denominator = self.denominator, other.denominator
        same = (other_denominator is denominator
                or (other_denominator is not None and denominator is not None
                    and other_denominator == denominator))
        if not same:
            if other_denominator is not None:
                mine = other._lifted_by(mine)
            if denominator is not None:
                theirs = self._lifted_by(theirs)
            denominator = _joint(denominator, other_denominator)
        terms = dict(mine)
        for e, c in theirs.items():
            s = terms.get(e)
            if s is None:
                terms[e] = -c if negate else c
            else:
                s = s - c if negate else s + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return LaurentPolynomial._trusted(self.ctx, terms, denominator)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        return LaurentPolynomial._trusted(
            self.ctx, {e: -c for e, c in self.terms.items()}, self.denominator)

    def __mul__(self, other):
        self._check(other)
        return LaurentPolynomial._trusted(
            self.ctx, _product(self.terms, other.terms),
            _joint(self.denominator, other.denominator))

    def frobenius_power(self):
        """The p-th power: coefficients through Frobenius, exponents scaled
        by p (the characteristic collapses all cross terms); the
        denominator V becomes its own p-th power."""
        p = self.ctx.p
        return LaurentPolynomial._trusted(
            self.ctx,
            {(p * m, p * n): c ** p for (m, n), c in self.terms.items()},
            self.denominator and self.denominator.frobenius_power())

    def embed_into(self, target):
        if target is self.ctx:
            return self
        return LaurentPolynomial._trusted(
            target, {e: embed(c, target) for e, c in self.terms.items()},
            self.denominator and self.denominator.embed_into(target))


def _joint(left, right):
    """The denominator of a sum or a product over the denominators left
    and right (None for 1): their product, nonconstant as they are."""
    return left * right if left and right else left or right


def _inverse_series(denominator, points):
    """The coefficients W_ij at the given points (i, j >= 0) of the power
    series W = 1 / V of a polynomial V with a nonzero constant term.

    From V * W = 1: W_00 = 1 / V_00, and every other W_ij is -W_00 times
    the sum of V_ab * W_(i-a, j-b) over the other terms (a, b) of V, with
    W read as 0 off the quadrant.  Only the points the wanted ones reach
    that way are computed, in lexicographic order, which puts each after
    every point it reads.
    """
    rest = [(e, c) for e, c in denominator.terms.items() if e != (0, 0)]
    needed = set(points)
    stack = list(needed)
    while stack:
        i, j = stack.pop()
        for (a, b), _ in rest:
            q = (i - a, j - b)
            if q[0] >= 0 and q[1] >= 0 and q not in needed:
                needed.add(q)
                stack.append(q)
    w00 = denominator.terms[(0, 0)].inverse()
    series = {}
    for i, j in sorted(needed):
        if not (i or j):
            series[(0, 0)] = w00
            continue
        total = denominator.ctx.zero()
        for (a, b), c in rest:
            w = series.get((i - a, j - b))
            if w is not None:
                total = total + c * w
        series[(i, j)] = -(total * w00)
    return series


# ---------------------------------------------------------------------------
# staircase extraction and valuations
# ---------------------------------------------------------------------------

def pole_staircase(poly):
    """Minimal support corners in (a, b) = (-m, n) coordinates, sorted by a.

    Those of P, which are those of P / V^p.  A staircase once found is
    kept on the polynomial.  The corners come sorted by m, so a = -m
    ascends along them reversed; exponents are ints, so only that order is
    checked.
    """
    if poly._staircase is None:
        poly._staircase = Staircase._from_ints(
            [(-m, n) for m, n in reversed(_sorted_corners(poly.terms))])
    return poly._staircase


def valuation(poly, axis):
    """Minimum exponent along the axis ("t1" or "t2"); +inf for zero.

    That of P, which is that of P / V^p.  The minimum is taken in its own
    pass over the exponents, not from the corners, as the conductor loops
    take theirs, so that they stay a route independent of the staircase.
    """
    idx = _axis_index(axis)
    return min(map(operator.itemgetter(idx), poly.terms), default=math.inf)


def leading_column(poly, v):
    """The t1-column v of P as a map n -> coeff.  At the t1-valuation v it
    is F's leading column times V(0, t2)^p: a p-th power exactly when
    F's is, and with the same zeros off t2 = 0 in a chart A image, where
    V(0, t2) is the constant V(0, 0)."""
    return {n: c for (m, n), c in poly.terms.items() if m == v}


def _axis_index(axis):
    if axis == "t1":
        return 0
    if axis == "t2":
        return 1
    raise ValueError(f"axis must be 't1' or 't2', got {axis!r}")


def transpose(poly):
    """Swap the two coordinates, of P and V alike."""
    denominator = poly.denominator
    return LaurentPolynomial._trusted(
        poly.ctx, {(n, m): c for (m, n), c in poly.terms.items()},
        denominator and transpose(denominator))


# ---------------------------------------------------------------------------
# blow-up chart substitution
# ---------------------------------------------------------------------------

def blowup_substitute(poly, chart):
    """Exponent change of one blow-up chart, exact in all cases.

    Chart "A" is (t1, t2) = (u, u*v), so (m, n) -> (m + n, n); the
    exceptional curve is {u = 0} and the strict transform of {t2 = 0} is
    {v = 0}.  Chart "B" is (t1, t2) = (u*v, v), so (m, n) -> (m, m + n);
    the exceptional curve is {v = 0} and the strict transform of {t1 = 0}
    is {u = 0}.  Both maps are unimodular, so no two terms meet and the
    terms stay canonical.  They act on P and V alike; V stays a
    polynomial with its constant term, and chart A puts no other term of
    V in the column u^0, so V_A(0, v) = V(0, 0).
    """
    if chart == CHART_FIRST:
        terms = {(m + n, n): c for (m, n), c in poly.terms.items()}
    elif chart == CHART_SECOND:
        terms = {(m, m + n): c for (m, n), c in poly.terms.items()}
    else:
        raise ValueError(f"chart must be 'A' or 'B', got {chart!r}")
    denominator = poly.denominator
    return LaurentPolynomial._trusted(
        poly.ctx, terms,
        denominator and blowup_substitute(denominator, chart))


# ---------------------------------------------------------------------------
# origin translation in the second coordinate
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _binomial_row(n, p):
    """(j, C(n, j) mod p) for every j in 0..n whose binomial is nonzero mod
    p, ascending in j.  By Lucas' theorem these are the j whose base-p
    digits are all at most those of n; they are built digit by digit, the
    new (higher) digit varying slowest.  Cached, and a tuple, so that no
    caller can change a cached row."""
    row = [(0, 1)]
    place = 1
    while n:
        n, digit = divmod(n, p)
        row = [(j + i * place, b * math.comb(digit, i) % p)
               for i in range(digit + 1) for j, b in row]
        place *= p
    return tuple(row)


def _lucas_terms(terms, lift, prime_field):
    """The plan of one term map for ``_shifted``: for each term
    c * t1^m * t2^n and each j with C(n + lift, j) nonzero mod p (its
    cached Lucas row), the output exponent (m, j), the power n + lift - j
    of the shift, and c times the binomial as a coefficient and a factor.
    A binomial of 1 leaves c with no factor, one of -1 negates c, any
    other keeps c with the binomial as a prime field element.  In the
    order of the terms, then of the rows, and plain tuples throughout."""
    p = len(prime_field)
    minus_one = p - 1
    plan = []
    for (m, n), c in terms.items():
        n += lift
        negated = None
        for j, binom in _binomial_row(n, p):
            if binom == 1:
                plan.append(((m, j), n - j, c, None))
            elif binom == minus_one:
                if negated is None:
                    negated = -c
                plan.append(((m, j), n - j, negated, None))
            else:
                plan.append(((m, j), n - j, c, prime_field[binom]))
    return tuple(plan)


def _shifted(plan, powers):
    """The term map of a ``_lucas_terms`` plan at a shift, powers[k] being
    shift^k: each planned coefficient times its power of the shift and its
    factor, added in the planned order."""
    out = {}
    for e, k, c, factor in plan:
        coeff = c * powers[k]
        if factor is not None:
            coeff = coeff * factor
        # coeff is nonzero, so only a sum can cancel
        s = out.get(e)
        if s is None:
            out[e] = coeff
        else:
            s = s + coeff
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _translation_plan(poly):
    """What ``translate`` reads of poly whatever the shift: the largest
    power of the shift it needs, and the ``_lucas_terms`` plans of P lifted
    by pK and of V lifted by K (None for a denominator that stays 1)."""
    ctx = poly.ctx
    p = ctx.p
    prime_field = ctx.prime_elements()
    exponents = [n for _, n in poly.terms]
    k = max(0, -(min(exponents, default=0) // p))
    denominator = poly.denominator
    if denominator is None and k:
        denominator = LaurentPolynomial._trusted(ctx, {(0, 0): ctx.one()})
    top = max(exponents, default=0) + p * k
    if denominator is not None:
        top = max(top, max(n for _, n in denominator.terms) + k)
    return (top, _lucas_terms(poly.terms, p * k, prime_field),
            None if denominator is None
            else _lucas_terms(denominator.terms, k, prime_field))


def translate(poly, shift):
    """Substitute t2 -> t2 + shift for a nonzero field element shift, exactly.

    For F = P / V^p, let K = ceil(N / p) with N the largest t2-pole of P
    (0 without one).  Then F(t1, t2 + shift) = P' / V'^p with

        P' = P(t1, t2 + shift) * (t2 + shift)^(pK),
        V' = V(t1, t2 + shift) * (t2 + shift)^K,

    both polynomials in t2, expanded through binomial coefficients mod p.
    Without t2-poles K is 0 and a denominator 1 stays 1.  The new
    denominator's constant term is V(0, shift) * shift^K, nonzero in a
    chart A image (see ``blowup_substitute``); a ValueError is raised when
    it vanishes.  The polynomial and the shift must share one context: as
    everywhere, embed explicitly first.

    What does not read the shift (K, the largest power of the shift, and
    each term's Lucas row with its binomials) is the polynomial's
    translation plan, built on its first translation and kept on it.
    """
    if not shift:
        raise ValueError("translation by zero; the origin needs no shift")
    ctx = poly.ctx
    if shift.ctx is not ctx:
        raise ContextMismatchError(f"shift from {shift.ctx}, polynomial over "
                                   f"{ctx}; embed explicitly first")
    plan = poly._plan
    if plan is None:
        plan = poly._plan = _translation_plan(poly)
    top, numerator, denominator = plan
    powers = [ctx.one(), shift]
    while len(powers) <= top:
        powers.append(powers[-1] * shift)

    terms = _shifted(numerator, powers)
    if denominator is None:
        return LaurentPolynomial._trusted(ctx, terms)
    moved = _shifted(denominator, powers)
    if not moved.get((0, 0)):
        raise ValueError("the denominator vanishes at the new origin")
    return LaurentPolynomial._trusted(
        ctx, terms, LaurentPolynomial._trusted(ctx, moved))
