"""Sparse bivariate Laurent polynomials over F_{p^k}.

A polynomial is a finite map from integer exponent pairs (m, n) to nonzero
field elements, m the exponent of the first coordinate t1 and n of the
second coordinate t2.  Supports are tiny but exponents may be large and
negative, so the representation is a dict, kept canonical (no stored
zeros).  Values are immutable; every operation returns a new polynomial.
The public constructor checks and canonicalizes its input; operations
whose results are canonical by construction build them through a private
constructor that checks nothing.  A polynomial keeps, once computed, its
certified corners (the minimal points of its exact terms, as a tuple
sorted by m), its staircase and its hash.

Pole staircases read the support in (a, b) = (-m, n) coordinates: a is the
pole order along {t1 = 0} and b the t2-exponent.  The staircase of f is
the set of minimal support points under the componentwise order on (m, n),
sorted by a.

Truncation.  Moving the origin to a point t2 = a with a != 0 expands each
negative t2-power into a power series, which must be cut off.  Instead of
a single global cutoff the polynomial carries *unknown corners*, minimal
and sorted as the certified corners are: lattice points u such that every
coefficient on u + (Z>=0)^2 is possibly incomplete (stored values there
are partial sums).  Arithmetic propagates the corners conservatively, and
any consumer that would have to trust a coefficient inside the unknown
region raises PrecisionLossError instead of silently truncating.  Exact
polynomials have no corners, and operations on exact data never lose
exactness except for the translation of a negative power.

Only this module reads the unknown corners, as a cut per t1-column: (m, n)
lies in the region iff n is at least the cut of column m.  ``_certified``
alone decides which terms are certified, for the certified corners and the
valuations, each in its own pass; ``leading_column`` gives the certified
part of one column and its cut, for the conductor loop and the exceptional
point search.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator

from .fields import ContextMismatchError, embed
from .staircase import Staircase


class PrecisionLossError(ArithmeticError):
    """A computation needed coefficient data beyond the truncation order."""

    def __init__(self, position, message=None):
        self.position = position
        super().__init__(message or f"coefficient at {position} is beyond "
                                    "the valid truncation order")


CHART_FIRST = "A"   # (t1, t2) = (u, u*v):   exponents (m, n) -> (m + n, n)
CHART_SECOND = "B"  # (t1, t2) = (u*v, v):   exponents (m, n) -> (m, m + n)


def _sorted_corners(points):
    """The minimal points of a finite set of exponent pairs under the
    componentwise order, sorted by m (so their n falls).

    The column minimum of an m is the least n of a point (m, n).  One pass
    gathers the column minima; a column minimum is minimal iff it lies
    below every column to its left, which one sweep over the few distinct
    m decides.  Repeated points are harmless.  The format of both the
    certified and the unknown corners; most polynomials have no unknown
    corners, so an empty sized input returns at once.
    """
    if not points:
        return ()
    low = {}
    for m, n in points:
        if n < low.get(m, math.inf):
            low[m] = n
    corners = []
    least = math.inf
    for m in sorted(low):
        n = low[m]
        if n < least:
            corners.append((m, n))
            least = n
    return tuple(corners)


class LaurentPolynomial:
    """Canonical sparse Laurent polynomial with truncation bookkeeping."""

    __slots__ = ("ctx", "terms", "unknown", "_corners", "_staircase",
                 "_hash")

    def __init__(self, ctx, terms=None, unknown=()):
        """Zero coefficients are dropped.  An exponent or a corner
        coordinate that is not an integer raises TypeError."""
        index = operator.index
        clean = {}
        for (m, n), c in (terms or {}).items():
            if c.ctx is not ctx and c.ctx != ctx:
                raise ContextMismatchError("coefficient from a foreign context")
            if c:
                clean[(index(m), index(n))] = c
        self.ctx = ctx
        self.terms = clean
        self.unknown = _sorted_corners([(index(u), index(v))
                                        for u, v in unknown])
        self._corners = None        # _certified_corners(), once asked for
        self._staircase = None      # pole_staircase(), once it succeeded
        self._hash = None           # hash(self), once asked for

    @classmethod
    def _trusted(cls, ctx, terms, unknown):
        """A polynomial from data that is canonical by construction: int
        exponent pairs mapped to nonzero coefficients of ctx, and the
        unknown corners as the sorted corner tuple the certified corners
        use.  Nothing is checked."""
        poly = cls.__new__(cls)
        poly.ctx = ctx
        poly.terms = terms
        poly.unknown = unknown
        poly._corners = None
        poly._staircase = None
        poly._hash = None
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

    @property
    def is_exact(self):
        return not self.unknown

    def coefficient(self, m, n):
        if self.unknown and n >= _column_cut(self.unknown, m):
            raise PrecisionLossError((m, n))
        return self.terms.get((m, n), self.ctx.zero())

    def __bool__(self):
        return bool(self.terms) or bool(self.unknown)

    def __eq__(self, other):
        return (isinstance(other, LaurentPolynomial)
                and self.ctx == other.ctx
                and self.terms == other.terms
                and self.unknown == other.unknown)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx, frozenset(self.terms.items()),
                               self.unknown))
        return self._hash

    def __repr__(self):
        from .parsing import format_polynomial
        body = format_polynomial(self)
        if self.unknown:
            body += f" [unknown beyond {list(self.unknown)}]"
        return f"<{body} over {self.ctx}>"

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LaurentPolynomial):
            raise TypeError(f"expected LaurentPolynomial, got {type(other).__name__}")
        if self.ctx != other.ctx:
            raise ContextMismatchError("polynomials from different contexts; "
                                       "embed explicitly first")

    def _merge(self, other, negate):
        """self + other, or self - other when negate is set."""
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = -c if negate else c
            else:
                s = s - c if negate else s + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return LaurentPolynomial._trusted(
            self.ctx, terms, _sorted_corners(self.unknown + other.unknown))

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        return LaurentPolynomial._trusted(
            self.ctx, {e: -c for e, c in self.terms.items()}, self.unknown)

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                e = (m1 + m2, n1 + n2)
                prod = c1 * c2
                s = terms.get(e)
                terms[e] = prod if s is None else s + prod
        unknown = []
        if self.unknown or other.unknown:
            mine = _sorted_corners(self.terms) + self.unknown
            theirs = _sorted_corners(other.terms) + other.unknown
            for u in self.unknown:
                for v in theirs:
                    unknown.append((u[0] + v[0], u[1] + v[1]))
            for u in other.unknown:
                for v in mine:
                    unknown.append((u[0] + v[0], u[1] + v[1]))
        return LaurentPolynomial(self.ctx, terms, unknown)

    def frobenius_power(self):
        """The p-th power: coefficients through Frobenius, exponents scaled
        by p (the characteristic collapses all cross terms)."""
        p = self.ctx.p
        return LaurentPolynomial._trusted(
            self.ctx,
            {(p * m, p * n): c ** p for (m, n), c in self.terms.items()},
            tuple((p * m, p * n) for m, n in self.unknown))

    def embed_into(self, target):
        if target == self.ctx:
            return self
        return LaurentPolynomial._trusted(
            target, {e: embed(c, target) for e, c in self.terms.items()},
            self.unknown)


# ---------------------------------------------------------------------------
# staircase extraction and valuations
# ---------------------------------------------------------------------------

def _column_cut(unknown, m):
    """The cut of the t1-column m: the n of the last corner with u <= m,
    or +inf.  Sorted by u, the corners have falling n, so that is the
    least such n."""
    i = bisect.bisect_right(unknown, m, key=operator.itemgetter(0))
    return unknown[i - 1][1] if i else math.inf


def _certified(poly):
    """The exponents of the certified terms (n below the cut of column m),
    in the order of ``terms``, in one pass with no copy.  With one corner
    (u, v), the case of every translation of an exact polynomial, that is
    m < u or n < v.  Several corners are rare, but they come on the largest
    polynomials of the slowest reports, so a term's cut is one bisection,
    that of ``_column_cut`` written inline: a call per term costs more.
    """
    unknown = poly.unknown
    if not unknown:
        return poly.terms.keys()
    if len(unknown) == 1:
        (u, v), = unknown
        return (e for e in poly.terms if e[0] < u or e[1] < v)
    first = operator.itemgetter(0)
    return (e for e in poly.terms
            if not (i := bisect.bisect_right(unknown, e[0], key=first))
            or e[1] < unknown[i - 1][1])


def _certified_corners(poly):
    """The minimal points of the certified support, sorted by m, from one
    pass over the certified exponents; kept on the polynomial."""
    if poly._corners is None:
        poly._corners = _sorted_corners(_certified(poly))
    return poly._corners


def undominated_unknowns(poly):
    """Unknown corners not dominated by any certified support corner.
    These are the positions where a truncated tail could still hide a
    staircase corner."""
    if not poly.unknown:
        return []
    corners = _certified_corners(poly)
    return [u for u in poly.unknown
            if not any(c[0] <= u[0] and c[1] <= u[1] for c in corners)]


def pole_staircase(poly):
    """Minimal support corners in (a, b) = (-m, n) coordinates, sorted by a.

    Only coefficients outside the unknown region can witness a corner, and
    every unknown corner must be dominated by a certified one; otherwise a
    truncated tail could hide a corner and the call raises, on every call.
    A staircase once found is kept on the polynomial.  The corners come
    sorted by m, so a = -m ascends along them reversed; exponents are
    ints, so only that order is checked.
    """
    if poly._staircase is not None:
        return poly._staircase
    blind = undominated_unknowns(poly)
    if blind:
        raise PrecisionLossError(blind[0], "a truncated region may hide a corner")
    poly._staircase = Staircase._from_ints(
        [(-m, n) for m, n in reversed(_certified_corners(poly))])
    return poly._staircase


def valuation(poly, axis):
    """Minimum exponent along the axis ("t1" or "t2"); +inf for zero.

    The minimum is taken in its own pass over the certified exponents,
    not from the certified corners, so that the conductor loops, which
    read valuations, stay a route independent of the staircase.
    """
    idx = _axis_index(axis)
    v = min(map(operator.itemgetter(idx), _certified(poly)), default=None)
    if v is None:
        if poly.unknown or poly.terms:
            raise PrecisionLossError(min([*poly.unknown, *poly.terms]),
                                     "no certified term to take the valuation from")
        return math.inf
    bad = [u for u in poly.unknown if u[idx] < v]
    if bad:
        raise PrecisionLossError(bad[0], "a truncated region may lower the valuation")
    return v


def leading_column(poly, v):
    """The certified terms of the t1-column v as a map n -> coeff, and the
    column's cut, or None when no unknown corner reaches it."""
    cut = _column_cut(poly.unknown, v)
    column = {n: c for (m, n), c in poly.terms.items() if m == v and n < cut}
    return column, (None if cut == math.inf else cut)


def _axis_index(axis):
    if axis == "t1":
        return 0
    if axis == "t2":
        return 1
    raise ValueError(f"axis must be 't1' or 't2', got {axis!r}")


def transpose(poly):
    """Swap the two coordinates."""
    return LaurentPolynomial._trusted(
        poly.ctx, {(n, m): c for (m, n), c in poly.terms.items()},
        tuple((n, m) for m, n in reversed(poly.unknown)))


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
    terms stay canonical.  The unknown corners are minimized again: chart
    A maps the corners (0, 1), (1, 0) to (1, 1), (1, 0).
    """
    if chart == CHART_FIRST:
        terms = {(m + n, n): c for (m, n), c in poly.terms.items()}
        unknown = [(m + n, n) for m, n in poly.unknown]
    elif chart == CHART_SECOND:
        terms = {(m, m + n): c for (m, n), c in poly.terms.items()}
        unknown = [(m, m + n) for m, n in poly.unknown]
    else:
        raise ValueError(f"chart must be 'A' or 'B', got {chart!r}")
    return LaurentPolynomial._trusted(poly.ctx, terms, _sorted_corners(unknown))


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


@functools.lru_cache(maxsize=1024)
def _series_binomials(n, budget, p):
    """The coefficients of x^j in the series (1 + x)^n for a pole order
    n < 0, as (j, coefficient mod p) for every j < budget where it is
    nonzero mod p, ascending in j; cached as a tuple.

    In characteristic p, (1 + x)^q = 1 + x^q for every power q of p, so
    below x^q the series (1 + x)^n equals the polynomial (1 + x)^(n mod q).
    Its coefficient (-1)^j * C(-n-1+j, j) is therefore C(n mod q, j) mod p
    for every j < budget <= q, sign included."""
    q = p
    while q < budget:
        q *= p
    row = _binomial_row(n % q, p)
    return row[:bisect.bisect_left(row, (budget,))]


def translate(poly, shift, budget):
    """Substitute t2 -> t2 + shift for a nonzero field element shift.

    Nonnegative powers expand exactly through binomial coefficients mod p.
    A negative power (t2 + shift)^n expands as

        shift^n * sum_j C(-n-1+j, j) * (-1)^j * shift^(-j) * t2^j,

    cut after `budget` terms; the cut is recorded as an unknown corner at
    (m, budget) for the term's t1-exponent m.  The polynomial and the
    shift must share one context: as everywhere, embed explicitly first.

    Each term's row of binomials mod p comes from Lucas' theorem, cached
    per exponent; the row of a negative power already carries the sign
    (-1)^j, so no sign is flipped here.  The powers shift^k and shift^(-j)
    are built once per call, one product per step, up to the largest index
    a row uses, and shared by all terms; each term's coefficients are added
    in ascending t2-order.  A binomial of -1 negates, and any other
    binomial but 1 multiplies as an element of the prime field.
    """
    if not shift:
        raise ValueError("translation by zero; the origin needs no shift")
    if budget < 1:
        raise ValueError("series budget must be >= 1")
    ctx = poly.ctx
    if shift.ctx is not ctx and shift.ctx != ctx:
        raise ContextMismatchError(f"shift from {shift.ctx}, polynomial over "
                                   f"{ctx}; embed explicitly first")
    p = ctx.p
    prime_field = [ctx.element(b) for b in range(p)]
    minus_one = p - 1
    unknown = [(m, 0) for m, _ in poly.unknown]
    rows = []
    top = 0                 # the largest power of shift a row uses
    inv_top = 0             # the same for shift^-1; 0 without poles
    for (m, n), c in poly.terms.items():
        if n >= 0:
            row = _binomial_row(n, p)
            top = max(top, n)
        else:
            unknown.append((m, budget))
            row = _series_binomials(n, budget, p)
            inv_top = max(inv_top, -n, row[-1][0])
        rows.append((m, n, c, row))
    powers = [ctx.one(), shift]
    while len(powers) <= top:
        powers.append(powers[-1] * shift)
    if inv_top:
        inv_powers = [ctx.one(), shift.inverse()]
        while len(inv_powers) <= inv_top:
            inv_powers.append(inv_powers[-1] * inv_powers[1])

    terms = {}
    for m, n, c, row in rows:
        if n < 0:
            lead = c * inv_powers[-n]
        for j, binom in row:
            coeff = c * powers[n - j] if n >= 0 else lead * inv_powers[j]
            if binom != 1:
                coeff = (-coeff if binom == minus_one
                         else coeff * prime_field[binom])
            # coeff is nonzero, so only a sum can cancel
            s = terms.get((m, j))
            if s is None:
                terms[(m, j)] = coeff
            else:
                s = s + coeff
                if s:
                    terms[(m, j)] = s
                else:
                    del terms[(m, j)]
    return LaurentPolynomial._trusted(ctx, terms, _sorted_corners(unknown))
