"""Exact arithmetic in finite fields F_{p^k}.

Elements are stored in the polynomial basis: a length-k tuple of residues
mod p, reduced against a fixed monic irreducible modulus.  The modulus for
F_{p^k} is chosen deterministically as the monic irreducible polynomial of
degree k whose non-leading coefficient vector (c_0, ..., c_{k-1}) minimizes
sum(c_i * p**i), so a given (p, k) names the same field in every run
without external tables.

One context per field: :func:`field` builds the context of F_{p^k} on
first use and keeps it for the process (``field(p)`` is ``field(p, 1)``).
Contexts compare and hash by identity, and ``__reduce__`` makes every
copy and pickle of a context that one context again.  Elements compare
by context and value, and hash by value.

Arithmetic.  A field of order at most ``_EXHAUSTIVE_LIMIT`` (4096) is
tabulated on first use: the first element asked of the context (through
``element``, ``from_encoding``, ``elements``, ``zero``, ``one`` or ``gen``),
never at construction, interns one ``FieldElement`` per field element, in
encoding order.  Each element carries its discrete log to the primitive
element w of smallest encoding, and zero a marker past every sum of two
logs.  Three tables complete the context: exp (log to element, doubled
and padded with zero so that the sum of any two logs indexes a product),
the Zech logarithms Z with 1 + w^k = w^Z(k) (Huber, IEEE Trans. IT 36(4),
1990), and the log of -1.  Then +, -, unary -, *, **, inverse and p-th
root are index arithmetic and one list lookup that returns an interned
element: w^i + w^j = w^(i + Z(j - i)).  No tuple is built, and truth is a
comparison of the log.  The tables of F_4096 hold about 1.1 MB (the
interned elements with their coefficient tuples, and the three lists).
Larger fields, whose elements carry no log, add and negate coefficient
tuples componentwise and multiply them by ``_pmulmod`` (a product
followed by reduction against the modulus); the table build itself runs
on that path, walking the powers of w with ordinary element arithmetic.
Elements keep their coefficient tuples on either path, so printing,
parsing and encodings do not depend on it.

Polynomials over a field are dense lists of its elements (the ``_f*``
functions).  One distinct-degree factorization loop runs on them
(``_distinct_degree_parts``): it tests a modulus for irreducibility over
the prime field and tells root finding which extensions to search.

Cross-field coercion is never implicit: operations on elements of
different contexts raise, and :func:`embed` moves an element along a fixed
embedding F_{p^k} -> F_{p^(k*m)}.  The embedding for a context pair sends
the source generator to the root of the source modulus with the smallest
encoding in the target field, which makes it deterministic across runs;
that root is kept per context pair, and an element's image is its
coefficient polynomial evaluated there.  The way back runs the root
finder: an element a with d distinct conjugates a, a^p, ...,
a^(p^(d-1)) has the minimal polynomial prod (X - a^(p^i)) over F_p,
whose roots in F_{p^d} are those conjugates (Lidl and Niederreiter,
*Finite Fields*, Thm 2.14), and :func:`subfield_preimage` returns the
one that embeds to a.

Root finding is complete: the same loop, over the coefficient field F_q,
gives the degrees d of the irreducible factors, and only those F_{q^d}
are searched, each for the roots of its own part.  Roots are listed once
each, without multiplicity.  Within a field of at most a few thousand
elements the scan is exhaustive, which doubles as the oracle in the
tests; past that the linear factors are isolated by gcd with
X^(q^d) - X and separated by deterministic equal-degree splitting, but
only until one root of each irreducible factor over F_q is known: the
others are its q-th powers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


class ContextMismatchError(ValueError):
    """Two elements from different field contexts were combined."""


# ---------------------------------------------------------------------------
# prime-field helpers
# ---------------------------------------------------------------------------

def _pmulmod(a, b, modulus, p):
    """The product of two coefficient tuples reduced by a monic modulus of
    degree k, as a length-k tuple of residues mod p: a schoolbook product,
    then top-down reduction."""
    k = len(modulus) - 1
    prod = [0] * max(len(a) + len(b) - 1, k)
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b_terms:
                prod[i + j] += ai * bj
    tail = [(j - k, mj) for j, mj in enumerate(modulus[:k]) if mj]
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i] % p
        if c:
            for j, mj in tail:
                prod[i + j] -= c * mj
    return tuple([c % p for c in prod[:k]])


# Miller-Rabin to the first 13 primes as bases is exact below psi_13
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).  The first 12 are not enough below it:
# psi_12 = 318665857834031151167461 passes all of them and is composite.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981      # psi_13


def _is_prime(n):
    """Whether n is prime, for n below ``_PRIME_BOUND``: a strong
    probable-prime test to every base of ``_PRIME_BASES``."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(poly, p):
    """Whether a monic polynomial over field(p), as residues low degree
    first, is irreducible: its first distinct-degree part is itself."""
    if len(poly) <= 2:
        # field(p) is built on this test, with a modulus of degree 1
        return len(poly) == 2
    fp = field(p)
    d, _ = next(_distinct_degree_parts([fp.element(c) for c in poly], fp))
    return d == len(poly) - 1


@functools.lru_cache(maxsize=None)
def _least_irreducible(p, degree):
    for enc in range(p ** degree):
        poly = _digits(enc, p, degree) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise RuntimeError(f"no irreducible polynomial of degree {degree} over F_{p}")


# ---------------------------------------------------------------------------
# contexts and elements
# ---------------------------------------------------------------------------

def _digits(enc, p, degree):
    """The coefficient tuple (low degree first) of an encoding."""
    vec = []
    for _ in range(degree):
        vec.append(enc % p)
        enc //= p
    return tuple(vec)


def _encode(coeffs, p):
    enc = 0
    for c in reversed(coeffs):
        enc = enc * p + c
    return enc


class FieldContext:
    """The field F_{p^k} presented as F_p[x] / (modulus), for the least
    irreducible modulus.  Built through :func:`field`, which keeps one
    context per field; a context compares and hashes by identity, and its
    copies and pickles are that context again."""

    __slots__ = ("p", "degree", "modulus", "_elems", "_exp", "_zech",
                 "_neg", "_zero_log", "_prime")

    def __init__(self, p, degree):
        if p >= _PRIME_BOUND:
            raise ValueError(f"characteristic {p} is not below "
                             f"{_PRIME_BOUND}, where primality is decided "
                             f"exactly")
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if degree < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.degree = degree
        self.modulus = _least_irreducible(p, degree)
        self._elems = None
        self._prime = None

    @property
    def order(self):
        return self.p ** self.degree

    def _tables(self):
        """The interned elements in encoding order for a field within the
        table cap, built on first use together with the log tables; None
        above the cap."""
        if self._elems is None:
            # untabulated while the build runs, so that the elements it
            # computes with take the polynomial path
            self._elems = False
            if self.order <= _EXHAUSTIVE_LIMIT:
                self._elems = self._build_tables()
        return self._elems or None

    def _build_tables(self):
        """Intern every element and fill the log tables.

        With N = order - 1 and w the primitive element of smallest
        encoding, a nonzero element w^i carries the log i and zero the log
        2N.  ``_exp[i]`` is w^(i mod N) for i < 2N and zero from 2N to 4N,
        so the sum of any two logs indexes a product.  ``_zech[k]`` is the
        log of 1 + w^(k mod N) (2N where that sum vanishes), over 2N
        entries so that k may run from -N to 2N - 1, and ``_neg`` is the
        log of -1.
        """
        p, degree, order = self.p, self.degree, self.order
        group = order - 1
        maximal = [group // ell for ell in _prime_divisors(group)]
        one = self.one()
        for enc in range(1, order):
            w = self.from_encoding(enc)
            if all(w ** e != one for e in maximal):
                break
        exp_enc = []
        power = one
        for _ in range(group):
            exp_enc.append(power.encoding())
            power = power * w
        log = [2 * group] * order
        for i, enc in enumerate(exp_enc):
            log[enc] = i
        elems = [FieldElement(self, _digits(enc, p, degree), log[enc])
                 for enc in range(order)]
        by_log = [elems[enc] for enc in exp_enc]
        self._exp = by_log + by_log + [elems[0]] * (2 * group + 1)
        # 1 + w^k: raise the constant coefficient of w^k by one
        zech = [log[enc - enc % p + (enc + 1) % p] for enc in exp_enc]
        self._zech = zech + zech
        self._neg = group // 2 if p != 2 else 0
        self._zero_log = 2 * group
        return elems

    def __reduce__(self):
        return field, (self.p, self.degree)

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"

    def element(self, coeffs):
        """Element from an iterable of residues (low degree first)."""
        p = self.p
        elems = self._tables()
        if isinstance(coeffs, int):
            if elems:
                return elems[coeffs % p]
            coeffs = (coeffs,)
        vec = list(coeffs)
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than the degree")
        vec = [c % p for c in vec] + [0] * (self.degree - len(vec))
        if elems:
            return elems[_encode(vec, p)]
        return FieldElement(self, tuple(vec))

    def from_encoding(self, enc):
        if not 0 <= enc < self.order:
            raise ValueError("encoding out of range")
        elems = self._tables()
        if elems:
            return elems[enc]
        return FieldElement(self, _digits(enc, self.p, self.degree))

    def zero(self):
        elems = self._elems
        return elems[0] if elems else self.from_encoding(0)

    def one(self):
        elems = self._elems
        return elems[1] if elems else self.from_encoding(1)

    def gen(self):
        """The polynomial-basis generator (the class of x)."""
        if self.degree == 1:
            raise ValueError("prime field has no extension generator")
        return self.from_encoding(self.p)

    def elements(self):
        """All field elements, in encoding order."""
        elems = self._tables()
        if elems:
            return iter(elems)
        return (self.from_encoding(enc) for enc in range(self.order))

    def prime_elements(self):
        """The elements 0, 1, ..., p - 1 of the prime field, as a tuple
        built on first use and kept on the context."""
        if self._prime is None:
            self._prime = tuple(self.element(b) for b in range(self.p))
        return self._prime


def field(p, degree=1):
    """The one context for F_{p^degree}, built on first use and kept for
    the process; field(p) is field(p, 1)."""
    return _field(p, degree)


@functools.lru_cache(maxsize=None)
def _field(p, degree):
    return FieldContext(p, degree)


class FieldElement:
    """An element of F_{p^k} in the polynomial basis of its context.

    Elements come from their context (``element``, ``from_encoding`` and
    the like), which hands out its interned elements within the table cap.
    ``_log`` is then the element's log in the context's tables (2(q - 1)
    for zero); above the cap it is None.  Equality is by context object
    and value.  The hash is that of the coefficients alone, so it reads no
    object address and a pickle that carries it holds in any process; it
    is computed once per element object, and an interned element, which
    every lookup returns, computes it once per process.
    """

    __slots__ = ("ctx", "coeffs", "_log", "_hash")

    def __init__(self, ctx, coeffs, log=None):
        self.ctx = ctx
        self.coeffs = coeffs
        self._log = log
        self._hash = None

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if self.ctx is not other.ctx:
            raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other):
        if other.__class__ is not FieldElement or other.ctx is not self.ctx:
            self._check(other)
        i = self._log
        if i is None:
            p = self.ctx.p
            return FieldElement(self.ctx, tuple(
                (a + b) % p for a, b in zip(self.coeffs, other.coeffs)))
        ctx = self.ctx
        j = other._log
        zero = ctx._zero_log
        if j >= zero:
            return self
        if i >= zero:
            return ctx._exp[j]
        # w^i + w^j = w^i * (1 + w^(j - i))
        return ctx._exp[i + ctx._zech[j - i]]

    def __sub__(self, other):
        if other.__class__ is not FieldElement or other.ctx is not self.ctx:
            self._check(other)
        i = self._log
        if i is None:
            p = self.ctx.p
            return FieldElement(self.ctx, tuple(
                (a - b) % p for a, b in zip(self.coeffs, other.coeffs)))
        ctx = self.ctx
        j = other._log + ctx._neg       # the log of -other
        zero = ctx._zero_log
        if j >= zero:
            return self
        if i >= zero:
            return ctx._exp[j]
        return ctx._exp[i + ctx._zech[j - i]]

    def __neg__(self):
        i = self._log
        if i is None:
            p = self.ctx.p
            return FieldElement(self.ctx, tuple((-a) % p for a in self.coeffs))
        ctx = self.ctx
        return ctx._exp[i + ctx._neg]

    def __mul__(self, other):
        if other.__class__ is not FieldElement or other.ctx is not self.ctx:
            if isinstance(other, int):
                other = self.ctx.element(other)
            else:
                self._check(other)
        i = self._log
        if i is None:
            ctx = self.ctx
            return FieldElement(ctx, _pmulmod(self.coeffs, other.coeffs,
                                              ctx.modulus, ctx.p))
        return self.ctx._exp[i + other._log]

    __rmul__ = __mul__

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        i = self._log
        if i is not None:
            ctx = self.ctx
            if i == ctx._zero_log:
                return ctx._exp[0] if n == 0 else self
            return ctx._exp[i * n % (ctx._zero_log // 2)]
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        i = self._log
        if i is None:
            return self ** (self.ctx.order - 2)
        ctx = self.ctx
        return ctx._exp[ctx._zero_log // 2 - i]

    def pth_root(self):
        """The unique c with c**p == self (Frobenius is bijective)."""
        return self ** (self.ctx.p ** (self.ctx.degree - 1))

    def encoding(self):
        return _encode(self.coeffs, self.ctx.p)

    def __bool__(self):
        i = self._log
        if i is None:
            return any(self.coeffs)
        return i < self.ctx._zero_log

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FieldElement)
                and self.ctx is other.ctx and self.coeffs == other.coeffs)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.coeffs)
        return h

    def __str__(self):
        if self.ctx.degree == 1:
            return str(self.coeffs[0])
        parts = []
        for i in range(self.ctx.degree - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("g" if c == 1 else f"{c}*g")
            else:
                parts.append(f"g^{i}" if c == 1 else f"{c}*g^{i}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self} in {self.ctx}>"


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _generator_image(src, dst):
    """Smallest-encoding root of the source modulus in the target field."""
    mod = [dst.element(c) for c in src.modulus]
    roots = _roots_in_field(mod, dst, dst.p)
    if not roots:
        raise RuntimeError(f"no root of the {src} modulus in {dst}")
    return roots[0]


def embed(a, target):
    """Map an element along the fixed embedding into a larger context: its
    coefficient polynomial evaluated at the image of the source
    generator."""
    src = a.ctx
    if src is target:
        return a
    if src.p != target.p:
        raise ContextMismatchError("different characteristics")
    if target.degree % src.degree != 0:
        raise ContextMismatchError(
            f"no embedding {src} -> {target}: degree {src.degree} "
            f"does not divide {target.degree}")
    img = _generator_image(src, target)
    acc = target.zero()
    for c in reversed(a.coeffs):
        acc = acc * img + target.element(c)
    return acc


def join_context(ctx1, ctx2):
    """The smallest context admitting embeddings of both arguments."""
    if ctx1.p != ctx2.p:
        raise ContextMismatchError("different characteristics")
    return field(ctx1.p, math.lcm(ctx1.degree, ctx2.degree))


def _conjugates(a):
    """a, a^p, a^(p^2), ...: the distinct images of a under x -> x^p."""
    p = a.ctx.p
    out = [a]
    c = a ** p
    while c != a:
        out.append(c)
        c = c ** p
    return out


def subfield_preimage(a, sub):
    """The element of `sub` mapping to `a` under the fixed embedding, or
    None when `a` is not in the image.

    The product of X - c over the conjugates c of a is the minimal
    polynomial of a over the prime field, and its roots in sub are the
    preimages of those conjugates: the root that embeds to a is returned.
    That comparison certifies the result; a root search that misses it
    raises RuntimeError."""
    src = a.ctx
    if sub is src:
        return a
    if (src.p != sub.p or src.degree % sub.degree != 0
            or a ** sub.order != a):
        return None
    minimal = [src.one()]
    for c in _conjugates(a):
        minimal = _fmul(minimal, [-c, src.one()], src)
    for root in _roots_in_field([sub.element(c.coeffs[0]) for c in minimal],
                                sub, sub.p):
        if embed(root, src) == a:
            return root
    raise RuntimeError(f"no root in {sub} of the minimal polynomial of "
                       f"{a!r} embeds to it")


def minimal_form(a):
    """Rewrite an element in the smallest subfield that contains it, F_{p^d}
    for d the number of its conjugates, using the canonical contexts and
    embeddings."""
    d = len(_conjugates(a))
    if d == a.ctx.degree:
        return a
    return subfield_preimage(a, field(a.ctx.p, d))


# ---------------------------------------------------------------------------
# univariate polynomials over a field (dense lists, low degree first)
# ---------------------------------------------------------------------------

def poly_eval(coeffs, x):
    acc = x.ctx.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_degree(coeffs):
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return -1


def _divide_linear(coeffs, root):
    """Synthetic division by (X - root): returns (quotient, remainder)."""
    quot = [root.ctx.zero()] * max(len(coeffs) - 1, 0)
    acc = root.ctx.zero()
    for i in range(len(coeffs) - 1, -1, -1):
        acc = acc * root + coeffs[i]
        if i > 0:
            quot[i - 1] = acc
    return quot, acc


def _ftrim(coeffs):
    d = poly_degree(coeffs)
    return list(coeffs[:d + 1])


def _fmul(a, b, ctx):
    if not a or not b:
        return []
    out = [ctx.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _ftrim(out)


def _fdivmod(a, b, ctx):
    a = list(a)
    b = _ftrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = b[-1].inverse()
    deg_b = len(b) - 1
    quot = [ctx.zero()] * max(len(a) - deg_b, 0)
    for i in range(len(a) - 1, deg_b - 1, -1):
        c = a[i] * inv_lead
        if c:
            quot[i - deg_b] = c
            for j, bj in enumerate(b):
                a[i - deg_b + j] = a[i - deg_b + j] - c * bj
    return _ftrim(quot), _ftrim(a)


def _fgcd(a, b, ctx):
    a, b = _ftrim(a), _ftrim(b)
    while b:
        a, b = b, _fdivmod(a, b, ctx)[1]
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def _fpowmod(base, exponent, modulus, ctx):
    """base^exponent mod modulus for exponent >= 1, squaring and
    multiplying from the leading bit down."""
    base = result = _fdivmod(base, modulus, ctx)[1]
    for bit in bin(exponent)[3:]:
        result = _fdivmod(_fmul(result, result, ctx), modulus, ctx)[1]
        if bit == "1":
            result = _fdivmod(_fmul(result, base, ctx), modulus, ctx)[1]
    return result


def _fsub(a, b, ctx):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ai = a[i] if i < len(a) else ctx.zero()
        bi = b[i] if i < len(b) else ctx.zero()
        out.append(ai - bi)
    return _ftrim(out)


_EXHAUSTIVE_LIMIT = 4096


def _roots_in_field(coeffs, ctx, q=None):
    """The distinct roots of a nonzero polynomial lying in ctx, by
    encoding.

    Small fields are scanned exhaustively.  Larger ones use the standard
    split: gcd with X^(order) - X isolates the product of the linear
    factors over ctx, which is then separated by deterministic
    equal-degree splitting (quadratic-character gcds for odd p, with shift
    parameters tried in encoding order; trace gcds for p = 2, with the
    shifts running over a basis of ctx over F_2).  When the
    coefficients lie in the subfield F_q, the roots come in orbits under
    x -> x^q, so the split only runs until one root of each orbit is known
    (see ``_root_orbits``).
    """
    coeffs = _ftrim(coeffs)
    if not coeffs:
        raise ValueError("root finding on the zero polynomial")
    if ctx.order <= _EXHAUSTIVE_LIMIT:
        return [x for x in ctx.elements() if not poly_eval(coeffs, x)]
    orbits = _root_orbits(coeffs, ctx, q or ctx.order)
    return sorted((root for orbit in orbits for root in orbit),
                  key=FieldElement.encoding)


def _root_orbits(coeffs, ctx, q):
    """The distinct roots in ctx of a polynomial with coefficients in the
    subfield F_q, grouped into their orbits under x -> x^q.

    A split takes the pending factor of least degree first, so it descends
    to a linear factor along the cheaper side.  Once a root r is known,
    r^q, r^(q^2), ... are roots too, and they are divided out of every
    pending factor, so no further split is spent on them.
    """
    # gcd(monic, X^order - X), X^order reduced mod monic as it is raised
    monic = [c * coeffs[-1].inverse() for c in coeffs]
    if len(monic) == 2:
        return [[-monic[0]]]
    x = [ctx.zero(), ctx.one()]
    frob = _fpowmod(x, ctx.order, monic, ctx)
    orbits = []
    stack = [_fgcd(_fsub(frob, x, ctx), monic, ctx)]
    while stack:
        part = stack.pop()
        deg = poly_degree(part)
        if deg <= 0:
            continue
        if deg > 1:
            stack.extend(sorted(_equal_degree_split(part, ctx), key=len,
                                reverse=True))
            continue
        root = -part[0] * part[1].inverse()
        orbit = [root]
        conjugate = root ** q
        while conjugate != root:
            orbit.append(conjugate)
            conjugate = conjugate ** q
        orbits.append(orbit)
        for i, other in enumerate(stack):
            for conjugate in orbit[1:]:
                quot, rem = _divide_linear(other, conjugate)
                if not rem:
                    other = quot
            stack[i] = other
    return orbits


def _equal_degree_split(part, ctx):
    """Split a monic product of distinct linear factors into two proper
    monic factors, deterministically.

    For p = 2 the shifts are the basis elements g^0, ..., g^(k-1) of
    F_2^k: for two distinct roots r, s the map x -> Tr(x*(r - s)) is a
    nonzero linear form, as the trace form is nondegenerate, so it is 1
    on some basis element, and that shift puts r and s on different sides
    of the trace gcd.  For odd p the shifts run in encoding order.
    """
    if ctx.p == 2:
        shifts = (ctx.from_encoding(1 << i) for i in range(ctx.degree))
    else:
        shifts = ctx.elements()
    for shift in shifts:
        if not shift:
            continue
        if ctx.p == 2:
            # trace of shift*X separates roots by nondegeneracy of the
            # trace form; in characteristic 2 a sum is a difference
            acc = _fdivmod([ctx.zero(), shift], part, ctx)[1]
            trace = acc
            for _ in range(ctx.degree - 1):
                acc = _fdivmod(_fmul(acc, acc, ctx), part, ctx)[1]
                trace = _fsub(trace, acc, ctx)
            candidate = trace
        else:
            # quadratic character of X + shift separates roots
            power = _fpowmod([shift, ctx.one()], (ctx.order - 1) // 2, part, ctx)
            candidate = _fsub(power, [ctx.one()], ctx)
        g = _fgcd(candidate, part, ctx)
        dg = poly_degree(g)
        if 0 < dg < poly_degree(part):
            return [g, _fdivmod(part, g, ctx)[0]]
    raise RuntimeError("equal-degree splitting exhausted the shift space")


def _distinct_degree_parts(monic, base):
    """The distinct-degree factorization of a monic polynomial over
    base = F_q: by ascending d, (d, the product of its distinct
    irreducible factors of degree d) for every d that has one.

    With every factor of degree below d divided out of rest,
    gcd(X^(q^d) - X, rest) is that product, and it is divided out of rest
    as often as it divides.  Once 2d > deg(rest), rest is irreducible or
    constant; it is yielded last unless it is constant.
    """
    rest = monic
    x = h = [base.zero(), base.one()]
    d = 0
    while 2 * (d + 1) < len(rest):
        d += 1
        h = _fpowmod(h, base.order, rest, base)
        g = _fgcd(_fsub(h, x, base), rest, base)
        if len(g) > 1:
            yield d, g
        while len(g) > 1:
            rest = _fdivmod(rest, g, base)[0]
            g = _fgcd(g, rest, base)
    if len(rest) > 1:
        yield len(rest) - 1, rest


@dataclass
class RootSearch:
    """Roots of a univariate polynomial over extension fields.

    Each root is listed once, without multiplicity, in the smallest
    extension of the coefficient field containing it.  The search is
    complete: every root is found.
    """
    roots: list
    partial = False     # read by perfbench/spans.py until ROADMAP item 4


def find_roots(coeffs):
    """All distinct roots of a nonzero polynomial over F_q, each in the
    smallest extension F_{q^d} that contains it, by d, then by encoding.

    The distinct-degree part of degree d of the polynomial has its roots
    in F_{q^d} and in no smaller extension, and that part alone is
    searched there (see ``_distinct_degree_parts``).
    """
    coeffs = _ftrim(coeffs)
    if not coeffs:
        raise ValueError("root finding on the zero polynomial")
    base = coeffs[0].ctx
    inv_lead = coeffs[-1].inverse()
    found = []
    for d, part in _distinct_degree_parts([c * inv_lead for c in coeffs],
                                          base):
        ext = field(base.p, base.degree * d)
        found.extend(_roots_in_field([embed(c, ext) for c in part], ext,
                                     base.order))
    return RootSearch(roots=found)
