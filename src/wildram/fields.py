"""Exact arithmetic in finite fields F_{p^k}.

Elements are stored in the polynomial basis: a length-k tuple of residues
mod p, reduced against a fixed monic irreducible modulus.  The modulus for
F_{p^k} is chosen deterministically as the monic irreducible polynomial of
degree k whose non-leading coefficient vector (c_0, ..., c_{k-1}) minimizes
sum(c_i * p**i), so a given (p, k) names the same field in every run
without external tables.

Multiplication.  A field of order at most ``_EXHAUSTIVE_LIMIT`` (4096)
multiplies through exp/log tables: ``exp[i]`` is the coefficient tuple of
w^i for the primitive element w of smallest encoding, and ``log`` maps each
nonzero tuple back to i.  The tables are built on the first product or
power in the context, never at construction.  Products, powers, inverses
and p-th roots are then index arithmetic mod (order - 1), with zero handled
apart.  Elements keep their coefficient tuples either way, so printing,
parsing and encodings do not depend on the path.  The dense polynomial
arithmetic over F_p (a product followed by reduction against the modulus)
builds the tables, and it remains the multiplication of larger fields.

Cross-field coercion is never implicit: operations on elements of
different contexts raise, and :func:`embed` moves an element along a fixed
embedding F_{p^k} -> F_{p^(k*m)}.  The embedding for a context pair sends
the source generator to the root of the source modulus with the smallest
encoding in the target field, which makes it deterministic across runs.

Root finding over extension towers visits each extension degree up to a
cap (never past the polynomial degree, since a root's minimal degree
divides it).  Within a field of at most a few thousand elements the scan
is exhaustive, which doubles as the oracle in the tests; past that the
linear factors are isolated by gcd with X^(p^(k*d)) - X and separated by
deterministic equal-degree splitting, so extension towers stay cheap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


class ContextMismatchError(ValueError):
    """Two elements from different field contexts were combined."""


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over the prime field (tuples of ints mod p)
# ---------------------------------------------------------------------------

def _trim(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    deg_b = len(b) - 1
    quot = [0] * max(len(a) - deg_b, 0)
    for i in range(len(a) - 1, deg_b - 1, -1):
        c = (a[i] * inv_lead) % p
        if c:
            quot[i - deg_b] = c
            for j, bj in enumerate(b):
                a[i - deg_b + j] = (a[i - deg_b + j] - c * bj) % p
    return _trim(quot), _trim(a)


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _ppowmod(base, exponent, modulus, p):
    result = (1,)
    base = _pmod(base, modulus, p)
    while exponent:
        if exponent & 1:
            result = _pmod(_pmul(result, base, p), modulus, p)
        base = _pmod(_pmul(base, base, p), modulus, p)
        exponent >>= 1
    return result


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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


def _monic_polys(p, degree):
    """All monic polynomials of the given degree, in encoding order."""
    for enc in range(p ** degree):
        coeffs = []
        e = enc
        for _ in range(degree):
            coeffs.append(e % p)
            e //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(poly, p):
    """Rabin's criterion: X^(p^n) == X mod f and, for every prime l | n,
    gcd(X^(p^(n/l)) - X, f) is constant."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    x = (0, 1)
    frobenius = {0: _pmod(x, poly, p)}
    for j in range(1, deg + 1):
        frobenius[j] = _ppowmod(frobenius[j - 1], p, poly, p)
    if frobenius[deg] != _pmod(x, poly, p):
        return False
    for ell in _prime_divisors(deg):
        shifted = _psub(frobenius[deg // ell], x, p)
        if len(_pgcd(shifted, poly, p)) > 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _least_irreducible(p, degree):
    for poly in _monic_polys(p, degree):
        if _is_irreducible(poly, p):
            return poly
    raise RuntimeError(f"no irreducible polynomial of degree {degree} over F_{p}")


# ---------------------------------------------------------------------------
# contexts and elements
# ---------------------------------------------------------------------------

class FieldContext:
    """The field F_{p^k} presented as F_p[x] / (modulus)."""

    __slots__ = ("p", "degree", "modulus", "_exp", "_log")

    def __init__(self, p, degree, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if degree < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            modulus = _least_irreducible(p, degree)
        modulus = _trim(tuple(c % p for c in modulus))
        if len(modulus) - 1 != degree or modulus[-1] != 1:
            raise ValueError("modulus must be monic of the context degree")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.degree = degree
        self.modulus = modulus
        self._exp = None
        self._log = None

    @property
    def order(self):
        return self.p ** self.degree

    def _tables(self):
        """(exp, log) for a field within the table cap, built on first use;
        None above the cap.  exp has 2 * (order - 1) entries, so the sum of
        two logarithms indexes it without a reduction."""
        if self._exp is None:
            order = self.order
            if order > _EXHAUSTIVE_LIMIT:
                self._exp = False
            else:
                self._exp, self._log = self._build_tables(order)
        return (self._exp, self._log) if self._exp else None

    def _build_tables(self, order):
        p, modulus, degree = self.p, self.modulus, self.degree
        group = order - 1
        maximal = [group // ell for ell in _prime_divisors(group)]
        for enc in range(1, order):
            w = _trim(self.from_encoding(enc).coeffs)
            if all(_ppowmod(w, e, modulus, p) != (1,) for e in maximal):
                break
        exp = []
        power = (1,)
        for _ in range(group):
            exp.append(power + (0,) * (degree - len(power)))
            power = _pmod(_pmul(power, w, p), modulus, p)
        log = {coeffs: i for i, coeffs in enumerate(exp)}
        return exp + exp, log

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FieldContext)
                and (self.p, self.degree, self.modulus)
                == (other.p, other.degree, other.modulus))

    def __hash__(self):
        return hash((self.p, self.degree, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"

    def element(self, coeffs):
        """Element from an iterable of residues (low degree first)."""
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        vec = list(coeffs)
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than the degree")
        vec = [c % self.p for c in vec] + [0] * (self.degree - len(vec))
        return FieldElement(self, tuple(vec))

    def from_encoding(self, enc):
        vec = []
        for _ in range(self.degree):
            vec.append(enc % self.p)
            enc //= self.p
        if enc:
            raise ValueError("encoding out of range")
        return FieldElement(self, tuple(vec))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def gen(self):
        """The polynomial-basis generator (the class of x)."""
        if self.degree == 1:
            raise ValueError("prime field has no extension generator")
        return self.element((0, 1))

    def elements(self):
        """All field elements, in encoding order."""
        for enc in range(self.order):
            yield self.from_encoding(enc)


@functools.lru_cache(maxsize=None)
def field(p, degree=1):
    """Interned context for F_{p^degree} with the canonical modulus."""
    return FieldContext(p, degree)


class FieldElement:
    """An element of F_{p^k} in the polynomial basis of its context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other):
        self._check(other)
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a + b) % p
                                            for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a - b) % p
                                            for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ctx.element(other)
        self._check(other)
        ctx = self.ctx
        tables = ctx._tables()
        if tables is not None:
            exp, log = tables
            a = log.get(self.coeffs)
            b = log.get(other.coeffs)
            if a is None or b is None:
                return ctx.zero()
            return FieldElement(ctx, exp[a + b])
        prod = _pmod(_pmul(_trim(self.coeffs), _trim(other.coeffs), ctx.p),
                     ctx.modulus, ctx.p)
        return FieldElement(ctx, prod + (0,) * (ctx.degree - len(prod)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        tables = self.ctx._tables()
        if tables is not None:
            exp, log = tables
            a = log.get(self.coeffs)
            if a is None:
                return self.ctx.one() if n == 0 else self
            return FieldElement(self.ctx, exp[a * n % (self.ctx.order - 1)])
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
        return self ** (self.ctx.order - 2)

    def pth_root(self):
        """The unique c with c**p == self (Frobenius is bijective)."""
        return self ** (self.ctx.p ** (self.ctx.degree - 1))

    def encoding(self):
        enc = 0
        for c in reversed(self.coeffs):
            enc = enc * self.ctx.p + c
        return enc

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.ctx == other.ctx and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

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
    roots = _roots_in_field(mod, dst)
    if not roots:
        raise RuntimeError(f"no root of the {src} modulus in {dst}")
    return roots[0][0]


def embed(a, target):
    """Map an element along the fixed embedding into a larger context."""
    src = a.ctx
    if src == target:
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
    """Smallest canonical context admitting embeddings of both arguments."""
    if ctx1.p != ctx2.p:
        raise ContextMismatchError("different characteristics")
    d1, d2 = ctx1.degree, ctx2.degree
    lcm = d1 * d2 // math.gcd(d1, d2)
    if ctx1.degree == lcm and ctx1 == field(ctx1.p, lcm):
        return ctx1
    if ctx2.degree == lcm and ctx2 == field(ctx2.p, lcm):
        return ctx2
    return field(ctx1.p, lcm)


def _solve_mod_p(columns, target, p):
    """One solution v of (columns as matrix) v = target over F_p, or None."""
    rows = len(target)
    cols = len(columns)
    mat = [[columns[j][i] % p for j in range(cols)] + [target[i] % p]
           for i in range(rows)]
    pivots = []
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, rows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for r in range(rows):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(x - factor * y) % p for x, y in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == rows:
            break
    for r in range(row, rows):
        if mat[r][cols]:
            return None
    solution = [0] * cols
    for r, col in enumerate(pivots):
        solution[col] = mat[r][cols]
    return solution


@functools.lru_cache(maxsize=None)
def _embedding_columns(src, dst):
    """Coordinates of the embedded source basis, as matrix columns."""
    img = _generator_image(src, dst)
    cols = []
    acc = dst.one()
    for i in range(src.degree):
        cols.append(acc.coeffs)
        acc = acc * img
    return tuple(cols)


def subfield_preimage(a, sub):
    """The element of `sub` mapping to `a` under the fixed embedding, or
    None; solved linearly over the prime field."""
    if sub == a.ctx:
        return a
    if a.ctx.degree % sub.degree != 0 or a.ctx.p != sub.p:
        return None
    solution = _solve_mod_p(_embedding_columns(sub, a.ctx), a.coeffs, a.ctx.p)
    if solution is None:
        return None
    return sub.element(solution)


def minimal_form(a, base_degree=1):
    """Rewrite an element in the smallest subfield (over F_{p^base_degree})
    that contains it, using the canonical contexts and embeddings."""
    k = a.ctx.degree
    if k % base_degree != 0:
        raise ValueError("base degree does not divide the context degree")
    rel = k // base_degree
    for d in sorted(_divisors(rel)):
        sub_deg = base_degree * d
        frob = a
        for _ in range(sub_deg):
            frob = frob ** a.ctx.p
        if frob == a:
            if sub_deg == k:
                return a
            pre = subfield_preimage(a, field(a.ctx.p, sub_deg))
            if pre is None:
                raise RuntimeError("element fixed by Frobenius but not "
                                   "matched in the canonical subfield")
            return pre
    return a


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


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
    result = [ctx.one()]
    base = _fdivmod(base, modulus, ctx)[1]
    while exponent:
        if exponent & 1:
            result = _fdivmod(_fmul(result, base, ctx), modulus, ctx)[1]
        base = _fdivmod(_fmul(base, base, ctx), modulus, ctx)[1]
        exponent >>= 1
    return result


def _fsub(a, b, ctx):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ai = a[i] if i < len(a) else ctx.zero()
        bi = b[i] if i < len(b) else ctx.zero()
        out.append(ai - bi)
    return _ftrim(out)


def _fadd(a, b, ctx):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ai = a[i] if i < len(a) else ctx.zero()
        bi = b[i] if i < len(b) else ctx.zero()
        out.append(ai + bi)
    return _ftrim(out)


_EXHAUSTIVE_LIMIT = 4096


def _roots_in_field(coeffs, ctx):
    """All roots of a nonzero polynomial lying in ctx, with multiplicity.

    Small fields are scanned exhaustively.  Larger ones use the standard
    split: gcd with X^(order) - X isolates the product of the linear
    factors over ctx, which is then separated by deterministic
    equal-degree splitting (quadratic-character gcds for odd p, trace gcds
    for p = 2, shift parameters tried in encoding order).
    """
    coeffs = _ftrim(coeffs)
    if not coeffs:
        raise ValueError("root finding on the zero polynomial")
    if ctx.order <= _EXHAUSTIVE_LIMIT:
        roots = [x for x in ctx.elements() if not poly_eval(coeffs, x)]
    else:
        roots = _split_linear_part(coeffs, ctx)
    out = []
    for root in sorted(roots, key=lambda r: r.encoding()):
        mult = 0
        work = coeffs
        while True:
            quot, rem = _divide_linear(work, root)
            if rem:
                break
            mult += 1
            work = quot
        out.append((root, mult))
    return out


def _split_linear_part(coeffs, ctx):
    # gcd(q, X^order - X): X^order mod q by iterated p-th powers
    monic = [c * coeffs[-1].inverse() for c in coeffs]
    if len(monic) == 2:
        return [-monic[0]]
    frob = [ctx.zero(), ctx.one()]
    for _ in range(ctx.degree):
        frob = _fpowmod(frob, ctx.p, monic, ctx)
    linear = _fgcd(_fsub(frob, [ctx.zero(), ctx.one()], ctx), monic, ctx)
    roots = []
    stack = [linear]
    while stack:
        part = stack.pop()
        deg = poly_degree(part)
        if deg <= 0:
            continue
        if deg == 1:
            roots.append(-part[0] * part[1].inverse())
            continue
        stack.extend(_equal_degree_split(part, ctx))
    return roots


def _equal_degree_split(part, ctx):
    """Split a monic product of distinct linear factors into two proper
    monic factors, deterministically."""
    for shift in ctx.elements():
        if not shift:
            continue
        if ctx.p == 2:
            # trace of shift*X separates roots by nondegeneracy of the
            # trace form
            acc = _fdivmod([ctx.zero(), shift], part, ctx)[1]
            trace = acc
            for _ in range(ctx.degree - 1):
                acc = _fdivmod(_fmul(acc, acc, ctx), part, ctx)[1]
                trace = _fadd(trace, acc, ctx)
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


def roots_in_field(coeffs, ctx=None):
    """All (root, multiplicity) pairs of a nonzero polynomial within one
    field, smallest encodings first."""
    coeffs = list(coeffs)
    ctx = ctx or coeffs[0].ctx
    if any(c.ctx != ctx for c in coeffs):
        coeffs = [embed(c, ctx) for c in coeffs]
    return _roots_in_field(coeffs, ctx)


@dataclass
class RootSearch:
    """Roots of a univariate polynomial over extension fields.

    Each entry is (root, multiplicity) with the root expressed in the
    smallest extension of the coefficient field containing it.  `partial`
    is set when roots of degree above the search cap may remain.
    """
    roots: list
    partial: bool

    def values(self):
        return [r for r, _ in self.roots]


def find_roots(coeffs, ext_cap=6):
    """All roots of a nonzero polynomial in F_{p^(k*d)} for d <= ext_cap.

    Roots already present in a smaller extension are skipped, so every
    root is tagged with its minimal field.  A root generates an extension
    of degree at most deg(q), so the search is additionally capped there,
    and it stops early once multiplicities account for the full degree.
    """
    coeffs = list(coeffs)
    deg = poly_degree(coeffs)
    if deg < 0:
        raise ValueError("root finding on the zero polynomial")
    if ext_cap < 1:
        raise ValueError("ext_cap must be >= 1")
    base = coeffs[0].ctx
    found = []
    mult_total = 0
    for d in range(1, min(ext_cap, max(deg, 1)) + 1):
        if mult_total >= deg:
            break
        ext = field(base.p, base.degree * d)
        lifted = [embed(c, ext) for c in coeffs]
        proper = [dd for dd in _divisors(d) if dd < d]
        for x, mult in _roots_in_field(lifted, ext):
            minimal = True
            for dd in proper:
                frob = x
                for _ in range(base.degree * dd):
                    frob = frob ** base.p
                if frob == x:
                    minimal = False
                    break
            if not minimal:
                continue
            found.append((x, mult))
            mult_total += mult
    partial = mult_total < deg
    return RootSearch(roots=found, partial=partial)
