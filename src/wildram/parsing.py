"""Text forms: field specs and Laurent polynomial expressions.

Grammar for polynomial expressions (whitespace insensitive):

    expr   :=  [sign] term ( sign term )*
    term   :=  factor ( "*" factor )*
    factor :=  INT  |  "g" [ "^" sint ]  |  "t1" [ "^" sint ]  |  "t2" [ "^" sint ]
    sint   :=  [ sign ] INT
    sign   :=  "+"  |  "-"

A sign stands only before the first term, between terms or in an
exponent: an operator where a factor is due, as in "2*-t1", is an error.
Integer coefficients reduce mod p; "g" is the polynomial-basis generator
of the extension and is rejected over a prime field.  Exponents of t1 and
t2 within one term add up, so factor order is free.  Like terms combine
in the field.  Exponent magnitudes above 10**6 are refused, in one
exponent and in the sum of a term's exponents of t1 or of t2.

Field specs are "p" or "p^k", e.g. "3", "2^1", "3^2".
"""

from __future__ import annotations

import re

from .fields import field
from .laurent import LaurentPolynomial

EXPONENT_CAP = 10 ** 6

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>t1|t2|g)|(?P<op>[-+*^])|(?P<bad>\S))")


class ParseError(ValueError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


def parse_field(spec):
    m = re.fullmatch(r"\s*(\d+)\s*(?:\^\s*(\d+))?\s*", spec)
    if not m:
        raise ParseError(f"field spec {spec!r} is not of the form p or p^k", 0)
    p = int(m.group(1))
    k = int(m.group(2)) if m.group(2) else 1
    return field(p, k)


def _tokens(text):
    """(kind, value, position) triples, closed by an "end" token at the
    length of the text."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}",
                             m.start(kind))
        out.append((kind, m.group(kind), m.start(kind)))
    out.append(("end", "", len(text)))
    return out


def _unexpected(wanted, token):
    kind, value, pos = token
    got = "the end of input" if kind == "end" else repr(value)
    return ParseError(f"expected {wanted}, got {got}", pos)


def parse_polynomial(text, ctx):
    """Parse an expression into a LaurentPolynomial over the context.

    Like terms add up in one dict as they are read: a zero term adds no
    key and a sum that cancels deletes its key."""
    tokens = _tokens(text)
    terms = {}
    i = 0
    while True:
        negate = tokens[i][1] == "-"
        if tokens[i][1] in ("+", "-"):      # required between terms, below
            i += 1
        coeff, m, n = ctx.one(), 0, 0
        while True:                         # one factor, then "*" or stop
            token = tokens[i]
            kind, value, pos = token
            i += 1
            if kind == "int":
                coeff = coeff * ctx.element(int(value))
            elif kind == "name":
                exponent = 1
                if tokens[i][1] == "^":
                    exponent, i = _exponent(tokens, i + 1)
                if value == "t1":
                    m += exponent
                elif value == "t2":
                    n += exponent
                elif ctx.degree == 1:
                    raise ParseError("generator g is not available over a "
                                     "prime field", pos)
                else:
                    coeff = coeff * ctx.gen() ** exponent
                if abs(m) > EXPONENT_CAP or abs(n) > EXPONENT_CAP:
                    total = m if value == "t1" else n
                    raise ParseError(f"the {value} exponents of a term add up "
                                     f"to {total}, beyond the cap "
                                     f"{EXPONENT_CAP}", pos)
            else:
                raise _unexpected("a factor", token)
            if tokens[i][1] != "*":
                break
            i += 1
        if negate:
            coeff = -coeff
        if (m, n) in terms:
            coeff = terms[(m, n)] + coeff
        if coeff:
            terms[(m, n)] = coeff
        else:
            terms.pop((m, n), None)
        if tokens[i][0] == "end":
            return LaurentPolynomial(ctx, terms)
        if tokens[i][1] not in ("+", "-"):
            raise _unexpected("*, + or - after a factor", tokens[i])


def _exponent(tokens, i):
    """The signed integer exponent that starts at tokens[i], and the index
    after it."""
    sign = 1
    if tokens[i][1] in ("+", "-"):
        sign = -1 if tokens[i][1] == "-" else 1
        i += 1
    kind, value, pos = tokens[i]
    if kind != "int":
        raise _unexpected("an integer exponent", tokens[i])
    value = int(value)
    if value > EXPONENT_CAP:
        raise ParseError(f"exponent {value} exceeds the cap {EXPONENT_CAP}",
                         pos)
    return sign * value, i + 1


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def format_polynomial(poly):
    """Round-trippable text form.  Extension coefficients are split into
    their basis components, one printed term per component."""
    pieces = []
    for (m, n) in sorted(poly.terms, key=lambda e: (-e[0], -e[1])):
        c = poly.terms[(m, n)]
        for i in range(poly.ctx.degree - 1, -1, -1):
            if c.coeffs[i] == 0:
                continue
            factors = []
            if c.coeffs[i] != 1:
                factors.append(str(c.coeffs[i]))
            if i == 1:
                factors.append("g")
            elif i > 1:
                factors.append(f"g^{i}")
            if m:
                factors.append("t1" if m == 1 else f"t1^{m}")
            if n:
                factors.append("t2" if n == 1 else f"t2^{n}")
            if not factors:
                factors.append("1")
            pieces.append("*".join(factors))
    return " + ".join(pieces) if pieces else "0"


def polynomial_as_triples(poly):
    """Sorted (m, n, coefficient-vector) triples for JSON reports."""
    return [[m, n, list(poly.terms[(m, n)].coeffs)]
            for (m, n) in sorted(poly.terms)]
