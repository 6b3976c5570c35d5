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

One ``findall`` splits an expression into tokens, plain strings without
positions; a ParseError still names the position of its token, which is
recovered from the token's index only when the error is raised.

Field specs are "p" or "p^k", e.g. "3", "2^1", "3^2".
"""

from __future__ import annotations

import re

from .fields import field
from .laurent import LaurentPolynomial

EXPONENT_CAP = 10 ** 6

# a token is an integer, a name or an operator; any other non-space
# character, which _BAD finds first, would be a token no rule accepts
_TOKEN = re.compile(r"\d+|t1|t2|g|[-+*^]|\S")
# where such a character stands: not a digit, an operator or g, and no t
# that starts t1 or t2
_BAD = re.compile(r"[^\s\d+\-*^gt]|t(?![12])")
_NAMES = frozenset(("t1", "t2", "g"))
_END = ""       # closes the token list; no token is empty


class ParseError(ValueError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class _TokenError(Exception):
    """(message, token index) of a parse error; ``parse_polynomial``
    recovers the token's position in the text from the index."""


def parse_field(spec):
    m = re.fullmatch(r"\s*(\d+)\s*(?:\^\s*(\d+))?\s*", spec)
    if not m:
        raise ParseError(f"field spec {spec!r} is not of the form p or p^k", 0)
    p = int(m.group(1))
    k = int(m.group(2)) if m.group(2) else 1
    return field(p, k)


def _position(text, index):
    """Where the token with the given index starts; the closing token
    stands at the length of the text."""
    for i, match in enumerate(_TOKEN.finditer(text)):
        if i == index:
            return match.start()
    return len(text)


def _unexpected(wanted, tokens, index):
    value = tokens[index]
    got = "the end of input" if value == _END else repr(value)
    return _TokenError(f"expected {wanted}, got {got}", index)


def parse_polynomial(text, ctx):
    """Parse an expression into a LaurentPolynomial over the context.

    The text is split into tokens by one ``findall``, after one search
    for a character that no token rule accepts, which is the error when
    there is one.  Tokens are plain strings: the position of a token in
    the text is recovered only for the error it raises."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}",
                         bad.start())
    tokens = _TOKEN.findall(text)
    tokens.append(_END)
    try:
        return _parse(tokens, ctx)
    except _TokenError as err:
        message, index = err.args
        raise ParseError(message, _position(text, index)) from None


def _parse(tokens, ctx):
    """The polynomial of a token list.  Like terms add up in one dict as
    they are read: a zero term adds no key and a sum that cancels deletes
    its key."""
    terms = {}
    i = 0
    while True:
        negate = tokens[i] == "-"
        if negate or tokens[i] == "+":      # required between terms, below
            i += 1
        coeff, m, n = ctx.one(), 0, 0
        while True:                         # one factor, then "*" or stop
            at = i
            value = tokens[i]
            i += 1
            if value in _NAMES:
                exponent = 1
                if tokens[i] == "^":
                    exponent, i = _exponent(tokens, i + 1)
                if value == "t1":
                    m += exponent
                elif value == "t2":
                    n += exponent
                elif ctx.degree == 1:
                    raise _TokenError("generator g is not available over a "
                                      "prime field", at)
                else:
                    coeff = coeff * ctx.gen() ** exponent
                if abs(m) > EXPONENT_CAP or abs(n) > EXPONENT_CAP:
                    total = m if value == "t1" else n
                    raise _TokenError(f"the {value} exponents of a term add "
                                      f"up to {total}, beyond the cap "
                                      f"{EXPONENT_CAP}", at)
            elif value.isdecimal():
                coeff = coeff * ctx.element(int(value))
            else:
                raise _unexpected("a factor", tokens, at)
            if tokens[i] != "*":
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
        if tokens[i] == _END:
            return LaurentPolynomial(ctx, terms)
        if tokens[i] not in ("+", "-"):
            raise _unexpected("*, + or - after a factor", tokens, i)


def _exponent(tokens, i):
    """The signed integer exponent that starts at tokens[i], and the index
    after it."""
    sign = 1
    if tokens[i] in ("+", "-"):
        sign = -1 if tokens[i] == "-" else 1
        i += 1
    value = tokens[i]
    if not value.isdecimal():
        raise _unexpected("an integer exponent", tokens, i)
    number = int(value)
    if number > EXPONENT_CAP:
        raise _TokenError(f"exponent {number} exceeds the cap "
                          f"{EXPONENT_CAP}", i)
    return sign * number, i + 1


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
