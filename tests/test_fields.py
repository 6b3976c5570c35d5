import itertools
import random

import pytest

from wildram import fields
from wildram.fields import (_EXHAUSTIVE_LIMIT, ContextMismatchError,
                            FieldContext, FieldElement, _is_irreducible,
                            _roots_in_field, _trim, embed, field, find_roots,
                            join_context, minimal_form, poly_eval,
                            subfield_preimage)


def test_char2_addition():
    f2 = field(2)
    assert f2.one() + f2.one() == f2.zero()


def test_f4_generator_product():
    # with the canonical modulus x^2 + x + 1, g * (g + 1) = g^2 + g = 1
    f4 = field(2, 2)
    g = f4.gen()
    assert g * (g + f4.one()) == f4.one()


def test_f5_inverse():
    f5 = field(5)
    assert f5.element(2).inverse() == f5.element(3)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field(3).zero().inverse()


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatchError):
        field(2).one() + field(3).one()
    with pytest.raises(ContextMismatchError):
        field(2).one() + field(2, 2).one()


def test_modulus_is_deterministic_least():
    assert field(2, 2).modulus == (1, 1, 1)      # x^2 + x + 1
    assert field(3, 2).modulus == (1, 0, 1)      # x^2 + 1
    assert field(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldContext(2, 2, modulus=(0, 0, 1))    # x^2 = x * x
    with pytest.raises(ValueError):
        FieldContext(4, 1)                        # 4 is not prime


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (5, 1), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    ctx = field(p, k)
    elems = list(ctx.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
        if b:
            assert (a * b) / b == a
    for a in elems:
        assert a + ctx.zero() == a
        assert a * ctx.one() == a
        assert a + (-a) == ctx.zero()
    # spot-check associativity and distributivity on triples
    for a, b, c in itertools.islice(itertools.product(elems, repeat=3), 600):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 4), (5, 1),
                                 (5, 2), (2, 6), (3, 4)])
def test_pth_root_is_frobenius_inverse(p, k):
    # exhaustive for every field of order <= 81 in the list and beyond
    ctx = field(p, k)
    for a in ctx.elements():
        assert a.pth_root() ** p == a
        assert (a ** p).pth_root() == a


def test_pth_root_examples():
    f4 = field(2, 2)
    g = f4.gen()
    assert f4.one().pth_root() == f4.one()
    assert g.pth_root() == g + f4.one()          # (g+1)^2 = g
    f3 = field(3)
    assert f3.element(2).pth_root() == f3.element(2)   # 2^3 = 8 = 2 mod 3


def test_embed_fixes_prime_field():
    assert embed(field(2).one(), field(2, 4)) == field(2, 4).one()
    three = field(3)
    assert embed(three.element(2), field(3, 2)) == field(3, 2).element(2)


def test_embed_is_multiplicative_and_injective():
    src, dst = field(2, 2), field(2, 4)
    images = set()
    for a in src.elements():
        images.add(embed(a, dst))
        for b in src.elements():
            assert embed(a * b, dst) == embed(a, dst) * embed(b, dst)
            assert embed(a + b, dst) == embed(a, dst) + embed(b, dst)
    assert len(images) == src.order


@pytest.mark.parametrize("src, dst", [((2, 2), (2, 4)), ((2, 3), (2, 6)),
                                      ((3, 2), (3, 4)), ((3, 1), (3, 3))])
def test_embed_by_table_lookup_matches_evaluation(src, dst):
    # oracle: the coefficient polynomial evaluated at the generator image
    src, dst = field(*src), field(*dst)
    img = fields._generator_image(src, dst)
    for a in src.elements():
        assert a._log is not None
        expected = dst.zero()
        for c in reversed(a.coeffs):
            expected = expected * img + dst.element(c)
        got = embed(a, dst)
        assert got == expected and got is expected


def test_embed_requires_divisible_degree():
    with pytest.raises(ContextMismatchError):
        embed(field(2, 2).gen(), field(2, 3))


def test_join_context():
    assert join_context(field(2, 2), field(2, 3)) == field(2, 6)
    assert join_context(field(3, 1), field(3, 2)) == field(3, 2)


def test_subfield_preimage_round_trip():
    small, big = field(3, 1), field(3, 2)
    for a in small.elements():
        assert subfield_preimage(embed(a, big), small) == a
    # an element outside the prime field has no preimage there
    assert subfield_preimage(big.gen(), small) is None


def test_minimal_form():
    big = field(2, 4)
    one = big.one()
    assert minimal_form(one).ctx == field(2, 1)
    g4 = embed(field(2, 2).gen(), big)
    assert minimal_form(g4).ctx == field(2, 2)
    assert minimal_form(big.gen()).ctx == big


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_find_roots_split_quadratic():
    f2 = field(2)
    # v^2 + v = v(v + 1)
    coeffs = [f2.zero(), f2.one(), f2.one()]
    search = find_roots(coeffs)
    assert [r.encoding() for r in search.roots] == [0, 1]
    assert not search.partial


def test_find_roots_extension_only():
    f3 = field(3)
    coeffs = [f3.one(), f3.zero(), f3.one()]     # v^2 + 1
    search = find_roots(coeffs)
    assert len(search.roots) == 2
    assert all(r.ctx == field(3, 2) for r in search.roots)
    assert not search.partial


def test_find_roots_linear():
    f5 = field(5)
    search = find_roots([f5.element(-2), f5.one()])   # v - 2
    assert [r.encoding() for r in search.roots] == [2]


def test_find_roots_multiplicity():
    f3 = field(3)
    # (v - 1)^2 = v^2 - 2v + 1 = v^2 + v + 1: the double root is listed
    # once
    coeffs = [f3.one(), f3.one(), f3.one()]
    search = find_roots(coeffs)
    assert [r.encoding() for r in search.roots] == [1]


def test_find_roots_partial_flag():
    f2 = field(2)
    # x^3 + x + 1 is irreducible: all three roots lie in F_8, with no cap
    # on the extension degree, and the search is never partial
    coeffs = [f2.one(), f2.one(), f2.zero(), f2.one()]
    search = find_roots(coeffs)
    assert not search.partial
    assert [r.ctx for r in search.roots] == [field(2, 3)] * 3


def test_find_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        find_roots([field(2).zero()])


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_find_roots_against_exhaustive_evaluation(p, k):
    # oracle: direct evaluation over every element of every extension of
    # degree d <= deg, normalized to minimal fields; for these fields and
    # degrees every such extension has order <= 4096
    rng = random.Random(42)
    base = field(p, k)
    for _ in range(25):
        deg = rng.randint(1, 4)
        coeffs = [base.from_encoding(rng.randrange(base.order)) for _ in range(deg)]
        coeffs.append(base.from_encoding(rng.randrange(1, base.order)))
        search = find_roots(coeffs)
        got = {(minimal_form(r).ctx.degree, minimal_form(r).encoding())
               for r in search.roots}
        expected = set()
        for d in range(1, deg + 1):
            top = field(p, k * d)
            lifted = [embed(c, top) for c in coeffs]
            for x in top.elements():
                if not poly_eval(lifted, x):
                    mf = minimal_form(x)
                    expected.add((mf.ctx.degree, mf.encoding()))
        assert got == expected


def _minimal_polynomial(a, base):
    """The minimal polynomial of a over base (low degree first), and the
    conjugates of a under x -> x^q, for q the order of base."""
    conjugates = [a]
    while conjugates[-1] ** base.order != a:
        conjugates.append(conjugates[-1] ** base.order)
    poly = [a.ctx.one()]
    for c in conjugates:
        poly = fields._fmul(poly, [-c, a.ctx.one()], a.ctx)
    return [subfield_preimage(c, base) for c in poly], conjugates


@pytest.mark.parametrize("p,k,top", [(2, 1, 8), (3, 1, 6), (2, 2, 6)])
def test_find_roots_on_products_of_minimal_polynomials(p, k, top):
    # f is a product of minimal polynomials of random elements of degree
    # <= top over F_q, with multiplicities; the expected roots are their
    # conjugates, each once and in F_{q^d} for its degree d, listed by
    # degree, then by encoding.  Every multiplicity of the last trial is
    # p, so there f is a p-th power and f' = 0.
    rng = random.Random(5)
    base = field(p, k)
    for trial in range(12):
        f = [base.one()]
        expected = set()
        for _ in range(rng.randint(1, 3)):
            big = field(p, k * rng.randint(1, top))
            a = big.from_encoding(rng.randrange(big.order))
            mult = p if trial == 11 else rng.choice([1, 1, 2, p])
            minimal, conjugates = _minimal_polynomial(a, base)
            for _ in range(mult):
                f = fields._fmul(f, minimal, base)
            own = field(p, k * len(conjugates))
            for c in conjugates:
                root = subfield_preimage(c, own)
                expected.add((len(conjugates), root.encoding()))
        if trial == 11:
            assert all(not (c * i) for i, c in enumerate(f))
        got = [(r.ctx.degree // k, r.encoding()) for r in find_roots(f).roots]
        assert got == sorted(expected)


def test_roots_in_field_large_field_path():
    # exercises the gcd/equal-degree-splitting branch (order > 4096)
    ctx = field(5, 6)
    a = ctx.from_encoding(12345 % ctx.order)
    b = ctx.from_encoding(6789 % ctx.order)
    # (x - a)(x - b)
    coeffs = [a * b, -(a + b), ctx.one()]
    roots = _roots_in_field(coeffs, ctx)
    assert [r.encoding() for r in roots] == sorted(
        {a.encoding(), b.encoding()})


def test_roots_in_field_large_field_path_char_2():
    # over F_2^13 (order > 4096) the equal-degree split takes the trace
    # branch of characteristic 2
    ctx = field(2, 13)
    a, b, c = (ctx.from_encoding(e) for e in (1234, 4321, 7777))
    # (x - a)(x - b)(x - c)
    coeffs = [-(a * b * c), a * b + a * c + b * c, -(a + b + c), ctx.one()]
    roots = _roots_in_field(coeffs, ctx)
    assert [r.encoding() for r in roots] == [1234, 4321, 7777]


def test_roots_above_the_cap_split_one_per_orbit():
    # over F_3^8 (order > 4096) a polynomial with coefficients in F_9 has
    # its roots in orbits under x -> x^9: splitting off one root per orbit
    # and adding its conjugates gives the list of splitting every root,
    # whose orbits are single roots
    base, ctx = field(3, 2), field(3, 8)
    rng = random.Random(9)
    f = [base.one()]
    for mult in (1, 2, 1):
        a = ctx.from_encoding(rng.randrange(ctx.order))
        minimal, _ = _minimal_polynomial(a, base)
        for _ in range(mult):
            f = fields._fmul(f, minimal, base)
    coeffs = [embed(c, ctx) for c in f]
    by_orbit = _roots_in_field(coeffs, ctx, base.order)
    assert by_orbit == _roots_in_field(coeffs, ctx)
    assert len(set(by_orbit)) == len(by_orbit) == 12
    assert all(not poly_eval(coeffs, r) for r in by_orbit)


TABLE_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13)
                for k in range(1, 13) if p ** k <= _EXHAUSTIVE_LIMIT]


def _ref_mul(a, b, p):
    """Schoolbook product of coefficient tuples mod p (not trimmed)."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _ref_rem(a, b, p):
    """Remainder of long division of a by a nonzero coefficient tuple b
    mod p, trimmed."""
    a, b = list(a), list(_trim(b))
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i] * inv_lead % p
        for j, bj in enumerate(b):
            a[i - len(b) + 1 + j] = (a[i - len(b) + 1 + j] - c * bj) % p
    return _trim(a[:len(b) - 1])


def _oracle(ctx):
    """A reference for the arithmetic of coefficient tuples, independent of
    the field module: sum and difference componentwise mod p, product as
    a schoolbook product followed by long division by the modulus, and
    Frobenius as p - 1 such products, padded to the degree."""
    p, k = ctx.p, ctx.degree

    def pad(coeffs):
        return tuple(coeffs) + (0,) * (k - len(coeffs))

    def add(a, b):
        return tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs))

    def sub(a, b):
        return tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs))

    def mul_coeffs(a, b):
        return pad(_ref_rem(_ref_mul(a, b, p), ctx.modulus, p))

    def mul(a, b):
        return mul_coeffs(a.coeffs, b.coeffs)

    def frobenius(a):
        out = a.coeffs
        for _ in range(p - 1):
            out = mul_coeffs(out, a.coeffs)
        return out

    return add, sub, mul, frobenius


def _operand_pairs(elems, ctx):
    """Every unordered pair up to order 256; above that, every element
    against four fixed ones."""
    if ctx.order <= 256:
        for i, a in enumerate(elems):
            for b in elems[i:]:
                yield a, b
        return
    fixed = [ctx.gen()] + [ctx.from_encoding(e % ctx.order)
                           for e in (ctx.order - 1, ctx.order // 3, 12345)]
    for a in elems:
        for b in fixed:
            yield a, b


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_tables_match_polynomial_arithmetic(p, k):
    # oracle: the dense polynomial arithmetic over F_p, for +, -, * (both
    # operand orders), unary -, ==, hash and bool on the operand pairs, and
    # every inverse, p-th power and p-th root
    ctx = field(p, k)
    add, sub, mul, frobenius = _oracle(ctx)
    zero = (0,) * k
    elems = list(ctx.elements())
    assert [a.coeffs for a in elems] == [
        tuple((e // p ** i) % p for i in range(k)) for e in range(ctx.order)]
    # every nonzero element has its own log in range(order - 1)
    assert sorted(a._log for a in elems if a) == list(range(ctx.order - 1))
    for a, b in _operand_pairs(elems, ctx):
        assert (a + b).coeffs == (b + a).coeffs == add(a, b)
        assert (a - b).coeffs == sub(a, b)
        assert (b - a).coeffs == sub(b, a)
        assert (a * b).coeffs == (b * a).coeffs == mul(a, b)
        assert (a == b) == (a.coeffs == b.coeffs)
    for a in elems:
        assert (-a).coeffs == sub(ctx.zero(), a)
        assert bool(a) == (a.coeffs != zero)
        assert hash(a) == hash(FieldElement(ctx, a.coeffs))
        assert a == FieldElement(ctx, a.coeffs)
        assert (a ** p).coeffs == frobenius(a)
        assert frobenius(a.pth_root()) == a.coeffs
        if a:
            assert mul(a, a.inverse()) == ctx.one().coeffs


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_elements_are_interned(p, k):
    ctx = field(p, k)
    for a in ctx.elements():
        enc = a.encoding()
        assert ctx.from_encoding(enc) is a
        assert ctx.element(a.coeffs) is a
        assert ctx.element(list(_trim(a.coeffs))) is a
    for c in range(-p, 2 * p):
        assert ctx.element(c) is ctx.element(c)
        assert ctx.element(c) is ctx.element(c + p) is ctx.element((c,))
    assert ctx.zero() is ctx.element(0) and ctx.one() is ctx.element(1)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 2), (5, 1), (7, 2),
                                 (2, 12), (2, 13)])
def test_directly_built_context_mixes_with_field(p, k):
    # a second context object for the same field keeps its own elements,
    # which compare, hash and compute like the canonical ones
    direct, canonical = FieldContext(p, k), field(p, k)
    assert direct is not canonical and direct == canonical
    rng = random.Random(p * 100 + k)
    encodings = [0, 1, direct.order - 1] + [rng.randrange(direct.order)
                                            for _ in range(20)]
    for e in encodings:
        a, a0 = direct.from_encoding(e), canonical.from_encoding(e)
        assert a == a0 and a0 == a and hash(a) == hash(a0)
        assert bool(a) == bool(a0)
        assert -a == -a0
        for f in encodings[:8]:
            b, b0 = direct.from_encoding(f), canonical.from_encoding(f)
            assert a + b0 == a0 + b == a0 + b0
            assert a - b0 == a0 - b == a0 - b0
            assert a * b0 == b0 * a == a0 * b0
            if f:
                assert a / b0 == a0 / b == a0 / b0


def test_field_above_the_cap_keeps_the_polynomial_path():
    ctx = field(2, 13)
    assert ctx.order > _EXHAUSTIVE_LIMIT and ctx._tables() is None
    add, sub, mul, frobenius = _oracle(ctx)
    rng = random.Random(13)
    elems = [ctx.zero(), ctx.one(), ctx.gen()] + [
        ctx.from_encoding(rng.randrange(ctx.order)) for _ in range(40)]
    assert all(a._log is None for a in elems)
    for a in elems:
        for b in elems[:10]:
            assert (a + b).coeffs == add(a, b)
            assert (a - b).coeffs == sub(a, b)
            assert (a * b).coeffs == mul(a, b)
        assert (-a).coeffs == sub(ctx.zero(), a)
        assert bool(a) == any(a.coeffs)
        assert (a ** 2).coeffs == frobenius(a)
        assert frobenius(a.pth_root()) == a.coeffs
        if a:
            assert mul(a, a.inverse()) == ctx.one().coeffs


def _monic(p, degree):
    for enc in range(p ** degree):
        yield tuple((enc // p ** i) % p for i in range(degree)) + (1,)


@pytest.mark.parametrize("p,top", [(2, 6), (3, 4), (5, 3)])
def test_rabin_matches_trial_division(p, top):
    # oracle: a monic polynomial of degree n >= 1 is irreducible exactly
    # when no monic polynomial of degree 1 .. n // 2 divides it; the
    # degrees cover squares of irreducible factors, two factors of degree
    # n / 2 and, from degree 5 on, factors of degrees 2 and 3
    for degree in range(top + 1):
        for poly in _monic(p, degree):
            irreducible = degree >= 1 and all(
                _ref_rem(poly, d, p) for e in range(1, degree // 2 + 1)
                for d in _monic(p, e))
            assert _is_irreducible(poly, p) == irreducible, poly
            if degree >= 1 and not irreducible:
                with pytest.raises(ValueError):
                    FieldContext(p, degree, modulus=poly)


def test_canonical_context_skips_the_repeated_rabin_test(monkeypatch):
    # the default modulus comes from _least_irreducible, which has already
    # found it irreducible by the same test
    fields._least_irreducible(2, 8)
    calls = []
    original = fields._is_irreducible

    def counted(poly, p):
        calls.append(poly)
        return original(poly, p)

    monkeypatch.setattr(fields, "_is_irreducible", counted)
    assert FieldContext(2, 8) == field(2, 8)
    assert calls == []
    FieldContext(2, 8, modulus=field(2, 8).modulus)
    assert len(calls) == 1


# the encoding of the non-leading coefficients of field(p, k).modulus for
# every p^k <= 2^16 over p in {2, 3, 5, 7}: a rewrite of the modulus
# search must not rename any of these fields
CANONICAL_MODULI = {
    2: [0, 3, 3, 3, 5, 3, 3, 27, 3, 9, 5, 9, 27, 33, 3, 43],
    3: [0, 1, 7, 5, 7, 5, 11, 11, 64, 19],
    5: [0, 2, 6, 2, 21, 7],
    7: [0, 1, 2, 8, 10],
}


def test_canonical_moduli_are_pinned():
    got = {p: [fields._encode(field(p, k).modulus[:-1], p)
               for k in range(1, len(encodings) + 1)]
           for p, encodings in CANONICAL_MODULI.items()}
    assert got == CANONICAL_MODULI
    assert all(p ** len(encodings) <= 2 ** 16 < p ** (len(encodings) + 1)
               for p, encodings in CANONICAL_MODULI.items())


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 2), (5, 1), (2, 13)])
def test_context_with_the_canonical_modulus_hashes_like_field(p, k):
    # the kept hash is taken from the reduced modulus, so a context built
    # from the canonical modulus in any form is the same dict key
    canonical = field(p, k)
    direct = FieldContext(p, k, modulus=[c + p for c in canonical.modulus])
    assert direct is not canonical
    assert direct == canonical and hash(direct) == hash(canonical)
    assert {canonical: "found"}[direct] == "found"


def test_tables_with_a_non_primitive_generator():
    # modulus x^2 + 1 over F_3: x has order 4, so the tables rest on
    # another primitive element w; every log must give back its element as
    # w^log, with powers taken by the reference product
    ctx = FieldContext(3, 2, modulus=(1, 0, 1))
    _, _, mul, _ = _oracle(ctx)
    x = ctx.gen()
    assert mul(x, x) == (2, 0) and x._log % 2 == 0
    w = ctx._exp[1]
    powers = [ctx.one().coeffs]
    for _ in range(ctx.order - 2):
        powers.append(mul(FieldElement(ctx, powers[-1]), w))
    assert len(set(powers)) == ctx.order - 1
    for a in ctx.elements():
        if a:
            assert powers[a._log] == a.coeffs
