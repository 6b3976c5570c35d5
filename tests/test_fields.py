import itertools

import pytest

from wildram.fields import (_EXHAUSTIVE_LIMIT, ContextMismatchError,
                            FieldContext, _pmod, _pmul, _ppowmod, _trim,
                            embed, field, find_roots, join_context,
                            minimal_form, poly_eval, roots_in_field,
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
    assert sorted(r.encoding() for r, _ in search.roots) == [0, 1]
    assert not search.partial


def test_find_roots_extension_only():
    f3 = field(3)
    coeffs = [f3.one(), f3.zero(), f3.one()]     # v^2 + 1
    search = find_roots(coeffs)
    assert len(search.roots) == 2
    assert all(r.ctx == field(3, 2) for r, _ in search.roots)
    assert not search.partial


def test_find_roots_linear():
    f5 = field(5)
    search = find_roots([f5.element(-2), f5.one()])   # v - 2
    assert [(r.encoding(), m) for r, m in search.roots] == [(2, 1)]


def test_find_roots_multiplicity():
    f3 = field(3)
    # (v - 1)^2 = v^2 - 2v + 1 = v^2 + v + 1
    coeffs = [f3.one(), f3.one(), f3.one()]
    search = find_roots(coeffs)
    assert [(r.encoding(), m) for r, m in search.roots] == [(1, 2)]


def test_find_roots_partial_flag():
    f2 = field(2)
    # x^3 + x + 1 is irreducible; with ext_cap 2 its roots are missed
    coeffs = [f2.one(), f2.one(), f2.zero(), f2.one()]
    search = find_roots(coeffs, ext_cap=2)
    assert search.partial and not search.roots
    search = find_roots(coeffs, ext_cap=3)
    assert not search.partial and len(search.roots) == 3


def test_find_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        find_roots([field(2).zero()])


@pytest.mark.parametrize("p,k,ext", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 1)])
def test_find_roots_against_exhaustive_evaluation(p, k, ext):
    # oracle: direct evaluation over every element of every extension with
    # p^(k*d) <= 4096, normalized to minimal fields
    import random
    rng = random.Random(42)
    base = field(p, k)
    for _ in range(25):
        deg = rng.randint(1, 4)
        coeffs = [base.from_encoding(rng.randrange(base.order)) for _ in range(deg)]
        coeffs.append(base.from_encoding(rng.randrange(1, base.order)))
        search = find_roots(coeffs, ext_cap=ext)
        got = {(minimal_form(r).ctx.degree, minimal_form(r).encoding())
               for r, _ in search.roots}
        expected = set()
        for d in range(1, ext + 1):
            top = field(p, k * d)
            lifted = [embed(c, top) for c in coeffs]
            for x in top.elements():
                if not poly_eval(lifted, x):
                    mf = minimal_form(x)
                    expected.add((mf.ctx.degree, mf.encoding()))
        assert got == expected


def test_roots_in_field_large_field_path():
    # exercises the gcd/equal-degree-splitting branch (order > 4096)
    ctx = field(5, 6)
    a = ctx.from_encoding(12345 % ctx.order)
    b = ctx.from_encoding(6789 % ctx.order)
    # (x - a)(x - b)
    coeffs = [a * b, -(a + b), ctx.one()]
    roots = roots_in_field(coeffs, ctx)
    assert sorted(r.encoding() for r, _ in roots) == sorted(
        {a.encoding(), b.encoding()})


TABLE_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13)
                for k in range(1, 13) if p ** k <= _EXHAUSTIVE_LIMIT]


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_tables_match_polynomial_arithmetic(p, k):
    # oracle: the dense product over F_p reduced by the modulus; every
    # unordered product pair up to order 256, every element against four
    # fixed factors above that, and every inverse, p-th power and p-th root
    ctx = field(p, k)

    def pad(coeffs):
        return coeffs + (0,) * (k - len(coeffs))

    def reference(a, b):
        return pad(_pmod(_pmul(_trim(a.coeffs), _trim(b.coeffs), p), ctx.modulus, p))

    def reference_frobenius(a):
        return pad(_ppowmod(_trim(a.coeffs), p, ctx.modulus, p))

    elems = list(ctx.elements())
    assert len(ctx._tables()[1]) == ctx.order - 1
    if ctx.order > 256:
        fixed = [ctx.gen()] + [ctx.from_encoding(e % ctx.order)
                               for e in (ctx.order - 1, ctx.order // 3, 12345)]
    for i, a in enumerate(elems):
        for b in elems[i:] if ctx.order <= 256 else fixed:
            assert (a * b).coeffs == reference(a, b)
        assert (a ** p).coeffs == reference_frobenius(a)
        assert reference_frobenius(a.pth_root()) == a.coeffs
        if a:
            assert reference(a, a.inverse()) == ctx.one().coeffs
