import ast
import copy
import itertools
import os
import pathlib
import pickle
import random
import subprocess
import sys
import time

import pytest

from wildram import fields
from wildram.fields import (_EXHAUSTIVE_LIMIT, ContextMismatchError,
                            FieldContext, FieldElement, _is_irreducible,
                            _roots_in_field, embed, field, find_roots,
                            join_context, minimal_form, poly_eval,
                            subfield_preimage)
from wildram.laurent import LaurentPolynomial, translate

SRC = pathlib.Path(fields.__file__).parents[1]


def _trim(coeffs):
    """A coefficient tuple without its trailing zeros."""
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _run_python(code, *args):
    """stdout of `code` run in a fresh interpreter that imports wildram
    from this checkout, as bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [path for path in [env.get("PYTHONPATH")] if path])
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, check=True).stdout


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
        FieldContext(4, 1)                        # 4 is not prime


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_agrees_with_trial_division_below_10_5():
    assert [n for n in range(10 ** 5) if fields._is_prime(n)] == [
        n for n in range(10 ** 5) if _is_prime_by_trial_division(n)]


def test_a_61_bit_characteristic_is_accepted_at_once():
    p = 2 ** 61 - 1
    start = time.perf_counter()
    assert field(p).p == p
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [
    3215031751,                   # strong pseudoprime to 2, 3, 5 and 7
    318665857834031151167461,     # psi_12: to every prime up to 37
])
def test_strong_pseudoprimes_are_refused(n):
    with pytest.raises(ValueError, match=f"^characteristic {n} is not prime$"):
        field(n)


def test_a_characteristic_past_the_exact_bound_is_refused():
    # psi_13, the first strong pseudoprime to the 13 bases, and a prime
    # above it: neither can be decided by the test, so both are refused
    for n in (fields._PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"^characteristic {n} is not "
                                             f"below {fields._PRIME_BOUND}"):
            field(n)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_of_p_is_field_of_p_and_1(p):
    assert field(p) is field(p, 1)
    assert field(p, degree=1) is field(p)


def test_a_report_builds_each_context_once():
    # a fresh interpreter, so that no earlier call has filled the cache:
    # every context that a report over F_5 asks for is built once, F_5
    # itself too, which the search for the modulus of F_25 asks for as
    # field(5); F_25 holds the off-origin zeros, the roots of v^2 + 2 in
    # the leading column (v^2 + 2)^5 of chart A
    counts = _run_python("""
import collections, contextlib, io
from wildram import fields
from wildram.cli import main
builds = collections.Counter()
real = fields.FieldContext.__init__
def counted(self, p, degree):
    builds[p, degree] += 1
    real(self, p, degree)
fields.FieldContext.__init__ = counted
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["report", "2*t1^-1 + t1^-11*t2^10", "--field", "5"]) == 0
print(dict(builds))
""")
    builds = ast.literal_eval(counts.decode())
    assert builds == {(5, 1): 1, (5, 2): 1}, builds


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 2), (2, 13)])
def test_copies_and_pickles_give_back_the_one_context(p, k):
    ctx = field(p, k)
    a = ctx.from_encoding(ctx.order - 1)
    f = LaurentPolynomial(ctx, {(-2, 1): a, (0, -1): ctx.one()})
    assert copy.copy(ctx) is copy.deepcopy(ctx) is ctx
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(ctx, protocol)) is ctx
    for x in (a, f):
        copies = [copy.copy(x), copy.deepcopy(x)] + [
            pickle.loads(pickle.dumps(x, protocol))
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for copied in copies:
            assert copied.ctx is ctx and copied == x and x == copied


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 13)])
def test_a_pickle_from_another_process_hashes_like_its_value(p, k):
    # an element, a polynomial and its translate (which has a
    # denominator), hashed before they are pickled in a fresh interpreter,
    # so that each pickle carries its kept hash: that hash must be the one
    # an equal value has in this process
    make = """
from wildram.fields import field
from wildram.laurent import LaurentPolynomial, translate
def values(p, k):
    ctx = field(p, k)
    a = ctx.from_encoding(ctx.order - 1)
    f = LaurentPolynomial(ctx, {(-2, 1): a, (0, -1): ctx.one()})
    return ctx, (a, f, translate(f, a))
"""
    dumped = _run_python(make + """
import pickle, sys
_, kept = values(*map(int, sys.argv[1:]))
[hash(x) for x in kept]
sys.stdout.buffer.write(pickle.dumps(kept, 2))
""", str(p), str(k))
    scope = {}
    exec(make, scope)
    ctx, here = scope["values"](p, k)
    assert here[2].denominator is not None
    for loaded, value in zip(pickle.loads(dumped), here):
        assert loaded.ctx is ctx and loaded == value
        assert hash(loaded) == hash(value) and {value: 1}[loaded] == 1


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 2), (5, 1), (7, 2),
                                 (2, 12), (2, 13)])
def test_a_directly_built_context_does_not_mix_with_field(p, k):
    # field(p, k) is the one context of its field: a second context object
    # for the same (p, k) is another field, whose elements and polynomials
    # never combine with the canonical ones
    direct, canonical = FieldContext(p, k), field(p, k)
    assert direct is not canonical and direct != canonical
    a, b = direct.one(), canonical.one()
    assert a != b and b != a
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x / y):
        with pytest.raises(ContextMismatchError):
            op(a, b)
        with pytest.raises(ContextMismatchError):
            op(b, a)
    # no two terms meet, so only the polynomial's own check can raise
    f = LaurentPolynomial.monomial(a, -1, 1)
    g = LaurentPolynomial.monomial(b, -2, 1)
    assert LaurentPolynomial.zero(direct) != LaurentPolynomial.zero(canonical)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(ContextMismatchError):
            op(f, g)
    with pytest.raises(ContextMismatchError):
        LaurentPolynomial(canonical, {(-1, 1): a})
    with pytest.raises(ContextMismatchError, match="shift from"):
        translate(g, a)


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
    # embed evaluates the coefficient polynomial at the generator image;
    # oracle: between tabulated fields the embedding is a group map, so
    # the image of w^i is the image of w to the i-th power, one lookup by
    # logs.  Every image is the target's interned element.
    src, dst = field(*src), field(*dst)
    primitive = next(a for a in src.elements() if a._log == 1)
    image_log = embed(primitive, dst)._log
    for a in src.elements():
        got = embed(a, dst)
        assert got is dst.from_encoding(got.encoding())
        if a:
            assert got is dst._exp[a._log * image_log % (dst.order - 1)]
        else:
            assert not got


def test_embed_requires_divisible_degree():
    with pytest.raises(ContextMismatchError):
        embed(field(2, 2).gen(), field(2, 3))


def test_join_context():
    assert join_context(field(2, 2), field(2, 3)) is field(2, 6)
    assert join_context(field(3, 1), field(3, 2)) is field(3, 2)
    assert join_context(field(3, 2), field(3)) is field(3, 2)
    assert join_context(field(2, 4), field(2, 2)) is field(2, 4)
    with pytest.raises(ContextMismatchError):
        join_context(field(2), field(3))


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


def _pull_back_sample(p, k):
    """Every nonzero element of a tabulated F_{p^k}; for F_2^26, a seeded
    sample of random elements and of elements of its subfields F_2^13,
    F_4 and F_2, reached by norms rather than by embed."""
    ctx = field(p, k)
    if ctx.order <= _EXHAUSTIVE_LIMIT:
        return list(ctx.elements())[1:]
    rng = random.Random(26)
    sample = [ctx.from_encoding(rng.randrange(1, ctx.order))
              for _ in range(8)]
    for d in (13, 2):
        # x -> x^((p^k - 1) / (p^d - 1)) maps onto the nonzero elements
        # of F_{p^d}
        sample += [x ** ((ctx.order - 1) // (p ** d - 1)) for x in sample[:4]]
    return sample + [ctx.one()]


@pytest.mark.parametrize("p, k", [(2, 12), (3, 4), (5, 2), (2, 26)])
def test_pull_back_against_frobenius_powers(p, k):
    # oracle: a lies in F_{p^d} exactly when a^(p^d) = a, computed by **
    # alone; the pull-back is certified by embedding it back.  F_2^26 is
    # untabulated, and its pull-backs into F_2^13 run the equal-degree
    # split.
    ctx = field(p, k)
    subs = [field(p, d) for d in range(1, k + 1) if k % d == 0]
    fields_seen = set()
    for a in _pull_back_sample(p, k):
        d, power = 1, a ** p
        while power != a:
            d, power = d + 1, power ** p
        form = minimal_form(a)
        assert form.ctx is field(p, d)
        assert embed(form, ctx) == a
        fields_seen.add(d)
        for sub in subs:
            pre = subfield_preimage(a, sub)
            assert (pre is None) == (a ** sub.order != a)
            if pre is not None:
                assert pre.ctx is sub and embed(pre, ctx) == a
    assert fields_seen == {d for d in range(1, k + 1) if k % d == 0}


@pytest.mark.parametrize("p, k, exponent", [(2, 4, 0), (2, 4, 5), (3, 4, 10),
                                             (2, 26, 2 ** 13 + 1)])
def test_a_pull_back_that_misses_its_root_raises(monkeypatch, p, k, exponent):
    # a root search that drops the right root makes the pull-back fail
    # loudly (a StopIteration would silently end a map over points); one
    # that lists every element as a root still gives the right element.
    # The powers of the generator lie in F_2, F_4, F_9 and F_2^13.
    a = field(p, k).gen() ** exponent
    expected = minimal_form(a)
    assert expected.ctx.degree < a.ctx.degree
    original = fields._roots_in_field

    def every_element(coeffs, ctx, q=None):
        return list(ctx.elements())[::-1]

    if expected.ctx.order <= _EXHAUSTIVE_LIMIT:
        monkeypatch.setattr(fields, "_roots_in_field", every_element)
        assert minimal_form(a) == expected

    def dropping(coeffs, ctx, q=None):
        return [r for r in original(coeffs, ctx, q) if embed(r, a.ctx) != a]

    monkeypatch.setattr(fields, "_roots_in_field", dropping)
    with pytest.raises(RuntimeError, match="minimal polynomial"):
        minimal_form(a)
    with pytest.raises(RuntimeError, match="minimal polynomial"):
        subfield_preimage(a, expected.ctx)


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


def _encoding_order_trace_split(part, ctx, shift):
    """One shift of the p = 2 equal-degree split as it was when the shifts
    ran in encoding order: the gcd of part with the trace of shift*X, or
    None when it is not a proper factor."""
    acc = fields._fdivmod([ctx.zero(), shift], part, ctx)[1]
    trace = acc
    for _ in range(ctx.degree - 1):
        acc = fields._fdivmod(fields._fmul(acc, acc, ctx), part, ctx)[1]
        trace = fields._fsub(trace, acc, ctx)
    g = fields._fgcd(trace, part, ctx)
    return g if 0 < fields.poly_degree(g) < fields.poly_degree(part) else None


def test_characteristic_two_split_tries_only_a_basis(monkeypatch):
    # X^2 + X + 1 over F_2^26: its roots are the primitive cube roots of
    # unity, in F_4 and not in F_2^13, so they are conjugate over F_2^13.
    # A shift s separates them iff Tr(s) = 1, and Tr(g^i) = 0 for every
    # i < 23, so the split must reach the basis element g^23
    ctx = field(2, 26)
    one = ctx.one()
    part = [one, one, one]
    tried = 0
    real_gcd = fields._fgcd

    def one_gcd_per_shift(a, b, c):
        # fail at once rather than run through the encodings below 2^23
        nonlocal tried
        tried += 1
        assert tried <= ctx.degree, "more shifts than a basis"
        return real_gcd(a, b, c)

    monkeypatch.setattr(fields, "_fgcd", one_gcd_per_shift)
    factors = fields._equal_degree_split(part, ctx)
    monkeypatch.undo()
    assert [fields.poly_degree(f) for f in factors] == [1, 1]
    assert fields._fmul(*factors, ctx) == part
    # the encoding-order loop fails on g^0, ..., g^22, and the shifts on
    # which it fails form an F_2-subspace (the trace is additive), so it
    # fails on all 2^23 - 1 nonzero encodings below 2^23, which it tries
    # first; the first fifteen are tried here as they come
    basis = [ctx.from_encoding(1 << i) for i in range(ctx.degree)]
    assert all(_encoding_order_trace_split(part, ctx, s) is None
               for s in basis[:23])
    assert _encoding_order_trace_split(part, ctx, basis[23]) is not None
    assert not any(_encoding_order_trace_split(part, ctx, s)
                   for s in itertools.islice(ctx.elements(), 1, 16))


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
    assert FieldContext(2, 8).modulus == field(2, 8).modulus
    assert calls == []


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


@pytest.mark.parametrize("p,k", [(2, 4), (3, 2), (5, 1), (2, 13)])
def test_an_element_keeps_its_hash_by_value(p, k):
    # the hash is computed once per element object and kept; it is that of
    # the value, so an interned element, which every lookup returns, and
    # an element above the table cap, built anew by every lookup, hash and
    # compare alike with any element of the same value
    ctx = field(p, k)
    interned = ctx.order <= _EXHAUSTIVE_LIMIT
    for enc in (0, 1, ctx.order // 3, ctx.order - 1):
        a, b = ctx.from_encoding(enc), ctx.from_encoding(enc)
        assert (a is b) == interned
        for x in (a, b):
            assert hash(x) == hash(x) == hash(x.coeffs)
        assert a == b and b == a and hash(a) == hash(b)
        assert {a: enc}[b] == enc and {b: enc}[a] == enc
        square = a * a
        assert hash(square) == hash(ctx.from_encoding(square.encoding()))


def test_tables_with_a_non_primitive_generator():
    # modulus x^2 + 1 over F_3: x has order 4, so the tables rest on
    # another primitive element w; every log must give back its element as
    # w^log, with powers taken by the reference product
    ctx = field(3, 2)
    assert ctx.modulus == (1, 0, 1)
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
