"""Field tower construction, arithmetic, discrete logs, embeddings.

The modulus values pinned here were computed with an independent sympy
brute-force search over ascending coefficient tuples before this library
existed; they freeze the lex-smallest-modulus convention.
"""

import math
import operator
import random
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singerlab.ffield as ffield
from singerlab.errors import CapacityExceeded, DivisionByZero, InvalidInput, NotInSubgroup
from singerlab.ffield import (
    DLOG_LIMIT,
    Field,
    _is_prime,
    discrete_log,
    element_order,
    factor_poly,
    factorint,
    field_ctx,
    find_irreducible,
    is_primitive,
    nth_roots,
    poly_eval,
    power,
    poly_gcd,
    poly_deg,
    poly_mod,
    poly_mul,
    poly_trim,
    prime_power,
    roots_in_extension,
)
from singerlab.matfq import Matrix, embed_matrix

F7 = Field(7)
F343 = Field(7, 3)


# -- moduli and construction -------------------------------------------------


@pytest.mark.parametrize(
    "p,m,modulus",
    [
        (7, 1, (0, 1)),
        (7, 2, (1, 0, 1)),
        (7, 3, (1, 0, 1, 1)),
        (5, 2, (1, 1, 1)),
        (3, 2, (1, 0, 1)),
        (2, 3, (1, 0, 1, 1)),
        (2, 4, (1, 0, 0, 1, 1)),
        (3, 6, (1, 0, 0, 0, 1, 1, 1)),
        # large characteristic: the scan skips the p^(m-1) candidates divisible by x
        (17, 4, (1, 0, 0, 3, 1)),
        (47, 3, (1, 0, 5, 1)),
        (5, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1)),
        (65537, 2, (1, 1, 1)),
        (2**31 - 1, 2, (1, 0, 1)),
    ],
)
def test_canonical_moduli(p, m, modulus):
    assert Field(p, m).modulus == modulus
    assert find_irreducible(p, m) == modulus


def test_modulus_is_irreducible():
    f = Field(3, 6)
    fac = factor_poly(Field(3), f.modulus)
    assert fac == [(f.modulus, 1)]


def test_composite_characteristic_rejected():
    with pytest.raises(InvalidInput):
        Field(6)


def test_extension_of_a_base_prime_past_two_to_the_63_is_refused():
    """Such a field's digits do not fit the int64 arrays Field builds; the
    prime field itself runs on Python ints."""
    p = 2**127 - 1
    with pytest.raises(InvalidInput, match="2\\^63"):
        Field(p, 2)
    assert Field(p).mul(p - 1, p - 1) == 1
    assert Field(2**61 - 1, 2).order == (2**61 - 1) ** 2


def test_quotient_ring_refuses_a_fold_matrix_past_its_budget():
    """x^4097 - 1 over F_2 would need a 4097 x 8193 fold matrix, past
    QUOTIENT_LIMIT entries; the refusal comes before any array is built."""
    F = Field(2)
    assert 4097 * 8193 > ffield.QUOTIENT_LIMIT >= 4096 * 8191
    with pytest.raises(CapacityExceeded, match="fold matrix"):
        ffield._QuotientRing(F, (1,) + (0,) * 4096 + (1,))


# -- base arithmetic ---------------------------------------------------------


def test_prime_field_inverse():
    assert F7.inv(6) == 6
    assert all(F7.mul(a, F7.inv(a)) == 1 for a in range(1, 7))
    with pytest.raises(DivisionByZero):
        F7.inv(0)


def test_extension_generator_and_order():
    assert F343.generator == 9
    assert element_order(F343, 9) == 342
    # primitive element count is euler_phi(342)
    assert sum(is_primitive(F343, x) for x in range(1, 343)) == 108


def test_frobenius_is_pth_power_automorphism():
    ctx = field_ctx(7, 1, 3)
    for x in range(0, 343, 17):
        assert ctx.frobenius(x, 1) == F343.pow(x, 7)
        assert ctx.frobenius(x, 3) == x


@pytest.mark.parametrize("p,f,d", [(3, 2, 4), (17, 1, 4), (47, 1, 3)], ids=["F_9^4", "F_17^4", "F_47^3"])
def test_tower_frobenius_matches_q_power(p, f, d):
    ctx = field_ctx(p, f, d)
    rng = random.Random(repr(("frobenius", p, f, d)))
    xs = [0, 1, ctx.ext.order - 1] + [rng.randrange(ctx.ext.order) for _ in range(20)]
    for e in range(-d, 2 * d):
        for x in xs:
            assert ctx.frobenius(x, e) == ctx.ext.pow(x, ctx.q ** (e % d))


@given(st.integers(0, 342), st.integers(0, 342), st.integers(0, 342))
def test_field_ring_axioms(a, b, c):
    F = F343
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.sub(a, b) == F.add(a, F.neg(b))


@given(st.integers(1, 342), st.integers(0, 400), st.integers(0, 400))
def test_pow_is_homomorphic_in_exponent(a, m, n):
    F = F343
    assert F.mul(F.pow(a, m), F.pow(a, n)) == F.pow(a, m + n)


@given(st.integers(0, 342))
def test_encode_decode_round_trip(x):
    assert F343.encode(F343.decode(x)) == x


# -- embeddings --------------------------------------------------------------


@pytest.mark.parametrize("p,f,d", [(3, 2, 2), (7, 2, 2), (2, 2, 3)])
def test_embedding_is_field_homomorphism(p, f, d):
    """Exhaustive check on every pair; q <= 49 keeps this immediate."""
    ctx = field_ctx(p, f, d)
    base, ext = ctx.base, ctx.ext
    codes = list(range(base.order))
    emb = [ctx.embed(a) for a in codes]
    assert emb[1] == 1 and emb[0] == 0
    for a in codes:
        assert ctx.unembed(emb[a]) == a
        for b in codes:
            assert ctx.embed(base.add(a, b)) == ext.add(emb[a], emb[b])
            assert ctx.embed(base.mul(a, b)) == ext.mul(emb[a], emb[b])


@pytest.mark.parametrize(
    "p,f,d", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 4, 2), (3, 2, 2), (3, 2, 4), (5, 2, 2), (7, 2, 2)]
)
def test_embedding_table_matches_full_factoring(p, f, d):
    """The generator of F_q goes to the root of its modulus with the smallest
    coefficient vector, taken here from a complete factorization over F_{q^d}."""
    ctx = field_ctx(p, f, d)
    ext = ctx.ext
    r = min((lam for lam, _ in _linear_roots(ext, ctx.base.modulus)), key=ext.decode)
    for code in range(ctx.q):
        want = reduce(ext.add, (ext.mul(c, ext.pow(r, i)) for i, c in enumerate(ctx.base.decode(code))), 0)
        assert ctx.embed(code) == want


def test_embedding_rejects_codes_outside_the_base_field():
    ctx = field_ctx(3, 2, 4)
    for bad in (-1, ctx.q, ctx.q + 5):
        with pytest.raises(InvalidInput):
            ctx.embed(bad)
        with pytest.raises(InvalidInput):
            embed_matrix(ctx, Matrix.from_rows(ctx.base, [[0, bad]]))
    assert embed_matrix(ctx, Matrix.from_rows(ctx.base, [[0, 1, ctx.q - 1]])).tolist() == [[0, 1, ctx.embed(ctx.q - 1)]]


def test_base_image_is_frobenius_fixed():
    ctx = field_ctx(3, 2, 2)
    fixed = [x for x in range(ctx.ext.order) if ctx.frobenius(x, 1) == x]
    image = [ctx.embed(c) for c in range(ctx.q)]
    assert sorted(fixed) == sorted(image)
    assert len(image) == ctx.q


# -- minimal polynomials and roots -------------------------------------------


def test_min_poly_of_primitive_element():
    ctx = field_ctx(7, 1, 3)
    w = ctx.ext.generator
    mp = ctx.min_poly_over_base(w)
    assert len(mp) == 4 and mp[-1] == 1
    assert poly_eval(ctx.ext, ctx.embed_poly(mp), w) == 0


def test_min_poly_of_base_element_is_linear():
    ctx = field_ctx(7, 1, 3)
    assert ctx.min_poly_over_base(ctx.embed(5)) == (2, 1)  # x - 5


def _linear_roots(F, g):
    """Roots of g in F itself, as (root, multiplicity), by factoring g completely over F."""
    return [(F.neg(h[0]), m) for h, m in factor_poly(F, g) if poly_deg(h) == 1]


def test_roots_of_defining_polynomial():
    """x^3 + x^2 + 1 splits in F_343 into the Frobenius orbit of x itself."""
    roots = _linear_roots(F343, F343.modulus)
    assert sorted(r for r, _ in roots) == [7, 165, 226]
    assert all(m == 1 for _, m in roots)


def test_factor_poly_recombines():
    F = Field(5)
    f = poly_mul(F, (1, 1), poly_mul(F, (1, 1), (2, 0, 1)))
    fac = factor_poly(F, f)
    assert ((1, 1), 2) in fac
    assert poly_gcd(F, f, (1, 1)) == (1, 1)


def _roots_by_full_factoring(ctx, g):
    """The earlier algorithm: factor each embedded base factor completely over F_{q^d}."""
    ext = ctx.ext
    out = []
    for f, mult in factor_poly(ctx.base, g):
        if ctx.d % poly_deg(f) == 0:
            lin = [(ext.neg(h[0]), m) for h, m in factor_poly(ext, ctx.embed_poly(f)) if poly_deg(h) == 1]
            out.extend((lam, mult * m) for lam, m in sorted(lin, key=lambda rm: ext.decode(rm[0])))
    return out


@pytest.mark.parametrize(
    "p,f,d",
    [(2, 1, 4), (2, 2, 3), (2, 3, 2), (7, 1, 3), (5, 1, 4), (17, 1, 2), (3, 2, 2), (3, 2, 4), (5, 2, 2)],
)
def test_roots_in_extension_match_full_factoring(p, f, d):
    """Same list, order included, on products of an irreducible of every
    degree e | d (some repeated), the factor x, a random minimal polynomial
    and a random polynomial, whose factors need not divide d in degree."""
    ctx = field_ctx(p, f, d)
    base, ext = ctx.base, ctx.ext
    n1 = ext.order - 1
    # the minimal polynomial of a generator of F_{q^e}^x is irreducible of degree e
    irreducibles = [
        ctx.min_poly_over_base(ext.pow(ext.generator, n1 // (ctx.q**e - 1))) for e in range(1, d + 1) if d % e == 0
    ]
    assert sorted(map(poly_deg, irreducibles)) == [e for e in range(1, d + 1) if d % e == 0]
    rng = random.Random(repr(("roots", p, f, d)))
    for _ in range(40):
        g = ctx.min_poly_over_base(rng.randrange(1, ext.order))
        for h in rng.sample(irreducibles, rng.randint(1, len(irreducibles))) + [(0, 1)] * rng.randint(0, 1):
            for _ in range(rng.randint(1, 3)):
                g = poly_mul(base, g, h)
        g = poly_mul(base, g, poly_trim([rng.randrange(base.order) for _ in range(4)]) or (1,))
        assert roots_in_extension(ctx, g) == _roots_by_full_factoring(ctx, g)


# -- discrete logarithms -----------------------------------------------------


def test_dlog_in_tabled_field():
    g = F343.generator
    assert discrete_log(F343, F343.pow(g, 147), g) == 147
    assert discrete_log(F343, 1, g) == 0


def test_dlog_large_prime_field():
    """Pohlig-Hellman path: 2^31 - 2 factors into small primes, no tables."""
    F = Field(2**31 - 1)
    g = F.generator
    for e in (12345, 2**30 + 17):
        assert discrete_log(F, F.pow(g, e), g) == e


def test_dlog_capacity_guard():
    F = Field(2**61 - 1)
    assert F.order > DLOG_LIMIT
    with pytest.raises(CapacityExceeded):
        discrete_log(F, 3, 2)


def test_dlog_target_outside_subgroup():
    # 6 has order 2 in F_7; 3 is not a power of it
    with pytest.raises(NotInSubgroup):
        discrete_log(F7, 3, 6)


@pytest.mark.parametrize("p,m", [(7, 2), (3, 4)])
def test_nth_roots_match_brute_force(p, m):
    """Every r in F_49 and F_81, zero included, for exponents sharing
    various factors with q - 1, including n = 0 and n = q - 1 (mod q - 1)."""
    F = Field(p, m)
    q1 = F.order - 1
    for n in (0, 1, 2, 3, 5, 8, q1, q1 + 4, 2 * q1 + 6):
        want = {r: [] for r in range(F.order)}
        for x in range(1, F.order):
            want[F.pow(x, n)].append(x)
        for r in range(F.order):
            got = nth_roots(F, n, r)
            assert len(got) == len(set(got))
            assert sorted(got) == want[r], (n, r)


@pytest.mark.parametrize("p,n", [(127, 128), (257, 258), (17, 96)])
def test_nth_roots_split_one_prime_at_a_time(p, n):
    """Untabled F_{p^4}, where n divides p^4 - 1: 128 = 2^7 with 2^9 in
    p^4 - 1, 258 = 2 * 3 * 43 with only the 2 short of its power there, and
    96 = 2^5 * 3 with both short. No split has degree above 3, and all n
    roots of a planted power come back sorted."""
    F = field_ctx(p, 1, 4).ext
    assert (F.order - 1) % n == 0
    rng = random.Random(p)
    for _ in range(3):
        x = rng.randrange(1, F.order)
        r = F.pow(x, n)
        got = nth_roots(F, n, r)
        assert x in got and len(set(got)) == n and got == sorted(got)
        assert all(F.pow(y, n) == r for y in got)


# -- integer factorization ---------------------------------------------------


def _trial_factor(n):
    out, r = {}, 2
    while r * r <= n:
        while n % r == 0:
            out[r] = out.get(r, 0) + 1
            n //= r
        r += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorint_matches_trial_division_below_20000():
    for n in range(1, 20000):
        want = _trial_factor(n)
        assert factorint(n) == want, n
        assert list(factorint(n)) == sorted(want), n
        assert _is_prime(n) == (want == {n: 1}), n
    assert not _is_prime(0) and not _is_prime(-7)
    with pytest.raises(InvalidInput):
        factorint(0)


M31, M61, M89, M127 = 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1


@pytest.mark.parametrize(
    "n,want",
    [
        (561, {3: 1, 11: 1, 17: 1}),  # Carmichael
        (3215031751, {151: 1, 751: 1, 28351: 1}),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),  # ... to bases 2 through 37
        (M31 * M61, {M31: 1, M61: 1}),  # above the Miller-Rabin bound: BPSW says composite
        # strong pseudoprime to bases 2 through 37, and a product of two ~39-bit primes for rho
        (318665857834031151167461, {399165290221: 1, 798330580441: 1}),
        (10007 * 10099, {10007: 1, 10099: 1}),  # both factors land in one rho batch
        (10007**2 * 10009, {10007: 2, 10009: 1}),
    ],
)
def test_factorint_of_pseudoprimes_and_rho_cases(n, want):
    assert not _is_prime(n)
    assert factorint(n) == want


@pytest.mark.parametrize("n", [M61, M89, M127])
def test_mersenne_primes(n):
    # 2^89 - 1 and 2^127 - 1 lie above 3.317e24, where the BPSW branch decides
    assert _is_prime(n)
    assert factorint(n) == {n: 1}
    assert not _is_prime(n * n)


@pytest.mark.parametrize(
    "q,d",
    [(2, 2), (2, 3), (4, 3), (3, 4), (3, 8), (5, 1), (5, 2), (5, 3), (7, 2), (7, 3), (7, 4),
     (7, 5), (9, 2), (9, 3), (9, 4), (17, 4), (2, 16), (2**31 - 1, 1), (2**61 - 1, 1)],
)
def test_factorint_of_tower_group_orders(q, d):
    fac = factorint(q**d - 1)
    assert all(_trial_factor(r) == {r: 1} for r in fac)
    assert math.prod(r**e for r, e in fac.items()) == q**d - 1


def test_factorint_and_is_prime_agree_with_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 2**64), st.integers(2**64, 2**128))
    def check(n, big):
        assert factorint(n) == sympy.factorint(n)
        assert _is_prime(big) == sympy.isprime(big)
        r = sympy.nextprime(big)
        assert _is_prime(r) and not _is_prime(r * sympy.nextprime(r))

    check()


# -- prime powers ----------------------------------------------------------------


@pytest.mark.parametrize(
    "q,want",
    [(2, (2, 1)), (9, (3, 2)), (81, (3, 4)), (3**40, (3, 40)), (2**64, (2, 64)), (M61**2, (M61, 2)),
     (M127**3, (M127, 3))],
)
def test_prime_power_returns_the_exact_tower(q, want):
    assert prime_power(q) == want


@pytest.mark.parametrize(
    "q", [0, 1, -7, 6, 12, M61 * M89, 10**400 + 267], ids=["0", "1", "-7", "6", "12", "M61*M89", "10^400+267"]
)
def test_prime_power_refuses_within_a_second(q):
    """Not prime powers. factorint spends more than 20 s on each of the
    last two; prime_power never factors."""
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match="not a prime power"):
        prime_power(q)
    assert time.perf_counter() - start < 1


# -- exp/log tables ------------------------------------------------------------


def _scalar_pow(F, a, e):
    acc = 1
    for bit in bin(e)[2:]:
        acc = F._polymul_code(acc, acc)
        if bit == "1":
            acc = F._polymul_code(acc, a)
    return acc


@pytest.mark.parametrize("p,m,gen", [(2, 2, 2), (3, 2, 4), (7, 3, 9), (3, 8, 4)])
def test_exp_table_matches_scalar_chain(p, m, gen):
    F = Field(p, m)
    assert F.generator == gen
    chain = [1]
    for _ in range(F.order - 2):
        chain.append(F._polymul_code(chain[-1], gen))
    assert F._exp == chain
    assert F._log == {c: i for i, c in enumerate(chain)}
    assert all(type(c) is int for c in F._exp)


def test_prime_field_generators():
    # 1 generates F_2^* = {1}; every larger prime field starts its search at 2
    assert [Field(p).generator for p in (2, 3, 5, 7, 17, 2**31 - 1)] == [1, 2, 2, 3, 3, 7]


def test_largest_tabled_field():
    F = Field(2, 16)
    assert F.order == ffield.TABLE_LIMIT and F.generator == 6
    assert all(F._log[F._exp[i]] == i for i in range(F.order - 1))
    rng = random.Random(0)
    for i in rng.sample(range(F.order - 1), 500):
        assert F._exp[i] == _scalar_pow(F, 6, i)


def test_untabled_inverse_builds_no_field(monkeypatch):
    F = Field(17, 4)
    assert F._exp is None
    F.inv(2)
    monkeypatch.setattr(ffield, "_is_prime", lambda n: pytest.fail("a field was built"))
    for a in (1, 2, 17, 12345, F.order - 1):
        assert F._polymul_code(a, F.inv(a)) == 1


@pytest.mark.parametrize("p,m", [(3, 8), (17, 4), (5, 8)], ids=["tabled_3^8", "untabled_17^4", "untabled_5^8"])
def test_polymul_code_matches_polynomial_reduction(p, m):
    """The product through the field's reduction table equals the product of
    the coefficient polynomials reduced mod the modulus over F_p."""
    F, fp = Field(p, m), Field(p)
    rng = random.Random(repr(("polymul", p, m)))
    pairs = [(0, 1), (1, F.order - 1), (F.order - 1, F.order - 1)]
    pairs += [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(300)]
    for a, b in pairs:
        want = poly_mod(fp, poly_mul(fp, poly_trim(F.decode(a)), poly_trim(F.decode(b))), F.modulus)
        assert F._polymul_code(a, b) == F.encode(want)


P61 = 2**61 - 1
PACKED_FIELDS = {
    "F_2^17": (2, 17, None),
    "F_47^3": (47, 3, None),
    "F_5^8": (5, 8, None),
    "F_65537^2": (65537, 2, None),
    "F_(2^61-1)^3": (P61, 3, (P61 - 5, 0, 0, 1)),  # x^3 - 5, checked below
}


@pytest.mark.parametrize("name", PACKED_FIELDS)
def test_packed_kernel_matches_schoolbook_reference(name):
    """Untabled products, inverses and Frobenius maps on packed ints agree with
    polynomial products reduced mod the modulus over F_p, for p = 2, odd m,
    m = 8, a 17-bit p and a 61-bit p whose weights need object arrays."""
    p, m, modulus = PACKED_FIELDS[name]
    fp = Field(p)
    if modulus is not None:
        assert ffield._rabin_irreducible(fp, modulus, m, list(factorint(m)))
    F = Field(p, m, modulus=modulus)
    assert F._exp is None and (F.weights.dtype == object) == (p == P61)

    def reference_mul(a, b):
        want = poly_mod(fp, poly_mul(fp, poly_trim(F.decode(a)), poly_trim(F.decode(b))), F.modulus)
        return F.encode(want)

    rng = random.Random(repr(("packed", p, m)))
    codes = [0, 1, F.order - 1] + [rng.randrange(F.order) for _ in range(40)]
    for a in codes:
        for b in (0, 1, F.order - 1, a, rng.randrange(F.order)):
            assert F._polymul_code(a, b) == reference_mul(a, b)
        if a:
            assert reference_mul(a, F.inv(a)) == 1
        for k in range(m):
            assert F.frobenius(a, k) == F.pow(a, p**k)
    with pytest.raises(DivisionByZero):
        F.inv(0)


# -- the quotient ring F[x]/(h) on digit arrays ---------------------------------------


def _reference_pow_mod(F, base, e, mod):
    """Schoolbook square-and-multiply mod `mod`, one scalar Field call per
    coefficient product: the reference the digit-array ring must match."""
    result = (1,)
    base = poly_mod(F, base, mod)
    while e:
        if e & 1:
            result = poly_mod(F, poly_mul(F, result, base), mod)
        base = poly_mod(F, poly_mul(F, base, base), mod)
        e >>= 1
    return result


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 17, 2**31 - 1) for m in (1, 2, 4, 8)])
def test_ring_power_matches_square_and_multiply(p, m):
    """poly_pow_mod through F[x]/(h) equals the scalar reference for deg h
    1..10, exponents 0, 1 and beyond the field order, and bases below, at and
    above deg h; p = 2^31 - 1 runs on Python-int digits."""
    F = Field(p, m)
    rng = random.Random(repr(("ring", p, m)))
    # the reference is slow on fields past 2^40, so those stop at degree 3
    for n in range(1, 11) if F.order < 2**40 else range(1, 4):
        h = tuple(rng.randrange(F.order) for _ in range(n)) + (rng.randrange(1, F.order),)
        for base_deg in (n - 1, n, 2 * n + 1):
            base = tuple(rng.randrange(F.order) for _ in range(base_deg)) + (rng.randrange(1, F.order),)
            for e in (0, 1, 2):
                assert ffield.poly_pow_mod(F, base, e, h) == _reference_pow_mod(F, base, e, h)
        e = F.order + rng.randrange(1, F.order)
        assert ffield.poly_pow_mod(F, base, e, h) == _reference_pow_mod(F, base, e, h)


def _reference_trace_split(F, f, e, rng):
    """_edf_split's characteristic-2 branch as the poly_mul/poly_mod squaring
    loop it replaced: the trace r + r^2 + ... + r^(2^(em-1)) mod f."""
    n = poly_deg(f)
    while True:
        r = poly_trim(tuple(rng.randrange(F.order) for _ in range(n)))
        if poly_deg(r) < 1:
            continue
        t = acc = r
        for _ in range(e * F.m - 1):
            acc = poly_mod(F, poly_mul(F, acc, acc), f)
            t = ffield.poly_add(F, t, acc)
        g = poly_gcd(F, f, t)
        if 0 < poly_deg(g) < n:
            return g


@pytest.mark.parametrize("m", [1, 2, 4, 8, 17])
def test_trace_split_matches_the_squaring_loop(m):
    """Over F_{2^m}, tabled and untabled, the ring's trace split returns the
    reference's factor for the same rng, on products of 2 or 3 distinct
    irreducibles of one degree e."""
    F = Field(2, m)
    rng = random.Random(repr(("trace", m)))
    irreducibles = set()
    for _ in range(16):
        irreducibles.update(f for f, _ in factor_poly(F, tuple(rng.randrange(F.order) for _ in range(7)) + (1,)))
    cases = 0
    for e in (1, 2, 3):
        pool = sorted(f for f in irreducibles if poly_deg(f) == e)
        for k in (2, 3):
            if len(pool) < k:
                continue
            f = reduce(lambda a, b: poly_mul(F, a, b), pool[:k])
            for seed in range(2):
                want = _reference_trace_split(F, f, e, random.Random(seed))
                assert ffield._edf_split(F, f, e, random.Random(seed)) == want
                cases += 1
    assert cases >= 2


def test_prime_base_field_embeds_without_a_table():
    """f = 1 embeds as the identity on codes with the same range checks, so a
    31-bit prime base field builds at once instead of holding q entries."""
    p = 2**31 - 1
    t0 = time.perf_counter()
    ctx = ffield.FieldCtx(p, 1, 2)
    assert time.perf_counter() - t0 < 1.0
    for a in (0, 1, 12345, p - 1):
        assert ctx.embed(a) == a and ctx.unembed(a) == a
    assert embed_matrix(ctx, Matrix.from_rows(ctx.base, [[0, 7], [p - 1, 1]])).tolist() == [[0, 7], [p - 1, 1]]
    for bad in (-1, p):
        with pytest.raises(InvalidInput):
            ctx.embed(bad)
        with pytest.raises(InvalidInput):
            embed_matrix(ctx, Matrix.from_rows(ctx.base, [[bad]]))
    with pytest.raises(InvalidInput):
        ctx.unembed(p)  # the code of x, outside F_p


def _power_cases():
    """(x, mul, one, pow method) on a prime, a tabled and an untabled field,
    and on F_5[x]/(x^3 + 3x + 2)."""
    cases = [(Field(p, m), x) for p, m, x in ((101, 1, 7), (3, 4, 41), (17, 4, 5001))]
    out = [(x, F.mul, 1, F.pow) for F, x in cases]
    ring = ffield._QuotientRing(Field(5), (2, 3, 0, 1))
    out.append((ring.lift((1, 4, 2)), ring.mul, ring.lift((1,)), ring.pow))
    return out


@pytest.mark.parametrize("case", _power_cases(), ids=["prime", "tabled", "untabled", "quotient_ring"])
def test_power_matches_repeated_products(case):
    """power, and every pow built on it, equals x multiplied into one e times,
    with bit_length(e) - 1 squares and popcount(e) - 1 other products: no
    product by one and no square past the top bit. The large exponent
    2^40 + 3 is checked against 40 squarings times x^3."""
    x, mul, one, pow_method = case
    same = (lambda a, b: bool((a == b).all())) if hasattr(x, "ndim") else operator.eq
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    exponents = (0, 1, 2, 3, 2**5 - 1, 2**8 - 1, 300)
    want, acc = {}, one
    for e in range(max(exponents) + 1):
        want[e] = acc
        acc = mul(acc, x)
    acc = x
    for _ in range(40):
        acc = mul(acc, acc)
    want[2**40 + 3] = mul(acc, want[3])
    exponents += (2**40 + 3,)
    for e in exponents:
        calls.clear()
        assert same(power(x, e, counted, one), want[e]), e
        assert len(calls) == (e.bit_length() + bin(e).count("1") - 2 if e else 0)
        assert same(pow_method(x, e), want[e]), e
