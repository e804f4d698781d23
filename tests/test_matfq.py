"""Dense exact matrices: arithmetic, characteristic polynomials, kernels."""

import itertools
import random
from math import factorial
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singerlab.errors import InvalidInput, ShapeMismatch, SingularMatrix
from singerlab.ffield import Field, field_ctx, roots_in_extension
from singerlab.matfq import (
    Matrix,
    _plan,
    _product,
    intertwining_scalars,
    char_poly,
    companion_matrix,
    compound_matrix,
    embed_matrix,
    kernel_basis,
    kron,
    random_invertible,
    stack,
    symmetric_power,
    word_products,
)
from singerlab.schur import twist_matrix

F5 = Field(5)
F7 = Field(7)


def rand_matrix(F, n, seed):
    rng = random.Random(seed)
    return Matrix.from_rows(F, [[rng.randrange(F.order) for _ in range(n)] for _ in range(n)])


# -- construction and arithmetic ----------------------------------------------


def test_from_rows_validates():
    with pytest.raises(InvalidInput):
        Matrix.from_rows(F5, [[0, 1], [2]])
    with pytest.raises(InvalidInput):
        Matrix.from_rows(F5, [[0, 9]])
    # no silent coercion: floats, numeric strings and bools are not codes
    for bad in (1.5, 1.0, "3", True, None, -1, 2**63, 2**70):
        with pytest.raises(InvalidInput):
            Matrix.from_rows(F5, [[0, 1], [bad, 2]])
    assert Matrix.from_rows(F5, [[0, 4]]).tolist() == [[0, 4]]


def test_shape_mismatch():
    A = Matrix.zeros(F5, 2, 3)
    B = Matrix.zeros(F5, 2, 3)
    with pytest.raises(ShapeMismatch):
        A @ B


def test_identity_and_scale():
    I = Matrix.identity(F7, 3)
    A = rand_matrix(F7, 3, 1)
    assert I @ A == A and A @ I == A
    assert A.scale(1) == A
    assert A.scale(0) == Matrix.zeros(F7, 3, 3)


def test_inverse_round_trip():
    A = random_invertible(F7, 4, random.Random(3))
    assert A @ A.inv() == Matrix.identity(F7, 4)
    assert A.inv() @ A == Matrix.identity(F7, 4)


def test_singular_inverse_raises():
    A = Matrix.from_rows(F7, [[1, 2], [2, 4]])
    assert not A.is_invertible()
    with pytest.raises(SingularMatrix):
        A.inv()


@given(st.integers(0, 10**6))
def test_det_is_multiplicative(seed):
    A = rand_matrix(F5, 3, seed)
    B = rand_matrix(F5, 3, seed + 1)
    assert (A @ B).det() == F5.mul(A.det(), B.det())


def test_transpose_involution_and_product():
    A = rand_matrix(F7, 3, 11)
    B = rand_matrix(F7, 3, 12)
    assert A.transpose().transpose() == A
    assert (A @ B).transpose() == B.transpose() @ A.transpose()


# -- companion matrices and characteristic polynomials ------------------------


def test_companion_of_pinned_cubic():
    """x^3 - x^2 - 3 over F_7 has coefficient tuple (4, 0, 6, 1)."""
    C = companion_matrix(F7, (4, 0, 6, 1))
    assert C.tolist() == [[0, 0, 3], [1, 0, 0], [0, 1, 1]]
    assert char_poly(C) == (4, 0, 6, 1)


def test_char_poly_of_triangular_unipotent():
    A = Matrix.from_rows(F7, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    # (x - 1)^3 = x^3 - 3x^2 + 3x - 1
    assert char_poly(A) == (6, 3, 4, 1)


@given(st.integers(0, 10**6))
def test_char_poly_inverts_companion(seed):
    rng = random.Random(seed)
    f = tuple(rng.randrange(5) for _ in range(4)) + (1,)
    assert char_poly(companion_matrix(F5, f)) == f


def test_char_poly_is_similarity_invariant():
    A = rand_matrix(F7, 4, 21)
    T = random_invertible(F7, 4, random.Random(22))
    assert char_poly(T @ A @ T.inv()) == char_poly(A)


# -- kernels and eigenvectors --------------------------------------------------


def test_kernel_of_invertible_is_trivial():
    A = random_invertible(F7, 3, random.Random(5))
    assert kernel_basis(A) == []


def test_kernel_is_deterministic_and_annihilated():
    A = Matrix.from_rows(F7, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    k1 = kernel_basis(A)
    k2 = kernel_basis(A)
    assert k1 == k2 and len(k1) == 1
    v = Matrix.from_rows(F7, [[x] for x in k1[0]])
    assert (A @ v) == Matrix.zeros(F7, 3, 1)


def test_eigenpairs_form_frobenius_orbit():
    ctx = field_ctx(7, 1, 3)
    S = companion_matrix(ctx.base, (4, 0, 6, 1))
    Se = embed_matrix(ctx, S)
    pairs = [
        (lam, mult, kernel_basis(Se - Matrix.identity(ctx.ext, 3).scale(lam)))
        for lam, mult in roots_in_extension(ctx, char_poly(S))
    ]
    eigs = sorted(lam for lam, _, _ in pairs)
    assert eigs == sorted({ctx.frobenius(eigs[0], e) for e in range(3)})
    for lam, mult, basis in pairs:
        assert mult == 1 and len(basis) == 1
        v = Matrix.from_rows(ctx.ext, [[x] for x in basis[0]])
        assert Se @ v == v.scale(lam)


# -- tensor products -----------------------------------------------------------


def test_kron_mixed_product():
    A = rand_matrix(F5, 2, 31)
    B = rand_matrix(F5, 3, 32)
    C = rand_matrix(F5, 2, 33)
    D = rand_matrix(F5, 3, 34)
    assert kron(A, B) @ kron(C, D) == kron(A @ C, B @ D)
    assert kron(A, B).shape == (6, 6)


def test_embed_matrix_entries():
    ctx = field_ctx(3, 2, 2)
    A = rand_matrix(ctx.base, 2, 41)
    E = embed_matrix(ctx, A)
    assert [[ctx.unembed(x) for x in row] for row in E.tolist()] == A.tolist()


@pytest.mark.parametrize(
    "p,f,d", [(2, 2, 3), (3, 2, 4), (5, 2, 3), (7, 1, 3)], ids=["F4<F64", "F9<F6561", "F25<F5^6", "F7<F343"]
)
def test_embed_matrix_digit_map_matches_entrywise_embed(p, f, d):
    """The digit map of embed_matrix sends every base code where ctx.embed does."""
    ctx = field_ctx(p, f, d)
    codes = list(range(ctx.q))
    A = Matrix.from_rows(ctx.base, [codes[i : i + 3] for i in range(0, ctx.q - 2, 3)])
    assert embed_matrix(ctx, A).tolist() == [[ctx.embed(x) for x in row] for row in A.tolist()]


@pytest.mark.parametrize(
    "F,rows",
    [(Field(2, 64), [[3, 5], [7, 2**62]]), (Field(2**31 - 1, 3), [[2**62 + 11, 5], [2**40 + 3, 2**62 - 1]])],
    ids=["F2^64", "F(2^31-1)^3"],
)
def test_products_past_2_63_join_exactly(F, rows):
    """Where a code can reach 2^63, .a and tolist give exact Python ints: the
    product equals the schoolbook one built with Field.mul."""
    want = [[F.add(F.mul(rows[i][0], rows[0][j]), F.mul(rows[i][1], rows[1][j])) for j in range(2)] for i in range(2)]
    M = Matrix.from_rows(F, rows)
    assert (M @ M).tolist() == want
    assert max(max(row) for row in want) >= 2**63


@pytest.mark.parametrize(
    "F,rows",
    [(Field(2, 64), [[3, 5], [7, 2**62]]), (Field(2**31 - 1, 3), [[2**62 + 11, 5], [2**40 + 3, 2**62 - 1]])],
    ids=["F2^64", "F(2^31-1)^3"],
)
def test_codes_past_2_63_round_trip_through_rows(F, rows):
    """from_rows takes every code below the field order, so a product whose
    codes reach 2^63 comes back from its own rows."""
    M = Matrix.from_rows(F, rows)
    assert Matrix.from_rows(F, (M @ M).tolist()) == M @ M
    with pytest.raises(InvalidInput):
        Matrix.from_rows(F, [[F.order]])


def test_codes_are_read_only():
    M = rand_matrix(F7, 2, 3)
    with pytest.raises(ValueError):
        M.a[0, 0] = 1


# -- extension fields against scalar Field arithmetic --------------------------


def _leibniz_det(F, rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = 1 if inversions % 2 == 0 else F.neg(1)
        for i in range(n):
            term = F.mul(term, rows[i][perm[i]])
        total = F.add(total, term)
    return total


@pytest.mark.parametrize("F", [Field(3, 4), Field(17, 4)], ids=["tabled_81", "untabled_83521"])
def test_extension_ops_match_scalar_field_ops(F):
    rng = random.Random(F.order)
    A = [[rng.randrange(F.order) for _ in range(3)] for _ in range(3)]
    B = [[rng.randrange(F.order) for _ in range(3)] for _ in range(3)]
    MA, MB = Matrix.from_rows(F, A), Matrix.from_rows(F, B)
    dot = lambda row, col: reduce(F.add, (F.mul(x, y) for x, y in zip(row, col)))
    assert (MA @ MB).tolist() == [[dot(row, col) for col in zip(*B)] for row in A]
    assert (MA + MB).tolist() == [[F.add(x, y) for x, y in zip(r, t)] for r, t in zip(A, B)]
    assert (MA - MB).tolist() == [[F.sub(x, y) for x, y in zip(r, t)] for r, t in zip(A, B)]
    assert (-MA).tolist() == [[F.neg(x) for x in r] for r in A]
    assert MA.scale(B[0][0]).tolist() == [[F.mul(B[0][0], x) for x in r] for r in A]
    assert kron(MA, MB).tolist() == [
        [F.mul(A[i][j], B[k][l]) for j in range(3) for l in range(3)] for i in range(3) for k in range(3)
    ]
    assert MA.det() == _leibniz_det(F, A)
    if MA.det():
        assert MA @ MA.inv() == Matrix.identity(F, 3)


def test_compound_matrix_lists_all_minors():
    F = Field(3, 4)
    rng = random.Random(9)
    a = [[rng.randrange(F.order) for _ in range(5)] for _ in range(4)]
    for k in range(1, 5):
        want = [
            [_leibniz_det(F, [[a[i][j] for j in C] for i in R]) for C in itertools.combinations(range(5), k)]
            for R in itertools.combinations(range(4), k)
        ]
        assert compound_matrix(Matrix.from_rows(F, a), k).tolist() == want


# -- large characteristic: the kernel's Python-int branch ------------------------

P61 = 2**61 - 1
F61 = Field(P61)


def _ref_rref(rows, p):
    a = [list(r) for r in rows]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        if r == len(a):
            break
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        s = pow(a[r][c], -1, p)
        a[r] = [x * s % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _ref_det(rows, p):
    a = [list(r) for r in rows]
    det = 1
    for c in range(len(a)):
        k = next((i for i in range(c, len(a)) if a[i][c]), None)
        if k is None:
            return 0
        if k != c:
            a[c], a[k] = a[k], a[c]
            det = -det
        det = det * a[c][c]
        s = pow(a[c][c], -1, p)
        for i in range(c + 1, len(a)):
            f = a[i][c] * s % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det % p


def test_large_prime_field_matches_python_ints():
    rng = random.Random(61)
    n = 5
    A = [[rng.randrange(P61) for _ in range(n)] for _ in range(n)]
    B = [[rng.randrange(P61) for _ in range(n)] for _ in range(n)]
    MA, MB = Matrix.from_rows(F61, A), Matrix.from_rows(F61, B)
    prod = [[sum(x * y for x, y in zip(row, col)) % P61 for col in zip(*B)] for row in A]
    assert (MA @ MB).tolist() == prod
    assert MA.det() == _ref_det(A, P61)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    red, pivots = _ref_rref(aug, P61)
    assert pivots == list(range(n))
    assert MA.inv().tolist() == [row[n:] for row in red]
    # a rank-deficient system: the last row is the sum of the first two
    S = A[:3] + [[(x + y) % P61 for x, y in zip(A[0], A[1])]]
    got, got_pivots = Matrix.from_rows(F61, S).rref()
    want, want_pivots = _ref_rref(S, P61)
    assert got.tolist() == want and got_pivots == want_pivots == [0, 1, 2]
    assert Matrix.from_rows(F61, S[:4] + [S[3]]).det() == 0 == _ref_det(S[:4] + [S[3]], P61)


# -- symmetric powers and word products ------------------------------------------


def _sym_reference(A, k):
    """Sym^k by expanding prod_{j in M} (sum_i A[i,j] x_i) column by column
    over monomial exponent vectors, one scalar field call per term, then
    scaling entry (N, M) by mult(M) / mult(N)."""
    F, d = A.field, A.shape[0]
    labels = list(itertools.combinations_with_replacement(range(d), k))
    counts = [tuple(lab.count(i) for i in range(d)) for lab in labels]
    index = {c: r for r, c in enumerate(counts)}
    mults = []
    for c in counts:
        m = factorial(k)
        for cnt in c:
            m //= factorial(cnt)
        mults.append(m % F.p)
    out = [[0] * len(labels) for _ in labels]
    for col, M_lab in enumerate(labels):
        poly = {(0,) * d: 1}
        for j in M_lab:
            nxt = {}
            for mono, coef in poly.items():
                for i in range(d):
                    a = int(A.a[i, j])
                    if a:
                        key = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                        nxt[key] = F.add(nxt.get(key, 0), F.mul(coef, a))
            poly = nxt
        for mono, coef in poly.items():
            row = index[mono]
            out[row][col] = F.mul(coef, F.mul(mults[col], F.inv(mults[row])))
    return out


F17_4 = field_ctx(17, 1, 4).ext  # untabled: above TABLE_LIMIT


@pytest.mark.parametrize(
    "F", [F7, field_ctx(7, 1, 3).ext, F17_4, Field(2**61 - 1)], ids=["F7", "F343", "F17^4", "F2^61-1"]
)
def test_symmetric_power_matches_dict_expansion(F):
    rng = random.Random(F.order % 1000)
    for d in (2, 3, 4):
        for k in (1, 2, 3, 4):
            A = rand_matrix(F, d, rng.random())
            assert symmetric_power(A, k).tolist() == _sym_reference(A, k), (d, k)


def test_symmetric_power_is_multiplicative():
    for d, k in [(2, 4), (3, 2), (3, 3), (4, 2)]:
        A, B = rand_matrix(F17_4, d, 2 * k), rand_matrix(F17_4, d, 2 * k + 1)
        assert symmetric_power(A @ B, k) == symmetric_power(A, k) @ symmetric_power(B, k)


@pytest.mark.parametrize("functor", [compound_matrix, symmetric_power], ids=["compound", "sym"])
def test_functor_results_do_not_share_cached_index_plans(functor):
    """Index plans are cached per shape; writing into one call's result must
    leave later calls unchanged."""
    F = Field(5, 2)
    A, B = rand_matrix(F, 4, 5), rand_matrix(F, 4, 6)
    for k in (2, 3):
        first, want_b = functor(A, k), functor(B, k)
        want_a = first.copy()
        first.D[...] = 0
        assert functor(A, k) == want_a and functor(B, k) == want_b


def _dense_diag(F, values):
    rows = Matrix.zeros(F, len(values), len(values)).tolist()
    for i, v in enumerate(values):
        rows[i][i] = v
    return Matrix.from_rows(F, rows)


@pytest.mark.parametrize(
    "F", [F7, Field(3, 8), F17_4, Field(P61, 3)], ids=["F7", "F3^8", "F17^4", "F(2^61-1)^3"]
)
def test_scale_by_row_or_column_factors_matches_dense_diagonal_products(F):
    """scale takes one code, an (r, 1) column of row factors or a (1, c) row
    of column factors. Codes are int64, so on F_{(2^61-1)^3} entries come
    from the prime subfield (codes below p, where products stay); its digit
    sums still need Python ints."""
    rng = random.Random(F.m)
    top = F.p if F.order >= 2**63 else F.order
    for r, c in [(3, 5), (4, 4), (1, 6), (5, 1)]:
        M = Matrix.from_rows(F, [[rng.randrange(top) for _ in range(c)] for _ in range(r)])
        rows, cols = [rng.randrange(top) for _ in range(r)], [rng.randrange(top) for _ in range(c)]
        k = rng.randrange(top)
        assert M.scale([[x] for x in rows]) == _dense_diag(F, rows) @ M
        assert M.scale([cols]) == M @ _dense_diag(F, cols)
        assert M.scale(k) == M.scale([[k]]) == _dense_diag(F, [k] * r) @ M
    M = rand_matrix(F7, 3, 1)
    for bad in ([[1]] * 4, [[1] * 4], [[1] * 3] * 3, [1, 2, 3]):
        with pytest.raises(ShapeMismatch):
            M.scale(bad)


@pytest.mark.parametrize("F", [F7, F17_4, F61], ids=["F7", "F17^4", "F2^61-1"])
def test_word_products_match_sequential_chains(F):
    gens = [rand_matrix(F, 4, seed) for seed in range(3)]
    words = [[2], [0, 1, 2, 0, 0, 1], [1, 1], [], [2, 0, 1, 1, 0, 2, 2, 1, 0]]
    for w, got in zip(words, word_products(stack(gens), words).members(), strict=True):
        want = reduce(lambda m, i: m @ gens[i], w, Matrix.identity(F, 4))
        assert got == want
    one = [[0], [0, 0, 0]]
    assert word_products(stack(gens[:1]), one).members() == [gens[0], gens[0] @ gens[0] @ gens[0]]
    assert word_products(stack(gens), []).members() == []


def test_word_products_refuse_letters_outside_the_stack_and_an_unstacked_matrix():
    """A letter past the last generator or below 0 would read the identity
    pad (or wrap around), and a single matrix has no generator axis: each is
    refused with a typed error, not a wrong product."""
    gens = [rand_matrix(F7, 3, seed) for seed in range(2)]
    for bad in ([[0, 2]], [[-1]]):
        with pytest.raises(InvalidInput):
            word_products(stack(gens), bad)
    with pytest.raises(ShapeMismatch):
        word_products(gens[0], [[0]])


# -- stacks: each member equals the single-matrix call ---------------------------

# (base, extension): prime F_7 and tabled F_49, tabled F_9 and F_81, prime F_17
# and untabled F_{17^4}, prime F_{2^31-1} and its cube, whose digits are Python ints
STACK_CTXS = [field_ctx(7, 1, 2), field_ctx(3, 2, 2), field_ctx(17, 1, 4), field_ctx(2**31 - 1, 1, 3)]


def _random_stack(F, batch, n, rng):
    """A stack of `batch` random n x n matrices over F, and its members built one by one."""
    mats = [Matrix.from_rows(F, [[rng.randrange(F.order) for _ in range(n)] for _ in range(n)]) for _ in range(batch)]
    return (stack(mats) if mats else Matrix(F, np.zeros((F.m, 0, n, n), dtype=F.dtype))), mats


@pytest.mark.parametrize("ctx", STACK_CTXS, ids=["F7<F49", "F9<F81", "F17<F17^4", "F(2^31-1)<cube"])
@given(batch=st.integers(0, 3), n=st.integers(1, 4), seed=st.integers(0, 2**32))
@example(batch=0, n=3, seed=0)
@example(batch=1, n=3, seed=1)
@settings(max_examples=12, deadline=None)
def test_stacked_ops_equal_the_single_matrix_calls(ctx, batch, n, seed):
    """@ (stack by stack, stack by single, single by stack), scale (one code,
    row factors, one code per member), symmetric_power, compound_matrix,
    kron, twist_matrix, embed_matrix and word_products give, member by
    member, what the same call gives on each member alone."""
    rng = random.Random(seed)
    for F in (ctx.base, ctx.ext):
        S, mats = _random_stack(F, batch, n, rng)
        T, others = _random_stack(F, batch, n, rng)
        (X,) = _random_stack(F, 1, n, rng)[1]
        code, rows = rng.randrange(F.order), [[rng.randrange(F.order)] for _ in range(n)]
        codes = [rng.randrange(F.order) for _ in range(batch)]
        cases = [
            (S @ T, [A @ B for A, B in zip(mats, others)]),
            (S @ X, [A @ X for A in mats]),
            (X @ S, [X @ A for A in mats]),
            (S.scale(code), [A.scale(code) for A in mats]),
            (S.scale(rows), [A.scale(rows) for A in mats]),
            (S.scale(np.array(codes, dtype=object).reshape(batch, 1, 1)), [A.scale(c) for A, c in zip(mats, codes)]),
            (symmetric_power(S, 2), [symmetric_power(A, 2) for A in mats]),
            (compound_matrix(S, min(2, n)), [compound_matrix(A, min(2, n)) for A in mats]),
            (kron(S, T), [kron(A, B) for A, B in zip(mats, others)]),
            (twist_matrix(S, F.p, 1), [twist_matrix(A, F.p, 1) for A in mats]),
        ]
        for got, want in cases:
            assert got.batch == (batch,) and got.members() == want
        words = [[rng.randrange(3) for _ in range(rng.randrange(5))] for _ in range(batch)]
        G, gens = _random_stack(F, 3, n, rng)
        chains = [reduce(lambda m, i: m @ gens[i], w, Matrix.identity(F, n)) for w in words]
        assert word_products(G, words).members() == chains
    S, mats = _random_stack(ctx.base, batch, n, rng)
    assert embed_matrix(ctx, S).members() == [embed_matrix(ctx, A) for A in mats]


def test_intertwining_scalars_read_every_member_on_its_own():
    """One stacked certificate gives each member's own scalar, or None where
    that member alone is not proportional, as the one-member call does."""
    F, rng = F17_4, random.Random(5)
    X = random_invertible(F, 3, rng)
    Rs = [rand_matrix(F, 3, seed) for seed in range(4)] + [Matrix.zeros(F, 3, 3)]
    mus = [rng.randrange(1, F.order) for _ in Rs]
    Ls = [(X @ R @ X.inv()).scale(mu) for R, mu in zip(Rs, mus)]
    Ls[1] = Ls[1] + Matrix.identity(F, 3)  # no longer a multiple
    Ls[2] = Ls[2].scale(0)  # zero against a nonzero model
    got = intertwining_scalars(X, stack(Ls), stack(Rs))
    assert got == [mus[0], None, None, mus[3], None]
    assert got == [intertwining_scalars(X, L, R)[0] for L, R in zip(Ls, Rs)]


# -- the fold's pre-pass bound against schoolbook products ----------------------


@pytest.mark.parametrize(
    "F,n,pre_pass",
    [(Field(524287, 4), 40, True), (Field(2, 64), 6, False), (Field(3, 8), 12, False), (F17_4, 12, False)],
    ids=["F(2^19-1)^4", "F2^64", "F3^8", "F17^4"],
)
def test_products_fold_exactly_on_both_sides_of_the_pre_pass_bound(F, n, pre_pass):
    """A fold reduces its digit products mod p before the (m, m^2) reduction
    only when m^2 * terms * (p-1)^3 could reach 2^63. F_{(2^19-1)^4} keeps
    int64 digits but its bound holds for 4 terms only, so an n x n product
    needs the pre-pass while an entrywise one (kron) does not; on the other
    fields no fold needs it. Every product equals the schoolbook one built
    with Field.mul, on random entries and on entries whose digits are all
    p - 1."""
    assert F.dtype == np.int64 and (F.fold_terms < n) == pre_pass and F.fold_terms >= 1
    rng = random.Random(F.p * F.m)
    top = [[F.order - 1] * n for _ in range(n)]
    rand = lambda: [[rng.randrange(F.order) for _ in range(n)] for _ in range(n)]
    dot = lambda row, col: reduce(F.add, (F.mul(x, y) for x, y in zip(row, col)))
    for A, B in [(top, top), (rand(), rand()), (top, rand())]:
        assert (Matrix.from_rows(F, A) @ Matrix.from_rows(F, B)).tolist() == [[dot(r, c) for c in zip(*B)] for r in A]
    A, B = [row[:3] for row in top[:3]], [row[:2] for row in rand()[:2]]
    assert kron(Matrix.from_rows(F, A), Matrix.from_rows(F, B)).tolist() == [
        [F.mul(A[i][j], B[k][l]) for j in range(3) for l in range(2)] for i in range(3) for k in range(2)
    ]


# -- the packed product kernel against schoolbook products ----------------------

# Every regime of the kernel's plan: b > 1 with no padding (F_{3^8},
# F_{17^4}), b > 1 with ceil(m/b) b > m at some inner sizes (F_{3^5},
# F_{2^64}), b = 1 (F_9 and F_17 by their digit count, F_{(2^19-1)^4} by the
# size of p) and Python-int digits (F_{(2^61-1)^3}).
KERNEL_FIELDS = [Field(3, 8), F17_4, Field(3, 5), Field(2, 64), Field(3, 2), Field(17), Field(524287, 4), Field(P61, 3)]
KERNEL_IDS = ["F3^8", "F17^4", "F3^5", "F2^64", "F9", "F17", "F(2^19-1)^4", "F(2^61-1)^3"]


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_product_plan_bounds_hold_for_every_inner_size(F):
    """For inner sizes 1..36: b digits S bits apart fill at most 63 bits as
    2b - 1 slots, a slot's bound inner * b * (p-1)^2 fits in S bits, and the
    reduction's ceil(m/b)^2 (2b-1) slot terms times digits below p (each
    slot reduced mod p first when the plan says so) stay below 2^63. Digits
    past 2^63 keep b = 1 on Python ints, and so do fields of one or two
    digits."""
    p, m = F.p, F.m
    for inner in range(1, 37):
        plan = _plan(F, inner)
        blocks, b = plan.blocks, plan.b
        assert blocks == -(-m // b) and plan.reduction.shape == (m, blocks**2 * (2 * b - 1))
        if plan.dtype is object or m <= 2:
            assert b == 1
            if plan.dtype is object:
                continue
        assert (2 * b - 1) * plan.S <= 63 and inner * b * (p - 1) ** 2 < 2**plan.S
        slot = p - 1 if plan.reduce_first else inner * b * (p - 1) ** 2
        assert plan.reduction.shape[1] * slot * (p - 1) < 2**63


def test_kernel_fields_cover_every_plan_regime():
    """The fields above reach each regime at some inner size in 1..36."""
    regimes = {}
    for F, name in zip(KERNEL_FIELDS, KERNEL_IDS):
        for inner in range(1, 37):
            plan = _plan(F, inner)
            kind = "object" if plan.dtype is object else "b=1" if plan.b == 1 else "padded" if plan.blocks * plan.b > F.m else "packed"
            regimes.setdefault(kind, set()).add(name)
    assert regimes["packed"] >= {"F3^8", "F17^4"} and regimes["padded"] >= {"F3^5", "F2^64"}
    assert regimes["b=1"] == {"F9", "F17", "F(2^19-1)^4"} and regimes["object"] == {"F(2^61-1)^3"}


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_product_kernel_equals_schoolbook_products(F):
    """Matrix products of inner size 1..36, entrywise products (kron and
    scale), empty stacks and a single matrix against a stack all equal sums
    of Field.mul, on entries whose digits are all p - 1 and on random ones."""
    rng = random.Random(F.p + F.m)
    top = F.order - 1  # every digit p - 1
    entries = lambda r, c, full: [[top if full else rng.randrange(F.order) for _ in range(c)] for _ in range(r)]
    dot = lambda row, col: reduce(F.add, (F.mul(x, y) for x, y in zip(row, col)))
    school = lambda A, B: [[dot(r, c) for c in zip(*B)] for r in A]
    for k in range(1, 37):
        for full in (True, False):
            A, B = entries(2, k, full), entries(k, 3, full and k % 2 == 0)
            assert (Matrix.from_rows(F, A) @ Matrix.from_rows(F, B)).tolist() == school(A, B)
    A, B = entries(3, 2, True), entries(2, 3, False)
    assert kron(Matrix.from_rows(F, A), Matrix.from_rows(F, B)).tolist() == [
        [F.mul(A[i][j], B[k][l]) for j in range(2) for l in range(3)] for i in range(3) for k in range(2)
    ]
    col = [[top], [rng.randrange(F.order)], [top]]
    assert Matrix.from_rows(F, A).scale(col).tolist() == [[F.mul(c, x) for x in row] for [c], row in zip(col, A)]
    mats = [entries(4, 4, i == 0) for i in range(3)]
    X = entries(4, 4, True)
    S, M = stack(Matrix.from_rows(F, a) for a in mats), Matrix.from_rows(F, X)
    assert [Y.tolist() for Y in (S @ M).members()] == [school(a, X) for a in mats]
    assert [Y.tolist() for Y in (M @ S).members()] == [school(X, a) for a in mats]
    empty = Matrix(F, np.zeros((F.m, 0, 4, 4), dtype=F.dtype))
    assert (empty @ M).D.shape == (M @ empty).D.shape == (F.m, 0, 4, 4)
    assert _product(F, empty.D, M.D, 1, np.multiply).shape == (F.m, 0, 4, 4)
