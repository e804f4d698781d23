"""Dense exact matrices: arithmetic, characteristic polynomials, kernels."""

import itertools
import random
from math import factorial
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singerlab.errors import InvalidInput, ShapeMismatch, SingularMatrix
from singerlab.ffield import Field, field_ctx, roots_in_extension
from singerlab.matfq import (
    Matrix,
    char_poly,
    companion_matrix,
    compound_matrix,
    embed_matrix,
    kernel_basis,
    kron,
    random_invertible,
    symmetric_power,
    word_products,
)

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


def test_pow_matches_repeated_product():
    A = rand_matrix(F5, 3, 7)
    P = Matrix.identity(F5, 3)
    for k in range(6):
        assert A.pow(k) == P
        P = P @ A


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
    for w, got in zip(words, word_products(gens, words), strict=True):
        want = reduce(lambda m, i: m @ gens[i], w, Matrix.identity(F, 4))
        assert got == want
    one = [[0], [0, 0, 0]]
    assert word_products(gens[:1], one) == [gens[0], gens[0] @ gens[0] @ gens[0]]
    assert word_products(gens, []) == []
