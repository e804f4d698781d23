"""Module specs, the induced-matrix functor, and multiplicity bookkeeping."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singerlab.digitmap import DigitVector
from singerlab.errors import InvalidInput, UnsupportedFactor
from singerlab.ffield import Field, field_ctx
from singerlab.matfq import Matrix, embed_matrix, random_invertible
from singerlab.schur import (
    FactorSpec,
    ModuleSpec,
    MultiplicityFree,
    Ok,
    Repeated,
    Violations,
    aggregated_patterns,
    check_constraints,
    check_multiplicity_free,
    dim,
    factor_dim,
    factor_labels,
    induced_matrix,
    parse_factor,
    parse_module_spec,
    total_degree,
    twist_matrix,
)

F7 = Field(7)


def spec_of(text, q=7, d=3):
    return parse_module_spec(text, q=q, d=d)


# -- parsing -------------------------------------------------------------------


def test_parse_full_text_round_trip():
    s = parse_module_spec("d=3 q=7 factors=[sym(2),nat@1,ext(2)]")
    assert s.text() == "d=3 q=7 factors=[sym(2)@0,nat@1,ext(2)@0]"
    assert parse_module_spec(s.text()) == s


def test_twist_zero_is_optional():
    assert parse_factor("sym(2)") == parse_factor("sym(2)@0") == FactorSpec("sym", 2, 0)


def test_bare_list_needs_q_and_d():
    with pytest.raises(InvalidInput):
        parse_module_spec("sym(2)")
    assert parse_module_spec("sym(2)", q=7, d=3) == ModuleSpec(3, 7, (FactorSpec("sym", 2),))


@pytest.mark.parametrize("bad", ["cube(2)", "sym", "sym(0)", "nat(2)", "sym(2)@-1"])
def test_bad_factor_tokens(bad):
    with pytest.raises(InvalidInput):
        parse_factor(bad)


# -- dimensions and labels -------------------------------------------------------


@pytest.mark.parametrize(
    "kind,k,d,n",
    [("nat", 1, 3, 3), ("sym", 2, 3, 6), ("sym", 3, 3, 10), ("ext", 2, 4, 6), ("ext", 4, 4, 1)],
)
def test_factor_dims(kind, k, d, n):
    f = FactorSpec(kind, k)
    assert factor_dim(f, d) == n == len(factor_labels(f, d))


def test_dim_is_multiplicative():
    s = spec_of("sym(2),ext(2)", d=4)
    assert dim(s) == math.comb(5, 2) * math.comb(4, 2)
    assert total_degree(s) == 4


def test_labels_align_with_patterns():
    s = spec_of("sym(2)@1", d=3)
    pats = list(aggregated_patterns(s))
    assert len(pats) == 6
    # twist by one rotates each aggregated digit vector
    untwisted = list(aggregated_patterns(spec_of("sym(2)", d=3)))
    for a, b in zip(untwisted, pats):
        assert tuple(b) == (a[-1],) + tuple(a[:-1])


# -- structural checks ------------------------------------------------------------


def test_constraints_flag_large_degree():
    v = check_constraints(spec_of("sym(6)"), p=7)
    assert isinstance(v, Violations)
    assert any("not below q-1" in msg for msg in v.issues)


def test_constraints_flag_bad_characteristic():
    v = check_constraints(spec_of("sym(3)", q=9, d=3), p=3)
    assert isinstance(v, Violations)
    assert any("characteristic" in msg for msg in v.issues)


def test_constraints_accept_valid():
    assert isinstance(check_constraints(spec_of("sym(2)"), p=7), Ok)


def test_multiplicity_free_symmetric_powers():
    for k in (1, 2, 3, 4):
        assert isinstance(check_multiplicity_free(spec_of(f"sym({k})")), MultiplicityFree)


def test_tensor_square_repeats():
    v = check_multiplicity_free(spec_of("nat,nat"))
    assert v == Repeated(DigitVector((1, 1, 0)), 2)


def test_twisted_tensor_square_still_repeats():
    """Digit rotation cannot separate e_i + e_j from e_j + e_i."""
    v = check_multiplicity_free(spec_of("nat,nat@1"))
    assert v == Repeated(DigitVector((1, 1, 0)), 2)


# -- the functor: pinned values ----------------------------------------------------


def test_pinned_symmetric_square():
    A = Matrix.from_rows(F7, [[6, 2], [2, 4]])
    s = spec_of("sym(2)", d=2)
    assert induced_matrix(s, A).tolist() == [[1, 3, 4], [5, 0, 1], [4, 2, 2]]


def test_symmetric_square_kills_scalar_sign():
    A = Matrix.from_rows(F7, [[6, 2], [2, 4]])
    B = A.scale(6)  # 6 = -1 mod 7
    assert B.tolist() == [[1, 5], [5, 3]]
    s = spec_of("sym(2)", d=2)
    assert induced_matrix(s, A) == induced_matrix(s, B)


def test_symmetric_square_general_form():
    """Rows follow the monomial basis x0^2, x0 x1, x1^2."""
    a, b, c, d = 2, 3, 4, 5
    A = Matrix.from_rows(F7, [[a, b], [c, d]])
    expected = [
        [a * a, 2 * a * b, b * b],
        [a * c, a * d + b * c, b * d],
        [c * c, 2 * c * d, d * d],
    ]
    got = induced_matrix(spec_of("sym(2)", d=2), A)
    assert got.tolist() == [[x % 7 for x in row] for row in expected]


def test_symmetric_power_of_diagonal():
    A = Matrix.from_rows(F7, [[3, 0], [0, 5]])
    got = induced_matrix(spec_of("sym(2)", d=2), A)
    assert got.tolist() == [[2, 0, 0], [0, 1, 0], [0, 0, 4]]  # 9, 15, 25 mod 7


def test_transpose_reconciliation():
    """Sym^k(A^T) equals D^-1 Sym^k(A)^T D with D = diag of monomial
    multiplicities; this pins the normalization choice."""
    rng = random.Random(9)
    A = random_invertible(F7, 2, rng)
    s = spec_of("sym(2)", d=2)
    D = Matrix.from_rows(F7, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    left = induced_matrix(s, A.transpose())
    right = D.inv() @ induced_matrix(s, A).transpose() @ D
    assert left == right


def test_exterior_top_power_is_determinant():
    rng = random.Random(4)
    A = random_invertible(F7, 3, rng)
    got = induced_matrix(spec_of("ext(3)"), A)
    assert got.tolist() == [[A.det()]]


def test_exterior_square_of_diagonal():
    A = Matrix.from_rows(F7, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    got = induced_matrix(spec_of("ext(2)"), A)
    # subsets {0,1}, {0,2}, {1,2} -> products 6, 10, 15
    assert got.tolist() == [[6, 0, 0], [0, 3, 0], [0, 0, 1]]


def test_sym_needs_small_characteristic():
    A = Matrix.identity(Field(3), 3)
    with pytest.raises(UnsupportedFactor, match=r"sym\(3\) needs k < characteristic 3"):
        induced_matrix(ModuleSpec(3, 3, (FactorSpec("sym", 3),)), A)


def test_base_field_twist_is_entrywise_trivial():
    """x -> x^q fixes F_q pointwise, so twisting a base-field matrix is a
    no-op; twists only matter for matrices over the extension."""
    rng = random.Random(14)
    A = random_invertible(F7, 3, rng)
    assert induced_matrix(spec_of("nat@1"), A) == A
    ctx = field_ctx(7, 1, 3)
    E = random_invertible(ctx.ext, 3, rng)
    assert induced_matrix(ModuleSpec(3, 7, (FactorSpec("nat", 1, 1),)), E) != E


# -- the functor: properties --------------------------------------------------------


@pytest.mark.parametrize(
    "text,d", [("sym(2)", 3), ("sym(3)", 2), ("ext(2)", 3), ("ext(2)@1", 4), ("sym(2),ext(3)", 3)]
)
def test_functoriality(text, d):
    s = spec_of(text, d=d)
    rng = random.Random(repr((text, d)))
    for _ in range(5):
        A = random_invertible(F7, d, rng)
        B = random_invertible(F7, d, rng)
        assert induced_matrix(s, A @ B) == induced_matrix(s, A) @ induced_matrix(s, B)


def test_identity_maps_to_identity():
    for text in ("sym(2)", "ext(2)", "nat,ext(3)@2"):
        s = spec_of(text, d=3)
        assert induced_matrix(s, Matrix.identity(F7, 3)) == Matrix.identity(F7, dim(s))


def test_induced_commutes_with_embedding():
    ctx = field_ctx(5, 1, 2)
    s = spec_of("sym(2)", q=5, d=2)
    A = random_invertible(ctx.base, 2, random.Random(8))
    lifted = induced_matrix(s, embed_matrix(ctx, A))
    assert lifted == embed_matrix(ctx, induced_matrix(s, A))


def test_induced_matrix_of_no_factors_is_the_1x1_identity():
    A = random_invertible(F7, 3, random.Random(0))
    assert induced_matrix(parse_module_spec("d=3 q=7 factors=[]"), A) == Matrix.identity(F7, 1)


def test_induced_matrix_never_aliases_its_argument():
    A = random_invertible(F7, 3, random.Random(1))
    out = induced_matrix(spec_of("nat"), A)
    assert out == A
    out.D[0, 0, 0] = (out.D[0, 0, 0] + 1) % 7
    assert out != A


@pytest.mark.parametrize(
    "p,f,d",
    [(7, 1, 1), (7, 1, 3), (3, 2, 2), (2, 2, 3), (17, 1, 4), (3, 2, 4)],
    ids=["prime_F7", "tabled_F343", "tabled_F81", "tabled_F64", "untabled_F17^4", "tabled_F3^8"],
)
def test_twist_matrix_is_the_entrywise_q_power(p, f, d):
    """twist_matrix's digit map equals F.pow(x, q^e) entry by entry, on the
    base field (where it is the identity) and on the extension."""
    ctx = field_ctx(p, f, d)
    rng = random.Random(repr(("twist", p, f, d)))
    for F in (ctx.base, ctx.ext):
        rows = [[rng.randrange(F.order) for _ in range(5)] for _ in range(4)]
        rows[0][:2] = [0, F.order - 1]
        M = Matrix.from_rows(F, rows)
        for e in range(2 * d + 1):
            want = [[F.pow(x, ctx.q**e) for x in row] for row in rows]
            assert twist_matrix(M, ctx.q, e).tolist() == want
