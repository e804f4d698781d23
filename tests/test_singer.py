"""Companion forms, module spectra, and the digit-vector eigenvalue model."""

import random

import pytest

from singerlab.errors import InvalidInput, NotPrimitive
from singerlab.ffield import element_order, factor_poly, field_ctx, poly_deg, roots_in_extension
from singerlab.matfq import (
    Matrix,
    char_poly,
    embed_matrix,
    kernel_basis,
    random_invertible,
)
from singerlab.schur import induced_matrix, parse_module_spec
from singerlab.singer import (
    Match,
    Mismatch,
    RepeatedEigenvalue,
    Simple,
    from_primitive,
    make_singer,
    spectrum_on_module,
    verify_model_match,
    verify_simple_spectrum,
)

CTX = field_ctx(7, 1, 3)


def spec_of(text, q=7, d=3):
    return parse_module_spec(text, q=q, d=d)


# -- construction ----------------------------------------------------------------


def test_pinned_companion_from_root():
    """The roots of x^3 - x^2 - 3 in F_343 all have order 342; building from
    any of them recovers that cubic as the companion polynomial."""
    roots = [CTX.ext.neg(h[0]) for h, _ in factor_poly(CTX.ext, CTX.embed_poly((4, 0, 6, 1))) if poly_deg(h) == 1]
    assert sorted(roots) == [10, 161, 229]
    for w in roots:
        assert element_order(CTX.ext, w) == 342
    s = from_primitive(CTX, 10)
    assert s.S.tolist() == [[0, 0, 3], [1, 0, 0], [0, 1, 1]]
    assert char_poly(s.S) == (4, 0, 6, 1)


def test_non_primitive_rejected():
    with pytest.raises(NotPrimitive):
        from_primitive(CTX, 1)


def test_make_singer_is_seed_deterministic():
    a = make_singer(CTX, 5)
    b = make_singer(CTX, 5)
    c = make_singer(CTX, 6)
    assert a.omega == b.omega and a.S == b.S
    assert a.omega != c.omega


def test_natural_eigenvalues_are_the_frobenius_orbit():
    s = make_singer(CTX, 0)
    orbit = [CTX.frobenius(s.omega, e) for e in range(CTX.d)]
    assert orbit[0] == s.omega
    assert sorted(orbit) == sorted(lam for lam, _ in roots_in_extension(CTX, char_poly(s.S)))
    assert len(set(orbit)) == 3


# -- spectra on modules ------------------------------------------------------------


def test_symmetric_square_has_six_simple_eigenvalues():
    s = make_singer(CTX, 0)
    roots = spectrum_on_module(s, spec_of("sym(2)"))
    assert len(roots) == 6
    assert all(mult == 1 for _, mult in roots)


def test_symmetric_cube_has_ten_simple_eigenvalues():
    s = make_singer(CTX, 0)
    roots = spectrum_on_module(s, spec_of("sym(3)"))
    assert len(roots) == 10
    assert all(mult == 1 for _, mult in roots)


def test_eigenspaces_are_lines():
    s = make_singer(CTX, 0)
    m = embed_matrix(CTX, induced_matrix(spec_of("sym(2)"), s.S))
    for lam, _ in spectrum_on_module(s, spec_of("sym(2)")):
        shifted = m - Matrix.identity(CTX.ext, 6).scale(lam)
        assert len(kernel_basis(shifted)) == 1


def test_model_match_on_supported_modules():
    s = make_singer(CTX, 1)
    for text in ("nat", "sym(2)", "sym(3)", "ext(2)", "sym(2)@1", "ext(2)@2"):
        roots = spectrum_on_module(s, spec_of(text))
        assert isinstance(verify_model_match(s, spec_of(text), roots), Match)
        assert isinstance(verify_simple_spectrum(roots), Simple)


def test_tensor_square_has_repeated_eigenvalue():
    s = make_singer(CTX, 1)
    roots = spectrum_on_module(s, spec_of("nat,nat"))
    v = verify_simple_spectrum(roots)
    assert isinstance(v, RepeatedEigenvalue)
    assert v.multiplicity == 2
    # the model still predicts the multiset correctly
    assert isinstance(verify_model_match(s, spec_of("nat,nat"), roots), Match)


def test_wrong_tower_rejected():
    s = make_singer(CTX, 0)
    with pytest.raises(InvalidInput):
        spectrum_on_module(s, spec_of("sym(2)", q=5, d=3))


def test_spectrum_is_conjugation_invariant():
    s = make_singer(CTX, 2)
    spec = spec_of("sym(2)")
    w = induced_matrix(spec, s.S)
    t = random_invertible(CTX.base, 6, random.Random(3))
    assert char_poly(t @ w @ t.inv()) == char_poly(w)
