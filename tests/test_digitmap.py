"""Digit vectors, the exponent map, and injectivity checks.

All counts asserted exactly here were derived by hand from the binomial
formula binom(d + K - 1, K) before being frozen.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singerlab.digitmap import (
    Collision,
    DigitVector,
    Injective,
    base_q_expansion,
    check_injectivity,
    check_injectivity_sumK,
    enumerate_patterns,
    phi,
    twisted_aggregate,
)
from singerlab.errors import CapacityExceeded, InvalidInput
from singerlab.ffield import field_ctx
from singerlab.schur import aggregated_patterns, model_spectrum, parse_module_spec


# -- expansion and the exponent map -------------------------------------------


def test_pinned_expansion():
    assert base_q_expansion(147, 7, 3) == (0, 0, 3)
    assert phi((0, 0, 3), 7, 3) == 147


def test_expansion_bounds():
    with pytest.raises(InvalidInput):
        base_q_expansion(343, 7, 3)
    with pytest.raises(InvalidInput):
        base_q_expansion(-1, 7, 3)


def test_phi_length_check():
    with pytest.raises(InvalidInput):
        phi((1, 2), 7, 3)


def test_digit_vector_rejects_negative():
    with pytest.raises(InvalidInput):
        DigitVector((1, -1))


@given(st.integers(2, 11), st.integers(1, 5), st.data())
def test_phi_inverts_expansion(q, d, data):
    E = data.draw(st.integers(0, q**d - 1))
    assert phi(base_q_expansion(E, q, d), q, d) == E % (q**d - 1)


@given(st.integers(2, 9), st.integers(1, 4), st.data())
def test_phi_is_additive_mod_order(q, d, data):
    digits = st.tuples(*[st.integers(0, q - 1)] * d)
    a, b = data.draw(digits), data.draw(digits)
    s = tuple(x + y for x, y in zip(a, b))
    assert phi(s, q, d) == (phi(a, q, d) + phi(b, q, d)) % (q**d - 1)


# -- injectivity ---------------------------------------------------------------


def test_injective_at_7_3_3():
    assert check_injectivity(7, 3, 3) == Injective(64)


def test_collision_witness_at_3_2_2():
    v = check_injectivity(3, 2, 2)
    assert isinstance(v, Collision)
    assert (v.first, v.second, v.residue) == ((0, 0), (2, 2), 0)


@pytest.mark.parametrize("q,d", [(5, 2), (7, 2), (4, 3), (9, 2)])
def test_injective_below_q_minus_one(q, d):
    verdict = check_injectivity(q, d, q - 2)
    assert verdict == Injective((q - 1) ** d)


def test_budget_guard():
    with pytest.raises(CapacityExceeded):
        check_injectivity(7, 5, 6, budget=100)


# -- pattern enumeration --------------------------------------------------------


@pytest.mark.parametrize("d,K,count", [(3, 3, 10), (10, 2, 55), (10, 3, 220), (10, 4, 715)])
def test_pattern_counts(d, K, count):
    pats = list(enumerate_patterns(d, K))
    assert len(pats) == count == math.comb(d + K - 1, K)
    assert all(sum(c) == K for c in pats)
    assert pats == sorted(pats)
    assert len(set(pats)) == count


def test_sum_restricted_injectivity_large_field():
    """Exponents stay machine-exact even though q^d - 1 needs 160 bits."""
    assert check_injectivity_sumK(2**16, 10, 4) == Injective(715)


def test_sum_restricted_collision():
    # q = 3, d = 2, K = 4: (0,4) -> 12 = 4 mod 8 <- (4,0)
    v = check_injectivity_sumK(3, 2, 4)
    assert isinstance(v, Collision)


# -- twisted aggregation ---------------------------------------------------------


def test_twist_rotates_digits():
    e0 = DigitVector((1, 0, 0))
    assert twisted_aggregate([(e0, 1)], 3) == (0, 1, 0)
    assert twisted_aggregate([(e0, 3)], 3) == e0


def test_twist_matches_exponent_scaling():
    q, d = 7, 3
    c = DigitVector((2, 1, 0))
    for e in range(d):
        shifted = twisted_aggregate([(c, e)], d)
        assert phi(shifted, q, d) == (phi(c, q, d) * q**e) % (q**d - 1)


def test_aggregate_is_additive():
    a, b = DigitVector((1, 2, 0)), DigitVector((0, 1, 1))
    assert twisted_aggregate([(a, 0), (b, 0)], 3) == (1, 3, 1)


# -- field bridges ----------------------------------------------------------------


def test_model_eigenvalues_match_powers():
    ctx = field_ctx(7, 1, 3)
    spec = parse_module_spec("d=3 q=7 factors=[sym(2)@0]")
    w = ctx.ext.generator
    model = model_spectrum(spec, ctx, w)
    assert len(model) == 6
    assert [c for c, _ in model] == list(aggregated_patterns(spec))
    for c, lam in model:
        assert lam == ctx.ext.pow(w, phi(c, 7, 3))
