"""The rewriting pipeline: sampling, labeling, calibration, verification."""

import hashlib
import importlib
import json
import operator
import random
from functools import reduce

import pytest

from singerlab.cli import result_to_dict
from singerlab.digitmap import phi
from singerlab.errors import (
    ConstraintViolation,
    FieldMismatch,
    InvalidInput,
    ShapeMismatch,
    SingularMatrix,
    UnsupportedFactor,
)
from singerlab import ffield
from singerlab.ffield import Field, factor_poly, field_ctx, is_primitive, poly_deg, prime_power
from singerlab.instgen import Consistent, Oracle, PlantedInstance, gen_instance, oracle_check, tamper
from singerlab.matfq import (
    Matrix,
    char_poly,
    companion_matrix,
    embed_matrix,
    kernel_basis,
    proportional,
    random_invertible,
    stack,
)
from singerlab.rewrite import (
    VERIFICATION_WORDS,
    ElementSampler,
    Failure,
    Refuted,
    RewriteConfig,
    RewriteResult,
    Verified,
    _draw_words,
    build_eigenbasis,
    reconstruct_generator,
    recover_omega,
    rewrite,
    verify_projective,
)
from singerlab.schur import aggregated_patterns, dim, induced_matrix, model_spectrum, parse_module_spec, twist_matrix
from singerlab.singer import make_singer, spectrum_on_module

CTX73 = field_ctx(7, 1, 3)


def spec_of(text, q=7, d=3):
    return parse_module_spec(text, q=q, d=d)


def planted(ctx, spec, seed, n_extra=1):
    """Generators [S R, R, ...] conjugated into a random frame, so the group
    surely contains a Singer element; returns (publics, T, hidden)."""
    rng = random.Random(repr(("planted", spec.text(), seed)))
    s = make_singer(ctx, seed)
    hidden = [s.S]
    for _ in range(n_extra):
        hidden.append(random_invertible(ctx.base, ctx.d, rng))
    gens = [hidden[0] @ hidden[1]] + hidden[1:]
    T = random_invertible(ctx.base, dim(spec), rng)
    publics = [T @ induced_matrix(spec, g) @ T.inv() for g in gens]
    return publics, T, gens


def eigenbasis(ctx, w, spec, omega):
    """build_eigenbasis on w with its characteristic polynomial and the
    labels of omega's model, as rewrite hands them on from the candidate."""
    return build_eigenbasis(ctx, w, char_poly(w), tuple(model_spectrum(spec, ctx, omega)))


# -- element sampling --------------------------------------------------------------


def test_sampler_walks_through_the_group():
    F5 = field_ctx(5, 1, 1).base
    gens = [
        Matrix.from_rows(F5, [[1, 1], [0, 1]]),
        Matrix.from_rows(F5, [[1, 0], [1, 1]]),
    ]
    sampler = ElementSampler(gens, random.Random(0))
    seen = {repr(sampler.draw().tolist()) for _ in range(500)}
    # SL_2(5) has 120 elements; the walk should cover a large fraction
    assert len(seen) >= 60


def test_sampler_is_deterministic():
    F7 = CTX73.base
    gens = [Matrix.from_rows(F7, [[1, 1], [0, 1]]), Matrix.from_rows(F7, [[2, 0], [0, 4]])]
    a = ElementSampler(gens, random.Random(7))
    b = ElementSampler(gens, random.Random(7))
    for _ in range(10):
        assert a.draw() == b.draw()


def test_sampler_needs_generators():
    with pytest.raises(InvalidInput):
        ElementSampler([], random.Random(0))


# -- omega recovery ------------------------------------------------------------------


def test_recover_omega_from_planted_spectrum():
    spec = spec_of("sym(2)")
    s = make_singer(CTX73, 3)
    eigs = [lam for lam, _ in spectrum_on_module(s, spec)]
    out = recover_omega(eigs, spec, CTX73)
    assert out is not None
    rho, labels = out
    assert labels == tuple(model_spectrum(spec, CTX73, rho))
    assert sorted(lam for _, lam in labels) == sorted(eigs)
    for c, lam in labels:
        assert CTX73.ext.pow(rho, phi(c, 7, 3)) == lam


def test_recover_omega_rejects_wrong_multiset():
    spec = spec_of("sym(2)")
    s = make_singer(CTX73, 3)
    eigs = [lam for lam, _ in spectrum_on_module(s, spec)]
    eigs[0] = CTX73.ext.mul(eigs[0], CTX73.embed(3))
    if len(set(eigs)) == len(eigs):  # keep the size precondition meaningful
        assert recover_omega(eigs, spec, CTX73) is None


def test_recover_omega_needs_distinct_values():
    spec = spec_of("sym(2)")
    assert recover_omega([1, 1, 1, 1, 1, 1], spec, CTX73) is None


# -- candidate search ------------------------------------------------------------------

SEARCH_CASES = [  # (p, f, d, spec, planted): F_4 (p = 2), F_9, F_7, F_17 with an untabled extension,
    # and F_7 with d = 2, where 7^2 - 1 = 48 has no ppd prime
    (2, 2, 3, "nat", False),
    (3, 2, 4, "ext(2)", False),
    (7, 1, 3, "sym(2)", False),
    (17, 1, 4, "sym(2)", True),
    (7, 1, 2, "sym(2)", False),
]


def _old_verdict(ctx, m, ppd_e):
    """The candidate filter's rule, decided by full root finding over
    F_{q^d}: n simple nonzero roots (recover_omega refuses a zero one), not
    all of them in the ppd subgroup."""
    roots = [
        (ctx.ext.neg(h[0]), mult)
        for f, mult in factor_poly(ctx.base, char_poly(m))
        if ctx.d % poly_deg(f) == 0
        for h, _ in factor_poly(ctx.ext, ctx.embed_poly(f))
        if poly_deg(h) == 1
    ]
    if len(roots) != m.shape[0] or any(mult != 1 or lam == 0 for lam, mult in roots):
        return False
    return ppd_e is None or not all(ctx.ext.pow(lam, ppd_e) == 1 for lam, _ in roots)


@pytest.mark.parametrize("p,f,d,text,plant", SEARCH_CASES)
def test_power_rejection_matches_root_finding(p, f, d, text, plant):
    """The verdict decided by powers of x modulo chi over F_q equals the one
    read off the roots over F_{q^d} on every draw: random invertible
    matrices, product-replacement samples, and the identity and a nonzero
    scalar, which satisfy m^N = I while chi = (x - c)^n is not squarefree."""
    rw = importlib.import_module("singerlab.rewrite")
    ctx = field_ctx(p, f, d)
    spec = spec_of(text, q=p**f, d=d)
    n1 = ctx.ext.order - 1
    ppd_e = rw._ppd_exponent(ctx, list(aggregated_patterns(spec)))
    assert (ppd_e is None) == (d == 2)
    rng = random.Random(repr(("powers", p, f, d)))
    gens = list(gen_instance(ctx, spec, 2, 3, plant_singer=plant).generators)
    sampler = ElementSampler(gens, rng)
    draws = gens + [random_invertible(ctx.base, dim(spec), rng) for _ in range(12)]
    draws += [sampler.draw() for _ in range(24)]
    one = Matrix.identity(ctx.base, dim(spec))
    draws += [one, one.scale(ctx.base.order - 1)]
    verdicts, repeated = [], 0
    for m in draws:
        chi = char_poly(m)
        verdicts.append(rw._divides_torus_poly(ctx.base, chi, n1, ppd_e))
        assert verdicts[-1] == _old_verdict(ctx, m, ppd_e)
        repeated += any(mult > 1 for _, mult in factor_poly(ctx.base, chi))
    assert True in verdicts and False in verdicts and repeated > 0


def test_root_finding_runs_only_on_accepted_candidates(monkeypatch):
    """On the search-ext2-q9 family every call to roots_in_extension gets
    a candidate that the split and ppd filters keep: n simple roots, not all
    in the ppd subgroup. Nothing reaches root finding only to be thrown out."""
    rw = importlib.import_module("singerlab.rewrite")
    ctx = field_ctx(3, 2, 4)
    spec = spec_of("ext(2)", q=9, d=4)
    n = dim(spec)
    ppd_e = rw._ppd_exponent(ctx, list(aggregated_patterns(spec)))
    assert ppd_e is not None
    calls = []
    real = rw.roots_in_extension

    def recording(c, g):
        calls.append(real(c, g))
        return calls[-1]

    monkeypatch.setattr(rw, "roots_in_extension", recording)
    sampled = 0
    for seed in range(3):
        inst = gen_instance(ctx, spec, 2, seed, plant_singer=False)
        res = rewrite(spec, list(inst.generators), ctx, RewriteConfig(eps=0.01))
        sampled += res.stats.elements_sampled
    assert 0 < len(calls) < sampled
    for roots in calls:
        eigs = [lam for lam, _ in roots]
        assert len(set(eigs)) == n and all(mult == 1 for _, mult in roots)
        assert not all(ctx.ext.pow(lam, ppd_e) == 1 for lam in eigs)


# -- eigenbasis ----------------------------------------------------------------------


def test_eigenbasis_diagonalizes():
    spec = spec_of("sym(2)")
    s = make_singer(CTX73, 4)
    w = induced_matrix(spec, s.S)
    C, C_inv = eigenbasis(CTX73, w, spec, s.omega)
    assert C_inv == C.inv()
    D = C @ embed_matrix(CTX73, w) @ C_inv
    n = dim(spec)
    got = D.tolist()
    assert all(got[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    # diagonal entries follow the label enumeration order
    want = [CTX73.ext.pow(s.omega, phi(c, 7, 3)) for c in aggregated_patterns(spec)]
    assert [got[i][i] for i in range(n)] == want


# -- generator extraction --------------------------------------------------------------


def _scalar_ratio(got, A):
    """The single mu with got == mu * A, or None."""
    F = A.field
    ratios = set()
    for grow, arow in zip(got.tolist(), A.tolist()):
        for g, a in zip(grow, arow):
            if a == 0:
                if g != 0:
                    return None
            else:
                ratios.add(F.div(g, a))
    if len(ratios) != 1:
        return None
    return ratios.pop()


def test_reconstruct_symmetric_square_images():
    """A degree-2 image determines its source up to sign."""
    F = field_ctx(7, 1, 2).base
    spec = spec_of("sym(2)", d=2)
    factor = spec.factors[0]
    rng = random.Random(25)
    for _ in range(25):
        A = random_invertible(F, 2, rng)
        got = reconstruct_generator(induced_matrix(spec, A), factor, 2)
        assert _scalar_ratio(got, A) is not None


def test_pinned_scalar_pair():
    F = field_ctx(7, 1, 2).base
    spec = spec_of("sym(2)", d=2)
    A = Matrix.from_rows(F, [[6, 2], [2, 4]])
    B = Matrix.from_rows(F, [[1, 5], [5, 3]])
    assert induced_matrix(spec, A) == induced_matrix(spec, B)
    assert B == A.scale(6)


def test_reconstruct_wedge_images():
    ctx = field_ctx(7, 1, 4)
    spec = spec_of("ext(2)", d=4)
    factor = spec.factors[0]
    rng = random.Random(31)
    for _ in range(10):
        A = random_invertible(ctx.base, 4, rng)
        got = reconstruct_generator(induced_matrix(spec, A), factor, 4)
        assert _scalar_ratio(got, A) is not None


# -- verification -----------------------------------------------------------------------


def test_verify_accepts_planted_and_rejects_tampered():
    spec = spec_of("sym(2)")
    publics, T, gens = planted(CTX73, spec, seed=9)
    epubs_frame = embed_matrix(CTX73, T)
    pre = [embed_matrix(CTX73, g) for g in gens]
    v = verify_projective(spec, CTX73, publics, epubs_frame.inv(), pre)
    assert isinstance(v, Verified)
    assert all(mu == 1 for mu in v.scalars)

    bad = list(pre)
    rows = bad[0].tolist()
    rows[0][1] = (rows[0][1] + 1) % CTX73.ext.order
    bad[0] = Matrix.from_rows(CTX73.ext, rows)
    assert isinstance(verify_projective(spec, CTX73, publics, epubs_frame.inv(), bad), Refuted)


def member_by_member(rule):
    """A functor applying rule(spec, A) to each member of a stack, and to a
    single matrix as it is: verify_projective calls induced_matrix once per
    stack of words."""

    def functor(spec_, A):
        return stack(rule(spec_, M) for M in A.members()) if A.batch else rule(spec_, A)

    return functor


def test_verify_word_check_catches_a_non_multiplicative_functor(monkeypatch):
    """The generator checks alone imply every word check only for a
    multiplicative functor; a functor right on the generators and wrong on
    their products must still be refuted by the word check."""
    rw = importlib.import_module("singerlab.rewrite")  # the package exports a function of that name

    spec = spec_of("sym(2)")
    publics, T, gens = planted(CTX73, spec, seed=9)
    frame = embed_matrix(CTX73, T).inv()
    pre = [embed_matrix(CTX73, g) for g in gens]

    def broken(spec_, A):
        out = induced_matrix(spec_, A)
        if any(A == g for g in pre):
            return out
        rows = out.tolist()
        rows[0][0] = (rows[0][0] + 1) % CTX73.ext.order
        return Matrix.from_rows(out.field, rows)

    assert isinstance(verify_projective(spec, CTX73, publics, frame, pre), Verified)
    monkeypatch.setattr(rw, "induced_matrix", member_by_member(broken))
    v = verify_projective(spec, CTX73, publics, frame, pre)
    assert isinstance(v, Refuted) and v.detail == "word check 0 failed"


def _reference_verify(spec, ctx, publics, C, preimages, rng, induced):
    """verify_projective with every model word formed over F_{q^d} as the
    product of the models C E_i C^{-1}, and each word image compared to it."""
    try:
        cinv = C.inv()
    except SingularMatrix:
        return Refuted("frame is not invertible")
    models = [C @ embed_matrix(ctx, g) @ cinv for g in publics]
    mus = []
    for i, (M, A) in enumerate(zip(models, preimages)):
        (mu,) = proportional(induced(spec, A), M)
        if mu is None:
            return Refuted(f"generator {i} image is not proportional to its model")
        mus.append(mu)
    for t, w in enumerate(_draw_words(rng, len(publics), VERIFICATION_WORDS)):
        AW = reduce(lambda m, i: m @ preimages[i], w, Matrix.identity(ctx.ext, ctx.d))
        MW = reduce(lambda m, i: m @ models[i], w, Matrix.identity(ctx.ext, dim(spec)))
        if proportional(induced(spec, AW), MW) == [None]:
            return Refuted(f"word check {t} failed")
    return Verified(tuple(mus))


@pytest.mark.parametrize("p,f,d,text", [(7, 1, 3, "sym(2)"), (3, 2, 4, "ext(2)")])
def test_verify_word_check_matches_the_explicit_model_words(monkeypatch, p, f, d, text):
    """Multiplying model words over F_q and comparing induced(A_w) @ C with
    C @ E_w gives the verdicts and details of forming C E_w C^{-1} over
    F_{q^d}: on planted, tampered and word-only-broken inputs."""
    rw = importlib.import_module("singerlab.rewrite")
    ctx = field_ctx(p, f, d)
    spec = parse_module_spec(text, q=ctx.q, d=d)
    inst = gen_instance(ctx, spec, 2, seed=4)
    frame = embed_matrix(ctx, inst.oracle.T).inv()
    pre = [embed_matrix(ctx, a) for a in inst.oracle.A]
    bad_pre = [pre[0].scale(2) @ pre[1], pre[1]]
    rows = frame.tolist()
    rows[0][0] = ctx.ext.add(rows[0][0], 1)
    bad_frame = Matrix.from_rows(ctx.ext, rows)
    publics = list(inst.generators)
    cases = [(publics, frame, pre)] * 3 + [
        (list(tamper(inst, seed=1).generators), frame, pre),
        (publics, frame, bad_pre),
        (publics, bad_frame, pre),
    ]

    def word_only_broken(spec_, A):
        out = induced_matrix(spec_, A)
        if not any(A == g for g in pre) and int(A.a.sum()) % 5 == 0:
            rows = out.tolist()
            rows[-1][0] = ctx.ext.add(rows[-1][0], 1)
            out = Matrix.from_rows(out.field, rows)
        return out

    details = set()
    for functor in (induced_matrix, member_by_member(word_only_broken)):
        monkeypatch.setattr(rw, "induced_matrix", functor)
        for k, (gens, C, A) in enumerate(cases):
            got = verify_projective(spec, ctx, gens, C, A, rng=random.Random(k))
            want = _reference_verify(spec, ctx, gens, C, A, random.Random(k), functor)
            assert got == want
            details.add(getattr(got, "detail", "verified"))
    assert "verified" in details
    assert any(x.startswith("generator") for x in details)
    assert any(x.startswith("word check") and x != "word check 0 failed" for x in details)


def _short_generator(publics, frame, pre):
    n = publics[0].shape[0]
    return [publics[0], Matrix.identity(CTX73.base, n - 1)], frame, pre


def _generators_over_the_extension(publics, frame, pre):
    return [embed_matrix(CTX73, g) for g in publics], frame, pre


def _wide_preimage(publics, frame, pre):
    return publics, frame, [pre[0], Matrix.identity(CTX73.ext, CTX73.d + 1)]


def _wide_frame(publics, frame, pre):
    return publics, Matrix.identity(CTX73.ext, frame.shape[0] + 1), pre


@pytest.mark.parametrize(
    "malform,error",
    [
        (_short_generator, ShapeMismatch),
        (_generators_over_the_extension, FieldMismatch),
        (_wide_preimage, ShapeMismatch),
        (_wide_frame, ShapeMismatch),
    ],
)
def test_verify_malformed_inputs_raise_typed_errors(malform, error):
    """Matrices of the wrong shape or field are errors, not verdicts; the
    batched word products would otherwise stop in numpy with a ValueError
    or IndexError."""
    spec = spec_of("sym(2)")
    publics, T, gens = planted(CTX73, spec, seed=9)
    frame = embed_matrix(CTX73, T).inv()
    pre = [embed_matrix(CTX73, g) for g in gens]
    with pytest.raises(error):
        verify_projective(spec, CTX73, *malform(publics, frame, pre))


def test_verify_rejects_a_spec_off_the_tower():
    """A genuine result checked under a spec whose q is not the tower's is an
    error, not a verdict: sym(2)@0 does not read q, so the check would pass."""
    spec = spec_of("sym(2)")
    publics, T, gens = planted(CTX73, spec, seed=9)
    frame, pre = embed_matrix(CTX73, T).inv(), [embed_matrix(CTX73, g) for g in gens]
    assert isinstance(verify_projective(spec, CTX73, publics, frame, pre), Verified)
    with pytest.raises(InvalidInput, match="does not match the field tower"):
        verify_projective(spec_of("sym(2)", q=11), CTX73, publics, frame, pre)


def test_verify_rejects_count_mismatch():
    spec = spec_of("sym(2)")
    publics, T, gens = planted(CTX73, spec, seed=10)
    frame = embed_matrix(CTX73, T).inv()
    v = verify_projective(spec, CTX73, publics, frame, [embed_matrix(CTX73, gens[0])])
    assert isinstance(v, Refuted)


# -- the full pipeline --------------------------------------------------------------------


def assert_result_is_sound(res, spec, ctx, publics):
    assert isinstance(res, RewriteResult)
    pats = sorted(aggregated_patterns(spec))
    assert sorted(c for c, _ in res.labels) == pats
    for c, lam in res.labels:
        assert ctx.ext.pow(res.omega, phi(c, ctx.q, ctx.d)) == lam
    v = verify_projective(spec, ctx, publics, res.C, res.preimages)
    assert isinstance(v, Verified)
    assert v.scalars == res.scalars


@pytest.mark.parametrize(
    "text,p,d",
    [
        ("sym(2)", 7, 3),
        ("sym(3)", 7, 3),
        ("sym(2)@1", 7, 3),
        ("ext(2)", 7, 4),
        ("ext(3)", 7, 4),
        ("sym(2),ext(3)@1", 7, 3),
    ],
)
def test_round_trip_families(text, p, d):
    ctx = field_ctx(p, 1, d)
    spec = parse_module_spec(text, q=p, d=d)
    publics, _, _ = planted(ctx, spec, seed=1)
    res = rewrite(spec, publics, ctx, RewriteConfig(rng_seed=2))
    assert_result_is_sound(res, spec, ctx, publics)


def test_round_trip_with_prime_power_base():
    ctx = field_ctx(3, 2, 2)
    spec = parse_module_spec("sym(2)", q=9, d=2)
    publics, _, _ = planted(ctx, spec, seed=1)
    res = rewrite(spec, publics, ctx, RewriteConfig(rng_seed=0))
    assert_result_is_sound(res, spec, ctx, publics)


TORUS = [
    ("nat", 7, 1, 3, "aed6e410cfad3f7dedda840e5b3dca53b5172f261e03118b6a365bf541f15e9a"),
    ("sym(2)", 7, 1, 3, "5067062d266a62eeae9464d6f97e2f793e1c574a1ae8bb64edd1d9cc0c273d6f"),
    ("sym(2)@1", 7, 1, 3, "9d3d9dc8f9c647522f7c439616390f01278d64b50fcd22e2b7c314ebe8a063dc"),
    ("ext(2)", 7, 1, 4, "a030ec1cb909005cac94fcaed4a55efffd76623dc2e34a04705ba44cc3d4e4ae"),
    ("ext(3)", 7, 1, 4, "b7ed39f896c134cde047d9f70b192cc079e475d221bcefb3ed6dfa3902295a27"),
    ("ext(2)", 3, 2, 4, "f62274a4f5c2dae45ff133fc23c23c17a7786d9f720a6dc56aa23cc7d9e21a87"),
]


@pytest.mark.parametrize(
    "text,p,f,d,digest", TORUS, ids=["nat", "sym2", "sym2tw1", "ext2_q7d4", "ext3_q7d4", "ext2_q9d4"]
)
def test_round_trip_inside_the_torus(text, p, f, d, digest):
    """Generators that are powers of the hidden element leave every
    observation diagonal; the pipeline must still recover preimages, with
    the result JSON bytes pinned."""
    ctx = field_ctx(p, f, d)
    spec = spec_of(text, q=ctx.q, d=d)
    s = make_singer(ctx, 6)
    rng = random.Random(17)
    T = random_invertible(ctx.base, dim(spec), rng)
    S5 = ffield.power(s.S, 5, operator.matmul, Matrix.identity(ctx.base, d))
    publics = [T @ induced_matrix(spec, S) @ T.inv() for S in (s.S, S5)]
    res = rewrite(spec, publics, ctx, RewriteConfig(rng_seed=3))
    assert_result_is_sound(res, spec, ctx, publics)
    blob = json.dumps(result_to_dict(res, p, f), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _det_one_instance(ctx, spec, seed):
    """Three random secrets, each with its first row scaled by det^-1, so the
    group lies in SL_d(q) and holds no element with a primitive omega; their
    images are conjugated by a random T. Two random elements of SL_3(5) can
    generate a subgroup of order prime to (5^3 - 1)/(5 - 1) = 31, which holds
    no element whose spectrum is a model at all; a third makes that rare."""
    F = ctx.base
    rng = random.Random(repr(("det-one", spec.text(), seed)))
    secrets = []
    for _ in range(3):
        rows = random_invertible(F, ctx.d, rng).tolist()
        scale = F.inv(Matrix.from_rows(F, rows).det())
        rows[0] = [F.mul(scale, x) for x in rows[0]]
        secrets.append(Matrix.from_rows(F, rows))
    T = random_invertible(F, dim(spec), rng)
    publics = tuple(T @ induced_matrix(spec, A) @ T.inv() for A in secrets)
    return PlantedInstance(ctx.p, ctx.f, ctx.d, spec, publics, Oracle(tuple(secrets), T, seed))


@pytest.mark.parametrize("text,q,d", [("sym(2)", 7, 3), ("ext(2)", 9, 4), ("nat", 5, 3)])
def test_round_trip_in_a_determinant_restricted_group(text, q, d):
    """Inside SL_d(q) an omega whose model matches has norm 1 or -1 in these
    families, so none is primitive: a search that kept only primitive ones
    spent its whole budget. Now at least 19 of 20 seeds verify, every
    returned result is sound, and each is refuted on a tampered copy."""
    ctx = field_ctx(*prime_power(q), d)
    spec = spec_of(text, q=q, d=d)
    verified = 0
    for seed in range(20):
        inst = _det_one_instance(ctx, spec, seed)
        assert all(A.det() == 1 for A in inst.oracle.A)
        publics = list(inst.generators)
        res = rewrite(spec, publics, ctx, RewriteConfig(rng_seed=seed))
        if isinstance(res, Failure):
            continue
        assert_result_is_sound(res, spec, ctx, publics)
        assert not is_primitive(ctx.ext, res.omega)
        assert isinstance(oracle_check(inst), Consistent)
        bad = list(tamper(inst, seed=seed).generators)
        assert isinstance(verify_projective(spec, ctx, bad, res.C, res.preimages), Refuted)
        verified += 1
    assert verified >= 19, f"only {verified}/20 verified"


def test_rewrite_takes_no_discrete_log_and_no_primitivity_test(monkeypatch):
    """Planted sym(2) over an untabled F_{17^4} and an unplanted ext(2) search
    over F_{9^4} rewrite and verify with discrete_log, is_primitive and
    Field.generator all raising."""
    cases = []
    for text, p, f, d, plant in [("sym(2)", 17, 1, 4, True), ("ext(2)", 3, 2, 4, False)]:
        ctx = field_ctx(p, f, d)
        spec = spec_of(text, q=ctx.q, d=d)
        cases.append((spec, ctx, list(gen_instance(ctx, spec, 2, seed=0, plant_singer=plant).generators)))

    def refuse(*args):
        raise AssertionError("rewrite reached a discrete log or a primitivity test")

    monkeypatch.setattr(ffield, "discrete_log", refuse)
    monkeypatch.setattr(ffield, "is_primitive", refuse)
    monkeypatch.setattr(Field, "generator", property(refuse))
    for spec, ctx, publics in cases:
        res = rewrite(spec, publics, ctx, RewriteConfig(rng_seed=0))
        assert_result_is_sound(res, spec, ctx, publics)


@pytest.mark.parametrize("q,d", [(65537, 3), (2**31 - 1, 2), (2**31 - 1, 3), (1009, 5)])
def test_round_trip_past_the_old_discrete_log_limit(q, d):
    """Each of these towers has q^d > 2^48, where the discrete log behind the
    root step refused with CapacityExceeded; the root step takes none now."""
    ctx = field_ctx(*prime_power(q), d)
    spec = spec_of("sym(2)", q=q, d=d)
    assert ctx.ext.order > 2**48
    for seed in range(3):
        inst = gen_instance(ctx, spec, 2, seed=seed)
        res = rewrite(spec, list(inst.generators), ctx, RewriteConfig(rng_seed=seed))
        assert_result_is_sound(res, spec, ctx, list(inst.generators))
        assert isinstance(oracle_check(inst), Consistent)


def test_rewrite_is_deterministic():
    spec = spec_of("sym(2)")
    publics, _, _ = planted(CTX73, spec, seed=12)
    a = rewrite(spec, publics, CTX73, RewriteConfig(rng_seed=4))
    b = rewrite(spec, publics, CTX73, RewriteConfig(rng_seed=4))
    assert a.omega == b.omega and a.C == b.C and a.preimages == b.preimages


def test_failure_is_a_value_not_a_lie():
    """A group with no primitive-spectrum element exhausts the budget and
    reports Failure instead of inventing an answer."""
    spec = spec_of("sym(2)")
    n = dim(spec)
    publics = [Matrix.identity(CTX73.base, n), Matrix.identity(CTX73.base, n)]
    res = rewrite(spec, publics, CTX73, RewriteConfig(rng_seed=0))
    assert isinstance(res, Failure)
    assert res.stats.elements_sampled > 0


def test_rejects_module_with_repeated_pattern():
    spec = spec_of("nat,nat@1")
    rng = random.Random(2)
    gens = [random_invertible(CTX73.base, 3, rng) for _ in range(2)]
    T = random_invertible(CTX73.base, 9, rng)
    publics = [T @ induced_matrix(spec, g) @ T.inv() for g in gens]
    with pytest.raises(ConstraintViolation, match="not multiplicity free"):
        rewrite(spec, publics, CTX73, RewriteConfig())


def test_rejects_unsupported_wedge():
    ctx = field_ctx(7, 1, 5)
    spec = parse_module_spec("ext(2)", q=7, d=5)
    publics, _, _ = planted(ctx, spec, seed=0)
    with pytest.raises(UnsupportedFactor):
        rewrite(spec, publics, ctx, RewriteConfig())


def test_rejects_wrong_dimension():
    spec = spec_of("sym(2)")
    with pytest.raises(InvalidInput):
        rewrite(spec, [Matrix.identity(CTX73.base, 5)], CTX73, RewriteConfig())


def test_config_validation():
    with pytest.raises(InvalidInput):
        RewriteConfig(eps=0.0)
    with pytest.raises(InvalidInput):
        RewriteConfig(eps=1.5)
    assert RewriteConfig(eps=0.5).max_element_trials >= 8
    assert RewriteConfig(eps=0.01).max_element_trials == 56
    # log2(1 / eps) overflowed here: 1 / eps is inf for a subnormal eps
    assert RewriteConfig(eps=5e-324).max_element_trials == 8592


@pytest.mark.parametrize(
    "p,f,d,text",
    [(17, 1, 4, "sym(2)"), (3, 2, 4, "ext(2)"), (7, 1, 3, "sym(2)@1")],
    ids=["sym2_q17_d4", "ext2_q9_d4", "sym2tw_q7_d3"],
)
def test_orbit_eigenrows_equal_per_eigenvalue_kernels(p, f, d, text, monkeypatch):
    """build_eigenbasis takes no kernel, its rows equal the normalized
    kernel row of each label's own eigenvalue, and the inverse it returns is
    the frame's inverse."""
    ctx = field_ctx(p, f, d)
    spec = spec_of(text, q=ctx.q, d=d)
    s = make_singer(ctx, 1)
    w = induced_matrix(spec, s.S)
    W = embed_matrix(ctx, w)
    eye = Matrix.identity(ctx.ext, W.shape[0])
    lams = [lam for _, lam in model_spectrum(spec, ctx, s.omega)]
    want = []
    for lam in lams:
        (row,) = kernel_basis(W.transpose() - eye.scale(lam))
        lead = next(x for x in row if x)
        want.append([ctx.ext.div(x, lead) for x in row])

    rw = importlib.import_module("singerlab.rewrite")
    calls = []
    monkeypatch.setattr(rw, "kernel_basis", lambda A: calls.append(A) or kernel_basis(A))
    C0, C0_inv = eigenbasis(ctx, w, spec, s.omega)
    assert C0.tolist() == want
    assert calls == [] and C0_inv == C0.inv()


def _kernel_rows(ctx, w, spec, omega):
    """The left eigenrow of each label's eigenvalue, one kernel each, scaled to leading entry 1."""
    W = embed_matrix(ctx, w)
    eye = Matrix.identity(ctx.ext, W.shape[0])
    rows = []
    for _, lam in model_spectrum(spec, ctx, omega):
        (row,) = kernel_basis(W.transpose() - eye.scale(lam))
        lead = next(x for x in row if x)
        rows.append([ctx.ext.div(x, lead) for x in row])
    return rows


@pytest.mark.parametrize(
    "p,f,d,text",
    [(5, 1, 6, "sym(2)"), (7, 1, 4, "ext(3)"), (5, 1, 3, "nat"), (7, 1, 3, "sym(2)@1")],
    ids=["sym2_q5_d6", "ext3_q7_d4", "nat_q5_d3", "sym2tw_q7_d3"],
)
def test_projector_frame_equals_kernel_rows_and_inverse(p, f, d, text, monkeypatch):
    """The rows read off the rank-one projectors chi(W)/(W - lam) are the
    normalized per-eigenvalue kernel rows, the columns form exactly the
    frame's inverse, and no elimination runs to get them."""
    ctx = field_ctx(p, f, d)
    spec = spec_of(text, q=ctx.q, d=d)
    s = make_singer(ctx, 2)
    w = induced_matrix(spec, s.S)
    want = _kernel_rows(ctx, w, spec, s.omega)

    def no_elimination(M):
        raise AssertionError(f"elimination over {M.field!r}")

    monkeypatch.setattr(Matrix, "rref", no_elimination)
    C0, C0_inv = eigenbasis(ctx, w, spec, s.omega)
    monkeypatch.undo()
    assert C0.tolist() == want
    assert C0_inv == C0.inv()


def test_a_wrong_omega_ends_the_attempt():
    """Labels off the candidate's spectrum raise _Degenerate, never an
    IndexError or a DivisionByZero: omega = 1 repeats one label, and an
    omega with distinct labels outside the spectrum leaves a remainder when
    chi is divided by x - lam."""
    rw = importlib.import_module("singerlab.rewrite")
    spec = spec_of("sym(2)")
    s = make_singer(CTX73, 4)
    w = induced_matrix(spec, s.S)
    labels = lambda omega: [lam for _, lam in model_spectrum(spec, CTX73, omega)]
    eigs = set(labels(s.omega))
    with pytest.raises(rw._Degenerate, match="repeat"):
        eigenbasis(CTX73, w, spec, 1)
    wrong = [x for x in range(2, 60) if len(set(labels(x))) == dim(spec) and set(labels(x)) != eigs]
    assert len(wrong) >= 10
    for omega in wrong[:10]:
        with pytest.raises(rw._Degenerate, match="not an eigenvalue"):
            eigenbasis(CTX73, w, spec, omega)


@pytest.mark.parametrize(
    "p,f,d,text,plant",
    [(3, 2, 4, "ext(2)", False), (17, 1, 4, "sym(2)", True)],
    ids=["search_ext2_q9", "untabled_sym2_q17"],
)
def test_rewrite_inverts_no_extension_matrix(p, f, d, text, plant, monkeypatch):
    """The frame's inverse comes with the frame, so the only inverses in a
    rewrite are the sampler's, of the generators over F_q."""
    ctx = field_ctx(p, f, d)
    spec = spec_of(text, q=ctx.q, d=d)
    inst = gen_instance(ctx, spec, 2, seed=1, plant_singer=plant)
    fields = []
    inv = Matrix.inv
    monkeypatch.setattr(Matrix, "inv", lambda M: fields.append(M.field) or inv(M))
    res = rewrite(spec, list(inst.generators), ctx, RewriteConfig(rng_seed=1))
    assert isinstance(res, RewriteResult)
    assert ctx.base in fields and ctx.ext not in fields


# -- the exact frame: theta as a vector, extraction without a fallback ----------------


def _dense_diag(F, values):
    rows = Matrix.zeros(F, len(values), len(values)).tolist()
    for i, v in enumerate(values):
        rows[i][i] = v
    return Matrix.from_rows(F, rows)


@pytest.mark.parametrize(
    "p,f,d,text",
    [(17, 1, 4, "sym(2)"), (7, 1, 3, "sym(3)"), (3, 2, 4, "ext(2)"), (7, 1, 3, "sym(2)@1")],
    ids=["sym2_q17_d4", "sym3_q7_d3", "ext2_q9_d4", "sym2tw_q7_d3"],
)
def test_vector_calibration_matches_a_dense_diagonal_reference(p, f, d, text, monkeypatch):
    """rewrite calibrates each observation entrywise, O[i, j] * theta_j /
    theta_i, and folds theta into the frame by scaling the rows of C0. A
    dense diag(theta), inverted by elimination, gives the same calibrated
    observations and the same frame twist(diag theta)^-1 @ C0."""
    ctx = field_ctx(p, f, d)
    spec = spec_of(text, q=ctx.q, d=d)
    factor = spec.factors[0]
    publics, _, _ = planted(ctx, spec, seed=3)
    rw = importlib.import_module("singerlab.rewrite")
    seen = {}

    def spy(name, keep):
        original = getattr(rw, name)

        def wrapped(*args):
            out = original(*args)
            keep(args, out)
            return out

        monkeypatch.setattr(rw, name, wrapped)

    spy("build_eigenbasis", lambda args, out: seen.update(C0=out[0], N=[]))
    spy("_calibrate", lambda args, theta: seen.update(observations=list(args[2]), theta=theta))
    spy("reconstruct_generator", lambda args, _: seen["N"].append(args[0]))
    res = rewrite(spec, publics, ctx, RewriteConfig(rng_seed=1))
    assert isinstance(res, RewriteResult)

    theta, n = seen["theta"], dim(spec)
    assert len(theta) == n and all(theta) and set(theta) != {1}
    Theta = _dense_diag(ctx.ext, theta)
    assert seen["N"] == [Theta.inv() @ O @ Theta for O in seen["observations"]]
    assert res.C == twist_matrix(Theta, ctx.q, factor.twist).inv() @ seen["C0"]


def _normalized(M):
    lead = next(int(x) for x in M.a.ravel() if x)
    return M.scale(M.field.inv(lead))


def _sparse_invertibles(F, d, rng):
    """A permutation times a diagonal, an upper triangular and a companion matrix."""
    nonzero = lambda: rng.randrange(1, F.order)
    PD = Matrix.zeros(F, d, d).tolist()
    for i, j in enumerate(rng.sample(range(d), d)):
        PD[i][j] = nonzero()
    U = Matrix.zeros(F, d, d).tolist()
    for i in range(d):
        U[i][i] = nonzero()
        U[i][i + 1 :] = [rng.randrange(F.order) for _ in range(d - 1 - i)]
    PD, U = Matrix.from_rows(F, PD), Matrix.from_rows(F, U)
    comp = companion_matrix(F, [nonzero()] + [rng.randrange(F.order) for _ in range(d - 1)] + [1])
    return [PD, U, comp]


@pytest.mark.parametrize("text", ["nat", "sym(2)", "sym(3)", "ext(2)", "ext(3)"])
def test_extraction_never_fails_on_a_genuine_image(text):
    """reconstruct_generator on mu * F(t^-1 B t), with B invertible and t in
    the torus, returns t^-1 B t normalized: the docstring's argument, which is
    why rewrite ends an attempt on an extraction failure instead of trying
    word products. Sparse B gives images full of zeros."""
    ctx = field_ctx(7, 1, 4)
    ext = ctx.ext
    spec = spec_of(text, d=4)
    rng = random.Random(repr(("genuine", text)))
    Bs = [random_invertible(ext, 4, rng) for _ in range(6)]
    for _ in range(4):
        Bs += _sparse_invertibles(ext, 4, rng)
    for B in Bs:
        t = [rng.randrange(1, ext.order) for _ in range(4)]
        A = _dense_diag(ext, [ext.inv(x) for x in t]) @ B @ _dense_diag(ext, t)
        N = induced_matrix(spec, A).scale(rng.randrange(1, ext.order))
        assert reconstruct_generator(N, spec.factors[0], 4) == _normalized(A)


def test_a_zero_observation_ratio_ends_the_attempt(monkeypatch):
    """On this tampered instance an observation is zero where the extracted
    candidate's image is not. Rescaling used to divide by that zero and let
    DivisionByZero escape rewrite; now the attempt ends and rewrite reports
    a Failure."""
    ctx = field_ctx(5, 1, 3)
    spec = spec_of("sym(2)@0", q=5, d=3)
    inst = tamper(gen_instance(ctx, spec, 2, seed=20), seed=20)
    rw = importlib.import_module("singerlab.rewrite")
    raised = []

    def spy(*args):
        try:
            return reconstruct_generator(*args)
        except rw._Degenerate as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(rw, "reconstruct_generator", spy)
    res = rewrite(spec, list(inst.generators), ctx, RewriteConfig(rng_seed=20))
    assert isinstance(res, Failure)
    assert any("zero where" in r for r in raised)


def test_rejects_a_singular_generator():
    spec = spec_of("sym(2)")
    publics, _, _ = planted(CTX73, spec, seed=0)
    rows = publics[1].tolist()
    rows[2] = [0] * len(rows[2])
    singular = Matrix.from_rows(CTX73.base, rows)
    with pytest.raises(InvalidInput, match="generator images must be invertible"):
        rewrite(spec, [publics[0], singular], CTX73, RewriteConfig())
