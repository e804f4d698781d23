"""Las Vegas recovery of a spectral frame and generator preimages.

The input is a list of invertible matrices over F_q that are, projectively,
the images of unknown d x d generators under an induced tensor functor,
conjugated by an unknown change of basis. The output is a frame C over
F_{q^d}, an element omega whose digit model labels the spectrum (not
always primitive: SL_d(q) has no primitive one), and for every input
generator a d x d preimage A with

    induced(spec, A) = mu * C @ M @ C^{-1}

holding exactly for some scalar mu. Randomness only affects running time
and the chance of an explicit Failure report, never the correctness of a
returned result: every result passes an exact proportionality check before
it is handed back.

The pipeline: sample group elements until one has a simple, fully split
spectrum matching the digit model of some omega (find_singer_candidate,
recover_omega; no discrete log), read the eigenrow frame and its inverse off
one rank-one projector chi(W)/(W - lam) per Frobenius orbit
(build_eigenbasis; no elimination), cancel the residual diagonal ambiguity
so observations become exact functor images of d x d matrices (calibration),
then read preimages off entry ratios or wedge kernels (reconstruct_generator).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import time
from dataclasses import dataclass

import numpy as np

from .digitmap import DigitVector, phi
from .errors import InvalidInput, ShapeMismatch, SingularMatrix, UnsupportedFactor
from .ffield import DensePoly, Field, FieldCtx, _QuotientRing, factorint, nth_roots, poly_divmod, poly_mod, roots_in_extension
from .matfq import (
    Matrix,
    char_poly,
    compound_matrix,
    embed_matrix,
    intertwining_scalars,
    kernel_basis,
    stack,
    symmetric_power,
    vstack,
    word_products,
)
from .schur import (
    FactorSpec,
    ModuleSpec,
    aggregated_patterns,
    dim,
    factor_dim,
    factor_labels,
    induced_matrix,
    require_images,
    require_supported,
    twist_matrix,
)

# Caps that turn pathological inputs into clean failures instead of stalls:
# candidate roots enumerated per eigenvalue hypothesis, and extra random
# observations a calibration may request before giving up on the attempt.
ROOT_ENUM_CAP = 4096
OBSERVATION_CAP = 24

# Random words: lengths drawn uniformly from WORD_LENGTHS, VERIFICATION_WORDS
# of them checked per verification, and SAMPLER_WARMUP product-replacement
# steps before the first draw.
WORD_LENGTHS = (2, 16)
VERIFICATION_WORDS = 20
SAMPLER_WARMUP = 20


class _Degenerate(Exception):
    """Internal: sampled data lacked a nonzero entry or rank a step needs."""


@dataclass(frozen=True)
class RewriteConfig:
    """Tuning knobs. eps bounds the failure probability on valid input;
    the trial budget grows logarithmically with 1/eps."""

    eps: float = 0.01
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1.0):
            raise InvalidInput("eps must lie strictly between 0 and 1")

    @property
    def max_element_trials(self) -> int:
        return max(8, math.ceil(-math.log2(self.eps)) * 8)


@dataclass
class RewriteStats:
    elements_sampled: int = 0
    dlog_calls: int = 0
    retries: int = 0
    wall_time: float = 0.0


@dataclass
class RewriteResult:
    spec: ModuleSpec
    omega: int
    C: Matrix
    labels: tuple[tuple[DigitVector, int], ...]
    preimages: tuple[Matrix, ...]
    scalars: tuple[int, ...]
    stats: RewriteStats


@dataclass
class Failure:
    reason: str
    stats: RewriteStats


@dataclass(frozen=True)
class Verified:
    scalars: tuple[int, ...]


@dataclass(frozen=True)
class Refuted:
    detail: str


# ---------------------------------------------------------------------------
# random group elements
# ---------------------------------------------------------------------------


class ElementSampler:
    """Product replacement walk over the group the inputs generate.

    Keeps a pool of at least five slots plus an accumulator; each draw
    replaces one slot with its product by another slot (or its inverse) on
    a random side and advances the accumulator through it. Every slot
    carries its inverse, updated by one product per step, so a step never
    inverts a matrix.
    """

    def __init__(self, generators: list[Matrix], rng: random.Random):
        if not generators:
            raise InvalidInput("need at least one generator to sample from")
        inverses = [g.inv() for g in generators]
        cycle = [i % len(generators) for i in range(max(5, len(generators)))]
        self._slots = [generators[i].copy() for i in cycle]
        self._invs = [inverses[i] for i in cycle]
        self._acc = Matrix.identity(generators[0].field, generators[0].shape[0])
        self._rng = rng
        for _ in range(SAMPLER_WARMUP):
            self._step()

    def _step(self) -> None:
        rng = self._rng
        n = len(self._slots)
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        other, other_inv = self._slots[j], self._invs[j]
        if rng.random() < 0.5:
            other, other_inv = other_inv, other
        if rng.random() < 0.5:
            self._slots[i] = self._slots[i] @ other
            self._invs[i] = other_inv @ self._invs[i]
        else:
            self._slots[i] = other @ self._slots[i]
            self._invs[i] = self._invs[i] @ other_inv
        self._acc = self._acc @ self._slots[i]

    def draw(self) -> Matrix:
        self._step()
        return self._acc.copy()


# ---------------------------------------------------------------------------
# spectrum labeling
# ---------------------------------------------------------------------------


def _matching_model(rho: int, patterns: list[DigitVector], exponents: list[int], eigenvalues: set[int], ext):
    """The model (c, rho^phi(c)) in label order if its values are exactly
    the n distinct eigenvalues, else None: it stops at the first value that
    is no eigenvalue or repeats one."""
    labels: list[tuple[DigitVector, int]] = []
    seen: set[int] = set()
    for c, e in zip(patterns, exponents):
        v = ext.pow(rho, e)
        if v not in eigenvalues or v in seen:
            return None
        seen.add(v)
        labels.append((c, v))
    return tuple(labels)


def recover_omega(
    eigenvalues: list[int],
    spec: ModuleSpec,
    ctx: FieldCtx,
    stats: RewriteStats | None = None,
) -> tuple[int, tuple[tuple[DigitVector, int], ...]] | None:
    """The first omega with {omega^phi(c)} equal to the given eigenvalue set
    (a model with two patterns on one value never is), trying each
    eigenvalue as the image of the lex-greatest pattern c0: the candidates
    are its phi(c0)-th roots. The set is Frobenius stable and the model of
    rho^q is the q-th power of rho's, so a failed eigenvalue's whole orbit
    fails and is skipped. Returns (omega, labels), labels being its model
    (c, omega^phi(c)) in label order as schur.model_spectrum lists it, or
    None."""
    ext = ctx.ext
    n1 = ext.order - 1
    patterns = list(aggregated_patterns(spec))
    n = len(patterns)
    if len(eigenvalues) != n or len(set(eigenvalues)) != n or len(set(patterns)) != n:
        return None
    exponents = [phi(c, ctx.q, ctx.d) for c in patterns]
    e0 = phi(max(patterns), ctx.q, ctx.d)
    if e0 == 0 or math.gcd(e0, n1) > ROOT_ENUM_CAP:
        return None
    want = set(eigenvalues)
    failed: set[int] = set()
    for lam in eigenvalues:
        if lam in failed:
            continue
        if stats is not None:
            stats.dlog_calls += 1
        for rho in nth_roots(ext, e0, lam):
            labels = _matching_model(rho, patterns, exponents, want, ext)
            if labels is not None:
                return rho, labels
        while lam not in failed:
            failed.add(lam)
            lam = ctx.frobenius(lam, 1)
    return None


def _ppd_exponent(ctx: FieldCtx, patterns: list[DigitVector]) -> int | None:
    """(q^d-1)/r for a prime r dividing q^d-1 but no earlier q^i-1, provided
    the digit model does not kill r on every pattern. Used only as a cheap
    rejection filter: it never excludes a candidate whose omega has order
    divisible by (q^d-1)/(q-1), as for a Singer cycle of any group between
    SL_d(q) and GL_d(q), since r does not divide q-1."""
    n1 = ctx.ext.order - 1
    for r in sorted(factorint(n1)):
        if any((ctx.q**i - 1) % r == 0 for i in range(1, ctx.d)):
            continue
        if any(phi(c, ctx.q, ctx.d) % r for c in patterns):
            return n1 // r
        return None
    return None


def _divides_torus_poly(F: Field, chi: DensePoly, n1: int, ppd_e: int | None) -> bool:
    """chi | x^n1 - 1 and, given a ppd exponent e, chi does not divide
    x^e - 1: both decided by powers of x in one ring F[x]/(chi)."""
    ring = _QuotientRing(F, chi)
    x, one = ring.lift(poly_mod(F, (0, 1), chi)), ring.lift((1,))
    if ppd_e is None:
        return np.array_equal(ring.pow(x, n1), one)
    P = ring.pow(x, ppd_e)
    return not np.array_equal(P, one) and np.array_equal(ring.pow(P, n1 // ppd_e), one)


def find_singer_candidate(
    publics: list[Matrix],
    spec: ModuleSpec,
    ctx: FieldCtx,
    sampler: ElementSampler,
    budget: int,
    stats: RewriteStats,
    try_generators: bool = True,
) -> tuple[Matrix, DensePoly, int, tuple[tuple[DigitVector, int], ...]] | None:
    """Search the group for an element with simple, fully split spectrum
    matching the digit model of some omega. Generators are tried before random
    words since a planted instance often exposes one directly. Returns the
    element, its characteristic polynomial over F_q, omega and its labels
    (recover_omega), or None.

    Rejection runs over F_q, on the characteristic polynomial chi of m.
    With N = q^d - 1 prime to p, x^N - 1 is squarefree and its roots are
    exactly F_{q^d}^x, so chi | x^N - 1 says that the spectrum splits into
    n simple nonzero roots there; chi is then m's minimal polynomial too.
    With r the ppd prime behind _ppd_exponent, chi | x^(N/r) - 1 says every
    eigenvalue lies in the index-r subgroup of F_{q^d}^x (the ppd
    rejection). Only elements that pass both pay for root finding over
    F_{q^d}."""
    n1 = ctx.ext.order - 1
    patterns = list(aggregated_patterns(spec))
    ppd_e = _ppd_exponent(ctx, patterns)
    sources = itertools.chain(iter(publics) if try_generators else iter(()), iter(sampler.draw, None))
    for m in itertools.islice(sources, budget):
        stats.elements_sampled += 1
        cp = char_poly(m)
        if not _divides_torus_poly(m.field, cp, n1, ppd_e):
            continue
        eigs = [lam for lam, _ in roots_in_extension(ctx, cp)]
        got = recover_omega(eigs, spec, ctx, stats)
        if got is not None:
            return m, cp, *got
    return None


# ---------------------------------------------------------------------------
# eigenbasis
# ---------------------------------------------------------------------------


def build_eigenbasis(
    ctx: FieldCtx, element: Matrix, chi: DensePoly, labels: tuple[tuple[DigitVector, int], ...]
) -> tuple[Matrix, Matrix]:
    """The frame C0 over F_{q^d} of the element W over F_q, one left
    eigenrow of W per label (c, lam) in label order, each scaled to leading
    entry 1, and C0^-1, whose columns are the matching right eigencolumns v
    with row @ v = 1. chi is W's characteristic polynomial over F_q, and
    labels are the model of some omega, as recover_omega returns them.

    No elimination: for n distinct roots lam of chi, g = chi / (x - lam)
    makes g(W) a nonzero multiple of v @ row, the rank-one
    Lagrange-Sylvester projector (Horn & Johnson 1991, 6.1), and g(W) is
    g's coefficient row times S, the rows W^k flattened. One projector per
    q-power Frobenius orbit: W is over F_q, so row^(q) @ W = lam^q *
    row^(q) entrywise, and normalized eigenvectors of one-dimensional
    eigenspaces are unique, so the orbit's other rows and columns are the
    q-powers of the first."""
    ext, n = ctx.ext, element.shape[0]
    W = embed_matrix(ctx, element)
    chi = ctx.embed_poly(chi)
    powers = itertools.accumulate([element] * (n - 1), operator.matmul, initial=Matrix.identity(element.field, n))
    S = embed_matrix(ctx, vstack([Matrix(element.field, P.D.reshape(-1, 1, n * n)) for P in powers]))
    lams = [lam for _, lam in labels]
    if len(set(lams)) != n:
        raise _Degenerate("the labels repeat an eigenvalue")
    frame: dict[int, tuple[Matrix, Matrix]] = {}  # lam -> (eigenrow, eigencolumn as a row)
    for lam in lams:
        if lam in frame:
            continue
        g, rem = poly_divmod(ext, chi, (ext.neg(lam), 1))
        if rem:
            raise _Degenerate("a label is not an eigenvalue of the candidate")
        G = (Matrix.from_rows(ext, [g]) @ S).D.reshape(-1, n, n)
        row = _normalize_first(Matrix(ext, G[:, [G.any((0, 2)).argmax()]]))
        col = Matrix(ext, G[:, None, :, G.any((0, 1)).argmax()])
        pair = (row, col.scale(ext.inv(int((row @ col.transpose()).a[0, 0]))))
        while lam not in frame:
            frame[lam] = pair
            lam, pair = ctx.frobenius(lam, 1), tuple(twist_matrix(M, ctx.q, 1) for M in pair)
    C0, C0_inv = (vstack([frame[lam][i] for lam in lams]) for i in (0, 1))
    if C0 @ W != C0.scale(np.array(lams)[:, None]):
        raise _Degenerate("eigenrow stack does not diagonalize the candidate")
    return C0, C0_inv.transpose()


# ---------------------------------------------------------------------------
# frame calibration
# ---------------------------------------------------------------------------


def _factor_plan(spec: ModuleSpec) -> tuple[int, FactorSpec]:
    """The factor whose preimage gets reconstructed: the unique one of
    dimension > 1. Multiplicity freeness forces uniqueness, since swapping
    two symbols inside one of two big factors and compensating in the other
    repeats a pattern."""
    for i, f in enumerate(spec.factors):
        if factor_dim(f, spec.d) > 1:
            return i, f
    raise UnsupportedFactor("every factor is one dimensional; nothing to reconstruct")


def _check_supported(spec: ModuleSpec, f: FactorSpec) -> None:
    if f.kind == "ext" and f.k not in (1, spec.d - 1) and not (f.k == 2 and spec.d == 4):
        raise UnsupportedFactor(f"no frame correction rule for {f.text()} at d={spec.d}")


def _sym_index(k: int, d: int) -> dict[DigitVector, int]:
    parts = factor_labels(FactorSpec("sym", k), d)
    return {DigitVector([part.count(i) for i in range(d)]): r for r, part in enumerate(parts)}


def _bump(m: DigitVector, src: int, dst: int) -> DigitVector:
    t = list(m)
    t[src] -= 1
    t[dst] += 1
    return DigitVector(t)


def _sym_theta_from_column(col: list[int], k: int, d: int, ext) -> list[int]:
    """Diagonal correction from one fully nonzero pure-power column.

    Gauge: the patterns with at most one non-leading symbol get 1. Every
    other pattern follows by a two-up two-down entry ratio that cancels the
    unknown global scalar, descending in the count of the leading symbol.
    """
    idx = _sym_index(k, d)
    u0 = 0
    top = DigitVector([k if i == u0 else 0 for i in range(d)])
    theta = dict.fromkeys([top] + [_bump(top, u0, v) for v in range(1, d)], 1)
    for m in sorted(idx, key=lambda t: k - t[u0]):
        if k - m[u0] <= 1:
            continue
        v = next(i for i in range(d) if i != u0 and m[i])
        prev = _bump(m, v, u0)
        num = ext.mul(col[idx[_bump(top, u0, v)]], col[idx[prev]])
        den = ext.mul(col[idx[m]], col[idx[top]])
        ratio = ext.div(num, den)
        theta[m] = ext.div(theta[prev], ratio)
    return [theta[m] for m, _ in sorted(idx.items(), key=lambda kv: kv[1])]


def _calibrate_sym(k: int, d: int, observations: list[Matrix], more, ext) -> list[int]:
    """Scan observations for a pure-power column with no zero entry; each
    one determines the correction completely."""
    idx = _sym_index(k, d)
    pure = [idx[DigitVector([k if i == j else 0 for i in range(d)])] for j in range(d)]
    for O in itertools.chain(observations, (more() for _ in range(OBSERVATION_CAP))):
        a = O.a
        for c in pure:
            col = a[:, c].tolist()
            if all(col):
                return _sym_theta_from_column(col, k, d, ext)
    raise _Degenerate("no fully nonzero pure-power column observed")


def _calibrate_wedge2(observations: list[Matrix], more, ext) -> list[int]:
    """d=4, k=2: every column of a genuine image satisfies the single
    quadratic relation among complementary entry products, with fixed
    coefficients determined by the frame. Solving the resulting linear
    system pins those coefficients; two cross ratios then rebuild a
    correction, unique up to torus factors that the preimages absorb."""
    rows: list[list[int]] = []

    def add(O: Matrix) -> None:
        a = O.a
        for c in range(6):
            p1 = ext.mul(int(a[0, c]), int(a[5, c]))
            p2 = ext.mul(int(a[1, c]), int(a[4, c]))
            p3 = ext.mul(int(a[2, c]), int(a[3, c]))
            rows.append([p1, ext.neg(p2), p3])

    for O in observations:
        add(O)
    extra = 0
    while True:
        ker = kernel_basis(Matrix.from_rows(ext, rows))
        if len(ker) == 1:
            g1, g2, g3 = ker[0]
            if not (g1 and g2 and g3):
                raise _Degenerate("degenerate quadratic relation coefficients")
            return [1, 1, 1, ext.div(g1, g3), ext.div(g1, g2), 1]
        if len(ker) == 0 or extra >= OBSERVATION_CAP:
            raise _Degenerate("quadratic relation system has no unique solution")
        add(more())
        extra += 1


def _calibrate(factor: FactorSpec, spec: ModuleSpec, observations: list[Matrix], more, ext) -> list[int]:
    """Diagonal entries theta that make every O[i, j] * theta_j / theta_i a functor image."""
    d = spec.d
    if factor.kind == "nat" or factor.k == 1 or (factor.kind == "ext" and factor.k == d - 1):
        # Identity and top-minor functors hit every diagonal from the torus
        # (for k = d-1 because gcd(d, d-1) = 1), so nothing to correct.
        return [1] * dim(spec)
    if factor.kind == "sym":
        return _calibrate_sym(factor.k, d, observations, more, ext)
    return _calibrate_wedge2(observations, more, ext)


# ---------------------------------------------------------------------------
# preimage extraction
# ---------------------------------------------------------------------------


def _normalize_first(M: Matrix) -> Matrix:
    flat = M.a.ravel()
    nz = flat.nonzero()[0]
    if len(nz) == 0:
        raise _Degenerate("zero matrix cannot be normalized")
    return M.scale(M.field.inv(int(flat[nz[0]])))


def _extract_sym(N: Matrix, k: int, d: int) -> Matrix:
    """Each pure-power column of N lists the monomials of one preimage
    column, so entry ratios against any nonzero pure entry in it recover
    that column up to scale. Cross ratios of N against the symmetric power
    of the rescaled candidate then restore the relative column scales, any
    global scalar on N cancelling."""
    ext = N.field
    idx = _sym_index(k, d)
    a = N.a
    pures = [DigitVector([k if i == j else 0 for i in range(d)]) for j in range(d)]
    cols = []
    for j in range(d):
        cj = idx[pures[j]]
        for u in range(d):
            denom = int(a[idx[pures[u]], cj])
            if denom:
                break
        else:
            raise _Degenerate("pure-power column with no nonzero pure entry")
        col = [
            1 if v == u else ext.div(int(a[idx[_bump(pures[u], u, v)], cj]), denom)
            for v in range(d)
        ]
        cols.append(col)
    X = Matrix.from_rows(ext, cols).transpose()
    top = pures[0]
    return _rescale_columns(N, X, symmetric_power(X, k), [(idx[top], idx[_bump(top, 0, j)]) for j in range(1, d)])


def _extract_wedge(N: Matrix, k: int, d: int) -> Matrix:
    """Wedge kernels: column C of N is a scaled decomposable k-vector, and
    x ^ w_C = 0 for every C containing i cuts the preimage column i out as
    a one dimensional kernel. Complementary minor ratios then restore the
    relative column scales."""
    ext = N.field
    labels = list(itertools.combinations(range(d), k))
    idx = {s: i for i, s in enumerate(labels)}
    tl = list(itertools.combinations(range(d), k + 1))
    a = N.a
    cols = []
    for i in range(d):
        rows = []
        for C in labels:
            if i not in C:
                continue
            w = a[:, idx[C]]
            for T in tl:
                row = [0] * d
                for pos, t in enumerate(T):
                    s = T[:pos] + T[pos + 1 :]
                    coef = int(w[idx[s]])
                    if pos % 2:
                        coef = ext.neg(coef)
                    row[t] = coef
                if any(row):
                    rows.append(row)
        if not rows:
            raise _Degenerate("wedge constraint system is empty")
        ker = kernel_basis(Matrix.from_rows(ext, rows))
        if len(ker) != 1:
            raise _Degenerate("wedge kernel dimension is not one")
        cols.append(ker[0])
    X = Matrix.from_rows(ext, cols).transpose()
    pairs = []
    for j in range(1, d):
        rest = [x for x in range(d) if x not in (0, j)][: k - 1]
        pairs.append((idx[tuple(sorted(rest + [0]))], idx[tuple(sorted(rest + [j]))]))
    return _rescale_columns(N, X, compound_matrix(X, k), pairs)


def _rescale_columns(N: Matrix, X: Matrix, FX: Matrix, pairs: list[tuple[int, int]]) -> Matrix:
    """Rescale the columns of a preimage candidate X against N, given FX, the
    functor image of X. The ratio N/FX at the first nonzero row of column c
    is one global scalar times the column scales label c uses; for each pair
    of labels (a_j, b_j) that differ by moving one symbol from column 0 to
    column j, ratio(b_j)/ratio(a_j) is the scale of column j."""
    ext, na, fxa = N.field, N.a, FX.a
    ratio = {}
    for c in {c for pair in pairs for c in pair}:
        nz = fxa[:, c].nonzero()[0]
        if len(nz) == 0:
            raise _Degenerate("candidate functor image has a zero column")
        ratio[c] = ext.div(int(na[nz[0], c]), int(fxa[nz[0], c]))
        if not ratio[c]:
            raise _Degenerate("observation is zero where the candidate's functor image is not")
    scales = [1] + [ext.div(ratio[b], ratio[a]) for a, b in pairs]
    return _normalize_first(X.scale([scales]))


def reconstruct_generator(N: Matrix, factor: FactorSpec, d: int) -> Matrix:
    """Read a d x d preimage off a calibrated functor image, normalized to
    leading entry 1. The result is exact up to that scalar. A diagonal N
    (a group inside the torus the frame splits) needs no special case: the
    sym and wedge schemes rebuild X = I and read the diagonal preimage off
    label ratios.

    On N = mu * F(B), B invertible, this never raises and returns B
    normalized: a column of B is nonzero, so its pure power has a nonzero
    pure entry (sym), and k < d independent columns meet, over the k-sets
    holding column i, in column i's line (wedge); so X = B diag(s), all s_j
    nonzero, and every label ratio is mu / prod s_j. A _Degenerate thus means
    N is no genuine image, and since the frame does not depend on the
    preimages, no preimages could pass verification."""
    if factor.kind == "nat" or factor.k == 1:
        return _normalize_first(N)
    if factor.kind == "sym":
        return _extract_sym(N, factor.k, d)
    if factor.k >= d:
        raise UnsupportedFactor("top exterior power is a scalar; no preimage to read")
    return _extract_wedge(N, factor.k, d)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _draw_words(rng: random.Random, letters: int, count: int) -> list[list[int]]:
    """Random words: per word a length from rng.randint, then its letters."""
    return [[rng.randrange(letters) for _ in range(rng.randint(*WORD_LENGTHS))] for _ in range(count)]


def verify_projective(
    spec: ModuleSpec,
    ctx: FieldCtx,
    publics: list[Matrix],
    C: Matrix,
    preimages: tuple[Matrix, ...] | list[Matrix],
    rng: random.Random | None = None,
) -> Verified | Refuted:
    """Exact acceptance check: for every generator, then for sampled words,
    induced(A_w) @ C == mu * C @ E_w for some scalar mu, where A_w and E_w
    are the word's products of preimages and of public matrices. With C
    invertible this is induced(A_w) == mu * C @ E_w @ C^{-1}, the same mu,
    and is never formed that way: right-multiplying by C keeps
    proportionality and its scalar. A generator is the one-letter word.

    Each pass, first the generators and then the words, is one stack: one
    word_products per side, one induced_matrix call, one embed_matrix, and
    one intertwining_scalars (two stacked products with C and one stacked
    compare). Words are drawn only after every generator passes, so a
    refuted generator leaves rng where it was. Once every generator holds
    with scalar mu_i, a word w has induced(A_w) = prod induced(A_i) = prod
    mu_i * C E_w C^{-1}, so a word check fails only if induced_matrix is not
    multiplicative."""
    require_images(spec, ctx, publics)
    if C.field != ctx.ext:
        raise InvalidInput("frame must live over the extension field")
    if len(publics) != len(preimages):
        return Refuted("generator and preimage counts differ")
    n = dim(spec)
    if C.shape != (n, n) or any(A.shape != (ctx.d, ctx.d) for A in preimages):
        raise ShapeMismatch(f"frame {C.shape} and preimages {[A.shape for A in preimages]} do not fit {spec.text()}")
    if not C.is_invertible():
        return Refuted("frame is not invertible")

    A, E = stack(preimages), stack(publics)

    def scalars(seqs: list[list[int]]) -> list[int | None]:
        """Per word w, the mu with induced(A_w) @ C == mu * C @ E_w, or None."""
        images = induced_matrix(spec, word_products(A, seqs))
        return intertwining_scalars(C, images, embed_matrix(ctx, word_products(E, seqs)))

    mus = scalars([[i] for i in range(len(publics))])
    if None in mus:
        return Refuted(f"generator {mus.index(None)} image is not proportional to its model")
    words = scalars(_draw_words(rng or random.Random(1), len(publics), VERIFICATION_WORDS))
    if None in words:
        return Refuted(f"word check {words.index(None)} failed")
    return Verified(tuple(mus))


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def rewrite(
    spec: ModuleSpec,
    publics: list[Matrix],
    ctx: FieldCtx,
    cfg: RewriteConfig | None = None,
) -> RewriteResult | Failure:
    """Full pipeline. Raises for misuse (wrong field, module constraints
    violated, repeated patterns, nothing to reconstruct); returns Failure
    when the random search exhausts its budget, which on valid input
    happens with probability at most cfg.eps."""
    t0 = time.perf_counter()
    cfg = cfg or RewriteConfig()
    stats = RewriteStats()
    require_supported(spec, ctx)
    _, factor = _factor_plan(spec)
    _check_supported(spec, factor)
    require_images(spec, ctx, publics)
    n = dim(spec)

    ext = ctx.ext
    e_back = (-factor.twist) % ctx.d
    rng = random.Random(repr(("rewrite", ctx.p, ctx.f, ctx.d, spec.text(), cfg.rng_seed)))
    try:  # the sampler inverts every generator, once
        sampler = ElementSampler(publics, rng)
    except SingularMatrix as exc:
        raise InvalidInput("generator images must be invertible") from exc
    epubs = embed_matrix(ctx, stack(publics))

    # Element search owns the whole trial budget, tracked globally across
    # attempts; the attempt cap only bounds how often a found candidate's
    # frame may degenerate or fail verification.
    reason = "no cyclically regular element found within budget"
    for attempt in range(8):
        remaining = cfg.max_element_trials - stats.elements_sampled
        if remaining <= 0:
            break
        if attempt:
            stats.retries += 1
        cand = find_singer_candidate(
            publics, spec, ctx, sampler, remaining, stats, try_generators=attempt == 0
        )
        if cand is None:
            break
        s_w, chi, omega, labels = cand
        try:
            C0, c0inv = build_eigenbasis(ctx, s_w, chi, labels)

            def mhat(m_ext: Matrix) -> Matrix:
                return twist_matrix(C0 @ m_ext @ c0inv, ctx.q, e_back)

            def more() -> Matrix:
                return mhat(word_products(epubs, _draw_words(rng, len(publics), 1))).members()[0]

            observations = mhat(epubs).members()
            if all(np.count_nonzero(a := O.a) == np.count_nonzero(a.diagonal()) for O in observations):
                # The group sits inside the torus this frame splits; the
                # correction is unconstrained and unnecessary, so none is made.
                theta = [1] * n
            else:
                theta = _calibrate(factor, spec, observations, more, ext)
            # N = O[i, j] * theta_j / theta_i entrywise; C = twist(diag theta)^-1 @ C0 by rows
            row_factors = [[ext.inv(t)] for t in theta]
            preimages = tuple(
                reconstruct_generator(O.scale(row_factors).scale([theta]), factor, ctx.d) for O in observations
            )
            C = C0.scale([[ctx.frobenius(x, factor.twist)] for [x] in row_factors])
            ver = verify_projective(spec, ctx, publics, C, preimages, rng=rng)
            if isinstance(ver, Refuted):
                raise _Degenerate(f"verification rejected the attempt: {ver.detail}")
            stats.wall_time = time.perf_counter() - t0
            return RewriteResult(spec, omega, C, labels, preimages, ver.scalars, stats)
        except _Degenerate as exc:
            reason = str(exc)
            continue
    stats.wall_time = time.perf_counter() - t0
    return Failure(reason, stats)
