"""Cyclically regular elements and their spectra on tensor modules.

A SingerElement is the companion matrix of the minimal polynomial of a
primitive element omega of F_{q^d}, together with omega itself. Its
eigenvalues on the natural module are the Frobenius orbit omega^(q^i), and
on a tensor module the eigenvalue at a basis label is omega raised to the
label's aggregated digit exponent. spectrum_on_module computes a spectrum
by exact linear algebra, once, and the two verdicts below read it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidInput, NotPrimitive
from .ffield import FieldCtx, is_primitive, roots_in_extension
from .matfq import Matrix, char_poly, companion_matrix
from .schur import ModuleSpec, dim, induced_matrix, model_spectrum, require_tower


@dataclass(frozen=True)
class SingerElement:
    """Companion matrix S over F_q with a distinguished primitive eigenvalue."""

    S: Matrix
    omega: int
    ctx: FieldCtx


def from_primitive(ctx: FieldCtx, omega: int) -> SingerElement:
    """Build the companion form for a given primitive element of F_{q^d}."""
    if not is_primitive(ctx.ext, omega):
        raise NotPrimitive("element does not generate the multiplicative group")
    mp = ctx.min_poly_over_base(omega)
    if len(mp) - 1 != ctx.d:
        raise InvalidInput("minimal polynomial degree is not d; tower mismatch")
    return SingerElement(companion_matrix(ctx.base, mp), omega, ctx)


def make_singer(ctx: FieldCtx, seed: int) -> SingerElement:
    """Sample a primitive element (seeded, deterministic) and return its
    companion form. Primitivity forces the minimal polynomial to have
    degree exactly d, so no degree check is needed in the loop."""
    rng = random.Random(("singer", ctx.p, ctx.f, ctx.d, seed).__repr__())
    n = ctx.ext.order
    while True:
        x = rng.randrange(1, n)
        if is_primitive(ctx.ext, x):
            return from_primitive(ctx, x)


def spectrum_on_module(s: SingerElement, spec: ModuleSpec) -> list[tuple[int, int]]:
    """Eigenvalues of the induced action on the module, with algebraic
    multiplicities, via characteristic polynomial factorization only."""
    ctx = s.ctx
    require_tower(spec, ctx)
    m = induced_matrix(spec, s.S)
    cp = char_poly(m)
    roots = roots_in_extension(ctx, cp)
    if sum(mult for _, mult in roots) != dim(spec):
        raise AssertionError("spectrum failed to split over the extension")
    return roots


@dataclass(frozen=True)
class Match:
    pass


@dataclass(frozen=True)
class Mismatch:
    missing: tuple[tuple[int, int], ...]
    extra: tuple[tuple[int, int], ...]


def verify_model_match(s: SingerElement, spec: ModuleSpec, roots: list[tuple[int, int]]) -> Match | Mismatch:
    """Compare the eigenvalue multiset roots, spectrum_on_module(s, spec),
    against the digit model {omega^phi(c)} over all aggregated label
    patterns."""
    actual: dict[int, int] = {}
    for lam, mult in roots:
        actual[lam] = actual.get(lam, 0) + mult
    model: dict[int, int] = {}
    for _, v in model_spectrum(spec, s.ctx, s.omega):
        model[v] = model.get(v, 0) + 1
    if actual == model:
        return Match()
    missing = tuple(sorted((v, m - actual.get(v, 0)) for v, m in model.items() if actual.get(v, 0) < m))
    extra = tuple(sorted((v, m - model.get(v, 0)) for v, m in actual.items() if model.get(v, 0) < m))
    return Mismatch(missing, extra)


@dataclass(frozen=True)
class Simple:
    pass


@dataclass(frozen=True)
class RepeatedEigenvalue:
    eigenvalue: int
    multiplicity: int


def verify_simple_spectrum(roots: list[tuple[int, int]]) -> Simple | RepeatedEigenvalue:
    """Simple iff every eigenvalue of roots, a spectrum_on_module spectrum,
    has algebraic multiplicity 1.

    The spectrum always splits over F_{q^d} and S acts semisimply there, so
    algebraic multiplicity 1 already forces eigenspace dimension 1; no
    kernel computation is needed (the test suite spot-checks kernels on
    small modules independently).
    """
    for lam, mult in roots:
        if mult > 1:
            return RepeatedEigenvalue(lam, mult)
    return Simple()

