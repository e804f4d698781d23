"""Module construction: tensor products of natural, symmetric-power, and
exterior-power factors, each with an optional Frobenius twist.

A ModuleSpec fixes the ambient dimension d, the field size q, and an ordered
factor list. Basis labels are per-factor index tuples (multisets for Sym,
increasing subsets for Ext), combined left-factor-major; each label carries
an aggregated digit vector obtained by shifting every factor's digit counts
by its twist. model_spectrum(spec, ctx, omega) pairs each label's pattern
c with its model eigenvalue omega^phi(c), and induced_matrix(spec, A) is
the matrix functor itself.

Sym(k) uses the convention pinned by the d=2 example

    [[a^2, 2ab, b^2], [ac, ad+bc, bd], [c^2, 2cd, d^2]],

equivalently entry[N, M] = mult(M)/mult(N) * (coefficient of x^N in
prod_{j in M} sum_i A[i,j] x_i), with mult the multinomial count of a
multiset. Both mult values are invertible mod p because k < p is required.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from math import comb, prod
from typing import Iterator

from .digitmap import DigitVector, phi, twisted_aggregate
from .errors import ConstraintViolation, FieldMismatch, InvalidInput, ShapeMismatch
from .ffield import FieldCtx
from .matfq import Matrix, compound_matrix, frobenius_matrix, kron, symmetric_power

KINDS = ("nat", "sym", "ext")

# check_constraints flags modules of larger dimension than this.
DIM_BUDGET = 10**6


@dataclass(frozen=True)
class FactorSpec:
    """One tensor factor: kind in {nat, sym, ext}, power k, Frobenius twist."""

    kind: str
    k: int = 1
    twist: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidInput(f"unknown factor kind {self.kind!r}")
        if self.kind == "nat" and self.k != 1:
            raise InvalidInput("natural factors have no power parameter")
        if self.k < 1 or self.twist < 0:
            raise InvalidInput("factor power must be >= 1 and twist >= 0")

    def text(self) -> str:
        body = "nat" if self.kind == "nat" else f"{self.kind}({self.k})"
        return f"{body}@{self.twist}"


@dataclass(frozen=True)
class ModuleSpec:
    """A tensor module over F_q^d given by an ordered list of factors."""

    d: int
    q: int
    factors: tuple[FactorSpec, ...]

    def __post_init__(self) -> None:
        if self.d < 1 or self.q < 2:
            raise InvalidInput("need d >= 1 and q >= 2")

    def text(self) -> str:
        inner = ",".join(f.text() for f in self.factors)
        return f"d={self.d} q={self.q} factors=[{inner}]"


_FACTOR_RE = re.compile(r"^(nat|sym|ext)(?:\((\d+)\))?(?:@(\d+))?$")


def parse_factor(token: str) -> FactorSpec:
    m = _FACTOR_RE.match(token.strip())
    if not m:
        raise InvalidInput(f"cannot parse factor {token!r}")
    kind, k, e = m.group(1), m.group(2), m.group(3)
    if kind == "nat" and k is not None:
        raise InvalidInput("nat takes no power; write nat or nat@e")
    if kind != "nat" and k is None:
        raise InvalidInput(f"{kind} needs a power, e.g. {kind}(2)")
    return FactorSpec(kind, int(k) if k else 1, int(e) if e else 0)


def parse_module_spec(text: str, q: int | None = None, d: int | None = None) -> ModuleSpec:
    """Parse 'd=3 q=7 factors=[sym(2)@0]' or a bare factor list with q, d given."""
    if not isinstance(text, str):
        raise InvalidInput(f"module spec {text!r} is not text")
    text = text.strip()
    m = re.match(r"^d=(\d+)\s+q=(\d+)\s+factors=\[(.*)\]$", text)
    if m:
        d, q, inner = int(m.group(1)), int(m.group(2)), m.group(3)
    else:
        if q is None or d is None:
            raise InvalidInput("bare factor lists need explicit q and d")
        inner = text.strip("[]")
    tokens = [t for t in inner.split(",") if t.strip()]
    return ModuleSpec(d, q, tuple(parse_factor(t) for t in tokens))


# ---------------------------------------------------------------------------
# dimensions, labels, degrees
# ---------------------------------------------------------------------------


def factor_dim(f: FactorSpec, d: int) -> int:
    if f.kind == "nat":
        return d
    if f.kind == "sym":
        return comb(d + f.k - 1, f.k)
    return comb(d, f.k)


def dim(spec: ModuleSpec) -> int:
    return prod(factor_dim(f, spec.d) for f in spec.factors)


def total_degree(spec: ModuleSpec) -> int:
    return sum(f.k for f in spec.factors)


def factor_labels(f: FactorSpec, d: int) -> list[tuple[int, ...]]:
    """Index tuples for one factor, 0-based, in lexicographic order."""
    if f.kind == "nat":
        return [(i,) for i in range(d)]
    if f.kind == "sym":
        return list(itertools.combinations_with_replacement(range(d), f.k))
    return list(itertools.combinations(range(d), f.k))


def _counts(part: tuple[int, ...], d: int) -> DigitVector:
    c = [0] * d
    for i in part:
        c[i] += 1
    return DigitVector(c)


def aggregated_patterns(spec: ModuleSpec) -> Iterator[DigitVector]:
    """Stream the aggregated digit vector of every basis label, in label order."""
    per_factor = [factor_labels(f, spec.d) for f in spec.factors]
    twists = [f.twist for f in spec.factors]
    for combo in itertools.product(*per_factor):
        yield twisted_aggregate(
            [(_counts(part, spec.d), e) for part, e in zip(combo, twists)], spec.d
        )


def model_spectrum(spec: ModuleSpec, ctx: FieldCtx, omega: int) -> list[tuple[DigitVector, int]]:
    """The digit model: (c, omega^phi(c)) for every aggregated pattern c, in
    label order. omega may be any nonzero element of the extension."""
    return [(c, ctx.ext.pow(omega, phi(c, ctx.q, ctx.d))) for c in aggregated_patterns(spec)]


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ok:
    pass


@dataclass(frozen=True)
class Violations:
    issues: tuple[str, ...]


def check_constraints(spec: ModuleSpec, p: int) -> Ok | Violations:
    """Diagnostic validity report: degree bound, factor sanity, size budget."""
    issues = []
    K = total_degree(spec)
    if K >= spec.q - 1:
        issues.append(f"total degree {K} is not below q-1 = {spec.q - 1}")
    for f in spec.factors:
        if f.kind == "sym" and f.k >= p:
            issues.append(f"sym({f.k}) is not irreducible in characteristic {p}")
        if f.kind == "ext" and f.k > spec.d:
            issues.append(f"ext({f.k}) vanishes for d = {spec.d}")
    w = dim(spec)
    if w > DIM_BUDGET:
        issues.append(f"module dimension {w} exceeds the budget {DIM_BUDGET}")
    return Violations(tuple(issues)) if issues else Ok()


@dataclass(frozen=True)
class MultiplicityFree:
    pass


@dataclass(frozen=True)
class Repeated:
    pattern: DigitVector
    count: int


def check_multiplicity_free(spec: ModuleSpec) -> MultiplicityFree | Repeated:
    """Whether distinct basis labels always carry distinct aggregated patterns.

    The witness returned is the first repeated pattern in label order.
    """
    for c, count in Counter(aggregated_patterns(spec)).items():  # keys in first-occurrence order
        if count > 1:
            return Repeated(c, count)
    return MultiplicityFree()


def require_tower(spec: ModuleSpec, ctx: FieldCtx) -> None:
    """Raise unless spec's q and d are those of the tower ctx."""
    if spec.q != ctx.q or spec.d != ctx.d:
        raise InvalidInput(f"module spec {spec.text()} does not match the field tower q={ctx.q} d={ctx.d}")


def require_images(spec: ModuleSpec, ctx: FieldCtx, images) -> None:
    """Raise unless spec lives on the tower ctx and the generator images are
    at least one dim(spec) x dim(spec) matrix, each over the base field."""
    require_tower(spec, ctx)
    if not images:
        raise InvalidInput("need at least one generator image")
    n = dim(spec)
    for g in images:
        if g.field != ctx.base:
            raise FieldMismatch("generator images must be over the base field")
        if g.shape != (n, n):
            raise ShapeMismatch(f"generator shape {g.shape} does not fit {spec.text()} of dimension {n}")


def require_supported(spec: ModuleSpec, ctx: FieldCtx) -> None:
    """Raise unless spec lives on the tower ctx and meets the pipeline's
    preconditions: the structural constraints and multiplicity freeness."""
    require_tower(spec, ctx)
    con = check_constraints(spec, ctx.p)
    if isinstance(con, Violations):
        raise ConstraintViolation("; ".join(con.issues))
    mf = check_multiplicity_free(spec)
    if not isinstance(mf, MultiplicityFree):
        raise ConstraintViolation(
            f"module is not multiplicity free: pattern {tuple(mf.pattern)} occurs {mf.count} times"
        )


# ---------------------------------------------------------------------------
# the matrix functor
# ---------------------------------------------------------------------------


def twist_matrix(M: Matrix, q: int, e: int) -> Matrix:
    """M with every entry raised to the power q^e, the e-th q-power
    Frobenius of M's field. Over F_{q^d} exponents live mod q^d - 1, where
    q^e = q^(e mod d), so e may be any non-negative integer; q^e acts as one
    p^k, an F_p-linear map on M's digits (matfq.frobenius_matrix)."""
    if e == 0:
        return M
    F = M.field
    t = pow(q, e, F.order - 1)
    k = next(k for k in range(F.m) if pow(F.p, k, F.order - 1) == t)
    return frobenius_matrix(M, k)


def induced_matrix(spec: ModuleSpec, A: Matrix) -> Matrix:
    """The action of A on the module: functor per factor, twist entrywise
    after the functor, factors combined by Kronecker product in order. A
    stack of matrices gives the stack of their actions."""
    d = spec.d
    if A.shape != (d, d):
        raise ShapeMismatch(f"expected a {d}x{d} matrix, got {A.shape}")
    blocks = []
    for f in spec.factors:
        if f.kind == "nat":
            B = A.copy()  # the result never aliases A, even for a lone nat@0
        elif f.kind == "sym":
            B = symmetric_power(A, f.k)
        else:
            B = compound_matrix(A, f.k)
        blocks.append(twist_matrix(B, spec.q, f.twist))
    return reduce(kron, blocks) if blocks else Matrix.identity(A.field, 1, A.batch)
