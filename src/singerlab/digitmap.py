"""Base-q digit vectors, the exponent map, and its injectivity checks.

Everything in this module is plain integer arithmetic: digit vectors index
eigenvalues as exponents of a multiplicative generator, and the central
question is when the map from digit vectors to residues mod q^d - 1 is
injective. No field elements appear; the eigenvalues omega^phi(c) of the
digit model are listed by schur.model_spectrum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityExceeded, InvalidInput


class DigitVector(tuple):
    """A vector of non-negative digits (c_1, ..., c_d), least significant first."""

    def __new__(cls, digits) -> "DigitVector":
        t = tuple(int(x) for x in digits)
        if any(x < 0 for x in t):
            raise InvalidInput("digits must be non-negative")
        return super().__new__(cls, t)

    @property
    def total(self) -> int:
        return sum(self)


def base_q_expansion(E: int, q: int, d: int) -> DigitVector:
    """Digits of E in radix q, exactly d of them, least significant first."""
    if q < 2 or d < 1:
        raise InvalidInput("need q >= 2 and d >= 1")
    if not 0 <= E < q**d:
        raise InvalidInput(f"{E} is not in [0, q^d)")
    digits = []
    for _ in range(d):
        E, r = divmod(E, q)
        digits.append(r)
    return DigitVector(digits)


def phi(b, q: int, d: int) -> int:
    """The exponent Sum b_i q^(i-1), reduced mod q^d - 1."""
    if len(b) != d:
        raise InvalidInput(f"expected {d} digits, got {len(b)}")
    acc, w = 0, 1
    for c in b:
        acc += c * w
        w *= q
    return acc % (q**d - 1)


@dataclass(frozen=True)
class Injective:
    count: int


@dataclass(frozen=True)
class Collision:
    first: DigitVector
    second: DigitVector
    residue: int


def check_injectivity(
    q: int, d: int, C: int, budget: int = 10**7
) -> Injective | Collision:
    """Exhaustively test the exponent map on all vectors with digits in [0, C].

    Returns Injective with the number of vectors checked, or the first
    collision in lexicographic enumeration order. Injectivity is guaranteed
    when C < q - 1; the collision branch documents how sharp that bound is.
    """
    if q < 2 or d < 1 or C < 0:
        raise InvalidInput("need q >= 2, d >= 1, C >= 0")
    total = (C + 1) ** d
    if total > budget:
        raise CapacityExceeded(
            f"{total} vectors exceed the exhaustive budget; use the sum-K variant"
        )
    return _first_collision(itertools.product(range(C + 1), repeat=d), q, d)


def _first_collision(vectors: Iterable[tuple[int, ...]], q: int, d: int) -> Injective | Collision:
    """The first vector whose residue an earlier one already took, with that
    earlier one, or Injective with the number scanned. Vectors are kept as
    given; only a returned pair is wrapped in DigitVector."""
    seen: dict[int, tuple[int, ...]] = {}
    for vec in vectors:
        r = phi(vec, q, d)
        if r in seen:
            return Collision(DigitVector(seen[r]), DigitVector(vec), r)
        seen[r] = vec
    return Injective(len(seen))


def enumerate_patterns(d: int, K: int) -> Iterator[DigitVector]:
    """Stream all compositions of K into d non-negative parts, lexicographically.

    The count is binom(d + K - 1, K); the stream never materializes it.
    """
    if d < 1 or K < 0:
        raise InvalidInput("need d >= 1 and K >= 0")

    def rec(parts: int, total: int, prefix: tuple[int, ...]) -> Iterator[DigitVector]:
        if parts == 1:
            yield DigitVector(prefix + (total,))
            return
        for c in range(total + 1):
            yield from rec(parts - 1, total - c, prefix + (c,))

    return rec(d, K, ())


def check_injectivity_sumK(q: int, d: int, K: int, budget: int = 10**7) -> Injective | Collision:
    """Injectivity of the exponent map restricted to digit sums equal to K.

    Streams the compositions, so only the residue set is held in memory;
    their count binom(d + K - 1, K) must not exceed the budget.
    """
    if q < 2 or d < 1 or K < 0:
        raise InvalidInput("need q >= 2, d >= 1, K >= 0")
    total = math.comb(d + K - 1, K)
    if total > budget:
        raise CapacityExceeded(f"{total} patterns of total {K} exceed the exhaustive budget")
    return _first_collision(enumerate_patterns(d, K), q, d)


def twisted_aggregate(parts: list[tuple[DigitVector, int]], d: int) -> DigitVector:
    """Combine per-factor digit vectors, shifting each by its twist.

    A twist by e multiplies exponents by q^e, which cyclically moves digit
    i to position i + e mod d. With all twists zero this is plain addition.
    """
    out = [0] * d
    for b, e in parts:
        if len(b) != d:
            raise InvalidInput(f"expected {d} digits, got {len(b)}")
        for i, c in enumerate(b):
            out[(i + e) % d] += c
    return DigitVector(out)
