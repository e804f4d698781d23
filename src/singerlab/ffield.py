"""Exact arithmetic for prime fields, extension fields, and polynomials over them.

Elements of F_{p^m} are stored as integer codes: the element with
coefficient vector (c_0, ..., c_{m-1}) in the fixed polynomial basis is the
integer sum c_i * p^i, in [0, p^m). Code 0 is zero, code 1 is one, and for
prime fields the code is just the residue. Fields up to TABLE_LIMIT multiply
by exp/log tables. Larger ones work on packed ints, one S-bit slot per digit:
one int product is the whole digit convolution (Kronecker substitution), the
high slots fold back through x^k mod the modulus, the p^k-power Frobenius is
a precomputed F_p-linear digit map, and inverses are Itoh-Tsujii (the norm
lies in F_p); this keeps O(m^2) ints whatever p is. Polynomials mod h multiply
on digit arrays of F[x]/(h), by one convolution. All operations are pure;
the one randomized routine (equal-degree splitting) draws from a PRNG seeded
by the polynomial's own content, so factoring is a deterministic function.

Polynomials are tuples of codes, lowest degree first, with no trailing
zeros (the zero polynomial is the empty tuple).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from functools import lru_cache
from itertools import accumulate, count
from math import gcd, isqrt, prod

import numpy as np

from .errors import (
    CapacityExceeded,
    DivisionByZero,
    InvalidInput,
    NotInSubgroup,
    NotPrimitive,
)

DensePoly = tuple[int, ...]

# Fields up to this order precompute exp/log tables for O(1) mul/inv/pow.
TABLE_LIMIT = 2**16

# discrete_log refuses fields larger than this (desk-scale contract).
DLOG_LIMIT = 2**48

# _QuotientRing refuses a fold matrix with more entries than this (256 MB of int64).
QUOTIENT_LIMIT = 2**25


_SMALL_PRIMES = tuple(sorted(set(range(2, 10**4)).difference(*(range(r * r, 10**4, r) for r in range(2, 100)))))
_PSI_13 = 3317044064679887385961981  # the first 13 prime bases are exact below it (Sorenson & Webster 2015)


def digit_dtype(p: int, terms: int):
    """int64 unless a sum of `terms` products of two digits below p could reach 2^63."""
    return object if terms * (p - 1) ** 2 >= 2**63 else np.int64


def power(x, e: int, mul, one):
    """x^e for e >= 0 by square and multiply with the product mul: no product
    by one and no square past the top bit. For e = 1 the result is x itself,
    for e = 0 it is one."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if result is None else result


def _is_prime(n: int) -> bool:
    """Exact below 3.317e24: trial division below 10^4, then Miller-Rabin to the first
    13 prime bases. At or above it, Baillie-PSW (strong base-2 Miller-Rabin plus a strong
    Lucas test), as computer algebra systems use there; it has no known counterexample."""
    for r in _SMALL_PRIMES:
        if n % r == 0:
            return n == r
    if n < 10**8:
        return n > 1
    if n < _PSI_13:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES[:13])
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    x = [pow(a, (n - 1) >> s, n)]  # a^(d 2^r) for r < s
    for _ in range(s - 1):
        x.append(x[-1] * x[-1] % n)
    return x[0] == 1 or n - 1 in x


def _jacobi(a: int, n: int) -> int:
    t = 1
    while a := a % n:
        while not a & 1:
            a >>= 1
            t = -t if n % 8 in (3, 5) else t
        a, n = n, a
        t = -t if a % 4 == n % 4 == 3 else t
    return t if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test, Selfridge's D (first of 5, -7, 9, ... with (D/n) = -1), P = 1, Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    D = next(x for x in ((-1) ** i * (5 + 2 * i) for i in count()) if _jacobi(x, n) == -1)
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2^s, d odd
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q % n  # U_k, V_k, Q^k mod n, walking k from 1 up to d
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    v = [V]  # V_(d 2^r) for r < s
    for _ in range(s - 1):
        v.append((v[-1] * v[-1] - 2 * Qk) % n)
        Qk = Qk * Qk % n
    return U == 0 or 0 in v


def _rho_factor(n: int) -> int:
    """A proper factor of odd composite n: Pollard-Brent rho (Brent 1980), x -> x^2 + c for c = 1, 2, ..."""
    for c in count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                if (g := gcd(acc, n)) != 1:
                    break
            r *= 2
        if g == n:  # the last batch overshot: replay it one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


@lru_cache(maxsize=None)
def factorint(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1, primes ascending:
    trial division below 10^4, then _is_prime and _rho_factor on the rest.
    Memoized, so every caller gets the same dict and must not mutate it."""
    if n < 1:
        raise InvalidInput(f"cannot factor {n}")
    out: Counter[int] = Counter()
    for r in _SMALL_PRIMES:
        if r * r > n:
            break
        while n % r == 0:
            out[r] += 1
            n //= r
    if n > 1 and _is_prime(n):
        out[n] += 1
    elif n > 1:
        g = _rho_factor(n)
        out.update(factorint(g))
        out.update(factorint(n // g))
    return dict(sorted(out.items()))


def prime_power(q: int) -> tuple[int, int]:
    """(p, f) with q = p^f and p prime, never factoring q: for each f, the integer
    f-th root of q by Newton's method is p when its f-th power is q and it is prime."""
    for f in range(1, max(q, 2).bit_length()):  # every f with 2^f <= q, and f = 1 for q < 2
        r = 1 << -(-q.bit_length() // f)  # at least the root; Newton descends to its floor
        while (s := ((f - 1) * r + q // r ** (f - 1)) // f) < r:
            r = s
        if r**f == q and _is_prime(r):
            return r, f
    raise InvalidInput(f"q = {q} is not a prime power")


class Field:
    """Arithmetic context for F_{p^m} on integer-coded elements."""

    def __init__(self, p: int, m: int = 1, modulus: DensePoly | None = None):
        if not _is_prime(p):
            raise InvalidInput(f"characteristic {p} is not prime")
        if m < 1:
            raise InvalidInput(f"extension degree {m} must be positive")
        if m > 1 and p >= 2**63:  # the digit arrays below are int64
            raise InvalidInput(f"F_{p}^{m}: a base prime of 2^63 or more is supported only as a prime field")
        self.p = p
        self.m = m
        self.order = p**m
        if m == 1:
            self.modulus: DensePoly = (0, 1)
        elif modulus is not None:
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise InvalidInput("modulus must be monic of degree m")
            self.modulus = tuple(int(c) % p for c in modulus[:-1]) + (1,)
        else:
            self.modulus = find_irreducible(p, m)
        self._hash = hash((p, m, self.modulus))  # every lru_cache keyed by a field hashes it
        # low-first base-p digit weights, reused by encode/decode
        self._weights = tuple(p**i for i in range(m))
        # x^k mod modulus for k < 3m - 2, as digit tuples: the one reduction table
        xpow = [(1,) + (0,) * (m - 1)]
        for _ in range(3 * m - 3):
            top = xpow[-1][-1]
            xpow.append(tuple((c - top * g) % p for c, g in zip((0,) + xpow[-1][:-1], self.modulus)))
        # read-only arrays for the matrix kernel and the quotient ring: the weights
        # (Python ints once a code can reach 2^63) and the (3m-2, m) digits of x^k,
        # from which matfq builds each product plan's reduction
        self.weights = np.array(self._weights, dtype=np.int64 if self.order <= 2**63 else object)
        self.powers = np.array(xpow, dtype=np.int64)
        self.weights.flags.writeable = self.powers.flags.writeable = False
        # matfq's digit storage: int64 unless the (m, m^2) fold of an unpacked product,
        # its slots reduced mod p, could reach 2^63; a packed product (small p only)
        # folds slots whose sum stays far below that
        self.dtype = digit_dtype(p, m * m)
        # the most summed digit products an unpacked (m, m^2) fold takes with no
        # reduction of its slots mod p first
        self.fold_terms = (2**63 - 1) // (m * m * (p - 1) ** 3)
        # packed layout (see _unpack): a slot never exceeds m(p-1)^2 * (1 + (m-1)(p-1)),
        # m digit products plus m-1 folded high slots times digits of x^k mod modulus
        S = (m * (p - 1) ** 2 * (1 + (m - 1) * (p - 1))).bit_length()
        self._slot, self._shifts = S, range(0, S * m, S)
        self._mask, self._low = (1 << S) - 1, (1 << S * m) - 1
        self._fold_rows = [sum(c << s for c, s in zip(row, self._shifts)) for row in xpow[m : 2 * m - 1]]
        self._exp: list[int] | None = None
        self._log: dict[int, int] | None = None
        self._generator: int | None = None
        # x^(j p^k) for k = 1..m-1, packed (scalars) and as (m, m) digit matrices
        # (for matfq.frobenius_matrix): row j of the F_p-linear p^k-power Frobenius
        self._frob_rows: list[list[int]] = []
        self._frob_maps: list[np.ndarray] = []
        if m > 1:
            xp = self.pow(p, p)  # code p is x itself
            rows = [1]
            for _ in range(m - 1):
                rows.append(self._polymul_code(rows[-1], xp))
            for _ in range(m - 1):
                self._frob_rows.append([self._pack(c) for c in rows])
                self._frob_maps.append(np.array([self.decode(c) for c in rows], dtype=digit_dtype(p, m)))
                rows = [self.frobenius(c, 1) for c in rows]
        if m > 1 and self.order <= TABLE_LIMIT:
            self._build_tables()

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.m == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.m}"

    # -- encoding ----------------------------------------------------------

    def decode(self, code: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{m-1}) of a code."""
        p = self.p
        return tuple((code // w) % p for w in self._weights)

    def encode(self, coeffs: tuple[int, ...]) -> int:
        return sum((c % self.p) * w for c, w in zip(coeffs, self._weights))

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        out = 0
        for w in self._weights:
            out += (((a // w) + (b // w)) % p) * w
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if self.m == 1:
            return (-a) % p
        out = 0
        for w in self._weights:
            out += ((-(a // w)) % p) * w
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._polymul_code(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self!r}")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[-self._log[a] % (self.order - 1)]
        # Itoh-Tsujii: the norm a^r, r = (p^m - 1)/(p - 1), lies in F_p, so a^-1 is
        # b / a^r with b = a^(r-1) = s^p for s = a^(1 + p + ... + p^(m-2)). Writing
        # s_n = a^(1 + p + ... + p^(n-1)), s climbs to s_(m-1) by the bits of m - 1
        # through s_2n = s_n * s_n^(p^n) and s_(n+1) = a * s_n^p.
        s, n = a, 1
        for bit in bin(self.m - 1)[3:]:
            s, n = self._polymul_code(s, self.frobenius(s, n)), 2 * n
            if bit == "1":
                s, n = self._polymul_code(a, self.frobenius(s, 1)), n + 1
        b = self.frobenius(s, 1)
        return self._unpack(self._pack(b) * pow(self._polymul_code(a, b), -1, self.p))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        if self.m == 1:
            return pow(a, e, self.p)
        if self._exp is not None:
            return self._exp[self._log[a] * e % (self.order - 1)]
        return power(a, e % (self.order - 1), self._polymul_code, 1)

    def frobenius(self, a: int, k: int) -> int:
        """a^(p^k), with k reduced mod m (negative k allowed), by the F_p-linear
        digit map: a sum of precomputed packed rows weighted by a's digits."""
        k %= self.m
        if k == 0:
            return a
        t, p = 0, self.p
        for row in self._frob_rows[k - 1]:
            t += (a % p) * row
            a //= p
        return self._unpack(t)

    # -- generator / tables --------------------------------------------------

    @property
    def generator(self) -> int:
        """A fixed primitive element (smallest code that generates F*)."""
        if self._generator is None:
            self._generator = self._find_generator()
        return self._generator

    def _find_generator(self) -> int:
        # codes below p lie in F_p, and 1 generates only F_2^*
        return next(c for c in range(1 if self.m == 1 else self.p, self.order) if is_primitive(self, c))

    def _build_tables(self) -> None:
        # Multiplying by g^k is F_p-linear on digit vectors (row j of its matrix
        # is g^k x^j), so digits of g^k..g^(2k-1) = digits of g^0..g^(k-1) @ it.
        p, m, n1 = self.p, self.m, self.order - 1
        g = self._find_generator()
        step = np.array([self.decode(self._polymul_code(g, w)) for w in self._weights], dtype=np.int64)
        digits = np.zeros((n1, m), dtype=np.int64)
        digits[0, 0] = 1
        k = 1
        while k < n1:
            digits[k : 2 * k] = digits[: min(k, n1 - k)] @ step % p
            step, k = step @ step % p, 2 * k
        exp = (digits @ self.weights).tolist()
        log = {c: i for i, c in enumerate(exp)}
        self._exp, self._log, self._generator = exp, log, g

    # -- untabled arithmetic on packed ints ----------------------------------
    #
    # Digit i of a code sits in bits [i*S, (i+1)*S) of one packed int, so one int
    # product is the whole digit convolution (Kronecker substitution). S is wide
    # enough for the slot bound stated in __init__, so no slot carries into the next.

    def _pack(self, a: int) -> int:
        out, p = 0, self.p
        for shift in self._shifts:
            out |= (a % p) << shift
            a //= p
        return out

    def _unpack(self, t: int) -> int:
        """The code of a packed polynomial of at most 2m-1 slots: the high slots fold
        back through x^k mod the modulus, then each slot is reduced mod p."""
        mask, p, S = self._mask, self.p, self._slot
        t, high = t & self._low, t >> self._shifts.stop
        for row in self._fold_rows:
            t += (high & mask) * row
            high >>= S
        code = 0
        for w in self._weights:
            code += (t & mask) % p * w
            t >>= S
        return code

    def _polymul_code(self, a: int, b: int) -> int:
        A = self._pack(a)
        return self._unpack(A * (A if a == b else self._pack(b)))


# ---------------------------------------------------------------------------
# polynomials over a Field, as trimmed low-first code tuples
# ---------------------------------------------------------------------------


def poly_trim(c) -> DensePoly:
    c = tuple(c)
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def poly_deg(a: DensePoly) -> int:
    return len(a) - 1  # zero polynomial gets -1


def poly_add(F: Field, a: DensePoly, b: DensePoly) -> DensePoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return poly_trim(out)


def poly_neg(F: Field, a: DensePoly) -> DensePoly:
    return tuple(F.neg(c) for c in a)


def poly_sub(F: Field, a: DensePoly, b: DensePoly) -> DensePoly:
    return poly_add(F, a, poly_neg(F, b))


def poly_scale(F: Field, c: int, a: DensePoly) -> DensePoly:
    if c == 0:
        return ()
    return tuple(F.mul(c, x) for x in a)


def poly_mul(F: Field, a: DensePoly, b: DensePoly) -> DensePoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = F.add(out[i + j], F.mul(ca, cb))
    return poly_trim(out)


def poly_divmod(F: Field, a: DensePoly, b: DensePoly) -> tuple[DensePoly, DensePoly]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    for k in range(len(a) - len(b), -1, -1):
        c = F.mul(rem[k + len(b) - 1], inv_lead)
        if c:
            quo[k] = c
            for j, cb in enumerate(b):
                rem[k + j] = F.sub(rem[k + j], F.mul(c, cb))
    return poly_trim(quo), poly_trim(rem)


def poly_mod(F: Field, a: DensePoly, b: DensePoly) -> DensePoly:
    return poly_divmod(F, a, b)[1]


def poly_monic(F: Field, a: DensePoly) -> DensePoly:
    if not a:
        return a
    if a[-1] == 1:
        return a
    return poly_scale(F, F.inv(a[-1]), a)


def poly_gcd(F: Field, a: DensePoly, b: DensePoly) -> DensePoly:
    while b:
        a, b = b, poly_mod(F, a, b)
    return poly_monic(F, a)


def poly_eval(F: Field, a: DensePoly, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_deriv(F: Field, a: DensePoly) -> DensePoly:
    out = []
    for i in range(1, len(a)):
        out.append(F.mul(i % F.p, a[i]))
    return poly_trim(out)


class _QuotientRing:
    """F[x]/(h), h monic of degree n >= 1, F = F_{p^m}. An element is an (n, 2m-1)
    array of base-p digits, row i for x^i, upper m-1 slots zero: flattened, a
    polynomial in x and the field's variable y with x = y^(2m-1), so one
    np.convolve is a product with no slot spilling (Kronecker substitution), and
    one F_p-linear matrix R, column j(2m-1) + k the element x^j y^k mod (h,
    modulus), folds it back."""

    def __init__(self, F: Field, h: DensePoly):
        p, m, n = F.p, F.m, len(h) - 1
        self.F, self.h, self.n, self.w = F, h, n, 2 * m - 1
        if n * (2 * n - 1) * self.w**2 > QUOTIENT_LIMIT:
            raise CapacityExceeded(f"F[x]/(h), deg h = {n} over {F!r}: its fold matrix passes {QUOTIENT_LIMIT} entries")
        self.dt = dt = digit_dtype(p, (2 * n - 1) * self.w)
        # Y[c, k]: the digits of y^(c+k), so a coefficient's digits @ Y[:, k] are its product with y^k
        Y = F.powers[np.add.outer(np.arange(m), np.arange(self.w))].astype(dt)
        hy = (np.array([F.decode(c) for c in h[:-1]], dtype=dt) @ Y[:, :m].reshape(m, -1) % p).reshape(n, m, m)
        X = np.zeros((2 * n - 1, n, m), dtype=dt)  # x^j mod h as (n, m) digits
        X[range(n), range(n), 0] = 1
        for j in range(n, 2 * n - 1):  # x^j = x x^(j-1), and x^n = -h_low
            X[j, 1:] = X[j - 1, :-1]
            X[j] = (X[j] - X[j - 1, -1] @ hy) % p
        R = np.zeros((n, self.w, 2 * n - 1, self.w), dtype=dt)
        R[:, :m] = (X.reshape(-1, m) @ Y.reshape(m, -1) % p).reshape(2 * n - 1, n, self.w, m).transpose(1, 3, 0, 2)
        self.R = R.reshape(n * self.w, -1)

    def lift(self, a: DensePoly) -> np.ndarray:
        """The element of a polynomial of degree below n."""
        out = np.zeros((self.n, self.w), dtype=self.dt)
        for i, c in enumerate(a):
            out[i, : self.F.m] = self.F.decode(c)
        return out

    def drop(self, A: np.ndarray) -> DensePoly:
        return poly_trim(self.F.encode(row) for row in A[:, : self.F.m].tolist())

    def mul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        c = np.convolve(A.ravel(), B.ravel())[: self.R.shape[1]] % self.F.p
        return (self.R @ c % self.F.p).reshape(A.shape)

    def pow(self, A: np.ndarray, e: int) -> np.ndarray:
        """A^e for e >= 0."""
        return power(A, e, self.mul, self.lift((1,)))


def poly_pow_mod(F: Field, base: DensePoly, e: int, mod: DensePoly) -> DensePoly:
    """base^e mod mod, for e >= 0 and mod of degree at least 1, in F[x]/(mod)."""
    ring = _QuotientRing(F, poly_monic(F, mod))
    return ring.drop(ring.pow(ring.lift(poly_mod(F, base, mod)), e))


# ---------------------------------------------------------------------------
# irreducibles and factorization
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def find_irreducible(p: int, n: int) -> DensePoly:
    """Lexicographically smallest monic irreducible of degree n over F_p.

    Coefficient vectors (c_0, ..., c_{n-1}) are compared from the constant
    term upward; x itself wins for n = 1.
    """
    if n < 1:
        raise InvalidInput("degree must be positive")
    if n == 1:
        return (0, 1)
    fp = Field(p)
    n_primes = list(factorint(n))
    # digit c_0 is the most significant so that t-order equals lex order; t starts
    # at p^(n-1), the first t with c_0 != 0, since the others are divisible by x
    for t in range(p ** (n - 1), p**n):
        f = tuple((t // p ** (n - 1 - i)) % p for i in range(n)) + (1,)
        if _rabin_irreducible(fp, f, n, n_primes):
            return f
    raise AssertionError("no irreducible found; unreachable for n >= 1")


def _rabin_irreducible(fp: Field, f: DensePoly, n: int, n_primes: list[int]) -> bool:
    p, ring = fp.p, _QuotientRing(fp, f)
    x: DensePoly = (0, 1)
    for r in n_primes:
        h = poly_sub(fp, ring.drop(ring.pow(ring.lift(x), p ** (n // r))), x)
        if poly_deg(poly_gcd(fp, f, h)) != 0:
            return False
    return ring.drop(ring.pow(ring.lift(x), p**n)) == x


def _edf_rng(F: Field, f: DensePoly) -> random.Random:
    blob = repr((F.p, F.m, F.modulus, f)).encode()
    return random.Random(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))


def _random_poly(F: Field, deg_below: int, rng: random.Random) -> DensePoly:
    return poly_trim(tuple(rng.randrange(F.order) for _ in range(deg_below)))


def _pth_root_poly(F: Field, f: DensePoly) -> DensePoly:
    # f = h(x^p); coefficients need an inverse Frobenius: c -> c^(p^(m-1))
    return poly_trim(F.frobenius(c, -1) for c in f[:: F.p])


def _squarefree_parts(F: Field, f: DensePoly) -> list[tuple[DensePoly, int]]:
    parts: list[tuple[DensePoly, int]] = []

    def walk(g: DensePoly, mult: int) -> None:
        if poly_deg(g) < 1:
            return
        dg = poly_deriv(F, g)
        if not dg:
            walk(_pth_root_poly(F, g), mult * F.p)
            return
        c = poly_gcd(F, g, dg)
        w = poly_divmod(F, g, c)[0]
        i = 1
        while poly_deg(w) > 0:
            y = poly_gcd(F, w, c)
            z = poly_divmod(F, w, y)[0]
            if poly_deg(z) > 0:
                parts.append((z, mult * i))
            w = y
            c = poly_divmod(F, c, y)[0]
            i += 1
        if poly_deg(c) > 0:
            walk(_pth_root_poly(F, c), mult * F.p)

    walk(poly_monic(F, f), 1)
    return parts


def _ddf(F: Field, f: DensePoly) -> list[tuple[DensePoly, int]]:
    """Split a monic squarefree f into (product of irreducibles of degree i, i)."""
    out: list[tuple[DensePoly, int]] = []
    x: DensePoly = (0, 1)
    h = x
    i = 0
    while poly_deg(f) >= 2 * (i + 1):
        i += 1
        h = poly_pow_mod(F, h, F.order, f)
        g = poly_gcd(F, f, poly_sub(F, h, x))
        if poly_deg(g) > 0:
            out.append((g, i))
            f = poly_divmod(F, f, g)[0]
            h = poly_mod(F, h, f)
    if poly_deg(f) > 0:
        out.append((f, poly_deg(f)))
    return out


def _edf_split(F: Field, f: DensePoly, e: int, rng: random.Random) -> DensePoly:
    """A proper monic factor of f, a monic squarefree product of at least two degree-e irreducibles."""
    n = poly_deg(f)
    ring = _QuotientRing(F, f)
    while True:
        r = _random_poly(F, n, rng)
        if poly_deg(r) < 1:
            continue
        if F.p == 2:
            # trace map to F_2 splits in characteristic 2
            t = acc = ring.lift(r)
            for _ in range(e * F.m - 1):
                acc = ring.mul(acc, acc)
                t = (t + acc) % 2
            g = poly_gcd(F, f, ring.drop(t))
        else:
            s = ring.drop(ring.pow(ring.lift(r), (F.order**e - 1) // 2))
            g = poly_gcd(F, f, poly_sub(F, s, (1,)))
        if 0 < poly_deg(g) < n:
            return g


def _edf(F: Field, f: DensePoly, e: int, rng: random.Random) -> list[DensePoly]:
    """Equal-degree splitting of a monic squarefree product of degree-e irreducibles."""
    if poly_deg(f) == e:
        return [f]
    g = _edf_split(F, f, e, rng)
    return _edf(F, g, e, rng) + _edf(F, poly_divmod(F, f, g)[0], e, rng)


def factor_poly(F: Field, g: DensePoly) -> list[tuple[DensePoly, int]]:
    """Full factorization into monic irreducibles with multiplicities.

    Factors are ordered by degree, then lexicographically by coefficient
    vector from the constant term up. The product of the factors times the
    leading coefficient of g reproduces g.
    """
    g = poly_trim(g)
    if not g:
        raise InvalidInput("cannot factor the zero polynomial")
    if poly_deg(g) == 0:
        return []
    factors: list[tuple[DensePoly, int]] = []
    for part, mult in _squarefree_parts(F, g):
        for prod, e in _ddf(F, part):
            rng = _edf_rng(F, prod)
            for irr in _edf(F, prod, e, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: (poly_deg(fm[0]), fm[0]))
    return factors


def _one_root(F: Field, h: DensePoly) -> int:
    """One root of a monic h that splits over F into distinct linear factors:
    equal-degree splitting, keeping the smaller part of each split."""
    rng = _edf_rng(F, h)
    while poly_deg(h) > 1:
        a = _edf_split(F, h, 1, rng)
        h = min(a, poly_divmod(F, h, a)[0], key=poly_deg)
    return F.neg(h[0])


# ---------------------------------------------------------------------------
# the tower F_p < F_q < F_{q^d}
# ---------------------------------------------------------------------------


class FieldCtx:
    """The field tower for a given (p, f, d), with an explicit embedding.

    base is F_q with q = p^f, ext is F_{q^d}; both use the lexicographically
    smallest monic irreducible modulus over F_p. The embedding sends the
    canonical generator of base to the root of base's modulus inside ext
    with the smallest coefficient vector.
    """

    def __init__(self, p: int, f: int, d: int):
        if f < 1 or d < 1:
            raise InvalidInput("extension degrees must be positive")
        self.p, self.f, self.d = p, f, d
        self.q = p**f
        self.base = Field(p, f)
        self.ext = Field(p, f * d)
        self._embed_inverse: dict[int, int] = {}
        if f > 1:  # a prime base field embeds as the identity on codes, with no table
            self._embed_codes = self._build_embedding()
            self._embed_inverse = {v: c for c, v in enumerate(self._embed_codes)}

    def _build_embedding(self) -> list[int]:
        """The image of every base code, in code order. The base modulus is
        irreducible over F_p of degree f, so its roots in ext are the p-power
        orbit of any one of them."""
        # base modulus has F_p coefficients, which are valid ext codes as-is
        orbit = [_one_root(self.ext, self.base.modulus)]
        for _ in range(self.f - 1):
            orbit.append(self.ext.frobenius(orbit[-1], 1))
        r = min(orbit, key=self.ext.decode)
        return [poly_eval(self.ext, self.base.decode(code), r) for code in range(self.base.order)]

    def embed(self, a: int) -> int:
        """Ring embedding F_q -> F_{q^d} on codes."""
        if not 0 <= a < self.q:
            raise InvalidInput(f"base code {a} is out of range for F_{self.q}")
        return a if self.f == 1 else self._embed_codes[a]

    def unembed(self, a: int) -> int:
        """Inverse of embed on its image; raises if a is not in the image."""
        if self.f == 1 and 0 <= a < self.q:
            return a
        try:
            return self._embed_inverse[a]
        except KeyError:
            raise InvalidInput(f"ext code {a} is not in the embedded base field") from None

    def embed_poly(self, g: DensePoly) -> DensePoly:
        return tuple(self.embed(c) for c in g)

    def frobenius(self, x: int, e: int) -> int:
        """x^(q^e) in ext, with e reduced mod d (negative e allowed): the p^(f e)-power
        digit map of ext."""
        return self.ext.frobenius(x, self.f * e)

    def min_poly_over_base(self, x: int) -> DensePoly:
        """Minimal polynomial of x in ext over F_q, coefficients as base codes."""
        conjugates = []
        y = x
        while y not in conjugates:
            conjugates.append(y)
            y = self.frobenius(y, 1)
        poly: DensePoly = (1,)
        for c in conjugates:
            poly = poly_mul(self.ext, poly, (self.ext.neg(c), 1))
        return tuple(self.unembed(c) for c in poly)


@lru_cache(maxsize=None)
def field_ctx(p: int, f: int, d: int) -> FieldCtx:
    return FieldCtx(p, f, d)


def roots_in_extension(ctx: FieldCtx, g: DensePoly) -> list[tuple[int, int]]:
    """All roots of g (over F_q) lying in F_{q^d}, as (ext code, multiplicity).

    Roots of an irreducible degree-e factor of g appear exactly when e
    divides d, and then they are e distinct conjugates: one comes from
    equal-degree splitting of the factor over F_{q^d}, keeping only the
    smaller part of each split, and the others are its images under the
    q-power Frobenius. Ordering follows factor order, then coefficient
    vectors; each root carries its factor's multiplicity.
    """
    g = poly_trim(g)
    if not g:
        raise InvalidInput("cannot take roots of the zero polynomial")
    ext = ctx.ext
    out: list[tuple[int, int]] = []
    for f, mult in factor_poly(ctx.base, g):
        e = poly_deg(f)
        if ctx.d % e:
            continue
        orbit = [_one_root(ext, ctx.embed_poly(f))]
        for _ in range(e - 1):
            orbit.append(ctx.frobenius(orbit[-1], 1))
        out.extend((lam, mult) for lam in sorted(orbit, key=ext.decode))
    return out


# ---------------------------------------------------------------------------
# orders and discrete logarithms
# ---------------------------------------------------------------------------


def element_order(F: Field, x: int) -> int:
    """Multiplicative order, via the factorization of the group order."""
    if x == 0:
        raise InvalidInput("the zero element has no multiplicative order")
    n = F.order - 1
    o = n
    for r in factorint(n):
        while o % r == 0 and F.pow(x, o // r) == 1:
            o //= r
    return o


def is_primitive(F: Field, x: int) -> bool:
    if x == 0:
        return False
    n = F.order - 1
    return all(F.pow(x, n // r) != 1 for r in factorint(n))


def _bsgs(F: Field, target: int, base: int, n: int) -> int:
    """Baby-step/giant-step in the order-n cyclic group generated by base."""
    m = isqrt(n - 1) + 1
    if m > 2**24:
        raise CapacityExceeded(f"baby-step table of size {m} exceeds the desk-scale budget")
    table = {}
    e = 1
    for j in range(m):
        table.setdefault(e, j)
        e = F.mul(e, base)
    giant = F.inv(e)  # base^(-m)
    y = target
    for i in range(m):
        j = table.get(y)
        if j is not None:
            return i * m + j
        y = F.mul(y, giant)
    raise NotInSubgroup("target is not a power of the base")


def discrete_log(F: Field, target: int, base: int) -> int:
    """Smallest E >= 0 with base^E = target, by Pohlig-Hellman over ord(base)."""
    if base == 0:
        raise InvalidInput("discrete log base must be nonzero")
    if target == 0:
        raise NotInSubgroup("zero is not a power of a nonzero base")
    if F.order > DLOG_LIMIT:
        raise CapacityExceeded(f"field order {F.order} exceeds the discrete-log budget")
    n = element_order(F, base)
    if F.pow(target, n) != 1:
        raise NotInSubgroup("target order does not divide the base order")
    residues: list[tuple[int, int]] = []
    for r, a in factorint(n).items():
        ra = r**a
        # digits of E mod r^a, lifted one r-adic digit at a time
        gamma = F.pow(base, n // r)  # order r
        e_mod = 0
        for k in range(a):
            h = F.pow(
                F.mul(target, F.inv(F.pow(base, e_mod))),
                n // r ** (k + 1),
            )
            dk = _bsgs(F, h, gamma, r)
            e_mod += dk * r**k
        residues.append((e_mod, ra))
    # CRT over prime-power moduli
    e, mod = 0, 1
    for (ri, mi) in residues:
        t = ((ri - e) * pow(mod, -1, mi)) % mi
        e += mod * t
        mod *= mi
    if F.pow(base, e) != target:
        raise NotInSubgroup("target is not a power of the base")
    return e % n


def nth_roots(F: Field, n: int, r: int) -> list[int]:
    """All x in F* with x^n = r, sorted by code, with no discrete log
    (Adleman, Manders & Miller 1977). With N = |F*| and g = gcd(n, N), the
    n-th powers are the order-N/g subgroup, so roots exist exactly when
    r^(N/g) = 1; they are then the roots of x^g = mu, mu = r^((n/g)^-1 mod
    N/g): one root of x^g - mu times the g-th roots of unity."""
    if r == 0:
        return []
    q1 = F.order - 1
    n = n % q1 or q1
    g = gcd(n, q1)
    # first: an x^g - mu that does not split would keep _one_root looping
    if F.pow(r, q1 // g) != 1:
        return []
    mu = F.pow(r, pow(n // g, -1, q1 // g))
    primes = factorint(g)
    # prime powers of g that are full in N need no split: for their product
    # g2, gcd(g2, N/g2) = 1, so x = mu^(g2^-1 mod N/g2) has x^g2 = mu, and x
    # is an h-th power for h = g/g2, which is prime to g2
    g2 = prod(ell**a for ell, a in primes.items() if (q1 // g) % ell)
    x, h = F.pow(mu, pow(g2, -1, q1 // g2)), g // g2
    # zeta of order g: the first z^(N/g) whose order the primes of g confirm,
    # z past the prime field of an extension (its orders divide p - 1)
    units = (F.pow(z, q1 // g) for z in range(1 if F.m == 1 else F.p, F.order))
    zeta = next(w for w in units if all(F.pow(w, g // ell) != 1 for ell in primes))
    # then h a prime at a time: x is an h-th power, so t^ell - x splits into
    # distinct linear factors, and one of its roots is an (h/ell)-th power
    for ell in [ell for ell, a in primes.items() if h % ell == 0 for _ in range(a)]:
        h //= ell
        t = _one_root(F, (F.neg(x),) + (0,) * (ell - 1) + (1,))
        w = F.pow(zeta, g // ell)
        x = next(u for u in accumulate([w] * (ell - 1), F.mul, initial=t) if F.pow(u, q1 // h) == 1)
    return sorted(accumulate([zeta] * (g - 1), F.mul, initial=x))
