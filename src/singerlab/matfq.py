"""Dense exact linear algebra over the fields in ffield.

Matrices hold element codes (as in ffield) in an int64 numpy array. All
bulk arithmetic runs on the base-p digit tensor of shape (m, rows, cols):
sums are digitwise mod p, and a product is the batch of m^2 F_p products
of digit planes, folded back to m digits by Field.reduction, whose column
i*m + j holds x^(i+j) mod the field's modulus. Prime fields are
m = 1. When a sum of products could reach 2^63 the same code runs on
Python-int object arrays. Elimination does one vectorized rank-1 update
per pivot, and pivots are always the first nonzero entry in scan order,
so every result is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import factorial, prod

import numpy as np

from .errors import FieldMismatch, InvalidInput, ShapeMismatch, SingularMatrix, UnsupportedFactor
from .ffield import DensePoly, Field, FieldCtx, digit_dtype, poly_trim

# ---------------------------------------------------------------------------
# the digit-tensor kernel
# ---------------------------------------------------------------------------


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False  # cached: shared by every caller
    return arrays


def _dtype(F: Field, inner: int = 1):
    """int64 unless a sum of `inner` (or m^2) digit products could overflow."""
    return digit_dtype(F.p, max(inner, F.m * F.m))


def _split(F: Field, a, dt) -> np.ndarray:
    """Codes to digits, the digit axis first."""
    a = np.asarray(a).astype(dt)
    w = F.weights.astype(dt).reshape((-1,) + (1,) * a.ndim)
    return a[None] // w % F.p


def _join(F: Field, D: np.ndarray) -> np.ndarray:
    """Digits back to int64 codes."""
    return (F.weights @ D.reshape(F.m, -1)).reshape(D.shape[1:]).astype(np.int64)


def _fold(F: Field, P: np.ndarray) -> np.ndarray:
    """Digit-plane products P[i, j] = X_i * Y_j, shape (m, m, ...), to digits."""
    if F.m == 1:  # the reduction matrix is [[1]]: skip its matmul over the whole array
        return P[0] % F.p
    flat = (P % F.p).reshape(F.m * F.m, -1)
    return (F.reduction @ flat % F.p).reshape(P.shape[1:])


def _mul(F: Field, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Entrywise product of broadcastable digit tensors."""
    return _fold(F, X[:, None] * Y[None])


def _sub_outer(F: Field, D: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """D - u * v in digits, u and v broadcasting to D (a rank-1 update)."""
    return (D - _mul(F, u, v)) % F.p


def _first_nonzero(col: np.ndarray) -> int | None:
    """Index of the first nonzero element in a digit column (m, k)."""
    nz = (col != 0).any(0).nonzero()[0]
    return int(nz[0]) if len(nz) else None


def read_int(x, what: str = "value") -> int:
    """x as an int, refusing bools, floats, strings and None: no coercion."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise InvalidInput(f"{what} {x!r} is not an integer")
    return int(x)


@dataclass
class Matrix:
    """A matrix of element codes over a fixed field."""

    field: Field
    a: np.ndarray

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        try:
            arr = np.array(rows, dtype=object)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"matrix rows are not rectangular integers: {exc}") from exc
        if arr.ndim != 2:
            raise InvalidInput("matrix rows must form a rectangle")
        for x in arr.flat:
            if not 0 <= read_int(x, "matrix entry") < min(field.order, 2**63):
                raise InvalidInput("entry code out of range for the field")
        return Matrix(field, arr.astype(np.int64))

    @staticmethod
    def zeros(field: Field, r: int, c: int) -> "Matrix":
        return Matrix(field, np.zeros((r, c), dtype=np.int64))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, np.eye(n, dtype=np.int64))

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.a.copy())

    def tolist(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.a]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool((self.a == other.a).all())
        )

    def _peer(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def _digits(self, inner: int = 1) -> np.ndarray:
        return _split(self.field, self.a, _dtype(self.field, inner))

    def _from_digits(self, D: np.ndarray) -> "Matrix":
        return Matrix(self.field, _join(self.field, D))

    # -- ring operations ----------------------------------------------------

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        self._peer(other)
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        return self._from_digits(op(self._digits(), other._digits()) % self.field.p)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, np.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, np.subtract)

    def __neg__(self) -> "Matrix":
        return self._from_digits(-self._digits() % self.field.p)

    def scale(self, c) -> "Matrix":
        """Entrywise product with c: one code, an (r, 1) column of row factors
        (diag(c) @ self) or a (1, c) row of column factors (self @ diag(c))."""
        c = np.reshape(c, (1, 1)) if np.ndim(c) == 0 else np.asarray(c)
        if c.shape not in ((1, 1), (self.shape[0], 1), (1, self.shape[1])):
            raise ShapeMismatch(f"cannot scale a {self.shape} matrix by {c.shape} factors")
        X = self._digits()
        return self._from_digits(_mul(self.field, _split(self.field, c, X.dtype), X))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._peer(other)
        k = self.shape[1]
        if k != other.shape[0]:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        X, Y = self._digits(k), other._digits(k)
        return self._from_digits(_fold(self.field, X[:, None] @ Y[None]))

    def pow(self, e: int) -> "Matrix":
        n, n2 = self.shape
        if n != n2:
            raise ShapeMismatch("matrix power needs a square matrix")
        if e < 0:
            return self.inv().pow(-e)
        result, base = None, self
        while e:  # no product with the identity and no square past the top bit
            if e & 1:
                result = base.copy() if result is None else result @ base
            e >>= 1
            if e:
                base = base @ base
        return Matrix.identity(self.field, n) if result is None else result

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.a.T.copy())

    # -- elimination --------------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and its pivot columns."""
        F = self.field
        D = self._digits()
        r, c = self.shape
        pivots: list[int] = []
        for col in range(c):
            row = len(pivots)
            if row == r:
                break
            piv = _first_nonzero(D[:, row:, col])
            if piv is None:
                continue
            D[:, [row, row + piv]] = D[:, [row + piv, row]]
            inv = _split(F, F.inv(int(_join(F, D[:, row, col]))), D.dtype)
            D[:, row, col:] = _mul(F, inv[:, None], D[:, row, col:])
            t = D[:, :, col].copy()
            t[:, row] = 0
            D[:, :, col:] = _sub_outer(F, D[:, :, col:], t[:, :, None], D[:, None, row, col:])
            pivots.append(col)
        return self._from_digits(D), pivots

    def det(self) -> int:
        n, n2 = self.shape
        if n != n2:
            raise ShapeMismatch("determinant needs a square matrix")
        F = self.field
        D = self._digits()
        det = 1
        for col in range(n):
            piv = _first_nonzero(D[:, col:, col])
            if piv is None:
                return 0
            if piv:
                D[:, [col, col + piv]] = D[:, [col + piv, col]]
                det = F.neg(det)
            pval = int(_join(F, D[:, col, col]))
            det = F.mul(det, pval)
            t = _mul(F, D[:, col + 1 :, col], _split(F, F.inv(pval), D.dtype)[:, None])
            D[:, col + 1 :, col:] = _sub_outer(F, D[:, col + 1 :, col:], t[:, :, None], D[:, None, col, col:])
        return det

    def inv(self) -> "Matrix":
        n, n2 = self.shape
        if n != n2:
            raise ShapeMismatch("inverse needs a square matrix")
        F = self.field
        aug = np.concatenate([self.a, np.eye(n, dtype=np.int64)], axis=1)
        red, pivots = Matrix(F, aug).rref()
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is not invertible")
        return Matrix(F, red.a[:, n:].copy())

    def is_invertible(self) -> bool:
        n, n2 = self.shape
        return n == n2 and len(self.rref()[1]) == n


def proportional(L: Matrix, R: Matrix) -> int | None:
    """The nonzero scalar mu with L == mu * R, or None. Zero patterns must agree."""
    if L.shape != R.shape:
        return None
    nz = R.a.ravel().nonzero()[0]
    if len(nz) == 0:
        return None
    i = int(nz[0])
    mu = L.field.div(int(L.a.ravel()[i]), int(R.a.ravel()[i]))
    if mu == 0:
        return None
    return mu if L == R.scale(mu) else None


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product, left factor major: entry ((i,k),(j,l)) = A[i,j] B[k,l]."""
    A._peer(B)
    (ra, ca), (rb, cb) = A.shape, B.shape
    D = _mul(A.field, A._digits()[:, :, None, :, None], B._digits()[:, None, :, None, :])
    return Matrix(A.field, _join(A.field, D).reshape(ra * rb, ca * cb))


@lru_cache(maxsize=None)
def _compound_plan(r: int, c: int, s: int) -> tuple[np.ndarray, ...]:
    """Index arrays that expand the (s-1)-minors of an r x c matrix into its
    s-minors along the first row: for row subset R and column subset C, term
    j pairs A[R[0], C[j]] with the minor (R[1:], C without C[j])."""
    rows, cols = list(combinations(range(r), s)), list(combinations(range(c), s))
    prev_r = {S: i for i, S in enumerate(combinations(range(r), s - 1))}
    prev_c = {S: i for i, S in enumerate(combinations(range(c), s - 1))}
    first = np.array([R[0] for R in rows], dtype=np.intp)[:, None, None]
    rest = np.array([prev_r[R[1:]] for R in rows], dtype=np.intp)[:, None, None]
    at = np.array(cols, dtype=np.intp).reshape(1, -1, s)
    drop = np.array([[prev_c[C[:j] + C[j + 1 :]] for j in range(s)] for C in cols], dtype=np.intp)
    return _frozen(first, rest, at, drop.reshape(1, -1, s))


def compound_matrix(A: Matrix, k: int) -> Matrix:
    """The k-th compound: entry (R, C) is det A[R, C], for row and column
    k-subsets in lexicographic order. Minors of size s come from those of
    size s - 1 by Laplace expansion along the first row, for every subset
    pair at once."""
    F = A.field
    r, c = A.shape
    X = M = A._digits(k)  # M: the minors of the current size, 1 x 1 first
    for s in range(2, k + 1):
        first, rest, at, drop = _compound_plan(r, c, s)
        # term j: A[R[0], C[j]] * (-1)^j * minor(R[1:], C without C[j])
        head, tail = X[:, first, at], M[:, rest, drop]
        tail[..., 1::2] = -tail[..., 1::2] % F.p
        M = _fold(F, (head[:, None] * tail[None]).sum(-1))
    return Matrix(F, _join(F, M))


def _multisets(n: int, s: int) -> list[tuple[int, ...]]:
    """The s-multisets of range(n) as count vectors, in lexicographic order."""
    return [tuple(S.count(i) for i in range(n)) for S in combinations_with_replacement(range(n), s)]


@lru_cache(maxsize=None)
def _sym_plan(r: int, c: int, s: int) -> tuple[np.ndarray, ...]:
    """Index arrays that build the size-s coefficients of an r x c symmetric
    power from the size-(s-1) ones: drop[i, N] indexes N - e_i among the row
    multisets (the appended zero row when N_i = 0), and column M splits into
    its last symbol and the index of M[:-1]."""
    prev = {N: j for j, N in enumerate(_multisets(r, s - 1))}
    drop = [[prev.get(N[:i] + (N[i] - 1,) + N[i + 1 :], len(prev)) for N in _multisets(r, s)] for i in range(r)]
    prev_c = {M: j for j, M in enumerate(combinations_with_replacement(range(c), s - 1))}
    last, rest = np.array([(M[-1], prev_c[M[:-1]]) for M in combinations_with_replacement(range(c), s)]).T
    return _frozen(np.array(drop, dtype=np.intp)[:, :, None], last, rest)


@lru_cache(maxsize=None)
def _sym_ratio(r: int, c: int, k: int, p: int) -> np.ndarray:
    """mult(M) / mult(N) mod p for row multiset N and column multiset M."""
    mult = {n: [factorial(k) // prod(map(factorial, N)) % p for N in _multisets(n, k)] for n in (r, c)}
    ratio = np.array([[b * pow(a, -1, p) % p for b in mult[c]] for a in mult[r]], dtype=np.int64)
    return _frozen(ratio)[0]


def symmetric_power(A: Matrix, k: int) -> Matrix:
    """The k-th symmetric power: entry (N, M) is mult(M)/mult(N) times the
    coefficient Q[N, M] of x^N in prod_{j in M} sum_i A[i, j] x_i, for row and
    column k-multisets in lexicographic order, mult being the multinomial
    count of a multiset. Coefficients of size s come from those of size
    s - 1 for every multiset pair at once:
    Q_s[N, M] = sum_i A[i, M_last] * Q_{s-1}[N - e_i, M - M_last],
    read from an appended zero row when i is not in N."""
    F = A.field
    if k >= F.p:
        raise UnsupportedFactor(f"sym({k}) needs k < characteristic {F.p}")
    r, c = A.shape
    X = Q = A._digits(r)
    for s in range(2, k + 1):
        drop, last, rest = _sym_plan(r, c, s)
        Qz = np.concatenate([Q, 0 * Q[:, :1]], axis=1)
        Q = _fold(F, (X[:, None, :, None, last] * Qz[None, :, drop, rest]).sum(2))
    return Matrix(F, _join(F, Q * _sym_ratio(r, c, k, F.p).astype(Q.dtype, copy=False) % F.p))


def word_products(gens: list[Matrix], words) -> list[Matrix]:
    """The product of every word, a sequence of indices into gens, taken
    left to right. All words advance one letter at a time on one digit
    tensor with a batch axis; the empty word gives the identity."""
    F, n, pad = gens[0].field, gens[0].shape[0], len(gens)
    for g in gens:
        gens[0]._peer(g)
    G = _split(F, np.stack([g.a for g in gens] + [np.eye(n, dtype=np.int64)]), _dtype(F, n))
    width = max([1, *map(len, words)])
    W = np.array([[*w] + [pad] * (width - len(w)) for w in words], dtype=np.intp).reshape(-1, width)
    P = G[:, W[:, 0]]
    for j in range(1, width):
        on = W[:, j] != pad
        P[:, on] = _fold(F, P[:, None, on] @ G[None, :, W[on, j]])
    return [Matrix(F, a) for a in _join(F, P)]


def kernel_basis(A: Matrix) -> list[list[int]]:
    """Basis of the right null space, one vector per free column.

    Vectors come out in free-column order with a 1 in their free position,
    so the result is deterministic and echelon-shaped.
    """
    red, pivots = A.rref()
    c = A.shape[1]
    pivot_set = set(pivots)
    free = [j for j in range(c) if j not in pivot_set]
    basis = np.zeros((len(free), c), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-red).a[: len(pivots), free].T
    return basis.tolist()


def companion_matrix(F: Field, monic: DensePoly) -> Matrix:
    """Companion matrix of a monic polynomial: subdiagonal ones, negated
    low coefficients in the last column."""
    monic = poly_trim(monic)
    if not monic or monic[-1] != 1:
        raise InvalidInput("companion matrix needs a monic polynomial")
    n = len(monic) - 1
    a = np.eye(n, k=-1, dtype=np.int64)
    for i in range(n):
        a[i, n - 1] = F.neg(monic[i])
    return Matrix(F, a)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def _hessenberg(A: Matrix) -> np.ndarray:
    """Similarity-reduce to upper Hessenberg form (copy; original untouched).
    Step j is H -> L H L^-1, L = I - t e_{j+1}^T, t_i = h[i, j] / h[j+1, j] for i > j+1."""
    F = A.field
    n = A.shape[0]
    D = A._digits(n)
    for j in range(n - 2):
        piv = _first_nonzero(D[:, j + 1 :, j])
        if piv is None:
            continue
        swap = [j + 1, j + 1 + piv]
        D[:, swap] = D[:, swap[::-1]]
        D[:, :, swap] = D[:, :, swap[::-1]]
        inv = _split(F, F.inv(int(_join(F, D[:, j + 1, j]))), D.dtype)
        t = _mul(F, D[:, :, j], inv[:, None])
        t[:, : j + 2] = 0
        D = _sub_outer(F, D, t[:, :, None], D[:, None, j + 1])
        D[:, :, j + 1] = (D[:, :, j + 1] + _fold(F, D[:, None] @ t[None, :, :, None])[..., 0]) % F.p
    return _join(F, D)


def char_poly(A: Matrix) -> DensePoly:
    """Monic characteristic polynomial det(xI - A), low coefficients first."""
    n, n2 = A.shape
    if n != n2:
        raise ShapeMismatch("characteristic polynomial needs a square matrix")
    F = A.field
    h = _hessenberg(A)
    # p_m = det of the leading m x m block of (xI - H), by last-column expansion
    polys: list[list[int]] = [[1]]
    for m in range(1, n + 1):
        diag = int(h[m - 1, m - 1])
        prev = polys[m - 1]
        cur = [0] * (m + 1)
        for i, c in enumerate(prev):  # (x - diag) * p_{m-1}
            cur[i + 1] = F.add(cur[i + 1], c)
            cur[i] = F.sub(cur[i], F.mul(diag, c))
        run = 1  # product of subdiagonal entries h[m-t, m-t-1]
        for k in range(1, m):
            run = F.mul(run, int(h[m - k, m - k - 1]))
            if run == 0:
                break
            coef = F.mul(int(h[m - 1 - k, m - 1]), run)
            if coef:
                for i, c in enumerate(polys[m - 1 - k]):
                    cur[i] = F.sub(cur[i], F.mul(coef, c))
        polys.append(cur)
    return tuple(polys[n])


def embed_matrix(ctx: FieldCtx, A: Matrix) -> Matrix:
    """Push a matrix over F_q into F_{q^d} through the tower embedding."""
    if A.field != ctx.base:
        raise FieldMismatch("matrix is not over the tower's base field")
    return Matrix(ctx.ext, ctx.embed_array(A.a))


def random_invertible(F: Field, n: int, rng) -> Matrix:
    """Uniformly sampled invertible matrix by rejection."""
    while True:
        a = np.array(
            [[rng.randrange(F.order) for _ in range(n)] for _ in range(n)],
            dtype=np.int64,
        )
        M = Matrix(F, a)
        if M.is_invertible():
            return M