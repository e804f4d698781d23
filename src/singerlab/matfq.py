"""Dense exact linear algebra over the fields in ffield.

A Matrix holds the base-p digit tensor of its entries' codes (as in
ffield), shape (m, *batch, rows, cols); codes are converted only at the
boundary (from_rows, scale, .a, tolist, scalar reads of pivots and
entries). The batch axes make it a stack of equally shaped matrices, and a
single matrix is the stack with no batch axes: products, scale, kron, the
symmetric and exterior powers, Frobenius and the tower embedding act on
every member at once, and a single matrix broadcasts against a stack.
Elimination, inverses and the characteristic polynomial take one matrix.

Sums are digitwise mod p, and every product (matrix, entrywise, and the
sums of products inside the functors and the Hessenberg reduction) runs
through one kernel, planned per (field, inner sum length): each int64
packs b digits S bits apart (Kronecker substitution), so a product is
ceil(m/b)^2 int64 products whose 2b-1 slots are unpacked by shifts and
masks and folded back to m digits by one reduction whose columns are x^k
mod the field's modulus. S is wide enough that no slot carries, and the
slots are reduced mod p before the fold only when the fold could reach
2^63. b = 1, m^2 products of digit planes and an (m, m^2) fold, is kept
for fields of one or two digits, where packing does not pay, and for
products whose sums could reach 2^63 even unpacked, which run on
Python-int object arrays. Frobenius and the tower embedding are F_p-linear
maps on the digit axis. Elimination does one vectorized rank-1 update per
pivot, and pivots are always the first nonzero entry in scan order, so
every result is deterministic.
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


def _split(F: Field, a) -> np.ndarray:
    """Codes to digits, the digit axis first."""
    a = np.asarray(a, dtype=F.weights.dtype)
    w = F.weights.reshape((-1,) + (1,) * a.ndim)
    return (a[None] // w % F.p).astype(F.dtype, copy=False)


def _join(F: Field, D: np.ndarray) -> np.ndarray:
    """Digits back to codes: int64, or Python ints when a code can reach 2^63."""
    return (F.weights @ D.reshape(F.m, -1)).reshape(D.shape[1:]).astype(F.weights.dtype, copy=False)


def _aligned(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X and Y, the one with fewer axes given unit batch axes after its digit
    axis: a single matrix or factor then broadcasts over a stack's members."""
    if X.ndim == Y.ndim:
        return X, Y
    nd = max(X.ndim, Y.ndim)
    return tuple(D.reshape(D.shape[:1] + (1,) * (nd - D.ndim) + D.shape[1:]) for D in (X, Y))


class _Plan:
    """The kernel's layout over F_{p^m} for results that each sum `inner`
    products: block u of an operand holds digits u b .. u b + b - 1 at bits
    t S (zero past m), the product of blocks u and v holds the coefficient
    of x^((u+v) b + s) in its slot s, and the reduction's column (s, u, v)
    is x^((u+v) b + s) mod the modulus. b is the largest with (2b-1) S <= 63,
    S being the bit length of a slot's bound inner * b * (p-1)^2, then
    lowered to the least padding for the same block count; b = 1 at m <= 2
    and on Python-int digits."""

    def __init__(self, F: Field, inner: int):
        p, m = self.p, self.m = F.p, F.m
        self.out = F.dtype  # the result's digit storage
        self.dtype = digit_dtype(p, max(inner, m * m))
        slot = lambda b: inner * b * (p - 1) ** 2  # a slot's bound: b digit pairs per inner term
        b = 1
        if m > 2 and self.dtype is np.int64:
            while b < m and (2 * b + 1) * slot(b + 1).bit_length() <= 63:
                b += 1
            b = -(-m // -(-m // b))  # the same block count with the least padding
        blocks, S = -(-m // b), slot(b).bit_length()
        self.b, self.S, self.blocks = b, S, blocks
        self.shifts = np.arange(0, (2 * b - 1) * S, S, dtype=np.int64).reshape(-1, 1, 1)
        self.mask = (1 << S) - 1
        weights = np.zeros((blocks, m), dtype=np.int64)
        for i in range(m):
            weights[i // b, i] = 1 << (i % b * S)
        s, u, v = np.meshgrid(range(2 * b - 1), range(blocks), range(blocks), indexing="ij")
        self.weights, self.reduction = _frozen(weights, F.powers[((u + v) * b + s).ravel()].T)
        # reduce the slots mod p first only when the reduction's sum could reach 2^63
        self.reduce_first = self.reduction.shape[1] * slot(b) * (p - 1) >= 2**63

    def __call__(self, X: np.ndarray, Y: np.ndarray, op) -> np.ndarray:
        """The digits of op(x, y), see _product."""
        if self.b > 1:  # digits (m, ...) to blocks (ceil(m/b), ...)
            X, Y = ((self.weights @ D.reshape(self.m, -1)).reshape((self.blocks,) + D.shape[1:]) for D in (X, Y))
        elif self.dtype is not self.out:
            X, Y = X.astype(self.dtype), Y.astype(self.dtype)
        X, Y = _aligned(X, Y)
        P = op(X[:, None], Y[None])
        if self.m == 1:  # the reduction is [[1]]: skip its matmul over the whole array
            return (P[0] % self.p).astype(self.out, copy=False)
        shape, P = (self.m,) + P.shape[2:], P.reshape(self.blocks**2, -1)
        if self.b > 1:
            P = P >> self.shifts  # slot s of every block product along a new first axis
            P &= self.mask
            P = P.reshape(self.reduction.shape[1], -1)
        if self.reduce_first:
            P = P % self.p
        return (self.reduction @ P % self.p).reshape(shape).astype(self.out, copy=False)


_plan = lru_cache(maxsize=None)(_Plan)  # one plan per (field, inner)


def _product(F: Field, X: np.ndarray, Y: np.ndarray, inner: int, op=np.matmul) -> np.ndarray:
    """The digits of op(x, y) for digit tensors X and Y that broadcast after
    the digit axis, op being a product that sums at most `inner` products of
    two entries per result entry: np.matmul with inner the shared dimension,
    np.multiply with inner 1. One op on the packed blocks of every pair,
    then its slots are unpacked and folded back to digits."""
    return _plan(F, inner)(X, Y, op)


def _mul(F: Field, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Entrywise product of digit tensors that broadcast after the digit axis."""
    return _product(F, X, Y, 1, np.multiply)


def _first_nonzero(col: np.ndarray) -> int | None:
    """Index of the first nonzero element in a digit column (m, k)."""
    nz = (col != 0).any(0).nonzero()[0]
    return int(nz[0]) if len(nz) else None


def _inverse(F: Field, v: np.ndarray) -> np.ndarray:
    """The digits of 1/x for the digits v of a nonzero entry x, read as a scalar."""
    return np.array(F.decode(F.inv(F.encode(v.tolist()))), dtype=v.dtype)


def read_int(x, what: str = "value") -> int:
    """x as an int, refusing bools, floats, strings and None: no coercion."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise InvalidInput(f"{what} {x!r} is not an integer")
    return int(x)


def read_code(x, F: Field, what: str, low: int = 0) -> int:
    """x as the code of an element of F, at least low: read_int and a range check."""
    c = read_int(x, what)
    if not low <= c < F.order:
        raise InvalidInput(f"{what} {c} is outside the codes [{low}, {F.order}) of {F!r}")
    return c


@dataclass
class Matrix:
    """A matrix over a fixed field, held as the (m, rows, cols) digit tensor
    of its entries."""

    field: Field
    D: np.ndarray

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        try:
            arr = np.array(rows, dtype=object)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"matrix rows are not rectangular integers: {exc}") from exc
        if arr.ndim != 2:
            raise InvalidInput("matrix rows must form a rectangle")
        for x in arr.flat:
            read_code(x, field, "matrix entry")
        return Matrix(field, _split(field, arr))

    @staticmethod
    def zeros(field: Field, r: int, c: int) -> "Matrix":
        return Matrix(field, np.zeros((field.m, r, c), dtype=field.dtype))

    @staticmethod
    def identity(field: Field, n: int, batch: tuple[int, ...] = ()) -> "Matrix":
        M = Matrix(field, np.zeros((field.m, *batch, n, n), dtype=field.dtype))
        M.D[0, ..., range(n), range(n)] = 1
        return M

    @property
    def a(self) -> np.ndarray:
        """The element codes, built from the digits on each read. The array is
        read-only: a write to it could not reach the matrix."""
        a = _join(self.field, self.D)
        a.flags.writeable = False
        return a

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of the matrix, or of every member of a stack."""
        return self.D.shape[-2:]

    @property
    def batch(self) -> tuple[int, ...]:
        """The stack's batch axes: () for a single matrix."""
        return self.D.shape[1:-2]

    def members(self) -> list["Matrix"]:
        """The matrices along the first batch axis."""
        return [Matrix(self.field, D) for D in np.moveaxis(self.D, 1, 0)]

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.D.copy())

    def tolist(self) -> list[list[int]]:
        return self.a.tolist()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.D.shape == other.D.shape
            and bool((self.D == other.D).all())
        )

    def _peer(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    # -- ring operations ----------------------------------------------------

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        self._peer(other)
        if self.D.shape != other.D.shape:
            raise ShapeMismatch(f"{self.D.shape[1:]} vs {other.D.shape[1:]}")
        return Matrix(self.field, op(self.D, other.D) % self.field.p)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, np.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, np.subtract)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, -self.D % self.field.p)

    def scale(self, c) -> "Matrix":
        """Entrywise product with c: one code, an (r, 1) column of row factors
        (diag(c) @ self) or a (1, c) row of column factors (self @ diag(c)),
        the same for every member of a stack, or with the stack's batch axes
        in front for factors per member."""
        c = np.reshape(c, (1, 1)) if np.ndim(c) == 0 else np.asarray(c)
        if c.shape[-2:] not in ((1, 1), (self.shape[0], 1), (1, self.shape[1])) or c.shape[:-2] not in ((), self.batch):
            raise ShapeMismatch(f"cannot scale a {self.D.shape[1:]} stack by {c.shape} factors")
        return Matrix(self.field, _mul(self.field, _split(self.field, c), self.D))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._peer(other)
        F, k = self.field, self.shape[1]
        if k != other.shape[0] or (self.batch and other.batch and self.batch != other.batch):
            raise ShapeMismatch(f"{self.D.shape[1:]} @ {other.D.shape[1:]}")
        return Matrix(F, _product(F, self.D, other.D, k))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, np.swapaxes(self.D, -1, -2).copy())

    # -- elimination --------------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and its pivot columns."""
        F = self.field
        D = self.D.copy()
        r, c = self.shape
        pivots: list[int] = []
        for col in range(c):
            row = len(pivots)
            if row == r:
                break
            piv = _first_nonzero(D[:, row:, col])
            if piv is None:
                continue
            if piv:
                D[:, [row, row + piv]] = D[:, [row + piv, row]]
            D[:, row, col:] = _mul(F, _inverse(F, D[:, row, col])[:, None], D[:, row, col:])
            t = D[:, :, col].copy()
            t[:, row] = 0
            D[:, :, col:] = (D[:, :, col:] - _mul(F, t[:, :, None], D[:, None, row, col:])) % F.p
            pivots.append(col)
        return Matrix(F, D), pivots

    def det(self) -> int:
        """(-1)^n times the constant term of the characteristic polynomial."""
        n, n2 = self.shape
        if n != n2:
            raise ShapeMismatch("determinant needs a square matrix")
        c0 = char_poly(self)[0]
        return self.field.neg(c0) if n % 2 else c0

    def inv(self) -> "Matrix":
        n, n2 = self.shape
        if n != n2:
            raise ShapeMismatch("inverse needs a square matrix")
        F = self.field
        aug = np.concatenate([self.D, Matrix.identity(F, n).D], axis=2)
        red, pivots = Matrix(F, aug).rref()
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is not invertible")
        return Matrix(F, red.D[:, :, n:].copy())

    def is_invertible(self) -> bool:
        n, n2 = self.shape
        return n == n2 and len(self.rref()[1]) == n


def proportional(L: Matrix, R: Matrix) -> list[int | None]:
    """Per member of two stacks of one shape, in batch order, the nonzero
    scalar mu with L == mu * R, or None; a single matrix is a one-member
    stack. Zero patterns must agree. mu is the ratio at R's first nonzero
    entry: one field division per member, then one stacked scale and
    compare."""
    L._peer(R)
    if L.D.shape != R.D.shape:
        raise ShapeMismatch(f"{L.D.shape[1:]} vs {R.D.shape[1:]}")
    F, (r, c) = L.field, L.shape
    Ld, Rd = (M.D.reshape(F.m, -1, r * c) for M in (L, R))
    at, pick = Rd.any(0).argmax(1), np.arange(Rd.shape[1])  # a zero member reads 0 at 0, so its mu is 0
    num, den = _join(F, Ld[:, pick, at]).tolist(), _join(F, Rd[:, pick, at]).tolist()
    mus = [F.div(x, y) if y else 0 for x, y in zip(num, den)]
    S = R.scale(np.array(mus, dtype=F.weights.dtype).reshape(L.batch + (1, 1)))
    same = (Ld == S.D.reshape(Ld.shape)).all((0, 2))
    return [mu if mu and ok else None for mu, ok in zip(mus, same.tolist())]


def intertwining_scalars(X: Matrix, lefts: Matrix, rights: Matrix) -> list[int | None]:
    """Per member pair (L, R) of two stacks, the nonzero mu with L @ X == mu *
    X @ R, or None. With X invertible that is L == mu * X @ R @ X^{-1}: the
    certificate both rewrite's results and an instance's oracle data must
    pass. L @ X and X @ R are each one stacked product."""
    return proportional(lefts @ X, X @ rights)


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product, left factor major: entry ((i,k),(j,l)) = A[i,j] B[k,l]."""
    A._peer(B)
    F, (ra, ca), (rb, cb) = A.field, A.shape, B.shape
    D = _mul(F, A.D[..., :, None, :, None], B.D[..., None, :, None, :])
    return Matrix(F, D.reshape(D.shape[:-4] + (ra * rb, ca * cb)))


def stack(mats) -> Matrix:
    """The matrices, all of one shape, as a stack along a new first batch axis."""
    mats = list(mats)
    for M in mats:
        mats[0]._peer(M)
        if M.D.shape != mats[0].D.shape:
            raise ShapeMismatch(f"cannot stack {M.D.shape[1:]} with {mats[0].D.shape[1:]}")
    return Matrix(mats[0].field, np.stack([M.D for M in mats], axis=1))


def vstack(blocks: list[Matrix]) -> Matrix:
    """The blocks' rows, top to bottom."""
    for b in blocks:
        blocks[0]._peer(b)
    return Matrix(blocks[0].field, np.concatenate([b.D for b in blocks], axis=1))


def frobenius_matrix(M: Matrix, k: int) -> Matrix:
    """M with every entry raised to the power p^k, k reduced mod m: the
    F_p-linear digit map Field._frob_maps, whose row j is x^(j p^k)."""
    F = M.field
    k %= F.m
    if k == 0:
        return M.copy()
    return Matrix(F, (F._frob_maps[k - 1].T @ M.D.reshape(F.m, -1) % F.p).reshape(M.D.shape))


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
    M = A.D.copy()  # the minors of the current size, 1 x 1 first
    for s in range(2, k + 1):
        first, rest, at, drop = _compound_plan(r, c, s)
        # term j: A[R[0], C[j]] * (-1)^j * minor(R[1:], C without C[j])
        head, tail = A.D[..., first, at], M[..., rest, drop]
        tail[..., 1::2] = -tail[..., 1::2] % F.p
        M = _product(F, head, tail, s, lambda x, y: (x * y).sum(-1))
    return Matrix(F, M)


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
    read from an appended zero row when i is not in N: per column M one
    (1, r) @ (r, rows) product, all columns of every member in one matmul."""
    F = A.field
    if k >= F.p:
        raise UnsupportedFactor(f"sym({k}) needs k < characteristic {F.p}")
    r, c = A.shape
    Q = A.D
    for s in range(2, k + 1):
        drop, last, rest = _sym_plan(r, c, s)
        Qz = np.concatenate([Q, 0 * Q[..., :1, :]], axis=-2)
        L = np.swapaxes(A.D[..., last], -1, -2)[..., None, :]  # (m, ..., M, 1, i)
        G = np.moveaxis(Qz[..., drop, rest], -1, -3)  # (m, ..., M, i, N)
        Q = np.swapaxes(_product(F, L, G, r)[..., 0, :], -1, -2)
    return Matrix(F, Q * _sym_ratio(r, c, k, F.p).astype(Q.dtype, copy=False) % F.p)


def word_products(gens: Matrix, words) -> Matrix:
    """The stack of every word's product, a word being a sequence of indices
    into the stack gens, taken left to right. All words advance one letter
    at a time on one digit stack; the empty word gives the identity."""
    F, (n, c) = gens.field, gens.shape
    if len(gens.batch) != 1 or n != c:
        raise ShapeMismatch(f"word products need a stack of square matrices, not a {gens.D.shape[1:]} array")
    (pad,) = gens.batch
    if any(not 0 <= i < pad for w in words for i in w):
        raise InvalidInput(f"a word has a letter outside the {pad} generators")
    G = np.concatenate([gens.D, Matrix.identity(F, n).D[:, None]], axis=1)
    width = max([1, *map(len, words)])
    W = np.array([[*w] + [pad] * (width - len(w)) for w in words], dtype=np.intp).reshape(-1, width)
    P = G[:, W[:, 0]]
    for j in range(1, width):
        on = W[:, j] != pad
        P[:, on] = _product(F, P[:, on], G[:, W[on, j]], n)
    return Matrix(F, P)


def kernel_basis(A: Matrix) -> list[list[int]]:
    """Basis of the right null space, one vector per free column.

    Vectors come out in free-column order with a 1 in their free position,
    so the result is deterministic and echelon-shaped.
    """
    red, pivots = A.rref()
    c = A.shape[1]
    free = [j for j in range(c) if j not in pivots]
    basis = Matrix.zeros(A.field, len(free), c)
    basis.D[0, np.arange(len(free)), free] = 1
    basis.D[:, :, pivots] = (-red).D[:, : len(pivots), free].transpose(0, 2, 1)
    return basis.tolist()


def companion_matrix(F: Field, monic: DensePoly) -> Matrix:
    """Companion matrix of a monic polynomial: subdiagonal ones, negated
    low coefficients in the last column."""
    monic = poly_trim(monic)
    if not monic or monic[-1] != 1:
        raise InvalidInput("companion matrix needs a monic polynomial")
    n = len(monic) - 1
    rows = [[F.neg(monic[i]) if j == n - 1 else int(i == j + 1) for j in range(n)] for i in range(n)]
    return Matrix.from_rows(F, rows)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def _hessenberg(A: Matrix) -> Matrix:
    """Similarity-reduce to upper Hessenberg form (copy; original untouched).
    Step j is H -> L H L^-1, L = I - t e_{j+1}^T, t_i = h[i, j] / h[j+1, j] for i > j+1."""
    F = A.field
    n = A.shape[0]
    D = A.D.copy()
    for j in range(n - 2):
        piv = _first_nonzero(D[:, j + 1 :, j])
        if piv is None:
            continue
        swap = [j + 1, j + 1 + piv]
        D[:, swap] = D[:, swap[::-1]]
        D[:, :, swap] = D[:, :, swap[::-1]]
        t = _mul(F, D[:, :, j], _inverse(F, D[:, j + 1, j])[:, None])
        t[:, : j + 2] = 0
        D = (D - _mul(F, t[:, :, None], D[:, None, j + 1])) % F.p
        D[:, :, j + 1] = (D[:, :, j + 1] + _product(F, D, t[:, :, None], n)[..., 0]) % F.p
    return Matrix(F, D)


def char_poly(A: Matrix) -> DensePoly:
    """Monic characteristic polynomial det(xI - A), low coefficients first."""
    n, n2 = A.shape
    if n != n2:
        raise ShapeMismatch("characteristic polynomial needs a square matrix")
    F = A.field
    h = _hessenberg(A).a
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
    """Push a matrix over F_q into F_{q^d} through the tower embedding, an
    F_p-linear map on the digit axis: column j of its (f d, f) matrix holds
    the digits of embed(x^j)."""
    if A.field != ctx.base:
        raise FieldMismatch("matrix is not over the tower's base field")
    ext, dt = ctx.ext, ctx.ext.dtype
    E = np.array([ext.decode(ctx.embed(ctx.p**j)) for j in range(ctx.f)], dtype=dt).T
    D = E @ A.D.astype(dt, copy=False).reshape(ctx.f, -1) % ctx.p
    return Matrix(ext, D.reshape((ext.m,) + A.D.shape[1:]))


def random_invertible(F: Field, n: int, rng) -> Matrix:
    """Uniformly sampled invertible matrix by rejection."""
    while True:
        M = Matrix.from_rows(F, [[rng.randrange(F.order) for _ in range(n)] for _ in range(n)])
        if M.is_invertible():
            return M
