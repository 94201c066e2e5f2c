"""Exact linear algebra over Q and Q(i): rank, RREF, nullspaces.

Rank has one core, `integer_rank`: fraction-free (Bareiss) elimination in
integers with a deterministic pivot rule (leftmost column, first row with a
nonzero entry); a Q(i) matrix A + iB is realified to [[A, -B], [B, A]],
whose rank over Q is twice its rank over Q(i).  A separate
reduced-row-echelon routine, ordinary Gauss-Jordan over the field, provides
nullspaces and doubles as an independent rank oracle for cross checks.  `first_kernel_vector` finds the first nullspace vector
of an integer image by a pivot profile mod p and an exact integer solve.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm

from .scalars import GaussianRational, Scalar, imag_part, real_part


class Matrix:
    """Immutable dense matrix of exact scalars."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows_data):
        data = tuple(tuple(r) for r in rows_data)
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for r in data:
            if len(r) != self.cols:
                raise ValueError("ragged rows")
        self._data = data

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self._data[i]

    def row_list(self) -> list[list[Scalar]]:
        return [list(r) for r in self._data]

    def submatrix(self, row_idx, col_idx=None) -> "Matrix":
        cols = list(col_idx) if col_idx is not None else range(self.cols)
        return Matrix([[self._data[i][j] for j in cols] for i in row_idx])

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._data for x in r)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def rank(self) -> int:
        return bareiss_rank(self.row_list())

    def right_nullspace(self) -> list[tuple[Scalar, ...]]:
        return right_nullspace(self.row_list(), self.cols)


def bareiss_rank(rows) -> int:
    """Rank of a matrix over Q or Q(i): each row is cleared to (Gaussian)
    integers, which never changes the rank, and `integer_rank` takes over."""
    rows = [list(r) for r in rows]
    gaussian = any(isinstance(x, GaussianRational) for r in rows for x in r)
    return integer_rank([integer_vector(r, gaussian)[0] for r in rows], gaussian)


def integer_rank(rows, gaussian: bool = False) -> int:
    """Rank of an integer matrix, which is left as it is, by fraction-free
    (Bareiss) elimination.  Over Q(i) the entries of A + iB are (re, im)
    pairs: the real matrix [[A, -B], [B, A]] represents it as a Q-linear map
    of twice the dimensions, so its rank is twice the rank over Q(i)."""
    if gaussian:
        return _bareiss_core(_realified(rows)) // 2
    return _bareiss_core([list(r) for r in rows])


def _realified(rows) -> list:
    """The rows of [[A, -B], [B, A]] for rows of A + iB given as (re, im) pairs."""
    return [h for r in rows for h in ([x for x, _ in r] + [-y for _, y in r],
                                      [y for _, y in r] + [x for x, _ in r])]


def _bareiss_core(a) -> int:
    """Rank of an integer matrix, which is left in fraction-free row echelon
    form; every division in the recurrence is exact."""
    m, n = len(a), len(a[0]) if a else 0
    prev = 1
    rank = 0
    for col in range(n):
        if rank == m:
            break
        piv = None
        for i in range(rank, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][col]
        ar = a[rank]
        for i in range(rank + 1, m):
            ai = a[i]
            f = ai[col]
            for j in range(col, n):
                ai[j] = (p * ai[j] - f * ar[j]) // prev
        prev = p
        rank += 1
    return rank


def rref(rows):
    """Reduced row echelon form by ordinary Gauss-Jordan over the field.

    Returns (reduced rows, pivot column list).  Kept deliberately separate
    from the Bareiss routine so the two can certify each other.
    """
    a = [list(r) for r in rows]
    if not a or not a[0]:
        return a, []
    m, n = len(a), len(a[0])
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return a, pivots


def rref_rank(rows) -> int:
    """Independent rank computation used as an oracle against bareiss_rank."""
    return len(rref(rows)[1])


def _normalize_first_nonzero(vec):
    for c in vec:
        if c != 0:
            return tuple(x / c for x in vec)
    raise ValueError("zero vector")


def right_nullspace(rows, cols: int) -> list[tuple[Scalar, ...]]:
    """Basis of {v : M v = 0}, each vector scaled so its first nonzero entry is 1.

    Basis vectors are emitted in ascending free-column order, which makes
    "the first kernel vector" a deterministic choice everywhere.
    """
    if cols == 0:
        return []
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [j for j in range(cols) if j not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            coef = reduced[i][fc]
            if coef != 0:
                v[pc] = -coef
        basis.append(_normalize_first_nonzero(v))
    return basis


# p = 1 (mod 4) < 2^61 and iota^2 = -1 (mod p), so a + bi -> a + b*iota maps Z[i] onto F_p
_PRIMES = ((2305843009213693921, 583529827753931384), (2305843009213693693, 966685122347009555))


def integer_vector(vec, gaussian: bool = False):
    """(m * vec, m) for m the lcm of the denominators of vec: ints, or (re, im)
    pairs over Q(i)."""
    flat = [x for c in vec for x in (real_part(c), imag_part(c))] if gaussian else vec
    m = lcm(*(x.denominator for x in flat))
    flat = [x.numerator * (m // x.denominator) for x in flat]
    return list(zip(flat[::2], flat[1::2])) if gaussian else flat, m


def gaussian_mul(x, y):
    """Product of Gaussian integers given as (re, im) pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def int_dot(row, w, gaussian: bool = False) -> tuple:
    """row . w over the first len(w) entries, as its parts (re,) or (re, im)."""
    if gaussian:
        return tuple(map(sum, zip(*map(gaussian_mul, row, w))))
    return (sum(map(operator.mul, row, w)),)


def annihilates(rows, w, gaussian: bool = False) -> bool:
    """Whether each row, cut to len(w), times w is 0."""
    return not any(any(int_dot(row, w, gaussian)) for row in rows)


def _pivot_rows(a, cols: int, p: int):
    """Rows of a (entries mod p; eliminated in place) holding the leftmost
    pivots before the first free column; None when no column is free."""
    live, pivots = list(range(len(a))), []
    for col in range(cols):
        piv = next((i for i in live if a[i][col]), None)
        if piv is None:
            return pivots
        live.remove(piv)
        pivots.append(piv)
        inv = pow(a[piv][col], -1, p)
        for i in live:
            f = a[i][col] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[piv])]
    return None


def first_kernel_vector(rows, scales, gaussian: bool = False):
    """right_nullspace(M)[0], or None, for M = rows * diag(scales)^-1 with
    integer rows ((re, im) pairs over Q(i)), without field elimination.

    Pivots mod p stop at the first free column c, or prove full column rank.
    Their c x c minor is nonzero mod p, so over the field: Bareiss on
    [minor | -column c] (realified over Q(i)) solves for w with w_c = +-det.
    rows * w = 0, checked in integers, then makes c the first free column and
    diag(scales) * w the first RREF vector up to scale.  On failure (an
    unlucky prime) the next prime is tried, then RREF over the field.
    """
    cols = len(scales)
    for p, iota in _PRIMES:
        mod = [[(x[0] + iota * x[1]) % p if gaussian else x % p for x in row] for row in rows]
        piv_rows = _pivot_rows(mod, cols, p)
        if piv_rows is None:
            return None
        c = len(piv_rows)
        top = [list(rows[i][: c + 1]) for i in piv_rows]
        aug = [r[:c] + r[c + 1 : 2 * c + 1] + [-r[c]] for r in (_realified(top) if gaussian else top)]
        m = _bareiss_core(aug)
        det = aug[m - 1][m - 1] if m else 1
        z = [0] * m
        for k in reversed(range(m)):
            z[k] = (det * aug[k][m] - sum(aug[k][j] * z[j] for j in range(k + 1, m))) // aug[k][k]
        w = list(zip(z[:c], z[c:])) + [(det, 0)] if gaussian else z + [det]
        if annihilates(rows, w, gaussian):
            break
    else:
        field = [[GaussianRational(Fraction(x[0], s), Fraction(x[1], s)) if gaussian
                  else Fraction(x, s) for x, s in zip(row, scales)] for row in rows]
        kernel = right_nullspace(field, cols)
        if kernel and not annihilates(field, kernel[0]):
            raise ArithmeticError("RREF kernel vector fails M v = 0")
        return kernel[0] if kernel else None
    if gaussian and not any(a or b for a, b in w[:c]):
        w, gaussian = [0] * c + [1], False  # RREF gives a unit vector in Fractions
    v = [GaussianRational(x[0] * s, x[1] * s) if gaussian else Fraction(x * s)
         for x, s in zip(w, scales)]
    return _normalize_first_nonzero(v + [v[0] * 0] * (cols - c - 1))
