"""Exact linear algebra over Q and Q(i): rank, RREF, nullspaces.

Rank uses fraction-free (Bareiss) elimination in integers with a
deterministic pivot rule (leftmost column, first row with a nonzero entry):
rational rows are scaled to integers, and a Q(i) matrix A + iB is first
realified to [[A, -B], [B, A]], whose rank over Q is twice its rank over
Q(i).  A separate reduced-row-echelon routine, ordinary Gauss-Jordan over
the field, provides nullspaces and doubles as an independent rank oracle
for cross checks.
"""

from __future__ import annotations

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


def _clear_denominators(rows):
    out = []
    for r in rows:
        m = lcm(*(x.denominator for x in r)) if r else 1
        out.append([x.numerator * (m // x.denominator) for x in r])
    return out


def bareiss_rank(rows) -> int:
    """Rank by fraction-free (Bareiss) elimination in integers.

    A rational matrix is row-scaled to integers first (row scaling never
    changes rank).  A Gaussian-rational matrix M = A + iB is realified: the
    real matrix [[A, -B], [B, A]] represents M as a Q-linear map of twice
    the dimensions, so its rank is twice the rank of M over Q(i).
    """
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    if not any(isinstance(x, GaussianRational) for r in rows for x in r):
        return _bareiss_core(_clear_denominators(rows))
    big = []
    for r in rows:
        re = [real_part(x) for x in r]
        im = [imag_part(x) for x in r]
        big.append(re + [-x for x in im])
        big.append(im + re)
    return _bareiss_core(_clear_denominators(big)) // 2


def _bareiss_core(a) -> int:
    """Rank of an integer matrix; every division in the recurrence is exact."""
    m, n = len(a), len(a[0])
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
