"""Exact linear algebra over Q and Q(i): rank, RREF, nullspaces.

One elimination, `_echelon`, does all the integer work: fraction-free
elimination over Z of rows held as {column: nonzero int}, each reduced only
against the pivot rows that own its leading columns and divided by its
content after every step.  A Q(i) matrix is realified per entry, x + iy to
the block [[x, -y], [y, x]], so its rank over Q is twice its rank over
Q(i).  `sparse_rank` counts its pivots, and `bareiss_rank` hands it field
matrices cleared to integers.  `first_kernel_vector` runs it on reversed
columns and back-substitutes in the pivot rows for the first kernel vector.
A separate reduced-row-echelon routine, ordinary Gauss-Jordan over the
field, provides nullspaces and doubles as an independent oracle for cross
checks.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

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
    """Rank of a dense matrix over Q or Q(i) by `sparse_rank`: each row is
    cleared to (Gaussian) integers, which never changes the rank; ragged rows
    raise ValueError."""
    rows = [list(r) for r in rows]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    gaussian = any(isinstance(x, GaussianRational) for r in rows for x in r)
    return sparse_rank([dict(enumerate(integer_vector(r, gaussian)[0])) for r in rows], gaussian)


def sparse_rank(rows, gaussian: bool = False) -> int:
    """Rank of an integer matrix given as rows {column: entry}, with (re, im)
    pairs over Q(i), realified (`_realified_sparse`); zero entries are
    dropped.  The rank is the number of pivots of `_echelon`."""
    return len(_echelon(_realified_sparse(rows) if gaussian else rows)) // (2 if gaussian else 1)


def _echelon(rows, width=None) -> dict:
    """The pivot rows {leading column: (its entry, the row's other entries)}
    of an echelon form of integer rows {column: int}, read no further than
    the `width`-th pivot (a matrix with `width` columns has no more).

    Rows enter one by one.  A row whose leading (largest) column already
    owns a pivot row b becomes p * row - f * b, with p and f b's and the
    row's entries there, each divided by their gcd.  That column cancels, so
    it is dropped rather than computed, and the row is then divided by its
    content.  Otherwise the row takes the column as its pivot.  Since p != 0
    no step changes the span of the rows seen so far, and the pivot rows,
    with distinct leading columns, are independent.  A pivot row never
    changes, and a row meets only the pivot rows of columns it holds.
    Content removal keeps each row a primitive multiple of a fixed rational
    vector, so its entries stay bounded by minors, as in Bareiss.  Each row
    is worked on as its own copy, so the caller's rows are left alone.
    """
    pivots = {}
    for row in rows:
        row = {j: x for j, x in row.items() if x}
        while row:
            lead = max(row)
            f = row.pop(lead)
            if lead not in pivots:
                pivots[lead] = f, row
                if len(pivots) == width:
                    return pivots
                break
            p, b = pivots[lead]
            g = gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                for j in row:
                    row[j] *= p
            for j, y in b.items():
                x = row.get(j, 0) - f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
    return pivots


def _realified_sparse(rows):
    """Each row {column j: (x, y)} of x + iy as two rows {column: int}, the
    entry becoming the block [[x, -y], [y, x]]: columns 2j and 2j + 1 carry
    the real and imaginary parts of unknown j, and the rank over Q doubles."""
    for r in rows:
        yield {k: v for j, (x, y) in r.items() for k, v in ((2 * j, x), (2 * j + 1, -y))}
        yield {k: v for j, (x, y) in r.items() for k, v in ((2 * j, y), (2 * j + 1, x))}


def rref(rows):
    """Reduced row echelon form by ordinary Gauss-Jordan over the field.

    Returns (reduced rows, pivot column list).  Kept deliberately separate
    from the integer elimination `_echelon` so the two can certify each
    other.
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


def first_kernel_vector(rows, scales, gaussian: bool = False):
    """(rank M, right_nullspace(M)[0] or None) for M = rows * diag(scales)^-1
    with integer rows ((re, im) pairs over Q(i)), from one `_echelon` of the
    rows (realified over Q(i)) and no field arithmetic.

    The columns enter `_echelon` reversed, so each pivot row leads at its
    leftmost column of M and holds entries only to its right.  With c the
    first column without a pivot, the pivot rows of the columns before c
    form a triangular system, and back-substitution from w_c = 1, scaling w
    to keep it integral, gives the w supported on those columns and c with
    rows * w = 0.  The pivot rows span the rows, and the columns before c
    are independent, so diag(scales) * w is the first RREF vector up to
    scale.  Over Q(i) the first free realified column is even, 2c, and
    w_c = (1, 0).  rows * w = 0 is checked in integers.
    """
    cols = len(scales)
    k = 2 if gaussian else 1
    last = k * cols - 1
    sparse = map(dict, map(enumerate, rows))
    pivots = _echelon(({last - j: x for j, x in r.items()}
                       for r in (_realified_sparse(sparse) if gaussian else sparse)), last + 1)
    m = next((j for j in range(last + 1) if last - j not in pivots), last + 1)
    rank, c = len(pivots) // k, m // k
    if c == cols:
        return rank, None
    z = [0] * m + [1]
    for j in reversed(range(m)):
        p, b = pivots[last - j]
        s = sum(y * z[last - i] for i, y in b.items() if last - i <= m)
        g = gcd(p, s)
        if p != g:
            z[j + 1:] = [x * (p // g) for x in z[j + 1:]]
        z[j] = -s // g
    w = list(zip(z[::2], z[1::2] + [0])) if gaussian else z
    if not annihilates(rows, w, gaussian):
        raise ArithmeticError("echelon kernel vector fails M_int w = 0")
    if gaussian and not any(x or y for x, y in w[:c]):
        w, gaussian = [0] * c + [1], False  # RREF gives a unit vector in Fractions
    v = [GaussianRational(x[0] * s, x[1] * s) if gaussian else Fraction(x * s)
         for x, s in zip(w, scales)]
    return rank, _normalize_first_nonzero(v + [v[0] * 0] * (cols - c - 1))
