"""Collinear tuple covers and the sparse matrices they generate.

Each rich line contributes a cover of its points by r-tuples: consecutive
disjoint blocks in line order, plus (when the point count is not a multiple
of r) one final tuple made of the last r points, which overlaps only its
predecessor.  Every tuple of collinear points is linearly dependent after
the degree r-2 monomial embedding, with the barycentric weights of the
points' line parameters as coefficients (`dependency_row`, a closed form;
`dependency_coeffs` finds the same row as a Vandermonde kernel and is the
reference).  Those rows make a sparse matrix A with A * M = 0, where M
stacks the embedded points; rank(M) and a kernel vector come from M's
integer image.  Support statistics (q, k, t) of A then feed exact rank
bounds.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import prod
from random import Random

from .geometry import Line, canonical_line
from .incidence import first_off_line
from .linalg import Matrix, annihilates, gaussian_mul, integer_vector, right_nullspace, sparse_rank
from .pointsets import PointSet
from .scalars import GaussianRational, Scalar
from .veronese import integer_veronese


def tuple_cover(line_points, r: int) -> list[tuple[int, ...]]:
    """Cover a line's point list (already in line order) by r-tuples.

    Properties: every point is in at least one tuple, and every pair of
    points appears together in at most two tuples.
    """
    pts = list(line_points)
    m = len(pts)
    if m < r:
        raise ValueError(f"need at least {r} points, got {m}")
    blocks = [tuple(pts[i : i + r]) for i in range(0, m - m % r, r)]
    if m % r:
        blocks.append(tuple(pts[m - r :]))
    return blocks


def dependency_coeffs(points, deg: int) -> tuple[Scalar, ...]:
    """Coefficients a with sum_j a_j * veronese(p_j, deg) = 0 for collinear input.

    On the line through the points, p_j = base + t_j * direction, and every
    monomial of degree <= deg restricts to a polynomial of degree <= deg in
    t.  So the Veronese images are dependent with coefficients a exactly when
    the moment-curve images (1, t_j, ..., t_j^deg) are: a spans the kernel of
    the (deg+1) x r Vandermonde matrix in the t_j.  For r = deg + 2 distinct
    parameters that kernel is one dimensional with all entries nonzero;
    anything else signals a bug.  The result is scaled so its first entry is
    1.  Non-collinear or repeated points and a wrong degree raise ValueError.

    This is the elimination reference for the closed form `dependency_row`,
    which builds the rows of `assemble_design`; the tests compare the two.
    It stays in this module while the benchmark's span-nesting test calls it
    to reach `linalg.rref`.
    """
    pts = [tuple(p) for p in points]
    r = len(pts)
    if deg < 0 or deg != r - 2:
        raise ValueError("tuple of r >= 2 points must use embedding degree r - 2")
    line = canonical_line(pts[0], pts[1])
    if not all(line.contains(p) for p in pts[2:]):
        raise ValueError("points are not collinear")
    ts = [line.parameter_of(p) for p in pts]
    if len(set(ts)) < r:
        raise ValueError("repeated point in a collinear tuple")
    # The constant row stays rational, like the Veronese matrix's constant
    # column, so rows over Q(i) keep the scalar types they always had.
    vandermonde = [[Fraction(1)] * r] + [[t**e for t in ts] for e in range(1, r - 1)]
    kernel = right_nullspace(vandermonde, r)
    if len(kernel) != 1:
        raise ArithmeticError(
            f"expected a 1-dimensional dependency space, got {len(kernel)}"
        )
    alpha = kernel[0]
    if any(a == 0 for a in alpha):
        raise ArithmeticError("dependency coefficients must all be nonzero")
    return alpha


def dependency_row(ts, gaussian: bool = False) -> tuple[Scalar, ...]:
    """The row `dependency_coeffs` finds for r collinear points, in closed form
    from integer parameters t_j of the points along their line (in the
    tuple's order): ints, or Gaussian integers as (re, im) pairs over Q(i).
    The pivot coordinates of the points' integer image are such parameters.

    A polynomial of degree <= r-2 in t has zero (r-1)-th divided difference,
    sum_j g(t_j) / prod_{i != j} (t_j - t_i) = 0, so the barycentric weights
    1 / prod_{i != j} (t_j - t_i) span the Vandermonde kernel; scaled so that
    the first entry is 1, a_j = prod_{i != 0} (t_0 - t_i) / prod_{i != j}
    (t_j - t_i).  That ratio does not change when the parameters undergo an
    affine map t -> c t + b, c != 0, so any affine parameter of the line
    gives the same row.  Entries are Fractions over Q and GaussianRationals
    over Q(i), except that the r = 2 row is the rationals (1, -1) over either
    field, as the Vandermonde kernel gives it.  The parameters must be
    distinct.
    """
    if len(ts) == 2:
        return (Fraction(1), Fraction(-1))
    if not gaussian:
        w = [prod(tj - ti for i, ti in enumerate(ts) if i != j) for j, tj in enumerate(ts)]
        return tuple(Fraction(w[0], x) for x in w)
    w = [
        reduce(gaussian_mul, ((a - c, b - e) for i, (c, e) in enumerate(ts) if i != j))
        for j, (a, b) in enumerate(ts)
    ]
    p, q = w[0]
    row = []
    for x, y in w:  # w_0 / w_j = w_0 * conj(w_j) / |w_j|^2
        n = x * x + y * y
        row.append(GaussianRational(Fraction(p * x + q * y, n), Fraction(q * x - p * y, n)))
    return tuple(row)


@dataclass(frozen=True)
class TupleCover:
    """Per-line r-tuple covers and their concatenation."""

    r: int
    per_line: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def all_tuples(self) -> list[tuple[int, ...]]:
        return [t for line in self.per_line for t in line]


@dataclass
class DesignMatrix:
    """Sparse dependency matrix with measured support parameters."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], Scalar]
    q: int
    k: int
    t: int
    cover: TupleCover | None = None

    def _checked_entries(self):
        """The ((i, j), v) entries; one outside rows x cols raises ValueError."""
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"entry ({i}, {j}) outside {self.rows} x {self.cols}")
            yield (i, j), v

    def to_matrix(self) -> Matrix:
        z = Fraction(0)
        data = [[z] * self.cols for _ in range(self.rows)]
        for (i, j), v in self._checked_entries():
            data[i][j] = v
        return Matrix(data)

    def rank(self) -> int:
        """rank(A) by `sparse_rank` of its rows, each cleared to (Gaussian)
        integers."""
        gaussian = any(isinstance(v, GaussianRational) for v in self.entries.values())
        rows = [{} for _ in range(self.rows)]
        for (i, j), v in self._checked_entries():
            rows[i][j] = v
        return sparse_rank([dict(zip(r, integer_vector(r.values(), gaussian)[0]))
                            for r in rows], gaussian)

    def product_with(self, M: Matrix) -> Matrix:
        if self.cols != M.rows:
            raise ValueError("dimension mismatch")
        z = Fraction(0)
        out = [[z] * M.cols for _ in range(self.rows)]
        for (i, j), v in self._checked_entries():
            row = M.row(j)
            acc = out[i]
            for c in range(M.cols):
                acc[c] = acc[c] + v * row[c]
        return Matrix(out)


def measure_design_params(
    rows: int, cols: int, entries: dict[tuple[int, int], Scalar]
) -> tuple[int, int, int]:
    """Measured (q, k, t): max row support, min column support, max pairwise
    column support intersection, counted as column pairs per row support."""
    row_supp: list[list[int]] = [[] for _ in range(rows)]
    col_count = [0] * cols
    for (i, j), v in entries.items():
        if v == 0:
            continue
        row_supp[i].append(j)
        col_count[j] += 1
    pairs = Counter()
    for supp in row_supp:
        pairs.update(itertools.combinations(sorted(supp), 2))
    q = max((len(s) for s in row_supp), default=0)
    k = min(col_count, default=0)
    t = max(pairs.values(), default=0)
    return q, k, t


def verify_design(A: DesignMatrix) -> tuple[int, int, int]:
    """Recompute (q, k, t) from the stored entries; raises on mismatch with
    the declared parameters."""
    q, k, t = measure_design_params(A.rows, A.cols, A.entries)
    if (q, k, t) != (A.q, A.k, A.t):
        raise AssertionError(
            f"declared parameters {(A.q, A.k, A.t)} but measured {(q, k, t)}"
        )
    return q, k, t


def line_order(ps: PointSet, line: Line) -> list[int]:
    """Incident indices sorted by exact line parameter (real part, then
    imaginary part): the pivot coordinate on the integer image, whose
    positive axis scale keeps the order."""
    pts, _, gaussian = ps.integer_image
    k = 2 if gaussian else 1
    piv = line.pivot * k
    return sorted(line.points, key=lambda i: pts[i][piv : piv + k])


def assemble_design(
    ps: PointSet, lines: list[Line], r: int
) -> tuple[DesignMatrix, tuple[list, list]]:
    """Build the dependency matrix A over all line tuple covers, checking
    A * M = 0 exactly for the degree r-2 Veronese matrix M of V.

    Every line must be canonical and r-rich, and list distinct indices of
    points of V on it; each line is checked once, on the integer image.
    Rows appear in line order then block order; each row holds the
    `dependency_row` of one collinear r-tuple at the tuple's columns.  A row
    has a * M = 0 iff a, cleared to (Gaussian) integers, annihilates the
    columns of the integer image M * diag(s^e), which is returned with A as
    the `integer_veronese` (rows, scales) pair.
    """
    n = len(ps)
    image = integer_veronese(ps, r - 2)
    pts, _, gaussian = ps.integer_image
    per_line = []
    entries: dict[tuple[int, int], Scalar] = {}
    row = 0
    for li, line in enumerate(lines):
        if len(line.points) < r:
            raise ValueError("all lines must be r-rich")
        if first_off_line(ps, li, line) is not None:
            raise ValueError("points are not collinear")
        if len(set(line.points)) < len(line.points):
            raise ValueError("repeated point in a collinear tuple")
        ordered = line_order(ps, line)
        blocks = tuple(tuple_cover(ordered, r))
        per_line.append(blocks)
        piv = line.pivot * (2 if gaussian else 1)
        for block in blocks:
            ts = [pts[i][piv : piv + 2] for i in block] if gaussian else [pts[i][piv] for i in block]
            alpha = dependency_row(ts, gaussian)
            cols = zip(*(image[0][i] for i in block))
            if not annihilates(cols, integer_vector(alpha, gaussian)[0], gaussian):
                raise ArithmeticError("A * M != 0: dependency rows are inconsistent")
            for idx, coef in zip(block, alpha):
                entries[(row, idx)] = coef
            row += 1
    cover = TupleCover(r, tuple(per_line))
    q, k, t = measure_design_params(row, n, entries)
    A = DesignMatrix(row, n, entries, q, k, t, cover)
    return A, image


@dataclass(frozen=True)
class RankBoundReport:
    """Exact rank of a design matrix against the two support-based bounds."""

    rank: int
    n: int
    m: int
    q: int
    k: int
    t: int
    bound_columns: Fraction | None  # n - n t q^2 / k
    bound_rows: Fraction | None  # n - m t q^2 / k^2
    holds_columns: bool
    holds_rows: bool
    rank_m: int | None = None
    rank_sum_ok: bool | None = None

    @property
    def all_hold(self) -> bool:
        return self.holds_columns and self.holds_rows


def rank_bound_report(A: DesignMatrix, rank_m: int | None = None) -> RankBoundReport:
    """Check rank(A) >= n - ntq^2/k and rank(A) >= n - mtq^2/k^2 exactly.

    With k = 0 (some column empty) both bounds are vacuous and reported as
    holding.  When the rank of the embedded matrix M is supplied, also
    records rank(A) + rank(M) <= n, which is forced by A * M = 0.
    """
    rank = A.rank()
    n, m, q, k, t = A.cols, A.rows, A.q, A.k, A.t
    if k > 0:
        b1 = n - Fraction(n * t * q * q, k)
        b2 = n - Fraction(m * t * q * q, k * k)
        holds1, holds2 = rank >= b1, rank >= b2
    else:
        b1 = b2 = None
        holds1 = holds2 = True
    rank_sum_ok = None if rank_m is None else rank + rank_m <= n
    return RankBoundReport(rank, n, m, q, k, t, b1, b2, holds1, holds2, rank_m, rank_sum_ok)


def random_design_matrix(
    rng: Random,
    n: int,
    target_rows: int,
    q: int,
    t_cap: int = 2,
    gaussian: bool = False,
) -> DesignMatrix:
    """Random sparse matrix with row supports of size q and pairwise column
    intersections rejected above t_cap; used to stress the rank bounds.

    Rows are drawn as random q-subsets; a draw is discarded when it would
    push some column pair past t_cap.  Extra passes guarantee every column
    is hit at least once so the measured k is positive.
    """
    if q > n:
        raise ValueError("row support cannot exceed the column count")
    pair_use: dict[tuple[int, int], int] = {}
    rows: list[tuple[int, ...]] = []

    def try_add(support) -> bool:
        support = tuple(sorted(support))
        pairs = [
            (support[a], support[b])
            for a in range(len(support))
            for b in range(a + 1, len(support))
        ]
        if any(pair_use.get(pr, 0) + 1 > t_cap for pr in pairs):
            return False
        for pr in pairs:
            pair_use[pr] = pair_use.get(pr, 0) + 1
        rows.append(support)
        return True

    attempts = 0
    while len(rows) < target_rows and attempts < 50 * target_rows:
        attempts += 1
        try_add(rng.sample(range(n), q))
    covered = {j for s in rows for j in s}
    missing = [j for j in range(n) if j not in covered]
    while missing:
        j = missing.pop()
        others = [x for x in range(n) if x != j]
        for _ in range(200):
            if try_add([j] + rng.sample(others, q - 1)):
                break
        else:
            raise RuntimeError("could not cover every column under the overlap cap")

    entries: dict[tuple[int, int], Scalar] = {}
    for i, support in enumerate(rows):
        for j in support:
            val = 0
            while val == 0:
                val = rng.randint(-5, 5)
            if gaussian:
                entries[(i, j)] = GaussianRational(
                    Fraction(val), Fraction(rng.randint(-3, 3))
                )
            else:
                entries[(i, j)] = Fraction(val)
    q_m, k_m, t_m = measure_design_params(len(rows), n, entries)
    return DesignMatrix(len(rows), n, entries, q_m, k_m, t_m)
