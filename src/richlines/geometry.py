"""Affine lines and hyperplanes in canonical form.

A line is stored as (direction, base) where the direction is scaled so its
first nonzero coordinate equals 1 (the pivot) and the base is the unique
point of the line whose pivot coordinate is 0.  Two Line objects describe
the same affine line exactly when these two tuples coincide, so canonical
forms can be used directly as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Scalar

Point = tuple[Scalar, ...]


def vsub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q))


def vadd(p: Point, q: Point) -> Point:
    return tuple(a + b for a, b in zip(p, q))


def vscale(t: Scalar, p: Point) -> Point:
    return tuple(t * a for a in p)


def dot(p: Point, q: Point) -> Scalar:
    return sum((a * b for a, b in zip(p, q)), Fraction(0))


def is_zero_vector(p: Point) -> bool:
    return all(c == 0 for c in p)


def pivot_index(vec: Point) -> int:
    for i, c in enumerate(vec):
        if c != 0:
            return i
    raise ValueError("zero vector has no pivot")


@dataclass(frozen=True)
class Line:
    """Canonical affine line, optionally carrying incident point indices.

    Equality and hashing look only at (direction, base): incidence lists
    are bookkeeping relative to one particular point set.
    """

    direction: Point
    base: Point
    points: tuple[int, ...] = field(default=(), compare=False)

    def __hash__(self):
        return hash((self.direction, self.base))

    @property
    def pivot(self) -> int:
        return pivot_index(self.direction)

    def point_at(self, t: Scalar) -> Point:
        return vadd(self.base, vscale(t, self.direction))

    def parameter_of(self, p: Point) -> Scalar:
        # direction[pivot] == 1 and base[pivot] == 0, so the parameter of a
        # point is just its pivot coordinate.
        return p[self.pivot]

    def contains(self, p: Point) -> bool:
        t = self.parameter_of(p)
        return self.point_at(t) == tuple(p)

    def with_points(self, idx) -> "Line":
        return Line(self.direction, self.base, tuple(sorted(idx)))


def canonical_line(p: Point, q: Point) -> Line:
    """The unique canonical line through two distinct points."""
    if tuple(p) == tuple(q):
        raise ValueError("identical points do not determine a line")
    raw = vsub(q, p)
    piv = pivot_index(raw)
    scale = raw[piv]
    direction = tuple(c / scale for c in raw)
    t = p[piv]
    base = tuple(a - t * b for a, b in zip(p, direction))
    return Line(direction, base)


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {x : <x, normal> = offset} with pivot-normalized normal."""

    normal: Point
    offset: Scalar

    def __post_init__(self):
        if is_zero_vector(self.normal):
            raise ValueError("hyperplane normal must be nonzero")

    def contains(self, p: Point) -> bool:
        return dot(p, self.normal) == self.offset

    def members(self, points) -> list[int]:
        return [i for i, p in enumerate(points) if self.contains(p)]


def make_hyperplane(normal: Point, offset: Scalar) -> Hyperplane:
    """Normalize so the first nonzero normal coordinate is 1."""
    piv = pivot_index(normal)
    scale = normal[piv]
    return Hyperplane(tuple(c / scale for c in normal), offset / scale)


def _det(m) -> Scalar:
    """Determinant of a nonempty square matrix by cofactor expansion along
    its first row, skipping zero entries."""
    if len(m) == 1:
        return m[0][0]
    total = m[0][0] * 0
    for j, a in enumerate(m[0]):
        if a != 0:
            term = a * _det([r[:j] + r[j + 1 :] for r in m[1:]])
            total = total - term if j & 1 else total + term
    return total


def plane_normal(points) -> Point:
    """Normal of the affine span of d >= 2 points of C^d, zero iff they are
    affinely dependent.

    It is the generalized cross product of the rows p_k - p_0: entry j is
    (-1)^j times the minor that omits column j.  Expanding the d x d matrix
    that repeats row k on top shows the normal is orthogonal to every row.
    """
    p0 = points[0]
    rows = [vsub(p, p0) for p in points[1:]]
    normal = []
    for j in range(len(p0)):
        m = _det([r[:j] + r[j + 1 :] for r in rows])
        normal.append(-m if j & 1 else m)
    return tuple(normal)
