"""Point configurations: grids, pasted grids, Cartesian powers, sum-product sets."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .geometry import Line, Point
from .scalars import (
    FIELD_GAUSSIAN,
    FIELD_RATIONAL,
    Scalar,
    coerce,
    field_of,
    scalar_key,
)

DEFAULT_SIZE_CAP = 20000
SIZE_CAP_ENV = "RICHLINES_SIZE_CAP"


class SizeCapError(ValueError):
    """Requested configuration exceeds the global point cap."""


def size_cap() -> int:
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{SIZE_CAP_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def check_cap(n: int, what: str = "points") -> None:
    cap = size_cap()
    if n > cap:
        raise SizeCapError(f"configuration of {n} {what} exceeds cap {cap}")


@dataclass(frozen=True)
class PointSet:
    """Finite list of pairwise-distinct points with exact coordinates."""

    dim: int
    field: str
    points: tuple[Point, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        seen = set()
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")
            if p in seen:
                raise ValueError(f"duplicate point {p}")
            seen.add(p)
        if self.labels is not None and len(self.labels) != len(self.points):
            raise ValueError("labels must match points")

    def __len__(self):
        return len(self.points)

    def index(self) -> dict[Point, int]:
        return {p: i for i, p in enumerate(self.points)}

    def subset(self, indices) -> "PointSet":
        idx = list(indices)
        return PointSet(
            self.dim,
            self.field,
            tuple(self.points[i] for i in idx),
            tuple(self.labels[i] for i in idx) if self.labels else None,
        )


def integer_coords(ps: PointSet):
    """Integer image of V under x_a -> s_a * x_a, with the scales (s_a).

    s_a is the lcm of the denominators on axis a, so every image coordinate
    is an integer.  The map is affine and invertible, so lines,
    progressions and hyperplanes of V are those of the image, which lets
    exact geometry run in integer arithmetic.  Q(i) input has no such image:
    returns None.
    """
    if ps.field != FIELD_RATIONAL:
        return None
    pts = ps.points
    scales = tuple(lcm(*(p[a].denominator for p in pts)) for a in range(ps.dim))
    ints = [
        tuple(c.numerator * (s // c.denominator) for c, s in zip(p, scales))
        for p in pts
    ]
    return ints, scales


def pointset_from(points, field: str | None = None, labels=None) -> PointSet:
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    if field is None:
        field = FIELD_RATIONAL
        for p in pts:
            if any(field_of(c) == FIELD_GAUSSIAN for c in p):
                field = FIELD_GAUSSIAN
                break
    pts = tuple(tuple(coerce(c, field) for c in p) for p in pts)
    return PointSet(len(pts[0]), field, pts, tuple(labels) if labels else None)


def grid(d: int, h: int) -> PointSet:
    """The integer grid {1,...,h}^d in lexicographic order."""
    if d < 1 or h < 1:
        raise ValueError("grid needs d >= 1 and h >= 1")
    check_cap(h**d)
    pts = tuple(
        tuple(Fraction(c) for c in combo)
        for combo in itertools.product(range(1, h + 1), repeat=d)
    )
    return PointSet(d, FIELD_RATIONAL, pts)


def pasted_grids(d: int, ell: int, copies: int, h: int) -> PointSet:
    """Disjoint union of `copies` ell-dimensional grids inside C^d.

    Copy c lives on the flat x_{ell+1} = c, ..., x_d = c, so distinct copies
    sit on parallel ell-flats with distinct integer offsets and no line can
    pick up 2 points from each of two copies.
    """
    if not (1 < ell < d):
        raise ValueError("pasted grids need 1 < ell < d")
    if copies < 1 or h < 1:
        raise ValueError("copies and h must be positive")
    check_cap(copies * h**ell)
    pts = []
    for c in range(1, copies + 1):
        tail = tuple(Fraction(c) for _ in range(d - ell))
        for combo in itertools.product(range(1, h + 1), repeat=ell):
            pts.append(tuple(Fraction(x) for x in combo) + tail)
    return PointSet(d, FIELD_RATIONAL, tuple(pts))


def cartesian_power(ps: PointSet, ell: int) -> PointSet:
    """V^ell inside C^{d*ell}, ordered lexicographically by factor indices."""
    if ell < 1:
        raise ValueError("power needs ell >= 1")
    check_cap(len(ps) ** ell)
    pts = tuple(
        sum((ps.points[i] for i in combo), ())
        for combo in itertools.product(range(len(ps)), repeat=ell)
    )
    return PointSet(ps.dim * ell, ps.field, pts)


def index_prefix(ps: PointSet, r: int) -> PointSet:
    """{0,...,r-1} x V inside C^{1+d}, the standard progression lift."""
    if r < 1:
        raise ValueError("prefix length must be positive")
    check_cap(r * len(ps))
    pts = tuple((coerce(i, ps.field),) + p for i in range(r) for p in ps.points)
    return PointSet(ps.dim + 1, ps.field, pts)


def _sorted_scalars(values, field: str) -> list[Scalar]:
    vals = {coerce(v, field) for v in values}
    return sorted(vals, key=scalar_key)


def sumproduct_config(A, Q, d: int) -> tuple[PointSet, list[Line]]:
    """Union over t in Q of {t} x (A + tA)^{d-1}, plus its slanted line family.

    The line family consists of the lines through a point of the t=0 slice
    with direction (1, b_2, ..., b_d), all b_i in A; each such line picks up
    exactly one point from every slice, so it is |Q|-rich.  Requires 0 in Q.
    """
    if d < 2:
        raise ValueError("sum-product configuration needs d >= 2")
    from .scalars import GaussianRational, parse_scalar_lenient

    a_list = [parse_scalar_lenient(v) if isinstance(v, str) else v for v in A]
    q_list = [parse_scalar_lenient(v) if isinstance(v, str) else v for v in Q]
    field = FIELD_RATIONAL
    if any(isinstance(v, GaussianRational) for v in a_list + q_list):
        field = FIELD_GAUSSIAN
    a_vals = _sorted_scalars(a_list, field)
    q_vals = _sorted_scalars(q_list, field)
    if not any(t == 0 for t in q_vals):
        raise ValueError("dilation set Q must contain 0")
    if not a_vals:
        raise ValueError("base set A must be nonempty")

    slices = [
        (t, _sorted_scalars([a + t * b for a in a_vals for b in a_vals], field))
        for t in q_vals
    ]
    check_cap(sum(len(sums) ** (d - 1) for _, sums in slices))
    pts = tuple(
        (t,) + combo
        for t, sums in slices
        for combo in itertools.product(sums, repeat=d - 1)
    )
    ps = PointSet(d, field, pts)
    lookup = ps.index()

    check_cap(len(a_vals) ** (2 * (d - 1)), "lines")
    lines = []
    for a_tail in itertools.product(a_vals, repeat=d - 1):
        base = (coerce(0, field),) + a_tail
        for b_tail in itertools.product(a_vals, repeat=d - 1):
            direction = (coerce(1, field),) + b_tail
            incident = []
            for t in q_vals:
                pt = tuple(x + t * y for x, y in zip(base, direction))
                idx = lookup.get(pt)
                if idx is not None:
                    incident.append(idx)
            lines.append(Line(direction, base, tuple(sorted(incident))))
    return ps, lines
