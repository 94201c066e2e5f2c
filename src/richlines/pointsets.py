"""Point configurations: grids, pasted grids, Cartesian powers, sum-product sets."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm

from .geometry import Line, Point
from .scalars import (
    FIELD_GAUSSIAN,
    FIELD_RATIONAL,
    Scalar,
    coerce,
    field_of,
    imag_part,
    real_part,
    scalar_key,
)

DEFAULT_SIZE_CAP = 20000
COORDS_PER_POINT = 16
POWER_DEPTH_CAP = 32  # powers a generator may nest; a power of a power is one power
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


def check_power_cap(h: int, e: int, dim: int, copies: int = 1) -> None:
    """Cap a configuration of copies * h**e points in C^dim.

    The points are capped at `size_cap()` and their n * dim coordinates at
    COORDS_PER_POINT times that.  The base, the exponent and the dimension
    are checked before h**e is built, so a huge h, e or d fails at once
    instead of building a huge power (whose digits may be too many to print)
    or an endless product.
    """
    cap = size_cap()
    coord_cap = COORDS_PER_POINT * cap
    if e > 1 and h > cap:  # then h**e > h > cap
        raise SizeCapError(f"configuration of more than {cap} points exceeds cap {cap}")
    if h > 1 and e > cap.bit_length():  # then h**e >= 2**e > cap
        raise SizeCapError(f"configuration of {h}**{e} points exceeds cap {cap}")
    if dim > coord_cap:
        raise SizeCapError(f"configuration in dimension {dim} exceeds coordinate cap {coord_cap}")
    n = copies * h**e
    check_cap(n)
    if n * dim > coord_cap:
        raise SizeCapError(f"configuration of {n * dim} coordinates exceeds cap {coord_cap}")


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

    @cached_property
    def integer_image(self):
        """(points, scales, gaussian): the integer image of V under
        x_a -> s_a * x_a, the scale of each image coordinate, and whether V
        lies over Q(i).  Built on first use and kept with the point set.

        s_a is the lcm of the denominators on axis a (of both parts over Q(i)),
        so every image coordinate is an integer.  A Q(i) point is stored
        realified, as (re_0, im_0, ..., re_{d-1}, im_{d-1}) with both parts of
        axis a scaled by s_a, and its scales come back as (s_0, s_0, s_1, ...).
        The map is affine over V's field and invertible, so lines, progressions
        and hyperplanes of V are those of the image (over Q(i), with addition
        componentwise on the parts), which lets exact geometry run in integer
        arithmetic.
        """
        pts = self.points
        gaussian = self.field == FIELD_GAUSSIAN
        if gaussian:
            pts = [tuple(x for c in p for x in (real_part(c), imag_part(c))) for p in pts]
        width = self.dim * (2 if gaussian else 1)
        scales = tuple(lcm(*(p[a].denominator for p in pts)) for a in range(width))
        if gaussian:
            scales = tuple(lcm(scales[a & ~1], scales[a | 1]) for a in range(len(scales)))
        ints = tuple(
            tuple(c.numerator * (s // c.denominator) for c, s in zip(p, scales))
            for p in pts
        )
        return ints, scales, gaussian


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
    check_power_cap(h, d, d)
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
    check_power_cap(h, ell, d, copies)
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
    check_power_cap(len(ps), ell, ps.dim * ell)
    pts = tuple(
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(ps.points, repeat=ell)
    )
    return PointSet(ps.dim * ell, ps.field, pts)


def index_prefix(ps: PointSet, r: int) -> PointSet:
    """{0,...,r-1} x V inside C^{1+d}, the standard progression lift."""
    if r < 1:
        raise ValueError("prefix length must be positive")
    check_power_cap(r, 1, ps.dim + 1, len(ps))
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
    check_power_cap(1, 0, d)  # the dimension before the powers below
    check_power_cap(sum(len(sums) ** (d - 1) for _, sums in slices), 1, d)
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
