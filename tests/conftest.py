from fractions import Fraction
from random import Random

import pytest

from richlines.linalg import rref
from richlines.pointsets import PointSet, pointset_from


def circle_points() -> PointSet:
    """The 12 integer points of x^2 + y^2 = 25."""
    raw = [
        (3, 4), (4, 3), (5, 0), (4, -3), (3, -4), (0, -5),
        (-3, -4), (-4, -3), (-5, 0), (-4, 3), (-3, 4), (0, 5),
    ]
    return pointset_from([(Fraction(a), Fraction(b)) for a, b in raw])


def coordinate_planes_config() -> PointSet:
    """Union of the three axis-aligned 3x3 grids over {-1,0,1} in C^3."""
    pts = set()
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            pts.add((Fraction(0), Fraction(a), Fraction(b)))
            pts.add((Fraction(a), Fraction(0), Fraction(b)))
            pts.add((Fraction(a), Fraction(b), Fraction(0)))
    return pointset_from(sorted(pts))


def random_integer_pointset(rng: Random, d: int, n: int, span: int) -> PointSet:
    pts = set()
    guard = 0
    while len(pts) < n and guard < 100 * n:
        guard += 1
        pts.add(tuple(Fraction(rng.randint(0, span)) for _ in range(d)))
    return pointset_from(sorted(pts))


def random_half_integer_pointset(rng: Random, d: int, n: int, span: int) -> PointSet:
    pts = set()
    guard = 0
    while len(pts) < n and guard < 100 * n:
        guard += 1
        pts.add(tuple(Fraction(rng.randint(0, 2 * span), 2) for _ in range(d)))
    return pointset_from(sorted(pts))


def gaussian_image(ps: PointSet) -> PointSet:
    """V under the invertible Q(i)-affine map (x, y) -> ((1+i)x + iy + 1/2 + i/3, 2iy + 1)
    of the plane; point order is kept, so the image's indices are V's."""
    from richlines.scalars import GaussianRational as G

    a, b, c, e = G(1, 1), G(0, 1), G(Fraction(1, 2), Fraction(1, 3)), G(0, 2)
    return pointset_from([(a * x + b * y + c, e * y + 1) for x, y in ps.points])


def restrict_to_line(f, base, direction) -> list:
    """Coefficients of g(t) = f(base + t*direction), low degree first.

    Solves the Vandermonde system on deg(f)+1 exact samples.
    """
    deg = f.degree()
    aug = [
        [Fraction(t) ** j for j in range(deg + 1)]
        + [f.evaluate(tuple(b + t * u for b, u in zip(base, direction)))]
        for t in range(deg + 1)
    ]
    reduced, pivots = rref(aug)
    coeffs = [Fraction(0)] * (deg + 1)
    for i, pc in enumerate(pivots):
        coeffs[pc] = reduced[i][-1]
    return coeffs


@pytest.fixture
def rng():
    return Random(0)
