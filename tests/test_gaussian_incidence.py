"""Differential tests of the Q(i) incidence layer.

`rich_lines` keys Q(i) point sets on their realified Gaussian-integer
image, and `count_aps` reads progressions off its lines.  Here they are
checked against the cubic line oracle, the endpoint progression oracle and
a field-arithmetic pair-key enumerator kept below as a reference, on
Gaussian affine images of grids, pasted grids, sum-product sets and random
sets in d = 1..4.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from richlines.geometry import canonical_line
from richlines.incidence import _gaussian_pair_key, count_aps, rich_lines
from richlines.oracle import ap_count_oracle, collinear_groups
from richlines.pointsets import (
    grid,
    pasted_grids,
    pointset_from,
    sumproduct_config,
)
from richlines.scalars import FIELD_GAUSSIAN, GaussianRational, sign_positive
from richlines.serialization import dumps_json

F = Fraction
G = GaussianRational


# -- field-arithmetic reference ----------------------------------------------


def field_pair_key(p, q, d):
    """Line key in field arithmetic: the direction scaled so its pivot entry
    is 1, and the point of the line whose pivot coordinate is 0."""
    diff = [q[t] - p[t] for t in range(d)]
    piv = 0
    while diff[piv] == 0:
        piv += 1
    scale = diff[piv]
    prim = [c / scale for c in diff]
    pp = p[piv]
    base = [p[t] - pp * prim[t] for t in range(d)]
    return (*prim, *base)


def field_rich_lines(ps, r):
    """Reference enumerator: point pairs grouped by `field_pair_key`, each
    rich line decoded by `canonical_line` through its two lowest points."""
    pts, d = ps.points, ps.dim
    groups = {}
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            groups.setdefault(field_pair_key(pts[i], pts[j], d), set()).update((i, j))
    out = []
    for members in groups.values():
        if len(members) >= r:
            idx = sorted(members)
            out.append(canonical_line(pts[idx[0]], pts[idx[1]]).with_points(idx))
    out.sort(key=lambda L: L.points)
    return out


# -- inputs ------------------------------------------------------------------

small = st.integers(min_value=-3, max_value=3)
gaussian_entry = st.builds(
    G,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def gaussian_map(draw, d):
    """x -> L U x + b over Q(i): L unit lower, U upper triangular with a
    nonzero diagonal, so the map is invertible; b has non-real entries."""
    nonzero = gaussian_entry.filter(bool)
    L = [[G(1, 0) if j == i else draw(gaussian_entry) if j < i else 0 for j in range(d)]
         for i in range(d)]
    U = [[draw(nonzero) if j == i else draw(gaussian_entry) if j > i else 0 for j in range(d)]
         for i in range(d)]
    A = [[sum((L[i][k] * U[k][j] for k in range(d)), G(0, 0)) for j in range(d)]
         for i in range(d)]
    b = [draw(gaussian_entry.filter(lambda c: c.im != 0)) for _ in range(d)]
    return lambda p: tuple(sum((A[i][j] * p[j] for j in range(d)), b[i]) for i in range(d))


@st.composite
def gaussian_sets(draw, max_points=24):
    """Gaussian affine images of grids, pasted grids, sum-product sets and
    random Gaussian-integer sets, in d = 1..4 with at most max_points points."""
    kind = draw(st.sampled_from(["grid", "pasted", "sumproduct", "random"]))
    if kind == "grid":
        d, h = draw(st.sampled_from([(1, 5), (1, 8), (2, 3), (2, 4), (3, 2), (4, 2)]))
        ps = grid(d, h)
    elif kind == "pasted":
        d, ell, copies, h = draw(st.sampled_from([(3, 2, 2, 2), (3, 2, 2, 3), (4, 2, 2, 2),
                                                  (4, 3, 2, 2)]))
        ps = pasted_grids(d, ell, copies, h)
    elif kind == "sumproduct":
        d = draw(st.sampled_from([2, 3]))
        A = draw(st.lists(gaussian_entry, min_size=1, max_size=2, unique=True))
        Q = [0] + draw(st.lists(gaussian_entry.filter(bool), min_size=1, max_size=2, unique=True))
        ps, _ = sumproduct_config(A, Q, d)
        if len(ps) > max_points:
            ps = ps.subset(range(max_points))
    else:
        d = draw(st.integers(min_value=1, max_value=4))
        raw = draw(st.lists(st.tuples(*[st.tuples(small, small)] * d), min_size=1,
                            max_size=max_points, unique=True))
        ps = pointset_from([tuple(G(a, b) for a, b in p) for p in raw], FIELD_GAUSSIAN)
    image = draw(gaussian_map(ps.dim))
    return pointset_from([image(p) for p in ps.points], FIELD_GAUSSIAN)


# -- rich lines --------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(gaussian_sets(), st.integers(min_value=2, max_value=4))
def test_gaussian_rich_lines_match_oracle_and_field_keys(ps, r):
    lines = rich_lines(ps, r)
    assert {frozenset(L.points) for L in lines} == collinear_groups(ps, r)
    assert dumps_json(lines) == dumps_json(field_rich_lines(ps, r))
    assert all(isinstance(c, GaussianRational) for L in lines for c in L.direction + L.base)


def test_gaussian_line_in_one_dimension():
    # every pair of C^1 lies on the one line, whose realified key has four
    # entries and must not be read as a planar rational key
    ps = pointset_from([(G(1, 2),), (G(-1, 0),), (G(0, F(1, 3)),)], FIELD_GAUSSIAN)
    lines = rich_lines(ps, 3)
    assert dumps_json(lines) == dumps_json(field_rich_lines(ps, 3))
    assert lines[0].points == (0, 1, 2)


# -- progressions ------------------------------------------------------------


def _check_progressions(ps, r):
    count, records = count_aps(ps, r)
    assert count == ap_count_oracle(ps, r)
    members = set(ps.points)
    assert len({(rec.start, rec.diff) for rec in records}) == count
    for rec in records:
        assert sign_positive(next(c for c in rec.diff if c != 0))
        assert set(rec.terms()) <= members


@settings(max_examples=80, deadline=None)
@given(gaussian_sets(max_points=14), st.integers(min_value=2, max_value=4))
def test_gaussian_count_aps_matches_oracle(ps, r):
    _check_progressions(ps, r)


# Sets in d = 1..3 whose first coordinate is purely imaginary, so every
# difference that moves it has a zero real part there and its sign comes from
# the imaginary part.
imaginary_first_sets = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(
        st.tuples(small, st.tuples(*[st.tuples(small, small)] * (d - 1))),
        min_size=1, max_size=14, unique=True,
    )
).map(lambda raw: pointset_from(
    [(G(0, a),) + tuple(G(x, y) for x, y in rest) for a, rest in raw], FIELD_GAUSSIAN))


@settings(max_examples=80, deadline=None)
@given(imaginary_first_sets, st.integers(min_value=2, max_value=4))
def test_gaussian_count_aps_with_imaginary_first_differences(ps, r):
    _check_progressions(ps, r)


def test_gaussian_progression_along_the_imaginary_axis():
    ps = pointset_from([(G(1, k), G(2, -k)) for k in range(5)], FIELD_GAUSSIAN)
    count, records = count_aps(ps, 3)
    assert count == ap_count_oracle(ps, 3) == 4
    assert all(rec.diff[0].re == 0 and rec.diff[0].im > 0 for rec in records)


# -- the key -----------------------------------------------------------------


def _times(lam, u):
    """Realified Gaussian-integer vector u multiplied by lam = (re, im)."""
    a, b = lam
    out = []
    for t in range(0, len(u), 2):
        x, y = u[t], u[t + 1]
        out += (a * x - b * y, a * y + b * x)
    return out


def _plus(p, u):
    return tuple(x + y for x, y in zip(p, u))


gaussian_int = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
units = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-9, 9), min_size=2 * d, max_size=2 * d),
            st.lists(st.integers(-5, 5), min_size=2 * d, max_size=2 * d).filter(any),
        )
    ),
    st.one_of(units, gaussian_int.filter(any)),
    gaussian_int,
)
def test_gaussian_key_ignores_direction_scale_and_position(pu, lam, mu):
    p, u = pu
    d = len(p) // 2
    key = _gaussian_pair_key(tuple(p), _plus(p, u), d)
    start = _plus(p, _times(mu, u))
    assert _gaussian_pair_key(start, _plus(start, _times(lam, u)), d) == key
    assert _gaussian_pair_key(_plus(start, _times(lam, u)), start, d) == key

