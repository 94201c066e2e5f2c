"""Differential tests of the integer-image evaluator.

f, its partials, line membership and hyperplane membership are evaluated
on the integer image y = s * p of `PointSet.integer_image` (`veronese.cleared`,
`vanishing._line_test`, `vanishing._members`, `incidence.incidences`,
`incidence.line_image`).  Each is checked against the field-arithmetic
reference it replaced: `Polynomial.evaluate` (by type and `format_scalar`
bytes), the `point_at(t)` check at t = 0..deg, `Hyperplane.members`,
`Line.contains` and the `Fraction`-product line image, over Q and Q(i),
d = 1..4, deg = 0..3.
"""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import richlines.vanishing as vanishing
from richlines.geometry import Line, canonical_line, dot, make_hyperplane
from richlines.incidence import incidences, line_image
from richlines.pointsets import pointset_from
from richlines.scalars import FIELD_GAUSSIAN, FIELD_RATIONAL, GaussianRational, format_scalar
from richlines.vanishing import classify_flat_points, find_vanishing_poly, hyperplane_from_product
from richlines.linalg import int_dot, integer_vector
from richlines.veronese import Polynomial, cleared, monomial_basis, monomial_rows

F = Fraction
G = GaussianRational


def _scalar(draw, gaussian, nonzero=False, den=3):
    re = F(draw(st.integers(-4, 4)), draw(st.integers(1, den)))
    im = F(draw(st.integers(-3, 3)), draw(st.integers(1, den - 1))) if gaussian else F(0)
    if nonzero and not (re or im):
        re = F(1)
    return G(re, im) if gaussian else re


def _pointset(pts, gaussian):
    return pointset_from(list(dict.fromkeys(pts)), FIELD_GAUSSIAN if gaussian else FIELD_RATIONAL)


def _poly(draw, gaussian, d, deg):
    """A nonzero polynomial of degree <= deg: random terms (some free of one
    axis, so a partial is zero), or a monomial with a Fraction coefficient
    1, the unit kernel vector over Q(i)."""
    exps = monomial_basis(d, deg).exponents
    shape = draw(st.sampled_from(["random", "zero-partial", "unit"]))
    if shape == "unit":
        return Polynomial(d, {draw(st.sampled_from(exps)): F(1)})
    free = draw(st.integers(0, d - 1))
    pool = [e for e in exps if shape == "random" or not e[free]]
    terms = {e: _scalar(draw, gaussian) for e in draw(st.lists(st.sampled_from(pool), max_size=6))}
    if gaussian and draw(st.booleans()):  # mixed coefficient types
        terms = {e: c.re if i % 2 else c for i, (e, c) in enumerate(terms.items())}
    terms[draw(st.sampled_from(pool))] = _scalar(draw, gaussian, nonzero=True)
    return Polynomial(d, terms)


def _times(f, g):
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(f.terms.items(), g.terms.items()):
        e = tuple(a + b for a, b in zip(e1, e2))
        out[e] = out.get(e, 0) + c1 * c2
    return Polynomial(f.dim, out)


def _key(x):
    return type(x).__name__, format_scalar(x)


@st.composite
def eval_cases(draw):
    gaussian = draw(st.booleans())
    d = draw(st.integers(1, 4))
    deg = draw(st.integers(0, 3))
    n = draw(st.integers(1, 8))
    ps = _pointset([tuple(_scalar(draw, gaussian) for _ in range(d)) for _ in range(n)], gaussian)
    return ps, _poly(draw, gaussian, d, deg)


@settings(max_examples=200, deadline=None)
@given(eval_cases())
def test_image_values_and_gradients_match_evaluate(case):
    ps, f = case
    ints, scales, gaussian = ps.integer_image
    exps, w, L = cleared(f, scales, gaussian)
    assert L > 0
    for row, p in zip(monomial_rows(ints, exps, gaussian), ps.points):
        v = int_dot(row, w, gaussian)
        assert (G(F(v[0], L), F(v[1], L)) if gaussian else F(v[0], L)) == f.evaluate(p)
    report = classify_flat_points(ps, [], f)  # no lines: every point is flat
    for p, got in zip(ps.points, report.gradients):
        assert [_key(x) for x in got] == [_key(g.evaluate(p)) for g in f.gradient()]


def _reference_vanishes(f, line):
    return all(f.evaluate(line.point_at(F(t))) == 0 for t in range(f.degree() + 1))


@st.composite
def line_cases(draw):
    """Lines through random point pairs with 0, 1 or many listed points on
    a set that holds points of each line, and an f that vanishes on a random
    subset of them (times a random factor), or one that vanishes at the
    parameters t = 0..deg-1 of the first line but not at t = deg."""
    gaussian = draw(st.booleans())
    d = draw(st.integers(1, 4))
    pts = [tuple(_scalar(draw, gaussian) for _ in range(d)) for _ in range(draw(st.integers(1, 3)))]
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        p = tuple(_scalar(draw, gaussian, den=7) for _ in range(d))
        q = tuple(_scalar(draw, gaussian, den=7) for _ in range(d))
        if p == q:
            q = (p[0] + 1,) + p[1:]
        line = canonical_line(p, q)
        ts = draw(st.lists(st.integers(-3, 3), max_size=3, unique=True))
        lines.append((line, [line.point_at(F(t)) for t in ts]))
        pts += lines[-1][1]
    ps = _pointset(pts, gaussian)
    index = ps.index()
    lines = [line.with_points(index[p] for p in on) for line, on in lines]
    zero = (0,) * d
    if draw(st.booleans()) or d == 1:
        deg = draw(st.integers(1, 3))
        piv = lines[0].pivot
        f = Polynomial(d, {zero: _scalar(draw, gaussian, nonzero=True)})
        for k in range(deg):  # prod (x_piv - k): zero at t = 0..deg-1 on lines[0]
            f = _times(f, Polynomial(d, {zero[:piv] + (1,) + zero[piv + 1:]: F(1), zero: F(-k)}))
    else:
        f = Polynomial(d, {zero: F(1)})
        for line in draw(st.lists(st.sampled_from(lines), min_size=1, max_size=2)):
            # x_a - base_a - direction_a * x_piv vanishes on the line, a != piv
            piv = line.pivot
            a = draw(st.sampled_from([a for a in range(d) if a != piv]))
            e = [zero[:k] + (1,) + zero[k + 1:] for k in (a, piv)]
            f = _times(f, Polynomial(d, {e[0]: F(1), e[1]: -line.direction[a], zero: -line.base[a]}))
        if draw(st.booleans()):
            f = _times(f, _poly(draw, gaussian, d, 1))
    return ps, lines, f


@settings(max_examples=200, deadline=None)
@given(line_cases())
def test_line_test_matches_point_at_check(case):
    ps, lines, f = case
    _, scales, gaussian = ps.integer_image
    vanishes_on = vanishing._line_test(f, scales, gaussian)
    expected = [_reference_vanishes(f, line) for line in lines]
    assert [vanishes_on(line) for line in lines] == expected
    # the test reads only the line, never its listed points
    assert [vanishes_on(Line(L.direction, L.base)) for L in lines] == expected
    if all(expected):
        classify_flat_points(ps, lines, f)
    else:
        with pytest.raises(ValueError, match=f"^polynomial does not vanish on line {expected.index(False)}$"):
            classify_flat_points(ps, lines, f)


@st.composite
def plane_cases(draw):
    gaussian = draw(st.booleans())
    d = draw(st.integers(1, 4))
    normal = [_scalar(draw, gaussian) for _ in range(d)]
    piv = draw(st.integers(0, d - 1))
    normal[piv] = _scalar(draw, gaussian, nonzero=True)
    offset = _scalar(draw, gaussian)
    pts = [tuple(_scalar(draw, gaussian) for _ in range(d)) for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 5))):  # points on the plane: solve for x_piv
        x = [_scalar(draw, gaussian) for _ in range(d)]
        x[piv] = 0 * x[piv]
        x[piv] = (offset - dot(x, normal)) / normal[piv]
        pts.append(tuple(x))
    ps = _pointset(pts, gaussian)
    planes = [make_hyperplane(normal, offset), make_hyperplane(normal, dot(ps.points[0], normal))]
    return ps, planes


@settings(max_examples=200, deadline=None)
@given(plane_cases())
def test_members_match_hyperplane_members(case):
    ps, planes = case
    assert vanishing._members(ps, planes) == [H.members(ps.points) for H in planes]
    for H in planes[1:]:  # ell = 1 descent: the plane itself and its members
        assert hyperplane_from_product(H, ps, 1) == (H, tuple(H.members(ps.points)))


def _reference_incidences(ps, lines):
    edges = []
    for li, line in enumerate(lines):
        for pi in line.points:
            if pi < 0 or pi >= len(ps):
                raise ValueError(f"line {li} references invalid point index {pi}")
            if not line.contains(ps.points[pi]):
                raise ValueError(f"point {pi} is not on line {li}")
            edges.append((pi, li))
        if len(set(line.points)) < len(line.points):
            raise ValueError("repeated point in a collinear tuple")
    return edges


@st.composite
def incidence_cases(draw):
    """Lines through pairs of V with all their points listed, none, or all
    with an off-line or an invalid index inserted."""
    gaussian = draw(st.booleans())
    d = draw(st.integers(1, 4))
    base = [tuple(_scalar(draw, gaussian) for _ in range(d)) for _ in range(draw(st.integers(2, 6)))]
    pts = list(base)
    for p, q in itertools.combinations(base[:3], 2):  # extra points on a few lines
        if p != q:
            line = canonical_line(p, q)
            pts += [line.point_at(F(t)) for t in (2, -1, F(1, 2))]
    ps = _pointset(pts, gaussian)
    n = len(ps)
    lines = []
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5)):
        if i == j:
            continue
        line = canonical_line(ps.points[i], ps.points[j])
        idx = [k for k, p in enumerate(ps.points) if line.contains(p)]
        listed = draw(st.sampled_from(["all", "none", "inserted"]))
        if listed == "none":
            idx = []
        elif listed == "inserted":
            idx.insert(draw(st.integers(0, len(idx))), draw(st.integers(-1, n)))
        lines.append(Line(line.direction, line.base, tuple(idx)))
    return ps, lines


@settings(max_examples=200, deadline=None)
@given(incidence_cases())
def test_incidences_match_line_contains(case):
    ps, lines = case
    try:
        expected = _reference_incidences(ps, lines)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            incidences(ps, lines)
    else:
        assert list(incidences(ps, lines).edges) == expected


@settings(max_examples=100, deadline=None)
@given(eval_cases(), st.integers(0, 6))
def test_vanishing_search_is_capped_by_the_point_count(case, extra):
    # rank M <= n, so degree D with C(d + D, d) > n monomials holds the answer
    ps, _ = case
    cap = next(D for D in itertools.count() if len(monomial_basis(ps.dim, D)) > len(ps))
    built = []
    real = vanishing.integer_veronese
    with mock.patch.object(vanishing, "integer_veronese",
                           lambda ps, deg: built.append(deg) or real(ps, deg)):
        assert find_vanishing_poly(ps, cap + extra) == find_vanishing_poly(ps, cap)
    assert built == [cap, cap]


def fraction_product_line_image(line, scales, gaussian=False):
    """The former `line_image`: every coordinate times its axis scale in field
    arithmetic, then the denominators cleared by one `integer_vector`."""
    axis = scales[::2] if gaussian else scales
    w, D = integer_vector([c * s for c, s in zip(line.base + line.direction, axis + axis)], gaussian)
    w = [x for pair in w for x in pair] if gaussian else w
    return D, w[: len(scales)], w[len(scales) :]


# parts and scales built from the primes 2, 3 and 5, so that they share factors
_part = st.builds(F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 5, 6, 9, 10, 12, 15, 30]))
_scale = st.sampled_from([1, 2, 3, 4, 6, 10, 12, 30])


@st.composite
def image_lines(draw):
    """A Q or Q(i) line in d = 1..4 and scales of an image (both parts of an
    axis share its scale over Q(i))."""
    gaussian = draw(st.booleans())
    d = draw(st.integers(1, 4))
    scalar = st.builds(G, _part, _part) if gaussian else _part
    base = tuple(draw(scalar) for _ in range(d))
    direction = tuple(draw(scalar) for _ in range(d))
    axis = [draw(_scale) for _ in range(d)]
    scales = tuple(s for s in axis for _ in range(2 if gaussian else 1))
    return Line(direction, base), scales, gaussian


def _prime_factors(m):
    p = 2
    while m > 1:
        if m % p == 0:
            yield p
            while m % p == 0:
                m //= p
        p += 1


@settings(max_examples=300, deadline=None)
@given(image_lines())
@example((Line((F(3, 4),), (F(-5, 6),)), (6,), False))
@example((Line((G(F(-1, 4), F(3, 10)),), (G(F(5, 6), F(-7, 15)),)), (30, 30), True))
def test_line_image_matches_the_fraction_product_reference(case):
    line, scales, gaussian = case
    D, B, U = line_image(line, scales, gaussian)
    assert (D, B, U) == fraction_product_line_image(line, scales, gaussian)
    assert all(type(x) is int for x in [D, *B, *U])
    parts = line.base + line.direction
    if gaussian:
        parts = [x for c in parts for x in (c.re, c.im)]
    scaled = [s * x for s, x in zip(scales + scales, parts)]
    assert [D * x for x in scaled] == B + U
    # least: no proper divisor D / p clears every denominator
    for p in _prime_factors(D):
        assert any(((D // p) * x).denominator != 1 for x in scaled)
