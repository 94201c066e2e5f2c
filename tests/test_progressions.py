"""Progressions read off the rich lines, against the pair-stepping scan.

`count_aps` and `lift_progressions` read each r-term progression off
`rich_lines(ps, r)` and build each lifted line from point indices.  The
routines they replaced are kept below as references: a scan of all n^2
point pairs, stepped on the integer image with a sign rule of its own, and
a lift that rebuilds every term in field arithmetic and looks it up in the
lifted set.  Records and lifted lines must equal theirs in value, order
and scalar type, over Q and Q(i).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gaussian_image
from richlines.geometry import Line, vsub
from richlines.incidence import APRecord, count_aps, lift_progressions
from richlines.pointsets import PointSet, cartesian_power, grid, index_prefix, pointset_from
from richlines.scalars import FIELD_GAUSSIAN, GaussianRational, coerce, sign_positive
from test_gaussian_incidence import gaussian_entry, gaussian_sets, imaginary_first_sets

G = GaussianRational


# -- references --------------------------------------------------------------


def stepped_count_aps(ps, r):
    """Every pair (i, j), i < j, taken as the first two terms in the order
    that makes the difference sign-canonical on the integer image; the later
    terms are membership-tested there."""
    if r < 2:
        raise ValueError("progression length must be at least 2")
    pts = ps.points
    keys = ps.integer_image[0]
    members = set(keys)
    records = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diff = vsub(keys[j], keys[i])
            if sign_positive(next(c for c in diff if c != 0)):
                lo, hi, step = i, j, diff
            else:
                lo, hi, step = j, i, tuple(-c for c in diff)
            cur = tuple(a + 2 * s for a, s in zip(keys[lo], step))
            for _ in range(r - 2):
                if cur not in members:
                    break
                cur = tuple(a + s for a, s in zip(cur, step))
            else:
                records.append(APRecord(pts[lo], vsub(pts[hi], pts[lo]), r))
    return len(records), records


def looked_up_lift(ps, r):
    """Each progression's terms (m, y + m x), rebuilt in field arithmetic and
    looked up in the index of the lifted set."""
    lifted = index_prefix(ps, r)
    lookup = lifted.index()
    _, records = stepped_count_aps(ps, r)
    lines = []
    for rec in records:
        direction = (coerce(1, ps.field),) + rec.diff
        base = (coerce(0, ps.field),) + rec.start
        incident = [lookup[(coerce(m, ps.field),) + term] for m, term in enumerate(rec.terms())]
        lines.append(Line(direction, base, tuple(sorted(incident))))
    return lifted, records, lines


# -- inputs ------------------------------------------------------------------

rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def rational_sets(draw, max_points=14):
    """Rational affine images of grids and of random sets in d = 1..3."""
    if draw(st.booleans()):
        ps = grid(*draw(st.sampled_from([(1, 6), (2, 3), (2, 4), (3, 2)])))
    else:
        d = draw(st.integers(min_value=1, max_value=3))
        raw = st.lists(st.tuples(*[rational] * d), min_size=1, max_size=max_points, unique=True)
        ps = pointset_from(draw(raw))
    d = ps.dim
    # lower triangular with a nonzero diagonal, so the map is invertible
    A = [[draw(rational.filter(bool)) if j == i else draw(rational) if j < i else 0
          for j in range(d)] for i in range(d)]
    b = [draw(rational) for _ in range(d)]
    return pointset_from([tuple(sum((A[i][j] * p[j] for j in range(d)), b[i]) for i in range(d))
                          for p in ps.points])


# Cartesian squares of 1-D sets over Q and over Q(i)
squares = st.one_of(
    st.lists(rational, min_size=1, max_size=4, unique=True),
    st.lists(gaussian_entry, min_size=1, max_size=4, unique=True),
).map(lambda cs: cartesian_power(pointset_from([(c,) for c in cs]), 2))


def _typed(values):
    return [(c, type(c)) for c in values]


def _records(records):
    return [(rec.length, _typed(rec.start + rec.diff)) for rec in records]


def _lines(lines):
    return [(L.points, _typed(L.direction + L.base)) for L in lines]


# -- equality with the references ---------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(rational_sets(), squares, gaussian_sets(max_points=14), imaginary_first_sets),
    st.integers(min_value=2, max_value=5),
)
# a line whose pivot steps are imaginary; a 3 x 3 Gaussian grid on one line
# of C^1, with steps 1, i, 1 + i and 1 - i; a line whose pivot is the second
# coordinate, with imaginary steps
@example(pointset_from([(G(1, k), G(2, -k)) for k in range(5)], FIELD_GAUSSIAN), 3)
@example(pointset_from([(G(a, b),) for a in range(3) for b in range(3)], FIELD_GAUSSIAN), 3)
@example(pointset_from([(G(0, 0), G(0, k)) for k in range(-3, 4)], FIELD_GAUSSIAN), 4)
def test_progressions_match_the_pair_stepping_reference(ps, r):
    count, records = count_aps(ps, r)
    ref_count, ref_records = stepped_count_aps(ps, r)
    assert count == ref_count == len(records)
    assert _records(records) == _records(ref_records)
    lifted, lifted_records, lines = lift_progressions(ps, r)
    ref_lifted, _, ref_lines = looked_up_lift(ps, r)
    assert lifted.points == ref_lifted.points
    assert _records(lifted_records) == _records(ref_records)
    assert _lines(lines) == _lines(ref_lines)


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Qi"])
def test_lift_builds_no_point_index(monkeypatch, gaussian):
    def refuse(self):
        raise AssertionError("the lift built a point index")

    ps = gaussian_image(grid(2, 4)) if gaussian else grid(2, 4)
    monkeypatch.setattr(PointSet, "index", refuse)
    lifted, records, lines = lift_progressions(ps, 3)
    assert len(records) == len(lines) == 24
    assert all(lifted.points[i][1:] in ps.points for L in lines for i in L.points)
    assert lines[0].points == (0, 16 + 1, 32 + 2)


def test_progressions_need_two_terms():
    ps = pointset_from([(Fraction(k),) for k in range(3)])
    for call in (count_aps, lift_progressions):
        with pytest.raises(ValueError, match="^progression length must be at least 2$"):
            call(ps, 1)
