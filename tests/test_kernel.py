"""Differential tests of `linalg.first_kernel_vector` and `linalg.sparse_rank`
on integer images.

The routine finds rank(M) and the first RREF kernel vector of
M = M_int * diag(s)^-1 from one sparse elimination (`_echelon`) of M_int,
its columns reversed, and a back-substitution in the pivot rows.  It is checked here, by
`format_scalar` bytes (so the scalar types too), against `right_nullspace`
of the field matrix, and its rank against `rref_rank`: on Veronese matrices
of Q and Q(i) point sets, and on matrices whose columns are dependent modulo
small primes.
"""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richlines import designs, linalg
from richlines.incidence import max_hyperplane_subset
from richlines.linalg import first_kernel_vector, right_nullspace, rref_rank, sparse_rank
from richlines.pointsets import pointset_from
from richlines.scalars import FIELD_GAUSSIAN, FIELD_RATIONAL, GaussianRational, format_scalar
from richlines.vanishing import certified_vanishing_poly, find_vanishing_poly
from richlines.veronese import integer_veronese, monomial_count, veronese_matrix

F = Fraction
G = GaussianRational


def _bytes(vec):
    return None if vec is None else [format_scalar(x) for x in vec]


def _reference(ps, deg):
    kernel = right_nullspace(veronese_matrix(ps, deg).row_list(), monomial_count(ps.dim, deg))
    return kernel[0] if kernel else None


def _fast(ps, deg):
    return first_kernel_vector(*integer_veronese(ps, deg), ps.field == FIELD_GAUSSIAN)[1]


@st.composite
def veronese_inputs(draw):
    gaussian = draw(st.booleans())
    d = draw(st.integers(1, 4))
    deg = draw(st.integers(0, 3))

    def scalar(nonzero=False):
        re = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        im = F(draw(st.integers(-3, 3)), draw(st.integers(1, 2))) if gaussian else F(0)
        if nonzero and re == 0 and im == 0:
            re = F(1)
        return G(re, im) if gaussian else re

    shape = draw(st.sampled_from(["random", "zero-axis", "unisolvent"]))
    if shape == "unisolvent" and (deg + 1) ** d <= 64:
        # {0..deg}^d under a per-axis scaling: no nonzero polynomial of
        # degree <= deg vanishes on it, so the kernel is trivial
        scale = [scalar(nonzero=True) for _ in range(d)]
        pts = [tuple(c * s for c, s in zip(combo, scale))
               for combo in itertools.product(range(deg + 1), repeat=d)]
    else:
        pts = [tuple(scalar() for _ in range(d)) for _ in range(draw(st.integers(1, 10)))]
        if shape == "zero-axis":
            axis = draw(st.integers(0, d - 1))
            pts = [p[:axis] + (p[axis] * 0,) + p[axis + 1:] for p in pts]
    field = FIELD_GAUSSIAN if gaussian else FIELD_RATIONAL
    return pointset_from(list(dict.fromkeys(pts)), field), deg


@settings(max_examples=200, deadline=None)
@given(veronese_inputs())
def test_first_kernel_vector_matches_rref_bytes(case):
    ps, deg = case
    assert _bytes(_fast(ps, deg)) == _bytes(_reference(ps, deg))


@settings(max_examples=200, deadline=None)
@given(veronese_inputs())
def test_integer_rank_of_the_image_is_the_field_rank(case):
    # scaling a column by s^e != 0 keeps the rank, so M_int has the rank of M;
    # the elimination that finds the kernel vector gives the same rank
    ps, deg = case
    rows, scales = integer_veronese(ps, deg)
    before = [list(r) for r in rows]
    gaussian = ps.field == FIELD_GAUSSIAN
    rank = rref_rank(veronese_matrix(ps, deg).row_list())
    assert sparse_rank([dict(enumerate(r)) for r in rows], gaussian) == rank
    assert first_kernel_vector(rows, scales, gaussian)[0] == rank
    assert rows == before


def test_integer_veronese_is_a_column_scaling():
    for field, pts in [
        (FIELD_RATIONAL, [(F(1, 2), F(-3)), (F(2, 3), F(0)), (F(-5, 6), F(1, 4))]),
        (FIELD_GAUSSIAN, [(G(F(1, 2), 1), G(0, F(-1, 3))), (G(2, 0), G(F(3, 4), F(1, 2)))]),
    ]:
        ps = pointset_from(pts, field)
        rows, scales = integer_veronese(ps, 3)
        M = veronese_matrix(ps, 3)
        for j, row in enumerate(rows):
            for k, (x, s) in enumerate(zip(row, scales)):
                if field == FIELD_GAUSSIAN:
                    x = G(*x)
                assert x == M.row(j)[k] * s


def _field(rows, scales, gaussian):
    if gaussian:
        return [[G(F(a, s), F(b, s)) for (a, b), s in zip(row, scales)] for row in rows]
    return [[F(x, s) for x, s in zip(row, scales)] for row in rows]


# Column 1 is 5 or 65 times an integer vector: dependent modulo 5 (and 13),
# independent over the field.
_UNLUCKY = [
    ([[1, 0], [0, 5]], [1, 2], False),
    ([[1, 0, 1], [0, 5, 5]], [3, 1, 2], False),
    ([[1, 0, 1], [0, 65, 65]], [1, 1, 1], False),
    ([[(1, 0), (0, 0), (1, 0)], [(0, 0), (0, 65), (0, 65)]], [1, 2, 1], True),
    ([[(1, 1), (0, 0)], [(0, 0), (65, 0)]], [2, 1], True),
]


@pytest.mark.parametrize("rows, scales, gaussian", _UNLUCKY)
def test_unlucky_matrices_match_rref_bytes(rows, scales, gaussian):
    field = _field(rows, scales, gaussian)
    rank, got = first_kernel_vector(rows, scales, gaussian)
    kernel = right_nullspace(field, len(scales))
    assert _bytes(got) == _bytes(kernel[0] if kernel else None)
    assert rank == rref_rank(field)


_TWO_LINES = [
    (FIELD_RATIONAL, [(F(x), F(y)) for y in range(2) for x in range(4)]),
    (FIELD_GAUSSIAN, [(G(x, 0), G(0, y)) for y in range(2) for x in range(4)]),
]


@pytest.mark.parametrize("field, pts", _TWO_LINES)
def test_one_certificate_eliminates_m_once(field, pts):
    # two 4-rich lines: y(y - 1) spans the kernel of the degree-2 M.  One
    # elimination gives rank(M) and that kernel vector, and one more, of
    # A's integer rows, gives rank(A).
    with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as echelon, \
         mock.patch.object(designs, "sparse_rank", wraps=linalg.sparse_rank) as sparse:
        f, cert = certified_vanishing_poly(pointset_from(pts, field), 4)
    assert f is not None and cert.rank_m == 5
    assert echelon.call_count == 2 and sparse.call_count == 1


def test_unit_kernel_vector_keeps_rational_entries_over_gaussian():
    rows = [[(1, 2), (0, 0), (3, 0)], [(0, 1), (0, 0), (1, 1)]]
    got = first_kernel_vector(rows, [1, 1, 1], True)[1]
    assert got == (0, 1, 0) and all(type(x) is Fraction for x in got)


def test_empty_and_columnless_inputs():
    assert first_kernel_vector([], [1, 1, 1])[0] == 0
    assert _bytes(first_kernel_vector([], [1, 1, 1])[1]) == ["1/1", "0/1", "0/1"]
    assert first_kernel_vector([[]], []) == (0, None)


@pytest.mark.parametrize("field, pts", _TWO_LINES)
def test_no_field_gauss_jordan_from_lines_to_certificate(field, pts):
    ps = pointset_from(pts, field)
    line = pointset_from([tuple(p + (p[0] * 0,)) for p in pts[:4]], field)
    with mock.patch.object(linalg, "rref", side_effect=AssertionError("field RREF ran")):
        f, _ = certified_vanishing_poly(ps, 4)
        assert f is not None and find_vanishing_poly(ps, 3) is not None
        # collinear in 3 dimensions: no 3-subset spans a plane
        assert max_hyperplane_subset(line)[0] == 4
