from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from richlines import designs
from richlines.designs import (
    DesignMatrix,
    assemble_design,
    dependency_coeffs,
    dependency_row,
    line_order,
    measure_design_params,
    random_design_matrix,
    rank_bound_report,
    tuple_cover,
    verify_design,
)
from richlines.geometry import canonical_line
from richlines.incidence import rich_lines
from richlines.linalg import bareiss_rank, right_nullspace
from richlines.pointsets import grid, pointset_from
from richlines.scalars import GaussianRational, format_scalar, scalar_key
from richlines.veronese import integer_veronese, monomial_count, veronese_matrix

F = Fraction


# -- tuple covers ------------------------------------------------------------


def test_cover_exact_multiple():
    assert tuple_cover(list(range(6)), 3) == [(0, 1, 2), (3, 4, 5)]


def test_cover_single_block():
    assert tuple_cover([4, 9, 11], 3) == [(4, 9, 11)]


def test_cover_with_overlap():
    blocks = tuple_cover([0, 1, 2, 3], 3)
    assert blocks == [(0, 1, 2), (1, 2, 3)]
    mult = {}
    for block in blocks:
        for x in range(3):
            for y in range(x + 1, 3):
                key = (block[x], block[y])
                mult[key] = mult.get(key, 0) + 1
    assert mult[(1, 2)] == 2
    assert all(v <= 2 for v in mult.values())


def test_cover_covers_everything_pairs_bounded():
    for m in range(3, 14):
        for r in (3, 4, 5):
            if m < r:
                continue
            blocks = tuple_cover(list(range(m)), r)
            covered = {x for b in blocks for x in b}
            assert covered == set(range(m))
            pair_mult = {}
            for b in blocks:
                for x in range(r):
                    for y in range(x + 1, r):
                        key = (b[x], b[y])
                        pair_mult[key] = pair_mult.get(key, 0) + 1
            assert all(v <= 2 for v in pair_mult.values())


def test_cover_needs_enough_points():
    with pytest.raises(ValueError):
        tuple_cover([1, 2], 3)


# -- dependency coefficients -------------------------------------------------


def test_dependency_second_difference():
    pts = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))]
    assert dependency_coeffs(pts, 1) == (F(1), F(-2), F(1))


def test_dependency_third_difference():
    pts = [(F(t), F(t)) for t in range(4)]
    assert dependency_coeffs(pts, 2) == (F(1), F(-3), F(3), F(-1))


def test_dependency_alternating_binomials_up_to_six():
    from math import comb

    for r in range(3, 7):
        pts = [(F(2 * t + 1), F(-t)) for t in range(r)]
        alpha = dependency_coeffs(pts, r - 2)
        expected = tuple(F((-1) ** j * comb(r - 1, j)) for j in range(r))
        assert alpha == expected


def test_dependency_uneven_spacing_nonzero():
    params = [F(0), F(1), F(7, 2), F(5)]
    pts = [(t, 2 * t + 1) for t in params]
    alpha = dependency_coeffs(pts, 2)
    assert all(a != 0 for a in alpha)
    assert alpha[0] == 1


def test_dependency_rejects_noncollinear():
    pts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
    with pytest.raises(ValueError):
        dependency_coeffs(pts, 1)


def test_dependency_gaussian_collinear_points():
    from richlines.scalars import GaussianRational

    i = GaussianRational(F(0), F(1))
    base = (1 + i, F(0) + 0 * i)
    direction = (2 - i, 1 + i)
    pts = [tuple(b + t * u for b, u in zip(base, direction)) for t in range(4)]
    alpha = dependency_coeffs(pts, 2)
    # equally spaced parameters: third-difference coefficients again
    assert alpha == (1, -3, 3, -1)


def test_dependency_wrong_degree_rejected():
    pts = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))]
    with pytest.raises(ValueError):
        dependency_coeffs(pts, 2)


def test_dependency_rejects_repeated_points():
    p, q = (F(0), F(1)), (F(2), F(3))
    for pts in ([p, p, q], [p, q, p], [p, q, q, (F(4), F(5))]):
        with pytest.raises(ValueError):
            dependency_coeffs(pts, len(pts) - 2)
    with pytest.raises(ValueError):
        dependency_coeffs([p], -1)


def veronese_left_kernel(pts, deg):
    """Reference rows: the left kernel of the d-variate degree-deg Veronese
    matrix of the points."""
    M = veronese_matrix(pointset_from(pts), deg)
    return right_nullspace([list(c) for c in zip(*M.row_list())], M.rows)


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
gaussian_scalars = st.builds(GaussianRational, small_fractions, small_fractions)


@st.composite
def collinear_tuples(draw):
    """Collinear r-tuples over Q or Q(i) in d = 1..4, r = 2..6, with uneven
    (and over Q(i) non-real) parameters of either sign."""
    d = draw(st.integers(1, 4))
    r = draw(st.integers(2, 6))
    scalars = draw(st.sampled_from([small_fractions, gaussian_scalars]))
    base = draw(st.lists(scalars, min_size=d, max_size=d))
    direction = draw(st.lists(scalars, min_size=d, max_size=d).filter(any))
    ts = draw(st.lists(scalars, min_size=r, max_size=r, unique=True))
    pts = [tuple(b + t * u for b, u in zip(base, direction)) for t in ts]
    # Coerce into one field the way a PointSet does.
    return list(pointset_from(pts).points)


@settings(max_examples=150, deadline=None)
@given(collinear_tuples())
def test_dependency_rows_match_veronese_left_kernel(pts):
    r = len(pts)
    alpha = dependency_coeffs(pts, r - 2)
    (ref,) = veronese_left_kernel(pts, r - 2)
    assert alpha == ref
    assert [format_scalar(a) for a in alpha] == [format_scalar(a) for a in ref]


# builds, unlike st.fractions, makes no new strategy per draw
quick_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
quick_gaussians = st.builds(GaussianRational, quick_fractions, quick_fractions)
imaginary_scalars = quick_fractions.map(lambda x: GaussianRational(0, x))


@st.composite
def mapped_collinear_tuples(draw):
    """Collinear r-tuples over Q or Q(i) in d = 1..4, r = 2..6, under a random
    invertible affine map, in the drawn parameter order or sorted by it.  Over
    Q(i) the parameters, or the direction's first nonzero entry, may be
    purely imaginary."""
    d = draw(st.integers(1, 4))
    r = draw(st.integers(2, 6))
    gaussian = draw(st.booleans())
    scalars = quick_gaussians if gaussian else quick_fractions
    if gaussian and draw(st.booleans()):
        ts = draw(st.lists(imaginary_scalars, min_size=r, max_size=r, unique=True))
    else:
        ts = draw(st.lists(scalars, min_size=r, max_size=r, unique=True))
    base, direction, shift = (draw(st.lists(scalars, min_size=d, max_size=d)) for _ in range(3))
    assume(any(direction))
    if gaussian and draw(st.booleans()):
        k = next(k for k, c in enumerate(direction) if c != 0)
        direction[k] = GaussianRational(0, direction[k].re or 1)
    flat = draw(st.lists(scalars, min_size=d * d, max_size=d * d))
    B = [flat[k : k + d] for k in range(0, d * d, d)]
    assume(bareiss_rank(B) == d)
    pts = []
    for t in ts:
        p = [b + t * u for b, u in zip(base, direction)]
        pts.append(tuple(sum((a * x for a, x in zip(row, p)), c) for row, c in zip(B, shift)))
    pts = list(pointset_from(pts, "Qi" if gaussian else "Q").points)
    if draw(st.booleans()):
        piv = canonical_line(pts[0], pts[1]).pivot
        pts.sort(key=lambda p: scalar_key(p[piv]))
    return pts


@settings(max_examples=400, deadline=None)
@given(mapped_collinear_tuples())
def test_dependency_row_matches_the_vandermonde_kernel(pts):
    # The closed form on the integer image's pivot coordinates, as
    # assemble_design computes it, against the Vandermonde elimination:
    # equal values and equal scalar types entry by entry.
    ps = pointset_from(pts)
    image, _, gaussian = ps.integer_image
    k = canonical_line(pts[0], pts[1]).pivot * (2 if gaussian else 1)
    row = dependency_row([y[k : k + 2] if gaussian else y[k] for y in image], gaussian)
    ref = dependency_coeffs(pts, len(pts) - 2)
    assert row == ref
    assert [type(a) for a in row] == [type(a) for a in ref]


# -- assembly ----------------------------------------------------------------


def test_assemble_grid_3x3():
    ps = grid(2, 3)
    lines = rich_lines(ps, 3)
    A, image = assemble_design(ps, lines, 3)
    assert (A.rows, A.cols) == (8, 9)
    assert image == integer_veronese(ps, 1)
    assert (len(image[0]), len(image[1])) == (9, 3)
    assert A.product_with(veronese_matrix(ps, 1)).is_zero()
    assert A.q == 3 and A.t <= 2 and A.k >= 2
    assert verify_design(A) == (A.q, A.k, A.t)


def test_assemble_single_line():
    ps = pointset_from([(F(i), F(i)) for i in range(4)])
    lines = rich_lines(ps, 4)
    A, _ = assemble_design(ps, lines, 4)
    assert A.rows == 1
    assert A.product_with(veronese_matrix(ps, 2)).is_zero()


def test_assemble_no_lines():
    ps = pointset_from([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    A, M = assemble_design(ps, [], 3)
    assert A.rows == 0
    assert A.k == 0


def test_assemble_rejects_poor_lines():
    ps = grid(2, 3)
    lines = rich_lines(ps, 3)
    with pytest.raises(ValueError):
        assemble_design(ps, lines, 4)


def _gaussian_image(ps):
    a, b = GaussianRational(F(1, 2), 2), GaussianRational(F(-1, 3), F(1, 5))
    return pointset_from([tuple(a * c + b for c in p) for p in ps.points], "Qi")


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("which", [0, 7])
def test_assemble_rejects_a_perturbed_dependency_row(monkeypatch, gaussian, which):
    # A * M = 0 is checked on the integer image; one wrong coefficient in one
    # row must fail it over either field.
    ps = _gaussian_image(grid(2, 4)) if gaussian else grid(2, 4)
    lines = rich_lines(ps, 4)
    real, calls = designs.dependency_row, []
    bump = GaussianRational(0, 1) if gaussian else F(1, 7)

    def perturbed(ts, gaussian):
        alpha = real(ts, gaussian)
        calls.append(alpha)
        if len(calls) - 1 == which:
            alpha = alpha[:2] + (alpha[2] + bump,) + alpha[3:]
        return alpha

    A, _ = assemble_design(ps, lines, 4)
    assert A.product_with(veronese_matrix(ps, 2)).is_zero()
    monkeypatch.setattr(designs, "dependency_row", perturbed)
    with pytest.raises(ArithmeticError, match=r"A \* M != 0"):
        assemble_design(ps, lines, 4)
    assert len(calls) == which + 1


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize(
    "points, message",
    [
        ((0, 1, 2, 5), "points are not collinear"),  # (2, 2) is off the line x = 1
        ((0, 1, 2, 2), "repeated point in a collinear tuple"),
        ((0, 1, 2, -13), "line 0 references invalid point index -13"),
        ((0, 1, 2, 16), "line 0 references invalid point index 16"),
    ],
)
def test_assemble_rejects_a_bad_incidence_list(gaussian, points, message):
    # Each line's incidence list is checked once: indices in range, distinct,
    # and naming points on the line.  A negative index once gave A an entry
    # at column -13, which the support counts read as column 3.
    ps = _gaussian_image(grid(2, 4)) if gaussian else grid(2, 4)
    lines = rich_lines(ps, 4)
    assert lines[0].points == (0, 1, 2, 3)
    bad = [replace(lines[0], points=points)] + lines[1:]
    with pytest.raises(ValueError, match=f"^{message}$"):
        assemble_design(ps, bad, 4)


def test_line_order_sorts_by_parameter():
    ps = pointset_from([(F(3), F(3)), (F(0), F(0)), (F(1), F(1)), (F(2), F(2))])
    lines = rich_lines(ps, 4)
    assert line_order(ps, lines[0]) == [1, 2, 3, 0]
    # over Q(i): real part first, then imaginary part, on a scaled image
    G = GaussianRational
    ts = [G(F(1, 2), 1), G(0, F(2, 3)), G(F(1, 2), 0), G(0, -1)]
    ps = pointset_from([(t, 2 * t + G(0, 1)) for t in ts], "Qi")
    lines = rich_lines(ps, 4)
    assert ps.integer_image[1][0] == 6
    assert line_order(ps, lines[0]) == [3, 1, 2, 0]


def test_assembly_rows_per_line_with_overlap():
    # rows and columns of grid(2,4) have 4 points: one disjoint block plus
    # the overlapping final triple
    ps = grid(2, 4)
    lines = rich_lines(ps, 3)
    A, _ = assemble_design(ps, lines, 3)
    sizes = sorted(len(L.points) for L in lines)
    expected_rows = sum(2 if s == 4 else 1 for s in sizes)
    assert A.rows == expected_rows
    assert A.product_with(veronese_matrix(ps, 1)).is_zero()


# -- measured parameters -----------------------------------------------------


def test_params_identity():
    entries = {(i, i): F(1) for i in range(4)}
    assert measure_design_params(4, 4, entries) == (1, 1, 0)


def test_params_all_ones():
    entries = {(i, j): F(1) for i in range(2) for j in range(2)}
    assert measure_design_params(2, 2, entries) == (2, 2, 2)


def scan_design_params(rows, cols, entries):
    """Reference (q, k, t): column supports as row sets, t by intersecting
    every pair of columns."""
    row_supp = [0] * rows
    col_supp = [set() for _ in range(cols)]
    for (i, j), v in entries.items():
        if v != 0:
            row_supp[i] += 1
            col_supp[j].add(i)
    t = max(
        (len(a & b) for x, a in enumerate(col_supp) for b in col_supp[x + 1 :]),
        default=0,
    )
    return max(row_supp, default=0), min((len(c) for c in col_supp), default=0), t


@st.composite
def sparse_matrices(draw):
    """Sparse matrices with explicit zero entries and empty rows and columns."""
    rows = draw(st.integers(min_value=0, max_value=8))
    cols = draw(st.integers(min_value=0, max_value=8))
    cells = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)))
    entries = {}
    if rows and cols:
        entries = draw(st.dictionaries(cells, st.integers(-2, 2).map(F), max_size=30))
    return rows, cols, entries


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_params_match_pairwise_scan(matrix):
    assert measure_design_params(*matrix) == scan_design_params(*matrix)


def test_verify_design_flags_mismatch():
    A = DesignMatrix(2, 2, {(0, 0): F(1), (1, 1): F(1)}, 2, 2, 2)
    with pytest.raises(AssertionError):
        verify_design(A)


# -- rank bounds -------------------------------------------------------------


def test_rank_bound_identity():
    entries = {(i, i): F(1) for i in range(5)}
    A = DesignMatrix(5, 5, entries, 1, 1, 0)
    rep = rank_bound_report(A)
    assert rep.rank == 5
    assert rep.bound_columns == 5 and rep.bound_rows == 5
    assert rep.all_hold


def test_rank_bound_grid_assembly():
    ps = grid(2, 3)
    A, _ = assemble_design(ps, rich_lines(ps, 3), 3)
    rep = rank_bound_report(A, veronese_matrix(ps, 1).rank())
    assert rep.rank == 6
    assert rep.rank_m == 3
    assert rep.rank_sum_ok
    assert rep.all_hold


def test_rank_bound_vacuous_when_column_empty():
    A = DesignMatrix(1, 2, {(0, 0): F(1)}, 1, 0, 0)
    rep = rank_bound_report(A)
    assert rep.bound_columns is None and rep.all_hold


def test_random_design_matrices_obey_bounds():
    rng = Random(42)
    for trial in range(60):
        n = rng.randint(6, 16)
        q = rng.randint(2, 4)
        A = random_design_matrix(rng, n, rng.randint(4, 2 * n), q)
        assert A.t <= 2
        assert A.k >= 1
        assert rank_bound_report(A).all_hold


def test_cover_size_bound_under_bounded_degrees():
    # when per-point line counts sit within [k, 8k], the cover has at most
    # 16 n k / r tuples
    for d, h in [(2, 3), (2, 4), (3, 3)]:
        ps = grid(d, h)
        lines = rich_lines(ps, 3)
        counts = [0] * len(ps)
        for line in lines:
            for i in line.points:
                counts[i] += 1
        k, kmax = min(counts), max(counts)
        assert kmax <= 8 * k
        A, _ = assemble_design(ps, lines, 3)
        assert len(A.cover.all_tuples) * 3 <= 16 * len(ps) * k


def test_design_rank_deficiency_grid_3x3():
    # 27 points and 49 triple-rich lines leave the degree-1 embedding short
    ps = grid(3, 3)
    lines = rich_lines(ps, 3)
    assert len(lines) == 49
    A, _ = assemble_design(ps, lines, 3)
    rep = rank_bound_report(A, veronese_matrix(ps, 1).rank())
    assert rep.rank + rep.rank_m <= 27
    assert rep.rank_m == monomial_count(3, 1)
    assert rep.all_hold
