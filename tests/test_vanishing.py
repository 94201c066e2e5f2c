import dataclasses
import re
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import richlines.designs as designs
import richlines.vanishing as vanishing
import richlines.veronese as veronese
from conftest import circle_points, coordinate_planes_config, gaussian_image, restrict_to_line
from richlines.geometry import make_hyperplane
from richlines.incidence import max_hyperplane_subset, rich_lines
from richlines.pointsets import PointSet, grid, pasted_grids, pointset_from
from richlines.vanishing import (
    FLAT,
    JOINT,
    PipelineConstants,
    ap_hyperplane,
    certified_vanishing_poly,
    classify_flat_points,
    extract_hyperplane,
    find_vanishing_poly,
    hyperplane_from_product,
    hypothesis_constant,
)
from richlines.scalars import GaussianRational, format_scalar
from richlines.veronese import (
    Polynomial,
    monomial_basis,
    poly_from_coeff_vector,
    veronese_matrix,
)

F = Fraction


# -- minimal-degree vanishing polynomials ------------------------------------


def test_circle_polynomial_recovered():
    ps = circle_points()
    f = find_vanishing_poly(ps, 2)
    assert f is not None
    assert Polynomial(2, {e: -25 * c for e, c in f.terms.items()}) == Polynomial(
        2, {(2, 0): F(1), (0, 2): F(1), (0, 0): F(-25)}
    )
    assert all(f.evaluate(p) == 0 for p in ps.points)


def test_circle_kernel_is_one_dimensional():
    ps = circle_points()
    assert len(veronese_matrix(ps, 2).right_nullspace()) == 1


def test_no_line_through_triangle():
    ps = pointset_from([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    assert find_vanishing_poly(ps, 1) is None


def test_small_sets_always_have_low_degree_polynomials():
    # fewer points than monomials forces a kernel
    ps = pointset_from([(F(1), F(2)), (F(3), F(5)), (F(-1), F(4)), (F(2), F(2))])
    f = find_vanishing_poly(ps, 2)
    assert f is not None and f.degree() <= 2


def test_minimal_degree_is_minimal():
    ps = pointset_from([(F(t), F(2 * t + 1)) for t in range(5)])
    f = find_vanishing_poly(ps, 3)
    assert f is not None
    assert f.degree() == 1  # the line itself, despite the higher allowance


def per_degree_vanishing_poly(ps, max_deg):
    """Reference search: one elimination per degree 0, 1, ..., max_deg."""
    for deg in range(max_deg + 1):
        kernel = veronese_matrix(ps, deg).right_nullspace()
        if kernel:
            return poly_from_coeff_vector(monomial_basis(ps.dim, deg), kernel[0])
    return None


coords = st.integers(-3, 3).map(F)


@st.composite
def vanishing_inputs(draw):
    """Small point sets over Q or Q(i) in d = 1..3, free or forced onto a
    hyperplane or onto two parallel hyperplanes, and a degree cap 0..3."""
    d = draw(st.integers(1, 3))
    raw = draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=12, unique=True))
    kind = draw(st.sampled_from(["free", "plane", "two-planes"]))
    if kind == "plane":
        raw = {p[:-1] + (2 * p[0] - 1,) for p in raw} if d > 1 else {(F(1),)}
    elif kind == "two-planes":
        raw = {(p[0] % 2,) + p[1:] for p in raw}
    pts = sorted(raw)
    if draw(st.booleans()):
        # An affine image in Q(i) keeps every vanishing degree.
        a, b = GaussianRational(F(1), F(2)), GaussianRational(F(-1, 2), F(1))
        pts = [tuple(a * c + b for c in p) for p in pts]
    return pointset_from(pts), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(vanishing_inputs())
def test_single_elimination_matches_per_degree_search(case):
    ps, max_deg = case
    f = find_vanishing_poly(ps, max_deg)
    ref = per_degree_vanishing_poly(ps, max_deg)
    assert f == ref
    if f is not None:
        assert [(e, format_scalar(c)) for e, c in f.sorted_terms()] == [
            (e, format_scalar(c)) for e, c in ref.sorted_terms()
        ]


# -- certified route ---------------------------------------------------------


def test_certified_grid_3x3_reports_full_rank():
    ps = grid(2, 3)
    f, cert = certified_vanishing_poly(ps, 3)
    assert f is None
    assert cert.rank_m == cert.basis_size == 3
    assert not cert.rank_deficient
    assert cert.q <= 3 and cert.t <= 2
    assert cert.rank_bounds.all_hold
    assert not cert.hypothesis_ok  # desk scale is far below the constants


def test_certified_points_on_one_line():
    ps = pointset_from([(F(i), F(3 - i)) for i in range(10)])
    f, cert = certified_vanishing_poly(ps, 5)
    assert cert.rank_deficient
    assert f is not None
    assert f.degree() <= 3
    assert all(f.evaluate(p) == 0 for p in ps.points)
    minimal = find_vanishing_poly(ps, 3)
    assert minimal is not None and minimal.degree() == 1


@pytest.mark.parametrize(
    "ps, r, rank_m",
    [
        # a kernel exists, but a full rank (10 cubic monomials) promises none
        (pointset_from([(F(i), F(3 - i)) for i in range(10)]), 5, 10),
        # no kernel exists, but a deficient rank (of 3) promises one
        (grid(2, 3), 3, 2),
    ],
)
def test_certified_rank_and_kernel_must_agree(monkeypatch, ps, r, rank_m):
    real = vanishing._kernel_poly

    def skewed(ps, image, deg):
        return rank_m, real(ps, image, deg)[1]

    monkeypatch.setattr(vanishing, "_kernel_poly", skewed)
    with pytest.raises(ArithmeticError, match="disagree"):
        certified_vanishing_poly(ps, r)


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_certificate_builds_the_veronese_image_once(monkeypatch, field):
    # A * M = 0, rank(M) and the kernel vector all come from one integer image
    ps = grid(2, 4)
    if field == "Qi":
        a, b = GaussianRational(F(1, 2), 2), GaussianRational(F(-1, 3), F(1, 5))
        ps = pointset_from([tuple(a * c + b for c in p) for p in ps.points], field)
    built = []
    for module in (designs, vanishing):
        for name in ("integer_veronese", "veronese_matrix"):
            real = getattr(veronese, name)
            monkeypatch.setattr(module, name, lambda *a, _n=name, _f=real: built.append(_n) or _f(*a),
                                raising=False)
    f, cert = certified_vanishing_poly(ps, 4)
    assert built == ["integer_veronese"]
    assert f is None and cert.rank_m == veronese_matrix(ps, 2).rank() == 6


def test_pipelines_build_each_integer_image_once(monkeypatch):
    # record the size of each point set whose integer image is built
    built, build = [], PointSet.integer_image.func
    prop = cached_property(lambda ps: built.append(len(ps)) or build(ps))
    prop.__set_name__(PointSet, "integer_image")
    monkeypatch.setattr(PointSet, "integer_image", prop)
    certified_vanishing_poly(grid(2, 5), 4)
    assert built == [25]
    built.clear()
    ps = pasted_grids(3, 2, 2, 4)
    out = extract_hyperplane(ps, 4)
    assert out.found and built == [len(ps), out.trace.second_points] and built[1] < len(ps)


@pytest.mark.parametrize("index", [16, -13])
def test_certified_rejects_an_invalid_index_before_counting(index):
    # the indices are checked before anything reads them: 16 once raised a
    # bare IndexError, and -13 was counted at point 3 first
    ps = grid(2, 4)
    lines = rich_lines(ps, 4)
    bad = [dataclasses.replace(lines[0], points=(0, 1, 2, index))] + lines[1:]
    with pytest.raises(ValueError, match=f"^line 0 references invalid point index {index}$"):
        certified_vanishing_poly(ps, 4, lines=bad)


def test_certified_requires_lines():
    ps = pointset_from([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    with pytest.raises(ValueError):
        certified_vanishing_poly(ps, 3)


def test_certified_bounded_mode_params():
    ps = grid(3, 3)
    f, cert = certified_vanishing_poly(ps, 3, mode="bounded")
    assert cert.mode == "bounded"
    assert cert.max_lines_per_point <= 8 * cert.min_lines_per_point
    assert cert.rank_bounds.rank_sum_ok


def test_hypothesis_constant_values():
    assert hypothesis_constant(1) == 64
    assert hypothesis_constant(2) == 512
    assert hypothesis_constant(3) == 6912


# -- flat / joint classification ---------------------------------------------


def test_classify_coordinate_planes():
    ps = coordinate_planes_config()
    lines = rich_lines(ps, 3)
    f = Polynomial(3, {(1, 1, 1): F(1)})  # x1 x2 x3
    report = classify_flat_points(ps, lines, f)
    for i, p in enumerate(ps.points):
        zeros = sum(1 for c in p if c == 0)
        if zeros >= 2:
            assert report.labels[i] == JOINT
            assert all(c == 0 for c in report.gradients[i])
        else:
            assert report.labels[i] == FLAT


def test_classify_flat_point_witness_contains_lines():
    ps = coordinate_planes_config()
    lines = rich_lines(ps, 3)
    f = Polynomial(3, {(1, 1, 1): F(1)})
    report = classify_flat_points(ps, lines, f)
    for i, normals in report.witness_normals.items():
        for normal in normals:
            plane = make_hyperplane(normal, sum(a * b for a, b in zip(ps.points[i], normal)))
            for line in lines:
                if i in line.points:
                    assert all(plane.contains(ps.points[j]) for j in line.points)


def test_classify_simple_flat_and_joint():
    # three axis lines through the origin in C^3
    pts = []
    for axis in range(3):
        for t in (-1, 1):
            p = [F(0)] * 3
            p[axis] = F(t)
            pts.append(tuple(p))
    pts.append((F(0), F(0), F(0)))
    ps = pointset_from(pts)
    lines = rich_lines(ps, 3)
    assert len(lines) == 3
    f = Polynomial(3, {(1, 1, 1): F(1)})
    report = classify_flat_points(ps, lines, f)
    origin = ps.points.index((F(0), F(0), F(0)))
    assert report.labels[origin] == JOINT
    assert report.gradients[origin] == (F(0), F(0), F(0))
    for i, p in enumerate(ps.points):
        if i != origin:
            assert report.labels[i] == FLAT


def test_classify_rejects_nonvanishing_polynomial():
    ps = grid(2, 3)
    lines = rich_lines(ps, 3)
    f = Polynomial(2, {(1, 0): F(1)})  # x1 does not vanish on rows
    with pytest.raises(ValueError):
        classify_flat_points(ps, lines, f)


def _first_column_and_its_form(gaussian):
    """grid(2, 4), or its Q(i) image, with the line through points 0..3 and
    the linear form that vanishes on it."""
    ps = gaussian_image(grid(2, 4)) if gaussian else grid(2, 4)
    (line,) = [L for L in rich_lines(ps, 4) if L.points == (0, 1, 2, 3)]
    (u0, u1), (b0, b1) = line.direction, line.base
    return ps, line, Polynomial(2, {(0, 0): u1 * b0 - u0 * b1, (1, 0): -u1, (0, 1): u0})


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Qi"])
@pytest.mark.parametrize(
    "points, message",
    [
        ((0, 1, 2, 16), "line 0 references invalid point index 16"),
        ((0, 1, 2, -13), "line 0 references invalid point index -13"),
        ((0, 1, 2, 5), "point 5 is not on line 0"),
        ((0, 0, 1, 2, 3), "repeated point in a collinear tuple"),
    ],
    ids=["16", "-13", "off-line", "repeated"],
)
def test_classify_validates_its_lines(gaussian, points, message):
    # these incidence lists were once read unchecked: 16 and -13 raised a bare
    # KeyError, (0, 1, 2, 5) counted point 5 on the line and point 3 on none,
    # and (0, 0, 1, 2, 3) counted point 0 twice
    ps, line, f = _first_column_and_its_form(gaussian)
    report = classify_flat_points(ps, [line], f)
    assert report.incident_counts == (1,) * 4 + (0,) * 12
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classify_flat_points(ps, [dataclasses.replace(line, points=points)], f)


# -- hyperplane extraction ---------------------------------------------------


def test_extract_pasted_grids_finds_full_copy():
    ps = pasted_grids(3, 2, 2, 4)
    out = extract_hyperplane(ps, 4)
    assert out.found
    assert len(out.subset) == 16
    assert out.hyperplane.normal == (F(0), F(0), F(1))
    # ties: the x3 = 1 copy, witnessed first by point 0
    assert out.hyperplane.offset == 1 and out.trace.chosen_point == 0
    best, _ = max_hyperplane_subset(ps)
    assert len(out.subset) == best
    assert out.trace.subset_floor_ok


def test_extract_planar_grid_returns_richest_line():
    ps = grid(2, 4)
    out = extract_hyperplane(ps, 4)
    assert out.found
    assert len(out.subset) == 4 == max_hyperplane_subset(ps)[0]
    # ties: the main diagonal x1 = x2 among the ten 4-point lines
    assert out.hyperplane == make_hyperplane((F(1), F(-1)), F(0))


def test_extract_general_position_absent():
    ps = pointset_from(
        [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(2), F(3)), (F(5), F(1))]
    )
    out = extract_hyperplane(ps, 3)
    assert not out.found
    assert out.trace.outcome == "no-rich-lines"


def test_extract_larger_grid_dies_honestly():
    # the heaviest degree band of grid(2,5) keeps the 16 off-diagonal points,
    # and no polynomial of the clamped degree budget vanishes on them (the
    # zero-count bound caps a conic at 10 grid zeros), so the run reports
    # exactly where it died instead of inventing a hyperplane
    out = extract_hyperplane(grid(2, 5), 5)
    assert not out.found
    assert out.trace.outcome == "no-vanishing-polynomial"
    assert out.trace.clamped
    assert out.trace.second_points == 16


def test_extract_trace_records_stages():
    ps = pasted_grids(3, 2, 2, 4)
    out = extract_hyperplane(ps, 4)
    tr = out.trace
    assert tr.line_count == 20
    assert tr.incidence_count == 80
    assert tr.base_degree_floor == F(80, 128)
    assert tr.band_witness_ok
    assert tr.clamped and tr.rich_floor == 4
    assert tr.subset_size == 16
    assert not tr.guaranteed_regime


def test_extract_custom_constants_regime_flag():
    ps = grid(2, 3)
    generous = PipelineConstants(F(1, 1000000), F(1, 1000000))
    out = extract_hyperplane(ps, 3, constants=generous)
    assert out.trace.guaranteed_regime  # tiny constant: hypothesis now "met"


def test_extract_gaussian_sheared_configuration():
    # an invertible complex shear preserves the incidence structure, so the
    # pipeline must still find a full 16-point planar copy over Q(i)
    from richlines.scalars import GaussianRational

    i = GaussianRational(F(0), F(1))
    base = pasted_grids(3, 2, 2, 4)
    sheared = pointset_from(
        [(p[0] + i * p[2], p[1] + 2 * p[2], p[2]) for p in base.points]
    )
    assert sheared.field == "Qi"
    out = extract_hyperplane(sheared, 4)
    assert out.found
    assert len(out.subset) == 16
    assert all(sheared.points[j][2] == out.hyperplane.offset for j in out.subset)


# -- product hyperplane descent ----------------------------------------------


def test_product_descent_identity_when_ell_is_one():
    ps = pointset_from([(F(1),), (F(2),), (F(3),)])
    plane = make_hyperplane((F(2),), F(4))
    projected, subset = hyperplane_from_product(plane, ps, 1)
    assert projected.normal == (F(1),)
    assert subset == (1,)


def test_product_descent_diagonal_plane():
    ps = pointset_from([(F(1),), (F(2),), (F(3),)])
    plane = make_hyperplane((F(1), F(1)), F(4))  # x1 + x2 = 4 hits 3 of 9
    projected, subset = hyperplane_from_product(plane, ps, 2)
    assert len(subset) == 1
    assert 3 * len(subset) >= 3  # delta n with delta = 3/9


def test_product_descent_block_structure():
    ps = pointset_from([(F(1), F(0)), (F(2), F(0)), (F(2), F(1))])
    plane = make_hyperplane((F(1), F(0), F(0), F(0)), F(2))  # x1 = 2 in C^4
    projected, subset = hyperplane_from_product(plane, ps, 2)
    assert projected.normal == (F(1), F(0))
    assert projected.offset == F(2)
    assert subset == (1, 2)


def test_product_descent_second_block_pivot():
    ps = pointset_from([(F(1),), (F(2),)])
    plane = make_hyperplane((F(0), F(1)), F(2))  # depends only on factor 2
    projected, subset = hyperplane_from_product(plane, ps, 2)
    assert subset == (1,)


@pytest.mark.parametrize("ell", [1, 2])
def test_product_descent_rejects_disjoint_plane(ell):
    ps = pointset_from([(F(1),), (F(2),)])
    plane = make_hyperplane((F(1),) * ell, F(100))
    with pytest.raises(ValueError, match="misses the whole product"):
        hyperplane_from_product(plane, ps, ell)


def test_product_descent_density_guarantee_randomized(rng):
    from richlines.pointsets import cartesian_power

    for _ in range(15):
        n = rng.randint(3, 7)
        pts = sorted({(F(rng.randint(0, 6)),) for _ in range(n)})
        ps = pointset_from(pts)
        n = len(ps)
        square = cartesian_power(ps, 2)
        anchor = square.points[rng.randrange(len(square))]
        normal = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        if all(c == 0 for c in normal):
            continue
        offset = sum(a * b for a, b in zip(anchor, normal))
        plane = make_hyperplane(normal, offset)
        hits = sum(1 for p in square.points if plane.contains(p))
        _, subset = hyperplane_from_product(plane, ps, 2)
        assert len(subset) * n >= hits


# -- progression pipeline ----------------------------------------------------


def test_ap_pipeline_grid():
    ps = grid(2, 4)
    out = ap_hyperplane(ps, 4, 1)
    assert out.found
    assert len(out.subset) >= 4
    assert len(out.subset) <= max_hyperplane_subset(ps)[0]
    assert out.trace.ap_count == 10
    assert out.trace.injective


def test_ap_pipeline_no_progressions():
    ps = pointset_from([(F(0), F(0)), (F(1), F(0)), (F(5), F(7)), (F(2), F(9))])
    out = ap_hyperplane(ps, 4, 1)
    assert not out.found
    assert out.trace.outcome == "no-progressions"


def test_ap_pipeline_slice_consistency():
    ps = grid(2, 4)
    out = ap_hyperplane(ps, 4, 1)
    tr = out.trace
    assert tr.slice_index in range(4)
    assert tr.slice_counts[tr.slice_index] == max(tr.slice_counts.values())
    assert tr.product_density is not None and tr.product_density > 0


def test_ap_pipeline_gaussian_matches_rational():
    # slices are read off lifted indices, never by converting a Q(i) scalar
    from richlines.scalars import GaussianRational

    gauss = pointset_from([(GaussianRational(F(2 * i + 1, 3), F(i)),) for i in range(5)])
    rat = pointset_from([(F(2 * i + 1, 3),) for i in range(5)])
    out_g, out_q = ap_hyperplane(gauss, 4, 2), ap_hyperplane(rat, 4, 2)
    assert out_g.trace.outcome == out_q.trace.outcome == "hyperplane"
    assert out_g.trace.slice_counts == out_q.trace.slice_counts
    assert out_g.subset == out_q.subset


def test_ap_pipeline_requires_r_at_least_4():
    with pytest.raises(ValueError):
        ap_hyperplane(grid(2, 3), 3, 1)


def test_sumproduct_family_leading_form_zeros():
    # a vanishing polynomial that kills every family line must have its
    # leading form vanish at each line's direction, and the slice zero
    # count stays within the degree bound
    from richlines.pointsets import sumproduct_config
    from richlines.veronese import schwartz_zippel_count

    ps, family = sumproduct_config([1], [0, 1, 2, 3], 2)
    f, cert = certified_vanishing_poly(ps, 4, lines=family)
    assert cert.rank_deficient and f is not None
    top = f.homogeneous_part()
    for line in family:
        coeffs = restrict_to_line(f, line.base, line.direction)
        assert all(c == 0 for c in coeffs)
        assert top.evaluate(line.direction) == 0
    slopes = [F(1)]
    count = schwartz_zippel_count(top, slopes, homogeneous_slice=True)
    assert count <= top.degree()


def test_ap_pipeline_square_power():
    # V in C^1 with ell=2: the final hyperplane degenerates to a point of C^1
    ps = pointset_from([(F(i),) for i in range(1, 5)])
    out = ap_hyperplane(ps, 4, 2)
    assert out.trace.ap_count >= 1
    if out.found:
        assert len(out.subset) >= 1
        assert len(out.hyperplane.normal) == 1
