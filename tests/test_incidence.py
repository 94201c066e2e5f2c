import dataclasses
import itertools
from fractions import Fraction
from math import lcm

import pytest

from conftest import gaussian_image, random_half_integer_pointset, random_integer_pointset
from test_gaussian_incidence import gaussian_sets
from richlines.geometry import (
    Line,
    canonical_line,
    dot,
    make_hyperplane,
    vsub,
)
from richlines import incidence
from richlines.harness import ExperimentConfig, run_experiment
from richlines.incidence import (
    _gaussian_pair_key,
    _group_pairs_int_2d,
    _int_pair_key,
    _line_from_int_key,
    count_aps,
    incidences,
    lift_progressions,
    max_hyperplane_subset,
    rich_lines,
)
from richlines.linalg import right_nullspace
from richlines.oracle import (
    ap_count_oracle,
    collinear_groups,
    direction_groups,
    rich_lines_match_oracle,
)
from richlines.pointsets import (
    PointSet,
    cartesian_power,
    grid,
    pointset_from,
)
from richlines.scalars import FIELD_GAUSSIAN, GaussianRational, format_scalar
from richlines.vanishing import extract_hyperplane

F = Fraction


# -- canonical lines ---------------------------------------------------------


def test_canonical_line_diagonal():
    L = canonical_line((F(0), F(0)), (F(2), F(2)))
    assert L.direction == (F(1), F(1))
    assert L.base == (F(0), F(0))


def test_canonical_line_vertical():
    L = canonical_line((F(0), F(3)), (F(0), F(5)))
    assert L.direction == (F(0), F(1))
    assert L.base == (F(0), F(0))


def test_canonical_line_fractional_base():
    L = canonical_line((F(1), F(1)), (F(3), F(2)))
    assert L.direction == (F(1), F(1, 2))
    assert L.base == (F(0), F(1, 2))


def test_canonical_line_symmetric():
    p, q = (F(2), F(7)), (F(-1), F(3))
    assert canonical_line(p, q) == canonical_line(q, p)


def test_canonical_line_identical_points():
    with pytest.raises(ValueError):
        canonical_line((F(1), F(1)), (F(1), F(1)))


def test_line_equality_ignores_incidence_lists():
    a = Line((F(1), F(0)), (F(0), F(1)), (1, 2))
    b = Line((F(1), F(0)), (F(0), F(1)), (5,))
    assert a == b and hash(a) == hash(b)


def test_collinear_predicate():
    line = canonical_line((F(0), F(0)), (F(1), F(1)))
    assert line.contains((F(5), F(5)))
    assert not line.contains((F(1), F(2)))


from hypothesis import given, settings
from hypothesis import strategies as st

coords = st.fractions(min_value=-8, max_value=8, max_denominator=8)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.data(),
)
def test_any_point_pair_regenerates_the_canonical_line(d, data):
    base = tuple(data.draw(coords) for _ in range(d))
    direction = tuple(data.draw(coords) for _ in range(d))
    if all(c == 0 for c in direction):
        direction = (F(1),) + direction[1:]
    params = data.draw(
        st.lists(
            st.fractions(max_denominator=6), min_size=3, max_size=5, unique=True
        )
    )
    pts = [tuple(b + t * u for b, u in zip(base, direction)) for t in params]
    reference = canonical_line(pts[0], pts[1])
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            line = canonical_line(pts[a], pts[b])
            assert line == reference
            assert line.contains(pts[a]) and line.contains(pts[b])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_lines_cover_every_pair_exactly_once(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    raw = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    ps = pointset_from([(F(a), F(b)) for a, b in raw])
    lines = rich_lines(ps, 2)
    pair_hits = {}
    for L in lines:
        for x in range(len(L.points)):
            for y in range(x + 1, len(L.points)):
                key = (L.points[x], L.points[y])
                pair_hits[key] = pair_hits.get(key, 0) + 1
    n = len(ps)
    assert len(pair_hits) == n * (n - 1) // 2
    assert all(v == 1 for v in pair_hits.values())


# -- integer model -----------------------------------------------------------


def random_rational_image(rng, d: int, n: int, span: int):
    """A random integer set under a random per-axis rational affine map."""
    ps = random_integer_pointset(rng, d, n, span)
    scale = [F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 8)) for _ in range(d)]
    shift = [F(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(d)]
    return pointset_from(
        [tuple(a * c + b for a, c, b in zip(scale, p, shift)) for p in ps.points]
    )


rational_points = st.integers(min_value=2, max_value=3).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=8)] * d),
        min_size=2,
        max_size=12,
        unique=True,
    )
)


@settings(max_examples=100, deadline=None)
@given(rational_points)
def test_integer_coords_is_a_per_axis_scaling(raw):
    ps = pointset_from(raw)
    ints, scales, gaussian = ps.integer_image
    assert not gaussian
    assert all(isinstance(c, int) for p in ints for c in p)
    for p, q in zip(ints, ps.points):
        for a in range(ps.dim):
            assert F(p[a], scales[a]) == q[a]


gaussian_points = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.builds(GaussianRational, coords, coords)] * d),
        min_size=1,
        max_size=12,
        unique=True,
    )
)


@settings(max_examples=100, deadline=None)
@given(gaussian_points)
def test_integer_coords_is_a_per_axis_scaling_over_gaussian(raw):
    # realified (re_0, im_0, re_1, ...) with both parts of axis a scaled by
    # the lcm s_a of their denominators, the scales repeated to match
    ps = pointset_from(raw, FIELD_GAUSSIAN)
    ints, scales, gaussian = ps.integer_image
    assert gaussian
    assert all(isinstance(c, int) for p in ints for c in p)
    for a in range(ps.dim):
        parts = [x for q in ps.points for x in (q[a].re, q[a].im)]
        assert scales[2 * a] == scales[2 * a + 1] == lcm(*(x.denominator for x in parts))
    for p, q in zip(ints, ps.points):
        for a in range(ps.dim):
            assert F(p[2 * a], scales[2 * a]) == q[a].re
            assert F(p[2 * a + 1], scales[2 * a + 1]) == q[a].im


@settings(max_examples=100, deadline=None)
@given(rational_points, st.integers(min_value=2, max_value=3))
def test_rich_lines_decode_to_canonical_lines(raw, r):
    ps = pointset_from(raw)
    lines = rich_lines(ps, r)
    assert len(set(lines)) == len(lines)
    for line in lines:
        ref = canonical_line(ps.points[line.points[0]], ps.points[line.points[1]])
        assert line.direction == ref.direction and line.base == ref.base
        assert all(line.contains(ps.points[k]) for k in line.points)


# -- rich lines --------------------------------------------------------------


def test_grid_3x3_has_8_triple_rich_lines():
    lines = rich_lines(grid(2, 3), 3)
    assert len(lines) == 8
    assert all(len(L.points) == 3 for L in lines)


def test_collinear_points_give_single_line():
    ps = pointset_from([(F(i), F(2 * i + 1)) for i in range(7)])
    for r in (2, 3, 7):
        lines = rich_lines(ps, r)
        assert len(lines) == 1
        assert lines[0].points == tuple(range(7))


def test_three_noncollinear_points_no_triple_line():
    ps = pointset_from([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    assert rich_lines(ps, 3) == []
    assert len(rich_lines(ps, 2)) == 3


def test_rich_lines_general_rational_coordinates():
    # same picture as grid(2,3), squeezed by 1/2 in x and 1/3 in y
    pts = [(F(a, 2), F(b, 3)) for a in range(1, 4) for b in range(1, 4)]
    lines = rich_lines(pointset_from(pts), 3)
    assert len(lines) == 8


def test_rich_lines_gaussian_coordinates():
    i = GaussianRational(F(0), F(1))
    one = GaussianRational(F(1), F(0))
    pts = [tuple([one * t, i * t]) for t in range(4)]
    ps = pointset_from(pts)
    lines = rich_lines(ps, 4)
    assert len(lines) == 1
    assert lines[0].points == (0, 1, 2, 3)


def test_rich_lines_match_oracle_on_random_sets(rng):
    makers = (random_integer_pointset, random_half_integer_pointset, random_rational_image)
    for trial in range(12):
        d = 2 if trial % 2 == 0 else 3
        ps = makers[trial % 3](rng, d, 25, span=5)
        assert rich_lines_match_oracle(ps, 3)


def test_oracle_groups_are_maximal():
    ps = grid(2, 4)
    for group in collinear_groups(ps, 3):
        idx = sorted(group)
        line = canonical_line(ps.points[idx[0]], ps.points[idx[1]])
        members = {i for i, p in enumerate(ps.points) if line.contains(p)}
        assert members == set(group)


def test_every_point_pair_on_at_most_one_line():
    lines = rich_lines(grid(2, 5), 3)
    seen = set()
    for L in lines:
        for a_i in range(len(L.points)):
            for b_i in range(a_i + 1, len(L.points)):
                pair = (L.points[a_i], L.points[b_i])
                assert pair not in seen
                seen.add(pair)


# -- incidence graphs --------------------------------------------------------


def test_incidences_grid_3x3():
    ps = grid(2, 3)
    graph = incidences(ps, rich_lines(ps, 3))
    assert graph.edge_count == 24


def test_incidences_empty_line_list():
    graph = incidences(grid(2, 2), [])
    assert graph.edge_count == 0
    assert graph.right == ()


def test_incidences_single_line():
    ps = pointset_from([(F(i), F(0)) for i in range(5)])
    lines = rich_lines(ps, 5)
    graph = incidences(ps, lines)
    assert graph.edge_count == 5


def test_incidences_rejects_bogus_membership():
    ps = grid(2, 2)
    fake = Line((F(1), F(0)), (F(0), F(1)), (0, 3))
    with pytest.raises(ValueError):
        incidences(ps, [fake])


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Qi"])
def test_incidences_reject_a_repeated_index(gaussian):
    # a repeated index was once counted twice: 41 edges instead of 40 on
    # grid(2, 4), and extract_hyperplane reported incidence_count 41
    ps = gaussian_image(grid(2, 4)) if gaussian else grid(2, 4)
    lines = rich_lines(ps, 4)
    assert incidences(ps, lines).edge_count == 40
    bad = [dataclasses.replace(lines[0], points=(0, 0, 1, 2, 3))] + lines[1:]
    for call in (incidences, lambda ps, lines: extract_hyperplane(ps, 4, lines=lines)):
        with pytest.raises(ValueError, match="^repeated point in a collinear tuple$"):
            call(ps, bad)


def test_r_rich_lines_carry_r_incidences():
    ps = grid(2, 4)
    for r in (3, 4):
        lines = rich_lines(ps, r)
        graph = incidences(ps, lines)
        assert graph.edge_count >= r * len(lines)


# -- arithmetic progressions -------------------------------------------------


def test_count_aps_basic():
    assert count_aps(pointset_from([(F(1),), (F(2),), (F(3),)]), 3)[0] == 1
    assert count_aps(pointset_from([(F(1),), (F(2),), (F(4),)]), 3)[0] == 0
    assert count_aps(pointset_from([(F(i),) for i in range(1, 5)]), 3)[0] == 2


def test_count_aps_interval():
    ps = pointset_from([(F(i),) for i in range(1, 11)])
    count, records = count_aps(ps, 3)
    assert count == 20
    assert count == ap_count_oracle(ps, 3)
    assert all(rec.length == 3 for rec in records)


def test_count_aps_matches_oracle_2d(rng):
    makers = (random_integer_pointset, random_half_integer_pointset, random_rational_image)
    for trial in range(12):
        d = 2 if trial % 2 == 0 else 3
        ps = makers[trial % 3](rng, d, 14, span=4)
        members = set(ps.points)
        for r in (3, 4):
            count, records = count_aps(ps, r)
            assert count == ap_count_oracle(ps, r)
            assert all(set(rec.terms()) <= members for rec in records)


def test_count_aps_pairs():
    ps = grid(2, 3)
    assert count_aps(ps, 2)[0] == 9 * 8 // 2


def test_count_aps_monotone_in_length():
    ps = grid(2, 4)
    counts = [count_aps(ps, r)[0] for r in (2, 3, 4, 5)]
    assert counts == sorted(counts, reverse=True)


def test_ap_terms_are_distinct_and_present():
    ps = grid(1, 6)
    _, records = count_aps(ps, 3)
    members = set(ps.points)
    for rec in records:
        terms = list(rec.terms())
        assert len(set(terms)) == 3
        assert all(t in members for t in terms)


def test_ap_product_supermultiplicative(rng):
    for _ in range(5):
        ps = random_integer_pointset(rng, 1, 8, span=9)
        sq = cartesian_power(ps, 2)
        for r in (3, 4):
            assert count_aps(sq, r)[0] >= count_aps(ps, r)[0] ** 2


def test_ap_lift_bound_and_injectivity(rng):
    for _ in range(5):
        ps = random_integer_pointset(rng, 2, 10, span=4)
        r = 3
        ap, _ = count_aps(ps, r)
        lifted, records, lines = lift_progressions(ps, r)
        assert len({(L.direction, L.base) for L in lines}) == len(records)
        assert all(len(L.points) == r for L in lines)
        assert ap <= len(rich_lines(lifted, r))


# -- hyperplane statistics ---------------------------------------------------


def test_max_hyperplane_grid():
    count, plane = max_hyperplane_subset(grid(2, 3))
    assert count == 3
    assert sum(1 for p in grid(2, 3).points if plane.contains(p)) == 3
    # ties: the first spanned of the ten 4-point lines of grid(2,4)
    assert max_hyperplane_subset(grid(2, 4)) == (4, make_hyperplane((F(1), F(0)), F(1)))
    # y = 0 is spanned first, by (1,0),(0,0), whose normal points the other
    # way from that of its later pairs with (2,0); x = 1 ties it after that
    pts = [(F(1), F(0)), (F(0), F(0)), (F(1), F(1)), (F(1), F(2)), (F(2), F(0))]
    assert max_hyperplane_subset(pointset_from(pts)) == (3, make_hyperplane((F(0), F(1)), F(0)))


def rref_hyperplane_through(points):
    """Reference hyperplane through d points of C^d by an RREF kernel of the
    rows p_k - p_0, or None if the points are affinely dependent."""
    rows = [vsub(p, points[0]) for p in points[1:]]
    kernel = right_nullspace(rows, len(points[0]))
    if len(kernel) != 1:
        return None
    normal = kernel[0]
    return make_hyperplane(normal, dot(points[0], normal))


def scan_max_hyperplane(ps):
    """Reference plane search: every spanning d-subset, each new plane
    recounted against all of V, the first strict maximum kept."""
    d, pts = ps.dim, ps.points
    best, seen = None, set()
    for combo in itertools.combinations(range(len(pts)), d):
        plane = rref_hyperplane_through([pts[i] for i in combo])
        if plane is None or plane in seen:
            continue
        seen.add(plane)
        count = sum(1 for p in pts if plane.contains(p))
        if best is None or count > best[0]:
            best = (count, plane)
    if best is None:
        normal = right_nullspace([vsub(p, pts[0]) for p in pts[1:]], d)[0]
        best = (len(pts), make_hyperplane(normal, dot(pts[0], normal)))
    return best


@st.composite
def plane_search_inputs(draw):
    """Integer, half-integer, rational-image, Q(i)-image, Cartesian-power and
    degenerate sets in d = 2, 3, 4 (n <= 20, and n <= 10 for d = 4)."""
    kinds = ["integer", "half", "rational", "gaussian", "power", "line", "point"]
    kind = draw(st.sampled_from(kinds))
    d = 3 if kind == "line" else draw(st.integers(min_value=2, max_value=4))
    small = st.integers(min_value=-3, max_value=3)
    if kind == "point":
        return pointset_from([tuple(F(draw(small)) for _ in range(d))])
    if kind == "line":
        base = [F(draw(small)) for _ in range(d)]
        u = draw(st.tuples(small, small, small).filter(any))
        ts = draw(st.lists(small, min_size=2, max_size=7, unique=True))
        return pointset_from([tuple(b + t * c for b, c in zip(base, u)) for t in ts])
    if kind == "power":
        # V^ell for a base V in C^1 or C^2, at most 20 points (9 when d = 4)
        d0, ell, size = draw(st.sampled_from([(1, 2, 4), (1, 3, 2), (2, 2, 3)]))
        coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        base = draw(
            st.lists(st.tuples(*[coord] * d0), min_size=1, max_size=size, unique=True)
        )
        return cartesian_power(pointset_from(base), ell)
    span = 6 if kind == "half" else 4
    n = draw(st.integers(min_value=1, max_value=20 if d < 4 else 10))
    raw = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=span)] * d),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    pts = [tuple(F(c, 2 if kind == "half" else 1) for c in p) for p in raw]
    if kind in ("rational", "gaussian"):
        # x -> A x + b with A upper triangular and invertible
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        if kind == "gaussian":
            entry = st.builds(GaussianRational, entry, entry)
        diag = entry.filter(lambda c: c != 0)
        A = [
            [draw(diag) if j == i else draw(entry) if j > i else 0 for j in range(d)]
            for i in range(d)
        ]
        b = [draw(entry) for _ in range(d)]
        pts = [
            tuple(sum((A[i][j] * p[j] for j in range(d)), b[i]) for i in range(d))
            for p in pts
        ]
    return pointset_from(pts)


@settings(max_examples=150, deadline=None)
@given(plane_search_inputs())
def test_max_hyperplane_matches_exhaustive_scan(ps):
    assert max_hyperplane_subset(ps) == scan_max_hyperplane(ps)


def test_max_hyperplane_general_position_3d():
    ps = pointset_from(
        [
            (F(0), F(0), F(0)),
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
            (F(1), F(2), F(4)),
            (F(3), F(9), F(5)),
        ]
    )
    count, _ = max_hyperplane_subset(ps)
    # no 4 of these points are coplanar
    assert count == 3


def test_max_hyperplane_flat_configuration():
    pts = [(F(0), F(a), F(b)) for a in range(3) for b in range(3)]
    ps = pointset_from(pts)
    count, plane = max_hyperplane_subset(ps)
    assert count == 9
    assert plane.normal == (F(1), F(0), F(0))


def test_max_hyperplane_degenerate_collinear():
    ps = pointset_from([(F(t), F(t), F(t)) for t in range(4)])
    count, plane = max_hyperplane_subset(ps)
    assert count == 4
    assert all(plane.contains(p) for p in ps.points)


@st.composite
def degenerate_inputs(draw):
    """Sets whose affine span has dimension <= d - 2, over Q or Q(i), d = 2..5."""
    gaussian = draw(st.booleans())
    d = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=0, max_value=d - 2))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if gaussian:
        entry = st.builds(GaussianRational, entry, entry)
    base = [draw(entry) for _ in range(d)]
    dirs = [[draw(entry) for _ in range(d)] for _ in range(k)]
    coefs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=1, max_size=6))
    pts = [
        tuple(base[a] + sum(c * u[a] for c, u in zip(cs, dirs)) for a in range(d))
        for cs in coefs
    ]
    return pointset_from(list(dict.fromkeys(pts)), FIELD_GAUSSIAN if gaussian else None)


@settings(max_examples=150, deadline=None)
@given(degenerate_inputs())
def test_degenerate_plane_normal_is_the_first_rref_kernel_vector(ps):
    pts = ps.points
    normal = right_nullspace([vsub(p, pts[0]) for p in pts[1:]], ps.dim)[0]
    want = make_hyperplane(normal, dot(pts[0], normal))
    count, plane = max_hyperplane_subset(ps)
    assert count == len(pts)
    as_bytes = lambda h: [format_scalar(c) for c in (*h.normal, h.offset)]
    assert as_bytes(plane) == as_bytes(want)


def test_max_hyperplane_rejects_an_empty_set():
    # only pointset_from rejects empty input; a bare PointSet reached the
    # plane search and raised IndexError
    for d in (1, 2, 3):
        with pytest.raises(ValueError, match="^empty point set$"):
            max_hyperplane_subset(PointSet(d, "Q", ()))


# -- the line family ---------------------------------------------------------


def pair_grouping_rich_lines(ps, r):
    """Reference enumerator: every point pair grouped by its line key on the
    integer image, per call, each r-rich group decoded from its key."""
    d, n = ps.dim, len(ps)
    pts, scales, gaussian = ps.integer_image
    groups = {}
    if d == 2 and not gaussian:
        _group_pairs_int_2d(pts, groups)
        # the planar key (dx, dy, x dy - y dx) as (prim, inv)
        groups = {
            ((dx, dy, 0, -cross) if dx else (0, dy, cross, 0)): m
            for (dx, dy, cross), m in groups.items()
        }
    else:
        key_fn = _gaussian_pair_key if gaussian else _int_pair_key
        for i in range(n):
            for j in range(i + 1, n):
                groups.setdefault(key_fn(pts[i], pts[j], d), []).extend((i, j))
    out = []
    for key, members in groups.items():
        idx = sorted(set(members))
        if len(idx) >= r:
            out.append(_line_from_int_key(key, scales, idx, gaussian))
    out.sort(key=lambda L: L.points)
    return out


family_inputs = st.one_of(
    plane_search_inputs(),
    gaussian_sets(max_points=16),
    st.sampled_from([(1, 7), (2, 4), (3, 3), (4, 2)]).map(lambda dh: grid(*dh)),
    st.sampled_from([(1, 3), (2, 2), (3, 2)]).map(
        lambda ne: cartesian_power(pointset_from([(F(0),), (F(1),), (F(3),)][: ne[0]]), ne[1])
    ),
)


def _as_values(lines):
    return [(L.direction, L.base, L.points, [type(c) for c in L.direction + L.base])
            for L in lines]


@settings(max_examples=150, deadline=None)
@given(family_inputs)
def test_rich_lines_filter_the_family_like_a_fresh_grouping(ps):
    for r in (2, 3, 4, 5):
        assert _as_values(rich_lines(ps, r)) == _as_values(pair_grouping_rich_lines(ps, r))
    assert all(len(idx) >= 3 and list(idx) == sorted(idx) for idx in ps.line_family)
    assert list(ps.line_family) == sorted(ps.line_family)


def _count_builds(monkeypatch):
    builds = []
    build = incidence._line_family

    def counted(ps):
        builds.append(ps)
        return build(ps)

    monkeypatch.setattr(incidence, "_line_family", counted)
    return builds


def test_one_grouping_per_point_set_in_a_sweep(monkeypatch):
    # every r's lines, the progressions, the plane search and the audit of a
    # row set read one family; per-call grouping ran 6 times per set here
    builds = _count_builds(monkeypatch)
    cfg = ExperimentConfig.from_dict({
        "generator": {"kind": "grid", "d": 2, "h": [3, 4, 5]},
        "r_values": [3, 4],
        "pipelines": ["progressions"],
    })
    report = run_experiment(cfg)
    assert report["ok"] and all(row["oracle_audit"] for row in report["rows"])
    assert [len(ps) for ps in builds] == [9, 16, 25]


def test_equal_sets_and_subsets_build_their_own_family(monkeypatch):
    builds = _count_builds(monkeypatch)
    a, b = grid(2, 4), grid(2, 4)
    assert a == b
    for ps, r in ((a, 3), (a, 4), (b, 3)):
        rich_lines(ps, r)
    assert builds == [a, b] and builds[0] is a and builds[1] is b
    sub = a.subset(range(5))
    assert _as_values(rich_lines(sub, 2)) == _as_values(pair_grouping_rich_lines(sub, 2))
    assert len(builds) == 3 and builds[2] is sub
    assert sub.line_family != a.line_family


# -- the audit's reference ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(family_inputs, st.integers(min_value=2, max_value=5))
def test_direction_groups_match_the_cubic_oracle(ps, r):
    assert direction_groups(ps, r) == collinear_groups(ps, r)


_PLANAR = [(0, 0), (-2, -4), (4, 8), (-1, -2), (1, -2), (2, -4), (3, 1)]


@pytest.mark.parametrize("raw, rich", [
    # d = 1: one line, leads of both signs
    ([(0,), (3,), (-2,), (5,)], [{0, 1, 2, 3}]),
    # d = 2: leads -2, 4 and -1 along (1, 2) and 1, 2 along (1, -2), each
    # sharing its gcd with the entry after it
    (_PLANAR, [{0, 1, 2, 3}, {0, 4, 5}]),
    # the same set under (x, y) -> (x / 2, -y / 3): a rational image
    ([(F(x, 2), F(-y, 3)) for x, y in _PLANAR], [{0, 1, 2, 3}, {0, 4, 5}]),
    # d = 3: the lead in the second coordinate, -3 from the first point
    ([(1, 0, 0), (1, -3, 6), (1, 3, -6), (1, 6, -12), (0, 0, 0), (2, 0, 0)],
     [{0, 1, 2, 3}, {0, 4, 5}]),
    # d = 4: leads -6, 3 and 9 with entries sharing 2 or 3 with them
    ([(0, 0, 0, 0), (-6, 4, -2, 10), (3, -2, 1, -5), (9, -6, 3, -15), (0, 0, 0, 1),
      (0, 0, 0, -2)], [{0, 1, 2, 3}, {0, 4, 5}]),
])
def test_direction_groups_on_negative_and_shared_gcd_leads(raw, rich):
    ps = pointset_from([tuple(F(c) for c in p) for p in raw])
    groups = direction_groups(ps, 2)
    assert groups == collinear_groups(ps, 2)
    assert {g for g in groups if len(g) > 2} == {frozenset(g) for g in rich}
    assert direction_groups(ps, 3) == {frozenset(g) for g in rich}


def _drop_point(lines):
    return [dataclasses.replace(lines[0], points=lines[0].points[:-1])] + lines[1:]


def _split_line(lines):
    p = lines[0].points
    halves = [dataclasses.replace(lines[0], points=p[:2]), dataclasses.replace(lines[0], points=p[2:])]
    return halves + lines[1:]


def _repeat_line(lines):
    return lines + lines[:1]


def _stray_group(lines):
    # points 0, 1 and 4 of grid(2, 4) are (1, 1), (1, 2) and (2, 1)
    return lines + [dataclasses.replace(lines[0], points=(0, 1, 4))]


@pytest.mark.parametrize("mutate", [_drop_point, _split_line, _repeat_line, _stray_group])
def test_sweep_audit_catches_a_wrong_line_family(monkeypatch, mutate):
    fast = incidence.rich_lines
    monkeypatch.setattr(incidence, "rich_lines", lambda ps, r: mutate(fast(ps, r)))
    cfg = ExperimentConfig.from_dict({"generator": {"kind": "grid", "d": 2, "h": 4}, "r_values": [3]})
    report = run_experiment(cfg)
    assert report["rows"][0]["oracle_audit"] is False
    assert report["violations"] == ["oracle mismatch at n=16 r=3"]
    assert not report["ok"]
