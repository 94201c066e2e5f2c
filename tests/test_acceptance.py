"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact unless stated otherwise inline.
"""

import time
from fractions import Fraction
from random import Random

from conftest import (
    circle_points,
    coordinate_planes_config,
    random_half_integer_pointset,
    random_integer_pointset,
)
from richlines.designs import assemble_design, rank_bound_report
from richlines.harness import (
    check_collinear_images,
    check_lift_and_products,
    check_product_hyperplanes,
    check_rank_bounds,
    check_refinement,
    check_zero_counts,
    loglog_slope,
)
from richlines.incidence import count_aps, max_hyperplane_subset, rich_lines
from richlines.oracle import ap_count_oracle, collinear_groups
from richlines.pointsets import grid, pasted_grids, pointset_from, sumproduct_config
from richlines.vanishing import FLAT, JOINT, classify_flat_points, extract_hyperplane, find_vanishing_poly
from richlines.veronese import Polynomial, veronese_matrix

F = Fraction


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _oracle_equal(ps, r) -> bool:
    fast = {frozenset(line.points) for line in rich_lines(ps, r)}
    return fast == collinear_groups(ps, r)


def test_criterion_01_rich_line_oracle_equivalence():
    start = time.monotonic()
    rng = Random(0)
    checked = 0
    ok = True
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 3
        n = rng.randint(10, 60)
        if trial % 10 == 9:
            ps = random_half_integer_pointset(rng, d, n, span=7)
        else:
            ps = random_integer_pointset(rng, d, n, span=rng.randint(4, 9))
        ok = ok and _oracle_equal(ps, 3)
        checked += 1
    for d in (2, 3):
        for h in range(1, 7):
            ok = ok and _oracle_equal(grid(d, h), 3)
            checked += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30
    report(
        "criterion-01 rich-line oracle equivalence",
        ok,
        f"{checked} configurations, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_grid_counts_and_slope():
    ok = len(rich_lines(grid(2, 3), 3)) == 8
    g10 = grid(2, 10)
    groups = collinear_groups(g10, 3)
    for r in (3, 4, 5):
        fast = {frozenset(line.points) for line in rich_lines(g10, r)}
        ok = ok and fast == {g for g in groups if len(g) >= r}
    sizes, counts = [], []
    for h in (10, 20, 30):
        ps = grid(2, h)
        sizes.append(len(ps))
        counts.append(len(rich_lines(ps, 3)))
    slope = loglog_slope(sizes, counts)
    ok = ok and slope is not None and 1.7 <= slope <= 2.3
    report(
        "criterion-02 grid counts",
        ok,
        f"|L_3(grid(2,3))|=8, grid(2,10) audited at r=3,4,5, slope={slope:.3f} in [1.7,2.3]",
    )


def test_criterion_03_collinear_image_ranks():
    start = time.monotonic()
    ok, detail = check_collinear_images(seed=0, samples=100)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report(
        "criterion-03 collinear image ranks",
        ok,
        f"{detail}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_04_design_matrix_suite():
    ok = True
    details = []
    for d, h in ((2, 4), (3, 3)):
        ps = grid(d, h)
        lines = rich_lines(ps, 3)
        A, _ = assemble_design(ps, lines, 3)
        M = veronese_matrix(ps, 1)
        ok = ok and A.product_with(M).is_zero()
        ok = ok and A.q <= 3 and A.t <= 2
        pair_mult = {}
        for blocks in A.cover.per_line:
            for block in blocks:
                for x in range(len(block)):
                    for y in range(x + 1, len(block)):
                        key = (block[x], block[y])
                        pair_mult[key] = pair_mult.get(key, 0) + 1
        ok = ok and all(v <= 2 for v in pair_mult.values())
        rep = rank_bound_report(A, M.rank())
        ok = ok and rep.all_hold
        details.append(f"grid({d},{h}): rank {rep.rank}, (q,k,t)=({A.q},{A.k},{A.t})")
    gen_ok, gen_detail = check_rank_bounds(seed=0, samples=100)
    ok = ok and gen_ok
    report(
        "criterion-04 design matrices",
        ok,
        "; ".join(details) + f"; {gen_detail}",
    )


def test_criterion_05_refinement_suite():
    ok, detail = check_refinement(seed=0, samples=500)
    report("criterion-05 refinement", ok, detail)


def test_criterion_06_circle_vanishing_polynomial():
    ps = circle_points()
    kernel = veronese_matrix(ps, 2).right_nullspace()
    f = find_vanishing_poly(ps, 2)
    target = Polynomial(2, {(2, 0): F(1), (0, 2): F(1), (0, 0): F(-25)})
    ok = (
        len(kernel) == 1
        and f is not None
        and f.degree() == 2
        and Polynomial(2, {e: -25 * c for e, c in f.terms.items()}) == target
        and all(f.evaluate(p) == 0 for p in ps.points)
    )
    report(
        "criterion-06 circle polynomial",
        ok,
        "kernel dimension 1, f proportional to x1^2+x2^2-25, vanishing at all 12 points",
    )


def test_criterion_07_flat_joint_classification():
    ps = coordinate_planes_config()
    lines = rich_lines(ps, 3)
    f = Polynomial(3, {(1, 1, 1): F(1)})
    rep = classify_flat_points(ps, lines, f)
    ok = True
    joints = flats = 0
    for i, p in enumerate(ps.points):
        zeros = sum(1 for c in p if c == 0)
        if zeros >= 2:
            joints += 1
            ok = ok and rep.labels[i] == JOINT
            ok = ok and all(c == 0 for c in rep.gradients[i])
        else:
            flats += 1
            ok = ok and rep.labels[i] == FLAT
    report(
        "criterion-07 flat/joint classification",
        ok,
        f"{flats} interior plane points flat, {joints} axis points joints with zero gradient",
    )


def test_criterion_08_pipeline_end_to_end():
    ps = pasted_grids(3, 2, 2, 4)
    out = extract_hyperplane(ps, 4)
    best, _ = max_hyperplane_subset(ps)
    ok = out.found and len(out.subset) == 16 == best
    report(
        "criterion-08 hyperplane pipeline",
        ok,
        f"pasted 4x4 copies: extracted {len(out.subset)} points, exhaustive maximum {best}",
    )


def test_criterion_09_progression_suite():
    interval = pointset_from([(F(i),) for i in range(1, 11)])
    count = count_aps(interval, 3)[0]
    ok = count == 20 == ap_count_oracle(interval, 3)
    lift_ok, lift_detail = check_lift_and_products(seed=0, samples=20)
    ok = ok and lift_ok
    report(
        "criterion-09 progressions",
        ok,
        f"interval count 20 (brute force), {lift_detail}: lift bound, injectivity, product bound",
    )


def test_criterion_10_product_hyperplane_descent():
    ok, detail = check_product_hyperplanes(seed=0, samples=20)
    report("criterion-10 product hyperplane descent", ok, detail)


def test_criterion_11_zero_count_suite():
    ok, detail = check_zero_counts(seed=0, samples=200)
    report("criterion-11 zero counts", ok, detail)


def test_criterion_12_sumproduct_configuration():
    ps, lines = sumproduct_config([1, 2, 3], [0, 1, 2], 2)
    distinct = {(L.direction, L.base) for L in lines}
    ok = len(lines) == 9 and len(distinct) == 9
    ok = ok and all(len(L.points) == 3 for L in lines)
    ok = ok and all(
        sum(1 for i in L.points if ps.points[i][0] == 0) == 1 for L in lines
    )
    report(
        "criterion-12 sum-product configuration",
        ok,
        "9 lines, each 3-rich, each meeting the base slice exactly once",
    )
