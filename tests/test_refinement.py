from fractions import Fraction
from random import Random

import pytest

from richlines.harness import _random_bipartite
from richlines.incidence import IncidenceGraph, incidences, rich_lines
from richlines.pointsets import grid
from richlines.refinement import dyadic_partition, refine

F = Fraction


def bipartite(na, nb, edges):
    return IncidenceGraph(tuple(range(na)), tuple(range(nb)), tuple(edges))


def test_refine_complete_bipartite_untouched():
    g = bipartite(3, 3, [(a, b) for a in range(3) for b in range(3)])
    res = refine(g)
    assert res.left_kept == (0, 1, 2)
    assert res.right_kept == (0, 1, 2)
    assert len(res.edges_kept) == 9
    assert res.removals == ()


def test_refine_star_survives():
    b = 7
    g = bipartite(1, b, [(0, j) for j in range(b)])
    res = refine(g)
    assert res.left_kept == (0,)
    assert res.right_kept == tuple(range(b))


def test_refine_pendant_path_with_core():
    # path a0 - b0 - a1 plus a complete 2x2 block on {a2,a3} x {b1,b2}:
    # the floors are 6/16 and 6/12, so even the degree-1 pendants clear
    # them and the whole graph survives; the block is certainly kept
    edges = [(0, 0), (1, 0), (2, 1), (2, 2), (3, 1), (3, 2)]
    g = bipartite(4, 3, edges)
    res = refine(g)
    assert set(res.left_kept) >= {2, 3}
    assert set(res.right_kept) >= {1, 2}
    assert res.left_kept == (0, 1, 2, 3)
    assert len(res.edges_kept) == 6
    assert 2 * len(res.edges_kept) >= len(edges)


def test_refine_prunes_isolated_and_weak_vertices():
    # a dense 3x3 block plus one isolated left vertex: the floor is
    # 10/16 on the left, so the pendant attached by one edge survives but
    # the isolated vertex goes
    edges = [(a, b) for a in range(3) for b in range(3)] + [(3, 0)]
    g = bipartite(5, 3, edges)
    res = refine(g)
    assert res.left_kept == (0, 1, 2, 3)
    assert 4 not in res.left_kept
    assert any(side == 0 and vid == 4 for side, vid, _ in res.removals)


def test_refine_empty_edges_rejected():
    with pytest.raises(ValueError):
        refine(bipartite(2, 2, []))


def test_refine_postconditions_hold_on_random_graphs():
    rng = Random(123)
    for _ in range(150):
        g = _random_bipartite(rng, max_side=30)
        res = refine(g)
        e = len(g.edges)
        assert 2 * len(res.edges_kept) >= e
        assert res.left_kept and res.right_kept
        ind = res.induced()
        ldeg, rdeg = ind.left_degrees(), ind.right_degrees()
        assert all(F(ldeg[v]) >= res.left_threshold for v in res.left_kept)
        assert all(F(rdeg[v]) >= res.right_threshold for v in res.right_kept)


def test_refine_core_is_stable():
    rng = Random(321)
    for _ in range(100):
        g = _random_bipartite(rng, max_side=25)
        res = refine(g)
        again = refine(IncidenceGraph(g.left, g.right, res.edges_kept))
        assert again.left_kept == res.left_kept
        assert again.right_kept == res.right_kept
        assert again.edges_kept == res.edges_kept


def test_refine_removal_log_is_deterministic():
    edges = [(0, 0), (1, 0), (2, 1), (2, 2), (3, 1), (3, 2)]
    g = bipartite(5, 3, edges)
    first = refine(g)
    second = refine(g)
    assert first.removals == second.removals
    for side, vid, deg in first.removals:
        assert side in (0, 1)
        assert deg >= 0


def test_refine_on_grid_incidences():
    ps = grid(2, 4)
    g = incidences(ps, rich_lines(ps, 3))
    res = refine(g)
    assert 2 * len(res.edges_kept) >= g.edge_count
    assert res.left_threshold == F(g.edge_count, 4 * len(ps))


# -- dyadic partition --------------------------------------------------------


def test_dyadic_all_equal_degrees():
    part = dyadic_partition([0, 1, 2], {0: 5, 1: 5, 2: 5}, F(5))
    assert part.groups == {1: (0, 1, 2)}
    assert part.j_star == 1
    assert 2 * part.j_star**2 * part.group_weight[part.j_star] >= part.total_weight


def test_dyadic_boundary_convention():
    # degree exactly 2^(j-1) k lands in band j
    part = dyadic_partition([0, 1, 2], {0: 4, 1: 8, 2: 16}, F(4))
    assert part.groups == {1: (0,), 2: (1,), 3: (2,)}


def test_dyadic_selects_heaviest_valid_band():
    degrees = {i: 2 for i in range(10)}
    degrees.update({10: 9, 11: 9})
    part = dyadic_partition(list(range(12)), degrees, F(2))
    # band 1 carries 20 incidences, band 3 carries 18
    assert part.group_weight == {1: 20, 3: 18}
    assert part.j_star == 1
    assert 2 * part.j_star**2 * part.group_weight[part.j_star] >= part.total_weight


def test_dyadic_witness_share():
    # a synthetic profile with the second band dominant
    degrees = {}
    for i in range(4):
        degrees[i] = 1
    for i in range(4, 14):
        degrees[i] = 2
    part = dyadic_partition(list(range(14)), degrees, F(1))
    assert part.j_star == 2
    assert 2 * part.j_star**2 * part.group_weight[part.j_star] >= part.total_weight


def test_dyadic_rejects_degree_below_floor():
    with pytest.raises(ValueError):
        dyadic_partition([0], {0: 1}, F(2))


def test_dyadic_groups_partition_input():
    rng = Random(8)
    for _ in range(50):
        ids = list(range(rng.randint(1, 30)))
        k = F(rng.randint(1, 4))
        degrees = {i: rng.randint(int(k), 40) for i in ids}
        part = dyadic_partition(ids, degrees, k)
        merged = sorted(v for grp in part.groups.values() for v in grp)
        assert merged == ids
        for j, grp in part.groups.items():
            for v in grp:
                assert 2 ** (j - 1) * k <= degrees[v] < 2**j * k
        assert 2 * part.j_star**2 * part.group_weight[part.j_star] >= part.total_weight
