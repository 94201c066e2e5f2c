"""Bipartite min-degree refinement and dyadic degree pigeonholing.

refine() peels vertices whose induced degree drops below |E|/(4|A|) on the
left or |E|/(4|B|) on the right, thresholds fixed from the input graph and
compared as exact rationals.  The surviving core always keeps at least half
the edges, so both sides stay nonempty.  dyadic_partition() splits vertices
into degree bands [2^(j-1) k, 2^j k) and picks the heaviest band that still
carries its pigeonhole share of incidences.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .incidence import IncidenceGraph

LEFT, RIGHT = 0, 1


@dataclass(frozen=True)
class RefinementResult:
    left_kept: tuple[int, ...]
    right_kept: tuple[int, ...]
    edges_kept: tuple[tuple[int, int], ...]
    removals: tuple[tuple[int, int, int], ...]  # (side, vertex, degree at removal)
    left_threshold: Fraction
    right_threshold: Fraction

    def induced(self) -> IncidenceGraph:
        return IncidenceGraph(self.left_kept, self.right_kept, self.edges_kept)


def refine(g: IncidenceGraph) -> RefinementResult:
    """Peel low-degree vertices until both sides meet their degree floor.

    Removal order is deterministic: among currently violating vertices the
    lowest (side, index) goes first, left side before right.  The final core
    does not depend on the order; the log does.
    """
    if not g.edges:
        raise ValueError("refinement needs a nonempty edge set")
    na, nb = len(g.left), len(g.right)
    e = len(g.edges)
    thr = {LEFT: Fraction(e, 4 * na), RIGHT: Fraction(e, 4 * nb)}

    adj: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for v in g.left:
        adj[(LEFT, v)] = set()
    for v in g.right:
        adj[(RIGHT, v)] = set()
    for a, b in g.edges:
        adj[(LEFT, a)].add((RIGHT, b))
        adj[(RIGHT, b)].add((LEFT, a))

    alive = set(adj)
    heap = [v for v in adj if len(adj[v]) < thr[v[0]]]
    heapq.heapify(heap)
    removals = []
    while heap:
        v = heapq.heappop(heap)
        if v not in alive or len(adj[v]) >= thr[v[0]]:
            continue
        alive.discard(v)
        removals.append((v[0], v[1], len(adj[v])))
        for u in adj[v]:
            adj[u].discard(v)
            if u in alive and len(adj[u]) < thr[u[0]]:
                heapq.heappush(heap, u)
        adj[v] = set()

    left_kept = tuple(v for s, v in sorted(alive) if s == LEFT)
    right_kept = tuple(v for s, v in sorted(alive) if s == RIGHT)
    kept_edges = tuple(
        (a, b)
        for a, b in g.edges
        if (LEFT, a) in alive and (RIGHT, b) in alive
    )
    return RefinementResult(
        left_kept, right_kept, kept_edges, tuple(removals), thr[LEFT], thr[RIGHT]
    )


@dataclass(frozen=True)
class DyadicPartition:
    base_threshold: Fraction
    groups: dict[int, tuple[int, ...]]
    group_weight: dict[int, int]  # total incidences carried by each band
    j_star: int
    total_weight: int


def dyadic_partition(point_ids, degrees, k: Fraction) -> DyadicPartition:
    """Band vertices by degree ranges [2^(j-1) k, 2^j k) and select a band.

    Every degree must be at least k.  Among bands carrying at least a
    1/(2 j^2) fraction of all incidences (at least one such band exists),
    the one with the largest incidence weight wins; ties go to smaller j.
    """
    k = Fraction(k)
    if k <= 0:
        raise ValueError("base threshold must be positive")
    groups: dict[int, list[int]] = {}
    weight: dict[int, int] = {}
    for v in point_ids:
        deg = degrees[v]
        if deg < k:
            raise ValueError(f"vertex {v} has degree {deg} below the floor {k}")
        j = 1
        hi = 2 * k
        while deg >= hi:
            hi = hi * 2
            j += 1
        groups.setdefault(j, []).append(v)
        weight[j] = weight.get(j, 0) + deg
    total = sum(weight.values())
    eligible = [j for j in sorted(weight) if 2 * j * j * weight[j] >= total]
    if not eligible:
        raise AssertionError("pigeonhole failure: no band carries its share")
    j_star = max(eligible, key=lambda j: (weight[j], -j))
    return DyadicPartition(
        k,
        {j: tuple(sorted(v)) for j, v in groups.items()},
        weight,
        j_star,
        total,
    )
