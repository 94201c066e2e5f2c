"""Brute-force reference computations used to audit the fast paths.

The line oracle is cubic: for every point pair it scans all other points
for collinearity and emits a maximal collinear set once, keyed by its two
lowest indices.  Over Q it runs on the integer image of
`PointSet.integer_image` (an invertible per-axis scaling, so collinearity
is untouched), which keeps it exact and fast enough for the
n <= a-few-hundred audits.  Over Q(i) the same cross-product test runs in
field arithmetic on V itself, so it stays independent of the realified
Gaussian-integer keys that `rich_lines` uses there.  The progression oracle
stays on field arithmetic throughout, independent of that model.
"""

from __future__ import annotations

from .pointsets import PointSet


def _collinear(p, q, s, d) -> bool:
    for i in range(d):
        ui = q[i] - p[i]
        vi = s[i] - p[i]
        for j in range(i + 1, d):
            if ui * (s[j] - p[j]) != (q[j] - p[j]) * vi:
                return False
    return True


def collinear_groups(ps: PointSet, r: int) -> set[frozenset[int]]:
    """Index sets of all maximal collinear groups of size >= r, by brute force."""
    if r < 2:
        raise ValueError("need r >= 2")
    ints, _, gaussian = ps.integer_image
    pts = ps.points if gaussian else ints
    n = len(pts)
    d = ps.dim
    groups: set[frozenset[int]] = set()
    for i in range(n):
        pi = pts[i]
        for j in range(i + 1, n):
            pj = pts[j]
            members = [i, j]
            for s in range(n):
                if s != i and s != j and _collinear(pi, pj, pts[s], d):
                    members.append(s)
            if len(members) < r:
                continue
            lo = sorted(members)[:2]
            if lo == [i, j]:
                groups.add(frozenset(members))
    return groups


def rich_lines_match_oracle(ps: PointSet, r: int) -> bool:
    """Exact equality of the pair-grouping enumerator against the oracle."""
    from .incidence import rich_lines

    fast = {frozenset(line.points) for line in rich_lines(ps, r)}
    return fast == collinear_groups(ps, r)


def ap_count_oracle(ps: PointSet, r: int) -> int:
    """Count unordered r-term progressions by scanning all (start, end) pairs.

    Independent of the production counter: it fixes the first and LAST terms
    of the progression, so the stepping arithmetic is exercised differently,
    and divides the overcount instead of canonicalizing signs.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    pts = ps.points
    members = set(pts)
    n = len(pts)
    hits = 0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            # difference = (end - start) / (r - 1) must step through members
            step = tuple((y - x) / (r - 1) for x, y in zip(pts[a], pts[b]))
            ok = True
            cur = pts[a]
            for _ in range(r - 2):
                cur = tuple(c + s for c, s in zip(cur, step))
                if cur not in members:
                    ok = False
                    break
            if ok:
                hits += 1
    # Each unordered progression is seen from both of its end orderings.
    assert hits % 2 == 0
    return hits // 2
