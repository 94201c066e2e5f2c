"""Independent reference computations used to audit the fast paths.

Two line references share no key code with `rich_lines`.  The cubic one,
`collinear_groups`, scans every other point for collinearity with each
point pair and emits a maximal collinear set once, keyed by its two lowest
indices; the tests compare against it.  The quadratic one,
`direction_groups`, anchors on each point and groups the later points by
their direction from it, scaled so its first nonzero entry is 1 (over Q as
reduced integer ratios); the sweep audits `rich_lines` against it.  Over Q
both run on the integer image of `PointSet.integer_image` (an invertible
per-axis scaling, so collinearity is untouched).  Over Q(i) both run in
field arithmetic on V itself, so they stay independent of the realified
Gaussian-integer keys that `rich_lines` uses there.  The progression oracle
stays on field arithmetic throughout, independent of that model.
"""

from __future__ import annotations

from math import gcd

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


def _reduced_ratio(c: int, lead: int) -> tuple[int, int]:
    """c / lead in lowest terms, as (numerator, denominator > 0)."""
    g = gcd(c, lead)
    if lead < 0:
        g = -g
    return c // g, lead // g


def direction_groups(ps: PointSet, r: int) -> set[frozenset[int]]:
    """Index sets of all maximal collinear groups of size >= r, in O(n^2 d).

    For each point i the points j > i are grouped by the direction of
    p_j - p_i scaled so its first nonzero entry is 1 (reduced integer ratios
    of the integer image over Q, `GaussianRational`s of V over Q(i)), keyed
    by the position k of that entry and the entries after it.  {i} and a
    class form V's points on one line from i on.  A class whose direction
    an emitted group already carried through i is a tail of that group, so
    each maximal group is emitted once, at its lowest point.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    ints, _, gaussian = ps.integer_image
    pts = ps.points if gaussian else ints
    ratio = (lambda a, b: a / b) if gaussian else _reduced_ratio
    n = len(pts)
    groups: set[frozenset[int]] = set()
    seen: set[tuple] = set()  # (point, direction) of each emitted group
    for i in range(n):
        pi = pts[i]
        classes: dict[tuple, list[int]] = {}
        for j in range(i + 1, n):
            diff = [b - a for a, b in zip(pi, pts[j])]
            k = 0
            while not diff[k]:
                k += 1
            lead = diff[k]
            classes.setdefault((k, *[ratio(c, lead) for c in diff[k + 1 :]]), [i]).append(j)
        for key, members in classes.items():
            if len(members) >= r and (i, key) not in seen:
                groups.add(frozenset(members))
                seen.update((j, key) for j in members)
    return groups


def rich_lines_match_oracle(ps: PointSet, r: int) -> bool:
    """Whether `rich_lines` lists exactly the groups of the quadratic
    reference `direction_groups`, each once."""
    from .incidence import rich_lines

    fast = [frozenset(line.points) for line in rich_lines(ps, r)]
    return len(set(fast)) == len(fast) and set(fast) == direction_groups(ps, r)


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
