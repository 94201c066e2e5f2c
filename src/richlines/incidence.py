"""Rich-line enumeration, incidence graphs, progression counting.

Line enumeration groups all point pairs once by an exact line key, computed
on the integer image of V (`PointSet.integer_image`), and keeps the index
tuples of the lines with at least 3 points with the set
(`PointSet.line_family`).  Every r-rich family is a filter over it
(`_rich_index_tuples`); `rich_lines` decodes each line from the key of its
first two points, while progressions and the planar plane search read the
index tuples directly.  Membership tests clear a line's denominators on the
image (`line_image`) with integer arithmetic only.
Over Q the key of a pair (p, q) is the sign-canonical primitive direction
together with the translation invariant p_i * d_piv - p_piv * d_i, which is
constant along the line.  Over Q(i) the image holds Gaussian integers as
(re, im) parts; the difference is first multiplied by the conjugate of its
pivot entry, after which directions of one line differ by a positive
rational and the same primitive step applies to the parts.
Hyperplanes are keyed alike, by the closed-form normal of a spanning
d-subset: primitive and sign-canonical on the integer image over Q, and
the canonical `Hyperplane` over Q(i).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .geometry import (
    Hyperplane,
    Line,
    Point,
    dot,
    make_hyperplane,
    plane_normal,
    vsub,
)
from .linalg import first_kernel_vector
from .pointsets import PointSet
from .scalars import GaussianRational, imag_part, real_part


def _primitive(vec):
    """A nonzero integer vector divided by the gcd of its entries, signed so
    its first nonzero entry (returned with it) is positive."""
    g = gcd(*vec)
    piv = 0
    while vec[piv] == 0:
        piv += 1
    if vec[piv] < 0:
        g = -g
    return [c // g for c in vec], piv


def _int_pair_key(p, q, d):
    prim, piv = _primitive([q[t] - p[t] for t in range(d)])
    dp = prim[piv]
    pp = p[piv]
    inv = [p[t] * dp - pp * prim[t] for t in range(d)]
    return (*prim, *inv)


def _gaussian_pair_key(p, q, d):
    """Pair key of realified Gaussian-integer points (re_0, im_0, ...).

    Multiplying q - p by the conjugate of its pivot (first nonzero) entry
    makes that entry |pivot|^2 > 0.  Two directions of one line differ by
    some lam in Q(i), and after this step by |lam|^2 > 0, so `_primitive` of
    the parts is canonical.  The invariant p_t * dp - p_piv * prim_t costs
    one Z[i] product per coordinate, dp being real.
    """
    diff = [b - a for a, b in zip(p, q)]
    k = 0
    while not (diff[k] or diff[k + 1]):
        k += 2
    cr, ci = diff[k], diff[k + 1]
    rot = []
    for t in range(0, 2 * d, 2):
        x, y = diff[t], diff[t + 1]
        rot += (x * cr + y * ci, y * cr - x * ci)
    prim, piv = _primitive(rot)
    dp = prim[piv]
    pr, pi = p[piv], p[piv + 1]
    inv = []
    for t in range(0, 2 * d, 2):
        u, v = prim[t], prim[t + 1]
        inv += (p[t] * dp - pr * u + pi * v, p[t + 1] * dp - pr * v - pi * u)
    return (*prim, *inv)


def _int_plane_key(points):
    """Primitive sign-canonical normal and offset of the plane spanned by d
    integer points, or None if they span no hyperplane."""
    normal = plane_normal(points)
    if not any(normal):
        return None
    prim, _ = _primitive(normal)
    return (*prim, sum(a * b for a, b in zip(prim, points[0])))


def _field_plane_key(points) -> Hyperplane | None:
    """Canonical hyperplane spanned by d points, or None if they span none."""
    normal = plane_normal(points)
    if not any(normal):
        return None
    return make_hyperplane(normal, dot(points[0], normal))


def _group_pairs_int_2d(pts, groups):
    # hot loop: primitive direction (sign-canonical) plus the translation
    # invariant x dy - y dx identify a planar line with three machine ints
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        for j in range(i + 1, n):
            x1, y1 = pts[j]
            dx = x1 - x0
            dy = y1 - y0
            if dx < 0 or (dx == 0 and dy < 0):
                dx = -dx
                dy = -dy
                g = gcd(dx, dy)
            else:
                g = gcd(dx, dy)
            if g > 1:
                dx //= g
                dy //= g
            key = (dx, dy, x0 * dy - y0 * dx)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [i, j]
            else:
                bucket.append(i)
                bucket.append(j)


def _line_family(ps: PointSet) -> tuple[tuple[int, ...], ...]:
    """The sorted index tuples of the lines through at least 3 points of V,
    in ascending order, from one grouping of all point pairs by their line
    key.  `PointSet.line_family` keeps the result with the set; the keys
    and the two-point lines are dropped, so it holds O(n) index tuples
    where the grouping held O(n^2) pairs."""
    d = ps.dim
    pts, _, gaussian = ps.integer_image
    groups: dict[tuple, list[int]] = {}
    if d == 2 and not gaussian:
        _group_pairs_int_2d(pts, groups)
    else:
        key_fn = _gaussian_pair_key if gaussian else _int_pair_key
        for i in range(len(pts)):
            pi = pts[i]
            for j in range(i + 1, len(pts)):
                key = key_fn(pi, pts[j], d)
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = [i, j]
                else:
                    bucket.append(i)
                    bucket.append(j)
    # a k-point line has k(k-1) entries, so a two-point line has 2
    return tuple(sorted(tuple(sorted(set(m))) for m in groups.values() if len(m) > 2))


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _line_from_int_key(key, scales, idx, gaussian=False) -> Line:
    """Canonical line of V from the key (prim, inv) of its integer image.

    With dp = prim[piv] > 0, undoing x_t -> s_t * x_t gives
    direction_t = prim_t * s_piv / (s_t * dp) and base_t = inv_t / (s_t * dp).
    A Q(i) key is decoded part by part (dp is real) and each (re, im) pair
    of the result becomes one coordinate.
    """
    d = len(scales)
    prim, inv = key[:d], key[d:]
    piv = 0
    while prim[piv] == 0:
        piv += 1
    dp = prim[piv]
    num = scales[piv]
    direction = [_ZERO] * d
    base = [_ZERO] * d
    for t in range(d):
        den = scales[t] * dp
        if prim[t]:
            direction[t] = Fraction(prim[t] * num, den) if t > piv else _ONE
        if inv[t]:
            base[t] = Fraction(inv[t], den)
    if gaussian:
        direction = map(GaussianRational, direction[::2], direction[1::2])
        base = map(GaussianRational, base[::2], base[1::2])
    return Line(tuple(direction), tuple(base), tuple(idx))


def _rich_index_tuples(ps: PointSet, r: int) -> list[tuple[int, ...]]:
    """The index tuples of the r-rich lines of V, in ascending order: the
    lines of `PointSet.line_family` with at least r points, and for r = 2
    also the pairs that no line of it covers."""
    family = ps.line_family
    groups = [idx for idx in family if len(idx) >= r]
    if r == 2:
        covered = {(a, b) for idx in family for a, b in itertools.combinations(idx, 2)}
        groups += [
            pair for pair in itertools.combinations(range(len(ps)), 2) if pair not in covered
        ]
        groups.sort()
    return groups


def rich_lines(ps: PointSet, r: int) -> list[Line]:
    """All lines containing at least r points of V, with full incidence lists.

    The lines are `_rich_index_tuples(ps, r)`, each decoded from the key of
    its first two points.  Output is sorted by incidence list, which is
    deterministic for a fixed point order.
    """
    if r < 2:
        raise ValueError("richness threshold must be at least 2")
    d = ps.dim
    pts, scales, gaussian = ps.integer_image
    key_fn = _gaussian_pair_key if gaussian else _int_pair_key
    return [
        _line_from_int_key(key_fn(pts[idx[0]], pts[idx[1]], d), scales, idx, gaussian)
        for idx in _rich_index_tuples(ps, r)
    ]


@dataclass(frozen=True)
class IncidenceGraph:
    """Bipartite incidence structure between point indices and line indices."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def left_degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.left}
        for a, _ in self.edges:
            deg[a] += 1
        return deg

    def right_degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.right}
        for _, b in self.edges:
            deg[b] += 1
        return deg


def line_image(line: Line, scales, gaussian: bool = False):
    """(D, B, U), D > 0 least with B = D * s * base and U = D * s * direction
    integral for the scales s of an `integer_image` (realified over Q(i), like
    the image), so that base + t * direction maps to (B + t U) / D.

    Each part x = num / den times its scale s is num * (s / g) over den / g,
    g = gcd(s, den), in lowest terms, so D is the lcm of those denominators.
    """
    parts = line.base + line.direction
    if gaussian:
        parts = [x for c in parts for x in (real_part(c), imag_part(c))]
    nums, dens = [], []
    for x, s in zip(parts, scales + scales):
        den = x.denominator
        g = gcd(s, den)
        nums.append(x.numerator * (s // g))
        dens.append(den // g)
    D = lcm(*dens)
    w = [a * (D // b) for a, b in zip(nums, dens)]
    return D, w[: len(scales)], w[len(scales) :]


def first_off_line(ps: PointSet, li: int, line: Line):
    """The first index of the canonical line li's incidence list whose point
    is not on the line, or None, by exact tests on the integer image
    y = s * p: by `line_image`, p is on the line iff s_piv D y = s_piv B +
    y_piv U (Gaussian products over Q(i)).  An index that names no point of
    V raises ValueError."""
    pts, scales, gaussian = ps.integer_image
    D, B, U = line_image(line, scales, gaussian)
    k = line.pivot * (2 if gaussian else 1)
    lhs, B = scales[k] * D, [scales[k] * b for b in B]
    iU = [x for u, v in zip(U[::2], U[1::2]) for x in (-v, u)] if gaussian else U
    for pi in line.points:
        if pi < 0 or pi >= len(pts):
            raise ValueError(f"line {li} references invalid point index {pi}")
        y = pts[pi]
        yr, yi = y[k], y[k + 1] if gaussian else 0  # y_piv U = yr U + yi (i U)
        if not all(lhs * c == b + yr * u + yi * v for c, b, u, v in zip(y, B, U, iU)):
            return pi
    return None


def incidences(ps: PointSet, lines: list[Line]) -> IncidenceGraph:
    """Incidence graph of V against a line family, with exact membership
    checks on the integer image (`first_off_line`); a line that lists an
    index twice raises ValueError."""
    edges = []
    for li, line in enumerate(lines):
        off = first_off_line(ps, li, line)
        if off is not None:
            raise ValueError(f"point {off} is not on line {li}")
        if len(set(line.points)) < len(line.points):
            raise ValueError("repeated point in a collinear tuple")
        edges += ((pi, li) for pi in line.points)
    return IncidenceGraph(
        tuple(range(len(ps))), tuple(range(len(lines))), tuple(edges)
    )


@dataclass(frozen=True)
class APRecord:
    """Unordered r-term progression: start, sign-canonical difference, length."""

    start: Point
    diff: Point
    length: int

    def terms(self):
        cur = self.start
        for _ in range(self.length):
            yield cur
            cur = tuple(a + b for a, b in zip(cur, self.diff))


def _progressions(ps: PointSet, r: int) -> list[tuple[list[int], APRecord]]:
    """The r-term progressions of V, read off the index tuples
    `_rich_index_tuples(ps, r)`, as index lists [y, y+x, ..., y+(r-1)x] with
    their records, in the (i, j) order of their first two terms.  On the
    integer image the pivot coordinate of a line (the first whose (re, im)
    parts differ between its first two points; one positive scale) is an
    affine parameter, and x is sign-canonical iff its step is positive in
    (re, im) order, so each progression is found once, at its two smallest
    terms.  Records with one image step share one difference.
    """
    if r < 2:
        raise ValueError("progression length must be at least 2")
    keys, _, gaussian = ps.integer_image
    k = 2 if gaussian else 1
    found = []
    for idx in _rich_index_tuples(ps, r):
        p, q = keys[idx[0]], keys[idx[1]]
        piv = 0
        while p[piv : piv + k] == q[piv : piv + k]:
            piv += k
        at = {keys[i][piv : piv + k]: i for i in idx}
        params = sorted(at)
        top = params[-1][0]
        for ia, a in enumerate(params):
            for b in params[ia + 1 :]:
                # real steps only grow along b, so no later b reaches r terms
                if a[0] + (r - 1) * (b[0] - a[0]) > top:
                    break
                terms = [at[a], at[b]]
                for m in range(2, r):
                    i = at.get(tuple([x + m * (y - x) for x, y in zip(a, b)]))
                    if i is None:
                        break
                    terms.append(i)
                else:
                    found.append(terms)
    found.sort(key=lambda t: sorted(t[:2]))
    pts = ps.points
    diffs: dict[tuple, Point] = {}  # image step -> V's difference
    out = []
    for t in found:
        step = tuple(map(operator.sub, keys[t[1]], keys[t[0]]))
        if step not in diffs:
            diffs[step] = vsub(pts[t[1]], pts[t[0]])
        out.append((t, APRecord(pts[t[0]], diffs[step], r)))
    return out


def count_aps(ps: PointSet, r: int) -> tuple[int, list[APRecord]]:
    """Count unordered r-term arithmetic progressions {y, y+x, ...} inside V,
    each once, with the first nonzero coordinate of x positive (real part,
    then imaginary part); see `_progressions`."""
    records = [rec for _, rec in _progressions(ps, r)]
    return len(records), records


def lift_progressions(ps: PointSet, r: int):
    """Map each r-term progression of V to a line of {0..r-1} x V.

    The progression (y, x) becomes the line through (0, y) with direction
    (1, x); the mapping is injective and each image line is exactly r-rich
    with respect to the lifted configuration, whose point (m, p_j) has index
    m * n + j.  Returns (lifted point set, progression records, lines).
    """
    from .pointsets import index_prefix
    from .scalars import coerce

    lifted, n = index_prefix(ps, r), len(ps)
    one, zero = coerce(1, ps.field), coerce(0, ps.field)
    found = _progressions(ps, r)
    lines = [Line((one,) + rec.diff, (zero,) + rec.start, tuple(m * n + j for m, j in enumerate(idx)))
             for idx, rec in found]
    return lifted, [rec for _, rec in found], lines


def max_hyperplane_subset(ps: PointSet) -> tuple[int, Hyperplane]:
    """Largest subset of V on one affine hyperplane.

    Groups the d-point subsets that span a hyperplane by the key of that
    hyperplane (see the module docstring).  The points of V on a spanned
    plane H are exactly the union of H's spanning subsets (by exchange,
    every point of V on H lies in an affine basis of H drawn from V), so no
    plane is recounted against V; the winner is built from its first one.
    Ties go to the plane spanned first in lexicographic subset order.  If
    none spans (the whole set is affinely degenerate) a hyperplane
    containing the affine span is returned together with |V|.  In the plane
    the hyperplanes are lines, so the answer is the first longest line of
    `PointSet.line_family`, or the pair (0, 1) when no line has 3 points.
    """
    d = ps.dim
    pts = ps.points
    if not pts:
        raise ValueError("empty point set")
    if d == 1:
        return 1, make_hyperplane((Fraction(1),), pts[0][0])
    if d == 2 and len(pts) > 1:
        idx = max(ps.line_family, key=len, default=(0, 1))
        return len(idx), _field_plane_key([pts[idx[0]], pts[idx[1]]])
    ints, scales, gaussian = ps.integer_image
    key_fn, keyed = (_field_plane_key, pts) if gaussian else (_int_plane_key, ints)
    planes: dict = {}  # key -> (first spanning subset, union of spanning subsets)
    for combo in itertools.combinations(range(len(pts)), d):
        key = key_fn([keyed[i] for i in combo])
        if key is not None:
            planes.setdefault(key, (combo, set()))[1].update(combo)
    if planes:
        combo, members = max(planes.values(), key=lambda v: len(v[1]))
        return len(members), _field_plane_key([pts[i] for i in combo])
    # Affinely degenerate: the span misses a full hyperplane, so take the
    # first RREF kernel vector of the differences, found on their integer image.
    diffs = [vsub(p, ints[0]) for p in ints[1:]]
    if gaussian:
        diffs, scales = [list(zip(p[::2], p[1::2])) for p in diffs], scales[::2]
    normal = first_kernel_vector(diffs, scales, gaussian)[1]
    return len(pts), make_hyperplane(normal, dot(pts[0], normal))
