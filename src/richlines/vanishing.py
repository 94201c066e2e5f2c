"""End-to-end pipelines: vanishing polynomials, flat points, hyperplanes.

The main pipeline refines the point/line incidence graph, pigeonholes
points into a dominant dyadic degree band, refines again, finds a minimal
degree polynomial vanishing on the surviving points, classifies each
survivor as flat (incident line directions fit in a hyperplane) or a joint,
and extracts the best witness hyperplane.  The guarantee constants of the
underlying theory are astronomically large, so each stage records whether a
run is in the guaranteed regime or merely exercising the mechanism; the
mechanism itself is exact either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .designs import RankBoundReport, assemble_design, rank_bound_report
from .geometry import Hyperplane, Line, dot, make_hyperplane
from .incidence import IncidenceGraph, incidences, lift_progressions, line_image, rich_lines
from .linalg import annihilates, first_kernel_vector, int_dot, right_nullspace
from .pointsets import PointSet, cartesian_power, check_power_cap
from .refinement import dyadic_partition, refine
from .scalars import GaussianRational, Scalar
from .veronese import (
    Polynomial, cleared, integer_veronese, monomial_basis, monomial_count,
    monomial_rows, poly_from_coeff_vector,
)


def hypothesis_constant(d: int) -> int:
    """Per-point line-count constant 32 (2d)^d used by the hypothesis checks."""
    return 32 * (2 * d) ** d


@dataclass(frozen=True)
class PipelineConstants:
    """Configurable guarantee constants (the theory only pins their order)."""

    line_count_factor: Fraction  # multiplies n^2 / r^d in the line-count hypothesis
    subset_factor: Fraction  # multiplies n / r^(d-2) in the promised subset size

    @classmethod
    def defaults(cls, d: int) -> "PipelineConstants":
        c = Fraction(d ** (3 * d))
        return cls(c, c / 2**11)


def _kernel_poly(ps: PointSet, image, deg: int) -> tuple[int, Polynomial | None]:
    """(rank M, its first kernel vector as a polynomial or None) for M, the
    degree <= deg evaluation matrix of V, from one elimination of its
    `integer_veronese` image; f(p_j) = (M_int w)_j is checked to be 0."""
    if not ps.points:
        return 0, None  # M is then an empty Matrix, with no columns
    rank, vec = first_kernel_vector(*image, ps.integer_image[2])
    return rank, None if vec is None else poly_from_coeff_vector(monomial_basis(ps.dim, deg), vec)


def find_vanishing_poly(ps: PointSet, max_deg: int) -> Polynomial | None:
    """Lowest-degree nonzero polynomial vanishing on all of V, up to max_deg.

    Graded-lex order makes the degree <= e matrix a column prefix of the
    degree <= max_deg one, so the first free column of the latter lies in the
    lowest degree with a nontrivial kernel, and its first kernel vector is
    that degree's own.  Returns None when the kernel is trivial up to max_deg.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    # rank M <= n, so the first free column lies in the least degree D with
    # C(d + D, d) > n columns; a larger max_deg only builds wider matrices
    cap = next((D for D in range(max_deg) if monomial_count(ps.dim, D) > len(ps)), max_deg)
    return _kernel_poly(ps, integer_veronese(ps, cap), cap)[1]


@dataclass(frozen=True)
class DesignCertificate:
    """Everything the design-matrix route proves about one configuration."""

    r: int
    degree: int
    n: int
    tuple_rows: int
    basis_size: int
    q: int
    k: int
    t: int
    rank_bounds: RankBoundReport | None
    rank_m: int
    rank_deficient: bool
    min_lines_per_point: int
    max_lines_per_point: int
    hypothesis_threshold: Fraction
    hypothesis_ok: bool
    mode: str


def certified_vanishing_poly(
    ps: PointSet,
    r: int,
    mode: str = "plain",
    lines: list[Line] | None = None,
) -> tuple[Polynomial | None, DesignCertificate]:
    """Vanishing polynomial of degree <= r-2 via the dependency-matrix route.

    mode "plain" checks the hypothesis k >= K_d n / r^(d-2) on the minimum
    number of r-rich lines per point; mode "bounded" checks the weaker
    k >= K_d n / r^(d-1) together with per-point counts within [k, 8k].
    When the hypothesis fails the machinery still runs (the certificate says
    so); the guarantee of a nontrivial kernel is simply void.
    """
    if mode not in ("plain", "bounded"):
        raise ValueError(f"unknown mode {mode!r}")
    if r < 2:
        raise ValueError("need r >= 2")
    if lines is None:
        lines = rich_lines(ps, r)
    if not lines:
        raise ValueError("no r-rich lines: nothing to assemble")
    n, d = len(ps), ps.dim
    A, image = assemble_design(ps, lines, r)  # validates every line's indices
    counts = [0] * n
    for line in lines:
        for i in line.points:
            counts[i] += 1
    k_min, k_max = min(counts), max(counts)
    kd = hypothesis_constant(d)
    if mode == "plain":
        threshold = Fraction(kd * n, r ** (d - 2)) if d >= 2 else Fraction(kd * n * r**(2 - d))
        hyp_ok = r >= 4 and k_min >= threshold
    else:
        threshold = Fraction(kd * n, r ** (d - 1))
        hyp_ok = r >= 4 and k_min >= threshold and k_max <= 8 * k_min

    rank_m, f = _kernel_poly(ps, image, r - 2)
    bounds = rank_bound_report(A, rank_m)
    basis_size = monomial_count(d, r - 2)
    deficient = rank_m < basis_size
    if (f is not None) != deficient:
        raise ArithmeticError(f"rank {rank_m} of M and its first kernel vector disagree")
    cert = DesignCertificate(
        r=r,
        degree=r - 2,
        n=n,
        tuple_rows=A.rows,
        basis_size=basis_size,
        q=A.q,
        k=A.k,
        t=A.t,
        rank_bounds=bounds,
        rank_m=rank_m,
        rank_deficient=deficient,
        min_lines_per_point=k_min,
        max_lines_per_point=k_max,
        hypothesis_threshold=threshold,
        hypothesis_ok=hyp_ok,
        mode=mode,
    )
    return f, cert


FLAT = "flat"
JOINT = "joint"


@dataclass(frozen=True)
class FlatnessReport:
    labels: tuple[str, ...]
    gradients: tuple[tuple[Scalar, ...], ...]
    incident_counts: tuple[int, ...]
    witness_normals: dict[int, tuple[tuple[Scalar, ...], ...]]


def _line_test(f: Polynomial, scales, gaussian: bool):
    """A test that f vanishes on a line, on the integer image of scales s: by
    `cleared` and `line_image`, f(point_at(t)) = 0 iff, checked at t = 0..deg,
    sum_e w_e (B + tU)^e D^(deg - |e|) = 0."""
    exps, w, _ = cleared(f, scales, gaussian)
    deg = f.degree()

    def vanishes_on(line: Line) -> bool:
        D, B, U = line_image(line, scales, gaussian)
        lift = [D ** (deg - sum(e)) for e in exps]
        wd = [(x[0] * k, x[1] * k) if gaussian else x * k for x, k in zip(w, lift)]
        pts = [[b + t * u for b, u in zip(B, U)] for t in range(deg + 1)]
        return annihilates(monomial_rows(pts, exps, gaussian), wd, gaussian)

    return vanishes_on


def classify_flat_points(
    ps: PointSet, lines: list[Line], f: Polynomial
) -> FlatnessReport:
    """Label each point flat or joint relative to a line family killed by f.

    Requires f to vanish identically on every line of the family, which is
    checked at the deg(f)+1 points `point_at(t)`, t = 0..deg(f).  A point is
    flat when the directions of its incident lines span at most a hyperplane
    (the kernel of the direction matrix supplies witness normals); otherwise
    it is a joint, and the gradient of f is then forced to vanish there,
    which is also checked.  Both checks run in integers on the image
    y = s * p of `PointSet.integer_image` (`_line_test`, `cleared`); the gradient
    holds the scalars `Polynomial.evaluate` gives, types included.  The lines
    are validated first, by `incidences`.
    """
    if f.is_zero():
        raise ValueError("need a nonzero polynomial")
    graph = incidences(ps, lines)
    d = ps.dim
    ints, scales, gaussian = ps.integer_image
    vanishes_on = _line_test(f, scales, gaussian)
    for li, line in enumerate(lines):
        if not vanishes_on(line):
            raise ValueError(f"polynomial does not vanish on line {li}")
    by_point: list[list[Line]] = [[] for _ in range(len(ps))]
    for i, li in graph.edges:
        by_point[i].append(lines[li])
    # (w, L, whether evaluate gives a GaussianRational) of each partial
    grads = [(*cleared(g, scales, gaussian)[1:], gaussian and any(
        sum(e) or isinstance(c, GaussianRational) for e, c in g.terms.items()))
        for g in f.gradient()]
    rows = monomial_rows(ints, monomial_basis(d, max(f.degree() - 1, 0)).exponents, gaussian)
    labels, gradients, counts = [], [], []
    witnesses: dict[int, tuple] = {}
    for i, row in enumerate(rows):
        incident = by_point[i]
        counts.append(len(incident))
        vals = [int_dot(row, w, gaussian) for w, _, _ in grads]
        grad_val = tuple(
            GaussianRational(Fraction(v[0], L), Fraction(v[1], L)) if typed else Fraction(v[0], L)
            for v, (_, L, typed) in zip(vals, grads)
        )
        gradients.append(grad_val)
        kernel = right_nullspace([list(line.direction) for line in incident], d)
        if kernel:
            labels.append(FLAT)
            witnesses[i] = tuple(kernel)
        else:
            labels.append(JOINT)
            if any(map(any, vals)):
                raise AssertionError(
                    f"joint {i} has nonzero gradient {grad_val}; calculus bug"
                )
    return FlatnessReport(tuple(labels), tuple(gradients), tuple(counts), witnesses)


def _members(ps: PointSet, planes) -> list[list[int]]:
    """`Hyperplane.members(ps.points)` of each plane, found on the integer
    image: normal . x - offset is a degree-1 polynomial (see `cleared`)."""
    ints, scales, gaussian = ps.integer_image
    exps = monomial_basis(ps.dim, 1).exponents
    rows = monomial_rows(ints, exps, gaussian)
    hs = [Polynomial(ps.dim, {exps[0]: -H.offset, **dict(zip(exps[1:], H.normal))}) for H in planes]
    ws = [cleared(h, scales, gaussian)[1] for h in hs]
    return [[j for j, row in enumerate(rows) if annihilates([row], w, gaussian)] for w in ws]


@dataclass
class PipelineTrace:
    """Stage-by-stage audit record of one hyperplane-extraction run."""

    n: int = 0
    r: int = 0
    dim: int = 0
    line_count: int = 0
    incidence_count: int = 0
    base_degree_floor: Fraction | None = None  # k = |I| / 4n
    refined_points: int = 0
    refined_lines: int = 0
    refined_incidences: int = 0
    band_index: int = 0
    band_weights: dict[int, int] = field(default_factory=dict)
    band_witness_ok: bool | None = None
    second_points: int = 0
    second_lines: int = 0
    second_incidences: int = 0
    rich_floor_raw: Fraction | None = None  # r / (16 j^2)
    rich_floor: int = 0  # clamped to >= 4
    clamped: bool = False
    degree_floor: Fraction | None = None  # k0 = 2^(j-3) k
    qualifying_lines: int = 0
    certificate: DesignCertificate | None = None
    poly_degree: int | None = None
    flat_points: int = 0
    joint_points: int = 0
    chosen_point: int | None = None
    subset_size: int = 0
    subset_floor: Fraction | None = None  # (r0 - 1) * k0
    subset_floor_ok: bool | None = None
    guaranteed_regime: bool = False
    hypothesis_line_count: Fraction | None = None
    line_count_factor: Fraction | None = None
    subset_factor: Fraction | None = None
    per_point_line_constant: int | None = None  # 32 (2d)^d
    predicted_subset_floor: Fraction | None = None  # subset_factor * n / r^(d-2)
    outcome: str = "pending"


@dataclass(frozen=True)
class ExtractionOutcome:
    hyperplane: Hyperplane | None
    subset: tuple[int, ...]
    polynomial: Polynomial | None
    trace: PipelineTrace

    @property
    def found(self) -> bool:
        return self.hyperplane is not None


def extract_hyperplane(
    ps: PointSet,
    r: int,
    lines: list[Line] | None = None,
    constants: PipelineConstants | None = None,
) -> ExtractionOutcome:
    """Full pipeline: refine, pigeonhole, refine, vanish, classify, extract.

    Returns the witness hyperplane maximizing |V ∩ H| over all flat points
    (ties to the lowest point index), together with the contained subset and
    the trace; the hyperplane is absent when the run dies earlier (no rich
    lines, no vanishing polynomial, or no flat point on a surviving line),
    in which case the trace says which stage failed.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    n, d = len(ps), ps.dim
    constants = constants or PipelineConstants.defaults(d)
    trace = PipelineTrace(n=n, r=r, dim=d)
    if lines is None:
        lines = rich_lines(ps, r)
    trace.line_count = len(lines)
    trace.hypothesis_line_count = constants.line_count_factor * Fraction(n * n, r**d)
    trace.guaranteed_regime = len(lines) >= trace.hypothesis_line_count
    trace.line_count_factor = constants.line_count_factor
    trace.subset_factor = constants.subset_factor
    trace.per_point_line_constant = hypothesis_constant(d)
    if d >= 2:
        trace.predicted_subset_floor = constants.subset_factor * Fraction(n, r ** (d - 2))
    if not lines:
        trace.outcome = "no-rich-lines"
        return ExtractionOutcome(None, (), None, trace)

    graph = incidences(ps, lines)
    total_i = graph.edge_count
    trace.incidence_count = total_i
    k = Fraction(total_i, 4 * n)
    trace.base_degree_floor = k

    first = refine(graph)
    trace.refined_points = len(first.left_kept)
    trace.refined_lines = len(first.right_kept)
    trace.refined_incidences = len(first.edges_kept)

    degrees = first.induced().left_degrees()
    part = dyadic_partition(first.left_kept, degrees, k)
    j = part.j_star
    trace.band_index = j
    trace.band_weights = dict(part.group_weight)
    # The selected band's incidences beat |I| / (4 j^2).
    trace.band_witness_ok = 4 * j * j * part.group_weight[j] >= total_i

    band = set(part.groups[j])
    band_edges = tuple((a, b) for a, b in first.edges_kept if a in band)
    second = refine(
        IncidenceGraph(tuple(sorted(band)), first.right_kept, band_edges)
    )
    core_points = second.left_kept
    core_line_ids = set(second.right_kept)
    trace.second_points = len(core_points)
    trace.second_lines = len(core_line_ids)
    trace.second_incidences = len(second.edges_kept)

    r0_raw = Fraction(r, 16 * j * j)
    r0 = max(4, -(-r0_raw.numerator // r0_raw.denominator))
    trace.rich_floor_raw = r0_raw
    trace.rich_floor = r0
    trace.clamped = r0_raw < 4
    k0 = Fraction(2) ** (j - 3) * k
    trace.degree_floor = k0

    sub_index = {orig: pos for pos, orig in enumerate(core_points)}
    sub_ps = ps.subset(core_points)

    f = find_vanishing_poly(sub_ps, r0 - 2)
    if f is None:
        trace.outcome = "no-vanishing-polynomial"
        return ExtractionOutcome(None, (), None, trace)
    trace.poly_degree = f.degree()

    # Keep the surviving lines on which f vanishes identically (checked at
    # deg(f)+1 exact parameters).  In the guaranteed regime every surviving
    # line carries at least r0 > deg(f)+1 core points, so nothing is lost;
    # after clamping this is the exact condition classification needs.
    vanishes_on = _line_test(f, *sub_ps.integer_image[1:])
    qualifying: list[Line] = []
    for li in sorted(core_line_ids):
        members = sorted(sub_index[i] for i in lines[li].points if i in sub_index)
        if not members:
            continue
        line = lines[li].with_points(members)
        if vanishes_on(line):
            qualifying.append(line)
    trace.qualifying_lines = len(qualifying)
    if not qualifying:
        trace.outcome = "no-surviving-rich-lines"
        return ExtractionOutcome(None, (), f, trace)

    cert_lines = [L for L in qualifying if len(L.points) >= r0]
    if cert_lines:
        _, cert = certified_vanishing_poly(sub_ps, r0, mode="bounded", lines=cert_lines)
        trace.certificate = cert

    report = classify_flat_points(sub_ps, qualifying, f)
    trace.flat_points = report.labels.count(FLAT)
    trace.joint_points = report.labels.count(JOINT)

    first_point: dict[Hyperplane, int] = {}  # witness plane -> first flat core point
    for pos, orig in enumerate(core_points):
        if report.labels[pos] != FLAT or report.incident_counts[pos] == 0:
            continue
        for normal in report.witness_normals[pos]:
            plane = make_hyperplane(normal, dot(sub_ps.points[pos], normal))
            first_point.setdefault(plane, orig)
    if not first_point:
        trace.outcome = "no-flat-candidate"
        return ExtractionOutcome(None, (), f, trace)

    members = dict(zip(first_point, _members(ps, first_point)))
    plane = max(members, key=lambda H: len(members[H]))
    subset = tuple(members[plane])
    trace.chosen_point = first_point[plane]
    trace.subset_size = len(subset)
    floor = (r0 - 1) * k0
    trace.subset_floor = floor
    trace.subset_floor_ok = len(subset) >= floor
    if not trace.clamped and not trace.subset_floor_ok:
        raise AssertionError(
            f"subset of {len(subset)} points violates the floor {floor} "
            "without clamping; pipeline bug"
        )
    trace.outcome = "hyperplane"
    return ExtractionOutcome(plane, subset, f, trace)


def hyperplane_from_product(
    plane: Hyperplane, ps: PointSet, ell: int
) -> tuple[Hyperplane, tuple[int, ...]]:
    """Push a heavy hyperplane of the product V^ell down to one of V.

    Splits the normal into ell blocks of length d, fixes all factors except
    the first block with a nonzero normal, and keeps the assignment whose
    fiber meets the plane the most.  The fiber is in exact one-to-one
    correspondence with the returned subset of V, so a density delta on the
    product drops to density at least delta on V.
    """
    d = ps.dim
    if len(plane.normal) != d * ell:
        raise ValueError("hyperplane does not live over the ell-fold product")
    blocks = [tuple(plane.normal[i * d : (i + 1) * d]) for i in range(ell)]
    pivot_block = next(
        (i for i, b in enumerate(blocks) if any(c != 0 for c in b)), None
    )
    if pivot_block is None:
        raise ValueError("zero normal")
    other_positions = [i for i in range(ell) if i != pivot_block]
    pivot_dots = [dot(p, blocks[pivot_block]) for p in ps.points]
    other_dots = {
        pos: [dot(p, blocks[pos]) for p in ps.points] for pos in other_positions
    }
    n = len(ps)
    best_count = 0
    best_residual = None
    total = 0
    for assign in itertools.product(range(n), repeat=ell - 1):
        residual = plane.offset
        for pos, pi in zip(other_positions, assign):
            residual = residual - other_dots[pos][pi]
        count = sum(1 for v in pivot_dots if v == residual)
        total += count
        if count > best_count:
            best_count = count
            best_residual = residual
    if total == 0:
        raise ValueError("hyperplane misses the whole product configuration")
    projected = make_hyperplane(blocks[pivot_block], best_residual)
    subset = tuple(_members(ps, [projected])[0])
    if len(subset) != best_count:
        raise AssertionError("fiber correspondence broken; projection bug")
    return projected, subset


@dataclass
class APPipelineTrace:
    ap_count: int = 0
    injective: bool | None = None
    extraction: PipelineTrace | None = None
    slice_counts: dict[int, int] = field(default_factory=dict)
    slice_index: int | None = None
    product_density: Fraction | None = None
    outcome: str = "pending"


@dataclass(frozen=True)
class APPipelineOutcome:
    hyperplane: Hyperplane | None
    subset: tuple[int, ...]
    trace: APPipelineTrace

    @property
    def found(self) -> bool:
        return self.hyperplane is not None


def ap_hyperplane(ps: PointSet, r: int, ell: int) -> APPipelineOutcome:
    """Hyperplane of C^d heavy in V, from r-term progressions of V^ell.

    Progressions of the ell-fold product lift injectively to r-rich lines of
    {0..r-1} x V^ell; the extraction pipeline runs on exactly that family,
    so any witness hyperplane contains a lifted line and can never be one of
    the index slices {z1 = i}.  Slicing at the heaviest index and pushing
    down through the product descent lands back in C^d.
    """
    if r < 4:
        raise ValueError("progression pipeline needs r >= 4")
    if ell < 1:
        raise ValueError("ell must be positive")
    n = len(ps)
    check_power_cap(n, ell, 1 + ps.dim * ell, r)  # {0..r-1} x V^ell
    trace = APPipelineTrace()
    product = cartesian_power(ps, ell)
    lifted, records, lines = lift_progressions(product, r)
    trace.ap_count = len(records)
    if not records:
        trace.outcome = "no-progressions"
        return APPipelineOutcome(None, (), trace)
    trace.injective = len({(L.direction, L.base) for L in lines}) == len(records)
    if not trace.injective:
        raise AssertionError("progression lift is not injective; lifting bug")

    ex = extract_hyperplane(lifted, r, lines=lines)
    trace.extraction = ex.trace
    if not ex.found:
        trace.outcome = f"extraction:{ex.trace.outcome}"
        return APPipelineOutcome(None, (), trace)
    plane = ex.hyperplane
    if all(c == 0 for c in plane.normal[1:]):
        raise AssertionError("witness hyperplane is an index slice; pipeline bug")

    # index_prefix lays {0..r-1} x V^ell out index-major, so a lifted
    # point's slice is its position divided by |V^ell|.
    counts = {jj: 0 for jj in range(r)}
    for i in ex.subset:
        counts[i // len(product)] += 1
    trace.slice_counts = counts
    slice_j = max(range(r), key=lambda jj: (counts[jj], -jj))
    trace.slice_index = slice_j

    rest_normal = tuple(plane.normal[1:])
    rest_offset = plane.offset - slice_j * plane.normal[0]
    sliced = make_hyperplane(rest_normal, rest_offset)
    members = _members(product, [sliced])[0]
    if not members:
        raise AssertionError("sliced hyperplane misses the product; slicing bug")
    trace.product_density = Fraction(len(members), n**ell)

    projected, subset = hyperplane_from_product(sliced, ps, ell)
    if len(subset) * n ** (ell - 1) < len(members):
        raise AssertionError("projected subset falls below the density floor")
    trace.outcome = "hyperplane"
    return APPipelineOutcome(projected, subset, trace)
