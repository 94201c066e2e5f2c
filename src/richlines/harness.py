"""Experiment runner, seeded verification suites, and report emission.

Reports are deterministic given (config, seed): JSON carries exact rational
values and is the source of truth, CSV renders decimals at 12 significant
digits for eyeballing.  Configurations of at most AUDIT_MAX_N points get
their rich lines audited inside the report against the quadratic reference
`oracle.direction_groups`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from random import Random

from . import oracle
from .bounds import bound_terms, ratios
from .designs import random_design_matrix, rank_bound_report
from .geometry import Line, make_hyperplane
from .incidence import (
    IncidenceGraph,
    count_aps,
    incidences,
    lift_progressions,
    max_hyperplane_subset,
    rich_lines,
)
from .pointsets import (
    POWER_DEPTH_CAP,
    PointSet,
    cartesian_power,
    grid,
    pasted_grids,
    pointset_from,
    sumproduct_config,
)
from .refinement import refine
from .scalars import format_scalar
from .serialization import check_known_keys, dumps_json
from .vanishing import (
    certified_vanishing_poly,
    extract_hyperplane,
    find_vanishing_poly,
)
from .veronese import Polynomial, schwartz_zippel_count, veronese_matrix


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    generator: dict
    r_values: list[int]
    pipelines: list[str] = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    seed: int = 0
    out_json: str | None = None
    out_csv: str | None = None

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        """Decode a sweep config; any malformed part raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"a sweep config must be a JSON object, got {type(data).__name__}")
        check_known_keys(data, [f.name for f in fields(cls)], "sweep config")
        generator = _object(data.get("generator"), "generator")
        gen, depth = generator, 0  # build_pointset recurses once per power
        while isinstance(gen, dict) and gen.get("kind") == "power":
            gen, depth = gen.get("base"), depth + 1
        if depth > POWER_DEPTH_CAP:
            raise ValueError(f"generator nests {depth} powers, more than {POWER_DEPTH_CAP}")
        r_values = data.get("r_values")
        if not (isinstance(r_values, list) and r_values
                and all(type(r) is int and r >= 2 for r in r_values)):
            raise ValueError(f"r_values must be a nonempty list of integers >= 2, got {r_values!r}")
        pipelines = data.get("pipelines", [])
        if not (isinstance(pipelines, list) and all(
                isinstance(p, str) and p in _PIPELINES for p in pipelines)):
            raise ValueError(f"pipelines must be a list of names from {_PIPELINES}, got {pipelines!r}")
        constants = _object(data.get("constants", {}), "constants")
        for key, value in constants.items():
            if key not in _CONSTANTS or not _is_ratio(value):
                raise ValueError(f"constants must map {_CONSTANTS} to rational strings "
                                 f"or integers, got {key!r}: {value!r}")
        seed = data.get("seed", 0)
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {seed!r}")
        for key in ("out_json", "out_csv"):
            if not isinstance(data.get(key), (str, type(None))):
                raise ValueError(f"{key} must be a path, got {data[key]!r}")
        return cls(
            generator=dict(generator),
            r_values=list(r_values),
            pipelines=list(pipelines),
            constants=dict(constants),
            seed=seed,
            out_json=data.get("out_json"),
            out_csv=data.get("out_csv"),
        )


_PIPELINES = ("progressions", "hyperplane", "vanish")
_CONSTANTS = ("line_count_factor", "subset_factor")

# The plane search fills s_{d-1} only up to this size: for d >= 3 it visits
# all C(n, d) d-subsets, and the cap holds that to C(64, d) while covering
# the 64-point grids [8]^2 and [4]^3.
PLANE_SEARCH_MAX_N = 64
# Rows up to this size carry `oracle_audit`.  The cap dates from the cubic
# line oracle; the audit's reference is quadratic now, and the cap stays so
# that reports keep their bytes (a larger row would gain the field).
AUDIT_MAX_N = 60


_GENERATOR_KEYS = {
    "grid": ("d", "h"),
    "pasted": ("d", "ell", "copies", "h"),
    "power": ("base", "ell"),
    "sumproduct": ("A", "Q", "d"),
    "points": ("data",),
}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _is_ratio(value) -> bool:
    """An integer, or a string that Fraction reads as a finite rational."""
    if type(value) is int:
        return True
    if not isinstance(value, str):
        return False
    try:
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _size(gen: dict, key: str) -> int:
    value = gen.get(key)
    if type(value) is not int:
        raise ValueError(f"generator {key!r} must be an integer, got {value!r}")
    return value


def _scalars(gen: dict, key: str) -> list:
    values = gen.get(key)
    if not (isinstance(values, list) and all(
            isinstance(v, str) or type(v) is int for v in values)):
        raise ValueError(f"generator {key!r} must be a list of scalar strings or integers, "
                         f"got {values!r}")
    return values


def build_pointset(gen: dict) -> tuple[PointSet, list[Line] | None]:
    """Materialize a generator description; sum-product configs also return lines.

    A malformed description raises ValueError, or KeyError without a kind.
    """
    kind = gen["kind"]
    if not (isinstance(kind, str) and kind in _GENERATOR_KEYS):
        raise ValueError(f"unknown generator kind {kind!r}")
    check_known_keys(gen, ("kind", *_GENERATOR_KEYS[kind]), f"{kind} generator")
    if kind == "grid":
        return grid(_size(gen, "d"), _size(gen, "h")), None
    if kind == "pasted":
        return (
            pasted_grids(
                _size(gen, "d"), _size(gen, "ell"), _size(gen, "copies"), _size(gen, "h")
            ),
            None,
        )
    if kind == "power":
        base, _ = build_pointset(_object(gen.get("base"), "generator 'base'"))
        return cartesian_power(base, _size(gen, "ell")), None
    if kind == "sumproduct":
        ps, lines = sumproduct_config(_scalars(gen, "A"), _scalars(gen, "Q"), _size(gen, "d"))
        return ps, lines
    if kind == "points":
        from .serialization import pointset_from_dict

        return pointset_from_dict(gen["data"]), None


def _decimal(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.12g}"


def loglog_slope(sizes: list[int], counts: list[int]) -> float | None:
    """Least-squares slope of log(count) against log(size).

    The inputs are exact integers; the logs are evaluated in floating point
    for the human-facing summary only.
    """
    pts = [(math.log(n), math.log(c)) for n, c in zip(sizes, counts) if c > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    if den == 0:
        return None
    return sum((x - mx) * (y - my) for x, y, in pts) / den


def _pipeline_constants(cfg: ExperimentConfig, d: int):
    from .vanishing import PipelineConstants

    if not cfg.constants:
        return None
    base = PipelineConstants.defaults(d)
    line_factor = cfg.constants.get("line_count_factor")
    subset_factor = cfg.constants.get("subset_factor")
    return PipelineConstants(
        Fraction(line_factor) if line_factor is not None else base.line_count_factor,
        Fraction(subset_factor) if subset_factor is not None else base.subset_factor,
    )


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Measure a configuration family and tabulate bound-term ratios."""
    gen = dict(cfg.generator)
    sweep_values = gen.get("h") if isinstance(gen.get("h"), list) else None
    instances = []
    if sweep_values:
        for h in sweep_values:
            g = dict(gen)
            g["h"] = h
            instances.append(g)
    else:
        instances.append(gen)

    rows = []
    violations = []
    counts_by_r: dict[int, list[tuple[int, int]]] = {}
    for g in instances:
        ps, family_lines = build_pointset(g)
        n, d = len(ps), ps.dim
        s_values: dict[int, int] = {}
        if n <= PLANE_SEARCH_MAX_N and d >= 2:
            s_values[d - 1] = max_hyperplane_subset(ps)[0]
        for r in cfg.r_values:
            lines = rich_lines(ps, r)
            graph = incidences(ps, lines)
            row: dict = {
                "kind": g["kind"],
                "n": n,
                "d": d,
                "h": g.get("h"),
                "r": r,
                "rich_lines": len(lines),
                "incidences": graph.edge_count,
            }
            if "progressions" in cfg.pipelines:
                row["progressions"] = count_aps(ps, r)[0]
            report = bound_terms(n, r, d, s_values)
            row["terms"] = {k: format_scalar(v) for k, v in report.terms.items()}
            row["ratios"] = {
                k: format_scalar(v) if v is not None else None
                for k, v in ratios(len(lines), report).items()
            }
            row["term_ratios"] = {
                k: format_scalar(Fraction(len(lines)) / v) if v != 0 else None
                for k, v in report.terms.items()
            }
            if n <= AUDIT_MAX_N:
                audit_ok = oracle.rich_lines_match_oracle(ps, r)
                row["oracle_audit"] = audit_ok
                if not audit_ok:
                    violations.append(f"oracle mismatch at n={n} r={r}")
            if family_lines is not None:
                row["family_lines"] = len(family_lines)
                richness = min(len(L.points) for L in family_lines)
                row["family_min_richness"] = richness
            if "hyperplane" in cfg.pipelines:
                out = extract_hyperplane(ps, r, constants=_pipeline_constants(cfg, d))
                row["hyperplane_subset"] = len(out.subset)
                row["hyperplane_outcome"] = out.trace.outcome
                row["hyperplane_regime"] = out.trace.guaranteed_regime
            if "vanish" in cfg.pipelines:
                f, cert = certified_vanishing_poly(ps, r)
                row["vanish_rank_deficient"] = cert.rank_deficient
                row["vanish_degree"] = f.degree() if f else None
                if cert.rank_bounds and not cert.rank_bounds.all_hold:
                    violations.append(f"rank bound violated at n={n} r={r}")
            rows.append(row)
            counts_by_r.setdefault(r, []).append((n, len(lines)))

    slopes = {}
    if sweep_values:
        for r, pairs in counts_by_r.items():
            slope = loglog_slope([n for n, _ in pairs], [c for _, c in pairs])
            if slope is not None:
                slopes[str(r)] = f"{slope:.12g}"

    return {
        "config": {
            "generator": cfg.generator,
            "r_values": cfg.r_values,
            "pipelines": cfg.pipelines,
            "constants": cfg.constants,
            "seed": cfg.seed,
        },
        "rows": rows,
        "loglog_slopes": slopes,
        "violations": violations,
        "ok": not violations,
    }


def write_report(report: dict, out_json: str | None, out_csv: str | None) -> None:
    if out_json:
        with open(out_json, "w", encoding="utf-8") as fh:
            fh.write(dumps_json(report))
    if out_csv:
        rows = report["rows"]
        keys = ["kind", "n", "d", "h", "r", "rich_lines", "incidences", "progressions"]
        term_keys = sorted({k for row in rows for k in row.get("terms", {})})
        ratio_keys = sorted({k for row in rows for k in row.get("ratios", {})})
        tratio_keys = sorted({k for row in rows for k in row.get("term_ratios", {})})
        with open(out_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                keys
                + [f"term_{k}" for k in term_keys]
                + [f"ratio_{k}" for k in ratio_keys]
                + [f"ratio_term_{k}" for k in tratio_keys]
            )
            for row in rows:
                base = [row.get(k, "") for k in keys]
                terms = [_decimal(_parse_frac(row.get("terms", {}).get(k))) for k in term_keys]
                rats = [_decimal(_parse_frac(row.get("ratios", {}).get(k))) for k in ratio_keys]
                trats = [
                    _decimal(_parse_frac(row.get("term_ratios", {}).get(k)))
                    for k in tratio_keys
                ]
                writer.writerow(base + terms + rats + trats)


def _parse_frac(s):
    if not s:
        return None
    num, den = s.split("/")
    return Fraction(int(num), int(den))


# ---------------------------------------------------------------------------
# seeded verification suites
# ---------------------------------------------------------------------------


def _random_pointset(rng: Random, d: int, n: int, span: int = 8) -> PointSet:
    pts = set()
    guard = 0
    while len(pts) < n and guard < 50 * n:
        guard += 1
        pts.add(tuple(Fraction(rng.randint(0, span)) for _ in range(d)))
    return pointset_from(sorted(pts))


def _random_scalar_set(rng: Random, size: int) -> list[Fraction]:
    vals = set()
    while len(vals) < size:
        vals.add(Fraction(rng.randint(-6, 6)))
    return sorted(vals)


def _random_polynomial(rng: Random, d: int, deg: int) -> Polynomial:
    from .veronese import monomial_basis

    basis = monomial_basis(d, deg)
    terms = {}
    for exp in basis.exponents:
        if rng.random() < 0.5:
            c = rng.randint(-3, 3)
            if c:
                terms[exp] = Fraction(c)
    if not terms:
        terms[basis.exponents[-1]] = Fraction(1)
    return Polynomial(d, terms)


def _random_bipartite(rng: Random, max_side: int = 40) -> IncidenceGraph:
    na = rng.randint(1, max_side)
    nb = rng.randint(1, max_side)
    p = rng.random()
    edges = [
        (a, b) for a in range(na) for b in range(nb) if rng.random() < p
    ]
    if not edges:
        edges = [(rng.randrange(na), rng.randrange(nb))]
    return IncidenceGraph(tuple(range(na)), tuple(range(nb)), tuple(edges))


def check_collinear_images(seed: int = 0, samples: int = 100) -> tuple[bool, str]:
    """Embedded collinear (r+2)-tuples: rank exactly r+1, all subsets full rank."""
    rng = Random(seed)
    for trial in range(samples):
        d = rng.choice([2, 3])
        r = rng.choice([2, 3, 4, 5, 6])
        base = tuple(Fraction(rng.randint(-4, 4)) for _ in range(d))
        direction = tuple(Fraction(0) for _ in range(d))
        while all(c == 0 for c in direction):
            direction = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
        params = set()
        while len(params) < r + 2:
            params.add(Fraction(rng.randint(-40, 40), rng.randint(1, 4)))
        pts = [
            tuple(b + t * u for b, u in zip(base, direction)) for t in sorted(params)
        ]
        ps = pointset_from(pts)
        M = veronese_matrix(ps, r)
        if M.rank() != r + 1:
            return False, f"trial {trial}: rank {M.rank()} != {r + 1}"
        import itertools as it

        for combo in it.combinations(range(r + 2), r + 1):
            if M.submatrix(combo).rank() != r + 1:
                return False, f"trial {trial}: an (r+1)-subset dropped rank"
    return True, f"{samples} collinear samples"


def check_lift_and_products(seed: int = 0, samples: int = 20) -> tuple[bool, str]:
    """Progression lift bound/injectivity plus product super-multiplicativity."""
    rng = Random(seed)
    for trial in range(samples):
        d = rng.choice([1, 2])
        n = rng.randint(4, 12)
        r = rng.choice([3, 4])
        ps = _random_pointset(rng, d, n, span=6)
        ap, _ = count_aps(ps, r)
        lifted, records, lines = lift_progressions(ps, r)
        if len({(L.direction, L.base) for L in lines}) != len(records):
            return False, f"trial {trial}: lift not injective"
        rich = rich_lines(lifted, r)
        if ap > len(rich):
            return False, f"trial {trial}: AP count {ap} exceeds {len(rich)} lines"
        sq = cartesian_power(ps, 2)
        ap_sq, _ = count_aps(sq, r)
        if ap_sq < ap * ap:
            return False, f"trial {trial}: product count {ap_sq} < {ap}^2"
    return True, f"{samples} seeded sets"


def check_product_hyperplanes(seed: int = 0, samples: int = 20) -> tuple[bool, str]:
    """Density is preserved when pushing product hyperplanes down to V."""
    from .vanishing import hyperplane_from_product

    rng = Random(seed)
    done = 0
    while done < samples:
        d = rng.choice([1, 2])
        n = rng.randint(3, 8)
        ps = _random_pointset(rng, d, n, span=5)
        n = len(ps)
        normal = tuple(Fraction(rng.randint(-2, 2)) for _ in range(2 * d))
        if all(c == 0 for c in normal):
            continue
        square = cartesian_power(ps, 2)
        anchor = square.points[rng.randrange(len(square))]
        from .geometry import dot

        plane = make_hyperplane(normal, dot(anchor, normal))
        hits = sum(1 for p in square.points if plane.contains(p))
        projected, subset = hyperplane_from_product(plane, ps, 2)
        # |H' ∩ V| >= delta * n with delta = hits / n^2, compared exactly
        if len(subset) * n < hits:
            return False, f"sample {done}: density lost in projection"
        done += 1
    return True, f"{samples} seeded product hyperplanes"


def check_refinement(seed: int = 0, samples: int = 500) -> tuple[bool, str]:
    """Min-degree floors, edge retention, and stability of the refined core."""
    rng = Random(seed)
    for trial in range(samples):
        g = _random_bipartite(rng)
        res = refine(g)
        e = len(g.edges)
        if 2 * len(res.edges_kept) < e:
            return False, f"trial {trial}: lost more than half the edges"
        if not res.left_kept or not res.right_kept:
            return False, f"trial {trial}: a side emptied out"
        ind = res.induced()
        ldeg, rdeg = ind.left_degrees(), ind.right_degrees()
        if any(Fraction(ldeg[v]) < res.left_threshold for v in res.left_kept):
            return False, f"trial {trial}: left floor violated"
        if any(Fraction(rdeg[v]) < res.right_threshold for v in res.right_kept):
            return False, f"trial {trial}: right floor violated"
        # Stability of the refined core: rerunning over the original vertex
        # sets with the surviving edges must keep exactly the same survivors.
        again = refine(IncidenceGraph(g.left, g.right, res.edges_kept))
        if (
            again.left_kept != res.left_kept
            or again.right_kept != res.right_kept
        ):
            return False, f"trial {trial}: refinement not idempotent"
    return True, f"{samples} seeded graphs"


def check_zero_counts(seed: int = 0, samples: int = 200) -> tuple[bool, str]:
    """Zero counts never beat the degree bound, in both plain and slice form."""
    rng = Random(seed)
    done = 0
    while done < samples:
        d = rng.choice([2, 3])
        deg = rng.randint(1, 4)
        f = _random_polynomial(rng, d, deg)
        values = _random_scalar_set(rng, rng.randint(2, 8))
        schwartz_zippel_count(f, values)  # raises on violation
        top = f.homogeneous_part()
        schwartz_zippel_count(top, values, homogeneous_slice=True)
        done += 1
    return True, f"{samples} seeded polynomials"


def check_rank_bounds(seed: int = 0, samples: int = 100) -> tuple[bool, str]:
    """Random sparse matrices with bounded overlaps obey both rank bounds."""
    rng = Random(seed)
    for trial in range(samples):
        n = rng.randint(6, 18)
        q = rng.randint(2, min(4, n))
        target = rng.randint(n // q + 1, 3 * n)
        A = random_design_matrix(rng, n, target, q, gaussian=(trial % 7 == 0))
        rep = rank_bound_report(A)
        if not rep.all_hold:
            return False, f"trial {trial}: rank {rep.rank} below a bound"
    return True, f"{samples} random design matrices"


def check_kernel_extraction(seed: int = 0, samples: int = 25) -> tuple[bool, str]:
    """Kernel vectors of the embedding matrix exactly match vanishing sets."""
    rng = Random(seed)
    for trial in range(samples):
        deg = rng.randint(1, 3)
        # points on the graph of a random univariate polynomial of that degree
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)]
        coeffs[-1] = coeffs[-1] or Fraction(1)
        xs = rng.sample(range(-8, 9), deg + 3)
        pts = [
            (Fraction(x), sum(c * Fraction(x) ** i for i, c in enumerate(coeffs)))
            for x in xs
        ]
        ps = pointset_from(pts)
        f = find_vanishing_poly(ps, deg)
        if f is None:
            return False, f"trial {trial}: no kernel polynomial found"
        if any(f.evaluate(p) != 0 for p in ps.points):
            return False, f"trial {trial}: kernel polynomial does not vanish"
    return True, f"{samples} graph configurations"


def check_tuple_cover_properties(seed: int = 0) -> tuple[bool, str]:
    """Cover multiplicities and design parameters on small grid assemblies."""
    from .designs import assemble_design

    for d, h, r in [(2, 3, 3), (2, 4, 3), (3, 3, 3)]:
        ps = grid(d, h)
        lines = rich_lines(ps, r)
        A, _ = assemble_design(ps, lines, r)
        if A.q > r or A.t > 2:
            return False, f"grid({d},{h}) r={r}: parameters exceed (r, ., 2)"
        pair_mult: dict[tuple[int, int], int] = {}
        point_mult: dict[int, int] = {}
        for blocks in A.cover.per_line:
            for block in blocks:
                for a in block:
                    point_mult[a] = point_mult.get(a, 0) + 1
                for x in range(len(block)):
                    for y in range(x + 1, len(block)):
                        key = (block[x], block[y])
                        pair_mult[key] = pair_mult.get(key, 0) + 1
        if any(v > 2 for v in pair_mult.values()):
            return False, f"grid({d},{h}) r={r}: a pair is covered 3 times"
        line_count = [0] * len(ps)
        for line in lines:
            for i in line.points:
                line_count[i] += 1
        if any(point_mult.get(i, 0) < line_count[i] for i in range(len(ps))):
            return False, f"grid({d},{h}) r={r}: a point missed a cover"
        k, kmax = min(line_count), max(line_count)
        if kmax <= 8 * k and len(A.cover.all_tuples) * r > 16 * len(ps) * k:
            return False, f"grid({d},{h}) r={r}: cover size exceeds 16nk/r"
        if not A.product_with(veronese_matrix(ps, r - 2)).is_zero():
            return False, f"grid({d},{h}) r={r}: A*M != 0"
    return True, "grid assemblies"


CLAIM_CHECKS = [
    ("collinear-images", check_collinear_images),
    ("kernel-extraction", check_kernel_extraction),
    ("tuple-covers", check_tuple_cover_properties),
    ("progression-lift-and-products", check_lift_and_products),
    ("product-hyperplane-descent", check_product_hyperplanes),
    ("refinement", check_refinement),
    ("zero-counts", check_zero_counts),
    ("rank-bounds", check_rank_bounds),
]


def run_claim_suite(seed: int = 0) -> list[tuple[str, bool, str]]:
    out = []
    for name, fn in CLAIM_CHECKS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # pragma: no cover - surfaced as failure
            ok, detail = False, f"exception: {exc}"
        out.append((name, ok, detail))
    return out


def run_bounds_suite(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Measured counts against formulas plus the built-in oracle audit."""
    out = []
    ps = grid(2, 3)
    ok = len(rich_lines(ps, 3)) == 8
    out.append(("grid-2-3-count", ok, "expected 8 triple-rich lines"))
    for h in (4, 5, 6):
        ps = grid(2, h)
        audit = oracle.rich_lines_match_oracle(ps, 3)
        out.append((f"grid-2-{h}-audit", audit, "oracle comparison"))
    sizes, counts = [], []
    for h in (10, 20, 30):
        ps = grid(2, h)
        sizes.append(len(ps))
        counts.append(len(rich_lines(ps, 3)))
    slope = loglog_slope(sizes, counts)
    out.append(
        (
            "grid-slope",
            slope is not None and 1.7 <= slope <= 2.3,
            f"log-log slope {slope:.4f}" if slope else "missing",
        )
    )
    ps, lines = sumproduct_config([1, 2, 3], [0, 1, 2], 2)
    distinct = {(L.direction, L.base) for L in lines}
    ok = (
        len(distinct) == 9
        and all(len(L.points) >= 3 for L in lines)
        and all(
            sum(1 for i in L.points if ps.points[i][0] == 0) == 1 for L in lines
        )
    )
    out.append(("sumproduct-family", ok, "9 lines, 3-rich, one base point each"))
    return out
