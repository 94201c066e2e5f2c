"""Seeded inputs, operations and output checks of the benchmark workloads.

A workload is a fixed mix of operations.  One cycle holds every entry of
the mix, in a seeded order, on freshly generated inputs.  A run's op set is
the first `min_cycles` cycles, the fewest that make MIN_OPS ops; a run
repeats that op set unchanged.  Input sizes come from the mix alone.  The
seed picks affine maps, translations and the order, so it changes the
sizes of the rationals the library works with but not which ops run.  Each
op returns its library result together with the `dumps_json` text of that
result; the text feeds the run's output digest.

Checks use references the op itself does not use: the cubic line oracle,
the endpoint progression counter, the benchmark's own walk along lattice
directions, Gauss-Jordan rank against the Bareiss rank the library
reports, and the benchmark's own polynomial and hyperplane evaluation.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from richlines import (
    assemble_design,
    ap_hyperplane,
    cartesian_power,
    certified_vanishing_poly,
    extract_hyperplane,
    grid,
    pasted_grids,
    pointset_from,
    rich_lines,
)
from richlines.bounds import bound_terms
from richlines.harness import ExperimentConfig, run_experiment
from richlines.linalg import rref_rank
from richlines.oracle import ap_count_oracle
from richlines.scalars import GaussianRational, format_scalar
from richlines.serialization import dumps_json, pointset_to_dict

MIN_OPS = 100

# (kind, shape, r, copies per cycle).  Shapes: ("grid", h) is grid(2, h);
# ("pasted", h) is two parallel h x h grids in 3-space; ("line", n) is an
# n-term progression on the line.  A tuple of sizes is taken in turn, one
# per cycle, so a run's op set always holds the same sizes.  Kinds ending
# in "_image" run on a rational affine image of the shape, "_gauss" on a
# Q(i) affine image.  Copies are chosen so that the
# median and the 90th percentile of op latency fall inside a group of ops
# of similar cost rather than in the gap between two groups.
MIXES = {
    # rich_lines on both paths, count_aps, max_hyperplane_subset, the
    # oracle audit and the harness.  The h = 12-14 grids have n > 64 and
    # skip the audit and the plane search, which dominate the small ones.
    "sweep": [
        ("sweep", ("grid", 4), None, 2),
        ("sweep_image", ("grid", 4), None, 3),
        ("sweep", ("grid", 5), None, 4),
        ("sweep_image", ("grid", 5), None, 8),
        ("sweep", ("pasted", 3), None, 1),
        ("sweep_image", ("pasted", 3), None, 1),
        ("sweep", ("grid", 6), None, 2),
        ("sweep_image", ("grid", 6), None, 4),
        ("sweep", ("grid", (12, 13, 14)), None, 1),
    ],
    # Design assembly, Bareiss rank, RREF kernels, Veronese matrices,
    # refinement and the vanishing search over Q.
    "pipeline": [
        *(
            (kind, ("grid", h), r, 2 if (kind, h) == ("certify_image", 7) else 1)
            for kind in ("certify", "certify_image")
            for h in (5, 6, 7)
            for r in (4, 5)
        ),
        ("extract", ("pasted", 4), 4, 1),
        ("extract", ("pasted", 5), 4, 2),
        ("extract_image", ("pasted", 5), 4, 1),
        ("ap", ("line", 5), 4, 1),
        ("ap", ("line", 6), 4, 1),
        ("ap", ("line", 7), 4, 1),
    ],
    # The same layers through GaussianRational arithmetic.
    "gaussian": [
        ("certify_gauss", ("grid", 4), 4, 2),
        ("extract_gauss", ("pasted", 3), 3, 1),
    ],
}

SWEEP_R_VALUES = [3, 4]
AP_ELL = 2
RANK_SAMPLE_RATE = 0.25


@dataclass
class Op:
    """One library call with its generated input."""

    kind: str
    label: str
    ps: object
    r: int | None = None
    h: int | None = None
    source: tuple | None = None  # the shape the input was translated or mapped from
    rank_sample: bool = False


def cycle_len(workload: str) -> int:
    return sum(copies for *_, copies in MIXES[workload])


def min_cycles(workload: str) -> int:
    """Cycles in a run's op set: the fewest that reach MIN_OPS ops."""
    return -(-MIN_OPS // cycle_len(workload))


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _random_map(rng: Random, d: int, gaussian: bool):
    """Invertible x -> (B x) / q + t with small entries, exact arithmetic."""
    while True:
        if gaussian:
            B = [
                [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(d)]
                for _ in range(d)
            ]
        else:
            B = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        if _det(B) != 0:
            break
    q = rng.choice((2, 3, 5))
    t = [Fraction(rng.randint(-9, 9), rng.choice((2, 3))) for _ in range(d)]
    if gaussian:
        t = [GaussianRational(c, Fraction(rng.randint(-9, 9), 2)) for c in t]
    return B, q, t


def _apply(B, q, t, p):
    d = len(p)
    return tuple(sum((B[i][j] * p[j] for j in range(d)), Fraction(0)) / q + t[i] for i in range(d))


def _shape(shape) -> object:
    name, size = shape
    if name == "grid":
        return grid(2, size)
    if name == "pasted":
        return pasted_grids(3, 2, 2, size)
    raise ValueError(f"unknown shape {shape!r}")


def _translated(rng: Random, ps):
    shift = [Fraction(rng.randint(-5, 5)) for _ in range(ps.dim)]
    return pointset_from([tuple(c + s for c, s in zip(p, shift)) for p in ps.points])


def _image(rng: Random, ps, gaussian: bool):
    while True:
        B, q, t = _random_map(rng, ps.dim, gaussian)
        out = pointset_from([_apply(B, q, t, p) for p in ps.points])
        # A rational image must leave the integer lattice, or rich_lines
        # would take its integer path instead of the field path.
        if gaussian or any(c.denominator != 1 for p in out.points for c in p):
            return out


def _make_op(rng: Random, kind: str, shape, r: int | None) -> Op:
    label = f"{kind} {shape[0]}={shape[1]}" + (f" r={r}" if r else "")
    if shape[0] == "line":
        a = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
        ps = pointset_from([(a * i + b,) for i in range(shape[1])])
        return Op(kind, label, ps, r=r)
    base = _shape(shape)
    if kind.endswith(("_image", "_gauss")):
        ps = _image(rng, base, gaussian=kind.endswith("_gauss"))
    else:
        ps = _translated(rng, base)
    return Op(kind, label, ps, r=r, h=shape[1], source=shape,
              rank_sample=rng.random() < RANK_SAMPLE_RATE)


def cycle_ops(workload: str, seed: int, cycle: int) -> list[Op]:
    """The ops of one cycle; the same (workload, seed, cycle) gives the same ops."""
    rng = Random(f"{workload}:{seed}:{cycle}")
    ops = []
    for kind, (name, size), r, copies in MIXES[workload]:
        if isinstance(size, tuple):
            size = size[cycle % len(size)]
        ops += [_make_op(rng, kind, (name, size), r) for _ in range(copies)]
    rng.shuffle(ops)
    return ops


def run_ops(workload: str, seed: int) -> list[Op]:
    """A run's op set: the first min_cycles cycles; the same seed gives the same ops."""
    return [op for cycle in range(min_cycles(workload)) for op in cycle_ops(workload, seed, cycle)]


# -- operations -------------------------------------------------------------


def _run_sweep(op: Op):
    cfg = ExperimentConfig(
        generator={"kind": "points", "data": pointset_to_dict(op.ps)},
        r_values=list(SWEEP_R_VALUES),
        pipelines=["progressions"],
    )
    report = run_experiment(cfg)
    return report, dumps_json(report)


def _run_certify(op: Op):
    f, cert = certified_vanishing_poly(op.ps, op.r)
    return (f, cert), dumps_json({"polynomial": f, "certificate": cert})


def _run_extract(op: Op):
    out = extract_hyperplane(op.ps, op.r)
    return out, dumps_json(out)


def _run_ap(op: Op):
    out = ap_hyperplane(op.ps, op.r, AP_ELL)
    return out, dumps_json(out)


def run_op(op: Op):
    """Run the op's library calls; returns (result, serialized result)."""
    return _RUNNERS[op.kind.split("_")[0]](op)


# -- checks -----------------------------------------------------------------


def _evaluate(poly, p):
    """Evaluate a Polynomial from its terms, without Polynomial.evaluate."""
    total = Fraction(0)
    for exp, coef in poly.terms.items():
        term = coef
        for c, e in zip(p, exp):
            for _ in range(e):
                term = term * c
        total = total + term
    return total


def _on_plane(plane, p) -> bool:
    return sum((a * b for a, b in zip(plane.normal, p)), Fraction(0)) == plane.offset


def _monomial_rows(ps, deg: int):
    exps = [
        e for e in itertools.product(range(deg + 1), repeat=ps.dim) if sum(e) <= deg
    ]
    rows = []
    for p in ps.points:
        row = []
        for e in exps:
            v = Fraction(1)
            for c, k in zip(p, e):
                for _ in range(k):
                    v = v * c
            row.append(v)
        rows.append(row)
    return rows, len(exps)


def _incidence_sets(ps, r: int):
    return {frozenset(line.points) for line in rich_lines(ps, r)}


@functools.lru_cache(maxsize=None)
def _source_incidence_sets(shape, r: int):
    return _incidence_sets(_shape(shape), r)


def _primitive(v):
    """The primitive lattice vector along v, with its first nonzero entry positive."""
    g = 0
    for c in v:
        g = math.gcd(g, c)
    v = tuple(c // g for c in v)
    return v if next(c for c in v if c) > 0 else tuple(-c for c in v)


@functools.lru_cache(maxsize=None)
def sweep_reference(shape, r: int) -> dict:
    """What a sweep row must report for any translate or affine image of a shape.

    Counts lines, incidences and r-term progressions by walking every
    lattice direction through the integer source points, and finds the
    heaviest hyperplane by brute force; none of it calls the library.  All
    four are invariant under affine maps.
    """
    pts = [tuple(int(c) for c in p) for p in _shape(shape).points]
    members = set(pts)
    lo = [min(c) for c in zip(*pts)]
    hi = [max(c) for c in zip(*pts)]

    def inside(q):
        return all(a <= c <= b for a, b, c in zip(lo, hi, q))

    directions = {_primitive(tuple(b - a for a, b in zip(p, q)))
                  for p, q in itertools.combinations(pts, 2)}
    lines = incidences = progressions = longest = 0
    for v in directions:
        for p in pts:
            q = tuple(a - b for a, b in zip(p, v))
            while inside(q) and q not in members:
                q = tuple(a - b for a, b in zip(q, v))
            if inside(q):
                continue  # p is not the first point of its line along v
            steps, q, t = [], p, 0
            while inside(q):
                if q in members:
                    steps.append(t)
                q, t = tuple(a + b for a, b in zip(q, v)), t + 1
            longest = max(longest, len(steps))
            if len(steps) >= r:
                lines += 1
                incidences += len(steps)
            on = set(steps)
            progressions += sum(
                1 for a, b in itertools.combinations(steps, 2)
                if (b - a) % (r - 1) == 0
                and all(a + k * (b - a) // (r - 1) in on for k in range(1, r - 1))
            )
    d = len(pts[0])
    if d == 2:
        heaviest = longest
    elif d == 3:
        heaviest = 0
        for p, q, w in itertools.combinations(pts, 3):
            u = [b - a for a, b in zip(p, q)]
            x = [b - a for a, b in zip(p, w)]
            normal = (u[1] * x[2] - u[2] * x[1], u[2] * x[0] - u[0] * x[2],
                      u[0] * x[1] - u[1] * x[0])
            if any(normal):
                heaviest = max(heaviest, sum(
                    1 for y in pts if sum(c * (a - b) for c, a, b in zip(normal, y, p)) == 0
                ))
    else:
        raise ValueError(f"no hyperplane reference in dimension {d}")
    n = len(pts)
    # The harness searches the heaviest hyperplane only for n <= 64.
    terms = bound_terms(n, r, d, {d - 1: heaviest} if n <= 64 else {}).terms
    return {
        "rich_lines": lines,
        "incidences": incidences,
        "progressions": progressions,
        "terms": {k: format_scalar(v) for k, v in terms.items()},
    }


def _check_rank_bounds(cert, where: str) -> list[str]:
    b = cert.rank_bounds
    if b is None:
        return [f"{where}: certificate without rank bounds"]
    out = []
    if not b.all_hold:
        out.append(f"{where}: rank bounds fail")
    if not b.rank_sum_ok:
        out.append(f"{where}: rank(A) + rank(M) > n")
    return out


def _check_sweep(op: Op, report) -> list[str]:
    out = []
    if not report["ok"]:
        out.append(f"report not ok: {report['violations']}")
    if [row["r"] for row in report["rows"]] != SWEEP_R_VALUES:
        out.append("report rows do not cover r_values")
    for row in report["rows"]:
        r = row["r"]
        for key, want in sweep_reference(op.source, r).items():
            if row.get(key) != want:
                out.append(f"r={r}: {key} is {row.get(key)!r}, the source gives {want!r}")
        if op.kind.endswith("_image") and _incidence_sets(op.ps, r) != _source_incidence_sets(
            op.source, r
        ):
            out.append(f"r={r}: image incidences differ from the source grid")
    return out


def _check_certify(op: Op, result) -> list[str]:
    f, cert = result
    out = _check_rank_bounds(cert, "certificate")
    if f is not None:
        if any(_evaluate(f, p) != 0 for p in op.ps.points):
            out.append("polynomial does not vanish on the configuration")
    else:
        rows, size = _monomial_rows(op.ps, op.r - 2)
        if cert.rank_deficient or rref_rank(rows) != size:
            out.append("no polynomial returned but M is rank deficient")
    if op.rank_sample and cert.rank_bounds is not None:
        A, _ = assemble_design(op.ps, rich_lines(op.ps, op.r), op.r)
        if rref_rank(A.to_matrix().row_list()) != cert.rank_bounds.rank:
            out.append("rank(A) differs from the Gauss-Jordan rank")
    return out


def _check_extract(op: Op, result) -> list[str]:
    if not result.found:
        return [f"no hyperplane: {result.trace.outcome}"]
    out = []
    members = tuple(i for i, p in enumerate(op.ps.points) if _on_plane(result.hyperplane, p))
    if result.subset != members:
        out.append("subset is not the hyperplane's point set")
    if len(result.subset) != op.h * op.h:
        out.append(f"subset has {len(result.subset)} points, expected {op.h * op.h}")
    zeros = sum(1 for p in op.ps.points if _evaluate(result.polynomial, p) == 0)
    if result.polynomial.is_zero() or zeros < result.trace.second_points:
        out.append("polynomial does not vanish on the refined core")
    if result.trace.certificate is not None:
        out += _check_rank_bounds(result.trace.certificate, "extraction certificate")
    return out


def _check_ap(op: Op, result) -> list[str]:
    out = []
    expected = ap_count_oracle(cartesian_power(op.ps, AP_ELL), op.r)
    if result.trace.ap_count != expected:
        out.append(f"{result.trace.ap_count} progressions, oracle counts {expected}")
    if result.found:
        members = tuple(
            i for i, p in enumerate(op.ps.points) if _on_plane(result.hyperplane, p)
        )
        if result.subset != members:
            out.append("subset is not the hyperplane's point set")
    ex = result.trace.extraction
    if ex is not None and ex.certificate is not None:
        out += _check_rank_bounds(ex.certificate, "extraction certificate")
    return out


def check_op(op: Op, result) -> list[str]:
    """Failure messages for one op's result; empty when every check holds."""
    return [f"{op.label}: {m}" for m in _CHECKS[op.kind.split("_")[0]](op, result)]


_RUNNERS = {"sweep": _run_sweep, "certify": _run_certify, "extract": _run_extract, "ap": _run_ap}
_CHECKS = {"sweep": _check_sweep, "certify": _check_certify, "extract": _check_extract, "ap": _check_ap}


def percentile(samples, q: int) -> float:
    """The q-th percentile; needs ten samples beyond it, so at least 100 for p90."""
    need = math.ceil(10 * 100 / (100 - q))
    if len(samples) < need:
        raise ValueError(f"p{q} needs at least {need} samples, got {len(samples)}")
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
