"""Spans around the calls into each layer, recorded from outside the library.

`Tracer.install` replaces every listed public function at every module
attribute of the `richlines` package that binds it, so calls through
`from .incidence import rich_lines` and through module globals such as the
`bareiss_rank` that `Matrix.rank` calls are both seen.  `scalars` and
`geometry` are not wrapped: they are called millions of times per run and a
wrapper would dominate it; their cost shows in their callers' self time.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _n(args):
    return len(args[0])


def _dims(rows):
    rows = list(rows)
    return len(rows) * (len(rows[0]) if rows else 0)


# name -> (module, attribute path, counters(args, result) -> {quantity: amount})
TARGETS = {
    "incidence.rich_lines": (
        "richlines.incidence", "rich_lines",
        lambda a, res: {"pairs": _n(a) * (_n(a) - 1) // 2, "lines": len(res)},
    ),
    "incidence.count_aps": (
        "richlines.incidence", "count_aps",
        lambda a, res: {"pairs": _n(a) * (_n(a) - 1) // 2, "found": res[0]},
    ),
    "incidence.max_hyperplane_subset": (
        "richlines.incidence", "max_hyperplane_subset",
        lambda a, res: {"subsets": math.comb(_n(a), a[0].dim)},
    ),
    "incidence.incidences": ("richlines.incidence", "incidences", None),
    "incidence.lift_progressions": ("richlines.incidence", "lift_progressions", None),
    "oracle.rich_lines_match_oracle": ("richlines.oracle", "rich_lines_match_oracle", None),
    "harness.run_experiment": ("richlines.harness", "run_experiment", None),
    "serialization.dumps_json": (
        "richlines.serialization", "dumps_json",
        lambda a, res: {"bytes": len(res.encode())},
    ),
    "pointsets.grid": ("richlines.pointsets", "grid", None),
    "pointsets.pasted_grids": ("richlines.pointsets", "pasted_grids", None),
    "pointsets.pointset_from": ("richlines.pointsets", "pointset_from", None),
    "pointsets.cartesian_power": ("richlines.pointsets", "cartesian_power", None),
    "pointsets.index_prefix": ("richlines.pointsets", "index_prefix", None),
    "linalg.bareiss_rank": (
        "richlines.linalg", "bareiss_rank", lambda a, res: {"entries": _dims(a[0])},
    ),
    "linalg.rref": ("richlines.linalg", "rref", lambda a, res: {"entries": _dims(a[0])}),
    "veronese.veronese_matrix": (
        "richlines.veronese", "veronese_matrix",
        lambda a, res: {"entries": res.rows * res.cols},
    ),
    "veronese.Polynomial.evaluate": ("richlines.veronese", "Polynomial.evaluate", None),
    "designs.assemble_design": (
        "richlines.designs", "assemble_design", lambda a, res: {"rows": res[0].rows},
    ),
    "designs.dependency_coeffs": ("richlines.designs", "dependency_coeffs", None),
    "designs.measure_design_params": ("richlines.designs", "measure_design_params", None),
    "designs.rank_bound_report": ("richlines.designs", "rank_bound_report", None),
    "designs.DesignMatrix.product_with": ("richlines.designs", "DesignMatrix.product_with", None),
    "refinement.refine": (
        "richlines.refinement", "refine",
        lambda a, res: {"edges_in": len(a[0].edges), "edges_kept": len(res.edges_kept)},
    ),
    "refinement.dyadic_partition": ("richlines.refinement", "dyadic_partition", None),
    "vanishing.find_vanishing_poly": (
        "richlines.vanishing", "find_vanishing_poly",
        lambda a, res: {"degrees_tried": (res.degree() if res is not None else a[1]) + 1},
    ),
    "vanishing.certified_vanishing_poly": ("richlines.vanishing", "certified_vanishing_poly", None),
    "vanishing.classify_flat_points": ("richlines.vanishing", "classify_flat_points", None),
    "vanishing.extract_hyperplane": (
        "richlines.vanishing", "extract_hyperplane",
        lambda a, res: {"found": int(res.found)},
    ),
    "vanishing.ap_hyperplane": ("richlines.vanishing", "ap_hyperplane", None),
    "vanishing.hyperplane_from_product": ("richlines.vanishing", "hyperplane_from_product", None),
}

# ROADMAP pipeline stage of each span; other spans take their caller's stage.
STAGES = {
    "incidence.rich_lines": "lines",
    "incidence.incidences": "incidences",
    "refinement.refine": "refine",
    "refinement.dyadic_partition": "band",
    "vanishing.find_vanishing_poly": "vanish",
    "vanishing.certified_vanishing_poly": "certify",
    "vanishing.classify_flat_points": "classify",
    "vanishing.extract_hyperplane": "extract",
}
EXTRACT = "vanishing.extract_hyperplane"
REFINE = "refinement.refine"

# Set-up generators, reported together as pointsets.generate.
GENERATORS = ("pointsets.grid", "pointsets.pasted_grids", "pointsets.pointset_from")

# Per-layer metric names, as BENCHMARK.json lists them.
LAYER_METRICS = [
    m["name"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())[
        "per_layer"
    ]
]


class Tracer:
    """In-memory spans [id, parent, op, name, stage, start, end] plus counters.

    Spans are kept only while `recording` is set; `op` is the id of the op
    being timed, or None during input generation.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.recording = False
        self.op: int | None = None
        self._stack: list[list] = []  # [span id, name, stage, refine calls]
        self._next_id = 0
        self._undo: list[tuple] = []

    def _stage(self, name: str):
        if name == REFINE:
            for frame in reversed(self._stack):
                if frame[1] == EXTRACT:
                    frame[3] += 1
                    return "refine" if frame[3] == 1 else "refine2"
        if name in STAGES:
            return STAGES[name]
        return self._stack[-1][2] if self._stack else None

    def wrap(self, name: str, fn, counters=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            stage = tracer._stage(name)
            tracer._stack.append([sid, name, stage, 0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append([sid, parent, tracer.op, name, stage, start, end])
            if counters is not None and tracer.op is not None:
                tracer.counters[name].update(counters(args, result))
            return result

        return traced

    def install(self, targets=TARGETS, also=()):
        """Wrap each target wherever a `richlines` module, or one in `also`, binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "richlines" or k.startswith("richlines."))]
        modules += also
        for name, (module, attr, counters) in targets.items():
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], counters))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()


def write_spans(tracer: Tracer, path: str) -> None:
    """Write the recorded spans as one JSON object per line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    keys = ("id", "parent", "op", "name", "stage", "start", "end")
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _op, _name, _stage, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _op, _name, _stage, start, end in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[sid] = (end - start) - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals over the traced ops; the bench.* metrics come from the worker."""
    selfs = self_times(tracer.spans)
    self_s = Counter()
    calls = Counter()
    for sid, _parent, op, name, _stage, _start, _end in tracer.spans:
        if op is None:
            if name in GENERATORS:
                self_s["pointsets.generate"] += selfs[sid]
            continue
        self_s[name] += selfs[sid]
        calls[name] += 1
    c = tracer.counters
    out = {}
    for metric in LAYER_METRICS:
        layer, quantity = metric.rsplit(".", 1)
        if quantity == "self_s":
            out[metric] = self_s[layer]
        elif quantity == "calls":
            out[metric] = calls[layer]
        elif quantity == "hit_ratio":
            out[metric] = _ratio(c[layer]["found"], c[layer]["pairs"])
        elif quantity == "edge_keep_ratio":
            out[metric] = _ratio(c[layer]["edges_kept"], c[layer]["edges_in"])
        elif quantity == "found_ratio":
            out[metric] = _ratio(c[layer]["found"], calls[layer])
        elif layer != "bench":
            out[metric] = c[layer][quantity]
    return out
