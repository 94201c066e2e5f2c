"""JSON encodings for every shared artifact.

Scalars travel as strings "p/q" (rational) or "p/q+r/s*i" (Gaussian) in all
file formats; JSON files carry exact values and are the source of truth,
while CSV renderings round to 12 significant digits for human reading.
"""

from __future__ import annotations

import json
from dataclasses import is_dataclass
from fractions import Fraction
from typing import Any

from .designs import DesignMatrix
from .geometry import Hyperplane, Line
from .pointsets import PointSet
from .scalars import FIELD_GAUSSIAN, FIELD_RATIONAL, format_scalar, parse_point, parse_scalar
from .veronese import Polynomial


def pointset_to_dict(ps: PointSet) -> dict:
    out = {
        "dim": ps.dim,
        "field": ps.field,
        "points": [[format_scalar(c) for c in p] for p in ps.points],
    }
    if ps.labels:
        out["labels"] = list(ps.labels)
    return out


def check_known_keys(obj: dict, known, what: str) -> None:
    unknown = sorted(set(obj) - {*known})
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}, expected some of {sorted(known)}")


def pointset_from_dict(data) -> PointSet:
    """Decode a point-set document; any malformed part raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a point set must be a JSON object, got {type(data).__name__}")
    check_known_keys(data, ("dim", "field", "points", "labels"), "point set")
    field = data.get("field", FIELD_RATIONAL)
    if field not in (FIELD_RATIONAL, FIELD_GAUSSIAN):
        raise ValueError(f"point set field must be 'Q' or 'Qi', got {field!r}")
    dim = data.get("dim")
    if type(dim) is not int or dim < 1:
        raise ValueError(f"point set dim must be a positive integer, got {dim!r}")
    points = data.get("points")
    if not isinstance(points, list):
        raise ValueError("point set points must be a list of points")
    if not points:
        raise ValueError("empty point set")
    pts = tuple(parse_point(p, field) for p in points)
    labels = data.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(s, str) for s in labels)
    ):
        raise ValueError("point set labels must be a list of strings")
    return PointSet(dim, field, pts, tuple(labels) if labels else None)


def line_to_dict(line: Line) -> dict:
    return {
        "dir": [format_scalar(c) for c in line.direction],
        "base": [format_scalar(c) for c in line.base],
        "points": list(line.points),
    }


def line_from_dict(data: dict, field: str = "Q") -> Line:
    return Line(
        parse_point(data["dir"], field),
        parse_point(data["base"], field),
        tuple(int(i) for i in data.get("points", [])),
    )


def hyperplane_to_dict(plane: Hyperplane) -> dict:
    return {
        "normal": [format_scalar(c) for c in plane.normal],
        "offset": format_scalar(plane.offset),
    }


def hyperplane_from_dict(data: dict, field: str = "Q") -> Hyperplane:
    return Hyperplane(
        parse_point(data["normal"], field), parse_scalar(data["offset"], field)
    )


def polynomial_to_dict(f: Polynomial) -> dict:
    return {
        "dim": f.dim,
        "terms": [
            {"exp": list(exp), "coef": format_scalar(coef)}
            for exp, coef in f.sorted_terms()
        ],
    }


def polynomial_from_dict(data: dict, field: str = "Q") -> Polynomial:
    return Polynomial(
        int(data["dim"]),
        {
            tuple(int(e) for e in term["exp"]): parse_scalar(term["coef"], field)
            for term in data["terms"]
        },
    )


def design_to_dict(A: DesignMatrix) -> dict:
    entries = sorted(A.entries.items())
    out = {
        "rows": A.rows,
        "cols": A.cols,
        "params": {"q": A.q, "k": A.k, "t": A.t},
        "entries": [[i, j, format_scalar(v)] for (i, j), v in entries],
    }
    if A.cover is not None:
        out["tuples"] = [
            [list(block) for block in line] for line in A.cover.per_line
        ]
    return out


def jsonable(value: Any) -> Any:
    """Recursively convert package values into JSON-ready structures."""
    if isinstance(value, Fraction):
        return format_scalar(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, PointSet):
        return pointset_to_dict(value)
    if isinstance(value, Line):
        return line_to_dict(value)
    if isinstance(value, Hyperplane):
        return hyperplane_to_dict(value)
    if isinstance(value, Polynomial):
        return polynomial_to_dict(value)
    if isinstance(value, DesignMatrix):
        return design_to_dict(value)
    from .scalars import GaussianRational

    if isinstance(value, GaussianRational):
        return format_scalar(value)
    if is_dataclass(value) and not isinstance(value, type):
        return {k: jsonable(v) for k, v in vars(value).items()}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    raise TypeError(f"cannot serialize {type(value)!r}")


def _encode(value: Any, indent: str) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` at nesting `indent`, with
    no closures: the pure-Python encoder that `indent` selects leaves a
    reference cycle behind on every call."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [json.dumps(k) + ": " + _encode(value[k], inner) for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_encode(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return json.dumps(value)


def dumps_json(value: Any) -> str:
    return _encode(jsonable(value), "") + "\n"


def load_json(path: str) -> Any:
    """Parse a JSON file; nesting too deep to parse raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nesting is too deep") from None
