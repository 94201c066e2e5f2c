import gc
import json
from fractions import Fraction

import pytest

from richlines.designs import assemble_design
from richlines.geometry import make_hyperplane
from richlines.incidence import rich_lines
from richlines.pointsets import grid, pointset_from
from richlines.scalars import GaussianRational
from richlines.serialization import (
    design_to_dict,
    dumps_json,
    hyperplane_from_dict,
    hyperplane_to_dict,
    jsonable,
    line_from_dict,
    line_to_dict,
    pointset_from_dict,
    pointset_to_dict,
    polynomial_from_dict,
    polynomial_to_dict,
)
from richlines.veronese import Polynomial

F = Fraction


def test_pointset_roundtrip():
    ps = grid(2, 3)
    assert pointset_from_dict(pointset_to_dict(ps)) == ps


def test_pointset_scalar_strings():
    ps = pointset_from([(F(1, 2), F(-3))])
    data = pointset_to_dict(ps)
    assert data["points"] == [["1/2", "-3/1"]]


def test_gaussian_pointset_roundtrip():
    i = GaussianRational(F(0), F(1))
    ps = pointset_from([(i, i + 1), (2 * i, F(0) + i * 0)])
    data = pointset_to_dict(ps)
    assert data["field"] == "Qi"
    assert pointset_from_dict(data) == ps


def test_line_roundtrip():
    line = rich_lines(grid(2, 3), 3)[0]
    data = line_to_dict(line)
    back = line_from_dict(data)
    assert back == line
    assert back.points == line.points


def test_hyperplane_roundtrip():
    plane = make_hyperplane((F(2), F(-4)), F(6))
    data = hyperplane_to_dict(plane)
    assert data == {"normal": ["1/1", "-2/1"], "offset": "3/1"}
    assert hyperplane_from_dict(data) == plane


def test_polynomial_roundtrip_sorted_terms():
    f = Polynomial(2, {(0, 2): F(1), (2, 0): F(1), (0, 0): F(-25)})
    data = polynomial_to_dict(f)
    assert [t["exp"] for t in data["terms"]] == [[0, 0], [2, 0], [0, 2]]
    assert polynomial_from_dict(data) == f


def test_design_dump_has_sparse_triplets():
    ps = grid(2, 3)
    A, _ = assemble_design(ps, rich_lines(ps, 3), 3)
    data = design_to_dict(A)
    assert data["rows"] == 8 and data["cols"] == 9
    assert data["params"] == {"q": 3, "k": 2, "t": 1}
    assert len(data["entries"]) == 24  # 8 tuples x 3 nonzeros
    assert len(data["tuples"]) == 8


def test_dumps_json_deterministic():
    ps = grid(2, 2)
    assert dumps_json(pointset_to_dict(ps)) == dumps_json(pointset_to_dict(ps))


def test_dumps_json_handles_nested_values():
    from richlines.vanishing import extract_hyperplane
    from richlines.pointsets import pasted_grids

    out = extract_hyperplane(pasted_grids(3, 2, 2, 3), 3)
    text = dumps_json({"trace": out.trace, "hyperplane": out.hyperplane})
    assert "subset_size" in text
    edge_cases = {
        "empty": [{}, [], {"a": {}, "b": []}, [[], [{}]]],
        "strings": ["", "plain", "caf\u00e9 \u2603", "quote \" and \\ and \n"],
        "leaves": [True, False, None, 0, -7, 2.5],
        "\u00fcber": {"z": 1, "a": 2, "m": [3]},
    }
    for value in (jsonable(out.trace), jsonable(out.hyperplane), edge_cases, {}, [], "x", None):
        assert dumps_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_dumps_json_leaves_no_garbage():
    # The indenting pure-Python encoder of json.dumps leaves a reference cycle
    # behind on every call; with the collector off, that shows up as garbage.
    ps = grid(2, 3)
    A, _ = assemble_design(ps, rich_lines(ps, 3), 3)
    value = {"design": A, "points": ps, "lines": rich_lines(ps, 3)}
    gc.collect()
    gc.disable()
    try:
        dumps_json(value)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pointset_labels_roundtrip():
    ps = pointset_from([(F(0),), (F(1),)], labels=["origin", "unit"])
    data = pointset_to_dict(ps)
    assert data["labels"] == ["origin", "unit"]
    assert pointset_from_dict(data).labels == ("origin", "unit")


def test_removal_log_is_dumpable():
    from richlines.incidence import IncidenceGraph
    from richlines.refinement import refine

    g = IncidenceGraph((0, 1, 2), (0,), ((0, 0), (1, 0)))
    res = refine(g)
    text = dumps_json(res)
    assert "removals" in text and "left_kept" in text


def test_pointset_from_dict_rejects_non_object():
    for doc in ([1, 2], "points", 3, None):
        with pytest.raises(ValueError, match="JSON object"):
            pointset_from_dict(doc)


def test_pointset_from_dict_rejects_unknown_field():
    data = pointset_to_dict(grid(2, 2))
    data["field"] = "Z"
    with pytest.raises(ValueError, match="field must be 'Q' or 'Qi'"):
        pointset_from_dict(data)


def test_pointset_from_dict_field_defaults_to_rational():
    data = pointset_to_dict(grid(2, 2))
    del data["field"]
    assert pointset_from_dict(data) == grid(2, 2)


@pytest.mark.parametrize(
    "coord", [[1], {"re": 1}, None, True, 0.5, "1/2+", "one"]
)
def test_pointset_from_dict_rejects_non_scalar_coordinates(coord):
    data = {"dim": 2, "field": "Q", "points": [["1/1", "2/1"], ["3/1", coord]]}
    with pytest.raises(ValueError):
        pointset_from_dict(data)


def test_pointset_from_dict_accepts_integer_coordinates():
    data = {"dim": 2, "field": "Qi", "points": [[1, "1/2+1/3*i"], [0, -2]]}
    ps = pointset_from_dict(data)
    assert ps.points[1] == (GaussianRational(F(0), F(0)), GaussianRational(F(-2), F(0)))
