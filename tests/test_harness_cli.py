import contextlib
import dataclasses
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import richlines.vanishing as vanishing
from richlines.cli import main
from richlines.harness import (
    ExperimentConfig,
    build_pointset,
    loglog_slope,
    run_bounds_suite,
    run_claim_suite,
    run_experiment,
    write_report,
)
from richlines.serialization import dumps_json

F = Fraction


def test_build_pointset_kinds():
    ps, lines = build_pointset({"kind": "grid", "d": 2, "h": 3})
    assert len(ps) == 9 and lines is None
    ps, lines = build_pointset({"kind": "sumproduct", "A": [1, 2], "Q": [0, 1], "d": 2})
    assert len(ps) == 5 and len(lines) == 4
    ps, _ = build_pointset(
        {"kind": "power", "base": {"kind": "grid", "d": 1, "h": 2}, "ell": 2}
    )
    assert len(ps) == 4


def test_run_experiment_audits_small_configs():
    cfg = ExperimentConfig(
        generator={"kind": "grid", "d": 2, "h": 5}, r_values=[3, 4]
    )
    report = run_experiment(cfg)
    assert report["ok"]
    assert all(row["oracle_audit"] for row in report["rows"])


def test_run_experiment_reports_are_byte_identical():
    cfg = ExperimentConfig(
        generator={"kind": "grid", "d": 2, "h": [4, 6]},
        r_values=[3],
        pipelines=["progressions"],
        seed=7,
    )
    a = dumps_json(run_experiment(cfg))
    b = dumps_json(run_experiment(cfg))
    assert a == b


def test_run_experiment_term_ratios():
    cfg = ExperimentConfig(generator={"kind": "grid", "d": 2, "h": 10}, r_values=[3])
    row = run_experiment(cfg)["rows"][0]
    # measured count over the n^2/r^3 term, recorded exactly
    assert row["terms"]["n2_r3"] == "10000/27"
    measured = row["rich_lines"]
    num, den = row["term_ratios"]["n2_r3"].split("/")
    assert F(int(num), int(den)) == F(measured) / F(10000, 27)


def test_run_experiment_pasted_sweep_mixed_outcomes():
    cfg = ExperimentConfig(
        generator={"kind": "pasted", "d": 3, "ell": 2, "copies": 2, "h": [3, 4]},
        r_values=[4],
        pipelines=["hyperplane"],
    )
    report = run_experiment(cfg)
    by_h = {row["h"]: row for row in report["rows"]}
    assert by_h[3]["rich_lines"] == 0
    assert by_h[3]["hyperplane_outcome"] == "no-rich-lines"
    assert by_h[4]["hyperplane_subset"] == 16
    assert by_h[4]["hyperplane_outcome"] == "hyperplane"
    assert report["ok"]


def test_run_experiment_constants_override():
    cfg = ExperimentConfig(
        generator={"kind": "grid", "d": 2, "h": 4},
        r_values=[4],
        pipelines=["hyperplane"],
        constants={"line_count_factor": "1/1000000"},
    )
    report = run_experiment(cfg)
    row = report["rows"][0]
    assert row["hyperplane_outcome"] == "hyperplane"
    assert row["hyperplane_regime"] is True
    default = run_experiment(
        ExperimentConfig(
            generator={"kind": "grid", "d": 2, "h": 4},
            r_values=[4],
            pipelines=["hyperplane"],
        )
    )
    assert default["rows"][0]["hyperplane_regime"] is False


def test_write_report_files(tmp_path):
    cfg = ExperimentConfig(
        generator={"kind": "grid", "d": 2, "h": 4}, r_values=[3]
    )
    report = run_experiment(cfg)
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    write_report(report, str(out_json), str(out_csv))
    data = json.loads(out_json.read_text())
    assert data["rows"][0]["rich_lines"] == 14
    header, row, *_ = out_csv.read_text().strip().splitlines()
    assert header.startswith("kind,n,d,h,r,rich_lines")
    assert row.split(",")[5] == "14"


def test_loglog_slope_exact_power():
    sizes = [10, 100, 1000]
    counts = [n * n for n in sizes]
    assert abs(loglog_slope(sizes, counts) - 2) < 1e-12


def test_claim_suite_green():
    results = run_claim_suite(seed=0)
    assert all(ok for _, ok, _ in results), results


def test_bounds_suite_green():
    results = run_bounds_suite(seed=0)
    assert all(ok for _, ok, _ in results), results


# -- CLI ----------------------------------------------------------------------


def test_cli_gen_and_richlines(tmp_path):
    pts = tmp_path / "pts.json"
    lines = tmp_path / "lines.json"
    assert main(["gen", "--kind", "grid", "--d", "2", "--h", "3", "--out", str(pts)]) == 0
    assert main(["richlines", "--in", str(pts), "--r", "3", "--out", str(lines)]) == 0
    data = json.loads(lines.read_text())
    assert len(data) == 8


def test_cli_apcount(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    main(["gen", "--kind", "grid", "--d", "1", "--h", "10", "--out", str(pts)])
    assert main(["apcount", "--in", str(pts), "--r", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 20 and out["convention"] == "unordered"


def test_cli_vanish_modes(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    main(["gen", "--kind", "grid", "--d", "2", "--h", "3", "--out", str(pts)])
    trace = tmp_path / "trace.json"
    assert (
        main(
            [
                "vanish", "--in", str(pts), "--r", "3",
                "--mode", "lemma31", "--trace", str(trace),
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is False
    assert payload["certificate"]["rank_m"] == 3
    assert json.loads(trace.read_text()) == payload["certificate"]


@pytest.mark.parametrize(
    "field, bound",
    [
        ("holds_rows", "rank(A) >= n - m t q^2 / k^2"),
        ("rank_sum_ok", "rank(A) + rank(M) <= n"),
    ],
)
def test_cli_vanish_failed_certificate_exit_code(tmp_path, capsys, monkeypatch, field, bound):
    real = vanishing.rank_bound_report
    monkeypatch.setattr(
        vanishing,
        "rank_bound_report",
        lambda A, M: dataclasses.replace(real(A, M), **{field: False}),
    )
    pts = tmp_path / "pts.json"
    main(["gen", "--kind", "grid", "--d", "2", "--h", "3", "--out", str(pts)])
    out = tmp_path / "out.json"
    assert main(["vanish", "--in", str(pts), "--r", "3", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["certificate"]["rank_bounds"][field] is False
    err = capsys.readouterr().err
    assert err == f"error: certificate bound fails: {bound}\n"


def test_cli_vanish_minimal_mode(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    main(["gen", "--kind", "grid", "--d", "1", "--h", "5", "--out", str(pts)])
    capsys.readouterr()
    assert main(["vanish", "--in", str(pts), "--r", "4", "--mode", "minimal"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # five points of C^1 admit no vanishing polynomial of degree <= 2
    assert payload["found"] is False


def test_cli_vanish_minimal_mode_caps_a_large_r(tmp_path, capsys, monkeypatch):
    # 16 points: C(2 + 5, 2) = 21 > 16 columns bound the search at degree 5,
    # so r = 3000 builds no wider matrix than r = 7
    pts = tmp_path / "pts.json"
    main(["gen", "--kind", "grid", "--d", "2", "--h", "4", "--out", str(pts)])
    built = []
    real = vanishing.integer_veronese
    monkeypatch.setattr(vanishing, "integer_veronese",
                        lambda ps, deg: built.append(deg) or real(ps, min(deg, 6)))
    polys = []
    for r in ("7", "3000"):
        capsys.readouterr()
        assert main(["vanish", "--in", str(pts), "--r", r, "--mode", "minimal"]) == 0
        polys.append(json.loads(capsys.readouterr().out)["polynomial"])
    assert built == [5, 5]
    assert polys[0] == polys[1] and polys[0] is not None


def test_cli_vanish_minimal_mode_rejects_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    argv = ["vanish", "--in", str(tmp_path / "missing.json"), "--r", "3"]
    assert main(argv + ["--mode", "minimal", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err == "vanish --trace needs --mode lemma31\n"
    assert not trace.exists()


def test_cli_hyperplane(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    main(
        [
            "gen", "--kind", "pasted", "--d", "3", "--ell", "2",
            "--copies", "2", "--h", "4", "--out", str(pts),
        ]
    )
    assert main(["hyperplane", "--in", str(pts), "--r", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] and len(payload["subset"]) == 16


def test_cli_progressions_cap_the_lifted_power_before_building_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RICHLINES_SIZE_CAP", "100")
    pts = tmp_path / "pts.json"
    assert main(["gen", "--kind", "grid", "--d", "2", "--h", "5", "--out", str(pts)]) == 0
    argv = ["hyperplane", "--in", str(pts), "--r", "4", "--progressions", "--ell", "1000000"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: configuration of 25**1000000 points exceeds cap 100\n"


def test_cli_verify_bounds(capsys):
    # "all" adds the claims suite, progression-lift-and-products included
    for suite in ("bounds", "all"):
        assert main(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
    assert "progression-lift-and-products" in out


def test_cli_sweep(tmp_path):
    cfg = {
        "generator": {"kind": "grid", "d": 2, "h": [4, 5]},
        "r_values": [3],
        "pipelines": [],
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    assert (
        main(
            [
                "sweep", "--config", str(cfg_path),
                "--out", str(out_path), "--csv", str(csv_path),
            ]
        )
        == 0
    )
    report = json.loads(out_path.read_text())
    assert report["ok"] and len(report["rows"]) == 2
    assert csv_path.exists()


def test_cli_gen_power(tmp_path):
    base = tmp_path / "base.json"
    main(["gen", "--kind", "grid", "--d", "1", "--h", "3", "--out", str(base)])
    out = tmp_path / "power.json"
    rc = main(
        ["gen", "--kind", "power", "--base", str(base), "--ell", "2", "--out", str(out)]
    )
    assert rc == 0
    assert len(json.loads(out.read_text())["points"]) == 9


def test_cli_gen_power_requires_base(capsys):
    assert main(["gen", "--kind", "power", "--ell", "2"]) == 2
    assert "needs --base" in capsys.readouterr().err


def test_cli_gen_sumproduct_with_lines(tmp_path):
    pts = tmp_path / "sp.json"
    fam = tmp_path / "fam.json"
    assert (
        main(
            [
                "gen", "--kind", "sumproduct", "--A", "1,2,3", "--Q", "0,1,2",
                "--d", "2", "--out", str(pts), "--lines-out", str(fam),
            ]
        )
        == 0
    )
    assert len(json.loads(fam.read_text())) == 9


def test_cli_gen_sumproduct_size_cap(monkeypatch, capsys):
    monkeypatch.setenv("RICHLINES_SIZE_CAP", "100")
    A = ",".join(str(a) for a in range(1, 11))
    assert main(["gen", "--kind", "sumproduct", "--A", A, "--Q", "0", "--d", "3"]) == 1
    err = capsys.readouterr().err
    assert err == "error: configuration of 10000 lines exceeds cap 100\n"


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["richlines"])  # missing required arguments
    assert exc.value.code == 2


def test_cli_bad_input_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["richlines", "--in", str(missing), "--r", "3"]) == 1


def test_cli_zero_denominator_exit_code(tmp_path, capsys):
    pts = tmp_path / "z.json"
    for bad in ("1/0", "1/0+1/2*i", "1/2+1/0*i"):
        pts.write_text(json.dumps({"dim": 1, "field": "Qi", "points": [["1/2"], [bad]]}))
        assert main(["richlines", "--in", str(pts), "--r", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: zero denominator") and err.count("\n") == 1


def test_cli_empty_point_set_exit_code(tmp_path, capsys):
    pts = tmp_path / "empty.json"
    pts.write_text(json.dumps({"dim": 2, "field": "Q", "points": []}))
    assert main(["hyperplane", "--in", str(pts), "--r", "4"]) == 1
    assert capsys.readouterr().err == "error: empty point set\n"


def test_cli_size_cap_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RICHLINES_SIZE_CAP", "10")
    assert main(["gen", "--kind", "grid", "--d", "2", "--h", "4"]) == 1
    err = capsys.readouterr().err
    assert "exceeds cap" in err


@pytest.mark.parametrize("raw", ["abc", "0", "-1"])
def test_cli_size_cap_env_must_be_positive(monkeypatch, capsys, raw):
    monkeypatch.setenv("RICHLINES_SIZE_CAP", raw)
    assert main(["gen", "--kind", "grid", "--d", "2", "--h", "1"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: RICHLINES_SIZE_CAP must be a positive integer, got {raw!r}\n"


def test_cli_non_object_point_set_exit_code(tmp_path, capsys):
    pts = tmp_path / "a.json"
    pts.write_text(json.dumps([1, 2]))
    assert main(["richlines", "--in", str(pts), "--r", "2"]) == 1
    assert capsys.readouterr().err == "error: a point set must be a JSON object, got list\n"


def test_cli_unknown_point_set_key_exit_code(tmp_path, capsys):
    pts = tmp_path / "k.json"
    pts.write_text(json.dumps({"dim": 1, "points": [["0/1"]], "lables": ["a"], "Dim": 1}))
    assert main(["richlines", "--in", str(pts), "--r", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown point set keys ['Dim', 'lables'], "
        "expected some of ['dim', 'field', 'labels', 'points']\n"
    )


def test_cli_unknown_field_exit_code(tmp_path, capsys):
    pts = tmp_path / "z.json"
    pts.write_text(json.dumps({"dim": 2, "field": "Z", "points": [["0/1", "0/1"], ["1/1", "0/1"]]}))
    assert main(["apcount", "--in", str(pts), "--r", "2"]) == 1
    assert capsys.readouterr().err == "error: point set field must be 'Q' or 'Qi', got 'Z'\n"


_POINT_SET_KEYS = {"dim", "field", "points", "labels"}
_VALID_DOC = {"dim": 2, "field": "Q", "points": [["0/1", "1/2"], ["1/1", "-3/1"], ["2/1", "0/1"]]}
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(allow_nan=True), st.text(max_size=6)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
_not_scalar = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=True),
    st.lists(_json_leaves, max_size=2), st.dictionaries(st.text(max_size=3), _json_leaves, max_size=2),
    st.text(max_size=6).filter(lambda s: not s.strip().lstrip("-").replace("/", "", 1).isdecimal()),
)


def _with(key, value):
    return {**_VALID_DOC, key: value}


def _without(key):
    return {k: v for k, v in _VALID_DOC.items() if k != key}


def _replace_coordinate(value):
    points = [list(p) for p in _VALID_DOC["points"]]
    points[1][1] = value
    return _with("points", points)


_malformed_docs = st.one_of(
    _json_values.filter(lambda v: not isinstance(v, dict)),  # wrong top-level type
    st.sampled_from(["dim", "points"]).map(_without),
    _json_values.filter(lambda v: type(v) is not int or v < 1).map(lambda v: _with("dim", v)),
    st.integers(3, 5).map(lambda v: _with("dim", v)),  # points of the wrong dimension
    _json_values.filter(lambda v: not isinstance(v, list) or v == [] or not all(
        isinstance(p, list) for p in v
    )).map(lambda v: _with("points", v)),
    _json_values.filter(lambda v: v not in ("Q", "Qi")).map(lambda v: _with("field", v)),
    st.lists(st.just("1/1"), min_size=0, max_size=4).filter(lambda p: len(p) != 2).map(
        lambda p: _with("points", _VALID_DOC["points"][:2] + [p])  # ragged points
    ),
    _not_scalar.map(_replace_coordinate),
    _json_values.filter(lambda v: v is not None and not (
        isinstance(v, list) and all(isinstance(s, str) for s in v) and len(v) in (0, 3)
    )).map(lambda v: _with("labels", v)),
    # unknown keys, with any value
    st.tuples(st.text(max_size=6).filter(lambda k: k not in _POINT_SET_KEYS), _json_values).map(
        lambda kv: _with(*kv)
    ),
    st.just(_with("lables", ["a", "b", "c"])),
)


@settings(max_examples=300, deadline=None)
@given(_malformed_docs)
def test_cli_malformed_point_set_is_one_error_line(doc):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pts.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["richlines", "--in", path, "--r", "2"])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "flag, args",
    [
        ("--in", ["richlines", "--r", "3"]),
        ("--config", ["sweep"]),
        ("--base", ["gen", "--kind", "power"]),
    ],
)
def test_cli_deeply_nested_json_is_one_error_line(tmp_path, capsys, flag, args):
    # json.dump cannot write a document this deep, so the file is raw text.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main([*args, flag, str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {path}: JSON nesting is too deep"]


_VALID_CFG = {"generator": {"kind": "grid", "d": 2, "h": 3}, "r_values": [3]}


def _cfg_with(key, value):
    return {**_VALID_CFG, key: value}


def _gen_with(gen, key, value):
    return _cfg_with("generator", {**gen, key: value})


def _nested_power(depth):
    gen = {"kind": "grid", "d": 1, "h": 2}
    for _ in range(depth):
        gen = {"kind": "power", "base": gen, "ell": 1}
    return gen


_not_int = _json_values.filter(lambda v: type(v) is not int)
# not a size, nor a list of sizes (a list "h" sweeps over its values)
_not_size = _not_int.filter(lambda v: not (
    isinstance(v, list) and v and all(type(x) is int for x in v)
))
_sumproduct = {"kind": "sumproduct", "A": [1, 2], "Q": [0, 1], "d": 2}
_generators = {
    "grid": {"kind": "grid", "d": 2, "h": 3},
    "pasted": {"kind": "pasted", "d": 3, "ell": 2, "copies": 2, "h": 2},
    "power": {"kind": "power", "base": {"kind": "grid", "d": 1, "h": 2}, "ell": 2},
}

_valid_generators = {
    **_generators,
    "sumproduct": _sumproduct,
    "points": {"kind": "points", "data": _VALID_DOC},
}
_config_keys = ("generator", "r_values", "pipelines", "constants", "seed", "out_json", "out_csv")
# above the coordinate cap (16 per point of the default 20000-point cap)
_huge = st.integers(min_value=10**6, max_value=10**30)

_malformed_cfgs = st.one_of(
    _json_values.filter(lambda v: not isinstance(v, dict)),  # wrong top-level type
    st.sampled_from(["generator", "r_values"]).map(
        lambda k: {key: v for key, v in _VALID_CFG.items() if key != k}
    ),
    _json_values.filter(lambda v: not isinstance(v, dict)).map(lambda v: _cfg_with("generator", v)),
    _json_values.filter(lambda v: not (
        isinstance(v, list) and v and all(type(r) is int and r >= 2 for r in v)
    )).map(lambda v: _cfg_with("r_values", v)),
    st.just(_cfg_with("r_values", "34")),
    _json_values.filter(lambda v: not (
        isinstance(v, list) and all(p in ("progressions", "hyperplane", "vanish") for p in v)
    )).map(lambda v: _cfg_with("pipelines", v)),
    st.just(_cfg_with("pipelines", "progressions")),
    _not_int.map(lambda v: _cfg_with("seed", v)),
    _json_values.filter(lambda v: not isinstance(v, dict)).map(lambda v: _cfg_with("constants", v)),
    st.tuples(st.sampled_from(["line_count_factor", "subset_factor", "other"]), _not_scalar).map(
        lambda kv: _cfg_with("constants", {kv[0]: kv[1]})
    ),
    _json_values.filter(lambda v: v is not None and not isinstance(v, str)).flatmap(
        lambda v: st.sampled_from(["out_json", "out_csv"]).map(lambda k: _cfg_with(k, v))
    ),
    # generator sizes: bools, floats, strings, lists and objects instead of integers
    st.tuples(st.sampled_from(sorted(_generators)), _not_size).flatmap(
        lambda t: st.sampled_from(sorted(k for k, v in _generators[t[0]].items() if type(v) is int))
        .map(lambda k: _gen_with(_generators[t[0]], k, t[1]))
    ),
    st.just(_gen_with(_generators["grid"], "h", [[1]])),
    st.just(_gen_with(_generators["grid"], "d", [2])),
    st.lists(_not_int, min_size=1, max_size=3).map(lambda hs: _gen_with(_generators["grid"], "h", hs)),
    _json_values.filter(lambda v: not isinstance(v, dict)).map(
        lambda v: _gen_with(_generators["power"], "base", v)
    ),
    st.tuples(st.sampled_from(["A", "Q"]), _json_values.filter(lambda v: not (
        isinstance(v, list) and all(isinstance(s, str) or type(s) is int for s in v)
    ))).map(lambda kv: _gen_with(_sumproduct, kv[0], kv[1])),
    _not_int.map(lambda v: _gen_with(_sumproduct, "d", v)),
    _json_values.filter(lambda v: v not in ("grid", "pasted", "power", "sumproduct", "points")).map(
        lambda v: _gen_with({}, "kind", v)
    ),
    # unknown keys, at the top level and in each kind of generator
    st.text(max_size=6).filter(lambda k: k not in _config_keys).map(lambda k: _cfg_with(k, 0)),
    st.just(_cfg_with("r_vals", [3])),
    st.tuples(st.sampled_from(sorted(_valid_generators)), st.text(max_size=6)).filter(
        lambda t: t[1] not in _valid_generators[t[0]]
    ).map(lambda t: _gen_with(_valid_generators[t[0]], t[1], 1)),
    # coordinate counts beyond the caps; d is checked before h**d is built
    st.just(_cfg_with("generator", {"kind": "grid", "d": 10**20, "h": 1})),
    st.tuples(st.integers(1, 3), _huge).map(
        lambda t: _cfg_with("generator", {"kind": "grid", "d": t[1], "h": t[0]})
    ),
    _huge.map(lambda d: _gen_with(_generators["pasted"], "d", d)),
    _huge.map(lambda e: _gen_with(_generators["power"], "ell", e)),
    _huge.map(lambda d: _cfg_with("generator", {"kind": "sumproduct", "A": [1], "Q": [0], "d": d})),
    # powers nested past the recursion limit, rejected before any set is built
    st.just(_cfg_with("generator", _nested_power(600))),
)


@settings(max_examples=300, deadline=None)
@given(_malformed_cfgs)
def test_cli_malformed_sweep_config_is_one_error_line(cfg):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["sweep", "--config", path])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_valid_generators_build():
    # the bases of the malformed generators above are themselves valid
    for gen in _valid_generators.values():
        assert len(build_pointset(gen)[0]) > 0


def test_readme_sweep_config_loads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("A sweep config is JSON:", 1)[1].split("```json", 1)[1]
    cfg = ExperimentConfig.from_dict(json.loads(block.split("```", 1)[0]))
    assert [build_pointset({**cfg.generator, "h": h})[0].dim for h in cfg.generator["h"]] == [2] * 3
