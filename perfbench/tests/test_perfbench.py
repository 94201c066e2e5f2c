"""Tests of the benchmark's own machinery: spans, percentiles, inputs, metadata.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
from fractions import Fraction

import pytest

import richlines
import spans
import worker
import workloads
from richlines import designs, incidence, oracle, pasted_grids
from richlines.serialization import pointset_to_dict


def _span(sid, parent, name, start, end):
    return [sid, parent, 0, name, None, start, end]


def test_self_time_subtracts_union_of_children_with_recursion():
    # a(0..10) calls b(1..6), which calls a again (2..5), which calls c twice
    # with overlapping intervals (3..4.5 and 4..4.8); a later calls c(7..9).
    tree = [
        _span(0, None, "a", 0.0, 10.0),
        _span(1, 0, "b", 1.0, 6.0),
        _span(2, 1, "a", 2.0, 5.0),
        _span(3, 2, "c", 3.0, 4.5),
        _span(4, 2, "c", 4.0, 4.8),
        _span(5, 0, "c", 7.0, 9.0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.2, 3: 1.5, 4: 0.8, 5: 2.0})


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    t.op, t.recording = 0, True
    yield t
    t.uninstall()


def _by_name(t, name):
    return [s for s in t.spans if s[3] == name]


def test_wrapped_calls_nest_through_module_globals(tracer):
    # dependency_coeffs -> Matrix.left_nullspace -> right_nullspace -> rref:
    # rref is reached through a module global of linalg, not an import.
    pts = [(Fraction(i), Fraction(2 * i + 1)) for i in range(4)]
    designs.dependency_coeffs(pts, 2)
    # rich_lines_match_oracle imports rich_lines inside the function body.
    oracle.rich_lines_match_oracle(richlines.grid(2, 3), 3)
    tracer.recording = False

    (dep,) = _by_name(tracer, "designs.dependency_coeffs")
    (rref,) = _by_name(tracer, "linalg.rref")
    assert rref[1] == dep[0]
    (audit,) = _by_name(tracer, "oracle.rich_lines_match_oracle")
    (lines,) = _by_name(tracer, "incidence.rich_lines")
    assert lines[1] == audit[0]

    selfs = spans.self_times(tracer.spans)
    assert selfs[audit[0]] == pytest.approx((audit[6] - audit[5]) - (lines[6] - lines[5]))
    children = [s for s in tracer.spans if s[1] == dep[0]]
    assert selfs[dep[0]] == pytest.approx(
        (dep[6] - dep[5]) - sum(s[6] - s[5] for s in children)
    )
    assert all(v >= 0 for v in selfs.values())


def test_refine_calls_are_told_apart_by_order(tracer):
    out = richlines.extract_hyperplane(pasted_grids(3, 2, 2, 3), 3)
    tracer.recording = False
    assert out.found
    assert [s[4] for s in _by_name(tracer, "refinement.refine")] == ["refine", "refine2"]
    (lines,) = _by_name(tracer, "incidence.rich_lines")
    assert lines[4] == "lines"
    # Spans without a stage of their own take their caller's.
    assert {s[4] for s in _by_name(tracer, "linalg.rref")} <= {"vanish", "certify", "classify"}


def test_uninstall_restores_every_binding():
    originals = (incidence.rich_lines, richlines.rich_lines, richlines.linalg.bareiss_rank,
                 richlines.veronese.Polynomial.__dict__["evaluate"])
    t = spans.Tracer()
    t.install()
    assert richlines.vanishing.rich_lines is not originals[0]
    assert richlines.harness.rich_lines is richlines.vanishing.rich_lines
    t.uninstall()
    assert (incidence.rich_lines, richlines.rich_lines, richlines.linalg.bareiss_rank,
            richlines.veronese.Polynomial.__dict__["evaluate"]) == originals
    assert richlines.vanishing.rich_lines is originals[0]


def test_p90_refuses_fewer_than_100_samples():
    with pytest.raises(ValueError):
        workloads.percentile([0.001 * i for i in range(99)], 90)
    assert workloads.percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)


def _fingerprint(ops):
    return [(op.label, pointset_to_dict(op.ps), op.rank_sample) for op in ops]


@pytest.mark.parametrize("workload", sorted(workloads.MIXES))
def test_generation_is_deterministic_per_seed(workload):
    first = _fingerprint(workloads.cycle_ops(workload, 7, 1))
    assert first == _fingerprint(workloads.cycle_ops(workload, 7, 1))
    assert first != _fingerprint(workloads.cycle_ops(workload, 8, 1))
    assert len(first) == workloads.cycle_len(workload)
    # The seed changes maps and order, never the mix.
    assert sorted(f[0] for f in first) == sorted(
        f[0] for f in _fingerprint(workloads.cycle_ops(workload, 8, 1))
    )


def test_images_leave_the_integer_lattice():
    for op in workloads.cycle_ops("sweep", 3, 0):
        if op.kind.endswith("_image"):
            assert any(c.denominator != 1 for p in op.ps.points for c in p)


def test_run_ops_is_the_first_cycles_of_the_seed():
    ops = workloads.run_ops("sweep", 5)
    assert len(ops) >= workloads.MIN_OPS
    assert _fingerprint(ops) == _fingerprint(
        [op for c in range(workloads.min_cycles("sweep")) for op in workloads.cycle_ops("sweep", 5, c)]
    )


@pytest.mark.parametrize("shape", [("grid", 5), ("pasted", 3)])
def test_sweep_reference_agrees_with_library_and_oracle(shape):
    ps = workloads._shape(shape)
    for r in (3, 4):
        ref = workloads.sweep_reference(shape, r)
        lines = incidence.rich_lines(ps, r)
        assert ref["rich_lines"] == len(lines)
        assert ref["incidences"] == incidence.incidences(ps, lines).edge_count
        assert ref["progressions"] == oracle.ap_count_oracle(ps, r)


def test_sweep_check_catches_a_wrong_row():
    op = next(op for op in workloads.run_ops("sweep", 2) if op.kind == "sweep_image")
    report, _ = workloads.run_op(op)
    assert workloads.check_op(op, report) == []
    for key, wrong in (("progressions", -1), ("rich_lines", -1), ("terms", {})):
        bad = json.loads(json.dumps(report))
        bad["rows"][1][key] = wrong
        assert any(key in m for m in workloads.check_op(op, bad))


class _FakeWorkloads:
    """Ops are strings; op "b" returns another output from its second execution on."""

    percentile = staticmethod(workloads.percentile)

    def __init__(self):
        self.seen = []

    def run_op(self, op):
        self.seen.append(op.label)
        text = "changed" if op.label == "b" and self.seen.count("b") > 1 else op.label
        return text, text

    def check_op(self, op, result):
        return []


def test_later_executions_must_repeat_the_first_output():
    fake = _FakeWorkloads()
    ops = [workloads.Op("k", label, None) for label in ("a", "b", "c")]
    run = worker.Run(fake, ops)
    run.once()
    run.once()
    assert (run.attempted, run.failed) == (6, 1)
    assert run.failures == ["b: output differs from its first execution"]
    assert [len(s) for s in run.samples] == [2, 2, 2]


def test_timed_run_executes_every_op_at_least_once():
    fake = _FakeWorkloads()
    ops = [workloads.Op("k", str(i), None) for i in range(5)]
    run = worker.timed_run(fake, ops, seconds=0)
    assert fake.seen == [str(i) for i in range(5)]
    assert run.op_latencies() == [s[0] for s in run.samples]
