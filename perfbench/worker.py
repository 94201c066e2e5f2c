"""One measured run of one workload, in a fresh interpreter started by run.py.

Prints one JSON object on stdout.  Set-up imports richlines from ../src and
generates the run's whole op set.  With --setup-only the worker stops right
before the first timed op and reports that moment on the monotonic clock,
which run.py compares with the moment it started this interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, to tell machine drift from regressions."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


class Run:
    """Latencies, failures and the output digest of the executions of one op set.

    The first execution of each op checks its output and feeds the digest.
    Later executions repeat the same inputs, so each of their outputs must
    be byte-identical to the first.  An op's latency is the median of its
    executions, which a short burst of load on the host does not move.
    """

    def __init__(self, workloads, ops):
        self.w = workloads
        self.ops = ops
        self.samples: list[list[float]] = [[] for _ in ops]
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self._first: list[bytes] = []

    def execute(self, i: int, tracer=None):
        """Run op i once; only the library call and its dumps_json are timed."""
        op = self.ops[i]
        first = not self.samples[i]
        if tracer is not None:
            tracer.op, tracer.recording = i, True
        start = time.perf_counter()
        try:
            result, text = self.w.run_op(op)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            elapsed = time.perf_counter() - start
            result, text = None, ""
            problems = [f"{op.label}: raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            problems = None
        if tracer is not None:
            tracer.recording = False
        digest = hashlib.sha256(text.encode()).digest()
        if first:
            self._first.append(digest)
            self.digest.update(text.encode())
            if problems is None:
                problems = self.w.check_op(op, result)
        elif problems is None:
            same = digest == self._first[i]
            problems = [] if same else [f"{op.label}: output differs from its first execution"]
        self.samples[i].append(elapsed)
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += problems

    def once(self, tracer=None):
        """Run every op once, in order."""
        for i in range(len(self.ops)):
            self.execute(i, tracer)

    def op_latencies(self) -> list[float]:
        """Each op's latency: the median of its executions, in seconds."""
        return [statistics.median(s) for s in self.samples]

    def summary(self) -> dict:
        ops_s = self.op_latencies()
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:20],
            "digest": self.digest.hexdigest(),
            "ops": len(self.ops),
            "executions_per_op": self.attempted / len(self.ops),
            "wall_s": sum(ops_s),
            "op_ms_p50": self.w.percentile(ops_s, 50) * 1000,
            "op_ms_p90": self.w.percentile(ops_s, 90) * 1000,
        }


def timed_run(workloads, ops, seconds: float) -> Run:
    """Run every op once, then cycle through the op set until `seconds` have passed."""
    run = Run(workloads, ops)
    deadline = time.monotonic() + seconds
    n = 0
    while n < len(ops) or time.monotonic() < deadline:
        run.execute(n % len(ops))
        n += 1
    return run


def traced_run(workloads, name: str, seed: int, ops, spans_out: str) -> dict:
    """The op set once untraced, then generated again and run once traced.

    Both passes run identical inputs, so their times give the tracing
    overhead and their digests must agree.
    """
    import spans

    plain = Run(workloads, ops)
    plain.once()

    tracer = spans.Tracer()
    tracer.install(also=(workloads,))
    try:
        tracer.op, tracer.recording = None, True
        ops = workloads.run_ops(name, seed)
        tracer.recording = False
        traced = Run(workloads, ops)
        traced.once(tracer=tracer)
    finally:
        tracer.uninstall()

    out = traced.summary()
    untraced = plain.summary()
    out["attempted"] += untraced["attempted"]
    out["failed"] += untraced["failed"]
    out["failures"] = (untraced["failures"] + out["failures"])[:20]
    if out["digest"] != untraced["digest"]:
        out["failed"] += 1
        out["failures"].append("traced output digest differs from the untraced one")
    metrics = spans.layer_metrics(tracer)
    metrics["bench.trace_overhead_ratio"] = out["wall_s"] / untraced["wall_s"]
    metrics["bench.calib_s"] = calibrate()
    out["layer_metrics"] = metrics
    spans.write_spans(tracer, spans_out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    ops = workloads.run_ops(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        out = {"ready": ready}
    elif args.trace:
        out = traced_run(workloads, args.workload, args.seed, ops, args.spans_out)
    else:
        out = timed_run(workloads, ops, args.seconds).summary()
        out["ready"] = ready
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["calib_s"] = calibrate()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
