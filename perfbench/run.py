"""Benchmark entry point: one run of one workload, result as JSON on the last line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  The library is imported from ./src as it
stands; nothing is installed.  Each run uses a fresh single-threaded
interpreter with a fixed PYTHONHASHSEED (rich_lines and the oracle iterate
over dicts and sets).  --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics of a separately traced run.  See perfbench/README.md
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("sweep", "pipeline", "gaussian")
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


def _env() -> dict:
    env = dict(os.environ)
    # Bytecode caches are allowed, so set-up measures a warm import, as users see it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, *extra, timeout: float) -> tuple[float, dict]:
    """Start a fresh interpreter; returns (start time, its JSON output)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    """The richlines commit, when the benchmark runs inside a git checkout."""
    try:
        proc = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "richlines").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "richlines_commit": _commit(),
        "richlines_src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if "RICHLINES_SIZE_CAP" in os.environ:
        print("error: RICHLINES_SIZE_CAP is set; unset it so every run uses the same cap",
              file=sys.stderr)
        return 2
    if not (SRC / "richlines" / "__init__.py").is_file():
        print(f"error: no richlines sources under {SRC}", file=sys.stderr)
        return 1

    spec = json.loads(SPEC.read_text())
    try:
        if args.trace:
            spans_out = BUILD / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
            _, out = _worker(args, "--spans-out", str(spans_out), timeout=WORKER_TIMEOUT_S)
            metrics = out["layer_metrics"]
        else:
            setups = []
            for _ in range(SETUP_PROBES):
                start, probe = _worker(args, "--setup-only", timeout=PROBE_TIMEOUT_S)
                setups.append(probe["ready"] - start)
            start, out = _worker(args, timeout=WORKER_TIMEOUT_S)
            setups.append(out["ready"] - start)
            out["setup_s"] = statistics.median(setups)
            metrics = {m["name"]: out[m["name"]] for m in spec["end_to_end"]}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": out["ops"],
        "executions_per_op": out["executions_per_op"],
        "ops_failed_ratio": out["failed"] / out["attempted"],
        "output_digest": out["digest"],
        "op_ms_p90_samples": out["ops"] if not args.trace else None,
        "calib_s": out.get("calib_s", metrics.get("bench.calib_s")),
        "failures": out["failures"],
        "machine": _machine(),
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
