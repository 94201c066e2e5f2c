"""Command line front end.

Subcommands: gen, richlines, apcount, vanish, hyperplane, verify, sweep.
Exit codes: 0 when all asserted invariants pass, 1 on a violation, 2 on
usage errors (argparse's own convention).
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ExperimentConfig,
    build_pointset,
    run_bounds_suite,
    run_claim_suite,
    run_experiment,
    write_report,
)
from .incidence import count_aps, rich_lines
from .serialization import (
    dumps_json,
    line_to_dict,
    load_json,
    pointset_from_dict,
    pointset_to_dict,
)


def _load_points(path: str):
    return pointset_from_dict(load_json(path))


def _emit(data, out: str | None) -> None:
    text = dumps_json(data)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    gen: dict = {"kind": args.kind}
    if args.kind == "grid":
        gen.update(d=args.d, h=args.h)
    elif args.kind == "pasted":
        gen.update(d=args.d, ell=args.ell, copies=args.copies, h=args.h)
    elif args.kind == "power":
        if not args.base:
            print("gen --kind power needs --base pts.json", file=sys.stderr)
            return 2
        gen.update(base={"kind": "points", "data": load_json(args.base)}, ell=args.ell)
    elif args.kind == "sumproduct":
        if not (args.A and args.Q):
            print("gen --kind sumproduct needs --A and --Q", file=sys.stderr)
            return 2
        gen.update(A=args.A.split(","), Q=args.Q.split(","), d=args.d)
    ps, lines = build_pointset(gen)
    _emit(pointset_to_dict(ps), args.out)
    if lines is not None and args.lines_out:
        _emit([line_to_dict(L) for L in lines], args.lines_out)
    return 0


def _cmd_richlines(args) -> int:
    ps = _load_points(args.infile)
    lines = rich_lines(ps, args.r)
    _emit([line_to_dict(L) for L in lines], args.out)
    return 0


def _cmd_apcount(args) -> int:
    ps = _load_points(args.infile)
    count, records = count_aps(ps, args.r)
    payload = {"r": args.r, "count": count, "convention": "unordered"}
    if args.records:
        from .scalars import format_scalar

        payload["records"] = [
            {
                "start": [format_scalar(c) for c in rec.start],
                "diff": [format_scalar(c) for c in rec.diff],
            }
            for rec in records
        ]
    _emit(payload, args.out)
    return 0


def _cmd_vanish(args) -> int:
    from .vanishing import certified_vanishing_poly, find_vanishing_poly

    if args.mode == "minimal" and args.trace:
        print("vanish --trace needs --mode lemma31", file=sys.stderr)
        return 2
    ps = _load_points(args.infile)
    if args.mode == "minimal":
        f = find_vanishing_poly(ps, args.r - 2)
        payload = {"mode": args.mode, "r": args.r, "polynomial": f, "found": f is not None}
    else:
        f, cert = certified_vanishing_poly(ps, args.r, mode="plain")
        payload = {
            "mode": args.mode,
            "r": args.r,
            "polynomial": f,
            "found": f is not None,
            "certificate": cert,
        }
    _emit(payload, args.out)
    if args.trace:
        _emit(cert, args.trace)
    if args.mode == "lemma31":
        b = cert.rank_bounds
        failed = [
            name
            for name, ok in (
                ("rank(A) >= n - n t q^2 / k", b.holds_columns),
                ("rank(A) >= n - m t q^2 / k^2", b.holds_rows),
                ("rank(A) + rank(M) <= n", b.rank_sum_ok),
            )
            if not ok
        ]
        if failed:
            print(f"error: certificate bound fails: {'; '.join(failed)}", file=sys.stderr)
            return 1
    return 0


def _cmd_hyperplane(args) -> int:
    from .vanishing import ap_hyperplane, extract_hyperplane

    ps = _load_points(args.infile)
    if args.progressions:
        out = ap_hyperplane(ps, args.r, args.ell)
    else:
        out = extract_hyperplane(ps, args.r)
    payload = {
        "found": out.found,
        "hyperplane": out.hyperplane,
        "subset": list(out.subset),
        "polynomial": getattr(out, "polynomial", None),
        "trace": out.trace,
    }
    _emit(payload, args.out)
    if args.trace:
        _emit(out.trace, args.trace)
    return 0


def _cmd_verify(args) -> int:
    results = []
    if args.suite in ("claims", "all"):
        results.extend(run_claim_suite(args.seed))
    if args.suite in ("bounds", "all"):
        results.extend(run_bounds_suite(args.seed))
    worst = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            worst = 1
    return worst


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_dict(load_json(args.config))
    report = run_experiment(cfg)
    write_report(report, args.out or cfg.out_json, args.csv or cfg.out_csv)
    if not (args.out or cfg.out_json):
        sys.stdout.write(dumps_json(report))
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richlines",
        description="Exact rich-line, vanishing-polynomial and hyperplane experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a point configuration")
    p.add_argument("--kind", required=True, choices=["grid", "pasted", "power", "sumproduct"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--h", type=int, default=3)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--copies", type=int, default=2)
    p.add_argument("--A", help="comma separated scalars for the base set")
    p.add_argument("--Q", help="comma separated scalars for the dilation set")
    p.add_argument("--base", help="point JSON for --kind power")
    p.add_argument("--out")
    p.add_argument("--lines-out", help="also dump the sum-product line family")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("richlines", help="enumerate r-rich lines")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_richlines)

    p = sub.add_parser("apcount", help="count r-term arithmetic progressions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--records", action="store_true", help="include progression records")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_apcount)

    p = sub.add_parser("vanish", help="find a vanishing polynomial")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mode", choices=["lemma31", "minimal"], default="lemma31")
    p.add_argument("--trace", help="also write the design certificate to this JSON file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_vanish)

    p = sub.add_parser("hyperplane", help="run the hyperplane extraction pipeline")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--progressions", action="store_true", help="progression pipeline")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--trace", help="also write the stage trace to this JSON file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_hyperplane)

    p = sub.add_parser("verify", help="run the seeded verification suites")
    p.add_argument("--suite", choices=["claims", "bounds", "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
