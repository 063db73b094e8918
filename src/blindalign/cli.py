"""Command-line interface.

Subcommands: check, region, decompose, verify, prob. Machine-readable
output (JSON/CSV) goes to stdout; diagnostics go to stderr. Exit codes:
0 success, 1 a requested property does not hold (infeasible under
--fail-on-infeasible, failed verification), 2 malformed input, a schedule
file that cannot be read or written, an enumeration guard, or stdout closed
before the output was written.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from fractions import Fraction

from . import counting
from .diophantine import certificate_count, closed_form_solution, enumerate_certificates
from .errors import SearchBudgetExceeded
from .feasibility import check_config, feasible_region
from .pattern import ChannelConfig
from .scheduler import (
    build_schedule,
    schedule_from_dict,
    schedule_json,
    schedule_to_dict,  # unused here; the benchmark traces it under this name
    validate_schedule,
)
from .signaling import verify_schedule_end_to_end


def _parse_offsets(text: str) -> tuple[int, ...]:
    try:
        offsets = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"offsets must be a comma-separated integer list: {text!r}") from exc
    if len(offsets) < 2:
        raise ValueError("need at least 2 offsets")
    return offsets


def _cmd_check(args) -> int:
    cfg = ChannelConfig(N=args.N, offsets=_parse_offsets(args.offsets))
    report = check_config(cfg)
    lam = list(closed_form_solution(report.s)) if report.feasible else None
    if args.json:
        print(json.dumps({
            "N": cfg.N,
            "K": cfg.K,
            "offsets": list(cfg.offsets),
            "s": list(report.s),
            "min_gap": report.min_gap,
            "threshold": float(report.threshold),
            "min_gap_required": report.min_gap_required,
            "feasible": report.feasible,
            "lambda": lam,
        }))
    else:
        print(f"N={cfg.N} K={cfg.K} offsets={list(cfg.offsets)}")
        print(f"group sizes s={list(report.s)}")
        print(f"min gap {report.min_gap}, required >= N/(K+1) = "
              f"{float(report.threshold):g} (integer {report.min_gap_required})")
        print(f"feasible: {str(report.feasible).lower()}")
        if lam is not None:
            print(f"lambda: {lam}")
    if args.fail_on_infeasible and not report.feasible:
        return 1
    return 0


def _cmd_region(args) -> int:
    region = feasible_region(args.N)
    if args.format == "json":
        # one cell in memory at a time, in the bytes of json.dumps(dict)
        head = json.dumps({"N": args.N, "count": region.count, "ratio": region.ratio})
        cells = (f'{{"n2": {n2}, "n3": {n3}, "feasible": {str((n2, n3) in region).lower()}}}'
                 for n2, n3 in itertools.product(range(args.N), repeat=2))
        sys.stdout.writelines(itertools.chain(  # N >= 1: there is a first cell
            [head[:-1] + ', "points": [', next(cells)], (", " + c for c in cells), ["]}\n"]))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n2", "n3", "feasible"])
        for n2 in range(args.N):
            for n3 in range(args.N):
                writer.writerow([n2, n3, str((n2, n3) in region).lower()])
    print(f"count={region.count} total={args.N**2} ratio={region.ratio:.6g}",
          file=sys.stderr)
    return 0


def _cmd_decompose(args) -> int:
    cfg = ChannelConfig(N=args.N, offsets=_parse_offsets(args.offsets))
    report = check_config(cfg)
    if not report.feasible:
        K = cfg.K
        print(
            f"infeasible: sum(s) = {cfg.N} > (K+1)*min(s) = {(K + 1) * report.min_gap} "
            f"(min gap {report.min_gap} < N/(K+1) = {float(report.threshold):g})",
            file=sys.stderr,
        )
        return 1
    if args.all_solutions:
        count = certificate_count(report.s)
        if count * cfg.N > args.max_nodes:
            raise SearchBudgetExceeded(
                f"s={report.s} has {count} certificates of N={cfg.N} threads each, "
                f"{count * cfg.N} threads, more than the limit {args.max_nodes}")
        # one schedule in memory at a time, in the bytes of json.dumps(list)
        chunks = itertools.chain(((", " if i else "[") + schedule_json(build_schedule(cfg, lam))
                                  for i, lam in enumerate(enumerate_certificates(report.s))), ["]\n"])
    else:
        count = 1
        chunks = [schedule_json(build_schedule(cfg, closed_form_solution(report.s))) + "\n"]
    if args.out == "-":
        sys.stdout.writelines(chunks)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        print(f"cannot write schedule: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {count} schedule(s) to {args.out}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.schedule, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        print(f"cannot read schedule: {exc}", file=sys.stderr)
        return 2
    sched = schedule_from_dict(data)  # ValueError -> exit 2 via main()
    report = validate_schedule(sched)
    if not report.passed:
        for line in report.failures:
            print(f"invalid schedule: {line}", file=sys.stderr)
        print("verification: FAIL (structure)")
        return 1
    summary = verify_schedule_end_to_end(sched.cfg, sched, seed=args.seed,
                                         trials=args.trials)
    print(f"verification: {'PASS' if summary.passed else 'FAIL'}")
    print(f"tuples={summary.n_tuples} trials={summary.trials}")
    print(f"max alignment residual: {summary.max_residual:.3e}")
    print(f"min normalized singular value: {summary.min_singular:.3e}")
    dof = Fraction(2 * sched.cfg.K, sched.cfg.K + 1)
    print(f"symbols per slot: {dof} ({float(dof):g})")
    print(f"distinct threads={summary.n_distinct}")
    print(f"worst residual at {summary.residual_witness}")
    print(f"worst singular value at {summary.singular_witness}")
    return 0 if summary.passed else 1


def _parse_k_values(args) -> list[int]:
    if args.K is not None and args.K_range is not None:
        raise ValueError("give either --K or --K-range, not both")
    if args.K is not None:
        return [args.K]
    if args.K_range is not None:
        try:
            lo, hi = (int(p) for p in args.K_range.split(":"))
        except ValueError as exc:
            raise ValueError(f"--K-range must be a:b, got {args.K_range!r}") from exc
        if lo > hi:
            raise ValueError("--K-range must be increasing")
        return list(range(lo, hi + 1))
    raise ValueError("one of --K or --K-range is required")


def _cmd_prob(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    rows = []
    for K in _parse_k_values(args):
        if args.method == "mc":
            est = counting.monte_carlo_p(args.N, K, args.k_target,
                                         trials=args.trials, seed=args.seed,
                                         threads=args.threads)
        elif args.method == "bound" and args.k_target == 3:
            est = counting.p_upper_3(args.N, K)
        else:  # the pair closed form is exact, so it is also the pair bound
            est = counting.probability_exact(args.N, K, args.k_target)
        rows.append({
            "N": args.N, "K": K, "k_target": args.k_target,
            "method": args.method, "p": est.p,
            "half_width": est.half_width,
        })
    if args.format == "json":
        print(json.dumps(rows))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(rows[0])  # None is written empty, floats by repr
        writer.writerows(r.values() for r in rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindalign",
        description="Feasibility, scheduling and verification of blind "
                    "interference alignment on homogeneous block-fading "
                    "broadcast channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide feasibility of one config")
    p.add_argument("--N", type=int, required=True, help="coherence time in slots")
    p.add_argument("--offsets", required=True,
                   help="comma-separated block offsets, user 1 first")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--fail-on-infeasible", action="store_true",
                   help="exit 1 when the config is infeasible")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("region", help="enumerate the 3-user feasible offset grid")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("decompose", help="build a slot schedule for a feasible config")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--offsets", required=True)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--all-solutions", action="store_true",
                   help="emit one schedule per certificate, in lexicographic order")
    p.add_argument("--max-nodes", type=int, default=2_000_000,
                   help="guard for --all-solutions: the most threads to emit, "
                        "certificates times N; more exits 2 before any is built")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="re-validate and numerically verify a schedule file")
    p.add_argument("--schedule", required=True, help="schedule JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100,
                   help="independent channel realizations")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("prob", help="probability of finding a feasible user subset")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--K", type=int)
    p.add_argument("--K-range", dest="K_range", help="inclusive range a:b")
    p.add_argument("--k-target", type=int, choices=[2, 3], required=True)
    p.add_argument("--method", choices=["bound", "exact", "mc"], required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="cap on the Monte Carlo workers (results do not depend on it)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_prob)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchBudgetExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`): point it at devnull so
        # that the flush at shutdown does not report the broken pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry()
