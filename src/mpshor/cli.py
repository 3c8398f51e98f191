"""Command-line frontend.

Subcommands:
    factor N        run the factorization pipeline on one semiprime
    preselect N     print the order-2 base for a semiprime
    order N A       print the multiplicative order of A modulo N
    capacity Q      print how many modulus bits fit in Q qubits
    histogram N A   measured counting-register histogram vs ideal peaks
    entropy N [A]   register-boundary entanglement per register ordering
    bench           scalability sweep over semiprimes, CSV/JSONL records

Exit codes: 0 on success, 1 when a factorization fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

from . import bench as bench_mod
from . import pipeline as pl
from .circuit import ORDERINGS
from .mps import TruncationPolicy
from .numthy import breakable_bits, multiplicative_order, preselect_base


def _add_run_options(p: argparse.ArgumentParser):
    p.add_argument("--shots", type=int, default=8, help="measurement shots per attempt")
    p.add_argument(
        "--timeout-seconds", type=float, default=10_000.0, help="wall-clock budget per run"
    )
    p.add_argument("--mode", choices=pl.MODES, default="preselected")
    p.add_argument("--chi-max", type=int, default=64, help="bond dimension cap")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-attempts", type=int, default=16)


def _add_output_options(p: argparse.ArgumentParser):
    p.add_argument("--output", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", metavar="FILE", help="write records to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpshor",
        description="MPS-simulated order finding, factorization and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor one odd square-free semiprime")
    p.add_argument("n", type=int)
    _add_run_options(p)
    _add_output_options(p)

    p = sub.add_parser("preselect", help="smallest base with order 2 modulo N")
    p.add_argument("n", type=int)

    p = sub.add_parser("order", help="multiplicative order of A modulo N")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)

    p = sub.add_parser("capacity", help="breakable modulus bits for Q qubits")
    p.add_argument("qubits", type=int)

    p = sub.add_parser("histogram", help="counting-register histogram for (N, a)")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)
    p.add_argument("--shots", type=int, default=8)
    p.add_argument("--chi-max", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE", help="write the table to FILE instead of stdout")

    p = sub.add_parser("entropy", help="register-boundary entanglement per ordering")
    p.add_argument("n", type=int)
    p.add_argument(
        "a", type=int, nargs="?", help="base; defaults to the pre-selected base of N"
    )
    p.add_argument(
        "--orderings",
        default="all",
        help="comma-separated register orderings, or 'all'",
    )
    p.add_argument("--chi-max", type=int, default=64)
    p.add_argument(
        "--dump-lambdas",
        metavar="FILE",
        help="write final Schmidt spectra per ordering to FILE.<ordering>",
    )
    _add_output_options(p)

    p = sub.add_parser("bench", help="factorization sweep over semiprimes")
    p.add_argument("targets", type=int, nargs="*", help="explicit semiprime values")
    p.add_argument("--bits", metavar="MIN:MAX", help="generate semiprimes per bit length")
    p.add_argument("--count-per-bit", type=int, default=2)
    p.add_argument(
        "--modes",
        default=None,
        help="comma-separated subset of {preselected,random}; default is --mode",
    )
    _add_run_options(p)
    _add_output_options(p)

    return parser


def _config_from_args(args) -> pl.RunConfig:
    return pl.RunConfig(
        mode=args.mode,
        shots=args.shots,
        max_attempts=args.max_attempts,
        truncation=TruncationPolicy(chi_max=args.chi_max),
        seed=args.seed,
        timeout_seconds=args.timeout_seconds,
    )


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_factor(args) -> int:
    outcome = pl.factor(args.n, _config_from_args(args))
    if args.out or args.output == "jsonl":
        if args.output == "jsonl":
            _emit(pl.outcome_to_json(outcome) + "\n", args.out)
        else:
            record = bench_mod.record_from_outcome(
                outcome, args.mode, args.shots, args.seed,
                datetime.now(timezone.utc).isoformat(),
            )
            _emit(bench_mod.records_to_csv([record]), args.out)
    if outcome.status == "success":
        p, q = outcome.factors
        print(f"{args.n} = {p} × {q}")
        return 0
    print(f"{args.n}: {outcome.status} after {len(outcome.attempts)} attempt(s)")
    return 1


def _cmd_preselect(args) -> int:
    print(preselect_base(args.n))
    return 0


def _cmd_order(args) -> int:
    print(multiplicative_order(args.a, args.n))
    return 0


def _cmd_capacity(args) -> int:
    print(breakable_bits(args.qubits))
    return 0


def _cmd_histogram(args) -> int:
    report = bench_mod.histogram_report(
        args.n,
        args.a,
        shots=args.shots,
        seed=args.seed,
        truncation=TruncationPolicy(chi_max=args.chi_max),
    )
    _emit(bench_mod.format_histogram_table(report) + "\n", args.out)
    return 0


def _cmd_entropy(args) -> int:
    orderings = ORDERINGS if args.orderings == "all" else tuple(args.orderings.split(","))
    dump = None
    if args.dump_lambdas:
        dump = {o: f"{args.dump_lambdas}.{o}" for o in orderings}
    a = preselect_base(args.n) if args.a is None else args.a
    reports = bench_mod.entropy_report(
        args.n,
        a,
        orderings,
        truncation=TruncationPolicy(chi_max=args.chi_max),
        lambda_dump=dump,
    )
    if args.output == "jsonl":
        _emit(bench_mod.records_to_jsonl(reports), args.out)
    else:
        _emit(bench_mod.entropy_reports_to_csv(reports), args.out)
    if not args.out:
        print()
        print(bench_mod.format_entropy_summary(reports))
    return 0


def _cmd_bench(args) -> int:
    targets = bench_mod.resolve_targets(
        args.targets, args.bits, args.count_per_bit, args.seed
    )
    modes = tuple(args.modes.split(",")) if args.modes else None
    records = bench_mod.bench_sweep(targets, _config_from_args(args), modes=modes)
    if args.output == "jsonl":
        _emit(bench_mod.records_to_jsonl(records), args.out)
    else:
        _emit(bench_mod.records_to_csv(records), args.out)
    return 0


_COMMANDS = {
    "factor": _cmd_factor,
    "preselect": _cmd_preselect,
    "order": _cmd_order,
    "capacity": _cmd_capacity,
    "histogram": _cmd_histogram,
    "entropy": _cmd_entropy,
    "bench": _cmd_bench,
}


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
