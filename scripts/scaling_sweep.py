#!/usr/bin/env python3
"""Factorization-time scaling sweep.

Runs the full pipeline over seeded semiprimes for a range of bit
lengths, in pre-selected and (optionally) random base mode, and writes
one CSV row per run. Plot simulation_seconds against bit_length on a
log-log scale to see the scaling trend; timeouts and failures appear
as status != success rows rather than aborting the sweep.

Example:
    python3 scripts/scaling_sweep.py --bits 4:9 --out sweep.csv
    python3 scripts/scaling_sweep.py --bits 4:8 --modes preselected,random \
        --timeout-seconds 120 --out sweep_both.csv
"""

import argparse
import sys

from mpshor.bench import bench_sweep, records_to_csv
from mpshor.mps import TruncationPolicy
from mpshor.numthy import generate_semiprimes
from mpshor.pipeline import RunConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bits", default="4:8", metavar="MIN:MAX")
    ap.add_argument("--count-per-bit", type=int, default=2)
    ap.add_argument("--modes", default="preselected")
    ap.add_argument("--shots", type=int, default=8)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--chi-max", type=int, default=64)
    ap.add_argument("--timeout-seconds", type=float, default=10_000.0)
    ap.add_argument("--out", default="scaling_sweep.csv")
    args = ap.parse_args()

    lo, _, hi = args.bits.partition(":")
    specs = generate_semiprimes(int(lo), int(hi or lo), args.count_per_bit, args.seed)
    print(f"targets: {[s.value for s in specs]}")
    config = RunConfig(
        shots=args.shots,
        seed=args.seed,
        truncation=TruncationPolicy(chi_max=args.chi_max),
        timeout_seconds=args.timeout_seconds,
    )
    records = bench_sweep(specs, config, modes=tuple(args.modes.split(",")))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(records_to_csv(records))
    ok = sum(r.status == "success" for r in records)
    print(f"{ok}/{len(records)} runs succeeded; records in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
