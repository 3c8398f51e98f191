#!/usr/bin/env python3
"""mpshor benchmark: end-to-end and per-layer metrics for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload preselected-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

`--trace 0` times passes over the workload's unit calls with tracing off
and prints the end-to-end metrics. Their times are in reference seconds:
each call is timed with a reference-speed probe interleaved with it
(refspeed.py), so that a shared host's changing speed does not show as
a change of the program; the raw times are in the run record.
`--trace 1` alternates an untraced and a traced pass over the same
calls, fails the run if the two give different outputs, and prints the
per-layer metrics. Passes repeat until `--seconds` is used up (at least
one each); times are medians over passes. `--workload all` runs every
workload both ways, each in its own child process, so that peak memory
belongs to one workload.

Metric names and units come from BENCHMARK.json; the layer of every
metric and the end-to-end metric it should move are in
perfbench/metric_map.json. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A run
record (seed, CPU count, BLAS threads, versions, commit, failures,
per-pass and per-call times, raw and reference-second call_s.p50 and
call_s.tail, and the call sample count) is printed above it and
written, with the spans of the traced pass, to perfbench/out/.

The program is imported from src/ next to this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
BLAS is pinned to one thread; `bench_sweep` is not driven, because its
default thread pool starts min(32, cpus + 4) threads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_CHILDREN = 5
_now = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_spec():
    """(metric name -> unit for end-to-end and per-layer metrics, metric map, workload names)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    mmap = json.loads((HERE / "metric_map.json").read_text())
    units = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    listed = set(units["end_to_end"]) | set(units["per_layer"])
    if listed != set(mmap["metrics"]):
        raise SystemExit(f"metric_map.json and BENCHMARK.json disagree on {sorted(listed ^ set(mmap['metrics']))}")
    return units, mmap, [w["name"] for w in bench["workloads"]]


def import_program():
    """Import mpshor from this checkout's src/ and the workload module that drives it."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import mpshor

    if Path(mpshor.__file__).resolve().parent.parent != src:
        raise ImportError(f"mpshor came from {mpshor.__file__}, not from {src}")
    import workloads

    return workloads


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() or "unknown"


def setup_samples(args) -> list[dict]:
    """Set-up time of fresh processes: import of mpshor plus input generation."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def p90(xs: list[float]) -> float:
    """90th percentile, interpolated between samples; for the run record only."""
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def run_workload(args, units, mmap) -> int:
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    t0 = _now()
    try:
        wlmod = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    wl = wlmod.WORKLOADS[args.workload]
    items = wl.inputs(args.seed)
    setup_raw_s = _now() - t0
    setup_s = setup_raw_s * wlmod.refspeed.scale_after("small")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    run_errors, dense_s, dense_gates = wlmod.oracle_check()
    run_errors += wlmod.check_baseline_static()
    tr = Tracer() if args.trace else None
    untraced, traced, rounds = [], [], []
    start = _now()
    while True:
        r0 = _now()
        untraced.append(wlmod.untraced_pass(wl, items))
        if tr is not None:
            traced.append(wlmod.traced_pass(wl, items, tr))
        rounds.append(_now() - r0)
        # stop once another round would overrun --seconds by more than half a round
        if _now() - start + 0.5 * median(rounds) >= args.seconds:
            break
    measured_s = _now() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # output checks, outside the timed region
    inputs = dict(items)
    calls = [c for _, cs in untraced for c in cs]
    errors: list[str] = []
    failed = 0
    for c in calls:
        errs = [c["error"]] if "error" in c else wl.check(inputs[c["label"]], c["sig"])
        if errs:
            failed += 1
            errors += [f"{c['label']}: {e}" for e in errs]
    attempted = len(calls)
    for (_, ucalls), (_, sigs, _, _) in zip(untraced, traced):
        for c, sig in zip(ucalls, sigs):
            attempted += 1
            if isinstance(sig, str) or sig != c.get("sig"):
                failed += 1
                errors.append(f"{c['label']}: traced replay differs from the untraced call ({str(sig)[:200]})")

    if args.trace:
        metrics = layer_metrics(args, wlmod, tr, untraced, traced)
        metrics["dense.run_s"] = dense_s
        metrics["dense.gates_per_s"] = dense_gates / dense_s
        kind = "per_layer"
    else:
        gates = sum(c["gates"] for c in calls if "sig" in c)
        ref_sim_s = sum(c["sim_s"] * c["scale"] for c in calls if "sig" in c)
        setups = [{"setup_s": setup_s, "setup_raw_s": setup_raw_s}] + setup_samples(args)
        ref_call_s = {label: median([c["wall"] * c["scale"] for c in calls if c["label"] == label])
                      for label in inputs}
        metrics = {
            "setup_s": median([x["setup_s"] for x in setups]),
            "wall_s.ref": median([sum(c["wall"] * c["scale"] for c in cs) for _, cs in untraced]),
            "call_s.slowest.ref": max(ref_call_s.values()),
            "gates_per_s.ref": gates / ref_sim_s if ref_sim_s else 0.0,
            "ok_frac": (len(calls) - failed) / len(calls),
            "peak_rss_mb": peak_rss_mb,
        }
        kind = "end_to_end"
    if set(metrics) != set(units[kind]):
        run_errors.append(f"computed metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units[kind]))}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": measured_s,
        "pass_s": [w for w, _ in untraced],
        "traced_pass_s": [w for w, *_ in traced],
        "calls": len(calls),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "errors": errors + run_errors,
    }
    if not args.trace:
        record["setup_samples_s"] = [x["setup_s"] for x in setups]
        record["setup_raw_s"] = median([x["setup_raw_s"] for x in setups])
        record["wall_s"] = median([w for w, _ in untraced])
        record["call_s.p50"] = median([c["wall"] for c in calls])
        record["call_s.tail"] = p90([c["wall"] for c in calls])
        record["call_s.tail.ref"] = p90([c["wall"] * c["scale"] for c in calls])
        record["call_s.p50.ref"] = ref_call_s
        sim_s = sum(c["sim_s"] for c in calls if "sig" in c)
        record["gates_per_s"] = gates / sim_s if sim_s else 0.0
        record["ref_scale"] = [c["scale"] for c in calls]
        record["call_s"] = {label: [c["wall"] for c in calls if c["label"] == label] for label in inputs}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps({**record, "metrics": metrics}, indent=1))
    if tr is not None:
        tr.dump(OUT / f"spans-{stem}.jsonl")

    for k, v in record.items():
        print(f"# {k}: {v}")
    for name, value in metrics.items():
        info = mmap["metrics"][name]
        print(f"{name:<28} {value:>14.6g} {units[kind][name]:<6} [{info['layer']}] {info['moves']}")
    correct = failed == 0 and not run_errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[kind][k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def layer_metrics(args, wlmod, tr, untraced, traced) -> dict[str, float]:
    per_pass = [wlmod.layer_metrics(tr, first, acc) for _, _, acc, first in traced]
    m = {k: median([p[k] for p in per_pass]) for k in per_pass[0]}
    m["mps.svd_kernel_us.chi2"] = wlmod.svd_kernel_us(4, 400, args.seed)
    m["mps.svd_kernel_us.chi64"] = wlmod.svd_kernel_us(128, 4, args.seed)
    step = m["mps.step_us.chi_le4"]
    m["mps.svd_share.chi_le4"] = m["mps.svd_kernel_us.chi2"] / step if step else 0.0

    def per_untraced_pass(f):
        return median([sum(f(c) for c in calls) for _, calls in untraced])

    m["pipeline.overhead_s"] = per_untraced_pass(lambda c: c.get("overhead_s", 0.0))
    for report in ("entropy_report", "histogram_report"):
        m[f"bench.{report}_s"] = per_untraced_pass(lambda c: c["wall"] if c["label"] == report else 0.0)
    # passes alternate, so pair each traced pass with the untraced one just before it
    m["trace.overhead_s"] = median([t[0] - u[0] for u, t in zip(untraced, traced)])
    return m


def run_all(args, names) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900, cwd=ROOT,
            )
            print(f"## {name} trace={trace} exit={proc.returncode}")
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                summary["correct"] = False
                continue
            res = json.loads(lines[-1])
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for k, v in res["metrics"].items():
                summary["metrics"][f"{name}/{k}"] = v
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    units, mmap, names = load_spec()
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    return run_workload(args, units, mmap)


if __name__ == "__main__":
    sys.exit(main())
