"""Benchmark harness: scalability sweeps and report generators.

A sweep runs the factorization pipeline over a set of semiprimes (or
a bit range) in one or both base-selection modes and emits one flat
record per run with phase timings, so the bit-length versus time
trend can be re-plotted from the CSV alone. Histogram reports show
the measured counting-register distribution next to the ideal peak
positions k*2^t/r; entropy reports record the entanglement across the
register boundaries at every circuit checkpoint for each register
ordering.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone

from . import mps as mps_mod
from .circuit import ORDERINGS, reorder_registers, shor_order_circuit
from .numthy import SemiprimeSpec, multiplicative_order, semiprime_spec
from .pipeline import FactorizationOutcome, RunConfig, factor, run_period_finding


@dataclass
class BenchRecord:
    """One sweep row; the fields, in order, are the CSV and JSONL columns."""

    n_value: int
    bit_length: int
    mode: str
    a_used: int | None
    shots: int
    status: str
    circuit_build_seconds: float
    simulation_seconds: float
    postprocess_seconds: float
    peak_chi: int
    swap_count: int
    timestamp: str
    seed: int

    def __post_init__(self):
        if self.status not in ("success", "timeout", "exhausted"):
            raise ValueError(f"bad status {self.status!r}")
        for name in ("circuit_build_seconds", "simulation_seconds", "postprocess_seconds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.peak_chi < 1:
            raise ValueError("peak_chi must be >= 1")


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]
# CSV cell text -> field value, keyed by the field's annotation
_FROM_CSV = {
    "int": int,
    "float": float,
    "str": str,
    "int | None": lambda v: None if v == "" else int(v),
}


def record_from_outcome(
    outcome: FactorizationOutcome, mode: str, shots: int, seed: int, timestamp: str
) -> BenchRecord:
    a_used = outcome.attempts[-1].a if outcome.attempts else None
    return BenchRecord(
        n_value=outcome.n_value,
        bit_length=outcome.n_value.bit_length(),
        mode=mode,
        a_used=a_used,
        shots=shots,
        status=outcome.status,
        circuit_build_seconds=outcome.timings["circuit_build_seconds"],
        simulation_seconds=outcome.timings["simulation_seconds"],
        postprocess_seconds=outcome.timings["postprocess_seconds"],
        peak_chi=max(outcome.stats.max_chi, 1),
        swap_count=outcome.stats.swap_count,
        timestamp=timestamp,
        seed=seed,
    )


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in records:
        writer.writerow({c: getattr(r, c) for c in CSV_COLUMNS})  # None is written as ""
    return buf.getvalue()


def records_from_csv(text: str) -> list[BenchRecord]:
    return [
        BenchRecord(**{f.name: _FROM_CSV[f.type](row[f.name]) for f in fields(BenchRecord)})
        for row in csv.DictReader(io.StringIO(text))
    ]


def records_to_jsonl(records) -> str:
    return "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in records)


def records_from_jsonl(text: str) -> list[BenchRecord]:
    return [BenchRecord(**json.loads(line)) for line in text.splitlines() if line.strip()]


def _sweep_one(n: int, config: RunConfig) -> BenchRecord:
    timestamp = datetime.now(timezone.utc).isoformat()
    outcome = factor(n, config)
    return record_from_outcome(outcome, config.mode, config.shots, config.seed, timestamp)


def bench_sweep(
    targets,
    config: RunConfig,
    modes: tuple[str, ...] | None = None,
) -> list[BenchRecord]:
    """Run factor() for every target in every requested mode.

    Targets are semiprime values or SemiprimeSpec entries; every value
    is validated, and every job's config built, before the first run,
    so a bad target or mode raises ValueError without simulating
    anything. Jobs run one after another in (target, mode) order; a
    thread pool made sweeps slower, since the small numpy calls of each
    step hold the interpreter lock. Each job gets a seed derived from
    the sweep seed and its position, so identical sweeps are identical
    up to timestamps and durations. Timeouts become `timeout` records
    inside factor(); any other exception ends the sweep.
    """
    values = [
        t.value if isinstance(t, SemiprimeSpec) else semiprime_spec(int(t)).value
        for t in targets
    ]
    if not values:
        raise ValueError("no sweep targets")
    if modes is None:
        modes = (config.mode,)
    jobs = []
    for i, n in enumerate(values):
        for j, mode in enumerate(modes):
            cfg = replace(config, mode=mode, seed=config.seed + 7919 * (i * len(modes) + j))
            jobs.append((n, cfg))
    return [_sweep_one(n, cfg) for n, cfg in jobs]


@dataclass
class HistogramReport:
    n_value: int
    a: int
    t: int
    order: int
    shots: int
    counts: dict[int, int]
    expected_peaks: list[int]


def histogram_report(
    n: int, a: int, shots: int, backend: str = "mps", seed: int = 0,
    truncation: mps_mod.TruncationPolicy | None = None,
) -> HistogramReport:
    """Measured counting-register histogram plus the ideal peak positions."""
    cfg = RunConfig(
        shots=shots,
        backend=backend,
        seed=seed,
        truncation=truncation or mps_mod.TruncationPolicy(),
    )
    hist, _, _ = run_period_finding(n, a, cfg)
    r = multiplicative_order(a, n)
    t = 2 * n.bit_length()
    peaks = sorted({round(k * (1 << t) / r) % (1 << t) for k in range(r)})
    return HistogramReport(
        n_value=n, a=a, t=t, order=r, shots=shots, counts=dict(sorted(hist.items())),
        expected_peaks=peaks,
    )


def format_histogram_table(report: HistogramReport) -> str:
    lines = [
        f"N={report.n_value} a={report.a} order={report.order} "
        f"t={report.t} shots={report.shots}",
        f"ideal peaks (k*2^t/{report.order}): "
        + " ".join(str(p) for p in report.expected_peaks),
        f"{'y':>8} {'count':>8} {'freq':>8}",
    ]
    total = sum(report.counts.values())
    for y, c in report.counts.items():
        lines.append(f"{y:>8} {c:>8} {c / total:>8.4f}")
    return "\n".join(lines)


@dataclass
class EntropyReport:
    n_value: int
    a: int
    ordering: str
    rows: list[tuple[str, int, float]]  # (checkpoint label, cut, entropy bits)
    mean_entropy: float

    def __post_init__(self):
        width = 4 * self.n_value.bit_length() + 2
        for label, cut, s in self.rows:
            if not -1e-12 <= s <= min(cut, width - cut) + 1e-9:
                raise ValueError(f"entropy {s} out of bounds at {label} cut {cut}")


def entropy_report(
    n: int,
    a: int,
    orderings=ORDERINGS,
    truncation: mps_mod.TruncationPolicy | None = None,
    lambda_dump: dict[str, str] | None = None,
) -> list[EntropyReport]:
    """Register-boundary entanglement at every checkpoint, per ordering.

    Builds the order-finding circuit once, relabels it into each
    register ordering with `reorder_registers`, and simulates each on
    the MPS backend, recording the bond entropy at the two register
    boundary cuts after state preparation, after each controlled
    multiplier block, and after the final inverse Fourier transform.
    Each segment between checkpoints runs through `mps.run_circuit`.
    Every ordering is checked before the first run. `lambda_dump` maps
    an ordering to a path that receives the final Schmidt spectra for
    that run.
    """
    orderings = tuple(orderings)
    for ordering in orderings:
        if ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {ordering!r}")
    base = shor_order_circuit(n, a)
    reports = []
    for ordering in orderings:
        circ = reorder_registers(base, ordering)
        cuts = circ.layout.boundary_cuts()
        state = mps_mod.init_state(circ.width, truncation or mps_mod.TruncationPolicy())
        rows: list[tuple[str, int, float]] = []
        for label, gates in circ.segments():
            mps_mod.run_circuit(state, replace(circ, gates=gates, checkpoints=()))
            for cut in cuts:
                rows.append((label, cut, mps_mod.bond_entropy(state, cut)))
        if lambda_dump and ordering in lambda_dump:
            mps_mod.dump_lambda_spectra(state, lambda_dump[ordering])
        mean = sum(s for _, _, s in rows) / len(rows)
        reports.append(
            EntropyReport(n_value=n, a=a, ordering=ordering, rows=rows, mean_entropy=mean)
        )
    return reports


def entropy_reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n_value", "a", "ordering", "checkpoint", "cut", "entropy_bits"])
    for rep in reports:
        for label, cut, s in rep.rows:
            writer.writerow([rep.n_value, rep.a, rep.ordering, label, cut, s])
    return buf.getvalue()


def entropy_reports_to_jsonl(reports) -> str:
    lines = []
    for rep in reports:
        lines.append(
            json.dumps(
                {
                    "n_value": rep.n_value,
                    "a": rep.a,
                    "ordering": rep.ordering,
                    "mean_entropy": rep.mean_entropy,
                    "rows": [[label, cut, s] for label, cut, s in rep.rows],
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def format_entropy_summary(reports) -> str:
    lines = [f"{'ordering':<24} {'mean entropy (bits)':>20}"]
    for rep in sorted(reports, key=lambda r: -r.mean_entropy):
        lines.append(f"{rep.ordering:<24} {rep.mean_entropy:>20.6f}")
    return "\n".join(lines)


def resolve_targets(values, bits: str | None, count_per_bit: int, seed: int):
    """Sweep targets from explicit values or a min:max bit range."""
    if values and bits:
        raise ValueError("give explicit semiprimes or --bits, not both")
    if values:
        return [semiprime_spec(int(v)).value for v in values]
    if bits:
        lo, _, hi = bits.partition(":")
        from .numthy import generate_semiprimes

        specs = generate_semiprimes(int(lo), int(hi or lo), count_per_bit, seed)
        return [s.value for s in specs]
    raise ValueError("no targets given")
