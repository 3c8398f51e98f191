"""End-to-end integer factorization via quantum order finding.

One `factor()` call runs the classical loop: pick a base, try the gcd
shortcut, otherwise build the order-finding circuit, simulate it with
the MPS engine, sample the counting register, extract an order
candidate from each measured value by continued fractions, and derive
factors from gcd(a^(r/2) +- 1, N). Bases are either sampled
uniformly or pre-selected so the order is exactly 2, which makes the
measurement two-valued and lets a handful of shots suffice.

Outcome records serialize to JSON lines (`outcome_to_json` /
`outcome_from_json`), one record per run. A record is the
`dataclasses.asdict` of its `FactorizationOutcome`; only the keys of
each attempt's measured histogram are written as strings, and the
reader rebuilds every dataclass from its fields with `**`.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import asdict, dataclass, field

from . import mps as mps_mod
from .circuit import shor_order_circuit
from .mps import GateStats, SimulationTimeout, TruncationPolicy
from .numthy import extract_order, preselect_base, semiprime_spec

MODES = ("preselected", "random")


@dataclass(frozen=True)
class RunConfig:
    mode: str = "preselected"
    shots: int = 8
    max_attempts: int = 16
    truncation: TruncationPolicy = field(default_factory=TruncationPolicy)
    seed: int = 0
    timeout_seconds: float = 10_000.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")


@dataclass
class AttemptRecord:
    a: int
    path: str  # "gcd_shortcut" or "quantum"
    measured: dict[int, int] | None = None
    extracted_order: int | None = None
    rejection: str | None = None


@dataclass
class FactorizationOutcome:
    n_value: int
    status: str  # "success", "timeout" or "exhausted"
    factors: tuple[int, int] | None
    attempts: list[AttemptRecord]
    timings: dict[str, float]
    stats: GateStats

    def __post_init__(self):
        if self.factors is not None:
            p, q = self.factors
            if not (1 < p <= q < self.n_value and p * q == self.n_value):
                raise ValueError(f"bad factors {self.factors} for N={self.n_value}")


def choose_base(n: int, mode: str, rng: random.Random) -> int:
    """Base for one attempt: uniform over [2, N-2], or the pre-selected one."""
    if mode == "preselected":
        return preselect_base(n)
    if mode == "random":
        return rng.randrange(2, n - 1)
    raise ValueError(f"unknown mode {mode!r}")


def run_period_finding(
    n: int,
    a: int,
    config: RunConfig,
    deadline: float | None = None,
    sample_seed: int | None = None,
):
    """Build, simulate and sample the order-finding circuit for (N, a).

    Returns (histogram of measured counting-register values, phase
    timings, gate statistics). Sampling time is folded into the
    simulation phase. The deadline is checked after the circuit build,
    before every gate and once more before sampling. A SimulationTimeout
    leaves with the phase timings spent so far set on it, next to the
    statistics of the gates it completed: none when the build overran,
    all of them when it expires before sampling.
    """
    seed = config.seed if sample_seed is None else sample_seed
    t0 = time.perf_counter()
    circ = shor_order_circuit(n, a)
    t1 = time.perf_counter()
    try:
        if deadline is not None and time.monotonic() > deadline:
            raise SimulationTimeout("deadline expired during the circuit build")
        state = mps_mod.init_state(circ.width, config.truncation)
        stats = mps_mod.run_circuit(state, circ, deadline=deadline)
        if deadline is not None and time.monotonic() > deadline:
            raise SimulationTimeout("deadline expired before sampling", stats)
        counts = mps_mod.sample(state, circ.measured, config.shots, seed)
    except SimulationTimeout as exc:
        exc.timings = {
            "circuit_build_seconds": t1 - t0,
            "simulation_seconds": time.perf_counter() - t1,
        }
        raise
    t2 = time.perf_counter()
    hist = {int(bits, 2): c for bits, c in counts.items()}
    timings = {
        "circuit_build_seconds": t1 - t0,
        "simulation_seconds": t2 - t1,
    }
    return hist, timings, stats


def postprocess(histogram: dict[int, int], a: int, n: int, t: int):
    """Order and factors from one histogram of measured values.

    Returns (order, factors, rejection reason); order is the smallest
    verified candidate across shots, reduced while its half still
    satisfies a^(r/2) = 1 (mod N). A None order means every shot was
    uninformative and the attempt should be retried.
    """
    if not histogram:
        raise ValueError("histogram is empty")
    candidates = set()
    for y in sorted(histogram):
        r = extract_order(y, t, a, n)
        if r is not None:
            candidates.add(r)
    if not candidates:
        return None, None, "no order extracted"
    r = min(candidates)
    while r % 2 == 0 and pow(a, r // 2, n) == 1:
        r //= 2
    if r % 2 == 1:
        return r, None, "odd order"
    x = pow(a, r // 2, n)
    if x == n - 1:
        return r, None, "a^(r/2) = -1 (mod N)"
    # x is a square root of 1 other than +-1, and N is odd: N divides (x-1)(x+1) but
    # neither factor, and the two share no odd prime, so the gcds split N into two
    return r, tuple(sorted((math.gcd(x - 1, n), math.gcd(x + 1, n)))), None


def factor(n: int, config: RunConfig) -> FactorizationOutcome:
    """Full factorization loop for an odd square-free semiprime N."""
    spec = semiprime_spec(n)
    rng = random.Random(config.seed)
    seed_stream = random.Random(config.seed ^ 0x9E3779B97F4A7C15)
    start = time.monotonic()
    deadline = start + config.timeout_seconds
    t = 2 * spec.bit_length
    attempts: list[AttemptRecord] = []
    timings = {
        "circuit_build_seconds": 0.0,
        "simulation_seconds": 0.0,
        "postprocess_seconds": 0.0,
    }
    stats = GateStats()
    status = "exhausted"
    factors: tuple[int, int] | None = None
    while len(attempts) < config.max_attempts:
        if time.monotonic() > deadline:
            status = "timeout"
            break
        a = choose_base(n, config.mode, rng)
        g = math.gcd(a, n)
        if g != 1:
            attempts.append(AttemptRecord(a=a, path="gcd_shortcut"))
            factors = (min(g, n // g), max(g, n // g))
            status = "success"
            break
        try:
            hist, tms, st = run_period_finding(
                n, a, config, deadline=deadline, sample_seed=seed_stream.randrange(1 << 62)
            )
        except SimulationTimeout as exc:
            # the timed-out attempt's cost still counts
            hist, tms, st = None, exc.timings, exc.stats
        for k, v in tms.items():
            timings[k] += v
        stats.merge(st)
        if hist is None:
            attempts.append(AttemptRecord(a=a, path="quantum", rejection="timeout"))
            status = "timeout"
            break
        t0 = time.perf_counter()
        order, fac, reason = postprocess(hist, a, n, t)
        timings["postprocess_seconds"] += time.perf_counter() - t0
        attempts.append(
            AttemptRecord(
                a=a, path="quantum", measured=hist, extracted_order=order, rejection=reason
            )
        )
        if fac is not None:
            factors = fac
            status = "success"
            break
        if config.mode == "preselected" and reason != "no order extracted":
            # a pre-selected base has order 2 and can never hit the odd-order
            # or -1 rejections; reaching one means the pre-selection is broken
            raise RuntimeError(
                f"pre-selected base a={a} for N={n} rejected with {reason!r}"
            )
    return FactorizationOutcome(
        n_value=n,
        status=status,
        factors=factors,
        attempts=attempts,
        timings=timings,
        stats=stats,
    )


def outcome_to_json(outcome: FactorizationOutcome) -> str:
    """One-line JSON record of a factorization run."""
    d = asdict(outcome)
    for att in d["attempts"]:
        if att["measured"] is not None:
            att["measured"] = {str(k): v for k, v in att["measured"].items()}
    return json.dumps(d, sort_keys=True)


def outcome_from_json(line: str) -> FactorizationOutcome:
    d = json.loads(line)
    for att in d["attempts"]:
        if att["measured"] is not None:
            att["measured"] = {int(k): v for k, v in att["measured"].items()}
    d["attempts"] = [AttemptRecord(**att) for att in d["attempts"]]
    d["factors"] = tuple(d["factors"]) if d["factors"] else None
    d["stats"] = GateStats(**d["stats"])
    return FactorizationOutcome(**d)
