"""Benchmark workloads for mpshor: inputs, unit calls, traced replays, checks.

Each workload turns a seed into a list of unit calls. A pass runs every
call once through the public entry point a user would call (`factor`,
`run_period_finding` + `postprocess`, the `bench` report functions).
The traced pass replays the same calls step by step through the public
functions of each layer (`preselect_base`, `shor_order_circuit`,
`init_state`, `apply_gate` per gate, `sample`, `postprocess`, ...) and
records a span around each step. Both passes return a signature of
their outputs (histograms, factors, orders, entropies, GateStats); the
runner fails the run when the two differ.

Output checks run after the timed region, on every call's signature.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

import refspeed
from mpshor import bench, circuit, dense, mps, numthy, pipeline
from mpshor.mps import GateStats, SimulationTimeout, TruncationPolicy
from mpshor.pipeline import RunConfig

CALL_TIMEOUT_S = 60.0

# ROADMAP baseline table, (N, a) -> (gates, SVD steps, peak chi, routing swaps)
BASELINE = {
    (15, 4): (1101, 5172, 2, 4400),
    (33, 10): (2687, 18144, 2, 16116),
    (21, 2): (17141, 114808, 64, 102453),
}

_now = time.perf_counter


def ideal_peaks(r: int, t: int) -> list[int]:
    """Ideal counting-register peaks k*2^t/r, as `bench.histogram_report` lists them."""
    return sorted({round(k * (1 << t) / r) % (1 << t) for k in range(r)})


@dataclass(frozen=True)
class Static:
    """Counts read off a circuit without simulating it."""

    gates: int
    twoq: int  # two-qubit gates after CSWAP lowering
    route_swaps: int  # sum of 2(d-1) over two-qubit gates, plus explicit SWAPs
    svd_steps: int  # sum of 2(d-1)+1 over two-qubit gates


def static_counts(circ) -> Static:
    twoq = swaps = steps = 0
    for g in circ.gates:
        for h in circuit.cswap_gates(*g.targets) if g.kind == "CSWAP" else (g,):
            if h.arity == 2:
                d = abs(h.targets[0] - h.targets[1])
                twoq += 1
                swaps += 2 * (d - 1) + (h.kind == "SWAP")
                steps += 2 * (d - 1) + 1
    return Static(len(circ.gates), twoq, swaps, steps)


@lru_cache(maxsize=64)
def static_for(n: int, a: int) -> Static:
    return static_counts(circuit.shor_order_circuit(n, a))


def check_stats(n: int, a: int, stats: GateStats, runs: int) -> list[str]:
    """Measured GateStats of `runs` simulations of (N, a) against static and baseline counts."""
    st = static_for(n, a)
    errs = []
    for what, got, want in (
        ("gates", stats.gate_count, runs * st.gates),
        ("SVD steps", stats.svd_count, runs * st.svd_steps),
        ("swaps vs circuit.route_swaps", stats.swap_count, runs * st.route_swaps),
    ):
        if got != want:
            errs.append(f"({n}, {a}): {what} {got} != {want}")
    if (n, a) in BASELINE and runs:
        gates, steps, chi, _ = BASELINE[(n, a)]
        got = (stats.gate_count // runs, stats.svd_count // runs, stats.max_chi)
        if got != (gates, steps, chi):
            errs.append(f"({n}, {a}): gates/steps/peak chi {got} != baseline {(gates, steps, chi)}")
    return errs


def check_baseline_static() -> list[str]:
    """Static gate, SVD-step and route-swap counts of the baseline cases."""
    errs = []
    for (n, a), (gates, steps, _, swaps) in BASELINE.items():
        st = static_for(n, a)
        if (st.gates, st.svd_steps, st.route_swaps) != (gates, steps, swaps):
            errs.append(f"static ({n}, {a}) {st} != baseline {(gates, steps, swaps)}")
    return errs


@dataclass
class Counters:
    """Per-layer counts gathered at the step boundaries of one traced pass."""

    gates: int = 0
    twoq: int = 0
    route_swaps: int = 0
    svd_steps: int = 0
    swaps: int = 0
    peak_chi: int = 0
    peak_elements: int = 0
    max_discarded: float = 0.0
    shots: int = 0
    attempts: int = 0
    # [seconds, SVD steps] of two-qubit gate applications, by chain chi before the gate
    chi_le4: list = field(default_factory=lambda: [0.0, 0])
    chi_gt4: list = field(default_factory=lambda: [0.0, 0])

    def add_circuit(self, circ) -> None:
        st = static_counts(circ)
        self.gates += st.gates
        self.twoq += st.twoq
        self.route_swaps += st.route_swaps

    def add_stats(self, s: GateStats) -> None:
        self.svd_steps += s.svd_count
        self.swaps += s.swap_count
        self.peak_chi = max(self.peak_chi, s.max_chi)
        self.peak_elements = max(self.peak_elements, s.peak_elements)
        self.max_discarded = max(self.max_discarded, s.max_discarded_weight)


def _span_name(g) -> str:
    if g.arity == 1:
        where = "1q"
    else:
        pairs = circuit.cswap_gates(*g.targets) if g.kind == "CSWAP" else (g,)
        routed = any(abs(h.targets[0] - h.targets[1]) > 1 for h in pairs)
        where = "routed" if routed else "adjacent"
    return f"mps.apply_gate.{g.kind}.{where}"


def traced_gates(tr, state, gates, stats: GateStats, acc: Counters, deadline=None) -> None:
    """`run_circuit`'s gate loop with a span per `apply_gate`."""
    loop = tr.begin("mps.run")
    for g in gates:
        if deadline is not None and time.monotonic() > deadline:
            raise SimulationTimeout(f"deadline expired after {stats.gate_count} gates")
        chi = max(map(len, state.lambdas), default=1)
        steps0 = stats.svd_count
        span = tr.begin(_span_name(g))
        mps.apply_gate(state, g, stats)
        dt = tr.end(span)
        stats.gate_count += 1
        elems = state.element_count()
        if elems > stats.peak_elements:
            stats.peak_elements = elems
        steps = stats.svd_count - steps0
        if steps:
            bucket = acc.chi_le4 if chi <= 4 else acc.chi_gt4
            bucket[0] += dt
            bucket[1] += steps
    tr.end(loop)


def traced_run_circuit(tr, circ, policy, acc: Counters, deadline=None):
    with tr.span("mps.init_state"):
        state = mps.init_state(circ.width, policy)
    stats = GateStats(peak_elements=state.element_count())
    traced_gates(tr, state, circ.gates, stats, acc, deadline)
    acc.add_stats(stats)
    return state, stats


class Workload:
    """A seeded list of unit calls; the reason for each workload is in BENCHMARK.json."""

    name = ""
    probe = "small"  # reference-speed batch that matches the workload's work (see refspeed)

    def inputs(self, seed: int) -> list[tuple[str, object]]:
        """(label, call input) for every unit call of one pass."""
        raise NotImplementedError

    def run(self, x):
        """One untraced unit call: (signature, simulation seconds or None, gates, phase seconds or None)."""
        raise NotImplementedError

    def replay(self, x, tr, acc: Counters):
        """The same call, step by step through each layer's public functions."""
        raise NotImplementedError

    def check(self, x, sig) -> list[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class FactorInput:
    n: int
    factors: tuple[int, int]
    a: int
    peaks: tuple[int, ...]
    seed: int


class PreselectedSweep(Workload):
    name = "preselected-sweep"

    def inputs(self, seed):
        rng = random.Random(seed)
        items = []
        for spec in numthy.generate_semiprimes(4, 8, 1, seed):
            a = numthy.preselect_base(spec)
            peaks = ideal_peaks(numthy.multiplicative_order(a, spec.value), 2 * spec.bit_length)
            x = FactorInput(spec.value, (spec.p, spec.q), a, tuple(peaks), rng.randrange(1 << 31))
            items.append((f"N={spec.value}", x))
        return items

    def _config(self, x):
        return RunConfig(mode="preselected", shots=8, seed=x.seed, timeout_seconds=CALL_TIMEOUT_S)

    def run(self, x):
        out = pipeline.factor(x.n, self._config(x))
        sig = {
            "status": out.status,
            "factors": out.factors,
            "bases": [att.a for att in out.attempts],
            "hists": [sorted(att.measured.items()) for att in out.attempts if att.measured is not None],
            "stats": out.stats,
        }
        tm = out.timings
        return sig, tm["simulation_seconds"], out.stats.gate_count, sum(tm.values())

    def replay(self, x, tr, acc):
        """`factor()` with a pre-selected base, step by step."""
        cfg = self._config(x)
        seed_stream = random.Random(cfg.seed ^ 0x9E3779B97F4A7C15)
        deadline = time.monotonic() + cfg.timeout_seconds
        t = 2 * numthy.semiprime_spec(x.n).bit_length
        stats = GateStats()
        bases, hists = [], []
        status, factors = "exhausted", None
        while len(bases) < cfg.max_attempts:
            with tr.span("numthy.preselect_base"):
                a = numthy.preselect_base(x.n)
            with tr.span("circuit.shor_order_circuit"):
                circ = circuit.shor_order_circuit(x.n, a)
            acc.add_circuit(circ)
            state, st = traced_run_circuit(tr, circ, cfg.truncation, acc, deadline)
            with tr.span("mps.sample"):
                counts = mps.sample(state, circ.measured, cfg.shots, seed_stream.randrange(1 << 62))
            acc.shots += cfg.shots
            hist = {int(bits, 2): c for bits, c in counts.items()}
            stats.merge(st)
            with tr.span("pipeline.postprocess"):
                _, fac, _ = pipeline.postprocess(hist, a, x.n, t)
            acc.attempts += 1
            bases.append(a)
            hists.append(sorted(hist.items()))
            if fac is not None:
                status, factors = "success", fac
                break
        return {"status": status, "factors": factors, "bases": bases, "hists": hists, "stats": stats}

    def check(self, x, sig):
        errs = []
        if sig["status"] != "success" or sig["factors"] != tuple(sorted(x.factors)):
            errs.append(f"N={x.n}: status {sig['status']}, factors {sig['factors']}")
        for h in sig["hists"]:
            off = sorted(set(y for y, _ in h) - set(x.peaks))
            if off:
                errs.append(f"N={x.n}: measured {off} outside the ideal peaks {list(x.peaks)}")
        return errs + check_stats(x.n, x.a, sig["stats"], len(sig["hists"]))


@dataclass(frozen=True)
class OrderInput:
    a: int
    order: int
    seed: int


class RandomTruncating(Workload):
    name = "random-truncating"
    probe = "large"
    N = 21
    BASES = (2, 5, 10, 11, 17, 19)  # the bases of order 6 mod 21
    SHOTS = 128

    def inputs(self, seed):
        rng = random.Random(seed)
        a = rng.choice(self.BASES)
        x = OrderInput(a, numthy.multiplicative_order(a, self.N), rng.randrange(1 << 31))
        return [(f"N={self.N},a={a}", x)]

    def _config(self, x):
        return RunConfig(mode="random", shots=self.SHOTS, seed=x.seed, timeout_seconds=CALL_TIMEOUT_S)

    def run(self, x):
        deadline = time.monotonic() + CALL_TIMEOUT_S
        hist, tm, stats = pipeline.run_period_finding(self.N, x.a, self._config(x), deadline=deadline)
        t0 = _now()
        order, _, _ = pipeline.postprocess(hist, x.a, self.N, 2 * self.N.bit_length())
        phases = tm["circuit_build_seconds"] + tm["simulation_seconds"] + _now() - t0
        sig = {"hist": sorted(hist.items()), "order": order, "stats": stats}
        return sig, tm["simulation_seconds"], stats.gate_count, phases

    def replay(self, x, tr, acc):
        cfg = self._config(x)
        with tr.span("circuit.shor_order_circuit"):
            circ = circuit.shor_order_circuit(self.N, x.a)
        acc.add_circuit(circ)
        deadline = time.monotonic() + CALL_TIMEOUT_S
        state, stats = traced_run_circuit(tr, circ, cfg.truncation, acc, deadline)
        with tr.span("mps.sample"):
            counts = mps.sample(state, circ.measured, cfg.shots, cfg.seed)
        acc.shots += cfg.shots
        hist = {int(bits, 2): c for bits, c in counts.items()}
        with tr.span("pipeline.postprocess"):
            order, _, _ = pipeline.postprocess(hist, x.a, self.N, 2 * self.N.bit_length())
        acc.attempts += 1
        return {"hist": sorted(hist.items()), "order": order, "stats": stats}

    def check(self, x, sig):
        errs = [] if sig["order"] == x.order else [f"a={x.a}: order {sig['order']} != {x.order}"]
        return errs + check_stats(self.N, x.a, sig["stats"], 1)


@dataclass(frozen=True)
class EntropyInput:
    n: int
    a: int
    gates: int  # gates simulated by one report over all orderings


@dataclass(frozen=True)
class HistogramInput:
    n: int
    a: int
    shots: int
    seed: int
    gates: int
    support: tuple[int, ...]


class Reports(Workload):
    name = "reports"
    ENTROPY_N = 15
    HIST = (93, 32)  # 30 qubits, beyond the dense cap; 32 has order 2 mod 93
    SHOTS = 4000

    def inputs(self, seed):
        rng = random.Random(seed)
        n = self.ENTROPY_N
        a = numthy.preselect_base(n)
        ent = EntropyInput(n, a, len(circuit.ORDERINGS) * len(circuit.shor_order_circuit(n, a).gates))
        hn, ha = self.HIST
        t = 2 * hn.bit_length()
        hist = HistogramInput(
            hn, ha, self.SHOTS, rng.randrange(1 << 31),
            len(circuit.shor_order_circuit(hn, ha).gates), (0, 1 << (t - 1)),
        )
        return [("entropy_report", ent), ("histogram_report", hist)]

    def run(self, x):
        if isinstance(x, EntropyInput):
            reps = bench.entropy_report(x.n, x.a)
            sig = [(r.ordering, r.rows, r.mean_entropy) for r in reps]
            return sig, None, x.gates, None
        rep = bench.histogram_report(x.n, x.a, x.shots, seed=x.seed)
        sig = {"counts": sorted(rep.counts.items()), "order": rep.order, "peaks": rep.expected_peaks}
        return sig, None, x.gates, None

    def replay(self, x, tr, acc):
        if isinstance(x, EntropyInput):
            return self._replay_entropy(x, tr, acc)
        with tr.span("circuit.shor_order_circuit"):
            circ = circuit.shor_order_circuit(x.n, x.a)
        acc.add_circuit(circ)
        state, _ = traced_run_circuit(tr, circ, TruncationPolicy(), acc)
        with tr.span("mps.sample"):
            counts = mps.sample(state, circ.measured, x.shots, x.seed)
        acc.shots += x.shots
        with tr.span("numthy.multiplicative_order"):
            r = numthy.multiplicative_order(x.a, x.n)
        hist = {int(bits, 2): c for bits, c in counts.items()}
        return {
            "counts": sorted(hist.items()), "order": r,
            "peaks": ideal_peaks(r, 2 * x.n.bit_length()),
        }

    def _replay_entropy(self, x, tr, acc):
        with tr.span("circuit.shor_order_circuit"):
            base = circuit.shor_order_circuit(x.n, x.a)
        out = []
        for ordering in circuit.ORDERINGS:
            with tr.span("circuit.reorder_registers"):
                circ = circuit.reorder_registers(base, ordering)
            acc.add_circuit(circ)
            cuts = circ.layout.boundary_cuts()
            with tr.span("mps.init_state"):
                state = mps.init_state(circ.width, TruncationPolicy())
            stats = GateStats(peak_elements=state.element_count())
            rows = []
            for label, gates in circ.segments():
                traced_gates(tr, state, gates, stats, acc)
                for cut in cuts:
                    with tr.span("mps.bond_entropy"):
                        rows.append((label, cut, mps.bond_entropy(state, cut)))
            acc.add_stats(stats)
            out.append((ordering, rows, sum(s for _, _, s in rows) / len(rows)))
        return out

    def check(self, x, sig):
        if isinstance(x, HistogramInput):
            errs = []
            off = sorted(set(y for y, _ in sig["counts"]) - set(x.support))
            if off:
                errs.append(f"({x.n}, {x.a}): measured {off} outside {list(x.support)}")
            if sum(c for _, c in sig["counts"]) != x.shots or sig["order"] != 2:
                errs.append(f"({x.n}, {x.a}): shots or order wrong in {sig['order']}")
            return errs
        errs = []
        if [o for o, _, _ in sig] != list(circuit.ORDERINGS):
            errs.append("entropy report does not cover the six orderings")
        width = 4 * x.n.bit_length() + 2
        for ordering, rows, _ in sig:
            for label, cut, s in rows:
                if not -1e-12 <= s <= min(cut, width - cut) + 1e-9:
                    errs.append(f"{ordering} {label} cut {cut}: entropy {s} out of bounds")
        return errs


def oracle_check(n: int = 15) -> tuple[list[str], float, int]:
    """MPS and dense statevectors of one pre-selected circuit must overlap to 1 - 1e-9.

    Run once per run, before the timed region; it also warms both
    simulators up. Returns (errors, dense_run seconds, gates).
    """
    circ = circuit.shor_order_circuit(n, numthy.preselect_base(n))
    state = mps.init_state(circ.width)
    mps.run_circuit(state, circ)
    t0 = _now()
    amplitudes = dense.dense_run(circ).amplitudes
    dense_s = _now() - t0
    overlap = abs(np.vdot(mps.to_statevector(state), amplitudes))
    errs = [] if overlap >= 1 - 1e-9 else [f"MPS/dense overlap {overlap!r} < 1 - 1e-9 on N={n}"]
    return errs, dense_s, len(circ.gates)


WORKLOADS = {w.name: w for w in (PreselectedSweep(), RandomTruncating(), Reports())}


def untraced_pass(wl: Workload, items):
    """Run every unit call once under a reference-speed sampler.

    Returns (pass wall seconds, per-call records). A call's `wall` leaves
    out the time its probes took, and its phase timings lose the same
    share (the probes fire at a fixed period, so each phase holds its
    share of them); its `scale` turns its seconds into reference seconds
    (see refspeed).
    """
    calls = []
    for label, x in items:
        with refspeed.Sampler(wl.probe) as probe:
            c0 = _now()
            try:
                out, err = wl.run(x), None
            except Exception:  # a failed call is counted, never dropped
                err = traceback.format_exc(limit=-2)
            gross = _now() - c0
        wall = gross - probe.spent
        rec = {"label": label, "wall": wall, "scale": probe.scale}
        if err is None:
            sig, sim_s, gates, phases = out
            net = wall / gross
            rec.update({
                "sig": sig, "gates": gates,
                "sim_s": wall if sim_s is None else sim_s * net,
                "overhead_s": 0.0 if phases is None else (gross - phases) * net,
            })
        else:
            rec["error"] = err
        calls.append(rec)
    return sum(c["wall"] for c in calls), calls


def traced_pass(wl: Workload, items, tr):
    """Replay every unit call with spans; returns (wall seconds, signatures, Counters, first span)."""
    acc = Counters()
    first = len(tr.spans)
    sigs = []
    t0 = _now()
    with tr.wrapping(pipeline, "extract_order", "numthy.extract_order"):
        for i, (label, x) in enumerate(items):
            tr.start_call(i)
            try:
                with tr.span(f"call.{label}"):
                    sigs.append(wl.replay(x, tr, acc))
            except Exception:
                sigs.append(traceback.format_exc(limit=-2))
    return _now() - t0, sigs, acc, first


def svd_kernel_us(dim: int, reps: int, seed: int) -> float:
    """Median microseconds of `np.linalg.svd` on one dim x dim complex matrix."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    samples = []
    for _ in range(5):
        t0 = _now()
        for _ in range(reps):
            np.linalg.svd(m, full_matrices=False)
        samples.append((_now() - t0) / reps * 1e6)
    return float(np.median(samples))


def layer_metrics(tr, first: int, acc: Counters) -> dict[str, float]:
    """Per-layer numbers of one traced pass; 0 where the workload does not reach a layer."""
    incl, own, count = tr.totals(first)

    def own_sum(prefix="", suffix=""):
        return sum(v for k, v in own.items() if k.startswith(prefix) and k.endswith(suffix))

    m = {
        "circuit.build_s": own["circuit.shor_order_circuit"],
        "circuit.reorder_s": own["circuit.reorder_registers"],
        "circuit.gates": acc.gates,
        "circuit.twoq_gates": acc.twoq,
        "circuit.route_swaps": acc.route_swaps,
        "mps.run_s": incl["mps.run"],
    }
    for kind in ("H", "X", "PHASE", "CPHASE", "SWAP", "U2"):
        m[f"mps.apply_s.{kind}"] = own_sum(f"mps.apply_gate.{kind}.")
    m["mps.apply_s.adjacent"] = own_sum("mps.apply_gate.", ".adjacent")
    m["mps.apply_s.routed"] = own_sum("mps.apply_gate.", ".routed")
    m.update({
        "mps.svd_steps": acc.svd_steps,
        "mps.swaps": acc.swaps,
        "mps.peak_chi": acc.peak_chi,
        "mps.peak_elements": acc.peak_elements,
        "mps.max_discarded_weight": acc.max_discarded,
        "mps.step_us.chi_le4": acc.chi_le4[0] / acc.chi_le4[1] * 1e6 if acc.chi_le4[1] else 0.0,
        "mps.step_us.chi_gt4": acc.chi_gt4[0] / acc.chi_gt4[1] * 1e6 if acc.chi_gt4[1] else 0.0,
        "mps.sample_s": incl["mps.sample"],
        "mps.sample_us_per_shot": incl["mps.sample"] / acc.shots * 1e6 if acc.shots else 0.0,
        "mps.bond_entropy_s": incl["mps.bond_entropy"],
        "numthy.preselect_s": incl["numthy.preselect_base"],
        "numthy.extract_order_calls": count["numthy.extract_order"],
        "numthy.extract_order_s": incl["numthy.extract_order"],
        "pipeline.postprocess_s": own["pipeline.postprocess"],
        "pipeline.attempts": acc.attempts,
        "trace.spans": len(tr.spans) - first,
    })
    return m


