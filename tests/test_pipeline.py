import math
import random
import time
from types import SimpleNamespace

import pytest

from mpshor import circuit as cir
from mpshor import mps
from mpshor import pipeline as pl
from mpshor.mps import TruncationPolicy
from mpshor.numthy import multiplicative_order
from util import clock_expiring_after


def classical_expectation(a, n):
    """(succeeds, order) for the quantum path on base a, by brute force."""
    r = multiplicative_order(a, n)
    if r % 2 == 1:
        return False, r
    if pow(a, r // 2, n) == n - 1:
        return False, r
    return True, r


class TestChooseBase:
    def test_preselected(self):
        rng = random.Random(0)
        assert pl.choose_base(15, "preselected", rng) == 4
        assert pl.choose_base(9997, "preselected", rng) == 768

    def test_random_seeded_deterministic(self):
        a1 = pl.choose_base(15, "random", random.Random(123))
        a2 = pl.choose_base(15, "random", random.Random(123))
        assert a1 == a2

    def test_random_range_excludes_trivial(self):
        for s in range(200):
            a = pl.choose_base(15, "random", random.Random(s))
            assert 2 <= a <= 13


class TestRunConfig:
    def test_defaults(self):
        cfg = pl.RunConfig()
        assert cfg.shots == 8
        assert cfg.timeout_seconds == 10_000.0
        assert cfg.mode == "preselected"

    def test_validation(self):
        with pytest.raises(ValueError):
            pl.RunConfig(mode="psychic")
        with pytest.raises(ValueError):
            pl.RunConfig(shots=0)
        with pytest.raises(ValueError):
            pl.RunConfig(timeout_seconds=0)


class TestRunPeriodFinding:
    def test_support_for_preselected_15(self):
        hist, timings, stats = pl.run_period_finding(15, 4, pl.RunConfig(shots=32, seed=5))
        assert set(hist) <= {0, 128}
        assert sum(hist.values()) == 32
        assert timings["simulation_seconds"] > 0
        assert stats.max_chi >= 2

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            pl.run_period_finding(15, 6, pl.RunConfig())


class TestPostprocess:
    def test_example_success(self):
        r, factors, reason = pl.postprocess({0: 3, 128: 5}, 4, 15, 8)
        assert (r, factors, reason) == (2, (3, 5), None)

    def test_all_zero_shots(self):
        r, factors, reason = pl.postprocess({0: 8}, 4, 15, 8)
        assert (r, factors) == (None, None)
        assert reason == "no order extracted"

    def test_odd_order_rejected(self):
        # base 16 has order 3 modulo 21; ideal peak y = round(2^10/3)
        assert multiplicative_order(16, 21) == 3
        y = round((1 << 10) / 3)
        r, factors, reason = pl.postprocess({y: 4}, 16, 21, 10)
        assert (r, factors, reason) == (3, None, "odd order")

    def test_minus_one_root_rejected(self):
        # N-1 always has order 2 with a^(r/2) = -1
        r, factors, reason = pl.postprocess({512: 4}, 20, 21, 10)
        assert (r, factors, reason) == (2, None, "a^(r/2) = -1 (mod N)")

    def test_multiple_of_order_reduced(self):
        # y=64 at t=8 gives denominator 4, twice the true order of a=4
        r, factors, reason = pl.postprocess({64: 1}, 4, 15, 8)
        assert (r, factors, reason) == (2, (3, 5), None)

    def test_every_nontrivial_root_splits_odd_n(self):
        # a base x with x^2 = 1 other than +-1, measured at phase 1/2, has order 2 and
        # a^(r/2) = x: the two gcds it returns are always a nontrivial split of odd N
        for n in range(3, 1000, 2):
            t = 2 * n.bit_length()
            for x in range(2, n - 1):
                if x * x % n == 1:
                    r, (p, q), reason = pl.postprocess({1 << (t - 1): 1}, x, n, t)
                    assert (r, reason) == (2, None) and 1 < p <= q < n and p * q == n, (n, x)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            pl.postprocess({}, 4, 15, 8)


class TestFactor:
    def test_preselected_15(self):
        out = pl.factor(15, pl.RunConfig(seed=1))
        assert out.status == "success"
        assert out.factors == (3, 5)
        assert len(out.attempts) == 1
        att = out.attempts[0]
        assert (att.a, att.path, att.extracted_order) == (4, "quantum", 2)
        assert sum(att.measured.values()) == 8
        assert set(att.measured) <= {0, 128}

    def test_preselected_129(self):
        out = pl.factor(129, pl.RunConfig(seed=6))
        assert out.status == "success"
        assert out.factors == (3, 43)
        assert out.attempts[-1].a == 44
        assert out.attempts[-1].extracted_order == 2

    def test_preselected_quantum_path_all_published_pairs(self):
        # every pre-selected pair factors through the quantum path with
        # order 2, up to the 14-bit case on a 58-qubit chain
        for n in (15, 129, 335, 687, 7617, 9997):
            out = pl.factor(n, pl.RunConfig(seed=11))
            assert out.status == "success", n
            att = out.attempts[-1]
            assert att.path == "quantum"
            assert att.extracted_order == 2
            assert any(y != 0 for y in att.measured)
            p, q = out.factors
            assert p * q == n

    def test_gcd_shortcut(self):
        # seed 3 draws a=5 first, which shares a factor with 15
        out = pl.factor(15, pl.RunConfig(mode="random", seed=3))
        assert out.status == "success"
        assert out.factors == (3, 5)
        assert out.attempts[0].path == "gcd_shortcut"
        assert out.attempts[0].measured is None

    def test_random_quantum_success(self):
        # seed 2 draws a=2 first, order 4, quantum path succeeds
        out = pl.factor(15, pl.RunConfig(mode="random", seed=2))
        assert out.status == "success"
        assert out.factors == (3, 5)
        assert out.attempts[0].a == 2
        assert out.attempts[0].extracted_order == 4

    def test_odd_order_exhausts(self):
        # seed 9 draws a=16 for N=21, order 3, and the retry cap is 1
        out = pl.factor(21, pl.RunConfig(mode="random", seed=9, max_attempts=1))
        assert out.status == "exhausted"
        assert out.factors is None
        assert out.attempts[0].rejection == "odd order"

    def test_preselected_retries_uninformative_shots(self):
        # seed 1 with a single shot measures y=0 twice, then gives up
        out = pl.factor(15, pl.RunConfig(seed=1, shots=1, max_attempts=2))
        assert out.status == "exhausted"
        assert [a.rejection for a in out.attempts] == ["no order extracted"] * 2

    def test_timeout_recorded(self):
        out = pl.factor(15, pl.RunConfig(seed=4, timeout_seconds=1e-4))
        assert out.status == "timeout"
        assert out.factors is None
        if out.attempts:
            assert out.attempts[-1].rejection == "timeout"

    @pytest.mark.parametrize("k", [0, 1, 300], ids=lambda k: f"mps-{k}")
    def test_timeout_keeps_cost_of_completed_gates(self, monkeypatch, k):
        # the engine's deadline check passes for k gates and fails before gate k
        monkeypatch.setattr(mps, "time", clock_expiring_after(k))
        out = pl.factor(15, pl.RunConfig(seed=0))
        assert out.status == "timeout"
        assert [(att.path, att.rejection) for att in out.attempts] == [("quantum", "timeout")]
        circ = cir.shor_order_circuit(15, out.attempts[0].a)
        head = cir.Circuit(circ.width, circ.gates[:k])
        assert out.stats == mps.run_circuit(mps.init_state(circ.width), head)
        assert out.timings["circuit_build_seconds"] > 0
        assert out.timings["simulation_seconds"] > 0
        assert out.timings["postprocess_seconds"] == 0.0

    @pytest.mark.parametrize("engine", [mps], ids=["mps"])
    def test_deadline_between_last_gate_and_sampling_times_out(self, monkeypatch, engine):
        # factor() reads the clock twice before the attempt, run_period_finding once
        # after the build, then the engine once per gate; the next read, before
        # sampling, is past the deadline
        circ = cir.shor_order_circuit(15, 4)
        clock = clock_expiring_after(3 + len(circ.gates))
        monkeypatch.setattr(pl, "time", clock)
        monkeypatch.setattr(engine, "time", clock)
        out = pl.factor(15, pl.RunConfig(seed=0))
        assert out.status == "timeout"
        attempts = [(att.a, att.path, att.rejection) for att in out.attempts]
        assert attempts == [(4, "quantum", "timeout")]
        assert out.stats == engine.run_circuit(engine.init_state(circ.width), circ)
        assert out.timings["circuit_build_seconds"] > 0
        assert out.timings["simulation_seconds"] > 0
        assert out.timings["postprocess_seconds"] == 0.0

    def test_deadline_during_circuit_build_times_out(self, monkeypatch):
        # the build overruns the deadline: the attempt times out before the engine runs a gate
        build, built = pl.shor_order_circuit, []

        def slow_build(n, a):
            built.append(a)
            return build(n, a)

        monkeypatch.setattr(pl, "shor_order_circuit", slow_build)
        late = SimpleNamespace(
            monotonic=lambda: time.monotonic() + (1e9 if built else 0.0), perf_counter=time.perf_counter
        )
        monkeypatch.setattr(pl, "time", late)
        out = pl.factor(15, pl.RunConfig(seed=0))
        assert out.status == "timeout"
        assert [(att.a, att.path, att.rejection) for att in out.attempts] == [(built[0], "quantum", "timeout")]
        assert out.stats == mps.GateStats()
        assert out.timings["circuit_build_seconds"] > 0
        assert out.timings["postprocess_seconds"] == 0.0

    def test_rejects_invalid_n(self):
        for bad in (16, 17, 25, 105):
            with pytest.raises(ValueError):
                pl.factor(bad, pl.RunConfig())

    def test_factors_multiply_to_n(self):
        for n, seed in ((15, 0), (21, 5), (33, 7)):
            out = pl.factor(n, pl.RunConfig(seed=seed))
            assert out.status == "success"
            p, q = out.factors
            assert p * q == n and 1 < p <= q < n

    def test_deterministic_replay(self):
        cfg = pl.RunConfig(mode="random", seed=2, shots=8)
        a = pl.factor(15, cfg)
        b = pl.factor(15, cfg)
        assert a.status == b.status
        assert a.factors == b.factors
        assert a.attempts == b.attempts
        assert a.stats == b.stats


class TestRandomModeMatchesClassicalOracle:
    def test_exhaustive_bases_n15(self):
        # every base needing quantum treatment is classified exactly as
        # the brute-force oracle predicts
        n = 15
        coprime = [a for a in range(2, n - 1) if math.gcd(a, n) == 1]
        assert coprime == [2, 4, 7, 8, 11, 13]
        cfg = pl.RunConfig(shots=16, seed=99)
        for a in coprime:
            hist, _, _ = pl.run_period_finding(n, a, cfg, sample_seed=1000 + a)
            order, factors, reason = pl.postprocess(hist, a, n, 8)
            expect_success, expect_r = classical_expectation(a, n)
            assert (factors is not None) == expect_success, (a, reason)
            if factors is not None:
                assert order == expect_r
                assert factors == (3, 5)

    def test_non_coprime_bases_shortcut(self):
        n = 15
        for a in range(2, n - 1):
            if math.gcd(a, n) != 1:
                g = math.gcd(a, n)
                assert g in (3, 5)


class TestOutcomeSerialization:
    def test_round_trip(self):
        out = pl.factor(15, pl.RunConfig(seed=1))
        line = pl.outcome_to_json(out)
        assert "\n" not in line
        back = pl.outcome_from_json(line)
        assert back == out

    def test_round_trip_failure_record(self):
        out = pl.factor(21, pl.RunConfig(mode="random", seed=9, max_attempts=1))
        back = pl.outcome_from_json(pl.outcome_to_json(out))
        assert back == out
        assert back.factors is None

    def test_custom_truncation_policy(self):
        cfg = pl.RunConfig(seed=1, truncation=TruncationPolicy(chi_max=32))
        out = pl.factor(15, cfg)
        assert out.status == "success"
        assert out.stats.max_chi <= 32
