"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.
"""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest

from mpshor import bench, circuit as cir, dense, mps, numthy
from mpshor import pipeline as pl
from util import dft_matrix, random_circuit

EXACT = mps.TruncationPolicy(chi_max=4096, discard_threshold=0.0)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE {num:02d}] {label}: FAIL")
                raise
            print(f"\n[ACCEPTANCE {num:02d}] {label}: PASS")

        return wrapper

    return deco


@criterion(1, "pre-selected bases reproduce all six published (N, a) pairs")
def test_01_preselection_table():
    start = time.perf_counter()
    expected = {15: 4, 129: 44, 335: 66, 687: 230, 7617: 2540, 9997: 768}
    for n, a in expected.items():
        assert numthy.preselect_base(n) == a
    assert time.perf_counter() - start < 1.0


@criterion(2, "orders of 80, 91, 88, 32 modulo 93 are 30, 10, 6, 2")
def test_02_orders_mod_93():
    start = time.perf_counter()
    for a, r in [(80, 30), (91, 10), (88, 6), (32, 2)]:
        assert numthy.multiplicative_order(a, 93) == r
    assert time.perf_counter() - start < 1.0


@criterion(3, "qubit capacity maps to breakable modulus bits")
def test_03_capacity_table():
    for q, beta in [(32, 7), (5000, 1249), (63, 15), (100, 24), (32, 7)]:
        assert numthy.breakable_bits(q) == beta


@criterion(4, "end-to-end factorization on the MPS backend, plus an 8-bit sweep")
def test_04_end_to_end_factorization():
    # N=21 uses a=8; confirm order 2 by the brute-force oracle first
    assert numthy.multiplicative_order(8, 21) == 2
    assert pow(8, 2, 21) == 1

    out15 = pl.factor(15, pl.RunConfig(shots=8, seed=20260809))
    assert out15.status == "success"
    assert out15.factors == (3, 5)
    assert out15.attempts[-1].a == 4
    assert out15.attempts[-1].path == "quantum"

    out21 = pl.factor(21, pl.RunConfig(shots=8, seed=20260809))
    assert out21.status == "success"
    assert out21.factors == (3, 7)
    assert out21.attempts[-1].a == 8
    assert out21.attempts[-1].path == "quantum"

    # pre-selected sweep over every generated semiprime up to 8 bits
    specs = numthy.generate_semiprimes(4, 8, 2, seed=2026)
    assert max(s.bit_length for s in specs) <= 8
    records = bench.bench_sweep(specs, pl.RunConfig(shots=8, seed=7))
    assert len(records) == len(specs)
    for rec in records:
        assert rec.status == "success", (rec.n_value, rec.status)

    # beyond the budget, runs must degrade to recorded failures, not errors
    tight = pl.RunConfig(mode="random", shots=8, seed=0, timeout_seconds=1e-3)
    (timeout_rec,) = bench.bench_sweep([187], tight)
    assert timeout_rec.status == "timeout"
    assert timeout_rec.n_value == 187


@criterion(5, "untruncated MPS equals the dense oracle on 50 random circuits")
def test_05_oracle_equivalence():
    start = time.perf_counter()
    sizes = [2 + (i % 11) for i in range(50)]  # cycles 2..12
    for i, n in enumerate(sizes):
        circ = random_circuit(n, depth=40, seed=5000 + i)
        state = mps.init_state(n, EXACT)
        mps.run_circuit(state, circ)
        vec = mps.to_statevector(state)
        ref = dense.dense_run(circ).amplitudes
        fid = abs(np.vdot(vec, ref)) ** 2
        assert fid >= 1 - 1e-9, (i, n, fid)
        if n <= 8:
            assert np.abs(vec - ref).max() < 1e-10, (i, n)
            k = (i * 37) % (1 << n)
            assert abs(mps.amplitude(state, format(k, f"0{n}b")) - ref[k]) < 1e-10
    assert time.perf_counter() - start < 120.0


@criterion(6, "circuit Fourier transform matches the direct matrix up to n=6")
def test_06_qft_matrix():
    for n in range(1, 7):
        u = dense.circuit_unitary(cir.qft_circuit(n))
        assert np.abs(u - dft_matrix(n)).max() < 1e-10


@criterion(7, "order-finding measurement support is exactly the two ideal peaks")
def test_07_measurement_support():
    circ = cir.shor_order_circuit(15, 4)
    state = mps.init_state(circ.width)
    mps.run_circuit(state, circ)
    counts = mps.sample(state, circ.measured, shots=256, seed=77)
    assert sorted(int(k, 2) for k in counts) == [0, 128]

    # 30 qubits is beyond the dense cap, so the MPS backend runs it
    circ = cir.shor_order_circuit(93, 32)
    state = mps.init_state(circ.width)
    mps.run_circuit(state, circ)
    counts = mps.sample(state, circ.measured, shots=256, seed=78)
    assert sorted(int(k, 2) for k in counts) == [0, 8192]


@criterion(8, "continued fractions recover the order from every ideal peak")
def test_08_continued_fraction_sweep():
    for n in range(3, 101):
        t = 2 * n.bit_length()
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            r = numthy.multiplicative_order(a, n)
            for k in range(r):
                if math.gcd(k, r) != 1:
                    continue
                y = round(k * (1 << t) / r)
                assert numthy.extract_order(y, t, a, n) == r, (n, a, k, r)


@criterion(9, "entanglement entropies: exact values, oracle agreement, bounds")
def test_09_entropy_suite():
    # Bell pair: 1 bit
    state = mps.init_state(2)
    mps.run_circuit(state, cir.Circuit(2, (cir.h(0), cir.cx(0, 1))))
    assert abs(mps.bond_entropy(state, 1) - 1.0) <= 1e-10

    # product state: 0
    state = mps.init_state(4)
    mps.run_circuit(state, cir.Circuit(4, (cir.h(0), cir.h(2), cir.x(3))))
    for cut in range(1, 4):
        assert abs(mps.bond_entropy(state, cut)) <= 1e-12

    # GHZ on 4 qubits: 1 bit at every cut
    state = mps.init_state(4)
    mps.run_circuit(
        state, cir.Circuit(4, (cir.h(0), cir.cx(0, 1), cir.cx(1, 2), cir.cx(2, 3)))
    )
    for cut in range(1, 4):
        assert abs(mps.bond_entropy(state, cut) - 1.0) <= 1e-10

    # MPS bond entropy vs dense reduced entropy, 10 random 10-qubit circuits
    for i in range(10):
        circ = random_circuit(10, depth=35, seed=9000 + i)
        state = mps.init_state(10, EXACT)
        mps.run_circuit(state, circ)
        ref = dense.dense_run(circ)
        for cut in range(1, 10):
            assert abs(
                mps.bond_entropy(state, cut) - dense.dense_entropy(ref, range(cut))
            ) <= 1e-8

    # every report row within 0 <= S <= min(|A|, |B|); ranking is data only
    reports = bench.entropy_report(15, 4)
    for rep in reports:
        for _, cut, s in rep.rows:
            assert 0.0 <= s <= min(cut, 18 - cut) + 1e-9
    ranking = {rep.ordering: round(rep.mean_entropy, 6) for rep in reports}
    print(f"\n  per-ordering mean entropy (data, not asserted): {ranking}")


@criterion(10, "state norm stays 1 after every gate of the (15, 4) circuit")
def test_10_normalization():
    circ = cir.shor_order_circuit(15, 4)
    state = mps.init_state(circ.width)
    for g in circ.gates:
        mps.apply_gate(state, g)
        assert abs(mps.state_norm(state) - 1.0) <= 1e-9


@criterion(11, "identical sweep configurations replay identically")
@pytest.mark.slow
def test_11_sweep_determinism():
    cfg = pl.RunConfig(shots=8, seed=12345)
    modes = ("preselected", "random")
    first = bench.bench_sweep([15, 21, 33], cfg, modes=modes)
    second = bench.bench_sweep([15, 21, 33], cfg, modes=modes)

    def stable(rec):
        return dataclasses.replace(
            rec,
            timestamp="",
            circuit_build_seconds=0.0,
            simulation_seconds=0.0,
            postprocess_seconds=0.0,
        )

    assert [stable(r) for r in first] == [stable(r) for r in second]
