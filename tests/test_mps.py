import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpshor import circuit as cir
from mpshor import dense
from mpshor import mps
from util import assert_canonical, haar_unitary, random_circuit, spy_gesdd

H = cir.h(0).full_matrix()
X = cir.x(0).full_matrix()
CX = cir.cx(0, 1).full_matrix()


def bell(policy=None):
    state = mps.init_state(2, policy)
    mps.apply_1q(state, H, 0)
    mps.apply_2q(state, CX, 0, 1)
    return state


def ghz(n):
    state = mps.init_state(n)
    mps.apply_1q(state, H, 0)
    for q in range(n - 1):
        mps.apply_2q(state, CX, q, q + 1)
    return state


class TestInitState:
    def test_zero_state_amplitudes(self):
        state = mps.init_state(3)
        assert mps.amplitude(state, "000") == pytest.approx(1)
        for bits in ("001", "010", "100", "111"):
            assert mps.amplitude(state, bits) == pytest.approx(0)

    @pytest.mark.parametrize("bits", [[0, -1], "02", [2, 0], [0, 0.5], "0x"])
    def test_amplitude_rejects_bits_outside_0_1(self, bits):
        # unchecked, numpy indexing would read -1 as the last index and fail on 2 with IndexError
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            mps.amplitude(mps.init_state(2), bits)

    def test_amplitude_accepts_int_and_str_bits(self):
        state = mps.init_state(3)
        mps.apply_1q(state, X, 1)
        for bits in ("010", [0, 1, 0], np.array([0, 1, 0]), (False, True, False)):
            assert mps.amplitude(state, bits) == pytest.approx(1)

    def test_bond_dimensions_one(self):
        state = mps.init_state(5)
        assert mps.schmidt_number(state) == 1
        for cut in range(1, 5):
            assert mps.bond_entropy(state, cut) == 0.0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            mps.init_state(0)


class TestApply1q:
    def test_x_flips(self):
        state = mps.init_state(2)
        mps.apply_1q(state, X, 1)
        assert mps.amplitude(state, "01") == pytest.approx(1)

    def test_h_twice_recovers(self):
        state = mps.init_state(3)
        ref = mps.to_statevector(ghz(3))
        state = ghz(3)
        mps.apply_1q(state, H, 1)
        mps.apply_1q(state, H, 1)
        fid = abs(np.vdot(ref, mps.to_statevector(state))) ** 2
        assert fid >= 1 - 1e-12

    def test_h_amplitudes(self):
        state = mps.init_state(1)
        mps.apply_1q(state, H, 0)
        assert abs(mps.amplitude(state, "0")) == pytest.approx(1 / math.sqrt(2))
        assert abs(mps.amplitude(state, "1")) == pytest.approx(1 / math.sqrt(2))

    def test_rejects_non_unitary(self):
        state = mps.init_state(2)
        with pytest.raises(ValueError):
            mps.apply_1q(state, np.array([[1, 0], [0, 2]]), 0)

    def test_bonds_unchanged(self):
        state = ghz(4)
        before = [lam.copy() for lam in state.lambdas]
        mps.apply_1q(state, haar_unitary(2, np.random.default_rng(0)), 2)
        for a, b in zip(before, state.lambdas):
            assert np.allclose(a, b)


class TestApply2q:
    def test_cnot(self):
        state = mps.init_state(2)
        mps.apply_1q(state, X, 0)
        mps.apply_2q(state, CX, 0, 1)
        assert mps.amplitude(state, "11") == pytest.approx(1)

    def test_bell_entropy_one_bit(self):
        assert mps.bond_entropy(bell(), 1) == pytest.approx(1.0, abs=1e-12)

    def test_random_gate_matches_dense_on_ten_qubits(self):
        circ = random_circuit(10, 30, seed=17)
        state = mps.init_state(10, mps.TruncationPolicy(chi_max=1024, discard_threshold=0.0))
        mps.run_circuit(state, circ)
        rng = np.random.default_rng(1)
        u = haar_unitary(4, rng)
        mps.apply_2q(state, u, 2, 7)
        ref = dense.dense_run(
            cir.Circuit(10, circ.gates + (cir.unitary2(u, 2, 7),))
        ).amplitudes
        assert np.abs(mps.to_statevector(state) - ref).max() < 1e-10

    def test_reversed_target_order_matches_dense(self):
        rng = np.random.default_rng(2)
        u = haar_unitary(4, rng)
        circ = cir.Circuit(4, (cir.h(0), cir.h(2), cir.unitary2(u, 3, 1)))
        state = mps.init_state(4)
        mps.run_circuit(state, circ)
        assert np.abs(mps.to_statevector(state) - dense.dense_run(circ).amplitudes).max() < 1e-10

    def test_rejects_same_qubit(self):
        with pytest.raises(ValueError):
            mps.apply_2q(mps.init_state(3), CX, 1, 1)


class TestApplyGate:
    @pytest.mark.parametrize(
        "gate", [cir.cx(0, 5), cir.h(4), cir.cphase(0.3, 3, 0)], ids=["cx-0-5", "h-4", "cphase-3-0"]
    )
    def test_out_of_range_target_leaves_state_untouched(self, gate):
        state = mps.init_state(3)
        mps.apply_gate(state, cir.x(0))
        before = mps.to_statevector(state)
        stats = mps.GateStats()
        with pytest.raises(ValueError, match="out of range"):
            mps.apply_gate(state, gate, stats)
        assert np.array_equal(mps.to_statevector(state), before)
        assert stats == mps.GateStats()


class TestRunCircuit:
    def test_merge_adds_counts_and_keeps_maxima(self):
        a = mps.GateStats(1, 2, 3, 4, 5, max_chi=6, max_discarded_weight=1e-20, peak_elements=9)
        a.merge(mps.GateStats(10, 20, 30, 40, 50, max_chi=3, max_discarded_weight=1e-18, peak_elements=7))
        assert a == mps.GateStats(11, 22, 33, 44, 55, max_chi=6, max_discarded_weight=1e-18, peak_elements=9)

    def test_empty_circuit_noop(self):
        state = ghz(3)
        before = mps.to_statevector(state)
        stats = mps.run_circuit(state, cir.Circuit(3, ()))
        assert np.allclose(before, mps.to_statevector(state))
        assert stats.gate_count == 0

    def test_qft_on_zero_state(self):
        state = mps.init_state(4)
        stats = mps.run_circuit(state, cir.qft_circuit(4))
        vec = mps.to_statevector(state)
        assert np.abs(vec - 0.25).max() < 1e-12
        assert stats.max_chi == 1

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            mps.run_circuit(mps.init_state(3), cir.qft_circuit(4))

    def test_cswap_kind_handled(self):
        circ = cir.Circuit(3, (cir.x(0), cir.x(2), *cir.cswap_gates(0, 1, 2)))
        state = mps.init_state(3)
        mps.run_circuit(state, circ)
        assert abs(mps.amplitude(state, "110")) == pytest.approx(1, abs=1e-12)

    def test_deadline_raises(self):
        state = mps.init_state(4)
        with pytest.raises(mps.SimulationTimeout):
            mps.run_circuit(state, cir.qft_circuit(4), deadline=time.monotonic() - 1)

    def test_stats_counts(self):
        circ = cir.Circuit(4, (cir.h(0), cir.cphase(0.3, 0, 3), cir.swap(1, 2)))
        stats = mps.run_circuit(mps.init_state(4), circ)
        assert stats.gate_count == 3
        # routing the distant cphase there and back costs 4 swaps
        assert stats.swap_count == 5
        assert stats.svd_count == 6

    def test_swap_counts_its_own_swap(self):
        # SWAP(0, 3) walks 5 steps: 4 routing swaps and the gate's own swap. The same
        # matrix through apply_2q is a U2 gate, whose gate step is no swap
        swap = cir.swap(0, 1).full_matrix()
        by_kind, by_matrix, unstated = ghz(5), ghz(5), ghz(5)
        stats = mps.run_circuit(by_kind, cir.Circuit(5, (cir.swap(0, 3),)))
        assert (stats.gate_count, stats.svd_count, stats.swap_count, stats.max_chi, stats.peak_elements) == (1, 5, 5, 2, 32)
        stats = mps.GateStats()
        mps.apply_2q(by_matrix, swap, 0, 3, stats)
        assert (stats.gate_count, stats.svd_count, stats.swap_count, stats.max_chi) == (0, 5, 4, 2)
        mps.apply_2q(unstated, swap, 0, 3)
        want = mps.to_statevector(by_kind)
        assert np.abs(mps.to_statevector(by_matrix) - want).max() < 1e-12
        assert np.abs(mps.to_statevector(unstated) - want).max() < 1e-12

    @pytest.mark.parametrize(
        "n, a, counts",
        [(15, 4, (1101, 5172, 4400, 2, 82)), (33, 10, (2687, 18144, 16116, 2, 116))],
    )
    def test_preselected_step_counts(self, n, a, counts):
        # gates, SVD steps, swaps, peak chi and peak elements of two pre-selected runs
        circ = cir.shor_order_circuit(n, a)
        stats = mps.run_circuit(mps.init_state(circ.width), circ)
        got = (stats.gate_count, stats.svd_count, stats.swap_count, stats.max_chi, stats.peak_elements)
        assert got == counts

    @pytest.mark.parametrize("n, a, steps, calls", [(15, 4, 5172, 761), (33, 10, 18144, 2014)])
    def test_preselected_kernel_calls(self, monkeypatch, n, a, steps, calls):
        # swap steps past a qubit entangled with nothing, wherever it sits, exchange the two
        # sites, a gate that leaves two such qubits unentangled splits them in closed form, and
        # a back-step that the next gate from the same low qubit would swap back never runs, and a
        # gate whose control is a classical qubit is elided: none calls the SVD kernel. kernel_count counts the calls the kernel does get, those
        # of the last gate's walk back once a reader walks it home
        gesdd_calls = spy_gesdd(monkeypatch)
        circ = cir.shor_order_circuit(n, a)
        state = mps.init_state(circ.width)
        stats = mps.run_circuit(state, circ)
        mps.state_norm(state)
        assert (stats.svd_count, stats.kernel_count) == (steps, calls)
        assert len(gesdd_calls) == calls

    @pytest.mark.parametrize("n, a", [(15, 4), (33, 10)])
    def test_preselected_end_state_is_canonical(self, n, a):
        # the exchange moves a Schmidt vector without recomputing it, which is exact only on a
        # canonical chain: the runs must leave one behind
        circ = cir.shor_order_circuit(n, a)
        state = mps.init_state(circ.width, mps.EXACT_POLICY)
        mps.run_circuit(state, circ)
        assert state.canonical
        assert_canonical(state, 1e-12)

    def test_truncating_step_counts(self):
        # a random-base run capped at chi 2: the cap drops half the weight at the worst cut.
        # That spectrum is degenerate, so which half is kept, and with it peak_elements,
        # depends on rounding and on which steps run (a gate elided on a classical control
        # runs none); the other counts do not
        circ = cir.shor_order_circuit(15, 7)
        stats = mps.run_circuit(mps.init_state(circ.width, mps.TruncationPolicy(chi_max=2)), circ)
        got = (stats.gate_count, stats.svd_count, stats.swap_count, stats.max_chi, stats.peak_elements)
        assert got == (2243, 11034, 9428, 2, 94)
        assert stats.max_discarded_weight == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize(
        "case, chi_max",
        [("random", 64), ("explicit-swaps", 64), ("shor-15-7", 2)],
    )
    def test_step_counts_match_circuit(self, case, chi_max):
        # a gate on targets d apart costs 2(d-1) routing swaps and 2(d-1)+1 SVD steps;
        # an explicit SWAP gate counts one swap more
        if case == "random":
            circ = random_circuit(8, 40, seed=7)
        elif case == "explicit-swaps":
            gates = (cir.h(0), cir.swap(0, 5), cir.cx(1, 4), cir.swap(6, 2), cir.swap(3, 4), cir.cphase(0.4, 6, 0))
            circ = cir.Circuit(7, gates)
        else:
            circ = cir.shor_order_circuit(15, 7)
        twoq = [g for g in circ.gates if g.arity == 2]
        dist = [abs(g.targets[0] - g.targets[1]) for g in twoq]
        stats = mps.run_circuit(mps.init_state(circ.width, mps.TruncationPolicy(chi_max=chi_max)), circ)
        assert stats.gate_count == len(circ.gates)
        assert stats.svd_count == sum(2 * (d - 1) + 1 for d in dist)
        assert stats.swap_count == sum(2 * (d - 1) for d in dist) + sum(g.kind == "SWAP" for g in twoq)
        assert max(dist) > 1 and stats.swap_count > 0

    @pytest.mark.parametrize("n, a", [(15, 4), (21, 2), (15, 7)])
    def test_unit_bonds_hold_exactly_one(self, n, a):
        # a step on a bond of dimension 1 skips the multiply by its Schmidt vector,
        # which is exact only because that vector is exactly [1.0]
        circ = cir.shor_order_circuit(n, a)
        state = mps.init_state(circ.width, mps.TruncationPolicy(chi_max=2))
        units = 0
        for g in circ.gates:
            mps.apply_gate(state, g)
            unit = [lam for lam in state.lambdas if lam.size == 1]
            assert all(lam[0] == 1.0 for lam in unit)
            units += len(unit)
        assert units > 0

    @pytest.mark.parametrize("chi_max", [3, 64])
    def test_peak_elements_match_full_walk(self, chi_max):
        # lowered controlled swaps on a lightly entangled chain, then distant
        # and reversed Haar gates: peak_elements is tracked over the span each
        # gate touches and must equal a walk of the whole chain after every gate
        rng = np.random.default_rng(5)
        gates = [cir.h(q) for q in range(9)]
        gates += [*cir.cswap_gates(0, 1, 8), *cir.cswap_gates(7, 2, 4), cir.cphase(0.7, 8, 3)]
        gates += [*cir.cswap_gates(5, 8, 0), cir.unitary2(haar_unitary(4, rng), 6, 1)]
        gates += cir.cswap_gates(3, 0, 6)
        gates += random_circuit(9, 12, seed=17).gates
        circ = cir.Circuit(9, tuple(gates))
        policy = mps.TruncationPolicy(chi_max=chi_max)
        ref = mps.init_state(9, policy)
        walks = [ref.element_count()]
        for g in circ.gates:
            mps.apply_gate(ref, g)
            walks.append(ref.element_count())
        assert len(set(walks)) > 3
        for k in range(1, len(gates) + 1):
            stats = mps.run_circuit(mps.init_state(9, policy), cir.Circuit(9, tuple(gates[:k])))
            assert stats.peak_elements == max(walks[: k + 1])

    @pytest.mark.parametrize("chi_max", [2, 64])
    def test_stored_entry_count_after_every_gate(self, chi_max):
        # run_circuit reads peak_elements off the count of stored entries that _walk keeps as it
        # writes tensors. After every gate that count equals a sum over the chain: through gates
        # elided on |0> and |1> controls, explicit SWAPs and a walk left pending at the end, and at
        # chi_max=2, where the first cut clears canonical and so stops re-flagging
        rng = np.random.default_rng(11)
        gates = [cir.h(q) for q in (0, 2, 4, 6, 8)] + [cir.x(1)]
        # elided on a |0> control twice, then on a |1> control twice
        gates += [cir.cx(3, 7), cir.cphase(0.3, 5, 0), cir.cx(1, 8), cir.cphase(0.9, 1, 6)]
        # a Bell pair on (2, 3), then a step that moves |+> onto site 3 by SVD: the site is re-flagged
        gates += [cir.cx(2, 3), cir.unitary2(cir.swap(0, 1).full_matrix(), 3, 4)]
        gates += [*cir.cswap_gates(0, 2, 8), cir.swap(4, 7), *cir.toffoli_gates(6, 2, 3), cir.swap(8, 1)]
        gates += [cir.unitary2(haar_unitary(4, rng), 7, 2), *random_circuit(9, 12, seed=3).gates]
        gates += [*cir.cswap_gates(5, 0, 4), cir.unitary2(haar_unitary(4, rng), 1, 7)]
        policy = mps.TruncationPolicy(chi_max=chi_max)
        ref = mps.init_state(9, policy)
        walks = [ref.element_count()]
        for g in gates:
            mps.apply_gate(ref, g)
            walks.append(ref.element_count())
            assert ref._elements == walks[-1]
        assert ref._away is not None if chi_max == 64 else not ref.canonical
        assert len(set(walks)) > 3
        for k in range(1, len(gates) + 1):
            state = mps.init_state(9, policy)
            stats = mps.run_circuit(state, cir.Circuit(9, tuple(gates[:k])))
            assert stats.peak_elements == max(walks[: k + 1])
            assert state._elements == state.element_count() == walks[k]
        assert stats.elided_count >= 4
        # the last gate run on a state that apply_gate left with a walk pending and copy() walked home
        state = mps.init_state(9, policy)
        for g in gates[:-1]:
            mps.apply_gate(state, g)
        assert state._away is not None or chi_max == 2
        twin = state.copy()
        ref = twin.copy()
        want = [ref.element_count()]
        mps.apply_gate(ref, gates[-1])
        want.append(ref.element_count())
        for s in (state, twin):
            stats = mps.run_circuit(s, cir.Circuit(9, gates[-1:]))
            assert stats.peak_elements == max(want)
            assert s._elements == s.element_count() == want[-1]


class TestAmplitude:
    def test_matches_dense_everywhere(self):
        circ = random_circuit(8, 40, seed=23)
        state = mps.init_state(8, mps.TruncationPolicy(chi_max=1024, discard_threshold=0.0))
        mps.run_circuit(state, circ)
        ref = dense.dense_run(circ).amplitudes
        for k in range(256):
            bits = format(k, "08b")
            assert abs(mps.amplitude(state, bits) - ref[k]) < 1e-10


class TestEntropyAndSchmidt:
    def test_product_state_entropy_zero(self):
        state = mps.init_state(6)
        for q in range(6):
            mps.apply_1q(state, haar_unitary(2, np.random.default_rng(q)), q)
        for cut in range(1, 6):
            assert mps.bond_entropy(state, cut) == pytest.approx(0.0, abs=1e-12)

    def test_ghz_entropy_one_everywhere(self):
        state = ghz(4)
        for cut in range(1, 4):
            assert mps.bond_entropy(state, cut) == pytest.approx(1.0, abs=1e-10)

    def test_schmidt_numbers(self):
        assert mps.schmidt_number(mps.init_state(4)) == 1
        assert mps.schmidt_number(ghz(5)) == 2

    def test_schmidt_rank_bound(self):
        n = 8
        state = mps.init_state(n, mps.TruncationPolicy(chi_max=4096, discard_threshold=0.0))
        mps.run_circuit(state, random_circuit(n, 60, seed=3))
        assert mps.schmidt_number(state) <= 2 ** (n // 2)

    def test_entropy_bounds(self):
        n = 9
        state = mps.init_state(n, mps.TruncationPolicy(chi_max=4096, discard_threshold=0.0))
        mps.run_circuit(state, random_circuit(n, 50, seed=8))
        for cut in range(1, n):
            s = mps.bond_entropy(state, cut)
            assert 0.0 <= s <= min(cut, n - cut) + 1e-12

    def test_matches_dense_reduced_entropy(self):
        for seed in range(4):
            n = 10
            circ = random_circuit(n, 35, seed=100 + seed)
            state = mps.init_state(n, mps.TruncationPolicy(chi_max=4096, discard_threshold=0.0))
            mps.run_circuit(state, circ)
            ref = dense.dense_run(circ)
            for cut in (1, 3, 5, 7, 9):
                assert mps.bond_entropy(state, cut) == pytest.approx(
                    dense.dense_entropy(ref, range(cut)), abs=1e-8
                )

    def test_local_unitary_leaves_entropy(self):
        state = mps.init_state(7, mps.TruncationPolicy(chi_max=4096, discard_threshold=0.0))
        mps.run_circuit(state, random_circuit(7, 30, seed=12))
        before = [mps.bond_entropy(state, c) for c in range(1, 7)]
        rng = np.random.default_rng(77)
        for q in range(7):
            mps.apply_1q(state, haar_unitary(2, rng), q)
        after = [mps.bond_entropy(state, c) for c in range(1, 7)]
        assert np.abs(np.array(before) - np.array(after)).max() < 1e-10

    def test_cut_range_validated(self):
        state = ghz(3)
        with pytest.raises(ValueError):
            mps.bond_entropy(state, 0)
        with pytest.raises(ValueError):
            mps.bond_entropy(state, 3)


class TestStatevector:
    def test_init_two_qubits(self):
        assert np.allclose(mps.to_statevector(mps.init_state(2)), [1, 0, 0, 0])

    def test_bell_vector(self):
        r = 1 / math.sqrt(2)
        assert np.allclose(mps.to_statevector(bell()), [r, 0, 0, r])

    def test_round_trip_with_amplitude(self):
        state = mps.init_state(5)
        mps.run_circuit(state, random_circuit(5, 25, seed=31))
        vec = mps.to_statevector(state)
        for k in (0, 7, 13, 31):
            assert vec[k] == pytest.approx(mps.amplitude(state, format(k, "05b")), abs=1e-12)

    def test_width_guard(self):
        with pytest.raises(ValueError):
            mps.to_statevector(mps.init_state(25))


class TestSample:
    def test_product_state_deterministic(self):
        state = mps.init_state(2)
        mps.apply_1q(state, X, 1)
        counts = mps.sample(state, [0, 1], shots=50, seed=0)
        assert counts == {"01": 50}

    def test_bell_frequencies(self):
        counts = mps.sample(bell(), [0, 1], shots=10_000, seed=5)
        assert set(counts) == {"00", "11"}
        assert 0.45 <= counts["00"] / 10_000 <= 0.55

    def test_seed_reproducible(self):
        state = mps.init_state(6)
        mps.run_circuit(state, random_circuit(6, 20, seed=2))
        a = mps.sample(state, range(6), shots=200, seed=9)
        b = mps.sample(state, range(6), shots=200, seed=9)
        assert a == b

    def test_state_not_consumed(self):
        state = bell()
        before = mps.to_statevector(state)
        mps.sample(state, [0, 1], shots=100, seed=1)
        assert np.allclose(before, mps.to_statevector(state))

    def test_subset_marginal(self):
        # |+>|0>: sampling only qubit 1 must always give 0
        state = mps.init_state(2)
        mps.apply_1q(state, H, 0)
        counts = mps.sample(state, [1], shots=64, seed=3)
        assert counts == {"0": 64}

    def test_matches_dense_distribution(self):
        circ = random_circuit(6, 25, seed=55)
        state = mps.init_state(6, mps.TruncationPolicy(chi_max=1024, discard_threshold=0.0))
        mps.run_circuit(state, circ)
        ref = dense.dense_run(circ)
        shots = 20_000
        got = mps.sample(state, range(6), shots=shots, seed=6)
        probs = np.abs(ref.amplitudes) ** 2
        for k in range(64):
            p = probs[k]
            f = got.get(format(k, "06b"), 0) / shots
            sigma = math.sqrt(max(p * (1 - p), 1e-9) / shots)
            assert abs(f - p) < 6 * sigma + 1e-3


class TestNormalization:
    def test_norm_one_after_every_gate(self):
        circ = random_circuit(7, 40, seed=41)
        state = mps.init_state(7, mps.TruncationPolicy(chi_max=4096, discard_threshold=0.0))
        for g in circ.gates:
            mps.apply_gate(state, g)
            assert abs(mps.state_norm(state) - 1.0) < 1e-9

    def test_norm_after_truncation(self):
        # tight chi cap forces truncation; renormalization keeps norm 1
        circ = random_circuit(8, 40, seed=43)
        state = mps.init_state(8, mps.TruncationPolicy(chi_max=3, discard_threshold=1e-12))
        mps.run_circuit(state, circ)
        assert abs(mps.state_norm(state) - 1.0) < 1e-9
        assert mps.schmidt_number(state) <= 3

    def test_lambda_normalized_descending(self):
        state = mps.init_state(8)
        mps.run_circuit(state, random_circuit(8, 30, seed=44))
        for lam in state.lambdas:
            assert np.all(lam > 0)
            assert np.all(np.diff(lam) <= 1e-15)
            assert abs((lam**2).sum() - 1.0) < 1e-10


class TestTruncation:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            mps.TruncationPolicy(chi_max=1)
        with pytest.raises(ValueError):
            mps.TruncationPolicy(discard_threshold=1.5)

    def test_all_coefficients_discarded_raises(self):
        state = mps.init_state(2, mps.TruncationPolicy(chi_max=2, discard_threshold=0.9))
        mps.apply_1q(state, H, 0)
        with pytest.raises(mps.TruncationError):
            mps.apply_2q(state, CX, 0, 1)

    def test_chi_cap_enforced(self):
        state = mps.init_state(10, mps.TruncationPolicy(chi_max=5))
        stats = mps.run_circuit(state, random_circuit(10, 40, seed=13))
        assert stats.max_chi <= 5
        assert mps.schmidt_number(state) <= 5
        assert stats.max_discarded_weight > 0

    def test_exact_policy_drops_rounding_noise(self):
        # (15, 7) needs chi 4; singular values at the rounding floor must not widen a bond
        circ = cir.shor_order_circuit(15, 7)
        state = mps.init_state(circ.width, mps.EXACT_POLICY)
        stats = mps.run_circuit(state, circ)
        assert stats.max_chi <= 4
        ref = dense.dense_run(circ).amplitudes
        assert np.abs(mps.to_statevector(state) - ref).max() < 1e-10

    def test_memory_proportionality(self):
        # storage stays within 2 * n * chi^2 elements at the recorded peak
        for n, seed in ((8, 3), (10, 4), (12, 5)):
            state = mps.init_state(n, mps.TruncationPolicy(chi_max=4096, discard_threshold=0.0))
            stats = mps.run_circuit(state, random_circuit(n, 40, seed=seed))
            assert stats.peak_elements <= 2 * n * stats.max_chi**2


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=25)
def test_phase_gates_never_change_entropy(seed):
    rng = np.random.default_rng(seed)
    state = mps.init_state(5)
    mps.run_circuit(state, random_circuit(5, 15, seed=seed % 1000))
    before = [mps.bond_entropy(state, c) for c in range(1, 5)]
    q = int(rng.integers(5))
    mps.apply_1q(state, cir.phase(float(rng.uniform(0, 2 * math.pi)), q).full_matrix(), q)
    after = [mps.bond_entropy(state, c) for c in range(1, 5)]
    assert np.abs(np.array(before) - np.array(after)).max() < 1e-10
    assert abs(mps.state_norm(state) - 1.0) < 1e-9


def test_dump_lambda_spectra(tmp_path):
    state = ghz(4)
    path = tmp_path / "spectra.txt"
    mps.dump_lambda_spectra(state, path)
    rows = [
        line.split() for line in path.read_text().splitlines() if not line.startswith("#")
    ]
    by_bond: dict[int, list[float]] = {}
    for bond, rank, val in rows:
        by_bond.setdefault(int(bond), []).append(float(val))
    assert set(by_bond) == {1, 2, 3}
    for vals in by_bond.values():
        assert abs(sum(v**2 for v in vals) - 1.0) < 1e-12
