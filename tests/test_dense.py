import math

import numpy as np
import pytest

from mpshor import circuit as cir
from mpshor import dense
from util import haar_unitary, random_circuit


def bell_state():
    return dense.dense_run(cir.Circuit(2, (cir.h(0), cir.cx(0, 1))))


def test_hadamard_single_qubit():
    st = dense.dense_run(cir.Circuit(1, (cir.h(0),)))
    assert np.allclose(st.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_qft_on_basis_one():
    # amplitudes of QFT|001> are exp(2 pi i y / 8) / sqrt(8)
    st = dense.dense_run(cir.qft_circuit(3), initial=1)
    y = np.arange(8)
    assert np.abs(st.amplitudes - np.exp(2j * np.pi * y / 8) / math.sqrt(8)).max() < 1e-12


def test_initial_vector():
    vec = np.zeros(4, dtype=complex)
    vec[3] = 1.0
    st = dense.dense_run(cir.Circuit(2, (cir.x(1),)), initial=vec)
    assert np.allclose(st.amplitudes, [0, 0, 1, 0])


def test_width_guard():
    with pytest.raises(ValueError):
        dense.dense_run(cir.Circuit(25, ()))


@pytest.mark.parametrize("index", [-1, 8, 1 << 20])
def test_basis_index_out_of_range(index):
    # a negative index would otherwise wrap around to the end of the vector
    with pytest.raises(ValueError, match="out of range"):
        dense.dense_run(cir.Circuit(3, ()), initial=index)


def test_last_basis_index_accepted():
    st = dense.dense_run(cir.Circuit(3, ()), initial=7)
    assert st.amplitudes[7] == 1.0


def test_norm_preserved_after_every_gate():
    circ = random_circuit(6, 25, seed=9)
    vec = np.zeros(64, dtype=complex)
    vec[0] = 1.0
    psi = vec.reshape([2] * 6)
    for g in circ.gates:
        dense._apply_gate(psi, g, 6)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_gate_application_matches_kron_oracle():
    # every kind against an explicit kron-built operator on 3 qubits
    rng = np.random.default_rng(2)
    gates = [
        cir.h(1),
        cir.x(2),
        cir.phase(0.71, 0),
        cir.cphase(1.2, 2, 0),
        cir.swap(0, 2),
        *cir.cswap_gates(1, 0, 2),
        cir.cx(2, 1),
        cir.unitary2(np.diag([1, 1, np.exp(0.4j), -1]), 1, 2),
        cir.unitary1(haar_unitary(2, rng), 1),
        cir.unitary2(haar_unitary(4, rng), 2, 0),
    ]
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    for g in gates:
        got = dense.dense_run(cir.Circuit(3, (g,)), initial=vec).amplitudes
        full = np.eye(1)
        # build the operator by routing each axis through kron in index order
        u = g.full_matrix()
        k = g.arity
        perm = list(g.targets) + [q for q in range(3) if q not in g.targets]
        big = np.kron(u, np.eye(1 << (3 - k)))
        m = big.reshape([2] * 6)
        inv = np.argsort(perm)
        m = np.transpose(m, [inv[i] for i in range(3)] + [inv[i] + 3 for i in range(3)])
        expect = m.reshape(8, 8) @ vec
        assert np.abs(got - expect).max() < 1e-12, g.kind


class TestEntropy:
    def test_bell_single_qubit(self):
        st = bell_state()
        assert dense.dense_entropy(st, [0]) == pytest.approx(1.0, abs=1e-10)
        assert dense.dense_entropy(st, [1]) == pytest.approx(1.0, abs=1e-10)

    def test_product_state_zero(self):
        st = dense.dense_run(cir.Circuit(3, (cir.h(0), cir.h(2))))
        for sub in ([0], [1], [2], [0, 1], [0, 2]):
            assert dense.dense_entropy(st, sub) == pytest.approx(0.0, abs=1e-12)

    def test_complement_symmetry(self):
        st = dense.dense_run(random_circuit(6, 30, seed=4))
        for sub in ([0], [2, 3], [0, 4, 5], [1, 2, 3, 4]):
            comp = [q for q in range(6) if q not in sub]
            assert dense.dense_entropy(st, sub) == pytest.approx(
                dense.dense_entropy(st, comp), abs=1e-10
            )

    def test_rejects_improper_subset(self):
        st = bell_state()
        with pytest.raises(ValueError):
            dense.dense_entropy(st, [])
        with pytest.raises(ValueError):
            dense.dense_entropy(st, [0, 1])


class TestSample:
    def test_basis_state_single_outcome(self):
        st = dense.dense_run(cir.Circuit(3, (cir.x(1),)))
        counts = dense.dense_sample(st, [0, 1, 2], shots=64, seed=0)
        assert counts == {"010": 64}

    def test_bell_balanced(self):
        counts = dense.dense_sample(bell_state(), [0, 1], shots=10_000, seed=1)
        assert set(counts) == {"00", "11"}
        assert 0.45 <= counts["00"] / 10_000 <= 0.55

    def test_total_counts_equal_shots(self):
        st = dense.dense_run(random_circuit(5, 20, seed=3))
        counts = dense.dense_sample(st, [0, 2], shots=333, seed=5)
        assert sum(counts.values()) == 333

    def test_seed_determinism(self):
        st = dense.dense_run(random_circuit(5, 20, seed=3))
        a = dense.dense_sample(st, [0, 1, 2, 3, 4], shots=100, seed=42)
        b = dense.dense_sample(st, [0, 1, 2, 3, 4], shots=100, seed=42)
        assert a == b
