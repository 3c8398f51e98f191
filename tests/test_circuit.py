import dataclasses
import math

import numpy as np
import pytest

from mpshor import circuit as cir
from mpshor import dense
from mpshor.numthy import preselect_base
from util import circuit_digest, dft_matrix, haar_unitary


def basis_index(width, assignments):
    """Index of the basis state with the given {qubit: bit} values."""
    idx = 0
    for q, v in assignments.items():
        idx |= v << (width - 1 - q)
    return idx


def dominant_basis_state(amps):
    k = int(np.argmax(np.abs(amps)))
    return k, abs(amps[k])


class TestGate:
    def test_constructors_and_matrices(self):
        assert np.allclose(cir.h(0).full_matrix() @ cir.h(0).full_matrix(), np.eye(2))
        assert np.allclose(cir.x(0).full_matrix(), [[0, 1], [1, 0]])
        g = cir.phase(0.5, 3)
        assert g.full_matrix()[1, 1] == pytest.approx(np.exp(0.5j))
        g = cir.cphase(-0.7, 1, 2)
        assert g.full_matrix()[3, 3] == pytest.approx(np.exp(-0.7j))

    def test_every_kind_is_unitary(self):
        rng = np.random.default_rng(0)
        gates = [
            cir.h(0),
            cir.x(0),
            cir.phase(1.1, 0),
            cir.cphase(0.3, 0, 1),
            cir.swap(0, 1),
            cir.unitary1(haar_unitary(2, rng), 0),
            cir.unitary2(haar_unitary(4, rng), 0, 1),
            cir.cx(0, 1),
        ]
        for g in gates:
            u = g.full_matrix()
            assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            cir.unitary1(np.array([[1, 0], [0, 2]]), 0)
        with pytest.raises(ValueError):
            cir.unitary2(np.ones((4, 4)), 0, 1)

    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError):
            cir.cphase(0.1, 2, 2)

    def test_remapped_shares_checked_matrix(self):
        g = cir.unitary2(haar_unitary(4, np.random.default_rng(2)), 0, 1)
        r = g.remapped({0: 3, 1: 2})
        assert (r.kind, r.targets, r.angle) == ("U2", (3, 2), None)
        assert r.matrix is g.matrix and not r.matrix.flags.writeable
        p = cir.cphase(0.4, 0, 1).remapped({0: 1, 1: 0})
        assert (p.kind, p.targets, p.angle) == ("CPHASE", (1, 0), 0.4)

    @pytest.mark.parametrize("perm", [{0: 2, 1: 2}, {0: -1, 1: 2}])
    def test_remapped_rejects_bad_targets(self, perm):
        g = cir.unitary2(haar_unitary(4, np.random.default_rng(3)), 0, 1)
        for gate in (g, cir.cphase(0.4, 0, 1), cir.swap(0, 1)):
            with pytest.raises(ValueError):
                gate.remapped(perm)

    def test_dagger(self):
        rng = np.random.default_rng(1)
        for g in [cir.h(0), cir.phase(0.9, 0), cir.cphase(0.4, 0, 1),
                  cir.unitary2(haar_unitary(4, rng), 0, 1)]:
            u = g.full_matrix()
            assert np.allclose(g.dagger().full_matrix(), u.conj().T)

    def test_three_qubit_kind_rejected(self):
        # every gate touches at most two qubits; controlled swaps come from cswap_gates
        with pytest.raises(ValueError, match="unknown gate kind"):
            cir.Gate("CSWAP", (0, 1, 2))


class TestControls:
    # the targets a gate acts on only through their |1> part, classified once when it is built
    @staticmethod
    def _controlled():
        cv, _, cv_dagger = cir.toffoli_gates(0, 1, 2)[:3]
        return {"cx": cir.cx(3, 1), "cv": cv, "cv_dagger": cv_dagger, "cphase": cir.cphase(0.7, 2, 0)}

    def test_controlled_gates(self):
        gates = self._controlled()
        assert [g.controls for g in gates.values()] == [(0,), (0,), (0,), (0, 1)]
        for g in gates.values():
            # [[I, 0], [0, V]] on the first target; V, the 2x2 on the other target when that one is |1>
            u = g.full_matrix()
            assert np.array_equal(u[:2], np.eye(4)[:2]) and not u[2:, :2].any()
        # CPHASE is symmetric in its two bits: with either target |1>, the other takes the phase
        u = gates["cphase"].full_matrix()
        assert np.array_equal(u[[0, 2, 1, 3]][:, [0, 2, 1, 3]], u)
        assert cir.cx(0, 1).controls is cir.cx(5, 2).controls  # one shared tuple, no per-gate array

    def test_uncontrolled_gates(self):
        rng = np.random.default_rng(4)
        x_mat = cir.x(0).full_matrix()
        gates = [
            cir.unitary2(haar_unitary(4, rng), 0, 1),
            cir.swap(0, 1),
            cir.h(0), cir.x(0), cir.phase(0.3, 0), cir.unitary1(haar_unitary(2, rng), 0),
            # controlled by its second target, and block diagonal with no identity block
            cir.unitary2(np.kron(np.eye(2), np.eye(2))[[0, 3, 2, 1]], 0, 1),
            cir.unitary2(np.kron(np.diag([1, -1]), x_mat), 0, 1),
        ]
        assert [g.controls for g in gates] == [()] * len(gates)

    def test_classification_is_kept(self):
        # dagger and remapped gates and reordered circuits classify alike
        gates = self._controlled()
        for g in gates.values():
            assert g.dagger().controls == g.controls
            assert g.remapped({0: 4, 1: 5, 2: 6, 3: 7}).controls == g.controls
        circ = cir.shor_order_circuit(15, 4)
        want = [g.controls for g in circ.gates]
        assert {(g.kind, g.controls) for g in circ.gates} >= {("U2", (0,)), ("CPHASE", (0, 1)), ("SWAP", ())}
        assert [g.dagger().controls for g in circ.gates] == want
        for ordering in cir.ORDERINGS:
            moved = cir.reorder_registers(circ, ordering)
            assert [g.controls for g in moved.gates] == want


class TestQft:
    def test_single_qubit_is_hadamard(self):
        u = dense.circuit_unitary(cir.qft_circuit(1))
        assert np.abs(u - np.array([[1, 1], [1, -1]]) / math.sqrt(2)).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_direct_transform(self, n):
        u = dense.circuit_unitary(cir.qft_circuit(n))
        assert np.abs(u - dft_matrix(n)).max() < 1e-10

    def test_zero_state_goes_uniform(self):
        st = dense.dense_run(cir.qft_circuit(4))
        assert np.abs(st.amplitudes - 0.25).max() < 1e-12

    def test_inverse_is_conjugate_transpose(self):
        u = dense.circuit_unitary(cir.qft_circuit(3))
        ui = dense.circuit_unitary(cir.inverse_qft_circuit(3))
        assert np.abs(ui - u.conj().T).max() < 1e-10

    def test_round_trip_on_basis_states(self):
        n = 4
        both = cir.Circuit(
            n, cir.qft_circuit(n).gates + cir.inverse_qft_circuit(n).gates
        )
        for b in (0, 3, 9, 15):
            amps = dense.dense_run(both, initial=b).amplitudes
            k, mag = dominant_basis_state(amps)
            assert k == b and mag > 1 - 1e-12


class TestDecompositions:
    def test_toffoli(self):
        u = dense.circuit_unitary(cir.Circuit(3, tuple(cir.toffoli_gates(0, 1, 2))))
        expect = np.eye(8)
        expect[[6, 7], [6, 7]] = 0
        expect[6, 7] = expect[7, 6] = 1
        assert np.abs(u - expect).max() < 1e-12

    def test_cswap_lowering_matches_native_kind(self):
        u = dense.circuit_unitary(cir.Circuit(3, tuple(cir.cswap_gates(0, 1, 2))))
        expect = np.eye(8)
        expect[[5, 6], [5, 6]] = 0
        expect[5, 6] = expect[6, 5] = 1
        assert np.abs(u - expect).max() < 1e-12

    def test_phi_adder_adds(self):
        m = 4
        qs = list(range(m))
        for k in (1, 6, 13):
            gates = cir.qft_gates(qs) + cir.phi_add_gates(qs, k) + cir.inverse_gates(cir.qft_gates(qs))
            circ = cir.Circuit(m, tuple(gates))
            for b in (0, 5, 15):
                amps = dense.dense_run(circ, initial=b).amplitudes
                idx, mag = dominant_basis_state(amps)
                assert idx == (b + k) % (1 << m) and mag > 1 - 1e-10

    def test_modular_adder_controls_off_is_identity(self):
        n_mod, k = 13, 7
        m = n_mod.bit_length() + 1
        width = m + 3
        breg = list(range(2, 2 + m))
        qft_b = cir.qft_gates(breg)
        iqft_b = cir.inverse_gates(qft_b)
        gates = qft_b + cir.phi_add_mod_gates(breg, width - 1, k, n_mod, 0, 1, qft_b, iqft_b) + iqft_b
        circ = cir.Circuit(width, tuple(gates))
        for b in (0, 4, 12):
            start = b << 1  # controls 0, cmp 0
            amps = dense.dense_run(circ, initial=start).amplitudes
            idx, mag = dominant_basis_state(amps)
            assert idx == start and mag > 1 - 1e-10


class TestRegisterLayout:
    def test_sizes_and_contiguity(self):
        lay = cir.RegisterLayout(4)
        assert [f.name for f in dataclasses.fields(lay)] == ["n", "ordering"]
        assert lay.upper == tuple(range(8))
        assert lay.lower == tuple(range(8, 12))
        assert lay.ancilla == tuple(range(12, 18))
        assert lay.width == 18
        assert lay.boundary_cuts() == (8, 12)

    @pytest.mark.parametrize("ordering", cir.ORDERINGS)
    def test_all_orderings_valid(self, ordering):
        lay = cir.RegisterLayout(3, ordering)
        assert lay.width == 14
        names = [name for name, _ in lay.blocks()]
        assert "-".join(names) == ordering
        assert (len(lay.upper), len(lay.lower), len(lay.ancilla)) == (6, 3, 5)
        assert sorted(lay.upper + lay.lower + lay.ancilla) == list(range(14))

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            cir.RegisterLayout(3, "upper-upper-lower")

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="n must be positive"):
            cir.RegisterLayout(0)


class TestModularMultiplier:
    def setup_method(self):
        self.layout = cir.RegisterLayout(4)
        self.width = self.layout.width

    def _basis(self, control_bit, xval, control=0):
        assign = {control: control_bit}
        for i, q in enumerate(self.layout.lower):
            assign[q] = (xval >> (3 - i)) & 1
        return basis_index(self.width, assign)

    def _run(self, gates, start):
        circ = cir.Circuit(self.width, tuple(gates))
        return dense.dense_run(circ, initial=start).amplitudes

    def test_multiply_by_one_is_empty(self):
        assert cir.controlled_modular_multiplier(1, 15, 0, self.layout) == []
        assert cir.controlled_modular_multiplier(16, 15, 0, self.layout) == []

    def test_rejects_non_invertible(self):
        with pytest.raises(ValueError):
            cir.controlled_modular_multiplier(6, 15, 0, self.layout)

    def test_control_off_identity(self):
        gates = cir.controlled_modular_multiplier(4, 15, 0, self.layout)
        for xval in (1, 7, 11):
            start = self._basis(0, xval)
            amps = self._run(gates, start)
            idx, mag = dominant_basis_state(amps)
            assert idx == start and mag > 1 - 1e-9

    def test_multiplies_work_register(self):
        gates = cir.controlled_modular_multiplier(4, 15, 0, self.layout)
        amps = self._run(gates, self._basis(1, 1))
        idx, mag = dominant_basis_state(amps)
        assert idx == self._basis(1, 4) and mag > 1 - 1e-9

    def test_inverse_pair_is_identity(self):
        a = 7
        gates = cir.controlled_modular_multiplier(a, 15, 0, self.layout)
        gates += cir.controlled_modular_multiplier(pow(a, -1, 15), 15, 0, self.layout)
        for xval in (1, 4, 13):
            start = self._basis(1, xval)
            amps = self._run(gates, start)
            idx, mag = dominant_basis_state(amps)
            assert idx == start and mag > 1 - 1e-9


class TestShorOrderCircuit:
    def test_width_is_4n_plus_2(self):
        assert cir.shor_order_circuit(15, 4).width == 18
        assert cir.shor_order_circuit(93, 32).width == 30
        for n_mod in (15, 21, 33):
            a = preselect_base(n_mod)
            assert cir.shor_order_circuit(n_mod, a).width == 4 * n_mod.bit_length() + 2

    def test_every_gate_unitary(self):
        circ = cir.shor_order_circuit(15, 4)
        for g in circ.gates:
            u = g.full_matrix()
            assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-12

    @pytest.mark.parametrize(
        "n_mod, a, digest",
        [(15, 4, "bca0f108cd633066"), (33, 10, "9cfa169650a72df2"), (21, 2, "00a0d5499b7431e2"),
         (93, 32, "44d9d8e848b87639")],
        ids=["15-4", "33-10", "21-2", "93-32"],
    )
    def test_builder_output_and_shared_matrices(self, n_mod, a, digest):
        # a built circuit is pinned bit for bit by its digest. Every CX, CV and CV^dagger (and the
        # adjoints of the inverse multipliers) carries the one read-only matrix of its value, checked
        # once, and stays classified as controlled by its first target
        circ = cir.shor_order_circuit(n_mod, a)
        assert circuit_digest(circ).startswith(digest)
        by_value: dict[bytes, set[int]] = {}
        for g in circ.gates:
            if g.kind == "U2":
                assert not g.matrix.flags.writeable and g.controls == (0,)
                by_value.setdefault(g.matrix.tobytes(), set()).add(id(g.matrix))
        assert len(by_value) == 4  # CX, CV and their adjoints, which differ from them in signed zeros
        assert all(len(ids) == 1 for ids in by_value.values())
        assert {g.matrix.tobytes() for g in (cir.cx(2, 0), *cir.toffoli_gates(0, 1, 2))} <= set(by_value)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cir.shor_order_circuit(16, 3)
        with pytest.raises(ValueError):
            cir.shor_order_circuit(15, 6)
        with pytest.raises(ValueError):
            cir.shor_order_circuit(13, 15)

    def test_measured_is_counting_register(self):
        circ = cir.shor_order_circuit(15, 4)
        assert circ.measured == circ.layout.upper

    @pytest.mark.parametrize(
        "n_mod,a", [(15, 4), (15, 7), pytest.param(21, 8, marks=pytest.mark.slow)]
    )
    def test_pre_iqft_state_matches_analytic(self, n_mod, a):
        circ = cir.shor_order_circuit(n_mod, a)
        n = n_mod.bit_length()
        t = 2 * n
        idx = dict(circ.checkpoints)[f"mult-{t - 1}"]
        st = dense.dense_run(cir.Circuit(circ.width, circ.gates[:idx]))
        expect = np.zeros(1 << circ.width, dtype=complex)
        m = 1 << t
        for xv in range(m):
            lv = pow(a, xv, n_mod)
            expect[(xv << (2 * n + 2)) | (lv << (n + 2))] = 1 / math.sqrt(m)
        assert abs(np.vdot(expect, st.amplitudes)) ** 2 > 1 - 1e-9
        assert np.abs(st.amplitudes - expect).max() < 1e-8

    def test_dense_measurement_support(self):
        circ = cir.shor_order_circuit(15, 4)
        st = dense.dense_run(circ)
        counts = dense.dense_sample(st, circ.measured, shots=512, seed=11)
        assert sorted(int(k, 2) for k in counts) == [0, 128]


class TestReorderRegisters:
    def test_identity_ordering_unchanged(self):
        circ = cir.shor_order_circuit(15, 4)
        out = cir.reorder_registers(circ, "upper-lower-ancilla")
        assert out.layout == circ.layout
        assert all(
            a.kind == b.kind and a.targets == b.targets
            for a, b in zip(out.gates, circ.gates)
        )

    @pytest.mark.parametrize("ordering", cir.ORDERINGS)
    def test_measurement_distribution_invariant(self, ordering):
        circ = cir.shor_order_circuit(15, 4)
        moved = cir.reorder_registers(circ, ordering)
        assert moved.layout == cir.RegisterLayout(4, ordering)
        assert moved.measured == moved.layout.upper
        st = dense.dense_run(moved)
        counts = dense.dense_sample(st, moved.measured, shots=512, seed=11)
        assert sorted(int(k, 2) for k in counts) == [0, 128]

    def test_requires_layout(self):
        with pytest.raises(ValueError):
            cir.reorder_registers(cir.qft_circuit(3), "upper-lower-ancilla")


class TestCircuit:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(width=2, gates=(cir.h(2),)), "exceeds width"),
            (dict(width=17, gates=(), layout=cir.RegisterLayout(4)), "layout width"),
            (dict(width=18, gates=(), layout=cir.RegisterLayout(4), measured=(8,)), "counting register"),
            (dict(width=2, gates=(), measured=(2,)), "measured qubit out of range"),
            (dict(width=2, gates=(cir.h(0),), checkpoints=(("a", 2),)), "checkpoint index out of range"),
            (dict(width=2, gates=(cir.h(0), cir.x(1)), checkpoints=(("b", 2), ("a", 1))), "must not decrease"),
        ],
        ids=["gate-past-width", "layout-width", "measured-outside-counting", "measured-out-of-range",
             "checkpoint-out-of-range", "decreasing-checkpoints"],
    )
    def test_rejects_invalid(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            cir.Circuit(**kwargs)

    def test_equal_checkpoints_give_an_empty_segment(self):
        # decreasing indices are rejected, since segments() would yield the gates between them twice
        equal = cir.Circuit(2, (cir.h(0), cir.x(1)), checkpoints=(("a", 1), ("b", 1)))
        assert [(label, len(gates)) for label, gates in equal.segments()] == [("a", 1), ("b", 0), ("tail", 1)]
