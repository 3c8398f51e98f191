"""The in-place dense kernel and the statevector export: results and memory.

The reference functions below are the previous bodies of
`dense._apply_gate`, `dense.dense_sample` and `mps.to_statevector`,
kept as test oracles only. The dense kernel takes the same products
and sums in the same operand order as its reference, so its amplitudes
must match to the bit; the export sums in another order, so it must
match to 1e-14.

Peaks are measured with tracemalloc (see `util.traced_peak`), which
sees numpy's array buffers; a peak includes the result array.
"""

import numpy as np
import pytest

from mpshor import circuit as cir
from mpshor import dense, mps
from util import haar_unitary, random_circuit, traced_peak

MB = 1 << 20
AMPLITUDE_BYTES = np.dtype(complex).itemsize


def _slice(n, assignments):
    idx = [slice(None)] * n
    for q, v in assignments:
        idx[q] = v
    return tuple(idx)


def reference_apply_controlled_block(psi, v, c, t, n):
    i10 = _slice(n, [(c, 1), (t, 0)])
    i11 = _slice(n, [(c, 1), (t, 1)])
    s0 = psi[i10].copy()
    s1 = psi[i11]
    psi[i10] = v[0, 0] * s0 + v[0, 1] * s1
    psi[i11] = v[1, 0] * s0 + v[1, 1] * s1


def reference_apply_gate(psi, g, n):
    """psi has shape [2] * n."""
    ts = g.targets
    if g.kind == "PHASE":
        psi[_slice(n, [(ts[0], 1)])] *= np.exp(1j * g.angle)
        return
    if g.kind == "CPHASE":
        psi[_slice(n, [(ts[0], 1), (ts[1], 1)])] *= np.exp(1j * g.angle)
        return
    if g.kind == "X":
        i0, i1 = _slice(n, [(ts[0], 0)]), _slice(n, [(ts[0], 1)])
        tmp = psi[i0].copy()
        psi[i0] = psi[i1]
        psi[i1] = tmp
        return
    if g.kind == "SWAP":
        i01 = _slice(n, [(ts[0], 0), (ts[1], 1)])
        i10 = _slice(n, [(ts[0], 1), (ts[1], 0)])
        tmp = psi[i01].copy()
        psi[i01] = psi[i10]
        psi[i10] = tmp
        return
    u = g.full_matrix()
    if g.arity == 1:
        i0, i1 = _slice(n, [(ts[0], 0)]), _slice(n, [(ts[0], 1)])
        s0 = psi[i0].copy()
        s1 = psi[i1]
        psi[i0] = u[0, 0] * s0 + u[0, 1] * s1
        psi[i1] = u[1, 0] * s0 + u[1, 1] * s1
        return
    if (
        u[0, 0] == 1
        and u[1, 1] == 1
        and not u[0, 1:].any()
        and not u[1, 2:].any()
        and u[1, 0] == 0
        and not u[2:, :2].any()
    ):
        reference_apply_controlled_block(psi, u[2:, 2:], ts[0], ts[1], n)
        return
    blocks = [psi[_slice(n, [(ts[0], i), (ts[1], j)])].copy() for i in (0, 1) for j in (0, 1)]
    for r in range(4):
        acc = u[r, 0] * blocks[0]
        for c_ in range(1, 4):
            if u[r, c_] != 0:
                acc = acc + u[r, c_] * blocks[c_]
        psi[_slice(n, [(ts[0], r >> 1), (ts[1], r & 1)])] = acc


def reference_dense_run(circ, initial):
    n = circ.width
    psi = np.array(initial, dtype=complex).reshape([2] * n)
    for g in circ.gates:
        reference_apply_gate(psi, g, n)
    return psi.reshape(-1)


def reference_dense_sample(state, qubits, shots, seed):
    n = state.n
    probs = np.abs(state.amplitudes) ** 2
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(probs.size, size=shots, p=probs)
    counts = {}
    for v, c in zip(*np.unique(outcomes, return_counts=True)):
        key = "".join("1" if (int(v) >> (n - 1 - q)) & 1 else "0" for q in qubits)
        counts[key] = counts.get(key, 0) + int(c)
    return counts


def reference_to_statevector(state):
    acc = np.ones((1, 1), dtype=complex)
    for b in mps._sites(state):
        acc = np.tensordot(acc, b, axes=(1, 0))
        acc = acc.reshape(acc.shape[0] * 2, acc.shape[2])
    return acc.ravel()


def every_kind(n, seed):
    """Each gate kind on the first, middle, second-to-last and last qubits.

    Two-qubit kinds act on each pair of those qubits in both target
    orders; the second-to-last qubit leaves an inner axis of two
    amplitudes, which the kernel walks in another loop order.
    """
    rng = np.random.default_rng(seed)
    qubits = sorted({0, n // 2, max(n - 2, 0), n - 1})
    gates = []
    for q in qubits:
        gates += [cir.h(q), cir.x(q), cir.phase(0.3, q), cir.unitary1(haar_unitary(2, rng), q)]
    for i, a in enumerate(qubits):
        for b in qubits[i + 1 :]:
            for t in ((a, b), (b, a)):
                gates += [
                    cir.cphase(0.7, *t),
                    cir.swap(*t),
                    cir.cx(*t),
                    cir.unitary2(np.diag([1, 1, np.exp(0.4j), -1]), *t),
                    cir.unitary2(haar_unitary(4, rng), *t),
                ]
    return cir.Circuit(n, tuple(gates))


def random_vector(n, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return vec / np.linalg.norm(vec)


@pytest.mark.parametrize("block", [dense.BLOCK, 8, 2])
@pytest.mark.parametrize("n", [3, 7])
def test_dense_kernel_is_bitwise_the_reference(monkeypatch, n, block):
    # small blocks cut the views of a small state many ways
    monkeypatch.setattr(dense, "BLOCK", block)
    for circ in (every_kind(n, seed=n), random_circuit(n, 40, seed=n)):
        vec = random_vector(n, seed=block)
        got = dense.dense_run(circ, initial=vec).amplitudes
        assert got.tobytes() == reference_dense_run(circ, vec).tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_dense_kernel_matches_reference_on_one_and_two_qubits(n):
    # with one amplitude per slice the reference works on numpy scalars,
    # whose complex product rounds differently from the array loops
    circ = cir.Circuit(n, every_kind(n, seed=n).gates + random_circuit(n, 20, seed=n).gates)
    vec = random_vector(n, seed=0)
    got = dense.dense_run(circ, initial=vec).amplitudes
    assert np.abs(got - reference_dense_run(circ, vec)).max() <= 1e-14


def test_shor_amplitudes_are_bitwise_the_reference():
    circ = cir.shor_order_circuit(15, 4)
    start = np.zeros(1 << circ.width, dtype=complex)
    start[0] = 1.0
    got = dense.dense_run(circ).amplitudes
    assert got.tobytes() == reference_dense_run(circ, start).tobytes()


def test_dense_run_peak_is_the_vector_and_a_bounded_block():
    n = 18
    circ = every_kind(n, seed=5)
    vec = random_vector(n, seed=5)
    state, peak = traced_peak(lambda: dense.dense_run(circ, initial=vec))
    size = AMPLITUDE_BYTES << n
    assert peak <= size + 2 * MB
    assert state.amplitudes.tobytes() == reference_dense_run(circ, vec).tobytes()


def test_initial_vector_is_copied_once():
    n = 16
    vec = random_vector(n, seed=2)
    before = vec.copy()
    state, peak = traced_peak(lambda: dense.dense_run(cir.Circuit(n, ()), initial=vec))
    assert peak <= (AMPLITUDE_BYTES << n) + MB // 2
    assert np.array_equal(vec, before)
    assert not np.shares_memory(state.amplitudes, vec)


def test_initial_vector_of_wrong_length_is_rejected():
    with pytest.raises(ValueError):
        dense.dense_run(cir.Circuit(3, ()), initial=np.ones(4, dtype=complex) / 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_histograms_are_those_of_the_reference_sampler(seed):
    state = dense.dense_run(random_circuit(10, 60, seed=seed))
    qubits = [7, 0, 4, 9]
    assert dense.dense_sample(state, qubits, 512, seed) == reference_dense_sample(
        state, qubits, 512, seed
    )


def _mps_state(circ):
    state = mps.init_state(circ.width)
    mps.run_circuit(state, circ)
    return state


@pytest.mark.parametrize(
    "circ",
    [
        cir.Circuit(1, (cir.h(0), cir.phase(0.3, 0))),
        random_circuit(7, 40, seed=3),
        cir.shor_order_circuit(15, 4),
    ],
    ids=["n1", "n7", "shor-15-4"],
)
def test_statevector_matches_chain_contraction(circ):
    state = _mps_state(circ)
    assert np.abs(mps.to_statevector(state) - reference_to_statevector(state)).max() <= 1e-14


def test_statevector_peak_is_the_result_and_a_bounded_rest():
    state = _mps_state(cir.shor_order_circuit(15, 4))
    vec, peak = traced_peak(lambda: mps.to_statevector(state))
    assert vec.shape == (1 << 18,)
    assert peak <= vec.nbytes + MB
