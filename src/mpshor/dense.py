"""Dense statevector simulator, the brute-force reference backend.

Kept deliberately simple: amplitudes live in one array of shape
[2]*n (qubit 0 = most significant bit) and gates act by slice
arithmetic. A hard cap of 24 qubits keeps memory desk-scale; this
module exists to cross-validate the MPS engine and circuit builders,
not to be fast.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate
from .mps import GateStats, SimulationTimeout

MAX_DENSE_QUBITS = 24


@dataclass
class DenseState:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError("amplitude vector has wrong length")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1):.2e}")


def _slice(n: int, assignments) -> tuple:
    idx: list = [slice(None)] * n
    for q, v in assignments:
        idx[q] = v
    return tuple(idx)


def _apply_controlled_block(psi: np.ndarray, v: np.ndarray, c: int, t: int, n: int):
    """U = diag(I, v) on (control c, target t)."""
    i10 = _slice(n, [(c, 1), (t, 0)])
    i11 = _slice(n, [(c, 1), (t, 1)])
    s0 = psi[i10].copy()
    s1 = psi[i11]
    psi[i10] = v[0, 0] * s0 + v[0, 1] * s1
    psi[i11] = v[1, 0] * s0 + v[1, 1] * s1


def _apply_gate(psi: np.ndarray, g: Gate, n: int):
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
    # two-qubit unitary; controlled-on-first-qubit matrices get a cheap path
    if (
        u[0, 0] == 1
        and u[1, 1] == 1
        and not u[0, 1:].any()
        and not u[1, 2:].any()
        and u[1, 0] == 0
        and not u[2:, :2].any()
    ):
        _apply_controlled_block(psi, u[2:, 2:], ts[0], ts[1], n)
        return
    blocks = [psi[_slice(n, [(ts[0], i), (ts[1], j)])].copy() for i in (0, 1) for j in (0, 1)]
    for r in range(4):
        acc = u[r, 0] * blocks[0]
        for c_ in range(1, 4):
            if u[r, c_] != 0:
                acc = acc + u[r, c_] * blocks[c_]
        psi[_slice(n, [(ts[0], r >> 1), (ts[1], r & 1)])] = acc


def dense_run(
    circ: Circuit,
    initial: int | np.ndarray | None = None,
    deadline: float | None = None,
) -> DenseState:
    """Run a circuit exactly; `initial` is a basis index or a full vector.

    `deadline` is an absolute time.monotonic() instant checked before
    each gate, matching the MPS engine's cooperative timeout.
    """
    n = circ.width
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense backend capped at {MAX_DENSE_QUBITS} qubits, got {n}")
    if isinstance(initial, np.ndarray):
        vec = initial.astype(complex).copy()
        if vec.shape != (1 << n,):
            raise ValueError("initial vector has wrong length")
    else:
        vec = np.zeros(1 << n, dtype=complex)
        vec[0 if initial is None else int(initial)] = 1.0
    psi = vec.reshape([2] * n)
    for i, g in enumerate(circ.gates):
        if deadline is not None and time.monotonic() > deadline:
            raise SimulationTimeout(
                f"deadline expired after {i} of {len(circ.gates)} gates",
                GateStats(gate_count=i),
            )
        _apply_gate(psi, g, n)
    return DenseState(n=n, amplitudes=psi.reshape(-1))


def circuit_unitary(circ: Circuit, max_qubits: int = 12) -> np.ndarray:
    """Full 2^n x 2^n matrix of a circuit, for small n."""
    n = circ.width
    if n > max_qubits:
        raise ValueError(f"refusing to build a unitary beyond {max_qubits} qubits")
    dim = 1 << n
    out = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        out[:, col] = dense_run(circ, initial=col).amplitudes
    return out


def dense_entropy(state: DenseState, subset) -> float:
    """Von Neumann entropy (bits) of the reduced state on `subset`."""
    sub = sorted(set(subset))
    n = state.n
    if not sub or len(sub) >= n:
        raise ValueError("subset must be nonempty and proper")
    if sub[0] < 0 or sub[-1] >= n:
        raise ValueError("subset index out of range")
    psi = state.amplitudes.reshape([2] * n)
    rest = [q for q in range(n) if q not in sub]
    mat = np.transpose(psi, sub + rest).reshape(1 << len(sub), -1)
    s = np.linalg.svd(mat, compute_uv=False)
    p = s**2
    p = p[p > 1e-15]
    return float(max(0.0, -(p * np.log2(p)).sum()))


def dense_sample(state: DenseState, qubits, shots: int, seed: int) -> dict[str, int]:
    """Sample bitstrings for the given qubits from exact probabilities."""
    if shots < 1:
        raise ValueError("shots must be positive")
    qubits = list(qubits)
    n = state.n
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError("qubit index out of range")
    probs = np.abs(state.amplitudes) ** 2
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(probs.size, size=shots, p=probs)
    counts: dict[str, int] = {}
    for v, c in zip(*np.unique(outcomes, return_counts=True)):
        key = "".join("1" if (int(v) >> (n - 1 - q)) & 1 else "0" for q in qubits)
        counts[key] = counts.get(key, 0) + int(c)
    return counts
