"""Matrix product state simulator with SVD truncation.

State representation
--------------------
An n-qubit pure state is held as a chain of per-site tensors plus the
Schmidt coefficient vector of every bond, the canonical chain gauge:
site l owns a tensor with indices (left bond, physical, right bond)
and ``lambdas[l]`` holds the Schmidt spectrum of the cut between
sites l and l+1, sorted descending with squares summing to one.

Internally each stored site tensor absorbs the Schmidt vector of the
bond to its right (``tensors[l] = gamma_l * diag(lambdas[l])``), which
keeps every update free of divisions by small Schmidt coefficients:
a two-qubit gate contracts the two site tensors, applies the gate,
multiplies in the left Schmidt vector, splits by SVD, and rebuilds the
left tensor by projecting onto the kept right singular vectors.

Two-qubit gates on non-adjacent qubits are routed to adjacency with
swap steps and routed back, so the only entangling primitive is the
adjacent-pair SVD update. Each SVD step is one call to LAPACK's
divide-and-conquer driver ``zgesdd`` through scipy; if it reports a
failure, the step falls back to the slower ``gesvd`` driver. A swap
step, whether routing or an explicit ``SWAP`` gate, is the same update
with the gate replaced by a transpose of the pair's two physical
indices. A gate whose first (high-bit) target lies to the right of its
second is applied as the gate with its rows and columns permuted by
``[0, 2, 1, 3]``, which exchanges the two bits; ``CPHASE`` is symmetric
in its two bits and is applied to its targets in chain order instead.
Truncation keeps at most ``chi_max`` Schmidt coefficients, drops
coefficients at or below ``discard_threshold``, and renormalizes the
spectrum.

Truncation bookkeeping
----------------------
The few singular values of a step are read into a Python list once
(LAPACK returns them descending). The keep rule walks back from the
tail past values ``<= discard_threshold`` and then caps the count at
``chi_max``; the discarded weight and the norm of the kept spectrum
are sums of squares over that list. ``GateStats`` counts every SVD
step, the largest kept bond and the largest discarded weight of one
step. Routing swaps are counted once per routed gate in
``_apply_2q_routed``, ``2 * (hi - lo - 1)`` for targets ``lo < hi``,
and an explicit ``SWAP`` gate adds one more in ``apply_gate``.
``run_circuit`` tracks the total tensor size from the sizes of the
span each multi-qubit gate is routed across, which are the only
tensors it changes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.linalg import svd as scipy_svd

from .circuit import Circuit, Gate, cswap_gates, unitary1, unitary2

#: basis order (bit_a, bit_b) -> (bit_b, bit_a): reindexes a 4x4 gate for reversed targets
_REVERSE = [0, 2, 1, 3]
_gesdd = lapack.zgesdd


class TruncationError(RuntimeError):
    """Raised when a truncation would drop the entire Schmidt spectrum."""


class SimulationTimeout(RuntimeError):
    """Raised when a cooperative deadline expires during gate application."""


@dataclass(frozen=True)
class TruncationPolicy:
    chi_max: int = 64
    discard_threshold: float = 1e-12

    def __post_init__(self):
        if self.chi_max < 2:
            raise ValueError("chi_max must be at least 2")
        if not 0.0 <= self.discard_threshold < 1.0:
            raise ValueError("discard_threshold must lie in [0, 1)")


#: effectively untruncated evolution, for oracle comparisons
EXACT_POLICY = TruncationPolicy(chi_max=1 << 20, discard_threshold=0.0)


@dataclass
class GateStats:
    gate_count: int = 0
    svd_count: int = 0
    swap_count: int = 0
    max_chi: int = 1
    max_discarded_weight: float = 0.0
    peak_elements: int = 0

    def merge(self, other: GateStats) -> None:
        self.gate_count += other.gate_count
        self.svd_count += other.svd_count
        self.swap_count += other.swap_count
        self.max_chi = max(self.max_chi, other.max_chi)
        self.max_discarded_weight = max(
            self.max_discarded_weight, other.max_discarded_weight
        )
        self.peak_elements = max(self.peak_elements, other.peak_elements)


@dataclass
class MpsState:
    n: int
    tensors: list[np.ndarray]
    lambdas: list[np.ndarray]
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)

    def copy(self) -> MpsState:
        return MpsState(
            n=self.n,
            tensors=[t.copy() for t in self.tensors],
            lambdas=[l.copy() for l in self.lambdas],
            policy=self.policy,
        )

    def element_count(self) -> int:
        return sum(t.size for t in self.tensors)


def init_state(n: int, policy: TruncationPolicy | None = None) -> MpsState:
    """Product state |0...0> with every bond dimension 1."""
    if n < 1:
        raise ValueError("n must be positive")
    tensors = []
    for _ in range(n):
        t = np.zeros((1, 2, 1), dtype=complex)
        t[0, 0, 0] = 1.0
        tensors.append(t)
    lambdas = [np.ones(1) for _ in range(n - 1)]
    return MpsState(n=n, tensors=tensors, lambdas=lambdas, policy=policy or TruncationPolicy())


def _svd(m: np.ndarray):
    """Thin SVD (u, s, vh) by gesdd, or by gesvd when gesdd reports a failure."""
    u, s, vh, info = _gesdd(m, compute_uv=1, full_matrices=0)
    if info == 0:
        return u, s, vh
    return scipy_svd(m, full_matrices=False, lapack_driver="gesvd")


def _apply_2q_adjacent(state: MpsState, u4: np.ndarray | None, q: int, stats: GateStats | None):
    """Gate on the adjacent pair (q, q+1); u4 rows indexed by (bit_q, bit_q+1).

    ``u4=None`` swaps the two sites by transposing their physical indices.
    """
    tensors = state.tensors
    bl, br = tensors[q], tensors[q + 1]
    chi_l, chi_r = bl.shape[0], br.shape[2]
    c = bl.reshape(2 * chi_l, -1).dot(br.reshape(-1, 2 * chi_r))  # ((chi_l, i), (j, chi_r))
    if u4 is None:
        c = c.reshape(chi_l, 2, 2, chi_r).transpose(0, 2, 1, 3).reshape(2 * chi_l, 2 * chi_r)
    else:
        c = np.matmul(u4, c.reshape(chi_l, 4, chi_r)).reshape(2 * chi_l, 2 * chi_r)
    if q > 0:
        theta = (c.reshape(chi_l, -1) * state.lambdas[q - 1][:, None]).reshape(2 * chi_l, -1)
    else:
        theta = c
    _, s, vh = _svd(theta)
    policy = state.policy
    threshold = policy.discard_threshold
    sl = s.tolist()  # descending
    keep = len(sl)
    while keep and sl[keep - 1] <= threshold:
        keep -= 1
    if keep == 0:
        raise TruncationError(
            f"all {len(sl)} Schmidt coefficients fall below {threshold} at bond {q}"
        )
    if keep > policy.chi_max:
        keep = policy.chi_max
    discarded = 0.0
    if keep < len(sl):
        discarded = math.fsum([x * x for x in sl[keep:]])
        s, vh, sl = s[:keep], vh[:keep], sl[:keep]
    nrm = math.sqrt(math.fsum([x * x for x in sl]))
    state.lambdas[q] = s / nrm
    tensors[q + 1] = vh.reshape(keep, 2, chi_r)
    left = c.dot(vh.T.conj())  # gesdd's vh is Fortran-ordered, so vh.T is C-ordered
    left /= nrm
    tensors[q] = left.reshape(chi_l, 2, keep)
    if stats is not None:
        stats.svd_count += 1
        if keep > stats.max_chi:
            stats.max_chi = keep
        if discarded > stats.max_discarded_weight:
            stats.max_discarded_weight = discarded


def _apply_2q_routed(
    state: MpsState,
    u4: np.ndarray | None,
    q1: int,
    q2: int,
    stats: GateStats | None,
):
    """Route (q1, q2) to adjacency with swaps, apply u4, and route back; u4=None is a SWAP."""
    lo, hi = (q1, q2) if q1 < q2 else (q2, q1)
    if q1 > q2 and u4 is not None:
        u4 = u4[_REVERSE][:, _REVERSE]
    for p in range(lo, hi - 1):
        _apply_2q_adjacent(state, None, p, stats)
    _apply_2q_adjacent(state, u4, hi - 1, stats)
    for p in range(hi - 2, lo - 1, -1):
        _apply_2q_adjacent(state, None, p, stats)
    if stats is not None:
        stats.swap_count += 2 * (hi - lo - 1)


def apply_gate(state: MpsState, gate: Gate, stats: GateStats | None = None):
    """Apply one circuit gate; ControlledSwap is lowered to two-qubit gates.

    The one entry point for a gate (`apply_1q` and `apply_2q` wrap
    their matrix in a U1 or U2 gate). A target outside the chain raises
    ValueError before the state is touched; arity, distinct targets and
    unitarity were checked when the gate was built.
    """
    if max(gate.targets) >= state.n:
        raise ValueError(f"{gate.kind}{gate.targets} out of range for n={state.n}")
    kind = gate.kind
    if kind == "CSWAP":
        for g in cswap_gates(*gate.targets):
            apply_gate(state, g, stats)
        return
    if gate.arity == 1:
        q = gate.targets[0]
        state.tensors[q] = gate.full_matrix() @ state.tensors[q]
        return
    q1, q2 = gate.targets
    if kind == "SWAP":
        u4 = None
        if stats is not None:
            stats.swap_count += 1
    else:
        u4 = gate.full_matrix()
        if kind == "CPHASE" and q1 > q2:
            # symmetric in its two bits, so it needs no reindexing for reversed targets
            q1, q2 = q2, q1
    _apply_2q_routed(state, u4, q1, q2, stats)


def apply_1q(state: MpsState, u, q: int) -> MpsState:
    """Apply a 2x2 unitary to qubit q; bonds are untouched."""
    apply_gate(state, unitary1(u, q))
    return state


def apply_2q(state: MpsState, u, q1: int, q2: int, stats: GateStats | None = None) -> MpsState:
    """Apply a 4x4 unitary to qubits (q1, q2), q1 carrying the high bit."""
    apply_gate(state, unitary2(u, q1, q2), stats)
    return state


def run_circuit(state: MpsState, circ: Circuit, deadline: float | None = None) -> GateStats:
    """Apply every gate in order; returns per-run statistics.

    `deadline` is an absolute time.monotonic() instant checked before
    each gate; crossing it raises SimulationTimeout with the state left
    at the last completed gate.
    """
    if circ.width != state.n:
        raise ValueError(f"circuit width {circ.width} != state size {state.n}")
    tensors = state.tensors
    elems = state.element_count()
    stats = GateStats(peak_elements=elems)
    for g in circ.gates:
        if deadline is not None and time.monotonic() > deadline:
            raise SimulationTimeout(
                f"deadline expired after {stats.gate_count} of {len(circ.gates)} gates"
            )
        if g.arity == 1:  # 1-qubit gates never change tensor shapes
            apply_gate(state, g, stats)
        else:
            # a gate changes only the tensors of the span it is routed across
            lo, hi = min(g.targets), max(g.targets) + 1
            before = sum([t.size for t in tensors[lo:hi]])
            apply_gate(state, g, stats)
            elems += sum([t.size for t in tensors[lo:hi]]) - before
            if elems > stats.peak_elements:
                stats.peak_elements = elems
        stats.gate_count += 1
    return stats


def amplitude(state: MpsState, bits) -> complex:
    """Coefficient of one computational basis string (chain contraction)."""
    if len(bits) != state.n:
        raise ValueError(f"need {state.n} bits, got {len(bits)}")
    v = np.ones(1, dtype=complex)
    for l, bit in enumerate(bits):
        v = v @ state.tensors[l][:, int(bit), :]
    return complex(v[0])


def state_norm(state: MpsState) -> float:
    """Exact 2-norm of the represented state (gauge independent)."""
    env = np.ones((1, 1), dtype=complex)
    for b in state.tensors:
        tmp = np.tensordot(env, b, axes=(1, 0))  # (chi_l', i, chi_r)
        env = np.tensordot(b.conj(), tmp, axes=([0, 1], [0, 1]))
    return float(np.sqrt(abs(env[0, 0])))


def to_statevector(state: MpsState) -> np.ndarray:
    """Full amplitude vector, qubit 0 = most significant bit; n <= 24."""
    if state.n > 24:
        raise ValueError(f"statevector export capped at 24 qubits, got {state.n}")
    acc = np.ones((1, 1), dtype=complex)
    for b in state.tensors:
        acc = np.tensordot(acc, b, axes=(1, 0))
        acc = acc.reshape(acc.shape[0] * 2, acc.shape[2])
    return acc.ravel()


def bond_entropy(state: MpsState, cut: int) -> float:
    """Entanglement entropy in bits across the cut before qubit `cut`."""
    if not 1 <= cut <= state.n - 1:
        raise ValueError(f"cut must be in [1, {state.n - 1}], got {cut}")
    p = state.lambdas[cut - 1] ** 2
    p = p[p > 1e-300]
    return float(max(0.0, -(p * np.log2(p)).sum()))


def schmidt_number(state: MpsState) -> int:
    """Largest bond dimension along the chain."""
    if state.n == 1:
        return 1
    return max(lam.size for lam in state.lambdas)


def sample(state: MpsState, qubits, shots: int, seed: int) -> dict[str, int]:
    """Draw `shots` bitstrings for the given qubits without mutating the state.

    Whole-chain conditional sampling left to right, all shots at once;
    the requested qubits are then read out of each full sample, which
    realizes the exact marginal distribution. Keys appear in order of
    first occurrence.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    qubits = list(qubits)
    if any(q < 0 or q >= state.n for q in qubits):
        raise ValueError("qubit index out of range")
    rng = np.random.default_rng(seed)
    randoms = rng.random((shots, state.n))
    v = np.ones((shots, 1), dtype=complex)
    digits = np.empty((shots, state.n), dtype=np.uint8)
    for l in range(state.n):
        b = state.tensors[l]
        v0 = v @ b[:, 0, :]
        p0 = (np.abs(v0) ** 2).sum(axis=1)
        v1 = v @ b[:, 1, :]
        p1 = (np.abs(v1) ** 2).sum(axis=1)
        one = ~(randoms[:, l] * (p0 + p1) < p0)
        digits[:, l] = one
        # only the branch taken is normalized, so a zero-probability branch never divides
        v = np.where(one[:, None], v1, v0) / np.sqrt(np.where(one, p1, p0))[:, None]
    digits += ord("0")
    width = len(qubits)
    keys = digits[:, qubits].tobytes().decode("ascii")
    counts: dict[str, int] = {}
    for i in range(shots):
        key = keys[i * width : (i + 1) * width]
        counts[key] = counts.get(key, 0) + 1
    return counts


def dump_lambda_spectra(state: MpsState, path) -> None:
    """Write the per-bond Schmidt spectra as columnar text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# bond rank schmidt_coefficient\n")
        for bond, lam in enumerate(state.lambdas):
            for rank, val in enumerate(lam):
                fh.write(f"{bond + 1} {rank} {float(val)!r}\n")
