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
adjacent-pair SVD update; a routed gate is one loop over its swap and
gate steps. A swap step, whether routing or an explicit ``SWAP`` gate,
is the same update with the gate replaced by a transpose of the pair's
two physical indices. A swap step past a qubit entangled with nothing
needs no SVD. ``MpsState.product[l]`` flags a site that holds such a
qubit as p (x) I_chi: every ``(1, 2, 1)`` site, and every site an
exchange writes. A 1-qubit gate keeps the flag (U (p (x) I) is (Up)
(x) I), an exchange moves it with its qubit, and an SVD step flags
exactly the ``(1, 2, 1)`` sites it leaves. For a flagged site a left
of B ``(chi, 2, chi_r)``, the step leaves B at q and a/|a| (x) I_chi_r
at q+1, and moves ``lambdas[q+1]`` to bond q; for B ``(chi_l, 2,
chi)`` left of a flagged site b, it leaves b/|b| (x) I_chi_l at q and
B at q+1, and moves ``lambdas[q-1]``. A moved bond of dimension 1 gets
a new ``[1.0]`` instead. The tensors hold the same state, and on a
canonical chain the moved vector is the spectrum the SVD would
compute: the flagged site passes the left Gram matrix on unchanged, so
B's columns, weighted by the left Schmidt vector, are orthogonal with
norms ``lambdas[q+1]`` (in the mirror case B is right-isometric, so
theta's singular values are ``lambdas[q-1]``). A step that cuts a
spectrum at ``chi_max`` leaves tensors that are not isometries and
vectors that are not their cut's spectrum, so it clears
``MpsState.canonical``, and from then on only two ``(1, 2, 1)`` sites
are exchanged. Every other step is one call to numpy's gufunc for
LAPACK's divide-and-conquer driver ``zgesdd``, the kernel behind
``np.linalg.svd``. If it fails, numpy warns of an invalid value and
fills the outputs with NaN, and the step falls back to the slower
``gesvd`` driver through scipy, which is used for nothing else and
imported only then. The warning is left on: an ``np.errstate`` around
each gate slowed whole runs by a few percent. A gate whose first
(high-bit) target lies to the right of its second is applied as the
gate with its rows and columns permuted by ``[0, 2, 1, 3]``, which
exchanges the two bits; ``CPHASE`` is symmetric in its two bits and is
applied to its targets in chain order instead. Truncation keeps at
most ``chi_max`` Schmidt coefficients, drops coefficients at or below
``discard_threshold``, and renormalizes the spectrum.

Truncation bookkeeping
----------------------
The few singular values of a step are read into a Python list once
(LAPACK returns them descending). The keep rule walks back from the
tail past values ``<= discard_threshold`` and then caps the count at
``chi_max``; the discarded weight and the norm of the kept spectrum
are sums of squares over that list. ``GateStats`` counts every step of
a walk, exchanges included, every swap, the largest kept bond (for an
exchange, the moved bond) and the largest discarded weight of one
step. ``_apply_2q_routed`` is the only writer of these four counters.
It keeps them in locals over its walk and updates the caller's stats
once per routed gate: ``2 * (hi - lo - 1) + 1`` steps and ``2 * (hi -
lo - 1)`` routing swaps for targets ``lo < hi``, plus the gate's own
swap for an explicit ``SWAP``. If a step raises, the steps that
finished before it are still counted and the swaps are not.
``run_circuit`` counts the gates and the peak tensor size, which it
tracks from the sizes of the span each two-qubit gate is routed
across, the only tensors the gate changes. A step whose left bond has
dimension 1 skips the multiply by that bond's Schmidt vector, which is
exactly ``[1.0]``: ``init_state`` builds it so, an exchange moves only
vectors of larger bonds and writes a new ``np.ones(1)`` where the bond
shrinks to dimension 1, and a step that keeps one value ``s0`` stores
``s0 / sqrt(s0 * s0)``, which is 1.0 in binary64. Multiplying by 1.0
changes no value of theta; it could only turn a ``-0.0`` into
``+0.0``, and no such theta arose in the Shor runs (15, 4) and (33,
10), or (15, 7) at ``chi_max=2``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # used by sample; imported here so its load is part of start-up
from numpy.linalg import _umath_linalg

from .circuit import Circuit, Gate, unitary1, unitary2

#: basis order (bit_a, bit_b) -> (bit_b, bit_a): reindexes a 4x4 gate for reversed targets
_REVERSE = [0, 2, 1, 3]
#: numpy's LAPACK zgesdd gufunc, the kernel of np.linalg.svd: theta -> thin (u, s, vh)
_gesdd = _umath_linalg.svd_s


class TruncationError(RuntimeError):
    """Raised when a truncation would drop the entire Schmidt spectrum."""


class SimulationTimeout(RuntimeError):
    """Raised when a cooperative deadline expires during gate application.

    `stats` holds the GateStats of the gates completed before the
    deadline; `timings` is filled with the phase seconds spent so far
    by `pipeline.run_period_finding`.
    """

    def __init__(self, message: str, stats: GateStats | None = None):
        super().__init__(message)
        self.stats = stats if stats is not None else GateStats()
        self.timings: dict[str, float] = {}


@dataclass(frozen=True)
class TruncationPolicy:
    chi_max: int = 64
    discard_threshold: float = 1e-12

    def __post_init__(self):
        if self.chi_max < 2:
            raise ValueError("chi_max must be at least 2")
        if not 0.0 <= self.discard_threshold < 1.0:
            raise ValueError("discard_threshold must lie in [0, 1)")


#: effectively untruncated evolution, for oracle comparisons; singular
#: values at or below 1e-14, the rounding floor of a unit-norm spectrum,
#: are noise and are dropped
EXACT_POLICY = TruncationPolicy(chi_max=1 << 20, discard_threshold=1e-14)


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
    tensors: list[np.ndarray]
    lambdas: list[np.ndarray]
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)
    #: every tensor right-isometric and every lambda its cut's exact spectrum;
    #: cleared for good by the first step that cuts a spectrum at chi_max
    canonical: bool = field(default=True, init=False)
    #: product[l]: site l holds p (x) I_chi, a qubit entangled with nothing
    product: list[bool] = field(init=False)

    def __post_init__(self):
        self.product = [t.shape == (1, 2, 1) for t in self.tensors]

    @property
    def n(self) -> int:
        return len(self.tensors)

    def copy(self) -> MpsState:
        new = MpsState(
            tensors=[t.copy() for t in self.tensors],
            lambdas=[l.copy() for l in self.lambdas],
            policy=self.policy,
        )
        new.canonical = self.canonical
        new.product = self.product.copy()
        return new

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
    return MpsState(tensors=tensors, lambdas=lambdas, policy=policy or TruncationPolicy())


def _gesvd(m: np.ndarray):
    """Thin SVD (u, s, vh) by LAPACK gesvd, the fallback when gesdd fails."""
    from scipy.linalg import svd  # scipy's only use, so it stays off the import path

    return svd(m, full_matrices=False, lapack_driver="gesvd")


def _apply_2q_routed(
    state: MpsState,
    u4: np.ndarray | None,
    q1: int,
    q2: int,
    stats: GateStats,
):
    """Route (q1, q2) to adjacency with swaps, apply u4, and route back; u4=None is a SWAP.

    One SVD step on each pair (q, q+1) of the walk lo..hi-2, hi-1,
    hi-2..lo: the step on (hi-1, hi) applies u4 and every other step
    swaps the pair.
    """
    lo, hi = (q1, q2) if q1 < q2 else (q2, q1)
    if q1 > q2 and u4 is not None:
        u4 = u4[_REVERSE][:, _REVERSE]
    tensors, lambdas, product = state.tensors, state.lambdas, state.product
    chi_max, threshold = state.policy.chi_max, state.policy.discard_threshold
    gesdd = _gesdd
    top = hi - 1
    done, max_keep, max_discarded = 0, 0, 0.0
    try:
        for q in (*range(lo, top), *range(top, lo - 1, -1)):
            bl, br = tensors[q], tensors[q + 1]
            chi_l, chi_r = bl.shape[0], br.shape[2]
            swap = q != top or u4 is None
            lflag = product[q]
            if swap and (lflag or product[q + 1]) and (state.canonical or chi_l == chi_r == 1):
                # a flagged site p (x) I passes its neighbour: the exchange is the step's closed form.
                # Past an entangled site it moves a Schmidt vector, exact only on a canonical chain;
                # otherwise it exchanges only two (1, 2, 1) sites
                p, chi, lam = (bl, chi_r, q + 1) if lflag else (br, chi_l, q - 1)
                p0, p1 = p[0, :, 0].tolist()
                if p.shape[0] != chi:  # p (x) I_chi carries the neighbour's outer bond across
                    p = p[:1, :, :1] * np.eye(chi)[:, None, :] if chi > 1 else p[:1, :, :1]
                p = p / math.sqrt(abs(p0) ** 2 + abs(p1) ** 2)
                if chi > 1:
                    lambdas[q] = lambdas[lam]
                elif bl.shape[2] > 1:  # the bond shrinks to dimension 1, whose vector is exactly [1.0]
                    lambdas[q] = np.ones(1)
                tensors[q], tensors[q + 1] = (br, p) if lflag else (p, bl)
                product[q], product[q + 1] = product[q + 1], product[q]
                if chi > max_keep:
                    max_keep = chi
                done += 1
                continue
            c = bl.reshape(2 * chi_l, -1).dot(br.reshape(-1, 2 * chi_r))  # ((chi_l, i), (j, chi_r))
            if swap:
                c = c.reshape(chi_l, 2, 2, chi_r).transpose(0, 2, 1, 3).reshape(2 * chi_l, 2 * chi_r)
            else:
                c = np.matmul(u4, c.reshape(chi_l, 4, chi_r)).reshape(2 * chi_l, 2 * chi_r)
            if chi_l == 1:  # the left bond holds exactly [1.0] (or there is none, at q = 0)
                theta = c
            else:
                theta = (c.reshape(chi_l, -1) * lambdas[q - 1][:, None]).reshape(2 * chi_l, -1)
            _, s, vh = gesdd(theta, signature="D->DdD")
            sl = s.tolist()  # descending
            if sl[0] != sl[0]:  # gesdd failed, and the gufunc filled its outputs with NaN
                _, s, vh = _gesvd(theta)
                sl = s.tolist()
            keep = len(sl)
            while keep and sl[keep - 1] <= threshold:
                keep -= 1
            if keep == 0:
                raise TruncationError(
                    f"all {len(sl)} Schmidt coefficients fall below {threshold} at bond {q}"
                )
            if keep > chi_max:
                keep = chi_max
                state.canonical = False
            if keep < len(sl):
                discarded = math.fsum([x * x for x in sl[keep:]])
                if discarded > max_discarded:
                    max_discarded = discarded
                s, vh, sl = s[:keep], vh[:keep], sl[:keep]
            nrm = math.sqrt(math.fsum([x * x for x in sl]))
            lambdas[q] = s / nrm
            tensors[q + 1] = vh.reshape(keep, 2, chi_r)
            left = c.dot(vh.T.conj())
            left /= nrm
            tensors[q] = left.reshape(chi_l, 2, keep)
            product[q], product[q + 1] = chi_l == keep == 1, keep == chi_r == 1
            if keep > max_keep:
                max_keep = keep
            done += 1
    finally:
        # once per gate: the steps that finished, even if a later one raised
        stats.svd_count += done
        if max_keep > stats.max_chi:
            stats.max_chi = max_keep
        if max_discarded > stats.max_discarded_weight:
            stats.max_discarded_weight = max_discarded
    stats.swap_count += 2 * (hi - lo - 1) + (u4 is None)


def apply_gate(state: MpsState, gate: Gate, stats: GateStats | None = None):
    """Apply one circuit gate.

    The one entry point for a gate (`apply_1q` and `apply_2q` wrap
    their matrix in a U1 or U2 gate). A target outside the chain raises
    ValueError before the state is touched; arity, distinct targets and
    unitarity were checked when the gate was built.
    """
    if max(gate.targets) >= state.n:
        raise ValueError(f"{gate.kind}{gate.targets} out of range for n={state.n}")
    if gate.arity == 1:
        q = gate.targets[0]
        state.tensors[q] = gate.full_matrix() @ state.tensors[q]
        return
    q1, q2 = gate.targets
    if gate.kind == "SWAP":
        u4 = None
    else:
        u4 = gate.full_matrix()
        if gate.kind == "CPHASE" and q1 > q2:
            # symmetric in its two bits, so it needs no reindexing for reversed targets
            q1, q2 = q2, q1
    _apply_2q_routed(state, u4, q1, q2, GateStats() if stats is None else stats)


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
    at the last completed gate and the statistics of the completed gates.
    """
    if circ.width != state.n:
        raise ValueError(f"circuit width {circ.width} != state size {state.n}")
    tensors = state.tensors
    elems = state.element_count()
    stats = GateStats(peak_elements=elems)
    for g in circ.gates:
        if deadline is not None and time.monotonic() > deadline:
            raise SimulationTimeout(
                f"deadline expired after {stats.gate_count} of {len(circ.gates)} gates", stats
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
    if any(bit not in (0, 1, "0", "1") for bit in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits!r}")
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
    """Full amplitude vector, qubit 0 = most significant bit; n <= 24.

    The chain is cut at its middle bond m = n // 2. Sites 0..m-1
    contract to a 2^m x chi matrix and sites m..n-1 to a chi x 2^(n-m)
    matrix, where chi is that bond's dimension, and one matmul joins
    them. The 2^n result is the only array of that size; the two halves
    hold 2^12 x chi elements or fewer.
    """
    if state.n > 24:
        raise ValueError(f"statevector export capped at 24 qubits, got {state.n}")
    m = state.n // 2
    left = np.ones((1, 1), dtype=complex)
    for b in state.tensors[:m]:
        left = np.tensordot(left, b, axes=(1, 0)).reshape(-1, b.shape[2])
    right = np.ones((1, 1), dtype=complex)
    for b in reversed(state.tensors[m:]):
        right = np.tensordot(b, right, axes=(2, 0)).reshape(b.shape[0], -1)
    return (left @ right).ravel()


def _cut_spectrum(state: MpsState, cut: int) -> np.ndarray:
    """The state's Schmidt spectrum across the cut before qubit `cut`, unit norm.

    A canonical chain stores it in ``lambdas``. After a step cut at
    ``chi_max`` it does not, and it is computed from the tensors,
    gauge-free like `state_norm`: QR sweeps reduce sites [0, cut) from
    the left and [cut, n) from the right to their R factors, whose
    product has the state's singular values at the cut.
    """
    if not 1 <= cut <= state.n - 1:
        raise ValueError(f"cut must be in [1, {state.n - 1}], got {cut}")
    if state.canonical:
        return state.lambdas[cut - 1]
    left = np.ones((1, 1), dtype=complex)
    for b in state.tensors[:cut]:
        m = np.tensordot(left, b, axes=(1, 0)).reshape(-1, b.shape[2])
        left = np.linalg.qr(m, mode="r")
    right = np.ones((1, 1), dtype=complex)
    for b in reversed(state.tensors[cut:]):
        m = np.tensordot(b, right, axes=(2, 0)).reshape(b.shape[0], -1)
        right = np.linalg.qr(m.T, mode="r").T
    s = np.linalg.svd(left @ right, compute_uv=False)
    return s / np.linalg.norm(s)


def bond_entropy(state: MpsState, cut: int) -> float:
    """Entanglement entropy in bits across the cut before qubit `cut`."""
    p = _cut_spectrum(state, cut) ** 2
    p = p[p > 1e-300]
    return float(max(0.0, -(p * np.log2(p)).sum()))


def schmidt_number(state: MpsState) -> int:
    """Largest bond dimension along the chain."""
    return max((lam.size for lam in state.lambdas), default=1)


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
    """Write the state's Schmidt spectrum at every bond as columnar text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# bond rank schmidt_coefficient\n")
        for bond in range(1, state.n):
            for rank, val in enumerate(_cut_spectrum(state, bond)):
                fh.write(f"{bond} {rank} {float(val)!r}\n")
