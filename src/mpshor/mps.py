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
swap steps and routed back; every walk of steps is one loop, `_walk`,
over its swap and gate steps. A swap step, whether routing or an explicit ``SWAP``
gate, is the gate step with the gate replaced by a transpose of the
pair's two physical indices. A step that cannot write its sites in
closed form (below) is one call to numpy's gufunc for LAPACK's
divide-and-conquer driver ``zgesdd``, the kernel behind
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

Unentangled qubits
------------------
A ``(1, 2, 1)`` site holds the state p of a qubit entangled with
nothing and stands for p (x) I over its two bonds, which have the
dimension of its ``lambdas`` entry; `_sites` writes it out for the
readers. On a canonical chain a site has that shape exactly when it is
within ``discard_threshold`` of p (x) W, W unitary. Steps write such
sites in closed form, with the Schmidt vectors the SVD step would keep:
a swap step exchanges a ``(1, 2, 1)`` site with its neighbour and moves
the bond vector the site passes on unchanged; a gate step on two such
sites splits u4 (p (x) p') along its larger row into unit 2-vectors;
and after the SVD of any other gate step, a written site of an
unentangled qubit is stored as its p. A cut at ``chi_max`` leaves
tensors that are not isometries and vectors that are not spectra, so
it clears ``MpsState.canonical``; from then on only sites between
bonds of dimension 1 are written in closed form.

Pending walk back
-----------------
On a canonical chain a routed gate on lo < hi leaves its walk back
pending in ``MpsState._away`` = (lo, pos, the gate's stats): qubit lo
sits at site pos = hi - 1 and qubits lo+1..pos one site lower. A next
gate from qubit lo runs only the back-steps down to its gate step, or
walks up from pos, so a back-step and the up-step undoing it (swap .
swap = I) never run. A 1-qubit gate on a qubit of lo..pos walks back
until that qubit is home; other two-qubit gates, `MpsState.copy` and
the readers but `element_count` walk the hub home first, and the raw
``tensors`` and ``lambdas`` stay as stored. Off a canonical chain the
walk back runs at once, and if a back-step run for the next gate cuts
at ``chi_max``, that gate walks home and then up. So a skipped pair
never drops weight, where walking back at once could: 4 of 240 random
8-qubit, 120-gate circuits at ``chi_max`` 2, 3, 4 and 64 ended in
another state for that reason, all capped.

Classical controls
------------------
Before routing, `apply_gate` reads the site of each of a gate's
`Gate.controls`, wherever a pending walk put it. A ``(1, 2, 1)`` site
with one amplitude at most ``discard_threshold`` times the other is
classical: that amplitude is dropped, its weight counted as discarded
and the site's norm kept, and the gate is the identity for |0> or its
2x2 on the other target's site for |1>. It runs no step and calls no
kernel, yet charges its routed steps and swaps, as below.

Truncation bookkeeping
----------------------
The few singular values of a step are read into a Python list once
(LAPACK returns them descending). The keep rule walks back from the
tail past values ``<= discard_threshold`` and then caps the count at
``chi_max``; the discarded weight and the norm of the kept spectrum
are sums of squares over that list. ``GateStats`` counts every step of
a walk, closed-form, skipped and elided ones included, every kernel
call (a ``gesvd`` fallback is a second), every swap, the elided gates,
the largest kept bond and the largest discarded weight of one step or
dropped amplitude. Each two-qubit gate, elided or not, charges
`_routed_cost`, plus its own swap for an explicit ``SWAP``. `_walk`
charges kernel calls, bonds and weights once per walk, when it runs,
to its gate's stats (those in ``_away`` for a pending walk back), so
an elided gate charges none. If a step raises, the kernel calls
stay counted, and the gate's unfinished steps and its swaps do not.
``run_circuit`` counts the gates and the peak number of stored tensor
entries after each gate, 2 for a ``(1, 2, 1)`` site whatever its
bonds. `_walk` keeps that number in ``MpsState._elements`` as it writes
tensors: an SVD step adds 2 keep (chi_l + chi_r) less the two old
sizes, a re-flag 2 less the old size; no other write changes a size. A
step whose left bond has dimension 1 skips the multiply by that bond's
Schmidt vector, which is exactly ``[1.0]``: ``init_state`` builds it
so, closed-form steps write ``np.ones(1)`` where a bond shrinks to
dimension 1, and a step that keeps one value ``s0`` stores ``s0 /
sqrt(s0 * s0)``, 1.0 in binary64. Multiplying by 1.0 could only turn a
``-0.0`` into ``+0.0``, and no such theta arose in the Shor runs (15,
4) and (33, 10), or (15, 7) at ``chi_max=2``.
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
    kernel_count: int = 0
    elided_count: int = 0
    max_chi: int = 1
    max_discarded_weight: float = 0.0
    peak_elements: int = 0

    def merge(self, other: GateStats) -> None:
        for name, mine in vars(self).items():
            theirs = getattr(other, name)
            setattr(self, name, max(mine, theirs) if name.startswith(("max_", "peak_")) else mine + theirs)


@dataclass
class MpsState:
    tensors: list[np.ndarray]
    lambdas: list[np.ndarray]
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)
    #: every tensor right-isometric and every lambda its cut's exact spectrum;
    #: cleared for good by the first step that cuts a spectrum at chi_max
    canonical: bool = field(default=True, init=False)
    #: a routed gate's pending walk back, (lo, pos, its gate's stats): qubit lo sits at site pos
    _away: tuple | None = field(default=None, init=False, repr=False, compare=False)
    #: the stored entries, as `element_count` sums them; `_walk` keeps it as it writes tensors
    _elements: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._elements = self.element_count()

    @property
    def n(self) -> int:
        return len(self.tensors)

    def copy(self) -> MpsState:
        _home(self)
        new = MpsState(
            tensors=[t.copy() for t in self.tensors],
            lambdas=[l.copy() for l in self.lambdas],
            policy=self.policy,
        )
        new.canonical = self.canonical
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


def _spanned(t: np.ndarray, chi: int) -> np.ndarray:
    """Site t over bonds of dimension chi: a (1, 2, 1) site p inside them is p (x) I_chi."""
    return t * np.eye(chi)[:, None, :] if chi > 1 and t.shape == (1, 2, 1) else t


def _sites(state: MpsState):
    """Each site of the chain as (left bond, 2, right bond), for the readers."""
    for t, lam in zip(state.tensors, state.lambdas):
        yield _spanned(t, lam.size)
    yield state.tensors[-1]  # its right bond has dimension 1


def _rank1(m: np.ndarray):
    """Split the 2-row m as p (x) w + r, w along m's larger row: p as a (1, 2, 1) array, w, |r|^2."""
    n0, n1 = np.vdot(m[0], m[0]).real, np.vdot(m[1], m[1]).real
    i = int(n1 > n0)
    g = np.vdot(m[i], m[1 - i]) / (n1 if i else n0)
    r = m[1 - i] - g * m[i]
    p = np.array(((g,), (1,)) if i else ((1,), (g,))) / math.sqrt(1 + abs(g) ** 2)
    return p[None], p[:, 0].conj().dot(m), float(np.vdot(r, r).real)


def _walk(state: MpsState, pairs: range, u4: np.ndarray | None, stats: GateStats):
    """One step on each pair (q, q+1) of `pairs`: the last applies u4 (None: a swap), every other swaps."""
    tensors, lambdas = state.tensors, state.lambdas
    chi_max, threshold = state.policy.chi_max, state.policy.discard_threshold
    gesdd, thr2, tol = _gesdd, threshold * threshold, threshold + 1e-12
    top = -1 if u4 is None else pairs[-1]  # the pair u4 acts on
    done, kernels, max_keep, max_discarded, grown = 0, 0, 0, 0.0, 0
    try:
        for q in pairs:
            bl, br, lam_q = tensors[q], tensors[q + 1], lambdas[q]
            lflag, rflag = bl.shape == (1, 2, 1), br.shape == (1, 2, 1)
            chi_l = lam_q.size if lflag else bl.shape[0]
            chi_r = lam_q.size if rflag else br.shape[2]
            swap = q != top
            if swap and (lflag or rflag) and (state.canonical or chi_l == chi_r == 1):
                # an unentangled site p passes its neighbour: the exchange is the step's closed form.
                # Past an entangled site it moves a Schmidt vector, exact only on a canonical chain;
                # otherwise it exchanges only sites whose bonds all have dimension 1
                chi, lam = (chi_r, q + 1) if lflag else (chi_l, q - 1)  # p (x) I_chi spans the outer bond
                if chi > 1:
                    lambdas[q] = lambdas[lam]
                elif lam_q.size > 1:  # the bond shrinks to dimension 1, whose vector is exactly [1.0]
                    lambdas[q] = np.ones(1)
                tensors[q], tensors[q + 1] = br, bl
                if chi > max_keep:
                    max_keep = chi
                done += 1
                continue
            if not swap and lflag and rflag and (state.canonical or chi_l == 1):
                # two unentangled sites: psi = u4 (p (x) p') ~ a (x) b, b psi's larger row. The residual
                # |det psi|^2 / |b|^2 is at least sigma_2^2, and |b| at most sigma_1: within the
                # threshold, the SVD step would keep the chi values lambda * sigma_1 and no other
                (p0, p1), (r0, r1) = bl.ravel().tolist(), br.ravel().tolist()
                x00, x01, x10, x11 = u4.dot((p0 * r0, p0 * r1, p1 * r0, p1 * r1)).tolist()
                n0, n1 = abs(x00) ** 2 + abs(x01) ** 2, abs(x10) ** 2 + abs(x11) ** 2
                if flip := n1 > n0:
                    x00, x01, x10, x11, n0 = x10, x11, x00, x01, n1
                lam, res = lambdas[q - 1][-1] if chi_l > 1 else 1.0, abs(x00 * x11 - x01 * x10) ** 2
                if n0 * lam * lam > thr2 and res <= thr2 * n0:
                    g = (x10 * x00.conjugate() + x11 * x01.conjugate()) / n0
                    a, b = np.array(((g, 1) if flip else (1, g), (x00, x01))).reshape(2, 1, 2, 1)
                    tensors[q], tensors[q + 1] = a / math.sqrt(1 + abs(g) ** 2), b / math.sqrt(n0)
                    max_keep, max_discarded = max(max_keep, chi_l), max(max_discarded, res / n0)
                    done += 1
                    continue
            c = _spanned(bl, chi_l).reshape(2 * chi_l, -1).dot(_spanned(br, chi_r).reshape(-1, 2 * chi_r))
            if swap:  # c is ((chi_l, i), (j, chi_r))
                c = c.reshape(chi_l, 2, 2, chi_r).transpose(0, 2, 1, 3).reshape(2 * chi_l, 2 * chi_r)
            else:
                c = np.matmul(u4, c.reshape(chi_l, 4, chi_r)).reshape(2 * chi_l, 2 * chi_r)
            if chi_l == 1:  # the left bond holds exactly [1.0] (or there is none, at q = 0)
                theta = c
            else:
                theta = (c.reshape(chi_l, -1) * lambdas[q - 1][:, None]).reshape(2 * chi_l, -1)
            _, s, vh = gesdd(theta, signature="D->DdD")
            kernels += 1
            sl = s.tolist()  # descending
            if sl[0] != sl[0]:  # gesdd failed, and the gufunc filled its outputs with NaN
                _, s, vh = _gesvd(theta)
                kernels += 1
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
            grown += 2 * keep * (chi_l + chi_r) - bl.size - br.size
            lambdas[q] = s / nrm
            tensors[q + 1] = vh.reshape(keep, 2, chi_r)
            left = c.dot(vh.T.conj())
            left /= nrm
            tensors[q] = left.reshape(chi_l, 2, keep)
            if keep > max_keep:
                max_keep = keep
            done += 1
            if swap or not state.canonical:
                continue
            # an unentangled qubit's site holds p (x) W, W unitary, and the kept spectrum is then its
            # outer bond's vector up to the residual (Mirsky) and rounding. Within the threshold of
            # p (x) W, the site stores p, and W' moves left or W right (past (1, 2, 1) sites)
            for t, outer, chi in ((q, q - 1, chi_l), (q + 1, q + 1, chi_r)):
                if chi == keep > 1 and math.dist(lambdas[q].tolist(), lambdas[outer].tolist()) <= tol:
                    p, w, res = _rank1(tensors[t].transpose(1, 0, 2).reshape(2, -1))
                    if res > thr2:
                        continue
                    w = w.reshape(chi, chi)
                    if t == q or tensors[q].shape == (1, 2, 1):
                        u = next(u for u in range(t + 1, len(tensors)) if tensors[u].shape != (1, 2, 1))
                        tensors[u] = w.dot(tensors[u].reshape(chi, -1)).reshape(tensors[u].shape)
                    else:
                        tensors[q] = tensors[q].reshape(-1, chi).dot(w).reshape(chi_l, 2, chi)
                    grown += 2 - tensors[t].size
                    tensors[t], lambdas[q] = p, lambdas[outer]
                    max_discarded = max(max_discarded, res)
    finally:
        # once per walk, even if a step raised: the gate charged every step, so take back the unfinished
        stats.svd_count -= len(pairs) - done
        stats.kernel_count += kernels
        state._elements += grown
        if max_keep > stats.max_chi:
            stats.max_chi = max_keep
        if max_discarded > stats.max_discarded_weight:
            stats.max_discarded_weight = max_discarded


def _home(state: MpsState, to: int = 0):
    """Run the pending walk back on pairs pos-1 .. max(to, lo); to=0 walks qubit lo home."""
    if state._away:
        lo, pos, stats = state._away
        state._away = (lo, to, stats) if to > lo else None
        _walk(state, range(pos - 1, max(to, lo) - 1, -1), None, stats)


def _routed_cost(q1: int, q2: int) -> tuple[int, int]:
    """The steps and routing swaps a gate on qubits d apart charges, whether or not it walks: 2d-1, 2d-2."""
    return 2 * abs(q1 - q2) - 1, 2 * abs(q1 - q2) - 2


def _apply_2q_routed(state: MpsState, u4: np.ndarray | None, q1: int, q2: int, stats: GateStats):
    """Route (q1, q2) to adjacency with swaps, apply u4, and route back; u4=None is a SWAP.

    The walk steps on pairs (q, q+1) lo..hi-2, hi-1 (u4), hi-2..lo; on a
    canonical chain the walk back hi-2..lo is left pending.
    """
    lo, hi = (q1, q2) if q1 < q2 else (q2, q1)
    if q1 > q2 and u4 is not None:
        u4 = u4[_REVERSE][:, _REVERSE]
    top = hi - 1
    if state._away and state._away[0] == lo and top < state._away[1]:
        _home(state, top)  # the same hub reaches nearer: walk it back only to the gate's pair
    if state._away and (state._away[0] != lo or not state.canonical):
        _home(state)  # another hub, or a back-step cut at chi_max: the up-steps must run
    start = state._away[1] if state._away else lo  # where qubit lo sits: the up-steps below never run
    state._away = None
    steps, swaps = _routed_cost(lo, hi)
    stats.svd_count += hi - lo  # the walk up and the gate step
    _walk(state, range(start, hi), u4, stats)
    stats.svd_count += steps - (hi - lo)  # the walk back, once the walk up ran
    if state.canonical and top > lo:
        state._away = (lo, top, stats)
    else:
        _walk(state, range(top - 1, lo - 1, -1), None, stats)
    stats.swap_count += swaps + (u4 is None)


def apply_gate(state: MpsState, gate: Gate, stats: GateStats | None = None):
    """Apply one circuit gate.

    The one entry point for a gate (`apply_1q` and `apply_2q` wrap
    their matrix in a U1 or U2 gate). A target outside the chain raises
    ValueError before the state is touched; arity, distinct targets and
    unitarity were checked when the gate was built. A gate with a
    classical control is elided (module docstring, Classical controls).
    """
    if max(gate.targets) >= state.n:
        raise ValueError(f"{gate.kind}{gate.targets} out of range for n={state.n}")
    if gate.arity == 2:
        stats = GateStats() if stats is None else stats
        lo, pos, _ = state._away or (-1, -1, None)  # a pending walk back has qubit lo at pos, lo+1..pos one lower
        sites = [pos if t == lo else t - 1 if lo < t <= pos else t for t in gate.targets]
        thr = state.policy.discard_threshold
        for c in gate.controls:  # classical: a (1, 2, 1) site with one amplitude at most thr times the other
            if (p := state.tensors[sites[c]]).shape == (1, 2, 1):
                a0, a1 = map(abs, p.ravel().tolist())
                if (bit := 0 if a1 <= thr * a0 else 1 if a0 <= thr * a1 else None) is not None:
                    break
        else:
            # CPHASE is symmetric in its two bits, so it is applied in chain order, without reindexing
            q1, q2 = sorted(gate.targets) if gate.kind == "CPHASE" else gate.targets
            return _apply_2q_routed(state, None if gate.kind == "SWAP" else gate.full_matrix(), q1, q2, stats)
        if w := min(a0, a1) ** 2 / (a0 * a0 + a1 * a1):  # the small amplitude is dropped, the norm kept
            stats.max_discarded_weight = max(stats.max_discarded_weight, w)
            state.tensors[sites[c]] = p * (np.arange(2) == bit)[:, None] / math.sqrt(1 - w)
        steps, swaps = _routed_cost(*gate.targets)  # charged, though the walk never runs
        stats.svd_count += steps
        stats.swap_count += swaps
        stats.elided_count += 1
        if not bit:
            return
        u, q = gate.full_matrix()[2:, 2:], sites[1 - c]  # control |1>: the 2x2 on the other target's site
    else:
        u, q = gate.full_matrix(), gate.targets[0]
        if state._away and state._away[0] <= q <= state._away[1]:
            _home(state, q - 1)  # walk the hub back until qubit q is home
    state.tensors[q] = u @ state.tensors[q]


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
    stats = GateStats(peak_elements=state._elements)
    for g in circ.gates:
        if deadline is not None and time.monotonic() > deadline:
            raise SimulationTimeout(
                f"deadline expired after {stats.gate_count} of {len(circ.gates)} gates", stats
            )
        apply_gate(state, g, stats)
        if state._elements > stats.peak_elements:
            stats.peak_elements = state._elements
        stats.gate_count += 1
    return stats


def amplitude(state: MpsState, bits) -> complex:
    """Coefficient of one computational basis string (chain contraction)."""
    if len(bits) != state.n:
        raise ValueError(f"need {state.n} bits, got {len(bits)}")
    if any(bit not in (0, 1, "0", "1") for bit in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits!r}")
    _home(state)
    v = np.ones(1, dtype=complex)
    for b, bit in zip(_sites(state), bits):
        v = v @ b[:, int(bit), :]
    return complex(v[0])


def state_norm(state: MpsState) -> float:
    """Exact 2-norm of the represented state (gauge independent)."""
    _home(state)
    env = np.ones((1, 1), dtype=complex)
    for b in _sites(state):
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
    _home(state)
    m, sites = state.n // 2, list(_sites(state))
    left = np.ones((1, 1), dtype=complex)
    for b in sites[:m]:
        left = np.tensordot(left, b, axes=(1, 0)).reshape(-1, b.shape[2])
    right = np.ones((1, 1), dtype=complex)
    for b in reversed(sites[m:]):
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
    _home(state)
    if state.canonical:
        return state.lambdas[cut - 1]
    sites = list(_sites(state))
    left = np.ones((1, 1), dtype=complex)
    for b in sites[:cut]:
        m = np.tensordot(left, b, axes=(1, 0)).reshape(-1, b.shape[2])
        left = np.linalg.qr(m, mode="r")
    right = np.ones((1, 1), dtype=complex)
    for b in reversed(sites[cut:]):
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
    _home(state)
    return max((lam.size for lam in state.lambdas), default=1)


def sample(state: MpsState, qubits, shots: int, seed: int) -> dict[str, int]:
    """Draw `shots` bitstrings for the given qubits, walking a pending hub home; the state is unchanged.

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
    _home(state)
    rng = np.random.default_rng(seed)
    randoms = rng.random((shots, state.n))
    v = np.ones((shots, 1), dtype=complex)
    digits = np.empty((shots, state.n), dtype=np.uint8)
    for l, b in enumerate(_sites(state)):
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
