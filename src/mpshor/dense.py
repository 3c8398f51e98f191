"""Dense statevector simulator, the test oracle for the MPS engine.

Amplitudes live in one complex vector of length 2**n (qubit 0 = most
significant bit), and every gate updates that vector in place:

* ``PHASE`` and ``CPHASE`` scale the slice whose targets are all 1;
* ``X`` and ``SWAP`` exchange two slices;
* a ``U2`` controlled on its first target mixes the two slices with
  control 1 and leaves the other half alone;
* any other gate mixes its two (one target) or four (two targets)
  slices.

Exchanges and mixes run over blocks of at most ``BLOCK`` amplitudes
per slice, so their temporaries are a few blocks (at most six, 1.5 MiB)
whatever n is: a run holds one vector plus that, 256 MiB plus 1.5 MiB
at the 24-qubit cap. Each update takes the products and sums of the
plain slice formula in its operand order, so the blocking changes no
bit of the amplitudes. This module exists to cross-validate the MPS
engine and circuit builders, not to be fast; the pipeline never runs
it, and it does not import the engine it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate

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


#: amplitudes per block of a gate update, a power of two so that all
#: blocks of a view have one shape; 2**14 complex values take 256 KiB
BLOCK = 1 << 14


def _split(psi: np.ndarray, targets, n: int) -> np.ndarray:
    """View of psi with one length-2 axis per target, first and in target order.

    The other qubits are merged into the free axes that follow, in
    memory order, so C order over them is memory order.
    """
    shape: list[int] = []
    axis = {}
    prev = 0
    for q in sorted(targets):
        shape += [1 << (q - prev), 2]
        axis[q] = len(shape) - 1
        prev = q + 1
    shape.append(1 << (n - prev))
    first = [axis[q] for q in targets]
    rest = [a for a in range(len(shape)) if a not in first]
    return psi.reshape(shape, copy=False).transpose(first + rest)


def _loop_order(shape) -> list[int] | None:
    """Axis order with the longest axis last, if the innermost axis holds 2.

    numpy runs its inner loop over the innermost axis longer than 1,
    and a loop over 2 amplitudes costs more in overhead than in
    arithmetic. ufuncs called with ``order="C"`` on the view transposed
    to this order loop over the long axis instead.
    """
    sizes = [d for d in shape if d > 1]
    if not sizes or sizes[-1] > 2:
        return None
    ax = max(range(len(shape)), key=shape.__getitem__)
    return [a for a in range(len(shape)) if a != ax] + [ax]


def _blocks(*views: np.ndarray):
    """Matching blocks of same-shape views, each at most BLOCK elements.

    Blocks follow memory order: the innermost axes that fit whole, and
    a run of the next axis out. A block then spans a compact stretch
    of the amplitude vector, where cutting along a long outer axis
    would touch many short rows that share cache sets.
    """
    shape = views[0].shape
    cut = len(shape) - 1
    while cut > 0 and math.prod(shape[cut:]) <= BLOCK:
        cut -= 1
    step = max(1, BLOCK // math.prod(shape[cut + 1 :]))
    order = _loop_order((min(step, shape[cut]),) + shape[cut + 1 :])
    for outer in np.ndindex(shape[:cut]):
        for j in range(0, shape[cut], step):
            idx = outer + (slice(j, j + step),)
            if order is None:
                yield [v[idx] for v in views]
            else:
                yield [v[idx].transpose(order) for v in views]


def _exchange(a: np.ndarray, b: np.ndarray):
    """Swap the contents of two same-shape views, block by block."""
    tmp = None
    for x, y in _blocks(a, b):
        if tmp is None:
            tmp = np.empty(x.shape, dtype=complex)
        np.copyto(tmp, x)
        np.copyto(x, y)
        np.copyto(y, tmp)


def _mix(u: np.ndarray, views: list[np.ndarray], terms: list[list[int]]):
    """views[r] <- u[r, c0] * views[c0] + u[r, c1] * views[c1] + ... in place.

    The sum runs over c in terms[r], left to right. Each block of the
    old values is copied once, and every block reuses the same
    len(views) + 2 scratch arrays.
    """
    scratch = None
    for new in _blocks(*views):
        if scratch is None:
            scratch = [np.empty(new[0].shape, dtype=complex) for _ in range(len(views) + 2)]
        *old, acc, tmp = scratch
        for o, x in zip(old, new):
            np.copyto(o, x)
        for r, (first, *rest) in enumerate(terms):
            np.multiply(u[r, first], old[first], out=acc if rest else new[r], order="C")
            for i, c in enumerate(rest, 1):
                np.multiply(u[r, c], old[c], out=tmp)
                np.add(acc, tmp, out=acc if i < len(rest) else new[r], order="C")


def _apply_gate(psi: np.ndarray, g: Gate, n: int):
    """Apply one gate in place to psi, the 2**n amplitudes in one contiguous array.

    Products and sums are those of the plain slice formula, with the
    operands in its order: new[r] = u[r, 0] * old[0] + u[r, 1] * old[1]
    for a 2 x 2 block, and for a general 4 x 4 matrix the same sum
    without the terms after the first whose entry is 0. Blocking
    therefore changes no bit of the result.
    """
    v = _split(psi, g.targets, n)
    if g.kind in ("PHASE", "CPHASE"):
        x = v[(1,) * g.arity]
        order = _loop_order(x.shape)
        if order is not None:
            x = x.transpose(order)
        np.multiply(x, np.exp(1j * g.angle), out=x, order="C")
        return
    if g.kind == "X":
        _exchange(v[0], v[1])
        return
    if g.kind == "SWAP":
        _exchange(v[0, 1], v[1, 0])
        return
    u = g.full_matrix()
    if g.arity == 1:
        _mix(u, [v[0], v[1]], [[0, 1], [0, 1]])
        return
    # controlled on the first target: only the control = 1 half changes
    if (
        u[0, 0] == 1
        and u[1, 1] == 1
        and not u[0, 1:].any()
        and not u[1, 2:].any()
        and u[1, 0] == 0
        and not u[2:, :2].any()
    ):
        _mix(u[2:, 2:], [v[1, 0], v[1, 1]], [[0, 1], [0, 1]])
        return
    terms = [[0] + [c for c in (1, 2, 3) if u[r, c] != 0] for r in range(4)]
    _mix(u, [v[r >> 1, r & 1] for r in range(4)], terms)


def dense_run(circ: Circuit, initial: int | np.ndarray | None = None) -> DenseState:
    """Run a circuit exactly; `initial` is a basis index in [0, 2**n) or a full vector."""
    n = circ.width
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense oracle capped at {MAX_DENSE_QUBITS} qubits, got {n}")
    if isinstance(initial, np.ndarray):
        if initial.shape != (1 << n,):
            raise ValueError("initial vector has wrong length")
        psi = np.array(initial, dtype=complex)
    else:
        index = 0 if initial is None else int(initial)
        if not 0 <= index < 1 << n:
            raise ValueError(f"basis index {index} out of range for {n} qubits")
        psi = np.zeros(1 << n, dtype=complex)
        psi[index] = 1.0
    for g in circ.gates:
        _apply_gate(psi, g, n)
    return DenseState(n=n, amplitudes=psi)


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
    probs = np.abs(state.amplitudes)
    np.square(probs, out=probs)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(probs.size, size=shots, p=probs)
    counts: dict[str, int] = {}
    for v, c in zip(*np.unique(outcomes, return_counts=True)):
        key = "".join("1" if (int(v) >> (n - 1 - q)) & 1 else "0" for q in qubits)
        counts[key] = counts.get(key, 0) + int(c)
    return counts
