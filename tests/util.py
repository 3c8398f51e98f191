"""Shared helpers for the test suite."""

import hashlib
import itertools
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np

from mpshor import circuit as cir
from mpshor import mps


def haar_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_circuit(n, depth, seed, p_single=0.3):
    """Seeded random circuit of Haar 1- and 2-qubit unitaries."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(depth):
        if n == 1 or rng.random() < p_single:
            gates.append(cir.unitary1(haar_unitary(2, rng), int(rng.integers(n))))
        else:
            a, b = rng.choice(n, 2, replace=False)
            gates.append(cir.unitary2(haar_unitary(4, rng), int(a), int(b)))
    return cir.Circuit(n, tuple(gates))


def circuit_digest(circ):
    """SHA-256 hex digest of a circuit: width, layout, measured qubits and checkpoints, then each gate's
    kind, targets, repr(angle) and matrix bytes (so signed zeros count)."""
    digest = hashlib.sha256(repr((circ.width, circ.layout, circ.measured, circ.checkpoints)).encode())
    for g in circ.gates:
        digest.update(repr((g.kind, g.targets, g.angle)).encode())
        if g.matrix is not None:
            digest.update(g.matrix.tobytes())
    return digest.hexdigest()


def dft_matrix(n):
    """Direct evaluation of the discrete Fourier transform on 2^n points."""
    dim = 1 << n
    grid = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * grid / dim) / np.sqrt(dim)


def clock_expiring_after(k):
    """A `time` stand-in whose monotonic clock jumps past any deadline at its (k+1)-th read.

    Its perf_counter is the real one, so phase timings stay real.
    """
    reads = itertools.count()
    return SimpleNamespace(
        monotonic=lambda: time.monotonic() + (0.0 if next(reads) < k else 1e9),
        perf_counter=time.perf_counter,
    )


def traced_peak(fn):
    """Call fn() under tracemalloc; return (its result, the peak bytes it held at once).

    numpy reports its array buffers to tracemalloc, so the peak counts
    the arrays fn allocates, its result included.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def assert_canonical(state, tol):
    """Assert the canonical chain gauge: right-isometric tensors and Schmidt-diagonal left Grams.

    Every written-out site (chi_l, 2, chi_r) must satisfy T T^dagger = I
    over its (physical, right) indices, and the Gram matrix of the left
    block's states at each bond l must equal diag(lambdas[l] ** 2).
    """
    gram = np.ones((1, 1), dtype=complex)
    for l, t in enumerate(mps._sites(state)):
        m = t.reshape(t.shape[0], -1)
        assert np.abs(m @ m.conj().T - np.eye(t.shape[0])).max() <= tol, f"site {l} is not right-isometric"
        gram = np.einsum("ab,aic,bid->cd", gram, t.conj(), t)
        want = np.diag(state.lambdas[l] ** 2) if l < state.n - 1 else np.ones((1, 1))
        assert gram.shape == want.shape and np.abs(gram - want).max() <= tol, f"bond {l} Gram is not diag(lambda^2)"


def assert_site_shapes(state):
    """Assert the stored shapes: a (1, 2, 1) site sits between bonds of equal dimension, every other spans its bonds."""
    bonds = [1, *(lam.size for lam in state.lambdas), 1]
    assert len(bonds) == state.n + 1
    for l, t in enumerate(state.tensors):
        if t.shape == (1, 2, 1):
            assert bonds[l] == bonds[l + 1], f"(1, 2, 1) site {l} sits between bonds {bonds[l]} and {bonds[l + 1]}"
        else:
            assert t.shape == (bonds[l], 2, bonds[l + 1]), f"site {l} has shape {t.shape} between bonds {bonds[l:l + 2]}"


def spy_gesdd(monkeypatch):
    """Route mps._gesdd through a recorder; returns the list of theta shapes it is called on."""
    calls = []
    real = mps._gesdd

    def gesdd(m, signature):
        calls.append(m.shape)
        return real(m, signature=signature)

    monkeypatch.setattr(mps, "_gesdd", gesdd)
    return calls


def assert_flags_exact(state):
    """Assert on a canonical chain that a site is stored as (1, 2, 1) exactly when its qubit is unentangled.

    The gauge makes the left states at bond l-1 orthogonal with norms
    lambdas[l-1] and the right states at bond l orthonormal, so qubit l's
    coefficients form the 2 x (chi_l * chi_r) matrix lambdas[l-1][a] *
    T_l[a, i, b] over i and (a, b). Its second singular value, the rank-1
    residual, must be at most discard_threshold on a (1, 2, 1) site and
    above it on every other.
    """
    assert state.canonical, "the shapes are exact only on a canonical chain"
    for l, (stored, t) in enumerate(zip(state.tensors, mps._sites(state))):
        flagged = stored.shape == (1, 2, 1)
        lam = state.lambdas[l - 1] if l else np.ones(1)
        m = (lam[:, None, None] * t).transpose(1, 0, 2).reshape(2, -1)
        residual = np.append(np.linalg.svd(m, compute_uv=False), 0.0)[1]  # 0 for a 2 x 1 matrix
        unentangled = residual <= state.policy.discard_threshold
        assert flagged == unentangled, f"site {l}: (1, 2, 1) {flagged}, rank-1 residual {residual:.3g}"
