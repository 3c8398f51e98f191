"""Reference-speed probe: how fast this machine runs while a call runs.

On a shared host the speed of a core swings by a quarter or more within
seconds, and all code slows together. While a unit call runs, `Sampler`
interrupts it every period (SIGALRM, handled in the main thread between
bytecodes) and times one fixed batch of reference work. The time spent
in the probe is taken out of the call's wall time, and the rest is
scaled by the batch's reference time over its mean measured time. The
scaled time reads as seconds on a machine where the batch takes its
reference time, and it moves much less when the host slows down or
speeds up.

There are two batches, one per kind of work the simulator does: "small"
is a two-site update loop at bond dimension 2 like the MPS simulator's
(tensordot, reshape, 4x4 SVD, truncation), where Python and numpy call
overhead dominate; "large" is one two-site update at the bond cap of 64
(128x128 complex SVD) on the next pair of a 24-site chain, so that the
probe's working set (3 MB) outgrows the core's own cache as the
simulator's does. The probe imports nothing from the program under test,
so a change to the program never changes it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_now = time.perf_counter
_rng = np.random.default_rng(20230509)
_A = _rng.standard_normal((2, 2, 2)) + 1j * _rng.standard_normal((2, 2, 2))
_B = _rng.standard_normal((2, 2, 2)) + 1j * _rng.standard_normal((2, 2, 2))
_G = np.linalg.qr(_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)))[0].reshape(2, 2, 2, 2)
_CHAIN = [_rng.standard_normal((64, 2, 64)) + 1j * _rng.standard_normal((64, 2, 64)) for _ in range(24)]
_next = 0


def _update(a, b, chi: int):
    """Two-site gate, SVD and truncation to `chi` on tensors (l, i, m) and (m, j, r)."""
    theta = np.tensordot(a, b, axes=(2, 0))  # (l, i, j, r)
    theta = np.tensordot(_G, theta, axes=([2, 3], [1, 2])).transpose(2, 0, 1, 3)
    u, s, vh = np.linalg.svd(theta.reshape(2 * a.shape[0], -1), full_matrices=False)
    s = s[:chi] / np.linalg.norm(s[:chi])
    return (u[:, :chi] * s).reshape(a.shape[0], 2, chi), vh[:chi].reshape(chi, 2, b.shape[2])


def _small() -> None:
    a, b = _A, _B
    for _ in range(40):
        a, b = _update(a, b, 2)


def _large() -> None:
    global _next
    i = _next
    _next = (i + 2) % len(_CHAIN)
    _CHAIN[i], _CHAIN[i + 1] = _update(_CHAIN[i], _CHAIN[i + 1], 64)


# kind -> (batch, its seconds on the reference machine, sampling period in seconds);
# the reference machine is a 2-vCPU shared VM with BLAS on one thread.
BATCHES = {
    "small": (_small, 0.003, 0.1),
    "large": (_large, 0.008, 0.2),
}


def batch(kind: str) -> float:
    """Seconds of one batch of the reference work of `kind`."""
    t0 = _now()
    BATCHES[kind][0]()
    return _now() - t0


class Sampler:
    """Probe batches of one kind, timed periodically inside a `with` block.

    After the block, `spent` is the wall time the probes took and `scale`
    turns the block's remaining seconds into reference seconds. A block
    shorter than one period gets one batch right after it.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = _now()
        self.samples.append(batch(self.kind))
        self.spent += _now() - t0

    def __enter__(self):
        period = BATCHES[self.kind][2]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:
            self.samples.append(batch(self.kind))
        return False

    @property
    def scale(self) -> float:
        return BATCHES[self.kind][1] / statistics.fmean(self.samples)


def scale_after(kind: str, batches: int = 15) -> float:
    """Reference-seconds factor from batches run now, for work that just ended."""
    return BATCHES[kind][1] / statistics.median(batch(kind) for _ in range(batches))
