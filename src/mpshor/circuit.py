"""Backend-agnostic gate-level circuits and the order-finding builders.

Circuits are flat lists of 1- and 2-qubit gates. Qubit indices are
chain positions: index 0 is the left end of the MPS chain and the most
significant bit of any value a register encodes.

The order-finding circuit follows the reversible-arithmetic layout
with three registers: a counting register of 2n qubits, a work
register of n qubits holding a^x mod N, and n+2 ancilla qubits (an
(n+1)-bit accumulator operated on in the Fourier basis plus one
comparison qubit), 4n+2 qubits in total. Controlled modular
multiplication is compiled down to phase-gradient adders so that
every emitted gate touches at most two qubits.

Serialization format (`circuit_to_text` / `circuit_from_text`), one
record per line:

    width 18
    layout 4 upper-lower-ancilla
    measured 0 1 2 ...
    checkpoint prep 9
    H 0
    X 11
    PHASE 3 0.7853981633974483
    CPHASE 0 4 1.5707963267948966
    SWAP 2 5
    U1 4 (0.707...+0j) ... (4 complex entries, row major)
    U2 2 3 (1+0j) ... (16 complex entries, row major)

The optional `layout` header gives n and the register ordering, from
which `RegisterLayout` derives every register's qubits; its width must
equal `width`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

_UNITARY_TOL = 1e-12

_H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
_SWAP_MAT = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_CX_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
# V*V = X, used to split three-qubit gates into two-qubit ones
_V_MAT = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_CV_MAT = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), _V_MAT]])
_EYE4 = np.eye(4, dtype=complex)

_KIND_ARITY = {
    "H": 1,
    "X": 1,
    "PHASE": 1,
    "CPHASE": 2,
    "SWAP": 2,
    "U1": 1,
    "U2": 2,
}
_ANGLED = {"PHASE", "CPHASE"}
_MATRIXED = {"U1", "U2"}


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str
    targets: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KIND_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        self._check_targets(self.targets)
        if (self.angle is not None) != (self.kind in _ANGLED):
            raise ValueError(f"angle mismatch for {self.kind}")
        if (self.matrix is not None) != (self.kind in _MATRIXED):
            raise ValueError(f"matrix mismatch for {self.kind}")
        if self.matrix is not None:
            dim = 2 if self.kind == "U1" else 4
            m = np.array(self.matrix, dtype=complex)  # frozen below; never the caller's array
            if m.shape != (dim, dim):
                raise ValueError(f"{self.kind} matrix must be {dim}x{dim}")
            dev = np.abs(m.conj().T @ m - np.eye(dim)).max()
            if dev > _UNITARY_TOL:
                raise ValueError(f"matrix not unitary (deviation {dev:.2e})")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)

    def _check_targets(self, targets: tuple[int, ...]) -> None:
        if len(targets) != _KIND_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_KIND_ARITY[self.kind]} targets")
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate targets {targets}")
        if any(t < 0 for t in targets):
            raise ValueError(f"negative target in {targets}")

    @property
    def arity(self) -> int:
        return _KIND_ARITY[self.kind]

    def full_matrix(self) -> np.ndarray:
        """Dense matrix on the gate's targets, first target = high bit."""
        if self.kind == "H":
            return _H_MAT
        if self.kind == "X":
            return _X_MAT
        if self.kind == "PHASE":
            return np.array([[1, 0], [0, cmath.exp(1j * self.angle)]])
        if self.kind == "CPHASE":
            m = _EYE4.copy()
            m[3, 3] = cmath.exp(1j * self.angle)
            return m
        if self.kind == "SWAP":
            return _SWAP_MAT
        return self.matrix

    def dagger(self) -> Gate:
        if self.kind in ("H", "X", "SWAP"):
            return self
        if self.kind in _ANGLED:
            return Gate(self.kind, self.targets, angle=-self.angle)
        return Gate(self.kind, self.targets, matrix=self.matrix.conj().T)

    def remapped(self, perm: dict[int, int]) -> Gate:
        """The gate on relabelled targets; it shares the matrix checked and frozen at build."""
        targets = tuple(perm[t] for t in self.targets)
        self._check_targets(targets)
        gate = object.__new__(Gate)
        gate.__dict__.update(vars(self), targets=targets)
        return gate


def h(q: int) -> Gate:
    return Gate("H", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def phase(theta: float, q: int) -> Gate:
    return Gate("PHASE", (q,), angle=theta)


def cphase(theta: float, c: int, t: int) -> Gate:
    return Gate("CPHASE", (c, t), angle=theta)


def swap(a: int, b: int) -> Gate:
    return Gate("SWAP", (a, b))


def unitary1(m, q: int) -> Gate:
    return Gate("U1", (q,), matrix=np.asarray(m, dtype=complex))


def unitary2(m, q0: int, q1: int) -> Gate:
    return Gate("U2", (q0, q1), matrix=np.asarray(m, dtype=complex))


def cx(c: int, t: int) -> Gate:
    return Gate("U2", (c, t), matrix=_CX_MAT)


def gates_close(a: Gate, b: Gate) -> bool:
    """Same kind, targets, angle and matrix entries."""
    if (a.kind, a.targets, a.angle) != (b.kind, b.targets, b.angle):
        return False
    return a.matrix is None or np.array_equal(a.matrix, b.matrix)


ORDERINGS = (
    "upper-lower-ancilla",
    "upper-ancilla-lower",
    "lower-upper-ancilla",
    "lower-ancilla-upper",
    "ancilla-upper-lower",
    "ancilla-lower-upper",
)


@dataclass(frozen=True)
class RegisterLayout:
    """Counting (2n), work (n) and ancilla (n+2) registers, contiguous in `ordering`'s chain order."""

    n: int
    ordering: str = "upper-lower-ancilla"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")

    def blocks(self) -> list[tuple[str, tuple[int, ...]]]:
        """Registers in chain order."""
        sizes = {"upper": 2 * self.n, "lower": self.n, "ancilla": self.n + 2}
        blocks, pos = [], 0
        for name in self.ordering.split("-"):
            blocks.append((name, tuple(range(pos, pos + sizes[name]))))
            pos += sizes[name]
        return blocks

    @property
    def upper(self) -> tuple[int, ...]:
        return dict(self.blocks())["upper"]

    @property
    def lower(self) -> tuple[int, ...]:
        return dict(self.blocks())["lower"]

    @property
    def ancilla(self) -> tuple[int, ...]:
        return dict(self.blocks())["ancilla"]

    @property
    def width(self) -> int:
        return sum(len(block) for _, block in self.blocks())

    def boundary_cuts(self) -> tuple[int, int]:
        """The two chain cuts separating the three register blocks."""
        blocks = self.blocks()
        c1 = len(blocks[0][1])
        return c1, c1 + len(blocks[1][1])


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple[Gate, ...]
    layout: RegisterLayout | None = None
    measured: tuple[int, ...] = ()
    checkpoints: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "measured", tuple(self.measured))
        object.__setattr__(self, "checkpoints", tuple(self.checkpoints))
        for g in self.gates:
            if max(g.targets) >= self.width:
                raise ValueError(f"gate {g.kind}{g.targets} exceeds width {self.width}")
        if self.layout is not None:
            if self.layout.width != self.width:
                raise ValueError("layout width != circuit width")
            if self.measured and not set(self.measured) <= set(self.layout.upper):
                raise ValueError("measured qubits must lie in the counting register")
        elif any(q >= self.width or q < 0 for q in self.measured):
            raise ValueError("measured qubit out of range")
        prev = 0
        for _, idx in self.checkpoints:
            if not 0 <= idx <= len(self.gates):
                raise ValueError("checkpoint index out of range")
            if idx < prev:
                raise ValueError("checkpoint indices must not decrease")
            prev = idx

    def segments(self):
        """Yield (label, gates) spans between consecutive checkpoints."""
        prev = 0
        for label, idx in self.checkpoints:
            yield label, self.gates[prev:idx]
            prev = idx
        if prev < len(self.gates):
            yield "tail", self.gates[prev:]


def qft_gates(qubits) -> list[Gate]:
    """Fourier transform on the given qubits, first qubit = high bit."""
    qs = list(qubits)
    n = len(qs)
    out = []
    for j in range(n):
        out.append(h(qs[j]))
        for k in range(j + 1, n):
            out.append(cphase(math.pi / (1 << (k - j)), qs[k], qs[j]))
    for i in range(n // 2):
        out.append(swap(qs[i], qs[n - 1 - i]))
    return out


def inverse_gates(gates) -> list[Gate]:
    return [g.dagger() for g in reversed(gates)]


def qft_circuit(n: int) -> Circuit:
    if n < 1:
        raise ValueError("n must be positive")
    return Circuit(n, tuple(qft_gates(range(n))))


def inverse_qft_circuit(n: int) -> Circuit:
    return Circuit(n, tuple(inverse_gates(qft_circuit(n).gates)))


def toffoli_gates(c1: int, c2: int, t: int) -> list[Gate]:
    cv = unitary2(_CV_MAT, c2, t)
    return [cv, cx(c1, c2), cv.dagger(), cx(c1, c2), unitary2(_CV_MAT, c1, t)]


def cswap_gates(c: int, a: int, b: int) -> list[Gate]:
    """Swap a and b when c is set, as two-qubit gates."""
    return [cx(b, a), *toffoli_gates(c, a, b), cx(b, a)]


def phi_add_gates(breg, k: int, controls: tuple[int, ...] = (), sign: int = 1) -> list[Gate]:
    """Add the classical constant k to a Fourier-basis accumulator.

    breg[i] carries the phase factor exp(2 pi i b / 2^(i+1)), so adding
    k means a phase of 2 pi k / 2^(i+1) on each qubit. With two
    controls the doubly-controlled rotations share their controls, so
    the whole block needs just two CX gates:

        CP(t/2)(c2, b_i) for all i; CX(c1, c2);
        CP(-t/2)(c2, b_i) for all i; CX(c1, c2);
        CP(t/2)(c1, b_i) for all i

    which equals applying the doubly-controlled phases one by one.
    """
    m = len(breg)

    def angles():
        for i in range(m):
            kk = (sign * k) % (1 << (i + 1))
            if kk:
                yield i, 2 * math.pi * kk / (1 << (i + 1))

    if len(controls) == 0:
        return [phase(theta, breg[i]) for i, theta in angles()]
    if len(controls) == 1:
        return [cphase(theta, controls[0], breg[i]) for i, theta in angles()]
    if len(controls) == 2:
        c1, c2 = controls
        halves = [(i, theta / 2) for i, theta in angles()]
        out = [cphase(th, c2, breg[i]) for i, th in halves]
        out.append(cx(c1, c2))
        out += [cphase(-th, c2, breg[i]) for i, th in halves]
        out.append(cx(c1, c2))
        out += [cphase(th, c1, breg[i]) for i, th in halves]
        return out
    raise ValueError("at most two controls supported")


def phi_add_mod_gates(breg, cmp: int, k: int, modulus: int, c1: int, c2: int) -> list[Gate]:
    """Doubly-controlled b += k (mod modulus) on the Fourier-basis accumulator.

    Requires k < modulus and accumulator value < modulus < 2^(len(breg)-1);
    cmp must be |0> and returns to |0>. With both controls off the block
    is the identity (the unconditional subtract/re-add of the modulus
    cancels through the comparison qubit).
    """
    qft_b = qft_gates(breg)
    iqft_b = inverse_gates(qft_b)
    g: list[Gate] = []
    g += phi_add_gates(breg, k, (c1, c2))
    g += phi_add_gates(breg, modulus, (), sign=-1)
    g += iqft_b
    g.append(cx(breg[0], cmp))
    g += qft_b
    g += phi_add_gates(breg, modulus, (cmp,))
    g += phi_add_gates(breg, k, (c1, c2), sign=-1)
    g += iqft_b
    g.append(x(breg[0]))
    g.append(cx(breg[0], cmp))
    g.append(x(breg[0]))
    g += qft_b
    g += phi_add_gates(breg, k, (c1, c2))
    return g


def cmult_gates(control: int, xreg, breg, cmp: int, a: int, modulus: int) -> list[Gate]:
    """Controlled b += a*x (mod modulus), x read from xreg, high bit first."""
    n = len(xreg)
    g = qft_gates(breg)
    for j in range(n):
        kj = (a << (n - 1 - j)) % modulus
        g += phi_add_mod_gates(breg, cmp, kj, modulus, control, xreg[j])
    g += inverse_gates(qft_gates(breg))
    return g


def controlled_modular_multiplier(a: int, modulus: int, control: int, layout: RegisterLayout) -> list[Gate]:
    """Gate sequence for |c>|x> -> |c>|a*x mod N> (c=1, x < N).

    Built as controlled(b += a*x), a controlled register swap between x
    and the accumulator's low bits, and the inverse of controlled
    (b += a^-1 * x) to return the accumulator to |0>. Multiplying by
    a = 1 is the identity and emits no gates.
    """
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} has no inverse modulo {modulus}")
    if a == 1:
        return []
    xreg = layout.lower
    breg = layout.ancilla[:-1]
    cmp = layout.ancilla[-1]
    a_inv = pow(a, -1, modulus)
    g = cmult_gates(control, xreg, breg, cmp, a, modulus)
    for i in range(len(xreg)):
        g += cswap_gates(control, xreg[i], breg[i + 1])
    g += inverse_gates(cmult_gates(control, xreg, breg, cmp, a_inv, modulus))
    return g


def shor_order_circuit(modulus: int, a: int) -> Circuit:
    """Order-finding circuit for a modulo N on 4n+2 qubits.

    Counting register in uniform superposition, work register prepared
    to |1>, one controlled multiplication by a^(2^j) per counting
    qubit, then the inverse Fourier transform on the counting register,
    which is the register to measure. The ancilla block is uncomputed
    to |0...0> by each multiplier. The registers are laid out
    upper-lower-ancilla; `reorder_registers` relabels them into any
    other chain order.
    """
    if modulus % 2 == 0 or modulus < 15:
        raise ValueError(f"modulus must be odd and >= 15, got {modulus}")
    if not 1 < a < modulus:
        raise ValueError(f"need 1 < a < N, got a={a}")
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"a={a} shares a factor with N={modulus}")
    n = modulus.bit_length()
    t = 2 * n
    layout = RegisterLayout(n)
    gates: list[Gate] = [h(q) for q in layout.upper]
    gates.append(x(layout.lower[-1]))
    checkpoints = [("prep", len(gates))]
    for j in range(t):
        aj = pow(a, 1 << j, modulus)
        gates += controlled_modular_multiplier(aj, modulus, layout.upper[t - 1 - j], layout)
        checkpoints.append((f"mult-{j}", len(gates)))
    gates += inverse_gates(qft_gates(layout.upper))
    checkpoints.append(("iqft", len(gates)))
    return Circuit(
        width=layout.width,
        gates=tuple(gates),
        layout=layout,
        measured=layout.upper,
        checkpoints=tuple(checkpoints),
    )


def reorder_registers(circ: Circuit, ordering: str) -> Circuit:
    """Relabel qubits so the registers appear in the given chain order."""
    if circ.layout is None:
        raise ValueError("circuit has no register layout to reorder")
    old = circ.layout
    new = RegisterLayout(old.n, ordering)
    perm = dict(zip(old.upper + old.lower + old.ancilla, new.upper + new.lower + new.ancilla))
    return Circuit(
        width=circ.width,
        gates=tuple(g.remapped(perm) for g in circ.gates),
        layout=new,
        measured=tuple(perm[q] for q in circ.measured),
        checkpoints=circ.checkpoints,
    )


def circuit_to_text(circ: Circuit) -> str:
    lines = [f"width {circ.width}"]
    if circ.layout is not None:
        lines.append(f"layout {circ.layout.n} {circ.layout.ordering}")
    if circ.measured:
        lines.append("measured " + " ".join(str(q) for q in circ.measured))
    for label, idx in circ.checkpoints:
        lines.append(f"checkpoint {label} {idx}")
    for g in circ.gates:
        parts = [g.kind] + [str(t) for t in g.targets]
        if g.angle is not None:
            parts.append(repr(g.angle))
        if g.matrix is not None:
            parts += [repr(complex(v)).replace(" ", "") for v in g.matrix.ravel()]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    width = None
    layout = None
    measured: tuple[int, ...] = ()
    checkpoints: list[tuple[str, int]] = []
    gates: list[Gate] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "width":
            width = int(tokens[1])
        elif head == "layout":
            layout = RegisterLayout(int(tokens[1]), tokens[2])
        elif head == "measured":
            measured = tuple(int(v) for v in tokens[1:])
        elif head == "checkpoint":
            checkpoints.append((tokens[1], int(tokens[2])))
        elif head in _KIND_ARITY:
            k = _KIND_ARITY[head]
            targets = tuple(int(v) for v in tokens[1 : 1 + k])
            rest = tokens[1 + k :]
            if head in _ANGLED:
                gates.append(Gate(head, targets, angle=float(rest[0])))
            elif head in _MATRIXED:
                dim = 2 if head == "U1" else 4
                vals = np.array([complex(v) for v in rest]).reshape(dim, dim)
                gates.append(Gate(head, targets, matrix=vals))
            else:
                gates.append(Gate(head, targets))
        else:
            raise ValueError(f"cannot parse line {line!r}")
    if width is None:
        raise ValueError("missing width line")
    return Circuit(
        width=width,
        gates=tuple(gates),
        layout=layout,
        measured=measured,
        checkpoints=tuple(checkpoints),
    )
