"""Classical number theory behind the factorization pipeline.

Everything here runs on plain Python integers, so nothing is capped by
machine words. The quantum side only ever needs gcd and modular powers
(``math.gcd`` and ``pow``), continued fractions and the
square-root-of-unity pre-selection; the brute-force order finder
doubles as the test oracle for the quantum period estimates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


def multiplicative_order(a: int, n: int) -> int:
    """Smallest r >= 1 with a**r = 1 (mod n), by direct iteration.

    Deliberately brute force: this is the classical oracle the quantum
    order estimates are checked against.
    """
    if not 1 <= a < n:
        raise ValueError(f"need 1 <= a < n, got a={a}, n={n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"a={a} and n={n} are not coprime; order undefined")
    r, x = 1, a % n
    while x != 1:
        x = x * a % n
        r += 1
    return r


@dataclass(frozen=True)
class SemiprimeSpec:
    """An odd square-free semiprime N = p*q with p, q distinct odd primes."""

    value: int
    p: int
    q: int
    bit_length: int

    def __post_init__(self):
        if self.p * self.q != self.value:
            raise ValueError(f"{self.p} * {self.q} != {self.value}")
        if self.value % 2 == 0:
            raise ValueError(f"N={self.value} is even")
        if self.p == self.q:
            raise ValueError(f"N={self.value} = {self.p}^2 is not square-free")
        if not (_is_prime(self.p) and _is_prime(self.q)):
            raise ValueError(f"{self.p}, {self.q} must both be prime")
        if self.bit_length != self.value.bit_length():
            raise ValueError(
                f"bit_length {self.bit_length} != actual {self.value.bit_length()}"
            )


def _smallest_prime_factor(n: int) -> int | None:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return None


def _is_prime(n: int) -> bool:
    """Exact primality by trial division, O(sqrt n) like finding p in `semiprime_spec`."""
    return n == 2 or (n > 2 and _smallest_prime_factor(n) is None)


def semiprime_spec(n: int) -> SemiprimeSpec:
    """Validate n as an odd square-free semiprime, factoring by trial division."""
    if n < 15 or n % 2 == 0:
        raise ValueError(f"N={n} is not an odd semiprime >= 15")
    p = _smallest_prime_factor(n)
    if p is None:
        raise ValueError(f"N={n} is prime")
    q = n // p
    if p == q:
        raise ValueError(f"N={n} = {p}^2 is not square-free")
    if not _is_prime(q):
        raise ValueError(f"N={n} has more than two prime factors")
    return SemiprimeSpec(value=n, p=p, q=q, bit_length=n.bit_length())


def preselect_base(n: int | SemiprimeSpec) -> int:
    """Smallest a in [2, N-2] with a^2 = 1 (mod N).

    Such an a always exists for an odd square-free semiprime: the four
    square roots of unity mod pq are {1, u, N-u, N-1} with u determined
    by u = 1 (mod p), u = -1 (mod q), and the two middle ones are
    nontrivial. The chosen a has order exactly 2, so the period-finding
    subroutine sees the minimal possible period, and gcd(a +- 1, N)
    already yield the factors.
    """
    spec = n if isinstance(n, SemiprimeSpec) else semiprime_spec(n)
    p, q, nn = spec.p, spec.q, spec.value
    u = (q * pow(q, -1, p) + (q - 1) * p * pow(p, -1, q)) % nn
    return min(u, nn - u)


@dataclass(frozen=True)
class ContinuedFractionExpansion:
    """Continued fraction of a rational y/Q with all convergents.

    partial_quotients is the canonical expansion [a0, a1, ...] from the
    Euclidean algorithm; convergents[k] = (p_k, q_k) follows
    p_k = a_k p_{k-1} + p_{k-2}, q_k = a_k q_{k-1} + q_{k-2}
    with seeds p_{-1}=1, p_{-2}=0, q_{-1}=0, q_{-2}=1.
    """

    target_numerator: int
    target_denominator: int
    partial_quotients: tuple[int, ...] = field(default_factory=tuple)
    convergents: tuple[tuple[int, int], ...] = field(default_factory=tuple)


def cf_expand(y: int, big_q: int) -> ContinuedFractionExpansion:
    """Continued-fraction expansion of y/big_q, 0 <= y < big_q."""
    if big_q <= 0:
        raise ValueError("denominator must be positive")
    if not 0 <= y < big_q:
        raise ValueError(f"need 0 <= y < Q, got y={y}, Q={big_q}")
    quotients: list[int] = []
    num, den = y, big_q
    while den:
        quotients.append(num // den)
        num, den = den, num % den
    convergents: list[tuple[int, int]] = []
    pk1, pk2 = 1, 0
    qk1, qk2 = 0, 1
    for a in quotients:
        pk = a * pk1 + pk2
        qk = a * qk1 + qk2
        convergents.append((pk, qk))
        pk1, pk2 = pk, pk1
        qk1, qk2 = qk, qk1
    return ContinuedFractionExpansion(
        target_numerator=y,
        target_denominator=big_q,
        partial_quotients=tuple(quotients),
        convergents=tuple(convergents),
    )


def extract_order(y: int, t: int, a: int, n: int) -> int | None:
    """Order candidate from one measured phase value y out of 2^t.

    Scans the convergent denominators of y/2^t in increasing order and
    returns the first q <= N with a^q = 1 (mod N); None means the shot
    was uninformative and the caller should use another shot.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    big_q = 1 << t
    if not 0 <= y < big_q:
        raise ValueError(f"need y < 2^t, got y={y}, t={t}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"a={a} and N={n} are not coprime")
    for _, q in cf_expand(y, big_q).convergents:
        if q > n:
            break
        if q >= 1 and pow(a, q, n) == 1:
            return q
    return None


def _try_semiprime(n: int) -> SemiprimeSpec | None:
    try:
        return semiprime_spec(n)
    except ValueError:
        return None


def generate_semiprimes(
    min_bits: int, max_bits: int, count_per_bit: int, seed: int
) -> list[SemiprimeSpec]:
    """Seeded sample of odd square-free semiprimes for each bit length.

    Small bit ranges are enumerated exhaustively and sampled without
    replacement; wide ranges fall back to rejection sampling. Returns
    fewer than count_per_bit values for a bit length only when fewer
    exist (4 bits admits just N=15); raises if a bit length has none.
    """
    if not 4 <= min_bits <= max_bits:
        raise ValueError("need 4 <= min_bits <= max_bits")
    if count_per_bit < 1:
        raise ValueError("count_per_bit must be >= 1")
    rng = random.Random(seed)
    out: list[SemiprimeSpec] = []
    for bits in range(min_bits, max_bits + 1):
        lo, hi = 1 << (bits - 1), 1 << bits
        chosen: list[SemiprimeSpec] = []
        if hi - lo <= 4096:
            pool = [s for v in range(lo | 1, hi, 2) if (s := _try_semiprime(v))]
            if pool:
                chosen = sorted(
                    rng.sample(pool, min(count_per_bit, len(pool))),
                    key=lambda s: s.value,
                )
        else:
            seen: dict[int, SemiprimeSpec] = {}
            attempts = 0
            while len(seen) < count_per_bit and attempts < 500 * count_per_bit:
                attempts += 1
                v = rng.randrange(lo | 1, hi, 2)
                if v not in seen and (s := _try_semiprime(v)):
                    seen[v] = s
            chosen = [seen[v] for v in sorted(seen)]
        if not chosen:
            raise ValueError(f"no odd square-free semiprime found at {bits} bits")
        out.extend(chosen)
    return out


def breakable_bits(q: int) -> int:
    """Largest modulus bit length beta whose circuit fits in q qubits.

    The order-finding layout uses 2n counting + n work + (n+2) ancilla
    qubits, so the constraint is 4*beta + 2 <= q.
    """
    if q < 6:
        raise ValueError(f"need at least 6 qubits, got {q}")
    return (q - 2) // 4
