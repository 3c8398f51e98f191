import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpshor import numthy
from mpshor.numthy import (
    SemiprimeSpec,
    breakable_bits,
    cf_expand,
    extract_order,
    generate_semiprimes,
    multiplicative_order,
    preselect_base,
    semiprime_spec,
)

# Independent oracles, kept deliberately dumb.


def brute_order(a, n):
    r, x = 1, a % n
    while x != 1:
        x = x * a % n
        r += 1
    return r


def brute_preselect(n):
    for a in range(2, n - 1):
        if a * a % n == 1:
            return a
    return None


def odd_squarefree_semiprimes(limit):
    out = []
    for n in range(9, limit + 1, 2):
        for p in range(3, n):
            if p * p > n:
                break
            if n % p == 0:
                q = n // p
                if q != p and _is_prime(p) and _is_prime(q):
                    out.append((n, p, q))
                break
    return out


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_multiplicative_order_paper_values():
    assert multiplicative_order(4, 15) == 2
    assert multiplicative_order(80, 93) == 30
    assert multiplicative_order(91, 93) == 10
    assert multiplicative_order(88, 93) == 6
    assert multiplicative_order(32, 93) == 2
    assert multiplicative_order(1, 17) == 1


def test_multiplicative_order_rejects_common_factor():
    with pytest.raises(ValueError):
        multiplicative_order(6, 15)


@given(st.integers(min_value=3, max_value=10_000), st.data())
@settings(max_examples=100)
def test_order_divides_totient(n, data):
    units = [a for a in range(1, n) if math.gcd(a, n) == 1]
    a = data.draw(st.sampled_from(units))
    r = multiplicative_order(a, n)
    assert r == brute_order(a, n)
    assert euler_phi(n) % r == 0


def test_preselect_table2():
    for n, a in [(15, 4), (129, 44), (335, 66), (687, 230), (7617, 2540), (9997, 768)]:
        assert preselect_base(n) == a
        # confirm against the brute-force smallest square root of unity
        assert brute_preselect(n) == a


def test_preselect_93():
    assert preselect_base(93) == 32
    assert brute_preselect(93) == 32


def test_preselect_properties_all_semiprimes_to_ten_thousand():
    for n, p, q in odd_squarefree_semiprimes(10_000):
        a = preselect_base(n)
        assert multiplicative_order(a, n) == 2
        assert a != n - 1
        assert {math.gcd(a - 1, n), math.gcd(a + 1, n)} == {p, q}
        if n <= 2500:  # the O(N) scan oracle, on the affordable prefix
            assert a == brute_preselect(n)


def test_preselect_rejects_invalid():
    with pytest.raises(ValueError):
        preselect_base(16)  # even
    with pytest.raises(ValueError):
        preselect_base(17)  # prime
    with pytest.raises(ValueError):
        preselect_base(25)  # p^2
    with pytest.raises(ValueError):
        preselect_base(105)  # three factors


def test_semiprime_spec_fields():
    s = semiprime_spec(15)
    assert (s.value, s.p, s.q, s.bit_length) == (15, 3, 5, 4)
    assert SemiprimeSpec(value=221, p=13, q=17).bit_length == 8


def test_is_prime_matches_brute_force():
    assert [n for n in range(-2, 10**5) if numthy._is_prime(n)] == [
        n for n in range(-2, 10**5) if _is_prime(n)
    ]


@pytest.mark.parametrize(
    "n, prime",
    [
        (561, False),  # Carmichael numbers
        (1105, False),
        (1729, False),
        (41041, False),
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
        ((1 << 31) - 1, True),
    ],
)
def test_is_prime_pseudoprimes(n, prime):
    assert numthy._is_prime(n) is prime


def _loaded_on_import(module):
    """"True" or "False": whether a fresh `import mpshor` with its CLI loads `module`."""
    code = f"import sys, mpshor, mpshor.bench, mpshor.cli; print({module!r} in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.strip()


def test_import_does_not_load_sympy():
    assert _loaded_on_import("sympy") == "False"


def test_import_does_not_load_scipy():
    # scipy is imported only by the gesvd fallback of an SVD step
    assert _loaded_on_import("scipy") == "False"


def test_import_does_not_load_dense():
    # the dense simulator is the test oracle; the pipeline never runs it
    assert _loaded_on_import("mpshor.dense") == "False"


def test_cf_expand_examples():
    e = cf_expand(512, 1024)
    assert e.partial_quotients == (0, 2)
    assert e.convergents == ((0, 1), (1, 2))
    assert cf_expand(0, 256).partial_quotients == (0,)
    e = cf_expand(85, 256)
    assert e.convergents[-1] == (85, 256)
    assert math.gcd(*e.convergents[-1]) == 1


@given(st.integers(min_value=1, max_value=20), st.data())
@settings(max_examples=200)
def test_cf_invariants(t, data):
    big_q = 1 << t
    y = data.draw(st.integers(min_value=0, max_value=big_q - 1))
    e = cf_expand(y, big_q)
    # recurrence with seeds p_{-1}=1, p_{-2}=0, q_{-1}=0, q_{-2}=1
    pk1, pk2, qk1, qk2 = 1, 0, 0, 1
    for a, (pk, qk) in zip(e.partial_quotients, e.convergents):
        assert pk == a * pk1 + pk2
        assert qk == a * qk1 + qk2
        pk1, pk2, qk1, qk2 = pk, pk1, qk, qk1
    # final convergent is y/Q in lowest terms
    g = math.gcd(y, big_q) if y else big_q
    assert e.convergents[-1] == (y // g, big_q // g)
    # denominators strictly increasing from k=1 on
    dens = [q for _, q in e.convergents]
    assert all(b > a for a, b in zip(dens[1:], dens[2:]))
    assert all(q >= 1 for q in dens)


def test_extract_order_examples():
    assert extract_order(128, 8, 4, 15) == 2
    assert extract_order(0, 8, 4, 15) is None
    assert extract_order(8192, 14, 32, 93) == 2


def test_extract_order_never_unverified():
    for n in (15, 21, 33, 93):
        t = 2 * n.bit_length()
        for a in range(2, n):
            if math.gcd(a, n) != 1:
                continue
            for y in range(0, 1 << t, 37):
                q = extract_order(y, t, a, n)
                if q is not None:
                    assert pow(a, q, n) == 1
                    assert q <= n


def test_extract_order_recovers_ideal_measurements():
    # brute-force sweep: every ideal peak position must give back r
    for n in range(3, 101):
        t = 2 * n.bit_length()
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            r = brute_order(a, n)
            for k in range(r):
                if math.gcd(k, r) != 1:
                    continue
                y = round(k * (1 << t) / r)
                assert extract_order(y, t, a, n) == r, (n, a, r, k)


def test_generate_semiprimes_four_bits():
    out = generate_semiprimes(4, 4, 1, seed=0)
    assert [s.value for s in out] == [15]
    # only one 4-bit candidate exists, asking for more returns just it
    out = generate_semiprimes(4, 4, 3, seed=1)
    assert [s.value for s in out] == [15]


def test_generate_semiprimes_validity_and_determinism():
    a = generate_semiprimes(5, 12, 3, seed=42)
    b = generate_semiprimes(5, 12, 3, seed=42)
    assert [s.value for s in a] == [s.value for s in b]
    for s in a:
        assert s.value % 2 == 1
        assert s.p != s.q
        assert s.p * s.q == s.value
        assert not _is_prime(s.value)
        assert 1 << (s.bit_length - 1) <= s.value < 1 << s.bit_length


def test_generate_semiprimes_large_bits_rejection_path():
    out = generate_semiprimes(20, 20, 2, seed=7)
    assert len(out) == 2
    for s in out:
        assert s.bit_length == 20


def test_breakable_bits_table1():
    assert breakable_bits(32) == 7
    assert breakable_bits(5000) == 1249
    assert breakable_bits(63) == 15
    assert breakable_bits(100) == 24
    assert breakable_bits(6) == 1
    with pytest.raises(ValueError):
        breakable_bits(5)


@given(st.integers(min_value=6, max_value=10**6))
def test_breakable_bits_is_max_feasible(q):
    beta = breakable_bits(q)
    assert 4 * beta + 2 <= q
    assert 4 * (beta + 1) + 2 > q
