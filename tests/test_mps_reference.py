"""The MPS updates and the sampler against their earlier, plainer versions.

The reference functions below are the previous bodies of the one- and
two-site updates and of `mps.sample`, kept as test oracles only.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg

from mpshor import circuit as cir
from mpshor import dense, mps
from util import assert_canonical, assert_product_flags, haar_unitary, random_circuit, spy_gesdd

_SWAP4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
TOL = 1e-12


def reference_svd(m):
    """The step's SVD: the gesdd kernel, or gesvd when gesdd fails."""
    u, s, vh = mps._gesdd(m, signature="D->DdD")
    if np.isnan(s[0]):
        return mps._gesvd(m)
    return u, s, vh


def reference_apply_1q(state, u, q):
    state.tensors[q] = np.einsum("ij,ajb->aib", u, state.tensors[q])


def reference_apply_2q_adjacent(state, u4, q, stats):
    """Gate on the adjacent pair (q, q+1); u4 rows indexed by (bit_q, bit_q+1)."""
    bl, br = state.tensors[q], state.tensors[q + 1]
    chi_l, chi_r = bl.shape[0], br.shape[2]
    c = np.tensordot(bl, br, axes=(2, 0))  # (chi_l, i, j, chi_r)
    cm = u4 @ c.transpose(1, 2, 0, 3).reshape(4, chi_l * chi_r)
    c = np.ascontiguousarray(
        cm.reshape(2, 2, chi_l, chi_r).transpose(2, 0, 1, 3)
    )
    lam_left = state.lambdas[q - 1] if q > 0 else None
    theta = c if lam_left is None else c * lam_left[:, None, None, None]
    um, s, vh = reference_svd(theta.reshape(2 * chi_l, 2 * chi_r))
    del um
    policy = state.policy
    keep = int(np.count_nonzero(s > policy.discard_threshold)) if policy.discard_threshold > 0 else int(np.count_nonzero(s > 0))
    if keep == 0:
        raise mps.TruncationError(
            f"all {s.size} Schmidt coefficients fall below "
            f"{policy.discard_threshold} at bond {q}"
        )
    keep = min(keep, policy.chi_max)
    discarded = float((s[keep:] ** 2).sum())
    s_kept = s[:keep]
    nrm = float(np.linalg.norm(s_kept))
    state.lambdas[q] = s_kept / nrm
    vk = vh[:keep]
    state.tensors[q + 1] = vk.reshape(keep, 2, chi_r)
    state.tensors[q] = (
        c.reshape(2 * chi_l, 2 * chi_r) @ vk.conj().T
    ).reshape(chi_l, 2, keep) / nrm
    # the engine exchanges past a flagged site, so a stale flag would corrupt a later step
    state.product[q] = state.tensors[q].shape == (1, 2, 1)
    state.product[q + 1] = state.tensors[q + 1].shape == (1, 2, 1)
    if stats is not None:
        stats.svd_count += 1
        if keep > stats.max_chi:
            stats.max_chi = keep
        if discarded > stats.max_discarded_weight:
            stats.max_discarded_weight = discarded


def reference_apply_2q_routed(state, u4, q1, q2, stats):
    lo, hi = (q1, q2) if q1 < q2 else (q2, q1)
    if q1 > q2:
        u4 = _SWAP4 @ u4 @ _SWAP4
    for p in range(lo, hi - 1):
        reference_apply_2q_adjacent(state, _SWAP4, p, stats)
        stats.swap_count += 1
    reference_apply_2q_adjacent(state, u4, hi - 1, stats)
    for p in range(hi - 2, lo - 1, -1):
        reference_apply_2q_adjacent(state, _SWAP4, p, stats)
        stats.swap_count += 1


def reference_sample(state, qubits, shots, seed):
    """One shot at a time; the same draws and decision rule as `mps.sample`."""
    qubits = list(qubits)
    rng = np.random.default_rng(seed)
    randoms = rng.random((shots, state.n))
    counts = {}
    for shot in range(shots):
        v = np.ones(1, dtype=complex)
        bits = []
        for l in range(state.n):
            b = state.tensors[l]
            v0 = v @ b[:, 0, :]
            p0 = float((np.abs(v0) ** 2).sum())
            v1 = v @ b[:, 1, :]
            p1 = float((np.abs(v1) ** 2).sum())
            if randoms[shot, l] * (p0 + p1) < p0:
                bits.append("0")
                v = v0 / np.sqrt(p0)
            else:
                bits.append("1")
                v = v1 / np.sqrt(p1)
        key = "".join(bits[q] for q in qubits)
        counts[key] = counts.get(key, 0) + 1
    return counts


def random_chain(bonds, rng, policy):
    """Random normalized site tensors on the given bond dimensions (ends included).

    The chain is not in canonical form; it is input for comparing two
    implementations of the same arithmetic, with descending normalized
    lambdas on every inner bond.
    """
    tensors = []
    for dl, dr in zip(bonds, bonds[1:]):
        t = rng.normal(size=(dl, 2, dr)) + 1j * rng.normal(size=(dl, 2, dr))
        tensors.append(t / np.linalg.norm(t))
    lambdas = []
    for d in bonds[1:-1]:
        lam = np.sort(rng.uniform(0.1, 1.0, d))[::-1]
        lambdas.append(lam / np.linalg.norm(lam))
    state = mps.MpsState(tensors=tensors, lambdas=lambdas, policy=policy)
    state.canonical = False
    return state


def assert_states_close(a, b, tol=TOL):
    assert len(a.tensors) == len(b.tensors)
    for ta, tb in zip(a.tensors, b.tensors):
        assert ta.shape == tb.shape
        assert np.abs(ta - tb).max() <= tol
    for la, lb in zip(a.lambdas, b.lambdas):
        assert la.shape == lb.shape
        assert np.abs(la - lb).max() <= tol


def assert_stats_equal(a, b):
    assert (a.gate_count, a.svd_count, a.swap_count, a.max_chi, a.peak_elements) == (
        b.gate_count,
        b.svd_count,
        b.swap_count,
        b.max_chi,
        b.peak_elements,
    )
    assert a.max_discarded_weight == pytest.approx(b.max_discarded_weight, rel=1e-9, abs=1e-30)


GATES = {
    "haar": lambda rng: cir.unitary2(haar_unitary(4, rng), 1, 2),
    "cphase": lambda rng: cir.cphase(float(rng.uniform(0, 2 * np.pi)), 1, 2),
    "swap": lambda rng: cir.swap(1, 2),
    "reversed_haar": lambda rng: cir.unitary2(haar_unitary(4, rng), 2, 1),
    "reversed_cphase": lambda rng: cir.cphase(float(rng.uniform(0, 2 * np.pi)), 2, 1),
}
DIMS = (1, 2, 3, 8)
POLICIES = {
    "default": mps.TruncationPolicy(),
    "chi3": mps.TruncationPolicy(chi_max=3),
    "exact": mps.EXACT_POLICY,
}


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("gate", list(GATES))
@pytest.mark.parametrize("chi_l", DIMS)
@pytest.mark.parametrize("chi_r", DIMS)
def test_adjacent_step_matches_reference(chi_l, chi_r, gate, policy):
    rng = np.random.default_rng(1000 * chi_l + 10 * chi_r + list(GATES).index(gate))
    # sites 1 and 2 carry the gate; site 1 has a left Schmidt vector
    state = random_chain((1, chi_l, 4, chi_r, 1), rng, POLICIES[policy])
    ref = state.copy()
    g = GATES[gate](rng)
    got_stats, ref_stats = mps.GateStats(), mps.GateStats()
    mps.apply_gate(state, g, got_stats)
    if g.kind == "SWAP":
        ref_stats.swap_count += 1
    reference_apply_2q_routed(ref, g.full_matrix(), *g.targets, ref_stats)
    assert_states_close(state, ref)
    assert_stats_equal(got_stats, ref_stats)
    if policy == "chi3" and 2 * min(chi_l, chi_r) > 3:
        assert got_stats.max_chi == 3
        assert got_stats.max_discarded_weight > 0


@pytest.mark.parametrize("gate", ["haar", "swap"])
def test_first_bond_step_matches_reference(gate):
    # q = 0 has no left Schmidt vector to scale by
    rng = np.random.default_rng(7)
    state = random_chain((1, 2, 3), rng, mps.TruncationPolicy())
    ref = state.copy()
    u4 = _SWAP4 if gate == "swap" else haar_unitary(4, rng)
    got_stats, ref_stats = mps.GateStats(), mps.GateStats()
    mps._apply_2q_routed(state, None if gate == "swap" else u4, 0, 1, got_stats)
    reference_apply_2q_adjacent(ref, u4, 0, ref_stats)
    ref_stats.swap_count += gate == "swap"  # a SWAP's own swap; the reference step counts none
    assert_states_close(state, ref)
    assert_stats_equal(got_stats, ref_stats)


@pytest.mark.parametrize("chi_max", [3, 64])
def test_routed_circuit_matches_reference(chi_max):
    # distant and reversed pairs, routing swaps, and truncation at chi_max=3
    policy = mps.TruncationPolicy(chi_max=chi_max)
    circ = random_circuit(8, 40, seed=71)
    state, ref = mps.init_state(8, policy), mps.init_state(8, policy)
    got_stats = mps.run_circuit(state, circ)
    ref_stats = mps.GateStats(peak_elements=ref.element_count())
    for g in circ.gates:
        if g.arity == 1:
            mps.apply_gate(ref, g)
        else:
            reference_apply_2q_routed(ref, g.full_matrix(), *g.targets, ref_stats)
        ref_stats.gate_count += 1
        ref_stats.peak_elements = max(ref_stats.peak_elements, ref.element_count())
    assert_stats_equal(got_stats, ref_stats)
    # rounding differences of single steps add up over ~200 steps
    assert_states_close(state, ref, tol=1e-10)
    if chi_max == 3:
        assert got_stats.max_discarded_weight > 0


@pytest.mark.parametrize("policy", ["default", "chi3"])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("chi_l", DIMS)
@pytest.mark.parametrize("chi_r", DIMS)
def test_routed_cphase_matches_reference(chi_l, chi_r, d, reverse, policy):
    # apply_gate walks a reversed CPHASE in chain order, as it is symmetric in its bits;
    # the reference reindexes the 4x4 matrix. Inner bonds of 3 leave no product site on the walk
    rng = np.random.default_rng(1000 * chi_l + 10 * chi_r + d)
    state = random_chain((1, chi_l, *[3] * d, chi_r, 1), rng, POLICIES[policy])
    ref = state.copy()
    targets = (1 + d, 1) if reverse else (1, 1 + d)
    g = cir.cphase(float(rng.uniform(0, 2 * np.pi)), *targets)
    got_stats, ref_stats = mps.GateStats(), mps.GateStats()
    mps.apply_gate(state, g, got_stats)
    reference_apply_2q_routed(ref, g.full_matrix(), *targets, ref_stats)
    assert_states_close(state, ref)
    assert_stats_equal(got_stats, ref_stats)


PRODUCT_WALKS = {
    # gate, kernel calls: only the gate step calls the kernel. Every swap step passes a
    # product site, on the way back too, where the entangled pair passes product sites
    "cphase": (lambda rng: cir.cphase(float(rng.uniform(0, 2 * np.pi)), 1, 4), 1),
    "haar": (lambda rng: cir.unitary2(haar_unitary(4, rng), 0, 3), 1),
    "product_gate": (lambda rng: cir.unitary2(np.kron(haar_unitary(2, rng), haar_unitary(2, rng)), 0, 4), 1),
    "swap": (lambda rng: cir.swap(0, 4), 0),
    "reversed_haar": (lambda rng: cir.unitary2(haar_unitary(4, rng), 4, 1), 1),
    "reversed_cphase": (lambda rng: cir.cphase(float(rng.uniform(0, 2 * np.pi)), 3, 0), 1),
    "reversed_swap": (lambda rng: cir.swap(4, 1), 0),
}


@pytest.mark.parametrize("walk", list(PRODUCT_WALKS))
@pytest.mark.parametrize("policy", ["default", "exact"])
def test_product_site_exchange_matches_svd_step(monkeypatch, walk, policy):
    # a product chain with one site of norm 0.7: the exchange keeps each site's phase
    # where the SVD picks another, so compare statevectors, not tensors
    rng = np.random.default_rng(list(PRODUCT_WALKS).index(walk))
    state = random_chain((1,) * 6, rng, POLICIES[policy])
    state.tensors[2] *= 0.7
    state.canonical = True  # every bond holds exactly [1.0]; the steps divide out the site norms
    ref = state.copy()
    make_gate, kernel_calls = PRODUCT_WALKS[walk]
    g = make_gate(rng)
    gesdd_calls = spy_gesdd(monkeypatch)
    got_stats, ref_stats = mps.GateStats(), mps.GateStats()
    mps.apply_gate(state, g, got_stats)
    assert len(gesdd_calls) == kernel_calls
    if g.kind == "SWAP":
        ref_stats.swap_count += 1
    reference_apply_2q_routed(ref, g.full_matrix(), *g.targets, ref_stats)
    assert_stats_equal(got_stats, ref_stats)
    assert np.abs(mps.to_statevector(state) - mps.to_statevector(ref)).max() <= TOL
    for lam, ref_lam in zip(state.lambdas, ref.lambdas):
        assert lam.shape == ref_lam.shape
        assert np.abs(lam - ref_lam).max() <= TOL


def canonical_chain(pairs, policy, rng):
    """Six sites in Haar product states, then a Haar gate on each pair (q, q+1): a canonical chain."""
    state = mps.init_state(6, policy)
    for q in range(6):
        mps.apply_gate(state, cir.unitary1(haar_unitary(2, rng), q))
    for q in pairs:
        mps.apply_gate(state, cir.unitary2(haar_unitary(4, rng), q, q + 1))
    return state


CANONICAL_WALKS = {
    # entangled pairs, walked targets. The carried product site 2 passes the pair (3, 4)
    "left_of_pair": ((0, 3), (2, 5)),
    # site 1 of the pair (0, 1) passes the product sites 2, 3 (and 4 for a SWAP)
    "right_of_pair": ((0,), (1, 4)),
    # site 3 of the pair (2, 3) passes the product site 4, and a SWAP the last site too
    "next_to_last": ((2,), (3, 5)),
    # the product site 0 passes the pair (1, 2)
    "at_first_site": ((1, 4), (0, 3)),
}


@pytest.mark.parametrize("policy", ["default", "exact"])
@pytest.mark.parametrize("gate", ["swap", "cphase"])
@pytest.mark.parametrize("chain", list(CANONICAL_WALKS))
def test_exchange_past_entangled_site_matches_svd_step(monkeypatch, chain, gate, policy):
    # the exchange keeps the entangled site as it is, where the SVD picks another
    # gauge, so compare statevectors and Schmidt vectors, not tensors
    rng = np.random.default_rng(list(CANONICAL_WALKS).index(chain))
    pairs, (q1, q2) = CANONICAL_WALKS[chain]
    state = canonical_chain(pairs, POLICIES[policy], rng)
    assert_canonical(state, TOL)
    angle = float(rng.uniform(0, 2 * np.pi))
    g = cir.swap(q1, q2) if gate == "swap" else cir.cphase(angle, q1, q2)
    ref, by_step = state.copy(), state.copy()
    got_stats, ref_stats = mps.GateStats(), mps.GateStats()
    mps.apply_gate(state, g, got_stats)
    if g.kind == "SWAP":
        ref_stats.swap_count += 1
    reference_apply_2q_routed(ref, g.full_matrix(), q1, q2, ref_stats)
    assert_stats_equal(got_stats, ref_stats)
    assert np.abs(mps.to_statevector(state) - mps.to_statevector(ref)).max() <= TOL
    for lam, ref_lam in zip(state.lambdas, ref.lambdas):
        assert lam.shape == ref_lam.shape
        assert np.abs(lam - ref_lam).max() <= TOL
    assert_canonical(state, TOL)
    # the same walk one step at a time: a swap step past a flagged site (read before the
    # step) calls no kernel and leaves the chain canonical; every other step calls it once
    gesdd_calls = spy_gesdd(monkeypatch)
    exchanges = 0
    top = q2 - 1
    for q in (*range(q1, top), *range(top, q1 - 1, -1)):
        swap_step = q != top or gate == "swap"
        flagged = by_step.product[q] or by_step.product[q + 1]
        calls = len(gesdd_calls)
        mps.apply_gate(by_step, cir.swap(q, q + 1) if swap_step else cir.cphase(angle, q, q + 1))
        if swap_step and flagged:
            exchanges += 1
            assert len(gesdd_calls) == calls
            assert_canonical(by_step, TOL)
        else:
            assert len(gesdd_calls) == calls + 1
    assert exchanges > 0
    assert_states_close(by_step, state, tol=0)


@pytest.mark.parametrize("policy", ["default", "exact"])
def test_swap_of_carried_product_sites_calls_no_kernel(monkeypatch, policy):
    # SWAP (1, 4) carries site 1 of the pair (0, 1) out to site 4 and leaves each unentangled
    # qubit it passes inside the pair's bond as p (x) I_2. Its two return steps swap two such
    # qubits: flagged, they are exchanged, so no step of the walk calls the kernel
    rng = np.random.default_rng(list(CANONICAL_WALKS).index("right_of_pair"))
    state = canonical_chain((0,), POLICIES[policy], rng)
    ref = state.copy()
    gesdd_calls = spy_gesdd(monkeypatch)
    for q in (1, 2, 3):
        mps.apply_gate(state, cir.swap(q, q + 1))
    assert [t.shape for t in state.tensors[1:4]] == [(2, 2, 2)] * 3
    assert state.product[1:4] == [True] * 3
    for q in (2, 1):
        mps.apply_gate(state, cir.swap(q, q + 1))
    assert gesdd_calls == []
    ref_stats = mps.GateStats()
    reference_apply_2q_routed(ref, _SWAP4, 1, 4, ref_stats)
    assert len(gesdd_calls) == ref_stats.svd_count == 5  # every step of the reference calls the kernel
    assert np.abs(mps.to_statevector(state) - mps.to_statevector(ref)).max() <= TOL
    for lam, ref_lam in zip(state.lambdas, ref.lambdas):
        assert lam.shape == ref_lam.shape
        assert np.abs(lam - ref_lam).max() <= TOL
    assert_canonical(state, TOL)


def capped_gates(seed):
    """Haar gates among 4 of 7 qubits, capped at chi 2, and swaps and product gates on any pair.

    The swaps and product gates carry unentangled qubits past tensors
    that a capped step left non-isometric.
    """
    rng = np.random.default_rng(seed)
    active = [int(q) for q in rng.choice(7, 4, replace=False)]
    for _ in range(24):
        r = rng.random()
        a, b = (int(q) for q in rng.choice(7, 2, replace=False))
        if r < 0.4:
            a, b = (int(q) for q in rng.choice(active, 2, replace=False))
            yield cir.unitary2(haar_unitary(4, rng), a, b)
        elif r < 0.7:
            yield cir.swap(a, b)
        else:
            yield cir.unitary2(np.kron(haar_unitary(2, rng), haar_unitary(2, rng)), a, b)


@pytest.mark.parametrize("seed", [15, 97, 154])
def test_capped_chain_walks_match_svd_steps(seed):
    # a cap leaves the chain non-canonical, so a moved Schmidt vector can differ from the
    # spectrum an SVD step computes (by 0.09, or in size, at these seeds). After the first
    # cap only two product sites exchange; every gate must still match the SVD steps
    state = mps.init_state(7, mps.TruncationPolicy(chi_max=2))
    for g in capped_gates(seed):
        ref = state.copy()
        got_stats, ref_stats = mps.GateStats(), mps.GateStats()
        mps.apply_gate(state, g, got_stats)
        if g.kind == "SWAP":
            ref_stats.swap_count += 1
        reference_apply_2q_routed(ref, g.full_matrix(), *g.targets, ref_stats)
        assert_stats_equal(got_stats, ref_stats)
        assert np.abs(mps.to_statevector(state) - mps.to_statevector(ref)).max() <= TOL
        for lam, ref_lam in zip(state.lambdas, ref.lambdas):
            assert lam.shape == ref_lam.shape
            assert np.abs(lam - ref_lam).max() <= TOL
    assert not state.canonical


@pytest.mark.parametrize("run", ["shor-15-4", "shor-33-10", "capped-15", "capped-97", "capped-154"])
def test_product_flags_after_every_gate(run):
    # the exchange trusts the flags, so after every gate each must still mark exactly p (x) I
    kind, *args = run.split("-")
    if kind == "shor":
        circ = cir.shor_order_circuit(*map(int, args))
        state, gates = mps.init_state(circ.width), circ.gates
    else:
        state, gates = mps.init_state(7, mps.TruncationPolicy(chi_max=2)), capped_gates(int(args[0]))
    assert_product_flags(state)
    flagged_inside_bonds = 0
    for g in gates:
        mps.apply_gate(state, g)
        assert_product_flags(state)
        flagged_inside_bonds += sum(f and t.shape[0] > 1 for f, t in zip(state.product, state.tensors))
    assert flagged_inside_bonds > 0


def test_copy_carries_product_flags(monkeypatch):
    # a copy taken mid-run exchanges at the same steps as the original: same kernel calls, same tensors
    circ = cir.shor_order_circuit(15, 4)
    head, tail = cir.Circuit(circ.width, circ.gates[:500]), cir.Circuit(circ.width, circ.gates[500:])
    state = mps.init_state(circ.width)
    mps.run_circuit(state, head)
    copied = state.copy()
    assert copied.product == state.product and copied.product is not state.product
    gesdd_calls = spy_gesdd(monkeypatch)
    mps.run_circuit(state, tail)
    calls = len(gesdd_calls)
    mps.run_circuit(copied, tail)
    assert len(gesdd_calls) == 2 * calls > 0
    assert_states_close(copied, state, tol=0)


@pytest.mark.parametrize("seed", [15, 97, 154])
def test_bond_entropy_after_capped_steps(seed):
    # a capped step leaves Schmidt vectors that are not their cut's spectrum (off by up
    # to 0.59 bits at these seeds, where the state is a product across the cut)
    state = mps.init_state(7, mps.TruncationPolicy(chi_max=2))
    for g in capped_gates(seed):
        mps.apply_gate(state, g)
        v = mps.to_statevector(state)
        ref = dense.DenseState(7, v / np.linalg.norm(v))
        for cut in range(1, 7):
            assert abs(mps.bond_entropy(state, cut) - dense.dense_entropy(ref, range(cut))) <= 1e-9
    assert not state.canonical


@pytest.mark.parametrize("seed", [15, 97, 154])
def test_dump_lambda_spectra_after_capped_steps(tmp_path, seed):
    # after a cap the stored Schmidt vectors are stale; the dump writes the state's spectrum
    state = mps.init_state(7, mps.TruncationPolicy(chi_max=2))
    path = tmp_path / "spectra.txt"
    for g in capped_gates(seed):
        mps.apply_gate(state, g)
        mps.dump_lambda_spectra(state, path)
        spectra = {}
        for line in path.read_text().splitlines()[1:]:
            bond, _, val = line.split()
            spectra.setdefault(int(bond), []).append(float(val))
        assert sorted(spectra) == list(range(1, 7))
        v = mps.to_statevector(state)
        ref = dense.DenseState(7, v / np.linalg.norm(v))
        for cut, vals in spectra.items():
            p = np.array(vals) ** 2
            p = p[p > 1e-300]
            assert abs(-(p * np.log2(p)).sum() - dense.dense_entropy(ref, range(cut))) <= 1e-9
    assert not state.canonical


SPECTRUM = np.array([0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.1, 0.05])


def chosen_spectrum_state(chi_max, cut):
    """Chain whose identity step on sites (1, 2) splits theta = U diag(SPECTRUM) V^dagger.

    The identity gate and the unit left Schmidt vector leave theta bit
    for bit equal to the product of the two sites. The threshold is the
    cut-th singular value as the step computes it. Returns the state
    and those singular values.
    """
    rng = np.random.default_rng(3)
    left = haar_unitary(8, rng) * SPECTRUM
    right = haar_unitary(8, rng)
    seen = mps._gesdd(left.dot(right), signature="D->DdD")[1]
    assert np.abs(seen - SPECTRUM).max() < 1e-15
    tensors = [
        np.full((1, 2, 4), 0.5, dtype=complex),
        left.reshape(4, 2, 8),
        right.reshape(8, 2, 4),
        np.full((4, 2, 1), 0.5, dtype=complex),
    ]
    lambdas = [np.ones(4), SPECTRUM / np.linalg.norm(SPECTRUM), np.ones(4)]
    policy = mps.TruncationPolicy(chi_max, float(seen[cut]))
    return mps.MpsState(tensors=tensors, lambdas=lambdas, policy=policy), seen


@pytest.mark.parametrize(
    "chi_max, cut, keep",
    [(64, 3, 3), (6, 3, 3), (2, 5, 2), (3, 3, 3), (64, 7, 7)],
)
def test_keep_rule_on_chosen_spectrum(chi_max, cut, keep):
    # the value equal to the threshold is dropped with everything after it;
    # chi_max then caps what is left
    state, seen = chosen_spectrum_state(chi_max, cut)
    ref = state.copy()
    stats, ref_stats = mps.GateStats(), mps.GateStats()
    mps._apply_2q_routed(state, np.eye(4, dtype=complex), 1, 2, stats)
    reference_apply_2q_adjacent(ref, np.eye(4, dtype=complex), 1, ref_stats)
    assert state.lambdas[1].size == keep and stats.max_chi == keep
    assert state.tensors[1].shape == (4, 2, keep) and state.tensors[2].shape == (keep, 2, 4)
    dropped = seen[keep:]
    assert stats.max_discarded_weight == pytest.approx(float((dropped**2).sum()), rel=1e-12)
    assert float(np.linalg.norm(state.lambdas[1])) == pytest.approx(1.0, abs=1e-15)
    assert np.abs(state.lambdas[1] - seen[:keep] / np.linalg.norm(seen[:keep])).max() <= 1e-15
    assert_states_close(state, ref)
    assert_stats_equal(stats, ref_stats)


def test_keep_rule_drops_whole_spectrum_at_threshold():
    # every value at or below the threshold: nothing is kept and the state is untouched
    state, _ = chosen_spectrum_state(64, 0)
    before = state.copy()
    stats = mps.GateStats()
    with pytest.raises(mps.TruncationError, match="all 8 Schmidt coefficients"):
        mps._apply_2q_routed(state, np.eye(4, dtype=complex), 1, 2, stats)
    assert_states_close(state, before, tol=0)
    assert stats == mps.GateStats()


def test_truncation_error_mid_walk_keeps_finished_steps():
    # the walk of a gate on (0, 3) steps on bonds 0, 1, 2, 1, 0; site 2 is zero,
    # so the second step's theta is zero and nothing can be kept. The caller's
    # stats count the one finished step and, as the walk did not complete, no swaps
    rng = np.random.default_rng(9)
    state = random_chain((1, 2, 2, 2, 1), rng, mps.TruncationPolicy())
    state.tensors[2] = np.zeros((2, 2, 2), dtype=complex)
    stats = mps.GateStats(gate_count=4, svd_count=10, swap_count=6)
    with pytest.raises(mps.TruncationError, match="all 4 Schmidt coefficients .* at bond 1"):
        mps._apply_2q_routed(state, haar_unitary(4, rng), 0, 3, stats)
    assert stats == mps.GateStats(gate_count=4, svd_count=11, swap_count=6, max_chi=2)
    assert state.lambdas[0].size == 2


def failing_gesdd(calls):
    """A gesdd stand-in that fails as the gufunc does, filling its outputs with NaN."""

    def gesdd(m, signature):
        calls.append(m.shape)
        rows, cols = m.shape
        p = min(rows, cols)
        return np.full((rows, p), np.nan + 0j), np.full(p, np.nan), np.full((p, cols), np.nan + 0j)

    return gesdd


@pytest.mark.parametrize("fallback", [False, True])
def test_unit_bonds_hold_exactly_one_after_a_step(monkeypatch, fallback):
    # a product chain whose norm is not one: every step keeps one value s0 and
    # stores s0 / sqrt(s0 * s0), which is exactly 1.0 on either SVD driver
    rng = np.random.default_rng(4)
    state = random_chain((1, 1, 1, 1), rng, mps.TruncationPolicy())
    state.tensors[0] *= 0.7
    if fallback:
        gesdd_calls = []
        monkeypatch.setattr(mps, "_gesdd", failing_gesdd(gesdd_calls))
    else:
        gesdd_calls = spy_gesdd(monkeypatch)
    u4 = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    mps._apply_2q_routed(state, u4, 0, 2, mps.GateStats())
    # both swap steps exchange product sites; only the gate step calls the kernel
    assert len(gesdd_calls) == 1
    assert [lam.tolist() for lam in state.lambdas] == [[1.0], [1.0]]
    assert [np.linalg.norm(t) for t in state.tensors] == pytest.approx([1.0] * 3, abs=1e-15)


def test_svd_fallback_to_scipy(monkeypatch):
    # gesvd fixes the singular-vector phases differently from gesdd,
    # so the reference runs on the fallback too
    rng = np.random.default_rng(11)
    state = random_chain((1, 3, 4, 2, 1), rng, mps.TruncationPolicy(chi_max=3))
    ref = state.copy()
    u4 = haar_unitary(4, rng)

    gesdd_calls, gesvd_calls = [], []
    real_svd = scipy.linalg.svd

    def spy_svd(m, **kwargs):
        gesvd_calls.append((m.shape, kwargs["lapack_driver"]))
        return real_svd(m, **kwargs)

    monkeypatch.setattr(mps, "_gesdd", failing_gesdd(gesdd_calls))
    monkeypatch.setattr(scipy.linalg, "svd", spy_svd)
    got_stats, ref_stats = mps.GateStats(), mps.GateStats()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mps._apply_2q_routed(state, u4, 1, 2, got_stats)
    reference_apply_2q_adjacent(ref, u4, 1, ref_stats)
    assert gesdd_calls == [(6, 4), (6, 4)]
    assert gesvd_calls == [((6, 4), "gesvd"), ((6, 4), "gesvd")]
    assert_states_close(state, ref)
    assert_stats_equal(got_stats, ref_stats)
    assert got_stats.max_chi == 3 and got_stats.max_discarded_weight > 0


@pytest.mark.parametrize("chi_l", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("chi_r", [1, 2, 3, 8, 32])
def test_gesdd_handle_matches_linalg_svd(chi_l, chi_r):
    # the kernel is a private numpy handle: a numpy that moves or changes it fails here
    rng = np.random.default_rng(100 * chi_l + chi_r)
    m = rng.normal(size=(2 * chi_l, 2 * chi_r)) + 1j * rng.normal(size=(2 * chi_l, 2 * chi_r))
    _, s, vh = mps._gesdd(m, signature="D->DdD")
    _, want_s, want_vh = np.linalg.svd(m, full_matrices=False)
    assert s.dtype == want_s.dtype and vh.dtype == want_vh.dtype
    assert np.array_equal(s, want_s)
    assert np.array_equal(vh, want_vh)


def test_nan_theta_raises():
    # gesdd rejects the NaN input (numpy warns of the invalid value) and the gesvd fallback refuses it
    rng = np.random.default_rng(12)
    state = random_chain((1, 2, 2, 1), rng, mps.TruncationPolicy())
    state.tensors[0][0, 0, 0] = np.nan
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="NaN"):
        mps.apply_2q(state, haar_unitary(4, rng), 0, 1)


ONE_QUBIT = {
    "h": lambda rng: cir.h(1),
    "x": lambda rng: cir.x(1),
    "phase": lambda rng: cir.phase(float(rng.uniform(0, 2 * np.pi)), 1),
    "haar": lambda rng: cir.unitary1(haar_unitary(2, rng), 1),
}


@pytest.mark.parametrize("gate", list(ONE_QUBIT))
@pytest.mark.parametrize("chi_l", DIMS)
@pytest.mark.parametrize("chi_r", DIMS)
def test_1q_update_matches_einsum(chi_l, chi_r, gate):
    rng = np.random.default_rng(100 * chi_l + chi_r)
    state = random_chain((1, chi_l, chi_r, 1), rng, mps.TruncationPolicy())
    by_matrix, ref = state.copy(), state.copy()
    g = ONE_QUBIT[gate](rng)
    mps.apply_gate(state, g)
    mps.apply_1q(by_matrix, g.full_matrix(), 1)
    reference_apply_1q(ref, g.full_matrix(), 1)
    assert_states_close(state, ref, tol=1e-15)
    assert_states_close(by_matrix, ref, tol=1e-15)


@pytest.mark.parametrize("n, a", [(15, 4), (15, 7)])
def test_shor_circuit_matches_einsum_1q(n, a):
    # rounding can rotate the basis of degenerate Schmidt subspaces, so
    # equal states may hold different tensors: compare statevectors
    circ = cir.shor_order_circuit(n, a)
    state, ref = mps.init_state(circ.width), mps.init_state(circ.width)
    mps.run_circuit(state, circ)
    for g in circ.gates:
        if g.arity == 1:
            reference_apply_1q(ref, g.full_matrix(), g.targets[0])
        else:
            mps.apply_gate(ref, g)
    assert np.abs(mps.to_statevector(state) - mps.to_statevector(ref)).max() <= 1e-10


def _states():
    pre = mps.init_state(cir.shor_order_circuit(15, 4).width)
    mps.run_circuit(pre, cir.shor_order_circuit(15, 4))
    rand = mps.init_state(9, mps.TruncationPolicy(chi_max=16))
    mps.run_circuit(rand, random_circuit(9, 40, seed=5))
    return {"preselected_15_4": pre, "random_9": rand}


@pytest.fixture(scope="module")
def sample_states():
    return _states()


@pytest.mark.parametrize("name", ["preselected_15_4", "random_9"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_matches_reference_loop(sample_states, name, seed):
    state = sample_states[name]
    qubits = [q for q in range(state.n) if q % 3 != 1]
    got = mps.sample(state, qubits, 300, seed)
    want = reference_sample(state, qubits, 300, seed)
    assert list(got.items()) == list(want.items())


def test_sample_without_divide_warnings():
    # on a product state one branch has probability 0 at every site
    state = mps.init_state(5)
    mps.apply_1q(state, cir.x(0).full_matrix(), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            got = mps.sample(state, range(5), 64, 0)
    assert got == {"00010": 64}


def test_sample_no_qubits():
    assert mps.sample(mps.init_state(3), [], 7, 0) == reference_sample(mps.init_state(3), [], 7, 0)
