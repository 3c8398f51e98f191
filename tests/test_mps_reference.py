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
from util import (
    assert_canonical,
    assert_flags_exact,
    assert_site_shapes,
    haar_unitary,
    random_circuit,
    spy_gesdd,
)

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
    bl, br = list(mps._sites(state))[q : q + 2]
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
    sites = list(mps._sites(state))
    counts = {}
    for shot in range(shots):
        v = np.ones(1, dtype=complex)
        bits = []
        for l, b in enumerate(sites):
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
    for state in (a, b):
        mps._home(state)  # a pending walk back leaves the hub's qubit away from its site
    assert len(a.tensors) == len(b.tensors)
    for ta, tb in zip(mps._sites(a), mps._sites(b)):
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
    # gate, kernel calls: only the gate step calls the kernel, and not even that for a product
    # gate, whose result it splits in closed form. Every swap step passes a product site, on
    # the way back too, where the entangled pair passes product sites
    "cphase": (lambda rng: cir.cphase(float(rng.uniform(0, 2 * np.pi)), 1, 4), 1),
    "haar": (lambda rng: cir.unitary2(haar_unitary(4, rng), 0, 3), 1),
    "product_gate": (lambda rng: cir.unitary2(np.kron(haar_unitary(2, rng), haar_unitary(2, rng)), 0, 4), 0),
    "swap": (lambda rng: cir.swap(0, 4), 0),
    "reversed_haar": (lambda rng: cir.unitary2(haar_unitary(4, rng), 4, 1), 1),
    "reversed_cphase": (lambda rng: cir.cphase(float(rng.uniform(0, 2 * np.pi)), 3, 0), 1),
    "reversed_swap": (lambda rng: cir.swap(4, 1), 0),
}


@pytest.mark.parametrize("walk", list(PRODUCT_WALKS))
@pytest.mark.parametrize("policy", ["default", "exact"])
def test_product_site_exchange_matches_svd_step(monkeypatch, walk, policy):
    # a product chain with one site of norm 0.7: the exchange keeps each site's phase
    # where the SVD picks another, so compare statevectors, not tensors. No walk takes that
    # site through the kernel, and a swap is unitary, so the exchange keeps its norm where
    # the reference's SVD steps divide it out
    rng = np.random.default_rng(list(PRODUCT_WALKS).index(walk))
    state = random_chain((1,) * 6, rng, POLICIES[policy])
    state.tensors[2] *= 0.7
    state.canonical = True  # every bond holds exactly [1.0]
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
    assert np.abs(mps.to_statevector(state) - 0.7 * mps.to_statevector(ref)).max() <= TOL
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
    mps._home(state)  # the walk back, charged to the gate's stats
    if g.kind == "SWAP":
        ref_stats.swap_count += 1
    reference_apply_2q_routed(ref, g.full_matrix(), q1, q2, ref_stats)
    assert_stats_equal(got_stats, ref_stats)
    assert np.abs(mps.to_statevector(state) - mps.to_statevector(ref)).max() <= TOL
    for lam, ref_lam in zip(state.lambdas, ref.lambdas):
        assert lam.shape == ref_lam.shape
        assert np.abs(lam - ref_lam).max() <= TOL
    assert_canonical(state, TOL)
    # the same walk one step at a time: a swap step past a (1, 2, 1) site (read before the
    # step) calls no kernel and leaves the chain canonical; every other step calls it once
    gesdd_calls = spy_gesdd(monkeypatch)
    exchanges = 0
    top = q2 - 1
    for q in (*range(q1, top), *range(top, q1 - 1, -1)):
        swap_step = q != top or gate == "swap"
        flagged = (1, 2, 1) in (by_step.tensors[q].shape, by_step.tensors[q + 1].shape)
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
    # (1, 2, 1) sites: they are exchanged, so no step of the walk calls the kernel
    rng = np.random.default_rng(list(CANONICAL_WALKS).index("right_of_pair"))
    state = canonical_chain((0,), POLICIES[policy], rng)
    ref = state.copy()
    gesdd_calls = spy_gesdd(monkeypatch)
    for q in (1, 2, 3):
        mps.apply_gate(state, cir.swap(q, q + 1))
    assert [t.shape for t in state.tensors[1:4]] == [(1, 2, 1)] * 3
    assert [lam.size for lam in state.lambdas[:4]] == [2] * 4
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


#: H X, which takes |0> to |->
_MINUS = cir.h(0).full_matrix() @ cir.x(0).full_matrix()


def spanned_gates(rng, minus, far=4):
    """Six sites in Haar product states, qubits in `minus` in |-> instead; then a Haar gate on (1, far)."""
    gates = [cir.unitary1(_MINUS, q) if q in minus else cir.unitary1(haar_unitary(2, rng), q) for q in range(6)]
    return [*gates, cir.unitary2(haar_unitary(4, rng), 1, far)]


def spanned_chain(policy, rng, minus, far=4):
    """The chain `spanned_gates` prepares.

    The gate's walk leaves the unentangled qubits 2..far-1 stored as
    (1, 2, 1) sites p, standing for p (x) I_2 inside the bonds of the
    entangled pair (1, far).
    """
    state = mps.init_state(6, policy)
    for g in spanned_gates(rng, minus, far):
        mps.apply_gate(state, g)
    mps._home(state)
    assert all(t.shape == (1, 2, 1) for t in state.tensors[2:far])
    assert all(lam.size == 2 for lam in state.lambdas[1:far])
    return state


def x_basis_cphase(theta, minus, other):
    """CPHASE(theta) with the control `minus` read in the X basis: a phase on `other` when it is |->."""
    h = np.kron(cir.h(0).full_matrix(), np.eye(2)) if minus < other else np.kron(np.eye(2), cir.h(0).full_matrix())
    return cir.unitary2(h @ cir.cphase(theta, 0, 1).full_matrix() @ h, min(minus, other), max(minus, other))


GATE_STEP_PATHS = {
    # |-> qubits, far end of the entangled pair, gates, kernel calls of the last gate, sites
    # 2 and 3 stored as (1, 2, 1) after it. Path 1: two (1, 2, 1) sites. A product gate leaves them
    # unentangled, a Haar gate does not
    "two_flagged_product": (
        (), 4, lambda rng: [cir.unitary2(np.kron(haar_unitary(2, rng), haar_unitary(2, rng)), 2, 3)], 0, [2, 3]
    ),
    "two_flagged_entangling": ((), 4, lambda rng: [cir.unitary2(haar_unitary(4, rng), 2, 3)], 1, []),
    # path 2: a CPHASE read in the X basis of its control, which is |->: not a classical control,
    # so the gate is routed, and it leaves that qubit unentangled, left or right of the entangled target
    "left_unentangled": ((3,), 4, lambda rng: [x_basis_cphase(float(rng.uniform(0, 2 * np.pi)), 3, 4)], 1, [2, 3]),
    "right_unentangled": ((2,), 4, lambda rng: [x_basis_cphase(float(rng.uniform(0, 2 * np.pi)), 2, 1)], 1, [2, 3]),
    # an ancilla computed into qubit 3 by a CX and uncomputed by a second: both sites unentangled
    # again, and the unitary between them moves into site 4, or past the (1, 2, 1) site 4 into site 5
    "both_unentangled": ((), 4, lambda rng: [cir.cx(2, 3), cir.cx(2, 3)], 1, [2, 3]),
    "both_unentangled_past_flagged": ((), 5, lambda rng: [cir.cx(2, 3), cir.cx(2, 3)], 1, [2, 3]),
}


@pytest.mark.parametrize("policy", ["default", "exact"])
@pytest.mark.parametrize("case", list(GATE_STEP_PATHS))
def test_gate_step_paths_match_svd_steps(monkeypatch, case, policy):
    # the closed-form split of two (1, 2, 1) sites (path 1) and the store of a site an SVD step
    # leaves unentangled as its 2-vector (path 2) hold the SVD steps' state, spectra and counts,
    # and keep the chain canonical with every (1, 2, 1) shape exact
    rng = np.random.default_rng(list(GATE_STEP_PATHS).index(case))
    minus, far, make_gates, kernel_calls, flagged = GATE_STEP_PATHS[case]
    state = spanned_chain(POLICIES[policy], rng, minus, far)
    gesdd_calls = spy_gesdd(monkeypatch)
    for g in make_gates(rng):
        ref = state.copy()
        calls = len(gesdd_calls)
        got_stats, ref_stats = mps.GateStats(), mps.GateStats()
        mps.apply_gate(state, g, got_stats)
        assert got_stats.kernel_count == len(gesdd_calls) - calls
        reference_apply_2q_routed(ref, g.full_matrix(), *g.targets, ref_stats)
        ints = [(st.gate_count, st.svd_count, st.swap_count, st.max_chi) for st in (got_stats, ref_stats)]
        assert ints[0] == ints[1]
        # a closed-form write drops a residual of at most the threshold squared, which the SVD
        # steps' record need not include
        threshold = state.policy.discard_threshold
        assert got_stats.max_discarded_weight <= ref_stats.max_discarded_weight + threshold**2
        assert np.abs(mps.to_statevector(state) - mps.to_statevector(ref)).max() <= TOL
        for lam, ref_lam in zip(state.lambdas, ref.lambdas):
            assert lam.shape == ref_lam.shape
            assert np.abs(lam - ref_lam).max() <= TOL
        assert_canonical(state, TOL)
        assert_site_shapes(state)
        assert_flags_exact(state)
    assert got_stats.kernel_count == kernel_calls
    assert [q for q in (2, 3) if state.tensors[q].shape == (1, 2, 1)] == flagged


@pytest.mark.parametrize("canonical", [True, False])
def test_readers_write_out_unentangled_sites(monkeypatch, tmp_path, canonical):
    # sites 2 and 3 are stored as (1, 2, 1) inside a bond of 2, and every reader must see them as
    # p (x) I_2; off a canonical chain the spectra are computed from the written-out sites
    state = spanned_chain(POLICIES["default"], np.random.default_rng(8), ())
    if not canonical:
        state = state.copy()
        state.canonical = False
    want = dense.dense_run(cir.Circuit(6, tuple(spanned_gates(np.random.default_rng(8), ()))))
    for k in range(64):
        assert abs(mps.amplitude(state, format(k, "06b")) - want.amplitudes[k]) <= TOL
    assert mps.state_norm(state) == pytest.approx(1.0, abs=TOL)
    qubits = [0, 2, 3, 5]
    assert list(mps.sample(state, qubits, 300, 3).items()) == list(reference_sample(state, qubits, 300, 3).items())
    mps.dump_lambda_spectra(state, tmp_path / "spectra.txt")
    spectra = {}
    for line in (tmp_path / "spectra.txt").read_text().splitlines()[1:]:
        bond, _, val = line.split()
        spectra.setdefault(int(bond), []).append(float(val))
    for cut in range(1, 6):
        assert abs(mps.bond_entropy(state, cut) - dense.dense_entropy(want, range(cut))) <= 1e-9
        s = np.linalg.svd(want.amplitudes.reshape(1 << cut, -1), compute_uv=False)
        assert np.abs(np.array(spectra[cut]) - s[: len(spectra[cut])]).max() <= 1e-12
        assert np.abs(s[len(spectra[cut]) :]).max(initial=0.0) <= 1e-12
    if canonical:
        # a swap step past a (1, 2, 1) site exchanges the two stored arrays
        gesdd_calls = spy_gesdd(monkeypatch)
        bl, br = state.tensors[1], state.tensors[2]
        mps.apply_gate(state, cir.swap(1, 2))
        assert state.tensors[1] is br and state.tensors[2] is bl and gesdd_calls == []


@pytest.mark.parametrize("case", ["two_flagged_product", "left_unentangled"])
def test_gate_step_paths_skipped_off_canonical_chains(monkeypatch, case):
    # without a canonical chain the stored vectors are not the spectra either path relies on:
    # the gate step is an SVD step, which stores a (1, 2, 1) site only between bonds of dimension 1
    rng = np.random.default_rng(list(GATE_STEP_PATHS).index(case))
    minus, far, make_gates, _, _ = GATE_STEP_PATHS[case]
    state = spanned_chain(POLICIES["default"], rng, minus, far)
    state.canonical = False
    ref = state.copy()
    gesdd_calls = spy_gesdd(monkeypatch)
    (g,) = make_gates(rng)
    got_stats, ref_stats = mps.GateStats(), mps.GateStats()
    mps.apply_gate(state, g, got_stats)
    assert len(gesdd_calls) == got_stats.kernel_count == 1
    reference_apply_2q_routed(ref, g.full_matrix(), *g.targets, ref_stats)
    assert_stats_equal(got_stats, ref_stats)
    assert np.abs(mps.to_statevector(state) - mps.to_statevector(ref)).max() <= TOL
    assert [state.tensors[q].shape == (1, 2, 1) for q in g.targets] == [False, False]
    assert_site_shapes(state)


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
        assert state.canonical or state._away is None  # off a canonical chain the walk back runs at once
        mps._home(state)  # charged to the gate's stats
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
    # the exchange trusts the shapes, so after every gate each (1, 2, 1) site must sit between
    # equal bonds; while the chain is canonical, exactly the unentangled qubits are (1, 2, 1)
    kind, *args = run.split("-")
    if kind == "shor":
        circ = cir.shor_order_circuit(*map(int, args))
        state, gates = mps.init_state(circ.width), circ.gates
    else:
        state, gates = mps.init_state(7, mps.TruncationPolicy(chi_max=2)), capped_gates(int(args[0]))
    assert_site_shapes(state)
    flagged_inside_bonds = canonical_gates = 0
    for g in gates:
        mps.apply_gate(state, g)
        assert_site_shapes(state)
        if state.canonical:
            assert_flags_exact(state)
            canonical_gates += 1
        flagged_inside_bonds += sum(t.shape[0] < b.shape[0] for t, b in zip(state.tensors, mps._sites(state)))
    assert flagged_inside_bonds > 0 and canonical_gates > 0


def test_copy_exchanges_as_original(monkeypatch):
    # a copy taken mid-run exchanges at the same steps as the original: same kernel calls, same tensors
    circ = cir.shor_order_circuit(15, 4)
    head, tail = cir.Circuit(circ.width, circ.gates[:500]), cir.Circuit(circ.width, circ.gates[500:])
    state = mps.init_state(circ.width)
    mps.run_circuit(state, head)
    copied = state.copy()
    gesdd_calls = spy_gesdd(monkeypatch)
    mps.run_circuit(state, tail)
    calls = len(gesdd_calls)
    mps.run_circuit(copied, tail)
    assert len(gesdd_calls) == 2 * calls > 0
    assert_states_close(copied, state, tol=0)


def haar_gate(rng, q1, q2):
    return cir.unitary2(haar_unitary(4, rng), q1, q2)


RESTORING_PAIRS = {
    # first gate, second gate from the same low qubit 0, pairs whose back-step (of the first) and
    # up-step (of the second) never run: those both walks cross, short of the second's gate step
    "haar": (lambda rng: haar_gate(rng, 0, 3), lambda rng: haar_gate(rng, 0, 5), 2),
    "cphase": (lambda rng: cir.cphase(1.1, 0, 4), lambda rng: cir.cphase(0.3, 0, 5), 3),
    "reversed": (lambda rng: haar_gate(rng, 4, 0), lambda rng: haar_gate(rng, 3, 0), 2),
    "swap_then_haar": (lambda rng: cir.swap(0, 3), lambda rng: haar_gate(rng, 0, 4), 2),
    "nearer_second": (lambda rng: cir.cphase(2.0, 0, 5), lambda rng: cir.cphase(0.7, 0, 2), 1),
}


def entangled_chain(policy, rng):
    """`canonical_chain` with a Haar gate on every pair: no qubit is unentangled, no step exchanges."""
    state = canonical_chain(range(5), policy, rng)
    assert (1, 2, 1) not in [t.shape for t in state.tensors]
    return state


def assert_matches_steps(state, ref, got_stats, ref_stats, gesdd_calls, skipped):
    """After walking home: `skipped` pairs ran neither their back-step nor the up-step undoing it,
    every other step called the kernel once, and state, spectra and counts are the SVD steps'."""
    mps._home(state)
    assert len(gesdd_calls) == got_stats.kernel_count == got_stats.svd_count - 2 * skipped
    ints = [(st.svd_count, st.swap_count, st.max_chi) for st in (got_stats, ref_stats)]
    assert ints[0] == ints[1]
    assert np.abs(mps.to_statevector(state) - mps.to_statevector(ref)).max() <= TOL
    for lam, ref_lam in zip(state.lambdas, ref.lambdas):
        assert lam.shape == ref_lam.shape
        assert np.abs(lam - ref_lam).max() <= TOL


@pytest.mark.parametrize("policy", ["default", "exact"])
@pytest.mark.parametrize("case", list(RESTORING_PAIRS))
def test_up_steps_restore_last_back_steps(monkeypatch, case, policy):
    # the first gate leaves its walk back pending. The second runs only the back-steps above its
    # own gate step, or walks up from where the hub sits: the pairs in between are left as they
    # were before the first's walk back, with no step, and the result is the SVD steps'
    rng = np.random.default_rng(list(RESTORING_PAIRS).index(case))
    first, second, skipped = RESTORING_PAIRS[case]
    state = entangled_chain(POLICIES[policy], rng)
    ref, gates = state.copy(), (first(rng), second(rng))
    ref_stats = mps.GateStats(swap_count=sum(g.kind == "SWAP" for g in gates))
    for g in gates:
        reference_apply_2q_routed(ref, g.full_matrix(), *g.targets, ref_stats)
    gesdd_calls = spy_gesdd(monkeypatch)
    got_stats = mps.GateStats()
    for g in gates:
        mps.apply_gate(state, g, got_stats)
        assert state._away == (0, max(g.targets) - 1, got_stats)
    assert_matches_steps(state, ref, got_stats, ref_stats, gesdd_calls, skipped)
    assert_canonical(state, TOL)
    assert_site_shapes(state)
    assert_flags_exact(state)


@pytest.mark.parametrize(
    "between, restored",
    [
        ("one_qubit_gate_at_0", 0),  # the hub's own qubit: walked home
        ("one_qubit_gate_at_1", 0),  # walked back until qubit 1 is home, which is all the way
        ("one_qubit_gate_at_2", 1),  # walked back until qubit 2 is home, one pair short of home
        ("one_qubit_gate_at_5", 2),  # outside the walk: the hub stays
        ("other_low_qubit", 0),
        ("capped_chain", 0),
        ("copy", 0),
    ],
)
def test_up_steps_restore_only_untouched_pairs(monkeypatch, between, restored):
    # after a first gate on (0, 3), a second on (0, 4) skips only the pairs whose back-steps are
    # still pending when it runs, on a canonical chain. Every other step calls the kernel
    rng = np.random.default_rng(5)
    state = entangled_chain(POLICIES["default"], rng)
    if between == "capped_chain":
        state.policy = mps.TruncationPolicy(chi_max=2)  # the first gate's walk cuts a bond of 4
    ref = state.copy()
    gates = [haar_gate(rng, 0, 3)]
    if between.startswith("one_qubit_gate_at_"):
        gates.append(cir.unitary1(haar_unitary(2, rng), int(between[-1])))
    gates.append(haar_gate(rng, 1 if between == "other_low_qubit" else 0, 4))
    ref_stats = mps.GateStats()
    for g in gates:
        if g.arity == 1:
            mps.apply_gate(ref, g)
        else:
            reference_apply_2q_routed(ref, g.full_matrix(), *g.targets, ref_stats)
    gesdd_calls = spy_gesdd(monkeypatch)
    got_stats = mps.GateStats()
    for g in gates:
        if g is gates[-1] and between == "copy":
            state = state.copy()
            assert state._away is None
        mps.apply_gate(state, g, got_stats)
    assert_matches_steps(state, ref, got_stats, ref_stats, gesdd_calls, restored)
    assert state.canonical == (between != "capped_chain")


@pytest.mark.parametrize("run", ["shor-15-4", "shor-15-7-chi2", "random-0", "random-7", "random-9"])
def test_run_circuit_matches_gate_by_gate(run):
    # the pending walk back of a gate is charged to the stats its gate was given, when it runs:
    # gate by gate with one GateStats and then a reader, every field equals run_circuit's (with a
    # reader after it too), and peak_elements is the largest element count after any gate
    kind, *args = run.split("-")
    if kind == "shor":
        circ = cir.shor_order_circuit(int(args[0]), int(args[1]))
        policy = mps.TruncationPolicy(chi_max=2) if args[2:] == ["chi2"] else mps.TruncationPolicy()
    else:
        circ, policy = random_circuit(8, 40, seed=int(args[0])), mps.TruncationPolicy()
    state, by_gate = mps.init_state(circ.width, policy), mps.init_state(circ.width, policy)
    got = mps.run_circuit(state, circ)
    if kind == "random":
        assert state._away is not None  # the last gate left its walk back pending
    mps.state_norm(state)
    want = mps.GateStats(peak_elements=by_gate.element_count())
    for g in circ.gates:
        mps.apply_gate(by_gate, g, want)
        want.gate_count += 1
        want.peak_elements = max(want.peak_elements, by_gate.element_count())
    mps.state_norm(by_gate)
    assert got == want
    assert_states_close(state, by_gate, tol=0)


def star_gates(seed, n=7):
    """Six stars of three Haar gates that share their low qubit: each walks from where the last left it."""
    rng = np.random.default_rng(seed)
    for _ in range(6):
        lo = int(rng.integers(n - 2))
        for hi in rng.integers(lo + 1, n, size=3):
            yield haar_gate(rng, lo, int(hi))


DEFERRED_RUNS = {
    # gates before a common tail, or "copy" / "reader" between them. The same low qubit 0 reaching
    # nearer, farther or to its neighbour; a SWAP; a 1-qubit gate at the hub's qubit, inside its
    # walk and outside it
    "nearer": lambda rng: [haar_gate(rng, 0, 5), haar_gate(rng, 0, 3)],
    "farther": lambda rng: [haar_gate(rng, 0, 3), haar_gate(rng, 0, 5)],
    "adjacent": lambda rng: [haar_gate(rng, 0, 4), haar_gate(rng, 0, 1)],
    "swap": lambda rng: [cir.swap(0, 4), haar_gate(rng, 0, 3)],
    "one_qubit_at_hub": lambda rng: [haar_gate(rng, 0, 4), cir.unitary1(haar_unitary(2, rng), 0)],
    "one_qubit_inside": lambda rng: [haar_gate(rng, 0, 4), cir.unitary1(haar_unitary(2, rng), 2)],
    "one_qubit_outside": lambda rng: [haar_gate(rng, 0, 4), cir.unitary1(haar_unitary(2, rng), 5)],
    "copy": lambda rng: [haar_gate(rng, 0, 4), "copy"],
    "reader": lambda rng: [haar_gate(rng, 0, 4), "reader"],
}


def run_gates(state, gates, eager, stats):
    """Apply gates, "copy" and "reader" steps in turn; eager walks every hub home after its gate."""
    for g in gates:
        if g == "copy":
            state = state.copy()
        elif g == "reader":
            mps.bond_entropy(state, 2)
        else:
            mps.apply_gate(state, g, stats)
        if eager:
            mps._home(state)
    mps._home(state)
    return state


@pytest.mark.parametrize("run", [*DEFERRED_RUNS, "capped-2-32", "capped-2-43", "capped-3-42", "capped-4-23"])
def test_deferred_walk_matches_eager(monkeypatch, run):
    # against walking every hub home at once: the same state and step and swap counts, no larger
    # bond, fewer kernel calls. On the capped runs a back-step that the next gate runs cuts at
    # chi_max: that gate walks the hub home and then up, as off a canonical chain a step may cut
    # and a back-step and the up-step swapping it back are no longer identities (at 2-43 and 3-42
    # going straight on would leave a state 0.27 and 0.0098 away)
    fallbacks = []
    real_home = mps._home

    def home(state, to=0):
        fallbacks.append(state._away is not None and not state.canonical)
        real_home(state, to)

    monkeypatch.setattr(mps, "_home", home)
    if run.startswith("capped"):
        _, chi_max, seed = run.split("-")
        policy, gates = mps.TruncationPolicy(chi_max=int(chi_max)), list(star_gates(int(seed)))
        start = mps.init_state(7, policy)
    else:
        rng = np.random.default_rng(list(DEFERRED_RUNS).index(run))
        start = entangled_chain(POLICIES["default"], rng)
        gates = [*DEFERRED_RUNS[run](rng), haar_gate(rng, 0, 5), haar_gate(rng, 0, 2)]
    got_stats, eager_stats = mps.GateStats(), mps.GateStats()
    eager = run_gates(start.copy(), gates, True, eager_stats)
    got = run_gates(start, gates, False, got_stats)
    assert np.abs(mps.to_statevector(got) - mps.to_statevector(eager)).max() <= TOL
    assert (got_stats.svd_count, got_stats.swap_count) == (eager_stats.svd_count, eager_stats.swap_count)
    assert got_stats.max_chi <= eager_stats.max_chi
    if run in ("capped-2-43", "capped-3-42"):  # cut before any walk back could cancel: no saving
        assert got_stats.kernel_count == eager_stats.kernel_count
    else:
        assert got_stats.kernel_count < eager_stats.kernel_count
    assert any(fallbacks) == run.startswith("capped")
    assert got.canonical == (not run.startswith("capped"))


def tilt(eps):
    """A rotation by the small angle eps: it takes |0> to cos(eps)|0> + sin(eps)|1>."""
    c, s = np.cos(eps), np.sin(eps)
    return np.array([[c, -s], [s, c]], dtype=complex)


_X = cir.x(0).full_matrix()
_CV, _, _CV_DAGGER = (g.matrix for g in cir.toffoli_gates(0, 1, 2)[:3])


def control_circuit(seed, n=7, depth=80):
    """Controlled gates (CX, CV, CV^dagger, CPHASE) among qubits in basis, near-basis and superposed states.

    Each qubit starts in |0>, |1>, a state 1e-13 off |0> or |1>, or a
    Haar state. X gates and 1e-13 tilts keep controls classical, and a
    few Haar 1- and 2-qubit gates superpose or entangle others.
    """
    rng = np.random.default_rng(seed)
    gates = []
    for q in range(n):
        r = rng.random()
        if r < 0.25:
            gates.append(cir.x(q))
        elif r < 0.5:
            gates.append(cir.unitary1(tilt(1e-13) @ (_X if r < 0.375 else np.eye(2)), q))
        elif r < 0.75:
            gates.append(cir.unitary1(haar_unitary(2, rng), q))
    for _ in range(depth):
        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
        r = rng.random()
        if r < 0.3:
            gates.append(cir.cphase(float(rng.uniform(0, 2 * np.pi)), a, b))
        elif r < 0.55:
            gates.append(cir.cx(a, b))
        elif r < 0.75:
            gates.append(cir.unitary2(_CV if r < 0.65 else _CV_DAGGER, a, b))
        elif r < 0.85:
            gates.append(cir.x(a))
        elif r < 0.92:
            gates.append(cir.unitary1(tilt(1e-13), a))
        elif r < 0.96:
            gates.append(cir.unitary1(haar_unitary(2, rng), a))
        else:
            gates.append(haar_gate(rng, a, b))
    return cir.Circuit(n, tuple(gates))


def routed_cost(gates):
    """The SVD steps and swaps the gates charge by formula, elided or not."""
    dist = [abs(g.targets[0] - g.targets[1]) for g in gates if g.arity == 2]
    return sum(2 * (d - 1) + 1 for d in dist), sum(2 * (d - 1) for d in dist) + sum(g.kind == "SWAP" for g in gates)


@pytest.mark.parametrize("policy", ["default", "exact"])
@pytest.mark.parametrize("seed", range(6))
def test_elided_circuits_match_dense(policy, seed):
    # a gate whose control is classical is elided, where the dense oracle applies every gate. Each
    # dropped amplitude is at most 1e-13 of its qubit's state, so the states agree to 1e-11; the
    # exact policy's threshold of 1e-14 finds the tilted controls superposed and routes their gates
    circ = control_circuit(seed)
    state = mps.init_state(circ.width, POLICIES[policy])
    stats = mps.run_circuit(state, circ)
    assert np.abs(mps.to_statevector(state) - dense.dense_run(circ).amplitudes).max() <= 1e-11
    assert (stats.svd_count, stats.swap_count) == routed_cost(circ.gates)
    assert 0 < stats.elided_count < sum(bool(g.controls) for g in circ.gates)
    assert stats.max_discarded_weight <= (1e-13 if policy == "default" else 1e-14) ** 2 * 1.01
    assert_site_shapes(state)


def test_tilted_controls_elide_at_default_only():
    # the same circuits: the default threshold of 1e-12 takes a 1e-13 tilt for classical, EXACT's does not
    elided = {}
    for policy in ("default", "exact"):
        elided[policy] = [mps.run_circuit(mps.init_state(7, POLICIES[policy]), control_circuit(seed)).elided_count
                          for seed in range(6)]
    assert all(d >= e for d, e in zip(elided["default"], elided["exact"]))
    assert sum(elided["default"]) > sum(elided["exact"])


def pending_gates(rng, hub_bit):
    """Qubits 1, 2, 3 in |0>, |0>, |1>, the pair (4, 5) entangled, then a gate on (0, 5) whose walk back is left pending.

    The hub qubit 0 ends entangled with the pair, or, with `hub_bit`,
    unentangled in |1> (the gate is X (x) W, W Haar).
    """
    gates = [cir.unitary1(haar_unitary(2, rng), 4), cir.unitary1(haar_unitary(2, rng), 5), cir.x(3), haar_gate(rng, 4, 5)]
    if hub_bit:
        return [*gates, cir.unitary2(np.kron(_X, haar_unitary(2, rng)), 0, 5)]
    return [*gates, cir.unitary1(haar_unitary(2, rng), 0), haar_gate(rng, 0, 5)]


ELISIONS = {
    # hub in |1>, the gate: controls inside the pending span, where qubits 1..4 sit one site lower
    "zero_in_span": (False, lambda rng: cir.cx(2, 5)),
    "zero_second_target": (False, lambda rng: cir.cphase(float(rng.uniform(0, 2 * np.pi)), 5, 1)),
    "zero_cv": (False, lambda rng: cir.unitary2(_CV, 1, 4)),
    "one_target_outside": (False, lambda rng: cir.cphase(float(rng.uniform(0, 2 * np.pi)), 3, 5)),
    "one_target_in_span": (False, lambda rng: cir.unitary2(_CV_DAGGER, 3, 4)),
    "one_target_hub": (False, lambda rng: cir.cx(3, 0)),
    # the hub itself as the control
    "hub_control": (True, lambda rng: cir.cphase(float(rng.uniform(0, 2 * np.pi)), 0, 2)),
    "hub_control_cx": (True, lambda rng: cir.cx(0, 4)),
}


@pytest.mark.parametrize("policy", ["default", "exact"])
@pytest.mark.parametrize("case", list(ELISIONS))
def test_elision_reads_controls_where_a_pending_walk_put_them(monkeypatch, case, policy):
    # a classical control is found at the site a pending walk back left it on, the reduced gate acts
    # on its target's site, and the walk stays pending: no kernel call, the formula's counts
    rng = np.random.default_rng(list(ELISIONS).index(case))
    hub_bit, make_gate = ELISIONS[case]
    prep, g = pending_gates(rng, hub_bit), make_gate(rng)
    state = mps.init_state(6, POLICIES[policy])
    for h in prep:
        mps.apply_gate(state, h)
    away = state._away
    assert away is not None and away[:2] == (0, 4)
    if hub_bit:
        assert state.tensors[4].shape == (1, 2, 1)  # the hub, unentangled, at its walk's top
    gesdd_calls = spy_gesdd(monkeypatch)
    stats = mps.GateStats()
    mps.apply_gate(state, g, stats)
    assert gesdd_calls == [] and state._away is away
    d = abs(g.targets[0] - g.targets[1])
    assert (stats.svd_count, stats.swap_count, stats.elided_count, stats.kernel_count) == (2 * d - 1, 2 * d - 2, 1, 0)
    want = dense.dense_run(cir.Circuit(6, (*prep, g))).amplitudes
    assert np.abs(mps.to_statevector(state) - want).max() <= TOL


@pytest.mark.parametrize("pending", [False, True])
def test_zero_control_leaves_state_bitwise(monkeypatch, pending):
    # a control in |0>: the gate is the identity, and no array of the chain is touched
    rng = np.random.default_rng(3)
    state = mps.init_state(6)
    for h in pending_gates(rng, False):
        mps.apply_gate(state, h)
    if not pending:
        mps._home(state)
    tensors, lambdas, away = list(state.tensors), list(state.lambdas), state._away
    gesdd_calls = spy_gesdd(monkeypatch)
    stats = mps.GateStats()
    for g in (cir.cx(2, 5), cir.cphase(0.9, 5, 1), cir.unitary2(_CV_DAGGER, 1, 0), cir.cphase(0.4, 2, 1)):
        mps.apply_gate(state, g, stats)
    assert all(a is b for a, b in zip(state.tensors, tensors)) and all(a is b for a, b in zip(state.lambdas, lambdas))
    assert state._away is away and gesdd_calls == []
    assert (stats.elided_count, stats.kernel_count, stats.max_discarded_weight) == (4, 0, 0.0)


@pytest.mark.parametrize("pending", [False, True])
def test_one_control_is_the_reduced_gate(pending):
    # a control in |1>: the same state as the 2x2 on the other target as a 1-qubit gate, bitwise
    # without a pending walk. With one, the 1-qubit gate walks the hub home and the reduced gate does not
    rng = np.random.default_rng(5)
    theta = float(rng.uniform(0, 2 * np.pi))
    pairs = [
        (cir.cx(3, 5), cir.x(5)),
        (cir.cphase(theta, 3, 0), cir.phase(theta, 0)),
        (cir.cphase(theta, 5, 3), cir.phase(theta, 5)),
        (cir.unitary2(_CV, 3, 4), cir.unitary1(_CV[2:, 2:], 4)),
        (cir.unitary2(_CV_DAGGER, 3, 2), cir.unitary1(_CV_DAGGER[2:, 2:], 2)),
    ]
    for controlled, reduced in pairs:
        state = mps.init_state(6)
        for h in pending_gates(np.random.default_rng(5), False):
            mps.apply_gate(state, h)
        if not pending:
            mps._home(state)
        ref = mps.MpsState(list(state.tensors), list(state.lambdas), state.policy)
        ref._away = state._away
        stats = mps.GateStats()
        mps.apply_gate(state, controlled, stats)
        mps.apply_gate(ref, reduced)
        assert stats.elided_count == 1
        if pending:  # the two walks home may leave the sites in other gauges
            assert np.abs(mps.to_statevector(state) - mps.to_statevector(ref)).max() <= TOL
        else:
            assert_states_close(state, ref, tol=0)


@pytest.mark.parametrize("seed", [15, 97])
def test_elision_off_a_canonical_chain(monkeypatch, seed):
    # a (1, 2, 1) site stands for its qubit's state whatever the gauge, so a capped chain elides too
    state = mps.init_state(7, mps.TruncationPolicy(chi_max=2))
    rng = np.random.default_rng(seed)
    for _ in range(12):
        a, b = (int(q) for q in rng.choice(4, 2, replace=False))
        mps.apply_gate(state, haar_gate(rng, a, b))
    mps.apply_gate(state, cir.x(5))
    assert not state.canonical
    assert state.tensors[4].shape == state.tensors[5].shape == (1, 2, 1)
    gesdd_calls = spy_gesdd(monkeypatch)
    for g in (cir.cx(5, 1), cir.cphase(0.3, 2, 4), cir.unitary2(_CV, 5, 0)):
        before = mps.to_statevector(state)
        stats = mps.GateStats()
        mps.apply_gate(state, g, stats)
        assert stats.elided_count == 1
        want = dense.dense_run(cir.Circuit(7, (g,)), initial=before).amplitudes
        assert np.abs(mps.to_statevector(state) - want).max() <= TOL
    assert gesdd_calls == []


def test_zero_threshold_elides_exact_zeros_only():
    # control 2 is tilted 1e-13 off |0>, control 3 is exactly |1>: at discard_threshold=0 only the
    # second gate is elided. At the default threshold both are, and the tilt's weight, sin^2(1e-13),
    # is dropped and charged, the site left the unit basis state
    rng = np.random.default_rng(6)
    prep = [cir.unitary1(tilt(1e-13), 2), cir.x(3), cir.unitary1(haar_unitary(2, rng), 5), haar_gate(rng, 0, 5)]
    gates = (cir.cx(2, 5), cir.cx(3, 5))
    want = dense.dense_run(cir.Circuit(6, (*prep, *gates))).amplitudes
    for threshold, elided in ((0.0, 1), (1e-12, 2)):
        state = mps.init_state(6, mps.TruncationPolicy(discard_threshold=threshold))
        for h in prep:
            mps.apply_gate(state, h)
        mps._home(state)
        stats = mps.GateStats()
        mps.apply_gate(state, gates[0], stats)
        if threshold:
            assert state.tensors[2].ravel().tolist() == [1.0, 0.0]
            assert stats.max_discarded_weight == pytest.approx(np.sin(1e-13) ** 2, rel=1e-9)
        else:
            assert stats.max_discarded_weight == 0.0 and stats.kernel_count > 0
        mps.apply_gate(state, gates[1], stats)
        assert stats.elided_count == elided
        assert np.abs(mps.to_statevector(state) - want).max() <= 1e-12


def test_superposed_control_routes_as_before():
    # a control that is not a basis state: apply_gate routes the gate exactly as the walk does
    rng = np.random.default_rng(8)
    state = mps.init_state(6)
    for q in range(6):
        mps.apply_gate(state, cir.unitary1(haar_unitary(2, rng), q))
    mps.apply_gate(state, haar_gate(rng, 4, 5))
    ref = state.copy()
    for g in (cir.cx(1, 4), cir.cphase(0.8, 5, 2), cir.unitary2(_CV, 0, 3), cir.cphase(1.1, 3, 1)):
        got_stats, ref_stats = mps.GateStats(), mps.GateStats()
        mps.apply_gate(state, g, got_stats)
        q1, q2 = sorted(g.targets) if g.kind == "CPHASE" else g.targets
        mps._apply_2q_routed(ref, g.full_matrix(), q1, q2, ref_stats)
        assert got_stats == ref_stats and got_stats.elided_count == 0
        assert_states_close(state, ref, tol=0)


@pytest.mark.parametrize("n, a", [(15, 4), (15, 7)])
def test_elision_keeps_the_routed_counts(n, a):
    # against the same gates with no target classified as a control, which are all routed: equal
    # gate, step and swap counts (the static formula) and bonds, fewer kernel calls, the same state
    circ = cir.shor_order_circuit(n, a)
    state = mps.init_state(circ.width)
    got = mps.run_circuit(state, circ)
    plain = [g.remapped({t: t for t in g.targets}) for g in circ.gates]
    for g in plain:
        object.__setattr__(g, "controls", ())
    routed = mps.init_state(circ.width)
    want = mps.run_circuit(routed, cir.Circuit(circ.width, tuple(plain)))
    assert (got.svd_count, got.swap_count) == (want.svd_count, want.swap_count) == routed_cost(circ.gates)
    assert (got.gate_count, got.max_chi) == (want.gate_count, want.max_chi)
    assert want.elided_count == 0 < got.elided_count
    mps.state_norm(state), mps.state_norm(routed)
    assert got.kernel_count < want.kernel_count
    assert np.abs(mps.to_statevector(state) - mps.to_statevector(routed)).max() <= 1e-13


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
    assert stats == mps.GateStats(kernel_count=1)  # the kernel ran; no step finished


def test_truncation_error_mid_walk_keeps_finished_steps():
    # the walk of a gate on (0, 3) steps on bonds 0, 1, 2, 1, 0; site 2 is zero,
    # so the second step's theta is zero and nothing can be kept. The caller's
    # stats count the one finished step, both kernel calls and, as the walk did
    # not complete, no swaps
    rng = np.random.default_rng(9)
    state = random_chain((1, 2, 2, 2, 1), rng, mps.TruncationPolicy())
    state.tensors[2] = np.zeros((2, 2, 2), dtype=complex)
    stats = mps.GateStats(gate_count=4, svd_count=10, swap_count=6)
    with pytest.raises(mps.TruncationError, match="all 4 Schmidt coefficients .* at bond 1"):
        mps._apply_2q_routed(state, haar_unitary(4, rng), 0, 3, stats)
    assert stats == mps.GateStats(gate_count=4, svd_count=11, swap_count=6, kernel_count=2, max_chi=2)
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
    # a Bell pair of norm 0.7 next to a product site: the CX that disentangles the pair
    # is a step the kernel must split, and it keeps one value s0. The step stores
    # s0 / sqrt(s0 * s0), which is exactly 1.0 on either SVD driver
    rng = np.random.default_rng(4)
    state = random_chain((1, 2, 1, 1), rng, mps.TruncationPolicy())
    state.tensors[0] = 0.7 * np.eye(2, dtype=complex).reshape(1, 2, 2)
    state.tensors[1] = np.eye(2, dtype=complex).reshape(2, 2, 1) / np.sqrt(2)
    state.lambdas[0] = np.full(2, 1 / np.sqrt(2))
    if fallback:
        gesdd_calls = []
        monkeypatch.setattr(mps, "_gesdd", failing_gesdd(gesdd_calls))
    else:
        gesdd_calls = spy_gesdd(monkeypatch)
    stats = mps.GateStats()
    mps._apply_2q_routed(state, cir.cx(0, 1).full_matrix(), 0, 1, stats)
    assert len(gesdd_calls) == 1 and stats.kernel_count == 1 + fallback
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
            mps._home(ref)  # the reference writes the qubit's stored site
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
