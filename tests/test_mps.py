import numpy as np
import pytest

from uqres import measures as ms
from uqres import mps
from uqres import qkernel as qk
from uqres.mps import GraphSpec, MPSChain, line_graph
from uqres.qkernel import HilbertSpec, InvariantError

import ebit_oracle


def test_make_ebit_is_cx_plus_zero():
    e = mps.make_ebit(2)
    expect = np.zeros(4)
    expect[[0, 3]] = 2 ** -0.5
    assert np.abs(e.amplitudes - expect).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_make_ebit_is_bit_equal_to_the_literal_gate_route(d):
    built = ebit_oracle.literal_ebit(d).amplitudes
    assert mps.make_ebit(d).amplitudes.tobytes() == built.tobytes()


def test_ebit_entanglement_is_log_d():
    for d in (2, 3, 5):
        e = mps.make_ebit(d)
        assert ms.entanglement_entropy(e, [0]) == pytest.approx(np.log2(d), abs=1e-10)
        nz = np.nonzero(np.abs(e.amplitudes) > 1e-12)[0]
        assert list(nz) == [i * d + i for i in range(d)]


def test_vbs_ring_of_fusions_gives_ghz():
    p = mps.fusion_projector(2)
    for n in (2, 3, 4):
        state = mps.vbs_state([p] * n, ebits=n)
        nz = np.nonzero(np.abs(state.amplitudes) > 1e-12)[0]
        assert list(nz) == [0, 2 ** n - 1]


def test_vbs_identity_operators_give_ebit_product():
    # Open line with identity fusions keeps the ebits (up to wire regrouping).
    ident = np.eye(4, dtype=complex)
    state = mps.vbs_state([ident], ebits=2)
    assert state.spec.dims == (2, 4, 2)
    direct = qk.tensor(mps.make_ebit(2), mps.make_ebit(2))
    assert np.abs(state.amplitudes - direct.amplitudes).max() < 1e-12


def test_vbs_zero_operator_rejected():
    with pytest.raises(InvariantError):
        mps.vbs_state([np.zeros((2, 4))], ebits=2)


def test_vbs_area_law_bound():
    # Fusions cannot create more entanglement across a cut than the bond carries.
    rng = np.random.default_rng(0)
    for _ in range(10):
        p1 = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        state = mps.vbs_state([p1], ebits=2)
        assert ms.entanglement_entropy(state, [0]) <= 1.0 + 1e-9


def test_contract_scalars_give_product_state():
    a0 = np.array([[[1.0]], [[0.5]]])
    chain = MPSChain((a0, a0), np.eye(1))
    state = mps.contract(chain)
    single = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
    expect = np.kron(single, single)
    assert np.abs(state.amplitudes - expect).max() < 1e-12


def test_contract_ghz_chain():
    state = mps.contract(mps.ghz_chain(4))
    nz = np.nonzero(np.abs(state.amplitudes) > 1e-12)[0]
    assert list(nz) == [0, 15]
    assert state.amplitudes[0] == pytest.approx(2 ** -0.5)


def test_contract_zero_norm_rejected():
    a = np.zeros((2, 2, 2))
    a[0, 0, 1] = 1  # off-diagonal only: trace closure annihilates
    with pytest.raises(InvariantError):
        mps.contract(MPSChain((a,), np.eye(2)))


def test_sequential_matches_contract_on_seeded_chains():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 50:
        d_bond = int(rng.integers(1, 5))
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 7))
        if d_bond * d_bond * d ** n > qk.DEFAULT_DIM_CAP:
            continue
        tensors = tuple(rng.standard_normal((d, d_bond, d_bond))
                        + 1j * rng.standard_normal((d, d_bond, d_bond))
                        for _ in range(n))
        boundary = (rng.standard_normal((d_bond, d_bond))
                    + 1j * rng.standard_normal((d_bond, d_bond)))
        chain = MPSChain(tensors, boundary)
        direct = mps.contract(chain)
        prepared, prob = mps.sequential_prepare_detailed(chain)
        assert qk.state_fidelity(direct, prepared) >= 1 - 1e-10
        assert 0 < prob <= 1 + 1e-12
        checked += 1


@pytest.mark.parametrize("d, d_bond", [(2, 2), (3, 2), (2, 3), (4, 5)])
def test_sequential_site_isometry_matches_the_loop_build(monkeypatch, d, d_bond):
    # Each site isometry v[(b', i), b] = A^i[b', b] equals the column-by-column
    # loop build, bit for bit.
    rng = np.random.default_rng(10 * d + d_bond)
    chain = MPSChain(tuple(rng.standard_normal((d, d_bond, d_bond))
                           + 1j * rng.standard_normal((d, d_bond, d_bond))
                           for _ in range(2)), np.eye(d_bond))
    canon = iter(mps.left_canonicalize(chain).tensors)
    dilate = qk._dilate_isometry
    seen = []

    def checked(v, inputs):
        t = next(canon)
        want = np.zeros((d_bond * d, d_bond), dtype=complex)
        for b in range(d_bond):
            col = np.zeros((d_bond, d), dtype=complex)
            for i in range(d):
                col[:, i] = t[i][:, b]
            want[:, b] = col.reshape(-1)
        seen.append(v.dtype == want.dtype and v.shape == want.shape
                    and v.tobytes() == want.tobytes())
        return dilate(v, inputs)

    monkeypatch.setattr(qk, "_dilate_isometry", checked)
    mps.sequential_prepare_detailed(chain)
    assert seen == [True, True]


def test_sequential_prepare_ghz_and_cluster():
    for chain in (mps.ghz_chain(5), mps.cluster_chain(5)):
        direct = mps.contract(chain)
        prepared = mps.sequential_prepare(chain)
        assert qk.state_fidelity(direct, prepared) >= 1 - 1e-10


def test_sequential_cluster_passes_stabilizer_oracle():
    # The sequentially prepared chain is certified directly by the graph
    # stabilizers, independent of the contraction route.
    n = 5
    prepared = mps.sequential_prepare(mps.cluster_chain(n))
    g = line_graph(n)
    devs = np.abs(np.array(mps.graph_stabilizer_expectations(g, prepared)) - 1.0)
    assert devs.max() < 1e-10


def test_cluster_chain_reproduces_cz_line():
    for n in (1, 2, 3, 4, 5):
        via_mps = mps.contract(mps.cluster_chain(n))
        via_gates = mps.cluster_state(line_graph(n))
        assert qk.state_fidelity(via_mps, via_gates) >= 1 - 1e-12


def test_cluster_state_single_vertex():
    state = mps.cluster_state(GraphSpec(1, ()))
    assert np.abs(state.amplitudes - qk.plus_state(2).amplitudes).max() < 1e-12


def test_line3_stabilizers():
    g = line_graph(3)
    state = mps.cluster_state(g)
    expectations = mps.graph_stabilizer_expectations(g, state)
    assert np.abs(np.array(expectations) - 1.0).max() < 1e-10


def test_random_graph_stabilizers():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = GraphSpec(n, tuple(edges))
        state = mps.cluster_state(g)
        expectations = mps.graph_stabilizer_expectations(g, state)
        assert np.abs(np.array(expectations) - 1.0).max() < 1e-10


def test_tailed_cluster_layout():
    g = GraphSpec(2, ((0, 1),), (True, True))
    state = mps.cluster_state(g)
    assert state.spec.dims == (2, 2, 2, 2)
    assert mps.tail_wire(g, 0) == 2 and mps.tail_wire(g, 1) == 3
    # Built equivalently: CZ on heads of two ebits reordered to heads-then-tails.
    joint = qk.tensor(mps.make_ebit(2), mps.make_ebit(2))
    tens = joint.amplitudes.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    amps = qk.apply_on_wires(tens.reshape(-1), qk.CZ, [0, 1], (2,) * 4)
    assert np.abs(state.amplitudes - amps).max() < 1e-12


def test_tailed_pair_head_measurement_reproduces_encrypted_injection():
    # X-measuring one head teleports that ebit half onto its tail with a known
    # pad: the surviving (head, tail) pair matches a padded single-site cluster.
    from uqres import circuits as qc
    g = GraphSpec(2, ((0, 1),), (True, True))
    state = mps.cluster_state(g)
    circ = qc.Circuit(HilbertSpec((2,) * 4), (
        qc.Measure(0, "X", "s"),
        qc.Discard(0),
    ))
    for b in qc.simulate(circ, state):
        s = b.outcomes["s"]
        # surviving wires: (head1, tail0, tail1); tail0 now carries H Z^s of
        # the ebit half, i.e. the pair (head1, tail0) is CZ|+,+> padded by Z^s.
        got = b.state.amplitudes.reshape(2, 2, 2)
        pair = mps.cluster_state(GraphSpec(2, ((0, 1),)))
        padded = qk.apply_on_wires(pair.amplitudes,
                                   np.linalg.matrix_power(qk.Z, s), [1], (2, 2))
        # tail1 stays maximally entangled with head1; check the reduced match
        # by contracting tail1 against both computational values.
        for t1 in (0, 1):
            sub = got[:, :, t1].reshape(-1)
            ref = padded.reshape(2, 2)[:, :].copy()
            ref[1 - t1, :] *= 0  # head1 component correlated with tail1 value
            ref = ref.reshape(-1)
            overlap = abs(np.vdot(ref, sub))
            assert overlap == pytest.approx(np.linalg.norm(ref) * np.linalg.norm(sub),
                                            abs=1e-10)


def test_left_canonicalize_rejects_rank_deficient():
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 1.0  # transfer sweep collapses onto a single bond direction
    with pytest.raises(InvariantError):
        mps.left_canonicalize(MPSChain((a,), np.eye(2)))


def test_mps_json_round_trip():
    rng = np.random.default_rng(3)
    tensors = tuple(rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
                    for _ in range(3))
    chain = MPSChain(tensors, np.eye(3))
    back = mps.mps_from_json(mps.mps_to_json(chain))
    assert qk.state_fidelity(mps.contract(chain), mps.contract(back)) >= 1 - 1e-12


def test_graph_validation():
    with pytest.raises(InvariantError):
        GraphSpec(2, ((0, 0),))
    with pytest.raises(InvariantError):
        GraphSpec(2, ((0, 1), (1, 0)))
    with pytest.raises(InvariantError):
        GraphSpec(2, ((0, 5),))
