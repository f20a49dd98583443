import numpy as np
import pytest

from uqres import hamiltonian as ham
from uqres import qkernel as qk
from uqres.hamiltonian import HamiltonianTerm, TermSum
from uqres.qkernel import CapExceededError, HilbertSpec, InvariantError


def heisenberg_sum(n, coupling=1.0):
    spec = HilbertSpec((2,) * n)
    terms = []
    for i in range(n - 1):
        for p in (qk.X, qk.Y, qk.Z):
            terms.append(HamiltonianTerm((i, i + 1), np.kron(p, p), coupling))
    return TermSum(spec, tuple(terms))


def test_is_stoquastic_examples():
    zz = np.kron(qk.Z, qk.Z)
    assert ham.is_stoquastic(zz)
    assert ham.is_stoquastic(-qk.X)
    assert not ham.is_stoquastic(qk.X)
    assert ham.is_stoquastic(ham.walk_hamiltonian(4))


def test_stoquastic_form_alpha_zz():
    rng = np.random.default_rng(0)
    alpha = float(rng.uniform(-2, 2))
    a = np.diag(rng.uniform(-1, 1, size=2))
    b = np.diag(rng.uniform(-1, 1, size=2))
    m = (alpha * np.kron(qk.Z, qk.Z) + np.kron(a, np.eye(2))
         + np.kron(np.eye(2), b))
    assert ham.is_stoquastic(m)


def test_stoquastic_basis_covariance():
    rng = np.random.default_rng(1)
    h = -qk.X
    u = qk.haar_unitary(2, rng)
    rotated = u @ h @ u.conj().T
    # verdict in the matching basis equals the computational-basis verdict
    assert ham.is_stoquastic(rotated, basis=u) == ham.is_stoquastic(h)
    # walk Hamiltonian is stoquastic only in its own (history) basis
    hw = ham.walk_hamiltonian(3)
    v = qk.haar_unitary(4, rng)
    assert ham.is_stoquastic(v @ hw @ v.conj().T, basis=v)


def test_assemble_examples():
    spec = HilbertSpec((2, 2, 2))
    single = TermSum(spec, (HamiltonianTerm((0,), qk.Z, 2.0),))
    assert np.abs(ham.assemble(single)
                  - 2 * np.kron(qk.Z, np.eye(4))).max() < 1e-12
    empty = TermSum(spec, ())
    assert np.abs(ham.assemble(empty)).max() == 0.0
    # embedded on a non-leading site
    mid = TermSum(spec, (HamiltonianTerm((1,), qk.X, 1.0),))
    assert np.abs(ham.assemble(mid)
                  - np.kron(np.eye(2), np.kron(qk.X, np.eye(2)))).max() < 1e-12


def test_term_validation():
    spec = HilbertSpec((2, 2))
    with pytest.raises(InvariantError):
        HamiltonianTerm((0,), np.array([[0, 1], [0, 0]]))
    with pytest.raises(InvariantError):
        HamiltonianTerm((1, 1), np.kron(qk.Z, qk.Z))      # repeated site, no spec needed
    with pytest.raises(InvariantError):
        TermSum(spec, (HamiltonianTerm((5,), qk.Z),))
    with pytest.raises(InvariantError):
        TermSum(spec, (HamiltonianTerm((0,), np.kron(qk.Z, qk.Z)),))


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_term_weight_must_be_finite(weight):
    with pytest.raises(InvariantError, match="term weight must be finite"):
        HamiltonianTerm((0,), qk.Z, weight)


def test_trotter_exact_for_commuting_terms():
    spec = HilbertSpec((2, 2))
    terms = TermSum(spec, (HamiltonianTerm((0,), qk.Z, 0.7),
                           HamiltonianTerm((1,), qk.Z, -0.3)))
    for steps in (1, 3):
        err = ham.trotter_error(terms, 1.3, steps)
        assert err < 1e-10


def test_trotter_first_order_scaling():
    terms = TermSum(HilbertSpec((2,)), (HamiltonianTerm((0,), qk.X, 1.0),
                                        HamiltonianTerm((0,), qk.Z, 1.0)))
    e16 = ham.trotter_error(terms, 1.0, 16)
    e32 = ham.trotter_error(terms, 1.0, 32)
    assert 1.7 < e16 / e32 < 2.3


def test_trotter_heisenberg_converges():
    terms = heisenberg_sum(3, coupling=0.5)
    err = ham.trotter_error(terms, 0.5, 64)
    assert err < 1e-2


def test_trotter_error_monotone_in_steps():
    rng = np.random.default_rng(2)
    spec = HilbertSpec((2, 2))
    terms = []
    for support in ((0,), (1,), (0, 1)):
        d = 2 ** len(support)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        terms.append(HamiltonianTerm(support, (g + g.conj().T) / 2, 1.0))
    ts = TermSum(spec, tuple(terms))
    errs = [ham.trotter_error(ts, 1.0, n) for n in (8, 16, 32)]
    assert errs[0] >= errs[1] >= errs[2]


def test_simulation_error_examples():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4))
    h = (g + g.T) / 2
    # trivial encoding, cutoff above the spectrum
    assert ham.simulation_error(h, h, np.eye(4), delta=100.0) < 1e-12
    # junk block above the cutoff is invisible
    junk = np.diag([50.0, 60.0])
    h_big = np.zeros((6, 6))
    h_big[:4, :4] = h
    h_big[4:, 4:] = junk
    encode = np.zeros((6, 4))
    encode[:4, :4] = np.eye(4)
    assert ham.simulation_error(h_big, h, encode, delta=10.0) < 1e-12
    # small perturbation below cutoff
    v = rng.standard_normal((4, 4))
    v = (v + v.T) / 2
    v /= np.linalg.norm(v, 2)
    err = ham.simulation_error(h + 1e-3 * v, h, np.eye(4), delta=100.0)
    assert err <= 1e-3 + 1e-9


def test_simulation_error_empty_subspace():
    with pytest.raises(InvariantError):
        ham.simulation_error(np.eye(2), np.eye(2), np.eye(2), delta=-10.0)


def test_hqca_local_term_structure():
    h, u, w, pi = ham.hqca_local_term()
    assert h.shape == (24, 24)
    assert np.abs(h - h.conj().T).max() < 1e-12
    assert np.abs(h @ h - np.eye(24)).max() < 1e-12
    assert np.allclose(pi, qk.SWAP)
    assert np.allclose(w[:2, :2], np.eye(2))
    assert np.allclose(w[2:, 2:], qk.H @ qk.Z)
    # U block-diagonal over the program qutrit
    assert np.allclose(u[0:4, 0:4], np.eye(4))
    assert np.allclose(u[4:8, 4:8], w)
    assert np.allclose(u[8:12, 8:12], pi)


def test_hqca_quench_is_i_times_h():
    # Independent oracle: scipy's general expm.
    from scipy.linalg import expm
    h, _, _, _ = ham.hqca_local_term()
    quench = expm(1j * (np.pi / 2) * h)
    assert np.abs(quench - 1j * h).max() < 1e-10
    assert np.abs(ham.hqca_quench() - 1j * h).max() < 1e-10


def test_hqca_quench_gate_action():
    h, u, w, pi = ham.hqca_local_term()
    quench = ham.hqca_quench()
    rng = np.random.default_rng(4)
    for p, g in ((0, np.eye(4)), (1, w), (2, pi)):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        inp = np.zeros(24, dtype=complex)
        inp[(3 + p) * 4:(3 + p) * 4 + 4] = psi          # ancilla |1>, program |p>
        out = quench @ inp
        expect = np.zeros(24, dtype=complex)
        expect[p * 4:p * 4 + 4] = 1j * (g @ psi)        # ancilla |0>, program |p>
        assert np.abs(out - expect).max() < 1e-10


def test_hqca_run_identity_programs():
    rng = np.random.default_rng(5)
    data = qk.random_state((2, 2, 2, 2), rng)
    out = ham.hqca_run([{0: 0, 2: 0}], data)
    assert qk.state_fidelity(out, data) >= 1 - 1e-10


def test_hqca_run_single_w():
    rng = np.random.default_rng(6)
    data = qk.random_state((2, 2, 2, 2), rng)
    # W on the pair starting at qubit 2 (even layer)
    out = ham.hqca_run([{2: 1}], data)
    direct = ham.hqca_direct([{2: 1}], data)
    assert qk.state_fidelity(out, direct) >= 1 - 1e-10


def test_hqca_brickwork_two_layers():
    rng = np.random.default_rng(7)
    data = qk.random_state((2, 2, 2, 2), rng)
    layers = [{0: 1, 2: 2}, {1: 1}]
    out = ham.hqca_run(layers, data)
    direct = ham.hqca_direct(layers, data)
    assert qk.state_fidelity(out, direct) >= 1 - 1e-10


def test_hqca_run_validation():
    data = qk.zero_state((2, 2, 2, 2))
    with pytest.raises(InvariantError):
        ham.hqca_run([{0: 3}], data)          # bad program value
    with pytest.raises(InvariantError):
        ham.hqca_run([{1: 1}], data)          # odd pair start in even layer
    for layers in ([{-2: 1}], [{0: 0}, {-1: 1}], [{0: 0}, {3: 1}]):
        with pytest.raises(InvariantError):
            ham.hqca_run(layers, data)        # a pair off the data wires
    with pytest.raises(InvariantError):
        ham.hqca_run([{0: 0}], qk.zero_state((3, 2)))
    # Ancilla, program and 10 data qubits: 2 * 3 * 2^10 = 6144 > 4096.
    with pytest.raises(CapExceededError):
        ham.hqca_run([{0: 0}], qk.zero_state((2,) * 10))


@pytest.mark.parametrize("layers", [[{-2: 1}], [{2: 1}], [{1: 1}], [{0: 3}]],
                         ids=["negative-start", "off-the-end", "odd-start-in-layer-0",
                              "bad-program"])
def test_hqca_direct_keeps_the_rules_of_hqca_run(layers):
    data = qk.zero_state((2, 2, 2))
    for route in (ham.hqca_run, ham.hqca_direct):
        with pytest.raises(InvariantError):
            route(layers, data)


def test_hqca_run_on_five_qubits_matches_direct():
    rng = np.random.default_rng(11)
    data = qk.random_state((2,) * 5, rng)
    layers = [{s: int(rng.integers(3)) for s in range(k % 2, 4, 2)} for k in range(4)]
    # hqca_run keeps a global phase i per pair, which the fidelity ignores.
    fid = qk.state_fidelity(ham.hqca_run(layers, data), ham.hqca_direct(layers, data))
    assert fid >= 1 - 1e-12


def test_history_state_l0():
    hs = ham.history_state([], qk.plus_state(2))
    assert hs.length == 0
    assert hs.state.spec.dims == (2, 1)
    assert np.abs(hs.state.amplitudes - qk.plus_state(2).amplitudes).max() < 1e-12


def test_history_state_clock_marginal():
    rng = np.random.default_rng(8)
    circuit = [qk.haar_unitary(4, rng) for _ in range(5)]
    hs = ham.history_state(circuit, qk.random_state((2, 2), rng))
    probs = ham.clock_probabilities(hs)
    assert np.abs(probs - 1 / 6).max() < 1e-12


def test_history_padding_boosts_readout():
    us = [qk.H, qk.T, qk.H]
    for pad in (0, 1, 4):
        padded = us + [np.eye(2, dtype=complex)] * pad
        hs = ham.history_state(padded, qk.zero_state((2,)))
        got = ham.readout_success_probability(hs, len(us))
        assert got == pytest.approx((pad + 1) / (len(us) + pad + 1), abs=1e-12)


def test_walk_hamiltonian_entries():
    hw = ham.walk_hamiltonian(3)
    expect = np.array([[0.5, -0.5, 0, 0],
                       [-0.5, 1, -0.5, 0],
                       [0, -0.5, 1, -0.5],
                       [0, 0, -0.5, 0.5]])
    assert np.abs(hw - expect).max() == 0.0


def test_walk_uniform_ground_state_and_gap():
    for length in range(1, 11):
        hw = ham.walk_hamiltonian(length)
        uniform = np.ones(length + 1) / np.sqrt(length + 1)
        assert np.abs(hw @ uniform).max() < 1e-12
        vals = np.linalg.eigvalsh(hw)
        # Oracle: path-graph Laplacian eigenvalues 1 - cos(pi k/(L+1)).
        expect = 1 - np.cos(np.pi * np.arange(length + 1) / (length + 1))
        assert np.abs(np.sort(vals) - np.sort(expect)).max() < 1e-9
        assert vals[1] - vals[0] == pytest.approx(1 - np.cos(np.pi / (length + 1)),
                                                  abs=1e-9)


def test_gap_scan_constant():
    h = ham.walk_hamiltonian(2)
    scan = ham.adiabatic_gap_scan(h, h, 11)
    gaps = [g for _, g in scan]
    assert max(gaps) - min(gaps) < 1e-12


def test_gap_scan_z_to_x_closed_form():
    scan = ham.adiabatic_gap_scan(qk.Z, qk.X, 101)
    for s, gap in scan:
        expect = 2 * np.sqrt((1 - s) ** 2 + s ** 2)
        assert gap == pytest.approx(expect, abs=1e-12)
    s_min, g_min = ham.min_gap(scan)
    assert s_min == pytest.approx(0.5, abs=1e-9)
    assert g_min == pytest.approx(np.sqrt(2), abs=1e-12)


def test_gap_scan_unit_norm_z_to_x():
    # Frobenius-normalized endpoints: the same curve scaled to minimum 1 at 1/2.
    scan = ham.adiabatic_gap_scan(qk.Z / np.sqrt(2), qk.X / np.sqrt(2), 101)
    s_min, g_min = ham.min_gap(scan)
    assert s_min == pytest.approx(0.5, abs=1e-9)
    assert g_min == pytest.approx(1.0, abs=1e-12)


def test_gap_scan_projector_to_walk_stays_open():
    hw = ham.walk_hamiltonian(3)
    h0 = np.diag([0.0, 1.0, 1.0, 1.0]).astype(complex)  # initial projector
    scan = ham.adiabatic_gap_scan(h0, hw, 51)
    assert min(g for _, g in scan) > 0.0


def test_interpolation_conventions():
    a, b = qk.Z, qk.X
    assert np.allclose(ham.interpolate(a, b, 0.0), a)
    assert np.allclose(ham.interpolate(a, b, 1.0), b)


def test_gap_scan_dimension_mismatch():
    with pytest.raises(InvariantError):
        ham.adiabatic_gap_scan(qk.Z, ham.walk_hamiltonian(3), 11)


def test_termsum_json_round_trip():
    terms = heisenberg_sum(3, coupling=0.7)
    back = ham.termsum_from_json(ham.termsum_to_json(terms))
    assert np.abs(ham.assemble(terms) - ham.assemble(back)).max() < 1e-12
