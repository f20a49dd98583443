"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines as they complete.
"""

import numpy as np

from uqres import algorithms as alg
from uqres import circuits as qc
from uqres import hamiltonian as ham
from uqres import interference as itf
from uqres import measures as ms
from uqres import mps
from uqres import protocols as pr
from uqres import qkernel as qk
from uqres import wigner as wg
from uqres.interference import Multiplexer
from uqres.qkernel import HilbertSpec

import ebit_oracle


def _report(number, description):
    print(f"ACCEPTANCE {number:2d}: PASS — {description}")


def binary_entropy(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def test_criterion_01_interference_table():
    assert abs(itf.interference_power(qk.H) - 1.0) < 1e-9
    for name in ("X", "Y", "Z", "T", "S", "CX", "CZ", "CCX"):
        assert abs(itf.interference_power(qk.GATES[name])) < 1e-9, name
    _report(1, "interference table: I_r(H)=1 and Paulis/T/S/CX/CZ/CCX all 0 (1e-9)")


def test_criterion_02_additive_relation():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        cu = Multiplexer(tuple(qk.haar_unitary(d2, rng) for _ in range(d1)))
        v = qk.haar_unitary(d1, rng)
        r1, r2 = itf.interference_additivity_check(v, cu)
        worst = max(worst, r1, r2)
    assert worst < 1e-9
    _report(2, f"additive relation, both orders, 100 draws: max residual {worst:.2e} < 1e-9")


def test_criterion_03_one_control_qubit_decomposition():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        u = qk.haar_unitary(2 ** n, rng)
        for eps in (1e-3, 1e-2, 0.1):
            worst = max(worst, alg.one_control_interference_decomposition(u, eps))
    assert worst < 1e-9
    for eps in (1e-3, 1e-2, 0.1):
        v = alg.rotation_v(eps)
        assert abs(itf.interference_power(v, "l1")
                   - 2 * np.sqrt(eps * (1 - eps))) < 1e-12
        assert abs(itf.interference_power(v) - binary_entropy(eps)) < 1e-12
    _report(3, f"one-control-qubit decomposition: max residual {worst:.2e} < 1e-9; "
               "rotation coherences exact to 1e-12")


def test_criterion_04_log_coherence_additivity():
    rng = np.random.default_rng(40)
    worst = 0.0
    for trial in range(100):
        da = 2 if trial % 2 == 0 else 3
        db = 3 if trial % 3 == 0 else 2
        a, b = qk.random_density(da, rng), qk.random_density(db, rng)
        worst = max(worst, abs(ms.log_coherence(qk.tensor(a, b))
                               - ms.log_coherence(a) - ms.log_coherence(b)))
    assert worst < 1e-9
    for d in (2, 3, 4, 5):
        assert abs(ms.log_coherence(qk.plus_state(d)) - np.log2(d)) < 1e-12
    _report(4, f"log-coherence additivity over 100 pairs: max deviation {worst:.2e}; "
               "uniform states reach log2 d to 1e-12")


def test_criterion_05_wigner_mana():
    stab = wg.stabilizer_states(3)
    assert len(stab.states) == 12
    for s in stab.states:
        assert abs(wg.mana(wg.wigner_function(s, 3))) < 1e-12
    rng = np.random.default_rng(50)
    for _ in range(200):
        psi = qk.random_state((3,), rng)
        table = wg.wigner_function(psi, 3)
        assert abs(table.values.sum() - 1.0) < 1e-10
        assert abs(3 * (table.values ** 2).sum() - 1.0) < 1e-9
        margin = ms.l1_coherence(psi) - wg.sum_negativity(table)
        assert margin >= -1e-9
    _report(5, "all 12 qutrit stabilizer states mana 0 (1e-12); normalization, "
               "purity identity and N <= C on 200 random states")


def test_criterion_06_contextual_circuits():
    rng = np.random.default_rng(60)

    def anc(psi):
        return qk.tensor(psi, qk.zero_state((2,)))

    for circ, gate, label in ((qc.h_teleportation(), qk.gate("H"), "H"),
                              (qc.t_injection(), qk.gate("T"), "T")):
        inputs = [anc(qk.random_state((2,), rng)) for _ in range(10)]
        ok, worst = qc.is_deterministic(circ, inputs, tol=1e-9)
        assert ok, (label, worst)
        chan = qc.induced_channel(circ, [0], fixed={1: 0})
        got = itf.choi_state(chan).state.matrix
        want = itf.choi_state(gate).state.matrix
        assert float(np.trace(got @ want).real) >= 1 - 1e-9

    # Free circuits map every basis input to a basis output on all branches.
    diag = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=4)))
    free = qc.Circuit(HilbertSpec((2,) * 5), (
        qc.Gate(qk.T, (0,)),
        qc.Gate(qk.CX, (1, 2)),
        qc.Gate(qk.CCX, (0, 3, 4)),
        qc.Gate(diag, (2, 3)),
        qc.Gate(qk.CZ, (3, 4)),
        qc.Measure(1, "Z", "m"),
        qc.Cond({"m": 1}, qc.Gate(qk.X, (2,))),
    ))
    assert qc.free_circuit_check(free)
    spec = HilbertSpec((2,) * 5)
    for idx in range(32):
        for b in qc.simulate(free, qk.basis_state(spec, idx)):
            assert b.state.probabilities().max() > 1 - 1e-10
    _report(6, "gate teleportation/injection deterministic with matching Choi "
               "states; free circuits preserve basis states on 5 wires")


def test_criterion_07_btt_exhaustive():
    rng = np.random.default_rng(70)
    worst = 1.0
    for a in (0, 1):
        for b in (0, 1):
            for _ in range(20):
                psi = qk.random_state((2,), rng)
                target = qk.apply_unitary(psi, qk.T)
                for prob, res in pr.btt_branches(psi, pr.PauliKey(a, b)):
                    dec = pr.decrypt_pads(res.output,
                                          [(res.new_key.a, res.new_key.b)])
                    worst = min(worst, qk.state_fidelity(dec, target))
                    assert pr.lobc_violations(res.transcript) == 0
    assert worst >= 1 - 1e-10
    _report(7, f"nonlocal T teleportation, exhaustive branches x 4 keys x 20 states: "
               f"min fidelity {worst:.12f}, zero pre-broadcast messages")


def test_criterion_08_pmqc():
    rng = np.random.default_rng(80)
    worst = 1.0
    for trial in range(10):
        nq = 1 if trial < 4 else 2
        programs = tuple(tuple(("H", "T")[rng.integers(2)]
                               for _ in range(rng.integers(1, 5)))
                         for _ in range(nq))
        cz_after = None
        if nq == 2:
            cz_after = (int(rng.integers(len(programs[0]) + 1)),
                        int(rng.integers(len(programs[1]) + 1)))
        psi = qk.random_state((2,) * nq, rng)
        res = pr.pmqc_run(psi, programs, cz_after, source=pr.SamplingSource(rng))
        dec = pr.decrypt_pads(res.output, res.keys)
        ideal = qk.StateVector(psi.spec,
                               pr.program_unitary(programs, cz_after) @ psi.amplitudes)
        worst = min(worst, qk.state_fidelity(dec, ideal))
        t_total = sum(g == "T" for gates in programs for g in gates)
        assert res.ebits_consumed == t_total
        assert res.pr_boxes_consumed == t_total
        assert res.max_live_qubits <= 12
        assert pr.lobc_violations(res.transcript) == 0
    assert worst >= 1 - 1e-9
    _report(8, f"blind H/T/CZ programs: min decrypted fidelity {worst:.12f}; one "
               "ebit and one PR box per T event; register within 12 qubits")


def test_criterion_09_hqca():
    h, u, w, pi = ham.hqca_local_term()
    assert np.abs(ham.hqca_quench() - 1j * h).max() < 1e-10
    rng = np.random.default_rng(90)
    worst = 1.0
    for layers in ([{0: 1, 2: 2}],
                   [{0: 2, 2: 1}, {1: 1}],
                   [{0: 1, 2: 1}, {1: 2}]):
        for _ in range(3):
            data = qk.random_state((2, 2, 2, 2), rng)
            out = ham.hqca_run(layers, data)      # side conditions checked inside
            direct = ham.hqca_direct(layers, data)
            worst = min(worst, qk.state_fidelity(out, direct))
    assert worst >= 1 - 1e-10
    # Side conditions verified explicitly on the quench for every program value.
    quench = ham.hqca_quench()
    for p, g in ((0, np.eye(4)), (1, w), (2, pi)):
        psi = qk.random_state((2, 2), rng).amplitudes
        inp = np.zeros(24, dtype=complex)
        inp[(3 + p) * 4:(3 + p) * 4 + 4] = psi
        out = quench @ inp
        expect = np.zeros(24, dtype=complex)
        expect[p * 4:p * 4 + 4] = 1j * (g @ psi)
        assert np.abs(out - expect).max() < 1e-10
    _report(9, f"automaton quench equals iH (1e-10); brickwork runs match direct "
               f"circuits, min fidelity {worst:.12f}; register side conditions hold")


def test_criterion_10_history_and_walk():
    expect_l3 = np.array([[0.5, -0.5, 0, 0],
                          [-0.5, 1, -0.5, 0],
                          [0, -0.5, 1, -0.5],
                          [0, 0, -0.5, 0.5]])
    assert np.abs(ham.walk_hamiltonian(3) - expect_l3).max() == 0.0
    for length in range(1, 11):
        hw = ham.walk_hamiltonian(length)
        uniform = np.ones(length + 1) / np.sqrt(length + 1)
        assert np.abs(uniform @ hw @ uniform) < 1e-12
        assert np.abs(hw @ uniform).max() < 1e-12
        vals = np.linalg.eigvalsh(hw)
        assert abs((vals[1] - vals[0]) - (1 - np.cos(np.pi / (length + 1)))) < 1e-9
        assert ham.is_stoquastic(hw)
    rng = np.random.default_rng(100)
    circuit = [qk.haar_unitary(2, rng) for _ in range(4)]
    hs = ham.history_state(circuit, qk.zero_state((2,)))
    assert np.abs(ham.clock_probabilities(hs) - 0.2).max() < 1e-12
    # Unit-Frobenius-norm endpoints make the scanned minimum exactly 1 at 1/2;
    # the unnormalized closed form 2 sqrt(t^2 + (1-t)^2) is checked alongside.
    grid = 101
    scan = ham.adiabatic_gap_scan(qk.Z / np.sqrt(2), qk.X / np.sqrt(2), grid)
    s_min, g_min = ham.min_gap(scan)
    assert abs(g_min - 1.0) < 1e-9
    assert abs(s_min - 0.5) <= 1.0 / (grid - 1) + 1e-12
    for s, gap in ham.adiabatic_gap_scan(qk.Z, qk.X, grid):
        assert abs(gap - 2 * np.sqrt(s ** 2 + (1 - s) ** 2)) < 1e-9
    _report(10, "walk matrix exact, uniform ground state, gap formula to L=10, "
                "uniform clock marginal, stoquastic walk, scan minimum 1 at t=0.5")


def test_criterion_11_mps():
    rng = np.random.default_rng(110)
    checked = 0
    worst = 1.0
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
        chain = mps.MPSChain(tensors, boundary)
        worst = min(worst, qk.state_fidelity(mps.contract(chain),
                                             mps.sequential_prepare(chain)))
        checked += 1
    assert worst >= 1 - 1e-10

    for g in (mps.line_graph(4), mps.GraphSpec(4, ((0, 1), (1, 2), (2, 3), (3, 0))),
              mps.GraphSpec(5, ((0, 1), (0, 2), (0, 3), (0, 4)))):
        state = mps.cluster_state(g)
        devs = np.abs(np.array(mps.graph_stabilizer_expectations(g, state)) - 1.0)
        assert devs.max() < 1e-10

    built = ebit_oracle.literal_ebit(2)
    assert np.abs(mps.make_ebit(2).amplitudes - built.amplitudes).max() == 0.0
    _report(11, f"contraction vs sequential preparation on 50 chains: min fidelity "
                f"{worst:.12f}; graph stabilizers +1 (1e-10); ebit construction exact")


def test_criterion_12_trotter_halving():
    rng = np.random.default_rng(120)
    for trial in range(3):
        spec = HilbertSpec((2, 2))
        terms = []
        for support in ((0,), (1,), (0, 1)):
            d = 2 ** len(support)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            terms.append(ham.HamiltonianTerm(support, (g + g.conj().T) / 2, 1.0))
        ts = ham.TermSum(spec, tuple(terms))
        e_n = ham.trotter_error(ts, 1.0, 32)
        e_2n = ham.trotter_error(ts, 1.0, 64)
        ratio = e_n / e_2n
        assert 1.7 < ratio < 2.3, ratio
    _report(12, "first-order Trotter error halves (ratio within [1.7, 2.3]) on 3 "
                "seeded non-commuting term sets")
