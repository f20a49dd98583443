import numpy as np
import pytest

from uqres import protocols as pr
from uqres import qkernel as qk
from uqres.protocols import (PauliKey, PRBox, PMQCResources, SamplingSource,
                             Transcript, enumerate_runs)
from uqres.qkernel import CapExceededError, InvariantError, ResourceError

from recording import Recorder


def test_pauli_encrypt_examples():
    rng = np.random.default_rng(0)
    psi = qk.random_state((2,), rng)
    assert np.abs(pr.pauli_encrypt(psi, PauliKey(0, 0)).amplitudes
                  - psi.amplitudes).max() < 1e-12
    flipped = pr.pauli_encrypt(qk.zero_state((2,)), PauliKey(1, 0))
    assert abs(flipped.amplitudes[1]) == pytest.approx(1.0)
    # Averaging over all four keys scrambles to the maximally mixed state.
    avg = np.zeros((2, 2), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            enc = pr.pauli_encrypt(psi, PauliKey(a, b))
            avg += np.outer(enc.amplitudes, enc.amplitudes.conj()) / 4
    assert np.abs(avg - np.eye(2) / 2).max() < 1e-12


def test_pr_box_correlation():
    for x in (0, 1):
        for y in (0, 1):
            for h in (0, 1):
                a, b = pr.pr_box_call(PRBox(0, hidden=h), x, y)
                assert a ^ b == x * y
                assert a == h  # side-A output is the hidden bit


def test_pr_box_single_use():
    box = PRBox(1, hidden=0)
    pr.pr_box_call(box, 0, 0)
    with pytest.raises(ResourceError):
        pr.pr_box_call(box, 0, 0)


def test_chsh_always_wins():
    assert pr.chsh_game() == 1.0
    assert pr.chsh_game(rounds=500, rng=np.random.default_rng(1)) == 1.0


def test_pr_box_marginals_uniform():
    n = 10_000
    ca, cb = pr.pr_box_marginal_samples(n, seed=5)
    sigma = 0.5 * np.sqrt(n)
    assert abs(ca - n / 2) < 5 * sigma
    assert abs(cb - n / 2) < 5 * sigma


def test_btt_exhaustive_all_keys():
    rng = np.random.default_rng(2)
    for a in (0, 1):
        for b in (0, 1):
            key = PauliKey(a, b)
            for _ in range(5):
                psi = qk.random_state((2,), rng)
                target = qk.apply_unitary(psi, qk.T)
                total = 0.0
                branches = pr.btt_branches(psi, key)
                assert len(branches) == 8  # c, m, hidden bit
                for prob, res in branches:
                    total += prob
                    dec = pr.decrypt_pads(res.output,
                                          [(res.new_key.a, res.new_key.b)])
                    assert qk.state_fidelity(dec, target) >= 1 - 1e-10
                    assert res.ebits_consumed == 1
                    assert res.pr_boxes_consumed == 1
                assert total == pytest.approx(1.0, abs=1e-9)


def test_btt_trivial_key_branch():
    psi = qk.plus_state(2)
    target = qk.apply_unitary(psi, qk.T)
    prob, res = pr.btt_branches(psi, PauliKey(0, 0))[0]
    dec = pr.decrypt_pads(res.output, [(res.new_key.a, res.new_key.b)])
    assert qk.state_fidelity(dec, target) >= 1 - 1e-10


def test_btt_transcript_lobc():
    psi = qk.plus_state(2)
    for prob, res in pr.btt_branches(psi, PauliKey(1, 1)):
        assert pr.lobc_violations(res.transcript) == 0
        # no directed message events at all, and a final broadcast exists
        actions = [e.action for e in res.transcript.events]
        assert "message" not in actions
        assert actions[-1] == "broadcast" or actions[-2] == "broadcast"
        # no S-type correction at A conditioned on B's key: A's local ops are
        # T, CX and her own Z share only
        a_ops = [e.payload.get("op", "") for e in res.transcript.events
                 if e.party == "A" and e.action == "local-op"]
        assert all(not op.startswith("S") for op in a_ops)


def test_lobc_validator_flags_directed_messages():
    t = Transcript()
    t.log("A", "message", {"to": "B"})
    t.log("A", "broadcast", {})
    assert pr.lobc_violations(t) == 1
    t2 = Transcript()
    t2.log("A", "broadcast", {})
    t2.log("A", "message", {"to": "B"})  # after broadcast: not a violation
    assert pr.lobc_violations(t2) == 0


def _check_pmqc(programs, cz_after, seed, trials=3):
    rng = np.random.default_rng(seed)
    nq = len(programs)
    t_total = sum(g == "T" for gates in programs for g in gates)
    for _ in range(trials):
        psi = qk.random_state((2,) * nq, rng)
        res = pr.pmqc_run(psi, programs, cz_after, source=SamplingSource(rng))
        dec = pr.decrypt_pads(res.output, res.keys)
        ideal = qk.StateVector(psi.spec,
                               pr.program_unitary(programs, cz_after) @ psi.amplitudes)
        assert qk.state_fidelity(dec, ideal) >= 1 - 1e-9
        assert res.ebits_consumed == t_total
        assert res.pr_boxes_consumed == t_total
        assert res.t_events == t_total
        assert pr.lobc_violations(res.transcript) == 0
        assert pr.measurement_bases_at(res.transcript, "A") <= {"Z", "X"}
        assert res.max_live_qubits <= 12


def test_pmqc_single_hadamard():
    _check_pmqc([["H"]], None, seed=3)


def test_pmqc_hadamard_then_t():
    _check_pmqc([["H", "T"]], None, seed=4)


def test_pmqc_t_heavy_program():
    _check_pmqc([["T", "T", "H", "T"]], None, seed=5)


def test_pmqc_two_qubits_with_cz():
    _check_pmqc([["H"], ["H"]], (1, 1), seed=6)
    _check_pmqc([["H", "T"], ["T", "H"]], (1, 1), seed=7)
    _check_pmqc([["T"], ["H"]], (0, 0), seed=8)


def test_pmqc_byproduct_form_single_h():
    # After one H the pad is H Z^a-type: x key equals the hop outcome xor'd
    # with the injection pad; decryption must still give exactly H|psi>.
    rng = np.random.default_rng(9)
    psi = qk.random_state((2,), rng)
    ideal = qk.apply_unitary(psi, qk.H)
    for prob, res in enumerate_runs(lambda s: pr.pmqc_run(psi, [["H"]], source=s)):
        dec = pr.decrypt_pads(res.output, res.keys)
        assert qk.state_fidelity(dec, ideal) >= 1 - 1e-10


def test_pmqc_byproduct_form_h_then_t():
    # Program H then T: X^b Z^a T-type byproduct tracked through both stages.
    rng = np.random.default_rng(10)
    psi = qk.random_state((2,), rng)
    ideal = qk.StateVector(psi.spec, pr.program_unitary([["H", "T"]]) @ psi.amplitudes)
    branches = enumerate_runs(lambda s: pr.pmqc_run(psi, [["H", "T"]], source=s))
    total = 0.0
    key_values = set()
    for prob, res in branches:
        total += prob
        key_values.add(res.keys[0])
        dec = pr.decrypt_pads(res.output, res.keys)
        assert qk.state_fidelity(dec, ideal) >= 1 - 1e-10
    assert total == pytest.approx(1.0, abs=1e-9)
    assert key_values == {(0, 0), (0, 1), (1, 0), (1, 1)}  # pads exercise all values


def test_pmqc_resource_shortfall():
    psi = qk.plus_state(2)
    with pytest.raises(ResourceError):
        pr.pmqc_run(psi, [["T", "T"]], source=SamplingSource(np.random.default_rng(0)),
                    resources=PMQCResources(ebits=1, pr_boxes=1))


def test_pmqc_rejects_bad_programs():
    psi = qk.plus_state(2)
    src = SamplingSource(np.random.default_rng(0))
    with pytest.raises(InvariantError):
        pr.pmqc_run(psi, [["H", "H", "H", "H", "H"]], source=src)
    with pytest.raises(InvariantError):
        pr.pmqc_run(psi, [["S"]], source=src)
    with pytest.raises(InvariantError):
        pr.pmqc_run(psi, [["H"], ["H"], ["H"]], source=src)


def test_pmqc_key_privacy_exhaustive():
    # Averaged over everything B-local, A's live qubits are maximally mixed at
    # every stage boundary.  Stages are cut at the draws, three per gadget:
    # [T] is an injection, the T gadget and two hops, [H,H] an injection and
    # two hops.
    rng = np.random.default_rng(11)
    for programs, stages in (([["T"]], 12), ([["H", "H"]], 9)):
        psi = qk.random_state((2,), rng)

        def run(source):
            snaps = []

            def record(state):
                reg = state.reg
                a_live = [n for n in reg.names if reg.owners[n] == "A"]
                if a_live:
                    snaps.append((state.stage, tuple(a_live), reg.reduced(a_live)))

            pr.pmqc_run(psi, programs, source=Recorder(source, record))
            return snaps

        sums = {}
        for prob, snaps in enumerate_runs(run):
            for stage, names, rho in snaps:
                key = (stage, names)
                sums[key] = sums.get(key, 0) + prob * rho
        assert {stage for stage, _ in sums} == set(range(1, stages + 1))
        for (stage, names), rho in sums.items():
            d = rho.shape[0]
            assert np.abs(rho - np.eye(d) / d).max() < 1e-9, stage


def test_pmqc_two_qubit_privacy():
    rng = np.random.default_rng(12)
    psi = qk.random_state((2, 2), rng)

    def run(source):
        res = pr.pmqc_run(psi, [["H"], ["H"]], (1, 1), source=source)
        return res.output

    total = 0.0
    avg = np.zeros((4, 4), dtype=complex)
    for prob, out in enumerate_runs(run):
        total += prob
        avg += prob * np.outer(out.amplitudes, out.amplitudes.conj())
    assert total == pytest.approx(1.0, abs=1e-9)
    assert np.abs(avg - np.eye(4) / 4).max() < 1e-9


def test_mbqc_identity_pattern():
    rng = np.random.default_rng(13)
    psi = qk.random_state((2,), rng)
    branches = pr.mbqc_gate([0.0, 0.0], psi)
    assert len(branches) == 4
    for b in branches:
        assert qk.state_fidelity(b.corrected, psi) >= 1 - 1e-10


def test_mbqc_h_pattern():
    rng = np.random.default_rng(14)
    psi = qk.random_state((2,), rng)
    target = qk.apply_unitary(psi, qk.H)
    assert np.allclose(pr.mbqc_target([0.0]), qk.H)
    for b in pr.mbqc_gate([0.0], psi):
        assert qk.state_fidelity(b.corrected, target) >= 1 - 1e-10


def test_mbqc_rotation_patterns_deterministic():
    rng = np.random.default_rng(15)
    psi = qk.random_state((2,), rng)
    for angles in ([np.pi / 4], [np.pi / 4, -np.pi / 3, 0.7]):
        target = qk.StateVector(psi.spec, pr.mbqc_target(angles) @ psi.amplitudes)
        branches = pr.mbqc_gate(angles, psi, adaptive=True)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)
        for b in branches:
            assert qk.state_fidelity(b.corrected, target) >= 1 - 1e-10


def test_mbqc_non_adaptive_fails():
    rng = np.random.default_rng(16)
    psi = qk.random_state((2,), rng)
    angles = [np.pi / 4, np.pi / 4]
    target = qk.StateVector(psi.spec, pr.mbqc_target(angles) @ psi.amplitudes)
    fids = [qk.state_fidelity(b.corrected, target)
            for b in pr.mbqc_gate(angles, psi, adaptive=False)]
    assert min(fids) < 1 - 1e-3


def test_mbqc_row_of_six_angles_is_deterministic():
    # Seven qubits, one past the row length the toolkit once refused.
    rng = np.random.default_rng(17)
    psi = qk.random_state((2,), rng)
    angles = list(rng.uniform(-np.pi, np.pi, size=6))
    target = qk.StateVector(psi.spec, pr.mbqc_target(angles) @ psi.amplitudes)
    branches = pr.mbqc_gate(angles, psi, adaptive=True)
    assert len(branches) == 64
    assert min(qk.state_fidelity(b.corrected, target) for b in branches) >= 1 - 1e-12


def test_mbqc_row_past_the_dimension_cap_is_refused():
    # Twelve angles hold 13 qubits: 8192 > 4096.
    with pytest.raises(CapExceededError):
        pr.mbqc_gate([0.1] * 12, qk.plus_state(2))


@pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
def test_mbqc_rejects_a_non_finite_angle(angle):
    with pytest.raises(InvariantError):
        pr.mbqc_gate([0.3, angle], qk.plus_state(2))


def test_transcript_json_lines():
    t = Transcript()
    t.log("A", "local-op", {"op": "T"})
    t.log("B", "broadcast", {})
    lines = t.to_json_lines()
    assert len(lines) == 2
    import json
    doc = json.loads(lines[0])
    assert doc["party"] == "A" and doc["t"] == 0


@pytest.fixture
def norm_checks(monkeypatch):
    """Count the norm checks: StateVector's constructor and the register's caller route."""
    counts = {"StateVector": 0, "register": 0}
    post_init, normalised = qk.StateVector.__post_init__, pr._normalised

    def spy_post_init(self):
        counts["StateVector"] += 1
        post_init(self)

    def spy_normalised(*args):
        counts["register"] += 1
        return normalised(*args)

    monkeypatch.setattr(qk.StateVector, "__post_init__", spy_post_init)
    monkeypatch.setattr(pr, "_normalised", spy_normalised)
    return counts


def test_leaf_states_are_built_without_a_norm_check(norm_checks):
    reg = pr.Register()
    reg.add_ebit("a", "b")
    norm_checks.update(StateVector=0, register=0)
    out = reg.extract(["b", "a"])
    dec = pr.decrypt_pads(out, [(1, 0), (1, 1)])
    assert norm_checks == {"StateVector": 0, "register": 0}
    assert not out.amplitudes.flags.writeable and not dec.amplitudes.flags.writeable
    assert np.abs(dec.amplitudes - np.array([1, 0, 0, -1]) / np.sqrt(2)).max() < 1e-15


def test_caller_amplitudes_are_norm_checked_once_per_route(norm_checks):
    qk.StateVector(qk.HilbertSpec((2,)), np.array([1.0, 0.0]))
    assert norm_checks == {"StateVector": 1, "register": 0}
    reg = pr.Register()
    reg.add_qubit("q", "A", [0.0, 2.0])
    assert norm_checks == {"StateVector": 1, "register": 1}
    reg.add_state(["r", "s"], "B", [1.0, 0.0, 0.0, 1.0])
    assert norm_checks == {"StateVector": 1, "register": 2}


def test_an_enumeration_checks_its_plaintext_once(norm_checks):
    psi = qk.random_state((2,), np.random.default_rng(25))
    norm_checks.update(StateVector=0, register=0)
    runs = enumerate_runs(lambda src: pr.pmqc_run(psi, [["H"]], source=src))
    assert len(runs) == 16
    assert norm_checks == {"StateVector": 0, "register": 1}


def test_a_measurement_is_split_then_taken():
    reg = pr.Register()
    reg.add_ebit("a", "b")
    with pytest.raises(InvariantError):
        reg.take(SamplingSource(np.random.default_rng(0)))
    reg.split("a", "Z", "m", party="A")
    copy = reg.copy()
    assert copy.pending is reg.pending and not reg.pending.probs.flags.writeable
    for op in (lambda: reg.apply(qk.X, ["b"]), lambda: reg.add_ebit("c", "d"),
               lambda: reg.split("b", "Z", "n")):
        with pytest.raises(InvariantError):
            op()
    tr = Transcript()
    k = reg.take(SamplingSource(np.random.default_rng(0)), tr)
    assert reg.names == ["b"] and reg.pending is None and copy.names == ["a", "b"]
    assert [e.payload for e in tr.events] == [{"qubit": "a", "basis": "Z"}]
    assert abs(reg.vec[k]) == pytest.approx(1.0)
