import json

import numpy as np
import pytest

from uqres import circuits as qc
from uqres import interference as itf
from uqres import protocols as pr
from uqres import qkernel as qk
from uqres.circuits import Circuit, Cond, Discard, Gate, Measure, Mux
from uqres.qkernel import CapExceededError, HilbertSpec, InvariantError

from embedding import embed_operator


def with_ancilla(psi, anc_dim=2):
    return qk.tensor(psi, qk.zero_state((anc_dim,)))


def choi_fidelity(channel, ideal_gate):
    got = itf.choi_state(channel).state.matrix
    want = itf.choi_state(ideal_gate).state.matrix
    return float(np.trace(got @ want).real)  # ideal Choi state is pure


def test_empty_circuit_single_branch():
    c = Circuit(HilbertSpec((2,)), ())
    psi = qk.plus_state(2)
    branches = qc.simulate(c, psi)
    assert len(branches) == 1
    assert branches[0].probability == pytest.approx(1.0)
    assert np.allclose(branches[0].state.amplitudes, psi.amplitudes)


def test_measure_plus_state():
    c = Circuit(HilbertSpec((2,)), (Measure(0, "Z", "m"),))
    branches = qc.simulate(c, qk.plus_state(2))
    assert len(branches) == 2
    for b in branches:
        assert b.probability == pytest.approx(0.5, abs=1e-12)
    assert {b.outcomes["m"] for b in branches} == {0, 1}


def test_bell_pair_correlated_outcomes():
    c = Circuit(HilbertSpec((2, 2)), (
        Gate(qk.H, (0,)),
        Gate(qk.CX, (0, 1)),
        Measure(0, "Z", "m0"),
        Measure(1, "Z", "m1"),
    ))
    branches = qc.simulate(c, qk.zero_state((2, 2)))
    assert len(branches) == 2
    for b in branches:
        assert b.outcomes["m0"] == b.outcomes["m1"]
        assert b.probability == pytest.approx(0.5, abs=1e-12)


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    c = Circuit(HilbertSpec((2, 2)), (
        Gate(qk.haar_unitary(4, rng), (0, 1)),
        Measure(0, "X", "a"),
        Measure(1, "Y", "b"),
    ))
    branches = qc.simulate(c, qk.random_state((2, 2), rng))
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)


def test_h_teleportation_deterministic():
    circ = qc.h_teleportation()
    rng = np.random.default_rng(1)
    inputs = [with_ancilla(qk.random_state((2,), rng)) for _ in range(10)]
    ok, worst = qc.is_deterministic(circ, inputs)
    assert ok and worst < 1e-9

    psi = qk.random_state((2,), rng)
    target = qk.apply_unitary(psi, qk.H)
    for b in qc.simulate(circ, with_ancilla(psi)):
        assert qk.state_fidelity(b.state, target) == pytest.approx(1.0, abs=1e-10)
        assert b.probability == pytest.approx(0.5, abs=1e-9)


def test_t_injection_deterministic():
    circ = qc.t_injection()
    rng = np.random.default_rng(2)
    inputs = [with_ancilla(qk.random_state((2,), rng)) for _ in range(10)]
    ok, worst = qc.is_deterministic(circ, inputs)
    assert ok and worst < 1e-9

    psi = qk.random_state((2,), rng)
    target = qk.apply_unitary(psi, qk.T)
    for b in qc.simulate(circ, with_ancilla(psi)):
        assert qk.state_fidelity(b.state, target) == pytest.approx(1.0, abs=1e-10)
        assert b.probability == pytest.approx(0.5, abs=1e-9)


def test_teleportation_probabilities_input_independent():
    rng = np.random.default_rng(3)
    for circ in (qc.h_teleportation(), qc.t_injection()):
        for _ in range(5):
            branches = qc.simulate(circ, with_ancilla(qk.random_state((2,), rng)))
            assert [round(b.probability, 9) for b in branches] == [0.5, 0.5]


def test_branch_averaged_channels_match_gates():
    h_chan = qc.induced_channel(qc.h_teleportation(), [0], fixed={1: 0})
    assert choi_fidelity(h_chan, qk.gate("H")) >= 1 - 1e-9
    t_chan = qc.induced_channel(qc.t_injection(), [0], fixed={1: 0})
    assert choi_fidelity(t_chan, qk.gate("T")) >= 1 - 1e-9


# The cluster-row pattern is a Circuit, so every circuit tool reads it -------

MBQC_ANGLES = [[0.3], [0.3, 1.1], [2.0, 0.7, 5.1], [1.3, 4.4, 0.2, 3.3, 6.0]]


def with_row(psi, n):
    return qk.tensor(psi, qk.zero_state((2,) * n))


@pytest.mark.parametrize("angles", MBQC_ANGLES)
def test_mbqc_pattern_channel_is_its_target_gate(angles):
    chan = qc.induced_channel(qc.mbqc_pattern(angles), [0])
    assert len(chan.kraus) == 2 ** len(angles)
    got = itf.choi_state(chan).state.matrix
    want = itf.choi_state(pr.mbqc_target(angles)).state.matrix
    assert np.abs(got - want).max() <= 1e-10


@pytest.mark.parametrize("angles", MBQC_ANGLES)
def test_adaptive_mbqc_pattern_is_deterministic(angles):
    rng = np.random.default_rng(len(angles))
    inputs = [with_row(qk.random_state((2,), rng), len(angles)) for _ in range(5)]
    ok, worst = qc.is_deterministic(qc.mbqc_pattern(angles), inputs)
    assert ok and worst < 1e-12


def test_non_adaptive_mbqc_pattern_is_not_deterministic():
    angles = [np.pi / 4, np.pi / 4]
    rng = np.random.default_rng(8)
    inputs = [with_row(qk.random_state((2,), rng), 2) for _ in range(5)]
    ok, worst = qc.is_deterministic(qc.mbqc_pattern(angles, adaptive=False), inputs)
    assert not ok and worst > 0.1


def test_mbqc_pattern_is_not_a_free_circuit():
    assert not qc.free_circuit_check(qc.mbqc_pattern([0.3]))


def test_encrypted_t_injection_all_keys():
    rng = np.random.default_rng(4)
    for a in (0, 1):
        for b in (0, 1):
            circ = qc.encrypted_t_injection((a, b))
            psi = qk.random_state((2,), rng)
            pad = (np.linalg.matrix_power(qk.X, a)
                   @ np.linalg.matrix_power(qk.Z, b))
            enc = qk.apply_unitary(psi, pad)
            target = qk.apply_unitary(psi, qk.T)
            for br in qc.simulate(circ, with_ancilla(enc)):
                assert qk.state_fidelity(br.state, target) == pytest.approx(
                    1.0, abs=1e-10)


def test_contextual_builders_realize_their_gates():
    rng = np.random.default_rng(5)
    cases = [(qc.contextual_h(), qk.H), (qc.contextual_t(), qk.T),
             (qc.contextual_cz(), qk.CZ)]
    for circ, gate in cases:
        d1, d2 = circ.wires.dims
        for _ in range(5):
            psi = qk.random_state((d2,), rng)
            target = qk.StateVector(psi.spec, gate @ psi.amplitudes)
            branches = qc.simulate(circ, qk.tensor(qk.zero_state((d1,)), psi))
            for b in branches:
                assert qk.state_fidelity(b.state, target) == pytest.approx(
                    1.0, abs=1e-9)
        chan = qc.induced_channel(circ, [1], fixed={0: 0})
        assert choi_fidelity(chan, qk.UnitaryOp(HilbertSpec((d2,)), gate)) >= 1 - 1e-9


def test_classical_mux_contextual_circuit_is_identity():
    # All multiplexer branches trivial: data passes through on every branch.
    cu = itf.Multiplexer((np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
    circ = qc.contextual_circuit(qk.H, cu, qk.H, [np.eye(2)] * 2)
    rng = np.random.default_rng(6)
    for _ in range(5):
        psi = qk.random_state((2,), rng)
        for b in qc.simulate(circ, qk.tensor(qk.zero_state((2,)), psi)):
            assert qk.state_fidelity(b.state, psi) == pytest.approx(1.0, abs=1e-10)


def test_is_deterministic_negative_case():
    c = Circuit(HilbertSpec((2,)), (Measure(0, "Z", "m"),))
    ok, worst = qc.is_deterministic(c, [qk.plus_state(2)])
    assert not ok and worst > 0.9


def test_lcu_circuit_single_surviving_branch():
    circ = qc.lcu_circuit(np.array([1, 1]) / np.sqrt(2), (qk.Z, qk.X))
    psi = qk.zero_state((2,))
    ok, _ = qc.is_deterministic(circ, [qk.tensor(qk.zero_state((2,)), psi)],
                                keep=lambda rec: rec["anc"] == 0)
    assert ok
    branches = qc.simulate(circ, qk.tensor(qk.zero_state((2,)), psi))
    success = [b for b in branches if b.outcomes["anc"] == 0]
    assert len(success) == 1
    assert success[0].probability == pytest.approx(0.5, abs=1e-9)
    target = qk.apply_unitary(psi, qk.H)
    assert qk.state_fidelity(success[0].state, target) == pytest.approx(1.0, abs=1e-9)


def test_free_circuit_check():
    free = Circuit(HilbertSpec((2, 2, 2)), (
        Gate(qk.T, (0,)),
        Gate(qk.CX, (0, 1)),
        Gate(qk.CCX, (0, 1, 2)),
        Gate(qk.CZ, (1, 2)),
        Gate(qk.S, (2,)),
        Measure(0, "Z", "m"),
        Cond({"m": 1}, Gate(qk.X, (1,))),
    ))
    assert qc.free_circuit_check(free)

    with_h = Circuit(HilbertSpec((2,)), (Gate(qk.H, (0,)),))
    assert not qc.free_circuit_check(with_h)

    with_mx = Circuit(HilbertSpec((2,)), (Measure(0, "X", "m"),))
    assert not qc.free_circuit_check(with_mx)

    assert qc.free_circuit_check(Circuit(HilbertSpec((2,)), ()))


def test_free_circuits_preserve_basis_states():
    # Five wires, all basis inputs, every branch stays a basis state.
    rng = np.random.default_rng(7)
    diag = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=4)))
    circ = Circuit(HilbertSpec((2,) * 5), (
        Gate(qk.T, (0,)),
        Gate(qk.CX, (1, 2)),
        Gate(qk.CCX, (0, 3, 4)),
        Gate(diag, (2, 3)),
        Gate(qk.CZ, (3, 4)),
        Measure(1, "Z", "m"),
        Cond({"m": 1}, Gate(qk.X, (2,))),
    ))
    assert qc.free_circuit_check(circ)
    spec = HilbertSpec((2,) * 5)
    for idx in range(32):
        for b in qc.simulate(circ, qk.basis_state(spec, idx)):
            probs = b.state.probabilities()
            assert probs.max() == pytest.approx(1.0, abs=1e-10)


def test_branch_kraus_completeness():
    circ = qc.t_injection()
    ks = [k for _, k in qc.branch_kraus(circ)]
    acc = sum(k.conj().T @ k for k in ks)
    assert np.abs(acc - np.eye(4)).max() < 1e-10


def test_branch_kraus_agrees_with_simulation():
    # Dual route: the per-branch Kraus operators applied to a fixed input must
    # reproduce the simulator's branch probabilities and post-states.
    rng = np.random.default_rng(11)
    circ = qc.Circuit(HilbertSpec((2, 2)), (
        Gate(qk.haar_unitary(4, rng), (0, 1)),
        Measure(0, "X", "a"),
        Cond({"a": 1}, Gate(qk.Z, (1,))),
        Discard(0),
    ))
    psi = qk.random_state((2, 2), rng)
    sim = {tuple(sorted(b.outcomes.items())): b for b in qc.simulate(circ, psi)}
    for rec, k in qc.branch_kraus(circ):
        v = k @ psi.amplitudes
        p = float(np.vdot(v, v).real)
        b = sim[tuple(sorted(rec.items()))]
        assert p == pytest.approx(b.probability, abs=1e-12)
        a = v / np.sqrt(p)
        overlap = abs(np.vdot(a, b.state.amplitudes))
        assert abs(overlap / (np.linalg.norm(a) * np.linalg.norm(b.state.amplitudes)) - 1) <= 1e-10


def test_circuit_validation_errors():
    spec = HilbertSpec((2, 2))
    with pytest.raises(InvariantError):
        Circuit(spec, (Gate(qk.H, (5,)),))
    with pytest.raises(InvariantError):
        Circuit(spec, (Mux(0, (np.eye(2),), (1,)),))      # branch count != dim
    with pytest.raises(InvariantError):
        Circuit(spec, (Cond({"m": 1}, Gate(qk.X, (0,))),))  # undefined name
    with pytest.raises(InvariantError):
        Circuit(spec, (Discard(0),))                       # discard before measure
    with pytest.raises(InvariantError):
        Circuit(spec, (Measure(0, "Z", "m"), Gate(qk.H, (0,))))  # reuse after measure


def test_measurement_basis_is_checked_when_built(tmp_path):
    from uqres import cli

    for basis in ("X", "Y", qk.H):                             # qubit bases on a qutrit
        with pytest.raises(InvariantError):
            Circuit(HilbertSpec((3,)), (Measure(0, basis, "m"),))
    with pytest.raises(InvariantError):
        Measure(0, np.diag([2.0, 1.0]), "m")                   # not unitary
    eye3 = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
    doc = {"wires": [2], "ops": [{"type": "measure", "wire": 0, "out": "m", "basis": eye3}]}
    with pytest.raises(InvariantError):
        qc.circuit_from_json(doc)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["circuit", "--in", str(path)]) == cli.EXIT_INVARIANT


def test_branch_cap():
    ins = tuple(Measure(w, "Z", f"m{w}") for w in range(5))
    circ = Circuit(HilbertSpec((2,) * 5), ins)
    state = qk.random_state((2,) * 5, np.random.default_rng(8))
    with pytest.raises(CapExceededError):
        qc.simulate(circ, state, branch_cap=8)


def test_json_round_trip():
    circ = Circuit(HilbertSpec((2, 2)), (
        Gate(qk.H, (0,), name="H"),
        Mux(0, (np.eye(2, dtype=complex), qk.X), (1,)),
        Gate(qk.haar_unitary(2, np.random.default_rng(9)), (0,)),
        Measure(0, "Z", "m"),
        Cond({"m": 1}, Gate(qk.Z, (1,))),
        Discard(0),
    ))
    doc = qc.circuit_to_json(circ)
    back = qc.circuit_from_json(doc)
    rng = np.random.default_rng(10)
    psi = qk.random_state((2, 2), rng)
    b1 = qc.simulate(circ, psi)
    b2 = qc.simulate(back, psi)
    assert len(b1) == len(b2)
    for x, y in zip(b1, b2):
        assert x.outcomes == y.outcomes
        assert x.probability == pytest.approx(y.probability, abs=1e-12)
        assert np.abs(x.state.amplitudes - y.state.amplitudes).max() < 1e-12


# ---------------------------------------------------------------------------
# The one walk against full-space operators built by the embedding oracle
# ---------------------------------------------------------------------------

def embedded_branch_kraus(circuit):
    """Oracle: per-branch Kraus operators from full-space embedded operators.

    Projectors act on the whole space and discarded wires are contracted at
    the end; branches whose operator has no entry above 1e-12 are dropped.
    """
    dims = circuit.wires.dims
    total = int(np.prod(dims))
    branches = [({}, np.eye(total, dtype=complex))]
    bases = {}

    def lift(op, wires):
        return embed_operator(op, wires, dims)

    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            g = lift(ins.matrix, ins.wires)
            branches = [(rec, g @ k) for rec, k in branches]
        elif isinstance(ins, Mux):
            g = lift(ins.multiplexer.matrix, (ins.control,) + ins.targets)
            branches = [(rec, g @ k) for rec, k in branches]
        elif isinstance(ins, Measure):
            b = (qk._named_basis(ins.basis, dims[ins.wire]) if isinstance(ins.basis, str)
                 else ins.basis)
            bases[ins.wire] = (b, ins.out)
            new = []
            for rec, k in branches:
                for out in range(dims[ins.wire]):
                    kk = lift(np.outer(b[:, out], b[:, out].conj()), [ins.wire]) @ k
                    if np.abs(kk).max() > 1e-12:
                        new.append(({**rec, ins.out: out}, kk))
            branches = new
        elif isinstance(ins, Cond):
            g = lift(ins.gate.matrix, ins.gate.wires)
            branches = [(rec, g @ k if all(rec.get(n) == v for n, v in ins.when.items()) else k)
                        for rec, k in branches]
    discarded = sorted((i.wire for i in circuit.instructions if isinstance(i, Discard)),
                       reverse=True)
    out = []
    for rec, k in branches:
        mat = k.reshape(dims + (total,))
        for w in discarded:
            b, name = bases[w]
            mat = np.tensordot(b[:, rec[name]].conj(), mat, axes=([0], [w]))
        out.append((rec, mat.reshape(-1, total)))
    return out


def embedded_unitary(circuit):
    dims = circuit.wires.dims
    u = np.eye(circuit.wires.total_dim, dtype=complex)
    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            u = embed_operator(ins.matrix, ins.wires, dims) @ u
        else:
            u = embed_operator(ins.multiplexer.matrix, (ins.control,) + ins.targets,
                               dims) @ u
    return u


def random_circuit(seed, unitary_only=False):
    """2-4 wires with one qutrit; a Mux, a two-wire gate, then (unless
    ``unitary_only``) two measurements with conditioned gates, each measured
    wire discarded or kept according to the seed."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    dims = [2] * n
    dims[int(rng.integers(n))] = 3
    order = [int(w) for w in rng.permutation(n)]
    ins = [Gate(qk.haar_unitary(d, rng), (w,)) for w, d in enumerate(dims)]
    ctrl, tgt = order[0], order[1]
    ins.append(Mux(ctrl, tuple(qk.haar_unitary(dims[tgt], rng) for _ in range(dims[ctrl])),
                   (tgt,)))
    pair = tuple(int(w) for w in rng.choice(n, size=2, replace=False))
    ins.append(Gate(qk.haar_unitary(dims[pair[0]] * dims[pair[1]], rng), pair))
    if unitary_only:
        return Circuit(HilbertSpec(tuple(dims)), tuple(ins))
    kinds = ("Z", "X", "Y", "custom")
    measured = order[:2] if n > 2 else order[:1]
    for j, w in enumerate(measured):
        kind = kinds[(seed + j) % 4]
        if kind == "custom" or dims[w] != 2:
            basis = qk.haar_unitary(dims[w], rng)
        else:
            basis = kind
        ins.append(Measure(w, basis, f"m{j}"))
        others = [v for v in range(n) if v not in measured[:j + 1]]
        v = others[int(rng.integers(len(others)))]
        ins.append(Cond({f"m{j}": int(rng.integers(dims[w]))},
                        Gate(qk.haar_unitary(dims[v], rng), (v,))))
    for j, w in enumerate(measured):
        if (seed >> j) & 1:
            ins.append(Discard(w))
    return Circuit(HilbertSpec(tuple(dims)), tuple(ins))


def record_key(rec):
    return tuple(sorted(rec.items()))


@pytest.mark.parametrize("seed", range(24))
def test_branch_kraus_matches_embedded_oracle(seed):
    circ = random_circuit(seed)
    got = qc.branch_kraus(circ)
    want = embedded_branch_kraus(circ)
    assert [record_key(r) for r, _ in got] == [record_key(r) for r, _ in want]
    for (_, k), (_, ref) in zip(got, want):
        assert k.shape == ref.shape
        assert np.abs(k - ref).max() <= 1e-12


@pytest.mark.parametrize("seed", range(24))
def test_induced_channel_and_simulate_match_embedded_oracle(seed):
    circ = random_circuit(seed)
    dims = circ.wires.dims
    want = embedded_branch_kraus(circ)
    rng = np.random.default_rng(100 + seed)

    psi = qk.random_state(dims, rng)
    sim = qc.simulate(circ, psi)
    kept = [(rec, k @ psi.amplitudes) for rec, k in want]
    kept = [(rec, v) for rec, v in kept if np.vdot(v, v).real > 1e-14]
    assert [record_key(b.outcomes) for b in sim] == [record_key(r) for r, _ in kept]
    for b, (_, v) in zip(sim, kept):
        p = float(np.vdot(v, v).real)
        assert abs(b.probability - p) <= 1e-14
        assert np.abs(b.state.amplitudes - v / np.sqrt(p)).max() <= 1e-12

    inputs = [int(w) for w in rng.choice(len(dims), size=1 + seed % 2, replace=False)]
    fixed = {w: int(rng.integers(dims[w])) for w in range(len(dims)) if w not in inputs}
    chan = qc.induced_channel(circ, inputs, fixed)
    d_in = chan.in_spec.total_dim
    inj = np.zeros((circ.wires.total_dim, d_in), dtype=complex)
    for idx, digits in enumerate(np.ndindex(*(dims[w] for w in inputs))):
        full = [fixed.get(w, 0) for w in range(len(dims))]
        for w, v in zip(inputs, digits):
            full[w] = v
        inj[np.ravel_multi_index(full, dims), idx] = 1
    ref = [k @ inj for _, k in want]
    assert len(chan.kraus) == len(ref)
    for k, r in zip(chan.kraus, ref):
        assert np.abs(k - r).max() <= 1e-12


def test_induced_channel_drops_branches_that_vanish_on_the_inputs():
    # The fixed wire is measured in Z untouched, so outcome 1 never occurs:
    # the full-space operator of that branch is nonzero, its injected columns
    # are zero, and the walk over the injected columns does not keep it.
    circ = Circuit(HilbertSpec((2, 2)), (
        Gate(qk.H, (0,)),
        Measure(1, "Z", "f"),
        Cond({"f": 1}, Gate(qk.X, (0,))),
        Discard(1),
    ))
    ((_, k0), (_, k1)) = embedded_branch_kraus(circ)
    chan = qc.induced_channel(circ, [0], fixed={1: 0})
    assert len(chan.kraus) == 1
    assert np.abs(chan.kraus[0] - k0[:, [0, 2]]).max() <= 1e-12
    assert np.abs(k1[:, [0, 2]]).max() == 0


@pytest.mark.parametrize("seed", range(12))
def test_circuit_unitary_matches_embedded_fold(seed):
    circ = random_circuit(seed, unitary_only=True)
    assert np.abs(qc.circuit_unitary(circ) - embedded_unitary(circ)).max() <= 1e-12


def test_circuit_unitary_rejects_measurements():
    with pytest.raises(InvariantError):
        qc.circuit_unitary(Circuit(HilbertSpec((2,)), (Measure(0, "Z", "m"),)))


@pytest.mark.parametrize("batch", [(1,), (5,), (2, 3)])
def test_batched_apply_on_wires_matches_per_column_loop(batch):
    rng = np.random.default_rng(sum(batch))
    dims = (2, 3, 2, 2)
    for wires in ([1], [3, 0], [2, 1, 0]):
        d_sub = int(np.prod([dims[w] for w in wires]))
        m = qk.haar_unitary(d_sub, rng)
        shape = (int(np.prod(dims)),) + batch
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = qk.apply_on_wires(amps, m, wires, dims)
        assert got.shape == amps.shape
        for col in np.ndindex(*batch):
            want = qk.apply_on_wires(amps[(slice(None),) + col], m, wires, dims)
            assert np.abs(got[(slice(None),) + col] - want).max() <= 1e-14


def test_no_full_space_operator_in_walks_and_wire_local_callers(tmp_path, capsys):
    # No module of the package can build an embedded full-space operator;
    # the calls below are a smoke test of the wire-local callers.
    import uqres
    from uqres import cli, mps
    from uqres import protocols as pr

    for name in uqres.__all__:
        assert not hasattr(getattr(uqres, name), "embed_operator"), name
    circ = random_circuit(5)
    qc.simulate(circ, qk.random_state(circ.wires.dims, np.random.default_rng(0)))
    qc.branch_kraus(circ)
    qc.induced_channel(qc.contextual_cz(), [1], fixed={0: 0})
    path = tmp_path / "u.json"
    path.write_text(json.dumps(qc.circuit_to_json(random_circuit(3, unitary_only=True))),
                    encoding="utf-8")
    assert cli.main(["interference", "--in", str(path)]) == 0
    capsys.readouterr()
    g = mps.line_graph(4)
    mps.graph_stabilizer_expectations(g, mps.cluster_state(g))
    pr.enumerate_runs(lambda src: pr.pmqc_run(qk.zero_state((2,)), (("H", "T"),),
                                              source=src))
