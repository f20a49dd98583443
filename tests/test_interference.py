import numpy as np
import pytest

from uqres import interference as itf
from uqres import qkernel as qk
from uqres.interference import Multiplexer
from uqres.qkernel import HilbertSpec, InvariantError, QuantumChannel


def dephasing_channel(d):
    spec = HilbertSpec((d,))
    return QuantumChannel(spec, spec, tuple(np.diag(row).astype(complex) for row in np.eye(d)))


def test_zero_interference_gates():
    for name in ("X", "Y", "Z", "T", "S", "CX", "CZ", "CCX"):
        for measure in ("l1", "relative_entropy", "log"):
            assert itf.interference_power(qk.GATES[name], measure) == pytest.approx(
                0.0, abs=1e-12), name


def test_hadamard_has_maximal_qubit_interference():
    assert itf.interference_power(qk.H) == pytest.approx(1.0, abs=1e-9)
    assert itf.interference_power(qk.H, "l1") == pytest.approx(1.0, abs=1e-9)
    assert itf.interference_power(qk.H, "log") == pytest.approx(1.0, abs=1e-9)


def test_unitary_interference_equals_column_entropy():
    # Independent column formula for unitaries.
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        u = qk.haar_unitary(d, rng)
        cols = np.abs(u) ** 2
        expect = np.mean([qk.shannon_entropy(cols[:, j]) for j in range(d)])
        assert itf.interference_power(u) == pytest.approx(expect, abs=1e-10)


def test_choi_state_examples():
    # Identity channel -> ebit projector.
    ident = qk.gate("I")
    choi = itf.choi_state(ident)
    ebit = np.zeros(4, dtype=complex)
    ebit[[0, 3]] = 2 ** -0.5
    assert np.abs(choi.state.matrix - np.outer(ebit, ebit.conj())).max() < 1e-12

    # Completely dephasing channel -> maximally classically correlated state.
    deph = dephasing_channel(2)
    md = itf.choi_state(deph)
    expect = np.diag([0.5, 0, 0, 0.5]).astype(complex)
    assert np.abs(md.state.matrix - expect).max() < 1e-12

    # Z channel -> Bell state (|00> - |11>)/sqrt(2).
    zc = itf.choi_state(qk.gate("Z"))
    bell = np.zeros(4, dtype=complex)
    bell[0], bell[3] = 2 ** -0.5, -(2 ** -0.5)
    assert np.abs(zc.state.matrix - np.outer(bell, bell.conj())).max() < 1e-12


def test_classical_dual_examples():
    ident = itf.classical_dual(qk.gate("I"))
    assert np.abs(ident.state.matrix - np.diag([0.5, 0, 0, 0.5])).max() < 1e-12

    had = itf.classical_dual(qk.gate("H"))
    plus = qk.plus_state(2).amplitudes
    minus = plus * np.array([1, -1])
    expect = np.zeros((4, 4), dtype=complex)
    expect[:2, :2] = 0.5 * np.outer(plus, plus.conj())
    expect[2:, 2:] = 0.5 * np.outer(minus, minus.conj())
    assert np.abs(had.state.matrix - expect).max() < 1e-12

    # Any Pauli conjugation channel stays classically correlated.
    for p in (qk.X, qk.Y, qk.Z):
        dual = itf.classical_dual(qk.UnitaryOp(HilbertSpec((2,)), p))
        assert dual.kind == "classical"
        assert itf.dual_state_coherence(dual, "l1") < 1e-12


def test_interference_measured_on_assembled_dual_state():
    # The averaged-column implementation must agree with the measure evaluated
    # directly on the big classical-dual state.
    rng = np.random.default_rng(1)
    for d in (2, 3):
        u = qk.haar_unitary(d, rng)
        dual = itf.classical_dual(qk.UnitaryOp(HilbertSpec((d,)), u))
        for measure in ("l1", "relative_entropy", "log"):
            assert itf.interference_power(u, measure) == pytest.approx(
                itf.dual_state_coherence(dual, measure), abs=1e-9)


def test_interference_of_nonunitary_channel():
    # Dephasing kills all output coherence.
    assert itf.interference_power(dephasing_channel(3)) == pytest.approx(
        0.0, abs=1e-12)


def _random_channel(d, env, rng):
    u = qk.haar_unitary(d * env, rng)
    kraus = tuple(u.reshape(env, d, d * env)[k, :, :d] for k in range(env))
    spec = qk.HilbertSpec((d,))
    return qk.QuantumChannel(spec, spec, kraus)


def test_channel_interference_range_and_duality():
    rng = np.random.default_rng(8)
    for _ in range(5):
        chan = _random_channel(3, 2, rng)
        dual = itf.classical_dual(chan)
        for measure in ("relative_entropy", "log"):
            val = itf.interference_power(chan, measure)
            assert -1e-12 <= val <= np.log2(3) + 1e-12
            assert val == pytest.approx(itf.dual_state_coherence(dual, measure),
                                        abs=1e-9)


def test_controlled_hadamard_relation():
    # I(CU (H x 1)) = 1 + I(CU) for random controlled unitaries.
    rng = np.random.default_rng(2)
    for _ in range(10):
        cu = Multiplexer((qk.haar_unitary(2, rng), qk.haar_unitary(2, rng)))
        lhs = itf.interference_power(cu.matrix @ np.kron(qk.H, np.eye(2)))
        assert lhs == pytest.approx(1.0 + itf.interference_power(cu.matrix), abs=1e-9)


def test_cx_absorbs_control_interference():
    # I(CX (U x 1)) = I(U): the controlled-X adds nothing of its own.
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = qk.haar_unitary(2, rng)
        lhs = itf.interference_power(qk.CX @ np.kron(u, np.eye(2)))
        assert lhs == pytest.approx(itf.interference_power(u), abs=1e-9)


def test_additivity_check_examples():
    # V = H, CU = CX: both sides equal 1.
    cu = Multiplexer((np.eye(2, dtype=complex), qk.X))
    r1, r2 = itf.interference_additivity_check(qk.H, cu)
    assert max(r1, r2) < 1e-12
    assert itf.interference_power(cu.matrix) == pytest.approx(0.0, abs=1e-12)

    # Incoherent permutation control: residual 0 with I(V) = 0.
    r1, r2 = itf.interference_additivity_check(qk.X, cu)
    assert max(r1, r2) < 1e-12


def test_additivity_random_draws():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        cu = Multiplexer(tuple(qk.haar_unitary(d2, rng) for _ in range(d1)))
        v = qk.haar_unitary(d1, rng)
        r1, r2 = itf.interference_additivity_check(v, cu)
        worst = max(worst, r1, r2)
    assert worst < 1e-9


def test_additivity_dimension_mismatch():
    cu = Multiplexer((np.eye(2, dtype=complex), qk.X))
    with pytest.raises(InvariantError):
        itf.interference_additivity_check(np.eye(3, dtype=complex), cu)


def test_tensor_additivity_of_dual_measures():
    rng = np.random.default_rng(4)
    for _ in range(10):
        u1 = qk.haar_unitary(2, rng)
        u2 = qk.haar_unitary(3, rng)
        joint = np.kron(u1, u2)
        for measure in ("log", "relative_entropy"):
            assert itf.interference_power(joint, measure) == pytest.approx(
                itf.interference_power(u1, measure)
                + itf.interference_power(u2, measure), abs=1e-9)


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        u = qk.haar_unitary(d, rng)
        perm = np.eye(d)[:, rng.permutation(d)].astype(complex)
        for measure in ("l1", "relative_entropy", "log"):
            assert abs(itf.interference_power(u @ perm, measure)
                       - itf.interference_power(u, measure)) < 1e-12


def test_interference_range_bound():
    rng = np.random.default_rng(6)
    for d in (2, 3, 4):
        for _ in range(5):
            u = qk.haar_unitary(d, rng)
            for measure in ("relative_entropy", "log"):
                val = itf.interference_power(u, measure)
                assert -1e-12 <= val <= np.log2(d) + 1e-12


def test_classical_dual_invariants():
    dual = itf.classical_dual(qk.gate("H"))
    d1, _ = dual.state.spec.dims
    control = qk.partial_trace(dual.state, [0])
    assert np.abs(control.matrix - np.eye(d1) / d1).max() < 1e-10


def test_multiplexer_shape_validation():
    with pytest.raises(InvariantError):
        Multiplexer((np.eye(2), np.eye(3)))
    with pytest.raises(InvariantError):
        Multiplexer((np.array([[1, 1], [0, 1]]),))
    cu = Multiplexer((np.eye(2, dtype=complex), qk.Z))
    assert np.allclose(cu.matrix, qk.CZ)
