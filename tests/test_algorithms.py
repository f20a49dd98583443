import numpy as np
import pytest

from uqres import algorithms as alg
from uqres import circuits as qc
from uqres import interference as itf
from uqres import qkernel as qk
from uqres.interference import Multiplexer
from uqres.qkernel import CapExceededError, InvariantError


def binary_entropy(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def test_sandwich_reduces_to_product_for_classical_mux():
    rng = np.random.default_rng(0)
    for d1 in (2, 3):
        cu = Multiplexer(tuple(np.eye(d1, dtype=complex) for _ in range(d1)))
        v, w = qk.haar_unitary(d1, rng), qk.haar_unitary(d1, rng)
        got = alg.sandwiched_interference(v, cu, w)
        assert got == pytest.approx(itf.interference_power(v @ w), abs=1e-9)


def test_sandwich_reduces_to_mux_average_for_trivial_sides():
    rng = np.random.default_rng(1)
    d1, d2 = 3, 2
    cu = Multiplexer(tuple(qk.haar_unitary(d2, rng) for _ in range(d1)))
    eye = np.eye(d1, dtype=complex)
    got = alg.sandwiched_interference(eye, cu, eye)
    branch_avg = np.mean([itf.interference_power(u) for u in cu.branches])
    assert got == pytest.approx(branch_avg, abs=1e-9)
    assert got == pytest.approx(itf.interference_power(cu.matrix), abs=1e-9)


def test_sandwich_matches_dual_state_route():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        cu = Multiplexer(tuple(qk.haar_unitary(d2, rng) for _ in range(d1)))
        v, w = qk.haar_unitary(d1, rng), qk.haar_unitary(d1, rng)
        direct = alg.sandwiched_interference(v, cu, w)
        assembled = np.kron(v, np.eye(d2)) @ cu.matrix @ np.kron(w, np.eye(d2))
        assert direct == pytest.approx(itf.interference_power(assembled), abs=1e-9)


def test_sandwich_rejects_non_unitary_sides():
    cu = Multiplexer((np.eye(2), qk.X))
    for v, w in ((np.diag([2.0, 1.0]), np.eye(2)), (np.eye(2), np.diag([2.0, 1.0])),
                 (np.eye(3), np.eye(3))):
        with pytest.raises(InvariantError):
            alg.sandwiched_interference(v, cu, w)


def test_rotation_v_coherences():
    for eps in (1e-3, 1e-2, 0.1):
        v = alg.rotation_v(eps)
        assert itf.interference_power(v, "l1") == pytest.approx(
            2 * np.sqrt(eps * (1 - eps)), abs=1e-12)
        assert itf.interference_power(v, "relative_entropy") == pytest.approx(
            binary_entropy(eps), abs=1e-12)
    with pytest.raises(InvariantError):
        alg.rotation_v(0.0)
    with pytest.raises(InvariantError):
        alg.rotation_v(1.0)


def test_one_control_build_final_state():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        u = qk.haar_unitary(2 ** n, rng)
        eps = 0.05
        circuit, state = alg.one_control_build(u, eps)
        expect = np.zeros(2 ** (n + 1), dtype=complex)
        expect[0] = np.sqrt(1 - eps)
        expect[2 ** n:] = np.sqrt(eps) * u[:, 0]
        assert np.abs(state.amplitudes - expect).max() < 1e-10
        # the circuit run on |0>|0..0> reproduces it exactly
        (branch,) = qc.simulate(circuit, qk.zero_state((2, 2 ** n)))
        assert np.abs(branch.state.amplitudes - expect).max() < 1e-10


def test_one_control_trivial_u_gives_plus_control():
    circuit, state = alg.one_control_build(np.eye(2, dtype=complex), 0.5)
    expect = np.zeros(4)
    expect[0] = expect[2] = 2 ** -0.5
    assert np.abs(state.amplitudes - expect).max() < 1e-10


def test_one_control_decomposition_examples():
    # U = H x H: I(U) = 2 so the mux contributes exactly 1.
    u = np.kron(qk.H, qk.H)
    eps = 0.01
    res = alg.one_control_interference_decomposition(u, eps)
    assert res < 1e-9
    whole = Multiplexer((np.eye(4, dtype=complex), u)).matrix @ np.kron(
        alg.rotation_v(eps), np.eye(4))
    assert itf.interference_power(whole) == pytest.approx(
        binary_entropy(eps) + 1.0, abs=1e-9)

    # Pauli-string U: I(U) = 0 so the whole circuit carries only I(V_eps).
    pauli = np.kron(qk.X, qk.Z)
    whole = Multiplexer((np.eye(4, dtype=complex), pauli)).matrix @ np.kron(
        alg.rotation_v(eps), np.eye(4))
    assert itf.interference_power(whole) == pytest.approx(
        binary_entropy(eps), abs=1e-9)


def test_one_control_decomposition_random_suite():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        u = qk.haar_unitary(2 ** n, rng)
        for eps in (1e-3, 1e-2, 0.1):
            worst = max(worst, alg.one_control_interference_decomposition(u, eps))
    assert worst < 1e-9


def test_one_control_past_six_qubits_builds_cu_v_blockwise(monkeypatch):
    # Seven data qubits, one past the data register the toolkit once refused.
    rng = np.random.default_rng(12)
    d, eps = 2 ** 7, 0.05
    u = qk.haar_unitary(d, rng)
    seen = []
    power = itf.interference_power
    monkeypatch.setattr(itf, "interference_power",
                        lambda e, *args: seen.append(e) or power(e, *args))
    report = alg.one_control_report(u, eps)
    kron_route = Multiplexer((np.eye(d, dtype=complex), u)).matrix @ np.kron(
        alg.rotation_v(eps), np.eye(d))
    seen = [e.matrix if isinstance(e, qk.UnitaryOp) else e for e in seen]
    assert any(e.shape == kron_route.shape and np.array_equal(e, kron_route) for e in seen)
    assert report.parameters["data_dim"] == d
    assert report.residuals["additive_decomposition"] < 1e-9
    _, state = alg.one_control_build(u, eps)
    assert np.abs(state.amplitudes[d:] - np.sqrt(eps) * u[:, 0]).max() < 1e-12


def test_one_control_report_checks_u_once(monkeypatch):
    # Eight data dimensions, so U is told apart from V (2 x 2) and CU (V x 1)
    # (16 x 16) by its shape.
    u = qk.haar_unitary(8, np.random.default_rng(13))
    checked = []
    require = qk._require_unitary

    def spy(m, *args):
        checked.append(m.shape)
        return require(m, *args)

    monkeypatch.setattr(qk, "_require_unitary", spy)
    report = alg.one_control_report(u, 0.05)
    assert checked.count((8, 8)) == 1
    assert report.residuals["additive_decomposition"] < 1e-9


def test_one_control_report_checks_no_operator_it_builds(monkeypatch):
    # CU (V x 1) (16 x 16) is built from the checked U (8 x 8) and V (2 x 2),
    # so U is the only operator of more than two rows checked for unitarity.
    u = qk.haar_unitary(8, np.random.default_rng(14))
    checked = []
    require = qk._require_unitary

    def spy(m, *args):
        checked.append(m.shape)
        return require(m, *args)

    monkeypatch.setattr(qk, "_require_unitary", spy)
    alg.one_control_report(u, 0.05)
    assert [shape for shape in checked if shape != (2, 2)] == [(8, 8)]


@pytest.mark.parametrize("route", [
    lambda u: alg.one_control_report(u, 0.05),
    lambda u: alg.one_control_build(u, 0.05),
    lambda u: alg.one_control_interference_decomposition(u, 0.05),
])
@pytest.mark.parametrize("u", [np.diag([1.0, 2.0]), np.ones((2, 3)), np.ones(2)])
def test_one_control_rejects_a_u_that_is_not_a_square_unitary(route, u):
    with pytest.raises(InvariantError):
        route(u)


def test_one_control_entanglement_small_for_small_eps():
    rng = np.random.default_rng(6)
    u = qk.haar_unitary(4, rng)
    _, s_small = alg.one_control_build(u, 1e-3)
    from uqres import measures as ms
    ent = ms.entanglement_entropy(s_small, [0])
    assert ent < 0.02  # sqrt(eps)-level overlap keeps the cut nearly product


def test_lcu_single_term():
    rng = np.random.default_rng(7)
    psi = qk.random_state((2,), rng)
    out, prob = alg.lcu_apply(np.array([1.0]), [qk.X], psi)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert qk.state_fidelity(out, qk.apply_unitary(psi, qk.X)) >= 1 - 1e-12


def test_lcu_hadamard_from_x_plus_z():
    psi = qk.zero_state((2,))
    out, prob = alg.lcu_apply(np.array([1, 1]) / np.sqrt(2), [qk.X, qk.Z], psi)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert qk.state_fidelity(out, qk.apply_unitary(psi, qk.H)) >= 1 - 1e-12


def test_lcu_destructive_interference_rejected():
    psi = qk.zero_state((2,))
    with pytest.raises(InvariantError):
        alg.lcu_apply(np.array([1, -1]) / np.sqrt(2), [np.eye(2), np.eye(2)], psi)


def test_lcu_matches_direct_operator():
    rng = np.random.default_rng(8)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        us = [qk.haar_unitary(4, rng) for _ in range(k)]
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        psi = qk.random_state((2, 2), rng)
        target = sum(ci * (ui @ psi.amplitudes) for ci, ui in zip(c, us))
        nt = np.linalg.norm(target)
        if nt < 1e-6:
            continue
        out, prob = alg.lcu_apply(c, us, psi)
        assert abs(abs(np.vdot(out.amplitudes, target / nt)) - 1) < 1e-10
        lam = np.abs(c).sum()
        assert prob == pytest.approx(nt ** 2 / lam ** 2, abs=1e-10)


def test_grover_exact_for_two_qubits():
    steps = alg.grover_trace(2, marked=3, iterations=1)
    assert steps[0].success_probability == pytest.approx(0.25, abs=1e-12)
    assert steps[1].success_probability == pytest.approx(1.0, abs=1e-12)


def test_grover_closed_form_all_sizes():
    for n in (2, 3, 4, 5, 6):
        steps = alg.grover_trace(n, marked=1, iterations=20)
        for s in steps:
            assert s.success_probability == pytest.approx(s.closed_form, abs=1e-10)


def dense_grover_probabilities(n, marked, iterations):
    """The dense route: oracle and diffusion as d x d matrices, one matvec each per step."""
    d = 2 ** n
    uniform = np.full(d, d ** -0.5, dtype=complex)
    oracle = np.eye(d)
    oracle[marked, marked] = -1
    diffusion = 2 * np.outer(uniform, uniform.conj()) - np.eye(d)
    state, probs = uniform, []
    for _ in range(iterations + 1):
        probs.append(abs(state[marked]) ** 2)
        state = diffusion @ (oracle @ state)
    return np.array(probs)


def test_grover_past_six_qubits_matches_closed_form_and_dense_route():
    # Seven qubits, one past the search register the toolkit once refused.
    n, marked, iterations = 7, 77, 60
    got = np.array([s.success_probability for s in alg.grover_trace(n, marked, iterations)])
    k = np.arange(iterations + 1)
    closed = np.sin((2 * k + 1) * np.arcsin(2 ** (-n / 2))) ** 2
    assert np.abs(got - closed).max() <= 1e-12
    assert np.abs(got - dense_grover_probabilities(n, marked, iterations)).max() <= 1e-12


def test_grover_past_the_dimension_cap_is_refused():
    with pytest.raises(CapExceededError):
        alg.grover_trace(13, 0, 1)           # 8192 > 4096


def test_grover_coherence_profile():
    steps = alg.grover_trace(4, marked=5, iterations=6)
    assert steps[0].coherence_computational == pytest.approx(4.0, abs=1e-9)
    assert all(s.coherence_rotated <= 1.0 + 1e-12 for s in steps)


def test_incoherent_absorption():
    # Pre/post computational permutations leave every interference value fixed.
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        u = qk.haar_unitary(d, rng)
        p = np.eye(d)[:, rng.permutation(d)].astype(complex)
        q = np.eye(d)[:, rng.permutation(d)].astype(complex)
        base = itf.interference_power(u)
        assert abs(itf.interference_power(p @ u) - base) < 1e-12
        assert abs(itf.interference_power(u @ q) - base) < 1e-12
        assert abs(itf.interference_power(p @ u @ q) - base) < 1e-12


def test_report_validation():
    with pytest.raises(InvariantError):
        alg.AlgorithmReport("x", residuals={"bad": -1.0})
    rep = alg.grover_report(2, 0, 2)
    doc = rep.to_dict()
    assert doc["algorithm"] == "amplitude-rotation-search"
    assert len(doc["success_probabilities"]) == 3
