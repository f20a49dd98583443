import numpy as np
import pytest

from uqres import qkernel as qk
from uqres.qkernel import (CapExceededError, DensityOperator, HilbertSpec,
                           InvariantError, QuantumChannel, StateVector)

from embedding import embed_operator


def dephasing_channel(d):
    spec = HilbertSpec((d,))
    return QuantumChannel(spec, spec, tuple(np.diag(row).astype(complex) for row in np.eye(d)))


def binary_entropy(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def test_gate_matrices_match_textbook():
    tau = np.exp(1j * np.pi / 8)
    assert np.allclose(qk.H, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    assert np.allclose(qk.T, np.diag([tau, tau.conjugate()]))
    assert np.allclose(qk.S, np.diag([1, 1j]))
    assert np.allclose(qk.CX @ qk.CX, np.eye(4))
    assert np.allclose(qk.CZ, np.diag([1, 1, 1, -1]))
    assert np.allclose(qk.SWAP @ qk.SWAP, np.eye(4))
    # CCX flips the target only on control 11
    basis = qk.zero_state((2, 2, 2)).amplitudes
    assert np.allclose(qk.CCX @ basis, basis)
    v110 = np.zeros(8)
    v110[6] = 1
    assert np.argmax(np.abs(qk.CCX @ v110)) == 7


def test_named_gate_constructor():
    g = qk.gate("H")
    assert g.name == "H" and g.spec.dims == (2,)
    with pytest.raises(InvariantError):
        qk.gate("NOPE")


def test_tensor_basis_composition():
    zero = qk.zero_state((2,))
    both = qk.tensor(zero, zero)
    assert both.spec.dims == (2, 2)
    assert both.amplitudes[0] == 1

    flipped = qk.apply_unitary(both, np.kron(qk.X, qk.I2))
    assert abs(flipped.amplitudes[2] - 1) < 1e-12  # |10>

    plus2 = qk.tensor(qk.plus_state(2), qk.plus_state(2))
    assert np.allclose(plus2.amplitudes, 0.5)


def test_tensor_kind_mismatch():
    with pytest.raises(InvariantError):
        qk.tensor(qk.zero_state((2,)), qk.maximally_mixed(2))


def test_partial_trace_of_ebit_is_maximally_mixed():
    amps = np.zeros(4, dtype=complex)
    amps[[0, 3]] = 2 ** -0.5
    ebit = StateVector(HilbertSpec((2, 2)), amps)
    reduced = qk.partial_trace(ebit.density(), [0])
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(0)
    rho_a = qk.random_density(2, rng)
    rho_b = qk.random_density(3, rng)
    joint = qk.tensor(rho_a, rho_b)
    back = qk.partial_trace(joint, [0])
    assert np.abs(back.matrix - rho_a.matrix).max() < 1e-12


def test_partial_trace_matches_schmidt_oracle():
    # Independent oracle: squared Schmidt coefficients from the SVD of the
    # amplitude matrix.
    rng = np.random.default_rng(1)
    psi = qk.random_state((2, 2), rng)
    svals = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)
    reduced = qk.partial_trace(psi.density(), [0])
    eig = np.sort(np.linalg.eigvalsh(reduced.matrix))
    assert np.allclose(np.sort(svals ** 2), eig, atol=1e-10)


def test_partial_trace_empty_keep_rejected():
    with pytest.raises(InvariantError):
        qk.partial_trace(qk.maximally_mixed(2), [])


def test_entropy_values():
    pure = qk.zero_state((2,)).density()
    assert qk.von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert qk.von_neumann_entropy(qk.maximally_mixed(2)) == pytest.approx(1.0, abs=1e-12)
    rho = DensityOperator(HilbertSpec((2,)), np.diag([0.75, 0.25]))
    assert qk.von_neumann_entropy(rho) == pytest.approx(binary_entropy(0.25), abs=1e-12)
    assert qk.von_neumann_entropy(rho) == pytest.approx(0.811278, abs=1e-6)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = qk.random_density(4, rng)
        u = qk.haar_unitary(4, rng)
        rotated = qk.apply_unitary(rho, u)
        assert abs(qk.von_neumann_entropy(rotated)
                   - qk.von_neumann_entropy(rho)) < 1e-9


def test_apply_channel_examples():
    rng = np.random.default_rng(3)
    rho = qk.random_density(2, rng)
    ident = QuantumChannel(HilbertSpec((2,)), HilbertSpec((2,)), (np.eye(2),))
    assert np.abs(qk.apply_channel(ident, rho).matrix - rho.matrix).max() < 1e-12

    deph = dephasing_channel(2)
    plus = qk.plus_state(2).density()
    assert np.allclose(qk.apply_channel(deph, plus).matrix, np.eye(2) / 2, atol=1e-12)

    u = qk.haar_unitary(2, rng)
    uchan = QuantumChannel(HilbertSpec((2,)), HilbertSpec((2,)), (u,))
    assert np.abs(qk.apply_channel(uchan, rho).matrix
                  - u @ rho.matrix @ u.conj().T).max() < 1e-12


def test_apply_channel_spec_mismatch():
    deph = dephasing_channel(2)
    with pytest.raises(InvariantError):
        qk.apply_channel(deph, qk.maximally_mixed(3))


def test_channel_preserves_trace():
    rng = np.random.default_rng(4)
    # Random CPTP map from a Haar isometry.
    d, env = 3, 2
    u = qk.haar_unitary(d * env, rng)
    kraus = tuple(u.reshape(env, d, d * env)[k, :, :d] for k in range(env))
    chan = QuantumChannel(HilbertSpec((d,)), HilbertSpec((d,)), kraus)
    for _ in range(5):
        rho = qk.random_density(d, rng)
        out = qk.apply_channel(chan, rho)
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-10


def test_invariant_rejections():
    spec = HilbertSpec((2,))
    with pytest.raises(InvariantError):
        StateVector(spec, np.array([1.0, 1.0]))           # not normalized
    with pytest.raises(InvariantError):
        DensityOperator(spec, np.array([[1, 1], [0, 0]]))  # not Hermitian
    with pytest.raises(InvariantError):
        DensityOperator(spec, np.array([[2, 0], [0, -1]]))  # trace/PSD
    with pytest.raises(InvariantError):
        qk.UnitaryOp(spec, np.array([[1, 1], [0, 1]]))
    with pytest.raises(InvariantError):
        QuantumChannel(spec, spec, (np.eye(2) * 0.5,))


def test_dimension_cap():
    with pytest.raises(CapExceededError):
        HilbertSpec((2,) * 13)
    # Raising the cap admits the same shape.
    assert HilbertSpec((2,) * 13, cap=10000).total_dim == 8192


def test_dimension_cap_does_not_wrap_around():
    # 2^32 * 2^32 is 0 in int64 arithmetic; the product is exact.
    with pytest.raises(CapExceededError):
        HilbertSpec((2 ** 32, 2 ** 32))


def test_immutability():
    psi = qk.plus_state(2)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0


def test_embed_operator_permutes_wires():
    # CX with control on wire 1, target on wire 0 inside a 3-qubit register.
    dims = (2, 2, 2)
    full = embed_operator(qk.CX, [1, 0], dims)
    amps = np.zeros(8)
    amps[2] = 1  # |010>: control wire 1 is set
    out = full @ amps
    assert abs(out[6] - 1) < 1e-12  # -> |110>
    assert np.array_equal(qk.apply_on_wires(amps.astype(complex), qk.CX, [1, 0], dims), out)


def test_apply_on_wires_matches_embedded_operator():
    # The in-place kernel and the explicit embedding must agree on random
    # operators, wire subsets and wire orders (including reversed ones).
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 4, size=n))
        k = int(rng.integers(1, min(n, 3) + 1))
        wires = list(rng.permutation(n)[:k])
        d_sub = int(np.prod([dims[w] for w in wires]))
        m = qk.haar_unitary(d_sub, rng)
        amps = qk.random_state(dims, rng).amplitudes
        fast = qk.apply_on_wires(amps, m, wires, dims)
        slow = embed_operator(m, wires, dims) @ amps
        assert np.abs(fast - slow).max() < 1e-12


def test_expm_hermitian_matches_series():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((4, 4))
    h = h + h.T
    u = qk.expm_hermitian(h, 0.3)
    # Oracle: scipy's general-purpose Pade expm.
    from scipy.linalg import expm
    assert np.abs(u - expm(0.3j * h)).max() < 1e-10
