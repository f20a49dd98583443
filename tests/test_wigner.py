import numpy as np
import pytest

from uqres import measures as ms
from uqres import qkernel as qk
from uqres import wigner as wg
from uqres.qkernel import HilbertSpec, InvariantError

import wigner_oracle


def test_odd_prime_check():
    assert wg.is_odd_prime(3) and wg.is_odd_prime(5) and wg.is_odd_prime(7)
    for bad in (1, 2, 4, 6, 9, 15):
        assert not wg.is_odd_prime(bad)
    with pytest.raises(InvariantError):
        wg.wigner_function(qk.maximally_mixed(4), 4)


def test_phase_point_operators_structure():
    for d in (3, 5):
        ops = wigner_oracle.phase_point_operators(d)
        assert len(ops) == d * d
        for a in ops:
            assert np.abs(a - a.conj().T).max() < 1e-12       # Hermitian
            assert abs(np.trace(a) - 1) < 1e-12               # unit trace
        # A_0 is the parity operator |j> -> |-j>
        parity = np.zeros((d, d))
        for j in range(d):
            parity[(-j) % d, j] = 1
        assert np.abs(ops[0] - parity).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7, 13, 31])
def test_closed_form_matches_phase_point_oracle(d):
    rng = np.random.default_rng(d)
    rho = qk.random_density(d, rng)
    psi = qk.random_state((d,), rng)
    assert np.abs(wg.wigner_function(rho, d).values
                  - wigner_oracle.wigner_values(rho.matrix)).max() <= 1e-14
    assert np.abs(wg.wigner_function(psi, d).values
                  - wigner_oracle.wigner_values(psi.density().matrix)).max() <= 1e-14


def test_weyl_operator_matches_matrix_power_oracle():
    d = 5
    for q in range(d):
        for p in range(d):
            assert np.abs(wg.weyl_operator(d, q, p)
                          - wigner_oracle.weyl_operator(d, q, p)).max() <= 1e-14


def test_pure_state_table_builds_no_density_matrix(monkeypatch):
    psi = qk.random_state((7,), np.random.default_rng(6))
    expected = wg.wigner_function(psi.density(), 7).values

    def refuse(self):
        raise AssertionError("pure-state Wigner route built a density matrix")

    monkeypatch.setattr(qk.StateVector, "density", refuse)
    assert np.abs(wg.wigner_function(psi, 7).values - expected).max() <= 1e-14


def test_maximally_mixed_table_is_flat():
    table = wg.wigner_function(qk.maximally_mixed(3), 3)
    assert np.abs(table.values - 1 / 9).max() < 1e-12


def test_basis_state_table():
    table = wg.wigner_function(qk.basis_state(HilbertSpec((3,)), 0), 3)
    vals = table.values
    assert abs(vals.sum() - 1) < 1e-10
    assert vals.min() > -1e-12
    nonzero = np.abs(vals) > 1e-12
    assert nonzero.sum() == 3
    assert np.allclose(vals[nonzero], 1 / 3)


def test_purity_identity_random_states():
    rng = np.random.default_rng(0)
    for _ in range(50):
        psi = qk.random_state((3,), rng)
        table = wg.wigner_function(psi, 3)  # construction revalidates identity
        assert abs(3 * (table.values ** 2).sum() - 1.0) < 1e-9


def test_normalization_random_mixed():
    rng = np.random.default_rng(1)
    for _ in range(50):
        rho = qk.random_density(3, rng)
        assert abs(wg.wigner_function(rho, 3).values.sum() - 1.0) < 1e-10


def test_covariance_under_displacements():
    rng = np.random.default_rng(2)
    d = 3
    rho = qk.random_density(d, rng)
    base = wg.wigner_function(rho, d).values
    for q in range(d):
        for p in range(d):
            t = wg.weyl_operator(d, q, p)
            shifted = qk.apply_unitary(rho, t)
            moved = wg.wigner_function(shifted, d).values
            rolled = np.roll(np.roll(base, q, axis=0), p, axis=1)
            assert np.abs(moved - rolled).max() < 1e-10


def test_sum_negativity_and_mana():
    assert wg.sum_negativity(wg.wigner_function(qk.maximally_mixed(3), 3)) == 0.0
    assert wg.mana(wg.wigner_function(qk.maximally_mixed(3), 3)) == pytest.approx(0.0, abs=1e-12)
    # Random search finds negativity somewhere (brute-force oracle).
    rng = np.random.default_rng(3)
    best = 0.0
    for _ in range(100):
        psi = qk.random_state((3,), rng)
        best = max(best, wg.sum_negativity(wg.wigner_function(psi, 3)))
    assert best > 0.01


def test_stabilizer_states_count_and_mana():
    sts = wg.stabilizer_states(3)
    assert len(sts.states) == 12
    for s in sts.states:
        assert wg.mana(wg.wigner_function(s, 3)) == pytest.approx(0.0, abs=1e-12)
    sts5 = wg.stabilizer_states(5)
    assert len(sts5.states) == 30


def test_stabilizer_bases_are_mutually_unbiased():
    d = 3
    sts = wg.stabilizer_states(d)
    bases = [sts.states[k * d:(k + 1) * d] for k in range(d + 1)]
    for i, b1 in enumerate(bases):
        for j, b2 in enumerate(bases):
            for a in b1:
                for b in b2:
                    ov = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
                    if i == j:
                        assert ov == pytest.approx(float(a is b), abs=1e-10)
                    else:
                        assert ov == pytest.approx(1 / d, abs=1e-10)


def test_stabilizer_states_are_weyl_eigenvectors():
    d = 3
    sts = wg.stabilizer_states(d)
    # computational basis: eigenvectors of Z; quadratic bases: of X Z^{2a}.
    for k, s in enumerate(sts.states):
        if k < d:
            op = wigner_oracle.clock_z(d)
        else:
            a = (k - d) // d
            op = wigner_oracle.shift_x(d) @ np.linalg.matrix_power(wigner_oracle.clock_z(d), (2 * a) % d)
        v = s.amplitudes
        w = op @ v
        assert abs(abs(np.vdot(v, w)) - 1.0) < 1e-10  # eigenvector up to phase


def test_negativity_bounded_by_coherence():
    rng = np.random.default_rng(4)
    for _ in range(200):
        psi = qk.random_state((3,), rng)
        n = wg.sum_negativity(wg.wigner_function(psi, 3))
        assert n <= ms.l1_coherence(psi) + 1e-9


def _random_qutrit_clifford(rng):
    """Random word in verified qutrit Clifford generators."""
    f = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    w = np.exp(2j * np.pi / 3)
    s3 = np.diag([1, w, w])  # phase gate: j -> j(j+1)/2 pattern for d = 3
    gens = [f, s3, wigner_oracle.shift_x(3), wigner_oracle.clock_z(3)]
    u = np.eye(3, dtype=complex)
    for _ in range(int(rng.integers(1, 6))):
        u = gens[rng.integers(len(gens))] @ u
    return u


def _is_clifford(u, d=3):
    """Conjugation maps Weyl generators to Weyl operators up to phase."""
    for g in (wigner_oracle.shift_x(d), wigner_oracle.clock_z(d)):
        m = u @ g @ u.conj().T
        hit = False
        for q in range(d):
            for p in range(d):
                t = wg.weyl_operator(d, q, p)
                ov = abs(np.trace(t.conj().T @ m)) / d
                if abs(ov - 1) < 1e-9:
                    hit = True
        if not hit:
            return False
    return True


def test_mana_invariant_under_clifford_conjugation():
    rng = np.random.default_rng(5)
    cliffords = [u for u in (_random_qutrit_clifford(rng) for _ in range(20))
                 if _is_clifford(u)]
    assert len(cliffords) >= 10  # generators are genuinely Clifford
    for _ in range(20):
        rho = qk.random_density(3, rng)
        m0 = wg.mana(wg.wigner_function(rho, 3))
        for u in cliffords[:5]:
            moved = wg.wigner_function(qk.apply_unitary(rho, u), 3)
            assert wg.mana(moved) == pytest.approx(m0, abs=1e-9)


def test_qubit_magic_proxy():
    t_plus = qk.apply_unitary(qk.plus_state(2), qk.T)
    assert wg.qubit_magic_coherence_proxy(t_plus) == pytest.approx(1.0, abs=1e-12)
