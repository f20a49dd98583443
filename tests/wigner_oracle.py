"""Test oracle: the discrete Wigner function from dense phase-point operators.

The package computes every Wigner table from the closed form
W(q, p) = (1/d) sum_x w^{-2px} rho_{q+x, q-x} and never builds an A_(q,p).
This is the definition those closed forms are checked against: Weyl
displacements from powers of the shift and clock matrices (the generalized
Paulis X and Z), A_0 = (1/d) sum_u T_u,
A_u = T_u A_0 T_u† and W(u) = (1/d) tr(A_u rho).
"""

import numpy as np


def shift_x(d: int) -> np.ndarray:
    """Generalized Pauli X: |j> -> |j+1 mod d>."""
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(j + 1) % d, j] = 1
    return m


def clock_z(d: int) -> np.ndarray:
    """Generalized Pauli Z: |j> -> w^j |j>, w = e^{2 pi i / d}."""
    w = np.exp(2j * np.pi / d)
    return np.diag(w ** np.arange(d))


def weyl_operator(d: int, q: int, p: int) -> np.ndarray:
    """Displacement T_(q,p) = w^{2^{-1} q p} X^q Z^p as a product of matrix powers."""
    w = np.exp(2j * np.pi / d)
    half = pow(2, -1, d)
    xq = np.linalg.matrix_power(shift_x(d), q % d)
    zp = np.linalg.matrix_power(clock_z(d), p % d)
    return w ** ((half * q * p) % d) * (xq @ zp)


def phase_point_operators(d: int) -> tuple[np.ndarray, ...]:
    """All d^2 phase-point operators A_(q,p), indexed row-major by (q, p)."""
    a0 = sum(weyl_operator(d, q, p) for q in range(d) for p in range(d)) / d
    ops = []
    for q in range(d):
        for p in range(d):
            t = weyl_operator(d, q, p)
            ops.append(t @ a0 @ t.conj().T)
    return tuple(ops)


def wigner_values(rho: np.ndarray) -> np.ndarray:
    """W(q, p) = (1/d) tr(A_(q,p) rho) of a d x d density matrix."""
    d = rho.shape[0]
    ops = phase_point_operators(d)
    return np.array([np.trace(a @ rho).real for a in ops]).reshape(d, d) / d
