"""Test oracle: the ebit built literally from the gate, |omega> = CX |+>|0>.

The package writes |omega> = d^{-1/2} sum_i |ii> in closed form
(``qkernel._max_entangled``) and never builds the qudit CX.  This is the
gate route that closed form is checked against.
"""

import numpy as np

from uqres import qkernel as qk


def generalized_cx(d: int) -> np.ndarray:
    """Qudit CX: |i, j> -> |i, i+j mod d>."""
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            m[i * d + ((i + j) % d), i * d + j] = 1
    return m


def literal_ebit(d: int) -> qk.StateVector:
    """CX |+>|0> on two qudits of dimension d."""
    return qk.apply_unitary(qk.tensor(qk.plus_state(d), qk.zero_state((d,))),
                            generalized_cx(d))
