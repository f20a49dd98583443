"""Test oracle: the MBQC cluster row on a named-qubit register, by replay.

This is ``protocols.mbqc_gate`` as it was before it ran on the circuit
walker: a ``Register`` row driven through ``enumerate_runs``, with adaptive
angle signs and a Pauli frame applied at the end.  Its leaves come out
highest outcome first and the walker's lowest first, so the two are compared
branch by branch, keyed by outcome tuple.
"""

import math

import numpy as np

from uqres import qkernel as qk
from uqres.protocols import (MBQCBranch, OutcomeSource, PauliKey, Register, angle_basis,
                             enumerate_runs, pauli_pad)
from uqres.qkernel import InvariantError, StateVector


def mbqc_gate(angles, psi: StateVector, adaptive: bool = True) -> list[MBQCBranch]:
    """Measure a 1D cluster row site by site; returns all branches with corrections.

    With adaptive angle signs (flip when the running X-frame bit is set) every
    corrected branch equals the target gate on |psi>; without adaptivity the
    branches disagree for non-Pauli angles.
    """
    angles = list(angles)
    if len(angles) + 1 > 6:
        raise InvariantError("cluster row limited to 6 qubits")
    if psi.spec.dims != (2,):
        raise InvariantError("mbqc_gate teleports a single qubit")
    if not np.isfinite(angles).all():
        raise InvariantError(f"mbqc angles must be finite, got {angles}")

    def run(source: OutcomeSource):
        reg = Register()
        reg.add_qubit("c0", "A", psi.amplitudes)
        x = z = 0
        outs = []
        cur = "c0"
        for k, th in enumerate(angles):
            nxt = f"c{k + 1}"
            reg.add_qubit(nxt, "A", np.array([1, 1]) / math.sqrt(2))
            reg.apply(qk.CZ, [cur, nxt])
            meas_angle = -th * (-1) ** x if adaptive else -th
            s = reg.measure(cur, angle_basis(meas_angle), source, f"s{k}")
            outs.append(s)
            x, z = s ^ z, x
            cur = nxt
        state = reg.extract([cur])
        pad = pauli_pad(PauliKey(x, z))
        corrected = qk.apply_unitary(state, pad.conj().T)
        return tuple(outs), corrected

    return [MBQCBranch(outs, prob, corr)
            for prob, (outs, corr) in enumerate_runs(run)]
