"""Dynamic coherence of gates and channels.

A channel is mapped either to its Choi state (identity tensor channel acting on
half of an ebit, channel on the second half) or to its classical dual state,
where the ebit is dephased first:

    m_E = (1/d) sum_i P_i (x) E(P_i).

The interference power of a gate is the coherence of its classical dual state,
which reduces to the average coherence of the column outputs E(P_i).  Pauli and
other monomial gates score zero; the Hadamard gate scores 1 on a qubit.

:func:`interference_power` takes one route for every channel, unitaries
included, built on the stacked Kraus tensor K of shape (r, d_out, d_in).
Column i of the channel is the d_out x r matrix A_i with columns K_k[:, i],
and E(P_i) = A_i A_i†:

  - the diagonal of E(P_i) is sum_k |K_k[:, i]|^2;
  - the spectrum of E(P_i) is, up to zeros, that of the r x r Gram matrix
    A_i† A_i (A A† and A† A share their nonzero spectrum), so all column
    entropies come from one batched ``eigvalsh`` of small matrices;
  - for Kraus rank 1, |E(P_i)_ab| = |u_a||u_b| factorises and the l1
    coherence is (sum |u|)^2 - sum |u|^2; for rank > 1 E(P_i) is formed
    from A_i.

A unitary therefore costs O(d^2) plus d scalar eigenproblems.  The dual-state
route (:func:`classical_dual`, :func:`dual_state_coherence`) and
:func:`_column_outputs` build the d x d column outputs explicitly and serve as
the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures as ms
from . import qkernel as qk
from .qkernel import (DensityOperator, HilbertSpec, InvariantError, QuantumChannel,
                      UnitaryOp)

MEASURES = ("l1", "relative_entropy", "log")


@dataclass(frozen=True)
class Multiplexer:
    """Block-diagonal controlled unitary sum_i P_i (x) U_i with the control first.

    Represented as the branch list plus dimensions so additivity checks can
    locate the control factor of the assembled matrix.
    """

    branches: tuple[np.ndarray, ...]

    def __post_init__(self):
        brs = tuple(np.asarray(b, dtype=complex) for b in self.branches)
        object.__setattr__(self, "branches", brs)
        if not brs:
            raise InvariantError("multiplexer needs at least one branch")
        d2 = None
        for b in brs:
            qk._require_unitary(b, d2, "multiplexer branches must be unitaries of one dimension")
            d2 = b.shape[0]

    @property
    def control_dim(self) -> int:
        return len(self.branches)

    @property
    def target_dim(self) -> int:
        return self.branches[0].shape[0]

    @property
    def matrix(self) -> np.ndarray:
        d1, d2 = self.control_dim, self.target_dim
        m = np.zeros((d1 * d2, d1 * d2), dtype=complex)
        for i, b in enumerate(self.branches):
            m[i * d2:(i + 1) * d2, i * d2:(i + 1) * d2] = b
        return m

    def unitary(self) -> UnitaryOp:
        return UnitaryOp(HilbertSpec((self.control_dim, self.target_dim)), self.matrix)


@dataclass(frozen=True)
class DualState:
    """Channel-state dual: kind 'choi' or 'classical', state on control (x) output.

    For kind 'classical' the control-reduced state is maximally mixed and the
    control off-diagonal blocks vanish.
    """

    kind: str
    state: DensityOperator

    def __post_init__(self):
        if self.kind not in ("choi", "classical"):
            raise InvariantError(f"unknown dual-state kind {self.kind!r}")
        if self.state.spec.n_subsystems != 2:
            raise InvariantError("dual state must live on control (x) output")
        if self.kind == "classical":
            d1, d2 = self.state.spec.dims
            control = qk.partial_trace(self.state, [0])
            qk._require_close(control.matrix, np.eye(d1) / d1, 1e-9,
                              "classical dual: control marginal is not maximally mixed")
            blocks = self.state.matrix.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3)
            qk._require_close(blocks[~np.eye(d1, dtype=bool)], 0.0, 1e-9,
                              "classical dual: control off-diagonal block nonzero")


def _as_channel(e) -> QuantumChannel:
    if isinstance(e, QuantumChannel):
        return e
    if isinstance(e, UnitaryOp):
        return e.channel()
    if isinstance(e, Multiplexer):
        return e.unitary().channel()
    if isinstance(e, np.ndarray):
        d = e.shape[0]
        return UnitaryOp(HilbertSpec((d,)), e).channel()
    raise InvariantError(f"cannot interpret {type(e).__name__} as a channel")


def _column_outputs(channel: QuantumChannel) -> list[DensityOperator]:
    d = channel.in_spec.total_dim
    outs = []
    for i in range(d):
        p = np.zeros((d, d), dtype=complex)
        p[i, i] = 1
        rho = sum(k @ p @ k.conj().T for k in channel.kraus)
        outs.append(qk._trusted(DensityOperator, spec=channel.out_spec, matrix=rho))
    return outs


def choi_state(e) -> DualState:
    """Choi state (1/d) sum_ij |i><j| (x) E(|i><j|); channel acts on the second half.

    Each Kraus operator K contributes |v><v| with v = (1 (x) K)|omega> for the
    maximally entangled |omega> = d^{-1/2} sum_i |i>|i>.  Entry (i, a) of v is
    K[a, i] / sqrt(d), so v is K^T flattened and scaled: O(d^2) per operator.
    """
    channel = _as_channel(e)
    if not channel.is_square:
        raise InvariantError("choi_state requires a square channel")
    d = channel.in_spec.total_dim
    dout = channel.out_spec.total_dim
    acc = np.zeros((d * dout, d * dout), dtype=complex)
    for k in channel.kraus:
        v = k.T.reshape(-1) * (1 / np.sqrt(d))
        acc += np.outer(v, v.conj())
    spec = HilbertSpec((d, dout))
    return DualState("choi", qk._trusted(DensityOperator, spec=spec, matrix=acc))


def classical_dual(e) -> DualState:
    """Classical dual m_E = (1/d) sum_i P_i (x) E(P_i)."""
    channel = _as_channel(e)
    if not channel.is_square:
        raise InvariantError("classical_dual requires a square channel")
    d = channel.in_spec.total_dim
    dout = channel.out_spec.total_dim
    m = np.zeros((d * dout, d * dout), dtype=complex)
    for i, rho in enumerate(_column_outputs(channel)):
        m[i * dout:(i + 1) * dout, i * dout:(i + 1) * dout] = rho.matrix / d
    return DualState("classical",
                     qk._trusted(DensityOperator, spec=HilbertSpec((d, dout)), matrix=m))


def interference_power(e, measure: str = "relative_entropy") -> float:
    """Average output coherence of E over basis-projector inputs.

    Equal to the corresponding coherence of the classical dual state:
    C(m_E) = (1/d) sum_i C(E(P_i)), C_r(m_E) = (1/d) sum_i C_r(E(P_i)),
    and the log measure is log2(C(m_E) + 1).  For a unitary with the
    relative-entropy measure this is the average Shannon entropy of the
    squared column amplitudes.  See the module docstring for the route.
    """
    if measure not in MEASURES:
        raise InvariantError(f"unknown measure {measure!r}; choose from {MEASURES}")
    k = np.stack(_as_channel(e).kraus)            # (r, d_out, d_in)
    r, d_out, d_in = k.shape
    if measure == "relative_entropy":
        s_diag = qk._shannon_rows((np.abs(k) ** 2).sum(axis=0).T)
        cols = np.moveaxis(k, 2, 0)                # cols[i] = A_i^T, shape (r, d_out)
        rows = np.swapaxes(cols, 1, 2)             # rows[i] = A_i
        small = cols.conj() @ rows if r <= d_out else rows @ cols.conj()
        s_out = qk._shannon_rows(qk._clamp_spectrum(np.linalg.eigvalsh(small)))
        return float(np.maximum(s_diag - s_out, 0.0).sum() / d_in)
    if r == 1:
        u = np.abs(k[0])
        l1 = u.sum(axis=0) ** 2 - (u * u).sum(axis=0)
    else:
        l1 = np.empty(d_in)
        for i in range(d_in):
            a = k[:, :, i].T
            m = np.abs(a @ a.conj().T)
            l1[i] = m.sum() - np.trace(m)
    c_avg = float(l1.sum() / d_in)
    if measure == "l1":
        return c_avg
    return float(np.log2(c_avg + 1.0))


def interference_additivity_check(v: np.ndarray | UnitaryOp, cu: Multiplexer,
                                  measure: str = "relative_entropy") -> tuple[float, float]:
    """Residuals |I(CU (V x 1)) - I(V) - I(CU)| and |I((V x 1) CU) - I(V) - I(CU)|.

    V must act on the control factor of the multiplexer.
    """
    vm = v.matrix if isinstance(v, UnitaryOp) else np.asarray(v, dtype=complex)
    if vm.shape != (cu.control_dim, cu.control_dim):
        raise InvariantError(
            f"V has dimension {vm.shape[0]}, control dimension is {cu.control_dim}")
    big_v = np.kron(vm, np.eye(cu.target_dim))
    cu_m = cu.matrix
    i_v = interference_power(vm, measure)
    i_cu = interference_power(cu_m, measure)
    r1 = abs(interference_power(cu_m @ big_v, measure) - i_v - i_cu)
    r2 = abs(interference_power(big_v @ cu_m, measure) - i_v - i_cu)
    return (float(r1), float(r2))


def dual_state_coherence(dual: DualState, measure: str = "relative_entropy") -> float:
    """Coherence of an assembled dual state, measured directly on the big matrix."""
    if measure == "relative_entropy":
        return ms.rel_ent_coherence(dual.state)
    if measure == "l1":
        return ms.l1_coherence(dual.state)
    if measure == "log":
        return ms.log_coherence(dual.state)
    raise InvariantError(f"unknown measure {measure!r}")
