"""Resource accounting for some standard circuit families.

Sandwiched circuits (V x 1) CU (W x 1) get their interference evaluated by the
explicit column-entropy formula, independently of the channel-based measure,
so the two routes can be cross-checked.  The one-control-qubit universality
construction, linear combinations of unitaries, and fixed-point-free search
are analyzed for the same quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import interference as itf
from . import measures as ms
from . import qkernel as qk
from .circuits import Circuit, Gate, Mux
from .interference import Multiplexer
from .qkernel import HilbertSpec, InvariantError, StateVector, UnitaryOp


@dataclass(frozen=True)
class AlgorithmReport:
    """Summary of one analysis: parameters, interference terms, residuals, successes."""

    algorithm: str
    parameters: dict = field(default_factory=dict)
    interference_terms: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    success_probabilities: tuple = ()

    def __post_init__(self):
        for name, value in self.residuals.items():
            if value < 0:
                raise InvariantError(f"negative residual {name}: {value}")

    def to_dict(self) -> dict:
        return {"algorithm": self.algorithm,
                "parameters": dict(self.parameters),
                "interference_terms": dict(self.interference_terms),
                "residuals": dict(self.residuals),
                "success_probabilities": list(self.success_probabilities)}


# ---------------------------------------------------------------------------
# Sandwiched circuits
# ---------------------------------------------------------------------------

def sandwiched_interference(v: np.ndarray, cu: Multiplexer, w: np.ndarray) -> float:
    """Average column entropy of (V x 1) CU (W x 1), evaluated termwise.

    p_{(a,mu),(b,nu)} = |sum_i v_{ai} w_{ib} U_{i, mu nu}|^2 is averaged over the
    input indices (b, nu) as a Shannon entropy over the output indices; this is
    the relative-entropy interference power computed without assembling the
    classical dual state.
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    d1, d2 = cu.control_dim, cu.target_dim
    for m in (v, w):
        qk._require_unitary(m, d1, "V and W must be unitaries on the control factor")
    us = np.stack(cu.branches)                      # (i, mu, nu)
    total = 0.0
    for b in range(d1):
        # amp[a, mu, nu] = sum_i v_{ai} w_{ib} U_{i, mu, nu}
        amp = np.einsum("ai,i,imn->amn", v, w[:, b], us)
        for nu in range(d2):
            total += qk.shannon_entropy(np.abs(amp[:, :, nu]) ** 2)
    return total / (d1 * d2)


# ---------------------------------------------------------------------------
# One-control-qubit universality construction
# ---------------------------------------------------------------------------

def rotation_v(epsilon: float) -> np.ndarray:
    """V_eps = [[sqrt(1-eps), -sqrt(eps)], [sqrt(eps), sqrt(1-eps)]]."""
    if not 0.0 < epsilon < 1.0:
        raise InvariantError("epsilon must lie strictly between 0 and 1")
    c, s = np.sqrt(1.0 - epsilon), np.sqrt(epsilon)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _data_unitary(u) -> UnitaryOp:
    """The data unitary U, checked once; a ``UnitaryOp`` was checked when it was built."""
    if isinstance(u, UnitaryOp):
        return u
    u = np.array(u, dtype=complex)               # a copy, frozen by _trusted
    qk._require_unitary(u, None, "U must be a square unitary")
    return qk._trusted(UnitaryOp, spec=HilbertSpec((u.shape[0],)), matrix=u)


def one_control_build(u, epsilon: float) -> tuple[Circuit, StateVector]:
    """Circuit CU (V_eps x 1) on |0>|0..0> and its final state.

    The final state is sqrt(1-eps) |0>|0..0> + sqrt(eps) |1> U|0..0>.  ``u``
    is a matrix, checked here, or a ``UnitaryOp``, checked already.
    """
    u = _data_unitary(u).matrix
    n_dim = u.shape[0]
    v = rotation_v(epsilon)
    branches = (np.eye(n_dim, dtype=complex), u)
    cu = qk._trusted(Mux, control=0, branches=branches, targets=(1,),
                     multiplexer=qk._trusted(Multiplexer, branches=branches))
    circuit = Circuit(HilbertSpec((2, n_dim)), (Gate(v, (0,), name="V_eps"), cu))
    amps = np.zeros(2 * n_dim, dtype=complex)
    amps[0] = np.sqrt(1.0 - epsilon)
    amps[n_dim:] = np.sqrt(epsilon) * u[:, 0]
    return circuit, StateVector(HilbertSpec((2, n_dim)), amps)


def _one_control_terms(u: UnitaryOp, v: np.ndarray) -> tuple[float, float, float]:
    """(residual |I(CU (V_eps x 1)) - I(V_eps) - I(U)/2|, I(V_eps), I(U)), relative entropy.

    CU (V x 1) is built from the checked U and V, so it is unitary by
    construction and is passed on unchecked; its spec still checks the cap.
    """
    eye = np.eye(u.dim, dtype=complex)   # CU (V x 1), blockwise: no d x d product
    m = u.matrix
    whole = qk._trusted(UnitaryOp, spec=HilbertSpec((2 * u.dim,)), matrix=np.block(
        [[v[0, 0] * eye, v[0, 1] * eye], [v[1, 0] * m, v[1, 1] * m]]))
    i_whole, i_v, i_u = (itf.interference_power(whole), itf.interference_power(v),
                         itf.interference_power(u))
    return float(abs(i_whole - i_v - 0.5 * i_u)), i_v, i_u


def one_control_interference_decomposition(u, epsilon: float) -> float:
    """Residual |I(CU (V_eps x 1)) - I(V_eps) - I(U)/2| (relative-entropy measure)."""
    return _one_control_terms(_data_unitary(u), rotation_v(epsilon))[0]


def one_control_report(u, epsilon: float) -> AlgorithmReport:
    """The one-control construction's interference terms; ``u`` is checked once."""
    u = _data_unitary(u)
    v = rotation_v(epsilon)
    residual, i_v, i_u = _one_control_terms(u, v)
    circuit, state = one_control_build(u, epsilon)
    ent = ms.entanglement_entropy(state, [0])
    return AlgorithmReport(
        algorithm="one-control-qubit",
        parameters={"epsilon": epsilon, "data_dim": u.dim},
        interference_terms={
            "c_l1_v": itf.interference_power(v, "l1"),
            "c_rel_v": i_v,
            "i_u": i_u,
            "control_data_entanglement": ent,
        },
        residuals={"additive_decomposition": residual},
    )


# ---------------------------------------------------------------------------
# Linear combination of unitaries
# ---------------------------------------------------------------------------

def lcu_apply(coeffs, unitaries, psi: StateVector) -> tuple[StateVector, float]:
    """Prepare/select/unprepare with post-selection on control |0>.

    Phases of the coefficients fold into the unitaries; the control is prepared
    with amplitudes sqrt(|c_i| / lambda), lambda = sum |c_i|.  Returns the
    normalized (sum_i c_i U_i)|psi> and success probability
    ||sum c_i U_i psi||^2 / lambda^2.  Raises on complete destructive
    interference.
    """
    c = np.asarray(coeffs, dtype=complex)
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    if len(us) != c.size or c.size == 0:
        raise InvariantError("need one unitary per coefficient")
    for i, u in enumerate(us):
        qk._require_unitary(u, psi.dim, f"lcu term {i} is not a {psi.dim} x {psi.dim} unitary")
    lam = float(np.abs(c).sum())
    if lam < 1e-12:
        raise InvariantError("all coefficients vanish")
    out = sum(ci * (ui @ psi.amplitudes) for ci, ui in zip(c, us))
    norm2 = float(np.vdot(out, out).real)
    prob = norm2 / lam ** 2
    if norm2 < 1e-24:
        raise InvariantError("complete destructive interference: zero output")
    return StateVector(psi.spec, out / np.sqrt(norm2)), prob


# ---------------------------------------------------------------------------
# Search as a two-dimensional rotation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroverStep:
    step: int
    success_probability: float
    closed_form: float
    coherence_computational: float
    coherence_rotated: float


def grover_trace(n: int, marked: int, iterations: int) -> list[GroverStep]:
    """Per-step success probabilities and coherences of standard search.

    Success after k steps is sin^2((2k+1) theta) with theta = asin(2^{-n/2});
    the rotated-basis coherence lives on the 2D span of the marked state and
    the uniform unmarked state and stays below 1 bit, unlike the
    computational-basis coherence which starts at n bits.
    """
    if iterations < 0:
        raise InvariantError(f"iterations must be >= 0, got {iterations}")
    spec = HilbertSpec((2,) * n)
    dim = spec.total_dim
    if not 0 <= marked < dim:
        raise InvariantError("marked index out of range")
    theta = np.arcsin(dim ** -0.5)
    state = np.full(dim, dim ** -0.5, dtype=complex)
    unmarked = np.ones(dim, dtype=complex)
    unmarked[marked] = 0
    unmarked /= np.linalg.norm(unmarked)

    def rotated_coherence(vec):
        amp2 = np.array([abs(vec[marked]) ** 2, abs(np.vdot(unmarked, vec)) ** 2])
        return qk.shannon_entropy(amp2 / amp2.sum())

    steps = []
    for k in range(iterations + 1):
        sv = StateVector(spec, state / np.linalg.norm(state))
        steps.append(GroverStep(
            step=k,
            success_probability=float(abs(state[marked]) ** 2),
            closed_form=float(np.sin((2 * k + 1) * theta) ** 2),
            coherence_computational=ms.rel_ent_coherence(sv),
            coherence_rotated=rotated_coherence(state),
        ))
        # The oracle flips the marked sign; the diffusion reflects about the mean.
        state[marked] = -state[marked]
        state = 2 * state.mean() - state
    return steps


def grover_report(n: int, marked: int, iterations: int) -> AlgorithmReport:
    steps = grover_trace(n, marked, iterations)
    return AlgorithmReport(
        algorithm="amplitude-rotation-search",
        parameters={"n": n, "marked": marked, "iterations": iterations},
        interference_terms={
            "initial_coherence_computational": steps[0].coherence_computational,
            "max_coherence_rotated": max(s.coherence_rotated for s in steps),
        },
        residuals={"closed_form_mismatch": max(
            abs(s.success_probability - s.closed_form) for s in steps)},
        success_probabilities=tuple(s.success_probability for s in steps),
    )
