"""Hamiltonian-family machinery.

Weighted term sums over named sites, stoquasticity checking, first-order
Trotterized evolution, low-energy simulation-error verification, the
program-steered cellular-automaton local term with its brickwork runner, and
the circuit-history construction with its tridiagonal walk Hamiltonian and
adiabatic gap scans.

Interpolation convention: ``interpolate(h_start, h_end, s) = (1-s) h_start +
s h_end`` so the scan starts at the ground state of the first argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qkernel as qk
from .interference import Multiplexer
from .qkernel import HilbertSpec, InvariantError, StateVector, UnitaryOp


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianTerm:
    """Hermitian operator on a named subset of sites with a real weight."""

    support: tuple[int, ...]
    matrix: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(int(s) for s in self.support))
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        qk._require_hermitian(m, qk.ATOL, "term matrix must be Hermitian within 1e-10")
        if not np.isfinite(self.weight):
            raise InvariantError(f"term weight must be finite, got {self.weight!r}")
        if len(set(self.support)) != len(self.support):
            raise InvariantError("term support has repeated sites")


@dataclass(frozen=True)
class TermSum:
    """H = sum_n j_n h_n over a composite space."""

    spec: HilbertSpec
    terms: tuple[HamiltonianTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        for t in terms:
            qk._require_placement(t.support, t.matrix.shape[0], self.spec.dims, "term")


def assemble(terms: TermSum) -> np.ndarray:
    """H = sum_n j_n h_n as a dense matrix over the full space.

    Each term is added on its own wires.  H is viewed with one row and one
    column axis per wire; ``np.einsum`` with the row and column label of every
    wire outside the support repeated gives a writable view of the entries on
    which the term acts as the identity there, and j_n h_n is added into it:
    O(d d_support) per term, with no d x d temporary.  Dimension-1 wires carry
    no index and are dropped first, which keeps the labels within einsum's 52
    (wire 0 stays when every wire is trivial, since einsum copies a 0-d result).
    """
    dims = terms.spec.dims
    d = terms.spec.total_dim
    h = np.zeros((d, d), dtype=complex)
    wires = [w for w, dw in enumerate(dims) if dw > 1] or [0]
    label = {w: k for k, w in enumerate(wires)}      # row label k, column label n + k
    n = len(wires)
    grid = h.reshape(tuple(dims[w] for w in wires) * 2)
    for t in terms.terms:
        support = [label[s] for s in t.support if s in label]
        rest = [k for k in range(n) if k not in support]
        cols = [n + k if k in support else k for k in range(n)]
        view = np.einsum(grid, list(range(n)) + cols,
                         rest + support + [n + k for k in support])
        sub = tuple(dims[wires[k]] for k in support)
        view += (t.weight * t.matrix).reshape(sub + sub)
    return h


def is_stoquastic(h, basis: np.ndarray | None = None, tol: float = 1e-10) -> bool:
    """True iff all off-diagonal entries are real and non-positive in the basis."""
    m = assemble(h) if isinstance(h, TermSum) else np.asarray(h, dtype=complex)
    qk._require_hermitian(m, 1e-9, "stoquasticity is defined for Hermitian matrices")
    if basis is not None:
        b = np.asarray(basis, dtype=complex)
        m = b.conj().T @ m @ b
    off = m - np.diag(np.diag(m))
    return bool(np.abs(off.imag).max(initial=0.0) < tol
                and off.real.max(initial=0.0) < tol)


def trotter_evolve(terms: TermSum, t: float, steps: int) -> UnitaryOp:
    """First-order product (prod_k e^{i (t/steps) j_k h_k})^steps."""
    if steps < 1:
        raise InvariantError("steps must be >= 1")
    step = np.eye(terms.spec.total_dim, dtype=complex)
    for term in terms.terms:
        local = qk.expm_hermitian(term.matrix, (t / steps) * term.weight)
        step = qk.apply_on_wires(step, local, term.support, terms.spec.dims)
    return qk._trusted(UnitaryOp, spec=terms.spec, matrix=np.linalg.matrix_power(step, steps))


def exact_evolve(terms: TermSum, t: float) -> UnitaryOp:
    """e^{i H t} for the assembled sum (the Trotter comparison target)."""
    return qk._trusted(UnitaryOp, spec=terms.spec,
                       matrix=qk.expm_hermitian(assemble(terms), t))


def trotter_error(terms: TermSum, t: float, steps: int,
                  exact: UnitaryOp | None = None) -> float:
    """Spectral-norm distance between the Trotter product and e^{iHt}.

    ``exact`` may pass in ``exact_evolve(terms, t)`` when several step counts
    are compared against the same target.
    """
    exact = exact_evolve(terms, t) if exact is None else exact
    return qk.spectral_norm(trotter_evolve(terms, t, steps).matrix - exact.matrix)


def simulation_error(h_prime: np.ndarray, h: np.ndarray, encode: np.ndarray,
                     delta: float) -> float:
    """|| P (H' - E(H)) P || on the low-energy eigenspace P of H' (energies <= delta).

    ``encode`` must be an isometry from H's space into H''s space; E(H) =
    encode H encode†.  Raises if no eigenvalue of H' lies at or below delta.
    """
    h_prime = np.asarray(h_prime, dtype=complex)
    h = np.asarray(h, dtype=complex)
    v = np.asarray(encode, dtype=complex)
    qk._require_close(v.conj().T @ v, np.eye(v.shape[1]), 1e-9, "encode is not an isometry")
    vals, vecs = np.linalg.eigh(h_prime)
    low = vecs[:, vals <= delta]
    if low.shape[1] == 0:
        raise InvariantError(f"no eigenvalues of H' at or below delta = {delta}")
    p = low @ low.conj().T
    diff = p @ (h_prime - v @ h @ v.conj().T) @ p
    return qk.spectral_norm(diff)


# ---------------------------------------------------------------------------
# Program-steered cellular-automaton local term
# ---------------------------------------------------------------------------

def hqca_local_term() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(H, U, W, Pi) on ancilla(2) x program(3) x data(2) x data(2).

    W = P0 x 1 + P1 x HZ (controlled on the first data qubit), Pi = SWAP,
    U = P0 x 1 + P1 x W + P2 x Pi (controlled on the program qutrit), and
    H = |0><1| x U + |1><0| x U†; H squares to the identity, so the quench
    e^{i pi/2 H} equals i H exactly.
    """
    w = Multiplexer((qk.I2, qk.H @ qk.Z)).matrix
    pi_swap = qk.SWAP.copy()
    u = Multiplexer((np.eye(4, dtype=complex), w, pi_swap)).matrix
    h = np.zeros((24, 24), dtype=complex)
    h[0:12, 12:24] = u
    h[12:24, 0:12] = u.conj().T
    return h, u, w, pi_swap


_, _U_QCA, _W_QCA, _PI_QCA = hqca_local_term()
HQCA_PROGRAM_GATES = {0: np.eye(4, dtype=complex), 1: _W_QCA, 2: _PI_QCA}


def hqca_quench() -> np.ndarray:
    """e^{i pi/2 H} on the 24-dimensional ancilla x program x data pair space."""
    h, _, _, _ = hqca_local_term()
    return qk.expm_hermitian(h, math.pi / 2)


def hqca_run(layers, data: StateVector) -> StateVector:
    """Brickwork of programmed quenches on data qubits.

    ``layers`` is a list of {pair_start: program} dicts; layer k may only use
    even pair starts when k is even and odd ones when k is odd, and each pair
    (s, s + 1) must lie on the data wires.  Each active pair gets a fresh
    ancilla in |1> and a fresh program qutrit in |p>; after the quench the
    ancilla must read |0> and the program must be unchanged (both are
    verified before being projected away), and the pair of data qubits has
    received 1, W or SWAP.  The global phase i per active pair is kept.
    """
    if any(d != 2 for d in data.spec.dims):
        raise InvariantError("hqca_run acts on data qubits only")
    # Ancilla |1> and program |p> go in front, (2, 3) + data, under the data's cap.
    dims = HilbertSpec((2, 3) + data.spec.dims, cap=data.spec.cap).dims
    quench = hqca_quench()
    amps = data.amplitudes.copy()
    for pair_start, program in _hqca_pairs(layers, data.spec.dims):
        big = np.zeros(6 * amps.size, dtype=complex)
        block = 3 * amps.size
        offset = block + program * amps.size  # ancilla=1, program=p
        big[offset:offset + amps.size] = amps
        big = qk.apply_on_wires(big, quench, [0, 1, 2 + pair_start, 3 + pair_start], dims)
        # Side conditions: ancilla flipped to |0>, program unchanged.
        tens = big.reshape(dims)
        out = tens[0, program]
        qk._require_close(float(np.vdot(out, out).real), 1.0, 1e-9,
                          "quench left ancilla/program registers dirty")
        amps = out.reshape(-1)
    return StateVector(data.spec, amps / np.linalg.norm(amps))


def _hqca_pairs(layers, dims):
    """Each active pair as (pair_start, program), layer by layer, checked as it comes.

    A program is 0, 1 or 2; layer k uses pair starts of k's parity; the pair
    (s, s + 1) lies on the data wires (``qkernel._require_placement``).
    """
    for k, layer in enumerate(layers):
        for pair_start, program in sorted(layer.items()):
            if program not in (0, 1, 2):
                raise InvariantError(f"invalid program value {program}")
            if pair_start % 2 != k % 2:
                raise InvariantError(
                    f"layer {k} may not act on pair starting at {pair_start}")
            qk._require_placement((pair_start, pair_start + 1), None, dims, "hqca pair")
            yield pair_start, program


def hqca_direct(layers, data: StateVector) -> StateVector:
    """Oracle circuit: apply the programmed gates directly (no ancillas, no phase).

    The layers follow ``hqca_run``'s program, parity and placement rules.
    """
    amps = data.amplitudes.copy()
    dims = data.spec.dims
    for pair_start, program in _hqca_pairs(layers, dims):
        amps = qk.apply_on_wires(amps, HQCA_PROGRAM_GATES[program],
                                 [pair_start, pair_start + 1], dims)
    return StateVector(data.spec, amps)


# ---------------------------------------------------------------------------
# History states and the walk Hamiltonian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HistoryState:
    """Uniform superposition of circuit snapshots entangled with a clock register."""

    length: int                 # circuit length L; clock dimension is L + 1
    state: StateVector          # on data (x) clock

    def __post_init__(self):
        if self.length < 0:
            raise InvariantError("circuit length must be >= 0")
        qk._require_close(clock_probabilities(self), 1.0 / (self.length + 1), qk.ATOL,
                          "history-state clock marginal is not uniform")


def clock_probabilities(hs: HistoryState) -> np.ndarray:
    amps = hs.state.amplitudes.reshape(-1, hs.length + 1)
    return (np.abs(amps) ** 2).sum(axis=0)


def history_state(circuit, psi0: StateVector, cap: int = qk.DEFAULT_DIM_CAP) -> HistoryState:
    """|Phi> = (L+1)^{-1/2} sum_l (U_l ... U_1 |psi0>) |l>."""
    us = [np.asarray(u, dtype=complex) for u in circuit]
    length = len(us)
    spec = HilbertSpec(psi0.spec.dims + (length + 1,), cap=cap)
    snapshots = [psi0.amplitudes]
    for u in us:
        snapshots.append(u @ snapshots[-1])
    amps = np.stack(snapshots, axis=1).reshape(-1) / math.sqrt(length + 1)
    return HistoryState(length, StateVector(spec, amps))


def readout_success_probability(hs: HistoryState, first_output_step: int) -> float:
    """Probability that the clock reads a step >= first_output_step."""
    return float(clock_probabilities(hs)[first_output_step:].sum())


def walk_hamiltonian(length: int) -> np.ndarray:
    """(L+1) x (L+1) tridiagonal walk matrix: diagonal (1/2, 1, .., 1, 1/2), off -1/2.

    The uniform vector is its ground state with eigenvalue 0 and the spectral
    gap is 1 - cos(pi / (L+1)).
    """
    if length < 1:
        raise InvariantError("walk needs length >= 1")
    n = length + 1
    h = np.diag(np.concatenate(([0.5], np.ones(n - 2), [0.5])))
    off = -0.5 * np.ones(n - 1)
    h += np.diag(off, 1) + np.diag(off, -1)
    return h.astype(complex)


def interpolate(h_start: np.ndarray, h_end: np.ndarray, s: float) -> np.ndarray:
    """(1 - s) h_start + s h_end: starts at the ground state of h_start."""
    return (1.0 - s) * np.asarray(h_start) + s * np.asarray(h_end)


def adiabatic_gap_scan(h_start: np.ndarray, h_end: np.ndarray,
                       grid: int) -> list[tuple[float, float]]:
    """(s, gap) pairs over a uniform grid, gap = difference of the two lowest levels."""
    a = np.asarray(h_start, dtype=complex)
    b = np.asarray(h_end, dtype=complex)
    if a.shape != b.shape:
        raise InvariantError("endpoint Hamiltonians differ in dimension")
    for h, which in ((a, "start"), (b, "end")):
        qk._require_hermitian(h, qk.ATOL, f"{which} Hamiltonian must be Hermitian within 1e-10")
    if a.shape[0] < 2:
        raise InvariantError("need dimension >= 2 for a spectral gap")
    if grid < 2:
        raise InvariantError("grid must have at least 2 points")
    out = []
    for s in np.linspace(0.0, 1.0, grid):
        vals = np.linalg.eigvalsh(interpolate(a, b, float(s)))
        out.append((float(s), float(vals[1] - vals[0])))
    return out


def min_gap(scan: list[tuple[float, float]]) -> tuple[float, float]:
    """(s, gap) of the smallest gap on the grid."""
    return min(scan, key=lambda pair: pair[1])


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def termsum_to_json(terms: TermSum) -> dict:
    return {"dims": list(terms.spec.dims),
            "terms": [{"sites": list(t.support), "j": float(t.weight),
                       "matrix": qk._encode_complex(t.matrix)} for t in terms.terms]}


def termsum_from_json(doc: dict, cap: int = qk.DEFAULT_DIM_CAP) -> TermSum:
    """Decode a term-sum document; malformed structure raises ``ParseFailure``."""
    with qk._parsing("term-sum document"):
        dims = qk._json_ints(doc["dims"], "term-sum dims")
        terms = tuple(HamiltonianTerm(qk._json_ints(t["sites"], "term sites"),
                                      qk._decode_complex(t["matrix"], 2, "term matrix"),
                                      qk._json_float(t["j"], "term weight j"))
                      for t in doc["terms"])
    return TermSum(HilbertSpec(dims, cap=cap), terms)
