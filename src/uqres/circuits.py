"""Circuit IR with multiplexers, basis measurements and outcome-conditioned gates.

One walk enumerates every measurement branch exactly, over an amplitude
array with a trailing batch axis and with wire-local kernels only: no
full-space operator is ever built.  A measurement rotates its wire into the
measurement basis and splits it into one child per outcome, contracting the
wire at once; a measured wire that survives gets its outcome's basis column
back at the end.  The callers differ only in the columns they walk: one input
state (:func:`simulate`, which reports each branch's outcome record,
probability and pure post-state on the surviving wires), the identity
(:func:`branch_kraus`, per-branch Kraus operators for Choi-fidelity
comparisons, and :func:`circuit_unitary`) or the injected inputs of
:func:`induced_channel`.

Contextual circuits follow the control/data sandwich: prepare the control,
apply a multiplexer onto the data, rotate the control, measure it in the
computational basis, apply outcome-conditioned data corrections, and discard
the control.  Deterministic instances (gate teleportation, magic injection,
linear-combination circuits with correctable failure branches, and the
adaptive cluster-row measurement pattern :func:`mbqc_pattern`) are built here
and verified by :func:`is_deterministic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qkernel as qk
from .interference import Multiplexer
from .protocols import PauliKey, angle_basis, pauli_pad
from .qkernel import HilbertSpec, InvariantError, QuantumChannel, StateVector


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    matrix: np.ndarray
    wires: tuple[int, ...]
    name: str | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        qk._require_unitary(m, None, f"gate {self.name or ''} is not a square unitary")


@dataclass(frozen=True)
class Mux:
    """Multiplexer placed on wires: branch i of ``branches`` acts on ``targets``
    when the control wire holds computational value i.

    The branches are validated, and the block matrix on (control,) + targets
    is built, by :class:`~uqres.interference.Multiplexer`.
    """
    control: int
    branches: tuple[np.ndarray, ...]
    targets: tuple[int, ...]
    multiplexer: Multiplexer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mux = Multiplexer(self.branches)
        object.__setattr__(self, "multiplexer", mux)
        object.__setattr__(self, "branches", mux.branches)
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))


@dataclass(frozen=True)
class Measure:
    wire: int
    basis: str | np.ndarray = "Z"
    out: str = "m"

    def __post_init__(self):
        if not isinstance(self.basis, str):
            b = np.asarray(self.basis, dtype=complex)
            object.__setattr__(self, "basis", b)
            qk._require_unitary(b, None, "custom measurement basis is not a square unitary")


@dataclass(frozen=True)
class Cond:
    """Apply ``gate`` when every named outcome matches the given value."""
    when: dict
    gate: Gate


@dataclass(frozen=True)
class Discard:
    wire: int


Instruction = Gate | Mux | Measure | Cond | Discard


# ---------------------------------------------------------------------------
# Circuit container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Circuit:
    wires: HilbertSpec
    instructions: tuple = field(default_factory=tuple)

    def __post_init__(self):
        ins = tuple(self.instructions)
        object.__setattr__(self, "instructions", ins)
        dims = self.wires.dims
        measured: dict[int, str] = {}
        discarded: set[int] = set()
        names: set[str] = set()

        def place(ws, d_op, what):
            """The shared placement rule, on wires not yet measured (a discarded wire was)."""
            qk._require_placement(ws, d_op, dims, what)
            for w in ws:
                if w in measured:
                    raise InvariantError(f"{what} acts on wire {w} after measurement/discard")

        for ins_ in ins:
            if isinstance(ins_, Gate):
                place(ins_.wires, ins_.matrix.shape[0], "gate")
            elif isinstance(ins_, Mux):
                mux = ins_.multiplexer
                place((ins_.control,) + ins_.targets, mux.control_dim * mux.target_dim, "mux")
                if mux.control_dim != dims[ins_.control]:
                    raise InvariantError(
                        f"mux branch count {mux.control_dim} != control dimension "
                        f"{dims[ins_.control]}")
            elif isinstance(ins_, Measure):
                # Z fits any wire; any other basis, named or custom, has its own size.
                named = isinstance(ins_.basis, str)
                b = qk._named_basis(ins_.basis) if named else ins_.basis
                place((ins_.wire,), None if named and ins_.basis == "Z" else b.shape[0], "measure")
                if ins_.out in names:
                    raise InvariantError(f"duplicate outcome name {ins_.out!r}")
                names.add(ins_.out)
                measured[ins_.wire] = ins_.out
            elif isinstance(ins_, Cond):
                unknown = set(ins_.when) - names
                if unknown:
                    raise InvariantError(f"conditioned gate references unmeasured {unknown}")
                place(ins_.gate.wires, ins_.gate.matrix.shape[0], "conditioned gate")
            elif isinstance(ins_, Discard):
                w = ins_.wire
                if w in discarded:
                    raise InvariantError(f"wire {w} discarded twice")
                if w not in measured:
                    raise InvariantError(f"wire {w} must be measured before discard")
                discarded.add(w)
            else:
                raise InvariantError(f"unknown instruction {type(ins_).__name__}")
        object.__setattr__(self, "_discarded", frozenset(discarded))

    @property
    def surviving_wires(self) -> tuple[int, ...]:
        return tuple(w for w in range(len(self.wires.dims)) if w not in self._discarded)


# ---------------------------------------------------------------------------
# Branch simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchOutcome:
    """One measurement branch: outcome record, probability, surviving-wire state."""
    outcomes: dict
    probability: float
    state: StateVector


def _walk(circuit: Circuit, columns: np.ndarray) -> list[tuple[dict, np.ndarray]]:
    """Every measurement branch of ``circuit`` applied to the (D, B) array ``columns``.

    Gates act on their wires only.  A measurement rotates its wire by basis†
    and splits it into one child per outcome, contracting the wire at once
    (``Circuit`` forbids any later action on a measured wire); a child whose
    squared norm is at most ``qkernel.PRUNE`` times its parent's is dropped.
    Returns (record, amplitudes) per branch, unnormalised, of shape (D_surv, B)
    over the surviving wires: a measured wire that is not discarded holds its
    outcome's basis column again.  A measurement splits a branch of dimension D
    into children of dimension D/d, so the circuit's cap bounds the branches too.
    """
    dims = circuit.wires.dims
    live = list(range(len(dims)))           # original wire of each live axis
    measured: dict[int, tuple[np.ndarray, str]] = {}
    branches = [({}, columns)]

    def on_live(a, m, wires):
        return qk.apply_on_wires(a, m, [live.index(w) for w in wires],
                                 [dims[w] for w in live])

    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            branches = [(rec, on_live(a, ins.matrix, ins.wires)) for rec, a in branches]
        elif isinstance(ins, Mux):
            wires = (ins.control,) + ins.targets
            branches = [(rec, on_live(a, ins.multiplexer.matrix, wires)) for rec, a in branches]
        elif isinstance(ins, Cond):
            g = ins.gate
            branches = [(rec, on_live(a, g.matrix, g.wires)
                         if all(rec.get(k) == v for k, v in ins.when.items()) else a)
                        for rec, a in branches]
        elif isinstance(ins, Measure):
            b = (qk._named_basis(ins.basis, dims[ins.wire]) if isinstance(ins.basis, str)
                 else ins.basis)
            measured[ins.wire] = (b, ins.out)
            pos = live.index(ins.wire)
            live_dims = [dims[w] for w in live]
            new = []
            for rec, a in branches:
                floor = qk.PRUNE * np.vdot(a, a).real
                for k, child in enumerate(qk._measure_split(a, b, pos, live_dims)):
                    if np.vdot(child, child).real > floor:
                        new.append(({**rec, ins.out: k}, child))
            branches = new
            live.pop(pos)
        # A Discard needs no work: its wire was contracted when it was measured.

    surv = circuit.surviving_wires
    kept = [w for w in surv if w in measured]
    out = []
    for rec, a in branches:
        tens = a.reshape([dims[w] for w in live] + [a.shape[-1]])
        for w in kept:                      # ascending, so each lands at its own position
            b, name = measured[w]
            tens = np.moveaxis(np.multiply.outer(b[:, rec[name]], tens), 0, surv.index(w))
        out.append((rec, tens.reshape(-1, a.shape[-1])))
    return out


def _surviving_dims(circuit: Circuit) -> tuple[int, ...]:
    surv = circuit.surviving_wires
    return tuple(circuit.wires.dims[w] for w in surv) if surv else (1,)


def simulate(circuit: Circuit, input_state: StateVector) -> list[BranchOutcome]:
    """Exhaustive branch enumeration with exact probabilities and post-states.

    A branch is dropped when its probability is at most ``qkernel.PRUNE``
    times that of the branch it split from; the remaining probabilities still
    sum to 1 up to that tolerance.
    """
    if input_state.spec.dims != circuit.wires.dims:
        raise InvariantError("input state dims do not match circuit wires")
    psi = input_state.amplitudes
    total = float(np.vdot(psi, psi).real)
    spec = HilbertSpec(_surviving_dims(circuit), cap=circuit.wires.cap)
    results = []
    for rec, a in _walk(circuit, psi[:, None]):
        p = float(np.vdot(a, a).real)
        results.append(BranchOutcome(rec, p / total, StateVector(spec, a[:, 0] / np.sqrt(p))))
    return results


def branch_kraus(circuit: Circuit) -> list[tuple[dict, np.ndarray]]:
    """Per-branch Kraus operators from the full input space to the surviving wires.

    The set over all branches satisfies sum K†K = identity, so it defines the
    branch-averaged channel of the circuit.
    """
    return _walk(circuit, np.eye(circuit.wires.total_dim, dtype=complex))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full-space matrix of a circuit made only of gates and multiplexers."""
    if not all(isinstance(ins, (Gate, Mux)) for ins in circuit.instructions):
        raise InvariantError("a circuit unitary needs a unitary-only circuit")
    ((_, u),) = _walk(circuit, np.eye(circuit.wires.total_dim, dtype=complex))
    return u


def induced_channel(circuit: Circuit, input_wires, fixed: dict | None = None) -> QuantumChannel:
    """Branch-averaged channel restricted to ``input_wires``.

    ``fixed`` maps every other wire to its (computational) preparation value;
    unlisted non-input wires default to 0.  Only the injected input columns
    are walked.
    """
    dims = circuit.wires.dims
    input_wires = [int(w) for w in input_wires]
    fixed = dict(fixed or {})
    rest = [w for w in range(len(dims)) if w not in input_wires]
    d_in = int(np.prod([dims[w] for w in input_wires])) if input_wires else 1
    inj = np.zeros((int(np.prod(dims)), d_in), dtype=complex)
    for idx in range(d_in):
        digits = np.unravel_index(idx, tuple(dims[w] for w in input_wires)) if input_wires else ()
        full = [0] * len(dims)
        for w, v in zip(input_wires, digits):
            full[w] = int(v)
        for w in rest:
            full[w] = int(fixed.get(w, 0))
        inj[np.ravel_multi_index(full, dims), idx] = 1
    ks = tuple(k for _, k in _walk(circuit, inj))
    in_dims = tuple(dims[w] for w in input_wires) if input_wires else (1,)
    return QuantumChannel(HilbertSpec(in_dims), HilbertSpec(_surviving_dims(circuit)), ks)


def is_deterministic(circuit: Circuit, inputs, tol: float = 1e-9,
                     keep=None) -> tuple[bool, float]:
    """True iff all (kept) branches agree up to global phase on every sampled input.

    Returns the verdict together with the maximum branch infidelity observed.
    ``keep`` optionally filters branches by their outcome record (e.g. to drop a
    post-selected failure branch).
    """
    worst = 0.0
    for psi in inputs:
        branches = simulate(circuit, psi)
        if keep is not None:
            branches = [b for b in branches if keep(b.outcomes)]
        if not branches:
            raise InvariantError("no branches survive the filter")
        ref = branches[0].state.amplitudes
        for b in branches[1:]:
            fid = abs(np.vdot(ref, b.state.amplitudes)) ** 2
            worst = max(worst, 1.0 - float(fid))
    return worst <= tol, worst


def _is_monomial(m: np.ndarray, tol: float = 1e-10) -> bool:
    """One nonzero entry per row and column: diagonal or basis-permuting gates."""
    mask = np.abs(m) > tol
    return bool((mask.sum(axis=0) == 1).all() and (mask.sum(axis=1) == 1).all())


def free_circuit_check(circuit: Circuit) -> bool:
    """True iff every gate is diagonal/basis-permuting and all measurements are Z.

    Such circuits never generate superposition from basis inputs; they form the
    classical free set of the contextual model.
    """
    for ins in circuit.instructions:
        if isinstance(ins, Gate) and not _is_monomial(ins.matrix):
            return False
        if isinstance(ins, Cond) and not _is_monomial(ins.gate.matrix):
            return False
        if isinstance(ins, Mux) and not all(_is_monomial(b) for b in ins.branches):
            return False
        if isinstance(ins, Measure) and not (isinstance(ins.basis, str) and ins.basis == "Z"):
            return False
    return True


# ---------------------------------------------------------------------------
# Contextual constructions
# ---------------------------------------------------------------------------

def contextual_circuit(u1: np.ndarray, cu: Multiplexer, u2: np.ndarray,
                       corrections) -> Circuit:
    """Control/data sandwich with measured-control feedback.

    Wire 0 is the control (dimension = branch count of ``cu``), wire 1 the
    data.  The feedback stage measures the rotated control in the computational
    basis and applies ``corrections[k]`` to the data on outcome k, then
    discards the control.
    """
    d1, d2 = cu.control_dim, cu.target_dim
    corrections = [np.asarray(c, dtype=complex) for c in corrections]
    if len(corrections) != d1:
        raise InvariantError(f"need {d1} corrections, got {len(corrections)}")
    ins = [Gate(u1, (0,), name="U1"),
           Mux(0, cu.branches, (1,)),
           Gate(u2, (0,), name="U2"),
           Measure(0, "Z", "ctx")]
    ins += [Cond({"ctx": k}, Gate(c, (1,), name=f"V{k}")) for k, c in enumerate(corrections)]
    ins.append(Discard(0))
    return Circuit(HilbertSpec((d1, d2)), tuple(ins))


def _prep_amplitudes(coeffs, unitaries) -> tuple[np.ndarray, list[np.ndarray], float]:
    """Standard combination bookkeeping: amplitudes sqrt(|c_i|/lambda), phases
    folded into the unitaries, lambda = sum |c_i|."""
    c = np.asarray(coeffs, dtype=complex)
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    if len(us) != c.size or c.size == 0:
        raise InvariantError("need one unitary per coefficient")
    mags = np.abs(c)
    lam = float(mags.sum())
    if lam < 1e-12:
        raise InvariantError("all coefficients vanish")
    alpha = np.sqrt(mags / lam).astype(complex)
    folded = [u if mag < 1e-15 else (ci / mag) * u
              for ci, mag, u in zip(c, mags, us)]
    return alpha, folded, lam


def contextual_from_lcu(target: np.ndarray, coeffs, unitaries,
                        prep: np.ndarray | None = None) -> Circuit:
    """Deterministic contextual realization of ``target`` = sum_i c_i U_i.

    The control is prepared with amplitudes sqrt(|c_i| / sum|c|) (coefficient
    phases fold into the branch unitaries) and un-prepared with the inverse.
    Every measurement branch operator must be proportional to a unitary, in
    which case the conditioned correction rotates it back onto the target;
    raises if some branch is not correctable.  ``prep`` overrides the default
    completion of the amplitude column (its first column must equal it), which
    matters when only a particular completion makes all branches correctable.
    """
    target = np.asarray(target, dtype=complex)
    alpha, us, _ = _prep_amplitudes(coeffs, unitaries)
    d1 = alpha.size
    d2 = us[0].shape[0]
    if prep is None:
        u1 = qk._dilate_isometry(alpha[:, None], [0])
    else:
        u1 = np.asarray(prep, dtype=complex)
        qk._require_close(u1[:, 0], alpha, qk.ATOL,
                          "prep's first column must equal the amplitude vector")
    u2 = u1.conj().T
    corrections = []
    for k in range(d1):
        bk = sum(u2[k, i] * alpha[i] * us[i] for i in range(d1))
        gram = bk.conj().T @ bk
        scale = float(np.trace(gram).real) / d2
        if scale < 1e-12:
            corrections.append(np.eye(d2, dtype=complex))   # branch never occurs
            continue
        qk._require_close(gram, scale * np.eye(d2), 1e-9,
                          f"branch {k} is not proportional to a unitary")
        corrections.append(target @ bk.conj().T / np.sqrt(scale))
    return contextual_circuit(u1, Multiplexer(tuple(us)), u2, corrections)


def contextual_h() -> Circuit:
    """H as an equal superposition of the Z and X contexts, with Pauli fix-up."""
    return contextual_from_lcu(qk.H, np.array([1, 1]) / np.sqrt(2), (qk.Z, qk.X))


def contextual_t() -> Circuit:
    """T as cos(pi/8) 1 + sin(pi/8) (iZ) with diagonal branch corrections."""
    return contextual_from_lcu(qk.T, np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)]),
                               (np.eye(2), 1j * qk.Z))


def contextual_cz() -> Circuit:
    """CZ as the four-term diagonal-Pauli combination (11 + Z1 + 1Z - ZZ)/2.

    The Hadamard-pair completion keeps every failure branch a diagonal sign
    pattern, hence correctable by diagonal Paulis.
    """
    us = (np.eye(4), np.kron(qk.Z, qk.I2), np.kron(qk.I2, qk.Z), np.kron(qk.Z, qk.Z))
    return contextual_from_lcu(qk.CZ, np.array([1, 1, 1, -1]) / 2.0, us,
                               prep=np.kron(qk.H, qk.H))


def h_teleportation() -> Circuit:
    """One-bit gate teleportation of H.

    Wire 0 carries the input and is measured in the X basis; wire 1 starts in
    |0>, is prepared to |+>, couples through CZ, and holds H|psi> on every
    branch after the conditioned X fix.
    """
    return Circuit(HilbertSpec((2, 2)), (
        Gate(qk.H, (1,), name="H"),
        Gate(qk.CZ, (0, 1), name="CZ"),
        Measure(0, "X", "s"),
        Cond({"s": 1}, Gate(qk.X, (1,), name="X")),
        Discard(0),
    ))


def t_injection() -> Circuit:
    """Magic-state injection of T.

    Wire 1 is prepared in T|+>; a CX controlled by the ancilla targets the data
    wire 0, which is then read out in Z.  On outcome 1 the ancilla needs the
    X-then-S† fix; both branches end in T|psi> up to global phase.
    """
    correction = qk.GATES["SDG"] @ qk.X
    return Circuit(HilbertSpec((2, 2)), (
        Gate(qk.H, (1,), name="H"),
        Gate(qk.T, (1,), name="T"),
        Gate(qk.CX, (1, 0), name="CX"),
        Measure(0, "Z", "s"),
        Cond({"s": 1}, Gate(correction, (1,), name="SdgX")),
        Discard(0),
    ))


def mbqc_pattern(angles, adaptive: bool = True) -> Circuit:
    """A 1D cluster-row pattern for the product of J(theta) = H diag(1, e^{i theta}).

    Wire 0 holds the input and wires 1..n start in |0>.  Step k prepares wire
    k+1 in |+>, couples it to wire k by CZ and measures wire k in
    ``angle_basis(-theta_k)`` (outcome ``s{k}``), which leaves
    X^{s_k} J(theta_k) on wire k+1.  Adaptive, that X is undone at once, so
    no angle has to adapt and wire n holds the target on every branch.
    Without adaptivity every angle stays -theta and the byproducts are undone
    only on wire n after the last measurement, as the Pauli frame
    ``x, z = s_k ^ z, x`` leaves them: outcome k in X when n-1-k is even, in Z
    when it is odd.  That frame is right for Pauli angles only, so the
    branches of other angles disagree.
    """
    angles = [float(th) for th in angles]
    n = len(angles)
    wires = HilbertSpec((2,) * (n + 1))     # the row's only size rule: the default cap
    ins: list[Instruction] = []
    for k, th in enumerate(angles):
        ins += [Gate(qk.H, (k + 1,), name="H"),
                Gate(qk.CZ, (k, k + 1), name="CZ"),
                Measure(k, angle_basis(-th), f"s{k}")]
        if adaptive:
            ins.append(Cond({f"s{k}": 1}, Gate(qk.X, (k + 1,), name="X")))
        ins.append(Discard(k))
    if not adaptive:
        ins += [Cond({f"s{k}": 1}, Gate(qk.GATES[name], (n,), name=name))
                for parity, name in ((0, "X"), (1, "Z"))
                for k in range(n) if (n - 1 - k) % 2 == parity]
    return Circuit(wires, tuple(ins))


def encrypted_t_injection(key: tuple[int, int]) -> Circuit:
    """T injection on a one-time-padded input X^a Z^b |psi>, followed by decryption.

    Pushing T through the pad leaves X^a Z^{a xor b} S^{-a}; with the key known
    classically the decryption applies S^a Z^{a xor b} X^a, so every branch
    ends in T|psi> exactly.
    """
    a, b = int(key[0]) & 1, int(key[1]) & 1
    base = t_injection()
    s_pow = np.linalg.matrix_power(qk.S, a)
    decrypt = s_pow @ pauli_pad(PauliKey(a, a ^ b)).conj().T
    ins = base.instructions[:-1] + (Gate(decrypt, (1,), name="decrypt"),) + base.instructions[-1:]
    return Circuit(base.wires, ins)


def lcu_circuit(coeffs, unitaries) -> Circuit:
    """Probabilistic prepare/select/unprepare circuit; control outcome 0 succeeds."""
    alpha, us, _ = _prep_amplitudes(coeffs, unitaries)
    u1 = qk._dilate_isometry(alpha[:, None], [0])
    return Circuit(HilbertSpec((alpha.size, us[0].shape[0])), (
        Gate(u1, (0,), name="prep"),
        Mux(0, tuple(us), (1,)),
        Gate(u1.conj().T, (0,), name="unprep"),
        Measure(0, "Z", "anc"),
        Discard(0),
    ))


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def circuit_to_json(circuit: Circuit) -> dict:
    enc = qk._encode_complex
    ops = []
    for ins in circuit.instructions:
        if isinstance(ins, Gate):
            entry = {"type": "gate", "wires": list(ins.wires)}
            if ins.name in qk.GATES and np.array_equal(qk.GATES[ins.name], ins.matrix):
                entry["name"] = ins.name
            else:
                entry["matrix"] = enc(ins.matrix)
            ops.append(entry)
        elif isinstance(ins, Mux):
            ops.append({"type": "mux", "control": ins.control,
                        "branches": [enc(b) for b in ins.branches],
                        "targets": list(ins.targets)})
        elif isinstance(ins, Measure):
            basis = ins.basis if isinstance(ins.basis, str) else enc(ins.basis)
            ops.append({"type": "measure", "wire": ins.wire, "basis": basis, "out": ins.out})
        elif isinstance(ins, Cond):
            ops.append({"type": "cond", "when": dict(ins.when),
                        "gate": {"wires": list(ins.gate.wires),
                                 "matrix": enc(ins.gate.matrix)}})
        elif isinstance(ins, Discard):
            ops.append({"type": "discard", "wire": ins.wire})
    return {"wires": list(circuit.wires.dims), "ops": ops}


def _gate_from_json(op: dict) -> Gate:
    """Gate given by ``name`` (a key of ``qkernel.GATES``) or by ``matrix``."""
    wires = qk._json_ints(op["wires"], "gate wires")
    if "name" not in op:
        return Gate(qk._decode_complex(op["matrix"], 2, "gate matrix"), wires)
    name = op["name"].upper()
    if name not in qk.GATES:
        raise InvariantError(f"unknown gate name {op['name']!r}")
    return Gate(qk.GATES[name], wires, name=name)


def circuit_from_json(doc: dict, cap: int = qk.DEFAULT_DIM_CAP) -> Circuit:
    """Decode a circuit document; malformed structure raises ``ParseFailure``."""
    dec = qk._decode_complex
    ins: list[Instruction] = []
    with qk._parsing("circuit document"):
        dims = qk._json_ints(doc["wires"], "circuit wires")
        for op in doc["ops"]:
            kind = op["type"]
            if kind == "gate":
                ins.append(_gate_from_json(op))
            elif kind == "mux":
                ins.append(Mux(qk._json_int(op["control"], "mux control"),
                               tuple(dec(b, 2, "mux branch") for b in op["branches"]),
                               qk._json_ints(op["targets"], "mux targets")))
            elif kind == "measure":
                basis = op.get("basis", "Z")
                if not isinstance(basis, str):
                    basis = dec(basis, 2, "measurement basis")
                if type(op["out"]) is not str:
                    raise qk.ParseFailure(f"measure out must be a JSON string, got {op['out']!r}")
                ins.append(Measure(qk._json_int(op["wire"], "measured wire"), basis, op["out"]))
            elif kind == "cond":
                ins.append(Cond({k: qk._json_int(v, f"cond outcome {k!r}")
                                 for k, v in op["when"].items()},
                                _gate_from_json(op["gate"])))
            elif kind == "discard":
                ins.append(Discard(qk._json_int(op["wire"], "discarded wire")))
            else:
                raise InvariantError(f"unknown op type {kind!r}")
    return Circuit(HilbertSpec(dims, cap=cap), tuple(ins))
