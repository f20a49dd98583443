"""Two-party protocol simulations with enforced communication constraints.

Party A is the server, party B the client.  Protocols run on a streaming
register of named qubits (measured qubits are contracted out immediately), so
branch enumeration stays exact while the live register stays small.  Every
action is logged to an append-only transcript; the only communication
primitive is a single final broadcast, and a validator counts directed
pre-broadcast messages (which the implemented protocols never emit).

Measurement outcomes and PR-box hidden bits are drawn from an OutcomeSource:
``SamplingSource`` draws with a seeded generator, while ``enumerate_runs``
runs a protocol once per outcome path for exhaustive verification, under the
``qkernel.PRUNE`` fork rule that the circuit walker uses too.  A protocol must
be deterministic in its source: replaying the same outcomes meets the same
draws with the same probabilities.

``pmqc_run`` runs in stages (one injection, one hop, one T gadget or the CZ)
and has one stage hook: ``source.checkpoint(state)`` after each stage.  Under
``enumerate_runs`` a run that forks off an earlier path resumes from a copy of
that path's state at the last stage boundary before the fork, instead of
rebuilding the register from the root; the leaves and their bits are the
same either way.  The run hands ``source.resume`` a builder of its root state
(``fresh``), which is called only when the run starts from the root, so a
resumed run never builds (or checks) a root state it would throw away.  Only
the first protocol of a run that asks to resume is resumed or checkpointed;
``btt`` replays from the root.  An observer (a privacy check, say) is an
``OutcomeSource`` that overrides ``checkpoint`` and keeps the default
``resume``: it never resumes, so it sees every stage of every leaf.

The plain MBQC row (``mbqc_gate``) uses no register and no outcome source:
it is the circuit ``circuits.mbqc_pattern``, run on the circuit walker, which
splits each branch once.  So ``enumerate_runs`` serves ``btt`` and
``pmqc_run`` only.

One nonlocal T gadget (a T gate made nonlocal by one ebit and one PR box,
``_t_link``) serves both: PMQC spends one per T gate, and ``btt`` is the
gadget alone.  Every ebit is the read-only |omega> of ``qkernel``, appended
unchecked; the register checks only amplitudes that callers pass in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qkernel as qk
from .qkernel import HilbertSpec, InvariantError, ResourceError, StateVector

PARTIES = frozenset({"A", "B"})


# ---------------------------------------------------------------------------
# Keys, boxes, transcripts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliKey:
    """One-time-pad key bits (a, b) for the encoding X^a Z^b."""
    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", int(self.a) & 1)
        object.__setattr__(self, "b", int(self.b) & 1)


def pauli_pad(key: PauliKey) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    if key.b:
        m = qk.Z @ m
    if key.a:
        m = qk.X @ m
    return m


def pauli_encrypt(psi: StateVector, key: PauliKey) -> StateVector:
    """X^a Z^b |psi> on a single qubit."""
    if psi.spec.dims != (2,):
        raise InvariantError("pauli_encrypt acts on a single qubit")
    return qk.apply_unitary(psi, pauli_pad(key))


@dataclass
class PRBox:
    """One-shot nonsignaling box: on inputs (x, y) outputs (a, b) with a xor b = x y.

    The hidden bit is the side-A output; it is uniform, fixed at first use, and
    the box cannot be called twice.
    """
    box_id: int
    hidden: int | None = None
    consumed: bool = False


def pr_box_call(box: PRBox, x: int, y: int, source: "OutcomeSource | None" = None,
                transcript: "Transcript | None" = None) -> tuple[int, int]:
    if box.consumed:
        raise ResourceError(f"PR box {box.box_id} already consumed")
    box.consumed = True
    if box.hidden is None:
        if source is None:
            raise ResourceError("unsampled PR box needs an outcome source")
        box.hidden = source.draw(f"prbox{box.box_id}", [0.5, 0.5])
    a = int(box.hidden) & 1
    b = a ^ ((int(x) & 1) * (int(y) & 1))
    if transcript is not None:
        transcript.log("A", "pr-box-call", {"box": box.box_id, "x": int(x) & 1})
        transcript.log("B", "pr-box-call", {"box": box.box_id, "y": int(y) & 1})
    return a, b


@dataclass(frozen=True)
class TranscriptEvent:
    t: int
    party: str
    action: str
    payload: dict


class Transcript:
    """Append-only event log for a two-party run."""

    ACTIONS = frozenset({"local-op", "measure", "pr-box-call", "broadcast", "message"})

    def __init__(self):
        self.events: list[TranscriptEvent] = []

    def log(self, party: str, action: str, payload: dict | None = None):
        if party not in PARTIES:
            raise InvariantError(f"unknown party {party!r}")
        if action not in self.ACTIONS:
            raise InvariantError(f"unknown action {action!r}")
        self.events.append(TranscriptEvent(len(self.events), party, action,
                                           dict(payload or {})))

    def copy(self) -> "Transcript":
        """A copy with its own event list; the frozen events are shared."""
        new = Transcript()
        new.events = list(self.events)
        return new

    def to_json_lines(self) -> list[str]:
        import json
        return [json.dumps({"t": e.t, "party": e.party, "action": e.action,
                            "payload": e.payload}, sort_keys=True)
                for e in self.events]


def lobc_violations(transcript: Transcript) -> int:
    """Count directed messages before the first broadcast (must be 0 for LOBC)."""
    count = 0
    for e in transcript.events:
        if e.action == "broadcast":
            break
        if e.action == "message":
            count += 1
    return count


def measurement_bases_at(transcript: Transcript, party: str) -> set[str]:
    return {e.payload.get("basis", "?") for e in transcript.events
            if e.party == party and e.action == "measure"}


# ---------------------------------------------------------------------------
# Outcome sources (sampling / exhaustive replay)
# ---------------------------------------------------------------------------

class OutcomeSource:
    """Where a protocol's measurement outcomes and PR-box hidden bits come from.

    A protocol that runs in stages may call ``resume`` once, before its first
    stage, and ``checkpoint`` after each stage; ``checkpoint`` is its one
    stage hook.  Both are no-ops here, so a protocol drawing from this class
    or ``SamplingSource`` runs from the root.  ``ReplaySource`` uses them to
    skip the stages an earlier run of the same path has already run.  An
    observer overrides ``checkpoint`` only: with the default ``resume`` the
    protocol runs every stage from the root and offers each one to it.
    """
    probability: float

    def draw(self, label: str, probs) -> int:
        raise NotImplementedError

    def checkpoint(self, state) -> None:
        """Offer ``state`` (anything with a ``copy()``) at a stage boundary."""

    def resume(self, fresh):
        """The state to run from: a restored copy of a checkpoint, or ``fresh()``.

        ``fresh`` builds the root state; it is called only when the run
        starts from the root, as it always does here.
        """
        return fresh()


class SamplingSource(OutcomeSource):
    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.probability = 1.0
        self.path: list[tuple[str, int]] = []

    def draw(self, label, probs):
        p = np.asarray(probs, dtype=float)
        qk._fork_outcomes(p.tolist())        # finite, with an outcome to draw
        p = p / p.sum()
        k = int(self.rng.choice(len(p), p=p))
        self.probability *= float(p[k])
        self.path.append((label, k))
        return k


class ReplaySource(OutcomeSource):
    """Follows a prescribed outcome prefix, then the last allowed outcome of each draw.

    Past the prefix, the lower allowed outcomes are kept in ``untried`` as the
    prefixes still to run, shallow draws first, each in ascending order, and
    each paired with the latest checkpoint: ``(state copy, path, probability)``
    at the last stage boundary before the draw, or ``None`` for the root.

    ``start`` is the checkpoint this run starts from.  The first protocol
    that calls ``resume`` owns the run: it gets a copy of that state, the path
    and probability are restored to it, and only its later checkpoints are
    kept.  Its ``fresh`` builder is called only when ``start`` is ``None``
    (the root).  A second protocol in the same run gets ``fresh()``, so it
    never starts from the owner's.
    """

    def __init__(self, prefix: tuple[int, ...], start=None):
        self.prefix = prefix
        self.probability = 1.0
        self.path: list[tuple[str, int]] = []
        self.untried: list[tuple[tuple[int, ...], tuple | None]] = []
        self._latest = start
        self._owner = None

    def draw(self, label, probs):
        p = np.asarray(probs, dtype=float).tolist()
        depth = len(self.path)
        if depth < len(self.prefix):
            k = self.prefix[depth]
        else:
            *lower, k = qk._fork_outcomes(p)
            taken = tuple(j for _, j in self.path)
            self.untried.extend((taken + (j,), self._latest) for j in lower)
        self.probability *= p[k]
        self.path.append((label, k))
        return k

    def checkpoint(self, state):
        if state is self._owner:
            self._latest = (state.copy(), list(self.path), self.probability)

    def resume(self, fresh):
        if self._owner is not None:
            return fresh()
        if self._latest is None:
            self._owner = fresh()
        else:
            state, path, self.probability = self._latest
            self._owner, self.path = state.copy(), list(path)
        return self._owner


def enumerate_runs(protocol_fn):
    """Run ``protocol_fn(source)`` over every outcome path; returns [(prob, result)].

    The protocol is called once per leaf and runs to its end; leaves come out
    depth first, the higher outcome of each draw first.  An outcome whose
    probability is at most ``qkernel.PRUNE`` is not followed, and a draw
    with a non-finite probability or no outcome above it raises
    ``InvariantError`` (``qkernel._fork_outcomes``).  The protocol
    must be deterministic in its source, since each call replays the prefix
    of an earlier one.  A staged protocol (``pmqc_run``) resumes that prefix
    from its last stage boundary before the fork rather than from the root;
    only the first such protocol in ``protocol_fn`` is resumed.  To observe
    every stage of every leaf, ``protocol_fn`` passes the protocol a source
    that forwards ``draw`` and overrides ``checkpoint`` but not ``resume``.
    The stack of prefixes still to run, each with its checkpoint, is bounded
    by the depth of the search.
    """
    results = []
    stack: list[tuple[tuple[int, ...], tuple | None]] = [((), None)]
    while stack:
        src = ReplaySource(*stack.pop())
        res = protocol_fn(src)
        results.append((src.probability, res))
        stack.extend(src.untried)
    return results


# ---------------------------------------------------------------------------
# Streaming named-qubit register
# ---------------------------------------------------------------------------

def angle_basis(theta: float) -> np.ndarray:
    """Basis columns (|0> + (-1)^s e^{i theta} |1>)/sqrt(2), s = 0, 1."""
    return np.array([[1, 1], [np.exp(1j * theta), -np.exp(1j * theta)]],
                    dtype=complex) / math.sqrt(2)


_UNIT = np.ones(1, dtype=complex)   # the empty register's vector, read-only
_UNIT.setflags(write=False)
_EBIT = qk._max_entangled(2)   # (|00> + |11>) / sqrt(2), read-only, shared by every ebit
LIVE_CAP = 12                  # most qubits a Register holds at once


def _normalised(amplitudes, n: int) -> np.ndarray:
    """Caller amplitudes for ``n`` fresh qubits: 2^n of them, finite norm > 0; normalised."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.size != 2 ** n:
        raise InvariantError("amplitude length does not match qubit count")
    norm = np.linalg.norm(amps)
    if not 0 < norm < np.inf:
        raise InvariantError(f"amplitudes have norm {norm!r}")
    return amps / norm


class Register:
    """Statevector over named qubits; measurement contracts the qubit away."""

    def __init__(self):
        self.names: list[str] = []
        self.owners: dict[str, str] = {}
        self.vec = _UNIT
        self.max_live = 0

    def copy(self) -> "Register":
        """A copy that shares only ``vec``, which every operation rebinds."""
        new = Register()
        new.names, new.owners = list(self.names), dict(self.owners)
        new.vec, new.max_live = self.vec, self.max_live
        return new

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvariantError(f"no live qubit named {name!r}") from None

    def _grow(self, names, owners, amps: np.ndarray) -> None:
        """Append fresh qubits in the joint state ``amps``, trusted as normalised.

        The name and cap checks run before the register changes, so a
        rejected call leaves it as it was.
        """
        names = list(names)
        if len(set(names)) != len(names) or any(n in self.names for n in names):
            raise InvariantError(f"qubit names {names} are not fresh and distinct")
        live = len(self.names) + len(names)
        if live > LIVE_CAP:
            raise qk.CapExceededError(
                f"live register of {live} qubits exceeds cap {LIVE_CAP}")
        self.vec = np.multiply.outer(self.vec, amps).reshape(-1)
        self.names += names
        self.owners.update(zip(names, owners))
        self.max_live = max(self.max_live, live)

    def add_qubit(self, name: str, owner: str, amplitudes) -> None:
        self._grow([name], [owner], _normalised(amplitudes, 1))

    def add_state(self, names, owner: str, amplitudes) -> None:
        """Kron in a joint pure state on fresh qubits (first name most significant)."""
        self._grow(names, [owner] * len(names), _normalised(amplitudes, len(names)))

    def add_ebit(self, name_a: str, name_b: str, owner_a: str = "A", owner_b: str = "B"):
        self._grow([name_a, name_b], [owner_a, owner_b], _EBIT)

    def apply(self, u: np.ndarray, names, party: str | None = None,
              transcript: Transcript | None = None, op: str = ""):
        wires = [self.index(n) for n in names]
        if party is not None:
            for n in names:
                if self.owners[n] != party:
                    raise InvariantError(f"party {party} cannot act on {n!r}")
        self.vec = qk.apply_on_wires(self.vec, u, wires, (2,) * len(self.names))
        if transcript is not None and party is not None:
            transcript.log(party, "local-op", {"op": op, "qubits": list(names)})

    def measure(self, name: str, basis, source: OutcomeSource, label: str,
                party: str | None = None, transcript: Transcript | None = None) -> int:
        w = self.index(name)
        if party is not None and self.owners[name] != party:
            raise InvariantError(f"party {party} cannot measure {name!r}")
        b = qk._named_basis(basis) if isinstance(basis, str) else np.asarray(basis, dtype=complex)
        subs = qk._measure_split(self.vec, b, w, (2,) * len(self.names))
        probs = (np.abs(subs) ** 2).sum(axis=1)
        k = source.draw(label, probs)
        self.vec = subs[k] / math.sqrt(probs[k])
        self.names.pop(w)
        del self.owners[name]
        if transcript is not None and party is not None:
            basis_name = basis if isinstance(basis, str) else "rotated"
            transcript.log(party, "measure", {"qubit": name, "basis": basis_name})
        return k

    def extract(self, names_in_order) -> StateVector:
        order = [self.index(n) for n in names_in_order]
        if sorted(order) != list(range(len(self.names))):
            raise InvariantError("extract must list every live qubit exactly once")
        tens = self.vec.reshape((2,) * len(self.names))
        tens = np.transpose(tens, order)
        return StateVector(HilbertSpec((2,) * len(self.names)), tens.reshape(-1))

    def reduced(self, names) -> np.ndarray:
        """Reduced density matrix of the listed live qubits (in the listed order)."""
        order = [self.index(n) for n in names]
        rest = [w for w in range(len(self.names)) if w not in order]
        tens = self.vec.reshape((2,) * len(self.names))
        tens = np.transpose(tens, order + rest)
        flat = tens.reshape(2 ** len(order), -1)
        return flat @ flat.conj().T


# ---------------------------------------------------------------------------
# The nonlocal T gadget: one ebit and one PR box
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Share:
    """A frame bit split into an A-known part and a B-known part."""
    a: int = 0
    b: int = 0

    @property
    def value(self) -> int:
        return self.a ^ self.b


def _s_z(s: int, z: int) -> tuple[np.ndarray, str]:
    """S^s Z^z for bits s and z, with its transcript text (S is named only at power 1)."""
    u = np.diag([1, 1j ** s]).astype(complex) @ np.diag([1, (-1) ** z]).astype(complex)
    return u, f"S^1 Z^{z}" if s else f"Z^{z}"


def _t_link(reg: Register, tr: Transcript, source: OutcomeSource, cur: str,
            ebit: tuple[str, str], x: _Share, box: PRBox,
            labels: tuple[str, str]) -> tuple[int, int]:
    """The nonlocal T gadget after the T imprint on A's qubit ``cur``; returns (c, m).

    A links ``cur`` onto her ebit half and Z-measures it (c, draw ``labels[0]``).
    The PR box on (c xor x.a, x.b) splits the S byproduct's cross term into z_A
    and z_B, so A applies S^{x.a} Z^{z_A} to ``cur`` and B S^{x.b} Z^{z_B} to
    the other half, each from local data; B's X outcome m (``labels[1]``)
    disentangles that half.
    """
    half_a, half_b = ebit
    reg.apply(qk.CX, [cur, half_a], party="A", transcript=tr, op="CX")
    c = reg.measure(half_a, "Z", source, labels[0], party="A", transcript=tr)
    z_a, z_b = pr_box_call(box, c ^ x.a, x.b, source=source, transcript=tr)
    for party, qubit, s_bit, z_bit in (("A", cur, x.a, z_a), ("B", half_b, x.b, z_b)):
        u, text = _s_z(s_bit, z_bit)
        reg.apply(u, [qubit], party=party, transcript=tr, op=text)
    m = reg.measure(half_b, "X", source, labels[1], party="B", transcript=tr)
    return c, m


@dataclass(frozen=True)
class BTTResult:
    output: StateVector          # A's data qubit, still padded
    new_key: PauliKey            # B's updated key
    transcript: Transcript
    ebits_consumed: int
    pr_boxes_consumed: int


def btt(psi: StateVector, key: PauliKey, source: OutcomeSource,
        box: PRBox | None = None) -> BTTResult:
    """Apply T to a one-time-padded qubit using one ebit and one PR box.

    A starts with X^a Z^b |psi> and ends with X^{a'} Z^{b'} T |psi>; B computes
    the new key from local data alone.  No directed message is ever sent.  The
    run is the nonlocal T gadget that PMQC spends per T gate (``_t_link``)
    with A's frame share 0 and B's share ``a``: the phase correction that
    normally needs measurement feedback is split through the box, A applying
    Z^{z_A} and B applying S^a Z^{z_B} on the other ebit half.
    """
    if psi.spec.dims != (2,):
        raise InvariantError("btt teleports a single qubit")
    box = box if box is not None else PRBox(box_id=0)
    if box.consumed:
        raise ResourceError("btt needs an unconsumed PR box")
    tr = Transcript()
    reg = Register()
    reg.add_qubit("data", "A", pauli_encrypt(psi, key).amplitudes)
    reg.add_ebit("eA", "eB")
    tr.log("B", "local-op", {"op": "encrypt", "qubits": ["data"]})

    # A applies T; pad becomes X^a Z^{a xor b} S^{-a}.
    reg.apply(qk.T, ["data"], party="A", transcript=tr, op="T")
    c, m = _t_link(reg, tr, source, "data", ("eA", "eB"), _Share(0, key.a), box,
                   ("c", "m"))

    tr.log("A", "broadcast", {"payload": {"c": c}})
    tr.log("B", "broadcast", {"payload": {}})
    new_key = PauliKey(key.a, key.b ^ m)
    return BTTResult(reg.extract(["data"]), new_key, tr, 1, 1)


def btt_branches(psi: StateVector, key: PauliKey):
    """All (probability, BTTResult) branches of a BTT run, enumerated exactly."""
    return enumerate_runs(lambda src: btt(psi, key, src))


# ---------------------------------------------------------------------------
# PMQC: blind H/T/CZ programs on a tailed cluster, broadcast-only
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PMQCResources:
    ebits: int
    pr_boxes: int


@dataclass(frozen=True)
class _Row:
    """One logical qubit's line of the cluster: a stage replaces it, never edits it."""
    qubit: int
    cur: str                      # current head holding the logical state
    x: _Share
    z: _Share
    sites: int


@dataclass(frozen=True)
class PMQCResult:
    output: StateVector                    # A's output heads, still padded
    keys: tuple[tuple[int, int], ...]      # final (x, z) pads, known to B post-broadcast
    transcript: Transcript
    ebits_consumed: int
    pr_boxes_consumed: int
    t_events: int
    max_live_qubits: int


def _validate_program(programs, cz_after):
    if not 1 <= len(programs) <= 2:
        raise InvariantError("pmqc supports 1 or 2 logical qubits")
    for gates in programs:
        if len(gates) > 4:
            raise InvariantError("at most 4 gates per logical qubit")
        for g in gates:
            if g not in ("H", "T"):
                raise InvariantError(f"pmqc gate {g!r} not in {{H, T}}")
    if cz_after is not None:
        if len(programs) != 2:
            raise InvariantError("cz_after needs two logical qubits")
        k0, k1 = cz_after
        if not (0 <= k0 <= len(programs[0]) and 0 <= k1 <= len(programs[1])):
            raise InvariantError("cz_after indices out of range")


def _program_order(programs, cz_after):
    """The gates of a program in execution order, as (qubit, gate name).

    Without ``cz_after`` each qubit runs its whole program in turn.  With
    ``cz_after = (k0, k1)`` both qubits first run their first k gates, then
    the CZ (qubit ``None``) acts, then both run the rest.
    """
    if cz_after is None:
        return [(q, g) for q, gates in enumerate(programs) for g in gates]
    return ([(q, g) for q in (0, 1) for g in programs[q][:cz_after[q]]] + [(None, "CZ")]
            + [(q, g) for q in (0, 1) for g in programs[q][cz_after[q]:]])


class _PMQCState:
    """What a pmqc run carries from one stage to the next.

    ``t_count`` counts the T gadgets run so far; each spent one ebit and one
    PR box.  ``copy`` shares only what is never written in place: the
    register vector, the frozen transcript events and the frozen rows.
    """

    def __init__(self, reg: Register, rows: list[_Row], tr: Transcript,
                 t_count: int = 0, stage: int = 0):
        self.reg, self.rows, self.tr = reg, rows, tr
        self.t_count, self.stage = t_count, stage

    def copy(self) -> "_PMQCState":
        return _PMQCState(self.reg.copy(), list(self.rows), self.tr.copy(),
                          self.t_count, self.stage)


def pmqc_run(plaintext: StateVector, programs, cz_after=None, *,
             source: OutcomeSource, resources: PMQCResources | None = None) -> PMQCResult:
    """Run an H/T (+ optional single CZ) program blindly on one-time-padded inputs.

    B injects the plaintext by Bell-measuring it against the input-site tails
    (which simultaneously pads it); A executes the circuit-specific tailed
    cluster with X/Z measurements only; every T gate triggers one
    linearization event consuming exactly one ebit and one PR box.  The final
    broadcast lets B assemble the output pads.

    The run is a list of stages (one injection, one hop, one T gadget or the
    CZ) over one ``_PMQCState``.  It asks ``source.resume`` once for its
    starting state, handing it ``fresh``, a builder of the root state (the
    normalised plaintext in a new register) that is called only when the run
    starts from the root.  It offers ``source.checkpoint`` the state after
    each stage, its one stage hook: under ``enumerate_runs`` a replayed path
    starts at its last stage boundary before the fork, and an observer that
    keeps the default ``resume`` sees every stage from the root (the register
    in ``state.reg``, the stage count in ``state.stage``).
    """
    programs = tuple(tuple(g.upper() for g in gates) for gates in programs)
    _validate_program(programs, cz_after)
    nq = len(programs)
    if plaintext.spec.dims != (2,) * nq:
        raise InvariantError(f"plaintext must be {nq} qubits")
    t_total = sum(g == "T" for gates in programs for g in gates)
    if resources is not None and (resources.ebits < t_total or resources.pr_boxes < t_total):
        raise ResourceError(
            f"program needs {t_total} ebits and PR boxes, got "
            f"{resources.ebits} ebits / {resources.pr_boxes} boxes")

    def inject(st: _PMQCState, q: int) -> None:
        """Inject plaintext qubit q through its input-site tail (Bell measurement at B)."""
        reg, tr = st.reg, st.tr
        head, tail = f"h{q}s0", f"t{q}s0"
        reg.add_ebit(head, tail, "A", "B")
        reg.apply(qk.CX, [f"pi{q}", tail], party="B", transcript=tr, op="CX")
        reg.apply(qk.H, [f"pi{q}"], party="B", transcript=tr, op="H")
        m1 = reg.measure(f"pi{q}", "Z", source, f"bell{q}a", party="B", transcript=tr)
        m2 = reg.measure(tail, "Z", source, f"bell{q}b", party="B", transcript=tr)
        st.rows.append(_Row(q, head, _Share(0, m2), _Share(0, m1), 0))

    def hop(st: _PMQCState, q: int) -> None:
        """Add a tailed site (tail removed at B, CZ edge at A), then X-measure the old head."""
        reg, tr, row = st.reg, st.tr, st.rows[q]
        sites = row.sites + 1
        head, tail = f"h{q}s{sites}", f"t{q}s{sites}"
        reg.add_ebit(head, tail, "A", "B")
        m = reg.measure(tail, "X", source, f"tail_{tail}", party="B", transcript=tr)
        reg.apply(qk.CZ, [row.cur, head], party="A", transcript=tr, op="CZ")
        a = reg.measure(row.cur, "X", source, f"hop_{row.cur}", party="A", transcript=tr)
        st.rows[q] = _Row(q, head, _Share(row.z.a ^ a, row.z.b),
                          _Share(row.x.a, row.x.b ^ m), sites)

    def t_gadget(st: _PMQCState, q: int) -> None:
        """Imprint T on the current site and linearize the S byproduct.

        Consumes one fresh ebit and one PR box through ``_t_link``, with the
        row's x-frame shares: A's S-power uses only her own share, B's only
        hers, and the box output bits z_A/z_B absorb the cross term, so the
        pad stays Pauli with shares intact.
        """
        reg, tr, row = st.reg, st.tr, st.rows[q]
        st.t_count += 1
        n = st.t_count
        reg.apply(qk.T, [row.cur], party="A", transcript=tr, op="T-imprint")
        reg.add_ebit(f"g{n}A", f"g{n}B", "A", "B")
        _, m_g = _t_link(reg, tr, source, row.cur, (f"g{n}A", f"g{n}B"), row.x,
                         PRBox(box_id=n), (f"gad{n}c", f"gad{n}m"))
        # Pushing T through X^x Z^z gives X^x Z^{x+z} S^{-x}; the split S^x
        # correction conjugates back through X^x, restoring Z^z exactly, so
        # only the disentangling outcome enters the frame.
        st.rows[q] = _Row(q, row.cur, row.x, _Share(row.z.a, row.z.b ^ m_g), row.sites)

    def apply_cz(st: _PMQCState, q: None) -> None:
        r0, r1 = st.rows
        st.reg.apply(qk.CZ, [r0.cur, r1.cur], party="A", transcript=st.tr, op="CZ")
        st.rows = [_Row(r.qubit, r.cur, r.x, _Share(r.z.a ^ o.x.a, r.z.b ^ o.x.b), r.sites)
                   for r, o in ((r0, r1), (r1, r0))]

    stages = [(inject, q) for q in range(nq)]
    for q, g in _program_order(programs, cz_after):
        if q is None:
            stages.append((apply_cz, None))
        elif g == "H":
            stages.append((hop, q))
        else:
            stages += [(t_gadget, q), (hop, q), (hop, q)]

    def fresh() -> _PMQCState:
        st = _PMQCState(Register(), [], Transcript())
        st.reg.add_state([f"pi{q}" for q in range(nq)], "B", plaintext.amplitudes)
        return st

    st = source.resume(fresh)
    while st.stage < len(stages):
        stage, q = stages[st.stage]
        stage(st, q)
        st.stage += 1
        source.checkpoint(st)

    rows, tr = st.rows, st.tr
    tr.log("A", "broadcast",
           {"payload": {f"shares_q{r.qubit}": [r.x.a, r.z.a] for r in rows}})
    tr.log("B", "broadcast", {"payload": {}})
    keys = tuple((r.x.value, r.z.value) for r in rows)
    output = st.reg.extract([r.cur for r in rows])
    return PMQCResult(output, keys, tr, st.t_count, st.t_count, st.t_count, st.reg.max_live)


def decrypt_pads(state: StateVector, keys) -> StateVector:
    """Undo per-qubit pads X^x Z^z on consecutive qubit wires."""
    amps = state.amplitudes
    dims = state.spec.dims
    for q, (x, z) in enumerate(keys):
        pad = pauli_pad(PauliKey(x, z))
        amps = qk.apply_on_wires(amps, pad.conj().T, [q], dims)
    return StateVector(state.spec, amps)


def program_unitary(programs, cz_after=None) -> np.ndarray:
    """Direct-circuit oracle: the program applied plainly to the logical qubits."""
    dims = (2,) * len(programs)
    u = np.eye(2 ** len(programs), dtype=complex)
    for q, g in _program_order(programs, cz_after):
        u = qk.apply_on_wires(u, qk.GATES[g.upper()], [0, 1] if q is None else [q], dims)
    return u


# ---------------------------------------------------------------------------
# Plain MBQC gate teleportation on a 1D cluster row
# ---------------------------------------------------------------------------

def mbqc_target(angles) -> np.ndarray:
    """Ideal gate of a measurement pattern: product of J(theta) = H diag(1, e^{i theta})."""
    u = np.eye(2, dtype=complex)
    for th in angles:
        u = (qk.H @ np.diag([1, np.exp(1j * th)])) @ u
    return u


@dataclass(frozen=True)
class MBQCBranch:
    outcomes: tuple[int, ...]
    probability: float
    corrected: StateVector


def mbqc_gate(angles, psi: StateVector, adaptive: bool = True) -> list[MBQCBranch]:
    """Measure a 1D cluster row site by site; returns all branches with corrections.

    The row is the circuit ``circuits.mbqc_pattern(angles, adaptive)``, run by
    the circuit walker on psi (x) |0...0>; a branch's outcomes are its
    ``s0, s1, ...`` in order.  Adaptive, every byproduct is corrected as it
    arises and every branch equals the target gate on |psi>; without
    adaptivity the Pauli frame is applied only at the end and the branches
    disagree for non-Pauli angles.
    """
    from .circuits import mbqc_pattern, simulate   # circuits imports this module
    angles = list(angles)
    if len(angles) + 1 > 6:
        raise InvariantError("cluster row limited to 6 qubits")
    if psi.spec.dims != (2,):
        raise InvariantError("mbqc_gate teleports a single qubit")
    if not np.isfinite(angles).all():
        raise InvariantError(f"mbqc angles must be finite, got {angles}")
    pattern = mbqc_pattern(angles, adaptive)
    row = np.zeros(2 ** len(angles), dtype=complex)
    row[0] = 1
    start = StateVector(pattern.wires, np.kron(psi.amplitudes, row))
    return [MBQCBranch(tuple(b.outcomes[f"s{k}"] for k in range(len(angles))),
                       b.probability, b.state)
            for b in simulate(pattern, start)]


# ---------------------------------------------------------------------------
# CHSH with PR boxes
# ---------------------------------------------------------------------------

def chsh_game(rounds: int = 0, rng: np.random.Generator | None = None) -> float:
    """Win rate of the PR-box strategy: exhaustive over inputs and hidden bits.

    With ``rounds`` > 0, plays that many seeded rounds instead (the strategy
    still never loses; sampling exists for marginal statistics).
    """
    if rounds <= 0:
        wins = total = 0
        for x in (0, 1):
            for y in (0, 1):
                for hidden in (0, 1):
                    a, b = pr_box_call(PRBox(0, hidden=hidden), x, y)
                    wins += (a ^ b) == (x * y)
                    total += 1
        return wins / total
    rng = rng if rng is not None else np.random.default_rng(0)
    wins = 0
    for k in range(rounds):
        x, y = int(rng.integers(2)), int(rng.integers(2))
        a, b = pr_box_call(PRBox(k, hidden=int(rng.integers(2))), x, y)
        wins += (a ^ b) == (x * y)
    return wins / rounds


def pr_box_marginal_samples(n: int, seed: int = 0) -> tuple[int, int]:
    """Counts of a=1 and b=1 over n fresh boxes with uniformly random inputs."""
    rng = np.random.default_rng(seed)
    ca = cb = 0
    for k in range(n):
        a, b = pr_box_call(PRBox(k, hidden=int(rng.integers(2))),
                           int(rng.integers(2)), int(rng.integers(2)))
        ca += a
        cb += b
    return ca, cb
