"""Wire-local routes against the full-space embedding oracle, bit for bit.

``assemble``, ``choi_state``, ``program_unitary`` and the ``Register`` growth
act on their own wires only; each must give exactly the array that the
identity-Kronecker construction gives.  ``apply_on_wires`` itself must give
exactly the bits of the numpy-bookkeeping kernel in ``kernel_oracle.py``.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqres import hamiltonian as ham
from uqres import interference as itf
from uqres import protocols as pr
from uqres import qkernel as qk
from uqres.qkernel import HilbertSpec, InvariantError, QuantumChannel

import kernel_oracle
from embedding import embed_operator
from recording import Recorder

SMALL = settings(max_examples=40, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.float64), b.view(np.float64))


# ---------------------------------------------------------------------------
# The kernel itself
# ---------------------------------------------------------------------------

@st.composite
def kernel_cases(draw):
    """Wire dims in {1, 2, 3} (total <= 256), any ordered wire subset, 0-2 batch axes."""
    dims = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=6)
                .filter(lambda ds: math.prod(ds) <= 256))
    wires = draw(st.permutations(range(len(dims))))[:draw(st.integers(1, len(dims)))]
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return dims, wires, batch, draw(SEEDS)


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_apply_on_wires_is_bitwise_equal_to_the_numpy_bookkeeping_kernel(case):
    dims, wires, batch, seed = case
    rng = np.random.default_rng(seed)
    d_sub = math.prod(dims[w] for w in wires)
    m = rng.normal(size=(d_sub, d_sub)) + 1j * rng.normal(size=(d_sub, d_sub))
    shape = (math.prod(dims),) + batch
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = qk.apply_on_wires(amps, m, wires, dims)
    want = kernel_oracle.apply_on_wires(amps, m, wires, dims)
    assert np.array_equal(got, want) and same_bits(got, want)


# ---------------------------------------------------------------------------
# Term sums
# ---------------------------------------------------------------------------

def embedded_sum(terms):
    d = terms.spec.total_dim
    h = np.zeros((d, d), dtype=complex)
    for t in terms.terms:
        h += t.weight * embed_operator(t.matrix, t.support, terms.spec.dims)
    return h


def random_term(dims, support, rng):
    d = int(np.prod([dims[s] for s in support]))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return ham.HamiltonianTerm(support, (g + g.conj().T) / 2, float(rng.uniform(-2, 2)))


@SMALL
@given(SEEDS, st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4), st.booleans(),
       st.integers(1, 6))
def test_assemble_is_bitwise_equal_to_the_embedded_sum(seed, dims, trivial, n_terms):
    rng = np.random.default_rng(seed)
    if trivial:
        dims.insert(int(rng.integers(len(dims) + 1)), 1)
    dims = tuple(dims)
    supports = []
    for _ in range(n_terms):
        if supports and rng.random() < 0.25:
            supports.append(supports[int(rng.integers(len(supports)))])   # repeated
        else:
            k = int(rng.integers(1, min(len(dims), 3) + 1))
            supports.append(tuple(int(w) for w in rng.permutation(len(dims))[:k]))
    terms = ham.TermSum(HilbertSpec(dims), tuple(random_term(dims, s, rng) for s in supports))
    assert same_bits(ham.assemble(terms), embedded_sum(terms))


def test_assemble_unordered_supports_on_qubits_and_qutrits():
    rng = np.random.default_rng(11)
    dims = (2, 3, 2, 2)
    supports = [(2, 0), (0, 2), (1,), (3, 1, 0), (2, 0), (3,)]
    terms = ham.TermSum(HilbertSpec(dims), tuple(random_term(dims, s, rng) for s in supports))
    assert same_bits(ham.assemble(terms), embedded_sum(terms))


def test_assemble_thirty_trivial_subsystems():
    # More wires than einsum has labels for rows and columns; all of dimension 1.
    rng = np.random.default_rng(12)
    dims = (1,) * 30
    supports = [(0,), (29, 3), (7,), (5, 6, 4)]
    terms = ham.TermSum(HilbertSpec(dims), tuple(random_term(dims, s, rng) for s in supports))
    h = ham.assemble(terms)
    assert h.shape == (1, 1)
    assert same_bits(h, embedded_sum(terms))


# ---------------------------------------------------------------------------
# Choi states
# ---------------------------------------------------------------------------

def kronecker_choi(channel):
    d = channel.in_spec.total_dim
    omega = np.zeros(d * d, dtype=complex)
    omega[[i * d + i for i in range(d)]] = 1 / np.sqrt(d)
    acc = np.zeros((d * d, d * d), dtype=complex)
    for k in channel.kraus:
        v = np.kron(np.eye(d), k) @ omega
        acc += np.outer(v, v.conj())
    return acc


@SMALL
@given(SEEDS, st.integers(2, 9), st.integers(1, 3))
def test_choi_state_is_bitwise_equal_to_the_kronecker_construction(seed, d, rank):
    rng = np.random.default_rng(seed)
    kraus = tuple(qk.haar_unitary(rank * d, rng)[:, :d].reshape(rank, d, d))
    spec = HilbertSpec((d,))
    channel = QuantumChannel(spec, spec, kraus)
    assert same_bits(itf.choi_state(channel).state.matrix, kronecker_choi(channel))


# ---------------------------------------------------------------------------
# PMQC programs
# ---------------------------------------------------------------------------

def embedded_program_fold(programs, cz_after):
    nq = len(programs)
    dims = (2,) * nq
    u = np.eye(2 ** nq, dtype=complex)

    def emb(g, q):
        return embed_operator(qk.GATES[g], [q], dims)

    if cz_after is None:
        for q, gates in enumerate(programs):
            for g in gates:
                u = emb(g, q) @ u
    else:
        k0, k1 = cz_after
        for q, k in ((0, k0), (1, k1)):
            for g in programs[q][:k]:
                u = emb(g, q) @ u
        u = qk.CZ @ u
        for q, k in ((0, k0), (1, k1)):
            for g in programs[q][k:]:
                u = emb(g, q) @ u
    return u


WORDS = [w for n in range(3) for w in itertools.product("HT", repeat=n)]


def all_programs():
    for w in WORDS:
        yield (w,), None
    for w0, w1 in itertools.product(WORDS, repeat=2):
        yield (w0, w1), None
        for cut in itertools.product(range(len(w0) + 1), range(len(w1) + 1)):
            yield (w0, w1), cut


def test_program_unitary_is_bitwise_equal_to_the_embedded_fold():
    count = 0
    for programs, cz_after in all_programs():
        got = pr.program_unitary(programs, cz_after)
        assert same_bits(got, embedded_program_fold(programs, cz_after)), (programs, cz_after)
        count += 1
    assert count == 7 + 49 + sum((len(a) + 1) * (len(b) + 1) for a in WORDS for b in WORDS)


def stage_label(first) -> str:
    """A pmqc stage, named from the first transcript event it logs."""
    if first.action == "measure":                 # B removes the new site's tail t{q}s{n}
        q, n = first.payload["qubit"][1:].split("s")
        return f"hop_q{q}_s{n}"
    op, qubit = first.payload["op"], first.payload["qubits"][0]
    if op == "CX":                                # B's Bell measurement on pi{q}
        return f"inject_q{qubit[2:]}"
    if op == "T-imprint":                         # A's T on the head h{q}s{n}
        return f"tgadget_q{qubit[1:].split('s')[0]}"
    return op.lower()


def opens_a_gadget(first) -> bool:
    """Whether a stage's first event opens a gadget (injection, hop, T gadget, CZ).

    Stages are cut at the draws, so every other stage logs nothing (a hop's
    first stage) or starts by taking the measurement the stage before it
    split, of a qubit that is not a new site's tail.
    """
    if first.action != "measure":
        return True
    qubit = first.payload["qubit"]
    return qubit.startswith("t") and not qubit.endswith("s0")


def test_pmqc_steps_follow_the_program_order():
    labels, logged = [], 0

    def record(state):
        nonlocal logged
        new = state.tr.events[logged:]
        logged = len(state.tr.events)
        if new and opens_a_gadget(new[0]):
            labels.append(stage_label(new[0]))

    res = pr.pmqc_run(qk.zero_state((2, 2)), (("H", "T"), ("T", "H")), cz_after=(1, 1),
                      source=Recorder(pr.SamplingSource(np.random.default_rng(0)), record))
    assert labels == ["inject_q0", "inject_q1", "hop_q0_s1",
                      "tgadget_q1", "hop_q1_s1", "hop_q1_s2", "cz",
                      "tgadget_q0", "hop_q0_s2", "hop_q0_s3", "hop_q1_s3"]
    assert [e.action for e in res.transcript.events[logged:]] == ["broadcast"] * 2


# ---------------------------------------------------------------------------
# Register growth
# ---------------------------------------------------------------------------

@SMALL
@given(SEEDS, st.lists(st.sampled_from(["qubit", "state", "ebit"]), min_size=1, max_size=5))
def test_register_vector_is_bitwise_equal_to_kronecker_growth(seed, kinds):
    rng = np.random.default_rng(seed)
    reg = pr.Register()
    want = np.ones(1, dtype=complex)
    for j, kind in enumerate(kinds):
        if kind == "ebit":
            reg.add_ebit(f"a{j}", f"b{j}")
            want = np.kron(want, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
            continue
        n = 1 if kind == "qubit" else int(rng.integers(1, 3))
        amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        if kind == "qubit":
            reg.add_qubit(f"q{j}", "A", amps)
        else:
            reg.add_state([f"s{j}_{i}" for i in range(n)], "B", amps)
        want = np.kron(want, amps / np.linalg.norm(amps))
    assert same_bits(reg.vec, want)


def assert_rejected_unchanged(reg, call, error=InvariantError):
    names, owners, vec, max_live = list(reg.names), dict(reg.owners), reg.vec.copy(), reg.max_live
    with pytest.raises(error):
        call()
    assert (reg.names, reg.owners, reg.max_live) == (names, owners, max_live)
    assert same_bits(reg.vec, vec)


def two_qubit_register():
    reg = pr.Register()
    reg.add_qubit("b", "A", [1, 1])
    reg.add_qubit("z", "B", [1, 0])
    return reg


def test_register_rejects_an_ebit_with_one_name_twice():
    reg = two_qubit_register()
    assert_rejected_unchanged(reg, lambda: reg.add_ebit("x", "x"))


def test_register_rejects_a_state_with_one_name_twice():
    reg = two_qubit_register()
    assert_rejected_unchanged(reg, lambda: reg.add_state(["a", "a"], "A", [1, 0, 0, 0]))


def test_register_rejected_state_leaves_no_owner_behind():
    reg = two_qubit_register()
    assert_rejected_unchanged(reg, lambda: reg.add_state(["c", "b"], "A", [1, 0, 0, 0]))


def test_register_rejects_growth_past_the_live_cap():
    # The register's dimension, 2^live, is bounded by the default cap.
    reg = two_qubit_register()
    for j in range(int(math.log2(qk.DEFAULT_DIM_CAP)) - 2):
        reg.add_qubit(f"f{j}", "A", [1, 0])
    assert_rejected_unchanged(reg, lambda: reg.add_qubit("over", "A", [1, 0]),
                              qk.CapExceededError)


BAD_AMPLITUDES = {"zero": [0, 0], "nan": [np.nan, 1], "inf": [np.inf, 1], "short": [1],
                  "long": [1, 0, 0]}


@pytest.mark.parametrize("kind", ["qubit", "state"])
@pytest.mark.parametrize("bad", BAD_AMPLITUDES)
def test_register_rejects_unusable_amplitudes(bad, kind):
    reg = two_qubit_register()
    amps = BAD_AMPLITUDES[bad]
    if kind == "qubit":
        assert_rejected_unchanged(reg, lambda: reg.add_qubit("n", "A", amps))
    else:
        amps = amps * 2               # two qubits: twice the entries
        assert_rejected_unchanged(reg, lambda: reg.add_state(["n", "m"], "A", amps))


def test_add_ebit_trusts_the_shared_pair(monkeypatch):
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    reg = pr.Register()
    for j in range(4):
        reg.add_ebit(f"a{j}", f"b{j}")
    assert calls == []
    reg.add_qubit("q", "A", [1, 1])       # caller amplitudes are still checked
    assert len(calls) == 1
