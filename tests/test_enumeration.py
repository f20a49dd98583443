"""Exhaustive protocol enumeration against the replay-from-the-root oracle.

``enumerate_runs`` calls a protocol once per leaf and resumes ``pmqc_run``
from its last stage boundary before the fork; the oracle in
``replay_oracle.py`` replays from the root and throws a partial run away at
every fork.  Both must give the same leaves in the same order, bit for bit:
probabilities, outputs, keys and transcripts.

The MBQC row runs on the circuit walker instead; its branches are matched by
outcome tuple against the register route kept in ``mbqc_oracle.py``.
"""

import dataclasses

import numpy as np
import pytest

from uqres import circuits as qc
from uqres import protocols as pr
from uqres import qkernel as qk
from uqres.circuits import Circuit, Measure
from uqres.qkernel import HilbertSpec

import mbqc_oracle
import replay_oracle
from recording import Recorder


def same(a, b) -> bool:
    """Deep equality that compares every float and array bit for bit."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if hasattr(a, "__dict__"):
        return same(vars(a), vars(b))
    return a == b


@pytest.fixture
def enumerations(monkeypatch):
    """Route every ``enumerate_runs`` call through both engines; collect the pairs."""
    pairs = []
    engine = pr.enumerate_runs

    def both(protocol_fn):
        got = engine(protocol_fn)
        pairs.append((got, replay_oracle.enumerate_runs(protocol_fn)))
        return got

    monkeypatch.setattr(pr, "enumerate_runs", both)
    return pairs


def assert_same_as_oracle(pairs, calls=1):
    assert len(pairs) == calls
    for got, want in pairs:
        assert len(got) == len(want)
        for leaf, (g, w) in enumerate(zip(got, want)):
            assert same(g, w), leaf


class Pinned(pr.OutcomeSource):
    """Fixes the first draws of a run, then defers to the enumeration's source."""

    def __init__(self, outcomes, source):
        self.outcomes, self.source, self.n = outcomes, source, 0

    def draw(self, label, probs):
        self.n += 1
        if self.n <= len(self.outcomes):
            return self.outcomes[self.n - 1]
        return self.source.draw(label, probs)


BENCH_PROGRAMS = [
    ((("H",), ("H",)), (1, 1)),
    ((("T",),), None),
    ((("H", "H"), ("H",)), (1, 1)),
    ((("H", "T"),), None),
]


@pytest.mark.parametrize("programs, cz_after", BENCH_PROGRAMS)
def test_pmqc_leaves_match_the_oracle(enumerations, programs, cz_after):
    psi = qk.random_state((2,) * len(programs), np.random.default_rng(len(programs)))
    pr.enumerate_runs(lambda src: pr.pmqc_run(psi, programs, cz_after, source=src))
    assert_same_as_oracle(enumerations)


def test_pmqc_with_cz_between_t_gadgets_matches_the_oracle(enumerations):
    # [H,T],[T,H] + CZ(1,1) has 2^22 paths; the first 14 draws are pinned, so
    # the 256 leaves below them cover the CZ and the second T gadget.
    psi = qk.random_state((2, 2), np.random.default_rng(20))
    pinned = (1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1)
    pr.enumerate_runs(lambda src: pr.pmqc_run(
        psi, (("H", "T"), ("T", "H")), (1, 1), source=Pinned(pinned, src)))
    assert_same_as_oracle(enumerations)
    assert len(enumerations[0][0]) == 256


def test_pmqc_step_snapshots_match_the_oracle(enumerations):
    psi = qk.random_state((2,), np.random.default_rng(21))

    def run(source):
        snaps = []
        pr.pmqc_run(psi, [["T"]], source=Recorder(source, lambda state: snaps.append(
            (state.stage, state.t_count, list(state.rows), tuple(state.reg.names),
             state.reg.vec.copy(), list(state.tr.events)))))
        return snaps

    pr.enumerate_runs(run)
    assert_same_as_oracle(enumerations)


def test_two_pmqc_runs_on_one_source_match_the_oracle(enumerations):
    # Only the first run resumes and checkpoints; the second replays from the
    # root even where its forks carry the first run's checkpoint.
    psi1 = qk.random_state((2,), np.random.default_rng(22))
    psi2 = qk.random_state((2,), np.random.default_rng(23))
    calls = 0

    def both_runs(src):
        nonlocal calls
        calls += 1
        assert calls <= 4 * 1024, "the enumeration does not end"   # both engines
        return (pr.pmqc_run(psi1, [["H", "H"]], source=src),
                pr.pmqc_run(psi2, [["H"]], source=src))

    pr.enumerate_runs(both_runs)
    assert_same_as_oracle(enumerations)
    assert len(enumerations[0][0]) == 1024


def test_pmqc_resumes_from_the_last_stage_boundary(monkeypatch):
    # [H,T] runs five stages: injection, hop, T gadget, hop, hop, with these
    # draws and Register.measure calls each (the PR box draws but does not
    # measure).  The root run measures all 10 times.  Each of the 2^d
    # untried prefixes that fork at draw d resumes at the start of the stage
    # holding that draw.
    draws, measures = (2, 2, 3, 2, 2), (2, 2, 2, 2, 2)
    stage_of = [s for s, n in enumerate(draws) for _ in range(n)]
    predicted = sum(measures) + sum(2 ** d * sum(measures[stage_of[d]:])
                                    for d in range(sum(draws)))
    assert predicted == 5416            # replay from the root makes 2048 * 10
    counts = {"measure": 0, "protocol": 0}
    measure = pr.Register.measure

    def counted_measure(self, *args, **kwargs):
        counts["measure"] += 1
        return measure(self, *args, **kwargs)

    def protocol(src):
        counts["protocol"] += 1
        return pr.pmqc_run(qk.plus_state(2), [["H", "T"]], source=src)

    monkeypatch.setattr(pr.Register, "measure", counted_measure)
    assert len(pr.enumerate_runs(protocol)) == 2048
    assert counts == {"measure": predicted, "protocol": 2048}


def test_pmqc_builds_its_root_state_only_for_runs_from_the_root(monkeypatch):
    # [H,T] injects in stage 0 with two draws, so 1 + 1 + 2 = 4 runs start at
    # the root (the first run and the prefixes that fork before the first
    # checkpoint); the other 2044 leaves resume.  Building the root state on
    # every call would make 2048.
    calls = 0
    add_state = pr.Register.add_state

    def counted_add_state(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return add_state(self, *args, **kwargs)

    monkeypatch.setattr(pr.Register, "add_state", counted_add_state)
    runs = pr.enumerate_runs(lambda src: pr.pmqc_run(qk.plus_state(2), [["H", "T"]],
                                                    source=src))
    assert len(runs) == 2048
    assert calls == 4


def test_leaves_share_no_transcript_or_output():
    runs = pr.enumerate_runs(lambda src: pr.pmqc_run(
        qk.plus_state(2), [["H", "H"]], source=src))
    results = [r for _, r in runs]
    assert len({id(r.transcript) for r in results}) == len(results)
    assert len({id(r.transcript.events) for r in results}) == len(results)
    outputs = [r.output.amplitudes for r in results]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(outputs) for b in outputs[:i])
    expected = [list(r.transcript.events) for r in results]
    for i, r in enumerate(results):
        r.transcript.log("A", "message", {"leaf": i})
        expected[i].append(r.transcript.events[-1])
        assert [s.transcript.events for s in results] == expected


@pytest.mark.parametrize("a, b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_btt_leaves_match_the_oracle(enumerations, a, b):
    psi = qk.random_state((2,), np.random.default_rng(30 + 2 * a + b))
    pr.btt_branches(psi, pr.PauliKey(a, b))
    assert_same_as_oracle(enumerations)


@pytest.mark.parametrize("adaptive, n", [(a, n) for a in (True, False) for n in range(1, 6)])
def test_mbqc_branches_match_the_register_oracle(adaptive, n):
    # The walker yields branches lowest outcome first and the register route
    # highest first, so they are matched by outcome tuple, not by position.
    rng = np.random.default_rng(40 + 10 * adaptive + n)
    psi = qk.random_state((2,), rng)
    angles = rng.uniform(0, 2 * np.pi, size=n)
    got = {b.outcomes: b for b in pr.mbqc_gate(angles, psi, adaptive=adaptive)}
    want = {b.outcomes: b for b in mbqc_oracle.mbqc_gate(angles, psi, adaptive=adaptive)}
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        assert abs(g.probability - w.probability) <= 1e-14, key
        fid = abs(np.vdot(g.corrected.amplitudes, w.corrected.amplitudes)) ** 2
        assert 1 - fid <= 1e-14, key


def test_mbqc_uses_no_register_and_no_replay(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("mbqc_gate ran the register route")

    monkeypatch.setattr(pr, "Register", banned)
    monkeypatch.setattr(pr, "enumerate_runs", banned)
    branches = pr.mbqc_gate([0.3, 1.1, 2.0], qk.plus_state(2))
    assert sorted(b.outcomes for b in branches) == [
        (i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]


@pytest.mark.parametrize("protocol, leaves", [
    (lambda src: pr.pmqc_run(qk.plus_state(2), [["T"]], source=src), 512),
    (lambda src: pr.btt(qk.plus_state(2), pr.PauliKey(1, 0), src), 8),
])
def test_protocol_is_called_once_per_leaf(protocol, leaves):
    calls = 0

    def counted(src):
        nonlocal calls
        calls += 1
        return protocol(src)

    assert len(pr.enumerate_runs(counted)) == leaves
    assert calls == leaves


@pytest.mark.parametrize("p, leaves", [(1e-13, [1, 0]), (1e-15, [0])])
def test_protocols_and_circuits_share_one_fork_rule(enumerations, p, leaves):
    runs = pr.enumerate_runs(lambda src: src.draw("x", [1 - p, p]))
    assert [k for _, k in runs] == leaves
    assert_same_as_oracle(enumerations)
    psi = qk.StateVector(HilbertSpec((2,)), np.sqrt([1 - p, p]))
    branches = qc.simulate(Circuit(HilbertSpec((2,)), (Measure(0),)), psi)
    assert sorted(b.outcomes["m"] for b in branches) == sorted(leaves)


def test_fork_rule_is_read_from_one_place(monkeypatch):
    monkeypatch.setattr(qk, "PRUNE", 1e-12)
    p = 1e-13
    assert len(pr.enumerate_runs(lambda src: src.draw("x", [1 - p, p]))) == 1
    psi = qk.StateVector(HilbertSpec((2,)), np.sqrt([1 - p, p]))
    assert len(qc.simulate(Circuit(HilbertSpec((2,)), (Measure(0),)), psi)) == 1


@pytest.mark.parametrize("probs", [[np.nan, np.nan], [0.0, 0.0]])
def test_a_draw_with_nothing_to_follow_is_an_invariant_violation(probs):
    with pytest.raises(qk.InvariantError):
        pr.enumerate_runs(lambda src: src.draw("x", probs))


def test_sampling_rejects_non_finite_probabilities():
    with pytest.raises(qk.InvariantError):
        pr.SamplingSource(np.random.default_rng(0)).draw("x", [np.nan, np.nan])
