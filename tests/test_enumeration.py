"""Exhaustive protocol enumeration against the replay-from-the-root oracle.

``enumerate_runs`` calls a protocol once per leaf; the oracle in
``replay_oracle.py`` throws a partial run away at every fork.  Both must give
the same leaves in the same order, bit for bit: probabilities, outputs, keys
and transcripts.
"""

import dataclasses

import numpy as np
import pytest

from uqres import circuits as qc
from uqres import protocols as pr
from uqres import qkernel as qk
from uqres.circuits import Circuit, Measure
from uqres.qkernel import HilbertSpec

import replay_oracle


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


class Pinned:
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
        pr.pmqc_run(psi, [["T"]], source=source,
                    on_step=lambda label, reg: snaps.append(
                        (label, tuple(reg.names), reg.vec.copy())))
        return snaps

    pr.enumerate_runs(run)
    assert_same_as_oracle(enumerations)


@pytest.mark.parametrize("a, b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_btt_leaves_match_the_oracle(enumerations, a, b):
    psi = qk.random_state((2,), np.random.default_rng(30 + 2 * a + b))
    pr.btt_branches(psi, pr.PauliKey(a, b))
    assert_same_as_oracle(enumerations)


@pytest.mark.parametrize("adaptive", [True, False])
def test_mbqc_leaves_match_the_oracle(enumerations, adaptive):
    rng = np.random.default_rng(40 + adaptive)
    psi = qk.random_state((2,), rng)
    pr.mbqc_gate(rng.uniform(0, 2 * np.pi, size=5), psi, adaptive=adaptive)
    assert_same_as_oracle(enumerations)


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
def test_protocols_and_circuits_share_one_fork_rule(p, leaves):
    runs = pr.enumerate_runs(lambda src: src.draw("x", [1 - p, p]))
    assert [k for _, k in runs] == leaves
    psi = qk.StateVector(HilbertSpec((2,)), np.sqrt([1 - p, p]))
    branches = qc.simulate(Circuit(HilbertSpec((2,)), (Measure(0),)), psi)
    assert sorted(b.outcomes["m"] for b in branches) == sorted(leaves)


def test_fork_rule_is_read_from_one_place(monkeypatch):
    monkeypatch.setattr(qk, "PRUNE", 1e-12)
    p = 1e-13
    assert len(pr.enumerate_runs(lambda src: src.draw("x", [1 - p, p]))) == 1
    psi = qk.StateVector(HilbertSpec((2,)), np.sqrt([1 - p, p]))
    assert len(qc.simulate(Circuit(HilbertSpec((2,)), (Measure(0),)), psi)) == 1
