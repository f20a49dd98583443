"""Seeded inputs and fixed op cycles for the three benchmark workloads.

Every input comes from ``numpy.random.default_rng([seed, workload])``; the
program only ever sees the generated files and objects.  A workload is a
fixed cycle of slots.  Its order and size mix never depend on the seed, so
every run times the same multiset of ops and the percentiles land on the
same size class.  Each slot has its own input, an op (the timed part: one
call to ``uqres.cli.main`` or to a library function), a payload extractor
and an oracle check (both untimed).  Oracle references are computed at the
first check of a slot, so set-up time holds only input generation and
warm-up.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles as orc


class OpFailed(Exception):
    """The op itself failed: non-zero exit code of ``uqres.cli.main``."""


@dataclass
class Slot:
    kind: str                          # op kind, e.g. "measure-pure"
    size: str                          # input size, e.g. "d=1024"
    run: Callable[[], Any]             # the timed op
    payload: Callable[[Any], Any]      # untimed: raw op result -> checkable data
    check: Callable[[Any], None]       # untimed: raises orc.CheckError


@dataclass
class Workload:
    cycle: list[Slot]
    warmup: list[Slot]


class Context:
    """Per-run file area: inputs, and fresh ``--out`` paths deleted after each check.

    Overwriting an existing file on an ext4 root costs ~60 ms per ``open``
    (truncate-on-close forces a flush) against ~0.01 ms for a new file, so
    every ``--out`` goes to a path that has never existed.
    """

    def __init__(self, root: Path, uq):
        self.root = root
        self.uq = uq
        self.root.mkdir(parents=True, exist_ok=True)
        self._seq = 0
        self._outs: list[str] = []

    def write_json(self, name: str, doc) -> str:
        path = str(self.root / name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def fresh_out(self) -> str:
        self._seq += 1
        path = str(self.root / f"out-{self._seq}.json")
        self._outs.append(path)
        return path

    def discard_outputs(self) -> None:
        for path in self._outs:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        self._outs.clear()

    def cli(self, argv: list[str]) -> str:
        out = self.fresh_out()
        code = self.uq.cli.main(argv + ["--out", out])
        if code != 0:
            raise OpFailed(f"uqres {' '.join(argv[:2])} exited {code}")
        return out


def read_results(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["results"]


def pairs(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.stack([v.real, v.imag], axis=1).tolist()


def random_state(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_unitary(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def interleave(groups) -> list:
    """Fixed, seed-independent order that spreads each group over the cycle."""
    keyed = []
    for g, (count, make) in enumerate(groups):
        for i in range(count):
            keyed.append(((i + 0.5) / count, g, i, make))
    return [make(i) for _, _, i, make in sorted(keyed, key=lambda k: k[:3])]


# ---------------------------------------------------------------------------
# dense-cap
# ---------------------------------------------------------------------------

def _measure_values(results) -> dict:
    return {r["measure"]: r["value"] for r in results}


def dense_cap(seed: int, ctx: Context) -> Workload:
    rng = np.random.default_rng([seed, 1])
    uq = ctx.uq

    def pure(d):
        def make(i):
            psi = random_state(rng, d)
            n = int(math.log2(d))
            path = ctx.write_json(f"pure{d}-{i}.json",
                                  {"dims": [2] * n, "amplitudes": pairs(psi)})
            l1, rel = orc.pure_measure_reference(psi)
            return Slot("measure-pure", f"d={d}", lambda: ctx.cli(["measure", "--in", path]),
                        read_results,
                        lambda res: orc.check_measure(_measure_values(res), l1, rel))
        return make

    def mixed(d):
        def make(i):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T
            rho = (rho + rho.conj().T) / 2
            rho /= np.trace(rho).real
            path = ctx.write_json(f"mixed{d}-{i}.json",
                                  {"dims": [d], "matrix": [pairs(row) for row in rho]})
            ref = cache(lambda: orc.mixed_measure_reference(rho))
            return Slot("measure-mixed", f"d={d}", lambda: ctx.cli(["measure", "--in", path]),
                        read_results,
                        lambda res: orc.check_measure(_measure_values(res), *ref()))
        return make

    def interference(n):
        def make(i):
            desc = []
            for layer in range(3):
                desc += [("gate", random_unitary(rng, 2), (w,)) for w in range(n)]
                desc += [("gate", orc.CZ, (w, w + 1)) for w in range(layer % 2, n - 1, 2)]
            circ = uq.circuits.Circuit(
                uq.qkernel.HilbertSpec((2,) * n),
                tuple(uq.circuits.Gate(m, w, name="CZ" if m is orc.CZ else None)
                      for _, m, w in desc))
            path = ctx.write_json(f"unitary{n}-{i}.json", uq.circuits.circuit_to_json(circ))
            want = cache(lambda: orc.interference_reference(orc.circuit_unitary(desc, n)))

            def check(res):
                for key, value in want().items():
                    orc.close(res[key], value, f"interference {key}", 1e-9, 1e-9)
            return Slot("interference", f"d={2 ** n}",
                        lambda: ctx.cli(["interference", "--in", path]), read_results, check)
        return make

    def trotter(n):
        def make(i):
            zz = np.kron(orc.Z, orc.Z)
            terms = [((k, k + 1), zz, -float(rng.uniform(0.5, 1.5))) for k in range(n - 1)]
            terms += [((k,), orc.X, -float(rng.uniform(0.5, 1.5))) for k in range(n)]
            path = ctx.write_json(f"tfim{n}-{i}.json", {
                "dims": [2] * n,
                "terms": [{"sites": list(s), "j": j, "matrix": [pairs(r) for r in m]}
                          for s, m, j in terms]})
            want = cache(lambda: orc.trotter_reference(terms, n, 1.0, 16))

            def check(res):
                orc.require(res["time"] == 1.0 and res["steps"] == 16, "trotter echo")
                for key, value in want().items():
                    orc.close(res[key], value, f"trotter {key}", 1e-10, 1e-6)
            return Slot("hamiltonian-trotter", f"d={2 ** n}",
                        lambda: ctx.cli(["hamiltonian", "trotter", "--in", path,
                                         "--time", "1.0", "--steps", "16"]),
                        read_results, check)
        return make

    # Size mix: weighted toward small states; the d>=1024 class (5 of 39 ops)
    # is the top size class, and the p90 rank falls inside the d=1024 group.
    cycle = interleave([
        (10, pure(64)), (12, pure(256)), (4, pure(1024)), (1, pure(2048)),
        (2, mixed(16)), (2, mixed(64)), (2, mixed(256)),
        (1, interference(4)), (1, interference(6)), (1, interference(7)),
        (1, trotter(6)), (2, trotter(8)),
    ])
    warmup = [pure(64)(99), mixed(16)(99), interference(4)(99), trotter(6)(99)]
    return Workload(cycle, warmup)


# ---------------------------------------------------------------------------
# branch-circuits
# ---------------------------------------------------------------------------

def branch_circuits(seed: int, ctx: Context) -> Workload:
    rng = np.random.default_rng([seed, 2])
    uq = ctx.uq
    qc, mps, itf = uq.circuits, uq.mps, uq.interference

    def measure_and_correct(n, m, keep):
        """Entangle n wires, X-measure wires 0..m-1, correct the rest by outcome."""
        def make(i):
            desc = [("gate", random_unitary(rng, 2), (w,)) for w in range(n)]
            desc += [("gate", orc.CZ, (w, w + 1)) for w in range(n - 1)]
            for k in range(m):
                desc.append(("measure", k, orc.H, f"m{k}"))
                tz, tt = (int(w) for w in rng.integers(m, n, size=2))
                desc.append(("cond", {f"m{k}": 1}, orc.Z, (tz,)))
                desc.append(("cond", {f"m{k}": 0}, orc.T, (tt,)))
            if not keep:
                desc += [("discard", k) for k in range(m)]
            ins = []
            for op in desc:
                if op[0] == "gate":
                    ins.append(qc.Gate(op[1], op[2], name="CZ" if op[1] is orc.CZ else None))
                elif op[0] == "measure":
                    ins.append(qc.Measure(op[1], "X", op[3]))
                elif op[0] == "cond":
                    ins.append(qc.Cond(op[1], qc.Gate(op[2], op[3])))
                else:
                    ins.append(qc.Discard(op[1]))
            circ = qc.Circuit(uq.qkernel.HilbertSpec((2,) * n), tuple(ins))
            path = ctx.write_json(f"circuit{n}-{m}-{keep}-{i}.json", qc.circuit_to_json(circ))
            psi0 = np.zeros(2 ** n, dtype=complex)
            psi0[0] = 1
            ref = cache(lambda: orc.circuit_branches(desc, (2,) * n, psi0))
            survivors = n if keep else n - m
            return Slot("circuit-keep" if keep else "circuit-discard", f"wires={n},m={m}",
                        lambda: ctx.cli(["circuit", "--in", path]), read_results,
                        lambda res: orc.check_circuit_report(res, ref(), survivors))
        return make

    def channel(label, build, input_wires, fixed, ideal):
        def make(i):
            circ = build()
            ref = cache(lambda: orc.branch_kraus(orc.desc_from_circuit(circ), circ.wires.dims,
                                                 input_wires, fixed))
            return Slot("induced-choi", label,
                        lambda: itf.choi_state(qc.induced_channel(circ, input_wires, fixed)),
                        lambda dual: np.array(dual.state.matrix),
                        lambda m: orc.check_choi(m, ref(), ideal))
        return make

    coeffs = rng.uniform(0.2, 1.0, size=2)
    lcu_us = (random_unitary(rng, 2), random_unitary(rng, 2))
    channels = [
        channel("t_injection", qc.t_injection, [0], {1: 0}, orc.T),
        channel("h_teleportation", qc.h_teleportation, [0], {1: 0}, orc.H),
        channel("contextual_cz", qc.contextual_cz, [1], {0: 0}, orc.CZ),
        channel("lcu_circuit", lambda: qc.lcu_circuit(coeffs, lcu_us), [1], {0: 0}, None),
    ]

    def cluster(n):
        def make(i):
            g = mps.line_graph(n)

            def op():
                state = mps.cluster_state(g)
                return state, mps.graph_stabilizer_expectations(g, state)
            return Slot("cluster-stabilizers", f"sites={n}", op,
                        lambda raw: (np.array(raw[0].amplitudes), list(raw[1])),
                        lambda p: orc.check_cluster(p[0], p[1], n))
        return make

    def contract_vs_sequential(n):
        def make(i):
            chain = mps.cluster_chain(n)
            return Slot("mps-contract-sequential", f"sites={n}",
                        lambda: (mps.contract(chain), mps.sequential_prepare(chain)),
                        lambda raw: (np.array(raw[0].amplitudes), np.array(raw[1].amplitudes)),
                        lambda p: orc.check_mps(p[0], p[1], n))
        return make

    # The 12-wire keep-measured reports (32 full-register branch states, the
    # largest writes) are the top size class: 4 of 30 ops, around the p90 rank.
    cycle = interleave([
        *[(1, c) for c in channels],
        (1, contract_vs_sequential(6)), (1, contract_vs_sequential(8)),
        (1, contract_vs_sequential(10)),
        (1, cluster(6)), (1, cluster(8)), (1, cluster(10)),
        (2, measure_and_correct(8, 6, False)), (5, measure_and_correct(8, 6, True)),
        (2, measure_and_correct(10, 8, False)), (3, measure_and_correct(10, 6, True)),
        (2, measure_and_correct(12, 8, False)), (2, measure_and_correct(12, 4, True)),
        (4, measure_and_correct(12, 5, True)),
    ])
    warmup = [measure_and_correct(8, 4, False)(99), measure_and_correct(8, 4, True)(99),
              *[c(99) for c in channels], cluster(6)(99), contract_vs_sequential(6)(99)]
    return Workload(cycle, warmup)


# ---------------------------------------------------------------------------
# protocol-enumeration
# ---------------------------------------------------------------------------

def _actions(transcript) -> list[str]:
    return [e.action for e in transcript.events]


def protocol_enumeration(seed: int, ctx: Context) -> Workload:
    rng = np.random.default_rng([seed, 3])
    uq = ctx.uq
    proto, qk = uq.protocols, uq.qkernel

    def state_vector(amps):
        n = int(math.log2(amps.size))
        return qk.StateVector(qk.HilbertSpec((2,) * n), amps)

    def pmqc(programs, cz_after, label):
        def make(i):
            amps = random_state(rng, 2 ** len(programs))
            psi = state_vector(amps)
            target = orc.program_unitary(programs, cz_after) @ amps

            def op():
                return proto.enumerate_runs(
                    lambda src: proto.pmqc_run(psi, programs, cz_after, source=src))
            return Slot("pmqc-enumerate", label, op,
                        lambda runs: [(p, np.array(r.output.amplitudes), r.keys,
                                       _actions(r.transcript)) for p, r in runs],
                        lambda leaves: orc.check_leaves(leaves, target, f"pmqc {label}"))
        return make

    def btt(i):
        amps = random_state(rng, 2)
        psi = state_vector(amps)
        a, b = (int(v) for v in rng.integers(0, 2, size=2))
        key = proto.PauliKey(a, b)
        return Slot("btt-branches", "1 qubit", lambda: proto.btt_branches(psi, key),
                    lambda runs: [(p, np.array(r.output.amplitudes),
                                   [(r.new_key.a, r.new_key.b)], _actions(r.transcript))
                                  for p, r in runs],
                    lambda leaves: orc.check_leaves(leaves, orc.T @ amps, "btt"))

    def mbqc(i):
        amps = random_state(rng, 2)
        psi = state_vector(amps)
        angles = [float(a) for a in rng.uniform(0, 2 * np.pi, size=5)]
        return Slot("mbqc-gate", "5 angles", lambda: proto.mbqc_gate(angles, psi),
                    lambda branches: [(b.probability, np.array(b.corrected.amplitudes),
                                       [(0, 0)], []) for b in branches],
                    lambda leaves: orc.check_leaves(
                        leaves, orc.mbqc_target(angles) @ amps, "mbqc"))

    def cli_btt(i):
        a, b = (int(v) for v in rng.integers(0, 2, size=2))
        path = ctx.write_json(f"btt-{i}.json", {
            "state": {"dims": [2], "amplitudes": pairs(random_state(rng, 2))},
            "key": [a, b]})
        return Slot("cli-protocol-btt", "1 qubit",
                    lambda: ctx.cli(["protocol", "btt", "--config", path]), read_results,
                    lambda res: orc.check_verdict(res, "min_fidelity"))

    def cli_mbqc(i):
        path = ctx.write_json(f"mbqc-{i}.json", {
            "state": {"dims": [2], "amplitudes": pairs(random_state(rng, 2))},
            "angles": [float(a) for a in rng.uniform(0, 2 * np.pi, size=5)],
            "adaptive": True})
        return Slot("cli-protocol-mbqc", "5 angles",
                    lambda: ctx.cli(["protocol", "mbqc", "--config", path]), read_results,
                    lambda res: orc.check_verdict(res, "min_fidelity"))

    h_h = pmqc((("H",), ("H",)), (1, 1), "[H],[H]+CZ")
    # The [H,T] program (2048 leaves) is the top size class: 3 of 16 ops, so
    # the p90 rank falls inside it; the p50 rank falls inside the 256-leaf group.
    cycle = interleave([
        (1, btt), (2, cli_btt), (1, mbqc), (2, cli_mbqc),
        (4, h_h), (2, pmqc((("T",),), None, "[T]")),
        (1, pmqc((("H", "H"), ("H",)), (1, 1), "[H,H],[H]+CZ")),
        (3, pmqc((("H", "T"),), None, "[H,T]")),
    ])
    warmup = [btt(99), cli_btt(99), mbqc(99), cli_mbqc(99), h_h(99)]
    return Workload(cycle, warmup)


WORKLOADS = {"dense-cap": dense_cap, "branch-circuits": branch_circuits,
            "protocol-enumeration": protocol_enumeration}
