"""Batch command-line front end.

``uqres <measure|interference|wigner|circuit|protocol|hamiltonian|algorithm|make-goldens>
[--in PATH]... [--out PATH] [--seed N] [--cap N]``

Reports are JSON embedding the toolkit version, seed and the invariant
tolerance (``qkernel.ATOL``), so identical configurations produce
byte-identical files.  A report is sorted-key, two-space-indent JSON: its
bytes are exactly ``json.dumps(doc, sort_keys=True, indent=2)`` plus one
newline, with each numpy array in ``doc`` read as its ``tolist()``, written
by ``qkernel._dumps_sorted``.  Every number table of a report (the
``[re, im]`` rows of a branch state, a Wigner table, a gap scan, the walk
Hamiltonian of ``make-goldens``) reaches the writer as a 2-D float64 array,
and only such arrays take the distinct-bits route: each distinct float bit
pattern is formatted once, as the C encoder formats it (``NaN``,
``Infinity``, ``-Infinity``, else ``float.__repr__``), and that text is
copied to every cell with the same bits; equal bits give equal text, so the
bytes are the C encoder's.  Lists are written number by number.

Every integer field of an input document or config is read by one rule
(``qkernel._json_int``): a bool, a float or a string is a parse error, never
truncated; every real scalar (``qkernel._json_float``) takes a JSON number
only, so a bool or a string is a parse error too.  ``--cap`` is the one size
rule: it bounds every register read from an input (states, circuits, term
sums, raw matrices) or sized by a config (the grover, one-control, sandwich
and mbqc registers) when it is read.  Loop counts have fixed
bounds (``MAX_CHSH_ROUNDS``, ``MAX_GROVER_ITERATIONS``, ``MAX_GAP_GRID``), and
the work of a gap scan, grid points times d³, is bounded by ``MAX_GAP_WORK``.
Exit codes: 0 success, 2 parse error, 3 invariant/constraint violation, 4
resource/dimension cap or loop bound exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import algorithms as alg
from . import circuits as qc
from . import hamiltonian as ham
from . import interference as itf
from . import measures as ms
from . import protocols as pr
from . import qkernel as qk
from . import wigner as wg
from .qkernel import CapExceededError, InvariantError, ParseFailure, ResourceError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_CAP = 4

# Upper bounds on the loop counts a config or flag asks for, so that no input
# buys unbounded work (each bound is about a second of work); a larger value
# exits 4, like an input over --cap.
MAX_CHSH_ROUNDS = 100_000
MAX_GROVER_ITERATIONS = 1_000
MAX_GAP_GRID = 10_001
# A gap scan runs one eigvalsh of a d x d matrix per grid point, so its work
# is bounded as grid * d**3: 2**32 is about two seconds on one core (four
# points at d = 1024), and `--grid 10001` fits up to d = 75.
MAX_GAP_WORK = 2 ** 32


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _decode_state(doc, key: str, rank: int, cap: int):
    with qk._parsing("state document"):
        dims = qk._json_ints(doc["dims"], "state dims")
        data = qk._decode_complex(doc[key], rank, key)
    return qk.HilbertSpec(dims, cap=cap), data


def vector_from_json(doc: dict, cap: int = qk.DEFAULT_DIM_CAP) -> qk.StateVector:
    return qk.StateVector(*_decode_state(doc, "amplitudes", 1, cap))


def vector_to_json(state: qk.StateVector) -> dict:
    return {"dims": list(state.spec.dims),
            "amplitudes": qk._encode_complex(state.amplitudes)}


def density_from_json(doc: dict, cap: int = qk.DEFAULT_DIM_CAP) -> qk.DensityOperator:
    if isinstance(doc, dict) and "amplitudes" in doc:
        return vector_from_json(doc, cap=cap).density()
    return qk.DensityOperator(*_decode_state(doc, "matrix", 2, cap))


def matrix_from_json(rows, cap: int = qk.DEFAULT_DIM_CAP) -> np.ndarray:
    """A raw complex matrix; one with more than ``cap`` rows or columns exits 4."""
    m = qk._decode_complex(rows, 2, "matrix")
    if max(m.shape) > cap:
        raise CapExceededError(f"matrix dimension {max(m.shape)} exceeds cap {cap}")
    return m


def _int_key(config: dict, name: str, default=None, count: int | None = None):
    """Config key ``name``: one JSON integer, or with ``count`` a list of that many.

    Read through ``qkernel._json_int``: ``true``, ``2.0`` and ``"2"`` are parse
    errors, never truncated.  An absent key reads as ``default``.  A list
    comes back as a tuple.
    """
    value = config.get(name, default)
    if count is None:
        return qk._json_int(value, f"key {name!r}")
    return qk._json_ints(value, f"key {name!r}", count)


def _pair_start(key: str) -> int:
    """An ``hqca`` layer key as a canonical decimal integer: ``"00"`` or ``" 0"`` exits 2."""
    start = int(key)
    if str(start) != key:
        raise ParseFailure(f"hqca pair start must be a canonical integer, got {key!r}")
    return start


def _bounded(count: int, bound: int, what: str) -> int:
    """``count``, unless it exceeds ``bound``: then :class:`CapExceededError` (exit 4)."""
    if count > bound:
        raise CapExceededError(f"{what} {qk._int_text(count)} exceeds its bound {bound}")
    return count


def _load_json(path: str) -> dict:
    # ValueError covers invalid JSON, bytes that are not UTF-8 and an integer
    # of more than 4300 digits, which Python refuses to convert.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc


def _report(args, results) -> dict:
    return {"toolkit_version": __version__,
            "seed": args.seed,
            "tolerance": qk.ATOL,
            "dimension_cap": args.cap,
            "results": results}


def _serialize(doc: dict) -> str:
    """A report's bytes: ``json.dumps(doc, sort_keys=True, indent=2)`` and one final newline."""
    return qk._dumps_sorted(doc) + "\n"


def _write_gap_csv(path, scan) -> None:
    """A gap scan as CSV: a ``t,gap`` header, then one fixed-precision row per point."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "gap"])
        writer.writerows([f"{s:.10f}", f"{gap:.12f}"] for s, gap in scan)


def _emit(args, doc: dict) -> None:
    text = _serialize(doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _load_state(args) -> qk.StateVector | qk.DensityOperator:
    """The input state; a pure one stays a StateVector, so its closed forms apply."""
    doc = _load_json(_one_input(args))
    if isinstance(doc, dict) and "amplitudes" in doc:
        return vector_from_json(doc, cap=args.cap)
    return density_from_json(doc, cap=args.cap)


def cmd_measure(args) -> int:
    rho = _load_state(args)
    wanted = [m.strip() for m in args.measures.split(",") if m.strip()]
    evaluators = {
        "l1": lambda: ms.l1_coherence(rho),
        "log": lambda: ms.log_coherence(rho),
        "rel": lambda: ms.rel_ent_coherence(rho),
    }
    unknown = [m for m in wanted if m not in evaluators]
    if unknown:
        raise ParseFailure(f"unknown measures {unknown}; choose from {sorted(evaluators)}")
    results = [ms.MeasureReport(measure=name, value=evaluators[name](),
                                tolerance=qk.ATOL).to_dict()
               for name in wanted]
    _emit(args, _report(args, results))
    return EXIT_OK


def cmd_interference(args) -> int:
    circuit = qc.circuit_from_json(_load_json(_one_input(args)), cap=args.cap)
    # Checked once for all three measures.
    op = qk.UnitaryOp(circuit.wires, qc.circuit_unitary(circuit))
    mux_layout = next((ins for ins in reversed(circuit.instructions)
                       if isinstance(ins, qc.Mux)), None)
    results = {m: itf.interference_power(op, m) for m in ("relative_entropy", "l1", "log")}
    whole_circuit_mux = (mux_layout is not None and len(circuit.wires.dims) == 2
                         and mux_layout.control == 0 and mux_layout.targets == (1,))
    if whole_circuit_mux:
        cu = mux_layout.multiplexer
        rng = np.random.default_rng(args.seed)
        v = qk.haar_unitary(cu.control_dim, rng)
        r1, r2 = itf.interference_additivity_check(v, cu)
        results["additivity_residuals_random_control"] = [r1, r2]
    _emit(args, _report(args, results))
    return EXIT_OK


def cmd_wigner(args) -> int:
    rho = _load_state(args)
    d = rho.spec.total_dim
    table = wg.wigner_function(rho, d)
    results = {"d": d,
               "table": table.values,
               "sum_negativity": wg.sum_negativity(table),
               "mana": wg.mana(table)}
    _emit(args, _report(args, results))
    return EXIT_OK


def cmd_circuit(args) -> int:
    paths = args.inputs
    circuit = qc.circuit_from_json(_load_json(paths[0]), cap=args.cap)
    if len(paths) > 1:
        state = vector_from_json(_load_json(paths[1]), cap=args.cap)
    else:
        state = qk.zero_state(circuit.wires.dims)
    branches = qc.simulate(circuit, state)
    results = {
        "free_circuit": qc.free_circuit_check(circuit),
        # Each state's [re, im] rows stay a float64 array, which the writer
        # formats from its bits into the same text as vector_to_json's lists.
        "branches": [{"outcomes": b.outcomes, "probability": b.probability,
                      "state": {"dims": list(b.state.spec.dims),
                                "amplitudes": qk._complex_pairs(b.state.amplitudes)}}
                     for b in branches],
        "branch_probability_sum": float(sum(b.probability for b in branches)),
    }
    _emit(args, _report(args, results))
    return EXIT_OK


def cmd_protocol(args) -> int:
    rng = np.random.default_rng(args.seed)
    config = _load_json(args.config) if args.config else {}
    name = args.name
    # Every config key is read here, so a malformed config exits 2, and the
    # mbqc row is checked against --cap before any dense work (exit 4).
    with qk._parsing("protocol config"):
        if name == "chsh":
            rounds = _int_key(config, "rounds", 1000)
            if rounds < 1:
                raise ParseFailure(f"rounds must be >= 1, got {rounds}")
            _bounded(rounds, MAX_CHSH_ROUNDS, "rounds")
        else:
            state = (vector_from_json(config["state"], cap=args.cap) if "state" in config
                     else None)
        if name == "btt":
            key = pr.PauliKey(*_int_key(config, "key", [1, 1], count=2))
        elif name == "pmqc":
            programs = config.get("programs", [["H", "T"]])
            if not isinstance(programs, list) or not all(
                    isinstance(gates, list) and all(isinstance(g, str) for g in gates)
                    for gates in programs):
                raise ParseFailure(f"programs must be lists of gate names, got {programs!r}")
            cz_after = _int_key(config, "cz_after", count=2) if "cz_after" in config else None
            resources = (pr.PMQCResources(_int_key(config["resources"], "ebits"),
                                          _int_key(config["resources"], "pr_boxes"))
                         if "resources" in config else None)
        elif name == "mbqc":
            angles = config.get("angles", [0.0])
            if type(angles) is not list:
                raise ParseFailure(f"angles must be a list of JSON numbers, got {angles!r}")
            angles = [qk._json_float(a, "each angle") for a in angles]
            qk.HilbertSpec((2,) * (len(angles) + 1), cap=args.cap)
            adaptive = config.get("adaptive", True)
            if not isinstance(adaptive, bool):
                raise ParseFailure(f"adaptive must be a JSON bool, got {adaptive!r}")
    if name == "chsh":
        results = {"win_rate_exhaustive": pr.chsh_game(),
                   "win_rate_sampled": pr.chsh_game(rounds=rounds, rng=rng),
                   "verdict": "pass"}
    elif name == "btt":
        psi = state if state is not None else qk.random_state((2,), rng)
        t_psi = qk.apply_unitary(psi, qk.T)
        worst = 1.0
        transcripts_ok = True
        for prob, res in pr.btt_branches(psi, key):
            dec = pr.decrypt_pads(res.output, [(res.new_key.a, res.new_key.b)])
            worst = min(worst, qk.state_fidelity(dec, t_psi))
            transcripts_ok &= pr.lobc_violations(res.transcript) == 0
        results = {"min_fidelity": worst, "lobc_clean": bool(transcripts_ok),
                   "verdict": "pass" if worst >= 1 - 1e-10 and transcripts_ok else "fail"}
    elif name == "pmqc":
        nq = len(programs)
        plaintext = state if state is not None else qk.random_state((2,) * nq, rng)
        src = pr.SamplingSource(rng)
        res = pr.pmqc_run(plaintext, programs, cz_after, source=src, resources=resources)
        dec = pr.decrypt_pads(res.output, res.keys)
        ideal = qk.StateVector(plaintext.spec,
                               pr.program_unitary(programs, cz_after) @ plaintext.amplitudes)
        fid = qk.state_fidelity(dec, ideal)
        results = {"fidelity": fid,
                   "ebits_consumed": res.ebits_consumed,
                   "pr_boxes_consumed": res.pr_boxes_consumed,
                   "t_events": res.t_events,
                   "lobc_clean": pr.lobc_violations(res.transcript) == 0,
                   "verdict": "pass" if fid >= 1 - 1e-9 else "fail"}
    elif name == "mbqc":
        psi = state if state is not None else qk.random_state((2,), rng)
        branches = pr.mbqc_gate(angles, psi, adaptive=adaptive)
        target = qk.StateVector(psi.spec, pr.mbqc_target(angles) @ psi.amplitudes)
        fids = [qk.state_fidelity(b.corrected, target) for b in branches]
        results = {"branches": len(branches), "min_fidelity": min(fids),
                   "verdict": "pass" if min(fids) >= 1 - 1e-9 else "fail"}
    _emit(args, _report(args, results))
    if results["verdict"] == "fail":
        raise InvariantError(f"{name} verification failed")
    return EXIT_OK


def cmd_hamiltonian(args) -> int:
    action = args.action
    if action == "stoquastic":
        doc = _load_json(_one_input(args))
        with qk._parsing("hamiltonian document"):
            h = (ham.termsum_from_json(doc, cap=args.cap) if "terms" in doc
                 else matrix_from_json(doc["matrix"], cap=args.cap))
        results = {"stoquastic": ham.is_stoquastic(h)}
    elif action == "trotter":
        t, steps = float(args.time), int(args.steps)
        if not np.isfinite(t):
            raise InvariantError(f"--time must be finite, got {args.time!r}")
        terms = ham.termsum_from_json(_load_json(_one_input(args)), cap=args.cap)
        exact = ham.exact_evolve(terms, t)
        results = {"time": t, "steps": steps,
                   "error": ham.trotter_error(terms, t, steps, exact),
                   "error_half_steps": ham.trotter_error(terms, t, max(1, steps // 2), exact)}
    elif action == "hqca":
        doc = _load_json(_one_input(args))
        with qk._parsing("hqca document"):
            layers = [{_pair_start(k): _int_key(layer, k) for k in layer}
                      for layer in doc["layers"]]
            data = vector_from_json(doc["data"], cap=args.cap)
        out = ham.hqca_run(layers, data)
        direct = ham.hqca_direct(layers, data)
        fid = qk.state_fidelity(out, direct)
        results = {"fidelity_vs_direct": fid, "layers": len(layers)}
    elif action == "history":
        length = int(args.length)
        if length < 0:
            raise ParseFailure(f"--length must be >= 0, got {length}")
        us = [np.eye(2, dtype=complex)] * length
        hs = ham.history_state(us, qk.zero_state((2,)), cap=args.cap)
        results = {"L": length,
                   "clock_probabilities": [float(p) for p in ham.clock_probabilities(hs)]}
    elif action == "gap":
        grid = _bounded(args.grid, MAX_GAP_GRID, "--grid")
        doc = _load_json(_one_input(args))
        with qk._parsing("gap document"):
            h0 = matrix_from_json(doc["h_start"], cap=args.cap)
            h1 = matrix_from_json(doc["h_end"], cap=args.cap)
        d = max(h0.shape + h1.shape)
        _bounded(grid * d ** 3, MAX_GAP_WORK, "gap-scan work --grid * d^3")
        scan = ham.adiabatic_gap_scan(h0, h1, grid)
        s_min, g_min = ham.min_gap(scan)
        if args.out:
            _write_gap_csv(args.out, scan)
            sys.stdout.write(json.dumps({"min_gap": g_min, "at": s_min}) + "\n")
            return EXIT_OK
        results = {"scan": np.array(scan, dtype=np.float64), "min_gap": g_min, "at": s_min}
    _emit(args, _report(args, results))
    return EXIT_OK


def cmd_algorithm(args) -> int:
    rng = np.random.default_rng(args.seed)
    config = _load_json(args.config) if args.config else {}
    name = args.name
    # Every config key is read here, so a malformed config exits 2, and every
    # register size is checked against --cap before any dense work (exit 4).
    with qk._parsing("algorithm config"):
        if name == "one-control":
            n = _int_key(config, "qubits", 2)
            eps = qk._json_float(config.get("epsilon", 0.01), "key 'epsilon'")
            u = matrix_from_json(config["u"], cap=args.cap) if "u" in config else None
            qk.HilbertSpec((2, 2 ** n if u is None else len(u)), cap=args.cap)
        elif name == "lcu":
            coeffs = qk._decode_complex(config.get(
                "coeffs", [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]]), 1, "lcu coefficients")
            us = ([matrix_from_json(m, cap=args.cap) for m in config["unitaries"]]
                  if "unitaries" in config else [qk.X, qk.Z])
            psi = (vector_from_json(config["state"], cap=args.cap) if "state" in config
                   else qk.zero_state((us[0].shape[0],)))
        elif name == "grover":
            grover = (_int_key(config, "n", 2), _int_key(config, "marked", 0),
                      _bounded(_int_key(config, "iterations", 1), MAX_GROVER_ITERATIONS,
                               "iterations"))
            qk.HilbertSpec((2 ** grover[0],), cap=args.cap)
        elif name == "sandwich":
            d1 = _int_key(config, "control_dim", 2)
            d2 = _int_key(config, "data_dim", 2)
            qk.HilbertSpec((d1, d2), cap=args.cap)
    if name == "one-control":
        report = alg.one_control_report(u if u is not None else qk.haar_unitary(2 ** n, rng),
                                        eps)
    elif name == "lcu":
        out, prob = alg.lcu_apply(coeffs, us, psi)
        report = alg.AlgorithmReport(
            algorithm="linear-combination-of-unitaries",
            parameters={"terms": len(us)},
            success_probabilities=(prob,))
    elif name == "grover":
        report = alg.grover_report(*grover)
    elif name == "sandwich":
        cu = itf.Multiplexer(tuple(qk.haar_unitary(d2, rng) for _ in range(d1)))
        v, w = qk.haar_unitary(d1, rng), qk.haar_unitary(d1, rng)
        direct = alg.sandwiched_interference(v, cu, w)
        via_dual = itf.interference_power(
            np.kron(v, np.eye(d2)) @ cu.matrix @ np.kron(w, np.eye(d2)))
        report = alg.AlgorithmReport(
            algorithm="sandwiched-circuit",
            parameters={"control_dim": d1, "data_dim": d2},
            interference_terms={"formula": direct, "dual_state": via_dual},
            residuals={"route_mismatch": abs(direct - via_dual)})
    _emit(args, _report(args, report.to_dict()))
    return EXIT_OK


def cmd_make_goldens(args) -> int:
    outdir = Path(args.out or "goldens")
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    gates = ["H", "X", "Y", "Z", "T", "S", "CX", "CZ", "CCX"]
    interference_table = {name: itf.interference_power(qk.GATES[name]) for name in gates}

    one_control_table = {}
    for eps in (1e-3, 1e-2, 0.1):
        v = alg.rotation_v(eps)
        one_control_table[f"{eps:g}"] = {
            "c_l1": itf.interference_power(v, "l1"),
            "c_rel": itf.interference_power(v),
            "residual_random_u": alg.one_control_interference_decomposition(
                qk.haar_unitary(4, rng), eps),
        }

    stab = wg.stabilizer_states(3)
    mana_table = [wg.mana(wg.wigner_function(s, 3)) for s in stab.states]

    hw = ham.walk_hamiltonian(3)
    scan = ham.adiabatic_gap_scan(qk.Z / np.sqrt(2), qk.X / np.sqrt(2), 101)
    s_min, g_min = ham.min_gap(scan)

    goldens = {
        "interference_relative_entropy": interference_table,
        "one_control_qubit": one_control_table,
        "qutrit_stabilizer_mana": mana_table,
        "walk_hamiltonian_L3": np.ascontiguousarray(hw.real),
        "walk_gap_L3": 1.0 - float(np.cos(np.pi / 4)),
        "unit_norm_z_to_x_min_gap": {"gap": g_min, "at": s_min},
        "chsh_win_rate": pr.chsh_game(),
    }
    (outdir / "goldens.json").write_text(_serialize(_report(args, goldens)),
                                         encoding="utf-8")
    _write_gap_csv(outdir / "gap_scan_unit_norm_z_to_x.csv", scan)
    sys.stdout.write(f"wrote goldens to {outdir}\n")
    return EXIT_OK


def _one_input(args) -> str:
    if not args.inputs:
        raise ParseFailure("this subcommand needs --in PATH")
    return args.inputs[0]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--in", dest="inputs", action="append", default=[],
                   metavar="PATH", help="input file (repeatable)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    p.add_argument("--cap", type=int, default=qk.DEFAULT_DIM_CAP,
                   help="dimension cap (default 4096)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqres", description="quantum-resource analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="coherence measures of a state file")
    p.add_argument("--measures", default="l1,log,rel")
    _add_common(p)

    p = sub.add_parser("interference", help="interference power of a unitary circuit")
    _add_common(p)

    p = sub.add_parser("wigner", help="Wigner table, negativity and mana of a state")
    _add_common(p)

    p = sub.add_parser("circuit", help="simulate a circuit file (optionally on a state)")
    _add_common(p)

    p = sub.add_parser("protocol", help="run and verify a protocol")
    p.add_argument("name", choices=["btt", "pmqc", "chsh", "mbqc"])
    p.add_argument("--config", default=None, help="protocol config JSON")
    _add_common(p)

    p = sub.add_parser("hamiltonian", help="stoquastic / trotter / hqca / history / gap")
    p.add_argument("action", choices=["stoquastic", "trotter", "hqca", "history", "gap"])
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--grid", type=int, default=101)
    _add_common(p)

    p = sub.add_parser("algorithm", help="algorithm resource reports")
    p.add_argument("name", choices=["one-control", "lcu", "grover", "sandwich"])
    p.add_argument("--config", default=None)
    _add_common(p)

    p = sub.add_parser("make-goldens", help="regenerate the golden acceptance tables")
    _add_common(p)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # Looked up by name on each call, not bound when the parser was built, so
    # a ``cmd_*`` function rebound after import (a profiler's wrapper) runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ParseFailure as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except CapExceededError as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except ResourceError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return EXIT_INVARIANT
    except InvariantError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
