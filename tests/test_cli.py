import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqres import cli
from uqres import qkernel as qk


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def plus_doc():
    r = 2 ** -0.5
    return {"dims": [2], "amplitudes": [[r, 0.0], [r, 0.0]]}


def run(argv):
    return cli.main(argv)


def test_measure_plus(tmp_path, capsys):
    state = tmp_path / "plus.json"
    write_json(state, plus_doc())
    assert run(["measure", "--in", str(state), "--measures", "l1,log,rel"]) == 0
    doc = json.loads(capsys.readouterr().out)
    values = {r["measure"]: r["value"] for r in doc["results"]}
    assert values["l1"] == pytest.approx(1.0, abs=1e-9)
    assert values["log"] == pytest.approx(1.0, abs=1e-9)
    assert values["rel"] == pytest.approx(1.0, abs=1e-9)
    assert doc["toolkit_version"]


def test_measure_zero_state(tmp_path, capsys):
    state = tmp_path / "zero.json"
    write_json(state, {"dims": [2], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
    assert run(["measure", "--in", str(state)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(r["value"] == pytest.approx(0.0, abs=1e-12) for r in doc["results"])


def test_measure_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert run(["measure", "--in", str(bad)]) == 2


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b'{"iterations": 1' + b"0" * 5000 + b"}"])
def test_unreadable_config_exits_2(tmp_path, text):
    # Bytes that are not UTF-8, and an integer too long for Python to convert.
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert run(["algorithm", "grover", "--config", str(bad)]) == 2


def test_measure_invariant_violation_exits_3(tmp_path):
    state = tmp_path / "unnormalized.json"
    write_json(state, {"dims": [2], "amplitudes": [[1.0, 0.0], [1.0, 0.0]]})
    assert run(["measure", "--in", str(state)]) == 3


def test_cap_exceeded_exits_4(tmp_path):
    state = tmp_path / "big.json"
    n = 13
    amps = [[0.0, 0.0]] * (2 ** n)
    amps[0] = [1.0, 0.0]
    write_json(state, {"dims": [2] * n, "amplitudes": amps})
    assert run(["measure", "--in", str(state)]) == 4


def test_interference_h_and_cx(tmp_path, capsys):
    h = tmp_path / "h.json"
    write_json(h, {"wires": [2], "ops": [{"type": "gate", "name": "H", "wires": [0]}]})
    assert run(["interference", "--in", str(h)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["relative_entropy"] == pytest.approx(1.0, abs=1e-9)

    cx = tmp_path / "cx.json"
    write_json(cx, {"wires": [2, 2],
                    "ops": [{"type": "gate", "name": "CX", "wires": [0, 1]}]})
    assert run(["interference", "--in", str(cx)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["relative_entropy"] == pytest.approx(0.0, abs=1e-12)


def test_interference_rejects_measurement(tmp_path):
    bad = tmp_path / "meas.json"
    write_json(bad, {"wires": [2],
                     "ops": [{"type": "measure", "wire": 0, "basis": "Z",
                              "out": "m"}]})
    assert run(["interference", "--in", str(bad)]) == 3


def test_wigner_subcommand(tmp_path, capsys):
    state = tmp_path / "qutrit.json"
    r = 3 ** -0.5
    write_json(state, {"dims": [3],
                       "amplitudes": [[r, 0.0], [r, 0.0], [r, 0.0]]})
    assert run(["wigner", "--in", str(state)]) == 0
    doc = json.loads(capsys.readouterr().out)
    table = np.array(doc["results"]["table"])
    assert abs(table.sum() - 1) < 1e-9
    assert doc["results"]["mana"] >= 0


def test_wigner_subcommand_builds_one_table_from_the_pure_state(tmp_path, capsys, monkeypatch):
    from uqres import wigner as wg

    state = tmp_path / "qutrit.json"
    r = 3 ** -0.5
    write_json(state, {"dims": [3], "amplitudes": [[r, 0.0], [0.0, r], [-r, 0.0]]})
    inputs = []
    real = wg.wigner_function
    monkeypatch.setattr(wg, "wigner_function",
                        lambda rho, d: inputs.append(type(rho)) or real(rho, d))
    assert run(["wigner", "--in", str(state)]) == 0
    assert inputs == [qk.StateVector]
    doc = json.loads(capsys.readouterr().out)["results"]
    assert doc["mana"] == pytest.approx(np.log2(2 * doc["sum_negativity"] + 1), abs=1e-15)


def test_circuit_subcommand(tmp_path, capsys):
    circ = tmp_path / "bell.json"
    write_json(circ, {"wires": [2, 2], "ops": [
        {"type": "gate", "name": "H", "wires": [0]},
        {"type": "gate", "name": "CX", "wires": [0, 1]},
        {"type": "measure", "wire": 0, "basis": "Z", "out": "m0"},
        {"type": "measure", "wire": 1, "basis": "Z", "out": "m1"},
    ]})
    assert run(["circuit", "--in", str(circ)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["branch_probability_sum"] == pytest.approx(1.0, abs=1e-9)
    assert len(doc["results"]["branches"]) == 2
    assert not doc["results"]["free_circuit"]


def test_circuit_subcommand_with_input_state(tmp_path, capsys):
    circ = tmp_path / "teleport.json"
    r = 2 ** -0.5
    write_json(circ, {"wires": [2, 2], "ops": [
        {"type": "gate", "name": "H", "wires": [1]},
        {"type": "gate", "name": "CZ", "wires": [0, 1]},
        {"type": "measure", "wire": 0, "basis": "X", "out": "s"},
        {"type": "cond", "when": {"s": 1},
         "gate": {"wires": [1], "matrix": [[[0.0, 0.0], [1.0, 0.0]],
                                           [[1.0, 0.0], [0.0, 0.0]]]}},
        {"type": "discard", "wire": 0},
    ]})
    state = tmp_path / "in.json"
    write_json(state, {"dims": [2, 2],
                       "amplitudes": [[r, 0.0], [0.0, 0.0], [r, 0.0], [0.0, 0.0]]})
    assert run(["circuit", "--in", str(circ), "--in", str(state)]) == 0
    doc = json.loads(capsys.readouterr().out)
    # |+> teleported through H lands back on |0> in every branch
    for b in doc["results"]["branches"]:
        amp0 = b["state"]["amplitudes"][0]
        assert abs(complex(amp0[0], amp0[1])) == pytest.approx(1.0, abs=1e-9)


def test_protocol_chsh(capsys):
    assert run(["protocol", "chsh"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["win_rate_exhaustive"] == 1.0


def test_protocol_btt(capsys):
    assert run(["protocol", "btt"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["verdict"] == "pass"
    assert doc["results"]["min_fidelity"] >= 1 - 1e-10


def test_protocol_pmqc(tmp_path, capsys):
    config = tmp_path / "pmqc.json"
    write_json(config, {"programs": [["H", "T"]]})
    assert run(["protocol", "pmqc", "--config", str(config), "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["verdict"] == "pass"
    assert doc["results"]["t_events"] == 1


def test_protocol_pmqc_shortfall(tmp_path, capsys):
    config = tmp_path / "pmqc.json"
    write_json(config, {"programs": [["T", "T"]],
                        "resources": {"ebits": 1, "pr_boxes": 1}})
    assert run(["protocol", "pmqc", "--config", str(config)]) == 3


@pytest.mark.parametrize("cz_after", [[1], [1, 2, 3], 5, ["a", "b"]])
def test_protocol_pmqc_malformed_cz_after_exits_2(tmp_path, cz_after):
    config = tmp_path / "pmqc.json"
    write_json(config, {"programs": [["H"], ["T"]], "cz_after": cz_after})
    assert run(["protocol", "pmqc", "--config", str(config)]) == 2


def test_protocol_mbqc(capsys):
    assert run(["protocol", "mbqc", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["verdict"] == "pass"


def test_hamiltonian_stoquastic(tmp_path, capsys):
    doc_path = tmp_path / "mx.json"
    write_json(doc_path, {"matrix": [[[0.0, 0.0], [-1.0, 0.0]],
                                     [[-1.0, 0.0], [0.0, 0.0]]]})
    assert run(["hamiltonian", "stoquastic", "--in", str(doc_path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["stoquastic"] is True


def test_hamiltonian_history(capsys):
    assert run(["hamiltonian", "history", "--length", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["clock_probabilities"] == pytest.approx([0.25] * 4)


def test_hamiltonian_gap_csv(tmp_path, capsys):
    doc_path = tmp_path / "gap.json"
    z = [[[2 ** -0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-(2 ** -0.5), 0.0]]]
    x = [[[0.0, 0.0], [2 ** -0.5, 0.0]], [[2 ** -0.5, 0.0], [0.0, 0.0]]]
    write_json(doc_path, {"h_start": z, "h_end": x})
    out_csv = tmp_path / "scan.csv"
    assert run(["hamiltonian", "gap", "--in", str(doc_path), "--grid", "101",
                "--out", str(out_csv)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["min_gap"] == pytest.approx(1.0, abs=1e-9)
    assert summary["at"] == pytest.approx(0.5, abs=1e-9)
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,gap"
    assert len(lines) == 102


def test_hamiltonian_trotter(tmp_path, capsys):
    from uqres import hamiltonian as ham
    terms = ham.TermSum(qk.HilbertSpec((2,)),
                        (ham.HamiltonianTerm((0,), qk.X, 1.0),
                         ham.HamiltonianTerm((0,), qk.Z, 1.0)))
    doc_path = tmp_path / "terms.json"
    write_json(doc_path, ham.termsum_to_json(terms))
    assert run(["hamiltonian", "trotter", "--in", str(doc_path),
                "--time", "1.0", "--steps", "32"]) == 0
    doc = json.loads(capsys.readouterr().out)
    ratio = doc["results"]["error_half_steps"] / doc["results"]["error"]
    assert 1.7 < ratio < 2.3


def test_algorithm_grover(capsys):
    assert run(["algorithm", "grover"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["success_probabilities"][-1] == pytest.approx(1.0, abs=1e-9)


def test_algorithm_one_control(capsys):
    assert run(["algorithm", "one-control", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["residuals"]["additive_decomposition"] < 1e-9


def test_reports_are_deterministic(tmp_path):
    state = tmp_path / "plus.json"
    write_json(state, plus_doc())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["measure", "--in", str(state), "--seed", "9",
                "--out", str(out1)]) == 0
    assert run(["measure", "--in", str(state), "--seed", "9",
                "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    assert run(["make-goldens", "--out", str(g1), "--seed", "1"]) == 0
    assert run(["make-goldens", "--out", str(g2), "--seed", "1"]) == 0
    assert (g1 / "goldens.json").read_bytes() == (g2 / "goldens.json").read_bytes()


def test_make_goldens_contents(tmp_path):
    out = tmp_path / "goldens"
    assert run(["make-goldens", "--out", str(out)]) == 0
    doc = json.loads((out / "goldens.json").read_text())
    table = doc["results"]["interference_relative_entropy"]
    assert table["H"] == pytest.approx(1.0, abs=1e-9)
    assert all(table[g] == pytest.approx(0.0, abs=1e-9)
               for g in ("X", "Y", "Z", "T", "S", "CX", "CZ", "CCX"))
    assert max(doc["results"]["qutrit_stabilizer_mana"]) < 1e-12
    assert doc["results"]["chsh_win_rate"] == 1.0
    assert (out / "gap_scan_unit_norm_z_to_x.csv").exists()


# Malformed documents exit 2 -------------------------------------------------

def _bell_ops():
    return [{"type": "gate", "name": "H", "wires": [0]},
            {"type": "gate", "name": "CX", "wires": [0, 1]}]


def _cnot_mux(control, targets):
    one, zero = [1.0, 0.0], [0.0, 0.0]
    return {"type": "mux", "control": control, "targets": targets,
            "branches": [[[one, zero], [zero, one]], [[zero, one], [one, zero]]]}


def _z_term(sites):
    return {"sites": sites, "j": 1.0,
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}


def _qubits_doc(n):
    return {"dims": [2] * n, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * (2 ** n - 1)}


MALFORMED = {
    "circuit-without-wires": ("circuit", {"ops": _bell_ops()}),
    "measure-without-out": ("circuit", {"wires": [2, 2], "ops": _bell_ops() + [
        {"type": "measure", "wire": 0, "basis": "Z"}]}),
    "stoquastic-ragged-matrix": ("hamiltonian stoquastic", {"matrix": [
        [[0.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0]]]}),
    "term-without-j": ("hamiltonian trotter", {"dims": [2], "terms": [
        {"sites": [0], "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}]}),
    "amplitude-with-three-numbers": ("measure", {"dims": [2], "amplitudes": [
        [1.0, 0.0, 0.5], [0.0, 0.0, 0.0]]}),
    "hqca-layer-value-a-float": ("hamiltonian hqca", {"layers": [{"0": 1.0}], "data": {
        "dims": [2, 2], "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}}),
    "hqca-layer-value-a-bool": ("hamiltonian hqca", {"layers": [{"0": True}], "data": {
        "dims": [2, 2], "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}}),
    # A layer key is a canonical decimal integer; int() alone reads each of these as 0.
    **{f"hqca-layer-key-{name}": ("hamiltonian hqca", {"layers": [{key: 1}],
                                                       "data": _qubits_doc(2)})
       for name, key in (("space", " 0"), ("plus", "+0"), ("leading-zero", "00"),
                         ("arabic-indic-digit", "\u0660"), ("underscore", "0_0"))},
    # Integer fields take JSON integers only; none of these is truncated.
    "state-dims-fractional": ("measure", {"dims": [2.9], "amplitudes": [
        [1.0, 0.0], [0.0, 0.0]]}),
    "state-dims-integral-float": ("measure", {"dims": [2.0], "amplitudes": [
        [1.0, 0.0], [0.0, 0.0]]}),
    "state-dims-a-bool": ("measure", {"dims": [True], "amplitudes": [[1.0, 0.0]]}),
    "circuit-wires-fractional": ("circuit", {"wires": [2.5, 2], "ops": _bell_ops()}),
    "circuit-wires-a-string": ("circuit", {"wires": "22", "ops": _bell_ops()}),
    "gate-wires-a-float": ("circuit", {"wires": [2, 2], "ops": [
        {"type": "gate", "name": "H", "wires": [0.0]}]}),
    "measure-wire-a-bool": ("circuit", {"wires": [2, 2], "ops": _bell_ops() + [
        {"type": "measure", "wire": True, "out": "m"}]}),
    "discard-wire-a-float": ("circuit", {"wires": [2, 2], "ops": _bell_ops() + [
        {"type": "discard", "wire": 1.0}]}),
    "mux-control-a-float": ("circuit", {"wires": [2, 2], "ops": [_cnot_mux(0.0, [1])]}),
    "mux-targets-a-bool": ("circuit", {"wires": [2, 2], "ops": [_cnot_mux(0, [True])]}),
    "cond-when-a-float": ("circuit", {"wires": [2, 2], "ops": _bell_ops() + [
        {"type": "measure", "wire": 0, "out": "m"},
        {"type": "cond", "when": {"m": 1.0}, "gate": {"name": "X", "wires": [1]}}]}),
    "term-sum-dims-fractional": ("hamiltonian trotter", {"dims": [2.7, 2], "terms": [
        _z_term([0])]}),
    "term-sites-a-float": ("hamiltonian trotter", {"dims": [2, 2], "terms": [
        _z_term([0.0])]}),
    # Real fields take JSON numbers only: a bool is not 1, a string is not parsed.
    "term-weight-a-bool": ("hamiltonian trotter", {"dims": [2], "terms": [
        {**_z_term([0]), "j": True}]}),
    "term-weight-a-string": ("hamiltonian trotter", {"dims": [2], "terms": [
        {**_z_term([0]), "j": "0.5"}]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2(tmp_path, case):
    command, doc = MALFORMED[case]
    path = tmp_path / "doc.json"
    write_json(path, doc)
    assert run(command.split() + ["--in", str(path)]) == 2


@pytest.mark.parametrize("layers", [[{"-2": 1}], [{"0": 0}, {"-1": 1}]])
def test_hqca_negative_pair_start_exits_3(tmp_path, layers):
    # Once an uncaught ValueError (exit 1): a pair must lie on the data wires.
    path = tmp_path / "hqca.json"
    write_json(path, {"layers": layers, "data": _qubits_doc(2)})
    assert run(["hamiltonian", "hqca", "--in", str(path)]) == 3


def test_cond_gate_given_by_name_runs(tmp_path, capsys):
    circ = tmp_path / "teleport.json"
    write_json(circ, {"wires": [2, 2], "ops": [
        {"type": "gate", "name": "H", "wires": [1]},
        {"type": "gate", "name": "CZ", "wires": [0, 1]},
        {"type": "measure", "wire": 0, "basis": "X", "out": "s"},
        {"type": "cond", "when": {"s": 1}, "gate": {"name": "X", "wires": [1]}},
        {"type": "discard", "wire": 0},
    ]})
    assert run(["circuit", "--in", str(circ)]) == 0
    doc = json.loads(capsys.readouterr().out)
    # H|0> = |+> on both branches once the X fix is applied on s = 1
    r = 2 ** -0.5
    for b in doc["results"]["branches"]:
        amps = [complex(*a) for a in b["state"]["amplitudes"]]
        assert abs(abs(np.vdot([r, r], amps)) - 1.0) < 1e-12


# --cap is enforced -----------------------------------------------------------

def test_circuit_cap_flag_exits_4(tmp_path):
    circ = tmp_path / "six.json"
    write_json(circ, {"wires": [2] * 6,
                      "ops": [{"type": "gate", "name": "H", "wires": [0]}]})
    assert run(["circuit", "--in", str(circ), "--cap", "4"]) == 4


def test_measure_cap_flag_exits_4(tmp_path):
    state = tmp_path / "three.json"
    write_json(state, {"dims": [2, 2, 2],
                       "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7})
    assert run(["measure", "--in", str(state), "--cap", "4"]) == 4


def test_hamiltonian_history_cap_flag_exits_4():
    # A 202-dim space: 2 data levels times 101 clock levels.
    assert run(["hamiltonian", "history", "--length", "100", "--cap", "8"]) == 4


@pytest.mark.parametrize("name, config", [
    ("grover", {"n": 3}),
    ("one-control", {"qubits": 3}),
    ("sandwich", {"control_dim": 4, "data_dim": 4}),
])
def test_algorithm_cap_flag_exits_4(tmp_path, name, config):
    path = tmp_path / "config.json"
    write_json(path, config)
    assert run(["algorithm", name, "--config", str(path), "--cap", "4"]) == 4


def test_protocol_mbqc_row_past_the_cap_flag_exits_4(tmp_path):
    # Five angles hold six qubits: 64 > 32.
    path = tmp_path / "config.json"
    write_json(path, {"angles": [0.1] * 5})
    assert run(["protocol", "mbqc", "--config", str(path), "--cap", "32"]) == 4


@pytest.mark.parametrize("command, flag, doc, code", [
    ("protocol mbqc", "--config", {"angles": [0.3] * 6}, 0),
    ("protocol mbqc", "--config", {"angles": [0.3] * 11}, 0),
    ("protocol mbqc", "--config", {"angles": [0.3] * 12}, 4),
    ("algorithm grover", "--config", {"n": 7, "marked": 100, "iterations": 8}, 0),
    ("algorithm one-control", "--config", {"qubits": 7}, 0),
    ("hamiltonian hqca", "--in", {"layers": [{"0": 1, "2": 2}, {"3": 1}],
                                  "data": _qubits_doc(5)}, 0),
    ("hamiltonian hqca", "--in", {"layers": [{"0": 1}], "data": _qubits_doc(10)}, 4),
], ids=["mbqc-6", "mbqc-11", "mbqc-12", "grover-7", "one-control-7", "hqca-5", "hqca-10"])
def test_the_dimension_cap_is_the_only_size_rule(tmp_path, command, flag, doc, code):
    # Runs past the old hand-set limits (6-qubit rows and search registers,
    # 64-row data registers, 4 data qubits) exit 0 within the cap and 4 past it.
    path = tmp_path / "doc.json"
    write_json(path, doc)
    argv = command.split() + [flag, str(path), "--out", str(tmp_path / "report.json")]
    assert run(argv) == code


@pytest.mark.parametrize("n", [64, 20000])
def test_grover_beyond_the_cap_exits_4(tmp_path, capsys, n):
    # 2^20000 has more than 4300 digits, more than Python will print.
    path = tmp_path / "config.json"
    write_json(path, {"n": n})
    assert run(["algorithm", "grover", "--config", str(path)]) == 4
    assert f"total dimension ~2^{n} exceeds cap" in capsys.readouterr().err


def test_grover_negative_iterations_exits_3(tmp_path):
    path = tmp_path / "config.json"
    write_json(path, {"iterations": -1})
    assert run(["algorithm", "grover", "--config", str(path)]) == 3


def test_grover_ten_million_iterations_exits_4_at_once(tmp_path, capsys):
    path = tmp_path / "config.json"
    write_json(path, {"iterations": 10 ** 7})
    start = time.perf_counter()
    assert run(["algorithm", "grover", "--config", str(path)]) == 4
    assert time.perf_counter() - start < 1.0
    assert f"exceeds its bound {cli.MAX_GROVER_ITERATIONS}" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, bound", [
    ("algorithm grover", "iterations", cli.MAX_GROVER_ITERATIONS),
    ("protocol chsh", "rounds", cli.MAX_CHSH_ROUNDS),
])
def test_loop_counts_past_their_bound_exit_4(tmp_path, command, key, bound):
    path = tmp_path / "config.json"
    for count in (bound + 1, 10 ** 30):
        write_json(path, {key: count})
        assert run(command.split() + ["--config", str(path)]) == 4


def test_gap_grid_past_its_bound_exits_4(tmp_path):
    # Checked when the flag is read: the endpoint file is never opened.
    missing = tmp_path / "missing.json"
    grid = str(cli.MAX_GAP_GRID + 1)
    assert run(["hamiltonian", "gap", "--in", str(missing), "--grid", grid]) == 4


def _matrix(d):
    return [[[float(i == j), 0.0] for j in range(d)] for i in range(d)]


@pytest.mark.parametrize("grid, code", [(2048, 0), (2049, 4)])
def test_gap_scan_work_past_its_bound_exits_4_before_any_eigvalsh(tmp_path, monkeypatch,
                                                                  grid, code):
    # At d = 128, --grid 2048 is exactly MAX_GAP_WORK = grid * d^3; one more
    # point is past it and exits 4 before the scan takes a single eigvalsh.
    assert 2048 * 128 ** 3 == cli.MAX_GAP_WORK
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda h: calls.append(h.shape) or np.array([0.0, 1.0]))
    path = tmp_path / "gap.json"
    write_json(path, {"h_start": _matrix(128), "h_end": _matrix(128)})
    argv = ["hamiltonian", "gap", "--in", str(path), "--grid", str(grid),
            "--out", str(tmp_path / "scan.csv")]
    assert run(argv) == code
    assert len(calls) == (grid if code == 0 else 0)


@pytest.mark.parametrize("command, doc", [
    ("hamiltonian stoquastic --in", {"matrix": _matrix(3)}),
    ("hamiltonian gap --in", {"h_start": _matrix(3), "h_end": _matrix(3)}),
    ("algorithm lcu --config", {"coeffs": [[1.0, 0.0]], "unitaries": [_matrix(3)]}),
    ("algorithm one-control --config", {"u": _matrix(3)}),
], ids=["stoquastic", "gap", "lcu", "one-control"])
def test_raw_matrix_over_the_cap_flag_exits_4(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    write_json(path, doc)
    assert run(command.split() + [str(path), "--cap", "2"]) == 4
    assert "exceeds cap 2" in capsys.readouterr().err


def test_hamiltonian_history_negative_length_exits_2():
    assert run(["hamiltonian", "history", "--length", "-1"]) == 2


def test_hamiltonian_history_empty_circuit(capsys):
    assert run(["hamiltonian", "history", "--length", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["L"] == 0
    assert doc["results"]["clock_probabilities"] == [1.0]


# Non-finite Trotter inputs are invariant violations --------------------------

@pytest.mark.parametrize("weight, time", [
    (math.nan, "1.0"), (math.inf, "1.0"), (1.0, "nan"), (1.0, "inf"), (1.0, "-inf"),
])
def test_hamiltonian_trotter_non_finite_input_exits_3(tmp_path, capsys, weight, time):
    path = tmp_path / "terms.json"
    write_json(path, {"dims": [2], "terms": [{**_z_term([0]), "j": weight}]})
    assert run(["hamiltonian", "trotter", "--in", str(path), f"--time={time}"]) == 3
    assert "must be finite" in capsys.readouterr().err


# Failed verdicts exit 3 -------------------------------------------------------

def test_protocol_mbqc_failing_verdict_exits_3_with_report(tmp_path):
    config = tmp_path / "mbqc.json"
    write_json(config, {"angles": [0.3, 1.1], "adaptive": False})
    out = tmp_path / "report.json"
    assert run(["protocol", "mbqc", "--config", str(config), "--out", str(out)]) == 3
    assert json.loads(out.read_text())["results"]["verdict"] == "fail"


# Malformed --config documents exit 2 -----------------------------------------

BAD_CONFIGS = {
    "pmqc-resources-without-pr-boxes": (
        "protocol pmqc", {"programs": [["H"]], "resources": {"ebits": 3}}),
    "one-control-qubits-not-a-number": ("algorithm one-control", {"qubits": "two"}),
    "chsh-rounds-not-a-number": ("protocol chsh", {"rounds": "many"}),
    "mbqc-angles-not-a-list": ("protocol mbqc", {"angles": 0.3}),
    "pmqc-gate-not-a-string": ("protocol pmqc", {"programs": [[1]]}),
    "pmqc-gate-null": ("protocol pmqc", {"programs": [[None]]}),
    "pmqc-programs-a-string": ("protocol pmqc", {"programs": "HT"}),
    "pmqc-program-a-string": ("protocol pmqc", {"programs": ["HT"]}),
    "mbqc-adaptive-a-string": ("protocol mbqc", {"adaptive": "no"}),
    "chsh-rounds-zero": ("protocol chsh", {"rounds": 0}),
    "chsh-rounds-negative": ("protocol chsh", {"rounds": -5}),
    "one-control-qubits-infinite": ("algorithm one-control", {"qubits": math.inf}),
    # Integer keys take JSON integers only; none of these is truncated.
    "grover-n-fractional-and-marked-a-bool": ("algorithm grover", {"n": 2.9, "marked": True}),
    "grover-n-integral-float": ("algorithm grover", {"n": 2.0}),
    "grover-marked-a-bool": ("algorithm grover", {"marked": True}),
    "grover-iterations-a-float": ("algorithm grover", {"iterations": 1.0}),
    "one-control-qubits-integral-float": ("algorithm one-control", {"qubits": 2.0}),
    "one-control-qubits-a-bool": ("algorithm one-control", {"qubits": True}),
    "sandwich-control-dim-a-float": ("algorithm sandwich", {"control_dim": 2.5}),
    "sandwich-data-dim-a-bool": ("algorithm sandwich", {"data_dim": True}),
    "btt-key-bools": ("protocol btt", {"key": [True, False]}),
    "btt-key-floats": ("protocol btt", {"key": [1.0, 0.0]}),
    "btt-key-a-string": ("protocol btt", {"key": "11"}),
    "pmqc-cz-after-floats": ("protocol pmqc", {"programs": [["H"], ["T"]],
                                               "cz_after": [1.0, 0.0]}),
    "pmqc-cz-after-a-string": ("protocol pmqc", {"programs": [["H"], ["T"]],
                                                 "cz_after": "10"}),
    "pmqc-resources-fractional": ("protocol pmqc", {
        "programs": [["T"]], "resources": {"ebits": 1.5, "pr_boxes": 1}}),
    "pmqc-resources-a-bool": ("protocol pmqc", {
        "programs": [["T"]], "resources": {"ebits": 1, "pr_boxes": True}}),
    # Real keys take JSON numbers only: a bool is not 1, a string is not parsed.
    "mbqc-angle-a-bool": ("protocol mbqc", {"angles": [True]}),
    "mbqc-angle-a-string": ("protocol mbqc", {"angles": ["0.3"]}),
    "mbqc-angles-an-empty-string": ("protocol mbqc", {"angles": ""}),
    "one-control-epsilon-a-string": ("algorithm one-control", {"epsilon": "0.5"}),
    "one-control-epsilon-a-bool": ("algorithm one-control", {"epsilon": True}),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_malformed_config_exits_2(tmp_path, case):
    command, doc = BAD_CONFIGS[case]
    path = tmp_path / "config.json"
    write_json(path, doc)
    assert run(command.split() + ["--config", str(path)]) == 2


# One parser per process ----------------------------------------------------------

def test_consecutive_calls_each_see_only_their_own_arguments(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_circuit", lambda args: seen.append(
        (list(args.inputs), args.seed, args.out)) or 0)
    assert run(["circuit", "--in", "a.json", "--in", "b.json", "--seed", "5"]) == 0
    assert run(["circuit", "--in", "c.json", "--seed", "7", "--out", "r.json"]) == 0
    assert run(["circuit"]) == 0
    assert seen == [(["a.json", "b.json"], 5, None), (["c.json"], 7, "r.json"),
                    ([], 0, None)]


def test_main_only_parses(tmp_path, monkeypatch, capsys):
    def no_build():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_build)
    state = tmp_path / "plus.json"
    write_json(state, plus_doc())
    assert run(["measure", "--in", str(state)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]


# The report's tolerance is the invariant tolerance; there is no --tol flag -----

def test_tol_flag_is_rejected_and_report_keeps_invariant_tolerance(tmp_path, capsys):
    state = tmp_path / "plus.json"
    write_json(state, plus_doc())
    with pytest.raises(SystemExit) as exc:
        run(["measure", "--in", str(state), "--tol", "1e-3"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(["measure", "--in", str(state)]) == 0
    text = capsys.readouterr().out
    assert '"tolerance": 1e-10' in text
    assert all(r["tolerance"] == 1e-10 for r in json.loads(text)["results"])


# Fuzzed --config documents exit cleanly ---------------------------------------

CONFIG_KEYS = {
    "protocol btt": ("state", "key"),
    "protocol pmqc": ("state", "programs", "cz_after", "resources"),
    "protocol chsh": ("rounds",),
    "protocol mbqc": ("state", "angles", "adaptive"),
    "algorithm one-control": ("qubits", "epsilon", "u"),
    "algorithm lcu": ("coeffs", "unitaries", "state"),
    "algorithm grover": ("n", "marked", "iterations"),
    "algorithm sandwich": ("control_dim", "data_dim"),
}
SCALARS = st.one_of(st.integers(-2, 3), st.integers(-10 ** 7, 10 ** 7), st.floats(-8, 8),
                    st.sampled_from([math.inf, -math.inf, math.nan]),
                    st.sampled_from(["H", "T", "h", "S"]), st.text(max_size=3),
                    st.booleans(), st.none())
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
CONFIGS = st.sampled_from(sorted(CONFIG_KEYS)).flatmap(lambda command: st.tuples(
    st.just(command), st.dictionaries(st.sampled_from(CONFIG_KEYS[command]), VALUES)))


@settings(max_examples=400, deadline=None)
@given(CONFIGS)
def test_fuzzed_configs_exit_cleanly(tmp_path_factory, case):
    # Any value of any known key: the run succeeds, fails a verdict or an
    # invariant, hits the cap, or is a malformed config; nothing escapes.
    command, doc = case
    folder = tmp_path_factory.getbasetemp()
    write_json(folder / "fuzz_config.json", doc)
    code = run(command.split() + ["--config", str(folder / "fuzz_config.json"),
                                  "--cap", "64", "--out", str(folder / "fuzz_report.json")])
    assert code in (0, 2, 3, 4), (command, doc)


# Fuzzed input documents exit cleanly -----------------------------------------

TERM_SUM_DOC = {"dims": [2, 2], "terms": [_z_term([0]), {**_z_term([1]), "j": 0.5}]}
MATRIX_DOC = {"matrix": [[[0.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.5, 0.0]]]}
CIRCUIT_DOC = {"wires": [2, 2], "ops": [
    {"type": "gate", "name": "H", "wires": [0]},
    {"type": "gate", "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
     "wires": [1]},
    {"type": "mux", "control": 0, "targets": [1],
     "branches": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                  [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]},
    {"type": "measure", "wire": 0, "basis": "X", "out": "m"},
    {"type": "cond", "when": {"m": 1}, "gate": {"name": "Z", "wires": [1]}},
    {"type": "discard", "wire": 0}]}
DENSITY_DOC = {"dims": [2], "matrix": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]}
GAP_DOC = {"h_start": _z_term([0])["matrix"], "h_end": MATRIX_DOC["matrix"]}
HQCA_DOC = {"layers": [{"0": 1}, {"1": 2}], "data": {
    "dims": [2, 2, 2], "amplitudes": [[2 ** -0.5, 0.0]] + [[0.0, 0.0]] * 6 + [[0.0, 2 ** -0.5]]}}
INPUT_DOCUMENTS = [("hamiltonian trotter", TERM_SUM_DOC),
                   ("hamiltonian stoquastic", TERM_SUM_DOC),
                   ("hamiltonian stoquastic", MATRIX_DOC),
                   ("circuit", CIRCUIT_DOC),
                   ("measure", plus_doc()),
                   ("measure", DENSITY_DOC),
                   ("hamiltonian gap", GAP_DOC),
                   ("hamiltonian hqca", HQCA_DOC)]


def _paths(doc, prefix=()):
    """The path to every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@dataclass(frozen=True)
class NewKey:
    """A swap of the one key of the dict at a path, in place of its value."""
    text: str


def _swapped(doc, path, value):
    """A deep copy of ``doc`` with the value at ``path`` (for a ``NewKey``, its key) replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if isinstance(value, NewKey):
        (old,) = node[path[-1]].values()
        value = {value.text: old}
    node[path[-1]] = value
    return doc


ODD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, True, False, "0.5", "",
                              10 ** 400, 2 ** 64, [[1.0, 0.0]], [[[[]]]]])
HQCA_KEYS = st.sampled_from(["-1", "-2", " 0", "00", "+0", "x"]).map(NewKey)
SWAPS = st.one_of(
    st.sampled_from(INPUT_DOCUMENTS).flatmap(lambda case: st.tuples(
        st.just(case), st.sampled_from(list(_paths(case[1]))), ODD_VALUES)),
    st.tuples(st.just(INPUT_DOCUMENTS[7]), st.sampled_from([("layers", 0), ("layers", 1)]),
              HQCA_KEYS))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=600, deadline=None)
@given(SWAPS)
@example((INPUT_DOCUMENTS[0], ("terms", 0, "j"), math.nan))
@example((INPUT_DOCUMENTS[3], ("ops", 3, "out"), [[1.0, 0.0]]))
@example((INPUT_DOCUMENTS[7], ("layers", 0), NewKey("-2")))
def test_fuzzed_input_documents_exit_cleanly(tmp_path_factory, swap):
    # One value of a valid term sum, raw matrix, circuit, state, gap or hqca
    # document swapped for NaN, an infinity, a bool, a string, a huge integer
    # or a nested list, or one hqca layer key swapped for a negative, padded
    # or non-numeric one: the run succeeds, fails an invariant, hits the cap
    # or is malformed; nothing escapes.
    (command, doc), path, value = swap
    folder = tmp_path_factory.getbasetemp()
    write_json(folder / "fuzz_doc.json", _swapped(doc, path, value))
    code = run(command.split() + ["--in", str(folder / "fuzz_doc.json"), "--cap", "64",
                                  "--out", str(folder / "fuzz_report.json")])
    assert code in (0, 2, 3, 4), (command, path, value)
