"""Each invariant has one check in ``qkernel``, and every caller goes through it.

Closeness (``_require_close``), Hermiticity (``_require_hermitian``),
unitarity (``_require_unitary``), the dimension cap (``HilbertSpec``) and gate
placement (``Circuit``) each reject NaN, wrong shapes and oversized registers
the same way everywhere, and the CLI turns every such rejection into exit 3
or 4.
"""

import json

import numpy as np
import pytest

from uqres import algorithms as alg
from uqres import circuits as qc
from uqres import cli
from uqres import hamiltonian as ham
from uqres import interference as itf
from uqres import mps
from uqres import qkernel as qk
from uqres import wigner as wg
from uqres.circuits import Circuit, Cond, Gate, Measure, Mux
from uqres.qkernel import CapExceededError, HilbertSpec, InvariantError

NAN = float("nan")


def with_nan(m):
    m = np.array(m, dtype=complex)
    m.flat[0] = NAN
    return m


Q = HilbertSpec((2,))
NAN_CONSTRUCTORS = {
    "StateVector": lambda: qk.StateVector(Q, with_nan([1, 0])),
    "DensityOperator": lambda: qk.DensityOperator(Q, with_nan(np.eye(2) / 2)),
    "UnitaryOp": lambda: qk.UnitaryOp(Q, with_nan(qk.X)),
    "QuantumChannel": lambda: qk.QuantumChannel(Q, Q, (with_nan(qk.X),)),
    "Gate": lambda: Gate(with_nan(qk.H), (0,)),
    "Multiplexer": lambda: itf.Multiplexer((qk.I2, with_nan(qk.X))),
    "HamiltonianTerm": lambda: ham.HamiltonianTerm((0,), with_nan(qk.Z)),
    "WignerTable": lambda: wg.WignerTable(3, with_nan(np.full((3, 3), 1 / 9)).real),
}


@pytest.mark.parametrize("name", sorted(NAN_CONSTRUCTORS))
def test_nan_fails_every_validating_constructor(name):
    with pytest.raises(InvariantError):
        NAN_CONSTRUCTORS[name]()


def test_require_close_is_absolute_and_fails_on_nan():
    qk._require_close(1.0, 1.0 + 5e-11, 1e-10, "close")
    qk._require_close(np.zeros((2, 2)), np.zeros((2, 2)), 0.0, "equal")
    qk._require_close(np.zeros(0), 0.0, 0.0, "empty")
    for a, b in [(1e6, 1e6 + 1e-3), (NAN, NAN), (np.array([0.0, NAN]), 0.0),
                 (1.0 + 1e-10j, 1.0 + 3e-10j)]:
        with pytest.raises(InvariantError, match="msg"):
            qk._require_close(a, b, 1e-10, "msg")


def test_require_unitary_checks_shape_and_unitarity():
    qk._require_unitary(qk.H, 2, "u")
    qk._require_unitary(qk.CX, None, "u")
    for m, d in [(qk.H, 4), (np.ones((2, 3)), None), (np.ones(2), None),
                 (np.diag([2.0, 1.0]), 2), (with_nan(qk.X), 2)]:
        with pytest.raises(InvariantError, match="msg"):
            qk._require_unitary(np.asarray(m, dtype=complex), d, "msg")


# ---------------------------------------------------------------------------
# Caps: every dimension cap is a HilbertSpec
# ---------------------------------------------------------------------------

def test_an_int64_product_of_64_qubit_dimensions_wraps_to_zero():
    # Why no cap is computed with np.prod: the product wraps round to 0.
    assert np.prod((2,) * 64) == 0
    assert HilbertSpec((2,) * 64, cap=2 ** 64).total_dim == 2 ** 64


@pytest.mark.parametrize("prepare", [mps.contract, mps.sequential_prepare])
def test_mps_preparations_of_64_sites_exceed_the_cap(prepare):
    with pytest.raises(CapExceededError, match=r"total dimension ~2\^6[46] exceeds cap 4096"):
        prepare(mps.ghz_chain(64))


def test_cluster_and_history_caps_come_from_the_hilbert_spec():
    with pytest.raises(CapExceededError, match="total dimension 8192 exceeds cap 4096"):
        mps.cluster_state(mps.line_graph(13))
    with pytest.raises(CapExceededError, match="total dimension 4096 exceeds cap 4095"):
        ham.history_state([qk.I2] * 2047, qk.zero_state((2,)), cap=4095)
    assert mps.cluster_state(mps.line_graph(13), cap=8192).dim == 8192


# ---------------------------------------------------------------------------
# Placement: one check for every instruction that names wires
# ---------------------------------------------------------------------------

MEASURED = (Measure(0, "Z", "m"),)
BAD_PLACEMENTS = {
    "gate out of range": (Gate(qk.H, (3,)),),
    "gate negative wire": (Gate(qk.H, (-1,)),),
    "gate repeated wire": (Gate(qk.CX, (1, 1)),),
    "gate wrong dimension": (Gate(qk.CX, (1,)),),
    "gate after measure": MEASURED + (Gate(qk.H, (0,)),),
    "mux overlapping wires": (Mux(0, (qk.I2, qk.X), (0,)),),
    "mux wrong target dimension": (Mux(0, (qk.I2, qk.X), (1, 2)),),
    "mux branch count": (Mux(0, (qk.I2, qk.X, qk.Z), (1,)),),
    "measure out of range": (Measure(3, "Z", "m"),),
    "measure twice": MEASURED + (Measure(0, "Z", "n"),),
    "measure basis wrong dimension": (Measure(0, np.eye(3), "m"),),
    "cond gate on one wire": MEASURED + (Cond({"m": 0}, Gate(qk.CX, (1,))),),
    "cond gate repeated wire": MEASURED + (Cond({"m": 0}, Gate(qk.CX, (1, 1))),),
    "cond gate on measured wire": MEASURED + (Cond({"m": 0}, Gate(qk.X, (0,))),),
    "cond gate out of range": MEASURED + (Cond({"m": 0}, Gate(qk.X, (5,))),),
}


@pytest.mark.parametrize("case", sorted(BAD_PLACEMENTS))
def test_bad_placement_is_rejected_when_the_circuit_is_built(case):
    with pytest.raises(InvariantError):
        Circuit(HilbertSpec((2, 2, 2)), BAD_PLACEMENTS[case])


def cond_circuit(wires):
    return {"wires": [2, 2],
            "ops": [{"type": "measure", "wire": 0, "basis": "Z", "out": "m"},
                    {"type": "cond", "when": {"m": 0},
                     "gate": {"wires": wires, "name": "CX"}}]}


@pytest.mark.parametrize("wires", [[1], [1, 1]])
def test_cli_malformed_cond_gate_exits_3(tmp_path, wires):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(cond_circuit(wires)), encoding="utf-8")
    assert cli.main(["circuit", "--in", str(path)]) == 3


def test_cli_nan_state_exits_3(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"dims": [2], "amplitudes": [[NaN, 0], [0, 0]]}', encoding="utf-8")
    assert cli.main(["measure", "--in", str(path)]) == 3
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# Hermitian matrices and unitary LCU terms
# ---------------------------------------------------------------------------

LOWER_ONLY = np.array([[1, 0], [5, -1]], dtype=complex)


def test_gap_scan_rejects_non_hermitian_endpoints():
    for a, b in [(LOWER_ONLY, qk.X), (qk.Z, LOWER_ONLY), (with_nan(qk.Z), qk.X)]:
        with pytest.raises(InvariantError):
            ham.adiabatic_gap_scan(a, b, 3)
    with pytest.raises(InvariantError):
        ham.adiabatic_gap_scan(np.ones((2, 3)), np.ones((2, 3)), 3)


def test_require_hermitian_checks_shape_and_symmetry():
    qk._require_hermitian(qk.Y, 0.0, "h")
    for m in [LOWER_ONLY, np.ones((2, 3)), np.ones(2), with_nan(qk.Z)]:
        with pytest.raises(InvariantError, match="msg"):
            qk._require_hermitian(np.asarray(m, dtype=complex), 1e-10, "msg")


def test_cli_gap_with_non_hermitian_endpoint_exits_3(tmp_path):
    enc = qk._encode_complex
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"h_start": enc(LOWER_ONLY), "h_end": enc(qk.X)}),
                    encoding="utf-8")
    assert cli.main(["hamiltonian", "gap", "--in", str(path), "--grid", "3"]) == 3


def test_cli_stoquastic_with_a_non_square_matrix_exits_3(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"matrix": qk._encode_complex(np.eye(2, 3))}),
                    encoding="utf-8")
    assert cli.main(["hamiltonian", "stoquastic", "--in", str(path)]) == 3


@pytest.mark.parametrize("unitaries", [
    [np.diag([2.0, 1.0])],
    [qk.I2, np.eye(3)],
    [np.eye(3), qk.I2],
])
def test_lcu_terms_must_be_unitaries_of_the_state_dimension(tmp_path, unitaries):
    psi = qk.zero_state((2,))
    coeffs = np.ones(len(unitaries))
    with pytest.raises(InvariantError):
        alg.lcu_apply(coeffs, unitaries, psi)
    path = tmp_path / "lcu.json"
    path.write_text(json.dumps({
        "coeffs": qk._encode_complex(coeffs),
        "unitaries": [qk._encode_complex(u) for u in unitaries],
        "state": cli.vector_to_json(psi)}), encoding="utf-8")
    assert cli.main(["algorithm", "lcu", "--config", str(path)]) == 3


# ---------------------------------------------------------------------------
# Gate names are written only for an exact match
# ---------------------------------------------------------------------------

def test_a_gate_near_a_named_gate_keeps_its_matrix_through_json():
    near_identity = np.diag([1.0, np.exp(1e-6j)])
    circ = Circuit(HilbertSpec((2,)), (Gate(near_identity, (0,), name="I"),
                                       Gate(qk.H, (0,), name="H")))
    doc = qc.circuit_to_json(circ)
    assert "name" not in doc["ops"][0]
    assert doc["ops"][1]["name"] == "H"
    back = qc.circuit_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(back.instructions[0].matrix, near_identity)
    assert np.array_equal(back.instructions[1].matrix, qk.H)
