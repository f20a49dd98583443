"""Property tests: exact JSON round-trips, the report writer and absolute tolerance boundaries."""

import argparse
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqres import circuits as qc
from uqres import cli
from uqres import hamiltonian as ham
from uqres import mps
from uqres import qkernel as qk
from uqres.interference import Multiplexer
from uqres.qkernel import InvariantError

SMALL = settings(max_examples=25, deadline=None)

# Finite floats with signed zeros drawn often, so -0.0 is exercised on every run.
FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True))


def complex_arrays(shape):
    n = int(np.prod(shape))
    pairs = st.lists(st.tuples(FLOATS, FLOATS), min_size=n, max_size=n)
    return pairs.map(lambda ps: np.array([complex(*p) for p in ps],
                                         dtype=complex).reshape(shape))


def via_text(doc):
    return json.loads(json.dumps(doc))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def nonzero_vector(v):
    return np.abs(v).max() > 1e-3


# ---------------------------------------------------------------------------
# Codec round-trips
# ---------------------------------------------------------------------------

@SMALL
@given(st.integers(1, 3).flatmap(lambda r: st.lists(st.integers(1, 3), min_size=r,
                                                    max_size=r))
       .flatmap(lambda shape: complex_arrays(tuple(shape))))
def test_codec_round_trip_any_rank(a):
    back = qk._decode_complex(via_text(qk._encode_complex(a)), a.ndim, "array")
    assert same_bits(back, a)


def test_codec_keeps_signed_zero_and_infinity():
    a = np.array([complex(-0.0, 1.0), complex(1.0, np.inf), complex(-0.0, -0.0)])
    back = qk._decode_complex(via_text(qk._encode_complex(a)), 1, "array")
    assert same_bits(back, a)


@pytest.mark.parametrize("data", [
    [[1.0, 0.0, 0.5]],
    [[1.0, 0.0], [1.0]],
    [["1", "0"]],
    [[None, 0.0]],
    [1.0, 0.0],
    {"re": 1.0},
], ids=["triple", "ragged", "strings", "null", "bare-numbers", "object"])
def test_codec_rejects_malformed_entries(data):
    with pytest.raises(qk.ParseFailure):
        qk._decode_complex(data, 1, "amplitudes")


@SMALL
@given(complex_arrays((4,)).filter(nonzero_vector))
def test_state_round_trip_is_bit_exact(v):
    psi = qk.StateVector(qk.HilbertSpec((2, 2)), v / np.linalg.norm(v))
    back = cli.vector_from_json(via_text(cli.vector_to_json(psi)))
    assert back.spec == psi.spec
    assert same_bits(back.amplitudes, psi.amplitudes)


@SMALL
@given(complex_arrays((3,)).filter(nonzero_vector),
       complex_arrays((3,)).filter(nonzero_vector), st.floats(0.0, 1.0))
def test_density_round_trip_is_bit_exact(u, v, p):
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    rho = qk.DensityOperator(qk.HilbertSpec((3,)), p * np.outer(u, u.conj())
                             + (1 - p) * np.outer(v, v.conj()))
    doc = {"dims": [3], "matrix": qk._encode_complex(rho.matrix)}
    back = cli.density_from_json(via_text(doc))
    assert same_bits(back.matrix, rho.matrix)


GATE_NAMES = sorted(n for n, m in qk.GATES.items() if m.shape == (2, 2))


@st.composite
def circuits(draw):
    n = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ins = []
    for _ in range(draw(st.integers(0, 3))):
        w = draw(st.integers(0, n - 1))
        name = draw(st.sampled_from(GATE_NAMES))
        if draw(st.booleans()):
            ins.append(qc.Gate(qk.GATES[name], (w,), name=name))
        else:   # unnamed, so the matrix (Y carries signed zeros) goes to JSON
            ins.append(qc.Gate(qk.GATES[name], (w,)))
    ins.append(qc.Mux(0, (qk.haar_unitary(2, rng), qk.GATES["Y"]), (1,)))
    basis = draw(st.sampled_from(["Z", "X", "custom"]))
    ins.append(qc.Measure(0, qk.haar_unitary(2, rng) if basis == "custom" else basis, "m"))
    ins.append(qc.Cond({"m": 1}, qc.Gate(qk.haar_unitary(2, rng), (1,))))
    ins.append(qc.Discard(0))
    return qc.Circuit(qk.HilbertSpec((2,) * n), tuple(ins))


def instruction_arrays(circuit):
    out = []
    for ins in circuit.instructions:
        if isinstance(ins, qc.Gate):
            out.append(ins.matrix)
        elif isinstance(ins, qc.Mux):
            out.extend(ins.branches)
        elif isinstance(ins, qc.Measure) and not isinstance(ins.basis, str):
            out.append(ins.basis)
        elif isinstance(ins, qc.Cond):
            out.append(ins.gate.matrix)
    return out


@SMALL
@given(circuits())
def test_circuit_round_trip_is_bit_exact(circuit):
    doc = qc.circuit_to_json(circuit)
    back = qc.circuit_from_json(via_text(doc))
    assert qc.circuit_to_json(back) == doc
    assert [type(i) for i in back.instructions] == [type(i) for i in circuit.instructions]
    pairs = zip(instruction_arrays(back), instruction_arrays(circuit), strict=True)
    assert all(same_bits(a, b) for a, b in pairs)


def hermitian(a):
    return (a + a.conj().T) / 2


@SMALL
@given(complex_arrays((4, 4)), complex_arrays((2, 2)), FLOATS)
def test_termsum_round_trip_is_bit_exact(a, b, j):
    terms = ham.TermSum(qk.HilbertSpec((2, 2)), (
        ham.HamiltonianTerm((1, 0), hermitian(a), j),
        ham.HamiltonianTerm((1,), hermitian(b), 1.0),
        ham.HamiltonianTerm((0,), qk.Y, -0.0)))
    back = ham.termsum_from_json(via_text(ham.termsum_to_json(terms)))
    assert back.spec == terms.spec
    for t, u in zip(back.terms, terms.terms, strict=True):
        assert t.support == u.support
        assert same_bits(t.weight, u.weight)
        assert same_bits(t.matrix, u.matrix)


@SMALL
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_mps_round_trip_is_bit_exact(n_sites, d_bond, data):
    tensors = tuple(data.draw(complex_arrays((data.draw(st.integers(1, 3)), d_bond, d_bond)))
                    for _ in range(n_sites))
    chain = mps.MPSChain(tensors, data.draw(complex_arrays((d_bond, d_bond))))
    back = mps.mps_from_json(via_text(mps.mps_to_json(chain)))
    assert same_bits(back.boundary, chain.boundary)
    for t, u in zip(back.tensors, chain.tensors, strict=True):
        assert same_bits(t, u)


# ---------------------------------------------------------------------------
# Report writer: the bytes of json.dumps(doc, sort_keys=True, indent=2)
# ---------------------------------------------------------------------------

def reference_dumps(doc):
    """The report contract: ``json.dumps`` with every array read as its ``tolist()``."""
    return json.dumps(doc, sort_keys=True, indent=2, default=np.ndarray.tolist)


# Strings that look like the layout's own brackets and separators.
TRICKY_TEXT = ["], [", ", ", "[", "]", "a], [b, c", "é", "ключ", "☃", "\n", ""]
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1.7976931348623157e308,
                     5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 0, -1, 10 ** 30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers())
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(),
                    st.sampled_from(TRICKY_TEXT), st.text(max_size=6))
PAIR_LISTS = st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1, max_size=5)
NUMBER_TABLES = st.lists(st.lists(NUMBERS, min_size=1, max_size=4), min_size=1, max_size=4)
# Near misses: a pair holding a bool, a string, None or a nested list; a ragged
# table with an empty row; a pair list next to other lists.
ODD_PAIRS = st.lists(
    st.tuples(NUMBERS, st.one_of(st.booleans(), st.sampled_from(TRICKY_TEXT), st.none(),
                                 st.lists(NUMBERS, max_size=2)))
    .map(list), min_size=1, max_size=4)
RAGGED = st.lists(st.lists(NUMBERS, max_size=3), min_size=1, max_size=4)


def nan_with_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# A small pool, so values repeat within a table as amplitudes of measured
# wires do: signed zeros, NaNs of three payloads and both signs, infinities
# and the extreme magnitudes.
FLOAT_POOL = [0.0, -0.0, 0.5, -0.5, 2 ** -0.5, -(2 ** -0.5), math.inf, -math.inf,
              5e-324, 1e308, math.nan, nan_with_bits(0x7FF8000000000001),
              nan_with_bits(0xFFF0000000000002)]
FLOAT_TABLES = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(st.sampled_from(FLOAT_POOL), min_size=width, max_size=width),
    min_size=1, max_size=8))
# Float64 arrays of the shapes a report holds: one row, one column, [re, im] pairs.
FLOAT_ARRAYS = st.one_of(
    st.integers(1, 5).map(lambda k: (1, k)), st.integers(1, 5).map(lambda k: (k, 1)),
    st.integers(1, 8).map(lambda n: (n, 2))).flatmap(lambda shape: st.lists(
        st.sampled_from(FLOAT_POOL), min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1]).map(
            lambda cells: np.array(cells, dtype=np.float64).reshape(shape)))
KEYS = st.one_of(st.sampled_from(TRICKY_TEXT), st.text(max_size=6))
LEAVES = st.one_of(SCALARS, PAIR_LISTS, NUMBER_TABLES, FLOAT_TABLES, ODD_PAIRS, RAGGED,
                   FLOAT_ARRAYS, st.just([]), st.just({}))
DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
        # json sorts non-str keys before turning them into strings: 10 after 2.
        st.dictionaries(st.integers(-20, 20), inner, max_size=4),
        st.lists(st.one_of(PAIR_LISTS, inner), max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
@example([[1.0, "], ["], [2, ", "]])
@example({"pairs": [[0.5, -0.0], [1, True]], "ragged": [[1.0], []], "none": [[None, 0.0]]})
@example({"ints": {2: [[np.nan, np.inf]], 10: [[-np.inf, 5e-324]]}, "é": [[], {}]})
def test_writer_matches_json_dumps(doc):
    assert qk._dumps_sorted(doc) == reference_dumps(doc)


@settings(max_examples=200, deadline=None)
@given(FLOAT_TABLES, FLOAT_TABLES)
@example([[0.0, -0.0, math.nan, nan_with_bits(0x7FF8000000000001)],
          [math.inf, -math.inf, 5e-324, 1e308],
          [-0.0, 0.0, nan_with_bits(0xFFF0000000000002), 5e-324]], [[-0.0]])
def test_float_tables_match_json_dumps(a, b):
    doc = {"table": a, "branches": [{"amplitudes": a}, {"amplitudes": b}], "pairs": [a, b]}
    assert qk._dumps_sorted(doc) == reference_dumps(doc)


@settings(max_examples=200, deadline=None)
@given(FLOAT_ARRAYS, FLOAT_ARRAYS)
@example(np.array([[0.0, -0.0], [math.nan, nan_with_bits(0x7FF8000000000001)],
                   [math.inf, -math.inf], [5e-324, 1e308],
                   [nan_with_bits(0xFFF0000000000002), -0.0]]), np.array([[-0.0]]))
def test_float_arrays_match_json_dumps(a, b):
    doc = {"table": a, "branches": [{"amplitudes": a}, {"amplitudes": b}], "pairs": [a, b],
           "tuple": (a,), "int_keys": {10: b, 2: a}}
    assert qk._dumps_sorted(doc) == reference_dumps(doc)


@pytest.mark.parametrize("array", [
    np.array([[1, -2], [3, 0]]),
    np.array([[True, False]]),
    np.array([0.5, -0.0, math.inf]),
    np.arange(8.0).reshape(2, 2, 2) - 4.0,
    np.zeros((0, 2)),
    np.zeros((3, 0)),
    np.zeros(0),
    np.array([[0.5, -0.0]], dtype=np.float32),
    np.array(-0.0),
], ids=["int", "bool", "1-D", "3-D", "empty-rows", "empty-columns", "empty", "float32",
        "0-D"])
def test_other_arrays_are_written_as_their_tolist(monkeypatch, array):
    calls = counting_float_token(monkeypatch)
    doc = {"table": array, "rows": [array]}
    assert qk._dumps_sorted(doc) == reference_dumps(doc)
    assert qk._dumps_sorted(doc) == reference_dumps({"table": array.tolist(),
                                                     "rows": [array.tolist()]})
    assert calls == []


def test_array_json_cannot_write_raises_and_no_report_is_written(tmp_path):
    # A complex array has no JSON form: the writer raises before any byte is out.
    out = tmp_path / "report.json"
    doc = {"fine": np.ones((2, 2)), "table": np.array([[1 + 2j, 0j]])}
    with pytest.raises(TypeError):
        qk._dumps_sorted(doc)
    with pytest.raises(TypeError):
        cli._emit(argparse.Namespace(out=str(out)), doc)
    assert not out.exists()


def counting_float_token(monkeypatch):
    calls = []
    token = qk._float_token
    monkeypatch.setattr(qk, "_float_token", lambda x: calls.append(x) or token(x))
    return calls


@pytest.mark.parametrize("table, distinct", [
    (np.array([[0.5, -0.0], [0.5, 0.0], [-0.0, 0.5]]), 3),
    # A list table, ragged rows, an int array or a list holding an int: each
    # number goes through json.dumps on the generic walk, and no float is
    # formatted from its bits.
    ([[0.5, -0.0], [0.5, 0.0], [-0.0, 0.5]], 0),
    ([[1.0], [2.0, 3.0]], 0),
    (np.array([[1, 2], [2, 0]]), 0),
    ([[1, 0.5], [2.0, -0.0]], 0),
    (np.array([[math.nan, nan_with_bits(0x7FF8000000000001)], [math.nan, 1.0]]), 3),
])
def test_writer_route_by_table_shape(monkeypatch, table, distinct):
    calls = counting_float_token(monkeypatch)
    doc = {"table": table}
    assert qk._dumps_sorted(doc) == reference_dumps(doc)
    assert len(calls) == distinct


def test_writer_keeps_int_key_order():
    doc = {"rows": {2: [[0.0, -0.0]], 10: [[np.inf, np.nan]]}, "flag": True}
    assert qk._dumps_sorted(doc) == reference_dumps(doc)
    assert reference_dumps(doc).index('"2"') < reference_dumps(doc).index('"10"')


def reports_of(monkeypatch, argv):
    """Every document ``cli`` serializes while running ``argv``."""
    docs = []
    serialize = cli._serialize
    monkeypatch.setattr(cli, "_serialize", lambda doc: docs.append(doc) or serialize(doc))
    assert cli.main(argv) == 0
    assert docs
    return [(serialize(doc), doc) for doc in docs]


def twelve_wire_keep_measured_circuit():
    ops = [{"type": "gate", "name": g, "wires": [w]}
           for w in range(12) for g in ("H", "T")]
    ops += [{"type": "gate", "name": "CZ", "wires": [w, w + 1]} for w in range(11)]
    for k in range(5):
        ops += [{"type": "measure", "wire": k, "basis": "X", "out": f"m{k}"},
                {"type": "cond", "when": {f"m{k}": 1},
                 "gate": {"name": "Z", "wires": [6 + k]}},
                {"type": "cond", "when": {f"m{k}": 0},
                 "gate": {"name": "T", "wires": [11 - k]}}]
    return {"wires": [2] * 12, "ops": ops}


def report_argv(case, tmp_path):
    def written(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    r = 3 ** -0.5
    z = [[[2 ** -0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-(2 ** -0.5), 0.0]]]
    x = [[[0.0, 0.0], [2 ** -0.5, 0.0]], [[2 ** -0.5, 0.0], [0.0, 0.0]]]
    return {
        "circuit-12-wires": ["circuit", "--in",
                             written("c.json", twelve_wire_keep_measured_circuit())],
        "wigner": ["wigner", "--in", written("s.json", {
            "dims": [3], "amplitudes": [[r, 0.0], [0.0, r], [-r, -0.0]]})],
        "hamiltonian-gap": ["hamiltonian", "gap", "--in",
                            written("g.json", {"h_start": z, "h_end": x})],
        "make-goldens": ["make-goldens", "--out", str(tmp_path / "goldens")],
    }[case]


@pytest.mark.parametrize("case", ["circuit-12-wires", "wigner", "hamiltonian-gap",
                                  "make-goldens"])
def test_real_reports_match_json_dumps(monkeypatch, tmp_path, case):
    for text, doc in reports_of(monkeypatch, report_argv(case, tmp_path)):
        assert text == reference_dumps(doc) + "\n"


def float_tables(v):
    """The rectangular all-``float`` tables of a document, 2-D float64 arrays as lists."""
    if type(v) is dict:
        for x in v.values():
            yield from float_tables(x)
    elif isinstance(v, np.ndarray):
        if v.dtype == np.float64 and v.ndim == 2 and v.size:
            yield v.tolist()
    elif type(v) is list and v:
        if all(type(row) is list and row and len(row) == len(v[0])
               and all(type(x) is float for x in row) for row in v):
            yield v
        else:
            for x in v:
                yield from float_tables(x)


def test_writer_formats_each_distinct_float_once(monkeypatch, tmp_path):
    [(text, doc)] = reports_of(monkeypatch, report_argv("circuit-12-wires", tmp_path))
    calls = counting_float_token(monkeypatch)
    assert qk._dumps_sorted(doc) + "\n" == text
    tables = list(float_tables(doc))
    distinct = sum(len({struct.pack("<d", x) for row in t for x in row}) for t in tables)
    cells = sum(len(t) * len(t[0]) for t in tables)
    assert len(calls) == distinct
    assert 10 * distinct < cells


def number_tables(v):
    """Every array of a document, and every list of lists of numbers."""
    if isinstance(v, np.ndarray):
        yield v
    elif type(v) is dict:
        for x in v.values():
            yield from number_tables(x)
    elif type(v) is list and v:
        if all(type(row) is list and row and all(type(x) in (int, float) for x in row)
               for row in v):
            yield v
        else:
            for x in v:
                yield from number_tables(x)


@pytest.mark.parametrize("case", ["circuit-12-wires", "wigner", "hamiltonian-gap",
                                  "make-goldens"])
def test_report_tables_reach_the_writer_as_float64_arrays(monkeypatch, tmp_path, case):
    # A list table would come out byte-correct through the number-by-number
    # walk, only slower; so every table must be a non-empty 2-D float64 array.
    for _, doc in reports_of(monkeypatch, report_argv(case, tmp_path)):
        tables = list(number_tables(doc))
        assert tables
        assert all(isinstance(t, np.ndarray) and t.dtype == np.float64 and t.ndim == 2
                   and t.size for t in tables)


# ---------------------------------------------------------------------------
# Tolerance boundaries: 2x the documented tolerance is rejected, 0.5x accepted
# ---------------------------------------------------------------------------

def scaled_unitary(rng, d, delta):
    """U with U†U = (1 + delta) 1, up to rounding."""
    return qk.haar_unitary(d, rng) * np.sqrt(1 + delta)


def mixed(d):
    return np.eye(d, dtype=complex) / d


def _state_norm(rng, d, delta):
    v = qk.random_state((d,), rng).amplitudes * np.sqrt(1 + delta)
    qk.StateVector(qk.HilbertSpec((d,)), v)


def _density_trace(rng, d, delta):
    qk.DensityOperator(qk.HilbertSpec((d,)), mixed(d) * (1 + delta))


def _density_hermitian(rng, d, delta):
    m = mixed(d)
    m[0, 1] += delta * np.exp(2j * np.pi * rng.random())
    qk.DensityOperator(qk.HilbertSpec((d,)), m)


def _density_positive(rng, d, delta):
    m = mixed(d)
    m[0, 0] = -delta
    m[1, 1] += 1 / d + delta
    qk.DensityOperator(qk.HilbertSpec((d,)), m)


def _unitary(rng, d, delta):
    qk.UnitaryOp(qk.HilbertSpec((d,)), scaled_unitary(rng, d, delta))


def _channel(rng, d, delta):
    u, w = scaled_unitary(rng, d, delta), scaled_unitary(rng, d, delta)
    spec = qk.HilbertSpec((d,))
    qk.QuantumChannel(spec, spec, (np.sqrt(0.3) * u, np.sqrt(0.7) * w))


def _gate(rng, d, delta):
    qc.Gate(scaled_unitary(rng, d, delta), (0,))


def _multiplexer(rng, d, delta):
    Multiplexer((qk.haar_unitary(d, rng), scaled_unitary(rng, d, delta)))


BOUNDARIES = {
    "StateVector-norm": (_state_norm, qk.ATOL),
    "DensityOperator-trace": (_density_trace, qk.ATOL),
    "DensityOperator-hermitian": (_density_hermitian, qk.ATOL),
    "DensityOperator-eigenvalue": (_density_positive, qk.ATOL),
    "UnitaryOp": (_unitary, qk.ATOL),
    "QuantumChannel": (_channel, qk.KRAUS_ATOL),
    "Gate": (_gate, qk.ATOL),
    "Multiplexer": (_multiplexer, qk.ATOL),
}


@pytest.mark.parametrize("case", sorted(BOUNDARIES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([2, 4]))
def test_tolerance_is_absolute(case, seed, d):
    build, tol = BOUNDARIES[case]
    build(np.random.default_rng(seed), d, 0.5 * tol)
    with pytest.raises(InvariantError):
        build(np.random.default_rng(seed), d, 2 * tol)
