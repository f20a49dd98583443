"""Closed forms for pure states and channels against their dense oracles,
validation at the boundary, and guards against full-dimension eigenproblems."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uqres import cli
from uqres import hamiltonian as ham
from uqres import interference as itf
from uqres import measures as ms
from uqres import qkernel as qk
from uqres.interference import Multiplexer
from uqres.qkernel import HilbertSpec, InvariantError

from embedding import embed_operator

SMALL = settings(max_examples=25, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)
COHERENCE = {"l1": ms.l1_coherence, "log": ms.log_coherence, "rel": ms.rel_ent_coherence}
CHANNEL_MEASURES = ("relative_entropy", "l1", "log")


def close(got, want, measure):
    """1e-12 absolute, or 1e-12 relative for the (unbounded) l1 measure."""
    tol = 1e-12 * max(1.0, abs(want)) if measure == "l1" else 1e-12
    assert abs(got - want) <= tol, (measure, got, want)


def dense_twin(psi):
    """The same pure state through the public, fully checked constructor."""
    return qk.DensityOperator(psi.spec, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def random_kraus(d_in, d_out, rank, rng):
    """Kraus operators of a random channel: blocks of a Haar isometry d_in -> rank*d_out."""
    v = qk.haar_unitary(rank * d_out, rng)[:, :d_in]
    return tuple(v.reshape(rank, d_out, d_in))


def random_channel(d_in, d_out, rank, rng):
    return qk.QuantumChannel(HilbertSpec((d_in,)), HilbertSpec((d_out,)),
                             random_kraus(d_in, d_out, rank, rng))


# ---------------------------------------------------------------------------
# Pure-state measures
# ---------------------------------------------------------------------------

@SMALL
@given(SEEDS, st.lists(st.integers(2, 3), min_size=1, max_size=3),
       st.sampled_from(sorted(COHERENCE)), st.booleans())
def test_pure_state_coherence_matches_dense_route(seed, dims, name, with_basis):
    rng = np.random.default_rng(seed)
    psi = qk.random_state(dims, rng)
    basis = qk.haar_unitary(psi.dim, rng) if with_basis else None
    measure = COHERENCE[name]
    close(measure(psi, basis), measure(dense_twin(psi), basis), name)


@pytest.mark.parametrize("name", sorted(COHERENCE))
def test_pure_state_coherence_of_basis_and_uniform_states(name):
    spec = HilbertSpec((2, 2))
    zero = qk.basis_state(spec, 2)
    uniform = qk.StateVector(spec, np.full(4, 0.5, dtype=complex))
    assert COHERENCE[name](zero) == 0.0
    assert not np.signbit(COHERENCE[name](zero))
    expect = {"l1": 3.0, "log": 2.0, "rel": 2.0}[name]
    assert COHERENCE[name](uniform) == pytest.approx(expect, abs=1e-12)
    # In the Hadamard basis the uniform state is a basis state.
    assert COHERENCE[name](uniform, np.kron(qk.H, qk.H)) == pytest.approx(0.0, abs=1e-12)


def test_pure_state_rotation_is_checked():
    psi = qk.plus_state()
    with pytest.raises(InvariantError):
        ms.l1_coherence(psi, 1.001 * np.eye(2))
    with pytest.raises(InvariantError):
        ms.rel_ent_coherence(dense_twin(psi), 1.001 * np.eye(2))


@SMALL
@given(SEEDS, st.lists(st.integers(2, 3), min_size=1, max_size=4), st.data())
def test_entanglement_entropy_matches_partial_trace(seed, dims, data):
    psi = qk.random_state(dims, np.random.default_rng(seed))
    cut = data.draw(st.lists(st.integers(0, len(dims) - 1), min_size=1, max_size=4))
    want = qk.von_neumann_entropy(qk.partial_trace(psi.density(), cut))
    assert abs(ms.entanglement_entropy(psi, cut) - want) <= 1e-12


def test_entanglement_entropy_rejects_bad_cuts():
    psi = qk.random_state((2, 2), np.random.default_rng(0))
    for cut in ([], [2], [-1]):
        with pytest.raises(InvariantError):
            ms.entanglement_entropy(psi, cut)


# ---------------------------------------------------------------------------
# Interference power
# ---------------------------------------------------------------------------

def _haar(rng):
    d = int(rng.choice([2, 3, 4]))
    return qk.haar_unitary(d, rng)


def _multiplexer(rng):
    return Multiplexer(tuple(qk.haar_unitary(2, rng) for _ in range(int(rng.choice([2, 3])))))


def _kraus(rank):
    def build(rng):
        d = int(rng.choice([2, 3]))
        return random_channel(d, d, rank, rng)
    return build


CHANNELS = {"haar": _haar, "multiplexer": _multiplexer,
            "kraus-rank-2": _kraus(2), "kraus-rank-3": _kraus(3)}


@pytest.mark.parametrize("kind", sorted(CHANNELS))
@settings(max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_interference_power_matches_classical_dual(kind, seed):
    e = CHANNELS[kind](np.random.default_rng(seed))
    dual = itf.classical_dual(e)
    for measure in CHANNEL_MEASURES:
        close(itf.interference_power(e, measure), itf.dual_state_coherence(dual, measure),
              measure)


def per_column_reference(kraus, measure):
    """Average column-output coherence, each E(P_i) formed as a dense matrix."""
    d_out, d_in = kraus[0].shape
    values = []
    for i in range(d_in):
        rho = sum(np.outer(k[:, i], k[:, i].conj()) for k in kraus)
        if measure == "relative_entropy":
            vals = np.linalg.eigvalsh(rho)
            vals = np.where((vals < 0) & (vals >= -1e-10), 0.0, vals)
            diag = np.clip(np.diag(rho).real, 0.0, None)
            values.append(max(qk.shannon_entropy(diag) - qk.shannon_entropy(vals), 0.0))
        else:
            m = np.abs(rho)
            values.append(m.sum() - np.trace(m))
    avg = sum(values) / d_in
    return float(np.log2(avg + 1.0)) if measure == "log" else avg


@SMALL
@given(SEEDS, st.integers(1, 3), st.integers(1, 5), st.integers(1, 3))
def test_non_square_channel_matches_per_column_route(seed, d_in, d_out, rank):
    assume(d_in <= rank * d_out)
    rng = np.random.default_rng(seed)
    kraus = random_kraus(d_in, d_out, rank, rng)
    chan = qk.QuantumChannel(HilbertSpec((d_in,)), HilbertSpec((d_out,)), kraus)
    for measure in CHANNEL_MEASURES:
        close(itf.interference_power(chan, measure), per_column_reference(kraus, measure),
              measure)


# ---------------------------------------------------------------------------
# Trotter product
# ---------------------------------------------------------------------------

@SMALL
@given(SEEDS, st.integers(1, 5))
def test_trotter_local_application_matches_embedding(seed, steps):
    rng = np.random.default_rng(seed)
    dims = (2, 3, 2)

    def term(support):
        d = int(np.prod([dims[s] for s in support]))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return ham.HamiltonianTerm(support, (g + g.conj().T) / 2, float(rng.uniform(-1, 1)))

    terms = ham.TermSum(HilbertSpec(dims), (term((2, 0)), term((1,)), term((0, 1, 2))))
    step = np.eye(12, dtype=complex)
    for t in terms.terms:
        local = qk.expm_hermitian(t.matrix, (0.7 / steps) * t.weight)
        step = embed_operator(local, t.support, dims) @ step
    want = np.linalg.matrix_power(step, steps)
    got = ham.trotter_evolve(terms, 0.7, steps).matrix
    assert np.abs(got - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# Trusted construction and the cached spectrum
# ---------------------------------------------------------------------------

@SMALL
@given(SEEDS)
def test_trusted_results_pass_the_public_checks(seed):
    rng = np.random.default_rng(seed)
    psi = qk.random_state((2, 3), rng)
    rho = psi.density()
    spec = HilbertSpec((2, 3))
    chan = qk.QuantumChannel(spec, spec, random_kraus(6, 6, 2, rng))
    u = qk.UnitaryOp(HilbertSpec((3,)), qk.haar_unitary(3, rng))
    states = [rho, qk.partial_trace(rho, [1]), qk.apply_channel(chan, rho), qk.dephase(rho),
              qk.tensor(rho, qk.partial_trace(rho, [0]))]
    states += itf._column_outputs(chan)
    states += [itf.classical_dual(chan).state, itf.choi_state(chan).state]
    for r in states:
        assert not r.matrix.flags.writeable
        qk.DensityOperator(r.spec, r.matrix)
    terms = ham.TermSum(HilbertSpec((2, 2)), (ham.HamiltonianTerm((0, 1), np.kron(qk.X, qk.Z)),
                                              ham.HamiltonianTerm((1,), qk.Y, 0.4)))
    unitaries = [u.dagger(), qk.tensor(u, u), ham.trotter_evolve(terms, 0.9, 3),
                 ham.exact_evolve(terms, 0.9)]
    for v in unitaries:
        assert not v.matrix.flags.writeable
        qk.UnitaryOp(v.spec, v.matrix)
    kraus = u.channel()
    qk.QuantumChannel(kraus.in_spec, kraus.out_spec, kraus.kraus)


class Spy:
    """Records the shapes passed to numpy's Hermitian eigensolvers."""

    def __init__(self, monkeypatch):
        self.shapes = []
        for name in ("eigvalsh", "eigh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, self._wrap(real))

    def _wrap(self, real):
        def spy(a, *args, **kwargs):
            self.shapes.append(np.shape(a))
            return real(a, *args, **kwargs)
        return spy

    def largest(self):
        return max((s[-1] for s in self.shapes), default=0)


def test_spectrum_is_computed_once(monkeypatch):
    rho = qk.random_density(4, np.random.default_rng(1))
    spy = Spy(monkeypatch)
    a = rho.eigenvalues()
    b = qk.von_neumann_entropy(rho)
    assert spy.shapes == []
    assert np.array_equal(a, np.linalg.eigvalsh(rho.matrix).clip(0.0))
    assert b == qk.shannon_entropy(a)
    pure = qk.plus_state(4).density()
    pure.eigenvalues()
    pure.eigenvalues()
    qk.von_neumann_entropy(pure)
    assert spy.shapes == [(4, 4), (4, 4)]    # one lazy spectrum, one direct call above


def test_no_full_dimension_eigenproblem(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    psi = qk.random_state((2,) * 10, rng)
    path = tmp_path / "pure10.json"
    path.write_text(json.dumps(cli.vector_to_json(psi)), encoding="utf-8")
    u = qk.haar_unitary(64, rng)
    spy = Spy(monkeypatch)
    qk.DensityOperator(HilbertSpec((8,)), np.eye(8) / 8)
    assert spy.largest() == 8                # the spy sees the dense route
    spy.shapes.clear()
    assert cli.main(["measure", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert spy.largest() < 1024
    itf.interference_power(u)
    assert spy.shapes and spy.largest() < 64
    ms.entanglement_entropy(psi, [0, 3, 4, 9])
    assert spy.largest() < 32


# ---------------------------------------------------------------------------
# Boundary checks stay in place
# ---------------------------------------------------------------------------

def test_measure_rejects_pure_state_just_off_norm(tmp_path):
    amps = np.full(4, 0.5 * np.sqrt(1 + 2e-10))
    path = tmp_path / "off.json"
    path.write_text(json.dumps({"dims": [2, 2], "amplitudes": [[a, 0.0] for a in amps]}),
                    encoding="utf-8")
    assert cli.main(["measure", "--in", str(path)]) == 3


def test_apply_unitary_rejects_non_unitary():
    m = np.diag([1.0, 1.001]).astype(complex)
    with pytest.raises(InvariantError):
        qk.apply_unitary(qk.plus_state(), m)
    with pytest.raises(InvariantError):
        qk.apply_unitary(qk.maximally_mixed(2), m)


def test_density_operator_rejects_negative_eigenvalue():
    m = np.diag([-1e-9, 0.5, 0.5 + 1e-9]).astype(complex)
    with pytest.raises(InvariantError):
        qk.DensityOperator(HilbertSpec((3,)), m)
