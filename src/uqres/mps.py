"""Matrix-product and valence-bond state constructions.

Amplitudes follow the trace form  psi_{i1..iN} = tr(B A^{iN} ... A^{i1})  for
site matrices A^i (bond dimension D) and a boundary operator B.  Two
independent preparations are provided: direct contraction, and a sequential
circuit that dilates each site's Kraus family {A^i} to a unitary on
bond (x) site and post-selects the boundary through a maximally entangled
reference pair (the post-selection success probability is reported).

Also holds ebits, valence-bond fusion, and cluster / tailed-cluster states on
arbitrary simple graphs with stabilizer verification helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qkernel as qk
from .qkernel import HilbertSpec, InvariantError, StateVector


@dataclass(frozen=True)
class MPSChain:
    """Per-site tensors A[site][i] (each D x D, i < d) plus a boundary matrix B."""

    tensors: tuple[np.ndarray, ...]   # each of shape (d, D, D)
    boundary: np.ndarray

    def __post_init__(self):
        ts = tuple(np.asarray(t, dtype=complex) for t in self.tensors)
        object.__setattr__(self, "tensors", ts)
        b = np.asarray(self.boundary, dtype=complex)
        object.__setattr__(self, "boundary", b)
        if not ts:
            raise InvariantError("MPS chain needs at least one site")
        _, dim_b, dim_b2 = ts[0].shape
        if dim_b != dim_b2:
            raise InvariantError("site matrices must be square")
        for t in ts:
            if t.ndim != 3 or t.shape[1:] != (dim_b, dim_b):
                raise InvariantError("all sites must share one bond dimension")
            if t.shape[0] < 1:
                raise InvariantError("physical dimension must be >= 1")
        if b.shape != (dim_b, dim_b):
            raise InvariantError(f"boundary shape {b.shape} does not match bond dim {dim_b}")

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def bond_dim(self) -> int:
        return self.tensors[0].shape[1]

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[0] for t in self.tensors)


@dataclass(frozen=True)
class GraphSpec:
    """Simple graph with optional per-vertex tail flags."""

    n: int
    edges: tuple[tuple[int, int], ...]
    tails: tuple[bool, ...] = ()

    def __post_init__(self):
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.n < 1:
            raise InvariantError("graph needs at least one vertex")
        seen = set()
        for a, b in edges:
            if a == b or not (0 <= a < self.n and 0 <= b < self.n):
                raise InvariantError(f"bad edge ({a}, {b})")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise InvariantError(f"duplicate edge ({a}, {b})")
            seen.add(key)
        tails = tuple(bool(t) for t in self.tails) if self.tails else ()
        if tails and len(tails) != self.n:
            raise InvariantError("tail flags must cover every vertex")
        object.__setattr__(self, "tails", tails)

    @property
    def tailed(self) -> bool:
        return any(self.tails)


def line_graph(n: int, tails: bool = False) -> GraphSpec:
    edges = tuple((k, k + 1) for k in range(n - 1))
    return GraphSpec(n, edges, tuple([tails] * n) if tails else ())


# ---------------------------------------------------------------------------
# Ebits and valence bonds
# ---------------------------------------------------------------------------

def make_ebit(d: int = 2) -> StateVector:
    """|omega> = CX |+>|0> = d^{-1/2} sum_i |ii>."""
    if d < 2:
        raise InvariantError("ebit needs local dimension >= 2")
    return StateVector(HilbertSpec((d, d)), qk._max_entangled(d))


def vbs_state(operators, ebits: int, d: int = 2) -> StateVector:
    """Normalized (tensor of local fusion operators) applied to |omega>^{x ebits}.

    Ebit k has halves (a_k, b_k); operator k fuses (b_k, a_{k+1}) into one
    physical site.  ``len(operators) == ebits - 1`` builds an open line whose
    outer halves a_1 and b_n survive as bare qudits (wire order: a_1, sites...,
    b_n); ``len(operators) == ebits`` also fuses (b_n, a_1), closing the ring
    (wire order: sites 1..n).
    """
    ops = [np.asarray(p, dtype=complex) for p in operators]
    if ebits < 1:
        raise InvariantError("need at least one ebit")
    closed = len(ops) == ebits
    if not closed and len(ops) != ebits - 1:
        raise InvariantError(
            f"need {ebits - 1} (open) or {ebits} (ring) operators, got {len(ops)}")
    for p in ops:
        if p.ndim != 2 or p.shape[1] != d * d:
            raise InvariantError(f"fusion operator must act on dim {d * d}, got shape {p.shape}")

    labels = []
    for k in range(1, ebits + 1):
        labels += [("a", k), ("b", k)]
    tens = make_ebit(d).amplitudes.reshape(d, d)
    for _ in range(ebits - 1):
        tens = np.multiply.outer(tens, make_ebit(d).amplitudes.reshape(d, d))

    fuse_pairs = [(("b", k), ("a", k + 1)) for k in range(1, ebits)]
    if closed:
        fuse_pairs.append((("b", ebits), ("a", 1)))
    for idx, (p, (la, lb)) in enumerate(zip(ops, fuse_pairs), start=1):
        wa, wb = labels.index(la), labels.index(lb)
        n = tens.ndim
        rest = [w for w in range(n) if w not in (wa, wb)]
        moved = np.transpose(tens, [wa, wb] + rest)
        rest_shape = moved.shape[2:]
        fused = p @ moved.reshape(d * d, -1)
        tens = fused.reshape((p.shape[0],) + rest_shape)
        labels = [("p", idx)] + [labels[w] for w in rest]

    # Canonical wire order: open line a_1, p_1..p_{n-1}, b_n; ring p_1..p_n.
    if closed:
        want = [("p", k) for k in range(1, ebits + 1)]
    else:
        want = [("a", 1)] + [("p", k) for k in range(1, ebits)] + [("b", ebits)]
    perm = [labels.index(w) for w in want]
    tens = np.transpose(tens, perm)
    amps = tens.reshape(-1)
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise InvariantError("fusion operators annihilate the valence-bond state")
    return StateVector(HilbertSpec(tens.shape), amps / norm)


def fusion_projector(d: int = 2) -> np.ndarray:
    """P = sum_i |i><ii|: fuses two bond halves onto their shared basis value."""
    p = np.zeros((d, d * d), dtype=complex)
    for i in range(d):
        p[i, i * d + i] = 1
    return p


# ---------------------------------------------------------------------------
# Contraction and sequential preparation
# ---------------------------------------------------------------------------

def contract(chain: MPSChain, cap: int = qk.DEFAULT_DIM_CAP) -> StateVector:
    """psi_{i1..iN} = tr(B A^{iN} ... A^{i1}), normalized."""
    spec = HilbertSpec(chain.phys_dims, cap=cap)
    d_bond = chain.bond_dim
    # acc[(i1..ik)] = A^{ik} ... A^{i1}; flattening keeps i1 most significant.
    acc = np.eye(d_bond, dtype=complex).reshape(1, d_bond, d_bond)
    for t in chain.tensors:
        acc = np.einsum("iab,jbc->jiac", t, acc).reshape(-1, d_bond, d_bond)
    amps = np.einsum("ab,jba->j", chain.boundary, acc)
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise InvariantError("MPS contracts to the zero vector")
    return StateVector(spec, amps / norm)


def left_canonicalize(chain: MPSChain) -> MPSChain:
    """Gauge the chain so every site satisfies sum_i A^i† A^i = 1.

    Backward positive-matrix sweep Y_{k-1} = sum_i A_k^i† Y_k A_k^i with
    Y_N = 1; chains whose sweep loses rank cannot be normalized and are
    rejected.  The boundary absorbs the leftover gauge, so the contracted
    state is unchanged.
    """
    n = chain.n_sites
    d_bond = chain.bond_dim
    ys = [None] * (n + 1)
    ys[n] = np.eye(d_bond, dtype=complex)
    for k in range(n, 0, -1):
        ys[k - 1] = sum(a.conj().T @ ys[k] @ a for a in chain.tensors[k - 1])
    xs = []
    for y in ys:
        if np.linalg.eigvalsh(y).min() < 1e-12:
            raise InvariantError("chain cannot be left-canonicalized (rank-deficient sweep)")
        xs.append(qk.hermitian_sqrt(y))
    new_tensors = []
    for k in range(1, n + 1):
        xk_inv = np.linalg.inv(xs[k - 1])
        new_tensors.append(np.stack([xs[k] @ a @ xk_inv for a in chain.tensors[k - 1]]))
    new_boundary = xs[0] @ chain.boundary @ np.linalg.inv(xs[n])
    return MPSChain(tuple(new_tensors), new_boundary)


def sequential_prepare_detailed(chain: MPSChain,
                                cap: int = qk.DEFAULT_DIM_CAP) -> tuple[StateVector, float]:
    """Prepare the chain's state by a sequential circuit; returns (state, success prob).

    Each canonicalized site map |b> -> sum_i (A^i |b>) |i> is dilated to a
    unitary acting on bond (x) fresh site; the trace-with-boundary closure is
    realized by projecting a maximally entangled reference pair (ref, bond)
    onto the boundary-weighted pair state at the end.
    """
    canon = left_canonicalize(chain)
    d_bond = canon.bond_dim
    HilbertSpec((d_bond, d_bond) + canon.phys_dims, cap=cap)   # the whole register
    spec = HilbertSpec(canon.phys_dims, cap=cap)

    reg_dims = [d_bond, d_bond]            # (ref, bond)
    amps = qk._max_entangled(d_bond)
    for t in canon.tensors:
        d_site = t.shape[0]
        # v[(b', i), b] = A^i[b', b], rows row-major over (bond', site).
        v = np.transpose(t, (1, 0, 2)).reshape(d_bond * d_site, d_bond)
        # Input |b>|0> sits at flat index b * d_site in the (bond, site) block.
        u = qk._dilate_isometry(v, [b * d_site for b in range(d_bond)])
        grown = np.zeros(len(amps) * d_site, dtype=complex)
        grown[::d_site] = amps             # fresh site appended in |0>
        amps = grown
        reg_dims.append(d_site)
        amps = qk.apply_on_wires(amps, u, [1, len(reg_dims) - 1], reg_dims)

    b = canon.boundary
    b_norm = np.linalg.norm(b)
    if b_norm < 1e-12:
        raise InvariantError("zero boundary operator")
    # <chi|(alpha, beta)> = B_{alpha beta} / |B|_F turns the pair back into tr(B .).
    chi_conj = (b / b_norm).reshape(-1)
    flat = amps.reshape(d_bond * d_bond, -1)
    post = chi_conj @ flat
    prob = float(np.vdot(post, post).real)
    if prob < 1e-12:
        raise InvariantError("boundary post-selection annihilates the state")
    return StateVector(spec, post / math.sqrt(prob)), prob


def sequential_prepare(chain: MPSChain, cap: int = qk.DEFAULT_DIM_CAP) -> StateVector:
    """Sequential-circuit preparation of the chain's state (see detailed variant)."""
    return sequential_prepare_detailed(chain, cap=cap)[0]


def ghz_chain(n: int, d_bond: int = 2) -> MPSChain:
    """A^0 = |0><0|, A^1 = |1><1|, boundary 1: contracts to GHZ_n."""
    a = np.zeros((2, d_bond, d_bond), dtype=complex)
    a[0, 0, 0] = 1
    a[1, 1, 1] = 1
    return MPSChain(tuple([a] * n), np.eye(d_bond, dtype=complex))


def cluster_chain(n: int) -> MPSChain:
    """Bond-2 chain contracting to the open 1D cluster state CZ-line on |+>^n.

    A^i[r, c] = 2^{-1/2} delta_{r,i} (-1)^{i c} accumulates the CZ sign between
    neighbors; boundary rows select the i1-independent closure, so the trace
    form reproduces 2^{-n/2} prod_k (-1)^{i_k i_{k+1}}.
    """
    a = np.zeros((2, 2, 2), dtype=complex)
    a[0] = np.array([[1, 1], [0, 0]]) / math.sqrt(2)
    a[1] = np.array([[0, 0], [1, -1]]) / math.sqrt(2)
    boundary = np.array([[1, 1], [0, 0]], dtype=complex)
    return MPSChain(tuple([a] * n), boundary)


# ---------------------------------------------------------------------------
# Cluster states
# ---------------------------------------------------------------------------

def cluster_state(g: GraphSpec, cap: int = qk.DEFAULT_DIM_CAP) -> StateVector:
    """CZ over edges on |+>^n; tailed vertices keep an untouched ebit partner.

    Wire layout: head qubits are wires 0..n-1 in vertex order; tail qubits (for
    flagged vertices) follow, in vertex order.  CZ edges act on heads only.
    """
    spec = HilbertSpec((2,) * (g.n + sum(g.tails)), cap=cap)
    dims = spec.dims
    if not g.tailed:
        amps = np.full(2 ** g.n, 2 ** (-g.n / 2), dtype=complex)
    else:
        ebit = make_ebit(2).amplitudes.reshape(2, 2)
        plus = np.full(2, 1 / math.sqrt(2), dtype=complex)
        tens = np.ones((), dtype=complex)
        labels: list[tuple[str, int]] = []
        for v in range(g.n):
            if g.tails[v]:
                tens = np.multiply.outer(tens, ebit)
                labels += [("h", v), ("t", v)]
            else:
                tens = np.multiply.outer(tens, plus)
                labels += [("h", v)]
        want = [("h", v) for v in range(g.n)] + [("t", v) for v in range(g.n) if g.tails[v]]
        tens = np.transpose(tens, [labels.index(w) for w in want])
        amps = tens.reshape(-1)
    for a, b in g.edges:
        amps = qk.apply_on_wires(amps, qk.CZ, [a, b], dims)
    return StateVector(spec, amps)


def tail_wire(g: GraphSpec, v: int) -> int:
    """Wire index of vertex v's tail in the cluster_state layout."""
    if not g.tails or not g.tails[v]:
        raise InvariantError(f"vertex {v} has no tail")
    return g.n + sum(1 for u in range(v) if g.tails[u])


def graph_stabilizer_expectations(g: GraphSpec, state: StateVector) -> list[float]:
    """<K_v> = <X_v prod_{u ~ v} Z_u> for every vertex of an untailed graph state."""
    if g.tailed:
        raise InvariantError("stabilizer generators are defined for untailed graphs here")
    dims = state.spec.dims
    psi = state.amplitudes
    out = []
    for v in range(g.n):
        k_psi = qk.apply_on_wires(psi, qk.X, [v], dims)
        for u in (b if v == a else a for a, b in g.edges if v in (a, b)):
            k_psi = qk.apply_on_wires(k_psi, qk.Z, [u], dims)
        out.append(float(np.vdot(psi, k_psi).real))
    return out


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def mps_to_json(chain: MPSChain) -> dict:
    return {
        "N": chain.n_sites,
        "d": chain.phys_dims[0],
        "D": chain.bond_dim,
        "tensors": [qk._encode_complex(t) for t in chain.tensors],
        "boundary": qk._encode_complex(chain.boundary),
    }


def mps_from_json(doc: dict) -> MPSChain:
    """Decode an MPS document; malformed structure raises ``ParseFailure``."""
    with qk._parsing("MPS document"):
        tensors = tuple(qk._decode_complex(site, 3, "site tensor") for site in doc["tensors"])
        boundary = qk._decode_complex(doc["boundary"], 2, "boundary")
    return MPSChain(tensors, boundary)
