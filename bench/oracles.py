"""Independent references for every benchmark op, in plain numpy/scipy.

Nothing here calls ``uqres``: each check recomputes the expected answer from
the benchmark's own description of the input and compares it with what the
program returned.  A check raises :class:`CheckError` on any mismatch.  The
checks test the documented contract (probabilities, states up to phase,
closed-form values), never how many branches or leaves the program walked,
so a change that merges branches still passes them.
"""

from __future__ import annotations

import math

import numpy as np

SQ2 = 1 / math.sqrt(2)
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * SQ2
# The toolkit's symmetric T convention: diag(e^{i pi/8}, e^{-i pi/8}).
T = np.diag([np.exp(1j * np.pi / 8), np.exp(-1j * np.pi / 8)])
CZ = np.diag([1, 1, 1, -1]).astype(complex)
BASES = {"X": H}

ATOL_PROB = 1e-10
ATOL_FID = 1e-9


class CheckError(Exception):
    """An op's output disagrees with its reference."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def close(got, want, what: str, atol: float, rtol: float = 0.0) -> None:
    got, want = float(got), float(want)
    require(abs(got - want) <= atol + rtol * abs(want),
            f"{what}: got {got!r}, want {want!r}")


def same_state(got, want, what: str) -> None:
    """Normalised vectors equal up to a global phase."""
    got = np.asarray(got, dtype=complex).reshape(-1)
    want = np.asarray(want, dtype=complex).reshape(-1)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    close(np.linalg.norm(got), 1.0, f"{what}: norm", ATOL_FID)
    fid = abs(np.vdot(want / np.linalg.norm(want), got)) ** 2
    close(fid, 1.0, f"{what}: fidelity", ATOL_FID)


def entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def amps_from_pairs(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[:, 0] + 1j * a[:, 1]


# ---------------------------------------------------------------------------
# Dense circuit reference
#
# A circuit description is a list of tuples:
#   ("gate", matrix, wires)          ("mux", control, branches, targets)
#   ("measure", wire, basis, name)   ("cond", {name: value}, matrix, wires)
#   ("discard", wire)
# where ``basis`` is a unitary whose columns are the outcome vectors.
# ---------------------------------------------------------------------------

def apply(tens: np.ndarray, mat: np.ndarray, wires) -> np.ndarray:
    """Apply ``mat`` (acting on ``wires`` in the listed order) to a state tensor."""
    wires = list(wires)
    k = len(wires)
    dims = [tens.shape[w] for w in wires]
    op = mat.reshape(dims + dims)
    out = np.tensordot(op, tens, axes=(list(range(k, 2 * k)), wires))
    return np.moveaxis(out, list(range(k)), wires)


def _apply_mux(tens, control, branches, targets):
    out = np.empty_like(tens)
    for i, b in enumerate(branches):
        sub = np.take(tens, i, axis=control)
        tw = [t - (t > control) for t in targets]
        idx = [slice(None)] * tens.ndim
        idx[control] = i
        out[tuple(idx)] = apply(sub, b, tw)
    return out


def circuit_branches(desc, dims, psi: np.ndarray) -> dict:
    """{frozenset(outcomes): (probability, normalised surviving-wire vector)}."""
    walk = [({}, np.asarray(psi, dtype=complex).reshape(dims))]
    basis_of, name_of, discarded = {}, {}, []
    for op in desc:
        kind = op[0]
        if kind == "gate":
            walk = [(rec, apply(t, op[1], op[2])) for rec, t in walk]
        elif kind == "mux":
            walk = [(rec, _apply_mux(t, op[1], op[2], op[3])) for rec, t in walk]
        elif kind == "measure":
            _, w, basis, name = op
            basis_of[w], name_of[w] = basis, name
            new = []
            for rec, t in walk:
                for k in range(basis.shape[1]):
                    col = basis[:, k]
                    proj = np.outer(col, col.conj())
                    new.append(({**rec, name: k}, apply(t, proj, [w])))
            walk = new
        elif kind == "cond":
            _, when, mat, wires = op
            walk = [(rec, apply(t, mat, wires)
                     if all(rec[n] == v for n, v in when.items()) else t)
                    for rec, t in walk]
        elif kind == "discard":
            discarded.append(op[1])
        else:
            raise ValueError(f"unknown op {kind!r}")
    out = {}
    for rec, t in walk:
        for w in sorted(discarded, reverse=True):
            col = basis_of[w][:, rec[name_of[w]]]
            t = np.tensordot(col.conj(), t, axes=([0], [w]))
        v = t.reshape(-1)
        p = float(np.vdot(v, v).real)
        if p > 1e-12:
            out[frozenset(rec.items())] = (p, v / math.sqrt(p))
    return out


def branch_kraus(desc, dims, input_wires, fixed) -> list[np.ndarray]:
    """Kraus operators of the branch-averaged channel on ``input_wires``."""
    dims = tuple(dims)
    in_dims = tuple(dims[w] for w in input_wires)
    d_in = int(np.prod(in_dims))
    cols: dict = {}
    for idx in range(d_in):
        digits = np.unravel_index(idx, in_dims)
        full = [fixed.get(w, 0) for w in range(len(dims))]
        for w, v in zip(input_wires, digits):
            full[w] = int(v)
        psi = np.zeros(dims, dtype=complex)
        psi[tuple(full)] = 1
        for key, (p, v) in circuit_branches(desc, dims, psi).items():
            cols.setdefault(key, {})[idx] = math.sqrt(p) * v
    kraus = []
    for by_input in cols.values():
        d_out = next(iter(by_input.values())).size
        k = np.zeros((d_out, d_in), dtype=complex)
        for idx, v in by_input.items():
            k[:, idx] = v
        kraus.append(k)
    return kraus


def choi(kraus) -> np.ndarray:
    """(1/d) sum_ij |i><j| (x) E(|i><j|), input factor first."""
    d_in = kraus[0].shape[1]
    j = sum(np.einsum("ai,bj->iajb", k, k.conj()) for k in kraus)
    d_out = kraus[0].shape[0]
    return j.reshape(d_in * d_out, d_in * d_out) / d_in


def desc_from_circuit(circuit) -> list:
    """Description of a ``uqres`` circuit object, read from its public fields."""
    desc = []
    dims = circuit.wires.dims
    for ins in circuit.instructions:
        kind = type(ins).__name__
        if kind == "Gate":
            desc.append(("gate", np.asarray(ins.matrix), ins.wires))
        elif kind == "Mux":
            desc.append(("mux", ins.control, [np.asarray(b) for b in ins.branches],
                         ins.targets))
        elif kind == "Measure":
            basis = ins.basis
            if isinstance(basis, str):
                basis = np.eye(dims[ins.wire], dtype=complex) if basis == "Z" else BASES[basis]
            desc.append(("measure", ins.wire, np.asarray(basis), ins.out))
        elif kind == "Cond":
            desc.append(("cond", dict(ins.when), np.asarray(ins.gate.matrix),
                         ins.gate.wires))
        elif kind == "Discard":
            desc.append(("discard", ins.wire))
    return desc


def circuit_unitary(desc, n: int) -> np.ndarray:
    """Full unitary of a gate-only qubit circuit description."""
    d = 2 ** n
    cols = np.eye(d, dtype=complex).reshape((2,) * n + (d,))
    for op in desc:
        cols = apply(cols, op[1], op[2])
    return cols.reshape(d, d)


# ---------------------------------------------------------------------------
# dense-cap checks
# ---------------------------------------------------------------------------

def check_measure(values: dict, l1: float, rel: float) -> None:
    close(values["l1"], l1, "l1 coherence", 1e-9, 1e-9)
    close(values["log"], math.log2(l1 + 1), "log coherence", 1e-9, 1e-9)
    close(values["rel"], rel, "relative-entropy coherence", 1e-8)


def pure_measure_reference(psi: np.ndarray) -> tuple[float, float]:
    """Closed forms for a pure state: l1 = (sum |psi_i|)^2 - 1, C_r = H(|psi_i|^2)."""
    a = np.abs(psi)
    return float(a.sum() ** 2 - 1.0), entropy(a ** 2)


def mixed_measure_reference(rho: np.ndarray) -> tuple[float, float]:
    absr = np.abs(rho)
    l1 = float(absr.sum() - np.trace(absr))
    vals = np.linalg.eigvalsh(rho)
    rel = entropy(np.clip(np.diag(rho).real, 0, None)) - entropy(np.clip(vals, 0, None))
    return l1, rel


def interference_reference(u: np.ndarray) -> dict:
    """Mean column Shannon entropy (C_r) and mean column (sum |u_ij|)^2 - 1 (l1)."""
    a = np.abs(u)
    d = u.shape[1]
    l1 = float(((a.sum(axis=0) ** 2) - 1.0).mean())
    rel = sum(entropy(a[:, j] ** 2) for j in range(d)) / d
    return {"relative_entropy": rel, "l1": l1, "log": math.log2(l1 + 1.0)}


def trotter_reference(terms, n: int, t: float, steps: int) -> dict:
    """Spectral-norm Trotter error against a scipy.linalg.expm oracle."""
    from scipy.linalg import expm

    d = 2 ** n

    def embed(m, sites):
        cols = np.eye(d, dtype=complex).reshape((2,) * n + (d,))
        return apply(cols, m, sites).reshape(d, d)

    h = sum(j * embed(m, sites) for sites, m, j in terms)
    exact = expm(1j * t * h)
    out = {}
    for key, s in (("error", steps), ("error_half_steps", max(1, steps // 2))):
        step = np.eye(d, dtype=complex)
        for sites, m, j in terms:
            step = embed(expm(1j * (t / s) * j * m), sites) @ step
        out[key] = float(np.linalg.norm(np.linalg.matrix_power(step, s) - exact, 2))
    return out


# ---------------------------------------------------------------------------
# branch-circuits checks
# ---------------------------------------------------------------------------

def check_circuit_report(results: dict, ref: dict, n_survivors: int) -> None:
    got = {frozenset(b["outcomes"].items()): b for b in results["branches"]}
    total = sum(b["probability"] for b in results["branches"])
    close(total, 1.0, "branch probabilities sum", ATOL_FID)
    close(results["branch_probability_sum"], total, "reported probability sum", ATOL_FID)
    require(results["free_circuit"] is False, "X-basis circuit reported as free")
    for key, (p, v) in ref.items():
        require(key in got, f"missing branch {sorted(key)}")
        b = got[key]
        close(b["probability"], p, f"branch {sorted(key)} probability", ATOL_PROB)
        require(b["state"]["dims"] == [2] * n_survivors,
                f"branch {sorted(key)} dims {b['state']['dims']}")
        same_state(amps_from_pairs(b["state"]["amplitudes"]), v, f"branch {sorted(key)}")
    for key, b in got.items():
        require(key in ref or b["probability"] <= 1e-12, f"extra branch {sorted(key)}")


def check_choi(choi_matrix: np.ndarray, ref_kraus, ideal: np.ndarray | None) -> None:
    want = choi(ref_kraus)
    got = np.asarray(choi_matrix)
    require(got.shape == want.shape, f"Choi shape {got.shape} != {want.shape}")
    err = float(np.abs(got - want).max())
    require(err <= ATOL_FID, f"Choi state differs from the dense reference by {err:.3e}")
    if ideal is not None:
        d = ideal.shape[0]
        phi = ideal.T.reshape(-1) / math.sqrt(d)        # (1 (x) U)|Omega>
        close(np.vdot(phi, got @ phi).real, 1.0, "Choi fidelity with the ideal gate",
              ATOL_FID)


def cluster_reference(n: int) -> np.ndarray:
    """CZ on every neighbour pair of |+>^n: 2^{-n/2} prod_k (-1)^{i_k i_{k+1}}."""
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    sign = (-1.0) ** (bits[:, :-1] * bits[:, 1:]).sum(axis=1)
    return sign.astype(complex) / 2 ** (n / 2)


def check_mps(contracted, sequential, n: int) -> None:
    ref = cluster_reference(n)
    same_state(contracted, ref, "contract vs cluster reference")
    same_state(sequential, ref, "sequential_prepare vs cluster reference")


def check_cluster(state, expectations, n: int) -> None:
    same_state(state, cluster_reference(n), "cluster_state")
    require(len(expectations) == n, f"{len(expectations)} stabilizers for {n} sites")
    for v, e in enumerate(expectations):
        close(e, 1.0, f"stabilizer K_{v}", ATOL_FID)


# ---------------------------------------------------------------------------
# protocol-enumeration checks
# ---------------------------------------------------------------------------

def pad(x: int, z: int) -> np.ndarray:
    """One-time pad X^x Z^z."""
    return np.linalg.matrix_power(X, x) @ np.linalg.matrix_power(Z, z)


def decrypt(amps: np.ndarray, keys) -> np.ndarray:
    n = len(keys)
    t = np.asarray(amps, dtype=complex).reshape((2,) * n)
    for q, (x, z) in enumerate(keys):
        t = apply(t, pad(x, z).conj().T, [q])
    return t.reshape(-1)


def program_unitary(programs, cz_after) -> np.ndarray:
    n = len(programs)
    gates = {"H": H, "T": T}
    u = np.eye(2 ** n, dtype=complex).reshape((2,) * n + (2 ** n,))
    split = cz_after if cz_after is not None else [len(g) for g in programs]
    for q, gs in enumerate(programs):
        for g in gs[:split[q]]:
            u = apply(u, gates[g], [q])
    if cz_after is not None:
        u = apply(u, CZ, [0, 1])
        for q, gs in enumerate(programs):
            for g in gs[split[q]:]:
                u = apply(u, gates[g], [q])
    return u.reshape(2 ** n, 2 ** n)


def lobc_violations(actions) -> int:
    """Directed messages logged before the first broadcast."""
    count = 0
    for a in actions:
        if a == "broadcast":
            break
        count += a == "message"
    return count


def check_leaves(leaves, target: np.ndarray, what: str) -> None:
    """leaves: [(probability, output amplitudes, pad keys, transcript actions)]."""
    close(sum(p for p, _, _, _ in leaves), 1.0, f"{what}: total probability", ATOL_FID)
    for i, (p, amps, keys, actions) in enumerate(leaves):
        require(p > 0, f"{what}: leaf {i} has probability {p}")
        same_state(decrypt(amps, keys), target, f"{what}: leaf {i} decrypted output")
        require(lobc_violations(actions) == 0, f"{what}: leaf {i} breaks LOBC")


def mbqc_target(angles) -> np.ndarray:
    u = I2
    for th in angles:
        u = H @ np.diag([1, np.exp(1j * th)]) @ u
    return u


def check_verdict(results: dict, fidelity_key: str) -> None:
    require(results["verdict"] == "pass", f"verdict {results['verdict']!r}")
    close(results[fidelity_key], 1.0, fidelity_key, ATOL_FID)
    if "lobc_clean" in results:
        require(results["lobc_clean"] is True, "transcript not LOBC-clean")


# ---------------------------------------------------------------------------
# Checker self-test
# ---------------------------------------------------------------------------

def perturb(payload, factor: float = 1 - 1e-3):
    """Copy of ``payload`` with every float (and complex array) scaled by ``factor``."""
    if isinstance(payload, bool) or isinstance(payload, (int, str)) or payload is None:
        return payload
    if isinstance(payload, float):
        return payload * factor
    if isinstance(payload, np.ndarray):
        return payload * factor if payload.dtype.kind in "fc" else payload
    if isinstance(payload, dict):
        return {k: perturb(v, factor) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return type(payload)(perturb(v, factor) for v in payload)
    raise TypeError(f"cannot perturb {type(payload).__name__}")
