"""Foundation types and exact dense linear algebra for finite-dimensional quantum systems.

Everything is dense, exact (up to float64), and immutable: states, operators and
channels are validated against their defining invariants at construction time and
never mutated afterwards.  All entropies and logarithms in this package are base 2.

Validation happens once, where an object enters from the user: the public
constructors, the JSON decoders, :func:`apply_unitary` (whose matrix is raw),
:func:`random_density` and :func:`maximally_mixed` run the full checks, and a
:class:`HilbertSpec` (with its cap check) is always built.  Results whose
invariants follow from inputs that were already validated are built by the
private ``_trusted`` constructor, which skips the O(d^3) eigenvalue, U†U and
K†K checks:

  - ``StateVector.density``: |psi><psi| of a normalized vector is Hermitian
    (exactly, entry by entry), rank one and of unit trace;
  - :func:`tensor` of two density operators or two unitaries;
  - ``UnitaryOp.dagger`` and ``UnitaryOp.channel``;
  - :func:`partial_trace`, :func:`apply_channel` and :func:`dephase` of a
    validated state (with a validated channel);
  - in other modules: the column outputs, Choi state and classical dual of a
    validated channel (``interference``), and the Trotter product and e^{iHt}
    of a Hermitian term sum (``hamiltonian``).

Each holds its invariants up to float64 rounding of the validated inputs.  A
channel's outputs inherit its Kraus completeness error (at most 1e-9) instead
of being rechecked against the 1e-10 trace tolerance.

Package constants are built once and trusted: ``protocols.Register.add_ebit``
appends the ebit of :func:`_max_entangled` unchecked, and the register checks
only the amplitudes a caller passes to ``add_qubit`` or ``add_state``.

A density operator's spectrum is computed at most once: the constructor's
positivity check keeps it, and :meth:`DensityOperator.eigenvalues` reuses it.

One helper decides each invariant, for every module: closeness
(:func:`_require_close`, absolute, ``rtol = 0``), Hermiticity
(:func:`_require_hermitian`), unitarity (:func:`_require_unitary`) and the
dimension cap (:class:`HilbertSpec`, built before the dense work and reused
for the result).  NaN fails every check.

Conventions:
  - Subsystem order is big-endian: the leftmost subsystem in ``dims`` is the most
    significant digit of the composite basis index (wire 0 = top wire).
  - Invariant tolerances are 1e-10 unless a type states otherwise.
  - Eigenvalues of density operators in [-1e-10, 0] are clamped to 0 before
    entropies are taken.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

DEFAULT_DIM_CAP = 4096
ATOL = 1e-10
KRAUS_ATOL = 1e-9


class UqresError(Exception):
    """Base class for all toolkit errors."""


class InvariantError(UqresError):
    """A domain-type invariant or operation precondition is violated."""


class CapExceededError(UqresError):
    """A requested object exceeds the configured dimension/branch cap."""


class ResourceError(UqresError):
    """A protocol resource (ebit, PR box) is missing or already consumed."""


class ParseFailure(UqresError):
    """Malformed input file or unusable document structure."""


def _require_close(a, b, atol: float, message: str) -> None:
    """Raise :class:`InvariantError` unless max|a - b| <= atol (no relative slack, NaN fails)."""
    diff = abs(a - b)
    if isinstance(diff, np.ndarray):
        diff = diff.max(initial=0.0)
    if not diff <= atol:
        raise InvariantError(message)


def _require_hermitian(m: np.ndarray, atol: float, message: str) -> None:
    """Raise :class:`InvariantError` unless ``m`` is square with max|m - m†| <= atol."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvariantError(message)
    _require_close(m, m.conj().T, atol, message)


def _require_unitary(m: np.ndarray, d: int | None, message: str) -> None:
    """Raise :class:`InvariantError` unless ``m`` is a d x d unitary (d = None: any d)."""
    if d is None and m.ndim == 2:
        d = m.shape[0]
    if m.shape != (d, d):
        raise InvariantError(message)
    _require_close(m.conj().T @ m, np.eye(d), ATOL, message)


def _require_placement(wires, d_op: int | None, dims, what: str) -> None:
    """Raise :class:`InvariantError` unless ``wires`` are distinct, in range and fit ``d_op``."""
    for w in wires:
        if not 0 <= w < len(dims):
            raise InvariantError(f"{what} wire {w} out of range")
    if len(set(wires)) != len(wires):
        raise InvariantError(f"{what} wires {wires} repeat a wire")
    if d_op is not None and d_op != math.prod(dims[w] for w in wires):
        raise InvariantError(f"{what} dimension {d_op} does not match wires {wires}")


def _as_complex_array(data, shape_hint: str) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if arr.size == 0:
        raise InvariantError(f"empty {shape_hint}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _trusted(cls, **values):
    """Instance of a domain dataclass built without its invariant checks.

    Only for objects that are valid by construction from validated inputs (see
    the module docstring).  Arrays are frozen in place, not copied, so callers
    pass arrays that nothing else writes to.
    """
    def frozen(a):
        a = np.asarray(a, dtype=complex)
        a.setflags(write=False)
        return a

    obj = object.__new__(cls)
    for f in dataclasses.fields(cls):
        value = values.get(f.name, f.default)
        if value is dataclasses.MISSING:
            raise TypeError(f"{cls.__name__} needs {f.name!r}")
        if isinstance(value, np.ndarray):
            value = frozen(value)
        elif isinstance(value, tuple) and all(isinstance(v, np.ndarray) for v in value):
            value = tuple(frozen(v) for v in value)
        object.__setattr__(obj, f.name, value)
    return obj


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HilbertSpec:
    """Composite Hilbert space given by an ordered tuple of subsystem dimensions.

    ``total_dim`` is the product of ``dims`` and is bounded by ``cap`` (default
    4096); constructors of larger objects raise :class:`CapExceededError`.
    Dimension-1 subsystems are permitted only as degenerate registers (e.g. a
    length-0 clock); regular subsystems have dimension >= 2.
    """

    dims: tuple[int, ...]
    cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise InvariantError("HilbertSpec needs at least one subsystem")
        if any(d < 1 for d in dims):
            raise InvariantError(
                f"subsystem dimensions must be >= 1, got {_dims_text(dims)}")
        if self.total_dim > self.cap:
            raise CapExceededError(
                f"total dimension {_int_text(self.total_dim)} exceeds cap {self.cap}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def __mul__(self, other: "HilbertSpec") -> "HilbertSpec":
        return HilbertSpec(self.dims + other.dims, cap=max(self.cap, other.cap))


def _int_text(n: int) -> str:
    """``n`` in decimal, or as ``~2^k`` when it has more than 64 bits.

    Python refuses to print an int of more than 4300 digits, and a dimension
    such as 2^n for n qubits passes that size from n = 14,285 on.
    """
    if abs(n).bit_length() <= 64:
        return str(n)
    return f"{'-' if n < 0 else ''}~2^{round(math.log2(abs(n)))}"


def _dims_text(dims: tuple[int, ...]) -> str:
    """``str(dims)``, with each entry written by ``_int_text``."""
    return f"({', '.join(map(_int_text, dims))}{',' if len(dims) == 1 else ''})"


def _single(d: int, cap: int = DEFAULT_DIM_CAP) -> HilbertSpec:
    return HilbertSpec((d,), cap=cap)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over a :class:`HilbertSpec` (squared norm 1 to 1e-10)."""

    spec: HilbertSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex_array(self.amplitudes, "amplitude vector")
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.spec.total_dim,):
            raise InvariantError(
                f"amplitude vector has shape {amps.shape}, expected ({self.spec.total_dim},)")
        norm2 = float(np.vdot(amps, amps).real)
        _require_close(norm2, 1.0, ATOL, f"state not normalized: |psi|^2 = {norm2!r}")

    @property
    def dim(self) -> int:
        return self.spec.total_dim

    def density(self) -> "DensityOperator":
        return _trusted(DensityOperator, spec=self.spec,
                        matrix=np.outer(self.amplitudes, self.amplitudes.conj()))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class DensityOperator:
    """Density operator: Hermitian, unit trace, PSD (eigenvalues >= -1e-10)."""

    spec: HilbertSpec
    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex_array(self.matrix, "density matrix")
        object.__setattr__(self, "matrix", mat)
        d = self.spec.total_dim
        if mat.shape != (d, d):
            raise InvariantError(f"density matrix has shape {mat.shape}, expected ({d}, {d})")
        _require_hermitian(mat, ATOL, "density matrix not Hermitian within 1e-10")
        tr = float(np.trace(mat).real)
        _require_close(tr, 1.0, ATOL, f"density matrix trace {tr!r} != 1")
        lo = float(self._spectrum.min())
        if lo < -1e-10:
            raise InvariantError(f"density matrix has negative eigenvalue {lo!r}")

    @property
    def dim(self) -> int:
        return self.spec.total_dim

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """Raw ascending spectrum, computed at most once per object."""
        return np.linalg.eigvalsh(self.matrix)

    def eigenvalues(self) -> np.ndarray:
        """Clamped nonnegative spectrum (ascending)."""
        return _clamp_spectrum(self._spectrum)

    def purity(self) -> float:
        """tr rho^2 = sum |rho_ij|^2 (rho is Hermitian): O(d^2), no product formed."""
        return float(np.vdot(self.matrix, self.matrix).real)


@dataclass(frozen=True)
class UnitaryOp:
    """Unitary operator on a :class:`HilbertSpec` (U†U = 1 to 1e-10)."""

    spec: HilbertSpec
    matrix: np.ndarray
    name: str | None = None

    def __post_init__(self):
        mat = _as_complex_array(self.matrix, "unitary matrix")
        object.__setattr__(self, "matrix", mat)
        d = self.spec.total_dim
        _require_unitary(mat, d, f"matrix is not a {d} x {d} unitary within 1e-10")

    @property
    def dim(self) -> int:
        return self.spec.total_dim

    def dagger(self) -> "UnitaryOp":
        return _trusted(UnitaryOp, spec=self.spec, matrix=self.matrix.conj().T,
                        name=None if self.name is None else self.name + "^dag")

    def channel(self) -> "QuantumChannel":
        return _trusted(QuantumChannel, in_spec=self.spec, out_spec=self.spec,
                        kraus=(self.matrix,))


@dataclass(frozen=True)
class QuantumChannel:
    """CPTP map given by a finite Kraus set (sum K†K = 1 to 1e-9)."""

    in_spec: HilbertSpec
    out_spec: HilbertSpec
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ks = tuple(_as_complex_array(k, "Kraus operator") for k in self.kraus)
        object.__setattr__(self, "kraus", ks)
        if not ks:
            raise InvariantError("channel needs at least one Kraus operator")
        din, dout = self.in_spec.total_dim, self.out_spec.total_dim
        for k in ks:
            if k.shape != (dout, din):
                raise InvariantError(
                    f"Kraus operator has shape {k.shape}, expected ({dout}, {din})")
        acc = sum(k.conj().T @ k for k in ks)
        _require_close(acc, np.eye(din), KRAUS_ATOL,
                       "Kraus completeness sum K†K != 1 within 1e-9")

    @property
    def is_square(self) -> bool:
        return self.in_spec.total_dim == self.out_spec.total_dim


# ---------------------------------------------------------------------------
# Named gates
# ---------------------------------------------------------------------------

_SQRT2_INV = 1.0 / math.sqrt(2.0)
TAU = np.exp(1j * np.pi / 8)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
S = np.array([[1, 0], [0, 1j]], dtype=complex)
# Symmetric convention: T = diag(tau, tau*) with tau = e^{i pi/8}.
T = np.array([[TAU, 0], [0, np.conj(TAU)]], dtype=complex)
CX = np.array([[1, 0, 0, 0],
               [0, 1, 0, 0],
               [0, 0, 0, 1],
               [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)
CCX = np.eye(8, dtype=complex)
CCX[6, 6] = CCX[7, 7] = 0
CCX[6, 7] = CCX[7, 6] = 1
CCX.setflags(write=False)
for _m in (I2, X, Y, Z, H, S, T, CX, CZ, SWAP):
    _m.setflags(write=False)

GATES = {
    "I": I2, "X": X, "Y": Y, "Z": Z, "H": H, "S": S, "T": T,
    "SDG": S.conj().T, "TDG": T.conj().T,
    "CX": CX, "CZ": CZ, "SWAP": SWAP, "CCX": CCX,
}

_GATE_DIMS = {"I": (2,), "X": (2,), "Y": (2,), "Z": (2,), "H": (2,), "S": (2,),
              "T": (2,), "SDG": (2,), "TDG": (2,), "CX": (2, 2), "CZ": (2, 2),
              "SWAP": (2, 2), "CCX": (2, 2, 2)}


# Named measurement bases, outcome k in column k.  "Z" is the computational
# basis and fits a wire of any dimension; "X" and "Y" are qubit bases.
_BASES = {"Z": I2, "X": H,
          "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)}
_BASES["Y"].setflags(write=False)


def _named_basis(name: str, d: int = 2) -> np.ndarray:
    """The columns of the named basis ``name`` on a ``d``-level wire; never write them."""
    if name not in _BASES:
        raise InvariantError(f"unknown basis {name!r}")
    return np.eye(d, dtype=complex) if name == "Z" and d != 2 else _BASES[name]


def gate(name: str) -> UnitaryOp:
    """Named gate constructor (H, T, S, X, Y, Z, CX, CZ, CCX, SWAP, SDG, TDG, I)."""
    key = name.upper()
    if key not in GATES:
        raise InvariantError(f"unknown gate name {name!r}")
    return UnitaryOp(HilbertSpec(_GATE_DIMS[key]), GATES[key], name=key)


# State constructors ---------------------------------------------------------

def basis_state(spec: HilbertSpec, index: int) -> StateVector:
    amps = np.zeros(spec.total_dim, dtype=complex)
    amps[index] = 1
    return StateVector(spec, amps)


def zero_state(dims) -> StateVector:
    return basis_state(HilbertSpec(tuple(dims)), 0)


def plus_state(d: int = 2) -> StateVector:
    return StateVector(_single(d), np.full(d, 1 / math.sqrt(d), dtype=complex))


def _max_entangled(d: int) -> np.ndarray:
    """Read-only amplitudes of |omega> = d^{-1/2} sum_i |ii>; d = 1 is a trivial bond."""
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1.0 / math.sqrt(d)
    amps.setflags(write=False)
    return amps


def maximally_mixed(d: int) -> DensityOperator:
    return DensityOperator(_single(d), np.eye(d, dtype=complex) / d)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def tensor(a, b):
    """Kronecker product of two values of the same kind, concatenating dims."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(a.spec * b.spec, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return _trusted(DensityOperator, spec=a.spec * b.spec, matrix=np.kron(a.matrix, b.matrix))
    if isinstance(a, UnitaryOp) and isinstance(b, UnitaryOp):
        return _trusted(UnitaryOp, spec=a.spec * b.spec, matrix=np.kron(a.matrix, b.matrix))
    raise InvariantError(
        f"tensor requires matching kinds, got {type(a).__name__} and {type(b).__name__}")


def _keep_set(spec: HilbertSpec, keep) -> list[int]:
    """Sorted, deduplicated subsystem indices; raises unless nonempty and in range."""
    keep = sorted(set(int(k) for k in keep))
    n = spec.n_subsystems
    if not keep:
        raise InvariantError("the kept subsystem set must be nonempty")
    if any(k < 0 or k >= n for k in keep):
        raise InvariantError(f"keep indices {keep} out of range for {n} subsystems")
    return keep


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced state on the subsystems in ``keep`` (indices into ``spec.dims``).

    Kept subsystems appear in ascending index order regardless of the order
    they are listed in.
    """
    keep = _keep_set(rho.spec, keep)
    n = rho.spec.n_subsystems
    dims = rho.spec.dims
    tens = rho.matrix.reshape(dims + dims)
    # Trace out complement pairwise, highest index first so positions stay valid.
    traced = tens
    removed = 0
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        cur_n = n - removed
        traced = np.trace(traced, axis1=idx, axis2=idx + cur_n)
        removed += 1
    spec = HilbertSpec(tuple(dims[k] for k in keep), cap=rho.spec.cap)
    return _trusted(DensityOperator, spec=spec,
                    matrix=traced.reshape(spec.total_dim, spec.total_dim))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -sum p log2 p over the clamped spectrum, with 0 log 0 := 0."""
    return shannon_entropy(rho.eigenvalues())


def shannon_entropy(p) -> float:
    """Base-2 Shannon entropy of a nonnegative vector (zeros skipped)."""
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def _shannon_rows(p: np.ndarray) -> np.ndarray:
    """Base-2 Shannon entropy of each row of a nonnegative array (zeros skipped)."""
    safe = np.where(p > 0, p, 1.0)
    return -(safe * np.log2(safe)).sum(axis=-1)


def _clamp_spectrum(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues in [-1e-10, 0] set to 0 (the density-operator convention)."""
    return np.where((vals < 0) & (vals >= -1e-10), 0.0, vals)


def apply_channel(channel: QuantumChannel, rho: DensityOperator) -> DensityOperator:
    if rho.spec.dims != channel.in_spec.dims:
        raise InvariantError(
            f"channel input dims {channel.in_spec.dims} do not match state dims {rho.spec.dims}")
    out = sum(k @ rho.matrix @ k.conj().T for k in channel.kraus)
    return _trusted(DensityOperator, spec=channel.out_spec, matrix=out)


def apply_unitary(rho_or_psi, u: np.ndarray):
    """Apply a full-space unitary matrix to a StateVector or DensityOperator."""
    if isinstance(rho_or_psi, StateVector):
        return StateVector(rho_or_psi.spec, u @ rho_or_psi.amplitudes)
    if isinstance(rho_or_psi, DensityOperator):
        return DensityOperator(rho_or_psi.spec, u @ rho_or_psi.matrix @ u.conj().T)
    raise InvariantError(f"cannot apply unitary to {type(rho_or_psi).__name__}")


def dephase(rho: DensityOperator) -> DensityOperator:
    """Completely dephasing channel: keep the computational-basis diagonal."""
    return _trusted(DensityOperator, spec=rho.spec, matrix=np.diag(np.diag(rho.matrix)))


# Wire-local kernels ---------------------------------------------------------
# An operator on a subset of wires is never embedded into the full space:
# amplitudes (or the columns of an operator) are viewed as a tensor with one
# axis per wire, the operator is applied to its own axes, and the other axes
# are carried along untouched.  ``apply_on_wires`` is that kernel; measured
# wires are split off by ``_measure_split``.

# The fork rule of both branch enumerations (circuit walker, protocol replay):
# an outcome whose probability relative to its parent is at most PRUNE is dropped.
PRUNE = 1e-14


def _fork_outcomes(probs) -> list[int]:
    """The outcomes a branch enumeration follows: those with probability above PRUNE.

    A probability that is not finite, or a draw with no outcome above PRUNE,
    is an invariant violation rather than a leaf.
    """
    if not all(map(math.isfinite, probs)):
        raise InvariantError(f"outcome probabilities {list(probs)} are not finite")
    kept = [k for k, p in enumerate(probs) if p > PRUNE]
    if not kept:
        raise InvariantError(f"no outcome of {list(probs)} has probability above {PRUNE}")
    return kept


def apply_on_wires(amps: np.ndarray, m: np.ndarray, wires, dims) -> np.ndarray:
    """Apply an operator on a wire subset to raw amplitudes (no copy of m).

    ``amps`` has shape (D,) + batch: axis 0 is the composite index over
    ``dims`` and every trailing batch column is transformed alike.  The index
    bookkeeping is plain Python, since on small registers it costs more than
    the product itself.
    """
    dims = tuple(dims)
    n = len(dims)
    batch = amps.shape[1:]
    perm = [*wires, *(w for w in range(n) if w not in wires), *range(n, n + len(batch))]
    inverse = [0] * len(perm)
    for i, axis in enumerate(perm):
        inverse[axis] = i
    flat = amps.reshape(dims + batch).transpose(perm).reshape(
        math.prod(dims[w] for w in wires), -1)
    return (m @ flat).reshape([dims[a] for a in perm[:n]] + list(batch)).transpose(
        inverse).reshape(amps.shape)


def _measure_split(amps: np.ndarray, basis: np.ndarray, wire: int, dims) -> np.ndarray:
    """Measure ``wire`` in the columns of ``basis``: rotate by basis†, then split.

    Slice k of the result holds the unnormalised amplitudes of outcome k with
    the measured wire contracted away, shape (D / d_wire,) + batch for
    ``amps`` of shape (D,) + batch.
    """
    dims = tuple(int(d) for d in dims)
    batch = amps.shape[1:]
    d = dims[wire]
    axes = [wire] + [a for a in range(len(dims) + len(batch)) if a != wire]
    tens = amps.reshape(dims + batch).transpose(axes)
    return (basis.conj().T @ tens.reshape(d, -1)).reshape((d, -1) + batch)


# Dense numerics -------------------------------------------------------------

def expm_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{i t H} for Hermitian H via eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * t * vals)) @ vecs.conj().T


def hermitian_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix (small negatives clamped)."""
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def _dilate_isometry(v: np.ndarray, positions) -> np.ndarray:
    """Complete an isometry to a unitary, pinning column j of v at ``positions[j]``.

    Deterministic: missing columns come from Gram-Schmidt over the identity
    seed basis, so repeated runs build the same circuit.
    """
    rows = v.shape[0]
    u = np.zeros((rows, rows), dtype=complex)
    filled = []
    for j, pos in enumerate(positions):
        u[:, pos] = v[:, j]
        filled.append(v[:, j])
    taken = set(positions)
    free_cols = [k for k in range(rows) if k not in taken]
    idx = 0
    for seed in range(rows):
        if idx == len(free_cols):
            break
        cand = np.zeros(rows, dtype=complex)
        cand[seed] = 1.0
        for b in filled:
            cand = cand - b * np.vdot(b, cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-7:
            cand = cand / norm
            u[:, free_cols[idx]] = cand
            filled.append(cand)
            idx += 1
    if idx != len(free_cols):
        raise InvariantError("failed to complete isometry to a unitary")
    return u


# Fidelity -------------------------------------------------------------------

def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for pure states."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


# Seeded randomness ----------------------------------------------------------

def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_state(dims, rng: np.random.Generator) -> StateVector:
    spec = HilbertSpec(tuple(dims))
    v = rng.standard_normal(spec.total_dim) + 1j * rng.standard_normal(spec.total_dim)
    return StateVector(spec, v / np.linalg.norm(v))


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """Random mixed state: partial trace of a Haar-ish pure state on d x rank."""
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator(_single(d), m)


# JSON codec -----------------------------------------------------------------
# Complex arrays are written as nested lists whose innermost entries are
# [re, im] pairs of numbers; both directions are exact, signed zeros included.

@contextmanager
def _parsing(what: str):
    """Turn the errors of reading a malformed document into :class:`ParseFailure`."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseFailure(f"bad {what}: {exc!r}") from exc


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; else :class:`ParseFailure`, never a truncation.

    The one integer rule for every integer field of an input document:
    ``true``, ``2.0``, ``2.9`` and ``"2"`` are all parse errors.
    """
    if type(value) is not int:
        raise ParseFailure(f"{what} must be a JSON integer, got {value!r}")
    return value


def _json_float(value, what: str) -> float:
    """``value`` as a float if it is a JSON number; else :class:`ParseFailure`.

    The one rule for every real scalar of an input document (an MBQC angle,
    an epsilon, a term weight): ``true`` and ``"0.3"`` are parse errors,
    never read as 1 or parsed from the text, and so is an integer too large
    for a float.  NaN and the infinities are numbers here; the checks of the
    value's domain reject them (exit 3).
    """
    if type(value) not in (int, float):
        raise ParseFailure(f"{what} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseFailure(f"{what} {_int_text(value)} is too large for a float") from None


def _json_ints(values, what: str, count: int | None = None) -> tuple[int, ...]:
    """A list of JSON integers (of ``count`` of them, if given) as a tuple."""
    if type(values) is not list or count not in (None, len(values)):
        size = "any number of" if count is None else count
        raise ParseFailure(f"{what} must be a list of {size} JSON integers, got {values!r}")
    return tuple(_json_int(v, f"each entry of {what}") for v in values)


def _encode_complex(a) -> list:
    """Nested ``[re, im]`` lists for a complex array of any rank."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


_NUMBER_TYPES = frozenset((float, int))


def _table_cell_types(v: list):
    """The set of cell types if ``v`` is a number table, else ``None``.

    A number table is a non-empty list of non-empty lists of exact
    ``float``/``int`` (no bools).  The cells are scanned once, at C level.
    """
    if not v or set(map(type, v)) != {list} or not all(v):
        return None
    types = set(map(type, chain.from_iterable(v)))
    return types if _NUMBER_TYPES.issuperset(types) else None


def _float_token(x: float) -> str:
    """One float as the C encoder writes it: ``NaN``, ``Infinity``, ``-Infinity`` or its repr."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _float_grid_text(v: list, inner: str) -> str:
    """The body of a rectangular all-``float`` table: each distinct float formatted once.

    Equal bit patterns give equal text, so :func:`_float_token` runs once per
    distinct ``uint64`` pattern and the texts are gathered back through the
    inverse of ``np.unique``, between the layout's cell and row separators.
    ``-0.0`` and ``0.0``, and NaNs of different payloads, stay apart.
    """
    cell = inner + "  "
    rows, width = len(v), len(v[0])
    values = np.fromiter(chain.from_iterable(v), np.float64, rows * width)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(_float_token, bits.view(np.float64).tolist())), dtype=object)
    out = np.empty((rows, 2 * width), dtype=object)
    out[:, 0::2] = texts[inverse.reshape(rows, width)]
    out[:, 1::2] = ",\n" + cell
    out[:, -1] = f"\n{inner}],\n{inner}[\n{cell}"
    out[-1, -1] = ""
    return "".join(out.ravel().tolist())


def _dumps_sorted(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, in a fraction of the time.

    With ``indent`` set, ``json`` drops its C encoder for the pure-Python one.
    Here dicts with ``str`` keys and lists are walked in Python, and a number
    table (such as a list of ``[re, im]`` pairs) is written in one piece:

      - a rectangular table of exact ``float`` cells formats each distinct
        bit pattern once, as the C encoder does (``NaN``, ``Infinity``,
        ``-Infinity``, else ``float.__repr__``), and gathers the texts back
        with the layout's separators.  Measured wires sit in basis states, so
        a branch report holds a few amplitudes many times over; equal bits
        always give equal text, so the bytes are the C encoder's.
      - any other number table (one holding an ``int``, or ragged) is encoded
        compactly by the C encoder, its layout put in by two ``str.replace``
        calls: no number, ``NaN`` or ``Infinity`` token contains ``[``, ``]``
        or ``", "``.

    Everything else goes to ``json.dumps`` itself.  That includes a dict with
    a non-``str`` key, because ``json`` sorts those before turning them into
    strings.
    """
    out: list[str] = []
    _write_sorted(doc, "", out.append)
    return "".join(out)


def _write_sorted(v, indent: str, put) -> None:
    inner = indent + "  "
    if type(v) is dict and v and all(type(k) is str for k in v):
        sep = "{\n"
        for k, x in sorted(v.items()):
            put(f"{sep}{inner}{encode_basestring_ascii(k)}: ")
            _write_sorted(x, inner, put)
            sep = ",\n"
        put(f"\n{indent}}}")
    elif type(v) is list and v:
        types = _table_cell_types(v)
        if types is not None:
            cell = inner + "  "
            put(f"[\n{inner}[\n{cell}")
            if types == {float} and len(set(map(len, v))) == 1:
                put(_float_grid_text(v, inner))
            else:
                put(json.dumps(v)[2:-2]
                    .replace("], [", f"\n{inner}],\n{inner}[\n{cell}")
                    .replace(", ", ",\n" + cell))
            put(f"\n{inner}]\n{indent}]")
        else:
            sep = "[\n"
            for x in v:
                put(sep + inner)
                _write_sorted(x, inner, put)
                sep = ",\n"
            put(f"\n{indent}]")
    elif isinstance(v, (dict, list, tuple)):
        # Its output has no newline but the layout's own, so it re-indents safely.
        put(json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n" + indent))
    else:
        put(json.dumps(v))


def _decode_complex(data, rank: int, what: str) -> np.ndarray:
    """Rank-``rank`` complex array from nested ``[re, im]`` pairs (inverse of the encoder).

    Missing or ragged nesting, non-numeric entries and entries that are not
    pairs raise :class:`ParseFailure`.  An empty list decodes to an empty
    array, which the domain types then reject as an invariant violation.
    """
    with _parsing(what):
        arr = np.array(data)
        if arr.size == 0:
            return np.zeros((0,) * rank, dtype=complex)
        if arr.dtype.kind not in "iuf" or arr.shape[-1:] != (2,) or arr.ndim != rank + 1:
            raise ValueError(f"expected a rank-{rank} array of [re, im] number pairs")
        return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]
